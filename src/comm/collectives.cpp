#include "comm/collectives.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace dsbfs::comm {

namespace {

/// Binomial-tree reduce to participants[0] followed by binomial broadcast.
/// `combine(local, incoming)` merges a child's contribution.
void tree_allreduce(
    Transport& t, std::span<const int> participants, int me, int tag,
    std::vector<std::uint64_t>& data,
    const std::function<void(std::vector<std::uint64_t>&,
                             const std::vector<std::uint64_t>&)>& combine) {
  const int n = static_cast<int>(participants.size());
  assert(me >= 0 && me < n);

  // Reduce phase: at step s, endpoints with (me % 2s == s) send to me - s.
  for (int step = 1; step < n; step <<= 1) {
    if ((me & step) != 0) {
      t.send(participants[static_cast<std::size_t>(me)],
             participants[static_cast<std::size_t>(me - step)], tag, data);
      break;
    }
    if (me + step < n) {
      const auto incoming =
          t.recv(participants[static_cast<std::size_t>(me)],
                 participants[static_cast<std::size_t>(me + step)], tag);
      combine(data, incoming);
    }
  }

  // Broadcast phase (binomial, mirror of the reduce).
  int recv_step = 0;
  if (me != 0) {
    recv_step = me & (-me);  // lowest set bit: the step at which we receive
    data = t.recv(participants[static_cast<std::size_t>(me)],
                  participants[static_cast<std::size_t>(me - recv_step)],
                  tag + 1);
  } else {
    recv_step = 1;
    while (recv_step < n) recv_step <<= 1;
  }
  for (int step = recv_step >> 1; step >= 1; step >>= 1) {
    if (me + step < n) {
      t.send(participants[static_cast<std::size_t>(me)],
             participants[static_cast<std::size_t>(me + step)], tag + 1, data);
    }
  }
}

}  // namespace

void allreduce_or_words(Transport& t, std::span<const int> participants,
                        int me_index, std::span<std::uint64_t> words, int tag) {
  std::vector<std::uint64_t> data(words.begin(), words.end());
  tree_allreduce(t, participants, me_index, tag, data,
                 [](std::vector<std::uint64_t>& acc,
                    const std::vector<std::uint64_t>& in) {
                   for (std::size_t i = 0; i < acc.size(); ++i) acc[i] |= in[i];
                 });
  std::copy(data.begin(), data.end(), words.begin());
}

void allreduce_min_words(Transport& t, std::span<const int> participants,
                         int me_index, std::span<std::uint64_t> words, int tag) {
  std::vector<std::uint64_t> data(words.begin(), words.end());
  tree_allreduce(t, participants, me_index, tag, data,
                 [](std::vector<std::uint64_t>& acc,
                    const std::vector<std::uint64_t>& in) {
                   for (std::size_t i = 0; i < acc.size(); ++i) {
                     acc[i] = std::min(acc[i], in[i]);
                   }
                 });
  std::copy(data.begin(), data.end(), words.begin());
}

std::uint64_t allreduce_sum(Transport& t, std::span<const int> participants,
                            int me_index, std::uint64_t value, int tag) {
  std::vector<std::uint64_t> data{value};
  tree_allreduce(t, participants, me_index, tag, data,
                 [](std::vector<std::uint64_t>& acc,
                    const std::vector<std::uint64_t>& in) { acc[0] += in[0]; });
  return data[0];
}

void broadcast_words(Transport& t, std::span<const int> participants,
                     int me_index, std::span<std::uint64_t> words, int tag) {
  const int n = static_cast<int>(participants.size());
  std::vector<std::uint64_t> data(words.begin(), words.end());
  int recv_step;
  if (me_index != 0) {
    recv_step = me_index & (-me_index);
    data = t.recv(participants[static_cast<std::size_t>(me_index)],
                  participants[static_cast<std::size_t>(me_index - recv_step)],
                  tag);
  } else {
    recv_step = 1;
    while (recv_step < n) recv_step <<= 1;
  }
  for (int step = recv_step >> 1; step >= 1; step >>= 1) {
    if (me_index + step < n) {
      t.send(participants[static_cast<std::size_t>(me_index)],
             participants[static_cast<std::size_t>(me_index + step)], tag, data);
    }
  }
  std::copy(data.begin(), data.end(), words.begin());
}

std::vector<std::uint64_t> gather_words(Transport& t,
                                        std::span<const int> participants,
                                        int me_index,
                                        std::span<const std::uint64_t> words,
                                        int tag) {
  const int n = static_cast<int>(participants.size());
  const int root = participants[0];
  if (me_index != 0) {
    t.send(participants[static_cast<std::size_t>(me_index)], root, tag,
           std::vector<std::uint64_t>(words.begin(), words.end()));
    return {};
  }
  std::vector<std::uint64_t> out(words.begin(), words.end());
  for (int i = 1; i < n; ++i) {
    auto part = t.recv(root, participants[static_cast<std::size_t>(i)], tag);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::vector<std::uint64_t> allgather_words(Transport& t,
                                           std::span<const int> participants,
                                           int me_index,
                                           std::span<const std::uint64_t> words,
                                           int tag) {
  // Gather to root with per-part size framing, then broadcast.
  const int n = static_cast<int>(participants.size());
  std::vector<std::uint64_t> framed;
  framed.reserve(words.size() + 1);
  framed.push_back(words.size());
  framed.insert(framed.end(), words.begin(), words.end());
  std::vector<std::uint64_t> gathered =
      gather_words(t, participants, me_index, framed, tag);

  std::uint64_t total_size = 0;
  if (me_index == 0) {
    // Strip frames, keep participant order (gather preserved it).
    std::vector<std::uint64_t> flat;
    std::size_t pos = 0;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t len = gathered[pos++];
      flat.insert(flat.end(), gathered.begin() + static_cast<std::ptrdiff_t>(pos),
                  gathered.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += len;
    }
    gathered = std::move(flat);
    total_size = gathered.size();
  }
  std::vector<std::uint64_t> size_word{total_size};
  broadcast_words(t, participants, me_index, size_word, tag + 2);
  gathered.resize(size_word[0]);
  broadcast_words(t, participants, me_index, gathered, tag + 3);
  return gathered;
}

}  // namespace dsbfs::comm
