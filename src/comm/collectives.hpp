#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/transport.hpp"

/// Tree-shaped collectives built on point-to-point messages.
///
/// The paper assumes reductions/broadcasts "work in a tree-like manner"
/// (Section II-B assumption 2), giving log(p) rounds.  We implement binomial
/// trees over an explicit participant list, so the traffic a collective
/// generates is real point-to-point traffic the Transport counts -- tests
/// verify the log-shaped message pattern directly.
///
/// Every collective call must use a tag that is not concurrently in use by
/// another subsystem between the same endpoints; FIFO matching per
/// (source, destination, tag) then keeps repeated calls aligned.
namespace dsbfs::comm {

/// Bitwise-OR allreduce of `words` (in place) across `participants`.
/// `me_index` is the caller's position in `participants`.  All participants
/// must call with identical `participants` and word counts.
void allreduce_or_words(Transport& t, std::span<const int> participants,
                        int me_index, std::span<std::uint64_t> words, int tag);

/// Sum allreduce of a single value.
std::uint64_t allreduce_sum(Transport& t, std::span<const int> participants,
                            int me_index, std::uint64_t value, int tag);

/// Element-wise minimum allreduce of `words` (in place).  Used for parent
/// resolution: candidates are global vertex ids, UINT64_MAX means "none".
void allreduce_min_words(Transport& t, std::span<const int> participants,
                         int me_index, std::span<std::uint64_t> words, int tag);

/// Broadcast `words` from participants[0] to all (in place).
void broadcast_words(Transport& t, std::span<const int> participants,
                     int me_index, std::span<std::uint64_t> words, int tag);

/// Gather variable-length payloads to participants[0]; returns, on the root
/// only, the concatenation ordered by participant index (others get empty).
std::vector<std::uint64_t> gather_words(Transport& t,
                                        std::span<const int> participants,
                                        int me_index,
                                        std::span<const std::uint64_t> words,
                                        int tag);

/// All-gather: every participant receives the concatenation (ordered by
/// participant index) of everyone's payload.  Sizes may differ.
std::vector<std::uint64_t> allgather_words(Transport& t,
                                           std::span<const int> participants,
                                           int me_index,
                                           std::span<const std::uint64_t> words,
                                           int tag);

}  // namespace dsbfs::comm
