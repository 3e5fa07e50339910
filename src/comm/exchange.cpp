#include "comm/exchange.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <string>

#include "util/hash.hpp"
#include "util/lane_value_slab.hpp"

namespace dsbfs::comm {

namespace {

/// Coalesce candidates sharing a destination vertex with the bin's combine;
/// leaves the bin sorted by vertex id.  Returns the number removed.
/// `lane_value_bits` is the sub-lane width of the kLaneMin/kLaneSum packed
/// words (ignored by the scalar combines).
std::uint64_t coalesce_bin(std::vector<VertexUpdate>& bin,
                           UpdateCombine combine, int lane_value_bits) {
  if (bin.size() < 2) return 0;
  std::sort(bin.begin(), bin.end(),
            [](const VertexUpdate& a, const VertexUpdate& b) {
              return a.vertex < b.vertex;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < bin.size();) {
    VertexUpdate u = bin[i++];
    for (; i < bin.size() && bin[i].vertex == u.vertex; ++i) {
      if (combine == UpdateCombine::kMin) {
        u.value = std::min(u.value, bin[i].value);
      } else if (combine == UpdateCombine::kOr) {
        u.value |= bin[i].value;
      } else if (combine == UpdateCombine::kLaneMin) {
        u.value = util::LaneValueSlab::lane_min_word(u.value, bin[i].value,
                                                     lane_value_bits);
      } else if (combine == UpdateCombine::kLaneSum) {
        u.value = util::LaneValueSlab::lane_add_word(u.value, bin[i].value,
                                                     lane_value_bits);
      } else {  // kSumDouble
        u.value = std::bit_cast<std::uint64_t>(
            std::bit_cast<double>(u.value) + std::bit_cast<double>(bin[i].value));
      }
    }
    bin[out++] = u;
  }
  const std::uint64_t removed = bin.size() - out;
  bin.resize(out);
  return removed;
}

// ---- delta+varint update encoding -----------------------------------------

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(0x80 | (v & 0x7f)));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Wire format: [count, payload_byte_count, payload bytes packed LE].  Ids
/// travel as zigzag varint deltas from the previous id (ascending after
/// coalescing, so deltas are small non-negatives), values as plain varints
/// after subtracting the caller's bias (mod 2^64; the receiver adds it
/// back, so any bias round-trips bit-exactly).
std::vector<std::uint64_t> pack_updates_compressed(
    const std::vector<VertexUpdate>& updates, std::uint64_t value_bias) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(updates.size() * 3);
  std::int64_t prev = 0;
  for (const VertexUpdate& u : updates) {
    put_varint(bytes, zigzag(static_cast<std::int64_t>(u.vertex) - prev));
    prev = static_cast<std::int64_t>(u.vertex);
    put_varint(bytes, u.value - value_bias);
  }
  std::vector<std::uint64_t> words;
  words.reserve(2 + (bytes.size() + 7) / 8);
  words.push_back(updates.size());
  words.push_back(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < 8 && i + b < bytes.size(); ++b) {
      w |= static_cast<std::uint64_t>(bytes[i + b]) << (8 * b);
    }
    words.push_back(w);
  }
  return words;
}

// ---- Gorilla-style value encoding -----------------------------------------
// The XOR-vs-previous scheme of Facebook's Gorilla TSDB, applied to the
// bit-cast 64-bit value stream of one bin: a repeated value costs one bit,
// a value sharing its predecessor's significant-bit window costs
// 2 + window bits, anything else re-opens a window for 14 + window bits.
// Ids still travel as zigzag varint deltas (the same id stream the
// delta+varint encoder ships), written before the byte-aligned value bit
// stream, so the [count, byte_count, bytes LE] header -- and with it the
// hop accounting and the adaptive flag word -- carry over unchanged.

struct BitWriter {
  std::vector<std::uint8_t>& bytes;
  int used = 0;  // bits used in the last byte (0 = none open)

  void put(std::uint64_t bits, int n) {
    for (int i = 0; i < n; ++i) {
      if (used == 0) bytes.push_back(0);
      if ((bits >> i) & 1) {
        bytes.back() |= static_cast<std::uint8_t>(1u << used);
      }
      used = (used + 1) & 7;
    }
  }
};

struct BitReader {
  std::span<const std::uint64_t> words;  // full payload, bytes packed LE
  std::uint64_t byte_pos;                // absolute byte offset of the stream
  std::uint64_t byte_end;
  int used = 0;  // bits consumed of the current byte

  std::uint64_t get(int n) {
    std::uint64_t out = 0;
    for (int i = 0; i < n; ++i) {
      if (byte_pos >= byte_end) {
        throw DecodeError("gorilla value stream truncated");
      }
      const auto b = static_cast<std::uint8_t>(words[2 + byte_pos / 8] >>
                                               (8 * (byte_pos % 8)));
      out |= static_cast<std::uint64_t>((b >> used) & 1) << i;
      if (++used == 8) {
        used = 0;
        ++byte_pos;
      }
    }
    return out;
  }

  /// Byte offset just past the last consumed bit.
  std::uint64_t consumed_end() const { return byte_pos + (used != 0 ? 1 : 0); }
};

std::vector<std::uint64_t> pack_updates_gorilla(
    const std::vector<VertexUpdate>& updates) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(updates.size() * 6);
  std::int64_t prev_id = 0;
  for (const VertexUpdate& u : updates) {
    put_varint(bytes, zigzag(static_cast<std::int64_t>(u.vertex) - prev_id));
    prev_id = static_cast<std::int64_t>(u.vertex);
  }
  BitWriter w{bytes};
  std::uint64_t prev = 0;
  int win_lead = -1, win_len = 0;  // no window open yet
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const std::uint64_t v = updates[i].value;
    if (i == 0) {
      w.put(v, 64);
      prev = v;
      continue;
    }
    const std::uint64_t x = v ^ prev;
    prev = v;
    if (x == 0) {
      w.put(0, 1);
      continue;
    }
    w.put(1, 1);
    const int lead = std::countl_zero(x);
    const int trail = std::countr_zero(x);
    const int win_trail = 64 - win_lead - win_len;
    if (win_lead >= 0 && lead >= win_lead && trail >= win_trail) {
      w.put(0, 1);
      w.put(x >> win_trail, win_len);
    } else {
      w.put(1, 1);
      w.put(static_cast<std::uint64_t>(lead), 6);
      const int len = 64 - lead - trail;
      w.put(static_cast<std::uint64_t>(len - 1), 6);
      w.put(x >> trail, len);
      win_lead = lead;
      win_len = len;
    }
  }
  std::vector<std::uint64_t> words;
  words.reserve(2 + (bytes.size() + 7) / 8);
  words.push_back(updates.size());
  words.push_back(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8 && i + b < bytes.size(); ++b) {
      word |= static_cast<std::uint64_t>(bytes[i + b]) << (8 * b);
    }
    words.push_back(word);
  }
  return words;
}

std::vector<std::uint64_t> pack_updates_raw(
    const std::vector<VertexUpdate>& updates) {
  std::vector<std::uint64_t> words;
  words.reserve(1 + updates.size() * 2);
  words.push_back(updates.size());
  for (const VertexUpdate& u : updates) {
    words.push_back(u.vertex);
    words.push_back(u.value);
  }
  return words;
}

struct EncodedBin {
  std::vector<std::uint64_t> words;
  /// Logical payload bytes by the historic counting rules (encoded byte
  /// count when compressed, records * record_bytes raw; the adaptive flag
  /// word is not counted).
  std::uint64_t payload_bytes = 0;
};

// ---- record kinds ---------------------------------------------------------
// One exchange implementation (flat with optional local all2all, or
// multi-hop) serves both record kinds; a kind owns everything that depends
// on the record: the per-bin merge, the payload encoding, its decoder, and
// the header reads the hop accounting needs.

/// Bare destination-local ids, packed two per 64-bit word behind a count
/// header.  The 4-bytes-per-vertex wire format is what makes the paper's
/// 4|Enn| communication volume hold; tests check the byte counters against
/// it.  Any combine but kNone merges by the U option's uniquify.
struct IdRecords {
  using Record = LocalId;
  const ExchangeOptions& opt;

  std::uint64_t record_bytes() const { return 4; }
  bool mergeable() const { return opt.combine != UpdateCombine::kNone; }

  std::uint64_t merge(std::vector<LocalId>& ids) const {
    const std::size_t before = ids.size();
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return before - ids.size();
  }

  EncodedBin encode(const std::vector<LocalId>& ids, ExchangeCounters&) const {
    EncodedBin out;
    out.words.reserve(1 + (ids.size() + 1) / 2);
    out.words.push_back(ids.size());
    for (std::size_t i = 0; i + 1 < ids.size(); i += 2) {
      out.words.push_back(static_cast<std::uint64_t>(ids[i]) |
                          (static_cast<std::uint64_t>(ids[i + 1]) << 32));
    }
    if (ids.size() % 2 == 1) {
      out.words.push_back(static_cast<std::uint64_t>(ids.back()));
    }
    out.payload_bytes = ids.size() * 4;
    return out;
  }

  /// Decode the payload starting at words[pos], advance pos past it, and
  /// return its logical bytes.
  std::uint64_t decode(std::span<const std::uint64_t> words, std::size_t& pos,
                       std::vector<LocalId>& out) const {
    const std::size_t before = out.size();
    decode_ids(words, pos, out);
    return (out.size() - before) * 4;
  }

  std::uint64_t record_count(const std::vector<std::uint64_t>& words) const {
    return words.empty() ? 0 : words[0];
  }

  std::uint64_t logical_bytes(const std::vector<std::uint64_t>& words) const {
    return record_count(words) * 4;
  }
};

/// (id, value) updates: merged by the caller's combine, shipped in the
/// caller's WireCodec (raw pairs, delta+varint, or a per-bin choice between
/// raw and varint or Gorilla behind a flag word).  Cross-source merging at
/// forwarding hops runs only for the order-insensitive combines --
/// kSumDouble's IEEE addition is not associative and kNone promises every
/// candidate, so those forward per-source segments intact.
struct UpdateRecords {
  using Record = VertexUpdate;
  const ExchangeOptions& opt;

  /// Wire width of one uncompressed update: 4-byte id + the value field.
  /// value_bytes = 8 is the historic (id, 64-bit value) record; lane-word
  /// senders narrow it to their batch width.
  std::uint64_t record_bytes() const {
    return 4 + static_cast<std::uint64_t>(opt.value_bytes);
  }
  bool mergeable() const {
    return opt.combine == UpdateCombine::kMin ||
           opt.combine == UpdateCombine::kOr ||
           opt.combine == UpdateCombine::kLaneMin ||
           opt.combine == UpdateCombine::kLaneSum;
  }

  std::uint64_t merge(std::vector<VertexUpdate>& bin) const {
    return coalesce_bin(bin, opt.combine, opt.lane_value_bits);
  }

  bool encodes() const { return opt.codec != WireCodec::kRaw; }
  /// Per-bin raw-vs-encoded choice behind a flag word.
  bool flagged() const {
    return opt.codec == WireCodec::kAdaptive ||
           opt.codec == WireCodec::kGorilla;
  }

  /// Raw pairs, delta+varint, or the per-bin raw-vs-encoded choice behind a
  /// flag word.  Charges the encode and per-bin decision counters.
  EncodedBin encode(const std::vector<VertexUpdate>& bin,
                    ExchangeCounters& counters) const {
    EncodedBin out;
    const std::uint64_t raw_bytes = bin.size() * record_bytes();
    if (!encodes()) {
      out.words = pack_updates_raw(bin);
      out.payload_bytes = raw_bytes;
      return out;
    }
    // The encode kernel runs either way, so it is charged either way.
    counters.encode_bytes += raw_bytes;
    std::vector<std::uint64_t> body =
        opt.codec == WireCodec::kGorilla
            ? pack_updates_gorilla(bin)
            : pack_updates_compressed(bin, opt.value_bias);
    if (!flagged()) {
      out.payload_bytes = body[1];  // encoded byte count
      out.words = std::move(body);
      return out;
    }
    // Trial-encode, ship whichever representation is smaller; a one-word
    // header flags the choice for the receiver.
    const bool encoded_wins = body[1] < raw_bytes;
    if (encoded_wins) {
      out.payload_bytes = body[1];
    } else {
      out.payload_bytes = raw_bytes;
      body = pack_updates_raw(bin);
    }
    if (!bin.empty()) {
      ++(encoded_wins ? counters.bins_compressed : counters.bins_raw);
    }
    out.words.reserve(body.size() + 1);
    out.words.push_back(encoded_wins ? 1 : 0);
    out.words.insert(out.words.end(), body.begin(), body.end());
    return out;
  }

  /// Decode the payload starting at words[pos] (behind its flag word when
  /// the codec chooses per bin), advance pos past it, and return its
  /// logical bytes.
  std::uint64_t decode(std::span<const std::uint64_t> words, std::size_t& pos,
                       std::vector<VertexUpdate>& out) const {
    std::span<const std::uint64_t> body = words.subspan(pos);
    bool encoded = encodes();
    if (flagged()) {
      if (body.empty()) {
        throw DecodeError("adaptive update payload missing its flag word");
      }
      if (body[0] > 1) {
        throw DecodeError("adaptive update payload has an invalid flag word");
      }
      encoded = body[0] == 1;
      body = body.subspan(1);
      ++pos;
    }
    // The headers give the payload's length; a length past the end is
    // clamped, so the decoder below sees the truncation and rejects it.
    std::size_t len = body.size();
    if (encoded && len >= 2) {
      len = std::min<std::uint64_t>(len, 2 + body[1] / 8 + (body[1] % 8 != 0));
    } else if (!encoded && len >= 1 && body[0] <= (len - 1) / 2) {
      len = 1 + 2 * body[0];
    }
    body = body.first(len);
    pos += len;
    const std::size_t before = out.size();
    if (encoded && opt.codec == WireCodec::kGorilla) {
      decode_updates_gorilla(body, out);
    } else if (encoded) {
      decode_updates_compressed(body, opt.value_bias, out);
    } else {
      decode_updates_raw(body, out);
    }
    // body[1] is the validated encoded byte count.
    return encoded ? body[1] : (out.size() - before) * record_bytes();
  }

  std::uint64_t record_count(const std::vector<std::uint64_t>& words) const {
    if (flagged()) {
      if (words.size() < 2) {
        throw DecodeError("adaptive update segment shorter than its headers");
      }
      return words[1];
    }
    if (words.empty()) {
      throw DecodeError("update segment missing its count header");
    }
    return words[0];
  }

  std::uint64_t logical_bytes(const std::vector<std::uint64_t>& words) const {
    if (flagged()) {
      if (words.size() < 2) {
        throw DecodeError("adaptive update segment shorter than its headers");
      }
      if (words[0] == 1) {
        if (words.size() < 3) {
          throw DecodeError("compressed update segment missing its headers");
        }
        return words[2];  // encoded byte count
      }
      return words[1] * record_bytes();
    }
    if (encodes()) {
      if (words.size() < 2) {
        throw DecodeError("compressed update segment missing its headers");
      }
      return words[1];
    }
    if (words.empty()) {
      throw DecodeError("update segment missing its count header");
    }
    return words[0] * record_bytes();
  }
};

/// Per-bin merge with the uniquify counter charges (U for ids, the
/// combine's coalescing for updates); leaves the bin sorted by vertex id.
/// A no-op under UpdateCombine::kNone.
template <class Kind>
void coalesce(const Kind& kind, std::vector<typename Kind::Record>& recs,
              ExchangeCounters& counters) {
  if (kind.opt.combine == UpdateCombine::kNone) return;
  counters.uniquify_vertices += recs.size();
  counters.uniquify_bytes += recs.size() * kind.record_bytes();
  counters.duplicates_removed += kind.merge(recs);
}

/// Decode a message (or hop segment) holding exactly one payload; returns
/// its logical bytes.
template <class Kind>
std::uint64_t decode_payload(const Kind& kind,
                             std::span<const std::uint64_t> words,
                             std::vector<typename Kind::Record>& out) {
  std::size_t pos = 0;
  const std::uint64_t bytes = kind.decode(words, pos, out);
  if (pos != words.size()) {
    throw DecodeError("exchange payload has trailing words");
  }
  return bytes;
}

// ---- hardened wire helpers ------------------------------------------------

/// Checksum + frame an outbound payload on a lossy transport; pass-through
/// (and zero extra work) on a clean one.
std::vector<std::uint64_t> maybe_frame(const Transport& transport,
                                       std::vector<std::uint64_t> payload,
                                       ExchangeCounters& counters) {
  if (!transport.lossy()) return payload;
  counters.checksum_bytes += payload.size() * sizeof(std::uint64_t);
  return frame_payload(std::move(payload));
}

/// Reliable receive on link (from -> to, tag).  Clean transport: a plain
/// recv.  Lossy transport: receive frames until one verifies, treating a
/// lost tombstone as the modeled receive timeout and a framing/checksum
/// failure as a NACK; each failure charges the current retry window to
/// recovery_ns, widens it by the backoff factor (capped), and requests a
/// retransmission of the retained pristine copy.  Throws TransportError
/// when the retry budget is exhausted.
std::vector<std::uint64_t> recv_reliable(Transport& transport, int to,
                                         int from, int tag,
                                         const sim::RetryPolicy& retry,
                                         ExchangeCounters& counters) {
  if (!transport.lossy()) return transport.recv(to, from, tag);
  std::uint64_t window = retry.timeout_ns;
  const int max_attempts = std::max(1, retry.max_attempts);
  for (int attempt = 1;; ++attempt) {
    Message m = transport.recv_message(to, from, tag);
    // A delayed-but-intact frame still costs its hold-back.
    if (m.delay_ns > 0) counters.recovery_ns += m.delay_ns;
    if (!m.lost) {
      if (m.words.size() > 2) {
        counters.checksum_bytes +=
            (m.words.size() - 2) * sizeof(std::uint64_t);
      }
      bool accepted = false;
      try {
        verify_frame(m.words);
        accepted = true;
      } catch (const DecodeError&) {
        ++counters.corrupt_bins;
      }
      if (accepted) {
        // Drain duplicate copies already queued on this link; a duplicated
        // attempt enqueues both copies atomically, so none can trail in,
        // and each logical frame owns its (from, to, tag) triple outright.
        while (transport.probe(to, from, tag)) {
          transport.recv_message(to, from, tag);
        }
        m.words.erase(m.words.begin(), m.words.begin() + 2);
        return std::move(m.words);
      }
    }
    // Lost (detected at the modeled timeout) or rejected by its checksum:
    // charge the wait, then ask the sender for the retained copy.
    counters.recovery_ns += window;
    window = std::min<std::uint64_t>(
        retry.max_backoff_ns,
        static_cast<std::uint64_t>(static_cast<double>(window) *
                                   retry.backoff));
    if (attempt >= max_attempts) {
      throw TransportError(
          "hardened exchange: retry budget exhausted on link (from=" +
          std::to_string(from) + ", to=" + std::to_string(to) +
          ", tag=" + std::to_string(tag) + ") after " +
          std::to_string(max_attempts) + " attempts");
    }
    ++counters.retries;
    if (!transport.retransmit(from, to, tag)) {
      throw TransportError(
          "hardened exchange: no retained frame to retransmit on link "
          "(from=" +
          std::to_string(from) + ", to=" + std::to_string(to) +
          ", tag=" + std::to_string(tag) + ")");
    }
  }
}

// ---- multi-hop (hierarchical / butterfly) routing -------------------------
// Messages between GPUs carry *segments*: per-destination payloads in the
// flat exchange's own bin encodings, prefixed with a routing header.  Wire
// layout: [segment_count] then per segment [dest_gpu | (src_gpu << 32)]
// [payload_word_count] [payload words].  src = kMergedSrc marks a segment
// re-coalesced across several origins at a forwarding hop (only done for
// order-insensitive combines); per-source segments keep their origin so the
// final receiver can reproduce the flat exchange's source-ordered fold.

constexpr std::uint32_t kMergedSrc = 0xffffffffu;

struct Segment {
  std::uint32_t dest = 0;
  std::uint32_t src = kMergedSrc;
  std::vector<std::uint64_t> words;
};

std::vector<std::uint64_t> pack_segments(const std::vector<Segment>& segs) {
  std::size_t total = 1;
  for (const Segment& s : segs) total += 2 + s.words.size();
  std::vector<std::uint64_t> out;
  out.reserve(total);
  out.push_back(segs.size());
  for (const Segment& s : segs) {
    out.push_back(static_cast<std::uint64_t>(s.dest) |
                  (static_cast<std::uint64_t>(s.src) << 32));
    out.push_back(s.words.size());
    out.insert(out.end(), s.words.begin(), s.words.end());
  }
  return out;
}

std::vector<Segment> unpack_segments(std::span<const std::uint64_t> words,
                                     int total_gpus) {
  if (words.empty()) {
    throw DecodeError("hop message missing its segment count");
  }
  const std::uint64_t count = words[0];
  std::size_t pos = 1;
  if (count > (words.size() - 1) / 2) {
    throw DecodeError("hop message segment count " + std::to_string(count) +
                      " exceeds its " + std::to_string(words.size() - 1) +
                      " body words");
  }
  std::vector<Segment> segs;
  segs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (words.size() - pos < 2) {
      throw DecodeError("hop segment header truncated");
    }
    Segment s;
    s.dest = static_cast<std::uint32_t>(words[pos] & 0xffffffffULL);
    s.src = static_cast<std::uint32_t>(words[pos] >> 32);
    if (s.dest >= static_cast<std::uint32_t>(total_gpus)) {
      throw DecodeError("hop segment destination out of range");
    }
    if (s.src != kMergedSrc &&
        s.src >= static_cast<std::uint32_t>(total_gpus)) {
      throw DecodeError("hop segment source out of range");
    }
    const std::uint64_t len = words[pos + 1];
    pos += 2;
    if (len > words.size() - pos) {
      throw DecodeError("hop segment payload truncated");
    }
    s.words.assign(words.begin() + static_cast<std::ptrdiff_t>(pos),
                   words.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
    segs.push_back(std::move(s));
  }
  if (pos != words.size()) {
    throw DecodeError("hop message has trailing words");
  }
  return segs;
}

/// Wire bytes of one hop message by the historic counting rules: an 8-byte
/// segment-count word plus, per segment, 16 bytes of routing header and the
/// flat exchange's logical payload bytes.  The headers are counted because
/// they are the real price of aggregation; the lossy-transport frame
/// overhead is charged to the legacy counters separately, like flat does.
template <class Kind>
std::uint64_t message_logical_bytes(const std::vector<Segment>& segs,
                                    const Kind& kind) {
  std::uint64_t bytes = 8;
  for (const Segment& s : segs) bytes += 16 + kind.logical_bytes(s.words);
  return bytes;
}

template <class Kind>
std::uint64_t message_records(const std::vector<Segment>& segs,
                              const Kind& kind) {
  std::uint64_t records = 0;
  for (const Segment& s : segs) records += kind.record_count(s.words);
  return records;
}

/// Re-bin a hop's outgoing segments: deterministic (dest, src) order, and
/// -- when the combine is order-insensitive -- decode + re-coalesce +
/// re-encode each multi-segment destination group into one merged segment.
/// This is the per-hop reapplication of the uniquify/compress machinery;
/// the coalesce/encode kernels are charged to the same counters the origin
/// pass uses, because the work really reruns on the forwarding GPU.
template <class Kind>
void rebin_segments(std::vector<Segment>& segs, const Kind& kind,
                    sim::HopCounters& hop, ExchangeCounters& counters) {
  std::stable_sort(segs.begin(), segs.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.dest != b.dest ? a.dest < b.dest : a.src < b.src;
                   });
  if (!kind.mergeable()) return;
  std::vector<Segment> out;
  out.reserve(segs.size());
  for (std::size_t i = 0; i < segs.size();) {
    std::size_t j = i + 1;
    while (j < segs.size() && segs[j].dest == segs[i].dest) ++j;
    if (j == i + 1) {
      out.push_back(std::move(segs[i]));  // already coalesced upstream
    } else {
      std::vector<typename Kind::Record> recs;
      for (std::size_t k = i; k < j; ++k) {
        decode_payload(kind, segs[k].words, recs);
      }
      const std::uint64_t before = recs.size();
      coalesce(kind, recs, counters);
      hop.merged += before - recs.size();
      Segment merged;
      merged.dest = segs[i].dest;
      merged.src = kMergedSrc;
      merged.words = kind.encode(recs, counters).words;
      out.push_back(std::move(merged));
    }
    i = j;
  }
  segs = std::move(out);
}

/// The multi-hop exchange engine shared by the id and update exchanges.
///
/// Hop 0 (NVLink): every GPU sends one message to each same-node peer
/// carrying the segments destined to that peer plus -- when the peer is the
/// node leader -- all segments bound for other nodes (the gather).  Tag
/// base kTagExchangeLocal.
/// Inter-node hops (IB, leaders only, tag bases kTagExchangeRemote + h):
/// hierarchical sends one aggregated message per other node (1 hop,
/// nodes - 1 partners); butterfly sends exactly one message per hop to the
/// partner leader node XOR (1 << h) (log2(nodes) hops, 1 partner each),
/// re-binning the pool every hop.
/// Final hop (NVLink): leaders scatter inbound segments to their same-node
/// destinations.  Tag base kTagExchangeLocal + 1.
/// All tags sit in the faultable window, so the hardened wire's
/// NACK/retransmit protects each link of each hop independently (hop-local
/// recovery, never end-to-end).
template <class Kind>
std::vector<typename Kind::Record> multi_hop_exchange(
    Transport& transport, const sim::ClusterSpec& spec, sim::GpuCoord me,
    std::vector<std::vector<typename Kind::Record>>& bins, int iteration,
    const Kind& kind, ExchangeCounters& counters) {
  const int p = spec.total_gpus();
  const int me_global = spec.global_gpu(me);
  const int nodes = spec.num_nodes();
  const int my_node = spec.node_of(me_global);
  const int leader = spec.node_leader(my_node);
  const bool is_leader = me_global == leader;
  const int gpn = spec.gpus_per_node(my_node);
  const bool lossy = transport.lossy();
  const bool butterfly = kind.opt.topology == sim::ExchangeTopology::kButterfly;
  const sim::RetryPolicy& retry = kind.opt.retry;

  int inter_hops = 0;
  if (nodes > 1) {
    if (butterfly) {
      if ((nodes & (nodes - 1)) != 0 || nodes > 64) {
        throw std::invalid_argument(
            "butterfly exchange needs a power-of-two node count <= 64, got " +
            std::to_string(nodes) + " nodes");
      }
      while ((1 << inter_hops) < nodes) ++inter_hops;
    } else {
      inter_hops = 1;
    }
  }
  const int tag_gather = kTagExchangeLocal + iteration * kTagBlock;
  const int tag_scatter = kTagExchangeLocal + 1 + iteration * kTagBlock;
  const auto tag_inter = [iteration](int h) {
    return kTagExchangeRemote + h + iteration * kTagBlock;
  };

  // One entry per hop for every GPU of the round, leaders or not, so the
  // hop trace has identical shape across the cluster (the perf model's
  // bulk-synchronous replay and the golden tests rely on this).
  std::vector<sim::HopCounters> hops(
      static_cast<std::size_t>(1 + inter_hops + (inter_hops > 0 ? 1 : 0)));
  for (std::size_t h = 0; h < hops.size(); ++h) {
    hops[h].hop = static_cast<int>(h);
    hops[h].internode = h >= 1 && h <= static_cast<std::size_t>(inter_hops);
  }

  const auto charge_send = [&](sim::HopCounters& hop,
                               const std::vector<Segment>& segs) {
    const std::uint64_t bytes = message_logical_bytes(segs, kind);
    hop.send_bytes += bytes;
    ++hop.partners;
    hop.bins += static_cast<int>(segs.size());
    hop.records += message_records(segs, kind);
    if (hop.internode) {
      counters.send_bytes_remote += bytes + (lossy ? kFrameOverheadBytes : 0);
      ++counters.send_dest_ranks;
    } else {
      counters.local_bytes += bytes + (lossy ? kFrameOverheadBytes : 0);
    }
    return bytes;
  };
  const auto charge_recv = [&](sim::HopCounters& hop,
                               const std::vector<Segment>& segs) {
    const std::uint64_t bytes = message_logical_bytes(segs, kind);
    hop.recv_bytes += bytes;
    if (hop.internode) {
      counters.recv_bytes_remote += bytes + (lossy ? kFrameOverheadBytes : 0);
    }
  };

  // ---- origin: encode every bin once, exactly like the flat sender ------
  for (const auto& bin : bins) counters.bin_vertices += bin.size();
  std::vector<typename Kind::Record> received =
      std::move(bins[static_cast<std::size_t>(me_global)]);
  bins[static_cast<std::size_t>(me_global)].clear();

  std::vector<Segment> inbox;  // segments for me, tagged with their origin
  std::vector<Segment> pool;   // leader only: segments bound for other nodes
  std::vector<std::vector<Segment>> to_peer(static_cast<std::size_t>(gpn));
  for (int dest = 0; dest < p; ++dest) {
    if (dest == me_global) continue;
    auto& bin = bins[static_cast<std::size_t>(dest)];
    if (bin.empty()) continue;  // aggregation: empty bins ship no segment
    Segment s;
    s.dest = static_cast<std::uint32_t>(dest);
    s.src = static_cast<std::uint32_t>(me_global);
    coalesce(kind, bin, counters);
    s.words = kind.encode(bin, counters).words;
    bin.clear();
    if (spec.node_of(dest) == my_node) {
      to_peer[static_cast<std::size_t>(dest - leader)].push_back(std::move(s));
    } else if (is_leader) {
      pool.push_back(std::move(s));
    } else {
      to_peer[0].push_back(std::move(s));  // gather onto the leader
    }
  }

  // ---- hop 0: intra-node distribute + gather -----------------------------
  for (int j = 0; j < gpn; ++j) {
    const int peer = leader + j;
    if (peer == me_global) continue;
    auto& segs = to_peer[static_cast<std::size_t>(j)];
    charge_send(hops[0], segs);
    transport.send(me_global, peer, tag_gather,
                   maybe_frame(transport, pack_segments(segs), counters));
    segs.clear();
  }
  for (int j = 0; j < gpn; ++j) {
    const int peer = leader + j;
    if (peer == me_global) continue;
    const auto words = recv_reliable(transport, me_global, peer, tag_gather,
                                     retry, counters);
    auto segs = unpack_segments(words, p);
    charge_recv(hops[0], segs);
    for (Segment& s : segs) {
      if (s.dest == static_cast<std::uint32_t>(me_global)) {
        inbox.push_back(std::move(s));
      } else if (is_leader &&
                 spec.node_of(static_cast<int>(s.dest)) != my_node) {
        pool.push_back(std::move(s));
      } else {
        throw DecodeError("hop 0 segment routed to a non-forwarding GPU");
      }
    }
  }

  // ---- inter-node hops (leaders only; everyone keeps the hop entries) ----
  std::vector<Segment> scatter_pool;  // segments for my node's other GPUs
  const auto stage_home = [&](Segment&& s) {
    if (s.dest == static_cast<std::uint32_t>(me_global)) {
      inbox.push_back(std::move(s));
    } else {
      scatter_pool.push_back(std::move(s));
    }
  };
  if (nodes > 1 && is_leader) {
    if (!butterfly) {
      // Hierarchical: one aggregated message per other node.
      std::vector<std::vector<Segment>> per_node(
          static_cast<std::size_t>(nodes));
      for (Segment& s : pool) {
        per_node[static_cast<std::size_t>(
                     spec.node_of(static_cast<int>(s.dest)))]
            .push_back(std::move(s));
      }
      pool.clear();
      for (int m = 0; m < nodes; ++m) {
        if (m == my_node) continue;
        auto& segs = per_node[static_cast<std::size_t>(m)];
        rebin_segments(segs, kind, hops[1], counters);
        charge_send(hops[1], segs);
        transport.send(me_global, spec.node_leader(m), tag_inter(0),
                       maybe_frame(transport, pack_segments(segs), counters));
        segs.clear();
      }
      for (int m = 0; m < nodes; ++m) {
        if (m == my_node) continue;
        const auto words =
            recv_reliable(transport, me_global, spec.node_leader(m),
                          tag_inter(0), retry, counters);
        auto segs = unpack_segments(words, p);
        charge_recv(hops[1], segs);
        for (Segment& s : segs) {
          if (spec.node_of(static_cast<int>(s.dest)) != my_node) {
            throw DecodeError("hierarchical segment landed on the wrong node");
          }
          stage_home(std::move(s));
        }
      }
    } else {
      // Butterfly: hop h fixes bit h of the destination node; the pool
      // halves toward home every hop and is re-binned before each send.
      for (int h = 0; h < inter_hops; ++h) {
        const int partner_node = my_node ^ (1 << h);
        const int partner = spec.node_leader(partner_node);
        std::vector<Segment> outgoing;
        std::vector<Segment> keep;
        for (Segment& s : pool) {
          const int dest_node = spec.node_of(static_cast<int>(s.dest));
          (((dest_node ^ my_node) >> h) & 1 ? outgoing : keep)
              .push_back(std::move(s));
        }
        pool = std::move(keep);
        rebin_segments(outgoing, kind, hops[static_cast<std::size_t>(1 + h)],
                       counters);
        charge_send(hops[static_cast<std::size_t>(1 + h)], outgoing);
        transport.send(
            me_global, partner, tag_inter(h),
            maybe_frame(transport, pack_segments(outgoing), counters));
        const auto words = recv_reliable(transport, me_global, partner,
                                         tag_inter(h), retry, counters);
        auto segs = unpack_segments(words, p);
        charge_recv(hops[static_cast<std::size_t>(1 + h)], segs);
        for (Segment& s : segs) {
          const int dest_node = spec.node_of(static_cast<int>(s.dest));
          if (((dest_node ^ my_node) & ((1 << (h + 1)) - 1)) != 0) {
            throw DecodeError("butterfly segment violates its hop invariant");
          }
          if (dest_node == my_node) {
            stage_home(std::move(s));
          } else {
            pool.push_back(std::move(s));
          }
        }
      }
      // Everything left in the pool is home after the last hop.
      for (Segment& s : pool) {
        if (spec.node_of(static_cast<int>(s.dest)) != my_node) {
          throw DecodeError("butterfly pool not fully routed after last hop");
        }
        stage_home(std::move(s));
      }
      pool.clear();
    }
  }

  // ---- final hop: intra-node scatter -------------------------------------
  if (inter_hops > 0) {
    sim::HopCounters& hop = hops.back();
    if (is_leader) {
      std::vector<std::vector<Segment>> per_gpu(static_cast<std::size_t>(gpn));
      for (Segment& s : scatter_pool) {
        per_gpu[static_cast<std::size_t>(static_cast<int>(s.dest) - leader)]
            .push_back(std::move(s));
      }
      scatter_pool.clear();
      for (int j = 0; j < gpn; ++j) {
        const int peer = leader + j;
        if (peer == me_global) continue;
        auto& segs = per_gpu[static_cast<std::size_t>(j)];
        rebin_segments(segs, kind, hop, counters);
        charge_send(hop, segs);
        transport.send(me_global, peer, tag_scatter,
                       maybe_frame(transport, pack_segments(segs), counters));
        segs.clear();
      }
    } else {
      const auto words = recv_reliable(transport, me_global, leader,
                                       tag_scatter, retry, counters);
      auto segs = unpack_segments(words, p);
      charge_recv(hop, segs);
      for (Segment& s : segs) {
        if (s.dest != static_cast<std::uint32_t>(me_global)) {
          throw DecodeError("scatter segment missed its destination");
        }
        inbox.push_back(std::move(s));
      }
    }
  }

  // ---- deliver: loopback first, then origin order, merged segments last --
  // (kMergedSrc sorts after every real GPU id).  This reproduces the flat
  // exchange's receive order exactly for the per-source-preserving modes,
  // which is what keeps non-associative folds (PageRank's double sums)
  // bit-identical across topologies.
  std::stable_sort(inbox.begin(), inbox.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.src < b.src;
                   });
  for (const Segment& s : inbox) decode_payload(kind, s.words, received);
  counters.hops.insert(counters.hops.end(), hops.begin(), hops.end());
  return received;
}

/// Local all2all (L, paper Section V-B): hand every bin bound for another
/// local GPU's column (GPU index lg of any rank) to local GPU lg over
/// NVLink, one message per peer holding [rank, payload] per rank, and fold
/// the peers' contributions to my column into my own column's bins.
/// Afterwards only my column's bins hold records, so the remote stage talks
/// to num_ranks - 1 peers instead of p - 1 (p^2 -> p^2/pgpu pairs).
template <class Kind>
void gather_column(Transport& transport, const sim::ClusterSpec& spec,
                   sim::GpuCoord me,
                   std::vector<std::vector<typename Kind::Record>>& bins,
                   int iteration, const Kind& kind,
                   ExchangeCounters& counters) {
  const int me_global = spec.global_gpu(me);
  const int tag = kTagExchangeLocal + iteration * kTagBlock;
  for (int lg = 0; lg < spec.gpus_per_rank; ++lg) {
    if (lg == me.gpu) continue;
    std::vector<std::uint64_t> payload;
    for (int r = 0; r < spec.num_ranks; ++r) {
      auto& bin = bins[static_cast<std::size_t>(
          spec.global_gpu(sim::GpuCoord{r, lg}))];
      EncodedBin encoded = kind.encode(bin, counters);
      payload.push_back(static_cast<std::uint64_t>(r));
      payload.insert(payload.end(), encoded.words.begin(), encoded.words.end());
      counters.local_bytes += encoded.payload_bytes;
      bin.clear();
    }
    if (transport.lossy()) counters.local_bytes += kFrameOverheadBytes;
    transport.send(me_global, spec.global_gpu(sim::GpuCoord{me.rank, lg}), tag,
                   maybe_frame(transport, std::move(payload), counters));
  }
  for (int lg = 0; lg < spec.gpus_per_rank; ++lg) {
    if (lg == me.gpu) continue;
    const auto words =
        recv_reliable(transport, me_global,
                      spec.global_gpu(sim::GpuCoord{me.rank, lg}), tag,
                      kind.opt.retry, counters);
    const std::span<const std::uint64_t> span(words);
    std::size_t pos = 0;
    while (pos < span.size()) {
      const std::uint64_t r = span[pos++];
      if (r >= static_cast<std::uint64_t>(spec.num_ranks)) {
        throw DecodeError("local all2all rank header out of range");
      }
      kind.decode(span, pos,
                  bins[static_cast<std::size_t>(spec.global_gpu(
                      sim::GpuCoord{static_cast<int>(r), me.gpu}))]);
    }
  }
}

/// The exchange shared by both record kinds.  Multi-hop topologies go
/// through the router above; the flat one sends one message per partner
/// GPU: every other GPU, or with L (after the gather) the same-index GPU of
/// every other rank.  Each outbound bin is merged (U / the combine) and
/// encoded; the loopback bin never hits a wire, so it is left to the
/// receiver's fold.  Received records land after the loopback bin's, in
/// partner order.
template <class Kind>
std::vector<typename Kind::Record> exchange_records(
    Transport& transport, const sim::ClusterSpec& spec, sim::GpuCoord me,
    std::vector<std::vector<typename Kind::Record>>& bins, int iteration,
    const Kind& kind, ExchangeCounters& counters) {
  if (kind.opt.topology != sim::ExchangeTopology::kFlat) {
    return multi_hop_exchange(transport, spec, me, bins, iteration, kind,
                              counters);
  }
  const int me_global = spec.global_gpu(me);
  const int tag = kTagExchangeRemote + iteration * kTagBlock;
  const std::uint64_t frame_bytes =
      transport.lossy() ? kFrameOverheadBytes : 0;
  for (const auto& bin : bins) counters.bin_vertices += bin.size();

  std::vector<int> partners;
  if (kind.opt.local_all2all) {
    gather_column(transport, spec, me, bins, iteration, kind, counters);
    for (int r = 0; r < spec.num_ranks; ++r) {
      if (r != me.rank) partners.push_back(spec.global_gpu({r, me.gpu}));
    }
  } else {
    for (int g = 0; g < spec.total_gpus(); ++g) {
      if (g != me_global) partners.push_back(g);
    }
  }

  for (const int g : partners) {
    auto& bin = bins[static_cast<std::size_t>(g)];
    coalesce(kind, bin, counters);
    EncodedBin encoded = kind.encode(bin, counters);
    if (spec.coord_of(g).rank != me.rank) {
      counters.send_bytes_remote += encoded.payload_bytes + frame_bytes;
      ++counters.send_dest_ranks;
    } else {
      counters.local_bytes += encoded.payload_bytes + frame_bytes;
    }
    transport.send(me_global, g, tag,
                   maybe_frame(transport, std::move(encoded.words), counters));
    bin.clear();
  }
  std::vector<typename Kind::Record> received =
      std::move(bins[static_cast<std::size_t>(me_global)]);
  bins[static_cast<std::size_t>(me_global)].clear();
  for (const int g : partners) {
    const auto words =
        recv_reliable(transport, me_global, g, tag, kind.opt.retry, counters);
    const std::uint64_t bytes = decode_payload(kind, words, received);
    if (spec.coord_of(g).rank != me.rank) {
      counters.recv_bytes_remote += bytes + frame_bytes;
    }
  }
  return received;
}

}  // namespace

std::uint64_t frame_checksum(std::span<const std::uint64_t> payload) noexcept {
  // Order-sensitive splitmix chain seeded with the length: swapped, moved or
  // bit-flipped words all change the digest.
  std::uint64_t h = util::splitmix64(0x9E3779B97F4A7C15ULL ^ payload.size());
  for (const std::uint64_t w : payload) h = util::splitmix64(h ^ w);
  return h;
}

std::vector<std::uint64_t> frame_payload(std::vector<std::uint64_t> payload) {
  std::vector<std::uint64_t> framed;
  framed.reserve(payload.size() + 2);
  framed.push_back((kFrameMagic << 32) |
                   static_cast<std::uint64_t>(payload.size()));
  framed.push_back(frame_checksum(payload));
  framed.insert(framed.end(), payload.begin(), payload.end());
  return framed;
}

std::span<const std::uint64_t> verify_frame(
    std::span<const std::uint64_t> framed) {
  if (framed.size() < 2) {
    throw DecodeError("frame shorter than its 2-word header");
  }
  if ((framed[0] >> 32) != kFrameMagic) {
    throw DecodeError("bad frame magic");
  }
  const std::uint64_t words = framed[0] & 0xffffffffULL;
  if (words != framed.size() - 2) {
    throw DecodeError("frame length mismatch: header declares " +
                      std::to_string(words) + " payload words, frame holds " +
                      std::to_string(framed.size() - 2));
  }
  const auto payload = framed.subspan(2);
  if (frame_checksum(payload) != framed[1]) {
    throw DecodeError("frame checksum mismatch");
  }
  return payload;
}

void decode_ids(std::span<const std::uint64_t> words, std::size_t& pos,
                std::vector<LocalId>& out) {
  if (pos >= words.size()) {
    throw DecodeError("id segment missing its count header");
  }
  const std::uint64_t count = words[pos++];
  const std::uint64_t need = count / 2 + (count & 1);  // overflow-safe ceil
  if (need > words.size() - pos) {
    throw DecodeError("id segment truncated: count " + std::to_string(count) +
                      " needs " + std::to_string(need) + " words, " +
                      std::to_string(words.size() - pos) + " remain");
  }
  out.reserve(out.size() + count);
  for (std::uint64_t i = 0; i < count; i += 2) {
    const std::uint64_t w = words[pos++];
    out.push_back(static_cast<LocalId>(w & 0xffffffffULL));
    if (i + 1 < count) {
      out.push_back(static_cast<LocalId>(w >> 32));
    } else if ((w >> 32) != 0) {
      throw DecodeError("id segment padding half is not zero");
    }
  }
}

void decode_updates_raw(std::span<const std::uint64_t> words,
                        std::vector<VertexUpdate>& out) {
  if (words.empty()) {
    throw DecodeError("raw update payload missing its count header");
  }
  const std::uint64_t count = words[0];
  if (count > (words.size() - 1) / 2) {
    throw DecodeError("raw update payload truncated: count " +
                      std::to_string(count) + " needs " +
                      std::to_string(count) + " word pairs, " +
                      std::to_string(words.size() - 1) + " words remain");
  }
  if (words.size() - 1 != count * 2) {
    throw DecodeError("raw update payload has trailing words");
  }
  out.reserve(out.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = words[1 + 2 * i];
    if ((id >> 32) != 0) {
      throw DecodeError("raw update vertex id overflows 32 bits");
    }
    out.push_back(VertexUpdate{static_cast<LocalId>(id), words[2 + 2 * i]});
  }
}

void decode_updates_compressed(std::span<const std::uint64_t> words,
                               std::uint64_t value_bias,
                               std::vector<VertexUpdate>& out) {
  if (words.size() < 2) {
    throw DecodeError("compressed update payload missing its 2-word header");
  }
  const std::uint64_t count = words[0];
  const std::uint64_t byte_count = words[1];
  const std::uint64_t body_words = words.size() - 2;
  // The byte count must land inside the final word: both a short body and
  // trailing whole words of garbage are rejected.
  if (byte_count > body_words * 8 ||
      (body_words > 0 && byte_count <= (body_words - 1) * 8)) {
    throw DecodeError("compressed payload length mismatch: " +
                      std::to_string(byte_count) + " declared bytes vs " +
                      std::to_string(body_words) + " body words");
  }
  // Every update encodes to at least two bytes (one per varint).
  if (count > byte_count / 2) {
    throw DecodeError("compressed update count " + std::to_string(count) +
                      " exceeds its " + std::to_string(byte_count) +
                      "-byte payload");
  }
  std::size_t pos = 0;
  // Decode varints straight out of the word buffer (no byte-vector copy).
  const auto get = [&words, &pos, byte_count] {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos >= byte_count) throw DecodeError("varint truncated");
      if (shift > 63) throw DecodeError("varint wider than 64 bits");
      const auto b = static_cast<std::uint8_t>(words[2 + pos / 8] >>
                                               (8 * (pos % 8)));
      ++pos;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  };
  out.reserve(out.size() + count);
  std::uint64_t prev = 0;  // unsigned: delta arithmetic wraps mod 2^64
  for (std::uint64_t i = 0; i < count; ++i) {
    prev += static_cast<std::uint64_t>(unzigzag(get()));
    if ((prev >> 32) != 0) {
      throw DecodeError("decoded vertex id overflows 32 bits");
    }
    const std::uint64_t value = get() + value_bias;
    out.push_back(VertexUpdate{static_cast<LocalId>(prev), value});
  }
  if (pos != byte_count) {
    throw DecodeError("compressed payload has trailing bytes");
  }
}

void decode_updates_gorilla(std::span<const std::uint64_t> words,
                            std::vector<VertexUpdate>& out) {
  if (words.size() < 2) {
    throw DecodeError("gorilla update payload missing its 2-word header");
  }
  const std::uint64_t count = words[0];
  const std::uint64_t byte_count = words[1];
  const std::uint64_t body_words = words.size() - 2;
  if (byte_count > body_words * 8 ||
      (body_words > 0 && byte_count <= (body_words - 1) * 8)) {
    throw DecodeError("gorilla payload length mismatch: " +
                      std::to_string(byte_count) + " declared bytes vs " +
                      std::to_string(body_words) + " body words");
  }
  // Every update needs at least one id byte plus one value bit.
  if (count > byte_count) {
    throw DecodeError("gorilla update count " + std::to_string(count) +
                      " exceeds its " + std::to_string(byte_count) +
                      "-byte payload");
  }
  std::size_t pos = 0;
  const auto get_varint = [&words, &pos, byte_count] {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos >= byte_count) throw DecodeError("varint truncated");
      if (shift > 63) throw DecodeError("varint wider than 64 bits");
      const auto b = static_cast<std::uint8_t>(words[2 + pos / 8] >>
                                               (8 * (pos % 8)));
      ++pos;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  };
  const std::size_t before = out.size();
  out.reserve(out.size() + count);
  std::uint64_t prev_id = 0;  // unsigned: delta arithmetic wraps mod 2^64
  for (std::uint64_t i = 0; i < count; ++i) {
    prev_id += static_cast<std::uint64_t>(unzigzag(get_varint()));
    if ((prev_id >> 32) != 0) {
      throw DecodeError("decoded vertex id overflows 32 bits");
    }
    out.push_back(VertexUpdate{static_cast<LocalId>(prev_id), 0});
  }
  BitReader r{words, pos, byte_count};
  std::uint64_t prev = 0;
  int win_lead = -1, win_len = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t v;
    if (i == 0) {
      v = r.get(64);
    } else if (r.get(1) == 0) {
      v = prev;
    } else if (r.get(1) == 0) {
      if (win_lead < 0) {
        throw DecodeError("gorilla stream reuses a window before opening one");
      }
      const int win_trail = 64 - win_lead - win_len;
      v = prev ^ (r.get(win_len) << win_trail);
    } else {
      win_lead = static_cast<int>(r.get(6));
      win_len = static_cast<int>(r.get(6)) + 1;
      if (win_lead + win_len > 64) {
        throw DecodeError("gorilla window exceeds 64 bits");
      }
      const int win_trail = 64 - win_lead - win_len;
      v = prev ^ (r.get(win_len) << win_trail);
    }
    out[before + i].value = v;
    prev = v;
  }
  if (r.consumed_end() != byte_count) {
    throw DecodeError("gorilla payload has trailing bytes");
  }
}

std::vector<LocalId> exchange(Transport& transport,
                              const sim::ClusterSpec& spec, sim::GpuCoord me,
                              std::vector<std::vector<LocalId>>& bins,
                              int iteration, const ExchangeOptions& options,
                              ExchangeCounters& counters) {
  return exchange_records(transport, spec, me, bins, iteration,
                          IdRecords{options}, counters);
}

std::vector<VertexUpdate> exchange(
    Transport& transport, const sim::ClusterSpec& spec, sim::GpuCoord me,
    std::vector<std::vector<VertexUpdate>>& bins, int iteration,
    const ExchangeOptions& options, ExchangeCounters& counters) {
  return exchange_records(transport, spec, me, bins, iteration,
                          UpdateRecords{options}, counters);
}

}  // namespace dsbfs::comm
