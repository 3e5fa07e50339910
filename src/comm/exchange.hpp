#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/transport.hpp"
#include "sim/fault.hpp"
#include "sim/topology.hpp"
#include "util/types.hpp"

/// Normal-vertex exchange (paper Section V-B).
///
/// Destinations of nn-edge visits are normal vertices owned by other GPUs.
/// Senders bin records by destination GPU, keyed by the destination's
/// 32-bit local id (the owner's local index is v / p, computable anywhere);
/// receivers fold them into the next round.  One pipeline -- one entry
/// point, `exchange`, overloaded on the record type -- serves both record
/// kinds, bare ids (4 bytes each) and (id, value) updates: bin, merge,
/// encode, route, decode.
///   * merge: duplicate removal inside each outbound bin by the options'
///     combine -- for ids any combine is the uniquify (U), for updates the
///     algorithm's associative fold;
///   * local all2all (L): records bound for GPU j of any rank are first
///     gathered on the local GPU j over NVLink, cutting the remote pair
///     count from p^2 to p^2/pgpu (the merge then concentrates on the
///     gathered bins);
///   * routing: the flat all-to-all, or the multi-hop hierarchical and
///     butterfly topologies (sim/topology.hpp), which re-merge per hop.
namespace dsbfs::comm {

/// Malformed wire payload: a decoder hit truncated, over-long or otherwise
/// inconsistent input.  On a lossy transport the reliable receive loop
/// converts this into a NACK/retransmit; reaching a caller means the stream
/// itself is broken (or a test fed the decoder a hostile buffer).
struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---- wire hardening (lossy transports only) -------------------------------
// Frame layout: [word0 = (kFrameMagic << 32) | payload_words,
//                word1 = checksum64(payload), payload...].
// The 16-byte overhead and both checksum passes are charged to the perf
// model (ExchangeCounters::checksum_bytes); none of this machinery runs on a
// clean transport, which keeps fault-free byte counters bit-identical to the
// historic wire format.

inline constexpr std::uint64_t kFrameMagic = 0xD5BF5ULL;
inline constexpr std::uint64_t kFrameOverheadBytes = 16;

/// Order-sensitive 64-bit payload checksum (splitmix chain).
std::uint64_t frame_checksum(std::span<const std::uint64_t> payload) noexcept;

/// Wrap a payload in a checksummed frame.
std::vector<std::uint64_t> frame_payload(std::vector<std::uint64_t> payload);

/// Validate a frame; returns a view of the payload.  Throws DecodeError on
/// bad magic, length mismatch or checksum failure.
std::span<const std::uint64_t> verify_frame(
    std::span<const std::uint64_t> framed);

/// A (destination-local id, 64-bit payload) update, the exchange currency of
/// algorithms with per-vertex values (labels, rank contributions) -- the
/// paper's Section VI-D generalization: "associative values for normal
/// vertices in addition to the vertex numbers themselves".
struct VertexUpdate {
  LocalId vertex = 0;
  std::uint64_t value = 0;
};

// ---- wire decoders --------------------------------------------------------
// Public so the malformed-payload corpus tests can drive them directly.
// Every read is bounds-checked; truncated, over-long or inconsistent input
// throws DecodeError instead of reading out of bounds or silently
// truncating the result.

/// Decode one id segment ([count, ids two per word]) starting at `pos`;
/// advances `pos` past the segment.
void decode_ids(std::span<const std::uint64_t> words, std::size_t& pos,
                std::vector<LocalId>& out);

/// Decode a raw (uncompressed) update payload ([count, id/value pairs]).
void decode_updates_raw(std::span<const std::uint64_t> words,
                        std::vector<VertexUpdate>& out);

/// Decode a delta+varint compressed update payload ([count, byte_count,
/// bytes packed LE]); `value_bias` is added back to every value (mod 2^64).
void decode_updates_compressed(std::span<const std::uint64_t> words,
                               std::uint64_t value_bias,
                               std::vector<VertexUpdate>& out);

/// Decode a Gorilla-compressed update payload (same [count, byte_count,
/// bytes packed LE] header; ids as zigzag varint deltas, then the values as
/// an XOR-vs-previous bit stream with leading/trailing-zero truncation).
void decode_updates_gorilla(std::span<const std::uint64_t> words,
                            std::vector<VertexUpdate>& out);

struct ExchangeCounters {
  std::uint64_t bin_vertices = 0;        // vertices placed in bins (pre-dedup)
  std::uint64_t uniquify_vertices = 0;   // records run through uniquify
  std::uint64_t uniquify_bytes = 0;      // their byte volume (4 B ids, 4+value_bytes updates)
  std::uint64_t duplicates_removed = 0;
  std::uint64_t local_bytes = 0;         // NVLink payload (L phase + same-rank bins)
  std::uint64_t send_bytes_remote = 0;   // wire payload bytes, cross-rank
  std::uint64_t recv_bytes_remote = 0;
  /// Raw payload bytes run through the encoder (0 under WireCodec::kRaw);
  /// send/recv/local byte counters above hold the *encoded* sizes, so the
  /// perf models replay the reduced volume and charge the encode kernel.
  std::uint64_t encode_bytes = 0;
  /// Per-bin codec decisions: non-empty outbound bins that shipped encoded
  /// vs raw this round (both 0 unless the codec is kAdaptive or kGorilla).
  std::uint64_t bins_compressed = 0;
  std::uint64_t bins_raw = 0;
  int send_dest_ranks = 0;
  // ---- hardened-wire counters (all 0 on a clean transport) ----------------
  std::uint64_t retries = 0;       // retransmissions this GPU requested
  std::uint64_t corrupt_bins = 0;  // frames rejected (checksum/framing)
  std::uint64_t recovery_ns = 0;   // modeled timeout/backoff/delay waits
  std::uint64_t checksum_bytes = 0;  // bytes run through checksum passes
  /// Per-hop wire accounting of the multi-hop topologies; empty on the flat
  /// path, which keeps every historic counter above bit-identical.  With a
  /// multi-hop topology the legacy counters map onto the hop structure:
  /// send/recv_bytes_remote hold the inter-node (NIC) bytes, local_bytes
  /// the intra-node (NVLink) bytes, send_dest_ranks the inter-node
  /// messages sent.
  std::vector<sim::HopCounters> hops;
};

/// How the exchange merges several records for the same destination vertex
/// inside one outbound bin.  Receivers that fold with an associative
/// combine get the same result from records merged before the send, and
/// dense rounds ship fewer of them.  For bare ids every combine other than
/// kNone is the uniquify (U): an id is a one-lane OR of its presence bit.
enum class UpdateCombine {
  kNone,       // ship every record (historic behavior)
  kMin,        // keep the smallest value per vertex (SSSP distances, CC labels)
  kSumDouble,  // IEEE-double sum per vertex (PageRank contributions)
  kOr,         // bitwise OR per vertex (batched-BFS lane words)
  kLaneMin,    // per-sub-lane MIN of packed value-lane words at
               // lane_value_bits width (batched SSSP distance candidates);
               // degenerates to kMin at lane_value_bits = 64
  kLaneSum,    // per-sub-lane wrapping integer SUM of packed value-lane
               // words (Brandes sigma accumulation); exact integer adds, so
               // order-insensitive like kMin/kOr
};

/// Wire encoding of an update stream, one choice per exchange.  Ids always
/// travel as zigzag varint deltas (ascending after coalescing) once a codec
/// encodes; the codecs differ in how they ship the values.
enum class WireCodec {
  kRaw,       // (id, value) pairs as they are
  kVarint,    // values as plain varints of (value - value_bias); wins on
              // small integers (distances, labels), loses on bit-cast doubles
  kAdaptive,  // per non-empty bin, kVarint only when smaller than raw; a
              // one-word header flags the choice (bins_compressed/bins_raw)
  kGorilla,   // per-bin choice like kAdaptive, but the encoded form is the
              // Gorilla float stream (XOR vs previous value, leading/trailing
              // zeros truncated) built for IEEE-double payloads (PageRank
              // contributions); never exceeds raw on the wire
};

/// Whether `codec` subtracts ExchangeOptions::value_bias before
/// encoding (the varint codecs; raw needs no floor, an XOR window neither).
constexpr bool uses_value_bias(WireCodec codec) noexcept {
  return codec == WireCodec::kVarint || codec == WireCodec::kAdaptive;
}

/// The wire format of one exchange round.  Every field defines the wire,
/// so all GPUs must pass identical options each round.  Engine-run
/// algorithms set only the record fields (combine, value_bias, value_bytes,
/// lane_value_bits, local_all2all); engine::CommContext fills in the run's
/// codec, topology and retry policy and drops the combine when the run
/// does not merge.
struct ExchangeOptions {
  /// Per-bin merge; kNone disables the pass.
  UpdateCombine combine = UpdateCombine::kNone;
  /// Encoding of update records; bare ids always ship as packed ids.
  WireCodec codec = WireCodec::kRaw;
  /// Bucket tag for the varint codecs: a value floor subtracted (mod 2^64)
  /// from every value before varint encoding and added back after
  /// decoding -- bit-exact for any bias, strictly smaller varints when all
  /// values of the round are >= the bias.  Bucketed senders
  /// (delta-stepping) set it to the open bucket's base distance; flat SSSP
  /// derives a per-round floor from a min-allreduce of active distances.
  /// Ignored unless uses_value_bias(codec).
  std::uint64_t value_bias = 0;
  /// Uncompressed wire width of an update's value field, in bytes.  The
  /// historic (id, 64-bit value) updates are 4 + 8 bytes; lane-word updates
  /// carry only the batch's lane width (W/8 bytes).  Affects the byte
  /// *counters* (and the adaptive raw-vs-encoded comparison), not the
  /// simulated transport, which always moves whole words.  Ids are 4 bytes.
  int value_bytes = 8;
  /// Sub-lane width (bits, one of {8, 16, 32, 64}) of the packed value
  /// words the kLaneMin/kLaneSum combines fold -- see util::LaneValueSlab.
  /// Ignored by the other combines.  Lane-valued senders replicate any
  /// `value_bias` per lane themselves (util::LaneValueSlab::replicate);
  /// the wire still subtracts/adds the single 64-bit bias word, which is
  /// per-lane exact as long as every lane is >= its bias lane.
  int lane_value_bits = 64;
  /// Local all2all (L): gather same-column bins inside the rank over NVLink
  /// before the remote stage.  A flat-topology concept, ignored by the
  /// multi-hop modes (their gather hop subsumes it).
  bool local_all2all = false;
  /// Routing mode (see sim/topology.hpp).  kFlat is the historic per-bin
  /// all-to-all, bit- and counter-identical to every prior release;
  /// kHierarchical and kButterfly route through node leaders in multiple
  /// hops, re-merging per hop, and record their wire activity in
  /// ExchangeCounters::hops.  They re-merge across gathered sources only
  /// for the order-insensitive merges (ids, kMin, kOr, kLaneMin, kLaneSum);
  /// kSumDouble and kNone forward per-source segments and deliver them in
  /// source order, which keeps the receiver's fold -- including
  /// non-associative double addition -- bit-identical to the flat exchange.
  sim::ExchangeTopology topology = sim::ExchangeTopology::kFlat;
  /// NACK/retransmit knobs of the hardened wire protocol; consulted only
  /// when the transport is lossy (a fault plan with message faults).
  sim::RetryPolicy retry{};
};

/// Collective exchange of binned records (bins indexed by destination
/// global GPU, holding destination-local ids or (id, value) updates).
/// Returns the records received by this GPU, its own loopback bin first.
/// Bins are consumed.  Ids pack two per wire word; a raw update takes two
/// words on the simulated wire, and the byte counters charge it 4 +
/// `value_bytes` bytes.
std::vector<LocalId> exchange(Transport& transport,
                              const sim::ClusterSpec& spec, sim::GpuCoord me,
                              std::vector<std::vector<LocalId>>& bins,
                              int iteration, const ExchangeOptions& options,
                              ExchangeCounters& counters);
std::vector<VertexUpdate> exchange(
    Transport& transport, const sim::ClusterSpec& spec, sim::GpuCoord me,
    std::vector<std::vector<VertexUpdate>>& bins, int iteration,
    const ExchangeOptions& options, ExchangeCounters& counters);

}  // namespace dsbfs::comm
