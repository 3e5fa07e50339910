#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/exchange.hpp"
#include "comm/mask_reduce.hpp"
#include "comm/transport.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"
#include "sim/perf_model.hpp"
#include "sim/topology.hpp"

/// Shared communication context for distributed algorithms.
///
/// Every algorithm on the cluster needs the same bundle: a Transport, the
/// two-phase delegate reducer, the normal exchange under the run's wire
/// policy, and the `everyone` participant list for whole-cluster
/// collectives.  CommContext owns all of them for the duration of one
/// algorithm run so drivers stop hand-rolling the bundle, and TagBlocks
/// centralizes the tag arithmetic that used to be scattered as
/// `kTagControl + iteration * kTagBlock` / `kTagUser + (depth + 2) *
/// kTagBlock` expressions across the drivers.
namespace dsbfs::engine {

/// Allocator for disjoint tag blocks (see comm::Tag): iteration `i` of the
/// engine loop owns tag block `i`; post-loop phases allocate blocks past the
/// loop.  Algorithms running several value reductions per iteration keep
/// them disjoint with the reducer's own `channel` parameter
/// (comm::kReduceChannelStride) -- the spacing lives with the reducer's tag
/// computation, not here.
struct TagBlocks {
  /// Tag of the engine's per-iteration termination allreduce.
  static constexpr int control(int iteration) noexcept {
    return comm::kTagControl + iteration * comm::kTagBlock;
  }

  /// User tag `offset` inside `block`.  Offsets must stay below the block
  /// size so neighbouring blocks cannot overlap.
  static constexpr int user(int block, int offset = 0) noexcept {
    assert(offset >= 0 && offset < comm::kTagBlock - comm::kTagUser);
    return comm::kTagUser + block * comm::kTagBlock + offset;
  }

  /// A block index disjoint from every iteration's block after a loop of
  /// `iterations` iterations; distinct `phase` values get distinct blocks.
  static constexpr int after_loop(int iterations, int phase = 0) noexcept {
    return iterations + 2 + phase;
  }
};

/// Exchange-hook helper: keep this round's `fresh` records in `received`
/// and hand the previous `received` buffer, which the previsit has already
/// consumed and cleared, back as the loopback bin `bins[me_global]`.  Both
/// exchange paths move the loopback bin into the records they return, so
/// without the hand-back every round's loopback bin starts with no
/// capacity; with it the two buffers alternate and neither reallocates in
/// steady state.
template <class Record>
void adopt_received(std::vector<std::vector<Record>>& bins, int me_global,
                    std::vector<Record>& received,
                    std::vector<Record>&& fresh) {
  std::vector<Record>& loopback = bins[static_cast<std::size_t>(me_global)];
  loopback = std::move(received);
  loopback.clear();
  received = std::move(fresh);
}

/// The run options every facade shares (each holds one as `run`): the
/// engine's scheduling and fault knobs plus the wire policy of the normal
/// exchange -- merge, codec and routing -- which CommContext applies to
/// every exchange of the run.  None changes an answer; each moves counters
/// and modeled time.
struct RunOptions {
  /// Run `reduce` (delegate stream) concurrently with `exchange` (normal
  /// stream).  Off = the historic sequential per-GPU phase order.
  bool overlap = true;
  /// Merge outbound exchange records per bin before the send with the
  /// exchange's combine: the uniquify (U) for bare ids, the algorithm's
  /// fold (MIN, SUM, OR) for update records.  Facades set their own
  /// default.
  bool uniquify = false;
  /// Wire encoding of update records (comm::WireCodec); bare ids always
  /// ship as packed ids, so a one-lane BFS run ships raw whatever this
  /// says.
  comm::WireCodec codec = comm::WireCodec::kRaw;
  /// Exchange routing mode (sim/topology.hpp): flat per-bin all-to-all
  /// (historic default), hierarchical node-leader aggregation, or butterfly
  /// recursive halving.  Results are bit-identical across all three; the
  /// wire pattern, byte counters and modeled NIC/NVLink occupancy differ.
  sim::ExchangeTopology exchange_topology = sim::ExchangeTopology::kFlat;
  /// Fault schedule, wire retry policy and checkpoint cadence.  Defaults to
  /// a clean run with checkpointing off; see sim::ResilienceOptions.
  sim::ResilienceOptions resilience{};
};

class CommContext {
 public:
  /// `run` supplies the wire policy every exchange() applies.
  explicit CommContext(const sim::ClusterSpec& spec,
                       const RunOptions& run = {});

  CommContext(const CommContext&) = delete;
  CommContext& operator=(const CommContext&) = delete;

  const sim::ClusterSpec& spec() const noexcept { return spec_; }
  comm::Transport& transport() noexcept { return transport_; }
  comm::ValueReducer& value_reducer() noexcept { return value_reducer_; }

  /// All global GPU indices, the participant list of whole-cluster
  /// collectives (`me_index` == global GPU index).
  std::span<const int> everyone() const noexcept { return everyone_; }

  /// The engine's termination allreduce for iteration `iteration`.
  /// Collective: every GPU must call once per iteration.
  std::uint64_t control_allreduce(int gpu, std::uint64_t value, int iteration);

  /// Whole-cluster sum allreduce on an explicit tag (see TagBlocks::user).
  std::uint64_t allreduce_sum(int gpu, std::uint64_t value, int tag);

  /// Whole-cluster element-wise min allreduce on an explicit tag.
  void allreduce_min_words(int gpu, std::span<std::uint64_t> words, int tag);

  /// Whole-cluster element-wise bitwise-OR allreduce on an explicit tag
  /// (e.g. the serving scheduler's one-word lane-drain agreement).
  void allreduce_or_words(int gpu, std::span<std::uint64_t> words, int tag);

  /// The shared exchange-hook body: run the normal exchange of ids (BFS)
  /// or updates (the value algorithms) under the run's wire policy and
  /// record its counters into the iteration row.  `records` describes the
  /// hook's records -- combine, value width, lane bits, bias and L; the
  /// run's codec, topology and retry policy replace whatever it says, and
  /// its combine drops to kNone when the run does not merge.  Returns the
  /// received records; `bins` are consumed.  Every GPU must pass identical
  /// `records` in a round.
  template <class Record>
  std::vector<Record> exchange(sim::GpuCoord me,
                               std::vector<std::vector<Record>>& bins,
                               int iteration, comm::ExchangeOptions records,
                               sim::GpuIterationCounters& iter) {
    comm::ExchangeCounters ec;
    auto received = comm::exchange(transport_, spec_, me, bins, iteration,
                                   on_wire(records), ec);
    record_exchange(ec, iter);
    return received;
  }

 private:
  sim::ClusterSpec spec_;
  comm::Transport transport_;
  comm::ValueReducer value_reducer_;
  std::vector<int> everyone_;
  bool merge_;
  comm::ExchangeOptions wire_;  // the run's codec, topology and retry

  /// `records` under the run's wire policy.
  comm::ExchangeOptions on_wire(comm::ExchangeOptions records) const;
  /// Copy one exchange's counters into the iteration row the perf model
  /// replays.
  static void record_exchange(comm::ExchangeCounters& ec,
                              sim::GpuIterationCounters& iter);
};

}  // namespace dsbfs::engine
