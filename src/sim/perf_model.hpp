#pragma once

#include <cstdint>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/device_model.hpp"
#include "sim/net_model.hpp"
#include "sim/topology.hpp"

/// Performance model: exact measured counters -> modeled cluster time.
///
/// The functional layer (core::DistributedBfs) runs the real algorithm and
/// records, per GPU per iteration, exactly how many edges/vertices each
/// kernel touched and how many bytes each communication step moved.  This
/// model replays those counters on a virtual timeline with the Fig. 3 / 4
/// dependency structure, P100-like kernel rates and Ray-like link rates,
/// yielding the elapsed time the paper's cluster would have shown.  Both
/// the makespan and the per-category sums (the paper's stacked breakdown
/// charts) are produced.
namespace dsbfs::sim {

/// Phase categories matching the paper's breakdown figures (Fig. 8, 10).
enum Category : int {
  kCatComputation = 0,
  kCatLocalComm = 1,
  kCatNormalExchange = 2,
  kCatDelegateReduce = 3,
  kCatControl = 4,
  kCatCount = 5,
};

/// One visit kernel's measured workload.
struct KernelCounters {
  std::uint64_t edges = 0;
  std::uint64_t vertices = 0;
  bool backward = false;
  bool launched = false;
};

/// Counters for one GPU in one BFS iteration.
struct GpuIterationCounters {
  std::uint64_t dprev_vertices = 0;  // delegate previsit queue size
  std::uint64_t nprev_vertices = 0;  // normal previsit input size
  /// Direction optimization active: previsits additionally compute the
  /// forward/backward workload estimates (an extra reduction kernel each).
  /// This is the "additional workload for direction decisions" that makes
  /// DOBFS lose to BFS on long-tail graphs (paper Section VI-D).
  bool direction_decisions = false;
  /// The decision estimates were fused into previsit passes that already
  /// existed (the BFS lane previsits iterate their queues counting lane
  /// bits regardless, so FV/BV estimation rides the same scan): the replay
  /// charges no extra estimation launches.  Only meaningful with
  /// direction_decisions set.
  bool direction_decisions_fused = false;
  KernelCounters dd, dn, nd, nn;

  std::uint64_t bin_vertices = 0;        // nn outputs binned + converted
  std::uint64_t uniquify_vertices = 0;   // records into uniquify (0 = disabled)
  std::uint64_t uniquify_bytes = 0;      // their volume (4 B ids, 4+value_bytes updates)
  std::uint64_t encode_bytes = 0;        // raw bytes per trial encoding (0 = off)
  std::uint64_t bins_compressed = 0;     // adaptive compression: bins encoded
  std::uint64_t bins_uncompressed = 0;   // adaptive compression: bins shipped raw
  std::uint64_t local_all2all_bytes = 0; // gathered over NVLink within rank
  std::uint64_t send_bytes_remote = 0;   // to GPUs in other ranks (wire bytes)
  std::uint64_t recv_bytes_remote = 0;
  int send_dest_ranks = 0;               // distinct destination ranks
  /// Per-hop exchange trace (hierarchical/butterfly topologies).  Empty on
  /// the flat exchange, whose replay uses the single-level byte counters
  /// above; when present, the replay charges each hop on its own link class
  /// (NVLink ports intra-node, the node's NICs inter-node) with a
  /// bulk-synchronous barrier between hops, and the byte counters above
  /// hold the topology mapping described at ExchangeCounters::hops.
  std::vector<HopCounters> hops;
  bool delegate_update = false;          // participated in mask reduction

  // ---- Resilience (fault-plan runs; all zero on a clean run, which keeps
  // the replayed task graph -- and thus every modeled time -- bit-identical
  // to a build without the robustness subsystem). -------------------------
  std::uint64_t retries = 0;          // frame retransmissions requested
  std::uint64_t corrupt_bins = 0;     // frames rejected by checksum/framing
  std::uint64_t recovery_ns = 0;      // modeled timeout/backoff/delay waits
  std::uint64_t checksum_bytes = 0;   // bytes checksummed (send + verify)
  std::uint64_t stall_ns = 0;         // injected transient device stall
  std::uint64_t checkpoint_bytes = 0; // epoch snapshot written this iteration

  // ---- Serving scheduler (core::QueryScheduler; all zero outside it, which
  // keeps non-serving replays bit-identical). -----------------------------
  /// The iteration closed with the scheduler's one-word lane-drain OR
  /// allreduce (the retire/admit agreement): one extra small collective at
  /// the latency of the control tree, charged on the control step.
  bool lane_agreement = false;
  /// Lane visited-state bytes cleared by mid-flight lane recycling at this
  /// iteration's top (the admission was decided at the previous boundary).
  /// Charged like a checkpoint: a device mask-op sweep gating the
  /// iteration's kernels on this GPU.
  std::uint64_t reseed_bytes = 0;

  // ---- Lane occupancy (the BFS lane engine at every width, single-source
  // runs included; 0 for the value algorithms).  The visit/exchange
  // workload counters above
  // are already lane-amortized -- one row traversal and one (id, lane-word)
  // update serve every concurrent source -- so these record how many lane
  // bits that shared work advanced, the substance of the batch speedup.
  std::uint64_t frontier_lane_bits = 0;  // normal-frontier lane bits expanded
  std::uint64_t delegate_lane_bits = 0;  // newly visited delegate lane bits
  /// Union-frontier lane occupancy: popcount of the OR of this GPU's
  /// frontier (resp. newly-visited-delegate) lane words -- how many lanes
  /// are live in the shared sweep, the population the batched direction
  /// decisions scale their pull estimates by.
  std::uint64_t frontier_live_lanes = 0;
  std::uint64_t delegate_live_lanes = 0;

  // ---- Bucketed (delta-stepping) rounds; all zero for flat algorithms. ----
  /// The previsit ran a cluster-wide bucket/phase agreement allreduce (the
  /// next-bucket min or the light-work sum); the replay charges it as an
  /// extra small collective gating the iteration's previsits.
  bool bucket_coordination = false;
  /// Bucket this iteration worked on, plus one (0 = no open bucket: flat
  /// algorithms, and the final empty coordination round).
  std::uint64_t bucket_plus_one = 0;
  /// This iteration was the bucket's one heavy-edge round (else a light
  /// sub-round while bucket_plus_one != 0).
  bool heavy_phase = false;
  /// Relax attempts split by edge class; sums into the kernel edge counts.
  std::uint64_t light_edges = 0;
  std::uint64_t heavy_edges = 0;
};

struct IterationCounters {
  std::vector<GpuIterationCounters> gpu;  // size = total GPUs
};

struct RunCounters {
  ClusterSpec spec;
  std::uint64_t delegate_mask_bytes = 0;  // d*W/8, what a mask reduce moves
                                          // (W = lane width; d/8 classic BFS)
  bool blocking_reduce = true;            // BR vs IR
  /// Two-stream overlap: delegate reduction concurrent with the normal
  /// exchange.  False replays the sequential schedule -- each GPU's
  /// exchange only starts once its rank's global reduction has finished.
  bool overlap_comm = true;
  std::vector<IterationCounters> iterations;
};

struct ModeledBreakdown {
  double elapsed_ms = 0;  // makespan
  // Per-category duration sums in ms, averaged per GPU (the paper's stacked
  // charts); sums may exceed elapsed because phases overlap.
  double computation_ms = 0;
  double local_comm_ms = 0;
  double normal_exchange_ms = 0;
  double delegate_reduce_ms = 0;
  double control_ms = 0;
  /// Finish time (ms from run start) of each iteration's global agreement:
  /// the moment every GPU may enter the next iteration.  One entry per
  /// counter row -- with rollback recovery that is per *executed* iteration,
  /// replays included, like the histories themselves.  The serving tier
  /// timestamps query admissions and retirements with these.
  std::vector<double> iteration_end_ms;
  /// Per-hop link occupancy of the multi-hop exchange topologies: busy time
  /// summed over GPUs and iterations at each hop index, split by link
  /// class.  Index matches HopCounters::hop (0 = intra-node distribute /
  /// gather, middle = inter-node, last = scatter); empty for flat runs.
  struct HopLoad {
    double nvlink_ms = 0;
    double nic_ms = 0;
  };
  std::vector<HopLoad> exchange_hops;
};

/// Stitch two replays end to end (e.g. betweenness centrality's forward and
/// reverse engine runs): makespan and category sums add, `b`'s iteration
/// finish times shift by `a`'s makespan, and per-hop link loads add
/// element-wise (shorter vector padded with zeros).
ModeledBreakdown compose_breakdowns(const ModeledBreakdown& a,
                                    const ModeledBreakdown& b);

class PerfModel {
 public:
  PerfModel() = default;
  PerfModel(const DeviceModel& dev, const NetModel& net) : dev_(dev), net_(net) {}

  const DeviceModel& device_model() const noexcept { return dev_; }
  const NetModel& net_model() const noexcept { return net_; }

  /// Replay a run's counters; returns elapsed + per-category breakdown.
  ModeledBreakdown replay(const RunCounters& run) const;

 private:
  DeviceModel dev_;
  NetModel net_;
};

}  // namespace dsbfs::sim
