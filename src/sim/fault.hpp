#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

/// Deterministic fault injection (the chaos layer of the robustness work).
///
/// The paper's cluster assumes a perfect interconnect; at the scale the
/// ROADMAP targets (hundreds of GPUs), link flaps, corrupted payloads and
/// straggler or failed devices are routine.  A FaultPlan is a *seeded,
/// replayable* description of a hostile run: per-link message
/// drop/duplicate/corrupt/delay schedules plus per-GPU transient-stall and
/// permanent-failure events.  The Transport injects the message faults, the
/// IterativeEngine injects the device events, and every decision is a pure
/// hash of (seed, from, to, tag, attempt) -- independent of thread
/// interleaving, so the same seed produces the same hostile world on every
/// run, which is what makes chaos testing assertable.
///
/// Scope of the message faults: only the exchange data plane, the tags
/// whose offset in their block lies in [kTagExchangeLocal, kTagControl)
/// (comm::Transport::faultable_tag).  Those are the frames the hardened
/// exchange checksums, retains and retransmits.  Four kinds of traffic sit
/// outside that window and are never faulted:
///   * the engine's per-iteration control allreduce (kTagControl), which
///     decides termination;
///   * the comm::ValueReducer phases, the delegate mask and value
///     reductions;
///   * the user-tag collectives (engine::TagBlocks::user), such as the
///     delta-stepping bucket agreements;
///   * the betweenness reverse pass's raw Transport::send/recv of its nn
///     and delegate tuples.
/// None of these carries a frame, a checksum or a retained copy, so a lost
/// message there would hang or silently corrupt the run.  The model treats
/// them as a reliable connection (InfiniBand RC: the NIC acknowledges and
/// retransmits below the application), which is how a cluster's small
/// control messages travel.  The faults then stand for what the software
/// protocol must recover itself: loss in the bulk data path.  A fault run
/// therefore charges no recovery time to the control plane.
namespace dsbfs::sim {

/// Receiver-driven NACK/retransmit knobs of the hardened wire protocol
/// (comm::exchange).  A lost frame is detected by the modeled receive
/// timeout, a corrupt one by its checksum; either way the receiver requests
/// a retransmission and charges the current retry window to the recovery
/// time, doubling it (capped) on every consecutive failure.
struct RetryPolicy {
  /// Physical delivery attempts per frame before the run aborts.
  int max_attempts = 10;
  /// First retry window, ns (timeout for a lost frame, NACK round trip for
  /// a rejected one); charged to ExchangeCounters::recovery_ns per retry.
  std::uint64_t timeout_ns = 2'000'000;
  /// Multiplier applied to the window after every failed attempt.
  double backoff = 2.0;
  /// Window growth cap, ns.
  std::uint64_t max_backoff_ns = 32'000'000;
};

enum class FaultKind : int {
  kDrop = 0,       // frame lost on the wire
  kCorrupt = 1,    // one bit flipped in flight
  kDuplicate = 2,  // frame delivered twice
  kDelay = 3,      // frame held back delay_ns, then delivered intact
  kStall = 4,      // transient device stall (from = GPU, attempt = iteration)
  kGpuFailure = 5, // permanent device loss (from = GPU, attempt = iteration)
};

/// One injected fault.  Message faults carry the link triple and the
/// per-link attempt index; device events reuse `from` for the GPU and
/// `attempt` for the iteration (to/tag = -1).
struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  int from = -1;
  int to = -1;
  int tag = -1;
  std::uint64_t attempt = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
  friend bool operator<(const FaultEvent& a, const FaultEvent& b) {
    if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.attempt < b.attempt;
  }
};

/// The replayable schedule.  All-zero rates and -1 events = no faults; the
/// whole injection machinery is compiled out of the hot paths in that case
/// (zero-cost-when-disabled is asserted by bench_ablation_faults).
struct FaultPlanConfig {
  std::uint64_t seed = 1;

  // Per-message fault probabilities on the exchange data plane (mutually
  // exclusive per attempt; their sum must stay <= 1).
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  double duplicate_rate = 0.0;
  double delay_rate = 0.0;
  /// Hold-back charged for every delayed frame, ns.
  std::uint64_t delay_ns = 500'000;

  // One transient stall: GPU `stall_gpu` loses stall_ns before iteration
  // `stall_iteration`'s kernels (a straggler device, not a failure).
  int stall_gpu = -1;
  int stall_iteration = -1;
  std::uint64_t stall_ns = 0;

  // One permanent failure: GPU `fail_gpu` dies entering iteration
  // `fail_iteration`; the engine rolls the whole cluster back to the last
  // checkpoint and replays (the respawned device inherits the snapshot).
  int fail_gpu = -1;
  int fail_iteration = -1;
  /// Detection + respawn + state-restore charge, ns.
  std::uint64_t fail_recovery_ns = 5'000'000;

  bool message_faults() const noexcept {
    return drop_rate > 0 || corrupt_rate > 0 || duplicate_rate > 0 ||
           delay_rate > 0;
  }
  bool stall_planned() const noexcept {
    return stall_gpu >= 0 && stall_iteration >= 0 && stall_ns > 0;
  }
  bool failure_planned() const noexcept {
    return fail_gpu >= 0 && fail_iteration >= 0;
  }
  bool enabled() const noexcept {
    return message_faults() || stall_planned() || failure_planned();
  }
};

/// What the Transport does with one physical send attempt.
enum class FaultAction { kDeliver, kDrop, kCorrupt, kDuplicate, kDelay };

/// Seeded fault oracle plus the thread-safe injected-fault log.  Decisions
/// are stateless hashes, so concurrent senders cannot perturb each other's
/// schedules; the log is sorted on read so two runs of the same seed
/// compare equal regardless of thread timing.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultPlanConfig& config) : config_(config) {}

  const FaultPlanConfig& config() const noexcept { return config_; }

  /// Fate of physical attempt `attempt` on link (from -> to, tag).
  FaultAction decide(int from, int to, int tag,
                     std::uint64_t attempt) const noexcept;

  /// Which bit a kCorrupt attempt flips, in [0, frame_bits).
  std::uint64_t corrupt_bit(int from, int to, int tag, std::uint64_t attempt,
                            std::uint64_t frame_bits) const noexcept;

  bool stall_due(int gpu, int iteration) const noexcept {
    return config_.stall_planned() && gpu == config_.stall_gpu &&
           iteration == config_.stall_iteration;
  }

  void record(const FaultEvent& event);

  /// Injected faults so far, in a deterministic (sorted) order.
  std::vector<FaultEvent> log() const;

 private:
  FaultPlanConfig config_;
  mutable std::mutex mu_;
  std::vector<FaultEvent> log_;
};

/// What a run under a FaultPlan reports back (EngineRun::fault): the
/// injected-fault log plus the recovery work it forced.
struct FaultReport {
  std::vector<FaultEvent> events;
  std::uint64_t retries = 0;       // frame retransmissions requested
  std::uint64_t corrupt_bins = 0;  // frames rejected by checksum/framing
  std::uint64_t recovery_ns = 0;   // modeled timeout/backoff/delay waits
  int checkpoints = 0;             // epoch snapshots taken (per GPU)
  int rollbacks = 0;               // cluster-wide rollback events
  int replayed_iterations = 0;     // iterations re-executed after rollback
  std::uint64_t checkpoint_bytes = 0;  // snapshot+restore traffic, all GPUs
};

/// Robustness knobs shared by every algorithm facade: the fault schedule to
/// run under, the wire retry policy, and the engine checkpoint cadence.
/// Defaults are a clean run -- no plan, no framing, no checkpoints -- with
/// byte counters and modeled times bit-identical to a build without this
/// subsystem.
struct ResilienceOptions {
  FaultPlanConfig faults{};
  RetryPolicy retry{};
  /// Iterations between engine state snapshots; 0 = off.  Forced to 1 when
  /// the plan schedules a permanent GPU failure and no cadence is set
  /// (rollback needs a recovery point).
  int checkpoint_interval = 0;
};

}  // namespace dsbfs::sim
