#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "sim/device_model.hpp"
#include "sim/perf_model.hpp"

/// Direction optimization state machine (paper Section IV-B).
///
/// ## The three switchable visit kernels
///
/// Degree separation gives each GPU four local subgraphs; three of them have
/// a usable local reverse, so their visit kernels can run either direction:
///
///   * **dd** (delegate -> delegate): locally symmetric by Algorithm 1, so
///     the subgraph is its own reverse.  Backward = every unvisited delegate
///     with dd edges scans its row for a visited parent.
///   * **dn** (delegate -> local normal): its reverse on the same GPU is the
///     nd subgraph (both directions of a delegate/normal pair land on the
///     normal vertex's owner).  Backward = unvisited normals with delegate
///     neighbors (the nd source list) scan for a visited delegate.
///   * **nd** (local normal -> delegate): reverse of dn, same argument.
///     Backward = unvisited delegates with dn edges scan their local normal
///     neighbors for a visited one.
///
/// The nn subgraph is *not* locally symmetric (its columns are remote global
/// ids), so nn visits are always forward push.  Each kernel carries its own
/// DirectionState: the paper's insight is that the profitable switching
/// round differs per subgraph (Fig. 7), hence per-kernel factors in
/// BfsOptions / SsspOptions rather than one global alpha/beta pair.
///
/// ## Workload estimates
///
/// The forward workload FV is the frontier's edge mass in the subgraph
/// (sum of row lengths over queued vertices).  The backward estimate BV
/// follows the paper's derivation: with
///   q = input frontier length,
///   s = unvisited sources in the forward subgraph,
///   a = q / (q + s)  (probability a potential parent is newly visited),
///   U = unvisited sources of the reversed subgraph,
/// the expected pull cost is sum over U of (1 - (1-a)^od(u)) / a.  Each
/// term is at most min(1/a, od(u)): a candidate never scans past the end
/// of its row.  BFS takes |U| / a = |U| (q + s) / q (backward_workload),
/// capped at the candidates' edge mass, the sum of od(u) over U, which the
/// traversal keeps as a running pool beside the unvisited counts.  Uncapped,
/// |U| / a far exceeds that mass whenever a is small (a one-vertex
/// frontier), and only a near-zero factor let a pull win at all; capped,
/// FV and BV are both edge counts, so the factors are the kernel-rate
/// ratios.  The mass falls to 0 once every candidate is visited, so a late
/// pull costs a launch and nothing else.
///
/// BFS pull stops a row scan at the first visited parent, which is what the
/// early-exit expectation above models.  Weighted SSSP pull cannot early-exit
/// (it needs the *minimum* of dist + weight over the whole row), so its
/// backward workload is simply the pull candidates' total edge mass -- see
/// sssp_backward_workload below and the relax-step contract in sssp.hpp.
/// Batched (lane) traversals pull for every live lane in one sweep, so their
/// estimate scales the scalar BV by the expected scan of the *slowest* lane
/// -- see lane_backward_workload.
///
/// ## Static seeds vs the online controller
///
/// The per-kernel factors below (kBfsDirectionSeeds / kSsspDirectionSeeds)
/// sit at the device model's push/pull kernel-rate crossovers: with honest
/// FV and BV, pulling pays once FV * (push ns/edge) > BV * (pull ns/edge),
/// i.e. FV > (pull rate / push rate) * BV (docs/TUNING.md).  With
/// `adaptive_direction` (on by default), they are only the *seeds*: a
/// per-GPU DirectionController measures the realized effective cost per
/// edge of the push and pull kernels as the run executes -- launch overhead
/// and per-vertex cost amortized over the actual round shapes, not the
/// asymptotic rates -- and rescales the factors by how far the realized
/// pull/push cost ratio drifts from the assumed one, so the BFS factor it
/// installs is simply the realized pull/push cost ratio.  On dense RMAT
/// cores the estimates stay at the asymptotic rates and the controller
/// reproduces the static decisions; on long-tail graphs the tiny pull
/// kernels' fixed overhead inflates the realized pull cost and the
/// controller backs off the switch -- the Section VI-D failure mode, handled
/// online instead of by hand-picking factors per graph.
namespace dsbfs::core {

/// Per-subgraph direction-switching factors (Section IV-B): starting from
/// forward-push, a kernel switches to backward-pull when
///   FV > to_backward * BV
/// and back to forward when
///   FV < to_forward * BV.
struct DirectionFactors {
  double to_backward = 0.5;
  double to_forward = 0.0;  // 0 = never switch back
};

/// One tuned factor triple for the three switchable kernels.
struct DirectionSeeds {
  DirectionFactors dd, dn, nd;
};

/// BFS factors at the device model's kernel-rate crossover: a pull edge
/// costs ns_per_edge_backward / ns_per_edge_forward_* of a push edge (dd
/// pushes merge-based, dn and nd dynamically), and with the capped BV the
/// estimates are edge counts on both sides, so the ratio is the factor.
/// No switch-back, the paper's BFS setting.  Single source of truth: the
/// BFS previsits read this table, and the DirectionController treats it as
/// its seed.
inline constexpr DirectionSeeds kBfsDirectionSeeds = [] {
  constexpr sim::DeviceModelConfig rates{};
  constexpr double merge =
      rates.ns_per_edge_backward / rates.ns_per_edge_forward_merge;
  constexpr double dynamic =
      rates.ns_per_edge_backward / rates.ns_per_edge_forward_dynamic;
  return DirectionSeeds{
      .dd = {merge, 0.0}, .dn = {dynamic, 0.0}, .nd = {dynamic, 0.0}};
}();

/// SSSP factors sit at the modeled kernel-rate crossover (pull edges cost
/// ns_per_edge_backward / ns_per_edge_forward_* of a push edge, and SSSP
/// pull scans whole rows), and unlike BFS must switch back for the sparse
/// converging tail -- docs/TUNING.md "SSSP" derives both.
inline constexpr DirectionSeeds kSsspDirectionSeeds{
    .dd = {0.8, 0.6}, .dn = {0.65, 0.5}, .nd = {0.65, 0.5}};

/// Backward-workload estimate BV for BFS-style early-exit pull.
inline double backward_workload(std::uint64_t unvisited_reverse_sources,
                                std::uint64_t frontier_len,
                                std::uint64_t unvisited_forward_sources) {
  if (frontier_len == 0) return std::numeric_limits<double>::infinity();
  const double q = static_cast<double>(frontier_len);
  const double s = static_cast<double>(unvisited_forward_sources);
  return static_cast<double>(unvisited_reverse_sources) * (q + s) / q;
}

/// Lane-aware BV for batched pulls: a pull candidate keeps scanning until
/// *every* one of its unvisited live lanes has found a parent, so the
/// expected scan length is the maximum of `live_lanes` early-exit
/// (geometric) scans -- the harmonic number H_L times the scalar estimate
/// -- and never more than the candidates' rows, `candidate_edges` (the
/// edge mass of the unvisited reversed-subgraph sources).  L = 1 below the
/// cap reproduces backward_workload exactly (H_1 = 1), which is what makes
/// the W = 1 hybrid batch reproduce single-source decisions bit for bit; an
/// empty union frontier (q = 0 or no live lanes) is infinite, pinning the
/// kernel forward.
inline double lane_backward_workload(std::uint64_t unvisited_reverse_sources,
                                     std::uint64_t frontier_len,
                                     std::uint64_t unvisited_forward_sources,
                                     int live_lanes,
                                     std::uint64_t candidate_edges) {
  if (live_lanes <= 0 || frontier_len == 0) {
    return std::numeric_limits<double>::infinity();
  }
  double harmonic = 0;
  for (int i = 1; i <= live_lanes; ++i) harmonic += 1.0 / i;
  return std::min(harmonic * backward_workload(unvisited_reverse_sources,
                                               frontier_len,
                                               unvisited_forward_sources),
                  static_cast<double>(candidate_edges));
}

/// Backward-workload estimate for weighted SSSP pull: a pull round scans
/// every edge of every pull-candidate row (min over neighbors, no early
/// exit), so the cost is the subgraph's full pull-edge mass -- a per-GPU
/// constant.  The switching rule FV > to_backward * BV then reads "the
/// frontier's edge mass is a large fraction of the subgraph", i.e. the dense
/// near-converged rounds where label-correcting SSSP spends most of its
/// time; the sparse tail flips back through to_forward.
inline double sssp_backward_workload(std::uint64_t pull_edges) {
  return static_cast<double>(pull_edges);
}

/// Per-kernel direction state with the paper's hysteresis rule:
/// forward -> backward when FV > to_backward * BV, backward -> forward when
/// FV < to_forward * BV (DirectionFactors; to_forward = 0 never switches
/// back, the paper's BFS setting -- SSSP defaults switch back for the
/// converging tail).  `update` is called once per iteration from the
/// previsit that owns the kernel; `backward()` is then read by the visit.
class DirectionState {
 public:
  DirectionState() = default;
  explicit DirectionState(DirectionFactors factors) : factors_(factors) {}

  bool backward() const noexcept { return backward_; }

  /// Replace the factors (the controller re-installs adapted factors each
  /// iteration); the forward/backward position is kept -- hysteresis
  /// continues from the current state under the new thresholds.
  void set_factors(DirectionFactors factors) noexcept { factors_ = factors; }

  /// Apply the paper's switching rule for this iteration's workloads.
  /// Returns the direction chosen for the upcoming visit.
  bool update(double forward_workload, double backward_workload_estimate,
              bool direction_optimized) noexcept {
    if (!direction_optimized) {
      backward_ = false;
      return backward_;
    }
    if (!backward_) {
      if (forward_workload >
          factors_.to_backward * backward_workload_estimate) {
        backward_ = true;
      }
    } else {
      if (forward_workload < factors_.to_forward * backward_workload_estimate) {
        backward_ = false;
      }
    }
    return backward_;
  }

  void reset() noexcept { backward_ = false; }

 private:
  DirectionFactors factors_{};
  bool backward_ = false;
};

/// Online self-tuning of the direction factors (one instance per GPU, per
/// run).  The static seeds assume the device model's asymptotic kernel
/// rates; real rounds also pay the fixed launch overhead and the per-vertex
/// cost, so the *effective* cost per edge of a round depends on its shape.
/// After every iteration the controller folds each launched kernel's
/// realized effective ns/edge -- what the device model charges for exactly
/// that round, amortized over its edges -- into an edge-weighted running
/// estimate per kernel class, seeded with the asymptotic rate at a fixed
/// prior weight.  `factors()` then rescales a seed by how far the realized
/// pull/push cost ratio has drifted from the assumed one:
///
///   adapted = seed * (est_pull / est_push) / (rate_pull / rate_push)
///
/// applied to both thresholds, so hysteresis width is preserved.  Until the
/// observed edge mass rivals the prior, adapted == seed exactly (the
/// multiplier is 1.0 bit for bit), making the controller a strict
/// generalization of the static table: smoke-scale runs reproduce the
/// static decisions, while long runs of launch-dominated pull rounds (the
/// long-tail regime) push est_pull up and disengage pulling.  Every input
/// is a deterministic counter, so decisions are reproducible run to run.
class DirectionController {
 public:
  DirectionController() : DirectionController(sim::DeviceModelConfig{}) {}
  explicit DirectionController(const sim::DeviceModelConfig& config)
      : dev_(config),
        merge_{config.ns_per_edge_forward_merge, kPriorEdges},
        dynamic_{config.ns_per_edge_forward_dynamic, kPriorEdges},
        backward_{config.ns_per_edge_backward, kPriorEdges} {}

  /// Fold one iteration's launched visit kernels into the estimates.
  void observe(const sim::GpuIterationCounters& c) noexcept {
    observe_kernel(c.dd, /*merge_based=*/true);
    observe_kernel(c.dn, /*merge_based=*/false);
    observe_kernel(c.nd, /*merge_based=*/false);
    observe_kernel(c.nn, /*merge_based=*/false);
  }

  /// Seed factors rescaled by the realized-vs-assumed cost-ratio drift.
  DirectionFactors factors(DirectionFactors seed,
                           bool merge_based) const noexcept {
    const double est_push =
        merge_based ? merge_.ns_per_edge : dynamic_.ns_per_edge;
    const double rate_push = merge_based
                                 ? dev_.config().ns_per_edge_forward_merge
                                 : dev_.config().ns_per_edge_forward_dynamic;
    const double multiplier = (backward_.ns_per_edge / est_push) /
                              (dev_.config().ns_per_edge_backward / rate_push);
    return DirectionFactors{seed.to_backward * multiplier,
                            seed.to_forward * multiplier};
  }

  /// Current effective-cost estimates (exposed for tests and benches).
  double estimated_push_ns_per_edge(bool merge_based) const noexcept {
    return merge_based ? merge_.ns_per_edge : dynamic_.ns_per_edge;
  }
  double estimated_pull_ns_per_edge() const noexcept {
    return backward_.ns_per_edge;
  }

 private:
  struct Estimate {
    double ns_per_edge = 0;
    double weight = 0;  // edge mass behind the estimate
  };

  /// Prior weight: the estimate only moves materially once the observed
  /// edge mass rivals a few million edges -- below that, decisions are the
  /// static table's.  Capped so late rounds keep a fixed adaptation rate
  /// (an exponentially weighted average with ~1/16th-per-64M-edges decay).
  static constexpr double kPriorEdges = 4e6;
  static constexpr double kMaxWeight = 64e6;

  void observe_kernel(const sim::KernelCounters& k,
                      bool merge_based) noexcept {
    if (!k.launched || k.edges == 0) return;
    Estimate& e =
        k.backward ? backward_ : (merge_based ? merge_ : dynamic_);
    const sim::KernelClass cls =
        k.backward ? sim::KernelClass::kBackwardPull
                   : (merge_based ? sim::KernelClass::kForwardMerge
                                  : sim::KernelClass::kForwardDynamic);
    const double realized =
        dev_.kernel_us(cls, k.edges, k.vertices, 0) * 1000.0 /
        static_cast<double>(k.edges);
    const double w = static_cast<double>(k.edges);
    e.ns_per_edge =
        (e.ns_per_edge * e.weight + realized * w) / (e.weight + w);
    e.weight = std::min(e.weight + w, kMaxWeight);
  }

  sim::DeviceModel dev_;
  Estimate merge_, dynamic_, backward_;
};

}  // namespace dsbfs::core
