#include "core/sssp.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/direction.hpp"
#include "core/metrics.hpp"
#include "engine/iterative_engine.hpp"
#include "util/hash.hpp"

namespace dsbfs::core {

namespace {

/// Label-correcting Bellman-Ford as engine phases (see sssp.hpp).  The
/// communication structure mirrors connected components -- min-combine over
/// delegates, (id, value) exchange for normals -- with distance-plus-weight
/// relaxation in place of label copying, over either stored or hashed
/// weights.  The dd / dn / nd relax kernels are direction-optimized
/// (Section IV-B): previsit picks push or pull per kernel from the frontier
/// edge mass vs. the subgraph's pull-edge mass, and the chosen direction is
/// recorded in the kernel counters so the perf model replays pull rounds at
/// the backward-pull kernel rate.
class SsspAlgorithm {
 public:
  static constexpr const char* kStateLabel = "sssp.state";

  struct State {
    std::vector<std::uint64_t> dist_normal;    // per local normal
    std::vector<std::uint64_t> dist_delegate;  // per delegate, replicated
    std::vector<std::uint64_t> delegate_cand;  // this iteration's candidates
    std::vector<LocalId> active_normals;
    std::vector<LocalId> active_delegates;
    std::vector<LocalId> next_normals;
    std::vector<LocalId> next_delegates;
    std::vector<std::vector<comm::VertexUpdate>> bins;
    // Direction optimization: per-kernel state plus the constant pull-edge
    // masses of this GPU's subgraphs (the SSSP backward workload).
    DirectionState dir_dd, dir_dn, dir_nd;
    DirectionController controller;
    std::uint64_t dd_pull_edges = 0;
    std::uint64_t dn_pull_edges = 0;  // nd subgraph: reverse of dn
    std::uint64_t nd_pull_edges = 0;  // dn subgraph: reverse of nd
    sim::GpuIterationCounters iter;
  };

  SsspAlgorithm(const graph::DistributedGraph& graph,
                const SsspOptions& options, VertexId source)
      : graph_(graph), options_(options), source_(source) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = lg.num_local_normals();

    auto state = std::make_unique<State>();
    State& s = *state;
    s.dist_normal.assign(n_local, kInfiniteDistance);
    s.dist_delegate.assign(d, kInfiniteDistance);
    s.delegate_cand.assign(d, kInfiniteDistance);
    s.bins.resize(static_cast<std::size_t>(ctx.total_gpus));
    s.dir_dd = DirectionState(options_.dd_factors);
    s.dir_dn = DirectionState(options_.dn_factors);
    s.dir_nd = DirectionState(options_.nd_factors);
    s.dd_pull_edges = lg.dd().num_edges();
    s.dn_pull_edges = lg.nd().num_edges();
    s.nd_pull_edges = lg.dn().num_edges();

    // Seed the source: a delegate activates on every GPU (its adjacency is
    // scattered); a normal vertex activates on its owner only.
    const LocalId src_delegate = graph_.delegates().delegate_id(source_);
    if (src_delegate != kInvalidLocal) {
      s.dist_delegate[src_delegate] = 0;
      s.active_delegates.push_back(src_delegate);
    } else if (spec.owner_global_gpu(source_) == ctx.gpu) {
      const LocalId local = static_cast<LocalId>(spec.local_index(source_));
      s.dist_normal[local] = 0;
      s.active_normals.push_back(local);
    }
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const State&) const {
    return (graph_.local(ctx.gpu).num_local_normals() +
            2ULL * graph_.num_delegates()) *
           8;
  }

  void previsit(engine::GpuContext& ctx, State& s, int) {
    s.iter = sim::GpuIterationCounters{};
    std::copy(s.dist_delegate.begin(), s.dist_delegate.end(),
              s.delegate_cand.begin());
    s.next_normals.clear();
    s.next_delegates.clear();

    // Direction decisions (Section IV-B): frontier edge mass per switchable
    // kernel vs. the subgraph's pull-edge mass.  The delegate frontier is
    // identical on every GPU (next_delegates falls out of the global
    // min-reduction), but FV and BV are this GPU's local edge counts, so
    // each GPU decides independently -- like the BFS visits, one GPU may
    // pull a kernel another pushes in the same round.
    s.iter.dprev_vertices = s.active_delegates.size();
    s.iter.nprev_vertices = s.active_normals.size();
    s.iter.direction_decisions = options_.direction_optimized;
    if (!options_.direction_optimized) return;  // forced push: no estimates

    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    double fv_dd = 0, fv_dn = 0, fv_nd = 0;
    for (const LocalId t : s.active_delegates) {
      fv_dd += lg.dd().row_length(t);
      fv_dn += lg.dn().row_length(t);
    }
    for (const LocalId v : s.active_normals) {
      fv_nd += lg.nd().row_length(v);
    }
    if (options_.adaptive_direction) {
      s.dir_dd.set_factors(s.controller.factors(options_.dd_factors, true));
      s.dir_dn.set_factors(s.controller.factors(options_.dn_factors, false));
      s.dir_nd.set_factors(s.controller.factors(options_.nd_factors, false));
    }
    s.dir_dd.update(fv_dd, sssp_backward_workload(s.dd_pull_edges), true);
    s.dir_dn.update(fv_dn, sssp_backward_workload(s.dn_pull_edges), true);
    s.dir_nd.update(fv_nd, sssp_backward_workload(s.nd_pull_edges), true);
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::DelegateInfo& delegates = graph_.delegates();
    const graph::GhostTable& ghosts = lg.ghosts();
    const auto global_of = [&](LocalId v) {
      return spec.global_vertex(ctx.me.rank, ctx.me.gpu, v);
    };

    // ---- nn relaxations: always push; candidates travel. ----------------
    {
      sim::KernelCounters& k = s.iter.nn;
      k.backward = false;
      k.launched = !s.active_normals.empty();
      for (const LocalId v : s.active_normals) {
        const std::uint64_t dist = s.dist_normal[v];
        const VertexId v_global = global_of(v);
        for (std::uint64_t e = lg.nn().row_begin(v); e < lg.nn().row_end(v);
             ++e) {
          const LocalId ghost = lg.nn().col(e);
          const std::uint64_t cand =
              dist + weight(lg.nn_weights(), e, v_global, ghosts.global(ghost));
          s.bins[static_cast<std::size_t>(ghosts.owner(ghost))].push_back(
              comm::VertexUpdate{ghosts.local(ghost), cand});
          ++k.edges;
        }
      }
      k.vertices = s.active_normals.size();
    }

    // ---- nd relaxations: active normals push into the replicated
    // candidates, or delegates pull over their dn rows. --------------------
    {
      sim::KernelCounters& k = s.iter.nd;
      k.backward = s.dir_nd.backward();
      if (!k.backward) {
        k.launched = !s.active_normals.empty();
        for (const LocalId v : s.active_normals) {
          const std::uint64_t dist = s.dist_normal[v];
          const VertexId v_global = global_of(v);
          for (std::uint64_t e = lg.nd().row_begin(v); e < lg.nd().row_end(v);
               ++e) {
            const LocalId c = lg.nd().col(e);
            const std::uint64_t cand =
                dist + weight(lg.nd_weights(), e, v_global,
                              delegates.vertex_of(c));
            if (cand < s.delegate_cand[c]) s.delegate_cand[c] = cand;
            ++k.edges;
          }
        }
        k.vertices = s.active_normals.size();
      } else {
        // Pull: every delegate with local dn edges folds
        // min(dist_normal + w) over its whole row into its candidate.
        k.launched = true;
        const LocalId d = graph_.num_delegates();
        for (LocalId t = 0; t < d; ++t) {
          if (lg.dn().row_length(t) == 0) continue;
          ++k.vertices;
          const VertexId t_global = delegates.vertex_of(t);
          std::uint64_t best = s.delegate_cand[t];
          for (std::uint64_t e = lg.dn().row_begin(t); e < lg.dn().row_end(t);
               ++e) {
            ++k.edges;
            const LocalId v = lg.dn().col(e);
            const std::uint64_t dv = s.dist_normal[v];
            if (dv == kInfiniteDistance) continue;
            const std::uint64_t cand =
                dv + weight(lg.dn_weights(), e, t_global, global_of(v));
            if (cand < best) best = cand;
          }
          s.delegate_cand[t] = best;
        }
      }
    }

    // ---- dd relaxations: active delegates push, or delegates pull over
    // their own (locally symmetric) dd rows. ------------------------------
    {
      sim::KernelCounters& k = s.iter.dd;
      k.backward = s.dir_dd.backward();
      if (!k.backward) {
        k.launched = !s.active_delegates.empty();
        for (const LocalId t : s.active_delegates) {
          const std::uint64_t dist = s.dist_delegate[t];
          const VertexId t_global = delegates.vertex_of(t);
          for (std::uint64_t e = lg.dd().row_begin(t); e < lg.dd().row_end(t);
               ++e) {
            const LocalId c = lg.dd().col(e);
            const std::uint64_t cand =
                dist + weight(lg.dd_weights(), e, t_global,
                              delegates.vertex_of(c));
            if (cand < s.delegate_cand[c]) s.delegate_cand[c] = cand;
            ++k.edges;
          }
        }
        k.vertices = s.active_delegates.size();
      } else {
        k.launched = true;
        const LocalId d = graph_.num_delegates();
        for (LocalId t = 0; t < d; ++t) {
          if (lg.dd().row_length(t) == 0) continue;
          ++k.vertices;
          const VertexId t_global = delegates.vertex_of(t);
          std::uint64_t best = s.delegate_cand[t];
          for (std::uint64_t e = lg.dd().row_begin(t); e < lg.dd().row_end(t);
               ++e) {
            ++k.edges;
            const LocalId c = lg.dd().col(e);
            const std::uint64_t dc = s.dist_delegate[c];
            if (dc == kInfiniteDistance) continue;
            const std::uint64_t cand =
                dc + weight(lg.dd_weights(), e, t_global,
                            delegates.vertex_of(c));
            if (cand < best) best = cand;
          }
          s.delegate_cand[t] = best;
        }
      }
    }

    // ---- dn relaxations: active delegates push into local distances, or
    // normals pull over their nd rows (reverse of dn on this GPU). ---------
    {
      sim::KernelCounters& k = s.iter.dn;
      k.backward = s.dir_dn.backward();
      if (!k.backward) {
        k.launched = !s.active_delegates.empty();
        for (const LocalId t : s.active_delegates) {
          const std::uint64_t dist = s.dist_delegate[t];
          const VertexId t_global = delegates.vertex_of(t);
          for (std::uint64_t e = lg.dn().row_begin(t); e < lg.dn().row_end(t);
               ++e) {
            const LocalId v = lg.dn().col(e);
            const std::uint64_t cand =
                dist + weight(lg.dn_weights(), e, t_global, global_of(v));
            if (cand < s.dist_normal[v]) {
              s.dist_normal[v] = cand;
              s.next_normals.push_back(v);
            }
            ++k.edges;
          }
        }
        k.vertices = s.active_delegates.size();
      } else {
        k.launched = true;
        for (const LocalId v : lg.nd_source_list()) {
          ++k.vertices;
          const VertexId v_global = global_of(v);
          std::uint64_t best = s.dist_normal[v];
          bool improved = false;
          for (std::uint64_t e = lg.nd().row_begin(v); e < lg.nd().row_end(v);
               ++e) {
            ++k.edges;
            const LocalId c = lg.nd().col(e);
            const std::uint64_t dc = s.dist_delegate[c];
            if (dc == kInfiniteDistance) continue;
            const std::uint64_t cand =
                dc + weight(lg.nd_weights(), e, v_global,
                            delegates.vertex_of(c));
            if (cand < best) {
              best = cand;
              improved = true;
            }
          }
          if (improved) {
            s.dist_normal[v] = best;
            s.next_normals.push_back(v);
          }
        }
      }
    }
  }

  void reduce(engine::GpuContext& ctx, State& s, int iteration) {
    // Global delegate distance min-reduction (d x 8 bytes).
    const LocalId d = graph_.num_delegates();
    ctx.comm.value_reducer().reduce(
        ctx.me, std::span<std::uint64_t>(s.delegate_cand.data(), d),
        comm::ValueReducer::Op::kMin, iteration);
    s.iter.delegate_update = true;
    for (LocalId t = 0; t < d; ++t) {
      if (s.delegate_cand[t] < s.dist_delegate[t]) {
        s.dist_delegate[t] = s.delegate_cand[t];
        s.next_delegates.push_back(t);
      }
    }
  }

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    // Runs on the normal stream, concurrent with `reduce` on the delegate
    // stream: touches only normal-distance state.
    const auto updates = ctx.comm.exchange(
        ctx.me, s.bins, iteration,
        {.combine = comm::UpdateCombine::kMin},
        s.iter);
    for (const comm::VertexUpdate& u : updates) {
      if (u.value < s.dist_normal[u.vertex]) {
        s.dist_normal[u.vertex] = u.value;
        s.next_normals.push_back(u.vertex);
      }
    }
    // A vertex may improve several times in one round; dedup the frontier.
    std::sort(s.next_normals.begin(), s.next_normals.end());
    s.next_normals.erase(
        std::unique(s.next_normals.begin(), s.next_normals.end()),
        s.next_normals.end());
  }

  std::uint64_t contribution(engine::GpuContext& ctx, State& s, int) {
    // Join the overlapped reduce/exchange: both feed the control word.
    ctx.delegate_stream.synchronize();
    ctx.normal_stream.synchronize();
    return s.next_normals.size() + s.next_delegates.size();
  }

  bool end_iteration(engine::GpuContext&, State& s, int,
                     std::uint64_t control) {
    if (options_.direction_optimized && options_.adaptive_direction) {
      // Fold this iteration's realized kernel rates into the controller
      // before the next previsit re-derives the factors from them.
      s.controller.observe(s.iter);
    }
    s.active_normals = std::move(s.next_normals);
    s.active_delegates = std::move(s.next_delegates);
    s.next_normals = {};
    s.next_delegates = {};
    return control == 0;
  }

 private:
  /// Weight of subgraph edge `e`: the stored per-edge array when the graph
  /// carries weights, otherwise the deterministic endpoint-pair hash.
  std::uint32_t weight(const std::vector<std::uint32_t>& stored,
                       std::uint64_t e, VertexId u, VertexId v) const {
    return stored.empty() ? util::edge_weight(u, v, options_.max_weight)
                          : stored[e];
  }

  const graph::DistributedGraph& graph_;
  const SsspOptions& options_;
  VertexId source_;
};

}  // namespace

DistributedSssp::DistributedSssp(const graph::DistributedGraph& graph,
                                 sim::Cluster& cluster, SsspOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
  if (options_.max_weight == 0) {
    throw std::invalid_argument("sssp max_weight must be at least 1");
  }
}

SsspResult DistributedSssp::run(VertexId source) {
  if (source >= graph_.num_vertices()) {
    throw std::out_of_range("sssp source out of range");
  }
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const LocalId d = graph_.num_delegates();

  SsspAlgorithm algo(graph_, options_, source);
  engine::IterativeEngine<SsspAlgorithm> engine(graph_, cluster_,
                                                options_.run);
  auto run = engine.run(algo);

  // ---- Gather. ----------------------------------------------------------
  SsspResult result;
  result.distances.assign(graph_.num_vertices(), kInfiniteDistance);
  for (int g = 0; g < p; ++g) {
    const auto& s = run.state(g);
    const sim::GpuCoord me = spec.coord_of(g);
    for (std::uint64_t v = 0; v < s.dist_normal.size(); ++v) {
      result.distances[spec.global_vertex(me.rank, me.gpu, v)] =
          s.dist_normal[v];
    }
  }
  const auto& s0 = run.state(0);
  for (LocalId t = 0; t < d; ++t) {
    result.distances[graph_.delegates().vertex_of(t)] = s0.dist_delegate[t];
  }

  // ---- Model. ------------------------------------------------------------
  static_cast<ValueRunReport&>(result) = assemble_value_report(
      graph_, run.iterations, std::move(run.histories), run.measured_ms,
      std::move(run.fault), options_.run.overlap);
  return result;
}

}  // namespace dsbfs::core
