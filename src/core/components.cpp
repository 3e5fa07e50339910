#include "core/components.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "core/metrics.hpp"
#include "engine/iterative_engine.hpp"

namespace dsbfs::core {

namespace {

/// Min-label propagation as engine phases: labels travel along all four
/// subgraphs each iteration; delegate labels meet in a global min-reduction
/// before the normal-label exchange, and the engine's control allreduce
/// counts surviving changes for convergence.
class CcAlgorithm {
 public:
  static constexpr const char* kStateLabel = "cc.state";

  struct State {
    std::vector<VertexId> label_normal;    // per local normal
    std::vector<VertexId> label_delegate;  // per delegate, replicated
    std::vector<VertexId> delegate_cand;   // this iteration's min candidates
    std::vector<LocalId> active_normals;
    std::vector<LocalId> active_delegates;
    std::vector<LocalId> next_normals;
    std::vector<LocalId> next_delegates;
    std::vector<std::vector<comm::VertexUpdate>> bins;
    sim::GpuIterationCounters iter;
  };

  explicit CcAlgorithm(const graph::DistributedGraph& graph)
      : graph_(graph) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = graph_.local(ctx.gpu).num_local_normals();

    auto state = std::make_unique<State>();
    State& s = *state;
    s.label_normal.resize(n_local);
    for (std::uint64_t v = 0; v < n_local; ++v) {
      s.label_normal[v] = spec.global_vertex(ctx.me.rank, ctx.me.gpu, v);
      s.active_normals.push_back(static_cast<LocalId>(v));
    }
    s.label_delegate.resize(d);
    s.delegate_cand.resize(d);
    for (LocalId t = 0; t < d; ++t) {
      s.label_delegate[t] = graph_.delegates().vertex_of(t);
      s.active_delegates.push_back(t);
    }
    s.bins.resize(static_cast<std::size_t>(ctx.total_gpus));
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const State&) const {
    return (graph_.local(ctx.gpu).num_local_normals() +
            2ULL * graph_.num_delegates()) *
           8;
  }

  void previsit(engine::GpuContext&, State& s, int) {
    s.iter = sim::GpuIterationCounters{};
    std::copy(s.label_delegate.begin(), s.label_delegate.end(),
              s.delegate_cand.begin());
    s.next_normals.clear();
    s.next_delegates.clear();
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::GhostTable& ghosts = lg.ghosts();

    // Normal pushes: nn updates travel, nd updates land in candidates.
    s.iter.nprev_vertices = s.active_normals.size();
    s.iter.nn.launched = s.iter.nd.launched = !s.active_normals.empty();
    for (const LocalId v : s.active_normals) {
      const VertexId lbl = s.label_normal[v];
      const auto nn_row = lg.nn().row(v);
      s.iter.nn.edges += nn_row.size();
      for (const LocalId ghost : nn_row) {
        // Send only improving candidates coarsely: the label might not
        // beat the destination's, the receiver checks.
        if (lbl < ghosts.global(ghost)) {
          s.bins[static_cast<std::size_t>(ghosts.owner(ghost))].push_back(
              comm::VertexUpdate{ghosts.local(ghost), lbl});
        }
      }
      const auto nd_row = lg.nd().row(v);
      s.iter.nd.edges += nd_row.size();
      for (const LocalId c : nd_row) {
        if (lbl < s.delegate_cand[c]) s.delegate_cand[c] = lbl;
      }
    }
    s.iter.nn.vertices = s.iter.nd.vertices = s.active_normals.size();

    // Delegate pushes: dd into candidates, dn into local labels.
    s.iter.dprev_vertices = s.active_delegates.size();
    s.iter.dd.launched = s.iter.dn.launched = !s.active_delegates.empty();
    for (const LocalId t : s.active_delegates) {
      const VertexId lbl = s.label_delegate[t];
      const auto dd_row = lg.dd().row(t);
      s.iter.dd.edges += dd_row.size();
      for (const LocalId c : dd_row) {
        if (lbl < s.delegate_cand[c]) s.delegate_cand[c] = lbl;
      }
      const auto dn_row = lg.dn().row(t);
      s.iter.dn.edges += dn_row.size();
      for (const LocalId v : dn_row) {
        if (lbl < s.label_normal[v]) {
          s.label_normal[v] = lbl;
          s.next_normals.push_back(v);
        }
      }
    }
    s.iter.dd.vertices = s.iter.dn.vertices = s.active_delegates.size();
  }

  void reduce(engine::GpuContext& ctx, State& s, int iteration) {
    // Global delegate label min-reduction (d x 8 bytes).
    const LocalId d = graph_.num_delegates();
    ctx.comm.value_reducer().reduce(
        ctx.me, std::span<std::uint64_t>(s.delegate_cand.data(), d),
        comm::ValueReducer::Op::kMin, iteration);
    s.iter.delegate_update = true;
    for (LocalId t = 0; t < d; ++t) {
      if (s.delegate_cand[t] < s.label_delegate[t]) {
        s.label_delegate[t] = s.delegate_cand[t];
        s.next_delegates.push_back(t);
      }
    }
  }

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    // Runs on the normal stream, concurrent with `reduce` on the delegate
    // stream: touches only normal-label state.
    const auto updates = ctx.comm.exchange(
        ctx.me, s.bins, iteration, {.combine = comm::UpdateCombine::kMin},
        s.iter);
    for (const comm::VertexUpdate& u : updates) {
      if (u.value < s.label_normal[u.vertex]) {
        s.label_normal[u.vertex] = u.value;
        s.next_normals.push_back(u.vertex);
      }
    }
    // A vertex may be improved twice in one round; dedup the frontier.
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
    s.active_normals = std::move(s.next_normals);
    s.active_delegates = std::move(s.next_delegates);
    s.next_normals = {};
    s.next_delegates = {};
    return control == 0;
  }

 private:
  const graph::DistributedGraph& graph_;
};

}  // namespace

ConnectedComponents::ConnectedComponents(const graph::DistributedGraph& graph,
                                         sim::Cluster& cluster,
                                         CcOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
}

CcResult ConnectedComponents::run() {
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const LocalId d = graph_.num_delegates();

  CcAlgorithm algo(graph_);
  engine::IterativeEngine<CcAlgorithm> engine(graph_, cluster_, options_.run);
  auto run = engine.run(algo);

  // ---- Gather. ----------------------------------------------------------
  CcResult result;
  result.labels.assign(graph_.num_vertices(), kInvalidVertex);
  for (int g = 0; g < p; ++g) {
    const auto& s = run.state(g);
    const sim::GpuCoord me = spec.coord_of(g);
    for (std::uint64_t v = 0; v < s.label_normal.size(); ++v) {
      result.labels[spec.global_vertex(me.rank, me.gpu, v)] =
          s.label_normal[v];
    }
  }
  const auto& s0 = run.state(0);
  for (LocalId t = 0; t < d; ++t) {
    result.labels[graph_.delegates().vertex_of(t)] = s0.label_delegate[t];
  }
  {
    std::unordered_set<VertexId> roots(result.labels.begin(),
                                       result.labels.end());
    result.num_components = roots.size();
  }

  // ---- Model. ------------------------------------------------------------
  static_cast<ValueRunReport&>(result) = assemble_value_report(
      graph_, run.iterations, std::move(run.histories), run.measured_ms,
      std::move(run.fault), options_.run.overlap);
  return result;
}

}  // namespace dsbfs::core
