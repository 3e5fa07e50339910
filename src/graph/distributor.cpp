#include "graph/distributor.hpp"

#include <algorithm>
#include <array>

#include "util/parallel.hpp"

namespace dsbfs::graph {

EdgeRoute route_edge(VertexId u, VertexId v,
                     const std::vector<std::uint32_t>& degrees,
                     std::uint32_t threshold, const sim::ClusterSpec& spec) {
  const bool u_delegate = degrees[u] > threshold;
  const bool v_delegate = degrees[v] > threshold;
  EdgeRoute route;
  if (!u_delegate) {
    route.gpu = spec.owner_global_gpu(u);
    route.kind = v_delegate ? EdgeKind::kND : EdgeKind::kNN;
  } else if (!v_delegate) {
    route.gpu = spec.owner_global_gpu(v);
    route.kind = EdgeKind::kDN;
  } else {
    route.kind = EdgeKind::kDD;
    if (degrees[u] < degrees[v]) {
      route.gpu = spec.owner_global_gpu(u);
    } else if (degrees[u] > degrees[v]) {
      route.gpu = spec.owner_global_gpu(v);
    } else {
      route.gpu = spec.owner_global_gpu(std::min(u, v));
    }
  }
  return route;
}

DistributedEdges distribute_edges(const EdgeList& g,
                                  const std::vector<std::uint32_t>& degrees,
                                  const DelegateInfo& delegates,
                                  const sim::ClusterSpec& spec) {
  const std::size_t m = g.size();
  const int p = spec.total_gpus();
  const std::uint32_t th = delegates.threshold();

  // Edges split into one contiguous chunk per worker.  Pass 1 counts
  // (gpu, kind) per chunk so pass 2 can write without locks, and the output
  // order stays edge-index order whatever the worker count.
  const std::size_t workers = std::max<std::size_t>(1, util::parallel_worker_count());
  const std::size_t chunk = (m + workers - 1) / workers;
  const std::size_t chunks = m == 0 ? 0 : (m + chunk - 1) / chunk;

  // counts[c][gpu][kind]
  std::vector<std::array<std::uint64_t, 4>> zero(static_cast<std::size_t>(p));
  std::vector<std::vector<std::array<std::uint64_t, 4>>> counts(chunks, zero);

  util::parallel_tasks(chunks, [&](std::size_t c) {
    const std::size_t hi = std::min(m, (c + 1) * chunk);
    auto& local = counts[c];
    for (std::size_t i = c * chunk; i < hi; ++i) {
      const EdgeRoute r = route_edge(g.src[i], g.dst[i], degrees, th, spec);
      local[static_cast<std::size_t>(r.gpu)][static_cast<std::size_t>(r.kind)] += 1;
    }
  });

  // Exclusive prefix over chunks for each (gpu, kind); totals per (gpu, kind).
  DistributedEdges out;
  out.gpus.resize(static_cast<std::size_t>(p));
  std::vector<std::array<std::uint64_t, 4>> totals(static_cast<std::size_t>(p));
  for (int gpu = 0; gpu < p; ++gpu) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t run = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t v = counts[c][static_cast<std::size_t>(gpu)]
                                         [static_cast<std::size_t>(k)];
        counts[c][static_cast<std::size_t>(gpu)][static_cast<std::size_t>(k)] = run;
        run += v;
      }
      totals[static_cast<std::size_t>(gpu)][static_cast<std::size_t>(k)] = run;
    }
  }
  const bool weighted = g.weighted();
  for (int gpu = 0; gpu < p; ++gpu) {
    auto& sets = out.gpus[static_cast<std::size_t>(gpu)];
    const auto& t = totals[static_cast<std::size_t>(gpu)];
    sets.nn_rows.resize(t[0]);
    sets.nn_cols.resize(t[0]);
    sets.nd_rows.resize(t[1]);
    sets.nd_cols.resize(t[1]);
    sets.dn_rows.resize(t[2]);
    sets.dn_cols.resize(t[2]);
    sets.dd_rows.resize(t[3]);
    sets.dd_cols.resize(t[3]);
    sets.weighted = weighted;
    if (weighted) {
      sets.nn_weights.resize(t[0]);
      sets.nd_weights.resize(t[1]);
      sets.dn_weights.resize(t[2]);
      sets.dd_weights.resize(t[3]);
    }
    out.enn += t[0];
    out.end += t[1];
    out.edn += t[2];
    out.edd += t[3];
  }

  // Dense vertex -> delegate id table (kInvalidLocal for normals), so pass 2
  // looks ids up directly instead of binary-searching the delegate list.
  std::vector<LocalId> delegate_of(g.num_vertices, kInvalidLocal);
  const std::vector<VertexId>& delegate_vertices = delegates.vertices();
  for (std::size_t t = 0; t < delegate_vertices.size(); ++t) {
    delegate_of[delegate_vertices[t]] = static_cast<LocalId>(t);
  }

  // Pass 2: translate to local encodings and write at the reserved offsets.
  util::parallel_tasks(chunks, [&](std::size_t c) {
    const std::size_t hi = std::min(m, (c + 1) * chunk);
    auto cursor = counts[c];  // copy: running write positions
    for (std::size_t i = c * chunk; i < hi; ++i) {
      const VertexId u = g.src[i];
      const VertexId v = g.dst[i];
      const EdgeRoute r = route_edge(u, v, degrees, th, spec);
      auto& sets = out.gpus[static_cast<std::size_t>(r.gpu)];
      std::uint64_t& pos = cursor[static_cast<std::size_t>(r.gpu)]
                                 [static_cast<std::size_t>(r.kind)];
      switch (r.kind) {
        case EdgeKind::kNN:
          sets.nn_rows[pos] = static_cast<LocalId>(spec.local_index(u));
          sets.nn_cols[pos] = v;
          if (weighted) sets.nn_weights[pos] = g.weights[i];
          break;
        case EdgeKind::kND:
          sets.nd_rows[pos] = static_cast<LocalId>(spec.local_index(u));
          sets.nd_cols[pos] = delegate_of[v];
          if (weighted) sets.nd_weights[pos] = g.weights[i];
          break;
        case EdgeKind::kDN:
          sets.dn_rows[pos] = delegate_of[u];
          sets.dn_cols[pos] = static_cast<LocalId>(spec.local_index(v));
          if (weighted) sets.dn_weights[pos] = g.weights[i];
          break;
        case EdgeKind::kDD:
          sets.dd_rows[pos] = delegate_of[u];
          sets.dd_cols[pos] = delegate_of[v];
          if (weighted) sets.dd_weights[pos] = g.weights[i];
          break;
      }
      ++pos;
    }
  });

  return out;
}

}  // namespace dsbfs::graph
