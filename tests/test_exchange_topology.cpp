#include "sim/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/host_apps.hpp"
#include "baseline/serial_bfs.hpp"
#include "comm/exchange.hpp"
#include "core/batch_bfs.hpp"
#include "core/bfs.hpp"
#include "core/components.hpp"
#include "core/delta_sssp.hpp"
#include "core/pagerank.hpp"
#include "core/query_scheduler.hpp"
#include "core/sssp.hpp"
#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/lane_value_slab.hpp"

/// Exchange-topology lockdown: the flat, hierarchical and butterfly routing
/// modes must be indistinguishable to every algorithm (bit-exact results,
/// identical logical update multisets) while their wire patterns -- per-hop
/// byte/partner/bin counters -- are pinned against golden values for fixed
/// seeds.  The *Soak* cases sweep seeds; CMake registers them in the soak
/// tier and everything else in tier 1.
namespace dsbfs {
namespace {

using comm::ExchangeCounters;
using comm::UpdateCombine;
using comm::VertexUpdate;
using comm::WireCodec;
using sim::ExchangeTopology;

constexpr ExchangeTopology kAllTopologies[] = {
    ExchangeTopology::kFlat, ExchangeTopology::kHierarchical,
    ExchangeTopology::kButterfly};

/// `nodes` modeled nodes, one rank each, `gpus` GPUs per rank.
sim::ClusterSpec nodes_spec(int nodes, int gpus = 2, int ranks_per_node = 1) {
  sim::ClusterSpec s;
  s.num_ranks = nodes * ranks_per_node;
  s.gpus_per_rank = gpus;
  s.ranks_per_node = ranks_per_node;
  return s;
}

// ---- comm layer: logical multiset equivalence -----------------------------

/// Collective id exchange where every GPU fills bins via `fill`; worker
/// exceptions are captured and rethrown on the calling thread.
std::vector<std::vector<LocalId>> run_id_exchange(
    const sim::ClusterSpec& spec, const comm::ExchangeOptions& options,
    std::vector<ExchangeCounters>* counters_out,
    const std::function<void(int, std::vector<std::vector<LocalId>>&)>& fill) {
  const int p = spec.total_gpus();
  comm::Transport t(spec);
  std::vector<std::vector<LocalId>> received(static_cast<std::size_t>(p));
  std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      try {
        std::vector<std::vector<LocalId>> bins(static_cast<std::size_t>(p));
        fill(g, bins);
        received[static_cast<std::size_t>(g)] =
            comm::exchange(t, spec, spec.coord_of(g), bins,
                           /*iteration=*/0, options,
                           counters[static_cast<std::size_t>(g)]);
      } catch (...) {
        errors[static_cast<std::size_t>(g)] = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (counters_out != nullptr) *counters_out = std::move(counters);
  return received;
}

/// Same harness for the (id, value) update exchange.
std::vector<std::vector<VertexUpdate>> run_update_exchange(
    const sim::ClusterSpec& spec, const comm::ExchangeOptions& options,
    std::vector<ExchangeCounters>* counters_out,
    const std::function<void(int, std::vector<std::vector<VertexUpdate>>&)>&
        fill) {
  const int p = spec.total_gpus();
  comm::Transport t(spec);
  std::vector<std::vector<VertexUpdate>> received(static_cast<std::size_t>(p));
  std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      try {
        std::vector<std::vector<VertexUpdate>> bins(
            static_cast<std::size_t>(p));
        fill(g, bins);
        received[static_cast<std::size_t>(g)] = comm::exchange(
            t, spec, spec.coord_of(g), bins, /*iteration=*/0, options,
            counters[static_cast<std::size_t>(g)]);
      } catch (...) {
        errors[static_cast<std::size_t>(g)] = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (counters_out != nullptr) *counters_out = std::move(counters);
  return received;
}

/// Deterministic id payload: GPU g sends (g * 131 + dest * 17 + i) % 97 for
/// i in [0, (g + dest) % 4 + 1) to every destination, salted by `seed`.
std::function<void(int, std::vector<std::vector<LocalId>>&)> id_fill(
    std::uint64_t seed) {
  return [seed](int g, std::vector<std::vector<LocalId>>& bins) {
    for (std::size_t dest = 0; dest < bins.size(); ++dest) {
      const int copies = (g + static_cast<int>(dest)) % 4 + 1;
      for (int i = 0; i < copies; ++i) {
        bins[dest].push_back(static_cast<LocalId>(
            (static_cast<std::uint64_t>(g) * 131 + dest * 17 +
             static_cast<std::uint64_t>(i) + seed * 7919) %
            97));
      }
    }
  };
}

/// Deterministic update payload (same shape, values keyed to sender).
std::function<void(int, std::vector<std::vector<VertexUpdate>>&)> update_fill(
    std::uint64_t seed) {
  return [seed](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    for (std::size_t dest = 0; dest < bins.size(); ++dest) {
      const int copies = (g + static_cast<int>(dest)) % 4 + 1;
      for (int i = 0; i < copies; ++i) {
        const std::uint64_t k = static_cast<std::uint64_t>(g) * 131 +
                                dest * 17 + static_cast<std::uint64_t>(i) +
                                seed * 7919;
        bins[dest].push_back(VertexUpdate{static_cast<LocalId>(k % 53),
                                          (k % 211) + 1});
      }
    }
  };
}

/// update_fill's records with each value spread over the whole word (an odd
/// multiplier), so every sub-lane of a packed lane word carries a value.
std::function<void(int, std::vector<std::vector<VertexUpdate>>&)>
lane_update_fill(std::uint64_t seed) {
  return [base = update_fill(seed)](
             int g, std::vector<std::vector<VertexUpdate>>& bins) {
    base(g, bins);
    for (auto& bin : bins) {
      for (VertexUpdate& u : bin) u.value *= 0x9E3779B97F4A7C15ULL;
    }
  };
}

/// Fold a delivered update stream by the combine op: the logical content an
/// algorithm extracts, invariant to segment merging and delivery order.
/// The lane combines fold per sub-lane of `lane_value_bits` bits.
std::map<LocalId, std::uint64_t> fold_updates(
    const std::vector<VertexUpdate>& updates, UpdateCombine combine,
    int lane_value_bits = 64) {
  std::map<LocalId, std::uint64_t> folded;
  for (const VertexUpdate& u : updates) {
    auto [it, fresh] = folded.emplace(u.vertex, u.value);
    if (fresh) continue;
    switch (combine) {
      case UpdateCombine::kMin:
        it->second = std::min(it->second, u.value);
        break;
      case UpdateCombine::kOr:
        it->second |= u.value;
        break;
      case UpdateCombine::kSumDouble:
        it->second = std::bit_cast<std::uint64_t>(
            std::bit_cast<double>(it->second) + std::bit_cast<double>(u.value));
        break;
      case UpdateCombine::kLaneMin:
        it->second = util::LaneValueSlab::lane_min_word(it->second, u.value,
                                                        lane_value_bits);
        break;
      case UpdateCombine::kLaneSum:
        it->second = util::LaneValueSlab::lane_add_word(it->second, u.value,
                                                        lane_value_bits);
        break;
      case UpdateCombine::kNone:
        break;  // multiset compare handled by the caller
    }
  }
  return folded;
}

struct TopologyCase {
  const char* name;
  int nodes, gpus, ranks_per_node;
};

class CommTopologyEquivalence : public ::testing::TestWithParam<TopologyCase> {
};

TEST_P(CommTopologyEquivalence, IdMultisetsMatchFlat) {
  const TopologyCase tc = GetParam();
  const sim::ClusterSpec spec =
      nodes_spec(tc.nodes, tc.gpus, tc.ranks_per_node);
  for (const bool uniquify : {false, true}) {
    comm::ExchangeOptions options;
    options.combine = uniquify ? UpdateCombine::kOr : UpdateCombine::kNone;
    options.local_all2all = false;
    options.topology = ExchangeTopology::kFlat;
    auto flat = run_id_exchange(spec, options, nullptr, id_fill(1));
    for (const ExchangeTopology topo :
         {ExchangeTopology::kHierarchical, ExchangeTopology::kButterfly}) {
      options.topology = topo;
      auto got = run_id_exchange(spec, options, nullptr, id_fill(1));
      for (int g = 0; g < spec.total_gpus(); ++g) {
        auto a = flat[static_cast<std::size_t>(g)];
        auto b = got[static_cast<std::size_t>(g)];
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        if (uniquify) {
          // Multi-hop dedups across sources too; the logical id *set* is
          // what the frontier fold consumes either way.
          a.erase(std::unique(a.begin(), a.end()), a.end());
          b.erase(std::unique(b.begin(), b.end()), b.end());
        }
        EXPECT_EQ(a, b) << sim::to_string(topo) << " gpu " << g
                        << " uniquify " << uniquify;
      }
    }
  }
}

TEST_P(CommTopologyEquivalence, UpdateFoldsMatchFlatAcrossWireOptions) {
  const TopologyCase tc = GetParam();
  const sim::ClusterSpec spec =
      nodes_spec(tc.nodes, tc.gpus, tc.ranks_per_node);
  struct WireCase {
    UpdateCombine combine;
    WireCodec codec;
    std::uint64_t value_bias;
    int lane_value_bits = 64;
  };
  const WireCase wire_cases[] = {
      {UpdateCombine::kNone, WireCodec::kRaw, 0},
      {UpdateCombine::kNone, WireCodec::kVarint, 0},
      {UpdateCombine::kMin, WireCodec::kRaw, 0},
      {UpdateCombine::kMin, WireCodec::kVarint, 0},
      {UpdateCombine::kMin, WireCodec::kAdaptive, 0},
      {UpdateCombine::kMin, WireCodec::kVarint, 100},
      {UpdateCombine::kOr, WireCodec::kRaw, 0},
      {UpdateCombine::kOr, WireCodec::kAdaptive, 0},
      {UpdateCombine::kSumDouble, WireCodec::kRaw, 0},
      {UpdateCombine::kSumDouble, WireCodec::kGorilla, 0},
      {UpdateCombine::kLaneMin, WireCodec::kRaw, 0, 16},
      {UpdateCombine::kLaneMin, WireCodec::kVarint, 0, 8},
      {UpdateCombine::kLaneSum, WireCodec::kRaw, 0, 8},
      {UpdateCombine::kLaneSum, WireCodec::kAdaptive, 0, 16},
  };
  for (const WireCase& wc : wire_cases) {
    comm::ExchangeOptions options;
    options.combine = wc.combine;
    options.codec = wc.codec;
    options.value_bias = wc.value_bias;
    options.lane_value_bits = wc.lane_value_bits;
    options.topology = ExchangeTopology::kFlat;
    const auto fill = wc.lane_value_bits < 64 ? lane_update_fill(2)
                                              : update_fill(2);
    auto flat = run_update_exchange(spec, options, nullptr, fill);
    for (const ExchangeTopology topo :
         {ExchangeTopology::kHierarchical, ExchangeTopology::kButterfly}) {
      options.topology = topo;
      auto got = run_update_exchange(spec, options, nullptr, fill);
      for (int g = 0; g < spec.total_gpus(); ++g) {
        const auto& a = flat[static_cast<std::size_t>(g)];
        const auto& b = got[static_cast<std::size_t>(g)];
        if (wc.combine == UpdateCombine::kNone ||
            wc.combine == UpdateCombine::kSumDouble) {
          // Order-sensitive folds: multi-hop must reproduce flat's exact
          // per-source delivery order, record for record.
          ASSERT_EQ(a.size(), b.size())
              << sim::to_string(topo) << " gpu " << g;
          for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].vertex, b[i].vertex)
                << sim::to_string(topo) << " gpu " << g << " record " << i;
            EXPECT_EQ(a[i].value, b[i].value)
                << sim::to_string(topo) << " gpu " << g << " record " << i;
          }
        } else {
          EXPECT_EQ(fold_updates(a, wc.combine, wc.lane_value_bits),
                    fold_updates(b, wc.combine, wc.lane_value_bits))
              << sim::to_string(topo) << " gpu " << g;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, CommTopologyEquivalence,
    ::testing::Values(TopologyCase{"n1x2", 1, 2, 1},
                      TopologyCase{"n2x2", 2, 2, 1},
                      TopologyCase{"n4x1", 4, 1, 1},
                      TopologyCase{"n4x2", 4, 2, 1},
                      TopologyCase{"n8x2", 8, 2, 1},
                      TopologyCase{"n2r2x2", 2, 2, 2}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(CommTopology, ButterflyRequiresPowerOfTwoNodes) {
  const sim::ClusterSpec spec = nodes_spec(3);
  comm::ExchangeOptions options;
  options.topology = ExchangeTopology::kButterfly;
  EXPECT_THROW(run_id_exchange(spec, options, nullptr, id_fill(1)),
               std::invalid_argument);
  // Hierarchical has no such constraint: odd node counts route fine.
  options.topology = ExchangeTopology::kHierarchical;
  EXPECT_NO_THROW(run_id_exchange(spec, options, nullptr, id_fill(1)));
}

TEST(CommTopology, SingleNodeDegeneratesToIntraNodeOnly) {
  // One node: no inter hops; every topology reduces to the NVLink domain
  // and the flat result, and the hop trace carries no inter-node entries.
  const sim::ClusterSpec spec = nodes_spec(1, 4);
  comm::ExchangeOptions options;
  options.combine = UpdateCombine::kNone;
  auto flat = run_update_exchange(spec, options, nullptr, update_fill(3));
  for (const ExchangeTopology topo :
       {ExchangeTopology::kHierarchical, ExchangeTopology::kButterfly}) {
    options.topology = topo;
    std::vector<ExchangeCounters> counters;
    auto got = run_update_exchange(spec, options, &counters, update_fill(3));
    for (int g = 0; g < spec.total_gpus(); ++g) {
      const auto gi = static_cast<std::size_t>(g);
      ASSERT_EQ(flat[gi].size(), got[gi].size()) << "gpu " << g;
      for (std::size_t i = 0; i < flat[gi].size(); ++i) {
        EXPECT_EQ(flat[gi][i].vertex, got[gi][i].vertex);
        EXPECT_EQ(flat[gi][i].value, got[gi][i].value);
      }
      ASSERT_EQ(counters[gi].hops.size(), 1u) << "gpu " << g;
      EXPECT_FALSE(counters[gi].hops[0].internode);
      EXPECT_EQ(counters[gi].send_bytes_remote, 0u);
      EXPECT_EQ(counters[gi].send_dest_ranks, 0);
    }
  }
}

TEST(CommTopology, FlatRunsCarryNoHopTrace) {
  const sim::ClusterSpec spec = nodes_spec(2);
  std::vector<ExchangeCounters> counters;
  comm::ExchangeOptions options;  // default flat
  run_id_exchange(spec, options, &counters, id_fill(4));
  for (const auto& c : counters) EXPECT_TRUE(c.hops.empty());
}

// ---- golden wire counters -------------------------------------------------
// Exact per-hop byte/partner/bin pins for a fixed payload: any change to the
// wire format, the hop schedule, the merge policy or the byte accounting
// moves at least one of these.  (Verified during development: a one-byte
// payload perturbation flips the digests.)

TEST(GoldenWire, HierarchicalFourNodes) {
  const sim::ClusterSpec spec = nodes_spec(4, 2);
  comm::ExchangeOptions options;
  options.combine = UpdateCombine::kMin;
  options.topology = ExchangeTopology::kHierarchical;
  std::vector<ExchangeCounters> counters;
  run_update_exchange(spec, options, &counters, update_fill(5));

  // Shape: hop 0 intra distribute/gather, hop 1 one inter hop (3 partners
  // per leader), hop 2 intra scatter -- identical on every GPU.
  for (int g = 0; g < spec.total_gpus(); ++g) {
    const auto& c = counters[static_cast<std::size_t>(g)];
    ASSERT_EQ(c.hops.size(), 3u) << "gpu " << g;
    EXPECT_FALSE(c.hops[0].internode);
    EXPECT_TRUE(c.hops[1].internode);
    EXPECT_FALSE(c.hops[2].internode);
    EXPECT_EQ(c.hops[0].partners, 1) << "gpu " << g;  // one same-node peer
    EXPECT_EQ(c.hops[1].partners, g == spec.node_leader(spec.node_of(g)) ? 3
                                                                         : 0)
        << "gpu " << g;
  }
  // Full-trace digests, one per GPU (every field of every hop).
  const std::uint64_t expected[] = {
      0xabee06294294b7b6ull, 0xda06d394cfd80af5ull, 0x13aa4b7f3dc810e5ull,
      0x6d7725e5ff23c698ull, 0xabee06294294b7b6ull, 0xda06d394cfd80af5ull,
      0xabee06294294b7b6ull, 0xda06d394cfd80af5ull,
  };
  for (int g = 0; g < spec.total_gpus(); ++g) {
    EXPECT_EQ(sim::hop_digest(counters[static_cast<std::size_t>(g)].hops),
              expected[g])
        << "gpu " << g << " digest 0x" << std::hex
        << sim::hop_digest(counters[static_cast<std::size_t>(g)].hops);
  }
}

TEST(GoldenWire, ButterflyFourNodes) {
  const sim::ClusterSpec spec = nodes_spec(4, 2);
  comm::ExchangeOptions options;
  options.combine = UpdateCombine::kOr;
  options.topology = ExchangeTopology::kButterfly;
  std::vector<ExchangeCounters> counters;
  run_id_exchange(spec, options, &counters, id_fill(6));

  // Shape: hop 0 intra, hops 1..2 the two XOR hops (single partner each),
  // hop 3 scatter.
  for (int g = 0; g < spec.total_gpus(); ++g) {
    const auto& c = counters[static_cast<std::size_t>(g)];
    ASSERT_EQ(c.hops.size(), 4u) << "gpu " << g;
    const bool leader = g == spec.node_leader(spec.node_of(g));
    EXPECT_FALSE(c.hops[0].internode);
    EXPECT_TRUE(c.hops[1].internode);
    EXPECT_TRUE(c.hops[2].internode);
    EXPECT_FALSE(c.hops[3].internode);
    EXPECT_EQ(c.hops[1].partners, leader ? 1 : 0) << "gpu " << g;
    EXPECT_EQ(c.hops[2].partners, leader ? 1 : 0) << "gpu " << g;
  }
  const std::uint64_t expected[] = {
      0x2e33dabcf1791fc0ull, 0xc440576aad5e5920ull, 0x2e33dabcf1791fc0ull,
      0xc440576aad5e5920ull, 0x2e33dabcf1791fc0ull, 0xc440576aad5e5920ull,
      0x2e33dabcf1791fc0ull, 0xc440576aad5e5920ull,
  };
  for (int g = 0; g < spec.total_gpus(); ++g) {
    EXPECT_EQ(sim::hop_digest(counters[static_cast<std::size_t>(g)].hops),
              expected[g])
        << "gpu " << g << " digest 0x" << std::hex
        << sim::hop_digest(counters[static_cast<std::size_t>(g)].hops);
  }
}

TEST(GoldenWire, LegacyCountersMapToHopClasses) {
  // The legacy byte counters must partition the hop trace: remote bytes =
  // inter-node hop bytes, local bytes = intra-node hop bytes (plus the
  // lossless-wire frame overhead charged per message on remote sends).
  const sim::ClusterSpec spec = nodes_spec(4, 2);
  comm::ExchangeOptions options;
  options.combine = UpdateCombine::kMin;
  for (const ExchangeTopology topo :
       {ExchangeTopology::kHierarchical, ExchangeTopology::kButterfly}) {
    options.topology = topo;
    std::vector<ExchangeCounters> counters;
    run_update_exchange(spec, options, &counters, update_fill(5));
    for (int g = 0; g < spec.total_gpus(); ++g) {
      const auto& c = counters[static_cast<std::size_t>(g)];
      std::uint64_t inter_send = 0, intra_send = 0;
      for (const sim::HopCounters& h : c.hops) {
        (h.internode ? inter_send : intra_send) += h.send_bytes;
      }
      EXPECT_EQ(c.send_bytes_remote, inter_send)
          << sim::to_string(topo) << " gpu " << g;
      EXPECT_EQ(c.local_bytes, intra_send)
          << sim::to_string(topo) << " gpu " << g;
    }
  }
}

// ---- facade equivalence: every algorithm, bit for bit ---------------------

enum class GraphFamily { kRmat, kGrid };

struct FacadeCase {
  const char* name;
  GraphFamily family;
  int nodes;
};

graph::EdgeList make_graph(GraphFamily family, std::uint64_t seed) {
  switch (family) {
    case GraphFamily::kRmat:
      return graph::rmat_graph500({.scale = 10, .seed = seed});
    case GraphFamily::kGrid:
      return graph::grid_graph(32, 32);
  }
  return {};
}

class FacadeTopologyEquivalence
    : public ::testing::TestWithParam<FacadeCase> {
 protected:
  void SetUp() override {
    const FacadeCase fc = GetParam();
    graph_ = make_graph(fc.family, 61);
    spec_ = nodes_spec(fc.nodes, 2);
    dg_ = graph::build_distributed(graph_, spec_, 16);
    host_ = graph::build_host_csr(graph_);
  }
  graph::EdgeList graph_;
  sim::ClusterSpec spec_;
  graph::DistributedGraph dg_;
  graph::HostCsr host_;
};

TEST_P(FacadeTopologyEquivalence, BfsBitExact) {
  sim::Cluster cluster(spec_);
  core::BfsOptions options;
  options.local_all2all = true;
  options.run.uniquify = true;
  options.compute_parents = true;
  const VertexId source =
      core::DistributedBfs(dg_, cluster, options).sample_source(1);
  const auto expected = baseline::serial_bfs(host_, source);
  std::vector<VertexId> first_parents;
  for (const ExchangeTopology topo : kAllTopologies) {
    options.run.exchange_topology = topo;
    core::DistributedBfs bfs(dg_, cluster, options);
    const core::BfsResult r = bfs.run(source);
    EXPECT_EQ(r.distances, expected) << sim::to_string(topo);
    const auto report =
        core::validate_parents(graph_, source, r.distances, r.parents);
    EXPECT_TRUE(report.ok) << sim::to_string(topo) << ": " << report.error;
    // Parent claims resolve by deterministic min tie-break (smallest
    // eligible parent id wins regardless of sender arrival order), so the
    // trees themselves are bit-identical across routing modes.
    if (first_parents.empty()) {
      first_parents = r.parents;
    } else {
      ASSERT_EQ(r.parents, first_parents) << sim::to_string(topo);
    }
  }
}

TEST_P(FacadeTopologyEquivalence, BatchBfsBitExactAtBothLaneWidths) {
  sim::Cluster cluster(spec_);
  for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
    core::BfsOptions options{.direction_optimized = false};
    options.run.uniquify = true;
    core::DistributedBatchBfs probe(dg_, cluster, options);
    std::vector<VertexId> sources;
    for (std::size_t k = 0; k < width; ++k) {
      sources.push_back(probe.sample_source(k));
    }
    std::vector<core::BatchBfsResult> results;
    for (const ExchangeTopology topo : kAllTopologies) {
      options.run.exchange_topology = topo;
      core::DistributedBatchBfs batch(dg_, cluster, options);
      results.push_back(batch.run(sources));
    }
    for (std::size_t lane = 0; lane < width; ++lane) {
      const auto expected = baseline::serial_bfs(host_, sources[lane]);
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].distances[lane], expected)
            << "lane " << lane << " W " << width << " topology " << i;
      }
    }
  }
}

TEST_P(FacadeTopologyEquivalence, SsspBitExact) {
  sim::Cluster cluster(spec_);
  const auto expected = baseline::serial_sssp(host_, 3);
  core::SsspOptions options;
  options.run.uniquify = true;
  options.run.codec = WireCodec::kVarint;
  std::vector<std::vector<std::uint64_t>> all;
  for (const ExchangeTopology topo : kAllTopologies) {
    options.run.exchange_topology = topo;
    core::DistributedSssp sssp(dg_, cluster, options);
    all.push_back(sssp.run(3).distances);
    EXPECT_EQ(all.back(), expected) << sim::to_string(topo);
  }
}

TEST_P(FacadeTopologyEquivalence, DeltaSsspBitExact) {
  sim::Cluster cluster(spec_);
  const auto expected = baseline::serial_sssp(host_, 3);
  core::DeltaSsspOptions options;
  options.run.codec = WireCodec::kVarint;
  for (const ExchangeTopology topo : kAllTopologies) {
    options.run.exchange_topology = topo;
    core::DistributedDeltaSssp sssp(dg_, cluster, options);
    EXPECT_EQ(sssp.run(3).distances, expected) << sim::to_string(topo);
  }
}

TEST_P(FacadeTopologyEquivalence, CcBitExact) {
  sim::Cluster cluster(spec_);
  const auto expected = baseline::serial_components(host_);
  core::CcOptions options;
  options.run.uniquify = true;
  for (const ExchangeTopology topo : kAllTopologies) {
    options.run.exchange_topology = topo;
    EXPECT_EQ(core::ConnectedComponents(dg_, cluster, options).run().labels,
              expected)
        << sim::to_string(topo);
  }
}

TEST_P(FacadeTopologyEquivalence, PagerankBitExact) {
  // kSumDouble is order-sensitive, so the multi-hop exchange forwards
  // per-source segments unmerged: the floating-point fold order -- and
  // therefore every rank, bit for bit -- must match flat exactly.
  sim::Cluster cluster(spec_);
  core::PagerankOptions options;
  options.max_iterations = 10;
  std::vector<std::vector<double>> all;
  for (const ExchangeTopology topo : kAllTopologies) {
    options.run.exchange_topology = topo;
    core::DistributedPagerank pr(dg_, cluster, options);
    all.push_back(pr.run().ranks);
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_EQ(all[i].size(), all[0].size());
    for (std::size_t v = 0; v < all[0].size(); ++v) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(all[i][v]),
                std::bit_cast<std::uint64_t>(all[0][v]))
          << "vertex " << v << " topology " << i;
    }
  }
}

TEST_P(FacadeTopologyEquivalence, SchedulerBitExact) {
  sim::Cluster cluster(spec_);
  core::SchedulerOptions options;
  options.width = 4;
  core::ArrivalTraceConfig trace_cfg;
  trace_cfg.queries = 8;
  trace_cfg.rate = 2.0;
  trace_cfg.seed = 17;
  const auto trace = core::make_arrival_trace(dg_, trace_cfg);
  std::vector<core::SchedulerOutcome> all;
  for (const ExchangeTopology topo : kAllTopologies) {
    options.run.exchange_topology = topo;
    core::QueryScheduler sched(dg_, cluster, options);
    all.push_back(sched.run(trace));
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_EQ(all[i].queries.size(), all[0].queries.size());
    for (std::size_t q = 0; q < all[0].queries.size(); ++q) {
      const auto& a = all[0].queries[q];
      const auto& b = all[i].queries[q];
      EXPECT_EQ(b.source, a.source) << "query " << q;
      EXPECT_EQ(b.admit_iteration, a.admit_iteration) << "query " << q;
      EXPECT_EQ(b.retire_iteration, a.retire_iteration) << "query " << q;
      EXPECT_EQ(b.lane, a.lane) << "query " << q;
      EXPECT_EQ(b.distances, a.distances) << "query " << q;
    }
    ASSERT_EQ(all[i].events.size(), all[0].events.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, FacadeTopologyEquivalence,
    ::testing::Values(FacadeCase{"rmat_n2", GraphFamily::kRmat, 2},
                      FacadeCase{"rmat_n4", GraphFamily::kRmat, 4},
                      FacadeCase{"rmat_n8", GraphFamily::kRmat, 8},
                      FacadeCase{"grid_n2", GraphFamily::kGrid, 2},
                      FacadeCase{"grid_n4", GraphFamily::kGrid, 4},
                      FacadeCase{"grid_n8", GraphFamily::kGrid, 8}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- soak tier: seed sweeps -----------------------------------------------
// Registered by CMake as test_exchange_topology_soak (--gtest_filter=*Soak*).

TEST(TopologySoak, CommLayerSeedSweep) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const TopologyCase tc :
         {TopologyCase{"", 2, 2, 1}, TopologyCase{"", 4, 2, 1},
          TopologyCase{"", 8, 2, 1}, TopologyCase{"", 4, 2, 2}}) {
      const sim::ClusterSpec spec =
          nodes_spec(tc.nodes, tc.gpus, tc.ranks_per_node);
      comm::ExchangeOptions options;
      options.combine = UpdateCombine::kMin;
      options.codec = seed % 2 == 0 ? WireCodec::kVarint : WireCodec::kRaw;
      auto flat = run_update_exchange(spec, options, nullptr,
                                      update_fill(seed));
      for (const ExchangeTopology topo :
           {ExchangeTopology::kHierarchical, ExchangeTopology::kButterfly}) {
        options.topology = topo;
        auto got =
            run_update_exchange(spec, options, nullptr, update_fill(seed));
        for (int g = 0; g < spec.total_gpus(); ++g) {
          ASSERT_EQ(fold_updates(flat[static_cast<std::size_t>(g)],
                                 options.combine),
                    fold_updates(got[static_cast<std::size_t>(g)],
                                 options.combine))
              << sim::to_string(topo) << " seed " << seed << " nodes "
              << tc.nodes << " gpu " << g;
        }
      }
    }
  }
}

TEST(TopologySoak, AlgorithmsSeedSweep) {
  for (std::uint64_t seed = 71; seed <= 74; ++seed) {
    const auto g = graph::rmat_graph500({.scale = 10, .seed = seed});
    const auto host = graph::build_host_csr(g);
    for (const int nodes : {2, 4, 8}) {
      const sim::ClusterSpec spec = nodes_spec(nodes, 2);
      const auto dg = graph::build_distributed(g, spec, 16);
      sim::Cluster cluster(spec);

      core::BfsOptions bfs_options;
      bfs_options.run.uniquify = true;
      const VertexId source =
          core::DistributedBfs(dg, cluster, bfs_options).sample_source(seed);
      const auto bfs_expected = baseline::serial_bfs(host, source);
      const auto sssp_expected = baseline::serial_sssp(host, source);
      const auto cc_expected = baseline::serial_components(host);

      for (const ExchangeTopology topo : kAllTopologies) {
        bfs_options.run.exchange_topology = topo;
        core::DistributedBfs bfs(dg, cluster, bfs_options);
        ASSERT_EQ(bfs.run(source).distances, bfs_expected)
            << sim::to_string(topo) << " seed " << seed << " nodes " << nodes;

        core::SsspOptions sssp_options;
        sssp_options.run.uniquify = true;
        sssp_options.run.exchange_topology = topo;
        sssp_options.run.codec = WireCodec::kVarint;
        core::DistributedSssp sssp(dg, cluster, sssp_options);
        ASSERT_EQ(sssp.run(source).distances, sssp_expected)
            << sim::to_string(topo) << " seed " << seed << " nodes " << nodes;

        core::CcOptions cc_options;
        cc_options.run.exchange_topology = topo;
        ASSERT_EQ(core::ConnectedComponents(dg, cluster, cc_options)
                      .run()
                      .labels,
                  cc_expected)
            << sim::to_string(topo) << " seed " << seed << " nodes " << nodes;
      }
    }
  }
}

}  // namespace
}  // namespace dsbfs
