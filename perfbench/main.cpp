// End-to-end and per-layer benchmark of the distributed traversal facades.
//
//   perfbench --workload bfs-rmat|msbfs-w64|sssp-grid --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// One run: set the workload's graph up several times (setup_s is the
// median), run one untimed warm-up op, then time facade run() calls ("ops")
// in whole rounds over one seeded root set -- at least two rounds, and
// until S seconds have passed -- checking every op against the serial
// oracles in baseline/.  Stdout carries
// a header (nproc, cluster shape, sizes, seed, op counts), a metric table,
// and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a span
// recorder times every call into graph/core/sim/baseline, every other op
// runs untraced so the tracing overhead can be reported, and the metrics
// are the per-layer ones.  Spans are written to --trace-out at the end.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baseline/host_apps.hpp"
#include "baseline/serial_bfs.hpp"
#include "core/batch_bfs.hpp"
#include "core/bfs.hpp"
#include "core/delta_sssp.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/partition_stats.hpp"
#include "graph/rmat.hpp"
#include "sim/cluster.hpp"
#include "sim/perf_model.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace {

using namespace dsbfs;
using perfbench::SpanRecorder;
using Scope = SpanRecorder::Scope;

// Two simulated GPUs on two ranks: the inter-rank exchange and the delegate
// reduction both run, and the two stream threads per GPU fit a 4-core host.
constexpr const char* kShape = "2x1x1";
// Each simulated GPU runs a delegate and a normal stream thread; the
// per-GPU cluster thread only waits on them.
constexpr int kRunnableThreadsPerGpu = 2;

enum class Kind { kBfs, kBatchBfs, kDeltaSssp };

struct Workload {
  const char* name;
  Kind kind;
  int rmat_scale;     // Graph500 RMAT scale (edge factor 16); 0 for the grid
  int grid_side;      // grid rows = columns; 0 for RMAT
  int roots;          // ops per round, one per root (or per 64-root batch)
  int setup_repeats;  // setups per run; setup_s is their median
  int lanes;          // sources per op
  int lanes_checked;  // lanes checked against the oracle per first run
};

constexpr Workload kWorkloads[] = {
    {"bfs-rmat", Kind::kBfs, 18, 0, 256, 3, 1, 1},
    {"msbfs-w64", Kind::kBatchBfs, 16, 0, 100, 5, 64, 8},
    {"sssp-grid", Kind::kDeltaSssp, 0, 256, 100, 25, 1, 1},
};

// Every root runs at least this many times, and the measured phase ends at
// the first round boundary after --seconds.
constexpr int kMinRounds = 2;
// Traced bfs-rmat runs the serial BFS baseline on the traced ones among this
// many roots only: it is a reference floor, not a check (validate_distances
// checks every op).
constexpr int kSerialBaselineRoots = 32;

// sssp-grid: stored uniform weights in [1, 32], bucket width 16, and a
// threshold above the grid's maximum degree (4), so no delegates.
constexpr std::uint32_t kGridMaxWeight = 32;
constexpr std::uint64_t kGridDelta = 16;
constexpr std::uint32_t kGridThreshold = 8;

// Safety cap on the measured phase so a slow host still exits in time.
constexpr double kMaxMeasureSeconds = 90.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU time the hypervisor has taken from this VM, in clock ticks summed
/// over CPUs ("steal" on the cpu line of /proc/stat); 0 where unavailable.
std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ---- setup ------------------------------------------------------------------

struct Setup {
  graph::EdgeList edges;
  std::unique_ptr<sim::Cluster> cluster;
  graph::DistributedGraph graph;
};

/// Cluster + generate + threshold + build: what setup_s times.
Setup make_setup(const Workload& w, std::uint64_t seed, SpanRecorder& rec) {
  Scope setup_span(rec, "setup");
  Setup s;
  const sim::ClusterSpec spec = sim::ClusterSpec::parse(kShape);
  s.cluster = std::make_unique<sim::Cluster>(spec);
  {
    Scope span(rec, "graph.generate");
    if (w.kind == Kind::kDeltaSssp) {
      s.edges = graph::grid_graph(static_cast<std::uint64_t>(w.grid_side),
                                  static_cast<std::uint64_t>(w.grid_side));
      graph::assign_uniform_weights(s.edges, kGridMaxWeight, seed);
    } else {
      graph::RmatParams params;
      params.scale = w.rmat_scale;
      params.seed = seed;
      s.edges = graph::rmat_graph500(params);
    }
  }
  std::uint32_t threshold = kGridThreshold;
  {
    Scope span(rec, "graph.threshold");
    const graph::PartitionStatsSweeper sweeper(s.edges);
    if (w.kind != Kind::kDeltaSssp) {
      threshold = graph::suggest_threshold(sweeper, spec.total_gpus());
    } else if (sweeper.at(threshold).delegates != 0) {
      throw std::logic_error("grid threshold leaves delegates");
    }
  }
  {
    Scope span(rec, "graph.build");
    s.graph = graph::build_distributed(s.edges, spec, threshold, s.cluster.get());
  }
  return s;
}

// ---- ops --------------------------------------------------------------------

/// What one op reports; the counters are per op (summed over lanes and GPUs).
struct OpRecord {
  int root = 0;   // index into the round's root set
  int round = 0;  // 0 = first run of this root (checked by the oracle)
  bool traced = false;
  bool stolen = false;  // the host took CPU time from this VM during the op
  bool ok = true;
  std::string error;
  double wall_ms = 0;    // around the facade run() call
  double engine_ms = 0;  // the result's measured_ms
  int iterations = 0;
  int reduce_iterations = 0;
  std::uint64_t edges_traversed = 0;
  std::uint64_t teps_edges = 0;  // m/2 per source
  std::uint64_t exchange_bytes = 0;
  std::uint64_t reduce_bytes = 0;
  std::uint64_t uniquify_records = 0;
  std::uint64_t buckets = 0;
  std::uint64_t relaxations = 0;
  double modeled_ms = 0;
  double modeled_compute_ms = 0;
  double modeled_comm_ms = 0;  // local + exchange + delegate reduce
  double modeled_control_ms = 0;
};

void fail(OpRecord& op, std::string error) {
  if (op.ok) op.error = std::move(error);
  op.ok = false;
}

/// 64-bit digest of an answer, so repeated runs of a root can be checked
/// bit-exact against its first, oracle-checked answer without keeping it.
template <typename T>
std::uint64_t digest(std::span<const T> values, std::uint64_t h) {
  for (const T x : values) {
    h = (h ^ static_cast<std::uint64_t>(x)) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Runs ops of one workload and checks every one: the first run of each
/// root against the serial oracles, later runs bit-exact against the first
/// (by digest).  The checker's host CSR is built lazily, after peak RSS is
/// read, and only when an oracle needs it.
class OpRunner {
 public:
  OpRunner(const Workload& w, const Setup& s, std::uint64_t seed)
      : w_(w), s_(s), seed_(seed), root_base_(seed * 1000003ULL),
        digests_(static_cast<std::size_t>(w.roots), 0) {
    switch (w.kind) {
      case Kind::kBfs:
        bfs_ = std::make_unique<core::DistributedBfs>(s.graph, *s.cluster);
        break;
      case Kind::kBatchBfs:
        batch_ = std::make_unique<core::DistributedBatchBfs>(s.graph,
                                                             *s.cluster);
        break;
      case Kind::kDeltaSssp: {
        core::DeltaSsspOptions options;
        options.delta = kGridDelta;
        sssp_ = std::make_unique<core::DistributedDeltaSssp>(
            s.graph, *s.cluster, options);
        break;
      }
    }
  }

  /// One op on root set entry `root` (the warm-up passes root = -1: a root
  /// no measured op uses, and no check).  `exec` tags the op's spans.
  OpRecord run(int root, int round, std::int64_t exec, bool serial_baseline,
               SpanRecorder& rec) {
    OpRecord op;
    op.root = root;
    op.round = round;
    op.traced = rec.enabled();
    try {
      switch (w_.kind) {
        case Kind::kBfs: run_bfs(exec, serial_baseline, op, rec); break;
        case Kind::kBatchBfs: run_batch(exec, op, rec); break;
        case Kind::kDeltaSssp: run_sssp(exec, op, rec); break;
      }
    } catch (const std::exception& e) {
      fail(op, std::string("exception: ") + e.what());
    }
    return op;
  }

 private:
  /// Times one facade call and notes whether the host stole CPU time from
  /// this VM meanwhile.
  template <typename Call>
  static auto timed(OpRecord& op, Call&& call) {
    const std::uint64_t steal = steal_ticks();
    util::Timer t;
    auto result = call();
    op.wall_ms = t.elapsed_ms();
    op.stolen = steal_ticks() != steal;
    return result;
  }

  /// The warm-up's sources do not depend on the seed: the op keeps a
  /// per-iteration counter trace, so its source's eccentricity sets the
  /// peak RSS read after it (by ~25% on the grid).
  VertexId source(int root, int lane) const {
    const std::uint64_t index =
        root < 0 ? (std::uint64_t{1} << 40)
                 : root_base_ + static_cast<std::uint64_t>(root) *
                                    static_cast<std::uint64_t>(w_.lanes);
    return core::sample_traversal_source(
        s_.graph, index + static_cast<std::uint64_t>(lane));
  }

  const graph::WeightedHostCsr& host() {
    if (!host_) {
      host_ = std::make_unique<graph::WeightedHostCsr>(
          graph::build_weighted_host_csr(s_.edges));
    }
    return *host_;
  }

  /// Repeats of a root: bit-exact against the root's first answer.  Returns
  /// true when the op is a first run that the oracle must check.
  bool first_run_or_compare(OpRecord& op, std::uint64_t answer) {
    if (op.root < 0) return false;
    std::uint64_t& stored = digests_[static_cast<std::size_t>(op.root)];
    if (op.round == 0) {
      stored = answer;
      return true;
    }
    if (answer != stored) fail(op, "answer differs from the root's first run");
    return false;
  }

  /// Counter-trace fields common to every facade, plus the sim-layer check:
  /// replaying the op's counters must reproduce the facade's modeled time.
  void read_counters(const sim::RunCounters& counters,
                     const sim::ModeledBreakdown& modeled, OpRecord& op,
                     SpanRecorder& rec, std::int64_t exec) {
    op.modeled_compute_ms = modeled.computation_ms;
    op.modeled_comm_ms = modeled.local_comm_ms + modeled.normal_exchange_ms +
                         modeled.delegate_reduce_ms;
    op.modeled_control_ms = modeled.control_ms;
    for (const sim::IterationCounters& it : counters.iterations) {
      bool reduced = false;
      for (const sim::GpuIterationCounters& g : it.gpu) {
        op.edges_traversed += g.dd.edges + g.dn.edges + g.nd.edges + g.nn.edges;
        op.uniquify_records += g.uniquify_vertices;
        reduced |= g.delegate_update;
      }
      op.reduce_iterations += reduced ? 1 : 0;
    }
    const sim::PerfModel model;  // the facades' default device/net models
    sim::ModeledBreakdown replayed;
    {
      Scope span(rec, "sim.replay", exec);
      replayed = model.replay(counters);
    }
    if (replayed.elapsed_ms != op.modeled_ms) {
      fail(op, "replayed modeled time differs from the facade's");
    }
  }

  void read_run_metrics(const core::RunMetrics& m, std::uint64_t lanes,
                        OpRecord& op, SpanRecorder& rec, std::int64_t exec) {
    op.engine_ms = m.measured_ms;
    op.iterations = m.iterations;
    op.teps_edges = m.teps_edges * lanes;
    op.exchange_bytes = m.exchange_remote_bytes;
    op.reduce_bytes = m.mask_reduce_bytes;
    op.modeled_ms = m.modeled_ms;
    read_counters(m.counters, m.modeled, op, rec, exec);
  }

  void run_bfs(std::int64_t exec, bool serial_baseline, OpRecord& op,
               SpanRecorder& rec) {
    const VertexId src = source(op.root, 0);
    core::BfsResult r;
    {
      Scope span(rec, "core.run", exec);
      r = timed(op, [&] { return bfs_->run(src); });
    }
    read_run_metrics(r.metrics, 1, op, rec, exec);
    const std::span<const Depth> dist(r.distances);
    if (!first_run_or_compare(op, digest(dist, kDigestSeed))) return;
    {
      Scope span(rec, "baseline.validate", exec);
      const core::ValidationReport v =
          core::validate_distances(s_.edges, src, dist);
      if (!v.ok) fail(op, "validate_distances: " + v.error);
    }
    if (serial_baseline) {
      const graph::HostCsr& csr = host().csr;
      std::vector<Depth> serial;
      {
        Scope span(rec, "baseline.serial", exec);
        serial = baseline::serial_bfs(csr, src);
      }
      if (serial != r.distances) fail(op, "differs from serial_bfs");
    }
  }

  void run_batch(std::int64_t exec, OpRecord& op, SpanRecorder& rec) {
    std::vector<VertexId> sources(static_cast<std::size_t>(w_.lanes));
    for (int l = 0; l < w_.lanes; ++l) {
      sources[static_cast<std::size_t>(l)] = source(op.root, l);
    }
    core::BatchBfsResult r;
    {
      Scope span(rec, "core.run", exec);
      r = timed(op, [&] { return batch_->run(sources); });
    }
    read_run_metrics(r.metrics, sources.size(), op, rec, exec);
    std::uint64_t answer = kDigestSeed;
    for (const std::vector<Depth>& lane : r.distances) {
      answer = digest(std::span<const Depth>(lane), answer);
    }
    if (!first_run_or_compare(op, answer)) return;

    // A seeded lane subset per batch, checked bit-exact against serial BFS.
    std::vector<int> lanes(static_cast<std::size_t>(w_.lanes));
    std::iota(lanes.begin(), lanes.end(), 0);
    std::mt19937_64 rng(seed_ * 0x9e3779b97f4a7c15ULL +
                        static_cast<std::uint64_t>(op.root));
    std::shuffle(lanes.begin(), lanes.end(), rng);
    const graph::HostCsr& csr = host().csr;
    for (int i = 0; i < w_.lanes_checked; ++i) {
      const auto lane = static_cast<std::size_t>(lanes[static_cast<std::size_t>(i)]);
      std::vector<Depth> serial;
      {
        Scope span(rec, "baseline.serial", exec);
        serial = baseline::serial_bfs(csr, sources[lane]);
      }
      Scope span(rec, "baseline.validate", exec);
      const core::ValidationReport v =
          core::validate_against_reference(r.distances[lane], serial);
      if (!v.ok) fail(op, "lane " + std::to_string(lane) + ": " + v.error);
    }
  }

  void run_sssp(std::int64_t exec, OpRecord& op, SpanRecorder& rec) {
    const VertexId src = source(op.root, 0);
    core::DeltaSsspResult r;
    {
      Scope span(rec, "core.run", exec);
      r = timed(op, [&] { return sssp_->run(src); });
    }
    op.engine_ms = r.measured_ms;
    op.iterations = r.iterations;
    op.teps_edges = s_.graph.num_edges() / 2;
    op.exchange_bytes = r.update_bytes_remote;
    op.reduce_bytes = r.reduce_bytes;
    op.buckets = r.buckets_processed;
    op.relaxations = r.light_relaxations + r.heavy_relaxations;
    op.modeled_ms = r.modeled_ms;
    read_counters(r.counters, r.modeled, op, rec, exec);
    const std::span<const std::uint64_t> dist(r.distances);
    if (!first_run_or_compare(op, digest(dist, kDigestSeed))) return;

    const graph::WeightedHostCsr& h = host();
    std::vector<std::uint64_t> serial;
    {
      Scope span(rec, "baseline.serial", exec);
      serial = baseline::serial_delta_sssp(
          h.csr, std::span<const std::uint32_t>(h.weights), src, kGridDelta);
    }
    Scope span(rec, "baseline.validate", exec);
    if (serial != r.distances) fail(op, "differs from serial_delta_sssp");
  }

  const Workload& w_;
  const Setup& s_;
  std::uint64_t seed_;
  std::uint64_t root_base_;
  std::vector<std::uint64_t> digests_;  // per root, of its round-0 answer
  // Only the facade of the workload's kind exists.
  std::unique_ptr<core::DistributedBfs> bfs_;
  std::unique_ptr<core::DistributedBatchBfs> batch_;
  std::unique_ptr<core::DistributedDeltaSssp> sssp_;
  std::unique_ptr<graph::WeightedHostCsr> host_;
};

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_report(const std::vector<Metric>& metrics, int attempted,
                  int failed) {
  std::printf("%-34s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-34s %18.6f  fraction (%d failed / %d attempted)\n",
              "fail_frac",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  // Thread budget: refuse shapes whose runnable threads exceed the host.
  const int nproc = host_cpus();
  const sim::ClusterSpec spec = sim::ClusterSpec::parse(kShape);
  const int runnable = kRunnableThreadsPerGpu * spec.total_gpus();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# nproc=%d shape=%s simulated_gpus=%d ranks=%d "
              "runnable_threads=%d host_parallel_workers=%d\n",
              nproc, kShape, spec.total_gpus(), spec.num_ranks, runnable,
              nproc);
  if (runnable > nproc) {
    std::fprintf(stderr,
                 "perfbench: shape %s runs %d runnable threads but nproc is "
                 "%d; refusing to oversubscribe\n",
                 kShape, runnable, nproc);
    return 3;
  }
  util::set_parallel_worker_count(static_cast<std::size_t>(nproc));

  SpanRecorder rec;
  rec.set_enabled(args.trace);

  // setup_s is the median of several setups.  The ops use the first; the
  // others run after peak RSS is read, so that reads one setup plus one op
  // and not the allocator churn of the repeats.
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    util::Timer t;
    Setup s = make_setup(w, args.seed, rec);
    setup_s.push_back(t.elapsed_ms() / 1e3);
    return s;
  };
  const Setup setup = timed_setup();
  const graph::DistributedGraph& g = setup.graph;
  if (w.kind == Kind::kDeltaSssp) {
    std::printf("# graph: grid %dx%d weights=[1,%u] delta=%llu",
                w.grid_side, w.grid_side, kGridMaxWeight,
                static_cast<unsigned long long>(kGridDelta));
  } else {
    std::printf("# graph: rmat scale=%d edge_factor=16", w.rmat_scale);
  }
  std::printf(" vertices=%llu directed_edges=%llu threshold=%u delegates=%u\n",
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()), g.threshold(),
              g.num_delegates());
  std::printf("# ops: roots_per_round=%d min_rounds=%d lanes_per_op=%d "
              "lanes_checked_per_first_run=%d setup_repeats=%d\n",
              w.roots, kMinRounds, w.lanes, w.lanes_checked,
              w.setup_repeats);

  OpRunner runner(w, setup, args.seed);
  rec.set_enabled(false);
  const OpRecord warm_up = runner.run(-1, 0, -1, false, rec);  // untimed
  if (!warm_up.ok) {
    std::fprintf(stderr, "perfbench: warm-up op failed: %s\n",
                 warm_up.error.c_str());
  }
  // Peak RSS of the system under test: one setup plus one op, before any
  // checker-only structure exists.
  const double rss_mib = peak_rss_mib();
  rec.set_enabled(args.trace);
  for (int i = 1; i < w.setup_repeats; ++i) timed_setup();

  // Rounds over one fixed root set.  In a traced run every other op runs
  // untraced (alternating per round), which gives the tracing overhead.
  std::vector<OpRecord> ops;
  util::Timer phase;
  for (int round = 0;; ++round) {
    const double elapsed_s = phase.elapsed_ms() / 1e3;
    if (round >= kMinRounds && elapsed_s >= args.seconds) break;
    if (round > 0 && elapsed_s >= kMaxMeasureSeconds) break;
    for (int root = 0; root < w.roots; ++root) {
      const auto exec = static_cast<std::int64_t>(ops.size());
      rec.set_enabled(args.trace && (root + round) % 2 == 0);
      const bool serial_baseline = rec.enabled() && root < kSerialBaselineRoots;
      ops.push_back(runner.run(root, round, exec, serial_baseline, rec));
      if (!ops.back().ok) {
        std::fprintf(stderr, "perfbench: op %lld (root %d, round %d) failed: "
                     "%s\n", static_cast<long long>(exec), root, round,
                     ops.back().error.c_str());
      }
    }
  }
  rec.set_enabled(false);
  const int rounds = static_cast<int>(ops.size()) / w.roots;
  std::printf("# measured: %zu ops (%d rounds of %d roots) in %.3f s\n",
              ops.size(), rounds, w.roots, phase.elapsed_ms() / 1e3);

  const int attempted = static_cast<int>(ops.size());
  int failed = 0;
  for (const OpRecord& op : ops) failed += op.ok ? 0 : 1;

  // A root's time is the fastest of its runs across rounds that the host
  // stole no CPU time from (the fastest of all when every run was hit),
  // which filters host interference that hits one round; percentiles are
  // over roots.
  std::vector<double> best(static_cast<std::size_t>(w.roots), 0);
  std::vector<double> best_clean(static_cast<std::size_t>(w.roots), 0);
  int stolen = 0;
  for (const OpRecord& o : ops) {
    const auto r = static_cast<std::size_t>(o.root);
    if (o.round == 0 || o.wall_ms < best[r]) best[r] = o.wall_ms;
    if (o.stolen) {
      ++stolen;
    } else if (best_clean[r] == 0 || o.wall_ms < best_clean[r]) {
      best_clean[r] = o.wall_ms;
    }
  }
  std::printf("# host steal hit %d of %zu ops\n", stolen, ops.size());
  std::vector<double> root_ms;
  double edges = 0, wall_ms = 0, modeled_ms = 0;
  for (int r = 0; r < w.roots; ++r) {
    const OpRecord& first = ops[static_cast<std::size_t>(r)];
    const auto i = static_cast<std::size_t>(r);
    root_ms.push_back(best_clean[i] > 0 ? best_clean[i] : best[i]);
    // Paper §VI-A3: ops of at most one iteration are excluded from TEPS.
    if (first.iterations <= 1) continue;
    edges += static_cast<double>(first.teps_edges);
    wall_ms += root_ms.back();
    modeled_ms += first.modeled_ms;
  }

  // Count metrics come from round 0, so they repeat exactly for a seed.
  auto round0_mean = [&](auto member) {
    double sum = 0;
    for (int r = 0; r < w.roots; ++r) {
      sum += static_cast<double>(ops[static_cast<std::size_t>(r)].*member);
    }
    return sum / w.roots;
  };
  auto ops_median = [&](auto field) {
    std::vector<double> v;
    for (const OpRecord& o : ops) v.push_back(field(o));
    return median(std::move(v));
  };
  auto traced_p50 = [&](bool traced) {
    std::vector<double> v;
    for (const OpRecord& o : ops) {
      if (o.traced == traced) v.push_back(o.wall_ms);
    }
    return median(std::move(v));
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"run_ms_p50", percentile(root_ms, 0.5), "ms"},
        {"run_ms_p90", percentile(root_ms, 0.9), "ms"},
        {"measured_gteps", wall_ms > 0 ? edges / wall_ms / 1e6 : 0, "GTEPS"},
        {"modeled_gteps",
         modeled_ms > 0 ? edges / modeled_ms / 1e6 : 0, "GTEPS"},
        {"peak_rss_mb", rss_mib, "MiB"},
    };
  } else {
    auto span_median_ms = [&](const char* name) {
      return median(rec.durations_ms(name));
    };
    metrics = {
        {"graph.generate_s", span_median_ms("graph.generate") / 1e3, "s"},
        {"graph.threshold_s", span_median_ms("graph.threshold") / 1e3, "s"},
        {"graph.build_s", span_median_ms("graph.build") / 1e3, "s"},
        {"graph.subgraph_mb",
         static_cast<double>(g.total_subgraph_bytes()) / (1024.0 * 1024.0),
         "MiB"},
        {"graph.delegates", static_cast<double>(g.num_delegates()), "count"},
        {"core.engine_ms",
         ops_median([](const OpRecord& o) { return o.engine_ms; }), "ms"},
        {"core.assemble_ms",
         ops_median([](const OpRecord& o) { return o.wall_ms - o.engine_ms; }),
         "ms"},
        {"core.iterations", round0_mean(&OpRecord::iterations), "count"},
        {"core.edges_traversed", round0_mean(&OpRecord::edges_traversed),
         "count"},
        {"core.delegate_reduce_iterations",
         round0_mean(&OpRecord::reduce_iterations), "count"},
        {"core.buckets", round0_mean(&OpRecord::buckets), "count"},
        {"core.relaxations", round0_mean(&OpRecord::relaxations), "count"},
        {"engine.us_per_iteration",
         ops_median([](const OpRecord& o) {
           return o.iterations > 0 ? 1e3 * o.engine_ms / o.iterations : 0.0;
         }),
         "us"},
        {"comm.exchange_bytes", round0_mean(&OpRecord::exchange_bytes), "B"},
        {"comm.reduce_bytes", round0_mean(&OpRecord::reduce_bytes), "B"},
        {"comm.uniquify_records", round0_mean(&OpRecord::uniquify_records),
         "count"},
        {"sim.replay_ms", span_median_ms("sim.replay"), "ms"},
        {"sim.modeled_compute_ms", round0_mean(&OpRecord::modeled_compute_ms),
         "ms"},
        {"sim.modeled_comm_ms", round0_mean(&OpRecord::modeled_comm_ms), "ms"},
        {"sim.modeled_control_ms", round0_mean(&OpRecord::modeled_control_ms),
         "ms"},
        {"baseline.serial_ms", span_median_ms("baseline.serial"), "ms"},
        {"baseline.validate_ms", span_median_ms("baseline.validate"), "ms"},
        {"trace.overhead_ms", traced_p50(true) - traced_p50(false), "ms"},
    };
    if (!args.trace_out.empty()) {
      if (!rec.write_chrome_json(args.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("# spans written to %s\n", args.trace_out.c_str());
    }
  }
  print_report(metrics, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bfs-rmat|msbfs-w64|sssp-grid "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
