// Ablation of a Section V-A design decision: the delegate mask reduction is
// *two-phase* (NVLink gather to GPU0, tree allreduce among rank leaders,
// NVLink broadcast) rather than a flat tree over all p GPUs.  This bench
// measures actual cross-rank traffic for both schemes on the in-process
// transport and models the time difference.  The two-phase runs also check
// the reduction itself: every GPU must end with the union of all GPUs'
// masks, or the bench exits 1.
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "comm/collectives.hpp"
#include "comm/mask_reduce.hpp"
#include "comm/transport.hpp"
#include "sim/net_model.hpp"
#include "util/bitset.hpp"
#include "util/table.hpp"

namespace {

using namespace dsbfs;

struct TwoPhaseRun {
  std::uint64_t cross_rank_bytes = 0;
  bool union_everywhere = true;  // every GPU holds the OR of all inputs
};

TwoPhaseRun run_two_phase(sim::ClusterSpec spec, std::size_t bits) {
  comm::Transport t(spec);
  comm::ValueReducer reducer(t, spec);
  const int p = spec.total_gpus();
  // GPU g sets bit g and bit bits-1-g, so the union spans the first and the
  // last word of the mask.
  std::vector<util::LaneBitset> masks(static_cast<std::size_t>(p));
  util::LaneBitset expected(bits);
  for (int g = 0; g < p; ++g) {
    util::LaneBitset& mask = masks[static_cast<std::size_t>(g)];
    mask.resize(bits);
    for (const std::size_t i : {static_cast<std::size_t>(g),
                                bits - 1 - static_cast<std::size_t>(g)}) {
      mask.set(i);
      expected.set(i);
    }
  }
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      reducer.reduce(spec.coord_of(g),
                     masks[static_cast<std::size_t>(g)].words(),
                     comm::ValueReducer::Op::kOr, 0);
    });
  }
  for (auto& th : threads) th.join();
  TwoPhaseRun run{.cross_rank_bytes = t.bytes_cross_rank()};
  for (int g = 0; g < p; ++g) {
    if (masks[static_cast<std::size_t>(g)] == expected) continue;
    std::cerr << "two-phase reduce on " << spec.to_string() << ": gpu " << g
              << " does not hold the union of the inputs\n";
    run.union_everywhere = false;
  }
  return run;
}

std::uint64_t run_flat(sim::ClusterSpec spec, std::size_t bits) {
  // Topology-oblivious flat tree: participants ordered column-major (GPU
  // index major, rank minor), the placement an MPI_Allreduce over all GPU
  // endpoints would see with no locality knowledge -- adjacent tree nodes
  // land on different ranks, so the bottom tree levels cross the network.
  comm::Transport t(spec);
  const int p = spec.total_gpus();
  std::vector<int> everyone;
  everyone.reserve(static_cast<std::size_t>(p));
  for (int lg = 0; lg < spec.gpus_per_rank; ++lg) {
    for (int r = 0; r < spec.num_ranks; ++r) {
      everyone.push_back(spec.global_gpu(sim::GpuCoord{r, lg}));
    }
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      std::vector<std::uint64_t> words((bits + 63) / 64, 0);
      words[0] = 1ULL << (i % 64);
      comm::allreduce_or_words(t, everyone, i, words, comm::kTagUser);
    });
  }
  for (auto& th : threads) th.join();
  return t.bytes_cross_rank();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsbfs;
  util::Cli cli(argc, argv);
  const std::int64_t mask_kb =
      cli.get_int("mask_kb", 512, "delegate mask size in KB");
  if (cli.help_requested()) {
    cli.print_help("Ablation: two-phase vs flat delegate mask reduction");
    return 0;
  }
  bench::print_banner("Ablation -- two-phase vs flat mask reduction",
                      "Section V-A design choice: NVLink-local phase first");

  const std::size_t bits = static_cast<std::size_t>(mask_kb) * 1024 * 8;
  const sim::NetModel net;

  util::Table table({"cluster", "two_phase_cross_rank", "flat_cross_rank",
                     "traffic_ratio", "two_phase_modeled_us",
                     "flat_modeled_us"});
  bool all_reduced = true;
  for (const std::string shape : {"2x2x2", "4x2x2", "8x2x2", "4x1x4", "8x1x4"}) {
    const sim::ClusterSpec spec = sim::ClusterSpec::parse(shape);
    const TwoPhaseRun run = run_two_phase(spec, bits);
    all_reduced = all_reduced && run.union_everywhere;
    const std::uint64_t two_phase = run.cross_rank_bytes;
    const std::uint64_t flat = run_flat(spec, bits);
    // Model: two-phase = NVLink gather+bcast + leader tree; flat = tree over
    // all p GPUs whose messages mostly cross ranks (and still stage through
    // the NVLink + NIC path), plus every round handled by one NIC pair.
    const std::uint64_t mask_bytes = bits / 8;
    const double two_phase_us =
        2.0 * net.nvlink_us(mask_bytes) +
        net.allreduce_us(mask_bytes, spec.num_ranks);
    const double flat_us = net.allreduce_us(mask_bytes, spec.total_gpus());
    table.row()
        .add(shape)
        .add(two_phase)
        .add(flat)
        .add(static_cast<double>(flat) / static_cast<double>(two_phase), 2)
        .add(two_phase_us, 1)
        .add(flat_us, 1);
  }
  table.print(std::cout);
  std::cout << "\nReading: the local phase soaks up the pgpu-1 within-rank"
            << "\ncontributions over NVLink, so the flat tree pushes more"
            << "\nbytes across the network and pays more tree rounds on the"
            << "\nNIC -- the reason Section V-A reduces hierarchically.\n";
  return all_reduced ? 0 : 1;
}
