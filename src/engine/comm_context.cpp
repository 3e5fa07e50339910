#include "engine/comm_context.hpp"

namespace dsbfs::engine {

namespace {

/// Copy one exchange's counters into the iteration row the perf model
/// replays.
void record_exchange(comm::ExchangeCounters& ec,
                     sim::GpuIterationCounters& iter) {
  iter.bin_vertices = ec.bin_vertices;
  iter.uniquify_vertices = ec.uniquify_vertices;
  iter.uniquify_bytes = ec.uniquify_bytes;
  iter.encode_bytes = ec.encode_bytes;
  iter.bins_compressed = ec.bins_compressed;
  iter.bins_uncompressed = ec.bins_raw;
  iter.send_bytes_remote = ec.send_bytes_remote;
  iter.recv_bytes_remote = ec.recv_bytes_remote;
  iter.send_dest_ranks = ec.send_dest_ranks;
  iter.local_all2all_bytes = ec.local_bytes;
  iter.retries = ec.retries;
  iter.corrupt_bins = ec.corrupt_bins;
  iter.recovery_ns = ec.recovery_ns;
  iter.checksum_bytes = ec.checksum_bytes;
  iter.hops = std::move(ec.hops);
}

}  // namespace

CommContext::CommContext(const sim::ClusterSpec& spec)
    : spec_(spec),
      transport_(spec),
      mask_reducer_(transport_, spec),
      value_reducer_(transport_, spec),
      everyone_(static_cast<std::size_t>(spec.total_gpus())) {
  for (int g = 0; g < spec.total_gpus(); ++g) {
    everyone_[static_cast<std::size_t>(g)] = g;
  }
}

std::uint64_t CommContext::control_allreduce(int gpu, std::uint64_t value,
                                             int iteration) {
  return comm::allreduce_sum(transport_, everyone_, gpu, value,
                             TagBlocks::control(iteration));
}

std::uint64_t CommContext::allreduce_sum(int gpu, std::uint64_t value,
                                         int tag) {
  return comm::allreduce_sum(transport_, everyone_, gpu, value, tag);
}

void CommContext::allreduce_min_words(int gpu, std::span<std::uint64_t> words,
                                      int tag) {
  comm::allreduce_min_words(transport_, everyone_, gpu, words, tag);
}

void CommContext::allreduce_or_words(int gpu, std::span<std::uint64_t> words,
                                     int tag) {
  comm::allreduce_or_words(transport_, everyone_, gpu, words, tag);
}

std::vector<LocalId> CommContext::exchange_ids(
    sim::GpuCoord me, std::vector<std::vector<LocalId>>& bins, int iteration,
    const comm::ExchangeOptions& options, sim::GpuIterationCounters& iter) {
  comm::ExchangeCounters ec;
  auto ids = comm::exchange_ids(transport_, spec_, me, bins, iteration,
                                options, ec);
  record_exchange(ec, iter);
  return ids;
}

std::vector<comm::VertexUpdate> CommContext::exchange_value_updates(
    sim::GpuCoord me, std::vector<std::vector<comm::VertexUpdate>>& bins,
    int iteration, const comm::UpdateExchangeOptions& options,
    sim::GpuIterationCounters& iter) {
  comm::ExchangeCounters ec;
  auto updates = comm::exchange_updates(transport_, spec_, me, bins,
                                        iteration, options, ec);
  record_exchange(ec, iter);
  return updates;
}

}  // namespace dsbfs::engine
