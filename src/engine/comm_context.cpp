#include "engine/comm_context.hpp"

namespace dsbfs::engine {

void CommContext::record_exchange(comm::ExchangeCounters& ec,
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

CommContext::CommContext(const sim::ClusterSpec& spec, const RunOptions& run)
    : spec_(spec),
      transport_(spec),
      value_reducer_(transport_, spec),
      everyone_(static_cast<std::size_t>(spec.total_gpus())),
      merge_(run.uniquify),
      wire_{.codec = run.codec,
            .topology = run.exchange_topology,
            .retry = run.resilience.retry} {
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

comm::ExchangeOptions CommContext::on_wire(
    comm::ExchangeOptions records) const {
  if (!merge_) records.combine = comm::UpdateCombine::kNone;
  records.codec = wire_.codec;
  records.topology = wire_.topology;
  records.retry = wire_.retry;
  return records;
}

}  // namespace dsbfs::engine
