#pragma once

#include <cstdint>

#include "comm/exchange.hpp"
#include "core/frontier.hpp"
#include "core/previsit.hpp"
#include "core/visit.hpp"
#include "engine/iterative_engine.hpp"

/// The BFS pipeline (paper Fig. 3) as engine hooks over a LaneState: the
/// previsit forms the queues, visit enqueues the four kernels on the
/// engine's two streams and counts the bins, the engine enqueues the
/// exchange behind them on the normal stream, contribution joins the
/// delegate stream for the control word, and the post-control mask
/// reduction overlaps the exchange still running on the normal stream.
///
/// The BFS facades' algorithm and the serving scheduler's derive from it
/// and add seeding, termination and result hooks.  `S` is LaneState or
/// derives from it.
namespace dsbfs::core {

template <class S>
class LanePipeline {
 public:
  using State = S;

  /// `local_all2all` is the L option of the nn exchange at every width;
  /// the run's wire policy (merge, codec, routing) comes with the engine's
  /// CommContext.
  explicit LanePipeline(bool local_all2all) : local_all2all_(local_all2all) {}

  std::uint64_t state_bytes(const engine::GpuContext&, const State& s) const {
    return s.device_bytes();
  }

  // The kernels run at the state's lane width, dispatched once per hook.

  void previsit(engine::GpuContext&, State& s, int) {
    s.begin_iteration();
    delegate_previsit_lanes(s);
    with_lane_width(s.lane_bits(), [&s](auto w) {
      normal_previsit_lanes<decltype(w)::value>(s);
    });
  }

  /// dd then dn on the delegate stream, nd then nn on the normal stream,
  /// then `bins_ready`, ahead of the exchange hook the engine enqueues
  /// behind them.
  void visit(engine::GpuContext& ctx, State& s, int) {
    with_lane_width(s.lane_bits(), [&](auto w) {
      constexpr int W = decltype(w)::value;
      ctx.delegate_stream.enqueue([&s] { visit_dd_lanes<W>(s); });
      ctx.delegate_stream.enqueue([&s] { visit_dn_lanes<W>(s); });
      ctx.normal_stream.enqueue([&s] { visit_nd_lanes<W>(s); });
      ctx.normal_stream.enqueue([&s] { visit_nn_lanes<W>(s); });
    });
    s.bins_ready = ctx.normal_stream.record([] {});
  }

  /// The nn exchange (Section V-B), on the normal stream behind the visits.
  /// At W = 1 the bins ship as bare 4-byte ids; wider lanes ship as (id,
  /// W/8-byte lane word) records.  Both merge by OR (for ids, the
  /// uniquify).  The arrivals land in `id_received` / `received` for the
  /// next normal previsit, and the consumed receive buffer becomes the next
  /// round's loopback bin.
  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    const comm::ExchangeOptions records{
        .combine = comm::UpdateCombine::kOr,
        .value_bytes = s.lane_bits() / 8,
        .local_all2all = local_all2all_};
    if (s.lane_bits() == 1) {
      engine::adopt_received(
          s.id_bins, ctx.gpu, s.id_received,
          ctx.comm.exchange(ctx.me, s.id_bins, iteration, records, s.iter));
    } else {
      engine::adopt_received(
          s.bins, ctx.gpu, s.received,
          ctx.comm.exchange(ctx.me, s.bins, iteration, records, s.iter));
    }
  }

  /// Joins the delegate stream and the nn visit -- the exchange keeps
  /// running on the normal stream through the control allreduce -- and
  /// returns this GPU's control word: kDelegateFlagUnit when the dd or nd
  /// visit produced delegate updates, plus the new normal work (dn claims
  /// and binned records).
  std::uint64_t contribution(engine::GpuContext& ctx, State& s, int) {
    ctx.delegate_stream.synchronize();
    s.bins_ready.wait();
    return (s.has_delegate_updates() ? kDelegateFlagUnit : 0) +
           static_cast<std::uint64_t>(s.next_local.size()) + s.bins_total;
  }

  void post_reduce(engine::GpuContext& ctx, State& s, int iteration,
                   std::uint64_t control) {
    s.reduce_delegate_updates(ctx.comm.value_reducer(), ctx.me, iteration,
                              control >= kDelegateFlagUnit);
  }

 protected:
  /// The common head of end_iteration: waits for the exchange, closes the
  /// iteration, lets the direction controller observe it and advances the
  /// depth.
  static void close_iteration(engine::GpuContext& ctx, State& s) {
    ctx.normal_stream.synchronize();  // exchange complete; arrivals filled
    s.end_iteration();
    if (s.direction_optimized && s.adaptive_direction) {
      // Fold this iteration's realized kernel rates into the controller
      // before the next previsit re-derives the factors from them.
      s.controller.observe(s.iter);
    }
    s.depth += 1;
  }

 private:
  bool local_all2all_;
};

}  // namespace dsbfs::core
