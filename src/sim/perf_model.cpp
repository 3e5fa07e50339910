#include "sim/perf_model.hpp"

#include <algorithm>
#include <string>

#include "sim/timeline.hpp"

namespace dsbfs::sim {

namespace {

KernelClass forward_class_for(bool merge_based) {
  return merge_based ? KernelClass::kForwardMerge : KernelClass::kForwardDynamic;
}

double visit_us(const DeviceModel& dev, const KernelCounters& k, bool merge_based) {
  if (!k.launched) return 0.0;
  const KernelClass cls =
      k.backward ? KernelClass::kBackwardPull : forward_class_for(merge_based);
  return dev.kernel_us(cls, k.edges, k.vertices, 0);
}

}  // namespace

ModeledBreakdown PerfModel::replay(const RunCounters& run) const {
  const ClusterSpec& spec = run.spec;
  const int p = spec.total_gpus();
  Timeline tl;

  // Resources: per-GPU compute engine, per-GPU NVLink links, per-rank NIC.
  // The NVLink fabric is multi-link: the delegate stream's outbound mask
  // push and the normal stream's outbound exchange gathering ride distinct
  // links (which is what lets the Fig. 4 pipeline overlap them), so the
  // normal stream's staging gets its own serially-used port resource.
  std::vector<ResourceId> gpu_res, nvlink_res, nvstage_res, nic_res, ir_res;
  gpu_res.reserve(static_cast<std::size_t>(p));
  nvlink_res.reserve(static_cast<std::size_t>(p));
  nvstage_res.reserve(static_cast<std::size_t>(p));
  for (int g = 0; g < p; ++g) {
    gpu_res.push_back(tl.add_resource("gpu" + std::to_string(g)));
    nvlink_res.push_back(tl.add_resource("nvlink" + std::to_string(g)));
    nvstage_res.push_back(tl.add_resource("nvstage" + std::to_string(g)));
  }
  for (int r = 0; r < spec.num_ranks; ++r) {
    nic_res.push_back(tl.add_resource("nic" + std::to_string(r)));
    // Non-blocking reductions don't hold the NIC; they serialize only with
    // themselves (per rank), which this virtual resource expresses.
    ir_res.push_back(tl.add_resource("ir" + std::to_string(r)));
  }

  // Carried dependencies from the previous iteration.
  std::vector<TaskId> prev_mask_bcast(static_cast<std::size_t>(p));  // gates DPrev
  std::vector<TaskId> prev_recv_done(static_cast<std::size_t>(p));   // gates NPrev
  std::vector<TaskId> prev_dn_visit(static_cast<std::size_t>(p));    // local discoveries

  // Per-iteration boundary gates (every GPU's iter/mask gate), queried after
  // scheduling for the iteration-end timestamps.
  std::vector<std::vector<TaskId>> boundary_gates(run.iterations.size());

  const double mask_bytes = static_cast<double>(run.delegate_mask_bytes);

  // Per-hop link occupancy accumulated across iterations (multi-hop
  // topologies only; stays empty for flat runs).
  std::vector<ModeledBreakdown::HopLoad> hop_load;

  for (std::size_t it = 0; it < run.iterations.size(); ++it) {
    const IterationCounters& ic = run.iterations[it];
    std::vector<TaskId> bin_done(static_cast<std::size_t>(p));
    std::vector<TaskId> send_done(static_cast<std::size_t>(p));
    std::vector<TaskId> mask_push(static_cast<std::size_t>(p));
    std::vector<TaskId> dn_visit(static_cast<std::size_t>(p));
    std::vector<TaskId> nprev(static_cast<std::size_t>(p));
    std::vector<TaskId> mask_ready(static_cast<std::size_t>(p));
    std::vector<TaskId> recv_done(static_cast<std::size_t>(p));

    const bool any_delegate_update = std::any_of(
        ic.gpu.begin(), ic.gpu.end(),
        [](const GpuIterationCounters& g) { return g.delegate_update; });

    // ---- Bucket/phase agreement (delta-stepping previsits). -------------
    // Bucketed rounds open with a cluster-wide allreduce (next-bucket min or
    // light-work sum) that no previsit can run before: one small collective
    // at the latency of the control tree, gating every GPU's iteration
    // start.  This is the per-round coordination tax the delta ablation
    // trades against smaller frontiers.
    TaskId bucket_sync{};
    if (std::any_of(ic.gpu.begin(), ic.gpu.end(),
                    [](const GpuIterationCounters& g) {
                      return g.bucket_coordination;
                    })) {
      std::vector<TaskId> deps;
      for (int g = 0; g < p; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        if (prev_mask_bcast[gi].valid()) deps.push_back(prev_mask_bcast[gi]);
        if (prev_recv_done[gi].valid()) deps.push_back(prev_recv_done[gi]);
      }
      const double sync_us =
          static_cast<double>(NetModel::tree_rounds(spec.num_ranks)) *
          net_.config().nic_latency_us;
      bucket_sync =
          tl.add_task("bucket_sync", kCatControl, sync_us, ResourceId{}, deps);
    }

    // ---- Local computation (Fig. 3): two streams per GPU. -------------
    for (int g = 0; g < p; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      const GpuIterationCounters& c = ic.gpu[gi];
      const ResourceId gr = gpu_res[gi];

      // Direction-optimized previsits launch two extra workload-estimation
      // kernels each (FV reduction + BV pool check).  The FV sum itself is
      // fused row-length reading, so the charge is the fixed launch cost,
      // not per-vertex work -- negligible on dense cores, but the dominant
      // overhead when frontiers are tiny and iterations many, which is
      // exactly the Section VI-D long-tail effect.  The BFS lane previsits
      // fuse the estimates into the queue scan they run anyway
      // (direction_decisions_fused): no extra launches to charge.
      const double decision_us =
          c.direction_decisions && !c.direction_decisions_fused
              ? 2.0 * dev_.kernel_us(KernelClass::kPrevisit, 0, 0, 0)
              : 0.0;

      // Resilience work gates the whole iteration on this GPU: an injected
      // transient stall holds the device, and an epoch checkpoint is a
      // device-memory copy (mask-op rate) that must finish before the
      // iteration's kernels overwrite the state being saved.
      TaskId resilience{};
      if (c.stall_ns > 0 || c.checkpoint_bytes > 0) {
        std::vector<TaskId> rdeps;
        if (prev_mask_bcast[gi].valid()) rdeps.push_back(prev_mask_bcast[gi]);
        if (prev_recv_done[gi].valid()) rdeps.push_back(prev_recv_done[gi]);
        if (bucket_sync.valid()) rdeps.push_back(bucket_sync);
        const double res_us =
            static_cast<double>(c.stall_ns) / 1000.0 +
            dev_.kernel_us(KernelClass::kMaskOp, 0, 0, c.checkpoint_bytes);
        resilience = tl.add_task("resilience", kCatComputation, res_us, gr,
                                 rdeps);
      }

      // Lane reseeds (the serving scheduler recycling a retired lane into a
      // new query) are mask sweeps fused into the two previsit launches the
      // iteration pays anyway: each stream clears its own lane words under
      // its existing dependencies.  The bytes therefore ride on dprev/nprev
      // at the mask rate -- no extra kernel launch per admission, and no
      // cross-stream gate that would serialize the delegate stream behind
      // the previous iteration's normal-side exchange (which is exactly the
      // overlap the schedule exists to preserve).  Zero on non-serving runs.
      const double reseed_us = static_cast<double>(c.reseed_bytes) *
                               dev_.config().ns_per_byte / 1000.0;

      std::vector<TaskId> dprev_deps;
      if (prev_mask_bcast[gi].valid()) dprev_deps.push_back(prev_mask_bcast[gi]);
      if (bucket_sync.valid()) dprev_deps.push_back(bucket_sync);
      if (resilience.valid()) dprev_deps.push_back(resilience);
      const TaskId dprev = tl.add_task(
          "dprev", kCatComputation,
          dev_.kernel_us(KernelClass::kPrevisit, 0, c.dprev_vertices, 0) +
              decision_us + reseed_us,
          gr, dprev_deps);

      std::vector<TaskId> nprev_deps;
      if (prev_recv_done[gi].valid()) nprev_deps.push_back(prev_recv_done[gi]);
      if (prev_dn_visit[gi].valid()) nprev_deps.push_back(prev_dn_visit[gi]);
      if (bucket_sync.valid()) nprev_deps.push_back(bucket_sync);
      if (resilience.valid()) nprev_deps.push_back(resilience);
      nprev[gi] = tl.add_task(
          "nprev", kCatComputation,
          dev_.kernel_us(KernelClass::kPrevisit, 0, c.nprev_vertices, 0) +
              decision_us + reseed_us,
          gr, nprev_deps);

      // Delegate stream: dprev -> dd visit -> dn visit.
      const TaskId ddv = tl.add_task("dd_visit", kCatComputation,
                                     visit_us(dev_, c.dd, /*merge_based=*/true),
                                     gr, {dprev});
      // dn visit also waits on nprev: in both directions it tests the
      // normal visited state that nprev settles (docs/ARCHITECTURE.md,
      // "Iteration/level semantics").
      dn_visit[gi] = tl.add_task("dn_visit", kCatComputation,
                                 visit_us(dev_, c.dn, /*merge_based=*/false), gr,
                                 {ddv, nprev[gi]});

      // Normal stream: nprev -> nd visit -> nn visit.
      const TaskId ndv = tl.add_task("nd_visit", kCatComputation,
                                     visit_us(dev_, c.nd, /*merge_based=*/false),
                                     gr, {nprev[gi]});
      const TaskId nnv = tl.add_task("nn_visit", kCatComputation,
                                     visit_us(dev_, c.nn, /*merge_based=*/false),
                                     gr, {ndv});

      // Bin + 64->32 conversion of nn outputs (on-GPU computation).  This
      // still prices the paper's 8-byte global nn columns; the host stores
      // 4-byte ghost ids and bins from the ghost table, which the device
      // model does not credit, so modeled times stay the paper's.
      bin_done[gi] = tl.add_task(
          "bin_convert", kCatComputation,
          dev_.kernel_us(KernelClass::kBinConvert, 0, c.bin_vertices,
                         c.bin_vertices * 8),
          gr, {nnv});

      // Delegate mask push to GPU0 of the rank (local phase of reduction).
      if (any_delegate_update) {
        const TaskId after_visits = tl.add_task(
            "mask_finalize", kCatComputation,
            dev_.kernel_us(KernelClass::kMaskOp, 0, 0, run.delegate_mask_bytes),
            gr, {dn_visit[gi], ndv});
        if (spec.coord_of(g).gpu != 0) {
          mask_push[gi] =
              tl.add_task("mask_push", kCatLocalComm,
                          net_.nvlink_us(static_cast<std::uint64_t>(mask_bytes)),
                          nvlink_res[gi], {after_visits});
        } else {
          mask_push[gi] = after_visits;
        }
      }
    }

    // ---- Delegate mask reduction (Fig. 4, delegate stream). ------------
    std::vector<TaskId> rank_reduce(static_cast<std::size_t>(spec.num_ranks));
    if (any_delegate_update) {
      for (int r = 0; r < spec.num_ranks; ++r) {
        std::vector<TaskId> deps;
        for (int lg = 0; lg < spec.gpus_per_rank; ++lg) {
          deps.push_back(mask_push[static_cast<std::size_t>(
              spec.global_gpu(GpuCoord{r, lg}))]);
        }
        // GPU0 ORs pgpu masks in parallel (on-GPU word operations).
        const int gpu0 = spec.global_gpu(GpuCoord{r, 0});
        rank_reduce[static_cast<std::size_t>(r)] = tl.add_task(
            "local_reduce", kCatLocalComm,
            dev_.kernel_us(KernelClass::kMaskOp, 0, 0,
                           run.delegate_mask_bytes *
                               static_cast<std::uint64_t>(spec.gpus_per_rank)),
            gpu_res[static_cast<std::size_t>(gpu0)], deps);
      }
      // Global reduction across ranks: one task per rank so a blocking
      // Allreduce occupies the rank's NIC (serializing against the normal
      // exchange), while Iallreduce leaves the NIC free to overlap.
      const double reduce_us =
          run.blocking_reduce
              ? net_.allreduce_us(run.delegate_mask_bytes, spec.num_ranks)
              : net_.iallreduce_us(run.delegate_mask_bytes, spec.num_ranks);
      std::vector<TaskId> all_reduces = rank_reduce;
      for (int r = 0; r < spec.num_ranks; ++r) {
        const TaskId gr_task = tl.add_task(
            "global_reduce", kCatDelegateReduce, reduce_us,
            run.blocking_reduce ? nic_res[static_cast<std::size_t>(r)]
                                : ir_res[static_cast<std::size_t>(r)],
            all_reduces);
        for (int lg = 0; lg < spec.gpus_per_rank; ++lg) {
          const int g = spec.global_gpu(GpuCoord{r, lg});
          mask_ready[static_cast<std::size_t>(g)] = tl.add_task(
              "mask_bcast", kCatLocalComm,
              net_.nvlink_us(run.delegate_mask_bytes),
              nvlink_res[static_cast<std::size_t>(g)], {gr_task});
        }
      }
    }

    // ---- Normal vertex exchange (Fig. 4, normal stream). ---------------
    // Flat runs replay the historic single-level pattern below; multi-hop
    // (hierarchical/butterfly) runs carry per-hop traces instead, replayed
    // bulk-synchronously after the per-GPU preludes.
    const bool hop_mode =
        std::any_of(ic.gpu.begin(), ic.gpu.end(),
                    [](const GpuIterationCounters& g) {
                      return !g.hops.empty();
                    });
    std::vector<TaskId> exchange_stage(static_cast<std::size_t>(p));
    for (int g = 0; g < p; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      const GpuIterationCounters& c = ic.gpu[gi];
      TaskId stage = bin_done[gi];

      // Sequential schedule: without the two-stream overlap, the exchange
      // cannot start until this GPU has its reduced delegate values back.
      if (!run.overlap_comm && mask_ready[gi].valid()) {
        stage = tl.add_task("comm_serialize", kCatNormalExchange, 0.0,
                            ResourceId{}, {bin_done[gi], mask_ready[gi]});
      }

      // With a hop trace, intra-node bytes are charged per hop below; the
      // flat local-all2all staging charge would double-count them.
      if (c.local_all2all_bytes > 0 && !hop_mode) {
        stage = tl.add_task("local_all2all", kCatLocalComm,
                            net_.nvlink_us(c.local_all2all_bytes),
                            nvstage_res[gi], {stage});
      }
      if (c.uniquify_vertices > 0) {
        // Byte volume differs by record width: 4 B ids vs 12 B updates.
        const std::uint64_t bytes = c.uniquify_bytes > 0
                                        ? c.uniquify_bytes
                                        : c.uniquify_vertices * 4;
        stage = tl.add_task(
            "uniquify", kCatComputation,
            dev_.kernel_us(KernelClass::kUniquify, 0, c.uniquify_vertices,
                           bytes),
            gpu_res[gi], {stage});
      }
      if (c.encode_bytes > 0) {
        // Trial encodings of the update payload (one linear byte pass
        // on-GPU per encoder run).
        stage = tl.add_task(
            "encode", kCatComputation,
            dev_.kernel_us(KernelClass::kBinConvert, 0, 0, c.encode_bytes),
            gpu_res[gi], {stage});
      }
      if (c.checksum_bytes > 0) {
        // Hardened-wire checksums: linear byte passes over outbound frames
        // before the send and every inbound frame on verification.
        stage = tl.add_task(
            "checksum", kCatComputation,
            dev_.kernel_us(KernelClass::kBinConvert, 0, 0, c.checksum_bytes),
            gpu_res[gi], {stage});
      }
      if (hop_mode) {
        // Multi-hop topologies replay the send/receive wire below, hop by
        // hop; the prelude (serialize/uniquify/encode/checksum) still gates
        // the first hop's sends.
        exchange_stage[gi] = stage;
        send_done[gi] = stage;
      } else if (c.send_bytes_remote > 0) {
        const int dests = std::max(1, c.send_dest_ranks);
        const std::uint64_t per_dest = c.send_bytes_remote /
                                       static_cast<std::uint64_t>(dests);
        double send_us = 0;
        for (int d = 0; d < dests; ++d) send_us += net_.p2p_us(per_dest);
        send_done[gi] = tl.add_task(
            "remote_send", kCatNormalExchange, send_us,
            nic_res[static_cast<std::size_t>(spec.coord_of(g).rank)], {stage});
      } else {
        send_done[gi] = stage;
      }
    }

    if (hop_mode) {
      // ---- Hop-by-hop replay (hierarchical / butterfly). ----------------
      // Each hop is bulk-synchronous: every GPU puts its hop-h messages on
      // the wire (NVLink staging port intra-node, the rank's NIC inter-node,
      // link-count contention via NetModel::hop_us), a barrier joins the
      // wave, then inbound bytes stage across each GPU's NVLink into device
      // memory before the next hop's sends may depart (a forwarder cannot
      // re-bin what it has not received).
      std::size_t num_hops = 0;
      for (const GpuIterationCounters& c : ic.gpu) {
        num_hops = std::max(num_hops, c.hops.size());
      }
      if (hop_load.size() < num_hops) hop_load.resize(num_hops);
      std::vector<TaskId> chain = exchange_stage;
      TaskId hop_barrier{};
      for (std::size_t h = 0; h < num_hops; ++h) {
        std::vector<TaskId> sends;
        sends.reserve(static_cast<std::size_t>(p));
        for (int g = 0; g < p; ++g) {
          const auto gi = static_cast<std::size_t>(g);
          const GpuIterationCounters& c = ic.gpu[gi];
          if (h >= c.hops.size()) continue;
          const HopCounters& hc = c.hops[h];
          std::vector<TaskId> deps{chain[gi]};
          if (hop_barrier.valid()) deps.push_back(hop_barrier);
          const double send_us = net_.hop_us(hc.send_bytes, hc.internode,
                                             std::max(1, hc.partners));
          const TaskId send = tl.add_task(
              hc.internode ? "hop_send_ib" : "hop_send_nvlink",
              hc.internode ? kCatNormalExchange : kCatLocalComm, send_us,
              hc.internode
                  ? nic_res[static_cast<std::size_t>(spec.coord_of(g).rank)]
                  : nvstage_res[gi],
              deps);
          if (hc.internode) {
            hop_load[h].nic_ms += send_us / 1000.0;
          } else {
            hop_load[h].nvlink_ms += send_us / 1000.0;
          }
          sends.push_back(send);
          chain[gi] = send;
        }
        const TaskId send_barrier = tl.add_task(
            "hop_send_barrier", kCatNormalExchange, 0.0, ResourceId{}, sends);
        std::vector<TaskId> recvs;
        recvs.reserve(static_cast<std::size_t>(p));
        for (int g = 0; g < p; ++g) {
          const auto gi = static_cast<std::size_t>(g);
          const GpuIterationCounters& c = ic.gpu[gi];
          if (h >= c.hops.size()) continue;
          const HopCounters& hc = c.hops[h];
          const double recv_us = net_.nvlink_us(hc.recv_bytes);
          const TaskId recv = tl.add_task(
              "hop_recv_stage",
              hc.internode ? kCatNormalExchange : kCatLocalComm, recv_us,
              nvlink_res[gi], {chain[gi], send_barrier});
          hop_load[h].nvlink_ms += recv_us / 1000.0;
          recvs.push_back(recv);
          chain[gi] = recv;
        }
        hop_barrier = tl.add_task("hop_recv_barrier", kCatNormalExchange, 0.0,
                                  ResourceId{}, recvs);
      }
      for (int g = 0; g < p; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        send_done[gi] = chain[gi];
        recv_done[gi] =
            hop_barrier.valid()
                ? tl.add_task("hop_gate", kCatNormalExchange, 0.0,
                              ResourceId{}, {chain[gi], hop_barrier})
                : chain[gi];
      }
    } else {
      // Receive completion: a GPU's inputs are ready once every other GPU
      // has finished sending (bulk-synchronous approximation), plus
      // CPU->GPU staging of its received bytes.
      for (int g = 0; g < p; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        std::vector<TaskId> deps;
        deps.reserve(static_cast<std::size_t>(p));
        for (int s = 0; s < p; ++s) {
          deps.push_back(send_done[static_cast<std::size_t>(s)]);
        }
        // Staging of received bytes rides the same link as the delegate-mask
        // broadcast (both are inbound to this GPU), so they serialize.
        recv_done[gi] =
            tl.add_task("recv_stage", kCatNormalExchange,
                        net_.nvlink_us(ic.gpu[gi].recv_bytes_remote),
                        nvlink_res[gi], deps);
      }
    }

    // Lossy-wire recovery holds (either topology mode).
    for (int g = 0; g < p; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      if (ic.gpu[gi].recovery_ns > 0) {
        // Lossy-wire recovery: modeled receive timeouts, NACK backoff
        // windows and delay hold-backs serialize after the inbound staging
        // (the GPU cannot consume the exchange until its frames verified).
        recv_done[gi] = tl.add_task(
            "recovery", kCatNormalExchange,
            static_cast<double>(ic.gpu[gi].recovery_ns) / 1000.0, ResourceId{},
            {recv_done[gi]});
      }
    }

    // ---- Control allreduce (termination detection). ---------------------
    {
      std::vector<TaskId> deps;
      for (int g = 0; g < p; ++g) {
        deps.push_back(send_done[static_cast<std::size_t>(g)]);
        if (mask_ready[static_cast<std::size_t>(g)].valid()) {
          deps.push_back(mask_ready[static_cast<std::size_t>(g)]);
        }
      }
      // The serving scheduler's lane-drain agreement is a second one-word
      // collective at the boundary (retire/admit decisions); it rides the
      // same tree, doubling the agreement latency of those iterations.
      const bool lane_agreement = std::any_of(
          ic.gpu.begin(), ic.gpu.end(),
          [](const GpuIterationCounters& g) { return g.lane_agreement; });
      const double tree_us =
          static_cast<double>(NetModel::tree_rounds(spec.num_ranks)) *
          net_.config().nic_latency_us;
      const double control_us = lane_agreement ? 2.0 * tree_us : tree_us;
      const TaskId control =
          tl.add_task("control", kCatControl, control_us, ResourceId{}, deps);
      // The next iteration cannot start anywhere before global agreement.
      for (int g = 0; g < p; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        prev_recv_done[gi] = tl.add_task("iter_gate", kCatControl, 0.0,
                                         ResourceId{}, {recv_done[gi], control});
        prev_mask_bcast[gi] =
            mask_ready[gi].valid()
                ? tl.add_task("mask_gate", kCatControl, 0.0, ResourceId{},
                              {mask_ready[gi], control})
                : prev_recv_done[gi];
        prev_dn_visit[gi] = dn_visit[gi];
        boundary_gates[it].push_back(prev_recv_done[gi]);
        boundary_gates[it].push_back(prev_mask_bcast[gi]);
      }
    }
  }

  tl.schedule();

  ModeledBreakdown out;
  out.elapsed_ms = tl.makespan_us() / 1000.0;
  // Per-category load of the busiest resource: what a per-phase wall timer
  // on the most loaded processor/link would report.  Stacks may exceed
  // elapsed time because phases overlap (as the paper notes for its
  // breakdown charts).
  out.computation_ms = tl.category_critical_us(kCatComputation) / 1000.0;
  out.local_comm_ms = tl.category_critical_us(kCatLocalComm) / 1000.0;
  out.normal_exchange_ms = tl.category_critical_us(kCatNormalExchange) / 1000.0;
  out.delegate_reduce_ms = tl.category_critical_us(kCatDelegateReduce) / 1000.0;
  out.control_ms = tl.category_critical_us(kCatControl) / 1000.0;
  out.iteration_end_ms.reserve(boundary_gates.size());
  for (const std::vector<TaskId>& gates : boundary_gates) {
    double end_us = 0;
    for (const TaskId t : gates) {
      end_us = std::max(end_us, tl.task_finish_us(t));
    }
    out.iteration_end_ms.push_back(end_us / 1000.0);
  }
  out.exchange_hops = std::move(hop_load);
  return out;
}

ModeledBreakdown compose_breakdowns(const ModeledBreakdown& a,
                                    const ModeledBreakdown& b) {
  ModeledBreakdown out;
  out.elapsed_ms = a.elapsed_ms + b.elapsed_ms;
  out.computation_ms = a.computation_ms + b.computation_ms;
  out.local_comm_ms = a.local_comm_ms + b.local_comm_ms;
  out.normal_exchange_ms = a.normal_exchange_ms + b.normal_exchange_ms;
  out.delegate_reduce_ms = a.delegate_reduce_ms + b.delegate_reduce_ms;
  out.control_ms = a.control_ms + b.control_ms;
  out.iteration_end_ms = a.iteration_end_ms;
  out.iteration_end_ms.reserve(a.iteration_end_ms.size() +
                               b.iteration_end_ms.size());
  for (const double end : b.iteration_end_ms) {
    out.iteration_end_ms.push_back(a.elapsed_ms + end);
  }
  out.exchange_hops.resize(
      std::max(a.exchange_hops.size(), b.exchange_hops.size()));
  for (std::size_t h = 0; h < out.exchange_hops.size(); ++h) {
    if (h < a.exchange_hops.size()) {
      out.exchange_hops[h].nvlink_ms += a.exchange_hops[h].nvlink_ms;
      out.exchange_hops[h].nic_ms += a.exchange_hops[h].nic_ms;
    }
    if (h < b.exchange_hops.size()) {
      out.exchange_hops[h].nvlink_ms += b.exchange_hops[h].nvlink_ms;
      out.exchange_hops[h].nic_ms += b.exchange_hops[h].nic_ms;
    }
  }
  return out;
}

}  // namespace dsbfs::sim
