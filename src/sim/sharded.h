/// \file
/// Sharded trace simulation: the parallel execution engine behind
/// SimulateTraceFull / SimulateSampled / SimulateSampledIntra (DESIGN.md
/// §12; Huerta et al.'s SM-sharded execution with bounded cycle
/// synchronization, adapted to the representative-SM substrate).
///
/// The representative-SM simulator already folds cross-SM contention into
/// analytic shares (1/num_sms DRAM bandwidth, peer warming of the L2), so
/// the only state that couples invocations is the per-simulator L2 slice.
/// The engine exploits that: invocations are partitioned kernel-affinely
/// into `sim_shards` lanes (PlanShardLanes), each lane owns a *private*
/// Simulator, and lanes advance concurrently in bounded-skew epochs of
/// `epoch_cycles` simulated cycles with a deterministic barrier between
/// rounds. Merges happen in shard-index / timeline order.
///
/// Determinism contract:
///  - `sim_shards` is a modeling knob: lane-private L2s keep same-kernel
///    reuse (the dominant warmth source) but drop cross-kernel pollution
///    between lanes, so shards > 1 yields different -- equally valid --
///    numbers than shards == 1. It therefore gates manifest comparability.
///  - `sim_threads` and `epoch_cycles` are pacing knobs: lanes are
///    independent between barriers and every merge is index-ordered, so
///    results are byte-identical at any setting (epoch length may change
///    speed, never outcome).
///  - shards == 1 is ONE lane stepping the whole timeline in order on one
///    Simulator: exactly the legacy serial loop, bit for bit (the golden
///    tests pin this).

#pragma once

#include <cstdint>
#include <vector>

#include "core/plan.h"
#include "sim/intra_kernel.h"
#include "sim/sampled_sim.h"

namespace stemroot::sim {

/// Diagnostics from one sharded run, for tests and drills. Everything in
/// here is invariant to `sim_threads`; `epochs` depends on `epoch_cycles`
/// (it counts synchronization rounds), the rest does not.
struct ShardedRunInfo {
  uint32_t lanes = 0;
  uint64_t epochs = 0;  ///< synchronization rounds executed
  std::vector<uint64_t> lane_l2_digests;   ///< final L2 state per lane
  std::vector<double> lane_cycles;         ///< simulated cycles per lane
  std::vector<double> lane_dram_busy;      ///< final-kernel DRAM busy/lane
  std::vector<size_t> lane_invocations;    ///< work-list length per lane
};

/// Sharded full simulation: every invocation, lane-partitioned. With
/// options.shard.sim_shards == 1 this IS the serial SimulateTraceFull.
TraceSimResult ShardedSimulateTraceFull(const KernelTrace& trace,
                                        const SimConfig& config,
                                        const TraceSimOptions& options = {},
                                        ShardedRunInfo* info = nullptr);

/// Sharded sampled simulation: the plan's distinct invocations with the
/// options' warmup policy, lane-partitioned kernel-affinely so warmup
/// replays stay lane-local.
SampledSimResult ShardedSimulateSampled(const KernelTrace& trace,
                                        const core::SamplingPlan& plan,
                                        const SimConfig& config,
                                        const TraceSimOptions& options = {},
                                        ShardedRunInfo* info = nullptr);

/// Estimated host cost of a full run: the warp-instruction mass
/// sum(1 + behavior.instructions) over every invocation. Schedulers of
/// many simulations (eval::DseSweep) claim the heaviest first; the
/// estimate orders work and never enters a result.
double FullSimMass(const KernelTrace& trace);

/// Estimated host cost of a sampled run, on FullSimMass's scale: the
/// plan's distinct invocations plus their untimed warmup replays under
/// the options' policy. Throws what SimulateSampled throws for a plan
/// that does not fit the trace.
double SampledSimMass(const KernelTrace& trace,
                      const core::SamplingPlan& plan,
                      const TraceSimOptions& options);

/// Sharded kernel-level + intra-kernel (wave) sampling combination.
CombinedSimResult ShardedSimulateSampledIntra(
    const KernelTrace& trace, const core::SamplingPlan& plan,
    const SimConfig& config, const TraceSimOptions& trace_options = {},
    const IntraKernelOptions& intra_options = {},
    ShardedRunInfo* info = nullptr);

}  // namespace stemroot::sim
