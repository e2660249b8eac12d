#include "sim/sharded.h"

#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/parallel.h"
#include "common/resource.h"
#include "common/telemetry.h"
#include "sim/cta_scheduler.h"

namespace stemroot::sim {

namespace {

/// One shard lane: a private simulator plus its timeline-ordered work
/// list. `clock` is the pacing clock -- simulated cycles accumulated so
/// far, including untimed warmup replays; it bounds skew between lanes
/// but never feeds results, which is why epoch length cannot change them.
struct Lane {
  std::unique_ptr<Simulator> sim;
  std::vector<uint32_t> work;
  size_t next = 0;
  double clock = 0.0;

  // Per-mode accumulators, merged in lane-index order after the run.
  std::vector<std::pair<uint32_t, double>> cycles;  ///< (invocation, cycles)
  SmStats stats;
  double cost_cycles = 0.0;
  size_t kernels = 0;
  size_t wave_sampled = 0;
};

/// Previous invocation of the same kernel type, per invocation (-1 if
/// none): the dominant source of inherited L2 warmth (see SimulateSampled).
std::vector<int64_t> PrevSameKernel(const KernelTrace& trace) {
  std::vector<int64_t> prev(trace.NumInvocations(), -1);
  std::unordered_map<uint32_t, uint32_t> last_of_kernel;
  for (uint32_t i = 0; i < trace.NumInvocations(); ++i) {
    const uint32_t kernel_id = trace.At(i).kernel_id;
    auto it = last_of_kernel.find(kernel_id);
    if (it != last_of_kernel.end()) prev[i] = it->second;
    last_of_kernel[kernel_id] = i;
  }
  return prev;
}

/// Build lanes from a kernel-affine partition, keeping only invocations
/// with selected[i] != 0 (empty `selected` keeps everything).
std::vector<Lane> MakeLanes(const KernelTrace& trace, const SimConfig& config,
                            uint32_t shards,
                            const std::vector<char>& selected) {
  std::vector<std::vector<uint32_t>> partition =
      PlanShardLanes(trace, shards);
  std::vector<Lane> lanes(partition.size());
  for (size_t i = 0; i < partition.size(); ++i) {
    if (selected.empty()) {
      lanes[i].work = std::move(partition[i]);
    } else {
      for (uint32_t idx : partition[i])
        if (selected[idx]) lanes[i].work.push_back(idx);
    }
    lanes[i].sim = std::make_unique<Simulator>(config);
  }
  if (resource::AccountingEnabled()) {
    // Lane state is a function of (trace, config, sim_shards, selected)
    // only -- sim_threads and epoch_cycles never enter, so the logical
    // "sim" peak compares clean across pacing settings (DESIGN.md §12).
    uint64_t bytes = 0;
    for (const Lane& lane : lanes)
      bytes += sizeof(Lane) + lane.sim->ApproxStateBytes() +
               lane.work.size() * sizeof(uint32_t);
    resource::AccountPeak("sim", bytes);
  }
  return lanes;
}

/// Advance every lane to completion in bounded-skew rounds. Each round
/// targets the next epoch boundary past the slowest unfinished lane; a
/// lane steps invocations while its pacing clock is below the target.
/// Rounds are separated by a barrier (ParallelLanes returns only when all
/// lanes finished the round), and no lane ever blocks on another lane's
/// task, so any sim_threads count -- even fewer threads than lanes -- is
/// deadlock-free. Returns the number of rounds (epochs) executed.
uint64_t DriveLanes(std::vector<Lane>& lanes, const ShardOptions& shard,
                    const std::function<void(Lane&)>& step_one) {
  const size_t cap = shard.sim_threads > 0
                         ? static_cast<size_t>(shard.sim_threads)
                         : static_cast<size_t>(NumThreads());
  const double epoch = static_cast<double>(shard.epoch_cycles);
  uint64_t rounds = 0;
  for (;;) {
    double min_clock = std::numeric_limits<double>::infinity();
    bool pending = false;
    for (const Lane& lane : lanes) {
      if (lane.next < lane.work.size()) {
        pending = true;
        min_clock = std::min(min_clock, lane.clock);
      }
    }
    if (!pending) break;
    ++rounds;
    // Next epoch boundary strictly past the slowest unfinished lane: that
    // lane always advances at least one invocation, so the loop
    // terminates; every lane within the skew window advances in parallel.
    const double target = (std::floor(min_clock / epoch) + 1.0) * epoch;
    ParallelLanes(lanes.size(), cap, [&](size_t i) {
      Lane& lane = lanes[i];
      while (lane.next < lane.work.size() && lane.clock < target)
        step_one(lane);
    });
  }
  return rounds;
}

void FillInfo(ShardedRunInfo* info, const std::vector<Lane>& lanes,
              uint64_t rounds) {
  if (info == nullptr) return;
  info->lanes = static_cast<uint32_t>(lanes.size());
  info->epochs = rounds;
  info->lane_l2_digests.clear();
  info->lane_cycles.clear();
  info->lane_dram_busy.clear();
  info->lane_invocations.clear();
  for (const Lane& lane : lanes) {
    info->lane_l2_digests.push_back(lane.sim->L2Digest());
    info->lane_cycles.push_back(lane.clock);
    info->lane_dram_busy.push_back(lane.sim->Dram().BusyCycles());
    info->lane_invocations.push_back(lane.work.size());
  }
}

/// The untimed warmup replays that precede timing invocation `idx` under
/// the options' warmup policy, in replay order (none when the L2 is
/// flushed instead). One definition for the sampled modes and the cost
/// estimate SampledSimMass.
template <typename Fn>
void ForEachWarmupReplay(uint32_t idx, const TraceSimOptions& options,
                         const std::vector<int64_t>& prev_same_kernel,
                         Fn&& fn) {
  if (options.flush_l2_between_kernels) return;
  const int64_t same = prev_same_kernel[idx];
  const bool warm_same =
      options.warmup == WarmupPolicy::kSameKernel ||
      options.warmup == WarmupPolicy::kSameKernelThenPredecessor;
  const bool warm_pred =
      options.warmup == WarmupPolicy::kPredecessor ||
      options.warmup == WarmupPolicy::kSameKernelThenPredecessor;
  if (warm_same && same >= 0) fn(static_cast<uint32_t>(same));
  if (warm_pred && idx > 0 && static_cast<int64_t>(idx) - 1 != same)
    fn(idx - 1);
}

/// The warmup preamble shared by the sampled modes, mirroring the serial
/// loops in sampled_sim.cc / intra_kernel.cc exactly. `replay` runs one
/// untimed invocation on the lane's simulator and returns the simulated
/// cycles it cost (pacing only).
void WarmLane(Lane& lane, uint32_t idx, const TraceSimOptions& options,
              const std::vector<int64_t>& prev_same_kernel,
              const std::function<double(Lane&, uint32_t)>& replay) {
  if (options.flush_l2_between_kernels) lane.sim->FlushL2();
  ForEachWarmupReplay(idx, options, prev_same_kernel, [&](uint32_t replayed) {
    lane.clock += replay(lane, replayed);
  });
}

}  // namespace

double FullSimMass(const KernelTrace& trace) {
  double mass = 0.0;
  for (const KernelInvocation& inv : trace.Invocations())
    mass += InvocationMass(inv);
  return mass;
}

double SampledSimMass(const KernelTrace& trace,
                      const core::SamplingPlan& plan,
                      const TraceSimOptions& options) {
  plan.Validate(trace.NumInvocations());
  const std::vector<int64_t> prev_same_kernel = PrevSameKernel(trace);
  double mass = 0.0;
  for (uint32_t idx : plan.DistinctInvocations()) {
    ForEachWarmupReplay(idx, options, prev_same_kernel, [&](uint32_t r) {
      mass += InvocationMass(trace.At(r));
    });
    mass += InvocationMass(trace.At(idx));
  }
  return mass;
}

TraceSimResult ShardedSimulateTraceFull(const KernelTrace& trace,
                                        const SimConfig& config,
                                        const TraceSimOptions& options,
                                        ShardedRunInfo* info) {
  options.shard.Validate();
  std::vector<Lane> lanes =
      MakeLanes(trace, config, options.shard.sim_shards, {});

  const uint64_t rounds =
      DriveLanes(lanes, options.shard, [&](Lane& lane) {
        const uint32_t idx = lane.work[lane.next++];
        if (options.flush_l2_between_kernels) lane.sim->FlushL2();
        const KernelSimResult one =
            lane.sim->SimulateKernel(trace.At(idx), options.seed);
        lane.cycles.emplace_back(idx, one.cycles);
        lane.clock += one.cycles;
        lane.stats.Merge(one.stats);
      });

  // Merge in timeline order (scatter through index-addressed slots), so
  // the floating-point sum order -- and hence the bytes of total_cycles --
  // is independent of lane count and schedule.
  TraceSimResult result;
  result.per_invocation_cycles.assign(trace.NumInvocations(), 0.0);
  for (const Lane& lane : lanes) {
    for (const auto& [idx, cycles] : lane.cycles)
      result.per_invocation_cycles[idx] = cycles;
    result.stats.Merge(lane.stats);
  }
  for (double cycles : result.per_invocation_cycles)
    result.total_cycles += cycles;

  telemetry::Count("sim.kernels_simulated", trace.NumInvocations());
  telemetry::Count("sim.warp_instructions", result.stats.warp_instructions);
  FillInfo(info, lanes, rounds);
  return result;
}

SampledSimResult ShardedSimulateSampled(const KernelTrace& trace,
                                        const core::SamplingPlan& plan,
                                        const SimConfig& config,
                                        const TraceSimOptions& options,
                                        ShardedRunInfo* info) {
  options.shard.Validate();
  plan.Validate(trace.NumInvocations());

  const std::vector<int64_t> prev_same_kernel = PrevSameKernel(trace);
  std::vector<char> selected(trace.NumInvocations(), 0);
  for (uint32_t idx : plan.DistinctInvocations()) selected[idx] = 1;
  std::vector<Lane> lanes =
      MakeLanes(trace, config, options.shard.sim_shards, selected);

  const auto replay = [&](Lane& lane, uint32_t idx) {
    return lane.sim->SimulateKernel(trace.At(idx), options.seed).cycles;
  };
  const uint64_t rounds =
      DriveLanes(lanes, options.shard, [&](Lane& lane) {
        const uint32_t idx = lane.work[lane.next++];
        WarmLane(lane, idx, options, prev_same_kernel, replay);
        const KernelSimResult one =
            lane.sim->SimulateKernel(trace.At(idx), options.seed);
        lane.cycles.emplace_back(idx, one.cycles);
        lane.cost_cycles += one.cycles;
        lane.clock += one.cycles;
        ++lane.kernels;
      });

  SampledSimResult result;
  std::unordered_map<uint32_t, double> cycles_by_invocation;
  for (const Lane& lane : lanes) {
    for (const auto& [idx, cycles] : lane.cycles)
      cycles_by_invocation.emplace(idx, cycles);
    result.simulated_cost_cycles += lane.cost_cycles;
    result.kernels_simulated += lane.kernels;
  }
  for (const core::SampleEntry& entry : plan.entries)
    result.estimated_total_cycles +=
        entry.weight * cycles_by_invocation.at(entry.invocation);

  telemetry::Count("sim.kernels_simulated", result.kernels_simulated);
  FillInfo(info, lanes, rounds);
  return result;
}

CombinedSimResult ShardedSimulateSampledIntra(
    const KernelTrace& trace, const core::SamplingPlan& plan,
    const SimConfig& config, const TraceSimOptions& trace_options,
    const IntraKernelOptions& intra_options, ShardedRunInfo* info) {
  trace_options.shard.Validate();
  plan.Validate(trace.NumInvocations());
  intra_options.Validate();

  const std::vector<int64_t> prev_same_kernel = PrevSameKernel(trace);
  std::vector<char> selected(trace.NumInvocations(), 0);
  for (uint32_t idx : plan.DistinctInvocations()) selected[idx] = 1;
  std::vector<Lane> lanes =
      MakeLanes(trace, config, trace_options.shard.sim_shards, selected);

  // Warmups are themselves wave-sampled, exactly like the serial loop.
  const auto replay = [&](Lane& lane, uint32_t idx) {
    return SimulateKernelIntra(*lane.sim, trace.At(idx), trace_options.seed,
                               intra_options)
        .simulated_cycles;
  };
  const uint64_t rounds =
      DriveLanes(lanes, trace_options.shard, [&](Lane& lane) {
        const uint32_t idx = lane.work[lane.next++];
        WarmLane(lane, idx, trace_options, prev_same_kernel, replay);
        const IntraKernelResult one = SimulateKernelIntra(
            *lane.sim, trace.At(idx), trace_options.seed, intra_options);
        lane.cycles.emplace_back(idx, one.estimated_cycles);
        lane.cost_cycles += one.simulated_cycles;
        lane.clock += one.simulated_cycles;
        ++lane.kernels;
        if (one.sampled) ++lane.wave_sampled;
      });

  CombinedSimResult result;
  std::unordered_map<uint32_t, double> cycles_by_invocation;
  for (const Lane& lane : lanes) {
    for (const auto& [idx, cycles] : lane.cycles)
      cycles_by_invocation.emplace(idx, cycles);
    result.simulated_cost_cycles += lane.cost_cycles;
    result.kernels_simulated += lane.kernels;
    result.kernels_wave_sampled += lane.wave_sampled;
  }
  for (const core::SampleEntry& entry : plan.entries)
    result.estimated_total_cycles +=
        entry.weight * cycles_by_invocation.at(entry.invocation);

  telemetry::Count("sim.kernels_simulated", result.kernels_simulated);
  telemetry::Count("sim.kernels_wave_sampled", result.kernels_wave_sampled);
  FillInfo(info, lanes, rounds);
  return result;
}

}  // namespace stemroot::sim
