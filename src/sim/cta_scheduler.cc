#include "sim/cta_scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace stemroot::sim {

WavePlan PlanWaves(const LaunchConfig& launch, const SimConfig& config) {
  config.Validate();
  WavePlan plan;
  plan.warps_per_cta = launch.WarpsPerCta();
  if (plan.warps_per_cta > config.max_warps_per_sm)
    throw std::invalid_argument(
        "PlanWaves: CTA exceeds the SM warp capacity");

  const uint64_t total_ctas = launch.NumCtas();
  // Round-robin distribution: the representative SM gets the ceil share.
  plan.ctas = (total_ctas + config.num_sms - 1) / config.num_sms;

  const uint32_t ctas_per_wave =
      std::max<uint32_t>(1, config.max_warps_per_sm / plan.warps_per_cta);
  uint64_t remaining = plan.ctas;
  while (remaining > 0) {
    const uint32_t wave_ctas = static_cast<uint32_t>(
        std::min<uint64_t>(remaining, ctas_per_wave));
    plan.wave_warps.push_back(wave_ctas * plan.warps_per_cta);
    remaining -= wave_ctas;
  }
  return plan;
}

std::vector<std::vector<uint32_t>> PlanShardLanes(const KernelTrace& trace,
                                                  uint32_t num_lanes) {
  if (num_lanes == 0)
    throw std::invalid_argument("PlanShardLanes: num_lanes must be >= 1");
  const uint32_t n = static_cast<uint32_t>(trace.NumInvocations());
  std::vector<std::vector<uint32_t>> lanes(num_lanes);
  if (num_lanes == 1) {
    lanes[0].reserve(n);
    for (uint32_t i = 0; i < n; ++i) lanes[0].push_back(i);
    return lanes;
  }

  // Estimated work per kernel id: InvocationMass summed in timeline order.
  struct KernelLoad {
    uint32_t kernel_id = 0;
    double weight = 0.0;
  };
  std::unordered_map<uint32_t, size_t> slot_of_kernel;
  std::vector<KernelLoad> kernels;
  for (uint32_t i = 0; i < n; ++i) {
    const KernelInvocation& inv = trace.At(i);
    auto [it, inserted] =
        slot_of_kernel.emplace(inv.kernel_id, kernels.size());
    if (inserted) kernels.push_back({inv.kernel_id, 0.0});
    kernels[it->second].weight += InvocationMass(inv);
  }

  // Longest-processing-time-first over lanes: heaviest kernel to the
  // least-loaded lane, ties by kernel id (sort) and lane index (scan).
  std::sort(kernels.begin(), kernels.end(),
            [](const KernelLoad& a, const KernelLoad& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.kernel_id < b.kernel_id;
            });
  std::vector<double> lane_load(num_lanes, 0.0);
  std::unordered_map<uint32_t, uint32_t> lane_of_kernel;
  for (const KernelLoad& kernel : kernels) {
    uint32_t best = 0;
    for (uint32_t lane = 1; lane < num_lanes; ++lane)
      if (lane_load[lane] < lane_load[best]) best = lane;
    lane_of_kernel[kernel.kernel_id] = best;
    lane_load[best] += kernel.weight;
  }

  for (uint32_t i = 0; i < n; ++i)
    lanes[lane_of_kernel.at(trace.At(i).kernel_id)].push_back(i);
  return lanes;
}

}  // namespace stemroot::sim
