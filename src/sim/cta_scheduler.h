/// \file
/// CTA scheduler: distributes a kernel's thread blocks across SMs and
/// decomposes the simulated SM's share into occupancy-limited waves.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/gpu_config.h"
#include "trace/kernel.h"
#include "trace/trace.h"

namespace stemroot::sim {

/// Wave decomposition for the simulated (representative) SM.
struct WavePlan {
  /// Number of warps resident in each successive wave.
  std::vector<uint32_t> wave_warps;
  /// CTAs assigned to the simulated SM in total.
  uint64_t ctas = 0;
  /// Warps per CTA for this launch.
  uint32_t warps_per_cta = 0;
};

/// Round-robin CTA distribution: SM 0 receives ceil-share of the grid;
/// waves are limited by max_warps_per_sm. Throws std::invalid_argument if
/// a single CTA exceeds the SM's warp capacity.
WavePlan PlanWaves(const LaunchConfig& launch, const SimConfig& config);

/// Estimated host cost of simulating one invocation: its dynamic
/// instructions, +1 so empty kernels still carry weight. The load measure
/// of PlanShardLanes and of the DSE sweep's task order (FullSimMass,
/// SampledSimMass); it orders work and never enters a result.
inline double InvocationMass(const KernelInvocation& inv) {
  return 1.0 + static_cast<double>(inv.behavior.instructions);
}

/// Kernel-affine lane partition for sharded trace simulation (DESIGN.md
/// §12): every invocation of a kernel lands on the same lane, so
/// same-kernel L2 reuse -- the dominant source of inherited warmth (see
/// SimulateSampled) -- stays lane-local. Kernels are spread over lanes by
/// longest-processing-time-first on estimated work (dynamic instruction
/// counts), ties broken by kernel id then lane index. Returns `num_lanes`
/// lists of invocation indices, each in timeline order; the union is
/// exactly [0, NumInvocations). Deterministic: depends only on the trace
/// and the lane count, never on seeds, threads, or epoch length. Throws
/// std::invalid_argument for num_lanes == 0.
std::vector<std::vector<uint32_t>> PlanShardLanes(const KernelTrace& trace,
                                                  uint32_t num_lanes);

}  // namespace stemroot::sim
