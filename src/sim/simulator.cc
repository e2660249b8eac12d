#include "sim/simulator.h"

#include <algorithm>

#include "common/rng.h"

namespace stemroot::sim {

namespace {

/// The simulated SM sees the full shared L2 (the other, symmetric SMs
/// would have warmed/contended it; we keep capacity exact and accept
/// slightly optimistic L2 hit rates), but only a 1/num_sms share of DRAM
/// bandwidth. Associativity is reduced if it does not divide the line
/// count evenly.
Cache MakeL2(const SimConfig& config) {
  uint32_t assoc = config.l2_assoc;
  while (assoc > 1 && (config.l2_bytes / config.line_bytes) % assoc != 0)
    assoc /= 2;
  return Cache(config.l2_bytes, assoc, config.line_bytes);
}

}  // namespace

Simulator::Simulator(SimConfig config)
    : config_(config), l2_(MakeL2(config_)),
      dram_(config_.DramShareBytesPerCycle(), config_.dram_latency),
      sm_(config_, &l2_, &dram_) {
  config_.Validate();
}

void Simulator::FlushL2() { l2_.Flush(); }

WaveSimResult Simulator::SimulateKernelWaves(const KernelInvocation& inv,
                                             uint64_t seed,
                                             uint64_t max_waves) {
  WaveSimResult result;
  // Instruction-stream randomness is per invocation; the data region is
  // per *kernel*, so repeated launches of the same kernel touch the same
  // buffers and can reuse L2 content across launches (Sec. 6.2).
  const uint64_t stream_seed = DeriveSeed(seed, inv.seq);
  const uint64_t region_base =
      (DeriveSeed(0xDA7A0000ULL, inv.kernel_id) & 0xFFFFFFull) << 40;

  const WavePlan plan = PlanWaves(inv.launch, config_);
  result.total_waves = plan.wave_warps.size();
  sm_.ResetL1();
  dram_.Reset();

  PeerWarming peer_warming;
  peer_warming.region_base = region_base;
  peer_warming.footprint_lines = std::max<uint64_t>(
      1, inv.behavior.footprint_bytes / config_.line_bytes);
  peer_warming.peers = config_.num_sms - 1;

  // Everything the warps' streams share is computed once per invocation;
  // the warp vector is reused wave after wave (its programs keep their
  // ring capacity).
  const InvocationStream stream(inv.behavior, inv.launch, config_,
                                stream_seed, region_base);
  std::vector<WarpContext> warps;
  double cycle = 0.0;
  uint32_t warp_id = 0;
  for (uint32_t wave_warps : plan.wave_warps) {
    if (max_waves != 0 && result.wave_cycles.size() >= max_waves) break;
    warps.resize(wave_warps);
    for (WarpContext& warp : warps) warp.program.Start(stream, warp_id++);
    const double end = sm_.ExecuteWave(warps, cycle, peer_warming,
                                       &result.stats);
    result.wave_cycles.push_back(end - cycle);
    cycle = end;
  }
  return result;
}

KernelSimResult Simulator::SimulateKernel(const KernelInvocation& inv,
                                          uint64_t seed) {
  const WaveSimResult waves = SimulateKernelWaves(inv, seed, 0);
  KernelSimResult result;
  result.stats = waves.stats;
  double cycle = 0.0;
  for (double c : waves.wave_cycles) cycle += c;
  // Fixed launch/drain overhead in cycles (mirrors the hardware model's
  // launch_overhead_us at the configured clock).
  result.cycles = cycle + 3.0 * config_.clock_ghz * 1e3;
  return result;
}

}  // namespace stemroot::sim
