#include "sim/itrace.h"

#include <algorithm>
#include <cmath>

namespace stemroot::sim {

InvocationStream::InvocationStream(const KernelBehavior& behavior,
                                   const LaunchConfig& launch,
                                   const SimConfig& config,
                                   uint64_t stream_seed, uint64_t region_base)
    : stream_seed(stream_seed), region_base(region_base),
      line_bytes(config.line_bytes) {
  const uint64_t threads = std::max<uint64_t>(1, launch.TotalThreads());
  // Thread-level instructions per thread == warp instructions per warp
  // (all lanes execute together).
  instructions = std::max<uint64_t>(1, behavior.instructions / threads);
  footprint_lines = std::max<uint64_t>(
      1, behavior.footprint_bytes / config.line_bytes);
  dep_prob = 1.0 / std::max(1.0f, behavior.ilp);
  // Distinct lines per warp access: geometric in (1 - coalescing), as in
  // the analytic model (1 when fully coalesced, warp_size when scattered).
  avg_transactions = static_cast<uint32_t>(std::clamp<double>(
      std::llround(std::pow(static_cast<double>(config.warp_size),
                            1.0 - behavior.coalescing)),
      1, config.warp_size));

  locality = behavior.locality;
  store_fraction = behavior.store_fraction;
  mem_threshold = behavior.mem_fraction;
  shared_threshold = mem_threshold + behavior.shared_fraction;
  // Compute mix: branches proportional to divergence, a small SFU share,
  // FP16/FP32 per the behaviour, rest integer ALU.
  branch_threshold = 0.04 + 0.1 * behavior.branch_divergence;
  sfu_threshold = branch_threshold + 0.05;
  fp16_threshold = sfu_threshold + behavior.fp16_fraction;
  fp32_threshold = fp16_threshold + behavior.fp32_fraction;

  // Hot set sized like the analytic model's reuse distance: a geometric
  // blend between a tight 16 KB tile (locality 1) and the full footprint
  // (locality 0). Mid-locality kernels thus reuse at distances that
  // overflow L1 but can live in L2 -- which is what makes cache-size DSE
  // variants move hit rates.
  constexpr double kTileBytes = 16.0 * 1024.0;
  const double footprint = std::max(
      kTileBytes, static_cast<double>(behavior.footprint_bytes));
  const double loc = static_cast<double>(behavior.locality);
  const double reuse_bytes = std::exp(
      (1.0 - loc) * std::log(footprint) + loc * std::log(kTileBytes));
  const size_t hot_entries = std::max<size_t>(
      8, static_cast<size_t>(reuse_bytes / config.line_bytes));
  // Pre-populate the ring with a spread of footprint lines so early
  // "reuse" draws do not all alias the base line.
  hot_ring.resize(hot_entries);
  for (size_t i = 0; i < hot_entries; ++i)
    hot_ring[i] = region_base + (i * 31 % footprint_lines) * line_bytes;
}

void WarpProgram::Start(const InvocationStream& stream,
                        uint32_t global_warp_id) {
  stream_ = &stream;
  rng_ = Rng(DeriveSeed(stream.stream_seed, global_warp_id));
  remaining_ = stream.instructions;
  // Each warp streams through its own partition interleaved with others.
  stream_pos_ = (static_cast<uint64_t>(global_warp_id) * 977) %
                stream.footprint_lines;
  written_.clear();
  hot_cursor_ = 0;
}

uint64_t WarpProgram::NextAddress() {
  const InvocationStream& s = *stream_;
  const bool reuse = rng_.NextBool(s.locality);
  if (reuse) {
    // Revisit a recently touched line.
    const size_t slot = rng_.NextBounded(s.hot_ring.size());
    return slot < written_.size() ? written_[slot] : s.hot_ring[slot];
  }
  // Fresh line: advance the streaming cursor (strided, wraps around the
  // footprint; the cursor is always below footprint_lines).
  if (++stream_pos_ == s.footprint_lines) stream_pos_ = 0;
  const uint64_t addr = s.region_base + stream_pos_ * s.line_bytes;
  // Until the ring first wraps, the cursor is exactly the count of slots
  // written so far.
  if (hot_cursor_ == written_.size()) {
    written_.push_back(addr);
  } else {
    written_[hot_cursor_] = addr;
  }
  if (++hot_cursor_ == s.hot_ring.size()) hot_cursor_ = 0;
  return addr;
}

bool WarpProgram::Next(WarpInstr& out) {
  if (remaining_ == 0) return false;
  --remaining_;
  const InvocationStream& s = *stream_;

  out.depends_on_prev = rng_.NextBool(s.dep_prob);
  out.lines.clear();

  const double u = rng_.NextDouble();
  if (u < s.mem_threshold) {
    out.kind = rng_.NextBool(s.store_fraction) ? OpKind::kStore
                                               : OpKind::kLoad;
    // Coalesced base line plus scattered extras.
    const uint64_t base = NextAddress();
    out.lines.push_back(base);
    for (uint32_t t = 1; t < s.avg_transactions; ++t) {
      // Scattered lanes touch unrelated lines across the footprint.
      const uint64_t line = rng_.NextBounded(s.footprint_lines);
      out.lines.push_back(s.region_base + line * s.line_bytes);
    }
  } else if (u < s.shared_threshold) {
    out.kind = OpKind::kSharedMem;
  } else {
    const double v = rng_.NextDouble();
    if (v < s.branch_threshold) {
      out.kind = OpKind::kBranch;
    } else if (v < s.sfu_threshold) {
      out.kind = OpKind::kSfu;
    } else if (v < s.fp16_threshold) {
      out.kind = OpKind::kFp16;
    } else if (v < s.fp32_threshold) {
      out.kind = OpKind::kFp32;
    } else {
      out.kind = OpKind::kAlu;
    }
  }
  return true;
}

}  // namespace stemroot::sim
