#include "sim/itrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "workloads/context_model.h"

namespace stemroot::sim {
namespace {

LaunchConfig Launch(uint32_t ctas, uint32_t threads) {
  LaunchConfig launch;
  launch.grid_x = ctas;
  launch.block_x = threads;
  return launch;
}

/// The per-warp WarpProgram as it was before the per-invocation shape was
/// factored out: every warp recomputes the hot-set size and rebuilds the
/// whole ring. Kept verbatim as the oracle the shared-shape program must
/// match instruction by instruction.
class PerWarpReference {
 public:
  PerWarpReference(const KernelBehavior& behavior, const LaunchConfig& launch,
                   const SimConfig& config, uint64_t stream_seed,
                   uint64_t region_base, uint32_t global_warp_id)
      : behavior_(behavior), config_(config),
        rng_(DeriveSeed(stream_seed, global_warp_id)) {
    const uint64_t threads = std::max<uint64_t>(1, launch.TotalThreads());
    total_ = std::max<uint64_t>(1, behavior.instructions / threads);
    remaining_ = total_;
    region_base_ = region_base;
    footprint_lines_ = std::max<uint64_t>(
        1, behavior.footprint_bytes / config.line_bytes);
    stream_pos_ = (static_cast<uint64_t>(global_warp_id) * 977) %
                  footprint_lines_;
    dep_prob_ = 1.0 / std::max(1.0f, behavior.ilp);
    avg_transactions_ = static_cast<uint32_t>(std::clamp<double>(
        std::llround(std::pow(static_cast<double>(config.warp_size),
                              1.0 - behavior.coalescing)),
        1, config.warp_size));
    constexpr double kTileBytes = 16.0 * 1024.0;
    const double footprint = std::max(
        kTileBytes, static_cast<double>(behavior.footprint_bytes));
    const double loc = static_cast<double>(behavior.locality);
    const double reuse_bytes = std::exp(
        (1.0 - loc) * std::log(footprint) + loc * std::log(kTileBytes));
    const size_t hot_entries = std::max<size_t>(
        8, static_cast<size_t>(reuse_bytes / config.line_bytes));
    hot_lines_.assign(hot_entries, region_base_);
    for (size_t i = 0; i < hot_lines_.size(); ++i)
      hot_lines_[i] = region_base_ +
                      (i * 31 % footprint_lines_) * config.line_bytes;
  }

  bool Next(WarpInstr& out) {
    if (remaining_ == 0) return false;
    --remaining_;
    out.depends_on_prev = rng_.NextBool(dep_prob_);
    out.lines.clear();
    const double u = rng_.NextDouble();
    const double mem = behavior_.mem_fraction;
    const double shared = mem + behavior_.shared_fraction;
    if (u < mem) {
      out.kind = rng_.NextBool(behavior_.store_fraction) ? OpKind::kStore
                                                         : OpKind::kLoad;
      const uint64_t base = NextAddress();
      out.lines.push_back(base);
      for (uint32_t t = 1; t < avg_transactions_; ++t) {
        const uint64_t line = rng_.NextBounded(footprint_lines_);
        out.lines.push_back(region_base_ + line * config_.line_bytes);
      }
    } else if (u < shared) {
      out.kind = OpKind::kSharedMem;
    } else {
      const double v = rng_.NextDouble();
      const double branch = 0.04 + 0.1 * behavior_.branch_divergence;
      if (v < branch) {
        out.kind = OpKind::kBranch;
      } else if (v < branch + 0.05) {
        out.kind = OpKind::kSfu;
      } else if (v < branch + 0.05 + behavior_.fp16_fraction) {
        out.kind = OpKind::kFp16;
      } else if (v < branch + 0.05 + behavior_.fp16_fraction +
                         behavior_.fp32_fraction) {
        out.kind = OpKind::kFp32;
      } else {
        out.kind = OpKind::kAlu;
      }
    }
    return true;
  }

  uint64_t InstructionsTotal() const { return total_; }
  size_t RingEntries() const { return hot_lines_.size(); }
  uint64_t FreshLines() const { return fresh_lines_; }

 private:
  uint64_t NextAddress() {
    const bool reuse = rng_.NextBool(behavior_.locality);
    if (reuse) return hot_lines_[rng_.NextBounded(hot_lines_.size())];
    ++fresh_lines_;
    stream_pos_ = (stream_pos_ + 1) % footprint_lines_;
    const uint64_t addr = region_base_ + stream_pos_ * config_.line_bytes;
    hot_lines_[hot_cursor_] = addr;
    hot_cursor_ = (hot_cursor_ + 1) % hot_lines_.size();
    return addr;
  }

  const KernelBehavior& behavior_;
  const SimConfig& config_;
  Rng rng_;
  uint64_t total_ = 0;
  uint64_t remaining_ = 0;
  uint64_t region_base_ = 0;
  uint64_t footprint_lines_ = 0;
  uint64_t stream_pos_ = 0;
  double dep_prob_ = 0.0;
  uint32_t avg_transactions_ = 1;
  std::vector<uint64_t> hot_lines_;
  size_t hot_cursor_ = 0;
  uint64_t fresh_lines_ = 0;
};

class ItraceTest : public ::testing::Test {
 protected:
  SimConfig config_ = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
};

TEST_F(ItraceTest, InstructionCountMatchesPerThreadWork) {
  KernelBehavior b = workloads::ComputeBoundBehavior(1'024'000, 1 << 20);
  const LaunchConfig launch = Launch(4, 256);  // 1024 threads
  const InvocationStream stream(b, launch, config_, 1, 0);
  WarpProgram program(stream, 0);
  EXPECT_EQ(program.InstructionsTotal(), 1000u);
  WarpInstr instr;
  uint64_t count = 0;
  while (program.Next(instr)) ++count;
  EXPECT_EQ(count, 1000u);
  EXPECT_FALSE(program.Next(instr));
}

TEST_F(ItraceTest, DeterministicStreams) {
  KernelBehavior b = workloads::MemoryBoundBehavior(512'000, 4 << 20);
  const LaunchConfig launch = Launch(2, 256);
  const InvocationStream stream(b, launch, config_, 7, 0x42);
  WarpProgram p1(stream, 3);
  WarpProgram p2(stream, 3);
  WarpInstr i1, i2;
  while (p1.Next(i1)) {
    ASSERT_TRUE(p2.Next(i2));
    EXPECT_EQ(i1.kind, i2.kind);
    EXPECT_EQ(i1.lines, i2.lines);
    EXPECT_EQ(i1.depends_on_prev, i2.depends_on_prev);
  }
}

TEST_F(ItraceTest, DifferentWarpsDiverge) {
  KernelBehavior b = workloads::MemoryBoundBehavior(512'000, 4 << 20);
  const LaunchConfig launch = Launch(2, 256);
  const InvocationStream stream(b, launch, config_, 7, 0x42);
  WarpProgram p1(stream, 0);
  WarpProgram p2(stream, 1);
  WarpInstr i1, i2;
  int diffs = 0;
  while (p1.Next(i1) && p2.Next(i2))
    diffs += i1.kind != i2.kind ? 1 : 0;
  EXPECT_GT(diffs, 0);
}

TEST_F(ItraceTest, MixMatchesBehaviorFractions) {
  KernelBehavior b = workloads::MemoryBoundBehavior(3'200'000, 8 << 20);
  b.mem_fraction = 0.3f;
  b.shared_fraction = 0.1f;
  const LaunchConfig launch = Launch(1, 32);  // 1 warp does all the work
  const InvocationStream stream(b, launch, config_, 11, 0);
  WarpProgram program(stream, 0);
  std::map<OpKind, uint64_t> counts;
  WarpInstr instr;
  uint64_t total = 0;
  while (program.Next(instr)) {
    ++counts[instr.kind];
    ++total;
  }
  const double mem_frac =
      static_cast<double>(counts[OpKind::kLoad] + counts[OpKind::kStore]) /
      static_cast<double>(total);
  const double shared_frac = static_cast<double>(counts[OpKind::kSharedMem]) /
                             static_cast<double>(total);
  EXPECT_NEAR(mem_frac, 0.3, 0.01);
  EXPECT_NEAR(shared_frac, 0.1, 0.01);
}

TEST_F(ItraceTest, CoalescedKernelTouchesOneLinePerAccess) {
  KernelBehavior b = workloads::MemoryBoundBehavior(320'000, 4 << 20);
  b.coalescing = 1.0f;
  const InvocationStream stream(b, Launch(1, 32), config_, 13, 0);
  WarpProgram program(stream, 0);
  WarpInstr instr;
  while (program.Next(instr)) {
    if (instr.kind == OpKind::kLoad || instr.kind == OpKind::kStore) {
      EXPECT_EQ(instr.lines.size(), 1u);
    }
  }
}

TEST_F(ItraceTest, ScatteredKernelTouchesManyLines) {
  KernelBehavior b = workloads::IrregularBehavior(320'000, 64 << 20);
  b.coalescing = 0.0f;
  const InvocationStream stream(b, Launch(1, 32), config_, 13, 0);
  WarpProgram program(stream, 0);
  WarpInstr instr;
  bool saw_mem = false;
  while (program.Next(instr)) {
    if (instr.kind == OpKind::kLoad || instr.kind == OpKind::kStore) {
      saw_mem = true;
      EXPECT_EQ(instr.lines.size(),
                static_cast<size_t>(config_.warp_size));
    }
  }
  EXPECT_TRUE(saw_mem);
}

TEST_F(ItraceTest, AddressesStayInKernelRegion) {
  KernelBehavior b = workloads::MemoryBoundBehavior(640'000, 1 << 20);
  const uint64_t region = 0x7Full << 40;
  const InvocationStream stream(b, Launch(1, 32), config_, 17, region);
  WarpProgram program(stream, 0);
  WarpInstr instr;
  while (program.Next(instr)) {
    for (uint64_t line : instr.lines) {
      EXPECT_GE(line, region);
      EXPECT_LT(line, region + b.footprint_bytes + config_.line_bytes);
    }
  }
}

TEST_F(ItraceTest, DependencyRateFollowsIlp) {
  KernelBehavior b = workloads::ComputeBoundBehavior(3'200'000, 1 << 20);
  b.ilp = 4.0f;
  const InvocationStream stream(b, Launch(1, 32), config_, 19, 0);
  WarpProgram program(stream, 0);
  WarpInstr instr;
  uint64_t deps = 0, total = 0;
  while (program.Next(instr)) {
    deps += instr.depends_on_prev ? 1 : 0;
    ++total;
  }
  EXPECT_NEAR(static_cast<double>(deps) / static_cast<double>(total), 0.25,
              0.02);
}

TEST_F(ItraceTest, Fp16KernelEmitsFp16Ops) {
  KernelBehavior b = workloads::ComputeBoundBehavior(320'000, 1 << 20);
  b.fp16_fraction = 0.5f;
  b.fp32_fraction = 0.2f;
  const InvocationStream stream(b, Launch(1, 32), config_, 23, 0);
  WarpProgram program(stream, 0);
  WarpInstr instr;
  uint64_t fp16 = 0;
  while (program.Next(instr)) fp16 += instr.kind == OpKind::kFp16 ? 1 : 0;
  EXPECT_GT(fp16, 0u);
}

TEST_F(ItraceTest, SharedShapeMatchesPerWarpReference) {
  // A 16 KB footprint pins the hot set at the 16 KB tile: a ring of
  // about 128 lines (127 after exp/log rounding) that high-locality fresh
  // lines wrap many times over.
  KernelBehavior tile = workloads::MemoryBoundBehavior(0, 16 << 10);
  tile.locality = 0.9f;
  tile.mem_fraction = 0.6f;
  // Locality near 0 with a 64 MB footprint: a ring of tens of thousands
  // of lines (several MB of data), mostly still at its initial content.
  KernelBehavior wide = workloads::IrregularBehavior(0, 64 << 20);
  wide.locality = 0.05f;
  wide.coalescing = 0.5f;
  // The extremes: always reuse (the ring is never written) and never
  // reuse (it is never read), plus a store- and FP16-heavy mix.
  KernelBehavior always = workloads::MemoryBoundBehavior(0, 1 << 20);
  always.locality = 1.0f;
  KernelBehavior never = workloads::IrregularBehavior(0, 4 << 20);
  never.locality = 0.0f;
  never.store_fraction = 0.5f;
  never.fp16_fraction = 0.3f;
  struct Case {
    const char* name;
    KernelBehavior behavior;
    uint64_t instructions_per_warp;
  };
  const Case cases[] = {{"tile", tile, 40'000},
                        {"wide", wide, 40'000},
                        {"always", always, 5'000},
                        {"never", never, 5'000}};
  const LaunchConfig launch = Launch(8, 256);  // 64 warps
  const uint64_t region = 0x3Cull << 40;
  for (Case c : cases) {
    SCOPED_TRACE(c.name);
    c.behavior.instructions =
        c.instructions_per_warp * launch.TotalThreads();
    const InvocationStream stream(c.behavior, launch, config_, 29, region);
    // Started once, then restarted: the reused ring must not leak state.
    WarpProgram program;
    for (uint32_t warp : {0u, 1u, 7u, 63u, 1000u, 0u}) {
      SCOPED_TRACE(warp);
      program.Start(stream, warp);
      PerWarpReference reference(c.behavior, launch, config_, 29, region,
                                 warp);
      EXPECT_EQ(program.InstructionsTotal(), reference.InstructionsTotal());
      EXPECT_EQ(stream.hot_ring.size(), reference.RingEntries());
      WarpInstr got, want;
      uint64_t n = 0;
      while (reference.Next(want)) {
        ASSERT_TRUE(program.Next(got)) << "instruction " << n;
        ASSERT_EQ(got.kind, want.kind) << "instruction " << n;
        ASSERT_EQ(got.depends_on_prev, want.depends_on_prev)
            << "instruction " << n;
        ASSERT_EQ(got.lines, want.lines) << "instruction " << n;
        ++n;
      }
      EXPECT_FALSE(program.Next(got));
      EXPECT_EQ(n, c.instructions_per_warp);
      if (std::string(c.name) == "tile") {
        EXPECT_LE(reference.RingEntries(), 128u);
        EXPECT_GT(reference.FreshLines(), 10 * reference.RingEntries());
      }
      if (std::string(c.name) == "wide") {
        EXPECT_GT(reference.RingEntries() * config_.line_bytes,
                  uint64_t{4} << 20);
      }
    }
  }
}

}  // namespace
}  // namespace stemroot::sim
