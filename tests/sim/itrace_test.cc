#include "sim/itrace.h"

#include <gtest/gtest.h>

#include <map>

#include "workloads/context_model.h"

namespace stemroot::sim {
namespace {

LaunchConfig Launch(uint32_t ctas, uint32_t threads) {
  LaunchConfig launch;
  launch.grid_x = ctas;
  launch.block_x = threads;
  return launch;
}

class ItraceTest : public ::testing::Test {
 protected:
  SimConfig config_ = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
};

TEST_F(ItraceTest, InstructionCountMatchesPerThreadWork) {
  KernelBehavior b = workloads::ComputeBoundBehavior(1'024'000, 1 << 20);
  const LaunchConfig launch = Launch(4, 256);  // 1024 threads
  WarpProgram program(b, launch, config_, 1, 0, 0);
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
  WarpProgram p1(b, launch, config_, 7, 0x42, 3);
  WarpProgram p2(b, launch, config_, 7, 0x42, 3);
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
  WarpProgram p1(b, launch, config_, 7, 0x42, 0);
  WarpProgram p2(b, launch, config_, 7, 0x42, 1);
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
  WarpProgram program(b, launch, config_, 11, 0, 0);
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
  WarpProgram program(b, Launch(1, 32), config_, 13, 0, 0);
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
  WarpProgram program(b, Launch(1, 32), config_, 13, 0, 0);
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
  WarpProgram program(b, Launch(1, 32), config_, 17, region, 0);
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
  WarpProgram program(b, Launch(1, 32), config_, 19, 0, 0);
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
  WarpProgram program(b, Launch(1, 32), config_, 23, 0, 0);
  WarpInstr instr;
  uint64_t fp16 = 0;
  while (program.Next(instr)) fp16 += instr.kind == OpKind::kFp16 ? 1 : 0;
  EXPECT_GT(fp16, 0u);
}

}  // namespace
}  // namespace stemroot::sim
