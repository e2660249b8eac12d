#include "eval/dse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "common/telemetry.h"
#include "sim/sharded.h"

#include "core/sampler.h"
#include "eval/manifest.h"
#include "eval/pipeline.h"
#include "eval/regress.h"
#include "eval/runner.h"

namespace stemroot::eval {
namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

TEST(DseTest, StandardVariantsMatchTableFour) {
  const auto variants = StandardDseVariants(hw::GpuSpec::Rtx2080());
  ASSERT_EQ(variants.size(), 5u);
  EXPECT_EQ(variants[0].name, "Baseline");
  EXPECT_EQ(variants[1].spec.l2_bytes,
            hw::GpuSpec::Rtx2080().l2_bytes * 2);
  EXPECT_EQ(variants[2].spec.l2_bytes,
            hw::GpuSpec::Rtx2080().l2_bytes / 2);
  EXPECT_EQ(variants[3].spec.num_sms,
            hw::GpuSpec::Rtx2080().num_sms * 2);
  EXPECT_EQ(variants[4].spec.num_sms,
            hw::GpuSpec::Rtx2080().num_sms / 2);
}

TEST(DseTest, RetimePreservesOrderAndPositivity) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  const Pipeline pipeline = Pipeline::GenerateProfiled(
      {.suite = workloads::SuiteId::kRodinia,
       .workload = "lud",
       .options = {.seed = 3, .size_scale = 0.1}},
      gpu);
  const KernelTrace& trace = pipeline.Trace();
  const auto durations = RetimeTrace(trace, AnalyticTiming(gpu, 42));
  ASSERT_EQ(durations.size(), trace.NumInvocations());
  for (double d : durations) EXPECT_GT(d, 0.0);
}

TEST(DseTest, PlanBuiltOnBaselineTransfersToVariant) {
  // The Sec. 5.4 property: plans from the baseline profile keep low error
  // when ground truth is re-timed on modified hardware.
  hw::HardwareModel base(hw::GpuSpec::Rtx2080());
  KernelTrace trace = Pipeline::GenerateProfiled(
                          {.suite = workloads::SuiteId::kCasio,
                           .workload = "bert_infer",
                           .options = {.seed = 3, .size_scale = 0.02}},
                          base)
                          .Trace();

  core::StemRootSampler stem;
  std::vector<core::SamplingPlan> plans = {stem.BuildPlan(trace, 1)};

  for (const DseVariant& variant :
       StandardDseVariants(hw::GpuSpec::Rtx2080())) {
    hw::HardwareModel gpu(variant.spec);
    const auto durations = RetimeTrace(trace, AnalyticTiming(gpu, 99));
    const auto results =
        EvaluatePlansOnVariant(plans, durations, trace.WorkloadName());
    ASSERT_EQ(results.size(), 1u);
    EXPECT_LT(results[0].error_pct, 8.0) << variant.name;
  }
}

TEST(DseTest, CrossGpuH100ToH200StaysAccurate) {
  // Fig. 13: sampling decided on H100, evaluated on H200.
  hw::HardwareModel h100(hw::GpuSpec::H100());
  KernelTrace trace = Pipeline::GenerateProfiled(
                          {.suite = workloads::SuiteId::kCasio,
                           .workload = "bert_infer",
                           .options = {.seed = 5, .size_scale = 0.02}},
                          h100)
                          .Trace();
  core::StemRootSampler stem;
  const core::SamplingPlan plan = stem.BuildPlan(trace, 1);

  hw::HardwareModel h200(hw::GpuSpec::H200());
  const auto durations = RetimeTrace(trace, AnalyticTiming(h200, 7));
  const EvalResult result =
      EvaluatePlanOnDurations(plan, durations, "bert_infer");
  EXPECT_LT(result.error_pct, 10.0);
}

// ---------------------------------------------------------------------------
// DseSweep: the batched concurrent sweep (ISSUE satellite 4). The whole
// point grid runs concurrently, yet every result is byte-identical to a
// sequential loop of single-point evaluations.
// ---------------------------------------------------------------------------

/// Two small profiled Rodinia workloads with STEM plans, shared by all
/// sweep tests (building them dominates the test cost).
class DseSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
    static std::vector<KernelTrace> traces;
    static std::vector<std::vector<core::SamplingPlan>> plans;
    for (const char* name : {"hotspot", "lud"})
      traces.push_back(Pipeline::GenerateProfiled(
                           {.suite = workloads::SuiteId::kRodinia,
                            .workload = name,
                            .options = {.seed = 3, .size_scale = 0.05}},
                           gpu)
                           .Trace());
    core::StemRootSampler stem;
    for (const KernelTrace& trace : traces)
      plans.push_back({stem.BuildPlan(trace, 1)});
    static std::vector<DseWorkload> workloads_storage;
    for (size_t w = 0; w < traces.size(); ++w)
      workloads_storage.push_back({&traces[w], plans[w]});
    workloads_ = &workloads_storage;
    // Three variants keep the full-simulation cost in check.
    static std::vector<DseVariant> variants_storage =
        StandardDseVariants(hw::GpuSpec::Rtx2080());
    variants_storage.resize(3);
    variants_ = &variants_storage;
  }

  static const std::vector<DseWorkload>* workloads_;
  static const std::vector<DseVariant>* variants_;
};

const std::vector<DseWorkload>* DseSweepTest::workloads_ = nullptr;
const std::vector<DseVariant>* DseSweepTest::variants_ = nullptr;

void ExpectPointsIdentical(const DsePointResult& a, const DsePointResult& b) {
  EXPECT_EQ(a.variant, b.variant);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.variant_index, b.variant_index);
  EXPECT_EQ(a.workload_index, b.workload_index);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(Bits(a.full_cycles), Bits(b.full_cycles));
  ASSERT_EQ(a.methods.size(), b.methods.size());
  for (size_t m = 0; m < a.methods.size(); ++m) {
    EXPECT_EQ(a.methods[m].method, b.methods[m].method);
    EXPECT_EQ(Bits(a.methods[m].estimated_cycles),
              Bits(b.methods[m].estimated_cycles));
    EXPECT_EQ(Bits(a.methods[m].cost_cycles), Bits(b.methods[m].cost_cycles));
    EXPECT_EQ(a.methods[m].kernels_simulated, b.methods[m].kernels_simulated);
    EXPECT_EQ(Bits(a.methods[m].error_pct), Bits(b.methods[m].error_pct));
  }
}

TEST_F(DseSweepTest, ConcurrentSweepMatchesSequentialPointLoop) {
  DseSweepOptions options;
  options.seed = 99;
  options.sweep_threads = 4;
  const DseSweep sweep(*variants_, options);
  const DseSweepResult concurrent = sweep.Run(*workloads_);
  ASSERT_EQ(concurrent.points.size(),
            variants_->size() * workloads_->size());

  for (size_t vi = 0; vi < variants_->size(); ++vi)
    for (size_t wi = 0; wi < workloads_->size(); ++wi) {
      SCOPED_TRACE((*variants_)[vi].name + "/" +
                   (*workloads_)[wi].trace->WorkloadName());
      const DsePointResult serial =
          sweep.RunPoint(vi, (*workloads_)[wi], wi);
      ExpectPointsIdentical(concurrent.At(vi, wi), serial);
    }
}

TEST_F(DseSweepTest, SweepThreadCountNeverChangesResults) {
  DseSweepOptions options;
  options.seed = 99;
  // sim_shards > 1 inside each point exercises the nested-region path:
  // the engine degrades to serial inside the sweep's parallel region.
  options.shard.sim_shards = 2;
  options.sweep_threads = 1;
  const DseSweepResult one = DseSweep(*variants_, options).Run(*workloads_);
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    options.sweep_threads = threads;
    const DseSweepResult many =
        DseSweep(*variants_, options).Run(*workloads_);
    ASSERT_EQ(many.points.size(), one.points.size());
    for (size_t i = 0; i < one.points.size(); ++i)
      ExpectPointsIdentical(one.points[i], many.points[i]);
  }
}

TEST_F(DseSweepTest, PointSeedsAreStableAndDistinct) {
  DseSweepOptions options;
  options.seed = 1234;
  const DseSweep sweep(*variants_, options);
  std::vector<uint64_t> seeds;
  for (size_t vi = 0; vi < variants_->size(); ++vi)
    for (size_t wi = 0; wi < workloads_->size(); ++wi)
      seeds.push_back(sweep.PointSeed(vi, wi));
  for (size_t i = 0; i < seeds.size(); ++i)
    for (size_t j = i + 1; j < seeds.size(); ++j)
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
  // Stable across sweep instances (it is a pure seed derivation).
  EXPECT_EQ(DseSweep(*variants_, options).PointSeed(1, 1),
            sweep.PointSeed(1, 1));
}

TEST_F(DseSweepTest, PointManifestValidatesAndCarriesShardConfig) {
  DseSweepOptions options;
  options.seed = 7;
  options.shard.sim_shards = 2;
  options.shard.sim_threads = 3;
  options.shard.epoch_cycles = 1000;
  const DseSweep sweep(*variants_, options);
  const DsePointResult point = sweep.RunPoint(1, (*workloads_)[0], 0);
  const RunManifest manifest = point.ToManifest(options, "stemroot", "rodinia");

  EXPECT_EQ(manifest.command, "dse-point");
  EXPECT_TRUE(manifest.completed);
  EXPECT_EQ(manifest.config.gpu, (*variants_)[1].name);
  EXPECT_EQ(manifest.config.seed, point.seed);
  EXPECT_EQ(manifest.config.sim_shards, 2u);
  EXPECT_EQ(manifest.config.sim_threads, 3);
  EXPECT_EQ(manifest.config.epoch_cycles, 1000u);

  std::string error;
  EXPECT_TRUE(ValidateManifestJson(manifest.ToJson(/*pretty=*/true), &error))
      << error;
  // Round-trip keeps the shard block.
  RunManifest parsed;
  ASSERT_TRUE(
      RunManifest::FromJson(manifest.ToJson(/*pretty=*/true), parsed, &error))
      << error;
  EXPECT_EQ(parsed.config.sim_shards, 2u);
  EXPECT_EQ(parsed.config.sim_threads, 3);
  EXPECT_EQ(parsed.config.epoch_cycles, 1000u);
  EXPECT_EQ(parsed.Fingerprint(), manifest.Fingerprint());
}

TEST_F(DseSweepTest, FingerprintExcludesSimThreadsOnly) {
  DseSweepOptions options;
  options.seed = 7;
  options.shard.sim_shards = 2;
  const DseSweep sweep(*variants_, options);
  const DsePointResult point = sweep.RunPoint(0, (*workloads_)[0], 0);
  const RunManifest base = point.ToManifest(options);

  // sim_threads: pacing only -- same fingerprint, comparable (the §12
  // contract makes runs at different lane concurrency one series).
  DseSweepOptions threads = options;
  threads.shard.sim_threads = 8;
  const RunManifest with_threads = point.ToManifest(threads);
  EXPECT_EQ(base.Fingerprint(), with_threads.Fingerprint());
  EXPECT_TRUE(CompareManifests(base, with_threads).comparable);

  // epoch_cycles: wall-time knob -- splits the baseline series, but the
  // results are still comparable run-to-run.
  DseSweepOptions epoch = options;
  epoch.shard.epoch_cycles = 7;
  const RunManifest with_epoch = point.ToManifest(epoch);
  EXPECT_NE(base.Fingerprint(), with_epoch.Fingerprint());
  EXPECT_TRUE(CompareManifests(base, with_epoch).comparable);

  // sim_shards: modeling knob -- different fingerprint AND incomparable.
  DseSweepOptions shards = options;
  shards.shard.sim_shards = 4;
  const RunManifest with_shards = point.ToManifest(shards);
  EXPECT_NE(base.Fingerprint(), with_shards.Fingerprint());
  EXPECT_FALSE(CompareManifests(base, with_shards).comparable);
}

TEST_F(DseSweepTest, AccessorsRejectBadIndices) {
  DseSweepOptions options;
  const DseSweep sweep(*variants_, options);
  const DseSweepResult result = sweep.Run(*workloads_);
  EXPECT_THROW(result.At(variants_->size(), 0), std::out_of_range);
  EXPECT_THROW(result.At(0, workloads_->size()), std::out_of_range);
  EXPECT_THROW(result.MeanErrorPct(0, "no-such-method"), std::out_of_range);
  EXPECT_GT(result.MeanErrorPct(0, "STEM"), 0.0);
  EXPECT_THROW(DseSweep({}, options), std::invalid_argument);
  DseSweepOptions bad = options;
  bad.sweep_threads = -2;
  EXPECT_THROW(DseSweep(*variants_, bad), std::invalid_argument);
}

/// The sim.* and dse.points counter deltas of `fn` (telemetry on).
template <typename Fn>
std::map<std::string, uint64_t> SimCounterDeltas(Fn&& fn) {
  telemetry::SetEnabled(true);
  const telemetry::Snapshot before = telemetry::Capture();
  fn();
  const telemetry::Snapshot after = telemetry::Capture();
  telemetry::SetEnabled(false);
  std::map<std::string, uint64_t> deltas;
  for (const auto& [name, value] : telemetry::CounterDeltas(before, after))
    if (name.rfind("sim.", 0) == 0 || name == "dse.points")
      deltas[name] = value;
  return deltas;
}

TEST_F(DseSweepTest, SkewedTasksMatchRunPointAtAnyThreadCount) {
  // Workloads ~35x apart in warp-instruction mass, with plans of very
  // different sizes (one entry, every fourth invocation, STEM), on two SM
  // counts: heaviest-first interleaves tasks of different points, so the
  // claim order is far from point order.
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  std::vector<KernelTrace> traces;
  for (const char* name : {"lud", "cfd"})
    traces.push_back(Pipeline::GenerateProfiled(
                         {.suite = workloads::SuiteId::kRodinia,
                          .workload = name,
                          .options = {.seed = 5, .size_scale = 0.02}},
                         gpu)
                         .Trace());
  ASSERT_GT(sim::FullSimMass(traces[1]), 10.0 * sim::FullSimMass(traces[0]));
  core::StemRootSampler stem;
  std::vector<std::vector<core::SamplingPlan>> plans(traces.size());
  for (size_t w = 0; w < traces.size(); ++w) {
    const uint32_t n = static_cast<uint32_t>(traces[w].NumInvocations());
    core::SamplingPlan one{.method = "one", .entries = {{n / 2, double(n)}}};
    core::SamplingPlan quarter{.method = "quarter", .entries = {}};
    for (uint32_t i = 0; i < n; i += 4) quarter.entries.push_back({i, 4.0});
    plans[w] = {std::move(one), std::move(quarter), stem.BuildPlan(traces[w], 1)};
  }
  std::vector<DseWorkload> workloads;
  for (size_t w = 0; w < traces.size(); ++w)
    workloads.push_back({&traces[w], plans[w]});
  const std::vector<DseVariant> all =
      StandardDseVariants(hw::GpuSpec::Rtx2080());
  const std::vector<DseVariant> variants = {all[0], all[4]};

  DseSweepOptions options;
  options.seed = 17;
  const DseSweep serial_sweep(variants, options);
  std::vector<DsePointResult> serial;
  const auto serial_counters = SimCounterDeltas([&] {
    for (size_t vi = 0; vi < variants.size(); ++vi)
      for (size_t wi = 0; wi < workloads.size(); ++wi)
        serial.push_back(serial_sweep.RunPoint(vi, workloads[wi], wi));
  });
  EXPECT_EQ(serial_counters.at("dse.points"), serial.size());

  for (int threads : {1, 3, 8}) {
    SCOPED_TRACE(threads);
    options.sweep_threads = threads;
    const DseSweep sweep(variants, options);
    DseSweepResult result;
    const auto counters =
        SimCounterDeltas([&] { result = sweep.Run(workloads); });
    EXPECT_EQ(counters, serial_counters);
    ASSERT_EQ(result.points.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
      ExpectPointsIdentical(result.points[i], serial[i]);
  }

  // A plan past the trace end fails Run exactly as it fails RunPoint.
  std::vector<core::SamplingPlan> bad_plans = plans[0];
  bad_plans.push_back(
      {.method = "bad",
       .entries = {{static_cast<uint32_t>(traces[0].NumInvocations()), 1.0}}});
  const std::vector<DseWorkload> bad = {workloads[1], {&traces[0], bad_plans}};
  std::string point_error, sweep_error;
  try {
    serial_sweep.RunPoint(0, bad[1], 1);
  } catch (const std::out_of_range& e) {
    point_error = e.what();
  }
  try {
    serial_sweep.Run(bad);
  } catch (const std::out_of_range& e) {
    sweep_error = e.what();
  }
  EXPECT_FALSE(point_error.empty());
  EXPECT_EQ(sweep_error, point_error);
}

}  // namespace
}  // namespace stemroot::eval
