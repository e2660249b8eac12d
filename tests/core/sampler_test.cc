#include "core/sampler.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/sampler_registry.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "hw/hardware_model.h"
#include "workloads/casio.h"
#include "workloads/rodinia.h"

namespace stemroot::core {
namespace {

class StemSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = workloads::MakeCasio("bert_infer", 31, 0.05);
    hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
    gpu.ProfileTrace(trace_, 2);
  }
  KernelTrace trace_;
  StemRootSampler sampler_;
};

TEST_F(StemSamplerTest, PlanIsValidAndWeightCoversWorkload) {
  const SamplingPlan plan = sampler_.BuildPlan(trace_, 1);
  EXPECT_NO_THROW(plan.Validate(trace_.NumInvocations()));
  EXPECT_EQ(plan.method, "STEM");
  EXPECT_GT(plan.NumSamples(), 0u);
  EXPECT_NEAR(plan.TotalWeight(),
              static_cast<double>(trace_.NumInvocations()),
              trace_.NumInvocations() * 1e-9);
}

TEST_F(StemSamplerTest, EstimateWithinTheoreticalBound) {
  const SamplingPlan plan = sampler_.BuildPlan(trace_, 1);
  const double truth = trace_.TotalDurationUs();
  const double estimate = plan.EstimateTotalUs(trace_);
  EXPECT_LT(std::abs(estimate - truth) / truth,
            sampler_.Config().root.stem.epsilon);
  EXPECT_LE(plan.theoretical_error,
            sampler_.Config().root.stem.epsilon * 1.0001);
}

TEST_F(StemSamplerTest, SamplesFarFewerThanWorkload) {
  const SamplingPlan plan = sampler_.BuildPlan(trace_, 1);
  EXPECT_LT(plan.DistinctInvocations().size(),
            trace_.NumInvocations() / 4);
}

TEST_F(StemSamplerTest, DeterministicGivenSeed) {
  const SamplingPlan a = sampler_.BuildPlan(trace_, 5);
  const SamplingPlan b = sampler_.BuildPlan(trace_, 5);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].invocation, b.entries[i].invocation);
    EXPECT_DOUBLE_EQ(a.entries[i].weight, b.entries[i].weight);
  }
  EXPECT_FALSE(sampler_.Deterministic());  // different seeds -> new draws
}

TEST_F(StemSamplerTest, ClusterCountExceedsKernelCount) {
  // ROOT must split at least the multi-context kernels beyond one
  // cluster per name.
  const SamplingPlan plan = sampler_.BuildPlan(trace_, 1);
  EXPECT_GT(plan.num_clusters, trace_.NumKernelTypes());
}

TEST_F(StemSamplerTest, TighterEpsilonSamplesMore) {
  StemRootConfig tight;
  tight.root.stem.epsilon = 0.01;
  StemRootConfig loose;
  loose.root.stem.epsilon = 0.25;
  const SamplingPlan plan_tight =
      StemRootSampler(tight).BuildPlan(trace_, 1);
  const SamplingPlan plan_loose =
      StemRootSampler(loose).BuildPlan(trace_, 1);
  EXPECT_GT(plan_tight.NumSamples(), plan_loose.NumSamples());
}

TEST_F(StemSamplerTest, RejectsUnprofiledTrace) {
  KernelTrace raw = workloads::MakeCasio("bert_infer", 1, 0.01);
  EXPECT_THROW(sampler_.BuildPlan(raw, 1), std::invalid_argument);
  KernelTrace empty("empty");
  EXPECT_THROW(sampler_.BuildPlan(empty, 1), std::invalid_argument);
}

TEST(StemSamplerHeartwallTest, CatchesTheShortFirstInvocation) {
  // heartwall: first-chronological sampling underestimates by ~99.9%
  // (Sec. 5.1); STEM's estimate must stay within epsilon.
  KernelTrace trace = workloads::MakeRodinia("heartwall", 13, 1.0);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(trace, 2);
  StemRootSampler sampler;
  const SamplingPlan plan = sampler.BuildPlan(trace, 1);
  const double truth = trace.TotalDurationUs();
  const double estimate = plan.EstimateTotalUs(trace);
  EXPECT_LT(std::abs(estimate - truth) / truth, 0.05);
}

TEST(SamplingPlanTest, EstimateAndCostHelpers) {
  SamplingPlan plan;
  plan.entries = {{0, 2.0}, {2, 3.0}, {0, 2.0}};
  const std::vector<double> durations = {10.0, 99.0, 20.0};
  EXPECT_DOUBLE_EQ(plan.EstimateTotalUs(durations),
                   2.0 * 10 + 3.0 * 20 + 2.0 * 10);
  // Distinct cost counts invocation 0 once.
  EXPECT_DOUBLE_EQ(plan.SampledCostUs(durations), 10.0 + 20.0);
  EXPECT_EQ(plan.DistinctInvocations(), (std::vector<uint32_t>{0, 2}));
  EXPECT_DOUBLE_EQ(plan.TotalWeight(), 7.0);
}

TEST(SamplingPlanTest, ValidationCatchesBadEntries) {
  SamplingPlan plan;
  plan.entries = {{5, 1.0}};
  EXPECT_THROW(plan.Validate(3), std::out_of_range);
  plan.entries = {{0, 0.0}};
  EXPECT_THROW(plan.Validate(3), std::out_of_range);
  const std::vector<double> durations = {1.0};
  plan.entries = {{2, 1.0}};
  EXPECT_THROW(plan.EstimateTotalUs(durations), std::out_of_range);
  EXPECT_THROW(plan.SampledCostUs(durations), std::out_of_range);
}

// ---------------------------------------------------------------------------
// The two-phase contract: Stratify once, Draw per seed.
// ---------------------------------------------------------------------------

/// FNV-1a over the bytes of every plan field, seeds 0..9 in order.
class PlanHash {
 public:
  void Add(const SamplingPlan& plan) {
    Bytes(plan.method.data(), plan.method.size());
    Value<uint64_t>(plan.num_clusters);
    Value(plan.theoretical_error);
    Value<uint64_t>(plan.entries.size());
    for (const SampleEntry& e : plan.entries) {
      Value(e.invocation);
      Value(e.weight);
    }
  }
  uint64_t Get() const { return h_; }

 private:
  void Bytes(const void* data, size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Value(T v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t h_ = 1469598103934665603ULL;
};

struct SplitCase {
  const char* workload;
  const char* label;  ///< registry name, or name+variant
  uint64_t hash;      ///< BuildPlan at seeds 0..9 before the split
};

/// Fingerprints of the single-phase BuildPlan, recorded before samplers
/// were split into Stratify and Draw: every registered sampler with its
/// default parameters, plus the seed-dependent variants (random
/// representatives, a denser random sampler).
constexpr SplitCase kPreSplitPlans[] = {
    {"bert_infer", "photon", 0x1374a6c0d5896cffULL},
    {"bert_infer", "pka", 0xa5c71d9eee618cadULL},
    {"bert_infer", "random", 0x8afa2c965d37670cULL},
    {"bert_infer", "sieve", 0x8af58f74d63b5e63ULL},
    {"bert_infer", "stem", 0x012216d190276871ULL},
    {"bert_infer", "tbpoint", 0xe8153c9d010f1467ULL},
    {"bert_infer", "pka+random_rep", 0xdea6b5e3b748999cULL},
    {"bert_infer", "sieve+random_rep", 0x926d19b8a12cdfacULL},
    {"bert_infer", "random+p0.05", 0xe3cb8d67b605a625ULL},
    {"gaussian", "photon", 0x2d9af6e28314447fULL},
    {"gaussian", "pka", 0xa5c52263ac57d973ULL},
    {"gaussian", "random", 0xbd05a154e21e989aULL},
    {"gaussian", "sieve", 0x992bb730031b521fULL},
    {"gaussian", "stem", 0xc6045158e8ca0aadULL},
    {"gaussian", "tbpoint", 0xc75636b9978ca69dULL},
    {"gaussian", "pka+random_rep", 0xb1d51235cd038be9ULL},
    {"gaussian", "sieve+random_rep", 0x13f90ff1b3bc09c8ULL},
    {"gaussian", "random+p0.05", 0x43584b63383efa53ULL},
};

std::unique_ptr<Sampler> MakeCaseSampler(const std::string& label) {
  baselines::EnsureBuiltinSamplers();
  const SamplerRegistry& registry = SamplerRegistry::Global();
  if (label == "pka+random_rep" || label == "sieve+random_rep")
    return registry.Create(label.substr(0, label.find('+')),
                           SamplerParams().Set("random_representative", true));
  if (label == "random+p0.05")
    return registry.Create("random", SamplerParams().Set("probability", 0.05));
  return registry.Create(label);
}

KernelTrace SplitTrace(const std::string& workload) {
  const bool casio = workload == "bert_infer";
  return eval::Pipeline::GenerateProfiled(
             casio ? workloads::SuiteId::kCasio : workloads::SuiteId::kRodinia,
             workload, hw::GpuSpec::Rtx2080(),
             {.seed = 7, .size_scale = casio ? 0.02 : 0.2})
      .Trace();
}

TEST(SamplerSplitTest, DrawFromOneStrataMatchesPreSplitPlans) {
  // Every registered sampler is pinned on both traces.
  baselines::EnsureBuiltinSamplers();
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    size_t pinned = 0;
    for (const SplitCase& c : kPreSplitPlans) pinned += name == c.label;
    EXPECT_EQ(pinned, 2u) << name;
  }
  for (const char* workload : {"bert_infer", "gaussian"}) {
    const KernelTrace trace = SplitTrace(workload);
    for (const SplitCase& c : kPreSplitPlans) {
      if (std::strcmp(c.workload, workload) != 0) continue;
      const auto sampler = MakeCaseSampler(c.label);
      const std::unique_ptr<const Strata> strata = sampler->Stratify(trace);
      PlanHash drawn;
      for (uint64_t seed = 0; seed < 10; ++seed)
        drawn.Add(sampler->Draw(*strata, seed));
      EXPECT_EQ(drawn.Get(), c.hash) << workload << " / " << c.label;
    }
  }
}

TEST(SamplerSplitTest, DrawRejectsAnotherSamplersStrata) {
  const KernelTrace trace = SplitTrace("gaussian");
  const StemRootSampler stem;
  const auto pka = MakeCaseSampler("pka");
  const std::unique_ptr<const Strata> pka_strata = pka->Stratify(trace);
  EXPECT_THROW(stem.Draw(*pka_strata, 1), std::invalid_argument);
  const std::unique_ptr<const Strata> stem_strata = stem.Stratify(trace);
  EXPECT_THROW(pka->Draw(*stem_strata, 1), std::invalid_argument);
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// BuildStemClusters with telemetry and logical accounting on, at a
/// given thread count.
struct ClusterRun {
  StemClustering clustering;
  std::string counters_json;
  std::string distributions_json;
  uint64_t root_peak = 0;
};

ClusterRun ClusterAtThreads(const KernelTrace& trace, int threads) {
  SetNumThreads(threads);
  telemetry::SetEnabled(true);
  telemetry::Reset();
  resource::SetAccountingEnabled(true);
  resource::ResetAccounting();

  ClusterRun run;
  run.clustering = BuildStemClusters(trace, RootConfig{});
  const telemetry::Snapshot snapshot = telemetry::Capture();
  run.counters_json = snapshot.CountersJson();
  run.distributions_json = snapshot.DistributionsJson();
  run.root_peak = resource::LogicalPeaks()["root"];

  resource::ResetAccounting();
  resource::SetAccountingEnabled(false);
  telemetry::Reset();
  telemetry::SetEnabled(false);
  SetNumThreads(0);
  return run;
}

TEST(StemClustersTest, PerKernelRootIsThreadCountInvariant) {
  const KernelTrace trace = SplitTrace("bert_infer");
  const ClusterRun one = ClusterAtThreads(trace, 1);
  const ClusterRun four = ClusterAtThreads(trace, 4);

  ASSERT_GT(one.clustering.clusters.size(), 1u);
  ASSERT_EQ(one.clustering.clusters.size(), four.clustering.clusters.size());
  EXPECT_EQ(one.clustering.kernel_ids, four.clustering.kernel_ids);
  for (size_t i = 0; i < one.clustering.clusters.size(); ++i) {
    const RootCluster& a = one.clustering.clusters[i];
    const RootCluster& b = four.clustering.clusters[i];
    EXPECT_EQ(a.members, b.members) << i;
    EXPECT_EQ(a.depth, b.depth) << i;
    EXPECT_EQ(a.stats.n, b.stats.n) << i;
    EXPECT_EQ(Bits(a.stats.mean), Bits(b.stats.mean)) << i;
    EXPECT_EQ(Bits(a.stats.stddev), Bits(b.stats.stddev)) << i;
  }
  EXPECT_NE(one.counters_json.find("core.kmeans.runs"), std::string::npos);
  EXPECT_EQ(one.counters_json, four.counters_json);
  EXPECT_EQ(one.distributions_json, four.distributions_json);
  EXPECT_GT(one.root_peak, 0u);
  EXPECT_EQ(one.root_peak, four.root_peak);
}

}  // namespace
}  // namespace stemroot::core
