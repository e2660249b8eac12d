#include "baselines/random_sampler.h"

#include <stdexcept>

#include "common/rng.h"
#include "common/str.h"
#include "common/telemetry.h"

namespace stemroot::baselines {

RandomSampler::RandomSampler(double probability)
    : probability_(probability) {
  if (!(probability > 0.0 && probability <= 1.0))
    throw std::invalid_argument("RandomSampler: probability not in (0, 1]");
}

std::string RandomSampler::Name() const {
  return Format("Random(%.3g%%)", probability_ * 100.0);
}

namespace {

/// Random sampling needs only the population size.
struct RandomStrata final : core::Strata {
  size_t num_invocations = 0;
};

}  // namespace

std::unique_ptr<const core::Strata> RandomSampler::Stratify(
    const KernelTrace& trace) const {
  if (trace.Empty())
    throw std::invalid_argument("RandomSampler: empty trace");
  auto strata = std::make_unique<RandomStrata>();
  strata->num_invocations = trace.NumInvocations();
  return strata;
}

core::SamplingPlan RandomSampler::Draw(const core::Strata& strata,
                                       uint64_t seed) const {
  const size_t n =
      core::StrataAs<RandomStrata>(strata, "RandomSampler").num_invocations;
  core::SamplingPlan plan;
  plan.method = Name();
  Rng rng(DeriveSeed(seed, 0x52414E44ULL));
  const double weight = 1.0 / probability_;
  for (uint32_t i = 0; i < n; ++i)
    if (rng.NextBool(probability_)) plan.entries.push_back({i, weight});
  if (plan.entries.empty()) {
    const uint32_t idx = static_cast<uint32_t>(rng.NextBounded(n));
    plan.entries.push_back({idx, static_cast<double>(n)});
  }
  plan.num_clusters = 1;
  telemetry::Count("baselines.random.plans");
  telemetry::Record("baselines.random.samples_per_plan",
                    static_cast<double>(plan.entries.size()));
  return plan;
}

}  // namespace stemroot::baselines
