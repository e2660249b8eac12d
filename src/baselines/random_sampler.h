/// \file
/// Uniform random kernel sampling: the paper's fallback baseline for the
/// HuggingFace suite (Sec. 5: "selecting each kernel independently with a
/// 0.1% probability") and a comparator everywhere else (10% on Rodinia).

#pragma once

#include "core/sampler.h"

namespace stemroot::baselines {

/// Bernoulli(p) per-invocation sampler; each selected invocation gets
/// weight 1/p. If the draw selects nothing, one invocation is forced so
/// the plan is never empty.
class RandomSampler : public core::Sampler {
 public:
  /// probability must be in (0, 1].
  explicit RandomSampler(double probability);

  std::string Name() const override;
  std::unique_ptr<const core::Strata> Stratify(
      const KernelTrace& trace) const override;
  core::SamplingPlan Draw(const core::Strata& strata,
                          uint64_t seed) const override;

 private:
  double probability_;
};

}  // namespace stemroot::baselines
