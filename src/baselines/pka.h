/// \file
/// PKA — Principal Kernel Analysis (Avalos Baddouh et al., MICRO '21),
/// reimplemented per the paper's Table 1 summary: k-means over 12
/// instruction-level metrics from hardware profiling, k swept 1..20 with
/// an elbow criterion, and the *first-chronological* kernel of each
/// cluster chosen as the representative.
///
/// The hand-tuned variant (random representative instead of first
/// chronological) reproduces the paper's Sec. 5.1 fix for gaussian /
/// heartwall-style workloads.

#pragma once

#include "core/sampler.h"

namespace stemroot::baselines {

/// PKA knobs.
struct PkaConfig {
  uint32_t max_k = 20;
  double elbow_threshold = 0.02;
  /// false = first-chronological representative (PKA as published);
  /// true = random representative (the paper's hand-tuned variant).
  bool random_representative = false;
};

/// PKA sampler.
class PkaSampler : public core::Sampler {
 public:
  explicit PkaSampler(PkaConfig config = {});

  std::string Name() const override;
  bool Deterministic() const override {
    return !config_.random_representative;
  }
  std::unique_ptr<const core::Strata> Stratify(
      const KernelTrace& trace) const override;
  core::SamplingPlan Draw(const core::Strata& strata,
                          uint64_t seed) const override;

 private:
  PkaConfig config_;
};

}  // namespace stemroot::baselines
