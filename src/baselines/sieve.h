/// \file
/// Sieve — stratified GPU-compute workload sampling (Naderan-Tahan et al.,
/// ISPASS '23), reimplemented per the paper's Table 1 / Sec. 7.2 summary:
///
///  - the only signature is the kernel name + dynamic instruction count
///    (collected with NVBit);
///  - kernels (by name) are stratified into three groups by the variation
///    (CoV) of instruction counts across invocations of the same code;
///  - stable kernels contribute a single sample; variable kernels are
///    optionally subdivided by KDE mode detection on instruction counts
///    (the paper disables this on CASIO as it oversamples);
///  - the representative is the first-chronological invocation among those
///    with the *dominant CTA size*.

#pragma once

#include "core/sampler.h"

namespace stemroot::baselines {

/// Sieve knobs.
struct SieveConfig {
  /// CoV below which a kernel's instruction count is considered constant.
  double stable_cov = 0.05;
  /// CoV above which a kernel is "highly variable" (third stratum).
  double variable_cov = 0.5;
  /// Subdivide variable kernels by KDE modes on log instruction count.
  bool use_kde = true;
  /// KDE: number of histogram bins used for mode detection.
  size_t kde_bins = 64;
  /// Hand-tuned variant: random representative instead of
  /// first-chronological (paper Sec. 5.1).
  bool random_representative = false;
};

/// Sieve sampler.
class SieveSampler : public core::Sampler {
 public:
  explicit SieveSampler(SieveConfig config = {});

  std::string Name() const override;
  bool Deterministic() const override {
    return !config_.random_representative;
  }
  std::unique_ptr<const core::Strata> Stratify(
      const KernelTrace& trace) const override;
  core::SamplingPlan Draw(const core::Strata& strata,
                          uint64_t seed) const override;

 private:
  SieveConfig config_;
};

}  // namespace stemroot::baselines
