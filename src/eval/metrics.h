/// \file
/// Sampled-simulation quality metrics (paper Sec. 3.1 / Sec. 5):
/// sampling error (Eq. 1), speedup (full cost / sampled cost), and the
/// paper's averaging conventions (harmonic mean for speedup, arithmetic
/// mean for error, 10 repetitions per experiment).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/plan.h"
#include "core/sampler.h"
#include "trace/trace.h"

namespace stemroot::eval {

/// Quality of one sampling plan on one workload.
struct EvalResult {
  std::string method;
  std::string workload;
  double speedup = 0.0;            ///< full duration / sampled duration
  double error_pct = 0.0;          ///< Eq. (1), percent
  double theoretical_error_pct = 0.0;  ///< STEM bound when applicable
  size_t num_samples = 0;          ///< plan entries
  size_t num_clusters = 0;
  double estimated_total_us = 0.0;
  double true_total_us = 0.0;
};

/// Evaluate a plan against the trace's own profiled durations (the
/// profile-based evaluation of Table 3 / Figs. 7-9).
EvalResult EvaluatePlan(const KernelTrace& trace,
                        const core::SamplingPlan& plan);

/// Evaluate a plan against externally supplied durations (e.g. re-timed on
/// a different microarchitecture -- Table 4 / Figs. 12-13). durations_us
/// must be per-invocation and positive.
EvalResult EvaluatePlanOnDurations(const core::SamplingPlan& plan,
                                   std::span<const double> durations_us,
                                   const std::string& workload);

/// Stratify the trace once, draw `reps` plans from it with distinct seeds
/// (1 if the sampler is deterministic) and average per the paper's
/// conventions: harmonic-mean speedup, arithmetic-mean error.
/// Sample/cluster counts are from the first run. Draws execute in parallel
/// over NumThreads() lanes; rep r always uses seed base_seed + r and
/// results are accumulated in rep order, so the output is identical at
/// any thread count and rep r equals sampler.BuildPlan(trace,
/// base_seed + r). Requires `sampler.Draw` to be const-thread-safe (all
/// in-tree samplers are).
EvalResult EvaluateRepeated(const core::Sampler& sampler,
                            const KernelTrace& trace, uint32_t reps,
                            uint64_t base_seed);

/// Suite-level aggregation of per-workload (already averaged) results of
/// one method: harmonic-mean speedup, arithmetic-mean error.
EvalResult AggregateSuite(std::span<const EvalResult> rows,
                          const std::string& method);

}  // namespace stemroot::eval
