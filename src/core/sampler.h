/// \file
/// Sampler interface + the STEM+ROOT sampler (the paper's contribution).
///
/// Pipeline (paper Fig. 3/5): group invocations by kernel name -> ROOT
/// hierarchically clusters each name's execution-time population -> STEM's
/// joint KKT solver sizes samples across ALL final clusters at once
/// (Sec. 3.3 optimizes across clusters from different kernels as well as
/// peaks of the same kernel) -> random sampling with replacement inside
/// each cluster (i.i.d. for the CLT, Sec. 3.5), weighting each draw by
/// N_i / m_i.
///
/// Every sampler runs in two phases: Stratify (everything that depends
/// only on the trace and the sampler's config -- for STEM the first three
/// steps above) and Draw (the per-seed step). Repeated callers stratify
/// once per trace and draw once per rep.

#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/kkt.h"
#include "core/plan.h"
#include "core/root.h"
#include "trace/trace.h"

namespace stemroot::core {

/// The seed-independent result of Sampler::Stratify. Each sampler derives
/// its own type; callers hold it opaquely and hand it back to Draw of a
/// sampler of the same type. Immutable once built, so concurrent Draws
/// may share one.
class Strata {
 public:
  virtual ~Strata() = default;
};

/// Strata of a sampler whose whole plan is seed-independent (first-
/// chronological or centroid representatives): Draw returns this plan.
struct FixedPlanStrata final : Strata {
  SamplingPlan plan;
};

/// Abstract kernel-level sampler. Implementations: StemRootSampler here,
/// plus the baselines in src/baselines (PKA, Sieve, Photon, Random,
/// TBPoint).
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Display name used in reports ("STEM", "PKA", ...).
  virtual std::string Name() const = 0;

  /// True when Draw ignores the seed (first-chronological selection);
  /// evaluators then skip repeated runs.
  virtual bool Deterministic() const { return false; }

  /// Phase 1: a pure function of the profiled trace (durations must be
  /// filled) and the sampler's config. Throws std::invalid_argument on an
  /// empty or unusable trace.
  virtual std::unique_ptr<const Strata> Stratify(
      const KernelTrace& trace) const = 0;

  /// Phase 2: one plan from `strata`, which must come from Stratify of a
  /// sampler of this type (std::invalid_argument otherwise). `seed` feeds
  /// every randomized choice so repeated experiment runs (the paper
  /// averages 10) differ. Const-thread-safe in every in-tree sampler.
  virtual SamplingPlan Draw(const Strata& strata, uint64_t seed) const = 0;

  /// The one plan-building path: Draw(*Stratify(trace), seed).
  SamplingPlan BuildPlan(const KernelTrace& trace, uint64_t seed) const {
    return Draw(*Stratify(trace), seed);
  }
};

/// Checked downcast for Draw implementations: `strata` must be exactly a
/// T, else std::invalid_argument naming `who`.
template <typename T>
const T& StrataAs(const Strata& strata, const char* who) {
  if (typeid(strata) != typeid(T))
    throw std::invalid_argument(std::string(who) +
                                ": strata built by another sampler type");
  return static_cast<const T&>(strata);
}

/// STEM+ROOT configuration.
struct StemRootConfig {
  RootConfig root;  ///< includes the StemConfig (epsilon, confidence)
};

/// The clustering front half of STEM+ROOT (steps 1+2: group by kernel
/// name, ROOT-cluster each group), shared by StemRootSampler::Stratify
/// and the error-budget audit (eval/audit.h) so both always see the same
/// partition.
struct StemClustering {
  /// Final clusters over the whole trace; members index the timeline.
  std::vector<RootCluster> clusters;
  /// Kernel id of each cluster, index-aligned with `clusters`.
  std::vector<uint32_t> kernel_ids;
};

/// Deterministic for a given (trace, config): ROOT clustering draws no
/// randomness. Kernel groups are clustered in parallel over NumThreads()
/// lanes and merged in kernel-id order, so the clusters, the telemetry
/// counters and the logical "root" peak are identical at any thread
/// count. Throws std::invalid_argument on an empty or unprofiled trace.
/// Runs inside the "cluster" telemetry span.
StemClustering BuildStemClusters(const KernelTrace& trace,
                                 const RootConfig& config);

/// STEM's strata: steps 1-3, the ROOT partition plus the joint KKT sizing
/// over every final cluster.
struct StemStrata final : Strata {
  StemClustering clustering;
  KktSolution solution;  ///< index-aligned with clustering.clusters
};

/// The proposed sampler.
class StemRootSampler : public Sampler {
 public:
  explicit StemRootSampler(StemRootConfig config = {});

  std::string Name() const override { return "STEM"; }
  std::unique_ptr<const Strata> Stratify(
      const KernelTrace& trace) const override;
  SamplingPlan Draw(const Strata& strata, uint64_t seed) const override;

  const StemRootConfig& Config() const { return config_; }

 private:
  StemRootConfig config_;
};

}  // namespace stemroot::core
