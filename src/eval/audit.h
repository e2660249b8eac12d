/// \file
/// Error-budget audit: does STEM's trustworthiness guarantee actually
/// hold, cluster by cluster, run by run?
///
/// The paper's contract (Sec. 3.2/3.3) is statistical: STEM sizes each
/// cluster's sample m_i so the estimated total stays within epsilon of
/// the ground truth at the chosen confidence. The audit observes that
/// contract instead of assuming it. For every final ROOT cluster of every
/// workload it reports, against the full-trace ground truth:
///
///   - the KKT-allocated sample size m_i and the draws the audited
///     sampler actually placed there,
///   - the predicted relative error at m_i (Eq. 2),
///   - the realized signed error of the cluster-total estimate, over
///     `trials` independently seeded plans (the sampler stratifies once
///     and trial r draws with base_seed + r -- the same stream
///     EvaluateRepeated uses, so audit trial r reproduces evaluation
///     rep r),
///   - the cluster's share of the total variance budget (the KKT view:
///     N_i^2 sigma_i^2 / m_i over the sum), and
///   - a CI-coverage summary: the fraction of trials whose realized
///     |error| stayed inside the predicted bound (expected ~= the
///     configured confidence when the error model is honest).
///
/// The reference partition and allocation are always STEM's own
/// (core::BuildStemClusters + SolveKkt under the audit's epsilon and
/// confidence), so the audit works for ANY registered sampler: auditing a
/// baseline shows exactly which epsilon-clusters it under-covers (zero or
/// too few draws -> realized error far outside the budget), which
/// aggregate error numbers average away.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/root.h"
#include "core/sampler.h"
#include "hw/gpu_spec.h"
#include "trace/trace.h"
#include "workloads/suite.h"

namespace stemroot::eval {

/// Audit knobs. `root.stem` carries the epsilon/confidence the budget is
/// audited against (defaults match the paper: 0.05 / 0.95).
struct AuditOptions {
  core::RootConfig root;
  uint32_t trials = 10;  ///< independently seeded plans per workload
  uint64_t seed = 42;    ///< master seed (Pipeline seed contract)
  double size_scale = 1.0;
  /// Restrict AuditSuite to these workloads (empty = whole suite).
  std::vector<std::string> only_workloads;
};

/// One cluster's budget-vs-reality row.
struct ClusterAuditRow {
  std::string kernel;       ///< kernel name the cluster came from
  uint32_t cluster_id = 0;  ///< index in the workload's cluster list
  uint64_t population = 0;  ///< N_i
  double mean_us = 0.0;     ///< mu_i
  double cov = 0.0;         ///< sigma_i / mu_i
  uint64_t m_allocated = 0; ///< KKT allocation under the audit config
  double mean_draws = 0.0;  ///< audited sampler's draws here, mean/trial
  double predicted_error = 0.0;   ///< Eq. 2 at m_allocated (relative)
  double mean_signed_error = 0.0; ///< mean over trials of (est-true)/true
  double mean_abs_error = 0.0;    ///< mean over trials of |est-true|/true
  double worst_abs_error = 0.0;   ///< max over trials
  double budget_share = 0.0;      ///< N^2 s^2 / m over the total (KKT view)
  double coverage = 0.0;  ///< fraction of trials with |error| <= predicted
  bool within_budget = false;  ///< mean_abs_error <= predicted_error
};

/// All cluster rows of one workload plus the joint (workload-total) view.
struct WorkloadAudit {
  std::string workload;
  std::vector<ClusterAuditRow> clusters;
  double joint_predicted_error = 0.0;  ///< KKT bound (<= epsilon)
  double total_mean_abs_error = 0.0;   ///< realized workload-total error
  double total_coverage = 0.0;  ///< trials with |total error| <= joint bound
  size_t ClustersWithinBudget() const;
};

/// The full audit: one entry per audited workload plus summary accessors.
struct AuditReport {
  std::string method;
  double epsilon = 0.0;
  double confidence = 0.0;
  uint32_t trials = 0;
  uint64_t seed = 0;
  std::vector<WorkloadAudit> workloads;

  size_t TotalClusters() const;
  size_t ClustersWithinBudget() const;
  /// Fraction of clusters with mean |realized| <= predicted (1.0 when no
  /// clusters). The acceptance gate: >= 0.95 for an honest error model.
  double WithinBudgetFraction() const;
  /// Mean per-cluster CI coverage over all clusters (1.0 when empty).
  double MeanCoverage() const;

  /// Per-workload tables (top `max_rows` clusters by budget share, 0 =
  /// all) plus a summary block.
  std::string ToText(size_t max_rows = 12) const;
  /// Machine-readable export, schema "stemroot-audit-v1".
  std::string ToJson() const;
};

/// Audit one profiled trace. `base_seed` seeds trial r's Draw with
/// base_seed + r; pass the Pipeline-derived sampler stream to reproduce
/// evaluation reps. Trials run in parallel over NumThreads() lanes and
/// merge in trial order, so the result is thread-count invariant. Runs
/// inside an "audit" telemetry span.
WorkloadAudit AuditWorkload(const KernelTrace& trace,
                            const core::Sampler& sampler,
                            const core::RootConfig& root, uint32_t trials,
                            uint64_t base_seed);

/// Generate + profile every selected workload of a suite (through
/// eval::Pipeline, master seed = options.seed) and audit the sampler on
/// each. The per-trial base seed follows the Pipeline contract:
/// DeriveSeed(options.seed, HashString(sampler.Name())).
AuditReport AuditSuite(workloads::SuiteId suite, const core::Sampler& sampler,
                       const hw::GpuSpec& gpu, const AuditOptions& options);

/// Validate an AuditReport::ToJson export (full parse + schema check);
/// used by the audit tests and available to tooling.
bool ValidateAuditJson(std::string_view json, std::string* error);

}  // namespace stemroot::eval
