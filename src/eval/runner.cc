#include "eval/runner.h"

#include <algorithm>

#include "common/log.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "eval/pipeline.h"

namespace stemroot::eval {

void SuiteResults::Reindex() const {
  if (indexed_rows_ > rows.size()) {
    // Rows were removed; the incremental index is stale. Rebuild.
    indexed_rows_ = 0;
    method_order_.clear();
    by_method_.clear();
    by_workload_.clear();
  }
  for (; indexed_rows_ < rows.size(); ++indexed_rows_) {
    const EvalResult& row = rows[indexed_rows_];
    std::vector<size_t>& method_rows = by_method_[row.method];
    if (method_rows.empty()) method_order_.push_back(row.method);
    method_rows.push_back(indexed_rows_);
    by_workload_[row.workload].push_back(indexed_rows_);
  }
}

std::vector<EvalResult> SuiteResults::ForWorkload(
    const std::string& workload) const {
  Reindex();
  std::vector<EvalResult> out;
  const auto it = by_workload_.find(workload);
  if (it == by_workload_.end()) return out;
  out.reserve(it->second.size());
  for (size_t i : it->second) out.push_back(rows[i]);
  return out;
}

EvalResult SuiteResults::Aggregate(const std::string& method) const {
  Reindex();
  const auto it = by_method_.find(method);
  if (it == by_method_.end())
    return AggregateSuite(rows, method);  // throws the canonical error
  std::vector<EvalResult> method_rows;
  method_rows.reserve(it->second.size());
  for (size_t i : it->second) method_rows.push_back(rows[i]);
  return AggregateSuite(method_rows, method);
}

std::vector<std::string> SuiteResults::Methods() const {
  Reindex();
  return method_order_;
}

SuiteResults RunSuite(const SuiteRunConfig& config,
                      const hw::HardwareModel& gpu,
                      std::span<const core::Sampler* const> samplers) {
  telemetry::Span suite_span("suite");
  std::vector<std::string> names;
  for (const std::string& name : workloads::SuiteWorkloads(config.suite)) {
    if (!config.only_workloads.empty() &&
        std::find(config.only_workloads.begin(),
                  config.only_workloads.end(),
                  name) == config.only_workloads.end())
      continue;
    names.push_back(name);
  }
  telemetry::Count("eval.suite_workloads", names.size());
  telemetry::Count("eval.suite_pairs", names.size() * samplers.size());

  // One task per workload: the trace is generated and profiled once (via
  // the Pipeline facade, which owns the per-stage seed derivations), then
  // every sampler is evaluated against it. Each task's randomness is fully
  // derived from (config.seed, workload name, sampler name), and the
  // per-task row vectors are concatenated in input order below, so the
  // result is independent of the parallel schedule.
  std::vector<std::vector<EvalResult>> per_workload = ParallelMap(
      names.size(), [&](size_t w) {
        Inform("RunSuite: %s/%s", workloads::SuiteName(config.suite),
               names[w].c_str());
        Pipeline pipeline = Pipeline::GenerateProfiled(
            {.suite = config.suite,
             .workload = names[w],
             .options = {.seed = config.seed,
                         .size_scale = config.size_scale}},
            gpu, gpu.Spec().name);
        std::vector<EvalResult> rows;
        rows.reserve(samplers.size());
        for (const core::Sampler* sampler : samplers)
          rows.push_back(pipeline.Evaluate(*sampler, config.reps));
        return rows;
      });

  SuiteResults results;
  for (std::vector<EvalResult>& rows : per_workload)
    for (EvalResult& row : rows) results.Add(std::move(row));
  return results;
}

}  // namespace stemroot::eval
