/// \file
/// Suite runners: generate -> profile -> sample -> evaluate, for a list of
/// samplers over all workloads of one suite. This is the engine behind the
/// Table 3 / Fig. 7-9 benches.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/metrics.h"
#include "hw/hardware_model.h"
#include "workloads/suite.h"

namespace stemroot::eval {

/// Options for one suite sweep.
struct SuiteRunConfig {
  workloads::SuiteId suite = workloads::SuiteId::kCasio;
  /// Workload size scale passed to the generators.
  double size_scale = 1.0;
  /// Sampling repetitions per (workload, sampler); paper uses 10.
  uint32_t reps = 10;
  /// Master seed: workload generation, profiling, and sampling all derive
  /// from it.
  uint64_t seed = 42;
  /// Restrict to these workload names (empty = whole suite).
  std::vector<std::string> only_workloads;
};

/// All per-(workload, method) averaged results for one suite.
///
/// Accessors run off an index map built lazily over `rows` and extended
/// incrementally as rows are appended, so repeated Methods()/ForWorkload()
/// queries over large sweeps (the DSE benches hold thousands of rows) stay
/// O(rows) total instead of O(rows^2). Appending (push_back / Add) between
/// queries is supported; rewriting the method/workload of an *existing*
/// row is not tracked and requires a fresh SuiteResults. The lazy index
/// makes const accessors non-reentrant: do not query one SuiteResults from
/// multiple threads concurrently.
struct SuiteResults {
  std::vector<EvalResult> rows;

  /// Append one row (equivalent to rows.push_back; the index catches up
  /// lazily either way).
  void Add(EvalResult row) { rows.push_back(std::move(row)); }

  /// Rows of one workload, in insertion order.
  std::vector<EvalResult> ForWorkload(const std::string& workload) const;
  /// Suite-level aggregate of one method.
  EvalResult Aggregate(const std::string& method) const;
  /// Distinct method names in first-seen order.
  std::vector<std::string> Methods() const;

 private:
  /// Index rows appended since the last query; full rebuild if rows shrank.
  void Reindex() const;

  mutable size_t indexed_rows_ = 0;
  mutable std::vector<std::string> method_order_;
  mutable std::unordered_map<std::string, std::vector<size_t>> by_method_;
  mutable std::unordered_map<std::string, std::vector<size_t>> by_workload_;
};

/// Run every sampler over every workload of the suite on the given GPU.
/// `samplers` entries must outlive the call and their Stratify and Draw
/// must be const-thread-safe (all in-tree samplers are).
///
/// The (workload x sampler) grid is evaluated in parallel over NumThreads()
/// lanes (common/parallel.h): each workload task generates and profiles its
/// trace exactly once, evaluates every sampler against it, and the
/// per-pair rows are merged back in deterministic input order -- so
/// `results.rows` is bit-identical at any thread count (every random
/// stream is derived from (config.seed, workload, sampler) alone; see
/// DESIGN.md "Threading and reproducibility"). At most NumThreads() traces
/// are alive at once (memory stays bounded even for the HuggingFace
/// suite; cap threads for million-invocation sweeps on small machines).
SuiteResults RunSuite(const SuiteRunConfig& config,
                      const hw::HardwareModel& gpu,
                      std::span<const core::Sampler* const> samplers);

}  // namespace stemroot::eval
