/// batch_sweep: a cold Table-3 pass. Every workload of the sweep goes
/// generate -> profile -> Evaluate(reps 10) with STEM, PKA, Sieve and
/// Photon, with no trace cache, on the library pool at --threads.
///
/// The measured phase walks the sweep in a fixed order and keeps going
/// (wrapping around) until --seconds have passed and at least one full
/// pass is done. Deterministic outputs come from the first pass; every
/// later visit of a workload must reproduce them exactly.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/sampler_registry.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "perfbench.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

using stemroot::workloads::SuiteId;

constexpr uint32_t kReps = 10;

struct SweepItem {
  SuiteId suite;
  std::string name;
};

/// 13 Rodinia + 11 CASIO + the two HuggingFace vision models: trace sizes
/// from 100 to 270k invocations. The other HuggingFace traces (0.6M-1.1M)
/// would make one pass longer than a run.
std::vector<SweepItem> SweepItems() {
  std::vector<SweepItem> items;
  for (SuiteId suite : {SuiteId::kRodinia, SuiteId::kCasio})
    for (const std::string& name : stemroot::workloads::SuiteWorkloads(suite))
      items.push_back({suite, name});
  items.push_back({SuiteId::kHuggingface, "deit"});
  items.push_back({SuiteId::kHuggingface, "resnet50"});
  return items;
}

/// One sampler and the layer its Evaluate call is attributed to.
struct LayerSampler {
  std::string layer;
  std::unique_ptr<stemroot::core::Sampler> sampler;
};

/// The four samplers with the Table 3 tuning: Rodinia uses the hand-tuned
/// random-representative PKA/Sieve; the ML suites turn Sieve's KDE off.
std::vector<LayerSampler> MakeSamplers(bool rodinia_tuning) {
  stemroot::baselines::EnsureBuiltinSamplers();
  auto& registry = stemroot::core::SamplerRegistry::Global();
  using stemroot::core::SamplerParams;
  std::vector<LayerSampler> out;
  out.push_back({"core.stem_evaluate", registry.Create("stem")});
  out.push_back(
      {"baselines.pka_evaluate",
       registry.Create("pka", SamplerParams().Set("random_representative",
                                                  rodinia_tuning))});
  out.push_back(
      {"baselines.sieve_evaluate",
       registry.Create("sieve",
                       SamplerParams()
                           .Set("random_representative", rodinia_tuning)
                           .Set("use_kde", rodinia_tuning))});
  out.push_back({"baselines.photon_evaluate", registry.Create("photon")});
  return out;
}

/// Results of one workload through the four samplers.
struct UnitResult {
  uint64_t invocations = 0;
  std::vector<stemroot::eval::EvalResult> evals;  ///< MakeSamplers order
};

UnitResult RunUnit(const SweepItem& item, uint64_t seed,
                   const std::vector<LayerSampler>& samplers,
                   LayerTrace& trace) {
  stemroot::eval::Pipeline::Options options;
  options.seed = seed;
  stemroot::eval::Pipeline pipeline = [&] {
    LayerTrace::Span span(trace, "workloads.generate");
    return stemroot::eval::Pipeline::Generate(item.suite, item.name, options);
  }();
  {
    LayerTrace::Span span(trace, "hw.profile");
    pipeline.Profile(stemroot::hw::GpuSpec::Rtx2080());
  }
  UnitResult result;
  result.invocations = pipeline.Trace().NumInvocations();
  for (const LayerSampler& s : samplers) {
    LayerTrace::Span span(trace, s.layer);
    result.evals.push_back(pipeline.Evaluate(*s.sampler, kReps));
  }
  return result;
}

bool SameResults(const UnitResult& a, const UnitResult& b) {
  if (a.invocations != b.invocations || a.evals.size() != b.evals.size())
    return false;
  for (size_t i = 0; i < a.evals.size(); ++i) {
    const auto& x = a.evals[i];
    const auto& y = b.evals[i];
    if (x.error_pct != y.error_pct || x.speedup != y.speedup ||
        x.num_samples != y.num_samples || x.num_clusters != y.num_clusters)
      return false;
  }
  return true;
}

/// Output gates of one workload: every error is finite, every speedup at
/// least 1, and STEM's realized error stays inside its Eq. 2 budget.
std::string CheckUnit(const SweepItem& item, const UnitResult& unit) {
  for (const auto& r : unit.evals) {
    if (!std::isfinite(r.error_pct) || !(r.speedup >= 1.0) ||
        r.num_samples == 0)
      return item.name + ": " + r.method + " produced an invalid result";
  }
  const auto& stem = unit.evals.front();
  if (stem.theoretical_error_pct > 0.0 &&
      stem.error_pct > stem.theoretical_error_pct)
    return item.name + ": STEM error " + std::to_string(stem.error_pct) +
           "% exceeds its Eq. 2 budget " +
           std::to_string(stem.theoretical_error_pct) + "%";
  return "";
}

}  // namespace

Report RunBatchSweep(const Args& args) {
  Report report;
  const std::vector<SweepItem> items = SweepItems();
  std::vector<LayerSampler> rodinia_samplers;
  std::vector<LayerSampler> ml_samplers;

  // Set-up: build the sampler sets and warm the pool and allocator with
  // one CASIO workload through all four samplers.
  const double setup_s = MedianSetup([&](bool) {
    rodinia_samplers = MakeSamplers(true);
    ml_samplers = MakeSamplers(false);
    LayerTrace off(false);
    RunUnit({SuiteId::kCasio, "bert_infer"}, args.seed, ml_samplers, off);
  });

  LayerTrace trace(args.trace);
  if (args.trace) {
    stemroot::telemetry::Reset();
    stemroot::telemetry::SetEnabled(true);
  }
  const bool rss_reset = ResetPeakRss();

  std::vector<UnitResult> first(items.size());
  std::vector<std::vector<double>> unit_seconds(items.size());
  stemroot::telemetry::Snapshot pass_counters;
  size_t index = 0;
  size_t passes = 0;
  const double start = Now();
  while (passes == 0 || Now() - start < args.seconds) {
    const SweepItem& item = items[index];
    const auto& samplers =
        item.suite == SuiteId::kRodinia ? rodinia_samplers : ml_samplers;
    const double t0 = Now();
    UnitResult unit = RunUnit(item, args.seed, samplers, trace);
    unit_seconds[index].push_back(Now() - t0);
    ++report.attempted;
    std::string why = CheckUnit(item, unit);
    if (passes == 0)
      first[index] = std::move(unit);
    else if (why.empty() && !SameResults(first[index], unit))
      why = item.name + ": results differ from the first pass";
    if (!why.empty()) report.Fail(why);
    if (++index == items.size()) {
      index = 0;
      if (++passes == 1 && args.trace)
        pass_counters = stemroot::telemetry::Capture();
    }
  }
  const double wall_s = Now() - start;

  // End-to-end metrics: per-workload median unit times, so where the
  // time limit cuts the last pass does not bias the mix; the latency
  // percentiles weight each workload by its invocations.
  std::vector<double> medians;
  std::vector<double> sizes;
  double invocations = 0.0;
  double median_sum = 0.0;
  std::vector<double> stem_errors;
  std::vector<double> stem_speedups;
  for (size_t i = 0; i < items.size(); ++i) {
    medians.push_back(Median(unit_seconds[i]));
    median_sum += medians.back();
    sizes.push_back(static_cast<double>(first[i].invocations));
    invocations += sizes.back();
    const std::string prefix = "batch." + items[i].name + ".";
    report.Det(prefix + "invocations", first[i].invocations);
    for (const auto& r : first[i].evals) {
      report.Det(prefix + r.method + ".error_pct", r.error_pct);
      report.Det(prefix + r.method + ".speedup", r.speedup);
      report.Det(prefix + r.method + ".samples",
                 static_cast<uint64_t>(r.num_samples));
      report.Det(prefix + r.method + ".clusters",
                 static_cast<uint64_t>(r.num_clusters));
    }
    stem_errors.push_back(first[i].evals.front().error_pct);
    stem_speedups.push_back(first[i].evals.front().speedup);
  }
  const double error_pct = TrimmedMean(stem_errors);
  const double speedup = HarmonicMean(stem_speedups);
  report.Det("error_pct", error_pct);
  report.Det("sample_speedup_x", speedup);

  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("work_per_s", invocations / median_sum, "1/s");
  for (double& m : medians) m *= 1e3;
  report.Metric("op_p50_ms", WeightedQuantile(medians, sizes, 0.5), "ms");
  report.Metric("op_p90_ms", WeightedQuantile(medians, sizes, 0.9), "ms");
  report.Metric("error_pct", error_pct, "%");
  report.Metric("sample_speedup_x", speedup, "x");

  char line[256];
  std::snprintf(line, sizeof(line),
                "batch_sweep: %zu workloads, %zu full passes, %llu runs in "
                "%.2fs; STEM error trimmed mean %.4f%%, mean %.4f%%, speedup "
                "%.2fx%s",
                items.size(), passes,
                static_cast<unsigned long long>(report.attempted), wall_s,
                error_pct, Mean(stem_errors), speedup,
                rss_reset ? "" : " (peak RSS includes set-up)");
  report.Note(line);
  std::string per_workload = "median run ms:";
  for (size_t i = 0; i < items.size(); ++i)
    per_workload += " " + items[i].name + "=" + std::to_string(medians[i]);
  report.Note(per_workload);

  if (args.trace) {
    stemroot::telemetry::SetEnabled(false);
    const stemroot::telemetry::Snapshot all = stemroot::telemetry::Capture();
    const auto counter = [&](const char* name) {
      return static_cast<double>(pass_counters.Counter(name));
    };
    double cluster_us = 0.0;
    for (const auto& [key, stats] : all.Spans())
      if (key.first == "cluster") cluster_us += stats.total_us;
    for (const char* layer :
         {"workloads.generate", "hw.profile", "core.stem_evaluate",
          "baselines.pka_evaluate", "baselines.sieve_evaluate",
          "baselines.photon_evaluate"}) {
      report.Metric(std::string(layer) + "_ms", trace.SelfMs(layer), "ms");
      report.Metric(std::string(layer) + "_cpu_ms", trace.CpuMs(layer), "ms");
    }
    report.Metric("core.cluster_call_ms", cluster_us / 1e3, "ms");
    report.Metric("core.kmeans.runs", counter("core.kmeans.runs"), "count");
    report.Metric("core.kmeans.iterations", counter("core.kmeans.iterations"),
                  "count");
    const double splits = counter("core.root.splits");
    const double rejects = counter("core.root.split_rejects");
    report.Metric("core.root.split_accept_ratio",
                  splits + rejects > 0 ? splits / (splits + rejects) : 0.0,
                  "ratio");
    report.Metric("core.kkt.solves", counter("core.kkt.solves"), "count");
    double eval_wall = 0.0;
    double eval_cpu = 0.0;
    for (const char* layer : {"core.stem_evaluate", "baselines.pka_evaluate",
                              "baselines.sieve_evaluate",
                              "baselines.photon_evaluate"}) {
      eval_wall += trace.WallMs(layer);
      eval_cpu += trace.CpuMs(layer);
    }
    report.Metric("common.pool_efficiency",
                  eval_cpu / (eval_wall * stemroot::NumThreads()), "ratio");
    report.Metric("wall_ms", wall_s * 1e3, "ms");
    report.Metric("unattributed_ms", wall_s * 1e3 - trace.TopLevelMs(), "ms");
    for (const char* name : {"core.kmeans.runs", "core.kmeans.iterations",
                             "core.root.splits", "core.root.split_rejects",
                             "core.kkt.solves"})
      report.Det(std::string("counter.") + name,
                 pass_counters.Counter(name));
  }
  return report;
}

}  // namespace perfbench
