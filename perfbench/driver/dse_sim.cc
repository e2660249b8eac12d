/// dse_sim: the Table-4 protocol on the cycle-level simulator.
///
/// Set-up generates and profiles a few reduced-scale Rodinia workloads on
/// the baseline GPU and warms the simulator with one full simulation. One
/// measured iteration builds kStemReps STEM plans and one PKA plan per
/// workload from that baseline profile (core) and evaluates every
/// (variant, workload) point -- a full simulation plus one sampled
/// simulation per plan -- through eval::DseSweep::Run with one point per
/// pool lane (sim). Iterations repeat until --seconds have passed.
///
/// Work is counted in simulated warp instructions, read from the
/// library's sim.warp_instructions counter: the untraced run switches
/// telemetry on around DseSweep::Run alone (it counts once per simulation
/// call), the traced run for the whole measured phase.
///
/// The traced run times sim::SimulateTraceFull / sim::SimulateSampled
/// individually, so it drives the points itself with the sweep's own
/// per-point seeds and options; selfcheck.py pins that its outputs equal
/// DseSweep::Run's.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/sampler_registry.h"
#include "eval/dse.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "perfbench.h"
#include "sim/gpu_config.h"
#include "sim/sampled_sim.h"

namespace perfbench {

namespace {

/// Workloads with several kernel types and enough launches for sampling
/// to matter, at a scale where one iteration takes a few seconds.
const std::vector<std::string> kWorkloads = {"cfd", "hotspot", "lud",
                                             "gaussian"};
constexpr double kScale = 0.05;
/// The set-up's warm-up simulation runs hotspot, one of the cheapest.
constexpr size_t kWarmupWorkload = 1;
/// STEM plans per workload, each with its own seed: a single plan's error
/// on these small traces swings by tens of percent with the seed, so the
/// paper's rep averaging is what makes the error figure repeatable.
constexpr uint64_t kStemReps = 10;
/// Baseline, Cache x1/2 and #SM x1/2 of StandardDseVariants.
const std::vector<size_t> kVariants = {0, 2, 4};

/// DseSweep::RunPoint, with each simulator call timed as a pooled span.
stemroot::eval::DsePointResult TracedPoint(
    const stemroot::eval::DseSweep& sweep, size_t vi,
    const stemroot::eval::DseWorkload& workload, size_t wi,
    LayerTrace& trace) {
  const stemroot::eval::DseVariant& variant = sweep.Variants()[vi];
  const auto config = stemroot::sim::SimConfig::FromSpec(variant.spec);
  stemroot::sim::TraceSimOptions options;
  options.seed = sweep.PointSeed(vi, wi);
  options.flush_l2_between_kernels = sweep.Options().flush_l2_between_kernels;
  options.warmup = sweep.Options().warmup;
  options.shard = sweep.Options().shard;

  stemroot::eval::DsePointResult point;
  point.variant = variant.name;
  point.workload = workload.trace->WorkloadName();
  point.variant_index = vi;
  point.workload_index = wi;
  point.seed = options.seed;
  stemroot::sim::TraceSimResult full;
  {
    LayerTrace::Span span(trace, "sim.full", /*pooled=*/true);
    full = stemroot::sim::SimulateTraceFull(*workload.trace, config, options);
  }
  point.full_cycles = full.total_cycles;
  for (const stemroot::core::SamplingPlan& plan : workload.plans) {
    stemroot::sim::SampledSimResult sampled;
    {
      LayerTrace::Span span(trace, "sim.sampled", /*pooled=*/true);
      sampled = stemroot::sim::SimulateSampled(*workload.trace, plan, config,
                                               options);
    }
    stemroot::eval::DsePointMethod row;
    row.method = plan.method;
    row.estimated_cycles = sampled.estimated_total_cycles;
    row.cost_cycles = sampled.simulated_cost_cycles;
    row.kernels_simulated = sampled.kernels_simulated;
    row.error_pct = full.total_cycles > 0.0
                        ? std::abs(sampled.estimated_total_cycles -
                                   full.total_cycles) /
                              full.total_cycles * 100.0
                        : 0.0;
    point.methods.push_back(std::move(row));
  }
  return point;
}

bool SamePoints(const stemroot::eval::DseSweepResult& a,
                const stemroot::eval::DseSweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (size_t i = 0; i < a.points.size(); ++i) {
    const auto& x = a.points[i];
    const auto& y = b.points[i];
    if (x.full_cycles != y.full_cycles || x.methods.size() != y.methods.size())
      return false;
    for (size_t m = 0; m < x.methods.size(); ++m)
      if (x.methods[m].estimated_cycles != y.methods[m].estimated_cycles ||
          x.methods[m].cost_cycles != y.methods[m].cost_cycles ||
          x.methods[m].kernels_simulated != y.methods[m].kernels_simulated)
        return false;
  }
  return true;
}

}  // namespace

Report RunDseSim(const Args& args) {
  Report report;
  std::vector<stemroot::eval::Pipeline> pipelines;
  std::unique_ptr<stemroot::core::Sampler> stem;
  std::unique_ptr<stemroot::core::Sampler> pka;
  const auto all_variants =
      stemroot::eval::StandardDseVariants(stemroot::hw::GpuSpec::Rtx2080());
  std::vector<stemroot::eval::DseVariant> variants;
  for (size_t v : kVariants) variants.push_back(all_variants[v]);

  const double setup_s = MedianSetup([&](bool) {
    stemroot::baselines::EnsureBuiltinSamplers();
    auto& registry = stemroot::core::SamplerRegistry::Global();
    stem = registry.Create("stem");
    pka = registry.Create(
        "pka",
        stemroot::core::SamplerParams().Set("random_representative", true));
    pipelines.clear();
    for (const std::string& name : kWorkloads) {
      stemroot::eval::Pipeline::Options options;
      options.seed = args.seed;
      options.size_scale = kScale;
      pipelines.push_back(stemroot::eval::Pipeline::GenerateProfiled(
          stemroot::workloads::SuiteId::kRodinia, name,
          stemroot::hw::GpuSpec::Rtx2080(), options));
    }
    stemroot::sim::SimulateTraceFull(
        pipelines[kWarmupWorkload].Trace(),
        stemroot::sim::SimConfig::FromSpec(variants.front().spec));
  });

  stemroot::eval::DseSweepOptions sweep_options;
  sweep_options.seed = args.seed;
  const stemroot::eval::DseSweep sweep(variants, sweep_options);

  LayerTrace trace(args.trace);
  stemroot::telemetry::Reset();
  stemroot::telemetry::SetEnabled(args.trace);
  const bool rss_reset = ResetPeakRss();

  stemroot::eval::DseSweepResult first;
  std::map<std::string, uint64_t> iteration_counters;
  std::vector<double> iteration_s;
  const double start = Now();
  while (iteration_s.empty() || Now() - start < args.seconds) {
    const stemroot::telemetry::Snapshot before =
        stemroot::telemetry::Capture();
    const double t0 = Now();
    std::vector<std::vector<stemroot::core::SamplingPlan>> plans(
        pipelines.size());
    {
      LayerTrace::Span span(trace, "core.plan");
      for (size_t w = 0; w < pipelines.size(); ++w) {
        for (uint64_t r = 0; r < kStemReps; ++r)
          plans[w].push_back(stem->BuildPlan(
              pipelines[w].Trace(), stemroot::DeriveSeed(args.seed, r)));
        plans[w].push_back(pipelines[w].Sample(*pka));
      }
    }
    std::vector<stemroot::eval::DseWorkload> workloads;
    for (size_t w = 0; w < pipelines.size(); ++w)
      workloads.push_back({&pipelines[w].Trace(), plans[w]});
    stemroot::eval::DseSweepResult it;
    {
      LayerTrace::Span span(trace, "sim.sweep");
      if (!args.trace) {
        stemroot::telemetry::SetEnabled(true);
        it = sweep.Run(workloads);
        stemroot::telemetry::SetEnabled(false);
      } else {
        it.num_variants = variants.size();
        it.num_workloads = workloads.size();
        it.points.resize(variants.size() * workloads.size());
        stemroot::ParallelLanes(
            it.points.size(), 0, [&](size_t i) {
              const size_t vi = i / workloads.size();
              const size_t wi = i % workloads.size();
              it.points[i] =
                  TracedPoint(sweep, vi, workloads[wi], wi, trace);
            });
      }
    }
    iteration_s.push_back(Now() - t0);
    const std::map<std::string, uint64_t> counters =
        stemroot::telemetry::CounterDeltas(before,
                                           stemroot::telemetry::Capture());
    for (const auto& point : it.points) {
      ++report.attempted;
      const uint64_t invocations =
          pipelines[point.workload_index].Trace().NumInvocations();
      bool ok = std::isfinite(point.full_cycles) && point.full_cycles > 0.0;
      for (const auto& m : point.methods)
        ok = ok && std::isfinite(m.estimated_cycles) &&
             m.estimated_cycles > 0.0 && m.kernels_simulated >= 1 &&
             m.kernels_simulated <= invocations;
      if (!ok)
        report.Fail(point.variant + "/" + point.workload +
                    ": invalid simulation result");
    }
    if (iteration_s.size() == 1) {
      first = it;
      iteration_counters = counters;
    } else if (!SamePoints(first, it) ||
               counters != iteration_counters) {
      report.Fail("iteration differs from the first one");
    }
  }
  const double wall_s = Now() - start;
  stemroot::telemetry::SetEnabled(false);
  const auto counter = [&](const char* name) {
    const auto it = iteration_counters.find(name);
    return it == iteration_counters.end() ? 0.0
                                          : static_cast<double>(it->second);
  };
  const double warp_instructions = counter("sim.warp_instructions");
  if (!(warp_instructions > 0.0)) report.Fail("no warp instructions counted");

  // Per point, the STEM error averaged over the reps; error_pct is the
  // trimmed mean over points.
  std::vector<double> point_errors;
  std::vector<double> stem_speedups;
  for (const auto& point : first.points) {
    const std::string prefix =
        "dse." + point.variant + "." + point.workload + ".";
    report.Det(prefix + "full_cycles", point.full_cycles);
    std::vector<double> errors;
    for (size_t m = 0; m < point.methods.size(); ++m) {
      const auto& row = point.methods[m];
      const std::string name = prefix + row.method + "." + std::to_string(m);
      report.Det(name + ".estimated_cycles", row.estimated_cycles);
      report.Det(name + ".cost_cycles", row.cost_cycles);
      report.Det(name + ".kernels_simulated",
                 static_cast<uint64_t>(row.kernels_simulated));
      if (row.method != "STEM") continue;
      errors.push_back(row.error_pct);
      stem_speedups.push_back(point.full_cycles / row.cost_cycles);
    }
    point_errors.push_back(Mean(errors));
  }
  const double error_pct = TrimmedMean(point_errors);
  const double speedup = HarmonicMean(stem_speedups);
  report.Det("error_pct", error_pct);
  report.Det("sample_speedup_x", speedup);
  report.Det("counter.sim.warp_instructions",
             static_cast<uint64_t>(warp_instructions));
  report.Det("counter.sim.kernels_simulated",
             static_cast<uint64_t>(counter("sim.kernels_simulated")));

  const double median_s = Median(iteration_s);
  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("work_per_s", warp_instructions / median_s, "1/s");
  report.Metric("op_p50_ms", median_s * 1e3, "ms");
  report.Metric("op_p90_ms", Quantile(iteration_s, 0.9) * 1e3, "ms");
  report.Metric("error_pct", error_pct, "%");
  report.Metric("sample_speedup_x", speedup, "x");

  char line[256];
  std::snprintf(line, sizeof(line),
                "dse_sim: %zu points x %zu iterations in %.2fs (median "
                "%.3fs, %.1f M warp instr/s); STEM error trimmed mean "
                "%.4f%%, mean %.4f%%, cost reduction %.2fx%s",
                first.points.size(), iteration_s.size(), wall_s,
                median_s, warp_instructions / median_s / 1e6, error_pct,
                Mean(point_errors), speedup,
                rss_reset ? "" : " (peak RSS includes set-up)");
  report.Note(line);

  if (args.trace) {
    const double iterations = static_cast<double>(iteration_s.size());
    report.Metric("core.plan_ms", trace.SelfMs("core.plan"), "ms");
    report.Metric("sim.sweep_ms", trace.SelfMs("sim.sweep"), "ms");
    report.Metric("sim.full_ms", trace.WallMs("sim.full"), "ms");
    report.Metric("sim.sampled_ms", trace.WallMs("sim.sampled"), "ms");
    report.Metric("sim.warp_instructions", warp_instructions, "count");
    report.Metric("sim.kernels_simulated", counter("sim.kernels_simulated"),
                  "count");
    report.Metric("sim.host_ns_per_warp_instr",
                  trace.WallMs("sim.full") * 1e6 /
                      (warp_instructions * iterations),
                  "ns");
    report.Metric("common.pool_efficiency",
                  (trace.WallMs("sim.full") + trace.WallMs("sim.sampled")) /
                      (trace.WallMs("sim.sweep") * stemroot::NumThreads()),
                  "ratio");
    report.Metric("wall_ms", wall_s * 1e3, "ms");
    report.Metric("unattributed_ms", wall_s * 1e3 - trace.TopLevelMs(), "ms");
  }
  return report;
}

}  // namespace perfbench
