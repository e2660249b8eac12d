#include "eval/dse.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "sim/sharded.h"

namespace stemroot::eval {

std::vector<DseVariant> StandardDseVariants(const hw::GpuSpec& base) {
  return {
      {"Baseline", base},
      {"Cache x2", base.WithCacheScale(2.0)},
      {"Cache x1/2", base.WithCacheScale(0.5)},
      {"#SM x2", base.WithSmScale(2.0)},
      {"#SM x1/2", base.WithSmScale(0.5)},
  };
}

std::vector<double> RetimeTrace(const KernelTrace& trace,
                                const TimingFn& fn) {
  std::vector<double> durations;
  durations.reserve(trace.NumInvocations());
  for (const KernelInvocation& inv : trace.Invocations())
    durations.push_back(fn(inv));
  return durations;
}

TimingFn AnalyticTiming(const hw::HardwareModel& gpu, uint64_t run_seed) {
  return [&gpu, run_seed](const KernelInvocation& inv) {
    return gpu.SampleTimeUs(inv, run_seed);
  };
}

std::vector<EvalResult> EvaluatePlansOnVariant(
    std::span<const core::SamplingPlan> plans,
    std::span<const double> variant_durations_us,
    const std::string& workload) {
  std::vector<EvalResult> results;
  results.reserve(plans.size());
  for (const core::SamplingPlan& plan : plans)
    results.push_back(
        EvaluatePlanOnDurations(plan, variant_durations_us, workload));
  return results;
}

// ---------------------------------------------------------------------------
// Batched cycle-level DSE sweep

double DsePointResult::MeanErrorPct() const {
  if (methods.empty()) return 0.0;
  double sum = 0.0;
  for (const DsePointMethod& m : methods) sum += m.error_pct;
  return sum / static_cast<double>(methods.size());
}

RunManifest DsePointResult::ToManifest(const DseSweepOptions& options,
                                       std::string_view tool,
                                       std::string_view suite) const {
  RunManifest m;
  m.tool = std::string(tool);
  m.command = "dse-point";
  m.completed = true;
  m.StampBuild();
  m.config.suite = std::string(suite);
  m.config.workload = workload;
  m.config.gpu = variant;
  std::string joined;
  for (const DsePointMethod& row : methods) {
    if (!joined.empty()) joined += '+';
    joined += row.method;
  }
  m.config.method = joined;
  m.config.seed = seed;
  m.config.threads = NumThreads();
  m.config.sim_shards = options.shard.sim_shards;
  m.config.sim_threads = options.shard.sim_threads;
  m.config.epoch_cycles = options.shard.epoch_cycles;

  m.metrics.present = true;
  m.metrics.error_pct = MeanErrorPct();
  // Harmonic-mean speedup over methods (the paper's convention), where a
  // method's speedup is full cost / its simulated cost.
  double inv_sum = 0.0;
  size_t speedup_rows = 0;
  uint64_t kernels = 0;
  for (const DsePointMethod& row : methods) {
    kernels += row.kernels_simulated;
    if (row.cost_cycles > 0.0 && full_cycles > 0.0) {
      inv_sum += row.cost_cycles / full_cycles;
      ++speedup_rows;
    }
  }
  if (inv_sum > 0.0)
    m.metrics.speedup = static_cast<double>(speedup_rows) / inv_sum;
  m.metrics.num_samples = kernels;
  return m;
}

const DsePointResult& DseSweepResult::At(size_t variant_index,
                                         size_t workload_index) const {
  if (variant_index >= num_variants || workload_index >= num_workloads)
    throw std::out_of_range("DseSweepResult::At: index out of range");
  return points[variant_index * num_workloads + workload_index];
}

double DseSweepResult::MeanErrorPct(size_t variant_index,
                                    std::string_view method) const {
  if (num_workloads == 0)
    throw std::out_of_range("DseSweepResult::MeanErrorPct: empty sweep");
  double sum = 0.0;
  for (size_t w = 0; w < num_workloads; ++w) {
    const DsePointResult& point = At(variant_index, w);
    bool found = false;
    for (const DsePointMethod& row : point.methods) {
      if (row.method == method) {
        sum += row.error_pct;
        found = true;
        break;
      }
    }
    if (!found)
      throw std::out_of_range("DseSweepResult::MeanErrorPct: no method \"" +
                              std::string(method) + "\"");
  }
  return sum / static_cast<double>(num_workloads);
}

DseSweep::DseSweep(std::vector<DseVariant> variants, DseSweepOptions options)
    : variants_(std::move(variants)), options_(std::move(options)) {
  if (variants_.empty())
    throw std::invalid_argument("DseSweep: no variants");
  if (options_.sweep_threads < 0)
    throw std::invalid_argument("DseSweep: sweep_threads < 0");
  options_.shard.Validate();
}

uint64_t DseSweep::PointSeed(size_t variant_index,
                             size_t workload_index) const {
  // Masked to 53 bits so the seed survives the manifest's JSON number
  // encoding exactly (doubles round-trip integers up to 2^53): a saved
  // dse-point manifest must reload with an identical fingerprint.
  return DeriveSeed(DeriveSeed(options_.seed, variant_index),
                    workload_index) &
         ((uint64_t{1} << 53) - 1);
}

sim::TraceSimOptions DseSweep::PointOptions(size_t variant_index,
                                            size_t workload_index) const {
  sim::TraceSimOptions sim_options;
  sim_options.seed = PointSeed(variant_index, workload_index);
  sim_options.flush_l2_between_kernels = options_.flush_l2_between_kernels;
  sim_options.warmup = options_.warmup;
  sim_options.shard = options_.shard;
  return sim_options;
}

namespace {

void CheckWorkload(const DseWorkload& workload) {
  if (workload.trace == nullptr)
    throw std::invalid_argument("DseSweep: null trace");
}

/// One point's simulation results, filled task by task. Task 0 is the
/// point's full run; task 1 + p is the sampled run of plan p.
struct PointRuns {
  explicit PointRuns(size_t plans) : sampled(plans) {}
  double full_cycles = 0.0;
  std::vector<sim::SampledSimResult> sampled;
};

/// The one task body of Run and RunPoint: a single simulation of a point.
void RunTask(const DseWorkload& workload, const sim::SimConfig& config,
             const sim::TraceSimOptions& options, size_t task,
             PointRuns& runs) {
  if (task == 0) {
    runs.full_cycles =
        sim::SimulateTraceFull(*workload.trace, config, options).total_cycles;
  } else {
    runs.sampled[task - 1] = sim::SimulateSampled(
        *workload.trace, workload.plans[task - 1], config, options);
  }
}

/// The point's rows, built once all its tasks are done: every error_pct
/// needs the full run's cycles.
DsePointResult AssemblePoint(const DseVariant& variant,
                             const DseWorkload& workload,
                             size_t variant_index, size_t workload_index,
                             uint64_t seed, const PointRuns& runs) {
  DsePointResult point;
  point.variant = variant.name;
  point.workload = workload.trace->WorkloadName();
  point.variant_index = variant_index;
  point.workload_index = workload_index;
  point.seed = seed;
  point.full_cycles = runs.full_cycles;
  for (size_t p = 0; p < workload.plans.size(); ++p) {
    const sim::SampledSimResult& sampled = runs.sampled[p];
    DsePointMethod row;
    row.method = workload.plans[p].method;
    row.estimated_cycles = sampled.estimated_total_cycles;
    row.cost_cycles = sampled.simulated_cost_cycles;
    row.kernels_simulated = sampled.kernels_simulated;
    row.error_pct =
        runs.full_cycles > 0.0
            ? std::abs(sampled.estimated_total_cycles - runs.full_cycles) /
                  runs.full_cycles * 100.0
            : 0.0;
    point.methods.push_back(std::move(row));
  }
  telemetry::Count("dse.points", 1);
  return point;
}

}  // namespace

DsePointResult DseSweep::RunPoint(size_t variant_index,
                                  const DseWorkload& workload,
                                  size_t workload_index) const {
  if (variant_index >= variants_.size())
    throw std::out_of_range("DseSweep::RunPoint: variant index out of range");
  CheckWorkload(workload);
  const DseVariant& variant = variants_[variant_index];
  const sim::SimConfig config = sim::SimConfig::FromSpec(variant.spec);
  const sim::TraceSimOptions options =
      PointOptions(variant_index, workload_index);
  PointRuns runs(workload.plans.size());
  for (size_t task = 0; task <= workload.plans.size(); ++task)
    RunTask(workload, config, options, task, runs);
  return AssemblePoint(variant, workload, variant_index, workload_index,
                       options.seed, runs);
}

DseSweepResult DseSweep::Run(std::span<const DseWorkload> workloads) const {
  telemetry::Span span("simulate");
  DseSweepResult result;
  result.num_variants = variants_.size();
  result.num_workloads = workloads.size();
  const size_t n = result.num_variants * result.num_workloads;
  if (n == 0) return result;

  // Warp-instruction mass per workload task, before the variant's SM
  // count: entry 0 is the full run, 1 + p plan p's sampled run (warmup
  // replays included). SampledSimMass validates each plan against its
  // trace, so a bad plan throws here, as RunPoint's SimulateSampled would.
  // Only the sweep-wide warmup policy enters the mass, not the seed.
  const sim::TraceSimOptions mass_options = PointOptions(0, 0);
  std::vector<std::vector<double>> workload_mass(workloads.size());
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    const DseWorkload& workload = workloads[wi];
    CheckWorkload(workload);
    workload_mass[wi].push_back(sim::FullSimMass(*workload.trace));
    for (const core::SamplingPlan& plan : workload.plans)
      workload_mass[wi].push_back(
          sim::SampledSimMass(*workload.trace, plan, mass_options));
  }

  // One task per simulation, not per point: a point's full run and each
  // of its sampled runs are claimed separately, heaviest first (the
  // simulated SM runs 1/num_sms of the launch), ties by task index. The
  // order moves wall time only: every task writes its own slot and seeds
  // from its point, so the sweep is byte-identical to a RunPoint loop.
  std::vector<sim::SimConfig> configs;
  for (const DseVariant& variant : variants_)
    configs.push_back(sim::SimConfig::FromSpec(variant.spec));
  std::vector<sim::TraceSimOptions> point_options;
  std::vector<PointRuns> runs;
  struct Task {
    size_t point;
    size_t task;
    double mass;
  };
  std::vector<Task> tasks;
  for (size_t i = 0; i < n; ++i) {
    const size_t vi = i / result.num_workloads;
    const size_t wi = i % result.num_workloads;
    point_options.push_back(PointOptions(vi, wi));
    runs.emplace_back(workloads[wi].plans.size());
    for (size_t task = 0; task < workload_mass[wi].size(); ++task)
      tasks.push_back({i, task,
                       workload_mass[wi][task] /
                           static_cast<double>(configs[vi].num_sms)});
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& b) {
                     return a.mass > b.mass;
                   });
  ParallelLanes(tasks.size(), static_cast<size_t>(options_.sweep_threads),
                [&](size_t k) {
                  const Task& t = tasks[k];
                  const size_t vi = t.point / result.num_workloads;
                  const size_t wi = t.point % result.num_workloads;
                  RunTask(workloads[wi], configs[vi], point_options[t.point],
                          t.task, runs[t.point]);
                });

  result.points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t vi = i / result.num_workloads;
    const size_t wi = i % result.num_workloads;
    result.points.push_back(AssemblePoint(variants_[vi], workloads[wi], vi,
                                          wi, point_options[i].seed,
                                          runs[i]));
  }
  return result;
}

}  // namespace stemroot::eval
