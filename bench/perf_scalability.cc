/// \file
/// Sec. 5.6 scalability microbenchmarks (google-benchmark): STEM+ROOT's
/// near-linear analysis cost vs. Photon's superlinear BBV comparison cost
/// as the number of kernel invocations N grows, plus the building blocks
/// (1-D k-means, the KKT solver, trace generation + profiling) and the
/// thread scaling of the parallel evaluation engine (results are
/// bit-identical at every thread count; only wall-clock changes).

#include <benchmark/benchmark.h>

#include "common/journal.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace_events.h"

#include "baselines/photon.h"
#include "bench_util.h"
#include "core/kkt.h"
#include "core/kmeans.h"
#include "core/sampler.h"
#include "eval/dse.h"
#include "eval/pipeline.h"
#include "eval/runner.h"
#include "eval/stream.h"
#include "hw/hardware_model.h"
#include "service/metrics.h"
#include "sim/sampled_sim.h"
#include "sim/simulator.h"
#include "workloads/casio.h"
#include "workloads/rodinia.h"

using namespace stemroot;

namespace {

/// Profiled bert_infer-like trace with ~`n` invocations.
KernelTrace TraceOfSize(int64_t n) {
  const double scale =
      static_cast<double>(n) / 63000.0;  // bert_infer ~63k at scale 1
  KernelTrace trace = workloads::MakeCasio("bert_infer", 7, scale);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(trace, 1);
  return trace;
}

/// STEM's seed-independent phase: ROOT clustering (per kernel, on the
/// pool) plus the joint KKT sizing. Runs once per trace.
void BM_StemStratify(benchmark::State& state) {
  const KernelTrace trace = TraceOfSize(state.range(0));
  core::StemRootSampler sampler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Stratify(trace));
  }
  state.SetComplexityN(static_cast<int64_t>(trace.NumInvocations()));
}
BENCHMARK(BM_StemStratify)
    ->RangeMultiplier(4)
    ->Range(1000, 256000)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

/// STEM's per-rep phase: one seeded draw from fixed strata.
void BM_StemDraw(benchmark::State& state) {
  const KernelTrace trace = TraceOfSize(state.range(0));
  core::StemRootSampler sampler;
  const std::unique_ptr<const core::Strata> strata = sampler.Stratify(trace);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Draw(*strata, ++seed));
  }
  state.SetComplexityN(static_cast<int64_t>(trace.NumInvocations()));
}
BENCHMARK(BM_StemDraw)
    ->RangeMultiplier(4)
    ->Range(1000, 256000)
    ->Unit(benchmark::kMicrosecond);

void BM_PhotonBuildPlan(benchmark::State& state) {
  const KernelTrace trace = TraceOfSize(state.range(0));
  baselines::PhotonSampler sampler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.BuildPlan(trace, 1));
  }
  state.SetComplexityN(static_cast<int64_t>(trace.NumInvocations()));
  state.counters["bbv_comparisons"] = static_cast<double>(
      baselines::PhotonSampler::LastComparisonCount());
}
BENCHMARK(BM_PhotonBuildPlan)
    ->RangeMultiplier(4)
    ->Range(1000, 64000)
    ->Unit(benchmark::kMillisecond);

void BM_Kmeans1D(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (auto& v : values) v = rng.NextLogNormal(3.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Kmeans1D(values, 2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Kmeans1D)
    ->Arg(256)  // the streaming reservoir size
    ->RangeMultiplier(8)
    ->Range(1000, 512000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_KktSolver(benchmark::State& state) {
  Rng rng(5);
  std::vector<core::ClusterStats> clusters(
      static_cast<size_t>(state.range(0)));
  for (auto& c : clusters) {
    c.n = 1 + rng.NextBounded(100000);
    c.mean = rng.NextDouble(1.0, 500.0);
    c.stddev = rng.NextDouble(0.0, c.mean);
  }
  core::StemConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SolveKkt(clusters, config));
  }
}
BENCHMARK(BM_KktSolver)->RangeMultiplier(8)->Range(8, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_GenerateAndProfile(benchmark::State& state) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  const double scale = static_cast<double>(state.range(0)) / 63000.0;
  for (auto _ : state) {
    KernelTrace trace = workloads::MakeCasio("bert_infer", 7, scale);
    gpu.ProfileTrace(trace, 1);
    benchmark::DoNotOptimize(trace.TotalDurationUs());
  }
}
BENCHMARK(BM_GenerateAndProfile)
    ->RangeMultiplier(8)
    ->Range(1000, 512000)
    ->Unit(benchmark::kMillisecond);

/// RAII: pin the engine to `n` threads, restore auto on exit so later
/// benchmarks are unaffected.
struct ScopedThreads {
  explicit ScopedThreads(int n) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(0); }
};

/// ProfileTrace over one large trace at 1/2/4/8 threads. Per-invocation
/// timing streams derive from (run_seed, invocation seq), so durations are
/// identical at every arg; wall-clock should drop near-linearly up to the
/// physical core count.
void BM_ProfileTraceThreads(benchmark::State& state) {
  ScopedThreads scoped(static_cast<int>(state.range(0)));
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  KernelTrace trace = workloads::MakeCasio("bert_infer", 7, 4.0);
  for (auto _ : state) {
    gpu.ProfileTrace(trace, 1);
    benchmark::DoNotOptimize(trace.TotalDurationUs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.NumInvocations()));
}
BENCHMARK(BM_ProfileTraceThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// End-to-end RunSuite sweep (the Table 3 / Fig. 7 engine) over a CASIO
/// subset at 1/2/4/8 threads. The acceptance target is >= 3x real-time
/// speedup at 8 threads on an >= 8-core machine; `results.rows` is
/// byte-identical across args (tests/eval/parallel_determinism_test.cc
/// pins this).
void BM_SuiteSweepThreads(benchmark::State& state) {
  ScopedThreads scoped(static_cast<int>(state.range(0)));
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  bench::SamplerSet samplers = bench::MakeStandardSamplers(0.001, false);
  eval::SuiteRunConfig config;
  config.suite = workloads::SuiteId::kCasio;
  config.size_scale = 0.05;
  config.reps = 3;
  config.seed = bench::kSeed;
  config.only_workloads = {"bert_infer", "dlrm_infer", "gnmt_infer",
                           "ncf_infer", "resnet50_train", "unet_train",
                           "ssdrn34_infer", "resnet50_infer"};
  for (auto _ : state) {
    const eval::SuiteResults results =
        eval::RunSuite(config, gpu, samplers.pointers);
    benchmark::DoNotOptimize(results.rows.size());
  }
}
BENCHMARK(BM_SuiteSweepThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// EvaluateRepeated across reps at 1/2/4/8 threads (the third parallel
/// loop): one workload, one sampler, many repetitions.
void BM_EvaluateRepeatedThreads(benchmark::State& state) {
  ScopedThreads scoped(static_cast<int>(state.range(0)));
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  const KernelTrace trace =
      eval::Pipeline::GenerateProfiled(
          {.suite = workloads::SuiteId::kCasio,
           .workload = "bert_infer",
           .options = {.seed = bench::kSeed, .size_scale = 0.2}},
          gpu)
          .Trace();
  core::StemRootSampler sampler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval::EvaluateRepeated(sampler, trace, 16, bench::kSeed));
  }
}
BENCHMARK(BM_EvaluateRepeatedThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The simulator's per-instruction host cost: every invocation of a
/// reduced cfd trace (the heaviest dse_sim workload) simulated in
/// timeline order on one Simulator, one thread. ns_per_warp_instr is
/// wall time per simulated warp instruction -- the figure the per-warp
/// set-up, the inlined Rng and the cache's set indexing move. A fixed
/// iteration count keeps the bench's ledger wall time proportional to
/// that cost (adaptive counts run a faster build for more iterations).
void BM_SimulateKernel(benchmark::State& state) {
  const KernelTrace trace = workloads::GenerateWorkload(
      workloads::RodiniaSpec("cfd", 0.02), bench::kSeed);
  sim::Simulator simulator(sim::SimConfig::FromSpec(hw::GpuSpec::Rtx2080()));
  uint64_t warp_instructions = 0;
  for (auto _ : state) {
    for (const KernelInvocation& inv : trace.Invocations())
      warp_instructions += simulator.SimulateKernel(inv, bench::kSeed)
                               .stats.warp_instructions;
  }
  state.SetItemsProcessed(static_cast<int64_t>(warp_instructions));
  // Rate-inverted: seconds per instruction, printed with an SI prefix
  // ("71.2n" reads 71.2 ns).
  state.counters["ns_per_warp_instr"] = benchmark::Counter(
      static_cast<double>(warp_instructions),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulateKernel)
    ->Iterations(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Full cycle simulation of one trace sharded over 8 kernel-affine lanes
/// at 1/2/4/8 worker threads (--sim-threads axis). The shard count is
/// fixed, so total_cycles is byte-identical at every arg (sim_threads is
/// a pacing knob, DESIGN.md section 12); wall-clock should drop with the
/// thread count up to the lane-balance limit of the LPT partition.
void BM_ShardedFullSimThreads(benchmark::State& state) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  // cfd: several kernel types of comparable weight, so the kernel-affine
  // LPT partition actually spreads work across the 8 lanes.
  KernelTrace trace = workloads::GenerateWorkload(
      workloads::RodiniaSpec("cfd", 0.1), bench::kSeed);
  gpu.ProfileTrace(trace, 1);
  const sim::SimConfig config =
      sim::SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  sim::TraceSimOptions options;
  options.shard.sim_shards = 8;
  options.shard.sim_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const sim::TraceSimResult result =
        sim::SimulateTraceFull(trace, config, options);
    benchmark::DoNotOptimize(result.total_cycles);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.NumInvocations()));
}
BENCHMARK(BM_ShardedFullSimThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// A reduced DseSweep (2 variants x 2 workloads, full + sampled cycle
/// simulation per point) at 1/2/4/8 concurrent simulations. Every
/// simulation is an independent task seeded from its point's indices, so
/// the result set is byte-identical at every arg; this is the
/// inter-simulation axis of the parallel engine (BM_ShardedFullSimThreads
/// is the intra one).
void BM_DseSweepThreads(benchmark::State& state) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  std::vector<KernelTrace> traces;
  for (const char* name : {"hotspot", "lud"}) {
    KernelTrace trace = workloads::GenerateWorkload(
        workloads::RodiniaSpec(name, 0.05), bench::kSeed);
    gpu.ProfileTrace(trace, 1);
    traces.push_back(std::move(trace));
  }
  core::StemRootSampler sampler;
  std::vector<std::vector<core::SamplingPlan>> plans(traces.size());
  std::vector<eval::DseWorkload> workloads;
  for (size_t w = 0; w < traces.size(); ++w)
    plans[w].push_back(sampler.BuildPlan(traces[w], bench::kSeed));
  for (size_t w = 0; w < traces.size(); ++w)
    workloads.push_back({&traces[w], plans[w]});
  std::vector<eval::DseVariant> variants =
      eval::StandardDseVariants(hw::GpuSpec::Rtx2080());
  variants.resize(2);  // baseline + cache x2
  eval::DseSweepOptions options;
  options.seed = bench::kSeed;
  options.sweep_threads = static_cast<int>(state.range(0));
  const eval::DseSweep sweep(std::move(variants), options);
  for (auto _ : state) {
    const eval::DseSweepResult result = sweep.Run(workloads);
    benchmark::DoNotOptimize(result.points.size());
  }
}
BENCHMARK(BM_DseSweepThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(20)  // fixed, so ledger wall time tracks the sweep cost
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The out-of-core trace-size axis (DESIGN.md section 16), one layer per
/// benchmark: StreamTrace over a ReplicatedChunkSource that tiles one
/// profiled bert_infer base trace out to N logical invocations -- orders
/// of magnitude more than fits in memory as KernelInvocation structs.
/// Decode, assign and reassess each add one layer, so the gaps between
/// the three rows attribute the per-invocation cost. Analysis cost must
/// stay O(N) while the resident footprint stays pinned at the source's
/// chunk budget (about two decoded chunks), reported by the full row as
/// the resident_budget_bytes counter; check.sh gates the same bound end
/// to end via the manifest's logical `trace` peak.
void StreamTraceAxis(benchmark::State& state,
                     const eval::StreamOptions& options) {
  const KernelTrace base = TraceOfSize(63000);
  const ReplicatedChunkSource source(
      base, static_cast<uint64_t>(state.range(0)), uint64_t{1} << 20);
  for (auto _ : state) {
    const eval::StreamResult result = eval::StreamTrace(source, options);
    benchmark::DoNotOptimize(result.invocations);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["resident_budget_bytes"] =
      static_cast<double>(source.ResidentBudgetBytes());
  state.SetComplexityN(state.range(0));
}

/// Decode: chunk materialization + the duration fold, clustering off --
/// the floor any out-of-core analysis pays per invocation.
void BM_StreamTraceDecodeOnly(benchmark::State& state) {
  eval::StreamOptions options;
  options.seed = bench::kSeed;
  options.cluster = false;
  StreamTraceAxis(state, options);
}
BENCHMARK(BM_StreamTraceDecodeOnly)
    ->RangeMultiplier(10)
    ->Range(1000000, 1000000000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

/// Decode + assign: streaming ROOT on, but with the reassessment interval
/// past the trace length, so every invocation joins its nearest cluster
/// and its reservoir while no split/merge pass ever runs.
void BM_StreamTraceAssignOnly(benchmark::State& state) {
  eval::StreamOptions options;
  options.seed = bench::kSeed;
  options.clustering.reassess_interval =
      static_cast<uint64_t>(state.range(0)) + 1;
  StreamTraceAxis(state, options);
}
BENCHMARK(BM_StreamTraceAssignOnly)
    ->RangeMultiplier(10)
    ->Range(1000000, 100000000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

/// Decode + assign + reassess: full online clustering, split/merge passes
/// every 64 observations per kernel.
void BM_StreamTraceLogicalSize(benchmark::State& state) {
  eval::StreamOptions options;
  options.seed = bench::kSeed;
  StreamTraceAxis(state, options);
}
BENCHMARK(BM_StreamTraceLogicalSize)
    ->RangeMultiplier(10)
    ->Range(1000000, 100000000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

/// The observability off-switch contract: with telemetry, tracing, the
/// journal, and service metrics all disabled, every instrumentation
/// entry point costs one relaxed atomic load + branch. This is the
/// hot-path overhead gate for code that is instrumented everywhere
/// (ParallelFor chunks, ROOT recursion, k-means iterations, service
/// request paths); compare against BM_InstrumentationBaseline.
void BM_InstrumentationOff(benchmark::State& state) {
  telemetry::SetEnabled(false);
  trace_events::SetEnabled(false);
  journal::Close();  // disabled journal: Emit is one relaxed load
  resource::SetAccountingEnabled(false);  // Account/AccountPeak likewise
  service::ServiceMetrics metrics;  // default-disabled RecordRequest
  for (auto _ : state) {
    telemetry::Span span("bench.off");
    trace_events::Scope scope("bench.off");
    trace_events::Instant("bench.off");
    journal::Emit(journal::Severity::kInfo, "bench.off");
    resource::Account("bench.off", 1);
    resource::AccountPeak("bench.off", 1);
    metrics.RecordRequest(service::Verb::kQuery, 1.0, true);
    benchmark::DoNotOptimize(&span);
    benchmark::DoNotOptimize(&scope);
    benchmark::DoNotOptimize(&metrics);
  }
}
BENCHMARK(BM_InstrumentationOff);

/// Empty-loop baseline for BM_InstrumentationOff.
void BM_InstrumentationBaseline(benchmark::State& state) {
  for (auto _ : state) {
    int sink = 0;
    benchmark::DoNotOptimize(&sink);
  }
}
BENCHMARK(BM_InstrumentationBaseline);

}  // namespace

/// Custom main instead of BENCHMARK_MAIN(): open the standard bench
/// Session first (so --threads/--telemetry/--trace/--log-level and the
/// BENCH_perf_scalability.json summary work here like in every other
/// bench), then strip those flags before google-benchmark parses argv.
int main(int argc, char** argv) {
  stemroot::bench::Session session(argc, argv);
  stemroot::bench::Session::StripFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (ran > 0) return 0;
  // A --benchmark_filter that matches nothing measured nothing: fail, and
  // keep the empty run out of the ledger, where it would start a series.
  session.MarkFailed();
  return 1;
}
