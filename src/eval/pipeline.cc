#include "eval/pipeline.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/resource.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "eval/trace_cache.h"

namespace stemroot::eval {

Pipeline::Pipeline(KernelTrace trace, const Options& options, bool profiled)
    : trace_(std::move(trace)), options_(options), profiled_(profiled) {}

Pipeline Pipeline::Generate(const Spec& spec) {
  return Generate(spec.suite, spec.workload, spec.options);
}

Pipeline Pipeline::GenerateProfiled(const Spec& spec,
                                    const hw::HardwareModel& gpu,
                                    const std::string& gpu_name) {
  return GenerateProfiled(spec.suite, spec.workload, gpu, spec.options,
                          gpu_name);
}

Pipeline Pipeline::GenerateProfiled(const Spec& spec, const hw::GpuSpec& gpu) {
  return GenerateProfiled(spec.suite, spec.workload, gpu, spec.options);
}

Pipeline Pipeline::Generate(workloads::SuiteId suite,
                            const std::string& workload,
                            const Options& options) {
  telemetry::Span span("generate");
  KernelTrace trace = workloads::MakeWorkload(
      suite, workload, DeriveSeed(options.seed, HashString(workload)),
      options.size_scale);
  resource::Account("trace", trace.ApproxBytes());
  Pipeline pipeline(std::move(trace), options, /*profiled=*/false);
  pipeline.suite_name_ = workloads::ToName(suite);
  pipeline.workload_ = workload;
  return pipeline;
}

Pipeline Pipeline::GenerateProfiled(workloads::SuiteId suite,
                                    const std::string& workload,
                                    const hw::HardwareModel& gpu,
                                    const Options& options,
                                    const std::string& gpu_name) {
  const TraceCache* cache = DefaultTraceCache();
  // The key is built even with no cache configured: the spill file
  // (MaybeSpill) is named by its digest and echoes it, so a stale spill
  // from a different build/config can never be mistaken for the current
  // one.
  TraceCacheKey key;
  key.suite = workloads::ToName(suite);
  key.workload = workload;
  key.gpu_digest = GpuDigest(gpu);
  key.scale = options.size_scale;
  key.seed = options.seed;
  key.build_stamp = BuildStamp();
  if (cache != nullptr) {
    std::optional<KernelTrace> trace;
    {
      telemetry::Span span("cache.load");
      trace = cache->Load(key);
    }
    if (trace) {
      // The skipped stages must still leave their (near-zero) spans and
      // their trace-derived counters in the snapshot: manifest stage
      // checks keep passing, and a warm run's deterministic counters stay
      // byte-identical to the cold run's.
      const uint64_t n = trace->NumInvocations();
      {
        telemetry::Span span("generate");
        telemetry::Count("workloads.traces_generated");
        telemetry::Count("workloads.invocations_generated", n);
        telemetry::Record("workloads.trace_invocations",
                          static_cast<double>(n));
        // The loaded trace has the same element counts as the one
        // Generate would have built, so this charge keeps a warm run's
        // logical "trace" peak byte-identical to the cold run's.
        resource::Account("trace", trace->ApproxBytes());
      }
      {
        telemetry::Span span("profile");
        telemetry::Count("hw.profile_calls");
        telemetry::Count("hw.invocations_profiled", n);
        telemetry::Record("hw.profile_invocations", static_cast<double>(n));
      }
      Pipeline pipeline(std::move(*trace), options, /*profiled=*/true);
      pipeline.suite_name_ = workloads::ToName(suite);
      pipeline.workload_ = workload;
      pipeline.gpu_name_ = gpu_name;
      pipeline.MaybeSpill(key);
      return pipeline;
    }
  }
  Pipeline pipeline = Generate(suite, workload, options);
  pipeline.Profile(gpu);
  pipeline.gpu_name_ = gpu_name;
  if (cache != nullptr) cache->Store(key, pipeline.trace_);
  pipeline.MaybeSpill(key);
  return pipeline;
}

void Pipeline::MaybeSpill(const TraceCacheKey& key) {
  if (options_.trace_spill_dir.empty()) return;
  const uint64_t cap = options_.trace_chunk_invocations > 0
                           ? options_.trace_chunk_invocations
                           : kDefaultChunkInvocations;
  telemetry::Span span("cache.spill");
  std::error_code ec;
  std::filesystem::create_directories(options_.trace_spill_dir, ec);
  // A spill is a trace entry like a cache entry: a verified file is
  // reused, anything less is rebuilt from the in-memory trace.
  const std::string path = TraceEntryPath(options_.trace_spill_dir, key);
  const TraceEntryInfo entry =
      EnsureTraceEntry(path, key.KeyString(), trace_, cap);
  spill_ = SpillInfo{.enabled = true,
                     .path = path,
                     .chunk_invocations = cap,
                     .chunks = entry.chunks,
                     .bytes = entry.bytes,
                     .reused = entry.reused};
  if (entry.reused) {
    telemetry::Count("cache.spill_reuse");
    return;
  }
  if (entry.rebuilt) telemetry::Count("cache.spill_rebuild");
  telemetry::Count("cache.spill_write");
  resource::Account("cache", spill_.bytes);
}

std::unique_ptr<ChunkSource> Pipeline::MakeChunkSource() const {
  if (spill_.enabled) return std::make_unique<FileChunkSource>(spill_.path);
  const uint64_t cap =
      options_.trace_chunk_invocations > 0
          ? options_.trace_chunk_invocations
          : std::max<uint64_t>(1, trace_.NumInvocations());
  return std::make_unique<InMemoryChunkSource>(trace_, cap);
}

Pipeline Pipeline::GenerateProfiled(workloads::SuiteId suite,
                                    const std::string& workload,
                                    const hw::GpuSpec& spec,
                                    const Options& options) {
  return GenerateProfiled(suite, workload, hw::HardwareModel(spec), options,
                          spec.name);
}

Pipeline Pipeline::FromTrace(KernelTrace trace, const Options& options) {
  const bool profiled = trace.TotalDurationUs() > 0.0;
  Pipeline pipeline(std::move(trace), options, profiled);
  pipeline.workload_ = pipeline.trace_.WorkloadName();
  return pipeline;
}

Pipeline& Pipeline::Profile(const hw::HardwareModel& gpu) {
  telemetry::Span span("profile");
  gpu.ProfileTrace(trace_, DeriveSeed(options_.seed, kProfileStream));
  profiled_ = true;
  return *this;
}

Pipeline& Pipeline::Profile(const hw::GpuSpec& spec) {
  gpu_name_ = spec.name;
  return Profile(hw::HardwareModel(spec));
}

void Pipeline::FillManifest(RunManifest& manifest) const {
  manifest.config.suite = suite_name_;
  manifest.config.workload = workload_;
  manifest.config.gpu = gpu_name_;
  manifest.config.seed = options_.seed;
  manifest.config.scale = options_.size_scale;
}

void Pipeline::RequireProfiled(const char* stage) const {
  if (!profiled_)
    throw std::logic_error(std::string("Pipeline::") + stage +
                           ": trace is not profiled (call Profile() first)");
}

core::SamplingPlan Pipeline::Sample(const core::Sampler& sampler) const {
  RequireProfiled("Sample");
  telemetry::Span span("sample");
  core::SamplingPlan plan = sampler.BuildPlan(
      trace_, DeriveSeed(options_.seed, HashString(sampler.Name())));
  resource::AccountPeak("plan", plan.ApproxBytes());
  return plan;
}

EvalResult Pipeline::Evaluate(const core::Sampler& sampler,
                              uint32_t reps) const {
  RequireProfiled("Evaluate");
  telemetry::Span span("evaluate");
  return EvaluateRepeated(
      sampler, trace_, reps,
      DeriveSeed(options_.seed, HashString(sampler.Name())));
}

}  // namespace stemroot::eval
