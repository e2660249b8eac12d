#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <numeric>
#include <stdexcept>

#include "baselines/registry.h"
#include "common/journal.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/kkt.h"
#include "eval/options.h"
#include "eval/pipeline.h"
#include "eval/trace_cache.h"

namespace stemroot::service {

namespace {

/// Seed streams: the per-kernel streaming clusterers and the shuffled
/// feed order each get their own derivation from the session seed, so
/// neither can collide with the pipeline's generation/profiling/sampling
/// streams.
constexpr uint64_t kStreamingStream = 0x53455256ULL;  // "SERV"
constexpr uint64_t kShuffleStream = 0x53485546ULL;    // "SHUF"

eval::Pipeline::Options PipelineOpts(const SessionConfig& config) {
  eval::Pipeline::Options options;
  options.seed = config.seed;
  options.size_scale = config.scale;
  options.trace_chunk_invocations = config.trace_chunk_invocations;
  options.trace_spill_dir = config.trace_spill_dir;
  return options;
}

/// Build the session's sampler through the registry, injecting the typed
/// epsilon/confidence into the parameter bag (factories that have no
/// error contract ignore them).
std::unique_ptr<core::Sampler> MakeSessionSampler(const SessionConfig& config) {
  baselines::EnsureBuiltinSamplers();
  core::SamplerParams params = config.params;
  if (config.epsilon > 0.0) params.Set("epsilon", config.epsilon);
  if (config.confidence > 0.0) params.Set("confidence", config.confidence);
  return core::SamplerRegistry::Global().Create(config.method, params);
}

/// RAII request instrumentation: stamps the verb's latency histogram and
/// request/error counters on scope exit (success vs. in-flight exception
/// told apart by the uncaught-exception count), and journals a
/// warn-severity "request.slow" event past the configured threshold.
/// When metrics are disabled the constructor is one relaxed atomic load
/// and the destructor a branch — the instrumentation-off cost contract.
class RequestTimer {
 public:
  RequestTimer(ServiceMetrics& metrics, Verb verb, double slow_us,
               SessionId id = 0)
      : metrics_(metrics), verb_(verb), slow_us_(slow_us), id_(id),
        active_(metrics.Enabled()),
        uncaught_(std::uncaught_exceptions()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  RequestTimer(const RequestTimer&) = delete;
  RequestTimer& operator=(const RequestTimer&) = delete;

  ~RequestTimer() {
    if (!active_) return;
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    const bool ok = std::uncaught_exceptions() == uncaught_;
    metrics_.RecordRequest(verb_, us, ok);
    if (slow_us_ > 0.0 && us >= slow_us_ && journal::Enabled())
      journal::Emit(journal::Severity::kWarn, "request.slow",
                    {{"verb", VerbName(verb_)},
                     {"session", id_},
                     {"latency_us", us}});
  }

 private:
  ServiceMetrics& metrics_;
  Verb verb_;
  double slow_us_;
  SessionId id_;
  bool active_;
  int uncaught_;
  std::chrono::steady_clock::time_point start_;
};

void FillMetrics(eval::RunManifest& manifest, const eval::EvalResult& result) {
  manifest.metrics.present = true;
  manifest.metrics.error_pct = result.error_pct;
  manifest.metrics.theoretical_error_pct = result.theoretical_error_pct;
  manifest.metrics.speedup = result.speedup;
  manifest.metrics.num_samples = result.num_samples;
  manifest.metrics.num_clusters = result.num_clusters;
}

}  // namespace

void ServiceOptions::Validate() const {
  if (max_sessions == 0)
    throw std::invalid_argument("service: max_sessions must be >= 1");
  if (threads < -1)
    throw std::invalid_argument("service: threads must be >= -1");
}

void SessionConfig::Validate() const {
  if (method.empty())
    throw std::invalid_argument("session: method must be non-empty");
  if (epsilon < 0.0 || epsilon >= 1.0)
    throw std::invalid_argument("session: epsilon must be in [0, 1)");
  if (confidence < 0.0 || confidence >= 1.0)
    throw std::invalid_argument("session: confidence must be in [0, 1)");
  if (!(scale > 0.0))
    throw std::invalid_argument("session: scale must be > 0");
  if (reps == 0)
    throw std::invalid_argument("session: reps must be >= 1");
  if (min_invocations == 0)
    throw std::invalid_argument("session: min_invocations must be >= 1");
  if (!workload.empty() && suite.empty())
    throw std::invalid_argument("session: workload requires a suite");
  if (workload.empty() && !suite.empty())
    throw std::invalid_argument("session: suite requires a workload");
}

struct Service::Session {
  std::mutex mu;
  SessionConfig config;              ///< resolved (streaming stem injected)
  std::unique_ptr<core::Sampler> sampler;
  uint64_t streaming_seed = 0;
  KernelTrace accumulated;           ///< everything fed, in feed order
  std::map<uint32_t, core::StreamingRoot> roots;  ///< by accumulated id
  StreamingStats seen;               ///< all fed durations
  std::optional<eval::Pipeline> source;  ///< generated source, when any
  std::vector<uint32_t> feed_order;  ///< source permutation
  size_t cursor = 0;                 ///< next feed_order position
  /// Telemetry of the pipeline stages run for this session (and of the
  /// pool tasks they submit); the close manifest reads only this.
  telemetry::Sink sink;
  uint64_t feed_invocations = 0;
  bool early_stopped = false;
  bool converged_reported = false;  ///< journaled session.converged once
  std::optional<eval::EvalResult> last_eval;
  std::chrono::steady_clock::time_point opened_at =
      std::chrono::steady_clock::now();
};

Service::Service(const ServiceOptions& options) : options_(options) {
  options_.Validate();
  if (options_.threads >= 0) SetNumThreads(options_.threads);
  if (!options_.cache_dir.empty()) eval::SetTraceCacheDir(options_.cache_dir);
  if (options_.enable_telemetry) telemetry::SetEnabled(true);
  if (options_.enable_metrics) metrics_.SetEnabled(true);
}

Service::~Service() = default;

std::shared_ptr<Service::Session> Service::Find(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::out_of_range("service: unknown session id " +
                            std::to_string(id));
  return it->second;
}

size_t Service::NumOpenSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

SessionId Service::OpenSession(const SessionConfig& config) {
  RequestTimer timer(metrics_, Verb::kOpen, options_.slow_request_us);
  config.Validate();
  if (config.epsilon <= 0.0 || config.confidence <= 0.0)
    throw std::invalid_argument(
        "session: streaming sessions need an error contract (epsilon and "
        "confidence > 0)");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= options_.max_sessions)
      throw std::runtime_error("service: session limit reached (" +
                               std::to_string(options_.max_sessions) + ")");
  }

  auto session = std::make_shared<Session>();
  session->config = config;
  session->config.streaming.root.stem.epsilon = config.epsilon;
  session->config.streaming.root.stem.confidence = config.confidence;
  session->config.streaming.Validate();
  session->streaming_seed = DeriveSeed(config.seed, kStreamingStream);
  session->sampler = MakeSessionSampler(session->config);

  if (!config.workload.empty()) {
    const workloads::SuiteId suite = eval::ResolveSuite(config.suite);
    const hw::GpuSpec spec = eval::ResolveGpu(config.gpu);
    telemetry::SinkScope scope(&session->sink);
    eval::Pipeline pipeline = eval::Pipeline::GenerateProfiled(
        {.suite = suite,
         .workload = config.workload,
         .options = PipelineOpts(config)},
        spec);
    const size_t n = pipeline.Trace().NumInvocations();
    session->feed_order.resize(n);
    std::iota(session->feed_order.begin(), session->feed_order.end(), 0u);
    if (config.order == FeedOrder::kShuffled && n > 1) {
      Rng rng(DeriveSeed(config.seed, kShuffleStream));
      for (size_t i = n - 1; i > 0; --i) {
        const uint64_t j = rng.NextBounded(i + 1);
        std::swap(session->feed_order[i],
                  session->feed_order[static_cast<size_t>(j)]);
      }
    }
    session->source.emplace(std::move(pipeline));
  }

  telemetry::Count("service.sessions");
  SessionId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= options_.max_sessions)
      throw std::runtime_error("service: session limit reached (" +
                               std::to_string(options_.max_sessions) + ")");
    id = next_id_++;
    sessions_.emplace(id, std::move(session));
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  if (journal::Enabled())
    journal::Emit(journal::Severity::kInfo, "session.open",
                  {{"session", id},
                   {"method", config.method},
                   {"suite", config.suite},
                   {"workload", config.workload},
                   {"seed", config.seed}});
  return id;
}

void Service::Feed(SessionId id, const KernelTrace& source,
                   std::span<const KernelInvocation> invocations) {
  RequestTimer timer(metrics_, Verb::kFeed, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  uint64_t seen = 0;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    FeedChunk(*session, source, invocations);
    seen = session->accumulated.NumInvocations();
  }
  feed_invocations_.fetch_add(invocations.size(),
                              std::memory_order_relaxed);
  if (journal::Enabled())
    journal::Emit(journal::Severity::kDebug, "session.feed",
                  {{"session", id},
                   {"count", static_cast<uint64_t>(invocations.size())},
                   {"seen", seen}});
}

void Service::Feed(SessionId id, const KernelTrace& source) {
  Feed(id, source, source.Invocations());
}

uint64_t Service::FeedFromSource(SessionId id, uint64_t count) {
  RequestTimer timer(metrics_, Verb::kFeed, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  uint64_t n = 0;
  uint64_t seen = 0;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (!session->source)
      throw std::logic_error(
          "service: FeedFromSource needs a session opened with a workload");
    const KernelTrace& trace = session->source->Trace();
    const uint64_t available = session->feed_order.size() - session->cursor;
    n = std::min<uint64_t>(count, available);
    std::vector<KernelInvocation> chunk;
    chunk.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i)
      chunk.push_back(trace.At(session->feed_order[session->cursor++]));
    if (!chunk.empty()) FeedChunk(*session, trace, chunk);
    seen = session->accumulated.NumInvocations();
  }
  feed_invocations_.fetch_add(n, std::memory_order_relaxed);
  if (journal::Enabled())
    journal::Emit(journal::Severity::kDebug, "session.feed",
                  {{"session", id}, {"count", n}, {"seen", seen}});
  return n;
}

/// Append one chunk to the session under its lock. Validates the whole
/// chunk before mutating anything, so a bad invocation leaves the session
/// untouched.
void Service::FeedChunk(Session& session, const KernelTrace& source,
                        std::span<const KernelInvocation> invocations) {
  for (const KernelInvocation& inv : invocations) {
    if (!(inv.duration_us > 0.0))
      throw std::invalid_argument(
          "service: Feed requires profiled invocations (duration_us > 0)");
    if (inv.kernel_id >= source.NumKernelTypes())
      throw std::out_of_range(
          "service: invocation kernel_id outside the source type table");
  }
  // Intern the source's full type table in id order. Feeding one source
  // trace therefore reproduces its kernel ids exactly (the identity
  // remap), which is what keeps the accumulated trace byte-equivalent to
  // the source under a full timeline-order feed (replay equivalence).
  std::vector<uint32_t> remap(source.NumKernelTypes());
  for (uint32_t t = 0; t < source.NumKernelTypes(); ++t)
    remap[t] = session.accumulated.AddKernelType(source.Type(t));
  if (session.accumulated.WorkloadName().empty())
    session.accumulated.SetWorkloadName(source.WorkloadName());
  for (const KernelInvocation& inv : invocations) {
    KernelInvocation copy = inv;
    copy.kernel_id = remap[inv.kernel_id];
    session.accumulated.Add(copy);  // seq reassigned to the feed order
    auto it = session.roots.find(copy.kernel_id);
    if (it == session.roots.end())
      it = session.roots
               .try_emplace(copy.kernel_id, session.config.streaming,
                            DeriveSeed(session.streaming_seed,
                                       copy.kernel_id))
               .first;
    it->second.Observe(copy.duration_us);
    session.seen.Add(copy.duration_us);
  }
  session.feed_invocations += invocations.size();
  telemetry::Count("service.feed_invocations", invocations.size());
  // Per-session streaming state. "service."-prefixed categories are
  // environmental (the peak depends on which sessions are live), so this
  // is excluded from compare/regress gating like service.* counters.
  resource::AccountPeak(
      "service.session",
      session.accumulated.ApproxBytes() +
          session.roots.size() *
              (sizeof(core::StreamingRoot) + 4 * sizeof(void*)));
}

SessionStatus Service::Query(SessionId id) {
  RequestTimer timer(metrics_, Verb::kQuery, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  std::lock_guard<std::mutex> lock(session->mu);
  SessionStatus status;
  status.invocations_seen = session->accumulated.NumInvocations();
  status.invocations_total = session->source
                                 ? session->source->Trace().NumInvocations()
                                 : session->config.expected_invocations;
  status.seen_total_us = session->seen.Sum();
  status.num_kernels = session->roots.size();

  std::vector<core::ClusterStats> stats;
  for (const auto& [kernel_id, root] : session->roots) {
    status.splits += root.NumSplits();
    status.merges += root.NumMerges();
    for (const core::ClusterStats& c : root.Stats()) {
      ClusterSummary summary;
      summary.kernel = session->accumulated.Type(kernel_id).name;
      summary.kernel_id = kernel_id;
      summary.n = c.n;
      summary.mean_us = c.mean;
      summary.stddev_us = c.stddev;
      status.clusters.push_back(std::move(summary));
      stats.push_back(c);
    }
  }
  const core::StemConfig& stem = session->config.streaming.root.stem;
  if (!stats.empty()) {
    const core::KktSolution solution = core::SolveKkt(stats, stem);
    for (size_t i = 0; i < stats.size(); ++i) {
      status.clusters[i].stem_samples = solution.sample_sizes[i];
      status.stem_samples_total += solution.sample_sizes[i];
    }
    status.stem_cost_us = solution.cost_us;
    status.allocation_error = solution.theoretical_error;
  }

  const uint64_t n = session->seen.Count();
  if (n > 0 && session->seen.Mean() > 0.0) {
    status.predicted_error =
        stem.Z() * session->seen.Cov() / std::sqrt(static_cast<double>(n));
    status.converged = n >= session->config.min_invocations &&
                       status.predicted_error <= session->config.epsilon;
  }
  status.estimated_total_us =
      status.invocations_total > 0
          ? session->seen.Mean() *
                static_cast<double>(status.invocations_total)
          : session->seen.Sum();
  status.early_stop = status.converged && status.invocations_total > 0 &&
                      status.invocations_seen < status.invocations_total;
  if (status.converged && !session->converged_reported) {
    session->converged_reported = true;
    if (journal::Enabled())
      journal::Emit(journal::Severity::kInfo, "session.converged",
                    {{"session", id},
                     {"seen", status.invocations_seen},
                     {"predicted_error", status.predicted_error},
                     {"epsilon", session->config.epsilon}});
  }
  if (status.early_stop && !session->early_stopped) {
    session->early_stopped = true;
    telemetry::Count("service.early_stops");
    early_stops_.fetch_add(1, std::memory_order_relaxed);
    if (journal::Enabled())
      journal::Emit(journal::Severity::kInfo, "session.early_stop",
                    {{"session", id},
                     {"seen", status.invocations_seen},
                     {"total", status.invocations_total},
                     {"predicted_error", status.predicted_error}});
  }
  return status;
}

core::SamplingPlan Service::BuildPlan(SessionId id) {
  RequestTimer timer(metrics_, Verb::kPlan, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  std::lock_guard<std::mutex> lock(session->mu);
  if (session->accumulated.Empty())
    throw std::logic_error("service: BuildPlan before any Feed");
  telemetry::SinkScope scope(&session->sink);
  return eval::Pipeline::FromTrace(session->accumulated,
                                   PipelineOpts(session->config))
      .Sample(*session->sampler);
}

eval::EvalResult Service::Evaluate(SessionId id) {
  RequestTimer timer(metrics_, Verb::kEval, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  std::lock_guard<std::mutex> lock(session->mu);
  if (session->accumulated.Empty())
    throw std::logic_error("service: Evaluate before any Feed");
  telemetry::SinkScope scope(&session->sink);
  session->last_eval = eval::Pipeline::FromTrace(
                           session->accumulated, PipelineOpts(session->config))
                           .Evaluate(*session->sampler, session->config.reps);
  return *session->last_eval;
}

eval::RunManifest Service::CloseSession(SessionId id) {
  RequestTimer timer(metrics_, Verb::kClose, options_.slow_request_us, id);
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end())
      throw std::out_of_range("service: unknown session id " +
                              std::to_string(id));
    session = std::move(it->second);
    sessions_.erase(it);
  }
  std::lock_guard<std::mutex> lock(session->mu);

  eval::RunManifest manifest;
  manifest.tool = "stemroot";
  manifest.command = "session";
  manifest.completed = true;
  manifest.StampBuild();
  manifest.config.suite =
      session->source ? session->source->SuiteName() : session->config.suite;
  manifest.config.workload = session->accumulated.WorkloadName().empty()
                                 ? session->config.workload
                                 : session->accumulated.WorkloadName();
  manifest.config.gpu =
      session->source ? session->source->GpuName() : session->config.gpu;
  manifest.config.method = session->config.method;
  manifest.config.epsilon = session->config.epsilon;
  manifest.config.confidence = session->config.confidence;
  manifest.config.scale = session->config.scale;
  manifest.config.seed = session->config.seed;
  manifest.config.reps = session->config.reps;
  manifest.config.threads = NumThreads();
  if (session->last_eval) FillMetrics(manifest, *session->last_eval);
  manifest.FillFromSnapshot(session->sink.Capture());
  manifest.counters["service.sessions"] = 1;
  manifest.counters["service.feed_invocations"] = session->feed_invocations;
  manifest.counters["service.early_stops"] = session->early_stopped ? 1 : 0;
  manifest.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    session->opened_at)
          .count();
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  if (journal::Enabled()) {
    journal::Emit(journal::Severity::kInfo, "session.close",
                  {{"session", id},
                   {"invocations", session->feed_invocations},
                   {"wall_seconds", manifest.wall_time_seconds}});
    // Stamp the process journal health into the manifest so the regress
    // gate can flag a run whose journal lost or errored events.
    const journal::Stats js = journal::GetStats();
    manifest.journal.present = true;
    manifest.journal.emitted = js.emitted;
    manifest.journal.dropped = js.dropped;
    manifest.journal.errors = js.errors;
  }
  return manifest;
}

ServiceStats Service::GetStats() const {
  ServiceStats stats;
  stats.metrics_enabled = metrics_.Enabled();
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  stats.open_sessions = NumOpenSessions();
  stats.max_sessions = options_.max_sessions;
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.feed_invocations =
      feed_invocations_.load(std::memory_order_relaxed);
  stats.early_stops = early_stops_.load(std::memory_order_relaxed);
  stats.requests_rejected =
      requests_rejected_.load(std::memory_order_relaxed);
  stats.verbs = metrics_.AllVerbs();
  for (const VerbStats& v : stats.verbs) {
    stats.requests_total += v.requests;
    stats.errors_total += v.errors;
  }
  const journal::Stats js = journal::GetStats();
  stats.journal_emitted = js.emitted;
  stats.journal_dropped = js.dropped;
  stats.journal_errors = js.errors;
  // One fresh physical observation per stats assembly, so the exposition
  // stays live even between sampler ticks.
  resource::SamplePhysical();
  const resource::Stats rs = resource::GetStats();
  stats.process_rss_bytes = rs.current_rss_bytes;
  stats.process_hwm_bytes = rs.peak_rss_bytes;
  stats.resource_samples = rs.samples;
  stats.process_cpu_user_seconds = rs.user_cpu_seconds;
  stats.process_cpu_system_seconds = rs.system_cpu_seconds;
  stats.mem_logical = resource::LogicalPeaks();
  return stats;
}

eval::EvalResult Service::RunBatch(const SessionConfig& config,
                                   eval::RunManifest* manifest) {
  config.Validate();
  if (config.workload.empty())
    throw std::invalid_argument(
        "service: RunBatch needs a suite and workload in the config");
  const workloads::SuiteId suite = eval::ResolveSuite(config.suite);
  const hw::GpuSpec spec = eval::ResolveGpu(config.gpu);
  const std::unique_ptr<core::Sampler> sampler = MakeSessionSampler(config);
  eval::Pipeline pipeline = eval::Pipeline::GenerateProfiled(
      {.suite = suite,
       .workload = config.workload,
       .options = PipelineOpts(config)},
      spec);
  if (manifest != nullptr) {
    pipeline.FillManifest(*manifest);
    manifest->config.method = config.method;
    manifest->config.epsilon = config.epsilon;
    manifest->config.confidence = config.confidence;
    manifest->config.reps = config.reps;
    if (pipeline.Spill().enabled) {
      manifest->trace_spill.present = true;
      manifest->trace_spill.chunk_invocations =
          pipeline.Spill().chunk_invocations;
      manifest->trace_spill.chunks = pipeline.Spill().chunks;
      manifest->trace_spill.bytes = pipeline.Spill().bytes;
    }
  }
  const eval::EvalResult result = pipeline.Evaluate(*sampler, config.reps);
  if (manifest != nullptr) FillMetrics(*manifest, result);
  return result;
}

}  // namespace stemroot::service
