/// \file
/// Live service introspection: per-verb request metrics and their
/// Prometheus text exposition (DESIGN.md §14).
///
/// ServiceMetrics is the per-Service-instance observability surface:
/// each protocol verb (open/feed/query/plan/eval/close) gets a
/// log-bucketed latency histogram (common/histogram.h LogHistogram) plus
/// request and error counters — all wait-free relaxed atomics, so
/// recording never blocks a session operation and readers (the stats
/// verb, the metrics exporter) see a live view without quiescing.
///
/// **Cost contract.** Off by default: when disabled, the per-request
/// instrumentation is one relaxed atomic load (the same contract as
/// telemetry, trace events, and the journal — pinned by
/// BM_InstrumentationOff). `stemroot serve` enables it; the batch
/// `stemroot run` path never does, so batch manifests are byte-identical
/// with and without this subsystem compiled in.
///
/// **Metric naming.** Exposition families are
/// `stemroot_<subsystem>_<name>[_unit][_total]` — `_total` on counters
/// (Prometheus convention), `_us` for microsecond-valued families.
/// Telemetry counters under the `service.*` prefix are environmental
/// (excluded from the compare gate) and must be registered here:
/// RegisteredServiceCounters() is the closed set that `stemroot check
/// manifest --lint-manifest` enforces, so a typo'd or undocumented
/// service counter fails CI instead of silently escaping the gates.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace stemroot::service {

/// The six session verbs of the typed Service API (and the line
/// protocol). Protocol-only ops (stats, health, shutdown) are not
/// latency-tracked: they never touch session state.
enum class Verb : uint8_t { kOpen, kFeed, kQuery, kPlan, kEval, kClose };
inline constexpr size_t kNumVerbs = 6;

/// Canonical lowercase wire token ("open", "feed", ...).
const char* VerbName(Verb verb);

/// One verb's aggregate view, as the stats response and the Prometheus
/// exposition report it. Quantiles are nearest-rank over the log buckets
/// (a bucket upper bound, i.e. within one growth factor of exact);
/// max_us is exact.
struct VerbStats {
  std::string verb;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double total_us = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Everything the stats verb / exporter reports, assembled by
/// Service::GetStats() under no lock (all relaxed-atomic reads).
struct ServiceStats {
  bool metrics_enabled = false;
  double uptime_seconds = 0.0;
  uint64_t open_sessions = 0;
  uint64_t max_sessions = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t feed_invocations = 0;
  uint64_t early_stops = 0;
  uint64_t requests_total = 0;  ///< sum over verbs
  uint64_t errors_total = 0;    ///< sum over verbs
  /// Request lines refused before parsing (line_too_long); they reach no
  /// verb, so requests_total does not count them.
  uint64_t requests_rejected = 0;
  std::vector<VerbStats> verbs;  ///< kNumVerbs entries, enum order
  /// journal::GetStats() at assembly time (zeros when no journal).
  uint64_t journal_emitted = 0;
  uint64_t journal_dropped = 0;
  uint64_t journal_errors = 0;
  /// resource::GetStats()/LogicalPeaks() at assembly time (DESIGN.md
  /// §15): physical RSS (environmental) and the logical per-category
  /// peaks. All zeros/empty when the resource subsystem never ran.
  uint64_t process_rss_bytes = 0;
  uint64_t process_hwm_bytes = 0;      ///< monotonic high water
  uint64_t resource_samples = 0;
  double process_cpu_user_seconds = 0.0;
  double process_cpu_system_seconds = 0.0;
  std::map<std::string, uint64_t> mem_logical;  ///< category -> peak bytes
};

/// Per-verb latency histograms and request/error counters. Thread-safe;
/// every mutator is wait-free when enabled and a single relaxed load
/// when not.
class ServiceMetrics {
 public:
  ServiceMetrics() = default;

  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record one completed request (no-op when disabled). `ok` is false
  /// when the operation threw — the error still contributes its latency.
  void RecordRequest(Verb verb, double latency_us, bool ok);

  uint64_t Requests(Verb verb) const {
    return requests_[static_cast<size_t>(verb)].load(
        std::memory_order_relaxed);
  }
  uint64_t Errors(Verb verb) const {
    return errors_[static_cast<size_t>(verb)].load(
        std::memory_order_relaxed);
  }
  const LogHistogram& Latency(Verb verb) const {
    return latency_[static_cast<size_t>(verb)];
  }

  /// Live aggregate of one verb (relaxed reads; counts may trail a
  /// racing recorder by a request — fine for monitoring).
  VerbStats GetVerb(Verb verb) const;
  /// All verbs in enum order.
  std::vector<VerbStats> AllVerbs() const;

 private:
  std::atomic<bool> enabled_{false};
  std::array<LogHistogram, kNumVerbs> latency_;
  std::array<std::atomic<uint64_t>, kNumVerbs> requests_{};
  std::array<std::atomic<uint64_t>, kNumVerbs> errors_{};
};

/// The closed set of telemetry counter names the service may emit under
/// the environmental `service.*` prefix (sorted). Adding a counter to
/// the service REQUIRES adding it here — the `stemroot check manifest
/// --lint-manifest` lint rejects any `service.*` name outside this set.
std::span<const std::string_view> RegisteredServiceCounters();
bool IsRegisteredServiceCounter(std::string_view name);

/// Render `stats` in the Prometheus text exposition format (version
/// 0.0.4): `# TYPE` line per family, counters suffixed `_total`, the
/// per-verb latency summaries with quantile labels. Deterministic for
/// identical inputs (fixed family and label order). Validated by
/// ValidatePrometheusText (`stemroot check metrics`).
std::string PrometheusText(const ServiceStats& stats);

/// Validate a Prometheus text exposition. Every line is blank, a comment,
/// a `# TYPE <name> counter|gauge|summary|histogram` declaration, or a
/// `<name>[{labels}] <value>` sample; names match
/// [a-zA-Z_:][a-zA-Z0-9_:]*; every sample follows its family's `# TYPE`;
/// counter families end in `_total`; values parse (locale-proof) as
/// finite numbers; counters and every stemroot_process_* /
/// stemroot_mem_* sample are >= 0.
///
/// A non-empty `previous` is an earlier scrape of the same process,
/// validated the same way. No counter sample, and no sample of a gauge
/// that is monotone by construction (stemroot_process_hwm_bytes, the
/// stemroot_mem_* logical peaks), may then be lower in `text` or missing
/// from it.
///
/// Returns one message per problem ("line N: why" for `text`, "previous
/// scrape line N: why" for `previous`); empty means valid.
std::vector<std::string> ValidatePrometheusText(std::string_view text,
                                                std::string_view previous =
                                                    {});

}  // namespace stemroot::service
