#include "service/metrics.h"

#include <cmath>
#include <sstream>

#include "common/str.h"

namespace stemroot::service {

namespace {

constexpr const char* kVerbNames[kNumVerbs] = {"open", "feed",  "query",
                                               "plan", "eval", "close"};

/// The service.* counters CloseSession writes into session manifests.
/// Sorted; keep in sync with service.cc and DESIGN.md §14.
constexpr std::string_view kRegisteredCounters[] = {
    "service.early_stops",
    "service.feed_invocations",
    "service.sessions",
};

/// One "name value" or "name{labels} value" sample line.
void Sample(std::string& out, std::string_view family,
            std::string_view labels, double value) {
  out += family;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += FormatDouble(value);
  out += '\n';
}

void Family(std::string& out, std::string_view name, std::string_view type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

std::string VerbLabel(const VerbStats& v) {
  return Format("verb=\"%s\"", v.verb.c_str());
}

/// Logical mem categories become metric-name components: anything
/// outside [a-zA-Z0-9_] maps to '_' ("service.session" ->
/// "service_session"), keeping every emitted name exposition-legal.
std::string SanitizeCategory(std::string_view category) {
  std::string out;
  out.reserve(category.size());
  for (char c : category) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

bool ValidMetricName(std::string_view name) {
  auto alpha = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (name.empty() || !alpha(name[0])) return false;
  for (char c : name)
    if (!alpha(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Gauges that are nonetheless monotone by construction: the process RSS
/// high water only ratchets up, and the logical per-category peaks are
/// running maxima (common/resource.h). The previous-scrape check holds
/// them to the counter rule.
bool IsMonotoneGauge(std::string_view family) {
  return family == "stemroot_process_hwm_bytes" ||
         StartsWith(family, "stemroot_mem_");
}

/// The process-resource families must never go negative, gauge type or
/// not: bytes and tick counts have no meaningful negative value.
bool IsNonNegativeFamily(std::string_view family) {
  return StartsWith(family, "stemroot_process_") ||
         StartsWith(family, "stemroot_mem_");
}

/// The family a sample belongs to: its name minus the summary/histogram
/// component suffixes.
std::string_view FamilyOf(std::string_view name) {
  for (std::string_view suffix : {"_sum", "_count", "_bucket"})
    if (name.size() > suffix.size() && EndsWith(name, suffix))
      return name.substr(0, name.size() - suffix.size());
  return name;
}

/// One parsed scrape: family -> type, and "name{labels}" -> value (the
/// key of the previous-scrape comparison).
struct Exposition {
  std::map<std::string, std::string, std::less<>> types;
  std::map<std::string, double> samples;
};

/// Parse `text`, appending "<where> N: why" for every malformed line.
Exposition ParseExposition(std::string_view text, std::string_view where,
                           std::vector<std::string>& problems) {
  Exposition out;
  size_t lineno = 0;
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{}
                                         : text.substr(eol + 1);
    ++lineno;
    if (line.empty()) continue;
    auto fail = [&](const std::string& why) {
      problems.push_back(Format("%.*s %zu: ", static_cast<int>(where.size()),
                                where.data(), lineno) +
                         why);
    };
    if (line[0] == '#') {
      std::istringstream comment{std::string(line)};
      std::string hash, kind, name, type;
      comment >> hash >> kind;
      if (kind != "TYPE") continue;  // # HELP and other comments pass
      if (!(comment >> name >> type) ||
          (type != "counter" && type != "gauge" && type != "summary" &&
           type != "histogram")) {
        fail("malformed TYPE line: " + std::string(line));
      } else if (!ValidMetricName(name)) {
        fail("bad metric name '" + name + "'");
      } else {
        if (type == "counter" && !EndsWith(name, "_total"))
          fail("counter family '" + name + "' must end in _total");
        out.types[name] = type;
      }
      continue;
    }

    // Sample line: name[{labels}] value
    const size_t name_end = line.find_first_of("{ ");
    const std::string_view name = line.substr(0, name_end);
    if (name_end == std::string_view::npos) {
      fail("malformed sample line: " + std::string(line));
      continue;
    }
    if (!ValidMetricName(name)) {
      fail("bad metric name '" + std::string(name) + "'");
      continue;
    }
    std::string_view labels;
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      const size_t close = line.find('}', name_end);
      if (close == std::string_view::npos) {
        fail("unterminated label set: " + std::string(line));
        continue;
      }
      labels = line.substr(name_end, close - name_end + 1);
      value_start = close + 1;
    }
    const size_t value_pos = line.find_first_not_of(' ', value_start);
    const std::optional<double> value =
        value_pos == std::string_view::npos
            ? std::nullopt
            : ParseDouble(line.substr(value_pos));
    if (!value || !std::isfinite(*value)) {
      fail("sample value does not parse as a finite number: " +
           std::string(line));
      continue;
    }
    const std::string_view family = FamilyOf(name);
    const auto type = out.types.find(family);
    if (type == out.types.end()) {
      fail("sample '" + std::string(name) + "' has no preceding # TYPE " +
           std::string(family) + " declaration");
      continue;
    }
    if (type->second == "counter" && *value < 0.0)
      fail("counter '" + std::string(name) + "' is negative");
    if (IsNonNegativeFamily(family) && *value < 0.0)
      fail("resource gauge '" + std::string(name) + "' is negative");
    out.samples[std::string(name) + std::string(labels)] = *value;
  }
  return out;
}

}  // namespace

const char* VerbName(Verb verb) {
  return kVerbNames[static_cast<size_t>(verb)];
}

void ServiceMetrics::RecordRequest(Verb verb, double latency_us, bool ok) {
  if (!Enabled()) return;
  const size_t i = static_cast<size_t>(verb);
  requests_[i].fetch_add(1, std::memory_order_relaxed);
  if (!ok) errors_[i].fetch_add(1, std::memory_order_relaxed);
  latency_[i].Record(latency_us);
}

VerbStats ServiceMetrics::GetVerb(Verb verb) const {
  const LogHistogram& h = Latency(verb);
  VerbStats out;
  out.verb = VerbName(verb);
  out.requests = Requests(verb);
  out.errors = Errors(verb);
  out.total_us = h.Sum();
  out.mean_us = h.Mean();
  out.p50_us = h.Quantile(0.50);
  out.p90_us = h.Quantile(0.90);
  out.p99_us = h.Quantile(0.99);
  out.max_us = h.Max();
  return out;
}

std::vector<VerbStats> ServiceMetrics::AllVerbs() const {
  std::vector<VerbStats> out;
  out.reserve(kNumVerbs);
  for (size_t i = 0; i < kNumVerbs; ++i)
    out.push_back(GetVerb(static_cast<Verb>(i)));
  return out;
}

std::span<const std::string_view> RegisteredServiceCounters() {
  return kRegisteredCounters;
}

bool IsRegisteredServiceCounter(std::string_view name) {
  for (std::string_view registered : kRegisteredCounters)
    if (name == registered) return true;
  return false;
}

std::string PrometheusText(const ServiceStats& stats) {
  std::string out;
  out.reserve(4096);

  Family(out, "stemroot_service_uptime_seconds", "gauge");
  Sample(out, "stemroot_service_uptime_seconds", "", stats.uptime_seconds);
  Family(out, "stemroot_service_open_sessions", "gauge");
  Sample(out, "stemroot_service_open_sessions", "",
         static_cast<double>(stats.open_sessions));
  Family(out, "stemroot_service_max_sessions", "gauge");
  Sample(out, "stemroot_service_max_sessions", "",
         static_cast<double>(stats.max_sessions));

  Family(out, "stemroot_service_sessions_opened_total", "counter");
  Sample(out, "stemroot_service_sessions_opened_total", "",
         static_cast<double>(stats.sessions_opened));
  Family(out, "stemroot_service_sessions_closed_total", "counter");
  Sample(out, "stemroot_service_sessions_closed_total", "",
         static_cast<double>(stats.sessions_closed));
  Family(out, "stemroot_service_feed_invocations_total", "counter");
  Sample(out, "stemroot_service_feed_invocations_total", "",
         static_cast<double>(stats.feed_invocations));
  Family(out, "stemroot_service_early_stops_total", "counter");
  Sample(out, "stemroot_service_early_stops_total", "",
         static_cast<double>(stats.early_stops));

  Family(out, "stemroot_service_requests_total", "counter");
  for (const VerbStats& v : stats.verbs)
    Sample(out, "stemroot_service_requests_total", VerbLabel(v),
           static_cast<double>(v.requests));
  Family(out, "stemroot_service_request_errors_total", "counter");
  for (const VerbStats& v : stats.verbs)
    Sample(out, "stemroot_service_request_errors_total", VerbLabel(v),
           static_cast<double>(v.errors));
  Family(out, "stemroot_service_requests_rejected_total", "counter");
  Sample(out, "stemroot_service_requests_rejected_total", "",
         static_cast<double>(stats.requests_rejected));

  // The latency summaries: quantile samples plus the _sum/_count pair,
  // per verb. Only verbs with traffic are emitted — a quantile of an
  // empty histogram is not 0, it is absent.
  Family(out, "stemroot_service_request_latency_us", "summary");
  for (const VerbStats& v : stats.verbs) {
    if (v.requests == 0) continue;
    const std::string label = VerbLabel(v);
    Sample(out, "stemroot_service_request_latency_us",
           label + ",quantile=\"0.5\"", v.p50_us);
    Sample(out, "stemroot_service_request_latency_us",
           label + ",quantile=\"0.9\"", v.p90_us);
    Sample(out, "stemroot_service_request_latency_us",
           label + ",quantile=\"0.99\"", v.p99_us);
    Sample(out, "stemroot_service_request_latency_us_sum", label,
           v.total_us);
    Sample(out, "stemroot_service_request_latency_us_count", label,
           static_cast<double>(v.requests));
  }
  Family(out, "stemroot_service_request_latency_max_us", "gauge");
  for (const VerbStats& v : stats.verbs) {
    if (v.requests == 0) continue;
    Sample(out, "stemroot_service_request_latency_max_us", VerbLabel(v),
           v.max_us);
  }

  // Process-resource families (DESIGN.md §15). RSS/HWM are byte gauges
  // (HWM is monotone by construction — ValidatePrometheusText enforces
  // it across scrapes); the sampler tick count is a counter; the logical
  // per-category peaks are one family per category, also monotone.
  Family(out, "stemroot_process_rss_bytes", "gauge");
  Sample(out, "stemroot_process_rss_bytes", "",
         static_cast<double>(stats.process_rss_bytes));
  Family(out, "stemroot_process_hwm_bytes", "gauge");
  Sample(out, "stemroot_process_hwm_bytes", "",
         static_cast<double>(stats.process_hwm_bytes));
  Family(out, "stemroot_process_resource_samples_total", "counter");
  Sample(out, "stemroot_process_resource_samples_total", "",
         static_cast<double>(stats.resource_samples));
  Family(out, "stemroot_process_cpu_seconds_total", "counter");
  Sample(out, "stemroot_process_cpu_seconds_total", "mode=\"user\"",
         stats.process_cpu_user_seconds);
  Sample(out, "stemroot_process_cpu_seconds_total", "mode=\"system\"",
         stats.process_cpu_system_seconds);
  for (const auto& [category, bytes] : stats.mem_logical) {
    const std::string family =
        "stemroot_mem_" + SanitizeCategory(category) + "_bytes";
    Family(out, family, "gauge");
    Sample(out, family, "", static_cast<double>(bytes));
  }

  Family(out, "stemroot_journal_events_total", "counter");
  Sample(out, "stemroot_journal_events_total", "",
         static_cast<double>(stats.journal_emitted));
  Family(out, "stemroot_journal_dropped_total", "counter");
  Sample(out, "stemroot_journal_dropped_total", "",
         static_cast<double>(stats.journal_dropped));
  Family(out, "stemroot_journal_errors_total", "counter");
  Sample(out, "stemroot_journal_errors_total", "",
         static_cast<double>(stats.journal_errors));
  return out;
}

std::vector<std::string> ValidatePrometheusText(std::string_view text,
                                                std::string_view previous) {
  std::vector<std::string> problems;
  const Exposition current = ParseExposition(text, "line", problems);
  if (previous.empty()) return problems;
  const Exposition prev =
      ParseExposition(previous, "previous scrape line", problems);
  for (const auto& [key, prev_value] : prev.samples) {
    const std::string_view family =
        FamilyOf(std::string_view(key).substr(0, key.find('{')));
    const auto type = prev.types.find(family);
    const bool counter = type->second == "counter";
    if (!counter && !IsMonotoneGauge(family)) continue;
    const std::string what = counter ? "counter" : "high-water gauge";
    const auto it = current.samples.find(key);
    if (it == current.samples.end())
      problems.push_back(what + " sample '" + key +
                         "' vanished from the later scrape");
    else if (it->second < prev_value)
      problems.push_back(what + " '" + key + "' went backwards (" +
                         FormatDouble(prev_value) + " -> " +
                         FormatDouble(it->second) + ")");
  }
  return problems;
}

}  // namespace stemroot::service
