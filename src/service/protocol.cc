#include "service/protocol.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/build_info.h"
#include "common/json.h"
#include "eval/ledger.h"

namespace stemroot::service {

namespace {

/// Response assembly: members are appended in call order, so responses
/// are byte-stable for identical inputs.
class ObjectWriter {
 public:
  ObjectWriter() : out_("{") {}

  void Bool(std::string_view key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
  }
  void Num(std::string_view key, double value) {
    Key(key);
    out_ += json::Number(value);
  }
  void Int(std::string_view key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
  }
  void Str(std::string_view key, std::string_view value) {
    Key(key);
    json::AppendString(out_, value);
  }
  void Raw(std::string_view key, std::string_view value) {
    Key(key);
    out_ += value;
  }

  std::string Finish() { return out_ + "}"; }

 private:
  void Key(std::string_view key) {
    if (out_.size() > 1) out_ += ",";
    json::AppendString(out_, key);
    out_ += ":";
  }

  std::string out_;
};

BrokerResult Error(const std::string& message) {
  ObjectWriter w;
  w.Bool("ok", false);
  w.Str("error", message);
  return {w.Finish(), false, false};
}

BrokerResult Success(ObjectWriter& w, bool shutdown = false) {
  return {w.Finish(), true, shutdown};
}

std::string GetString(const json::Value& req, std::string_view key,
                      const std::string& fallback) {
  const json::Value* v = req.Find(key);
  if (v == nullptr) return fallback;
  if (!v->IsString())
    throw std::invalid_argument("protocol: '" + std::string(key) +
                                "' must be a string");
  return v->string;
}

double GetNumber(const json::Value& req, std::string_view key,
                 double fallback) {
  const json::Value* v = req.Find(key);
  if (v == nullptr) return fallback;
  if (!v->IsNumber())
    throw std::invalid_argument("protocol: '" + std::string(key) +
                                "' must be a number");
  return v->number;
}

bool GetBool(const json::Value& req, std::string_view key, bool fallback) {
  const json::Value* v = req.Find(key);
  if (v == nullptr) return fallback;
  if (v->kind != json::Value::Kind::kBool)
    throw std::invalid_argument("protocol: '" + std::string(key) +
                                "' must be a bool");
  return v->number != 0.0;
}

uint64_t GetCount(const json::Value& req, std::string_view key,
                  uint64_t fallback) {
  const double n = GetNumber(req, key, static_cast<double>(fallback));
  if (n < 0.0)
    throw std::invalid_argument("protocol: '" + std::string(key) +
                                "' must be >= 0");
  return static_cast<uint64_t>(n);
}

SessionId RequireId(const json::Value& req) {
  const json::Value* v = req.Find("id");
  if (v == nullptr || !v->IsNumber() || v->number < 1.0)
    throw std::invalid_argument("protocol: request needs a session 'id'");
  return static_cast<SessionId>(v->number);
}

SessionConfig ConfigFromRequest(const json::Value& req) {
  SessionConfig config;
  config.method = GetString(req, "method", config.method);
  config.suite = GetString(req, "suite", config.suite);
  config.workload = GetString(req, "workload", config.workload);
  config.gpu = GetString(req, "gpu", config.gpu);
  config.epsilon = GetNumber(req, "epsilon", config.epsilon);
  config.confidence = GetNumber(req, "confidence", config.confidence);
  config.seed = GetCount(req, "seed", config.seed);
  config.scale = GetNumber(req, "scale", config.scale);
  config.reps = static_cast<uint32_t>(GetCount(req, "reps", config.reps));
  config.min_invocations =
      GetCount(req, "min_invocations", config.min_invocations);
  const std::string order = GetString(req, "order", "timeline");
  if (order == "timeline") {
    config.order = FeedOrder::kTimeline;
  } else if (order == "shuffled") {
    config.order = FeedOrder::kShuffled;
  } else {
    throw std::invalid_argument(
        "protocol: 'order' must be \"timeline\" or \"shuffled\"");
  }
  if (const json::Value* params = req.Find("params")) {
    if (!params->IsObject())
      throw std::invalid_argument("protocol: 'params' must be an object");
    for (const auto& [key, value] : *params->object) {
      if (value.IsString()) {
        config.params.Set(key, value.string);
      } else if (value.IsNumber()) {
        config.params.Set(key, value.number);
      } else if (value.kind == json::Value::Kind::kBool) {
        config.params.Set(key, value.number != 0.0);
      } else {
        throw std::invalid_argument("protocol: parameter '" + key +
                                    "' must be a string, number, or bool");
      }
    }
  }
  // Protocol sessions are source-fed; the service needs a workload.
  if (config.workload.empty() || config.suite.empty())
    throw std::invalid_argument(
        "protocol: open needs both 'suite' and 'workload'");
  return config;
}

void AppendStatus(ObjectWriter& w, const SessionStatus& status,
                  bool with_clusters) {
  w.Int("invocations_seen", status.invocations_seen);
  w.Int("invocations_total", status.invocations_total);
  w.Num("seen_total_us", status.seen_total_us);
  w.Int("num_kernels", status.num_kernels);
  w.Int("num_clusters", status.clusters.size());
  w.Int("splits", status.splits);
  w.Int("merges", status.merges);
  w.Int("stem_samples_total", status.stem_samples_total);
  w.Num("stem_cost_us", status.stem_cost_us);
  w.Num("allocation_error", status.allocation_error);
  w.Num("predicted_error", status.predicted_error);
  w.Bool("converged", status.converged);
  w.Bool("early_stop", status.early_stop);
  w.Num("estimated_total_us", status.estimated_total_us);
  if (!with_clusters) return;
  std::string clusters = "[";
  for (const ClusterSummary& c : status.clusters) {
    if (clusters.size() > 1) clusters += ",";
    ObjectWriter cw;
    cw.Str("kernel", c.kernel);
    cw.Int("kernel_id", c.kernel_id);
    cw.Int("n", c.n);
    cw.Num("mean_us", c.mean_us);
    cw.Num("stddev_us", c.stddev_us);
    cw.Int("stem_samples", c.stem_samples);
    clusters += cw.Finish();
  }
  clusters += "]";
  w.Raw("clusters", clusters);
}

}  // namespace

BrokerResult OversizedLineError() {
  ObjectWriter w;
  w.Bool("ok", false);
  w.Str("error", "protocol: request line exceeds " +
                     std::to_string(kMaxRequestLineBytes) + " bytes");
  w.Str("code", "line_too_long");
  return {w.Finish(), false, false};
}

BrokerResult SessionBroker::HandleLine(const std::string& line) {
  json::Value req;
  std::string parse_error;
  if (!json::Parse(line, req, &parse_error))
    return Error("protocol: bad request: " + parse_error);
  if (!req.IsObject()) return Error("protocol: request must be an object");

  try {
    const std::string op = GetString(req, "op", "");
    if (op.empty()) return Error("protocol: request needs an 'op'");

    if (op == "open") {
      const SessionId id = service_.OpenSession(ConfigFromRequest(req));
      ObjectWriter w;
      w.Bool("ok", true);
      w.Int("id", id);
      return Success(w);
    }
    if (op == "feed") {
      const SessionId id = RequireId(req);
      const uint64_t count = GetCount(req, "count", 0);
      if (count == 0)
        throw std::invalid_argument("protocol: feed needs a 'count' >= 1");
      const uint64_t fed = service_.FeedFromSource(id, count);
      const SessionStatus status = service_.Query(id);
      ObjectWriter w;
      w.Bool("ok", true);
      w.Int("fed", fed);
      w.Int("seen", status.invocations_seen);
      w.Bool("converged", status.converged);
      w.Bool("early_stop", status.early_stop);
      return Success(w);
    }
    if (op == "query") {
      const SessionStatus status = service_.Query(RequireId(req));
      ObjectWriter w;
      w.Bool("ok", true);
      AppendStatus(w, status, GetBool(req, "clusters", false));
      return Success(w);
    }
    if (op == "plan") {
      const core::SamplingPlan plan = service_.BuildPlan(RequireId(req));
      ObjectWriter w;
      w.Bool("ok", true);
      w.Str("method", plan.method);
      w.Int("num_samples", plan.NumSamples());
      w.Int("distinct_invocations", plan.DistinctInvocations().size());
      w.Int("num_clusters", plan.num_clusters);
      w.Num("theoretical_error", plan.theoretical_error);
      return Success(w);
    }
    if (op == "eval") {
      const eval::EvalResult result = service_.Evaluate(RequireId(req));
      ObjectWriter w;
      w.Bool("ok", true);
      w.Str("method", result.method);
      w.Str("workload", result.workload);
      w.Num("speedup", result.speedup);
      w.Num("error_pct", result.error_pct);
      w.Num("theoretical_error_pct", result.theoretical_error_pct);
      w.Int("num_samples", result.num_samples);
      w.Int("num_clusters", result.num_clusters);
      w.Num("estimated_total_us", result.estimated_total_us);
      w.Num("true_total_us", result.true_total_us);
      return Success(w);
    }
    if (op == "close") {
      const SessionId id = RequireId(req);
      const std::string manifest_path = GetString(req, "manifest", "");
      const std::string ledger_path = GetString(req, "ledger", "");
      const eval::RunManifest manifest = service_.CloseSession(id);
      if (!manifest_path.empty()) manifest.Save(manifest_path);
      if (!ledger_path.empty()) eval::Ledger::Append(manifest, ledger_path);
      ObjectWriter w;
      w.Bool("ok", true);
      w.Int("closed", id);
      w.Bool("manifest_written", !manifest_path.empty());
      return Success(w);
    }
    if (op == "stats") {
      const ServiceStats stats = service_.GetStats();
      ObjectWriter w;
      w.Bool("ok", true);
      w.Int("open_sessions", stats.open_sessions);
      w.Int("max_sessions", stats.max_sessions);
      w.Num("uptime_seconds", stats.uptime_seconds);
      w.Bool("metrics_enabled", stats.metrics_enabled);
      w.Int("sessions_opened", stats.sessions_opened);
      w.Int("sessions_closed", stats.sessions_closed);
      w.Int("feed_invocations", stats.feed_invocations);
      w.Int("early_stops", stats.early_stops);
      w.Int("requests", stats.requests_total);
      w.Int("errors", stats.errors_total);
      w.Int("requests_rejected", stats.requests_rejected);
      std::string verbs = "{";
      for (const VerbStats& v : stats.verbs) {
        if (verbs.size() > 1) verbs += ",";
        json::AppendString(verbs, v.verb);
        verbs += ":";
        ObjectWriter vw;
        vw.Int("requests", v.requests);
        vw.Int("errors", v.errors);
        vw.Num("mean_us", v.mean_us);
        vw.Num("p50_us", v.p50_us);
        vw.Num("p90_us", v.p90_us);
        vw.Num("p99_us", v.p99_us);
        vw.Num("max_us", v.max_us);
        verbs += vw.Finish();
      }
      verbs += "}";
      w.Raw("verbs", verbs);
      ObjectWriter jw;
      jw.Int("emitted", stats.journal_emitted);
      jw.Int("dropped", stats.journal_dropped);
      jw.Int("errors", stats.journal_errors);
      w.Raw("journal", jw.Finish());
      ObjectWriter mw;
      mw.Int("rss_bytes", stats.process_rss_bytes);
      mw.Int("hwm_bytes", stats.process_hwm_bytes);
      mw.Int("samples", stats.resource_samples);
      mw.Num("cpu_user_seconds", stats.process_cpu_user_seconds);
      mw.Num("cpu_system_seconds", stats.process_cpu_system_seconds);
      std::string logical = "{";
      for (const auto& [category, bytes] : stats.mem_logical) {
        if (logical.size() > 1) logical += ",";
        json::AppendString(logical, category);
        logical += ':';
        logical += std::to_string(bytes);
      }
      logical += "}";
      mw.Raw("logical", logical);
      w.Raw("mem", mw.Finish());
      return Success(w);
    }
    if (op == "health") {
      const ServiceStats stats = service_.GetStats();
      ObjectWriter w;
      w.Bool("ok", true);
      w.Str("status", "ok");
      w.Bool("ready", true);
      w.Bool("accepting", stats.open_sessions < stats.max_sessions);
      w.Num("uptime_seconds", stats.uptime_seconds);
      w.Int("open_sessions", stats.open_sessions);
      w.Int("max_sessions", stats.max_sessions);
      w.Str("git_hash", GetBuildInfo().git_hash);
      return Success(w);
    }
    if (op == "shutdown") {
      ObjectWriter w;
      w.Bool("ok", true);
      w.Bool("shutdown", true);
      return Success(w, /*shutdown=*/true);
    }
    return Error("protocol: unknown op '" + op + "'");
  } catch (const std::exception& e) {
    return Error(e.what());
  }
}

}  // namespace stemroot::service
