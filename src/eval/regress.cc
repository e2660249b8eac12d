#include "eval/regress.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>

#include "common/json.h"
#include "common/stats.h"
#include "common/str.h"
#include "common/table.h"
#include "eval/journal_tail.h"

namespace stemroot::eval {

namespace {

std::string Us(double us) { return Format("%.1fus", us); }

/// Signed percent change b vs a; "n/a" when a is 0.
std::string PctDelta(double a, double b) {
  if (a == 0.0) return "n/a";
  return Format("%+.1f%%", (b - a) / a * 100.0);
}

void DiffField(std::vector<std::string>& diffs, const char* name,
               const std::string& a, const std::string& b) {
  if (a != b) diffs.push_back(Format("%s: \"%s\" vs \"%s\"", name, a.c_str(),
                                     b.c_str()));
}

void DiffField(std::vector<std::string>& diffs, const char* name, double a,
               double b) {
  if (a != b) diffs.push_back(Format("%s: %g vs %g", name, a, b));
}

/// The cache.* counters (hit/miss/store/bytes) describe the run's
/// environment, not its computation -- a cold run and a warm run of the
/// same config legitimately differ in them while producing byte-identical
/// results. The service.* counters are environmental the same way: how a
/// session was chunked (service.feed_invocations) or whether it stopped
/// early never moves a deterministic result byte. Like wall times, both
/// families are excluded from the determinism gate. resource.* is
/// excluded the same way: anything the background RSS sampler emits is
/// timing-dependent by construction.
std::map<std::string, uint64_t> DeterministicCounters(
    const std::map<std::string, uint64_t>& counters) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : counters)
    if (name.rfind("cache.", 0) != 0 && name.rfind("service.", 0) != 0 &&
        name.rfind("resource.", 0) != 0)
      out.emplace(name, value);
  return out;
}

/// The logical mem categories follow the same environmental split as the
/// counters: `cache*` (payload bytes depend on warmth) and `service*`
/// (session chunking) describe the run's environment, everything else is
/// deterministic and gated. Physical mem (peak_rss_bytes, samples) is
/// environmental wholesale -- RSS is an OS artifact, like wall time.
std::map<std::string, uint64_t> DeterministicMem(
    const std::map<std::string, uint64_t>& logical) {
  std::map<std::string, uint64_t> out;
  for (const auto& [category, bytes] : logical)
    if (category.rfind("cache", 0) != 0 && category.rfind("service", 0) != 0)
      out.emplace(category, bytes);
  return out;
}

/// `run` and `session` are one command family: a served session that fed
/// its full source replays the batch run byte-for-byte (the service's
/// replay-equivalence contract), and compare is exactly the tool that
/// checks that. Other command pairs must still match exactly.
std::string CommandFamily(const std::string& command) {
  return command == "session" ? "run" : command;
}

/// True when the run was served from the profiled-trace cache.
bool IsCacheWarm(const RunManifest& manifest) {
  const auto it = manifest.counters.find("cache.hit");
  return it != manifest.counters.end() && it->second > 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// compare

CompareReport CompareManifests(const RunManifest& a, const RunManifest& b) {
  CompareReport report;
  report.a_wall_seconds = a.wall_time_seconds;
  report.b_wall_seconds = b.wall_time_seconds;

  DiffField(report.config_diffs, "tool", a.tool, b.tool);
  DiffField(report.config_diffs, "command", CommandFamily(a.command),
            CommandFamily(b.command));
  DiffField(report.config_diffs, "suite", a.config.suite, b.config.suite);
  DiffField(report.config_diffs, "workload", a.config.workload,
            b.config.workload);
  DiffField(report.config_diffs, "gpu", a.config.gpu, b.config.gpu);
  DiffField(report.config_diffs, "method", a.config.method, b.config.method);
  DiffField(report.config_diffs, "epsilon", a.config.epsilon,
            b.config.epsilon);
  DiffField(report.config_diffs, "confidence", a.config.confidence,
            b.config.confidence);
  DiffField(report.config_diffs, "scale", a.config.scale, b.config.scale);
  DiffField(report.config_diffs, "seed",
            static_cast<double>(a.config.seed),
            static_cast<double>(b.config.seed));
  DiffField(report.config_diffs, "reps", static_cast<double>(a.config.reps),
            static_cast<double>(b.config.reps));
  DiffField(report.config_diffs, "sim_shards",
            static_cast<double>(a.config.sim_shards),
            static_cast<double>(b.config.sim_shards));
  DiffField(report.config_diffs, "bench_args", a.config.bench_args,
            b.config.bench_args);
  // Threads, sim_threads, and epoch_cycles deliberately NOT part of
  // comparability: the determinism contract (DESIGN.md §12) promises
  // identical results at any thread count, any lane concurrency, and any
  // epoch length -- and compare is exactly the tool that checks that
  // promise. sim_shards IS gated: the lane partition is a modeling knob
  // that changes results.
  report.comparable = report.config_diffs.empty();

  if (report.comparable) {
    if (a.metrics.present != b.metrics.present) {
      report.drift_notes.push_back("metrics present in only one manifest");
    } else if (a.metrics.present) {
      DiffField(report.drift_notes, "error_pct", a.metrics.error_pct,
                b.metrics.error_pct);
      DiffField(report.drift_notes, "theoretical_error_pct",
                a.metrics.theoretical_error_pct,
                b.metrics.theoretical_error_pct);
      DiffField(report.drift_notes, "speedup", a.metrics.speedup,
                b.metrics.speedup);
      DiffField(report.drift_notes, "num_samples",
                static_cast<double>(a.metrics.num_samples),
                static_cast<double>(b.metrics.num_samples));
      DiffField(report.drift_notes, "num_clusters",
                static_cast<double>(a.metrics.num_clusters),
                static_cast<double>(b.metrics.num_clusters));
    }
    if (DeterministicCounters(a.counters) != DeterministicCounters(b.counters))
      report.drift_notes.push_back(
          "telemetry counters differ (determinism contract violation for "
          "same-seed runs; cache.*/service.* counters excluded as "
          "environmental)");
    // Logical mem peaks are gated only when both runs carried a mem
    // block: one side missing just means resource accounting was off
    // there, which is environmental, not drift. Physical peak_rss and
    // samples are never gated (OS artifacts, like wall time).
    if (a.mem.present && b.mem.present &&
        DeterministicMem(a.mem.logical) != DeterministicMem(b.mem.logical))
      report.drift_notes.push_back(
          "logical mem peaks differ (determinism contract violation for "
          "same-seed runs; cache*/service* categories and physical RSS "
          "excluded as environmental)");
    if (a.completed != b.completed)
      report.drift_notes.push_back("completed flags differ");
    report.deterministic_drift = !report.drift_notes.empty();
  }

  // Wall-time table over the union of stage names, A's order first.
  std::set<std::string> seen;
  for (const RunManifest::Stage& stage : a.stages) {
    StageDelta delta;
    delta.name = stage.name;
    delta.a_us = stage.total_us;
    if (const RunManifest::Stage* other = b.FindStage(stage.name)) {
      delta.b_us = other->total_us;
      delta.in_both = true;
    }
    report.stage_deltas.push_back(std::move(delta));
    seen.insert(stage.name);
  }
  for (const RunManifest::Stage& stage : b.stages) {
    if (seen.count(stage.name) != 0) continue;
    StageDelta delta;
    delta.name = stage.name;
    delta.b_us = stage.total_us;
    report.stage_deltas.push_back(std::move(delta));
  }
  return report;
}

std::string CompareReport::ToText() const {
  std::string out;
  if (!config_diffs.empty()) {
    out += "configs differ:\n";
    for (const std::string& diff : config_diffs) out += "  " + diff + "\n";
  } else {
    out += "configs match (threads/sim-threads/epoch-cycles excluded by "
           "the determinism contract)\n";
    if (deterministic_drift) {
      out += "DETERMINISTIC DRIFT:\n";
      for (const std::string& note : drift_notes) out += "  " + note + "\n";
    } else {
      out += "deterministic fields identical (accuracy, samples, "
             "clusters, counters)\n";
    }
  }

  TextTable table({"Stage", "A", "B", "Delta", "Delta%"});
  table.SetTitle("Wall time (informational -- never gated by compare)");
  for (const StageDelta& delta : stage_deltas) {
    table.AddRow({delta.name, Us(delta.a_us), Us(delta.b_us),
                  Format("%+.1fus", delta.b_us - delta.a_us),
                  delta.in_both ? PctDelta(delta.a_us, delta.b_us) : "n/a"});
  }
  table.AddRow({"(total wall)", Format("%.3fs", a_wall_seconds),
                Format("%.3fs", b_wall_seconds),
                Format("%+.3fs", b_wall_seconds - a_wall_seconds),
                PctDelta(a_wall_seconds, b_wall_seconds)});
  out += table.Render();
  return out;
}

int CompareReport::ExitCode(const CompareOptions& options) const {
  if (!comparable) return options.allow_config_diff ? 0 : kExitNotComparable;
  return deterministic_drift ? kExitRegression : 0;
}

// ---------------------------------------------------------------------------
// regress

namespace {

/// median + max(c*MAD, rel_slack*median) over `values`; fills the shared
/// GateResult fields.
void FillThreshold(GateResult& gate, std::vector<double>& values,
                   double mad_factor, double slack_floor) {
  gate.history = values.size();
  gate.baseline_median = Percentile(values, 50.0);
  gate.baseline_mad = Mad(values);
  gate.threshold =
      gate.baseline_median +
      std::max(mad_factor * gate.baseline_mad, slack_floor);
}

}  // namespace

RegressReport CheckRegression(const Ledger& ledger,
                              const RegressOptions& options) {
  RegressReport report;
  if (ledger.empty()) {
    report.reason = "ledger has no entries";
    return report;
  }

  const RunManifest& newest = ledger.Entries().back();
  report.newest_fingerprint = newest.Fingerprint();
  report.newest_git_hash = newest.build.git_hash;

  const std::vector<const RunManifest*> baseline = ledger.Baseline(
      newest, ledger.Entries().size() - 1, options.window);
  report.baseline_size = baseline.size();

  // A torn/crashed newest run always trips, history or not: the sentinel
  // exists so an abnormal exit cannot ship silently.
  if (!newest.completed) {
    GateResult gate;
    gate.gate = "completed";
    gate.observed = 0.0;
    gate.threshold = 1.0;
    gate.regressed = true;
    report.gates.push_back(gate);
  }

  // The absolute accuracy-budget gate needs no history either: Eq. 2's
  // bound travels inside the manifest.
  if (newest.metrics.present && newest.metrics.theoretical_error_pct > 0.0) {
    GateResult gate;
    gate.gate = "accuracy:budget";
    gate.threshold = newest.metrics.theoretical_error_pct;
    gate.observed = newest.metrics.error_pct;
    gate.regressed = gate.observed > gate.threshold;
    report.gates.push_back(gate);
  }

  // Journal health gates (history-free): a manifest that carries a
  // journal block asserts its run's journal recorded no errors (and,
  // when the drop gate is enabled, stayed under the drop budget).
  if (newest.journal.present) {
    JournalSummary summary;
    summary.errors = newest.journal.errors;
    summary.dropped = newest.journal.dropped;
    summary.events = newest.journal.emitted;
    AddJournalGates(summary, options, report);
  }

  if (baseline.size() < options.min_history) {
    report.reason = Format(
        "insufficient history for fingerprint (%zu of %zu needed) -- "
        "baseline gates skipped",
        baseline.size(), options.min_history);
    report.checked = !report.gates.empty();
    return report;
  }
  report.checked = true;

  // Warmth matching for the wall-clock gates: a warm (cache-hit) run's
  // generate/profile stages collapse to near zero, so mixing cold and warm
  // history would make a legitimate cold run look like a massive perf
  // regression (and a warm baseline absurdly fast). Deterministic gates
  // below still use the full baseline -- results are warmth-invariant by
  // contract.
  const bool newest_warm = IsCacheWarm(newest);
  std::vector<const RunManifest*> perf_baseline;
  for (const RunManifest* entry : baseline)
    if (IsCacheWarm(*entry) == newest_warm) perf_baseline.push_back(entry);

  // Per-stage perf gates.
  for (const RunManifest::Stage& stage : newest.stages) {
    std::vector<double> values;
    for (const RunManifest* entry : perf_baseline)
      if (const RunManifest::Stage* s = entry->FindStage(stage.name))
        values.push_back(s->total_us);
    if (values.size() < options.min_history) continue;

    GateResult gate;
    gate.gate = "perf:" + stage.name;
    FillThreshold(gate, values, options.mad_factor,
                  options.rel_slack * Percentile(values, 50.0));
    gate.observed = stage.total_us;
    gate.regressed =
        gate.baseline_median > 0.0 && gate.observed > gate.threshold;
    report.gates.push_back(gate);
  }

  // Total wall-time gate (warmth-matched like the stage gates; skipped
  // when no same-warmth history exists yet).
  {
    std::vector<double> values;
    for (const RunManifest* entry : perf_baseline)
      values.push_back(entry->wall_time_seconds);
    if (values.size() >= options.min_history) {
      GateResult gate;
      gate.gate = "perf:wall_time";
      FillThreshold(gate, values, options.mad_factor,
                    options.rel_slack * Percentile(values, 50.0));
      gate.observed = newest.wall_time_seconds;
      gate.regressed =
          gate.baseline_median > 0.0 && gate.observed > gate.threshold;
      report.gates.push_back(gate);
    }
  }

  // Peak-RSS gate: physical memory is environmental like wall time, so
  // it gets the same treatment -- warmth-matched baseline (a warm run
  // never materializes the generate-stage working set) and the noisy
  // median + max(c*MAD, rel_slack*median) threshold.
  if (newest.mem.present && newest.mem.peak_rss_bytes > 0) {
    std::vector<double> values;
    for (const RunManifest* entry : perf_baseline)
      if (entry->mem.present && entry->mem.peak_rss_bytes > 0)
        values.push_back(static_cast<double>(entry->mem.peak_rss_bytes));
    if (values.size() >= options.min_history) {
      GateResult gate;
      gate.gate = "mem:peak_rss";
      FillThreshold(gate, values, options.mad_factor,
                    options.rel_slack * Percentile(values, 50.0));
      gate.observed = static_cast<double>(newest.mem.peak_rss_bytes);
      gate.regressed =
          gate.baseline_median > 0.0 && gate.observed > gate.threshold;
      report.gates.push_back(gate);
    }
  }

  // Accuracy drift + sample-budget gates (deterministic quantities).
  if (newest.metrics.present) {
    std::vector<double> errors;
    std::vector<double> samples;
    for (const RunManifest* entry : baseline) {
      if (!entry->metrics.present) continue;
      errors.push_back(entry->metrics.error_pct);
      samples.push_back(static_cast<double>(entry->metrics.num_samples));
    }
    if (errors.size() >= options.min_history) {
      GateResult gate;
      gate.gate = "accuracy:drift";
      FillThreshold(gate, errors, options.mad_factor,
                    options.accuracy_slack_pct);
      gate.observed = newest.metrics.error_pct;
      gate.regressed = gate.observed > gate.threshold;
      report.gates.push_back(gate);

      GateResult budget;
      budget.gate = "budget:samples";
      FillThreshold(budget, samples, options.mad_factor,
                    options.rel_slack * Percentile(samples, 50.0));
      budget.observed = static_cast<double>(newest.metrics.num_samples);
      budget.regressed =
          budget.baseline_median > 0.0 && budget.observed > budget.threshold;
      report.gates.push_back(budget);
    }
  }

  // Logical per-category mem gates (deterministic quantities, so the
  // full baseline applies -- warmth never moves a logical peak). Only
  // the deterministic categories are gated; cache*/service* are
  // environmental, same rule as the counter gate.
  if (newest.mem.present) {
    for (const auto& [category, bytes] :
         DeterministicMem(newest.mem.logical)) {
      std::vector<double> values;
      for (const RunManifest* entry : baseline) {
        if (!entry->mem.present) continue;
        const auto it = entry->mem.logical.find(category);
        if (it != entry->mem.logical.end())
          values.push_back(static_cast<double>(it->second));
      }
      if (values.size() < options.min_history) continue;
      GateResult gate;
      gate.gate = "mem:" + category;
      FillThreshold(gate, values, options.mad_factor,
                    options.rel_slack * Percentile(values, 50.0));
      gate.observed = static_cast<double>(bytes);
      gate.regressed =
          gate.baseline_median > 0.0 && gate.observed > gate.threshold;
      report.gates.push_back(gate);
    }
  }
  return report;
}

namespace {

/// A numeric journal field as a count: nullopt when absent, not a number,
/// negative, or beyond uint64 (a cast would be undefined there).
std::optional<uint64_t> JournalCount(const json::Value* value) {
  if (value == nullptr || !value->IsNumber() || !(value->number >= 0.0) ||
      value->number >= 18446744073709551616.0)
    return std::nullopt;
  return static_cast<uint64_t>(value->number);
}

}  // namespace

JournalSummary SummarizeJournalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("regress: cannot open journal '" + path + "'");
  JournalSummary summary;
  uint64_t last_ts = 0;
  uint64_t next_seq = 0;
  bool have_seq = false;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto violation = [&](const std::string& why) {
      summary.violations.push_back(std::to_string(lineno) + ": " + why);
    };
    json::Value event;
    if (!json::Parse(line, event, nullptr) || !event.IsObject()) {
      ++summary.unparseable;
      if (in.peek() == EOF)
        ++summary.torn_tail;  // crash mid-append
      else
        violation("unparseable journal line");
      continue;
    }
    ++summary.events;
    const json::Value* sev = event.Find("sev");
    if (sev && sev->IsString()) {
      if (sev->string == "error") ++summary.errors;
      if (sev->string == "warn") ++summary.warnings;
    }
    if (const std::optional<uint64_t> d =
            JournalCount(event.Find("dropped_since_last")))
      summary.dropped += *d;

    const std::optional<uint64_t> ts = JournalCount(event.Find("ts_us"));
    const std::optional<uint64_t> seq = JournalCount(event.Find("seq"));
    const json::Value* name = event.Find("event");
    if (!ts || !JournalCount(event.Find("tid")) || !seq || !sev ||
        !sev->IsString() || !name || !name->IsString()) {
      violation("missing or malformed reserved key (ts_us/tid/seq/sev/"
                "event)");
      continue;
    }
    if (SeverityRank(sev->string) < 0)
      violation("unknown severity '" + sev->string + "'");
    if (*ts < last_ts) violation("ts_us went backwards");
    last_ts = *ts;
    if (have_seq && *seq != next_seq)
      violation("seq gap (want " + std::to_string(next_seq) + ", got " +
                std::to_string(*seq) + ")");
    have_seq = true;
    next_seq = *seq + 1;
    summary.event_names.insert(name->string);
  }
  return summary;
}

std::vector<std::string> CheckJournal(
    const JournalSummary& summary,
    const std::vector<std::string>& required_events, uint64_t max_errors) {
  std::vector<std::string> failures = summary.violations;
  for (const std::string& required : required_events)
    if (summary.event_names.count(required) == 0)
      failures.push_back("required event '" + required + "' never emitted");
  if (summary.errors > max_errors)
    failures.push_back(std::to_string(summary.errors) +
                       " error event(s), max allowed " +
                       std::to_string(max_errors));
  return failures;
}

void AddJournalGates(const JournalSummary& summary,
                     const RegressOptions& options, RegressReport& report) {
  GateResult errors;
  errors.gate = "journal:errors";
  errors.threshold = static_cast<double>(options.max_journal_errors);
  errors.observed = static_cast<double>(summary.errors);
  errors.regressed = errors.observed > errors.threshold;
  report.gates.push_back(errors);
  if (options.max_journal_dropped >= 0) {
    GateResult dropped;
    dropped.gate = "journal:dropped";
    dropped.threshold = static_cast<double>(options.max_journal_dropped);
    dropped.observed = static_cast<double>(summary.dropped);
    dropped.regressed = dropped.observed > dropped.threshold;
    report.gates.push_back(dropped);
  }
  report.checked = true;
}

bool RegressReport::HasRegression() const {
  return std::any_of(gates.begin(), gates.end(),
                     [](const GateResult& g) { return g.regressed; });
}

std::string RegressReport::ToText() const {
  std::string out = "newest: " + newest_fingerprint + "\n";
  out += Format("build: %s, baseline runs: %zu\n", newest_git_hash.c_str(),
                baseline_size);
  if (!reason.empty()) out += reason + "\n";

  if (!gates.empty()) {
    TextTable table(
        {"Gate", "N", "Median", "MAD", "Threshold", "Observed", "Verdict"});
    table.SetTitle("Regression gates (threshold = median + max(c*MAD, "
                   "slack))");
    for (const GateResult& gate : gates) {
      table.AddRow({gate.gate, Format("%zu", gate.history),
                    TextTable::Num(gate.baseline_median, 3),
                    TextTable::Num(gate.baseline_mad, 3),
                    TextTable::Num(gate.threshold, 3),
                    TextTable::Num(gate.observed, 3),
                    gate.regressed ? "REGRESSED" : "ok"});
    }
    out += table.Render();
  }
  out += HasRegression() ? "verdict: REGRESSION\n" : "verdict: clean\n";
  return out;
}

int RegressReport::ExitCode() const {
  return HasRegression() ? kExitRegression : 0;
}

}  // namespace stemroot::eval
