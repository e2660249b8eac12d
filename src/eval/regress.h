/// \file
/// The regression sentinel: manifest-vs-manifest diffing (`stemroot
/// compare`) and noise-aware ledger gating (`stemroot regress`).
///
/// compare splits a manifest into two kinds of fields and treats them
/// differently:
///
///   - *Deterministic* fields -- config, accuracy metrics, sample/cluster
///     counts, telemetry counters -- are governed by the determinism
///     contract (DESIGN.md): for a fixed seed they are identical at any
///     thread count. Any difference between two same-config runs is a
///     result change, flagged as drift regardless of magnitude.
///   - *Wall-time* fields -- per-stage totals, total wall seconds -- are
///     noisy by nature. compare reports their deltas but never gates on
///     them. The cache.* telemetry counters (profiled-trace cache
///     hit/miss/bytes) belong to this environmental class too: a cold and
///     a warm run of the same config are byte-identical in results but
///     not in cache traffic, so compare excludes them from the counter
///     gate.
///
/// regress applies the same split when building its baseline: wall-clock
/// gates only compare the newest entry against prior runs of the same
/// cache warmth (cache.hit > 0 or not), since a warm run's
/// generate/profile stages legitimately collapse to near zero.
///
/// regress gates wall time too, using a rolling baseline from the ledger:
/// the newest entry is checked against up to `window` prior completed
/// entries with the same fingerprint. The per-gate threshold is
///
///   median + max(mad_factor * MAD, rel_slack * median)
///
/// (median/MAD from common/stats; MAD is scaled to be sigma-consistent
/// under normality). The MAD term absorbs whatever run-to-run noise the
/// baseline actually exhibits; the rel_slack floor (default 2%) keeps a
/// zero-MAD baseline -- e.g. replayed identical manifests in CI -- from
/// flagging sub-noise jitter, while still catching the >= 5% slowdowns
/// the acceptance gate requires. Accuracy runs through two separate
/// gates: a drift gate against the baseline (deterministic, so near-zero
/// slack) and an absolute budget gate, realized error vs the Eq. 2 bound
/// carried in the manifest -- a run that blows its own epsilon budget
/// regresses even with no history at all.

#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "eval/ledger.h"
#include "eval/manifest.h"

namespace stemroot::eval {

/// Exit codes shared by the compare/regress CLI commands (0 = clean,
/// 1 = usage/runtime error as elsewhere in the CLI).
inline constexpr int kExitNotComparable = 2;
inline constexpr int kExitRegression = 3;

// ---------------------------------------------------------------------------
// compare

struct CompareOptions {
  /// Diff manifests even when their configs differ (the exit code then
  /// reports kExitNotComparable drift semantics only for same-config
  /// pairs; a cross-config diff is informational).
  bool allow_config_diff = false;
};

/// One wall-time row of the comparison table.
struct StageDelta {
  std::string name;
  double a_us = 0.0;
  double b_us = 0.0;  ///< 0 when the stage is missing on one side
  bool in_both = false;
};

struct CompareReport {
  /// Tool, command, and every config field except threads agree.
  bool comparable = false;
  /// Deterministic fields differ between two comparable runs.
  bool deterministic_drift = false;
  std::vector<std::string> config_diffs;  ///< human-readable field diffs
  std::vector<std::string> drift_notes;   ///< which deterministic fields moved
  std::vector<StageDelta> stage_deltas;   ///< union of both stage lists
  double a_wall_seconds = 0.0;
  double b_wall_seconds = 0.0;

  /// Full report: config diff block, deterministic verdict, wall-time
  /// table with signed deltas and percentages.
  std::string ToText() const;

  /// 0 clean; kExitNotComparable for config mismatch (unless allowed);
  /// kExitRegression for deterministic drift.
  int ExitCode(const CompareOptions& options) const;
};

/// Diff two manifests (A = baseline, B = candidate).
CompareReport CompareManifests(const RunManifest& a, const RunManifest& b);

// ---------------------------------------------------------------------------
// regress

struct RegressOptions {
  size_t window = 8;       ///< baseline entries considered (0 = all)
  size_t min_history = 2;  ///< gates need at least this many baseline runs
  double mad_factor = 3.0; ///< c in median + c*MAD
  double rel_slack = 0.02; ///< relative floor on perf thresholds
  /// Absolute floor (percentage points) on the accuracy drift threshold.
  /// Near zero: same-fingerprint accuracy is deterministic, so any real
  /// movement is a result change.
  double accuracy_slack_pct = 1e-6;
  /// Journal gates (history-free, like "completed"): a run whose journal
  /// block (or --journal file) recorded more than this many
  /// error-severity events regresses.
  uint64_t max_journal_errors = 0;
  /// Rate-limit drops tolerated before the journal:dropped gate trips;
  /// -1 disables the gate (drops signal capacity pressure, not
  /// correctness, so the default only reports them).
  int64_t max_journal_dropped = -1;
};

/// One gate's verdict. `gate` is "perf:<stage>", "perf:wall_time",
/// "accuracy:drift", "accuracy:budget", "budget:samples", "completed",
/// "journal:errors", "journal:dropped", "mem:peak_rss" (physical,
/// warmth-matched like the perf gates), or "mem:<category>" (logical
/// per-category peaks, deterministic like the accuracy gates).
struct GateResult {
  std::string gate;
  size_t history = 0;  ///< baseline observations behind the threshold
  double baseline_median = 0.0;
  double baseline_mad = 0.0;
  double threshold = 0.0;
  double observed = 0.0;
  bool regressed = false;
};

struct RegressReport {
  /// False when the ledger was empty or history was insufficient; `reason`
  /// says why and no gates were evaluated.
  bool checked = false;
  std::string reason;
  std::string newest_fingerprint;
  std::string newest_git_hash;
  size_t baseline_size = 0;
  std::vector<GateResult> gates;

  bool HasRegression() const;
  /// Gate table plus a one-line verdict.
  std::string ToText() const;
  /// 0 clean (including unchecked); kExitRegression on any tripped gate.
  int ExitCode() const;
};

/// Check the newest ledger entry against its rolling baseline.
RegressReport CheckRegression(const Ledger& ledger,
                              const RegressOptions& options);

/// What a journal file (common/journal.h JSONL) contains. This is the
/// one journal-file reader: `stemroot regress --journal` gates on its
/// tallies, `stemroot check journal` on CheckJournal's verdict over it.
/// Unparseable lines are counted, never thrown: a torn final line (crash
/// mid-append) is expected, mid-file garbage is corruption.
struct JournalSummary {
  uint64_t events = 0;       ///< well-formed lines
  uint64_t errors = 0;       ///< sev == "error"
  uint64_t warnings = 0;     ///< sev == "warn"
  uint64_t dropped = 0;      ///< sum of dropped_since_last fields
  uint64_t unparseable = 0;  ///< malformed lines, torn tail included
  uint64_t torn_tail = 0;    ///< of those, the final line (0 or 1)
  std::set<std::string> event_names;  ///< distinct `event` values
  /// Invariant breaches, one "LINE: why" each: mid-file unparseable
  /// lines, a missing or malformed reserved key (ts_us, tid, seq:
  /// counts; sev, event: strings), an unknown severity, ts_us going
  /// backwards, a gap in seq.
  std::vector<std::string> violations;
};

/// Read and summarize a journal file. Throws std::runtime_error when the
/// file cannot be opened.
JournalSummary SummarizeJournalFile(const std::string& path);

/// `stemroot check journal`'s verdict: every invariant violation, every
/// `required_events` name never emitted, and more than `max_errors`
/// error-severity events each fail. Returns one message per failure;
/// empty means the journal passes. Gating regress is more lenient: there
/// any unparseable line is gate-neutral.
std::vector<std::string> CheckJournal(
    const JournalSummary& summary,
    const std::vector<std::string>& required_events, uint64_t max_errors);

/// Append the history-free journal gates ("journal:errors", and
/// "journal:dropped" when enabled) for an externally-read journal file
/// (`stemroot regress --journal`). Marks the report checked.
void AddJournalGates(const JournalSummary& summary,
                     const RegressOptions& options, RegressReport& report);

}  // namespace stemroot::eval
