#include "service/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace stemroot::service {
namespace {

TEST(ServiceMetricsTest, VerbNamesAreCanonical) {
  EXPECT_STREQ(VerbName(Verb::kOpen), "open");
  EXPECT_STREQ(VerbName(Verb::kFeed), "feed");
  EXPECT_STREQ(VerbName(Verb::kQuery), "query");
  EXPECT_STREQ(VerbName(Verb::kPlan), "plan");
  EXPECT_STREQ(VerbName(Verb::kEval), "eval");
  EXPECT_STREQ(VerbName(Verb::kClose), "close");
}

TEST(ServiceMetricsTest, DisabledRecordingIsANoOp) {
  ServiceMetrics metrics;
  EXPECT_FALSE(metrics.Enabled());
  metrics.RecordRequest(Verb::kFeed, 100.0, true);
  metrics.RecordRequest(Verb::kFeed, 100.0, false);
  EXPECT_EQ(metrics.Requests(Verb::kFeed), 0u);
  EXPECT_EQ(metrics.Errors(Verb::kFeed), 0u);
  EXPECT_EQ(metrics.Latency(Verb::kFeed).Count(), 0u);
}

TEST(ServiceMetricsTest, RecordRequestTracksPerVerb) {
  ServiceMetrics metrics;
  metrics.SetEnabled(true);
  metrics.RecordRequest(Verb::kFeed, 100.0, true);
  metrics.RecordRequest(Verb::kFeed, 300.0, true);
  metrics.RecordRequest(Verb::kFeed, 200.0, false);
  metrics.RecordRequest(Verb::kQuery, 50.0, true);

  EXPECT_EQ(metrics.Requests(Verb::kFeed), 3u);
  EXPECT_EQ(metrics.Errors(Verb::kFeed), 1u);
  EXPECT_EQ(metrics.Requests(Verb::kQuery), 1u);
  EXPECT_EQ(metrics.Errors(Verb::kQuery), 0u);
  EXPECT_EQ(metrics.Requests(Verb::kOpen), 0u);

  const VerbStats feed = metrics.GetVerb(Verb::kFeed);
  EXPECT_EQ(feed.verb, "feed");
  EXPECT_EQ(feed.requests, 3u);
  EXPECT_EQ(feed.errors, 1u);
  EXPECT_DOUBLE_EQ(feed.total_us, 600.0);
  EXPECT_DOUBLE_EQ(feed.mean_us, 200.0);
  EXPECT_DOUBLE_EQ(feed.max_us, 300.0);
  // Bucket-bound quantiles: within one growth factor above the exact
  // rank value, and never above the exact max by more than that.
  EXPECT_GE(feed.p50_us, 100.0);
  EXPECT_LE(feed.p99_us, 300.0 * 1.5);
  EXPECT_GE(feed.p99_us, feed.p50_us);
}

TEST(ServiceMetricsTest, AllVerbsCoversEnumOrder) {
  ServiceMetrics metrics;
  metrics.SetEnabled(true);
  metrics.RecordRequest(Verb::kClose, 10.0, true);
  const std::vector<VerbStats> all = metrics.AllVerbs();
  ASSERT_EQ(all.size(), kNumVerbs);
  EXPECT_EQ(all[0].verb, "open");
  EXPECT_EQ(all[5].verb, "close");
  EXPECT_EQ(all[5].requests, 1u);
  for (size_t i = 0; i + 1 < all.size(); ++i)
    EXPECT_NE(all[i].verb, all[i + 1].verb);
}

TEST(ServiceMetricsTest, RegisteredCounterSetIsClosedAndSorted) {
  const auto counters = RegisteredServiceCounters();
  ASSERT_FALSE(counters.empty());
  for (size_t i = 0; i + 1 < counters.size(); ++i)
    EXPECT_LT(counters[i], counters[i + 1]);
  for (std::string_view name : counters) {
    EXPECT_EQ(name.rfind("service.", 0), 0u) << name;
    EXPECT_TRUE(IsRegisteredServiceCounter(name)) << name;
  }
  EXPECT_FALSE(IsRegisteredServiceCounter("service.not_a_counter"));
  EXPECT_FALSE(IsRegisteredServiceCounter("cache.hits"));
}

ServiceStats MakeStats() {
  ServiceStats stats;
  stats.metrics_enabled = true;
  stats.uptime_seconds = 12.5;
  stats.open_sessions = 1;
  stats.max_sessions = 8;
  stats.sessions_opened = 3;
  stats.sessions_closed = 2;
  stats.feed_invocations = 40;
  stats.early_stops = 1;
  stats.requests_total = 50;
  stats.errors_total = 2;
  for (size_t i = 0; i < kNumVerbs; ++i) {
    VerbStats verb;
    verb.verb = VerbName(static_cast<Verb>(i));
    stats.verbs.push_back(verb);
  }
  // Only feed carries traffic; the other summaries must be absent.
  stats.verbs[1].requests = 40;
  stats.verbs[1].errors = 2;
  stats.verbs[1].total_us = 4000.0;
  stats.verbs[1].mean_us = 100.0;
  stats.verbs[1].p50_us = 96.0;
  stats.verbs[1].p90_us = 150.0;
  stats.verbs[1].p99_us = 200.0;
  stats.verbs[1].max_us = 250.0;
  stats.journal_emitted = 17;
  stats.journal_dropped = 0;
  stats.journal_errors = 0;
  return stats;
}

TEST(ServiceMetricsTest, PrometheusTextHasTypedFamilies) {
  const std::string text = PrometheusText(MakeStats());

  // Gauges.
  EXPECT_NE(text.find("# TYPE stemroot_service_uptime_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("stemroot_service_open_sessions 1"),
            std::string::npos);
  // Counters end in _total and carry verb labels.
  EXPECT_NE(text.find("# TYPE stemroot_service_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("stemroot_service_requests_total{verb=\"feed\"} 40"),
            std::string::npos);
  EXPECT_NE(
      text.find("stemroot_service_request_errors_total{verb=\"feed\"} 2"),
      std::string::npos);
  // The latency summary exposes quantile labels plus _sum/_count.
  EXPECT_NE(
      text.find("# TYPE stemroot_service_request_latency_us summary"),
      std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("stemroot_service_request_latency_us_count"
                      "{verb=\"feed\"} 40"),
            std::string::npos);
  // Journal counters surface too.
  EXPECT_NE(text.find("stemroot_journal_events_total 17"),
            std::string::npos);
}

TEST(ServiceMetricsTest, PrometheusTextOmitsEmptyVerbSummaries) {
  const std::string text = PrometheusText(MakeStats());
  // A quantile of an empty histogram is absent, not zero: verbs with no
  // traffic contribute no latency samples.
  EXPECT_EQ(text.find("stemroot_service_request_latency_us{verb=\"open\""),
            std::string::npos);
  EXPECT_NE(text.find("stemroot_service_request_latency_us{verb=\"feed\""),
            std::string::npos);
}

TEST(ServiceMetricsTest, PrometheusTextIsDeterministic) {
  const ServiceStats stats = MakeStats();
  EXPECT_EQ(PrometheusText(stats), PrometheusText(stats));
}

TEST(ServiceMetricsTest, PrometheusLinesAreWellFormed) {
  const std::string text = PrometheusText(MakeStats());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  // Every non-comment line is `name[{labels}] value`.
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

/// MakeStats plus the process-resource and logical-memory families serve
/// mode adds.
ServiceStats MakePopulatedStats() {
  ServiceStats stats = MakeStats();
  stats.process_rss_bytes = 50u << 20;
  stats.process_hwm_bytes = 64u << 20;
  stats.resource_samples = 9;
  stats.process_cpu_user_seconds = 1.25;
  stats.process_cpu_system_seconds = 0.5;
  stats.mem_logical = {{"trace", 4096}, {"service.session", 512}};
  return stats;
}

/// True when some problem message contains `needle`.
bool Mentions(const std::vector<std::string>& problems,
              const std::string& needle) {
  for (const std::string& problem : problems)
    if (problem.find(needle) != std::string::npos) return true;
  return false;
}

TEST(PrometheusValidatorTest, AcceptsTheWritersOwnExposition) {
  const ServiceStats earlier = MakePopulatedStats();
  ServiceStats later = earlier;
  later.sessions_opened += 2;
  later.verbs[1].requests += 5;
  later.process_rss_bytes -= 1 << 20;  // plain gauge: may fall
  later.process_hwm_bytes += 1 << 20;
  later.mem_logical["trace"] = 8192;
  const std::string text = PrometheusText(later);
  EXPECT_EQ(ValidatePrometheusText(text), std::vector<std::string>{});
  EXPECT_EQ(ValidatePrometheusText(text, PrometheusText(earlier)),
            std::vector<std::string>{});
  EXPECT_EQ(ValidatePrometheusText(text, text), std::vector<std::string>{});
}

TEST(PrometheusValidatorTest, RejectsEachMalformedClass) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {"# TYPE bad-name gauge\n", "bad metric name"},
      {"# TYPE x gauge\nx-y 1\n", "bad metric name"},
      {"# TYPE requests counter\nrequests 1\n", "must end in _total"},
      {"# TYPE g gauge\n", ""},  // valid control
      {"orphan 1\n", "no preceding # TYPE"},
      {"# TYPE g gauge\ng NaN\n", "finite number"},
      {"# TYPE g gauge\ng +Inf\n", "finite number"},
      {"# TYPE g gauge\ng\n", "malformed sample line"},
      {"# TYPE g gauge\ng{a=\"b\" 1\n", "unterminated label set"},
      {"# TYPE g broken\n", "malformed TYPE line"},
      {"# TYPE c_total counter\nc_total -1\n", "counter 'c_total' is negative"},
      {"# TYPE stemroot_process_rss_bytes gauge\n"
       "stemroot_process_rss_bytes -5\n",
       "resource gauge"},
  };
  for (const auto& c : cases) {
    const std::vector<std::string> problems = ValidatePrometheusText(c.text);
    if (*c.why == '\0') {
      EXPECT_TRUE(problems.empty()) << c.text;
    } else {
      EXPECT_TRUE(Mentions(problems, c.why)) << c.text;
    }
  }
  // A plain gauge may be negative; the problems carry the line number.
  EXPECT_TRUE(ValidatePrometheusText("# TYPE g gauge\ng -1\n").empty());
  EXPECT_TRUE(Mentions(ValidatePrometheusText("# TYPE g gauge\n\nh 1\n"),
                       "line 3:"));
}

TEST(PrometheusValidatorTest, PreviousScrapeHoldsMonotoneFamilies) {
  const std::string counter = "# TYPE c_total counter\nc_total{v=\"a\"} ";
  EXPECT_TRUE(ValidatePrometheusText(counter + "5\n", counter + "5\n").empty());
  EXPECT_TRUE(Mentions(ValidatePrometheusText(counter + "4\n", counter + "5\n"),
                       "went backwards"));

  const std::string hwm =
      "# TYPE stemroot_process_hwm_bytes gauge\nstemroot_process_hwm_bytes ";
  EXPECT_TRUE(Mentions(ValidatePrometheusText(hwm + "10\n", hwm + "11\n"),
                       "high-water gauge"));
  const std::string peak =
      "# TYPE stemroot_mem_trace_bytes gauge\nstemroot_mem_trace_bytes ";
  EXPECT_TRUE(Mentions(ValidatePrometheusText(peak + "1\n", peak + "2\n"),
                       "went backwards"));

  // A counter sample present before must not vanish later.
  EXPECT_TRUE(Mentions(ValidatePrometheusText("# TYPE c_total counter\n",
                                              counter + "5\n"),
                       "vanished"));
  // An ordinary gauge is free to fall.
  const std::string gauge = "# TYPE g gauge\ng ";
  EXPECT_TRUE(ValidatePrometheusText(gauge + "1\n", gauge + "9\n").empty());
  // Problems in the earlier scrape are reported as such.
  EXPECT_TRUE(Mentions(ValidatePrometheusText(gauge + "1\n", "orphan 1\n"),
                       "previous scrape line 1:"));
}

}  // namespace
}  // namespace stemroot::service
