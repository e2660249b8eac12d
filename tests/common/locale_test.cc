/// Locale-independence of every machine-readable number path.
///
/// A host with LANG=de_DE (comma decimal point) used to corrupt the
/// pipeline twice over: std::stod/strtod would stop parsing "1.5" at the
/// dot (silently yielding 1), and %.17g-style formatting would emit "1,5"
/// -- breaking JSON, CSV, flag parsing, and cache-key stability. These
/// tests force the nastiest locale available (plus a custom comma-decimal
/// C++ locale that always exists) and pin parse/format behavior.

#include <clocale>
#include <locale>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/json.h"
#include "common/str.h"
#include "common/telemetry.h"
#include "core/sampler_registry.h"
#include "service/metrics.h"

namespace stemroot {
namespace {

/// numpunct that makes the C++ global locale comma-decimal; installable
/// even on containers that ship only the C/POSIX C locales.
class CommaDecimal : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Force the most hostile numeric locale this host offers, for both the C
/// locale (snprintf/strtod) and the C++ global locale (iostreams). Restores
/// everything on destruction so other tests in the binary are unaffected.
class ScopedHostileLocale {
 public:
  ScopedHostileLocale() {
    const char* prev = std::setlocale(LC_NUMERIC, nullptr);
    saved_c_ = prev != nullptr ? prev : "C";
    // Real comma-decimal locales, if installed on this host; harmless
    // no-ops otherwise.
    static const char* kCandidates[] = {"de_DE.UTF-8", "de_DE.utf8",
                                        "fr_FR.UTF-8", "fr_FR.utf8",
                                        "de_DE",       "fr_FR"};
    for (const char* name : kCandidates) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr) {
        c_locale_applied_ = true;
        break;
      }
    }
    saved_cpp_ = std::locale::global(
        std::locale(std::locale::classic(), new CommaDecimal));
  }
  ~ScopedHostileLocale() {
    std::locale::global(saved_cpp_);
    std::setlocale(LC_NUMERIC, saved_c_.c_str());
  }

  bool CLocaleApplied() const { return c_locale_applied_; }

 private:
  std::string saved_c_;
  std::locale saved_cpp_;
  bool c_locale_applied_ = false;
};

TEST(LocaleTest, ParseDoubleIgnoresTheGlobalLocale) {
  ScopedHostileLocale hostile;
  EXPECT_EQ(ParseDouble("1.5"), 1.5);
  EXPECT_EQ(ParseDouble("-0.25"), -0.25);
  EXPECT_EQ(ParseDouble("+2.5e-3"), 2.5e-3);
  EXPECT_FALSE(ParseDouble("1,5").has_value());  // comma is never a decimal
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("1e999").has_value());

  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_EQ(ParseInt("+7"), 7);
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("1e3").has_value());
}

TEST(LocaleTest, FormatDoubleNeverEmitsACommaDecimal) {
  ScopedHostileLocale hostile;
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(FormatDouble(-2.5e-3), "-0.0025");
  EXPECT_EQ(FormatDoubleFixed(1234.5, 3), "1234.500");
  EXPECT_EQ(FormatDoubleFixed(0.0005, 3), "0.001");
  // Round trip: the shortest form parses back to the exact same value.
  const double v = 0.05000000000000001;
  EXPECT_EQ(ParseDouble(FormatDouble(v)), v);
}

TEST(LocaleTest, JsonParsesAndFormatsUnderHostileLocale) {
  ScopedHostileLocale hostile;
  EXPECT_EQ(json::Number(1.5), "1.5");
  EXPECT_EQ(json::Number(0.05), "0.05");

  json::Value v;
  std::string error;
  ASSERT_TRUE(json::Parse(R"({"scale":1.5,"eps":2.5e-2})", v, &error))
      << error;
  EXPECT_EQ(v.Find("scale")->number, 1.5);
  EXPECT_EQ(v.Find("eps")->number, 2.5e-2);
}

TEST(LocaleTest, FlagsParseDoublesUnderHostileLocale) {
  ScopedHostileLocale hostile;
  const char* argv[] = {"--scale", "0.05", "--reps", "3"};
  const Flags flags = Flags::Parse(4, argv);
  EXPECT_EQ(flags.GetDouble("scale", 1.0), 0.05);
  EXPECT_EQ(flags.GetInt("reps", 1), 3);
}

TEST(LocaleTest, ExpositionValidatorIgnoresTheGlobalLocale) {
  // Sample values are dot-decimal whatever the locale: "1.5" must parse
  // as one and a half, and a comma-decimal "1,5" is never a number.
  ScopedHostileLocale hostile;
  const std::string gauge = "# TYPE g gauge\ng ";
  EXPECT_TRUE(service::ValidatePrometheusText(gauge + "1.5\n").empty());
  EXPECT_FALSE(service::ValidatePrometheusText(gauge + "1,5\n").empty());
  // 1.5 -> 1.25 went backwards; a parse stopping at the dot would read
  // both as 1 and see no change.
  const std::string hwm =
      "# TYPE stemroot_process_hwm_bytes gauge\nstemroot_process_hwm_bytes ";
  EXPECT_FALSE(
      service::ValidatePrometheusText(hwm + "1.25\n", hwm + "1.5\n").empty());
}

TEST(LocaleTest, SamplerParamsRoundTripUnderHostileLocale) {
  ScopedHostileLocale hostile;
  core::SamplerParams params;
  params.Set("epsilon", 0.05);
  EXPECT_EQ(params.GetString("epsilon", ""), "0.05");
  EXPECT_EQ(params.GetDouble("epsilon", 0.0), 0.05);
}

TEST(LocaleTest, TelemetryCsvStaysMachineReadable) {
  ScopedHostileLocale hostile;
  telemetry::SetEnabled(true);
  telemetry::Reset();
  telemetry::Record("locale.dist", 1.5);
  telemetry::Record("locale.dist", 2.5);
  const std::string csv = telemetry::Capture().ToCsv();
  telemetry::SetEnabled(false);
  telemetry::Reset();
  EXPECT_NE(csv.find("1.5"), std::string::npos) << csv;
  EXPECT_NE(csv.find("2.5"), std::string::npos) << csv;
  EXPECT_EQ(csv.find("1,5"), std::string::npos) << csv;
}

}  // namespace
}  // namespace stemroot
