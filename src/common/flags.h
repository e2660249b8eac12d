/// \file
/// Minimal command-line flag parsing for the CLI tools: positional
/// command words followed by `--key value` pairs, with typed accessors
/// and strict unknown-flag detection.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace stemroot {

/// Parsed command line.
class Flags {
 public:
  /// Parse argv (excluding argv[0]). Words before the first `--flag` are
  /// positional; flags require a value (`--k v`). Throws
  /// std::invalid_argument on a flag without a value.
  static Flags Parse(int argc, const char* const* argv);

  const std::vector<std::string>& Positional() const { return positional_; }

  bool Has(const std::string& key) const;

  /// Typed getters with defaults. Throw std::invalid_argument when the
  /// value does not parse, or when the flag was given more than once
  /// (a single-value flag never lets the last value silently win).
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Every value of a repeatable flag, in command-line order (empty when
  /// absent).
  std::vector<std::string> GetAll(const std::string& key) const;

  /// Required string; throws std::invalid_argument when missing.
  std::string Require(const std::string& key) const;

  /// After reading everything, verify no unread flags remain; throws
  /// std::invalid_argument listing them (catches typos).
  void CheckAllRead() const;

 private:
  /// The single value of `key` (marking it read), nullptr when absent.
  const std::string* Single(const std::string& key) const;

  std::vector<std::string> positional_;
  std::map<std::string, std::vector<std::string>> values_;
  mutable std::set<std::string> read_;
};

}  // namespace stemroot
