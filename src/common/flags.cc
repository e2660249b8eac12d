#include "common/flags.h"

#include <stdexcept>

#include "common/str.h"

namespace stemroot {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  int i = 0;
  while (i < argc && !StartsWith(argv[i], "--"))
    flags.positional_.emplace_back(argv[i++]);
  while (i < argc) {
    std::string key = argv[i];
    if (!StartsWith(key, "--"))
      throw std::invalid_argument("Flags: expected --flag, got '" + key +
                                  "'");
    key = key.substr(2);
    // Support --key=value and --key value.
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      flags.values_[key.substr(0, eq)].push_back(key.substr(eq + 1));
      ++i;
      continue;
    }
    if (i + 1 >= argc)
      throw std::invalid_argument("Flags: --" + key + " needs a value");
    flags.values_[key].push_back(argv[i + 1]);
    i += 2;
  }
  return flags;
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

const std::string* Flags::Single(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  if (it->second.size() > 1)
    throw std::invalid_argument("Flags: --" + key +
                                " takes one value but was given " +
                                std::to_string(it->second.size()));
  return &it->second.front();
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  const std::string* value = Single(key);
  return value == nullptr ? fallback : *value;
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  const std::string* text = Single(key);
  if (text == nullptr) return fallback;
  // ParseDouble (from_chars) rather than std::stod: stod reads the global
  // locale's decimal point, so "--scale 1.5" would parse as 1 under a
  // comma-decimal locale.
  const std::optional<double> value = ParseDouble(*text);
  if (!value)
    throw std::invalid_argument("Flags: --" + key + " expects a number, got '" +
                                *text + "'");
  return *value;
}

int64_t Flags::GetInt(const std::string& key, int64_t fallback) const {
  const std::string* text = Single(key);
  if (text == nullptr) return fallback;
  const std::optional<int64_t> value = ParseInt(*text);
  if (!value)
    throw std::invalid_argument("Flags: --" + key +
                                " expects an integer, got '" + *text + "'");
  return *value;
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  const std::string* text = Single(key);
  if (text == nullptr) return fallback;
  if (*text == "true" || *text == "1") return true;
  if (*text == "false" || *text == "0") return false;
  throw std::invalid_argument("Flags: --" + key +
                              " expects true/false, got '" + *text + "'");
}

std::vector<std::string> Flags::GetAll(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

std::string Flags::Require(const std::string& key) const {
  const std::string* value = Single(key);
  if (value == nullptr)
    throw std::invalid_argument("Flags: missing required --" + key);
  return *value;
}

void Flags::CheckAllRead() const {
  std::string unknown;
  for (const auto& [key, values] : values_) {
    if (read_.count(key) == 0) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + key;
    }
  }
  if (!unknown.empty())
    throw std::invalid_argument("Flags: unknown flag(s): " + unknown);
}

}  // namespace stemroot
