#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace stemroot::sim {

Cache::Cache(uint64_t size_bytes, uint32_t associativity,
             uint32_t line_bytes)
    : size_bytes_(size_bytes), assoc_(associativity),
      line_bytes_(line_bytes) {
  if (size_bytes == 0 || associativity == 0)
    throw std::invalid_argument("Cache: zero size or associativity");
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
    throw std::invalid_argument("Cache: line size not a power of two");
  const uint64_t num_lines = size_bytes / line_bytes;
  if (num_lines == 0 || num_lines % associativity != 0)
    throw std::invalid_argument(
        "Cache: size/line/assoc combination leaves no whole sets");
  num_sets_ = static_cast<uint32_t>(num_lines / associativity);
  line_shift_ = static_cast<uint8_t>(std::countr_zero(line_bytes));
  pow2_sets_ = std::has_single_bit(num_sets_);
  set_shift_ = static_cast<uint8_t>(std::countr_zero(num_sets_));
  lines_.resize(num_lines);
}

bool Cache::Access(uint64_t addr) {
  uint32_t set;
  uint64_t tag;
  Locate(addr, &set, &tag);
  Line* base = &lines_[static_cast<size_t>(set) * assoc_];
  ++clock_;

  Line* victim = base;
  for (uint32_t way = 0; way < assoc_; ++way) {
    Line& line = base[way];
    if (line.valid && line.tag == tag) {
      line.lru = clock_;
      ++hits_;
      return true;
    }
    if (!line.valid) {
      victim = &line;
    } else if (victim->valid && line.lru < victim->lru) {
      victim = &line;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = clock_;
  ++misses_;
  return false;
}

bool Cache::Contains(uint64_t addr) const {
  uint32_t set;
  uint64_t tag;
  Locate(addr, &set, &tag);
  const Line* base = &lines_[static_cast<size_t>(set) * assoc_];
  for (uint32_t way = 0; way < assoc_; ++way)
    if (base[way].valid && base[way].tag == tag) return true;
  return false;
}

void Cache::Flush() {
  for (Line& line : lines_) line.valid = false;
}

void Cache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
}

uint64_t Cache::ContentDigest() const {
  constexpr uint64_t kOffset = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t digest = kOffset;
  const auto mix = [&digest](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (byte * 8)) & 0xFF;
      digest *= kPrime;
    }
  };
  std::vector<uint32_t> ways(assoc_);
  for (uint32_t set = 0; set < num_sets_; ++set) {
    const Line* base = &lines_[static_cast<size_t>(set) * assoc_];
    // Valid ways in LRU-rank order (oldest first): the digest captures
    // replacement priority, not the absolute clock values.
    uint32_t valid = 0;
    for (uint32_t way = 0; way < assoc_; ++way)
      if (base[way].valid) ways[valid++] = way;
    std::sort(ways.begin(), ways.begin() + valid,
              [base](uint32_t a, uint32_t b) {
                if (base[a].lru != base[b].lru)
                  return base[a].lru < base[b].lru;
                return a < b;
              });
    mix(set);
    mix(valid);
    for (uint32_t k = 0; k < valid; ++k) mix(base[ways[k]].tag);
  }
  return digest;
}

}  // namespace stemroot::sim
