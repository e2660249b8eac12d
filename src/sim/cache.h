/// \file
/// Set-associative LRU cache model shared by the simulator's L1 and L2
/// levels.

#pragma once

#include <cstdint>
#include <vector>

namespace stemroot::sim {

/// Classic set-associative cache with true-LRU replacement. Tracks hits
/// and misses; allocate-on-miss for both reads and writes (GPU L2s are
/// write-allocate; Sec. 5.5 notes writes always hit L2 under the paper's
/// policy assumption).
class Cache {
 public:
  /// Throws std::invalid_argument on non-power-of-two line size, zero
  /// sizes, or associativity that does not divide the line count.
  Cache(uint64_t size_bytes, uint32_t associativity, uint32_t line_bytes);

  /// Access one byte address; returns true on hit. Misses allocate.
  bool Access(uint64_t addr);

  /// Probe without state change; returns true if resident.
  bool Contains(uint64_t addr) const;

  /// Invalidate everything (the ablation_warmup bench's L2 flush).
  void Flush();

  uint64_t Hits() const { return hits_; }
  uint64_t Misses() const { return misses_; }
  void ResetStats();

  /// FNV-1a digest of the resident content and its recency order: per
  /// set, the valid tags in LRU-rank order. Two caches that hold the same
  /// lines with the same replacement priority digest identically, however
  /// they got there -- the determinism tests use this to compare L2 state
  /// across --sim-threads / --epoch-cycles settings without serializing
  /// the whole array.
  uint64_t ContentDigest() const;

  uint32_t NumSets() const { return num_sets_; }
  uint32_t Associativity() const { return assoc_; }
  uint64_t SizeBytes() const { return size_bytes_; }

  /// Logical model-state footprint in bytes (the line array plus the
  /// object itself) — a pure function of the cache geometry, for the
  /// "sim" category of resource::AccountPeak (DESIGN.md §15).
  uint64_t ApproxBytes() const {
    return sizeof(*this) + lines_.size() * sizeof(Line);
  }

 private:
  struct Line {
    uint64_t tag = ~0ULL;
    uint64_t lru = 0;  ///< global access counter at last touch
    bool valid = false;
  };

  /// Set index and tag of a byte address. A power-of-two set count (every
  /// L1 and most L2s) takes a mask and a shift; other counts (H100's
  /// 25600-set L2, say) divide. Both give the same set and tag.
  void Locate(uint64_t addr, uint32_t* set, uint64_t* tag) const {
    const uint64_t line_addr = addr >> line_shift_;
    if (pow2_sets_) {
      *set = static_cast<uint32_t>(line_addr & (num_sets_ - 1));
      *tag = line_addr >> set_shift_;
    } else {
      *set = static_cast<uint32_t>(line_addr % num_sets_);
      *tag = line_addr / num_sets_;
    }
  }

  uint64_t size_bytes_;
  uint32_t assoc_;
  uint32_t line_bytes_;
  uint32_t num_sets_;
  // Narrow fields keep sizeof(Cache), and with it ApproxBytes, unchanged.
  uint8_t line_shift_;
  uint8_t set_shift_;  ///< log2(num_sets_) when pow2_sets_
  bool pow2_sets_;
  std::vector<Line> lines_;  ///< num_sets_ * assoc_, set-major
  uint64_t clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace stemroot::sim
