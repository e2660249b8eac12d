#include "sim/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hw/gpu_spec.h"
#include "sim/gpu_config.h"

namespace stemroot::sim {
namespace {

TEST(CacheTest, ColdMissThenHit) {
  Cache cache(1024, 2, 64);
  EXPECT_FALSE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1010));  // same line
  EXPECT_EQ(cache.Hits(), 2u);
  EXPECT_EQ(cache.Misses(), 1u);
}

TEST(CacheTest, GeometryDerived) {
  Cache cache(8192, 4, 64);  // 128 lines, 32 sets
  EXPECT_EQ(cache.NumSets(), 32u);
  EXPECT_EQ(cache.Associativity(), 4u);
  EXPECT_EQ(cache.SizeBytes(), 8192u);
}

TEST(CacheTest, LruEvictsOldest) {
  // Direct-mapped within one set: 2-way, 1 set.
  Cache cache(128, 2, 64);
  cache.Access(0 * 64);    // A
  cache.Access(1 * 64);    // B
  cache.Access(0 * 64);    // touch A (B is now LRU)
  cache.Access(2 * 64);    // C evicts B
  EXPECT_TRUE(cache.Contains(0 * 64));
  EXPECT_FALSE(cache.Contains(1 * 64));
  EXPECT_TRUE(cache.Contains(2 * 64));
}

TEST(CacheTest, SetIndexingSeparatesConflicts) {
  // 2 sets, 1 way: lines alternate sets by address.
  Cache cache(128, 1, 64);
  EXPECT_EQ(cache.NumSets(), 2u);
  cache.Access(0 * 64);  // set 0
  cache.Access(1 * 64);  // set 1
  EXPECT_TRUE(cache.Contains(0 * 64));
  EXPECT_TRUE(cache.Contains(1 * 64));
  cache.Access(2 * 64);  // set 0 again -> evicts line 0
  EXPECT_FALSE(cache.Contains(0 * 64));
  EXPECT_TRUE(cache.Contains(1 * 64));
}

TEST(CacheTest, FlushInvalidatesEverything) {
  Cache cache(1024, 2, 64);
  cache.Access(0x100);
  cache.Access(0x200);
  cache.Flush();
  EXPECT_FALSE(cache.Contains(0x100));
  EXPECT_FALSE(cache.Contains(0x200));
  EXPECT_FALSE(cache.Access(0x100));  // miss again
}

TEST(CacheTest, ContainsDoesNotMutate) {
  Cache cache(128, 2, 64);
  cache.Access(0 * 64);
  cache.Access(1 * 64);
  // Probing A must not refresh its LRU position.
  cache.Contains(0 * 64);
  const uint64_t hits_before = cache.Hits();
  cache.Access(2 * 64);  // evicts true-LRU = A
  EXPECT_FALSE(cache.Contains(0 * 64));
  EXPECT_EQ(cache.Hits(), hits_before);
}

TEST(CacheTest, ResetStatsKeepsContent) {
  Cache cache(1024, 2, 64);
  cache.Access(0x100);
  cache.ResetStats();
  EXPECT_EQ(cache.Hits(), 0u);
  EXPECT_EQ(cache.Misses(), 0u);
  EXPECT_TRUE(cache.Contains(0x100));
}

TEST(CacheTest, WorkingSetLargerThanCacheThrashes) {
  Cache cache(1024, 2, 64);  // 16 lines
  // Stream 64 distinct lines twice: second pass still mostly misses.
  for (int pass = 0; pass < 2; ++pass)
    for (uint64_t line = 0; line < 64; ++line)
      cache.Access(line * 64);
  EXPECT_LT(static_cast<double>(cache.Hits()) /
                static_cast<double>(cache.Hits() + cache.Misses()),
            0.2);
}

TEST(CacheTest, WorkingSetFittingCacheHitsOnReuse) {
  Cache cache(4096, 4, 64);  // 64 lines
  for (int pass = 0; pass < 10; ++pass)
    for (uint64_t line = 0; line < 32; ++line)
      cache.Access(line * 64);
  // First pass misses, the rest hit: hit rate ~ 9/10.
  EXPECT_GT(static_cast<double>(cache.Hits()) /
                static_cast<double>(cache.Hits() + cache.Misses()),
            0.85);
}

TEST(CacheTest, ConstructionValidation) {
  EXPECT_THROW(Cache(0, 2, 64), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 0, 64), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 2, 60), std::invalid_argument);  // not pow2
  EXPECT_THROW(Cache(100, 3, 64), std::invalid_argument);   // ragged sets
}

/// Reference LRU cache that indexes by division (set = line % sets, tag =
/// line / sets) and keeps each set as a recency list, oldest first. Its
/// digest follows Cache::ContentDigest's definition: per set, the set
/// index, the valid count, then the tags in LRU-rank order.
class DivisionReference {
 public:
  DivisionReference(uint64_t size_bytes, uint32_t assoc, uint32_t line_bytes)
      : assoc_(assoc), line_bytes_(line_bytes),
        sets_(size_bytes / line_bytes / assoc) {}

  bool Access(uint64_t addr) {
    const uint64_t line = addr / line_bytes_;
    std::vector<uint64_t>& set = sets_[line % sets_.size()];
    const uint64_t tag = line / sets_.size();
    const auto it = std::find(set.begin(), set.end(), tag);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else if (set.size() == assoc_) {
      set.erase(set.begin());
    }
    set.push_back(tag);
    return hit;
  }

  bool Contains(uint64_t addr) const {
    const uint64_t line = addr / line_bytes_;
    const std::vector<uint64_t>& set = sets_[line % sets_.size()];
    return std::find(set.begin(), set.end(), line / sets_.size()) !=
           set.end();
  }

  void Flush() {
    for (std::vector<uint64_t>& set : sets_) set.clear();
  }

  uint64_t ContentDigest() const {
    uint64_t digest = 14695981039346656037ull;
    const auto mix = [&digest](uint64_t v) {
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (v >> (byte * 8)) & 0xFF;
        digest *= 1099511628211ull;
      }
    };
    for (size_t s = 0; s < sets_.size(); ++s) {
      mix(s);
      mix(sets_[s].size());
      for (uint64_t tag : sets_[s]) mix(tag);
    }
    return digest;
  }

  size_t NumSets() const { return sets_.size(); }

 private:
  uint32_t assoc_;
  uint32_t line_bytes_;
  std::vector<std::vector<uint64_t>> sets_;
};

/// The simulator's L2 geometry: associativity halves until it divides the
/// line count (Simulator's MakeL2).
uint32_t L2Assoc(const SimConfig& config) {
  uint32_t assoc = config.l2_assoc;
  while (assoc > 1 && (config.l2_bytes / config.line_bytes) % assoc != 0)
    assoc /= 2;
  return assoc;
}

TEST(CacheTest, MatchesDivisionIndexedReference) {
  const SimConfig rtx = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  const SimConfig h100 = SimConfig::FromSpec(hw::GpuSpec::H100());
  struct Geometry {
    std::string name;
    uint64_t bytes;
    uint32_t assoc;
    uint32_t line_bytes;
    bool pow2_sets;
  };
  const Geometry geometries[] = {
      {"RTX2080 L1", rtx.l1_bytes, rtx.l1_assoc, rtx.line_bytes, true},
      {"RTX2080 L2", rtx.l2_bytes, L2Assoc(rtx), rtx.line_bytes, true},
      {"H100 L2", h100.l2_bytes, L2Assoc(h100), h100.line_bytes, false},
      {"3-set toy", 3 * 2 * 64, 2, 64, false},
  };
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(g.name);
    Cache cache(g.bytes, g.assoc, g.line_bytes);
    DivisionReference reference(g.bytes, g.assoc, g.line_bytes);
    ASSERT_EQ(cache.NumSets(), reference.NumSets());
    const uint32_t sets = cache.NumSets();
    EXPECT_EQ((sets & (sets - 1)) == 0, g.pow2_sets);

    // Half the accesses revisit a hot set, half stream over twice the
    // capacity; addresses carry a kernel region base in the high bits (as
    // the simulator's do) so tags use their upper bits too.
    const uint64_t lines = g.bytes / g.line_bytes;
    const uint64_t accesses = std::max<uint64_t>(20'000, 4 * lines);
    Rng rng(g.bytes ^ g.assoc);
    for (uint64_t i = 0; i < accesses; ++i) {
      const uint64_t region = (rng.NextBounded(4) + 1) << 40;
      const uint64_t line = rng.NextBool(0.5)
                                ? rng.NextBounded(std::max<uint64_t>(
                                      8, lines / 4))
                                : rng.NextBounded(2 * lines);
      const uint64_t addr =
          region + line * g.line_bytes + rng.NextBounded(g.line_bytes);
      ASSERT_EQ(cache.Access(addr), reference.Access(addr))
          << "access " << i;
      if (i % 1024 == 0) {
        const uint64_t probe = region + rng.NextBounded(2 * lines) *
                                            g.line_bytes;
        ASSERT_EQ(cache.Contains(probe), reference.Contains(probe));
      }
      if (i == accesses / 2) {
        ASSERT_EQ(cache.ContentDigest(), reference.ContentDigest());
        cache.Flush();
        reference.Flush();
        ASSERT_EQ(cache.ContentDigest(), reference.ContentDigest());
      }
    }
    EXPECT_EQ(cache.ContentDigest(), reference.ContentDigest());
    EXPECT_GT(cache.Hits(), 0u);
    EXPECT_GT(cache.Misses(), lines);  // the stream half evicts
  }
}

}  // namespace
}  // namespace stemroot::sim
