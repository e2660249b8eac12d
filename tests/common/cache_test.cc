#include "common/cache.h"

#include <gtest/gtest.h>

namespace stemroot {
namespace {

TEST(Fnv1a64Test, KnownValuesAndSensitivity) {
  // FNV-1a offset basis for the empty string.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
  const std::string with_nul("a\0b", 3);
  EXPECT_NE(Fnv1a64(with_nul), Fnv1a64("ab"));
}

TEST(HexDigest64Test, FixedWidthLowercase) {
  EXPECT_EQ(HexDigest64(0), "0000000000000000");
  EXPECT_EQ(HexDigest64(0xDEADBEEFULL), "00000000deadbeef");
  EXPECT_EQ(HexDigest64(~0ULL), "ffffffffffffffff");
}

}  // namespace
}  // namespace stemroot
