#include "common/flags.h"

#include <gtest/gtest.h>

namespace stemroot {
namespace {

Flags Make(std::vector<const char*> args) {
  return Flags::Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, PositionalThenFlags) {
  const Flags flags = Make({"sample", "--in", "t.bin", "--epsilon", "0.1"});
  ASSERT_EQ(flags.Positional().size(), 1u);
  EXPECT_EQ(flags.Positional()[0], "sample");
  EXPECT_EQ(flags.Require("in"), "t.bin");
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 0.05), 0.1);
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags flags = Make({"--seed=42", "--name=x"});
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
  EXPECT_EQ(flags.GetString("name", ""), "x");
}

TEST(FlagsTest, DefaultsApplyWhenMissing) {
  const Flags flags = Make({});
  EXPECT_EQ(flags.GetString("gpu", "rtx2080"), "rtx2080");
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 0.05), 0.05);
  EXPECT_EQ(flags.GetInt("reps", 10), 10);
  EXPECT_TRUE(flags.GetBool("flag", true));
  EXPECT_FALSE(flags.Has("gpu"));
}

TEST(FlagsTest, TypedParsingErrors) {
  const Flags flags = Make({"--epsilon", "abc", "--reps", "1.5",
                            "--flush", "maybe"});
  EXPECT_THROW(flags.GetDouble("epsilon", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.GetInt("reps", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetBool("flush", false), std::invalid_argument);
}

TEST(FlagsTest, BoolAcceptsCanonicalForms) {
  const Flags flags = Make({"--a", "true", "--b", "0"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
}

TEST(FlagsTest, RequireThrowsWhenAbsent) {
  const Flags flags = Make({});
  EXPECT_THROW(flags.Require("in"), std::invalid_argument);
}

TEST(FlagsTest, MissingValueRejected) {
  EXPECT_THROW(Make({"--in"}), std::invalid_argument);
}

TEST(FlagsTest, UnknownFlagsDetected) {
  const Flags flags = Make({"--in", "x", "--typo", "y"});
  (void)flags.Require("in");
  EXPECT_THROW(flags.CheckAllRead(), std::invalid_argument);
  const Flags clean = Make({"--in", "x"});
  (void)clean.Require("in");
  EXPECT_NO_THROW(clean.CheckAllRead());
}

TEST(FlagsTest, GetAllKeepsEveryValueOfARepeatableFlag) {
  const Flags flags = Make({"check", "--require-event", "a", "--seed", "7",
                            "--require-event=b"});
  EXPECT_EQ(flags.GetAll("require-event"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(flags.GetAll("require-stage"), std::vector<std::string>{});
  EXPECT_EQ(flags.GetInt("seed", 0), 7);
  EXPECT_NO_THROW(flags.CheckAllRead());
}

TEST(FlagsTest, RepeatedSingleValueFlagIsRejected) {
  // The last value must not silently win: every single-value getter
  // refuses a flag given twice.
  const Flags flags = Make({"--seed", "1", "--seed", "2"});
  EXPECT_THROW(flags.GetInt("seed", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetString("seed", ""), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("seed", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.GetBool("seed", false), std::invalid_argument);
  EXPECT_THROW(flags.Require("seed"), std::invalid_argument);
  EXPECT_EQ(flags.GetAll("seed"), (std::vector<std::string>{"1", "2"}));
}

}  // namespace
}  // namespace stemroot
