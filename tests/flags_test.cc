#include "common/flags.h"

#include <gtest/gtest.h>

namespace hap {
namespace {

const std::vector<std::string> kAllowed = {"dataset", "epochs", "seed",
                                           "checkpoint"};

StatusOr<Flags> ParseArgs(std::vector<const char*> argv) {
  return Flags::Parse(static_cast<int>(argv.size()), argv.data(), 0,
                      kAllowed);
}

TEST(FlagsTest, ParsesNameValuePairs) {
  StatusOr<Flags> flags =
      ParseArgs({"--dataset", "mutag", "--epochs", "30"});
  ASSERT_TRUE(flags.ok()) << flags.status().message();
  EXPECT_EQ(flags.value().GetString("dataset", ""), "mutag");
  EXPECT_EQ(flags.value().GetInt("epochs", 0).value(), 30);
  EXPECT_TRUE(flags.value().Has("epochs"));
  EXPECT_FALSE(flags.value().Has("seed"));
}

TEST(FlagsTest, FallbacksApplyOnlyWhenAbsent) {
  StatusOr<Flags> flags = ParseArgs({"--epochs", "5"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags.value().GetInt("epochs", 99).value(), 5);
  EXPECT_EQ(flags.value().GetInt("seed", 99).value(), 99);
  EXPECT_EQ(flags.value().GetString("dataset", "mutag"), "mutag");
}

TEST(FlagsTest, RejectsUnknownFlag) {
  // Regression: `--chekpoint out.bin` used to be dropped on the floor —
  // the tool trained for the whole run and then saved nothing.
  StatusOr<Flags> flags = ParseArgs({"--chekpoint", "out.bin"});
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  // The error names the bad flag and lists the valid ones.
  EXPECT_NE(flags.status().message().find("--chekpoint"), std::string::npos);
  EXPECT_NE(flags.status().message().find("--checkpoint"), std::string::npos);
}

TEST(FlagsTest, RejectsFlagMissingValue) {
  // Regression: a trailing `--checkpoint` with no value used to be
  // silently ignored (the loop required i + 1 < argc).
  StatusOr<Flags> flags = ParseArgs({"--epochs", "5", "--checkpoint"});
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("missing a value"),
            std::string::npos);
}

TEST(FlagsTest, RejectsStrayPositionalArgument) {
  // Regression: `--epochs 5 oops` used to be accepted with `oops` ignored.
  StatusOr<Flags> flags = ParseArgs({"--epochs", "5", "oops"});
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("oops"), std::string::npos);
}

TEST(FlagsTest, RejectsDuplicateFlag) {
  StatusOr<Flags> flags =
      ParseArgs({"--epochs", "5", "--epochs", "6"});
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("duplicate"), std::string::npos);
}

TEST(FlagsTest, RejectsNonNumericIntegerValues) {
  StatusOr<Flags> flags = ParseArgs({"--epochs", "30x", "--seed", "-1"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags.value().GetInt("epochs", 0).ok());
  EXPECT_FALSE(flags.value().GetUint64("seed", 0).ok());
}

TEST(FlagsTest, ParsesNegativeAndBoundaryIntegers) {
  StatusOr<Flags> flags = ParseArgs({"--epochs", "-3", "--seed", "0"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags.value().GetInt("epochs", 0).value(), -3);
  EXPECT_EQ(flags.value().GetUint64("seed", 9).value(), 0u);
}

TEST(FlagsTest, RejectsIntegersBelowTheMinimum) {
  StatusOr<Flags> flags = ParseArgs({"--epochs", "0", "--seed", "-1"});
  ASSERT_TRUE(flags.ok());
  StatusOr<int> epochs = flags.value().GetInt("epochs", 5, /*min=*/1);
  ASSERT_FALSE(epochs.ok());
  EXPECT_NE(epochs.status().message().find("--epochs must be >= 1"),
            std::string::npos);
  EXPECT_FALSE(flags.value().GetInt("seed", 5, /*min=*/0).ok());
  EXPECT_EQ(flags.value().GetInt("epochs", 5, /*min=*/0).value(), 0);
  // The fallback of an absent flag is not checked against the minimum.
  EXPECT_EQ(flags.value().GetInt("dataset", -7, /*min=*/1).value(), -7);
}

TEST(FlagsTest, RespectsFirstOffset) {
  std::vector<const char*> argv = {"hap_tool", "classify", "--epochs", "2"};
  StatusOr<Flags> flags = Flags::Parse(static_cast<int>(argv.size()),
                                       argv.data(), 2, kAllowed);
  ASSERT_TRUE(flags.ok()) << flags.status().message();
  EXPECT_EQ(flags.value().GetInt("epochs", 0).value(), 2);
}

}  // namespace
}  // namespace hap
