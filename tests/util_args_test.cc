#include "util/args.h"

#include <gtest/gtest.h>

namespace reqblock {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(ArgParserTest, KeyValuePairs) {
  const auto args = parse({"prog", "--policy", "lru", "--cache-mb", "32"});
  EXPECT_EQ(args.get_or("policy", "x"), "lru");
  EXPECT_EQ(args.get_u64_strict("cache-mb", 0), 32u);
  EXPECT_EQ(args.program(), "prog");
}

TEST(ArgParserTest, EqualsForm) {
  const auto args = parse({"prog", "--policy=reqblock", "--delta=7"});
  EXPECT_EQ(args.get_or("policy", "x"), "reqblock");
  EXPECT_EQ(args.get_u64_strict("delta", 0), 7u);
}

TEST(ArgParserTest, BooleanSwitches) {
  const auto args = parse({"prog", "--verbose", "--occupancy"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.has("occupancy"));
  EXPECT_FALSE(args.has("quiet"));
}

TEST(ArgParserTest, SwitchFollowedByFlag) {
  // "--all --policy lru": --all must not eat "--policy".
  const auto args = parse({"prog", "--all", "--policy", "lru"});
  EXPECT_TRUE(args.has("all"));
  EXPECT_EQ(args.get_or("policy", "x"), "lru");
}

TEST(ArgParserTest, BareValueFlagIsRefused) {
  // A value flag last in argv, followed by another flag, or given an empty
  // value ("--key=" or "--key ''") has no value: every value reader
  // refuses it, naming the flag, and a bare switch reads true.
  const auto args =
      parse({"prog", "--policies", "--occupancy", "--resume-from", "",
             "--requests=", "--csv"});
  for (const char* flag : {"policies", "resume-from", "requests", "csv"}) {
    try {
      args.get(flag);
      FAIL() << "expected std::invalid_argument for --" << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "--" + std::string(flag) +
                                           ": needs a value");
    }
  }
  EXPECT_THROW(args.get_or("csv", "out.csv"), std::invalid_argument);
  EXPECT_THROW(args.get_u64_strict("csv", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double_strict("csv", 0), std::invalid_argument);
  EXPECT_THROW(args.get_or("resume-from", ""), std::invalid_argument);
  EXPECT_THROW(args.get_u64_strict("requests", 0), std::invalid_argument);
  EXPECT_TRUE(args.get_switch("occupancy"));
  EXPECT_TRUE(args.has("policies"));
  EXPECT_FALSE(args.get_switch("quiet"));
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(ArgParserTest, Positional) {
  const auto args = parse({"prog", "input.csv", "--policy", "lru", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(ArgParserTest, Defaults) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get_or("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_u64_strict("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(args.get_double_strict("missing", 1.5), 1.5);
  EXPECT_FALSE(args.get("missing").has_value());
}

TEST(ArgParserTest, RejectUnreadNamesEveryFlagNothingRead) {
  const auto args = parse({"prog", "--policy", "lru", "--fault-progam-fail",
                           "0.05", "--verbose", "--throttle"});
  EXPECT_EQ(args.get_or("policy", "x"), "lru");
  EXPECT_TRUE(args.has("throttle"));
  try {
    args.reject_unread();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--fault-progam-fail"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--verbose"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("--policy"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("--throttle"), std::string::npos) << msg;
  }
  // A lookup of an absent flag reads nothing; a lookup of a present one
  // marks it read.
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_TRUE(args.get("fault-progam-fail").has_value());
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(ArgParserTest, DoubleValues) {
  const auto args = parse({"prog", "--ratio", "0.75"});
  EXPECT_DOUBLE_EQ(args.get_double_strict("ratio", 0), 0.75);
}

TEST(ArgParserStrictTest, ValidValuesAndDefaults) {
  const auto args = parse({"prog", "--checkpoint-every-n", "1000",
                           "--fault-program-fail", "0.25"});
  EXPECT_EQ(args.get_u64_strict("checkpoint-every-n", 0), 1000u);
  EXPECT_DOUBLE_EQ(args.get_double_strict("fault-program-fail", 0), 0.25);
  // A missing flag falls back, it does not throw.
  EXPECT_EQ(args.get_u64_strict("requests", 42), 42u);
  EXPECT_DOUBLE_EQ(args.get_double_strict("ratio", 1.5), 1.5);
}

TEST(ArgParserStrictTest, RejectsTrailingGarbage) {
  const auto args = parse({"prog", "--n", "5x", "--d", "0.5abc"});
  EXPECT_THROW(args.get_u64_strict("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double_strict("d", 0), std::invalid_argument);
}

TEST(ArgParserStrictTest, RejectsNegativeAndNonNumeric) {
  const auto args = parse({"prog", "--n", "-3", "--m", "abc", "--d", "nan"});
  EXPECT_THROW(args.get_u64_strict("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_u64_strict("m", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double_strict("d", 0), std::invalid_argument);
}

TEST(ArgParserStrictTest, RejectsOutOfRange) {
  // One digit past the u64 range and a double overflowing to infinity.
  const auto args =
      parse({"prog", "--n", "184467440737095516160", "--d", "1e999"});
  EXPECT_THROW(args.get_u64_strict("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double_strict("d", 0), std::invalid_argument);
}

TEST(ArgParserStrictTest, ErrorNamesFlagAndValue) {
  const auto args = parse({"prog", "--checkpoint-every-n", "10q"});
  try {
    args.get_u64_strict("checkpoint-every-n", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--checkpoint-every-n"), std::string::npos) << msg;
    EXPECT_NE(msg.find("10q"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace reqblock
