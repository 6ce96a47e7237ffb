#include "support/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "support/env.hpp"

namespace ahg {
namespace {

bool parse(ArgParser& parser, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_string("name", "default", "a string");
  p.add_int("count", 7, "an int");
  p.add_double("ratio", 0.5, "a double");
  p.add_flag("verbose", "a flag");
  return p;
}

TEST(Args, DefaultsApplyWhenUnset) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get_string("name"), "default");
  EXPECT_EQ(p.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.5);
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(Args, SpaceSeparatedValues) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--name", "alice", "--count", "42", "--ratio", "0.25"}));
  EXPECT_EQ(p.get_string("name"), "alice");
  EXPECT_EQ(p.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.25);
}

TEST(Args, EqualsSeparatedValues) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--name=bob", "--count=-3"}));
  EXPECT_EQ(p.get_string("name"), "bob");
  EXPECT_EQ(p.get_int("count"), -3);
}

TEST(Args, FlagSetsTrue) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--verbose"}));
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(Args, UnknownOptionFails) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--bogus", "1"}));
  EXPECT_TRUE(p.error());
}

TEST(Args, MissingValueFails) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--name"}));
  EXPECT_TRUE(p.error());
}

TEST(Args, NonNumericIntFails) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--count", "abc"}));
  EXPECT_TRUE(p.error());
}

TEST(Args, TrailingJunkFails) {
  for (const char* bad : {"12abc", "12 ", " 12", "1.5", ""}) {
    auto p = make_parser();
    EXPECT_FALSE(parse(p, {"--count", bad})) << "'" << bad << "'";
    EXPECT_TRUE(p.error()) << "'" << bad << "'";
  }
  for (const char* bad : {"0.5x", "0.5 ", "", "0x1p3"}) {
    auto p = make_parser();
    EXPECT_FALSE(parse(p, {"--ratio", bad})) << "'" << bad << "'";
    EXPECT_TRUE(p.error()) << "'" << bad << "'";
  }
}

TEST(Args, OutOfRangeIntFails) {
  for (const char* bad : {"99999999999999999999", "-99999999999999999999",
                          "9223372036854775808"}) {
    auto p = make_parser();
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(parse(p, {"--count", bad})) << bad;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(p.error()) << bad;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  }
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--count", "9223372036854775807"}));
  EXPECT_EQ(p.get_int("count"), INT64_MAX);
}

TEST(Args, NonFiniteOrOutOfRangeDoubleFails) {
  for (const char* bad : {"1e999", "-1e999", "nan", "-nan", "inf", "-inf", "infinity"}) {
    auto p = make_parser();
    EXPECT_FALSE(parse(p, {"--ratio", bad})) << bad;
    EXPECT_TRUE(p.error()) << bad;
  }
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--ratio=-1e300"}));
  EXPECT_EQ(p.get_double("ratio"), -1e300);
}

TEST(Args, FlagWithValueFails) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--verbose=yes"}));
  EXPECT_TRUE(p.error());
}

TEST(Args, HelpReturnsFalseWithoutError) {
  auto p = make_parser();
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(parse(p, {"--help"}));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(p.error());
  EXPECT_NE(out.find("test program"), std::string::npos);
  EXPECT_NE(out.find("--count"), std::string::npos);
}

TEST(Args, PositionalRequiredAndOptional) {
  ArgParser p("prog", "positional test");
  p.add_positional("input", "input file");
  p.add_positional("output", "output file", std::string("out.txt"));
  ASSERT_TRUE(parse(p, {"in.txt"}));
  EXPECT_EQ(p.get_string("input"), "in.txt");
  EXPECT_EQ(p.get_string("output"), "out.txt");

  ArgParser q("prog", "positional test");
  q.add_positional("input", "input file");
  EXPECT_FALSE(parse(q, {}));
  EXPECT_TRUE(q.error());
}

TEST(Args, ExtraPositionalFails) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"stray"}));
  EXPECT_TRUE(p.error());
}

TEST(Args, WrongTypeAccessThrows) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get_int("name"), PreconditionError);
  EXPECT_THROW(p.get_string("bogus"), PreconditionError);
}

TEST(Args, DuplicateDeclarationThrows) {
  ArgParser p("prog", "dup");
  p.add_flag("x", "first");
  EXPECT_THROW(p.add_int("x", 0, "second"), PreconditionError);
}

// --- strict env knobs (the bench_scale AHG_SCALE_* overrides) --------------
//
// env_int() deliberately falls back on junk (a typo'd REPRO_SEED is
// harmless); the scale-shape overrides must NOT — a malformed
// AHG_SCALE_TASKS silently benchmarking the default shape poisons the
// baseline comparison. env_int_checked throws instead, naming the range.

class EnvIntChecked : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kVar); }
  static constexpr const char* kVar = "AHG_TEST_ENV_INT_CHECKED";
};

TEST_F(EnvIntChecked, UnsetOrEmptyReturnsFallbackUnvalidated) {
  ::unsetenv(kVar);
  EXPECT_EQ(env_int_checked(kVar, 0, 1, 100), 0);  // fallback may be out of range
  ::setenv(kVar, "", 1);
  EXPECT_EQ(env_int_checked(kVar, -5, 1, 100), -5);
}

TEST_F(EnvIntChecked, InRangeValueParses) {
  ::setenv(kVar, "262144", 1);
  EXPECT_EQ(env_int_checked(kVar, 0, 1, 1 << 20), 262144);
  ::setenv(kVar, "1", 1);
  EXPECT_EQ(env_int_checked(kVar, 0, 1, 1 << 20), 1);
  ::setenv(kVar, "1048576", 1);
  EXPECT_EQ(env_int_checked(kVar, 0, 1, 1 << 20), 1048576);
}

TEST_F(EnvIntChecked, MalformedValueThrowsNamingTheRange) {
  for (const char* bad : {"64k", "abc", "12abc", "1.5", "0x40", " 64"}) {
    ::setenv(kVar, bad, 1);
    try {
      env_int_checked(kVar, 0, 1, 1 << 20);
      FAIL() << "expected PreconditionError for '" << bad << "'";
    } catch (const PreconditionError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(kVar), std::string::npos) << bad;
      EXPECT_NE(what.find("[1, 1048576]"), std::string::npos) << bad;
    }
  }
}

TEST_F(EnvIntChecked, ZeroNegativeAndOutOfRangeThrow) {
  for (const char* bad : {"0", "-1", "-262144", "1048577", "99999999999999999999"}) {
    ::setenv(kVar, bad, 1);
    EXPECT_THROW(env_int_checked(kVar, 0, 1, 1 << 20), PreconditionError) << bad;
  }
}

// --- bench --jobs / AHG_JOBS ------------------------------------------------
//
// Only the rejections are tested: an accepted count sizes the process-wide
// pool, and a rejected one must stop before any pool is configured.

class BenchJobs : public ::testing::Test {
 protected:
  void SetUp() override { bench::bench_flags() = bench::BenchFlags{}; }
  void TearDown() override {
    ::unsetenv("AHG_JOBS");
    bench::bench_flags() = bench::BenchFlags{};
  }
  static std::optional<int> run(std::vector<std::string> args) {
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    int argc = static_cast<int>(argv.size());
    return bench::handle_bench_flags(argc, argv.data());
  }
};

TEST_F(BenchJobs, MalformedOrOversizedFlagExitsTwo) {
  for (const char* bad : {"abc", "3x", "", "-1", "+4", " 4", "4 ", "1.5", "1025",
                          "100000", "99999999999999999999"}) {
    EXPECT_EQ(run({"--jobs", bad}), 2) << "'" << bad << "'";
    EXPECT_EQ(run({std::string("--jobs=") + bad}), 2) << "'" << bad << "'";
    EXPECT_EQ(bench::bench_flags().jobs, 0u) << "'" << bad << "'";
  }
  EXPECT_EQ(run({"--jobs"}), 2);
}

TEST_F(BenchJobs, MalformedOrOversizedEnvExitsTwo) {
  for (const char* bad : {"abc", "3x", "-1", " 4", "1025", "100000"}) {
    ::setenv("AHG_JOBS", bad, 1);
    EXPECT_EQ(run({}), 2) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace ahg
