// The bench binaries' environment parsing (bench/bench_util.h): a set
// variable must parse completely or the bench exits non-zero naming it; an
// unset or empty one takes the caller's default.

#include <cstdlib>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace aspen {
namespace benchutil {
namespace {

/// Sets one environment variable for the test's scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(BenchEnvTest, UnsetAndEmptyTakeTheDefault) {
  unsetenv("ASPEN_SHARDS");
  EXPECT_EQ(FromEnv(Env::kShards, 7), 7);
  ScopedEnv empty("ASPEN_BENCH_CYCLES", "");
  EXPECT_EQ(FromEnv(Env::kCycles, 30), 30);
}

TEST(BenchEnvTest, WellFormedValuesParse) {
  {
    ScopedEnv e("ASPEN_SHARDS", "4");
    EXPECT_EQ(FromEnv(Env::kShards, 1), 4);
    EXPECT_EQ(KnobsFromEnv().shards, 4);
  }
  {
    ScopedEnv e("ASPEN_REOPT", "0");
    EXPECT_EQ(FromEnv(Env::kReopt, 10), 0);
  }
  {
    ScopedEnv e("ASPEN_TREE_MODE", "shared");
    EXPECT_EQ(KnobsFromEnv().tree_mode, common::TreeMode::kShared);
  }
  {
    ScopedEnv e("ASPEN_TREE_MODE", "per_source");
    EXPECT_EQ(KnobsFromEnv().tree_mode, common::TreeMode::kPerSource);
  }
}

TEST(BenchEnvDeathTest, MalformedValuesExitNonZeroNamingTheVariable) {
  struct Case {
    const char* name;
    const char* value;
    Env var;
  };
  const Case cases[] = {
      {"ASPEN_SHARDS", "four", Env::kShards},
      {"ASPEN_SHARDS", "4x", Env::kShards},
      {"ASPEN_SHARDS", "0", Env::kShards},
      {"ASPEN_BENCH_RUNS", "-3", Env::kRuns},
      {"ASPEN_BENCH_CYCLES", "99999999999", Env::kCycles},
      {"ASPEN_REOPT", "-1", Env::kReopt},
      {"ASPEN_TREE_MODE", "Shared", Env::kTreeMode},
  };
  for (const Case& c : cases) {
    ScopedEnv e(c.name, c.value);
    EXPECT_EXIT(FromEnv(c.var, 1), ::testing::ExitedWithCode(2), c.name)
        << c.name << "=" << c.value;
  }
}

}  // namespace
}  // namespace benchutil
}  // namespace aspen
