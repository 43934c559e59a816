//===- tests/EnvTest.cpp - strict environment-knob parsing ---------------------===//
//
// Every numeric knob goes through support/Env.h's strict parser: a typo
// like PP_DRIVER_THREADS=max must warn and fall back to the knob's
// default, never silently parse as 0 (which would mean "serial" for
// thread counts and "disarmed" for fault seams). These tests drive the
// shared helpers and then each knob's consumer.
//
//===----------------------------------------------------------------------===//

#include "driver/FaultInjector.h"
#include "obs/Obs.h"
#include "driver/RunScheduler.h"
#include "collectd/Ingest.h"
#include "opt/Pass.h"
#include "prof/Mode.h"
#include "profdb/Merge.h"
#include "profdb/Store.h"
#include "support/Env.h"

#include "RandomProgram.h"

#include <cstdlib>
#include <gtest/gtest.h>

using namespace pp;

namespace {

/// Sets (or unsets, for nullptr) an environment variable for one test and
/// restores the previous state on destruction.
class EnvGuard {
public:
  EnvGuard(const char *Name, const char *Value) : Name(Name) {
    const char *Previous = std::getenv(Name);
    Had = Previous != nullptr;
    if (Previous)
      Old = Previous;
    if (Value)
      ::setenv(Name, Value, 1);
    else
      ::unsetenv(Name);
  }
  ~EnvGuard() {
    if (Had)
      ::setenv(Name.c_str(), Old.c_str(), 1);
    else
      ::unsetenv(Name.c_str());
  }

private:
  std::string Name;
  std::string Old;
  bool Had;
};

} // namespace

TEST(Env, StrictUint64Parsing) {
  struct Case {
    const char *Text; // nullptr = unset
    EnvParse Want;
    uint64_t Value;
  };
  const Case Cases[] = {
      {nullptr, EnvParse::Unset, 0},
      {"", EnvParse::Unset, 0},
      {"0", EnvParse::Ok, 0},
      {"123", EnvParse::Ok, 123},
      {"18446744073709551615", EnvParse::Ok, UINT64_MAX},
      {"banana", EnvParse::Malformed, 0},
      {"12x", EnvParse::Malformed, 0},
      {"x12", EnvParse::Malformed, 0},
      {" 5", EnvParse::Malformed, 0},
      {"-1", EnvParse::Malformed, 0},
      {"99999999999999999999", EnvParse::Malformed, 0}, // overflow
  };
  for (const Case &C : Cases) {
    EnvGuard Guard("PP_ENV_TEST_KNOB", C.Text);
    uint64_t Out = 777; // sentinel: must survive non-Ok outcomes
    EXPECT_EQ(envUint64("PP_ENV_TEST_KNOB", "pp-tests", Out), C.Want)
        << (C.Text ? C.Text : "<unset>");
    EXPECT_EQ(Out, C.Want == EnvParse::Ok ? C.Value : 777u)
        << (C.Text ? C.Text : "<unset>");
  }
}

TEST(Env, Uint64OrKeepsTheDefaultOnBadInput) {
  {
    EnvGuard Guard("PP_ENV_TEST_KNOB", "42");
    EXPECT_EQ(envUint64Or("PP_ENV_TEST_KNOB", "pp-tests", 7), 42u);
  }
  {
    EnvGuard Guard("PP_ENV_TEST_KNOB", "banana");
    EXPECT_EQ(envUint64Or("PP_ENV_TEST_KNOB", "pp-tests", 7), 7u);
  }
  {
    EnvGuard Guard("PP_ENV_TEST_KNOB", nullptr);
    EXPECT_EQ(envUint64Or("PP_ENV_TEST_KNOB", "pp-tests", 7), 7u);
  }
}

TEST(Env, FlagAcceptsOnlyZeroAndOne) {
  struct Case {
    const char *Text; // nullptr = unset
    bool Want;
  };
  const Case Cases[] = {
      {nullptr, false},
      {"", false},
      {"0", false},
      {"1", true},
      // The original bug: only the first character was inspected, so
      // "10" read as true and "01" as false. Anything that is not
      // exactly "0" or "1" now warns and keeps the default.
      {"10", false},
      {"01", false},
      {"true", false},
      {"yes", false},
      {"2", false},
  };
  for (const Case &C : Cases) {
    EnvGuard Guard("PP_ENV_TEST_FLAG", C.Text);
    EXPECT_EQ(envFlag("PP_ENV_TEST_FLAG"), C.Want)
        << (C.Text ? C.Text : "<unset>");
  }
}

TEST(Env, BoolOrKeepsTheDefaultOnBadInput) {
  // envBoolOr carries the caller's default through unset AND malformed —
  // PP_OBS defaults on, so PP_OBS=true must not silently disable it.
  {
    EnvGuard Guard("PP_ENV_TEST_FLAG", nullptr);
    EXPECT_TRUE(envBoolOr("PP_ENV_TEST_FLAG", "pp-tests", true));
    EXPECT_FALSE(envBoolOr("PP_ENV_TEST_FLAG", "pp-tests", false));
  }
  {
    EnvGuard Guard("PP_ENV_TEST_FLAG", "true");
    EXPECT_TRUE(envBoolOr("PP_ENV_TEST_FLAG", "pp-tests", true));
  }
  {
    EnvGuard Guard("PP_ENV_TEST_FLAG", "0");
    EXPECT_FALSE(envBoolOr("PP_ENV_TEST_FLAG", "pp-tests", true));
  }
  {
    EnvGuard Guard("PP_ENV_TEST_FLAG", "1");
    EXPECT_TRUE(envBoolOr("PP_ENV_TEST_FLAG", "pp-tests", false));
  }
}

TEST(Env, BlKKnobParsesStrictlyAndClampsToRange) {
  struct Case {
    const char *Text; // nullptr = unset
    unsigned Want;
  };
  const Case Cases[] = {
      {nullptr, 1}, // unset: classic Ball-Larus
      {"1", 1},
      {"2", 2},
      {"16", 16},
      {"0", 1},      // k = 0 is meaningless: warn, stay classic
      {"17", 1},     // out of range
      {"banana", 1}, // malformed must not parse as 0 (or anything)
      {"2x", 1},
      {"-1", 1},
      {" 2", 1},
  };
  for (const Case &C : Cases) {
    EnvGuard Guard("PP_BL_K", C.Text);
    EXPECT_EQ(prof::defaultKFromEnv("pp-tests"), C.Want)
        << (C.Text ? C.Text : "<unset>");
  }
}

TEST(Env, DriverThreadsKnobRejectsNonNumeric) {
  {
    EnvGuard Guard("PP_DRIVER_THREADS", "3");
    EXPECT_EQ(driver::RunScheduler::defaultWorkerThreads(), 3u);
  }
  {
    // The original bug: atol("max") == 0 silently dropped the whole suite
    // into serial mode. Now: warn, keep the hardware default.
    EnvGuard Guard("PP_DRIVER_THREADS", "max");
    unsigned Threads = driver::RunScheduler::defaultWorkerThreads();
    EXPECT_GE(Threads, 4u);
    EXPECT_LE(Threads, 16u);
  }
  {
    // 0 is the serial mode: runs execute on the calling thread.
    EnvGuard Guard("PP_DRIVER_THREADS", "0");
    EXPECT_EQ(driver::RunScheduler::defaultWorkerThreads(), 0u);
  }
}

TEST(Env, ProfDbThreadsKnobRejectsNonNumeric) {
  EnvGuard DriverThreads("PP_DRIVER_THREADS", nullptr);
  {
    EnvGuard Guard("PP_PROFDB_THREADS", "5");
    EXPECT_EQ(profdb::mergeThreadsFromEnv(), 5u);
  }
  {
    // Malformed merge-pool knob falls through to the next default, here
    // the serial PP_DRIVER_THREADS=0 -> one merge thread.
    EnvGuard Guard("PP_PROFDB_THREADS", "banana");
    EnvGuard Serial("PP_DRIVER_THREADS", "0");
    EXPECT_EQ(profdb::mergeThreadsFromEnv(), 1u);
  }
  {
    // And the driver-threads fallback is parsed just as strictly.
    EnvGuard Guard("PP_PROFDB_THREADS", nullptr);
    EnvGuard Bad("PP_DRIVER_THREADS", "many");
    unsigned Threads = profdb::mergeThreadsFromEnv();
    EXPECT_GE(Threads, 4u);
    EXPECT_LE(Threads, 16u);
  }
}

TEST(Env, FaultKnobsRejectNonNumeric) {
  EnvGuard Seed("PP_FAULT_SEED", nullptr);
  {
    EnvGuard Guard("PP_FAULT_READ_FLIP", "7");
    EXPECT_EQ(driver::FaultInjector::configFromEnv().FlipEveryNthRead, 7u);
  }
  {
    // A typo'd seam must stay disarmed (0 = never), with a warning,
    // instead of arming at some accidental period.
    EnvGuard Guard("PP_FAULT_READ_FLIP", "banana");
    EXPECT_EQ(driver::FaultInjector::configFromEnv().FlipEveryNthRead, 0u);
  }
  {
    EnvGuard Guard("PP_FAULT_SEED", "42");
    EXPECT_EQ(driver::FaultInjector::configFromEnv().Seed, 42u);
  }
  {
    EnvGuard Guard("PP_FAULT_SEED", "banana");
    EXPECT_EQ(driver::FaultInjector::configFromEnv().Seed,
              driver::FaultInjector::Config().Seed);
  }
}

TEST(Env, CrossModeSeedsKnobRejectsNonNumeric) {
  {
    EnvGuard Guard("PP_CROSSMODE_SEEDS", "4");
    EXPECT_EQ(testutil::seedCountFromEnv("PP_CROSSMODE_SEEDS", 6), 4u);
  }
  {
    EnvGuard Guard("PP_CROSSMODE_SEEDS", "banana");
    EXPECT_EQ(testutil::seedCountFromEnv("PP_CROSSMODE_SEEDS", 6), 6u);
  }
  {
    // Zero seeds would run nothing; it reads as "use the default".
    EnvGuard Guard("PP_CROSSMODE_SEEDS", "0");
    EXPECT_EQ(testutil::seedCountFromEnv("PP_CROSSMODE_SEEDS", 6), 6u);
  }
}

TEST(Env, ObsRingCapacityKnobIsStrictAndClamped) {
  {
    EnvGuard Guard("PP_OBS_RING_CAPACITY", "4096");
    EXPECT_EQ(obs::configuredRingCapacity(), 4096u);
  }
  {
    // A typo'd capacity keeps the default, never parses as 0 (which
    // would make the ring unable to hold anything).
    EnvGuard Guard("PP_OBS_RING_CAPACITY", "banana");
    EXPECT_EQ(obs::configuredRingCapacity(), size_t(1) << 14);
  }
  {
    EnvGuard Guard("PP_OBS_RING_CAPACITY", nullptr);
    EXPECT_EQ(obs::configuredRingCapacity(), size_t(1) << 14);
  }
  {
    // Degenerate values clamp instead of breaking the ring: too small
    // rounds up to 64 slots, absurdly large rounds down to 2^20.
    EnvGuard Small("PP_OBS_RING_CAPACITY", "1");
    EXPECT_EQ(obs::configuredRingCapacity(), 64u);
  }
  {
    EnvGuard Large("PP_OBS_RING_CAPACITY", "99999999");
    EXPECT_EQ(obs::configuredRingCapacity(), size_t(1) << 20);
  }
}

TEST(Env, StaleTempSweepKnobsAreStrictAndOrdered) {
  {
    EnvGuard Grace("PP_COLLECTD_TEMP_GRACE_SECS", nullptr);
    EnvGuard Hard("PP_COLLECTD_TEMP_HARD_SECS", nullptr);
    EXPECT_EQ(profdb::staleTempGraceSeconds(), profdb::StaleTempGraceSeconds);
    EXPECT_EQ(profdb::staleTempHardSeconds(), profdb::StaleTempHardSeconds);
  }
  {
    EnvGuard Grace("PP_COLLECTD_TEMP_GRACE_SECS", "60");
    EnvGuard Hard("PP_COLLECTD_TEMP_HARD_SECS", "3600");
    EXPECT_EQ(profdb::staleTempGraceSeconds(), 60);
    EXPECT_EQ(profdb::staleTempHardSeconds(), 3600);
  }
  {
    // Typos warn and keep the defaults: "soon" must not parse as 0,
    // which would let the sweeper delete a temp file mid-write.
    EnvGuard Grace("PP_COLLECTD_TEMP_GRACE_SECS", "soon");
    EnvGuard Hard("PP_COLLECTD_TEMP_HARD_SECS", "later");
    EXPECT_EQ(profdb::staleTempGraceSeconds(), profdb::StaleTempGraceSeconds);
    EXPECT_EQ(profdb::staleTempHardSeconds(), profdb::StaleTempHardSeconds);
  }
  {
    // The hard deadline clamps to at least the grace period, so an
    // operator raising only the grace can never make the hard sweep
    // delete files the grace pass still protects.
    EnvGuard Grace("PP_COLLECTD_TEMP_GRACE_SECS", "7200");
    EnvGuard Hard("PP_COLLECTD_TEMP_HARD_SECS", "60");
    EXPECT_EQ(profdb::staleTempGraceSeconds(), 7200);
    EXPECT_EQ(profdb::staleTempHardSeconds(), 7200);
  }
}

TEST(Env, OptBudgetKnobsAreStrict) {
  {
    EnvGuard Inline("PP_OPT_INLINE_BUDGET", "64");
    EnvGuard Dup("PP_OPT_DUP_BUDGET", "32");
    opt::PassOptions Opts = opt::PassOptions::fromEnv("pp-tests");
    EXPECT_EQ(Opts.InlineBudget, 64u);
    EXPECT_EQ(Opts.DupBudget, 32u);
  }
  {
    // Typos keep the defaults: "big" must not parse as 0, which would
    // silently disable inlining and tail duplication everywhere.
    EnvGuard Inline("PP_OPT_INLINE_BUDGET", "big");
    EnvGuard Dup("PP_OPT_DUP_BUDGET", "lots");
    opt::PassOptions Opts = opt::PassOptions::fromEnv("pp-tests");
    EXPECT_EQ(Opts.InlineBudget, opt::PassOptions().InlineBudget);
    EXPECT_EQ(Opts.DupBudget, opt::PassOptions().DupBudget);
  }
  {
    EnvGuard Inline("PP_OPT_INLINE_BUDGET", nullptr);
    EnvGuard Dup("PP_OPT_DUP_BUDGET", nullptr);
    opt::PassOptions Opts = opt::PassOptions::fromEnv("pp-tests");
    EXPECT_EQ(Opts.InlineBudget, opt::PassOptions().InlineBudget);
    EXPECT_EQ(Opts.DupBudget, opt::PassOptions().DupBudget);
  }
}

TEST(Env, OptPassListKnobIsStrict) {
  const std::vector<opt::PassKind> Default = {opt::PassKind::Layout,
                                              opt::PassKind::Superblock};
  {
    EnvGuard Guard("PP_OPT_PASSES", "inline,layout");
    std::vector<opt::PassKind> Passes =
        opt::passesFromEnv("pp-tests", Default);
    ASSERT_EQ(Passes.size(), 2u);
    EXPECT_EQ(Passes[0], opt::PassKind::Inline);
    EXPECT_EQ(Passes[1], opt::PassKind::Layout);
  }
  {
    // An unknown pass name warns and keeps the caller's default order —
    // a typo must not silently run an empty (or partial) pipeline.
    EnvGuard Guard("PP_OPT_PASSES", "layout,unroll");
    EXPECT_EQ(opt::passesFromEnv("pp-tests", Default), Default);
  }
  {
    EnvGuard Guard("PP_OPT_PASSES", nullptr);
    EXPECT_EQ(opt::passesFromEnv("pp-tests", Default), Default);
  }
  {
    EnvGuard Guard("PP_OPT_PASSES", "");
    EXPECT_EQ(opt::passesFromEnv("pp-tests", Default), Default);
  }
}

TEST(Env, RetainWindowsKnobIsStrict) {
  {
    EnvGuard Guard("PP_COLLECTD_RETAIN_WINDOWS", nullptr);
    EXPECT_EQ(collectd::retainWindowsFromEnv(), 0u);
  }
  {
    EnvGuard Guard("PP_COLLECTD_RETAIN_WINDOWS", "8");
    EXPECT_EQ(collectd::retainWindowsFromEnv(), 8u);
  }
  {
    // "lots" keeps the default 0 (retention disabled), never a random
    // cap that would start expiring live windows.
    EnvGuard Guard("PP_COLLECTD_RETAIN_WINDOWS", "lots");
    EXPECT_EQ(collectd::retainWindowsFromEnv(), 0u);
  }
}
