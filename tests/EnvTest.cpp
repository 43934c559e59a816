//===- tests/EnvTest.cpp - strict environment-knob parsing ---------------------===//
//
// Every numeric knob goes through support/Env.h's strict parser: a typo
// like PP_DRIVER_THREADS=max must warn and fall back to the knob's
// default, never silently parse as 0 (which would mean "serial" for
// thread counts). These tests drive the shared helpers and then each
// knob's consumer, and check that retired variables stay inert.
//
//===----------------------------------------------------------------------===//

#include "collectd/Ingest.h"
#include "driver/Driver.h"
#include "driver/RunScheduler.h"
#include "obs/Obs.h"
#include "profdb/Artifact.h"
#include "profdb/Store.h"
#include "support/Env.h"

#include "RandomProgram.h"

#include <cstdlib>
#include <ctime>
#include <fstream>
#include <gtest/gtest.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

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

TEST(Env, RetiredKnobsAreInert) {
  // Each of these once shadowed a config field or a constant. The
  // setting now has one spelling (pp-collectd --retain, the profdb
  // sweep constants), so the old variables must change nothing.
  char Template[] = "/tmp/pp-env-test-XXXXXX";
  ASSERT_NE(mkdtemp(Template), nullptr);
  const std::string Dir = Template;

  {
    // RetainWindows = 0 is unlimited, whatever the environment says.
    EnvGuard Retain("PP_COLLECTD_RETAIN_WINDOWS", "1");
    driver::Driver D(/*DiskDir=*/"", /*Threads=*/0);
    driver::RunPlan Plan;
    Plan.Workload = "130.li";
    Plan.Options.Config.M = prof::Mode::Flow;
    driver::OutcomePtr Run = D.run(Plan);
    ASSERT_TRUE(Run && Run->Result.Ok);
    const profdb::MetricSchema Schema =
        profdb::MetricSchema::of(Plan.Options.Config);

    collectd::IngestConfig C;
    C.StoreDir = Dir + "/store";
    collectd::IngestService Service(C);
    for (uint64_t Window = 0; Window != 3; ++Window)
      ASSERT_TRUE(Service
                      .ingestNow({"t0", Window,
                                  profdb::encodeRunArtifact(
                                      *Run, "env;u" + std::to_string(Window),
                                      "130.li", 1, Schema)})
                      .Accepted);
    EXPECT_EQ(Service.windows(), (std::vector<uint64_t>{0, 1, 2}));
    EXPECT_EQ(Service.stats().WindowsExpired, 0u);
  }

  {
    // A dead writer's temp inside the constant grace period survives the
    // sweep, however short the variables would make the grace.
    EnvGuard Grace("PP_COLLECTD_TEMP_GRACE_SECS", "60");
    EnvGuard Hard("PP_COLLECTD_TEMP_HARD_SECS", "120");
    pid_t Dead = fork();
    ASSERT_GE(Dead, 0);
    if (Dead == 0)
      _exit(0);
    ASSERT_EQ(waitpid(Dead, nullptr, 0), Dead);
    const std::string Temp =
        Dir + "/ppa-00000000deadbeef.ppa.tmp." + std::to_string(Dead);
    { std::ofstream(Temp, std::ios::binary) << "partial"; }
    struct timeval Times[2];
    Times[0].tv_sec = Times[1].tv_sec = ::time(nullptr) - 90;
    Times[0].tv_usec = Times[1].tv_usec = 0;
    ASSERT_EQ(::utimes(Temp.c_str(), Times), 0);
    EXPECT_EQ(profdb::sweepStaleTemps(Dir), 0u);
    EXPECT_EQ(::access(Temp.c_str(), F_OK), 0);
  }

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(Env, StrayFaultVariablesAreInert) {
  // Faults are produced for real (a corrupt file, a starved budget), so
  // no variable can fail a run, corrupt a cache read or drop a write.
  EnvGuard RunFail("PP_FAULT_RUN_FAIL", "1");
  EnvGuard ReadFlip("PP_FAULT_READ_FLIP", "1");
  EnvGuard WriteFail("PP_FAULT_WRITE_FAIL", "1");
  char Template[] = "/tmp/pp-env-test-XXXXXX";
  ASSERT_NE(mkdtemp(Template), nullptr);
  const std::string Dir = Template;

  driver::RunPlan Plan;
  Plan.Workload = "130.li";
  Plan.Options.Config.M = prof::Mode::Flow;
  {
    driver::Driver Writer(Dir, /*Threads=*/1);
    driver::OutcomePtr Run = Writer.run(Plan);
    ASSERT_TRUE(Run && Run->Result.Ok);
    EXPECT_EQ(Writer.cache().stats().Stores, 1u);
  }
  driver::Driver Reader(Dir, /*Threads=*/1);
  driver::OutcomePtr Run = Reader.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);
  EXPECT_EQ(Reader.cache().stats().DiskHits, 1u);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 0u);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}
