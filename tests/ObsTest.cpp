//===- tests/ObsTest.cpp - the pipeline's self-observability layer -------------===//
//
// The contract under test is the determinism split: the JSON run report
// must be byte-identical for identical RunPlans whatever the worker-pool
// size (counters are schedule-independent sums, spans aggregate by
// identity, timestamps are virtual), while the Chrome trace carries the
// host-time, per-thread data the report deliberately excludes.
//
//===----------------------------------------------------------------------===//

#include "driver/RunCache.h"
#include "driver/RunScheduler.h"
#include "obs/Obs.h"
#include "obs/ObsReport.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

using namespace pp;

namespace {

driver::RunPlan makePlan(const char *Workload, prof::Mode M) {
  driver::RunPlan Plan;
  Plan.Workload = Workload;
  Plan.Scale = 1;
  Plan.Options.Config.M = M;
  return Plan;
}

/// Executes a fixed plan set (three workloads, three modes each, plus one
/// duplicate submission) on a fresh cache and a pool of \p Threads
/// workers, and returns the JSON report of exactly that work.
std::string runSuiteReport(unsigned Threads) {
  obs::resetForTesting();
  {
    driver::RunCache Cache("");
    driver::RunScheduler Sched(&Cache, Threads);
    std::vector<size_t> Tickets;
    for (const char *Workload : {"130.li", "129.compress", "102.swim"})
      for (prof::Mode M :
           {prof::Mode::None, prof::Mode::FlowHw, prof::Mode::ContextFlow})
        Tickets.push_back(Sched.submit(makePlan(Workload, M)));
    Tickets.push_back(Sched.submit(makePlan("130.li", prof::Mode::FlowHw)));
    for (size_t Ticket : Tickets) {
      driver::OutcomePtr Outcome = Sched.get(Ticket);
      EXPECT_TRUE(Outcome && Outcome->Result.Ok);
    }
  }
  return obs::renderJsonReport();
}

} // namespace

TEST(Obs, ReportByteIdenticalAcrossThreadCounts) {
  std::string Serial = runSuiteReport(0);
  EXPECT_EQ(Serial, runSuiteReport(1));
  EXPECT_EQ(Serial, runSuiteReport(4));
  EXPECT_EQ(Serial, runSuiteReport(13));
  // And across repeated runs of the same plan at the same pool size.
  EXPECT_EQ(Serial, runSuiteReport(4));
}

TEST(Obs, CountersAreExactForAKnownPlanSet) {
  obs::resetForTesting();
  driver::RunCache Cache("");
  {
    driver::RunScheduler Sched(&Cache, 0);
    size_t A = Sched.submit(makePlan("130.li", prof::Mode::FlowHw));
    size_t B = Sched.submit(makePlan("130.li", prof::Mode::FlowHw));
    size_t C = Sched.submit(makePlan("129.compress", prof::Mode::None));
    for (size_t Ticket : {A, B, C}) {
      driver::OutcomePtr Outcome = Sched.get(Ticket);
      ASSERT_TRUE(Outcome && Outcome->Result.Ok);
    }
    using obs::Counter;
    EXPECT_EQ(obs::counterValue(Counter::SchedulerSubmitted), 3u);
    EXPECT_EQ(obs::counterValue(Counter::SchedulerFolded), 1u);
    EXPECT_EQ(obs::counterValue(Counter::SchedulerExecuted), 2u);
    EXPECT_EQ(obs::counterValue(Counter::SchedulerFailed), 0u);
    EXPECT_EQ(obs::counterValue(Counter::CacheMisses), 2u);
    // Nothing is written without a cache directory.
    EXPECT_EQ(obs::counterValue(Counter::CacheStores), 0u);
  }
  // The scheduler's folding is the one in-memory memo, so a second
  // scheduler sharing the directory-less cache executes the plan again.
  {
    driver::RunScheduler Sched(&Cache, 0);
    driver::OutcomePtr Outcome =
        Sched.get(Sched.submit(makePlan("130.li", prof::Mode::FlowHw)));
    ASSERT_TRUE(Outcome && Outcome->Result.Ok);
  }
  EXPECT_EQ(obs::counterValue(obs::Counter::SchedulerExecuted), 3u);
  EXPECT_EQ(obs::counterValue(obs::Counter::CacheMisses), 3u);
  EXPECT_EQ(obs::counterValue(obs::Counter::CacheStores), 0u);
}

TEST(Obs, VmCounterMatchesExecutedInstructions) {
  obs::resetForTesting();
  driver::RunCache Cache("");
  driver::RunScheduler Sched(&Cache, 0);
  driver::OutcomePtr Outcome =
      Sched.get(Sched.submit(makePlan("129.compress", prof::Mode::FlowHw)));
  ASSERT_TRUE(Outcome && Outcome->Result.Ok);
  EXPECT_EQ(obs::counterValue(obs::Counter::VmInsts),
            Outcome->Result.ExecutedInsts);
}

TEST(Obs, FailedRunsAreCounted) {
  obs::resetForTesting();
  driver::RunScheduler Sched(nullptr, 0);
  driver::OutcomePtr Outcome =
      Sched.get(Sched.submit(makePlan("no-such-workload", prof::Mode::None)));
  ASSERT_TRUE(Outcome);
  EXPECT_FALSE(Outcome->Result.Ok);
  EXPECT_EQ(obs::counterValue(obs::Counter::SchedulerFailed), 1u);
  EXPECT_EQ(obs::counterValue(obs::Counter::SchedulerExecuted), 0u);
}

TEST(Obs, DisabledCollectorRecordsNothing) {
  obs::resetForTesting();
  obs::setEnabled(false);
  {
    driver::RunCache Cache("");
    driver::RunScheduler Sched(&Cache, 0);
    driver::OutcomePtr Outcome =
        Sched.get(Sched.submit(makePlan("129.compress", prof::Mode::None)));
    ASSERT_TRUE(Outcome && Outcome->Result.Ok);
  }
  obs::setEnabled(true);
  for (unsigned Index = 0;
       Index != static_cast<unsigned>(obs::Counter::NumCounters); ++Index)
    EXPECT_EQ(obs::counterValue(static_cast<obs::Counter>(Index)), 0u)
        << obs::counterName(static_cast<obs::Counter>(Index));
  obs::ObsReport R;
  std::string Error;
  ASSERT_TRUE(obs::parseObsReport(obs::renderJsonReport(), R, Error))
      << Error;
  EXPECT_TRUE(R.Spans.empty());
}

TEST(Obs, ReportParsesAndVirtualTimeIsContiguous) {
  std::string Json = runSuiteReport(4);
  obs::ObsReport R;
  std::string Error;
  ASSERT_TRUE(obs::parseObsReport(Json, R, Error)) << Error;
  EXPECT_EQ(R.Version, 1u);
  EXPECT_EQ(R.DroppedRecords, 0u);
  EXPECT_EQ(R.Counters.size(),
            static_cast<size_t>(obs::Counter::NumCounters));
  ASSERT_FALSE(R.Spans.empty());

  // Gauges are host-time data; they must never leak into the report.
  EXPECT_EQ(Json.find("queue_depth"), std::string::npos);

  // Virtual time lays the aggregated spans end to end: each interval is
  // exactly the span's work, and the timeline has no gaps.
  uint64_t Cursor = 0;
  for (const obs::ObsReport::Span &S : R.Spans) {
    EXPECT_EQ(S.Vt0, Cursor);
    EXPECT_EQ(S.Vt1, S.Vt0 + S.Work);
    Cursor = S.Vt1;
  }

  EXPECT_EQ(obs::diffObsReports(R, R), "no differences\n");
  std::string Rendered = obs::renderObsReport(R);
  EXPECT_NE(Rendered.find("scheduler.submitted"), std::string::npos);
  EXPECT_NE(Rendered.find("prof/execute"), std::string::npos);
}

TEST(Obs, ReportReaderDecodesUnicodeEscapes) {
  // \uXXXX escapes decode to UTF-8 bytes — the reader used to truncate
  // each code point to 7 bits, mangling any non-ASCII label.
  obs::ObsReport R;
  std::string Error;
  ASSERT_TRUE(obs::parseObsReport(
      "{\"pp_obs_version\": 1, \"dropped_records\": 0,"
      " \"counters\": {\"caf\\u00e9 \\u2603 \\ud83d\\ude00\": 7},"
      " \"spans\": []}",
      R, Error))
      << Error;
  ASSERT_EQ(R.Counters.size(), 1u);
  // U+00E9 (2-byte), U+2603 (3-byte), U+1F600 via surrogate pair (4-byte).
  EXPECT_EQ(R.Counters[0].first,
            "caf\xc3\xa9 \xe2\x98\x83 \xf0\x9f\x98\x80");
  EXPECT_EQ(R.Counters[0].second, 7u);

  // Escaped and raw UTF-8 spellings of the same label parse identically.
  obs::ObsReport Raw;
  ASSERT_TRUE(obs::parseObsReport(
      "{\"pp_obs_version\": 1, \"dropped_records\": 0,"
      " \"counters\": {\"caf\xc3\xa9 \xe2\x98\x83 \xf0\x9f\x98\x80\": 7},"
      " \"spans\": []}",
      Raw, Error))
      << Error;
  EXPECT_EQ(Raw.Counters[0].first, R.Counters[0].first);
}

TEST(Obs, ReportReaderRejectsBadUnicodeEscapes) {
  const char *Bad[] = {
      // Lone high surrogate at end of string.
      "{\"pp_obs_version\": 1, \"counters\": {\"\\ud83d\": 1}, \"spans\": []}",
      // High surrogate followed by a non-escape.
      "{\"pp_obs_version\": 1, \"counters\": {\"\\ud83dxy\": 1}, \"spans\": []}",
      // High surrogate followed by a non-surrogate escape.
      "{\"pp_obs_version\": 1, \"counters\": {\"\\ud83d\\u0041\": 1}, \"spans\": []}",
      // Lone low surrogate.
      "{\"pp_obs_version\": 1, \"counters\": {\"\\udc00\": 1}, \"spans\": []}",
      // Truncated and non-hex escapes.
      "{\"pp_obs_version\": 1, \"counters\": {\"\\u12",
      "{\"pp_obs_version\": 1, \"counters\": {\"\\u12zq\": 1}, \"spans\": []}",
  };
  for (const char *Json : Bad) {
    obs::ObsReport R;
    std::string Error;
    EXPECT_FALSE(obs::parseObsReport(Json, R, Error)) << Json;
    EXPECT_FALSE(Error.empty()) << Json;
  }
}

TEST(Obs, AggregateSumsReportsByIdentity) {
  auto Parse = [](const char *Json) {
    obs::ObsReport R;
    std::string Error;
    EXPECT_TRUE(obs::parseObsReport(Json, R, Error)) << Error;
    return R;
  };
  // Two reports from different binary builds: B knows a counter A lacks,
  // and their span sets overlap on one identity.
  obs::ObsReport A = Parse(
      "{\"pp_obs_version\": 1, \"dropped_records\": 1,"
      " \"counters\": {\"runs.total\": 3, \"runs.failed\": 1},"
      " \"spans\": [{\"cat\": \"driver\", \"name\": \"execute\","
      " \"label\": \"130.li\", \"count\": 2, \"items\": 4, \"work\": 10,"
      " \"vt0\": 0, \"vt1\": 10}]}");
  obs::ObsReport B = Parse(
      "{\"pp_obs_version\": 1, \"dropped_records\": 2,"
      " \"counters\": {\"runs.total\": 5, \"collectd.accepted\": 7},"
      " \"spans\": [{\"cat\": \"driver\", \"name\": \"execute\","
      " \"label\": \"130.li\", \"count\": 1, \"items\": 1, \"work\": 4,"
      " \"vt0\": 10, \"vt1\": 14},"
      " {\"cat\": \"collectd\", \"name\": \"ingest\", \"label\": \"\","
      " \"count\": 9, \"items\": 9, \"work\": 9, \"vt0\": 0,"
      " \"vt1\": 9}]}");

  obs::ObsReport Sum;
  std::string Error;
  ASSERT_TRUE(obs::aggregateObsReports({A, B}, Sum, Error)) << Error;
  EXPECT_EQ(Sum.Version, 1u);
  EXPECT_EQ(Sum.DroppedRecords, 3u);

  // Counters sum by name in first-seen order; B's new counter appends.
  ASSERT_EQ(Sum.Counters.size(), 3u);
  EXPECT_EQ(Sum.Counters[0].first, "runs.total");
  EXPECT_EQ(Sum.Counters[0].second, 8u);
  EXPECT_EQ(Sum.Counters[1].first, "runs.failed");
  EXPECT_EQ(Sum.Counters[1].second, 1u);
  EXPECT_EQ(Sum.Counters[2].first, "collectd.accepted");
  EXPECT_EQ(Sum.Counters[2].second, 7u);

  // The shared span identity folds; the virtual-time envelope widens to
  // cover both contributors.
  ASSERT_EQ(Sum.Spans.size(), 2u);
  EXPECT_EQ(Sum.Spans[0].Count, 3u);
  EXPECT_EQ(Sum.Spans[0].Items, 5u);
  EXPECT_EQ(Sum.Spans[0].Work, 14u);
  EXPECT_EQ(Sum.Spans[0].Vt0, 0u);
  EXPECT_EQ(Sum.Spans[0].Vt1, 14u);
  EXPECT_EQ(Sum.Spans[1].Cat, "collectd");
  EXPECT_EQ(Sum.Spans[1].Count, 9u);

  EXPECT_FALSE(obs::aggregateObsReports({}, Sum, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Obs, RepoListingAndAggregationRoundTrip) {
  // A repository of stored reports — two copies of the same real run plus
  // a non-JSON bystander — aggregates to exactly double every counter.
  std::string Json = runSuiteReport(0);
  char Template[] = "/tmp/pp-obs-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);
  for (const char *Name : {"/b.json", "/a.json"})
    std::ofstream(std::string(Dir) + Name) << Json;
  std::ofstream(std::string(Dir) + "/notes.txt") << "not a report";

  std::vector<std::string> Files = obs::listObsReportFiles(Dir);
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_EQ(Files[0], std::string(Dir) + "/a.json");
  EXPECT_EQ(Files[1], std::string(Dir) + "/b.json");

  obs::ObsReport One, Sum;
  std::string Error;
  ASSERT_TRUE(obs::parseObsReport(Json, One, Error)) << Error;
  std::vector<obs::ObsReport> Reports;
  for (const std::string &Path : Files) {
    obs::ObsReport R;
    ASSERT_TRUE(obs::readObsReportFile(Path, R, Error)) << Error;
    Reports.push_back(std::move(R));
  }
  ASSERT_TRUE(obs::aggregateObsReports(Reports, Sum, Error)) << Error;
  ASSERT_EQ(Sum.Counters.size(), One.Counters.size());
  for (size_t Index = 0; Index != Sum.Counters.size(); ++Index) {
    EXPECT_EQ(Sum.Counters[Index].first, One.Counters[Index].first);
    EXPECT_EQ(Sum.Counters[Index].second, 2 * One.Counters[Index].second);
  }
  ASSERT_EQ(Sum.Spans.size(), One.Spans.size());
  for (size_t Index = 0; Index != Sum.Spans.size(); ++Index)
    EXPECT_EQ(Sum.Spans[Index].Work, 2 * One.Spans[Index].Work);

  // Missing directories are an empty listing, not an error.
  EXPECT_TRUE(obs::listObsReportFiles("/proc/no-such-dir").empty());

  std::string Cmd = std::string("rm -rf ") + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(Obs, ChromeTraceCarriesGaugesAndSpans) {
  runSuiteReport(2);
  std::string Trace = obs::renderChromeTrace();
  EXPECT_NE(Trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(Trace.find("scheduler.queue_depth"), std::string::npos);
  EXPECT_NE(Trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Trace.find("driver"), std::string::npos);
}
