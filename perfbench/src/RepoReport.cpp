//===- perfbench/src/RepoReport.cpp - The repo-report workload ------------===//
//
// The warm read side. Set-up fills a disk run cache with the suite's
// scale-1 runs and a repository with their artifacts, each deposited under
// many host fingerprints as a fleet archive holds them. One timed pass:
//
//   1. a fresh driver restores the whole run set from the run cache —
//      every lookup must be a disk hit;
//   2. every artifact in the repository is listed, read and decoded;
//   3. Tables 3-5 are rendered from the stored artifacts (as pp-report
//      --repo does), each (workload, mode) group is merged with mergeAll,
//      and top-paths / top-procs are rendered from every merged group.
//
// Here profdb decode, batch merge and run-cache restore do the work; the
// VM never runs.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/HotPaths.h"
#include "analysis/PaperTables.h"
#include "analysis/SiteStats.h"
#include "cct/Export.h"
#include "driver/Driver.h"
#include "profdb/Merge.h"
#include "profdb/Report.h"
#include "profdb/Store.h"
#include "support/Format.h"
#include "workloads/Spec.h"

#include <fstream>
#include <iterator>

namespace perfbench {

using namespace pp;

namespace {

/// mergeAll threads per reduction wave, as pp-report picks them: from the
/// pinned PP_PROFDB_THREADS (1). On these shard sizes a thread per wave
/// costs more than the merge and made the pass twice as noisy.
const unsigned MergeThreads = profdb::mergeThreadsFromEnv();
/// Set-up repetitions; setup_s sums each step's fastest repetition.
constexpr unsigned SetupReps = 6;
/// Rows rendered by top-paths / top-procs per merged group.
constexpr size_t TopLimit = 10;

unsigned hostCount(const Options &O) { return O.Size == "smoke" ? 2 : 48; }

std::vector<driver::RunPlan> suitePlans() {
  std::vector<driver::RunPlan> Plans;
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite())
    for (const ModeName &Mode : SuiteModes) {
      driver::RunPlan Plan;
      Plan.Workload = Spec.Name;
      Plan.Scale = 1;
      Plan.Options.Config.M = Mode.M;
      Plans.push_back(std::move(Plan));
    }
  return Plans;
}

std::string groupKey(const profdb::Artifact &A) {
  return A.Workload + "|" + A.Schema.Mode;
}

/// Table 3's row for \p Workload from a stored Context-and-Flow tree; the
/// site columns compare it against the rebuilt, re-instrumented module,
/// as pp-report does.
analysis::Table3Row table3Row(const workloads::WorkloadSpec &Spec,
                              const cct::CallingContextTree &Tree,
                              const prof::Instrumented *Live) {
  auto Module = Spec.Build(1);
  prof::Instrumented Rebuilt;
  if (!Live) {
    prof::ProfileConfig Config;
    Config.M = prof::Mode::ContextFlow;
    Rebuilt = prof::instrument(*Module, Config);
  }
  analysis::Table3Row Row;
  Row.Name = Spec.Name;
  Row.Stats = Tree.computeStats();
  Row.Sites =
      analysis::computeSitePathStats(Tree, *Module, Live ? *Live : Rebuilt);
  Row.ProfileBytes = cct::serialize(Tree).size() + Tree.heapBytes();
  return Row;
}

std::vector<analysis::PathRecord>
pathRecords(const profdb::Artifact &A) {
  std::vector<analysis::PathRecord> Records;
  for (const prof::FunctionPathProfile &Profile : A.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    for (const prof::PathEntry &Entry : Profile.Paths)
      Records.push_back({Profile.FuncId, Entry.PathSum, Entry.Freq,
                         Entry.Metric0, Entry.Metric1});
  }
  return Records;
}

/// Tables 3, 4 and 5 from live outcomes, indexed like suitePlans().
std::string tablesFromOutcomes(const std::vector<driver::OutcomePtr> &Runs) {
  const auto &Suite = workloads::spec95Suite();
  std::vector<analysis::Table3Row> T3;
  std::vector<analysis::SuitePathRows> T45;
  for (size_t W = 0; W != Suite.size(); ++W) {
    const driver::OutcomePtr &FlowHw = Runs[W * 4 + 1];
    const driver::OutcomePtr &ContextFlow = Runs[W * 4 + 3];
    T3.push_back(table3Row(Suite[W], *ContextFlow->Tree, &ContextFlow->Instr));
    T45.push_back({Suite[W].Name, Suite[W].IsFloat,
                   analysis::collectPathRecords(*FlowHw)});
  }
  return analysis::renderTable3(T3) + analysis::renderTable4(T45) +
         analysis::renderTable5(T45);
}

/// The same tables from the first artifact (in file order) of each
/// workload's Context-and-Flow and Flow-and-HW groups.
std::string tablesFromArtifacts(
    const std::map<std::string, const profdb::Artifact *> &First) {
  std::vector<analysis::Table3Row> T3;
  std::vector<analysis::SuitePathRows> T45;
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite()) {
    auto CF = First.find(Spec.Name + "|" +
                         prof::modeName(prof::Mode::ContextFlow));
    if (CF != First.end() && CF->second->Tree)
      T3.push_back(table3Row(Spec, *CF->second->Tree, nullptr));
    auto FH = First.find(Spec.Name + "|" + prof::modeName(prof::Mode::FlowHw));
    if (FH != First.end())
      T45.push_back({Spec.Name, Spec.IsFloat, pathRecords(*FH->second)});
  }
  return analysis::renderTable3(T3) + analysis::renderTable4(T45) +
         analysis::renderTable5(T45);
}

struct Repo {
  std::string CacheDir, RepoDir;
  std::vector<driver::OutcomePtr> LiveRuns;
  size_t Artifacts = 0;
};

/// Set-up: run the suite into a new run cache and deposit, then store
/// every deposited artifact under each host fingerprint in a new
/// repository. Steps: each run, then each artifact's copies.
void populate(const Options &O, Repo &Out, const std::string &Deposit,
              Result &R, StepTimes &Steps) {
  {
    driver::Driver D(Out.CacheDir, SerialWorkers);
    D.scheduler().setProfileOutDir(Deposit);
    Out.LiveRuns = runEach(D, suitePlans(), Steps);
  }
  // Host names come from the seed: they decide file names, hence the
  // listing order and so the order shards reach mergeAll.
  Rng Hosts(O.Seed);
  std::vector<std::string> Names;
  for (unsigned H = 0; H != hostCount(O); ++H)
    Names.push_back(formatString("host-%016llx",
                                 (unsigned long long)Hosts.next()));
  Out.Artifacts = 0;
  for (const std::string &Path : profdb::listArtifactFiles(Deposit)) {
    Clock::time_point T0 = Clock::now();
    profdb::Artifact A;
    if (profdb::readArtifactFile(Path, A) != profdb::DecodeStatus::Ok) {
      R.mismatch("deposited artifact unreadable: " + Path);
      continue;
    }
    for (const std::string &Host : Names) {
      profdb::Artifact Copy = profdb::cloneArtifact(A);
      Copy.Fingerprint = A.Fingerprint + ";host=" + Host;
      Copy.SourceHash = profdb::fnv1a(Copy.Fingerprint);
      std::string Error;
      if (!profdb::writeArtifactFile(
              Out.RepoDir + "/" + profdb::artifactFileName(Copy.Fingerprint),
              Copy, Error))
        R.mismatch("repository write failed: " + Error);
      ++Out.Artifacts;
    }
    Steps.record(secondsSince(T0));
  }
}

/// What one pass produced, for the gate and the layer metrics.
struct PassOutput {
  std::vector<driver::OutcomePtr> Restored;
  driver::RunCache::Stats Cache;
  uint64_t Executed = 0;
  size_t Artifacts = 0;
  uint64_t BytesRead = 0;
  std::string Tables;
  std::map<std::string, profdb::Artifact> Merged;
  std::string TopReports;
  std::vector<std::string> Errors;
};

/// Files read and decoded per step of a pass: one artifact's copies.
size_t readChunk(const Options &O) { return hostCount(O); }

/// One timed pass. With \p Split the read and the decode of each file are
/// separate calls (so the tracer can time each); otherwise the pass reads
/// through profdb::readArtifactFile. Steps: the restore, the listing, each
/// chunk of reads, the tables, and each group's merge and reports.
void reportPass(const Options &O, const Repo &Repo, Tracer &T, bool Split,
                StepTimes &Steps, PassOutput &P) {
  Clock::time_point T0 = Clock::now();
  {
    Scoped Span(T, "driver.restore");
    driver::Driver D(Repo.CacheDir, DriverWorkers);
    D.scheduler().setProfileOutDir("");
    std::vector<size_t> Tickets;
    for (driver::RunPlan &Plan : suitePlans())
      Tickets.push_back(D.submit(std::move(Plan)));
    for (size_t Ticket : Tickets)
      P.Restored.push_back(D.get(Ticket));
    P.Cache = D.cache().stats();
    P.Executed = D.scheduler().runsExecuted();
  }
  Steps.record(secondsSince(T0));

  T0 = Clock::now();
  std::vector<std::string> Paths = profdb::listArtifactFiles(Repo.RepoDir);
  Steps.record(secondsSince(T0));
  std::map<std::string, std::vector<profdb::Artifact>> Groups;
  uint64_t Id = 0;
  T0 = Clock::now();
  for (const std::string &Path : Paths) {
    if (Id != 0 && Id % readChunk(O) == 0) {
      Steps.record(secondsSince(T0));
      T0 = Clock::now();
    }
    profdb::Artifact A;
    profdb::DecodeStatus Status;
    if (Split) {
      std::vector<uint8_t> Bytes;
      {
        Scoped Span(T, "profdb.read", Id);
        std::ifstream In(Path, std::ios::binary);
        Bytes.assign(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
      }
      P.BytesRead += Bytes.size();
      Scoped Span(T, "profdb.decode", Id);
      Status = profdb::decodeArtifact(Bytes, A);
    } else {
      Status = profdb::readArtifactFile(Path, A);
    }
    ++Id;
    if (Status != profdb::DecodeStatus::Ok) {
      P.Errors.push_back(Path + ": " + profdb::decodeStatusName(Status));
      continue;
    }
    ++P.Artifacts;
    Groups[groupKey(A)].push_back(std::move(A));
  }
  Steps.record(secondsSince(T0));

  T0 = Clock::now();
  {
    Scoped Span(T, "analysis.render");
    std::map<std::string, const profdb::Artifact *> First;
    for (const auto &[Key, Shards] : Groups)
      First[Key] = &Shards.front();
    P.Tables = tablesFromArtifacts(First);
  }
  Steps.record(secondsSince(T0));

  for (auto &[Key, Shards] : Groups) {
    T0 = Clock::now();
    profdb::Artifact Merged;
    std::string Error;
    bool Ok;
    {
      Scoped Span(T, "profdb.merge", Id++);
      Ok = profdb::mergeAll(std::move(Shards), Merged, Error, MergeThreads);
    }
    if (Ok) {
      Scoped Span(T, "analysis.render");
      P.TopReports += profdb::reportTopPaths(Merged, TopLimit);
      P.TopReports += profdb::reportTopProcs(Merged, TopLimit);
      P.Merged.emplace(Key, std::move(Merged));
    } else {
      P.Errors.push_back("merge " + Key + ": " + Error);
    }
    Steps.record(secondsSince(T0));
  }
}

/// The reference each pass is checked against, produced by code paths
/// the timed pass does not use: tables from the live outcomes of set-up,
/// and every group folded left to right with pairwise mergeArtifacts, a
/// different reduction tree from mergeAll's waves. Each pair merge is
/// order-canonical (profdb/Merge.h), so the bytes must agree.
struct Reference {
  std::string Tables;
  std::map<std::string, std::vector<uint8_t>> Merged;
  std::string TopReports;
};

Reference buildReference(const Repo &Repo, Result &R) {
  Reference Ref;
  Ref.Tables = tablesFromOutcomes(Repo.LiveRuns);
  std::map<std::string, std::vector<profdb::Artifact>> Groups;
  for (const std::string &Path : profdb::listArtifactFiles(Repo.RepoDir)) {
    profdb::Artifact A;
    if (profdb::readArtifactFile(Path, A) == profdb::DecodeStatus::Ok)
      Groups[groupKey(A)].push_back(std::move(A));
  }
  for (auto &[Key, Shards] : Groups) {
    profdb::Artifact Merged = std::move(Shards.front());
    std::string Error;
    bool Ok = true;
    for (size_t I = 1; Ok && I != Shards.size(); ++I) {
      profdb::Artifact Next;
      Ok = profdb::mergeArtifacts(Merged, Shards[I], Next, Error);
      Merged = std::move(Next);
    }
    if (!Ok) {
      R.mismatch("reference merge " + Key + ": " + Error);
      continue;
    }
    Ref.Merged[Key] = profdb::encodeArtifact(Merged);
    Ref.TopReports += profdb::reportTopPaths(Merged, TopLimit);
    Ref.TopReports += profdb::reportTopProcs(Merged, TopLimit);
  }
  return Ref;
}

/// The gate: restore, tables, merged bytes and run digests.
void checkPass(const PassOutput &P, const Repo &Repo, const Reference &Ref,
               const ReferenceDigests &Digests, Result &R) {
  size_t Runs = suitePlans().size();
  R.Attempted += Runs + P.Artifacts + Ref.Merged.size() + 2;
  for (const std::string &E : P.Errors)
    R.mismatch(E);
  if (P.Cache.DiskHits != Runs || P.Cache.Misses != 0 || P.Executed != 0)
    R.mismatch(formatString("restore: %llu disk hits, %llu misses, %llu "
                            "executed (want %zu, 0, 0)",
                            (unsigned long long)P.Cache.DiskHits,
                            (unsigned long long)P.Cache.Misses,
                            (unsigned long long)P.Executed, Runs),
               Runs);
  std::vector<driver::RunPlan> Plans = suitePlans();
  for (size_t I = 0; I != Runs; ++I) {
    const driver::OutcomePtr &Out = P.Restored[I];
    auto It = Digests.find(referenceKey(Plans[I].Workload, 1,
                                        SuiteModes[I % 4].Suffix));
    if (!Out || !Out->Result.Ok || It == Digests.end() ||
        outcomeDigest(*Out) != It->second)
      R.mismatch("restored run differs from reference: " + Plans[I].Workload);
  }
  if (P.Artifacts != Repo.Artifacts)
    R.mismatch(formatString("read %zu artifacts, stored %zu", P.Artifacts,
                            Repo.Artifacts),
               Repo.Artifacts - std::min(P.Artifacts, Repo.Artifacts));
  if (P.Tables != Ref.Tables)
    R.mismatch("Tables 3-5 from artifacts differ from live tables");
  if (P.TopReports != Ref.TopReports)
    R.mismatch("top-paths / top-procs differ from the reference merges'");
  for (const auto &[Key, Bytes] : Ref.Merged) {
    auto It = P.Merged.find(Key);
    if (It == P.Merged.end() || profdb::encodeArtifact(It->second) != Bytes)
      R.mismatch("merged bytes differ from the left-fold merge: " + Key);
  }
}

} // namespace

Result runRepoReport(const Options &O) {
  Result R;
  ReferenceDigests Digests;
  std::string Error;
  if (!loadReference(O.ReferencePath, Digests, Error)) {
    R.mismatch(Error);
    return R;
  }
  R.fact("scale", 1);
  R.fact("workers", DriverWorkers);
  R.fact("merge_threads", MergeThreads);
  R.fact("hosts", hostCount(O));

  Repo Repo;
  StepTimes Setup;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Repo.CacheDir = newDir(O, "repo-cache");
    Repo.RepoDir = newDir(O, "repo");
    std::string Deposit = newDir(O, "repo-deposit");
    settle();
    Setup.beginPass();
    populate(O, Repo, Deposit, R, Setup);
  }
  settle();
  R.Samples["setup_s"] = Setup.totals();
  R.fact("artifacts", double(Repo.Artifacts));
  Reference Ref = buildReference(Repo, R);
  R.fact("merge_groups", double(Ref.Merged.size()));

  Tracer Off(false);
  {
    PassOutput Warm; // faults the repository into the page cache
    StepTimes Ignored;
    Ignored.beginPass();
    reportPass(O, Repo, Off, false, Ignored, Warm);
    checkPass(Warm, Repo, Ref, Digests, R);
  }

  if (!O.Trace) {
    size_t Artifacts = 0;
    StepTimes Steps;
    repeatPasses(O.Seconds, 3, Steps, [&] {
      PassOutput P;
      reportPass(O, Repo, Off, false, Steps, P);
      checkPass(P, Repo, Ref, Digests, R);
      Artifacts = P.Artifacts;
    });
    double Wall = Steps.fastestSum();
    R.Samples["wall_s"] = Steps.totals();
    R.fact("passes", double(Steps.passes()));
    R.fact("setup_p50_s", median(Setup.totals()));
    R.fact("wall_p50_s", median(Steps.totals()));
    R.metric("setup_s", Setup.fastestSum(), "s");
    R.metric("wall_s", Wall, "s");
    R.metric("artifacts_per_s", double(Artifacts) / Wall, "1/s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  PassOutput Traced;
  StepTimes PlainSteps, TracedSteps;
  Tracer On(true);
  for (unsigned Pair = 0; Pair != TracePairs; ++Pair) {
    PassOutput Plain;
    PlainSteps.beginPass();
    reportPass(O, Repo, Off, true, PlainSteps, Plain);
    checkPass(Plain, Repo, Ref, Digests, R);
    On = Tracer(true);
    Traced = PassOutput();
    TracedSteps.beginPass();
    reportPass(O, Repo, On, true, TracedSteps, Traced);
    checkPass(Traced, Repo, Ref, Digests, R);
  }
  On.write(O.WorkDir + "/trace-repo-report.jsonl");
  double Untraced = PlainSteps.fastestSum();
  double TracedWall = TracedSteps.fastestSum();
  uint64_t MergedBytes = 0;
  for (const auto &[Key, Bytes] : Ref.Merged)
    MergedBytes += Bytes.size();
  R.metric("driver.restore_s", On.total("driver.restore"), "s");
  R.metric("driver.disk_hits", double(Traced.Cache.DiskHits), "count");
  R.metric("profdb.read_s", On.total("profdb.read"), "s");
  R.metric("profdb.decode_s", On.total("profdb.decode"), "s");
  R.metric("profdb.bytes_read", double(Traced.BytesRead), "bytes");
  R.metric("profdb.merge_s", On.total("profdb.merge"), "s");
  R.metric("profdb.merge_groups", double(Traced.Merged.size()), "count");
  R.metric("profdb.merged_bytes", double(MergedBytes), "bytes");
  R.metric("analysis.render_s", On.total("analysis.render"), "s");
  R.metric("trace.overhead_s", TracedWall - Untraced, "s");
  R.fact("traced_wall_s", TracedWall);
  R.fact("untraced_wall_s", Untraced);
  R.fact("spans", double(On.spans().size()));
  return R;
}

} // namespace perfbench
