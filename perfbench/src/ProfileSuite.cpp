//===- perfbench/src/ProfileSuite.cpp - The profile-suite workload --------===//
//
// The cold tools/run_all_tables.sh shape: Table 1's run set (18 workloads
// x {none, flowhw, contexthw, contextflow}) at one fixed scale, through a
// harness-owned driver with a fixed worker count, a fresh disk run cache
// and an artifact deposit. Host time here is almost all `execute` (VM
// dispatch, machine model, profiling-runtime hooks).
//
// The traced run steps prof::RunStager stage by stage, one run at a time,
// then stores each outcome the way the driver does (run cache, artifact
// encode, artifact write).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "profdb/Artifact.h"
#include "profdb/Store.h"
#include "support/Format.h"
#include "workloads/Spec.h"

#include <cmath>
#include <cstdio>
#include <optional>

namespace perfbench {

using namespace pp;

namespace {

/// Set-up repetitions; setup_s sums each step's fastest repetition.
constexpr unsigned SetupReps = 15;

int suiteScale(const Options &O) { return O.Size == "smoke" ? 1 : 2; }

driver::RunPlan planFor(const std::string &Workload, int Scale,
                        prof::Mode M) {
  driver::RunPlan Plan;
  Plan.Workload = Workload;
  Plan.Scale = Scale;
  Plan.Options.Config.M = M;
  return Plan;
}

struct SuiteRun {
  std::string Workload;
  unsigned ModeIndex;
};

std::vector<SuiteRun> suiteRuns() {
  std::vector<SuiteRun> Runs;
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite())
    for (unsigned Mode = 0; Mode != 4; ++Mode)
      Runs.push_back({Spec.Name, Mode});
  return Runs;
}

/// Compares one outcome against the committed digest; returns false and
/// records the mismatch when it differs.
bool checkOutcome(const driver::OutcomePtr &Out, const SuiteRun &Run,
                  int Scale, const ReferenceDigests &Ref, Result &R) {
  std::string Key =
      referenceKey(Run.Workload, Scale, SuiteModes[Run.ModeIndex].Suffix);
  auto It = Ref.find(Key);
  if (!Out || !Out->Result.Ok) {
    R.mismatch("run failed: " + Key);
    return false;
  }
  if (It == Ref.end()) {
    R.mismatch("no reference digest for " + Key);
    return false;
  }
  if (outcomeDigest(*Out) != It->second) {
    R.mismatch("digest mismatch: " + Key);
    return false;
  }
  return true;
}

struct SuiteDirs {
  std::string Cache, Deposit;
};

/// A new run cache and deposit for one driven pass; never timed.
SuiteDirs newSuiteDirs(const Options &O) {
  SuiteDirs Dirs{newDir(O, "suite-cache"), newDir(O, "suite-deposit")};
  settle();
  return Dirs;
}

/// One untraced pass: the whole run set through a fresh serial-mode
/// driver into \p Dirs, one run at a time. Records as steps the driver's
/// start, each run (submit to get) and the driver's shutdown; outcomes
/// are checked after the clock stops.
void drivenPass(const SuiteDirs &Dirs, int Scale, const ReferenceDigests &Ref,
                Result &R, StepTimes &Steps, uint64_t &SimInsts,
                uint64_t &Executed, uint64_t &Failed) {
  std::vector<SuiteRun> Runs = suiteRuns();
  std::vector<driver::RunPlan> Plans;
  for (const SuiteRun &Run : Runs)
    Plans.push_back(planFor(Run.Workload, Scale, SuiteModes[Run.ModeIndex].M));

  Clock::time_point T0 = Clock::now();
  std::optional<driver::Driver> D;
  D.emplace(Dirs.Cache, SerialWorkers);
  D->scheduler().setProfileOutDir(Dirs.Deposit);
  Steps.record(secondsSince(T0));
  std::vector<driver::OutcomePtr> Outcomes = runEach(*D, Plans, Steps);
  Executed = D->scheduler().runsExecuted();
  Failed = D->scheduler().runsFailed();
  T0 = Clock::now();
  D.reset();
  Steps.record(secondsSince(T0));

  SimInsts = 0;
  for (size_t I = 0; I != Runs.size(); ++I) {
    ++R.Attempted;
    if (checkOutcome(Outcomes[I], Runs[I], Scale, Ref, R))
      SimInsts += Outcomes[I]->Result.ExecutedInsts;
  }
  size_t Deposited = profdb::listArtifactFiles(Dirs.Deposit).size();
  ++R.Attempted;
  if (Deposited != Runs.size())
    R.mismatch(formatString("deposited %zu artifacts, want %zu", Deposited,
                            Runs.size()));
}

/// Per-mode layer totals of one serial, stage-by-stage pass.
struct StageTotals {
  double Instrument[4] = {}, Load[4] = {}, Execute[4] = {}, Extract[4] = {};
  uint64_t Insts[4] = {};
  /// Execute seconds per (workload, mode), for the overhead ratios.
  std::vector<std::array<double, 4>> PerWorkload;
  double Store = 0, Encode = 0, Write = 0;
  uint64_t ArtifactBytes = 0;
};

/// One serial pass that calls each pipeline stage itself, under \p T.
double stagedPass(const Options &O, int Scale, const ReferenceDigests &Ref,
                  Tracer &T, Result &R, StageTotals &S) {
  SuiteDirs Dirs = newSuiteDirs(O);
  driver::RunCache Cache(Dirs.Cache);
  const std::vector<workloads::WorkloadSpec> &Suite = workloads::spec95Suite();
  S.PerWorkload.assign(Suite.size(), {});

  Clock::time_point T0 = Clock::now();
  uint64_t Id = 0;
  for (size_t W = 0; W != Suite.size(); ++W) {
    for (unsigned Mode = 0; Mode != 4; ++Mode, ++Id) {
      const char *Suffix = SuiteModes[Mode].Suffix;
      driver::RunPlan Plan = planFor(Suite[W].Name, Scale, SuiteModes[Mode].M);
      Scoped RunSpan(T, std::string("run.") + Suffix, Id);
      std::unique_ptr<ir::Module> M;
      {
        Scoped Span(T, "workloads.build", Id, RunSpan.index());
        M = workloads::buildWorkload(Plan.Workload, Scale);
      }
      prof::RunStager Stager(*M, Plan.Options);
      int64_t Span = T.open("prof.instrument", Id, RunSpan.index());
      Stager.instrument();
      S.Instrument[Mode] += T.close(Span);
      Span = T.open("prof.load", Id, RunSpan.index());
      Stager.load();
      S.Load[Mode] += T.close(Span);
      Span = T.open("prof.execute", Id, RunSpan.index());
      Stager.execute();
      double Exec = T.close(Span);
      S.Execute[Mode] += Exec;
      S.PerWorkload[W][Mode] = Exec;
      Span = T.open("prof.extract", Id, RunSpan.index());
      auto Out = std::make_shared<prof::RunOutcome>(Stager.extract());
      S.Extract[Mode] += T.close(Span);

      driver::RunKey Key = driver::RunKey::of(Plan);
      Span = T.open("driver.store", Id, RunSpan.index());
      Cache.insert(Key, Out);
      S.Store += T.close(Span);
      Span = T.open("profdb.encode", Id, RunSpan.index());
      profdb::Artifact A = profdb::artifactFromOutcome(
          *Out, *M, Key.Fingerprint, Plan.Workload, uint64_t(Scale),
          Plan.Options.Config);
      std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
      S.Encode += T.close(Span);
      S.ArtifactBytes += Bytes.size();
      std::string Error;
      Span = T.open("profdb.write", Id, RunSpan.index());
      bool Wrote = profdb::writeArtifactFile(
          Dirs.Deposit + "/" + profdb::artifactFileName(Key.Fingerprint), A,
          Error);
      S.Write += T.close(Span);

      ++R.Attempted;
      if (!Wrote)
        R.mismatch("artifact write failed: " + Error);
      ++R.Attempted;
      if (checkOutcome(Out, {Suite[W].Name, Mode}, Scale, Ref, R))
        S.Insts[Mode] += Out->Result.ExecutedInsts;
    }
  }
  return secondsSince(T0);
}

} // namespace

Result runProfileSuite(const Options &O) {
  Result R;
  int Scale = suiteScale(O);
  ReferenceDigests Ref;
  std::string Error;
  if (!loadReference(O.ReferencePath, Ref, Error)) {
    R.mismatch(Error);
    return R;
  }
  R.fact("scale", Scale);
  R.fact("workers", SerialWorkers);
  R.fact("runs_per_pass", double(suiteRuns().size()));

  // Set-up: build every module of the suite, then one warm-up pass of
  // the run set at scale 1 (faults in code, allocator arenas and the
  // cache directories). Deterministic work only: the process is already
  // running, the reference is already read, and the warm-up pass's
  // digest checks run after its clock stops.
  StepTimes Setup;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    SuiteDirs Dirs = newSuiteDirs(O);
    Setup.beginPass();
    for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite()) {
      Clock::time_point T0 = Clock::now();
      if (!Spec.Build(Scale))
        R.mismatch("cannot build " + Spec.Name);
      Setup.record(secondsSince(T0));
    }
    uint64_t Insts, Executed, Failed;
    drivenPass(Dirs, 1, Ref, R, Setup, Insts, Executed, Failed);
  }
  R.Samples["setup_s"] = Setup.totals();

  if (!O.Trace) {
    uint64_t SimInsts = 0;
    StepTimes Steps;
    repeatPasses(O.Seconds, 3, Steps, [&] {
      uint64_t Executed, Failed;
      drivenPass(newSuiteDirs(O), Scale, Ref, R, Steps, SimInsts, Executed,
                 Failed);
      if (Executed != suiteRuns().size() || Failed != 0)
        R.mismatch(formatString("pass executed %llu runs, %llu failed",
                                (unsigned long long)Executed,
                                (unsigned long long)Failed));
    });
    double Wall = Steps.fastestSum();
    R.Samples["wall_s"] = Steps.totals();
    R.fact("passes", double(Steps.passes()));
    R.fact("sim_insts_per_pass", double(SimInsts));
    R.fact("setup_p50_s", median(Setup.totals()));
    R.fact("wall_p50_s", median(Steps.totals()));
    R.metric("setup_s", Setup.fastestSum(), "s");
    R.metric("wall_s", Wall, "s");
    R.metric("sim_minsts_per_s", double(SimInsts) / 1e6 / Wall, "Minst/s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  // Traced run. The driven pass gives the driver's own counts; the
  // staged passes (untraced and traced, alternating) give the layers and
  // the tracing overhead.
  uint64_t SimInsts, Executed, Failed;
  StepTimes Driven;
  Driven.beginPass();
  drivenPass(newSuiteDirs(O), Scale, Ref, R, Driven, SimInsts, Executed,
             Failed);
  R.fact("driven_wall_s", Driven.fastestSum());
  Tracer On(true);
  StageTotals S;
  double Untraced = 0, Traced = 0;
  for (unsigned Pair = 0; Pair != TracePairs; ++Pair) {
    Tracer Off(false);
    StageTotals Ignored;
    double Plain = stagedPass(O, Scale, Ref, Off, R, Ignored);
    On = Tracer(true);
    S = StageTotals();
    double Timed = stagedPass(O, Scale, Ref, On, R, S);
    Untraced = Pair == 0 ? Plain : std::min(Untraced, Plain);
    Traced = Pair == 0 ? Timed : std::min(Traced, Timed);
  }
  On.write(O.WorkDir + "/trace-profile-suite.jsonl");

  R.metric("workloads.build_s", On.total("workloads.build"), "s");
  for (unsigned Mode = 0; Mode != 4; ++Mode) {
    std::string Suffix = SuiteModes[Mode].Suffix;
    R.metric("prof.instrument_s." + Suffix, S.Instrument[Mode], "s");
    R.metric("prof.load_s." + Suffix, S.Load[Mode], "s");
    R.metric("prof.execute_s." + Suffix, S.Execute[Mode], "s");
    R.metric("prof.extract_s." + Suffix, S.Extract[Mode], "s");
    R.metric("prof.execute_ns_per_inst." + Suffix,
             S.Insts[Mode] ? S.Execute[Mode] * 1e9 / double(S.Insts[Mode])
                           : 0,
             "ns");
    R.metric("vm.sim_insts." + Suffix, double(S.Insts[Mode]), "count");
    if (Mode == 0)
      continue;
    // Geometric mean over the suite of execute(m) / execute(none).
    double LogSum = 0;
    for (const std::array<double, 4> &W : S.PerWorkload)
      LogSum += std::log(W[Mode] / W[0]);
    R.metric("prof.host_overhead_x." + Suffix,
             std::exp(LogSum / double(S.PerWorkload.size())), "x");
  }
  R.metric("driver.store_s", S.Store, "s");
  R.metric("profdb.encode_s", S.Encode, "s");
  R.metric("profdb.write_s", S.Write, "s");
  R.metric("profdb.artifact_bytes", double(S.ArtifactBytes), "bytes");
  R.metric("driver.runs", double(Executed), "count");
  R.metric("driver.runs_failed", double(Failed), "count");
  R.metric("trace.overhead_s", Traced - Untraced, "s");
  R.fact("traced_wall_s", Traced);
  R.fact("untraced_wall_s", Untraced);
  R.fact("spans", double(On.spans().size()));
  return R;
}

int generateReference(const std::string &Path, const std::vector<int> &Scales) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out, "# workload scale mode digest — generated on the "
                    "reference VM engine (perfbench --gen-reference)\n");
  driver::Driver D("", DriverWorkers);
  for (int Scale : Scales) {
    std::vector<SuiteRun> Runs = suiteRuns();
    std::vector<size_t> Tickets;
    for (const SuiteRun &Run : Runs) {
      driver::RunPlan Plan =
          planFor(Run.Workload, Scale, SuiteModes[Run.ModeIndex].M);
      Plan.Options.Engine = vm::Engine::Reference;
      Tickets.push_back(D.submit(std::move(Plan)));
    }
    for (size_t I = 0; I != Runs.size(); ++I) {
      driver::OutcomePtr Outcome = D.get(Tickets[I]);
      if (!Outcome || !Outcome->Result.Ok) {
        std::fprintf(stderr, "perfbench: reference run %s failed\n",
                     Runs[I].Workload.c_str());
        std::fclose(Out);
        return 1;
      }
      std::fprintf(Out, "%s %d %s %016llx\n", Runs[I].Workload.c_str(), Scale,
                   SuiteModes[Runs[I].ModeIndex].Suffix,
                   (unsigned long long)outcomeDigest(*Outcome));
    }
  }
  return std::fclose(Out) == 0 ? 0 : 1;
}

} // namespace perfbench
