//===- tests/DriverTest.cpp - experiment-driver layer tests --------------------===//
//
// The driver layer's contract: a cached outcome is bitwise the outcome of
// a fresh run (totals, path profiles, edge profiles, CCT), parallel
// execution produces exactly the serial results, duplicate submissions
// fold onto one execution, and the on-disk cache round-trips outcomes
// across driver instances.
//
//===----------------------------------------------------------------------===//

#include "cct/ImageIO.h"
#include "driver/Driver.h"
#include "obs/Obs.h"
#include "profdb/Artifact.h"
#include "profdb/Merge.h"
#include "profdb/Store.h"
#include "workloads/Spec.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace pp;
using namespace pp::driver;

namespace {

RunPlan makePlan(const std::string &Workload, prof::Mode M, int Scale = 1) {
  RunPlan Plan;
  Plan.Workload = Workload;
  Plan.Scale = Scale;
  Plan.Options.Config.M = M;
  return Plan;
}

/// A tree's artifact bytes (cct::writeTree): canonical, and they cover
/// every record, slot, address and the heap size.
std::vector<uint8_t> treeBytes(const cct::CallingContextTree &Tree) {
  ByteWriter W;
  cct::writeTree(W, Tree);
  return std::move(W.Bytes);
}

void expectTreesEqual(const cct::CallingContextTree &A,
                      const cct::CallingContextTree &B) {
  EXPECT_TRUE(treeBytes(A) == treeBytes(B));
}

/// Path cells in \p Tree's records (when every record's cells strictly
/// ascend by path sum), or -1.
int64_t ascendingCells(const cct::CallingContextTree &Tree) {
  int64_t Cells = 0;
  for (const auto &R : Tree.records()) {
    if (std::adjacent_find(R->PathTable.begin(), R->PathTable.end(),
                           [](const auto &A, const auto &B) {
                             return A.first >= B.first;
                           }) != R->PathTable.end())
      return -1;
    Cells += static_cast<int64_t>(R->PathTable.size());
  }
  return Cells;
}

/// Bitwise equality of everything a consumer can read from an outcome
/// (the instrumented module itself is deliberately not part of the
/// contract — disk-restored outcomes do not carry one).
void expectOutcomesEqual(const prof::RunOutcome &A,
                         const prof::RunOutcome &B) {
  // Every function is named, and a restored outcome keeps the names.
  EXPECT_EQ(A.Functions.size(), A.Instr.Functions.size());
  EXPECT_EQ(A.Functions, B.Functions);
  EXPECT_EQ(A.Result.Ok, B.Result.Ok);
  EXPECT_EQ(A.Result.ExitValue, B.Result.ExitValue);
  EXPECT_EQ(A.Result.ExecutedInsts, B.Result.ExecutedInsts);
  EXPECT_EQ(A.Totals, B.Totals);

  ASSERT_EQ(A.PathProfiles.size(), B.PathProfiles.size());
  for (size_t F = 0; F != A.PathProfiles.size(); ++F) {
    const prof::FunctionPathProfile &PA = A.PathProfiles[F];
    const prof::FunctionPathProfile &PB = B.PathProfiles[F];
    EXPECT_EQ(PA.FuncId, PB.FuncId);
    EXPECT_EQ(PA.HasProfile, PB.HasProfile);
    EXPECT_EQ(PA.NumPaths, PB.NumPaths);
    EXPECT_EQ(PA.Hashed, PB.Hashed);
    ASSERT_EQ(PA.Paths.size(), PB.Paths.size()) << "function " << F;
    for (size_t P = 0; P != PA.Paths.size(); ++P) {
      EXPECT_EQ(PA.Paths[P].PathSum, PB.Paths[P].PathSum);
      EXPECT_EQ(PA.Paths[P].Freq, PB.Paths[P].Freq);
      EXPECT_EQ(PA.Paths[P].Metric0, PB.Paths[P].Metric0);
      EXPECT_EQ(PA.Paths[P].Metric1, PB.Paths[P].Metric1);
    }
  }

  ASSERT_EQ(A.EdgeProfiles.size(), B.EdgeProfiles.size());
  for (size_t F = 0; F != A.EdgeProfiles.size(); ++F) {
    EXPECT_EQ(A.EdgeProfiles[F].FuncId, B.EdgeProfiles[F].FuncId);
    EXPECT_EQ(A.EdgeProfiles[F].HasProfile, B.EdgeProfiles[F].HasProfile);
    EXPECT_EQ(A.EdgeProfiles[F].EdgeCounts, B.EdgeProfiles[F].EdgeCounts);
    EXPECT_EQ(A.EdgeProfiles[F].Invocations, B.EdgeProfiles[F].Invocations);
  }

  ASSERT_EQ(A.Instr.Functions.size(), B.Instr.Functions.size());
  for (size_t F = 0; F != A.Instr.Functions.size(); ++F)
    EXPECT_EQ(A.Instr.Functions[F].HasPathProfile,
              B.Instr.Functions[F].HasPathProfile);

  ASSERT_EQ(A.Tree != nullptr, B.Tree != nullptr);
  if (A.Tree && B.Tree)
    expectTreesEqual(*A.Tree, *B.Tree);
}

/// expectOutcomesEqual plus every remaining field a run-cache entry
/// carries: the run's error text, the acquisition stats, the path tables'
/// k, and the whole instrumentation metadata. Only the instrumented module
/// (Instr.M, FunctionInstrInfo::F) is not persisted.
void expectEveryFieldEqual(const prof::RunOutcome &A,
                           const prof::RunOutcome &B) {
  expectOutcomesEqual(A, B);
  EXPECT_EQ(A.Result.Error, B.Result.Error);
  EXPECT_EQ(A.Acq.Traps, B.Acq.Traps);
  EXPECT_EQ(A.Acq.Samples, B.Acq.Samples);
  EXPECT_EQ(A.Acq.FramesWalked, B.Acq.FramesWalked);
  EXPECT_EQ(A.Acq.LogBytes, B.Acq.LogBytes);
  for (size_t F = 0; F != A.PathProfiles.size(); ++F)
    EXPECT_EQ(A.PathProfiles[F].KIters, B.PathProfiles[F].KIters);
  for (size_t F = 0; F != A.Instr.Functions.size(); ++F) {
    const prof::FunctionInstrInfo &IA = A.Instr.Functions[F];
    const prof::FunctionInstrInfo &IB = B.Instr.Functions[F];
    EXPECT_EQ(IA.Instrumented, IB.Instrumented) << "function " << F;
    EXPECT_EQ(IA.NumPaths, IB.NumPaths) << "function " << F;
    EXPECT_EQ(IA.Hashed, IB.Hashed) << "function " << F;
    EXPECT_EQ(IA.TableAddr, IB.TableAddr) << "function " << F;
    EXPECT_EQ(IA.Stride, IB.Stride) << "function " << F;
    EXPECT_EQ(IA.KIters, IB.KIters) << "function " << F;
    EXPECT_EQ(IA.KPaths != nullptr, IB.KPaths != nullptr) << "function " << F;
    EXPECT_EQ(IA.EdgeTableAddr, IB.EdgeTableAddr) << "function " << F;
    EXPECT_EQ(IA.ChordEdges, IB.ChordEdges) << "function " << F;
    EXPECT_EQ(IA.NumSites, IB.NumSites) << "function " << F;
    EXPECT_EQ(IA.SiteIsIndirect, IB.SiteIsIndirect) << "function " << F;
  }
}

/// The run-cache entry of \p Run, filed under \p Plan's identity with
/// \p Fingerprint.
std::vector<uint8_t> entryOf(const RunPlan &Plan, const prof::RunOutcome &Run,
                             const std::string &Fingerprint) {
  RunKey Key = RunKey::of(Plan);
  return profdb::encodeRunEntry(Run, Fingerprint, Key.Workload, Key.Scale,
                                Key.Schema);
}

/// The on-disk cache file \p Plan is stored under in \p Dir.
std::string entryPath(const std::string &Dir, const RunPlan &Plan) {
  return Dir + "/" + RunKey::of(Plan).fileStem() + ".ppo";
}

std::string makeTempDir() {
  char Template[] = "/tmp/pp-driver-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : "";
}

TEST(RunKeyTest, FingerprintSeparatesPlans) {
  RunKey Base = RunKey::of(makePlan("124.m88ksim", prof::Mode::FlowHw));
  EXPECT_TRUE(Base.Cacheable);

  EXPECT_NE(Base.Fingerprint,
            RunKey::of(makePlan("124.m88ksim", prof::Mode::ContextFlow))
                .Fingerprint);
  EXPECT_NE(Base.Fingerprint,
            RunKey::of(makePlan("099.go", prof::Mode::FlowHw)).Fingerprint);
  EXPECT_NE(
      Base.Fingerprint,
      RunKey::of(makePlan("124.m88ksim", prof::Mode::FlowHw, 2)).Fingerprint);

  RunPlan Tweaked = makePlan("124.m88ksim", prof::Mode::FlowHw);
  Tweaked.Options.MachineCfg.DCache.Associativity *= 2;
  EXPECT_NE(Base.Fingerprint, RunKey::of(Tweaked).Fingerprint);

  EXPECT_EQ(Base.Fingerprint,
            RunKey::of(makePlan("124.m88ksim", prof::Mode::FlowHw))
                .Fingerprint);
}

TEST(RunKeyTest, EnginesShareOneRunIdentity) {
  // The engines are proven bit-identical (EngineEquivalenceTest), so the
  // engine is not a run dimension: a Reference plan and a Threaded plan
  // of the same workload share one fingerprint and fold onto one run.
  obs::resetForTesting();
  RunPlan Ref = makePlan("124.m88ksim", prof::Mode::FlowHw);
  Ref.Options.Engine = vm::Engine::Reference;
  RunPlan Thr = makePlan("124.m88ksim", prof::Mode::FlowHw);
  Thr.Options.Engine = vm::Engine::Threaded;
  std::string Fingerprint = RunKey::of(Ref).Fingerprint;
  EXPECT_EQ(Fingerprint.rfind("v3;", 0), 0u) << Fingerprint;
  EXPECT_EQ(Fingerprint, RunKey::of(Thr).Fingerprint);

  Driver D(/*DiskDir=*/"", /*Threads=*/2);
  size_t A = D.submit(std::move(Ref));
  size_t B = D.submit(std::move(Thr));
  OutcomePtr OA = D.get(A), OB = D.get(B);
  ASSERT_TRUE(OA && OA->Result.Ok);
  EXPECT_EQ(OA.get(), OB.get());
  EXPECT_EQ(obs::counterValue(obs::Counter::SchedulerFolded), 1u);
  EXPECT_EQ(D.scheduler().runsExecuted(), 1u);
}

TEST(RunKeyTest, OptVariantDimensionIsAppendOnly) {
  // Baseline plans carry no ;opt= dimension at all, so every
  // pre-optimizer fingerprint (and its cache file) is byte-identical to
  // what it always was; tagged plans get their own cache identity.
  RunPlan Base = makePlan("124.m88ksim", prof::Mode::None);
  EXPECT_EQ(RunKey::of(Base).Fingerprint.find(";opt="), std::string::npos);

  RunPlan Tagged = makePlan("124.m88ksim", prof::Mode::None);
  Tagged.OptVariant = "layout+superblock+inline";
  EXPECT_NE(RunKey::of(Tagged).Fingerprint.find(";opt=layout+superblock+inline"),
            std::string::npos);
  EXPECT_NE(RunKey::of(Base).Fingerprint, RunKey::of(Tagged).Fingerprint);

  RunPlan Other = makePlan("124.m88ksim", prof::Mode::None);
  Other.OptVariant = "layout";
  EXPECT_NE(RunKey::of(Other).Fingerprint, RunKey::of(Tagged).Fingerprint);
}

TEST(RunKeyTest, KDimensionIsAppendOnly) {
  // Classic k = 1 plans carry no ;k= dimension at all, so every
  // pre-k-BL fingerprint (and its cache file) is byte-identical to what
  // it always was; multi-iteration plans get their own cache identity.
  RunPlan Base = makePlan("124.m88ksim", prof::Mode::FlowHw);
  ASSERT_EQ(Base.Options.Config.K, 1u);
  EXPECT_EQ(RunKey::of(Base).Fingerprint.find(";k="), std::string::npos);

  RunPlan K2 = makePlan("124.m88ksim", prof::Mode::FlowHw);
  K2.Options.Config.K = 2;
  EXPECT_NE(RunKey::of(K2).Fingerprint.find(";k=2"), std::string::npos);
  EXPECT_NE(RunKey::of(Base).Fingerprint, RunKey::of(K2).Fingerprint);

  RunPlan K3 = makePlan("124.m88ksim", prof::Mode::FlowHw);
  K3.Options.Config.K = 3;
  EXPECT_NE(RunKey::of(K2).Fingerprint, RunKey::of(K3).Fingerprint);
}

TEST(RunKeyTest, PredicatePlansAreUncacheable) {
  RunPlan Plan = makePlan("124.m88ksim", prof::Mode::FlowHw);
  Plan.Options.Config.ShouldInstrument = [](const ir::Function &) {
    return true;
  };
  EXPECT_FALSE(RunKey::of(Plan).Cacheable);
}

TEST(DriverTest, MemoizedRunEqualsFreshRun) {
  Driver Memoized(/*DiskDir=*/"", /*Threads=*/2);
  OutcomePtr First =
      Memoized.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  ASSERT_TRUE(First && First->Result.Ok);
  OutcomePtr Second =
      Memoized.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  // The repeat folds onto the first submission: literally the same
  // object.
  EXPECT_EQ(First.get(), Second.get());
  EXPECT_EQ(Memoized.scheduler().runsExecuted(), 1u);

  // And it equals a run from a driver that has never seen the plan.
  Driver Fresh(/*DiskDir=*/"", /*Threads=*/1);
  OutcomePtr Clean =
      Fresh.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  ASSERT_TRUE(Clean && Clean->Result.Ok);
  expectOutcomesEqual(*Clean, *First);
}

TEST(DriverTest, ParallelMatchesSerial) {
  const char *Workloads[] = {"124.m88ksim", "130.li", "107.mgrid"};
  const prof::Mode Modes[] = {prof::Mode::None, prof::Mode::FlowHw,
                              prof::Mode::ContextFlow};

  Driver Parallel(/*DiskDir=*/"", /*Threads=*/4);
  Driver Serial(/*DiskDir=*/"", /*Threads=*/0);
  ASSERT_EQ(Parallel.scheduler().numThreads(), 4u);
  ASSERT_EQ(Serial.scheduler().numThreads(), 0u);

  std::vector<size_t> ParallelTickets, SerialTickets;
  for (const char *Workload : Workloads)
    for (prof::Mode M : Modes) {
      ParallelTickets.push_back(Parallel.submit(makePlan(Workload, M)));
      SerialTickets.push_back(Serial.submit(makePlan(Workload, M)));
    }
  for (size_t Index = 0; Index != ParallelTickets.size(); ++Index) {
    OutcomePtr P = Parallel.get(ParallelTickets[Index]);
    OutcomePtr S = Serial.get(SerialTickets[Index]);
    ASSERT_TRUE(P && S);
    expectOutcomesEqual(*S, *P);
  }
}

TEST(DriverTest, DuplicateSubmissionsFoldOntoOneExecution) {
  Driver D(/*DiskDir=*/"", /*Threads=*/2);
  size_t A = D.submit(makePlan("130.li", prof::Mode::FlowHw));
  size_t B = D.submit(makePlan("130.li", prof::Mode::FlowHw));
  EXPECT_NE(A, B);
  OutcomePtr OA = D.get(A), OB = D.get(B);
  EXPECT_EQ(OA.get(), OB.get());
  EXPECT_EQ(D.scheduler().runsExecuted(), 1u);
}

TEST(DriverTest, UncacheablePlansRunEveryTime) {
  Driver D(/*DiskDir=*/"", /*Threads=*/2);
  RunPlan Plan = makePlan("130.li", prof::Mode::None);
  Plan.Cacheable = false;
  size_t A = D.submit(Plan);
  size_t B = D.submit(Plan);
  OutcomePtr OA = D.get(A), OB = D.get(B);
  ASSERT_TRUE(OA && OB);
  EXPECT_NE(OA.get(), OB.get());
  EXPECT_EQ(D.scheduler().runsExecuted(), 2u);
  expectOutcomesEqual(*OA, *OB);
}

TEST(DriverTest, DiskCacheRoundTripsAcrossDrivers) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  OutcomePtr Stored;
  {
    Driver Writer(Dir, /*Threads=*/2);
    Stored = Writer.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
    ASSERT_TRUE(Stored && Stored->Result.Ok);
    EXPECT_EQ(Writer.cache().stats().Stores, 1u);
  }

  Driver Reader(Dir, /*Threads=*/2);
  OutcomePtr Restored =
      Reader.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  ASSERT_TRUE(Restored && Restored->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 0u);
  EXPECT_EQ(Reader.cache().stats().DiskHits, 1u);
  // Restored outcomes drop the instrumented module, nothing else.
  EXPECT_EQ(Restored->Instr.M, nullptr);
  expectOutcomesEqual(*Stored, *Restored);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(DriverTest, DepositsAreEncodedFromTheOutcome) {
  // A deposit is the run's artifact, written from its outcome: the fresh
  // run builds its module once, to execute it, and a later driver's disk
  // hit builds none. Both deposits are the bytes the repository's codec
  // gives the same run.
  std::string Root = makeTempDir();
  ASSERT_FALSE(Root.empty());
  std::atomic<unsigned> Builds{0};
  RunPlan Plan = makePlan("130.li", prof::Mode::ContextFlowHw);
  Plan.Build = [&Builds] {
    ++Builds;
    return workloads::buildWorkload("130.li", 1);
  };
  std::string CacheDir = Root + "/cache";
  std::string FreshOut = Root + "/fresh", HitOut = Root + "/hit";

  OutcomePtr Fresh;
  {
    Driver D(CacheDir, /*Threads=*/2);
    D.scheduler().setProfileOutDir(FreshOut);
    Fresh = D.run(Plan);
    ASSERT_TRUE(Fresh && Fresh->Result.Ok);
    EXPECT_EQ(D.scheduler().runsExecuted(), 1u);
  }
  EXPECT_EQ(Builds.load(), 1u);

  {
    Driver D(CacheDir, /*Threads=*/2);
    D.scheduler().setProfileOutDir(HitOut);
    OutcomePtr Hit = D.run(Plan);
    ASSERT_TRUE(Hit && Hit->Result.Ok);
    EXPECT_EQ(D.cache().stats().DiskHits, 1u);
    EXPECT_EQ(D.scheduler().runsExecuted(), 0u);
  }
  EXPECT_EQ(Builds.load(), 1u);

  RunKey Key = RunKey::of(Plan);
  std::unique_ptr<ir::Module> M = workloads::buildWorkload("130.li", 1);
  std::vector<uint8_t> Want = profdb::encodeArtifact(
      profdb::artifactFromOutcome(*Fresh, *M, Key.Fingerprint, Plan.Workload,
                                  1, Plan.Options.Config));
  for (const std::string &Dir : {FreshOut, HitOut}) {
    std::vector<uint8_t> Bytes;
    ASSERT_TRUE(profdb::readFile(
        Dir + "/" + profdb::artifactFileName(Key.Fingerprint), Bytes))
        << Dir;
    EXPECT_EQ(Bytes, Want) << Dir;
  }

  std::string Cmd = "rm -rf " + Root;
  (void)std::system(Cmd.c_str());
}

TEST(RunEntryTest, RejectsMismatchedFingerprint) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::Flow);
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);

  std::vector<uint8_t> Bytes = entryOf(Plan, *Run, "fingerprint-a");
  prof::RunOutcome Out;
  EXPECT_EQ(profdb::decodeRunEntry(Bytes, "fingerprint-b", Out),
            DecodeStatus::FingerprintMismatch);
  prof::RunOutcome Back;
  ASSERT_EQ(profdb::decodeRunEntry(Bytes, "fingerprint-a", Back),
            DecodeStatus::Ok);
  expectOutcomesEqual(*Run, Back);
}

TEST(RunEntryTest, KItersSurviveTheCacheTrip) {
  // A k = 2 outcome restored from the run cache must still know its
  // windows span two iterations — per function (the ladder level) and in
  // the instrumentation info — or the renderers would decode window ids
  // against the wrong numbering.
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::Flow);
  Plan.Options.Config.K = 2;
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);

  std::vector<uint8_t> Bytes = entryOf(Plan, *Run, "fp-k2");
  prof::RunOutcome Out;
  ASSERT_EQ(profdb::decodeRunEntry(Bytes, "fp-k2", Out), DecodeStatus::Ok);
  expectOutcomesEqual(*Run, Out);

  bool SawMultiIteration = false;
  ASSERT_EQ(Out.PathProfiles.size(), Run->PathProfiles.size());
  for (size_t I = 0; I != Out.PathProfiles.size(); ++I)
    EXPECT_EQ(Out.PathProfiles[I].KIters, Run->PathProfiles[I].KIters);
  ASSERT_EQ(Out.Instr.Functions.size(), Run->Instr.Functions.size());
  for (size_t I = 0; I != Out.Instr.Functions.size(); ++I) {
    EXPECT_EQ(Out.Instr.Functions[I].KIters, Run->Instr.Functions[I].KIters);
    SawMultiIteration |= Out.Instr.Functions[I].KIters > 1;
  }
  EXPECT_TRUE(SawMultiIteration);
}

TEST(RunEntryTest, RejectsMismatchedVersion) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::Flow);
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);

  // A future format bump leaves old files behind; they must be rejected
  // as BadVersion (and re-executed), not misparsed. The version gate
  // fires before the checksum, so even a checksum-consistent file of
  // another version is refused — and so is an older artifact version,
  // which the repository would still read but a cache entry may not be.
  std::vector<uint8_t> Bytes = entryOf(Plan, *Run, "fp");
  for (uint8_t Version : {1, 2, 3, 5}) {
    std::vector<uint8_t> Stale = Bytes;
    Stale[8] = Version; // version field, little-endian low byte
    prof::RunOutcome Out;
    EXPECT_EQ(profdb::decodeRunEntry(Stale, "fp", Out),
              DecodeStatus::BadVersion)
        << "version " << unsigned(Version);
  }
}

TEST(RunEntryTest, RoundTripPreservesEveryOutcomeField) {
  // One outcome that exercises every field: path tables from a Flow run,
  // edge counts from an Edge run, a tree from a Context+Flow run, and
  // non-default result and acquisition values.
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  OutcomePtr Flow = D.run(makePlan("130.li", prof::Mode::FlowHw));
  OutcomePtr Edge = D.run(makePlan("130.li", prof::Mode::Edge));
  OutcomePtr Context = D.run(makePlan("130.li", prof::Mode::ContextFlow));
  ASSERT_TRUE(Flow && Flow->Result.Ok && Edge && Edge->Result.Ok &&
              Context && Context->Tree);
  ASSERT_FALSE(Flow->PathProfiles.empty());
  ASSERT_FALSE(Edge->EdgeProfiles.empty());

  prof::RunOutcome Run;
  Run.Result = Flow->Result;
  Run.Result.ExitValue = 42;
  Run.Result.Error = "kept verbatim";
  Run.Functions = Flow->Functions;
  Run.Totals = Flow->Totals;
  Run.PathProfiles = Flow->PathProfiles;
  Run.EdgeProfiles = Edge->EdgeProfiles;
  Run.Tree = cct::copyTree(*Context->Tree);
  Run.Acq = {1, 2, 3, 4};
  // Call sites from the context run, chords from the edge run, path
  // tables from the flow run.
  Run.Instr.Functions = Context->Instr.Functions;
  for (size_t I = 0; I != Run.Instr.Functions.size(); ++I) {
    prof::FunctionInstrInfo &Info = Run.Instr.Functions[I];
    const prof::FunctionInstrInfo &Paths = Flow->Instr.Functions[I];
    Info.ChordEdges = Edge->Instr.Functions[I].ChordEdges;
    Info.EdgeTableAddr = Edge->Instr.Functions[I].EdgeTableAddr;
    Info.HasPathProfile = Paths.HasPathProfile;
    Info.NumPaths = Paths.NumPaths;
    Info.Hashed = Paths.Hashed;
    Info.TableAddr = Paths.TableAddr;
    Info.Stride = Paths.Stride;
  }

  prof::RunOutcome Back;
  ASSERT_EQ(profdb::decodeRunEntry(entryOf(makePlan("130.li",
                                                    prof::Mode::FlowHw),
                                           Run, "fp"),
                                   "fp", Back),
            DecodeStatus::Ok);
  EXPECT_EQ(Back.Instr.M, nullptr);
  for (const prof::FunctionInstrInfo &Info : Back.Instr.Functions)
    EXPECT_EQ(Info.F, nullptr);
  expectEveryFieldEqual(Run, Back);
}

TEST(RunEntryTest, EntryIsAnArtifactWithARunSection) {
  // One codec: an entry decodes as a plain artifact carrying the run's
  // profile, and its bytes start with exactly the artifact the profile
  // repository would store for the same run.
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::ContextFlowHw);
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok && Run->Instr.M);

  std::vector<uint8_t> Entry = entryOf(Plan, *Run, "fp");
  profdb::Artifact A;
  ASSERT_EQ(profdb::decodeArtifact(Entry, A), DecodeStatus::Ok);
  EXPECT_EQ(A.Fingerprint, "fp");
  EXPECT_EQ(A.Workload, "130.li");
  EXPECT_EQ(A.Schema, RunKey::of(Plan).Schema);
  EXPECT_EQ(A.Totals, Run->Totals);
  EXPECT_EQ(A.Functions.size(), Run->Instr.M->numFunctions());
  ASSERT_TRUE(A.Tree);
  expectTreesEqual(*Run->Tree, *A.Tree);

  std::vector<uint8_t> Plain = profdb::encodeArtifact(
      profdb::artifactFromOutcome(*Run, *Run->Instr.M, "fp", "130.li", 1,
                                  Plan.Options.Config));
  size_t Shared = Plain.size() - 5; // the has-run flag and the trailer
  ASSERT_GT(Entry.size(), Plain.size());
  EXPECT_TRUE(std::equal(Plain.begin(), Plain.begin() + Shared,
                         Entry.begin()));

  // A plain artifact is not a cache entry: it has no run to restore.
  prof::RunOutcome Out;
  EXPECT_EQ(profdb::decodeRunEntry(Plain, "fp", Out), DecodeStatus::Malformed);
}

TEST(DriverTest, StaleVersionFileOnDiskIsReplacedByReexecution) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  {
    Driver Writer(Dir, /*Threads=*/1);
    OutcomePtr Run = Writer.run(makePlan("130.li", prof::Mode::Flow));
    ASSERT_TRUE(Run && Run->Result.Ok);
  }

  // Regress the version field of the file on disk, as if a format bump
  // left an old cache directory behind.
  std::string FindCmd = "ls " + Dir + "/*.ppo";
  FILE *Pipe = popen(FindCmd.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  char PathBuf[256] = {};
  ASSERT_NE(std::fgets(PathBuf, sizeof(PathBuf), Pipe), nullptr);
  pclose(Pipe);
  std::string Path(PathBuf);
  while (!Path.empty() && Path.back() == '\n')
    Path.pop_back();
  {
    std::FILE *File = std::fopen(Path.c_str(), "r+b");
    ASSERT_NE(File, nullptr);
    std::fseek(File, 8, SEEK_SET);
    std::fputc(1, File); // version 1
    std::fclose(File);
  }

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Run = Reader.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(Run && Run->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 1u);
  RunCache::Stats Stats = Reader.cache().stats();
  EXPECT_EQ(Stats.DiskHits, 0u);
  EXPECT_EQ(Stats.DecodeFailures, 1u);
  EXPECT_EQ(Stats.DecodeFailuresBy[static_cast<unsigned>(
                DecodeStatus::BadVersion)],
            1u);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(DriverTest, UnwritableCacheDirDegradesToUncached) {
  // A cache "directory" that is actually a file: mkdir and every write
  // under it fail unconditionally (even for root, where a read-only
  // directory would not).
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  std::string NotADir = Dir + "/cache";
  { std::fclose(std::fopen(NotADir.c_str(), "w")); }

  {
    Driver D(NotADir, /*Threads=*/1);
    OutcomePtr Run = D.run(makePlan("130.li", prof::Mode::Flow));
    // The run still succeeds; only the persistence degraded.
    ASSERT_TRUE(Run && Run->Result.Ok);
    EXPECT_EQ(D.cache().stats().WriteFailures, 1u);
    // The scheduler's duplicate folding still memoizes.
    OutcomePtr Again = D.run(makePlan("130.li", prof::Mode::Flow));
    EXPECT_EQ(Run.get(), Again.get());
    EXPECT_EQ(D.scheduler().runsExecuted(), 1u);
  }

  // Nothing was persisted: a fresh driver re-executes.
  Driver Fresh(NotADir, /*Threads=*/1);
  OutcomePtr Rerun = Fresh.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(Rerun && Rerun->Result.Ok);
  EXPECT_EQ(Fresh.scheduler().runsExecuted(), 1u);
  EXPECT_EQ(Fresh.cache().stats().DiskHits, 0u);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(SchedulerTest, NonNumericThreadsEnvKeepsParallelDefault) {
  setenv("PP_DRIVER_THREADS", "max", 1);
  // A typo must warn and keep the hardware default, not silently fall to
  // serial (atol("max") == 0).
  EXPECT_GE(RunScheduler::defaultWorkerThreads(), 4u);
  setenv("PP_DRIVER_THREADS", "2", 1);
  EXPECT_EQ(RunScheduler::defaultWorkerThreads(), 2u);
  setenv("PP_DRIVER_THREADS", "0", 1);
  EXPECT_EQ(RunScheduler::defaultWorkerThreads(), 0u);
  unsetenv("PP_DRIVER_THREADS");
}

TEST(RunEntryTest, RejectsTruncatedBytes) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::ContextFlow);
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);

  std::vector<uint8_t> Bytes = entryOf(Plan, *Run, "fp");
  for (size_t Cut : {size_t(0), size_t(7), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    prof::RunOutcome Out;
    EXPECT_NE(profdb::decodeRunEntry(Truncated, "fp", Out), DecodeStatus::Ok)
        << "accepted " << Cut << " bytes";
  }
}

TEST(DriverTest, NestedCacheDirIsCreated) {
  // PP_RUN_CACHE_DIR may name a directory whose parents do not exist
  // yet; the store creates them (mkdir -p) instead of silently degrading
  // to memory-only caching.
  std::string Root = makeTempDir();
  ASSERT_FALSE(Root.empty());
  std::string Dir = Root + "/nest/a/b";
  {
    Driver Writer(Dir, /*Threads=*/1);
    OutcomePtr Run = Writer.run(makePlan("130.li", prof::Mode::FlowHw));
    ASSERT_TRUE(Run && Run->Result.Ok);
    EXPECT_EQ(Writer.cache().stats().WriteFailures, 0u);
  }
  EXPECT_EQ(::access(entryPath(Dir, makePlan("130.li", prof::Mode::FlowHw))
                         .c_str(),
                     F_OK),
            0);

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Run = Reader.run(makePlan("130.li", prof::Mode::FlowHw));
  ASSERT_TRUE(Run && Run->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 0u);
  RunCache::Stats Stats = Reader.cache().stats();
  EXPECT_EQ(Stats.DiskHits, 1u);
  EXPECT_EQ(Stats.Misses, 0u);

  std::string Cmd = "rm -rf " + Root;
  (void)std::system(Cmd.c_str());
}

TEST(DriverTest, LegacyPproFileIsBadMagicAndHeals) {
  // A cache directory written before entries became artifacts holds PPRO
  // files under the same names. They read as bad-magic, are removed, and
  // the run re-executes and stores an entry the next driver hits.
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  RunPlan Plan = makePlan("130.li", prof::Mode::Flow);
  {
    std::vector<uint8_t> Legacy = {'O', 'R', 'P', 'P', 0, 0, 0, 0,
                                   4,   0,   0,   0,   0, 0, 0, 0};
    Legacy.resize(64, 0);
    std::ofstream File(entryPath(Dir, Plan), std::ios::binary);
    File.write(reinterpret_cast<const char *>(Legacy.data()),
               static_cast<std::streamsize>(Legacy.size()));
  }

  {
    Driver Healer(Dir, /*Threads=*/1);
    OutcomePtr Run = Healer.run(Plan);
    ASSERT_TRUE(Run && Run->Result.Ok);
    EXPECT_EQ(Healer.scheduler().runsExecuted(), 1u);
    RunCache::Stats Stats = Healer.cache().stats();
    EXPECT_EQ(Stats.DecodeFailures, 1u);
    EXPECT_EQ(Stats.DecodeFailuresBy[static_cast<unsigned>(
                  DecodeStatus::BadMagic)],
              1u);
    EXPECT_EQ(Stats.Stores, 1u);
  }

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Run = Reader.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 0u);
  EXPECT_EQ(Reader.cache().stats().DiskHits, 1u);
  EXPECT_EQ(Reader.cache().stats().DecodeFailures, 0u);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(DriverTest, RestoredTreeSerializesToTheLiveBytes) {
  // The tree bytes are canonical: a tree restored from the disk cache
  // writes exactly the live tree's bytes, slots and addresses included,
  // although the two filled their path tables in different orders.
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  RunPlan Plan = makePlan("124.m88ksim", prof::Mode::ContextFlow);
  OutcomePtr Live;
  {
    Driver Writer(Dir, /*Threads=*/1);
    Live = Writer.run(Plan);
  }
  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Restored = Reader.run(Plan);
  ASSERT_TRUE(Live && Live->Tree && Restored && Restored->Tree);
  ASSERT_EQ(Reader.cache().stats().DiskHits, 1u);
  expectTreesEqual(*Live->Tree, *Restored->Tree);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(CctTreeBytesTest, CopyWritesTheBytesOfEveryWorkloadsTree) {
  // A deep copy is write-then-read: for every tree the suite builds, the
  // copy writes the original's bytes and keeps its statistics.
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite())
    for (prof::Mode M : {prof::Mode::ContextHw, prof::Mode::ContextFlowHw}) {
      SCOPED_TRACE(Spec.Name + " " + prof::modeName(M));
      OutcomePtr Run = D.run(makePlan(Spec.Name, M));
      ASSERT_TRUE(Run && Run->Result.Ok && Run->Tree);
      std::unique_ptr<cct::CallingContextTree> Copy =
          cct::copyTree(*Run->Tree);
      ASSERT_TRUE(Copy);
      expectTreesEqual(*Run->Tree, *Copy);

      cct::CctStats A = Run->Tree->computeStats();
      cct::CctStats B = Copy->computeStats();
      EXPECT_EQ(A.NumRecords, B.NumRecords);
      EXPECT_EQ(A.TotalBytes, B.TotalBytes);
      EXPECT_EQ(A.RecordBytes, B.RecordBytes);
      EXPECT_EQ(A.AvgOutDegree, B.AvgOutDegree);
      EXPECT_EQ(A.AvgLeafDepth, B.AvgLeafDepth);
      EXPECT_EQ(A.MaxDepth, B.MaxDepth);
      EXPECT_EQ(A.MaxReplication, B.MaxReplication);
      EXPECT_EQ(A.MaxReplicationProc, B.MaxReplicationProc);
      EXPECT_EQ(A.TotalSlots, B.TotalSlots);
      EXPECT_EQ(A.UsedSlots, B.UsedSlots);
      EXPECT_EQ(A.BackedgeSlots, B.BackedgeSlots);
      EXPECT_EQ(Run->Tree->heapBytes(), Copy->heapBytes());
    }
}

TEST(CctTreeBytesTest, ContextFlowTreesHoldAscendingCellsAndRoundTrip) {
  // Every Context+Flow tree a reader sees holds its path cells ascending
  // by sum, the order of the tree bytes: the tree extracted from the live
  // run, the tree read back from its bytes (which writes the same bytes
  // again), and the tree a fold emits.
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  int64_t LiveCells = 0;
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite()) {
    SCOPED_TRACE(Spec.Name);
    RunPlan Plan = makePlan(Spec.Name, prof::Mode::ContextFlowHw);
    OutcomePtr Run = D.run(Plan);
    ASSERT_TRUE(Run && Run->Result.Ok && Run->Tree);
    int64_t Cells = ascendingCells(*Run->Tree);
    EXPECT_GE(Cells, 0);
    LiveCells += Cells;

    std::vector<uint8_t> Bytes = treeBytes(*Run->Tree);
    ByteReader R(Bytes.data(), Bytes.size());
    std::unique_ptr<cct::CallingContextTree> Read;
    ASSERT_EQ(cct::readTree(R, Read), DecodeStatus::Ok);
    EXPECT_TRUE(R.atEnd());
    EXPECT_EQ(ascendingCells(*Read), Cells);
    EXPECT_TRUE(treeBytes(*Read) == Bytes);

    std::vector<uint8_t> Encoded = profdb::encodeRunArtifact(
        *Run, "cells", Spec.Name, 1,
        profdb::MetricSchema::of(Plan.Options.Config));
    profdb::Artifact A, B, Merged;
    ASSERT_EQ(profdb::decodeArtifact(Encoded, A), DecodeStatus::Ok);
    ASSERT_EQ(profdb::decodeArtifact(Encoded, B), DecodeStatus::Ok);
    B.Fingerprint += ";replica=1";
    std::string Error;
    ASSERT_TRUE(profdb::mergeArtifacts(A, B, Merged, Error)) << Error;
    ASSERT_TRUE(Merged.Tree);
    EXPECT_EQ(ascendingCells(*Merged.Tree), Cells);
  }
  EXPECT_GT(LiveCells, 0);
}

} // namespace
