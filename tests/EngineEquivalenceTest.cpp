//===- tests/EngineEquivalenceTest.cpp - reference vs threaded engine ---------===//
//
// The differential layer behind the two-engine VM: every observable a run
// produces — RunResult (including error strings), ground-truth counter
// totals, path profiles, reconstructed edge profiles, and the serialized
// CCT — must be bit-identical between the reference interpreter and the
// predecoded threaded engine, for every profiling mode, over a wide sweep
// of random programs that exercise recursion, indirect calls, switches,
// the FP scoreboard, setjmp/longjmp unwinding, and signal delivery.
//
// The threaded engine's fast paths — cmp+branch and flowhw path-commit
// superinstructions, and same-line fetches that skip the I-cache probe —
// are only predecoded when no signal or trap handler is installed, so
// the sweep runs once with signals and once without, and the
// EngineFastPaths tests aim at their edges: a budget that trips inside a
// fused commit, overflow traps, and I-cache geometries.
//
// $PP_ENGINE_EQ_SEEDS widens the sweep (default: 64 seeds).
//
//===----------------------------------------------------------------------===//

#include "cct/Export.h"
#include "ir/Parser.h"
#include "prof/Oracle.h"
#include "prof/Session.h"
#include "vm/Predecoder.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

using namespace pp;
using prof::Mode;

namespace {

constexpr Mode AllModes[] = {Mode::None,      Mode::Edge,
                             Mode::Flow,      Mode::FlowHw,
                             Mode::Context,   Mode::ContextHw,
                             Mode::ContextFlow, Mode::ContextFlowHw};

testutil::RandomProgramOptions fullCoverage() {
  testutil::RandomProgramOptions Opts;
  Opts.WithFp = true;
  Opts.WithSetjmp = true;
  Opts.WithSignalHandler = true;
  return Opts;
}

/// Asserts that two runs are observably identical, bit for bit.
void expectSameOutcome(const prof::RunOutcome &Ref, const prof::RunOutcome &Thr,
                       const std::string &Label) {
  EXPECT_EQ(Ref.Result.Ok, Thr.Result.Ok) << Label;
  EXPECT_EQ(Ref.Result.Error, Thr.Result.Error) << Label;
  EXPECT_EQ(Ref.Result.ExitValue, Thr.Result.ExitValue) << Label;
  EXPECT_EQ(Ref.Result.ExecutedInsts, Thr.Result.ExecutedInsts) << Label;

  // Ground-truth event totals: every cycle, miss, stall, and mispredict.
  for (unsigned E = 0; E != hw::NumEvents; ++E)
    EXPECT_EQ(Ref.Totals[E], Thr.Totals[E])
        << Label << " event " << hw::eventName(static_cast<hw::Event>(E));

  // Path profiles, including the per-path hardware metrics.
  ASSERT_EQ(Ref.PathProfiles.size(), Thr.PathProfiles.size()) << Label;
  for (size_t Id = 0; Id != Ref.PathProfiles.size(); ++Id) {
    const prof::FunctionPathProfile &A = Ref.PathProfiles[Id];
    const prof::FunctionPathProfile &B = Thr.PathProfiles[Id];
    EXPECT_EQ(A.FuncId, B.FuncId) << Label;
    EXPECT_EQ(A.HasProfile, B.HasProfile) << Label;
    EXPECT_EQ(A.NumPaths, B.NumPaths) << Label;
    EXPECT_EQ(A.Hashed, B.Hashed) << Label;
    ASSERT_EQ(A.Paths.size(), B.Paths.size()) << Label << " func " << Id;
    for (size_t P = 0; P != A.Paths.size(); ++P) {
      EXPECT_EQ(A.Paths[P].PathSum, B.Paths[P].PathSum) << Label;
      EXPECT_EQ(A.Paths[P].Freq, B.Paths[P].Freq) << Label;
      EXPECT_EQ(A.Paths[P].Metric0, B.Paths[P].Metric0) << Label;
      EXPECT_EQ(A.Paths[P].Metric1, B.Paths[P].Metric1) << Label;
    }
  }

  // Edge profiles reconstructed from chord counters.
  ASSERT_EQ(Ref.EdgeProfiles.size(), Thr.EdgeProfiles.size()) << Label;
  for (size_t Id = 0; Id != Ref.EdgeProfiles.size(); ++Id) {
    EXPECT_EQ(Ref.EdgeProfiles[Id].HasProfile, Thr.EdgeProfiles[Id].HasProfile)
        << Label;
    EXPECT_EQ(Ref.EdgeProfiles[Id].EdgeCounts, Thr.EdgeProfiles[Id].EdgeCounts)
        << Label << " func " << Id;
    EXPECT_EQ(Ref.EdgeProfiles[Id].Invocations,
              Thr.EdgeProfiles[Id].Invocations)
        << Label;
  }

  // The CCT, compared through both export formats.
  ASSERT_EQ(static_cast<bool>(Ref.Tree), static_cast<bool>(Thr.Tree)) << Label;
  if (Ref.Tree) {
    EXPECT_EQ(cct::serialize(*Ref.Tree), cct::serialize(*Thr.Tree)) << Label;
    EXPECT_EQ(cct::exportDot(*Ref.Tree), cct::exportDot(*Thr.Tree)) << Label;
  }
}

/// Runs \p M under \p Options on both engines and expects identical
/// outcomes; returns the reference run.
prof::RunOutcome expectEnginesAgree(const ir::Module &M,
                                    prof::SessionOptions Options,
                                    const std::string &Label) {
  Options.Engine = vm::Engine::Reference;
  prof::RunOutcome Ref = prof::runProfile(M, Options);
  Options.Engine = vm::Engine::Threaded;
  prof::RunOutcome Thr = prof::runProfile(M, Options);
  expectSameOutcome(Ref, Thr, Label);
  return Ref;
}

/// Number of fused flowhw path commits the threaded engine ran in \p Out:
/// an array-mode flowhw function's every commit is the fused 14-slot
/// sequence, so each path execution it counted was one.
uint64_t fusedCommitsRun(const prof::RunOutcome &Out) {
  vm::Predecoder Decoded(*Out.Instr.M, nullptr, /*FastPaths=*/true,
                         hw::icacheDefault().LineBytes);
  uint64_t Runs = 0;
  for (const prof::FunctionPathProfile &P : Out.PathProfiles) {
    const vm::DecodedFunction &DF = Decoded.function(P.FuncId);
    bool Fused = std::any_of(DF.Stream.begin(), DF.Stream.end(),
                             [](const vm::DecodedInst &D) {
                               return D.Op == vm::DOp::PathCommitHw;
                             });
    if (!Fused || P.Hashed)
      continue;
    for (const prof::PathEntry &E : P.Paths)
      Runs += E.Freq;
  }
  return Runs;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

// The main sweep: one random program per seed, run under every profiling
// mode on both engines, with signals firing throughout.
TEST_P(EngineEquivalenceTest, AllModesBitIdentical) {
  auto M = testutil::makeRandomProgram(GetParam(), fullCoverage());

  for (Mode Md : AllModes) {
    prof::SessionOptions Options;
    Options.Config.M = Md;
    Options.SignalHandler = "sighandler";
    Options.SignalInterval = 97;

    Options.Engine = vm::Engine::Reference;
    prof::RunOutcome Ref = prof::runProfile(*M, Options);
    Options.Engine = vm::Engine::Threaded;
    prof::RunOutcome Thr = prof::runProfile(*M, Options);

    std::string Label = std::string("mode=") + prof::modeName(Md) + " seed=" +
                        std::to_string(GetParam());
    EXPECT_TRUE(Ref.Result.Ok) << Label << ": " << Ref.Result.Error;
    expectSameOutcome(Ref, Thr, Label);
  }
}

// The same sweep with no signal handler, so the threaded engine runs its
// fast paths: fused cmp+branch pairs, fused flowhw path commits and
// same-line fetches.
TEST_P(EngineEquivalenceTest, AllModesBitIdenticalWithoutHandlers) {
  auto M = testutil::makeRandomProgram(GetParam(), fullCoverage());
  for (Mode Md : AllModes) {
    prof::SessionOptions Options;
    Options.Config.M = Md;
    std::string Label = std::string("mode=") + prof::modeName(Md) + " seed=" +
                        std::to_string(GetParam());
    prof::RunOutcome Ref = expectEnginesAgree(*M, Options, Label);
    EXPECT_TRUE(Ref.Result.Ok) << Label << ": " << Ref.Result.Error;
  }
}

// Tracer parity at the Vm level: the oracle profiles built from tracer
// callbacks (path walks, edge counts, call counts) must match exactly —
// the callbacks fire in the same order with the same arguments.
TEST_P(EngineEquivalenceTest, OracleTracerParity) {
  auto M = testutil::makeRandomProgram(GetParam(), fullCoverage());

  auto RunWith = [&](vm::Engine E, prof::OracleProfiler &Oracle) {
    hw::Machine Machine;
    vm::Vm VM(*M, Machine);
    VM.setEngine(E);
    VM.setTracer(&Oracle);
    return VM.run();
  };

  prof::OracleProfiler RefOracle(*M), ThrOracle(*M);
  vm::RunResult Ref = RunWith(vm::Engine::Reference, RefOracle);
  vm::RunResult Thr = RunWith(vm::Engine::Threaded, ThrOracle);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  ASSERT_TRUE(Thr.Ok) << Thr.Error;
  EXPECT_EQ(Ref.ExitValue, Thr.ExitValue);
  EXPECT_EQ(Ref.ExecutedInsts, Thr.ExecutedInsts);

  for (size_t Id = 0; Id != M->numFunctions(); ++Id) {
    std::map<uint64_t, uint64_t> RefPaths(RefOracle.pathFreqs(Id).begin(),
                                          RefOracle.pathFreqs(Id).end());
    std::map<uint64_t, uint64_t> ThrPaths(ThrOracle.pathFreqs(Id).begin(),
                                          ThrOracle.pathFreqs(Id).end());
    EXPECT_EQ(RefPaths, ThrPaths) << "func " << Id;
    EXPECT_EQ(RefOracle.edgeCounts(Id), ThrOracle.edgeCounts(Id))
        << "func " << Id;
    EXPECT_EQ(RefOracle.callCount(Id), ThrOracle.callCount(Id))
        << "func " << Id;
  }
}

// Failure parity: a run that dies must die identically — same error
// string, same executed-instruction count at the point of death.
TEST_P(EngineEquivalenceTest, BudgetExhaustionIsIdentical) {
  auto M = testutil::makeRandomProgram(GetParam(), fullCoverage());

  auto RunWith = [&](vm::Engine E, uint64_t MaxInsts) {
    hw::Machine Machine;
    vm::Vm VM(*M, Machine);
    VM.setEngine(E);
    VM.setMaxInsts(MaxInsts);
    return VM.run();
  };

  // Probe the program's full length, then allow only half of it so the
  // budget trips mid-run on every seed.
  vm::RunResult Probe = RunWith(vm::Engine::Reference, uint64_t(1) << 34);
  ASSERT_TRUE(Probe.Ok) << Probe.Error;
  uint64_t Budget = Probe.ExecutedInsts / 2;
  ASSERT_GT(Budget, 0u);

  vm::RunResult Ref = RunWith(vm::Engine::Reference, Budget);
  vm::RunResult Thr = RunWith(vm::Engine::Threaded, Budget);
  EXPECT_EQ(Ref.Ok, Thr.Ok);
  EXPECT_EQ(Ref.Error, Thr.Error);
  EXPECT_EQ(Ref.ExecutedInsts, Thr.ExecutedInsts);
  EXPECT_FALSE(Ref.Ok);
  EXPECT_EQ(Ref.Error, "instruction budget exhausted (likely an infinite loop)");
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EngineEquivalenceTest,
    ::testing::Range<uint64_t>(
        0, testutil::seedCountFromEnv("PP_ENGINE_EQ_SEEDS", 64)));

// The no-handler leg is not vacuous: across the first seeds the flowhw
// runs execute fused path commits.
TEST(EngineFastPaths, SweepReachesFusedCommits) {
  uint64_t Fused = 0;
  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    auto M = testutil::makeRandomProgram(Seed, fullCoverage());
    prof::SessionOptions Options;
    Options.Config.M = Mode::FlowHw;
    Fused += fusedCommitsRun(prof::runProfile(*M, Options));
  }
  EXPECT_GT(Fused, 0u);
}

// A budget that trips at any of the 14 slots of a fused commit stops both
// engines on the same instruction, with the same error and the same
// counters: the sweep tries every budget up to the run's full length.
TEST(EngineFastPaths, BudgetTripsAtEveryOffsetOfAFusedCommit) {
  ir::ParseResult Parsed = ir::parseModule(R"(
global @table 64

func @main(0) regs=8 {
entry:
  mov r0, 0
  br @head
head:
  cmplt r1, r0, 3
  condbr r1, @body, @done
body:
  and r2, r0, 1
  condbr r2, @odd, @even
odd:
  load8 r3, [r2 + 268435456]
  add r4, r3, 1
  store8 [r2 + 268435456], r4
  br @latch
even:
  add r4, r0, 7
  br @latch
latch:
  add r0, r0, 1
  br @head
done:
  ret r0
}

main @main
)");
  ASSERT_TRUE(Parsed.M) << Parsed.Error;
  prof::SessionOptions Options;
  Options.Config.M = Mode::FlowHw;
  prof::RunOutcome Full = expectEnginesAgree(*Parsed.M, Options, "full run");
  ASSERT_TRUE(Full.Result.Ok) << Full.Result.Error;
  ASSERT_GT(fusedCommitsRun(Full), 0u);

  for (uint64_t Budget = 1; Budget <= Full.Result.ExecutedInsts; ++Budget) {
    Options.MaxInsts = Budget;
    prof::RunOutcome Ref = expectEnginesAgree(
        *Parsed.M, Options, "budget=" + std::to_string(Budget));
    EXPECT_EQ(Ref.Result.Ok, Budget == Full.Result.ExecutedInsts);
  }
}

namespace {

/// Records where and when each overflow trap fires, and re-arms.
class TrapLog : public vm::TrapHandler {
public:
  TrapLog(unsigned Pic, uint32_t Period) : Pic(Pic), Period(Period) {}
  void onOverflowTrap(vm::Vm &VM, uint64_t Pc) override {
    const hw::PerfCounters &C = VM.machine().counters();
    Log.push_back({Pc, C.total(hw::Event::Insts),
                   C.total(hw::Event::Cycles)});
    VM.machine().counters().armOverflowTrap(Pic, Period);
  }
  unsigned Pic;
  uint32_t Period;
  std::vector<std::array<uint64_t, 3>> Log;
};

} // namespace

// Overflow traps on a PIC routed to Insts or Cycles — the two totals the
// fetch count feeds — fire before the same instruction, at the same
// counts, on both engines; so do whole overflow-sampled runs.
TEST(EngineFastPaths, OverflowTrapsFireAtTheSameInstruction) {
  auto M = testutil::makeRandomProgram(3, fullCoverage());
  for (hw::Event Sampled : {hw::Event::Insts, hw::Event::Cycles}) {
    for (unsigned Pic : {0u, 1u}) {
      std::string Label = std::string("event=") + hw::eventName(Sampled) +
                          " pic=" + std::to_string(Pic);
      std::vector<std::array<uint64_t, 3>> Logs[2];
      for (vm::Engine E : {vm::Engine::Reference, vm::Engine::Threaded}) {
        hw::Machine Machine;
        Machine.counters().selectPicEvents(
            Pic == 0 ? Sampled : hw::Event::DCacheReadMiss,
            Pic == 1 ? Sampled : hw::Event::DCacheReadMiss);
        vm::Vm VM(*M, Machine);
        VM.setEngine(E);
        TrapLog Traps(Pic, 97);
        VM.setTrapHandler(&Traps);
        Machine.counters().armOverflowTrap(Pic, 97);
        vm::RunResult Result = VM.run();
        ASSERT_TRUE(Result.Ok) << Label << ": " << Result.Error;
        Logs[E == vm::Engine::Threaded] = Traps.Log;
      }
      EXPECT_FALSE(Logs[0].empty()) << Label;
      EXPECT_EQ(Logs[0], Logs[1]) << Label;

      prof::SessionOptions Options;
      Options.Config.M = Mode::ContextFlow;
      (Pic == 0 ? Options.Config.Pic0 : Options.Config.Pic1) = Sampled;
      Options.Acq.Kind = prof::Acquisition::Overflow;
      Options.Acq.Pic = Pic;
      Options.Acq.Period = 101;
      Options.Engine = vm::Engine::Reference;
      prof::RunOutcome Ref = prof::runProfile(*M, Options);
      Options.Engine = vm::Engine::Threaded;
      prof::RunOutcome Thr = prof::runProfile(*M, Options);
      expectSameOutcome(Ref, Thr, "sampled " + Label);
      EXPECT_GT(Ref.Acq.Traps, 0u) << Label;
      EXPECT_EQ(Ref.Acq.Traps, Thr.Acq.Traps) << Label;
      EXPECT_EQ(Ref.Acq.Samples, Thr.Acq.Samples) << Label;
      EXPECT_EQ(Ref.Acq.FramesWalked, Thr.Acq.FramesWalked) << Label;
    }
  }
}

// Same-line fetch is predecoded for the machine's own I-cache line size:
// lines of one instruction (never same-line), two, and sixteen, each at
// associativity 1, 2 and 4, against the reference engine.
TEST(EngineFastPaths, ICacheGeometriesAgree) {
  for (uint64_t LineBytes : {4u, 8u, 64u}) {
    for (unsigned Assoc : {1u, 2u, 4u}) {
      for (uint64_t Seed : {0u, 5u, 11u}) {
        auto M = testutil::makeRandomProgram(Seed, fullCoverage());
        for (Mode Md : {Mode::None, Mode::FlowHw, Mode::ContextFlowHw}) {
          prof::SessionOptions Options;
          Options.Config.M = Md;
          Options.Config.Pic1 = hw::Event::ICacheMiss;
          Options.MachineCfg.ICache = hw::CacheConfig{1024, LineBytes, Assoc};
          std::string Label = "line=" + std::to_string(LineBytes) +
                              " assoc=" + std::to_string(Assoc) +
                              " seed=" + std::to_string(Seed) +
                              " mode=" + prof::modeName(Md);
          prof::RunOutcome Ref = expectEnginesAgree(*M, Options, Label);
          EXPECT_TRUE(Ref.Result.Ok) << Label << ": " << Ref.Result.Error;
          EXPECT_GT(Ref.total(hw::Event::ICacheMiss), 0u) << Label;
        }
      }
    }
  }
}
