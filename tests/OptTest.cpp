//===- tests/OptTest.cpp - profile-guided optimizer ---------------------------===//
//
// The optimizer subsystem end to end: the layout pass's edge cases, the
// pass pipeline over the whole suite (behaviour preserved, work visible
// in the typed per-pass stats), the inliner's refusal taxonomy (cost,
// recursion), and the ProfileView's typed artifact rejections — a profile
// that cannot have come from the module at hand must refuse loudly, never
// silently no-op.
//
//===----------------------------------------------------------------------===//

#include "opt/Layout.h"
#include "opt/Pass.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "profdb/Artifact.h"
#include "prof/Session.h"
#include "workloads/Examples.h"
#include "workloads/Spec.h"

#include <gtest/gtest.h>

using namespace pp;
using prof::Mode;

namespace {

prof::RunOutcome profileOf(ir::Module &M, Mode Md = Mode::FlowHw) {
  prof::SessionOptions Options;
  Options.Config.M = Md;
  Options.Config.Pic0 = hw::Event::Cycles;
  Options.Config.Pic1 = hw::Event::ICacheMiss;
  return prof::runProfile(M, Options);
}

prof::RunOutcome baselineOf(ir::Module &M) {
  prof::SessionOptions Options;
  Options.Config.M = Mode::None;
  return prof::runProfile(M, Options);
}

/// Profiles \p M under \p Md and packages the outcome as the artifact the
/// optimizer consumes (the same path bench/pgo_loop and pp-opt use).
profdb::Artifact artifactOf(ir::Module &M, Mode Md) {
  prof::SessionOptions Options;
  Options.Config.M = Md;
  Options.Config.Pic0 = hw::Event::Cycles;
  Options.Config.Pic1 = hw::Event::ICacheMiss;
  prof::RunOutcome Out = prof::runProfile(M, Options);
  EXPECT_TRUE(Out.Result.Ok) << Out.Result.Error;
  return profdb::artifactFromOutcome(Out, M, "opt-test", "t", 1,
                                     Options.Config);
}

const std::vector<opt::PassKind> AllPasses = {
    opt::PassKind::Layout, opt::PassKind::Superblock, opt::PassKind::Inline};

/// main() calls callee(CalleeParams args) once; the callee does enough
/// work that its CCT subtree dominates the run's PIC0, putting the site
/// safely above the inliner's hotness threshold.
std::unique_ptr<ir::Module> makeCallerModule(unsigned CalleeParams) {
  auto M = std::make_unique<ir::Module>();
  ir::Function *Callee = M->addFunction("callee", CalleeParams);
  {
    ir::IRBuilder B(Callee, Callee->addBlock("entry"));
    ir::Reg Acc = B.movImm(1);
    for (int Step = 0; Step != 8; ++Step)
      Acc = B.addImm(Acc, 3);
    B.ret(Acc);
  }
  ir::Function *Main = M->addFunction("main", 0);
  {
    ir::IRBuilder B(Main, Main->addBlock("entry"));
    std::vector<ir::Reg> Args;
    for (unsigned Arg = 0; Arg != CalleeParams; ++Arg)
      Args.push_back(B.movImm(Arg));
    B.ret(B.call(Callee, Args));
  }
  M->setMain(Main);
  return M;
}

/// main() -> fact(6), fact self-recursive: the fact->fact CCT slot is a
/// recursion backedge carrying nearly all the run's cost.
std::unique_ptr<ir::Module> makeRecursiveModule() {
  auto M = std::make_unique<ir::Module>();
  ir::Function *Fact = M->addFunction("fact", 1);
  {
    ir::BasicBlock *Entry = Fact->addBlock("entry");
    ir::BasicBlock *Base = Fact->addBlock("base");
    ir::BasicBlock *Rec = Fact->addBlock("rec");
    ir::IRBuilder B(Fact, Entry);
    B.condBr(B.cmpLeImm(/*n=*/0, 0), Base, Rec);
    B.setBlock(Base);
    B.retImm(1);
    B.setBlock(Rec);
    ir::Reg Next = B.subImm(0, 1);
    B.ret(B.mul(0, B.call(Fact, {Next})));
  }
  ir::Function *Main = M->addFunction("main", 0);
  {
    ir::IRBuilder B(Main, Main->addBlock("entry"));
    B.ret(B.call(Fact, {B.movImm(6)}));
  }
  M->setMain(Main);
  return M;
}

} // namespace

TEST(OptLayout, PreservesBehaviourAcrossTheSuite) {
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite()) {
    auto M = Spec.Build(1);
    prof::RunOutcome Before = baselineOf(*M);
    prof::RunOutcome Profile = profileOf(*M);
    ASSERT_TRUE(Profile.Result.Ok) << Spec.Name;

    opt::LayoutResult Result = opt::layoutHotPathsFirst(*M, Profile);
    std::vector<std::string> Errors;
    ASSERT_TRUE(ir::verifyModule(*M, Errors)) << Spec.Name << ": "
                                              << Errors.front();
    prof::RunOutcome After = baselineOf(*M);
    ASSERT_TRUE(After.Result.Ok) << Spec.Name;
    EXPECT_EQ(After.Result.ExitValue, Before.Result.ExitValue) << Spec.Name;
    EXPECT_EQ(After.Result.ExecutedInsts, Before.Result.ExecutedInsts)
        << Spec.Name;
    EXPECT_GT(Result.FunctionsConsidered, 0u) << Spec.Name;
  }
}

TEST(OptLayout, IsIdempotent) {
  auto M = workloads::buildWorkload("129.compress", 1);
  prof::RunOutcome Profile = profileOf(*M);
  opt::layoutHotPathsFirst(*M, Profile);

  // Re-profile the already-laid-out module: the hottest paths now lead,
  // so a second pass must change nothing.
  prof::RunOutcome Second = profileOf(*M);
  opt::LayoutResult Again = opt::layoutHotPathsFirst(*M, Second);
  EXPECT_EQ(Again.FunctionsReordered, 0u);
}

TEST(OptLayout, SingleFunctionReorderPutsHotPathAtFront) {
  auto M = workloads::buildFig1Module();
  prof::RunOutcome Profile = profileOf(*M);
  ir::Function &Fig1 = *M->findFunction("fig1");
  unsigned Fig1Id = Fig1.id();

  // fig1's most frequent paths are ACDF/ACDEF (selectors land on C twice
  // as often); after layout the C block must come right after A.
  bool Changed = opt::layoutHotPathFirst(Fig1, Profile.PathProfiles[Fig1Id]);
  EXPECT_TRUE(Changed);
  EXPECT_EQ(Fig1.entry()->name(), "A");
  EXPECT_EQ(Fig1.block(1)->name(), "C");
  std::vector<std::string> Errors;
  EXPECT_TRUE(ir::verifyModule(*M, Errors)) << Errors.front();
}

TEST(OptLayout, NoProfileMeansNoChange) {
  auto M = workloads::buildFig1Module();
  prof::FunctionPathProfile Empty;
  EXPECT_FALSE(
      opt::layoutHotPathFirst(*M->findFunction("fig1"), Empty));
}

TEST(OptLayout, ColdEntryStaysFirstAndReorderIsIdempotent) {
  // A hot trace that never mentions the entry (a path starting at a loop
  // head): the entry must stay first anyway, and re-applying the same
  // trace must be a counted no-op, not layout churn.
  ir::Module M;
  ir::Function *F = M.addFunction("main", 0);
  M.setMain(F);
  ir::BasicBlock *Entry = F->addBlock("entry");
  ir::BasicBlock *A = F->addBlock("a");
  ir::BasicBlock *B = F->addBlock("b");
  ir::IRBuilder IRB(F, Entry);
  IRB.condBr(IRB.movImm(1), A, B);
  IRB.setBlock(A);
  IRB.retImm(1);
  IRB.setBlock(B);
  IRB.retImm(2);

  EXPECT_TRUE(opt::reorderTraceFirst(*F, {B}));
  EXPECT_EQ(F->entry()->name(), "entry");
  EXPECT_EQ(F->block(1)->name(), "b");
  std::vector<std::string> Errors;
  EXPECT_TRUE(ir::verifyModule(M, Errors)) << Errors.front();
  EXPECT_FALSE(opt::reorderTraceFirst(*F, {B}));
}

TEST(OptLayout, SingleBlockFunctionNeverChurns) {
  ir::Module M;
  ir::Function *F = M.addFunction("main", 0);
  M.setMain(F);
  ir::IRBuilder IRB(F, F->addBlock("entry"));
  IRB.retImm(0);
  EXPECT_FALSE(opt::reorderTraceFirst(*F, {F->entry()}));
}

TEST(OptPipeline, ParsesPassListsStrictly) {
  std::vector<opt::PassKind> Passes;
  std::string Error;
  ASSERT_TRUE(opt::parsePasses("inline,layout", Passes, Error)) << Error;
  EXPECT_EQ(Passes, (std::vector<opt::PassKind>{opt::PassKind::Inline,
                                                 opt::PassKind::Layout}));
  // An unknown name fails and names the culprit: a typo must not run a
  // partial pipeline.
  EXPECT_FALSE(opt::parsePasses("layout,unroll", Passes, Error));
  EXPECT_NE(Error.find("unroll"), std::string::npos) << Error;
  EXPECT_FALSE(opt::parsePasses("", Passes, Error));
}

TEST(OptPipeline, SuitePreservesBehaviourAndDoesVisibleWork) {
  unsigned TotalDuplicated = 0, TotalInlined = 0, TotalReordered = 0;
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite()) {
    auto Pristine = Spec.Build(1);
    prof::RunOutcome Before = baselineOf(*Pristine);
    profdb::Artifact A = artifactOf(*Pristine, Mode::ContextFlowHw);

    // Resolve against a fresh copy, as pp-opt does: the pristine module
    // already carries no instrumentation, but the fresh build proves the
    // artifact's identity checks accept a structural clone.
    auto M = Spec.Build(1);
    opt::ProfileView View;
    ASSERT_EQ(opt::ProfileView::build(A, *M, View), opt::ViewStatus::Ok)
        << Spec.Name;
    opt::PipelineResult Result =
        opt::runPipeline(*M, View, AllPasses, opt::PassOptions());
    ASSERT_TRUE(Result.Ok) << Spec.Name << ": " << Result.Error;
    ASSERT_EQ(Result.Passes.size(), AllPasses.size()) << Spec.Name;
    for (const opt::PassStats &S : Result.Passes) {
      TotalDuplicated += S.BlocksDuplicated;
      TotalInlined += S.SitesInlined;
      TotalReordered += S.FunctionsChanged;
    }

    prof::RunOutcome After = baselineOf(*M);
    ASSERT_TRUE(After.Result.Ok) << Spec.Name;
    EXPECT_EQ(After.Result.ExitValue, Before.Result.ExitValue) << Spec.Name;
  }
  // The pipeline must actually do things somewhere in the suite — every
  // pass's work shows up in its typed stats, not just in the IR.
  EXPECT_GT(TotalReordered, 0u);
  EXPECT_GT(TotalDuplicated, 0u);
  EXPECT_GT(TotalInlined, 0u);
}

TEST(OptInline, InlinesAHotZeroOverheadSite) {
  auto M = makeCallerModule(0);
  prof::RunOutcome Before = baselineOf(*M);
  profdb::Artifact A = artifactOf(*M, Mode::ContextFlowHw);

  opt::ProfileView View;
  ASSERT_EQ(opt::ProfileView::build(A, *M, View), opt::ViewStatus::Ok);
  opt::PassStats Stats = opt::runInlinePass(*M, View, opt::PassOptions());
  EXPECT_EQ(Stats.SitesInlined, 1u);
  EXPECT_EQ(Stats.CostRefusals, 0u);

  std::vector<std::string> Errors;
  ASSERT_TRUE(ir::verifyModule(*M, Errors)) << Errors.front();
  prof::RunOutcome After = baselineOf(*M);
  EXPECT_EQ(After.Result.ExitValue, Before.Result.ExitValue);
}

TEST(OptInline, RefusesSitesThatCostMoreThanTheCall) {
  // Two parameters + a returned value = 3 extra executed instructions per
  // invocation on this VM (the Call marshals them itself); the default
  // overhead line is 1, so the site is hot, safe — and refused.
  auto M = makeCallerModule(2);
  profdb::Artifact A = artifactOf(*M, Mode::ContextFlowHw);

  opt::ProfileView View;
  ASSERT_EQ(opt::ProfileView::build(A, *M, View), opt::ViewStatus::Ok);
  opt::PassStats Stats = opt::runInlinePass(*M, View, opt::PassOptions());
  EXPECT_EQ(Stats.SitesInlined, 0u);
  EXPECT_GE(Stats.CostRefusals, 1u);

  // Raising the overhead line past the marshalling cost admits the site.
  auto M2 = makeCallerModule(2);
  prof::RunOutcome Before = baselineOf(*M2);
  profdb::Artifact A2 = artifactOf(*M2, Mode::ContextFlowHw);
  opt::ProfileView View2;
  ASSERT_EQ(opt::ProfileView::build(A2, *M2, View2), opt::ViewStatus::Ok);
  opt::PassOptions Loose;
  Loose.InlineMaxOverhead = 3;
  opt::PassStats Stats2 = opt::runInlinePass(*M2, View2, Loose);
  EXPECT_EQ(Stats2.SitesInlined, 1u);
  prof::RunOutcome After = baselineOf(*M2);
  EXPECT_EQ(After.Result.ExitValue, Before.Result.ExitValue);
}

TEST(OptInline, RefusesRecursionBackedges) {
  auto M = makeRecursiveModule();
  prof::RunOutcome Before = baselineOf(*M);
  profdb::Artifact A = artifactOf(*M, Mode::ContextFlowHw);

  opt::ProfileView View;
  ASSERT_EQ(opt::ProfileView::build(A, *M, View), opt::ViewStatus::Ok);
  opt::PassOptions Loose;
  Loose.InlineMaxOverhead = 100; // isolate the recursion refusal
  opt::PassStats Stats = opt::runInlinePass(*M, View, Loose);
  EXPECT_GE(Stats.RecursionRefusals, 1u);

  std::vector<std::string> Errors;
  ASSERT_TRUE(ir::verifyModule(*M, Errors)) << Errors.front();
  prof::RunOutcome After = baselineOf(*M);
  EXPECT_EQ(After.Result.ExitValue, Before.Result.ExitValue);
}

TEST(OptProfileView, RefusesSampledAcquisition) {
  auto M = workloads::buildWorkload("129.compress", 1);
  profdb::Artifact A = artifactOf(*M, Mode::FlowHw);
  A.Schema.Acquisition = "overflow";
  opt::ProfileView View;
  EXPECT_EQ(opt::ProfileView::build(A, *M, View),
            opt::ViewStatus::CrossAcquisition);
}

TEST(OptProfileView, RefusesSchemaMismatch) {
  auto M = workloads::buildWorkload("129.compress", 1);
  {
    // An unknown mode name cannot be interpreted at all.
    profdb::Artifact A = artifactOf(*M, Mode::FlowHw);
    A.Schema.Mode = "telepathy";
    opt::ProfileView View;
    EXPECT_EQ(opt::ProfileView::build(A, *M, View),
              opt::ViewStatus::SchemaMismatch);
  }
  {
    // A mode that recorded neither paths nor a CCT holds nothing to
    // optimize from.
    profdb::Artifact A = artifactOf(*M, Mode::None);
    opt::ProfileView View;
    EXPECT_EQ(opt::ProfileView::build(A, *M, View),
              opt::ViewStatus::SchemaMismatch);
  }
}

TEST(OptProfileView, RefusesEmptyPathTables) {
  auto M = workloads::buildWorkload("129.compress", 1);
  profdb::Artifact A = artifactOf(*M, Mode::FlowHw);
  for (prof::FunctionPathProfile &Profile : A.PathProfiles)
    Profile.Paths.clear();
  opt::ProfileView View;
  EXPECT_EQ(opt::ProfileView::build(A, *M, View),
            opt::ViewStatus::EmptyPathTables);
}

TEST(OptProfileView, RefusesFunctionTableMismatch) {
  auto M = workloads::buildWorkload("129.compress", 1);
  {
    profdb::Artifact A = artifactOf(*M, Mode::FlowHw);
    ASSERT_FALSE(A.Functions.empty());
    A.Functions[0] += "_renamed";
    opt::ProfileView View;
    EXPECT_EQ(opt::ProfileView::build(A, *M, View),
              opt::ViewStatus::FunctionTableMismatch);
  }
  {
    // An artifact collected from a different program entirely.
    profdb::Artifact A = artifactOf(*M, Mode::FlowHw);
    auto Other = workloads::buildWorkload("099.go", 1);
    opt::ProfileView View;
    EXPECT_EQ(opt::ProfileView::build(A, *Other, View),
              opt::ViewStatus::FunctionTableMismatch);
  }
}

TEST(OptProfileView, RefusesPathSpaceMismatch) {
  auto M = workloads::buildWorkload("129.compress", 1);
  profdb::Artifact A = artifactOf(*M, Mode::FlowHw);
  bool Poisoned = false;
  for (prof::FunctionPathProfile &Profile : A.PathProfiles)
    if (Profile.HasProfile && !Profile.Paths.empty()) {
      Profile.Paths.front().PathSum = uint64_t(1) << 62;
      Poisoned = true;
      break;
    }
  ASSERT_TRUE(Poisoned);
  opt::ProfileView View;
  EXPECT_EQ(opt::ProfileView::build(A, *M, View),
            opt::ViewStatus::PathSpaceMismatch);
}

TEST(OptProfileView, KeepsRankedPathsHottestFirst) {
  auto M = workloads::buildWorkload("129.compress", 1);
  profdb::Artifact A = artifactOf(*M, Mode::FlowHw);
  opt::ProfileView View;
  ASSERT_EQ(opt::ProfileView::build(A, *M, View), opt::ViewStatus::Ok);
  ASSERT_TRUE(View.hasPaths());
  for (unsigned Id = 0; Id != View.numFunctions(); ++Id) {
    const opt::FunctionHotness &FH = View.function(Id);
    if (!FH.HasPaths)
      continue;
    ASSERT_FALSE(FH.Paths.empty());
    EXPECT_LE(FH.Paths.size(), opt::MaxPathsKept);
    EXPECT_EQ(FH.Hottest.PathSum, FH.Paths.front().PathSum);
    bool UseMetric = false;
    for (const opt::HotPath &HP : FH.Paths)
      UseMetric |= HP.Metric0 != 0;
    for (size_t P = 1; P < FH.Paths.size(); ++P) {
      uint64_t Prev = UseMetric ? FH.Paths[P - 1].Metric0 : FH.Paths[P - 1].Freq;
      uint64_t Cur = UseMetric ? FH.Paths[P].Metric0 : FH.Paths[P].Freq;
      EXPECT_GE(Prev, Cur) << "func " << Id << " rank " << P;
    }
  }
}
