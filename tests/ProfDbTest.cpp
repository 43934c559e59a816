//===- tests/ProfDbTest.cpp - profile repository properties ---------------------===//
//
// The profile repository's contracts, proven on random programs:
//
//  * Round-trip fidelity — encode(decode(encode(A))) is bit-identical and
//    every measurement (totals, path tables, CCT context sums) survives
//    the trip exactly.
//  * Merge correctness — merged metrics equal the integer sums of the
//    inputs' metrics, per path and per calling context, bit for bit.
//  * Merge determinism — any shard order and any association of pairwise
//    merges yields bit-identical artifact bytes (the canonical
//    re-emission through the real CCT allocator).
//  * Schema safety — artifacts with different modes or PIC routings are
//    rejected with a descriptive error, never silently summed; merge, diff
//    and the collector's routing key share that one shape check.
//  * Transactional folds — every rejection, including crafted trees the
//    CCT allocator would assert on, leaves a fold's bytes and run count
//    untouched; merged sums match an oracle that reads the inputs' trees
//    and path tables directly.
//
// PP_CROSSMODE_SEEDS scales the fuzz seed count (default 64), the same
// knob the cross-mode suite uses.
//
//===----------------------------------------------------------------------===//

#include "prof/Session.h"
#include "profdb/Artifact.h"
#include "profdb/Diff.h"
#include "profdb/Merge.h"
#include "profdb/Store.h"

#include "CraftedTrees.h"
#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <sys/stat.h>
#include <unistd.h>

using namespace pp;
using prof::Mode;

namespace {

/// A run of the random program for \p Seed under shard variant \p Shard:
/// shards differ in D-cache geometry (different metrics, same control
/// flow) and, for odd shards, in asynchronous signal delivery (different
/// control flow — the merge must union the extra contexts).
profdb::Artifact makeShard(uint64_t Seed, unsigned Shard, Mode M,
                           const ir::Module &Program) {
  prof::SessionOptions Options;
  Options.Config.M = M;
  static const uint64_t Sizes[] = {16 * 1024, 8 * 1024, 4 * 1024, 32 * 1024};
  Options.MachineCfg.DCache.SizeBytes = Sizes[Shard % 4];
  if (Shard % 2 == 1) {
    Options.SignalHandler = "sighandler";
    Options.SignalInterval = 401 + 97 * Shard;
  }
  prof::RunOutcome Outcome = prof::runProfile(Program, Options);
  EXPECT_TRUE(Outcome.Result.Ok) << Outcome.Result.Error;
  std::string Fingerprint =
      "fuzz;seed=" + std::to_string(Seed) + ";shard=" + std::to_string(Shard);
  return profdb::artifactFromOutcome(Outcome, Program, Fingerprint,
                                     "fuzz" + std::to_string(Seed), 1,
                                     Options.Config);
}

std::unique_ptr<ir::Module> makeProgram(uint64_t Seed) {
  testutil::RandomProgramOptions Opts;
  Opts.WithSignalHandler = true;
  return testutil::makeRandomProgram(Seed, Opts);
}

/// Flattened, structure-independent view of everything an artifact
/// measures: path profiles keyed (function, path sum) and CCT records
/// keyed by their root-to-record procedure chain (metrics and path cells
/// summed over records sharing a chain). Merged artifacts must equal the
/// elementwise integer sum of their inputs under this view.
using MetricMap = std::map<std::string, std::vector<uint64_t>>;

void addInto(MetricMap &Into, const std::string &Key,
             const std::vector<uint64_t> &Values) {
  std::vector<uint64_t> &Slot = Into[Key];
  if (Slot.size() < Values.size())
    Slot.resize(Values.size(), 0);
  for (size_t I = 0; I != Values.size(); ++I)
    Slot[I] += Values[I];
}

MetricMap metricMap(const profdb::Artifact &A) {
  MetricMap Out;
  addInto(Out, "#insts", {A.ExecutedInsts});
  addInto(Out, "#totals",
          std::vector<uint64_t>(A.Totals.begin(), A.Totals.end()));
  for (const prof::FunctionPathProfile &Profile : A.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    for (const prof::PathEntry &Entry : Profile.Paths)
      addInto(Out,
              "path:" + std::to_string(Profile.FuncId) + ":" +
                  std::to_string(Entry.PathSum),
              {Entry.Freq, Entry.Metric0, Entry.Metric1});
  }
  if (A.Tree) {
    for (const auto &R : A.Tree->records()) {
      if (R->procId() == cct::RootProcId)
        continue;
      std::string Chain;
      for (const cct::CallRecord *Walk = R.get();
           Walk && Walk->procId() != cct::RootProcId; Walk = Walk->parent())
        Chain = std::to_string(Walk->procId()) + "/" + Chain;
      addInto(Out, "ctx:" + Chain, R->Metrics);
      for (const auto &[Sum, Cell] : R->PathTable)
        addInto(Out, "ctx:" + Chain + "#" + std::to_string(Sum),
                {Cell.Freq, Cell.Metric0, Cell.Metric1});
    }
  }
  return Out;
}

MetricMap sumMaps(const MetricMap &A, const MetricMap &B) {
  MetricMap Out = A;
  for (const auto &[Key, Values] : B)
    addInto(Out, Key, Values);
  return Out;
}

uint64_t seedCount() {
  return testutil::seedCountFromEnv("PP_CROSSMODE_SEEDS", 64);
}

class ProfDbRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

//===----------------------------------------------------------------------===//
// Round-trip fuzz
//===----------------------------------------------------------------------===//

TEST_P(ProfDbRoundTripTest, EncodeDecodeIsExact) {
  uint64_t Seed = GetParam();
  auto Program = makeProgram(Seed);
  // Alternate modes so both representations (flat path tables, CCT with
  // per-context cells) go through the fuzz.
  Mode M = (Seed % 2) ? Mode::ContextFlowHw : Mode::FlowHw;
  profdb::Artifact A = makeShard(Seed, unsigned(Seed % 4), M, *Program);

  std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  profdb::Artifact Back;
  ASSERT_EQ(profdb::decodeArtifact(Bytes, Back), profdb::DecodeStatus::Ok)
      << "seed " << Seed;

  // Field-exact and re-encode bit-exact.
  EXPECT_EQ(Back.Fingerprint, A.Fingerprint);
  EXPECT_EQ(Back.SourceHash, A.SourceHash);
  EXPECT_EQ(Back.RunCount, A.RunCount);
  EXPECT_EQ(Back.Workload, A.Workload);
  EXPECT_EQ(Back.Scale, A.Scale);
  EXPECT_TRUE(Back.Schema == A.Schema);
  EXPECT_EQ(Back.Functions, A.Functions);
  EXPECT_EQ(Back.Totals, A.Totals);
  EXPECT_EQ(metricMap(Back), metricMap(A)) << "seed " << Seed;
  EXPECT_EQ(profdb::encodeArtifact(Back), Bytes) << "seed " << Seed;
}

TEST_P(ProfDbRoundTripTest, MergedMetricsAreExactSums) {
  uint64_t Seed = GetParam();
  auto Program = makeProgram(Seed);
  Mode M = (Seed % 2) ? Mode::ContextFlowHw : Mode::FlowHw;
  profdb::Artifact A = makeShard(Seed, 0, M, *Program);
  profdb::Artifact B = makeShard(Seed, 1, M, *Program);
  profdb::Artifact C = makeShard(Seed, 2, M, *Program);

  profdb::Artifact AB;
  std::string Error;
  ASSERT_TRUE(profdb::mergeArtifacts(A, B, AB, Error)) << Error;
  EXPECT_EQ(metricMap(AB), sumMaps(metricMap(A), metricMap(B)))
      << "seed " << Seed;
  EXPECT_EQ(AB.RunCount, 2u);

  // Commutativity and associativity, at the byte level.
  profdb::Artifact BA;
  ASSERT_TRUE(profdb::mergeArtifacts(B, A, BA, Error)) << Error;
  EXPECT_EQ(profdb::encodeArtifact(AB), profdb::encodeArtifact(BA))
      << "seed " << Seed;

  profdb::Artifact AB_C, BC, A_BC;
  ASSERT_TRUE(profdb::mergeArtifacts(AB, C, AB_C, Error)) << Error;
  ASSERT_TRUE(profdb::mergeArtifacts(B, C, BC, Error)) << Error;
  ASSERT_TRUE(profdb::mergeArtifacts(A, BC, A_BC, Error)) << Error;
  EXPECT_EQ(profdb::encodeArtifact(AB_C), profdb::encodeArtifact(A_BC))
      << "seed " << Seed;
  EXPECT_EQ(metricMap(AB_C),
            sumMaps(metricMap(C), sumMaps(metricMap(A), metricMap(B))))
      << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ProfDbRoundTripTest,
                         ::testing::Range<uint64_t>(0, seedCount()));

//===----------------------------------------------------------------------===//
// Merge determinism at scale
//===----------------------------------------------------------------------===//

TEST(ProfDbMergeDeterminismTest, AnyOrderSameBytes) {
  const uint64_t Seed = 2027;
  auto Program = makeProgram(Seed);
  constexpr unsigned NumShards = 9;
  std::vector<profdb::Artifact> Shards;
  for (unsigned I = 0; I != NumShards; ++I)
    Shards.push_back(makeShard(Seed, I, Mode::ContextFlowHw, *Program));

  auto MergeOrder = [&Shards](const std::vector<size_t> &Order) {
    std::vector<profdb::Artifact> Copy;
    for (size_t Index : Order)
      Copy.push_back(profdb::cloneArtifact(Shards[Index]));
    profdb::Artifact Out;
    std::string Error;
    EXPECT_TRUE(profdb::mergeAll(std::move(Copy), Out, Error)) << Error;
    return profdb::encodeArtifact(Out);
  };

  std::vector<size_t> Order(NumShards);
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<uint8_t> Reference = MergeOrder(Order);
  EXPECT_FALSE(Reference.empty());

  std::mt19937_64 Rng(7);
  for (unsigned Trial = 0; Trial != 5; ++Trial) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    EXPECT_EQ(MergeOrder(Order), Reference) << "trial " << Trial;
  }
}

//===----------------------------------------------------------------------===//
// Schema and shape safety
//===----------------------------------------------------------------------===//

TEST(ProfDbMergeRejectTest, IncompatibleInputsAreRefused) {
  const uint64_t Seed = 11;
  auto Program = makeProgram(Seed);
  profdb::Artifact Base = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);

  // Different mode.
  profdb::Artifact OtherMode = makeShard(Seed, 0, Mode::FlowHw, *Program);
  profdb::Artifact Out;
  std::string Error;
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherMode, Out, Error));
  EXPECT_NE(Error.find("schema"), std::string::npos) << Error;

  // Different PIC routing.
  profdb::Artifact OtherPic = profdb::cloneArtifact(Base);
  OtherPic.Schema.Pic1 = "IC Miss";
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherPic, Out, Error));
  EXPECT_NE(Error.find("schema"), std::string::npos) << Error;

  // Different acquisition: exact counts and sampled estimates must never
  // sum into one table.
  profdb::Artifact OtherAcq = profdb::cloneArtifact(Base);
  OtherAcq.Schema.Acquisition = "overflow";
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherAcq, Out, Error));
  EXPECT_NE(Error.find("acq"), std::string::npos) << Error;

  // Different workload identity.
  profdb::Artifact OtherLoad = profdb::cloneArtifact(Base);
  OtherLoad.Workload = "someone-else";
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherLoad, Out, Error));
  EXPECT_FALSE(Error.empty());

  // Different program shape (function table).
  auto Program2 = makeProgram(Seed + 1);
  profdb::Artifact OtherShape =
      makeShard(Seed + 1, 0, Mode::ContextFlowHw, *Program2);
  OtherShape.Workload = Base.Workload;
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherShape, Out, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ProfDbCrossKTest, CrossKMergeAndDiffAreRefused) {
  // A k = 2 window sum and a k = 1 path sum occupy different id spaces:
  // identical (function, sum) keys name unrelated paths, so cross-k
  // merges and diffs must refuse with a typed reason, not silently sum
  // or subtract unrelated counters.
  const uint64_t Seed = 13;
  auto Program = makeProgram(Seed);
  profdb::Artifact Base = makeShard(Seed, 0, Mode::FlowHw, *Program);
  ASSERT_EQ(Base.Schema.K, 1u);

  profdb::Artifact OtherK = profdb::cloneArtifact(Base);
  OtherK.Schema.K = 2;
  profdb::Artifact Out;
  std::string Error;
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherK, Out, Error));
  EXPECT_NE(Error.find("across k"), std::string::npos) << Error;

  profdb::ArtifactDiff Diff;
  Error.clear();
  EXPECT_FALSE(profdb::diffArtifacts(Base, OtherK, Diff, Error));
  EXPECT_NE(Error.find("across k"), std::string::npos) << Error;

  // Per-function fallback levels are part of the identity too: two k = 2
  // runs can ladder differently, and a laddered (k = 1) table must not
  // mix with a true k = 2 table for the same function.
  profdb::Artifact Laddered = profdb::cloneArtifact(Base);
  bool Flipped = false;
  for (prof::FunctionPathProfile &Profile : Laddered.PathProfiles)
    if (Profile.HasProfile && !Flipped) {
      Profile.KIters = 2;
      Flipped = true;
    }
  ASSERT_TRUE(Flipped);
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, Laddered, Out, Error));
  EXPECT_NE(Error.find("across k"), std::string::npos) << Error;
  Error.clear();
  EXPECT_FALSE(profdb::diffArtifacts(Base, Laddered, Diff, Error));
  EXPECT_NE(Error.find("across k"), std::string::npos) << Error;
}

TEST(ProfDbCrossKTest, KSurvivesTheEncodeDecodeTrip) {
  const uint64_t Seed = 13;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 0, Mode::FlowHw, *Program);
  A.Schema.K = 3;
  for (prof::FunctionPathProfile &Profile : A.PathProfiles)
    if (Profile.HasProfile)
      Profile.KIters = 2;

  std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  profdb::Artifact Back;
  ASSERT_EQ(profdb::decodeArtifact(Bytes, Back), profdb::DecodeStatus::Ok);
  EXPECT_EQ(Back.Schema.K, 3u);
  for (const prof::FunctionPathProfile &Profile : Back.PathProfiles)
    if (Profile.HasProfile) {
      EXPECT_EQ(Profile.KIters, 2u);
    }
  EXPECT_EQ(profdb::encodeArtifact(Back), Bytes);
}

//===----------------------------------------------------------------------===//
// The fold: crafted trees, transactional adds, one emission
//===----------------------------------------------------------------------===//

namespace {

using SlotKind = cct::CallRecord::Slot::Kind;
using testutil::DirectChild;
using testutil::TreeImage;
using testutil::findDirectChild;
using testutil::moveChildToExtraSlot;
using testutil::swapLeafCallee;
using testutil::withEditedTree;

bool isAncestor(const TreeImage &Image, size_t Ancestor, size_t Of) {
  for (int64_t Walk = static_cast<int64_t>(Of); Walk >= 0;
       Walk = Image.Records[static_cast<size_t>(Walk)].Parent)
    if (static_cast<size_t>(Walk) == Ancestor)
      return true;
  return false;
}

/// A record with \p Proc's slot count, a zeroed metric vector, under
/// \p Parent; returns its index.
size_t appendRecord(TreeImage &Image, size_t Parent, cct::ProcId Proc) {
  TreeImage::Record Rec;
  Rec.Proc = Proc;
  Rec.Parent = static_cast<int64_t>(Parent);
  Rec.Metrics.assign(Image.NumMetrics, 0);
  Rec.Slots.resize(Image.Procs[Proc].NumSites);
  Image.Records.push_back(Rec);
  return Image.Records.size() - 1;
}

cct::ProcId zeroSiteProc(const TreeImage &Image) {
  for (cct::ProcId P = 0; P != Image.Procs.size(); ++P)
    if (Image.Procs[P].NumSites == 0)
      return P;
  ADD_FAILURE() << "no procedure without call sites";
  return 0;
}

struct Rejection {
  const char *Expect;
  profdb::Artifact Bad;
  /// Made by profdb::checkShape (a header edit), not by the tree checks.
  bool Header = false;
};

/// One artifact per rejection a fold of \p Base's mode can make, each
/// derived from \p Base and wrong in exactly the way its expected message
/// names: path-table rejections need flat path profiles, tree rejections
/// a CCT.
std::vector<Rejection> rejections(const profdb::Artifact &Base) {
  std::vector<Rejection> Out;
  auto Header = [&](const char *Expect,
                    const std::function<void(profdb::Artifact &)> &Edit) {
    profdb::Artifact Bad = profdb::cloneArtifact(Base);
    Edit(Bad);
    Out.push_back({Expect, std::move(Bad), /*Header=*/true});
  };
  auto Tree = [&](const char *Expect,
                  const std::function<void(TreeImage &)> &Edit) {
    Out.push_back({Expect, withEditedTree(Base, Edit)});
  };

  Header("cannot merge artifacts across k",
         [](profdb::Artifact &A) { A.Schema.K = 2; });
  Header("incompatible metric schemas",
         [](profdb::Artifact &A) { A.Schema.Pic1 = "IC Miss"; });
  Header("different programs",
         [](profdb::Artifact &A) { A.Workload = "someone-else"; });
  Header("function tables differ",
         [](profdb::Artifact &A) { A.Functions.back() += "'"; });
  if (Base.Tree)
    Header("one artifact has a CCT and the other does not",
           [](profdb::Artifact &A) { A.Tree = nullptr; });
  if (!Base.PathProfiles.empty()) {
    Header("path-profile function counts differ",
           [](profdb::Artifact &A) { A.PathProfiles.pop_back(); });
    Header("cannot merge path profiles across k for function",
           [](profdb::Artifact &A) {
             for (prof::FunctionPathProfile &P : A.PathProfiles)
               if (P.HasProfile) {
                 P.KIters = 2;
                 return;
               }
             FAIL() << "no function with a path profile";
           });
    Header("path-profile shape differs", [](profdb::Artifact &A) {
      A.PathProfiles.front().NumPaths += 1;
    });
  }
  if (!Base.Tree)
    return Out;
  Tree("CCT geometry mismatch",
       [](TreeImage &I) { I.HashThreshold += 1; });
  Tree("CCT procedure tables differ",
       [](TreeImage &I) { I.Procs.front().Name += "'"; });
  Tree("record metric vector disagrees", [](TreeImage &I) {
    I.Records.back().Metrics.push_back(0);
  });
  Tree("record slot count disagrees", moveChildToExtraSlot);
  Tree("call-site slot kind disagrees", [](TreeImage &I) {
    DirectChild E;
    ASSERT_TRUE(findDirectChild(I, E));
    I.Records[E.Parent].Slots[E.Slot].Kind = static_cast<uint8_t>(SlotKind::List);
  });
  Tree("child callee repeats an ancestor's procedure", [](TreeImage &I) {
    DirectChild E;
    ASSERT_TRUE(findDirectChild(I, E, /*LeafOnly=*/false, /*MinParent=*/1));
    I.Records[E.Child].Proc = I.Records[E.Parent].Proc;
  });
  Tree("slot target is neither a child nor an ancestor",
       [](TreeImage &I) {
         DirectChild E;
         ASSERT_TRUE(findDirectChild(I, E));
         for (size_t Y = 1; Y != I.Records.size(); ++Y)
           if (I.Records[Y].Parent != static_cast<int64_t>(E.Parent) &&
               !isAncestor(I, Y, E.Parent)) {
             I.Records[E.Parent].Slots[E.Slot].Targets[0].first = Y;
             return;
           }
         FAIL() << "no record outside the parent's root path";
       });
  Tree("orphan record", [](TreeImage &I) {
    DirectChild E;
    ASSERT_TRUE(findDirectChild(I, E));
    I.Records[E.Parent].Slots[E.Slot] = {};
  });
  Tree("record claimed as a child by two slots", [](TreeImage &I) {
    // Main, entered through the root's entry slot, also on its signal list.
    const TreeImage::Slot &Entry = I.Records[0].Slots[0];
    ASSERT_EQ(Entry.Targets.size(), 1u);
    I.Records[0].Slots[cct::SignalSlot].Targets.push_back(
        {Entry.Targets[0].first, 0});
  });
  Tree("duplicate callee in one call-site slot", [](TreeImage &I) {
    cct::ProcId Leaf = zeroSiteProc(I);
    size_t A = appendRecord(I, 0, Leaf);
    size_t B = appendRecord(I, 0, Leaf);
    I.Records[0].Slots[cct::SignalSlot].Targets.push_back({A, 0});
    I.Records[0].Slots[cct::SignalSlot].Targets.push_back({B, 0});
  });
  Tree("direct call site resolved to two different callees", swapLeafCallee);
  return Out;
}

/// Context-path sums read straight off a tree, keyed by the (slot, callee)
/// steps from the root; with the per-(function, path sum) counters and
/// the header sums. Shares no code with profdb/Merge.
using ContextSums = std::map<std::string, std::vector<uint64_t>>;

ContextSums contextSums(const profdb::Artifact &A) {
  ContextSums Out;
  auto Add = [&Out](const std::string &Key, std::vector<uint64_t> Values) {
    std::vector<uint64_t> &Into = Out[Key];
    Into.resize(std::max(Into.size(), Values.size()), 0);
    for (size_t I = 0; I != Values.size(); ++I)
      Into[I] += Values[I];
  };
  Add("#runs", {A.RunCount});
  Add("#insts", {A.ExecutedInsts});
  Add("#totals", std::vector<uint64_t>(A.Totals.begin(), A.Totals.end()));
  for (const prof::FunctionPathProfile &P : A.PathProfiles)
    for (const prof::PathEntry &E : P.Paths)
      Add("path:" + std::to_string(P.FuncId) + ":" + std::to_string(E.PathSum),
          {E.Freq, E.Metric0, E.Metric1});
  if (!A.Tree)
    return Out;
  auto SlotOf = [](const cct::CallRecord *Parent,
                   const cct::CallRecord *Child) -> unsigned {
    for (unsigned S = 0; S != Parent->numSlots(); ++S) {
      const cct::CallRecord::Slot &Slot = Parent->slot(S);
      if (Slot.Direct == Child)
        return S;
      for (const auto &Cell : Slot.List)
        if (Cell.first == Child)
          return S;
    }
    ADD_FAILURE() << "record unreachable from its parent";
    return ~0u;
  };
  for (const auto &R : A.Tree->records()) {
    std::string Key;
    for (const cct::CallRecord *Walk = R.get(); Walk->parent();
         Walk = Walk->parent())
      Key = std::to_string(SlotOf(Walk->parent(), Walk)) + ":" +
            std::to_string(Walk->procId()) + "/" + Key;
    Add("ctx:" + Key, R->Metrics);
    for (const auto &[Sum, Cell] : R->PathTable)
      Add("ctx:" + Key + "#" + std::to_string(Sum),
          {Cell.Freq, Cell.Metric0, Cell.Metric1});
  }
  return Out;
}

std::vector<profdb::Artifact> foldShards(uint64_t Seed, unsigned N,
                                         const ir::Module &Program) {
  std::vector<profdb::Artifact> Shards;
  for (unsigned I = 0; I != N; ++I)
    Shards.push_back(makeShard(Seed, I, Mode::ContextFlowHw, Program));
  return Shards;
}

std::vector<profdb::Artifact>
cloneAll(const std::vector<profdb::Artifact> &Shards,
         const std::vector<size_t> &Order) {
  std::vector<profdb::Artifact> Out;
  for (size_t Index : Order)
    Out.push_back(profdb::cloneArtifact(Shards[Index]));
  return Out;
}

} // namespace

TEST(ProfDbFoldTest, RejectedAddLeavesTheFoldAsItWas) {
  const uint64_t Seed = 2029;
  auto Program = makeProgram(Seed);
  std::set<std::string> Covered;
  for (Mode M : {Mode::ContextFlowHw, Mode::FlowHw}) {
    profdb::Artifact A = makeShard(Seed, 0, M, *Program);
    profdb::Artifact B = makeShard(Seed, 1, M, *Program);
    profdb::Artifact Before;
    std::string Error;
    ASSERT_TRUE(profdb::mergeArtifacts(A, B, Before, Error)) << Error;
    std::vector<uint8_t> BeforeBytes = profdb::encodeArtifact(Before);

    for (Rejection &Case : rejections(A)) {
      SCOPED_TRACE(Case.Expect);
      Covered.insert(Case.Expect);
      profdb::Fold F;
      ASSERT_TRUE(F.add(A, Error)) << Error;
      ASSERT_TRUE(F.add(B, Error)) << Error;
      Error.clear();
      std::vector<uint8_t> BadBytes = profdb::encodeArtifact(Case.Bad);
      EXPECT_FALSE(F.add(std::move(Case.Bad), Error));
      EXPECT_NE(Error.find(Case.Expect), std::string::npos) << Error;
      // Nothing moved: the input count, the run count and the emitted
      // bytes are exactly those of the fold that never saw the input,
      // and the refused input is whole.
      EXPECT_EQ(F.inputs(), 2u);
      EXPECT_EQ(F.result().RunCount, 2u);
      EXPECT_EQ(profdb::encodeArtifact(F.result()), BeforeBytes);
      EXPECT_EQ(profdb::encodeArtifact(Case.Bad), BadBytes);
    }
  }
  EXPECT_EQ(Covered.size(), 19u);
}

TEST(ProfDbShapeTest, HeaderRejectionsRefuseDiffAndSplitTheRoutingKey) {
  // Merge, diff and the collector's routing key share one shape check:
  // every header rejection a fold makes, diff makes with the same reason,
  // and the routing key tells the two artifacts apart. The tree
  // rejections pass the shape check, so their keys stay equal.
  const uint64_t Seed = 2029;
  auto Program = makeProgram(Seed);
  unsigned Headers = 0;
  for (Mode M : {Mode::ContextFlowHw, Mode::FlowHw}) {
    profdb::Artifact Base = makeShard(Seed, 0, M, *Program);
    const std::string BaseKey = profdb::shapeKey(Base);
    profdb::ArtifactDiff Diff;
    std::string Error;
    EXPECT_EQ(profdb::shapeKey(profdb::cloneArtifact(Base)), BaseKey);
    EXPECT_TRUE(
        profdb::diffArtifacts(Base, profdb::cloneArtifact(Base), Diff, Error))
        << Error;

    for (Rejection &Case : rejections(Base)) {
      SCOPED_TRACE(Case.Expect);
      bool Passes = profdb::checkShape(Base, Base.Tree != nullptr, Case.Bad,
                                       Case.Bad.Tree != nullptr, "merge",
                                       Error);
      EXPECT_EQ(Passes, !Case.Header) << Error;
      EXPECT_EQ(profdb::shapeKey(Case.Bad) == BaseKey, Passes);
      if (!Case.Header)
        continue;
      ++Headers;
      profdb::Artifact Out;
      std::string MergeError, DiffError;
      EXPECT_FALSE(profdb::mergeArtifacts(Base, Case.Bad, Out, MergeError));
      EXPECT_FALSE(profdb::diffArtifacts(Base, Case.Bad, Diff, DiffError));
      // The same reason, naming the operation refused.
      std::string Expect = Case.Expect;
      for (std::string *Text : {&Expect, &MergeError})
        if (size_t Verb = Text->find("merge"); Verb != std::string::npos)
          Text->replace(Verb, 5, "diff");
      EXPECT_NE(DiffError.find(Expect), std::string::npos) << DiffError;
      EXPECT_EQ(DiffError, MergeError);
    }
  }
  EXPECT_EQ(Headers, 12u);
}

TEST(ProfDbFoldTest, CraftedSlotsAreMergeErrorsNotAborts) {
  // Both trees decode cleanly, and emitting either merge would trip an
  // assertion in enter(): the fold must refuse them with typed errors.
  const uint64_t Seed = 2029;
  auto Program = makeProgram(Seed);
  profdb::Artifact Base = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);
  profdb::Artifact Out;
  std::string Error;

  profdb::Artifact Extra = withEditedTree(Base, moveChildToExtraSlot);
  EXPECT_FALSE(profdb::mergeArtifacts(Extra, Base, Out, Error));
  EXPECT_NE(Error.find("slot count"), std::string::npos) << Error;

  profdb::Artifact Swapped = withEditedTree(Base, swapLeafCallee);
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, Swapped, Out, Error));
  EXPECT_NE(Error.find("two different callees"), std::string::npos) << Error;
  // On its own the swapped tree is sound.
  EXPECT_TRUE(profdb::mergeArtifacts(Swapped, Swapped, Out, Error)) << Error;
}

TEST(ProfDbFoldTest, FoldMergeAllAndPairwiseFoldAgreeOverShuffles) {
  const uint64_t Seed = 2031;
  auto Program = makeProgram(Seed);
  std::vector<profdb::Artifact> Shards = foldShards(Seed, 8, *Program);
  std::vector<size_t> Order(Shards.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<uint8_t> Reference;
  std::mt19937_64 Rng(11);
  for (unsigned Trial = 0; Trial != 4; ++Trial) {
    SCOPED_TRACE(Trial);
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::string Error;

    profdb::Fold F;
    for (size_t Index : Order)
      ASSERT_TRUE(F.add(Shards[Index], Error)) << Error;
    std::vector<uint8_t> Folded = profdb::encodeArtifact(F.take());
    if (Reference.empty())
      Reference = Folded;
    EXPECT_EQ(Folded, Reference);

    profdb::Artifact Out;
    ASSERT_TRUE(profdb::mergeAll(cloneAll(Shards, Order), Out, Error))
        << Error;
    EXPECT_EQ(profdb::encodeArtifact(Out), Reference);

    profdb::Artifact Left = profdb::cloneArtifact(Shards[Order[0]]);
    for (size_t I = 1; I != Order.size(); ++I) {
      profdb::Artifact Next;
      ASSERT_TRUE(profdb::mergeArtifacts(Left, Shards[Order[I]], Next, Error))
          << Error;
      Left = std::move(Next);
    }
    EXPECT_EQ(profdb::encodeArtifact(Left), Reference);
  }
}

TEST(ProfDbFoldTest, SingleInputMergeAllReturnsTheInput) {
  const uint64_t Seed = 2031;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 1, Mode::ContextFlowHw, *Program);
  std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  std::vector<profdb::Artifact> One;
  One.push_back(std::move(A));
  profdb::Artifact Out;
  std::string Error;
  ASSERT_TRUE(profdb::mergeAll(std::move(One), Out, Error)) << Error;
  EXPECT_EQ(profdb::encodeArtifact(Out), Bytes);
}

TEST(ProfDbFoldTest, MergedSumsMatchAnOracleOutsideTheMergeCode) {
  for (uint64_t Seed : {2033u, 2035u}) {
    SCOPED_TRACE(Seed);
    auto Program = makeProgram(Seed);
    std::vector<profdb::Artifact> Shards = foldShards(Seed, 6, *Program);
    ContextSums Expected;
    for (const profdb::Artifact &Shard : Shards)
      for (const auto &[Key, Values] : contextSums(Shard)) {
        std::vector<uint64_t> &Into = Expected[Key];
        Into.resize(std::max(Into.size(), Values.size()), 0);
        for (size_t I = 0; I != Values.size(); ++I)
          Into[I] += Values[I];
      }
    std::vector<size_t> Order(Shards.size());
    std::iota(Order.begin(), Order.end(), 0);
    profdb::Artifact Merged;
    std::string Error;
    ASSERT_TRUE(profdb::mergeAll(cloneAll(Shards, Order), Merged, Error))
        << Error;
    EXPECT_EQ(contextSums(Merged), Expected);
  }
}

TEST(ProfDbDiffTest, SelfDiffIsEmptyAndShardDiffIsNot) {
  const uint64_t Seed = 5;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);
  profdb::Artifact B = makeShard(Seed, 2, Mode::ContextFlowHw, *Program);

  profdb::ArtifactDiff SelfDiff;
  std::string Error;
  ASSERT_TRUE(profdb::diffArtifacts(A, A, SelfDiff, Error)) << Error;
  EXPECT_TRUE(SelfDiff.Paths.empty());
  EXPECT_TRUE(SelfDiff.Contexts.empty());

  // Shards 0 and 2 differ only in D-cache size: same contexts, different
  // miss metrics — the diff must surface deltas.
  profdb::ArtifactDiff ShardDiff;
  ASSERT_TRUE(profdb::diffArtifacts(A, B, ShardDiff, Error)) << Error;
  EXPECT_FALSE(ShardDiff.Contexts.empty());
}

//===----------------------------------------------------------------------===//
// Disk store
//===----------------------------------------------------------------------===//

TEST(ProfDbStoreTest, WriteReadListRoundTrip) {
  char Template[] = "/tmp/pp-profdb-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);

  const uint64_t Seed = 3;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);
  profdb::Artifact B = makeShard(Seed, 1, Mode::ContextFlowHw, *Program);

  std::string PathA =
      std::string(Dir) + "/" + profdb::artifactFileName(A.Fingerprint);
  std::string PathB =
      std::string(Dir) + "/" + profdb::artifactFileName(B.Fingerprint);
  std::string Error;
  ASSERT_TRUE(profdb::writeArtifactFile(PathA, A, Error)) << Error;
  ASSERT_TRUE(profdb::writeArtifactFile(PathB, B, Error)) << Error;

  // Entries named *.ppa that are not artifacts: a directory and a dangling
  // link are not listed; a link to a real artifact is.
  std::string Link = std::string(Dir) + "/link.ppa";
  ASSERT_EQ(::mkdir((std::string(Dir) + "/dir.ppa").c_str(), 0755), 0);
  ASSERT_EQ(::symlink((std::string(Dir) + "/absent").c_str(),
                      (std::string(Dir) + "/dangling.ppa").c_str()),
            0);
  ASSERT_EQ(::symlink(PathA.c_str(), Link.c_str()), 0);

  std::vector<std::string> Expected = {PathA, PathB, Link};
  std::sort(Expected.begin(), Expected.end());
  EXPECT_EQ(profdb::listArtifactFiles(Dir), Expected);

  profdb::Artifact Back;
  ASSERT_EQ(profdb::readArtifactFile(PathA, Back), profdb::DecodeStatus::Ok);
  EXPECT_EQ(profdb::encodeArtifact(Back), profdb::encodeArtifact(A));

  EXPECT_EQ(profdb::readArtifactFile(std::string(Dir) + "/absent.ppa", Back),
            profdb::DecodeStatus::Unreadable);

  std::string Cmd = std::string("rm -rf ") + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(ProfDbStoreTest, WriteCreatesNestedParentDirectories) {
  char Template[] = "/tmp/pp-profdb-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);

  const uint64_t Seed = 3;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);

  // Three missing levels below the temp root; writeArtifactFile used to
  // create only the last one and fail with ENOENT on the mkstemp.
  std::string Nested = std::string(Dir) + "/tenant-7/2026-08/w042";
  std::string Path = Nested + "/" + profdb::artifactFileName(A.Fingerprint);
  std::string Error;
  ASSERT_TRUE(profdb::writeArtifactFile(Path, A, Error)) << Error;

  profdb::Artifact Back;
  ASSERT_EQ(profdb::readArtifactFile(Path, Back), profdb::DecodeStatus::Ok);
  EXPECT_EQ(profdb::encodeArtifact(Back), profdb::encodeArtifact(A));

  std::vector<std::string> Files = profdb::listArtifactFiles(Nested);
  ASSERT_EQ(Files.size(), 1u);

  // An unwritable parent still reports a typed error, not success.
  Error.clear();
  EXPECT_FALSE(profdb::writeArtifactFile(
      "/proc/no-such-root/a/b/" + profdb::artifactFileName(A.Fingerprint), A,
      Error));
  EXPECT_NE(Error.find("cannot create directory"), std::string::npos) << Error;

  std::string Cmd = std::string("rm -rf ") + Dir;
  (void)std::system(Cmd.c_str());
}

//===----------------------------------------------------------------------===//
// File reads (profdb::readFile)
//===----------------------------------------------------------------------===//

namespace {

/// A fresh directory under /tmp, removed with everything in it.
class ProfDbReadTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/pp-profdb-read-XXXXXX";
    const char *Made = mkdtemp(Template);
    ASSERT_NE(Made, nullptr);
    Dir = Made;
  }
  void TearDown() override {
    std::string Cmd = "rm -rf " + Dir;
    (void)std::system(Cmd.c_str());
  }

  std::string write(const std::string &Name,
                    const std::vector<uint8_t> &Bytes) {
    std::string Path = Dir + "/" + Name;
    std::string Error;
    EXPECT_TRUE(profdb::writeFileAtomic(Path, Bytes, Error)) << Error;
    return Path;
  }

  std::string Dir;
};

} // namespace

// Opening a FIFO for reading waits for a writer unless the reader refuses
// it first; ctest's TIMEOUT on this binary turns such a wait into a
// failure instead of a hung suite.
TEST_F(ProfDbReadTest, FifoIsUnreadableAndReturnsAtOnce) {
  std::string Path = Dir + "/x.ppa";
  ASSERT_EQ(::mkfifo(Path.c_str(), 0644), 0);
  std::vector<uint8_t> Bytes;
  EXPECT_FALSE(profdb::readFile(Path, Bytes));
  profdb::Artifact A;
  EXPECT_EQ(profdb::readArtifactFile(Path, A), profdb::DecodeStatus::Unreadable);
  EXPECT_TRUE(profdb::listArtifactFiles(Dir).empty());
}

TEST_F(ProfDbReadTest, EmptyFileDecodesAsTooShort) {
  std::string Path = write("empty.ppa", {});
  std::vector<uint8_t> Bytes = {1, 2, 3};
  ASSERT_TRUE(profdb::readFile(Path, Bytes));
  EXPECT_TRUE(Bytes.empty());
  profdb::Artifact A;
  EXPECT_EQ(profdb::readArtifactFile(Path, A), profdb::DecodeStatus::TooShort);
}

TEST_F(ProfDbReadTest, OneMebibyteFileRoundTripsByteForByte) {
  std::vector<uint8_t> Content(1 << 20);
  std::mt19937_64 Rng(7);
  for (uint8_t &Byte : Content)
    Byte = static_cast<uint8_t>(Rng());
  std::string Path = write("big.bin", Content);
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(profdb::readFile(Path, Bytes));
  EXPECT_EQ(Bytes, Content);
}

TEST_F(ProfDbReadTest, LongerBufferComesBackExactlyTheFileSize) {
  std::vector<uint8_t> Content = {'P', 'P', 'D', 'B', 0, 1, 2};
  std::string Path = write("short.bin", Content);
  std::vector<uint8_t> Bytes(4096, 0xee);
  ASSERT_TRUE(profdb::readFile(Path, Bytes));
  EXPECT_EQ(Bytes, Content);

  // One buffer reused across files of both sizes.
  std::string Big = write("big.bin", std::vector<uint8_t>(10000, 0x5a));
  ASSERT_TRUE(profdb::readFile(Big, Bytes));
  EXPECT_EQ(Bytes.size(), 10000u);
  ASSERT_TRUE(profdb::readFile(Path, Bytes));
  EXPECT_EQ(Bytes, Content);

  // A directory is not a file; a failed read reports false.
  EXPECT_FALSE(profdb::readFile(Dir, Bytes));
  EXPECT_FALSE(profdb::readFile(Dir + "/absent.bin", Bytes));
}
