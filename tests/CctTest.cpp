//===- tests/CctTest.cpp - calling context tree unit tests --------------------===//

#include "cct/CallingContextTree.h"
#include "cct/DynamicCallTree.h"
#include "cct/Export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <random>

using namespace pp;
using namespace pp::cct;

namespace {

/// Procedures for the Figure 4 world: M(0) calls A(1) and D(4); A calls
/// B(2); B calls C(3); D calls C.
std::vector<ProcDesc> fig4Procs() {
  std::vector<ProcDesc> Procs(5);
  Procs[0] = {"M", 2, {0, 0}, 0}; // M has two call sites
  Procs[1] = {"A", 1, {0}, 0};
  Procs[2] = {"B", 1, {0}, 0};
  Procs[3] = {"C", 0, {}, 0};
  Procs[4] = {"D", 1, {0}, 0};
  return Procs;
}

} // namespace

TEST(Cct, Fig4ContextsStayDistinct) {
  CallingContextTree Tree(fig4Procs(), 1);
  CallRecord *M = Tree.enter(Tree.root(), 0, 0);
  CallRecord *A = Tree.enter(M, 0, 1);
  CallRecord *B = Tree.enter(A, 0, 2);
  CallRecord *C1 = Tree.enter(B, 0, 3);
  CallRecord *D = Tree.enter(M, 1, 4);
  CallRecord *C2 = Tree.enter(D, 0, 3);

  // The paper's point: C under M-A-B and C under M-D are distinct vertices.
  EXPECT_NE(C1, C2);
  EXPECT_EQ(C1->parent(), B);
  EXPECT_EQ(C2->parent(), D);
  EXPECT_EQ(Tree.numRecords(), 7u); // root + M A B C D C'

  // Re-entering through resolved slots returns the same records.
  EXPECT_EQ(Tree.enter(M, 0, 1), A);
  EXPECT_EQ(Tree.enter(B, 0, 3), C1);
  EXPECT_EQ(Tree.enter(D, 0, 3), C2);
  EXPECT_EQ(Tree.numRecords(), 7u);
}

TEST(Cct, DepthsAndAddressesAreAssigned) {
  CallingContextTree Tree(fig4Procs(), 1);
  CallRecord *M = Tree.enter(Tree.root(), 0, 0);
  CallRecord *A = Tree.enter(M, 0, 1);
  EXPECT_EQ(Tree.root()->depth(), 0u);
  EXPECT_EQ(M->depth(), 1u);
  EXPECT_EQ(A->depth(), 2u);
  EXPECT_GE(M->addr(), layout::CctHeapBase);
  EXPECT_NE(M->addr(), A->addr());
  EXPECT_GT(Tree.heapBytes(), 0u);
}

TEST(Cct, RecursionCollapsesOntoAncestor) {
  // A(0) calls B(1); B calls A. Entering A below B must find the ancestor
  // A record, forming a backedge and bounding the depth.
  std::vector<ProcDesc> Procs(2);
  Procs[0] = {"A", 1, {0}, 0};
  Procs[1] = {"B", 1, {0}, 0};
  // Root slot 0 -> A.
  CallingContextTree Tree(Procs, 1);
  CallRecord *A = Tree.enter(Tree.root(), 0, 0);
  CallRecord *B = Tree.enter(A, 0, 1);
  CallRecord *A2 = Tree.enter(B, 0, 0);
  EXPECT_EQ(A2, A) << "recursive call must reuse the ancestor record";
  // Going around the cycle again only revisits existing records.
  CallRecord *B2 = Tree.enter(A2, 0, 1);
  EXPECT_EQ(B2, B);
  EXPECT_EQ(Tree.numRecords(), 3u); // root, A, B

  CctStats Stats = Tree.computeStats();
  EXPECT_EQ(Stats.BackedgeSlots, 1u);
  EXPECT_EQ(Stats.MaxDepth, 2u);
}

TEST(Cct, SelfRecursionIsABackedgeToo) {
  std::vector<ProcDesc> Procs(1);
  Procs[0] = {"A", 1, {0}, 0};
  CallingContextTree Tree(Procs, 1);
  CallRecord *A = Tree.enter(Tree.root(), 0, 0);
  CallRecord *A2 = Tree.enter(A, 0, 0);
  EXPECT_EQ(A2, A);
  EXPECT_EQ(Tree.numRecords(), 2u);
}

TEST(Cct, IndirectSitesKeepListsWithMoveToFront) {
  // P(0) has one indirect site that dynamically calls X(1), Y(2), X...
  std::vector<ProcDesc> Procs(3);
  Procs[0] = {"P", 1, {1}, 0}; // indirect
  Procs[1] = {"X", 0, {}, 0};
  Procs[2] = {"Y", 0, {}, 0};
  CallingContextTree Tree(Procs, 1);
  CallRecord *P = Tree.enter(Tree.root(), 0, 0);
  CallRecord *X = Tree.enter(P, 0, 1);
  CallRecord *Y = Tree.enter(P, 0, 2);
  EXPECT_NE(X, Y);
  // The list now fronts Y; finding X again moves it back to the front.
  const CallRecord::Slot &S = P->slot(0);
  ASSERT_EQ(S.K, CallRecord::Slot::Kind::List);
  ASSERT_EQ(S.List.size(), 2u);
  EXPECT_EQ(S.List.front().first, Y);
  CallRecord *XAgain = Tree.enter(P, 0, 1);
  EXPECT_EQ(XAgain, X);
  EXPECT_EQ(P->slot(0).List.front().first, X);
  EXPECT_EQ(Tree.numRecords(), 4u);
}

TEST(Cct, MetricsAccumulatePerRecord) {
  CallingContextTree Tree(fig4Procs(), 3);
  CallRecord *M = Tree.enter(Tree.root(), 0, 0);
  CallingContextTree::bumpMetric(M, 0, 1);
  CallingContextTree::bumpMetric(M, 1, 250);
  CallingContextTree::bumpMetric(M, 0, 1);
  EXPECT_EQ(M->Metrics[0], 2u);
  EXPECT_EQ(M->Metrics[1], 250u);
  EXPECT_EQ(M->Metrics[2], 0u);
}

TEST(Cct, PathCommitsLandInRecordTables) {
  std::vector<ProcDesc> Procs(1);
  Procs[0] = {"A", 0, {}, 6}; // 6 potential paths
  CallingContextTree Tree(Procs, 1);
  CallRecord *A = Tree.enter(Tree.root(), 0, 0);
  Tree.commitPath(A, 5, true, 10, 3);
  Tree.commitPath(A, 2, false, 0, 0);
  Tree.commitPath(A, 2, false, 0, 0);
  Tree.sortPathTables();
  ASSERT_EQ(A->PathTable.size(), 2u);
  EXPECT_EQ(A->PathTable[0].first, 2u);
  EXPECT_EQ(A->PathTable[0].second.Freq, 2u);
  EXPECT_EQ(A->PathTable[1].first, 5u);
  EXPECT_EQ(A->PathTable[1].second.Freq, 1u);
  EXPECT_EQ(A->PathTable[1].second.Metric0, 10u);
  EXPECT_EQ(A->PathTable[1].second.Metric1, 3u);
}

namespace {

/// Commits \p Sums into one record of a fresh tree (each sum twice, the
/// second time with metrics), sorting the tables after \p SortAfter
/// commits and again at the end, and checks the record's final table
/// against a std::map oracle.
void expectCommitsMatchOracle(const std::vector<uint64_t> &Sums,
                              size_t SortAfter) {
  std::vector<ProcDesc> Procs(1);
  Procs[0] = {"A", 0, {}, uint64_t(1) << 16};
  CallingContextTree Tree(Procs, 1);
  CallRecord *A = Tree.enter(Tree.root(), 0, 0);
  std::map<uint64_t, PathCell> Oracle;
  for (size_t Index = 0; Index != Sums.size(); ++Index) {
    if (Index == SortAfter)
      Tree.sortPathTables();
    uint64_t Sum = Sums[Index];
    Tree.commitPath(A, Sum, false, 0, 0);
    Tree.commitPath(A, Sum, true, Sum + 1, 2 * Sum);
    PathCell &Cell = Oracle[Sum];
    Cell.Freq += 2;
    Cell.Metric0 += Sum + 1;
    Cell.Metric1 += 2 * Sum;
  }
  Tree.sortPathTables();
  ASSERT_EQ(A->PathTable.size(), Oracle.size());
  size_t Index = 0;
  for (const auto &[Sum, Cell] : Oracle) {
    const auto &[GotSum, Got] = A->PathTable[Index++];
    ASSERT_EQ(GotSum, Sum);
    ASSERT_EQ(Got.Freq, Cell.Freq);
    ASSERT_EQ(Got.Metric0, Cell.Metric0);
    ASSERT_EQ(Got.Metric1, Cell.Metric1);
  }
}

} // namespace

// A live run meets path sums in any order; a table kept sorted on every
// insert goes quadratic on a descending run (about 3 s for this one,
// over five times the bound below).
TEST(Cct, ManyDistinctSumsEndAscendingInAnyCommitOrder) {
  constexpr uint64_t NumSums = uint64_t(1) << 16;
  std::vector<uint64_t> Descending(NumSums);
  for (uint64_t Index = 0; Index != NumSums; ++Index)
    Descending[Index] = NumSums - 1 - Index;
  auto T0 = std::chrono::steady_clock::now();
  expectCommitsMatchOracle(Descending, Descending.size());
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_LT(Seconds, 0.5);

  std::vector<uint64_t> Shuffled = Descending;
  std::shuffle(Shuffled.begin(), Shuffled.end(), std::mt19937_64(20260));
  expectCommitsMatchOracle(Shuffled, Shuffled.size());
  // Committing into a sorted table again re-indexes its cells first.
  expectCommitsMatchOracle(Shuffled, Shuffled.size() / 2);
}

TEST(Cct, StatsDescribeShape) {
  CallingContextTree Tree(fig4Procs(), 1);
  CallRecord *M = Tree.enter(Tree.root(), 0, 0);
  CallRecord *A = Tree.enter(M, 0, 1);
  CallRecord *B = Tree.enter(A, 0, 2);
  Tree.enter(B, 0, 3);
  CallRecord *D = Tree.enter(M, 1, 4);
  Tree.enter(D, 0, 3);

  CctStats Stats = Tree.computeStats();
  EXPECT_EQ(Stats.NumRecords, 7u);
  EXPECT_EQ(Stats.MaxDepth, 4u); // root M A B C
  EXPECT_EQ(Stats.MaxReplication, 2u); // C twice
  EXPECT_EQ(Stats.MaxReplicationProc, 3u);
  EXPECT_EQ(Stats.BackedgeSlots, 0u);
  // Slots: root 2 (entry + signal) + M 2 + A 1 + B 1 + C 0 + D 1 + C' 0.
  EXPECT_EQ(Stats.TotalSlots, 7u);
  EXPECT_EQ(Stats.UsedSlots, 6u);
  EXPECT_GT(Stats.AvgNodeBytes, 0.0);
}

TEST(Cct, ChargerSeesTraffic) {
  struct CountingCharger : MemCharger {
    uint64_t Touches = 0, Insts = 0;
    void touchMemory(uint64_t, unsigned, bool) override { ++Touches; }
    void chargeInsts(unsigned N) override { Insts += N; }
  };
  CountingCharger Charger;
  CallingContextTree Tree(fig4Procs(), 1, &Charger);
  uint64_t AfterRoot = Charger.Touches;
  CallRecord *M = Tree.enter(Tree.root(), 0, 0);
  EXPECT_GT(Charger.Touches, AfterRoot) << "enter must charge memory";
  uint64_t AfterFirst = Charger.Touches;
  Tree.enter(Tree.root(), 0, 0); // resolved slot: cheap but not free
  EXPECT_GT(Charger.Touches, AfterFirst);
  EXPECT_LT(Charger.Touches - AfterFirst, AfterFirst - AfterRoot);
  EXPECT_GT(Charger.Insts, 0u);
  (void)M;
}

TEST(Dct, TracksActivationsAndContexts) {
  DynamicCallTree Dct;
  // M; M->A; A->B; B->C; ret ret ret; M->D; D->C.
  Dct.enter(0);
  Dct.enter(1);
  Dct.enter(2);
  Dct.enter(3);
  Dct.exit();
  Dct.exit();
  Dct.exit();
  Dct.enter(4);
  Dct.enter(3);
  Dct.exit();
  Dct.exit();
  Dct.exit();
  EXPECT_EQ(Dct.numActivations(), 6u);
  // Distinct contexts = CCT size without recursion: M, MA, MAB, MABC, MD,
  // MDC = 6.
  EXPECT_EQ(Dct.numDistinctContexts(), 6u);
}

TEST(Dct, RepeatedCallsShareContexts) {
  DynamicCallTree Dct;
  Dct.enter(0);
  for (int Round = 0; Round != 5; ++Round) {
    Dct.enter(1);
    Dct.exit();
  }
  Dct.exit();
  EXPECT_EQ(Dct.numActivations(), 6u);
  EXPECT_EQ(Dct.numDistinctContexts(), 2u);
}

TEST(Dcg, EdgesAreDeduplicated) {
  DynamicCallGraph Dcg;
  Dcg.addCall(0, 1);
  Dcg.addCall(0, 1);
  Dcg.addCall(1, 2);
  EXPECT_EQ(Dcg.numEdges(), 2u);
  EXPECT_TRUE(Dcg.hasEdge(0, 1));
  EXPECT_FALSE(Dcg.hasEdge(2, 1));
}

TEST(CctExport, SerializeRoundTrips) {
  CallingContextTree Tree(fig4Procs(), 2);
  CallRecord *M = Tree.enter(Tree.root(), 0, 0);
  CallingContextTree::bumpMetric(M, 0, 3);
  CallRecord *A = Tree.enter(M, 0, 1);
  CallingContextTree::bumpMetric(A, 1, 77);

  std::vector<uint8_t> Bytes = serialize(Tree);
  std::vector<LoadedRecord> Loaded;
  ASSERT_TRUE(deserialize(Bytes, Loaded));
  ASSERT_EQ(Loaded.size(), 3u);
  EXPECT_EQ(Loaded[0].Proc, RootProcId);
  EXPECT_EQ(Loaded[0].Parent, -1);
  EXPECT_EQ(Loaded[1].Proc, 0u);
  EXPECT_EQ(Loaded[1].Parent, 0);
  EXPECT_EQ(Loaded[1].Metrics[0], 3u);
  EXPECT_EQ(Loaded[2].Parent, 1);
  EXPECT_EQ(Loaded[2].Metrics[1], 77u);
}

TEST(CctExport, DeserializeRejectsGarbage) {
  std::vector<uint8_t> Garbage(64, 0xab);
  std::vector<LoadedRecord> Loaded;
  EXPECT_FALSE(deserialize(Garbage, Loaded));
  std::vector<uint8_t> Truncated = {1, 2, 3};
  EXPECT_FALSE(deserialize(Truncated, Loaded));
}

TEST(CctExport, DotMarksBackedgesDashed) {
  std::vector<ProcDesc> Procs(2);
  Procs[0] = {"A", 1, {0}, 0};
  Procs[1] = {"B", 1, {0}, 0};
  CallingContextTree Tree(Procs, 1);
  CallRecord *A = Tree.enter(Tree.root(), 0, 0);
  CallRecord *B = Tree.enter(A, 0, 1);
  Tree.enter(B, 0, 0); // recursion: backedge B -> A
  std::string Dot = exportDot(Tree);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"A\""), std::string::npos);
  EXPECT_NE(Dot.find("label=\"T\""), std::string::npos);
}
