//===- profdb/Merge.cpp - Structural profile merging --------------------------===//

#include "profdb/Merge.h"

#include "obs/Obs.h"
#include "support/Env.h"
#include "support/Format.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

using namespace pp;
using namespace pp::profdb;

unsigned profdb::mergeThreadsFromEnv() {
  uint64_t Value;
  if (envUint64("PP_PROFDB_THREADS", "pp-profdb", Value) == EnvParse::Ok)
    return static_cast<unsigned>(
        std::max<uint64_t>(1, std::min<uint64_t>(Value, 64)));
  if (envFlag("PP_DRIVER_SERIAL", "pp-profdb"))
    return 1;
  // The driver fallback parses just as strictly: a malformed
  // PP_DRIVER_THREADS used to be skipped silently here while the
  // scheduler warned about the same variable — now both warn.
  if (envUint64("PP_DRIVER_THREADS", "pp-profdb", Value) == EnvParse::Ok)
    return static_cast<unsigned>(
        std::max<uint64_t>(1, std::min<uint64_t>(Value, 64)));
  return WorkerPool::hardwareDefault();
}

namespace {

/// The merge-time view of one CCT vertex: children keyed by (slot,
/// callee), backedges by (slot, callee, ancestor distance). std::map keys
/// make every traversal canonical regardless of the order the shards
/// presented their records in.
struct MNode {
  cct::ProcId Proc = cct::RootProcId;
  std::vector<uint64_t> Metrics;
  std::map<uint64_t, cct::PathCell> Cells;

  struct MSlot {
    uint8_t Kind = 0; // CallRecord::Slot::Kind
    std::map<cct::ProcId, std::unique_ptr<MNode>> Children;
    /// Recursion backedges: callee -> ancestor distance from the owner
    /// (0 = the owner itself, 1 = its parent, ...).
    std::map<cct::ProcId, unsigned> Backedges;
  };
  std::vector<MSlot> Slots;
};

constexpr uint8_t KindUnresolved =
    static_cast<uint8_t>(cct::CallRecord::Slot::Kind::Unresolved);

/// Lifts \p Image into the merge structure. Rejects images whose edges do
/// not form a tree-with-backedges (the only shape enter() can build).
bool buildMergedTree(const cct::TreeImage &Image, std::unique_ptr<MNode> &Out,
                     std::string &Error) {
  const auto &Records = Image.Records;
  if (Records.empty() || Records[0].Proc != cct::RootProcId ||
      Records[0].Parent != -1) {
    Error = "tree has no root record";
    return false;
  }
  size_t N = Records.size();
  std::vector<std::unique_ptr<MNode>> Owned(N);
  std::vector<MNode *> Node(N);
  std::vector<unsigned> Depth(N, 0);
  for (size_t Index = 0; Index != N; ++Index) {
    Owned[Index] = std::make_unique<MNode>();
    Node[Index] = Owned[Index].get();
    Node[Index]->Proc = Records[Index].Proc;
    Node[Index]->Metrics = Records[Index].Metrics;
    if (Node[Index]->Metrics.size() != Image.NumMetrics) {
      Error = "record metric vector disagrees with the tree's metric count";
      return false;
    }
    for (const auto &[Sum, Cell] : Records[Index].PathCells)
      Node[Index]->Cells[Sum] = Cell;
    Node[Index]->Slots.resize(Records[Index].Slots.size());
    if (Index == 0)
      continue;
    int64_t Parent = Records[Index].Parent;
    if (Parent < 0 || static_cast<size_t>(Parent) >= Index) {
      Error = "record parents do not precede their children";
      return false;
    }
    Depth[Index] = Depth[static_cast<size_t>(Parent)] + 1;
  }

  std::vector<uint8_t> Placed(N, 0);
  for (size_t Index = 0; Index != N; ++Index) {
    const cct::TreeImage::Record &Rec = Records[Index];
    for (size_t S = 0; S != Rec.Slots.size(); ++S) {
      MNode::MSlot &Slot = Node[Index]->Slots[S];
      Slot.Kind = Rec.Slots[S].Kind;
      for (const auto &[Target, CellAddr] : Rec.Slots[S].Targets) {
        (void)CellAddr; // list-cell addresses are reassigned canonically
        if (Target >= N) {
          Error = "slot target out of range";
          return false;
        }
        cct::ProcId Callee = Records[Target].Proc;
        if (Target != Index &&
            Records[Target].Parent == static_cast<int64_t>(Index)) {
          // Tree edge: this slot owns the child.
          if (Placed[Target]) {
            Error = "record claimed as a child by two slots";
            return false;
          }
          if (Slot.Children.count(Callee) || Slot.Backedges.count(Callee)) {
            Error = "duplicate callee in one call-site slot";
            return false;
          }
          Slot.Children[Callee] = std::move(Owned[Target]);
          Placed[Target] = 1;
        } else {
          // Must be a recursion backedge: the target is the owner or one
          // of its ancestors.
          size_t Walk = Index;
          for (;;) {
            if (Walk == Target)
              break;
            if (Records[Walk].Parent < 0) {
              Error = "slot target is neither a child nor an ancestor";
              return false;
            }
            Walk = static_cast<size_t>(Records[Walk].Parent);
          }
          unsigned Distance = Depth[Index] - Depth[Target];
          auto It = Slot.Backedges.find(Callee);
          if (Slot.Children.count(Callee) ||
              (It != Slot.Backedges.end() && It->second != Distance)) {
            Error = "conflicting backedge for one call-site slot";
            return false;
          }
          Slot.Backedges[Callee] = Distance;
        }
      }
    }
  }
  for (size_t Index = 1; Index != N; ++Index)
    if (!Placed[Index]) {
      Error = "orphan record: no slot of its parent reaches it";
      return false;
    }
  Out = std::move(Owned[0]);
  return true;
}

/// Sums \p B into \p A, uniting structure. \p B is consumed (unmatched
/// subtrees are moved, not copied).
bool overlay(MNode &A, MNode &B, std::string &Error) {
  if (A.Proc != B.Proc) {
    Error = "procedure mismatch between matched records";
    return false;
  }
  if (A.Metrics.size() != B.Metrics.size()) {
    Error = "metric vector length mismatch between matched records";
    return false;
  }
  for (size_t Index = 0; Index != A.Metrics.size(); ++Index)
    A.Metrics[Index] += B.Metrics[Index];
  for (const auto &[Sum, Cell] : B.Cells) {
    cct::PathCell &Into = A.Cells[Sum];
    Into.Freq += Cell.Freq;
    Into.Metric0 += Cell.Metric0;
    Into.Metric1 += Cell.Metric1;
  }
  if (A.Slots.size() != B.Slots.size()) {
    Error = "call-site count mismatch between matched records";
    return false;
  }
  for (size_t S = 0; S != A.Slots.size(); ++S) {
    MNode::MSlot &SA = A.Slots[S];
    MNode::MSlot &SB = B.Slots[S];
    if (SA.Kind == KindUnresolved)
      SA.Kind = SB.Kind;
    else if (SB.Kind != KindUnresolved && SB.Kind != SA.Kind) {
      Error = "call-site slot kind conflict (direct vs indirect)";
      return false;
    }
    for (auto &[Callee, Child] : SB.Children) {
      if (SA.Backedges.count(Callee)) {
        Error = "callee is a child in one profile, recursion in the other";
        return false;
      }
      auto It = SA.Children.find(Callee);
      if (It == SA.Children.end())
        SA.Children[Callee] = std::move(Child);
      else if (!overlay(*It->second, *Child, Error))
        return false;
    }
    for (const auto &[Callee, Distance] : SB.Backedges) {
      if (SA.Children.count(Callee)) {
        Error = "callee is a child in one profile, recursion in the other";
        return false;
      }
      auto It = SA.Backedges.find(Callee);
      if (It == SA.Backedges.end())
        SA.Backedges[Callee] = Distance;
      else if (It->second != Distance) {
        Error = "recursion backedge height mismatch";
        return false;
      }
    }
  }
  return true;
}

/// Replays the merged structure through the real CCT allocator in a
/// canonical order — node, then its slots in index order, each slot's
/// callees in ascending ProcId order — so addresses, heap usage, and list
/// layout depend only on the merged structure.
bool emitNode(cct::CallingContextTree &Tree, cct::CallRecord *R, MNode &N,
              std::string &Error) {
  R->Metrics = N.Metrics;
  for (const auto &[Sum, Cell] : N.Cells)
    R->PathTable.emplace(Sum, Cell);
  for (size_t S = 0; S != N.Slots.size(); ++S) {
    MNode::MSlot &Slot = N.Slots[S];
    auto Child = Slot.Children.begin();
    auto Back = Slot.Backedges.begin();
    // Interleave children and backedges in one ascending callee order.
    while (Child != Slot.Children.end() || Back != Slot.Backedges.end()) {
      bool TakeChild =
          Back == Slot.Backedges.end() ||
          (Child != Slot.Children.end() && Child->first < Back->first);
      if (TakeChild) {
        cct::CallRecord *C =
            Tree.enter(R, static_cast<unsigned>(S), Child->first);
        if (C->parent() != R) {
          Error = "merged child callee collides with an ancestor";
          return false;
        }
        if (!emitNode(Tree, C, *Child->second, Error))
          return false;
        ++Child;
      } else {
        cct::CallRecord *C =
            Tree.enter(R, static_cast<unsigned>(S), Back->first);
        if (C->depth() + Back->second != R->depth()) {
          Error = "recursion backedge resolved to an unexpected ancestor";
          return false;
        }
        ++Back;
      }
    }
  }
  return true;
}

bool mergeTrees(const cct::CallingContextTree &A,
                const cct::CallingContextTree &B,
                std::unique_ptr<cct::CallingContextTree> &Out,
                std::string &Error) {
  cct::TreeImage ImageA = A.image();
  cct::TreeImage ImageB = B.image();
  if (ImageA.NumMetrics != ImageB.NumMetrics ||
      ImageA.PathCellBytes != ImageB.PathCellBytes ||
      ImageA.HashThreshold != ImageB.HashThreshold) {
    Error = "CCT geometry mismatch (metrics / path-cell stride / hash "
            "threshold)";
    return false;
  }
  if (ImageA.Procs.size() != ImageB.Procs.size()) {
    Error = "CCT procedure tables differ";
    return false;
  }
  for (size_t Index = 0; Index != ImageA.Procs.size(); ++Index) {
    const cct::ProcDesc &PA = ImageA.Procs[Index];
    const cct::ProcDesc &PB = ImageB.Procs[Index];
    if (PA.Name != PB.Name || PA.NumSites != PB.NumSites ||
        PA.SiteIsIndirect != PB.SiteIsIndirect ||
        PA.NumPaths != PB.NumPaths) {
      Error = "CCT procedure tables differ";
      return false;
    }
  }

  std::unique_ptr<MNode> Merged, Other;
  if (!buildMergedTree(ImageA, Merged, Error) ||
      !buildMergedTree(ImageB, Other, Error) ||
      !overlay(*Merged, *Other, Error))
    return false;

  auto Tree = std::make_unique<cct::CallingContextTree>(
      ImageA.Procs, ImageA.NumMetrics, nullptr, ImageA.PathCellBytes,
      ImageA.HashThreshold);
  if (!emitNode(*Tree, Tree->root(), *Merged, Error))
    return false;
  Out = std::move(Tree);
  return true;
}

bool mergePathProfiles(const std::vector<prof::FunctionPathProfile> &A,
                       const std::vector<prof::FunctionPathProfile> &B,
                       std::vector<prof::FunctionPathProfile> &Out,
                       std::string &Error) {
  if (A.size() != B.size()) {
    Error = "path-profile function counts differ";
    return false;
  }
  Out.clear();
  Out.reserve(A.size());
  for (size_t Index = 0; Index != A.size(); ++Index) {
    const prof::FunctionPathProfile &PA = A[Index];
    const prof::FunctionPathProfile &PB = B[Index];
    // Cross-k sums share numeric values but name different paths; refuse
    // with the specific reason before the generic shape complaint.
    if (PA.KIters != PB.KIters) {
      Error = formatString(
          "cannot merge path profiles across k for function %u: "
          "k=%u vs k=%u",
          PA.FuncId, PA.KIters, PB.KIters);
      return false;
    }
    if (PA.FuncId != PB.FuncId || PA.HasProfile != PB.HasProfile ||
        PA.NumPaths != PB.NumPaths || PA.Hashed != PB.Hashed) {
      Error = formatString("path-profile shape differs for function %u",
                           PA.FuncId);
      return false;
    }
    prof::FunctionPathProfile Merged;
    Merged.FuncId = PA.FuncId;
    Merged.HasProfile = PA.HasProfile;
    Merged.NumPaths = PA.NumPaths;
    Merged.Hashed = PA.Hashed;
    Merged.KIters = PA.KIters;
    // Both sides are sorted by PathSum; a merge walk keeps the output
    // sorted and sums entries present in both.
    size_t IA = 0, IB = 0;
    while (IA != PA.Paths.size() || IB != PB.Paths.size()) {
      bool TakeA = IB == PB.Paths.size() ||
                   (IA != PA.Paths.size() &&
                    PA.Paths[IA].PathSum <= PB.Paths[IB].PathSum);
      bool TakeB = IA == PA.Paths.size() ||
                   (IB != PB.Paths.size() &&
                    PB.Paths[IB].PathSum <= PA.Paths[IA].PathSum);
      prof::PathEntry Entry;
      if (TakeA && TakeB) {
        Entry = PA.Paths[IA];
        Entry.Freq += PB.Paths[IB].Freq;
        Entry.Metric0 += PB.Paths[IB].Metric0;
        Entry.Metric1 += PB.Paths[IB].Metric1;
        ++IA, ++IB;
      } else if (TakeA) {
        Entry = PA.Paths[IA++];
      } else {
        Entry = PB.Paths[IB++];
      }
      Merged.Paths.push_back(Entry);
    }
    Out.push_back(std::move(Merged));
  }
  return true;
}

} // namespace

bool profdb::mergeArtifacts(const Artifact &A, const Artifact &B,
                            Artifact &Out, std::string &Error) {
  // A k mismatch is a schema mismatch too, but deserves its own message:
  // the artifacts may agree on every metric and still count incomparable
  // path spaces.
  if (A.Schema.K != B.Schema.K) {
    Error = formatString("cannot merge artifacts across k: k=%u vs k=%u",
                         A.Schema.K, B.Schema.K);
    return false;
  }
  if (A.Schema != B.Schema) {
    Error = formatString(
        "incompatible metric schemas: (%s, PIC0=%s, PIC1=%s, acq=%s) vs "
        "(%s, PIC0=%s, PIC1=%s, acq=%s)",
        A.Schema.Mode.c_str(), A.Schema.Pic0.c_str(), A.Schema.Pic1.c_str(),
        A.Schema.Acquisition.c_str(), B.Schema.Mode.c_str(),
        B.Schema.Pic0.c_str(), B.Schema.Pic1.c_str(),
        B.Schema.Acquisition.c_str());
    return false;
  }
  if (A.Workload != B.Workload || A.Scale != B.Scale) {
    Error = formatString("different programs: %s (scale %llu) vs %s "
                         "(scale %llu)",
                         A.Workload.c_str(),
                         static_cast<unsigned long long>(A.Scale),
                         B.Workload.c_str(),
                         static_cast<unsigned long long>(B.Scale));
    return false;
  }
  if (A.Functions != B.Functions) {
    Error = "function tables differ (artifacts come from different module "
            "builds)";
    return false;
  }
  if (static_cast<bool>(A.Tree) != static_cast<bool>(B.Tree)) {
    Error = "one artifact has a CCT and the other does not";
    return false;
  }

  Artifact Merged;
  Merged.RunCount = A.RunCount + B.RunCount;
  Merged.SourceHash = A.SourceHash ^ B.SourceHash;
  Merged.Fingerprint = formatString(
      "merged;v1;runs=%llu;src=%016llx",
      static_cast<unsigned long long>(Merged.RunCount),
      static_cast<unsigned long long>(Merged.SourceHash));
  Merged.Workload = A.Workload;
  Merged.Scale = A.Scale;
  Merged.Schema = A.Schema;
  Merged.ExecutedInsts = A.ExecutedInsts + B.ExecutedInsts;
  for (size_t Index = 0; Index != Merged.Totals.size(); ++Index)
    Merged.Totals[Index] = A.Totals[Index] + B.Totals[Index];
  Merged.Functions = A.Functions;
  if (!mergePathProfiles(A.PathProfiles, B.PathProfiles, Merged.PathProfiles,
                         Error))
    return false;
  if (A.Tree && !mergeTrees(*A.Tree, *B.Tree, Merged.Tree, Error))
    return false;
  Out = std::move(Merged);
  return true;
}

bool profdb::mergeAll(std::vector<Artifact> Shards, Artifact &Out,
                      std::string &Error, unsigned Threads) {
  if (Shards.empty()) {
    Error = "no artifacts to merge";
    return false;
  }
  // One pool per call, as wide as the first (widest) wave allows; with 0
  // workers drain() runs each wave's pair merges here, in pair order.
  size_t Widest = Shards.size() / 2;
  WorkerPool Pool(Threads > 1 && Widest > 1
                      ? static_cast<unsigned>(std::min<size_t>(Threads, Widest))
                      : 0);
  unsigned Wave = 0;
  while (Shards.size() > 1) {
    size_t Pairs = Shards.size() / 2;
    // One span per reduction wave; work = runs folded this wave, which
    // depends only on the shard list, never on Threads.
    obs::SpanScope WaveSpan("profdb", "merge_wave",
                            "wave" + std::to_string(Wave++), 0, Pairs);
    uint64_t WaveRuns = 0;
    for (size_t Pair = 0; Pair != Pairs; ++Pair)
      WaveRuns += Shards[2 * Pair].RunCount + Shards[2 * Pair + 1].RunCount;
    WaveSpan.setWork(WaveRuns);
    obs::add(obs::Counter::ProfDbMerges, Pairs);
    std::vector<Artifact> Next(Pairs + Shards.size() % 2);
    std::vector<std::string> Errors(Pairs);
    std::vector<uint8_t> Failed(Pairs, 0);
    // The (2i, 2i+1) pairing is a function of position only; the pool
    // just decides which thread merges a pair, so the reduction tree —
    // and with it the merged bytes — cannot depend on the schedule.
    for (size_t Pair = 0; Pair != Pairs; ++Pair)
      Pool.post([&, Pair] {
        if (!mergeArtifacts(Shards[2 * Pair], Shards[2 * Pair + 1],
                            Next[Pair], Errors[Pair]))
          Failed[Pair] = 1;
      });
    Pool.drain();
    for (size_t Pair = 0; Pair != Pairs; ++Pair)
      if (Failed[Pair]) {
        Error = Errors[Pair];
        return false;
      }
    if (Shards.size() % 2)
      Next.back() = std::move(Shards.back());
    Shards = std::move(Next);
  }
  Out = std::move(Shards.front());
  return true;
}
