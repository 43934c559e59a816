//===- profdb/Merge.cpp - Structural profile merging --------------------------===//

#include "profdb/Merge.h"

#include "obs/Obs.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <unordered_set>

using namespace pp;
using namespace pp::profdb;

unsigned profdb::mergeThreadsFromEnv() { return 1; }

/// One merged CCT vertex. Its edges are the resolved call-site slots,
/// ascending by (slot, callee), which is the canonical emission order. A
/// child edge owns the callee's vertex; a recursion backedge has no child
/// and records the ancestor's distance instead (0 = the owner itself,
/// 1 = its parent, ...).
struct Fold::Node {
  struct Edge {
    uint64_t Key = 0; // slot << 32 | callee
    unsigned Distance = 0;
    std::unique_ptr<Node> Child;

    unsigned slot() const { return static_cast<unsigned>(Key >> 32); }
    cct::ProcId callee() const { return static_cast<cct::ProcId>(Key); }
  };

  cct::ProcId Proc = cct::RootProcId;
  std::vector<uint64_t> Metrics;
  /// Per-path counters, ascending by path sum.
  std::vector<std::pair<uint64_t, cct::PathCell>> Cells;
  std::vector<Edge> Edges;
};

namespace {

using Node = Fold::Node;
using Edge = Fold::Node::Edge;
using SlotKind = cct::CallRecord::Slot::Kind;

uint64_t edgeKey(unsigned Slot, cct::ProcId Callee) {
  return uint64_t(Slot) << 32 | Callee;
}

/// Whether slot \p S of \p Proc is an indirect (list) call site. Emission
/// builds every record's slots from this, whatever kind a file claims;
/// the root's one list is its signal slot.
bool siteIsIndirect(const std::vector<cct::ProcDesc> &Procs, cct::ProcId Proc,
                    unsigned S) {
  if (Proc == cct::RootProcId)
    return S == cct::SignalSlot;
  const std::vector<uint8_t> &Mask = Procs[Proc].SiteIsIndirect;
  return S < Mask.size() && Mask[S];
}

/// Merges the ascending sequence \p From into the ascending \p Into:
/// entries with equal keys are combined by \p Combine, the rest are moved
/// in. Stays in place when \p From brings no new key, the common case
/// when folding runs of one program.
template <typename T, typename KeyFn, typename CombineFn>
void mergeSorted(std::vector<T> &Into, std::vector<T> &From, KeyFn Key,
                 CombineFn Combine) {
  size_t Missing = 0;
  auto I = Into.begin();
  for (T &X : From) {
    while (I != Into.end() && Key(*I) < Key(X))
      ++I;
    if (I != Into.end() && Key(*I) == Key(X))
      Combine(*I, X);
    else
      ++Missing;
  }
  if (Missing == 0)
    return;
  std::vector<T> Out;
  Out.reserve(Into.size() + Missing);
  auto A = Into.begin();
  for (T &X : From) {
    while (A != Into.end() && Key(*A) < Key(X))
      Out.push_back(std::move(*A++));
    if (A == Into.end() || Key(*A) != Key(X))
      Out.push_back(std::move(X)); // else combined above
  }
  Out.insert(Out.end(), std::make_move_iterator(A),
             std::make_move_iterator(Into.end()));
  Into = std::move(Out);
}

/// Lifts one input's CCT into merge form straight from its call records,
/// checking on the way every property the canonical emission relies on:
/// enter() must allocate each child edge's record, resolve each backedge
/// to its ancestor, and find every slot it is handed.
///
/// Each check reads only the input's records on the path from the root
/// to the record at hand. Records match across inputs by (slot, callee)
/// from the root down, so a merged record has the same root path in
/// every input that contributed to it; an input that passes on its own
/// therefore passes inside any fold. Only a direct call site can still
/// collide across inputs — see checkOverlay.
class Lifter {
public:
  explicit Lifter(const cct::CallingContextTree &Tree) : Tree(Tree) {}

  std::unique_ptr<Node> run(std::string &Error) {
    const cct::CallRecord *Root = Tree.root();
    // cct::readTree refuses such a tree, and no live tree holds one.
    assert(Root && Root->procId() == cct::RootProcId && !Root->parent() &&
           "tree has no root record");
    auto Out = std::make_unique<Node>();
    Lifted.insert(Root);
    if (!lift(*Root, *Out, Error))
      return nullptr;
    if (Lifted.size() != Tree.numRecords()) {
      Error = "orphan record: no slot of its parent reaches it";
      return nullptr;
    }
    return Out;
  }

private:
  bool onPath(cct::ProcId Proc) const {
    for (const cct::CallRecord *R : Path)
      if (R->procId() == Proc)
        return true;
    return false;
  }

  bool lift(const cct::CallRecord &R, Node &N, std::string &Error) {
    N.Proc = R.procId();
    // cct::readTree refuses such a tree, and no live tree holds one.
    assert((N.Proc == cct::RootProcId || N.Proc < Tree.numProcs()) &&
           "record procedure out of range");
    if (R.Metrics.size() != Tree.numMetrics()) {
      Error = "record metric vector disagrees with the tree's metric count";
      return false;
    }
    unsigned Sites =
        N.Proc == cct::RootProcId ? 2 : Tree.procDesc(N.Proc).NumSites;
    if (R.numSlots() != Sites) {
      Error = "record slot count disagrees with its procedure's call sites";
      return false;
    }
    N.Metrics = R.Metrics;
    N.Cells.assign(R.PathTable.begin(), R.PathTable.end());
    std::sort(N.Cells.begin(), N.Cells.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });

    Path.push_back(&R);
    bool Ok = liftSlots(R, N, Error);
    Path.pop_back();
    return Ok;
  }

  bool liftEdge(const cct::CallRecord &R, unsigned S,
                const cct::CallRecord *T, Node &N, std::string &Error) {
    if (T->parent() == &R) {
      // enter() searches the ancestors before it allocates, so a child
      // of an ancestor's procedure would come back as that ancestor.
      if (onPath(T->procId())) {
        Error = "child callee repeats an ancestor's procedure";
        return false;
      }
      // A record's only claimant is its parent; a second claim would lift
      // it twice.
      if (!Lifted.insert(T).second) {
        Error = "record claimed as a child by two slots";
        return false;
      }
      auto Child = std::make_unique<Node>();
      if (!lift(*T, *Child, Error))
        return false;
      N.Edges.push_back({edgeKey(S, T->procId()), 0, std::move(Child)});
      return true;
    }
    // Otherwise a recursion backedge to the owner or an ancestor. The
    // child check keeps the procedures on a root path distinct, so the
    // target is the nearest ancestor of its procedure: the one enter()
    // resolves to.
    unsigned Depth = T->depth();
    if (Depth >= Path.size() || Path[Depth] != T) {
      Error = "slot target is neither a child nor an ancestor";
      return false;
    }
    N.Edges.push_back({edgeKey(S, T->procId()), R.depth() - Depth, nullptr});
    return true;
  }

  bool liftSlots(const cct::CallRecord &R, Node &N, std::string &Error) {
    for (unsigned S = 0; S != R.numSlots(); ++S) {
      const cct::CallRecord::Slot &Slot = R.slot(S);
      bool Used = (Slot.K == SlotKind::Record && Slot.Direct) ||
                  !Slot.List.empty();
      if (!Used)
        continue;
      SlotKind Site = siteIsIndirect(Tree.procs(), N.Proc, S)
                          ? SlotKind::List
                          : SlotKind::Record;
      if (Slot.K != Site) {
        Error = "call-site slot kind disagrees with its procedure's call site";
        return false;
      }
      if (Slot.K == SlotKind::Record) {
        if (!liftEdge(R, S, Slot.Direct, N, Error))
          return false;
      } else {
        for (const auto &Cell : Slot.List)
          if (!liftEdge(R, S, Cell.first, N, Error))
            return false;
      }
    }
    std::sort(N.Edges.begin(), N.Edges.end(),
              [](const Edge &A, const Edge &B) { return A.Key < B.Key; });
    if (std::adjacent_find(N.Edges.begin(), N.Edges.end(),
                           [](const Edge &A, const Edge &B) {
                             return A.Key == B.Key && (A.Child || B.Child);
                           }) != N.Edges.end()) {
      Error = "duplicate callee in one call-site slot";
      return false;
    }
    // A list may repeat a backedge; it names the same ancestor each time.
    N.Edges.erase(std::unique(N.Edges.begin(), N.Edges.end(),
                              [](const Edge &A, const Edge &B) {
                                return A.Key == B.Key;
                              }),
                  N.Edges.end());
    return true;
  }

  const cct::CallingContextTree &Tree;
  /// The records from the root to the one being lifted, by depth.
  std::vector<const cct::CallRecord *> Path;
  std::unordered_set<const cct::CallRecord *> Lifted;
};

/// The checks an overlay of \p In onto \p F needs beyond each input's own,
/// read-only so that overlay() cannot fail. Matched records share their
/// root path, so a callee is a child on both sides or a backedge of the
/// same distance on both. What can still collide is a direct call site:
/// its slot holds one record, each input resolves it to at most one
/// callee, but two inputs may resolve it to different ones.
bool checkOverlay(const Node &F, const Node &In,
                  const std::vector<cct::ProcDesc> &Procs,
                  std::string &Error) {
  auto I = F.Edges.begin();
  for (const Edge &E : In.Edges) {
    while (I != F.Edges.end() && I->Key < E.Key)
      ++I;
    if (I != F.Edges.end() && I->Key == E.Key) {
      assert(!I->Child == !E.Child && I->Distance == E.Distance);
      if (E.Child && !checkOverlay(*I->Child, *E.Child, Procs, Error))
        return false;
      continue;
    }
    if (siteIsIndirect(Procs, In.Proc, E.slot()))
      continue;
    if ((I != F.Edges.end() && I->slot() == E.slot()) ||
        (I != F.Edges.begin() && std::prev(I)->slot() == E.slot())) {
      Error = "direct call site resolved to two different callees";
      return false;
    }
  }
  return true;
}

/// Sums \p In into \p F, uniting structure; unmatched subtrees of \p In
/// are moved, not copied. checkOverlay() has approved the pair.
void overlay(Node &F, Node &In) {
  for (size_t Index = 0; Index != F.Metrics.size(); ++Index)
    F.Metrics[Index] += In.Metrics[Index];
  mergeSorted(
      F.Cells, In.Cells, [](const auto &C) { return C.first; },
      [](auto &Into, const auto &From) {
        Into.second.Freq += From.second.Freq;
        Into.second.Metric0 += From.second.Metric0;
        Into.second.Metric1 += From.second.Metric1;
      });
  mergeSorted(
      F.Edges, In.Edges, [](const Edge &E) { return E.Key; },
      [](Edge &Into, Edge &From) {
        if (Into.Child)
          overlay(*Into.Child, *From.Child);
      });
}

/// Replays the merged structure through the real CCT allocator in a
/// canonical order — node, then its edges ascending by (slot, callee) —
/// so addresses, heap usage, and list layout depend only on the merged
/// structure. The lift and overlay checks guarantee that every enter()
/// resolves as its edge says.
void emitNode(cct::CallingContextTree &Tree, cct::CallRecord *R,
              const Node &N) {
  R->Metrics = N.Metrics;
  for (const auto &[Sum, Cell] : N.Cells)
    R->PathTable.emplace(Sum, Cell);
  for (const Edge &E : N.Edges) {
    cct::CallRecord *C = Tree.enter(R, E.slot(), E.callee());
    if (E.Child) {
      assert(C->parent() == R && "child edge resolved to an ancestor");
      emitNode(Tree, C, *E.Child);
    } else {
      assert(C->depth() + E.Distance == R->depth() &&
             "backedge resolved to another ancestor");
    }
  }
}

bool sameProcs(const std::vector<cct::ProcDesc> &A,
               const std::vector<cct::ProcDesc> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t Index = 0; Index != A.size(); ++Index)
    if (A[Index].Name != B[Index].Name ||
        A[Index].NumSites != B[Index].NumSites ||
        A[Index].SiteIsIndirect != B[Index].SiteIsIndirect ||
        A[Index].NumPaths != B[Index].NumPaths)
      return false;
  return true;
}

} // namespace

Fold::Fold() = default;
Fold::~Fold() = default;
Fold::Fold(Fold &&) = default;
Fold &Fold::operator=(Fold &&) = default;

bool Fold::lift(const Artifact &A, std::string &Error) {
  if (A.Tree) {
    Root = Lifter(*A.Tree).run(Error);
    if (!Root)
      return false;
    Procs = A.Tree->procs();
    NumMetrics = A.Tree->numMetrics();
    PathCellBytes = A.Tree->pathCellBytes();
    HashThreshold = A.Tree->hashThreshold();
  }
  Header.RunCount = A.RunCount;
  Header.SourceHash = A.SourceHash;
  Header.Workload = A.Workload;
  Header.Scale = A.Scale;
  Header.Schema = A.Schema;
  Header.ExecutedInsts = A.ExecutedInsts;
  Header.Totals = A.Totals;
  Inputs = 1;
  return true;
}

bool profdb::checkShape(const Artifact &A, bool ATree, const Artifact &B,
                        bool BTree, const char *Verb, std::string &Error) {
  // A k mismatch is a schema mismatch too, but deserves its own message:
  // the artifacts may agree on every metric and still count incomparable
  // path spaces.
  if (A.Schema.K != B.Schema.K) {
    Error = formatString("cannot %s artifacts across k: k=%u vs k=%u", Verb,
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
  if (ATree != BTree) {
    Error = "one artifact has a CCT and the other does not";
    return false;
  }
  if (A.PathProfiles.size() != B.PathProfiles.size()) {
    Error = "path-profile function counts differ";
    return false;
  }
  for (size_t Index = 0; Index != A.PathProfiles.size(); ++Index) {
    const prof::FunctionPathProfile &PA = A.PathProfiles[Index];
    const prof::FunctionPathProfile &PB = B.PathProfiles[Index];
    // Cross-k sums share numeric values but name different paths; refuse
    // with the specific reason before the generic shape complaint. The
    // fallback ladder can leave a function at a lower k than the schema's.
    if (PA.KIters != PB.KIters) {
      Error = formatString(
          "cannot %s path profiles across k for function %u: k=%u vs k=%u",
          Verb, PA.FuncId, PA.KIters, PB.KIters);
      return false;
    }
    if (PA.FuncId != PB.FuncId || PA.HasProfile != PB.HasProfile ||
        PA.NumPaths != PB.NumPaths || PA.Hashed != PB.Hashed) {
      Error = formatString("path-profile shape differs for function %u",
                           PA.FuncId);
      return false;
    }
  }
  return true;
}

std::string profdb::shapeKey(const Artifact &A) {
  // Every field checkShape compares, each ended by '|'. A '|' or a
  // backslash inside a name is escaped, so equal keys mean equal fields;
  // the key sorts by workload first.
  std::string Key;
  auto Text = [&Key](const std::string &S) {
    for (char C : S) {
      if (C == '|' || C == '\\')
        Key += '\\';
      Key += C;
    }
    Key += '|';
  };
  auto Num = [&Key](uint64_t V) {
    Key += std::to_string(V);
    Key += '|';
  };
  Text(A.Workload);
  Num(A.Scale);
  Text(A.Schema.Mode);
  Text(A.Schema.Pic0);
  Text(A.Schema.Pic1);
  Text(A.Schema.Acquisition);
  Num(A.Schema.K);
  Num(A.Functions.size());
  for (const std::string &F : A.Functions)
    Text(F);
  Num(A.Tree != nullptr);
  Num(A.PathProfiles.size());
  for (const prof::FunctionPathProfile &P : A.PathProfiles) {
    Num(P.FuncId);
    Num(P.HasProfile);
    Num(P.NumPaths);
    Num(P.Hashed);
    Num(P.KIters);
  }
  return Key;
}

bool Fold::compatible(const Fold &In, std::string &Error) const {
  if (!checkShape(Header, Root != nullptr, In.Header, In.Root != nullptr,
                  "merge", Error))
    return false;
  if (!Root)
    return true;
  if (NumMetrics != In.NumMetrics || PathCellBytes != In.PathCellBytes ||
      HashThreshold != In.HashThreshold) {
    Error = "CCT geometry mismatch (metrics / path-cell stride / hash "
            "threshold)";
    return false;
  }
  if (!sameProcs(Procs, In.Procs)) {
    Error = "CCT procedure tables differ";
    return false;
  }
  return true;
}

bool Fold::add(const Artifact &A, std::string &Error) {
  Fold In;
  if (!In.lift(A, Error))
    return false;
  In.Header.Functions = A.Functions;
  In.Header.PathProfiles = A.PathProfiles;
  return add(std::move(In), Error);
}

bool Fold::add(Artifact &&A, std::string &Error) {
  if (Inputs == 0) {
    if (!add(static_cast<const Artifact &>(A), Error))
      return false;
    Result = std::make_unique<Artifact>(std::move(A));
    return true;
  }
  // A later input's function table and path profiles move into the fold
  // instead of being copied; a rejection hands them back, so a refused
  // input is still whole.
  Fold In;
  if (!In.lift(A, Error))
    return false;
  In.Header.Functions = std::move(A.Functions);
  In.Header.PathProfiles = std::move(A.PathProfiles);
  if (!add(std::move(In), Error)) {
    A.Functions = std::move(In.Header.Functions);
    A.PathProfiles = std::move(In.Header.PathProfiles);
    return false;
  }
  A = Artifact(); // folded in; its memory goes now, not with the caller
  return true;
}

bool Fold::add(Fold &&In, std::string &Error) {
  if (Inputs == 0) {
    *this = std::move(In);
    return true;
  }
  if (!compatible(In, Error) ||
      (Root && !checkOverlay(*Root, *In.Root, Procs, Error)))
    return false;

  // Every check has passed; nothing below can fail.
  Artifact &H = Header;
  Artifact &B = In.Header;
  H.RunCount += B.RunCount;
  H.SourceHash ^= B.SourceHash;
  H.ExecutedInsts += B.ExecutedInsts;
  for (size_t Index = 0; Index != H.Totals.size(); ++Index)
    H.Totals[Index] += B.Totals[Index];
  for (size_t Index = 0; Index != H.PathProfiles.size(); ++Index)
    mergeSorted(
        H.PathProfiles[Index].Paths, B.PathProfiles[Index].Paths,
        [](const prof::PathEntry &E) { return E.PathSum; },
        [](prof::PathEntry &Into, const prof::PathEntry &From) {
          Into.Freq += From.Freq;
          Into.Metric0 += From.Metric0;
          Into.Metric1 += From.Metric1;
        });
  if (Root)
    overlay(*Root, *In.Root);
  Inputs += In.Inputs;
  Result.reset();
  return true;
}

Artifact Fold::emit() const {
  Artifact Out = cloneArtifact(Header);
  Out.Fingerprint = formatString(
      "merged;v1;runs=%llu;src=%016llx",
      static_cast<unsigned long long>(Header.RunCount),
      static_cast<unsigned long long>(Header.SourceHash));
  if (Root) {
    auto Tree = std::make_unique<cct::CallingContextTree>(
        Procs, NumMetrics, nullptr, PathCellBytes, HashThreshold);
    emitNode(*Tree, Tree->root(), *Root);
    Out.Tree = std::move(Tree);
  }
  return Out;
}

const Artifact &Fold::result() {
  assert(Inputs != 0 && "result of an empty fold");
  if (!Result)
    Result = std::make_unique<Artifact>(emit());
  return *Result;
}

Artifact Fold::take() {
  result();
  Artifact Out = std::move(*Result);
  *this = Fold();
  return Out;
}

bool profdb::mergeArtifacts(const Artifact &A, const Artifact &B,
                            Artifact &Out, std::string &Error) {
  Fold F;
  if (!F.add(A, Error) || !F.add(B, Error))
    return false;
  Out = F.take();
  return true;
}

bool profdb::mergeAll(std::vector<Artifact> Shards, Artifact &Out,
                      std::string &Error, unsigned Threads) {
  assert(Threads == 1 && "mergeAll folds on its caller");
  (void)Threads;
  if (Shards.empty()) {
    Error = "no artifacts to merge";
    return false;
  }
  // One span per call; its work is the runs folded.
  uint64_t Runs = 0;
  for (const Artifact &Shard : Shards)
    Runs += Shard.RunCount;
  obs::SpanScope Span("profdb", "merge", "", Runs);
  obs::add(obs::Counter::ProfDbMerges, Shards.size() - 1);

  Fold F;
  for (Artifact &Shard : Shards)
    if (!F.add(std::move(Shard), Error))
      return false;
  Out = F.take();
  return true;
}
