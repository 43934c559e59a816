//===- cct/CallingContextTree.cpp - The calling context tree ---------------===//

#include "cct/CallingContextTree.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace pp;
using namespace pp::cct;

MemCharger::~MemCharger() = default;

CallingContextTree::CallingContextTree(std::vector<ProcDesc> Procs,
                                       unsigned NumMetrics,
                                       MemCharger *Charger,
                                       unsigned PathCellBytes,
                                       uint64_t HashThreshold)
    : Procs(std::move(Procs)), NumMetrics(NumMetrics), Charger(Charger),
      PathCellBytes(PathCellBytes), HashThreshold(HashThreshold) {
  // The root call record, labelled with the pseudo-procedure T. Slot 0 is
  // the program entry point; slot 1 is a list slot for signal handlers —
  // the "multiple roots" the paper notes a signal-handling extension
  // needs (§4.2). The root accumulates no metrics.
  Root = makeRecord(RootProcId, nullptr);
  Root->Slots[SignalSlot].K = CallRecord::Slot::Kind::List;
}

uint64_t CallingContextTree::heapAlloc(uint64_t Size) {
  uint64_t Addr = (HeapNext + 7) & ~uint64_t(7);
  HeapNext = Addr + Size;
  if (HeapNext >= layout::ProfStackBase)
    reportFatalError("CCT heap exhausted");
  return Addr;
}

CallRecord *CallingContextTree::makeRecord(ProcId Proc, CallRecord *Parent) {
  auto Record = std::make_unique<CallRecord>();
  CallRecord *R = Record.get();
  Records.push_back(std::move(Record));

  R->Proc = Proc;
  R->Parent = Parent;
  R->Depth = Parent ? Parent->Depth + 1 : 0;
  R->Metrics.assign(NumMetrics, 0);

  unsigned NumSites;
  uint64_t NumPaths = 0;
  if (Proc == RootProcId) {
    NumSites = 2; // program entry + signal handlers
  } else {
    assert(Proc < Procs.size() && "unknown procedure");
    NumSites = Procs[Proc].NumSites;
    NumPaths = Procs[Proc].NumPaths;
  }
  R->Slots.resize(NumSites);
  for (unsigned Index = 0; Index != NumSites; ++Index) {
    if (Proc != RootProcId && Index < Procs[Proc].SiteIsIndirect.size() &&
        Procs[Proc].SiteIsIndirect[Index])
      R->Slots[Index].K = CallRecord::Slot::Kind::List;
  }

  uint64_t Bytes = 8 + 8 + 8 * uint64_t(NumMetrics) + 8 * NumSites;
  R->Addr = heapAlloc(Bytes);

  // Charge the initialising stores: ID, parent, zeroed metrics, and the
  // tagged-offset slot initialisation (§4.2 "creates and initializes its
  // own call records").
  charge(3 + NumMetrics + NumSites);
  touch(R->Addr, 8, /*IsWrite=*/true);     // ID
  touch(R->Addr + 8, 8, /*IsWrite=*/true); // parent
  for (unsigned Index = 0; Index != NumMetrics; ++Index)
    touch(R->Addr + 16 + 8 * Index, 8, /*IsWrite=*/true);
  uint64_t SlotBase = R->Addr + 16 + 8 * uint64_t(NumMetrics);
  for (unsigned Index = 0; Index != NumSites; ++Index)
    touch(SlotBase + 8 * Index, 8, /*IsWrite=*/true);

  // Per-record path counter table (combined flow + context profiling):
  // an array when small, a fixed hash table otherwise.
  if (NumPaths != 0) {
    uint64_t Cells = std::min<uint64_t>(NumPaths, HashThreshold);
    uint64_t CellStride = PathCellBytes + (NumPaths > HashThreshold ? 8 : 0);
    R->PathTableAddr = heapAlloc(Cells * CellStride);
  }
  return R;
}

CallRecord *CallingContextTree::findAncestor(CallRecord *From, ProcId Proc) {
  // "The code then searches the parent pointers, looking for an ancestral
  // instance of the callee" — a vertex is its own ancestor (§4.1 footnote).
  for (CallRecord *R = From; R; R = R->Parent) {
    // Load the record's ID and its parent pointer.
    touch(R->Addr, 8, /*IsWrite=*/false);
    touch(R->Addr + 8, 8, /*IsWrite=*/false);
    charge(3);
    if (R->Proc == Proc)
      return R;
  }
  return nullptr;
}

CallRecord *CallingContextTree::enter(CallRecord *Caller, unsigned SlotIndex,
                                      ProcId Proc) {
  assert(Caller && SlotIndex < Caller->Slots.size() && "bad gCSP");
  CallRecord::Slot &S = Caller->Slots[SlotIndex];
  uint64_t SlotAddr = Caller->Addr + 16 + 8 * uint64_t(NumMetrics) +
                      8 * uint64_t(SlotIndex);

  // Entry code: load the slot word through the gCSP and dispatch on its
  // low-order tag bits.
  touch(SlotAddr, 8, /*IsWrite=*/false);
  charge(2);

  switch (S.K) {
  case CallRecord::Slot::Kind::Record:
    // Tag 0: the slot already points at this context's record; recursion
    // or not, the callee finds it immediately.
    assert(S.Direct && S.Direct->Proc == Proc &&
           "direct slot resolved to a different procedure");
    return S.Direct;

  case CallRecord::Slot::Kind::Unresolved: {
    // Tag 1: first call from this context. Search the ancestors; reuse the
    // recursive instance or allocate a fresh child.
    CallRecord *Found = findAncestor(Caller, Proc);
    CallRecord *R = Found ? Found : makeRecord(Proc, Caller);
    S.K = CallRecord::Slot::Kind::Record;
    S.Direct = R;
    touch(SlotAddr, 8, /*IsWrite=*/true);
    charge(1);
    return R;
  }

  case CallRecord::Slot::Kind::List: {
    // Tag 2: indirect call site; search the callee list, move-to-front on
    // a hit so the common target stays cheap.
    for (size_t Position = 0; Position != S.List.size(); ++Position) {
      auto &Cell = S.List[Position];
      touch(Cell.second, 8, /*IsWrite=*/false);     // record pointer
      touch(Cell.second + 8, 8, /*IsWrite=*/false); // next pointer
      charge(3);
      if (Cell.first->Proc != Proc)
        continue;
      CallRecord *R = Cell.first;
      if (Position != 0) {
        // Move to the front of the list (two pointer rewrites plus the
        // head update).
        auto Moved = Cell;
        S.List.erase(S.List.begin() + static_cast<long>(Position));
        S.List.insert(S.List.begin(), Moved);
        touch(SlotAddr, 8, /*IsWrite=*/true);
        touch(Moved.second + 8, 8, /*IsWrite=*/true);
        charge(3);
      }
      return R;
    }
    // Not in the list: resolve through the ancestors, then prepend a cell.
    CallRecord *Found = findAncestor(Caller, Proc);
    CallRecord *R = Found ? Found : makeRecord(Proc, Caller);
    uint64_t CellAddr = heapAlloc(ListCellBytes);
    ++ListCellCount;
    S.List.insert(S.List.begin(), {R, CellAddr});
    touch(CellAddr, 8, /*IsWrite=*/true);
    touch(CellAddr + 8, 8, /*IsWrite=*/true);
    touch(SlotAddr, 8, /*IsWrite=*/true);
    charge(4);
    return R;
  }
  }
  unreachable("invalid slot kind");
}

void CallingContextTree::commitPath(CallRecord *R, uint64_t PathSum,
                                    bool WithMetrics, uint64_t Metric0,
                                    uint64_t Metric1) {
  assert(R->PathTableAddr != 0 && "record has no path table");
  PathCell &Cell = R->PathTable[PathSum];
  ++Cell.Freq;

  uint64_t NumPaths =
      R->Proc == RootProcId ? 0 : Procs[R->Proc].NumPaths;
  uint64_t CellAddr;
  if (NumPaths > HashThreshold) {
    // Hash mode: one probe into the fixed-size open-addressed table. (The
    // charge assumes the common single-probe case; see DESIGN.md.)
    uint64_t Mixed = PathSum * 0x9e3779b97f4a7c15ULL;
    uint64_t Cells = HashThreshold;
    CellAddr = R->PathTableAddr + (Mixed % Cells) * (PathCellBytes + 8);
    touch(CellAddr, 8, /*IsWrite=*/false); // key compare
    charge(6);
    CellAddr += 8;
  } else {
    // Array mode: count[r]++ with the path sum as index.
    CellAddr = R->PathTableAddr + PathSum * PathCellBytes;
    charge(3);
  }
  touch(CellAddr, 8, /*IsWrite=*/false);
  touch(CellAddr, 8, /*IsWrite=*/true);
  charge(2);
  if (WithMetrics) {
    Cell.Metric0 += Metric0;
    Cell.Metric1 += Metric1;
    for (unsigned Index = 1; Index <= 2; ++Index) {
      touch(CellAddr + 8 * Index, 8, /*IsWrite=*/false);
      touch(CellAddr + 8 * Index, 8, /*IsWrite=*/true);
      charge(3);
    }
  }
}

RecordCounts cct::recordCounts(const CallRecord &R) {
  RecordCounts Counts;
  const std::vector<uint64_t> &M = R.Metrics;
  Counts.Calls = M.empty() ? 0 : M[0];
  Counts.Pic0 = M.size() > 1 ? M[1] : 0;
  Counts.Pic1 = M.size() > 2 ? M[2] : 0;
  for (const auto &[Sum, Cell] : R.PathTable) {
    (void)Sum;
    Counts.Pic0 += Cell.Metric0;
    Counts.Pic1 += Cell.Metric1;
  }
  return Counts;
}

std::string cct::contextName(const CallRecord &R,
                             const std::function<std::string(ProcId)> &Name,
                             const char *Sep) {
  std::vector<const CallRecord *> Chain;
  for (const CallRecord *Walk = &R;
       Walk && Walk->procId() != RootProcId; Walk = Walk->parent())
    Chain.push_back(Walk);
  std::string Context;
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
    if (!Context.empty())
      Context += Sep;
    Context += Name((*It)->procId());
  }
  return Context;
}

CctStats CallingContextTree::computeStats() const {
  CctStats Stats;
  Stats.NumRecords = Records.size();
  Stats.TotalBytes = heapBytes();

  std::vector<uint64_t> ChildCounts(Records.size(), 0);
  std::unordered_map<ProcId, uint64_t> Replication;
  // Index records for child counting.
  std::unordered_map<const CallRecord *, size_t> IndexOf;
  for (size_t Index = 0; Index != Records.size(); ++Index)
    IndexOf[Records[Index].get()] = Index;

  uint64_t LeafCount = 0, LeafDepthSum = 0;
  for (const auto &R : Records) {
    if (R->Parent)
      ++ChildCounts[IndexOf.at(R->Parent)];
    Stats.MaxDepth = std::max<uint64_t>(Stats.MaxDepth, R->depth());
    if (R->procId() != RootProcId)
      ++Replication[R->procId()];
    Stats.RecordBytes += recordBytes(R->procId());
    Stats.TotalSlots += R->numSlots();
    for (unsigned Index = 0; Index != R->numSlots(); ++Index) {
      const CallRecord::Slot &S = R->slot(Index);
      bool Used = (S.K == CallRecord::Slot::Kind::Record && S.Direct) ||
                  (S.K == CallRecord::Slot::Kind::List && !S.List.empty());
      if (!Used)
        continue;
      ++Stats.UsedSlots;
      // A slot is a backedge when it resolves to a record that is an
      // ancestor of (or equal to) the owner.
      auto IsAncestor = [&R](const CallRecord *Target) {
        for (const CallRecord *A = R.get(); A; A = A->parent())
          if (A == Target)
            return true;
        return false;
      };
      if (S.K == CallRecord::Slot::Kind::Record) {
        if (IsAncestor(S.Direct))
          ++Stats.BackedgeSlots;
      } else {
        for (const auto &Cell : S.List)
          if (IsAncestor(Cell.first))
            ++Stats.BackedgeSlots;
      }
    }
  }

  uint64_t InteriorCount = 0, InteriorChildren = 0;
  for (size_t Index = 0; Index != Records.size(); ++Index) {
    if (ChildCounts[Index] == 0) {
      ++LeafCount;
      LeafDepthSum += Records[Index]->depth();
    } else {
      ++InteriorCount;
      InteriorChildren += ChildCounts[Index];
    }
  }
  Stats.AvgNodeBytes =
      Records.empty() ? 0 : double(Stats.RecordBytes) / double(Records.size());
  Stats.AvgOutDegree =
      InteriorCount == 0 ? 0 : double(InteriorChildren) / double(InteriorCount);
  Stats.AvgLeafDepth =
      LeafCount == 0 ? 0 : double(LeafDepthSum) / double(LeafCount);
  for (const auto &[Proc, Count] : Replication) {
    if (Count > Stats.MaxReplication) {
      Stats.MaxReplication = Count;
      Stats.MaxReplicationProc = Proc;
    }
  }
  return Stats;
}

TreeImage CallingContextTree::image() const {
  TreeImage Image;
  Image.Procs = Procs;
  Image.NumMetrics = NumMetrics;
  Image.PathCellBytes = PathCellBytes;
  Image.HashThreshold = HashThreshold;
  Image.HeapBytes = heapBytes();
  Image.ListCells = ListCellCount;

  std::unordered_map<const CallRecord *, uint64_t> IndexOf;
  for (size_t Index = 0; Index != Records.size(); ++Index)
    IndexOf[Records[Index].get()] = Index;

  Image.Records.reserve(Records.size());
  for (const auto &R : Records) {
    TreeImage::Record Rec;
    Rec.Proc = R->Proc;
    Rec.Parent = R->Parent ? static_cast<int64_t>(IndexOf.at(R->Parent)) : -1;
    Rec.Addr = R->Addr;
    Rec.PathTableAddr = R->PathTableAddr;
    Rec.Metrics = R->Metrics;
    Rec.PathCells.assign(R->PathTable.begin(), R->PathTable.end());
    // Canonical order, so identical trees produce identical images even
    // though the live counters sit in an unordered map.
    std::sort(Rec.PathCells.begin(), Rec.PathCells.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    for (const CallRecord::Slot &S : R->Slots) {
      TreeImage::Slot Slot;
      Slot.Kind = static_cast<uint8_t>(S.K);
      if (S.K == CallRecord::Slot::Kind::Record && S.Direct)
        Slot.Targets.push_back({IndexOf.at(S.Direct), 0});
      else if (S.K == CallRecord::Slot::Kind::List)
        for (const auto &Cell : S.List)
          Slot.Targets.push_back({IndexOf.at(Cell.first), Cell.second});
      Rec.Slots.push_back(std::move(Slot));
    }
    Image.Records.push_back(std::move(Rec));
  }
  return Image;
}

std::unique_ptr<CallingContextTree>
CallingContextTree::fromImage(const TreeImage &Image) {
  if (Image.Records.empty())
    return nullptr;
  auto Tree = std::make_unique<CallingContextTree>(
      Image.Procs, Image.NumMetrics, nullptr, Image.PathCellBytes,
      Image.HashThreshold);
  // Discard the constructor's root; every record is rebuilt verbatim.
  Tree->Records.clear();
  Tree->Root = nullptr;
  Tree->ListCellCount = Image.ListCells;
  Tree->HeapNext = layout::CctHeapBase + Image.HeapBytes;

  for (const TreeImage::Record &Rec : Image.Records) {
    auto Record = std::make_unique<CallRecord>();
    CallRecord *R = Record.get();
    Tree->Records.push_back(std::move(Record));
    R->Proc = Rec.Proc;
    if (Rec.Parent >= 0) {
      if (static_cast<uint64_t>(Rec.Parent) + 1 >= Tree->Records.size())
        return nullptr; // parents must precede children
      R->Parent = Tree->Records[static_cast<size_t>(Rec.Parent)].get();
      R->Depth = R->Parent->Depth + 1;
    }
    R->Addr = Rec.Addr;
    R->PathTableAddr = Rec.PathTableAddr;
    R->Metrics = Rec.Metrics;
    for (const auto &[Sum, Cell] : Rec.PathCells)
      R->PathTable.emplace(Sum, Cell);
    R->Slots.resize(Rec.Slots.size());
  }
  // Slots resolve against fully constructed records, so fill them second.
  for (size_t Index = 0; Index != Image.Records.size(); ++Index) {
    const TreeImage::Record &Rec = Image.Records[Index];
    CallRecord *R = Tree->Records[Index].get();
    for (size_t S = 0; S != Rec.Slots.size(); ++S) {
      const TreeImage::Slot &Slot = Rec.Slots[S];
      CallRecord::Slot &Out = R->Slots[S];
      Out.K = static_cast<CallRecord::Slot::Kind>(Slot.Kind);
      for (const auto &[Target, CellAddr] : Slot.Targets) {
        if (Target >= Tree->Records.size())
          return nullptr;
        CallRecord *T = Tree->Records[Target].get();
        if (Out.K == CallRecord::Slot::Kind::Record)
          Out.Direct = T;
        else
          Out.List.push_back({T, CellAddr});
      }
    }
  }
  Tree->Root = Tree->Records.front().get();
  return Tree;
}
