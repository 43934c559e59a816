//===- cct/ImageIO.cpp - CCT binary codec ---------------------------------------===//

#include "cct/ImageIO.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace pp;
using namespace pp::cct;

namespace {

// Minimum encoded sizes (bytes) of variable-count elements, used to bound
// counts before allocation.
constexpr size_t MinProcBytes = 8 + 8 + 8 + 8; // name, sites, mask, paths
constexpr size_t MinRecordBytes = 5 * 8 + 2 * 8; // fixed fields + 2 counts
constexpr size_t MinPathCellBytes = 4 * 8;
constexpr size_t MinSlotBytes = 1 + 8;
constexpr size_t MinTargetBytes = 2 * 8;

} // namespace

void cct::writeTree(ByteWriter &W, const CallingContextTree &Tree) {
  W.u64(Tree.procs().size());
  for (const ProcDesc &Proc : Tree.procs()) {
    W.str(Proc.Name);
    W.u64(Proc.NumSites);
    W.bytes(Proc.SiteIsIndirect);
    W.u64(Proc.NumPaths);
  }
  W.u64(Tree.numMetrics());
  W.u64(Tree.pathCellBytes());
  W.u64(Tree.hashThreshold());
  W.u64(Tree.heapBytes());
  W.u64(Tree.ListCellCount);

  const std::vector<std::unique_ptr<CallRecord>> &Records = Tree.records();
  std::unordered_map<const CallRecord *, uint64_t> IndexOf;
  IndexOf.reserve(Records.size());
  for (size_t Index = 0; Index != Records.size(); ++Index)
    IndexOf.emplace(Records[Index].get(), Index);

  W.u64(Records.size());
  for (const auto &Rec : Records) {
    W.u64(Rec->procId());
    W.u64(Rec->parent() ? IndexOf.at(Rec->parent()) : ~uint64_t(0));
    W.u64(Rec->addr());
    W.u64(Rec->pathTableAddr());
    W.u64(Rec->Metrics.size());
    for (uint64_t Metric : Rec->Metrics)
      W.u64(Metric);
    assert(std::adjacent_find(Rec->PathTable.begin(), Rec->PathTable.end(),
                              [](const auto &A, const auto &B) {
                                return A.first >= B.first;
                              }) == Rec->PathTable.end() &&
           "path cells must ascend (a live tree needs sortPathTables)");
    W.u64(Rec->PathTable.size());
    for (const auto &[Sum, Cell] : Rec->PathTable) {
      W.u64(Sum);
      W.u64(Cell.Freq);
      W.u64(Cell.Metric0);
      W.u64(Cell.Metric1);
    }
    W.u64(Rec->numSlots());
    for (unsigned Index = 0; Index != Rec->numSlots(); ++Index) {
      const CallRecord::Slot &Slot = Rec->slot(Index);
      W.u8(static_cast<uint8_t>(Slot.K));
      if (Slot.K == CallRecord::Slot::Kind::Record && Slot.Direct) {
        W.u64(1);
        W.u64(IndexOf.at(Slot.Direct));
        W.u64(0);
      } else if (Slot.K == CallRecord::Slot::Kind::List) {
        W.u64(Slot.List.size());
        for (const auto &[Target, CellAddr] : Slot.List) {
          W.u64(IndexOf.at(Target));
          W.u64(CellAddr);
        }
      } else {
        W.u64(0);
      }
    }
  }
}

DecodeStatus cct::readTree(ByteReader &R,
                           std::unique_ptr<CallingContextTree> &Out) {
  uint64_t NumProcs = 0;
  if (!R.count(NumProcs, MinProcBytes))
    return DecodeStatus::Truncated;
  std::vector<ProcDesc> Procs(NumProcs);
  for (ProcDesc &Proc : Procs) {
    uint64_t Sites = 0, Paths = 0;
    if (!R.str(Proc.Name) || !R.u64(Sites) || !R.bytes(Proc.SiteIsIndirect) ||
        !R.u64(Paths))
      return DecodeStatus::Truncated;
    if (Sites > MaxProcSites)
      return DecodeStatus::Malformed;
    Proc.NumSites = static_cast<unsigned>(Sites);
    Proc.NumPaths = Paths;
  }
  uint64_t NumMetrics = 0, CellBytes = 0, HashThreshold = 0, HeapBytes = 0,
           ListCells = 0, NumRecords = 0;
  if (!R.u64(NumMetrics) || !R.u64(CellBytes) || !R.u64(HashThreshold) ||
      !R.u64(HeapBytes) || !R.u64(ListCells))
    return DecodeStatus::Truncated;
  // The tree constructor allocates per-record metric arrays and simulated
  // heap space up front; insane geometry would abort inside it, so reject
  // it here.
  if (NumMetrics > MaxTreeMetrics || CellBytes > MaxPathCellBytes ||
      HeapBytes > MaxCctHeapBytes)
    return DecodeStatus::Malformed;
  if (!R.count(NumRecords, MinRecordBytes))
    return DecodeStatus::Truncated;

  auto Tree = std::make_unique<CallingContextTree>(
      std::move(Procs), static_cast<unsigned>(NumMetrics), nullptr,
      static_cast<unsigned>(CellBytes), HashThreshold);
  // Discard the constructor's root; every record is read verbatim. All
  // records exist before the first is read, so a slot resolves its
  // targets as it is read (the count above bounds them by the bytes).
  std::vector<std::unique_ptr<CallRecord>> &Records = Tree->Records;
  Records.clear();
  Records.reserve(NumRecords);
  for (uint64_t Index = 0; Index != NumRecords; ++Index)
    Records.push_back(std::make_unique<CallRecord>());
  Tree->ListCellCount = ListCells;
  Tree->HeapNext = layout::CctHeapBase + HeapBytes;

  // Bytes no tree writes (a root other than record 0, a parent listed
  // after its child, a slot target out of range, an unresolved slot with
  // a target, a direct slot with two, path sums out of ascending order)
  // are noted here and reported once the whole tree is read, so a tree
  // that is also cut short still reads as Truncated.
  bool Misshapen = NumRecords == 0;
  for (uint64_t Index = 0; Index != NumRecords; ++Index) {
    CallRecord &Rec = *Records[Index];
    uint64_t Proc = 0, Parent = 0, NumRecMetrics = 0, NumCells = 0,
             NumSlots = 0;
    if (!R.u64(Proc) || !R.u64(Parent) || !R.u64(Rec.Addr) ||
        !R.u64(Rec.PathTableAddr) || !R.count(NumRecMetrics, 8))
      return DecodeStatus::Truncated;
    Rec.Proc = static_cast<ProcId>(Proc);
    if (Rec.Proc != RootProcId && Rec.Proc >= Tree->Procs.size())
      return DecodeStatus::Malformed;
    // Record 0 is the one root: the root procedure, parent -1. Every
    // other record's parent is listed before it.
    if (Index == 0) {
      if (Parent != ~uint64_t(0) || Rec.Proc != RootProcId)
        Misshapen = true;
    } else if (Parent < Index) {
      Rec.Parent = Records[Parent].get();
      Rec.Depth = Rec.Parent->Depth + 1;
    } else {
      Misshapen = true;
    }
    Rec.Metrics.resize(NumRecMetrics);
    for (uint64_t &Metric : Rec.Metrics)
      if (!R.u64(Metric))
        return DecodeStatus::Truncated;
    if (!R.count(NumCells, MinPathCellBytes))
      return DecodeStatus::Truncated;
    // The writer lists path sums strictly ascending, so a sum out of
    // order (or repeated) is bytes no tree writes: accepting it would let
    // one tree read from two encodings.
    Rec.PathTable.reserve(NumCells);
    for (uint64_t Cell = 0; Cell != NumCells; ++Cell) {
      uint64_t Sum = 0;
      PathCell Counts;
      if (!R.u64(Sum) || !R.u64(Counts.Freq) || !R.u64(Counts.Metric0) ||
          !R.u64(Counts.Metric1))
        return DecodeStatus::Truncated;
      if (!Rec.PathTable.empty() && Sum <= Rec.PathTable.back().first)
        Misshapen = true;
      Rec.PathTable.push_back({Sum, Counts});
    }
    if (!R.count(NumSlots, MinSlotBytes))
      return DecodeStatus::Truncated;
    Rec.Slots.resize(NumSlots);
    for (CallRecord::Slot &Slot : Rec.Slots) {
      uint8_t Kind = 0;
      uint64_t NumTargets = 0;
      if (!R.u8(Kind) || !R.count(NumTargets, MinTargetBytes))
        return DecodeStatus::Truncated;
      if (Kind > static_cast<uint8_t>(CallRecord::Slot::Kind::List))
        return DecodeStatus::Malformed;
      Slot.K = static_cast<CallRecord::Slot::Kind>(Kind);
      if ((Slot.K == CallRecord::Slot::Kind::Unresolved && NumTargets != 0) ||
          (Slot.K == CallRecord::Slot::Kind::Record && NumTargets > 1))
        Misshapen = true;
      for (uint64_t Target = 0; Target != NumTargets; ++Target) {
        uint64_t To = 0, CellAddr = 0;
        if (!R.u64(To) || !R.u64(CellAddr))
          return DecodeStatus::Truncated;
        if (To >= NumRecords) {
          Misshapen = true;
          continue;
        }
        if (Slot.K == CallRecord::Slot::Kind::Record)
          Slot.Direct = Records[To].get();
        else
          Slot.List.push_back({Records[To].get(), CellAddr});
      }
    }
  }
  if (Misshapen)
    return DecodeStatus::Malformed;
  Tree->Root = Records.front().get();
  Out = std::move(Tree);
  return DecodeStatus::Ok;
}

std::unique_ptr<CallingContextTree>
cct::copyTree(const CallingContextTree &Tree) {
  ByteWriter W;
  writeTree(W, Tree);
  ByteReader R(W.Bytes.data(), W.Bytes.size());
  std::unique_ptr<CallingContextTree> Copy;
  DecodeStatus Status = readTree(R, Copy);
  assert(Status == DecodeStatus::Ok && R.atEnd() &&
         "a tree must read back its own bytes");
  (void)Status;
  return Copy;
}
