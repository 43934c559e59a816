//===- cct/ImageIO.cpp - TreeImage binary codec --------------------------------===//

#include "cct/ImageIO.h"

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

void cct::writeTreeImage(ByteWriter &W, const TreeImage &Image) {
  W.u64(Image.Procs.size());
  for (const ProcDesc &Proc : Image.Procs) {
    W.str(Proc.Name);
    W.u64(Proc.NumSites);
    W.bytes(Proc.SiteIsIndirect);
    W.u64(Proc.NumPaths);
  }
  W.u64(Image.NumMetrics);
  W.u64(Image.PathCellBytes);
  W.u64(Image.HashThreshold);
  W.u64(Image.HeapBytes);
  W.u64(Image.ListCells);
  W.u64(Image.Records.size());
  for (const TreeImage::Record &Rec : Image.Records) {
    W.u64(Rec.Proc);
    W.u64(static_cast<uint64_t>(Rec.Parent));
    W.u64(Rec.Addr);
    W.u64(Rec.PathTableAddr);
    W.u64(Rec.Metrics.size());
    for (uint64_t Metric : Rec.Metrics)
      W.u64(Metric);
    W.u64(Rec.PathCells.size());
    for (const auto &[Sum, Cell] : Rec.PathCells) {
      W.u64(Sum);
      W.u64(Cell.Freq);
      W.u64(Cell.Metric0);
      W.u64(Cell.Metric1);
    }
    W.u64(Rec.Slots.size());
    for (const TreeImage::Slot &Slot : Rec.Slots) {
      W.u8(Slot.Kind);
      W.u64(Slot.Targets.size());
      for (const auto &[Target, CellAddr] : Slot.Targets) {
        W.u64(Target);
        W.u64(CellAddr);
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

  // A parent listed after its child or a slot target out of range is
  // noted here and reported once the whole tree is read, so a tree that
  // is also cut short still reads as Truncated.
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
    // Any negative index marks a root (the encoder writes -1).
    if (static_cast<int64_t>(Parent) >= 0) {
      if (Parent < Index) {
        Rec.Parent = Records[Parent].get();
        Rec.Depth = Rec.Parent->Depth + 1;
      } else {
        Misshapen = true;
      }
    }
    Rec.Metrics.resize(NumRecMetrics);
    for (uint64_t &Metric : Rec.Metrics)
      if (!R.u64(Metric))
        return DecodeStatus::Truncated;
    if (!R.count(NumCells, MinPathCellBytes))
      return DecodeStatus::Truncated;
    for (uint64_t Cell = 0; Cell != NumCells; ++Cell) {
      uint64_t Sum = 0;
      PathCell Counts;
      if (!R.u64(Sum) || !R.u64(Counts.Freq) || !R.u64(Counts.Metric0) ||
          !R.u64(Counts.Metric1))
        return DecodeStatus::Truncated;
      Rec.PathTable.emplace(Sum, Counts);
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
