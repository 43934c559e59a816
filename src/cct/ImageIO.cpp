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

DecodeStatus cct::readTreeImage(ByteReader &R, TreeImage &Out) {
  uint64_t NumProcs;
  if (!R.count(NumProcs, MinProcBytes))
    return DecodeStatus::Truncated;
  Out.Procs.resize(NumProcs);
  for (ProcDesc &Proc : Out.Procs) {
    uint64_t Sites, Paths;
    if (!R.str(Proc.Name) || !R.u64(Sites) || !R.bytes(Proc.SiteIsIndirect) ||
        !R.u64(Paths))
      return DecodeStatus::Truncated;
    if (Sites > MaxProcSites)
      return DecodeStatus::Malformed;
    Proc.NumSites = static_cast<unsigned>(Sites);
    Proc.NumPaths = Paths;
  }
  uint64_t NumMetrics, CellBytes, NumRecords;
  if (!R.u64(NumMetrics) || !R.u64(CellBytes) || !R.u64(Out.HashThreshold) ||
      !R.u64(Out.HeapBytes) || !R.u64(Out.ListCells))
    return DecodeStatus::Truncated;
  // The tree constructor allocates per-record metric arrays and simulated
  // heap space up front; insane geometry would abort inside it, so reject
  // it here.
  if (NumMetrics > MaxTreeMetrics || CellBytes > MaxPathCellBytes ||
      Out.HeapBytes > MaxCctHeapBytes)
    return DecodeStatus::Malformed;
  if (!R.count(NumRecords, MinRecordBytes))
    return DecodeStatus::Truncated;
  Out.NumMetrics = static_cast<unsigned>(NumMetrics);
  Out.PathCellBytes = static_cast<unsigned>(CellBytes);
  Out.Records.resize(NumRecords);
  for (TreeImage::Record &Rec : Out.Records) {
    uint64_t Proc, Parent, NumRecMetrics, NumCells, NumSlots;
    if (!R.u64(Proc) || !R.u64(Parent) || !R.u64(Rec.Addr) ||
        !R.u64(Rec.PathTableAddr) || !R.count(NumRecMetrics, 8))
      return DecodeStatus::Truncated;
    Rec.Proc = static_cast<ProcId>(Proc);
    Rec.Parent = static_cast<int64_t>(Parent);
    if (Rec.Proc != RootProcId && Rec.Proc >= Out.Procs.size())
      return DecodeStatus::Malformed;
    Rec.Metrics.resize(NumRecMetrics);
    for (uint64_t &Metric : Rec.Metrics)
      if (!R.u64(Metric))
        return DecodeStatus::Truncated;
    if (!R.count(NumCells, MinPathCellBytes))
      return DecodeStatus::Truncated;
    Rec.PathCells.resize(NumCells);
    for (auto &[Sum, Cell] : Rec.PathCells)
      if (!R.u64(Sum) || !R.u64(Cell.Freq) || !R.u64(Cell.Metric0) ||
          !R.u64(Cell.Metric1))
        return DecodeStatus::Truncated;
    if (!R.count(NumSlots, MinSlotBytes))
      return DecodeStatus::Truncated;
    Rec.Slots.resize(NumSlots);
    for (TreeImage::Slot &Slot : Rec.Slots) {
      uint64_t NumTargets;
      if (!R.u8(Slot.Kind) || !R.count(NumTargets, MinTargetBytes))
        return DecodeStatus::Truncated;
      if (Slot.Kind > static_cast<uint8_t>(CallRecord::Slot::Kind::List))
        return DecodeStatus::Malformed;
      Slot.Targets.resize(NumTargets);
      for (auto &[Target, CellAddr] : Slot.Targets)
        if (!R.u64(Target) || !R.u64(CellAddr))
          return DecodeStatus::Truncated;
    }
  }
  return DecodeStatus::Ok;
}
