//===- cct/Export.cpp - CCT serialisation and dot export -------------------===//

#include "cct/Export.h"

#include "support/BinaryIO.h"
#include "support/Format.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

using namespace pp;
using namespace pp::cct;

namespace {

constexpr uint32_t Magic = 0x50504354; // "PPCT"

} // namespace

std::vector<uint8_t> cct::serialize(const CallingContextTree &Tree) {
  ByteWriter W;
  W.u64(Magic);
  W.u64(Tree.numRecords());

  std::unordered_map<const CallRecord *, uint64_t> IndexOf;
  for (size_t Index = 0; Index != Tree.records().size(); ++Index)
    IndexOf[Tree.records()[Index].get()] = Index;

  for (const auto &R : Tree.records()) {
    W.u64(R->procId());
    W.u64(R->parent() ? IndexOf.at(R->parent()) + 1 : 0);
    W.u64(R->Metrics.size());
    for (uint64_t Metric : R->Metrics)
      W.u64(Metric);
    // Path-sum order, as image() uses: the live table is a hash map whose
    // iteration order depends on insertion history, so a tree restored
    // from an image would otherwise export different bytes.
    std::vector<std::pair<uint64_t, PathCell>> Cells(R->PathTable.begin(),
                                                     R->PathTable.end());
    std::sort(Cells.begin(), Cells.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    W.u64(Cells.size());
    for (const auto &[Sum, Cell] : Cells) {
      W.u64(Sum);
      W.u64(Cell.Freq);
      W.u64(Cell.Metric0);
      W.u64(Cell.Metric1);
    }
  }
  return std::move(W.Bytes);
}

bool cct::deserialize(const std::vector<uint8_t> &Bytes,
                      std::vector<LoadedRecord> &Out) {
  ByteReader R(Bytes.data(), Bytes.size());
  uint64_t Header, NumRecords;
  if (!R.u64(Header) || Header != Magic || !R.u64(NumRecords))
    return false;
  Out.clear();
  Out.reserve(NumRecords);
  for (uint64_t Index = 0; Index != NumRecords; ++Index) {
    LoadedRecord Record;
    uint64_t Proc, ParentPlus1, NumMetrics, NumCells;
    if (!R.u64(Proc) || !R.u64(ParentPlus1) || !R.count(NumMetrics, 8))
      return false;
    Record.Proc = static_cast<ProcId>(Proc);
    if (ParentPlus1 > Index)
      return false; // parents precede children in allocation order
    Record.Parent = static_cast<int>(ParentPlus1) - 1;
    Record.Metrics.resize(NumMetrics);
    for (uint64_t M = 0; M != NumMetrics; ++M)
      if (!R.u64(Record.Metrics[M]))
        return false;
    if (!R.count(NumCells, 4 * 8))
      return false;
    for (uint64_t C = 0; C != NumCells; ++C) {
      uint64_t Sum;
      PathCell Cell;
      if (!R.u64(Sum) || !R.u64(Cell.Freq) || !R.u64(Cell.Metric0) ||
          !R.u64(Cell.Metric1))
        return false;
      Record.PathCells.push_back({Sum, Cell});
    }
    Out.push_back(std::move(Record));
  }
  return true;
}

std::string cct::exportDot(const CallingContextTree &Tree) {
  std::string Out = "digraph cct {\n  node [shape=box];\n";
  std::unordered_map<const CallRecord *, uint64_t> IndexOf;
  for (size_t Index = 0; Index != Tree.records().size(); ++Index)
    IndexOf[Tree.records()[Index].get()] = Index;

  for (const auto &R : Tree.records()) {
    std::string Label =
        R->procId() == RootProcId
            ? std::string("T")
            : Tree.procDesc(R->procId()).Name;
    Out += formatString("  n%llu [label=\"%s\"];\n",
                        (unsigned long long)IndexOf.at(R.get()),
                        Label.c_str());
  }
  for (const auto &R : Tree.records()) {
    uint64_t From = IndexOf.at(R.get());
    auto EmitEdge = [&](const CallRecord *To) {
      bool TreeEdge = To->parent() == R.get();
      Out += formatString("  n%llu -> n%llu%s;\n", (unsigned long long)From,
                          (unsigned long long)IndexOf.at(To),
                          TreeEdge ? "" : " [style=dashed]");
    };
    for (unsigned Index = 0; Index != R->numSlots(); ++Index) {
      const CallRecord::Slot &S = R->slot(Index);
      if (S.K == CallRecord::Slot::Kind::Record && S.Direct)
        EmitEdge(S.Direct);
      else if (S.K == CallRecord::Slot::Kind::List)
        for (const auto &Cell : S.List)
          EmitEdge(Cell.first);
    }
  }
  return Out + "}\n";
}
