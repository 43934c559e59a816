//===- cct/Export.h - CCT serialisation and dot export ---------*- C++ -*-===//
///
/// \file
/// Program-exit persistence of the CCT (§4.2: "the instrumentation writes
/// the heap containing the CCT to a file from which the CCT can be
/// reconstructed"): a compact binary encoding with a reader, plus Graphviz
/// export for visual inspection.
///
//===----------------------------------------------------------------------===//

#ifndef PP_CCT_EXPORT_H
#define PP_CCT_EXPORT_H

#include "cct/CallingContextTree.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pp {
namespace cct {

/// A reconstructed record from a serialised CCT.
struct LoadedRecord {
  ProcId Proc;
  int Parent; // index into the loaded vector; -1 for the root
  std::vector<uint64_t> Metrics;
  std::vector<std::pair<uint64_t, PathCell>> PathCells;
};

/// Serialises the tree (records in allocation order, tree edges, metrics,
/// path tables in path-sum order), so equal trees serialize to equal
/// bytes whether live or read from an artifact. Slots/backedges are
/// reconstructible from the metrics use case and are not persisted,
/// matching the paper's profile-file role.
std::vector<uint8_t> serialize(const CallingContextTree &Tree);

/// Reads back what serialize() wrote. Returns false on malformed input.
bool deserialize(const std::vector<uint8_t> &Bytes,
                 std::vector<LoadedRecord> &Out);

/// Graphviz rendering: tree edges solid, recursion backedges dashed.
std::string exportDot(const CallingContextTree &Tree);

} // namespace cct
} // namespace pp

#endif // PP_CCT_EXPORT_H
