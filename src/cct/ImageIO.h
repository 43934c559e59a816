//===- cct/ImageIO.h - CCT binary codec ------------------------*- C++ -*-===//
///
/// \file
/// The binary encoding of a full-fidelity CCT, embedded in every profdb
/// artifact that carries a tree (run-cache entries are artifacts too, see
/// profdb/Artifact.h). Unlike the compact profile-file encoding in
/// cct/Export.h, it preserves slots, simulated addresses and heap usage,
/// so a tree read back has statistics identical to the original's. The
/// writer reads the live records and the reader fills them in place: a
/// tree has this one byte form and no intermediate image.
///
/// The reader is bounds-checked: every count is validated against the
/// bytes remaining, and decoded geometry is held under sanity ceilings
/// before it reaches the CCT allocator (which treats exhaustion as
/// fatal). Its verdict is the shared DecodeStatus (support/BinaryIO.h),
/// of which it only ever returns Ok, Truncated or Malformed.
///
//===----------------------------------------------------------------------===//

#ifndef PP_CCT_IMAGEIO_H
#define PP_CCT_IMAGEIO_H

#include "cct/CallingContextTree.h"
#include "support/BinaryIO.h"

namespace pp {
namespace cct {

/// Sanity ceilings for decoded tree geometry. Real trees sit far below
/// them; a corrupt file that exceeds one is rejected as malformed instead
/// of driving the CCT allocator or the host allocator into the ground.
inline constexpr uint64_t MaxTreeMetrics = 1024;
inline constexpr uint64_t MaxPathCellBytes = 4096;
inline constexpr uint64_t MaxProcSites = uint64_t(1) << 20;
inline constexpr uint64_t MaxCctHeapBytes =
    layout::ProfStackBase - layout::CctHeapBase;

/// Appends the encoding of \p Tree to \p W, straight from its records.
/// Path cells go in the order each record holds them, ascending by path
/// sum (asserted), so equal trees write equal bytes.
void writeTree(ByteWriter &W, const CallingContextTree &Tree);

/// Decodes the bytes writeTree wrote straight into a tree, in one pass:
/// Truncated when a count exceeds the bytes remaining, Malformed for a
/// structurally impossible value (bad slot kind, geometry above a
/// ceiling, out-of-range procedure id) and, once the whole tree is read,
/// for bytes no tree writes (no record, record 0 not a root-procedure
/// record with parent -1, any other record's parent not listed before
/// it, a slot target out of range, an unresolved slot with a target, a
/// direct slot with two, path sums not strictly ascending in one
/// record). \p Out is set only on Ok; the tree carries no MemCharger.
DecodeStatus readTree(ByteReader &R, std::unique_ptr<CallingContextTree> &Out);

/// A deep copy of \p Tree: writeTree, then readTree. Like any tree read
/// from bytes, the copy carries no MemCharger.
std::unique_ptr<CallingContextTree> copyTree(const CallingContextTree &Tree);

} // namespace cct
} // namespace pp

#endif // PP_CCT_IMAGEIO_H
