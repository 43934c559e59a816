//===- cct/ImageIO.h - TreeImage binary codec ------------------*- C++ -*-===//
///
/// \file
/// The binary encoding of a full-fidelity CCT, embedded in every profdb
/// artifact that carries a tree (run-cache entries are artifacts too, see
/// profdb/Artifact.h). The writer encodes a cct::TreeImage; the reader
/// builds the CallingContextTree itself, so decoding never materialises
/// the image.
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

/// Sanity ceilings for decoded tree geometry. Real images sit far below
/// them; a corrupt file that exceeds one is rejected as malformed instead
/// of driving the CCT allocator or the host allocator into the ground.
inline constexpr uint64_t MaxTreeMetrics = 1024;
inline constexpr uint64_t MaxPathCellBytes = 4096;
inline constexpr uint64_t MaxProcSites = uint64_t(1) << 20;
inline constexpr uint64_t MaxCctHeapBytes =
    layout::ProfStackBase - layout::CctHeapBase;

/// Appends the encoding of \p Image to \p W.
void writeTreeImage(ByteWriter &W, const TreeImage &Image);

/// Decodes the bytes writeTreeImage wrote straight into a tree, in one
/// pass with no image between: Truncated when a count exceeds the bytes
/// remaining, Malformed for a structurally impossible value (bad slot
/// kind, geometry above a ceiling, out-of-range procedure id) and, once
/// the whole tree is read, for a tree fromImage would refuse (no record,
/// a parent listed after its child, a slot target out of range). \p Out
/// is set only on Ok; the tree carries no MemCharger.
DecodeStatus readTree(ByteReader &R, std::unique_ptr<CallingContextTree> &Out);

} // namespace cct
} // namespace pp

#endif // PP_CCT_IMAGEIO_H
