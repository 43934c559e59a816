//===- collectd/MergeTree.h - Windowed incremental merging -----*- C++ -*-===//
///
/// \file
/// The fleet collector's per-(window, group) accumulator: an incremental
/// fold of profile artifacts. Each accepted upload is summed into the
/// group's profdb::Fold in place and then dropped, so a group holds one
/// merge form however many uploads it has accepted, and an add never
/// copies what the group has already folded.
///
/// Determinism: the fold is emitted canonically (see profdb/Merge.h), so
/// the folded artifact of a window is bit-identical to a flat mergeAll of
/// its leaves, for any upload arrival order and any ingest thread count.
/// CollectdTest pins this by shuffling arrivals and comparing encoded
/// bytes.
///
//===----------------------------------------------------------------------===//

#ifndef PP_COLLECTD_MERGETREE_H
#define PP_COLLECTD_MERGETREE_H

#include "profdb/Merge.h"

#include <string>

namespace pp {
namespace collectd {

/// One schema group's fold within one time window. Not thread-safe; the
/// ingest service serializes access per window.
class MergeTree {
public:
  /// Folds \p A into the tree. The add is transactional: \p A is checked
  /// on its own and against everything folded so far before anything is
  /// mutated (profdb::Fold). A merge-incompatible artifact — structural
  /// corruption that slipped past the decoder, or a shape the group key
  /// does not distinguish — therefore surfaces as false + \p Error on
  /// *this* add, and provably leaves the tree (and its folded bytes)
  /// exactly as if the artifact was never offered.
  bool add(profdb::Artifact A, std::string &Error) {
    return Merged.add(std::move(A), Error);
  }

  /// The fold of everything added so far: one artifact merging every
  /// leaf, bit-identical to a flat mergeAll of the leaves (a single leaf
  /// is returned as it was added). Emitted on first use and cached until
  /// the next accepted add. Null (with \p Error set) only when the tree
  /// is empty.
  const profdb::Artifact *folded(std::string &Error);

  /// Total artifacts accepted into the tree.
  uint64_t leafCount() const { return Merged.inputs(); }

private:
  profdb::Fold Merged;
};

} // namespace collectd
} // namespace pp

#endif // PP_COLLECTD_MERGETREE_H
