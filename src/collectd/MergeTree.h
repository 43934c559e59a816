//===- collectd/MergeTree.h - Windowed incremental merging -----*- C++ -*-===//
///
/// \file
/// The fleet collector's per-(window, group) accumulator: an incremental
/// fold of profile artifacts. Each accepted upload is merged into the
/// running fold (profdb::mergeArtifacts) and then dropped, so a group
/// holds exactly one artifact however many uploads it has accepted, and
/// every add costs one pairwise merge.
///
/// Determinism: because pairwise artifact merging is associative and
/// commutative with canonical re-emission (see profdb/Merge.h), the fold
/// of a window is bit-identical to a flat mergeAll of its leaves, for any
/// upload arrival order and any ingest thread count. CollectdTest pins
/// this by shuffling arrivals and comparing encoded bytes.
///
//===----------------------------------------------------------------------===//

#ifndef PP_COLLECTD_MERGETREE_H
#define PP_COLLECTD_MERGETREE_H

#include "profdb/Artifact.h"

#include <string>

namespace pp {
namespace collectd {

/// One schema group's fold within one time window. Not thread-safe; the
/// ingest service serializes access per window.
class MergeTree {
public:
  /// Folds \p A into the tree. The add is transactional: \p A is
  /// trial-merged against the running fold (which carries the union of
  /// every accepted leaf's structure), and the fold is replaced only when
  /// that merge succeeds. The first leaf is self-merged instead, which
  /// exercises the structural checks the decoder does not make. A
  /// merge-incompatible artifact — structural corruption that slipped
  /// past the decoder, or a shape the group key does not distinguish —
  /// therefore surfaces as false + \p Error on *this* add, and provably
  /// leaves the tree (and its folded bytes) exactly as if the artifact
  /// was never offered.
  bool add(profdb::Artifact A, std::string &Error);

  /// The fold of everything added so far: one artifact merging every
  /// leaf (bit-identical to a flat mergeAll of the leaves by the
  /// associativity pinned in CollectdTest). Null (with \p Error set) only
  /// when the tree is empty.
  const profdb::Artifact *folded(std::string &Error);

  /// Total artifacts accepted into the tree.
  uint64_t leafCount() const { return Leaves; }

private:
  uint64_t Leaves = 0;
  /// The fold of every accepted leaf; meaningful once Leaves != 0.
  profdb::Artifact Fold;
};

} // namespace collectd
} // namespace pp

#endif // PP_COLLECTD_MERGETREE_H
