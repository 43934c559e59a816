//===- profdb/Diff.h - Per-path and per-context profile deltas -*- C++ -*-===//
///
/// \file
/// Differencing of two compatible artifacts (or merged sets): the
/// programmatic version of the paper's Table 2 perturbation comparison.
/// Reports metric deltas per Ball-Larus path (keyed by function + path
/// sum) and per calling context (keyed by the root-to-record procedure
/// chain), sorted by descending PIC1 magnitude with deterministic
/// tie-breaks so diff output is stable.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROFDB_DIFF_H
#define PP_PROFDB_DIFF_H

#include "profdb/Artifact.h"

#include <string>
#include <vector>

namespace pp {
namespace profdb {

/// Delta of one Ball-Larus path between two profiles (B minus A). The
/// (FuncId, PathSum) key names a path only within one path-id space;
/// diffArtifacts checks that both artifacts share it (profdb::checkShape:
/// k, per-function KIters, NumPaths, ...) before any sums are compared, so
/// a k=2 window sum never silently diffs against a k=1 path sum that
/// happens to share its value.
struct PathDelta {
  unsigned FuncId = 0;
  uint64_t PathSum = 0;
  int64_t DFreq = 0;
  int64_t DPic0 = 0;
  int64_t DPic1 = 0;
};

/// Delta of one calling context (B minus A). Pic0/Pic1 fold in both the
/// per-record metric accumulators and the record's path-cell sums, so
/// every context mode contributes whichever representation it used.
struct ContextDelta {
  /// " > "-joined procedure names from the root (root excluded).
  std::string Context;
  int64_t DCalls = 0;
  int64_t DPic0 = 0;
  int64_t DPic1 = 0;
};

struct ArtifactDiff {
  std::vector<PathDelta> Paths;
  std::vector<ContextDelta> Contexts;
};

/// Diffs \p B against \p A (deltas are B - A). The artifacts must pass
/// the same shape check a merge makes (profdb::checkShape); returns false
/// with \p Error set otherwise. Identical entries (all deltas zero) are
/// omitted.
bool diffArtifacts(const Artifact &A, const Artifact &B, ArtifactDiff &Out,
                   std::string &Error);

} // namespace profdb
} // namespace pp

#endif // PP_PROFDB_DIFF_H
