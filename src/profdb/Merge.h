//===- profdb/Merge.h - Structural profile merging -------------*- C++ -*-===//
///
/// \file
/// Merging of profile artifacts: path profiles are summed entry-by-entry,
/// and CCTs are merged *structurally* — children matched by (call site,
/// callee), recursion backedges preserved by their ancestor distance,
/// metric vectors and per-path counters summed.
///
/// All merging goes through one in-place fold (profdb::Fold). Each input
/// is lifted straight from its call records into the fold's merge form
/// and checked on its own, then checked against the fold, and only then
/// summed in; the summing step cannot fail, so a rejected input leaves
/// the fold untouched. The merged tree is emitted once, canonically
/// (deterministic DFS order through the real CCT allocator), so folding
/// the same artifact set in any order, with any thread count, yields
/// bit-identical bytes; MergeDeterminism tests pin this.
///
/// Whether two artifacts count the same path-id space is decided once,
/// by checkShape: merge, diff (profdb/Diff.h) and the fleet collector's
/// routing (collectd/Ingest.h, by shapeKey) all ask it. Incompatible
/// artifacts are rejected with a descriptive error instead of producing
/// a silently meaningless sum.
///
/// mergeAll folds N shards once. With more than one thread it folds
/// contiguous chunks of the shard list on a support/WorkerPool built once
/// per call (PP_PROFDB_THREADS, falling back to the driver's thread
/// knobs) and absorbs the chunk folds in chunk order; the canonical
/// emission makes the bytes independent of the chunking.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROFDB_MERGE_H
#define PP_PROFDB_MERGE_H

#include "profdb/Artifact.h"

#include <memory>
#include <string>
#include <vector>

namespace pp {
namespace profdb {

/// The header shape two artifacts must share to be merged or diffed: the
/// schema (a k mismatch gets its own message), workload and scale, the
/// function table, CCT presence (\p ATree, \p BTree: a fold keeps its
/// tree apart from its header), and the path-profile geometry (per
/// function FuncId, HasProfile, NumPaths, Hashed and KIters). False sets
/// \p Error to the first difference; \p Verb ("merge", "diff") is the
/// operation the k messages name. The CCT's own geometry is not compared:
/// that needs the lifted tree, so Fold checks it when it folds.
bool checkShape(const Artifact &A, bool ATree, const Artifact &B, bool BTree,
                const char *Verb, std::string &Error);

/// The routing key of checkShape: two artifacts get equal keys exactly
/// when checkShape passes for them.
std::string shapeKey(const Artifact &A);

/// Worker threads for mergeAll: PP_PROFDB_THREADS when set (0 means
/// serial), else the driver's PP_DRIVER_THREADS (0 means serial), else WorkerPool::hardwareDefault() (the hardware
/// concurrency clamped to [4, 16]). Always at least 1.
unsigned mergeThreadsFromEnv();

/// The merge form of a set of artifacts: the header sums, the summed path
/// profiles, and the merged CCT as a canonical (slot, callee)-keyed tree.
///
/// Every add is transactional. The input is first checked on its own —
/// the tree is a tree with backedges to the nearest ancestor, every
/// record has its procedure's slot count, slot kinds match the call
/// sites, no child repeats an ancestor's procedure — then against the
/// fold (checkShape, the CCT geometry and procedure table, and at most
/// one callee per direct call site across every input). Nothing is mutated
/// until both passed, and the summing step that follows cannot fail.
class Fold {
public:
  Fold();
  ~Fold();
  Fold(Fold &&);
  Fold &operator=(Fold &&);

  /// Folds \p A in. False (and \p Error set) rejects \p A with the fold
  /// exactly as it was.
  bool add(const Artifact &A, std::string &Error);
  /// As above, consuming \p A on success: a later input's function
  /// table and path profiles move into the fold, and a rejected \p A is
  /// left whole. The fold's first input is kept, so a fold of one input
  /// returns that input itself.
  bool add(Artifact &&A, std::string &Error);
  /// Absorbs another fold, with the same all-or-nothing contract.
  bool add(Fold &&Other, std::string &Error);

  /// Inputs (artifacts and absorbed folds' inputs) accepted so far.
  uint64_t inputs() const { return Inputs; }

  /// The merged artifact. Emitted canonically on first use and cached
  /// until the next accepted add; a fold whose only input was added by
  /// move returns that input. The fold must not be empty.
  const Artifact &result();
  /// Moves result() out, leaving the fold empty.
  Artifact take();

  struct Node;

private:
  /// Makes this empty fold the checked merge form of \p A alone, all but
  /// the function table and path profiles, which each add copies or
  /// moves in.
  bool lift(const Artifact &A, std::string &Error);
  bool compatible(const Fold &In, std::string &Error) const;
  Artifact emit() const;

  uint64_t Inputs = 0;
  /// Header sums and the shape every input must share (no tree).
  Artifact Header;
  std::unique_ptr<Node> Root;
  /// The CCT geometry of a fold with a tree (copied from the first input).
  std::vector<cct::ProcDesc> Procs;
  unsigned NumMetrics = 0;
  unsigned PathCellBytes = 0;
  uint64_t HashThreshold = 0;
  /// The emitted merge, or the single input kept by add(Artifact &&).
  std::unique_ptr<Artifact> Result;
};

/// Merges \p A and \p B into \p Out (a fold of the two). Returns false
/// (and sets \p Error) when the artifacts are incompatible or
/// structurally inconsistent; \p Out is unspecified then.
bool mergeArtifacts(const Artifact &A, const Artifact &B, Artifact &Out,
                    std::string &Error);

/// Folds \p Shards into one artifact, on up to \p Threads threads. A
/// single shard is returned as it is (once checked). The bytes are
/// identical for any shard order and any thread count.
bool mergeAll(std::vector<Artifact> Shards, Artifact &Out, std::string &Error,
              unsigned Threads = 1);

} // namespace profdb
} // namespace pp

#endif // PP_PROFDB_MERGE_H
