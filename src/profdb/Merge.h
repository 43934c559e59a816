//===- profdb/Merge.h - Structural profile merging -------------*- C++ -*-===//
///
/// \file
/// Merging of profile artifacts: path profiles are summed entry-by-entry,
/// and CCTs are merged *structurally* — children matched by (call site,
/// callee), recursion backedges preserved by their ancestor distance,
/// metric vectors and per-path counters summed. The merged tree is
/// re-emitted canonically (deterministic DFS order through the real CCT
/// allocator), so merging the same artifact set in any order, with any
/// thread count, yields bit-identical bytes; MergeDeterminism tests pin
/// this associativity/commutativity.
///
/// Artifacts with incompatible metric schemas, workloads, or program
/// shapes are rejected with a descriptive error instead of producing a
/// silently meaningless sum.
///
/// mergeAll reduces N shards in O(log N) pairwise waves; the pairs of a
/// wave are independent and run on a support/WorkerPool built once per
/// call (PP_PROFDB_THREADS, falling back to the driver's thread knobs).
/// The pairing is fixed by shard position, never by thread schedule,
/// which is what keeps the result thread-count-independent.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROFDB_MERGE_H
#define PP_PROFDB_MERGE_H

#include "profdb/Artifact.h"

#include <string>
#include <vector>

namespace pp {
namespace profdb {

/// Worker threads for mergeAll: PP_PROFDB_THREADS when set (0 means
/// serial), else the driver's PP_DRIVER_SERIAL / PP_DRIVER_THREADS
/// convention, else WorkerPool::hardwareDefault() (the hardware
/// concurrency clamped to [4, 16]). Always at least 1.
unsigned mergeThreadsFromEnv();

/// Merges \p A and \p B into \p Out. Returns false (and sets \p Error)
/// when the artifacts are incompatible or structurally inconsistent;
/// \p Out is unspecified then.
bool mergeArtifacts(const Artifact &A, const Artifact &B, Artifact &Out,
                    std::string &Error);

/// Reduces \p Shards to one artifact in O(log N) pairwise waves, the
/// pairs of each wave merged on up to \p Threads threads. The reduction
/// tree depends only on shard positions, so for a fixed input order the
/// bytes are identical under any thread count — and because each pair
/// merge is itself order-canonical, shuffled input orders agree too.
bool mergeAll(std::vector<Artifact> Shards, Artifact &Out, std::string &Error,
              unsigned Threads = 1);

} // namespace profdb
} // namespace pp

#endif // PP_PROFDB_MERGE_H
