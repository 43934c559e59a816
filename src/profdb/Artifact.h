//===- profdb/Artifact.h - Persistent profile artifacts --------*- C++ -*-===//
///
/// \file
/// The one on-disk format of a run's profile: a self-describing,
/// CRC32-trailed binary artifact bundling the run's identity (RunKey
/// fingerprint), the metric schema (so readers can refuse to mix
/// incompatible measurements), the hardware-event totals, the
/// per-procedure Ball-Larus path tables, and the full calling context
/// tree. The profile repository stores artifacts (".ppa") to outlive the
/// process, travel between machines, and be merged, diffed, and queried
/// by tools/pp-report. The driver's disk run cache stores them too
/// (".ppo", see driver/RunCache.h), each followed by a run section with
/// the rest of the prof::RunOutcome: the run result, the acquisition
/// stats, the edge profiles and the instrumentation metadata. The byte
/// layout is in DESIGN.md ("Artifact format").
///
/// Trust model: artifacts are untrusted input. The decoder verifies
/// magic, version and checksum before trusting a single length field,
/// bounds every count against the bytes remaining before any allocation,
/// holds CCT geometry under ceilings, and returns a typed DecodeStatus
/// instead of crashing or silently loading a corrupt file.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROFDB_ARTIFACT_H
#define PP_PROFDB_ARTIFACT_H

#include "cct/CallingContextTree.h"
#include "prof/Session.h"
#include "support/BinaryIO.h"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace pp {
namespace ir {
class Module;
} // namespace ir

namespace profdb {

/// What the artifact's metrics mean. Two artifacts may only be merged or
/// diffed when their schemas are identical — summing D-cache misses into
/// branch mispredicts would silently corrupt both.
struct MetricSchema {
  /// prof::modeName of the run ("Flow and HW", "Context and Flow", ...).
  std::string Mode;
  /// hw::eventName routed to PIC0 / PIC1 ("Insts", "DC RdMiss", ...).
  std::string Pic0;
  std::string Pic1;
  /// prof::acquisitionName of the run ("exact"/"overflow"). Exact counts
  /// and sampled estimates must never be merged or diffed against each
  /// other, so acquisition is part of the schema, like the mode.
  std::string Acquisition = "exact";
  /// Requested k-BL iteration count of the run (1 = classic Ball-Larus).
  /// A k=2 window sum and a k=1 path sum occupy different id spaces, so k
  /// is part of the schema: cross-k artifacts refuse to merge or diff.
  unsigned K = 1;

  bool operator==(const MetricSchema &Other) const {
    return Mode == Other.Mode && Pic0 == Other.Pic0 && Pic1 == Other.Pic1 &&
           Acquisition == Other.Acquisition && K == Other.K;
  }
  bool operator!=(const MetricSchema &Other) const {
    return !(*this == Other);
  }

  /// The schema of a run profiled under \p Config with \p Acquisition.
  static MetricSchema of(const prof::ProfileConfig &Config,
                         const std::string &Acquisition = "exact");
};

/// One stored profile: a single run's, or the merge of many.
struct Artifact {
  /// The RunKey fingerprint of the run, or a symmetric "merged;..."
  /// fingerprint for merged artifacts (see Merge.h).
  std::string Fingerprint;
  /// XOR of the FNV-1a hashes of the constituent runs' fingerprints —
  /// order-independent, so any merge order yields the same identity.
  uint64_t SourceHash = 0;
  /// Number of runs folded into this artifact (1 for a fresh one).
  uint64_t RunCount = 1;

  std::string Workload;
  uint64_t Scale = 1;
  MetricSchema Schema;

  /// Sum of executed instructions over the constituent runs.
  uint64_t ExecutedInsts = 0;
  /// Elementwise sums of the runs' ground-truth event totals.
  std::array<uint64_t, hw::NumEvents> Totals{};

  /// Function names, indexed by function id (the ids path profiles and
  /// CCT ProcIds refer to).
  std::vector<std::string> Functions;

  /// Flow-mode path profiles, indexed by function id.
  std::vector<prof::FunctionPathProfile> PathProfiles;

  /// The CCT (context modes); null otherwise.
  std::unique_ptr<cct::CallingContextTree> Tree;

  Artifact() = default;
  Artifact(Artifact &&) = default;
  Artifact &operator=(Artifact &&) = default;
};

// The decoders' verdict is the repository-wide status (support/BinaryIO.h);
// profdb re-exports it as part of its own API.
using pp::DecodeStatus;
using pp::decodeStatusName;

/// FNV-1a hash of \p Text, for artifact and run-cache file names and
/// merged-source identities.
uint64_t fnv1a(const std::string &Text);

/// Serialises \p A into the versioned, CRC32-trailed artifact format.
std::vector<uint8_t> encodeArtifact(const Artifact &A);

/// Decodes an artifact of any supported version; a run section, if
/// present, is validated and dropped. On failure \p Out is unspecified
/// and must be discarded.
DecodeStatus decodeArtifact(const std::vector<uint8_t> &Bytes, Artifact &Out);

/// Encodes the artifact the profile repository stores for one run,
/// straight from \p Outcome: its function names, totals, path tables and
/// tree, under the identity \p Fingerprint, \p Workload, \p Scale and
/// \p Schema (a driver::RunKey carries all four). Byte for byte
/// encodeArtifact(artifactFromOutcome(...)) of the same run, without
/// building the module or copying the tree.
std::vector<uint8_t> encodeRunArtifact(const prof::RunOutcome &Outcome,
                                       const std::string &Fingerprint,
                                       const std::string &Workload,
                                       uint64_t Scale,
                                       const MetricSchema &Schema);

/// Encodes the run-cache entry of \p Outcome: the artifact
/// encodeRunArtifact writes, with the run section.
std::vector<uint8_t> encodeRunEntry(const prof::RunOutcome &Outcome,
                                    const std::string &Fingerprint,
                                    const std::string &Workload,
                                    uint64_t Scale,
                                    const MetricSchema &Schema);

/// Restores the outcome encodeRunEntry wrote for \p Fingerprint, moving
/// the decoded names, tree and tables into \p Out. Beyond decodeArtifact's
/// verdicts: an older version is BadVersion, an artifact without a run
/// section is Malformed, and an entry for another fingerprint is
/// FingerprintMismatch. On success \p Out has no instrumented module
/// (Instr.M and every FunctionInstrInfo::F are null); on failure it is
/// unspecified and must be discarded.
DecodeStatus decodeRunEntry(const std::vector<uint8_t> &Bytes,
                            const std::string &Fingerprint,
                            prof::RunOutcome &Out);

/// Packages a successful run's outcome as a fresh artifact. \p M is the
/// module the run executed (source of the function names); \p Fingerprint
/// is the run's RunKey fingerprint.
Artifact artifactFromOutcome(const prof::RunOutcome &Outcome,
                             const ir::Module &M,
                             const std::string &Fingerprint,
                             const std::string &Workload, uint64_t Scale,
                             const prof::ProfileConfig &Config,
                             const std::string &Acquisition = "exact");

/// Deep copy (the CCT makes Artifact move-only).
Artifact cloneArtifact(const Artifact &A);

} // namespace profdb
} // namespace pp

#endif // PP_PROFDB_ARTIFACT_H
