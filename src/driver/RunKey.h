//===- driver/RunKey.h - Canonical run fingerprints ------------*- C++ -*-===//
///
/// \file
/// The canonical identity of a run: every knob that can change a
/// RunOutcome — workload name, scale, profiling mode, PIC routing, probe
/// placement options, the full machine configuration, and signal wiring —
/// rendered into one stable text fingerprint. Equal fingerprints mean
/// bit-identical outcomes (every run is deterministic), which is what the
/// memoizing cache and the scheduler's duplicate folding rely on.
///
//===----------------------------------------------------------------------===//

#ifndef PP_DRIVER_RUNKEY_H
#define PP_DRIVER_RUNKEY_H

#include "driver/RunPlan.h"
#include "profdb/Artifact.h"

#include <cstdint>
#include <string>

namespace pp {
namespace driver {

/// A computed fingerprint.
struct RunKey {
  /// Human-readable canonical encoding of every knob of the run.
  std::string Fingerprint;
  /// False when the plan opted out or carries state the fingerprint
  /// cannot capture (an instrumentation-filter callback); such runs are
  /// never cached or folded.
  bool Cacheable = true;

  /// What a run-cache entry's artifact header records next to the
  /// fingerprint (see profdb::encodeRunEntry).
  std::string Workload;
  uint64_t Scale = 1;
  profdb::MetricSchema Schema;

  /// Fingerprints \p Plan.
  static RunKey of(const RunPlan &Plan);

  /// Hex file stem ("pp-<FNV-1a hash of the fingerprint>") for the
  /// on-disk cache.
  std::string fileStem() const;

  bool operator==(const RunKey &Other) const {
    return Fingerprint == Other.Fingerprint;
  }
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RUNKEY_H
