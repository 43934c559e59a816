//===- driver/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
///
/// \file
/// Deterministic fault injection for the driver's persistence and
/// scheduling paths. The injector sits at three seams — cache-file reads,
/// cache-file writes, and run execution — and, when armed, corrupts or
/// fails a configurable fraction of operations so tests (and brave
/// operators) can prove the driver degrades instead of crashing: a
/// corrupt cache file is rejected and the run re-executes, a failed write
/// leaves the run uncached but still returns its outcome, and a failed run
/// produces one structured error outcome without touching its neighbours.
///
/// All decisions derive from a seeded PRNG and per-seam operation
/// counters, so a given configuration injects the same faults in the same
/// order on every (serial) run.
///
/// Environment knobs (read once, on first use of the process-wide
/// instance; 0 or unset disables a seam):
///   PP_FAULT_SEED           PRNG seed for corruption offsets (default 0)
///   PP_FAULT_READ_FLIP=N    flip one random bit of every Nth cache read
///   PP_FAULT_READ_TRUNCATE=N  truncate every Nth cache read
///   PP_FAULT_WRITE_FAIL=N   fail every Nth cache-file write
///   PP_FAULT_RUN_FAIL=N     fail every Nth run execution
///   PP_FAULT_RUN_FAIL_MATCH=S  only fail runs whose fingerprint
///                           contains S (with PP_FAULT_RUN_FAIL)
///
//===----------------------------------------------------------------------===//

#ifndef PP_DRIVER_FAULTINJECTOR_H
#define PP_DRIVER_FAULTINJECTOR_H

#include "support/Prng.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pp {
namespace driver {

class FaultInjector {
public:
  struct Config {
    uint64_t Seed = 0;
    /// Corrupt one bit of every Nth cache-file read (0 = never).
    unsigned FlipEveryNthRead = 0;
    /// Truncate every Nth cache-file read (0 = never).
    unsigned TruncateEveryNthRead = 0;
    /// Fail every Nth cache-file write (0 = never).
    unsigned FailEveryNthWrite = 0;
    /// Fail every Nth run execution (0 = never).
    unsigned FailEveryNthRun = 0;
    /// With FailEveryNthRun: only runs whose fingerprint contains this
    /// substring are candidates (empty = all runs).
    std::string FailRunMatching;
  };

  /// The process-wide injector, configured from PP_FAULT_* on first use.
  static FaultInjector &instance();

  /// Parses the PP_FAULT_* environment into a Config. Non-numeric values
  /// warn on stderr and leave the seam disabled.
  static Config configFromEnv();

  /// An injector with every seam disarmed.
  FaultInjector() = default;
  explicit FaultInjector(const Config &C) : Cfg(C), Rng(C.Seed) {}

  /// Replaces the configuration and resets all counters (test hook).
  void configure(const Config &C);

  /// True when any seam is armed; callers may skip the hooks entirely.
  bool enabled() const;

  /// Possibly corrupts \p Bytes in place (bit flip or truncation, per the
  /// read-seam cadence). Returns true when it did.
  bool mutateCacheRead(std::vector<uint8_t> &Bytes);

  /// True when this cache-file write must be dropped.
  bool shouldFailCacheWrite();

  /// True when the run with \p Fingerprint must fail instead of
  /// executing; \p Error receives a descriptive message.
  bool shouldFailRun(const std::string &Fingerprint, std::string &Error);

  struct Counts {
    uint64_t ReadsCorrupted = 0;
    uint64_t WritesFailed = 0;
    uint64_t RunsFailed = 0;
  };
  Counts counts() const;

private:
  mutable std::mutex Mu;
  Config Cfg;
  Prng Rng{0};
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Runs = 0;
  Counts Injected;
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_FAULTINJECTOR_H
