//===- driver/RunCache.h - Memoized run outcomes on disk -------*- C++ -*-===//
///
/// \file
/// The on-disk memo of run outcomes keyed by RunKey: one file per run,
/// written atomically, that lets consecutive bench binaries reuse each
/// other's runs — measurement once, reporting many times, in the gprof
/// tradition of persisting profile data for many consumers. Within one
/// process the scheduler's duplicate folding is the memo (see
/// RunScheduler.h); the cache holds no outcome in memory. Thread-safe.
///
/// A disk entry ("<dir>/pp-<hash>.ppo") is a profdb artifact of the
/// current version with a run section (profdb::encodeRunEntry), written
/// through the repository's one atomic file store (profdb/Store.h), which
/// creates nested directories and whose stale-temp sweep runs when the
/// cache is opened. The cache trusts nothing it reads: entries carry
/// a CRC32 trailer and bounded length fields, and an entry that fails to
/// decode for any reason (a stale PPRO file from before entries were
/// artifacts reads as bad-magic) is counted, deleted, and treated as a
/// miss — the run simply re-executes and the next store rewrites the
/// file. Failed writes (permissions, disk full) are counted and leave
/// the run uncached instead of erroring.
///
//===----------------------------------------------------------------------===//

#ifndef PP_DRIVER_RUNCACHE_H
#define PP_DRIVER_RUNCACHE_H

#include "driver/RunKey.h"
#include "driver/RunPlan.h"

#include <array>
#include <mutex>
#include <string>

namespace pp {
namespace driver {

class RunCache {
public:
  /// \p DiskDir names the cache directory; it (and any missing parent) is
  /// created on first store. Opening sweeps the temps crashed writers
  /// left in it. A cache without a directory stores nothing.
  explicit RunCache(std::string DiskDir = std::string());

  /// Reads $PP_RUN_CACHE_DIR; empty means no caching across processes.
  static std::string diskDirFromEnv();

  /// Returns the outcome stored for \p Key. Null on miss (always, without
  /// a directory), for uncacheable keys, and for files that fail to
  /// decode — those are counted per reason, removed, and re-executed by
  /// the caller.
  OutcomePtr lookup(const RunKey &Key);

  /// Writes \p Outcome to disk under \p Key. No-op without a directory,
  /// for uncacheable keys, and for null or failed outcomes (Result.Ok ==
  /// false): a failure is never persisted, so a later process sharing
  /// the directory re-executes the run instead of inheriting the error.
  void insert(const RunKey &Key, const OutcomePtr &Outcome);

  bool hasDiskLayer() const { return !DiskDir.empty(); }

  struct Stats {
    uint64_t DiskHits = 0;
    uint64_t Misses = 0;
    /// Entries written to disk.
    uint64_t Stores = 0;
    /// Disk files rejected by the decoder (and removed), total and by
    /// DecodeStatus.
    uint64_t DecodeFailures = 0;
    std::array<uint64_t, NumDecodeStatuses> DecodeFailuresBy{};
    /// Disk writes that could not complete (unwritable directory, short
    /// write); the run's outcome is still returned.
    uint64_t WriteFailures = 0;
  };
  Stats stats() const;

private:
  std::string diskPath(const RunKey &Key) const;

  mutable std::mutex Mu;
  std::string DiskDir;
  Stats Counts;
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RUNCACHE_H
