//===- driver/RunCache.h - Memoized run outcomes ---------------*- C++ -*-===//
///
/// \file
/// Two-level memoization of run outcomes keyed by RunKey: an in-process
/// table shared by every consumer in a binary, and an optional on-disk
/// layer (one file per run, atomic writes) that lets consecutive bench
/// binaries reuse each other's runs — measurement once, reporting many
/// times, in the gprof tradition of persisting profile data for many
/// consumers. Thread-safe.
///
/// A disk entry ("<dir>/pp-<hash>.ppo") is a profdb artifact of the
/// current version with a run section (profdb::encodeRunEntry), written
/// through the repository's one atomic file store (profdb/Store.h), which
/// creates nested directories and whose stale-temp sweep runs when the
/// cache is opened. The disk layer trusts nothing it reads: entries carry
/// a CRC32 trailer and bounded length fields, and an entry that fails to
/// decode for any reason (a stale PPRO file from before entries were
/// artifacts reads as bad-magic) is counted, deleted, and treated as a
/// miss — the run simply re-executes and the next store rewrites the
/// file. Failed writes (permissions, disk full, injected faults) likewise
/// degrade to memory-only caching instead of erroring.
///
//===----------------------------------------------------------------------===//

#ifndef PP_DRIVER_RUNCACHE_H
#define PP_DRIVER_RUNCACHE_H

#include "driver/RunKey.h"
#include "driver/RunPlan.h"

#include <array>
#include <mutex>
#include <string>
#include <unordered_map>

namespace pp {
namespace driver {

class RunCache {
public:
  /// \p DiskDir enables the on-disk layer when non-empty; the directory
  /// (and any missing parent) is created on first store. Opening sweeps
  /// the temps crashed writers left in it.
  explicit RunCache(std::string DiskDir = std::string());

  /// Reads $PP_RUN_CACHE_DIR; empty means memory-only caching.
  static std::string diskDirFromEnv();

  /// Returns the memoized outcome for \p Key, consulting memory first and
  /// then disk (a disk hit is promoted into memory). Null on miss, for
  /// uncacheable keys, and for disk files that fail to decode — those are
  /// counted per reason, removed, and re-executed by the caller.
  OutcomePtr lookup(const RunKey &Key);

  /// Memoizes \p Outcome under \p Key in both layers. No-op for
  /// uncacheable keys; failed outcomes (Result.Ok == false) are memoized
  /// in memory only, never persisted.
  void insert(const RunKey &Key, const OutcomePtr &Outcome);

  bool hasDiskLayer() const { return !DiskDir.empty(); }

  struct Stats {
    uint64_t MemoryHits = 0;
    uint64_t DiskHits = 0;
    uint64_t Misses = 0;
    uint64_t Stores = 0;
    /// Disk files rejected by the decoder (and removed), total and by
    /// DecodeStatus.
    uint64_t DecodeFailures = 0;
    std::array<uint64_t, NumDecodeStatuses> DecodeFailuresBy{};
    /// Disk writes that could not complete (unwritable directory, short
    /// write, injected fault); the memory layer still holds the outcome.
    uint64_t WriteFailures = 0;
  };
  Stats stats() const;

private:
  std::string diskPath(const RunKey &Key) const;

  mutable std::mutex Mu;
  std::unordered_map<std::string, OutcomePtr> Memory;
  std::string DiskDir;
  Stats Counts;
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RUNCACHE_H
