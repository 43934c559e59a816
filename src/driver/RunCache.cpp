//===- driver/RunCache.cpp - Memoized run outcomes on disk --------------------===//

#include "driver/RunCache.h"

#include "obs/Obs.h"
#include "profdb/Store.h"

#include <cstdio>
#include <cstdlib>

using namespace pp;
using namespace pp::driver;

RunCache::RunCache(std::string DiskDir) : DiskDir(std::move(DiskDir)) {
  if (!this->DiskDir.empty())
    profdb::sweepStaleTemps(this->DiskDir);
}

std::string RunCache::diskDirFromEnv() {
  const char *Dir = std::getenv("PP_RUN_CACHE_DIR");
  return Dir ? Dir : "";
}

std::string RunCache::diskPath(const RunKey &Key) const {
  return DiskDir + "/" + Key.fileStem() + ".ppo";
}

OutcomePtr RunCache::lookup(const RunKey &Key) {
  if (!Key.Cacheable)
    return nullptr;

  if (!DiskDir.empty()) {
    std::string Path = diskPath(Key);
    std::vector<uint8_t> Bytes;
    if (profdb::readFile(Path, Bytes)) {
      auto Outcome = std::make_shared<prof::RunOutcome>();
      DecodeStatus Status =
          profdb::decodeRunEntry(Bytes, Key.Fingerprint, *Outcome);
      if (Status == DecodeStatus::Ok) {
        obs::add(obs::Counter::CacheDiskHits);
        std::lock_guard<std::mutex> Lock(Mu);
        ++Counts.DiskHits;
        return Outcome;
      }
      // The file is unusable whatever the reason (stale version, torn
      // write, bit rot, collision): count it, drop it so the re-executed
      // run can store a fresh copy, and fall through to a miss.
      std::remove(Path.c_str());
      obs::add(obs::Counter::CacheCorruptEvictions);
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counts.DecodeFailures;
      ++Counts.DecodeFailuresBy[static_cast<unsigned>(Status)];
    }
  }

  obs::add(obs::Counter::CacheMisses);
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counts.Misses;
  return nullptr;
}

void RunCache::insert(const RunKey &Key, const OutcomePtr &Outcome) {
  if (DiskDir.empty() || !Key.Cacheable || !Outcome || !Outcome->Result.Ok)
    return;
  std::string Error;
  if (profdb::writeFileAtomic(
          diskPath(Key),
          profdb::encodeRunEntry(*Outcome, Key.Fingerprint, Key.Workload,
                                 Key.Scale, Key.Schema),
          Error)) {
    obs::add(obs::Counter::CacheStores);
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.Stores;
    return;
  }
  // Cache directory not writable or short write: the run still returns
  // its outcome, so degrade to uncached instead of failing.
  obs::add(obs::Counter::CacheWriteFailures);
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counts.WriteFailures;
}

RunCache::Stats RunCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counts;
}
