//===- collectd/Ingest.cpp - Fleet artifact ingest service --------------------===//

#include "collectd/Ingest.h"

#include "driver/FaultInjector.h"
#include "obs/Obs.h"
#include "profdb/Merge.h"
#include "profdb/Report.h"
#include "profdb/Store.h"
#include "support/Format.h"

#include <algorithm>
#include <chrono>

using namespace pp;
using namespace pp::collectd;

const char *collectd::rejectReasonName(RejectReason R) {
  switch (R) {
  case RejectReason::None:
    return "none";
  case RejectReason::Corrupt:
    return "corrupt";
  case RejectReason::CrossAcquisition:
    return "cross-acquisition";
  case RejectReason::QuotaExceeded:
    return "quota-exceeded";
  case RejectReason::MergeFailed:
    return "merge-failed";
  case RejectReason::RateLimited:
    return "rate-limited";
  case RejectReason::WindowExpired:
    return "window-expired";
  case RejectReason::NumReasons:
    break;
  }
  return "?";
}

IngestService::IngestService(IngestConfig C)
    : Cfg(std::move(C)), Pool(Cfg.Threads, Cfg.QueueCapacity) {
  // The pool's workers read Cfg only inside jobs, which are posted after
  // the constructor returns.
  if (Cfg.TenantRatePerSec > 0 && Cfg.TenantRateBurst <= 0)
    Cfg.TenantRateBurst = std::max(1.0, Cfg.TenantRatePerSec);
  if (!Cfg.RateClockNs)
    Cfg.RateClockNs = [] {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
}

void IngestService::submit(Upload U) {
  Pool.post([this, U = std::move(U)]() mutable { ingestNow(std::move(U)); });
}

void IngestService::drain() { Pool.drain(); }

UploadResult IngestService::ingestNow(Upload U) {
  obs::SpanScope Span("collectd", "ingest", "", /*Work=*/U.Bytes.size());

  // The token bucket gates admission before any byte of the upload is
  // touched: a tenant hammering the collector is refused at the cost of
  // a map lookup, not a decode.
  if (Cfg.TenantRatePerSec > 0) {
    std::lock_guard<std::mutex> Lock(StateMu);
    if (!rateAllowLocked(U.Tenant)) {
      obs::add(obs::Counter::CollectdRateLimited);
      ++Stats.Submitted;
      return rejectLocked(RejectReason::RateLimited);
    }
  }

  // The read seam stands in for corruption in flight; whatever it does
  // to the bytes, the decoder's CRC + bounds checks turn it into a typed
  // rejection of this one upload.
  driver::FaultInjector::instance().mutateCacheRead(U.Bytes);

  profdb::Artifact A;
  profdb::DecodeStatus Decode = profdb::decodeArtifact(U.Bytes, A);
  if (Decode != profdb::DecodeStatus::Ok ||
      A.Schema.Acquisition != Cfg.Acquisition) {
    std::lock_guard<std::mutex> Lock(StateMu);
    ++Stats.Submitted;
    return Decode != profdb::DecodeStatus::Ok
               ? rejectLocked(RejectReason::Corrupt, Decode)
               : rejectLocked(RejectReason::CrossAcquisition);
  }

  std::string Key = profdb::shapeKey(A);
  std::lock_guard<std::mutex> Lock(StateMu);
  ++Stats.Submitted;

  // A window below the retention watermark has been persisted and
  // dropped; folding into a fresh resident copy would make the stored
  // artifact and the late fold disagree about the same window, so the
  // window is simply closed.
  if (U.Window < ExpiredBelow)
    return rejectLocked(RejectReason::WindowExpired);

  if (Cfg.TenantWindowQuota &&
      QuotaUsed[{U.Tenant, U.Window}] >= Cfg.TenantWindowQuota)
    return rejectLocked(RejectReason::QuotaExceeded);

  // The fold's checks reject an upload with the fold untouched. A new
  // group is folded apart and kept only once it has accepted, so no
  // group is ever empty.
  Window &W = Windows[U.Window];
  auto It = W.find(Key);
  profdb::Fold Fresh;
  profdb::Fold &F = It == W.end() ? Fresh : It->second;
  std::string Error;
  if (!F.add(std::move(A), Error)) {
    if (W.empty()) // created only for this upload
      Windows.erase(U.Window);
    return rejectLocked(RejectReason::MergeFailed);
  }
  if (&F == &Fresh)
    W.emplace(std::move(Key), std::move(Fresh));
  // Quota charges accepted uploads only, as IngestConfig documents.
  if (Cfg.TenantWindowQuota)
    ++QuotaUsed[{U.Tenant, U.Window}];
  obs::add(obs::Counter::CollectdAccepted);
  ++Stats.Accepted;
  if (Cfg.RetainWindows && Windows.size() > Cfg.RetainWindows)
    enforceRetentionLocked();
  return UploadResult{true, RejectReason::None, profdb::DecodeStatus::Ok};
}

UploadResult IngestService::rejectLocked(RejectReason Reason,
                                         profdb::DecodeStatus Decode) {
  obs::add(obs::Counter::CollectdRejected);
  ++Stats.Rejected;
  ++Stats.RejectedBy[static_cast<size_t>(Reason)];
  return UploadResult{false, Reason, Decode};
}

bool IngestService::rateAllowLocked(const std::string &Tenant) {
  uint64_t NowNs = Cfg.RateClockNs();
  auto [It, New] = Buckets.try_emplace(Tenant);
  Bucket &B = It->second;
  if (New) {
    // A tenant's first contact finds a full bucket: bursts up to the
    // burst depth are the design, sustained overrun is not.
    B.Tokens = Cfg.TenantRateBurst;
    B.LastNs = NowNs;
  }
  double Elapsed = NowNs >= B.LastNs ? (NowNs - B.LastNs) * 1e-9 : 0.0;
  B.LastNs = NowNs;
  B.Tokens = std::min(Cfg.TenantRateBurst,
                      B.Tokens + Elapsed * Cfg.TenantRatePerSec);
  if (B.Tokens < 1.0)
    return false;
  B.Tokens -= 1.0;
  return true;
}

void IngestService::enforceRetentionLocked() {
  while (Windows.size() > Cfg.RetainWindows) {
    auto Oldest = Windows.begin();
    std::string Error;
    if (Cfg.StoreDir.empty() ||
        !persistWindowLocked(Oldest->first, Oldest->second, Error)) {
      // Unpersisted uploads are never dropped: the window stays resident
      // (over the cap) until a later accept retries the sweep.
      ++Stats.RetentionHeld;
      return;
    }
    uint64_t Id = Oldest->first;
    Windows.erase(Oldest);
    ExpiredBelow = std::max(ExpiredBelow, Id + 1);
    ++Stats.WindowsExpired;
    obs::add(obs::Counter::CollectdWindowsExpired);
    // The window's quota ledger goes with it; the watermark now rejects
    // anything that would need it.
    for (auto It = QuotaUsed.begin(); It != QuotaUsed.end();)
      It = It->first.second == Id ? QuotaUsed.erase(It) : std::next(It);
  }
}

template <typename RenderFn>
std::string IngestService::queryWindow(uint64_t Window, std::string &Error,
                                       RenderFn Render) {
  obs::add(obs::Counter::CollectdQueries);
  std::lock_guard<std::mutex> Lock(StateMu);
  ++Stats.Queries;
  auto It = Windows.find(Window);
  if (It == Windows.end()) {
    Error = formatString("no such window %llu",
                         static_cast<unsigned long long>(Window));
    return "";
  }
  std::string Out;
  for (auto &[Key, F] : It->second) {
    // The renderers open with reportHeader themselves.
    Out += Render(F.result());
    Out += "\n";
  }
  return Out;
}

std::string IngestService::queryTopPaths(uint64_t Window, size_t Limit,
                                         std::string &Error) {
  obs::SpanScope Span("collectd", "query", "top-paths");
  return queryWindow(Window, Error, [Limit](const profdb::Artifact &A) {
    return profdb::reportTopPaths(A, Limit);
  });
}

std::string IngestService::queryTopProcs(uint64_t Window, size_t Limit,
                                         std::string &Error) {
  obs::SpanScope Span("collectd", "query", "top-procs");
  return queryWindow(Window, Error, [Limit](const profdb::Artifact &A) {
    return profdb::reportTopProcs(A, Limit);
  });
}

std::string IngestService::queryCctStats(uint64_t Window,
                                         std::string &Error) {
  obs::SpanScope Span("collectd", "query", "cct-stats");
  return queryWindow(Window, Error, [](const profdb::Artifact &A) {
    return profdb::reportCctStats(A);
  });
}

std::vector<std::vector<uint8_t>>
IngestService::windowBytes(uint64_t Window, std::string &Error) {
  std::lock_guard<std::mutex> Lock(StateMu);
  std::vector<std::vector<uint8_t>> Out;
  auto It = Windows.find(Window);
  if (It == Windows.end()) {
    Error = formatString("no such window %llu",
                         static_cast<unsigned long long>(Window));
    return Out;
  }
  for (auto &[Key, F] : It->second)
    Out.push_back(profdb::encodeArtifact(F.result()));
  return Out;
}

std::vector<uint64_t> IngestService::windows() const {
  std::lock_guard<std::mutex> Lock(StateMu);
  std::vector<uint64_t> Ids;
  for (const auto &[Id, W] : Windows)
    Ids.push_back(Id);
  return Ids;
}

IngestStats IngestService::stats() const {
  std::lock_guard<std::mutex> Lock(StateMu);
  IngestStats Out = Stats;
  Out.Windows = Windows.size();
  return Out;
}

bool IngestService::persistWindowLocked(uint64_t Id, Window &W,
                                        std::string &Error) {
  std::string Dir =
      Cfg.StoreDir + "/w" + formatString("%llu", (unsigned long long)Id);
  for (auto &[Key, F] : W) {
    // Named by group key, not fingerprint: two groups whose merged
    // fingerprints degenerate to the same hash (XOR of identical
    // sources) must still land in distinct files.
    std::string Path = Dir + "/" + profdb::artifactFileName(Key);
    if (!profdb::writeArtifactFile(Path, F.result(), Error))
      return false;
  }
  return true;
}

bool IngestService::persist(std::string &Error) {
  if (Cfg.StoreDir.empty()) {
    Error = "no store directory configured";
    return false;
  }
  std::lock_guard<std::mutex> Lock(StateMu);
  for (auto &[Id, W] : Windows)
    if (!persistWindowLocked(Id, W, Error))
      return false;
  return true;
}
