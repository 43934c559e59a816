//===- collectd/Ingest.cpp - Fleet artifact ingest service --------------------===//

#include "collectd/Ingest.h"

#include "driver/FaultInjector.h"
#include "obs/Obs.h"
#include "profdb/Merge.h"
#include "profdb/Report.h"
#include "profdb/Store.h"
#include "support/Env.h"
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

size_t collectd::retainWindowsFromEnv() {
  return static_cast<size_t>(
      envUint64Or("PP_COLLECTD_RETAIN_WINDOWS", "pp-collectd", 0));
}

namespace {

/// The admission key of an artifact: the cheap shape checks
/// mergeArtifacts makes before summing — workload, scale, full metric
/// schema, function table, path-table geometry, CCT presence. It routes
/// obviously-distinct shapes to distinct trees; it is NOT a mergeability
/// proof (it cannot see CCT edge structure or hashed-table thresholds),
/// so the authoritative gate is MergeTree::add's trial merge, which
/// rejects an incompatible artifact at admission with the tree intact.
std::string groupKeyOf(const profdb::Artifact &A) {
  std::string Shape;
  for (const std::string &F : A.Functions) {
    Shape += F;
    Shape += ';';
  }
  for (const prof::FunctionPathProfile &P : A.PathProfiles)
    Shape += formatString("%u:%d:%llu;", P.FuncId, int(P.HasProfile),
                          static_cast<unsigned long long>(P.NumPaths));
  return formatString(
      "%s|%llu|%s|%s|%s|%s|%c|%016llx", A.Workload.c_str(),
      static_cast<unsigned long long>(A.Scale), A.Schema.Mode.c_str(),
      A.Schema.Pic0.c_str(), A.Schema.Pic1.c_str(),
      A.Schema.Acquisition.c_str(), A.Tree ? 'c' : '-',
      static_cast<unsigned long long>(profdb::fnv1a(Shape)));
}

} // namespace

IngestService::IngestService(IngestConfig C)
    : Cfg(std::move(C)), Pool(Cfg.Threads, Cfg.QueueCapacity) {
  // The pool's workers read Cfg only inside jobs, which are posted after
  // the constructor returns.
  if (Cfg.RetainWindows == 0)
    Cfg.RetainWindows = retainWindowsFromEnv();
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

bool IngestService::trySubmit(Upload U) {
  if (Pool.tryPost(
          [this, U = std::move(U)]() mutable { ingestNow(std::move(U)); }))
    return true;
  std::lock_guard<std::mutex> Lock(StateMu);
  ++Stats.Backpressured;
  return false;
}

void IngestService::drain() { Pool.drain(); }

UploadResult IngestService::ingestNow(Upload U) {
  obs::SpanScope Span("collectd", "ingest", "", /*Work=*/U.Bytes.size());
  auto Reject = [this](RejectReason Reason,
                       profdb::DecodeStatus Decode) -> UploadResult {
    obs::add(obs::Counter::CollectdRejected);
    std::lock_guard<std::mutex> Lock(StateMu);
    ++Stats.Submitted;
    ++Stats.Rejected;
    ++Stats.RejectedBy[static_cast<size_t>(Reason)];
    return UploadResult{false, Reason, Decode};
  };

  // The token bucket gates admission before any byte of the upload is
  // touched: a tenant hammering the collector is refused at the cost of
  // a map lookup, not a decode.
  if (Cfg.TenantRatePerSec > 0) {
    std::lock_guard<std::mutex> Lock(StateMu);
    if (!rateAllowLocked(U.Tenant)) {
      obs::add(obs::Counter::CollectdRejected);
      obs::add(obs::Counter::CollectdRateLimited);
      ++Stats.Submitted;
      ++Stats.Rejected;
      ++Stats.RejectedBy[static_cast<size_t>(RejectReason::RateLimited)];
      return UploadResult{false, RejectReason::RateLimited,
                          profdb::DecodeStatus::Ok};
    }
  }

  // The read seam stands in for corruption in flight; whatever it does
  // to the bytes, the decoder's CRC + bounds checks turn it into a typed
  // rejection of this one upload.
  driver::FaultInjector::instance().mutateCacheRead(U.Bytes);

  profdb::Artifact A;
  profdb::DecodeStatus Decode = profdb::decodeArtifact(U.Bytes, A);
  if (Decode != profdb::DecodeStatus::Ok)
    return Reject(RejectReason::Corrupt, Decode);

  if (A.Schema.Acquisition != Cfg.Acquisition)
    return Reject(RejectReason::CrossAcquisition, profdb::DecodeStatus::Ok);

  std::string Key = groupKeyOf(A);
  std::lock_guard<std::mutex> Lock(StateMu);
  ++Stats.Submitted;

  // A window below the retention watermark has been persisted and
  // dropped; folding into a fresh resident copy would make the stored
  // artifact and the late fold disagree about the same window, so the
  // window is simply closed.
  if (U.Window < ExpiredBelow) {
    obs::add(obs::Counter::CollectdRejected);
    ++Stats.Rejected;
    ++Stats.RejectedBy[static_cast<size_t>(RejectReason::WindowExpired)];
    return UploadResult{false, RejectReason::WindowExpired,
                        profdb::DecodeStatus::Ok};
  }

  if (Cfg.TenantWindowQuota) {
    uint64_t Used = QuotaUsed[{U.Tenant, U.Window}];
    if (Used >= Cfg.TenantWindowQuota) {
      obs::add(obs::Counter::CollectdRejected);
      ++Stats.Rejected;
      ++Stats.RejectedBy[static_cast<size_t>(RejectReason::QuotaExceeded)];
      return UploadResult{false, RejectReason::QuotaExceeded,
                          profdb::DecodeStatus::Ok};
    }
  }

  Window &W = Windows[U.Window];
  auto It = W.find(Key);
  bool NewGroup = It == W.end();
  if (NewGroup)
    It = W.emplace(std::piecewise_construct, std::forward_as_tuple(Key),
                   std::forward_as_tuple(A.Workload))
             .first;
  std::string Error;
  if (!It->second.Tree.add(std::move(A), Error)) {
    // The trial merge inside add() rejected the upload with the tree
    // untouched. A group (and window) created only for this upload must
    // not linger empty — an empty tree would fail every later query.
    if (NewGroup) {
      W.erase(It);
      if (W.empty())
        Windows.erase(U.Window);
    }
    obs::add(obs::Counter::CollectdRejected);
    ++Stats.Rejected;
    ++Stats.RejectedBy[static_cast<size_t>(RejectReason::MergeFailed)];
    return UploadResult{false, RejectReason::MergeFailed,
                        profdb::DecodeStatus::Ok};
  }
  // Quota charges accepted uploads only, as IngestConfig documents.
  if (Cfg.TenantWindowQuota)
    ++QuotaUsed[{U.Tenant, U.Window}];
  obs::add(obs::Counter::CollectdAccepted);
  ++Stats.Accepted;
  if (Cfg.RetainWindows && Windows.size() > Cfg.RetainWindows)
    enforceRetentionLocked();
  return UploadResult{true, RejectReason::None, profdb::DecodeStatus::Ok};
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
  for (auto &[Key, G] : It->second) {
    const profdb::Artifact *F = G.Tree.folded(Error);
    if (!F)
      return "";
    // The renderers open with reportHeader themselves.
    Out += Render(*F);
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
  for (auto &[Key, G] : It->second) {
    const profdb::Artifact *F = G.Tree.folded(Error);
    if (!F)
      return {};
    Out.push_back(profdb::encodeArtifact(*F));
  }
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
  for (auto &[Key, G] : W) {
    const profdb::Artifact *F = G.Tree.folded(Error);
    if (!F)
      return false;
    // Named by group key, not fingerprint: two groups whose merged
    // fingerprints degenerate to the same hash (XOR of identical
    // sources) must still land in distinct files.
    std::string Path = Dir + "/" + profdb::artifactFileName(Key);
    if (!profdb::writeArtifactFile(Path, *F, Error))
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
