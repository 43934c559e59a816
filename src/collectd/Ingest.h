//===- collectd/Ingest.h - Fleet artifact ingest service -------*- C++ -*-===//
///
/// \file
/// The continuous-profiling collector: a long-running service that
/// accepts encoded profile artifacts (.ppa bytes) uploaded by a fleet of
/// clients and folds them incrementally, one profdb::Fold per (window,
/// shape group). The paper's tables are batch reports over one run; this
/// is the "always on" production shape — thousands of uploads an hour,
/// bounded memory, queries served from the folded windows.
///
/// Admission pipeline, per upload:
///
///   1. decodeArtifact — every upload is untrusted (bytes corrupted in
///      flight or on the client's disk); a typed DecodeStatus rejects
///      the upload, never the window.
///   2. Acquisition check — exact counts and sampled estimates must not
///      fold together, so an upload whose schema acquisition differs
///      from the service's is rejected (CrossAcquisition).
///   3. Per-(tenant, window) quota (charged to accepted uploads only).
///   4. Fold into the window's shape group, keyed by profdb::shapeKey:
///      uploads share a group exactly when profdb::checkShape lets them
///      merge (schema and k, workload, scale, function table, CCT
///      presence, path-profile geometry). The group's fold checks the
///      artifact against everything folded so far before summing it in,
///      so an incompatibility the key cannot see (CCT geometry and edge
///      structure) rejects this upload at admission — never a later
///      one, and never the group's accepted contents.
///
/// ingestNow is the one entry: it decides and folds the upload on the
/// calling thread, and the service owns no thread or queue. Every verdict
/// and every window byte is therefore a function of the sequence of
/// ingestNow calls (plus, when rate limiting is on, the clock readings):
/// quota slots, the retention watermark and the token buckets are
/// charged in call order. pp-collectd, the socket server's event thread
/// and the benches each ingest from one thread. Queries may run on other
/// threads meanwhile: one lock guards the state, and the decode runs
/// outside it.
///
/// Every fold is deterministic: the window's merged bytes are identical
/// for any arrival order, and equal a flat mergeAll of the group's
/// uploads (see profdb/Merge.h), so a rejected upload provably leaves the
/// window byte-identical to a run that never saw it.
///
/// Each group keeps the last answer rendered for each query kind, with
/// the limit it was rendered for, until its fold next accepts an upload.
/// A query re-renders only the groups whose answer is missing or was
/// rendered for another limit, through the same renderers, so an answer
/// is byte-identical to a fresh rendering of the fold. The cache holds at
/// most one string per group and kind.
///
//===----------------------------------------------------------------------===//

#ifndef PP_COLLECTD_INGEST_H
#define PP_COLLECTD_INGEST_H

#include "profdb/Merge.h"

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pp {
namespace collectd {

/// Why an upload was not folded into its window.
enum class RejectReason : unsigned {
  None = 0,
  /// The bytes failed decodeArtifact; UploadResult::Decode says how.
  Corrupt,
  /// The artifact's schema acquisition differs from the service's.
  CrossAcquisition,
  /// The (tenant, window) accepted-upload quota is exhausted.
  QuotaExceeded,
  /// The admission merge checks failed (structural corruption that passed
  /// the decoder, or CCT geometry the group key does not distinguish);
  /// the upload is dropped at admission, the window survives
  /// byte-identical.
  MergeFailed,
  /// The tenant's token bucket is empty. Checked ahead of everything
  /// else — a rate-limited refusal costs no decode work.
  RateLimited,
  /// The upload names a window retention already persisted and dropped
  /// from residency; the window is closed to further uploads.
  WindowExpired,
  NumReasons
};

/// Human-readable name ("corrupt", "cross-acquisition", ...).
const char *rejectReasonName(RejectReason R);

/// One client upload: encoded artifact bytes bound for a time window.
struct Upload {
  std::string Tenant;
  uint64_t Window = 0;
  std::vector<uint8_t> Bytes;
};

/// The typed outcome of ingesting one upload.
struct UploadResult {
  bool Accepted = false;
  RejectReason Reason = RejectReason::None;
  /// Valid when Reason == Corrupt.
  profdb::DecodeStatus Decode = profdb::DecodeStatus::Ok;
};

struct IngestConfig {
  /// Must be 0: ingest always runs on the caller. Kept only because
  /// perfbench's fleet-ingest still assigns it; it goes at the next
  /// benchmark change.
  unsigned Threads = 0;
  /// Accepted uploads allowed per (tenant, window); 0 = unlimited.
  uint64_t TenantWindowQuota = 0;
  /// The acquisition this collector accepts ("exact" or "overflow").
  std::string Acquisition = "exact";
  /// Root for persist(): window folds land in StoreDir/w<window>/.
  /// Empty = memory-only.
  std::string StoreDir;
  /// Sustained per-tenant admission rate (uploads/second) enforced by a
  /// token bucket *ahead* of the per-window quota; 0 disables it. The
  /// quota caps how much of a window one tenant may own, the bucket caps
  /// how hard a tenant may hammer the service getting there.
  double TenantRatePerSec = 0;
  /// Bucket depth (burst allowance); 0 = max(1, TenantRatePerSec).
  double TenantRateBurst = 0;
  /// Monotonic nanosecond clock for the token buckets; null = the steady
  /// clock. Tests inject a manual clock to make refill deterministic.
  std::function<uint64_t()> RateClockNs;
  /// Resident-window cap: when more windows than this hold uploads, the
  /// oldest are persisted to StoreDir and dropped from memory (then
  /// closed to late uploads — WindowExpired). 0 = unlimited. A window
  /// that cannot be persisted (no StoreDir, write failure) is never
  /// dropped. pp-collectd sets it from --retain.
  size_t RetainWindows = 0;
};

/// Aggregate service counters, like every verdict a function of the
/// sequence of ingestNow calls.
struct IngestStats {
  uint64_t Submitted = 0;
  uint64_t Accepted = 0;
  uint64_t Rejected = 0;
  uint64_t RejectedBy[static_cast<size_t>(RejectReason::NumReasons)] = {};
  /// Always 0: window groups fold incrementally and never compact. Kept
  /// only because perfbench's fleet-ingest still reports it; it goes with
  /// that collectd.compactions metric at the next benchmark change.
  uint64_t Compactions = 0;
  uint64_t Queries = 0;
  size_t Windows = 0;
  /// Windows persisted and dropped from residency by RetainWindows.
  uint64_t WindowsExpired = 0;
  /// Times retention wanted to drop a window but could not persist it —
  /// the window stayed resident (unpersisted data is never dropped).
  uint64_t RetentionHeld = 0;
};

class IngestService {
public:
  explicit IngestService(IngestConfig C);

  IngestService(const IngestService &) = delete;
  IngestService &operator=(const IngestService &) = delete;

  /// Decides and folds \p U on the calling thread, returning the typed
  /// verdict.
  UploadResult ingestNow(Upload U);

  /// The hottest paths / procedures / CCT statistics of \p Window,
  /// rendered per shape group through the same profdb report code
  /// pp-report uses (so a collector answer is byte-comparable to a
  /// pp-report run over the same artifacts).
  std::string queryTopPaths(uint64_t Window, size_t Limit,
                            std::string &Error);
  std::string queryTopProcs(uint64_t Window, size_t Limit,
                            std::string &Error);
  std::string queryCctStats(uint64_t Window, std::string &Error);

  /// The encoded folded artifact of each shape group in \p Window, in
  /// group-key order — the byte-identity hook the determinism and
  /// rejection-isolation tests compare.
  std::vector<std::vector<uint8_t>> windowBytes(uint64_t Window,
                                                std::string &Error);

  /// Ascending ids of every window that has accepted at least one upload.
  std::vector<uint64_t> windows() const;

  IngestStats stats() const;

  /// Writes every window's folded groups to StoreDir/w<window>/ as
  /// ordinary .ppa artifact files (pp-report can load them directly).
  bool persist(std::string &Error);

private:
  /// The queries whose answers a group keeps.
  enum class Query : unsigned { TopPaths, TopProcs, CctStats, NumKinds };
  /// A query's last answer over one group, and the limit it was rendered
  /// for (0 for CctStats, which takes none).
  struct Answer {
    bool Valid = false;
    size_t Limit = 0;
    std::string Text;
  };
  /// A shape group: its fold, and the answers rendered from it since the
  /// fold last accepted an upload.
  struct Group {
    profdb::Fold Fold;
    std::array<Answer, static_cast<size_t>(Query::NumKinds)> Answers;
  };
  /// A window's shape groups by profdb::shapeKey. A group exists only
  /// once its fold has accepted an upload, so it is never empty.
  using Window = std::map<std::string, Group>;

  /// Answers \p Kind over \p Window group by group, rendering via
  /// \p Render only the groups without a valid answer for \p Limit;
  /// shared shape of the three queries.
  template <typename RenderFn>
  std::string queryWindow(uint64_t Window, Query Kind, size_t Limit,
                          std::string &Error, RenderFn Render);
  /// Counts a rejection for \p Reason and returns its verdict (StateMu
  /// held).
  UploadResult rejectLocked(RejectReason Reason,
                            profdb::DecodeStatus Decode =
                                profdb::DecodeStatus::Ok);
  /// Token-bucket check for \p Tenant (StateMu held). False = refuse.
  bool rateAllowLocked(const std::string &Tenant);
  /// Writes window \p Id's folded groups under StoreDir/w<Id>/ (StateMu
  /// held). Shared by persist() and retention expiry.
  bool persistWindowLocked(uint64_t Id, Window &W, std::string &Error);
  /// Persists and drops the oldest windows until at most RetainWindows
  /// remain resident (StateMu held). A window that cannot be persisted
  /// stays resident and stops the sweep.
  void enforceRetentionLocked();

  IngestConfig Cfg;

  mutable std::mutex StateMu;
  std::map<uint64_t, Window> Windows;
  std::map<std::pair<std::string, uint64_t>, uint64_t> QuotaUsed;
  IngestStats Stats;
  /// Per-tenant token buckets (rate limiting).
  struct Bucket {
    double Tokens = 0;
    uint64_t LastNs = 0;
  };
  std::map<std::string, Bucket> Buckets;
  /// Retention watermark: every window id below this has been persisted
  /// and dropped; late uploads aimed under it reject as WindowExpired.
  uint64_t ExpiredBelow = 0;
};

} // namespace collectd
} // namespace pp

#endif // PP_COLLECTD_INGEST_H
