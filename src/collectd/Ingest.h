//===- collectd/Ingest.h - Fleet artifact ingest service -------*- C++ -*-===//
///
/// \file
/// The continuous-profiling collector: a long-running service that
/// accepts encoded profile artifacts (.ppa bytes) uploaded by a fleet of
/// clients and folds them incrementally, one fold per (window, schema
/// group) (collectd/MergeTree.h). The paper's tables are batch reports
/// over one run; this is the "always on" production shape — thousands of
/// uploads an hour, bounded memory, queries served from the folded
/// windows.
///
/// Admission pipeline, per upload:
///
///   1. The bytes pass through the FaultInjector read seam, standing in
///      for network/disk corruption in flight.
///   2. decodeArtifact — every upload is untrusted; a typed DecodeStatus
///      rejects the upload, never the window.
///   3. Acquisition check — exact counts and sampled estimates must not
///      fold together, so an upload whose schema acquisition differs
///      from the service's is rejected (CrossAcquisition).
///   4. Per-(tenant, window) quota (charged to accepted uploads only).
///   5. Fold into the window's schema group (keyed by workload, scale,
///      schema, and program shape). The group's MergeTree checks the
///      artifact against its running fold before summing it in, so
///      an incompatibility the key cannot see (CCT edge structure,
///      hashed-table thresholds) rejects this upload at admission —
///      never a later one, and never the group's accepted contents.
///
/// Ingest runs on a support/WorkerPool behind a bounded queue: submit()
/// blocks for space (backpressure), trySubmit() refuses instead.
/// Threads == 0 selects the pool's manual-pump mode — submissions only
/// enqueue, drain() processes them on the calling thread — which is what
/// the deterministic tests use.
///
/// Every fold is deterministic: the window's merged bytes are identical
/// for any arrival order or ingest thread count (see MergeTree.h), so a
/// rejected upload provably leaves the window byte-identical to a run
/// that never saw it.
///
//===----------------------------------------------------------------------===//

#ifndef PP_COLLECTD_INGEST_H
#define PP_COLLECTD_INGEST_H

#include "collectd/MergeTree.h"
#include "support/WorkerPool.h"

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
  /// the decoder, or a shape the group key does not distinguish); the
  /// upload is dropped at admission, the window survives byte-identical.
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
  /// Ingest worker threads; 0 = manual-pump mode (drain() processes the
  /// queue on the calling thread — deterministic, used by tests).
  unsigned Threads = 4;
  /// Bounded queue depth (0 is treated as 1); submit() blocks at
  /// capacity, trySubmit() refuses.
  size_t QueueCapacity = 1024;
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
  /// dropped. Constructor default: $PP_COLLECTD_RETAIN_WINDOWS.
  size_t RetainWindows = 0;
};

/// Aggregate service counters. The totals (Submitted, Accepted,
/// Rejected, RejectedBy) depend only on the set of submitted uploads,
/// never on worker interleaving — with one carve-out: when
/// TenantWindowQuota is set and uploads race over a shared quota,
/// *which* uploads win the remaining slots (and therefore the windows'
/// folded contents) follows admission order; only the counts are stable.
struct IngestStats {
  uint64_t Submitted = 0;
  uint64_t Accepted = 0;
  uint64_t Rejected = 0;
  uint64_t RejectedBy[static_cast<size_t>(RejectReason::NumReasons)] = {};
  /// trySubmit() refusals — backpressure, not upload verdicts.
  uint64_t Backpressured = 0;
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

/// $PP_COLLECTD_RETAIN_WINDOWS via the strict env path (support/Env.h);
/// 0 (and unset, and junk-with-a-warning) = unlimited.
size_t retainWindowsFromEnv();

class IngestService {
public:
  explicit IngestService(IngestConfig C);

  IngestService(const IngestService &) = delete;
  IngestService &operator=(const IngestService &) = delete;

  /// Enqueues \p U, blocking while the queue is at capacity. In
  /// manual-pump mode there is no consumer to wait for, so a full queue
  /// pumps queued uploads inline on the calling thread instead of
  /// deadlocking.
  void submit(Upload U);
  /// Enqueues \p U unless the queue is at capacity; false = backpressure,
  /// the caller should retry later.
  bool trySubmit(Upload U);
  /// Blocks until every enqueued upload has been ingested. In
  /// manual-pump mode this processes the queue on the calling thread.
  void drain();

  /// Synchronous ingest on the calling thread, returning the typed
  /// verdict. The queued paths funnel into this.
  UploadResult ingestNow(Upload U);

  /// The hottest paths / procedures / CCT statistics of \p Window,
  /// rendered per schema group through the same profdb report code
  /// pp-report uses (so a collector answer is byte-comparable to a
  /// pp-report run over the same artifacts).
  std::string queryTopPaths(uint64_t Window, size_t Limit,
                            std::string &Error);
  std::string queryTopProcs(uint64_t Window, size_t Limit,
                            std::string &Error);
  std::string queryCctStats(uint64_t Window, std::string &Error);

  /// The encoded folded artifact of each schema group in \p Window, in
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
  struct Group {
    std::string Label; ///< workload name, for query headers
    MergeTree Tree;
    explicit Group(const std::string &Label) : Label(Label) {}
  };
  using Window = std::map<std::string, Group>;

  /// Renders \p Window group by group via \p Render; shared shape of the
  /// three queries.
  template <typename RenderFn>
  std::string queryWindow(uint64_t Window, std::string &Error,
                          RenderFn Render);
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

  /// Declared last so it is destroyed first: its destructor finishes the
  /// queued uploads while the state they fold into is still alive.
  WorkerPool Pool;
};

} // namespace collectd
} // namespace pp

#endif // PP_COLLECTD_INGEST_H
