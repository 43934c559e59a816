//===- obs/Obs.h - Self-observability for the profiling pipeline -*- C++ -*-===//
///
/// \file
/// The profiler's profiler. The paper's premise is that a profiling tool
/// must account for its own cost (Table 1 overhead, Table 2
/// perturbation); this subsystem applies the same discipline to the
/// pipeline itself — the run scheduler, the run cache, the two VM
/// engines, and the profile-repository merges — so a slow 72-run table
/// suite or a regressed cache hit-rate has something to look at.
///
/// Design:
///
///  * Always compiled, near-zero overhead. Recording sites are stage
///    boundaries (a handful of events per run), never per-instruction.
///    A process-global enabled flag (obs::setEnabled, PP_OBS=0) turns the
///    record sites into one relaxed atomic load.
///
///  * One bounded, process-wide recorder behind one mutex. A closing span
///    adds its count, items and work into a span table keyed by
///    (category, name, label), and appends its raw record to a trace
///    buffer of at most PP_OBS_RING_CAPACITY records shared by every
///    thread. Memory depends on the number of distinct spans and on that
///    capacity, never on how many threads have recorded. A full trace
///    buffer refuses the record and counts the refusal; the span table
///    never drops, so report sums are always complete.
///
///  * Two exports with different determinism contracts:
///
///    - A structured JSON run report (PP_OBS_OUT / pp --obs-out,
///      renderJsonReport). Byte-stable by construction: counters are
///      schedule-independent sums emitted in fixed enum order, spans are
///      aggregated by (category, name, label) and sorted, and timestamps
///      are *virtual* — each aggregated span's [vt0, vt1) interval is laid
///      end-to-end from its deterministic work measure (simulated cycles
///      for execution stages, bytes for codec stages), never from the
///      host clock. Identical RunPlans therefore produce byte-identical
///      reports under any PP_DRIVER_THREADS value, which is what makes
///      reports diffable artifacts (pp-report obs). dropped_records (the
///      trace buffer's refusals) depends only on how many records were
///      made, so it is deterministic too.
///
///    - A Chrome trace_event stream (PP_OBS_TRACE, renderChromeTrace) for
///      flame-style inspection in a trace viewer. This one *is* host-time
///      and per-thread — worker lanes, queue-depth counter track, wall
///      durations — and is deliberately excluded from the determinism
///      contract.
///
//===----------------------------------------------------------------------===//

#ifndef PP_OBS_OBS_H
#define PP_OBS_OBS_H

#include <cstdint>
#include <string>

namespace pp {
namespace obs {

/// Pipeline counters. Every counter is a schedule-independent sum: its
/// total depends only on the submitted work, not on thread interleaving,
/// which is what lets the JSON report include all of them while staying
/// byte-identical across PP_DRIVER_THREADS values. Order here is the
/// report's field order — append only.
enum class Counter : unsigned {
  CacheDiskHits,         ///< run-cache lookups served from disk
  CacheMisses,           ///< run-cache lookups that found nothing usable
  CacheStores,           ///< outcomes written to the disk cache
  CacheCorruptEvictions, ///< undecodable cache files deleted on lookup
  CacheWriteFailures,    ///< cache writes that failed (the run stays uncached)
  SchedulerSubmitted,    ///< tickets issued by submit()
  SchedulerFolded,       ///< submissions folded onto an earlier task
  SchedulerExecuted,     ///< runs actually executed (not cache hits)
  SchedulerFailed,       ///< runs resolving to a failed outcome
  VmInsts,               ///< instructions executed by the VM (either engine)
  ProfDbBytesEncoded,    ///< artifact bytes encoded (run-cache entries too)
  ProfDbBytesDecoded,    ///< artifact bytes decoded (run-cache entries too)
  ProfDbMerges,          ///< pairwise artifact merges performed
  AcqTrapsDelivered,     ///< counter-overflow traps delivered to samplers
  AcqSamplesRecorded,    ///< stack samples recorded by overflow sampling
  CollectdAccepted,      ///< fleet uploads folded into a window tree
  CollectdRejected,      ///< fleet uploads rejected with a typed reason
  CollectdQueries,       ///< window queries served
  CollectdRateLimited,   ///< uploads refused by the per-tenant token bucket
  CollectdWindowsExpired, ///< windows persisted + dropped by retention
  CollectdNetConns,      ///< connections accepted by the socket front end
  CollectdNetFramesIn,   ///< frames decoded off client sockets
  CollectdNetFramesOut,  ///< frames written back to clients
  CollectdNetBytesIn,    ///< bytes read off client sockets
  CollectdNetBytesOut,   ///< bytes written back to clients
  CollectdNetProtocolErrors, ///< streams dropped for frame-level errors
  CollectdNetIdleClosed, ///< connections closed by the idle timeout
  OptFunctionsReordered, ///< functions re-laid-out hot-path-first
  OptBlocksDuplicated,   ///< blocks tail-duplicated by superblock formation
  OptSitesInlined,       ///< call sites expanded by the inliner
  OptProfileRefusals,    ///< artifacts refused by ProfileView with a typed reason
  NumCounters
};

/// The report key of \p C ("cache.disk_hits", ...).
const char *counterName(Counter C);

/// True when recording is on (the default; PP_OBS=0 disables at startup).
bool enabled();
/// Turns recording on or off process-wide (bench/obs_overhead's A/B knob).
void setEnabled(bool On);

/// Adds \p Delta to \p C (relaxed atomic; no-op when disabled).
void add(Counter C, uint64_t Delta = 1);
/// Current total of \p C.
uint64_t counterValue(Counter C);

/// Records an instantaneous gauge sample (scheduler queue depth). Gauges
/// are host-time samples and appear only in the Chrome trace, never in
/// the deterministic JSON report.
void gauge(const char *Name, int64_t Value);

/// RAII span over one pipeline stage. Construction stamps the host
/// clock; destruction adds the span to the process-wide span table and
/// appends its record to the trace buffer.
/// \p Cat and \p Name must be string literals (stored by pointer);
/// \p Label is copied (truncated to the record's inline capacity).
/// \p Work is the span's deterministic work measure — simulated cycles,
/// bytes, shards — and is what virtual time is built from; call setWork
/// when the measure is only known at the end of the stage.
class SpanScope {
public:
  SpanScope(const char *Cat, const char *Name, const std::string &Label,
            uint64_t Work = 0, uint64_t Items = 1);
  ~SpanScope();

  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  void setWork(uint64_t Work) { this->Work = Work; }
  void addWork(uint64_t Delta) { Work += Delta; }
  void setItems(uint64_t Items) { this->Items = Items; }

private:
  const char *Cat;
  const char *Name;
  char Label[64];
  uint64_t Work;
  uint64_t Items;
  uint64_t T0Ns;
  bool Armed;
};

/// The deterministic JSON run report (field order fixed, timestamps
/// virtual; see the file comment). Complete only when no recording
/// thread is running (workers joined).
std::string renderJsonReport();

/// The Chrome trace_event stream (host-time, per-thread lanes, gauge
/// counter tracks). Same quiescence requirement.
std::string renderChromeTrace();

/// Where the JSON report is written at process exit ("" disables).
/// Initialised from $PP_OBS_OUT; pp's --obs-out flag overrides it.
void setReportPath(const std::string &Path);
/// Where the Chrome trace is written at process exit ("" disables).
/// Initialised from $PP_OBS_TRACE.
void setTracePath(const std::string &Path);

/// Trace records kept per process: $PP_OBS_RING_CAPACITY via the strict
/// env path (support/Env.h), default 2^14, clamped to [64, 2^20].
/// Re-reads the environment on every call so tests can exercise the
/// parsing; the collector reads it once, when it is constructed.
size_t configuredRingCapacity();

/// Drops every recorded span, gauge, and counter (tests only; callers
/// must ensure no recording thread is running).
void resetForTesting();

} // namespace obs
} // namespace pp

#endif // PP_OBS_OBS_H
