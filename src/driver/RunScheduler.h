//===- driver/RunScheduler.h - Parallel run execution ----------*- C++ -*-===//
///
/// \file
/// Executes declared runs on a support/WorkerPool. Every run is
/// independent — one Machine and one Vm per execution, no shared mutable
/// state anywhere in pp_vm/pp_hw/pp_prof — so runs proceed concurrently
/// and results are collected deterministically in submission order.
/// Duplicate submissions of the same RunKey fold onto one execution —
/// the driver's one in-memory memo — and a RunCache (when attached) is
/// consulted before executing and updated after.
///
/// Failure isolation: a run that cannot complete (unknown workload,
/// exhausted instruction budget) resolves to a structured outcome with
/// Result.Ok == false and Result.Error set, is never cached to disk, and
/// leaves every other submitted run untouched — one bad run degrades one
/// table cell instead of aborting the suite.
///
/// Environment knobs: PP_DRIVER_THREADS sets the worker count (a
/// non-numeric value warns and keeps the hardware default; 0 means
/// in-order execution on the calling thread), and PP_PROFILE_OUT names a
/// directory every successful run (fresh or cache-hit) deposits a profile
/// artifact into (see profdb/Store.h).
///
//===----------------------------------------------------------------------===//

#ifndef PP_DRIVER_RUNSCHEDULER_H
#define PP_DRIVER_RUNSCHEDULER_H

#include "driver/RunKey.h"
#include "driver/RunPlan.h"
#include "support/WorkerPool.h"

#include <condition_variable>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pp {
namespace driver {

class RunCache;

class RunScheduler {
public:
  /// \p Threads worker threads (0 = serial: each run executes on the
  /// thread that first requests its result, so a serial scheduler has one
  /// calling thread).
  explicit RunScheduler(RunCache *Cache = nullptr,
                        unsigned Threads = defaultWorkerThreads());

  RunScheduler(const RunScheduler &) = delete;
  RunScheduler &operator=(const RunScheduler &) = delete;

  /// Declares a run and returns its ticket. A new run is posted to the
  /// pool at once; a cacheable plan whose key was already submitted
  /// shares the earlier execution.
  size_t submit(RunPlan Plan);

  /// Blocks until ticket \p Ticket's run finished and returns its outcome.
  OutcomePtr get(size_t Ticket);

  /// Number of tickets issued so far.
  size_t numTickets() const;
  /// Worker threads (0 in serial mode).
  unsigned numThreads() const { return Pool.numThreads(); }
  /// Runs actually executed (cache hits and folded duplicates excluded).
  uint64_t runsExecuted() const;
  /// Runs that resolved to a failed outcome (Result.Ok == false), whether
  /// executed (exhausted budget) or synthesised (unknown workload).
  uint64_t runsFailed() const;

  /// PP_DRIVER_THREADS, defaulting to
  /// WorkerPool::hardwareDefault() (the hardware concurrency clamped to
  /// [4, 16]).
  static unsigned defaultWorkerThreads();

  /// Redirects artifact emission ("" disables it). Initialised from
  /// $PP_PROFILE_OUT; tools/pp's --profile-out flag overrides it.
  void setProfileOutDir(std::string Dir);

private:
  struct Task {
    RunPlan Plan;
    RunKey Key;
    bool Done = false;
    OutcomePtr Outcome;
  };

  void executeTask(Task &T);
  OutcomePtr executePlan(const RunPlan &Plan, const RunKey &Key);
  /// Deposits \p Outcome as a profile artifact when a profile-out
  /// directory is configured, the run succeeded, and the artifact is not
  /// already on disk. The bytes are encoded straight from the outcome
  /// (profdb::encodeRunArtifact). Emission failures warn on stderr; they
  /// never fail the run itself.
  void maybeEmitArtifact(const RunKey &Key, const prof::RunOutcome &Outcome);
  /// One span label per run, shared by all of its driver spans, so the
  /// report aggregates by run identity: "workload@scale/mode".
  static std::string spanLabel(const RunKey &Key);
  /// A structured failure outcome (Ok = false, \p Error attached).
  static OutcomePtr failedOutcome(std::string Error);

  RunCache *Cache;
  std::string ProfileOutDir;

  mutable std::mutex Mu;
  std::condition_variable TaskDone;
  std::vector<std::unique_ptr<Task>> Tasks;
  /// Ticket -> task index (several tickets may alias one task).
  std::vector<size_t> TicketToTask;
  /// Fingerprint -> task index, for duplicate folding.
  std::unordered_map<std::string, size_t> TaskOfKey;
  /// Runs submitted but not yet finished (the queue-depth trace gauge).
  size_t Unfinished = 0;
  uint64_t Executed = 0;
  uint64_t Failed = 0;
  /// Declared last so it is destroyed first: its destructor finishes
  /// every posted run while the tasks are still alive.
  WorkerPool Pool;
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RUNSCHEDULER_H
