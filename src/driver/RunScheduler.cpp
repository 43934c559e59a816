//===- driver/RunScheduler.cpp - Parallel run execution -----------------------===//

#include "driver/RunScheduler.h"

#include "driver/FaultInjector.h"
#include "driver/RunCache.h"
#include "obs/Obs.h"
#include "profdb/Store.h"
#include "support/Env.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <cstdio>

#include <sys/stat.h>

using namespace pp;
using namespace pp::driver;

unsigned RunScheduler::defaultWorkerThreads() {
  unsigned Default = WorkerPool::hardwareDefault();
  uint64_t Value;
  switch (envUint64("PP_DRIVER_THREADS", "pp-driver", Value)) {
  case EnvParse::Ok:
    return static_cast<unsigned>(std::min<uint64_t>(Value, 64));
  case EnvParse::Malformed:
    // A typo must not silently drop the suite into serial mode (atol
    // would read "max" as 0); the shared helper warned, keep the
    // hardware default.
    std::fprintf(stderr, "pp-driver: using %u threads\n", Default);
    return Default;
  case EnvParse::Unset:
    break;
  }
  return Default;
}

RunScheduler::RunScheduler(RunCache *Cache, unsigned Threads)
    : Cache(Cache), ProfileOutDir(profdb::profileOutDirFromEnv()),
      // Touch the obs collector before the pool spawns its workers:
      // function-local statics are destroyed in reverse construction
      // order, so this guarantees the collector outlives a static Driver
      // — the pool's destructor (which joins the workers) runs before the
      // collector flushes the report, and no worker can record into a
      // destroyed collector.
      Pool(((void)obs::enabled(), Threads)) {}

size_t RunScheduler::submit(RunPlan Plan) {
  RunKey Key = RunKey::of(Plan);
  std::lock_guard<std::mutex> Lock(Mu);

  obs::add(obs::Counter::SchedulerSubmitted);
  size_t TaskIndex;
  auto Folded = Key.Cacheable ? TaskOfKey.find(Key.Fingerprint)
                              : TaskOfKey.end();
  if (Folded != TaskOfKey.end()) {
    obs::add(obs::Counter::SchedulerFolded);
    TaskIndex = Folded->second;
  } else {
    TaskIndex = Tasks.size();
    auto T = std::make_unique<Task>();
    T->Plan = std::move(Plan);
    T->Key = std::move(Key);
    Tasks.push_back(std::move(T));
    if (Tasks.back()->Key.Cacheable)
      TaskOfKey.emplace(Tasks.back()->Key.Fingerprint, TaskIndex);
    obs::gauge("scheduler.queue_depth", static_cast<int64_t>(++Unfinished));
    // The pool's queue is unbounded, so post() never blocks under the
    // lock; the task lives on the heap, so the pointer survives Tasks
    // reallocating.
    if (Pool.numThreads())
      Pool.post([this, Posted = Tasks.back().get()] { executeTask(*Posted); });
  }

  size_t Ticket = TicketToTask.size();
  TicketToTask.push_back(TaskIndex);
  return Ticket;
}

OutcomePtr RunScheduler::get(size_t Ticket) {
  std::unique_lock<std::mutex> Lock(Mu);
  assert(Ticket < TicketToTask.size() && "unknown ticket");
  Task &T = *Tasks[TicketToTask[Ticket]];
  if (!T.Done && !Pool.numThreads()) {
    // Serial mode: the run executes on the calling thread.
    Lock.unlock();
    executeTask(T);
    Lock.lock();
  }
  TaskDone.wait(Lock, [&T] { return T.Done; });
  return T.Outcome;
}

size_t RunScheduler::numTickets() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return TicketToTask.size();
}

uint64_t RunScheduler::runsExecuted() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Executed;
}

uint64_t RunScheduler::runsFailed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Failed;
}

void RunScheduler::setProfileOutDir(std::string Dir) {
  std::lock_guard<std::mutex> Lock(Mu);
  ProfileOutDir = std::move(Dir);
}

void RunScheduler::executeTask(Task &T) {
  // The Task lives on the heap and its one executing thread owns it until
  // Done, so the plan and key are safe to read without the lock. (The
  // Tasks vector itself is not: submit() may be reallocating it
  // concurrently.)
  OutcomePtr Outcome = executePlan(T.Plan, T.Key);
  if (!Outcome || !Outcome->Result.Ok)
    obs::add(obs::Counter::SchedulerFailed);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Outcome || !Outcome->Result.Ok)
      ++Failed;
    T.Outcome = std::move(Outcome);
    T.Done = true;
    obs::gauge("scheduler.queue_depth", static_cast<int64_t>(--Unfinished));
  }
  TaskDone.notify_all();
}

OutcomePtr RunScheduler::failedOutcome(std::string Error) {
  auto Outcome = std::make_shared<prof::RunOutcome>();
  Outcome->Result.Ok = false;
  Outcome->Result.Error = std::move(Error);
  return Outcome;
}

void RunScheduler::maybeEmitArtifact(const RunKey &Key,
                                     const prof::RunOutcome &Outcome) {
  std::string Dir;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Dir = ProfileOutDir;
  }
  if (Dir.empty() || !Outcome.Result.Ok)
    return;
  std::string Path = Dir + "/" + profdb::artifactFileName(Key.Fingerprint);
  struct stat St;
  if (::stat(Path.c_str(), &St) == 0)
    return; // the fingerprint names the content; an existing file is it
  obs::SpanScope Deposit("driver", "artifact_deposit", spanLabel(Key));
  std::string Error;
  if (!profdb::writeFileAtomic(
          Path,
          profdb::encodeRunArtifact(Outcome, Key.Fingerprint, Key.Workload,
                                    Key.Scale, Key.Schema),
          Error))
    std::fprintf(stderr,
                 "pp-driver: warning: profile artifact not written: %s\n",
                 Error.c_str());
}

std::string RunScheduler::spanLabel(const RunKey &Key) {
  return Key.Workload + "@" + std::to_string(Key.Scale) + "/" +
         Key.Schema.Mode;
}

OutcomePtr RunScheduler::executePlan(const RunPlan &Plan, const RunKey &Key) {
  std::string Label = spanLabel(Key);

  if (Cache) {
    obs::SpanScope Probe("driver", "cache_probe", Label);
    if (OutcomePtr Hit = Cache->lookup(Key)) {
      maybeEmitArtifact(Key, *Hit);
      return Hit;
    }
  }

  // One bad run degrades one result, never the suite: failures come back
  // as structured outcomes (Ok = false, Error set) that are not cached,
  // while every other submitted run proceeds untouched.
  std::string InjectedError;
  if (FaultInjector::instance().shouldFailRun(Key.Fingerprint,
                                              InjectedError))
    return failedOutcome(std::move(InjectedError));

  std::unique_ptr<ir::Module> M;
  {
    obs::SpanScope Build("driver", "build", Label);
    M = Plan.Build ? Plan.Build()
                   : workloads::buildWorkload(Plan.Workload, Plan.Scale);
  }
  if (!M)
    return failedOutcome("unknown workload '" + Plan.Workload + "'");

  // The stager records one prof/<stage> span per stage.
  prof::RunStager Stager(*M, Plan.Options);
  Stager.instrument();
  Stager.load();
  Stager.execute();
  auto Outcome = std::make_shared<prof::RunOutcome>(Stager.extract());
  obs::add(obs::Counter::SchedulerExecuted);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Executed;
  }
  if (Cache)
    Cache->insert(Key, Outcome);
  maybeEmitArtifact(Key, *Outcome);
  return Outcome;
}
