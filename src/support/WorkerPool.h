//===- support/WorkerPool.h - FIFO worker pool -----------------*- C++ -*-===//
///
/// \file
/// The one thread pool of the code base: N worker threads (N >= 1)
/// draining one unbounded FIFO of jobs. The run scheduler posts each
/// declared run, and mergeAll each chunk of its threaded fold. Serial
/// callers do not build a pool: they run the work themselves.
///
//===----------------------------------------------------------------------===//

#ifndef PP_SUPPORT_WORKERPOOL_H
#define PP_SUPPORT_WORKERPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pp {

class WorkerPool {
public:
  using Job = std::function<void()>;

  /// \p Threads workers. A pool of 0 threads accepts no job; it only lets
  /// a serial owner (RunScheduler with PP_DRIVER_THREADS=0) keep one
  /// member type.
  explicit WorkerPool(unsigned Threads);
  /// Finishes every queued job, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Enqueues \p J; the pool must have at least one worker.
  void post(Job J);
  /// Returns once the queue is empty and no job is running.
  void drain();

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// The hardware concurrency clamped to [4, 16]: the default width of
  /// the driver's and the profile repository's pools.
  static unsigned hardwareDefault();

private:
  void workerLoop();

  std::mutex Mu;
  std::condition_variable NotEmpty;
  /// Signalled whenever a job finishes: wakes drain().
  std::condition_variable Idle;
  std::deque<Job> Queue;
  size_t InFlight = 0; ///< popped but not yet finished
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace pp

#endif // PP_SUPPORT_WORKERPOOL_H
