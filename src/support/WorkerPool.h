//===- support/WorkerPool.h - FIFO worker pool -----------------*- C++ -*-===//
///
/// \file
/// The one thread pool of the code base: N worker threads (N >= 1)
/// draining one unbounded FIFO of jobs. The run scheduler posts each
/// declared run to it and waits on each run's own result; a serial
/// scheduler runs the work itself.
///
//===----------------------------------------------------------------------===//

#ifndef PP_SUPPORT_WORKERPOOL_H
#define PP_SUPPORT_WORKERPOOL_H

#include <condition_variable>
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
  /// Lets the workers finish every queued job, then joins them.
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Enqueues \p J; the pool must have at least one worker.
  void post(Job J);

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// The hardware concurrency clamped to [4, 16]: the run scheduler's
  /// default width.
  static unsigned hardwareDefault();

private:
  void workerLoop();

  std::mutex Mu;
  std::condition_variable NotEmpty;
  std::deque<Job> Queue;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace pp

#endif // PP_SUPPORT_WORKERPOOL_H
