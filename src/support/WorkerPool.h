//===- support/WorkerPool.h - Bounded FIFO worker pool ---------*- C++ -*-===//
///
/// \file
/// The one thread pool of the code base: N worker threads draining one
/// bounded FIFO of jobs. The run scheduler posts each declared run, the
/// fleet ingest service each upload, and mergeAll each chunk of its
/// threaded fold.
///
/// A pool of 0 threads runs every job on a calling thread: a post() that
/// finds the queue full runs the queue head inline to make room (there is
/// no consumer to wait for), and drain() runs the backlog in FIFO order.
/// That is the deterministic manual-pump mode the ingest tests use, and
/// mergeAll's serial mode.
///
//===----------------------------------------------------------------------===//

#ifndef PP_SUPPORT_WORKERPOOL_H
#define PP_SUPPORT_WORKERPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pp {

class WorkerPool {
public:
  using Job = std::function<void()>;

  /// \p Threads workers behind a queue of at most \p Capacity jobs
  /// (0 is treated as 1).
  explicit WorkerPool(unsigned Threads, size_t Capacity = SIZE_MAX);
  /// Finishes every queued job, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Enqueues \p J, blocking while the queue is full (with 0 threads:
  /// running queued jobs inline until there is room).
  void post(Job J);
  /// Returns once the queue is empty and no job is running (with 0
  /// threads: after running the backlog on the calling thread).
  void drain();

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// The hardware concurrency clamped to [4, 16]: the default width of
  /// the driver's and the profile repository's pools.
  static unsigned hardwareDefault();

private:
  void workerLoop();
  /// Pops the queue head and runs it with \p Lock released.
  void runHead(std::unique_lock<std::mutex> &Lock);

  const size_t Capacity;
  std::mutex Mu;
  std::condition_variable NotEmpty;
  /// Signalled whenever a job leaves the queue or finishes: wakes blocked
  /// posters and drain().
  std::condition_variable Progress;
  std::deque<Job> Queue;
  size_t InFlight = 0; ///< popped but not yet finished
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace pp

#endif // PP_SUPPORT_WORKERPOOL_H
