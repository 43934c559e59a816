//===- tests/WorkerPoolTest.cpp - bounded FIFO worker pool tests ---------------===//
//
// The pool's contract: tryPost refuses at capacity, a blocked post
// resumes once a job leaves the queue, the 0-thread pool runs its jobs
// on the caller in FIFO order without deadlocking past capacity, drain
// waits for jobs in flight, and the destructor finishes every queued job.
//
//===----------------------------------------------------------------------===//

#include "support/WorkerPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

using namespace pp;

namespace {

/// A one-shot barrier a job can block on until the test opens it.
class Gate {
public:
  void open() { Promise.set_value(); }
  void wait() { Opened.wait(); }

private:
  std::promise<void> Promise;
  std::shared_future<void> Opened = Promise.get_future().share();
};

/// Records the order jobs ran in.
struct Log {
  std::mutex Mu;
  std::vector<int> Order;
  void add(int Id) {
    std::lock_guard<std::mutex> Lock(Mu);
    Order.push_back(Id);
  }
  std::vector<int> snapshot() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Order;
  }
};

} // namespace

TEST(WorkerPoolTest, TryPostRefusesAtCapacity) {
  Gate Release, Started;
  WorkerPool Pool(1, /*Capacity=*/1);
  Pool.post([&] {
    Started.open();
    Release.wait();
  });
  Started.wait(); // the worker holds the first job; the queue is empty
  std::atomic<int> Ran{0};
  EXPECT_TRUE(Pool.tryPost([&] { ++Ran; }));
  EXPECT_FALSE(Pool.tryPost([&] { ++Ran; }));
  Release.open();
  Pool.drain();
  EXPECT_EQ(Ran.load(), 1);

  WorkerPool Inline(0, /*Capacity=*/2);
  EXPECT_TRUE(Inline.tryPost([&] { ++Ran; }));
  EXPECT_TRUE(Inline.tryPost([&] { ++Ran; }));
  EXPECT_FALSE(Inline.tryPost([&] { ++Ran; }));
  EXPECT_EQ(Ran.load(), 1); // tryPost never runs anything inline
  Inline.drain();
  EXPECT_EQ(Ran.load(), 3);
}

TEST(WorkerPoolTest, BlockedPostResumesAfterAJobFinishes) {
  Gate Release, Started;
  Log L;
  WorkerPool Pool(1, /*Capacity=*/1);
  Pool.post([&] {
    Started.open();
    Release.wait();
    L.add(0);
  });
  Started.wait();
  Pool.post([&] { L.add(1); }); // fills the queue
  std::atomic<bool> Posted{false};
  std::thread Poster([&] {
    Pool.post([&] { L.add(2); });
    Posted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(Posted.load()); // still blocked: the queue is full
  Release.open();
  Poster.join();
  EXPECT_TRUE(Posted.load());
  Pool.drain();
  EXPECT_EQ(L.snapshot(), (std::vector<int>{0, 1, 2}));
}

TEST(WorkerPoolTest, ZeroThreadPoolRunsInlineInFifoOrder) {
  Log L;
  std::thread::id Caller = std::this_thread::get_id();
  std::atomic<bool> OffCaller{false};
  WorkerPool Pool(0, /*Capacity=*/2);
  EXPECT_EQ(Pool.numThreads(), 0u);
  for (int Id = 0; Id != 5; ++Id)
    Pool.post([&, Id] {
      if (std::this_thread::get_id() != Caller)
        OffCaller = true;
      L.add(Id);
    });
  // Past capacity each post ran the queue head to make room instead of
  // waiting for a consumer that does not exist.
  EXPECT_EQ(L.snapshot(), (std::vector<int>{0, 1, 2}));
  Pool.drain();
  EXPECT_EQ(L.snapshot(), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(OffCaller.load());
}

TEST(WorkerPoolTest, DrainWaitsForInFlightJobs) {
  Gate Started;
  std::atomic<bool> Finished{false};
  WorkerPool Pool(2);
  Pool.post([&] {
    Started.open();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Finished = true;
  });
  Started.wait(); // the job has left the queue and is running
  Pool.drain();
  EXPECT_TRUE(Finished.load());
}

TEST(WorkerPoolTest, DestructorFinishesQueuedJobs) {
  std::atomic<int> Ran{0};
  {
    Gate Release;
    WorkerPool Pool(1);
    Pool.post([&] { Release.wait(); });
    for (int Id = 0; Id != 10; ++Id)
      Pool.post([&] { ++Ran; });
    Release.open();
  }
  EXPECT_EQ(Ran.load(), 10);
  {
    WorkerPool Inline(0);
    for (int Id = 0; Id != 10; ++Id)
      Inline.post([&] { ++Ran; });
  }
  EXPECT_EQ(Ran.load(), 20);
}
