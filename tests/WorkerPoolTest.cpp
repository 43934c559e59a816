//===- tests/WorkerPoolTest.cpp - FIFO worker pool tests -----------------------===//
//
// The pool's contract: the destructor finishes every queued job.
//
//===----------------------------------------------------------------------===//

#include "support/WorkerPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <future>

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

} // namespace

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
}
