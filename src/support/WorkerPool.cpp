//===- support/WorkerPool.cpp - FIFO worker pool ------------------------------===//

#include "support/WorkerPool.h"

#include <algorithm>
#include <cassert>

using namespace pp;

WorkerPool::WorkerPool(unsigned Threads) {
  Workers.reserve(Threads);
  for (unsigned Index = 0; Index != Threads; ++Index)
    Workers.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  NotEmpty.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

unsigned WorkerPool::hardwareDefault() {
  unsigned Hardware = std::thread::hardware_concurrency();
  return std::clamp(Hardware ? Hardware : 4u, 4u, 16u);
}

void WorkerPool::post(Job J) {
  assert(!Workers.empty() && "post to a pool without workers");
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back(std::move(J));
  }
  NotEmpty.notify_one();
}

void WorkerPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    NotEmpty.wait(Lock, [this] { return Stopping || !Queue.empty(); });
    if (Queue.empty())
      return; // stopping, and every queued job has run
    {
      Job J = std::move(Queue.front());
      Queue.pop_front();
      Lock.unlock();
      J(); // J and its captures die here, before the next pop
    }
    Lock.lock();
  }
}
