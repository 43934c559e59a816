//===- support/WorkerPool.cpp - Bounded FIFO worker pool ----------------------===//

#include "support/WorkerPool.h"

#include <algorithm>

using namespace pp;

WorkerPool::WorkerPool(unsigned Threads, size_t Capacity)
    : Capacity(std::max<size_t>(Capacity, 1)) {
  Workers.reserve(Threads);
  for (unsigned Index = 0; Index != Threads; ++Index)
    Workers.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool() {
  drain();
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

void WorkerPool::runHead(std::unique_lock<std::mutex> &Lock) {
  Job J = std::move(Queue.front());
  Queue.pop_front();
  ++InFlight;
  Progress.notify_all(); // a slot opened for a blocked post()
  Lock.unlock();
  J();
  Lock.lock();
  --InFlight;
  Progress.notify_all();
}

void WorkerPool::post(Job J) {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Workers.empty()) {
    // Blocking would deadlock: the caller is the only consumer.
    while (Queue.size() >= Capacity)
      runHead(Lock);
  } else {
    Progress.wait(Lock, [this] { return Queue.size() < Capacity; });
  }
  Queue.push_back(std::move(J));
  NotEmpty.notify_one();
}

void WorkerPool::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Workers.empty())
    while (!Queue.empty())
      runHead(Lock);
  Progress.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
}

void WorkerPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    NotEmpty.wait(Lock, [this] { return Stopping || !Queue.empty(); });
    if (Queue.empty())
      return; // stopping, and the destructor drained everything
    runHead(Lock);
  }
}
