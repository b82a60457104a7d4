#pragma once

// Worker threads for Campion's fan-outs.
//
// RunParallel is what the differencing pipeline uses: ConfigDiff runs its
// per-pair policy comparisons through it, and the daemon's /batch runs its
// pairs through it, each of which may fan out again inside ConfigDiff.
// Every call shares one process-wide pool, sized to the hardware and
// started on first use, so no call starts or joins a thread. The calling
// thread runs its own tasks alongside at most `num_threads - 1` pooled
// helpers, and never runs another call's tasks, so a nested call cannot
// deadlock waiting for workers held by its outer call. A task owns all of
// its mutable state or holds it per thread (a pair task's BddManager), so
// the pool needs no shared-state machinery beyond the queue itself.
//
// ThreadPool is the queue-and-workers primitive under it, also used
// directly for the daemon's connection workers.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace campion::util {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();  // Runs every queued task, then joins.

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw; wrap fallible work and capture
  // errors by side channel (see RunParallel).
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stop_ = false;
};

// Resolves a thread-count knob: 0 means "use the hardware concurrency"
// (never less than 1), any other value is taken as-is.
unsigned ResolveThreadCount(unsigned requested);

// Runs fn(0) .. fn(n-1) with at most `num_threads` of them (resolved as
// above) executing at once: on the calling thread, and on up to
// num_threads - 1 workers of the shared pool. Blocks until all invocations
// complete. Every invocation runs even if some throw; the exception of the
// lowest-index failed invocation is then rethrown.
void RunParallel(unsigned num_threads, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace campion::util
