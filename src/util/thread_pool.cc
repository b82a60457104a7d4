#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace campion::util {

ThreadPool::ThreadPool(unsigned num_threads) {
  num_threads = std::max(1u, num_threads);
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

unsigned ResolveThreadCount(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

ThreadPool& SharedPool() {
  static ThreadPool pool(ResolveThreadCount(0));
  return pool;
}

// One RunParallel call. The caller and its helpers claim indices from
// `next`; helpers hold the call by shared_ptr, so a helper that starts
// after the call has returned finds no index left and touches nothing but
// this state. `fn` is only called for a claimed index, and the caller
// cannot return while a claimed index is unfinished.
struct ParallelCall {
  ParallelCall(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n(n), fn(fn) {}

  // Runs claimed indices until none is left, then reports how many ran.
  void Drain() {
    std::size_t ran = 0;
    for (std::size_t i; (i = next.fetch_add(1)) < n; ++ran) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mutex);
    done += ran;
    if (done == n) all_done.notify_all();
  }

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done = 0;  // Guarded by mutex, as are the two below.
  std::exception_ptr error;
  std::size_t error_index = 0;
};

}  // namespace

void RunParallel(unsigned num_threads, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto call = std::make_shared<ParallelCall>(n, fn);
  const std::size_t helpers =
      std::min<std::size_t>(ResolveThreadCount(num_threads), n) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    SharedPool().Submit([call] { call->Drain(); });
  }
  call->Drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(call->mutex);
    call->all_done.wait(lock, [&] { return call->done == n; });
    // Moved, not copied: a helper that outlives this call may drop the
    // last reference to `call`, and must not take the exception with it.
    error = std::exchange(call->error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace campion::util
