// Tests for the shared worker pool behind util::RunParallel: a call nested
// inside a call that holds every pool worker completes, the lowest-index
// exception crosses a nested call, concurrent callers each see their own
// indices exactly once, and a task that throws leaves no span on the
// thread that ran it. Thread and task counts stay small: the pool is sized
// to the machine, and every test holds at most all of it at once.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace campion::util {
namespace {

// `prefix` followed by `i`, appended rather than `+`-chained from a
// literal (GCC's -Wrestrict misfires on the latter).
std::string Label(const char* prefix, std::size_t i) {
  std::string label = prefix;
  label += std::to_string(i);
  return label;
}

// The calling thread plus every worker of the shared pool.
unsigned AllThreads() { return ResolveThreadCount(0) + 1; }

// Blocks each arriving task until `count` tasks have arrived, so a
// RunParallel of `count` tasks at `count` threads provably holds the
// caller and every pool worker at once. Gives up after a timeout rather
// than hanging, and reports whether everyone arrived.
class Rendezvous {
 public:
  explicit Rendezvous(unsigned count) : count_(count) {}

  bool Arrive() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == count_) all_arrived_.notify_all();
    return all_arrived_.wait_for(lock, std::chrono::seconds(20),
                                 [this] { return arrived_ >= count_; });
  }

 private:
  const unsigned count_;
  unsigned arrived_ = 0;
  std::mutex mutex_;
  std::condition_variable all_arrived_;
};

TEST(ThreadPoolTest, RunsEveryIndexOnceAtEveryThreadCount) {
  for (const unsigned threads : {0u, 1u, 2u, 4u, 16u}) {
    std::vector<std::atomic<int>> runs(37);
    RunParallel(threads, runs.size(), [&](std::size_t i) { ++runs[i]; });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " index " << i;
    }
  }
  RunParallel(4, 0, [](std::size_t) { ADD_FAILURE() << "no index to run"; });
}

TEST(ThreadPoolTest, NestedCallCompletesWhileOuterCallHoldsEveryWorker) {
  const unsigned threads = AllThreads();
  Rendezvous rendezvous(threads);
  std::atomic<unsigned> arrived{0};
  std::vector<std::atomic<int>> inner_runs(threads * 8);
  RunParallel(threads, threads, [&](std::size_t i) {
    if (rendezvous.Arrive()) ++arrived;
    // Every pool worker is busy in this outer call now: the nested call's
    // helpers stay queued, and its caller must run its tasks itself.
    RunParallel(4, 8, [&](std::size_t j) { ++inner_runs[i * 8 + j]; });
  });
  EXPECT_EQ(arrived.load(), threads) << "the outer call never held every "
                                        "pool worker at once";
  for (std::size_t k = 0; k < inner_runs.size(); ++k) {
    EXPECT_EQ(inner_runs[k].load(), 1) << "inner index " << k;
  }
}

TEST(ThreadPoolTest, LowestIndexExceptionCrossesANestedCall) {
  std::atomic<int> ran{0};
  try {
    RunParallel(4, 8, [&](std::size_t i) {
      RunParallel(3, 6, [&](std::size_t j) {
        ++ran;
        if ((i == 3 || i == 5) && j >= 2) {
          throw std::runtime_error(std::to_string(i) + "/" +
                                   std::to_string(j));
        }
      });
    });
    ADD_FAILURE() << "nothing was rethrown";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "3/2");
  }
  // A throwing task does not cancel the others, at any nesting level.
  EXPECT_EQ(ran.load(), 8 * 6);
}

TEST(ThreadPoolTest, ConcurrentCallersEachSeeEveryIndexExactlyOnce) {
  constexpr int kCallers = 3;
  constexpr int kRounds = 20;
  constexpr std::size_t kTasks = 50;
  std::vector<std::vector<std::atomic<int>>> runs(kCallers);
  for (auto& caller_runs : runs) {
    caller_runs = std::vector<std::atomic<int>>(kTasks);
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        RunParallel(3, kTasks, [&](std::size_t i) { ++runs[c][i]; });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(runs[c][i].load(), kRounds) << "caller " << c << " index " << i;
    }
  }
}

class ThreadPoolTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::ResetThreadTrace();
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::ResetThreadTrace();
  }
};

// The task shape ConfigDiff uses, failing after it has recorded spans.
void ThrowingTracedTask(std::size_t i) {
  obs::TaskCapture capture;
  {
    obs::ScopedSpan span("task", Label("t", i));
    obs::ScopedSpan child("work");
  }
  obs::ScopedSpan open("failing");
  throw std::runtime_error(Label("task ", i));
}

TEST_F(ThreadPoolTraceTest, ThrowingTaskLeavesNoSpanOnTheThreadThatRanIt) {
  // Inline: the calling thread's open span gets no child from the task.
  {
    obs::ScopedSpan root("root");
    EXPECT_THROW(RunParallel(1, 3, ThrowingTracedTask), std::runtime_error);
  }
  std::vector<obs::Span> roots = obs::TakeThreadSpans();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "root");
  EXPECT_TRUE(roots[0].children.empty());

  // Pooled: hold the caller and every worker at once, so every thread
  // runs a failing task, then look at what each of them kept.
  const unsigned threads = AllThreads();
  Rendezvous failing(threads);
  EXPECT_THROW(RunParallel(threads, threads,
                           [&](std::size_t i) {
                             failing.Arrive();
                             ThrowingTracedTask(i);
                           }),
               std::runtime_error);
  Rendezvous checking(threads);
  std::atomic<unsigned> clean{0};
  RunParallel(threads, threads, [&](std::size_t) {
    checking.Arrive();
    if (obs::TakeThreadSpans().empty()) ++clean;
  });
  EXPECT_EQ(clean.load(), threads);
}

// A capture is relative to the innermost open span, so a task run inline
// under the caller's open span captures the same subtree as one run on a
// worker, nested calls included.
TEST_F(ThreadPoolTraceTest, InlineAndPooledTasksCaptureTheSameSubtree) {
  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::vector<obs::Span>> captured(4);
    {
      obs::ScopedSpan root("root");
      RunParallel(threads, captured.size(), [&](std::size_t i) {
        obs::TaskCapture capture;
        {
          obs::ScopedSpan span("task", Label("t", i));
          std::vector<std::vector<obs::Span>> leaves(2);
          RunParallel(threads, leaves.size(), [&](std::size_t j) {
            obs::TaskCapture inner;
            { obs::ScopedSpan leaf("leaf", Label("l", j)); }
            leaves[j] = inner.Finish();
          });
          for (auto& spans : leaves) {
            EXPECT_EQ(spans.size(), 1u) << "threads=" << threads;
            obs::AttachSpans(std::move(spans));
          }
        }
        captured[i] = capture.Finish();
      });
      for (auto& spans : captured) {
        EXPECT_EQ(spans.size(), 1u) << "threads=" << threads;
        obs::AttachSpans(std::move(spans));
      }
    }
    std::vector<obs::Span> roots = obs::TakeThreadSpans();
    ASSERT_EQ(roots.size(), 1u) << "threads=" << threads;
    ASSERT_EQ(roots[0].children.size(), 4u) << "threads=" << threads;
    for (std::size_t i = 0; i < 4; ++i) {
      const obs::Span& task = roots[0].children[i];
      EXPECT_EQ(task.detail, Label("t", i));
      ASSERT_EQ(task.children.size(), 2u) << "threads=" << threads;
      EXPECT_EQ(task.children[0].detail, "l0");
      EXPECT_EQ(task.children[1].detail, "l1");
    }
  }
}

}  // namespace
}  // namespace campion::util
