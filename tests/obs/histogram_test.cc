// Tests for obs/histogram.h: exact bucket boundaries, merge algebra,
// quantile error bounds, and the allocation-free record path.

#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <thread>
#include <vector>

namespace campion::obs {
namespace {

// Counts every global operator new hit so the zero-allocation test can
// pin the Record path. gtest and the runtime allocate freely around the
// measured section; only the delta across Record calls matters.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace
}  // namespace campion::obs

void* operator new(std::size_t size) {
  campion::obs::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Not inlined: inlined into a caller, std::free would meet a pointer from
// operator new, and GCC reports -Wmismatched-new-delete there.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace campion::obs {
namespace {

TEST(HistogramTest, FirstFourBucketsAreExactValues) {
  for (std::uint64_t ns = 0; ns < 4; ++ns) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(ns), static_cast<int>(ns));
    EXPECT_EQ(LatencyHistogram::BucketLowerNs(static_cast<int>(ns)), ns);
    EXPECT_EQ(LatencyHistogram::BucketUpperNs(static_cast<int>(ns)), ns + 1);
  }
}

TEST(HistogramTest, BucketBoundariesAreExactIntegers) {
  // Every bucket's lower bound must land in that bucket, and lower-1 in
  // the previous one: the boundary (4 + sub) << (octave - 1) is exact.
  for (int index = 4; index < LatencyHistogram::kBucketCount; ++index) {
    const std::uint64_t lower = LatencyHistogram::BucketLowerNs(index);
    if (lower == ~0ull) break;  // Beyond the 64-bit range.
    EXPECT_EQ(LatencyHistogram::BucketIndex(lower), index)
        << "lower bound of bucket " << index;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lower - 1), index - 1)
        << "one below bucket " << index;
    const std::uint64_t upper = LatencyHistogram::BucketUpperNs(index);
    if (upper != ~0ull) {
      EXPECT_EQ(LatencyHistogram::BucketIndex(upper - 1), index)
          << "last value of bucket " << index;
    }
  }
}

TEST(HistogramTest, KnownBucketValues) {
  // Spot checks computed by hand from the layout comment.
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 4);     // [4,5)
  EXPECT_EQ(LatencyHistogram::BucketIndex(7), 7);     // [7,8)
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 8);     // [8,10)
  EXPECT_EQ(LatencyHistogram::BucketIndex(9), 8);
  EXPECT_EQ(LatencyHistogram::BucketIndex(15), 11);   // [14,16)
  EXPECT_EQ(LatencyHistogram::BucketIndex(16), 12);   // [16,20)
  EXPECT_EQ(LatencyHistogram::BucketIndex(1000), LatencyHistogram::BucketIndex(896));
  EXPECT_EQ(LatencyHistogram::BucketLowerNs(LatencyHistogram::BucketIndex(1000)),
            896u);
  EXPECT_EQ(LatencyHistogram::BucketUpperNs(LatencyHistogram::BucketIndex(1000)),
            1024u);
}

TEST(HistogramTest, RelativeBucketWidthIsAtMostAQuarter) {
  for (int index = 4; index < LatencyHistogram::kBucketCount; ++index) {
    const std::uint64_t lower = LatencyHistogram::BucketLowerNs(index);
    const std::uint64_t upper = LatencyHistogram::BucketUpperNs(index);
    if (lower == ~0ull || upper == ~0ull) break;
    EXPECT_LE(upper - lower, lower / 4)
        << "bucket " << index << " [" << lower << ", " << upper << ")";
  }
}

TEST(HistogramTest, ExtremesLandInTheEndBuckets) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0);
  const int top = LatencyHistogram::BucketIndex(~0ull);
  EXPECT_LT(top, LatencyHistogram::kBucketCount);
  EXPECT_EQ(LatencyHistogram::BucketUpperNs(top), ~0ull);
  LatencyHistogram histogram;
  histogram.Record(~0ull);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_EQ(snapshot.counts[static_cast<std::size_t>(top)], 1u);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(42);
  auto random_snapshot = [&] {
    LatencyHistogram histogram;
    for (int i = 0; i < 200; ++i) {
      histogram.Record(rng() % 1'000'000);
    }
    return histogram.Snapshot();
  };
  const HistogramSnapshot a = random_snapshot();
  const HistogramSnapshot b = random_snapshot();
  const HistogramSnapshot c = random_snapshot();

  HistogramSnapshot ab = a;
  ab.Merge(b);
  HistogramSnapshot ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.counts, ba.counts);  // Commutative.
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_EQ(ab.sum_ns, ba.sum_ns);

  HistogramSnapshot ab_c = ab;
  ab_c.Merge(c);
  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  EXPECT_EQ(ab_c.counts, a_bc.counts);  // Associative.
  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum_ns, a_bc.sum_ns);
}

TEST(HistogramTest, QuantileWithinOneBucketWidth) {
  LatencyHistogram histogram;
  std::vector<std::uint64_t> values;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t ns = rng() % 10'000'000;
    values.push_back(ns);
    histogram.Record(ns);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snapshot = histogram.Snapshot();
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (rank == 0) rank = 1;
    const std::uint64_t exact = values[rank - 1];
    const std::uint64_t estimate = snapshot.QuantileNs(q);
    // The estimate is the inclusive upper bound of the exact value's
    // bucket: never below the true value, within one bucket width above.
    const int bucket = LatencyHistogram::BucketIndex(exact);
    EXPECT_GE(estimate, exact) << "q=" << q;
    EXPECT_LE(estimate, LatencyHistogram::BucketUpperNs(bucket) - 1)
        << "q=" << q;
  }
}

TEST(HistogramTest, QuantilesOfPointMassAreExactForSmallValues) {
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(3);  // Exact bucket 3.
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.QuantileNs(0.5), 3u);
  EXPECT_EQ(snapshot.QuantileNs(0.99), 3u);
  EXPECT_DOUBLE_EQ(snapshot.MeanNs(), 3.0);
}

TEST(HistogramTest, EmptySnapshotQuantilesAreZero) {
  const HistogramSnapshot snapshot = LatencyHistogram().Snapshot();
  EXPECT_EQ(snapshot.QuantileNs(0.5), 0u);
  EXPECT_DOUBLE_EQ(snapshot.MeanNs(), 0.0);
}

TEST(HistogramTest, RecordPathDoesNotAllocate) {
  LatencyHistogram histogram;
  histogram.Record(1);  // Warm anything lazy before measuring.
  const std::uint64_t before = g_allocations.load();
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    histogram.Record(i * 37);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(HistogramTest, ConcurrentRecordsAreAllCounted) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<std::uint64_t>(t) * 1000 + 5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t total = 0;
  for (std::uint64_t bucket : snapshot.counts) total += bucket;
  EXPECT_EQ(total, snapshot.count);
}

}  // namespace
}  // namespace campion::obs
