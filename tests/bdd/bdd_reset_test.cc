// BddManager::Reset(): a manager reused across tasks must behave exactly
// like a fresh one. Seeded operation sequences give equal references,
// arenas and work counters on a fresh manager and on one reset after a task
// that grew its unique table, and a warm manager repeats a task without
// allocating or rehashing.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "bdd/bdd.h"

namespace campion::bdd {
namespace {

constexpr Var kVars = 24;

// A seeded task: random cubes over kVars variables, folded into a growing
// pool of functions with random connectives. Its arena outgrows the first
// unique table (8,192 slots at 50% load) on every seed used here. Returns
// every reference it produced, in order.
std::vector<BddRef> RunTask(BddManager& mgr, std::uint64_t seed) {
  mgr.AddVars(kVars);
  std::mt19937_64 rng(seed);
  std::vector<BddRef> pool = {mgr.False()};
  for (int step = 0; step < 500; ++step) {
    BddRef cube = mgr.True();
    for (Var v = 0; v < kVars; ++v) {
      switch (rng() % 3) {
        case 0: cube = mgr.And(cube, mgr.VarTrue(v)); break;
        case 1: cube = mgr.And(cube, mgr.VarFalse(v)); break;
        default: break;
      }
    }
    const BddRef other = pool[rng() % pool.size()];
    const BddRef last = pool.back();
    switch (rng() % 4) {
      case 0: pool.push_back(mgr.Or(last, cube)); break;
      case 1: pool.push_back(mgr.Diff(mgr.Or(last, cube), other)); break;
      case 2: pool.push_back(mgr.Ite(cube, other, last)); break;
      default: pool.push_back(mgr.Or(mgr.And(last, other), cube)); break;
    }
  }
  return pool;
}

// Every interned node, as (var, low, high) of its regular reference.
std::vector<BddRef> ArenaOf(const BddManager& mgr) {
  std::vector<BddRef> arena;
  for (BddRef index = 1; index < mgr.ArenaSize(); ++index) {
    const BddRef ref = index << 1;
    arena.push_back(mgr.NodeVar(ref));
    arena.push_back(mgr.NodeLow(ref));
    arena.push_back(mgr.NodeHigh(ref));
  }
  return arena;
}

// The counters that measure a task's own work (table capacities and probe
// lengths also depend on the buffers a manager kept).
void ExpectSameWork(const BddStats& a, const BddStats& b) {
  EXPECT_EQ(a.arena_size, b.arena_size);
  EXPECT_EQ(a.unique_lookups, b.unique_lookups);
  EXPECT_EQ(a.unique_hits, b.unique_hits);
  EXPECT_EQ(a.cache_capacity, b.cache_capacity);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

class BddResetTest : public ::testing::TestWithParam<int> {};

TEST_P(BddResetTest, ResetManagerMatchesFreshManager) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  BddManager reused;
  RunTask(reused, seed + 100);
  ASSERT_GE(reused.MemoryStats().rehash_count, 1u);
  reused.Reset();
  ASSERT_TRUE(reused.CheckInvariants());

  BddManager fresh;
  const std::vector<BddRef> expected = RunTask(fresh, seed);
  EXPECT_EQ(RunTask(reused, seed), expected);
  EXPECT_EQ(ArenaOf(reused), ArenaOf(fresh));
  ExpectSameWork(reused.Stats(), fresh.Stats());
  EXPECT_TRUE(reused.CheckInvariants());
  EXPECT_TRUE(fresh.CheckInvariants());
}

TEST_P(BddResetTest, WarmManagerRepeatsATaskWithoutGrowing) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  BddManager mgr;
  const std::vector<BddRef> first = RunTask(mgr, seed);
  const BddStats first_stats = mgr.Stats();
  const BddMemoryStats first_mem = mgr.MemoryStats();
  ASSERT_GE(first_mem.rehash_count, 1u);

  mgr.Reset();
  EXPECT_EQ(RunTask(mgr, seed), first);
  const BddMemoryStats second_mem = mgr.MemoryStats();
  EXPECT_EQ(second_mem.rehash_count, 0u);
  EXPECT_EQ(second_mem.node_arena_bytes, first_mem.node_arena_bytes);
  EXPECT_EQ(second_mem.unique_table_bytes, first_mem.unique_table_bytes);
  EXPECT_EQ(second_mem.ite_cache_bytes, first_mem.ite_cache_bytes);
  ExpectSameWork(mgr.Stats(), first_stats);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddResetTest, ::testing::Range(1, 5));

TEST(BddResetStateTest, ResetLeavesAnEmptyManager) {
  BddManager mgr(8);
  const BddStats constructed = mgr.Stats();
  RunTask(mgr, 7);
  mgr.Reset();
  EXPECT_TRUE(mgr.CheckInvariants());
  EXPECT_EQ(mgr.num_vars(), 0u);
  EXPECT_EQ(mgr.ArenaSize(), 1u);
  const BddStats stats = mgr.Stats();
  EXPECT_EQ(stats.unique_lookups, 0u);
  EXPECT_EQ(stats.unique_probes, 0u);
  EXPECT_EQ(stats.unique_hits, 0u);
  EXPECT_EQ(stats.cache_lookups, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_capacity, constructed.cache_capacity);
  const BddMemoryStats mem = mgr.MemoryStats();
  EXPECT_EQ(mem.rehash_count, 0u);
  EXPECT_EQ(mem.unique_load_factor, 0.0);
  // Resetting an empty manager is a no-op, and the manager stays usable.
  mgr.Reset();
  EXPECT_TRUE(mgr.CheckInvariants());
  mgr.AddVars(2);
  const BddRef f = mgr.And(mgr.VarTrue(0), mgr.VarFalse(1));
  EXPECT_EQ(mgr.ArenaSize(), 4u);  // Terminal, two variables, one And.
  EXPECT_EQ(mgr.SatCount(f), 1.0);
  EXPECT_TRUE(mgr.CheckInvariants());
}

TEST(BddResetStateTest, IteCacheKeepsItsSize) {
  BddManager mgr;
  const std::size_t capacity = mgr.Stats().cache_capacity;
  RunTask(mgr, 3);
  ASSERT_GE(mgr.MemoryStats().rehash_count, 1u);
  EXPECT_EQ(mgr.Stats().cache_capacity, capacity);
}

}  // namespace
}  // namespace campion::bdd
