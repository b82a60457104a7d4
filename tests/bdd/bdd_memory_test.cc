// Invariants of the BDD kernel's counters (BddStats) and memory accounting
// (BddMemoryStats): identities between lookups/hits/probes, bytes
// consistent with the reported capacities, monotone peaks, and load-factor
// bounds under the 50%-rehash policy.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bdd/bdd.h"

namespace campion::bdd {
namespace {

// Builds a moderately sized function so the tables do real work: the
// disjunction of conjunction chains over overlapping variable windows.
BddRef BuildWorkload(BddManager& mgr, Var num_vars) {
  BddRef result = mgr.False();
  for (Var start = 0; start + 8 <= num_vars; start += 4) {
    BddRef chain = mgr.True();
    for (Var v = start; v < start + 8; ++v) {
      chain = mgr.And(chain, (v % 3 == 0) ? mgr.VarFalse(v) : mgr.VarTrue(v));
    }
    result = mgr.Or(result, chain);
  }
  return result;
}

TEST(BddMemoryTest, FreshManagerReportsRestingFootprint) {
  BddManager mgr(16);
  BddMemoryStats mem = mgr.MemoryStats();
  // The shared terminal only: the arena holds one node (false is the
  // regular reference to it, true the complemented one), nothing has been
  // interned.
  EXPECT_EQ(mgr.ArenaSize(), 1u);
  EXPECT_EQ(mem.rehash_count, 0u);
  EXPECT_EQ(mem.unique_load_factor, 0.0);
  EXPECT_GT(mem.node_arena_bytes, 0u);
  EXPECT_GT(mem.unique_table_bytes, 0u);
  EXPECT_GT(mem.ite_cache_bytes, 0u);
  EXPECT_EQ(mem.total_bytes, mem.node_arena_bytes + mem.unique_table_bytes +
                                 mem.ite_cache_bytes + mem.scratch_bytes);
}

TEST(BddMemoryTest, BytesConsistentWithReportedCapacities) {
  BddManager mgr(64);
  BuildWorkload(mgr, 64);
  BddStats stats = mgr.Stats();
  BddMemoryStats mem = mgr.MemoryStats();
  // The unique table stores one 4-byte BddRef per slot; the byte figure
  // must cover exactly the reported capacity (capacity == size for a
  // vector assigned in one shot).
  EXPECT_EQ(mem.unique_table_bytes, stats.unique_capacity * sizeof(BddRef));
  // Cache bytes are a whole number of fixed-size entries.
  ASSERT_GT(stats.cache_capacity, 0u);
  EXPECT_EQ(mem.ite_cache_bytes % stats.cache_capacity, 0u);
  // The node arena reserves at least one Node (3 x 4 bytes) per node.
  EXPECT_GE(mem.node_arena_bytes, stats.arena_size * 12);
  EXPECT_EQ(mem.total_bytes, mem.node_arena_bytes + mem.unique_table_bytes +
                                 mem.ite_cache_bytes + mem.scratch_bytes);
}

TEST(BddMemoryTest, CounterIdentitiesHold) {
  BddManager mgr(64);
  BuildWorkload(mgr, 64);
  BddStats stats = mgr.Stats();
  // Every lookup either hit or missed; misses allocated a node, so the
  // arena accounts for them exactly (plus the shared terminal).
  EXPECT_GT(stats.unique_lookups, 0u);
  EXPECT_GE(stats.unique_lookups, stats.unique_hits);
  EXPECT_EQ(stats.arena_size - 1,
            static_cast<std::size_t>(stats.unique_lookups -
                                     stats.unique_hits));
  // Each lookup probes at least once.
  EXPECT_GE(stats.unique_probes, stats.unique_lookups);
  // Cache lookups are hits + misses by construction; hits never exceed
  // lookups.
  EXPECT_GE(stats.cache_lookups, stats.cache_hits);
}

TEST(BddMemoryTest, WarmCacheHitIsCountedAsHitNotMiss) {
  BddManager mgr(32);
  BddRef f = BuildWorkload(mgr, 32);
  BddRef g = mgr.VarTrue(1);
  BddRef first = mgr.Ite(f, g, mgr.False());
  BddStats before = mgr.Stats();
  // The identical top-level ITE resolves in the warm-hit fast path: one
  // more lookup, one more hit, no new misses, no new nodes.
  BddRef second = mgr.Ite(f, g, mgr.False());
  BddStats after = mgr.Stats();
  EXPECT_EQ(first, second);
  EXPECT_EQ(after.cache_lookups, before.cache_lookups + 1);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(after.arena_size, before.arena_size);
}

TEST(BddMemoryTest, PeakLiveNodesIsMonotoneAndTracksArena) {
  BddManager mgr(128);
  std::size_t last_peak = 0;
  for (Var v = 0; v + 8 <= 128; v += 8) {
    BddRef chain = mgr.True();
    for (Var w = v; w < v + 8; ++w) chain = mgr.And(chain, mgr.VarTrue(w));
    // No garbage collection: the arena size is the peak live node count.
    EXPECT_GE(mgr.ArenaSize(), last_peak);
    last_peak = mgr.ArenaSize();
    EXPECT_EQ(mgr.Stats().arena_size, mgr.ArenaSize());
  }
  EXPECT_GT(last_peak, 1u);
}

TEST(BddMemoryTest, RehashCountAndLoadFactorUnderGrowth) {
  BddManager mgr(8192);
  // Interning more nodes than the initial 8192-slot table can hold at 50%
  // load forces at least one rehash (each VarTrue interns one fresh node).
  for (Var v = 0; v < 8192; ++v) mgr.VarTrue(v);
  BddStats stats = mgr.Stats();
  BddMemoryStats mem = mgr.MemoryStats();
  EXPECT_EQ(stats.arena_size, 8192u + 1u);
  EXPECT_GE(mem.rehash_count, 1u);
  // The 50%-load rehash policy keeps the table at most half full.
  EXPECT_GT(mem.unique_load_factor, 0.0);
  EXPECT_LT(mem.unique_load_factor, 0.5);
  // Growth doubles: capacity stays a power of two and the byte figure
  // tracks it.
  EXPECT_EQ(stats.unique_capacity & (stats.unique_capacity - 1), 0u);
  EXPECT_EQ(mem.unique_table_bytes, stats.unique_capacity * sizeof(BddRef));
}

}  // namespace
}  // namespace campion::bdd
