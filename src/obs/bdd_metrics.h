#pragma once

// Exports one BddManager's kernel counters (bdd::BddStats) and memory
// accounting (bdd::BddMemoryStats) onto its task's span and into the
// calling thread's current metrics sink (the request's capture in the
// daemon, the process sink in the CLI). Each differencing task owns its
// manager and calls this once when it finishes. Counters accumulate over
// every manager of the run; watermarks keep the largest single manager
// (the arena never shrinks, so its size is the peak live node count).
// Everything derives from operation counts and container capacities, so
// — unlike the RSS samples — it is deterministic at any thread count.
// Header-only so obs does not link against the BDD library.

#include "bdd/bdd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::obs {

inline void RecordBddManager(ScopedSpan& span, const bdd::BddManager& mgr) {
  if (!Enabled()) return;
  const bdd::BddStats stats = mgr.Stats();
  const bdd::BddMemoryStats mem = mgr.MemoryStats();
  span.AddAttr("bdd_nodes", static_cast<double>(stats.arena_size));
  span.AddAttr("bdd_mem_bytes", static_cast<double>(mem.total_bytes));
  span.AddAttr("bdd_rehashes", static_cast<double>(mem.rehash_count));

  MetricsSink& registry = CurrentMetrics();
  registry.Add("bdd.managers", 1.0);
  registry.Add("bdd.arena_nodes", static_cast<double>(stats.arena_size));
  registry.Add("bdd.unique_lookups",
               static_cast<double>(stats.unique_lookups));
  registry.Add("bdd.unique_probes", static_cast<double>(stats.unique_probes));
  registry.Add("bdd.unique_hits", static_cast<double>(stats.unique_hits));
  registry.Add("bdd.cache_lookups", static_cast<double>(stats.cache_lookups));
  registry.Add("bdd.cache_hits", static_cast<double>(stats.cache_hits));
  registry.Add("bdd.mem_bytes", static_cast<double>(mem.total_bytes));
  registry.Add("bdd.rehashes", static_cast<double>(mem.rehash_count));
  registry.Max("bdd.peak_live_nodes", static_cast<double>(stats.arena_size));
  registry.Max("bdd.unique_table_peak_slots",
               static_cast<double>(stats.unique_capacity));
  registry.Max("bdd.cache_peak_slots",
               static_cast<double>(stats.cache_capacity));
  registry.Max("bdd.mem_peak_bytes", static_cast<double>(mem.total_bytes));
  registry.Max("bdd.mem_peak_node_arena_bytes",
               static_cast<double>(mem.node_arena_bytes));
  registry.Max("bdd.mem_peak_unique_table_bytes",
               static_cast<double>(mem.unique_table_bytes));
  registry.Max("bdd.mem_peak_ite_cache_bytes",
               static_cast<double>(mem.ite_cache_bytes));
  registry.Max("bdd.unique_load_factor", mem.unique_load_factor);
}

}  // namespace campion::obs
