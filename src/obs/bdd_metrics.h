#pragma once

// Exports a BddManager's kernel counters (bdd::BddStats) into the calling
// thread's current metrics sink (obs::CurrentMetrics() — the request's
// capture in the daemon, the process sink in the one-shot CLI). Each
// differencing task owns its own manager; calling this once
// when the task finishes accumulates the kernel's work across every pair
// of the run, so `--trace_out` / `--stats` can report unique-table and
// ITE-cache behavior for the whole pipeline. Header-only so obs does not
// link against the BDD library.

#include "bdd/bdd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::obs {

inline void RecordBddStats(const bdd::BddStats& stats) {
  if (!Enabled()) return;
  MetricsSink& registry = CurrentMetrics();
  registry.Add("bdd.managers", 1.0);
  registry.Add("bdd.arena_nodes", static_cast<double>(stats.arena_size));
  registry.Add("bdd.unique_lookups",
               static_cast<double>(stats.unique_lookups));
  registry.Add("bdd.unique_probes", static_cast<double>(stats.unique_probes));
  registry.Add("bdd.unique_hits", static_cast<double>(stats.unique_hits));
  registry.Add("bdd.cache_lookups", static_cast<double>(stats.cache_lookups));
  registry.Add("bdd.cache_hits", static_cast<double>(stats.cache_hits));
  registry.Max("bdd.unique_table_peak_slots",
               static_cast<double>(stats.unique_capacity));
  registry.Max("bdd.cache_peak_slots",
               static_cast<double>(stats.cache_capacity));
  registry.Max("bdd.arena_peak_nodes", static_cast<double>(stats.arena_size));
  // Sifting tallies are zero (and the metrics therefore absent from the
  // report) unless a reorder ran in this manager — keeps reorder-off traces
  // byte-identical to pre-reorder builds.
  if (stats.sift_passes > 0) {
    registry.Add("bdd.sift_passes", static_cast<double>(stats.sift_passes));
    registry.Add("bdd.sift_swaps", static_cast<double>(stats.sift_swaps));
    registry.Add("bdd.sift_nodes_before",
                 static_cast<double>(stats.sift_nodes_before));
    registry.Add("bdd.sift_nodes_after",
                 static_cast<double>(stats.sift_nodes_after));
  }
}

// Exports a manager's memory accounting (bdd::BddMemoryStats). Counters
// (`bdd.mem_bytes`, `bdd.rehashes`) accumulate across managers so the run
// total reflects every arena the pipeline allocated; watermarks
// (`bdd.mem_peak_*`) keep the largest single manager. All fields derive
// from container capacities, so — unlike the RSS samples — they are
// deterministic for a deterministic workload at any thread count.
inline void RecordBddMemory(const bdd::BddMemoryStats& mem) {
  if (!Enabled()) return;
  MetricsSink& registry = CurrentMetrics();
  registry.Add("bdd.mem_bytes", static_cast<double>(mem.total_bytes));
  registry.Add("bdd.rehashes", static_cast<double>(mem.rehash_count));
  registry.Max("bdd.mem_peak_bytes", static_cast<double>(mem.total_bytes));
  registry.Max("bdd.mem_peak_node_arena_bytes",
               static_cast<double>(mem.node_arena_bytes));
  registry.Max("bdd.mem_peak_unique_table_bytes",
               static_cast<double>(mem.unique_table_bytes));
  registry.Max("bdd.mem_peak_ite_cache_bytes",
               static_cast<double>(mem.ite_cache_bytes));
  registry.Max("bdd.peak_live_nodes",
               static_cast<double>(mem.peak_live_nodes));
  registry.Max("bdd.unique_load_factor", mem.unique_load_factor);
}

}  // namespace campion::obs
