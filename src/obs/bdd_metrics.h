#pragma once

// Exports the kernel work of one pair task (bdd::BddStats) onto its span
// and into the calling thread's current metrics sink (the request's capture
// in the daemon, the process sink in the CLI). Each pair task runs on its
// thread's manager, Reset() for it, and calls this once when it finishes,
// so every figure is that task's own work. Counters accumulate over every
// task of the run; the watermark keeps the largest single task (the arena
// never shrinks within a task, so its size is the peak live node count).
// Table shapes and byte footprints are not exported: a reused manager keeps
// the buffers of the largest task its thread ran before, so they would
// depend on which pairs shared a thread. Everything exported derives from
// operation counts, so — unlike the RSS samples — it is deterministic at
// any thread count. Header-only so obs does not link against the BDD
// library.

#include "bdd/bdd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::obs {

inline void RecordBddManager(ScopedSpan& span, const bdd::BddManager& mgr) {
  if (!Enabled()) return;
  const bdd::BddStats stats = mgr.Stats();
  span.AddAttr("bdd_nodes", static_cast<double>(stats.arena_size));

  MetricsSink& registry = CurrentMetrics();
  registry.Add("bdd.managers", 1.0);
  registry.Add("bdd.arena_nodes", static_cast<double>(stats.arena_size));
  registry.Add("bdd.unique_lookups",
               static_cast<double>(stats.unique_lookups));
  registry.Add("bdd.unique_hits", static_cast<double>(stats.unique_hits));
  registry.Add("bdd.cache_lookups", static_cast<double>(stats.cache_lookups));
  registry.Add("bdd.cache_hits", static_cast<double>(stats.cache_hits));
  registry.Max("bdd.peak_live_nodes", static_cast<double>(stats.arena_size));
}

}  // namespace campion::obs
