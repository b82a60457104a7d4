#pragma once

// Per-request flight recorder for the campion_serve daemon: a bounded ring
// of the last N diff executions — wall time, phase breakdown, result-cache
// disposition and key digest, status — with the full span tree and
// metrics snapshot retained only for the K slowest entries still in the
// ring. The point is post-hoc debugging of a live daemon ("why was that
// request slow?") at strictly bounded memory: summaries are a few hundred
// bytes each, and at most K of them carry a trace. `GET /debug/requests`
// renders the ring newest-first; `GET /debug/requests/<id>` renders one
// entry with its trace when retained.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace campion::server {

struct FlightRecord {
  std::uint64_t id = 0;        // Assigned by the recorder, monotone from 1.
  std::string endpoint;        // "/diff" or "/sessions/<name>/diff".
  int status = 0;              // HTTP status of the response.
  std::uint64_t wall_ns = 0;   // Whole RunDiff wall time.
  // Fixed pipeline phases, zero when skipped (everything after parse on a
  // 422; all three on a result-cache hit). diff_ns covers ConfigDiff,
  // encoding included.
  std::uint64_t parse_ns = 0;
  std::uint64_t diff_ns = 0;
  std::uint64_t render_ns = 0;
  // Result cache: "hit", "miss", or "bypass" (obs envelope requested). On
  // a hit every phase is zero — the response was replayed, not recomputed.
  std::string result_cache;
  std::uint64_t result_key_hash = 0;  // FNV-1a of the result key; 0 = bypass.
  bool equivalent = false;
  std::size_t differences = 0;
  // Retained only while this record is among the K slowest in the ring.
  std::vector<obs::Span> spans;
  std::vector<std::pair<std::string, double>> metrics;
};

class FlightRecorder {
 public:
  struct Options {
    std::size_t entries = 64;    // Ring capacity N (>= 1 enforced).
    std::size_t span_slots = 8;  // Slowest-K records that keep their trace.
  };

  explicit FlightRecorder(Options options);

  // Assigns the record's id, appends it (evicting the oldest past N), and
  // re-enforces the slowest-K trace retention. Thread-safe.
  void Record(FlightRecord record);

  // {"requests":[...]} — newest first, summaries only (no span trees).
  std::string ListJson() const;

  // Full entry JSON including the retained trace (or "trace": null when the
  // spans were shed). False when no record with this id is in the ring.
  bool EntryJson(std::uint64_t id, std::string* out) const;

  std::size_t size() const;
  // Records currently holding a span tree (<= span_slots); tests pin the
  // memory bound with this.
  std::size_t TraceCount() const;

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::deque<FlightRecord> ring_;  // Front = oldest.
};

}  // namespace campion::server
