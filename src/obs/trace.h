#pragma once

// Tracing for the differencing pipeline: scoped phase spans with
// monotonic-clock timings, buffered per thread and assembled into one
// deterministic tree.
//
// Design constraints (see docs/trace_format.md and DESIGN.md):
//   * Zero overhead when disabled. Tracing is off by default; every entry
//     point checks one relaxed atomic load and touches nothing else, so
//     instrumented library code is safe to leave in hot paths.
//   * Per-thread buffering. Spans are recorded into thread-local storage
//     with no locking. RunParallel tasks capture their subtrees with
//     TaskCapture, whichever thread runs them, and the caller re-attaches
//     them in task-declaration order (AttachSpans), so the assembled tree
//     has the same structure at every `--threads` value — only the timing
//     values differ.
//   * Spans nest strictly (RAII), so the open-span state per thread is a
//     simple stack.
//
// Typical instrumentation:
//
//   void Parse(...) {
//     obs::ScopedSpan span("parse", filename);
//     ...
//     span.AddAttr("lines", line_count);
//   }
//
// and, around pooled per-pair work (the merge pattern ConfigDiff uses):
//
//   RunParallel(threads, n, [&](size_t i) {
//     obs::TaskCapture capture;
//     task_spans[i] = ...;       // work records spans as usual
//     captured[i] = capture.Finish();
//   });
//   for (i in declaration order) obs::AttachSpans(std::move(captured[i]));

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace campion::obs {

// One recorded phase: a stable name (see docs/trace_format.md for the
// vocabulary), an optional free-form detail label, monotonic timing, flat
// numeric attributes, and nested child spans.
struct Span {
  std::string name;
  std::string detail;
  std::uint64_t start_ns = 0;     // Monotonic, relative to process start.
  std::uint64_t duration_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
  std::vector<Span> children;
};

// Process-wide tracing switch (off by default). Reading is one relaxed
// atomic load; enabling mid-span is safe (a span only records if tracing
// was enabled when it opened).
bool Enabled();
void SetEnabled(bool enabled);

// Nanoseconds on the monotonic clock, relative to a process-start anchor.
std::uint64_t NowNs();

// RAII span. When tracing is enabled at construction, opens a span on the
// calling thread; the destructor closes it and attaches it to the
// enclosing open span, or to the thread's finished-root list if none is
// open. `name` must outlive the scope (string literals in practice).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::string detail = "");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Records a numeric attribute on this span. No-op when inactive.
  void AddAttr(const char* key, double value);

 private:
  bool active_ = false;
  std::size_t depth_ = 0;  // Index of this span in the thread's open stack.
};

// Captures the spans a pool task records, so the caller can move them
// back into the main tree in a deterministic order. Construct at task
// start: the capture is relative to the calling thread's innermost open
// span (or its root list when none is open), so a task run inline on the
// submitting thread and one run on a pool worker capture the same
// subtree. Finish() returns every span finished under that span since
// construction and removes them from it. A capture destroyed without
// Finish() (the task threw) drops them instead, so a long-lived worker
// keeps no span of a failed task.
class TaskCapture {
 public:
  TaskCapture();
  ~TaskCapture();
  std::vector<Span> Finish();

  TaskCapture(const TaskCapture&) = delete;
  TaskCapture& operator=(const TaskCapture&) = delete;

 private:
  std::size_t depth_ = 0;  // Open spans at construction.
  std::size_t mark_ = 0;   // Size of the innermost one's children then.
  bool finished_ = false;
};

// Appends already-finished spans under the calling thread's innermost open
// span (or to its root list). Used to merge TaskCapture results back in
// task-declaration order.
void AttachSpans(std::vector<Span> spans);

// Returns and clears the finished top-level spans of the calling thread.
// The CLI calls this once at exit to serialize the trace.
std::vector<Span> TakeThreadSpans();

// Clears the calling thread's span buffers (open stack included). Tests
// and long-lived embedders call this between traced runs.
void ResetThreadTrace();

}  // namespace campion::obs
