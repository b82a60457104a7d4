#include "obs/trace.h"

#include <atomic>
#include <chrono>

namespace campion::obs {
namespace {

std::atomic<bool> g_enabled{false};

// Per-thread span state. `open` is the stack of spans currently being
// recorded (innermost last); `roots` holds spans that finished with no
// enclosing span. Both are plain vectors — spans nest strictly, so no
// other bookkeeping is needed, and nothing here is shared across threads.
struct ThreadTrace {
  std::vector<Span> open;
  std::vector<Span> roots;
};

ThreadTrace& Tls() {
  thread_local ThreadTrace trace;
  return trace;
}

// Where spans finishing at open-stack depth `depth` land: the children of
// the innermost open span, or the root list when none is open.
std::vector<Span>& SinkAt(ThreadTrace& trace, std::size_t depth) {
  return depth == 0 ? trace.roots : trace.open[depth - 1].children;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point anchor = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           anchor)
          .count());
}

ScopedSpan::ScopedSpan(const char* name, std::string detail) {
  if (!Enabled()) return;
  ThreadTrace& trace = Tls();
  depth_ = trace.open.size();
  Span span;
  span.name = name;
  span.detail = std::move(detail);
  span.start_ns = NowNs();
  trace.open.push_back(std::move(span));
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  ThreadTrace& trace = Tls();
  Span span = std::move(trace.open.back());
  trace.open.pop_back();
  span.duration_ns = NowNs() - span.start_ns;
  SinkAt(trace, trace.open.size()).push_back(std::move(span));
}

void ScopedSpan::AddAttr(const char* key, double value) {
  if (!active_) return;
  Tls().open[depth_].attrs.emplace_back(key, value);
}

TaskCapture::TaskCapture()
    : depth_(Tls().open.size()), mark_(SinkAt(Tls(), depth_).size()) {}

TaskCapture::~TaskCapture() {
  if (!finished_) SinkAt(Tls(), depth_).resize(mark_);
}

std::vector<Span> TaskCapture::Finish() {
  finished_ = true;
  std::vector<Span>& sink = SinkAt(Tls(), depth_);
  std::vector<Span> captured(std::make_move_iterator(sink.begin() + mark_),
                             std::make_move_iterator(sink.end()));
  sink.resize(mark_);
  return captured;
}

void AttachSpans(std::vector<Span> spans) {
  if (spans.empty()) return;
  ThreadTrace& trace = Tls();
  std::vector<Span>& sink = SinkAt(trace, trace.open.size());
  for (Span& span : spans) sink.push_back(std::move(span));
}

std::vector<Span> TakeThreadSpans() {
  std::vector<Span> roots = std::move(Tls().roots);
  Tls().roots.clear();
  return roots;
}

void ResetThreadTrace() {
  Tls().open.clear();
  Tls().roots.clear();
}

}  // namespace campion::obs
