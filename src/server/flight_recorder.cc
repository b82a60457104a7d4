#include "server/flight_recorder.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "obs/trace_report.h"
#include "util/json.h"

namespace campion::server {

namespace {

std::string KeyHashHex(std::uint64_t hash) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << hash;
  return out.str();
}

// The summary object shared by the list and detail views.
void AppendSummary(std::ostringstream& out, const FlightRecord& record) {
  out << "{\"id\":" << record.id << ",\"endpoint\":\""
      << util::JsonEscape(record.endpoint) << "\",\"status\":" << record.status
      << ",\"wall_ns\":" << record.wall_ns
      << ",\"phases\":{\"parse_ns\":" << record.parse_ns
      << ",\"diff_ns\":" << record.diff_ns
      << ",\"render_ns\":" << record.render_ns << '}'
      << ",\"result_cache\":\"" << util::JsonEscape(record.result_cache)
      << '"';
  if (record.result_key_hash != 0) {
    out << ",\"result_key\":\"" << KeyHashHex(record.result_key_hash) << '"';
  } else {
    out << ",\"result_key\":null";
  }
  out << ",\"equivalent\":" << (record.equivalent ? "true" : "false")
      << ",\"differences\":" << record.differences << ",\"trace_retained\":"
      << (record.spans.empty() ? "false" : "true");
}

}  // namespace

FlightRecorder::FlightRecorder(Options options) : options_(options) {
  if (options_.entries == 0) options_.entries = 1;
}

void FlightRecorder::Record(FlightRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = next_id_++;
  if (record.spans.size() > 0 && options_.span_slots == 0) {
    std::vector<obs::Span>().swap(record.spans);
    std::vector<std::pair<std::string, double>>().swap(record.metrics);
  }
  ring_.push_back(std::move(record));
  while (ring_.size() > options_.entries) ring_.pop_front();
  // Slowest-K retention: shed the trace of the FASTEST trace-holding record
  // until at most span_slots remain. O(ring) per insert, which is nothing
  // next to the request the insert accounts for.
  std::size_t holding = 0;
  for (const FlightRecord& r : ring_) {
    if (!r.spans.empty()) ++holding;
  }
  while (holding > options_.span_slots) {
    FlightRecord* fastest = nullptr;
    for (FlightRecord& r : ring_) {
      if (r.spans.empty()) continue;
      if (fastest == nullptr || r.wall_ns < fastest->wall_ns) fastest = &r;
    }
    std::vector<obs::Span>().swap(fastest->spans);
    std::vector<std::pair<std::string, double>>().swap(fastest->metrics);
    --holding;
  }
}

std::string FlightRecorder::ListJson() const {
  std::ostringstream out;
  out << "{\"requests\":[";
  std::lock_guard<std::mutex> lock(mutex_);
  bool first = true;
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (!first) out << ',';
    first = false;
    AppendSummary(out, *it);
    out << '}';
  }
  out << "]}\n";
  return out.str();
}

bool FlightRecorder::EntryJson(std::uint64_t id, std::string* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const FlightRecord& record : ring_) {
    if (record.id != id) continue;
    std::ostringstream body;
    AppendSummary(body, record);
    body << ",\"trace\":";
    if (record.spans.empty() && record.metrics.empty()) {
      body << "null";
    } else {
      body << obs::TraceToJson(record.spans, record.metrics);
    }
    body << "}\n";
    *out = body.str();
    return true;
  }
  return false;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::size_t FlightRecorder::TraceCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t holding = 0;
  for (const FlightRecord& r : ring_) {
    if (!r.spans.empty()) ++holding;
  }
  return holding;
}

}  // namespace campion::server
