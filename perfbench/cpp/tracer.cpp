#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace flarebench {
namespace {

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_request = 0;

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next.fetch_add(1) + 1;
  return tag;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, long long> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans_) {
    const auto it = child_ns.find(s.id);
    const long long children = it == child_ns.end() ? 0 : it->second;
    self[s.layer] += ms_between(0, s.end_ns - s.start_ns - children);
  }
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& metadata_json) const {
  std::vector<SpanRecord> spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  const long long origin = spans.empty() ? 0 : spans.front().start_ns;
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"metadata\": " << metadata_json
      << ", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_string(s.name)
        << ", \"cat\": " << json_string(s.layer) << ", \"ph\": \"X\""
        << ", \"ts\": " << json_number(static_cast<double>(s.start_ns - origin) / 1e3)
        << ", \"dur\": " << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"pid\": 1, \"tid\": " << s.tid << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* layer, const char* name, std::uint64_t request) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  rec_.layer = layer;
  rec_.name = name;
  rec_.id = tracer.next_id();
  rec_.parent = t_current_span;
  rec_.request = request != 0 ? request : t_current_request;
  rec_.tid = thread_tag();
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = rec_.id;
  t_current_request = rec_.request;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = now_ns();
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  Tracer::instance().record(rec_);
}

}  // namespace flarebench
