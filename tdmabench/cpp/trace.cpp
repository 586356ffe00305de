#include "trace.h"

#include <stdexcept>
#include <unordered_map>

namespace tdmabench {

Tracer::Tracer() : origin_(Clock::now()) {
  // Reserve up front so recording never reallocates in the middle of a
  // measured call; a soak stream records one span per event.
  spans_.reserve(1 << 16);
}

void Tracer::set_enabled(bool enabled) {
  if (!open_.empty()) throw std::logic_error("tracer toggled inside a span");
  enabled_ = enabled;
}

std::int64_t Tracer::since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::uint32_t Tracer::open(const char* name, Clock::time_point start) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.start_ns = since_origin(start);
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::close(std::uint32_t id, Clock::time_point end) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span closed out of order");
  open_.pop_back();
  spans_[id - 1].end_ns = since_origin(end);
}

Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), start_(Clock::now()), id_(tracer.open(name, start_)) {}

double Scope::stop() {
  if (stopped_) return seconds_;
  const Clock::time_point end = Clock::now();
  tracer_.close(id_, end);
  stopped_ = true;
  seconds_ = std::chrono::duration<double>(end - start_).count();
  return seconds_;
}

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, double> child_ns;
  std::unordered_map<std::uint32_t, bool> present;
  for (const Span& span : spans) present[span.id] = true;
  for (const Span& span : spans)
    if (span.parent != 0 && present.count(span.parent) != 0)
      child_ns[span.parent] +=
          static_cast<double>(span.end_ns - span.start_ns);
  std::map<std::string, SelfTime> out;
  for (const Span& span : spans) {
    const auto total = static_cast<double>(span.end_ns - span.start_ns);
    SelfTime& entry = out[span.name];
    entry.total_ns += total;
    entry.self_ns += total - child_ns[span.id];
    ++entry.spans;
  }
  return out;
}

void write_spans_json(std::ostream& out, std::uint64_t trace_id,
                      const std::string& context_json,
                      const std::vector<Span>& spans) {
  out << "{\"trace_id\": \"" << std::hex << trace_id << std::dec
      << "\", \"context\": " << context_json << ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << '}';
  }
  out << "\n]}\n";
}

}  // namespace tdmabench
