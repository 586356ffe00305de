// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into the library's public functions (generate_udg, ConflictIndex,
// run_dist_mis, ...). Each span has a name, a start, an end and a parent.
// Nothing is written while the run measures: the spans stay in memory and
// are written out once, when the run ends, under the run's trace id, which
// all spans of the run share.
//
// A Scope always reads the clock, because the untraced run needs the same
// durations for its end-to-end metrics; only a Tracer that is enabled also
// keeps the span. The traced iterations' extra cost is therefore the span
// bookkeeping plus the AllocAudit they attach, which is what the reported
// tracing overhead measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace tdmabench {

using Clock = std::chrono::steady_clock;

/// One recorded span. Times are nanoseconds since the tracer's origin;
/// `parent` is 0 for a root span (span ids start at 1).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";  ///< static string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Span store of one run. Not thread-safe: spans are opened and closed on
/// the single caller thread of the closed loop.
class Tracer {
 public:
  /// A tracer that records nothing until set_enabled(true).
  Tracer();

  /// Turns recording on or off between iterations (no span may be open).
  void set_enabled(bool enabled);
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Opens a child of the innermost open span; returns its id, or 0 when
  /// the tracer is disabled.
  std::uint32_t open(const char* name, Clock::time_point start);
  /// Closes span `id`, which must be the innermost open span.
  void close(std::uint32_t id, Clock::time_point end);

 private:
  std::int64_t since_origin(Clock::time_point t) const;

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
};

/// Times one call and, when the tracer is enabled, records it as a span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name);
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  std::uint32_t id_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// Self time of one span name: its spans' durations minus the part of them
/// that their child spans cover.
struct SelfTime {
  double self_ns = 0.0;
  double total_ns = 0.0;
  std::size_t spans = 0;
};

/// Self time per span name over the given spans. Spans whose parent is not
/// in the list count as roots.
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

/// Writes `spans` as one JSON object {"trace_id", "context", "spans": [...]}.
/// `context_json` must already be a JSON object.
void write_spans_json(std::ostream& out, std::uint64_t trace_id,
                      const std::string& context_json,
                      const std::vector<Span>& spans);

}  // namespace tdmabench
