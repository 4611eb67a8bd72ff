#pragma once

// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the repository's public functions; the library's internal obs tracing is
// left off, so the traced run measures the same program as the untraced
// one plus this recorder's cost (reported as the tracing overhead).
// Spans are kept in memory and written once, as a Chrome trace-event JSON
// file, when the run ends.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::uint64_t now_ns();

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;     ///< clip, request or step the span belongs to
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t track = 0;  ///< thread (or request slot) the span is drawn on
  std::int64_t parent = -1; ///< index of the enclosing span on the same thread
};

class Tracer {
 public:
  /// Process-wide recorder; disabled (records nothing) until enable().
  static Tracer& instance();

  void enable(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Open a span on the calling thread; returns its index (or -1 when
  /// disabled). Spans opened later on the same thread nest inside it until
  /// close() is called.
  std::int64_t open(const char* name, std::uint64_t id);
  void close(std::int64_t index);
  /// Record a finished span whose interval was measured elsewhere (e.g. a
  /// request that crosses threads). Not linked to any parent.
  void record(const std::string& name, std::uint64_t id,
              std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t track, const std::string& track_name);

  /// Snapshot of every span recorded so far.
  std::vector<SpanRecord> spans() const;

  /// Write all spans as Chrome trace-event JSON ("X" events, plus "M"
  /// thread-name metadata). Throws on I/O failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::uint32_t track_of_this_thread();

  std::atomic<bool> enabled_{false};
  std::uint64_t origin_ns_ = 0;
  mutable std::mutex mu_;  // guards everything below
  std::vector<SpanRecord> spans_;
  std::map<std::uint32_t, std::string> track_names_;
};

/// RAII span around one call. Always measures its own wall time (so the
/// untraced run can use it as a stopwatch); records only when tracing is on.
class Span {
 public:
  Span(const char* name, std::uint64_t id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close early and return the elapsed milliseconds.
  double stop();

 private:
  std::uint64_t start_ns_;
  std::int64_t index_;
  double elapsed_ms_ = -1.0;
};

/// Per-span durations and self times (duration minus the time covered by
/// direct children), grouped by span name then by id, summed when a name
/// occurs several times under one id.
struct SpanTotals {
  std::map<std::string, std::map<std::uint64_t, double>> total_ms;
  std::map<std::string, std::map<std::uint64_t, double>> self_ms;
};
SpanTotals summarize(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
