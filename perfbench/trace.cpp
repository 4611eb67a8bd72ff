#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

thread_local std::vector<std::int64_t> tl_open;  // open span indices
thread_local std::uint32_t tl_track = 0;         // 0 = not yet assigned
std::uint32_t g_next_track = 1;                  // guarded by Tracer::mu_

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  if (on && origin_ns_ == 0) origin_ns_ = now_ns();
  enabled_ = on;
}

std::uint32_t Tracer::track_of_this_thread() {
  if (tl_track == 0) {
    tl_track = g_next_track++;
    track_names_[tl_track] = "thread " + std::to_string(tl_track);
  }
  return tl_track;
}

std::int64_t Tracer::open(const char* name, std::uint64_t id) {
  if (!enabled()) return -1;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = name;
  rec.id = id;
  rec.start_ns = t;
  rec.track = track_of_this_thread();
  rec.parent = tl_open.empty() ? -1 : tl_open.back();
  spans_.push_back(std::move(rec));
  const auto index = static_cast<std::int64_t>(spans_.size()) - 1;
  tl_open.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
  if (!tl_open.empty() && tl_open.back() == index) tl_open.pop_back();
}

void Tracer::record(const std::string& name, std::uint64_t id,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t track, const std::string& track_name) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = name;
  rec.id = id;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns < start_ns ? start_ns : end_ns;
  rec.track = track;
  track_names_[track] = track_name;
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[128];
  for (const auto& [track, name] : track_names_) {
    out << (first ? "" : ",\n")
        << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
        << track << ", \"args\": {\"name\": \"" << json_escape(name) << "\"}}";
    first = false;
  }
  for (const auto& s : spans_) {
    const std::uint64_t start = s.start_ns >= origin_ns_ ? s.start_ns - origin_ns_ : 0;
    std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(start) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (first ? "" : ",\n") << "{\"ph\": \"X\", \"name\": \""
        << json_escape(s.name) << "\", " << buf << ", \"pid\": 1, \"tid\": "
        << s.track << ", \"args\": {\"id\": " << s.id << "}}";
    first = false;
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

Span::Span(const char* name, std::uint64_t id)
    : start_ns_(now_ns()), index_(Tracer::instance().open(name, id)) {}

Span::~Span() { stop(); }

double Span::stop() {
  if (elapsed_ms_ < 0.0) {
    elapsed_ms_ = static_cast<double>(now_ns() - start_ns_) / 1e6;
    Tracer::instance().close(index_);
  }
  return elapsed_ms_;
}

SpanTotals summarize(const std::vector<SpanRecord>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  SpanTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    totals.total_ms[s.name][s.id] += ms;
    totals.self_ms[s.name][s.id] += ms - child_ms[i];
  }
  return totals;
}

}  // namespace perfbench
