#pragma once

// Exporters for the observability layer (common/obs.hpp): Chrome/Perfetto
// `trace_event` JSON for spans, and one metrics snapshot (Prometheus text
// plus a JSON-lines series) written at exit or by a background periodic
// flusher for long-running jobs. Opening a trace: chrome://tracing or
// https://ui.perfetto.dev, "Open trace file", pick the emitted .json.
//
// When spans carry perf_event counter deltas (SDMPEB_PERF, see
// common/perfmon.hpp), the Chrome export annotates each complete event's
// args with the raw counters plus derived attribution: ipc
// (instructions/cycles), misses per kilo-instruction (l1d_mpki, llc_mpki,
// branch_mpki), and — for spans whose arg is a "flops" count, e.g. gemm —
// achieved gflops over the span. Derived fields are emitted only when their
// denominators are non-zero, so the JSON never contains NaN/Inf
// (scripts/check_trace.py rejects them).

#include <cstdint>
#include <iosfwd>
#include <string>

namespace sdmpeb::obs {

/// Write every recorded span as Chrome trace-event JSON ("X" complete
/// events, microsecond timestamps, one tid per recording thread, thread
/// names as "M" metadata events). Valid JSON even with zero spans.
void write_chrome_trace(std::ostream& os);

/// write_chrome_trace to a file; returns false when the file cannot be
/// opened (never throws — exporters run on teardown paths).
bool write_chrome_trace_file(const std::string& path);

/// The one way the metrics registry leaves the process: refresh the derived
/// / pull-model metrics (arena live bytes, high-water mark and heap-block
/// count, achieved GEMM GFLOP/s, trace-span drop count, and — when
/// counter-annotated spans exist — per-span-name perf.<name>.cycles /
/// .instructions / .ipc aggregates), then
///   - rewrite <dir>/metrics.prom atomically in Prometheus text exposition
///     format (names sanitised under a sdmpeb_ prefix, histograms as
///     cumulative _bucket{le}/_sum/_count), headed by `# git_sha=`,
///     `# build_type=` and `# build_flags=` comment lines so archived dumps
///     stay attributable;
///   - append one row {"t_s":<since process start>,"seq":N,"metrics":{...}}
///     to <dir>/metrics.jsonl, where N counts this process's snapshots. The
///     growing file is a time series: successive rows give counter rates
///     and the arena occupancy / high-water timeline of a long run.
/// Creates dir if needed. Returns false on I/O failure (never throws —
/// exporters run on teardown paths).
bool write_metrics_snapshot(const std::string& dir);

// ---------------------------------------------------------------------------
// Periodic flush: a background thread calls write_metrics_snapshot(dir)
// every interval_s. The thread only READS metrics — it cannot perturb
// numerics (pinned by the obs byte-identity guard test with flushing
// enabled).
// ---------------------------------------------------------------------------

struct PeriodicFlushOptions {
  std::string dir = "bench_out";
  double interval_s = 5.0;
};

/// Start the flusher. False if already running.
bool start_periodic_flush(const PeriodicFlushOptions& options);

/// Stop and join the flusher, then take one final snapshot so the files
/// capture the end-of-run state. Safe (and a no-op) when not running.
void stop_periodic_flush();

bool periodic_flush_running();

/// Snapshots flushed since the last start. Test observability.
std::uint64_t periodic_flush_count();

}  // namespace sdmpeb::obs
