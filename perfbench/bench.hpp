#pragma once

// Shared definitions of the end-to-end benchmark: run options, the result
// every workload fills, the workload constants, and small statistics and
// process-resource helpers.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "eval/dataset.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;     ///< clip-generator seed
  double seconds = 10.0;      ///< measured duration of the run
  bool trace = false;         ///< traced run: per-layer metrics + trace file
  std::string out_dir = ".";  ///< trace and checkpoint files go here
  /// Self-test: perturb every set-up reference so each output check fails.
  bool wrong_reference = false;
};

/// What a workload reports. Metric names follow the tables in main.cpp;
/// per-layer metrics a workload does not exercise are left unset and read 0.
struct Result {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  ///< printed in the human summary

  void note(const std::string& line) { notes.push_back(line); }
  /// Record an output or invariant check that did not hold.
  void violation(const std::string& what);
};

// --- workload constants ----------------------------------------------------
// The surrogate is a fixed-seed, untrained default-scale checkpoint: the
// benchmark measures speed and agreement with a reference forward, not
// surrogate accuracy.
inline constexpr std::uint64_t kModelSeed = 7;
/// Distinct seeded clips each workload cycles through (a reference output
/// is computed for each at set-up).
inline constexpr int kSurrogateClips = 3;
inline constexpr int kRigorousClips = 2;
inline constexpr int kServeClips = 8;
inline constexpr int kTrainClips = 2;
/// Training runs on 16x32x32 clips: at 16x64x64 one step took 1.3-1.8 s, and
/// the ~10 steps a run afforded left its median moving by ~30% between
/// runs on the benchmark's host.
inline constexpr std::int64_t kTrainLateral = 32;
/// Training runs in episodes of this many Adam steps from the initial
/// weights, so every step's loss has a bitwise set-up reference.
inline constexpr int kTrainEpisodeSteps = 2;
/// Program set-up is repeated (at least this often, and for at least this
/// long) and its median reported as setup_s. Spreading the repetitions over
/// seconds keeps one slow stretch of the shared host from setting the value.
inline constexpr int kSetupMinRepeats = 3;
inline constexpr double kSetupMinSeconds = 3.0;
/// Worker-pool width of every measured phase. The benchmark's host is a
/// shared VM whose vCPUs are preempted by other tenants: multi-threaded
/// medians moved by 20% from run to run while single-threaded ones moved by
/// ~5%, so measured work runs on one pool thread and the reference outputs
/// of set-up (not timed) use every core the process may run on. Thread
/// count does not change results (bitwise, DESIGN.md section 7), which the
/// output checks confirm on every run. The host also runs each vCPU at one
/// of two speeds for seconds at a time (AVX2 FMA throughput ~1.6x apart,
/// varying per vCPU and over time), and a lone thread can stay on a slow
/// vCPU for a whole run; so the closed loops move their thread to the next
/// vCPU before each operation (rotate_cpu) and every run samples all of
/// them.
inline constexpr int kMeasuredPoolWidth = 1;
/// Agreement of the multi-threaded default-backend forward with the
/// scalar single-thread reference: |y - ref| <= tol * max(1, |ref|). The
/// per-kernel cross-backend tolerance is 1e-4 (tests/simd_test.cpp); a
/// full forward chains ~60 such kernels.
inline constexpr double kSurrogateTolerance = 1e-3;

/// Quantile of per-operation latency reported as latency_ms_p10. Every
/// operation of a closed loop repeats the same work, and open-loop serving
/// repeats one fixed arrival schedule, so the spread above a run's fastest
/// operations is mostly interference from other tenants of the shared host;
/// a run's median moves with the share of the run they slowed, its 10th
/// percentile less (README.md, Metrics).
inline constexpr double kLatencyQuantile = 0.10;

// Open-loop serving at absolute rates (~40% and ~75% of the parent
// commit's capacity at 16x32x32 with one pool thread), so a faster program
// shows as lower latency at the same offered load. Only the low rate is an
// end-to-end measurement: at 75% load, queueing amplified the host's ~10%
// run-to-run drift in forward time into 2-3x swings of median latency, so
// the high rate is reported by the traced run only.
inline constexpr double kServeLowRate = 4.0;   ///< requests/s
inline constexpr double kServeHighRate = 7.5;  ///< requests/s
/// A kOk response counts toward goodput only within this latency.
inline constexpr double kServeLatencyLimitMs = 1000.0;
/// Requests carry this deadline; the runtime expires them past it.
inline constexpr double kServeDeadlineMs = 2000.0;
/// A phase whose generator ran later than this is invalid.
inline constexpr double kServeLateBoundMs = 50.0;
/// The arrival schedule (Poisson, one generator thread) is part of the
/// workload definition and does not depend on the clip seed, so queueing
/// is the same from run to run and only clip content varies with --seed.
inline constexpr std::uint64_t kArrivalSeed = 20250611;

/// Per-stage layers of the encoder as the layer replay times them; the scan
/// rows break down the sdm rows.
inline constexpr const char* kStageParts[] = {
    "patch_embed", "norm", "attn", "ffn", "sdm", "refine", "scan"};

// --- helpers -----------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 1]); 0 for an empty series.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Record a workload's per-operation latencies (ms): sets the end-to-end
/// latency_ms_p10 row and notes the sample count and quantiles in the
/// summary.
void report_latency(const std::string& what, const std::vector<double>& ms,
                    Result& result);
/// CPU seconds consumed by the whole process so far.
double process_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();
/// Wall seconds of one call.
double time_s(const std::function<void()>& fn);
/// Median wall seconds of repeated calls (see kSetupMinRepeats).
double median_setup_s(const std::function<void()>& fn);
/// CPUs this process may run on (nproc).
int nproc();
/// Pin the calling thread to the next CPU this process may run on, round
/// robin; the closed loops call it before each measured operation (see
/// kMeasuredPoolWidth). Set-up is not rotated: a migration onto an idle
/// vCPU costs a wake-up that is small against a 240 ms operation but not
/// against a 15 ms set-up. Serving's batcher thread is not rotated either:
/// pinning it before each request left its latency spread unchanged.
void rotate_cpu();
/// Let the calling thread run on every CPU again.
void unpin_cpu();
/// Run fn with the worker pool widened to nproc(), then restore
/// kMeasuredPoolWidth. For untimed set-up work only.
void on_all_cores(const std::function<void()>& fn);
/// Values of a span-name map (id -> ms) as a vector.
std::vector<double> values_of(const std::map<std::uint64_t, double>& by_id);

/// The dataset builder's CPU-scale configuration (eval::DatasetConfig::
/// small()) with `lateral` x `lateral` pixel masks; depth stays 16.
sdmpeb::eval::DatasetConfig clip_config(std::int64_t lateral);
/// Write the fixed-seed, untrained default-scale SDM-PEB checkpoint the
/// surrogate workloads load (benchmark artifact preparation, not timed).
void write_checkpoint(const std::string& path);
/// The label transform the dataset builder uses (eval/dataset.cpp).
sdmpeb::core::LabelTransform label_transform(
    const sdmpeb::eval::DatasetConfig& config);

// --- workloads -----------------------------------------------------------------
void run_surrogate_flow(const Options& opt, Result& result);
void run_rigorous_flow(const Options& opt, Result& result);
void run_serve_open_loop(const Options& opt, Result& result);
void run_train_steps(const Options& opt, Result& result);

/// Traced-run layer replay: times the default-scale model's public layers
/// at the shapes a 16x64x64 forward sees, alternating with `predict` (one
/// real forward), and fills the core.* rows.
void replay_layers(const std::function<void()>& predict, Result& result);

}  // namespace perfbench
