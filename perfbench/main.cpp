// End-to-end benchmark of the SDM-PEB repository. Usually driven by
// perfbench/run.py, which builds this binary and relays its result:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out DIR] [--wrong-reference]
//   perfbench --list
//
// Prints a human summary, then as its last line one JSON object with keys
// correct / attempted / failed / metrics. With --trace 0 the metrics are the
// end-to-end table below; with --trace 1 the per-layer table (from a traced
// run, plus a Chrome trace written to DIR/trace_<workload>.json).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/build_info.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

// Every workload reports every end-to-end metric. Latency is gated at its
// 10th percentile (kLatencyQuantile); the summary prints p10, p25, p50 and
// p90 for every workload. Throughput is not gated: for one closed-loop client
// it is the inverse of the mean latency, and for open-loop serving it is the
// offered rate unless requests fail, which failed/attempted counts.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_ms_p10", "ms"},
    {"peak_rss_mb", "MiB"},
};

// Rows of layers a workload does not call read 0 in its traced run.
std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> defs = {
      {"litho.aerial_ms", "ms"},
      {"litho.dill_ms", "ms"},
      {"core.predict_ms", "ms"},
      {"core.predict_cores_busy", "cores"},
      {"core.label_inverse_ms", "ms"},
      {"core.stem_ms", "ms"},
  };
  for (int s = 1; s <= 4; ++s) {
    const std::string stage = "core.stage" + std::to_string(s) + ".";
    for (const char* part : kStageParts)
      defs.push_back({stage + part + "_ms", "ms"});
    defs.push_back({stage + "scan_gflops", "GFLOP/s"});
  }
  const std::vector<MetricDef> flow = {
      {"core.fusion_ms", "ms"},
      {"core.decoder_ms", "ms"},
      {"core.head_ms", "ms"},
      {"core.replay_unattributed_ms", "ms"},
      {"peb.bake_ms", "ms"},
      {"peb.steps", "count"},
      {"peb.step_ms", "ms"},
      {"peb.cores_busy", "cores"},
      {"peb.divergence_retries", "count"},
      {"develop.rate_ms", "ms"},
      {"develop.eikonal_ms", "ms"},
      {"develop.cd_ms", "ms"},
      {"flow.unattributed_ms", "ms"},
  };
  defs.insert(defs.end(), flow.begin(), flow.end());
  const std::vector<MetricDef> serve_rows = {
      {"offered_per_s", "1/s"},     {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},     {"goodput_per_s", "1/s"},
      {"queue_wait_ms_p50", "ms"},  {"queue_wait_ms_p90", "ms"},
      {"service_ms_p50", "ms"},     {"batch_size_mean", "count"},
      {"queue_depth_peak", "count"}, {"rejected", "count"},
      {"expired", "count"},         {"shed", "count"},
      {"gen_late_ms_max", "ms"},    {"ok_share", "share"},
  };
  for (const char* phase : {"serve.low.", "serve.high."})
    for (const auto& row : serve_rows)
      defs.push_back({phase + row.name, row.unit});
  const std::vector<MetricDef> rest = {
      {"serve.protocol.encode_ms", "ms"},
      {"serve.protocol.decode_ms", "ms"},
      {"train.forward_ms", "ms"},
      {"train.loss_ms", "ms"},
      {"train.backward_ms", "ms"},
      {"train.optim_ms", "ms"},
      {"train.cores_busy", "cores"},
      {"train.backward_over_forward", "ratio"},
      {"train.nonfinite_skips", "count"},
      {"trace.overhead_ms", "ms"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

const char* const kWorkloads[] = {"surrogate_flow", "rigorous_flow",
                                  "serve_open_loop", "train_steps"};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out DIR] [--wrong-reference]\n"
               "       perfbench --list\n",
               why);
  return 2;
}

}  // namespace

// --- helpers declared in bench.hpp -------------------------------------------

void Result::violation(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (idx - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

void report_latency(const std::string& what, const std::vector<double>& ms,
                    Result& result) {
  result.metrics["latency_ms_p10"] = percentile(ms, kLatencyQuantile);
  char line[200];
  std::snprintf(line, sizeof(line),
                "latency: %zu %s; ms p10 %.1f p25 %.1f p50 %.1f p90 %.1f",
                ms.size(), what.c_str(), percentile(ms, 0.10),
                percentile(ms, 0.25), percentile(ms, 0.50),
                percentile(ms, 0.90));
  result.note(line);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double time_s(const std::function<void()>& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double median_setup_s(const std::function<void()>& fn) {
  std::vector<double> runs;
  double total = 0.0;
  while (runs.size() < static_cast<std::size_t>(kSetupMinRepeats) ||
         (total < kSetupMinSeconds && runs.size() < 200)) {
    runs.push_back(time_s(fn));
    total += runs.back();
  }
  return median(runs);
}

namespace {

/// CPUs the process may run on, as given at start-up (before any pinning).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  return cpus;
}

/// Pin the calling thread to `cpus`.
void set_affinity(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  // Best effort: where pinning is refused, operations run where the
  // scheduler puts them.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

int nproc() { return std::max<int>(1, static_cast<int>(allowed_cpus().size())); }

void rotate_cpu() {
  static std::size_t next = 0;
  const auto& cpus = allowed_cpus();
  if (!cpus.empty()) set_affinity({cpus[next++ % cpus.size()]});
}

void unpin_cpu() { set_affinity(allowed_cpus()); }

void on_all_cores(const std::function<void()>& fn) {
  unpin_cpu();  // pool workers inherit the affinity of the thread that starts them
  sdmpeb::parallel::set_thread_count(nproc());
  fn();
  sdmpeb::parallel::set_thread_count(kMeasuredPoolWidth);
}

std::vector<double> values_of(const std::map<std::uint64_t, double>& by_id) {
  std::vector<double> v;
  for (const auto& [id, ms] : by_id) v.push_back(ms);
  return v;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list") {
      for (const auto& m : kEndToEnd)
        std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
      for (const auto& m : per_layer_metrics())
        std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      for (const char* w : kWorkloads) std::printf("workload %s\n", w);
      return 0;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage("--seed must be a non-negative integer");
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0)
        return usage("--seconds must be in (0, 600]");
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else if (arg == "--wrong-reference") {
      opt.wrong_reference = true;
    } else {
      return usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  Result result;
  sdmpeb::parallel::set_thread_count(kMeasuredPoolWidth);
  try {
    std::filesystem::create_directories(opt.out_dir);
    const std::string& w = opt.workload;
    if (w == "surrogate_flow") {
      run_surrogate_flow(opt, result);
    } else if (w == "rigorous_flow") {
      run_rigorous_flow(opt, result);
    } else if (w == "serve_open_loop") {
      run_serve_open_loop(opt, result);
    } else if (w == "train_steps") {
      run_train_steps(opt, result);
    } else {
      return usage(("unknown workload '" + w + "'").c_str());
    }
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    if (opt.trace) {
      const std::string path = opt.out_dir + "/trace_" + w + ".json";
      Tracer::instance().write_chrome_trace(path);
      result.note("trace: " + path + " (" +
                  std::to_string(Tracer::instance().spans().size()) + " spans)");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("  git_sha=%s build_type=%s backend=%s pool_width=%d nproc=%d\n",
              sdmpeb::build::git_sha(), sdmpeb::build::build_type(),
              sdmpeb::simd::isa_name(sdmpeb::simd::active()),
              sdmpeb::parallel::thread_count(), nproc());
  std::printf("  machine=%s|hc=%u\n", sdmpeb::simd::cpu_feature_string(),
              std::thread::hardware_concurrency());
  for (const auto& n : result.notes) std::printf("  %s\n", n.c_str());

  const std::vector<MetricDef> defs =
      opt.trace ? per_layer_metrics() : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : defs) {
    double v = 0.0;
    const auto it = result.metrics.find(m.name);
    if (it != result.metrics.end()) v = it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    if (!opt.trace && it == result.metrics.end()) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   m.name.c_str());
      return 1;
    }
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), v, m.unit.c_str());
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number(v) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
