// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// the fused selective scan (vs. a naive per-timestep autograd composition —
// the DESIGN.md §4 ablation), FFT, convolutions, attention, one rigorous
// PEB step, and the Eikonal solve. After the gbench run, main() sweeps the
// worker-pool width over {1, 2, max} for the three hottest kernels and
// writes speedup columns to bench_out/micro_thread_scaling.csv.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "common/gemm.hpp"
#include "report_json.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "common/trace_export.hpp"
#include "core/attention.hpp"
#include "core/sdm_unit.hpp"
#include "develop/eikonal.hpp"
#include "develop/fast_sweeping.hpp"
#include "fft/fft.hpp"
#include "nn/ops.hpp"
#include "peb/peb_solver.hpp"

namespace {

using namespace sdmpeb;
namespace nnops = nn::ops;

nn::Value random_value(Shape shape, std::uint64_t seed, bool grad = false) {
  Rng rng(seed);
  return nn::make_value(Tensor::uniform(std::move(shape), rng, -1.0f, 1.0f),
                        grad);
}

// --- selective scan: fused op ----------------------------------------------

void BM_SelectiveScanFused(benchmark::State& state) {
  const auto seq = state.range(0);
  const std::int64_t channels = 32, states = 8;
  auto x = random_value(Shape{seq, channels}, 1, true);
  auto delta = nnops::softplus(random_value(Shape{seq, channels}, 2));
  auto a_log = random_value(Shape{channels, states}, 3);
  auto b = random_value(Shape{seq, states}, 4);
  auto c = random_value(Shape{seq, states}, 5);
  auto d = random_value(Shape{channels}, 6);
  for (auto _ : state) {
    auto y = nnops::selective_scan(x, delta, a_log, b, c, d);
    benchmark::DoNotOptimize(y->value().raw());
  }
  state.SetItemsProcessed(state.iterations() * seq * channels * states);
}
BENCHMARK(BM_SelectiveScanFused)->Arg(256)->Arg(1024)->Arg(4096);

// --- selective scan: naive per-timestep composition -------------------------
// Same recurrence assembled from generic autograd ops: one graph node per
// timestep. Demonstrates why the fused kernel exists.

void BM_SelectiveScanComposed(benchmark::State& state) {
  const auto seq = state.range(0);
  const std::int64_t channels = 32, states = 8;
  Rng rng(7);
  const Tensor xt = Tensor::uniform(Shape{seq, channels}, rng);
  const Tensor dt = Tensor::uniform(Shape{seq, channels}, rng, 0.05f, 0.2f);
  const Tensor at = Tensor::uniform(Shape{channels, states}, rng, 0.5f, 1.5f);
  const Tensor bt = Tensor::uniform(Shape{seq, states}, rng);
  const Tensor ct = Tensor::uniform(Shape{seq, states}, rng);

  for (auto _ : state) {
    auto x = nn::constant(xt);
    // h as (channels, states) carried across steps through generic ops.
    nn::Value h = nn::constant(Tensor::zeros(Shape{channels, states}));
    std::vector<nn::Value> ys;
    ys.reserve(static_cast<std::size_t>(seq));
    for (std::int64_t t = 0; t < seq; ++t) {
      // a_bar = exp(-dt * A) — per-channel row broadcast via matmul tricks.
      Tensor dt_row(Shape{channels, 1});
      for (std::int64_t ch = 0; ch < channels; ++ch)
        dt_row.at(ch, 0) = dt.at(t, ch);
      auto a_bar = nnops::exp(nnops::mul_scalar(
          nnops::mul(nn::constant(dt_row.reshaped(Shape{channels, 1})),
                     nn::constant(Tensor::full(Shape{channels, 1}, 1.0f))),
          -1.0f));
      // (channels,1) x (1,states) outer products for the input injection.
      Tensor xrow(Shape{channels, 1});
      for (std::int64_t ch = 0; ch < channels; ++ch)
        xrow.at(ch, 0) = xt.at(t, ch) * dt.at(t, ch);
      Tensor brow(Shape{1, states});
      for (std::int64_t n = 0; n < states; ++n) brow.at(0, n) = bt.at(t, n);
      auto inject = nnops::matmul(nn::constant(xrow), nn::constant(brow));
      auto decay = nnops::matmul(a_bar,
                                 nn::constant(Tensor::full(Shape{1, states},
                                                           1.0f)));
      h = nnops::add(nnops::mul(h, decay), inject);
      Tensor crow(Shape{states, 1});
      for (std::int64_t n = 0; n < states; ++n) crow.at(n, 0) = ct.at(t, n);
      ys.push_back(nnops::matmul(h, nn::constant(crow)));
    }
    auto y = nnops::concat_cols(ys);
    benchmark::DoNotOptimize(y->value().raw());
  }
  state.SetItemsProcessed(state.iterations() * seq * channels * states);
}
BENCHMARK(BM_SelectiveScanComposed)->Arg(256)->Arg(1024);

// --- SDM unit end to end ------------------------------------------------------

void BM_SdmUnitForward(benchmark::State& state) {
  Rng rng(8);
  core::SdmUnitConfig config;
  config.channels = 16;
  config.hidden = 32;
  core::SdmUnit unit(config, rng);
  const std::int64_t depth = 16, height = state.range(0),
                     width = state.range(0);
  auto x = random_value(Shape{depth * height * width, 16}, 9);
  for (auto _ : state) {
    auto y = unit.forward(x, depth, height, width);
    benchmark::DoNotOptimize(y->value().raw());
  }
}
BENCHMARK(BM_SdmUnitForward)->Arg(8)->Arg(16);

// --- attention --------------------------------------------------------------

void BM_EfficientAttention(benchmark::State& state) {
  Rng rng(10);
  const auto reduction = state.range(0);
  core::EfficientSpatialSelfAttention attn(16, 1, reduction, rng);
  const std::int64_t depth = 16, height = 16, width = 16;
  auto x = random_value(Shape{depth * height * width, 16}, 11);
  for (auto _ : state) {
    auto y = attn.forward(x, depth, height, width);
    benchmark::DoNotOptimize(y->value().raw());
  }
}
BENCHMARK(BM_EfficientAttention)->Arg(1)->Arg(4)->Arg(16);

// --- FFT ---------------------------------------------------------------------

void BM_Fft3(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(12);
  std::vector<fft::Complex> grid(static_cast<std::size_t>(16 * n * n));
  for (auto& v : grid) v = fft::Complex(rng.normal(), 0.0);
  for (auto _ : state) {
    fft::fft3(grid, 16, n, n, false);
    fft::fft3(grid, 16, n, n, true);
    benchmark::DoNotOptimize(grid.data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * n * n);
}
BENCHMARK(BM_Fft3)->Arg(32)->Arg(64);

// --- conv kernels ---------------------------------------------------------------

void BM_Conv2dPerDepth(benchmark::State& state) {
  auto x = random_value(Shape{8, 16, 32, 32}, 13);
  auto w = random_value(Shape{8, 8, 3, 3}, 14);
  auto b = random_value(Shape{8}, 15);
  for (auto _ : state) {
    auto y = nnops::conv2d_per_depth(x, w, b, 1, 1);
    benchmark::DoNotOptimize(y->value().raw());
  }
}
BENCHMARK(BM_Conv2dPerDepth);

void BM_Conv3d(benchmark::State& state) {
  auto x = random_value(Shape{8, 16, 16, 16}, 16);
  auto w = random_value(Shape{8, 8, 3, 3, 3}, 17);
  auto b = random_value(Shape{8}, 18);
  for (auto _ : state) {
    auto y = nnops::conv3d(x, w, b, 1, 1);
    benchmark::DoNotOptimize(y->value().raw());
  }
}
BENCHMARK(BM_Conv3d);

// --- rigorous solver step ----------------------------------------------------------

void BM_PebSolverStep(benchmark::State& state) {
  peb::PebParams params;
  const peb::PebSolver solver(params);
  Rng rng(19);
  Grid3 acid0(16, state.range(0), state.range(0));
  for (auto& v : acid0.data()) v = rng.uniform(0.0, 0.9);
  auto peb_state = solver.initial_state(acid0);
  for (auto _ : state) {
    solver.step(peb_state);
    benchmark::DoNotOptimize(peb_state.acid.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_PebSolverStep)->Arg(32)->Arg(64);

void BM_PebSolverStepExplicit(benchmark::State& state) {
  peb::PebParams params;
  params.scheme = peb::DiffusionScheme::kExplicitSubstepped;
  const peb::PebSolver solver(params);
  Rng rng(19);
  Grid3 acid0(16, state.range(0), state.range(0));
  for (auto& v : acid0.data()) v = rng.uniform(0.0, 0.9);
  auto peb_state = solver.initial_state(acid0);
  for (auto _ : state) {
    solver.step(peb_state);
    benchmark::DoNotOptimize(peb_state.acid.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_PebSolverStepExplicit)->Arg(32)->Arg(64);

// --- Eikonal -----------------------------------------------------------------------

void BM_EikonalSolve(benchmark::State& state) {
  Rng rng(20);
  Grid3 rate(16, state.range(0), state.range(0));
  for (auto& v : rate.data()) v = rng.uniform(0.1, 40.0);
  develop::EikonalSpacing spacing{4.0, 4.0, 5.0};
  for (auto _ : state) {
    auto arrival = develop::solve_development_front(rate, spacing);
    benchmark::DoNotOptimize(arrival.data().data());
  }
}
BENCHMARK(BM_EikonalSolve)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_EikonalSolveFsm(benchmark::State& state) {
  Rng rng(20);
  Grid3 rate(16, state.range(0), state.range(0));
  for (auto& v : rate.data()) v = rng.uniform(0.1, 40.0);
  develop::EikonalSpacing spacing{4.0, 4.0, 5.0};
  for (auto _ : state) {
    auto arrival = develop::solve_development_front_fsm(rate, spacing);
    benchmark::DoNotOptimize(arrival.data().data());
  }
}
BENCHMARK(BM_EikonalSolveFsm)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// --- thread scaling sweep ----------------------------------------------------
// Times the three hottest parallelised paths (dense conv forward+backward,
// matmul, one rigorous PEB step) at pool widths {1, 2, hardware max} and
// reports speedup relative to the single-thread run. Each kernel also
// returns a result fingerprint so the sweep doubles as a determinism check:
// every width must reproduce the width-1 bytes exactly.

struct SweepKernel {
  std::string name;
  int repeats;
  std::function<std::vector<float>()> run;  ///< one timed repeat -> fingerprint
};

std::vector<SweepKernel> sweep_kernels() {
  std::vector<SweepKernel> kernels;

  kernels.push_back({"conv2d_fwd_bwd", 5, [] {
    auto x = random_value(Shape{8, 16, 32, 32}, 13, true);
    auto w = random_value(Shape{8, 8, 3, 3}, 14, true);
    auto b = random_value(Shape{8}, 15, true);
    auto loss = nnops::mean(nnops::square(nnops::conv2d_per_depth(x, w, b, 1, 1)));
    nn::backward(loss);
    std::vector<float> fp;
    fp.push_back(loss->value()[0]);
    const Tensor& gw = w->grad();
    for (std::int64_t i = 0; i < gw.numel(); ++i) fp.push_back(gw[i]);
    return fp;
  }});

  kernels.push_back({"matmul_512", 5, [] {
    auto a = random_value(Shape{512, 512}, 21);
    auto b = random_value(Shape{512, 512}, 22);
    auto y = nnops::matmul(a, b);
    std::vector<float> fp;
    const Tensor& v = y->value();
    for (std::int64_t i = 0; i < v.numel(); i += 1024) fp.push_back(v[i]);
    return fp;
  }});

  kernels.push_back({"peb_step_64", 3, [] {
    peb::PebParams params;
    const peb::PebSolver solver(params);
    Rng rng(19);
    Grid3 acid0(16, 64, 64);
    for (auto& v : acid0.data()) v = rng.uniform(0.0, 0.9);
    auto state = solver.initial_state(acid0);
    solver.step(state);
    std::vector<float> fp;
    for (std::int64_t i = 0; i < state.acid.numel(); i += 256)
      fp.push_back(static_cast<float>(
          state.acid.data()[static_cast<std::size_t>(i)]));
    return fp;
  }});

  return kernels;
}

void run_thread_scaling_sweep() {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> widths = {1, 2, hw};
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());

  std::printf("[bench] thread scaling sweep over widths {");
  for (std::size_t i = 0; i < widths.size(); ++i)
    std::printf("%s%d", i ? ", " : "", widths[i]);
  std::printf("} (hardware_concurrency = %d)\n", hw);

  // Backend + CPU feature columns keep scaling rows comparable across
  // machines and across SDMPEB_BACKEND matrix runs.
  const std::string backend = simd::isa_name(simd::active());
  const std::string features = simd::cpu_feature_string();
  CsvWriter csv({"kernel", "threads", "ms", "speedup", "bit_identical",
                 "backend", "cpu_features"});
  csv.add_build_metadata();
  // Alongside the CSV, the serial-width trials also feed a
  // sdmpeb-bench-report/1 JSON so micro runs diff with bench_compare.py
  // exactly like bench_report's.
  sdmpeb::bench::ReportWriter report;
  for (auto& kernel : sweep_kernels()) {
    double serial_ms = 0.0;
    std::vector<float> serial_fp;
    for (int threads : widths) {
      parallel::set_thread_count(threads);
      kernel.run();  // warm-up (also primes the pool)
      std::vector<double> trial_ms;
      Timer timer;
      std::vector<float> fp;
      for (int rep = 0; rep < kernel.repeats; ++rep) {
        Timer trial;
        fp = kernel.run();
        trial_ms.push_back(trial.milliseconds());
      }
      const double ms = timer.milliseconds() / kernel.repeats;
      if (threads == 1) {
        serial_ms = ms;
        serial_fp = fp;
        sdmpeb::bench::KernelReport stat;
        stat.name = kernel.name;
        stat.median_ms = sdmpeb::bench::series_median(trial_ms);
        stat.iqr_ms = sdmpeb::bench::series_iqr(trial_ms);
        stat.min_ms = *std::min_element(trial_ms.begin(), trial_ms.end());
        stat.trials = kernel.repeats;
        report.add(stat);
      }
      const bool identical =
          fp.size() == serial_fp.size() &&
          std::memcmp(fp.data(), serial_fp.data(),
                      fp.size() * sizeof(float)) == 0;
      if (!identical)
        std::printf("[bench] WARNING: %s not bit-identical at %d threads\n",
                    kernel.name.c_str(), threads);
      csv.add_row({kernel.name, std::to_string(threads),
                   std::to_string(ms),
                   std::to_string(serial_ms > 0.0 ? serial_ms / ms : 1.0),
                   identical ? "yes" : "no", backend, features});
      std::printf("[bench] %-16s threads=%-2d %8.2f ms  speedup %.2fx\n",
                  kernel.name.c_str(), threads, ms,
                  serial_ms > 0.0 ? serial_ms / ms : 1.0);
    }
  }
  sdmpeb::bench::ensure_output_dir();
  const std::string path = "bench_out/micro_thread_scaling.csv";
  csv.save(path);
  std::printf("[bench] wrote %s\n", path.c_str());
  report.save("bench_out/micro_report.json", 1);
  std::printf("[bench] wrote bench_out/micro_report.json\n");
}

// --- GEMM / conv roofline ----------------------------------------------------
// Single-thread GF/s across three rungs: the naive reference (GEMM rows
// only), the packed cache-blocked core pinned to the scalar microkernels,
// and the packed core under the dispatched SIMD backend (AVX2 where the CPU
// has it). Written to bench_out/gemm_scaling.csv with backend + CPU feature
// columns; the headline acceptance numbers are the packed/naive ratio and
// the simd/packed-scalar ratio at 256^3.

double time_ms_of(const std::function<void()>& fn, int repeats) {
  fn();  // warm-up (also sizes the workspace arenas)
  Timer timer;
  for (int rep = 0; rep < repeats; ++rep) fn();
  return timer.milliseconds() / repeats;
}

void run_gemm_roofline() {
  parallel::set_thread_count(1);
  const simd::Isa best = simd::active();
  const std::string backend = simd::isa_name(best);
  const std::string features = simd::cpu_feature_string();
  CsvWriter csv({"case", "m", "n", "k", "flops", "naive_ms", "packed_ms",
                 "simd_ms", "naive_gflops", "packed_gflops", "simd_gflops",
                 "speedup", "simd_speedup", "backend", "cpu_features"});
  csv.add_build_metadata();
  std::printf("[bench] GEMM/conv roofline (single thread, backend %s)\n",
              backend.c_str());

  const auto report = [&](const std::string& name, std::int64_t m,
                          std::int64_t n, std::int64_t k, double flops,
                          double naive_ms, double packed_ms, double simd_ms) {
    const double naive_gf = flops / (naive_ms * 1e6);
    const double packed_gf = flops / (packed_ms * 1e6);
    const double simd_gf = flops / (simd_ms * 1e6);
    csv.add_row({name, std::to_string(m), std::to_string(n),
                 std::to_string(k), std::to_string(flops),
                 std::to_string(naive_ms), std::to_string(packed_ms),
                 std::to_string(simd_ms), std::to_string(naive_gf),
                 std::to_string(packed_gf), std::to_string(simd_gf),
                 std::to_string(naive_ms / packed_ms),
                 std::to_string(packed_ms / simd_ms), backend, features});
    std::printf(
        "[bench] %-24s naive %7.2f ms (%5.2f GF/s)  scalar %7.2f ms "
        "(%5.2f GF/s)  %s %7.2f ms (%5.2f GF/s)  simd %.2fx\n",
        name.c_str(), naive_ms, naive_gf, packed_ms, packed_gf,
        backend.c_str(), simd_ms, simd_gf, packed_ms / simd_ms);
  };

  // Time `fn` once with the scalar kernels pinned and once under the
  // dispatched backend; the pair is the simd speedup for that case.
  const auto scalar_vs_simd = [&best](const std::function<void()>& fn,
                                      int repeats) {
    simd::set_active(simd::Isa::kScalar);
    const double scalar_ms = time_ms_of(fn, repeats);
    simd::set_active(best);
    const double simd_ms = time_ms_of(fn, repeats);
    return std::pair<double, double>{scalar_ms, simd_ms};
  };

  struct GemmShape {
    const char* name;
    std::int64_t m, n, k;
    int repeats;
  };
  // Squares walk the cache hierarchy; the skinny shape is a lowered
  // 3x3 conv layer (cout x hw x cin*kh*kw).
  const GemmShape shapes[] = {{"gemm_64", 64, 64, 64, 50},
                              {"gemm_128", 128, 128, 128, 20},
                              {"gemm_256", 256, 256, 256, 5},
                              {"gemm_384", 384, 384, 384, 3},
                              {"gemm_conv_lowered", 8, 1024, 72, 20}};
  for (const auto& s : shapes) {
    Rng rng(23);
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double flops = 2.0 * s.m * s.n * s.k;
    const double naive_ms = time_ms_of(
        [&] {
          gemm::gemm_naive(s.m, s.n, s.k, a.data(), s.k, false, b.data(),
                           s.n, false, c.data(), s.n, 0.0f);
          benchmark::DoNotOptimize(c.data());
        },
        s.repeats);
    const auto [packed_ms, simd_ms] = scalar_vs_simd(
        [&] {
          gemm::gemm_packed(s.m, s.n, s.k, a.data(), s.k, false, b.data(),
                            s.n, false, c.data(), s.n, 0.0f);
          benchmark::DoNotOptimize(c.data());
        },
        s.repeats);
    report(s.name, s.m, s.n, s.k, flops, naive_ms, packed_ms, simd_ms);
  }

  // Dense conv ops end to end through their one lowering, im2col+GEMM. Like
  // the depthwise and ADI rows below they have no naive rung: naive_ms
  // repeats the scalar time so the speedup column reads 1.0 and only
  // simd_speedup is meaningful.
  const auto conv_case = [&](const std::string& name, double flops,
                             int repeats, const std::function<void()>& fwd) {
    const auto [scalar_ms, simd_ms] = scalar_vs_simd(fwd, repeats);
    report(name, 0, 0, 0, flops, scalar_ms, scalar_ms, simd_ms);
  };
  {
    auto x = random_value(Shape{8, 16, 32, 32}, 13);
    auto w = random_value(Shape{8, 8, 3, 3}, 14);
    auto b = random_value(Shape{8}, 15);
    conv_case("conv2d_8x16x32x32", 2.0 * 8 * 16 * 32 * 32 * 8 * 9, 10, [&] {
      auto y = nnops::conv2d_per_depth(x, w, b, 1, 1);
      benchmark::DoNotOptimize(y->value().raw());
    });
  }
  {
    auto x = random_value(Shape{8, 16, 16, 16}, 16);
    auto w = random_value(Shape{8, 8, 3, 3, 3}, 17);
    auto b = random_value(Shape{8}, 18);
    conv_case("conv3d_8x16x16x16", 2.0 * 8 * 16 * 16 * 16 * 8 * 27, 10, [&] {
      auto y = nnops::conv3d(x, w, b, 1, 1);
      benchmark::DoNotOptimize(y->value().raw());
    });
  }
  {
    auto x = random_value(Shape{8, 16, 16, 16}, 24);
    auto w = random_value(Shape{8, 8, 2, 2}, 25);
    auto b = random_value(Shape{8}, 26);
    conv_case("convt2d_8x16x16x16",
              2.0 * 8 * 16 * 16 * 16 * 8 * 4, 10, [&] {
                auto y = nnops::conv_transpose2d_per_depth(x, w, b, 2, 0);
                benchmark::DoNotOptimize(y->value().raw());
              });
  }

  // The depthwise convs and one rigorous ADI-split PEB step, reported the
  // same way.
  {
    auto x = random_value(Shape{8, 16, 32, 32}, 27);
    auto w = random_value(Shape{8, 3, 3, 3}, 28);
    auto b = random_value(Shape{8}, 29);
    const auto [scalar_ms, simd_ms] = scalar_vs_simd(
        [&] {
          auto y = nnops::dwconv3d(x, w, b, 1);
          benchmark::DoNotOptimize(y->value().raw());
        },
        10);
    report("dwconv3d_8x16x32x32", 0, 0, 0, 2.0 * 8 * 16 * 32 * 32 * 27,
           scalar_ms, scalar_ms, simd_ms);
  }
  {
    auto x = random_value(Shape{4096, 32}, 30);
    auto w = random_value(Shape{32, 5}, 31);
    auto b = random_value(Shape{32}, 32);
    const auto [scalar_ms, simd_ms] = scalar_vs_simd(
        [&] {
          auto y = nnops::dwconv1d_seq(x, w, b);
          benchmark::DoNotOptimize(y->value().raw());
        },
        20);
    report("dwconv1d_4096x32", 0, 0, 0, 2.0 * 4096 * 32 * 5, scalar_ms,
           scalar_ms, simd_ms);
  }
  {
    peb::PebParams params;
    const peb::PebSolver solver(params);
    Rng rng(19);
    Grid3 acid0(16, 64, 64);
    for (auto& v : acid0.data()) v = rng.uniform(0.0, 0.9);
    auto state = solver.initial_state(acid0);
    const auto [scalar_ms, simd_ms] = scalar_vs_simd(
        [&] {
          solver.step(state);
          benchmark::DoNotOptimize(state.acid.data().data());
        },
        5);
    // Rough flop count: 3 LOD sweeps x 3 species-ish fields x ~8 flops per
    // grid element per sweep — indicative only, the row exists for the ms
    // trend and the simd_speedup column.
    report("peb_step_adi_64", 0, 0, 0, 3.0 * 3.0 * 8.0 * 16 * 64 * 64,
           scalar_ms, scalar_ms, simd_ms);
  }
  simd::set_active(best);

  sdmpeb::bench::ensure_output_dir();
  const std::string path = "bench_out/gemm_scaling.csv";
  csv.save(path);
  std::printf("[bench] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_thread_scaling_sweep();
  run_gemm_roofline();
  // SDMPEB_TRACE=1: dump the Chrome trace + a metrics snapshot of the whole
  // run so CI can archive them next to the scaling CSVs.
  if (obs::trace_enabled()) {
    sdmpeb::bench::ensure_output_dir();
    if (obs::write_chrome_trace_file("bench_out/trace.json"))
      std::printf("[bench] wrote bench_out/trace.json\n");
    if (obs::write_metrics_snapshot("bench_out"))
      std::printf("[bench] wrote bench_out/metrics.{prom,jsonl}\n");
  }
  return 0;
}
