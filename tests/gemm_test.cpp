#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "common/arena.hpp"
#include "common/gemm.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "gradcheck.hpp"
#include "nn/ops.hpp"

namespace sdmpeb {
namespace {

namespace nnops = nn::ops;
using nn::Value;
using sdmpeb::testing::expect_gradients_match;

/// Restores thread count and kernel backend after each test so ordering
/// cannot leak state. The kernel backend is pinned to scalar for the
/// duration of each test: the packed-vs-naive BITWISE contract holds per
/// kernel backend (DESIGN.md §11), and naive always runs scalar, so these
/// tests exercise the scalar microtile. Cross-backend agreement (tolerance)
/// is covered by simd_test; the conv reference tests below switch backends
/// themselves.
class GemmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    threads_ = parallel::thread_count();
    isa_ = simd::active();
    simd::set_active(simd::Isa::kScalar);
  }
  void TearDown() override {
    parallel::set_thread_count(threads_);
    simd::set_active(isa_);
  }
  int threads_ = 1;
  simd::Isa isa_ = simd::Isa::kScalar;
};

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Run gemm_packed and gemm_naive on identical inputs and require the
/// outputs to be BITWISE equal (the DESIGN.md §8 contract).
void expect_bitwise_match(std::int64_t m, std::int64_t n, std::int64_t k,
                          bool trans_a, bool trans_b, float beta,
                          std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " n=" << n << " k=" << k << " tA=" << trans_a
               << " tB=" << trans_b << " beta=" << beta);
  const auto lda = trans_a ? m : k;
  const auto ldb = trans_b ? k : n;
  const auto a = random_vec(m * k, seed);
  const auto b = random_vec(k * n, seed + 1);
  const auto c0 = random_vec(m * n, seed + 2);

  auto c_packed = c0;
  auto c_naive = c0;
  gemm::gemm_packed(m, n, k, a.data(), lda, trans_a, b.data(), ldb, trans_b,
                    c_packed.data(), n, beta);
  gemm::gemm_naive(m, n, k, a.data(), lda, trans_a, b.data(), ldb, trans_b,
                   c_naive.data(), n, beta);
  EXPECT_EQ(std::memcmp(c_packed.data(), c_naive.data(),
                        c_packed.size() * sizeof(float)),
            0);
}

TEST_F(GemmTest, PackedMatchesNaiveBitwiseAcrossShapes) {
  // Tile multiples, sub-tile shapes, and awkward remainders against the
  // kMr=6 / kNr=8 / kMc=48 / kKc=256 / kNc=256 blocking.
  const std::int64_t shapes[][3] = {
      {1, 1, 1},     {1, 8, 3},    {6, 8, 16},    {5, 7, 9},
      {13, 17, 11},  {48, 64, 32}, {50, 61, 37},  {96, 256, 256},
      {97, 259, 300}};
  std::uint64_t seed = 1;
  for (const auto& s : shapes)
    for (bool ta : {false, true})
      for (bool tb : {false, true})
        expect_bitwise_match(s[0], s[1], s[2], ta, tb, 0.0f, seed += 7);
}

TEST_F(GemmTest, PackedMatchesNaiveBitwiseWithBeta) {
  std::uint64_t seed = 100;
  for (float beta : {0.0f, 1.0f, 0.5f})
    for (bool ta : {false, true})
      for (bool tb : {false, true})
        expect_bitwise_match(29, 53, 270, ta, tb, beta, seed += 7);
}

TEST_F(GemmTest, PackedIsThreadCountInvariant) {
  const std::int64_t m = 101, n = 67, k = 300;
  const auto a = random_vec(m * k, 5);
  const auto b = random_vec(k * n, 6);
  std::vector<float> c1(static_cast<std::size_t>(m * n));
  std::vector<float> c4(c1.size());
  parallel::set_thread_count(1);
  gemm::gemm_packed(m, n, k, a.data(), k, false, b.data(), n, false,
                    c1.data(), n, 0.0f);
  parallel::set_thread_count(4);
  gemm::gemm_packed(m, n, k, a.data(), k, false, b.data(), n, false,
                    c4.data(), n, 0.0f);
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0);
}

TEST_F(GemmTest, StridedOutputLeavesGuardColumnsUntouched) {
  // ldc > n is how the conv lowerings write channel-interleaved outputs.
  const std::int64_t m = 14, n = 10, k = 21, ldc = n + 3;
  const auto a = random_vec(m * k, 11);
  const auto b = random_vec(k * n, 12);
  std::vector<float> c_packed(static_cast<std::size_t>(m * ldc), 42.0f);
  auto c_naive = c_packed;
  gemm::gemm_packed(m, n, k, a.data(), k, false, b.data(), n, false,
                    c_packed.data(), ldc, 0.0f);
  gemm::gemm_naive(m, n, k, a.data(), k, false, b.data(), n, false,
                   c_naive.data(), ldc, 0.0f);
  EXPECT_EQ(std::memcmp(c_packed.data(), c_naive.data(),
                        c_packed.size() * sizeof(float)),
            0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = n; j < ldc; ++j)
      EXPECT_EQ(c_packed[static_cast<std::size_t>(i * ldc + j)], 42.0f);
}

TEST_F(GemmTest, ZeroTimesNanPropagates) {
  // Regression for the retired `if (av == 0.0f) continue;` fast path: a
  // zero activation against a NaN weight must poison the output, in both
  // implementations.
  const std::int64_t m = 2, n = 8, k = 3;
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  auto b = random_vec(k * n, 13);
  b[3] = std::nanf("");
  for (auto* fn : {&gemm::gemm_packed, &gemm::gemm_naive}) {
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    (*fn)(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n, 0.0f);
    EXPECT_TRUE(std::isnan(c[3]));
    EXPECT_TRUE(std::isnan(c[static_cast<std::size_t>(n + 3)]));
  }
}

TEST_F(GemmTest, DegenerateKScalesC) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm::gemm_packed(2, 2, 0, nullptr, 1, false, nullptr, 1, false, c.data(),
                    2, 0.5f);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// ---------------------------------------------------------------------------
// Conv lowerings: each dense conv forward (im2col + GEMM) against a plain
// single-threaded loop that accumulates in double, under every kernel
// backend this host supports. Different accumulation orders and precisions,
// so agreement is to a relative tolerance, not bitwise. Backward passes are
// covered by the gradchecks below and in nn_autograd_test.
// ---------------------------------------------------------------------------

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(std::move(shape), rng, -1.0f, 1.0f);
}

void expect_close(const Tensor& got, const Tensor& want, float tol) {
  ASSERT_EQ(got.numel(), want.numel());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float scale =
        std::max({1.0f, std::abs(got[i]), std::abs(want[i])});
    EXPECT_NEAR(got[i], want[i], tol * scale) << "element " << i;
  }
}

/// Compare `op()` against `want` under the scalar backend and, when the CPU
/// has it, AVX2. The fixture restores the active backend afterwards.
void expect_matches_reference(const std::function<Value()>& op,
                              const Tensor& want, float tol = 1e-4f) {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::cpu_has_avx2()) isas.push_back(simd::Isa::kAvx2);
  for (const simd::Isa isa : isas) {
    SCOPED_TRACE(simd::isa_name(isa));
    simd::set_active(isa);
    expect_close(op()->value(), want, tol);
  }
}

/// x (cin, depth, hin, win), w (cout, cin, kh, kw): a 2-D conv per depth.
Tensor conv2d_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                        std::int64_t stride, std::int64_t pad) {
  const auto cin = x.dim(0), depth = x.dim(1), hin = x.dim(2),
             win = x.dim(3);
  const auto cout = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const auto hout = (hin + 2 * pad - kh) / stride + 1;
  const auto wout = (win + 2 * pad - kw) / stride + 1;
  Tensor out(Shape{cout, depth, hout, wout});
  for (std::int64_t co = 0; co < cout; ++co)
    for (std::int64_t d = 0; d < depth; ++d)
      for (std::int64_t ho = 0; ho < hout; ++ho)
        for (std::int64_t wo = 0; wo < wout; ++wo) {
          double acc = b[co];
          for (std::int64_t ci = 0; ci < cin; ++ci)
            for (std::int64_t i = 0; i < kh; ++i)
              for (std::int64_t j = 0; j < kw; ++j) {
                const auto hi = ho * stride - pad + i;
                const auto wi = wo * stride - pad + j;
                if (hi < 0 || hi >= hin || wi < 0 || wi >= win) continue;
                acc += static_cast<double>(
                           x[((ci * depth + d) * hin + hi) * win + wi]) *
                       w[((co * cin + ci) * kh + i) * kw + j];
              }
          out[((co * depth + d) * hout + ho) * wout + wo] =
              static_cast<float>(acc);
        }
  return out;
}

/// x (cin, depth, hin, win), w (cin, cout, kh, kw): input site (h, ww)
/// feeds output (h*stride - pad + i, ww*stride - pad + j); gathered here
/// per output element.
Tensor conv_transpose2d_reference(const Tensor& x, const Tensor& w,
                                  const Tensor& b, std::int64_t stride,
                                  std::int64_t pad) {
  const auto cin = x.dim(0), depth = x.dim(1), hin = x.dim(2),
             win = x.dim(3);
  const auto cout = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const auto hout = (hin - 1) * stride - 2 * pad + kh;
  const auto wout = (win - 1) * stride - 2 * pad + kw;
  Tensor out(Shape{cout, depth, hout, wout});
  for (std::int64_t co = 0; co < cout; ++co)
    for (std::int64_t d = 0; d < depth; ++d)
      for (std::int64_t ho = 0; ho < hout; ++ho)
        for (std::int64_t wo = 0; wo < wout; ++wo) {
          double acc = b[co];
          for (std::int64_t ci = 0; ci < cin; ++ci)
            for (std::int64_t i = 0; i < kh; ++i)
              for (std::int64_t j = 0; j < kw; ++j) {
                const auto hs = ho + pad - i;
                const auto ws = wo + pad - j;
                if (hs < 0 || ws < 0 || hs % stride || ws % stride) continue;
                const auto h = hs / stride;
                const auto ww = ws / stride;
                if (h >= hin || ww >= win) continue;
                acc += static_cast<double>(
                           x[((ci * depth + d) * hin + h) * win + ww]) *
                       w[((ci * cout + co) * kh + i) * kw + j];
              }
          out[((co * depth + d) * hout + ho) * wout + wo] =
              static_cast<float>(acc);
        }
  return out;
}

/// x (cin, din, hin, win), w (cout, cin, kd, kh, kw).
Tensor conv3d_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                        std::int64_t stride, std::int64_t pad) {
  const auto cin = x.dim(0), din = x.dim(1), hin = x.dim(2), win = x.dim(3);
  const auto cout = w.dim(0), kd = w.dim(2), kh = w.dim(3), kw = w.dim(4);
  const auto dout = (din + 2 * pad - kd) / stride + 1;
  const auto hout = (hin + 2 * pad - kh) / stride + 1;
  const auto wout = (win + 2 * pad - kw) / stride + 1;
  Tensor out(Shape{cout, dout, hout, wout});
  for (std::int64_t co = 0; co < cout; ++co)
    for (std::int64_t od = 0; od < dout; ++od)
      for (std::int64_t oh = 0; oh < hout; ++oh)
        for (std::int64_t ow = 0; ow < wout; ++ow) {
          double acc = b[co];
          for (std::int64_t ci = 0; ci < cin; ++ci)
            for (std::int64_t a = 0; a < kd; ++a)
              for (std::int64_t i = 0; i < kh; ++i)
                for (std::int64_t j = 0; j < kw; ++j) {
                  const auto id = od * stride - pad + a;
                  const auto ih = oh * stride - pad + i;
                  const auto iw = ow * stride - pad + j;
                  if (id < 0 || id >= din || ih < 0 || ih >= hin || iw < 0 ||
                      iw >= win)
                    continue;
                  acc += static_cast<double>(
                             x[((ci * din + id) * hin + ih) * win + iw]) *
                         w[(((co * cin + ci) * kd + a) * kh + i) * kw + j];
                }
          out[((co * dout + od) * hout + oh) * wout + ow] =
              static_cast<float>(acc);
        }
  return out;
}

TEST_F(GemmTest, Conv2dMatchesReference) {
  const auto x = random_tensor(Shape{3, 2, 9, 11}, 21);
  const auto w = random_tensor(Shape{4, 3, 3, 3}, 22);
  const auto b = random_tensor(Shape{4}, 23);
  for (auto [stride, pad] : {std::pair<std::int64_t, std::int64_t>{1, 1},
                             {2, 1},
                             {1, 0}}) {
    SCOPED_TRACE(::testing::Message() << "stride=" << stride << " pad=" << pad);
    expect_matches_reference(
        [&, stride = stride, pad = pad] {
          return nnops::conv2d_per_depth(nn::constant(x), nn::constant(w),
                                         nn::constant(b), stride, pad);
        },
        conv2d_reference(x, w, b, stride, pad));
  }
}

TEST_F(GemmTest, ConvTranspose2dMatchesReference) {
  const auto x = random_tensor(Shape{3, 2, 5, 6}, 31);
  const auto w = random_tensor(Shape{3, 2, 3, 3}, 32);
  const auto b = random_tensor(Shape{2}, 33);
  for (auto [stride, pad] : {std::pair<std::int64_t, std::int64_t>{1, 1},
                             {2, 1},
                             {2, 0}}) {
    SCOPED_TRACE(::testing::Message() << "stride=" << stride << " pad=" << pad);
    expect_matches_reference(
        [&, stride = stride, pad = pad] {
          return nnops::conv_transpose2d_per_depth(
              nn::constant(x), nn::constant(w), nn::constant(b), stride, pad);
        },
        conv_transpose2d_reference(x, w, b, stride, pad));
  }
}

TEST_F(GemmTest, Conv3dMatchesReference) {
  const auto x = random_tensor(Shape{2, 5, 7, 6}, 41);
  const auto w = random_tensor(Shape{3, 2, 3, 3, 3}, 42);
  const auto b = random_tensor(Shape{3}, 43);
  for (auto [stride, pad] : {std::pair<std::int64_t, std::int64_t>{1, 1},
                             {2, 1}}) {
    SCOPED_TRACE(::testing::Message() << "stride=" << stride << " pad=" << pad);
    expect_matches_reference(
        [&, stride = stride, pad = pad] {
          return nnops::conv3d(nn::constant(x), nn::constant(w),
                               nn::constant(b), stride, pad);
        },
        conv3d_reference(x, w, b, stride, pad));
  }
}

// ---------------------------------------------------------------------------
// Gradchecks on the im2col paths.
// ---------------------------------------------------------------------------

TEST_F(GemmTest, GradCheckConv2dIm2col) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::conv2d_per_depth(v[0], v[1], v[2], 2, 1)));
      },
      {random_tensor(Shape{2, 2, 5, 5}, 51), random_tensor(Shape{3, 2, 3, 3}, 52),
       random_tensor(Shape{3}, 53)});
}

TEST_F(GemmTest, GradCheckConvTranspose2dIm2col) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(nnops::square(
            nnops::conv_transpose2d_per_depth(v[0], v[1], v[2], 2, 1)));
      },
      {random_tensor(Shape{2, 2, 3, 4}, 54), random_tensor(Shape{2, 3, 3, 3}, 55),
       random_tensor(Shape{3}, 56)});
}

TEST_F(GemmTest, GradCheckConv3dIm2col) {
  expect_gradients_match(
      [](const std::vector<Value>& v) {
        return nnops::sum(
            nnops::square(nnops::conv3d(v[0], v[1], v[2], 2, 1)));
      },
      {random_tensor(Shape{2, 4, 4, 5}, 57),
       random_tensor(Shape{2, 2, 3, 3, 3}, 58), random_tensor(Shape{2}, 59)});
}

// ---------------------------------------------------------------------------
// Arena reuse: after a warm-up pass sizes the thread-local arenas, repeated
// identical training steps must not allocate any new backing blocks.
// ---------------------------------------------------------------------------

/// Run `step` repeatedly and require the global heap-block count to stop
/// growing. Chunk-to-thread assignment is scheduling-dependent, so a pool
/// worker's arena may stay cold for an arbitrary number of repeats and then
/// allocate its first block late — that is warm-up, not a leak. The leak
/// signature is growth proportional to the iteration count, so instead of
/// demanding a fixed quiet window we bound the number of growth EVENTS: a
/// few per participating thread for warm-up, versus ~kSteps for a
/// per-iteration leak.
void expect_steady_state_no_alloc(const std::function<void()>& step) {
  constexpr int kSteps = 200;
  auto blocks = WorkspaceArena::total_heap_blocks();
  int growth_events = 0;
  for (int i = 0; i < kSteps; ++i) {
    step();
    const auto now = WorkspaceArena::total_heap_blocks();
    if (now != blocks) ++growth_events;
    blocks = now;
  }
  EXPECT_LE(growth_events, 8) << "arena keeps allocating in steady state";
}

TEST_F(GemmTest, ArenaStopsAllocatingAfterWarmup) {
  parallel::set_thread_count(2);
  const auto x0 = random_tensor(Shape{2, 3, 12, 12}, 61);
  const auto w0 = random_tensor(Shape{4, 2, 3, 3}, 62);
  const auto b0 = random_tensor(Shape{4}, 63);
  expect_steady_state_no_alloc([&] {
    auto x = nn::make_value(x0, true);
    auto w = nn::make_value(w0, true);
    auto b = nn::make_value(b0, true);
    auto loss =
        nnops::sum(nnops::square(nnops::conv2d_per_depth(x, w, b, 1, 1)));
    nn::backward(loss);
  });
}

TEST_F(GemmTest, ArenaReusesAcrossRepeatedGemmCalls) {
  // Single thread: the whole packed path runs inline on the caller, so the
  // second call onward must be allocation-free with no scheduling caveats.
  parallel::set_thread_count(1);
  const std::int64_t m = 70, n = 90, k = 130;
  const auto a = random_vec(m * k, 71);
  const auto b = random_vec(k * n, 72);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  gemm::gemm_packed(m, n, k, a.data(), k, false, b.data(), n, false, c.data(),
                    n, 0.0f);
  const auto blocks = WorkspaceArena::total_heap_blocks();
  for (int i = 0; i < 10; ++i)
    gemm::gemm_packed(m, n, k, a.data(), k, false, b.data(), n, false,
                      c.data(), n, 0.0f);
  EXPECT_EQ(WorkspaceArena::total_heap_blocks(), blocks);
}

}  // namespace
}  // namespace sdmpeb
