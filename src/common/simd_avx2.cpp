// AVX2+FMA kernel bodies — the only translation unit compiled with
// -mavx2 -mfma (plus -ffp-contract=off so the compiler cannot fuse the
// *scalar* tails here; the vector FMAs below are explicit intrinsics and
// unaffected). Nothing outside sdmpeb::simd may call these directly: the
// dispatchers in simd.cpp/gemm.cpp/tridiag.cpp gate every call on a runtime
// CPUID check, so no AVX2 instruction executes on a host without the ISA.

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "common/simd.hpp"

#if !SDMPEB_SIMD_X86
#error "simd_avx2.cpp must only be built for x86-64 targets"
#endif

namespace sdmpeb::simd::avx2 {

namespace {

/// Lane mask with the low `valid` (0..8) float lanes enabled — drives
/// maskload/maskstore on partial GEMM tiles so edge tiles never touch
/// memory past the valid C region.
inline __m256i tail_mask(std::int64_t valid) {
  alignas(32) static constexpr std::int32_t kMaskTable[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - valid));
}

inline std::int64_t clamp_lanes(std::int64_t v) {
  return v < 0 ? 0 : (v > 8 ? 8 : v);
}

/// Fixed-order horizontal sum: ((l0 + l1) + l2) + l3. Part of the AVX2
/// backend's determinism contract — never replace with a tree reduction
/// without bumping the contract in DESIGN.md §11.
inline double hsum_ordered(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// exp(x) for 8 lanes: x = n ln2 + r with |r| <= ln2/2 (ln2 split in two
/// parts, Cody-Waite), e^r by the Cephes degree-6 polynomial, then the
/// scale 2^n applied as two exact halves so a result below FLT_MIN rounds
/// once into the subnormals and one above FLT_MAX becomes +inf. Max error
/// kExpMaxUlp ulp for normal results.
inline __m256 exp_ps(__m256 x) {
  // max/min return their SECOND operand when either input is NaN, so with
  // x second the clamp passes NaN through instead of turning it into a
  // bound; NaN then propagates through every later op. The bounds only keep
  // n in range: e^-104 rounds to +0 and e^89 overflows to +inf anyway.
  x = _mm256_min_ps(_mm256_set1_ps(89.0f),
                    _mm256_max_ps(_mm256_set1_ps(-104.0f), x));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  // n in [-150, 128]: halves in [-75, 64] are both normal powers of two.
  const __m256i ni = _mm256_cvtps_epi32(n);
  const __m256i n1 = _mm256_srai_epi32(ni, 1);
  const __m256i n2 = _mm256_sub_epi32(ni, n1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  const __m256 s2 =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n2, bias), 23));
  return _mm256_mul_ps(_mm256_mul_ps(p, s1), s2);
}

/// 1 / (1 + e^-x) with a true division (no reciprocal approximation).
inline __m256 sigmoid_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  return _mm256_div_ps(
      one, _mm256_add_ps(one, exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x))));
}

/// log(w) for positive normal w (Cephes logf): w = m 2^e with m in
/// [sqrt(1/2), sqrt(2)), log(m) by a degree-9 polynomial in m - 1.
inline __m256 log_ps(__m256 w) {
  const __m256i bits = _mm256_castps_si256(w);
  __m256 e = _mm256_cvtepi32_ps(_mm256_sub_epi32(
      _mm256_srli_epi32(bits, 23), _mm256_set1_epi32(126)));
  // Mantissa with the exponent of 0.5: m in [0.5, 1).
  __m256 m = _mm256_castsi256_ps(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi32(0x007FFFFF)),
      _mm256_set1_epi32(0x3F000000)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 small =
      _mm256_cmp_ps(m, _mm256_set1_ps(0.707106781186547524f), _CMP_LT_OQ);
  // m < sqrt(1/2): use 2m - 1 and e - 1; else m - 1.
  e = _mm256_sub_ps(e, _mm256_and_ps(one, small));
  m = _mm256_sub_ps(_mm256_add_ps(m, _mm256_and_ps(m, small)), one);
  const __m256 z = _mm256_mul_ps(m, m);
  __m256 y = _mm256_set1_ps(7.0376836292e-2f);
  y = _mm256_fmadd_ps(y, m, _mm256_set1_ps(-1.1514610310e-1f));
  y = _mm256_fmadd_ps(y, m, _mm256_set1_ps(1.1676998740e-1f));
  y = _mm256_fmadd_ps(y, m, _mm256_set1_ps(-1.2420140846e-1f));
  y = _mm256_fmadd_ps(y, m, _mm256_set1_ps(1.4249322787e-1f));
  y = _mm256_fmadd_ps(y, m, _mm256_set1_ps(-1.6668057665e-1f));
  y = _mm256_fmadd_ps(y, m, _mm256_set1_ps(2.0000714765e-1f));
  y = _mm256_fmadd_ps(y, m, _mm256_set1_ps(-2.4999993993e-1f));
  y = _mm256_fmadd_ps(y, m, _mm256_set1_ps(3.3333331174e-1f));
  y = _mm256_mul_ps(_mm256_mul_ps(y, m), z);
  y = _mm256_fmadd_ps(e, _mm256_set1_ps(-2.12194440e-4f), y);
  y = _mm256_fnmadd_ps(_mm256_set1_ps(0.5f), z, y);
  return _mm256_fmadd_ps(e, _mm256_set1_ps(0.693359375f), _mm256_add_ps(m, y));
}

/// log1p(u) for u in [0, 1] (or NaN): log(1 + u) scaled by u / ((1 + u) - 1),
/// which cancels the rounding of 1 + u, so tiny u keeps full relative
/// accuracy; 1 + u == 1 returns u itself.
inline __m256 log1p_unit_ps(__m256 u) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 w = _mm256_add_ps(one, u);
  const __m256 wm1 = _mm256_sub_ps(w, one);
  const __m256 scaled = _mm256_div_ps(_mm256_mul_ps(log_ps(w), u), wm1);
  return _mm256_blendv_ps(scaled, u, _mm256_cmp_ps(w, one, _CMP_EQ_OQ));
}

/// Apply `op` to full vectors, then once more to the masked tail.
template <typename Op>
inline void map_ps(float* dst, const float* src, std::int64_t n, Op op) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, op(_mm256_loadu_ps(src + i)));
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    _mm256_maskstore_ps(dst + i, m, op(_mm256_maskload_ps(src + i, m)));
  }
}

}  // namespace

// ------------------------------ GEMM tile ----------------------------------

void gemm_tile_6x16(std::int64_t kb, const float* ap, const float* bp,
                    float* c, std::int64_t ldc, std::int64_t rows,
                    std::int64_t cols, float beta, bool first_panel) {
  constexpr std::int64_t kMr = 6;
  __m256 acc[kMr][2];
  const bool full = rows == kMr && cols == kNrAvx2;
  const __m256i m0 = full ? _mm256_set1_epi32(-1) : tail_mask(clamp_lanes(cols));
  const __m256i m1 =
      full ? _mm256_set1_epi32(-1) : tail_mask(clamp_lanes(cols - 8));
  if (first_panel && beta == 0.0f) {
    for (std::int64_t i = 0; i < kMr; ++i) {
      acc[i][0] = _mm256_setzero_ps();
      acc[i][1] = _mm256_setzero_ps();
    }
  } else {
    // Seed from (beta-scaled on the first panel) C, zero outside the valid
    // rows x cols corner — identical chain shape to the scalar tile.
    const __m256 scale = _mm256_set1_ps(first_panel ? beta : 1.0f);
    for (std::int64_t i = 0; i < kMr; ++i) {
      if (i < rows) {
        const float* crow = c + i * ldc;
        if (full) {
          acc[i][0] = _mm256_mul_ps(_mm256_loadu_ps(crow), scale);
          acc[i][1] = _mm256_mul_ps(_mm256_loadu_ps(crow + 8), scale);
        } else {
          acc[i][0] = _mm256_mul_ps(_mm256_maskload_ps(crow, m0), scale);
          acc[i][1] = _mm256_mul_ps(_mm256_maskload_ps(crow + 8, m1), scale);
        }
      } else {
        acc[i][0] = _mm256_setzero_ps();
        acc[i][1] = _mm256_setzero_ps();
      }
    }
  }

  // 12 ymm accumulators, broadcast-A FMA, k strictly ascending: one fused
  // rounding per k step per element, the AVX2 backend's fixed chain.
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNrAvx2);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNrAvx2 + 8);
    const float* arow = ap + kk * kMr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const __m256 av = _mm256_set1_ps(arow[i]);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }

  if (full) {
    for (std::int64_t i = 0; i < kMr; ++i) {
      _mm256_storeu_ps(c + i * ldc, acc[i][0]);
      _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
    }
  } else {
    for (std::int64_t i = 0; i < rows; ++i) {
      _mm256_maskstore_ps(c + i * ldc, m0, acc[i][0]);
      _mm256_maskstore_ps(c + i * ldc + 8, m1, acc[i][1]);
    }
  }
}

// ------------------------------ elementwise --------------------------------
// These must stay bitwise identical to the scalar backend: same IEEE op per
// element, no FMA (add/mul/sub/max are correctly rounded, so lane width is
// irrelevant to the result).

void vadd(float* dst, const float* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  for (; i < n; ++i) dst[i] += src[i];
}

void vsub(float* dst, const float* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  for (; i < n; ++i) dst[i] -= src[i];
}

void vmul(float* dst, const float* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  for (; i < n; ++i) dst[i] *= src[i];
}

void vscale(float* dst, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), vs));
  for (; i < n; ++i) dst[i] *= s;
}

void vaxpy(float* dst, const float* src, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  // mul then add (not fmadd): keeps the two-rounding scalar semantics.
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(_mm256_loadu_ps(src + i), vs)));
  for (; i < n; ++i) dst[i] += src[i] * s;
}

void vmul_add(float* dst, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i,
                     _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                   _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                                 _mm256_loadu_ps(b + i))));
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

void vrelu(float* dst, const float* src, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  // max_ps(x, 0): returns 0 for x = NaN or -0.0, exactly like the scalar
  // (x > 0 ? x : 0) select.
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(src + i), zero));
  for (; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void vrelu_bwd(float* dst, const float* g, const float* in, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(in + i), zero,
                                      _CMP_GT_OQ);
    const __m256 factor = _mm256_and_ps(one, mask);  // in > 0 ? 1.0f : 0.0f
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(_mm256_loadu_ps(g + i), factor)));
  }
  for (; i < n; ++i) dst[i] += g[i] * (in[i] > 0.0f ? 1.0f : 0.0f);
}

void vleaky_relu(float* dst, const float* src, float slope, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(src + i);
    const __m256 mask = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(dst + i,
                     _mm256_blendv_ps(_mm256_mul_ps(x, vs), x, mask));
  }
  for (; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : slope * src[i];
}

void vleaky_relu_bwd(float* dst, const float* g, const float* in, float slope,
                     std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 vs = _mm256_set1_ps(slope);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(in + i), zero,
                                      _CMP_GT_OQ);
    const __m256 factor = _mm256_blendv_ps(vs, one, mask);
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(_mm256_loadu_ps(g + i), factor)));
  }
  for (; i < n; ++i) dst[i] += g[i] * (in[i] > 0.0f ? 1.0f : slope);
}

// ---------------------------- transcendentals ------------------------------
// All built on exp_ps; tolerance-checked against the scalar std:: formulas.

void vexp(float* dst, const float* src, std::int64_t n) {
  map_ps(dst, src, n, [](__m256 x) { return exp_ps(x); });
}

void vsigmoid(float* dst, const float* src, std::int64_t n) {
  map_ps(dst, src, n, [](__m256 x) { return sigmoid_ps(x); });
}

void vsilu(float* dst, const float* src, std::int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  // x / (1 + e^-x): one rounding fewer than x * sigmoid(x), same limits.
  map_ps(dst, src, n, [one](__m256 x) {
    return _mm256_div_ps(
        x, _mm256_add_ps(one, exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x))));
  });
}

void vsoftplus(float* dst, const float* src, std::int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  map_ps(dst, src, n, [sign](__m256 x) {
    // max_ps(0, x) returns x for NaN and -0.0, like std::max(x, 0.0f).
    const __m256 neg_abs = _mm256_or_ps(x, sign);
    return _mm256_add_ps(_mm256_max_ps(_mm256_setzero_ps(), x),
                         log1p_unit_ps(exp_ps(neg_abs)));
  });
}

void vgelu(float* dst, const float* src, std::int64_t n) {
  // 1 + tanh(u) = 2 / (1 + e^-2u), so gelu(x) = x / (1 + e^-2u) with
  // u = sqrt(2/pi) (x + 0.044715 x^3): no cancellation where tanh(u) ~ -1.
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 k3 = _mm256_set1_ps(0.044715f);
  const __m256 m2c = _mm256_set1_ps(-2.0f * 0.7978845608028654f);
  map_ps(dst, src, n, [=](__m256 x) {
    const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
    const __m256 arg = _mm256_mul_ps(m2c, _mm256_fmadd_ps(k3, x3, x));
    return _mm256_div_ps(x, _mm256_add_ps(one, exp_ps(arg)));
  });
}

// ------------------------------ selective scan -----------------------------

namespace {

/// kStates > 0: the state count is a compile-time constant and the N state
/// vectors live in registers; 0: runtime N, states kept in h_scratch.
template <int kStates>
void scan_block8_impl(const ScanArgs& s, std::int64_t c0, std::int64_t lanes,
                      float* h_scratch) {
  const std::int64_t states = kStates > 0 ? kStates : s.states;
  const std::int64_t cols = s.channels;
  const bool full = lanes == 8;
  const __m256i mask = tail_mask(lanes);
  // Masked-off lanes load 0: x = delta = A = 0 keeps their state at 0.
  const auto load = [&](const float* p) {
    return full ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, mask);
  };
  __m256 h_reg[kStates > 0 ? kStates : 1];
  __m256* h = kStates > 0 ? h_reg : reinterpret_cast<__m256*>(h_scratch);
  for (std::int64_t n = 0; n < states; ++n) h[n] = _mm256_setzero_ps();
  const __m256 skip = load(s.skip + c0);
  const float* a_t = s.a_t + c0;
  for (std::int64_t t = 0; t < s.seq_len; ++t) {
    const __m256 x = load(s.x + t * cols + c0);
    const __m256 dt = load(s.delta + t * cols + c0);
    const __m256 dtx = _mm256_mul_ps(dt, x);
    const float* brow = s.b + t * states;
    const float* crow = s.c + t * states;
    __m256 y = _mm256_mul_ps(skip, x);
    for (std::int64_t n = 0; n < states; ++n) {
      const __m256 a_bar = exp_ps(_mm256_mul_ps(dt, load(a_t + n * cols)));
      h[n] = _mm256_fmadd_ps(a_bar, h[n],
                             _mm256_mul_ps(dtx, _mm256_set1_ps(brow[n])));
      y = _mm256_fmadd_ps(_mm256_set1_ps(crow[n]), h[n], y);
    }
    float* yrow = s.y + t * cols + c0;
    if (full)
      _mm256_storeu_ps(yrow, y);
    else
      _mm256_maskstore_ps(yrow, mask, y);
  }
}

}  // namespace

void scan_block8(const ScanArgs& args, std::int64_t c0, std::int64_t lanes,
                 float* h_scratch) {
  if (args.states == 8)
    scan_block8_impl<8>(args, c0, lanes, h_scratch);
  else
    scan_block8_impl<0>(args, c0, lanes, h_scratch);
}

// ------------------------------ layer norm ---------------------------------
// Double accumulation in 4 lanes, folded in a fixed order, scalar tail last:
// deterministic within this backend, tolerance against the scalar backend's
// single ascending chain.

void layer_norm_stats(const float* row, std::int64_t n, float eps,
                      float* mean_out, float* inv_sigma_out) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(row + i);
    s0 = _mm256_add_pd(s0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    s1 = _mm256_add_pd(s1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double sum = hsum_ordered(_mm256_add_pd(s0, s1));
  for (; i < n; ++i) sum += row[i];
  const double mean = sum / static_cast<double>(n);

  const __m256d vm = _mm256_set1_pd(mean);
  __m256d v0 = _mm256_setzero_pd();
  __m256d v1 = _mm256_setzero_pd();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(row + i);
    const __m256d d0 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), vm);
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), vm);
    v0 = _mm256_fmadd_pd(d0, d0, v0);
    v1 = _mm256_fmadd_pd(d1, d1, v1);
  }
  double var = hsum_ordered(_mm256_add_pd(v0, v1));
  for (; i < n; ++i) {
    const double d = row[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(n);
  *mean_out = static_cast<float>(mean);
  *inv_sigma_out =
      static_cast<float>(1.0 / std::sqrt(var + static_cast<double>(eps)));
}

void layer_norm_apply(float* out_row, float* xhat_row, const float* row,
                      const float* gamma, const float* beta, float mean,
                      float inv_sigma, std::int64_t n) {
  const __m256 vm = _mm256_set1_ps(mean);
  const __m256 vi = _mm256_set1_ps(inv_sigma);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xh =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + i), vm), vi);
    _mm256_storeu_ps(xhat_row + i, xh);
    _mm256_storeu_ps(out_row + i,
                     _mm256_fmadd_ps(xh, _mm256_loadu_ps(gamma + i),
                                     _mm256_loadu_ps(beta + i)));
  }
  for (; i < n; ++i) {
    const float xh = (row[i] - mean) * inv_sigma;
    xhat_row[i] = xh;
    out_row[i] = std::fmaf(xh, gamma[i], beta[i]);
  }
}

void layer_norm_bwd_sums(const float* g_row, const float* xhat_row,
                         const float* gamma, std::int64_t n, double* sum_gy,
                         double* sum_gy_xhat) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gd = _mm256_cvtps_pd(_mm_loadu_ps(g_row + i));
    const __m256d gad = _mm256_cvtps_pd(_mm_loadu_ps(gamma + i));
    const __m256d gy = _mm256_mul_pd(gd, gad);
    s0 = _mm256_add_pd(s0, gy);
    s1 = _mm256_fmadd_pd(gy, _mm256_cvtps_pd(_mm_loadu_ps(xhat_row + i)), s1);
  }
  double r0 = hsum_ordered(s0);
  double r1 = hsum_ordered(s1);
  for (; i < n; ++i) {
    const double gy = static_cast<double>(g_row[i]) * gamma[i];
    r0 += gy;
    r1 += gy * xhat_row[i];
  }
  *sum_gy = r0;
  *sum_gy_xhat = r1;
}

void layer_norm_bwd_apply(float* gx_row, const float* g_row,
                          const float* xhat_row, const float* gamma,
                          float inv_sigma, double mean_gy, double mean_gy_xhat,
                          std::int64_t n) {
  const __m256d vinv = _mm256_set1_pd(static_cast<double>(inv_sigma));
  const __m256d vmg = _mm256_set1_pd(mean_gy);
  const __m256d vmgx = _mm256_set1_pd(mean_gy_xhat);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gy =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(g_row + i)),
                      _mm256_cvtps_pd(_mm_loadu_ps(gamma + i)));
    const __m256d xh = _mm256_cvtps_pd(_mm_loadu_ps(xhat_row + i));
    const __m256d t =
        _mm256_sub_pd(_mm256_sub_pd(gy, vmg), _mm256_mul_pd(xh, vmgx));
    const __m128 contrib = _mm256_cvtpd_ps(_mm256_mul_pd(vinv, t));
    _mm_storeu_ps(gx_row + i,
                  _mm_add_ps(_mm_loadu_ps(gx_row + i), contrib));
  }
  for (; i < n; ++i) {
    const double gy = static_cast<double>(g_row[i]) * gamma[i];
    gx_row[i] += static_cast<float>(
        static_cast<double>(inv_sigma) *
        (gy - mean_gy - static_cast<double>(xhat_row[i]) * mean_gy_xhat));
  }
}

// ---------------------------- depthwise conv -------------------------------

void dwconv3d_interior_row(float* orow, std::int64_t ow_lo, std::int64_t ow_hi,
                           float bias, const float* xch, const float* wch,
                           std::int64_t od, std::int64_t oh, std::int64_t pad,
                           std::int64_t a_lo, std::int64_t a_hi,
                           std::int64_t i_lo, std::int64_t i_hi,
                           std::int64_t kh, std::int64_t kw, std::int64_t hin,
                           std::int64_t win) {
  const __m256 vb = _mm256_set1_ps(bias);
  std::int64_t ow = ow_lo;
  // Eight adjacent outputs per step: taps walk (a, i, j) ascending exactly
  // like the scalar band, with unaligned x loads shifted by one per j.
  for (; ow + 8 <= ow_hi; ow += 8) {
    __m256 acc = vb;
    for (std::int64_t a = a_lo; a < a_hi; ++a)
      for (std::int64_t i = i_lo; i < i_hi; ++i) {
        const float* xrow =
            xch + ((od - pad + a) * hin + oh - pad + i) * win + ow - pad;
        const float* wrow = wch + (a * kh + i) * kw;
        for (std::int64_t j = 0; j < kw; ++j)
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(xrow + j),
                                _mm256_set1_ps(wrow[j]), acc);
      }
    _mm256_storeu_ps(orow + ow, acc);
  }
  // Float-FMA tail in the same tap order (the backend's fixed chain; the
  // double-accumulating scalar backend is the cross-check reference).
  for (; ow < ow_hi; ++ow) {
    float acc = bias;
    for (std::int64_t a = a_lo; a < a_hi; ++a)
      for (std::int64_t i = i_lo; i < i_hi; ++i) {
        const float* xrow =
            xch + ((od - pad + a) * hin + oh - pad + i) * win + ow - pad;
        const float* wrow = wch + (a * kh + i) * kw;
        for (std::int64_t j = 0; j < kw; ++j)
          acc = std::fmaf(xrow[j], wrow[j], acc);
      }
    orow[ow] = acc;
  }
}

void dwconv1d_interior_row(float* orow, const float* x, const float* wt,
                           const float* pb, std::int64_t cols,
                           std::int64_t kernel) {
  std::int64_t c = 0;
  // Eight channels per step; wt is the (kernel x cols) weight transpose the
  // caller packs once per forward, so both operand streams are contiguous.
  for (; c + 8 <= cols; c += 8) {
    __m256 acc = pb ? _mm256_loadu_ps(pb + c) : _mm256_setzero_ps();
    for (std::int64_t k = 0; k < kernel; ++k)
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + k * cols + c),
                            _mm256_loadu_ps(wt + k * cols + c), acc);
    _mm256_storeu_ps(orow + c, acc);
  }
  for (; c < cols; ++c) {
    float acc = pb ? pb[c] : 0.0f;
    for (std::int64_t k = 0; k < kernel; ++k)
      acc = std::fmaf(x[k * cols + c], wt[k * cols + c], acc);
    orow[c] = acc;
  }
}

// ------------------------------ ADI lines ----------------------------------

void tridiag_lines4(const double* c, const double* denom, const double* sub,
                    std::int64_t n, double* data, std::int64_t elem_stride,
                    std::int64_t lane_stride, double rhs0_add, double* d4) {
  const bool contiguous = lane_stride == 1;
  const auto load_lanes = [&](std::int64_t i) {
    const double* p = data + i * elem_stride;
    if (contiguous) return _mm256_loadu_pd(p);
    return _mm256_set_pd(p[3 * lane_stride], p[2 * lane_stride],
                         p[lane_stride], p[0]);
  };
  const __m256d zero = _mm256_setzero_pd();
  const auto store_lanes_clamped = [&](std::int64_t i, __m256d v) {
    // max_pd(0, x) keeps NaN (second operand wins on unordered), matching
    // the scalar std::max(x, 0.0) writeback.
    v = _mm256_max_pd(zero, v);
    double* p = data + i * elem_stride;
    if (contiguous) {
      _mm256_storeu_pd(p, v);
      return;
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    p[0] = lanes[0];
    p[lane_stride] = lanes[1];
    p[2 * lane_stride] = lanes[2];
    p[3 * lane_stride] = lanes[3];
  };

  // Forward substitution: d[i] = (rhs[i] - sub[i] * d[i-1]) / denom[i].
  // The elimination coefficients are shared scalars (prefactored bands); the
  // four lanes only carry their own d chains. True divisions, not
  // reciprocal-multiplies: each lane matches the scalar Thomas solve op for
  // op.
  __m256d dprev = _mm256_div_pd(
      _mm256_add_pd(load_lanes(0), _mm256_set1_pd(rhs0_add)),
      _mm256_set1_pd(denom[0]));
  _mm256_storeu_pd(d4, dprev);
  for (std::int64_t i = 1; i < n; ++i) {
    const __m256d rhs = load_lanes(i);
    dprev = _mm256_div_pd(
        _mm256_sub_pd(rhs, _mm256_mul_pd(_mm256_set1_pd(sub[i]), dprev)),
        _mm256_set1_pd(denom[i]));
    _mm256_storeu_pd(d4 + 4 * i, dprev);
  }

  // Back substitution with in-place >= 0 clamp on the writeback; the
  // recurrence itself runs on the unclamped solution.
  __m256d xnext = _mm256_loadu_pd(d4 + 4 * (n - 1));
  store_lanes_clamped(n - 1, xnext);
  for (std::int64_t i = n - 1; i-- > 0;) {
    xnext = _mm256_sub_pd(_mm256_loadu_pd(d4 + 4 * i),
                          _mm256_mul_pd(_mm256_set1_pd(c[i]), xnext));
    store_lanes_clamped(i, xnext);
  }
}

}  // namespace sdmpeb::simd::avx2
