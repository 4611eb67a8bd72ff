// Backend resolution and the scalar reference kernels. The scalar bodies
// here reproduce, op for op, the loops they replaced in nn/ and peb/ — they
// are the portable bitwise baseline every vector backend is validated
// against. Keep them boring.

#include "common/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/obs.hpp"

namespace sdmpeb::simd {

namespace {

void publish_backend_gauge(Isa isa) {
  obs::gauge("kernel.backend").set(static_cast<double>(isa));
}

Isa resolve_from_env() {
  Isa chosen = cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar;
  if (const char* env = std::getenv("SDMPEB_BACKEND"); env && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) {
      chosen = Isa::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      if (cpu_has_avx2()) {
        chosen = Isa::kAvx2;
      } else {
        SDMPEB_LOG(obs::LogLevel::kWarn)
            << "SDMPEB_BACKEND=avx2 requested but this CPU lacks AVX2+FMA; "
               "falling back to the scalar backend";
        chosen = Isa::kScalar;
      }
    } else {
      SDMPEB_LOG(obs::LogLevel::kWarn)
          << "unknown SDMPEB_BACKEND '" << env
          << "' (expected scalar|avx2); using " << isa_name(chosen);
    }
  }
  publish_backend_gauge(chosen);
  return chosen;
}

Isa& isa_slot() {
  static Isa isa = resolve_from_env();
  return isa;
}

}  // namespace

bool cpu_has_avx2() {
#if SDMPEB_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Isa active() { return isa_slot(); }

void set_active(Isa isa) {
  if (isa == Isa::kAvx2 && !cpu_has_avx2()) isa = Isa::kScalar;
  isa_slot() = isa;
  publish_backend_gauge(isa);
}

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

const char* cpu_feature_string() {
#if SDMPEB_SIMD_X86
  static const std::string features = [] {
    std::string out;
    const auto append = [&out](const char* name) {
      if (!out.empty()) out += '+';
      out += name;
    };
    if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
    if (__builtin_cpu_supports("avx")) append("avx");
    if (__builtin_cpu_supports("avx2")) append("avx2");
    if (__builtin_cpu_supports("fma")) append("fma");
    if (__builtin_cpu_supports("avx512f")) append("avx512f");
    if (out.empty()) out = "x86-64";
    return out;
  }();
  return features.c_str();
#else
  return "generic";
#endif
}

GemmTileFn gemm_tile_16() {
#if SDMPEB_SIMD_X86
  if (active() == Isa::kAvx2) return &avx2::gemm_tile_6x16;
#endif
  return nullptr;
}

TridiagLines4Fn tridiag_lines4() {
#if SDMPEB_SIMD_X86
  if (active() == Isa::kAvx2) return &avx2::tridiag_lines4;
#endif
  return nullptr;
}

ScanBlock8Fn scan_block8() {
#if SDMPEB_SIMD_X86
  if (active() == Isa::kAvx2) return &avx2::scan_block8;
#endif
  return nullptr;
}

// --------------------------- elementwise ----------------------------------

#if SDMPEB_SIMD_X86
#define SDMPEB_SIMD_DISPATCH(call) \
  if (active() == Isa::kAvx2) {    \
    avx2::call;                    \
    return;                        \
  }
#else
#define SDMPEB_SIMD_DISPATCH(call)
#endif

void vadd(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vadd(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void vsub(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vsub(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] -= src[i];
}

void vmul(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vmul(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] *= src[i];
}

void vscale(float* dst, float s, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vscale(dst, s, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] *= s;
}

void vaxpy(float* dst, const float* src, float s, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vaxpy(dst, src, s, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i] * s;
}

void vmul_add(float* dst, const float* a, const float* b, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vmul_add(dst, a, b, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

void vrelu(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vrelu(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void vrelu_bwd(float* dst, const float* g, const float* in, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vrelu_bwd(dst, g, in, n))
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] += g[i] * (in[i] > 0.0f ? 1.0f : 0.0f);
}

void vleaky_relu(float* dst, const float* src, float slope, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vleaky_relu(dst, src, slope, n))
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] = src[i] > 0.0f ? src[i] : slope * src[i];
}

void vleaky_relu_bwd(float* dst, const float* g, const float* in, float slope,
                     std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vleaky_relu_bwd(dst, g, in, slope, n))
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] += g[i] * (in[i] > 0.0f ? 1.0f : slope);
}

// ---------------------------- transcendentals -----------------------------

float sigmoid_ref(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void vexp(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vexp(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] = std::exp(src[i]);
}

void vsigmoid(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vsigmoid(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] = sigmoid_ref(src[i]);
}

void vsilu(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vsilu(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] * sigmoid_ref(src[i]);
}

void vsoftplus(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vsoftplus(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = src[i];
    dst[i] = std::max(v, 0.0f) + std::log1p(std::exp(-std::abs(v)));
  }
}

void vgelu(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vgelu(dst, src, n))
  const float c = 0.7978845608028654f;  // sqrt(2/pi)
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = src[i];
    dst[i] = 0.5f * v * (1.0f + std::tanh(c * (v + 0.044715f * v * v * v)));
  }
}

// ---------------------------- layer norm -----------------------------------

void layer_norm_stats(const float* row, std::int64_t n, float eps,
                      float* mean_out, float* inv_sigma_out) {
  SDMPEB_SIMD_DISPATCH(layer_norm_stats(row, n, eps, mean_out, inv_sigma_out))
  double mean = 0.0;
  for (std::int64_t i = 0; i < n; ++i) mean += row[i];
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
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
  SDMPEB_SIMD_DISPATCH(layer_norm_apply(out_row, xhat_row, row, gamma, beta,
                                        mean, inv_sigma, n))
  for (std::int64_t i = 0; i < n; ++i) {
    const float xh = (row[i] - mean) * inv_sigma;
    xhat_row[i] = xh;
    out_row[i] = xh * gamma[i] + beta[i];
  }
}

void layer_norm_bwd_sums(const float* g_row, const float* xhat_row,
                         const float* gamma, std::int64_t n, double* sum_gy,
                         double* sum_gy_xhat) {
  SDMPEB_SIMD_DISPATCH(
      layer_norm_bwd_sums(g_row, xhat_row, gamma, n, sum_gy, sum_gy_xhat))
  double s0 = 0.0;
  double s1 = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double gy = static_cast<double>(g_row[i]) * gamma[i];
    s0 += gy;
    s1 += gy * xhat_row[i];
  }
  *sum_gy = s0;
  *sum_gy_xhat = s1;
}

void layer_norm_bwd_apply(float* gx_row, const float* g_row,
                          const float* xhat_row, const float* gamma,
                          float inv_sigma, double mean_gy, double mean_gy_xhat,
                          std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(layer_norm_bwd_apply(gx_row, g_row, xhat_row, gamma,
                                            inv_sigma, mean_gy, mean_gy_xhat,
                                            n))
  for (std::int64_t i = 0; i < n; ++i) {
    const double gy = static_cast<double>(g_row[i]) * gamma[i];
    gx_row[i] += static_cast<float>(
        inv_sigma * (gy - mean_gy - xhat_row[i] * mean_gy_xhat));
  }
}

// --------------------------- depthwise conv --------------------------------

void dwconv3d_interior_row(float* orow, std::int64_t ow_lo, std::int64_t ow_hi,
                           float bias, const float* xch, const float* wch,
                           std::int64_t od, std::int64_t oh, std::int64_t pad,
                           std::int64_t a_lo, std::int64_t a_hi,
                           std::int64_t i_lo, std::int64_t i_hi,
                           std::int64_t kh, std::int64_t kw, std::int64_t hin,
                           std::int64_t win) {
  SDMPEB_SIMD_DISPATCH(dwconv3d_interior_row(orow, ow_lo, ow_hi, bias, xch,
                                             wch, od, oh, pad, a_lo, a_hi,
                                             i_lo, i_hi, kh, kw, hin, win))
  for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
    double acc = bias;
    for (std::int64_t a = a_lo; a < a_hi; ++a)
      for (std::int64_t i = i_lo; i < i_hi; ++i) {
        const float* xrow =
            xch + ((od - pad + a) * hin + oh - pad + i) * win + ow - pad;
        const float* wrow = wch + (a * kh + i) * kw;
        for (std::int64_t j = 0; j < kw; ++j)
          acc += static_cast<double>(xrow[j]) * wrow[j];
      }
    orow[ow] = static_cast<float>(acc);
  }
}

void dwconv1d_interior_row(float* orow, const float* x, const float* w,
                           const float* wt, const float* pb, std::int64_t cols,
                           std::int64_t kernel) {
#if SDMPEB_SIMD_X86
  if (wt != nullptr && active() == Isa::kAvx2) {
    avx2::dwconv1d_interior_row(orow, x, wt, pb, cols, kernel);
    return;
  }
#else
  (void)wt;
#endif
  for (std::int64_t c = 0; c < cols; ++c) {
    double acc = pb ? pb[c] : 0.0f;
    const float* wrow = w + c * kernel;
    for (std::int64_t k = 0; k < kernel; ++k)
      acc += static_cast<double>(x[k * cols + c]) * wrow[k];
    orow[c] = static_cast<float>(acc);
  }
}

#undef SDMPEB_SIMD_DISPATCH

}  // namespace sdmpeb::simd
