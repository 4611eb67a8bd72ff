#include <algorithm>
#include <cmath>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "nn/op_helpers.hpp"
#include "nn/ops.hpp"

namespace sdmpeb::nn::ops {

namespace {

/// Channels per parallel chunk: one AVX2 vector. The recurrence is
/// independent per channel, so any blocking gives the same bits.
constexpr std::int64_t kScanBlock = 8;

void record_trajectory_bytes(std::int64_t floats) {
  if (!obs::trace_enabled()) return;
  static obs::Counter& bytes = obs::counter("scan.trajectory_bytes");
  bytes.add(static_cast<std::uint64_t>(floats) * sizeof(float));
}

/// The reference recurrence for channels [c0, c1), shared by the taped and
/// frozen forwards so both produce the same bits. a_neg is A in (C, N)
/// layout; state is (c1 - c0) x N scratch carrying h_{t-1}; hidden, when
/// non-null, receives the (L, C, N) trajectory for the adjoint pass.
void scan_forward_scalar(const simd::ScanArgs& s, const float* a_neg,
                         std::int64_t c0, std::int64_t c1, float* state,
                         float* hidden) {
  const auto channels = s.channels;
  const auto states = s.states;
  std::fill(state, state + (c1 - c0) * states, 0.0f);
  for (std::int64_t t = 0; t < s.seq_len; ++t) {
    const float* brow = s.b + t * states;
    const float* crow = s.c + t * states;
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      const float dt = s.delta[t * channels + ch];
      const float xt = s.x[t * channels + ch];
      const float* arow = a_neg + ch * states;
      float* h = state + (ch - c0) * states;
      float* traj = hidden ? hidden + (t * channels + ch) * states : nullptr;
      double y_acc = static_cast<double>(s.skip[ch]) * xt;
      for (std::int64_t n = 0; n < states; ++n) {
        const float a_bar = std::exp(dt * arow[n]);
        const float h_new = a_bar * h[n] + dt * brow[n] * xt;
        h[n] = h_new;
        if (traj) traj[n] = h_new;
        y_acc += static_cast<double>(crow[n]) * h_new;
      }
      s.y[t * channels + ch] = static_cast<float>(y_acc);
    }
  }
}

}  // namespace

// Fused selective scan (see ops.hpp for the recurrence). When some input
// tracks gradients, the forward stores the full hidden-state trajectory
// (L, C, N) so the backward pass is a single reverse-time adjoint recurrence
// — O(L·C·N) time and memory, no per-timestep graph nodes (DESIGN.md §4).
// A frozen forward carries only the per-channel state and, under the AVX2
// backend, runs the 8-channel vector kernel. Both run one parallel_for over
// channel blocks. Inner loops use raw row-major indexing; shapes are
// validated once up front.
Value selective_scan(const Value& x, const Value& delta, const Value& a_log,
                     const Value& b, const Value& c, const Value& d_skip) {
  const Tensor& xv = x->value();
  const Tensor& dv = delta->value();
  const Tensor& av = a_log->value();
  const Tensor& bv = b->value();
  const Tensor& cv = c->value();
  const Tensor& skipv = d_skip->value();

  SDMPEB_CHECK(xv.rank() == 2 && dv.rank() == 2 && av.rank() == 2 &&
               bv.rank() == 2 && cv.rank() == 2);
  const auto seq_len = xv.dim(0);
  const auto channels = xv.dim(1);
  const auto states = av.dim(1);
  SDMPEB_CHECK(dv.dim(0) == seq_len && dv.dim(1) == channels);
  SDMPEB_CHECK(av.dim(0) == channels);
  SDMPEB_CHECK(bv.dim(0) == seq_len && bv.dim(1) == states);
  SDMPEB_CHECK(cv.dim(0) == seq_len && cv.dim(1) == states);
  SDMPEB_CHECK(skipv.numel() == channels);

  // A = -exp(a_log): strictly negative, so exp(delta * A) in (0, 1) and the
  // recurrence is unconditionally stable for positive delta.
  Tensor a_neg(Shape{channels, states});
  for (std::int64_t i = 0; i < a_neg.numel(); ++i)
    a_neg[i] = -std::exp(av[i]);

  Tensor out(Shape{seq_len, channels});
  const bool taped = any_requires_grad({x, delta, a_log, b, c, d_skip});
  // Hidden-state trajectory, saved for the adjoint pass only.
  std::shared_ptr<Tensor> hidden;
  if (taped) {
    hidden = std::make_shared<Tensor>(Shape{seq_len, channels, states});
    record_trajectory_bytes(hidden->numel());
  }
  const simd::ScanBlock8Fn block8 = taped ? nullptr : simd::scan_block8();

  auto& arena = WorkspaceArena::tls();
  WorkspaceArena::Scope scope(arena);
  simd::ScanArgs args{.x = xv.raw(),
                      .delta = dv.raw(),
                      .a_t = nullptr,
                      .b = bv.raw(),
                      .c = cv.raw(),
                      .skip = skipv.raw(),
                      .y = out.raw(),
                      .seq_len = seq_len,
                      .channels = channels,
                      .states = states};
  if (block8) {
    float* a_t = arena.floats(states * channels);
    for (std::int64_t ch = 0; ch < channels; ++ch)
      for (std::int64_t n = 0; n < states; ++n)
        a_t[n * channels + ch] = a_neg[ch * states + n];
    args.a_t = a_t;
  }
  float* ph = hidden ? hidden->raw() : nullptr;
  parallel::parallel_for(
      0, channels, kScanBlock, [&](std::int64_t c0, std::int64_t c1) {
        auto& local = WorkspaceArena::tls();
        WorkspaceArena::Scope chunk_scope(local);
        float* state = local.floats(kScanBlock * states);
        if (block8)
          block8(args, c0, c1 - c0, state);
        else
          scan_forward_scalar(args, a_neg.raw(), c0, c1, state, ph);
      });

  Value xc = x, dc = delta, ac = a_log, bc = b, cc = c, skc = d_skip;
  return detail::make_result(
      std::move(out), {x, delta, a_log, b, c, d_skip},
      [xc, dc, ac, bc, cc, skc, hidden,
       a_neg = std::move(a_neg)](Node& self) {
        const Tensor& g = self.grad();
        const Tensor& xv = xc->value();
        const Tensor& dv = dc->value();
        const Tensor& bv = bc->value();
        const Tensor& cv = cc->value();
        const Tensor& skipv = skc->value();
        const auto seq_len = xv.dim(0);
        const auto channels = xv.dim(1);
        const auto states = a_neg.dim(1);

        const bool need_x = xc->requires_grad();
        const bool need_d = dc->requires_grad();
        const bool need_a = ac->requires_grad();
        const bool need_b = bc->requires_grad();
        const bool need_c = cc->requires_grad();
        const bool need_skip = skc->requires_grad();

        const float* pg = g.raw();
        const float* px = xv.raw();
        const float* pd = dv.raw();
        const float* pb = bv.raw();
        const float* pc = cv.raw();
        const float* pskip = skipv.raw();
        const float* pa = a_neg.raw();
        const float* ph = hidden->raw();
        float* pgx = need_x ? xc->grad().raw() : nullptr;
        float* pgd = need_d ? dc->grad().raw() : nullptr;
        float* pga = need_a ? ac->grad().raw() : nullptr;
        float* pgb = need_b ? bc->grad().raw() : nullptr;
        float* pgc = need_c ? cc->grad().raw() : nullptr;
        float* pgskip = need_skip ? skc->grad().raw() : nullptr;

        // Running adjoint of the hidden state.
        Tensor dh(Shape{channels, states});
        float* pdh = dh.raw();

        for (std::int64_t t = seq_len - 1; t >= 0; --t) {
          const float* brow = pb + t * states;
          const float* crow = pc + t * states;
          for (std::int64_t ch = 0; ch < channels; ++ch) {
            const float dy = pg[t * channels + ch];
            const float dt = pd[t * channels + ch];
            const float xt = px[t * channels + ch];
            if (need_skip) pgskip[ch] += dy * xt;
            const float* arow = pa + ch * states;
            const float* hcur = ph + (t * channels + ch) * states;
            const float* hprev =
                t > 0 ? ph + ((t - 1) * channels + ch) * states : nullptr;
            float* dhrow = pdh + ch * states;
            double dx_acc = static_cast<double>(pskip[ch]) * dy;
            double ddelta_acc = 0.0;
            for (std::int64_t n = 0; n < states; ++n) {
              // Output edge: y_t += C_t[n] * h_t[ch][n].
              if (need_c) pgc[t * states + n] += dy * hcur[n];
              float dh_cn = dhrow[n] + crow[n] * dy;

              const float a_cn = arow[n];
              const float a_bar = std::exp(dt * a_cn);
              const float h_prev = hprev ? hprev[n] : 0.0f;

              // h_t = a_bar * h_prev + dt * B_t[n] * x_t.
              const float da_bar = dh_cn * h_prev;
              ddelta_acc += static_cast<double>(da_bar) * a_cn * a_bar;
              ddelta_acc += static_cast<double>(dh_cn) * brow[n] * xt;
              dx_acc += static_cast<double>(dh_cn) * dt * brow[n];
              if (need_b) pgb[t * states + n] += dh_cn * dt * xt;
              if (need_a) {
                // dA += da_bar * dt * a_bar; a_log grad = dA * dA/da_log
                // with A = -exp(a_log) => dA/da_log = A.
                pga[ch * states + n] += da_bar * dt * a_bar * a_cn;
              }
              // Pass the adjoint to h_{t-1}.
              dhrow[n] = dh_cn * a_bar;
            }
            if (need_x)
              pgx[t * channels + ch] += static_cast<float>(dx_acc);
            if (need_d)
              pgd[t * channels + ch] += static_cast<float>(ddelta_acc);
          }
        }
      });
}

}  // namespace sdmpeb::nn::ops
