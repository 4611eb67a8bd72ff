// surrogate_flow and rigorous_flow: the mask -> CD lithography flow on
// seeded contact clips, closed loop with one client, with the PEB stage
// either the frozen SDM-PEB surrogate or the rigorous ADI solver.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/label_transform.hpp"
#include "develop/eikonal.hpp"
#include "develop/mack.hpp"
#include "develop/profile.hpp"
#include "eval/dataset.hpp"
#include "litho/aerial.hpp"
#include "litho/dill.hpp"
#include "litho/mask.hpp"
#include "nn/serialize.hpp"
#include "peb/peb_solver.hpp"
#include "serve/frozen_model.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sdmpeb;

namespace {

struct FlowInputs {
  eval::DatasetConfig config = clip_config(64);
  core::LabelTransform transform = label_transform(config);
  develop::EikonalSpacing spacing;
  std::vector<litho::MaskClip> clips;
  std::vector<Grid3> acid0;  ///< exposure of each clip (reference inputs)

  FlowInputs(std::uint64_t seed, int count) {
    spacing = {config.peb.dx_nm, config.peb.dy_nm, config.peb.dz_nm};
    clips = litho::generate_clips(config.mask, count, seed);
    for (const auto& clip : clips)
      acid0.push_back(litho::exposure_to_photoacid(
          litho::simulate_aerial_image(clip, config.aerial), config.dill));
  }
};

/// Per-clip output of the flow and the CPU share of its PEB stage.
struct ClipOutput {
  Grid3 inhibitor;
  Tensor label;  ///< surrogate only
  std::vector<develop::CdMeasurement> cds;
  double peb_cores_busy = 0.0;
};

using PebStage = std::function<Grid3(const Grid3& acid0, std::uint64_t id,
                                     ClipOutput& out)>;

/// mask -> aerial -> Dill -> PEB stage -> Mack -> Eikonal -> CDs. Returns
/// the clip's wall milliseconds.
double run_clip(const FlowInputs& in, const litho::MaskClip& clip,
                std::uint64_t id, const PebStage& peb_stage,
                ClipOutput& out) {
  Span whole("flow.clip", id);
  Grid3 aerial;
  {
    Span s("litho.aerial", id);
    aerial = litho::simulate_aerial_image(clip, in.config.aerial);
  }
  Grid3 acid0;
  {
    Span s("litho.dill", id);
    acid0 = litho::exposure_to_photoacid(aerial, in.config.dill);
  }
  out.inhibitor = peb_stage(acid0, id, out);
  Grid3 rate;
  {
    Span s("develop.rate", id);
    rate = develop::development_rate(out.inhibitor, in.config.mack);
  }
  Grid3 front;
  {
    Span s("develop.eikonal", id);
    front = develop::solve_development_front(rate, in.spacing);
  }
  {
    Span s("develop.cd", id);
    out.cds = develop::measure_clip_cds(front, in.config.mack.develop_time_s,
                                        clip, acid0.depth() - 1);
  }
  return whole.stop();
}

/// CPU cores busy during fn: process CPU time over wall time.
template <typename Fn>
double cores_busy(Fn&& fn) {
  const double cpu0 = process_cpu_s();
  const double wall = time_s(fn);
  return wall > 0.0 ? (process_cpu_s() - cpu0) / wall : 0.0;
}

struct LoopStats {
  std::vector<double> clip_ms;
  std::vector<double> cores_busy;
  std::uint64_t ok = 0;
  double wall_s = 0.0;
};

/// Closed loop with one client for `seconds`, cycling through the clips.
/// `check` validates one clip's output against its set-up reference.
LoopStats closed_loop(const FlowInputs& in, double seconds,
                      std::uint64_t first_id, const PebStage& peb_stage,
                      const std::function<bool(std::size_t, const ClipOutput&)>& check,
                      Result& result) {
  LoopStats stats;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t id = first_id; now_ns() < t_end; ++id) {
    const std::size_t k = id % in.clips.size();
    ClipOutput out;
    rotate_cpu();
    stats.clip_ms.push_back(run_clip(in, in.clips[k], id, peb_stage, out));
    stats.cores_busy.push_back(out.peb_cores_busy);
    ++result.attempted;
    if (check(k, out)) {
      ++stats.ok;
    } else {
      ++result.failed;
    }
  }
  stats.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  unpin_cpu();
  return stats;
}

void report_loop(const LoopStats& stats, Result& result) {
  report_latency("clips", stats.clip_ms, result);
  char line[160];
  std::snprintf(line, sizeof(line), "clips correct: %llu, %.3f per second",
                static_cast<unsigned long long>(stats.ok),
                static_cast<double>(stats.ok) / stats.wall_s);
  result.note(line);
}

/// Per-layer rows shared by both flows, from the traced loop's spans.
void report_flow_layers(Result& result) {
  const auto totals = summarize(Tracer::instance().spans());
  const auto med = [&](const char* span) {
    const auto it = totals.total_ms.find(span);
    return it == totals.total_ms.end() ? 0.0 : median(values_of(it->second));
  };
  result.metrics["litho.aerial_ms"] = med("litho.aerial");
  result.metrics["litho.dill_ms"] = med("litho.dill");
  result.metrics["develop.rate_ms"] = med("develop.rate");
  result.metrics["develop.eikonal_ms"] = med("develop.eikonal");
  result.metrics["develop.cd_ms"] = med("develop.cd");
  result.metrics["core.predict_ms"] = med("core.predict");
  result.metrics["core.label_inverse_ms"] = med("core.label_inverse");
  result.metrics["peb.bake_ms"] = med("peb.bake");
  const auto flow = totals.self_ms.find("flow.clip");
  if (flow != totals.self_ms.end())
    result.metrics["flow.unattributed_ms"] = median(values_of(flow->second));
}

bool same_cds(const std::vector<develop::CdMeasurement>& a,
              const std::vector<develop::CdMeasurement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].cd_x_nm != b[i].cd_x_nm || a[i].cd_y_nm != b[i].cd_y_nm ||
        a[i].resolved != b[i].resolved)
      return false;
  return true;
}

}  // namespace

eval::DatasetConfig clip_config(std::int64_t lateral) {
  auto config = eval::DatasetConfig::small();
  config.mask.height = lateral;
  config.mask.width = lateral;
  // The 6 px keep-out border leaves too little room for a contact at 32 px.
  config.mask.margin_px = std::min<std::int64_t>(config.mask.margin_px, lateral / 8);
  return config;
}

void write_checkpoint(const std::string& path) {
  Rng rng(kModelSeed);
  nn::save_parameters(
      *serve::make_peb_net("sdm", serve::ModelScale::kDefault, rng), path);
}

core::LabelTransform label_transform(const eval::DatasetConfig& config) {
  core::LabelTransform transform;
  transform.kc = config.peb.catalysis_coeff;
  transform.offset = 6.0;
  transform.scale = 0.25;
  return transform;
}

void run_surrogate_flow(const Options& opt, Result& result) {
  const std::string ckpt = opt.out_dir + "/surrogate.ckpt";
  const Shape shape({16, 64, 64});
  std::unique_ptr<FlowInputs> in;
  std::unique_ptr<serve::FrozenModel> model;
  write_checkpoint(ckpt);
  // Program set-up: inputs, and the checkpoint loaded through FrozenModel
  // (validation + warm-up forward).
  result.metrics["setup_s"] = median_setup_s([&] {
    in = std::make_unique<FlowInputs>(opt.seed, kSurrogateClips);
    model = std::make_unique<serve::FrozenModel>(
        "sdm", serve::ModelScale::kDefault, ckpt, shape);
  });

  // Reference forwards on the scalar backend with one thread.
  const auto isa = simd::active();
  const int threads = parallel::thread_count();
  simd::set_active(simd::Isa::kScalar);
  parallel::set_thread_count(1);
  std::vector<Tensor> reference;
  for (const auto& acid : in->acid0) reference.push_back(model->infer(acid.to_tensor()));
  simd::set_active(isa);
  parallel::set_thread_count(threads);
  if (opt.wrong_reference)
    for (auto& ref : reference) ref[0] += 1.0f;

  double worst_rel = 0.0;
  const auto check = [&](std::size_t k, const ClipOutput& out) {
    const Tensor& ref = reference[k];
    if (out.label.shape() != ref.shape()) return false;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      const double y = out.label[i];
      const double r = ref[i];
      if (!std::isfinite(y)) return false;
      const double rel = std::abs(y - r) / std::max(1.0, std::abs(r));
      if (rel > worst_rel) worst_rel = rel;
      if (rel > kSurrogateTolerance) return false;
    }
    return true;
  };
  const PebStage surrogate = [&](const Grid3& acid0, std::uint64_t id,
                                 ClipOutput& out) {
    const Tensor acid = acid0.to_tensor();
    out.peb_cores_busy = cores_busy([&] {
      Span s("core.predict", id);
      out.label = model->infer(acid);
    });
    Span s("core.label_inverse", id);
    return in->transform.to_inhibitor(out.label);
  };

  if (!opt.trace) {
    report_loop(closed_loop(*in, opt.seconds, 0, surrogate, check, result),
                result);
  } else {
    // Same loop untraced then traced; the p50 difference is the tracing
    // overhead.
    const auto plain =
        closed_loop(*in, opt.seconds / 2, 0, surrogate, check, result);
    Tracer::instance().enable(true);
    const auto traced = closed_loop(*in, opt.seconds / 2,
                                    plain.clip_ms.size(), surrogate, check,
                                    result);
    result.metrics["trace.overhead_ms"] =
        median(traced.clip_ms) - median(plain.clip_ms);
    result.metrics["core.predict_cores_busy"] = median(traced.cores_busy);
    report_flow_layers(result);
    replay_layers(
        [&] { (void)model->infer(in->acid0.front().to_tensor()); }, result);
  }
  if (result.failed > 0)
    result.violation(std::to_string(result.failed) +
                     " surrogate outputs outside tolerance of the reference");
  char line[160];
  std::snprintf(line, sizeof(line),
                "surrogate vs scalar 1-thread reference: worst rel err %.3g "
                "(tolerance %.0e)",
                worst_rel, kSurrogateTolerance);
  result.note(line);
}

void run_rigorous_flow(const Options& opt, Result& result) {
  std::unique_ptr<FlowInputs> in;
  std::unique_ptr<peb::PebSolver> solver;
  result.metrics["setup_s"] = median_setup_s([&] {
    in = std::make_unique<FlowInputs>(opt.seed, kRigorousClips);
    solver = std::make_unique<peb::PebSolver>(in->config.peb);
  });

  const PebStage rigorous = [&](const Grid3& acid0, std::uint64_t id,
                                ClipOutput& out) {
    Grid3 inhibitor;
    out.peb_cores_busy = cores_busy([&] {
      Span s("peb.bake", id);
      inhibitor = solver->run(acid0).inhibitor;
    });
    return inhibitor;
  };
  // Reference: the same flow run once per clip at set-up, on all cores.
  std::vector<ClipOutput> reference(in->clips.size());
  on_all_cores([&] {
    for (std::size_t k = 0; k < in->clips.size(); ++k)
      run_clip(*in, in->clips[k], k, rigorous, reference[k]);
  });
  if (opt.wrong_reference)
    for (auto& ref : reference)
      ref.inhibitor.data()[0] = std::nextafter(ref.inhibitor.data()[0], 2.0);

  const auto check = [&](std::size_t k, const ClipOutput& out) {
    const Grid3& ref = reference[k].inhibitor;
    if (out.inhibitor.min() < 0.0 || out.inhibitor.max() > 1.0) return false;
    if (out.inhibitor.numel() != ref.numel() ||
        std::memcmp(out.inhibitor.data().data(), ref.data().data(),
                    ref.data().size_bytes()) != 0)
      return false;
    return same_cds(out.cds, reference[k].cds);
  };

  const auto retries0 = obs::counter("peb.divergence_retries").value();
  if (opt.trace) Tracer::instance().enable(true);
  const auto stats =
      closed_loop(*in, opt.seconds, 0, rigorous, check, result);
  if (!opt.trace) {
    report_loop(stats, result);
  } else {
    report_flow_layers(result);
    const auto& p = in->config.peb;
    const double steps = std::ceil(p.duration_s / p.dt_s - 1e-9);
    result.metrics["peb.steps"] = steps;
    result.metrics["peb.step_ms"] = result.metrics["peb.bake_ms"] / steps;
    result.metrics["peb.cores_busy"] = median(stats.cores_busy);
    result.metrics["peb.divergence_retries"] = static_cast<double>(
        obs::counter("peb.divergence_retries").value() - retries0);
  }
  if (result.failed > 0)
    result.violation(std::to_string(result.failed) +
                     " rigorous outputs differ from the set-up reference");
}

}  // namespace perfbench
