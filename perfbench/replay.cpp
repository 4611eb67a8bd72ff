// Traced-run layer replay. The frozen model keeps its layers private, so the
// benchmark rebuilds the default-scale architecture from the public core/nn
// layer classes (untrained, seeded) and times each layer at the exact shapes
// a 16x64x64 forward feeds it. Each iteration also times one real forward;
// the part of it the replayed layers do not account for (residual adds,
// sequence/feature reshapes) is reported as core.replay_unattributed_ms.

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/attention.hpp"
#include "core/sdm_peb_model.hpp"
#include "core/sdm_unit.hpp"
#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sdmpeb;
namespace nnops = nn::ops;

namespace {

constexpr int kReplayIterations = 3;
constexpr std::uint64_t kReplayIdBase = 1'000'000;
constexpr std::int64_t kDepth = 16;
constexpr std::int64_t kLateral = 64;

struct StageLayers {
  std::int64_t channels, height, width;
  nn::Conv2dPerDepth patch_embed;
  nn::LayerNorm norm_attn;
  core::EfficientSpatialSelfAttention attention;
  nn::LayerNorm norm_ffn;
  nn::Mlp ffn;
  nn::LayerNorm norm_sdm;
  core::SdmUnit sdm;
  nn::DWConv3d refine;
  /// Inputs of one selective_scan call at this stage's shapes.
  nn::Value scan_x, scan_delta, scan_a_log, scan_b, scan_c, scan_d;
  std::string names[7];  ///< "core.stageN.<part>" span names

  StageLayers(const core::SdmPebConfig& c, std::size_t i,
              std::int64_t in_channels, std::int64_t lateral, Rng& rng)
      : channels(c.stage_channels[i]),
        height(lateral / c.patch_strides[i]),
        width(lateral / c.patch_strides[i]),
        patch_embed(in_channels, channels, c.patch_kernels[i],
                    c.patch_strides[i], c.patch_kernels[i] / 2, rng),
        norm_attn(channels),
        attention(channels, c.attn_heads[i], c.attn_reductions[i], rng),
        norm_ffn(channels),
        ffn(channels, c.mlp_ratio * channels, channels, rng),
        norm_sdm(channels),
        sdm(core::SdmUnitConfig{channels, 2 * channels, c.sdm_state_dim, 3,
                                c.scan_directions},
            rng),
        refine(channels, 3, 1, rng) {
    // The SDM unit's scans see (L, 2C) sequences with an N-state SSM.
    const std::int64_t len = kDepth * height * width;
    const std::int64_t hidden = 2 * channels;
    const std::int64_t states = c.sdm_state_dim;
    const auto random = [&rng](Shape shape, double scale) {
      Tensor t(shape);
      for (std::int64_t k = 0; k < t.numel(); ++k)
        t[k] = static_cast<float>(rng.normal(0.0, scale));
      return nn::constant(std::move(t));
    };
    scan_x = random(Shape{len, hidden}, 1.0);
    Tensor delta(Shape{len, hidden});
    for (std::int64_t k = 0; k < delta.numel(); ++k)
      delta[k] = static_cast<float>(std::log1p(std::exp(rng.normal(-2.0, 0.5))));
    scan_delta = nn::constant(std::move(delta));
    Tensor a_log(Shape{hidden, states});
    for (std::int64_t ch = 0; ch < hidden; ++ch)
      for (std::int64_t n = 0; n < states; ++n)
        a_log.at(ch, n) = std::log(static_cast<float>(n + 1));
    scan_a_log = nn::constant(std::move(a_log));
    scan_b = random(Shape{len, states}, 1.0);
    scan_c = random(Shape{len, states}, 1.0);
    scan_d = nn::constant(Tensor::full(Shape{hidden}, 1.0f));
    for (int p = 0; p < 7; ++p)
      names[p] = "core.stage" + std::to_string(i + 1) + "." + kStageParts[p];
  }

  /// Selective-scan flops per stage forward (three direction scans),
  /// counted from shapes: 8 per (step, channel, state), exp counted as one,
  /// plus the skip term's 1 per (step, channel).
  double scan_flops() const {
    const double len = static_cast<double>(kDepth * height * width);
    const double hidden = static_cast<double>(2 * channels);
    const double states = static_cast<double>(scan_a_log->value().dim(1));
    return 3.0 * len * hidden * (8.0 * states + 1.0);
  }
};

void freeze(const nn::Module& module) {
  for (const auto& p : module.parameters()) p->set_requires_grad(false);
}

}  // namespace

void replay_layers(const std::function<void()>& predict, Result& result) {
  const auto config = core::SdmPebConfig::default_scale();
  Rng rng(kModelSeed);
  nn::DWConv3d stem(1, config.stem_kernel, config.stem_kernel / 2, rng);
  std::vector<std::unique_ptr<StageLayers>> stages;
  std::int64_t in_channels = 1;
  std::int64_t lateral = kLateral;
  std::int64_t fused_channels = 0;
  for (std::size_t i = 0; i < config.stage_count(); ++i) {
    stages.push_back(
        std::make_unique<StageLayers>(config, i, in_channels, lateral, rng));
    in_channels = stages.back()->channels;
    lateral = stages.back()->height;
    fused_channels += in_channels;
  }
  nn::Mlp fusion(fused_channels, config.fusion_dim, config.fusion_dim, rng);
  // Decoder of the default scale: stage-1 stride 2 -> one stride-2
  // transpose conv, then two stride-1 layers; channels halve each layer.
  std::vector<std::unique_ptr<nn::ConvTranspose2dPerDepth>> decoder;
  std::int64_t channels = config.fusion_dim;
  std::int64_t remaining = config.patch_strides[0];
  for (int i = 0; i < 3; ++i) {
    const std::int64_t stride = remaining > 1 ? 2 : 1;
    remaining /= stride;
    const std::int64_t out = std::max<std::int64_t>(channels / 2, 4);
    decoder.push_back(std::make_unique<nn::ConvTranspose2dPerDepth>(
        channels, out, stride == 2 ? 4 : 3, stride, 1, rng));
    channels = out;
  }
  nn::Conv2dPerDepth head(channels, 1, 3, 1, 1, rng);
  freeze(stem);
  for (const auto& s : stages) {
    freeze(s->patch_embed);
    freeze(s->norm_attn);
    freeze(s->attention);
    freeze(s->norm_ffn);
    freeze(s->ffn);
    freeze(s->norm_sdm);
    freeze(s->sdm);
    freeze(s->refine);
  }
  freeze(fusion);
  for (const auto& d : decoder) freeze(*d);
  freeze(head);

  Tensor acid(Shape{1, kDepth, kLateral, kLateral});
  for (std::int64_t k = 0; k < acid.numel(); ++k)
    acid[k] = static_cast<float>(rng.uniform(0.0, 0.9));
  const auto input = nn::constant(std::move(acid));

  // name -> per-iteration sums
  std::map<std::string, std::vector<double>> ms;
  const auto add = [&ms](const std::string& name, int it, double v) {
    auto& row = ms[name];
    if (row.size() <= static_cast<std::size_t>(it)) row.resize(it + 1, 0.0);
    row[it] += v;
  };
  for (int it = 0; it < kReplayIterations; ++it) {
    const std::uint64_t id = kReplayIdBase + it;
    {
      Span s("core.replay.predict", id);
      predict();
      add("predict", it, s.stop());
    }
    nn::Value cur;
    {
      Span s("core.stem", id);
      cur = stem.forward(input);
      add("core.stem", it, s.stop());
    }
    std::vector<nn::Value> features;
    for (const auto& st : stages) {
      const auto timed = [&](int part, const std::function<nn::Value()>& fn) {
        Span s(st->names[part].c_str(), id);
        nn::Value v = fn();
        add(st->names[part], it, s.stop());
        return v;
      };
      const auto feat = timed(0, [&] { return st->patch_embed.forward(cur); });
      const auto d = feat->value().dim(1);
      const auto h = feat->value().dim(2);
      const auto w = feat->value().dim(3);
      auto seq = nnops::to_sequence(feat);
      auto n = timed(1, [&] { return st->norm_attn.forward(seq); });
      seq = nnops::add(seq, timed(2, [&] { return st->attention.forward(n, d, h, w); }));
      n = timed(1, [&] { return st->norm_ffn.forward(seq); });
      seq = nnops::add(seq, timed(3, [&] { return st->ffn.forward(n); }));
      n = timed(1, [&] { return st->norm_sdm.forward(seq); });
      const auto sdm = timed(4, [&] { return st->sdm.forward(n, d, h, w); });
      const auto refined = timed(5, [&] {
        return st->refine.forward(
            nnops::to_feature(sdm, st->channels, d, h, w));
      });
      seq = nnops::add(seq, nnops::to_sequence(refined));
      cur = nnops::to_feature(seq, st->channels, d, h, w);
      features.push_back(cur);
      for (int dir = 0; dir < 3; ++dir)
        timed(6, [&] {
          return nnops::selective_scan(st->scan_x, st->scan_delta,
                                       st->scan_a_log, st->scan_b, st->scan_c,
                                       st->scan_d);
        });
    }
    nn::Value decoded;
    {
      Span s("core.fusion", id);
      std::vector<nn::Value> pyramid;
      const auto base = features.front()->value().dim(2);
      for (const auto& f : features) {
        const auto factor = base / f->value().dim(2);
        pyramid.push_back(factor == 1 ? f : nnops::upsample_nearest_per_depth(f, factor));
      }
      const auto fused = fusion.forward(
          nnops::to_sequence(nnops::concat_channels(pyramid)));
      decoded = nnops::to_feature(fused, config.fusion_dim, kDepth, base, base);
      add("core.fusion", it, s.stop());
    }
    {
      Span s("core.decoder", id);
      for (std::size_t i = 0; i < decoder.size(); ++i) {
        decoded = decoder[i]->forward(decoded);
        if (i + 1 < decoder.size()) decoded = nnops::leaky_relu(decoded, 0.1f);
      }
      add("core.decoder", it, s.stop());
    }
    {
      Span s("core.head", id);
      (void)nnops::reshape(head.forward(decoded),
                           Shape{kDepth, kLateral, kLateral});
      add("core.head", it, s.stop());
    }
  }

  // Medians across iterations; the scan rows are a breakdown of the sdm
  // rows and stay out of the attributed sum.
  double attributed = 0.0;
  for (const auto& [name, row] : ms) {
    if (name == "predict") continue;
    const double m = median(row);
    result.metrics[name + "_ms"] = m;
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".scan") != 0)
      attributed += m;
  }
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const double scan_ms = result.metrics[stages[i]->names[6] + "_ms"];
    result.metrics["core.stage" + std::to_string(i + 1) + ".scan_gflops"] =
        scan_ms > 0.0 ? stages[i]->scan_flops() / (scan_ms * 1e-3) / 1e9 : 0.0;
  }
  const double predict_ms = median(ms["predict"]);
  result.metrics["core.replay_unattributed_ms"] = predict_ms - attributed;
  char line[160];
  std::snprintf(line, sizeof(line),
                "layer replay: forward %.1f ms, replayed layers %.1f ms "
                "(%.1f%% unattributed), %d iterations",
                predict_ms, attributed,
                100.0 * (predict_ms - attributed) / predict_ms,
                kReplayIterations);
  result.note(line);
}

}  // namespace perfbench
