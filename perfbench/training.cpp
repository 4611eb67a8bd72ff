// train_steps: closed-loop Adam steps (accumulation 1) on seeded 16x32x32
// clips whose labels come from the rigorous solver, driven through the
// public forward -> combined_loss -> nn::backward -> Adam::step path.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/label_transform.hpp"
#include "core/losses.hpp"
#include "eval/dataset.hpp"
#include "litho/aerial.hpp"
#include "litho/dill.hpp"
#include "litho/mask.hpp"
#include "nn/optim.hpp"
#include "peb/peb_solver.hpp"
#include "serve/frozen_model.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sdmpeb;

namespace {

struct StepTimes {
  double forward_ms = 0.0;
  double loss_ms = 0.0;
  double backward_ms = 0.0;
  double optim_ms = 0.0;
  double total_ms = 0.0;
  double cores_busy = 0.0;
  float loss = 0.0f;
  bool finite = true;
};

nn::Adam::Options adam_options() {
  // The trainer's defaults (core/trainer.hpp TrainConfig).
  nn::Adam::Options options;
  options.lr = 3e-3f;
  options.grad_clip_norm = 1.0f;
  return options;
}

StepTimes train_step(core::PebNet& model, nn::Adam& adam, const Tensor& acid,
                     const Tensor& label, std::uint64_t id) {
  StepTimes t;
  const double cpu0 = process_cpu_s();
  Span step("train.step", id);
  nn::Value pred;
  {
    Span s("train.forward", id);
    pred = model.forward(nn::constant(acid.reshaped(
        Shape{1, acid.dim(0), acid.dim(1), acid.dim(2)})));
    t.forward_ms = s.stop();
  }
  nn::Value loss;
  {
    Span s("train.loss", id);
    loss = core::combined_loss(pred, nn::constant(label), core::LossConfig{});
    t.loss = loss->value()[0];
    t.loss_ms = s.stop();
  }
  t.finite = std::isfinite(t.loss);
  if (t.finite) {
    Span s("train.backward", id);
    nn::backward(loss);
    t.backward_ms = s.stop();
  }
  {
    Span s("train.optim", id);
    if (t.finite) t.finite = adam.step();
    model.zero_grad();
    t.optim_ms = s.stop();
  }
  t.total_ms = step.stop();
  t.cores_busy = (process_cpu_s() - cpu0) / (t.total_ms / 1e3);
  return t;
}

std::uint32_t float_bits(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

}  // namespace

void run_train_steps(const Options& opt, Result& result) {
  const auto config = clip_config(kTrainLateral);
  const auto transform = label_transform(config);
  std::vector<Tensor> acids, labels;
  std::unique_ptr<core::PebNet> model;
  std::unique_ptr<nn::Adam> adam;
  // Program set-up: inputs, labels from the rigorous solver, model and
  // optimiser.
  result.metrics["setup_s"] = median_setup_s([&] {
    acids.clear();
    labels.clear();
    const peb::PebSolver solver(config.peb);
    for (const auto& clip :
         litho::generate_clips(config.mask, kTrainClips, opt.seed)) {
      const auto acid0 = litho::exposure_to_photoacid(
          litho::simulate_aerial_image(clip, config.aerial), config.dill);
      acids.push_back(acid0.to_tensor());
      labels.push_back(transform.to_label(solver.run(acid0).inhibitor));
    }
    Rng rng(kModelSeed);
    model = serve::make_peb_net("sdm", serve::ModelScale::kDefault, rng);
    adam = std::make_unique<nn::Adam>(model->parameters(), adam_options());
  });

  // Episodes restart from the initial weights with a fresh optimiser, so
  // every step has a bitwise set-up reference loss.
  std::vector<Tensor> initial;
  for (const auto& p : model->parameters()) initial.push_back(p->value());
  const auto restart = [&] {
    const auto params = model->parameters();
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i]->value() = initial[i];
    model->zero_grad();
    adam = std::make_unique<nn::Adam>(params, adam_options());
  };
  std::vector<float> reference;
  on_all_cores([&] {
    for (int s = 0; s < kTrainEpisodeSteps; ++s)
      reference.push_back(train_step(*model, *adam, acids[s % kTrainClips],
                                     labels[s % kTrainClips], s)
                              .loss);
  });
  if (opt.wrong_reference)
    for (auto& ref : reference) ref = std::nextafter(ref, 1e30f);

  if (opt.trace) Tracer::instance().enable(true);
  std::vector<StepTimes> steps;
  std::uint64_t ok = 0, nonfinite = 0;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t id = 0; now_ns() < t_end; ++id) {
    const int s = static_cast<int>(id % kTrainEpisodeSteps);
    if (s == 0) restart();
    rotate_cpu();
    const auto t = train_step(*model, *adam, acids[s % kTrainClips],
                              labels[s % kTrainClips], id);
    steps.push_back(t);
    ++result.attempted;
    if (!t.finite) ++nonfinite;
    if (t.finite && float_bits(t.loss) == float_bits(reference[s])) {
      ++ok;
    } else {
      ++result.failed;
    }
  }
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  unpin_cpu();
  if (result.failed > 0)
    result.violation(std::to_string(result.failed) +
                     " steps whose loss differs from the set-up reference");

  const auto collect = [&](double StepTimes::*field) {
    std::vector<double> v;
    for (const auto& t : steps) v.push_back(t.*field);
    return median(v);
  };
  std::vector<double> step_ms;
  for (const auto& t : steps) step_ms.push_back(t.total_ms);
  report_latency("steps", step_ms, result);
  result.metrics["train.forward_ms"] = collect(&StepTimes::forward_ms);
  result.metrics["train.loss_ms"] = collect(&StepTimes::loss_ms);
  result.metrics["train.backward_ms"] = collect(&StepTimes::backward_ms);
  result.metrics["train.optim_ms"] = collect(&StepTimes::optim_ms);
  result.metrics["train.cores_busy"] = collect(&StepTimes::cores_busy);
  result.metrics["train.backward_over_forward"] =
      result.metrics["train.backward_ms"] / result.metrics["train.forward_ms"];
  result.metrics["train.nonfinite_skips"] = static_cast<double>(nonfinite);
  char line[160];
  std::snprintf(line, sizeof(line),
                "steps matching the reference loss: %llu, %.3f per second",
                static_cast<unsigned long long>(ok),
                static_cast<double>(ok) / wall_s);
  result.note(line);
}

}  // namespace perfbench
