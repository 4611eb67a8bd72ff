// serve_open_loop: an open-loop Poisson arrival schedule at a fixed absolute
// rate, sent from one generator thread into a ServeRuntime over the
// default-scale frozen model, with every request and response passing
// through the wire protocol's encode/decode. The untraced run measures the
// low rate for the whole run; the traced run splits its time between the low
// and the high rate and reports both as per-layer rows.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "eval/dataset.hpp"
#include "litho/aerial.hpp"
#include "litho/dill.hpp"
#include "litho/mask.hpp"
#include "serve/frozen_model.hpp"
#include "serve/protocol.hpp"
#include "serve/serve.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sdmpeb;

namespace {

/// Seeded 16x32x32 photoacid volumes of varied contact content.
std::vector<Tensor> make_serve_inputs(std::uint64_t seed) {
  const auto config = clip_config(32);
  std::vector<Tensor> acids;
  for (const auto& clip : litho::generate_clips(config.mask, kServeClips, seed))
    acids.push_back(litho::exposure_to_photoacid(
                        litho::simulate_aerial_image(clip, config.aerial),
                        config.dill)
                        .to_tensor());
  return acids;
}

/// Due times (ns offsets from the phase start) of a Poisson arrival process
/// at `rate` requests/s over `seconds`.
std::vector<std::uint64_t> arrival_schedule(double rate, double seconds) {
  Rng rng(kArrivalSeed);
  std::vector<std::uint64_t> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
  return due;
}

/// What happened to one scheduled request. Written by the generator before
/// submit and by the response callback after; read only after drain(),
/// which joins the batcher thread.
struct RequestLog {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  serve::Status status = serve::Status::kOk;
  bool answered = false;
  bool label_ok = false;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
};

struct Phase {
  const serve::FrozenModel* model = nullptr;
  const std::vector<Tensor>* acids = nullptr;
  const std::vector<Tensor>* reference = nullptr;
  double rate = 0.0;     ///< requests/s
  double seconds = 0.0;  ///< schedule length
  std::uint64_t first_id = 0;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Run one open-loop phase; fills `<prefix>.*` rows (and, when `e2e`, the
/// end-to-end rows) and counts every request sent as attempted.
void run_phase(const Phase& phase, const std::string& prefix, bool e2e,
               Result& result) {
  serve::ServeConfig config;
  config.queue_capacity = 64;
  config.max_batch = 8;
  config.max_wait_ms = 5.0;
  config.default_deadline_ms = kServeDeadlineMs;

  const auto& acids = *phase.acids;
  const auto& reference = *phase.reference;
  const auto schedule = arrival_schedule(phase.rate, phase.seconds);
  std::vector<RequestLog> log(schedule.size());
  auto& tracer = Tracer::instance();
  std::uint64_t callbacks = 0;  // batcher thread only
  serve::ServeRuntime::Stats stats;
  const std::uint64_t t0 = now_ns() + 1'000'000;  // first due time 1 ms out
  {
    serve::ServeRuntime runtime(*phase.model, config);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const std::uint64_t id = phase.first_id + i;
      RequestLog& entry = log[i];
      entry.due_ns = t0 + schedule[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(entry.due_ns)));
      entry.sent_ns = now_ns();
      serve::RequestFrame frame;
      frame.id = id;
      frame.deadline_ms = static_cast<std::uint32_t>(kServeDeadlineMs);
      frame.acid = acids[i % acids.size()];
      Span encode("serve.protocol.encode", id);
      const std::string payload = serve::encode_request(frame);
      entry.encode_ms += encode.stop();
      Span decode("serve.protocol.decode", id);
      serve::RequestFrame received = serve::decode_request(payload);
      entry.decode_ms += decode.stop();

      serve::Request req;
      req.id = received.id;
      req.priority = received.priority;
      req.deadline_ms = received.deadline_ms;
      req.acid = std::move(received.acid);
      Span submit("serve.submit", id);
      const auto admission = runtime.submit(
          std::move(req), [&](serve::Response resp) {
            ++callbacks;
            const std::size_t k = resp.id - phase.first_id;
            RequestLog& e = log[k];
            serve::ResponseFrame out;
            out.id = resp.id;
            out.status = resp.status;
            out.label = std::move(resp.label);
            out.error = resp.error;
            Span enc("serve.protocol.encode", resp.id);
            const std::string bytes = serve::encode_response(out);
            e.encode_ms += enc.stop();
            Span dec("serve.protocol.decode", resp.id);
            const serve::ResponseFrame back = serve::decode_response(bytes);
            e.decode_ms += dec.stop();
            e.done_ns = now_ns();
            e.answered = true;
            e.status = back.status;
            e.queue_ms = resp.queue_ms;
            e.service_ms = resp.total_ms - resp.queue_ms;
            e.label_ok = back.status == serve::Status::kOk &&
                         bitwise_equal(back.label, reference[k % reference.size()]);
            // One track per in-flight slot keeps request spans from overlapping.
            const auto slot = static_cast<std::uint32_t>(1000 + back.id % 128);
            const std::string slot_name = "request slot " + std::to_string(back.id % 128);
            tracer.record("serve.request", back.id, e.due_ns, e.done_ns, slot,
                          slot_name);
            tracer.record("serve.queue_wait", back.id, e.sent_ns,
                          e.sent_ns + static_cast<std::uint64_t>(resp.queue_ms * 1e6),
                          slot, slot_name);
          });
      submit.stop();
      if (!admission.accepted) {
        entry.status = admission.status;
        entry.done_ns = now_ns();
      }
    }
    runtime.drain();
    stats = runtime.stats();
  }

  // --- checks and statistics ---------------------------------------------------
  std::vector<double> latency_ms, queue_ms, service_ms, encode_ms, decode_ms;
  std::uint64_t ok_in_limit = 0, label_errors = 0, rejected = 0;
  std::uint64_t last_done = t0;
  double late_max = 0.0;
  for (const auto& e : log) {
    ++result.attempted;
    late_max = std::max(late_max, static_cast<double>(e.sent_ns - e.due_ns) / 1e6);
    encode_ms.push_back(e.encode_ms);
    decode_ms.push_back(e.decode_ms);
    last_done = std::max(last_done, e.done_ns);
    if (!e.answered || e.status != serve::Status::kOk || !e.label_ok) {
      ++result.failed;
      if (!e.answered) ++rejected;
      if (e.answered && e.status == serve::Status::kOk) ++label_errors;
      continue;
    }
    const double ms = static_cast<double>(e.done_ns - e.due_ns) / 1e6;
    latency_ms.push_back(ms);
    queue_ms.push_back(e.queue_ms);
    service_ms.push_back(e.service_ms);
    if (ms <= kServeLatencyLimitMs) ++ok_in_limit;
  }
  if (label_errors > 0)
    result.violation(prefix + ": " + std::to_string(label_errors) +
                     " kOk responses differ from a direct FrozenModel::infer");
  if (stats.responses() != stats.accepted || callbacks != stats.accepted)
    result.violation(prefix + ": exactly-once broken: accepted " +
                     std::to_string(stats.accepted) + ", terminal " +
                     std::to_string(stats.responses()) + ", callbacks " +
                     std::to_string(callbacks));
  if (late_max > kServeLateBoundMs)
    result.violation(prefix + ": phase invalid, generator ran " +
                     std::to_string(late_max) + " ms late (bound " +
                     std::to_string(kServeLateBoundMs) + " ms)");

  const double phase_s = static_cast<double>(last_done - t0) / 1e9;
  const double goodput =
      phase_s > 0.0 ? static_cast<double>(ok_in_limit) / phase_s : 0.0;
  if (e2e) report_latency("kOk requests", latency_ms, result);
  auto& m = result.metrics;
  m[prefix + ".offered_per_s"] = phase.rate;
  m[prefix + ".latency_ms_p50"] = median(latency_ms);
  m[prefix + ".latency_ms_p90"] = percentile(latency_ms, 0.9);
  m[prefix + ".goodput_per_s"] = goodput;
  m[prefix + ".queue_wait_ms_p50"] = median(queue_ms);
  m[prefix + ".queue_wait_ms_p90"] = percentile(queue_ms, 0.9);
  m[prefix + ".service_ms_p50"] = median(service_ms);
  m[prefix + ".batch_size_mean"] =
      stats.batches > 0 ? static_cast<double>(stats.accepted) /
                              static_cast<double>(stats.batches)
                        : 0.0;
  m[prefix + ".queue_depth_peak"] = static_cast<double>(stats.queue_depth_peak);
  m[prefix + ".rejected"] = static_cast<double>(rejected);
  m[prefix + ".expired"] = static_cast<double>(stats.expired);
  m[prefix + ".shed"] = static_cast<double>(stats.shed);
  m[prefix + ".gen_late_ms_max"] = late_max;
  m[prefix + ".ok_share"] = log.empty() ? 0.0
                                         : static_cast<double>(ok_in_limit) /
                                               static_cast<double>(log.size());
  m["serve.protocol.encode_ms"] = median(encode_ms);
  m["serve.protocol.decode_ms"] = median(decode_ms);

  char line[240];
  std::snprintf(line, sizeof(line),
                "%s: %.2f req/s offered, %zu sent, %zu kOk, %llu within %.0f ms "
                "(latency samples %zu); generator late max %.2f ms",
                prefix.c_str(), phase.rate, log.size(), latency_ms.size(),
                static_cast<unsigned long long>(ok_in_limit),
                kServeLatencyLimitMs, latency_ms.size(), late_max);
  result.note(line);
}

}  // namespace

void run_serve_open_loop(const Options& opt, Result& result) {
  const std::string ckpt = opt.out_dir + "/serve.ckpt";
  std::vector<Tensor> acids;
  std::unique_ptr<serve::FrozenModel> model;
  write_checkpoint(ckpt);
  result.metrics["setup_s"] = median_setup_s([&] {
    acids = make_serve_inputs(opt.seed);
    model = std::make_unique<serve::FrozenModel>(
        "sdm", serve::ModelScale::kDefault, ckpt, Shape({16, 32, 32}));
  });
  // Reference: a direct forward of each clip on the same backend.
  std::vector<Tensor> reference;
  on_all_cores([&] {
    for (const auto& acid : acids) reference.push_back(model->infer(acid));
  });
  if (opt.wrong_reference)
    for (auto& ref : reference) ref[0] += 1.0f;

  Phase phase{model.get(), &acids, &reference, kServeLowRate, opt.seconds, 0};
  if (!opt.trace) {
    run_phase(phase, "serve.low", true, result);
    return;
  }
  Tracer::instance().enable(true);
  phase.seconds = opt.seconds / 2;
  run_phase(phase, "serve.low", false, result);
  phase.rate = kServeHighRate;
  phase.first_id = 1'000'000;
  run_phase(phase, "serve.high", false, result);
}

}  // namespace perfbench
