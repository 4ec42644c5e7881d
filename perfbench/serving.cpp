// Serving phase: serve::Engine serves the family's serving model from
// MERSIT(8,2) artifacts, pool pinned to one worker, two replicas.  Load is
// open loop: one generator thread submits seeded Poisson arrivals at each
// fixed rate of the ladder, never waiting on responses, and every latency
// is timed from the request's due time.  Beside the requests a swapper
// thread hot-swaps the MERSIT(8,2) and MERSIT(8,3) generations at a fixed
// cadence; each swap installs new weight codes, which invalidates the
// replicas' prepacked weights.  Every served response must be bit-identical
// to the logits precomputed in setup for its input and artifact generation.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "nn/data.h"
#include "nn/gemm/qgemm.h"

namespace perfbench {
namespace {

constexpr const char* kModel = "model";
constexpr int kCalibImages = 64;
constexpr int kRequestPool = 64;
constexpr std::int64_t kSwapPeriodMs = 100;
/// Deadline and queue bound well past the 50 ms limit, so only a real
/// overload sheds, never a host stall at the light or heavy rate.
constexpr std::int64_t kDeadlineUs = 1'000'000;
constexpr std::size_t kQueueCapacity = 512;
constexpr double kHarvestTimeoutS = 30.0;
/// Requests per window: enough for a p99 with ten samples beyond it.
constexpr double kWindowRequests = 1100.0;
/// Shortest window, so a high probe rate still builds its queue.
constexpr double kMinWindowS = 0.5;
constexpr const char* kGenFormat[2] = {"MERSIT(8,2)", "MERSIT(8,3)"};

serve::EngineOptions engine_options() {
  serve::EngineOptions o;
  o.replicas = 2;
  o.max_batch = 8;
  o.batch_delay_us = 200;
  o.default_deadline_us = kDeadlineUs;
  o.queue_capacity = kQueueCapacity;
  o.watchdog_period_us = 2'000;
  return o;
}

/// Generation served under artifact sequence `seq`: setup installs A as
/// sequence 1 and the swapper alternates, so odd sequences are A.
int generation(std::uint64_t seq) { return seq % 2 == 1 ? 0 : 1; }

void swap_to(serve::Engine& eng, const ServeSetup& s, int g) {
  std::istringstream mct1(s.mct1), mqt1(s.mqt1[g]);
  eng.swap_artifacts(kModel, mct1, mqt1, s.fmt[g]);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::unique_ptr<ServeSetup> setup_serving(const Family& fam, const Models& models,
                                          std::uint32_t seed, PtqTimes& ptq_times, Result& res) {
  core::resize_global_pool(1);
  nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kCode);
  auto s = std::make_unique<ServeSetup>();
  s->model = models.get(fam.serve_model);
  nn::fold_all_batchnorms(*s->model);
  const nn::Dataset calib =
      nn::make_vision_dataset(kCalibImages, 3, kImg, derive(seed, 21));
  std::int64_t t0 = now_ns();
  const ptq::CalibrationTable table = ptq::calibrate_model(*s->model, calib);
  ptq_times.calibrate_s += static_cast<double>(now_ns() - t0) / 1e9;
  std::ostringstream mct1;
  table.save(mct1);
  s->mct1 = std::move(mct1).str();

  const nn::Dataset pool =
      nn::make_vision_dataset(kRequestPool, 3, kImg, derive(seed, 22));
  const std::int64_t numel = 3 * kImg * kImg;
  for (int i = 0; i < kRequestPool; ++i) {
    nn::Tensor x({3, kImg, kImg});
    std::memcpy(x.raw(), pool.inputs.raw() + i * numel, numel * sizeof(float));
    s->inputs.push_back(std::move(x));
  }

  for (int g = 0; g < 2; ++g) {
    s->fmt[g] = core::make_format(kGenFormat[g]);
    std::ostringstream mqt1;
    ptq::pack_weights(*s->model, *s->fmt[g]).save(mqt1);
    s->mqt1[g] = std::move(mqt1).str();

    // Expected logits: the artifact loaded and installed by the ptq layer
    // directly, outside the engine, over the whole request pool at once.
    nn::ModulePtr ref = s->model->clone();
    std::istringstream tin(s->mct1), win(s->mqt1[g]);
    t0 = now_ns();
    const ptq::ArtifactPair pair = ptq::load_artifact_pair(tin, win, *s->fmt[g], *ref);
    ptq_times.artifact_load_ms += ms(now_ns() - t0);
    t0 = now_ns();
    ptq::install_code_weights(*ref, pair.weights, *s->fmt[g],
                              formats::CorruptionPolicy::kZeroSubstitute);
    ptq_times.install_codes_ms += ms(now_ns() - t0);
    ptq::FakeQuantizer fq(pair.table, *s->fmt[g], formats::ScalePolicy::kMaxToUnity);
    fq.set_input_quantization(true);
    nn::Tensor batch = pool.inputs;
    fq.on_input(batch);
    const nn::Tensor out = ref->run(batch, nn::Context{false, &fq});
    const int classes = out.dim(1);
    for (int i = 0; i < kRequestPool; ++i) {
      nn::Tensor row({classes});
      std::memcpy(row.raw(), out.raw() + i * classes, classes * sizeof(float));
      s->expected[g].push_back(std::move(row));
    }
  }

  s->engine = std::make_unique<serve::Engine>(engine_options());
  s->engine->register_model(kModel, *s->model,
                            serve::ModelConfig{{3, kImg, kImg}, true,
                                               formats::ScalePolicy::kMaxToUnity});
  swap_to(*s->engine, *s, 0);

  // Warm both replicas' packs and check the quiesced engine once.
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < kRequestPool; ++i)
    futs.push_back(s->engine->submit(kModel, s->inputs[i], 10'000'000));
  for (int i = 0; i < kRequestPool; ++i) {
    const serve::Response r = futs[i].get();
    res.check(r.ok && r.artifact_seq == 1 && same_bits(r.output, s->expected[0][i]),
              "quiesced engine response differs from the precomputed logits");
  }
  return s;
}

ServeRun::ServeRun(ServeSetup& s, const Family& fam, std::uint32_t seed, Tracer& tracer,
                   Result& res)
    : s_(s), fam_(fam), tracer_(tracer), res_(res), rng_(derive(seed, 23)),
      before_(s.engine->stats()), rungs_(fam.ladder.size()), ok_(fam.ladder.size()),
      shed_(fam.ladder.size()), failed_(fam.ladder.size()) {
  for (std::size_t ri = 0; ri < fam.ladder.size(); ++ri) rungs_[ri].rate = fam.ladder[ri];
}

double ServeRun::window_seconds(std::size_t ri) const {
  return std::max(kWindowRequests / fam_.ladder[ri], kMinWindowS);
}

std::vector<std::size_t> ServeRun::plan(double seconds) const {
  // Light and heavy windows recur in every cycle, filling about 40% of the
  // run, and their metrics are medians over windows, so one stall of the
  // host moves one window rather than the result; each probe rung runs
  // once, spread over the cycles.
  const auto light = static_cast<std::size_t>(fam_.light);
  const auto heavy = static_cast<std::size_t>(fam_.heavy);
  const auto cycles = static_cast<std::size_t>(std::clamp(
      std::round(0.4 * seconds / (window_seconds(light) + window_seconds(heavy))), 1.0, 16.0));
  std::vector<std::size_t> probes;
  for (std::size_t ri = 0; ri < fam_.ladder.size(); ++ri)
    if (ri != light && ri != heavy) probes.push_back(ri);
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < cycles; ++c) {
    order.push_back(light);
    order.push_back(heavy);
    for (std::size_t i = c; i < probes.size(); i += cycles) order.push_back(probes[i]);
  }
  return order;
}

void ServeRun::window(std::size_t ri) {
  if (core::global_pool().size() != 1) core::resize_global_pool(1);
  nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kCode);
  serve::Engine& eng = *s_.engine;
  const double rate = fam_.ladder[ri];
  const bool gated = ri == static_cast<std::size_t>(fam_.light) ||
                     ri == static_cast<std::size_t>(fam_.heavy);

  // --- swapper: fixed cadence, alternating generations, while requests fly
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;  // guarded by mu
  std::vector<std::pair<std::int64_t, std::int64_t>> swaps;  // swapper-owned until join
  int swap_failures = 0;
  std::thread swapper([&] {
    auto next = std::chrono::steady_clock::now();
    for (;;) {
      next += std::chrono::milliseconds(kSwapPeriodMs);
      {
        std::unique_lock<std::mutex> lock(mu);
        if (cv.wait_until(lock, next, [&] { return stop; })) return;
      }
      const int g = generation(eng.artifact_seq(kModel) + 1);
      const std::int64_t t0 = now_ns();
      try {
        swap_to(eng, s_, g);
        swaps.emplace_back(t0, now_ns());
      } catch (const std::exception&) {
        ++swap_failures;
      }
    }
  });

  // --- open-loop generation: a fixed number of seeded Poisson arrivals, at
  // least kMinWindowS long, so every window carries the same sample count.
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> pick(0, kRequestPool - 1);
  const auto count = static_cast<std::size_t>(std::ceil(window_seconds(ri) * rate));
  std::vector<std::int64_t> due(count);
  std::vector<int> idx(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng_);
    due[i] = static_cast<std::int64_t>(t * 1e9);
    idx[i] = pick(rng_);
  }
  std::vector<std::future<serve::Response>> futs;
  futs.reserve(count);
  std::vector<std::int64_t> sent(count);
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < count; ++i) {
    due[i] += t0;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due[i])));
    sent[i] = now_ns();
    futs.push_back(eng.submit(kModel, s_.inputs[idx[i]]));
  }
  const std::int64_t gen_end = due.back();

  // --- harvest and check --------------------------------------------------
  Rung& rung = rungs_[ri];
  rung.seconds += static_cast<double>(gen_end - t0) / 1e9;
  std::vector<double> lat_ms;
  std::size_t outstanding = 0;
  for (std::size_t i = 0; i < count; ++i) {
    late_ms_.push_back(ms(sent[i] - due[i]));
    if (futs[i].wait_for(std::chrono::duration<double>(kHarvestTimeoutS)) !=
        std::future_status::ready) {
      res_.check(false, "request future unresolved (engine hang)");
      rung.latency_ms.push_back(miss());
      ++failed_[ri];
      continue;
    }
    const serve::Response r = futs[i].get();
    if (!r.ok) {
      rung.latency_ms.push_back(miss());
      if (r.reason == serve::RejectReason::kReplicaFailure) {
        res_.check(false, "replica failure: " + r.error);
        ++failed_[ri];
      } else {
        // Shedding past saturation is a miss, not a failure, on the rungs
        // that probe for slo_qps; the light and heavy rates are meant to be
        // served in full.
        if (gated) res_.check(false, "request shed at the light or heavy rate");
        else ++res_.attempted;
        ++shed_[ri];
      }
      continue;
    }
    const bool right = r.artifact_seq > 0 &&
                       same_bits(r.output, s_.expected[generation(r.artifact_seq)][idx[i]]);
    res_.check(right, "served logits differ from the precomputed logits of their generation");
    if (!right) {
      rung.latency_ms.push_back(miss());
      ++failed_[ri];
      continue;
    }
    ++ok_[ri];
    const std::int64_t done = sent[i] + r.total_ns;
    const double lat = ms(done - due[i]);
    rung.latency_ms.push_back(lat);
    lat_ms.push_back(lat);
    if (done > gen_end) ++outstanding;
    if (ri == static_cast<std::size_t>(fam_.heavy)) {
      heavy_queue_ms_.push_back(ms(r.queue_ns));
      heavy_service_ms_.push_back(ms(r.total_ns - r.queue_ns));
    }
    if (tracer_.enabled()) {
      const std::uint64_t id = next_id_++;
      const int root = tracer_.add("serve.request", id, -1, due[i], done);
      tracer_.add("serve.generator_late", id, root, due[i], sent[i]);
      tracer_.add("serve.queue", id, root, sent[i], sent[i] + r.queue_ns);
      tracer_.add("serve.service", id, root, sent[i] + r.queue_ns, done);
    }
  }
  rung.outstanding_at_end = std::max(rung.outstanding_at_end, outstanding);
  if (ri == static_cast<std::size_t>(fam_.light)) {
    light_p50_.push_back(percentile(lat_ms, 50));
    light_p99_.push_back(percentile(lat_ms, 99));
  } else if (ri == static_cast<std::size_t>(fam_.heavy)) {
    heavy_p50_.push_back(percentile(lat_ms, 50));
    heavy_p99_.push_back(percentile(lat_ms, 99));
  }

  {
    const std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  swapper.join();
  res_.attempted += swaps.size();
  res_.check(swap_failures == 0, "an artifact hot-swap under load failed");
  for (const auto& [a, b] : swaps) {
    swap_ms_.push_back(ms(b - a));
    tracer_.add("serve.swap", next_id_++, -1, a, b);
  }
}

void ServeRun::finish() {
  const std::size_t n = fam_.ladder.size();
  for (std::size_t ri = 0; ri < n; ++ri) {
    Rung& rung = rungs_[ri];
    rung.served_qps = rung.seconds > 0 ? static_cast<double>(ok_[ri]) / rung.seconds : 0.0;
    res_.detail.push_back(
        "\"rung_" + std::to_string(static_cast<int>(rung.rate)) + "\": {\"sent\": " +
        std::to_string(rung.latency_ms.size()) + ", \"succeeded\": " + std::to_string(ok_[ri]) +
        ", \"shed\": " + std::to_string(shed_[ri]) + ", \"failed\": " +
        std::to_string(failed_[ri]) + ", \"latency_ms\": " +
        summary_json(summarize(rung.latency_ms)) + ", \"outstanding_at_end\": " +
        std::to_string(rung.outstanding_at_end) + ", \"served_qps\": " +
        json_num(rung.served_qps) + ", \"passes\": " +
        (rung_passes(rung, fam_.limit_ms) ? "true" : "false") + "}");
  }
  const auto windows = [](const std::vector<double>& v) {
    std::string o = "[";
    for (std::size_t i = 0; i < v.size(); ++i) o += (i > 0 ? ", " : "") + json_num(v[i]);
    return o + "]";
  };
  res_.detail.push_back("\"light_p99_windows\": " + windows(light_p99_));
  res_.detail.push_back("\"heavy_p99_windows\": " + windows(heavy_p99_));

  const serve::Engine::Stats after = s_.engine->stats();
  const int best = slo_rung(rungs_, fam_.limit_ms);
  res_.l("light_p50_ms", median(light_p50_), "ms");
  res_.l("light_p99_ms", median(light_p99_), "ms");
  res_.l("heavy_p50_ms", median(heavy_p50_), "ms");
  res_.l("heavy_p99_ms", median(heavy_p99_), "ms");
  res_.e("slo_qps", best >= 0 ? rungs_[static_cast<std::size_t>(best)].served_qps : 0.0, "1/s");
  res_.detail.push_back("\"slo_rate\": " +
                        json_num(best >= 0 ? fam_.ladder[static_cast<std::size_t>(best)] : 0.0));

  res_.l("serve.queue_wait_p50_ms", percentile(heavy_queue_ms_, 50), "ms");
  res_.l("serve.queue_wait_p99_ms", percentile(heavy_queue_ms_, 99), "ms");
  res_.l("serve.service_p50_ms", percentile(heavy_service_ms_, 50), "ms");
  res_.l("serve.service_p99_ms", percentile(heavy_service_ms_, 99), "ms");
  const double batches = static_cast<double>(after.batches - before_.batches);
  res_.l("serve.batch_size_mean",
         batches > 0 ? static_cast<double>(after.served - before_.served) / batches : 0.0,
         "requests");
  res_.l("serve.batches", batches, "count");
  res_.l("serve.shed_queue_full",
         static_cast<double>(after.shed_queue_full - before_.shed_queue_full), "count");
  res_.l("serve.shed_deadline",
         static_cast<double>(after.shed_deadline - before_.shed_deadline), "count");
  res_.l("serve.replica_failures",
         static_cast<double>(after.replica_failures - before_.replica_failures), "count");
  res_.l("serve.swap_ms_p50", percentile(swap_ms_, 50), "ms");
  res_.l("serve.swap_ms_p99", percentile(swap_ms_, 99), "ms");
  res_.l("serve.swaps", static_cast<double>(swap_ms_.size()), "count");
  res_.l("serve.generator_late_ms_p99", percentile(late_ms_, 99), "ms");
}

}  // namespace perfbench
