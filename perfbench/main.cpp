// The repository benchmark: one process runs one workload and prints every
// metric by name and unit, checking every output against the repo's
// documented contracts (a failed check is a failed operation).
//
//   perfbench --workload trunks|efficient --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// A workload is one model family taken through the whole deployment path
// of the paper: offline PTQ inference in fp32, MERSIT(8,2) code and INT8
// modes (offline.cpp), open-loop serving of MERSIT artifacts with hot swaps
// (serving.cpp), and gate-level replay of the family's PTQ code trace
// through the MAC netlists (replay.cpp).  The two families stress
// different layers: the trunks (VGG/ResNet) spend most of their forward in
// GEMM convs, the efficient nets (MobileNet/EfficientNet) in depthwise,
// elementwise, SE and BN passes.
//
// Everything the library receives is generated from --seed: model weights,
// datasets, calibration sets, the arrival schedule and the replay trace.
// Set-up (all of it, including prepack warm-up and the reference outputs)
// runs three times and setup_s is the median.  The --seconds budget then
// splits across the phases.  --trace 0 prints the end-to-end metrics;
// --trace 1 records spans around the calls into each layer, prints the
// per-layer metrics and writes the spans to --trace-out.  A line before the
// result carries the host block and the per-timing sample counts.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/cpu.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"
#include "core/thread_pool.h"
#include "nn/data.h"
#include "nn/models.h"
#include "nn/train.h"

namespace perfbench {

namespace {

nn::ModulePtr make_model(const std::string& name, std::uint32_t seed) {
  std::mt19937 rng(seed);
  if (name == "VGG16-mini") return nn::make_vgg_mini(3, 10, rng, kImg);
  if (name == "ResNet18-mini") return nn::make_resnet_mini(3, 10, 1, rng);
  if (name == "ResNet50-mini") return nn::make_resnet_mini(3, 10, 2, rng);
  if (name == "MobileNet_v2-mini") return nn::make_mobilenet_v2_mini(3, 10, rng);
  if (name == "MobileNet_v3-mini") return nn::make_mobilenet_v3_mini(3, 10, rng);
  if (name == "EfficientNet_b0-mini") return nn::make_efficientnet_b0_mini(3, 10, rng);
  throw std::invalid_argument("unknown model " + name);
}

}  // namespace

Models train_models(const Family& fam, std::uint32_t seed) {
  constexpr int kTrainImages = 256;
  constexpr int kEpochs = 2;
  constexpr int kTrainThreads = 2;
  core::resize_global_pool(kTrainThreads);
  const nn::Dataset data = nn::make_vision_dataset(kTrainImages, 3, kImg, derive(seed, 1));
  std::vector<std::string> names = fam.offline_models;
  names.push_back(fam.serve_model);
  names.push_back(fam.replay_model);
  Models m;
  std::uint32_t salt = 100;
  for (const std::string& name : names) {
    ++salt;
    if (m.trained.count(name) != 0) continue;
    nn::ModulePtr model = make_model(name, derive(seed, salt));
    nn::TrainOptions opt;
    opt.epochs = kEpochs;
    opt.batch = 32;
    opt.lr = 2e-3f;
    opt.shuffle_seed = derive(seed, salt + 1000);
    (void)nn::train_classifier(*model, data, opt);
    m.trained.emplace(name, std::move(model));
  }
  return m;
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string summary_json(const Summary& s) {
  return "{\"median\": " + json_num(s.median) + ", \"tail_p\": " + json_num(s.tail_p) +
         ", \"tail\": " + json_num(s.tail) + ", \"n\": " + std::to_string(s.n) + "}";
}

std::string metric_tag(const std::string& format_name) {
  std::string t;
  for (const char c : format_name)
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) t += c;
  return t;
}

namespace {

/// The workloads.  Rates are fixed absolute request rates, never derived
/// from a run-time probe: light and heavy sit at about a sixth and a third
/// of saturation on a 4-core x86 host, and the rungs above them, about 6%
/// apart, probe for slo_qps.
std::vector<Family> families() {
  return {
      {"trunks",
       {"VGG16-mini", "ResNet18-mini", "ResNet50-mini"},
       "ResNet18-mini",
       "ResNet18-mini",
       {800, 1600, 3500, 3700, 3900, 4150, 4400, 4650, 4950, 5250, 5550, 5900, 6250, 6600,
        7000, 7400, 7850},
       0,
       1,
       50.0},
      {"efficient",
       {"MobileNet_v2-mini", "MobileNet_v3-mini", "EfficientNet_b0-mini"},
       "MobileNet_v2-mini",
       "MobileNet_v3-mini",
       {400, 600, 1100, 1170, 1240, 1320, 1400, 1490, 1580, 1680, 1780, 1890, 2000, 2120, 2250,
        2400, 2550, 2700},
       0,
       1,
       50.0},
  };
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::string host_block(int offline_pool) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ostringstream o;
  o << "{\"nproc\": " << affinity << ", \"online_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"cpu_features\": \""
    << json_escape(core::cpu_feature_summary()) << "\", \"gemm_backend\": \""
    << nn::gemm::active_backend().name << "\", \"pool_width_offline\": " << offline_pool
    << ", \"pool_width_serving\": 1, \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\"}";
  return o.str();
}

void print_metrics(const std::vector<Metric>& ms, std::FILE* f) {
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::fprintf(f, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                 ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload trunks|efficient --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  long seed = -1, trace = -1;
  double seconds = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") workload = v;
      else if (k == "--seed") seed = std::stol(v);
      else if (k == "--seconds") seconds = std::stod(v);
      else if (k == "--trace") trace = std::stol(v);
      else if (k == "--trace-out") trace_out = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  const std::vector<Family> fams = families();
  const Family* fam = nullptr;
  for (const Family& f : fams)
    if (f.name == workload) fam = &f;
  if (argc % 2 != 1 || fam == nullptr || seed < 0 || seed > 0xffffffffL || seconds <= 0.0 ||
      (trace != 0 && trace != 1))
    return usage();
  const auto s32 = static_cast<std::uint32_t>(seed);

  try {
    // The library's runtime switches, pinned so the environment cannot
    // select another path.
    nn::gemm::set_enabled(true);
    nn::gemm::set_prepack_enabled(true);
    nn::gemm::set_fold_bn_enabled(false);

    const std::int64_t tm0 = now_ns();
    const Models models = train_models(*fam, s32);
    const double train_s = static_cast<double>(now_ns() - tm0) / 1e9;
    // peak_rss_mb covers set-up and measurement, not the input generation:
    // hand training's freed heap back and restart the kernel's peak counter.
    malloc_trim(0);
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
      std::fputs("5", f);
      std::fclose(f);
    }
    Result res;
    Tracer tracer(trace == 1);
    std::unique_ptr<OfflineSetup> off;
    std::unique_ptr<ServeSetup> srv;
    std::unique_ptr<ReplaySetup> rep;
    PtqTimes ptq_times;
    std::vector<double> setup_s;
    constexpr int kSetups = 3;
    for (int k = 0; k < kSetups; ++k) {
      off.reset();
      srv.reset();
      rep.reset();
      ptq_times = PtqTimes{};
      Result attempt;  // only the last set-up's checks count
      const std::int64_t t0 = now_ns();
      off = setup_offline(*fam, models, s32, ptq_times, attempt);
      srv = setup_serving(*fam, models, s32, ptq_times, attempt);
      rep = setup_replay(*fam, models, s32, ptq_times, attempt);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (k + 1 == kSetups) res = std::move(attempt);
    }
    res.e("setup_s", median(setup_s), "s");

    // Offline repetitions and replay passes alternate in rounds, and the
    // rounds fill the gaps between serving windows, so every phase samples
    // the whole run rather than one stretch of it.
    OfflineRun offline(*off, tracer, res);
    ReplayRun replay(*rep, tracer, res);
    ServeRun serving(*srv, *fam, s32, tracer, res);
    const std::vector<std::size_t> windows = serving.plan(seconds);
    const double gap = 0.4 * seconds / static_cast<double>(windows.size() + 1);
    const auto rounds = [&] {
      const std::int64_t end = now_ns() + static_cast<std::int64_t>(gap * 1e9);
      do {
        offline.rep();
        replay.pass();
      } while (now_ns() < end);
    };
    rounds();
    for (const std::size_t w : windows) {
      serving.window(w);
      rounds();
    }
    offline.finish(0.1 * seconds);
    replay.finish();
    serving.finish();
    const int offline_pool = off->pool_width;
    srv.reset();  // drains the engine and joins its threads
    off.reset();
    rep.reset();

    res.e("peak_rss_mb", peak_rss_mb(), "MB");
    res.l("ptq.calibrate_s", ptq_times.calibrate_s, "s");
    res.l("ptq.install_codes_ms", ptq_times.install_codes_ms, "ms");
    res.l("ptq.artifact_load_ms", ptq_times.artifact_load_ms, "ms");
    res.l("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    if (tracer.enabled() && !trace_out.empty() && !tracer.write(trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());

    for (const std::string& f : res.failures)
      std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
    std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %ld, \"host\": %s, \"setup_s\": [",
                fam->name.c_str(), seed, host_block(offline_pool).c_str());
    for (std::size_t i = 0; i < setup_s.size(); ++i)
      std::printf("%s%.6f", i > 0 ? ", " : "", setup_s[i]);
    std::printf("], \"train_s\": %.3f", train_s);
    for (const std::string& d : res.detail) std::printf(", %s", d.c_str());
    std::printf("}}\n");

    // End-to-end metrics come from the untraced run only; the traced run
    // prints the per-layer metrics.
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                res.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    print_metrics(trace == 1 ? res.layer : res.e2e, stdout);
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
