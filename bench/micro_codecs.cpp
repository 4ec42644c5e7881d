// google-benchmark microbenchmarks: codec encode/decode throughput, the
// scalar-vs-kernel batch quantization comparison, and gate-level MAC
// simulation rate.
//
// Extra flag: --codec_json=PATH writes a machine-readable speedup report
// (one JSON object with per-format throughput of the scalar codec
// reference, the LUT kernel's scalar loop and the dispatched vector variant,
// plus the single-thread speedups) before the google-benchmark run — the
// bench trajectory and EXPERIMENTS.md consume it.  Each format also gets
// one row per variant the host can run of the LUT kernel and of the
// fixed-scale quant stage that activation quant points use, and INT8 the
// uniform-grid path (the backend's level quantizer plus a per-level output
// table) the stage replaced; MERSIT_BACKEND=avx2 forces that path's
// quantizer onto AVX2 for a like-for-like AVX2 comparison.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/mersit.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "formats/kernels/kernel_cache.h"
#include "formats/kernels/quant_stage.h"
#include "formats/quantize.h"
#include "hw/mac.h"
#include "hw/reference.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/qgemm.h"
#include "rtl/sim.h"

using namespace mersit;

namespace {

std::vector<double> random_values(std::size_t n) {
  std::mt19937 rng(11);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

void BM_EncodeTable(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  (void)fmt->codec();  // build tables outside the loop
  const auto vals = random_values(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fmt->encode(vals[i++ & 4095]));
  }
}

void BM_EncodeDirectMersit(benchmark::State& state) {
  const core::MersitFormat& fmt = core::mersit_8_2();
  const auto vals = random_values(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fmt.encode_direct(vals[i++ & 4095]));
  }
}

void BM_DecodeMersit(benchmark::State& state) {
  const core::MersitFormat& fmt = core::mersit_8_2();
  std::uint8_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fmt.decode_value(c++));
  }
}

std::vector<float> random_floats(std::size_t n, unsigned seed = 3) {
  std::vector<float> buf(n);
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.f, 1.f);
  for (auto& v : buf) v = dist(rng);
  return buf;
}

/// The scale a PTQ run would use for this buffer (paper-default policy), so
/// the quantize benchmarks exercise the format's whole value range instead
/// of the degenerate all-underflow corner.
double ptq_scale(const formats::Format& fmt, const std::vector<float>& buf) {
  float mx = 0.f;
  for (const float v : buf) mx = std::max(mx, std::fabs(v));
  return formats::scale_for_absmax(fmt, mx, formats::ScalePolicy::kMaxToUnity);
}

void BM_QuantizeBufferScalar(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  (void)fmt->codec();  // build tables outside the loop
  const std::vector<float> buf =
      random_floats(static_cast<std::size_t>(state.range(0)));
  const double scale = ptq_scale(*fmt, buf);
  for (auto _ : state) {
    std::vector<float> copy = buf;
    formats::fake_quantize_scalar(copy, *fmt, scale);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_QuantizeBufferKernel(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  (void)formats::kernels::kernel_for(*fmt);  // build LUTs outside the loop
  const std::vector<float> buf =
      random_floats(static_cast<std::size_t>(state.range(0)));
  const double scale = ptq_scale(*fmt, buf);
  for (auto _ : state) {
    std::vector<float> copy = buf;
    formats::fake_quantize(copy, *fmt, scale);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// ------------------------------------------------- speedup report (JSON) --

/// scalar: fake_quantize_scalar (the codec reference); kernel: the LUT
/// kernel's scalar loop; vector: the variant fake_quantize dispatches to;
/// lut / stage: the LUT kernel and the quant stage per runnable variant
/// (same order as the variant names in the report); grid: the retired
/// INT8 uniform-grid path (0 for the other formats).
struct CodecTiming {
  std::string format;
  double scalar_ns_per_elem = 0.0;
  double kernel_ns_per_elem = 0.0;
  double vector_ns_per_elem = 0.0;
  std::vector<double> lut_ns_per_elem, stage_ns_per_elem;
  double grid_ns_per_elem = 0.0;
  [[nodiscard]] double speedup() const {
    return vector_ns_per_elem > 0.0 ? scalar_ns_per_elem / vector_ns_per_elem
                                    : 0.0;
  }
  [[nodiscard]] double vector_over_kernel() const {
    return vector_ns_per_elem > 0.0 ? kernel_ns_per_elem / vector_ns_per_elem
                                    : 0.0;
  }
};

/// Wall-time one fake_quantize variant over repeated passes of `buf`,
/// working through an L1-resident scratch chunk so the unavoidable
/// refresh-copy (fake_quantize is in-place) stays off the measurement.
template <typename Fn>
double time_ns_per_elem(const std::vector<float>& buf, int passes, Fn&& fn) {
  constexpr std::size_t kChunk = 4096;
  std::vector<float> scratch(kChunk);
  const auto pass = [&](bool timed, double& ns) {
    for (std::size_t at = 0; at < buf.size(); at += kChunk) {
      const std::size_t n = std::min(kChunk, buf.size() - at);
      std::copy_n(buf.data() + at, n, scratch.data());
      const auto t0 = std::chrono::steady_clock::now();
      fn(std::span<float>(scratch.data(), n));
      const auto t1 = std::chrono::steady_clock::now();
      if (timed)
        ns += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
    }
  };
  double ns = 0.0;
  pass(/*timed=*/false, ns);  // warm-up (tables, caches, page faults)
  for (int p = 0; p < passes; ++p) pass(/*timed=*/true, ns);
  return ns / (static_cast<double>(passes) * static_cast<double>(buf.size()));
}

/// The INT8 fake-quantize FakeQuantizer ran before the quant stages: the
/// active backend's level quantizer (RNE of x·(1/scale), INT8's values are
/// the integer levels) and a per-level output table.  Kept here only as
/// the comparison row; it is bit-identical to the stage.
void int8_grid_fake_quantize(std::span<float> x, double scale) {
  constexpr int kQmax = 127;
  float out[2 * kQmax + 1];
  for (int l = -kQmax; l <= kQmax; ++l)
    out[l + kQmax] = static_cast<float>(static_cast<double>(l) * scale);
  constexpr std::size_t kChunk = 4096;
  std::int8_t lv[kChunk];
  for (std::size_t i = 0; i < x.size(); i += kChunk) {
    const std::size_t c = std::min(kChunk, x.size() - i);
    nn::gemm::quantize_levels(x.data() + i, c, 1.0 / scale, -kQmax, kQmax, lv);
    for (std::size_t j = 0; j < c; ++j) x[i + j] = out[lv[j] + kQmax];
  }
}

/// Measure every registered format and write the JSON report.
int write_codec_json(const char* path) {
  constexpr std::size_t kElems = 1 << 16;
  constexpr int kPasses = 24;
  const std::vector<float> buf = random_floats(kElems);
  namespace fk = formats::kernels;
  const fk::FakeQuantVariant& scalar_loop = fk::fake_quant_variants().back();
  const fk::FakeQuantVariant& vector_loop = fk::active_fake_quant_variant();
  // The LUT and stage registries list the same ISAs in the same order.
  std::vector<const fk::FakeQuantVariant*> luts;
  std::vector<const fk::QuantStageVariant*> stages;
  for (const fk::FakeQuantVariant& v : fk::fake_quant_variants())
    if (v.supported()) luts.push_back(&v);
  for (const fk::QuantStageVariant& v : fk::quant_stage_variants())
    if (v.supported()) stages.push_back(&v);
  std::vector<CodecTiming> rows;
  for (const std::string& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    (void)fmt->codec();
    const auto kernel = fk::kernel_for(*fmt);
    const double scale = ptq_scale(*fmt, buf);
    CodecTiming t;
    t.format = name;
    t.scalar_ns_per_elem =
        time_ns_per_elem(buf, kPasses, [&](std::span<float> c) {
          formats::fake_quantize_scalar(c, *fmt, scale);
        });
    t.kernel_ns_per_elem =
        time_ns_per_elem(buf, kPasses, [&](std::span<float> c) {
          kernel->fake_quantize(scalar_loop, c, scale);
        });
    t.vector_ns_per_elem =
        time_ns_per_elem(buf, kPasses, [&](std::span<float> c) {
          formats::fake_quantize(c, *fmt, scale);
        });
    for (const fk::FakeQuantVariant* v : luts)
      t.lut_ns_per_elem.push_back(
          time_ns_per_elem(buf, kPasses, [&](std::span<float> c) {
            kernel->fake_quantize(*v, c, scale);
          }));
    const fk::QuantStage stage(*kernel, scale);
    for (const fk::QuantStageVariant* v : stages)
      t.stage_ns_per_elem.push_back(
          time_ns_per_elem(buf, kPasses, [&](std::span<float> c) {
            stage.apply(*v, c);
          }));
    if (name == "INT8")
      t.grid_ns_per_elem =
          time_ns_per_elem(buf, kPasses, [&](std::span<float> c) {
            int8_grid_fake_quantize(c, scale);
          });
    rows.push_back(t);
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_codecs: cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_codecs/fake_quantize\",\n");
  const auto json_list = [f](const std::vector<double>& v) {
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < v.size(); ++i)
      std::fprintf(f, "%s%.3f", i > 0 ? ", " : "", v[i]);
    std::fprintf(f, "]");
  };
  std::fprintf(f, "  \"elements\": %zu,\n  \"vector_variant\": \"%s\",\n",
               kElems, vector_loop.name);
  std::fprintf(f, "  \"variants\": [");
  for (std::size_t i = 0; i < luts.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "", luts[i]->name);
  std::fprintf(f, "],\n  \"gemm_backend\": \"%s\",\n",
               nn::gemm::active_backend().name);
  std::fprintf(f, "  \"formats\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CodecTiming& t = rows[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"scalar_ns_per_elem\": %.3f, "
                 "\"kernel_ns_per_elem\": %.3f, \"vector_ns_per_elem\": %.3f, "
                 "\"speedup\": %.2f, \"vector_over_kernel\": %.2f, "
                 "\"lut_ns_per_elem\": ",
                 t.format.c_str(), t.scalar_ns_per_elem, t.kernel_ns_per_elem,
                 t.vector_ns_per_elem, t.speedup(), t.vector_over_kernel());
    json_list(t.lut_ns_per_elem);
    std::fprintf(f, ", \"stage_ns_per_elem\": ");
    json_list(t.stage_ns_per_elem);
    if (t.grid_ns_per_elem > 0.0)
      std::fprintf(f, ", \"grid_ns_per_elem\": %.3f", t.grid_ns_per_elem);
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("vector variant: %s\n", vector_loop.name);
  std::printf("%-16s %14s %14s %14s %9s %9s\n", "format", "scalar ns/elem",
              "kernel ns/elem", "vector ns/elem", "speedup", "vec/kern");
  for (const CodecTiming& t : rows)
    std::printf("%-16s %14.2f %14.2f %14.2f %8.1fx %8.1fx\n", t.format.c_str(),
                t.scalar_ns_per_elem, t.kernel_ns_per_elem,
                t.vector_ns_per_elem, t.speedup(), t.vector_over_kernel());
  std::printf("\nns/elem per variant: LUT kernel vs quant stage (INT8 grid "
              "path on the %s gemm backend)\n%-16s",
              nn::gemm::active_backend().name, "format");
  for (const fk::FakeQuantVariant* v : luts)
    std::printf(" %8s-lut %8s-stg", v->name, v->name);
  std::printf(" %8s\n", "grid");
  for (const CodecTiming& t : rows) {
    std::printf("%-16s", t.format.c_str());
    for (std::size_t i = 0; i < luts.size(); ++i)
      std::printf(" %12.2f %12.2f", t.lut_ns_per_elem[i],
                  t.stage_ns_per_elem[i]);
    if (t.grid_ns_per_elem > 0.0) std::printf(" %8.2f", t.grid_ns_per_elem);
    std::printf("\n");
  }
  return 0;
}

void BM_MacNetlistCycle(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  rtl::Netlist nl;
  const hw::MacPorts mac = hw::build_mac(nl, *fmt);
  rtl::Simulator sim(nl);
  std::mt19937 rng(5);
  for (auto _ : state) {
    sim.set_input_bus(mac.wdec.code, rng() & 0xFF);
    sim.set_input_bus(mac.adec.code, rng() & 0xFF);
    sim.eval();
    sim.clock();
    benchmark::DoNotOptimize(sim.get(mac.acc[0]));
  }
}

/// One 64-lane eval/clock sweep of the MAC netlist: 64 code pairs settle
/// per iteration, so items_processed counts pairs and the per-pair rate is
/// directly comparable to BM_MacNetlistCycle above (the scalar sweep).
void BM_MacNetlistCycle64(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  rtl::Netlist nl;
  const hw::MacPorts mac = hw::build_mac(nl, *fmt);
  rtl::Simulator sim(nl);
  sim.set_lane_count(rtl::Simulator::kLanes);
  std::mt19937_64 rng(5);
  std::array<std::uint64_t, rtl::Simulator::kLanes> w{}, a{};
  for (auto _ : state) {
    for (int l = 0; l < rtl::Simulator::kLanes; ++l) {
      w[static_cast<std::size_t>(l)] = rng() & 0xFF;
      a[static_cast<std::size_t>(l)] = rng() & 0xFF;
    }
    sim.set_input_bus_lanes(mac.wdec.code, w);
    sim.set_input_bus_lanes(mac.adec.code, a);
    sim.eval();
    sim.clock();
    benchmark::DoNotOptimize(sim.get_lanes(mac.acc[0]));
  }
  state.SetItemsProcessed(state.iterations() * rtl::Simulator::kLanes);
}

/// Raw decode-free int8 micro-kernel rate on a 256^3 GEMM: both operands
/// prepacked (the steady-state layer shape), single-threaded, INT8's affine
/// LUT.  items_per_second counts multiply-adds as 2 ops, so the reported
/// rate reads directly as GOP/s — the headline number EXPERIMENTS.md quotes
/// for the integer path.
void BM_QgemmInt8Kernel256(benchmark::State& state) {
  constexpr int kDim = 256;
  core::resize_global_pool(1);  // raw single-thread kernel rate
  const auto fmt = core::make_format("INT8");
  double lut[256];
  std::vector<std::uint8_t> finite;
  for (int c = 0; c < 256; ++c) {
    lut[c] = fmt->decode_value(static_cast<std::uint8_t>(c));
    if (std::isfinite(lut[c])) finite.push_back(static_cast<std::uint8_t>(c));
  }
  const nn::gemm::AffineLut alut = nn::gemm::build_affine_lut(lut);
  if (!alut.usable) {
    state.SkipWithError("INT8 LUT is not affine");
    return;
  }
  std::mt19937 rng(9);
  std::uniform_int_distribution<std::size_t> pick(0, finite.size() - 1);
  std::vector<std::uint8_t> ac(kDim * kDim), bc(kDim * kDim);
  for (auto& c : ac) c = finite[pick(rng)];
  for (auto& c : bc) c = finite[pick(rng)];
  const nn::gemm::Int8Operand a{ac.data(), kDim, false, alut.q, nullptr,
                                alut.scale};
  const nn::gemm::Int8Operand b{bc.data(), kDim, false, alut.q, nullptr,
                                alut.scale};
  const nn::gemm::PackedInt8 pa =
      nn::gemm::pack_a_int8_matrix(kDim, kDim, ac.data(), kDim, false, alut.q);
  const nn::gemm::PackedInt8 pb =
      nn::gemm::pack_b_int8_matrix(kDim, kDim, bc.data(), kDim, false, alut.q);
  std::vector<float> out(static_cast<std::size_t>(kDim) * kDim);
  for (auto _ : state) {
    nn::gemm::qgemm_int8(kDim, kDim, kDim, a, b, nn::gemm::Init::kZero,
                         nullptr, out.data(), kDim, nullptr,
                         nn::gemm::Epilogue::kNone, &pa, &pb);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (2LL * kDim * kDim * kDim));
}

void BM_MacReference(benchmark::State& state) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const auto* ef = dynamic_cast<const formats::ExponentCodedFormat*>(fmt.get());
  hw::MacReference ref(*ef);
  std::mt19937 rng(5);
  for (auto _ : state) {
    ref.accumulate(static_cast<std::uint8_t>(rng()), static_cast<std::uint8_t>(rng()));
    benchmark::DoNotOptimize(ref.acc_raw());
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_EncodeTable, mersit82, "MERSIT(8,2)");
BENCHMARK_CAPTURE(BM_EncodeTable, posit81, "Posit(8,1)");
BENCHMARK_CAPTURE(BM_EncodeTable, fp84, "FP(8,4)");
BENCHMARK_CAPTURE(BM_EncodeTable, int8, "INT8");
BENCHMARK(BM_EncodeDirectMersit);
BENCHMARK(BM_DecodeMersit);
BENCHMARK_CAPTURE(BM_QuantizeBufferScalar, mersit82, "MERSIT(8,2)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferScalar, posit81, "Posit(8,1)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferScalar, fp84, "FP(8,4)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferScalar, int8, "INT8")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferKernel, mersit82, "MERSIT(8,2)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferKernel, posit81, "Posit(8,1)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferKernel, fp84, "FP(8,4)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferKernel, int8, "INT8")->Arg(4096);
BENCHMARK_CAPTURE(BM_MacNetlistCycle, mersit82, "MERSIT(8,2)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle, posit81, "Posit(8,1)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle, fp84, "FP(8,4)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle64, mersit82, "MERSIT(8,2)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle64, posit81, "Posit(8,1)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle64, fp84, "FP(8,4)");
BENCHMARK(BM_QgemmInt8Kernel256);
BENCHMARK(BM_MacReference);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--codec_json=", 13) == 0) {
      const int rc = write_codec_json(argv[i] + 13);
      if (rc != 0) return rc;
      // Strip the custom flag so google-benchmark doesn't reject it.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
