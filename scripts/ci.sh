#!/usr/bin/env bash
# CI entry point: run the tier-1 verify three ways — a default (Release)
# build, an Address+UB-sanitized build (MERSIT_SANITIZE=ON) over the full
# suite (including the serialization fuzz tests and fault campaigns), and a
# ThreadSanitizer build (MERSIT_SANITIZE=thread) over the `concurrency`-
# labelled suites (codec lazy init, kernel cache, thread pool, GEMM,
# parallel PTQ, serving engine + hot-swap; see tests/CMakeLists.txt for the
# label registry).  Finally, guard against build artifacts leaking into the
# work tree.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Three configure+build cycles make compiler caching pay for itself; pick up
# ccache automatically when the host has it, stay silent when it doesn't.
CACHE_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  CACHE_ARGS=(-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  echo "==> ccache detected: $(ccache --version | head -n1)"
fi

run_suite() {
  local build_dir="$1"; shift
  echo "==> configure ${build_dir} ($*)"
  cmake -B "${build_dir}" -S . "${CACHE_ARGS[@]}" "$@"
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "==> ctest ${build_dir}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

# The full stage: every ctest label, including the `slow` exhaustive
# 2^32-pattern fake-quantize sweeps (test_kernel_sweep, against the
# Format::quantize reference: the LUT kernel for MERSIT(8,2) at scale 1,
# and the quant stage for MERSIT(8,2), INT8 and Posit(8,1) at
# non-power-of-two scales, each on every variant this host executes).
run_suite build

# SIMD backend self-check: the registry's CPUID detection must activate a
# backend this host can actually execute (--backends exits nonzero
# otherwise), and the GEMM, elementwise-entry and depthwise suites must pass
# under the forced scalar reference as well as under the auto-detected
# backend (the per-backend bitwise gates inside the suites cover every other
# compiled-in backend).
echo "==> SIMD backend self-check (--backends)"
./build/bench/bench_inference --backends
echo "==> GEMM suites under MERSIT_BACKEND=scalar"
MERSIT_BACKEND=scalar ./build/tests/test_concurrency \
  --gtest_filter='Gemm*:Elementwise*:Depthwise*'
MERSIT_BACKEND=scalar ./build/tests/test_qgemm --gtest_filter='QgemmPack.*:Int8*'

# Perf smoke: the Release bench runs every model through all four modes
# (naive / prepacked+fused / code-domain MERSIT_QGEMM=code / decode-free
# MERSIT_QGEMM=int8) and enforces its gates internally, exiting nonzero
# when any fails:
#  * ULP > 0 for a GEMM mode (the bit-identity contract),
#  * ULP > 0 for the code-domain forward vs the fake-quantized FP32 path,
#  * code-domain more than 1.10x slower than prepacked FP32 on
#    ResNet18-mini, judged on the median of paired per-rep ratios (the two
#    models alternate rep by rep),
#  * a vision model with no usable affine LUT for INT8 (int8 path never
#    engaged), int8 logits outside the grid-flip tolerance of the code
#    path, or any batch top-1 flip between the int8 and code paths (the
#    1.3x int8-over-code single-thread speedup bar on ResNet18-mini and
#    VGG16-mini additionally applies in full sizing),
#  * no usable Kulisch table for the code format,
#  * a SIMD backend diverging bitwise from scalar in the backend sweep, or
#    the detected backend losing to scalar on the geomean of the per-model
#    medians of paired scalar/detected ratios (the backends alternate
#    forward by forward; the 1.5x single-model speedup bar additionally
#    applies in full sizing).
# The --check_json pass guards the committed BENCH_inference.json against
# schema drift, same as the serving report below.
echo "==> perf smoke (bench_inference, fast sizing)"
MERSIT_BENCH_FAST=1 ./build/bench/bench_inference --json=build/BENCH_inference.json
./build/bench/bench_inference --check_json=BENCH_inference.json

# Serving smoke: bench_serving drives the engine through saturation, 2x
# overload, hot-swap under live traffic, and a fault campaign fired through
# the swap path, enforcing its own gates (exit nonzero on violation):
#  * no deadlock — every submitted future resolves within a hard timeout,
#  * typed shedding at 2x saturation (never unbounded queueing),
#  * p99 of served requests within the deadline bound,
#  * corrupt artifacts rejected, clean re-swap restores clean accuracy.
# The --check_json pass guards the committed BENCH_serving.json against
# schema drift (stale committed reports have bitten this repo before).
echo "==> serving smoke (bench_serving, fast sizing)"
MERSIT_BENCH_FAST=1 ./build/bench/bench_serving --fast --json=build/BENCH_serving.json
./build/bench/bench_serving --check_json=BENCH_serving.json

# Hardware smoke: fig7_mac_area_power replays entire per-layer PTQ code
# streams through the 64-wide gate-level simulator, enforcing its gates
# internally (exit nonzero on violation):
#  * 64-wide replay >= 20x faster than the scalar replay loop,
#  * MERSIT(8,2) saves both area and power vs Posit(8,1),
#  * every per-lane accumulator bit-identical to hw::MacReference.
# The --check_json pass guards the committed BENCH_fig7.json.
echo "==> hardware smoke (fig7_mac_area_power, fast sizing)"
MERSIT_BENCH_FAST=1 ./build/bench/fig7_mac_area_power --json=build/BENCH_fig7.json
./build/bench/fig7_mac_area_power --check_json=BENCH_fig7.json

# The ASan/UBSan stage runs the full suite, so the fake-quantize kernel
# and quant-stage suites (KernelEquivalence / KernelVariants /
# StageVariants in test_concurrency, the sweeps in test_kernel_sweep) run
# sanitized on every variant the host executes,
# and so do Depthwise.* (test_concurrency: the depthwise kernel's border
# reads over every k/stride/pad/shape in its matrix), Elementwise.* and the
# exhaustive exp sweep (test_exp_sweep).
# The vector lanes gather unmasked; their indices are the ones the scalar
# variant loads through instrumented pointers, so an index that left its
# table would surface here as a heap-buffer-overflow (the stage's AVX2
# gathers index its 128-entry tables the same way).
#
# Sanitizer stages run the *default* dispatch under the forced scalar
# reference backend (deterministic baseline codegen; the per-backend gates
# inside test_gemm/test_qgemm still drive every compiled-in SIMD backend
# explicitly, so the intrinsic kernels get sanitizer coverage through them).
MERSIT_BACKEND=scalar run_suite build-sanitize -DMERSIT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo

# TSan stage: rebuild and run only the concurrency-sensitive suites (a full
# TSan run of the training-heavy tests would dominate CI time).  Selection is
# by ctest label, not name regex: tests/CMakeLists.txt labels the dedicated
# test_concurrency executable (codec lazy init, kernel cache, thread pool,
# GEMM, prepack/arena, parallel PTQ), test_qgemm (code-domain packs riding
# the pool fan-out, identity-keyed pack cache, Kulisch accumulator), and
# test_serve (engine admission / watchdog / drain races, hot-swap under
# load) with `concurrency`, so new suites join the stage by adding a source
# there instead of editing a pattern here.
# Force a multi-thread pool so parallel paths actually interleave on 1-core
# runners.
echo "==> configure build-tsan (MERSIT_SANITIZE=thread)"
cmake -B build-tsan -S . "${CACHE_ARGS[@]}" -DMERSIT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
echo "==> build build-tsan"
cmake --build build-tsan -j "${JOBS}" --target test_concurrency test_qgemm test_serve
echo "==> ctest build-tsan (-L concurrency)"
MERSIT_BACKEND=scalar MERSIT_THREADS=4 ctest --test-dir build-tsan \
  --output-on-failure -j "${JOBS}" -L concurrency

# Committed build trees have bitten this repo before (a stale build-sanitize/
# was checked in); fail if any build artifact is tracked by git or shows up
# untracked (i.e. not covered by .gitignore).
ARTIFACTS="$(git ls-files | grep -E '^build|\.o$|\.a$' || true)"
if [[ -n "${ARTIFACTS}" ]]; then
  echo "==> CI FAIL: build artifacts are tracked by git:" >&2
  echo "${ARTIFACTS}" >&2
  exit 1
fi
UNIGNORED="$(git status --porcelain | grep -E '^\?\? (build|.*\.(o|a)$)' || true)"
if [[ -n "${UNIGNORED}" ]]; then
  echo "==> CI FAIL: build artifacts not covered by .gitignore:" >&2
  echo "${UNIGNORED}" >&2
  exit 1
fi

echo "==> CI OK (default + ASan/UBSan + TSan + artifact guard)"
