#include "nn/gemm/qgemm.h"

#include <array>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/env.h"
#include "nn/gemm/backend.h"

namespace mersit::nn::gemm {

namespace {

std::atomic<QgemmMode>& qgemm_flag() {
  static std::atomic<QgemmMode> flag = [] {
    // Same strict env layer as MERSIT_BACKEND: unset/empty means the
    // default, anything else must parse or throws.
    const char* env = core::env_str("MERSIT_QGEMM");
    return env != nullptr ? parse_qgemm_mode(env) : QgemmMode::kCode;
  }();
  return flag;
}

// 512-bit two's-complement fixed-point accumulator ("quire").  Bit i holds
// weight 2^(base + i); products are exact dyadic integers shifted into
// place, so the running sum never rounds.  The table builder budgets the
// width: max product magnitude < 2^(max_shift + kProductBits), and up to
// 2^32 addends may accumulate, so max_shift + kProductBits + 32 + 1 sign
// bit must fit in 512 (checked in build_kulisch_table).
struct Quire {
  static constexpr int kLimbs = 8;
  std::uint64_t limb[kLimbs] = {};

  /// Add p · 2^(base + shift); p != 0, 0 <= shift <= 448.
  void add(std::int64_t p, int shift) {
    const unsigned li = static_cast<unsigned>(shift) >> 6;
    const unsigned s = static_cast<unsigned>(shift) & 63;
    const unsigned __int128 wide = static_cast<unsigned __int128>(
        static_cast<__int128>(p) << s);
    const std::uint64_t lo = static_cast<std::uint64_t>(wide);
    const std::uint64_t hi = static_cast<std::uint64_t>(wide >> 64);
    const std::uint64_t ext = p < 0 ? ~0ull : 0ull;
    unsigned __int128 carry = 0;
    for (unsigned i = li; i < kLimbs; ++i) {
      carry += limb[i];
      carry += i == li ? lo : (i == li + 1 ? hi : ext);
      limb[i] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
  }

  /// Exactly rounded (round-to-nearest-even) conversion of the quire value
  /// to double, i.e. value · 2^base where `value` is the signed 512-bit
  /// integer held in `limb`.
  [[nodiscard]] double to_double(int base) const {
    std::uint64_t mag[kLimbs];
    const bool neg = (limb[kLimbs - 1] >> 63) != 0;
    if (neg) {
      unsigned __int128 carry = 1;
      for (int i = 0; i < kLimbs; ++i) {
        carry += static_cast<std::uint64_t>(~limb[i]);
        mag[i] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
    } else {
      for (int i = 0; i < kLimbs; ++i) mag[i] = limb[i];
    }
    int top = -1;
    for (int i = kLimbs - 1; i >= 0; --i) {
      if (mag[i] != 0) {
        int bit = 63;
        while ((mag[i] >> bit) == 0) --bit;
        top = i * 64 + bit;
        break;
      }
    }
    if (top < 0) return 0.0;
    if (top <= 52) {
      // Fits a double significand exactly (top < 64, so limb 0 has it all).
      const double v = static_cast<double>(mag[0]);
      return std::ldexp(neg ? -v : v, base);
    }
    // 53-bit significand window [top .. top-52], then guard + sticky RNE.
    int shift = top - 52;
    const int wl = shift >> 6;
    const int ws = shift & 63;
    std::uint64_t mant = mag[wl] >> ws;
    if (ws != 0 && wl + 1 < kLimbs) mant |= mag[wl + 1] << (64 - ws);
    mant &= (1ull << 53) - 1;
    const int g = shift - 1;  // guard bit position; shift >= 1 here
    const bool guard = ((mag[g >> 6] >> (g & 63)) & 1) != 0;
    bool sticky = false;
    for (int i = 0; i < kLimbs && !sticky; ++i) {
      const int lbase = i * 64;
      if (lbase >= g) break;
      std::uint64_t m = mag[i];
      const int nbits = g - lbase < 64 ? g - lbase : 64;
      if (nbits < 64) m &= (~0ull) >> (64 - nbits);
      sticky = m != 0;
    }
    if (guard && (sticky || (mant & 1) != 0)) {
      if (++mant == (1ull << 53)) {
        mant >>= 1;
        ++shift;
      }
    }
    const double v = static_cast<double>(mant);
    return std::ldexp(neg ? -v : v, base + shift);
  }
};

/// v -> (mant, exp) with v == mant · 2^exp exactly, mant odd.  Returns
/// false for non-finite v or |mant| >= 2^30.
bool decompose(double v, std::int64_t& mant, int& exp) {
  if (v == 0.0) {
    mant = 0;
    exp = 0;
    return true;
  }
  if (!std::isfinite(v)) return false;
  int e = 0;
  const double frac = std::frexp(v, &e);      // v = frac · 2^e, |frac| ∈ [0.5, 1)
  const double scaled = std::ldexp(frac, 53);  // integer: |scaled| ∈ (2^52, 2^53]
  std::int64_t m = static_cast<std::int64_t>(std::llround(scaled));
  int x = e - 53;
  while ((m & 1) == 0) {
    m >>= 1;
    ++x;
  }
  if (m >= (std::int64_t{1} << 30) || m <= -(std::int64_t{1} << 30)) return false;
  mant = m;
  exp = x;
  return std::ldexp(static_cast<double>(m), x) == v;
}

}  // namespace

QgemmMode parse_qgemm_mode(const std::string& value) {
  if (value == "float") return QgemmMode::kFloat;
  if (value == "code") return QgemmMode::kCode;
  if (value == "kulisch") return QgemmMode::kKulisch;
  if (value == "int8") return QgemmMode::kInt8;
  throw std::runtime_error(
      "MERSIT_QGEMM must be one of float|code|kulisch|int8, got \"" + value +
      "\"");
}

QgemmMode qgemm_mode() { return qgemm_flag().load(std::memory_order_relaxed); }

QgemmMode set_qgemm_mode(QgemmMode mode) {
  return qgemm_flag().exchange(mode, std::memory_order_relaxed);
}

AffineLut build_affine_lut(const double* lut) {
  AffineLut t;
  for (int c = 0; c < 256; ++c) t.bad[c] = !std::isfinite(lut[c]);
  // Two code interpretations: signed (INT8-family two's-complement codes,
  // zero level at code 0x00) then unsigned (zero-point layouts, e.g.
  // s·(c − 128)).  A code's level is fixed by the interpretation; the zero
  // point z is read off a code that decodes to exactly 0.0.  Policy-zeroed
  // non-finite codes can add extra 0.0 entries whose level is not z, so
  // every zero-valued code is tried as the anchor.
  for (int pass = 0; pass < 2; ++pass) {
    const auto level = [pass](int c) {
      return pass == 0 ? static_cast<int>(static_cast<std::int8_t>(
                             static_cast<std::uint8_t>(c)))
                       : c;
    };
    for (int zc = 0; zc < 256; ++zc) {
      if (t.bad[zc] || lut[zc] != 0.0) continue;
      const int z = level(zc);
      // Derive s from a nonzero entry, preferring |level − z| a power of
      // two so the division itself is exact; the exhaustive verification
      // below catches a mis-rounded s either way.
      int ref = -1;
      unsigned ref_pow2 = 0;
      for (int c = 0; c < 256; ++c) {
        if (t.bad[c] || lut[c] == 0.0) continue;
        const int q = level(c) - z;
        const unsigned aq = static_cast<unsigned>(q < 0 ? -q : q);
        const bool pow2 = (aq & (aq - 1)) == 0;
        if (ref < 0 || (pow2 && (ref_pow2 == 0 || aq < ref_pow2))) {
          ref = c;
          ref_pow2 = pow2 ? aq : 0;
        }
      }
      if (ref < 0) break;  // all-zero LUT: nothing to gain, stay unusable
      const double s = lut[ref] / static_cast<double>(level(ref) - z);
      if (!std::isfinite(s) || s == 0.0) continue;
      bool ok = true;
      int qmin = 127, qmax = -128;
      std::int8_t q[256] = {};
      for (int c = 0; c < 256 && ok; ++c) {
        if (t.bad[c]) continue;
        int lv;
        if (lut[c] == 0.0) {
          lv = 0;  // exact regardless of level (covers policy-zeroed codes)
        } else {
          lv = level(c) - z;
          if (lv < -128 || lv > 127 ||
              lut[c] != s * static_cast<double>(lv)) {
            ok = false;
            break;
          }
        }
        q[c] = static_cast<std::int8_t>(lv);
        qmin = lv < qmin ? lv : qmin;
        qmax = lv > qmax ? lv : qmax;
      }
      if (!ok) continue;
      for (int c = 0; c < 256; ++c) t.q[c] = q[c];
      t.scale = s;
      t.qmin = static_cast<std::int8_t>(qmin);
      t.qmax = static_cast<std::int8_t>(qmax);
      t.usable = true;
      return t;
    }
  }
  return t;
}

const std::int8_t* identity_qlut() {
  static const auto table = [] {
    std::array<std::int8_t, 256> q{};
    for (int c = 0; c < 256; ++c)
      q[static_cast<std::size_t>(c)] =
          static_cast<std::int8_t>(static_cast<std::uint8_t>(c));
    return q;
  }();
  return table.data();
}

void quantize_levels(const float* x, std::size_t n, double inv, int lo,
                     int hi, std::int8_t* out) {
  active_backend().quantize_levels(x, n, inv, lo, hi, out);
}

KulischTable build_kulisch_table(const double* lut) {
  KulischTable t;
  int emin = 0, emax = 0;
  bool any = false;
  for (int c = 0; c < 256; ++c) {
    if (!std::isfinite(lut[c])) continue;  // mant stays 0; gated by callers
    std::int64_t m = 0;
    int e = 0;
    if (!decompose(lut[c], m, e)) return t;  // usable stays false
    t.mant[c] = m;
    t.exp[c] = e;
    if (m != 0) {
      emin = any ? (e < emin ? e : emin) : e;
      emax = any ? (e > emax ? e : emax) : e;
      any = true;
    }
  }
  if (!any) return t;  // all-zero LUT: nothing to accumulate
  // Products span shifts [0, 2·(emax−emin)] above base = 2·emin, each at
  // most kProductBits = 60 bits wide (|mant| < 2^30), and up to 2^32 of
  // them may sum — budget against the 512-bit quire with a sign bit spare.
  if (2 * (emax - emin) + 60 + 32 + 1 > Quire::kLimbs * 64 - 1) return t;
  t.base = 2 * emin;
  t.usable = true;
  return t;
}

void qgemm_kulisch(int M, int N, int K, const QOperand& a, const QOperand& b,
                   const KulischTable& tab, Init init, const float* bias,
                   float* c, int ldc, Epilogue epi) {
  if (M < 0 || N < 0 || K < 0)
    throw std::invalid_argument("qgemm_kulisch: negative dim");
  if (!tab.usable)
    throw std::invalid_argument("qgemm_kulisch: table not usable");
  if (init == Init::kAccumulate)
    throw std::invalid_argument(
        "qgemm_kulisch: cannot accumulate into a rounded partial");
  if ((init == Init::kBiasRow || init == Init::kBiasCol) && bias == nullptr)
    throw std::invalid_argument("qgemm_kulisch: bias init without bias pointer");
  for (int m = 0; m < M; ++m) {
    const double sa = a.channel_scales != nullptr ? a.channel_scales[m]
                                                  : a.uniform_scale;
    float* row = c + static_cast<std::size_t>(m) * ldc;
    for (int n = 0; n < N; ++n) {
      Quire q;
      for (int k = 0; k < K; ++k) {
        const std::uint8_t ca =
            a.trans ? a.codes[static_cast<std::size_t>(k) * a.ld + m]
                    : a.codes[static_cast<std::size_t>(m) * a.ld + k];
        const std::uint8_t cb =
            b.trans ? b.codes[static_cast<std::size_t>(n) * b.ld + k]
                    : b.codes[static_cast<std::size_t>(k) * b.ld + n];
        const std::int64_t p = tab.mant[ca] * tab.mant[cb];
        if (p == 0) continue;
        q.add(p, tab.exp[ca] + tab.exp[cb] - tab.base);
      }
      const double sb = b.channel_scales != nullptr ? b.channel_scales[n]
                                                    : b.uniform_scale;
      const double init_v =
          init == Init::kBiasRow ? static_cast<double>(bias[m])
          : init == Init::kBiasCol ? static_cast<double>(bias[n])
                                   : 0.0;
      const float v =
          static_cast<float>(init_v + q.to_double(tab.base) * (sa * sb));
      row[n] = epilogue_eval(epi, v);
    }
  }
}

}  // namespace mersit::nn::gemm
