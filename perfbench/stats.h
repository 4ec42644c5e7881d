// Summary statistics and the serving SLO rule used by the benchmark.
//
// Percentile rule: every timing is reported as its median and the highest
// percentile of a fixed ladder (50, 90, 95, 99, 99.9) that has at least
// ten samples beyond it, together with the sample count.  Percentiles use
// the nearest-rank definition: the p-th percentile of n sorted samples is
// the one at 1-based rank ceil(p/100 * n), so n - rank samples lie beyond.
//
// SLO rule: a rung of the fixed rate ladder passes when the p99 latency of
// every request sent at that rate, a shed or failed request counting as
// missing the limit, is within the limit, and the backlog did not grow
// (requests still outstanding when generation stopped fit within what the
// limit allows at that rate).  Each rung runs in one short window, so a
// host stall can fail a rung below saturation and a quiet moment can pass
// one above it.  slo_qps is therefore the served rate of the highest rung
// the ladder supports as a whole: the rung t for which "every rung up to t
// passes, every rung above fails" disagrees with the fewest rungs (ties go
// to the higher rung), so one window's outcome moves the result by at most
// the rungs around it, never to an isolated pass far above the rest.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based nearest rank of the p-th percentile among n samples.
inline std::size_t percentile_rank(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  return sorted[percentile_rank(sorted.size(), p) - 1];
}

inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, p);
}

/// Highest percentile of the ladder with at least `beyond` samples past
/// its rank among n samples; 0 when even the median has fewer.
inline double tail_percentile(std::size_t n, std::size_t beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (const double p : kLadder)
    if (n > 0 && n - percentile_rank(n, p) >= beyond) return p;
  return 0.0;
}

/// A timing's median, its highest supported tail percentile and count.
struct Summary {
  double median = 0.0;
  double tail_p = 0.0;  ///< which percentile `tail` is (0: none supported)
  double tail = 0.0;
  std::size_t n = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = median(v);
  s.tail_p = tail_percentile(v.size());
  s.tail = s.tail_p > 0.0 ? percentile_sorted(v, s.tail_p) : v.back();
  return s;
}

/// Outcome of one open-loop rung.  `latency_ms` holds one entry per
/// request sent, timed from its due time; shed or failed requests are +inf.
struct Rung {
  double rate = 0.0;         ///< offered rate, requests/s (fixed)
  double served_qps = 0.0;   ///< succeeded / rung duration
  std::vector<double> latency_ms;
  std::size_t outstanding_at_end = 0;  ///< not done when generation ended (worst window)
  double seconds = 0.0;      ///< generation time, summed over the rung's windows
};

inline double miss() { return std::numeric_limits<double>::infinity(); }

/// Misses are +inf in `latency_ms`, so more than 1% of them fails the p99.
inline bool rung_passes(const Rung& r, double limit_ms) {
  if (r.latency_ms.empty()) return false;
  const double allowed = std::ceil(r.rate * limit_ms / 1e3);
  return percentile(r.latency_ms, 99.0) <= limit_ms &&
         static_cast<double>(r.outstanding_at_end) <= allowed;
}

/// Index of the SLO rung of `ladder` (ascending rates) by the SLO rule
/// above, or -1 when the ladder is best read as passing no rung.
inline int slo_rung(const std::vector<Rung>& ladder, double limit_ms) {
  // errors(t) = failing rungs at or below t + passing rungs above t.
  std::size_t errors = 0;
  for (const Rung& r : ladder) errors += rung_passes(r, limit_ms) ? 1 : 0;  // t = -1
  std::size_t best_errors = errors;
  int best = -1;
  for (std::size_t t = 0; t < ladder.size(); ++t) {
    if (rung_passes(ladder[t], limit_ms)) --errors;
    else ++errors;
    if (errors <= best_errors) best_errors = errors, best = static_cast<int>(t);
  }
  return best;
}

}  // namespace perfbench
