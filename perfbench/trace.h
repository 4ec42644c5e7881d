// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around the benchmark's own calls into each library
// layer; nothing inside the library is instrumented.  A span carries a
// name, start and end (steady-clock ns), the index of its parent span and
// a trace id shared by every span of one forward or one request.  Spans
// stay in memory and are written out once, at the end of the run.
//
// Self time of a span is its duration minus the part of its interval that
// its direct children cover (the union of the children's intervals,
// clipped to the parent), so overlapping children are not subtracted
// twice and grandchildren are accounted for by their own parent.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";    ///< static string: the layer metric it feeds
  std::uint64_t trace = 0;  ///< shared by all spans of one forward/request
  int parent = -1;          ///< index into the span list, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).  Sorts `iv` in place.
inline std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                               std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_hi) {
      cur_hi = std::max(cur_hi, e);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = s;
    cur_hi = e;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Self time of every span (same indexing as `spans`).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].duration() -
              covered_ns(kids[i], spans[i].start_ns, spans[i].end_ns);
  return self;
}

/// Single-threaded recorder with an implicit parent stack: a span opened
/// while another is open becomes its child.  Disabled recorders read no
/// clock and store nothing, so the untraced run pays only a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span under the innermost open span; returns its index (-1 when
  /// disabled).
  int begin(const char* name, std::uint64_t trace) {
    if (!enabled_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, trace, open_.empty() ? -1 : open_.back(), now_ns(), 0});
    open_.push_back(idx);
    return idx;
  }

  /// Close span `idx`, which must be the innermost open span.
  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Record an already-timed span (e.g. rebuilt from engine timestamps).
  int add(const char* name, std::uint64_t trace, int parent, std::int64_t start_ns,
          std::int64_t end_ns) {
    if (!enabled_) return -1;
    spans_.push_back({name, trace, parent, start_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as one JSON object per line.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"trace\":%llu,\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.name, static_cast<unsigned long long>(s.trace), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a Tracer.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::uint64_t trace)
      : t_(t), idx_(t.begin(name, trace)) {}
  ~Scoped() { t_.end(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

}  // namespace perfbench
