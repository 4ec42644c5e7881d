// Strict environment-variable parsing shared by every MERSIT_* knob.
//
// The old behaviour — silently falling back to a default when MERSIT_THREADS
// held garbage — turned typos ("MERSIT_THREADS=eight", "MERSIT_THREADS=0")
// into mysterious perf or correctness differences.  Serving config makes
// this worse: a fat-fingered MERSIT_SERVE_QUEUE must not quietly size a
// production queue to a default.  Policy, therefore:
//
//   * variable unset, or set to the empty string  -> caller's fallback
//     (the empty string is how shells "unset" a var for one command);
//   * anything else that is not an integer in the caller's range
//     -> std::runtime_error naming the variable, the offending value, and
//     the accepted range.  Loud beats lucky.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mersit::core {

/// Parse `name` as a base-10 integer in [lo, hi]; `fallback` when unset or
/// empty, std::runtime_error on anything malformed or out of range.
[[nodiscard]] inline long env_int(const char* name, long fallback, long lo,
                                  long hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v < lo || v > hi)
    throw std::runtime_error(std::string(name) + "='" + env +
                             "': expected an integer in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "]");
  return v;
}

/// String form of the same unset policy: nullptr when `name` is unset or set
/// to the empty string, the raw value otherwise.  Validation stays with the
/// caller — which knows the accepted value set — and must follow the same
/// loud-beats-lucky rule: an unrecognized value throws naming the variable,
/// the value, and the accepted set (see gemm::parse_backend for the
/// MERSIT_BACKEND instance, qgemm's parse_mode for MERSIT_QGEMM).
[[nodiscard]] inline const char* env_str(const char* name) {
  const char* env = std::getenv(name);
  return (env == nullptr || env[0] == '\0') ? nullptr : env;
}

/// On/off switch under the same policy: `fallback` when unset or empty,
/// false for exactly "0", true for exactly "1", and std::runtime_error
/// naming the variable and the accepted set for anything else ("false",
/// "yes", "01", " 1" all throw).
[[nodiscard]] inline bool env_flag(const char* name, bool fallback) {
  const char* env = env_str(name);
  if (env == nullptr) return fallback;
  const std::string v = env;
  if (v == "0") return false;
  if (v == "1") return true;
  throw std::runtime_error(std::string(name) + "='" + v +
                           "': expected 0 or 1 (or unset for the default)");
}

}  // namespace mersit::core
