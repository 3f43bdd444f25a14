#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <thread>

#include "obs/build_info.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {
std::uint64_t g_process_start_ns = 0;

std::uint64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() noexcept { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() noexcept { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mib() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void mark_process_start() noexcept { g_process_start_ns = now_ns(); }
std::uint64_t process_start_ns() noexcept { return g_process_start_ns; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void stamp_machine(RunResult& r) {
  r.stamp["cores"] = std::to_string(std::thread::hardware_concurrency());
  r.stamp["compiler"] = lockdown::obs::build_info().compiler;
  r.stamp["build_type"] = E2E_BUILD_TYPE;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string result_json(const RunResult& r) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) o << ", ";
    first = false;
    o << "\"" << json_escape(name) << "\": {\"value\": " << number(m.value)
      << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  o << "}}";
  return o.str();
}

std::string stamp_json(const RunResult& r) {
  std::ostringstream o;
  o << "{\"stamp\": {";
  bool first = true;
  for (const auto& [k, v] : r.stamp) {
    if (!first) o << ", ";
    first = false;
    o << "\"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
  }
  o << "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) o << ", ";
    o << "\"" << json_escape(r.errors[i]) << "\"";
  }
  o << "]}";
  return o.str();
}

}  // namespace e2e
