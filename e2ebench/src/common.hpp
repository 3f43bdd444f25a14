// Shared plumbing of the end-to-end benchmark: clocks, percentiles, the
// run result and its JSON line, and the per-run scratch directory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;
/// CPU time of the calling thread / of the whole process, nanoseconds.
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;
[[nodiscard]] std::uint64_t process_cpu_ns() noexcept;
/// Peak resident set size of the process so far, MiB.
[[nodiscard]] double peak_rss_mib() noexcept;

/// Stamp taken first thing in main(): set-up time runs from here.
void mark_process_start() noexcept;
[[nodiscard]] std::uint64_t process_start_ns() noexcept;

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where slices, span dumps and other run files go (inside the checkout).
  std::filesystem::path work_dir;
  /// Lane counts; the workloads' defaults are documented in README.md and
  /// overridable only for the reference figures there.
  unsigned lanes = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the last stdout line is the JSON object the
/// benchmark contract asks for; `stamp` goes on the line before it.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> stamp;
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Machine and build stamp: cores, compiler, build type.
void stamp_machine(RunResult& r);

[[nodiscard]] std::string json_escape(const std::string& s);
/// The result as one JSON line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string result_json(const RunResult& r);
[[nodiscard]] std::string stamp_json(const RunResult& r);

}  // namespace e2e
