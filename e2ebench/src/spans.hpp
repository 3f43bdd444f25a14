// In-memory span recorder for the traced runs. Spans are recorded from the
// benchmark's own code around each call it makes into a layer of the
// library; the program under test carries no extra instrumentation.
//
// Each span has a name, start, end and the index of its parent (the span
// open on the same thread when it started). Spans that belong to one
// datagram share its index as `key`. Buffers are per thread and are only
// read by dump(), after every recording thread has been joined.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "common.hpp"

namespace e2e::spans {

inline constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// Switch recording on or off. Call before starting any recording thread.
void enable(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// RAII span on the calling thread; a no-op while recording is off.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t key = kNoKey) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Drop this span if nothing was recorded inside it (an idle poll).
  void discard_if_empty() noexcept;

 private:
  std::int32_t index_ = -1;
};

/// Record a finished span with explicit times (replay loops time their
/// calls themselves). Parented like a Scope opened at `t0`.
void record(const char* name, std::uint64_t t0, std::uint64_t t1,
            std::uint64_t key = kNoKey) noexcept;

/// Run `fn` and record its duration as one span named `name`.
template <typename Fn>
void timed(const char* name, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  record(name, t0, now_ns());
}

/// Counters the summarizer needs next to the spans (records, datagrams,
/// untraced cost per record, ...). Written into the dump's header line.
void set_meta(const std::string& key, double value);

/// Write every span as `tid,index,parent,name,key,start_ns,end_ns` after a
/// `# meta {json}` header line. False if the file cannot be written.
[[nodiscard]] bool dump(const std::filesystem::path& path);

/// Spans recorded so far, over all threads.
[[nodiscard]] std::size_t count();

}  // namespace e2e::spans
