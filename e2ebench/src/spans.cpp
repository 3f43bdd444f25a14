#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common.hpp"

namespace e2e::spans {

namespace {

struct Span {
  const char* name;
  std::int32_t parent;
  std::uint64_t key;
  std::uint64_t t0;
  std::uint64_t t1;
};

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of indices into spans
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
std::map<std::string, double> g_meta;                  // guarded by g_mu

ThreadBuffer& buffer() {
  thread_local ThreadBuffer* tb = nullptr;
  if (tb == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 14);
    tb = owned.get();
    const std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *tb;
}

}  // namespace

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t key) noexcept {
  if (!enabled()) return;
  ThreadBuffer& tb = buffer();
  const std::int32_t parent = tb.open.empty() ? -1 : tb.open.back();
  index_ = static_cast<std::int32_t>(tb.spans.size());
  tb.spans.push_back(Span{name, parent, key, now_ns(), 0});
  tb.open.push_back(index_);
}

Scope::~Scope() {
  if (index_ < 0) return;
  ThreadBuffer& tb = buffer();
  tb.spans[static_cast<std::size_t>(index_)].t1 = now_ns();
  tb.open.pop_back();
}

void Scope::discard_if_empty() noexcept {
  if (index_ < 0) return;
  ThreadBuffer& tb = buffer();
  if (static_cast<std::size_t>(index_) + 1 != tb.spans.size()) return;
  tb.spans.pop_back();
  tb.open.pop_back();
  index_ = -1;
}

void record(const char* name, std::uint64_t t0, std::uint64_t t1,
            std::uint64_t key) noexcept {
  if (!enabled()) return;
  ThreadBuffer& tb = buffer();
  const std::int32_t parent = tb.open.empty() ? -1 : tb.open.back();
  tb.spans.push_back(Span{name, parent, key, t0, t1});
}

void set_meta(const std::string& key, double value) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_meta[key] = value;
}

std::size_t count() {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::size_t n = 0;
  for (const auto& b : g_buffers) n += b->spans.size();
  return n;
}

bool dump(const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_mu);
  std::fputs("# meta {", f);
  bool first = true;
  for (const auto& [k, v] : g_meta) {
    std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ",
                 json_escape(k).c_str(), v);
    first = false;
  }
  std::fputs("}\n", f);
  for (std::size_t tid = 0; tid < g_buffers.size(); ++tid) {
    const auto& spans = g_buffers[tid]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const long long key = s.key == kNoKey ? -1LL : static_cast<long long>(s.key);
      std::fprintf(f, "%zu,%zu,%d,%s,%lld,%llu,%llu\n", tid, i, s.parent,
                   s.name, key, static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e::spans
