#include "report.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "analysis/class_activity.hpp"
#include "analysis/export.hpp"
#include "analysis/hypergiants.hpp"
#include "analysis/ports.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "analysis/vpn.hpp"
#include "dns/vpn_finder.hpp"
#include "filter/plan.hpp"
#include "flow/trace_file.hpp"
#include "spans.hpp"

namespace e2e {

namespace la = lockdown::analysis;
using lockdown::flow::FlowRecord;
using lockdown::flow::PortKey;

Context::Context()
    : registry(lockdown::synth::AsRegistry::create_default()),
      classifier(la::AppClassifier::table1()),
      view(registry.trie()),
      hypergiants(lockdown::synth::AsRegistry::hypergiant_asns()),
      psl(lockdown::dns::PublicSuffixList::builtin()),
      monitor_defs(la::dsl_monitor_definitions(classifier)) {}

namespace {

/// The figure aggregators lockdown_report and figure_export run, as one
/// ScanEngine bundle: volume, port mix, hypergiants, class heatmap, per-
/// class activity (one tracker per Table 1 class) and VPN profiles.
struct FigureBundle {
  la::VolumeAggregator volume;
  la::PortAnalyzer ports;
  la::HypergiantAnalyzer hyper;
  la::ClassHeatmap heatmap;
  std::vector<la::ClassActivityTracker> activity;
  la::VpnAnalyzer vpn;

  void add_batch(std::span<const FlowRecord> records,
                 const lockdown::filter::FlowColumns& cols) {
    volume.add_batch(records, cols);
    ports.add_batch(records, cols);
    hyper.add_batch(records, cols);
    heatmap.add_batch(records, cols);
    for (auto& a : activity) a.add_batch(records, cols);
    vpn.add_batch(records, cols);
  }

  void merge(const FigureBundle& o) {
    volume.merge(o.volume);
    ports.merge(o.ports);
    hyper.merge(o.hyper);
    heatmap.merge(o.heatmap);
    for (std::size_t i = 0; i < activity.size(); ++i) activity[i].merge(o.activity[i]);
    vpn.merge(o.vpn);
  }
};

FigureBundle make_bundle(const Context& ctx, const std::vector<lockdown::net::TimeRange>& weeks,
                         const std::set<lockdown::net::IpAddress>& vpn_set) {
  FigureBundle b{la::VolumeAggregator(lockdown::stats::Bucket::kHour),
                 la::PortAnalyzer(weeks),
                 la::HypergiantAnalyzer(ctx.view, ctx.hypergiants),
                 la::ClassHeatmap(ctx.classifier, ctx.view, weeks),
                 {},
                 la::VpnAnalyzer(weeks, vpn_set)};
  for (const auto& def : ctx.monitor_defs) {
    b.activity.emplace_back(ctx.classifier, ctx.view, def.app_class);
  }
  return b;
}

std::string render(FigureBundle& b, std::size_t weeks, unsigned baseline_week) {
  std::string out = la::timeseries_table(b.volume.series(), "bytes").to_csv();
  for (const auto cls : b.heatmap.observed_classes()) {
    out += la::heatmap_table(b.heatmap, cls, weeks - 1).to_csv();
  }
  out += la::vpn_profile_table(b.vpn.profiles()).to_csv();
  char buf[96];
  for (const auto& p : b.ports.profiles(b.ports.top_ports(8))) {
    out += p.port.to_string() + "," + std::to_string(p.week_index);
    for (const double v : p.workday) {
      std::snprintf(buf, sizeof(buf), ",%.6g", v);
      out += buf;
    }
    out += '\n';
  }
  for (const auto& s : b.hyper.weekly_series(baseline_week)) {
    std::snprintf(buf, sizeof(buf), "%u,%d,%.6g,%.6g\n", s.week, static_cast<int>(s.slice),
                  s.hypergiant, s.other);
    out += buf;
  }
  for (const auto& a : b.activity) {
    for (const auto& d : a.daily_volume_envelope()) {
      std::snprintf(buf, sizeof(buf), "%s,%.6g,%.6g,%.6g\n", d.date.to_string().c_str(),
                    d.min, d.avg, d.max);
      out += buf;
    }
  }
  return out;
}

checks::ScanFigures figures_of(const Context& ctx, FigureBundle& b) {
  checks::ScanFigures f;
  f.records = b.volume.records();
  for (const auto& [t, bytes] : b.volume.series().points()) f.total_bytes += bytes;
  // One activity tracker per monitor definition, in definition order.
  for (std::size_t i = 0; i < b.activity.size(); ++i) {
    double& bytes = f.class_bytes[static_cast<int>(ctx.monitor_defs[i].app_class)];
    for (const auto& h : b.activity[i].hourly()) bytes += h.bytes;
  }
  f.hypergiant_share = b.hyper.hypergiant_share();
  f.web_share = b.ports.web_share();
  f.top_ports = b.ports.top_ports(8);
  return f;
}

std::int64_t slice_begin(const std::filesystem::path& p) {
  const std::string stem = p.stem().string();  // slice-<seconds>
  const auto dash = stem.rfind('-');
  return dash == std::string::npos ? 0 : std::strtoll(stem.c_str() + dash + 1, nullptr, 10);
}

}  // namespace

std::filesystem::path write_slice(const std::filesystem::path& dir, std::int64_t begin,
                                  const std::vector<std::uint8_t>& image) {
  const auto path = dir / ("slice-" + std::to_string(begin) + ".lft");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return {};
  const bool ok = std::fwrite(image.data(), 1, image.size(), f) == image.size();
  return std::fclose(f) == 0 && ok ? path : std::filesystem::path{};
}

ReportOutcome run_report(const Context& ctx, const ReportInput& in) {
  ReportOutcome out;
  ReportTiming& t = out.timing;
  const std::uint64_t t_begin = now_ns();
  const std::uint64_t cpu_begin = process_cpu_ns();
  {
    const spans::Scope span("dns.vpn_find");
    out.vpn_set = lockdown::dns::VpnCandidateFinder(ctx.psl)
                      .find(in.corpus->domains, in.corpus->dns)
                      .candidate_ips;
  }
  t.domains = in.corpus->domains.size();

  const std::uint64_t t_scan = now_ns();
  la::ScanEngine<FigureBundle> engine(
      in.lanes, [&] { return make_bundle(ctx, in.weeks, out.vpn_set); },
      &ctx.registry.trie());
  out.slices.reserve(in.slices.size());
  std::int64_t earliest = INT64_MAX;  // Fig 4 normalizes to the first week seen
  for (const auto& path : in.slices) {
    const std::uint64_t t0 = now_ns();
    std::optional<lockdown::flow::TraceReadResult> trace;
    {
      const spans::Scope span("flow.trace_read");
      trace = lockdown::flow::read_trace_file(path.string());
    }
    const std::uint64_t t1 = now_ns();
    ++t.slices_read;
    if (!trace || trace->truncated) {
      ++t.slices_failed;
      continue;
    }
    {
      const spans::Scope span("analysis.feed");
      engine.feed(trace->records);
    }
    const std::uint64_t t2 = now_ns();
    t.read_ns += t1 - t0;
    t.records += trace->records.size();
    t.read_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    t.read_feed_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    if (!trace->records.empty()) {
      earliest = std::min(earliest, trace->records.front().first.seconds());
    }
    out.slices.push_back({slice_begin(path), std::move(trace->records)});
  }
  FigureBundle* bundle = nullptr;
  {
    const spans::Scope span("analysis.merge");
    bundle = &engine.finish();
  }
  t.scan_ns = now_ns() - t_scan;
  {
    const spans::Scope span("analysis.render");
    out.rendered = render(*bundle, in.weeks.size(),
                          lockdown::net::Timestamp(earliest).date().paper_week());
  }
  out.figures = figures_of(ctx, *bundle);
  t.wall_ns = now_ns() - t_begin;
  t.cpu_ns = process_cpu_ns() - cpu_begin;
  return out;
}

bool same_report(const ReportOutcome& a, const ReportOutcome& b) {
  return a.slices == b.slices && a.rendered == b.rendered && a.figures == b.figures &&
         a.vpn_set == b.vpn_set;
}

void check_report(const Context& ctx, const ReportInput& in, const ReportOutcome& out,
                  RunResult& result) {
  std::vector<FlowRecord> all;
  for (const auto& s : out.slices) all.insert(all.end(), s.records.begin(), s.records.end());
  const checks::ScanFigures plain =
      checks::plain_scan(all, ctx.classifier, ctx.view, ctx.hypergiants, in.weeks);
  if (std::string err = checks::scan_matches(plain, out.figures); !err.empty()) {
    result.fail("scan: " + err);
  }
  if (std::string err = checks::vpn_set_ok(out.vpn_set, in.corpus->vpn_gateway_ips,
                                           in.corpus->www_shared_vpn_ips);
      !err.empty()) {
    result.fail("vpn: " + err);
  }
  if (out.rendered.empty()) result.fail("report rendered no tables");
}

void replay_report(const Context& ctx, const ReportInput& in, const ReportOutcome& out) {
  FigureBundle b = make_bundle(ctx, in.weeks, out.vpn_set);
  lockdown::filter::FlowColumns cols;
  std::vector<FlowRecord> chunk;
  using spans::timed;
  const auto run_chunk = [&] {
    if (chunk.empty()) return;
    const std::span<const FlowRecord> rs(chunk);
    timed("replay.analysis.columns", [&] { cols.build(rs, &ctx.registry.trie()); });
    timed("replay.analysis.volume", [&] { b.volume.add_batch(rs, cols); });
    timed("replay.analysis.ports", [&] { b.ports.add_batch(rs, cols); });
    timed("replay.analysis.hypergiants", [&] { b.hyper.add_batch(rs, cols); });
    timed("replay.analysis.heatmap", [&] { b.heatmap.add_batch(rs, cols); });
    timed("replay.analysis.activity", [&] {
      for (auto& a : b.activity) a.add_batch(rs, cols);
    });
    timed("replay.analysis.vpn", [&] { b.vpn.add_batch(rs, cols); });
    chunk.clear();
  };
  for (const auto& s : out.slices) {
    for (const FlowRecord& r : s.records) {
      chunk.push_back(r);
      if (chunk.size() == la::ScanPool::kDefaultChunkRecords) run_chunk();
    }
  }
  run_chunk();
}

void InputMakeup::add(const Context& ctx, std::span<const FlowRecord> records) {
  for (const FlowRecord& r : records) {
    ++records_;
    if (r.src_addr.is_v6()) ++ipv6_;
    for (const auto& a : {r.src_addr, r.dst_addr}) {
      addresses_.insert(a);
      if (a.is_v4()) v4_24s_.insert(a.v4().value() >> 8);
    }
    const PortKey port = r.service_port();
    const std::uint32_t service = (static_cast<std::uint32_t>(port.proto) << 16) | port.port;
    const std::uint32_t src = ctx.view.src_as(r).value();
    const std::uint32_t dst = ctx.view.dst_as(r).value();
    service_as_.emplace(service, src, dst);
    window_keys_.emplace(dst, service);
  }
}

void InputMakeup::stamp(RunResult& result) const {
  char share[32];
  std::snprintf(share, sizeof(share), "%.4f",
                records_ == 0 ? 0.0 : static_cast<double>(ipv6_) / static_cast<double>(records_));
  result.stamp["input_ipv6_share"] = share;
  result.stamp["input_distinct_addresses"] = std::to_string(addresses_.size());
  result.stamp["input_distinct_v4_24s"] = std::to_string(v4_24s_.size());
  result.stamp["input_distinct_service_src_dst_as"] = std::to_string(service_as_.size());
  result.stamp["input_window_keys_dst_as_service"] = std::to_string(window_keys_.size());
}

void ReportTotals::add(const ReportTiming& t) {
  wall_s.push_back(static_cast<double>(t.wall_ns) / 1e9);
  if (t.records > 0) {
    const double n = static_cast<double>(t.records);
    scan_records_per_s.push_back(n / (static_cast<double>(t.scan_ns) / 1e9));
    read_records_per_s.push_back(n / (static_cast<double>(t.read_ns) / 1e9));
    cpu_ns_per_record.push_back(static_cast<double>(t.cpu_ns) / n);
  }
  records += t.records;
  slices_read += t.slices_read;
  slices_failed += t.slices_failed;
  domains += t.domains;
  read_ms.insert(read_ms.end(), t.read_ms.begin(), t.read_ms.end());
  read_feed_ms.insert(read_feed_ms.end(), t.read_feed_ms.begin(), t.read_feed_ms.end());
}

}  // namespace e2e
