// figure_report: the batch job behind the figures. Set-up synthesizes
// several vantage points over a base week (Feb) and two lockdown weeks
// (Mar, Apr), writes them as hourly slice files, and generates the DNS
// corpus. Each round is one analyst pass over every slice (report.hpp).
#include <algorithm>

#include "flow/trace_file.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace lf = lockdown::flow;
namespace ln = lockdown::net;
namespace lsy = lockdown::synth;
using lf::FlowRecord;

constexpr double kConnectionsPerHour = 100;
constexpr std::size_t kCorpusOrganizations = 2000;

std::vector<ln::TimeRange> figure_weeks() {
  return {ln::TimeRange::week_of(ln::Date(2020, 2, 20)),
          ln::TimeRange::week_of(ln::Date(2020, 3, 19)),
          ln::TimeRange::week_of(ln::Date(2020, 4, 23))};
}

struct FigureInput {
  lockdown::dns::SyntheticCorpus corpus;
  std::vector<std::filesystem::path> slices;
  std::uint64_t records = 0;
};

FigureInput make_input(const Context& ctx, std::uint64_t seed,
                       const std::filesystem::path& dir, RunResult& result) {
  FigureInput in;
  in.corpus = lockdown::dns::generate_corpus(
      {.seed = seed, .organizations = kCorpusOrganizations});
  lsy::ScenarioConfig cfg{.seed = seed, .enterprise_transit = false};
  cfg.vpn_tls_server_ips.assign(in.corpus.vpn_gateway_ips.begin(),
                                in.corpus.vpn_gateway_ips.end());
  for (const auto id : {lsy::VantagePointId::kIxpCe, lsy::VantagePointId::kIspCe,
                        lsy::VantagePointId::kIxpSe}) {
    const auto vp = lsy::build_vantage(id, ctx.registry, cfg);
    const std::filesystem::path vantage_dir = dir / std::to_string(static_cast<int>(id));
    std::filesystem::create_directories(vantage_dir);
    const lsy::FlowSynthesizer synth(vp.model, ctx.registry,
                                     {.connections_per_hour = kConnectionsPerHour});
    for (const ln::TimeRange& week : figure_weeks()) {
      std::vector<FlowRecord> records;
      {
        const spans::Scope span("synth.generate");
        records = synth.collect(week);
      }
      in.records += records.size();
      std::stable_sort(records.begin(), records.end(),
                       [](const FlowRecord& a, const FlowRecord& b) {
                         return a.first.seconds() < b.first.seconds();
                       });
      // One slice per vantage point and hour, as a collector rotates them.
      const spans::Scope span("flow.encode");
      std::size_t i = 0;
      while (i < records.size()) {
        const std::int64_t hour = records[i].first.floor_hour().seconds();
        lf::TraceWriter writer;
        std::size_t j = i;
        while (j < records.size() && records[j].first.floor_hour().seconds() == hour) {
          writer.append(records[j++]);
        }
        const auto path = write_slice(vantage_dir, hour, writer.finish());
        if (path.empty()) {
          result.fail("cannot write slice files");
          return in;
        }
        in.slices.push_back(path);
        i = j;
      }
    }
  }
  std::sort(in.slices.begin(), in.slices.end());
  return in;
}

struct Phase {
  std::uint64_t rounds = 0;
  ReportTotals report;
};

/// Rounds until `seconds` have passed (at least one). The first round that
/// passes every check becomes `reference`; a later round that reproduces it
/// exactly is not checked again, so checking does not crowd out rounds.
Phase run_phase(const Context& ctx, const ReportInput& rin, double seconds,
                std::optional<ReportOutcome>& reference, RunResult& result) {
  Phase ph;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    ReportOutcome out = run_report(ctx, rin);
    ph.report.add(out.timing);
    ++ph.rounds;
    if (reference && same_report(*reference, out)) continue;
    const std::size_t errors = result.errors.size();
    check_report(ctx, rin, out, result);
    if (!reference && result.errors.size() == errors) reference = std::move(out);
  } while (now_ns() < end);
  return ph;
}

/// Mean report wall time per record, what the traced layers are compared to.
double ns_per_record(const Phase& ph) {
  if (ph.report.records == 0) return 0.0;
  double wall_s = 0.0;
  for (const double s : ph.report.wall_s) wall_s += s;
  return wall_s * 1e9 / static_cast<double>(ph.report.records);
}

}  // namespace

void run_figure_report(const Options& opt, RunResult& result) {
  spans::enable(opt.trace);
  const Context ctx;
  const std::filesystem::path dir = opt.work_dir / "slices";
  const FigureInput in = make_input(ctx, opt.seed, dir, result);
  spans::enable(false);
  if (!result.correct) return;
  const ReportInput rin{in.slices, &in.corpus, figure_weeks(),
                        opt.lanes == 0 ? kScanLanes : opt.lanes};
  const auto account = [&](const Phase& ph) {
    result.attempted += ph.report.slices_read;
    result.failed += ph.report.slices_failed;
  };
  std::optional<ReportOutcome> reference;
  account(run_phase(ctx, rin, 0.0, reference, result));  // warm-up round, part of set-up
  result.set("setup_s", static_cast<double>(now_ns() - process_start_ns()) / 1e9, "s");
  result.stamp["slices_per_round"] = std::to_string(in.slices.size());
  result.stamp["records_per_round"] = std::to_string(in.records);
  result.stamp["scan_lanes"] = std::to_string(rin.lanes);
  if (reference) {
    InputMakeup makeup;
    for (const auto& slice : reference->slices) makeup.add(ctx, slice.records);
    makeup.stamp(result);
  }

  if (!opt.trace) {
    const Phase ph = run_phase(ctx, rin, opt.seconds, reference, result);
    account(ph);
    const ReportTotals& r = ph.report;
    result.set("peak_rss_mib", peak_rss_mib(), "MiB");
    // The job's ingest is reading slice files; its "collector" the process.
    result.set("ingest_records_per_s", median(r.read_records_per_s), "records/s");
    result.set("collector_cpu_ns_per_record", median(r.cpu_ns_per_record), "ns");
    result.stamp["delivery_latency_p50_ms"] = std::to_string(quantile(r.read_ms, 0.50));
    result.stamp["delivery_latency_p99_ms"] = std::to_string(quantile(r.read_ms, 0.99));
    result.stamp["slice_latency_p50_ms"] = std::to_string(quantile(r.read_feed_ms, 0.50));
    result.stamp["slice_latency_p90_ms"] = std::to_string(quantile(r.read_feed_ms, 0.90));
    result.set("scan_records_per_s", median(r.scan_records_per_s), "records/s");
    result.set("report_s", median(r.wall_s), "s");
    result.stamp["rounds"] = std::to_string(ph.rounds);
  } else {
    const Phase untraced = run_phase(ctx, rin, opt.seconds / 2, reference, result);
    spans::enable(true);
    const Phase traced = run_phase(ctx, rin, opt.seconds / 2, reference, result);
    account(untraced);
    account(traced);
    if (reference) replay_report(ctx, rin, *reference);
    spans::enable(false);
    spans::set_meta("records", static_cast<double>(traced.report.records));
    spans::set_meta("report_records", static_cast<double>(traced.report.records));
    spans::set_meta("report_rounds", static_cast<double>(traced.rounds));
    spans::set_meta("report_replay_records",
                    static_cast<double>(reference ? reference->timing.records : 0));
    spans::set_meta("domains", static_cast<double>(traced.report.domains));
    spans::set_meta("setup_records", static_cast<double>(in.records));
    spans::set_meta("untraced_ns_per_record", ns_per_record(untraced));
    spans::set_meta("traced_ns_per_record", ns_per_record(traced));
    spans::set_meta("delivery_latency_p50_ms", quantile(untraced.report.read_ms, 0.50));
    spans::set_meta("delivery_latency_p99_ms", quantile(untraced.report.read_ms, 0.99));
    spans::set_meta("slice_latency_p50_ms", quantile(untraced.report.read_feed_ms, 0.50));
    spans::set_meta("slice_latency_p90_ms", quantile(untraced.report.read_feed_ms, 0.90));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace e2e
