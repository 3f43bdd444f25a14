// The analyst pass every workload ends with: read slice files, find the
// VPN set in a DNS corpus, scan the records through a multi-lane
// ScanEngine bundle of the figure aggregators, render the tables, and
// check the figures against plain loops over the records read.
#pragma once

#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <tuple>
#include <string>
#include <vector>

#include "analysis/app_filter.hpp"
#include "analysis/as_view.hpp"
#include "analysis/table1_dsl.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "dns/corpus.hpp"
#include "dns/public_suffix.hpp"
#include "synth/as_registry.hpp"

namespace e2e {

/// Read-only state shared by the ingest checks and the analyst pass.
struct Context {
  Context();

  lockdown::synth::AsRegistry registry;
  lockdown::analysis::AppClassifier classifier;
  lockdown::analysis::AsView view;
  lockdown::analysis::AsnSet hypergiants;
  lockdown::dns::PublicSuffixList psl;
  /// The nine Table 1 classes as DSL monitoring-object definitions.
  std::vector<lockdown::analysis::MonitorDefinition> monitor_defs;
};

/// ScanEngine lanes of the timed analyst pass. One lane runs the bundle
/// inline on the feeding thread. On the 4-vCPU VM the benchmark was tuned
/// on, host steal (11-16% of wall time) stalls the lane hand-offs, and the
/// 2- and 3-lane report times spread by more than the largest bound a metric
/// may have (README.md, "Reference figures" has the multi-lane numbers).
inline constexpr unsigned kScanLanes = 1;

struct ReportInput {
  std::vector<std::filesystem::path> slices;
  const lockdown::dns::SyntheticCorpus* corpus = nullptr;
  std::vector<lockdown::net::TimeRange> weeks;
  unsigned lanes = kScanLanes;
};

/// Timings of one analyst pass (untraced or traced alike).
struct ReportTiming {
  std::uint64_t wall_ns = 0;    ///< VPN find + read + scan + render
  std::uint64_t scan_ns = 0;    ///< first read to finish() returned
  std::uint64_t read_ns = 0;    ///< sum of read_trace_file calls
  std::uint64_t cpu_ns = 0;     ///< process CPU over the pass
  std::uint64_t records = 0;
  std::uint64_t slices_read = 0;
  std::uint64_t slices_failed = 0;  ///< unreadable or truncated files
  std::uint64_t domains = 0;
  std::vector<double> read_ms;       ///< per slice: read_trace_file
  std::vector<double> read_feed_ms;  ///< per slice: read + feed()
};

struct ReportOutcome {
  ReportTiming timing;
  /// Records of each slice read, in input order, for the checks.
  std::vector<checks::SliceView> slices;
  std::string rendered;  ///< every table, as CSV
  checks::ScanFigures figures;
  std::set<lockdown::net::IpAddress> vpn_set;
};

/// Run one analyst pass. Slice begins are parsed from the file names
/// (`slice-<unix seconds>.lft`).
[[nodiscard]] ReportOutcome run_report(const Context& ctx, const ReportInput& in);

/// True when `b` reproduces `a`: the same slices read, tables rendered,
/// figures and VPN set. The analyst pass is deterministic for fixed slices,
/// so a round that reproduces a fully checked round passes the same checks.
[[nodiscard]] bool same_report(const ReportOutcome& a, const ReportOutcome& b);

/// Check the outcome: scan figures against plain loops, the VPN set
/// against the corpus labels. Appends failures to `result`.
void check_report(const Context& ctx, const ReportInput& in, const ReportOutcome& out,
                  RunResult& result);

/// Replay the records through each aggregator's add_batch on its own and
/// through the column build, recording one span per call
/// (`replay.analysis.<name>`), for the per-aggregator split.
void replay_report(const Context& ctx, const ReportInput& in, const ReportOutcome& out);

/// Write a trace slice image to `dir/slice-<begin>.lft`; returns the path
/// (empty on I/O failure).
[[nodiscard]] std::filesystem::path write_slice(const std::filesystem::path& dir,
                                                std::int64_t begin,
                                                const std::vector<std::uint8_t>& image);

/// The make-up of a workload's records, stamped on every result so that a
/// cache or locality change can state the share of the input it helps. ASes
/// resolve as the monitors and scans resolve them.
class InputMakeup {
 public:
  void add(const Context& ctx, std::span<const lockdown::flow::FlowRecord> records);
  void stamp(RunResult& result) const;

 private:
  std::uint64_t records_ = 0;
  std::uint64_t ipv6_ = 0;
  std::set<lockdown::net::IpAddress> addresses_;
  std::set<std::uint32_t> v4_24s_;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> service_as_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> window_keys_;  // (dst_as, service)
};

/// Accumulates report timings over rounds and sets the report-side
/// end-to-end metrics (scan_records_per_s, report_s).
struct ReportTotals {
  std::vector<double> wall_s;
  std::vector<double> scan_records_per_s;  ///< per round, like the two below
  std::vector<double> read_records_per_s;
  std::vector<double> cpu_ns_per_record;
  std::uint64_t records = 0;
  std::uint64_t slices_read = 0;
  std::uint64_t slices_failed = 0;
  std::uint64_t domains = 0;
  std::vector<double> read_ms;
  std::vector<double> read_feed_ms;

  void add(const ReportTiming& t);
};

}  // namespace e2e
