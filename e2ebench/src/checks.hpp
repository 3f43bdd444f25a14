// Correctness checks of the end-to-end benchmark. Each takes the expected
// side (computed by the benchmark apart from the program, or the input it
// generated) and the program's output, and returns an empty string when
// the output passes, otherwise what is wrong. tests/test_checks.cpp feeds
// every check a corrupted output and requires a rejection.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/app_filter.hpp"
#include "analysis/as_view.hpp"
#include "flow/flow_record.hpp"
#include "net/ip.hpp"

namespace e2e::checks {

using lockdown::flow::FlowRecord;

struct Totals {
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;

  void add(const FlowRecord& r) {
    ++flows;
    bytes += r.bytes;
    packets += r.packets;
  }
  friend bool operator==(const Totals&, const Totals&) = default;
};

/// The spooled records equal the generated ones as a multiset.
[[nodiscard]] std::string records_equal_as_multiset(std::vector<FlowRecord> expected,
                                                    std::vector<FlowRecord> actual);

/// As above with both addresses masked out: what anonymization must keep.
[[nodiscard]] std::string non_address_fields_equal(std::vector<FlowRecord> expected,
                                                   std::vector<FlowRecord> actual);

struct SliceView {
  std::int64_t begin = 0;  ///< aligned window start, unix seconds
  std::vector<FlowRecord> records;

  friend bool operator==(const SliceView&, const SliceView&) = default;
};

/// Every slice holds only records whose start lies in its rotation window.
[[nodiscard]] std::string slices_within_windows(const std::vector<SliceView>& slices,
                                                std::int64_t rotation_seconds);

/// Per-object flow/byte/packet totals equal the expected tallies, keyed by
/// object name; both sides must name the same objects.
[[nodiscard]] std::string totals_match(const std::map<std::string, Totals>& expected,
                                       const std::map<std::string, Totals>& actual,
                                       const std::string& what);

/// Per-class tallies of `records` by the classifier's reference path,
/// keyed by class index (AppClass cast to int).
[[nodiscard]] std::map<int, Totals> class_tallies(
    const std::vector<FlowRecord>& records,
    const lockdown::analysis::AppClassifier& classifier,
    const lockdown::analysis::AsView& view);

/// Anonymized addresses form a bijection with the originals and keep every
/// checked pair's common-prefix length. Records are paired through their
/// non-address fields (pairs that are ambiguous there are skipped).
[[nodiscard]] std::string anonymization_preserves_prefixes(
    const std::vector<FlowRecord>& original,
    const std::vector<FlowRecord>& anonymized, std::uint64_t seed);

/// The VPN set holds every labelled gateway and no www-collision address.
[[nodiscard]] std::string vpn_set_ok(const std::set<lockdown::net::IpAddress>& found,
                                     const std::set<lockdown::net::IpAddress>& labelled,
                                     const std::set<lockdown::net::IpAddress>& www_shared);

/// Figures a scan must reproduce, computed either from the scan bundle or
/// by plain loops over the records read.
struct ScanFigures {
  std::uint64_t records = 0;
  double total_bytes = 0.0;
  std::map<int, double> class_bytes;  ///< per AppClass, classified records only
  double hypergiant_share = 0.0;
  double web_share = 0.0;
  /// Bytes per service port over the analysis weeks (plain side only).
  std::map<lockdown::flow::PortKey, double> port_bytes;
  /// Top non-web ports as ranked by the scan (scan side only).
  std::vector<lockdown::flow::PortKey> top_ports;

  friend bool operator==(const ScanFigures&, const ScanFigures&) = default;
};

[[nodiscard]] ScanFigures plain_scan(const std::vector<FlowRecord>& records,
                                     const lockdown::analysis::AppClassifier& classifier,
                                     const lockdown::analysis::AsView& view,
                                     const lockdown::analysis::AsnSet& hypergiants,
                                     const std::vector<lockdown::net::TimeRange>& weeks);

/// The scan's figures equal the plain loops'; its top ports are the
/// heaviest non-web ports in descending order (ties in either order).
[[nodiscard]] std::string scan_matches(const ScanFigures& plain, const ScanFigures& scan);

}  // namespace e2e::checks
