// Each correctness check of the end-to-end benchmark accepts a faithful
// output and rejects a corrupted one: a dropped record, a flipped address
// bit that breaks prefix preservation, a window total off by one, a VPN IP
// from a www collision, and the scan-figure and slice-window faults.
#include <gtest/gtest.h>

#include "checks.hpp"
#include "flow/anonymizer.hpp"

namespace {

using e2e::checks::Totals;
using lockdown::flow::FlowRecord;
using lockdown::net::IpAddress;
using lockdown::net::Ipv4Address;

FlowRecord record(std::uint32_t src, std::uint32_t dst, std::uint16_t dport,
                  std::int64_t t, std::uint64_t bytes) {
  FlowRecord r;
  r.src_addr = Ipv4Address(src);
  r.dst_addr = Ipv4Address(dst);
  r.src_port = 40000;
  r.dst_port = dport;
  r.first = lockdown::net::Timestamp(t);
  r.last = lockdown::net::Timestamp(t + 5);
  r.bytes = bytes;
  r.packets = bytes / 1000 + 1;
  return r;
}

std::vector<FlowRecord> sample() {
  std::vector<FlowRecord> out;
  for (std::uint32_t i = 0; i < 64; ++i) {
    out.push_back(record(0x0a000000u + i * 37, 0xc0a80000u + (i % 7) * 256 + i,
                         static_cast<std::uint16_t>(443 + i % 3), 1'585'000'000 + i * 30,
                         1000 + i));
  }
  return out;
}

TEST(RecordsMultiset, AcceptsAPermutationAndRejectsADroppedRecord) {
  const auto generated = sample();
  auto spooled = generated;
  std::reverse(spooled.begin(), spooled.end());
  EXPECT_EQ(e2e::checks::records_equal_as_multiset(generated, spooled), "");
  spooled.pop_back();
  EXPECT_NE(e2e::checks::records_equal_as_multiset(generated, spooled), "");
}

TEST(RecordsMultiset, RejectsAChangedField) {
  const auto generated = sample();
  auto spooled = generated;
  spooled[5].bytes += 1;
  EXPECT_NE(e2e::checks::records_equal_as_multiset(generated, spooled), "");
}

TEST(NonAddressFields, IgnoresAddressesButRejectsADroppedRecord) {
  const auto generated = sample();
  auto spooled = generated;
  for (auto& r : spooled) r.src_addr = Ipv4Address(r.src_addr.v4().value() ^ 0xff);
  EXPECT_EQ(e2e::checks::non_address_fields_equal(generated, spooled), "");
  spooled.erase(spooled.begin() + 3);
  EXPECT_NE(e2e::checks::non_address_fields_equal(generated, spooled), "");
}

TEST(SliceWindows, RejectsARecordOutsideItsWindow) {
  std::vector<e2e::checks::SliceView> slices(1);
  slices[0].begin = 1'585'000'200;  // multiple of 300
  slices[0].records.push_back(record(1, 2, 443, 1'585'000'200, 10));
  slices[0].records.push_back(record(1, 2, 443, 1'585'000'499, 10));
  EXPECT_EQ(e2e::checks::slices_within_windows(slices, 300), "");
  slices[0].records.push_back(record(1, 2, 443, 1'585'000'500, 10));
  EXPECT_NE(e2e::checks::slices_within_windows(slices, 300), "");
}

TEST(Totals, RejectsAWindowTotalOffByOne) {
  const std::map<std::string, Totals> monitors = {{"web", {10, 5000, 40}},
                                                  {"vpn", {2, 300, 4}}};
  auto windows = monitors;
  EXPECT_EQ(e2e::checks::totals_match(monitors, windows, "windows"), "");
  windows["vpn"].bytes += 1;
  EXPECT_NE(e2e::checks::totals_match(monitors, windows, "windows"), "");
  windows = monitors;
  windows.erase("web");
  EXPECT_NE(e2e::checks::totals_match(monitors, windows, "windows"), "");
}

TEST(Anonymization, AcceptsPrefixPreservingOutputAndRejectsAFlippedBit) {
  const auto original = sample();
  const lockdown::flow::Anonymizer anon({1, 2}, lockdown::flow::AnonymizationMode::kPrefixPreserving);
  auto anonymized = original;
  for (auto& r : anonymized) anon.anonymize(r);
  EXPECT_EQ(e2e::checks::anonymization_preserves_prefixes(original, anonymized, 7), "");

  // Flip the top bit of one image: its common prefix with every
  // neighbour drops to 0 bits while the originals share 8 or more.
  auto flipped = anonymized;
  flipped[10].src_addr = Ipv4Address(flipped[10].src_addr.v4().value() ^ 0x80000000u);
  EXPECT_NE(e2e::checks::anonymization_preserves_prefixes(original, flipped, 7), "");
}

TEST(Anonymization, RejectsAMappingThatIsNotABijection) {
  const auto original = sample();
  auto collapsed = original;
  for (auto& r : collapsed) r.dst_addr = Ipv4Address(0x01020304u);
  EXPECT_NE(e2e::checks::anonymization_preserves_prefixes(original, collapsed, 7), "");
}

TEST(VpnSet, RejectsAWwwCollisionAndAMissedGateway) {
  const std::set<IpAddress> labelled = {Ipv4Address(203, 0, 0, 1), Ipv4Address(203, 0, 0, 2)};
  const std::set<IpAddress> www = {Ipv4Address(203, 0, 0, 9)};
  std::set<IpAddress> found = labelled;
  found.insert(Ipv4Address(203, 0, 0, 5));  // a decoy name: allowed
  EXPECT_EQ(e2e::checks::vpn_set_ok(found, labelled, www), "");
  found.insert(Ipv4Address(203, 0, 0, 9));
  EXPECT_NE(e2e::checks::vpn_set_ok(found, labelled, www), "");
  found = {Ipv4Address(203, 0, 0, 1)};
  EXPECT_NE(e2e::checks::vpn_set_ok(found, labelled, www), "");
}

TEST(ScanFigures, RejectsEveryFigureThatDiffers) {
  using lockdown::flow::IpProtocol;
  using lockdown::flow::PortKey;
  e2e::checks::ScanFigures plain;
  plain.records = 100;
  plain.total_bytes = 1e6;
  plain.class_bytes = {{1, 4e5}, {3, 1e5}};
  plain.hypergiant_share = 0.4;
  plain.web_share = 0.6;
  plain.port_bytes = {{PortKey{IpProtocol::kTcp, 443}, 6e5},
                      {PortKey{IpProtocol::kUdp, 443}, 3e5},
                      {PortKey{IpProtocol::kUdp, 3478}, 1e5}};
  e2e::checks::ScanFigures scan = plain;
  scan.port_bytes.clear();
  scan.class_bytes[2] = 0.0;  // a class the scan tracked but never saw
  scan.top_ports = {PortKey{IpProtocol::kUdp, 443}, PortKey{IpProtocol::kUdp, 3478}};
  EXPECT_EQ(e2e::checks::scan_matches(plain, scan), "");

  auto bad = scan;
  bad.records = 99;  // a dropped record
  EXPECT_NE(e2e::checks::scan_matches(plain, bad), "");
  bad = scan;
  bad.class_bytes[3] += 1;
  EXPECT_NE(e2e::checks::scan_matches(plain, bad), "");
  bad = scan;
  bad.hypergiant_share = 0.41;
  EXPECT_NE(e2e::checks::scan_matches(plain, bad), "");
  bad = scan;
  bad.top_ports = {PortKey{IpProtocol::kUdp, 3478}, PortKey{IpProtocol::kUdp, 443}};
  EXPECT_NE(e2e::checks::scan_matches(plain, bad), "");
  bad = scan;
  bad.top_ports = {PortKey{IpProtocol::kUdp, 3478}};  // misses a heavier port
  EXPECT_NE(e2e::checks::scan_matches(plain, bad), "");
}

}  // namespace
