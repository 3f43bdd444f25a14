#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <sstream>
#include <tuple>

#include "util/arith.hpp"

namespace e2e::checks {

namespace {

using lockdown::flow::IpProtocol;
using lockdown::flow::PortKey;
using lockdown::net::IpAddress;

auto non_address_key(const FlowRecord& r) {
  return std::make_tuple(r.first.seconds(), r.last.seconds(), r.src_port,
                         r.dst_port, static_cast<int>(r.protocol), r.tcp_flags,
                         r.bytes, r.packets, r.input_if, r.output_if,
                         r.src_as.value(), r.dst_as.value());
}

bool record_less(const FlowRecord& a, const FlowRecord& b) {
  const auto ka = non_address_key(a);
  const auto kb = non_address_key(b);
  if (ka != kb) return ka < kb;
  if (a.src_addr != b.src_addr) return a.src_addr < b.src_addr;
  return a.dst_addr < b.dst_addr;
}

std::string describe(const FlowRecord& r) {
  std::ostringstream o;
  o << r.src_addr.to_string() << ":" << r.src_port << " -> "
    << r.dst_addr.to_string() << ":" << r.dst_port << " t=" << r.first.seconds()
    << " bytes=" << r.bytes << " pkts=" << r.packets;
  return o.str();
}

std::string multiset_diff(std::vector<FlowRecord>& expected,
                          std::vector<FlowRecord>& actual, const char* what) {
  std::sort(expected.begin(), expected.end(), record_less);
  std::sort(actual.begin(), actual.end(), record_less);
  if (expected.size() != actual.size()) {
    return std::string(what) + ": " + std::to_string(actual.size()) +
           " records, expected " + std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(expected[i] == actual[i])) {
      return std::string(what) + ": record " + describe(actual[i]) +
             " where " + describe(expected[i]) + " was expected";
    }
  }
  return {};
}

/// Common-prefix length of two same-family addresses, in bits.
int common_prefix(const IpAddress& a, const IpAddress& b) {
  if (a.is_v4()) {
    const std::uint32_t x = a.v4().value() ^ b.v4().value();
    return x == 0 ? 32 : std::countl_zero(x);
  }
  const auto& ab = a.v6().bytes();
  const auto& bb = b.v6().bytes();
  for (std::size_t i = 0; i < ab.size(); ++i) {
    const auto x = static_cast<std::uint8_t>(ab[i] ^ bb[i]);
    if (x != 0) return static_cast<int>(i) * 8 + std::countl_zero(x);
  }
  return 128;
}

}  // namespace

std::string records_equal_as_multiset(std::vector<FlowRecord> expected,
                                      std::vector<FlowRecord> actual) {
  return multiset_diff(expected, actual, "spooled records");
}

std::string non_address_fields_equal(std::vector<FlowRecord> expected,
                                     std::vector<FlowRecord> actual) {
  for (auto* side : {&expected, &actual}) {
    for (FlowRecord& r : *side) {
      r.src_addr = IpAddress();
      r.dst_addr = IpAddress();
    }
  }
  return multiset_diff(expected, actual, "non-address fields");
}

std::string slices_within_windows(const std::vector<SliceView>& slices,
                                  std::int64_t rotation_seconds) {
  for (const SliceView& s : slices) {
    if (s.begin % rotation_seconds != 0) {
      return "slice begin " + std::to_string(s.begin) + " is not window-aligned";
    }
    for (const FlowRecord& r : s.records) {
      const std::int64_t t = r.first.seconds();
      if (t < s.begin || t >= s.begin + rotation_seconds) {
        return "slice " + std::to_string(s.begin) + " holds a record starting at " +
               std::to_string(t);
      }
    }
  }
  return {};
}

std::string totals_match(const std::map<std::string, Totals>& expected,
                         const std::map<std::string, Totals>& actual,
                         const std::string& what) {
  if (expected.size() != actual.size()) {
    return what + ": " + std::to_string(actual.size()) + " objects, expected " +
           std::to_string(expected.size());
  }
  for (const auto& [name, want] : expected) {
    const auto it = actual.find(name);
    if (it == actual.end()) return what + ": no object '" + name + "'";
    const Totals& got = it->second;
    if (!(got == want)) {
      return what + " '" + name + "': flows/bytes/packets " +
             std::to_string(got.flows) + "/" + std::to_string(got.bytes) + "/" +
             std::to_string(got.packets) + ", expected " + std::to_string(want.flows) +
             "/" + std::to_string(want.bytes) + "/" + std::to_string(want.packets);
    }
  }
  return {};
}

std::map<int, Totals> class_tallies(const std::vector<FlowRecord>& records,
                                    const lockdown::analysis::AppClassifier& classifier,
                                    const lockdown::analysis::AsView& view) {
  std::map<int, Totals> out;
  for (const FlowRecord& r : records) {
    const auto cls = classifier.classify_reference(r, view);
    if (cls) out[static_cast<int>(*cls)].add(r);
  }
  return out;
}

std::string anonymization_preserves_prefixes(const std::vector<FlowRecord>& original,
                                             const std::vector<FlowRecord>& anonymized,
                                             std::uint64_t seed) {
  using Key = decltype(non_address_key(original.front()));
  std::map<Key, std::pair<std::vector<const FlowRecord*>, std::vector<const FlowRecord*>>>
      by_key;
  for (const FlowRecord& r : original) by_key[non_address_key(r)].first.push_back(&r);
  for (const FlowRecord& r : anonymized) by_key[non_address_key(r)].second.push_back(&r);

  std::map<IpAddress, IpAddress> forward;
  std::map<IpAddress, IpAddress> backward;
  const auto pair_up = [&](const IpAddress& o, const IpAddress& a) -> std::string {
    if (o.is_v4() != a.is_v4()) return "address family changed for " + o.to_string();
    const auto [f, fresh] = forward.emplace(o, a);
    if (!fresh && f->second != a) {
      return o.to_string() + " maps to both " + f->second.to_string() + " and " +
             a.to_string();
    }
    const auto [b, bfresh] = backward.emplace(a, o);
    if (!bfresh && b->second != o) {
      return a.to_string() + " is the image of both " + b->second.to_string() +
             " and " + o.to_string();
    }
    return {};
  };
  for (const auto& [key, sides] : by_key) {
    if (sides.first.size() != 1 || sides.second.size() != 1) continue;
    const FlowRecord& o = *sides.first.front();
    const FlowRecord& a = *sides.second.front();
    for (const std::string& err :
         {pair_up(o.src_addr, a.src_addr), pair_up(o.dst_addr, a.dst_addr)}) {
      if (!err.empty()) return "anonymization is not a bijection: " + err;
    }
  }
  if (forward.empty()) return "anonymization check paired no records";

  // Map iteration is sorted by original address, so neighbours share the
  // longest prefixes; random pairs cover the rest of the trie.
  std::vector<std::pair<IpAddress, IpAddress>> pairs(forward.begin(), forward.end());
  const auto check_pair = [&](std::size_t i, std::size_t j) -> std::string {
    const auto& [oi, ai] = pairs[i];
    const auto& [oj, aj] = pairs[j];
    if (oi.is_v4() != oj.is_v4()) return {};
    const int want = common_prefix(oi, oj);
    const int got = common_prefix(ai, aj);
    if (want == got) return {};
    return "common prefix of " + oi.to_string() + " and " + oj.to_string() + " is " +
           std::to_string(want) + " bits, of their images " + ai.to_string() +
           " and " + aj.to_string() + " " + std::to_string(got);
  };
  for (std::size_t i = 0; i + 1 < pairs.size(); ++i) {
    if (std::string err = check_pair(i, i + 1); !err.empty()) return err;
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, pairs.size() - 1);
  for (int n = 0; n < 4096; ++n) {
    if (std::string err = check_pair(pick(rng), pick(rng)); !err.empty()) return err;
  }
  return {};
}

std::string vpn_set_ok(const std::set<IpAddress>& found,
                       const std::set<IpAddress>& labelled,
                       const std::set<IpAddress>& www_shared) {
  for (const IpAddress& ip : labelled) {
    if (!found.contains(ip)) return "labelled VPN gateway " + ip.to_string() + " not found";
  }
  for (const IpAddress& ip : www_shared) {
    if (found.contains(ip)) {
      return "www-collision address " + ip.to_string() + " reported as VPN";
    }
  }
  return {};
}

ScanFigures plain_scan(const std::vector<FlowRecord>& records,
                       const lockdown::analysis::AppClassifier& classifier,
                       const lockdown::analysis::AsView& view,
                       const lockdown::analysis::AsnSet& hypergiants,
                       const std::vector<lockdown::net::TimeRange>& weeks) {
  using lockdown::util::counter_to_double;
  ScanFigures f;
  double hg_bytes = 0.0;
  double week_bytes = 0.0;
  double web_bytes = 0.0;
  for (const FlowRecord& r : records) {
    const double bytes = counter_to_double(r.bytes);
    ++f.records;
    f.total_bytes += bytes;
    if (const auto cls = classifier.classify_reference(r, view)) {
      f.class_bytes[static_cast<int>(*cls)] += bytes;
    }
    // Serving side: a hypergiant endpoint if there is one, source first.
    const auto src = view.src_as(r);
    const auto dst = view.dst_as(r);
    if (hypergiants.contains(src) || hypergiants.contains(dst)) hg_bytes += bytes;

    const bool in_weeks = std::any_of(weeks.begin(), weeks.end(),
                                      [&](const auto& w) { return w.contains(r.first); });
    if (!in_weeks) continue;
    const PortKey port = r.service_port();
    f.port_bytes[port] += bytes;
    week_bytes += bytes;
    if (port.proto == IpProtocol::kTcp && (port.port == 80 || port.port == 443)) {
      web_bytes += bytes;
    }
  }
  f.hypergiant_share = f.total_bytes > 0.0 ? hg_bytes / f.total_bytes : 0.0;
  f.web_share = week_bytes > 0.0 ? web_bytes / week_bytes : 0.0;
  return f;
}

std::string scan_matches(const ScanFigures& plain, const ScanFigures& scan) {
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
  };
  if (plain.records != scan.records) {
    return "scan saw " + std::to_string(scan.records) + " records, read " +
           std::to_string(plain.records);
  }
  if (!close(plain.total_bytes, scan.total_bytes)) return "scan total bytes differ";
  for (const auto& [cls, bytes] : plain.class_bytes) {
    const auto it = scan.class_bytes.find(cls);
    if (it == scan.class_bytes.end() || !close(bytes, it->second)) {
      return "class " + std::to_string(cls) + " bytes differ from the reference classifier";
    }
  }
  for (const auto& [cls, bytes] : scan.class_bytes) {
    if (bytes != 0.0 && !plain.class_bytes.contains(cls)) {
      return "class " + std::to_string(cls) + " has bytes the reference classifier gave none";
    }
  }
  if (!close(plain.hypergiant_share, scan.hypergiant_share)) return "hypergiant share differs";
  if (!close(plain.web_share, scan.web_share)) return "web share differs";
  // Top ports: descending by the plain totals, and nothing left out that
  // outweighs the lightest one returned.
  const auto is_web = [](const PortKey& p) {
    return p.proto == IpProtocol::kTcp && (p.port == 80 || p.port == 443);
  };
  double prev = INFINITY;
  for (const PortKey& p : scan.top_ports) {
    const auto it = plain.port_bytes.find(p);
    if (it == plain.port_bytes.end() || is_web(p)) {
      return "top port " + p.to_string() + " carries no non-web bytes";
    }
    if (it->second > prev) return "top ports out of order at " + p.to_string();
    prev = it->second;
  }
  std::size_t heavier = 0;
  for (const auto& [p, bytes] : plain.port_bytes) {
    if (!is_web(p) && bytes > prev) ++heavier;
  }
  if (!scan.top_ports.empty() && heavier >= scan.top_ports.size()) {
    return "top ports miss a heavier port";
  }
  return {};
}

}  // namespace e2e::checks
