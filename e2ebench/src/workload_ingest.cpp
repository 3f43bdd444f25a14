// The two ingest workloads: IXP-CE IPFIX from four observation domains
// over loopback UDP into a collector that routes every batch through the
// nine Table 1 monitoring objects, into streaming windows, and spools
// rotated slices to disk, followed by the analyst pass over the slices.
//
//   ingest_raw_1lane   closed loop: one sender keeps kInFlight datagrams
//                      outstanding; UdpCollectorTransport drained into the
//                      single-threaded CollectorDaemon; no anonymizer, no
//                      registry; windows keyed by (dst_as, service). With
//                      --lanes N (reference figures only) the same stack
//                      runs on an N-lane WirePlane with N shards.
//   ingest_anon_paced  open loop: one sender spreads the stream over four
//                      sockets at kPacedRate; WirePlane (kPlaneLanes lanes)
//                      into ShardedCollectorDaemon (kShards shard) with
//                      prefix-preserving anonymization and an obs::Registry
//                      bound; scalar windows.
//
// Every record carries the index of the datagram it travels in (in its two
// interface fields), so the batch observer can time each datagram from its
// due time, and the slice sink can time each slice from the due time of the
// datagram whose first record closed it.
#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <thread>

#include "analysis/table1_dsl.hpp"
#include "dns/corpus.hpp"
#include "filter/monitor.hpp"
#include "filter/plan.hpp"
#include "flow/collector_daemon.hpp"
#include "flow/ipfix.hpp"
#include "flow/udp_transport.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "runtime/sharded_daemon.hpp"
#include "runtime/wire_plane.hpp"
#include "spans.hpp"
#include "stream/engine.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace lf = lockdown::flow;
namespace ln = lockdown::net;
namespace ls = lockdown::stream;
using lf::FlowRecord;

// Input geometry shared by both ingest workloads (README.md, "Inputs").
constexpr double kConnectionsPerHour = 5000;
// Hours of flow time per round: a raw round ingests in about 0.3 s, a
// paced round is sent in about 0.8 s.
constexpr std::int64_t kRawHours = 8;
constexpr std::int64_t kPacedHours = 2;
constexpr std::int64_t kRotationSeconds = 300;  // nfcapd's default
constexpr std::int64_t kWindowSeconds = 300;
constexpr std::size_t kDomains = 4;
constexpr std::size_t kMaxRecordsPerDatagram = 24;  // the IPFIX encoder's chunk
constexpr std::size_t kCorpusOrganizations = 300;
// ingest_raw_1lane
constexpr std::size_t kInFlight = 256;  // ~8 ms of collector work
constexpr std::size_t kRefill = 64;     // the sender wakes to send this many
constexpr std::size_t kNotifyEvery = 32;
// ingest_anon_paced: lanes + shards leave the sender a core of the four.
constexpr double kPacedRate = 2000.0;  // datagrams per second
constexpr std::size_t kPlaneLanes = 2;
constexpr std::size_t kShards = 1;
constexpr std::uint64_t kStallNs = 2'000'000'000;

std::int64_t window_of(const FlowRecord& r) {
  const std::int64_t t = r.first.seconds();
  return t - (((t % kRotationSeconds) + kRotationSeconds) % kRotationSeconds);
}

std::uint32_t datagram_of(const FlowRecord& r) {
  return static_cast<std::uint32_t>(r.input_if) |
         (static_cast<std::uint32_t>(r.output_if) << 16);
}

void stamp_datagram(FlowRecord& r, std::uint32_t d) {
  r.input_if = static_cast<std::uint16_t>(d & 0xffff);
  r.output_if = static_cast<std::uint16_t>(d >> 16);
}

std::vector<ln::TimeRange> ingest_weeks() {
  return {ln::TimeRange::week_of(ln::Date(2020, 2, 20)),
          ln::TimeRange::week_of(ln::Date(2020, 3, 19))};
}

struct IngestInput {
  std::vector<FlowRecord> records;  ///< send order; stamped with their datagram
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<std::size_t> first;  ///< first record of datagram d; size D + 1
  std::vector<std::uint8_t> domain;
  /// Slice begin -> datagram whose first record opens the next window.
  std::map<std::int64_t, std::uint32_t> closer;
  lockdown::dns::SyntheticCorpus corpus;
};

IngestInput make_input(std::uint64_t seed, std::int64_t hours, const Context& ctx) {
  IngestInput in;
  in.corpus = lockdown::dns::generate_corpus(
      {.seed = seed, .organizations = kCorpusOrganizations});
  lockdown::synth::ScenarioConfig cfg{.seed = seed};
  cfg.vpn_tls_server_ips.assign(in.corpus.vpn_gateway_ips.begin(),
                                in.corpus.vpn_gateway_ips.end());
  const auto vp =
      lockdown::synth::build_vantage(lockdown::synth::VantagePointId::kIxpCe, ctx.registry, cfg);
  const lockdown::synth::FlowSynthesizer synth(
      vp.model, ctx.registry, {.connections_per_hour = kConnectionsPerHour});
  const ln::Timestamp start = ln::Timestamp::from_date(ln::Date(2020, 3, 25), 12);
  {
    const spans::Scope span("synth.generate");
    in.records = synth.collect({start, start.plus(hours * ln::kSecondsPerHour)});
  }
  // An exporter emits flows as they expire: in time order.
  std::stable_sort(in.records.begin(), in.records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.first.seconds() < b.first.seconds();
                   });

  const spans::Scope span("flow.encode");
  std::array<lf::IpfixEncoder, kDomains> encoders{
      lf::IpfixEncoder(900), lf::IpfixEncoder(901), lf::IpfixEncoder(902),
      lf::IpfixEncoder(903)};
  lf::PacketBatch packets;
  const std::size_t n = in.records.size();
  std::size_t i = 0;
  for (std::uint32_t d = 0; i < n; ++d) {
    // A datagram never spans two rotation windows, so the wire's v4-then-v6
    // set order cannot move a record across a slice boundary.
    std::size_t k = 1;
    while (i + k < n && k < kMaxRecordsPerDatagram &&
           window_of(in.records[i + k]) == window_of(in.records[i])) {
      ++k;
    }
    lf::IpfixEncoder& enc = encoders[d % kDomains];
    const std::uint32_t seq = enc.sequence();
    for (;;) {
      for (std::size_t j = i; j < i + k; ++j) stamp_datagram(in.records[j], d);
      const std::span<const FlowRecord> batch(in.records.data() + i, k);
      packets.clear();
      enc.encode_batch(batch, lf::batch_export_time(batch), packets);
      if (packets.size() == 1) break;
      enc.set_sequence(seq);  // IPv6-heavy chunk over the MTU: shrink it
      k = k > 4 ? k - 4 : 1;
    }
    const auto p = packets.packet(0);
    in.datagrams.emplace_back(p.begin(), p.end());
    in.first.push_back(i);
    in.domain.push_back(static_cast<std::uint8_t>(d % kDomains));
    i += k;
  }
  in.first.push_back(n);

  for (std::size_t d = 1; d < in.datagrams.size(); ++d) {
    const std::int64_t prev = window_of(in.records[in.first[d] - 1]);
    const std::int64_t next = window_of(in.records[in.first[d]]);
    if (next != prev) in.closer[prev] = static_cast<std::uint32_t>(d);
  }
  return in;
}

/// The nine Table 1 monitoring objects with a streaming window aggregator
/// each, plus the window sink that sums every completed window.
struct MonitorStack {
  MonitorStack(const Context& ctx, bool keyed) : monitors(&ctx.registry.trie()) {
    lockdown::analysis::add_monitor_definitions(monitors, ctx.monitor_defs);
    ls::StreamConfig cfg;
    cfg.window.window_seconds = kWindowSeconds;
    if (keyed) cfg.window.key = *ls::parse_key_tuple("dst_as,service");
    streamer.emplace(monitors, cfg);
    streamer->set_window_sink([this](const ls::ObjectStream& os, const ls::WindowResult& r) {
      checks::Totals& s = window_sums[os.name()];
      s.flows += r.total.flows;
      s.bytes += r.total.bytes;
      s.packets += r.total.packets;
      if (r.rows.empty()) return;
      ls::WindowAcc rows;
      for (const auto& [key, acc] : r.rows) rows += acc;
      if (!(rows == r.total) && window_error.empty()) {
        window_error = os.name() + " window " + std::to_string(r.seq) +
                       ": keyed rows do not sum to the window total";
      }
    });
  }

  std::size_t poll() {
    const spans::Scope span("stream.poll");
    const std::size_t n = streamer->poll();
    windows += n;
    return n;
  }

  void finish() {
    streamer->flush();
    (void)poll();
  }

  [[nodiscard]] std::map<std::string, checks::Totals> totals() const {
    std::map<std::string, checks::Totals> out;
    for (const auto& obj : monitors) {
      out[obj->name()] = {obj->flows(), obj->bytes(), obj->packets()};
    }
    return out;
  }

  lockdown::filter::MonitorSet monitors;
  std::optional<ls::StreamMonitor> streamer;  // after monitors: detaches first
  std::map<std::string, checks::Totals> window_sums;
  std::string window_error;
  std::uint64_t windows = 0;
};

struct Round {
  std::uint64_t ingest_ns = 0;
  std::uint64_t cpu_ns = 0;  ///< collector CPU (generator excluded)
  std::uint64_t records = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t failed = 0;  ///< datagrams whose records never reached the observer
  std::uint64_t windows = 0;
  std::uint64_t receive_calls = 0;
  std::uint64_t queue_high_water = 0;
  double arena_reuse = 0.0;
  std::vector<double> delivery_ms;
  std::vector<double> slice_ms;
  std::vector<double> late_ms;
  std::vector<std::filesystem::path> slices;
  /// Slices as the sink received them; written to files after the timed
  /// part, as a collector spooling to a RAM-backed directory would.
  std::vector<lf::TraceSlice> spooled;
  std::uint64_t slice_write_errors = 0;
  std::map<std::string, checks::Totals> monitor_totals;
  std::map<std::string, checks::Totals> window_sums;
  std::string window_error;
  std::map<std::string, std::uint64_t> losses;  ///< by reason, for the stamp
};

/// Write the round's slices for the analyst pass.
void spill(const std::filesystem::path& dir, Round& out) {
  for (const lf::TraceSlice& s : out.spooled) {
    auto path = write_slice(dir, s.begin.seconds(), s.image);
    if (path.empty()) {
      ++out.slice_write_errors;
    } else {
      out.slices.push_back(std::move(path));
    }
  }
  out.spooled.clear();
}

/// Fill the delivery figures from the per-datagram observer stamps.
void tally_delivery(const IngestInput& in, const std::vector<std::uint64_t>& seen_ns,
                    const auto& due_ns, Round& out) {
  out.datagrams = in.datagrams.size();
  for (std::size_t d = 0; d < in.datagrams.size(); ++d) {
    if (seen_ns[d] == 0) {
      ++out.failed;
      continue;
    }
    out.records += in.first[d + 1] - in.first[d];
    const std::uint64_t due = due_ns(d);
    out.delivery_ms.push_back(
        static_cast<double>(seen_ns[d] > due ? seen_ns[d] - due : 0) / 1e6);
  }
}

Round raw_round(const Context& ctx, const IngestInput& in,
                lf::UdpCollectorTransport& transport) {
  Round out;
  const std::size_t n = in.datagrams.size();
  MonitorStack stack(ctx, /*keyed=*/true);
  std::vector<std::atomic<std::uint64_t>> send_ns(n);
  std::vector<std::uint64_t> seen_ns(n, 0);
  const auto sink = [&](lf::TraceSlice&& s) {
    const spans::Scope span("flow.slice_sink");
    const std::uint64_t t = now_ns();
    if (const auto it = in.closer.find(s.begin.seconds()); it != in.closer.end()) {
      const std::uint64_t due = send_ns[it->second].load(std::memory_order_relaxed);
      out.slice_ms.push_back(static_cast<double>(t - due) / 1e6);
    }
    out.spooled.push_back(std::move(s));
  };
  const auto observer = [&](std::span<const FlowRecord> batch) {
    if (!batch.empty()) {
      const std::uint32_t d = datagram_of(batch.front());
      if (d < n && seen_ns[d] == 0) seen_ns[d] = now_ns();
    }
    const spans::Scope span("filter.route_batch");
    stack.monitors.route_batch(batch);
  };
  lf::CollectorDaemon daemon({.protocol = lf::ExportProtocol::kIpfix,
                              .rotation_seconds = kRotationSeconds,
                              .batch_observer = observer},
                             sink);
  auto exporter = lf::UdpExporterTransport::create(transport.port());
  if (!exporter) {
    out.failed = out.datagrams = n;
    out.losses["exporter_socket"] = n;
    return out;
  }
  const std::uint64_t kernel_drops0 = transport.kernel_drops();

  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> stop{false};
  const std::uint64_t t_begin = now_ns();
  const std::uint64_t cpu_begin = thread_cpu_ns();
  // The sender tops the window up, then blocks until the collector has
  // freed kRefill slots, so it does not compete with the collector for a
  // core (or its SMT sibling) while the window is full.
  std::thread sender([&] {
    std::size_t i = 0;
    while (i < n && !stop.load(std::memory_order_acquire)) {
      std::uint64_t done = delivered.load(std::memory_order_acquire);
      while (i < n && i < done + kInFlight) {
        send_ns[i].store(now_ns(), std::memory_order_relaxed);
        exporter->send(in.datagrams[i++]);
      }
      while (i < n && i + kRefill > done + kInFlight &&
             !stop.load(std::memory_order_acquire)) {
        delivered.wait(done, std::memory_order_acquire);
        done = delivered.load(std::memory_order_acquire);
      }
    }
  });
  std::uint64_t got = 0;
  const auto handler = [&](std::span<const std::uint8_t> datagram) {
    {
      const spans::Scope span("flow.ingest", got);
      daemon.ingest(datagram);
    }
    delivered.store(++got, std::memory_order_release);
    if (got % kNotifyEvery == 0) delivered.notify_one();
  };
  std::uint64_t last_progress = now_ns();
  while (got < n) {
    std::size_t k = 0;
    {
      spans::Scope span("net.drain");
      k = transport.drain(handler);
      if (k == 0) span.discard_if_empty();  // idle polls are not receive cost
    }
    out.receive_calls += k + 1;  // drain reads until the queue reports empty
    if (k > 0) {
      (void)stack.poll();
      last_progress = now_ns();
    } else if (now_ns() - last_progress > kStallNs) {
      break;  // the rest is lost; counted as failed below
    }
  }
  // A stalled round: wake the sender with a changed value so it sees stop.
  stop.store(true, std::memory_order_release);
  delivered.fetch_add(1, std::memory_order_release);
  delivered.notify_one();
  sender.join();
  {
    const spans::Scope span("flow.flush");
    daemon.flush();
  }
  stack.finish();
  out.ingest_ns = now_ns() - t_begin;
  out.cpu_ns = thread_cpu_ns() - cpu_begin;

  tally_delivery(in, seen_ns,
                 [&](std::size_t d) { return send_ns[d].load(std::memory_order_relaxed); },
                 out);
  out.windows = stack.windows;
  out.monitor_totals = stack.totals();
  out.window_sums = stack.window_sums;
  out.window_error = stack.window_error;
  out.losses["kernel_drops"] = transport.kernel_drops() - kernel_drops0;
  out.losses["exporter_drops"] = exporter->dropped();
  out.losses["malformed"] = daemon.wire_stats().malformed_packets;
  return out;
}

/// Yield until `due` (steady clock ns); returns the send time. The sender
/// never sleeps: a sleeping thread wakes late by a scheduler tick.
std::uint64_t wait_until(std::uint64_t due) {
  for (;;) {
    const std::uint64_t t = now_ns();
    if (t >= due) return t;
    std::this_thread::yield();
  }
}

/// How a round drives the wire plane and the sharded runtime.
struct PlaneSetup {
  std::size_t lanes = kPlaneLanes;
  std::size_t shards = kShards;
  const lf::Anonymizer* anonymizer = nullptr;
  bool registry = false;     ///< bind an obs::Registry, as a scraped deployment
  bool keyed = false;        ///< windows keyed by (dst_as, service)
  bool closed_loop = false;  ///< kInFlight outstanding instead of kPacedRate
};

Round plane_round(const Context& ctx, const IngestInput& in, const PlaneSetup& setup) {
  namespace lr = lockdown::runtime;
  Round out;
  const std::size_t n = in.datagrams.size();
  const auto period_ns = static_cast<std::uint64_t>(1e9 / kPacedRate);
  lockdown::obs::Registry registry;
  lockdown::obs::Registry* metrics = setup.registry ? &registry : nullptr;
  MonitorStack stack(ctx, setup.keyed);
  if (metrics != nullptr) {
    stack.monitors.bind_metrics(registry);
    stack.streamer->bind_metrics(registry);
  }
  // Due time of each datagram: its schedule slot, or in the closed loop its
  // send time. Read by the slice sink on lane threads.
  std::vector<std::atomic<std::uint64_t>> due(n);
  const auto due_ns = [&](std::size_t d) { return due[d].load(std::memory_order_relaxed); };
  std::atomic<std::uint64_t> delivered{0};  // datagrams seen by the observer
  // Written by the shard workers (each datagram by one), read after flush.
  std::vector<std::uint64_t> seen_ns(n, 0);
  // Runs under the daemon's merge lock, on a lane thread or in flush().
  const auto sink = [&](lf::TraceSlice&& s) {
    const spans::Scope span("flow.slice_sink");
    const std::uint64_t t = now_ns();
    if (const auto it = in.closer.find(s.begin.seconds()); it != in.closer.end()) {
      const std::uint64_t opened = due_ns(it->second);
      out.slice_ms.push_back(static_cast<double>(t > opened ? t - opened : 0) / 1e6);
    }
    out.spooled.push_back(std::move(s));
  };
  const auto observer = [&](std::span<const FlowRecord> batch) {
    if (!batch.empty()) {
      const std::uint32_t d = datagram_of(batch.front());
      if (d < n && seen_ns[d] == 0) {
        seen_ns[d] = now_ns();
        delivered.fetch_add(1, std::memory_order_release);
      }
    }
    const spans::Scope span("filter.route_batch");
    stack.monitors.route_batch(batch);
  };
  lr::ShardedCollectorDaemon daemon({.protocol = lf::ExportProtocol::kIpfix,
                                     .shards = setup.shards,
                                     .rotation_seconds = kRotationSeconds,
                                     .anonymizer = setup.anonymizer,
                                     .wire_lanes = setup.lanes,
                                     .metrics = metrics,
                                     .batch_observer = observer},
                                    sink);
  lr::WirePlaneConfig pcfg;
  pcfg.lanes = setup.lanes;
  pcfg.metrics = metrics;
  auto plane = lr::WirePlane::create(pcfg, daemon);
  std::vector<lf::UdpExporterTransport> exporters;
  for (std::size_t i = 0; plane && i < kDomains; ++i) {
    if (auto e = lf::UdpExporterTransport::create(plane->port())) {
      exporters.push_back(std::move(*e));
    }
  }
  if (!plane || exporters.size() != kDomains) {
    if (plane) plane->stop();
    daemon.flush();
    out.failed = out.datagrams = n;
    out.losses["sockets"] = n;
    return out;
  }

  const std::uint64_t cpu_begin = process_cpu_ns();
  const std::uint64_t main_cpu_begin = thread_cpu_ns();
  std::uint64_t main_collector_cpu = 0;  // window polls on this thread
  const std::uint64_t t0 = now_ns() + (setup.closed_loop ? 0 : 1'000'000);
  out.late_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (setup.closed_loop) {
      const std::uint64_t give_up = now_ns() + kStallNs;
      while (i >= delivered.load(std::memory_order_acquire) + kInFlight &&
             now_ns() < give_up) {
        std::this_thread::yield();
      }
      due[i].store(now_ns(), std::memory_order_relaxed);
    } else {
      due[i].store(t0 + i * period_ns, std::memory_order_relaxed);
      const std::uint64_t sent = wait_until(due_ns(i));
      out.late_ms.push_back(static_cast<double>(sent - due_ns(i)) / 1e6);
    }
    exporters[in.domain[i]].send(in.datagrams[i]);
    if ((i & 63) == 63) {
      const std::uint64_t c = thread_cpu_ns();
      (void)stack.poll();
      main_collector_cpu += thread_cpu_ns() - c;
    }
  }
  const std::uint64_t main_sender_cpu =
      thread_cpu_ns() - main_cpu_begin - main_collector_cpu;
  std::uint64_t on_wire = 0;
  for (const auto& e : exporters) on_wire += e.sent() - e.dropped();
  const std::uint64_t deadline = now_ns() + kStallNs;
  while (daemon.engine_snapshot().wire_datagrams + plane->kernel_drops() < on_wire &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  plane->stop();
  daemon.flush();
  stack.finish();
  out.ingest_ns = now_ns() - t0;
  out.cpu_ns = process_cpu_ns() - cpu_begin - main_sender_cpu;

  tally_delivery(in, seen_ns, due_ns, out);
  out.windows = stack.windows;
  out.monitor_totals = stack.totals();
  out.window_sums = stack.window_sums;
  out.window_error = stack.window_error;
  const lr::EngineSnapshot engine = daemon.engine_snapshot();
  out.receive_calls = plane->syscalls();
  out.queue_high_water = engine.queue_high_water;
  const lf::PacketArena::Stats arena = daemon.arena_stats();
  out.arena_reuse = arena.acquired == 0 ? 0.0
                                        : static_cast<double>(arena.reused) /
                                              static_cast<double>(arena.acquired);
  std::uint64_t exporter_drops = 0;
  for (const auto& e : exporters) exporter_drops += e.dropped();
  out.losses["exporter_drops"] = exporter_drops;
  out.losses["kernel_drops"] = plane->kernel_drops();
  out.losses["ring_drops"] = engine.dropped;
  out.losses["truncated"] = plane->truncated();
  out.losses["malformed"] = engine.malformed;
  return out;
}

/// Everything measured over the rounds of one phase.
struct Phase {
  std::uint64_t rounds = 0;
  std::uint64_t ingest_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t records = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t failed = 0;
  std::uint64_t windows = 0;
  std::uint64_t receive_calls = 0;
  std::uint64_t queue_high_water = 0;
  double arena_reuse = 0.0;
  std::vector<double> delivery_ms;
  std::vector<double> slice_ms;
  std::vector<double> late_ms;
  std::vector<double> round_records_per_s;
  std::vector<double> round_cpu_ns_per_record;
  std::map<std::string, std::uint64_t> losses;
  ReportTotals report;
};

/// Outputs of the latest round that passed every check.
struct Reference {
  ReportOutcome report;
  std::map<std::string, checks::Totals> monitor_totals;
  std::map<std::string, checks::Totals> window_sums;
};

/// What an ingest workload runs: the single-socket CollectorDaemon, or the
/// wire plane and sharded runtime as `plane` sets them up.
struct IngestMode {
  bool on_plane = false;
  PlaneSetup plane;

  /// The single-socket path is deterministic; lanes interleave sources.
  [[nodiscard]] bool ordered() const { return !on_plane; }
  [[nodiscard]] bool anonymized() const { return on_plane && plane.anonymizer != nullptr; }
  [[nodiscard]] bool paced() const { return on_plane && !plane.closed_loop; }
};

/// The single-threaded raw path is deterministic: a round that reproduces
/// a fully checked round exactly passes the same checks.
bool reproduces(const Reference& ref, const Round& round, const ReportOutcome& rep) {
  return round.failed == 0 && round.slice_write_errors == 0 && round.window_error.empty() &&
         round.monitor_totals == ref.monitor_totals && round.window_sums == ref.window_sums &&
         same_report(ref.report, rep);
}

void check_round(const Context& ctx, const IngestInput& in, const ReportInput& rin,
                 const ReportOutcome& rep, const Round& round, const IngestMode& mode,
                 std::uint64_t seed, RunResult& result) {
  const auto fail = [&](const std::string& err) {
    if (!err.empty()) result.fail(err);
  };
  if (round.slice_write_errors > 0) fail("slice files could not be written");
  std::vector<FlowRecord> spooled;
  for (const auto& s : rep.slices) spooled.insert(spooled.end(), s.records.begin(), s.records.end());

  std::map<std::string, checks::Totals> tallies;
  const auto by_class =
      checks::class_tallies(mode.anonymized() ? spooled : in.records, ctx.classifier, ctx.view);
  for (const auto& def : ctx.monitor_defs) {
    const auto it = by_class.find(static_cast<int>(def.app_class));
    tallies[def.name] = it == by_class.end() ? checks::Totals{} : it->second;
  }
  fail(checks::totals_match(tallies, round.monitor_totals, "monitor totals vs classifier tallies"));
  fail(checks::totals_match(round.monitor_totals, round.window_sums, "window sums vs monitor totals"));
  fail(round.window_error);

  if (round.failed > 0) {
    fail(std::to_string(round.failed) + " of " + std::to_string(round.datagrams) +
         " datagrams sent were not delivered");
  }
  if (mode.anonymized()) {
    fail(checks::non_address_fields_equal(in.records, spooled));
    fail(checks::anonymization_preserves_prefixes(in.records, spooled, seed));
  } else {
    fail(checks::records_equal_as_multiset(in.records, spooled));
  }
  // Lanes may deliver a record after its window closed; the spooler then
  // keeps it in the current slice by design, so only the ordered path
  // guarantees slices hold their own window.
  if (mode.ordered()) fail(checks::slices_within_windows(rep.slices, kRotationSeconds));
  check_report(ctx, rin, rep, result);
}

/// Rounds until `seconds` have passed (at least one). Rounds on the wire
/// plane are all checked in full: lanes interleave datagrams differently.
Phase run_phase(const Context& ctx, const IngestInput& in, const IngestMode& mode,
                double seconds, lf::UdpCollectorTransport* transport,
                std::optional<Reference>& reference, const Options& opt,
                RunResult& result) {
  Phase ph;
  const std::filesystem::path dir = opt.work_dir / "slices";
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    std::filesystem::create_directories(dir);
    Round round = mode.on_plane ? plane_round(ctx, in, mode.plane)
                                : raw_round(ctx, in, *transport);
    spill(dir, round);
    std::sort(round.slices.begin(), round.slices.end());
    ReportInput rin{round.slices, &in.corpus, ingest_weeks(), kScanLanes};
    ReportOutcome rep = run_report(ctx, rin);
    std::filesystem::remove_all(dir);
    ph.report.add(rep.timing);
    if (!mode.ordered() || !reference || !reproduces(*reference, round, rep)) {
      const std::size_t errors = result.errors.size();
      check_round(ctx, in, rin, rep, round, mode, opt.seed, result);
      if (result.errors.size() == errors) {
        reference = Reference{std::move(rep), round.monitor_totals, round.window_sums};
      }
    }

    ++ph.rounds;
    ph.ingest_ns += round.ingest_ns;
    ph.cpu_ns += round.cpu_ns;
    if (round.records > 0) {
      const double records = static_cast<double>(round.records);
      ph.round_records_per_s.push_back(records / (static_cast<double>(round.ingest_ns) / 1e9));
      ph.round_cpu_ns_per_record.push_back(static_cast<double>(round.cpu_ns) / records);
    }
    ph.records += round.records;
    ph.datagrams += round.datagrams;
    ph.failed += round.failed;
    ph.windows += round.windows;
    ph.receive_calls += round.receive_calls;
    ph.queue_high_water = std::max(ph.queue_high_water, round.queue_high_water);
    ph.arena_reuse = round.arena_reuse;
    const auto append = [](std::vector<double>& dst, const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(ph.delivery_ms, round.delivery_ms);
    append(ph.slice_ms, round.slice_ms);
    append(ph.late_ms, round.late_ms);
    for (const auto& [k, v] : round.losses) ph.losses[k] += v;
  } while (now_ns() < end);
  return ph;
}

/// Mean cost per record that the traced layers are compared against:
/// collector wall time in a closed loop, collector CPU in the paced loop.
double cost_per_record(const Phase& ph, const IngestMode& mode) {
  if (ph.records == 0) return 0.0;
  return static_cast<double>(mode.paced() ? ph.cpu_ns : ph.ingest_ns) /
         static_cast<double>(ph.records);
}

/// Replay the inputs through the finer public calls the live path wraps in
/// one span each, so the summarizer can split those spans by layer.
void replay_ingest(const Context& ctx, const IngestInput& in, const IngestMode& mode) {
  using spans::timed;
  {
    lf::Collector decoder(lf::ExportProtocol::kIpfix,
                          lf::Collector::BatchSink([](std::span<const FlowRecord>) {}));
    timed("replay.flow.decode", [&] {
      for (const auto& d : in.datagrams) decoder.ingest(d);
    });
  }
  // An anonymizing collector routes and spools anonymized records.
  std::vector<FlowRecord> records = in.records;
  if (mode.anonymized()) {
    timed("replay.flow.anonymize", [&] {
      for (FlowRecord& r : records) mode.plane.anonymizer->anonymize(r);
    });
  }
  {
    lf::SliceSpooler spooler(kRotationSeconds, [](lf::TraceSlice&&) {});
    timed("replay.flow.spool_append", [&] {
      for (const FlowRecord& r : records) spooler.append(r);
      spooler.flush();
    });
  }
  // Filter (column build + one match_batch per object) against window
  // accumulation, batch by batch as the observer sees them.
  lockdown::filter::MonitorSet monitors(&ctx.registry.trie());
  lockdown::analysis::add_monitor_definitions(monitors, ctx.monitor_defs);
  ls::WindowAggregator::Config wcfg;
  wcfg.window_seconds = kWindowSeconds;
  if (!mode.on_plane || mode.plane.keyed) wcfg.key = *ls::parse_key_tuple("dst_as,service");
  std::vector<std::unique_ptr<ls::WindowAggregator>> aggs;
  std::vector<std::vector<std::uint8_t>> hits(monitors.size());
  for (std::size_t k = 0; k < monitors.size(); ++k) {
    aggs.push_back(std::make_unique<ls::WindowAggregator>(wcfg));
  }
  lockdown::filter::FlowColumns cols;
  for (std::size_t d = 0; d < in.datagrams.size(); ++d) {
    const std::span<const FlowRecord> batch(records.data() + in.first[d],
                                            in.first[d + 1] - in.first[d]);
    const std::uint64_t t0 = now_ns();
    cols.build(batch, &ctx.registry.trie());
    std::size_t k = 0;
    for (const auto& obj : monitors) {
      hits[k].resize(batch.size());
      obj->filter().match_batch(batch, hits[k], cols);
      ++k;
    }
    const std::uint64_t t1 = now_ns();
    for (k = 0; k < aggs.size(); ++k) {
      aggs[k]->accumulate(batch, hits[k], cols.service.data(), cols.src_as.data(),
                          cols.dst_as.data());
      aggs[k]->advance(batch.back().first);
    }
    const std::uint64_t t2 = now_ns();
    spans::record("replay.filter.route", t0, t1, d);
    spans::record("replay.stream.window", t1, t2, d);
  }
}

void run_ingest(const Options& opt, RunResult& result, bool paced) {
  spans::enable(opt.trace);  // set-up spans: synth.generate, flow.encode
  const Context ctx;
  const IngestInput in = make_input(opt.seed, paced ? kPacedHours : kRawHours, ctx);
  spans::enable(false);
  const lf::Anonymizer anonymizer({0x10cd0ULL ^ opt.seed, 0xeffec7ULL},
                                  lf::AnonymizationMode::kPrefixPreserving);
  IngestMode mode;
  if (paced) {
    mode.on_plane = true;
    mode.plane = {.anonymizer = &anonymizer, .registry = true};
  } else if (opt.lanes > 0) {
    // Reference only: the raw stack on an N-lane plane with N shards.
    mode.on_plane = true;
    mode.plane = {.lanes = opt.lanes, .shards = opt.lanes, .keyed = true, .closed_loop = true};
  }
  std::optional<lf::UdpCollectorTransport> transport;
  if (!mode.on_plane) {
    // 1 MiB receive buffer, as live_collector binds it.
    transport = lf::UdpCollectorTransport::create(0, 1 << 20);
    if (!transport) {
      result.fail("cannot bind the loopback collector socket");
      return;
    }
  }
  lf::UdpCollectorTransport* tp = transport ? &*transport : nullptr;
  std::map<std::string, std::uint64_t> losses;
  const auto account = [&](const Phase& ph) {
    result.attempted += ph.datagrams;
    result.failed += ph.failed;
    for (const auto& [k, v] : ph.losses) losses[k] += v;
    for (const auto& [k, v] : losses) result.stamp["lost_" + k] = std::to_string(v);
  };
  std::optional<Reference> reference;
  // Warm-up rounds belong to set-up: the first rounds of a process run
  // up to three times slower (cold allocator, caches and socket buffers),
  // which a long-running collector never sees again.
  for (int i = 0; i < (paced ? 1 : 2); ++i) {
    account(run_phase(ctx, in, mode, 0.0, tp, reference, opt, result));
  }
  result.set("setup_s", static_cast<double>(now_ns() - process_start_ns()) / 1e9, "s");
  result.stamp["records_per_round"] = std::to_string(in.records.size());
  result.stamp["datagrams_per_round"] = std::to_string(in.datagrams.size());
  result.stamp["slices_per_round"] = std::to_string(in.closer.size() + 1);
  InputMakeup makeup;
  makeup.add(ctx, in.records);
  makeup.stamp(result);
  if (mode.on_plane) result.stamp["plane_lanes"] = std::to_string(mode.plane.lanes);

  if (!opt.trace) {
    const Phase ph = run_phase(ctx, in, mode, opt.seconds, tp, reference, opt, result);
    account(ph);
    result.set("peak_rss_mib", peak_rss_mib(), "MiB");
    result.set("ingest_records_per_s", median(ph.round_records_per_s), "records/s");
    result.stamp["delivery_latency_p50_ms"] = std::to_string(quantile(ph.delivery_ms, 0.50));
    result.stamp["delivery_latency_p99_ms"] = std::to_string(quantile(ph.delivery_ms, 0.99));
    result.stamp["slice_latency_p50_ms"] = std::to_string(quantile(ph.slice_ms, 0.50));
    result.stamp["slice_latency_p90_ms"] = std::to_string(quantile(ph.slice_ms, 0.90));
    result.set("collector_cpu_ns_per_record", median(ph.round_cpu_ns_per_record), "ns");
    result.set("scan_records_per_s", median(ph.report.scan_records_per_s), "records/s");
    result.set("report_s", median(ph.report.wall_s), "s");
    result.stamp["rounds"] = std::to_string(ph.rounds);
    result.stamp["slices_timed"] = std::to_string(ph.slice_ms.size());
    result.stamp["generator_late_p50_ms"] = std::to_string(quantile(ph.late_ms, 0.50));
    result.stamp["generator_late_p90_ms"] = std::to_string(quantile(ph.late_ms, 0.90));
    result.stamp["generator_late_p99_ms"] = std::to_string(quantile(ph.late_ms, 0.99));
    result.stamp["generator_late_max_ms"] = std::to_string(quantile(ph.late_ms, 1.0));
    return;
  }

  const Phase untraced = run_phase(ctx, in, mode, opt.seconds / 2, tp, reference, opt, result);
  spans::enable(true);
  const Phase traced = run_phase(ctx, in, mode, opt.seconds / 2, tp, reference, opt, result);
  account(untraced);
  account(traced);
  replay_ingest(ctx, in, mode);
  if (reference) {
    replay_report(ctx, ReportInput{{}, &in.corpus, ingest_weeks(), kScanLanes},
                  reference->report);
  }
  spans::enable(false);

  const auto meta = [](const char* k, double v) { spans::set_meta(k, v); };
  meta("records", static_cast<double>(traced.records));
  meta("datagrams", static_cast<double>(traced.datagrams));
  meta("windows", static_cast<double>(traced.windows));
  meta("rounds", static_cast<double>(traced.rounds));
  meta("untraced_ns_per_record", cost_per_record(untraced, mode));
  meta("traced_ns_per_record", cost_per_record(traced, mode));
  meta("replay_records", static_cast<double>(in.records.size()));
  meta("setup_records", static_cast<double>(in.records.size()));
  meta("report_records", static_cast<double>(traced.report.records));
  meta("report_rounds", static_cast<double>(traced.rounds));
  meta("report_replay_records",
       static_cast<double>(reference ? reference->report.timing.records : 0));
  meta("domains", static_cast<double>(traced.report.domains));
  meta("datagrams_per_syscall",
       traced.receive_calls == 0 ? 0.0
                                 : static_cast<double>(traced.datagrams - traced.failed) /
                                       static_cast<double>(traced.receive_calls));
  meta("queue_high_water", static_cast<double>(traced.queue_high_water));
  meta("arena_reuse_ratio", traced.arena_reuse);
  meta("generator_late_p99_ms", quantile(traced.late_ms, 0.99));
  // Latencies from the untraced half: unbounded per-layer figures, since
  // host scheduling stalls set their tails on a shared VM (README.md).
  meta("delivery_latency_p50_ms", quantile(untraced.delivery_ms, 0.50));
  meta("delivery_latency_p99_ms", quantile(untraced.delivery_ms, 0.99));
  meta("slice_latency_p50_ms", quantile(untraced.slice_ms, 0.50));
  meta("slice_latency_p90_ms", quantile(untraced.slice_ms, 0.90));
}

}  // namespace

void run_ingest_raw_1lane(const Options& opt, RunResult& result) {
  run_ingest(opt, result, /*paced=*/false);
}

void run_ingest_anon_paced(const Options& opt, RunResult& result) {
  run_ingest(opt, result, /*paced=*/true);
}

}  // namespace e2e
