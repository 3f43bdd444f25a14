#!/usr/bin/env python3
"""Turn a traced run's span dump into the benchmark's per-layer metrics.

The dump (written by e2ebench --trace 1) starts with a `# meta {json}` line
of counters, then one span per line: `tid,index,parent,name,key,start_ns,end_ns`.
A span's self time is its duration minus the durations of its children
(spans on the same thread whose parent is it). Spans named `replay.*` time
the finer public calls the traced run replays the inputs through; they
split a live span that covers two layers in the ratio of their replays.

    python3 e2ebench/summarize.py DUMP --workload NAME   # prints a table
"""
import argparse
import json
from collections import defaultdict

# Every per-layer metric, with its unit, in the order BENCHMARK.json lists
# them. A layer a workload does not exercise reads 0.
UNITS = {
    "net.recv_ns_per_datagram": "ns",
    "net.datagrams_per_syscall": "datagrams/call",
    "flow.decode_ns_per_record": "ns",
    "flow.anonymize_ns_per_record": "ns",
    "flow.spool_ns_per_record": "ns",
    "flow.trace_read_ns_per_record": "ns",
    "flow.encode_ns_per_record": "ns",
    "filter.route_ns_per_record": "ns",
    "stream.window_ns_per_record": "ns",
    "stream.poll_ns_per_window": "ns",
    "runtime.queue_high_water": "count",
    "runtime.arena_reuse_ratio": "ratio",
    "analysis.columns_ns_per_record": "ns",
    "analysis.volume_ns_per_record": "ns",
    "analysis.ports_ns_per_record": "ns",
    "analysis.hypergiants_ns_per_record": "ns",
    "analysis.heatmap_ns_per_record": "ns",
    "analysis.activity_ns_per_record": "ns",
    "analysis.vpn_ns_per_record": "ns",
    "analysis.feed_ms": "ms",
    "analysis.merge_ms": "ms",
    "dns.vpn_find_ns_per_domain": "ns",
    "synth.ns_per_record": "ns",
    "unattributed_ns_per_record": "ns",
    "trace.layer_gap_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "generator.late_p99_ms": "ms",
    "delivery_latency_p50_ms": "ms",
    "delivery_latency_p99_ms": "ms",
    "slice_latency_p50_ms": "ms",
    "slice_latency_p90_ms": "ms",
}
# Figures the traced run measured in its untraced half and passes through.
PASSED_THROUGH = ("delivery_latency_p50_ms", "delivery_latency_p99_ms",
                  "slice_latency_p50_ms", "slice_latency_p90_ms")


def load(path):
    meta = {}
    spans = []
    with open(path) as f:
        for line in f:
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta "):])
                continue
            tid, idx, parent, name, key, t0, t1 = line.rstrip("\n").split(",")
            spans.append((int(tid), int(idx), int(parent), name, int(key), int(t0), int(t1)))
    return meta, spans


def totals(spans):
    """Total and self nanoseconds per span name."""
    child = defaultdict(int)
    for tid, _, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child[(tid, parent)] += t1 - t0
    total = defaultdict(int)
    self_ns = defaultdict(int)
    for tid, idx, _, name, _, t0, t1 in spans:
        total[name] += t1 - t0
        self_ns[name] += t1 - t0 - child[(tid, idx)]
    return total, self_ns


def per_layer(path, workload):
    meta, spans = load(path)
    total, self_ns = totals(spans)
    m = {name: 0.0 for name in UNITS}

    def div(a, b):
        return a / b if b else 0.0

    def share(a, b):
        return div(total[a], total[a] + total[b])

    for name in PASSED_THROUGH:
        m[name] = meta.get(name, 0.0)
    records = meta.get("records", 0)
    # Set-up: generation and encoding (wire or trace-file) per record.
    m["synth.ns_per_record"] = div(total["synth.generate"], meta.get("setup_records", 0))
    m["flow.encode_ns_per_record"] = div(total["flow.encode"], meta.get("setup_records", 0))

    # Analyst pass, which every workload ends with.
    report_records = meta.get("report_records", 0)
    replay_records = meta.get("report_replay_records", 0)
    m["flow.trace_read_ns_per_record"] = div(total["flow.trace_read"], report_records)
    for agg in ("columns", "volume", "ports", "hypergiants", "heatmap", "activity", "vpn"):
        m[f"analysis.{agg}_ns_per_record"] = div(total[f"replay.analysis.{agg}"], replay_records)
    rounds = meta.get("report_rounds", 0)
    m["analysis.feed_ms"] = div(total["analysis.feed"], rounds) / 1e6
    m["analysis.merge_ms"] = div(total["analysis.merge"], rounds) / 1e6
    m["dns.vpn_find_ns_per_domain"] = div(total["dns.vpn_find"], meta.get("domains", 0))

    untraced = meta.get("untraced_ns_per_record", 0.0)
    m["trace.overhead_ratio"] = div(meta.get("traced_ns_per_record", 0.0), untraced) - 1.0 \
        if untraced else 0.0

    if workload == "figure_report":
        layers = sum(total[n] for n in ("dns.vpn_find", "flow.trace_read", "analysis.feed",
                                        "analysis.merge", "analysis.render"))
        layer_sum = div(layers, report_records)
    else:
        route_share = share("replay.filter.route", "replay.stream.window")
        observed = self_ns["filter.route_batch"]
        m["filter.route_ns_per_record"] = div(observed * route_share, records)
        m["stream.window_ns_per_record"] = div(observed * (1 - route_share), records)
        m["stream.poll_ns_per_window"] = div(total["stream.poll"], meta.get("windows", 0))
        m["net.datagrams_per_syscall"] = meta.get("datagrams_per_syscall", 0.0)
        append_per_record = div(total["replay.flow.spool_append"], meta.get("replay_records", 0))
        if workload == "ingest_raw_1lane":
            # CollectorDaemon::ingest covers decode and the spooler append.
            decode_share = share("replay.flow.decode", "replay.flow.spool_append")
            ingest = self_ns["flow.ingest"]
            m["net.recv_ns_per_datagram"] = div(self_ns["net.drain"], meta.get("datagrams", 0))
            m["flow.decode_ns_per_record"] = div(ingest * decode_share, records)
            m["flow.spool_ns_per_record"] = div(
                ingest * (1 - decode_share) + total["flow.slice_sink"] + self_ns["flow.flush"],
                records)
            layer_sum = (div(self_ns["net.drain"], records) + m["flow.decode_ns_per_record"]
                         + m["filter.route_ns_per_record"] + m["stream.window_ns_per_record"]
                         + div(total["stream.poll"], records) + m["flow.spool_ns_per_record"])
        else:
            # The shard workers decode and anonymize inside the runtime;
            # both come from the replay of the same inputs.
            m["flow.decode_ns_per_record"] = div(total["replay.flow.decode"],
                                                 meta.get("replay_records", 0))
            m["flow.anonymize_ns_per_record"] = div(total["replay.flow.anonymize"],
                                                    meta.get("replay_records", 0))
            m["flow.spool_ns_per_record"] = append_per_record + div(total["flow.slice_sink"],
                                                                    records)
            m["runtime.queue_high_water"] = meta.get("queue_high_water", 0.0)
            m["runtime.arena_reuse_ratio"] = meta.get("arena_reuse_ratio", 0.0)
            m["generator.late_p99_ms"] = meta.get("generator_late_p99_ms", 0.0)
            layer_sum = (m["flow.decode_ns_per_record"] + m["flow.anonymize_ns_per_record"]
                         + m["filter.route_ns_per_record"] + m["stream.window_ns_per_record"]
                         + div(total["stream.poll"], records) + m["flow.spool_ns_per_record"])
    m["unattributed_ns_per_record"] = untraced - layer_sum
    m["trace.layer_gap_ratio"] = div(untraced - layer_sum, untraced)
    return {name: {"value": float(v), "unit": UNITS[name]} for name, v in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump")
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    for name, metric in per_layer(args.dump, args.workload).items():
        print(f"{name:38s} {metric['value']:14.3f} {metric['unit']}")


if __name__ == "__main__":
    main()
