#!/usr/bin/env python3
"""Merge Chrome trace files and verify causal AM flow chains.

An in-process run writes one Chrome trace_event JSON file holding every PE
(LAMELLAR_TRACE_FILE); a multi-process run (LAMELLAR_BACKEND=mmap) writes one
file per PE process, trace.peN.json.  Pass either: one combined file or all
of a run's per-PE files.  Each trace-sampled active message emits a flow
chain whose id is the span id (origin PE in the top 16 bits over the origin
request id):

    am_send ('s', origin PE)      span opened at injection
    am_flush ('t', origin PE)     aggregation buffer departed the lane
    am_recv ('t', executing PE)   record arrived; args.v = flight ns
    am_exec ('t', executing PE)   exec() finished; args.v = exec ns
    am_complete ('f', origin PE)  reply consumed; args.v = reply->complete ns

Timestamps are the runtime's one time source, Lamellae::now(): per-PE
virtual clocks in a virtual-time run, the host's steady clock (shared by
every PE) in wall-clock and multi-process runs.

This tool merges its inputs into one Perfetto-loadable timeline, verifies
every chain is complete and causally ordered (timestamps are only compared
within a single PE: per-PE virtual clocks are not globally ordered), and
prints a per-stage latency breakdown (count / mean / p50 / p90 / p99) from
the stage latencies carried in the flow events' args.

Exit status: 0 when --verify passes (or is not requested), 1 on any orphan
or out-of-order chain, 2 on usage/input errors.
"""

import argparse
import json
import sys

# Flow-event name -> (expected phase, human-readable stage).
STAGES = {
    "am_send": ("s", "send (span open)"),
    "am_flush": ("t", "inject->flush"),
    "am_recv": ("t", "flight"),
    "am_exec": ("t", "exec"),
    "am_complete": ("f", "reply->complete"),
}
CHAIN_ORDER = ["am_send", "am_flush", "am_recv", "am_exec", "am_complete"]

# Stages whose args.v is a latency worth tabulating (am_send carries the
# request id, not a latency).
LATENCY_STAGES = ["am_flush", "am_recv", "am_exec", "am_complete"]


def load_events(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"trace_stitch: cannot read {path}: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        sys.exit(f"trace_stitch: {path} has no traceEvents array")
    return events


def span_origin(span_id):
    return span_id >> 48


def percentile(sorted_vals, p):
    """Nearest-rank percentile of a non-empty sorted list."""
    rank = max(1, int(p * len(sorted_vals) + 0.999999))
    return sorted_vals[min(rank, len(sorted_vals)) - 1]


def verify_chains(flow_events):
    """Group flow events by id and check completeness + causal order.

    Returns (num_chains, errors) where errors is a list of strings.
    """
    chains = {}
    for e in flow_events:
        chains.setdefault(e["id"], []).append(e)

    errors = []
    for span_id, events in sorted(chains.items()):
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)

        for name in CHAIN_ORDER:
            got = len(by_name.get(name, []))
            if got != 1:
                errors.append(
                    f"span {span_id:#x}: expected 1 {name} event, got {got}"
                )
        if any(n not in STAGES for n in by_name):
            extra = [n for n in by_name if n not in STAGES]
            errors.append(f"span {span_id:#x}: unknown flow events {extra}")
        if any(len(by_name.get(n, [])) != 1 for n in CHAIN_ORDER):
            continue  # structural errors already recorded; skip ordering

        send = by_name["am_send"][0]
        flush = by_name["am_flush"][0]
        recv = by_name["am_recv"][0]
        execd = by_name["am_exec"][0]
        comp = by_name["am_complete"][0]

        for e, ph in ((send, "s"), (comp, "f")):
            if e["ph"] != ph:
                errors.append(
                    f"span {span_id:#x}: {e['name']} has phase {e['ph']!r},"
                    f" expected {ph!r}"
                )

        origin = span_origin(span_id)
        # Origin-side events must be stamped with the origin PE; the
        # executing PE is whatever recv/exec agree on.
        for e in (send, flush, comp):
            if e["pid"] != origin:
                errors.append(
                    f"span {span_id:#x}: {e['name']} on PE {e['pid']},"
                    f" expected origin PE {origin}"
                )
        if recv["pid"] != execd["pid"]:
            errors.append(
                f"span {span_id:#x}: am_recv on PE {recv['pid']} but"
                f" am_exec on PE {execd['pid']}"
            )

        # Causal order, compared only within one PE's clock domain.
        if send["ts"] > flush["ts"]:
            errors.append(
                f"span {span_id:#x}: am_send at {send['ts']} after"
                f" am_flush at {flush['ts']} (origin PE)"
            )
        if recv["ts"] > execd["ts"]:
            errors.append(
                f"span {span_id:#x}: am_recv at {recv['ts']} after"
                f" am_exec at {execd['ts']} (executing PE)"
            )
        if flush["ts"] > comp["ts"]:
            errors.append(
                f"span {span_id:#x}: am_flush at {flush['ts']} after"
                f" am_complete at {comp['ts']} (origin PE)"
            )
    return len(chains), errors


def latency_table(flow_events):
    rows = []
    for name in LATENCY_STAGES:
        vals = sorted(
            e.get("args", {}).get("v", 0)
            for e in flow_events
            if e["name"] == name
        )
        if not vals:
            continue
        rows.append(
            (
                STAGES[name][1],
                len(vals),
                sum(vals) / len(vals),
                percentile(vals, 0.50),
                percentile(vals, 0.90),
                percentile(vals, 0.99),
            )
        )
    return rows


def print_table(rows, out=sys.stdout):
    hdr = f"{'stage':<18}{'count':>8}{'mean_ns':>12}{'p50_ns':>10}" \
          f"{'p90_ns':>10}{'p99_ns':>10}"
    print(hdr, file=out)
    print("-" * len(hdr), file=out)
    for stage, count, mean, p50, p90, p99 in rows:
        print(
            f"{stage:<18}{count:>8}{mean:>12.1f}{p50:>10}{p90:>10}{p99:>10}",
            file=out,
        )


def main():
    ap = argparse.ArgumentParser(
        description="Merge Lamellar trace files; verify AM flow chains."
    )
    ap.add_argument(
        "files", nargs="+", help="one combined Chrome trace JSON file, or per-PE files"
    )
    ap.add_argument("-o", "--out", help="write the merged trace here")
    ap.add_argument(
        "--verify",
        action="store_true",
        help="fail (exit 1) on incomplete or out-of-order flow chains",
    )
    args = ap.parse_args()

    merged = []
    for path in args.files:
        merged.extend(load_events(path))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"displayTimeUnit": "ns", "traceEvents": merged}, f)
        print(
            f"trace_stitch: wrote {len(merged)} events from "
            f"{len(args.files)} file(s) to {args.out}"
        )

    flow = [e for e in merged if e.get("ph") in ("s", "t", "f") and "id" in e]
    num_chains, errors = verify_chains(flow)
    print(f"trace_stitch: {num_chains} flow chain(s), {len(errors)} error(s)")

    rows = latency_table(flow)
    if rows:
        print_table(rows)

    if args.verify:
        if errors:
            for msg in errors[:50]:
                print(f"trace_stitch: ERROR: {msg}", file=sys.stderr)
            if len(errors) > 50:
                print(
                    f"trace_stitch: ... {len(errors) - 50} more",
                    file=sys.stderr,
                )
            return 1
        if num_chains == 0:
            print(
                "trace_stitch: ERROR: --verify found no flow chains "
                "(was LAMELLAR_TRACE_SAMPLE set?)",
                file=sys.stderr,
            )
            return 1
        print("trace_stitch: verification passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
