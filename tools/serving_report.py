#!/usr/bin/env python3
"""Summarize serving runs from lamellar telemetry / bench output.

Two input kinds, freely mixed on stdin or in the given files (one JSON
object per line, non-JSON lines ignored):

* telemetry JSONL — the time series written by
  LAMELLAR_METRICS_INTERVAL_MS / LAMELLAR_METRICS_FILE (lines tagged
  "telemetry": "lamellar").  Reported as a per-tick view of the AM send
  rate and the flush-cause mix.

* bench_serving rows — the one-line JSON rows bench_serving prints (lines
  tagged "bench": "serving").  Reported as one table per shape, one row
  per static threshold.

Usage:
    tools/serving_report.py [telemetry.jsonl ...]      # files or stdin
    tools/serving_report.py --check serving.out        # validation mode

--check validates serving rows: every row verified and every request
completed.
"""

import json
import sys
from collections import defaultdict


def load_lines(paths):
    rows = []
    streams = [open(p) for p in paths] if paths else [sys.stdin]
    for stream in streams:
        for line in stream:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    for stream in streams:
        if stream is not sys.stdin:
            stream.close()
    return rows


# ---- telemetry time series -------------------------------------------------


def report_telemetry(lines):
    by_tick = defaultdict(list)
    for ln in lines:
        by_tick[ln.get("tick", 0)].append(ln)
    if not by_tick:
        return
    print("# telemetry time series "
          f"({len(by_tick)} ticks, {len(lines)} pe-samples)")
    hdr = (f"{'tick':>5} {'ms':>8} {'sent/tick':>10} {'thresh-fl':>10} "
           f"{'expl-fl':>8}")
    print(hdr)
    for tick in sorted(by_tick):
        pes = by_tick[tick]
        ms = max(p.get("elapsed_ms", 0) for p in pes)

        def csum(name):
            return sum(p.get("counters", {}).get(name, 0) for p in pes)

        sent = csum("am.sent_remote") + csum("am.sent_local")
        print(f"{tick:>5} {ms:>8} {sent:>10} "
              f"{csum('cmdq.flush_threshold'):>10} "
              f"{csum('cmdq.flush_explicit'):>8}")
    print()


# ---- bench_serving rows ----------------------------------------------------


def report_serving(rows):
    by_shape = defaultdict(list)
    for r in rows:
        by_shape[r["shape"]].append(r)
    for shape in sorted(by_shape):
        shaped = by_shape[shape]
        print(f"# shape: {shape}  (offered {shaped[0]['offered_rps']:.0f}"
              " req/s)")
        print(f"{'config':<14} {'achieved/s':>11} {'svc_p99us':>10} "
              f"{'arr_p99us':>10} {'ok':>3}")
        for r in shaped:
            print(f"{r['config']:<14} {r['achieved_rps']:>11.0f} "
                  f"{r['service_us']['p99']:>10.1f} "
                  f"{r['arrival_us']['p99']:>10.1f} "
                  f"{'yes' if r['verified'] else 'NO':>3}")
        print()


def check_serving(rows):
    """Every row verified (shard sums conserved) and fully completed."""
    failures = []
    for r in rows:
        if not r.get("verified", False):
            failures.append(f"{r['shape']}/{r['config']}: not verified")
        if r.get("completed") != r.get("requests"):
            failures.append(f"{r['shape']}/{r['config']}: "
                            f"{r['completed']}/{r['requests']} completed")
    for msg in failures:
        print(f"CHECK FAIL: {msg}", file=sys.stderr)
    return not failures


def main(argv):
    check = "--check" in argv
    paths = [a for a in argv[1:] if not a.startswith("--")]
    lines = load_lines(paths)
    serving = [r for r in lines if r.get("bench") == "serving"]
    telemetry = [r for r in lines if r.get("telemetry") == "lamellar"]
    if check:
        if not serving:
            print("CHECK FAIL: no serving rows found", file=sys.stderr)
            return 1
        return 0 if check_serving(serving) else 1
    if not serving and not telemetry:
        print("no telemetry or serving rows found", file=sys.stderr)
        return 1
    report_telemetry(telemetry)
    report_serving(serving)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
