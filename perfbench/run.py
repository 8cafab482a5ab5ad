#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics as JSON.

    python3 perfbench/run.py --workload histo|gather|am|histo_mp \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (and the runtime under src/) in Release mode into .bench_build/;
later runs only re-check the build.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it records the configuration.  Any failed operation, runtime error or
missing record gives exit code 1; a build or usage error gives 2 and no
result line.  perfbench/README.md describes the workloads and metrics.
"""

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("histo", "gather", "am", "histo_mp")
PES = 2
RUN_TIMEOUT_S = 150  # the binary itself; a run must end within 180 s
MIN_SAMPLES = 100  # per world: p90 needs at least ten samples beyond it

END_TO_END = [
    ("setup_s", "s"),
    ("mups", "Mop/s"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("world.setup_s", "s"),
    ("world.barrier_ms", "ms"),
    ("array.setup_s", "s"),
    ("array.issue_us", "us"),
    ("array.wait_us", "us"),
    ("array.plan_allocs", "count/batch"),
    ("am.issue_us", "us"),
    ("am.flush_us", "us"),
    ("am.wait_us", "us"),
    ("am.msgs_per_op", "msg/op"),
    ("am.copy_ratio", "ratio"),
    ("am.idle_flushes", "count/batch"),
    ("cmdq.records_per_buffer", "rec/buffer"),
    ("cmdq.bytes_per_buffer", "B/buffer"),
    ("cmdq.threshold_flush_share", "ratio"),
    ("cmdq.pool_hit_ratio", "ratio"),
    ("cmdq.backpressure_stalls", "count/batch"),
    ("mp.backpressure_waits", "count/batch"),
    ("mp.ring_wakes", "count/batch"),
    ("transport.msgs", "msg/batch"),
    ("transport.bytes_per_op", "B/op"),
    ("sched.tasks_per_op", "task/op"),
    ("sched.steal_success", "ratio"),
    ("sched.steal_failures", "count/batch"),
    ("sched.queue_depth_max", "count"),
    ("self_us.perfbench", "us/batch"),
    ("self_us.core_world", "us/batch"),
    ("self_us.core_array", "us/batch"),
    ("self_us.core_am", "us/batch"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
]

# Span name prefix -> the src/ module the call goes into.
SPAN_LAYER = {
    "window": "perfbench",
    "batch": "perfbench",
    "world": "core_world",
    "array": "core_array",
    "am": "core_am",
}


class BenchError(Exception):
    """A usage or build problem: exit 2 without a result line."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("runtime sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    with open(os.path.join(BUILD_DIR, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {out.name})")
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, args):
    """Run the benchmark binary in its own process group; return (code, stdout)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LAMELLAR_")}
    ignored = sorted(set(os.environ) - set(env))
    if ignored:
        log(f"ignoring {', '.join(ignored)} (runs use compiled defaults)")
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s; killed")
        return None, out
    finally:
        # Forked PEs of the mmap backend share the group; none may outlive us.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def parse_records(out):
    recs = defaultdict(list)
    for line in out.splitlines():
        if line.startswith("{"):
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            recs[rec.get("kind")].append(rec)
    return recs


def quantile(sorted_vals, q):
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def per_setup_median(setups, key):
    """Median over world bring-ups of the slowest PE's value, in seconds."""
    by_rep = defaultdict(list)
    for r in setups:
        by_rep[r["rep"]].append(r[key])
    return statistics.median(max(v) for v in by_rep.values()) / 1e9


def by_world(records):
    worlds = defaultdict(list)
    for r in records:
        worlds[r["rep"]].append(r)
    return [worlds[rep] for rep in sorted(worlds)]


def verify(workload, recs, n_worlds):
    """Return (attempted, failed, notes) from the PEs' verify records."""
    ver = recs["verify"]
    attempted = max(1, sum(r["attempted"] for r in ver))
    notes = []
    if len(ver) != PES * n_worlds:
        notes.append(f"{len(ver)} of {PES * n_worlds} PE results reported")
        return attempted, attempted, notes
    failed = 0
    for world in by_world(ver):
        issued = sum(r["attempted"] for r in world)
        lost = sum(r["unfinished"] for r in world)
        for r in world:
            if r["error"]:
                notes.append(f"world {r['rep']} PE {r['pe']} runtime error: "
                             f"{r['error']}")
        if workload == "gather":
            lost += sum(r["mismatches"] for r in world)
        else:
            # Conservation: every issued update landed exactly once.
            total = sum(r["local_total"] for r in world)
            lost = max(lost, abs(issued - total))
        if workload == "am":
            lost = max(lost, issued - sum(r["completions"] for r in world))
        failed += min(lost, issued)
    if failed:
        notes.append(f"{failed} of {attempted} operations failed")
    return attempted, failed, notes


def windows(recs, traced, n_worlds):
    ws = [w for w in recs["window"] if w["traced"] == traced]
    if len(ws) != PES * n_worlds:
        raise ValueError(f"expected {PES * n_worlds} "
                         f"{'traced' if traced else 'untraced'} window "
                         f"records, got {len(ws)}")
    return ws


def rate_mops(ws):
    """Ops of both PEs over the summed window time, per world the longer PE's."""
    ns = sum(max(w["window_ns"] for w in world) for world in by_world(ws))
    return sum(w["ops"] for w in ws) / ns * 1e3


def end_to_end(recs, n_worlds, attempted, failed):
    """Rates and batch-latency quantiles per world (samples pooled over PEs),
    reported as their median over the run's worlds."""
    rates, p50s, p90s, counts = [], [], [], []
    for world in by_world(windows(recs, False, n_worlds)):
        lat = sorted(x for w in world for x in w["lat_ns"])
        if len(lat) < MIN_SAMPLES:
            raise ValueError(f"a world has only {len(lat)} batch samples; "
                             f"need {MIN_SAMPLES} (raise --seconds)")
        rates.append(rate_mops(world))
        p50s.append(quantile(lat, 0.50))
        p90s.append(quantile(lat, 0.90))
        counts.append(len(lat))
    print(f"# batch samples per world (both PEs): {counts}", flush=True)
    return {
        "setup_s": per_setup_median(recs["setup"], "setup_ns"),
        "mups": statistics.median(rates) * (attempted - failed) / attempted,
        "batch_ms_p50": statistics.median(p50s) / 1e6,
        "batch_ms_p90": statistics.median(p90s) / 1e6,
        "peak_rss_mb": max(r["maxrss_kb"] for r in recs["verify"]) / 1024,
    }


def read_spans(span_dir, n_worlds):
    spans = []
    for rep in range(n_worlds):
        for pe in range(PES):
            with open(os.path.join(span_dir, f"spans.w{rep}.pe{pe}.csv")) as f:
                for row in csv.DictReader(f):
                    parent = int(row["parent"])
                    spans.append({
                        "id": (rep, pe, int(row["id"])),
                        "parent": (rep, pe, parent) if parent else None,
                        "name": row["name"],
                        "dur": int(row["end_ns"]) - int(row["start_ns"]),
                    })
    return spans


def span_summary(spans, batches):
    """Mean duration per span name, self time per layer and batch, and the
    share of batch time no child span covers."""
    child_time = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["dur"]
    durs = defaultdict(list)
    self_ns = defaultdict(int)
    batch_total = batch_self = 0
    for s in spans:
        durs[s["name"]].append(s["dur"])
        own = s["dur"] - child_time[s["id"]]
        self_ns[SPAN_LAYER[s["name"].split(".")[0]]] += own
        if s["name"] == "batch":
            batch_total += s["dur"]
            batch_self += own
    mean_us = {n: statistics.fmean(d) / 1e3 for n, d in durs.items()}
    self_us = {layer: self_ns[layer] / batches / 1e3
               for layer in sorted(set(SPAN_LAYER.values()))}
    unattributed = batch_self / batch_total if batch_total else 0.0
    return mean_us, self_us, unattributed


def per_layer(recs, n_worlds, span_dir):
    untraced = windows(recs, False, n_worlds)
    traced = windows(recs, True, n_worlds)
    c = defaultdict(int)
    for w in traced:
        for name, v in w["counters"].items():
            c[name] += v
    ops = sum(w["ops"] for w in traced)
    batches = sum(w["batches"] for w in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    mean_us, self_us, unattributed = span_summary(
        read_spans(span_dir, n_worlds), batches)
    msgs = c["am.sent_remote"] + c["am.replies_sent"]
    # Shmem counts its transport as fabric.*, the mmap backend as fab.*.
    transport = "fab." if c["fab.msgs_sent"] else "fabric."
    flushes = c["cmdq.flush_threshold"] + c["cmdq.flush_explicit"] + c["cmdq.flush_age"]
    m = {
        "world.setup_s": per_setup_median(recs["setup"], "world_setup_ns"),
        "world.barrier_ms": statistics.fmean(
            w["open_barrier_ns"] + w["close_barrier_ns"] for w in traced) / 1e6,
        "array.setup_s": per_setup_median(recs["setup"], "array_setup_ns"),
        "array.issue_us": mean_us.get("array.issue", 0.0),
        "array.wait_us": mean_us.get("array.wait", 0.0),
        "array.plan_allocs": ratio(c["array.plan_allocs"], batches),
        "am.issue_us": mean_us.get("am.issue", 0.0),
        "am.flush_us": mean_us.get("am.flush", 0.0),
        "am.wait_us": mean_us.get("am.wait", 0.0),
        "am.msgs_per_op": ratio(msgs, ops),
        "am.copy_ratio": ratio(c["am.bytes_copied"], c["am.bytes_serialized"]),
        "am.idle_flushes": ratio(c["am.idle_flushes"], batches),
        "cmdq.records_per_buffer": ratio(msgs, c["cmdq.buffers_sent"]),
        "cmdq.bytes_per_buffer": ratio(c["cmdq.bytes_sent"], c["cmdq.buffers_sent"]),
        "cmdq.threshold_flush_share": ratio(c["cmdq.flush_threshold"], flushes),
        "cmdq.pool_hit_ratio": ratio(c["cmdq.buffers_recycled"],
                                     c["cmdq.buffers_recycled"]
                                     + c["cmdq.buffers_allocated"]),
        "cmdq.backpressure_stalls": ratio(c["cmdq.backpressure_stalls"], batches),
        "mp.backpressure_waits": ratio(c["mp.backpressure_waits"], batches),
        "mp.ring_wakes": ratio(c["mp.ring_wakes"], batches),
        "transport.msgs": ratio(c[transport + "msgs_sent"], batches),
        "transport.bytes_per_op": ratio(c[transport + "bytes_sent"], ops),
        "sched.tasks_per_op": ratio(c["sched.tasks_spawned"], ops),
        "sched.steal_success": ratio(c["sched.tasks_stolen"],
                                     c["sched.tasks_stolen"]
                                     + c["sched.steal_failures"]),
        "sched.steal_failures": ratio(c["sched.steal_failures"], batches),
        "sched.queue_depth_max": max(w["queue_depth_max"] for w in traced),
        "trace.unattributed_share": unattributed,
        "trace.overhead": 1.0 - rate_mops(traced) / rate_mops(untraced),
    }
    for layer, us in self_us.items():
        m[f"self_us.{layer}"] = us
    units = dict(PER_LAYER)
    print("# per-layer metrics (traced window; counts are deltas over it)")
    for name, unit in PER_LAYER:
        print(f"#   {name:<28} {m[name]:>14.6g} {unit}")
    print(f"# traced {batches} batches, {ops} ops; "
          f"untraced {rate_mops(untraced):.4g} Mop/s, "
          f"traced {rate_mops(traced):.4g} Mop/s")
    return {name: m[name] for name in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one result (tests the verification)")
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")

    try:
        binary = build()
    except BenchError as e:
        log(str(e))
        return 2

    span_dir = os.path.join(BUILD_DIR, "spans", args.workload)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
        cmd += ["--span-dir", span_dir]
    if args.corrupt:
        cmd.append("--corrupt")
    code, out = run_binary(binary, cmd)
    recs = parse_records(out)
    if code == 2 and not recs["config"]:
        log("the benchmark binary refused to run")
        return 2

    config = dict(recs["config"][0]) if recs["config"] else {}
    config.pop("kind", None)
    config.update(seconds=args.seconds, trace=args.trace)
    print(json.dumps({"config": config}), flush=True)

    n_worlds = config.get("worlds", 1)
    attempted, failed, notes = verify(args.workload, recs, n_worlds)
    if code != 0 or not recs["config"]:
        notes.append(f"benchmark binary exited with {code}")
        failed = attempted
    metrics = {}
    if not notes or failed < attempted:
        try:
            values = (per_layer(recs, n_worlds, span_dir) if args.trace
                      else end_to_end(recs, n_worlds, attempted, failed))
            units = dict(PER_LAYER if args.trace else END_TO_END)
            metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        except (ValueError, KeyError, OSError) as e:
            notes.append(f"incomplete results: {e}")
    for note in notes:
        log(note)
    correct = not notes and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
