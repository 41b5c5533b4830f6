#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench.exe from source with dune,
then repeats one workload (put, read, txn or failover; see README.md) for
about S wall-clock seconds. Simulated-time results must agree exactly
between repeats; wall-clock costs are reported as medians.

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics: two repeats, and set-up probes filling the rest of the
time, one wall-clock second each, whose pooled set-up times (normalised to a
reference speed, see perfbench.ml) give the median setup_s. With --trace 1
it holds the per-layer metrics, taken from traced repeats interleaved with
untraced ones. Earlier lines are a human-readable report. The exit code is 0
only when the build succeeded and every output check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("put", "read", "txn", "failover")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
REPEAT_TIMEOUT_S = 150

# End-to-end metrics: name -> (unit, section of the program's output).
END_TO_END = {
    "throughput_ops_s": ("1/s", "sim"),
    "latency_p50_ms": ("ms", "sim"),
    "latency_p99_ms": ("ms", "sim"),
    "latency_p999_ms": ("ms", "sim"),
    "setup_s": ("s", "setup"),
    "peak_heap_mb": ("MiB", "cost"),
}

CRITPATH_SEGMENTS = (
    "retry", "transit", "queue", "force", "follower_force",
    "ack_wait", "apply", "read", "wait_lsn", "guard",
)

# Per-layer metrics: name -> (unit, section). "cost" values are medians over
# the untraced repeats, "traced" values medians over the traced repeats.
PER_LAYER = {
    "latency.samples": ("count", "sim"),
    "read_latency_p99_ms": ("ms", "sim"),
    "read_latency.samples": ("count", "sim"),
    "write_latency_p99_ms": ("ms", "sim"),
    "write_latency.samples": ("count", "sim"),
    "failed_ratio": ("ratio", "sim"),
    "sim_s_per_wall_s": ("s/s", "cost"),
    "engine.events_per_op": ("events/op", "counts"),
    "engine.wall_ns_per_event": ("ns", "cost"),
    "engine.minor_words_per_event": ("words", "cost"),
    "engine.promoted_words_per_event": ("words", "cost"),
    "engine.major_gcs": ("count", "cost"),
    "engine.pending_mean": ("events", "counts"),
    "event_heap.push_pop_ns": ("ns", "cost"),
    "network.msgs_per_op": ("msgs/op", "counts"),
    "network.bytes_per_op": ("bytes/op", "counts"),
    "network.transit_ms_p50": ("ms", "counts"),
    "client.issue_wall_ns": ("ns", "traced"),
    "client.retries_per_1k": ("count", "counts"),
    "cohort.queue_ms_p50": ("ms", "counts"),
    "cohort.queue_ms_p99": ("ms", "counts"),
    "cohort.force_ms_p50": ("ms", "counts"),
    "cohort.replication_ms_p50": ("ms", "counts"),
    "cohort.replication_ms_p99": ("ms", "counts"),
    "cohort.apply_ms_p50": ("ms", "counts"),
    "wal.forces_per_op": ("forces/op", "counts"),
    "store.cache_hit_ratio": ("ratio", "counts"),
    "store.sstables_probed_per_read": ("tables", "counts"),
    "store.sstables_skipped_per_read": ("tables", "counts"),
    "store.sstables_per_range": ("tables", "counts"),
    "store.compaction_bytes_per_user_byte": ("ratio", "counts"),
    "store.get_wall_ns": ("ns", "cost"),
    "read.leased_share": ("ratio", "counts"),
    "read.follower_share": ("ratio", "counts"),
    "read.token_waits_per_1k": ("count", "counts"),
    "read.token_redirects_per_1k": ("count", "counts"),
    "txn.aborts_per_commit": ("ratio", "counts"),
    "unavail_ms": ("ms", "counts"),
    "election.ms": ("ms", "counts"),
    "takeover.ms": ("ms", "counts"),
    "catchup.ms": ("ms", "counts"),
    "election.count": ("count", "counts"),
    **{f"critpath.{s}.share": ("ratio", "traced") for s in CRITPATH_SEGMENTS},
    **{f"critpath.{s}.p99_ms": ("ms", "traced") for s in CRITPATH_SEGMENTS},
    "critpath.conservation_error": ("ratio", "traced"),
    "critpath.incomplete_share": ("ratio", "traced"),
    "trace.overhead_ratio": ("ratio", "derived"),
}

# The sample count each latency metric rests on, printed beside it.
SAMPLES = {
    "latency_p50_ms": "latency.samples",
    "latency_p99_ms": "latency.samples",
    "latency_p999_ms": "latency.samples",
    "read_latency_p99_ms": "read_latency.samples",
    "write_latency_p99_ms": "write_latency.samples",
}

# Untraced repeats in a --trace 0 run; enough to check that they agree.
PLAIN_REPEATS = 2
PROBE_MS = 1000


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def repeat(workload, seed, traced, extra=()):
    """One run of perfbench.exe; returns its JSON output."""
    cmd = [EXE, workload, "--seed", str(seed)] + (["--trace"] if traced else []) + list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: a repeat ran past {REPEAT_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} seed {seed}: perfbench.exe exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"{workload} seed {seed}: unreadable output ({e})")


def run_repeats(workload, seed, seconds, trace):
    """Run until the next step would overrun the time budget. With trace,
    untraced and traced repeats alternate, untraced first. Without, the
    steps are: repeat, probe, repeat, then probes (set-up times pooled)."""
    deadline = time.monotonic() + seconds
    done = {"plain": [], "traced": [], "probe": []}
    took = {}

    def upcoming():
        if trace:
            return "traced" if len(done["traced"]) < len(done["plain"]) else "plain"
        if len(done["plain"]) < PLAIN_REPEATS and len(done["plain"]) <= len(done["probe"]):
            return "plain"
        return "probe"

    while True:
        step = upcoming()
        t0 = time.monotonic()
        if step == "probe":
            out = repeat(workload, seed, False, extra=("--setup-probe", str(PROBE_MS)))
        else:
            out = repeat(workload, seed, step == "traced")
        done[step].append(out)
        took[step] = max(took.get(step, 0.0), time.monotonic() - t0)
        if trace:
            enough = len(done["plain"]) >= 1 and len(done["traced"]) >= 1
        else:
            enough = len(done["plain"]) >= PLAIN_REPEATS and len(done["probe"]) >= 1
        nxt = upcoming()
        if enough and time.monotonic() + took.get(nxt, took[step]) > deadline:
            return done["plain"], done["traced"], done["probe"]


def check(plain, traced):
    """Output checks across repeats: each repeat's own checks (including the
    traced run's dropped-event and conservation checks), and exact agreement
    of every simulated-time result between repeats."""
    failures = []
    for out in plain + traced:
        failures += out["failures"]
    ref = plain[0]
    for out in plain[1:] + traced:
        for section in ("sim", "counts", "key_stream"):
            if out[section] != ref[section]:
                kind = "traced" if out["traced"] is not None else "untraced"
                failures.append(f"{kind} repeat disagrees with the first on {section}")
    return failures


def median_of(outs, section, name):
    return statistics.median(out[section][name] for out in outs)


def pooled(probes, name):
    return [t for out in probes for t in out[name]]


def collect(plain, traced, probes, names):
    values = {}
    for name, (unit, section) in names.items():
        if section == "setup":
            value = statistics.median(pooled(probes, "setup_s"))
        elif section in ("sim", "counts"):
            value = plain[0][section][name]
        elif section == "cost":
            value = median_of(plain, "cost", name)
        elif section == "traced":
            value = median_of(traced, "traced", name)
        else:  # trace.overhead_ratio
            value = median_of(plain, "cost", "sim_s_per_wall_s") / median_of(
                traced, "cost", "sim_s_per_wall_s"
            )
        values[name] = {"value": value, "unit": unit}
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    trace = args.trace == 1
    plain, traced, probes = run_repeats(args.workload, args.seed, args.seconds, trace)
    failures = check(plain, traced)
    metrics = collect(plain, traced, probes, PER_LAYER if trace else END_TO_END)
    sim = plain[0]["sim"]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"repeats {len(plain)} untraced + {len(traced)} traced  "
          f"set-ups timed {len(pooled(probes, 'setup_s'))}")
    for name, m in metrics.items():
        samples = SAMPLES.get(name)
        note = f"  ({int(sim[samples])} samples)" if samples else ""
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}{note}")
    if probes:
        raw = statistics.median(pooled(probes, "setup_wall_s"))
        print(f"  {'(setup, raw wall time)':38s} {raw:14.6g} s")
    for f in failures:
        print(f"  CHECK FAILED: {f}")
    result = {
        "correct": not failures,
        "attempted": int(sim["attempted"]),
        "failed": int(sim["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
