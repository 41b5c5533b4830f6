#!/usr/bin/env python3
"""Determinism self-test for the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout (all four workloads by default; about three
minutes). For each workload it checks that:

- two repeats with one seed give identical simulated results and counts;
- another seed gives another key stream;
- the traced run's simulated results and counts equal the untraced run's
  (tracing schedules no events and draws no randomness);
- polling between 1-second slices instead of 1-millisecond ones leaves the
  simulated results and every count but the sampled pending-event mean
  unchanged (polling adds no events, and failover's election, takeover and
  catch-up instants are exact, not rounded to a slice);
- a set-up probe times at least one set-up, every time positive;
- every output check passes (for the traced run these include no dropped
  trace events and critical-path conservation within 1 %).

It also checks that BENCHMARK.json declares exactly the metrics, with the
units, that run.py prints. Exits 1 on the first failed check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Counts that are sampled between slices, so they depend on the slice length.
SAMPLED = ("engine.pending_mean",)


def selftest(workload):
    problems = []
    base = run.repeat(workload, 1, False)
    again = run.repeat(workload, 1, False)
    other = run.repeat(workload, 2, False)
    traced = run.repeat(workload, 1, True)
    coarse = run.repeat(workload, 1, False, extra=("--slice-ms", "1000"))
    probe = run.repeat(workload, 1, False, extra=("--setup-probe", "100"))
    for name, out in (("base", base), ("again", again), ("other seed", other),
                      ("traced", traced), ("coarse slices", coarse)):
        problems += [f"{name}: {f}" for f in out["failures"]]
    for section in ("sim", "counts", "key_stream"):
        if again[section] != base[section]:
            problems.append(f"same seed, different {section}")
        if traced[section] != base[section]:
            problems.append(f"traced run changed {section}")
    if other["key_stream"] == base["key_stream"]:
        problems.append("another seed gave the same key stream")
    if coarse["sim"] != base["sim"] or coarse["key_stream"] != base["key_stream"]:
        problems.append("slice length changed the simulated results")
    for name, value in base["counts"].items():
        if name not in SAMPLED and coarse["counts"][name] != value:
            problems.append(f"slice length changed {name}")
    if not probe["setup_s"] or min(probe["setup_s"]) <= 0:
        problems.append("set-up probe timed no set-up")
    return problems


def declared_metrics():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != {name: unit for name, (unit, _) in printed.items()}:
            problems.append(f"BENCHMARK.json {key} differs from what run.py prints")
    return problems


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    problems = declared_metrics()
    print(f"BENCHMARK.json: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    if problems:
        sys.exit(1)
    run.build()
    for w in workloads:
        problems = selftest(w)
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        if problems:
            sys.exit(1)


if __name__ == "__main__":
    main()
