"""
One workload in its own process: generate the seeded inputs, then run
rounds until the time budget is spent, checking every unit.

Modes:
  setup      generate the inputs and exit (a set-up time sample);
  run        untraced rounds for --seconds (the end-to-end metrics);
  trace      traced and untraced rounds in turn for --seconds (per-layer
             metrics and the tracing overhead);
  reference  two untraced rounds; run.py starts it with single-threaded BLAS.

The last stdout line is a JSON object; run.py reads it.  ``ready`` is the
CLOCK_MONOTONIC time at which the inputs were ready, so the parent can
measure set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from landau_lab import coefficients  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
FFT_WORKERS = 1  # the command line's default --threads


def run_round(wl, k: int, tracer: Tracer | None, corrupt_first: bool, log: dict):
    """Run and check the units of round k; returns (wall, cpu, work, coercivity curves)."""
    wall = cpu = work = 0.0
    curves = []
    for j, unit in enumerate(wl.plan(k)):
        log["attempted"] += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        res = None
        try:
            res = tracer.unit(unit.label, unit.run) if tracer else unit.run()
        except Exception as exc:  # a unit that raises is a failed unit; keep measuring
            log["failures"].append(f"{unit.label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if res is None:
            continue
        problems, done, written = wl.check(res, corrupt=corrupt_first and k == 0 and j == 0)
        log["bytes_written"] += written
        if problems:
            log["failures"].append(f"{unit.label}: {'; '.join(problems)}")
        else:
            work += done
        curves.extend(workloads.lambda_curves(res))
    return wall, cpu, work, curves


def run_rounds(wl, seconds: float, min_rounds: int, corrupt: bool, log: dict) -> list[dict]:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        wall, cpu, work, _ = run_round(wl, len(rounds), None, corrupt, log)
        rounds.append({"wall": wall, "cpu": cpu, "work": work})
    return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", required=True, choices=["setup", "run", "trace", "reference"])
    p.add_argument("--profile", default="full", choices=sorted(workloads.SIZES))
    p.add_argument("--corrupt", action="store_true", help="corrupt the first unit's result (self-test)")
    p.add_argument("--spans", default=None, help="write the trace spans to this JSON file")
    args = p.parse_args(argv)

    coefficients.set_fft_workers(FFT_WORKERS)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.profile, workdir)
        ready = time.monotonic()
        out = {"ready": ready, "fft_workers": FFT_WORKERS}
        log = {"attempted": 0, "failures": [], "bytes_written": 0}
        if args.mode == "run":
            out["rounds"] = run_rounds(wl, args.seconds, 2, args.corrupt, log)
        elif args.mode == "reference":
            out["rounds"] = run_rounds(wl, 0.0, 2, args.corrupt, log)
        elif args.mode == "trace":
            out.update(trace(wl, args, log))
        out.update(log)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def trace(wl, args, log: dict) -> dict:
    """
    Alternate traced and untraced rounds, so both see the same machine
    conditions; round 0 is traced and pays the cold builds.
    """
    tracer = Tracer()
    traced, plain, curves = [], [], []
    start = time.perf_counter()
    k = 0
    tracer.install()
    try:
        while len(traced) < 2 or len(plain) < 2 or time.perf_counter() - start < args.seconds:
            on = k % 2 == 0
            wall, cpu, work, round_curves = run_round(wl, k, tracer if on else None, args.corrupt, log)
            (traced if on else plain).append({"wall": wall, "cpu": cpu, "work": work})
            if on:
                curves.extend(round_curves)
            k += 1
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.spans, len(traced), curves)
    layers["cli.bytes_written"] = log["bytes_written"] / k
    untraced = statistics.median(r["wall"] for r in plain)
    layers["tracing.overhead_frac"] = statistics.median(r["wall"] for r in traced[1:]) / untraced - 1.0
    layers["reference.default_wall_s"] = untraced
    layers["reference.default_cpu_s"] = statistics.median(r["cpu"] for r in plain)
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "fields": ["name", "start", "end", "parent", "unit", "note"],
                    "spans": tracer.spans,
                },
                fh,
            )
    return {"rounds": traced + plain, "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
