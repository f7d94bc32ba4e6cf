#!/usr/bin/env python3
"""
landau-lab benchmark.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in its own worker process (``worker.py``), a
closed loop of rounds for ``--seconds`` with every unit checked.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
three set-up samples (two set-up-only processes and the measuring one),
each from process start to ready inputs; the other timings are medians over
the rounds of the measuring process.  ``--trace 1`` reports the per-layer
metrics from a traced process, plus a single-threaded-BLAS reference of the
same rounds.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a record with the environment, every round and
every failure goes to ``.perfbench_out/``.  Without the package sources the
command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("relax", "coercivity", "sweep")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "solver.step.calls": "count",
    "solver.step.self_s": "s",
    "solver.cg_matvecs_per_step": "count",
    "solver.step.share": "frac",
    "solver.ledger_s": "s",
    "operators.apply.calls": "count",
    "operators.apply.s": "s",
    "operators.apply.ms_per_call": "ms",
    "operators.drift_divergence.s": "s",
    "poincare.lambda_curve.s": "s",
    "poincare.lanczos_applies": "count",
    "poincare.applies_per_eps": "count",
    "poincare.eigsh_self_s": "s",
    "coefficients.build.calls": "count",
    "coefficients.warm_build_s": "s",
    "coefficients.cold_build_s": "s",
    "coefficients.fft_convolve.s": "s",
    "coefficients.eig.s": "s",
    "coefficients.plan_mib_computed": "MiB",
    "coefficients.fft_bytes_computed": "B",
    "weights.calls": "count",
    "weights.s": "s",
    "weights.cubes_per_s": "1/s",
    "rates.fit_decay.s": "s",
    "cli.io_s": "s",
    "cli.bytes_written": "B",
    "grid.llf_io_s": "s",
    "tracing.overhead_frac": "frac",
    "tracing.traced_wall_s": "s",
    "tracing.unspanned_s": "s",
    "tracing.spans": "count",
    "reference.default_wall_s": "s",
    "reference.default_cpu_s": "s",
    "reference.st_wall_s": "s",
    "reference.st_cpu_s": "s",
}
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "LANDAU_LAB_THREADS",
)
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(deadline: float, *args, env: dict | None = None) -> dict:
    """Run the worker to completion and return its JSON line, with set-up seconds added."""
    cmd = [sys.executable, WORKER, *[str(a) for a in args]]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **(env or {})}, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(map(str, args))} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(map(str, args))} exited with status {proc.returncode}")
    payload = json.loads(out.strip().splitlines()[-1])
    payload["setup_s"] = payload["ready"] - t0
    return payload


def median(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def measure(workload: str, seed: int, seconds: float, trace: bool, profile: str, corrupt: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", seed, "--profile", profile] + (["--corrupt"] if corrupt else [])
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "profile": profile}
    if not trace:
        setups = [spawn(deadline, *common, "--mode", "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(deadline, *common, "--mode", "run", "--seconds", seconds)
        setups.append(main["setup_s"])
        rounds = main["rounds"]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": median(rounds, lambda r: r["wall"]),
            "cpu_s": median(rounds, lambda r: r["cpu"]),
            "throughput": median(rounds, lambda r: r["work"] / r["wall"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        record["setup_samples_s"] = setups
        runs = [main]
        units = END_TO_END
    else:
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        main = spawn(deadline, *common, "--mode", "trace", "--seconds", seconds, "--spans", spans)
        ref = spawn(deadline, *common, "--mode", "reference", env=SINGLE_THREAD_ENV)
        metrics = dict(main["layers"])
        metrics["reference.st_wall_s"] = ref["rounds"][-1]["wall"]
        metrics["reference.st_cpu_s"] = ref["rounds"][-1]["cpu"]
        record["spans_file"] = os.path.relpath(spans, ROOT)
        record["reference_env"] = SINGLE_THREAD_ENV
        record["reference_rounds"] = ref["rounds"]
        runs = [main, ref]
        units = PER_LAYER
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not computed: {', '.join(missing)}")
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    record.update(
        {
            "environment": environment(seed, main["fft_workers"]),
            "rounds": main["rounds"],
            "attempted": attempted,
            "failed": len(failures),
            "failed_frac": len(failures) / attempted,
            "failures": failures,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
    )
    return record


def environment(seed: int, fft_workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "fft_workers": fft_workers,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
        elif kind != "Instruction":
            sizes["L1d"] = size
    return sizes


def save(record: dict) -> None:
    name = f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--profile", default="full", choices=["full", "tiny"], help="tiny sizes are for the self-test")
    p.add_argument("--corrupt", action="store_true", help="corrupt the first unit's result (self-test)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "landau_lab", "__init__.py")):
        print(f"error: no landau_lab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = measure(name, args.seed, args.seconds, bool(args.trace), args.profile, args.corrupt)
            save(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        for key, m in rec["metrics"].items():
            print(f"{rec['workload']:<11} {key:<32} {m['value']:.6g} {m['unit']}")
        print(f"{rec['workload']:<11} {'failed_frac':<32} {rec['failed_frac']:.6g} ({rec['failed']}/{rec['attempted']} units)")
        for failure in rec["failures"]:
            print(f"{rec['workload']:<11} FAILED {failure}")
    print("environment " + json.dumps(records[0]["environment"], sort_keys=True))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
