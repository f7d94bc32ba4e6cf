#!/usr/bin/env python3
"""
Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every workload runs traced and untraced with no failed unit;
that every metric named in BENCHMARK.json is emitted with its unit; that the
span self times plus the unspanned remainder add up to the traced wall time;
that a deliberately corrupted result is counted as a failed unit; and that a
directory holding only the benchmark (no package sources) exits non-zero
without a result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from tracing import UNIT, self_times  # noqa: E402

SEED = 5
TIMEOUT_S = 300


def bench(*args, cwd=ROOT) -> tuple[int, str]:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", str(SEED), *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def record(workload: str, trace: int) -> dict:
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed{SEED}-trace{trace}.json")) as fh:
        return json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems: list[str] = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the workloads of run.py")
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        code, out = bench("--workload", "all", "--profile", "tiny", "--seconds", "2", "--trace", str(trace))
        result = last_json(out)
        expect(code == 0 and result is not None, f"trace {trace}: every workload runs")
        if result is None:
            continue
        expect(result["correct"] and result["failed"] == 0, f"trace {trace}: no unit fails on tiny inputs")
        for wl in WORKLOADS:
            missing = []
            for m in spec[group]:
                got = result["metrics"].get(f"{wl}.{m['name']}")
                if not (got is not None and got["unit"] == m["unit"] and math.isfinite(got["value"])):
                    missing.append(m["name"])
            what = f"trace {trace}: {wl} emits all {len(spec[group])} {group} metrics with their units"
            expect(not missing, what + (f" (missing {', '.join(missing)})" if missing else ""))
    for wl in WORKLOADS:
        rec = record(wl, 1)
        with open(os.path.join(ROOT, rec["spans_file"])) as fh:
            spans = json.load(fh)["spans"]
        wall = sum(s[2] - s[1] for s in spans if s[0] == UNIT)
        own = self_times(spans)
        unspanned = sum(t for s, t in zip(spans, own) if s[0] == UNIT)
        layered = sum(t for s, t in zip(spans, own) if s[0] != UNIT)
        expect(
            abs(layered + unspanned - wall) <= 1e-9 * wall and min(own) >= -1e-9,
            f"{wl}: span self times plus the unspanned remainder equal the traced wall time",
        )

    code, out = bench("--workload", "all", "--profile", "tiny", "--seconds", "1", "--corrupt")
    result = last_json(out)
    expect(code == 0 and result is not None and not result["correct"], "corrupted run reports correct=false")
    for wl in WORKLOADS:
        rec = record(wl, 0)
        ok = rec["failed"] == 1 and rec["failures"][0].startswith(f"{wl}#0") and rec["failed_frac"] > 0
        expect(ok, f"{wl}: the corrupted first unit is counted in failed_frac ({rec['failed']}/{rec['attempted']})")

    bare = os.path.join(OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and last_json(out) is None, "without package sources: non-zero exit and no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
