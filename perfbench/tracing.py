"""
Run-time spans around the public entry points of each landau_lab layer,
and the per-layer metrics derived from them.

The tracer replaces a function by a timing wrapper in every landau_lab
module that holds it (``from .x import f`` copies the binding, so the home
module alone is not enough) and restores the originals on ``uninstall``.
Spans live in memory as ``[name, start, end, parent, unit, note]`` lists;
``note`` carries a per-call count where the work is sized (cubes, bytes) or
the cold/warm state of a coefficient build.  Each unit of a round is a root
span, so the self time of the roots is the unspanned remainder and all self
times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time

from scipy import fft as sfft

PACKAGE_MODULES = (
    "cli",
    "coefficients",
    "grid",
    "operators",
    "poincare",
    "rates",
    "report",
    "solver",
    "weights",
)

UNIT = "unit"
WEIGHT_FUNCTIONS = ("morrey_ratio_family", "ap_constant", "a1_constant", "reverse_holder")
IO_FUNCTIONS = (("report", "write_json"), ("report", "write_csv"), ("report", "sha256_file"), ("rates", "history_csv"))
LEDGER_FUNCTIONS = (("solver", "entropy"), ("solver", "entropy_production"), ("grid", "moments"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self._stack: list[int] = []
        self._unit = None
        self._undo: list[tuple[object, str, object]] = []
        self._seen_builds: set = set()

    def wrap(self, fn, name: str, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._unit, None]
            if note is not None:
                rec[5] = note(args, kwargs)
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def unit(self, unit_id, fn):
        """Run one unit of a round as a root span."""
        self._unit = unit_id
        self.recording = True
        try:
            return self.wrap(fn, UNIT)()
        finally:
            self.recording = False

    def install(self):
        mods = {m: importlib.import_module(f"landau_lab.{m}") for m in PACKAGE_MODULES}
        targets = [
            ("cli", "cmd_simulate", "cli.cmd_simulate", None),
            ("cli", "cmd_rates", "cli.cmd_rates", None),
            ("cli", "load_trajectory", "cli.load_trajectory", None),
            ("grid", "write_field", "grid.llf_io", None),
            ("grid", "read_field", "grid.llf_io", None),
            ("solver", "simulate", "solver.simulate", None),
            ("solver", "step", "solver.step", None),
            ("coefficients", "build_coefficients", "coefficients.build", self._build_note),
            ("coefficients", "fft_convolve", "coefficients.fft_convolve", _fft_bytes_note),
            ("coefficients", "eigenvalue_range", "coefficients.eig", None),
            ("operators", "drift_divergence", "operators.drift_divergence", None),
            ("poincare", "verify_eps_poincare", "poincare.verify_eps_poincare", None),
            ("poincare", "lambda_curve", "poincare.lambda_curve", None),
            ("rates", "fit_decay", "rates.fit_decay", None),
        ]
        targets += [("weights", fn, "weights", _cube_count_note) for fn in WEIGHT_FUNCTIONS]
        targets += [(mod, fn, "cli.io", None) for mod, fn in IO_FUNCTIONS]
        targets += [(mod, fn, "solver.ledger", None) for mod, fn in LEDGER_FUNCTIONS]
        for home, attr, name, note in targets:
            original = getattr(mods[home], attr, None)
            if original is None:
                continue
            wrapped = self.wrap(original, name, note)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        op_class = getattr(mods["operators"], "DiffusionOperator", None)
        if op_class is not None:
            self._patch(op_class, "apply", self.wrap(op_class.apply, "operators.apply"))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _build_note(self, args, kwargs):
        f = args[0] if args else kwargs["f"]
        gamma = args[1] if len(args) > 1 else kwargs["gamma"]
        key = (f.grid.key(), round(float(gamma), 12))
        cold = key not in self._seen_builds
        self._seen_builds.add(key)
        return "cold" if cold else "warm"


def _fft_bytes_note(args, kwargs):
    """Bytes read and written by the transforms of one fft_convolve call (computed from shapes)."""
    f = args[0] if args else kwargs["f"]
    kinds = args[2] if len(args) > 2 else kwargs["kinds"]
    pad = [sfft.next_fast_len(2 * f.grid.points_per_axis - 1)] * f.grid.dim
    real = math.prod(pad) * 8
    half = math.prod(pad[:-1]) * (pad[-1] // 2 + 1) * 16
    return (1 + len(kinds)) * (real + half)


def _cube_count_note(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "cubes"):
            return len(value.cubes)
    return 0


def _largest_cache_entry_bytes() -> int:
    """Array bytes of the largest entry in a module-level cache of landau_lab.coefficients."""
    mod = importlib.import_module("landau_lab.coefficients")
    best = 0
    for obj in vars(mod).values():
        if not isinstance(obj, dict):
            continue
        for entry in obj.values():
            best = max(best, _array_bytes(getattr(entry, "__dict__", {})))
    return best


def _array_bytes(obj) -> int:
    if hasattr(obj, "nbytes") and hasattr(obj, "shape"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], rounds: int, curves: list) -> dict[str, float]:
    """
    Per-layer metrics of the traced rounds.  Totals are per round; the build
    times are medians per call.  ``curves`` are the coercivity curves of the
    traced units, whose iteration counts are the exact Lanczos apply counts.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_total: dict[str, float] = {}
    for rec, s in zip(spans, own):
        name = rec[0]
        total[name] = total.get(name, 0.0) + rec[2] - rec[1]
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + s
    wall = total.get(UNIT, 0.0)
    per = 1.0 / max(rounds, 1)

    def dur(name):
        return total.get(name, 0.0)

    builds = {"cold": [], "warm": []}
    fft_bytes = 0
    cubes = 0
    matvecs_in_step = 0
    ledger = 0.0
    for i, rec in enumerate(spans):
        name = rec[0]
        if name == "coefficients.build":
            builds[rec[5]].append(rec[2] - rec[1])
        elif name == "coefficients.fft_convolve":
            fft_bytes += rec[5]
        elif name == "weights":
            cubes += rec[5]
        elif name == "operators.apply" and _has_ancestor(spans, i, "solver.step"):
            matvecs_in_step += 1
        elif name == "solver.ledger" and not (
            _has_ancestor(spans, i, "solver.ledger") or _has_ancestor(spans, i, "solver.step")
        ):
            ledger += rec[2] - rec[1]

    applies = sum(sum(c.iterations) for c in curves)
    eps_points = sum(len(c.epsilons) for c in curves)

    steps = calls.get("solver.step", 0)
    n_apply = calls.get("operators.apply", 0)
    return {
        "solver.step.calls": steps * per,
        "solver.step.self_s": self_total.get("solver.step", 0.0) * per,
        "solver.cg_matvecs_per_step": matvecs_in_step / steps if steps else 0.0,
        "solver.step.share": dur("solver.step") / wall if wall else 0.0,
        "solver.ledger_s": ledger * per,
        "operators.apply.calls": n_apply * per,
        "operators.apply.s": dur("operators.apply") * per,
        "operators.apply.ms_per_call": 1e3 * dur("operators.apply") / n_apply if n_apply else 0.0,
        "operators.drift_divergence.s": dur("operators.drift_divergence") * per,
        "poincare.lambda_curve.s": dur("poincare.lambda_curve") * per,
        "poincare.lanczos_applies": applies * per,
        "poincare.applies_per_eps": applies / eps_points if eps_points else 0.0,
        "poincare.eigsh_self_s": self_total.get("poincare.lambda_curve", 0.0) * per,
        "coefficients.build.calls": calls.get("coefficients.build", 0) * per,
        "coefficients.warm_build_s": statistics.median(builds["warm"]) if builds["warm"] else 0.0,
        "coefficients.cold_build_s": statistics.median(builds["cold"]) if builds["cold"] else 0.0,
        "coefficients.fft_convolve.s": dur("coefficients.fft_convolve") * per,
        "coefficients.eig.s": dur("coefficients.eig") * per,
        "coefficients.plan_mib_computed": _largest_cache_entry_bytes() / 2**20,
        "coefficients.fft_bytes_computed": fft_bytes * per,
        "weights.calls": calls.get("weights", 0) * per,
        "weights.s": dur("weights") * per,
        "weights.cubes_per_s": cubes / dur("weights") if dur("weights") else 0.0,
        "rates.fit_decay.s": dur("rates.fit_decay") * per,
        "cli.io_s": (dur("cli.io") + dur("grid.llf_io")) * per,
        "grid.llf_io_s": dur("grid.llf_io") * per,
        "tracing.traced_wall_s": wall * per,
        "tracing.unspanned_s": self_total.get(UNIT, 0.0) * per,
        "tracing.spans": len(spans) * per,
    }
