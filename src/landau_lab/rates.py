"""
Regularization-rate measurements: running-maximum histories over balls, fits
against the predicted smoothing exponents, and the geometric iteration
diagnostics.

The sup norm is the plain grid maximum over nodes inside the ball, with no
interpolation, so histories are deterministic and comparable across runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import a_star_field, matrix_field
from .errors import GridError, LandauLabError
from .grid import ScalarField, maxwellian
from .operators import centered_gradient, smoothstep_cutoff
from .solver import Trajectory


@dataclass
class RateFit:
    """Fitted smoothing exponents of a sup-norm history."""

    theorem_id: str
    R: float
    t_window: tuple[float, float]
    alpha_hat: float
    alpha_predicted: float | None
    beta_hat: float | None
    beta_predicted: float | None
    amplitude: float
    residual_rms: float
    n_samples: int
    hypothesis_flags: dict

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "R": self.R,
            "t_window": list(self.t_window),
            "alpha_hat": self.alpha_hat,
            "alpha_predicted": self.alpha_predicted,
            "beta_hat": self.beta_hat,
            "beta_predicted": self.beta_predicted,
            "amplitude": self.amplitude,
            "residual_rms": self.residual_rms,
            "n_samples": self.n_samples,
            "hypothesis_flags": self.hypothesis_flags,
        }


def linf_history(traj: Trajectory, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximum of f over the ball of radius R at every snapshot time."""
    nodes = _ball_nodes(traj, R)
    times = np.array(traj.times)
    sups = np.array([float(s.values.take(nodes).max()) for s in traj.snapshots])
    return times, sups


def _ball_nodes(traj: Trajectory, R: float) -> np.ndarray:
    """Flat indices of the nodes in the ball of radius R, a finite R in (0, half extent]."""
    if not 0 < R < math.inf:
        raise GridError(f"R={R} must be finite and > 0")
    if R > traj.grid.half_extent:
        raise GridError(f"R={R} exceeds the domain half extent {traj.grid.half_extent}")
    return np.flatnonzero(traj.grid.radius_squared() <= R**2)


#: the conditional Coulomb regime's exponent s, in alpha = 1 + s and beta = s
S_EXPONENT = 0.5

PREDICTED_EXPONENTS = {
    # time exponent alpha in sup <= C (1 + 1/t)^alpha, ball exponent beta in R^beta, d = 3
    "main_1": lambda gamma: (3 / 2.0, -gamma * 3 / 2.0),
    "very_soft": lambda gamma: (3 / 2.0, -gamma * 3 / 2.0),
    "coulomb": lambda gamma: (1.0 + S_EXPONENT, S_EXPONENT),
}


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept: the slope, the intercept and the rms residual."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    rms = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return float(coef[0]), float(coef[1]), rms


def energy_drift(traj: Trajectory) -> float:
    """Signed relative change of the ledger energy over the run, (E_last - E_0) / E_0."""
    e0 = traj.ledger[0].energy
    return (traj.ledger[-1].energy - e0) / e0


class _Balls:
    """
    The sup-norm history and the fit window of each ball of one trajectory,
    each computed on first use, so that fits over the same radii share one
    history per radius and one equilibrium.
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self._history: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._window: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    @functools.cached_property
    def equilibrium(self) -> ScalarField:
        return maxwellian(self.traj.grid)

    def history(self, R: float) -> tuple[np.ndarray, np.ndarray]:
        if R not in self._history:
            self._history[R] = linf_history(self.traj, R)
        return self._history[R]

    def fit_window(self, R: float) -> tuple[np.ndarray, np.ndarray]:
        """
        Usable samples of the ball's history: drop the scheme transient
        (t < 2 dt) and the approach to equilibrium (sup within a factor 2 of
        the stationary level, the maximum of the equilibrium over the ball,
        where the decay is exponential rather than self-similar).
        """
        if R not in self._window:
            traj = self.traj
            times, sups = self.history(R)
            dt0 = traj.ledger[1].time - traj.ledger[0].time if len(traj.ledger) > 1 else 0.0
            floor = float(self.equilibrium.values.take(_ball_nodes(traj, R)).max())
            keep = (times > 2.0 * dt0) & (sups > 2.0 * floor)
            self._window[R] = times[keep], sups[keep]
        return self._window[R]


def fit_decay(
    traj: Trajectory,
    R: float,
    theorem_id: str = "main_1",
    R_sweep=(2.0, 3.0, 4.0, 6.0),
    hypothesis_flags: dict | None = None,
) -> RateFit:
    """
    Least-squares fit of log sup-norm against log(1 + 1/t) over the last
    usable decade, excluding the scheme transient (t < 2 dt) and the
    saturated approach to equilibrium (sup within 2x of the stationary
    level).  The ball exponent comes from refitting over an R sweep.  A
    history that never leaves saturation (a stationary run) is fitted raw
    and flagged.  The flags also report the run's ``energy_drift``, which
    the scheme conserves only at equilibrium.
    """
    return _fit_decay(_Balls(traj), R, theorem_id, R_sweep, hypothesis_flags)


def fit_radii(traj: Trajectory, theorem_id: str, radii) -> list[tuple[RateFit, np.ndarray, np.ndarray]]:
    """
    ``fit_decay`` at each radius, each fit sweeping ``radii``, with the
    times and sup norms of the history it fitted.  The fits share one
    history per radius and one equilibrium.
    """
    balls = _Balls(traj)
    return [(_fit_decay(balls, R, theorem_id, tuple(radii), None), *balls.history(R)) for R in radii]


def _fit_decay(balls: _Balls, R: float, theorem_id: str, R_sweep, hypothesis_flags: dict | None) -> RateFit:
    traj = balls.traj
    if theorem_id not in PREDICTED_EXPONENTS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    flags = {**(hypothesis_flags or {}), "energy_drift": energy_drift(traj)}
    times, sups = balls.fit_window(R)
    if len(times) < 6:
        # saturated history (e.g. a stationary run): fit the raw curve and flag it
        all_t, all_s = balls.history(R)
        dt0 = traj.ledger[1].time - traj.ledger[0].time if len(traj.ledger) > 1 else 0.0
        keep = all_t > 2.0 * dt0
        times, sups = all_t[keep], all_s[keep]
        flags["saturated_window"] = True
    if len(times) >= 6 and times.max() > 0 and not flags.get("saturated_window"):
        # fit the last usable decade: the early samples are resolution
        # limited (the discrete spike is wider than the true one), the late
        # ones were already cut by the saturation rule
        start = np.nonzero(times >= times.max() / 10.0 - 1e-12)[0]
        if start.size and len(times) - start[0] >= 6:
            lo = start[0]
            if lo > 0 and times[lo] > times.max() / 10.0:
                lo -= 1  # keep one sample at or before the decade boundary
            times, sups = times[lo:], sups[lo:]
    if len(times) < 6:
        raise LandauLabError(
            f"degenerate fit window: {len(times)} usable samples (need >= 6)"
        )
    span = times.max() / times.min()
    if span < 10.0 - 1e-9 and not flags.get("saturated_window"):
        raise LandauLabError(f"fit window spans {span:.2f}x in t, need one decade")
    alpha_hat, intercept, rms = line_fit(np.log1p(1.0 / times), np.log(sups))
    amp = float(math.exp(intercept))
    alpha_pred, beta_pred = PREDICTED_EXPONENTS[theorem_id](traj.gamma)
    beta_hat = None
    if R_sweep:
        amps = []
        for r in R_sweep:
            try:
                t_r, s_r = balls.fit_window(r)
                if len(t_r) < 6:
                    continue
                amps.append((math.log(r), line_fit(np.log1p(1.0 / t_r), np.log(s_r))[1]))
            except GridError:
                continue
        if len(amps) >= 2:
            beta_hat = line_fit(*np.array(amps).T)[0]
    return RateFit(
        theorem_id=theorem_id,
        R=R,
        t_window=(float(times.min()), float(times.max())),
        alpha_hat=alpha_hat,
        alpha_predicted=alpha_pred,
        beta_hat=beta_hat,
        beta_predicted=beta_pred,
        amplitude=amp,
        residual_rms=rms,
        n_samples=int(len(times)),
        hypothesis_flags=flags,
    )


def moser_schedule(n_max: int, T: float, R: float) -> list[dict]:
    """Iteration times, radii, and exponents in d = 3: T_n = (2 - 2^-n) T/4, R_n = (1 + 2^-n) R/2."""
    if n_max > 8:
        raise ValueError("n_max is capped at 8 (the exponents grow geometrically)")
    p = 1.0 + 2.0 / 3
    q = 2.0 + 4.0 / 3
    rows = []
    for n in range(n_max + 1):
        rows.append(
            {
                "n": n,
                "T_n": (2.0 - 2.0**-n) * T / 4.0,
                "R_n": (1.0 + 2.0**-n) * R / 2.0,
                "p_n": p * (q / 2.0) ** n,
                "q": q,
            }
        )
    return rows


def moser_report(traj: Trajectory, n_max: int, R: float) -> dict:
    """
    The iteration quantities E_n = (int_{T_n}^T int eta_n^q f^(p_n) astar)^(1/p_n),
    q = 2 + 4/d, with the shrinking cutoff family eta_n (supported in B(R_n),
    identically 1 on B(R_{n+1})), plus the grid sup norm over the limit
    cylinder B(R/2) x (T/2, T) they should dominate for large n.
    """
    d = traj.grid.dim
    q = 2.0 + 4.0 / d
    T = traj.times[-1]
    sched = moser_schedule(n_max, T, R)
    vol = traj.grid.spacing**d
    # every E_n integrates only t >= T_n >= T_0, so earlier snapshots need no a*
    t_first = min((entry["T_n"] for entry in sched), default=math.inf) - 1e-12
    astars = {
        t: a_star_field(matrix_field(s, traj.gamma)).values
        for t, s in zip(traj.times, traj.snapshots)
        if t >= t_first
    }
    rows = []
    cut_consts = []
    for entry in sched:
        n = entry["n"]
        R_out = entry["R_n"]
        R_in = (1.0 + 2.0 ** -(n + 1)) * R / 2.0
        eta = smoothstep_cutoff(traj.grid, R_in, R_out)
        grad_sup = max(
            float(np.max(np.abs(g))) for g in centered_gradient(eta.values, traj.grid.spacing)
        )
        cut_consts.append(grad_sup * R / 2.0**n)
        pn = entry["p_n"]
        samples = [
            (t, s) for t, s in zip(traj.times, traj.snapshots) if t >= entry["T_n"] - 1e-12
        ]
        vals = [
            (t, float(np.sum(eta.values**q * s.values**pn * astars[t])) * vol)
            for t, s in samples
        ]
        acc = 0.0
        for k in range(len(vals) - 1):
            acc += 0.5 * (vals[k][1] + vals[k + 1][1]) * (vals[k + 1][0] - vals[k][0])
        rows.append({**entry, "E_n": acc ** (1.0 / pn) if acc > 0 else 0.0})
    mask = traj.grid.radius_squared() <= (R / 2.0) ** 2
    sup = 0.0
    for t, s in zip(traj.times, traj.snapshots):
        if t >= T / 2.0 - 1e-12:
            sup = max(sup, float(np.max(s.values[mask])))
    return {
        "rows": rows,
        "limit_cylinder_sup": sup,
        "cutoff_gradient_constants": cut_consts,
        "q": q,
    }
