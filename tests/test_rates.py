import numpy as np
import pytest

from landau_lab import rates
from landau_lab.errors import GridError
from landau_lab.grid import ScalarField, make_grid, squeezed_gaussian
from landau_lab.rates import (
    energy_drift,
    fit_decay,
    linf_history,
    moser_report,
    moser_schedule,
)
from landau_lab.solver import simulate


@pytest.fixture(scope="module")
def stationary_traj(maxwellian16):
    return simulate(maxwellian16, 0.0, 1.0, snapshot_stride=1, dt_max=0.05)


@pytest.fixture(scope="module")
def relaxing_traj():
    g = make_grid(3, 4.0, 24)
    f0 = squeezed_gaussian(g, 0.25, 0.5)
    return simulate(f0, 0.0, 2.0, snapshot_stride=1, t_ramp=0.3, dt_max=0.1)


def test_linf_history_basics(stationary_traj, maxwellian16):
    times, sups = linf_history(stationary_traj, 4.0)
    peak = maxwellian16.values.max()
    assert np.allclose(sups, peak, rtol=1e-8)
    with pytest.raises(GridError):
        linf_history(stationary_traj, 100.0)
    zero_traj = simulate(
        ScalarField(maxwellian16.grid, maxwellian16.values * 0 + 1e-12), 0.0, 0.0
    ) if False else None


@pytest.mark.parametrize("R", [0.0, -1.0, float("nan"), float("inf")])
def test_linf_history_refuses_empty_or_unbounded_balls(stationary_traj, R):
    with pytest.raises(GridError, match="must be finite and > 0"):
        linf_history(stationary_traj, R)


def test_linf_history_zero_field(grid16):
    from landau_lab.solver import Trajectory

    zero = ScalarField(grid16, np.zeros(grid16.shape))
    traj = Trajectory(0.0, grid16, [0.0, 1.0], [zero, zero], [])
    times, sups = linf_history(traj, 4.0)
    assert np.all(sups == 0.0)


def test_fit_decay_stationary_flags_saturation(stationary_traj):
    fit = fit_decay(stationary_traj, 4.0, "main_1", R_sweep=())
    assert fit.hypothesis_flags.get("saturated_window")
    assert abs(fit.alpha_hat) < 0.02


def test_fit_decay_relaxing(relaxing_traj):
    fit = fit_decay(relaxing_traj, 2.0, "main_1", R_sweep=(1.0, 2.0))
    assert fit.alpha_predicted == 1.5
    assert 0.5 < fit.alpha_hat < 2.0
    assert fit.n_samples >= 6
    assert fit.residual_rms < 0.3
    assert fit.t_window[1] / fit.t_window[0] >= 10.0 - 1e-9


def test_fit_decay_reports_energy_drift(relaxing_traj, stationary_traj):
    fit = fit_decay(relaxing_traj, 2.0, "main_1", R_sweep=(), hypothesis_flags={"doubling_constant": 3.0})
    first, last = relaxing_traj.ledger[0].energy, relaxing_traj.ledger[-1].energy
    assert fit.hypothesis_flags == {"doubling_constant": 3.0, "energy_drift": (last - first) / first}
    assert energy_drift(relaxing_traj) == (last - first) / first != 0.0
    assert abs(energy_drift(stationary_traj)) < 1e-7  # at equilibrium only the implicit solves move it


def test_fit_decay_reproducible(relaxing_traj):
    f1 = fit_decay(relaxing_traj, 2.0, "main_1")
    f2 = fit_decay(relaxing_traj, 2.0, "main_1")
    assert f1.alpha_hat == f2.alpha_hat
    assert f1.residual_rms == f2.residual_rms


def test_fit_decay_unknown_theorem(relaxing_traj):
    with pytest.raises(ValueError):
        fit_decay(relaxing_traj, 2.0, "bogus")


def test_moser_schedule_values():
    rows = moser_schedule(3, 1.0, 4.0)
    assert rows[0]["T_n"] == pytest.approx(0.25)
    assert rows[0]["R_n"] == pytest.approx(4.0)
    assert rows[0]["p_n"] == pytest.approx(1.0 + 2.0 / 3.0)
    big = moser_schedule(8, 1.0, 4.0)
    assert big[-1]["T_n"] == pytest.approx(0.5, rel=1e-2)
    assert big[-1]["R_n"] == pytest.approx(2.0, rel=1e-2)
    with pytest.raises(ValueError):
        moser_schedule(9, 1.0, 4.0)


@pytest.fixture(scope="module")
def soft_traj(grid16):
    return simulate(squeezed_gaussian(grid16, 0.6, 0.5), -1.0, 0.6, snapshot_stride=2, dt_max=0.1)


def test_moser_report_convolves_only_the_window(soft_traj, monkeypatch):
    # every E_n integrates t >= T_n >= T_0 = T/4: no earlier snapshot needs its a*
    calls = []
    real = rates.matrix_field
    monkeypatch.setattr(rates, "matrix_field", lambda f, gamma: calls.append(f) or real(f, gamma))
    rep = moser_report(soft_traj, 3, 3.0)
    T = soft_traj.times[-1]
    window = [s for t, s in zip(soft_traj.times, soft_traj.snapshots) if t >= T / 4 - 1e-12]
    assert len(window) < len(soft_traj.snapshots)
    assert [id(f) for f in calls] == [id(s) for s in window]
    assert all(np.isfinite(r["E_n"]) and r["E_n"] > 0 for r in rep["rows"])


def test_moser_report_monotone_cutoffs(soft_traj):
    traj = soft_traj
    rep_small = moser_report(traj, 3, 3.0)
    rep_big = moser_report(traj, 3, 5.0)
    for row_s, row_b in zip(rep_small["rows"], rep_big["rows"]):
        assert row_s["E_n"] <= row_b["E_n"] * (1.0 + 1e-12)
    assert all(np.isfinite(r["E_n"]) for r in rep_small["rows"])
