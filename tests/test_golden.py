"""
Golden bytes of the time step: sha256 values of the assembled diffusion
matrix and of two short runs, recorded before the assembly and the stepper's
coefficient pass were restructured.  A refactor of either that changes one
output byte fails here; a change of arithmetic that is meant to move the
outputs updates these values and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from landau_lab import cli
from landau_lab.coefficients import build_coefficients
from landau_lab.grid import ScalarField, make_grid, random_density, squeezed_gaussian, write_field
from landau_lab.operators import diffusion_matrix
from landau_lab.report import sha256_file
from landau_lab.solver import reference_gaussian

MATRIX_SHA256 = {
    (0.0, "flux"): "fd395cac4d0915ed8abb2b968aa9282a96e3fde25bc8fa74792e4d7138d288ac",
    (0.0, "flux_weighted"): "1670b7a60d9f689a53870b5044698033cd719b05f81682d9759c19b6044a4663",
    (0.0, "dirichlet"): "688d560a458fa2f27249cf34166de2aafaa7c421dd4bb78d373d52146690c4da",
    (-1.0, "flux"): "50bc0798e529d1e420f2c78a347da65270f072ef08ab3a60928bd89b65e65613",
    (-1.0, "flux_weighted"): "0bfa3c9213a2577a245ed31a7bcbff021d8bdeba865975ab805acab6464fe016",
    (-1.0, "dirichlet"): "207bf7b6027979ed850abe0c202315c6e647538cc028bcdc23e21f268543c687",
}

#: (ledger.csv, final snapshot) of a t_final = 0.3 run, 13 steps
RUN_SHA256 = {
    0.0: (
        "67ad81a3e3e743c9b6c40b7d9aa494f5b0e90fd0eb6950c1fb26ccb0418d9bd7",
        "846d78fe11189f687ec690e64ea2add4c6068c70851fbc843bcd5eb3d0e75bde",
    ),
    -1.0: (
        "9fdca57d95c239659a1714b9064c764dfe1453ad13556957c49ca31e89499e19",
        "486c4eaba8c493e5c294a8d210f97d966485a5b4a545f9a63e224a65d7a2ea27",
    ),
}


@pytest.fixture(scope="module")
def field16():
    """0.9 x squeezed Gaussian (sigma 0.3, half the mass narrow) + 0.1 x the seed-16 random density, N=16, L=4."""
    g = make_grid(3, 4.0, 16)
    narrow = squeezed_gaussian(g, 0.3, 0.5).values
    rough = random_density(g, np.random.default_rng(16)).values
    return ScalarField(g, 0.9 * narrow + 0.1 * rough)


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_diffusion_matrix_golden_bytes(field16, gamma):
    A = build_coefficients(field16, gamma).A
    weight = reference_gaussian(field16).cell_weight
    for name, kwargs in (("flux", {}), ("flux_weighted", {"cell_weight": weight}), ("dirichlet", {"bc": "dirichlet"})):
        data = diffusion_matrix(A, **kwargs).data
        assert hashlib.sha256(data.tobytes()).hexdigest() == MATRIX_SHA256[gamma, name], name


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_simulate_golden_bytes(field16, gamma, tmp_path):
    init = tmp_path / "init.llf"
    write_field(init, field16)
    config = {
        "grid": {"dim": 3, "half_extent": 4.0, "points_per_axis": 16},
        "gamma": gamma,
        "t_final": 0.3,
        "dt": {"dt_max": 0.1, "t_ramp": 0.3},
        "initial_profile": {"kind": "file", "path": str(init)},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run = tmp_path / "run"
    cli.cmd_simulate(path, run)
    snapshots = sorted(run.glob("snapshot_*.llf"))
    assert len(snapshots) == 14
    assert (sha256_file(run / "ledger.csv"), sha256_file(snapshots[-1])) == RUN_SHA256[gamma]
