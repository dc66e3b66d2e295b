"""blayer.solve_banded against scipy.linalg.solve_banded((1, 1), ...), bit for bit.

The library's tridiagonal solve transcribes reference LAPACK dgtsv, which
scipy calls for a (1, 1) band, so both give the same bits on the
finite-difference Newton systems and on general tridiagonal systems.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from asymptotica import SolverError, blayer
from asymptotica.cli import EXIT_SOLVER, main


def newton_systems(problems, n):
    """Every (ab, b) the FD Newton iteration solves for these problems."""
    systems, solve = [], blayer.solve_banded

    def record(ab, b):
        systems.append((ab.copy(), b.copy()))
        return solve(ab, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blayer, "solve_banded", record)
        for kind, eps in problems:
            blayer.solve_bvp_fd(kind, eps, n)
    return systems


def assert_matches_scipy(ab, b):
    got = blayer.solve_banded(ab, b)
    assert np.array_equal(got, scipy.linalg.solve_banded((1, 1), ab, b))


def test_newton_systems_match_scipy():
    problems = [("linear", eps) for eps in (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)]
    problems += [("nonlinear", eps) for eps in (0.17, 0.1, 0.05, 0.02)]
    systems = newton_systems(problems, 8192)
    assert len(systems) >= 2 * len(problems)
    for ab, b in systems:
        assert_matches_scipy(ab, b)


def test_row_interchanges_match_scipy():
    # eps < h/2: the subdiagonal outweighs the diagonal, so dgtsv swaps rows
    problems = [("linear", 0.001), ("nonlinear", 0.001)]
    systems = newton_systems(problems, 64)
    assert all(abs(ab[1, 0]) < abs(ab[2, 0]) for ab, _ in systems)
    for ab, b in systems:
        assert_matches_scipy(ab, b)


def test_random_systems_match_scipy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        assert_matches_scipy(rng.standard_normal((3, n)), rng.standard_normal(n))


@pytest.mark.parametrize(
    "ab",
    [
        [[0.0, 1.0], [0.0, 1.0], [0.0, 0.0]],  # a zero first row
        [[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]],  # rank one: the last pivot vanishes
    ],
)
def test_zero_pivot_raises_solver_error(ab):
    ab, b = np.array(ab), np.ones(2)
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.solve_banded((1, 1), ab, b)
    with pytest.raises(SolverError, match="zero pivot"):
        blayer.solve_banded(ab, b)


def test_zero_pivot_is_a_solver_failure_exit(tmp_path, capsys, monkeypatch):
    solve = blayer.solve_banded
    monkeypatch.setattr(blayer, "solve_banded", lambda ab, b: solve(0.0 * ab, b))
    config = tmp_path / "layer.json"
    config.write_text(json.dumps({"kind": "linear", "eps": 0.1, "n_grid": 256}))
    assert main(["blayer", "--config", str(config), "--out-dir", str(tmp_path)]) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith("solver error: tridiagonal solve hit a zero pivot")
    assert not list(tmp_path.glob("*.csv"))


def test_nan_pivot_propagates_instead_of_raising():
    # a NaN diagonal over a zero subdiagonal must not reach a float division by
    # zero; the NaN step then stalls the Newton iteration, a solver error
    ab = np.array([[0.0, 1.0], [np.nan, 1.0], [0.0, 0.0]])
    assert np.isnan(blayer.solve_banded(ab, np.ones(2))).all()
