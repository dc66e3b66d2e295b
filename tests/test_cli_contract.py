"""The CLI exit-code contract: 0 ok, 1 a declared predicate failed, 2 a config
error, 3 a solver failure, 4 an internal error; never a traceback."""

import contextlib
import copy
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymptotica import cli, dimsys, mspde
from asymptotica.cli import (
    EXIT_ACCEPT,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SOLVER,
    main,
)
from asymptotica.msode import SolverError

PENDULUM = {
    "base": "L T M",
    "quantities": {"t": "T", "s": "L", "l": "L", "m": "M", "g": "L T^-2"},
    "membership": {"pi_one": {"t": "2", "s": "-1", "g": "1"}},
    "accept": {"group_count": 2, "membership_all": True},
}
ROOTS = {"family": [[0, 1], [-1], [1]], "root": 1, "order": 4}
ODE = {"case": "cubic", "eps": 0.1, "horizon_exponent": 1, "n_samples": 64}
LAYER = {"kind": "linear", "eps": 0.1, "n_grid": 512}
PACKET = {"task": "packet_compare", "eps": 0.1, "checkpoints": [1.0], "dt": 0.05}
# Each of these exited 4 with an internal error: a TypeError from np.log2 on a
# Python int past the int64 range (the first three), an OverflowError from
# int(inf) and from sigma**2, and a ZeroDivisionError when the L2 norms
# underflowed to 0.
PACKET_BREACHES = [
    dict(PACKET, sigma_wavelengths=1e20),
    dict(PACKET, points_per_wavelength=2**62),
    dict(PACKET, k=1e150),
    dict(PACKET, sigma_wavelengths=1e308),
    dict(PACKET, k=1e-300),
    dict(PACKET, amplitude=1e-300),
]
PHASE_MATCH = {"task": "phase_match", "kind": "fourth_order", "harmonic": 3,
               "k_range": [0.1, 2.0], "accept": {"roots": [0.5773502691896258]}}


def run(tmp_path, subcommand, payload, capsys=None, stem="cfg", out_dir=None):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(payload))
    code = main([subcommand, "--config", str(path), "--out-dir", str(out_dir or tmp_path)])
    return code, (capsys.readouterr().err if capsys else "")


# Each of these exited 0, 1 or 3 before the config schema was declared, or,
# payloads 22 to 24, ran past a 5 s timeout before the step budgets.  Each
# row names its own id, so deleting a row renames no other test.
REJECTED = [
    pytest.param("ode", dict(ODE, accept={"max_abs_eror_le": 1e-30}), id="ode-payload0"),
    pytest.param("ode", dict(ODE, accept={"max_abs_error_le": "0.005"}), id="ode-payload1"),
    pytest.param("ode", dict(ODE, terms="x"), id="ode-payload2"),
    pytest.param("ode", {"case": "cubic", "eps": 0.1, "horizon": -5, "n_samples": 64},
                 id="ode-payload3"),
    pytest.param("ode", dict(ODE, ics=[1.0, 0.0, 0.0]), id="ode-payload4"),
    pytest.param("ode", dict(ODE, n_samples=0), id="ode-payload5"),
    pytest.param("ode", dict(ODE, n_samples=1), id="ode-payload6"),
    pytest.param("ode", dict(ODE, use_closed_form="no"), id="ode-payload7"),
    pytest.param("roots", dict(ROOTS, root="1/0"), id="roots-payload8"),
    pytest.param("roots", dict(ROOTS, mode="exakt"), id="roots-payload9"),
    pytest.param("roots", dict(ROOTS, order=-1), id="roots-payload10"),
    pytest.param("pde", dict(PACKET, kind="fourth_order"), id="pde-payload11"),
    pytest.param("pde", dict(PACKET, checkpoints=[2.0, 1.0]), id="pde-payload12"),
    pytest.param("pde", {"task": "phase_match", "harmonic": 4}, id="pde-payload13"),
    pytest.param("pde", {"task": "phase_match", "harmonic": "x"}, id="pde-payload14"),
    pytest.param("blayer", dict(LAYER, eps=[0]), id="blayer-payload15"),
    pytest.param("blayer", dict(LAYER, n_grid=10), id="blayer-payload16"),
    pytest.param("blayer", dict(LAYER, accept={"half_width_le_eps_multiple": "5"}),
                 id="blayer-payload17"),
    pytest.param("pi", {"base": "L T M", "quantities": {"t": "T", "q": "Q"}}, id="pi-payload18"),
    pytest.param("pi", dict(PENDULUM, accept={"group_count": "1"}), id="pi-payload19"),
    pytest.param("euler", {"eps_values": [0.1], "m_values": ["a"]}, id="euler-payload20"),
    pytest.param("euler", {"eps_values": [-0.1], "m_values": [1]}, id="euler-payload21"),
    pytest.param("ode", {"case": "damped_linear", "eps": 1e-12, "horizon_exponent": 1},
                 id="ode-payload22"),
    pytest.param("pde", dict(PACKET, dt=1e-9), id="pde-payload23"),
    # zero group velocity: the grid stays small however long the horizon
    pytest.param("pde", dict(PACKET, kind="fourth_order", order=0, eps=1e-3, k=2**-0.5,
                             checkpoints=[2e4]), id="pde-payload24"),
    # an empty k_range found no roots before the harmonic was checked: the
    # first and the last exited 1 (roots [] != expected), the second 0
    pytest.param("pde", dict(PHASE_MATCH, k_range=[2.0, 0.1]), id="pde-payload25"),
    pytest.param("pde", dict(PHASE_MATCH, harmonic=4, k_range=[2.0, 0.1]), id="pde-payload26"),
    pytest.param("pde", dict(PHASE_MATCH, k_range=[1.0, 1.0]), id="pde-payload27"),
    # ran 11 s, then failed on Python's int-to-str limit (test_exact_roots_digit_budget)
    pytest.param("roots", dict(ROOTS, family=[[0, "1e300"], [-1], [1]], order=64),
                 id="roots-payload28"),
    # an explicit horizon above |eps|^-(validity exponent + 1) = 1e4: at the
    # negative eps it ran and wrote its CSV
    pytest.param("ode", {"case": "cubic", "eps": -0.1, "horizon": 20000}, id="ode-payload29"),
    # eps**-horizon_exponent past the float range, where Python's ** raises
    # OverflowError and numpy's float64 gives +-inf (HORIZON_PAST_THE_FLOATS)
    pytest.param("ode", {"case": "cubic", "eps": 1e-200, "horizon_exponent": 2},
                 id="ode-payload30"),
    pytest.param("ode", {"case": "cubic", "eps": -1e-200, "horizon_exponent": 3},
                 id="ode-payload31"),
    # the fit's eps continuation: 2 + int(|eps| / 0.025) steps overflowed to
    # int(inf), an internal error (exit 4), and at eps 1e10 coupled_cubic's
    # fit, which converges at every step, ran 4e11 of them past a timeout
    pytest.param("ode", {"case": "cubic", "eps": 5e306, "horizon_exponent": 0},
                 id="ode-payload32"),
    pytest.param("ode", {"case": "coupled_cubic", "eps": 1e10, "horizon_exponent": 0},
                 id="ode-payload33"),
]


@pytest.mark.parametrize("subcommand,payload", REJECTED)
def test_malformed_config_is_a_config_error(tmp_path, capsys, subcommand, payload):
    code, err = run(tmp_path, subcommand, payload, capsys)
    assert code == EXIT_CONFIG, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "cfg_summary.json").exists()


HORIZON_PAST_THE_FLOATS = [
    (1e-200, 2, "error: horizon inf is above the budget of 100000.0"),
    (-1e-200, 3, "error: horizon -inf at eps -1e-200 is not positive"),
]


@pytest.mark.parametrize("eps, exponent, message", HORIZON_PAST_THE_FLOATS)
def test_horizon_past_the_float_range_names_its_value(tmp_path, capsys, eps, exponent, message):
    payload = {"case": "cubic", "eps": eps, "horizon_exponent": exponent}
    assert run(tmp_path, "ode", payload, capsys) == (EXIT_CONFIG, message + "\n")


def test_singular_fit_is_a_solver_error(tmp_path, capsys, monkeypatch):
    # B's eps^0 carrier row dropped: B then enters only at eps^1, so the
    # eps = 0 fit's linear system has a zero column
    from asymptotica import msode

    case = msode.catalog("quadratic_damped")
    planted = copy.copy(case)._set_tables(case.rate_terms,
                                          case.carrier_terms[:1] + case.carrier_terms[2:])
    monkeypatch.setattr(msode, "catalog", lambda name: planted)
    code, err = run(tmp_path, "ode", {"case": "quadratic_damped", "eps": 0.01, "horizon": 10.0},
                    capsys)
    assert code == EXIT_SOLVER, err
    assert err.startswith("solver error: ") and "singular" in err.lower()
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


# Each of these ran its earlier members and wrote their CSVs before the bad
# member exited 2; typing now checks every member against the library's range.
@pytest.mark.parametrize(
    "subcommand,payload",
    [
        ("blayer", {"kind": "nonlinear", "eps": [0.1, 0.05, 0.18]}),
        ("blayer", {"kind": "linear", "eps": [0.1, 1e-7]}),
        ("ode", {"case": "damped_linear", "eps": [0.1, 0.0], "horizon_exponent": 1}),
        # eps**-horizon_exponent is negative, then 0: each exited 2 in the
        # solver after the first member had written its CSV
        ("ode", {"case": "damped_linear", "eps": [0.5, -0.1], "horizon_exponent": 1}),
        ("ode", {"case": "damped_linear", "eps": [0.5, 0.1], "horizon_exponent": -400}),
        ("ode", {"case": "cubic", "eps": [0.1, -5e306], "horizon_exponent": 0}),
    ],
)
def test_bad_sweep_member_fails_before_any_run(tmp_path, capsys, subcommand, payload):
    out = tmp_path / "out"
    code, err = run(tmp_path, subcommand, payload, capsys, out_dir=out)
    assert code == EXIT_CONFIG, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand,payload",
    [
        ("pi", dict(PENDULUM, seed=1)),
        ("euler", {"eps_values": [0.1], "m_values": [1], "seed": 1}),
        ("ode", dict(ODE, include_naive=True)),
        ("blayer", dict(LAYER, shoot_tol=1e-8)),
        ("blayer", dict(LAYER, kind="nonlinear", accept={"half_width_le_eps_multiple": 5.0})),
        ("pde", dict(PACKET, harmonic=3)),
        ("pde", {"task": "phase_match", "checkpoints": [1.0]}),
        ("pde", {"task": "phase_match", "accept": {"l2_error_le": 0.1}}),
        ("pi", {"fixture": "drop.txt", "base": "L T M", "quantities": {"t": "T"}}),
    ],
)
def test_keys_that_do_nothing_are_rejected(tmp_path, capsys, subcommand, payload):
    code, err = run(tmp_path, subcommand, payload, capsys)
    assert code == EXIT_CONFIG
    assert "unknown" in err


@pytest.mark.parametrize(
    "subcommand,payload",
    [
        ("ode", dict(ODE, n_samples=2**20 + 1)),
        ("blayer", dict(LAYER, n_grid=2**20 + 1)),
        ("pde", dict(PACKET, order=2)),
        ("pde", dict(PACKET, checkpoints=[1.0, 1.0])),
        ("ode", dict(ODE, eps=0.1, name="../escape")),
        ("ode", dict(ODE, rtol=float("nan"))),
        ("roots", dict(ROOTS, rescale_exponent=True)),
        ("roots", dict(ROOTS, order=65)),
        ("roots", {"family": [[-1], [1], [0, 1]], "root": -1, "order": 2,
                   "rescale_exponent": 1e-12}),
        ("euler", {"eps_values": [0.1], "m_values": [170]}),
        ("pde", dict(PACKET, amplitude=0)),
        ("roots", {"family": [[1]], "root": 0, "order": 2}),
        ("ode", {"case": "cubic", "eps": 1e-100, "horizon_exponent": 1}),
        *[("pde", payload) for payload in PACKET_BREACHES],
        # these exited 4 with an OverflowError from eps ** (m + 1) and from
        # float(Fraction), and the fourth exited 1 with abs_error NaN and bound
        # Infinity although the bound holds
        ("euler", {"eps_values": [1e200], "m_values": [2]}),
        ("roots", dict(ROOTS, mode="float", root="1e400")),
        ("roots", dict(ROOTS, mode="float", family=[[0, 1], ["-1e400"], [1]])),
        ("euler", {"eps_values": [1.2], "m_values": [169], "accept": {"bound_holds": True}}),
    ],
)
def test_out_of_range_values_are_config_errors(tmp_path, capsys, subcommand, payload):
    code, err = run(tmp_path, subcommand, payload, capsys)
    assert code == EXIT_CONFIG, err


# Fraction builds 10**e in full: the roots coefficient ran past 20 s, the pi
# dimension and membership exponent past 10 s, and "1e10000000" took 14 s
# before exiting 2.
@pytest.mark.parametrize(
    "subcommand,payload",
    [
        ("roots", dict(ROOTS, family=[[0, 1], ["1e1000000000"], [1]])),
        ("roots", dict(ROOTS, family=[[0, 1], ["1e10000000"], [1]])),
        ("roots", dict(ROOTS, mode="float", root="1e-1000000000")),
        ("roots", dict(ROOTS, rescale_exponent="1e1000000000")),
        ("pi", dict(PENDULUM, quantities={"t": "T", "s": "L^1e1000000000"}, membership={})),
        ("pi", dict(PENDULUM, membership={"pi_one": {"t": "1e1000000000"}})),
    ],
)
def test_huge_decimal_exponent_fails_at_once(tmp_path, capsys, subcommand, payload):
    start = time.perf_counter()
    code, err = run(tmp_path, subcommand, payload, capsys)
    assert code == EXIT_CONFIG, err
    assert time.perf_counter() - start < 1.0
    assert "beyond +-4300" in err and len(err.splitlines()) == 1


def test_default_order_beyond_the_model_is_named(tmp_path, capsys):
    code, err = run(tmp_path, "pde", dict(PACKET, kind="fourth_order"), capsys)
    assert code == EXIT_CONFIG
    assert "order (default 1)" in err


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_packet_without_positive_eps_runs_to_its_checkpoints(tmp_path, capsys, eps):
    payload = {"task": "packet_compare", "eps": eps, "k": 1.0, "order": 0,
               "checkpoints": [1.0], "dt": 0.01}
    code, err = run(tmp_path, "pde", payload, capsys)
    assert code == EXIT_OK, err
    summary = json.loads((tmp_path / "cfg_summary.json").read_text())
    assert summary["result"]["checkpoints"] == [1.0]
    assert (tmp_path / "cfg_t1.csv").exists()


def test_null_means_default(tmp_path):
    code, _ = run(tmp_path, "ode", dict(ODE, terms=None, rtol=None, accept=None))
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "cfg_summary.json").read_text())
    assert summary["result"]["runs"][0]["stats"]["terms"] == 2


def test_pi_needs_an_inline_quantity_set(tmp_path, capsys):
    code, err = run(tmp_path, "pi", {"base": "L T M"}, capsys)
    assert code == EXIT_CONFIG
    assert "missing required key 'quantities'" in err


def test_pi_fixture_key_is_unknown(tmp_path, capsys):
    # a pi config holds its quantities itself; it names no file to read them from
    code, err = run(tmp_path, "pi", dict(PENDULUM, fixture="drop.txt"), capsys)
    assert code == EXIT_CONFIG
    assert "unknown keys ['fixture']" in err


# The exact root of x^2 - x + v eps at 1 is 1 - sum_p C_(p-1) v^p eps^p, C the
# Catalan numbers, and the summary prints its coefficients: past 4300 digits
# Python's int-to-str limit failed the run after the whole expansion (11 s for
# 1e300 at order 64), with a message that named no key.  At order 14,
# C_13 = 742900, so the last coefficient's digits decide.
@pytest.mark.parametrize("value,order,code,digits", [
    ("5e306", 14, EXIT_OK, None),  # 742900 5^14 10^4284: 4300 digits
    ("6e306", 14, EXIT_CONFIG, 4301),  # 742900 6^14 10^4284
    ("1e-308", 14, EXIT_CONFIG, 4311),  # so do denominators: 7429 / 10^4310
])
def test_exact_roots_digit_budget(tmp_path, capsys, value, order, code, digits):
    payload = {"family": [[0, value], [-1], [1]], "root": 1, "order": order}
    got, err = run(tmp_path, "roots", payload, capsys)
    assert got == code, err
    if code == EXIT_OK:
        result = json.loads((tmp_path / "cfg_summary.json").read_text())["result"]
        assert len(result["coefficients"]) == order + 1
        assert max(len(c.lstrip("-").partition("/")[0]) for c in result["coefficients"]) == 4300
    else:
        assert f"order {order} needs {digits}-digit coefficients, above the limit of 4300" in err


def test_exact_roots_past_the_digit_estimate_name_order_and_digits(tmp_path, capsys):
    # A digit estimate of p (D + 1) for a D-digit family is no bound: this
    # family's coefficients grow by about one digit an order more.  Scaled by
    # 1e535 they passed that estimate at order 8 (4296 digits) and need 4305;
    # scaled by 1e65 the same happened at order 64 (4288 against 4361) after
    # 9 s.  Python's int-to-str limit then failed the run with a message that
    # named no key.
    rows = [[3, -8, 9], [2, 9, -4], [5, 2, 4], [4, 8, 7], [-2, -8, 2]]
    family = [[c0] + [f"{v}e535" for v in rest] for c0, *rest in rows]
    code, err = run(tmp_path, "roots", {"family": family, "root": 3, "order": 8}, capsys)
    assert code == EXIT_CONFIG, err
    assert "order 8 needs 4305-digit coefficients" in err and "Traceback" not in err
    assert not (tmp_path / "cfg_summary.json").exists()


# Exponents inside +-4300 can still combine into group exponents or membership
# coefficients past Python's int-to-str limit; that limit failed the run with a
# message that named no key.  10^4299 has 4300 digits and still prints.
@pytest.mark.parametrize("payload,code,message", [
    ({"base": "L T", "quantities": {"a": "L^1e4300", "b": "L^3e-4300 T", "c": "T"}},
     EXIT_CONFIG, "the quantities' group basis needs 8601-digit exponents"),
    (dict(PENDULUM, membership={"pi_one": {"t": "2e4300", "s": "-1e4300", "g": "1e4300"}}),
     EXIT_CONFIG, "membership 'pi_one' needs 4301-digit coefficients"),
    (dict(PENDULUM, membership={"pi_one": {"t": "2e4299", "s": "-1e4299", "g": "1e4299"}}),
     EXIT_OK, ""),
])
def test_pi_past_the_digit_limit_names_the_key(tmp_path, capsys, payload, code, message):
    got, err = run(tmp_path, "pi", payload, capsys)
    assert got == code, err
    assert message in err and "Traceback" not in err
    assert (tmp_path / "cfg_summary.json").exists() is (code == EXIT_OK)


def test_phase_match_searches_the_whole_float_range(tmp_path, capsys):
    # omega(k)^2 ~ k^4 overflows on most of this range: a search that sampled
    # D(3) on a grid read inf there and exited 2.  The roots of D(3) as a
    # polynomial in k^2 need no samples, so the run finds the root at 1/sqrt(3).
    payload = {"task": "phase_match", "kind": "fourth_order", "k_range": [0.1, 1e308]}
    code, err = run(tmp_path, "pde", payload, capsys)
    assert code == EXIT_OK and err == ""
    summary = json.loads((tmp_path / "cfg_summary.json").read_text())
    assert summary["result"]["roots"] == [0.5773502691896257]


@pytest.mark.parametrize(
    "error,code,prefix",
    [
        (RuntimeError("boom"), EXIT_INTERNAL, "internal error: "),
        (KeyError("boom"), EXIT_INTERNAL, "internal error: "),
        (ZeroDivisionError("boom"), EXIT_INTERNAL, "internal error: "),
        (np.linalg.LinAlgError("singular"), EXIT_SOLVER, "solver error: "),
        (SolverError("diverged"), EXIT_SOLVER, "solver error: "),
        (ValueError("bad argument"), EXIT_CONFIG, "error: "),
    ],
)
def test_exceptions_map_to_exit_codes(tmp_path, capsys, monkeypatch, error, code, prefix):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(dimsys, "pi_groups", fail)
    got, err = run(tmp_path, "pi", PENDULUM, capsys)
    assert got == code
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    assert not (tmp_path / "cfg_summary.json").exists()


def test_ode_blow_up_exits_as_a_solver_error(tmp_path, capsys):
    payload = {"case": "cubic", "eps": 0.15, "ics": [3.0, 0.0], "horizon": 20.0}
    code, err = run(tmp_path, "ode", payload, capsys)
    assert code == EXIT_SOLVER
    assert err.startswith("solver error: ") and "t=2.2379" in err
    assert len(err.splitlines()) == 1


def test_nan_error_fails_a_predicate():
    accept = {"l2_error_le": cli.Accept(cli._positive, "l2_error", "le")}
    assert cli._failures(accept, {"l2_error_le": 0.1}, [{"l2_error": float("nan")}])
    assert not cli._failures(accept, {"l2_error_le": 0.1}, [{"l2_error": 0.05}])


def test_packet_grid_budget_checked_before_allocation(tmp_path, capsys, monkeypatch):
    grid_points = mspde.grid_points

    def guarded(length, n):
        assert n <= mspde.MAX_GRID, f"allocated a {n}-point grid"
        return grid_points(length, n)

    monkeypatch.setattr(mspde, "grid_points", guarded)
    code, err = run(tmp_path, "pde", dict(PACKET, checkpoints=[1e9]), capsys)
    assert code == EXIT_CONFIG
    assert "budget" in err


def test_packet_snapshot_budget_checked_before_any_solve(tmp_path, capsys, monkeypatch):
    # 5,000 checkpoints on a 2048-point grid pass the horizon and split-step
    # budgets; the direct solve would sample 5,000 states of 4,100 doubles
    def unreachable(*args, **kwargs):
        raise AssertionError("the snapshot budget must be checked before any solve")

    monkeypatch.setattr(mspde, "reconstruct_field", unreachable)
    monkeypatch.setattr(mspde, "_solve_direct", unreachable)
    checkpoints = [round(0.01 * i, 2) for i in range(1, 5001)]
    code, err = run(tmp_path, "pde", dict(PACKET, dt=0.01, checkpoints=checkpoints), capsys)
    assert code == EXIT_CONFIG, err
    assert f"budget of {mspde.MAX_SNAPSHOT_POINTS}" in err
    assert not list(tmp_path.glob("*.csv"))


# Each of these ran past 60 s in the direct solve before its work budget:
# k 1000 on the domain sized for the 1/eps horizon is a 32,768-point grid
# whose dealiased band reaches omega 6380, which an explicit step must
# resolve; at k 1e75 omega^2 overflows to inf.
@pytest.mark.parametrize("payload, grid, omega", [
    ({"task": "packet_compare", "eps": 0.1, "checkpoints": [1.0], "k": 1000},
     "32768-point grid to t = 1 ", "omega = 6379.67"),
    ({"task": "packet_compare", "eps": -1, "checkpoints": [1e-300], "k": 1e75,
      "kind": "fourth_order", "order": 0, "points_per_wavelength": 512},
     "65536-point grid to t = 1e-300 ", "omega = inf"),
])
def test_direct_work_budget_checked_before_any_solve(tmp_path, capsys, monkeypatch,
                                                     payload, grid, omega):
    def unreachable(*args, **kwargs):
        raise AssertionError("the direct-solve budget must be checked before any solve")

    monkeypatch.setattr(mspde, "reconstruct_field", unreachable)
    monkeypatch.setattr(mspde, "_solve_direct", unreachable)
    start = time.perf_counter()
    code, err = run(tmp_path, "pde", payload, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG, err
    assert grid in err and omega in err
    assert f"budget of {mspde.MAX_DIRECT_WORK:.3g}" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("payload", PACKET_BREACHES)
def test_packet_breaches_fail_before_any_solve(tmp_path, capsys, monkeypatch, payload):
    def unreachable(*args, **kwargs):
        raise AssertionError("the packet's values must be checked before any solve")

    monkeypatch.setattr(mspde, "_solve_direct", unreachable)
    monkeypatch.setattr(mspde, "solve_nls", unreachable)
    code, err = run(tmp_path, "pde", payload, capsys)
    assert code == EXIT_CONFIG, err
    assert not list(tmp_path.glob("*.csv"))


# Before the amplitude limits, 1e150 wrote four numpy overflow warnings and
# exited 2 naming y0, not the amplitude; 1e60 exited 3 after eleven
# warnings; 1e10, 1e20 and 1e40 exited 3 after 2.7-12.7 s of a solve that
# blew up; 1e4 ran past 20 s and 1e77 past 3 minutes.
@pytest.mark.parametrize("amplitude", [1e150, 1e77, 1e60, 1e40, 1e20, 1e10, 1e4])
def test_strongly_nonlinear_packet_fails_at_once(tmp_path, capsys, amplitude):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code, err = run(tmp_path, "pde", dict(PACKET, amplitude=amplitude), capsys)
        elapsed = time.perf_counter() - start
    assert code == EXIT_CONFIG, err
    assert elapsed < 1.0
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: amplitude {amplitude} is beyond |amplitude| <= 10, ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("kind, order, amplitude, power", [
    ("klein_gordon", 1, 1e150, 3),
    ("fourth_order", 0, 1e80, 4),
])
def test_packet_amplitude_that_overflows_fails_at_once(tmp_path, capsys, kind, order,
                                                       amplitude, power):
    # at eps 0 no weak-nonlinearity limit applies
    payload = dict(PACKET, eps=0.0, kind=kind, order=order, amplitude=amplitude)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run(tmp_path, "pde", payload, capsys)
    assert code == EXIT_CONFIG, err
    assert [str(w.message) for w in caught] == []
    _, finite = mspde._amplitude_limits(mspde.dispersion(kind), 0.0, 1.0)
    assert err == (f"error: amplitude {amplitude} is beyond |amplitude| <= {finite:.3g}, "
                   f"above which u^{power} of the {kind} field overflows\n")


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_jobs_capped_at_the_config_count(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    paths = []
    for stem in ("a", "b"):
        paths += ["--config", str(tmp_path / f"{stem}.json")]
        (tmp_path / f"{stem}.json").write_text(json.dumps(PENDULUM))
    assert main(["pi", *paths, "--jobs", "5000", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert main(["pi", *paths[:2], "--jobs", "8", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert RecordingPool.sizes == [2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, jobs):
    (tmp_path / "p.json").write_text(json.dumps(PENDULUM))
    with pytest.raises(SystemExit) as exc:
        main(["pi", "--config", str(tmp_path / "p.json"), "--jobs", jobs])
    assert exc.value.code == EXIT_CONFIG


# --- fuzzer --------------------------------------------------------------------------
# Cheap valid configs (each well under 0.5 s); one top-level or accept value
# is replaced by a small value, so no example can allocate much.

FUZZ_BASES = [
    ("pi", dict(PENDULUM, name="fz")),
    ("roots", dict(ROOTS, mode="exact", accept={"coefficients": [1, -1, -1, -2, -5]})),
    ("roots", {"family": [[-1], [1], [0, 1]], "root": -1, "order": 2,
               "rescale_exponent": "1", "accept": {"coefficients": [-1, -1, 1]}}),
    ("euler", {"eps_values": [0.05, 0.1], "m_values": [0, 1, 2], "quad_tol": 1e-12,
               "accept": {"bound_holds": True}}),
    ("ode", dict(ODE, eps=[0.1, 0.05], terms=2, seed=1,
                 accept={"max_abs_error_le": 0.2, "l2_error_le": 0.2})),
    ("ode", {"case": "damped_linear", "eps": 0.1, "horizon": 20.0, "n_samples": 64,
             "ics": [1.0, 0.0], "include_naive": True,
             "accept": {"max_abs_error_le": 0.05}}),
    ("blayer", dict(LAYER, eps=[0.1, 0.2], n_grid=256, seed=2,
                    accept={"max_gap_le": 0.05, "half_width_le_eps_multiple": 5.0})),
    ("blayer", {"kind": "nonlinear", "eps": 0.1, "n_grid": 256, "shoot_tol": 1e-8}),
    ("pde", {"task": "phase_match", "kind": "fourth_order", "harmonic": 3,
             "k_range": [0.1, 2.0], "accept": {"roots": [0.5773502691896258], "tol": 1e-10}}),
    ("pde", dict(PACKET, kind="klein_gordon", k=1.0, order=1, checkpoints=[0.5, 1.0],
                 rtol=1e-6, amplitude=0.5, sigma_wavelengths=10.0, points_per_wavelength=8,
                 accept={"l2_error_le": 0.05, "monotone_growth": True})),
]
POOL = ["x", None, [], {}, True, -1, 0, "1/0"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_config_fuzz(data):
    subcommand, base = data.draw(st.sampled_from(FUZZ_BASES))
    targets = [(key, None) for key in base] + [("accept", k) for k in base.get("accept", {})]
    key, inner = data.draw(st.sampled_from(targets))
    value = data.draw(st.sampled_from(POOL))
    config = copy.deepcopy(base)
    if inner is None:
        config[key] = value
    else:
        config["accept"][inner] = value
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(tmp)
        (out / "fz.json").write_text(json.dumps(config))
        code = main([subcommand, "--config", str(out / "fz.json"), "--out-dir", tmp])
        summaries = list(out.glob("*_summary.json"))  # a fuzzed "name" renames it
        failures = json.loads(summaries[0].read_text())["accept_failures"] if summaries else None
    stderr = err.getvalue()
    assert code in (EXIT_OK, EXIT_ACCEPT, EXIT_CONFIG, EXIT_SOLVER), stderr
    assert "Traceback" not in stderr
    assert (failures is not None) == (code in (EXIT_OK, EXIT_ACCEPT))
    assert (code == EXIT_ACCEPT) == bool(failures)
