"""integrate_reference against scipy's solve_ivp(method="DOP853"), bit for bit.

The library's DOP853 stepper transcribes scipy 1.17's, including its
select_initial_step, so the two must agree on every sample, every evaluation
count and the point of failure.
"""

import re

import numpy as np
import pytest
import scipy
from scipy.integrate import DOP853, solve_ivp

from asymptotica import blayer, mspde
from asymptotica.msode import SolverError, catalog, integrate_reference
from asymptotica.mspde import RealField, grid_points

pytestmark = pytest.mark.skipif(
    tuple(map(int, re.match(r"(\d+)\.(\d+)", scipy.__version__).groups())) < (1, 17),
    reason="the stepper follows scipy 1.17's DOP853; earlier releases may "
    "choose the first step by another rule",
)


def solve_with_scipy(rhs, y0, t_span, rtol, atol, t_eval, args=()):
    return solve_ivp(rhs, t_span, np.asarray(y0, dtype=float), method="DOP853",
                     rtol=rtol, atol=atol, t_eval=t_eval, args=args or None)


def assert_matches_scipy(rhs, y0, t_span, rtol, atol, t_eval, args=()):
    # without t_eval integrate_reference samples t_span[1] alone, where
    # scipy would return every accepted step
    end = [t_span[1]] if t_eval is None else t_eval
    ref = solve_with_scipy(rhs, y0, t_span, rtol, atol, end, args)
    assert ref.success, ref.message
    traj = integrate_reference(rhs, y0, t_span, rtol, atol, t_eval=t_eval, args=args)
    assert traj.t.tobytes() == ref.t.tobytes()
    assert traj.y.tobytes() == np.ascontiguousarray(ref.y.T).tobytes()
    assert traj.meta["nfev"] == ref.nfev
    return traj


def recorded_call(monkeypatch, module, run):
    """The one integrate_reference call that ``run()`` makes through ``module``."""
    calls = []

    def recording(rhs, y0, t_span, rtol, atol, t_eval=None, args=()):
        calls.append((rhs, y0, t_span, rtol, atol, t_eval, args))
        return integrate_reference(rhs, y0, t_span, rtol, atol, t_eval, args)

    monkeypatch.setattr(module, "integrate_reference", recording)
    run()
    (call,) = calls
    return call


@pytest.mark.parametrize(
    "t_eval",
    [
        None,  # the end point alone, bit for bit the [400.0] case below
        np.linspace(0.0, 400.0, 8193),  # t0 included, about six samples per step
        np.array([3.0, 40.0, 400.0]),  # many steps between samples
        np.array([400.0]),  # only the end point: one step builds dense output
    ],
)
def test_damped_linear_reference_matches_scipy(t_eval):
    case = catalog("damped_linear")
    traj = assert_matches_scipy(case.original_rhs, case.default_ics, (0.0, 400.0),
                                1e-10, 1e-12, t_eval, args=(0.01,))
    assert traj.meta["n_steps"] > 1000


def test_coupled_reference_on_a_compare_grid_matches_scipy():
    # 4 state components sampled on the 2048-point grid compare() uses
    case = catalog("coupled_cubic")
    assert_matches_scipy(case.original_rhs, case.default_ics, (0.0, 100.0), 1e-10, 1e-12,
                         np.linspace(0.0, 100.0, 2048), args=(0.1,))


def test_many_samples_per_step_match_scipy():
    # t0 included and about fifty samples in every step
    case = catalog("cubic")
    traj = assert_matches_scipy(case.original_rhs, case.default_ics, (0.0, 20.0), 1e-10,
                                1e-12, np.linspace(0.0, 20.0, 4097), args=(0.1,))
    assert traj.meta["n_steps"] < 4097 / 40


def test_shooting_profile_matches_scipy(monkeypatch):
    # the nonlinear layer sampled on an n_grid 8192 mesh
    eps = 0.05
    sol = blayer.nonlinear_blayer_multiscale(eps)
    call = recorded_call(monkeypatch, blayer, lambda: sol(np.linspace(0.0, 1.0, 8193)))
    assert len(call[5]) == 8193
    assert_matches_scipy(*call)


def test_rtol_under_the_floor_matches_scipy():
    case = catalog("cubic")
    with pytest.warns(UserWarning):
        assert_matches_scipy(case.original_rhs, case.default_ics, (0.0, 20.0),
                             1e-16, 1e-16, np.linspace(0.0, 20.0, 201), args=(0.1,))


def band_problem(eps, u0, kind):
    """(right-hand side, start) of the pseudospectral band flow of
    ``mspde._solve_direct`` as a first-order system for integrate_reference:
    the rfft modes 0..K of u and v = u_t, complex interleaved, with
    u_hat_t = v_hat and v_hat_t = eps band(rfft(u^p)) - omega^2 u_hat."""
    d = mspde.dispersion(kind)
    n = u0.n
    band = mspde._direct_band(n, d.power)
    symbol = d.symbol(2.0 * np.pi * np.fft.rfftfreq(n, d=u0.length / n)[:band])

    def rhs(t, z):
        u_hat = z[: 2 * band].view(complex)
        nonlinear = np.fft.rfft(mspde._power(np.fft.irfft(u_hat, n), d.power))[:band]
        v_t = eps * nonlinear - symbol * u_hat
        return np.concatenate([z[2 * band :], v_t.view(float)])

    z0 = np.concatenate([np.fft.rfft(u0.u)[:band], np.fft.rfft(u0.ut)[:band]]).view(float)
    return rhs, z0


@pytest.mark.parametrize("kind", ["klein_gordon", "fourth_order"])  # u^2 and u^3
def test_direct_solve_matches_scipy(kind):
    length, n = 16.0 * np.pi, 32
    x = grid_points(length, n)
    u0 = RealField(length, 0.5 * np.cos(4 * 2.0 * np.pi / length * x),
                   0.1 * np.sin(2.0 * np.pi / length * x))
    rhs, z0 = band_problem(0.1, u0, kind)
    assert_matches_scipy(rhs, z0, (0.0, 5.0), 1e-10, 1e-12, [0.0, 2.5, 5.0])


@pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 1.0, 5)])
def test_blow_up_fails_where_scipy_fails(t_eval):
    # y' = y^2, y(0) = 2 blows up at t = 1/2
    def blow_up(t, y):
        return y**2

    ref = solve_with_scipy(blow_up, [2.0], (0.0, 1.0), 1e-10, 1e-12, t_eval)
    assert ref.status == -1
    # the t where scipy's own stepper stops, whatever t_eval samples
    stepper = DOP853(blow_up, 0.0, np.array([2.0]), 1.0, rtol=1e-10, atol=1e-12)
    while stepper.status == "running":
        stepper.step()
    assert stepper.status == "failed"
    with pytest.raises(SolverError) as failure:
        integrate_reference(blow_up, [2.0], (0.0, 1.0), 1e-10, 1e-12, t_eval=t_eval)
    assert str(failure.value) == (
        f"reference integration failed at t={stepper.t}: {ref.message} (nfev={ref.nfev})"
    )
