"""integrate_reference against scipy's solve_ivp(method="DOP853").

The library steps every solve by Taylor series; scipy's DOP853 at rtol 1e-13
is the independent oracle the tests compare it with, sample by sample, on
the flows the library integrates.
"""

import math
import random
import re

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from asymptotica import blayer, integrator, msode, mspde
from asymptotica.msode import SolverError, catalog, integrate_reference
from asymptotica.mspde import RealField, grid_points


def solve_with_scipy(rhs, y0, t_span, rtol, atol, t_eval, args=()):
    # solve_ivp steps a complex y0 as complex and any other as floats
    return solve_ivp(rhs, t_span, y0, method="DOP853",
                     rtol=rtol, atol=atol, t_eval=t_eval, args=args or None)


def original_rhs(case):
    """The case's (positions, velocities)' = (velocities, accelerations), as
    scipy's solve_ivp calls a right-hand side: rhs(t, state, eps)."""

    def rhs(t, state, eps):
        return np.array(msode._evaluate(case._direct_rows, np.asarray(state).tolist() + [eps]))

    return rhs


def amplitude_rhs(case):
    """The case's amplitude flow dA/dt = rate(A) A, as solve_ivp calls it:
    rhs(t, amps, eps)."""

    def rhs(t, amps, eps):
        return np.asarray(case.rate(amps, eps)) * amps

    return rhs


def assert_matches_scipy(expand, rhs, y0, t_span, rtol, atol, t_eval, bound, args=()):
    """The Taylor solve at (rtol, atol) within ``bound`` (max norm) of a
    tight DOP853 solve of the same flow, on the same samples."""
    # without t_eval integrate_reference samples t_span[1] alone, where
    # scipy would return every accepted step
    end = [t_span[1]] if t_eval is None else t_eval
    ref = solve_with_scipy(rhs, y0, t_span, 1e-13, 1e-15, end, args)
    assert ref.success, ref.message
    traj = integrate_reference(expand, y0, t_span, rtol, atol, t_eval=t_eval)
    assert np.asarray(traj.t).tobytes() == ref.t.tobytes()
    assert np.max(np.abs(np.asarray(traj.y) - ref.y.T)) <= bound
    return traj


@pytest.mark.parametrize(
    "t_eval",
    [
        None,  # the end point alone
        np.linspace(0.0, 400.0, 8193),  # t0 included, about 25 samples per step
        np.array([3.0, 40.0, 400.0]),  # many steps between samples
        np.array([400.0]),  # only the end point: one step is dense
    ],
)
def test_damped_linear_reference_matches_scipy(t_eval):
    case = catalog("damped_linear")
    traj = assert_matches_scipy(case.direct_expansion(0.01), original_rhs(case),
                                case.default_ics, (0.0, 400.0), 1e-10, 1e-12, t_eval, 5e-11,
                                args=(0.01,))
    assert traj.meta["n_steps"] > 100


def test_coupled_reference_on_a_compare_grid_matches_scipy():
    # 4 state components sampled on the 2048-point grid compare() uses
    case = catalog("coupled_cubic")
    assert_matches_scipy(case.direct_expansion(0.1), original_rhs(case), case.default_ics,
                         (0.0, 100.0), 1e-10, 1e-12, np.linspace(0.0, 100.0, 2048), 5e-10,
                         args=(0.1,))


def test_many_samples_per_step_match_scipy():
    # t0 included and about a hundred samples in every step
    case = catalog("cubic")
    traj = assert_matches_scipy(case.direct_expansion(0.1), original_rhs(case),
                                case.default_ics, (0.0, 20.0), 1e-10, 1e-12,
                                np.linspace(0.0, 20.0, 4097), 5e-11, args=(0.1,))
    assert traj.meta["n_steps"] < 4097 / 40


def test_shooting_profile_matches_scipy(monkeypatch):
    # the nonlinear layer's amplitude flow sampled on an n_grid 8192 mesh
    eps = 0.05
    sol = blayer.nonlinear_blayer_multiscale(eps)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return integrate_reference(*args, **kwargs)

    monkeypatch.setattr(blayer, "integrate_reference", recording)
    sol(np.linspace(0.0, 1.0, 8193))
    ((expand, y0, t_span), kwargs), = calls
    assert len(kwargs["t_eval"]) == 8193
    layer = blayer._layer_case(blayer._REACTION["nonlinear"][0])
    assert_matches_scipy(expand, amplitude_rhs(layer), y0, t_span, kwargs["rtol"],
                         kwargs["atol"], kwargs["t_eval"], 1e-10, args=(eps,))


def test_rtol_under_the_floor_matches_scipy():
    case = catalog("cubic")
    with pytest.warns(UserWarning):
        assert_matches_scipy(case.direct_expansion(0.1), original_rhs(case), case.default_ics,
                             (0.0, 20.0), 1e-16, 1e-16, np.linspace(0.0, 20.0, 201), 1e-12,
                             args=(0.1,))


def band_problem(eps, u0, kind):
    """(right-hand side, start) of the pseudospectral band flow of
    ``mspde._solve_direct`` as a first-order system for scipy's solve_ivp:
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
    ref = solve_with_scipy(rhs, z0, (0.0, 5.0), 1e-13, 1e-15, [0.0, 2.5, 5.0])
    run = mspde._solve_direct(0.1, u0, 5.0, kind, 1e-10, [0.0, 2.5, 5.0], 1e-12)
    band = len(z0) // 4
    for snap, z in zip(run.y, np.ascontiguousarray(ref.y.T)):
        assert np.max(np.abs(snap.u - np.fft.irfft(z.view(complex)[:band], n))) <= 1e-11


def square(y, order):
    """Taylor coefficients of y' = y^2 about y, by Cauchy products."""
    c = [y]
    for k in range(order):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)) / (k + 1))
    return np.array(c)


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
    with pytest.raises(SolverError, match="step size") as failure:
        integrate_reference(square, np.array([2.0]), (0.0, 1.0), 1e-10, 1e-12, t_eval=t_eval)
    t_fail = float(re.search(r"at t=(\S+):", str(failure.value)).group(1))
    assert abs(t_fail - stepper.t) <= 1e-9


def rotation(rate, complex_state):
    """Taylor coefficients of y' = rate y, on complex y or on its real-pair
    twin [Re y, Im y] with the same products: c_(k+1) = f c_k, f = rate/(k+1).
    The complex products are Python's, as in msode's expansions: numpy's
    round otherwise than the twin's real ones, on 13% of random elements."""

    def expand(y, order):
        c = [y]
        for k in range(order):
            f = rate / (k + 1)
            if complex_state:
                c.append(np.array([f * a for a in c[k].tolist()]))
            else:
                re, im = np.split(c[k], 2)
                c.append(np.concatenate([f.real * re - f.imag * im, f.real * im + f.imag * re]))
        return np.array(c)

    return expand


@pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 30.0, 257)])
def test_complex_state_steps_as_its_real_pair_twin(t_eval):
    # |c_k| and max|y| are read over the real and imaginary parts, which are
    # the twin's components, so every step and every sample bit agrees
    rate = -0.3 + 2j
    y0 = np.array([1.0 + 0.5j, -0.25 + 2.0j])
    flow = integrate_reference(rotation(rate, True), y0, (0.0, 30.0), 1e-10, 1e-12, t_eval)
    twin = integrate_reference(rotation(rate, False), np.concatenate([y0.real, y0.imag]),
                               (0.0, 30.0), 1e-10, 1e-12, t_eval)
    assert flow.y.dtype == complex and flow.meta["n_steps"] == twin.meta["n_steps"] > 10
    assert flow.y.real.tobytes() == np.ascontiguousarray(twin.y[:, :2]).tobytes()
    assert flow.y.imag.tobytes() == np.ascontiguousarray(twin.y[:, 2:]).tobytes()
    exact = y0 * np.exp(rate * flow.t)[:, None]
    assert np.max(np.abs(flow.y - exact)) <= 1e-9


def test_complex_state_keeps_the_sign_of_a_zero_part():
    # a complex product by the real step h reads (-0 - 0i) h as
    # (-0 h - (-0) 0) + ... = +0 + ..., where the real part alone stays -0
    def expand(y, order):
        return np.array([y] + [np.full_like(y, complex(-0.0, -0.0))] * order)

    traj = integrate_reference(expand, np.array([complex(-0.0, -1.0)]), (0.0, 1.0),
                               t_eval=[0.5, 1.0])
    assert np.signbit(traj.y.real).all() and (traj.y.imag == -1.0).all()


def test_python_complex_state_keeps_the_sign_of_a_zero_part():
    # the same on a state of Python numbers, stepped and sampled in floats
    def expand(y, order):
        return [[a] + [complex(-0.0, -0.0)] * order for a in y]

    traj = integrate_reference(expand, [complex(-0.0, -1.0)], (0.0, 1.0), t_eval=[0.5, 1.0])
    assert [math.copysign(1.0, a.real) for a, in traj.y] == [-1.0, -1.0]
    assert [a.imag for a, in traj.y] == [-1.0, -1.0]


def test_python_and_array_states_step_alike():
    # the two arithmetics make the same operations in the same order
    case = catalog("coupled_cubic")
    expand = case.direct_expansion(0.1)
    grid = np.linspace(0.0, 30.0, 513)
    floats = integrate_reference(expand, case.default_ics, (0.0, 30.0), t_eval=grid)
    arrays = integrate_reference(lambda y, order: np.array(expand(y.tolist(), order)).T,
                                 np.array(case.default_ics), (0.0, 30.0), t_eval=grid)
    assert floats.meta == arrays.meta and floats.meta["n_steps"] > 10
    assert np.asarray(floats.y).tobytes() == arrays.y.tobytes()


@pytest.mark.parametrize("bad", [complex(1.0, np.nan), complex(np.inf, 0.0)])
def test_complex_start_that_is_not_finite_is_refused(bad):
    with pytest.raises(ValueError, match="must be finite"):
        integrate_reference(rotation(1j, True), [1j, bad], (0.0, 1.0))


# (y0, t_eval, the message): one refused input each, given as lists
REFUSED = {
    "empty-y0": ([], None, "y0 must be a nonempty 1-dimensional array"),
    "2d-y0": ([[1.0, 2.0]], None, "y0 must be a nonempty 1-dimensional array"),
    "nonfinite-real-part": ([1.0, math.nan], None, "all components of y0 must be finite"),
    "nonfinite-complex-part": ([1j, complex(1.0, math.inf)], None,
                               "all components of y0 must be finite"),
    "2d-t_eval": ([1.0], [[0.5, 1.0]], "t_eval must be 1-dimensional"),
    "nonfinite-t_eval": ([1.0], [0.5, math.nan], "values in t_eval must be finite"),
    "t_eval-outside-t_span": ([1.0], [0.5, 2.0], "values in t_eval are not within t_span"),
    "t_eval-not-increasing": ([1.0], [0.7, 0.3], "values in t_eval must strictly increase"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_list_and_array_states_are_refused_alike(name):
    # one check reads both: each input given as a list with a list state and
    # as an array with an array state raises the same message, before any
    # expansion
    def expand(y, order):
        raise AssertionError("the series must not be expanded")

    y0, t_eval, message = REFUSED[name]
    messages = []
    for make in (list, np.array):
        with pytest.raises(ValueError) as refused:
            integrate_reference(expand, make(y0), (0.0, 1.0),
                                t_eval=None if t_eval is None else make(t_eval))
        messages.append(str(refused.value))
    assert messages == [message, message]


def loop_horner(row, s):
    """Horner's rule by the loop the generated sampling kernel replaced: the reference."""
    acc = row[-1]
    for c in row[-2::-1]:
        acc = acc * s + c
    return acc


@pytest.mark.parametrize("order", range(19))
def test_generated_horner_matches_the_loop_bit_for_bit(order):
    rng = random.Random(order)
    kernel = integrator._horner_kernel(order)
    for _ in range(50):
        row = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12) for _ in range(order + 1)]
        h = rng.uniform(1e-4, 3.0)
        offsets = [0.0, *sorted(rng.uniform(0.0, h) for _ in range(6)), h]  # 0, interior, end
        out = ["kept"]  # the kernel appends
        kernel(row, offsets, out)
        assert out[0] == "kept"
        assert [v.hex() for v in out[1:]] == [loop_horner(row, s).hex() for s in offsets]


def python_rotation(rate):
    """Taylor coefficients of y' = rate y, for a state of Python numbers."""

    def expand(y, order):
        rows = [[a] for a in y]
        for row in rows:
            for k in range(order):
                row.append(rate * row[-1] / (k + 1))
        return rows

    return expand


LEADING = {
    # the direct solve of a coupled system: positions, then velocities
    "real": (catalog("coupled_cubic").direct_expansion(0.1), [1.2, -0.6, 0.0, 0.3], 2),
    "complex": (python_rotation(-0.3 + 2j), [1.0 + 0.5j, -0.25 + 2.0j, 0.5 - 1j], 1),
}


@pytest.mark.parametrize("state", ["list", "array"])
@pytest.mark.parametrize("kind", sorted(LEADING))
def test_leading_components_sample_as_in_the_full_solve(kind, state):
    expand, y0, n = LEADING[kind]
    if state == "array":
        y0 = np.array(y0)
        expand = (lambda python: lambda y, order: np.array(python(y.tolist(), order)).T)(expand)
    grid = np.linspace(0.0, 30.0, 257)  # t0, several samples per step, and t_bound
    full = integrate_reference(expand, y0, (0.0, 30.0), t_eval=grid)
    part = integrate_reference(expand, y0, (0.0, 30.0), t_eval=grid, components=n)
    assert part.meta == full.meta and part.meta["n_steps"] > 10
    if state == "list":
        assert repr(part.y) == repr([sample[:n] for sample in full.y])
    else:
        assert part.y.dtype == full.y.dtype
        assert part.y.tobytes() == np.ascontiguousarray(full.y[:, :n]).tobytes()


@pytest.mark.parametrize("components", [0, 5])
def test_components_beyond_the_state_are_refused(components):
    with pytest.raises(ValueError, match="components must be in 1..4"):
        integrate_reference(catalog("coupled_cubic").direct_expansion(0.1), [1.2, -0.6, 0.0, 0.3],
                            (0.0, 1.0), components=components)
