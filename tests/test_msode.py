import copy
import dataclasses
import math

import numpy as np
import pytest
import sympy

import asymptotica
from asymptotica import blayer, msode
from asymptotica.msode import (
    RunReport,
    SolverError,
    Trajectory,
    catalog,
    compare,
    coupled_cubic_frequencies,
    fit_initial_amplitudes,
    integrate_amplitude,
    integrate_reference,
    naive_damped_expansion,
    reconstruct_on_grid,
    resolve_horizon,
)
from test_integrator_oracle import solve_with_scipy, square


def decay(y, order):
    """Taylor coefficients of y' = -y about y."""
    c = [y]
    for k in range(order):
        c.append(-c[-1] / (k + 1))
    return np.array(c)


def test_linear_test_equation():
    rtol = 1e-9
    traj = integrate_reference(decay, [1.0], (0.0, 1.0), rtol, 1e-12, t_eval=[1.0])
    assert abs(traj.y[-1, 0] - np.exp(-1.0)) < 10 * rtol


def test_reference_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        integrate_reference(decay, [1.0], (0.0, 1.0), rtol=0.0)


def test_rtol_under_the_floor_is_raised_to_it():
    with pytest.warns(UserWarning, match="too small"):
        traj = integrate_reference(decay, [1.0], (0.0, 20.0), 1e-16, 1e-16)
    assert traj.meta["order"] == 18
    assert abs(traj.y[-1, 0] - np.exp(-20.0)) <= 1e-15


def test_reference_failure_reports_diagnostics():
    # finite-time blow-up of y' = y^2 forces the step size under the floor
    with pytest.raises(SolverError):
        integrate_reference(square, [2.0], (0.0, 1.0), 1e-10, 1e-12)


def test_solver_error_is_the_package_class():
    # the CLI catches it without importing msode
    assert SolverError is asymptotica.SolverError


def test_reference_failure_raises_with_t_eval():
    # every library caller samples at t_eval; the blow-up at t = 1/2 must
    # still raise, not return the samples reached before it
    with pytest.raises(SolverError, match="step size"):
        integrate_reference(square, [2.0], (0.0, 1.0), 1e-10, 1e-12,
                            t_eval=np.linspace(0.0, 1.0, 5))


def test_reference_meta_records_settings_and_work():
    traj = integrate_reference(decay, [1.0], (0.0, 1.0), 1e-9, 1e-12, t_eval=[0.5, 1.0])
    assert set(traj.meta) == {"nfev", "rtol", "atol", "n_steps", "n_dense", "order"}
    assert traj.meta["rtol"] == 1e-9 and traj.meta["order"] == 16
    assert traj.meta["nfev"] == traj.meta["n_steps"] * traj.meta["order"] > 0


def test_reference_step_counters_account_for_every_evaluation():
    # one expansion of the order's size per step; without t_eval only the
    # last step covers a sample, the end point
    expand = catalog("cubic").direct_expansion(0.1)
    traj = integrate_reference(expand, (1.0, 0.0), (0.0, 20.0), 1e-10, 1e-12)
    meta = traj.meta
    assert meta["n_steps"] > 1 and meta["n_dense"] == 1
    assert meta["nfev"] == meta["n_steps"] * meta["order"]
    assert traj.t.tolist() == [20.0]
    sampled = integrate_reference(expand, (1.0, 0.0), (0.0, 20.0), 1e-10, 1e-12,
                                  t_eval=[5.0, 5.0 + 1e-9, 20.0]).meta
    assert sampled["n_steps"] == meta["n_steps"] and sampled["n_dense"] == 2
    assert sampled["nfev"] == meta["nfev"]


@pytest.mark.parametrize("t_span, t_eval", [
    ((0.0, np.inf), None),
    ((np.nan, 1.0), None),
    ((0.0, 1.0), [0.5, np.nan]),
    ((0.0, 1.0), [np.nan]),
])
def test_reference_rejects_non_finite_times_before_any_evaluation(t_span, t_eval):
    # an infinite span would step forever; a NaN sample used to fail only
    # after the whole span was integrated
    def expand(y, order):
        raise AssertionError("the series must not be expanded")

    with pytest.raises(ValueError, match="finite"):
        integrate_reference(expand, [1.0], t_span, t_eval=t_eval)


def test_damped_linear_reference_matches_table():
    # frozen reference values of the weakly damped oscillator at eps = 0.01
    case = catalog("damped_linear")
    traj = integrate_reference(
        case.direct_expansion(0.01), (1.0, 0.0), (0.0, 400.0), 1e-9, 1e-11,
        t_eval=[4.0, 40.0, 400.0],
    )
    assert traj.y[:, 0] == pytest.approx([-0.6444, -0.5426, -0.0722], abs=5e-4)


def test_cubic_energy_invariant():
    # E = y'^2/2 + y^2/2 - eps y^4/4 is exactly conserved by the flow
    case = catalog("cubic")
    eps, rtol = 0.1, 1e-10
    traj = integrate_reference(
        case.direct_expansion(eps), (1.0, 0.0), (0.0, 100.0), rtol, 1e-13,
        t_eval=np.linspace(0.0, 100.0, 256),
    )
    y, v = traj.y[:, 0], traj.y[:, 1]
    energy = 0.5 * v**2 + 0.5 * y**2 - 0.25 * eps * y**4
    assert np.max(np.abs(energy - energy[0])) <= 100 * rtol


def test_catalog_unknown_case():
    with pytest.raises(KeyError, match="damped_linear"):
        catalog("no_such_case")


def test_damped_linear_exact_initial_value():
    case = catalog("damped_linear")
    assert case.exact(0.0, 0.01)[0] == pytest.approx(1.0, abs=1e-14)


def test_cubic_amplitude_rhs_preserves_modulus():
    # dA/dt = i * (real) * A, so Re(conj(A) dA) = 0 identically
    case = catalog("cubic")
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal() + 1j * rng.normal()
        da = case.amplitude_rhs(0.0, np.array([a]), 0.1)[0]
        assert abs(np.real(np.conj(a) * da)) < 1e-15 * max(1.0, abs(a) ** 6)


def test_coupled_reconstruct_zero_amplitudes():
    case = catalog("coupled_cubic")
    vals = case.reconstruct(0.0, np.array([0.0 + 0j, 0.0 + 0j]), 0.1)
    assert vals == pytest.approx([0.0, 0.0])


def test_amplitude_closed_form_agreement():
    # integrated damped_linear amplitude matches A0 e^{-eps t/2 - i eps^2 t/8}
    case = catalog("damped_linear")
    eps = 0.05
    grid = np.linspace(0.0, 100.0, 64)
    traj = integrate_amplitude(case, [0.5 + 0j], (0.0, 100.0), eps, t_eval=grid)
    closed = 0.5 * np.exp((-0.5 * eps - 0.125j * eps**2) * grid)
    assert np.max(np.abs(traj.y[:, 0] - closed)) < 1e-9


def test_zero_eps_amplitudes_constant():
    for name in ("damped_linear", "cubic", "quadratic_damped", "coupled_cubic"):
        case = catalog(name)
        amps0 = np.full(case.n_amplitudes, 0.4 + 0.0j)
        traj = integrate_amplitude(case, amps0, (0.0, 50.0), 0.0,
                                   t_eval=np.linspace(0.0, 50.0, 16))
        assert np.max(np.abs(traj.y - amps0)) < 1e-12


def test_coupled_moduli_conserved():
    case = catalog("coupled_cubic")
    eps, rtol = 0.1, 1e-10
    amps0 = np.array([0.3 + 0j, 0.3 + 0j])
    traj = integrate_amplitude(
        case, amps0, (0.0, eps**-2), eps, rtol=rtol, atol=1e-13,
        t_eval=np.linspace(0.0, eps**-2, 128),
    )
    assert np.max(np.abs(np.abs(traj.y) - 0.3)) <= 1e-10


def test_coupled_closed_form_agreement():
    # every case with a closed form, not only the coupled one
    eps, rtol = 0.1, 1e-10
    grid = np.linspace(0.0, eps**-2, 64)
    checked = []
    for name in msode.case_names():
        case = catalog(name)
        amps0 = np.array([0.3 + 0.1j, 0.2 - 0.25j])[: case.n_amplitudes]
        try:
            closed = case.amplitude_closed_form(grid, amps0, eps)
        except ValueError:  # the case declares no closed form
            continue
        integrated = integrate_amplitude(case, amps0, (0.0, eps**-2), eps,
                                         rtol=rtol, atol=1e-13, t_eval=grid)
        assert np.max(np.abs(integrated.y - closed)) <= 100 * rtol, name
        checked.append(name)
    assert {"damped_linear", "cubic", "coupled_cubic"} <= set(checked)


def test_cubic_moduli_conserved():
    case = catalog("cubic")
    eps, rtol = 0.1, 1e-10
    traj = integrate_amplitude(
        case, [0.5 + 0j], (0.0, eps**-2), eps, rtol=rtol, atol=1e-13,
        t_eval=np.linspace(0.0, eps**-2, 128),
    )
    assert np.max(np.abs(np.abs(traj.y) - 0.5)) <= 1e-10


@pytest.mark.parametrize(
    "name,eps",
    [
        ("damped_linear", 0.0),
        ("cubic", 0.0),
        ("cubic", 0.1),
        ("quadratic_damped", 0.02),
    ],
)
def test_fit_reproduces_initial_conditions(name, eps):
    case = catalog(name)
    amps = fit_initial_amplitudes(case, (1.0, 0.0), eps)
    if eps == 0.0 and name != "quadratic_damped":
        assert amps[0] == pytest.approx(0.5)
    vals = np.squeeze(case.reconstruct(0.0, amps, eps))
    ders = np.squeeze(case.reconstruct_dt(0.0, amps, eps))
    assert abs(vals - 1.0) < 1e-12 and abs(ders) < 1e-12


@pytest.mark.parametrize("name", msode.case_names())
def test_reconstruct_dt_matches_finite_difference(name):
    # reconstruct_dt along an integrated amplitude trajectory against a
    # centered difference of reconstruct; the difference is second order,
    # so halving h cuts the gap by about four
    case = catalog(name)
    eps, t0 = 0.02, 3.0
    amps0 = fit_initial_amplitudes(case, case.default_ics, eps)
    errors = []
    for h in (2e-2, 1e-2):
        traj = integrate_amplitude(case, amps0, (0.0, t0 + h), eps, rtol=1e-12,
                                   atol=1e-14, t_eval=[t0 - h, t0, t0 + h])
        y = reconstruct_on_grid(case, traj, eps)
        fd = (y[:, 2] - y[:, 0]) / (2.0 * h)
        errors.append(np.max(np.abs(fd - case.reconstruct_dt(t0, traj.y[1], eps))))
    assert errors[1] <= errors[0] / 3.0
    assert errors[1] <= 1e-4


# (rate_conserved, validity_exponent, real_amplitudes); the last two were
# declared fields before they were derived, with these values
DERIVED = {"damped_linear": (True, 3, False), "cubic": (True, 3, False),
           "quadratic_damped": (False, 3, True), "coupled_cubic": (True, 2, False)}


@pytest.mark.parametrize("name", msode.case_names())
def test_derived_sizes_agree_with_the_declaration(name):
    case = catalog(name)
    state = case.original_rhs(0.0, np.asarray(case.default_ics), 0.1)
    assert len(state) == case.state_dim == 2 * case.n_components
    amps = np.full(case.n_amplitudes, 0.3 + 0.1j)
    if case.real_amplitudes:
        amps = amps.real
    assert np.shape(case.reconstruct(0.0, amps, 0.1))[0] == case.n_components
    assert len(case.rate(amps, 0.1)) == case.n_amplitudes
    # the declared modes are the eps^0 carrier rows, each of one amplitude;
    # every carrier holds powers over A, then over conj(A)
    assert case.carrier_terms[:len(case.modes)] == case.modes
    n = case.n_amplitudes
    assert all(p == 0 and sum(powers[:n]) == 1 and not any(powers[n:])
               for _, _, p, powers, _ in case.modes)
    for comp, _, _, powers, _ in case.carrier_terms:
        assert len(powers) == 2 * n and min(powers) >= 0
        assert 0 <= comp < case.n_components
    for rows, n_outputs, n_exponents in (
        (case.accelerations, case.n_components, case.state_dim),
        (case.rate_terms, case.n_amplitudes, case.n_amplitudes),
    ):
        for out, _, p, powers in rows:
            assert 0 <= out < n_outputs and p >= 0
            assert len(powers) == n_exponents and min(powers) >= 0
    derived = (case.rate_conserved, case.validity_exponent, case.real_amplitudes)
    assert derived == DERIVED[name]
    assert all(type(value) is type(want) for value, want in zip(derived, DERIVED[name]))


def planted(case, rate_terms=None, carrier_terms=None):
    """A copy of the case with the given rows in place of its derived ones."""
    return copy.copy(case)._set_tables(
        case.rate_terms if rate_terms is None else rate_terms,
        case.carrier_terms if carrier_terms is None else carrier_terms)


# The per-case functions the tables replaced, kept verbatim as the oracle.
def _damped_linear_rhs(t, s, eps):
    y, v = s
    return np.array([v, -y - eps * v])


def _damped_linear_rate(a, eps, terms):
    return (-0.5 * eps - (0.125j * eps * eps if terms >= 2 else 0.0),)


def _cubic_rhs(t, s, eps):
    y, v = s
    return np.array([v, -y + eps * y**3])


def _cubic_rate(a, eps, terms):
    mod2 = np.abs(a[0]) ** 2
    return (-1.5j * eps * mod2 - (0.9375j * eps * eps * mod2**2 if terms >= 2 else 0.0),)


def _quadratic_rhs(t, s, eps):
    y, v = s
    return np.array([v, -v - eps * y**2])


def _quadratic_rate(ab, eps, terms):
    a = ab[0]
    second = 2.0 * eps * eps * a**2 if terms >= 2 else 0.0
    return (-eps * a - second, 2.0 * eps * a + second)


def _coupled_rhs(t, s, eps):
    x, y, vx, vy = s
    return np.array(
        [vx, vy, -2.0 * x + y + eps * x * y**2, -3.0 * y + 2.0 * x + eps * y * x**2]
    )


def _coupled_rate(ab, eps, terms):
    ma, mb = np.abs(ab[0]) ** 2, np.abs(ab[1]) ** 2
    return (0.5j * eps * (3.0 * ma - 2.0 * mb), 0.5j * eps * (3.0 * mb - ma))


ORACLES = {
    "damped_linear": (_damped_linear_rhs, _damped_linear_rate),
    "cubic": (_cubic_rhs, _cubic_rate),
    "quadratic_damped": (_quadratic_rhs, _quadratic_rate),
    "coupled_cubic": (_coupled_rhs, _coupled_rate),
}


def _moduli_rhs(case, state, eps):
    """original_rhs with every coefficient and state entry replaced by its modulus."""
    rows = tuple((k, abs(c), p, n) for k, c, p, n in case.accelerations)
    x = list(np.abs(state)) + [eps]
    return np.array(x[case.n_components:-1]
                    + msode._evaluate(msode._group_rows(rows, case.n_components), x))


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_tables_reproduce_the_hand_written_functions(name):
    # the derived rate rows against the functions they replaced, bit for bit
    # where the rows multiply in the functions' order; coupled_cubic factors
    # its rate as 0.5i eps (3|A|^2 - 2|B|^2) and multiplies eps y x^2, so there
    # the gap is held to a few ulp of the sum of the terms' moduli
    case = catalog(name)
    rhs, rate = ORACLES[name]
    moduli = planted(case, rate_terms=tuple((k, abs(c), p, n) for k, c, p, n in case.rate_terms))
    rng = np.random.default_rng(11)
    for _ in range(2000):
        eps = rng.uniform(0.0, 0.3)
        state = rng.normal(size=case.state_dim) * rng.choice([1e-3, 1.0, 10.0])
        amps = rng.normal(size=case.n_amplitudes)
        if not case.real_amplitudes:
            amps = amps + 1j * rng.normal(size=case.n_amplitudes)
        pairs = [(case.original_rhs(0.0, state, eps), rhs(0.0, state, eps),
                  _moduli_rhs(case, state, eps))]
        for terms in (1, 2):
            pairs.append((np.asarray(case.truncated(terms).rate(amps, eps)),
                          np.asarray(rate(amps, eps, terms)),
                          np.abs(moduli.truncated(terms).rate(np.abs(amps), eps))))
        for derived, reference, scale in pairs:
            if name == "coupled_cubic":
                assert np.all(np.abs(derived - reference) <= 4 * np.spacing(scale))
            else:
                assert np.array_equal(derived, reference)


def _carrier_exponent_faults(case):
    """The carrier exponents the equation does not fix.  With M0 and C0 read off
    the eps^0 acceleration rows, so that x'' = M0 x + C0 x' at eps = 0, each
    amplitude's own exponent lam_j (its unit-power carrier) must be a mode,
    det(lam_j^2 I - M0 - lam_j C0) = 0, and every carrier's lam must be
    sum_j n_j lam_j over the powers of A, then of conj(A) at conj(lam_j)."""
    n = case.n_components
    m0, c0 = np.zeros((n, n)), np.zeros((n, n))
    for comp, coef, p, powers in case.accelerations:
        if p == 0:  # the eps^0 equation is linear
            assert sum(powers) == 1
            (i,) = np.flatnonzero(powers)
            (m0 if i < n else c0)[comp, i % n] += coef
    own = {int(np.flatnonzero(powers)[0]): lam
           for *_, powers, lam in case.carrier_terms if sum(powers) == 1}
    faults = [lam for lam in own.values()
              if np.linalg.det(lam**2 * np.eye(n) - m0 - lam * c0) != 0]
    lams = [own[j] for j in range(case.n_amplitudes)]
    lams += [np.conj(lam) for lam in lams]
    return faults + [row for row in case.carrier_terms
                     if row[4] != sum(k * lam for k, lam in zip(row[3], lams))]


@pytest.mark.parametrize("name", msode.case_names())
def test_carrier_exponents_follow_from_the_equation(name):
    # real_amplitudes is read from these exponents, so they are pinned here
    assert _carrier_exponent_faults(catalog(name)) == []


@pytest.mark.parametrize("name, typed, meant", [
    ("cubic", 2j, 3j),  # a correction harmonic that is not 3 times the mode's
    ("quadratic_damped", -0.5, -1.0),  # a decay rate that is not the mode's
])
def test_carrier_exponent_typos_are_caught(name, typed, meant):
    # planted into the carrier rows; a typo in a declared mode does not
    # declare at all, since the derivation finds no mode there
    case = catalog(name)
    rows = tuple(row[:4] + (typed,) if row[4] == meant else row for row in case.carrier_terms)
    assert rows != case.carrier_terms
    assert _carrier_exponent_faults(planted(case, carrier_terms=rows))
    modes = rows[:len(case.modes)]
    if modes != case.modes:
        with pytest.raises(ValueError, match=f"case {name}: carrier exponent .* is not a mode"):
            dataclasses.replace(case, modes=modes)


# quadratic_damped's 2 eps^2 A^2 B does not move the error at t = 1/eps^2:
# dropping it gives 0.7 times the intact error, so
# test_amplitude_equations_follow_from_the_equation pins it.
INVISIBLE_RATE_ROWS = {("quadratic_damped", (1, 2.0, 2, (2, 0)))}


@pytest.mark.parametrize("name, eps", [
    ("damped_linear", 0.1), ("cubic", 0.1),
    # at eps 0.05 the quadratic fit reaches its fold
    ("quadratic_damped", 0.02), ("coupled_cubic", 0.1),
])
def test_dropping_a_rate_row_fails_the_comparison(name, eps):
    case = catalog(name)
    intact = compare(case, eps, 2).max_abs_error
    for k, row in enumerate(case.rate_terms):
        if (name, row) in INVISIBLE_RATE_ROWS:
            continue
        flow = planted(case, rate_terms=case.rate_terms[:k] + case.rate_terms[k + 1:])
        assert compare(flow, eps, 2).max_abs_error >= 2.0 * intact, row
    # the correction carriers too; the eps^0 ones are the modes themselves,
    # and without one the initial-amplitude fit is singular
    for k, row in enumerate(case.carrier_terms):
        if row[2] >= 1:
            flow = planted(case, carrier_terms=case.carrier_terms[:k] + case.carrier_terms[k + 1:])
            assert compare(flow, eps, 2).max_abs_error >= 2.0 * intact, row


EPS, Z = sympy.symbols("eps z")


def sympy_multiple_scales(accel, shapes, steps, mu, order, lin, slope, real):
    """Multiple scales for x'' = accel(x, x', eps), derived in sympy.

    Amplitude j rides z^steps[j], with z = e^{mu t}, and its mode shape is
    shapes[j], the field's coefficient of A_j; a complex amplitude's
    conjugate is B_j.  lin(h) and slope(h) are L and L' at the exponent
    h mu.  Each order takes the residual of the equation with the carrier
    and the rate of that order still zero: a power z^h of a mode goes into
    that mode's rate, through the left null vector of L, its conjugate
    power is left to the conjugate rate, and any other power goes into the
    carrier through L^-1.  Returns the rates (dA_j/dt = rate_j A_j) through
    eps^order, the field through eps^(order - 1) and, per order and mode,
    the resonant forcing over A_j, before the division by L'.
    """
    n, nc = len(shapes), len(shapes[0])
    amps, bars = sympy.symbols(f"A0:{n}"), sympy.symbols(f"B0:{n}")
    swap = {**dict(zip(amps, bars)), **dict(zip(bars, amps)), Z: 1 / Z, sympy.I: -sympy.I}

    def conj(expr):
        return expr if real else expr.xreplace(swap)

    rates = [sympy.Integer(0)] * n

    def ddt(f):
        out = mu * Z * f.diff(Z)
        for j in range(n):
            out += rates[j] * amps[j] * f.diff(amps[j])
            if not real:
                out += conj(rates[j]) * bars[j] * f.diff(bars[j])
        return out

    x = [sum(shape[i] * a * Z**s for shape, a, s in zip(shapes, amps, steps)) for i in range(nc)]
    x = [xi + conj(xi) for xi in x] if not real else x
    forcing = {}
    for top in range(1, order + 1):
        v = [ddt(xi) for xi in x]
        residual = [sympy.expand(a - ddt(vi)).coeff(EPS, top)
                    for a, vi in zip(accel(x, v, EPS), v)]
        harmonics = {}
        for i, r in enumerate(residual):
            for term in sympy.Add.make_args(r):
                c, h = term.as_coeff_exponent(Z)
                harmonics.setdefault(h, [0] * nc)[i] += c
        new_rates, correction = [0] * n, [0] * nc
        for h, vec in harmonics.items():
            vec = sympy.Matrix(vec)
            if vec.is_zero_matrix or (not real and -h in steps):
                continue
            if h in steps:
                j = steps.index(h)
                psi = lin(h).T.nullspace()[0].T
                shape = sympy.Matrix(shapes[j])
                forcing[top, j] = sympy.expand(sympy.cancel((psi * vec)[0] / (psi * shape)[0] / amps[j]))
                new_rates[j] = forcing[top, j] * (psi * shape)[0] / (psi * slope(h) * shape)[0]
            elif top < order:
                carrier = lin(h).LUsolve(vec)
                correction = [c + carrier[i] * Z**h for i, c in enumerate(correction)]
        rates = [r + EPS**top * sympy.expand(q) for r, q in zip(rates, new_rates)]
        x = [xi + EPS**top * c for xi, c in zip(x, correction)]
    return rates, [sympy.expand(xi) for xi in x], forcing


def _exact(c):
    c = complex(c)
    return sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag)


def _ode_oracle(case, accel):
    """The oracle's rates and field for ``case`` and the catalog's, as sympy
    expressions in eps, z = e^{mu t}, A_j and B_j = conj(A_j)."""
    n, nc = case.n_amplitudes, case.n_components
    lams = {powers.index(1): complex(lam) for *_, powers, lam in case.modes}
    mu = next(_exact(lam) for lam in lams.values() if lam)
    steps = [int(sympy.nsimplify(_exact(lams[j]) / mu)) for j in range(n)]
    shapes = [[0] * nc for _ in range(n)]
    for comp, coef, _, powers, _ in case.modes:
        shapes[powers.index(1)][comp] += _exact(coef) * (2 if case.real_amplitudes else 1)
    xs, vs = sympy.symbols(f"x0:{nc}"), sympy.symbols(f"v0:{nc}")
    at_rest = {**dict.fromkeys(xs + vs, 0), EPS: 0}
    linear = accel(xs, vs, EPS)
    k = -sympy.Matrix(linear).jacobian(xs).subs(at_rest)
    c = -sympy.Matrix(linear).jacobian(vs).subs(at_rest)
    eye = sympy.eye(nc)
    rates, field, _ = sympy_multiple_scales(
        accel, shapes, steps, mu, case.order, lambda h: (h * mu) ** 2 * eye + h * mu * c + k,
        lambda h: 2 * h * mu * eye + c, case.real_amplitudes)
    amps, bars = sympy.symbols(f"A0:{n}"), sympy.symbols(f"B0:{n}")
    reads = amps if case.real_amplitudes else [a * b for a, b in zip(amps, bars)]
    declared = [sympy.expand(sum(_exact(coef) * EPS**p * sympy.prod(r**m for r, m in zip(reads, powers))
                                 for out, coef, p, powers in case.rate_terms if out == j))
                for j in range(n)]
    half = [0] * nc
    for comp, coef, p, powers, lam in case.carrier_terms:  # powers over A, then conj(A)
        h = int(sympy.nsimplify(_exact(lam) / mu))
        half[comp] += (_exact(coef) * EPS**p * Z**h
                       * sympy.prod(a**m for a, m in zip(amps + bars, powers)))
    conj = {**dict(zip(amps, bars)), **dict(zip(bars, amps)), Z: 1 / Z, sympy.I: -sympy.I}
    carried = [sympy.expand(2 * s if case.real_amplitudes else s + s.xreplace(conj)) for s in half]
    return (rates, field), (declared, carried)


def _accel_of_rows(rows):
    def accel(x, v, eps):
        state = list(x) + list(v)
        out = [0] * (len(state) // 2)
        for comp, coef, p, powers in rows:
            out[comp] += _exact(coef) * eps**p * sympy.prod(s**m for s, m in zip(state, powers))
        return out
    return accel


def _same_float(value, exact):
    """value is exact when exact is dyadic, and within one ulp of it otherwise."""
    if exact.q & (exact.q - 1) == 0:
        return sympy.Rational(value) == exact
    return abs(sympy.Rational(value) - exact) <= sympy.Rational(math.ulp(value))


def _mismatches(exact, declared):
    """The monomials (an i among their factors) whose coefficient in
    ``declared``, built from float rows, is not ``exact``'s by
    :func:`_same_float`."""
    a, b = (sympy.expand(e).as_coefficients_dict() for e in (exact, declared))
    return [m for m in a.keys() | b.keys()
            if not _same_float(float(b.get(m, 0)), sympy.Rational(a.get(m, 0)))]


VAN_DER_POL = msode.CaseSpec(
    name="van_der_pol",
    default_ics=(1.0, 0.0),
    # y'' = -y + eps y' - eps y^2 y'
    accelerations=((0, -1.0, 0, (1, 0)), (0, 1.0, 1, (0, 1)), (0, -1.0, 1, (2, 1))),
    modes=((0, 1.0, 0, (1, 0), 1j),),
    order=2,
)

# Declared past the orders the catalog ships; their carriers hold conj(A)
# powers: cubic's and Van der Pol's at eps^2, the quadratic oscillator's
# 2|A|^2 at eps^1.
BEYOND = {
    "cubic_order_3": lambda: dataclasses.replace(catalog("cubic"), order=3),
    "van_der_pol_order_3": lambda: dataclasses.replace(VAN_DER_POL, order=3),
    # y'' + y + eps y^2 = 0 (Landau & Lifshitz, Mechanics, section 28)
    "quadratic_oscillator": lambda: msode.CaseSpec(
        "quadratic_oscillator", (1.0, 0.0), ((0, -1.0, 0, (1, 0)), (0, -1.0, 1, (2, 0))),
        ((0, 1.0, 0, (1, 0), 1j),)),
}


@pytest.mark.parametrize("name", msode.case_names() + ["nonlinear_layer", *BEYOND])
def test_amplitude_equations_follow_from_the_equation(name):
    # the rates through eps^order and the carriers through eps^(order - 1),
    # derived here in sympy from the equation alone, against the rows the
    # catalog derives in floats: exactly where the value is dyadic, and to
    # one ulp where it is not (the quadratic oscillator's thirds).
    # The nonlinear layer's equation comes from its f row, u'' = -u' - eps f(u).
    if name == "nonlinear_layer":
        f = blayer._REACTION["nonlinear"][0]
        case = blayer._layer_case(f)

        def accel(x, v, eps):
            return [-v[0] - eps * sum(sympy.Rational(c) * x[0] ** i for i, c in enumerate(f))]
    else:
        case = BEYOND[name]() if name in BEYOND else catalog(name)
        accel = _accel_of_rows(case.accelerations)
    (rates, field), (declared, carried) = _ode_oracle(case, accel)
    assert [_mismatches(r, d) for r, d in zip(rates, declared)] == [[]] * case.n_amplitudes
    assert [_mismatches(f, c) for f, c in zip(field, carried)] == [[]] * case.n_components


def test_van_der_pol_rates_are_derived_from_its_declaration():
    # y'' + y = eps (1 - y^2) y': dA/dt = (eps/2)(1 - |A|^2) A, so the limit
    # cycle has |A| = 1, amplitude 2; at eps^2 the rate there is the known
    # frequency shift -i/16 (Nayfeh, Perturbation Methods, 1973, ch. 4)
    rows = VAN_DER_POL.rate_terms
    assert [row for row in rows if row[2] == 1] == [(0, 0.5, 1, (0,)), (0, -0.5, 1, (1,))]
    second = [complex(c) for _, c, p, _ in rows if p == 2]
    assert sum(second) == -1j / 16
    assert all(c.real == 0 for c in second)
    (oracle, _), (declared, _) = _ode_oracle(VAN_DER_POL, _accel_of_rows(VAN_DER_POL.accelerations))
    assert sympy.expand(oracle[0] - declared[0]) == 0


def test_quadratic_oscillator_frequency_shift():
    # y'' + y + eps y^2 = 0 turns at 1 - (5/12) eps^2 a^2 at amplitude
    # a = 2|A| (Landau & Lifshitz, Mechanics, section 28): the rate is
    # -(5/3) i eps^2 |A|^2, with nothing at eps^1
    ((j, coef, p, powers),) = BEYOND["quadratic_oscillator"]().rate_terms
    assert (j, p, powers) == (0, 2, (1,))
    assert complex(coef) == -5j / 3


@pytest.mark.parametrize("name", ["cubic_order_3", "van_der_pol_order_3"])
def test_third_order_declarations_converge_at_third_order(name):
    # rates through eps^3 and carriers through eps^2 leave a gap of eps^3 to
    # t = 1/eps; at order 2 the same cases fall at a slope of about 2
    case = BEYOND[name]()
    errors = [compare(case, eps, 1, rtol=1e-12, atol=1e-14, terms=3).max_abs_error
              for eps in (0.1, 0.05, 0.025)]
    slopes = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all(slopes >= 2.8), slopes


def test_resonance_off_the_rate_form_is_refused():
    # x'' + x = eps y^2, y'' + y/4 = 0: y's carrier e^{it/2} squared is x's
    # own e^{it}, so B^2 forces x's mode, and B^2 is not A times a rate
    with pytest.raises(ValueError, match="case one_to_two: resonant term .* is not of rate form"):
        msode.CaseSpec("one_to_two", (1.0, 1.0, 0.0, 0.0),
                       ((0, -1.0, 0, (1, 0, 0, 0)), (0, 1.0, 1, (0, 2, 0, 0)),
                        (1, -0.25, 0, (0, 1, 0, 0))),
                       modes=((0, 1.0, 0, (1, 0, 0, 0), 1j), (1, 1.0, 0, (0, 1, 0, 0), 0.5j)),
                       order=1)


def test_coupled_system_past_first_order_is_refused():
    # at eps^1 the forcing on a mode's exponent has a part off the mode
    # shape, and no carrier is solved for it
    with pytest.raises(ValueError,
                       match=r"case coupled_cubic: resonant term .* below eps\^2 of a coupled system"):
        dataclasses.replace(catalog("coupled_cubic"), order=2)


def test_fit_coupled_roundtrip():
    case = catalog("coupled_cubic")
    ics = case.default_ics
    amps = fit_initial_amplitudes(case, ics, 0.1)
    vals = case.reconstruct(0.0, amps, 0.1)
    ders = case.reconstruct_dt(0.0, amps, 0.1)
    assert np.concatenate([vals, ders]) == pytest.approx(ics, abs=1e-12)


def test_fit_raises_when_ansatz_cannot_match():
    # the quadratic case's fit folds for steep initial slopes at large eps
    case = catalog("quadratic_damped")
    with pytest.raises(SolverError):
        fit_initial_amplitudes(case, (1.0, 1.0), 0.2)


def test_naive_expansion_values():
    t = np.array([4.0, 40.0, 400.0])
    assert naive_damped_expansion(t, 0.01) == pytest.approx(
        [-0.6367, -0.5372, 0.5295], abs=5e-4
    )
    assert naive_damped_expansion(t, 0.0) == pytest.approx(np.cos(t))


def test_naive_expansion_breakdown():
    # error at t = 1/eps dwarfs the error at t = 1
    eps = 0.01
    case = catalog("damped_linear")
    err = {
        t: abs(naive_damped_expansion(t, eps) - case.exact(t, eps)[0])
        for t in (1.0, 1.0 / eps)
    }
    assert err[1.0 / eps] >= 10.0 * err[1.0]


def test_compare_damped_linear_vs_exact():
    case = catalog("damped_linear")
    errs = {}
    for eps in (0.01, 0.005):
        report = compare(case, eps, 2)
        errs[eps] = report.stats["max_abs_error_vs_exact"]
        assert errs[eps] <= 5e-3
        # pins the accuracy of the reference solve itself
        assert report.stats["max_abs_error_direct_vs_exact"] <= 5e-9
    assert errs[0.01] / errs[0.005] >= 6.0


def test_direct_solve_is_far_below_the_gap_it_checks():
    # at eps 0.005 over t <= eps^-2 the DOP853 reference was off by 1.09e-9,
    # more than the asymptotic error of 7.0e-10 it was meant to expose
    report = compare(catalog("damped_linear"), 0.005, 2)
    stats = report.stats
    assert stats["max_abs_error_direct_vs_exact"] <= 0.05 * stats["max_abs_error_vs_exact"]


# the workload horizons: eps^-2 or eps^-3, or one explicit horizon per sweep
WORKLOAD_RUNS = [
    ("damped_linear", 0.035, 2, None, None),
    ("damped_linear", 0.05, None, 25.0, None),
    ("cubic", 0.15, 3, None, None),
    ("cubic", 0.1, None, 20.0, None),
    ("coupled_cubic", 0.095, 2, None, None),
    ("coupled_cubic", 0.05, 2, None, None),
    ("quadratic_damped", 0.002, None, 300.0, (1.0, 0.0)),
    ("quadratic_damped", 0.05, None, 300.0, (1.0, 0.0)),
]


@pytest.mark.parametrize("name, eps, horizon_exponent, horizon, ics", WORKLOAD_RUNS)
def test_taylor_direct_solve_matches_a_tight_dop853(name, eps, horizon_exponent, horizon, ics):
    case = catalog(name)
    report = compare(case, eps, horizon_exponent, ics=ics, horizon=horizon)
    tight = solve_with_scipy(case.original_rhs, ics or case.default_ics,
                             (0.0, report.horizon), 1e-13, 1e-15, report.t, args=(eps,))
    y_direct = report.stats["trajectories"]["y_direct"]
    assert np.max(np.abs(y_direct - tight.y[:case.n_components])) <= 1e-9
    again = compare(case, eps, horizon_exponent, ics=ics, horizon=horizon)
    assert again.stats["direct_steps"] == report.stats["direct_steps"] > 0
    assert np.array_equal(again.stats["trajectories"]["y_direct"], y_direct)


# the largest reconstruction error of the Taylor amplitude flow against a
# DOP853 flow at rtol 1e-13, atol 1e-14 over the runs of a case, times ten:
# 1.8e-13, 2.6e-11, 6.9e-13 and 2.0e-11 measured on WORKLOAD_RUNS
AMPLITUDE_FLOW_BOUND = {"damped_linear": 2e-12, "cubic": 3e-10, "coupled_cubic": 7e-12,
                        "quadratic_damped": 2e-10}


@pytest.mark.parametrize("name, eps, horizon_exponent, horizon, ics, bound", [
    *[(*run, AMPLITUDE_FLOW_BOUND[run[0]]) for run in WORKLOAD_RUNS],
    # B grows to about 45,000 and sets the shared tolerance while A decays:
    # 2.6e-8 measured, five orders below the gap of 1.7e-3
    ("quadratic_damped", 0.01, 2, None, None, 3e-7),
])
def test_amplitude_flow_matches_a_tight_dop853(name, eps, horizon_exponent, horizon, ics, bound):
    case = catalog(name)
    report = compare(case, eps, horizon_exponent, ics=ics, horizon=horizon)
    flow = case.truncated(2)
    amps0 = fit_initial_amplitudes(flow, ics or case.default_ics, eps)

    def rhs(t, amps):
        return flow.amplitude_rhs(t, amps, eps)

    tight = solve_with_scipy(rhs, amps0, (0.0, report.horizon), 1e-13, 1e-14, report.t)
    amps = Trajectory(t=report.t, y=tight.y.T.astype(complex))
    y_ms = report.stats["trajectories"]["y_multiscale"]
    assert np.max(np.abs(y_ms - reconstruct_on_grid(flow, amps, eps))) <= bound
    assert 0 < report.stats["amplitude_steps"] <= 30


def test_loose_tolerances_keep_the_amplitude_flow_running():
    # at rtol = atol = 1 the Runge-Kutta amplitude flow this replaced ended
    # in a SolverError at t = 323.05; the Taylor flow caps its step inside
    # the series' radius
    report = compare(catalog("cubic"), 0.05, 2, rtol=1.0, atol=1.0)
    assert np.isfinite(report.max_abs_error)
    assert np.isfinite(report.stats["trajectories"]["y_multiscale"]).all()


def test_direct_solve_blow_up_is_a_solver_error():
    # y'' + y = 0.15 y^3 from y = 3 lies past the potential's crest and blows
    # up near t = 2.238, where DOP853 stops too
    with pytest.raises(SolverError, match=r"t=2\.2379"):
        compare(catalog("cubic"), 0.15, ics=[3.0, 0.0], horizon=20.0)


def test_taylor_coefficient_overflow_is_a_solver_error():
    # y^3 overflows in the order-0 coefficient, before any step
    with pytest.raises(SolverError, match="not finite"):
        integrate_reference(catalog("cubic").direct_expansion(0.1), [1e110, 0.0], (0.0, 1.0))


def test_taylor_plan_forms_each_product_once():
    # x y^2 and x^2 y share no prefix; x y^2 needs x y first; x' = v forms none
    products, terms = catalog("coupled_cubic")._direct_plan
    assert products == ((0, 1), (5, 1), (0, 0), (7, 1))
    assert [m for _, _, m in terms[0]] == [2]
    assert [m for _, _, m in terms[2]] == [0, 1, 6]


def test_compare_cubic_term_ordering():
    # two-term expansion at horizon eps^-2 beats one-term at horizon eps^-3
    case = catalog("cubic")
    two_term = compare(case, 0.1, 2, terms=2)
    one_term = compare(case, 0.1, 3, terms=1)
    assert two_term.max_abs_error <= one_term.max_abs_error


def test_compare_zero_eps_matches_reference():
    case = catalog("cubic")
    report = compare(case, 0.0, horizon=20.0, rtol=1e-10)
    assert report.max_abs_error <= 1e-8


def test_compare_rejects_horizon_beyond_validity():
    case = catalog("coupled_cubic")  # validity exponent 2
    with pytest.raises(ValueError):
        compare(case, 0.1, 4)
    with pytest.raises(ValueError):
        compare(case, 0.1, horizon=10.0 ** 3.5)
    with pytest.raises(ValueError):
        compare(case, 0.1, 2, horizon=100.0)  # both given


def test_explicit_horizon_is_capped_at_negative_eps_as_at_positive():
    # the cap |eps|^-(validity exponent + 1) is 1e4 for cubic at eps +-0.1;
    # at a negative eps it once read inf
    case = catalog("cubic")
    for eps in (0.1, -0.1):
        assert resolve_horizon(case, eps, horizon=9e3) == 9e3
        with pytest.raises(ValueError, match=r"exceeds \|eps\|\^-\(validity_exponent\+1\)"):
            resolve_horizon(case, eps, horizon=2e4)


def test_compare_explicit_horizon():
    case = catalog("damped_linear")
    report = compare(case, 0.01, horizon=400.0)
    assert report.horizon == 400.0
    assert report.max_abs_error < 1e-6


def test_coupled_spectrum_peaks_at_shifted_frequencies():
    # window long enough that one FFT bin resolves the initial-data shift
    case = catalog("coupled_cubic")
    eps = 0.1
    amps0 = np.array([0.3 + 0j, 0.3 + 0j])
    t_end = 500.0 * 2.0 * np.pi
    n = 1 << 16
    grid = np.linspace(0.0, t_end, n, endpoint=False)
    traj = Trajectory(t=grid, y=case.amplitude_closed_form(grid, amps0, eps))
    x = reconstruct_on_grid(case, traj, eps)[0]
    spectrum = np.abs(np.fft.rfft(x * np.hanning(n)))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid[1] - grid[0])
    bin_width = freqs[1] - freqs[0]
    omega1, omega2 = coupled_cubic_frequencies(amps0[0], amps0[1], eps)
    for omega, window in ((omega1, (0.5, 1.5)), (omega2, (1.5, 2.5))):
        masked = np.where((freqs > window[0]) & (freqs < window[1]), spectrum, 0.0)
        peak = freqs[int(np.argmax(masked))]
        assert abs(peak - omega) <= bin_width


@pytest.mark.parametrize(
    "name, eps, horizon_exponent, ratio",
    [
        ("quadratic_damped", 0.025, 2, 4.0),
        # second order at the eps^-1 horizon: halving eps divides the error by
        # 4.0, and by 1.9 without the -(15/16) eps^2 |A|^4 term of the rate
        ("cubic", 0.1, 1, 3.0),
    ],
    ids=["quadratic_damped", "cubic"],
)
def test_error_shrinks_with_eps(name, eps, horizon_exponent, ratio):
    case = catalog(name)
    r1 = compare(case, eps, horizon_exponent)
    r2 = compare(case, eps / 2, horizon_exponent)
    assert r2.max_abs_error < r1.max_abs_error / ratio


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        Trajectory(t=np.array([0.0, 1.0]), y=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Trajectory(t=np.array([0.0, 0.0]), y=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        RunReport("x", 0.1, 1.0, -1.0, 0.0, np.array([0.0]), np.zeros((1, 1)))


def test_compare_checks_arguments_before_the_direct_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the direct solve ran")

    monkeypatch.setattr(msode, "integrate_reference", no_solve)
    case = msode.catalog("cubic")
    with pytest.raises(ValueError, match="initial values"):
        msode.compare(case, 0.1, 1, ics=[1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="explicit horizon"):
        msode.compare(case, 0.0, 1)
