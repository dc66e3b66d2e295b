"""Boundary-layer two-point boundary value problems on [0, 1].

Two singularly perturbed problems are treated, both with a layer of width
O(eps) at the left boundary:

linear
    eps y'' + y' - y = 0,  y(0) = 1, y(1) = 0.  The multiscale solution in
    the layer variable integrates in closed form,

        y(x) = (1 - e^{r_+ - r_-})^{-1} e^{r_+ x}
             + (1 - e^{r_- - r_+})^{-1} e^{r_- x},

    with r_+ and r_- the roots of the characteristic polynomial
    eps r^2 + r - 1, expanded by :mod:`series` rather than written out:
    :func:`series.expand_root` from r = 1 gives r_+ = 1 - eps to order eps,
    and :func:`series.rescale_singular` followed by
    :func:`series.expand_root` from -1 gives eps r_- = -1 - eps + eps^2 to
    order eps^2.  It is evaluated in an algebraically rewritten form so the
    huge factor e^{1/eps} is never formed (it overflows doubles near
    eps ~ 0.0014).

nonlinear
    eps y'' + y' + y^2 = 0,  y(0) = 0, y(1) = 1/2.  In the layer variable
    xi = x/eps the problem becomes u'' + u' + eps f(u) = 0 on [0, 1/eps].
    Its amplitude equations and reconstruction are derived from f by
    :func:`msode.multiple_scales`, on the modes u = A and u = B e^{-xi} of
    u'' + u' = 0, to second order; for f = y^2 they are
    A' = -eps A^2 - 2 eps^2 A^3, B' = 2 eps A B + 2 eps^2 A^2 B, with
    u = A + B e^{-xi} - (eps/2) B^2 e^{-2 xi}.  The left boundary condition
    fixes A(0) = -B0 + (eps/2) B0^2 in terms of B(0) = B0, and B0 is found
    by shooting: Newton (finite-difference derivative) on
    F(B0) = u(1/eps) - 1/2, each F one Taylor-series solve of the amplitude
    flow (:meth:`msode.CaseSpec.amplitude_expansion` stepped by
    :func:`integrator.integrate_reference`, the library's one integrator).
    The flow starts from an array, so the driver steps it, and samples the
    profile's thousands of points, in numpy.

Both problems are eps y'' + y' + f(y) = 0 with f(y) = -y resp. y^2, one
row each of a kind table holding f's polynomial coefficients and the
boundary values (y(0), y(1)); the linear exponents, the shooting's
amplitude equations and its boundary values are read from it, so a changed
row moves the multiscale side and the reference alike.
:func:`solve_bvp_fd` provides the independent reference: a second-order
centered finite-difference discretization, solved by damped Newton, with f
and f' evaluated from the coefficients.  Each Newton step is one tridiagonal solve,
:func:`solve_banded`, a pure-Python transcription of LAPACK's ``dgtsv``
that gives scipy's bits without loading scipy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import SolverError, horner
from .integrator import integrate_reference
from .msode import CaseSpec
from .series import PolyFamily, derivative, expand_root, rescale_singular


def solve_banded(ab, b) -> np.ndarray:
    """Solve a tridiagonal system by Gaussian elimination with partial pivoting.

    ``ab`` holds the matrix in banded storage: superdiagonal ``ab[0, 1:]``,
    diagonal ``ab[1]``, subdiagonal ``ab[2, :-1]``.  A transcription of
    reference LAPACK ``dgtsv`` for one right-hand side, row interchanges
    included, so it returns the bits ``scipy.linalg.solve_banded((1, 1),
    ab, b)`` returns.  Raises :class:`SolverError` on a zero pivot.
    """
    d = ab[1].tolist()
    n = len(d)
    du = ab[0, 1:].tolist() + [0.0]  # du[n - 1] pads the last row's interchange
    dl = ab[2, :-1].tolist()
    x = np.asarray(b, dtype=float).tolist()
    for i in range(n - 1):
        di, li = d[i], dl[i]
        # dgtsv's test, negated so that a NaN skips the interchange and no
        # division by zero can raise
        if abs(di) < abs(li):  # interchange rows i and i + 1
            fact = di / li
            d[i], temp = li, d[i + 1]
            d[i + 1] = du[i] - fact * temp
            dl[i] = du[i + 1]
            du[i + 1] = -fact * dl[i]
            du[i] = temp
            x[i], x[i + 1] = x[i + 1], x[i] - fact * x[i + 1]
        else:
            if di == 0.0:
                raise SolverError(f"tridiagonal solve hit a zero pivot in row {i}")
            fact = li / di
            d[i + 1] -= fact * du[i]
            x[i + 1] -= fact * x[i]
            dl[i] = 0.0  # dl becomes the second superdiagonal of U
    if d[n - 1] == 0.0:
        raise SolverError(f"tridiagonal solve hit a zero pivot in row {n - 1}")
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
    return np.array(x)


# per problem kind: the coefficients of f in eps y'' + y' + f(y) = 0, lowest
# power first, and (y(0), y(1))
_REACTION = {
    "linear": ((0, -1), (1.0, 0.0)),
    "nonlinear": ((0, 0, 1), (0.0, 0.5)),
}


LINEAR_EPS_FLOOR = 1e-6  # the linear closed form's smallest eps
NONLINEAR_EPS_MAX = 0.17  # the nonlinear shooting's largest eps

# The linear kind's exponents are the roots of eps r^2 + r + f_1 = 0, held as
# exact Laurent coefficients (c_-1, c_0, c_1) of eps^-1, eps^0, eps^1: the
# slow root r_+ from r = 1 to order eps, the fast root r_- as eps r_- from -1
# to order eps^2.  Expanded once, at import, so that no run calls into
# series (perfbench/tracing.py would time such calls as series work).
_CHARACTERISTIC = PolyFamily.from_coefficients([[_REACTION["linear"][0][1]], [1], [0, 1]])
_SLOW = (0, *expand_root(_CHARACTERISTIC, 1, 1).coefficients)
_FAST = expand_root(rescale_singular(_CHARACTERISTIC, 1), -1, 2).coefficients


def linear_blayer_multiscale(x, eps: float):
    """Closed-form multiscale solution of the linear layer problem.

    Written as y = (-e^{r_+ x - s} + e^{r_- x}) / (1 - e^{-s}) with the
    truncated roots r_+ and r_- and s = r_+ - r_- > 0, so every exponent is
    nonpositive on [0, 1]; both boundary values then come out exact.  Each
    of the three is evaluated as c_-1 / eps + c_0 + c_1 eps from exact
    coefficients, s from its own, not as a difference of floats.
    """
    if eps < LINEAR_EPS_FLOOR:
        raise ValueError(f"eps below the overflow-safe floor {LINEAR_EPS_FLOOR}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("x must lie in [0, 1]")
    gap = [a - b for a, b in zip(_SLOW, _FAST)]  # s = r_+ - r_-, exact
    slow, fast, s = (c[0] / eps + horner(c[1:], eps) for c in (_SLOW, _FAST, gap))
    denom = 1.0 - np.exp(-s)
    grow = -np.exp(slow * x - s)
    decay = np.exp(fast * x)
    return (grow + decay) / denom


def solve_bvp_fd(kind: str, eps: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``kind`` problem ("linear" or "nonlinear") by second-order
    centered finite differences on a uniform grid of n >= 64 cells, for
    0 < eps < 1.

    Returns (x, y) including the boundary rows, which carry the imposed
    boundary values exactly.  Solved by damped Newton from a layer-profile
    initial guess (the eps u'' + u' = 0 solution through the same boundary
    values), iterated until the max-norm of the update is at or below 1e-12,
    a bound in units of y that holds on every grid.  A Newton step within
    that bound is taken whole; at the roundoff floor of a fine grid, where
    the full step stays above it, the line search damps the step below it.
    """
    if kind not in _REACTION:
        raise ValueError(f"unknown problem kind {kind!r}")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if n < 64:
        raise ValueError("need at least 64 grid cells")
    f, (ya, yb) = _REACTION[kind]
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)

    # h^2-scaled residual G_i = eps D2 y + D1 y + f(y) on interior points
    def residual(y_int: np.ndarray) -> np.ndarray:
        y = np.concatenate([[ya], y_int, [yb]])
        return (
            eps * (y[2:] - 2.0 * y[1:-1] + y[:-2])
            + 0.5 * h * (y[2:] - y[:-2])
            + h**2 * horner(f, y[1:-1])
        )

    # Layer-profile initial guess from eps u'' + u' = 0 with the same BCs.
    b = (ya - yb) / (1.0 - np.exp(-1.0 / eps))
    a = ya - b
    y_int = a + b * np.exp(-x[1:-1] / eps)

    ab = np.zeros((3, n - 1))
    ab[0, 1:] = eps + 0.5 * h  # y_{i+1}
    ab[2, :-1] = eps - 0.5 * h  # y_{i-1}
    for _ in range(100):
        res = residual(y_int)
        norm = np.max(np.abs(res))
        ab[1, :] = -2.0 * eps + h**2 * horner(derivative(f), y_int)
        step = solve_banded(ab, -res)
        size = np.max(np.abs(step))
        lam = 1.0  # a step within the tolerance is taken whole
        while (
            lam * size > 1e-12
            and np.max(np.abs(residual(y_int + lam * step))) > (1.0 - 0.5 * lam) * norm
            and lam > 1e-6
        ):
            lam *= 0.5
        y_int = y_int + lam * step
        if lam * size <= 1e-12:
            break
    else:
        raise SolverError(
            f"finite-difference Newton stalled with residual {norm:.3e}"
        )
    return x, np.concatenate([[ya], y_int, [yb]])


@dataclass(frozen=True)
class ShootingSolution:
    """Multiscale solution of the nonlinear layer problem."""

    eps: float
    b0: float
    iterations: int
    residual: float

    def inner(self, xi) -> np.ndarray:
        """u(xi) = A + B e^{-xi} - (eps/2) B^2 e^{-2 xi} on [0, 1/eps]."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return _inner_profile(self.eps, self.b0, xi)

    def __call__(self, x) -> np.ndarray:
        """y(x) in the outer variable, x in [0, 1]."""
        return self.inner(np.asarray(x, dtype=float) / self.eps)


@functools.cache
def _layer_case(f: tuple) -> CaseSpec:
    """u'' = -u' - eps f(u), the layer problem in xi = x/eps, on the modes
    u = A + B e^{-xi} of u'' + u' = 0 (halved inside 2 Re(...)), with its
    amplitude equations and reconstruction derived by multiple scales."""
    rows = tuple((0, -float(c), 1, (i, 0)) for i, c in enumerate(f) if c)
    return CaseSpec("nonlinear_layer", (0.0, 0.0), ((0, -1.0, 0, (0, 1)),) + rows,
                    ((0, 0.5, 0, (1, 0, 0, 0), 0.0), (0, 0.5, 0, (0, 1, 0, 0), -1.0)))


_LEFT, _RIGHT = _REACTION["nonlinear"][1]


def _inner_profile(eps: float, b0: float, xi: np.ndarray) -> np.ndarray:
    """u at the requested layer coordinates (any order, repeats ok)."""
    layer = _layer_case(_REACTION["nonlinear"][0])
    # u is linear in A with unit slope, so u(0) = y(0) fixes A(0) as y(0)
    # minus u(0) at A = 0
    a0 = _LEFT - layer.reconstruct(0.0, (0.0, b0), eps)[0]
    points, inverse = np.unique(xi, return_inverse=True)
    expand = layer.amplitude_expansion(eps)
    traj = integrate_reference(
        lambda y, order: np.array(expand(y.tolist(), order)).T,
        np.array([a0, b0]),
        (0.0, float(points[-1]) if points[-1] > 0 else 1.0),
        rtol=1e-10,
        atol=1e-12,
        t_eval=points,
    )
    return layer.reconstruct(xi, traj.y[inverse].T, eps)[0]


def nonlinear_blayer_multiscale(eps: float, shoot_tol: float = 1e-10) -> ShootingSolution:
    """Shooting solution of eps y'' + y' + y^2 = 0, y(0)=0, y(1)=1/2.

    Newton iteration on F(B0) = u(1/eps) - 1/2 with a finite-difference
    derivative; the seed B0 = -1 comes from the leading-order picture
    u ~ A + B e^{-xi} with u(0) = 0 and u -> A ~ 1/2, and converges across
    the supported range 0 < eps <= 0.17; raises :class:`SolverError` after
    50 iterations.  Above eps ~ 0.1716 the two-term ansatz has no root: max
    over B0 of F(B0) is +3.5e-3 at eps = 0.17 and -8.5e-4 at eps = 0.172.
    """
    if not 0.0 < eps <= NONLINEAR_EPS_MAX:
        raise ValueError(f"supported range is 0 < eps <= {NONLINEAR_EPS_MAX}")

    def boundary_mismatch(b0: float) -> float:
        return _inner_profile(eps, b0, np.array([1.0 / eps]))[0] - _RIGHT

    b0 = -1.0
    for iteration in range(1, 51):
        f = boundary_mismatch(b0)
        if abs(f) < shoot_tol:
            return ShootingSolution(eps=eps, b0=b0, iterations=iteration, residual=abs(f))
        h = 1e-6 * max(1.0, abs(b0))
        slope = (boundary_mismatch(b0 + h) - boundary_mismatch(b0 - h)) / (2.0 * h)
        b0 = b0 - f / slope
    raise SolverError(
        f"shooting did not converge in 50 iterations (|F|={abs(f):.3e})"
    )


def layer_half_width(x: np.ndarray, y: np.ndarray) -> float:
    """First x where the solution reaches 50% of its left boundary value."""
    target = 0.5 * y[0]
    crossing = np.nonzero((y[:-1] - target) * (y[1:] - target) <= 0.0)[0]
    if len(crossing) == 0:
        return float(x[-1])
    i = crossing[0]
    if y[i + 1] == y[i]:
        return float(x[i])
    frac = (target - y[i]) / (y[i + 1] - y[i])
    return float(x[i] + frac * (x[i + 1] - x[i]))
