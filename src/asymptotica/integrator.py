"""The library's one integrator, :func:`integrate_reference`: a Taylor-series
stepper for polynomial vector fields (Corliss & Chang, ACM TOMS 8, 1982;
Jorba & Zou, Exp. Math. 14, 2005).

Every solve in the library runs through it: the ODE catalog's direct solve
and amplitude flows (``msode``), the ``blayer`` shooting on the nonlinear
layer's amplitude flow, and the ``mspde`` pseudospectral packet solve.  The
caller supplies ``expand(y, order)``, the Taylor coefficients c_0..c_N of the
solution through y, in place of a right-hand side; each of the callers forms
them by Cauchy products of the series, order by order.  The driver checks the
inputs (:func:`checked_problem`), takes each step from the last two
coefficients (:func:`taylor_step`), advances by Horner's rule
(:func:`series.horner`) and samples ``t_eval`` after the last step, in one
Horner pass over the steps that cover it.

States are real or complex, and y0 sets which: the ODE catalog's complex
amplitudes and the packets' Fourier band are stepped as they are.  max|y|
and |c_k| are taken over the real and imaginary parts, and the driver's
arithmetic runs on the float view of the coefficients.  A product of a
complex array by the real step casts the step to complex, and that can flip
the sign of a zero part; the float view rounds each part as a real state
would.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import SolverError
from .series import horner


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus state samples; ``y[i]`` is the state at ``t[i]``."""

    t: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.t) != len(self.y):
            raise ValueError("time grid and samples must have equal length")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("time grid must be strictly increasing")


RTOL_FLOOR = 100 * np.finfo(float).eps


def checked_problem(y0, t_span, rtol, atol, t_eval):
    """(y0, (t0, t_bound), t_eval, rtol used) of an initial value problem, as
    arrays and floats; ``t_eval`` None means ``[t_bound]``.  y0 comes back
    complex if it is complex and as floats otherwise.

    Raises ValueError on a tolerance that is not positive, a non-finite or
    decreasing ``t_span``, a ``y0`` that is empty, not 1-dimensional or not
    finite, and a ``t_eval`` that is not finite, not inside ``t_span`` or not
    strictly increasing.  An rtol below 100 machine epsilons warns and is
    raised to that floor.
    """
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    if rtol < RTOL_FLOOR:
        warnings.warn(f"rtol {rtol} is too small; using {RTOL_FLOOR}", stacklevel=3)
        rtol = RTOL_FLOOR
    t0, t_bound = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(t_bound)):
        raise ValueError("t_span must be finite")
    if not t_bound > t0:
        raise ValueError("t_span must be increasing")
    y = np.asarray(y0)
    y = y.astype(complex if np.iscomplexobj(y) else float)
    if y.ndim != 1 or not y.size:
        raise ValueError("y0 must be a nonempty 1-dimensional array")
    if not np.isfinite(y).all():
        raise ValueError("all components of y0 must be finite")
    t_eval = np.asarray([t_bound] if t_eval is None else t_eval)
    if t_eval.ndim != 1:
        raise ValueError("t_eval must be 1-dimensional")
    if not np.isfinite(t_eval).all():
        raise ValueError("values in t_eval must be finite")
    if np.any(t_eval < t0) or np.any(t_eval > t_bound):
        raise ValueError("values in t_eval are not within t_span")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("values in t_eval must strictly increase")
    return y, (t0, t_bound), t_eval, rtol


def taylor_order(tol: float) -> int:
    """Order N of a Taylor step at tolerance ``tol``: ceil(-ln(tol)/2) + 2,
    tol floored at ``RTOL_FLOOR``, so N <= 18, and N >= 4.

    That is one above Jorba & Zou's order: at about the same cost (the steps
    grow with N), it kept the ODE catalog's direct error at or below that of
    scipy's DOP853 on the shipped and benchmark configs.  Below order 4 the
    step outruns the series at tolerances near 1.
    """
    return max(4, math.ceil(-0.5 * math.log(max(tol, RTOL_FLOOR))) + 2)


def taylor_step(tops: Sequence[float], order: int, tol: float, rtol: float) -> float:
    """The step of a Taylor series of order N from its last two coefficients.

    ``tops`` are the largest components |c_k| of the coefficients k = N - 1
    and N; ``tol`` is atol + rtol max|y| at the step's start.  The step is
    s_k (tol / |c_k|)^(1/k), least over the two k, with safety factor
    s_k = min(0.9, 0.35 rtol^(-1/k)).  The second caps the step at 0.35 of
    the radius estimate ((atol / rtol + max|y|) / |c_k|)^(1/k), so at
    tolerances near 1 the step stays inside the series' radius.  It is the
    smaller only where rtol > (0.35/0.9)^k, and that does not depend on
    max|y|, so a decayed solution in the atol regime keeps the plain
    0.9 step.  A zero coefficient sets no limit: inf when both are zero.
    """
    h = math.inf
    for k, top in zip((order - 1, order), tops):
        if top:
            h = min(h, min(0.9, 0.35 * rtol ** (-1 / k)) * (tol / top) ** (1 / k))
    return h


def integrate_reference(
    expand: Callable,
    y0,
    t_span: tuple[float, float],
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval=None,
    order: int | None = None,
) -> Trajectory:
    """Integrate y' = f(y) from ``t_span[0]`` to ``t_span[1]`` by Taylor series.

    ``expand(y, order)`` returns the coefficients c_0..c_N about the state y
    as an array of shape (N + 1, len(y)), c_0 = y, of y's dtype: real, or
    complex for a complex y0.  N is ``order``, by default
    :func:`taylor_order` at min(rtol, atol).  The step is
    :func:`taylor_step`'s, with tol = atol + rtol max|y| and |c_k| the
    largest component of the k-th coefficient, both over the real and
    imaginary parts; the state advances by Horner's rule.  Samples at
    ``t_eval``, by default ``[t_span[1]]`` alone, come after the last step
    from one Horner pass over the steps that cover them, in y's dtype.
    Deterministic for fixed inputs.

    Inputs are checked by :func:`checked_problem` before the first
    expansion.  ``meta`` records ``nfev`` (the steps times the order: one
    right-hand side's worth of work per order), the steps (``n_steps``),
    those that cover samples (``n_dense``), the order and the tolerances.
    Raises :class:`SolverError` naming t when a coefficient is not finite or
    the step falls under ten times the spacing of doubles at t, as it does
    at a finite-time blow-up.
    """
    y, (t, t_bound), t_eval, rtol_used = checked_problem(y0, t_span, rtol, atol, t_eval)
    if order is None:
        order = taylor_order(min(rtol, atol))
    t_list = t_eval.tolist()
    n_eval = n_steps = 0
    dense = []  # per step that covers samples: (their number, t_old, coefficients)
    while t < t_bound:
        c = np.ascontiguousarray(expand(y, order)).view(float)  # parts as floats (module docstring)
        y_max, *tops = np.abs(c[[0, order - 1, order]]).max(axis=1).tolist()
        if not math.isfinite(sum(tops)):
            raise SolverError(f"Taylor integration failed at t={t}: a Taylor coefficient "
                              f"is not finite (steps={n_steps})")
        h = taylor_step(tops, order, atol + rtol_used * y_max, rtol_used)
        if h < 10 * abs(math.nextafter(t, math.inf) - t):
            raise SolverError(f"Taylor integration failed at t={t}: required step size is "
                              f"less than ten spacings of doubles (steps={n_steps})")
        t_old, t = t, min(t + h, t_bound)
        y = horner(c, t - t_old).view(y.dtype)
        n_steps += 1
        n_new = bisect_right(t_list, t, n_eval)
        if n_new > n_eval:
            dense.append((n_new - n_eval, t_old, c))
            n_eval = n_new
    meta = {"nfev": n_steps * order, "n_steps": n_steps, "n_dense": len(dense),
            "order": order, "rtol": rtol, "atol": atol}
    samples = np.zeros((len(t_eval), len(y)), y.dtype)
    if dense:
        counts, t_olds, coefs = zip(*dense)
        s = (t_eval - np.repeat(t_olds, counts))[:, None]
        coefs = np.asarray(coefs).swapaxes(0, 1)  # (order + 1, steps, n)
        if coefs.shape[1] < len(s):  # per sample: a copy only where a step covers several
            coefs = np.repeat(coefs, counts, axis=1)
        samples = horner(coefs, s).view(y.dtype)
    return Trajectory(t=t_eval.copy(), y=samples, meta=meta)
