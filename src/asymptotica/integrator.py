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
(:func:`asymptotica.horner`, defined at the package root so that this module
loads neither ``series`` nor ``fractions``) and samples ``t_eval`` after the
last step, in one Horner pass over the steps that cover it.  It samples every
component, or only the leading ones a caller asks for: the ODE direct solve
samples its positions and not its velocities.

A state is either a list or tuple of Python numbers or a numpy array, and
the driver's arithmetic follows it:

* Python numbers (the ODE catalog): stepped and sampled in Python floats,
  and nothing here imports numpy, so an ``ode`` run never loads it.  Each
  row is sampled by a straight-line Horner function generated from the
  order alone (:func:`_horner_kernel`), which does the operations of
  Horner's loop in the loop's order, without the loop's overhead;
* an array (the ``mspde`` band, and the ``blayer`` shooting, whose profile
  samples thousands of points): stepped and sampled by numpy, each Horner
  pass over all components, or all samples, at once.

Both make the same floating-point operations in the same order, so they
step and sample alike, bit for bit.  States are real or complex, and y0
sets which.  max|y| and |c_k| are taken over the real and imaginary parts,
and a complex state is stepped as those parts, each a real state: a product
of a complex number by the real step casts the step to complex, and that
can flip the sign of a zero part.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import sys
import warnings
from bisect import bisect_right
from typing import Callable, Sequence

from . import SolverError, horner


class Trajectory:
    """Time grid plus state samples; ``y[i]`` is the state at ``t[i]``.
    Lists for a state of Python numbers, arrays for an array state."""

    def __init__(self, t: Sequence, y: Sequence, meta: dict | None = None):
        if len(t) != len(y):
            raise ValueError("time grid and samples must have equal length")
        times = t.tolist() if hasattr(t, "tolist") else t
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("time grid must be strictly increasing")
        self.t, self.y, self.meta = t, y, {} if meta is None else meta


RTOL_FLOOR = 100 * sys.float_info.epsilon


def max_abs(values) -> float:
    """The largest |v| over real ``values``, nan if one is nan, as numpy's max."""
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


def checked_problem(y0, t_span, rtol, atol, t_eval):
    """(y0, (t0, t_bound), t_eval, rtol used) of an initial value problem;
    ``t_eval`` None means ``[t_bound]``.  y0 given as a list or tuple of
    Python numbers comes back as a list, with ``t_eval`` a list of floats;
    any other y0 comes back as an array, with ``t_eval`` an array.  Either
    way y0 is complex if it is complex and floats otherwise.

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
    problem = _python_problem if isinstance(y0, (list, tuple)) else _array_problem
    y, t_eval = problem(y0, t0, t_bound, [t_bound] if t_eval is None else t_eval)
    return y, (t0, t_bound), t_eval, rtol


def _python_problem(y0, t0, t_bound, t_eval) -> tuple[list, list]:
    """y0 and t_eval as lists of Python numbers, checked as :func:`checked_problem` says."""
    if not y0 or not all(isinstance(v, numbers.Number) for v in y0):
        raise ValueError("y0 must be a nonempty 1-dimensional array")
    kind = float if all(isinstance(v, numbers.Real) for v in y0) else complex
    y = [kind(v) for v in y0]
    if not all(map(cmath.isfinite, y)):
        raise ValueError("all components of y0 must be finite")
    if hasattr(t_eval, "tolist"):  # an array
        t_eval = t_eval.tolist() if t_eval.ndim == 1 else [t_eval]
    if not all(issubclass(kind, numbers.Real) for kind in set(map(type, t_eval))):
        raise ValueError("t_eval must be 1-dimensional")
    t_eval = list(map(float, t_eval))
    if not all(map(math.isfinite, t_eval)):
        raise ValueError("values in t_eval must be finite")
    if t_eval and (min(t_eval) < t0 or max(t_eval) > t_bound):
        raise ValueError("values in t_eval are not within t_span")
    if not all(map(operator.lt, t_eval, t_eval[1:])):
        raise ValueError("values in t_eval must strictly increase")
    return y, t_eval


def _array_problem(y0, t0, t_bound, t_eval):
    """y0 and t_eval as numpy arrays, checked as :func:`checked_problem` says."""
    import numpy as np

    y = np.asarray(y0)
    y = y.astype(complex if np.iscomplexobj(y) else float)
    if y.ndim != 1 or not y.size:
        raise ValueError("y0 must be a nonempty 1-dimensional array")
    if not np.isfinite(y).all():
        raise ValueError("all components of y0 must be finite")
    t_eval = np.asarray(t_eval)
    if t_eval.ndim != 1:
        raise ValueError("t_eval must be 1-dimensional")
    if not np.isfinite(t_eval).all():
        raise ValueError("values in t_eval must be finite")
    if np.any(t_eval < t0) or np.any(t_eval > t_bound):
        raise ValueError("values in t_eval are not within t_span")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("values in t_eval must strictly increase")
    return y, t_eval


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


@functools.cache
def _horner_kernel(order: int) -> Callable:
    """``kernel(row, offsets, out)``: appends to ``out``, per offset s, the
    polynomial with coefficients ``row`` (c_0..c_N, N = ``order``) at s.

    Straight-line code generated from the order alone: the coefficients are
    unpacked into locals and each value is ((c_N s + c_(N-1)) s + ...) s + c_0,
    the operations of :func:`asymptotica.horner`'s loop in its order, so the
    same floats, bit for bit, without the loop's per-coefficient overhead.
    """
    names = [f"c{k}" for k in range(order + 1)]
    value = names[-1]
    for name in reversed(names[:-1]):
        value = f"({value}) * s + {name}"
    source = (f"def kernel(row, offsets, out):\n"
              f"    {', '.join(names)}, = row\n"
              f"    append = out.append\n"
              f"    for s in offsets:\n"
              f"        append({value})\n")
    namespace = {}
    exec(source, namespace)
    return namespace["kernel"]


class _PythonFloats:
    """The driver's arithmetic on a state of Python numbers.

    ``expand`` returns, per component, its coefficients c_0..c_N.  The rows
    are those of the real state, or of the real parts and then the imaginary
    parts of a complex one.  The first n components are sampled.
    """

    def __init__(self, y: list, n: int):
        self.complex, self.n = isinstance(y[0], complex), n

    def rows(self, c) -> list:
        if not self.complex:
            return c
        return [[z.real for z in row] for row in c] + [[z.imag for z in row] for row in c]

    def sampled(self, rows) -> list:
        """The rows of the components sampled."""
        if not self.complex:
            return rows[:self.n]
        half = len(rows) // 2
        return rows[:self.n] + rows[half:half + self.n]

    @staticmethod
    def tops(rows, order) -> list[float]:
        """max|y|, |c_(N-1)| and |c_N|, each the largest over the rows."""
        return [max_abs([row[k] for row in rows]) for k in (0, order - 1, order)]

    def state(self, parts: list) -> list:
        if not self.complex:
            return parts
        n = len(parts) // 2
        return list(map(complex, parts[:n], parts[n:]))

    def advance(self, rows, h: float) -> list:
        return self.state([horner(row, h) for row in rows])

    def samples(self, dense: list, t_eval: list) -> list:
        """Per row, each sample by :func:`_horner_kernel` from its step's
        row, in time order; then per sample the state, a tuple."""
        columns = [[] for _ in dense[0][2]] if dense else []
        start = 0
        for count, t_old, rows in dense:
            offsets = [s - t_old for s in t_eval[start:start + count]]
            start += count
            kernel = _horner_kernel(len(rows[0]) - 1)
            for column, row in zip(columns, rows):
                kernel(row, offsets, column)
        if self.complex:
            n = len(columns) // 2
            columns = [list(map(complex, re, im)) for re, im in zip(columns[:n], columns[n:])]
        return list(zip(*columns))


class _NumpyArrays:
    """The driver's arithmetic on an array state.

    ``expand`` returns an array of shape (N + 1, len(y)), of y's dtype; the
    rows are the coefficients' float view, real and imaginary parts side by
    side for a complex state.  The first n components are sampled.
    """

    def __init__(self, y, n: int):
        import numpy as np

        self.np, self.dtype, self.n = np, y.dtype, n

    def rows(self, c):
        return self.np.ascontiguousarray(c).view(float)

    def sampled(self, rows):
        return rows[:, :self.n * (2 if self.dtype.kind == "c" else 1)]

    def tops(self, rows, order) -> list[float]:
        return self.np.abs(rows[[0, order - 1, order]]).max(axis=1).tolist()

    def advance(self, rows, h: float):
        return horner(rows, h).view(self.dtype)

    def samples(self, dense: list, t_eval):
        np = self.np
        if not dense:
            return np.zeros((len(t_eval), self.n), self.dtype)
        counts, t_olds, coefs = zip(*dense)
        s = (t_eval - np.repeat(t_olds, counts))[:, None]
        coefs = np.asarray(coefs).swapaxes(0, 1)  # (order + 1, steps, n)
        if coefs.shape[1] < len(s):  # per sample: a copy only where a step covers several
            coefs = np.repeat(coefs, counts, axis=1)
        return horner(coefs, s).view(self.dtype)


def integrate_reference(
    expand: Callable,
    y0,
    t_span: tuple[float, float],
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval=None,
    order: int | None = None,
    components: int | None = None,
) -> Trajectory:
    """Integrate y' = f(y) from ``t_span[0]`` to ``t_span[1]`` by Taylor series.

    ``expand(y, order)`` returns the coefficients c_0..c_N about the state y,
    c_0 = y, in y's type: for y0 a list or tuple of Python numbers, y is a
    list and ``expand`` returns per component a list c_0..c_N; for an array
    y0, an array of shape (N + 1, len(y)).  Either is real, or complex for a
    complex y0.  N is ``order``, by default :func:`taylor_order` at
    min(rtol, atol).  The step is :func:`taylor_step`'s, with
    tol = atol + rtol max|y| and |c_k| the largest component of the k-th
    coefficient, both over the real and imaginary parts; the state advances
    by Horner's rule.  Samples at ``t_eval``, by default ``[t_span[1]]``
    alone, come after the last step from one Horner pass over the steps that
    cover them, as lists or as arrays, as y0 is.  ``components`` n samples
    only the first n components, so each sample holds n values; by default
    all.  Deterministic for fixed inputs.

    Inputs are checked by :func:`checked_problem` before the first
    expansion, and n must be in 1..len(y0).  ``meta`` records ``nfev`` (the
    steps times the order: one right-hand side's worth of work per order),
    the steps (``n_steps``), those that cover samples (``n_dense``), the
    order and the tolerances.
    Raises :class:`SolverError` naming t when a coefficient is not finite or
    the step falls under ten times the spacing of doubles at t, as it does
    at a finite-time blow-up.
    """
    y, (t, t_bound), t_eval, rtol_used = checked_problem(y0, t_span, rtol, atol, t_eval)
    if order is None:
        order = taylor_order(min(rtol, atol))
    components = len(y) if components is None else components
    if not 0 < components <= len(y):
        raise ValueError(f"components must be in 1..{len(y)}")
    arithmetic = (_PythonFloats if isinstance(y, list) else _NumpyArrays)(y, components)
    t_list = t_eval if isinstance(t_eval, list) else t_eval.tolist()
    n_eval = n_steps = 0
    dense = []  # per step that covers samples: (their number, t_old, coefficient rows)
    while t < t_bound:
        rows = arithmetic.rows(expand(y, order))
        y_max, *tops = arithmetic.tops(rows, order)
        if not math.isfinite(sum(tops)):
            raise SolverError(f"Taylor integration failed at t={t}: a Taylor coefficient "
                              f"is not finite (steps={n_steps})")
        h = taylor_step(tops, order, atol + rtol_used * y_max, rtol_used)
        if h < 10 * abs(math.nextafter(t, math.inf) - t):
            raise SolverError(f"Taylor integration failed at t={t}: required step size is "
                              f"less than ten spacings of doubles (steps={n_steps})")
        t_old, t = t, min(t + h, t_bound)
        y = arithmetic.advance(rows, t - t_old)
        n_steps += 1
        n_new = bisect_right(t_list, t, n_eval)
        if n_new > n_eval:
            dense.append((n_new - n_eval, t_old, arithmetic.sampled(rows)))
            n_eval = n_new
    meta = {"nfev": n_steps * order, "n_steps": n_steps, "n_dense": len(dense),
            "order": order, "rtol": rtol, "atol": atol}
    return Trajectory(t=t_eval.copy(), y=arithmetic.samples(dense, t_eval), meta=meta)
