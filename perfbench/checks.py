"""Independent checks of the CLI's artifacts.

Each check recomputes what it can without the module that produced the
result: Pi-group counts from sympy's ``Matrix.rank``, root expansions by
substituting the returned series back into the family with sympy, the
damped oscillator against its exact solution, packet errors from the CSV
columns, and so on.  ``check`` returns a list of problems; an empty list
means the invocation's outputs are correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import sympy

# Caps on the reference solutions, well above their values at the seed commit.
DAMPED_REFERENCE_ERROR_CAP = 1e-7  # direct vs exact, seed about 1e-9
ENERGY_DRIFT_CAP = 1e-8  # direct PDE solve, seed at most 1e-11
ODE_SAMPLES = 2048


def _fmt(x: float) -> str:
    """File-name form of a float: 17 significant digits, as the CLI writes."""
    return format(float(x), ".17g")


def dimension_matrix(base: list[str], quantities: dict[str, str]) -> list[list]:
    """Rows = base symbols, columns = quantities, entries = sympy Rationals."""
    columns = []
    for dims in quantities.values():
        col = {b: sympy.Integer(0) for b in base}
        if dims.strip() != "1":
            for token in dims.split():
                sym, _, exp = token.partition("^")
                col[sym] += sympy.Rational(exp) if exp else 1
        columns.append([col[b] for b in base])
    return [list(row) for row in zip(*columns)]


def phase_matched_roots(kind: str, harmonic: int, k_range: list[float]) -> list[float]:
    """Carriers with omega(n k) = n omega(k) in k_range, in closed form.

    fourth_order, omega^2 = k^4 - k^2 + 1: squaring omega(nk) = n omega(k)
    gives (n^4 - n^2) k^4 = n^2 - 1, so k = 1/sqrt(n).  Klein-Gordon,
    omega^2 = 1 + k^2, has omega(nk) < n omega(k) for every k and no root.
    """
    if kind != "fourth_order":
        return []
    k = 1.0 / math.sqrt(harmonic)
    return [k] if k_range[0] <= k <= k_range[1] else []


def _csv(path: Path, header: list[str], rows: int) -> tuple[np.ndarray | None, list[str]]:
    if not path.is_file():
        return None, [f"missing {path.name}"]
    lines = path.read_text().splitlines()
    if lines[:1] != [",".join(header)]:
        return None, [f"{path.name}: header {lines[:1]} != {header}"]
    if len(lines) - 1 != rows:
        return None, [f"{path.name}: {len(lines) - 1} rows, expected {rows}"]
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if data.shape != (rows, len(header)) or not np.all(np.isfinite(data)):
        return None, [f"{path.name}: malformed rows"]
    return data, []


def _close(a, b, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- per subcommand ------------------------------------------------------------


def _check_pi(config: dict, result: dict, out: Path, name: str) -> list[str]:
    base = config["base"].split()
    names = list(config["quantities"])
    matrix = sympy.Matrix(dimension_matrix(base, config["quantities"]))
    problems = []
    expected = len(names) - matrix.rank()
    if result["group_count"] != expected or len(result["groups"]) != expected:
        problems.append(f"group_count {result['group_count']} != n - rank = {expected}")
    groups = sympy.Matrix(
        [[sympy.Rational(g.get(q, "0")) for q in names] for g in result["groups"]]
    )
    if expected and groups.rank() != expected:
        problems.append("returned groups are not independent")
    if expected and any(v != 0 for v in matrix * groups.T):
        problems.append("a returned group is not dimensionless")
    for label, target in config["membership"].items():
        entry = result["membership"].get(label)
        if not entry or not entry["in_span"]:
            problems.append(f"membership {label}: in-span target reported outside")
            continue
        combo = [sum((Fraction(c) * Fraction(g.get(q, "0"))
                      for c, g in zip(entry["coefficients"], result["groups"])), Fraction(0))
                 for q in names]
        if combo != [Fraction(target.get(q, "0")) for q in names]:
            problems.append(f"membership {label}: coefficients do not rebuild the target")
    return problems


def _check_roots(config: dict, result: dict, out: Path, name: str) -> list[str]:
    eps, x = sympy.symbols("eps x")
    family = sum(sympy.Integer(c) * x**j * eps**m
                 for j, coeff in enumerate(config["family"]) for m, c in enumerate(coeff))
    if config.get("rescale_exponent"):
        # x = y / eps, cleared by the largest negative power of eps
        family = sympy.expand(family.subs(x, x / eps) * eps ** (len(config["family"]) - 2))
    order = config["order"]
    coeffs = result["coefficients"]
    if len(coeffs) != order + 1 or result["eps_denominator"] != 1:
        return [f"expected {order + 1} coefficients in integer powers of eps"]
    root = sum(sympy.Rational(c) * eps**p for p, c in enumerate(coeffs))
    residual = sympy.Poly(sympy.expand(family.subs(x, root)), eps)
    low = [residual.coeff_monomial(eps**p) for p in range(order + 1)]
    if any(c != 0 for c in low):
        return [f"residual is not O(eps^{order + 1}): low coefficients {low}"]
    return []


def _check_euler(config: dict, result: dict, out: Path, name: str) -> list[str]:
    rows = result["rows"]
    want = [(e, m) for e in config["eps_values"] for m in config["m_values"]]
    if [(r["eps"], r["m"]) for r in rows] != want:
        return ["rows do not cover eps_values x m_values"]
    problems = []
    for r in rows:
        eps, m = r["eps"], r["m"]
        f = mpmath.quad(lambda t: mpmath.exp(-t) / (1 + eps * t), [0, mpmath.inf])
        partial = sum(Fraction((-1) ** n * math.factorial(n)) * Fraction(eps) ** n
                      for n in range(m + 1))
        bound = math.factorial(m + 1) * eps ** (m + 1)
        if abs(r["f"] - float(f)) > config["quad_tol"]:
            problems.append(f"eps={eps}: f {r['f']} != {f}")
        if not _close(r["partial_sum"], float(partial), 1e-12):
            problems.append(f"eps={eps} m={m}: partial sum {r['partial_sum']} != {float(partial)}")
        if not (r["within_bound"] and abs(float(f) - float(partial)) <= bound):
            problems.append(f"eps={eps} m={m}: remainder bound violated")
    return problems


def _damped_exact(t: np.ndarray, eps: float) -> np.ndarray:
    """y'' + eps y' + y = 0, y(0) = 1, y'(0) = 0."""
    omega = math.sqrt(1.0 - 0.25 * eps * eps)
    return np.exp(-0.5 * eps * t) * (np.cos(omega * t) + 0.5 * eps / omega * np.sin(omega * t))


def _check_ode(config: dict, result: dict, out: Path, name: str) -> list[str]:
    eps_list = config["eps"] if isinstance(config["eps"], list) else [config["eps"]]
    runs = result["runs"]
    if [r["eps"] for r in runs] != [float(e) for e in eps_list]:
        return [f"runs cover eps {[r['eps'] for r in runs]}, expected {eps_list}"]
    case = config["case"]
    components = 2 if case == "coupled_cubic" else 1
    tolerance = config["accept"]["max_abs_error_le"]
    problems = []
    for run in runs:
        eps = run["eps"]
        suffix = f"_eps{_fmt(eps)}" if len(eps_list) > 1 else ""
        header = ["t", "y_direct", "y_multiscale", "abs_error"]
        if components == 2:
            header = ["component"] + header
        data, bad = _csv(out / f"{name}{suffix}.csv", header, ODE_SAMPLES * components)
        problems += bad
        if data is None:
            continue
        t, direct, ms, err = data[:, -4:].T
        if not (t[0] == 0.0 and _close(t[-1], run["horizon"], 1e-15)):
            problems.append(f"eps={eps}: grid does not span [0, horizon]")
        if np.max(np.abs(np.abs(direct - ms) - err)) > 1e-12:
            problems.append(f"eps={eps}: abs_error column != |direct - multiscale|")
        if err.max() != run["max_abs_error"] or err.max() > tolerance:
            problems.append(f"eps={eps}: max_abs_error {run['max_abs_error']} "
                            f"(CSV {err.max()}, tolerance {tolerance})")
        if case == "damped_linear":
            ref_error = np.max(np.abs(direct - _damped_exact(t, eps)))
            if ref_error > DAMPED_REFERENCE_ERROR_CAP:
                problems.append(f"eps={eps}: direct vs exact {ref_error:.3e} "
                                f"> cap {DAMPED_REFERENCE_ERROR_CAP}")
        if config.get("include_naive") and case == "damped_linear":
            naive, bad = _csv(out / f"{name}{suffix}_naive.csv",
                              ["t", "y_direct", "y_naive", "abs_error"], ODE_SAMPLES)
            problems += bad
            if naive is not None:
                tn = naive[:, 0]
                formula = np.cos(tn) - 0.5 * eps * (np.sin(tn) + tn * np.cos(tn))
                if np.max(np.abs(naive[:, 2] - formula)) > 1e-9 * max(1.0, tn[-1] * eps):
                    problems.append(f"eps={eps}: naive expansion column is wrong")
    return problems


def _check_blayer(config: dict, result: dict, out: Path, name: str) -> list[str]:
    eps_list = config["eps"]
    n = config["n_grid"]
    runs = result["runs"]
    if [r["eps"] for r in runs] != [float(e) for e in eps_list]:
        return ["runs do not follow the config's eps list"]
    left, right = (1.0, 0.0) if config["kind"] == "linear" else (0.0, 0.5)
    problems = []
    for run in runs:
        eps = run["eps"]
        data, bad = _csv(out / f"{name}_eps{_fmt(eps)}.csv",
                         ["x", "y_multiscale", "y_reference", "abs_error"], n + 1)
        problems += bad
        if data is None:
            continue
        x, ms, ref, gap = data.T
        if np.max(np.abs(x - np.linspace(0.0, 1.0, n + 1))) > 1e-15:
            problems.append(f"eps={eps}: grid is not uniform on [0, 1]")
        if (ref[0], ref[-1]) != (left, right):
            problems.append(f"eps={eps}: reference misses the boundary values")
        if abs(ms[0] - left) > 1e-8 or abs(ms[-1] - right) > 1e-8:
            problems.append(f"eps={eps}: multiscale misses the boundary values")
        if np.max(np.abs(np.abs(ms - ref) - gap)) > 1e-12 or gap.max() != run["max_gap"]:
            problems.append(f"eps={eps}: gap column disagrees with the summary")
        limit = config.get("accept", {}).get("half_width_le_eps_multiple")
        if limit is not None and run["half_width"] > limit * eps:
            problems.append(f"eps={eps}: half width {run['half_width']} > {limit} eps")
    return problems


def _check_pde(config: dict, result: dict, out: Path, name: str) -> list[str]:
    if config["task"] == "phase_match":
        want = phase_matched_roots(config["kind"], config["harmonic"], config["k_range"])
        got = result["roots"]
        if len(got) != len(want) or any(abs(a - b) > 1e-10 for a, b in zip(got, want)):
            return [f"roots {got} != closed form {want}"]
        return []
    problems = []
    errors = []
    for t in config["checkpoints"]:
        data, bad = _csv(out / f"{name}_t{_fmt(t)}.csv",
                         ["x", "u_direct", "u_reconstructed", "abs_error"], result["grid_n"])
        problems += bad
        if data is not None:
            errors.append(np.linalg.norm(data[:, 1] - data[:, 2]) / np.linalg.norm(data[:, 1]))
    if problems:
        return problems
    reported = result["relative_l2_per_checkpoint"]
    if any(not _close(a, b, 1e-9) for a, b in zip(errors, reported)):
        problems.append(f"relative L2 errors {reported} != CSV {errors}")
    if errors[-1] > config["accept"]["l2_error_le"]:
        problems.append(f"final relative L2 error {errors[-1]} > {config['accept']['l2_error_le']}")
    if not result["energy_drift_rel"] <= ENERGY_DRIFT_CAP:
        problems.append(f"energy drift {result['energy_drift_rel']} > cap {ENERGY_DRIFT_CAP}")
    return problems


_CHECKS = {
    "pi": _check_pi,
    "roots": _check_roots,
    "euler": _check_euler,
    "ode": _check_ode,
    "blayer": _check_blayer,
    "pde": _check_pde,
}


def check(subcommand: str, config: dict, out: Path) -> list[str]:
    """Problems with one invocation's artifacts in ``out``; empty when correct."""
    name = config["name"]
    try:
        doc = json.loads((out / f"{name}_summary.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"summary unreadable: {exc}"]
    if doc.get("accept_failures"):
        return [f"accept failures: {doc['accept_failures']}"]
    try:
        return _CHECKS[subcommand](config, doc["result"], out, name)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed artifact: {exc!r}"]
