"""Configuration-driven command line front end.

One run is described by one JSON config file; the tool writes a JSON summary
(always) and CSV time/space series (when the subcommand produces them) into
the output directory.  Outputs are deterministic for a fixed config: CSV
floats are printed with 17 significant digits and JSON floats as their
shortest round-trip repr, so re-running a config reproduces the files byte
for byte.

::

    asymptotica <subcommand> --config cfg.json [--config more.json ...]
                 [--jobs N] [--out-dir DIR]

Subcommands: pi, roots, euler, ode, blayer, pde.  Each subcommand declares
its config keys (type and default) and the acceptance predicates a config
may list under ``"accept"``; the declaration is applied before any compute,
and an unknown key or predicate, a wrong type or an out-of-range value is a
config error.  A null value means the key's default.  The ``ode`` and
``packet_compare`` keys that the runner passes on to the library declare no
default of their own: an absent one is not passed, so the library's default
applies.  The exit status is 0 on success, 1 if any declared predicate
fails, 2 on a config error (including the library's own argument checks), 3
on a solver failure and 4 on an internal error, reported in one line
without a traceback.  ``--jobs`` fans out across independent configs only,
one worker per config at most.

Each runner loads the modules it computes with: ``dimsys`` and ``series``
inside the ``pi``, ``roots`` and ``euler`` runners, the solver modules and
numpy inside the ``ode``, ``blayer`` and ``pde`` declarations and runners, so
``pi``, ``roots`` and ``euler`` runs never import numpy and the others never
import ``dimsys``.

Every solve runs on one thread, so a CLI process gives numpy's BLAS one
thread too: :func:`main` sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1 before numpy loads, unless the caller has set
any of them or numpy is already loaded.  An idle BLAS worker would otherwise
spin on a second core.  ``--jobs`` is the way to use more cores; its pool
workers inherit the setting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import MAX_DECIMAL_EXPONENT, SolverError, _most_digits, parse_fraction

EXIT_OK = 0
EXIT_ACCEPT = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    """A config that the declared schema or the library rejects (exit 2)."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _dump_json(obj, path: Path):
    """JSON with numpy values as Python numbers; floats print as their
    shortest round-trip repr, so they reload exactly."""
    path.write_text(json.dumps(obj, indent=2, default=lambda o: o.tolist()) + "\n")


def _write_csv(path: Path, header: list[str], columns: list):
    """One row per index of the equal-length ``columns``; "%.17g" prints each
    value as ``_fmt`` does, integers of the columns included."""
    import numpy as np

    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


# --- config types -----------------------------------------------------------------
# A type maps a raw JSON value to the value a runner uses, or raises
# ValueError("must be ...").  Numbers that the summary echoes as given keep
# their int/float type; the others become floats.

def _type(what: str, test: Callable, cast: Callable | None = None) -> Callable:
    """The type of the values that pass ``test``, converted by ``cast``."""

    def parse(value):
        if not test(value):
            raise ValueError(f"must be {what}")
        return value if cast is None else cast(value)

    return parse


def _is_number(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


_number = _type("a number", _is_number)
_real = _type("a number", _is_number, float)
_positive = _type("a positive number", lambda v: _is_number(v) and v > 0)
_positive_real = _type("a positive number", lambda v: _is_number(v) and v > 0, float)
_bool = _type("true or false", lambda v: type(v) is bool)
_text = _type("a non-empty string", lambda v: isinstance(v, str) and v != "")
# output file names start with the name, so it has no directory part
_file_stem = _type("a file name", lambda v: _text(v) == Path(v).name and "\0" not in v)


def _int(lo=-math.inf, hi=math.inf) -> Callable:
    return _type(f"an integer in [{lo}, {hi}]", lambda v: type(v) is int and lo <= v <= hi)


def _one_of(*names: str) -> Callable:
    return _type(f"one of {list(names)}", lambda v: isinstance(v, str) and v in names)


def _exact(value) -> Fraction:
    """An int, a float (as its shortest decimal repr) or a fraction string,
    exactly, read by :func:`asymptotica.parse_fraction`."""
    what = "must be an integer, a float or a fraction string"
    if type(value) not in (int, float, str):
        raise ValueError(what)
    try:
        return parse_fraction(str(value))
    except ValueError as exc:
        raise ValueError(f"{what} ({exc})") from None


def _exact_float(value) -> float:
    """An exact value (see ``_exact``) rounded to a finite float."""
    try:
        return float(_exact(value))
    except OverflowError:
        raise ValueError(f"must be within the float range, got {value!r}") from None


def _each(item: Callable, container: type = list, min_len=0, max_len=math.inf) -> Callable:
    """A list (or an object, with ``container=dict``) of ``item`` values."""

    def parse(value):
        if type(value) is not container or not min_len <= len(value) <= max_len:
            raise ValueError(f"must be a {container.__name__} of length in [{min_len}, {max_len}]")
        try:
            if container is dict:
                return {k: item(v) for k, v in value.items()}
            return [item(v) for v in value]
        except ValueError as exc:
            raise ValueError(f"entries {exc}") from None

    return parse


def _eps_sweep(member: Callable = _real) -> Callable:
    """One eps or a list of ``member`` values; runs and CSV files are keyed by eps."""

    def parse(value) -> list[float]:
        values = _each(member, list, 1)(value if isinstance(value, list) else [value])
        if len(set(values)) != len(values):
            raise ValueError(f"values must be distinct, got {values}")
        return values

    return parse


def _increasing(item: Callable, min_len=1, max_len=math.inf) -> Callable:
    """A strictly increasing list of ``item`` values."""

    def parse(value) -> list[float]:
        values = _each(item, list, min_len, max_len)(value)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"must strictly increase, got {values}")
        return values

    return parse


# snapshot times; CSV files are keyed by time, so they strictly increase
_checkpoints = _increasing(_positive_real)


# --- schema -------------------------------------------------------------------------

_REQUIRED = object()


class Key(NamedTuple):
    """A config key: its type and its default (None: absent unless given)."""

    type: Callable
    default: object = None


_TESTS = {
    "le": lambda got, want, tol: got <= want,
    "eq": lambda got, want, tol: got == want,
    "all": lambda got, want, tol: not want or all(got),
    "near": lambda got, want, tol: len(got) == len(want)
    and all(abs(a - b) <= tol for a, b in zip(sorted(want), got)),
}


class Accept(NamedTuple):
    """An accept predicate: the type of its value, the run field it checks and how.

    Tests: ``le`` field <= value (times the run's ``per`` field when given);
    ``eq`` field == value; ``all`` every entry of the field is true when the
    value is true; ``near`` field == sorted value within the ``tol`` entry.
    A Key among the predicates is a parameter of another one.  A failure
    is reported by formatting ``message`` with the run's fields, ``label``
    (the run's eps in a sweep), ``field``, ``got``, ``want`` and ``tol``.
    """

    type: Callable
    field: str
    test: str
    message: str = "{label}{field} {got} > {want}"
    per: str | None = None
    default: object = None  # checked only when the config lists it


class Schema(NamedTuple):
    """The keys and accept predicates of one subcommand's config.

    ``variant`` maps the config typed so far to a further Schema (or None)
    whose keys and predicates apply on top of these; it may raise ValueError
    for a typed config the library rejects, so that no run starts.
    """

    keys: dict
    accept: dict = {}
    variant: Callable = lambda cfg: None


def _typed(declared: dict, given: dict, where: str, prefix: str = "") -> dict:
    """The typed values of the declared entries; a null or absent one takes its default."""
    typed = {}
    for key, entry in declared.items():
        value = entry.default if given.get(key) is None else given[key]
        if value is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {prefix + key!r}")
        try:
            if value is not None:
                typed[key] = entry.type(value)
        except ValueError as exc:
            default = "" if given.get(key) is not None else f" (default {value!r})"
            raise ConfigError(f"{where}: {prefix}{key}{default} {exc}") from None
    return typed


def _apply(schema: Schema, config, where: str) -> tuple[dict, dict, dict]:
    """The typed config, the typed accept values and the declared predicates.

    Raises ConfigError on an unknown key or predicate and on a value its type
    rejects, before any compute.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"{where}: config must be a JSON object")
    keys = {"name": Key(_file_stem), "accept": Key(_each(lambda v: v, dict), {})}
    cfg, predicates = _typed(keys, config, where), {}
    accept = cfg.pop("accept")
    while schema is not None:
        keys.update(schema.keys)
        predicates.update(schema.accept)
        cfg.update(_typed(schema.keys, config, where))
        schema = schema.variant(cfg)
    for given, declared, what in ((config, keys, "keys"),
                                  (accept, predicates, "accept predicates")):
        if set(given) - set(declared):
            raise ConfigError(f"{where}: unknown {what} {sorted(set(given) - set(declared))}")
    return cfg, _typed(predicates, accept, where, "accept "), predicates


def _failures(predicates: dict, want: dict, runs: list[dict]) -> list[str]:
    """The messages of the listed predicates that fail, run by run."""
    failures = []
    for run in runs:
        label = f"eps={run['eps']}: " if "eps" in run else ""
        for key, pred in predicates.items():
            if not isinstance(pred, Accept) or key not in want:
                continue
            got, limit = run[pred.field], want[key] * run[pred.per] if pred.per else want[key]
            if not _TESTS[pred.test](got, limit, want.get("tol")):
                failures.append(pred.message.format(
                    **run, label=label, field=pred.field, got=got, want=limit, tol=want.get("tol")
                ))
    return failures


def _sweep(cfg: dict, run: Callable) -> list:
    """``run(eps)`` over the eps sweep, shuffled by the seed; results in config order."""
    eps_values = cfg["eps"]
    order = list(range(len(eps_values)))
    if "seed" in cfg and len(eps_values) > 1:
        import numpy as np

        np.random.default_rng(cfg["seed"]).shuffle(order)
    results = {i: run(eps_values[i]) for i in order}
    return [results[i] for i in range(len(eps_values))]


# --- subcommands: declaration and runner ------------------------------------------
# A runner takes the typed config, the output directory and the output name
# and returns the summary plus the runs the accept predicates check.

_PI = Schema(
    keys={
        "base": Key(_text, _REQUIRED),
        "quantities": Key(_each(_text, dict), _REQUIRED),
        "membership": Key(_each(_each(_exact, dict), dict), {}),
    },
    accept={
        "group_count": Accept(_int(0), "group_count", "eq", "group_count {got} != {want}"),
        "membership_all": Accept(
            _bool, "in_span", "all", "a membership target is outside the group span"
        ),
    },
)


def _run_pi(cfg: dict, out: Path, name: str) -> tuple[dict, list[dict]]:
    from . import dimsys

    qs = dimsys.quantity_set(cfg["base"].split(), cfg["quantities"].items())
    groups = dimsys.pi_groups(qs)
    _check_digits(sum(groups, ()), "pi: the quantities' group basis", "exponents",
                  "shorten the quantities' exponents")
    membership = {}
    for label, exponents in cfg["membership"].items():
        coeffs = dimsys.group_membership(qs, exponents)
        _check_digits(coeffs or (), f"pi: membership {label!r}", "coefficients",
                      "shorten its exponents")
        membership[label] = {
            "in_span": coeffs is not None,
            "coefficients": None if coeffs is None else [str(c) for c in coeffs],
        }
    summary = {
        "quantities": list(qs.names),
        "group_count": len(groups),
        "groups": [
            {k: str(v) for k, v in zip(qs.names, g) if v != 0} for g in groups
        ],
        "membership": membership,
    }
    return summary, [dict(summary, in_span=[m["in_span"] for m in membership.values()])]


def _roots_mode(number: Callable, coefficient: Callable | None = None) -> Schema:
    """Family and root parsed as ``number``; expected coefficients as
    ``coefficient`` (default ``number``), the form the summary prints."""
    return Schema(
        keys={"family": Key(_each(_each(number)), _REQUIRED), "root": Key(number, _REQUIRED)},
        accept={"coefficients": Accept(
            _each(coefficient or number), "coefficients", "eq",
            "coefficients {got} != expected {want}",
        )},
    )


def _check_digits(numbers, subject: str, noun: str, hint: str) -> None:
    """A config error naming ``subject`` when exact ``numbers`` would print with more
    digits than Python's int-to-str limit allows."""
    need = _most_digits(numbers)
    if need > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"{subject} needs {need}-digit {noun}, above the limit of "
                         f"{MAX_DECIMAL_EXPONENT}: {hint}")


_ROOTS = Schema(
    keys={
        # each order re-evaluates the family on the series so far; 100 takes about 2 s
        "order": Key(_int(0, 64), _REQUIRED),
        "mode": Key(_one_of("exact", "float"), "exact"),
        "rescale_exponent": Key(_exact),
    },
    variant=lambda cfg: {
        "exact": _roots_mode(_exact, lambda c: str(_exact(c))),
        "float": _roots_mode(_exact_float),
    }[cfg["mode"]],
)


def _run_roots(cfg: dict, out: Path, name: str) -> tuple[dict, list[dict]]:
    from . import series

    family = series.PolyFamily.from_coefficients(cfg["family"])
    if "rescale_exponent" in cfg:
        family = series.rescale_singular(family, cfg["rescale_exponent"])
    expansion = series.expand_root(family, cfg["root"], cfg["order"])
    exact = cfg["mode"] == "exact"
    summary = {
        "mode": cfg["mode"],
        "order": cfg["order"],
        "eps_denominator": family.eps_denominator,
        "coefficients": [str(c) if exact else float(c) for c in expansion.coefficients],
    }
    return summary, [summary]


# on (0, 1] every partial sum and remainder bound with m <= 169 is a finite
# float; above m = 169, (m+1)! in the bound overflows one
_unit_eps = _type("a number in (0, 1]", lambda v: _is_number(v) and 0 < v <= 1, float)

_EULER = Schema(
    keys={
        "eps_values": Key(_each(_unit_eps), _REQUIRED),
        "m_values": Key(_each(_int(0, 169)), _REQUIRED),
        # the error the caller accepts, echoed in the summary: f comes back
        # correctly rounded, so it meets any quad_tol >= 1e-15
        "quad_tol": Key(_positive, 1e-12),
    },
    accept={"bound_holds": Accept(_bool, "within_bound", "all", "remainder bound violated")},
)


def _run_euler(cfg: dict, out: Path, name: str) -> tuple[dict, list[dict]]:
    from . import series

    rows = []
    for eps in cfg["eps_values"]:
        f_val = series.euler_f(eps)
        for m in cfg["m_values"]:
            s_val = float(series.euler_partial_sum(eps, m))
            bound = series.euler_remainder_bound(eps, m)
            rows.append(
                {
                    "eps": eps,
                    "m": m,
                    "f": f_val,
                    "partial_sum": s_val,
                    "abs_error": abs(f_val - s_val),
                    "bound": bound,
                    "within_bound": abs(f_val - s_val) <= bound,
                }
            )
    within = [r["within_bound"] for r in rows]
    summary = {"quad_tol": cfg["quad_tol"], "rows": rows, "all_within_bound": all(within)}
    return summary, [{"within_bound": within}]


def _ode_keys() -> Schema:
    from . import msode

    return Schema(
        keys={
            "case": Key(_one_of(*msode.case_names()), _REQUIRED),
            "eps": Key(_eps_sweep(), _REQUIRED),
            "seed": Key(_int(0)),
            "horizon": Key(_positive),
            "horizon_exponent": Key(_int()),
            "terms": Key(_int(1, 2)),
            "rtol": Key(_positive),
            "atol": Key(_positive),
            "ics": Key(_each(_number)),
            "n_samples": Key(_int(2, 2**20)),
        },
        accept={
            "max_abs_error_le": Accept(_positive, "max_abs_error", "le"),
            "l2_error_le": Accept(_positive, "l2_error", "le"),
        },
        variant=_ode_case,
    )


def _ode_case(cfg: dict) -> Schema | None:
    from . import msode

    case = msode.catalog(cfg["case"])
    for eps in cfg["eps"]:  # every member's horizon, before the first one runs
        msode.resolve_horizon(case, eps, cfg.get("horizon_exponent"), cfg.get("horizon"))
    return Schema({"include_naive": Key(_bool, False)}) if case.name == "damped_linear" else None


# the case list is msode's, read when an ode config is typed
_ODE = Schema(keys={}, variant=lambda cfg: _ode_keys())


def _run_ode(cfg: dict, out: Path, name: str) -> tuple[dict, list[dict]]:
    import numpy as np

    from . import msode

    case = msode.catalog(cfg["case"])
    # the other keys are keyword arguments of msode.compare
    cli_keys = ("name", "case", "eps", "seed", "include_naive")
    args = {k: v for k, v in cfg.items() if k not in cli_keys}

    def run(eps: float) -> dict:
        report = msode.compare(case, eps, **args)
        paths = report.stats.pop("trajectories")
        y_direct, y_ms = paths["y_direct"], paths["y_multiscale"]
        suffix = f"_eps{_fmt(eps)}" if len(cfg["eps"]) > 1 else ""
        n = case.n_components
        header = ["t", "y_direct", "y_multiscale", "abs_error"]
        columns = [np.tile(report.t, n), y_direct.ravel(), y_ms.ravel(), report.error.ravel()]
        if n > 1:  # systems get a leading component column
            header = ["component", *header]
            columns = [np.repeat(np.arange(n), len(report.t)), *columns]
        _write_csv(out / f"{name}{suffix}.csv", header, columns)
        if cfg.get("include_naive"):
            naive = msode.naive_damped_expansion(report.t, eps)
            _write_csv(
                out / f"{name}{suffix}_naive.csv",
                ["t", "y_direct", "y_naive", "abs_error"],
                [report.t, y_direct[0], naive, np.abs(y_direct[0] - naive)],
            )
        return {
            "eps": eps,
            "horizon": report.horizon,
            "max_abs_error": report.max_abs_error,
            "l2_error": report.l2_error,
            "stats": report.stats,
        }

    runs = _sweep(cfg, run)
    return {"case": case.name, "runs": runs}, runs


def _blayer_kind(cfg: dict) -> Schema:
    """The eps range of each layer kind, read from blayer, so that no member
    of a sweep fails after the others have run."""
    from . import blayer

    if cfg["kind"] == "linear":
        floor = blayer.LINEAR_EPS_FLOOR
        eps = _type(f"a number in [{floor}, 1)", lambda v: _is_number(v) and floor <= v < 1, float)
        return Schema({"eps": Key(_eps_sweep(eps), _REQUIRED)}, {
            "half_width_le_eps_multiple": Accept(_positive, "half_width", "le", per="eps"),
        })
    top = blayer.NONLINEAR_EPS_MAX
    eps = _type(f"a number in (0, {top}]", lambda v: _is_number(v) and 0 < v <= top, float)
    return Schema({"eps": Key(_eps_sweep(eps), _REQUIRED), "shoot_tol": Key(_positive, 1e-10)})


_BLAYER = Schema(
    keys={
        "kind": Key(_one_of("linear", "nonlinear"), _REQUIRED),
        "n_grid": Key(_int(64, 2**20), 8192),
        "seed": Key(_int(0)),
    },
    accept={"max_gap_le": Accept(_positive, "max_gap", "le")},
    variant=_blayer_kind,
)


def _run_blayer(cfg: dict, out: Path, name: str) -> tuple[dict, list[dict]]:
    import numpy as np

    from . import blayer

    def run(eps: float) -> dict:
        x, y_ref = blayer.solve_bvp_fd(cfg["kind"], eps, cfg["n_grid"])
        if cfg["kind"] == "linear":
            y_ms = blayer.linear_blayer_multiscale(x, eps)
            extra = {"half_width": blayer.layer_half_width(x, y_ref)}
        else:
            sol = blayer.nonlinear_blayer_multiscale(eps, cfg["shoot_tol"])
            y_ms = sol(x)
            extra = {"b0": sol.b0, "newton_iterations": sol.iterations}
        gap = np.abs(y_ms - y_ref)
        _write_csv(
            out / f"{name}_eps{_fmt(eps)}.csv",
            ["x", "y_multiscale", "y_reference", "abs_error"],
            [x, np.asarray(y_ms, dtype=float), y_ref, gap],
        )
        return {"eps": eps, "max_gap": float(gap.max()), **extra}

    runs = _sweep(cfg, run)
    return {"kind": cfg["kind"], "n_grid": cfg["n_grid"], "runs": runs}, runs


# the model list is mspde's, read when a pde config is typed
_PDE = Schema(
    keys={"task": Key(_one_of("phase_match", "packet_compare"), _REQUIRED)},
    variant=lambda cfg: _pde_keys(),
)


def _pde_keys() -> Schema:
    from . import mspde

    return Schema(
        keys={"kind": Key(_one_of(*mspde.dispersion_kinds()), "klein_gordon")},
        variant=lambda cfg: _pde_task(cfg["task"], mspde.dispersion(cfg["kind"]).max_order),
    )


def _pde_task(task: str, max_order: int) -> Schema:
    return {
        "phase_match": Schema(
            keys={
                "harmonic": Key(_int(2, 3), 3),
                "k_range": Key(_increasing(_real, 2, 2), [0.1, 2.0]),
            },
            accept={
                "roots": Accept(_each(_number), "roots", "near",
                                "roots {got} != expected {want} (tol {tol})"),
                "tol": Key(_positive, 1e-10),  # a parameter of "roots"
            },
        ),
        "packet_compare": Schema(  # keyword arguments of mspde.packet_compare
            keys={
                "eps": Key(_real, 0.1),
                "k": Key(_positive_real, 1.0),
                "amplitude": Key(_number),
                "sigma_wavelengths": Key(_number),
                "checkpoints": Key(_checkpoints),
                "dt": Key(_positive),
                "rtol": Key(_positive),
                "points_per_wavelength": Key(_int(1)),
                "order": Key(_int(0, max_order), 1),
            },
            accept={
                "l2_error_le": Accept(_positive, "l2_error", "le"),
                "monotone_growth": Accept(_bool, "rising", "all",
                                          "checkpoint errors not monotone: {errors}"),
            },
        ),
    }[task]


def _run_pde(cfg: dict, out: Path, name: str) -> tuple[dict, list[dict]]:
    import numpy as np

    from . import mspde

    if cfg["task"] == "phase_match":
        roots = mspde.find_phase_matched(
            mspde.dispersion(cfg["kind"]), cfg["harmonic"], cfg["k_range"]
        )
        summary = {"task": "phase_match", "kind": cfg["kind"],
                   "harmonic": cfg["harmonic"], "roots": roots}
        return summary, [summary]

    args = {k: v for k, v in cfg.items() if k not in ("name", "task")}
    report = mspde.packet_compare(**args)
    fields = report.stats.pop("fields")
    for snap in fields["snapshots"]:
        _write_csv(
            out / f"{name}_t{_fmt(snap['t'])}.csv",
            ["x", "u_direct", "u_reconstructed", "abs_error"],
            [fields["x"], snap["direct"], snap["reconstructed"],
             np.abs(snap["direct"] - snap["reconstructed"])],
        )
    summary = {
        "task": "packet_compare",
        "kind": cfg["kind"],
        "eps": cfg["eps"],
        "k": cfg["k"],
        "order": cfg["order"],
        "checkpoints": report.t.tolist(),
    }
    for key in ("relative_l2_per_checkpoint", "energy_drift_rel", "envelope_l2_drift_rel",
                "grid_n", "envelope_grid_n", "domain_length", "direct_modes", "nfev_direct"):
        summary[key] = report.stats[key]
    errors = summary["relative_l2_per_checkpoint"]
    rising = [b > a for a, b in zip(errors, errors[1:])]
    return summary, [{"l2_error": report.l2_error, "rising": rising, "errors": errors}]


_SUBCOMMANDS = {
    "pi": (_PI, _run_pi),
    "roots": (_ROOTS, _run_roots),
    "euler": (_EULER, _run_euler),
    "ode": (_ODE, _run_ode),
    "blayer": (_BLAYER, _run_blayer),
    "pde": (_PDE, _run_pde),
}


def _solver_errors() -> tuple:
    """SolverError, and numpy's LinAlgError once numpy is loaded: a run that
    never loaded numpy cannot have raised it."""
    numpy = sys.modules.get("numpy")
    return (SolverError,) if numpy is None else (SolverError, numpy.linalg.LinAlgError)


def run_one(subcommand: str, config_path: str, out_dir: str) -> int:
    path, out = Path(config_path), Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        try:
            config = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        schema, runner = _SUBCOMMANDS[subcommand]
        cfg, want, predicates = _apply(schema, config, subcommand)
        name = cfg.get("name", path.stem)
        summary, runs = runner(cfg, out, name)
        failures = _failures(predicates, want, runs)
        summary_doc = {
            "subcommand": subcommand,
            "config": config,
            "result": summary,
            "accept_failures": failures,
        }
        _dump_json(summary_doc, out / f"{name}_summary.json")
    except _solver_errors() as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    for f in failures:
        print(f"accept: {f}", file=sys.stderr)
    return EXIT_ACCEPT if failures else EXIT_OK


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported when a run first fans out.

    A module-level name, so ``--jobs 1`` runs never load concurrent.futures.
    """
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread():
    """One BLAS thread for the numpy this process is about to load.

    BLAS reads these variables once, when numpy loads, so a loaded numpy
    keeps its pool; a caller's own setting of any of them is left as it is.
    """
    if "numpy" in sys.modules or any(v in os.environ for v in _THREAD_VARIABLES):
        return
    for variable in _THREAD_VARIABLES:
        os.environ[variable] = "1"


def main(argv=None) -> int:
    _one_blas_thread()
    parser = argparse.ArgumentParser(
        prog="asymptotica",
        description="dimensional analysis, perturbation expansions and "
        "multiple-scales runs, driven by JSON configs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for cmd in _SUBCOMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", action="append", required=True,
                       help="JSON config file (repeatable)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers across configs (at most one per config)")
        p.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    configs = args.config
    workers = min(args.jobs, len(configs))  # a process pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(
                pool.map(run_one, [args.subcommand] * len(configs), configs,
                         [args.out_dir] * len(configs))
            )
        return max(codes)
    return max(run_one(args.subcommand, c, args.out_dir) for c in configs)


if __name__ == "__main__":
    sys.exit(main())
