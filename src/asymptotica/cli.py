"""Configuration-driven command line front end.

One run is described by one JSON config file; the tool writes a JSON summary
(always) and CSV time/space series (when the subcommand produces them) into
the output directory.  Outputs are deterministic for a fixed config: floats
are printed with 17 significant digits so re-running a config reproduces the
files byte for byte.

::

    asymptotica <subcommand> --config cfg.json [--config more.json ...]
                 [--jobs N] [--out-dir DIR]

Subcommands: pi, roots, euler, ode, blayer, pde.  A config may declare
acceptance predicates under ``"accept"``; the exit status is 0 on success,
1 if any declared predicate fails, 2 on a config error and 3 on a solver
failure.  ``--jobs`` fans out across independent configs only.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import blayer, dimsys, mspde, msode, series
from .msode import SolverError

EXIT_OK = 0
EXIT_ACCEPT = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _dump_json(obj, path: Path):
    """JSON with every float printed to 17 significant digits."""

    def walk(o):
        if isinstance(o, float):
            return float(_fmt(o))
        if isinstance(o, dict):
            return {k: walk(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [walk(v) for v in o]
        if isinstance(o, (np.floating, np.integer)):
            return walk(o.item())
        if isinstance(o, np.ndarray):
            return walk(o.tolist())
        if isinstance(o, Fraction):
            return str(o)
        return o

    path.write_text(json.dumps(walk(obj), indent=2) + "\n")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    rows = len(columns[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(c[i]) for c in columns) + "\n")


def _validate(config: dict, required: dict, optional: dict, where: str) -> dict:
    if not isinstance(config, dict):
        raise ConfigError(f"{where}: config must be a JSON object")
    allowed = set(required) | set(optional) | {"name", "seed", "accept"}
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in config:
            raise ConfigError(f"{where}: missing required key {key!r}")
    merged = dict(optional)
    merged.update(config)
    for key, value in merged.items():
        if key in ("name", "accept"):
            continue
        if key == "seed" and value is not None and not isinstance(value, int):
            raise ConfigError(f"{where}: seed must be an integer")
    accept = merged.get("accept", {})
    if accept is not None and not isinstance(accept, dict):
        raise ConfigError(f"{where}: accept must be an object")
    for key in ("rtol", "atol", "shoot_tol", "quad_tol", "newton_tol", "dt"):
        value = merged.get(key)
        if value is not None and (type(value) not in (int, float) or value <= 0):
            raise ConfigError(f"{where}: {key} must be a positive number")
    return merged


def _eps_list(cfg: dict, where: str) -> list[float]:
    """The eps sweep of a config (a single eps is a sweep of one), as floats.

    Runs and their CSV files are keyed by eps, so repeated values are rejected.
    """
    values = cfg["eps"] if isinstance(cfg["eps"], list) else [cfg["eps"]]
    try:
        values = [float(e) for e in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: eps must be a number or a list of numbers") from None
    if len(set(values)) != len(values):
        raise ConfigError(f"{where}: eps values must be distinct, got {values}")
    return values


def _sweep_order(values: list, seed) -> list:
    order = list(range(len(values)))
    if seed is not None and len(values) > 1:
        np.random.default_rng(seed).shuffle(order)
    return order


# --- subcommand runners ---------------------------------------------------------


def _run_pi(config: dict, out: Path, name: str) -> tuple[dict, list[str]]:
    cfg = _validate(
        config,
        required={},
        optional={"fixture": None, "base": None, "quantities": None,
                  "membership": {}},
        where="pi",
    )
    if cfg["fixture"] is not None:
        text = Path(cfg["fixture"]).read_text()
        qs = dimsys.parse_quantity_set(text)
    elif cfg["base"] is not None and cfg["quantities"] is not None:
        lines = [f"base: {cfg['base']}"]
        lines += [f"{k}: {v}" for k, v in cfg["quantities"].items()]
        qs = dimsys.parse_quantity_set("\n".join(lines))
    else:
        raise ConfigError("pi: give either 'fixture' or 'base' + 'quantities'")
    groups = dimsys.pi_groups(qs)
    membership = {}
    for label, target in (cfg["membership"] or {}).items():
        exponents = {k: Fraction(str(v)) for k, v in target.items()}
        coeffs = dimsys.group_membership(qs, exponents)
        membership[label] = {
            "in_span": coeffs is not None,
            "coefficients": None if coeffs is None else [str(c) for c in coeffs],
        }
    summary = {
        "quantities": list(qs.names),
        "group_count": len(groups),
        "groups": [
            {k: str(v) for k, v in g.as_mapping().items() if v != 0} for g in groups
        ],
        "membership": membership,
    }
    failures = []
    accept = cfg.get("accept") or {}
    if "group_count" in accept and accept["group_count"] != len(groups):
        failures.append(f"group_count {len(groups)} != {accept['group_count']}")
    if accept.get("membership_all") and not all(
        m["in_span"] for m in membership.values()
    ):
        failures.append("a membership target is outside the group span")
    return summary, failures


def _parse_exact(value):
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    return value


def _run_roots(config: dict, out: Path, name: str) -> tuple[dict, list[str]]:
    cfg = _validate(
        config,
        required={"family": None, "root": None, "order": None},
        optional={"mode": "exact", "rescale_exponent": None},
        where="roots",
    )
    exact = cfg["mode"] == "exact"
    parse = _parse_exact if exact else float
    family = series.PolyFamily.from_coefficients(
        [[parse(c) for c in coeff] for coeff in cfg["family"]]
    )
    if cfg["rescale_exponent"] is not None:
        family = series.rescale_singular(family, Fraction(str(cfg["rescale_exponent"])))
    root = parse(cfg["root"])
    expansion = series.expand_root(family, root, int(cfg["order"]))
    coeffs = [str(c) if exact else float(c) for c in expansion.coefficients]
    summary = {
        "mode": cfg["mode"],
        "order": int(cfg["order"]),
        "eps_denominator": family.eps_denominator,
        "coefficients": coeffs,
    }
    failures = []
    accept = cfg.get("accept") or {}
    if "coefficients" in accept:
        want = [str(_parse_exact(c)) if exact else float(c) for c in accept["coefficients"]]
        if want != coeffs:
            failures.append(f"coefficients {coeffs} != expected {want}")
    return summary, failures


def _run_euler(config: dict, out: Path, name: str) -> tuple[dict, list[str]]:
    cfg = _validate(
        config,
        required={"eps_values": None, "m_values": None},
        optional={"quad_tol": 1e-12},
        where="euler",
    )
    rows = []
    all_within = True
    for eps in cfg["eps_values"]:
        f_val = series.euler_f(float(eps), cfg["quad_tol"])
        for m in cfg["m_values"]:
            s_val = float(series.euler_partial_sum(float(eps), int(m)))
            bound = series.euler_remainder_bound(float(eps), int(m))
            within = abs(f_val - s_val) <= bound
            all_within = all_within and within
            rows.append(
                {
                    "eps": float(eps),
                    "m": int(m),
                    "f": f_val,
                    "partial_sum": s_val,
                    "abs_error": abs(f_val - s_val),
                    "bound": bound,
                    "within_bound": within,
                }
            )
    summary = {"quad_tol": cfg["quad_tol"], "rows": rows, "all_within_bound": all_within}
    failures = []
    accept = cfg.get("accept") or {}
    if accept.get("bound_holds") and not all_within:
        failures.append("remainder bound violated")
    return summary, failures


def _run_ode(config: dict, out: Path, name: str) -> tuple[dict, list[str]]:
    cfg = _validate(
        config,
        required={"case": None, "eps": None},
        optional={
            "horizon": None,
            "horizon_exponent": None,
            "terms": 2,
            "rtol": 1e-10,
            "atol": 1e-12,
            "ics": None,
            "n_samples": 2048,
            "use_closed_form": False,
            "include_naive": False,
        },
        where="ode",
    )
    if (cfg["horizon"] is None) == (cfg["horizon_exponent"] is None):
        raise ConfigError("ode: give exactly one of 'horizon' and 'horizon_exponent'")
    if cfg["case"] not in msode.case_names():
        raise ConfigError(f"ode: unknown case {cfg['case']!r}; known: {msode.case_names()}")
    eps_values = _eps_list(cfg, "ode")
    if cfg["horizon_exponent"] is not None and any(e == 0 for e in eps_values):
        raise ConfigError("ode: eps = 0 needs an explicit 'horizon'")
    case = msode.catalog(cfg["case"])
    runs = {}
    for idx in _sweep_order(eps_values, cfg.get("seed")):
        eps = eps_values[idx]
        runs[eps] = msode.compare(
            case,
            eps,
            None if cfg["horizon_exponent"] is None else int(cfg["horizon_exponent"]),
            horizon=cfg["horizon"],
            rtol=cfg["rtol"],
            atol=cfg["atol"],
            terms=int(cfg["terms"]),
            ics=cfg["ics"],
            n_samples=int(cfg["n_samples"]),
            use_closed_form=cfg["use_closed_form"],
            keep_trajectories=True,
        )
    summary = {"case": case.name, "runs": []}
    failures = []
    accept = cfg.get("accept") or {}
    for eps in eps_values:
        report = runs[eps]
        paths = report.stats.pop("trajectories")
        y_direct, y_ms = paths["y_direct"], paths["y_multiscale"]
        suffix = f"_eps{_fmt(eps)}" if len(eps_values) > 1 else ""
        if case.n_components == 1:
            _write_csv(
                out / f"{name}{suffix}.csv",
                ["t", "y_direct", "y_multiscale", "abs_error"],
                [report.t, y_direct[0], y_ms[0], report.error[0]],
            )
        else:
            comp = np.repeat(np.arange(case.n_components), len(report.t))
            _write_csv(
                out / f"{name}{suffix}.csv",
                ["component", "t", "y_direct", "y_multiscale", "abs_error"],
                [
                    comp,
                    np.tile(report.t, case.n_components),
                    y_direct.ravel(),
                    y_ms.ravel(),
                    report.error.ravel(),
                ],
            )
        if cfg["include_naive"] and case.name == "damped_linear":
            naive = msode.naive_damped_expansion(report.t, eps)
            _write_csv(
                out / f"{name}{suffix}_naive.csv",
                ["t", "y_direct", "y_naive", "abs_error"],
                [report.t, y_direct[0], naive, np.abs(y_direct[0] - naive)],
            )
        summary["runs"].append(
            {
                "eps": eps,
                "horizon": report.horizon,
                "max_abs_error": report.max_abs_error,
                "l2_error": report.l2_error,
                "stats": report.stats,
            }
        )
        if "max_abs_error_le" in accept and report.max_abs_error > accept["max_abs_error_le"]:
            failures.append(
                f"eps={eps}: max_abs_error {report.max_abs_error} > {accept['max_abs_error_le']}"
            )
        if "l2_error_le" in accept and report.l2_error > accept["l2_error_le"]:
            failures.append(
                f"eps={eps}: l2_error {report.l2_error} > {accept['l2_error_le']}"
            )
    return summary, failures


def _run_blayer(config: dict, out: Path, name: str) -> tuple[dict, list[str]]:
    cfg = _validate(
        config,
        required={"kind": None, "eps": None},
        optional={"n_grid": 8192, "shoot_tol": 1e-10},
        where="blayer",
    )
    eps_values = _eps_list(cfg, "blayer")
    results = {}
    for idx in _sweep_order(eps_values, cfg.get("seed")):
        eps = eps_values[idx]
        if cfg["kind"] == "linear":
            problem = blayer.linear_problem(eps)
            x, y_ref = blayer.solve_bvp_fd(problem, int(cfg["n_grid"]))
            y_ms = blayer.linear_blayer_multiscale(x, eps)
            extra = {"half_width": blayer.layer_half_width(x, y_ref)}
        elif cfg["kind"] == "nonlinear":
            problem = blayer.nonlinear_problem(eps)
            x, y_ref = blayer.solve_bvp_fd(problem, int(cfg["n_grid"]))
            sol = blayer.nonlinear_blayer_multiscale(eps, cfg["shoot_tol"])
            y_ms = sol(x)
            extra = {"b0": sol.b0, "newton_iterations": sol.iterations}
        else:
            raise ConfigError(f"blayer: unknown kind {cfg['kind']!r}")
        gap = np.abs(y_ms - y_ref)
        _write_csv(
            out / f"{name}_eps{_fmt(eps)}.csv",
            ["x", "y_multiscale", "y_reference", "abs_error"],
            [x, np.asarray(y_ms, dtype=float), y_ref, gap],
        )
        results[eps] = {"eps": eps, "max_gap": float(gap.max()), **extra}
    summary = {"kind": cfg["kind"], "n_grid": int(cfg["n_grid"]),
               "runs": [results[e] for e in eps_values]}
    failures = []
    accept = cfg.get("accept") or {}
    for run in summary["runs"]:
        if "max_gap_le" in accept and run["max_gap"] > accept["max_gap_le"]:
            failures.append(f"eps={run['eps']}: max_gap {run['max_gap']} > {accept['max_gap_le']}")
        if "half_width_le_eps_multiple" in accept:
            limit = accept["half_width_le_eps_multiple"] * run["eps"]
            if run.get("half_width", 0.0) > limit:
                failures.append(f"eps={run['eps']}: half_width {run['half_width']} > {limit}")
    return summary, failures


def _run_pde(config: dict, out: Path, name: str) -> tuple[dict, list[str]]:
    cfg = _validate(
        config,
        required={"task": None},
        optional={
            "kind": "klein_gordon",
            "eps": 0.1,
            "k": 1.0,
            "amplitude": 0.5,
            "sigma_wavelengths": 10.0,
            "order": 1,
            "checkpoints": None,
            "dt": 0.02,
            "rtol": 1e-9,
            "points_per_wavelength": 16,
            "harmonic": 3,
            "k_range": [0.1, 2.0],
        },
        where="pde",
    )
    failures = []
    accept = cfg.get("accept") or {}
    try:
        model = mspde.dispersion(cfg["kind"])
    except (KeyError, TypeError):
        raise ConfigError(f"pde: unknown kind {cfg['kind']!r}") from None
    if cfg["task"] == "phase_match":
        roots = mspde.find_phase_matched(
            model, int(cfg["harmonic"]), tuple(cfg["k_range"])
        )
        summary = {"task": "phase_match", "kind": cfg["kind"],
                   "harmonic": int(cfg["harmonic"]), "roots": roots}
        if "roots" in accept:
            tol = accept.get("tol", 1e-10)
            want = accept["roots"]
            ok = len(want) == len(roots) and all(
                abs(a - b) <= tol for a, b in zip(sorted(want), roots)
            )
            if not ok:
                failures.append(f"roots {roots} != expected {want} (tol {tol})")
        return summary, failures
    if cfg["task"] != "packet_compare":
        raise ConfigError(f"pde: unknown task {cfg['task']!r}")

    eps = float(cfg["eps"])
    if cfg["checkpoints"] is None and eps <= 0:
        raise ConfigError("pde: eps = 0 needs explicit 'checkpoints'")
    checkpoints = cfg["checkpoints"] or [1.0 / eps]
    report = mspde.packet_compare(
        eps,
        float(cfg["k"]),
        amplitude=float(cfg["amplitude"]),
        sigma_wavelengths=float(cfg["sigma_wavelengths"]),
        order=int(cfg["order"]),
        checkpoints=[float(t) for t in checkpoints],
        dt=float(cfg["dt"]),
        rtol=float(cfg["rtol"]),
        kind=cfg["kind"],
        points_per_wavelength=int(cfg["points_per_wavelength"]),
        keep_fields=True,
    )
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
        "eps": eps,
        "k": float(cfg["k"]),
        "order": int(cfg["order"]),
        "checkpoints": [float(t) for t in checkpoints],
        "relative_l2_per_checkpoint": report.stats["relative_l2_per_checkpoint"],
        "energy_drift_rel": report.stats["energy_drift_rel"],
        "envelope_l2_drift_rel": report.stats["envelope_l2_drift_rel"],
        "grid_n": report.stats["grid_n"],
        "domain_length": report.stats["domain_length"],
    }
    if "l2_error_le" in accept and report.l2_error > accept["l2_error_le"]:
        failures.append(f"l2_error {report.l2_error} > {accept['l2_error_le']}")
    if accept.get("monotone_growth"):
        errs = report.stats["relative_l2_per_checkpoint"]
        if any(b <= a for a, b in zip(errs, errs[1:])):
            failures.append(f"checkpoint errors not monotone: {errs}")
    return summary, failures


_RUNNERS = {
    "pi": _run_pi,
    "roots": _run_roots,
    "euler": _run_euler,
    "ode": _run_ode,
    "blayer": _run_blayer,
    "pde": _run_pde,
}


def run_one(subcommand: str, config_path: str, out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = Path(config_path)
    try:
        config = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    name = config.get("name", path.stem) if isinstance(config, dict) else path.stem
    try:
        summary, failures = _RUNNERS[subcommand](config, out, name)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ValueError, KeyError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    summary_doc = {
        "subcommand": subcommand,
        "config": config,
        "result": summary,
        "accept_failures": failures,
    }
    _dump_json(summary_doc, out / f"{name}_summary.json")
    if failures:
        for f in failures:
            print(f"accept: {f}", file=sys.stderr)
        return EXIT_ACCEPT
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="asymptotica",
        description="dimensional analysis, perturbation expansions and "
        "multiple-scales runs, driven by JSON configs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for cmd in _RUNNERS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", action="append", required=True,
                       help="JSON config file (repeatable)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers across configs")
        p.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    configs = args.config
    if args.jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(
                pool.map(run_one, [args.subcommand] * len(configs), configs,
                         [args.out_dir] * len(configs))
            )
        return max(codes)
    return max(run_one(args.subcommand, c, args.out_dir) for c in configs)


if __name__ == "__main__":
    sys.exit(main())
