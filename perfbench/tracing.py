"""Out-of-process tracing of one asymptotica CLI invocation, and aggregation.

Run as a script, this is the bootstrap of a traced invocation::

    python perfbench/tracing.py SPANS.json INVOCATION_ID <cli arguments>

It times ``import asymptotica.cli``, replaces the module attributes listed
in ``WRAPPED`` with timing wrappers, calls ``asymptotica.cli.main`` with the
CLI arguments and, when the process exits, writes the spans it kept in
memory.  The program itself carries no instrumentation.  Only stage-level
calls are wrapped, never the per-step right-hand sides (there are 1e5-1e6
of those per run).

Imported, it turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Each wrapped (module, attribute) is looked up by the calling code at call
# time, so replacing the attribute intercepts every call made through it.
WRAPPED = [
    ("cli", "main"),
    ("cli", "run_one"),
    ("msode", "compare"),
    ("msode", "integrate_reference"),
    ("msode", "integrate_amplitude"),
    ("msode", "fit_initial_amplitudes"),
    ("msode", "reconstruct_on_grid"),
    ("msode", "naive_damped_expansion"),
    ("blayer", "solve_bvp_fd"),
    ("blayer", "solve_banded"),
    ("blayer", "nonlinear_blayer_multiscale"),
    ("blayer", "integrate_reference"),
    ("mspde", "packet_compare"),
    ("mspde", "_solve_direct"),
    ("mspde", "solve_nls"),
    ("mspde", "reconstruct_field"),
    ("mspde", "energy"),
    ("mspde", "find_phase_matched"),
    ("dimsys", "pi_groups"),
    ("dimsys", "group_membership"),
    ("series", "expand_root"),
    ("series", "rescale_singular"),
    ("series", "euler_f"),
]

# Layer metric that receives each span's self time.
SELF_TIME = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "cli.run_one": "cli.self_s",
    "msode.compare": "msode.compare_self_s",
    "msode.integrate_amplitude": "msode.amplitude_s",
    "msode.fit_initial_amplitudes": "msode.fit_s",
    "msode.reconstruct_on_grid": "msode.reconstruct_s",
    "msode.naive_damped_expansion": "msode.reconstruct_s",
    "blayer.solve_bvp_fd": "blayer.fd_s",
    "blayer.solve_banded": "blayer.fd_s",
    "blayer.nonlinear_blayer_multiscale": "blayer.shoot_s",
    "blayer.integrate_reference": "blayer.shoot_s",
    "mspde.packet_compare": "mspde.compare_self_s",
    "mspde._solve_direct": "mspde.direct_s",
    "mspde.solve_nls": "mspde.envelope_s",
    "mspde.reconstruct_field": "mspde.reconstruct_s",
    "mspde.energy": "mspde.energy_s",
    "mspde.find_phase_matched": "mspde.phase_match_s",
    "dimsys.pi_groups": "dimsys.pi_groups_s",
    "dimsys.group_membership": "dimsys.membership_s",
    "series.expand_root": "series.expand_root_s",
    "series.rescale_singular": "series.expand_root_s",
    "series.euler_f": "series.euler_s",
}

# Per-layer metrics in report order, with unit and, after the arrow, the
# end-to-end metric each should move and the workload it should move on.
LAYER_METRICS = {
    "cli.import_s": ("s", "setup_s, run_p50_s on cli_light"),
    "cli.self_s": ("s", "wall_s on ode_compare (sweeps), cli_light"),
    "cli.artifact_bytes": ("bytes", "guard only: must repeat exactly per seed"),
    "msode.direct_s": ("s", "wall_s, run_p50_s on ode_compare"),
    "msode.direct_nfev": ("count", "wall_s, run_p50_s on ode_compare"),
    "msode.amplitude_s": ("s", "wall_s on ode_compare"),
    "msode.amplitude_nfev": ("count", "wall_s on ode_compare"),
    "msode.fit_s": ("s", "wall_s on ode_compare sweeps"),
    "msode.reconstruct_s": ("s", "wall_s on ode_compare"),
    "msode.compare_self_s": ("s", "wall_s on ode_compare"),
    "msode.ref_gap_ratio": ("1", "guard: damped_linear reference error / gap, ode_compare"),
    "blayer.fd_s": ("s", "run_p50_s on cli_light"),
    "blayer.fd_solves": ("count", "run_p50_s on cli_light"),
    "blayer.shoot_s": ("s", "run_p50_s on cli_light"),
    "blayer.shoot_iters": ("count", "run_p50_s on cli_light"),
    "blayer.shoot_nfev": ("count", "run_p50_s on cli_light"),
    "mspde.direct_s": ("s", "wall_s, run_p50_s on pde_kg, pde_fourth"),
    "mspde.direct_nfev": ("count", "wall_s, run_p50_s on pde_kg, pde_fourth"),
    "mspde.envelope_s": ("s", "wall_s on pde_kg, pde_fourth"),
    "mspde.split_steps": ("count", "wall_s on pde_kg, pde_fourth"),
    "mspde.reconstruct_s": ("s", "wall_s on pde_kg, pde_fourth"),
    "mspde.energy_s": ("s", "wall_s on pde_kg, pde_fourth"),
    "mspde.compare_self_s": ("s", "wall_s on pde_kg, pde_fourth"),
    "mspde.energy_drift_rel": ("1", "guard: direct PDE accuracy, pde_kg, pde_fourth"),
    "mspde.phase_match_s": ("s", "run_p50_s on cli_light"),
    "dimsys.pi_groups_s": ("s", "run_p50_s on cli_light"),
    "dimsys.membership_s": ("s", "run_p50_s on cli_light"),
    "series.expand_root_s": ("s", "run_p50_s on cli_light"),
    "series.euler_s": ("s", "run_p50_s on cli_light"),
    "trace.overhead_s": ("s", "none: traced wall_s minus untraced wall_s"),
    "trace.startup_s": ("s", "none: traced wall_s not inside import or cli.main"),
}


def _split_steps(t_end, dt, checkpoints=None, **_):
    """Strang steps solve_nls takes: max(1, round(span/dt)) per nonzero segment."""
    ends = [t_end] if checkpoints is None else list(checkpoints)
    steps, prev = 0, 0.0
    for t in ends:
        if t > prev:
            steps += max(1, round((t - prev) / dt))
        prev = t
    return steps


def _gap_ratio(report):
    ref = report.stats.get("max_abs_error_direct_vs_exact")
    return None if ref is None else ref / report.max_abs_error


# Work counters taken from each call: (args, kwargs, result) -> value.
COUNTERS = {
    "msode.integrate_reference": lambda a, kw, r: r.meta["nfev"],
    "blayer.integrate_reference": lambda a, kw, r: r.meta["nfev"],
    "blayer.nonlinear_blayer_multiscale": lambda a, kw, r: r.iterations,
    "mspde._solve_direct": lambda a, kw, r: r.meta["nfev"],
    "mspde.solve_nls": lambda a, kw, r: _split_steps(*a[1:], **kw),
    "mspde.packet_compare": lambda a, kw, r: r.stats["energy_drift_rel"],
    "msode.compare": lambda a, kw, r: _gap_ratio(r),
}


class Recorder:
    """Spans of one invocation: name, start, end, parent index, invocation id."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float):
        self.spans.append({"name": name, "start": start, "end": end, "parent": None,
                           "invocation": self.invocation})

    def wrap(self, module, short: str, attr: str):
        fn = getattr(module, attr)
        name = f"{short}.{attr}"
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "invocation": self.invocation}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span["count"] = counter(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self times and counters of one pass, keyed by per-layer metric name.

    Spans of different invocations never nest; parents are indices into the
    invocation's own span list, so spans are grouped by invocation first.
    """
    out = {name: 0 if unit == "count" else 0.0 for name, (unit, _) in LAYER_METRICS.items()
           if unit != "bytes" and not name.startswith("trace.")}
    by_invocation: dict[str, list[dict]] = {}
    for span in spans:
        by_invocation.setdefault(span["invocation"], []).append(span)
    for group in by_invocation.values():
        child_time = [0.0] * len(group)
        for span in group:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for i, span in enumerate(group):
            name = span["name"]
            parent = group[span["parent"]]["name"] if span["parent"] is not None else None
            self_time = span["end"] - span["start"] - child_time[i]
            count = span.get("count")
            if name == "msode.integrate_reference":
                direct = parent == "msode.compare"
                out["msode.direct_s" if direct else "msode.amplitude_s"] += self_time
                out["msode.direct_nfev" if direct else "msode.amplitude_nfev"] += count
                continue
            out[SELF_TIME[name]] += self_time
            if name == "blayer.solve_banded":
                out["blayer.fd_solves"] += 1
            elif name == "blayer.integrate_reference":
                out["blayer.shoot_nfev"] += count
            elif name == "blayer.nonlinear_blayer_multiscale":
                out["blayer.shoot_iters"] += count
            elif name == "mspde._solve_direct":
                out["mspde.direct_nfev"] += count
            elif name == "mspde.solve_nls":
                out["mspde.split_steps"] += count
            elif name == "mspde.packet_compare":
                out["mspde.energy_drift_rel"] = max(out["mspde.energy_drift_rel"], count)
            elif name == "msode.compare" and count is not None:
                out["msode.ref_gap_ratio"] = max(out["msode.ref_gap_ratio"], count)
    return out


def in_process_time(spans: list[dict]) -> float:
    """Time inside the import and cli.main spans, summed over invocations."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def _main(argv: list[str]) -> int:
    import atexit
    import importlib

    spans_path, invocation, cli_args = argv[0], argv[1], argv[2:]
    recorder = Recorder(invocation)
    atexit.register(recorder.write, spans_path)
    start = perf_counter()
    import asymptotica.cli as cli

    recorder.add("cli.import", start, perf_counter())
    for short, attr in WRAPPED:
        recorder.wrap(importlib.import_module(f"asymptotica.{short}"), short, attr)
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
