"""Runs load only what they compute with:

* pi, roots and euler runs load no numpy;
* ode runs load no numpy either, seeded sweeps included: msode steps,
  samples, fits and reconstructs in Python floats;
* blayer and pde runs load numpy, for the layer's finite differences and
  shooting profile and for the packets' FFTs;
* ode, blayer and pde runs load no dimsys;
* no run loads scipy or sympy, nor any of their submodules, which only the
  tests use.

A CLI process gives numpy's BLAS one thread unless its caller set a thread
count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asymptotica import blayer, cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
SHIPPED = [
    ("pi", "pi", str(CONFIGS / "pendulum.json")),
    ("roots", "roots", str(CONFIGS / "quadratic_roots.json")),
    ("euler", "euler", str(CONFIGS / "euler_bound.json")),
    ("pde", "pde", str(CONFIGS / "phase_match.json")),
    ("blayer", "blayer", str(CONFIGS / "linear_layer.json")),
    # the ode runs come first among the integrating runs, before any run
    # that loads numpy in the same interpreter
    ("ode", "ode", str(CONFIGS / "damped_oscillator.json")),
    ("coupled_cubic_pilot", "ode", str(CONFIGS / "coupled_cubic_pilot.json")),
    ("coupled_cubic_short", "ode", str(CONFIGS / "coupled_cubic_short.json")),
    ("nonlinear_layer", "blayer", str(CONFIGS / "nonlinear_layer.json")),
    ("packet", "pde", str(CONFIGS / "kg_packet.json")),
    ("fourth_packet", "pde", str(CONFIGS / "fourth_packet.json")),
    ("kg_packet_long", "pde", str(CONFIGS / "kg_packet_long.json")),
]
# a seeded eps sweep, whose members run in an order the seed shuffles
ODE_SWEEP = {"case": "cubic", "eps": [0.1, 0.05, 0.08], "horizon_exponent": 1, "seed": 3}
ODE_RUNS = ["ode", "coupled_cubic_pilot", "coupled_cubic_short", "ode_sweep"]

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs each config through cli.main in one fresh interpreter and prints, after
# the import and after each labelled run, whether numpy is loaded, which scipy
# and which sympy modules are, which of a few other modules are, the process's
# thread count (None without /proc/self/task) and its *_NUM_THREADS variables.
# With "block", any scipy or sympy import raises ImportError.
_PROBE = """
import json, os, sys
if sys.argv[3] == "block":
    sys.modules["scipy"] = sys.modules["sympy"] = None
import asymptotica.cli as cli

WATCHED = ("asymptotica.dimsys", "asymptotica.series", "dataclasses")
TASKS = "/proc/self/task"

def package(name):
    return sorted(m for m in sys.modules
                  if (m == name or m.startswith(name + ".")) and sys.modules[m] is not None)

def loaded():
    return {
        "numpy": "numpy" in sys.modules,
        "scipy": package("scipy"),
        "sympy": package("sympy"),
        "modules": [m for m in WATCHED if sys.modules.get(m) is not None],
        "threads": len(os.listdir(TASKS)) if os.path.isdir(TASKS) else None,
        "env": {v: os.environ[v] for v in sorted(os.environ) if v.endswith("_NUM_THREADS")},
    }

seen = {"import": loaded()}
for label, sub, config in json.loads(sys.argv[1]):
    code = cli.main([sub, "--config", config, "--out-dir", sys.argv[2], "--jobs", "1"])
    assert code == cli.EXIT_OK, (label, code)
    seen[label] = loaded()
print(json.dumps(seen))
"""


def loaded_per_run(runs, out_dir, scipy="allow", threads_env=None):
    """{label: what the probe sees} after each run, from one fresh interpreter
    whose environment holds no ``*_NUM_THREADS`` variable but those of
    ``threads_env``; ``scipy="block"`` makes every scipy and sympy import fail."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(threads_env or {})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs), str(out_dir), scipy],
        capture_output=True, text=True, env=env, cwd=out_dir, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_light_runs_load_no_scipy(tmp_path):
    loaded = loaded_per_run(SHIPPED[:5], tmp_path)
    for stage in ("import", "pi", "roots", "euler"):
        assert not loaded[stage]["numpy"] and loaded[stage]["scipy"] == [], (stage, loaded[stage])
    # the pi, roots and euler runners load dimsys and series themselves
    assert loaded["import"]["modules"] == [], loaded["import"]
    assert all(seen["sympy"] == [] for seen in loaded.values()), loaded
    # the linear layer's FD reference solves its tridiagonal systems in house
    for stage in ("pde", "blayer"):
        assert loaded[stage]["scipy"] == [], (stage, loaded[stage])
    # perfbench/tracing.py wraps this attribute by name
    assert callable(blayer.solve_banded)


@pytest.fixture(scope="module")
def integrating_runs(tmp_path_factory):
    """The probe over the ode runs, the seeded ode sweep after them, then the
    nonlinear-layer and packet runs, in one fresh interpreter without BLAS
    thread variables."""
    out = tmp_path_factory.mktemp("integrating")
    sweep = out / "ode_sweep.json"
    sweep.write_text(json.dumps(ODE_SWEEP))
    runs = SHIPPED[5:8] + [("ode_sweep", "ode", str(sweep))] + SHIPPED[8:]
    return loaded_per_run(runs, out)


INTEGRATING = ODE_RUNS + [label for label, _, _ in SHIPPED[8:]]


def test_ode_runs_load_no_numpy(integrating_runs):
    # msode's solves, samples, fit and reconstruction run in Python floats,
    # and the CLI writes their CSVs and shuffles a seeded sweep without numpy
    for stage in ODE_RUNS:
        assert not integrating_runs[stage]["numpy"], (stage, integrating_runs[stage])


def test_layer_and_packet_runs_load_numpy(integrating_runs, tmp_path):
    # the first run after the ode runs loads numpy itself, and so does a
    # packet run on its own
    assert integrating_runs["nonlinear_layer"]["numpy"], integrating_runs["nonlinear_layer"]
    assert SHIPPED[9][0] == "packet"
    assert loaded_per_run(SHIPPED[9:10], tmp_path)["packet"]["numpy"]


def test_integrating_runs_load_no_scipy_integrate(integrating_runs):
    # the ODE and packet direct solves, the amplitude flows and the shooting
    # all step by the library's own Taylor series; the nonlinear layer's FD
    # reference does not load scipy either
    for stage in INTEGRATING:
        assert integrating_runs[stage]["scipy"] == [], (stage, integrating_runs[stage])


def test_solver_runs_load_no_dimsys(integrating_runs):
    for stage in INTEGRATING:
        assert "asymptotica.dimsys" not in integrating_runs[stage]["modules"], stage


def test_derived_amplitude_equations_load_no_sympy(integrating_runs):
    # the ode cases', the nonlinear layer's and the packets' amplitude
    # equations come from msode.multiple_scales, in floats; sympy derives
    # them only as the tests' oracle
    for stage in INTEGRATING:
        assert integrating_runs[stage]["sympy"] == [], (stage, integrating_runs[stage])


def test_numeric_runs_hold_one_thread(integrating_runs):
    if integrating_runs["import"]["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    for stage in INTEGRATING:
        seen = integrating_runs[stage]
        assert seen["numpy"] == (stage not in ODE_RUNS) and seen["threads"] == 1, (stage, seen)
        assert seen["env"] == dict.fromkeys(THREAD_VARIABLES, "1"), (stage, seen)


def test_caller_thread_setting_is_kept(tmp_path):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("BLAS caps its threads at the one CPU this process may use")
    seen = loaded_per_run(SHIPPED[3:4], tmp_path, threads_env={"OPENBLAS_NUM_THREADS": "2"})
    assert seen["pde"]["numpy"], seen
    assert seen["pde"]["env"] == {"OPENBLAS_NUM_THREADS": "2"}, seen
    assert seen["pde"]["threads"] == 2, seen


def test_main_leaves_the_environment_of_a_numpy_caller(tmp_path, monkeypatch):
    # this process loaded numpy with blayer, so its BLAS pool is set already
    assert "numpy" in sys.modules
    for variable in THREAD_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    before = dict(os.environ)
    _, sub, config = SHIPPED[0]
    assert cli.main([sub, "--config", config, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert dict(os.environ) == before


def test_shipped_configs_run_with_scipy_blocked(tmp_path):
    assert sorted(c for _, _, c in SHIPPED) == sorted(map(str, CONFIGS.glob("*.json")))
    loaded = loaded_per_run(SHIPPED, tmp_path, scipy="block")
    assert all(seen["scipy"] == [] for seen in loaded.values()), loaded
