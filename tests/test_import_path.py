"""scipy stays off the import path: runs load only the solvers they call."""

import json
import os
import subprocess
import sys
from pathlib import Path

from asymptotica import blayer

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

# Runs each config through cli.main in one fresh interpreter and prints the
# scipy submodules loaded after the import and after each labelled run.
_PROBE = """
import json, sys
import asymptotica.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for label, sub, config in json.loads(sys.argv[1]):
    code = cli.main([sub, "--config", config, "--out-dir", sys.argv[2], "--jobs", "1"])
    assert code == cli.EXIT_OK, (label, code)
    loaded[label] = scipy_modules()
print(json.dumps(loaded))
"""


def scipy_loaded_per_run(runs, out_dir):
    """{label: scipy modules loaded after that run}, from one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs), str(out_dir)],
        capture_output=True, text=True, env=env, cwd=out_dir, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_light_runs_load_no_scipy(tmp_path):
    loaded = scipy_loaded_per_run(
        [
            ("pi", "pi", str(CONFIGS / "pendulum.json")),
            ("roots", "roots", str(CONFIGS / "quadratic_roots.json")),
            ("euler", "euler", str(CONFIGS / "euler_bound.json")),
            ("pde", "pde", str(CONFIGS / "phase_match.json")),
            ("blayer", "blayer", str(CONFIGS / "linear_layer.json")),
        ],
        tmp_path,
    )
    for stage in ("import", "pi", "roots", "euler", "pde"):
        assert loaded[stage] == [], (stage, loaded[stage])
    # the linear layer's FD reference needs the banded solver, not the integrator
    assert "scipy.linalg" in loaded["blayer"]
    assert not any(m.startswith("scipy.integrate") for m in loaded["blayer"])
    # perfbench/tracing.py wraps this attribute by name
    assert callable(blayer.solve_banded)


def test_integrating_runs_load_no_scipy_integrate(tmp_path):
    # ODE, packet and shooting solves step with the library's own DOP853
    nonlinear_layer = tmp_path / "nonlinear_layer.json"
    nonlinear_layer.write_text(json.dumps({"kind": "nonlinear", "eps": 0.1, "n_grid": 512}))
    loaded = scipy_loaded_per_run(
        [
            ("ode", "ode", str(CONFIGS / "damped_oscillator.json")),
            ("packet", "pde", str(CONFIGS / "kg_packet.json")),
            ("nonlinear_layer", "blayer", str(nonlinear_layer)),
        ],
        tmp_path,
    )
    assert loaded["ode"] == [] and loaded["packet"] == [], loaded
    # the nonlinear layer keeps the banded solver for its FD reference
    assert "scipy.linalg" in loaded["nonlinear_layer"]
    assert not any(m.startswith("scipy.integrate") for m in loaded["nonlinear_layer"])
