"""Runs load only what they compute with: pi, roots and euler runs load no
numpy, and no run loads scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

from asymptotica import blayer

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
SHIPPED = [
    ("pi", "pi", str(CONFIGS / "pendulum.json")),
    ("roots", "roots", str(CONFIGS / "quadratic_roots.json")),
    ("euler", "euler", str(CONFIGS / "euler_bound.json")),
    ("pde", "pde", str(CONFIGS / "phase_match.json")),
    ("blayer", "blayer", str(CONFIGS / "linear_layer.json")),
    ("ode", "ode", str(CONFIGS / "damped_oscillator.json")),
    ("packet", "pde", str(CONFIGS / "kg_packet.json")),
    ("fourth_packet", "pde", str(CONFIGS / "fourth_packet.json")),
]

# Runs each config through cli.main in one fresh interpreter and prints, after
# the import and after each labelled run, whether numpy is loaded and which
# scipy modules are.  With "block", any scipy import raises ImportError.
_PROBE = """
import json, sys
if sys.argv[3] == "block":
    sys.modules["scipy"] = None
import asymptotica.cli as cli

def loaded():
    scipy = sorted(m for m in sys.modules
                   if (m == "scipy" or m.startswith("scipy.")) and sys.modules[m] is not None)
    return {"numpy": "numpy" in sys.modules, "scipy": scipy}

seen = {"import": loaded()}
for label, sub, config in json.loads(sys.argv[1]):
    code = cli.main([sub, "--config", config, "--out-dir", sys.argv[2], "--jobs", "1"])
    assert code == cli.EXIT_OK, (label, code)
    seen[label] = loaded()
print(json.dumps(seen))
"""


def loaded_per_run(runs, out_dir, scipy="allow"):
    """{label: {"numpy": bool, "scipy": [modules]}} after each run, from one
    fresh interpreter; ``scipy="block"`` makes every scipy import fail."""
    env = dict(os.environ)
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
        assert loaded[stage] == {"numpy": False, "scipy": []}, (stage, loaded[stage])
    # the linear layer's FD reference solves its tridiagonal systems in house
    for stage in ("pde", "blayer"):
        assert loaded[stage]["scipy"] == [], (stage, loaded[stage])
    # perfbench/tracing.py wraps this attribute by name
    assert callable(blayer.solve_banded)


def test_integrating_runs_load_no_scipy_integrate(tmp_path):
    # ODE, packet and shooting solves step with the library's own DOP853
    nonlinear_layer = tmp_path / "nonlinear_layer.json"
    nonlinear_layer.write_text(json.dumps({"kind": "nonlinear", "eps": 0.1, "n_grid": 512}))
    loaded = loaded_per_run(
        [*SHIPPED[5:], ("nonlinear_layer", "blayer", str(nonlinear_layer))], tmp_path
    )
    # the nonlinear layer's FD reference does not load scipy either
    for stage in ("ode", "packet", "fourth_packet", "nonlinear_layer"):
        assert loaded[stage]["scipy"] == [], (stage, loaded[stage])


def test_shipped_configs_run_with_scipy_blocked(tmp_path):
    assert sorted(c for _, _, c in SHIPPED) == sorted(map(str, CONFIGS.glob("*.json")))
    loaded = loaded_per_run(SHIPPED, tmp_path, scipy="block")
    assert all(seen["scipy"] == [] for seen in loaded.values()), loaded
