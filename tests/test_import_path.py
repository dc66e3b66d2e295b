"""scipy stays off the import path: runs load only the solvers they call."""

import json
import os
import subprocess
import sys
from pathlib import Path

from asymptotica import blayer

ROOT = Path(__file__).resolve().parents[1]

# Runs each shipped config through cli.main in one fresh interpreter and
# prints the scipy submodules loaded after the import and after each run.
_PROBE = """
import json, sys
import asymptotica.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for sub, config in json.loads(sys.argv[1]):
    code = cli.main([sub, "--config", config, "--out-dir", sys.argv[2], "--jobs", "1"])
    assert code == cli.EXIT_OK, (sub, code)
    loaded[sub] = scipy_modules()
print(json.dumps(loaded))
"""


def test_light_runs_load_no_scipy(tmp_path):
    configs = ROOT / "scripts" / "configs"
    runs = [
        ("pi", str(configs / "pendulum.json")),
        ("roots", str(configs / "quadratic_roots.json")),
        ("euler", str(configs / "euler_bound.json")),
        ("pde", str(configs / "phase_match.json")),
        ("blayer", str(configs / "linear_layer.json")),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs), str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for stage in ("import", "pi", "roots", "euler", "pde"):
        assert loaded[stage] == [], (stage, loaded[stage])
    # the linear layer's FD reference needs the banded solver, not the integrator
    assert "scipy.linalg" in loaded["blayer"]
    assert not any(m.startswith("scipy.integrate") for m in loaded["blayer"])
    # perfbench/tracing.py wraps this attribute by name
    assert callable(blayer.solve_banded)
