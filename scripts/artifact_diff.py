"""Compare what two source trees of asymptotica write, byte for byte.

    python scripts/artifact_diff.py OLD NEW [--seeds 1 2]

OLD and NEW are checkouts of this repository.  Every input comes from the
checkout this script is in; each tree supplies only its ``src``.  The runs
are, each in a fresh interpreter with the tree's ``src`` on ``PYTHONPATH``:

* the shipped configs in ``scripts/configs``, each with the subcommand the CI
  step runs it with;
* the invocations of every benchmark workload at each seed, generated by
  ``perfbench/workloads.py`` (imported, never written) and run as the
  benchmark runs them, with ``--jobs 1``.

Both trees run in work directories of the same layout, with relative paths,
so a path in an error message reads the same.  Each run's exit code,
standard error and output files are compared byte for byte; where a CSV
column or a JSON number differs, the largest absolute difference is printed.
The exit code is 0 when everything matches and 1 on any difference.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLI = "import sys; from asymptotica.cli import main; sys.exit(main(sys.argv[1:]))"
# the shipped configs, with the subcommand the CI step gives each
SHIPPED = {
    "pendulum": "pi", "quadratic_roots": "roots", "euler_bound": "euler",
    "damped_oscillator": "ode", "coupled_cubic_pilot": "ode", "coupled_cubic_short": "ode",
    "linear_layer": "blayer", "nonlinear_layer": "blayer", "phase_match": "pde",
    "kg_packet": "pde", "kg_packet_long": "pde", "fourth_packet": "pde",
}


def invocations(seeds: list[int]) -> list[tuple[str, str, str, list[str]]]:
    """(run name, subcommand, config text, extra arguments) of every run."""
    runs = [(name, sub, (HERE / "configs" / f"{name}.json").read_text(), [])
            for name, sub in SHIPPED.items()]
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    for workload, generate in workloads.GENERATORS.items():
        for seed in seeds:
            for inv in generate(seed):
                text = json.dumps({"name": inv.name, **inv.config}, indent=1)
                runs.append((f"{workload}-{seed}-{inv.name}", inv.subcommand, text,
                             ["--jobs", "1"]))
    return runs


def run(tree: Path, work: Path, name: str, sub: str, config: str, extra: list[str]):
    """(exit code, stderr, {file name: bytes}) of one run of ``tree``."""
    (work / "configs").mkdir(exist_ok=True)
    (work / "configs" / f"{name}.json").write_text(config)
    out = Path("out") / name
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CLI, sub, "--config", f"configs/{name}.json", *extra,
         "--out-dir", str(out)], cwd=work, env=env, capture_output=True)
    files = {p.name: p.read_bytes() for p in sorted((work / out).glob("*"))}
    return proc.returncode, proc.stderr, files


def _largest(a: list[str], b: list[str]) -> str:
    try:
        gaps = [abs(float(x) - float(y)) for x, y in zip(a, b)]
    except ValueError:
        return "differs (not numeric)"
    extra = f", lengths {len(a)} and {len(b)}" if len(a) != len(b) else ""
    return f"largest absolute difference {max(gaps, default=0.0):.3g}{extra}"


def _numbers(doc, path: str, out: dict):
    """The JSON numbers under ``doc`` by path, a list's elements under one path."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            _numbers(value, f"{path}.{key}", out)
    elif isinstance(doc, list):
        for value in doc:
            _numbers(value, f"{path}[]", out)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out.setdefault(path, []).append(repr(doc))
    else:
        out.setdefault(path, []).append(json.dumps(doc))


def describe(file: str, old: bytes, new: bytes) -> list[str]:
    """One line per CSV column or JSON number path that differs."""
    if file.endswith(".csv"):
        a, b = (list(csv.reader(io.StringIO(data.decode()))) for data in (old, new))
        if not a or not b or a[0] != b[0]:
            return [f"{file}: headers differ"]
        columns = zip(a[0], zip(*a[1:]), zip(*b[1:]))
        lines = [f"{file}: column {head}: {_largest(list(x), list(y))}"
                 for head, x, y in columns if x != y]
        if len(a) != len(b):
            lines.append(f"{file}: {len(a) - 1} and {len(b) - 1} rows")
        return lines or [f"{file}: bytes differ"]
    if file.endswith(".json"):
        a, b = {}, {}
        _numbers(json.loads(old), "", a)
        _numbers(json.loads(new), "", b)
        lines = [f"{file}: {path or '.'}: "
                 + (_largest(a[path], b[path]) if path in a and path in b else "present in one")
                 for path in sorted(a.keys() | b.keys()) if a.get(path) != b.get(path)]
        return lines or [f"{file}: bytes differ"]
    return [f"{file}: bytes differ"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "asymptotica" / "cli.py").is_file():
            parser.error(f"no src/asymptotica/cli.py under {tree}")
    runs = invocations(args.seeds)
    differing = files = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, sub, config, extra in runs:
            results = []
            for side in ("old", "new"):
                work = Path(tmp) / side
                work.mkdir(exist_ok=True)
                results.append(run(getattr(args, side), work, name, sub, config, extra))
            (code_a, err_a, out_a), (code_b, err_b, out_b) = results
            files += len(out_b)
            failed += code_b != 0
            lines = []
            if code_a != code_b:
                lines.append(f"exit codes {code_a} and {code_b}")
            if err_a != err_b:
                lines.append("stderr differs")
            for file in sorted(out_a.keys() | out_b.keys()):
                if file not in out_a or file not in out_b:
                    lines.append(f"{file}: written by one tree only")
                elif out_a[file] != out_b[file]:
                    lines += describe(file, out_a[file], out_b[file])
            if lines:
                differing += 1
                print(f"{sub} {name}:")
                print("".join(f"  {line}\n" for line in lines), end="")
    print(f"{len(runs)} runs ({len(SHIPPED)} shipped configs, workloads at seeds "
          f"{' '.join(map(str, args.seeds))}), {failed} of them exiting nonzero, {files} files: "
          + (f"{differing} runs differ" if differing else "no difference"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
