"""Seeded end-to-end benchmark of the asymptotica command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  The seed generates the workload's configs (see ``workloads.py``);
each config runs through the CLI in a fresh interpreter, one at a time (a
closed loop with one client and ``--jobs 1``), and passes over the whole
config set repeat until ``--seconds`` are spent.  Every output is checked
independently of the module that produced it (``checks.py``), and every pass
of one seed must write byte-identical artifacts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run through the tracing bootstrap
(``tracing.py``), reports the per-layer metrics and requires the traced
artifacts to equal the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when an output check failed and 2 when the
benchmark could not run (no ``src/asymptotica`` under the working directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np
from scipy.special import betainc

import checks
import tracing
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CLI = "import sys; from asymptotica.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_REPEATS = 4
MIN_TAIL_BEYOND = 10  # samples beyond the reported tail percentile
INVOCATION_LIMIT_S = 30.0


@dataclass
class Sample:
    wall: float
    cpu: float
    max_rss_mb: float
    code: int


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    samples: list[Sample] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0
    layers: dict[str, float] = field(default_factory=dict)
    in_process: float = 0.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], log: Path) -> Sample:
    """Run one child to completion; wall time, CPU and max RSS from wait4."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def _digest(directory: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


def run_pass(invocations, configs: dict[str, Path], work: Path, index: int,
             traced: bool) -> Pass:
    record = Pass(traced)
    pass_dir = work / f"pass{index:03d}"
    spans_dir = work / f"spans{index:03d}"
    spans_dir.mkdir(parents=True)
    start = time.perf_counter()
    for inv in invocations:
        out = pass_dir / inv.name
        args = [inv.subcommand, "--config", str(configs[inv.name]), "--jobs", "1",
                "--out-dir", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"),
                    str(spans_dir / f"{inv.name}.json"), inv.name, *args]
        else:
            argv = [sys.executable, "-c", CLI, *args]
        record.samples.append(spawn(argv, work / f"{inv.name}.stderr"))
    record.wall = time.perf_counter() - start
    for inv in invocations:
        out = pass_dir / inv.name
        if out.is_dir():
            record.digests[inv.name], size = _digest(out)
            record.artifact_bytes += size
    if traced:
        spans = [s for path in sorted(spans_dir.iterdir())
                 for s in json.loads(path.read_text())]
        record.layers = tracing.layer_metrics(spans)
        record.in_process = tracing.in_process_time(spans)
    return record


def measure_setup(work: Path) -> list[float]:
    """Fresh interpreter + ``import asymptotica.cli``, after one warm-up."""
    probe = "import asymptotica.cli as c; print(c.__file__)"
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=INVOCATION_LIMIT_S)
    if out.returncode != 0:
        raise BenchmarkError(f"cannot import asymptotica.cli from {ROOT / 'src'}:\n"
                             f"{out.stderr.strip()}")
    if not Path(out.stdout.strip()).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"asymptotica.cli resolved outside the checkout: {out.stdout}")
    times = []
    for _ in range(SETUP_REPEATS):
        sample = spawn([sys.executable, "-c", "import asymptotica.cli"], work / "setup.stderr")
        if sample.code != 0:
            raise BenchmarkError("import asymptotica.cli failed during set-up")
        times.append(sample.wall)
    return times


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics: with
    a dozen samples it moves far less from run to run than any single one.
    """
    ordered = sorted(values)
    n = len(ordered)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def min_passes(n_invocations: int) -> int:
    """Untraced passes every run makes: two, and more than MIN_TAIL_BEYOND samples."""
    return max(2, -(-(MIN_TAIL_BEYOND + 1) // n_invocations))


def tail_level(n_invocations: int) -> tuple[float, int]:
    """Tail quantile and the untraced sample count every run reaches.

    The level is the highest one that leaves MIN_TAIL_BEYOND of the
    guaranteed samples beyond it.  It is fixed per workload, so a faster
    program that fits more passes into a run reports the same percentile.
    """
    floor = min_passes(n_invocations) * n_invocations
    return (floor - MIN_TAIL_BEYOND) / floor, floor


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        **{lib: metadata.version(lib) for lib in ("numpy", "scipy", "sympy")},
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def write_configs(invocations, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True)
    paths = {}
    for inv in invocations:
        paths[inv.name] = directory / f"{inv.name}.json"
        paths[inv.name].write_text(json.dumps({"name": inv.name, **inv.config}, indent=1))
    return paths


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    if not (ROOT / "src" / "asymptotica" / "cli.py").is_file():
        raise BenchmarkError(f"no src/asymptotica/cli.py under {ROOT}")
    generate = workloads.GENERATORS[workload]
    invocations = generate(seed)
    problems = []
    if [i.config for i in generate(seed)] != [i.config for i in invocations]:
        problems.append("determinism: one seed generated two different config sets")
    if [i.config for i in generate(seed + 1)] == [i.config for i in invocations]:
        problems.append("determinism: seeds differ but the configs do not")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_work"))
    try:
        configs = write_configs(invocations, work / "configs")
        setup = measure_setup(work)
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            enough = len(passes) >= (2 if trace else min_passes(len(invocations)))
            if enough and elapsed + passes[-1].wall > seconds:
                break
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(invocations, configs, work, len(passes), traced))
        failed, attempted = judge(invocations, configs, passes, work, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    walls = [s.wall for p in untraced for s in p.samples]
    tail_q, tail_floor = tail_level(len(invocations))
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in untraced), "s"),
        "run_p50_s": (quantile(walls, 0.5), "s"),
        "run_tail_s": (quantile(walls, tail_q), "s"),
        "cpu_s": (statistics.median(sum(s.cpu for s in p.samples) for p in untraced), "s"),
        "peak_rss_mb": (max(s.max_rss_mb for p in untraced for s in p.samples), "MB"),
    }
    print(f"workload {workload}, seed {seed}: {len(passes)} passes "
          f"({len(untraced)} untraced) of {len(invocations)} invocations in "
          f"{time.perf_counter() - start:.1f} s")
    for name, (value, unit) in e2e.items():
        note = (f"  (p{100 * tail_q:.0f} of {len(walls)} invocations; {tail_floor} guaranteed)"
                if name == "run_tail_s" else "")
        print(f"  {name:<12} {value:.6g} {unit}{note}")
    print(f"  {'failed_frac':<12} {failed / attempted:.6g} 1  ({failed} of {attempted})")
    for problem in problems:
        print(f"  FAIL {problem}")

    if trace:
        metrics = layer_report(passes)
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def judge(invocations, configs, passes: list[Pass], work: Path,
          problems: list[str]) -> tuple[int, int]:
    """Count failed invocations and add what went wrong to ``problems``.

    Artifacts are checked in full once, in pass 0.  Every pass must
    reproduce pass 0's artifacts byte for byte (traced passes included), so
    the verdict on those bytes holds for each pass that wrote them.
    """
    verdicts: dict[str, list[str]] = {}
    failed = 0
    for index, p in enumerate(passes):
        for inv, sample in zip(invocations, p.samples):
            if sample.code != 0:
                log = (work / f"{inv.name}.stderr").read_text(errors="replace").strip()
                found = [f"exit {sample.code}: {log[-300:]}"]
            elif inv.name not in p.digests:
                found = ["no artifacts"]
            elif p.digests[inv.name] != passes[0].digests.get(inv.name):
                found = [f"{'traced' if p.traced else 'untraced'} artifacts differ from pass 0"]
            else:
                if inv.name not in verdicts:
                    config = json.loads(configs[inv.name].read_text())
                    verdicts[inv.name] = checks.check(inv.subcommand, config,
                                                      work / "pass000" / inv.name)
                found = verdicts[inv.name]
            if found:
                failed += 1
                problems.extend(f"pass {index} {inv.name}: {msg}" for msg in found)
    return failed, sum(len(p.samples) for p in passes)


def layer_report(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    values = {name: statistics.median(p.layers[name] for p in traced)
              for name in traced[0].layers}
    values["cli.artifact_bytes"] = statistics.median(p.artifact_bytes for p in traced)
    traced_wall = statistics.median(p.wall for p in traced)
    values["trace.overhead_s"] = traced_wall - statistics.median(p.wall for p in untraced)
    values["trace.startup_s"] = statistics.median(p.wall - p.in_process for p in traced)
    self_total = sum(v for k, v in values.items()
                     if tracing.LAYER_METRICS[k][0] == "s" and not k.startswith("trace."))
    print(f"  accounting: self times incl. cli.import_s {self_total:.4f} s + start-up "
          f"{values['trace.startup_s']:.4f} s vs traced wall_s {traced_wall:.4f} s")
    metrics = {}
    for name, (unit, target) in tracing.LAYER_METRICS.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<24} {values[name]:.6g} {unit}  -> {target}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
