"""Benchmark runner for normeuclid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cyclo-scan, cyclo-large, bounds-sweep, or ``all`` for each in turn.
The runner is single-threaded and closed-loop: it spawns one child process
at a time (``perfbench/child.py``), each a cold start of the package from
the checkout's ``src/``, and starts the next only when the last has exited.

``--trace 0`` runs the workload in fresh processes for about S seconds
(at least once; see ``_repeat``) and reports the end-to-end metrics: the
median cold start, the median time to finish the work list divided by the
median time of the calibration loop the children ran alongside it
(``child._Stopwatch``), and the median peak RSS.  Extra cold starts bring
the start-up samples to at least seven.

``--trace 1`` alternates untraced and traced processes on the same inputs
for about S seconds (at least one pair), times the package's
imports in three more processes, and reports the per-layer metrics, each
the median over the traced processes.

Every output is checked against independent references after the timing
(``perfbench/checks.py``).  Before the result, the runner prints one
``# meta`` line with the run's provenance and one summary line; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import check_reps  # noqa: E402
from perfbench.metrics import END_TO_END, LAYER_METRICS, LAYERS, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
WORK_ROOT = ROOT / "perfbench" / ".work"
MIN_SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A child process exited with an error; no result can be reported."""


class Runner:
    """Spawns children for one workload run inside a scratch directory."""

    def __init__(self, work: Path, inputs: dict) -> None:
        self.work = work
        self.inputs_path = work / "inputs.json"
        self.inputs_path.write_text(json.dumps(inputs))
        self.spawned = 0

    def spawn(self, mode: str) -> dict:
        """Run one child to completion and return its result, with
        ``setup_s`` (spawn to ``normeuclid.cli`` imported) and, for the
        cyclo-scan CSV, the text of the child's output file."""
        self.spawned += 1
        result_path = self.work / f"result-{self.spawned}.json"
        out_path = self.work / f"out-{self.spawned}.csv"
        cmd = [sys.executable, str(CHILD), mode, str(result_path)]
        if mode in ("work", "traced"):
            cmd += [str(self.inputs_path), str(out_path)]
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise ChildFailed(f"child {mode} exited with {proc.returncode}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        if "ready" in result:
            result["setup_s"] = result["ready"] - t_spawn
        if out_path.exists():
            result["csv"] = out_path.read_text()
            out_path.unlink()
        return result


def _git_state() -> tuple[str | None, bool | None]:
    """(revision, dirty) of the checkout, or (None, None) outside git."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode != 0 or Path(lines[0]).resolve() != ROOT:
            return None, None
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        )
        return lines[1], bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def _repeat(spawn, seconds: float) -> list:
    """Call ``spawn`` at least once, then again while one more call, as long
    as the median call so far, would end less than half its length past
    ``seconds``; so a run overshoots its time by at most about half a call."""
    out, lengths = [], []
    t_start = time.monotonic()
    while not out or (
        time.monotonic() - t_start + statistics.median(lengths) / 2 < seconds
    ):
        t0 = time.monotonic()
        out.append(spawn())
        lengths.append(time.monotonic() - t0)
    return out


def _run_untraced(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    reps = _repeat(lambda: runner.spawn("work"), seconds)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.spawn("cold")["setup_s"])
    wall_s = statistics.median(r["wall_s"] for r in reps)
    calibration_s = statistics.median(c for r in reps for c in r["calibration_s"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "calibration_s": calibration_s,
        "wall_ref": wall_s / calibration_s,
        "peak_rss_mb": statistics.median(r["maxrss_kib"] for r in reps) / 1024.0,
    }
    return reps, values


def _run_traced(runner: Runner, seconds: float) -> tuple[list[dict], dict, list[dict]]:
    imports = [runner.spawn("imports")["import_s"] for _ in range(IMPORT_SAMPLES)]
    pairs = _repeat(lambda: (runner.spawn("work"), runner.spawn("traced")), seconds)
    per_pair = [layer_metrics(traced, plain) for plain, traced in pairs]
    values = {name: statistics.median(p[name] for p in per_pair) for name in per_pair[0]}
    for module in ("specfun", "cyclozeta", "cli"):
        values[f"{module}.import_s"] = statistics.median(i[module] for i in imports)
    reps = [rep for pair in pairs for rep in pair]
    return reps, values, [traced for _, traced in pairs]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    inputs = make_inputs(workload, seed)
    revision, dirty = _git_state()
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), **_versions(),
        "git_revision": revision, "git_dirty": dirty,
        "loadavg_before": os.getloadavg(),
    }
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        runner = Runner(Path(tmp), inputs)
        meta["normeuclid_file"] = runner.spawn("cold")["module_file"]  # also warms caches
        if trace:
            reps, values, traced = _run_traced(runner, seconds)
        else:
            reps, values = _run_untraced(runner, seconds)
    meta["loadavg_after"] = os.getloadavg()
    meta["processes"] = runner.spawned

    attempted, failed, by_layer = check_reps(workload, inputs, reps)
    if trace:
        by_layer["specfun"] += sum(t["probe_errors"] for t in traced)
        failed += sum(t["probe_errors"] for t in traced)
        for layer in LAYERS:
            values[f"{layer}.errors"] = by_layer[layer]
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        units = {name: unit for name, unit, *_ in END_TO_END}

    print("# meta " + json.dumps(meta))
    # wall_ref's two parts are shown too, though only the ratio is gated.
    extra = {} if trace else {"wall_s": "s", "calibration_s": "s"}
    shown = ", ".join(
        f"{name} {values[name]:.6g} {unit}" for name, unit in {**units, **extra}.items()
    )
    print(
        f"{workload}: {shown}, error_rate {failed / attempted:.6g} fraction "
        f"({failed}/{attempted} operations failed)"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "normeuclid" / "__init__.py").is_file():
        print(f"error: no normeuclid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
