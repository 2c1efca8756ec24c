"""The kakeya-lab benchmark: four workloads, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. Each workload runs in child processes the way a user runs
it: the CLI workloads start `kakeya-lab` (its console-script entry point,
`kakeya_lab.cli:main`), the library workload calls `convergence_split` in a
child Python. Every output is checked against an independent computation
(checks.py, in a process of its own). One run repeats a workload's operation
until `--seconds` of operations have been measured (at least once) and
reports medians.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` each round runs the operation once
untraced and once traced (spans.py) and the JSON holds the per-layer metrics,
including the tracing overhead. `--workload all` runs every workload in turn
and prints their results one per line, then a combined line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is timed this many times per run, half before the operations and half
# after them, and the median is reported. A shared host's speed can shift for
# seconds at a time; timing at both ends of the run spans more of those shifts.
SETUP_SPAWNS = 12
CHILD_TIMEOUT = 120.0  # seconds before a hung child process group is killed
CLI_ENTRY = "import sys; from kakeya_lab.cli import main; sys.exit(main())"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    log: Path


def run_child(cmd: list[str], log: Path) -> Child:
    """Run one child process group; wall from spawn to exit, CPU and peak RSS
    of the child and every descendant it waited for (pool workers included)."""
    env = {k: v for k, v in os.environ.items() if k != "KAKEYA_LAB_JOBS"}
    env["PYTHONPATH"] = str(SRC)
    with log.open("w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=log.parent, env=env, stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # pool workers a failed child left behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, log)


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class CliWorkload:
    """A `kakeya-lab` subcommand. `argv` is formatted with the workload's
    parameters; with `reference`, each run also makes the same call with
    --jobs 1 once, and every operation's files must match it byte for byte."""

    def __init__(self, name, base, argv, out_name, reference=False):
        self.name, self.base = name, base
        self._argv, self.out_name = argv, out_name
        self.reference = reference

    def params(self, seed: int) -> dict:
        return dict(self.base, map_seed=self.base["map_seed"] + seed, mc_seed=1000 + seed)

    def argv(self, p: dict, out: Path, jobs: int = 2) -> list[str]:
        return [a.format(jobs=jobs, **p) for a in self._argv] + ["--out", str(out / self.out_name)]

    def setup_cmd(self, p: dict) -> list[str]:
        return [sys.executable, "-c", "import kakeya_lab.cli"]

    def op_cmd(self, p: dict, out: Path, span_dir: Path | None) -> list[str]:
        if span_dir is None:
            return [sys.executable, "-c", CLI_ENTRY, *self.argv(p, out)]
        return [sys.executable, str(BENCH / "child.py"), "--spans", str(span_dir), "cli", *self.argv(p, out)]


class ConvergenceWorkload:
    """`convergence_split` on a lacunary map, called in a child Python."""

    name = "convergence-split"
    reference = False
    base = {"alpha": 0.8, "terms": 10, "map_seed": 5, "epsilons": [0.15, 0.06, 0.025],
            "heights": 3, "mesh": 1024, "h": 0.02}

    def params(self, seed: int) -> dict:
        return dict(self.base, map_seed=self.base["map_seed"] + seed)

    def _cmd(self, p: dict, extra: list[str], span_dir: Path | None = None) -> list[str]:
        traced = ["--spans", str(span_dir)] if span_dir is not None else []
        return [sys.executable, str(BENCH / "child.py"), *traced, "convergence",
                "--params", json.dumps(p, sort_keys=True), *extra]

    def setup_cmd(self, p: dict) -> list[str]:
        return self._cmd(p, [])

    def op_cmd(self, p: dict, out: Path, span_dir: Path | None) -> list[str]:
        return self._cmd(p, ["--out", str(out / "convergence.json")], span_dir)


LACUNARY = "lacunary:alpha={alpha},terms={terms},seed={map_seed}"
WORKLOADS = {
    w.name: w
    for w in [
        CliWorkload(
            "sweep-mollified",
            {"alpha": 0.8, "terms": 12, "map_seed": 7, "epsilon": 0.05, "mesh": 768, "t_steps": 16},
            ["sweep", "--map", LACUNARY, "--epsilon", "{epsilon}", "--mesh", "{mesh}",
             "--t-steps", "{t_steps}", "--jobs", "{jobs}"],
            "sv.csv",
            reference=True,
        ),
        CliWorkload(
            "sweep-grid",
            {"alpha": 0.8, "terms": 12, "map_seed": 7, "grid_h": 0.005, "mesh": 2048, "t_steps": 16},
            ["sweep", "--map", LACUNARY, "--method", "grid", "--grid-h", "{grid_h}", "--mesh", "{mesh}",
             "--t-steps", "{t_steps}", "--jobs", "{jobs}"],
            "sv.csv",
            reference=True,
        ),
        ConvergenceWorkload(),
        CliWorkload(
            "tube-union",
            {"alpha": 0.8, "terms": 10, "map_seed": 21, "delta": 0.06, "mc_points": 200000},
            ["tubes", "--map", LACUNARY, "--delta", "{delta}"],
            "tubes.json",
        ),
    ]
}


def run_check(wl, p: dict, out: Path, ref: Path | None) -> tuple[bool, str]:
    """Check one operation's outputs in a process of its own (checks.py).

    A child's peak resident set as wait4 reports it starts from its parent's
    peak, so the checks' arrays must never be allocated in this process.
    """
    cmd = [sys.executable, str(BENCH / "checks.py"), wl.name, str(out), json.dumps(p)]
    if ref is not None:
        cmd += ["--reference", str(ref)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{wl.name}: the output check crashed:\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 0, proc.stdout.strip()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    p = wl.params(seed)
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup: list[float] = []

        def time_setup(count: int) -> None:
            for _ in range(count):
                child = run_child(wl.setup_cmd(p), work / f"setup{len(setup)}.log")
                if child.code != 0:
                    raise SystemExit(f"{wl.name}: set-up failed with exit {child.code}:\n{child.log.read_text()}")
                setup.append(child.wall)

        time_setup(SETUP_SPAWNS // 2)

        ref = None
        if wl.reference:
            ref = work / "reference"
            ref.mkdir()
            cmd = [sys.executable, "-c", CLI_ENTRY, *wl.argv(p, ref, jobs=1)]
            child = run_child(cmd, work / "reference.log")
            if child.code != 0:
                raise SystemExit(f"{wl.name}: --jobs 1 reference run failed:\n{child.log.read_text()}")

        done = {False: [], True: []}  # traced flag -> children that succeeded
        layers: list[dict] = []
        attempted = 0
        errors: list[str] = []  # operations that exited non-zero
        wrong: list[str] = []  # operations whose outputs failed a check
        passed: dict[str, str] = {}  # output digest -> check message
        measured = 0.0
        while attempted == 0 or measured < seconds:
            for traced in (False, True) if trace else (False,):
                out = work / f"op{attempted}"
                out.mkdir()
                span_dir = work / f"op{attempted}-spans" if traced else None
                if traced:
                    span_dir.mkdir()
                child = run_child(wl.op_cmd(p, out, span_dir), work / f"op{attempted}.log")
                attempted += 1
                measured += child.wall
                if child.code != 0:
                    errors.append(f"exit {child.code}: {child.log.read_text()[-2000:]}")
                    continue
                digest = _digest(list(out.iterdir()))
                if digest not in passed:
                    ok, message = run_check(wl, p, out, ref)
                    if not ok:
                        wrong.append(f"check failed: {message}")
                        continue
                    passed[digest] = message
                done[traced].append(child)
                if traced:
                    layers.append(spans.summarize(span_dir))
        time_setup(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = done[False]
    result = {"correct": not wrong, "attempted": attempted, "failed": len(errors)}
    if not plain:
        return {**result, "correct": False, "metrics": {}, "errors": errors + wrong, "checks": []}
    e2e = {
        "wall_s": statistics.median(c.wall for c in plain),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(c.cpu for c in plain),
        "peak_rss_mb": statistics.median(c.rss_mb for c in plain),
    }
    if trace:
        metrics = {name: _metric(statistics.median(d[name] for d in layers), unit)
                   for name, unit in spans.PER_LAYER.items()} if layers else {}
        overhead = statistics.median(c.wall for c in done[True]) - e2e["wall_s"] if done[True] else 0.0
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    else:
        metrics = {name: _metric(e2e[name], unit) for name, unit in END_TO_END.items()}
    return {**result, "metrics": metrics, "errors": errors + wrong, "checks": sorted(set(passed.values())),
            "e2e": e2e, "samples": len(plain)}


def report(name: str, seed: int, res: dict) -> None:
    ok = "outputs correct" if res["correct"] else "OUTPUTS WRONG"
    print(f"{name} (seed {seed}): {res['attempted']} operations, {res['failed']} failed, {ok}")
    for msg in res["checks"]:
        print(f"  check: {msg}")
    for msg in res["errors"]:
        print(f"  error: {msg}")
    for key, value in res.get("e2e", {}).items():
        count = SETUP_SPAWNS if key == "setup_s" else res["samples"]
        print(f"  {key:<40} {value:12.4f} {END_TO_END[key]}  (median of {count})")
    for key, m in res["metrics"].items():
        if key not in END_TO_END:
            print(f"  {key:<40} {m['value']:12.4f} {m['unit']}")


def main() -> int:
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 gives the README's inputs")
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="operation time to measure per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "kakeya_lab" / "__init__.py").is_file():
        print(f"error: no kakeya_lab package under {SRC}", file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for name in chosen:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, res)
        results[name] = res
    if len(chosen) > 1:
        for name, res in results.items():
            print(json.dumps({"workload": name, **{k: res[k] for k in ("correct", "attempted", "failed", "metrics")}}))
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (results[chosen[0]]["metrics"] if len(chosen) == 1 else
                    {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}),
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
