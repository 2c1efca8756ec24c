"""Steadiness of the benchmark: two sets of runs of one commit, held to the bounds.

    python3 bench/steady.py [--workload NAME|all]

Runs `run.py --trace 0` once per seed, seeds 1 to 10, and then again over the
same seeds, so that the two sets see the same inputs and differ only by
run-to-run noise. For every end-to-end metric of every workload it prints each
set's median, quartiles and spread (quartile distance over the median), and
passes the metric when every set's spread is within its bound from
BENCHMARK.json and the second set's median differs from the first's, either
way, by at most the bound. The share of failed operations must be the same in
both sets. Exits 0 when everything passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)  # every set runs these seeds, in this order
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    args = parser.parse_args()

    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        sets = []
        for k in range(SETS):
            runs = []
            for seed in SEEDS:
                res = run_once(name, seed, spec["run_seconds"])
                runs.append(res)
                print(f"{name} set {k + 1} seed {seed}: "
                      + ", ".join(f"{m}={v['value']:.4f}" for m, v in res["metrics"].items()), flush=True)
            sets.append(runs)
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets}
        if len(shares) != 1:
            ok = False
        print(f"{name}: failed share per set {sorted(shares)}{'' if len(shares) == 1 else '  FAIL'}")
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians, notes = [], []
            passed = True
            for k, runs in enumerate(sets):
                values = [r["metrics"][m]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med
                medians.append(med)
                if spread > bound:
                    passed = False
                notes.append(f"set {k + 1}: median {med:.4f} [{q1:.4f}, {q3:.4f}] spread {spread:.3f}")
            drift = (medians[1] - medians[0]) / medians[0]
            if abs(drift) > bound:
                passed = False
            ok = ok and passed
            print(f"  {m:<12} bound {bound:.2f}  " + "; ".join(notes)
                  + f"; drift {drift:+.3f}  {'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
