import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _child(span_dir, *argv, cwd):
    env = {k: v for k, v in os.environ.items() if k != "KAKEYA_LAB_JOBS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, str(BENCH / "child.py"), "--spans", str(span_dir), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_traced_benchmark_steps_reach_the_winding_layers(tmp_path):
    # the traced run of bench/run.py binds package names by hand; a renamed
    # or removed binding fails here and not only in the benchmark
    span_dir = tmp_path / "spans"
    span_dir.mkdir()
    params = {"alpha": 0.8, "terms": 10, "map_seed": 5, "epsilons": [0.3, 0.15, 0.06],
              "heights": 3, "mesh": 512, "h": 0.05}
    steps = [
        ["convergence", "--params", json.dumps(params), "--out", str(tmp_path / "convergence.json")],
        ["cli", "sweep", "--map", "zero", "--method", "grid", "--grid-h", "0.02", "--mesh", "256",
         "--t-steps", "8", "--jobs", "1", "--out", str(tmp_path / "sv.csv")],
        ["cli", "tubes", "--map", "lacunary:alpha=0.8,terms=6,seed=1", "--delta", "0.1",
         "--out", str(tmp_path / "tubes.json")],
    ]
    for argv in steps:
        done = _child(span_dir, *argv, cwd=tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    metrics = spans.summarize(span_dir)
    assert metrics["winding.winding_field.calls"] > 0
    assert metrics["gridding.mark_near_polyline.h2.calls"] > 0
    assert metrics["slices.signed_volume_grid.s"] > 0.0
    # the tube counters read the union's result and the family's segments
    assert metrics["measure.tube_union_volume.s"] > 0.0
    assert metrics["measure.cells_hit"] > 0
