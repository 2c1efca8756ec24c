"""The run arrays of the benchmark's three cell-counting inputs, pinned.

Every run array that the `sweep-grid`, `convergence-split` and `tube-union`
benchmark inputs (seed 0) make, the near-loop masks and collars of planar
loops and the height layers of the tube union, is hashed in call order as
sha256 over each array's dtype, shape and bytes.  A refactor of the span
kernels must leave every one of them equal.  The pins hold for x86-64,
numpy 2.4 and OpenBLAS, like the report pins of `test_cli.py`.
"""

import hashlib

import numpy as np
import pytest

import kakeya_lab.convergence as convergence
import kakeya_lab.measure as measure
import kakeya_lab.winding as winding
from kakeya_lab.cli import main
from kakeya_lab.maps import make_map
from kakeya_lab.sphere import sample_sphere

# (arrays, sha256) of each input's run arrays, (first, last) per call
PINNED_RUNS = {
    "sweep-grid": (32, "14dcf0925155b304a1eb28fdff8840adafc7e17933945d69f0cd34dfdfc0cbe2"),
    "convergence-split": (42, "e62e9e40b1964a9265c22e5a8ed2bcdeed0f69197a8b6db23a892934c2b19b0f"),
    "tube-union": (158, "9a50449fe59f1e533a1f905cc0d596469c5471ba69cb30e7aac14a8a1b46bbf7"),
}


def _recording(module, name, seen):
    real = getattr(module, name)

    def record(*args):
        runs = real(*args)
        seen.extend(runs)
        return runs

    return record


def _sweep_grid(tmp_path, monkeypatch, seen):
    # the h/2 mask of each of the 16 heights, through the CLI
    monkeypatch.setattr(winding, "mark_near_polyline", _recording(winding, "mark_near_polyline", seen))
    argv = ["sweep", "--map", "lacunary:alpha=0.8,terms=12,seed=7", "--method", "grid", "--grid-h", "0.005",
            "--mesh", "2048", "--t-steps", "16", "--jobs", "2", "--out", str(tmp_path / "sv.csv")]
    assert main(argv) == 0


def _convergence_split(tmp_path, monkeypatch, seen):
    # every h/2 mask and collar of `convergence_split`
    for module in (winding, convergence):
        monkeypatch.setattr(module, "mark_near_polyline", _recording(module, "mark_near_polyline", seen))
    pmap = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5)
    convergence.convergence_split(pmap, [0.15, 0.06, 0.025], np.linspace(0.0, 1.0, 3), sample_sphere(1, 1024), 0.02)


def _tube_union(tmp_path, monkeypatch, seen):
    # every layer of the union at h = delta/4
    monkeypatch.setattr(measure, "tube_layer_runs", _recording(measure, "tube_layer_runs", seen))
    family = measure.build_tube_family(make_map("lacunary_fourier", alpha=0.8, terms=10, seed=21), 0.06)
    measure.tube_union_volume(family, 0.015)


INPUTS = {"sweep-grid": _sweep_grid, "convergence-split": _convergence_split, "tube-union": _tube_union}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_arrays_keep_their_pinned_digests(tmp_path, monkeypatch, name):
    seen = []
    INPUTS[name](tmp_path, monkeypatch, seen)
    digest = hashlib.sha256()
    for runs in seen:
        digest.update(f"{runs.dtype.str}{runs.shape}".encode())
        digest.update(np.ascontiguousarray(runs).tobytes())
    assert (len(seen), digest.hexdigest()) == PINNED_RUNS[name]
