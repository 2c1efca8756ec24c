"""In-memory spans around the public functions of `kakeya_lab`, for the traced run.

`install` wraps each traced function at every place it is bound (the defining
module, every module that imported it by name, and the package itself), so a
call is timed whichever binding the caller used. Nothing inside the package
changes. Each process keeps its spans in memory and appends them to
`<dir>/spans-<pid>.jsonl` only when no span is open: pool workers do so after
each task, the traced process when it ends. `summarize` reads those files
back and turns them into the per-layer metrics.

Spans in pool workers are recorded only when the pool forks its workers from
the traced process (the default start method on Linux), since a fresh
interpreter would not have the wrappers installed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# Per-layer metrics: name -> unit. Every traced run reports all of them, with
# 0 for layers the workload does not reach.
PER_LAYER = {
    "smoothing.mollify_on_sphere.s": "s",
    "smoothing.mollifier_kernel.s": "s",
    "smoothing.mollify_on_sphere.calls": "count",
    "cli.sv_worker.calls": "count",
    "cli.pool_wait.s": "s",
    "sphere.sample_sphere.calls": "count",
    "sphere.sample_sphere.s": "s",
    "maps.parse_map_spec.calls": "count",
    "maps.eval.s": "s",
    "maps.eval.points": "count",
    "maps.holder_estimate.s": "s",
    "gridding.mark_near_polyline.h2.s": "s",
    "gridding.mark_near_polyline.h2.calls": "count",
    "gridding.mark_near_polyline.collar.s": "s",
    "gridding.mark_near_polyline.collar.calls": "count",
    "gridding.segments": "count",
    "winding.winding_field.s": "s",
    "winding.winding_field.calls": "count",
    "winding.winding_field.cells": "cells",
    "winding.crossing_winding_rows.s": "s",
    "winding.masked_cells": "cells",
    "slices.slice_loop.calls": "count",
    "slices.signed_volume_stokes.s": "s",
    "slices.signed_volume_grid.s": "s",
    "slices.fit_sv_polynomial.s": "s",
    "slices.sv_lower_bound_check.s": "s",
    "measure.build_tube_family.s": "s",
    "measure.tube_union_volume.s": "s",
    "measure.tube_layers": "count",
    "measure.cells_hit": "cells",
    "convergence.convergence_split.s": "s",
    "report.write.s": "s",
    "report.bytes": "bytes",
}


class Tracer:
    """Span collector of one process; spans are [name, t0, t1, parent, counters]."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.stack: list[int] = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # a forked pool worker starts with none of its parent's spans
        self.spans = []
        self.stack = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def flush(self) -> None:
        """Append the finished spans of this process to its span file."""
        if self.stack or not self.spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []


def _timed(tracer: Tracer, fn, name, counters=None):
    """Wrap `fn` in a span; `name` may be a function of the call's arguments.

    Counters are computed after the span closes, so they do not add to it.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        index = tracer.open(label)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counters is not None:
            tracer.spans[index][4] = counters(out, *args, **kwargs)
        return out

    return wrapper


def _rebind(original, replacement) -> None:
    """Replace `original` at every module-level binding inside kakeya_lab."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "kakeya_lab" or mod_name.startswith("kakeya_lab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _mask_kind(grid, vertices, tol):
    # the h/2 boundary mask of a winding field, or a wider collar
    return "gridding.mark_near_polyline.h2" if tol <= grid.h else "gridding.mark_near_polyline.collar"


def _tube_layers(est, family, h):
    # the same layer count tube_union_volume iterates over
    import numpy as np

    a3, b3 = family.segment_endpoints()
    lo = np.minimum(a3, b3).min(axis=0) - family.delta - 2.0 * h
    hi = np.maximum(a3, b3).max(axis=0) + family.delta + 2.0 * h
    layers = int(np.ceil((hi[2] - lo[2]) / h))
    return {"measure.tube_layers": family.count * layers, "measure.cells_hit": est.cells_hit}


def _written_bytes(paths) -> int:
    if isinstance(paths, (tuple, list)):
        return sum(_written_bytes(p) for p in paths)
    return Path(paths).stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every kakeya_lab module."""
    import kakeya_lab.cli as cli
    from kakeya_lab import convergence, gridding, maps, measure, report, slices, smoothing, sphere, winding

    plain = [
        (sphere, "sample_sphere"),
        (maps, "parse_map_spec"),
        (maps, "holder_estimate"),
        (smoothing, "mollify_on_sphere"),
        (smoothing, "mollifier_kernel"),
        (winding, "crossing_winding_rows"),
        (slices, "slice_loop"),
        (slices, "signed_volume_stokes"),
        (slices, "signed_volume_grid"),
        (slices, "fit_sv_polynomial"),
        (slices, "sv_lower_bound_check"),
        (measure, "build_tube_family"),
        (convergence, "convergence_split"),
    ]
    for module, fn_name in plain:
        fn = getattr(module, fn_name)
        short = module.__name__.rpartition(".")[2]
        _rebind(fn, _timed(tracer, fn, f"{short}.{fn_name}"))

    fn = gridding.mark_near_polyline
    _rebind(fn, _timed(tracer, fn, _mask_kind,
                       lambda out, grid, vertices, tol: {"gridding.segments": len(vertices)}))

    fn = winding.winding_field
    _rebind(fn, _timed(tracer, fn, "winding.winding_field", lambda out, *a, **k: {
        "winding.winding_field.cells": out.grid.n_cells,
        "winding.masked_cells": int(out.mask.sum()),
    }))

    fn = measure.tube_union_volume
    _rebind(fn, _timed(tracer, fn, "measure.tube_union_volume", _tube_layers))

    def written(out, *args, **kwargs):
        # bytes are counted once, by the outermost report call
        return {} if tracer.inside("report.") else {"report.bytes": _written_bytes(out)}

    for fn_name in [n for n in vars(report) if n.startswith("write_")]:
        fn = getattr(report, fn_name)
        _rebind(fn, _timed(tracer, fn, "report.write", written))

    call = maps.PositionMap.__call__
    maps.PositionMap.__call__ = _timed(
        tracer, call, "maps.eval",
        lambda out, *a, **k: {"maps.eval.points": 1 if out.ndim == 1 else len(out)},
    )

    sv_worker = cli._sv_worker
    timed_worker = _timed(tracer, sv_worker, "cli.sv_worker")

    @functools.wraps(sv_worker)
    def worker(payload):
        try:
            return timed_worker(payload)
        finally:
            tracer.flush()

    cli._sv_worker = worker

    class TracedPool(cli.ProcessPoolExecutor):
        """The sweep's process pool; its span is the parent's wait on the pool."""

        def __enter__(self):
            self._span = tracer.open("cli.pool_wait")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    cli.ProcessPoolExecutor = TracedPool


def summarize(span_dir: Path) -> dict:
    """Per-layer metrics from every span file in `span_dir`.

    `.s` is self time (a span minus its direct children), summed over all
    processes; `.calls` counts spans; other names sum the spans' counters.
    """
    totals = dict.fromkeys(PER_LAYER, 0)
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            batch = json.loads(line)
            self_time = [t1 - t0 for _, t0, t1, _, _ in batch]
            for _, t0, t1, parent, _ in batch:
                if parent >= 0:
                    self_time[parent] -= t1 - t0
            for (name, _, _, _, counters), own in zip(batch, self_time):
                for key, value in ((f"{name}.s", own), (f"{name}.calls", 1), *counters.items()):
                    if key in totals:
                        totals[key] += value
    return totals
