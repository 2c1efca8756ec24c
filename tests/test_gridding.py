import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kakeya_lab
from kakeya_lab.gridding import (
    _PAIR_CHUNK, CellGrid, _chain_disks, _chain_pairs, _chunks, _near, _rows_within, _segments,
    _SpanTable, grid_over, mark_near_polyline, merged_runs, points_near_polyline, run_keys_fit,
    scanline_runs,
)
from kakeya_lab.maps import make_map
from kakeya_lab.slices import slice_loop
from kakeya_lab.sphere import sample_sphere
from kakeya_lab.winding import field_grid


def _reference_mark_near_polyline(grid, vertices, tol):
    """The per-segment loop the span kernel replaced: every cell of each
    segment's bounding sub-box gets the exact distance test."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    mask = np.zeros(grid.shape, dtype=bool)
    h = grid.h
    nx, ny = grid.shape
    ab = w - v
    ab2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    for k in range(len(v)):
        a, b = v[k], w[k]
        lo = np.minimum(a, b) - tol - h
        hi = np.maximum(a, b) + tol + h
        i0 = max(int(np.floor((lo[0] - grid.origin[0]) / h - 0.5)), 0)
        i1 = min(int(np.ceil((hi[0] - grid.origin[0]) / h - 0.5)), nx - 1)
        j0 = max(int(np.floor((lo[1] - grid.origin[1]) / h - 0.5)), 0)
        j1 = min(int(np.ceil((hi[1] - grid.origin[1]) / h - 0.5)), ny - 1)
        if i1 < i0 or j1 < j0:
            continue
        gx = grid.origin[0] + (np.arange(i0, i1 + 1) + 0.5) * h
        gy = grid.origin[1] + (np.arange(j0, j1 + 1) + 0.5) * h
        px, py = np.meshgrid(gx, gy, indexing="ij")
        pa_x = px - a[0]
        pa_y = py - a[1]
        t = np.clip((pa_x * ab[k, 0] + pa_y * ab[k, 1]) / ab2[k], 0.0, 1.0)
        dx = pa_x - t * ab[k, 0]
        dy = pa_y - t * ab[k, 1]
        mask[i0 : i1 + 1, j0 : j1 + 1] |= dx * dx + dy * dy <= tol * tol
    return mask


def _rows(shape, first, last):
    """Runs (first, last) on the packed line as (rows, starts, stops), cells
    [start, stop) of row `row`."""
    rows, starts = np.divmod(first, shape[0] + 1)
    return rows, starts, starts + (last - first)


def _packed(shape, rows, starts, stops):
    """Runs (rows, starts, stops) as (first, last) on the packed line."""
    line = np.asarray(rows, dtype=np.int64) * (shape[0] + 1)
    return line + starts, line + stops


def _runs_plane(shape, first, last):
    """Boolean (nx, ny) plane of the runs (first, last), cell by cell."""
    plane = np.zeros(shape, dtype=bool)
    for row, start, stop in zip(*_rows(shape, first, last)):
        plane[start:stop, row] = True
    return plane


def _assert_disjoint_sorted(nx, ny, first, last):
    rows, starts, stops = _rows((nx, ny), first, last)
    assert np.all((0 <= rows) & (rows < ny) & (0 <= starts) & (starts < stops) & (stops <= nx))
    # sorted by (row, start), and no two runs of a row overlap or touch
    same_row = rows[1:] == rows[:-1]
    assert np.all((rows[1:] > rows[:-1]) | (same_row & (starts[1:] > stops[:-1])))


def _chain_runs(grid, vertices, tol, chain):
    """`scanline_runs` over the loop's segments with `chain` segments a chain
    at the finest level, each segment given the rows `mark_near_polyline`
    gives it."""
    a, u, y0, y1 = _segments(vertices)
    j0, j1 = _rows_within(y0, y1, tol, grid.origin[1], grid.h, grid.shape[1])
    return scanline_runs(grid.shape, grid.origin, grid.h, j0, j1, a, u, tol, chain)


def _assert_same(grid, vertices, tol, chains=(None,), want=None):
    """The runs of `mark_near_polyline` (chains None), or of `scanline_runs`
    with `chain` segments a chain (`_chain_runs`), are disjoint and sorted,
    and their plane equals the reference loop's; returns that plane."""
    if want is None:
        want = _reference_mark_near_polyline(grid, vertices, tol)
    for chain in chains:
        if chain is None:
            runs = mark_near_polyline(grid, vertices, tol)
        else:
            runs = _chain_runs(grid, vertices, tol, chain)
        _assert_disjoint_sorted(*grid.shape, *runs)
        got = _runs_plane(grid.shape, *runs)
        assert np.array_equal(got, want), f"{int(np.sum(got != want))} cells differ at tol {tol}, chain {chain}"
    return got


# binary-exact grid: cell centers at (k + 1/2) / 4
EXACT_GRID = CellGrid(np.array([0.0, 0.0]), 0.25, (40, 36))


def _center(k):
    return (k + 0.5) * 0.25


def _clipped_rows(lo, hi, reach, origin, h, n):
    """`_rows_within` of the given ends, clipped to the grid's rows."""
    j0, j1 = _rows_within(np.asarray(lo, float), np.asarray(hi, float), reach, origin, h, n)
    assert np.all((-2 <= j0) & (j0 <= n + 1) & (-2 <= j1) & (j1 <= n + 1))
    return np.maximum(j0, 0), np.minimum(j1, n - 1)


@pytest.mark.parametrize("seed", [0, 3, 6])
@pytest.mark.parametrize("scale", ["half", "3h", "wider-than-grid"])
def test_lacunary_loops_match_reference(seed, scale):
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=seed)
    h = 0.05 if scale == "wider-than-grid" else 0.02
    loop = slice_loop(m, 0.5, sample_sphere(1, 256 if scale == "wider-than-grid" else 1024))
    grid = grid_over(loop.vertices, h, pad=0.3)
    tol = {"half": h / 2.0, "3h": 3.0 * h, "wider-than-grid": 2.0 * max(grid.shape) * h}[scale]
    mask = _assert_same(grid, loop.vertices, tol)
    if scale == "wider-than-grid":
        assert mask.all()


def test_horizontal_and_vertical_segments_match_reference():
    rect = np.array([[_center(5), _center(6)], [_center(30), _center(6)],
                     [_center(30), _center(25)], [_center(5), _center(25)]])
    for tol in (0.1, 0.125, 0.25, 0.75, 1.3):
        _assert_same(EXACT_GRID, rect, tol)
    # off-center axis-parallel segments
    _assert_same(EXACT_GRID, rect + np.array([0.1, 0.07]), 0.4)


def test_tol_on_cell_centers_pins_less_or_equal():
    # a horizontal segment along a row of centers: the centers three rows up
    # are at distance exactly 3h, and so is the center three cells past its end
    seg = np.array([[_center(10), _center(8)], [_center(20), _center(8)]])
    mask = _assert_same(EXACT_GRID, seg, 0.75)
    assert mask[10:21, 11].all()
    assert not mask[10:21, 12].any()
    assert mask[23, 8] and not mask[24, 8]
    assert mask[7, 8] and not mask[6, 8]
    # the same along a column, whose rows reach exactly the centers 3h past its ends
    seg = np.array([[_center(8), _center(10)], [_center(8), _center(20)]])
    mask = _assert_same(EXACT_GRID, seg, 0.75)
    assert mask[11, 10:21].all()
    assert not mask[12, 10:21].any()
    _, _, y0, y1 = _segments(seg)
    j0, j1 = _clipped_rows(y0, y1, 0.75, 0.0, 0.25, 36)
    assert np.array_equal(j0, [7, 7]) and np.array_equal(j1, [23, 23])
    assert mask[8, 7] and mask[8, 23] and not mask[:, 6].any() and not mask[:, 24].any()


def test_repeated_vertices_give_zero_length_segments():
    pts = np.array([[1.3, 2.1], [1.3, 2.1], [4.2, 2.9], [4.2, 2.9], [4.2, 2.9], [2.0, 6.6]])
    for tol in (0.125, 0.6, 2.0):
        _assert_same(EXACT_GRID, pts, tol)
    # a loop collapsed to one point marks exactly the disk around it
    point = np.repeat([[_center(20), _center(18)]], 16, axis=0)
    for tol in (0.5, 1.0, 2.5):
        mask = _assert_same(EXACT_GRID, point, tol)
        i, j = np.nonzero(mask)
        d = np.hypot((i - 20) * 0.25, (j - 18) * 0.25)
        assert d.max() <= tol
        assert len(i) == np.sum(
            np.hypot(*np.meshgrid((np.arange(40) - 20) * 0.25, (np.arange(36) - 18) * 0.25)) <= tol
        )


def test_segments_partly_off_the_grid():
    pts = np.array([[-3.0, 1.0], [5.0, -2.0], [14.0, 4.5], [6.0, 12.0], [-1.0, 8.0]])
    for tol in (0.125, 0.9, 3.0):
        _assert_same(EXACT_GRID, pts, tol)
    # entirely off the grid
    far = np.array([[30.0, 30.0], [40.0, 31.0], [35.0, 45.0]])
    assert not _assert_same(EXACT_GRID, far, 1.0).any()


def test_nearly_axis_parallel_segments():
    y = _center(9)
    pts = np.array([[0.3, y], [8.1, np.nextafter(y, 10.0)], [8.1 + 1e-15, 6.2], [0.3, 6.2 - 3e-16]])
    for tol in (0.25, 0.5, 0.75, 1.0):
        _assert_same(EXACT_GRID, pts, tol)


def test_random_polylines_match_reference():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pts = rng.uniform(-1.0, 11.0, size=(int(rng.integers(2, 12)), 2))
        grid = CellGrid(rng.uniform(-0.5, 0.5, size=2), float(rng.uniform(0.1, 0.4)), (45, 38))
        _assert_same(grid, pts, float(rng.uniform(0.05, 3.0)))


def test_rows_within_matches_brute_force():
    # the rows j0..j1 are exactly those whose center is within reach of [lo, hi]
    rng = np.random.default_rng(4)
    for _ in range(200):
        origin, h, n = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.01, 0.5)), int(rng.integers(1, 80))
        ends = np.sort(rng.uniform(origin - 2.0, origin + n * h + 2.0, size=(2, 40)), axis=0)
        reach = rng.uniform(0.0, 3.0, size=40) * float(rng.choice([h, 1.0]))
        j0, j1 = _clipped_rows(ends[0], ends[1], reach, origin, h, n)
        centers = origin + (np.arange(n) + 0.5) * h
        inside = (centers >= ends[0][:, None] - reach[:, None]) & (centers <= ends[1][:, None] + reach[:, None])
        got = (np.arange(n) >= j0[:, None]) & (np.arange(n) <= j1[:, None])
        assert np.array_equal(got, inside)


def test_rows_within_keeps_rows_exactly_reach_from_the_ends():
    # [c6, c18] ends exactly 0.5 from the centers of rows 4 and 20; both are in
    assert _clipped_rows([_center(6)], [_center(18)], 0.5, 0.0, 0.25, 36) == ([4], [20])
    assert _clipped_rows([_center(6)], [_center(18)], 0.5 - 1e-6, 0.0, 0.25, 36) == ([5], [19])
    # a point interval, and an interval whose reach ends halfway between centers
    assert _clipped_rows([_center(9)], [_center(9)], 0.25, 0.0, 0.25, 36) == ([8], [10])
    assert _clipped_rows([_center(9)], [_center(9)], 0.125, 0.0, 0.25, 36) == ([9], [9])
    # reaching past the grid, or missing it
    assert _clipped_rows([_center(1)], [_center(34)], 1.0, 0.0, 0.25, 36) == ([0], [35])
    j0, j1 = _clipped_rows([-5.0, 20.0], [-3.0, 30.0], 1.0, 0.0, 0.25, 36)
    assert np.all(j0 > j1)


def test_tangent_row_of_a_horizontal_segment():
    # the capsule edge of a segment below the grid lies on the centers of row
    # 2: y + tol rounds below them while `_near` accepts them, so only the
    # widening of the row rule keeps that row
    y = -0.9
    tol = _center(2) - y
    assert y + tol < _center(2)
    seg = np.array([[_center(5), y], [_center(20), y]])
    assert _clipped_rows([y], [y], tol, 0.0, 0.25, 36)[1] == [2]
    mask = _assert_same(EXACT_GRID, seg, tol, chains=(1, 2, None))
    assert mask[5:21, 2].all() and not mask[:5, 2].any() and not mask[21:, 2].any()
    assert not mask[:, 3:].any()


def test_points_near_polyline_keeps_the_tangent_point():
    # the tangent-row segment: y + tol rounds below the point at row 2's
    # center, which `_near` accepts, so only a widened window tests it
    y = -0.9
    tol = _center(2) - y
    seg = np.array([[_center(5), y], [_center(20), y]])
    point = np.array([[_center(10), _center(2)]])
    assert y + tol < point[0, 1]
    a, u, _, _ = _segments(seg)
    assert _near(point, a[:1], u[:1], tol)[0]
    assert points_near_polyline(point, seg, tol)


def test_points_near_polyline_matches_brute_force_near():
    # polylines whose vertices share a few non-binary heights, points on
    # binary-exact centers, and tol the gap from a point to a vertex height:
    # many segments are tangent to a point, and every answer is `_near` over
    # all (point, segment) pairs
    rng = np.random.default_rng(23)
    for _ in range(400):
        k = int(rng.integers(2, 7))
        verts = np.stack([_center(rng.integers(-8, 40, size=k)),
                          rng.choice([-0.9, -0.3, 0.1, 0.7], size=k)], axis=1)
        pts = _center(rng.integers(-8, 40, size=(int(rng.integers(1, 30)), 2)))
        tol = abs(pts[rng.integers(len(pts)), 1] - verts[rng.integers(k), 1])
        a, u, _, _ = _segments(verts)
        P = np.repeat(pts, k, axis=0)
        want = bool(_near(P, np.tile(a, (len(pts), 1)), np.tile(u, (len(pts), 1)), tol).any())
        assert points_near_polyline(pts, verts, tol) == want


@pytest.mark.parametrize("cells", [0.5, 3, 10])
def test_loops_partly_off_the_grid_in_chains(cells):
    v, grid = _collar_loop(mesh=256, h=0.05)
    tol = cells * grid.h
    for corner in (0.4, -0.3):
        small = CellGrid(grid.origin + corner * np.array(grid.shape) * grid.h, grid.h, (30, 25))
        _assert_same(small, v, tol, chains=(1, 2, len(v)))
    rng = np.random.default_rng(8)
    for _ in range(5):
        pts = rng.uniform(-3.0, 13.0, size=(int(rng.integers(3, 12)), 2))
        _assert_same(EXACT_GRID, pts, cells * EXACT_GRID.h, chains=(1, 2, len(pts)))


def test_h2_masks_hand_only_the_rows_in_reach_to_the_spans(monkeypatch):
    # the `sweep-grid` benchmark inputs: map seed 7, 2,048 vertices, h = 0.005,
    # 16 heights; every (segment, row) pair whose row center is within h/2 of
    # the segment's y-range, up to the rule's widening, and no other, reaches
    # the spans of `_SpanTable.chords`.  The grid is anchored to the lowest vertex, which
    # lies on a cell edge h/2 from the centers of the row below it: the 10
    # pairs that the widening adds are such rows, beyond h/2 by a rounding
    # error
    import kakeya_lab.gridding as gridding

    handed = []
    real = gridding._SpanTable.chords

    def counting(self, k, j):
        handed.append(len(j))
        return real(self, k, j)

    monkeypatch.setattr(gridding._SpanTable, "chords", counting)
    m = make_map("lacunary_fourier", alpha=0.8, terms=12, seed=7)
    mesh = sample_sphere(1, 2048)
    h = 0.005
    in_reach = widened = 0
    for t in np.linspace(0.0, 1.0, 16):
        loop = slice_loop(m, t, mesh)
        grid = field_grid(loop, h)
        mark_near_polyline(grid, loop.vertices, h / 2.0)
        _, _, y0, y1 = _segments(loop.vertices)
        py = grid.axis_centers(1)
        # distance in y from each row center to each segment's y-range
        d = np.maximum(np.maximum(y0[:, None] - py, py - y1[:, None]), 0.0)
        in_reach += int(np.sum(d <= h / 2.0))
        widened += int(np.sum(d <= h / 2.0 + 1e-12))
    assert sum(handed) == widened == 107_184
    assert in_reach == 107_174


def _check_row_spans(a, u, r, py, origin=(0.3, -0.2), h=0.01):
    """The closed-form spans of one planar segment on the lines y = py (rows
    at fractional j) against the exact test on many x: every x in the inner
    span (radius r - slack) passes, and every x that passes lies in the
    outer span (r + slack).  Spans are in cell units, X = (x - o_x)/h - 1/2."""
    py = np.atleast_1d(np.asarray(py, dtype=float))
    table = _SpanTable(np.asarray(origin), h, a[None], u[None], r)
    lo, hi = table.chords(np.zeros(len(py), dtype=np.int64), (py - origin[1]) / h - 0.5)
    assert len(lo) == 2
    span = r + np.abs(u).max()
    for row in range(len(py)):
        xs = np.linspace(a[0] - span, a[0] + span, 4001)
        ends = [origin[0] + (x + 0.5) * h for x in (lo[0, row], hi[0, row], lo[1, row], hi[1, row])
                if np.isfinite(x)]
        xs = np.concatenate([xs] + [np.nextafter(x, [-np.inf, np.inf]) for x in ends] + [ends])
        P = np.stack([xs, np.full(len(xs), py[row])], axis=1)
        hit = _near(P, np.repeat(a[None], len(xs), axis=0), np.repeat(u[None], len(xs), axis=0), r)
        X = (xs - origin[0]) / h - 0.5
        inner = (X >= lo[1, row]) & (X <= hi[1, row])
        outer = (X >= lo[0, row]) & (X <= hi[0, row])
        assert hit[inner].all(), (a, u, r, py[row])
        assert outer[hit].all(), (a, u, r, py[row])
    return lo, hi


@pytest.mark.parametrize("kind", ["random", "in-plane", "vertical", "zero", "unit", "along-rows"])
def test_segment_row_spans_bracket_the_exact_test(kind):
    # planar segments: tilted ones, tilted ones with rows through both ends
    # (in-plane), along a column (u_x = 0, vertical), of zero length, of
    # length just below 1 and along the rows (u_y = 0)
    rng = np.random.default_rng(["random", "in-plane", "vertical", "zero", "unit", "along-rows"].index(kind))
    for _ in range(25):
        a = rng.uniform(-1.0, 1.0, size=2)
        u = rng.uniform(-1.0, 1.0, size=2)
        if kind == "vertical":
            u[0] = 0.0
        elif kind == "zero":
            u[:] = 0.0
        elif kind == "unit":
            u *= np.nextafter(1.0, 0.0) / np.linalg.norm(u)
        elif kind == "along-rows":
            u[1] = 0.0
        r = float(rng.uniform(0.02, 0.5))
        py = a[1] + rng.uniform(-r - 0.1, r + 0.1, size=6) + rng.uniform(0.0, 1.0, size=6) * u[1]
        if kind == "in-plane":
            py = np.concatenate([py, [a[1], a[1] + u[1]]])
        _check_row_spans(a, u, r, py)


def test_segment_row_spans_tangent_rows():
    # rows tangent to the end balls, top and bottom, where the chord comes
    # out empty or a point up to rounding; the extreme point of the
    # neighbourhood lies in the outer span.  A segment along the rows is
    # tangent to the rows r above and below it along its whole length
    rng = np.random.default_rng(5)
    h = 0.01
    for trial in range(40):
        a = rng.uniform(-1.0, 1.0, size=2)
        u = rng.uniform(-1.0, 1.0, size=2)
        if trial % 4 == 0:
            u[1] = 0.0
        r = float(rng.uniform(0.05, 0.3))
        top = max(a[1], a[1] + u[1]) + r
        bottom = min(a[1], a[1] + u[1]) - r
        ends = [a[1] - r, a[1] + r, a[1] + u[1] - r, a[1] + u[1] + r]
        lo, hi = _check_row_spans(a, u, r, [top, bottom, *ends])
        for row, y in enumerate((top, bottom)):
            end = a if (a[1] + r == y or a[1] - r == y) else a + u
            X = (end[0] - 0.3) / h - 0.5
            assert lo[0, row] <= X <= hi[0, row], (a, u, r, y)
        if u[1] == 0.0:
            X = (a[0] + 0.5 * u[0] - 0.3) / h - 0.5
            assert lo[0, 0] <= X <= hi[0, 0] and lo[0, 1] <= X <= hi[0, 1]


def _full_row_spans(radii, j, w, a, u, origin, h):
    """The hull of `_SpanTable.chords` with every term, case by case, over
    (m, d) rows a and u (d = 2 or 3), rows j and layer offset w: the chord
    of the slab or cylinder, x0 + u_x (t u_y + w u_z)/A -+ (L/A) sqrt(A
    (rho/h)^2 - (t u_z - w u_y)^2), taken with the unit vector (u_y, u_z)/
    sqrt(A), clipped to the strip, or to the rows from the start to the end
    for a segment across the rows, and the end balls' chords; no cylinder
    for a segment along the rows (A = 0); NaN where empty."""
    ax, ay, ux, uy = a[:, 0], a[:, 1], u[:, 0], u[:, 1]
    uz = u[:, 2] if u.shape[1] > 2 else np.zeros(len(u))
    x0 = (ax - origin[0]) / h - 0.5
    xe = (ax + ux - origin[0]) / h - 0.5
    t = j - ((ay - origin[1]) / h - 0.5)
    dj, dz = uy / h, uz / h
    b = (radii[:, None] / h) ** 2
    across = np.hypot(uy, uz)
    flat = across <= 1e-100 * np.abs(ux)
    steep = np.abs(ux) <= 1e-100 * across
    l2 = ux * ux + across * across
    with np.errstate(divide="ignore", invalid="ignore"):
        ey, ez, sx = uy / across, uz / across, ux / across
        mid = t * (sx * ey) + (x0 + w * (sx * ez))
        half = np.sqrt(b - (t * ez - w * ey) ** 2) * (np.sqrt(l2) / across)
        s = (x0 - w * (uz / ux)) - t * (uy / ux)
        length = l2 / (ux * h)
        strip_lo = np.where(steep, -np.inf, s + np.minimum(length, 0.0))
        strip_hi = np.where(steep, np.inf, s + np.maximum(length, 0.0))
        lo = np.maximum(mid - half, strip_lo)
        hi = np.minimum(half + mid, strip_hi)
        m = t * dj + w * dz
        rows = (m >= 0.0) & (m <= l2 / (h * h))
        cylinder = ~flat & (~steep | rows) & (lo <= hi)
        lo = np.where(cylinder, lo, np.nan)
        hi = np.where(cylinder, hi, np.nan)
        for cx, dt, dw in ((x0, t, w), (xe, t - dj, w - dz)):
            q = (b - dw * dw) - dt * dt
            ok = q >= 0.0
            lo = np.where(ok, np.fmin(lo, cx - np.sqrt(np.where(ok, q, 0.0))), lo)
            hi = np.where(ok, np.fmax(hi, np.sqrt(np.where(ok, q, 0.0)) + cx), hi)
    return lo, hi


@pytest.mark.parametrize("kind", ["rising", "falling", "planar", "mixed", "tubes"])
def test_segment_row_spans_equal_the_full_formula(kind):
    # u_y > 0, u_y < 0, a fifth each of the segments along the rows, along a
    # column, of zero length and within 1e-12 of the rows (planar), and
    # calls that mix the signs, with rows through the segments' ends and
    # tangent to their end balls; then segments in R^3 with u_z = 1, as
    # tubes are, a fifth of them with u_x = 0, on layers across the whole
    # tube and through its ends: bit-equal to every term of the closed form
    rng = np.random.default_rng(["rising", "falling", "planar", "mixed", "tubes"].index(kind))
    h = 0.01
    origin = np.array([-1.3, -1.1, -0.2])
    for trial in range(200):
        n = int(rng.integers(2, 80))
        a = rng.uniform(-1.0, 1.0, size=(n, 2))
        u = rng.uniform(-1.0, 1.0, size=(n, 2))
        r = float(rng.uniform(0.01, 0.2))
        w = 0.0
        if kind == "planar":
            pick = rng.integers(0, 5, size=n)
            u[pick == 0, 1] = 0.0
            u[pick == 1, 0] = 0.0
            u[pick == 2] = 0.0
            u[pick == 3, 1] = rng.uniform(-1e-12, 1e-12, size=int(np.sum(pick == 3)))
        elif kind != "tubes":
            sign = {"rising": 1.0, "falling": -1.0}.get(kind) or np.resize([1.0, -1.0], n)
            u[:, 1] = sign * np.abs(u[:, 1])
        if trial % 2:
            # ends on row centers and r a whole number of rows: rows through
            # the ends and tangent to the end balls
            a[:, 1] = origin[1] + (rng.integers(10, 200, size=n) + 0.5) * h
            u[:, 1] = np.round(u[:, 1] / h) * h
            r = int(rng.integers(1, 20)) * h
            py = a[:, 1] + rng.choice([-r, 0.0, r], size=n) + rng.choice([0.0, 1.0], size=n) * u[:, 1]
        else:
            py = a[:, 1] + rng.uniform(-r, r, size=n) + rng.uniform(0.0, 1.0, size=n) * u[:, 1]
        if kind == "tubes":
            u[rng.integers(0, 5, size=n) == 0, 0] = 0.0
            a = np.column_stack([a, np.zeros(n)])
            u = np.column_stack([u, np.ones(n)])
            w = float(rng.choice([rng.uniform(-r, 1.0 + r), rng.choice([-r, 0.0, r, 1.0 - r, 1.0, 1.0 + r])])) / h
        table = _SpanTable(origin[: a.shape[1]], h, a, u, r)
        radii = np.array([r + table.slack, r - table.slack])
        j = np.round((py - origin[1]) / h - 0.5).astype(np.int64)
        got = table.chords(np.arange(n), j, w)
        want = _full_row_spans(radii, j, w, a, u, origin, h)
        assert all(np.array_equal(g, e, equal_nan=True) for g, e in zip(got, want)), (kind, trial)


def _brute_mask(grid, vertices, tol):
    """Every cell center of the grid through `_near` against every segment."""
    a, u, _, _ = _segments(vertices)
    P = grid.centers()
    mask = np.zeros(len(P), dtype=bool)
    for k in range(len(a)):
        mask |= _near(P, np.repeat(a[k:k + 1], len(P), axis=0), np.repeat(u[k:k + 1], len(P), axis=0), tol)
    return mask.reshape(grid.shape)


def _assert_brute(grid, vertices, tol, chains=(1, 2, None)):
    """`_assert_same` against `_brute_mask`; returns the mask."""
    return _assert_same(grid, vertices, tol, chains=chains, want=_brute_mask(grid, vertices, tol))


@pytest.mark.parametrize("cells", [0.5, 3, 9])
def test_spans_match_brute_force_on_degenerate_segments(cells):
    # segments along the rows (u_y = 0), along a column (u_x = 0), of zero
    # length, overlapping collinear ones and ones within 1e-12 of the rows,
    # with vertices on cell centers and off them: every cell center through
    # the exact test.  At tol = 0 (below the slack, so no inner span) the
    # mask holds the corners of the rectangle on centers and only centers on
    # its edges, those whose projection rounds to no offset
    grid = CellGrid(np.array([0.0, 0.0]), 0.25, (40, 36))
    c = _center
    tol = cells * grid.h
    loops = [
        [[c(5), c(6)], [c(30), c(6)], [c(30), c(25)], [c(5), c(25)]],
        [[c(8), c(9)], [c(20), c(9)], [c(12), c(9)], [c(28), c(9)], [c(28), c(9)], [c(16), c(9)]],
        [[c(9), c(4)], [c(9), c(30)], [c(9), c(12)], [c(9), c(33)]],
        [[1.0, 1.0], [7.0, 4.0], [3.0, 2.0], [9.0, 5.0], [5.0, 3.0]],
        [[1.3, 2.1], [1.3, 2.1], [7.2, 2.1 + 1e-12], [7.2, 2.1 + 1e-12], [4.2, 6.9], [1.3 + 1e-12, 6.9]],
        [[2.0, c(12)], [8.0, np.nextafter(c(12), 10.0)], [8.0, c(20) - 1e-12], [2.0, c(20)]],
    ]
    for v in loops:
        v = np.asarray(v, dtype=float)
        _assert_brute(grid, v, tol)
        _assert_brute(grid, v + np.array([0.1, 0.07]), tol)
    mask = _assert_brute(grid, np.asarray(loops[0], dtype=float), 0.0)
    edge = np.zeros_like(mask)
    edge[5:31, [6, 25]] = edge[[5, 30], 6:26] = True
    assert mask[[5, 30, 30, 5], [6, 6, 25, 25]].all() and not (mask & ~edge).any()


def test_spans_match_brute_force_on_a_loop_translated_by_1e6():
    # far from the origin the cell centers that the exact test takes round
    # to a few ulps of 1e6, which the slack covers: the mask is the same
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=4)
    v = slice_loop(m, 0.5, sample_sphere(1, 128)).vertices
    for shift in (np.zeros(2), np.array([1e6, -1e6])):
        grid = grid_over(v + shift, 0.05, 0.2)
        for tol in (0.025, 0.15, 0.6):
            _assert_brute(grid, v + shift, tol)


def test_far_translated_masks_do_the_work_of_the_origin(monkeypatch):
    # the seed-7 slice loop (mesh 2048, t = 0.5) and its h/2 mask at
    # h = 0.005, at the origin and shifted by (1e6, -3.3e5) and (3e8, -1e8):
    # the slack and the row rule's widening come from the grid-local frame,
    # so at every shift the mask holds 7,354 cells, its spans are taken on
    # the same (segment, row) pairs, and the exact test gets a thin band of
    # cells, even at (3e8, -1e8) fewer than the 8,669 that a slack of 1e-9
    # of the largest coordinate sends at (1e6, -3.3e5)
    import kakeya_lab.gridding as gridding

    tested, pairs = [], []
    real_near, real_chords = gridding._near, gridding._SpanTable.chords

    def near(P, a, u, r):
        tested[-1] += len(P)
        return real_near(P, a, u, r)

    def chords(self, k, j):
        pairs[-1] += len(j)
        return real_chords(self, k, j)

    monkeypatch.setattr(gridding, "_near", near)
    monkeypatch.setattr(gridding._SpanTable, "chords", chords)
    v = slice_loop(make_map("lacunary_fourier", alpha=0.8, terms=12, seed=7), 0.5, sample_sphere(1, 2048)).vertices
    for shift in ([0.0, 0.0], [1e6, -3.3e5], [3e8, -1e8]):
        tested.append(0)
        pairs.append(0)
        w = v + np.array(shift)
        # the winding field's grid: the loop's bounding box padded by 0.1
        runs = mark_near_polyline(grid_over(w, 0.005, 0.1), w, 0.0025)
        assert int(np.sum(runs[1] - runs[0])) == 7_354
    assert tested[-1] < 8_669 and max(tested) < 100
    assert pairs == [6_676] * 3


def test_collars_wider_than_the_pad_clip_at_the_grid_edge():
    # the grid pads the loop by 0.1 and the collars reach 2 to 20 times as
    # far, so their spans run past the grid's columns and are clipped there
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5)
    v = slice_loop(m, 0.5, sample_sphere(1, 256)).vertices
    grid = grid_over(v, 0.05, 0.1)
    for tol in (0.2, 0.53, 1.07, 2.26):
        mask = _assert_brute(grid, v, tol, chains=(1, 2, 7, None))
        assert mask[0].any() and mask[-1].any() and mask[:, 0].any() and mask[:, -1].any()


def test_two_chain_levels_keep_fewer_pairs_than_one(monkeypatch):
    # the collars of `convergence_split` on the `convergence-split` inputs:
    # the (chain, row) pairs built at both levels are fewer than those of the
    # fine chains alone, and every mask is the same
    import kakeya_lab.convergence as convergence
    import kakeya_lab.gridding as gridding

    collars = []
    real_mark = convergence.mark_near_polyline
    monkeypatch.setattr(convergence, "mark_near_polyline",
                        lambda grid, v, tol: collars.append((grid, v, tol)) or real_mark(grid, v, tol))
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5)
    convergence.convergence_split(m, [0.15, 0.06, 0.025], np.linspace(0.0, 1.0, 3), sample_sphere(1, 1024), 0.02)
    assert len(collars) == 9
    pairs = []
    real_cells = gridding._disk_cells

    def counting(shape, origin, h, c, radius, cc, j):
        pairs[-1] += len(cc)
        return real_cells(shape, origin, h, c, radius, cc, j)

    monkeypatch.setattr(gridding, "_disk_cells", counting)
    runs = {}
    for levels in ((4, 1), (1,)):
        monkeypatch.setattr(gridding, "_CHAIN_LEVELS", levels)
        pairs.append(0)
        runs[levels] = [mark_near_polyline(grid, v, tol) for grid, v, tol in collars]
    two, one = pairs
    assert 0 < two < one
    for a, b in zip(runs[(4, 1)], runs[(1,)]):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _assert_merges(nx, ny, rows, starts, stops):
    """Merges the runs (rows, starts, stops) and checks the merged runs;
    returns them as (rows, starts, stops)."""
    runs = _packed((nx, ny), rows, np.asarray(starts, dtype=np.int64), np.asarray(stops, dtype=np.int64))
    merged = merged_runs((nx, ny), *runs)
    _assert_disjoint_sorted(nx, ny, *merged)
    assert np.array_equal(_runs_plane((nx, ny), *merged), _runs_plane((nx, ny), *runs))
    return _rows((nx, ny), *merged)


def test_merged_runs_match_a_boolean_row():
    nx, ny = 12, 3
    cases = {
        "overlapping": ([1, 1], [2, 5], [7, 9]),
        "touching": ([0, 0, 0], [3, 0, 6], [6, 3, 8]),
        "nested": ([2, 2, 2], [1, 4, 5], [11, 6, 6]),
        "one-cell": ([0, 0, 1, 0], [4, 5, 4, 7], [5, 6, 5, 8]),
        "at 0 and nx": ([0, 1, 2, 1], [0, 11, 0, 0], [1, 12, 12, 1]),
        "row ends": ([0, 1], [6, 0], [12, 6]),
        "duplicates": ([1, 1, 1], [3, 3, 3], [4, 4, 4]),
    }
    for name, (rows, starts, stops) in cases.items():
        _assert_merges(nx, ny, rows, starts, stops)
    # touching runs merge into one; runs at the end of one row and the start
    # of the next stay apart
    assert [x.tolist() for x in _assert_merges(nx, ny, *cases["touching"])] == [[0], [0], [8]]
    assert [x.tolist() for x in _assert_merges(nx, ny, *cases["row ends"])] == [[0, 1], [6, 0], [12, 6]]
    assert [x.tolist() for x in _assert_merges(nx, ny, *cases["nested"])] == [[2], [1], [11]]
    empty = _assert_merges(nx, ny, [], [], [])
    assert all(len(x) == 0 for x in empty)
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        starts = rng.integers(0, nx, size=n)
        stops = np.minimum(starts + rng.integers(1, 5, size=n), nx)
        _assert_merges(nx, ny, rng.integers(0, ny, size=n), starts, stops)


def test_merged_runs_refuse_keys_past_int64(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("sorted before the packing guard")

    monkeypatch.setattr(np, "sort", no_sort)
    none = np.zeros(0, dtype=np.int64)
    # (nx + 1)^2 ny = 2^62 * 2 = 2^63 and beyond: refused, nothing sorted
    for nx, ny in ((2**31 - 1, 2), (2**32, 1), (10**6, 10**7)):
        with pytest.raises(ValueError):
            merged_runs((nx, ny), none, none)
    monkeypatch.undo()
    # just below the limit, 2^62 < 2^63
    assert all(len(x) == 0 for x in merged_runs((2**31 - 1, 1), none, none))


def test_run_keys_fit_up_to_int64():
    # 2^63 - 1 = 7^2 (2^63 - 1) / 49: an (nx + 1)^2 ny of exactly 2^63 - 1 fits
    last = (2**63 - 1) // 49
    assert 49 * last == 2**63 - 1
    assert run_keys_fit((6, last))
    assert not run_keys_fit((6, last + 1))
    assert not run_keys_fit((2**31 - 1, 2))  # 2^63
    # float shapes past int64, or not finite, do not fit
    for shape in ((7.9e31, 7.8e31), (2.0**63, 1.0), (np.inf, 1.0), (1.0, np.nan)):
        assert not run_keys_fit(shape)
    assert run_keys_fit((100.0, 100.0))
    none = np.zeros(0, dtype=np.int64)
    for shape in ((6, last), (6, last + 1), (2**31 - 1, 1), (2**31 - 1, 2), (2**31, 1), (10**6, 10**7)):
        if run_keys_fit(shape):
            merged_runs(shape, none, none)
        else:
            with pytest.raises(ValueError, match="packed int64 run keys"):
                merged_runs(shape, none, none)


def test_chunk_edges_match_the_unique_form():
    # the edges of `_chunks`, taken from sorted cuts without np.unique
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 40, 300):
        for scale in (0, 3, 2000, 40000):
            counts = rng.integers(0, scale + 1, size=n)
            counts[rng.random(n) < 0.3] = 0
            csum = np.cumsum(counts)
            cuts = np.searchsorted(csum, np.arange(_PAIR_CHUNK, csum[-1], _PAIR_CHUNK), side="right")
            edges = np.unique(np.concatenate([[0], cuts, [n]]))
            assert list(_chunks(counts)) == list(zip(edges[:-1], edges[1:]))


def test_masks_and_tube_unions_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, which every mask paid for;
    # the winding field's sums over runs must not bring it back
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from kakeya_lab import make_map\n"
        "from kakeya_lab.gridding import grid_over, mark_near_polyline\n"
        "from kakeya_lab.measure import build_tube_family, tube_union_volume\n"
        "from kakeya_lab.winding import make_slice_loop, winding_field\n"
        "v = np.stack([np.cos(np.arange(200) * 0.0314), np.sin(np.arange(200) * 0.0314)], axis=1)\n"
        "g = grid_over(v, 0.02, 0.3)\n"
        "for tol in (0.01, 0.5):\n"
        "    mark_near_polyline(g, v, tol)\n"
        "f = winding_field(make_slice_loop(0.5, v), 0.02, grid=g)\n"
        "f.unmasked_sum(), f.unmasked_sum(2, within=mark_near_polyline(g, v, 0.5)), f.differs(f)\n"
        "tube_union_volume(build_tube_family(make_map('lacunary_fourier', alpha=0.8, terms=6, seed=1), 0.1), 0.025)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(kakeya_lab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


# chain lengths in segments given to the kernel (None: its own choice)
CHAINS = (1, 2, 3, 7, 64, None)


def _collar_loop(seed=5, mesh=1024, h=0.02):
    # a raw slice loop and grid as `convergence_split` builds them
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=seed)
    v = slice_loop(m, 0.5, sample_sphere(1, mesh)).vertices
    return v, grid_over(v, h, pad=0.3)


@pytest.mark.parametrize("tol", [0.53, 1.07, 2.26])
def test_chains_match_reference_at_collar_radii(tol):
    v, grid = _collar_loop()
    _assert_same(grid, v, tol, chains=CHAINS + (len(v),))


def test_chains_cells_exactly_r_from_a_vertex():
    # vertices on cell centers and radii in whole cells: the center k cells
    # left of the first vertex is exactly k h from it, and that vertex is its
    # nearest point of the loop
    pts = np.array([[_center(8), _center(9)], [_center(14), _center(9)], [_center(20), _center(9)],
                    [_center(20), _center(15)], [_center(26), _center(21)], [_center(12), _center(21)]])
    for cells in (2, 4, 6, 8):
        tol = cells * 0.25
        mask = _assert_same(EXACT_GRID, pts, tol, chains=(2, 3, len(pts), None))
        assert mask[8 - cells, 9] and (cells == 8 or not mask[7 - cells, 9])


def _certain_cells(grid, vertices, tol, chain, slack):
    """Centers of the certain chords of `_chain_pairs`, every row allowed."""
    a, u, _, _ = _segments(vertices)
    certain, _ = _chain_pairs(grid.shape, grid.origin, grid.h, np.zeros(len(a), dtype=np.int64),
                              np.full(len(a), grid.shape[1]), a, u, tol, slack, chain)
    plane = _runs_plane(grid.shape, *certain)
    i, j = np.nonzero(plane)
    return np.stack([grid.origin[0] + (i + 0.5) * grid.h, grid.origin[1] + (j + 0.5) * grid.h], axis=1)


def test_certain_chords_lie_within_r_minus_slack_of_every_vertex():
    # one chain: every certain cell is within tol - slack of every vertex
    slack = 1e-9
    # c = the middle vertex, rho = 1 and tol = 2: the first vertex's center
    # is exactly tol - rho from c and tol from the last vertex
    line = np.array([[_center(10), _center(18)], [_center(14), _center(18)], [_center(18), _center(18)]])
    cases = [(line, 2.0), (line, 2.75), (_collar_loop(mesh=256, h=0.05)[0], 1.5)]
    rng = np.random.default_rng(3)
    cases += [(rng.uniform(3.0, 6.0, size=(int(rng.integers(2, 9)), 2)), float(rng.uniform(1.0, 4.0)))
              for _ in range(10)]
    for v, tol in cases:
        P = _certain_cells(EXACT_GRID, v, tol, len(v), slack)
        assert len(P) or tol < 2.0
        d = np.hypot(P[:, None, 0] - v[None, :, 0], P[:, None, 1] - v[None, :, 1])
        assert np.all(d <= tol - slack), (v, tol)
    # the cells at distance exactly tol - rho from c are not certain
    P = _certain_cells(EXACT_GRID, line, 2.0, len(line), slack)
    assert [_center(10), _center(18)] not in P.tolist()
    assert [_center(11), _center(18)] in P.tolist()


def test_chains_with_radius_below_rho_have_no_certain_chord():
    v, grid = _collar_loop(mesh=256, h=0.05)
    # the whole loop as one chain, rho about 1.3: nothing is certain at these radii
    for tol in (0.025, 0.3, 1.0):
        assert len(_certain_cells(grid, v, tol, len(v), 1e-9)) == 0
        _assert_same(grid, v, tol, chains=(len(v), 64, 7))


def test_chains_with_repeated_vertices():
    pts = np.array([[1.3, 2.1], [1.3, 2.1], [4.2, 2.9], [4.2, 2.9], [4.2, 2.9], [2.0, 6.6]])
    for tol in (0.125, 0.6, 2.0, 4.0):
        _assert_same(EXACT_GRID, pts, tol, chains=(2, 3, len(pts), None))
    # a loop collapsed to one point: one chain of radius 0
    point = np.repeat([[_center(20), _center(18)]], 16, axis=0)
    for tol in (0.5, 1.0, 2.5):
        _assert_same(EXACT_GRID, point, tol, chains=(2, 7, 16, None))


def test_chains_on_a_loop_traversed_twice():
    v, grid = _collar_loop(mesh=256, h=0.05)
    twice = np.concatenate([v, v])
    for tol in (0.3, 1.07):
        want = _reference_mark_near_polyline(grid, v, tol)
        _assert_same(grid, twice, tol, chains=CHAINS + (len(twice),), want=want)


def test_chains_on_a_loop_partly_off_the_grid():
    pts = np.array([[-3.0, 1.0], [5.0, -2.0], [14.0, 4.5], [6.0, 12.0], [-1.0, 8.0]])
    dense = np.concatenate([np.linspace(p, q, 9, endpoint=False) for p, q in zip(pts, np.roll(pts, -1, axis=0))])
    for tol in (0.9, 3.0, 6.0):
        _assert_same(EXACT_GRID, dense, tol, chains=(2, 3, 7, len(dense), None))
    v, grid = _collar_loop(mesh=256, h=0.05)
    small = CellGrid(grid.origin + 0.4 * np.array(grid.shape) * grid.h, grid.h, (30, 25))
    _assert_same(small, v, 1.07, chains=CHAINS)


def test_chains_with_a_radius_covering_the_grid():
    v, grid = _collar_loop(mesh=256, h=0.05)
    tol = 2.0 * max(grid.shape) * grid.h
    _assert_same(grid, v, tol, chains=CHAINS + (len(v),), want=np.ones(grid.shape, dtype=bool))


def test_random_polylines_in_chains_match_reference():
    # uneven segments, so a chain's end vertex is often its farthest one
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 24))
        pts = np.cumsum(rng.standard_normal((n, 2)) * rng.uniform(0.05, 1.5, size=(n, 1)), axis=0)
        pts += np.array([5.0, 4.5]) - pts.mean(axis=0)
        chains = tuple(int(c) for c in rng.integers(2, 8, size=2)) + (n,)
        _assert_same(EXACT_GRID, pts, float(rng.uniform(0.2, 4.0)), chains=chains)


def test_chain_disks_hold_every_vertex():
    # each chain's ball (c, rho) holds all of its vertices, end vertex
    # included, and c is the midpoint of their bounding box
    rng = np.random.default_rng(9)
    loops = [rng.uniform(0.0, 9.0, size=(int(rng.integers(2, 30)), 2)) for _ in range(20)]
    # a chain whose end vertex is its only farthest one
    loops.append(np.array([[0.0, 1.0], [1.0, 0.0], [3.0, 2.0], [2.5, 2.5]]))
    for v in loops:
        a, u, _, _ = _segments(v)
        for chain in (1, 2, 3, 7, len(v)):
            first, size, c, rho = _chain_disks(a, u, chain)
            assert np.array_equal(first, np.arange(0, len(v), chain)) and size.sum() == len(v)
            for k0, m, centre, radius in zip(first, size, c, rho):
                verts = np.concatenate([a[k0:k0 + m], a[k0 + m - 1:k0 + m] + u[k0 + m - 1:k0 + m]])
                assert np.array_equal(centre, 0.5 * (verts.min(axis=0) + verts.max(axis=0)))
                assert np.hypot(*(verts - centre)[:, :2].T).max() <= radius * (1.0 + 1e-15)
    first, size, c, rho = _chain_disks(*_segments(loops[-1])[:2], 2)
    assert rho[0] == np.hypot(1.5, 1.0)
