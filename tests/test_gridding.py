import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kakeya_lab
from kakeya_lab.gridding import (
    _PAIR_CHUNK, CellGrid, _chain_disks, _chain_pairs, _chunks, _near, _near_polyline,
    _rows_within, _segment_row_spans, _segments, grid_over, mark_near_polyline, merged_runs,
    points_near_polyline, run_keys_fit,
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


def _assert_same(grid, vertices, tol, chains=(None,), want=None):
    """The runs of `mark_near_polyline` (chains None), or of the same kernel
    with `chain` segments a chain, are disjoint and sorted, and their plane
    equals the reference loop's; returns that plane."""
    if want is None:
        want = _reference_mark_near_polyline(grid, vertices, tol)
    for chain in chains:
        if chain is None:
            runs = mark_near_polyline(grid, vertices, tol)
        else:
            runs = _near_polyline(grid, vertices, tol, chain=chain)
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
    assert _near(np.array([[*point[0], 0.0]]), a[:1], u[:1], tol)[0]
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
        P = np.zeros((len(pts) * k, 3))
        P[:, :2] = np.repeat(pts, k, axis=0)
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
    # `_segment_row_spans`.  The grid is anchored to the lowest vertex, which
    # lies on a cell edge h/2 from the centers of the row below it: the 10
    # pairs that the widening adds are such rows, beyond h/2 by a rounding
    # error
    import kakeya_lab.gridding as gridding

    handed = []
    real = gridding._segment_row_spans

    def counting(r, py, *rest):
        handed.append(len(py))
        return real(r, py, *rest)

    monkeypatch.setattr(gridding, "_segment_row_spans", counting)
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


def _check_row_spans(a, u, r, z, py):
    """The closed-form spans of one segment at rows py against the exact
    test on many x: every x in the inner span (radius r - slack) passes,
    and every x that passes lies in the outer span (r + slack)."""
    slack = 1e-9 * (np.abs(a).max() + np.abs(a + u).max() + r)
    py = np.atleast_1d(np.asarray(py, dtype=float))
    n = len(py)
    lo, hi = _segment_row_spans(np.array([[r + slack], [r - slack]]), py, z,
                                np.repeat(a[:, None], n, axis=1), np.repeat(u[:, None], n, axis=1))
    span = r + np.abs(u).max()
    for row in range(n):
        xs = np.linspace(a[0] - span, a[0] + span, 4001)
        ends = [x for x in (lo[0, row], hi[0, row], lo[1, row], hi[1, row]) if np.isfinite(x)]
        xs = np.concatenate([xs] + [np.nextafter(x, [-np.inf, np.inf]) for x in ends] + [ends])
        P = np.stack([xs, np.full(len(xs), py[row]), np.full(len(xs), z)], axis=1)
        hit = _near(P, np.repeat(a[None], len(xs), axis=0), np.repeat(u[None], len(xs), axis=0), r)
        inner = (xs >= lo[1, row]) & (xs <= hi[1, row])
        outer = (xs >= lo[0, row]) & (xs <= hi[0, row])
        assert hit[inner].all(), (a, u, r, z, py[row])
        assert outer[hit].all(), (a, u, r, z, py[row])
    return lo, hi


@pytest.mark.parametrize("kind", ["random", "in-plane", "vertical", "zero", "unit", "along-rows"])
def test_segment_row_spans_bracket_the_exact_test(kind):
    rng = np.random.default_rng(["random", "in-plane", "vertical", "zero", "unit", "along-rows"].index(kind))
    for _ in range(25):
        a = rng.uniform(-1.0, 1.0, size=3)
        u = rng.uniform(-1.0, 1.0, size=3)
        if kind == "in-plane":
            u[2] = 0.0
        elif kind == "vertical":
            u[:2] = 0.0
        elif kind == "zero":
            u[:] = 0.0
        elif kind == "unit":
            u *= np.nextafter(1.0, 0.0) / np.linalg.norm(u)
        elif kind == "along-rows":
            u[1:] = 0.0
        r = float(rng.uniform(0.02, 0.5))
        z = a[2] + float(rng.uniform(-0.2, 1.2)) * u[2] + float(rng.uniform(-r, r))
        py = a[1] + rng.uniform(-r - 0.1, r + 0.1, size=6) + rng.uniform(0.0, 1.0, size=6) * u[1]
        _check_row_spans(a, u, r, z, py)


def test_segment_row_spans_tangent_rows():
    # rows tangent to the cylinder at the segment's midpoint and to an end
    # ball, where the chord comes out empty or a point up to rounding
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = rng.uniform(-1.0, 1.0, size=3)
        u = rng.uniform(-1.0, 1.0, size=3)
        r = float(rng.uniform(0.05, 0.3))
        mid = a + 0.5 * u
        # the common normal of the rows and the axis: u x e_x, in the y-z plane
        normal = np.array([0.0, u[2], -u[1]]) / np.hypot(u[1], u[2])
        for side in (-1.0, 1.0):
            touch = mid + side * r * normal
            lo, hi = _check_row_spans(a, u, r, touch[2], touch[1])
            assert lo[0, 0] <= touch[0] <= hi[0, 0]
        ball = a[1] + np.array([-r, r])
        _check_row_spans(a, u, r, a[2], ball)
        _check_row_spans(a, u, r, a[2] + u[2], ball + u[1])


def _full_row_spans(r, py, z, a, u):
    """The closed form of `_segment_row_spans` with every term, over (m, 3)
    rows a and u: end-ball chords, cylinder chord and strip clip."""
    ax, ux, uy, uz = a[:, 0], u[:, 0], u[:, 1], u[:, 2]
    dy = py - a[:, 1]
    dz = z - a[:, 2]
    rr = r * r
    lo = np.full(len(ax), np.inf)
    hi = np.full(len(ax), -np.inf)
    for cx, ey, ez in ((ax, dy, dz), (ax + ux, dy - uy, dz - uz)):
        q = rr - ey * ey - ez * ez
        half = np.sqrt(np.maximum(q, 0.0))
        lo = np.where(q >= 0.0, np.minimum(lo, cx - half), lo)
        hi = np.where(q >= 0.0, np.maximum(hi, cx + half), hi)
    area = uy * uy + uz * uz
    l2 = area + ux * ux
    m = dy * uy + dz * uz
    c = dy * uz - dz * uy
    e = area * rr - c * c
    root = np.sqrt(l2 * np.maximum(e, 0.0))
    flat = area == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        x_lo = np.where(flat, -np.inf, (ux * m - root) / area)
        x_hi = np.where(flat, np.inf, (ux * m + root) / area)
        s_lo, s_hi = -m / ux, (l2 - m) / ux
    inside = np.where(flat, dy * dy + dz * dz <= rr, e >= 0.0)
    whole = (m <= 0.0) & (l2 - m >= 0.0)
    t_lo = np.where(ux == 0.0, np.where(whole, -np.inf, np.inf), np.where(ux > 0.0, s_lo, s_hi))
    t_hi = np.where(ux == 0.0, np.where(whole, np.inf, -np.inf), np.where(ux > 0.0, s_hi, s_lo))
    x_lo = ax + np.maximum(x_lo, t_lo)
    x_hi = ax + np.minimum(x_hi, t_hi)
    band = inside & (l2 > 0.0) & (x_lo <= x_hi)
    return np.where(band, np.minimum(lo, x_lo), lo), np.where(band, np.maximum(hi, x_hi), hi)


@pytest.mark.parametrize("kind", ["rising", "falling", "planar", "mixed"])
def test_segment_row_spans_equal_the_full_formula(kind):
    # u_z > 0, u_z < 0 (planes clear of the ends and planes through the end
    # balls), u_z = 0, and calls that mix the signs: bit-equal to every term
    # of the closed form
    rng = np.random.default_rng(["rising", "falling", "planar", "mixed"].index(kind))
    slack = 1e-9
    for trial in range(200):
        n = int(rng.integers(2, 80))
        a = rng.uniform(-1.0, 1.0, size=(n, 3))
        u = rng.uniform(-1.0, 1.0, size=(n, 3))
        r = float(rng.uniform(0.01, 0.2))
        if kind == "planar":
            u[:, 2] = 0.0
            u[rng.random(n) < 0.2, 1] = 0.0  # some segments along the rows
            z = float(rng.uniform(-0.3, 0.3))
        else:
            sign = {"rising": 1.0, "falling": -1.0}.get(kind) or np.resize([1.0, -1.0], n)
            u[:, 2] = sign * rng.uniform(0.5, 1.5, size=n)
            a[:, 2] = 0.0
            # every other call has its plane in the middle of every segment
            z = float(rng.uniform(-0.2, 0.2) if trial % 2 else np.sign(u[0, 2]) * rng.uniform(0.25, 0.35))
        radii = np.array([[r + slack], [r - slack]])
        py = a[:, 1] + rng.uniform(-r, r, size=n) + rng.uniform(0.0, 1.0, size=n) * u[:, 1]
        got = _segment_row_spans(radii, py, z, a.T.copy(), u.T.copy())
        want = _full_row_spans(radii, py, z, a, u)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (kind, trial)


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
                              np.full(len(a), grid.shape[1]), 0.0, a, u, tol, slack, chain)
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
