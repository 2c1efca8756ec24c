"""Data-anchored cell grids and point/segment distance kernels.

Grids are anchored to the data's bounding box, with padding rounded up to a
whole number of cells, so that rigidly translated data produces identically
translated cell centers.

`mark_near_polyline` marks the cells within a distance of a closed polyline
with a scanline-span kernel: every grid row within reach of a segment meets
the segment's capsule in one interval with a closed form, whose interior is
filled through a per-row difference array while the cells at its two ends
get the exact per-cell distance test.  The cost follows the number of
(segment, row) pairs, not the cells of each segment's bounding box, so wide
collars cost little more than the h/2 boundary masks.  The same row engine,
`_row_span_sums`, sums the signed crossing spans of the grid winding field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pairs import row_blocks, sq_dists


@dataclass(frozen=True)
class CellGrid:
    """Axis-aligned grid of cubic cells; centers at origin + (index+1/2)*h."""

    origin: np.ndarray
    h: float
    shape: tuple[int, ...]

    def axis_centers(self, axis: int) -> np.ndarray:
        return self.origin[axis] + (np.arange(self.shape[axis]) + 0.5) * self.h

    def centers(self) -> np.ndarray:
        axes = [self.axis_centers(d) for d in range(len(self.shape))]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_measure(self) -> float:
        return float(self.h ** len(self.shape))


def grid_over(points: np.ndarray, h: float, pad: float) -> CellGrid:
    """Grid covering the bounding box of `points` inflated by `pad`.

    The pad is rounded up to a multiple of h so enlarging the pad never
    shifts existing cell centers.
    """
    points = np.asarray(points, dtype=float)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    k = int(np.ceil(pad / h)) + 1
    origin = lo - k * h
    shape = tuple(int(np.ceil((hi[d] - origin[d]) / h)) + k for d in range(points.shape[1]))
    return CellGrid(origin, float(h), shape)


def polyline_min_distance(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from each point to a closed polyline, chunked over segments."""
    points = np.asarray(points, dtype=float)
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    ab = w - v
    ab2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    best = np.full(len(points), np.inf)
    for s, e in row_blocks(len(v), len(points)):
        pa = points[:, None, :] - v[None, s:e, :]
        t = np.clip(np.einsum("pnd,nd->pn", pa, ab[s:e]) / ab2[s:e], 0.0, 1.0)
        proj = v[None, s:e, :] + t[:, :, None] * ab[None, s:e, :]
        best = np.minimum(best, np.sqrt(sq_dists(points, proj).min(axis=1)))
    return best




# (segment, row) pairs handled at once; bounds the temporaries at collar radii
_PAIR_CHUNK = 1 << 15


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and value of every element of the integer ranges [start, start+count)."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, starts[owner] + offset


def _row_span_sums(shape, rows, starts, stops, weights=None) -> np.ndarray:
    """Per-cell sum of the weights (default 1: integer counts) of the spans
    covering it; span k is cells [starts[k], stops[k]) of row rows[k], with
    0 <= start and stop <= nx, filled through a per-row difference array."""
    nx, ny = shape
    n = (nx + 1) * ny
    diff = np.bincount(starts * ny + rows, weights, n) - np.bincount(stops * ny + rows, weights, n)
    return np.cumsum(diff.reshape(nx + 1, ny), axis=0)[:nx]


def _solve_span(lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval of x with lo <= x*c <= hi; an empty one is (inf, -inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = lo / c
        b = hi / c
    flat = c == 0.0
    whole = (lo <= 0.0) & (hi >= 0.0)
    x_lo = np.where(flat, np.where(whole, -np.inf, np.inf), np.where(c > 0.0, a, b))
    x_hi = np.where(flat, np.where(whole, np.inf, -np.inf), np.where(c > 0.0, b, a))
    return x_lo, x_hi


def _row_spans(r, ax, bx, dya, dyb, ux, uy, length) -> tuple[np.ndarray, np.ndarray]:
    """x-extent of each row's intersection with the r-capsule of its segment.

    The capsule is convex, so the intersection is one interval: the union of
    the chords of the two end-cap disks and of the band
    |cross(p - a, ab)| <= r |ab| with 0 <= t <= 1.  The band is empty for a
    zero-length segment.  `dya`, `dyb` are the row's heights above a and b;
    an empty span is (inf, -inf).
    """
    lo = np.full(len(ax), np.inf)
    hi = np.full(len(ax), -np.inf)
    for cx, dy in ((ax, dya), (bx, dyb)):
        q = r * r - dy * dy
        half = np.sqrt(np.maximum(q, 0.0))
        lo = np.where(q >= 0.0, np.minimum(lo, cx - half), lo)
        hi = np.where(q >= 0.0, np.maximum(hi, cx + half), hi)
    # band, as (x - ax) * c in [lo, hi]: c = uy for the distance to the line,
    # c = ux for the segment parameter t
    d_lo, d_hi = _solve_span(dya * ux - r * length, dya * ux + r * length, uy)
    t_lo, t_hi = _solve_span(-dya * uy, length * length - dya * uy, ux)
    band_lo = ax + np.maximum(d_lo, t_lo)
    band_hi = ax + np.minimum(d_hi, t_hi)
    band = (length > 0.0) & (band_lo <= band_hi)
    lo = np.where(band, np.minimum(lo, band_lo), lo)
    hi = np.where(band, np.maximum(hi, band_hi), hi)
    return lo, hi


def _cell_index(x: np.ndarray, origin: float, h: float, n: int, rounding) -> np.ndarray:
    """First (rounding=np.ceil) or last (np.floor) cell whose center is at or
    beyond / at or before x, clipped just outside [0, n - 1]."""
    return np.clip(rounding((x - origin) / h - 0.5), -2, n + 1).astype(np.int64)


def mark_near_polyline(grid: CellGrid, vertices: np.ndarray, tol: float) -> np.ndarray:
    """Boolean field over grid cells whose center is within tol of the polyline.

    Scanline-span kernel: each grid row within reach of a segment meets the
    segment's capsule in one interval, found in closed form at the radii
    tol - slack (inner span) and tol + slack (outer span).  The cells of the
    inner span, less one at each end, are filled through a per-row
    difference array; the other cells of the outer span, plus one at each
    end, get the exact per-cell test ``|p - a - t ab|^2 <= tol^2`` with t
    clipped to [0, 1].  The slack is far above rounding error and far below
    a cell, so the result is exactly that test applied to every cell, at a
    cost proportional to the (segment, row) pairs rather than to the cells
    of each segment's bounding box.
    """
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    h = grid.h
    nx, ny = grid.shape
    ox, oy = grid.origin[0], grid.origin[1]
    ab = w - v
    sq = np.einsum("ij,ij->i", ab, ab)
    ab2 = np.maximum(sq, 1e-300)
    length = np.sqrt(sq)
    ax, ay, bx, by, ux, uy = v[:, 0], v[:, 1], w[:, 0], w[:, 1], ab[:, 0], ab[:, 1]
    slack = 1e-9 * (float(np.abs(v).max()) + tol + h)
    r_out, r_in = tol + slack, tol - slack
    j0 = np.maximum(_cell_index(np.minimum(ay, by) - r_out, oy, h, ny, np.floor), 0)
    j1 = np.minimum(_cell_index(np.maximum(ay, by) + r_out, oy, h, ny, np.ceil), ny - 1)
    rows = np.maximum(j1 - j0 + 1, 0)
    csum = np.cumsum(rows)
    cuts = np.searchsorted(csum, np.arange(_PAIR_CHUNK, csum[-1], _PAIR_CHUNK), side="right")
    edges = np.unique(np.concatenate([[0], cuts, [len(v)]]))
    fills = []
    exact = []
    for s, e in zip(edges[:-1], edges[1:]):
        seg, j = _ranges(j0[s:e], rows[s:e])
        seg += s
        py = oy + (j + 0.5) * h
        ax_p, ux_p, uy_p = ax[seg], ux[seg], uy[seg]
        pa_y = py - ay[seg]
        span = (ax_p, bx[seg], pa_y, py - by[seg], ux_p, uy_p, length[seg])
        lo, hi = _row_spans(r_out, *span)
        o_lo = np.maximum(_cell_index(lo, ox, h, nx, np.ceil) - 1, 0)
        o_hi = np.minimum(_cell_index(hi, ox, h, nx, np.floor) + 1, nx - 1)
        if r_in > 0.0:
            lo, hi = _row_spans(r_in, *span)
            f_lo = np.maximum(_cell_index(lo, ox, h, nx, np.ceil) + 1, 0)
            f_hi = np.minimum(_cell_index(hi, ox, h, nx, np.floor) - 1, nx - 1)
        else:
            f_lo = np.ones_like(o_lo)
            f_hi = np.zeros_like(o_hi)
        fill = f_lo <= f_hi
        fills.append((j[fill], f_lo[fill], f_hi[fill] + 1))
        # exact test on the outer span minus the filled one: [o_lo, left] and [right, o_hi]
        left = np.where(fill, np.minimum(f_lo - 1, o_hi), o_hi)
        right = np.where(fill, np.maximum(f_hi + 1, o_lo), o_hi + 1)
        starts = np.concatenate([o_lo, right])
        counts = np.maximum(np.concatenate([left - o_lo, o_hi - right]) + 1, 0)
        pair, i = _ranges(starts, counts)
        pair %= len(seg)  # left and right ranges of the same pair
        k_ux, k_uy, k_pa_y = ux_p[pair], uy_p[pair], pa_y[pair]
        pa_x = (ox + (i + 0.5) * h) - ax_p[pair]
        t = np.clip((pa_x * k_ux + k_pa_y * k_uy) / ab2[seg][pair], 0.0, 1.0)
        dx = pa_x - t * k_ux
        dy = k_pa_y - t * k_uy
        hit = dx * dx + dy * dy <= tol * tol
        exact.append(i[hit] * ny + j[pair[hit]])
    rows, starts, stops = (np.concatenate(a) for a in zip(*fills))
    mask = _row_span_sums(grid.shape, rows, starts, stops) > 0
    mask.reshape(-1)[np.concatenate(exact)] = True
    return mask
