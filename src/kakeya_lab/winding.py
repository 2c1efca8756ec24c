"""Topological degree kernels: planar winding numbers, solid-angle winding
for closed triangle meshes, circle-map degree, and a crossing-count oracle.

Two independent planar algorithms are provided on purpose:

* `winding_number_2d` sums signed angle increments around the point and
  rounds the total; the rounding residual doubles as an under-resolution
  detector.
* `ray_crossing_oracle` counts signed crossings of a ray with a fixed tiny
  irrational slope, retrying once with a second slope on a degenerate hit.

`winding_field` evaluates the crossing count for every cell of the grid at
once, run-length (signed crossing counts, Hormann and Agathos, "The point in
polygon problem for arbitrary polygons", Comput. Geom. 2001): along a row
of cell centers the winding changes only where the loop crosses the row, so
a field is the sorted steps of `crossing_winding_rows` and the merged runs
(first, last) of its h/2 near-loop mask, both on the packed line of
`gridding.merged_runs`.
Cells in the mask are too close to the loop and carry no value.  The signed
volume, isoperimetric and convergence harnesses sum the field over runs
(`WindingField.unmasked_sum`); (nx, ny) planes are rendered only on access
to `values` and `mask`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridding import (
    CellGrid, _ranges, grid_over, line_sums, mark_near_polyline, points_near_polyline, union_runs,
)
from .pairs import WIDE_BUDGET, row_blocks, weighted_pair_sum
from .sphere import SphereMesh

RESIDUAL_LIMIT = 0.1
# grids over MAX_FIELD_SIDE^2 cells are refused by `slice`, whose CSV renders
# the field's planes, and by `convergence_split`
MAX_FIELD_SIDE = 4096
# tie-avoidance slopes for the crossing oracle
_ORACLE_SLOPES = (0.0072973525693, 0.0137035999084)


class BoundaryError(ValueError):
    """Point too close to the loop; the winding number is undefined there."""


class ResidualError(ValueError):
    """Angle/solid-angle sum too far from an integer; loop under-resolved."""


@dataclass(frozen=True)
class SliceLoop:
    """Closed image of the boundary sphere at one slice height.

    geometry is a closed polyline (ambient_dim 2, implicit closing edge) or
    a closed oriented triangle mesh (ambient_dim 3).
    """

    t: float
    ambient_dim: int
    vertices: np.ndarray
    triangles: np.ndarray | None = None
    degenerate: bool = False

    def __post_init__(self):
        v = self.vertices
        if len(v) < 16:
            raise ValueError("slice loop needs at least 16 vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("slice loop has non-finite coordinates")
        if self.ambient_dim == 3 and self.triangles is None:
            raise ValueError("3-d slice loops need triangles")

    @property
    def diameter(self) -> float:
        return float(np.max(np.ptp(self.vertices, axis=0)))


def make_slice_loop(t: float, vertices: np.ndarray, triangles: np.ndarray | None = None) -> SliceLoop:
    vertices = np.asarray(vertices, dtype=float)
    degenerate = bool(np.max(np.ptp(vertices, axis=0)) < 1e-12)
    return SliceLoop(float(t), vertices.shape[1], vertices, triangles, degenerate)


def _as_points(points) -> tuple[np.ndarray, bool]:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        return pts[None, :], True
    return pts, False


def _whole_turns(turns: np.ndarray, single: bool, name: str):
    """`turns` rounded to whole turns: an int for a single point, else an
    int64 array.  Raises ResidualError, naming the `name` residual, if any
    misses its integer by RESIDUAL_LIMIT or more."""
    wind = np.rint(turns)
    residual = np.max(np.abs(turns - wind))
    if residual >= RESIDUAL_LIMIT:
        raise ResidualError(f"{name} residual {residual:.3f} >= {RESIDUAL_LIMIT}")
    out = wind.astype(np.int64)
    return int(out[0]) if single else out


def winding_number_2d(
    loop: SliceLoop, points, tol_boundary: float = 1e-9, check_boundary: bool = True
):
    """Integer winding of a closed polyline around one or many points.

    Raises BoundaryError if any point is within tol_boundary of the loop and
    ResidualError if the angle sum misses an integer by 0.1 or more.  Callers
    that already masked near-loop points (grid fields) can skip the distance
    precheck with check_boundary=False.
    """
    if loop.ambient_dim != 2:
        raise ValueError("winding_number_2d needs a planar loop")
    pts, single = _as_points(points)
    if check_boundary and points_near_polyline(pts, loop.vertices, tol_boundary):
        raise BoundaryError(f"point(s) within {tol_boundary} of the loop")
    v = loop.vertices
    vc = v[:, 0] + 1j * v[:, 1]
    wc = np.roll(vc, -1)
    pc = pts[:, 0] + 1j * pts[:, 1]
    total = np.zeros(len(pts))
    for s, e in row_blocks(len(pts), len(v), WIDE_BUDGET):
        a = vc[None, :] - pc[s:e, None]
        b = wc[None, :] - pc[s:e, None]
        prod = b * np.conj(a)
        total[s:e] = np.arctan2(prod.imag, prod.real).sum(axis=1)
    return _whole_turns(total / (2.0 * np.pi), single, "angle-sum")


def ray_crossing_oracle(
    loop: SliceLoop, points, tol_boundary: float = 1e-9, check_boundary: bool = True
):
    """Signed crossing count of a nearly horizontal ray from each point.

    Independent of the angle-sum path; used to cross-validate it.  A sweep
    over the ray-perpendicular coordinate finds, for every point at once,
    exactly the edges straddling its ray, so the work scales with the number
    of actual crossings rather than points x edges.
    """
    if loop.ambient_dim != 2:
        raise ValueError("ray_crossing_oracle needs a planar loop")
    pts, single = _as_points(points)
    if check_boundary and points_near_polyline(pts, loop.vertices, tol_boundary):
        raise BoundaryError("point(s) on or too close to the loop")
    v = loop.vertices
    w = np.roll(v, -1, axis=0)
    scale = max(loop.diameter, 1.0)
    for slope in _ORACLE_SLOPES:
        u = np.array([1.0, slope])
        u /= np.linalg.norm(u)
        uperp = np.array([-u[1], u[0]])
        av = v @ uperp
        bv = w @ uperp
        al = v @ u
        bl = w @ u
        pu = pts @ uperp
        pl = pts @ u
        order = np.argsort(pu, kind="stable")
        pu_sorted = pu[order]
        # edge j straddles the rays of points with perpendicular coordinate
        # in [min(av,bv), max(av,bv)); half-open so shared vertices count once
        lo = np.minimum(av, bv)
        hi = np.maximum(av, bv)
        first = np.searchsorted(pu_sorted, lo, side="left")
        last = np.searchsorted(pu_sorted, hi, side="left")
        edge_of_pair, rank_of_pair = _ranges(first, last - first)
        if len(edge_of_pair) == 0:
            zeros = np.zeros(len(pts), dtype=np.int64)
            return int(zeros[0]) if single else zeros
        point_of_pair = order[rank_of_pair]
        e = edge_of_pair
        offs_a = av[e] - pu[point_of_pair]
        offs_b = bv[e] - pu[point_of_pair]
        if np.any(np.abs(offs_a) < 1e-13 * scale) or np.any(
            np.abs(offs_b) < 1e-13 * scale
        ):
            continue
        frac = -offs_a / (offs_b - offs_a)
        along = al[e] + frac * (bl[e] - al[e]) - pl[point_of_pair]
        if np.any(np.abs(along) < 1e-12 * scale):
            continue
        sign = np.where(bv[e] > av[e], 1, -1)
        contrib = np.where(along > 0, sign, 0)
        count = np.zeros(len(pts), dtype=np.int64)
        np.add.at(count, point_of_pair, contrib)
        return int(count[0]) if single else count
    raise ResidualError("degenerate ray crossings for both tie-avoidance slopes")


_NO_RUNS = (np.zeros(0, dtype=np.int64),) * 2


@dataclass(frozen=True)
class WindingField:
    """Integer winding per grid cell with a boundary mask, run-length on the
    packed line of `gridding.line_sums` (cell (i, j) at j (nx + 1) + i): the
    winding as the sorted steps (at, level) of `crossing_winding_rows`, and
    the mask (near the loop, where the winding is undefined) as merged runs
    (first, last).  `values` and `mask` render (nx, ny) planes."""

    grid: CellGrid
    steps: tuple[np.ndarray, np.ndarray]
    runs: tuple[np.ndarray, np.ndarray]

    @property
    def values(self) -> np.ndarray:  # int64, 0 on masked cells
        return np.where(self.mask, 0, self._render(*self.steps))

    @property
    def mask(self) -> np.ndarray:
        ends = np.stack(self.runs, axis=1).ravel()
        return self._render(ends, np.tile([1, 0], len(self.runs[0]))).astype(bool)

    def _render(self, at, level) -> np.ndarray:
        nx, ny = self.grid.shape
        line = np.repeat(np.r_[0, level], np.diff(np.r_[0, at, ny * (nx + 1)]))
        return np.ascontiguousarray(line.reshape(ny, nx + 1)[:, :nx].T)

    def unmasked_sum(self, power: int = 1, within=None) -> int:
        """Exact sum of w^power over the unmasked cells, of the runs `within`
        if given: the sum over all cells, or over the union of `within` and
        the mask, less the sum over the mask."""
        at, level = self.steps[0], self.steps[1] ** power
        nx, ny = self.grid.shape
        whole = ([0], [ny * (nx + 1)])
        cover = whole if within is None else union_runs((nx, ny), within, self.runs)
        return line_sums(at, level, *cover) - line_sums(at, level, *self.runs)

    def differs(self, other: WindingField):
        """The cells where the two fields' windings differ, masks ignored, as
        runs: where the difference of their steps is not 0.  It is 0 on every
        row's padding cell, so no run leaves its row."""
        at = np.concatenate([self.steps[0], other.steps[0]])
        order = np.argsort(at, kind="stable")
        at = at[order]
        step = np.concatenate([np.diff(self.steps[1], prepend=0), -np.diff(other.steps[1], prepend=0)])
        level = np.cumsum(step[order])
        keep = (level[:-1] != 0) & (at[1:] > at[:-1])
        return at[:-1][keep], at[1:][keep]


def crossing_winding_rows(vertices: np.ndarray, grid: CellGrid) -> tuple[np.ndarray, np.ndarray]:
    """Winding at every cell center, the signed count of crossings to its
    right, as sorted steps (at, level) on the packed line of `line_sums`.

    A segment crosses the rows with center y in [min(ay, by), max(ay, by)),
    half-open so a shared vertex counts once: where one end is at or below
    y and the other above.  So a closed loop crosses each row as often
    upward (+1) as downward (-1), and the winding at a cell, the sum of the
    signs to its right, is minus the sum of those at or left of it.  A
    crossing of row j whose first cell right of the intercept is k is a
    step of -sign at j (nx + 1) + k, and each row's padding cell is 0.

    k is the first column whose computed center is at or beyond the
    intercept x: ceil((x - o_x)/h - 1/2), clipped to [0, nx], is within one
    column of it, and one exact comparison with the centers on each side
    settles it.
    """
    ax, ay = vertices[:, 0], vertices[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    ys = grid.axis_centers(1)
    first = np.searchsorted(ys, np.minimum(ay, by), side="left")
    last = np.searchsorted(ys, np.maximum(ay, by), side="left")
    seg, j = _ranges(first, last - first)
    y0, y1, x0, x1 = ay[seg], by[seg], ax[seg], bx[seg]
    frac = (ys[j] - y0) / (y1 - y0)
    xint = x0 + frac * (x1 - x0)
    nx = grid.shape[0]
    k = xint - grid.origin[0]
    k /= grid.h
    k -= 0.5
    np.ceil(k, out=k)
    k = np.clip(k, 0, nx, out=k).astype(np.int64)
    # the centers with -inf and inf on either side: column k's is xs[k + 1]
    xs = np.concatenate([[-np.inf], grid.axis_centers(0), [np.inf]])
    k += xs[k + 1] < xint
    k -= xs[k] >= xint
    at = j * (nx + 1) + k
    order = np.argsort(at, kind="stable")
    return at[order], np.cumsum(np.where(y1 > y0, -1, 1)[order])


def field_grid(loop: SliceLoop, h: float) -> CellGrid:
    """The grid of the loop's winding field at spacing h: its bounding box
    padded by max(2 h, 0.1)."""
    return grid_over(loop.vertices, h, max(2.0 * h, 0.1))


def winding_field(loop: SliceLoop, h: float, grid: CellGrid | None = None) -> WindingField:
    """Winding number per grid cell (on `grid`, default `field_grid`); cells
    within h/2 of the loop are masked."""
    if loop.ambient_dim != 2:
        raise ValueError("winding_field supports planar loops")
    if grid is None:
        grid = field_grid(loop, h)
    if loop.degenerate:
        return WindingField(grid, _NO_RUNS, _NO_RUNS)
    return WindingField(grid, crossing_winding_rows(loop.vertices, grid),
                        mark_near_polyline(grid, loop.vertices, grid.h / 2.0))


def generalized_winding_3d(loop: SliceLoop, points, tol_boundary: float = 1e-9):
    """Winding of a closed oriented triangle mesh: solid-angle sum over 4 pi."""
    if loop.ambient_dim != 3 or loop.triangles is None:
        raise ValueError("generalized_winding_3d needs a triangle-mesh loop")
    pts, single = _as_points(points)
    tris = loop.triangles
    va = loop.vertices[tris[:, 0]]
    vb = loop.vertices[tris[:, 1]]
    vc = loop.vertices[tris[:, 2]]
    totals = np.zeros(len(pts))
    for s, e in row_blocks(len(pts), len(tris), WIDE_BUDGET):
        a = va[None, :, :] - pts[s:e, None, :]
        b = vb[None, :, :] - pts[s:e, None, :]
        c = vc[None, :, :] - pts[s:e, None, :]
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        lc = np.linalg.norm(c, axis=2)
        if np.any(la < tol_boundary) or np.any(lb < tol_boundary) or np.any(lc < tol_boundary):
            raise BoundaryError("point coincides with a mesh vertex")
        num = np.einsum("pnd,pnd->pn", a, np.cross(b, c))
        den = (
            la * lb * lc
            + np.einsum("pnd,pnd->pn", a, b) * lc
            + np.einsum("pnd,pnd->pn", b, c) * la
            + np.einsum("pnd,pnd->pn", c, a) * lb
        )
        totals[s:e] = (2.0 * np.arctan2(num, den)).sum(axis=1)
    return _whole_turns(totals / (4.0 * np.pi), single, "solid-angle")


def degree_circle_map(samples: np.ndarray) -> int:
    """Degree of a circle self-map given ordered unit-vector samples."""
    f = np.asarray(samples, dtype=float)
    if f.ndim != 2 or f.shape[1] != 2:
        raise ValueError("samples must be (N, 2) unit vectors")
    g = np.roll(f, -1, axis=0)
    cross = f[:, 0] * g[:, 1] - f[:, 1] * g[:, 0]
    dot = np.einsum("ij,ij->i", f, g)
    inc = np.arctan2(cross, dot)
    if np.max(np.abs(inc)) >= np.pi / 2.0:
        raise ResidualError("angular gap >= pi/2 between consecutive samples")
    return _whole_turns(np.array([inc.sum() / (2.0 * np.pi)]), True, "lift")


def degree_integral_bound(
    values: np.ndarray, alpha0: float, mesh: SphereMesh
) -> float:
    """Pair integral of the far-separation indicator against |y-z|^-2 dim.

    For circle maps this is the quantity whose growth is proportional to the
    degree; the proportionality constant is calibrated empirically by tests.
    """
    limit = np.sqrt(2.0 + 2.0 / (mesh.dim + 1))
    if not 0.0 < alpha0 < limit:
        raise ValueError(f"alpha0 {alpha0} outside (0, {limit:.4f})")
    f = np.asarray(values, dtype=float)
    if len(f) != mesh.n_vertices:
        raise ValueError("value count does not match the mesh")
    power = 2 * mesh.dim

    def integrand(d2, fd):
        ok = d2 > 0.0
        return np.where(ok & (fd > alpha0), 1.0 / np.where(ok, d2, 1.0) ** (power / 2), 0.0)

    return weighted_pair_sum(mesh.vertices, mesh.weights, f, integrand)
