"""Topological degree kernels: planar winding numbers, solid-angle winding
for closed triangle meshes, circle-map degree, and a crossing-count oracle.

Two independent planar algorithms are provided on purpose:

* `winding_number_2d` sums signed angle increments around the point and
  rounds the total; the rounding residual doubles as an under-resolution
  detector.
* `ray_crossing_oracle` counts signed crossings of a ray with a fixed tiny
  irrational slope, retrying once with a second slope on a degenerate hit.

`winding_field` evaluates the crossing count for every cell of the grid at
once, through the per-row span engine of the near-loop mask (signed crossing
counts, Hormann and Agathos, Comput. Geom. 2001); the volume and
isoperimetric harnesses use it.  Cells too close to the loop are masked and
carry no value.  The crossings themselves, one (row, cell, sign) each, come
from `row_crossings`, which the grid signed volume sums without a field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridding import (
    CellGrid, _ranges, _row_span_sums, grid_over, mark_near_polyline, points_near_polyline,
)
from .pairs import WIDE_BUDGET, row_blocks, weighted_pair_sum
from .sphere import SphereMesh

RESIDUAL_LIMIT = 0.1
# a winding field is a plane of values: callers refuse grids over MAX_FIELD_SIDE^2 cells
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
    orientation: str = "ccw"
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


def make_slice_loop(
    t: float,
    vertices: np.ndarray,
    triangles: np.ndarray | None = None,
    orientation: str = "ccw",
) -> SliceLoop:
    vertices = np.asarray(vertices, dtype=float)
    dim = vertices.shape[1]
    degenerate = bool(np.max(np.ptp(vertices, axis=0)) < 1e-12)
    return SliceLoop(float(t), dim, vertices, triangles, orientation, degenerate)


def _as_points(points) -> tuple[np.ndarray, bool]:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        return pts[None, :], True
    return pts, False


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
    turns = total / (2.0 * np.pi)
    wind = np.rint(turns)
    residual = np.max(np.abs(turns - wind))
    if residual >= RESIDUAL_LIMIT:
        raise ResidualError(f"angle-sum residual {residual:.3f} >= {RESIDUAL_LIMIT}")
    out = wind.astype(np.int64)
    return int(out[0]) if single else out


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


@dataclass(frozen=True)
class WindingField:
    """Integer winding per grid cell with a boundary mask."""

    grid: CellGrid
    values: np.ndarray  # int64, 0 on masked cells
    mask: np.ndarray  # True where winding is undefined (near the loop)

    @property
    def unmasked_values(self) -> np.ndarray:
        return self.values[~self.mask]

    def sum_measure(self, power: float = 1.0) -> float:
        """Sum of |wind|^power over unmasked cells times the cell measure."""
        vals = np.abs(self.unmasked_values).astype(float)
        return float(np.sum(vals**power) * self.grid.cell_measure)

    def signed_sum(self) -> float:
        return float(np.sum(np.where(self.mask, 0, self.values)) * self.grid.cell_measure)


def row_crossings(vertices: np.ndarray, grid: CellGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every crossing of the closed polyline with a row of cell centers:
    its row j, the first cell k right of the intercept, and its sign
    (+1 upward, -1 downward, int64).

    A segment crosses the rows with center y in [min(ay, by), max(ay, by)),
    half-open so a shared vertex counts once.
    """
    v = vertices
    w = np.roll(v, -1, axis=0)
    ys = grid.axis_centers(1)
    first = np.searchsorted(ys, np.minimum(v[:, 1], w[:, 1]), side="left")
    last = np.searchsorted(ys, np.maximum(v[:, 1], w[:, 1]), side="left")
    seg, j = _ranges(first, last - first)
    a, b = v[seg], w[seg]
    frac = (ys[j] - a[:, 1]) / (b[:, 1] - a[:, 1])
    xint = a[:, 0] + frac * (b[:, 0] - a[:, 0])
    k = np.searchsorted(grid.axis_centers(0), xint, side="left")
    return j, k, np.where(b[:, 1] > a[:, 1], 1, -1)


def crossing_winding_rows(vertices: np.ndarray, grid: CellGrid) -> np.ndarray:
    """Winding at every cell center: the signed count of crossings to its
    right.  Each crossing (j, k, sign) of `row_crossings` adds its sign to
    cells [0, k) of row j."""
    j, k, sign = row_crossings(vertices, grid)
    # float sums of +-1 are exact integers
    return _row_span_sums(grid.shape, j, np.zeros_like(k), k, sign).astype(np.int64)


def field_grid(loop: SliceLoop, h: float, pad: float | None = None) -> CellGrid:
    """The grid of the loop's winding field at spacing h: its bounding box
    padded by `pad`, default max(2 h, 0.1)."""
    pad = max(2.0 * h, 0.1) if pad is None else pad
    return grid_over(loop.vertices, h, pad)


def winding_field(
    loop: SliceLoop,
    h: float,
    pad: float | None = None,
    grid: CellGrid | None = None,
) -> WindingField:
    """Winding number per grid cell; cells within h/2 of the loop are masked."""
    if loop.ambient_dim != 2:
        raise ValueError("winding_field supports planar loops")
    if grid is None:
        grid = field_grid(loop, h, pad)
    if loop.degenerate:
        shape = grid.shape
        return WindingField(grid, np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=bool))
    values = crossing_winding_rows(loop.vertices, grid)
    mask = mark_near_polyline(grid, loop.vertices, grid.h / 2.0)
    values = np.where(mask, 0, values)
    return WindingField(grid, values, mask)


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
    turns = totals / (4.0 * np.pi)
    wind = np.rint(turns)
    residual = np.max(np.abs(turns - wind))
    if residual >= RESIDUAL_LIMIT:
        raise ResidualError(f"solid-angle residual {residual:.3f} >= {RESIDUAL_LIMIT}")
    out = wind.astype(np.int64)
    return int(out[0]) if single else out


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
    turns = inc.sum() / (2.0 * np.pi)
    deg = round(float(turns))
    if abs(turns - deg) >= RESIDUAL_LIMIT:
        raise ResidualError(f"lift residual {abs(turns - deg):.3f}")
    return deg


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
