"""Slice loops, signed volumes two ways, polynomial structure, and the
isoperimetric harness.

The signed volume of a slice is computed either from the boundary
(shoelace / divergence form, exact for the polyline) or by summing the
winding field over a grid; the two are independent evaluations of the same
identity and their agreement is one of the package's core cross-checks.

With the counterclockwise orientation convention the signed volume of any
slice of any map is a polynomial in the slice height whose leading
coefficient is the volume of the unit (n-1)-ball (pi for n = 3, 4 pi / 3
for n = 4, up to mesh truncation), independent of the map and of the
mollification scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .gridding import CellGrid, grid_over, mark_near_polyline
from .maps import PositionMap
from .smoothing import Kernel, mollify_on_sphere
from .sphere import SphereMesh
from .winding import SliceLoop, make_slice_loop, winding_field


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: the leading SV(t) coefficient for n = d + 1."""
    return float(np.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0))


def slice_loop(
    pmap: PositionMap,
    t: float,
    mesh: SphereMesh,
    epsilon: float | Kernel | None = None,
    samples: np.ndarray | None = None,
) -> SliceLoop:
    """Image of the boundary sphere at height t, optionally mollified.

    `samples` short-circuits map evaluation with precomputed (and possibly
    already mollified) values at the mesh vertices.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"slice height {t} outside [0, 1]")
    if samples is None:
        samples = pmap(mesh.vertices)
        if epsilon is not None:
            samples = mollify_on_sphere(samples, epsilon, mesh)
    vertices = samples + t * mesh.vertices
    triangles = mesh.cells if mesh.dim == 2 else None
    orientation = "ccw" if mesh.dim == 1 else "outward"
    return make_slice_loop(t, vertices, triangles, orientation)


def signed_volume_stokes(loop: SliceLoop) -> float:
    """Boundary-form signed volume: shoelace area (dim 2) or det sum (dim 3)."""
    if loop.degenerate:
        return 0.0
    v = loop.vertices
    if loop.ambient_dim == 2:
        w = np.roll(v, -1, axis=0)
        return float(0.5 * np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))
    tris = loop.triangles
    a = v[tris[:, 0]]
    b = v[tris[:, 1]]
    c = v[tris[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


@dataclass(frozen=True)
class GridSignedVolume:
    value: float
    masked_cells: int
    grid_cells: int


def signed_volume_grid(
    loop: SliceLoop, h: float, grid: CellGrid | None = None
) -> GridSignedVolume:
    """Winding-field signed volume; masked boundary cells contribute zero."""
    if loop.degenerate:
        return GridSignedVolume(0.0, 0, 0)
    field = winding_field(loop, h, grid=grid)
    return GridSignedVolume(
        field.signed_sum(), int(field.mask.sum()), field.grid.n_cells
    )


@dataclass
class SVProfile:
    """Signed volume sampled over a grid of slice heights."""

    t_values: np.ndarray
    sv_values: np.ndarray
    method: str
    mesh_resolution: int
    grid_spacing: float | None = None

    def __post_init__(self):
        t = np.asarray(self.t_values, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("t grid must be strictly increasing")
        if t[0] < 0.0 or t[-1] > 1.0:
            raise ValueError("t grid must lie inside [0, 1]")
        if not np.all(np.isfinite(self.sv_values)):
            raise ValueError("signed volumes must be finite")


def sweep_signed_volume(
    pmap: PositionMap,
    t_grid: np.ndarray,
    mesh: SphereMesh,
    epsilon: float | None = None,
    method: str = "stokes",
    grid_h: float = 0.01,
) -> SVProfile:
    """SV(t) over the height grid by the requested method.

    Mollification is height-independent, so the map's sphere restriction is
    mollified once and reused across all slices.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n = pmap.n
    if len(t_grid) < n:
        raise ValueError(f"need at least {n} heights to resolve the polynomial")
    if method not in ("stokes", "grid"):
        raise ValueError(f"unknown method {method!r}")
    samples = pmap(mesh.vertices)
    if epsilon is not None:
        samples = mollify_on_sphere(samples, epsilon, mesh)
    sv = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        loop = slice_loop(pmap, t, mesh, samples=samples)
        if method == "stokes":
            sv[i] = signed_volume_stokes(loop)
        else:
            sv[i] = signed_volume_grid(loop, grid_h).value
    return SVProfile(
        t_grid,
        sv,
        method,
        mesh.n_vertices,
        grid_h if method == "grid" else None,
    )


@dataclass(frozen=True)
class PolyFit:
    coefficients: np.ndarray  # constant term first
    residual_rms: float
    leading_coefficient: float


def fit_sv_polynomial(profile: SVProfile, n: int = 3) -> PolyFit:
    """Least-squares fit of SV(t) by a polynomial of degree n-1."""
    t = np.asarray(profile.t_values, dtype=float)
    if len(t) < 2 * n:
        raise ValueError(f"profile too short to fit: {len(t)} < {2 * n}")
    V = np.vander(t, n, increasing=True)
    sol, _, rank, sigma = np.linalg.lstsq(V, profile.sv_values, rcond=None)
    if rank < n or sigma[0] / sigma[-1] > 1e10:
        raise ValueError("ill-conditioned fit; height grid too clustered")
    resid = float(np.sqrt(np.mean((V @ sol - profile.sv_values) ** 2)))
    return PolyFit(sol, resid, float(sol[-1]))


def _abs_quadratic_integral(lead: float, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Exact integral of |lead t^2 + b t + a| over [0, 1], vectorized in (b, a)."""
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)

    def F(t):
        return lead * t**3 / 3.0 + b * t**2 / 2.0 + a * t

    disc = b * b - 4.0 * lead * a
    sq = np.sqrt(np.maximum(disc, 0.0))
    r_lo = (-b - np.sign(lead) * sq) / (2.0 * lead)
    r_hi = (-b + np.sign(lead) * sq) / (2.0 * lead)
    lo_in = (disc > 0) & (r_lo > 0.0) & (r_lo < 1.0)
    hi_in = (disc > 0) & (r_hi > 0.0) & (r_hi < 1.0)
    t1 = np.where(lo_in, r_lo, 0.0)
    t2 = np.where(hi_in, r_hi, np.where(lo_in, r_lo, 0.0))
    return np.abs(F(t1) - F(0.0)) + np.abs(F(t2) - F(t1)) + np.abs(F(1.0) - F(t2))


def minimal_abs_integral(lead: float, grid: int = 400, refinements: int = 2) -> float:
    """Brute-force min over lower-order coefficients of the |polynomial| integral.

    Grid search over the (constant, linear) coefficient plane, refined around
    the argmin; the integrand is evaluated in closed form per candidate.
    """
    scale = abs(lead)
    a_lo, a_hi = -1.5 * scale, 1.5 * scale
    b_lo, b_hi = -2.0 * scale, 1.0 * scale
    best = (np.inf, 0.0, 0.0)
    for _ in range(refinements + 1):
        aa = np.linspace(a_lo, a_hi, grid)
        bb = np.linspace(b_lo, b_hi, grid)
        A, B = np.meshgrid(aa, bb, indexing="ij")
        vals = _abs_quadratic_integral(lead, B.ravel(), A.ravel()).reshape(A.shape)
        k = np.unravel_index(np.argmin(vals), vals.shape)
        best = (float(vals[k]), float(A[k]), float(B[k]))
        da = 4.0 * (a_hi - a_lo) / (grid - 1)
        db = 4.0 * (b_hi - b_lo) / (grid - 1)
        a_lo, a_hi = best[1] - da, best[1] + da
        b_lo, b_hi = best[2] - db, best[2] + db
    return best[0]


@dataclass(frozen=True)
class LowerBoundCheck:
    integral_abs_sv: float
    kappa: float | None  # None where the oracle does not apply (n != 3)
    passed: bool | None


def sv_lower_bound_check(fit: PolyFit, profile: SVProfile) -> LowerBoundCheck:
    """Check that the measured height integral of |SV| clears the structural
    minimum attainable for its leading coefficient.

    The fit's degree gives n; the leading coefficient must be within 10% of
    the unit (n-1)-ball volume.  The minimal-|integral| oracle covers
    quadratics only, so for n = 4 kappa and the verdict are None.
    """
    lead = fit.leading_coefficient
    n = len(fit.coefficients)
    expected = unit_ball_volume(n - 1)
    if abs(lead - expected) > 0.1 * expected:
        raise ValueError(
            f"leading coefficient {lead:.4f} is not within 10% of {expected:.4f}; "
            "orientation flipped or loop under-resolved"
        )
    integral = float(np.trapezoid(np.abs(profile.sv_values), profile.t_values))
    if n != 3:
        return LowerBoundCheck(integral, None, None)
    kappa = minimal_abs_integral(lead)
    return LowerBoundCheck(integral, kappa, bool(integral >= 0.95 * kappa))


def loop_area(loop: SliceLoop) -> float:
    """Polyline length (dim 2) or triangle-area sum (dim 3)."""
    if loop.degenerate:
        return 0.0
    v = loop.vertices
    if loop.ambient_dim == 2:
        return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())
    tris = loop.triangles
    a = v[tris[:, 0]]
    b = v[tris[:, 1]]
    c = v[tris[:, 2]]
    return float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


def neighborhood_measure(loop: SliceLoop, r: float, h: float) -> float:
    """Area of the r-neighborhood of the loop, counted over grid cells."""
    if h > r / 4.0:
        raise ValueError(f"grid spacing {h} too coarse for radius {r}; need h <= r/4")
    grid = grid_over(loop.vertices, h, r + 2.0 * h)
    hit = mark_near_polyline(grid, loop.vertices, r)
    return float(hit.sum() * grid.cell_measure)


@dataclass(frozen=True)
class IsoperimetricCheck:
    lhs: float
    rhs_area: float
    ratio: float
    passed: bool
    sharp_constant: float


def isoperimetric_check(loop: SliceLoop, h: float) -> IsoperimetricCheck:
    """Winding-field norm against the loop area, with the planar sharp constant.

    For planar loops the left side is the L^2 norm of the winding field and
    the sharp comparison constant (attained by circles) is 1/sqrt(4 pi).
    """
    area = loop_area(loop)
    if loop.degenerate:
        return IsoperimetricCheck(0.0, area, 0.0, True, 1.0 / np.sqrt(4.0 * np.pi))
    if loop.ambient_dim == 2:
        field = winding_field(loop, h)
        lhs = field.sum_measure(power=2.0) ** 0.5
        sharp = 1.0 / np.sqrt(4.0 * np.pi)
    else:
        raise NotImplementedError("grid winding fields are planar-only")
    ratio = lhs / area if area > 0 else 0.0
    return IsoperimetricCheck(lhs, area, ratio, bool(ratio <= sharp + 0.02), sharp)
