"""Slice loops, signed volumes two ways, polynomial structure, and the
isoperimetric harness.

The signed volume of a slice is computed either from the boundary
(shoelace / divergence form, exact for the polyline) or by summing the
winding field over a grid; the two are independent evaluations of the same
identity and their agreement is one of the package's core cross-checks.
The grid sums (signed volume, isoperimetric norm, neighborhood measure)
read row crossings and merged runs; no (nx, ny) plane is built.

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

from .gridding import grid_over, mark_near_polyline, run_cells
from .maps import PositionMap
from .smoothing import mollify_on_sphere
from .sphere import SphereMesh
from .winding import SliceLoop, WindingField, make_slice_loop, winding_field


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: the leading SV(t) coefficient for n = d + 1."""
    return float(np.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0))


def slice_loop(
    pmap: PositionMap,
    t: float,
    mesh: SphereMesh,
    epsilon: float | None = None,
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
    return make_slice_loop(t, vertices, mesh.cells if mesh.dim == 2 else None)


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


def signed_volume_grid(loop: SliceLoop, h: float, field: WindingField | None = None) -> GridSignedVolume:
    """Winding-field signed volume; masked boundary cells contribute zero.

    The exact integer sum of the loop's winding field at spacing h (`field`,
    if the caller has it) over its unmasked cells, times the cell measure.
    """
    if loop.degenerate:
        return GridSignedVolume(0.0, 0, 0)
    field = winding_field(loop, h) if field is None else field
    return GridSignedVolume(float(field.unmasked_sum() * field.grid.cell_measure), run_cells(field.runs),
                            field.grid.n_cells)


@dataclass
class SVProfile:
    """Signed volume sampled over a grid of slice heights."""

    t_values: np.ndarray
    sv_values: np.ndarray

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
    return SVProfile(t_grid, sv)


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


def minimal_abs_integral(lead: float, degree: int = 2) -> float:
    """Least integral of |p| over [0, 1] among polynomials p of the given degree
    with leading coefficient `lead`: |lead| 4^-degree.

    The extremal is the shifted Chebyshev polynomial of the second kind,
    since monic U_d / 2^d has L^1 norm 2^(1-d) on [-1, 1] (Korkine and
    Zolotarev, 1873).
    """
    return abs(lead) * 4.0**-degree


@dataclass(frozen=True)
class LowerBoundCheck:
    integral_abs_sv: float
    kappa: float
    passed: bool


def sv_lower_bound_check(fit: PolyFit, profile: SVProfile) -> LowerBoundCheck:
    """Check that the measured height integral of |SV| clears the structural
    minimum attainable for its leading coefficient.

    The fit's degree n - 1 gives n; the leading coefficient must be within
    10% of the unit (n-1)-ball volume.
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
    kappa = minimal_abs_integral(lead, n - 1)
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
    return float(run_cells(mark_near_polyline(grid, loop.vertices, r)) * grid.cell_measure)


@dataclass(frozen=True)
class IsoperimetricCheck:
    lhs: float
    rhs_area: float
    ratio: float
    passed: bool
    sharp_constant: float


def isoperimetric_check(loop: SliceLoop, h: float, field: WindingField | None = None) -> IsoperimetricCheck:
    """Winding-field norm against the loop area, with the planar sharp constant.

    For planar loops the left side is the L^2 norm of the winding field at
    spacing h (`field`, if the caller has it), from the exact integer sum of
    w^2 over its unmasked cells, and the sharp comparison constant (attained
    by circles) is 1/sqrt(4 pi).
    """
    area = loop_area(loop)
    sharp = 1.0 / np.sqrt(4.0 * np.pi)
    if loop.degenerate:
        return IsoperimetricCheck(0.0, area, 0.0, True, sharp)
    if loop.ambient_dim != 2:
        raise NotImplementedError("grid winding fields are planar-only")
    field = winding_field(loop, h) if field is None else field
    lhs = (field.unmasked_sum(power=2) * field.grid.cell_measure) ** 0.5
    ratio = lhs / area if area > 0 else 0.0
    return IsoperimetricCheck(lhs, area, ratio, bool(ratio <= sharp + 0.02), sharp)
