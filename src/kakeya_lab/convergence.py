"""Convergence harnesses: the normalized-difference triangle inequality,
agreement of raw and mollified winding fields outside a collar, and the
collar/exterior split of the total winding integral across mollification
scales.

All grids here are anchored to the raw (unmollified) loop of each slice, so
fields at different mollification scales are compared cell for cell.  The
totals, collar sums, collar areas and agreement counts are exact integers
from the fields' row crossings and merged runs (`WindingField`); no plane
is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridding import grid_over, mark_near_polyline, run_cells, union_runs
from .maps import PositionMap, RegularityReport, holder_estimate
from .slices import loop_area, slice_loop
from .smoothing import mollify_on_sphere
from .sphere import SphereMesh
from .winding import _NO_RUNS, MAX_FIELD_SIDE, WindingField, winding_field


@dataclass(frozen=True)
class TriangleCheck:
    checked: int
    violations: int
    max_violation: float


def triangle_inequality_check(
    n_samples: int = 10**6, dim: int = 2, seed: int = 0
) -> TriangleCheck:
    """Fuzz the two-term normalized-difference inequality.

    For u = a - x and w = b - x with |u| <= |w|, checks
    |u/|u| - w/|w||  <=  |u - w| (1/|u| + 1/|w|).
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n_samples, dim))
    a = rng.uniform(-1.0, 1.0, size=(n_samples, dim))
    b = rng.uniform(-1.0, 1.0, size=(n_samples, dim))
    u = a - x
    w = b - x
    nu = np.linalg.norm(u, axis=1)
    nw = np.linalg.norm(w, axis=1)
    ok = (nu > 1e-12) & (nw > 1e-12)
    u, w, nu, nw = u[ok], w[ok], nu[ok], nw[ok]
    swap = nu > nw
    u[swap], w[swap] = w[swap].copy(), u[swap].copy()
    nu[swap], nw[swap] = nw[swap].copy(), nu[swap].copy()
    lhs = np.linalg.norm(u / nu[:, None] - w / nw[:, None], axis=1)
    rhs = np.linalg.norm(u - w, axis=1) * (1.0 / nu + 1.0 / nw)
    gap = lhs - rhs
    return TriangleCheck(
        int(len(u)), int(np.sum(gap > 1e-12)), float(max(gap.max(), 0.0))
    )


def _collar_radius(epsilon: float, delta_prime: float | None, regularity: RegularityReport) -> float:
    if regularity.degenerate:
        return 0.0
    exponent = float(regularity.holder_exponent_estimate if delta_prime is None else delta_prime)
    H = 2.0 * float(regularity.holder_constant_estimate)
    return H * epsilon**exponent


def _collar_runs(grid, loop, collar: float):
    """The cells within the collar radius of the loop, as merged runs."""
    return mark_near_polyline(grid, loop.vertices, collar) if collar > 0.0 else _NO_RUNS


def _agreement(f_a: WindingField, f_b: WindingField, *outside) -> tuple[int, int]:
    """The cells unmasked in both fields and outside the runs `outside`, and
    how many of them hold the same winding in both: the cells left out of
    the union of the masks and `outside`, and those left out of that union
    with the cells where the windings differ."""
    shape = f_a.grid.shape
    dropped = union_runs(shape, f_a.runs, f_b.runs, *outside)
    differing = union_runs(shape, dropped, f_a.differs(f_b))
    n = f_a.grid.n_cells
    return n - run_cells(dropped), n - run_cells(differing)


@dataclass(frozen=True)
class AgreementStats:
    compared_cells: int
    collar_cells: int
    mismatches: int
    collar_radius: float
    agreement_fraction: float


def winding_agreement(
    pmap: PositionMap,
    t: float,
    epsilon: float,
    mesh: SphereMesh,
    h: float,
) -> AgreementStats:
    """Compare raw and mollified winding fields outside the deviation collar.

    The collar radius is twice the measured oscillation constant times
    epsilon^exponent, an upper bound for the mollification displacement, so
    outside it the two loops are homotopic around every cell center and the
    fields must agree exactly.
    """
    collar = _collar_radius(epsilon, None, holder_estimate(pmap))
    raw = pmap(mesh.vertices)
    smooth = mollify_on_sphere(raw, epsilon, mesh)
    loop_raw = slice_loop(pmap, t, mesh, samples=raw)
    loop_eps = slice_loop(pmap, t, mesh, samples=smooth)
    both = np.vstack([loop_raw.vertices, loop_eps.vertices])
    grid = grid_over(both, h, pad=max(2.0 * h, 0.1, collar))
    f_raw = winding_field(loop_raw, h, grid=grid)
    f_eps = winding_field(loop_eps, h, grid=grid)
    in_collar = _collar_runs(grid, loop_raw, collar)
    compared, agreeing = _agreement(f_raw, f_eps, in_collar)
    total_unmasked, agree_all = _agreement(f_raw, f_eps)
    return AgreementStats(compared, run_cells(in_collar), compared - agreeing, collar,
                          agree_all / max(total_unmasked, 1))


@dataclass
class ConvergenceReport:
    epsilons: list
    total_integrals: list
    collar_integrals: list  # I1 per epsilon
    exterior_integrals: list  # I2 per epsilon
    i1_bounds: list  # collar-measure^(1/(n-1)) * max loop area per epsilon
    agreement_fractions: list
    calibration_constant: float
    cauchy_gaps: list
    cauchy_ok: bool
    i1_ok: bool

    def gap_ratio(self) -> float:
        """Smallest shrink factor between successive total-integral gaps."""
        pairs = zip(self.cauchy_gaps, self.cauchy_gaps[1:])
        return min((g0 / g1 if g1 > 0 else np.inf) for g0, g1 in pairs)


def convergence_split(
    pmap: PositionMap,
    epsilons,
    t_grid,
    mesh: SphereMesh,
    h: float,
    delta_prime: float | None = None,
) -> ConvergenceReport:
    """Split the total winding integral into collar and exterior parts per
    mollification scale, and test the finite-scale convergence pattern.

    Checks: successive gaps of the totals shrink by at least 1.5x, and the
    collar part obeys the collar-measure bound with the constant calibrated
    at the largest scale and held fixed.  Raises ValueError before the first
    mollification or winding field if a height's grid would exceed
    MAX_FIELD_SIDE^2 cells.
    """
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) < 3 or any(np.diff(epsilons) >= 0):
        raise ValueError("need at least three strictly decreasing scales")
    t_grid = np.asarray(t_grid, dtype=float)
    regularity = holder_estimate(pmap)
    raw_samples = pmap(mesh.vertices)
    raw_loops = [slice_loop(pmap, t, mesh, samples=raw_samples) for t in t_grid]
    grids = [grid_over(loop.vertices, h, pad=max(2.0 * h, 0.3)) for loop in raw_loops]
    cells = max(grid.n_cells for grid in grids)
    if cells > MAX_FIELD_SIDE**2:
        raise ValueError(f"grid spacing h = {h} needs winding fields of {cells} cells, over "
                         f"{MAX_FIELD_SIDE}^2; use a larger h")
    collars = [_collar_radius(eps, delta_prime, regularity) for eps in epsilons]
    smooths = [mollify_on_sphere(raw_samples, eps, mesh) for eps in epsilons]
    n_t = len(t_grid)
    collar_part = [np.zeros(n_t) for _ in epsilons]
    total_part = [np.zeros(n_t) for _ in epsilons]
    collar_area = [np.zeros(n_t) for _ in epsilons]
    max_area = [0.0] * len(epsilons)
    agree_cells = [0] * len(epsilons)
    unmasked_cells = [0] * len(epsilons)
    # heights outside, scales inside: the raw loop's field is built once per
    # height and compared against every mollification scale
    for i, (t, raw_loop, grid) in enumerate(zip(t_grid, raw_loops, grids)):
        f_raw = winding_field(raw_loop, h, grid=grid)
        cell = grid.cell_measure
        for k, (collar, smooth) in enumerate(zip(collars, smooths)):
            lp = slice_loop(pmap, t, mesh, samples=smooth)
            f_eps = winding_field(lp, h, grid=grid)
            in_collar = _collar_runs(grid, raw_loop, collar)
            total_part[k][i] = f_eps.unmasked_sum() * cell
            collar_part[k][i] = f_eps.unmasked_sum(within=in_collar) * cell
            collar_area[k][i] = run_cells(in_collar) * cell
            max_area[k] = max(max_area[k], loop_area(lp))
            unmasked, agreeing = _agreement(f_eps, f_raw)
            unmasked_cells[k] += unmasked
            agree_cells[k] += agreeing
    totals, i1s, i2s, bounds, agree = [], [], [], [], []
    for k in range(len(epsilons)):
        total = float(np.trapezoid(total_part[k], t_grid))
        i1 = float(np.trapezoid(collar_part[k], t_grid))
        collar_measure = float(np.trapezoid(collar_area[k], t_grid))
        totals.append(total)
        i1s.append(i1)
        i2s.append(total - i1)
        bounds.append(collar_measure ** (1.0 / (pmap.n - 1)) * max_area[k])
        agree.append(agree_cells[k] / max(unmasked_cells[k], 1))
    gaps = [abs(totals[k + 1] - totals[k]) for k in range(len(totals) - 1)]
    cauchy_ok = all(
        gaps[k + 1] <= gaps[k] / 1.5 + 1e-12 for k in range(len(gaps) - 1)
    )
    if bounds[0] > 0.0:
        calibration = abs(i1s[0]) / bounds[0]
    else:
        calibration = 0.0
    i1_ok = all(
        abs(i1s[k]) <= calibration * bounds[k] * (1.0 + 1e-9) + 1e-12
        for k in range(len(epsilons))
    )
    return ConvergenceReport(
        epsilons,
        totals,
        i1s,
        i2s,
        bounds,
        agree,
        calibration,
        gaps,
        bool(cauchy_ok),
        bool(i1_ok),
    )
