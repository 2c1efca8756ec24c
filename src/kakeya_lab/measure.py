"""Lebesgue-measure estimation for map images, separated tube families, and
the ray-coverage solver for sphere-domain maps.

All grids are anchored to the data's bounding box so rigid translations of
the input reproduce the same cell pattern, making translation invariance of
the estimates exact up to floating-point rounding.

The tube union is counted layer by layer in height with the scanline kernel
of `gridding.scanline_runs` over the tubes' core segments, whose exactness
argument is stated there: each layer adds the total length of its merged
runs, and no plane is built.  On a layer clear of every tube's end balls
the row spans are the cylinder's chords alone.  The cost follows the
(tube, layer, row) triples, which `tube_grid` bounds in closed form and
refuses above MAX_TUBE_PAIRS, with the layers' plane cells above
MAX_TUBE_CELLS, before the first layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridding import _rows_within, run_cells, scanline_runs
from .maps import PositionMap, lipschitz_constant_on_net, _fibonacci_sphere

# Parameter samples per axis (m + 1) that rasterize_image_measure may lay out;
# its square grid then holds at most 4096^2 = 2^24 points before the disk cut.
MAX_DISK_SIDE = 4096
# (tube, layer, row) triples tube_union_volume may visit, and cells of the
# layers' planes it may span; each union of acceptance criterion 9 (7,502
# tubes, delta = 0.02, h = 0.005) needs 1.84e7 triples and at most 2.84e7
# cells.  The union builds no plane since it counts runs, so the cell cap
# bounds no allocation; it is kept as part of the refusal contract of `tubes --h`.
MAX_TUBE_PAIRS = 2e8
MAX_TUBE_CELLS = 1e9
# The ray solver's low-discrepancy seed directions, its fixed-point steps per
# start, and the directions of its dense fallback scan
COVER_SEEDS = 32
COVER_MAX_ITER = 200
COVER_SCAN_DIRECTIONS = 10_000


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    h: float
    cells_hit: int
    mode: str


@dataclass(frozen=True)
class TubeFamily:
    """Separated direction net with per-direction tube centers."""

    delta: float
    net: np.ndarray  # (M, n-1) directions in the unit ball
    centers: np.ndarray  # (M, n-1) positions c(v)
    n: int

    @property
    def count(self) -> int:
        return len(self.net)

    def segment_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Start (t=0) and end (t=1) of each tube's core segment in R^n."""
        zeros = np.zeros((self.count, 1))
        ones = np.ones((self.count, 1))
        a = np.hstack([self.centers, zeros])
        b = np.hstack([self.centers + self.net, ones])
        return a, b


def rasterize_image_measure(pmap: PositionMap, h: float) -> MeasureEstimate:
    """Outer estimate of the measure of the map's graph-image in R^n.

    Parameter sampling is chosen from the modulus of continuity so that
    adjacent samples move by less than h/2 in the image; the count of grid
    cells containing samples then over-approximates the image volume and
    converges to it from above as h decreases.
    """
    if not 0.0 < h <= 0.1:
        raise ValueError(f"grid spacing {h} outside (0, 0.1]")
    if pmap.domain_kind != "ball" or pmap.n != 3:
        raise ValueError("rasterize_image_measure supports ball-domain maps, n = 3")
    C, alpha = pmap.modulus_of_continuity()
    # adjacent-sample image steps: C dv^alpha + dv (direction part, t <= 1)
    # and sqrt(2) dt (height part); keep each strictly under h/2
    budget = 0.495 * h
    dv = budget / 2.0
    if C > 0.0:
        dv = min(dv, (budget / (2.0 * C)) ** (1.0 / alpha))
    dt = budget / np.sqrt(2.0)
    # m + 1 samples per axis, m = ceil(2 / dv), exceed MAX_DISK_SIDE exactly when
    # dv < 2 / (MAX_DISK_SIDE - 1); checked before anything is allocated
    if dv < 2.0 / (MAX_DISK_SIDE - 1):
        raise ValueError(
            f"grid spacing {h} needs parameter steps of {dv:.3g}, over "
            f"{MAX_DISK_SIDE}^2 disk samples; use a larger h"
        )
    m = int(np.ceil(2.0 / dv))
    axis = -1.0 + (np.arange(m + 1) + 0.5) * (2.0 / (m + 1))
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    disk = np.stack([X.ravel(), Y.ravel()], axis=1)
    disk = disk[np.einsum("ij,ij->i", disk, disk) <= 1.0]
    n_t = int(np.ceil(1.0 / dt)) + 1
    ts = np.linspace(0.0, 1.0, n_t)

    values = pmap(disk)
    # data-anchored bounds: the image of (c(v) + t v, t)
    lo_xy = np.minimum(values.min(axis=0), (values + disk).min(axis=0)) - h
    hi_xy = np.maximum(values.max(axis=0), (values + disk).max(axis=0)) + h
    nx = int(np.ceil((hi_xy[0] - lo_xy[0]) / h)) + 1
    ny = int(np.ceil((hi_xy[1] - lo_xy[1]) / h)) + 1
    nz = int(np.ceil(1.0 / h)) + 1
    marked = np.zeros(nx * ny * nz, dtype=bool)
    for t in ts:
        pts = values + t * disk
        ix = np.floor((pts[:, 0] - lo_xy[0]) / h).astype(np.int64)
        iy = np.floor((pts[:, 1] - lo_xy[1]) / h).astype(np.int64)
        iz = min(int(np.floor(t / h)), nz - 1)
        marked[(ix * ny + iy) * nz + iz] = True
    hits = int(marked.sum())
    return MeasureEstimate(hits * h**3, float(h), hits, "image")


def _greedy_net(delta: float) -> np.ndarray:
    """Row-major greedy delta-net over the delta/4 candidate grid in the disk.

    An accepted point q rejects a candidate p when dx*dx + dy*dy < delta^2 in
    floats and the cells of side delta holding p and q are at most one apart
    in each axis.  The cell rule matters only at ties, lattice distance
    exactly delta along an axis (4 steps), where the cells can be two apart
    and it spares a point the float test rejects: any other pair whose
    cells are two apart fails the float test.  So the y cells are compared
    only across rows (the dx = 0 ties) and the x cells only along a row.

    The rows are walked in order.  A row's candidates are tested at once
    against the accepted points of the earlier rows within a y window wider
    than delta; the survivors then run the greedy in x, where only the last
    point accepted in the row can reject.
    """
    step = delta / 4.0
    m = int(np.floor(1.0 / step))
    ax = np.arange(-m, m + 1) * step
    X, Y = np.meshgrid(ax, ax)
    # y-major, x increasing within a row: the row-major order of the net
    cand = np.stack([X.ravel(), Y.ravel()], axis=1)
    cand = cand[np.einsum("ij,ij->i", cand, cand) <= 1.0]
    d2 = delta * delta
    inv = 1.0 / delta
    cells = np.floor(cand * inv)
    edges = [0, *(np.flatnonzero(np.diff(cand[:, 1])) + 1).tolist(), len(cand)]
    # a row accepts points at least 4 steps apart: at most ceil(k / 4) of k
    acc = np.empty((3, len(cand) // 4 + len(edges)))  # x, y, y cell
    n = 0
    for s, e in zip(edges[:-1], edges[1:]):
        y, cy = cand[s, 1], cells[s, 1]
        xs, cxs = cand[s:e, 0], cells[s:e, 0]
        lo = np.searchsorted(acc[1, :n], y - delta - 0.5 * step)
        q = acc[:, lo:n][:, np.abs(cy - acc[2, lo:n]) <= 1.0]
        if q.shape[1]:
            dx = xs[:, None] - q[0]
            dy = y - q[1]
            free = ~np.any(dx * dx + dy * dy < d2, axis=1)
            xs, cxs = xs[free], cxs[free]
        keep = []
        for i, (x, c) in enumerate(zip(xs.tolist(), cxs.tolist())):
            if keep:
                dx = x - last_x
                # along the row dy = 0, and the cells only grow
                if dx * dx < d2 and c - last_c <= 1.0:
                    continue
            keep.append(i)
            last_x, last_c = x, c
        k = len(keep)
        acc[0, n : n + k] = xs[keep]
        acc[1:, n : n + k] = [[y], [cy]]
        n += k
    return acc[:2, :n].T.copy()


def build_tube_family(c, delta: float) -> TubeFamily:
    """Greedy maximal separated net over a fine candidate grid in the disk,
    with tube centers c(net) from the position map c.

    Candidates are visited in row-major order; a candidate is accepted when
    it keeps pairwise distances >= delta (the tie rule is `_greedy_net`'s).
    The result is maximal over the candidate grid by construction.
    """
    if not 0.005 <= delta <= 0.1:
        raise ValueError(f"delta {delta} outside [0.005, 0.1]")
    net = _greedy_net(delta)
    centers = np.asarray(c(net), dtype=float)
    if centers.shape != net.shape:
        raise ValueError(
            f"center array shape {centers.shape} does not match net {net.shape}"
        )
    return TubeFamily(float(delta), net, centers, 3)


def tube_grid(family: TubeFamily, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner and (nx, ny, layers) shape of the tube union's cell grid, and
    each tube's reach in y within a layer, after the work preflight.

    Raises before anything is allocated if h > delta/4, or if the union may
    visit more than MAX_TUBE_PAIRS (tube, layer, row) triples or span more
    than MAX_TUBE_CELLS cells of the layers' planes (no plane is built; the
    cap is kept as a bound on the grid).
    """
    if h > family.delta / 4.0:
        raise ValueError(f"grid spacing {h} too coarse; need h <= delta/4")
    delta = family.delta
    a3, b3 = family.segment_endpoints()
    lo = np.minimum(a3, b3).min(axis=0) - delta - 2.0 * h
    hi = np.maximum(a3, b3).max(axis=0) + delta + 2.0 * h
    dims = np.ceil((hi - lo) / h).astype(int)
    # the section at height z lies within delta sqrt(1 + vy^2) in y of
    # c + clip(z, 0, 1) v, so a tube meets at most floor(2 reach / h) + 3 rows of a layer
    reach = delta * np.sqrt(1.0 + family.net[:, 1] ** 2)
    pairs = float(dims[2]) * float(np.sum(np.floor(2.0 * reach / h) + 3.0))
    cells = float(np.prod(dims.astype(float)))
    if pairs > MAX_TUBE_PAIRS or cells > MAX_TUBE_CELLS:
        raise ValueError(
            f"grid spacing {h} needs up to {pairs:.3g} (tube, layer, row) triples and "
            f"{cells:.3g} plane cells, over {MAX_TUBE_PAIRS:.3g} or {MAX_TUBE_CELLS:.3g}; "
            "use a larger h"
        )
    return lo, dims, reach


def tube_pairs_floor(delta: float, h: float) -> float:
    """A lower bound on `tube_grid`'s (tube, layer, row) triples for every
    delta-family at spacing h, known before the net is built.

    The net is maximal over the delta/4 candidate grid, so each point of the
    disk of radius 1 - delta/4 lies within delta + delta/(4 sqrt 2) < 1.25
    delta of the net: disks of radius 1.25 delta around the N net points
    cover it, and N >= ((1 - delta/4) / (1.25 delta))^2.  Every tube spans
    z in [0, 1], so the grid has at least floor((1 + 2 delta + 4h) / h)
    layers, and its reach is at least delta, so it meets at least
    floor(2 delta / h) + 3 rows of each.
    """
    net_points = ((1.0 - delta / 4.0) / (1.25 * delta)) ** 2
    layers = np.floor((1.0 + 2.0 * delta + 4.0 * h) / h)
    return float(layers * net_points * (np.floor(2.0 * delta / h) + 3.0))


def _tube_layers(family: TubeFamily, h: float):
    """Yield, layer by layer in height, the arguments of the scanline kernel
    `gridding.scanline_runs` for the cells of the layer whose center is
    within delta of a core segment.  Raises before the first layer as
    `tube_grid` does.

    Each tube gets the rows of `gridding._rows_within`: those whose center
    lies within its reach of yc = c_y + clip(z, 0, 1) v_y, widened far above
    rounding.  No other row holds a cell within delta of the segment: for
    its point (c + t v, t), t in [0, 1], write y - c_y - t v_y = p and
    z - t = q, p^2 + q^2 <= delta^2;
    then |t - clip(z, 0, 1)| <= |q|, so |y - yc| <= |p| + |q| |v_y| <=
    delta sqrt(1 + v_y^2), the reach.
    """
    lo, dims, reach = tube_grid(family, h)
    a3, b3 = family.segment_endpoints()
    u3 = b3 - a3
    cy, vy = family.centers[:, 1], family.net[:, 1]
    for iz in range(dims[2]):
        z = lo[2] + (iz + 0.5) * h
        yc = cy + min(max(z, 0.0), 1.0) * vy
        j0, j1 = _rows_within(yc, yc, reach, lo[1], h, dims[1])
        yield tuple(dims[:2]), lo[:2], h, j0, j1, z, a3, u3, family.delta


def tube_union_volume(family: TubeFamily, h: float) -> MeasureEstimate:
    """Grid volume of the union of delta-tubes around the core segments: the
    count of cells whose center is within delta of a segment, times h^3.
    Each layer is counted as the total length of the merged runs of
    `gridding.scanline_runs`; no plane is built."""
    hits = 0
    for args in _tube_layers(family, h):
        hits += run_cells(scanline_runs(*args))
    return MeasureEstimate(hits * h**3, float(h), hits, "tube_union")


@dataclass(frozen=True)
class TubeScalingRow:
    scale: float
    union_volume: float
    scaled_product: float  # scale^(n-1) * union_volume


def scaled_tube_families(family: TubeFamily, scale_values) -> list[tuple[float, TubeFamily]]:
    """(s, family with its centers scaled to net Lipschitz constant s) for
    each scale s: the base positions are rescaled to a unit net Lipschitz
    constant first."""
    scale_values = [float(s) for s in scale_values]
    if any(not 0.5 <= s <= 8.0 for s in scale_values):
        raise ValueError("scale values must lie in [0.5, 8]")
    lip = lipschitz_constant_on_net(family.net, family.centers)
    if lip <= 0.0:
        raise ValueError("base map has zero net Lipschitz constant")
    base_centers = family.centers / lip
    return [(s, TubeFamily(family.delta, family.net, s * base_centers, family.n)) for s in scale_values]


def tube_scaling_rows(scaled: list[tuple[float, TubeFamily]], h: float) -> list[TubeScalingRow]:
    """Union volume and scale^(n-1) * volume of each (scale, family) pair;
    every family's work preflight (`tube_grid`) runs before the first union."""
    for _, fam in scaled:
        tube_grid(fam, h)
    rows = []
    for s, fam in scaled:
        vol = tube_union_volume(fam, h).value
        rows.append(TubeScalingRow(s, vol, s ** (fam.n - 1) * vol))
    return rows


def lipschitz_tube_experiment(
    c_base,
    scale_values,
    delta: float,
    h: float | None = None,
) -> list[TubeScalingRow]:
    """Union volume of the tube family as the position map is scaled.

    The base positions are rescaled to a unit net Lipschitz constant first,
    so `scale` is the family's actual net Lipschitz constant; the reported
    product scale^2 * volume is the quantity whose positive lower bound the
    scaling law predicts.
    """
    if h is None:
        h = delta / 4.0
    return tube_scaling_rows(scaled_tube_families(build_tube_family(c_base, delta), scale_values), h)


@dataclass(frozen=True)
class CoverResult:
    direction: np.ndarray
    residual: float
    distance: float
    converged: bool
    used_fallback: bool


def _cover_residuals(pmap: PositionMap, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = x[None, :] - pmap(v)
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    f = d / norms
    return f, np.linalg.norm(f - v, axis=1)


def line_kakeya_cover(pmap: PositionMap, x: np.ndarray, tol: float = 1e-9) -> CoverResult:
    """Find a direction whose ray from the map position passes through x.

    Runs the normalized-pullback fixed-point iteration from a deterministic
    low-discrepancy set of seeds; if no seed converges, falls back to a dense
    direction scan followed by iteration polishing from the best candidates.
    """
    x = np.asarray(x, dtype=float)
    if pmap.domain_kind != "sphere":
        raise ValueError("line_kakeya_cover needs a sphere-domain map")
    radius = pmap.sup_bound()
    if np.linalg.norm(x) <= radius:
        raise ValueError(
            f"|x| = {np.linalg.norm(x):.4f} does not exceed the map radius {radius:.4f}"
        )
    seeds = _fibonacci_sphere(COVER_SEEDS)
    best_v, best_res = _iterate_cover(pmap, x, seeds, seeds[0], np.inf, tol)
    used_fallback = not best_res < tol
    if used_fallback:
        # dense scan, then polish the leading candidates
        scan = _fibonacci_sphere(COVER_SCAN_DIRECTIONS)
        _, res = _cover_residuals(pmap, x, scan)
        best_v, best_res = _iterate_cover(pmap, x, scan[np.argsort(res)[:16]], best_v, best_res, tol)
    s = float(np.linalg.norm(pmap(best_v) - x))
    return CoverResult(best_v, best_res, s, bool(best_res < tol), used_fallback)


def _iterate_cover(pmap, x, v, best_v, best_res, tol):
    """The normalized-pullback fixed-point iteration v <- (x - c(v)) / |x - c(v)|
    from the directions v, for at most COVER_MAX_ITER steps, keeping the best
    iterate (best_v, best_res) seen so far; stops once the residual is
    below tol."""
    for _ in range(COVER_MAX_ITER):
        f, res = _cover_residuals(pmap, x, v)
        i = int(np.argmin(res))
        if res[i] < best_res:
            best_res = float(res[i])
            best_v = f[i]
        if best_res < tol:
            break
        v = f
    return best_v, best_res


@dataclass(frozen=True)
class ConeCoverage:
    fraction: float
    samples: int
    covered: int
    worst_residual: float


def cone_coverage_check(
    pmap: PositionMap,
    r: float,
    sample_count: int = 500,
    tol: float = 1e-6,
    seed: int = 0,
    radius_bound: float | None = None,
) -> ConeCoverage:
    """Coverage of the apex cone over the polar cap by solved ray directions.

    Samples points of the infinite cone {height - R/r > planar_radius / r}
    truncated at height 3R/r, solves for a covering direction, and counts a
    sample covered when the residual clears tol and the direction lies in
    the cap of geodesic radius r around the pole.
    """
    if not 0.0 < r <= 0.5:
        raise ValueError(f"cap radius {r} outside (0, 0.5]")
    R = pmap.sup_bound() if radius_bound is None else float(radius_bound)
    R = max(R, 1e-6)
    rng = np.random.default_rng(seed)
    heights = rng.uniform(R / r * 1.05, 3.0 * R / r, size=sample_count)
    radial = np.sqrt(rng.uniform(0.0, 1.0, size=sample_count))
    radial *= (heights - R / r) * r * 0.98
    angle = rng.uniform(0.0, 2.0 * np.pi, size=sample_count)
    pts = np.stack([radial * np.cos(angle), radial * np.sin(angle), heights], axis=1)
    covered = 0
    worst = 0.0
    for p in pts:
        result = line_kakeya_cover(pmap, p, tol=min(tol / 10.0, 1e-8))
        cap_angle = float(np.arccos(np.clip(result.direction[2], -1.0, 1.0)))
        if result.residual < tol and cap_angle <= r + 1e-9:
            covered += 1
        else:
            worst = max(worst, result.residual)
    return ConeCoverage(covered / sample_count, sample_count, covered, worst)
