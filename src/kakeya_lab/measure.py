"""Lebesgue-measure estimation for map images, separated tube families, and
the ray-coverage solver for sphere-domain maps.

All grids are anchored to the data's bounding box so rigid translations of
the input reproduce the same cell pattern, making translation invariance of
the estimates exact up to floating-point rounding.

The tube union is counted layer by layer in height with the scanline kernel
of `gridding.scanline_mask`: at a layer's height each tube's section is
convex (two end-ball disks and the cylinder's ellipse, clipped to the strip
0 <= t <= 1), so each grid row meets it in one interval with a closed form.
The cost follows the (tube, layer, row) triples, which are bounded in closed
form and refused above MAX_TUBE_PAIRS before any layer is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridding import _cell_index, _solve_span, scanline_mask
from .maps import PositionMap, lipschitz_constant_on_net, _fibonacci_sphere

# Parameter samples per axis (m + 1) that rasterize_image_measure may lay out;
# its square grid then holds at most 4096^2 = 2^24 points before the disk cut.
MAX_DISK_SIDE = 4096
# (tube, layer, row) triples tube_union_volume may visit; each union of
# acceptance criterion 9 (7,502 tubes, delta = 0.02, h = 0.005) needs 1.84e7
MAX_TUBE_PAIRS = 2e8


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


def rasterize_image_measure(
    pmap: PositionMap,
    h: float,
    modulus: tuple[float, float] | None = None,
) -> MeasureEstimate:
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
    if modulus is None:
        modulus = pmap.modulus_of_continuity()
    C, alpha = modulus
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


def build_tube_family(
    c_or_values,
    delta: float,
    shuffle_seed: int | None = None,
) -> TubeFamily:
    """Greedy maximal separated net over a fine candidate grid in the disk.

    Candidates are visited in row-major order (or a seeded shuffle); a
    candidate is accepted when it keeps pairwise distances >= delta.  The
    result is maximal over the candidate grid by construction.
    """
    if not 0.005 <= delta <= 0.1:
        raise ValueError(f"delta {delta} outside [0.005, 0.1]")
    step = delta / 4.0
    m = int(np.floor(1.0 / step))
    ax = np.arange(-m, m + 1) * step
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    cand = np.stack([X.ravel(), Y.ravel()], axis=1)
    cand = cand[np.einsum("ij,ij->i", cand, cand) <= 1.0]
    order = np.lexsort((cand[:, 0], cand[:, 1]))
    cand = cand[order]
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        cand = cand[rng.permutation(len(cand))]
    accepted: list[np.ndarray] = []
    buckets: dict[tuple[int, int], list[int]] = {}
    d2 = delta * delta
    inv = 1.0 / delta
    for p in cand:
        ci = int(np.floor(p[0] * inv))
        cj = int(np.floor(p[1] * inv))
        ok = True
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for idx in buckets.get((ci + di, cj + dj), ()):
                    q = accepted[idx]
                    dx = p[0] - q[0]
                    dy = p[1] - q[1]
                    if dx * dx + dy * dy < d2:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            buckets.setdefault((ci, cj), []).append(len(accepted))
            accepted.append(p)
    net = np.asarray(accepted)
    if callable(c_or_values):
        centers = np.asarray(c_or_values(net), dtype=float)
    else:
        centers = np.asarray(c_or_values, dtype=float)
    if centers.shape != net.shape:
        raise ValueError(
            f"center array shape {centers.shape} does not match net {net.shape}"
        )
    return TubeFamily(float(delta), net, centers, 3)


def _tube_row_spans(r, z, cx, cy, vx, vy, py) -> tuple[np.ndarray, np.ndarray]:
    """x-extent of each row's intersection with the r-neighbourhood, at height
    z, of the segment from (cx, cy, 0) to (cx + vx, cy + vy, 1); r is a
    column of radii, one output row each.

    The section is convex, so the intersection is one interval: the union of
    the chords of the cylinder's ellipse around the axis point
    (cx + z vx, cy + z vy), semi-axes r and r sqrt(1 + |v|^2), clipped to the
    strip 0 <= t <= 1 of the segment parameter, and of the two end balls'
    disks.  On the ellipse |t - z| < r, so the strip is applied only within r
    of an end, and an end ball only reaches heights within r of its end.  An
    empty span is (inf, -inf).
    """
    r_max = float(np.max(r))
    # ellipse in x' = x - cx - z vx: A x'^2 - 2 vx vy dy x' + (1 + vx^2) dy^2 <= r^2 L^2,
    # A = 1 + vy^2, L^2 = A + vx^2, with roots (vx vy dy +- L sqrt(r^2 A - dy^2)) / A
    a = 1.0 + vy * vy
    l2 = a + vx * vx
    dy = py - (cy + z * vy)
    e = r * r * a - dy * dy
    root = np.sqrt(l2 * np.maximum(e, 0.0))
    mid = vx * vy * dy
    x_lo = (mid - root) / a
    x_hi = (mid + root) / a
    if not r_max <= z <= 1.0 - r_max:
        # strip, t = z + (x' vx + dy vy) / L^2 in [0, 1]
        t_lo, t_hi = _solve_span(-z * l2 - dy * vy, (1.0 - z) * l2 - dy * vy, vx)
        x_lo = np.maximum(x_lo, t_lo)
        x_hi = np.minimum(x_hi, t_hi)
    band = (e >= 0.0) & (x_lo <= x_hi)
    axis_x = cx + z * vx
    lo = np.where(band, axis_x + x_lo, np.inf)
    hi = np.where(band, axis_x + x_hi, -np.inf)
    for x0, y0, dz in ((cx, cy, z), (cx + vx, cy + vy, z - 1.0)):
        if abs(dz) > r_max:
            continue
        dy = py - y0
        q = r * r - dz * dz - dy * dy
        half = np.sqrt(np.maximum(q, 0.0))
        lo = np.where(q >= 0.0, np.minimum(lo, x0 - half), lo)
        hi = np.where(q >= 0.0, np.maximum(hi, x0 + half), hi)
    return lo, hi


def _tube_layer_masks(family: TubeFamily, h: float):
    """Yield, layer by layer in height, the boolean (nx, ny) field of the grid
    cells whose center is within delta of a core segment (the exact
    point-segment test in R^3), by scanline spans of each tube's section.
    Raises before the first layer if h > delta/4 or the (tube, layer, row)
    triples may exceed MAX_TUBE_PAIRS."""
    if h > family.delta / 4.0:
        raise ValueError(f"grid spacing {h} too coarse; need h <= delta/4")
    delta = family.delta
    a3, b3 = family.segment_endpoints()
    lo = np.minimum(a3, b3).min(axis=0) - delta - 2.0 * h
    hi = np.maximum(a3, b3).max(axis=0) + delta + 2.0 * h
    dims = np.ceil((hi - lo) / h).astype(int)
    ab = b3 - a3
    ab2 = np.einsum("ij,ij->i", ab, ab)
    cx, cy = family.centers[:, 0], family.centers[:, 1]
    vx, vy = family.net[:, 0], family.net[:, 1]
    slack = 1e-9 * (float(np.abs(np.concatenate([a3, b3])).max()) + delta + h)
    r_out = delta + slack
    radii = np.array([[r_out], [delta - slack]])  # outer and inner spans
    # the section at height z lies within r sqrt(1 + vy^2) in y of c + clip(z, 0, 1) v,
    # so a tube meets at most floor(2 reach / h) + 3 rows of a layer
    reach = r_out * np.sqrt(1.0 + vy * vy)
    pairs = float(dims[2]) * float(np.sum(np.floor(2.0 * reach / h) + 3.0))
    if pairs > MAX_TUBE_PAIRS:
        raise ValueError(
            f"grid spacing {h} needs up to {pairs:.3g} (tube, layer, row) triples, over "
            f"{MAX_TUBE_PAIRS:.3g}; use a larger h"
        )
    for iz in range(dims[2]):
        z = lo[2] + (iz + 0.5) * h

        def spans(k, py):
            return _tube_row_spans(radii, z, cx[k], cy[k], vx[k], vy[k], py)

        def near(k, px, py):
            # |P - a - t ab|^2 <= delta^2, t clipped to [0, 1], for P = (px, py, z);
            # a = (c, 0), so P - a is (px - cx, py - cy, z)
            rel = np.empty((len(k), 3))
            rel[:, 0] = px - cx[k]
            rel[:, 1] = py - cy[k]
            rel[:, 2] = z
            ab_k = ab[k]
            tpar = np.clip(np.einsum("kd,kd->k", rel, ab_k) / ab2[k], 0.0, 1.0)
            rel -= np.multiply(tpar[:, None], ab_k, out=ab_k)
            return np.einsum("kd,kd->k", rel, rel) <= delta * delta

        yc = cy + min(max(z, 0.0), 1.0) * vy
        j0 = _cell_index(yc - reach, lo[1], h, dims[1], np.floor)
        j1 = _cell_index(yc + reach, lo[1], h, dims[1], np.ceil)
        yield scanline_mask(tuple(dims[:2]), lo[:2], h, j0, j1, spans, near)


def tube_union_volume(family: TubeFamily, h: float) -> MeasureEstimate:
    """Grid volume of the union of delta-tubes around the core segments: the
    count of cells whose center is within delta of a segment, taken layer by
    layer (`_tube_layer_masks`), times h^3."""
    hits = sum(int(np.count_nonzero(mask)) for mask in _tube_layer_masks(family, h))
    return MeasureEstimate(hits * h**3, float(h), hits, "tube_union")


@dataclass(frozen=True)
class TubeScalingRow:
    scale: float
    union_volume: float
    scaled_product: float  # scale^(n-1) * union_volume


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
    scale_values = [float(s) for s in scale_values]
    if any(not 0.5 <= s <= 8.0 for s in scale_values):
        raise ValueError("scale values must lie in [0.5, 8]")
    if h is None:
        h = delta / 4.0
    family = build_tube_family(c_base, delta)
    lip = lipschitz_constant_on_net(family.net, family.centers)
    if lip <= 0.0:
        raise ValueError("base map has zero net Lipschitz constant")
    base_centers = family.centers / lip
    rows = []
    for s in scale_values:
        scaled = TubeFamily(family.delta, family.net, s * base_centers, family.n)
        vol = tube_union_volume(scaled, h).value
        rows.append(TubeScalingRow(s, vol, s ** (family.n - 1) * vol))
    return rows


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


def line_kakeya_cover(
    pmap: PositionMap,
    x: np.ndarray,
    tol: float = 1e-9,
    n_seeds: int = 32,
    max_iter: int = 200,
    scan_resolution: int = 10_000,
) -> CoverResult:
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
    v = _fibonacci_sphere(n_seeds)
    best_v, best_res = v[0], np.inf
    for _ in range(max_iter):
        f, res = _cover_residuals(pmap, x, v)
        i = int(np.argmin(res))
        if res[i] < best_res:
            best_res = float(res[i])
            best_v = f[i]
        if best_res < tol:
            s = float(np.linalg.norm(pmap(best_v) - x))
            return CoverResult(best_v, best_res, s, True, False)
        v = f
    # fallback: dense scan, then polish the leading candidates
    scan = _fibonacci_sphere(scan_resolution)
    _, res = _cover_residuals(pmap, x, scan)
    order = np.argsort(res)[:16]
    v = scan[order]
    for _ in range(max_iter):
        f, res = _cover_residuals(pmap, x, v)
        i = int(np.argmin(res))
        if res[i] < best_res:
            best_res = float(res[i])
            best_v = f[i]
        if best_res < tol:
            break
        v = f
    s = float(np.linalg.norm(pmap(best_v) - x))
    return CoverResult(best_v, best_res, s, bool(best_res < tol), True)


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
