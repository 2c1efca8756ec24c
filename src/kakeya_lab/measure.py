"""Lebesgue-measure estimation for map images, separated tube families, and
the ray-coverage solver for sphere-domain maps.

All grids are anchored to the data's bounding box so rigid translations of
the input reproduce the same cell pattern, making translation invariance of
the estimates exact up to floating-point rounding.

The tube union is counted layer by layer in height by its own kernel,
`tube_layer_runs`: every tube shares a_z = 0, u_z = 1 and delta, so a layer
is one dense (row x tube) block of closed-form spans in cell units, with
the per-tube constants computed once per union.  Spans are taken at delta
plus and minus the slack of `gridding.scanline_runs`, whose exactness
argument carries over: inner spans are filled, and the cells between the
two spans get the exact test `gridding._near`.  Each layer adds the total
length of its merged runs, and no plane is built.  On a layer clear of
every tube's end balls the spans are the cylinder's chords alone.  The
cost follows the (tube, layer, row) triples, which `tube_grid` bounds in
closed form and refuses above MAX_TUBE_PAIRS before the first layer, as it
refuses a layer grid too wide for the packed run keys of
`gridding.merged_runs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridding import (
    _PAIR_CHUNK, _band_cells, _near, _rows_within, _solve_span, run_cells, run_keys_fit, union_runs,
)
from .maps import PositionMap, lipschitz_constant_on_net, _fibonacci_sphere

# Parameter samples per axis (m + 1) that rasterize_image_measure may lay out;
# its square grid then holds at most 4096^2 = 2^24 points before the disk cut.
MAX_DISK_SIDE = 4096
# (tube, layer, row) triples tube_union_volume may visit; each union of
# acceptance criterion 9 (7,502 tubes, delta = 0.02, h = 0.005) needs 1.84e7
MAX_TUBE_PAIRS = 2e8
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

    Raises before anything is allocated if h > delta/4, if the union may
    visit more than MAX_TUBE_PAIRS (tube, layer, row) triples, or if a
    layer's runs would not fit `gridding.merged_runs`' packed int64 keys.
    """
    if h > family.delta / 4.0:
        raise ValueError(f"grid spacing {h} too coarse; need h <= delta/4")
    delta = family.delta
    a3, b3 = family.segment_endpoints()
    lo = np.minimum(a3, b3).min(axis=0) - delta - 2.0 * h
    hi = np.maximum(a3, b3).max(axis=0) + delta + 2.0 * h
    # floats until the width is checked: a wide map's grid may not fit int64
    dims = np.ceil((hi - lo) / h)
    # the section at height z lies within delta sqrt(1 + vy^2) in y of
    # c + clip(z, 0, 1) v, so a tube meets at most floor(2 reach / h) + 3 rows of a layer
    reach = delta * np.sqrt(1.0 + family.net[:, 1] ** 2)
    pairs = float(dims[2]) * float(np.sum(np.floor(2.0 * reach / h) + 3.0))
    if pairs > MAX_TUBE_PAIRS:
        raise ValueError(
            f"grid spacing {h} needs up to {pairs:.3g} (tube, layer, row) triples, "
            f"over {MAX_TUBE_PAIRS:.3g}; use a larger h"
        )
    if not run_keys_fit(dims[:2]):
        raise ValueError(
            f"grid spacing {h} needs a {dims[0]:.3g} x {dims[1]:.3g} layer grid, too large "
            "for packed int64 run keys; use a larger h"
        )
    return lo, dims.astype(int), reach


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


class _Tubes:
    """A tube family's grid and the per-tube constants of `tube_layer_runs`,
    computed once per union after `tube_grid`'s preflight.

    Tube k is the segment a -> a + u, a = (c_x, c_y, 0), u = b - a with
    b = (c_x + v_x, c_y + v_y, 1), as `TubeFamily.segment_endpoints` gives
    them (so u_z = 1 exactly).  Positions along a row are in cell units,
    X = (x - o_x)/h - 1/2, so that the cells of an interval [X_lo, X_hi]
    are ceil(X_lo)..floor(X_hi).
    """

    def __init__(self, family: TubeFamily, h: float):
        lo, dims, reach = tube_grid(family, h)
        self.shape = int(dims[0]), int(dims[1])
        self.origin, self.h, self.layers = lo, h, int(dims[2])
        a, b = family.segment_endpoints()
        u = b - a
        self.a, self.u = a, u
        self.r = r = family.delta
        # the slack of `gridding.scanline_runs`; the outer and inner radius
        self.slack = slack = 1e-9 * (max(float(np.abs(a).max()), float(np.abs(a + u).max())) + r + h)
        self.radii = (r + slack, r - slack) if r > slack else (r + slack,)
        # the reach of the end balls, r_out, with a margin (`clear`)
        self.edge = (r + slack) * (1.0 + 1e-9) + 1e-9
        ax, ay = a[:, 0], a[:, 1]
        ux, uy = u[:, 0], u[:, 1]
        self.ay, self.ux, self.uy = ay, ux, uy
        # the row rule's v_y and reach
        self.vy, self.reach = family.net[:, 1], reach
        # area = u_y^2 + u_z^2, l2 = |u|^2; the chord's slope and half-width
        # factors in cell units; each tube's start and end in x, in cells
        self.area = area = uy * uy + 1.0
        self.l2 = l2 = area + ux * ux
        self.slope = ux * uy / (area * h)
        self.width = np.sqrt(l2) / (area * h)
        self.x0 = (ax - lo[0]) / h - 0.5
        self.dx = ux / h
        self._work = np.empty((7, 0))

    def clear(self, z: float) -> bool:
        """Whether the layer at height z is clear of every tube's end balls,
        by a margin far above rounding: edge < z < 1 - edge, with edge =
        r_out (1 + 1e-9) + 1e-9, 1e-9 of r_out = delta + slack and of u_z = 1.

        Write P - a = t u + w with w perpendicular to u; a point within r_out
        of the tube's axis has |w| <= r_out, so |t - z| <= r_out (u_z = 1).
        On a clear layer every such point has 0 < t < 1: neither end ball
        meets the layer and the strip 0 <= (P - a).u <= |u|^2 cannot bind.
        """
        return bool(self.edge < z < 1.0 - self.edge)

    def buffers(self, rows: int, tubes: int):
        """Seven (rows x tubes) float work arrays, kept from block to block."""
        n = rows * tubes
        if self._work.shape[1] < n:
            self._work = np.empty((7, n))
        return [w[:n].reshape(rows, tubes) for w in self._work]


def _tube_layers(family: TubeFamily, h: float):
    """Yield, layer by layer in height, the arguments (tubes, z, clear) of
    `tube_layer_runs`: the family's `_Tubes`, the layer's height z and
    whether the layer is clear of every tube's end balls (`_Tubes.clear`).
    Raises before the first layer as `tube_grid` does."""
    tubes = _Tubes(family, h)
    for iz in range(tubes.layers):
        z = tubes.origin[2] + (iz + 0.5) * h
        yield tubes, z, tubes.clear(z)


def tube_layer_runs(tubes: _Tubes, z: float, clear: bool):
    """The cells of the layer at height z whose center is within delta of a
    tube's core segment (the exact test `gridding._near`), as the disjoint
    sorted runs (first, last) of `gridding.merged_runs`.

    Tube k gets the rows of `gridding._rows_within`: those whose center lies
    within its reach of yc = c_y + clip(z, 0, 1) v_y, widened far above
    rounding.  No other row holds a cell within delta of the segment: for
    its point (c + t v, t), t in [0, 1], write y - c_y - t v_y = p and
    z - t = q, p^2 + q^2 <= delta^2; then |t - clip(z, 0, 1)| <= |q|, so
    |y - yc| <= |p| + |q| |v_y| <= delta sqrt(1 + v_y^2), the reach.

    The layer is one dense (row x tube) block: tube k's rows j0_k + 0..R-1,
    R the most rows of any tube, with the rows past its own masked; the
    block is cut by tube into pieces of at most _PAIR_CHUNK slots.  It needs
    no range expansion and no gathers: every per-tube constant is a
    `_Tubes` column.  A row y meets the r-neighbourhood of the segment in
    one interval (it is convex), the hull of the end balls' chords and of
    the cylinder's chord clipped to the strip 0 <= (P - a).u <= |u|^2.
    With s = y - (a_y + z u_y), A = u_y^2 + 1 and L = |u|, the cylinder's
    chord is, in cell units,
    X = x0 + z dx + (u_x u_y / (A h)) s +- (L / (A h)) sqrt(A r^2 - s^2)
    (the Lagrange identity, as in `gridding._segment_row_spans`).  On a
    clear layer (`_Tubes.clear`) the chord is the whole interval; on the
    others the strip clips it and the end balls that the layer can meet
    (|z| <= edge, |z - 1| <= edge) join it.

    Exactness is `gridding.scanline_runs`' argument: each interval is taken
    at r + slack (outer) and r - slack (inner), with the same slack.  The
    cells of the inner span are accepted whole, and the other cells of the
    outer span get the exact test.  The slack is 1e-9 of the largest
    coordinate plus r + h (about 1e-7 cells at delta = 0.06, h = 0.015),
    while the closed forms round to a few ulps of X and of sqrt(A) r / h
    (about 1e-13 cells there): a cell the test accepts lies inside the outer
    span, and a cell of the inner span lies within r - slack of the segment
    up to rounding, so the test accepts it.  The cells are the same whatever the order of the
    arithmetic.  Every span lies within r + slack of its segment, so inside
    the grid, which pads the segments by delta + 2h; no index is clipped.
    """
    ny = tubes.shape[1]
    h = tubes.h
    yc = tubes.ay + min(max(z, 0.0), 1.0) * tubes.vy
    j0, j1 = _rows_within(yc, yc, tubes.reach, tubes.origin[1], h, ny)
    j0 = np.maximum(j0, 0)
    rows = np.minimum(j1, ny - 1) - j0 + 1
    R = max(int(rows.max()), 1)
    # each tube's first row as the offset s from its axis, and the axis' X
    s0 = tubes.origin[1] + (j0 + 0.5) * h
    s0 -= tubes.ay + z * tubes.uy
    xc = tubes.x0 + z * tubes.dx
    ends = None if clear else [e for e in (0.0, 1.0) if abs(z - e) <= tubes.edge]
    runs = []
    step = max(_PAIR_CHUNK // R, 1)
    for k in range(0, len(j0), step):
        block = slice(k, k + step)
        runs += _tube_block(tubes, block, z, ends, j0[block], rows[block], s0[block], xc[block])
    return union_runs(tubes.shape, *runs)


def _tube_block(tubes, block, z, ends, j0, rows, s0, xc):
    """The runs of the tubes `block` of `tube_layer_runs`, as one (row x
    tube) block (row r of tube k is grid row j0[k] + r): the filled inner
    spans, and the cells of the outer spans that pass the exact test.
    Spans are in cell units; NaN marks a slot whose row misses the tube, so
    the rows past a tube's own are NaN from the start.  `ends` is None on a
    clear layer, else the end balls (0 or 1) that the layer can meet."""
    nx = tubes.shape[0]
    h = tubes.h
    R = max(int(rows.max()), 1)
    S, S2, MID, LO, HI, F_LO, F_HI = tubes.buffers(R, len(j0))
    col = np.arange(R)[:, None]
    np.add(s0, h * col, out=S)
    np.copyto(S, np.nan, where=col >= rows)
    np.multiply(S, S, out=S2)
    np.multiply(S, tubes.slope[block], out=MID)
    MID += xc
    if ends is not None:
        # the strip 0 <= (P - a).u <= |u|^2 as x' u_x in [-m, |u|^2 - m],
        # m = dy u_y + z, dy = y - a_y, x' = x - a_x; in cells from x0
        uy = tubes.uy[block]
        dy = S + z * uy
        m = dy * uy
        m += z
        t_lo, t_hi = _solve_span(-m, tubes.l2[block] - m, tubes.ux[block])
        x0 = tubes.x0[block]
        strip = x0 + t_lo / h, x0 + t_hi / h
    spans = (LO, HI), (F_LO, F_HI)
    with np.errstate(invalid="ignore"):
        for r, (lo, hi) in zip(tubes.radii, spans):
            # the cylinder's chord MID -+ width sqrt(A r^2 - s^2)
            np.subtract(tubes.area[block] * (r * r), S2, out=hi)
            np.sqrt(hi, out=hi)
            hi *= tubes.width[block]
            np.subtract(MID, hi, out=lo)
            hi += MID
            if ends is not None:
                np.maximum(lo, strip[0], out=lo)
                np.minimum(hi, strip[1], out=hi)
                empty = lo > hi
                np.copyto(lo, np.nan, where=empty)
                np.copyto(hi, np.nan, where=empty)
                for end in ends:
                    # the chord of the end ball at (a_x + end u_x, a_y + end u_y, end)
                    ball = r * r - (z - end) ** 2 - (dy - end * uy) ** 2
                    np.sqrt(ball, out=ball)
                    ball /= h
                    cx = x0 + end * tubes.dx[block]
                    np.fmin(lo, cx - ball, out=lo)
                    np.fmax(hi, cx + ball, out=hi)
            np.ceil(lo, out=lo)
            np.floor(hi, out=hi)
        if len(tubes.radii) == 1:  # no inner span: the exact test takes every cell
            F_LO.fill(np.nan)
            F_HI.fill(np.nan)
        fill = F_LO <= F_HI
        # the cells of the outer span beyond the filled one get the exact test
        band = (LO != F_LO) | (HI != F_HI)
        band &= LO <= HI
    width = nx + 1
    line = (j0 + col) * width
    out = [(line[fill] + F_LO[fill].astype(np.int64), line[fill] + F_HI[fill].astype(np.int64) + 1)]
    if band.any():
        slot, i = _band_cells(LO[band], HI[band], F_LO[band], F_HI[band])
        slot_row, slot_tube = np.nonzero(band)
        row = j0[slot_tube[slot]] + slot_row[slot]
        tube = block.start + slot_tube[slot]
        P = np.empty((len(i), 3))
        P[:, 0] = tubes.origin[0] + (i + 0.5) * h
        P[:, 1] = tubes.origin[1] + (row + 0.5) * h
        P[:, 2] = z
        hit = _near(P, tubes.a[tube], tubes.u[tube], tubes.r)
        cell = row[hit] * width + i[hit]
        out.append((cell, cell + 1))
    return out


def tube_union_volume(family: TubeFamily, h: float) -> MeasureEstimate:
    """Grid volume of the union of delta-tubes around the core segments: the
    count of cells whose center is within delta of a segment, times h^3.
    Each layer is counted as the total length of the merged runs of
    `tube_layer_runs`; no plane is built."""
    hits = 0
    for args in _tube_layers(family, h):
        hits += run_cells(tube_layer_runs(*args))
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
