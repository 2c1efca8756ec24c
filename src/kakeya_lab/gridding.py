"""Data-anchored cell grids and the point-segment kernels.

Grids are anchored to the data's bounding box, with padding rounded up to a
whole number of cells, so that rigidly translated data produces identically
translated cell centers.

Every "which points lie within r of a segment" question of the package is
answered with one exact test, `_near`, of segments a -> a + u in the plane
or in R^3, the boundary check `points_near_polyline` included.  A grid row
meets the r-neighbourhood of a segment in one interval (the neighbourhood
is convex), and one step, `_span_runs`, turns such intervals into runs for
both kernels that count cells: the near-loop masks of planar loops
(`scanline_runs`, spans from `_SpanTable`) and the height layers of
`measure`'s tube union (`measure.tube_layer_runs`, the cylinder's chords).
Each kernel gives every (segment, row) slot its interval at r plus and
minus a slack (`_span_slack`) in closed form, in cell units; the chord of
the slab or cylinder about the segment's axis is clipped to the segment's
strip (`_strip`) and joined with the chords of its end balls (`_hull`).
`_span_runs` fills the inner intervals and sends the other cells of the
outer ones through `_near`, which makes the cells exact whatever the
rounding of the closed forms; its docstring gives the argument.  No
(nx, ny) array is built.  A near-loop mask wider than a few segment lengths
(a collar) first tests chains of consecutive segments against two disks
each, coarse chains over every row in reach and their sub-chains only where
a coarse chain reaches past the cells already certain (`_chain_pairs`,
after the hierarchy of Barill et al., "Fast winding numbers for soups and
clouds", SIGGRAPH 2018), and solves exact segment spans only where a
sub-chain still does, at the mask's edge.

Every caller takes its rows by one rule, `_rows_within`: the rows whose
center lies within the reach of a y-interval (a segment's y-range and r
for a mask, a chain's ball for a collar, a tube's section for a tube
layer), widened far above rounding.  No other row holds a cell that the
exact test can accept.

Runs have one format, (first, last): cells [first, last) of one packed line
where cell (i, j) sits at j (nx + 1) + i, with column nx of each row a
padding cell that no run covers.  `merged_runs` makes them disjoint and
sorted, and `line_sums` sums a piecewise-constant function (the rows of a
grid winding field) over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


# (segment, row) or (segment, point) pairs handled at once; bounds the
# temporaries at collar radii
_PAIR_CHUNK = 1 << 15


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and value of every element of the integer ranges [start, start+count)."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, starts[owner] + offset


def _chunks(counts: np.ndarray):
    """Slices [s, e) of the owners whose ranges hold about _PAIR_CHUNK elements."""
    csum = np.cumsum(counts)
    cuts = np.searchsorted(csum, np.arange(_PAIR_CHUNK, csum[-1], _PAIR_CHUNK), side="right")
    # the edges are sorted; drop repeats without np.unique, which imports numpy.ma
    edges = np.r_[0, cuts, len(counts)]
    edges = edges[np.r_[True, edges[1:] != edges[:-1]]]
    return zip(edges[:-1], edges[1:])


def _segments(vertices: np.ndarray):
    """Starts a and steps u ((n, 2) arrays) of a closed planar polyline's
    segments, and each segment's y-range (y0, y1)."""
    a = np.asarray(vertices, dtype=float)
    u = np.roll(a, -1, axis=0) - a
    end = a[:, 1] + u[:, 1]
    return a, u, np.minimum(a[:, 1], end), np.maximum(a[:, 1], end)


def _near(P: np.ndarray, a: np.ndarray, u: np.ndarray, r: float) -> np.ndarray:
    """The exact point-segment test, row by row over (m, d) arrays:
    |P - a - t u|^2 <= r^2 with t = (P - a).u / |u|^2 clipped to [0, 1]
    (t = 0 for a zero-length segment)."""
    rel = P - a
    uu = np.maximum(np.einsum("kd,kd->k", u, u), 1e-300)
    t = np.clip(np.einsum("kd,kd->k", rel, u) / uu, 0.0, 1.0)
    rel -= t[:, None] * u
    return np.einsum("kd,kd->k", rel, rel) <= r * r


def _span_slack(a: np.ndarray, u: np.ndarray, r: float, h: float) -> float:
    """The slack of the closed-form spans around segments a -> a + u at
    radius r on a grid of spacing h: 1e-9 of the largest absolute
    coordinate plus r + h, far above their rounding and far below a cell."""
    return 1e-9 * (max(float(np.abs(a).max()), float(np.abs(a + u).max())) + r + h)


# a segment with |u_y| <= _TILT |u_x| is taken as lying along the rows, and
# one with |u_x| <= _TILT |u_y| as lying along a column (`_SpanTable`)
_TILT = 1e-100


class _SpanTable:
    """The per-segment constants of a near-loop mask's (segment, row) spans,
    made once per mask, and the spans of any (segment, row) pairs (`chords`).

    Segment k runs a -> a + u in the plane, L = |u|.  Positions are in cell
    units: X = (x - o_x)/h - 1/2 along a row, so that the cells of an
    interval [X_lo, X_hi] are ceil(X_lo)..floor(X_hi), and row j lies
    t = j - T rows from the segment's start, T = (a_y - o_y)/h - 1/2.  The
    rho-neighbourhood of the segment is convex, so a row meets it in one
    interval: the hull (`_hull`) of
    - the chord of the slab |(P - a) x u| <= rho L, whose edges are the
      lines at distance rho from the segment's axis:
      x0 + (u_x/u_y) t -+ rho L/(|u_y| h), with x0 = X(a_x);
    - clipped to the strip 0 <= (P - a).u <= L^2 (`_strip`);
    - and the chords of the two end balls, x0 -+ sqrt((rho/h)^2 - t^2) and
      xe -+ sqrt((rho/h)^2 - (t - u_y/h)^2), with xe = X(a_x + u_x).
    The pieces lie in the neighbourhood and together cover it, so the hull
    of their chords is the row's interval.  There is no z term: every
    segment lies in the plane of the cells.

    Three cases have no slope to take:
    - u_y = 0 (|u_y| <= _TILT |u_x|, a zero-length segment included): the
      slab is the band of rows within rho of the segment, and on each of
      them every point between the end balls' chords is within rho (its
      distance is |y - a_y| or that to the nearer end), so the hull of the
      two balls' chords is the whole interval and the slab is left out.
      For 0 < |u_y| <= _TILT |u_x| the segment lies within |u_y| of one
      with u_y = 0, far below the slack.
    - u_x = 0 (|u_x| <= _TILT |u_y|): the strip is the rows from the start
      to the end, 0 <= t u_y/h <= (u_y/h)^2, whole; the slab's chord is
      x0 -+ rho/h.  For 0 < |u_x| <= _TILT |u_y| the strip's edges tilt by
      at most _TILT rho across the slab, far below the slack.
    - a zero-length segment: both balls are the same ball.

    The slab's half-width factor L/(|u_y| h) and slope u_x/u_y are large
    for a segment close to the rows, but the chord's rounding scales with
    them as its change with rho does (rho L/(|u_y| h)): in distance the
    rounding stays a few ulps of the segment's coordinates, far below the
    slack of `_span_slack`, as it does for the strip and the balls.
    """

    def __init__(self, origin, h, a, u, r):
        ox, oy = origin
        self.slack = slack = _span_slack(a, u, r, h)
        # the outer and the inner radius, this one only where it is positive
        radii = np.array([r + slack, r - slack] if r > slack else [r + slack])
        self.balls = ((radii / h) ** 2)[:, None]
        ax, ay = a.T
        ux, uy = u.T
        l2 = ux * ux + uy * uy
        flat = np.abs(uy) <= _TILT * np.abs(ux)
        # rows: x0, T, xe, u_y/h, slope, the strip's tilt and chord offsets,
        # and one slab half-width per radius (NaN: no slab)
        table = np.zeros((8 + len(radii), len(a)))
        table[0] = (ax - ox) / h - 0.5
        table[1] = (ay - oy) / h - 0.5
        table[2] = (ax + ux - ox) / h - 0.5
        table[3] = uy / h
        np.divide(ux, uy, out=table[4], where=~flat)
        steep, table[5:8] = _strip(ux, uy, np.abs(uy), l2, h)
        width = np.full(len(a), np.nan)
        np.divide(np.sqrt(l2), np.abs(uy) * h, out=width, where=~flat)
        np.multiply(radii[:, None], width, out=table[8:])
        self.table = table
        # the segments along a column, whose strip holds only the rows they span
        self.steep = steep & ~flat
        self.any_steep = bool(self.steep.any())

    def chords(self, k, j):
        """The spans (lo, hi), in cell units, of rows j against segments k:
        row 0 at the outer radius, row 1 (where r > slack) at the inner
        one; NaN where a row misses the neighbourhood."""
        cols = np.take(self.table, k, axis=1)
        x0, T, xe, dj, slope, tilt, s_lo, s_hi = cols[:8]
        t = j - T
        xc = slope * t
        xc += x0
        hi = cols[8:]
        lo = xc - hi
        hi += xc
        s = tilt * t
        np.subtract(x0, s, out=s)
        if self.any_steep:
            # a segment along a column has its strip on the rows it spans
            s[self.steep[k] & ((t < np.minimum(dj, 0.0)) | (t > np.maximum(dj, 0.0)))] = np.nan
        s_lo += s
        s_hi += s
        return _hull(lo, hi, s_lo, s_hi, ((x0, self.balls, t), (xe, self.balls, t - dj)))


def _strip(ux, uy, across, l2, h):
    """Per-segment constants of the strip 0 <= (P - a).u <= L^2 (l2 = L^2)
    of segments a -> a + u, whose steps across the columns have norm
    `across` (|u_y| in the plane).  Where |u_x| > _TILT across, a row t rows
    from the segment's start meets the strip in the chord, in cell units,
    x0 - (u_y/u_x) t + [min(0, l), max(0, l)], l = L^2/(u_x h), with x0 as
    in `_SpanTable` (and a layer term in R^3).  Elsewhere the segment lies
    along a column: its strip holds a row whole or not at all, which the
    kernel decides.  Returns that `steep` mask and the rows tilt = u_y/u_x,
    min(0, l) and max(0, l): 0, -inf and inf along a column."""
    steep = np.abs(ux) <= _TILT * across
    cols = np.zeros((3, len(ux)))
    np.divide(uy, ux, out=cols[0], where=~steep)
    np.divide(l2, ux * h, out=cols[1], where=~steep)
    cols[2] = np.where(steep, np.inf, np.maximum(cols[1], 0.0))
    cols[1] = np.where(steep, -np.inf, np.minimum(cols[1], 0.0))
    return steep, cols


def _hull(lo, hi, s_lo, s_hi, ends):
    """Spans (lo, hi), in cell units, of the slab or cylinder about a
    segment's axis, clipped in place to the strip's chord [s_lo, s_hi] (NaN:
    the row misses the strip) and joined with the chords of the end balls:
    for each end (cx, b, d), the chord cx -+ sqrt(b - d^2) of a ball whose
    centre is d rows away, b its squared radius in cells (less its layer's
    term in R^3), NaN where it misses the row.  The result is NaN where the
    hull is empty."""
    np.maximum(lo, s_lo, out=lo)
    np.minimum(hi, s_hi, out=hi)
    with np.errstate(invalid="ignore"):
        empty = ~(lo <= hi)
        lo[empty] = np.nan
        hi[empty] = np.nan
        for cx, b, d in ends:
            q = b - d * d
            np.sqrt(q, out=q)
            np.fmin(lo, cx - q, out=lo)
            q += cx
            np.fmax(hi, q, out=hi)
    return lo, hi


def _cells(lo, hi, nx):
    """Spans (lo, hi) in cell units as their first and last cell, ceil(lo)
    and floor(hi), clipped to the row's cells 0..nx - 1; in place, as
    floats, with NaN (no cell) kept."""
    np.ceil(lo, out=lo)
    np.maximum(lo, 0.0, out=lo)
    np.floor(hi, out=hi)
    return lo, np.minimum(hi, nx - 1, out=hi)


def _cell_index(x: np.ndarray, origin: float, h: float, n: int, rounding) -> np.ndarray:
    """First (rounding=np.ceil) or last (np.floor) cell whose center is at or
    beyond / at or before x, clipped just outside [0, n - 1]."""
    t = x - origin
    t /= h
    t -= 0.5
    rounding(t, out=t)
    return np.clip(t, -2, n + 1, out=t).astype(np.int64)


def _rows_within(lo, hi, reach, origin: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last row (j0, j1) whose center origin + (j + 1/2) h lies
    within `reach` of the y-interval [lo, hi], widened far above rounding:
    each end y moves out by reach + 1e-9 (reach + |y|).  An empty range has
    j0 > j1; both are clipped just outside [0, n - 1] as `_cell_index` clips.

    It is exact for every caller.  A cell that `_near` accepts at radius r
    has its center within r of a point of the segment, whose y lies in the
    segment's y-range, so the center's y is within r of that range: no row
    outside the widened interval holds such a cell.  The same holds for a
    chain's ball (`_chain_pairs`) and a tube's section
    (`measure.tube_layer_runs`) with their own reach; the widening covers
    the rounding of the centers, of the distance test and of `_cell_index`.
    """
    j0 = _cell_index(lo - _widened(reach, lo), origin, h, n, np.ceil)
    j1 = _cell_index(hi + _widened(reach, hi), origin, h, n, np.floor)
    return j0, j1


def _widened(reach, y):
    """`reach` about y, widened far above rounding: reach + 1e-9 (reach + |y|)."""
    return reach + 1e-9 * (reach + np.abs(y))


def scanline_runs(shape, origin, h, j0, j1, a, u, r, chain: int = 1):
    """The cells of the grid whose center P = (x, y) passes the exact test
    `_near` against any of the planar segments a[k] -> a[k] + u[k] ((n, 2)
    arrays) at radius r, as the disjoint sorted runs (first, last) of
    `merged_runs`.

    Segment k may reach grid rows j0[k]..j1[k] (a superset; clipped here).
    The spans of its (segment, row) pairs come from `_SpanTable`, and
    `_span_runs` turns them into runs.  The cost is proportional to the
    pairs; they are handled in chunks of _PAIR_CHUNK.  With chain > 1 the
    segments must be the consecutive segments of a polyline, and the pairs
    are first pruned by `_chain_pairs`; the cells accepted are the same.
    """
    ny = shape[1]
    table = _SpanTable(origin, h, a, u, r)
    j0 = np.maximum(j0, 0)
    rows = np.maximum(np.minimum(j1, ny - 1) - j0 + 1, 0)
    runs = []
    if chain > 1:
        certain, pairs = _chain_pairs(shape, origin, h, j0, rows, a, u, r, table.slack, chain)
        runs.append(certain)
    else:
        pairs = _segment_pairs(j0, rows)
    for k, j in pairs:
        runs += _span_runs(shape, origin, h, *_cells(*table.chords(k, j), shape[0]), j, k, a, u, r)
    return union_runs(shape, *runs)


def _span_runs(shape, origin, h, lo, hi, row, seg, a, u, r, trail=()):
    """The runs (first, last) of the cells that pass the exact test `_near` at
    radius r, from the spans of (segment, row) slots as their first and last
    cell in the row (floats; ceil and floor of the ends in cell units,
    clipped to the row where a span may leave it): lo and hi hold, along
    their first axis, the outer spans, taken at r + slack (`_span_slack`),
    and, where r > slack, the inner ones at r - slack; NaN marks a slot
    without a span.  row holds each slot's grid row, in a span's shape, and
    seg its segment a[seg] -> a[seg] + u[seg], broadcast against that shape.
    trail holds the coordinates of the test points after (x, y), the same
    for every slot (a tube layer's height; none in the plane).  Returns a
    list of runs for `union_runs`.

    The cells of the inner span are accepted whole, and the other cells of
    the outer span get the exact test.  That is exact: the slack is far
    above the rounding of the kernels' closed-form spans and of the test,
    and far below a cell, so a cell the test accepts lies within r of the
    segment up to rounding, thus inside the outer span, and a cell of the
    inner span lies within r - slack, where the test accepts it.  Where r <=
    slack there is no inner span and the test takes every cell.  The cells
    are the same whatever the order of the kernels' arithmetic.
    """
    o_lo, o_hi = lo[0], hi[0]
    f_lo, f_hi = (lo[1], hi[1]) if len(lo) > 1 else (np.full_like(o_lo, np.nan),) * 2
    seg = np.broadcast_to(seg, o_lo.shape)
    width = shape[0] + 1
    fill = f_lo <= f_hi
    line = row[fill] * width
    runs = [(line + f_lo[fill].astype(np.int64), line + f_hi[fill].astype(np.int64) + 1)]
    # exact test on the outer span minus the filled one; a slot whose spans
    # agree has no such cell
    band = (o_lo <= o_hi) & ((o_lo != f_lo) | (o_hi != f_hi))
    slot, i = _band_cells(o_lo[band], o_hi[band], f_lo[band], f_hi[band])
    j = row[band][slot]
    k = seg[band][slot]
    P = np.empty((len(i), 2 + len(trail)))
    P[:, 0] = origin[0] + (i + 0.5) * h
    P[:, 1] = origin[1] + (j + 0.5) * h
    P[:, 2:] = trail
    hit = _near(P, a[k], u[k], r)
    cell = j[hit] * width + i[hit]
    runs.append((cell, cell + 1))
    return runs


def _band_cells(o_lo, o_hi, f_lo, f_hi):
    """The cells of each outer span [o_lo, o_hi] outside its filled span
    [f_lo, f_hi] (none filled where f_lo > f_hi or either is NaN), as
    (span, cell) pairs: the ranges [o_lo, left] and [right, o_hi]."""
    fill = f_lo <= f_hi
    left = np.where(fill, np.minimum(f_lo - 1, o_hi), o_hi)
    right = np.where(fill, np.maximum(f_hi + 1, o_lo), o_hi + 1)
    starts = np.concatenate([o_lo, right]).astype(np.int64, copy=False)
    counts = np.maximum(np.concatenate([left - o_lo, o_hi - right]) + 1, 0).astype(np.int64, copy=False)
    span, i = _ranges(starts, counts)
    return span % max(len(o_lo), 1), i  # left and right ranges of the same span


def _segment_pairs(j0, rows):
    """The (segment, row) pairs (k, j) with j0[k] <= j < j0[k] + rows[k], in
    chunks of about _PAIR_CHUNK pairs."""
    for s, e in _chunks(rows):
        k, j = _ranges(j0[s:e], rows[s:e])
        k += s
        yield k, j


# the chain lengths of `_chain_pairs`' levels, coarse to fine, as multiples
# of the finest; each divides the one before it
_CHAIN_LEVELS = (4, 1)


def _chain_pairs(shape, origin, h, j0, rows, a, u, r, slack, chain):
    """Prune the (segment, row) pairs of a polyline's consecutive planar
    segments a[k] -> a[k] + u[k] at radius r, level by level.  Returns the
    certain chords as merged runs (first, last) and the (segment, row) pairs
    left over, as `_segment_pairs` yields them.

    At each level of _CHAIN_LEVELS the segments are cut into chains of
    consecutive segments, `chain` segments times the level's multiple.  A
    chain has centre c, the midpoint of its bounding box, and radius rho,
    the largest distance from c to its vertices, end vertex included; the
    disk (c, rho) holds the vertices and, being convex, the whole chain.  In
    each row the certain chord of the disk (c, r - rho - 2 slack) holds only
    cells within r - slack of every point of the chain, which the exact test
    accepts, and the outer chord of (c, r + rho + slack) holds every cell
    within r + slack of a point of the chain, so every cell the test can
    accept for one of its segments (the slack, as in `scanline_runs`, is far
    above rounding error).  A (chain, row) pair whose outer chord lies in one
    merged run of certain chords adds nothing and is dropped.

    The coarsest level takes every chain over the rows of `_rows_within` for
    its centre's y and the outer radius: a row beyond them misses the outer
    disk, so its outer chord would be empty and the pair dropped.  Each
    finer level takes only the pairs its coarser level kept, each chain
    split into its sub-chains at the same row; their certain chords join the
    runs before they are tested.  That is exact: every cell a sub-chain, or
    one of its segments, can add on a row lies in the outer chord of its
    chain, which lies in the certain runs when the coarser pair is dropped.
    The finest level's pairs expand into their segments' (segment, row)
    pairs.  The mask is the same as from all the (segment, row) pairs.
    Chords are in cell units, as in `_SpanTable`.
    """
    nx, ny = shape
    certain = (np.zeros(0, dtype=np.int64),) * 2
    coarser = None
    for level in _CHAIN_LEVELS:
        first, size, c, rho = _chain_disks(a, u, level * chain)
        if coarser is None:
            cj0, cj1 = _rows_within(c[:, 1], c[:, 1], r + rho + slack, origin[1], h, ny)
            cj0 = np.maximum(cj0, 0)
            cc, j = _ranges(cj0, np.maximum(np.minimum(cj1, ny - 1) - cj0 + 1, 0))
        else:
            # the sub-chains cc * ratio .. of each chain kept, at its row
            ratio = coarser // level
            cc *= ratio
            pair, cc = _ranges(cc, np.minimum(len(first) - cc, ratio))
            j = j[pair]
        coarser = level
        # outer (row 0) and certain (row 1) radius of each chain
        radius = np.array([[1.0], [-1.0]]) * rho + np.array([[r + slack], [r - 2.0 * slack]])
        lo, hi = _disk_cells(shape, origin, h, c, radius, cc, j)
        line = j * (nx + 1)
        sure = lo[1] <= hi[1]
        certain = union_runs(shape, certain, (line[sure] + lo[1][sure].astype(np.int64),
                                              line[sure] + hi[1][sure].astype(np.int64) + 1))
        # a pair is done when its outer chord is empty or inside the merged run
        # of certain chords that holds its first cell
        keep = np.flatnonzero(lo[0] <= hi[0])
        m_first, m_last = certain
        if len(m_first):
            o_lo = line[keep] + lo[0][keep].astype(np.int64)
            o_hi = line[keep] + hi[0][keep].astype(np.int64)
            at = np.maximum(np.searchsorted(m_first, o_lo, side="right") - 1, 0)
            keep = keep[(m_first[at] > o_lo) | (m_last[at] <= o_hi)]
        cc, j = cc[keep], j[keep]
    return certain, _chain_segment_pairs(first[cc], size[cc], j, j0, rows)


def _disk_cells(shape, origin, h, c, radius, cc, j):
    """The cells of row j[m] within radius[:, cc[m]] of centre c[cc[m]], as
    float cell indices (first, last) clipped to the row, one row of each
    per row of radius; NaN where the row misses the disk or the radius is
    not positive.  In cell units, as in `_SpanTable`."""
    # per disk: the centre's X and row, and each radius squared, in cells
    disks = np.empty((2 + len(radius), len(c)))
    disks[:2] = ((c - origin) / h - 0.5).T
    np.divide(radius, h, out=disks[2:])
    disks[2:] **= 2
    disks[2:][radius <= 0.0] = np.nan
    cx, cy, *_ = cols = np.take(disks, cc, axis=1)
    cy -= j
    cy *= cy
    q = cols[2:]
    q -= cy
    with np.errstate(invalid="ignore"):
        np.sqrt(q, out=q)
    lo = cx - q
    q += cx
    return _cells(lo, q, shape[0])


def _chain_disks(a, u, chain):
    """First segment, segment count, centre c and radius rho of each chain
    of `chain` consecutive segments a[k] -> a[k] + u[k]: c is the midpoint
    of the bounding box of the chain's vertices, end vertex included, and
    rho the largest distance from c to one of them."""
    first = np.arange(0, len(a), chain)
    size = np.diff(np.r_[first, len(a)])
    end = a[first + size - 1] + u[first + size - 1]
    c = 0.5 * (np.minimum(np.minimum.reduceat(a, first), end) + np.maximum(np.maximum.reduceat(a, first), end))
    rel = a - np.repeat(c, size, axis=0)
    rho2 = np.maximum(np.maximum.reduceat(np.einsum("kd,kd->k", rel, rel), first),
                      np.einsum("kd,kd->k", end - c, end - c))
    return first, size, c, np.sqrt(rho2)


def _chain_segment_pairs(first, size, rows_of, j0, rows):
    """The (segment, row) pairs of the (chain, row) pairs left by
    `_chain_pairs`: chain segments first..first + size - 1 at row rows_of,
    kept where the segment's own row range j0[k] <= j < j0[k] + rows[k]
    holds the row; in chunks of about _PAIR_CHUNK pairs."""
    if not len(size):  # every pair pruned: one empty chunk, as the loop expects
        yield first, rows_of
        return
    for s, e in _chunks(size):
        pair, k = _ranges(first[s:e], size[s:e])
        j = rows_of[s:e][pair]
        keep = (j0[k] <= j) & (j < j0[k] + rows[k])
        yield k[keep], j[keep]


def run_keys_fit(shape) -> bool:
    """Whether the runs of an (nx, ny) grid pack into `merged_runs`' int64
    keys: (nx + 1)^2 ny < 2^63.  A float shape past int64, or not finite,
    does not fit."""
    nx, ny = shape
    return nx < 2**63 and ny < 2**63 and (int(nx) + 1) ** 2 * int(ny) < 1 << 63


def merged_runs(shape, first, last) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint runs (first, last), sorted, covering the same cells as the
    given non-empty runs, cells [first, last) of the packed line where cell
    (i, j) of an (nx, ny) grid sits at j (nx + 1) + i; no run covers a
    row's padding cell, column nx, so touching runs merge and no merged run
    leaves its row.

    The runs are sorted as one int64 key first (nx + 1) + (last - first),
    the length being at most nx, and a running maximum of the ends along
    the sorted runs merges them.  Shapes whose keys would not fit
    (`run_keys_fit`) raise ValueError before anything is sorted.
    """
    nx, ny = shape
    if not run_keys_fit(shape):
        raise ValueError(f"a {nx} x {ny} grid is too large for packed int64 run keys")
    width = int(nx) + 1
    first = np.asarray(first, np.int64)
    first, length = np.divmod(np.sort(first * width + (last - first)), width)
    last = np.maximum.accumulate(first + length)
    # a run opens a merged run when it starts beyond every end before it
    opens = np.ones(len(first), dtype=bool)
    opens[1:] = first[1:] > last[:-1]
    closes = np.ones(len(first), dtype=bool)
    closes[:-1] = opens[1:]
    return first[opens], last[closes]


def union_runs(shape, *runs) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint sorted runs of `merged_runs` covering the cells of every
    set of runs (first, last) given."""
    return merged_runs(shape, *(np.concatenate(x) for x in zip(*runs)))


def run_cells(runs) -> int:
    """The cell count of disjoint runs (first, last)."""
    first, last = runs
    return int(np.sum(last - first))


def line_sums(at, level, first, last) -> int:
    """Exact sum over the cells of the runs (first, last) of `merged_runs` of
    the integer function that is level[m] on [at[m], at[m + 1]) of the
    packed line and 0 before at[0] (at sorted, repeats allowed).  The sum over [0, x) is the sum up to the last step at
    or before x, plus that step's level times the distance to it."""
    area = np.zeros(len(at) + 1, dtype=np.int64)
    np.cumsum(level[:-1] * np.diff(at), out=area[2:])
    ends = np.concatenate([first, last])
    m = np.searchsorted(at, ends, side="right")
    below = area[m] + np.r_[0, level][m] * (ends - np.r_[0, at][m])
    return int(below[len(first):].sum() - below[:len(first)].sum())


def mark_near_polyline(grid: CellGrid, vertices: np.ndarray, tol: float):
    """The grid cells whose center is within tol of the closed polyline, as
    the disjoint sorted runs (first, last) of `merged_runs`: the cells
    `scanline_runs` accepts for its segments, each given the rows of
    `_rows_within` for its y-range and tol, with the pairs pruned chain by
    chain (`_chain_pairs`).  A chain at the finest level has arc length
    about tol/4, so below a few segment lengths every chain is one segment
    and nothing is pruned."""
    a, u, y0, y1 = _segments(vertices)
    j0, j1 = _rows_within(y0, y1, tol, grid.origin[1], grid.h, grid.shape[1])
    arc = float(np.sqrt(np.einsum("kd,kd->k", u, u)).sum())
    chain = len(u) if 4.0 * arc <= tol else max(1, int(tol * len(u) / (4.0 * arc)))
    return scanline_runs(grid.shape, grid.origin, grid.h, j0, j1, a, u, tol, chain)


def points_near_polyline(points: np.ndarray, vertices: np.ndarray, tol: float) -> bool:
    """Whether any point lies within tol of the closed polyline (the exact
    test `_near`).  Points are sorted by y, and each segment is tested only
    against the points whose y is within tol of its y-range, widened as
    `_rows_within` widens it: a point on the tol boundary is tested even
    where y1 + tol rounds below its y."""
    pts = np.asarray(points, dtype=float)
    P = pts[np.argsort(pts[:, 1])]
    a, u, y0, y1 = _segments(vertices)
    first = np.searchsorted(P[:, 1], y0 - _widened(tol, y0), side="left")
    counts = np.searchsorted(P[:, 1], y1 + _widened(tol, y1), side="right") - first
    for s, e in _chunks(counts):
        seg, rank = _ranges(first[s:e], counts[s:e])
        seg += s
        if np.any(_near(P[rank], a[seg], u[seg], tol)):
            return True
    return False
