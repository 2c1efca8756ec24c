"""Data-anchored cell grids and the point-segment kernels.

Grids are anchored to the data's bounding box, with padding rounded up to a
whole number of cells, so that rigidly translated data produces identically
translated cell centers.

Every "which points lie within r of a segment" question of the package is
asked here, of segments a -> a + u in R^3 (planar data in z = 0), with one
exact test, `_near`: the scanline runs of `scanline_runs` (near-loop masks,
and `measure`'s tube layers) and the boundary checks of
`points_near_polyline`.  No (nx, ny) array is built.  Where every plane of
a call is clear of its segments' end balls (tube layers away from the tube
ends), a row's span is the cylinder's chord alone (`_clear_of_ends`).  A
near-loop mask wider than a few segment lengths (a collar) first tests
chains of consecutive segments against two disks each (`_chain_pairs`,
after Barill et al., "Fast winding numbers for soups and clouds", SIGGRAPH
2018), and solves exact segment spans only where a chain reaches past the
cells already certain, at the mask's edge.

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
    """Starts a and steps u of a closed planar polyline's segments, in z = 0,
    and each segment's y-range (y0, y1)."""
    v = np.asarray(vertices, dtype=float)
    a = np.zeros((len(v), 3))
    a[:, :2] = v
    u = np.roll(a, -1, axis=0) - a
    return a, u, np.minimum(a[:, 1], a[:, 1] + u[:, 1]), np.maximum(a[:, 1], a[:, 1] + u[:, 1])


def _near(P: np.ndarray, a: np.ndarray, u: np.ndarray, r: float) -> np.ndarray:
    """The exact point-segment test, row by row over (m, 3) arrays:
    |P - a - t u|^2 <= r^2 with t = (P - a).u / |u|^2 clipped to [0, 1]
    (t = 0 for a zero-length segment)."""
    rel = P - a
    uu = np.maximum(np.einsum("kd,kd->k", u, u), 1e-300)
    t = np.clip(np.einsum("kd,kd->k", rel, u) / uu, 0.0, 1.0)
    rel -= t[:, None] * u
    return np.einsum("kd,kd->k", rel, rel) <= r * r


def _solve_span(lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval of x with lo <= x*c <= hi, for lo <= hi; an empty one is
    (inf, -inf).  Where c != 0 the ends are lo/c and hi/c, in the order of
    c's sign, which the rounding keeps."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = lo / c
        b = hi / c
    x_lo = np.minimum(a, b)
    x_hi = np.maximum(a, b)
    flat = c == 0.0
    if flat.any():
        whole = (lo <= 0.0) & (hi >= 0.0)
        x_lo = np.where(flat, np.where(whole, -np.inf, np.inf), x_lo)
        x_hi = np.where(flat, np.where(whole, np.inf, -np.inf), x_hi)
    return x_lo, x_hi


def _clear_of_ends(r, dz, uz) -> bool:
    """Whether every plane z = a_z + dz of a call lies strictly between the
    end balls of its segment, at every radius of r, by a margin far above
    rounding: r_out < dz sgn(u_z) < |u_z| - r_out, with r_out the largest
    radius plus the margin, 1e-9 of that radius and of the largest |u_z|.

    Write P - a = t u + w with w perpendicular to u; a point of the cylinder
    has |w| <= r, so at height z, |t u_z - dz| <= r.  Under the test every
    such point has 0 < t < 1, and |dz| and |dz - u_z| exceed r: neither end
    ball meets the plane and the strip clip cannot bind.  A planar segment
    (u_z = 0) never passes.
    """
    if not len(uz):
        return False
    top = np.abs(uz)
    edge = float(np.max(r)) * (1.0 + 1e-9) + 1e-9 * float(top.max())
    s = dz * np.sign(uz)
    return bool(s.min() > edge) and bool(np.all(s < top - edge))


def _segment_row_spans(r, py, z, a, u) -> tuple[np.ndarray, np.ndarray]:
    """x-extent of each row (the line y = py in the plane at height z) within
    r of its segment a -> a + u; a and u are given as their three columns
    (x, y, z), each of one value per row, and r may be a column of radii,
    one output row each.

    The r-neighbourhood is convex, so the extent is one interval: the union
    of the chords of the two end balls and of the cylinder
    |(P - a) x u| <= r |u|, clipped to the strip 0 <= (P - a).u <= |u|^2.
    With P - a = (x', dy, dz), A = u_y^2 + u_z^2, m = dy u_y + dz u_z and
    c = dy u_z - dz u_y, the Lagrange identity |d|^2 |u|^2 - (d.u)^2 =
    |d x u|^2 puts the cylinder's edges at x' = (u_x m +- L sqrt(A r^2 - c^2)) / A,
    L = |u|, with no cancellation under the root.  For A = 0 (u along the
    rows) the cylinder holds the whole row or none of it; a zero-length
    segment has no cylinder.  An empty span is (inf, -inf).

    When every plane of the call is clear of its segment's ends
    (`_clear_of_ends`), the span is the cylinder's chord alone, computed in
    the same order, so the result is the same to the bit.
    """
    ax, ay, az = a
    ux, uy, uz = u
    dy = py - ay
    dz = z - az
    rr = r * r
    # in place, term by term: area = u_y^2 + u_z^2, l2 = area + u_x^2,
    # m = dy u_y + dz u_z, c = dy u_z - dz u_y, e = area r^2 - c^2 and
    # root = sqrt(l2 max(e, 0))
    area = uy * uy
    area += uz * uz
    l2 = ux * ux
    l2 += area
    m = dy * uy
    m += dz * uz
    c = dy * uz
    c -= dz * uy
    e = area * rr
    e -= c * c
    root = np.maximum(e, 0.0)
    root *= l2
    np.sqrt(root, out=root)
    mid = ux * m
    with np.errstate(divide="ignore", invalid="ignore"):
        x_lo = mid - root
        x_lo /= area
        x_hi = np.add(mid, root, out=root)
        x_hi /= area
    inside = e >= 0.0
    clear = _clear_of_ends(r, dz, uz)
    if not clear:
        flat = area == 0.0
        if flat.any():
            x_lo = np.where(flat, -np.inf, x_lo)
            x_hi = np.where(flat, np.inf, x_hi)
            inside = np.where(flat, dy * dy + dz * dz <= rr, inside)
        t_lo, t_hi = _solve_span(-m, l2 - m, ux)
        np.maximum(x_lo, t_lo, out=x_lo)
        np.minimum(x_hi, t_hi, out=x_hi)
    x_lo += ax
    x_hi += ax
    # the cylinder's chord, empty where the row misses it
    out = ~inside if clear else ~(inside & (l2 > 0.0) & (x_lo <= x_hi))
    x_lo[out] = np.inf
    x_hi[out] = -np.inf
    if clear:
        return x_lo, x_hi
    lo = np.full(e.shape, np.inf)
    hi = np.full(e.shape, -np.inf)
    for cx, ey, ez in ((ax, dy, dz), (ax + ux, dy - uy, dz - uz)):
        # the end ball's chord cx -+ sqrt(r^2 - ey^2 - ez^2), where the root is real
        q = rr - ey * ey
        q -= ez * ez
        miss = q < 0.0
        half = np.maximum(q, 0.0, out=q)
        np.sqrt(half, out=half)
        end = cx - half
        end[miss] = np.inf
        np.minimum(lo, end, out=lo)
        np.add(cx, half, out=end)
        end[miss] = -np.inf
        np.maximum(hi, end, out=hi)
    return np.minimum(lo, x_lo, out=lo), np.maximum(hi, x_hi, out=hi)


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
    chain's ball (`_chain_pairs`) and a tube's section (`_tube_layers`)
    with their own reach; the widening covers the rounding of the centers,
    of the distance test and of `_cell_index`.
    """
    j0 = _cell_index(lo - _widened(reach, lo), origin, h, n, np.ceil)
    j1 = _cell_index(hi + _widened(reach, hi), origin, h, n, np.floor)
    return j0, j1


def _widened(reach, y):
    """`reach` about y, widened far above rounding: reach + 1e-9 (reach + |y|)."""
    return reach + 1e-9 * (reach + np.abs(y))


def scanline_runs(shape, origin, h, j0, j1, z, a, u, r, chain: int = 1):
    """The cells of the plane at height z whose center P = (x, y, z) passes
    the exact test `_near` against any of the segments a[k] -> a[k] + u[k]
    ((n, 3) arrays) at radius r, as the disjoint sorted runs (first, last)
    of `merged_runs`.

    Segment k may reach grid rows j0[k]..j1[k] (a superset; clipped here).
    Each row meets a segment's r-neighbourhood in one interval
    (`_segment_row_spans`), taken at r + slack (outer span) and r - slack
    (inner span), the slack far above rounding error and far below a cell.
    The cells of the inner span are accepted whole, and the other cells of
    the outer span get the exact test.  That is exact: a cell the test
    accepts lies within r of the segment up to rounding, so inside the outer
    span, and a cell of the inner span lies within r - slack, so the test
    accepts it.  The cost is proportional to the (segment, row) pairs; they
    are handled in chunks of _PAIR_CHUNK.  With chain > 1 the segments must
    be the consecutive segments of a polyline, and the pairs are first
    pruned by `_chain_pairs`; the cells accepted are the same.
    """
    nx, ny = shape
    ox, oy = origin
    width = nx + 1
    slack = 1e-9 * (max(float(np.abs(a).max()), float(np.abs(a + u).max())) + r + h)
    # outer and inner radius as a column, broadcast over the (segment, row) pairs
    radii = np.array([[r + slack], [r - slack]]) if r > slack else np.array([[r + slack]])
    j0 = np.maximum(j0, 0)
    rows = np.maximum(np.minimum(j1, ny - 1) - j0 + 1, 0)
    runs = []
    if chain > 1:
        certain, pairs = _chain_pairs(shape, origin, h, j0, rows, z, a, u, r, slack, chain)
        runs.append(certain)
    else:
        pairs = _segment_pairs(j0, rows)
    # the spans read the segments by column, each gathered on its own
    columns = [np.ascontiguousarray(x) for x in (*a.T, *u.T)]
    for k, j in pairs:
        py = oy + (j + 0.5) * h
        ax, ay, az, ux, uy, uz = (x[k] for x in columns)
        lo, hi = _segment_row_spans(radii, py, z, (ax, ay, az), (ux, uy, uz))
        o_lo = np.maximum(_cell_index(lo, ox, h, nx, np.ceil), 0)
        o_hi = np.minimum(_cell_index(hi, ox, h, nx, np.floor), nx - 1)
        if len(lo) > 1:
            (o_lo, f_lo), (o_hi, f_hi) = o_lo, o_hi
        else:
            (o_lo,), (o_hi,) = o_lo, o_hi
            f_lo = np.ones_like(o_lo)
            f_hi = np.zeros_like(o_hi)
        fill = f_lo <= f_hi
        line = j[fill] * width
        runs.append((line + f_lo[fill], line + f_hi[fill] + 1))
        # exact test on the outer span minus the filled one, [o_lo, left] and
        # [right, o_hi]; a pair whose spans agree has no such cell
        band = np.flatnonzero((o_lo != f_lo) | (o_hi != f_hi))
        o_lo, o_hi, f_lo, f_hi = o_lo[band], o_hi[band], f_lo[band], f_hi[band]
        fill = fill[band]
        left = np.where(fill, np.minimum(f_lo - 1, o_hi), o_hi)
        right = np.where(fill, np.maximum(f_hi + 1, o_lo), o_hi + 1)
        starts = np.concatenate([o_lo, right])
        counts = np.maximum(np.concatenate([left - o_lo, o_hi - right]) + 1, 0)
        pair, i = _ranges(starts, counts)
        pair = band[pair % max(len(band), 1)]  # left and right ranges of the same pair
        P = np.empty((len(i), 3))
        P[:, 0] = ox + (i + 0.5) * h
        P[:, 1] = py[pair]
        P[:, 2] = z
        seg = k[pair]
        hit = _near(P, a[seg], u[seg], r)
        cell = j[pair[hit]] * width + i[hit]
        runs.append((cell, cell + 1))
    return union_runs(shape, *runs)


def _segment_pairs(j0, rows):
    """The (segment, row) pairs (k, j) with j0[k] <= j < j0[k] + rows[k], in
    chunks of about _PAIR_CHUNK pairs."""
    for s, e in _chunks(rows):
        k, j = _ranges(j0[s:e], rows[s:e])
        k += s
        yield k, j


def _chain_pairs(shape, origin, h, j0, rows, z, a, u, r, slack, chain):
    """Prune the (segment, row) pairs of a polyline's consecutive segments
    a[k] -> a[k] + u[k] at radius r, chain by chain.  Returns the certain
    chords as merged runs (first, last) and the (segment, row) pairs left
    over, as `_segment_pairs` yields them.

    The segments are cut into chains of `chain` consecutive segments.  A
    chain has centre c, the midpoint of its bounding box, and radius rho,
    the largest distance from c to its vertices, end vertex included; the
    ball (c, rho) holds the vertices and, being convex, the whole chain.
    In each row the certain chord of the ball (c, r - rho - 2 slack) holds
    only cells within r - slack of every point of the chain, which the exact
    test accepts, and the outer chord of (c, r + rho + slack) holds every
    cell within r + slack of a point of the chain, so every cell the test
    can accept for one of its segments (the slack, as in `scanline_runs`,
    is far above rounding error).  A (chain, row) pair whose outer chord
    lies in one merged run of certain chords adds nothing and is dropped;
    the others expand into their segments' (segment, row) pairs.  The mask
    is the same as from all the (segment, row) pairs.

    A chain gets the rows of `_rows_within` for its centre's y and the outer
    radius: a row beyond them misses the outer ball, so its outer chord
    would be empty and the pair dropped.
    """
    nx, ny = shape
    ox, oy = origin
    first, size, c, rho = _chain_disks(a, u, chain)
    radii = r + np.array([[1.0], [-1.0]]) * rho + np.array([[slack], [-2.0 * slack]])
    cj0, cj1 = _rows_within(c[:, 1], c[:, 1], radii[0], oy, h, ny)
    cj0 = np.maximum(cj0, 0)
    cc, j = _ranges(cj0, np.maximum(np.minimum(cj1, ny - 1) - cj0 + 1, 0))
    # outer (row 0) and certain (row 1) chords of each (chain, row) pair
    radius = radii[:, cc]
    q = radius * radius - (oy + (j + 0.5) * h - c[cc, 1]) ** 2 - (z - c[cc, 2]) ** 2
    half = np.sqrt(np.maximum(q, 0.0))
    cut = (q >= 0.0) & (radius > 0.0)
    lo = np.maximum(_cell_index(np.where(cut, c[cc, 0] - half, np.inf), ox, h, nx, np.ceil), 0)
    hi = np.minimum(_cell_index(np.where(cut, c[cc, 0] + half, -np.inf), ox, h, nx, np.floor), nx - 1)
    line = j * (nx + 1)
    sure = lo[1] <= hi[1]
    certain = m_first, m_last = merged_runs(shape, line[sure] + lo[1][sure], line[sure] + hi[1][sure] + 1)
    # a pair is done when its outer chord is empty or inside the merged run
    # of certain chords that holds its first cell
    done = lo[0] > hi[0]
    if len(m_first):
        at = np.maximum(np.searchsorted(m_first, line + lo[0], side="right") - 1, 0)
        done |= (m_first[at] <= line + lo[0]) & (m_last[at] > line + hi[0])
    cc, j = cc[~done], j[~done]
    return certain, _chain_segment_pairs(first[cc], size[cc], j, j0, rows)


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


def _near_polyline(grid: CellGrid, vertices: np.ndarray, tol: float, chain: int | None = None):
    """`mark_near_polyline` with the pairs pruned in chains of `chain`
    segments.  By default a chain has arc length about tol/4, so below a few
    segment lengths every chain is one segment and nothing is pruned.  Each
    segment gets the rows of `_rows_within` for its y-range and tol."""
    a, u, y0, y1 = _segments(vertices)
    oy, ny = grid.origin[1], grid.shape[1]
    j0, j1 = _rows_within(y0, y1, tol, oy, grid.h, ny)
    if chain is None:
        arc = float(np.sqrt(np.einsum("kd,kd->k", u, u)).sum())
        chain = len(u) if 4.0 * arc <= tol else max(1, int(tol * len(u) / (4.0 * arc)))
    return scanline_runs(grid.shape, grid.origin, grid.h, j0, j1, 0.0, a, u, tol, chain)


def mark_near_polyline(grid: CellGrid, vertices: np.ndarray, tol: float):
    """The grid cells whose center is within tol of the closed polyline, as
    the disjoint sorted runs (first, last) of `merged_runs`: the
    cells `scanline_runs` accepts for its segments in the plane z = 0, with
    the pairs pruned chain by chain (`_chain_pairs`)."""
    return _near_polyline(grid, vertices, tol)


def points_near_polyline(points: np.ndarray, vertices: np.ndarray, tol: float) -> bool:
    """Whether any point lies within tol of the closed polyline (the exact
    test `_near`).  Points are sorted by y, and each segment is tested only
    against the points whose y is within tol of its y-range, widened as
    `_rows_within` widens it: a point on the tol boundary is tested even
    where y1 + tol rounds below its y."""
    pts = np.asarray(points, dtype=float)
    P = np.zeros((len(pts), 3))
    P[:, :2] = pts[np.argsort(pts[:, 1])]
    a, u, y0, y1 = _segments(vertices)
    first = np.searchsorted(P[:, 1], y0 - _widened(tol, y0), side="left")
    counts = np.searchsorted(P[:, 1], y1 + _widened(tol, y1), side="right") - first
    for s, e in _chunks(counts):
        seg, rank = _ranges(first[s:e], counts[s:e])
        seg += s
        if np.any(_near(P[rank], a[seg], u[seg], tol)):
            return True
    return False
