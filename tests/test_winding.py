import numpy as np
import pytest

from kakeya_lab.gridding import CellGrid, grid_over
from kakeya_lab.maps import make_map
from kakeya_lab.slices import slice_loop
from kakeya_lab.sphere import sample_sphere
from kakeya_lab.winding import (
    BoundaryError,
    ResidualError,
    WindingField,
    crossing_winding_rows,
    degree_circle_map,
    degree_integral_bound,
    generalized_winding_3d,
    make_slice_loop,
    ray_crossing_oracle,
    winding_field,
    winding_number_2d,
)


def circle_loop(radius=1.0, n=256, reverse=False, windings=1, center=(0.0, 0.0)):
    th = windings * 2 * np.pi * np.arange(n) / n
    pts = radius * np.stack([np.cos(th), np.sin(th)], axis=1) + np.asarray(center)
    if reverse:
        pts = pts[::-1]
    return make_slice_loop(0.5, pts)


def test_unit_circle_windings():
    loop = circle_loop()
    assert winding_number_2d(loop, np.array([0.0, 0.0])) == 1
    assert winding_number_2d(loop, np.array([2.0, 0.0])) == 0


def test_doubly_wound_circle():
    loop = circle_loop(windings=2)
    assert winding_number_2d(loop, np.array([0.0, 0.0])) == 2


def test_boundary_proximity_rejected():
    loop = circle_loop()
    with pytest.raises(BoundaryError):
        winding_number_2d(loop, np.array([1.0, 0.0]), tol_boundary=0.01)


def test_default_boundary_tolerance_guards_loop_points():
    th = 2 * np.pi * np.arange(64) / 64
    loop = make_slice_loop(0.1, np.stack([np.cos(th), np.sin(th)], axis=1))
    # distance 1e-10 < default tolerance 1e-9
    with pytest.raises(BoundaryError):
        winding_number_2d(loop, np.array([1.0 - 1e-10, 0.0]))


def test_boundary_check_catches_a_point_tangent_to_a_flat_edge():
    # the loop's top edge runs at y = -0.9 from x = 1.375 to 5.125; the point
    # lies exactly tol above it, where y + tol rounds below the point's y, and
    # every other edge is farther: both paths must refuse it
    top = np.stack([1.375 + 0.3125 * np.arange(13), np.full(13, -0.9)], axis=1)
    loop = make_slice_loop(0.5, np.vstack([top, [[5.125, -5.0], [5.125, -10.0],
                                                 [1.375, -10.0], [1.375, -5.0]]]))
    point = np.array([2.625, 0.625])
    tol = 0.625 + 0.9
    assert -0.9 + tol < point[1]
    assert winding_number_2d(loop, point, check_boundary=False) == 0
    with pytest.raises(BoundaryError):
        winding_number_2d(loop, point, tol_boundary=tol)
    with pytest.raises(BoundaryError):
        ray_crossing_oracle(loop, point, tol_boundary=tol)


def test_ray_crossing_matches_examples():
    loop = circle_loop()
    assert ray_crossing_oracle(loop, np.array([0.0, 0.0])) == 1
    assert ray_crossing_oracle(loop, np.array([2.0, 0.0])) == 0
    rev = circle_loop(reverse=True)
    assert ray_crossing_oracle(rev, np.array([0.0, 0.0])) == -1


def test_cross_validation_on_random_loops():
    # the two independent planar algorithms agree on every unmasked cell
    rng = np.random.default_rng(7)
    mesh = sample_sphere(1, 256)
    for _ in range(10):
        alpha = rng.uniform(0.5, 0.9)
        seed = int(rng.integers(0, 1000))
        t = rng.uniform(0.3, 0.9)
        m = make_map("lacunary_fourier", alpha=alpha, terms=8, seed=seed)
        loop = slice_loop(m, t, mesh)
        field = winding_field(loop, 0.05)
        centers = field.grid.centers()[~field.mask.ravel()]
        assert np.array_equal(
            winding_number_2d(loop, centers), ray_crossing_oracle(loop, centers)
        )


def test_field_matches_pointwise_kernels():
    loop = circle_loop(radius=0.8)
    field = winding_field(loop, 0.04)
    centers = field.grid.centers()[~field.mask.ravel()]
    vals = field.values[~field.mask]
    assert np.array_equal(vals, winding_number_2d(loop, centers))


def test_translation_equivariance():
    loop = circle_loop()
    shifted = circle_loop(center=(3.0, -2.0))
    pts = np.array([[0.3, 0.2], [1.5, 0.0], [-0.4, 0.1]])
    w      = winding_number_2d(loop, pts)
    w_shift = winding_number_2d(shifted, pts + np.array([3.0, -2.0]))
    assert np.array_equal(w, w_shift)


def test_reversal_negates():
    loop = circle_loop()
    rev = circle_loop(reverse=True)
    pts = np.array([[0.0, 0.0], [0.5, 0.2], [2.0, 0.0]])
    assert np.array_equal(winding_number_2d(loop, pts), -winding_number_2d(rev, pts))


def test_winding_field_masks_boundary():
    loop = circle_loop()
    field = winding_field(loop, 0.05)
    assert field.mask.sum() > 0
    assert np.all(field.values[field.mask] == 0)
    # outside the bounding box inflation everything is zero
    assert field.values[0, 0] == 0


def _reference_crossing_winding_rows(vertices, grid):
    """The per-row loop the row engine replaced: one sorted crossing sweep
    per grid row, each cell taking the signed crossings to its right."""
    v = vertices
    w = np.roll(v, -1, axis=0)
    ax, ay = v[:, 0], v[:, 1]
    bx, by = w[:, 0], w[:, 1]
    nx, ny = grid.shape
    xs = grid.axis_centers(0)
    out = np.zeros((nx, ny), dtype=np.int64)
    for j in range(ny):
        y = grid.origin[1] + (j + 0.5) * grid.h
        up = (ay <= y) & (by > y)
        dn = (by <= y) & (ay > y)
        straddle = up | dn
        if not straddle.any():
            continue
        frac = (y - ay[straddle]) / (by[straddle] - ay[straddle])
        xint = ax[straddle] + frac * (bx[straddle] - ax[straddle])
        sgn = np.where(up[straddle], 1, -1)
        order = np.argsort(xint, kind="stable")
        xint = xint[order]
        sgn = sgn[order]
        suffix = np.concatenate([np.cumsum(sgn[::-1])[::-1], [0]])
        out[:, j] = suffix[np.searchsorted(xint, xs, side="right")]
    return out


def _assert_rows_same(vertices, grid):
    # the steps, sorted on the packed line and back to 0 after the last,
    # rendered through a field with no mask
    at, level = crossing_winding_rows(np.asarray(vertices, dtype=float), grid)
    assert np.all(np.diff(at) >= 0) and (len(level) == 0 or level[-1] == 0)
    none = np.zeros(0, dtype=np.int64)
    got = WindingField(grid, (at, level), (none, none, none)).values
    want = _reference_crossing_winding_rows(np.asarray(vertices, dtype=float), grid)
    assert got.dtype == np.int64 and got.shape == grid.shape
    assert np.array_equal(got, want), f"{int(np.sum(got != want))} cells differ"
    return got


# binary-exact grid: cell centers at (k + 1/2) / 4
EXACT_GRID = CellGrid(np.array([0.0, 0.0]), 0.25, (40, 36))


def _center(k):
    return (k + 0.5) * 0.25


@pytest.mark.parametrize("seed", [0, 5, 9])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_row_engine_matches_reference_on_lacunary_loops(seed, t):
    m = make_map("lacunary_fourier", alpha=0.7, terms=10, seed=seed)
    for mesh, h in ((1024, 0.02), (512, 0.01)):
        loop = slice_loop(m, t, sample_sphere(1, mesh))
        _assert_rows_same(loop.vertices, grid_over(loop.vertices, h, max(2.0 * h, 0.1)))


def test_row_engine_vertices_on_row_centers_and_horizontal_edges():
    # vertices on cell centers: edges start and end exactly on rows, the
    # horizontal ones lie along a row, the vertical ones cross rows at column centers
    c = _center
    rect = [[c(5), c(6)], [c(30), c(6)], [c(30), c(25)], [c(5), c(25)]]
    values = _assert_rows_same(rect, EXACT_GRID)
    # half-open in both directions: the left and bottom edges' cells count as
    # inside, the right and top edges' cells do not
    assert values[5:30, 6:25].min() == 1 and values.sum() == 25 * 19
    stairs = [[c(3), c(2)], [c(20), c(2)], [c(20), c(9)], [c(12), c(9)], [c(12), c(17)],
              [c(33), c(17)], [c(33), c(30)], [c(8), c(30)], [c(8), c(17)], [c(3), c(17)]]
    _assert_rows_same(stairs, EXACT_GRID)
    _assert_rows_same(stairs[::-1], EXACT_GRID)
    rng = np.random.default_rng(3)
    for _ in range(40):
        pts = c(rng.integers(0, 40, size=(int(rng.integers(3, 14)), 2)).astype(float))
        pts[:, 1] = np.minimum(pts[:, 1], c(35))
        _assert_rows_same(pts, EXACT_GRID)


def test_row_engine_intercepts_on_a_cell_center_and_one_ulp_off():
    # a rectangle whose left edge lies at a column's computed center, or one
    # ulp to either side of it: that edge's crossings step at that column,
    # that column and the next, as a search of the centers places them; the
    # right edge, past the grid, steps at the padding cell nx
    grids = [EXACT_GRID, CellGrid(np.array([-0.37, 0.21]), 0.1 / 3.0, (40, 36)),
             CellGrid(np.array([1e6 + 0.1, -2e5]), 0.07, (30, 20))]
    for grid in grids:
        xs, ys = grid.axis_centers(0), grid.axis_centers(1)
        nx, h = grid.shape[0], grid.h
        for col in (0, 7, nx - 1):
            for x, want in ((xs[col], col), (np.nextafter(xs[col], -np.inf), col),
                            (np.nextafter(xs[col], np.inf), col + 1)):
                assert np.searchsorted(xs, x, side="left") == want
                lo, hi, right = ys[2] - h / 4.0, ys[-3] + h / 4.0, xs[-1] + 5.0 * h
                rect = np.array([[x, lo], [right, lo], [right, hi], [x, hi]])
                at, _ = crossing_winding_rows(rect, grid)
                rows, k = np.divmod(at, nx + 1)
                assert np.array_equal(np.bincount(rows, minlength=len(ys))[2:-2], np.full(len(ys) - 4, 2))
                assert sorted(set(k.tolist())) == sorted({want, nx})
                assert np.sum(k == want) == len(ys) - 4 or want == nx
                _assert_rows_same(rect, grid)


def test_row_engine_segments_partly_off_the_grid():
    pts = [[-3.0, 1.0], [5.0, -2.0], [14.0, 4.5], [6.0, 12.0], [-1.0, 8.0]]
    _assert_rows_same(pts, EXACT_GRID)
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.uniform(-3.0, 13.0, size=(int(rng.integers(3, 12)), 2))
        grid = CellGrid(rng.uniform(-0.5, 0.5, size=2), float(rng.uniform(0.1, 0.4)), (45, 38))
        _assert_rows_same(pts, grid)
    # a loop entirely off the grid winds around none of its cells
    far = [[30.0, 30.0], [40.0, 31.0], [35.0, 45.0]]
    assert not _assert_rows_same(far, EXACT_GRID).any()


def test_row_engine_doubly_wound_and_reversed_loops():
    grid = CellGrid(np.array([-1.3, -1.2]), 0.05, (52, 48))
    twice = circle_loop(n=200, windings=2).vertices
    assert _assert_rows_same(twice, grid).max() == 2
    reversed_loop = circle_loop(n=200, reverse=True, center=(0.1, -0.05)).vertices
    assert _assert_rows_same(reversed_loop, grid).min() == -1
    m = make_map("lacunary_fourier", alpha=0.6, terms=10, seed=2)
    loop = slice_loop(m, 0.4, sample_sphere(1, 512))
    g = grid_over(loop.vertices, 0.02, 0.1)
    assert np.array_equal(
        _assert_rows_same(loop.vertices[::-1], g), -_assert_rows_same(loop.vertices, g)
    )


def test_generalized_winding_icosphere():
    mesh = sample_sphere(2, 162)
    loop = slice_loop(make_map("zero", n=4), 1.0, mesh)
    assert generalized_winding_3d(loop, np.array([0.0, 0.0, 0.0])) == 1
    assert generalized_winding_3d(loop, np.array([3.0, 0.0, 0.0])) == 0


def test_generalized_winding_subdivided_tetrahedron():
    # simplest closed mesh, subdivided (without projection) to meet the
    # loop's vertex-count floor; winding at the centroid is 1
    verts = [
        np.array([1.0, 1.0, 1.0]),
        np.array([1.0, -1.0, -1.0]),
        np.array([-1.0, 1.0, -1.0]),
        np.array([-1.0, -1.0, 1.0]),
    ]
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    verts_list = list(verts)
    for _ in range(2):
        new_faces = []
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                verts_list.append(0.5 * (verts_list[i] + verts_list[j]))
                cache[key] = len(verts_list) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    loop = make_slice_loop(0.5, np.array(verts_list), np.array(faces))
    centroid = np.mean(verts[:4], axis=0)
    assert generalized_winding_3d(loop, centroid) == 1
    assert generalized_winding_3d(loop, np.array([5.0, 0.0, 0.0])) == 0


def test_generalized_winding_convex_hulls():
    rng = np.random.default_rng(3)
    mesh = sample_sphere(2, 162)
    for _ in range(20):
        scale = rng.uniform(0.5, 2.0, size=3)
        verts = mesh.vertices * scale
        loop = make_slice_loop(0.5, verts, mesh.cells)
        inner = rng.uniform(-0.2, 0.2, size=3) * scale.min()
        outer = np.array([3.0, 3.0, 3.0]) * scale.max()
        assert generalized_winding_3d(loop, inner) == 1
        assert generalized_winding_3d(loop, outer) == 0


def test_degree_circle_map_basics():
    th = 2 * np.pi * np.arange(512) / 512
    ident = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert degree_circle_map(ident) == 1
    triple = np.stack([np.cos(3 * th), np.sin(3 * th)], axis=1)
    assert degree_circle_map(triple) == 3
    const = np.tile([0.0, 1.0], (512, 1))
    assert degree_circle_map(const) == 0


def test_degree_circle_map_rejects_under_resolution():
    th = 2 * np.pi * np.arange(32) / 32
    fast = np.stack([np.cos(9 * th), np.sin(9 * th)], axis=1)
    with pytest.raises(ResidualError):
        degree_circle_map(fast)


def test_degree_integral_zero_for_constant():
    mesh = sample_sphere(1, 256)
    const = np.tile([1.0, 0.0], (256, 1))
    assert degree_integral_bound(const, 1.0, mesh) == 0.0


def test_degree_integral_refinement_agreement():
    vals = []
    for res in (512, 1024):
        mesh = sample_sphere(1, res)
        f = np.stack([np.cos(mesh.angles), np.sin(mesh.angles)], axis=1)
        vals.append(degree_integral_bound(f, 1.0, mesh))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.05


def test_degree_integral_grows_linearly_in_degree():
    mesh = sample_sphere(1, 1024)
    th = mesh.angles

    def I(d):
        f = np.stack([np.cos(d * th), np.sin(d * th)], axis=1)
        return degree_integral_bound(f, 1.0, mesh)

    base = I(1)
    assert abs(I(5) / base - 5.0) <= 0.5


def test_degree_integral_dominates_degree_with_single_constant():
    # one constant calibrated at degree 1 keeps C * I(f) >= |deg f|
    mesh = sample_sphere(1, 1024)
    th = mesh.angles

    def I(d):
        f = np.stack([np.cos(d * th), np.sin(d * th)], axis=1)
        return degree_integral_bound(f, 1.0, mesh)

    C = 2.0 * 1 / I(1)
    for d in range(1, 9):
        assert C * I(d) >= d
    assert degree_integral_bound(
        np.tile([1.0, 0.0], (1024, 1)), 1.0, mesh
    ) * C >= 0


def test_degree_integral_rejects_threshold_out_of_range():
    mesh = sample_sphere(1, 256)
    f = np.stack([np.cos(mesh.angles), np.sin(mesh.angles)], axis=1)
    with pytest.raises(ValueError):
        degree_integral_bound(f, 2.0, mesh)
