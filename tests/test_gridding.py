import numpy as np
import pytest

from kakeya_lab.gridding import CellGrid, grid_over, mark_near_polyline
from kakeya_lab.maps import make_map
from kakeya_lab.slices import slice_loop
from kakeya_lab.sphere import sample_sphere


def _reference_mark_near_polyline(grid, vertices, tol):
    """The per-segment loop the span kernel replaced: every cell of each
    segment's bounding sub-box gets the exact distance test."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    mask = np.zeros(grid.shape, dtype=bool)
    h = grid.h
    nx, ny = grid.shape
    ab = w - v
    ab2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    for k in range(len(v)):
        a, b = v[k], w[k]
        lo = np.minimum(a, b) - tol - h
        hi = np.maximum(a, b) + tol + h
        i0 = max(int(np.floor((lo[0] - grid.origin[0]) / h - 0.5)), 0)
        i1 = min(int(np.ceil((hi[0] - grid.origin[0]) / h - 0.5)), nx - 1)
        j0 = max(int(np.floor((lo[1] - grid.origin[1]) / h - 0.5)), 0)
        j1 = min(int(np.ceil((hi[1] - grid.origin[1]) / h - 0.5)), ny - 1)
        if i1 < i0 or j1 < j0:
            continue
        gx = grid.origin[0] + (np.arange(i0, i1 + 1) + 0.5) * h
        gy = grid.origin[1] + (np.arange(j0, j1 + 1) + 0.5) * h
        px, py = np.meshgrid(gx, gy, indexing="ij")
        pa_x = px - a[0]
        pa_y = py - a[1]
        t = np.clip((pa_x * ab[k, 0] + pa_y * ab[k, 1]) / ab2[k], 0.0, 1.0)
        dx = pa_x - t * ab[k, 0]
        dy = pa_y - t * ab[k, 1]
        mask[i0 : i1 + 1, j0 : j1 + 1] |= dx * dx + dy * dy <= tol * tol
    return mask


def _assert_same(grid, vertices, tol):
    got = mark_near_polyline(grid, vertices, tol)
    want = _reference_mark_near_polyline(grid, vertices, tol)
    assert got.dtype == bool and got.shape == grid.shape
    assert np.array_equal(got, want), f"{int(np.sum(got != want))} cells differ at tol {tol}"
    return got


# binary-exact grid: cell centers at (k + 1/2) / 4
EXACT_GRID = CellGrid(np.array([0.0, 0.0]), 0.25, (40, 36))


def _center(k):
    return (k + 0.5) * 0.25


@pytest.mark.parametrize("seed", [0, 3, 6])
@pytest.mark.parametrize("scale", ["half", "3h", "wider-than-grid"])
def test_lacunary_loops_match_reference(seed, scale):
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=seed)
    h = 0.05 if scale == "wider-than-grid" else 0.02
    loop = slice_loop(m, 0.5, sample_sphere(1, 256 if scale == "wider-than-grid" else 1024))
    grid = grid_over(loop.vertices, h, pad=0.3)
    tol = {"half": h / 2.0, "3h": 3.0 * h, "wider-than-grid": 2.0 * max(grid.shape) * h}[scale]
    mask = _assert_same(grid, loop.vertices, tol)
    if scale == "wider-than-grid":
        assert mask.all()


def test_horizontal_and_vertical_segments_match_reference():
    rect = np.array([[_center(5), _center(6)], [_center(30), _center(6)],
                     [_center(30), _center(25)], [_center(5), _center(25)]])
    for tol in (0.1, 0.125, 0.25, 0.75, 1.3):
        _assert_same(EXACT_GRID, rect, tol)
    # off-center axis-parallel segments
    _assert_same(EXACT_GRID, rect + np.array([0.1, 0.07]), 0.4)


def test_tol_on_cell_centers_pins_less_or_equal():
    # a horizontal segment along a row of centers: the centers three rows up
    # are at distance exactly 3h, and so is the center three cells past its end
    seg = np.array([[_center(10), _center(8)], [_center(20), _center(8)]])
    mask = _assert_same(EXACT_GRID, seg, 0.75)
    assert mask[10:21, 11].all()
    assert not mask[10:21, 12].any()
    assert mask[23, 8] and not mask[24, 8]
    assert mask[7, 8] and not mask[6, 8]
    # the same along a column
    seg = np.array([[_center(8), _center(10)], [_center(8), _center(20)]])
    mask = _assert_same(EXACT_GRID, seg, 0.75)
    assert mask[11, 10:21].all()
    assert not mask[12, 10:21].any()


def test_repeated_vertices_give_zero_length_segments():
    pts = np.array([[1.3, 2.1], [1.3, 2.1], [4.2, 2.9], [4.2, 2.9], [4.2, 2.9], [2.0, 6.6]])
    for tol in (0.125, 0.6, 2.0):
        _assert_same(EXACT_GRID, pts, tol)
    # a loop collapsed to one point marks exactly the disk around it
    point = np.repeat([[_center(20), _center(18)]], 16, axis=0)
    for tol in (0.5, 1.0, 2.5):
        mask = _assert_same(EXACT_GRID, point, tol)
        i, j = np.nonzero(mask)
        d = np.hypot((i - 20) * 0.25, (j - 18) * 0.25)
        assert d.max() <= tol
        assert len(i) == np.sum(
            np.hypot(*np.meshgrid((np.arange(40) - 20) * 0.25, (np.arange(36) - 18) * 0.25)) <= tol
        )


def test_segments_partly_off_the_grid():
    pts = np.array([[-3.0, 1.0], [5.0, -2.0], [14.0, 4.5], [6.0, 12.0], [-1.0, 8.0]])
    for tol in (0.125, 0.9, 3.0):
        _assert_same(EXACT_GRID, pts, tol)
    # entirely off the grid
    far = np.array([[30.0, 30.0], [40.0, 31.0], [35.0, 45.0]])
    assert not _assert_same(EXACT_GRID, far, 1.0).any()


def test_nearly_axis_parallel_segments():
    y = _center(9)
    pts = np.array([[0.3, y], [8.1, np.nextafter(y, 10.0)], [8.1 + 1e-15, 6.2], [0.3, 6.2 - 3e-16]])
    for tol in (0.25, 0.5, 0.75, 1.0):
        _assert_same(EXACT_GRID, pts, tol)


def test_random_polylines_match_reference():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pts = rng.uniform(-1.0, 11.0, size=(int(rng.integers(2, 12)), 2))
        grid = CellGrid(rng.uniform(-0.5, 0.5, size=2), float(rng.uniform(0.1, 0.4)), (45, 38))
        _assert_same(grid, pts, float(rng.uniform(0.05, 3.0)))
