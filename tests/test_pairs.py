"""The mesh-pair engine against the per-kernel loops it replaced.

Each reference below is the loop a kernel ran before it moved onto
`kakeya_lab.pairs`, kept verbatim (the mollifier as its old two passes), so
every comparison is exact, except the mollifier on the equal-angle circle:
its FFT correlation sums in another order and is held to 1e-13.  The meshes
are large enough for two row blocks, so sums that cross blocks are covered.
"""

import numpy as np
import pytest

import kakeya_lab.smoothing as smoothing
from kakeya_lab.gridding import points_near_polyline
from kakeya_lab.maps import (
    PositionMap,
    lipschitz_constant_on_net,
    make_map,
    mcshane_extend,
    slobodeckij_seminorm,
)
from kakeya_lab.pairs import PAIR_BUDGET, WIDE_BUDGET, row_blocks, sq_dists
from kakeya_lab.smoothing import bump_profile, mollifier_kernel, mollify_on_sphere
from kakeya_lab.sphere import CIRCLE_MEASURE, SphereMesh, is_equal_angle_circle, sample_sphere
from kakeya_lab.winding import degree_integral_bound


@pytest.fixture(scope="module")
def circle():
    return sample_sphere(1, 2048)


@pytest.fixture(scope="module")
def s2():
    return sample_sphere(2, 2562)


@pytest.fixture(scope="module")
def rotated_circle():
    # equal weights and spacing, vertices half a step off the equal angles
    n = 2048
    theta = CIRCLE_MEASURE * (np.arange(n) + 0.5) / n
    mesh = sample_sphere(1, n)
    return SphereMesh(1, np.stack([np.cos(theta), np.sin(theta)], axis=1), mesh.cells, mesh.weights)


# the circle mollifier's FFT correlation against the dense two-pass reference
CIRCLE_TOL = 1e-13


def _blocks(n_rows, n_cols, budget=PAIR_BUDGET):
    return len(list(row_blocks(n_rows, n_cols, budget)))


def ref_raw_masses(epsilon, mesh):
    verts = mesh.vertices
    w = mesh.weights
    n = mesh.n_vertices
    masses = np.empty(n)
    step = max(1, int(4e6 // n))
    for s in range(0, n, step):
        e = min(s + step, n)
        d = np.linalg.norm(verts[s:e, None, :] - verts[None, :, :], axis=2)
        masses[s:e] = bump_profile(d / epsilon) @ w
    return masses


def ref_mollify(f, epsilon, mesh):
    raw_masses = ref_raw_masses(epsilon, mesh)
    verts = mesh.vertices
    w = mesh.weights
    n = mesh.n_vertices
    out = np.empty_like(f)
    step = max(1, int(4e6 // n))
    for s in range(0, n, step):
        e = min(s + step, n)
        d = np.linalg.norm(verts[s:e, None, :] - verts[None, :, :], axis=2)
        ker = bump_profile(d / epsilon) * w[None, :]
        out[s:e] = (ker @ f) / raw_masses[s:e, None]
    return out


def ref_slobodeckij(f, theta, p, mesh):
    cutoff = mesh.spacing * (1.0 - 1e-9)
    kernel_pow = theta * p + mesh.dim
    total = 0.0
    verts = mesh.vertices
    w = mesh.weights
    step = max(1, int(4e6 // mesh.n_vertices))
    for s in range(0, mesh.n_vertices, step):
        e = min(s + step, mesh.n_vertices)
        d = np.linalg.norm(verts[s:e, None, :] - verts[None, :, :], axis=2)
        fd = np.linalg.norm(f[s:e, None, :] - f[None, :, :], axis=2)
        ok = d >= cutoff
        contrib = np.where(ok, fd**p / np.where(ok, d, 1.0) ** kernel_pow, 0.0)
        total += float(np.einsum("ij,i,j->", contrib, w[s:e], w))
    return total ** (1.0 / p)


def ref_degree_integral(f, alpha0, mesh):
    verts = mesh.vertices
    w = mesh.weights
    n = mesh.n_vertices
    power = 2 * mesh.dim
    total = 0.0
    step = max(1, int(4e6 // n))
    for s in range(0, n, step):
        e = min(s + step, n)
        d2 = np.sum((verts[s:e, None, :] - verts[None, :, :]) ** 2, axis=2)
        fd = np.linalg.norm(f[s:e, None, :] - f[None, :, :], axis=2)
        ok = d2 > 0.0
        kernel = np.where(ok & (fd > alpha0), 1.0 / np.where(ok, d2, 1.0) ** (power / 2), 0.0)
        total += float(np.einsum("ij,i,j->", kernel, w[s:e], w))
    return total


def ref_lipschitz(points, values):
    best = 0.0
    step = max(1, int(4e6 // len(points)))
    for s in range(0, len(points), step):
        e = min(s + step, len(points))
        d = np.linalg.norm(points[s:e, None, :] - points[None, :, :], axis=2)
        block = d[:, s:e]
        np.fill_diagonal(block, np.inf)
        if np.min(d) == 0.0:
            raise ValueError("net contains duplicate points")
        dv = np.linalg.norm(values[s:e, None, :] - values[None, :, :], axis=2)
        best = max(best, float(np.max(dv / d)))
    return best


def ref_raw_lookup(net, vals, pts):
    out = np.empty((len(pts), vals.shape[1]))
    for i, q in enumerate(pts):
        d = np.linalg.norm(net - q, axis=1)
        j = int(np.argmin(d))
        if d[j] > 1e-12:
            raise ValueError("raw grid_sampled map evaluated off its net; extend it first")
        out[i] = vals[j]
    return out


def ref_extended_lookup(net, vals, lip, pts):
    out = np.empty((len(pts), vals.shape[1]))
    step = max(1, int(2e6 // max(len(net), 1)))
    for s in range(0, len(pts), step):
        e = min(s + step, len(pts))
        d = np.linalg.norm(pts[s:e, None, :] - net[None, :, :], axis=2)
        out[s:e] = np.min(vals[None, :, :] + lip * d[:, :, None], axis=1)
    return out


def ref_polyline_min_distance(points, v):
    w = np.roll(v, -1, axis=0)
    ab = w - v
    ab2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    best = np.full(len(points), np.inf)
    step = max(1, int(4e6 // max(len(points), 1)))
    for s in range(0, len(v), step):
        e = min(s + step, len(v))
        pa = points[:, None, :] - v[None, s:e, :]
        t = np.clip(np.einsum("pnd,nd->pn", pa, ab[s:e]) / ab2[s:e], 0.0, 1.0)
        proj = v[None, s:e, :] + t[:, :, None] * ab[None, s:e, :]
        d = np.linalg.norm(points[:, None, :] - proj, axis=2)
        best = np.minimum(best, d.min(axis=1))
    return best


def _lacunary_samples(mesh, seed):
    return make_map("lacunary_fourier", alpha=0.7, terms=10, seed=seed, n=3)(mesh.vertices)


@pytest.mark.parametrize("dim", [2, 3])
def test_sqrt_of_sq_dists_is_linalg_norm(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(300, dim)) * 10.0 ** rng.integers(-8, 3, size=(300, 1))
    b = rng.normal(size=(400, dim))
    assert np.array_equal(
        np.sqrt(sq_dists(a, b)), np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    )
    per_pair = rng.normal(size=(300, 7, dim))
    assert np.array_equal(
        np.sqrt(sq_dists(a, per_pair)), np.linalg.norm(a[:, None, :] - per_pair, axis=2)
    )


def test_row_blocks_partition():
    assert list(row_blocks(0, 10)) == []
    assert list(row_blocks(5, 0)) == [(0, 5)]
    assert list(row_blocks(2048, 2048)) == [(0, 1953), (1953, 2048)]
    assert list(row_blocks(5, 1_000_000, WIDE_BUDGET)) == [(0, 2), (2, 4), (4, 5)]
    assert list(row_blocks(3, 10**8)) == [(0, 1), (1, 2), (2, 3)]


def test_mollify_matches_two_pass_on_circle(circle):
    epsilon = 0.05
    assert _blocks(circle.n_vertices, circle.n_vertices) == 2
    f = _lacunary_samples(circle, 3)
    ref = ref_mollify(f, epsilon, circle)
    out = mollify_on_sphere(f, epsilon, circle)
    assert np.max(np.abs(out - ref)) <= CIRCLE_TOL
    column = f[:, 0]
    assert np.array_equal(mollify_on_sphere(column, epsilon, circle), out[:, 0])
    kernel = mollifier_kernel(epsilon, circle)
    np.testing.assert_allclose(kernel.raw_masses, ref_raw_masses(epsilon, circle), rtol=CIRCLE_TOL, atol=0)
    assert kernel.d_epsilon == float(epsilon**circle.dim / np.mean(kernel.raw_masses))
    assert np.array_equal(mollify_on_sphere(f, kernel.epsilon, circle), out)


@pytest.mark.parametrize("n", [768, 1000, 1024, 4096])
@pytest.mark.parametrize("scale", ["0.3", "0.05", "smallest"])
def test_circle_fft_pass_matches_dense_reference(n, scale):
    mesh = sample_sphere(1, n)
    # the smallest scale the spacing <= epsilon/4 guard accepts
    epsilon = 4.0 * mesh.spacing if scale == "smallest" else float(scale)
    f = _lacunary_samples(mesh, n)
    assert np.max(np.abs(mollify_on_sphere(f, epsilon, mesh) - ref_mollify(f, epsilon, mesh))) <= CIRCLE_TOL
    masses = mollifier_kernel(epsilon, mesh).raw_masses
    np.testing.assert_allclose(masses, ref_raw_masses(epsilon, mesh), rtol=CIRCLE_TOL, atol=0)
    const = np.array([0.2, -0.1, 3.0])
    assert np.max(np.abs(mollify_on_sphere(np.tile(const, (n, 1)), epsilon, mesh) - const)) <= 1e-14


def test_mollify_off_the_equal_angles_is_the_dense_pass(rotated_circle):
    assert not is_equal_angle_circle(rotated_circle)
    f = _lacunary_samples(rotated_circle, 3)
    assert np.array_equal(mollify_on_sphere(f, 0.05, rotated_circle), ref_mollify(f, 0.05, rotated_circle))
    assert np.array_equal(mollifier_kernel(0.05, rotated_circle).raw_masses, ref_raw_masses(0.05, rotated_circle))


def test_mollify_matches_two_pass_on_s2(s2):
    # the 2,562-vertex icosphere is too coarse for the public guard at any
    # allowed scale, so the shared pass is compared directly
    assert _blocks(s2.n_vertices, s2.n_vertices) == 2
    f = np.random.default_rng(0).normal(size=(s2.n_vertices, 3))
    masses, out = smoothing._bump_pass(0.3, s2, f)
    assert np.array_equal(masses, ref_raw_masses(0.3, s2))
    assert np.array_equal(out, ref_mollify(f, 0.3, s2))


def test_mollify_evaluates_the_bump_once_per_block(circle, rotated_circle, monkeypatch):
    calls = []

    def counting(r):
        calls.append(r.shape)
        return bump_profile(r)

    monkeypatch.setattr(smoothing, "bump_profile", counting)
    mollify_on_sphere(_lacunary_samples(circle, 1), 0.05, circle)
    assert calls == [(2048,)]  # one bump row holds every lag
    calls.clear()
    mollify_on_sphere(_lacunary_samples(rotated_circle, 1), 0.05, rotated_circle)
    assert calls == [(1953, 2048), (95, 2048)]


@pytest.mark.parametrize("theta,p", [(0.25, 2.0), (0.5, 3.0), (0.3, 1.0)])
def test_slobodeckij_matches_reference(circle, s2, theta, p):
    f = _lacunary_samples(circle, 5)
    assert slobodeckij_seminorm(f, theta, p, circle) == ref_slobodeckij(f, theta, p, circle)
    g = np.random.default_rng(1).normal(size=(s2.n_vertices, 3))
    assert slobodeckij_seminorm(g, theta, p, s2) == ref_slobodeckij(g, theta, p, s2)


def test_degree_integral_matches_reference(circle, s2):
    th = 3.0 * circle.angles + 0.4 * np.sin(5.0 * circle.angles)
    f = np.stack([np.cos(th), np.sin(th)], axis=1)
    for alpha0 in (0.5, 1.2):
        assert degree_integral_bound(f, alpha0, circle) == ref_degree_integral(f, alpha0, circle)
    g = s2.vertices[:, [1, 2, 0]] * np.array([1.0, -1.0, 1.0])
    assert degree_integral_bound(g, 0.7, s2) == ref_degree_integral(g, 0.7, s2)


def test_lipschitz_matches_reference():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.0, 1.0, size=(2500, 2))
    vals = rng.normal(size=(2500, 2))
    assert _blocks(len(pts), len(pts)) == 2
    assert lipschitz_constant_on_net(pts, vals) == ref_lipschitz(pts, vals)


@pytest.mark.parametrize("copy_from,copy_to", [(3, 40), (10, 2400), (2000, 2100)])
def test_lipschitz_duplicate_points_rejected(copy_from, copy_to):
    # duplicates within the first block, across blocks and within the second
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(2500, 2))
    pts[copy_to] = pts[copy_from]
    vals = rng.normal(size=(2500, 2))
    for fn in (lipschitz_constant_on_net, ref_lipschitz):
        with pytest.raises(ValueError, match="duplicate points"):
            fn(pts, vals)


def _raw_net(pts, vals):
    return PositionMap(3, "ball", "grid_sampled", {"points": pts, "values": vals})


def test_raw_lookup_on_net_matches_reference():
    rng = np.random.default_rng(6)
    net = rng.uniform(-1.0, 1.0, size=(1500, 2))
    net[700] = net[20]  # a duplicate point: both lookups take the first
    vals = rng.normal(size=(1500, 2))
    query = net[rng.permutation(len(net))][np.r_[0:1500, 0:1500]]
    assert _blocks(len(query), len(net)) == 2
    out = _raw_net(net, vals)(query)
    assert np.array_equal(out, ref_raw_lookup(net, vals, query))
    assert np.array_equal(_raw_net(net, vals)(net[700]), vals[20])


@pytest.mark.parametrize("where", [0, 2999])
def test_raw_lookup_off_net_rejected(where):
    rng = np.random.default_rng(7)
    net = rng.uniform(-1.0, 1.0, size=(1500, 2))
    vals = rng.normal(size=(1500, 2))
    query = net[np.r_[0:1500, 0:1500]].copy()
    query[where] += 1e-9
    for lookup in (_raw_net(net, vals), lambda q: ref_raw_lookup(net, vals, q)):
        with pytest.raises(ValueError, match="off its net"):
            lookup(query)


def test_extended_lookup_matches_reference():
    rng = np.random.default_rng(8)
    net = rng.uniform(-1.0, 1.0, size=(1000, 2))
    vals = rng.normal(size=(1000, 2))
    query = rng.uniform(-1.0, 1.0, size=(3000, 2))
    assert _blocks(len(query), len(net), WIDE_BUDGET) == 2
    ext = mcshane_extend(net, vals, lip=2.5)
    assert np.array_equal(ext(query), ref_extended_lookup(net, vals, 2.5, query))


def test_points_near_polyline_matches_reference_distance():
    # the boundary checks' pair filter and exact test against the dense
    # distance loop they replaced, one point at a time and all at once
    rng = np.random.default_rng(9)
    th = 2 * np.pi * np.arange(2500) / 2500
    loop = np.stack([np.cos(th), np.sin(3 * th)], axis=1) * (1.0 + 0.1 * np.sin(7 * th))[:, None]
    loop[100] = loop[99]  # a zero-length segment
    points = rng.uniform(-1.5, 1.5, size=(2000, 2))
    points[:10] = loop[:10]
    dist = ref_polyline_min_distance(points, loop)
    for tol in (0.0, 1e-9, 1e-3, 0.01, 0.05, 0.3):
        want = dist <= tol
        got = [points_near_polyline(p[None, :], loop, tol) for p in points[::7]]
        assert got == list(want[::7]), tol
        assert points_near_polyline(points, loop, tol) == bool(want.any())
        assert points_near_polyline(points[10:], loop, tol) == bool(want[10:].any())
