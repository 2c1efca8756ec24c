import numpy as np
import pytest

from kakeya_lab.sphere import (
    CIRCLE_MEASURE,
    SPHERE_MEASURE,
    SphereMesh,
    geodesic_distance,
    integrate_over_sphere,
    is_equal_angle_circle,
    sample_sphere,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def test_circle_resolution_4_is_uniform():
    mesh = sample_sphere(1, 8)
    assert mesh.n_vertices == 8
    np.testing.assert_allclose(mesh.weights, 2 * np.pi / 8)
    angles = np.mod(mesh.angles, 2 * np.pi)
    np.testing.assert_allclose(angles, 2 * np.pi * np.arange(8) / 8, atol=1e-12)


def test_circle_weight_sum():
    mesh = sample_sphere(1, 256)
    assert abs(mesh.weights.sum() - 2 * np.pi) < 1e-12


def test_equal_angle_circle_is_a_property_of_the_mesh():
    mesh = sample_sphere(1, 1000)
    assert is_equal_angle_circle(mesh)
    assert not is_equal_angle_circle(sample_sphere(2, 642))
    weights = mesh.weights.copy()
    weights[0] *= 1.0 + 1e-15
    assert not is_equal_angle_circle(SphereMesh(1, mesh.vertices, mesh.cells, weights))
    verts = mesh.vertices.copy()
    verts[7] = [np.cos(2 * np.pi * 7.5 / 1000), np.sin(2 * np.pi * 7.5 / 1000)]
    assert not is_equal_angle_circle(SphereMesh(1, verts, mesh.cells, mesh.weights))
    # the same angles built again, with other arrays, still qualify
    copy = SphereMesh(1, mesh.vertices.copy(), mesh.cells, np.full(1000, 2 * np.pi / 1000))
    assert is_equal_angle_circle(copy)


def test_icosphere_level3_vertex_count_and_area():
    mesh = sample_sphere(2, 642)
    assert mesh.n_vertices == 642
    assert abs(mesh.weights.sum() - 4 * np.pi) < 1e-6


def check_mesh(mesh: SphereMesh) -> None:
    """Raise if the mesh violates its structural invariants."""
    norms = np.linalg.norm(mesh.vertices, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise AssertionError("mesh vertices are not on the unit sphere")
    if np.any(mesh.weights <= 0):
        raise AssertionError("mesh has non-positive quadrature weights")
    target = CIRCLE_MEASURE if mesh.dim == 1 else SPHERE_MEASURE
    if abs(mesh.weights.sum() - target) > 1e-9:
        raise AssertionError("mesh weights do not sum to the surface measure")
    if mesh.dim == 1:
        expect = np.stack(
            [np.arange(mesh.n_vertices), (np.arange(mesh.n_vertices) + 1) % mesh.n_vertices],
            axis=1,
        )
        if not np.array_equal(mesh.cells, expect):
            raise AssertionError("circle cells are not cyclically ordered")
    else:
        edges: dict[tuple[int, int], int] = {}
        for tri in mesh.cells:
            for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(e), max(e))
                edges[key] = edges.get(key, 0) + 1
        if any(count != 2 for count in edges.values()):
            raise AssertionError("sphere mesh is not a closed edge-paired complex")


def test_mesh_invariants():
    check_mesh(sample_sphere(1, 64))
    check_mesh(sample_sphere(2, 162))


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError):
        sample_sphere(3, 64)
    with pytest.raises(ValueError):
        sample_sphere(1, 4)


def test_geodesic_distance_basic():
    assert geodesic_distance(E1, E1) == 0.0
    assert abs(geodesic_distance(E1, -E1) - np.pi) < 1e-12
    assert abs(geodesic_distance(E1, E2) - np.pi / 2) < 1e-12


def test_geodesic_rejects_non_unit():
    with pytest.raises(ValueError):
        geodesic_distance(2 * E1, E1)


def test_geodesic_triangle_inequality_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        u, v, w = rng.normal(size=(3, 3))
        u, v, w = (x / np.linalg.norm(x) for x in (u, v, w))
        assert geodesic_distance(u, w) <= (
            geodesic_distance(u, v) + geodesic_distance(v, w) + 1e-9
        )


def test_integrate_constant_and_parity():
    mesh = sample_sphere(1, 512)
    assert abs(integrate_over_sphere(np.ones(512), mesh) - 2 * np.pi) < 1e-12
    assert abs(integrate_over_sphere(np.cos(mesh.angles), mesh)) < 1e-10
    assert abs(integrate_over_sphere(np.cos(mesh.angles) ** 2, mesh) - np.pi) < 1e-8


def test_integrate_rejects_length_mismatch():
    mesh = sample_sphere(1, 64)
    with pytest.raises(ValueError):
        integrate_over_sphere(np.ones(65), mesh)


def test_trapezoid_exactness_for_low_harmonics():
    # periodic trapezoid rule integrates e^{ik theta} exactly for |k| < N/2
    mesh = sample_sphere(1, 64)
    for k in (1, 5, 17, 31):
        val = integrate_over_sphere(np.cos(k * mesh.angles), mesh)
        assert abs(val) < 1e-10


def test_refinement_is_cauchy():
    # refining the mesh changes the quadrature of a fixed smooth field by
    # less than the previous refinement change (visible while the quadrature
    # error still dominates machine precision)
    def value(res):
        mesh = sample_sphere(2, res)
        field = np.exp(mesh.vertices[:, 2]) * (1 + mesh.vertices[:, 0] ** 2)
        return integrate_over_sphere(field, mesh)

    v1, v2, v3 = value(12), value(42), value(162)
    assert abs(v3 - v2) < abs(v2 - v1)

    def circle_value(res):
        mesh = sample_sphere(1, res)
        return integrate_over_sphere(np.exp(np.cos(mesh.angles)), mesh)

    c1, c2, c3 = circle_value(8), circle_value(16), circle_value(32)
    assert abs(c3 - c2) < abs(c2 - c1)


def _reference_subdivide(verts, faces):
    """The former subdivision, which also looked each midpoint up among the
    existing vertices before appending it."""
    verts = list(map(tuple, verts))
    index = {v: i for i, v in enumerate(verts)}
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key in cache:
            return cache[key]
        m = np.asarray(verts[i]) + np.asarray(verts[j])
        m /= np.linalg.norm(m)
        m = tuple(m)
        idx = index.setdefault(m, len(verts))
        if idx == len(verts):
            verts.append(m)
        cache[key] = idx
        return idx

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.asarray(verts, dtype=float), np.asarray(out, dtype=np.int64)


@pytest.mark.parametrize("resolution", [8, 42, 162, 642, 2562, 10242])
def test_icosphere_equals_the_vertex_lookup_reference(monkeypatch, resolution):
    import kakeya_lab.sphere as sphere

    mesh = sample_sphere(2, resolution)
    monkeypatch.setattr(sphere, "_subdivide", _reference_subdivide)
    ref = sample_sphere(2, resolution)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.cells, ref.cells)
    assert np.array_equal(mesh.weights, ref.weights)
