"""Meshes, quadrature, and metric utilities on the unit circle and 2-sphere.

The circle mesh (dim 1) is a uniform angular partition; quadrature is the
periodic trapezoid rule, which is spectrally accurate for smooth integrands.
The sphere mesh (dim 2) is a subdivided icosahedron projected to the unit
sphere with outward-oriented triangles; each vertex weight is one third of
the total solid angle of its incident triangles, so the weights partition
the full surface measure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CIRCLE_MEASURE = 2.0 * np.pi
SPHERE_MEASURE = 4.0 * np.pi


@dataclass(frozen=True)
class SphereMesh:
    """Vertex/cell/weight triple for S^1 or S^2.

    dim: sphere dimension (1 = circle in R^2, 2 = sphere in R^3).
    vertices: (N, dim+1) unit vectors.
    cells: (M, 2) ordered segments for dim 1, (M, 3) oriented triangles
        for dim 2 (counterclockwise seen from outside).
    weights: (N,) positive quadrature weights in surface-measure units.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    weights: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def spacing(self) -> float:
        """Longest cell edge (chordal); the resolution scale of the mesh."""
        if self.dim == 1:
            return float(2.0 * np.sin(np.pi / self.n_vertices))
        a = self.vertices[self.cells[:, 0]]
        b = self.vertices[self.cells[:, 1]]
        c = self.vertices[self.cells[:, 2]]
        e = np.concatenate([b - a, c - b, a - c])
        return float(np.max(np.linalg.norm(e, axis=1)))

    @property
    def angles(self) -> np.ndarray:
        """Vertex angles, only meaningful for dim 1."""
        if self.dim != 1:
            raise ValueError("angles are defined for circle meshes only")
        return np.arctan2(self.vertices[:, 1], self.vertices[:, 0])


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    # enforce outward orientation (positive determinant wrt the origin)
    det = np.linalg.det(verts[faces])
    faces[det < 0] = faces[det < 0][:, [0, 2, 1]]
    return verts, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each triangle into four, projecting midpoints to the sphere.
    Each edge's midpoint is appended once, as a new vertex."""
    verts = list(verts)
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            cache[key] = len(verts)
            verts.append(m / np.linalg.norm(m))
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.asarray(verts, dtype=float), np.asarray(out, dtype=np.int64)


def triangle_solid_angles(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Signed solid angle of each spherical triangle seen from the origin."""
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    num = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("ij,ij->i", a, b)
        + np.einsum("ij,ij->i", b, c)
        + np.einsum("ij,ij->i", c, a)
    )
    return 2.0 * np.arctan2(num, den)


def _equal_angle_vertices(n: int) -> np.ndarray:
    """The n unit vectors at angles 2 pi k / n, counterclockwise from (1, 0)."""
    theta = CIRCLE_MEASURE * np.arange(n) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def is_equal_angle_circle(mesh: SphereMesh) -> bool:
    """True for a circle mesh with equal weights and exactly the equal-angle
    vertices of `sample_sphere(1, N)`.  On such a mesh a pair kernel of the
    vertex distance depends, up to rounding, only on the lag |i - j| mod N."""
    return (
        mesh.dim == 1
        and bool(np.all(mesh.weights == mesh.weights[0]))
        and np.array_equal(mesh.vertices, _equal_angle_vertices(mesh.n_vertices))
    )


def icosphere_vertex_count(resolution: int) -> int:
    """Vertices of the icosphere `sample_sphere(2, resolution)` builds, in
    closed form: k subdivisions of the icosahedron give 10 4^k + 2, and k is
    the least with at least `resolution` of them."""
    k = 0
    while 10 * 4**k + 2 < resolution:
        k += 1
    return 10 * 4**k + 2


def sample_sphere(dim: int, resolution: int) -> SphereMesh:
    """Build a quadrature mesh with at least `resolution` vertices.

    dim 1: exactly `resolution` equally spaced angles, counterclockwise.
    dim 2: the smallest icosahedral subdivision with >= `resolution` vertices.
    """
    if dim not in (1, 2):
        raise ValueError(f"unsupported sphere dimension {dim}; expected 1 or 2")
    if resolution < 8:
        raise ValueError(f"resolution {resolution} too small; need >= 8")
    if dim == 1:
        vertices = _equal_angle_vertices(resolution)
        cells = np.stack(
            [np.arange(resolution), (np.arange(resolution) + 1) % resolution], axis=1
        )
        weights = np.full(resolution, CIRCLE_MEASURE / resolution)
        return SphereMesh(1, vertices, cells.astype(np.int64), weights)

    verts, faces = _icosahedron()
    while len(verts) < resolution:
        verts, faces = _subdivide(verts, faces)
    omega = triangle_solid_angles(verts, faces)
    if np.any(omega <= 0):
        raise AssertionError("icosphere triangle with non-positive orientation")
    weights = np.zeros(len(verts))
    np.add.at(weights, faces[:, 0], omega / 3.0)
    np.add.at(weights, faces[:, 1], omega / 3.0)
    np.add.at(weights, faces[:, 2], omega / 3.0)
    return SphereMesh(2, verts, faces, weights)


def geodesic_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Great-circle distance between two unit vectors, in [0, pi]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for w in (u, v):
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError("geodesic_distance requires unit vectors")
    return float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))


def integrate_over_sphere(field: np.ndarray, mesh: SphereMesh) -> float:
    """Quadrature of a per-vertex scalar field against the mesh weights."""
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.n_vertices,):
        raise ValueError(
            f"field length {field.shape} does not match vertex count {mesh.n_vertices}"
        )
    return float(np.dot(field, mesh.weights))
