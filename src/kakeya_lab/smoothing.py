"""Spherical mollification: smooth-bump convolution on the mesh and its bounds.

The bump profile is exp(-1/(1 - r^2)) inside the unit radius and zero
outside.  Convolution weights are normalized per vertex, so the kernel has
unit mass at every vertex by construction and constant fields pass through
unchanged; the scalar normalization `d_epsilon` reported on the Kernel is
the scale-invariant mean normalizer, which stays of order one.

On the equal-angle circle mesh of `sample_sphere(1, N)` the bump depends
only on the lag |i - j| mod N, so one bump row gives every mass and the
convolution is one FFT correlation, O(N log N).  Every other mesh (S^2, or
a circle mesh that is not equal-angle) takes the dense pass over row blocks
of the N x N bump table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import PositionMap
from .pairs import row_blocks, sq_dists
from .sphere import SphereMesh, is_equal_angle_circle


def bump_profile(r: np.ndarray) -> np.ndarray:
    """Smooth compactly supported radial bump, vanishing for |r| >= 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass(frozen=True)
class Kernel:
    """Mollification kernel resolved on a specific mesh."""

    epsilon: float
    d_epsilon: float
    raw_masses: np.ndarray  # per-vertex quadrature of the unscaled bump


def _check_scale(epsilon: float, mesh: SphereMesh) -> None:
    if not 0.0 < epsilon <= 0.3:
        raise ValueError(f"epsilon {epsilon} outside (0, 0.3]")
    if mesh.spacing > epsilon / 4.0:
        raise ValueError(f"mesh spacing {mesh.spacing:.4g} too coarse for epsilon {epsilon}")


def _bump_pass(epsilon: float, mesh: SphereMesh, f: np.ndarray | None = None):
    """Bump masses b @ w and, given f, (b * w) @ f / masses: one bump table b per
    row block, or one bump row and an FFT on the equal-angle circle."""
    if is_equal_angle_circle(mesh):
        return _circle_bump_pass(epsilon, mesh, f)
    verts = mesh.vertices
    w = mesh.weights
    n = mesh.n_vertices
    masses = np.empty(n)
    out = None if f is None else np.empty_like(f)
    for s, e in row_blocks(n, n):
        b = bump_profile(np.sqrt(sq_dists(verts[s:e], verts)) / epsilon)
        masses[s:e] = b @ w
        if f is not None:
            out[s:e] = ((b * w[None, :]) @ f) / masses[s:e, None]
    return masses, out


def _circle_bump_pass(epsilon: float, mesh: SphereMesh, f: np.ndarray | None):
    """`_bump_pass` on the equal-angle circle: the row b_k = bump(|v_0 - v_k| / epsilon)
    holds every lag, each vertex has mass w * sum(b), and (b * w) @ f is the
    circular correlation of f with b."""
    n = mesh.n_vertices
    w = mesh.weights[0]
    b = bump_profile(np.sqrt(sq_dists(mesh.vertices[:1], mesh.vertices)[0]) / epsilon)
    masses = np.full(n, w * b.sum())
    if f is None:
        return masses, None
    spectrum = np.fft.rfft(f, axis=0) * np.conj(np.fft.rfft(b))[:, None]
    return masses, np.fft.irfft(spectrum, n=n, axis=0) * w / masses[0]


def mollifier_kernel(epsilon: float, mesh: SphereMesh) -> Kernel:
    """Normalized kernel at scale epsilon; rejects under-resolved meshes."""
    _check_scale(epsilon, mesh)
    masses, _ = _bump_pass(epsilon, mesh)
    # ambient codimension: the surface is (dim)-dimensional, the bump scale
    # normalizer is epsilon^dim
    d_eps = float(epsilon**mesh.dim / np.mean(masses))
    return Kernel(float(epsilon), d_eps, masses)


def mollify_on_sphere(
    samples_or_map,
    epsilon: float,
    mesh: SphereMesh,
) -> np.ndarray:
    """Componentwise spherical convolution at every mesh vertex."""
    epsilon = float(epsilon)
    _check_scale(epsilon, mesh)
    if isinstance(samples_or_map, PositionMap):
        f = samples_or_map(mesh.vertices)
    else:
        f = np.asarray(samples_or_map, dtype=float)
        if len(f) != mesh.n_vertices:
            raise ValueError("sample count does not match the mesh")
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    _, out = _bump_pass(epsilon, mesh, f)
    return out[:, 0] if squeeze else out


def sphere_gradient_sup(samples: np.ndarray, mesh: SphereMesh) -> float:
    """Max finite-difference gradient norm along mesh adjacency."""
    f = np.asarray(samples, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if mesh.dim == 1:
        # central differences on the uniform circle
        fwd = np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)
        dx = np.linalg.norm(np.roll(mesh.vertices, -1, axis=0) - np.roll(mesh.vertices, 1, axis=0), axis=1)
        return float(np.max(np.linalg.norm(fwd, axis=1) / dx))
    i = mesh.cells[:, [0, 1, 2]].ravel()
    j = mesh.cells[:, [1, 2, 0]].ravel()
    df = np.linalg.norm(f[i] - f[j], axis=1)
    dx = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j], axis=1)
    return float(np.max(df / dx))


def mollification_bounds(
    pmap: PositionMap,
    epsilon: float,
    alpha: float,
    mesh: SphereMesh,
) -> dict:
    """Sup deviation and gradient of the mollified restriction, with the
    scale-normalized ratios sup/eps^alpha and grad/eps^(alpha-1)."""
    raw = pmap(mesh.vertices)
    smooth = mollify_on_sphere(raw, epsilon, mesh)
    sup_dev = float(np.max(np.linalg.norm(smooth - raw, axis=1)))
    grad_sup = sphere_gradient_sup(smooth, mesh)
    return {
        "epsilon": float(epsilon),
        "sup_deviation": sup_dev,
        "grad_sup": grad_sup,
        "bound_ratios": (sup_dev / epsilon**alpha, grad_sup / epsilon ** (alpha - 1.0)),
    }
