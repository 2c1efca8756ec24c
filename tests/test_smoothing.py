import numpy as np
import pytest

from kakeya_lab.maps import make_map
from kakeya_lab.smoothing import (
    bump_profile,
    mollification_bounds,
    mollifier_kernel,
    mollify_on_sphere,
)
from kakeya_lab.sphere import sample_sphere


@pytest.fixture(scope="module")
def circle_1024():
    return sample_sphere(1, 1024)


def test_profile_compact_support():
    assert bump_profile(np.array([1.0]))[0] == 0.0
    assert bump_profile(np.array([1.5]))[0] == 0.0
    assert bump_profile(np.array([0.0]))[0] == pytest.approx(np.exp(-1.0))
    r = np.linspace(0, 2, 101)
    assert np.all(bump_profile(r) >= 0.0)


def test_kernel_mass_is_one_everywhere(circle_1024):
    # per-vertex normalization makes the quadrature mass exactly one
    kernel = mollifier_kernel(0.1, circle_1024)
    ones = np.ones(circle_1024.n_vertices)
    out = mollify_on_sphere(ones, kernel.epsilon, circle_1024)
    assert np.max(np.abs(out - 1.0)) < 1e-8


def test_kernel_normalizer_scale_stable(circle_1024):
    k1 = mollifier_kernel(0.1, circle_1024)
    k2 = mollifier_kernel(0.05, circle_1024)
    assert 0.1 <= k1.d_epsilon <= 10.0
    assert 0.1 <= k2.d_epsilon <= 10.0
    assert max(k1.d_epsilon, k2.d_epsilon) / min(k1.d_epsilon, k2.d_epsilon) < 2.0


def test_kernel_rejects_coarse_mesh():
    coarse = sample_sphere(1, 64)
    with pytest.raises(ValueError):
        mollifier_kernel(0.05, coarse)
    with pytest.raises(ValueError):
        mollifier_kernel(0.5, sample_sphere(1, 1024))


def test_constant_map_unchanged(circle_1024):
    out = mollify_on_sphere(make_map("constant", p=[0.3, -0.2]), 0.1, circle_1024)
    assert np.max(np.abs(out - np.array([0.3, -0.2]))) < 1e-8


def test_first_harmonic_damping(circle_1024):
    # smoothing the embedding itself shrinks it by the kernel's first
    # circular coefficient, just below one
    out = mollify_on_sphere(circle_1024.vertices, 0.1, circle_1024)
    lam = np.linalg.norm(out, axis=1)
    assert np.all(lam > 0.99)
    assert np.all(lam < 1.0)
    # independent oracle: dense quadrature of the kernel's first circular
    # Fourier coefficient
    phi = 2 * np.pi * np.arange(1 << 16) / (1 << 16)
    chord = 2 * np.sin(np.abs(np.mod(phi + np.pi, 2 * np.pi) - np.pi) / 2)
    ker = bump_profile(chord / 0.1)
    lam_oracle = np.sum(ker * np.cos(phi)) / np.sum(ker)
    assert np.max(np.abs(lam - lam_oracle)) < 1e-4


def test_sup_deviation_vanishes_for_all_catalog_maps(circle_1024):
    for m in (
        make_map("radial_scale", r=0.5),
        make_map("polynomial", coeffs=[0.1, -0.3, 0.0, 0.2]),
        make_map("lacunary_fourier", alpha=0.7, terms=10, seed=9),
    ):
        raw = m(circle_1024.vertices)
        devs = []
        for eps in (0.2, 0.1, 0.05):
            out = mollify_on_sphere(raw, eps, circle_1024)
            devs.append(np.max(np.linalg.norm(out - raw, axis=1)))
        assert devs[0] >= devs[1] * 0.95 and devs[1] >= devs[2] * 0.95
        assert devs[2] < devs[0] or devs[0] < 1e-12


def test_linearity(circle_1024):
    rng = np.random.default_rng(0)
    f = rng.normal(size=(1024, 2))
    g = rng.normal(size=(1024, 2))
    a = 1.7
    lhs = mollify_on_sphere(a * f + g, 0.08, circle_1024)
    rhs = a * mollify_on_sphere(f, 0.08, circle_1024) + mollify_on_sphere(g, 0.08, circle_1024)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_sup_deviation_decreases_along_halvings(circle_1024):
    m = make_map("lacunary_fourier", alpha=0.6, terms=10, seed=2)
    raw = m(circle_1024.vertices)
    devs = []
    for eps in (0.2, 0.1, 0.05):
        out = mollify_on_sphere(raw, eps, circle_1024)
        devs.append(np.max(np.linalg.norm(out - raw, axis=1)))
    assert devs[1] <= devs[0] * 1.05
    assert devs[2] <= devs[1] * 1.05


def test_bound_ratios_stable_for_matching_exponent():
    mesh = sample_sphere(1, 4096)
    m = make_map("lacunary_fourier", alpha=0.8, terms=12, seed=7)
    ratios = [
        mollification_bounds(m, eps, 0.8, mesh)["bound_ratios"]
        for eps in (0.1, 0.05, 0.025)
    ]
    sups = [r[0] for r in ratios]
    grads = [r[1] for r in ratios]
    assert max(sups) / min(sups) <= 2.0
    assert max(grads) / min(grads) <= 2.0


def test_lipschitz_map_gradient_not_amplified(circle_1024):
    report = mollification_bounds(make_map("radial_scale", r=0.5), 0.05, 1.0, circle_1024)
    assert report["sup_deviation"] < 1e-3
    assert report["grad_sup"] <= 0.5 * 1.1


def test_constant_map_bounds_vanish(circle_1024):
    report = mollification_bounds(make_map("constant", p=[0.4, 0.4]), 0.1, 1.0, circle_1024)
    assert report["sup_deviation"] < 1e-12
    assert report["grad_sup"] < 1e-12
