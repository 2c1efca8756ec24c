import numpy as np
import pytest

from kakeya_lab.maps import lipschitz_constant_on_net, make_map
from kakeya_lab.measure import (
    build_tube_family,
    cone_coverage_check,
    line_kakeya_cover,
    lipschitz_tube_experiment,
    rasterize_image_measure,
    tube_union_volume,
)


def test_cone_measure_close_to_closed_form():
    est = rasterize_image_measure(make_map("zero"), 0.02)
    assert abs(est.value - np.pi / 3) / (np.pi / 3) < 0.15
    assert est.value >= np.pi / 3  # outer approximation


def test_cone_measure_translation_invariant():
    a = rasterize_image_measure(make_map("zero"), 0.02)
    b = rasterize_image_measure(make_map("constant", p=[0.1, 0.2]), 0.02)
    assert abs(a.value - b.value) <= 1e-9


def test_cone_measure_decreases_under_halving():
    vals = [rasterize_image_measure(make_map("zero"), h).value for h in (0.08, 0.04, 0.02)]
    assert vals[0] > vals[1] > vals[2] > np.pi / 3


def test_rasterize_rejects_bad_h_and_raw_net():
    with pytest.raises(ValueError):
        rasterize_image_measure(make_map("zero"), 0.2)
    raw = make_map(
        "grid_sampled",
        points=np.array([[0.0, 0.0], [0.5, 0.0]]),
        values=np.zeros((2, 2)),
    )
    with pytest.raises(ValueError):
        rasterize_image_measure(raw, 0.05)


def test_tube_family_net_properties():
    fam = build_tube_family(make_map("zero"), 0.1)
    # size within the packing band around delta^-2
    assert 25 <= fam.count <= 400
    d = np.linalg.norm(fam.net[:, None, :] - fam.net[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 0.1 - 1e-12
    assert np.all(fam.centers == 0.0)


def test_tube_family_maximality():
    # no candidate-grid point can be added without breaking separation
    fam = build_tube_family(make_map("zero"), 0.1)
    step = 0.1 / 4
    m = int(np.floor(1.0 / step))
    ax = np.arange(-m, m + 1) * step
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    cand = np.stack([X.ravel(), Y.ravel()], axis=1)
    cand = cand[np.einsum("ij,ij->i", cand, cand) <= 1.0]
    rng = np.random.default_rng(0)
    for p in cand[rng.permutation(len(cand))[:500]]:
        assert np.min(np.linalg.norm(fam.net - p, axis=1)) < 0.1 - 1e-12


def test_tube_family_rejects_bad_delta():
    with pytest.raises(ValueError):
        build_tube_family(make_map("zero"), 0.5)


def test_single_tube_volume_is_cylinder():
    from kakeya_lab.measure import TubeFamily

    net = np.array([[0.05, -0.1]])
    fam = TubeFamily(0.05, net, np.array([[0.3, 0.0]]), 3)
    vol = tube_union_volume(fam, 0.0125).value
    length = np.sqrt(1.0 + 0.05**2 + 0.1**2)
    cylinder = np.pi * 0.05**2 * length
    assert abs(vol - cylinder) / cylinder < 0.15


def test_two_disjoint_tubes_add():
    from kakeya_lab.measure import TubeFamily

    one = TubeFamily(0.05, np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]), 3)
    two = TubeFamily(
        0.05,
        np.array([[0.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.5, 0.0]]),
        3,
    )
    v1 = tube_union_volume(one, 0.0125).value
    v2 = tube_union_volume(two, 0.0125).value
    assert abs(v2 - 2 * v1) / (2 * v1) < 0.05


def test_union_volume_subadditive_and_dominates_single():
    fam = build_tube_family(make_map("zero"), 0.1)
    union = tube_union_volume(fam, 0.025).value
    from kakeya_lab.measure import TubeFamily

    single = TubeFamily(0.1, fam.net[:1], fam.centers[:1], 3)
    single_vol = tube_union_volume(single, 0.025).value
    assert union >= single_vol
    assert union <= fam.count * single_vol * 1.05


def test_cone_filled_by_zero_map_tubes():
    fam = build_tube_family(make_map("zero"), 0.02)
    vol = tube_union_volume(fam, 0.005).value
    assert vol >= 0.85 * np.pi / 3


def test_union_volume_rejects_coarse_grid():
    fam = build_tube_family(make_map("zero"), 0.05)
    with pytest.raises(ValueError):
        tube_union_volume(fam, 0.05)


def test_lipschitz_experiment_products_positive():
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=21)
    rows = lipschitz_tube_experiment(m, [1.0, 2.0], 0.05)
    assert all(r.scaled_product > 0 for r in rows)
    assert rows[0].scale == 1.0
    # scaled family really has net Lipschitz constant = scale
    fam = build_tube_family(m, 0.05)
    lip = lipschitz_constant_on_net(fam.net, fam.centers)
    norm = lipschitz_constant_on_net(fam.net, 2.0 * fam.centers / lip)
    assert norm == pytest.approx(2.0, rel=1e-9)


def test_lipschitz_experiment_rejects_out_of_range_scale():
    with pytest.raises(ValueError):
        lipschitz_tube_experiment(make_map("zero"), [0.1], 0.05)


def test_line_cover_constant_map():
    m = make_map("constant", p=[0.1, 0.0, 0.2], n=3, domain_kind="sphere")
    x = np.array([3.0, 0.0, 0.0])
    result = line_kakeya_cover(m, x)
    expected = (x - np.array([0.1, 0.0, 0.2]))
    expected /= np.linalg.norm(expected)
    assert result.residual < 1e-9
    np.testing.assert_allclose(result.direction, expected, atol=1e-7)


def test_line_cover_radial_map():
    m = make_map("radial_scale", r=0.2, n=3, domain_kind="sphere")
    result = line_kakeya_cover(m, np.array([0.0, 0.0, 5.0]))
    np.testing.assert_allclose(result.direction, [0.0, 0.0, 1.0], atol=1e-7)
    assert result.distance == pytest.approx(4.8, abs=1e-6)


def test_line_cover_reconstructs_target():
    m = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=0.5, terms=6, seed=9)
    x = np.array([2.0, 0.0, 0.0])
    result = line_kakeya_cover(m, x, tol=1e-9)
    recon = m(result.direction) + result.distance * result.direction
    assert np.linalg.norm(recon - x) <= 2e-9 * (1 + result.distance) + 1e-8


def test_line_cover_rejects_interior_point():
    m = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=0.5, terms=6, seed=9)
    with pytest.raises(ValueError):
        line_kakeya_cover(m, np.array([0.1, 0.0, 0.0]))


def test_line_cover_random_maps_all_converge():
    x = np.array([2.0, 0.0, 0.0])
    for seed in range(10):
        m = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=0.5, terms=6, seed=seed)
        assert line_kakeya_cover(m, x, tol=1e-7).residual < 1e-6


def test_cone_coverage_zero_map():
    m = make_map("zero", n=3, domain_kind="sphere")
    cov = cone_coverage_check(m, 0.3, sample_count=50, radius_bound=0.1)
    assert cov.fraction == 1.0


def test_cone_coverage_shifted_constant():
    m = make_map("constant", p=[0.0, 0.0, 0.1], n=3, domain_kind="sphere")
    cov = cone_coverage_check(m, 0.3, sample_count=50)
    assert cov.fraction == 1.0


def test_rasterize_refuses_oversized_sampling(monkeypatch):
    import kakeya_lab.measure as measure

    def no_meshgrid(*args, **kwargs):
        raise AssertionError("allocated before the preflight check")

    monkeypatch.setattr(measure.np, "meshgrid", no_meshgrid)
    lac = make_map("lacunary_fourier", alpha=0.8, terms=12, seed=7)
    with pytest.raises(ValueError, match="larger h"):
        rasterize_image_measure(lac, 0.05)
