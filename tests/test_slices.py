import numpy as np
import pytest

from kakeya_lab.convergence import _agreement, _collar_radius, _collar_runs
from kakeya_lab.gridding import CellGrid, grid_over, run_cells
from kakeya_lab.maps import holder_estimate, make_map, parse_map_spec
from kakeya_lab.slices import (
    GridSignedVolume,
    SVProfile,
    fit_sv_polynomial,
    isoperimetric_check,
    loop_area,
    minimal_abs_integral,
    neighborhood_measure,
    signed_volume_grid,
    signed_volume_stokes,
    slice_loop,
    sv_lower_bound_check,
    sweep_signed_volume,
)
from kakeya_lab.smoothing import mollify_on_sphere
from kakeya_lab.sphere import sample_sphere
from kakeya_lab.winding import field_grid, make_slice_loop, winding_field

from test_gridding import _reference_mark_near_polyline
from test_winding import _reference_crossing_winding_rows

# brute-force minimization oracle output, frozen before the build:
# min over (a, b) of the [0,1]-integral of |pi t^2 + b t + a| is pi/16,
# attained at a = 3 pi/16, b = -pi
KAPPA_PI = 0.19634954


def square_loop():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        for s in np.linspace(0, 1, 8, endpoint=False):
            pts.append(a + s * (b - a))
    return make_slice_loop(0.5, np.asarray(pts))


def test_slice_loop_radial_offset():
    mesh = sample_sphere(1, 256)
    loop = slice_loop(make_map("radial_scale", r=0.5), 0.3, mesh)
    radii = np.linalg.norm(loop.vertices, axis=1)
    np.testing.assert_allclose(radii, 0.8, atol=1e-12)
    assert not loop.degenerate


def test_slice_loop_degenerate_at_zero():
    mesh = sample_sphere(1, 256)
    loop = slice_loop(make_map("zero"), 0.0, mesh)
    assert loop.degenerate
    assert signed_volume_stokes(loop) == 0.0
    assert loop_area(loop) == 0.0


def test_shoelace_square():
    assert signed_volume_stokes(square_loop()) == pytest.approx(1.0)
    assert loop_area(square_loop()) == pytest.approx(4.0)


def test_shoelace_circle_and_reversal():
    th = 2 * np.pi * np.arange(1024) / 1024
    pts = 2.0 * np.stack([np.cos(th), np.sin(th)], axis=1)
    loop = make_slice_loop(0.5, pts)
    assert signed_volume_stokes(loop) == pytest.approx(4 * np.pi, abs=1e-3)
    rev = make_slice_loop(0.5, pts[::-1])
    assert signed_volume_stokes(rev) == pytest.approx(-4 * np.pi, abs=1e-3)
    assert loop_area(loop) == pytest.approx(4 * np.pi, abs=1e-4)


def test_grid_volume_matches_stokes():
    mesh = sample_sphere(1, 256)
    loop = slice_loop(make_map("zero"), 1.0, mesh)
    est = signed_volume_grid(loop, 0.01)
    assert est.value == pytest.approx(np.pi, abs=0.05)
    assert est.masked_cells > 0


def test_grid_volume_translation_invariance():
    th = 2 * np.pi * np.arange(256) / 256
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    base = signed_volume_grid(make_slice_loop(0.5, pts), 0.02).value
    moved = signed_volume_grid(make_slice_loop(0.5, pts + 100.0), 0.02).value
    assert abs(base - moved) < 1e-9


def test_grid_vs_stokes_discrepancy_bound():
    mesh = sample_sphere(1, 512)
    for spec in (("zero", {}), ("radial_scale", {"r": 0.5}),
                 ("lacunary_fourier", {"alpha": 0.7, "terms": 8, "seed": 4})):
        m = make_map(spec[0], **spec[1])
        loop = slice_loop(m, 0.6, mesh)
        h = 0.01
        gap = abs(signed_volume_stokes(loop) - signed_volume_grid(loop, h).value)
        assert gap <= 3.0 * h * loop_area(loop)


def test_sweep_zero_map_is_disk_areas():
    mesh = sample_sphere(1, 4096)
    t_grid = np.linspace(0, 1, 64)
    prof = sweep_signed_volume(make_map("zero"), t_grid, mesh)
    np.testing.assert_allclose(prof.sv_values, np.pi * t_grid**2, atol=1e-5)


def test_sweep_radial_closed_form():
    mesh = sample_sphere(1, 4096)
    t_grid = np.linspace(0, 1, 64)
    prof = sweep_signed_volume(make_map("radial_scale", r=0.5), t_grid, mesh)
    np.testing.assert_allclose(prof.sv_values, np.pi * (t_grid + 0.5) ** 2, atol=1e-5)


def test_sweep_methods_agree_within_bound():
    mesh = sample_sphere(1, 1024)
    t_grid = np.linspace(0, 1, 8)
    m = make_map("lacunary_fourier", alpha=0.8, terms=8, seed=7)
    h = 0.02
    stokes = sweep_signed_volume(m, t_grid, mesh, epsilon=0.05, method="stokes")
    grid = sweep_signed_volume(m, t_grid, mesh, epsilon=0.05, method="grid", grid_h=h)
    for i, t in enumerate(t_grid):
        loop = slice_loop(m, t, mesh, epsilon=0.05)
        assert abs(stokes.sv_values[i] - grid.sv_values[i]) <= 3.0 * h * loop_area(loop)


def test_fit_zero_map_coefficients():
    mesh = sample_sphere(1, 4096)
    prof = sweep_signed_volume(make_map("zero"), np.linspace(0, 1, 64), mesh)
    fit = fit_sv_polynomial(prof)
    np.testing.assert_allclose(fit.coefficients, [0.0, 0.0, np.pi], atol=1e-4)
    assert fit.residual_rms < 1e-6


def test_fit_radial_coefficients():
    mesh = sample_sphere(1, 4096)
    prof = sweep_signed_volume(make_map("radial_scale", r=0.5), np.linspace(0, 1, 64), mesh)
    fit = fit_sv_polynomial(prof)
    np.testing.assert_allclose(fit.coefficients, [np.pi / 4, np.pi, np.pi], atol=1e-4)


def test_fit_rejects_short_profile():
    prof = SVProfile(np.linspace(0, 1, 4), np.zeros(4))
    with pytest.raises(ValueError):
        fit_sv_polynomial(prof)


def test_fit_rejects_clustered_grid():
    t = np.concatenate([np.full(8, 0.5) + np.arange(8) * 1e-13, [0.5 + 1e-10]])
    prof = SVProfile(np.sort(t), np.ones(9))
    with pytest.raises(ValueError):
        fit_sv_polynomial(prof)


def test_minimal_abs_integral_matches_frozen_oracle():
    kappa = minimal_abs_integral(np.pi)
    assert kappa == pytest.approx(KAPPA_PI, abs=2e-5)
    assert kappa == pytest.approx(np.pi / 16, abs=2e-5)


def test_minimal_abs_integral_closed_form():
    assert minimal_abs_integral(np.pi, degree=3) == np.pi / 64
    assert minimal_abs_integral(-2.5, degree=3) == 2.5 / 64
    # attained by L 4^-d U_d(2t - 1), U_d the Chebyshev polynomial of the
    # second kind, and no perturbation of its lower coefficients does better
    t = (np.arange(200_000) + 0.5) / 200_000
    x = 2.0 * t - 1.0
    u_prev, u = np.ones_like(x), 2.0 * x
    rng = np.random.default_rng(4)
    for degree in range(1, 5):
        lead = 4.0 * np.pi / 3.0
        kappa = minimal_abs_integral(lead, degree)
        extremal = lead * 4.0**-degree * u
        assert np.mean(np.abs(extremal)) == pytest.approx(kappa, rel=1e-6)
        for _ in range(20):
            bump = np.polyval(rng.normal(scale=0.05 * kappa, size=degree), t)
            assert np.mean(np.abs(extremal + bump)) >= kappa * (1 - 1e-6)
        u_prev, u = u, 2.0 * x * u - u_prev


def test_grid_signed_volume_and_isoperimetric_reuse_a_field():
    loop = slice_loop(make_map("lacunary_fourier", alpha=0.7, terms=10, seed=3), 0.4,
                      sample_sphere(1, 512))
    field = winding_field(loop, 0.02)
    assert signed_volume_grid(loop, 0.02, field=field) == signed_volume_grid(loop, 0.02)
    assert isoperimetric_check(loop, 0.02, field=field) == isoperimetric_check(loop, 0.02)


def test_grid_signed_volume_and_isoperimetric_match_the_rendered_field():
    loop = slice_loop(make_map("lacunary_fourier", alpha=0.7, terms=10, seed=3), 0.4,
                      sample_sphere(1, 512))
    field = winding_field(loop, 0.02)
    values, mask, cell = field.values, field.mask, field.grid.cell_measure
    assert signed_volume_grid(loop, 0.02) == GridSignedVolume(float(values.sum() * cell), int(mask.sum()),
                                                              field.grid.n_cells)
    assert isoperimetric_check(loop, 0.02).lhs == float(np.sum(values**2.0) * cell) ** 0.5


def _reference_planes(loop, grid):
    """The winding and h/2 mask planes of `loop` on `grid` from the
    brute-force references; a degenerate loop has neither."""
    if loop.degenerate:
        return np.zeros(grid.shape, dtype=np.int64), np.zeros(grid.shape, dtype=bool)
    return (_reference_crossing_winding_rows(loop.vertices, grid),
            _reference_mark_near_polyline(grid, loop.vertices, grid.h / 2.0))


def _assert_runs_match_plane(loop, h):
    got = signed_volume_grid(loop, h)
    if loop.degenerate:
        assert got == GridSignedVolume(0.0, 0, 0)
        return got
    grid = field_grid(loop, h)
    values, mask = _reference_planes(loop, grid)
    want = float(values[~mask].sum() * grid.cell_measure)
    assert got == GridSignedVolume(want, int(mask.sum()), grid.n_cells)
    return got


def _assert_sums_match_plane(raw, loop, grid, collar):
    """The sums `convergence_split` takes of `loop`'s field against the raw
    loop's, from runs, equal those of the reference planes: the total, the
    collar sum and area, the agreement counts (with and without the collar)
    and the sum of w^2."""
    f_raw, f = winding_field(raw, grid.h, grid=grid), winding_field(loop, grid.h, grid=grid)
    w_raw, m_raw = _reference_planes(raw, grid)
    w, m = _reference_planes(loop, grid)
    runs = _collar_runs(grid, raw, collar)
    in_collar = (_reference_mark_near_polyline(grid, raw.vertices, collar) if collar > 0.0
                 else np.zeros(grid.shape, dtype=bool))
    assert f.unmasked_sum() == w[~m].sum()
    assert f.unmasked_sum(within=runs) == w[in_collar & ~m].sum()
    assert run_cells(runs) == in_collar.sum()
    both = ~(m | m_raw)
    assert _agreement(f, f_raw) == (both.sum(), np.sum(w[both] == w_raw[both]))
    both &= ~in_collar
    assert _agreement(f, f_raw, runs) == (both.sum(), np.sum(w[both] == w_raw[both]))
    assert f.unmasked_sum(power=2) == np.sum(w[~m] ** 2)
    return w, m


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_convergence_sums_match_the_planes_on_the_benchmark_inputs(seed):
    # the inputs of the `convergence-split` benchmark at this seed
    pmap = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5 + seed)
    mesh = sample_sphere(1, 1024)
    regularity = holder_estimate(pmap)
    raw_samples = pmap(mesh.vertices)
    smooths = {eps: mollify_on_sphere(raw_samples, eps, mesh) for eps in (0.15, 0.06, 0.025)}
    for t in np.linspace(0.0, 1.0, 3):
        raw = slice_loop(pmap, t, mesh, samples=raw_samples)
        grid = grid_over(raw.vertices, 0.02, pad=0.3)
        for eps, smooth in smooths.items():
            collar = _collar_radius(eps, None, regularity)
            assert collar > 0.0
            _assert_sums_match_plane(raw, slice_loop(pmap, t, mesh, samples=smooth), grid, collar)


def test_convergence_sums_match_the_planes_on_circles():
    th = 2 * np.pi * np.arange(512) / 512
    circle = np.stack([np.cos(th), np.sin(th)], axis=1)
    single = make_slice_loop(0.5, circle)
    loops = {
        "winding 2": make_slice_loop(0.5, np.concatenate([circle, circle])),
        "flat": make_slice_loop(0.5, np.stack([np.cos(th), np.zeros_like(th)], axis=1)),
        "tiny": make_slice_loop(0.5, 1e-9 * circle + 0.0123),
        "degenerate": slice_loop(make_map("zero"), 0.0, sample_sphere(1, 512)),
    }
    grid = grid_over(circle, 0.02, pad=0.3)
    for loop in loops.values():
        for collar in (0.0, 0.1):
            _assert_sums_match_plane(single, loop, grid, collar)
            _assert_sums_match_plane(loop, single, grid, collar)
    w, m = _assert_sums_match_plane(single, loops["winding 2"], grid, 0.1)
    assert w.max() == 2 and np.any(m)


def test_grid_signed_volume_runs_match_the_plane_on_the_sweep_grid_heights():
    # the inputs of the `sweep-grid` benchmark: map seed 7, mesh 2,048, h = 0.005
    pmap = parse_map_spec("lacunary:alpha=0.8,terms=12,seed=7", n=3)
    mesh = sample_sphere(1, 2048)
    samples = pmap(mesh.vertices)
    for t in np.linspace(0.0, 1.0, 16):
        got = _assert_runs_match_plane(slice_loop(pmap, t, mesh, samples=samples), 0.005)
        assert got.masked_cells > 0


def test_grid_signed_volume_runs_match_the_plane_on_circles():
    th = 2 * np.pi * np.arange(512) / 512
    circle = np.stack([np.cos(th), np.sin(th)], axis=1)
    # winding 2: the circle traversed twice
    double = _assert_runs_match_plane(make_slice_loop(0.5, np.concatenate([circle, circle])), 0.01)
    single = _assert_runs_match_plane(make_slice_loop(0.5, circle), 0.01)
    assert double.value == pytest.approx(2.0 * single.value)
    zero = _assert_runs_match_plane(slice_loop(make_map("zero"), 1.0, sample_sphere(1, 1024)), 0.01)
    assert zero.value == pytest.approx(np.pi, abs=0.05)
    degenerate = slice_loop(make_map("zero"), 0.0, sample_sphere(1, 256))
    assert (_assert_runs_match_plane(degenerate, 0.01).masked_cells, degenerate.degenerate) == (0, True)
    # a flat loop crosses no row of centers, and a tiny one marks no cell
    flat = make_slice_loop(0.5, np.stack([np.cos(th), np.zeros_like(th)], axis=1))
    assert _assert_runs_match_plane(flat, 0.01).value == 0.0
    tiny = make_slice_loop(0.5, 1e-9 * circle + 0.0123)
    assert not tiny.degenerate
    assert _assert_runs_match_plane(tiny, 0.01).masked_cells == 0


@pytest.mark.parametrize("right", [9.875, 11.3])
def test_grid_signed_volume_runs_reach_both_grid_edges(right):
    # a rectangle through the centers of column 0 and of column nx - 1 (or
    # past the grid's right edge) on a binary-exact grid
    grid = CellGrid(np.array([0.0, 0.0]), 0.25, (40, 36))
    corners = np.array([[0.125, 1.3], [right, 1.3], [right, 7.6], [0.125, 7.6]])
    pts = np.concatenate([a + np.linspace(0, 1, 6, endpoint=False)[:, None] * (b - a)
                          for a, b in zip(corners, np.roll(corners, -1, axis=0))])
    loop = make_slice_loop(0.5, pts)
    field = winding_field(loop, grid.h, grid=grid)
    assert field.mask[0].any() and field.mask[-1].any()
    values, mask = _reference_planes(loop, grid)
    assert run_cells(field.runs) == mask.sum()
    assert field.unmasked_sum() == values[~mask].sum() > 0


def test_lower_bound_check_zero_map():
    mesh = sample_sphere(1, 2048)
    prof = sweep_signed_volume(make_map("zero"), np.linspace(0, 1, 256), mesh)
    fit = fit_sv_polynomial(prof)
    check = sv_lower_bound_check(fit, prof)
    assert check.integral_abs_sv == pytest.approx(np.pi / 3, abs=1e-4)
    assert check.integral_abs_sv >= 0.95 * check.kappa
    assert check.passed


def test_lower_bound_check_radial_map():
    mesh = sample_sphere(1, 2048)
    prof = sweep_signed_volume(make_map("radial_scale", r=0.5), np.linspace(0, 1, 256), mesh)
    check = sv_lower_bound_check(fit_sv_polynomial(prof), prof)
    assert check.integral_abs_sv == pytest.approx(np.pi * 13 / 12, abs=1e-3)
    assert check.passed


def test_lower_bound_rejects_wrong_leading():
    prof = SVProfile(np.linspace(0, 1, 16), np.linspace(0, 1, 16) ** 2)
    fit = fit_sv_polynomial(prof)  # leading coefficient 1, far from pi
    with pytest.raises(ValueError):
        sv_lower_bound_check(fit, prof)


def test_neighborhood_measure_annulus():
    mesh = sample_sphere(1, 256)
    loop = slice_loop(make_map("zero"), 1.0, mesh)
    measured = neighborhood_measure(loop, 0.1, 0.01)
    exact = np.pi * (1.1**2 - 0.9**2)
    assert abs(measured - exact) / exact < 0.03


def test_neighborhood_measure_monotone_in_radius():
    mesh = sample_sphere(1, 256)
    m = make_map("lacunary_fourier", alpha=0.6, terms=8, seed=1)
    loop = slice_loop(m, 0.5, mesh)
    vals = [neighborhood_measure(loop, r, 0.01) for r in (0.05, 0.08, 0.12)]
    assert vals[0] <= vals[1] <= vals[2]


def test_neighborhood_measure_degenerate_loop_is_disk():
    mesh = sample_sphere(1, 256)
    loop = slice_loop(make_map("zero"), 0.0, mesh)
    measured = neighborhood_measure(loop, 0.2, 0.005)
    exact = np.pi * 0.04
    assert abs(measured - exact) / exact < 0.03


def test_neighborhood_measure_rejects_coarse_grid():
    mesh = sample_sphere(1, 64)
    loop = slice_loop(make_map("zero"), 1.0, mesh)
    with pytest.raises(ValueError):
        neighborhood_measure(loop, 0.1, 0.05)


def test_isoperimetric_circle_equality():
    mesh = sample_sphere(1, 1024)
    loop = slice_loop(make_map("zero"), 1.0, mesh)
    result = isoperimetric_check(loop, 0.01)
    assert result.passed
    assert result.ratio == pytest.approx(1.0 / (2 * np.sqrt(np.pi)), rel=0.01)


def test_isoperimetric_double_circle_equality():
    th = 2 * np.pi * np.arange(2048) / 2048
    pts = np.stack([np.cos(2 * th), np.sin(2 * th)], axis=1)
    result = isoperimetric_check(make_slice_loop(0.5, pts), 0.01)
    assert result.ratio == pytest.approx(1.0 / (2 * np.sqrt(np.pi)), rel=0.01)
    assert result.lhs == pytest.approx(2 * np.sqrt(np.pi), rel=0.01)


def test_isoperimetric_degenerate():
    mesh = sample_sphere(1, 256)
    loop = slice_loop(make_map("zero"), 0.0, mesh)
    result = isoperimetric_check(loop, 0.01)
    assert result.lhs == 0.0
    assert result.passed


def test_leading_coefficient_independent_of_epsilon():
    mesh = sample_sphere(1, 2048)
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5)
    t_grid = np.linspace(0, 1, 16)
    leads = []
    for eps in (0.1, 0.05, 0.025):
        prof = sweep_signed_volume(m, t_grid, mesh, epsilon=eps)
        fit = fit_sv_polynomial(prof)
        leads.append(fit.leading_coefficient)
        # exact polynomial structure: relative fit residual under 1%
        assert fit.residual_rms <= 0.01 * np.max(np.abs(prof.sv_values))
    assert max(leads) / min(leads) <= 1.02
    for lead in leads:
        assert abs(lead - np.pi) / np.pi <= 0.02
