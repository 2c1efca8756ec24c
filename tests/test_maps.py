import numpy as np
import pytest

from kakeya_lab import maps
from kakeya_lab.maps import (
    DEFAULT_SCALES,
    holder_estimate,
    lipschitz_constant_on_net,
    make_map,
    mcshane_extend,
    parse_map_spec,
    slobodeckij_seminorm,
)
from kakeya_lab.sphere import sample_sphere


def unit_ring(n):
    th = 2 * np.pi * np.arange(n) / n
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def test_constant_map():
    m = make_map("constant", p=[0.1, 0.2])
    pts = np.array([[0.0, 0.0], [0.5, -0.3], [1.0, 0.0]])
    np.testing.assert_allclose(m(pts), [[0.1, 0.2]] * 3)


def test_radial_scale():
    m = make_map("radial_scale", r=0.5)
    np.testing.assert_allclose(m(np.array([0.4, -0.6])), [0.2, -0.3])


def test_zero_alias():
    m = make_map("zero")
    assert np.all(m(np.array([[0.3, 0.3]])) == 0.0)


def test_lacunary_sup_bound():
    # geometric-series bound: |c| <= sum 2^{-0.8 k} < 1.35, checked densely
    m = make_map("lacunary_fourier", alpha=0.8, terms=12, seed=7)
    ring = unit_ring(2**14)
    sup = np.linalg.norm(m(ring), axis=1).max()
    bound = sum(2.0 ** (-0.8 * k) for k in range(1, 13))
    assert sup <= bound < 1.35


@pytest.mark.parametrize("alpha", [0.6, 1.0])
def test_lacunary_modulus_of_continuity_holds(alpha):
    m = make_map("lacunary_fourier", alpha=alpha, terms=8, seed=1)
    c, a = m.modulus_of_continuity()
    assert a == alpha and np.isfinite(c)
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, size=(40_000, 2))
    x = x[np.linalg.norm(x, axis=1) <= 1.0]
    y = x + rng.normal(scale=10.0 ** rng.uniform(-4, 0, size=(len(x), 1)), size=x.shape)
    y /= np.maximum(np.linalg.norm(y, axis=1), 1.0)[:, None]
    d = np.linalg.norm(x - y, axis=1)
    keep = d > 0
    gaps = np.linalg.norm(m(x[keep]) - m(y[keep]), axis=1)
    assert np.all(gaps <= c * d[keep] ** a)


def test_lacunary_determinism():
    a = make_map("lacunary_fourier", alpha=0.6, terms=10, seed=5)
    b = make_map("lacunary_fourier", alpha=0.6, terms=10, seed=5)
    pts = unit_ring(257)
    assert np.array_equal(a(pts), b(pts))


def test_bandlimited_determinism_and_amplitude():
    a = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=0.5, terms=6, seed=4)
    b = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=0.5, terms=6, seed=4)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(64, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.array_equal(a(pts), b(pts))
    assert a.sup_bound() <= 0.5 + 1e-12


def test_lacunary_rejects_bad_alpha():
    with pytest.raises(ValueError):
        make_map("lacunary_fourier", alpha=1.5, terms=8, seed=1)
    with pytest.raises(ValueError):
        make_map("lacunary_fourier", alpha=0.0, terms=8, seed=1)


def test_polynomial_componentwise():
    m = make_map("polynomial", coeffs=[0.1, 0.0, 0.25])
    out = m(np.array([0.2, -0.4]))
    np.testing.assert_allclose(out, [0.1 + 0.25 * 0.04, 0.1 + 0.25 * 0.16])


def test_parse_map_spec_roundtrip():
    m = parse_map_spec("lacunary:alpha=0.8,terms=12,seed=7")
    assert m.variant == "lacunary_fourier"
    assert m.params["alpha"] == 0.8
    m2 = parse_map_spec("constant:p=0.1;0.2")
    np.testing.assert_allclose(m2(np.array([0.0, 0.0])), [0.1, 0.2])
    with pytest.raises(ValueError):
        parse_map_spec("lacunary:alpha")


def test_grid_spec_loads_csv(tmp_path):
    path = tmp_path / "net.csv"
    rows = np.array([[0.0, 0.0, 0.5, 0.5], [0.5, 0.0, 0.25, 0.0]])
    np.savetxt(path, rows, delimiter=",")
    m = parse_map_spec(f"grid:path={path}")
    np.testing.assert_allclose(m(np.array([0.5, 0.0])), [0.25, 0.0])


def test_holder_radial_is_lipschitz():
    rep = holder_estimate(make_map("radial_scale", r=0.5))
    assert not rep.degenerate
    assert abs(rep.holder_exponent_estimate - 1.0) <= 0.05
    assert abs(rep.holder_constant_estimate - 0.5) <= 0.1


def test_holder_constant_map_degenerate():
    rep = holder_estimate(make_map("constant", p=[0.3, 0.3]))
    assert rep.degenerate
    assert rep.holder_exponent_estimate is None


@pytest.mark.parametrize(
    "alpha,scales",
    [
        # the fit window must sit inside the map's scaling regime: flat
        # spectra saturate near the truncation, so coarser windows read
        # them best, while fast-decaying tails need finer windows
        (0.4, tuple(2.0**-m for m in range(3, 10))),
        (0.6, tuple(2.0**-m for m in range(4, 11))),
        (0.8, tuple(2.0**-m for m in range(5, 12))),
    ],
)
def test_holder_recovers_lacunary_exponent(alpha, scales):
    m = make_map("lacunary_fourier", alpha=alpha, terms=14, seed=7)
    rep = holder_estimate(m, scales=scales)
    assert abs(rep.holder_exponent_estimate - alpha) <= 0.05
    assert rep.fit_diagnostics["reliable"]


def test_holder_rejects_bad_scales():
    with pytest.raises(ValueError):
        holder_estimate(make_map("zero"), scales=(2.0**-20, 0.5))


def _reference_holder_oscillations(vals, scales):
    """The lag loop `_ring_oscillations` replaced: one rolled copy and one
    norm per lag."""
    samples = len(vals)
    chord = lambda j: 2.0 * np.sin(np.pi * j / samples)
    osc = np.zeros(len(scales))
    running = 0.0
    j = 1
    for si, s in enumerate(scales):
        while j <= samples // 2 and chord(j) <= s:
            diff = vals - np.roll(vals, -j, axis=0)
            running = max(running, float(np.max(np.linalg.norm(diff, axis=1))))
            j += 1
        osc[si] = running
    return osc


def _holder_outcome(pmap, scales, samples):
    try:
        return repr(holder_estimate(pmap, scales=scales, samples=samples))
    except ValueError as exc:
        return f"ValueError({exc})"


def _assert_holder_matches_reference(pmap, scales, samples, monkeypatch):
    got = _holder_outcome(pmap, scales, samples)
    with monkeypatch.context() as mp:
        mp.setattr(maps, "_ring_oscillations", _reference_holder_oscillations)
        want = _holder_outcome(pmap, scales, samples)
    assert got == want


HOLDER_WINDOWS = [
    DEFAULT_SCALES,
    tuple(2.0**-m for m in range(2, 9)),
    tuple(2.0**-m for m in range(7, 14)),
    (2.0**-6, 0.25, 0.5, 0.95),  # the last scale takes lags up to about samples / 6
    (2.0**-15, 0.5),  # finer than the ring's spacing: raises
]


@pytest.mark.parametrize("scales", HOLDER_WINDOWS)
@pytest.mark.parametrize(
    "alpha,terms,seed",
    [(0.3, 14, 0), (0.5, 10, 3), (0.75, 12, 7), (0.8, 10, 5), (0.95, 6, 11), (1.0, 4, 2)],
)
def test_holder_matches_reference_lacunary(alpha, terms, seed, scales, monkeypatch):
    pmap = make_map("lacunary_fourier", alpha=alpha, terms=terms, seed=seed)
    _assert_holder_matches_reference(pmap, scales, 2**12, monkeypatch)


@pytest.mark.parametrize("scales", HOLDER_WINDOWS)
@pytest.mark.parametrize(
    "spec", ["radial_scale:r=0.5", "constant:p=0.3;0.3", "zero", "poly:coeffs=0.1;0.4;-0.3"]
)
def test_holder_matches_reference_smooth_and_degenerate(spec, scales, monkeypatch):
    _assert_holder_matches_reference(parse_map_spec(spec), scales, 2**12, monkeypatch)


@pytest.mark.parametrize("samples", [2**14, 4097, 1001])
def test_holder_matches_reference_sample_counts(samples, monkeypatch):
    pmap = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5)
    for scales in (DEFAULT_SCALES, (2.0**-6, 0.25, 0.5, 0.95)):
        _assert_holder_matches_reference(pmap, scales, samples, monkeypatch)


def test_ring_oscillations_reach_the_half_turn():
    # scales are below 1, so holder_estimate never reaches lag samples // 2;
    # called directly with a scale of 2 every lag is taken, the last one
    # reading the extension's final row; on the ring itself that lag is the
    # largest difference
    rng = np.random.default_rng(4)
    for samples in (64, 65):
        for vals in (rng.normal(size=(samples, 2)), unit_ring(samples)):
            got = maps._ring_oscillations(vals, (0.3, 2.0))
            want = _reference_holder_oscillations(vals, (0.3, 2.0))
            assert got.tobytes() == want.tobytes()


def test_sup_bound_is_sampled_once_per_map(monkeypatch):
    a = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=0.5, terms=6, seed=4)
    b = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=0.5, terms=6, seed=4)
    first = a.sup_bound()
    with monkeypatch.context() as mp:
        mp.setattr(maps, "_fibonacci_sphere", lambda count: pytest.fail("sup sampled twice"))
        assert a.sup_bound() == first
    # another map samples its own, to the same float
    assert b.sup_bound() == first


def test_bandlimited_sup_bound_reuses_the_scaling_sample(monkeypatch):
    # the sample that sets the scale also gives sup_bound, to the bit of the
    # evaluated map's maximum, and the raw map is evaluated once per map
    calls = []
    raw = maps.PositionMap._raw_bandlimited

    def counted(self, pts):
        calls.append(len(pts))
        return raw(self, pts)

    for seed, amplitude, terms in ((4, 0.5, 6), (1, 0.9, 6), (2, 0.4, 5), (11, 0.05, 3), (7, 2.0, 9)):
        with monkeypatch.context() as mp:
            mp.setattr(maps.PositionMap, "_raw_bandlimited", counted)
            calls.clear()
            m = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=amplitude, terms=terms, seed=seed)
            sup = m.sup_bound()
            assert calls == [maps._DENSE_SPHERE_SAMPLES]
        evaluated = float(np.max(np.linalg.norm(m(maps._fibonacci_sphere(maps._DENSE_SPHERE_SAMPLES)), axis=1)))
        assert sup == evaluated


def test_slobodeckij_constant_is_zero():
    mesh = sample_sphere(1, 128)
    val = slobodeckij_seminorm(make_map("constant", p=[1.0, 2.0]), 0.5, 2.0, mesh)
    assert val == 0.0


def test_slobodeckij_smooth_map_converges():
    # f = cos on the circle: finite seminorm, stable under refinement
    vals = []
    for res in (256, 512):
        mesh = sample_sphere(1, res)
        vals.append(slobodeckij_seminorm(np.cos(mesh.angles), 0.5, 2.0, mesh))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.05


def test_slobodeckij_dichotomy_direction():
    # below the map's smoothness order the seminorm stabilizes; above it
    # the quadrature diverges under refinement
    m = make_map("lacunary_fourier", alpha=0.5, terms=14, seed=11)
    low, high = [], []
    for res in (256, 512, 1024):
        mesh = sample_sphere(1, res)
        samples = m(mesh.vertices)
        low.append(slobodeckij_seminorm(samples, 0.25, 2.0, mesh))
        high.append(slobodeckij_seminorm(samples, 0.75, 2.0, mesh))
    assert abs(low[2] - low[1]) / low[1] <= 0.05
    assert high[1] > high[0] and high[2] > high[1]


def test_slobodeckij_monotone_in_theta_for_rough_map():
    m = make_map("lacunary_fourier", alpha=0.5, terms=12, seed=3)
    mesh = sample_sphere(1, 512)
    samples = m(mesh.vertices)
    vals = [slobodeckij_seminorm(samples, th, 2.0, mesh) for th in (0.2, 0.4, 0.6, 0.8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_slobodeckij_rejects_bad_order():
    mesh = sample_sphere(1, 128)
    with pytest.raises(ValueError):
        slobodeckij_seminorm(make_map("zero"), 1.2, 2.0, mesh)


def test_lipschitz_net_constants():
    pts = unit_ring(32)
    assert lipschitz_constant_on_net(pts, np.zeros((32, 2))) == 0.0
    assert abs(lipschitz_constant_on_net(pts, 0.5 * pts) - 0.5) < 1e-12


def test_lipschitz_net_matches_exhaustive_scan():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(40, 2))
    vals = rng.uniform(-1, 1, size=(40, 2))
    fast = lipschitz_constant_on_net(pts, vals)
    slow = 0.0
    for i in range(40):
        for j in range(40):
            if i == j:
                continue
            slow = max(
                slow,
                np.linalg.norm(vals[i] - vals[j]) / np.linalg.norm(pts[i] - pts[j]),
            )
    assert abs(fast - slow) < 1e-12


def test_lipschitz_net_rejects_duplicates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        lipschitz_constant_on_net(pts, np.zeros((3, 2)))


def test_mcshane_exact_on_net_and_constant():
    pts = unit_ring(24) * 0.8
    const = np.tile([0.3, -0.1], (24, 1))
    ext = mcshane_extend(pts, const)
    np.testing.assert_allclose(ext(pts), const, atol=1e-12)
    np.testing.assert_allclose(ext(np.array([[0.1, 0.1]])), [[0.3, -0.1]], atol=1e-12)


def test_mcshane_extension_lipschitz_bound():
    # linear map net: extension is sqrt(2) L Lipschitz at worst on a fine grid
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.9, 0.9, size=(60, 2))
    vals = pts @ np.array([[0.4, 0.1], [-0.2, 0.3]])
    L = lipschitz_constant_on_net(pts, vals)
    ext = mcshane_extend(pts, vals)
    grid = np.stack(
        np.meshgrid(np.linspace(-0.9, 0.9, 25), np.linspace(-0.9, 0.9, 25), indexing="ij"),
        axis=-1,
    ).reshape(-1, 2)
    out = ext(grid)
    measured = lipschitz_constant_on_net(grid, out)
    assert measured <= np.sqrt(2.0) * L * (1 + 1e-9)
    assert measured <= 3.0 * L


def test_mcshane_rejects_empty_net():
    with pytest.raises(ValueError):
        mcshane_extend(np.zeros((0, 2)), np.zeros((0, 2)))


def test_raw_grid_map_rejects_off_net_evaluation():
    pts = unit_ring(16)
    m = make_map("grid_sampled", points=pts, values=0.5 * pts)
    with pytest.raises(ValueError):
        m(np.array([[0.123, 0.456]]))
