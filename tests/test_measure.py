import numpy as np
import pytest

from kakeya_lab.gridding import _rows_within
from kakeya_lab.maps import lipschitz_constant_on_net, make_map
from kakeya_lab.measure import (
    TubeFamily,
    _tube_layers,
    build_tube_family,
    cone_coverage_check,
    line_kakeya_cover,
    lipschitz_tube_experiment,
    rasterize_image_measure,
    tube_grid,
    tube_layer_runs,
    tube_pairs_floor,
    tube_union_volume,
)

from test_gridding import _assert_disjoint_sorted, _runs_plane


def test_cone_measure_close_to_closed_form():
    est = rasterize_image_measure(make_map("zero"), 0.02)
    assert abs(est.value - np.pi / 3) / (np.pi / 3) < 0.15
    assert est.value >= np.pi / 3  # above the exact volume at this h (not a proven bound)


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


def _reference_greedy_net(delta):
    """The candidate-at-a-time loop `_greedy_net` replaced: each candidate, in
    row-major order, is tested against the accepted points bucketed in the 3 x 3
    cells of side delta around it."""
    step = delta / 4.0
    m = int(np.floor(1.0 / step))
    ax = np.arange(-m, m + 1) * step
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    cand = np.stack([X.ravel(), Y.ravel()], axis=1)
    cand = cand[np.einsum("ij,ij->i", cand, cand) <= 1.0]
    cand = cand[np.lexsort((cand[:, 0], cand[:, 1]))]
    accepted = []
    buckets = {}
    d2 = delta * delta
    inv = 1.0 / delta
    for p in cand:
        ci = int(np.floor(p[0] * inv))
        cj = int(np.floor(p[1] * inv))
        ok = True
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for idx in buckets.get((ci + di, cj + dj), ()):
                    q = accepted[idx]
                    dx = p[0] - q[0]
                    dy = p[1] - q[1]
                    if dx * dx + dy * dy < d2:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            buckets.setdefault((ci, cj), []).append(len(accepted))
            accepted.append(p)
    return np.asarray(accepted)


# Every delta has lattice ties at distance 4 steps = delta, mostly rejected by
# the float test, so a y window of earlier rows narrower than delta changes the
# net.  At 0.0244, 0.0309, 0.05675, 0.0618, 0.08485 and 0.09085 a tie along a
# row has cells two apart, and the cell rule keeps a point that the float test
# alone would reject.
NET_DELTAS = [0.1, 0.09085, 0.08485, 0.07, 0.0618, 0.06, 0.05675, 0.05, 0.04, 0.0309, 0.025, 0.0244, 0.02]


@pytest.mark.parametrize("delta", NET_DELTAS)
def test_greedy_net_matches_reference(delta):
    fam = build_tube_family(make_map("zero"), delta)
    assert np.array_equal(fam.net, _reference_greedy_net(delta))


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


def _reference_tube_marks(family, h):
    """The offset-disk loop the scanline kernel replaced: every cell of a
    disk of offsets around each segment's position at a layer's height gets
    the exact distance test.  The disk misses cells of tilted tubes once
    h < delta/4, so it is the reference at h = delta/4 only."""
    delta = family.delta
    a3, b3 = family.segment_endpoints()
    lo = np.minimum(a3, b3).min(axis=0) - delta - 2.0 * h
    hi = np.maximum(a3, b3).max(axis=0) + delta + 2.0 * h
    dims = np.ceil((hi - lo) / h).astype(int)
    marked = np.zeros(tuple(dims), dtype=bool)
    ab = b3 - a3
    ab2 = np.einsum("ij,ij->i", ab, ab)
    # candidate offsets: the segment moves at most |v| h within a layer
    r_off = delta + h * (0.5 * float(np.max(np.linalg.norm(family.net, axis=1))) + 0.8)
    m_off = int(np.ceil(r_off / h))
    oi, oj = np.meshgrid(np.arange(-m_off, m_off + 1), np.arange(-m_off, m_off + 1), indexing="ij")
    keep = oi * oi + oj * oj <= (m_off + 1) ** 2
    oi = oi[keep]
    oj = oj[keep]
    n_tubes = family.count
    for iz in range(dims[2]):
        z = lo[2] + (iz + 0.5) * h
        t_ref = min(max(z, 0.0), 1.0)
        cent = family.centers + t_ref * family.net
        base_i = np.floor((cent[:, 0] - lo[0]) / h - 0.5).astype(np.int64)
        base_j = np.floor((cent[:, 1] - lo[1]) / h - 0.5).astype(np.int64)
        ci = (base_i[:, None] + oi[None, :]).ravel()
        cj = (base_j[:, None] + oj[None, :]).ravel()
        ok = (ci >= 0) & (ci < dims[0]) & (cj >= 0) & (cj < dims[1])
        if not ok.any():
            continue
        ci = ci[ok]
        cj = cj[ok]
        tube = np.repeat(np.arange(n_tubes), len(oi))[ok]
        px = lo[0] + (ci + 0.5) * h
        py = lo[1] + (cj + 0.5) * h
        P = np.stack([px, py, np.full(len(px), z)], axis=1)
        rel = P - a3[tube]
        tpar = np.clip(np.einsum("kd,kd->k", rel, ab[tube]) / ab2[tube], 0.0, 1.0)
        dvec = rel - tpar[:, None] * ab[tube]
        hit = np.einsum("kd,kd->k", dvec, dvec) <= delta * delta
        marked[ci[hit], cj[hit], iz] = True
    return marked


def _brute_tube_marks(family, h):
    """Every cell of the grid against every tube, with the same exact test."""
    delta = family.delta
    a3, b3 = family.segment_endpoints()
    lo = np.minimum(a3, b3).min(axis=0) - delta - 2.0 * h
    hi = np.maximum(a3, b3).max(axis=0) + delta + 2.0 * h
    dims = np.ceil((hi - lo) / h).astype(int)
    ab = b3 - a3
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ci, cj = np.meshgrid(np.arange(dims[0]), np.arange(dims[1]), indexing="ij")
    px = lo[0] + (ci.ravel() + 0.5) * h
    py = lo[1] + (cj.ravel() + 0.5) * h
    marked = np.zeros(tuple(dims), dtype=bool)
    for iz in range(dims[2]):
        z = lo[2] + (iz + 0.5) * h
        P = np.stack([px, py, np.full(len(px), z)], axis=1)
        layer = np.zeros(len(px), dtype=bool)
        for k in range(family.count):
            rel = P - a3[k]
            ab_k = np.repeat(ab[k : k + 1], len(px), axis=0)  # the kernel's einsum operands
            tpar = np.clip(np.einsum("kd,kd->k", rel, ab_k) / ab2[k], 0.0, 1.0)
            dvec = rel - tpar[:, None] * ab_k
            layer |= np.einsum("kd,kd->k", dvec, dvec) <= delta * delta
        marked[:, :, iz] = layer.reshape(dims[0], dims[1])
    return marked


def _tube_layer_masks(family, h):
    """The boolean (nx, ny) plane of each tube layer: the merged runs of
    `tube_layer_runs`, painted cell by cell."""
    for tubes, z in _tube_layers(family, h):
        runs = tube_layer_runs(tubes, z)
        _assert_disjoint_sorted(*tubes.shape, *runs)
        yield _runs_plane(tubes.shape, *runs)


def _scanline_marks(family, h):
    return np.stack(list(_tube_layer_masks(family, h)), axis=2)


def _assert_tube_marks_equal(family, h, reference):
    got = _scanline_marks(family, h)
    want = reference(family, h)
    assert got.shape == want.shape
    assert np.array_equal(got, want), f"{int(np.sum(got != want))} cells differ"
    assert tube_union_volume(family, h).cells_hit == int(want.sum())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tube_union_matches_offset_disk_lacunary(seed):
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=seed)
    fam = build_tube_family(m, 0.1)
    _assert_tube_marks_equal(fam, 0.025, _reference_tube_marks)


def test_tube_union_matches_offset_disk_zero_map():
    _assert_tube_marks_equal(build_tube_family(make_map("zero"), 0.08), 0.02, _reference_tube_marks)


@pytest.mark.parametrize("v", [[0.7, 0.7], [-0.999, 0.02], [0.0, -0.9999]])
def test_tube_union_matches_offset_disk_steep_single_tube(v):
    # |v| close to 1; alone, the tube also spans the grid edge to edge
    fam = TubeFamily(0.05, np.array([v]), np.array([[0.1, -0.2]]), 3)
    _assert_tube_marks_equal(fam, 0.0125, _reference_tube_marks)


def test_tube_union_matches_offset_disk_end_caps():
    # the strip clip with vx = 0 (parallel to the rows) and vy = 0, a vertical
    # tube whose end sections are whole ball disks, and tubes meeting only
    # near their ends
    net = np.array([[0.0, 0.8], [0.8, 0.0], [0.0, 0.0], [0.5, -0.5], [-0.5, 0.5]])
    centers = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [0.2, 0.3], [0.7, -0.2]])
    fam = TubeFamily(0.06, net, centers, 3)
    _assert_tube_marks_equal(fam, 0.015, _reference_tube_marks)


def test_tube_union_cells_on_the_boundary():
    # binary-exact data: a vertical tube through cell center (39, 23), radius
    # five cells, so the centers at offsets (5, 0) and (3, 4) lie at distance
    # exactly delta and pin the "<="
    h = 1.0 / 64.0
    net = np.array([[0.25, 0.0], [0.0, 0.0]])
    fam = TubeFamily(5 * h, net, np.array([[0.0, 0.0], [0.5 + h / 2, 0.25 + h / 2]]), 3)
    got = _scanline_marks(fam, h)
    assert np.array_equal(got, _reference_tube_marks(fam, h))
    assert np.array_equal(got, _brute_tube_marks(fam, h))
    layer = got[:, :, 40]
    assert layer[44, 23] and layer[34, 23] and layer[42, 27] and layer[36, 19]
    assert not layer[45, 23] and not layer[44, 24] and not layer[42, 28]


def test_tube_union_tangent_rows():
    # each tube (vx = 0) touches a cell center with the top of its section's
    # ellipse at one layer, up to rounding; whether that center passes the
    # exact test is decided by the last bits, so its row must be tested even
    # when the closed-form chord comes out empty (the slack keeps it)
    delta, h = 0.05, 0.0125
    corner = -1.0 - delta - 2.0 * h  # the grid origin, fixed by a tube at (-1, -1)
    rng = np.random.default_rng(0)
    net, centers = [[0.0, 0.0]], [[-1.0, -1.0]]
    for k in range(40):
        vy = float(rng.uniform(-0.9, 0.9))
        z = -delta - 2.0 * h + (int(rng.integers(16, 64)) + 0.5) * h
        px = corner + (80 + 12 * (k % 8) + 0.5) * h
        py = corner + (80 + 12 * (k // 8) + 0.5) * h
        net.append([0.0, vy])
        centers.append([px, py - z * vy - delta * np.sqrt(1.0 + vy * vy)])
    fam = TubeFamily(delta, np.array(net), np.array(centers), 3)
    _assert_tube_marks_equal(fam, h, _reference_tube_marks)


def test_tube_layers_keep_the_row_their_reach_rounds_past():
    # binary-exact delta, h and corner (fixed by a tube at the origin); a
    # vertical tube 3 ulps above row 2's centers plus delta: cy - delta rounds
    # above those centers while the exact test accepts the one in its column,
    # so only the widening of the row rule keeps row 2
    delta, h = 0.0625, 0.015625
    corner = -delta - 2.0 * h
    row2 = corner + 2.5 * h
    cy = row2 + delta + 3 * np.spacing(row2 + delta)
    assert cy - delta > row2 and (row2 - cy) ** 2 <= delta**2
    fam = TubeFamily(delta, np.zeros((2, 2)), np.array([[0.0, 0.0], [corner + 20.5 * h, cy]]), 3)
    want = _brute_tube_marks(fam, h)
    assert want[20, 2].sum() == 64  # every layer with z in [0, 1]
    _assert_tube_marks_equal(fam, h, _brute_tube_marks)


@pytest.mark.parametrize("ratio", [4, 8])
def test_tube_union_matches_brute_force_tilted(ratio):
    # tilted tubes, |v| near 1: below delta/4 the ellipse of the section reaches
    # delta sqrt(2) / h cells from the axis, past the old offset disk
    net = np.array([[0.69, 0.7], [-0.98, 0.1], [0.05, -0.97], [0.3, 0.2]])
    centers = np.array([[0.0, 0.0], [0.4, -0.1], [-0.2, 0.5], [0.1, 0.1]])
    fam = TubeFamily(0.04, net, centers, 3)
    _assert_tube_marks_equal(fam, 0.04 / ratio, _brute_tube_marks)


@pytest.mark.parametrize("ratio", [4, 16])
def test_tube_union_counts_runs_layer_by_layer(ratio, monkeypatch):
    # each layer's merged run length equals its plane count, on the layers
    # clear of the tube ends and on those next to them (z near delta and
    # 1 - delta, where the kernel switches between the cylinder's chord
    # alone and the strip clip with the end balls)
    import kakeya_lab.measure as measure

    if ratio == 4:
        fam = build_tube_family(make_map("lacunary_fourier", alpha=0.8, terms=10, seed=3), 0.1)
    else:
        net = np.array([[0.69, 0.7], [-0.98, 0.1], [0.05, -0.97], [0.3, 0.2], [0.0, 0.0]])
        centers = np.array([[0.0, 0.0], [0.4, -0.1], [-0.2, 0.5], [0.1, 0.1], [0.3, 0.3]])
        fam = TubeFamily(0.08, net, centers, 3)
    h = fam.delta / ratio
    planes = [int(np.count_nonzero(mask)) for mask in _tube_layer_masks(fam, h)]
    counted = []
    real_runs = measure.tube_layer_runs

    def per_layer(tubes, z):
        first, last = runs = real_runs(tubes, z)
        counted.append((z, tubes.clear(z), int(np.sum(last - first))))
        return runs

    monkeypatch.setattr(measure, "tube_layer_runs", per_layer)
    total = tube_union_volume(fam, h).cells_hit
    assert [c for _, _, c in counted] == planes
    assert total == sum(planes)
    z = np.array([z for z, _, _ in counted])
    clear = np.array([c for _, c, _ in counted])
    assert clear.any() and not clear.all()
    # the clear layers start near delta and end near 1 - delta; the two
    # layers on either side of each switch lie within h of it and hold cells
    edges = np.flatnonzero(clear[1:] != clear[:-1])
    assert len(edges) == 2
    for k, end in zip(edges, (fam.delta, 1.0 - fam.delta)):
        assert abs(z[k] - end) <= h and abs(z[k + 1] - end) <= h
        assert planes[k] > 0 and planes[k + 1] > 0


def test_tube_layers_clear_rule_keeps_a_margin():
    # layers within rounding of an end ball's reach, r_out = delta + slack,
    # take the strip clip and the end balls; a layer well inside does not
    fam = TubeFamily(0.06, np.array([[0.3, -0.2], [0.0, 0.5]]), np.array([[0.1, 0.0], [-0.2, 0.3]]), 3)
    tubes = next(_tube_layers(fam, 0.015))[0]
    r_out = tubes.table.radii[0]
    assert r_out > fam.delta
    for z in (r_out, np.nextafter(r_out, 1.0), 1.0 - r_out, np.nextafter(1.0 - r_out, 0.0)):
        assert not tubes.clear(z)
    assert tubes.clear(0.5)
    assert not tubes.clear(-0.5) and not tubes.clear(1.5)


def test_tube_layers_band_cells_get_the_exact_test(monkeypatch):
    # map seed 5, delta = 0.04, h = delta/4: a few cell centers fall between
    # a layer's inner and outer spans, so the exact test decides them; every
    # layer equals the offset-disk reference, exact at h = delta/4
    import kakeya_lab.gridding as gridding

    band = []
    real = gridding._near

    def near(P, a, u, r):
        band.append(len(P))
        return real(P, a, u, r)

    monkeypatch.setattr(gridding, "_near", near)
    fam = build_tube_family(make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5), 0.04)
    _assert_tube_marks_equal(fam, 0.01, _reference_tube_marks)
    assert sum(band) > 0
    # a vertical tube centred on a cell center, delta = 4h binary-exact: the
    # cells 4 columns or 4 rows from its axis are exactly delta from it, on
    # every layer between its ends, and the exact test accepts them; a
    # tilted tube beside it; every cell of every layer against every tube
    band.clear()
    h = 1.0 / 64.0
    net = np.array([[0.5, 0.25], [0.0, 0.0]])
    fam = TubeFamily(4.0 * h, net, np.array([[0.0, 0.0], [32.5 * h, 16.5 * h]]), 3)
    _assert_tube_marks_equal(fam, h, _brute_tube_marks)
    assert sum(band) >= 4 * int(0.9 / h)


@pytest.mark.parametrize("shift", [1e6, 3e8])
def test_tube_layers_match_brute_force_translated_far(shift, monkeypatch):
    # tilted, steep and v_x = 0 tubes far from the origin: the slack comes
    # from the grid-local frame (16 ulps of the largest coordinate plus 1e-9
    # of the grid-local reach), so even at 3e8 it stays far below delta, the
    # inner spans are filled and only a thin band of cells goes through the
    # exact test
    import kakeya_lab.gridding as gridding

    tested = []
    real = gridding._near

    def near(P, a, u, r):
        tested.append(len(P))
        return real(P, a, u, r)

    monkeypatch.setattr(gridding, "_near", near)
    net = np.array([[0.69, 0.7], [-0.98, 0.1], [0.0, -0.97], [0.3, 0.0], [0.0, 0.0]])
    centers = np.array([[0.0, 0.0], [0.4, -0.1], [-0.2, 0.5], [0.1, 0.1], [0.3, 0.3]]) + shift
    fam = TubeFamily(0.04, net, centers, 3)
    tubes = next(_tube_layers(fam, 0.01))[0]
    assert len(tubes.table.radii) == 2 and tubes.table.slack < 1e-4 * fam.delta
    want = _brute_tube_marks(fam, 0.01)
    _assert_tube_marks_equal(fam, 0.01, lambda *_: want)
    assert sum(tested) <= int(want.sum()) // 100


def test_tube_layers_split_into_blocks(monkeypatch):
    # a layer cut into many (row x tube) blocks gives the same runs
    import kakeya_lab.measure as measure

    fam = build_tube_family(make_map("lacunary_fourier", alpha=0.8, terms=10, seed=2), 0.1)
    whole = [tube_layer_runs(*args) for args in _tube_layers(fam, 0.025)]
    blocks = []
    real = measure._tube_block

    def counting(tubes, block, *rest):
        blocks.append(block)
        return real(tubes, block, *rest)

    monkeypatch.setattr(measure, "_PAIR_CHUNK", 64)
    monkeypatch.setattr(measure, "_tube_block", counting)
    split = [tube_layer_runs(*args) for args in _tube_layers(fam, 0.025)]
    assert len(blocks) >= 5 * len(split)
    for w, s in zip(whole, split):
        assert np.array_equal(w[0], s[0]) and np.array_equal(w[1], s[1])
    assert tube_union_volume(fam, 0.025).cells_hit == sum(int(np.sum(b - a)) for a, b in whole)


@pytest.mark.parametrize("ratio", [4, 8])
def test_tube_union_vx_zero_tubes_through_the_ends(ratio):
    # v_x = 0: each row lies in the strip 0 <= (P - a).u <= |u|^2 whole or
    # not at all, so an end layer is the end ball plus the rows kept whole
    net = np.array([[0.0, -0.9], [0.0, -0.3], [0.0, 0.0], [0.0, 0.4], [0.0, 0.8]])
    centers = np.array([[0.0, 0.0], [0.3, 0.1], [-0.3, -0.2], [0.1, -0.4], [-0.2, 0.3]])
    fam = TubeFamily(0.06, net, centers, 3)
    h = fam.delta / ratio
    marks = _brute_tube_marks(fam, h)
    _assert_tube_marks_equal(fam, h, lambda *_: marks)
    layers = list(_tube_layers(fam, h))
    ends = [iz for iz, (tubes, z) in enumerate(layers) if not tubes.clear(z)]
    assert marks[:, :, ends].any(axis=(0, 1)).sum() >= 8


def test_tube_layers_rows_on_the_benchmark_inputs():
    # the `tube-union` benchmark inputs (map seed 21, delta = 0.06, h = delta/4):
    # the (tube, layer, row) triples of the row rule, which the layer blocks
    # hold with the rows past each tube's own masked
    fam = build_tube_family(make_map("lacunary_fourier", alpha=0.8, terms=10, seed=21), 0.06)
    h = 0.015
    lo, dims, reach = tube_grid(fam, h)
    triples = 0
    for iz in range(dims[2]):
        z = lo[2] + (iz + 0.5) * h
        yc = fam.centers[:, 1] + min(max(z, 0.0), 1.0) * fam.net[:, 1]
        j0, j1 = _rows_within(yc, yc, reach, lo[1], h, dims[1])
        triples += int(np.sum(np.maximum(np.minimum(j1, dims[1] - 1) - np.maximum(j0, 0) + 1, 0)))
    assert triples == 595_379


def test_tube_union_refuses_oversized_work(monkeypatch):
    import kakeya_lab.measure as measure

    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel ran before the work preflight")

    monkeypatch.setattr(measure, "tube_layer_runs", no_kernel)
    fam = build_tube_family(make_map("zero"), 0.05)
    with pytest.raises(ValueError, match="larger h"):
        tube_union_volume(fam, 0.00001)


def test_tube_union_refuses_oversized_planes(monkeypatch):
    # few (tube, layer, row) triples, but two tubes 1e7 apart need an
    # 8e8 x 8e8 layer grid, whose runs would not fit the packed int64 keys
    import kakeya_lab.measure as measure

    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel ran before the work preflight")

    monkeypatch.setattr(measure, "tube_layer_runs", no_kernel)
    fam = TubeFamily(0.05, np.zeros((2, 2)), np.array([[0.0, 0.0], [1e7, 1e7]]), 3)
    with pytest.raises(ValueError, match="run keys; use a larger h"):
        tube_union_volume(fam, 0.0125)


def refuse_the_scale_8_family(monkeypatch):
    """Make `measure.tube_grid` refuse only a family with net Lipschitz
    constant 8 (every scaled family has the same triple count, so no cap
    refuses one family alone); the base lacunary family of these tests has
    5.75, the scale-1 family 1."""
    import kakeya_lab.measure as measure

    real = measure.tube_grid

    def tube_grid(family, h):
        if lipschitz_constant_on_net(family.net, family.centers) > 7.0:
            raise ValueError("the scale-8 family is refused; use a larger h")
        return real(family, h)

    monkeypatch.setattr(measure, "tube_grid", tube_grid)


def test_lipschitz_experiment_checks_every_family_first(monkeypatch):
    # the scale-8 family is refused: the refusal comes before the scale-1 union
    import kakeya_lab.measure as measure

    def no_kernel(*args, **kwargs):
        raise AssertionError("a union ran before every family's work preflight")

    monkeypatch.setattr(measure, "tube_layer_runs", no_kernel)
    refuse_the_scale_8_family(monkeypatch)
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=21)
    with pytest.raises(ValueError, match="larger h"):
        lipschitz_tube_experiment(m, [1.0, 8.0], 0.1, h=0.005)


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
    # the zero map fits from h = 0.002 up; below it a larger h is the way out
    assert measure.sampling_fits(make_map("zero"), 0.002)
    with pytest.raises(ValueError, match="larger h"):
        rasterize_image_measure(make_map("zero"), 0.001)
    # the README's lacunary map needs a step of 2.45e-4 even at h = 0.1:
    # no h fits, and the message says so
    lac = make_map("lacunary_fourier", alpha=0.8, terms=12, seed=7)
    assert not measure.sampling_fits(lac, 0.1)
    refusal = r"0\.000245 even at grid spacing 0\.1.*no grid spacing in \(0, 0\.1\] fits"
    for h in (0.05, 0.1):
        with pytest.raises(ValueError, match=refusal):
            rasterize_image_measure(lac, h)


def test_tube_pairs_floor_never_exceeds_the_preflight_count(monkeypatch):
    # the early refusal of `tubes` is sound only if the bound from delta and h
    # is at most the (tube, layer, row) count of every family it stands for:
    # with the cap just below the bound, tube_grid must refuse
    import kakeya_lab.measure as measure

    for delta in (0.006, 0.013, 0.03, 0.1):
        family = build_tube_family(make_map("zero"), delta)
        for h in (delta / 4.0, delta / 10.0):
            floor = tube_pairs_floor(delta, h)
            assert floor > 0.0
            monkeypatch.setattr(measure, "MAX_TUBE_PAIRS", np.nextafter(floor, 0.0))
            with pytest.raises(ValueError, match="triples"):
                tube_grid(family, h)
