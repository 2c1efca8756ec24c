import numpy as np
import pytest

from kakeya_lab.convergence import (
    convergence_split,
    triangle_inequality_check,
    winding_agreement,
)
from kakeya_lab.maps import make_map
from kakeya_lab.sphere import sample_sphere


def test_triangle_inequality_fuzz_plane_and_space():
    for dim in (2, 3):
        result = triangle_inequality_check(10**6, dim=dim, seed=dim)
        assert result.violations == 0
        assert result.max_violation == 0.0


def test_triangle_inequality_collinear_cases():
    # collinear triples: the inequality holds with slack; the two-term bound
    # is strict except in the fully degenerate case a = b, where both sides
    # vanish
    x = np.zeros(2)
    a = np.array([1.0, 0.0])
    for b in (np.array([2.0, 0.0]), np.array([-2.0, 0.0]), a):
        u, w = a - x, b - x
        nu, nw = np.linalg.norm(u), np.linalg.norm(w)
        lhs = np.linalg.norm(u / nu - w / nw)
        rhs = np.linalg.norm(u - w) * (1 / nu + 1 / nw)
        assert lhs <= rhs + 1e-12
        if np.array_equal(b, a):
            assert lhs == 0.0 and rhs == 0.0


def test_winding_agreement_exact_for_zero_map():
    mesh = sample_sphere(1, 512)
    stats = winding_agreement(make_map("zero"), 0.5, 0.1, mesh, 0.02)
    assert stats.collar_radius == 0.0
    assert stats.mismatches == 0
    assert stats.agreement_fraction == 1.0


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_winding_agreement_lacunary(t, eps):
    mesh = sample_sphere(1, 1024)
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5)
    stats = winding_agreement(m, t, eps, mesh, 0.02)
    assert stats.mismatches == 0
    assert stats.collar_cells > 0
    assert stats.compared_cells > 0


def test_convergence_split_zero_map():
    mesh = sample_sphere(1, 1024)
    report = convergence_split(
        make_map("zero"), [0.1, 0.05, 0.025], np.linspace(0, 1, 17), mesh, 0.02
    )
    # exact mollification: no collar, identical totals at every scale,
    # each within the masked-band deficit (~ perimeter * h / 2) of pi/3
    assert all(i1 == 0.0 for i1 in report.collar_integrals)
    assert max(report.total_integrals) - min(report.total_integrals) < 1e-12
    for total in report.total_integrals:
        assert total == pytest.approx(np.pi / 3, abs=0.05)


def test_convergence_split_smooth_map_totals_flat():
    mesh = sample_sphere(1, 1024)
    report = convergence_split(
        make_map("radial_scale", r=0.5),
        [0.1, 0.05, 0.025],
        np.linspace(0, 1, 17),
        mesh,
        0.02,
    )
    # smoothing a linear map only shrinks it at second order in the scale
    assert max(report.total_integrals) - min(report.total_integrals) < 0.01
    for total in report.total_integrals:
        assert total == pytest.approx(np.pi * 13 / 12, abs=0.09)


def test_convergence_split_lacunary_cauchy_and_collar_bound():
    mesh = sample_sphere(1, 2048)
    m = make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5)
    report = convergence_split(
        m, [0.1, 0.04, 0.016], np.linspace(0, 1, 33), mesh, 0.01
    )
    assert report.cauchy_ok
    assert report.gap_ratio() >= 1.5
    assert report.i1_ok
    fractions = report.agreement_fractions
    assert all(b >= a - 0.02 for a, b in zip(fractions, fractions[1:]))


# floats of the lacunary split below, as computed by the per-epsilon
# implementation that rebuilt each raw field once per scale; i1_bounds and the
# calibration constant as computed with the circle's FFT mollifier
PINNED_SPLIT = {
    "total_integrals": ["0x1.238cc40fd67e7p+2", "0x1.460aa64c2f838p+2", "0x1.580346dc5d639p+2"],
    "collar_integrals": ["0x1.0e376eba81292p+2", "0x1.3295e9e1b089ap+1", "0x1.48c5b344ad1fep-1"],
    "exterior_integrals": ["0x1.5555555555550p-2", "0x1.597f62b6ae7d6p+1", "0x1.2eea9073c7bf9p+2"],
    "i1_bounds": ["0x1.420fddc76c454p+5", "0x1.ee158728a7265p+4", "0x1.54e19a6735d11p+4"],
    "agreement_fractions": ["0x1.dcd2d9fb598afp-1", "0x1.f46fbef68e8c2p-1", "0x1.ff42b22bc07cep-1"],
    "cauchy_gaps": ["0x1.13ef11e2c8288p-1", "0x1.1f8a0902de010p-2"],
}


def test_convergence_split_one_raw_field_per_height(monkeypatch):
    import kakeya_lab.convergence as conv

    calls = []
    real = conv.winding_field

    def counting(*args, **kwargs):
        calls.append(args[0].t)
        return real(*args, **kwargs)

    monkeypatch.setattr(conv, "winding_field", counting)
    epsilons = [0.2, 0.1, 0.05]
    t_grid = np.linspace(0, 1, 4)
    report = convergence_split(
        make_map("lacunary_fourier", alpha=0.8, terms=10, seed=5),
        epsilons, t_grid, sample_sphere(1, 512), 0.04, delta_prime=2.0,
    )
    # one raw field per height plus one mollified field per (scale, height)
    assert len(calls) == len(t_grid) * (len(epsilons) + 1)
    for name, pinned in PINNED_SPLIT.items():
        assert getattr(report, name) == [float.fromhex(x) for x in pinned], name
    assert report.calibration_constant == float.fromhex("0x1.ad941131b8466p-4")
    assert report.cauchy_ok and report.i1_ok


def test_convergence_split_validates_epsilons():
    mesh = sample_sphere(1, 512)
    with pytest.raises(ValueError):
        convergence_split(make_map("zero"), [0.1, 0.2, 0.3], np.linspace(0, 1, 9), mesh, 0.02)
    with pytest.raises(ValueError):
        convergence_split(make_map("zero"), [0.1, 0.05], np.linspace(0, 1, 9), mesh, 0.02)


def test_convergence_report_serializes_to_json(tmp_path):
    import json

    from kakeya_lab.report import write_json_report

    mesh = sample_sphere(1, 512)
    report = convergence_split(
        make_map("zero"), [0.2, 0.1, 0.05], np.linspace(0, 1, 9), mesh, 0.02
    )
    path = write_json_report(tmp_path / "conv.json", "convergence", {}, report)
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["results"]["total_integrals"]) == 3
    assert isinstance(payload["results"]["cauchy_ok"], bool)


def test_convergence_split_refuses_oversized_fields_first(monkeypatch):
    import kakeya_lab.convergence as conv
    from kakeya_lab.winding import MAX_FIELD_SIDE

    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the field-size preflight")

    monkeypatch.setattr(conv, "winding_field", unreachable)
    monkeypatch.setattr(conv, "mollify_on_sphere", unreachable)
    # a unit-circle loop padded by 0.3 at h = 1e-4: about 2.6e4 cells a side
    with pytest.raises(ValueError, match=r"h = 0\.0001 needs winding fields of \d+ cells") as info:
        convergence_split(make_map("zero"), [0.1, 0.05, 0.025], np.linspace(0, 1, 3), sample_sphere(1, 512), 1e-4)
    cells = int(str(info.value).split(" of ")[1].split(" cells")[0])
    assert cells > MAX_FIELD_SIDE**2
