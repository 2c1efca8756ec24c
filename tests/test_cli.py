import json
from pathlib import Path

import numpy as np
import pytest

from kakeya_lab.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def test_sweep_zero_map(tmp_path):
    out = tmp_path / "sv.csv"
    code = run_cli(
        ["sweep", "--map", "zero", "--n", "3", "--t-steps", "64",
         "--mesh", "2048", "--out", out, "--jobs", "1"]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,sv"
    assert len(rows) == 65
    fit = json.loads((tmp_path / "sv.fit.json").read_text())
    assert abs(fit["leading"] - np.pi) < 1e-5
    manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
    names = {f["name"] for f in manifest["files"]}
    assert {"sv.csv", "sv.fit.json", "sv.gp", "sv.summary.json"} <= names
    for entry in manifest["files"]:
        assert len(entry["sha256"]) == 64
        int(entry["sha256"], 16)


def test_measure_command(tmp_path):
    out = tmp_path / "m.json"
    code = run_cli(["measure", "--map", "zero", "--n", "3", "--h", "0.01", "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert abs(payload["results"]["value"] - np.pi / 3) / (np.pi / 3) < 0.10


def test_slice_command_writes_field(tmp_path):
    out = tmp_path / "wind.csv"
    code = run_cli(
        ["slice", "--map", "radial:r=0.5", "--t", "0.5", "--mesh", "256",
         "--grid-h", "0.05", "--out", out]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "x,y,wind,masked"


def test_slice_builds_one_winding_field(tmp_path, monkeypatch):
    import kakeya_lab.cli as cli
    import kakeya_lab.slices as slices

    calls = []
    real = cli.winding_field

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "winding_field", counting)
    monkeypatch.setattr(slices, "winding_field", counting)
    code = run_cli(
        ["slice", "--map", "lacunary:alpha=0.8,terms=10,seed=2", "--mesh", "512",
         "--grid-h", "0.02", "--out", tmp_path / "s.csv"]
    )
    assert code == 0
    assert calls == [0.02]


def test_measure_lacunary_alpha_one(tmp_path):
    out = tmp_path / "m.json"
    code = run_cli(
        ["measure", "--map", "lacunary:alpha=1,terms=8,seed=1", "--h", "0.1", "--out", out]
    )
    assert code == 0
    assert json.loads(out.read_text())["results"]["value"] > 0


def test_unknown_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--bogus", "1", "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2


def test_out_of_range_flag_exits_2(tmp_path, capsys):
    code = run_cli(
        ["sweep", "--map", "zero", "--mesh", "4", "--t-steps", "64",
         "--out", tmp_path / "x.csv"]
    )
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["flag"] == "--mesh"


def test_sweep_n4_zero_map(tmp_path):
    out = tmp_path / "sv.csv"
    code = run_cli(
        ["sweep", "--n", "4", "--map", "zero", "--mesh", "642", "--t-steps", "16",
         "--jobs", "1", "--out", out]
    )
    assert code == 0
    results = json.loads((tmp_path / "sv.summary.json").read_text())["results"]
    # the leading coefficient is the unit-ball volume 4 pi / 3, up to mesh truncation
    assert abs(results["leading_coefficient"] - 4 * np.pi / 3) < 0.1 * 4 * np.pi / 3
    # kappa is the least integral of |cubic| with that leading coefficient
    assert results["kappa"] == results["leading_coefficient"] / 64
    assert results["lower_bound_passed"] is True


def test_slice_epsilon_out_of_range_names_flag(tmp_path, capsys):
    code = run_cli(
        ["slice", "--epsilon", "0.5", "--map", "lacunary:alpha=0.8,terms=12,seed=7",
         "--out", tmp_path / "s.csv"]
    )
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["flag"] == "--epsilon"


def test_determinism_bit_identical(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        code = run_cli(
            ["sweep", "--map", "lacunary:alpha=0.8,terms=8,seed=7", "--t-steps", "16",
             "--mesh", "512", "--out", d / "sv.csv", "--jobs", "1", "--seed", "3"]
        )
        assert code == 0
    ma = json.loads((tmp_path / "a" / "MANIFEST.json").read_text())
    mb = json.loads((tmp_path / "b" / "MANIFEST.json").read_text())
    assert ma == mb
    assert (tmp_path / "a" / "sv.csv").read_bytes() == (tmp_path / "b" / "sv.csv").read_bytes()


def test_config_file_reproduces_flags(tmp_path):
    flag_dir = tmp_path / "flags"
    conf_dir = tmp_path / "conf"
    flag_dir.mkdir()
    conf_dir.mkdir()
    code = run_cli(
        ["sweep", "--map", "radial:r=0.5", "--t-steps", "16", "--mesh", "512",
         "--out", flag_dir / "sv.csv", "--jobs", "1"]
    )
    assert code == 0
    config = tmp_path / "run.conf"
    config.write_text(
        "map=radial:r=0.5\nt-steps=16\nmesh=512\njobs=1\n"
        f"out={conf_dir / 'sv.csv'}\n"
    )
    code = run_cli(["sweep", "--config", config])
    assert code == 0
    assert (flag_dir / "sv.csv").read_bytes() == (conf_dir / "sv.csv").read_bytes()


def test_jobs_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("KAKEYA_LAB_JOBS", "1")
    out = tmp_path / "sv.csv"
    code = run_cli(
        ["sweep", "--map", "zero", "--t-steps", "16", "--mesh", "512",
         "--out", out, "--jobs", "4"]
    )
    assert code == 0


def test_regularity_command(tmp_path):
    out = tmp_path / "reg.json"
    code = run_cli(
        ["regularity", "--map", "lacunary:alpha=0.6,terms=10,seed=3",
         "--mesh", "256", "--theta-p", "0.25,2;0.5,2", "--out", out]
    )
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert len(results["slobodeckij"]) == 2
    assert results["slobodeckij"][0]["seminorm"] <= results["slobodeckij"][1]["seminorm"]


def test_moll_command(tmp_path):
    out = tmp_path / "moll.json"
    code = run_cli(
        ["moll", "--map", "lacunary:alpha=0.8,terms=10,seed=7", "--alpha", "0.8",
         "--epsilon", "0.1,0.05", "--mesh", "2048", "--out", out]
    )
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["sup_ratio_spread"] <= 2.0


def test_tubes_command(tmp_path):
    out = tmp_path / "tubes.json"
    code = run_cli(
        ["tubes", "--map", "zero", "--delta", "0.1", "--out", out]
    )
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert 25 <= results["net_count"] <= 400
    net_csv = (tmp_path / "tubes.net.csv").read_text().splitlines()
    assert net_csv[0] == "v1,v2,c1,c2"
    sidecar = json.loads((tmp_path / "tubes.net.json").read_text())
    assert sidecar["count"] == results["net_count"]


def test_line_kakeya_command(tmp_path):
    out = tmp_path / "lk.json"
    code = run_cli(
        ["line-kakeya", "--map", "bandlimited:amplitude=0.5,terms=6,seed=1",
         "--x", "2,0,0", "--out", out]
    )
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["residual"] < 1e-6
    assert results["reconstruction_error"] < 1e-6


def _flag_of_failure(code, capsys):
    assert code == 2
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["flag"]


@pytest.mark.parametrize("grid_h", ["0", "-0.01", "0.6", "nan"])
def test_sweep_grid_h_out_of_range_names_flag(tmp_path, capsys, grid_h):
    code = run_cli(
        ["sweep", "--method", "grid", "--grid-h", grid_h, "--mesh", "256",
         "--t-steps", "8", "--jobs", "1", "--out", tmp_path / "sv.csv"]
    )
    assert _flag_of_failure(code, capsys) == "--grid-h"


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_config_path_not_a_file_names_flag(tmp_path, capsys, kind):
    path = tmp_path if kind == "directory" else tmp_path / "absent.conf"
    code = run_cli(["sweep", "--config", path])
    assert _flag_of_failure(code, capsys) == "--config"


@pytest.mark.parametrize("theta_p", ["0.5", "0.5,abc", "0.25,2;0.5", "0.5,0.5", "1.5,2"])
def test_regularity_malformed_theta_p_names_flag(tmp_path, capsys, theta_p):
    code = run_cli(
        ["regularity", "--mesh", "256", "--theta-p", theta_p, "--out", tmp_path / "reg.json"]
    )
    assert _flag_of_failure(code, capsys) == "--theta-p"


@pytest.mark.parametrize("epsilon", ["0.1,abc", "0.1,,0.05", "0.1,nan"])
def test_moll_malformed_epsilon_names_flag(tmp_path, capsys, epsilon):
    code = run_cli(
        ["moll", "--alpha", "0.8", "--epsilon", epsilon, "--mesh", "256",
         "--out", tmp_path / "moll.json"]
    )
    assert _flag_of_failure(code, capsys) == "--epsilon"


@pytest.mark.parametrize("scales", ["0.1", "1,abc", "1,9"])
def test_tubes_bad_scales_names_flag(tmp_path, capsys, scales):
    code = run_cli(
        ["tubes", "--delta", "0.1", "--scales", scales, "--out", tmp_path / "tubes.json"]
    )
    assert _flag_of_failure(code, capsys) == "--scales"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", ["0", "-0.01", "nan", "0.02"])
def test_tubes_bad_h_names_flag(tmp_path, capsys, h):
    code = run_cli(
        ["tubes", "--map", "zero", "--delta", "0.05", "--h", h, "--out", tmp_path / "tubes.json"]
    )
    assert _flag_of_failure(code, capsys) == "--h"


def test_tubes_oversized_work_names_h(tmp_path, capsys, monkeypatch):
    # about 1.5e12 (tube, layer, row) triples: refused before the kernel runs
    import kakeya_lab.measure as measure

    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel ran before the work preflight")

    monkeypatch.setattr(measure, "scanline_mask", no_kernel)
    code = run_cli(
        ["tubes", "--map", "zero", "--delta", "0.05", "--h", "0.00001", "--out", tmp_path / "t.json"]
    )
    assert _flag_of_failure(code, capsys) == "--h"


def test_tubes_constant_map_scales_names_map(tmp_path, capsys):
    code = run_cli(
        ["tubes", "--map", "zero", "--delta", "0.1", "--scales", "1,2", "--out", tmp_path / "t.json"]
    )
    assert _flag_of_failure(code, capsys) == "--map"


@pytest.mark.parametrize("argv", [
    ["sweep", "--epsilon", "0.01", "--mesh", "256", "--t-steps", "8", "--jobs", "1"],
    ["sweep", "--epsilon", "0.01", "--mesh", "256", "--t-steps", "8", "--jobs", "2"],
    ["slice", "--epsilon", "0.01", "--mesh", "256"],
    ["moll", "--alpha", "0.5", "--mesh", "64"],
])
def test_mesh_too_coarse_for_epsilon_names_flag(tmp_path, capsys, monkeypatch, argv):
    def no_mollify(*args, **kwargs):
        raise AssertionError("mollified before the mesh was checked")

    import kakeya_lab.slices as slices
    import kakeya_lab.smoothing as smoothing

    monkeypatch.setattr(slices, "mollify_on_sphere", no_mollify)
    monkeypatch.setattr(smoothing, "mollify_on_sphere", no_mollify)
    code = run_cli(argv + ["--out", tmp_path / "out.json"])
    assert _flag_of_failure(code, capsys) == "--mesh"


@pytest.mark.parametrize("argv", [
    ["sweep", "--method", "grid", "--mesh", "162", "--t-steps", "8", "--jobs", "1"],
    ["regularity"],
    ["measure"],
    ["tubes"],
])
def test_n3_only_harness_rejects_n4(tmp_path, capsys, argv):
    code = run_cli(argv + ["--n", "4", "--out", tmp_path / "out.json"])
    assert _flag_of_failure(code, capsys) == "--n"


def test_measure_oversized_sampling_names_h(tmp_path, capsys):
    # about 3.8e8 parameter samples at this h: refused before any allocation
    code = run_cli(
        ["measure", "--map", "lacunary:alpha=0.8,terms=12,seed=7", "--h", "0.05",
         "--out", tmp_path / "m.json"]
    )
    assert _flag_of_failure(code, capsys) == "--h"


SWEEPS = {
    "mollified": ["--map", "lacunary:alpha=0.8,terms=12,seed=7", "--epsilon", "0.05",
                  "--mesh", "512", "--t-steps", "8"],
    "grid": ["--map", "lacunary:alpha=0.8,terms=4,seed=7", "--method", "grid",
             "--grid-h", "0.01", "--mesh", "512", "--t-steps", "8"],
}


def _sweep_files(tmp_path, name, argv):
    d = tmp_path / name
    d.mkdir()
    assert run_cli(["sweep", *argv, "--out", d / "sv.csv"]) == 0
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("kind", sorted(SWEEPS))
def test_sweep_pool_byte_equal_to_serial(tmp_path, monkeypatch, kind):
    import kakeya_lab.cli as cli

    workers = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.delenv("KAKEYA_LAB_JOBS", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    serial = _sweep_files(tmp_path, "serial", SWEEPS[kind] + ["--jobs", "1"])
    pooled = _sweep_files(tmp_path, "pooled", SWEEPS[kind] + ["--jobs", "2"])
    assert workers == [2]
    assert pooled == serial


class InlinePool:
    """Stands in for ProcessPoolExecutor: maps in this process, starts none."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


@pytest.mark.parametrize("jobs, cpus, t_steps, workers", [
    (1, 64, 16, 1),  # serial: no pool
    (2, 64, 16, 2),
    (8, 64, 16, 5),  # each worker needs n = 3 heights: 16 // 3
    (8, 3, 16, 3),  # no more workers than cores
    (64, 64, 8, 2),
])
def test_sweep_pool_partitions_heights(tmp_path, monkeypatch, jobs, cpus, t_steps, workers):
    import kakeya_lab.cli as cli
    import kakeya_lab.slices as slices

    subsets = []
    mollified = []
    real_worker = cli._sv_worker
    real_mollify = slices.mollify_on_sphere

    def worker(payload):
        subsets.append(payload[2])
        return real_worker(payload)

    def mollify(*args, **kwargs):
        mollified.append(1)
        return real_mollify(*args, **kwargs)

    monkeypatch.delenv("KAKEYA_LAB_JOBS", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(InlinePool, "created", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "_sv_worker", worker)
    monkeypatch.setattr(slices, "mollify_on_sphere", mollify)
    argv = ["--map", "lacunary:alpha=0.8,terms=12,seed=7", "--epsilon", "0.05",
            "--mesh", "512", "--t-steps", str(t_steps)]
    pooled = _sweep_files(tmp_path, "pooled", argv + ["--jobs", str(jobs)])

    assert InlinePool.created == ([] if workers == 1 else [workers])
    t_grid = np.linspace(0.0, 1.0, t_steps)
    assert len(subsets) == workers
    for k, subset in enumerate(subsets):
        assert np.array_equal(subset, t_grid[k::workers])
    assert len(mollified) == workers
    # the scatter puts every height's SV back in its row
    monkeypatch.setattr(cli, "_sv_worker", real_worker)
    assert pooled == _sweep_files(tmp_path, "serial", argv + ["--jobs", "1"])
