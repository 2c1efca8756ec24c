import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kakeya_lab
from kakeya_lab.cli import main
from kakeya_lab.sphere import sample_sphere

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_cli(args):
    return main([str(a) for a in args])


def _run_python(code, **env):
    """Run `code` in a fresh interpreter on this checkout's package, with none
    of the BLAS thread variables set except those in `env`."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(kakeya_lab.__file__).parent.parent)
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(base, **env))
    assert done.returncode == 0, done.stderr


def test_package_namespace_is_lazy():
    _run_python(
        "import sys\n"
        "import kakeya_lab\n"
        "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('kakeya_lab.')]\n"
        "assert not loaded, loaded\n"
        "import importlib\n"
        "for name in kakeya_lab.__all__:\n"
        "    owner = importlib.import_module('kakeya_lab.' + kakeya_lab._OWNER[name])\n"
        "    assert getattr(kakeya_lab, name) is getattr(owner, name), name\n"
        "assert set(kakeya_lab.__all__) <= set(dir(kakeya_lab))\n"
        "ns = {}\n"
        "exec('from kakeya_lab import *', ns)\n"
        "assert all(ns[name] is getattr(kakeya_lab, name) for name in kakeya_lab.__all__)\n"
        "try:\n"
        "    kakeya_lab.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an unknown name did not raise AttributeError')\n"
        "from kakeya_lab import convergence, gridding\n"
        "assert convergence.convergence_split is kakeya_lab.convergence_split\n"
    )


def test_library_import_loads_only_what_it_uses():
    # the benchmark's library workload imports these three names
    _run_python(
        "import sys\n"
        "from kakeya_lab import convergence_split, make_map, sample_sphere\n"
        "assert 'kakeya_lab.measure' not in sys.modules\n"
        "assert 'kakeya_lab.report' not in sys.modules\n"
        "import os\n"
        "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n"
    )


def test_cli_loads_only_the_modules_of_its_command(tmp_path):
    # importing the CLI loads the modules every command needs, and a `tubes`
    # run adds those of the tube union alone; no process pool is loaded, by
    # the import or by a sweep, --jobs 2 included, until someone asks the CLI
    # for `ProcessPoolExecutor`
    _run_python(
        "import sys\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith('kakeya_lab')}\n"
        "pools = {'concurrent.futures', 'multiprocessing'}\n"
        "from kakeya_lab.cli import main\n"
        "assert loaded() == {'kakeya_lab', 'kakeya_lab.cli', 'kakeya_lab.maps', 'kakeya_lab.pairs',\n"
        "                    'kakeya_lab.report', 'kakeya_lab.sphere'}, sorted(loaded())\n"
        "assert not pools & set(sys.modules), sorted(pools & set(sys.modules))\n"
        f"assert main(['tubes', '--map', 'zero', '--delta', '0.1', '--out', {str(tmp_path / 't.json')!r}]) == 0\n"
        "assert loaded() == {'kakeya_lab', 'kakeya_lab.cli', 'kakeya_lab.maps', 'kakeya_lab.pairs',\n"
        "                    'kakeya_lab.report', 'kakeya_lab.sphere', 'kakeya_lab.gridding',\n"
        "                    'kakeya_lab.measure'}, sorted(loaded())\n"
        f"argv = {SWEEPS['grid']!r} + ['--jobs', '2', '--out', {str(tmp_path / 'sv.csv')!r}]\n"
        "assert main(['sweep', *argv]) == 0\n"
        "assert not pools & set(sys.modules), sorted(pools & set(sys.modules))\n"
        "import kakeya_lab.cli as cli\n"
        "pool = cli.ProcessPoolExecutor\n"
        "import concurrent.futures\n"
        "assert pool is concurrent.futures.ProcessPoolExecutor\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an unknown name did not raise AttributeError')\n"
    )


# records OPENBLAS_NUM_THREADS when numpy is first looked for, then imports the CLI
IMPORT_CLI_WATCHING_NUMPY = (
    "import os, sys\n"
    "seen = []\n"
    "class Spy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' and not seen:\n"
    "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "sys.meta_path.insert(0, Spy())\n"
    "import kakeya_lab.cli\n"
    "assert 'numpy' in sys.modules\n"
)


@pytest.mark.parametrize("env, expected", [
    ({}, "1"),  # set before numpy loads
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),  # the user's count is kept
    ({"GOTO_NUM_THREADS": "2"}, None),
    ({"OMP_NUM_THREADS": "2"}, None),  # OpenBLAS reads it; nothing is added
])
def test_cli_runs_blas_with_one_thread_unless_the_user_chose(env, expected):
    now = "os.environ.get('OPENBLAS_NUM_THREADS')"
    _run_python(IMPORT_CLI_WATCHING_NUMPY + f"assert seen == [{now}] == [{expected!r}], (seen, {now})\n", **env)


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
    import kakeya_lab.slices as slices
    import kakeya_lab.winding as winding

    calls = []
    real = winding.winding_field

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(winding, "winding_field", counting)
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
    assert results["used_fallback"] is False


@pytest.mark.parametrize("x", ["0.1,0,0", "0,0,0"])
def test_line_kakeya_x_inside_map_radius_names_flag(tmp_path, capsys, x):
    code = run_cli(
        ["line-kakeya", "--map", "bandlimited:amplitude=0.5", "--x", x, "--out", tmp_path / "lk.json"]
    )
    assert _flag_of_failure(code, capsys) == "--x"


@pytest.mark.parametrize("flag, extra", [
    ("--tol", ["--tol", "0"]),
    ("--tol", ["--tol", "-1"]),
    ("--tol", ["--tol", "nan"]),
    ("--tol", ["--tol", "inf"]),
    ("--cone-r", ["--cone-r", "0"]),
    ("--cone-r", ["--cone-r", "0.6"]),
    ("--cone-r", ["--cone-r", "nan"]),
    ("--cone-samples", ["--cone-r", "0.3", "--cone-samples", "0"]),
    ("--cone-samples", ["--cone-r", "0.3", "--cone-samples", "-5"]),
    ("--cone-samples", ["--cone-r", "0.3", "--cone-samples", "100001"]),
    ("--seed", ["--cone-r", "0.3", "--seed", "-1"]),
])
def test_line_kakeya_bad_flags_name_flag_before_any_solve(tmp_path, capsys, monkeypatch, flag, extra):
    import kakeya_lab.measure as measure

    def no_solve(*args, **kwargs):
        raise AssertionError("a ray was solved before the flags were checked")

    monkeypatch.setattr(measure, "line_kakeya_cover", no_solve)
    monkeypatch.setattr(measure, "cone_coverage_check", no_solve)
    code = run_cli(["line-kakeya", "--map", "bandlimited:amplitude=0.5,terms=6,seed=1", "--x", "2,0,0",
                    *extra, "--out", tmp_path / "lk.json"])
    assert _flag_of_failure(code, capsys) == flag


def test_line_kakeya_accepts_the_flag_range_ends(tmp_path):
    out = tmp_path / "lk.json"
    code = run_cli(["line-kakeya", "--map", "bandlimited:amplitude=0.5,terms=6,seed=1", "--x", "2,0,0",
                    "--tol", "1e-9", "--cone-r", "0.5", "--cone-samples", "1", "--seed", "0", "--out", out])
    assert code == 0
    assert json.loads(out.read_text())["results"]["cone_coverage"]["samples"] == 1


@pytest.mark.parametrize("n, t_steps", [(4, 6), (4, 7), (3, 5)])
def test_sweep_too_few_heights_for_the_fit_names_flag(tmp_path, capsys, n, t_steps):
    # the degree-n fit needs 2n heights
    code = run_cli(
        ["sweep", "--n", n, "--map", "zero", "--mesh", "642", "--t-steps", t_steps,
         "--jobs", "1", "--out", tmp_path / "sv.csv"]
    )
    assert _flag_of_failure(code, capsys) == "--t-steps"


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


def test_slice_oversized_field_names_grid_h(tmp_path, capsys, monkeypatch):
    # about 1.2e5 x 1.2e5 cells, far over 4096^2: refused before any plane
    import kakeya_lab.winding as winding

    def no_field(*args, **kwargs):
        raise AssertionError("the winding field was built before the plane preflight")

    monkeypatch.setattr(winding, "winding_field", no_field)
    code = run_cli(["slice", "--map", "zero", "--grid-h", "1e-5", "--out", tmp_path / "s.csv"])
    assert _flag_of_failure(code, capsys) == "--grid-h"
    assert not (tmp_path / "MANIFEST.json").exists()


@pytest.mark.parametrize("message, error", [
    ("Unable to allocate 115. GiB", "Unable to allocate 115. GiB"),
    ("", "MemoryError"),
])
def test_memory_error_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch, message, error):
    import kakeya_lab.cli as cli

    def out_of_memory(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_measure", out_of_memory)
    code = run_cli(["measure", "--map", "zero", "--out", tmp_path / "m.json"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1]) == {"error": error, "flag": None}


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


def test_regularity_oversized_mesh_names_mesh(tmp_path, capsys, monkeypatch):
    import kakeya_lab.cli as cli

    def no_kernel(*args, **kwargs):
        raise AssertionError("reached past the seminorm work cap")

    monkeypatch.setattr(cli, "slobodeckij_seminorm", no_kernel)
    monkeypatch.setattr(cli, "sample_sphere", no_kernel)
    assert cli.MAX_SEMINORM_PAIRS == 8192**2
    for mesh in (8193, 16384, 1 << 20):
        code = run_cli(["regularity", "--mesh", mesh, "--theta-p", "0.25,2;0.5,3",
                        "--out", tmp_path / "r.json"])
        assert _flag_of_failure(code, capsys) == "--mesh"
    # at the cap, and above it with no seminorm asked for, nothing is refused
    monkeypatch.setattr(cli, "sample_sphere", sample_sphere)
    seen = []
    monkeypatch.setattr(cli, "slobodeckij_seminorm",
                        lambda pmap, theta, p, mesh: seen.append(mesh.n_vertices) or 1.0)
    assert run_cli(["regularity", "--mesh", 8192, "--theta-p", "0.25,2", "--out", tmp_path / "r.json"]) == 0
    assert run_cli(["regularity", "--mesh", 16384, "--out", tmp_path / "r.json"]) == 0
    assert seen == [8192]


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

    monkeypatch.setattr(measure, "tube_layer_runs", no_kernel)
    code = run_cli(
        ["tubes", "--map", "zero", "--delta", "0.05", "--h", "0.00001", "--out", tmp_path / "t.json"]
    )
    assert _flag_of_failure(code, capsys) == "--h"


def test_tubes_oversized_work_at_the_largest_h_names_delta(tmp_path, capsys, monkeypatch):
    # about 1.14e9 triples at the default h = delta/4, which --h cannot raise
    import kakeya_lab.measure as measure

    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel ran before the work preflight")

    def no_net(*args, **kwargs):
        raise AssertionError("the net was built before the work preflight")

    monkeypatch.setattr(measure, "tube_layer_runs", no_kernel)
    # the bound from delta and h alone, 2.28e8 triples, refuses before the net
    monkeypatch.setattr(measure, "_greedy_net", no_net)
    code = run_cli(["tubes", "--map", "zero", "--delta", "0.005", "--out", tmp_path / "t.json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["flag"] == "--delta"
    assert payload["error"].endswith("use a larger delta")


@pytest.mark.parametrize("argv, flag", [
    # the base family's layer grid, about 7.9e7 x 7.8e7 cells at h = delta/4,
    # is too wide for packed int64 run keys; so is the grid at h = 0.01, while
    # the scale-2 family spans at most about 4 and fits
    ([], "--delta"),
    (["--h", "0.01", "--scales", "2"], "--h"),
], ids=["delta", "h"])
def test_tubes_too_wide_for_run_keys_names_the_flag(tmp_path, capsys, monkeypatch, argv, flag):
    import kakeya_lab.measure as measure

    def no_kernel(*args, **kwargs):
        raise AssertionError("a union ran before every family's work preflight")

    monkeypatch.setattr(measure, "tube_layer_runs", no_kernel)
    code = run_cli(["tubes", "--map", "poly:coeffs=0;1e6", "--delta", "0.1", *argv,
                    "--out", tmp_path / "t.json"])
    assert _flag_of_failure(code, capsys) == flag


def test_tubes_checks_every_family_before_the_first_union(tmp_path, capsys, monkeypatch):
    # the work preflight of every family runs before the first union: only
    # the scale-8 family, preflighted last, is refused
    import kakeya_lab.measure as measure
    from test_measure import refuse_the_scale_8_family

    def no_kernel(*args, **kwargs):
        raise AssertionError("a union ran before every family's work preflight")

    monkeypatch.setattr(measure, "tube_layer_runs", no_kernel)
    refuse_the_scale_8_family(monkeypatch)
    code = run_cli(
        ["tubes", "--map", "lacunary:alpha=0.8,terms=10,seed=21", "--delta", "0.1", "--h", "0.005",
         "--scales", "8", "--out", tmp_path / "t.json"]
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


@pytest.mark.parametrize("mesh", [40963, 1 << 20])
@pytest.mark.parametrize("argv", [
    ["sweep", "--epsilon", "0.05", "--t-steps", "16", "--jobs", "1"],
    ["slice", "--epsilon", "0.05"],
    ["moll", "--alpha", "0.5"],
])
def test_dense_s2_mollification_over_the_cap_names_mesh(tmp_path, capsys, monkeypatch, argv, mesh):
    # 163,842 and 2,621,442 icosphere vertices: refused from the closed-form
    # count, before the mesh is built or any dense pass runs
    import kakeya_lab.cli as cli
    import kakeya_lab.smoothing as smoothing

    def no_work(*args, **kwargs):
        raise AssertionError("the mesh was built or mollified before the size check")

    monkeypatch.setattr(cli, "sample_sphere", no_work)
    monkeypatch.setattr(smoothing, "_bump_pass", no_work)
    code = run_cli(argv + ["--n", "4", "--mesh", mesh, "--out", tmp_path / "out.json"])
    assert _flag_of_failure(code, capsys) == "--mesh"


@pytest.mark.parametrize("n, mesh", [(4, 40962), (3, 4096)])
@pytest.mark.parametrize("argv", [
    ["sweep", "--epsilon", "0.5", "--t-steps", "16", "--jobs", "1"],
    ["sweep", "--epsilon", "0", "--t-steps", "16", "--jobs", "1"],
    ["slice", "--epsilon", "0.5"],
    ["moll", "--alpha", "0.5", "--epsilon", "0.1,0.5"],
    ["moll", "--alpha", "0.5", "--epsilon", "-0.1"],
])
def test_epsilon_out_of_range_is_refused_before_the_mesh_is_built(tmp_path, capsys, monkeypatch, argv, n, mesh):
    # a refused --epsilon builds no mesh, even a 40,962-vertex icosphere
    import kakeya_lab.cli as cli

    def no_mesh(*args, **kwargs):
        raise AssertionError("the mesh was built before --epsilon was checked")

    monkeypatch.setattr(cli, "sample_sphere", no_mesh)
    code = run_cli(argv + ["--n", n, "--mesh", mesh, "--out", tmp_path / "out.json"])
    assert _flag_of_failure(code, capsys) == "--epsilon"


def test_dense_s2_cap_leaves_the_documented_meshes_alone():
    import argparse

    import kakeya_lab.cli as cli
    from kakeya_lab.sphere import icosphere_vertex_count

    for resolution in (8, 12, 13, 42, 162, 642, 643, 2562):
        assert icosphere_vertex_count(resolution) == sample_sphere(2, resolution).n_vertices
    assert icosphere_vertex_count(40962) == cli.MAX_DENSE_S2_VERTICES == 40962
    assert icosphere_vertex_count(40963) == 163842
    for mesh in (642, 2562, 40962, 1 << 20):
        # the circle (n = 3) is never refused; S^2 up to the cap is not
        cli._check_dense_mollification(argparse.Namespace(n=3, mesh=mesh))
        if mesh <= 40962:
            cli._check_dense_mollification(argparse.Namespace(n=4, mesh=mesh))


@pytest.mark.parametrize("argv", [
    ["sweep", "--method", "grid", "--mesh", "162", "--t-steps", "8", "--jobs", "1"],
    ["regularity"],
    ["measure"],
    ["tubes"],
    ["line-kakeya", "--x", "2,0,0,0"],
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
    # every sweep runs in one process: --jobs and KAKEYA_LAB_JOBS are
    # accepted and change no byte, a non-integer variable included
    monkeypatch.delenv("KAKEYA_LAB_JOBS", raising=False)
    serial = _sweep_files(tmp_path, "serial", SWEEPS[kind] + ["--jobs", "1"])
    for jobs in ("2", "4"):
        assert _sweep_files(tmp_path, f"jobs{jobs}", SWEEPS[kind] + ["--jobs", jobs]) == serial
    for env in ("4", "many"):
        monkeypatch.setenv("KAKEYA_LAB_JOBS", env)
        assert _sweep_files(tmp_path, f"env-{env}", SWEEPS[kind] + ["--jobs", "1"]) == serial


def test_sweep_mollifies_once(tmp_path, monkeypatch):
    # --jobs 2 starts no pool: one worker call gets every height, and the map
    # is mollified once
    import kakeya_lab.cli as cli
    import kakeya_lab.slices as slices

    heights = []
    mollified = []
    real_worker = cli._sv_worker
    real_mollify = slices.mollify_on_sphere

    def worker(payload):
        heights.append(payload[2])
        return real_worker(payload)

    def mollify(*args, **kwargs):
        mollified.append(1)
        return real_mollify(*args, **kwargs)

    monkeypatch.delenv("KAKEYA_LAB_JOBS", raising=False)
    monkeypatch.setattr(cli, "_sv_worker", worker)
    monkeypatch.setattr(slices, "mollify_on_sphere", mollify)
    _sweep_files(tmp_path, "sweep", SWEEPS["mollified"] + ["--jobs", "2"])
    assert len(heights) == 1 and np.array_equal(heights[0], np.linspace(0.0, 1.0, 8))
    assert mollified == [1]


@pytest.mark.parametrize("exc, error", [
    (KeyError("radius"), "KeyError: 'radius'"),
    (IndexError("index 7 is out of bounds for axis 0 with size 4"),
     "IndexError: index 7 is out of bounds for axis 0 with size 4"),
    (IndexError(), "IndexError"),
])
def test_unexpected_errors_exit_2_without_a_traceback(tmp_path, capsys, monkeypatch, exc, error):
    # exit 1 means a failed verify check; any other failure is exit 2 with flag null
    import kakeya_lab.cli as cli

    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_measure", broken)
    code = run_cli(["measure", "--map", "zero", "--out", tmp_path / "m.json"])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err + captured.out
    assert json.loads(captured.err.strip().splitlines()[-1]) == {"error": error, "flag": None}
    assert not (tmp_path / "MANIFEST.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--n", "5"], "--n"),
    (["sweep", "--mesh", "abc"], "--mesh"),
    (["sweep", "--bogus", "1"], None),
])
def test_argument_errors_give_one_json_line(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", tmp_path / "x.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["flag"] == flag


def test_grid_sweep_failing_the_leading_coefficient_names_grid_h_and_writes_nothing(tmp_path, capsys):
    # the leading coefficient comes out 10.5 % above pi at this spacing
    out = tmp_path / "run"
    out.mkdir()
    code = run_cli(
        ["sweep", "--map", "lacunary:alpha=0.8,terms=12,seed=7", "--method", "grid", "--grid-h", "0.01",
         "--mesh", "768", "--t-steps", "16", "--out", out / "sv.csv"]
    )
    assert _flag_of_failure(code, capsys) == "--grid-h"
    assert list(out.iterdir()) == []


def test_readme_cli_examples_parse():
    import shlex

    from kakeya_lab.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("kakeya-lab ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # each once failed in its own way: naming --delta with a nan x nan layer
    # grid, naming --h with a float NaN, or exiting 0 (line-kakeya, and
    # regularity with "degenerate": true)
    ["tubes", "--map", "poly:coeffs=0;inf", "--delta", "0.1"],
    ["measure", "--map", "constant:p=inf;0", "--h", "0.05"],
    ["line-kakeya", "--map", "bandlimited:amplitude=nan", "--x", "3,0,0"],
    ["regularity", "--map", "poly:coeffs=0;inf"],
    ["regularity", "--map", "radial:r=nan"],
], ids=["tubes", "measure", "line-kakeya", "regularity-poly", "regularity-radial"])
def test_non_finite_map_parameters_name_map(tmp_path, capsys, argv):
    code = run_cli([*argv, "--out", tmp_path / "out.json"])
    assert _flag_of_failure(code, capsys) == "--map"


def test_grid_map_with_a_non_finite_value_names_map(tmp_path, capsys):
    net = tmp_path / "net.csv"
    net.write_text("0.0,0.0,0.1,0.2\n0.5,0.0,inf,0.2\n")
    code = run_cli(["measure", "--map", f"grid:path={net}", "--h", "0.05", "--out", tmp_path / "m.json"])
    assert _flag_of_failure(code, capsys) == "--map"


def test_tube_family_csv_is_the_csv_writer_bytes(tmp_path):
    # awkward floats: signed zero, a tiny value, a sum off its decimal, a
    # large one and a negative; byte-equal to the csv module's rows
    from kakeya_lab.measure import TubeFamily
    from kakeya_lab.report import write_csv, write_tube_family

    net = np.array([[-0.0, 1e-17], [0.1 + 0.2, -0.3], [0.5, 0.0]])
    centers = np.array([[1e300, -2.5e-8], [0.0, -0.0], [np.float64(1) / 3, 7.0]])
    fam = TubeFamily(0.1, net, centers, 3)
    got, sidecar = write_tube_family(tmp_path / "net.csv", fam)
    rows = [tuple(net[k]) + tuple(centers[k]) for k in range(len(net))]
    want = write_csv(tmp_path / "want.csv", ["v1", "v2", "c1", "c2"], rows)
    assert got.read_bytes() == want.read_bytes()
    assert b"-0.0,1e-17,1e+300" in got.read_bytes()
    assert sidecar.read_text() == '{\n  "count": 3,\n  "delta": 0.1,\n  "n": 3\n}\n'
