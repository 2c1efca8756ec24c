"""Command-line front end: experiment subcommands and static report emission.

Every invocation with the same flags and seeds produces bit-identical
output files; a MANIFEST.json with content hashes accompanies each run.
Validation failures exit with status 2 and a machine-readable JSON line on
stderr naming the offending flag; any other failure exits 2 with a JSON
line whose flag is null.  Exit 1 means a failed `verify` check.
"""

from __future__ import annotations

import os

# One BLAS thread per CLI process, chosen before numpy loads: no kernel of the
# lab gains from OpenBLAS's worker thread, which spins on another core.  A
# thread count the user gave OpenBLAS is kept.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import report as rpt
from .maps import holder_estimate, make_map, parse_map_spec, slobodeckij_seminorm
from .sphere import icosphere_vertex_count, integrate_over_sphere, sample_sphere

# Every subcommand needs the modules above.  Each command imports the names
# it uses of `measure`, `slices`, `smoothing`, `winding` and `convergence`
# itself, so a run loads only the modules of its own command.


def __getattr__(name: str):
    # `ProcessPoolExecutor` resolves on access only: the benchmark's tracer
    # (bench/spans.py) still subclasses and rebinds it, so `concurrent.futures`
    # loads in a traced run alone.  The hook goes once the tracer stops
    # binding it.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


class CLIError(Exception):
    def __init__(self, flag: str | None, message: str):
        super().__init__(message)
        self.flag = flag


def _fail(flag: str | None, message: str) -> None:
    raise CLIError(flag, message)


def _check_range(name: str, value, lo, hi, lo_open=False, hi_open=False):
    bad = not lo <= value <= hi or (lo_open and value == lo) or (hi_open and value == hi)
    if bad:
        _fail(name, f"value {value} outside required range")
    return value


def _float_list(name: str, text: str, count=None, lo=-np.inf, hi=np.inf, lo_open=False):
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        _fail(name, f"need {count or 'a list of'} comma-separated numbers, got {text!r}")
    return [_check_range(name, v, lo, hi, lo_open) for v in values]


def _load_config_args(argv: list[str]) -> list[str]:
    """Expand --config key=value files into equivalent flags (flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        _fail("--config", "missing file path")
    path = Path(argv[i + 1])
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        _fail("--config", f"cannot read {path}: {exc}")
    extra: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            _fail("--config", f"malformed line: {line!r}")
        extra.extend([f"--{key.strip()}", val.strip()])
    rest = argv[:i] + argv[i + 2 :]
    # subcommand first, then config-derived flags, then explicit flags
    return rest[:1] + extra + rest[1:]


def _map_from_args(args, domain_kind="ball"):
    try:
        return parse_map_spec(args.map, n=args.n, domain_kind=domain_kind)
    except (ValueError, KeyError, OSError) as exc:
        _fail("--map", str(exc))


def _mollification_mesh(args, epsilons: list[float]):
    """The sphere mesh of `sweep`, `slice` and `moll`, after every check that
    needs no mesh: the --mesh range, each --epsilon in (0, 0.3] and, when
    there is an epsilon, the dense S^2 cap.  Then the mesh is built and
    refused if too coarse to mollify at the smallest epsilon (spacing above
    epsilon/4)."""
    _check_range("--mesh", args.mesh, 16, 1 << 20)
    for epsilon in epsilons:
        _check_range("--epsilon", epsilon, 0.0, 0.3, lo_open=True)
    if epsilons:
        _check_dense_mollification(args)
    mesh = sample_sphere(1 if args.n == 3 else 2, args.mesh)
    if epsilons and mesh.spacing > min(epsilons) / 4.0:
        _fail("--mesh", f"mesh spacing {mesh.spacing:.4g} too coarse for epsilon {min(epsilons)}; "
                        "need spacing <= epsilon/4")
    return mesh


# Icosphere vertices above which mollification on S^2 (--n 4), a dense pass
# over every vertex pair, is refused.  On a 2-core host one pass took 6.3 s at
# 10,242 vertices; 40,962 (what epsilon = 0.1 needs) take about 100 s, the
# next icosphere, 163,842, about half an hour, and --mesh 2^20 asks for
# 2,621,442 (7e12 pairs).
MAX_DENSE_S2_VERTICES = 40962


def _check_dense_mollification(args) -> None:
    """Refuse an S^2 mesh too large to mollify densely, from its vertex count
    in closed form, before the mesh is built."""
    if args.n == 4:
        count = icosphere_vertex_count(args.mesh)
        if count > MAX_DENSE_S2_VERTICES:
            _fail("--mesh", f"--mesh {args.mesh} gives an icosphere of {count} vertices, "
                            f"over {MAX_DENSE_S2_VERTICES} for dense mollification on S^2; "
                            "use a smaller mesh")


def _require_n3(args, what: str) -> None:
    if args.n != 3:
        _fail("--n", f"{what} supports n = 3 only")


def _sv_worker(payload):
    """SV at every height of the sweep, from one mollification.  The name and
    the one-tuple argument are what the benchmark's tracer (bench/spans.py)
    wraps, as `cli._sv_worker(payload)`; `_cmd_sweep` calls it through the
    module global so that the wrapper sees the call."""
    from .slices import sweep_signed_volume

    pmap, mesh, t_grid, epsilon, method, grid_h = payload
    return sweep_signed_volume(
        pmap, t_grid, mesh, epsilon=epsilon, method=method, grid_h=grid_h
    ).sv_values


def _cmd_sweep(args) -> list[Path]:
    from .slices import SVProfile, fit_sv_polynomial, sv_lower_bound_check

    # the degree-n fit needs 2n heights
    _check_range("--t-steps", args.t_steps, 2 * args.n, 100000)
    _check_range("--grid-h", args.grid_h, 1e-5, 0.5)
    if args.method == "grid":
        _require_n3(args, "--method grid")
    mesh = _mollification_mesh(args, [] if args.epsilon is None else [args.epsilon])
    pmap = _map_from_args(args)
    t_grid = np.linspace(0.0, 1.0, args.t_steps)
    sv = _sv_worker((pmap, mesh, t_grid, args.epsilon, args.method, args.grid_h))
    profile = SVProfile(t_grid, sv)
    fit = fit_sv_polynomial(profile, n=args.n)
    try:
        check = sv_lower_bound_check(fit, profile)
    except ValueError as exc:  # leading coefficient off the unit-ball volume; for grid, h too coarse
        _fail("--grid-h" if args.method == "grid" else None, str(exc))
    out = Path(args.out)
    files = [rpt.write_sv_profile_csv(out, profile)]
    files.append(rpt.write_polyfit_json(out.with_suffix(".fit.json"), fit))
    files.append(
        rpt.write_gnuplot_script(out.with_suffix(".gp"), out, (1, 2), "signed volume by height")
    )
    files.append(
        rpt.write_json_report(
            out.with_suffix(".summary.json"),
            "sweep",
            _params_dict(args, ["map", "n", "t_steps", "mesh", "epsilon", "method", "grid_h"]),
            {
                "leading_coefficient": fit.leading_coefficient,
                "residual_rms": fit.residual_rms,
                "integral_abs_sv": check.integral_abs_sv,
                "kappa": check.kappa,
                "lower_bound_passed": check.passed,
            },
        )
    )
    return files


def _cmd_slice(args) -> list[Path]:
    from .slices import isoperimetric_check, loop_area, signed_volume_grid, signed_volume_stokes, slice_loop
    from .winding import MAX_FIELD_SIDE, field_grid, winding_field

    _check_range("--t", args.t, 0.0, 1.0)
    _check_range("--grid-h", args.grid_h, 1e-5, 0.5)
    mesh = _mollification_mesh(args, [] if args.epsilon is None else [args.epsilon])
    pmap = _map_from_args(args)
    loop = slice_loop(pmap, args.t, mesh, epsilon=args.epsilon)
    out = Path(args.out)
    files = []
    stats = {
        "t": args.t,
        "signed_volume_stokes": signed_volume_stokes(loop),
        "loop_area": loop_area(loop),
        "degenerate": loop.degenerate,
    }
    if args.n == 3:
        grid = field_grid(loop, args.grid_h)
        if grid.n_cells > MAX_FIELD_SIDE**2:
            _fail("--grid-h", f"winding field of {grid.shape[0]} x {grid.shape[1]} cells, over "
                              f"{MAX_FIELD_SIDE}^2; use a larger grid spacing")
        field = winding_field(loop, args.grid_h, grid=grid)
        files.append(rpt.write_winding_field_csv(out, field))
        grid_sv = signed_volume_grid(loop, args.grid_h, field=field)
        stats["signed_volume_grid"] = grid_sv.value
        stats["masked_cells"] = grid_sv.masked_cells
        iso = isoperimetric_check(loop, args.grid_h, field=field)
        stats["isoperimetric"] = {
            "lhs": iso.lhs, "rhs_area": iso.rhs_area,
            "ratio": iso.ratio, "passed": iso.passed,
        }
    files.append(
        rpt.write_json_report(
            out.with_suffix(".summary.json"),
            "slice",
            _params_dict(args, ["map", "n", "t", "mesh", "epsilon", "grid_h"]),
            stats,
        )
    )
    return files


def _cmd_measure(args) -> list[Path]:
    from .measure import rasterize_image_measure

    _check_range("--h", args.h, 0.0, 0.1, lo_open=True)
    _require_n3(args, "measure")
    pmap = _map_from_args(args)
    try:
        est = rasterize_image_measure(pmap, args.h)
    except ValueError as exc:
        # only the sample-count preflight's "use a larger h" names --h; where no
        # --h fits, or a raw sampled net has no modulus of continuity, the map
        # is what has to change
        _fail("--h" if str(exc).endswith("use a larger h") else "--map", str(exc))
    out = Path(args.out)
    return [
        rpt.write_json_report(
            out, "measure", _params_dict(args, ["map", "n", "h"]), est
        )
    ]


def _cmd_tubes(args) -> list[Path]:
    from .measure import (
        MAX_TUBE_PAIRS,
        build_tube_family,
        scaled_tube_families,
        tube_grid,
        tube_pairs_floor,
        tube_scaling_rows,
        tube_union_volume,
    )

    _check_range("--delta", args.delta, 0.005, 0.1)
    h = args.delta / 4.0
    if args.h is not None:
        h = _check_range("--h", args.h, 0.0, h, lo_open=True)
    _require_n3(args, "tubes")
    pmap = _map_from_args(args)
    out = Path(args.out)
    files = []
    results: dict = {}
    scales = _float_list("--scales", args.scales, lo=0.5, hi=8.0) if args.scales else None
    # at h = delta/4, the largest h, only a larger delta shrinks the work
    work_flag = "--h" if h < args.delta / 4.0 else "--delta"
    # a bound from delta and h alone refuses the largest requests before the net is built
    floor = tube_pairs_floor(args.delta, h)
    if floor > MAX_TUBE_PAIRS:
        _fail(work_flag, f"grid spacing {h} needs at least {floor:.3g} (tube, layer, row) "
                         f"triples, over {MAX_TUBE_PAIRS:.3g}; use a larger {work_flag[2:]}")
    family = build_tube_family(pmap, args.delta)
    scaled = []
    if scales:
        try:
            scaled = scaled_tube_families(family, scales)
        except ValueError as exc:  # a constant map: no scale to normalize by
            _fail("--map", str(exc))
    try:
        # the work preflight of the base family and every scaled one, before the first union
        for fam in [family] + [f for _, f in scaled]:
            tube_grid(fam, h)
    except ValueError as exc:
        _fail(work_flag, str(exc).replace("larger h", f"larger {work_flag[2:]}"))
    if scales:
        rows = tube_scaling_rows(scaled, h)
        results["scaling_experiment"] = rows
        prods = [r.scaled_product for r in rows]
        results["product_min"] = min(prods)
        results["product_spread"] = max(prods) / min(prods)
    results["union_volume"] = tube_union_volume(family, h)
    results["net_count"] = family.count
    csv_path, sidecar = rpt.write_tube_family(out.with_suffix(".net.csv"), family)
    files.extend([csv_path, sidecar])
    files.append(
        rpt.write_json_report(
            out, "tubes", _params_dict(args, ["map", "n", "delta", "h", "scales"]), results
        )
    )
    return files


def _cmd_moll(args) -> list[Path]:
    from .smoothing import mollification_bounds

    epsilons = _float_list("--epsilon", args.epsilon)
    _check_range("--alpha", args.alpha, 0.0, 1.0, lo_open=True)
    mesh = _mollification_mesh(args, epsilons)
    pmap = _map_from_args(args)
    rows = [mollification_bounds(pmap, e, args.alpha, mesh) for e in epsilons]
    sup_ratios = [r["bound_ratios"][0] for r in rows]
    grad_ratios = [r["bound_ratios"][1] for r in rows]
    results = {
        "rows": rows,
        "sup_ratio_spread": max(sup_ratios) / min(sup_ratios) if min(sup_ratios) > 0 else None,
        "grad_ratio_spread": max(grad_ratios) / min(grad_ratios) if min(grad_ratios) > 0 else None,
    }
    return [
        rpt.write_json_report(
            Path(args.out), "moll",
            _params_dict(args, ["map", "n", "epsilon", "alpha", "mesh"]), results,
        )
    ]


# Vertex pairs of one seminorm's dense double sum above which `regularity
# --theta-p` is refused.  One sum took 1.7 s at --mesh 4096 and 22.7 s at
# 16384 on a 2-core host; --mesh goes up to 2^20, about a day per seminorm.
MAX_SEMINORM_PAIRS = 8192**2


def _cmd_regularity(args) -> list[Path]:
    _check_range("--mesh", args.mesh, 64, 1 << 20)
    _require_n3(args, "regularity")
    pmap = _map_from_args(args)
    pairs = []
    for pair in (args.theta_p or "").split(";"):
        if not pair:
            continue
        theta, p = _float_list("--theta-p", pair, 2)
        _check_range("--theta-p", theta, 0.0, 1.0, lo_open=True, hi_open=True)
        _check_range("--theta-p", p, 1.0, np.inf)
        pairs.append((theta, p))
    if pairs and args.mesh**2 > MAX_SEMINORM_PAIRS:
        _fail("--mesh", f"--mesh {args.mesh} needs {args.mesh**2} vertex pairs per seminorm, over "
                        f"{MAX_SEMINORM_PAIRS}; use a smaller mesh")
    mesh = sample_sphere(1, args.mesh)
    rep = holder_estimate(pmap)
    results = {
        "holder_exponent": rep.holder_exponent_estimate,
        "holder_constant": rep.holder_constant_estimate,
        "degenerate": rep.degenerate,
        "fit_diagnostics": rep.fit_diagnostics,
        "slobodeckij": [
            {"theta": theta, "p": p, "seminorm": slobodeckij_seminorm(pmap, theta, p, mesh)}
            for theta, p in pairs
        ],
    }
    return [
        rpt.write_json_report(
            Path(args.out), "regularity",
            _params_dict(args, ["map", "n", "mesh", "theta_p"]), results,
        )
    ]


# Cone samples `line-kakeya --cone-r` may solve for, one ray solve each (about
# 1.5 ms on a 2-core host, so 150 s at the cap)
MAX_CONE_SAMPLES = 100_000


def _cmd_line_kakeya(args) -> list[Path]:
    from .measure import cone_coverage_check, line_kakeya_cover

    _require_n3(args, "line-kakeya")
    x = np.array(_float_list("--x", args.x, args.n))
    _check_range("--tol", args.tol, 0.0, np.inf, lo_open=True, hi_open=True)
    if args.cone_r is not None:
        _check_range("--cone-r", args.cone_r, 0.0, 0.5, lo_open=True)
    _check_range("--cone-samples", args.cone_samples, 1, MAX_CONE_SAMPLES)
    _check_range("--seed", args.seed, 0, np.inf)
    pmap = _map_from_args(args, domain_kind="sphere")
    try:
        result = line_kakeya_cover(pmap, x, tol=args.tol)
    except ValueError as exc:  # x not outside the map radius
        _fail("--x", str(exc))
    results = {
        "direction": result.direction,
        "residual": result.residual,
        "distance": result.distance,
        "converged": result.converged,
        "used_fallback": result.used_fallback,
        "reconstruction_error": float(
            np.linalg.norm(pmap(result.direction) + result.distance * result.direction - x)
        ),
    }
    if args.cone_r is not None:
        cone = cone_coverage_check(
            pmap, args.cone_r, sample_count=args.cone_samples, seed=args.seed
        )
        results["cone_coverage"] = cone
    return [
        rpt.write_json_report(
            Path(args.out), "line-kakeya",
            _params_dict(args, ["map", "n", "x", "tol", "cone_r", "cone_samples", "seed"]),
            results,
        )
    ]


def _verify_checks_core() -> list[tuple[str, bool, str]]:
    from .convergence import triangle_inequality_check
    from .measure import build_tube_family, line_kakeya_cover, tube_union_volume
    from .slices import (
        fit_sv_polynomial,
        isoperimetric_check,
        loop_area,
        signed_volume_grid,
        signed_volume_stokes,
        slice_loop,
        sweep_signed_volume,
    )
    from .smoothing import mollifier_kernel, mollify_on_sphere
    from .winding import ray_crossing_oracle, winding_field, winding_number_2d

    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    circle = sample_sphere(1, 512)
    err = abs(integrate_over_sphere(np.cos(circle.angles) ** 2, circle) - np.pi)
    record("circle-quadrature-cos2", err < 1e-8, f"error {err:.2e}")

    s2 = sample_sphere(2, 642)
    err = abs(s2.weights.sum() - 4 * np.pi)
    record("sphere-weight-partition", err < 1e-9, f"error {err:.2e}")

    zero = make_map("zero", n=3)
    mesh = sample_sphere(1, 2048)
    prof = sweep_signed_volume(zero, np.linspace(0, 1, 16), mesh)
    fit = fit_sv_polynomial(prof)
    record(
        "signed-volume-leading-pi",
        abs(fit.leading_coefficient - np.pi) < 1e-4,
        f"leading {fit.leading_coefficient:.6f}",
    )

    rad = make_map("radial_scale", r=0.5, n=3)
    loop = slice_loop(rad, 0.3, sample_sphere(1, 512))
    sv_s = signed_volume_stokes(loop)
    sv_g = signed_volume_grid(loop, 0.01)
    gap = abs(sv_s - sv_g.value)
    bound = 3 * 0.01 * loop_area(loop)
    record("stokes-vs-grid", gap <= bound, f"gap {gap:.4f} <= {bound:.4f}")

    lac = make_map("lacunary_fourier", alpha=0.7, terms=10, seed=3, n=3)
    loop = slice_loop(lac, 0.5, sample_sphere(1, 512))
    field = winding_field(loop, 0.02)
    centers = field.grid.centers()[~field.mask.ravel()]
    wind_a = winding_number_2d(loop, centers)
    wind_r = ray_crossing_oracle(loop, centers)
    mism = int(np.sum(wind_a != wind_r))
    record("winding-cross-validation", mism == 0, f"{mism} mismatches / {len(centers)}")
    mism_f = int(np.sum(field.values[~field.mask] != wind_a))
    record("winding-field-consistency", mism_f == 0, f"{mism_f} field mismatches")

    iso = isoperimetric_check(slice_loop(zero, 1.0, sample_sphere(1, 1024)), 0.01)
    record(
        "isoperimetric-circle",
        abs(iso.ratio - iso.sharp_constant) < 0.01 * iso.sharp_constant,
        f"ratio {iso.ratio:.5f}",
    )

    const = make_map("constant", p=[0.2, -0.1], n=3)
    moll_mesh = sample_sphere(1, 1024)
    out = mollify_on_sphere(const, 0.1, moll_mesh)
    err = float(np.max(np.abs(out - np.array([0.2, -0.1]))))
    record("mollify-constant-fixed", err < 1e-8, f"error {err:.2e}")

    ker = mollifier_kernel(0.1, moll_mesh)
    record("kernel-normalizer-order-one", 0.1 <= ker.d_epsilon <= 10.0, f"d_eps {ker.d_epsilon:.3f}")

    tc = triangle_inequality_check(200_000, dim=2, seed=0)
    record("normalized-triangle-inequality", tc.violations == 0, f"{tc.violations} violations")

    fam = build_tube_family(zero, 0.05)
    vol = tube_union_volume(fam, 0.0125)
    record(
        "tube-union-cone",
        vol.value >= 0.85 * np.pi / 3,
        f"volume {vol.value:.4f} vs cone {np.pi/3:.4f}",
    )

    sphere_map = make_map("bandlimited", n=3, domain_kind="sphere", amplitude=0.4, terms=5, seed=2)
    res = line_kakeya_cover(sphere_map, np.array([2.0, 0.0, 0.0]))
    recon = float(
        np.linalg.norm(
            sphere_map(res.direction) + res.distance * res.direction - np.array([2.0, 0.0, 0.0])
        )
    )
    record("line-cover-reconstruction", recon < 1e-6, f"reconstruction {recon:.2e}")
    return checks


def _cmd_verify(args) -> list[Path]:
    if args.suite != "core":
        _fail("--suite", f"unknown suite {args.suite!r}")
    _require_n3(args, "verify")
    checks = _verify_checks_core()
    results = {
        "suite": args.suite,
        "checks": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks
        ],
        "all_passed": all(ok for _, ok, _ in checks),
    }
    files = [
        rpt.write_json_report(
            Path(args.out), "verify", _params_dict(args, ["suite", "n"]), results
        )
    ]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not results["all_passed"]:
        rpt.write_manifest(Path(args.out).parent, files)
        sys.exit(1)
    return files


def _params_dict(args, names: list[str]) -> dict:
    return {k: getattr(args, k, None) for k in names}


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with the CLI's one JSON line on stderr, naming
    the flag argparse names, or null (an unrecognized argument)."""

    def error(self, message):
        named = re.match(r"(?:argument |the following arguments are required: )(--[\w-]+)", message)
        print(json.dumps({"error": message, "flag": named and named.group(1)}), file=sys.stderr)
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kakeya-lab",
        description="Numerical experiments on winding fields, mollification, and tube unions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mesh=False):
        p.add_argument("--map", default="zero", help="catalog map spec, e.g. lacunary:alpha=0.8,terms=12,seed=7")
        p.add_argument("--n", type=int, default=3, choices=(3, 4))
        p.add_argument("--out", required=True)
        # accepted for old command lines and config files; every sweep runs in one process
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key=value file mirroring flags")
        if with_mesh:
            p.add_argument("--mesh", type=int, default=1024)

    p = sub.add_parser("sweep", help="signed volume over slice heights + polynomial fit")
    common(p, with_mesh=True)
    p.add_argument("--t-steps", type=int, default=64)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--method", choices=("stokes", "grid"), default="stokes")
    p.add_argument("--grid-h", type=float, default=0.01)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("slice", help="one slice: winding field, signed volume, isoperimetric")
    common(p, with_mesh=True)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--grid-h", type=float, default=0.02)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("measure", help="rasterized image-measure estimate")
    common(p)
    p.add_argument("--h", type=float, default=0.01)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("tubes", help="separated tube family and union volume")
    common(p)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--scales", default=None, help="comma list for the scaling experiment")
    p.set_defaults(func=_cmd_tubes)

    p = sub.add_parser("moll", help="mollification deviation and gradient bounds")
    common(p, with_mesh=True)
    p.add_argument("--epsilon", default="0.1,0.05,0.025")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_moll)

    p = sub.add_parser("regularity", help="Holder fit and fractional seminorms")
    common(p, with_mesh=True)
    p.add_argument("--theta-p", default="", help="semicolon list of theta,p pairs")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("line-kakeya", help="ray coverage solve for sphere-domain maps")
    common(p)
    p.add_argument("--x", required=True, help="comma-separated target point")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--cone-r", type=float, default=None)
    p.add_argument("--cone-samples", type=int, default=500)
    p.set_defaults(func=_cmd_line_kakeya)

    p = sub.add_parser("verify", help="run the core invariant suite")
    common(p)
    p.add_argument("--suite", default="core")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _load_config_args(argv)
        args = parser.parse_args(argv)
        files = args.func(args)
        rpt.write_manifest(Path(args.out).parent, files)
        return 0
    except CLIError as exc:
        print(json.dumps({"error": str(exc), "flag": exc.flag}), file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        print(json.dumps({"error": str(exc) or type(exc).__name__, "flag": None}), file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is kept for a failed `verify` check
        error = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(json.dumps({"error": error, "flag": None}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
