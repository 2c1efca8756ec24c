"""Command-line front end: experiment subcommands and static report emission.

Every invocation with the same flags and seeds produces bit-identical
output files; a MANIFEST.json with content hashes accompanies each run.
Validation failures exit with status 2 and a machine-readable JSON line on
stderr naming the offending flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import report as rpt
from .convergence import triangle_inequality_check
from .maps import holder_estimate, make_map, parse_map_spec, slobodeckij_seminorm
from .measure import (
    build_tube_family,
    cone_coverage_check,
    line_kakeya_cover,
    lipschitz_tube_experiment,
    rasterize_image_measure,
    tube_union_volume,
)
from .slices import (
    SVProfile,
    fit_sv_polynomial,
    isoperimetric_check,
    loop_area,
    signed_volume_grid,
    signed_volume_stokes,
    slice_loop,
    sv_lower_bound_check,
    sweep_signed_volume,
)
from .smoothing import mollification_bounds, mollifier_kernel, mollify_on_sphere
from .sphere import integrate_over_sphere, sample_sphere
from .winding import (
    ray_crossing_oracle,
    winding_field,
    winding_number_2d,
)


class CLIError(Exception):
    def __init__(self, flag: str, message: str):
        super().__init__(message)
        self.flag = flag


def _fail(flag: str, message: str) -> None:
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


def _resolve_jobs(args) -> int:
    env = os.environ.get("KAKEYA_LAB_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            _fail("KAKEYA_LAB_JOBS", f"not an integer: {env!r}")
    if args.jobs is not None:
        return max(1, args.jobs)
    return os.cpu_count() or 1


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


def _mesh_for(args, n: int):
    dim = 1 if n == 3 else 2
    return sample_sphere(dim, args.mesh)


def _check_mesh_resolves(mesh, epsilon: float) -> None:
    """Reject a mesh too coarse to mollify at scale epsilon."""
    if mesh.spacing > epsilon / 4.0:
        _fail("--mesh", f"mesh spacing {mesh.spacing:.4g} too coarse for epsilon {epsilon}; "
                        "need spacing <= epsilon/4")


def _require_n3(args, what: str) -> None:
    if args.n != 3:
        _fail("--n", f"{what} supports n = 3 only")


def _sv_worker(payload):
    """SV at one subset of the heights; the pool maps it over a partition."""
    pmap, mesh, t_subset, epsilon, method, grid_h = payload
    return sweep_signed_volume(
        pmap, t_subset, mesh, epsilon=epsilon, method=method, grid_h=grid_h
    ).sv_values


def _cmd_sweep(args) -> list[Path]:
    _check_range("--t-steps", args.t_steps, 6, 100000)
    _check_range("--mesh", args.mesh, 16, 1 << 20)
    _check_range("--grid-h", args.grid_h, 1e-5, 0.5)
    if args.method == "grid":
        _require_n3(args, "--method grid")
    mesh = _mesh_for(args, args.n)
    if args.epsilon is not None:
        _check_range("--epsilon", args.epsilon, 0.0, 0.3, lo_open=True)
        _check_mesh_resolves(mesh, args.epsilon)
    pmap = _map_from_args(args)
    t_grid = np.linspace(0.0, 1.0, args.t_steps)
    # each worker gets interleaved heights, at least the n a sweep needs
    jobs = min(_resolve_jobs(args), os.cpu_count() or 1, args.t_steps // args.n)
    payloads = [
        (pmap, mesh, t_grid[k::jobs], args.epsilon, args.method, args.grid_h)
        for k in range(jobs)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_sv_worker, payloads))
    else:
        parts = [_sv_worker(payloads[0])]
    sv = np.empty(args.t_steps)
    for k, part in enumerate(parts):
        sv[k::jobs] = part
    profile = SVProfile(
        t_grid, sv, args.method, mesh.n_vertices,
        args.grid_h if args.method == "grid" else None,
    )
    fit = fit_sv_polynomial(profile, n=args.n)
    out = Path(args.out)
    files = [rpt.write_sv_profile_csv(out, profile)]
    files.append(rpt.write_polyfit_json(out.with_suffix(".fit.json"), fit))
    files.append(
        rpt.write_gnuplot_script(out.with_suffix(".gp"), out, (1, 2), "signed volume by height")
    )
    check = sv_lower_bound_check(fit, profile)
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
    _check_range("--t", args.t, 0.0, 1.0)
    _check_range("--mesh", args.mesh, 16, 1 << 20)
    _check_range("--grid-h", args.grid_h, 1e-5, 0.5)
    mesh = _mesh_for(args, args.n)
    if args.epsilon is not None:
        _check_range("--epsilon", args.epsilon, 0.0, 0.3, lo_open=True)
        _check_mesh_resolves(mesh, args.epsilon)
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
        field = winding_field(loop, args.grid_h)
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
    _check_range("--h", args.h, 0.0, 0.1, lo_open=True)
    _require_n3(args, "measure")
    pmap = _map_from_args(args)
    try:
        est = rasterize_image_measure(pmap, args.h)
    except ValueError as exc:  # the sample-count preflight
        _fail("--h", str(exc))
    out = Path(args.out)
    return [
        rpt.write_json_report(
            out, "measure", _params_dict(args, ["map", "n", "h"]), est
        )
    ]


def _cmd_tubes(args) -> list[Path]:
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
    family = build_tube_family(pmap, args.delta)
    try:
        # the work preflight; scaled families need the same (tube, layer, row) count
        est = tube_union_volume(family, h)
    except ValueError as exc:
        _fail("--h", str(exc))
    if scales:
        try:
            rows = lipschitz_tube_experiment(pmap, scales, args.delta, h=h)
        except ValueError as exc:  # a constant map: no scale to normalize by
            _fail("--map", str(exc))
        results["scaling_experiment"] = rows
        prods = [r.scaled_product for r in rows]
        results["product_min"] = min(prods)
        results["product_spread"] = max(prods) / min(prods)
    results["union_volume"] = est
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
    epsilons = _float_list("--epsilon", args.epsilon, lo=0.0, hi=0.3, lo_open=True)
    _check_range("--alpha", args.alpha, 0.0, 1.0, lo_open=True)
    _check_range("--mesh", args.mesh, 16, 1 << 20)
    mesh = _mesh_for(args, args.n)
    _check_mesh_resolves(mesh, min(epsilons))
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


def _cmd_regularity(args) -> list[Path]:
    _check_range("--mesh", args.mesh, 64, 1 << 20)
    _require_n3(args, "regularity")
    pmap = _map_from_args(args)
    mesh = _mesh_for(args, args.n)
    rep = holder_estimate(pmap)
    results = {
        "holder_exponent": rep.holder_exponent_estimate,
        "holder_constant": rep.holder_constant_estimate,
        "degenerate": rep.degenerate,
        "fit_diagnostics": rep.fit_diagnostics,
        "slobodeckij": [],
    }
    for pair in (args.theta_p or "").split(";"):
        if not pair:
            continue
        theta, p = _float_list("--theta-p", pair, 2)
        _check_range("--theta-p", theta, 0.0, 1.0, lo_open=True, hi_open=True)
        _check_range("--theta-p", p, 1.0, np.inf)
        value = slobodeckij_seminorm(pmap, theta, p, mesh)
        results["slobodeckij"].append({"theta": theta, "p": p, "seminorm": value})
    return [
        rpt.write_json_report(
            Path(args.out), "regularity",
            _params_dict(args, ["map", "n", "mesh", "theta_p"]), results,
        )
    ]


def _cmd_line_kakeya(args) -> list[Path]:
    x = np.array(_float_list("--x", args.x, args.n))
    pmap = _map_from_args(args, domain_kind="sphere")
    result = line_kakeya_cover(pmap, x, tol=args.tol)
    results = {
        "direction": result.direction,
        "residual": result.residual,
        "distance": result.distance,
        "converged": result.converged,
        "reconstruction_error": float(
            np.linalg.norm(pmap(result.direction) + result.distance * result.direction - x)
        ),
    }
    if args.cone_r is not None:
        _check_range("--cone-r", args.cone_r, 0.0, 0.5, lo_open=True)
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


def _verify_checks_core(n: int) -> list[tuple[str, bool, str]]:
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

    tc = triangle_inequality_check(200_000, dim=n - 1, seed=0)
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
    checks = _verify_checks_core(args.n)
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
    if not results["all_passed"]:
        _emit_manifest(files, Path(args.out).parent)
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        sys.exit(1)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return files


def _params_dict(args, names: list[str]) -> dict:
    return {k: getattr(args, k, None) for k in names}


def _emit_manifest(files: list[Path], out_dir: Path) -> Path:
    return rpt.write_manifest(out_dir, files)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakeya-lab",
        description="Numerical experiments on winding fields, mollification, and tube unions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mesh=False):
        p.add_argument("--map", default="zero", help="catalog map spec, e.g. lacunary:alpha=0.8,terms=12,seed=7")
        p.add_argument("--n", type=int, default=3, choices=(3, 4))
        p.add_argument("--out", required=True)
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
        _emit_manifest(files, Path(args.out).parent)
        return 0
    except CLIError as exc:
        print(json.dumps({"error": str(exc), "flag": exc.flag}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "flag": None}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
