"""Independent checks of the benchmark's outputs, in numpy alone.

    python3 bench/checks.py WORKLOAD OUT_DIR PARAMS_JSON [--reference DIR]

checks the files one operation of WORKLOAD wrote to OUT_DIR, for the workload
parameters PARAMS_JSON, and with `--reference` that they are byte-identical to
DIR's. It prints what it compared and exits 0, or prints what differed and
exits 1.

Nothing here imports `kakeya_lab`. The lacunary map, the circle mesh, the
mollifier and the signed volume are computed again from their definitions,
so a check compares the program with a separate computation or with a
property its method must have, never with a stored copy of an earlier
output. Each check raises `CheckFailed` with what differed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np


GRID_SHARE = 0.01  # lattice-count allowance of the tube-union check, a share of the volume


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def lacunary(points: np.ndarray, alpha: float, terms: int, seed: int) -> np.ndarray:
    """|v| * sum_k 2^(-alpha k) (cos, sin)(2^k theta + phi_k), with phases
    drawn as numpy's default_rng(seed).uniform(0, 2 pi, terms)."""
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=terms)
    r = np.hypot(points[:, 0], points[:, 1])
    theta = np.arctan2(points[:, 1], points[:, 0])
    out = np.zeros((len(points), 2))
    for k in range(1, terms + 1):
        arg = 2.0**k * theta + phases[k - 1]
        out[:, 0] += 2.0 ** (-alpha * k) * np.cos(arg)
        out[:, 1] += 2.0 ** (-alpha * k) * np.sin(arg)
    return out * r[:, None]


def circle(n: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def mollify_circle(samples: np.ndarray, epsilon: float) -> np.ndarray:
    """Bump mollification on the uniform circle mesh as a circular convolution.

    The chord between vertices i and j is 2 sin(pi |i-j| / N), so the kernel
    depends on i - j alone and every vertex has the same kernel mass.
    """
    n = len(samples)
    r = 2.0 * np.sin(np.pi * np.arange(n) / n) / epsilon
    kernel = np.zeros(n)
    inside = r < 1.0
    kernel[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    spectrum = np.fft.rfft(kernel)
    out = np.fft.irfft(np.fft.rfft(samples, axis=0) * spectrum[:, None], n=n, axis=0)
    return out / kernel.sum()


def shoelace(v: np.ndarray) -> float:
    w = np.roll(v, -1, axis=0)
    return float(0.5 * np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


def length(v: np.ndarray) -> float:
    return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())


def slice_polygons(samples: np.ndarray, t_values) -> list[np.ndarray]:
    """Slice at height t of the map restricted to the circle: c(v) + t v."""
    ring = circle(len(samples))
    return [samples + t * ring for t in t_values]


def read_profile(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1]


def same_files(out_dir: Path, ref_dir: Path) -> None:
    """Every output file is byte-identical to the reference run's."""
    names = sorted(p.name for p in ref_dir.iterdir())
    require(names == sorted(p.name for p in out_dir.iterdir()),
            f"output files differ from the --jobs 1 run: {names}")
    for name in names:
        require((out_dir / name).read_bytes() == (ref_dir / name).read_bytes(),
                f"{name} differs from the --jobs 1 run")


def sweep_mollified(out: Path, p: dict) -> str:
    t, sv = read_profile(out / "sv.csv")
    require(np.array_equal(t, np.linspace(0.0, 1.0, p["t_steps"])), "height grid is not linspace(0, 1)")
    raw = lacunary(circle(p["mesh"]), p["alpha"], p["terms"], p["map_seed"])
    smooth = mollify_circle(raw, p["epsilon"])
    expect = np.array([shoelace(v) for v in slice_polygons(smooth, t)])
    gap = float(np.max(np.abs(sv - expect)))
    require(gap <= 1e-9, f"SV differs from the FFT-mollified shoelace SV by {gap:.3g}")
    fit = json.loads((out / "sv.fit.json").read_text())
    polygon = p["mesh"] / 2.0 * np.sin(2.0 * np.pi / p["mesh"])
    lead_gap = abs(fit["leading"] - polygon)
    require(lead_gap <= 1e-9, f"leading coefficient {fit['leading']!r} is not (N/2) sin(2 pi/N) = {polygon!r}")
    require(fit["residual_rms"] <= 1e-10, f"fit residual {fit['residual_rms']:.3g} is above rounding level")
    return f"SV gap {gap:.1e}, leading gap {lead_gap:.1e}, residual {fit['residual_rms']:.1e}"


def sweep_grid(out: Path, p: dict) -> str:
    t, sv = read_profile(out / "sv.csv")
    require(np.array_equal(t, np.linspace(0.0, 1.0, p["t_steps"])), "height grid is not linspace(0, 1)")
    raw = lacunary(circle(p["mesh"]), p["alpha"], p["terms"], p["map_seed"])
    worst = 0.0
    for value, poly in zip(sv, slice_polygons(raw, t)):
        bound = 3.0 * p["grid_h"] * length(poly)
        worst = max(worst, abs(value - shoelace(poly)) / bound)
    require(worst <= 1.0, f"grid SV is off the shoelace SV by {worst:.3f} of 3 h L")
    return f"worst grid SV gap {worst:.3f} of 3 h L"


def convergence(out: Path, p: dict) -> str:
    res = json.loads((out / "convergence.json").read_text())
    require(res["cauchy_ok"], f"cauchy_ok is false, gaps {res['cauchy_gaps']}")
    require(res["i1_ok"], "i1_ok is false")
    require(res["gap_ratio"] >= 1.5, f"gap ratio {res['gap_ratio']:.3f} < 1.5")
    require(res["epsilons"] == p["epsilons"], f"epsilons {res['epsilons']} differ from the request")
    t = np.linspace(0.0, 1.0, p["heights"])
    raw = lacunary(circle(p["mesh"]), p["alpha"], p["terms"], p["map_seed"])
    worst = 0.0
    for eps, total in zip(p["epsilons"], res["total_integrals"]):
        polys = slice_polygons(mollify_circle(raw, eps), t)
        sv = np.trapezoid([shoelace(v) for v in polys], t)
        bound = np.trapezoid([3.0 * p["h"] * length(v) for v in polys], t)
        worst = max(worst, abs(total - sv) / bound)
    require(worst <= 1.0, f"total integral is off the shoelace integral by {worst:.3f} of its bound")
    return f"worst total gap {worst:.3f} of the 3 h L bound, gap ratio {res['gap_ratio']:.3f}"


def _closest_pair(points: np.ndarray) -> float:
    best = np.inf
    for s in range(0, len(points), 256):
        d = np.linalg.norm(points[s : s + 256, None, :] - points[None, :, :], axis=2)
        d[np.arange(len(d)), np.arange(s, s + len(d))] = np.inf
        best = min(best, float(d.min()))
    return best


def _near_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray, reach: float) -> np.ndarray:
    """Distance from each point to the nearest of the segments a[k]-b[k],
    exact where it is at most `reach` and inf beyond.

    The segments rise from z = 0 to z = 1 with z as their parameter, so a
    point at height z can only be within `reach` of the part of a segment
    between heights z - reach and z + reach. Points are taken in height
    order, in chunks; each chunk is tested exactly against the segments whose
    part over the chunk's heights, widened by `reach`, covers the point in xy.
    """
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    order = np.argsort(points[:, 2])
    best = np.full(len(points), np.inf)
    for s in range(0, len(points), 2048):
        idx = order[s : s + 2048]
        p = points[idx]
        t0 = max(p[:, 2].min() - reach, 0.0)
        t1 = min(p[:, 2].max() + reach, 1.0)
        if t0 > t1:
            continue
        e0, e1 = a[:, :2] + t0 * ab[:, :2], a[:, :2] + t1 * ab[:, :2]
        lo, hi = np.minimum(e0, e1) - reach, np.maximum(e0, e1) + reach
        near = ((p[:, None, 0] >= lo[:, 0]) & (p[:, None, 0] <= hi[:, 0])
                & (p[:, None, 1] >= lo[:, 1]) & (p[:, None, 1] <= hi[:, 1]))
        i, k = np.nonzero(near)
        rel = p[i] - a[k]
        par = np.clip(np.einsum("nd,nd->n", rel, ab[k]) / ab2[k], 0.0, 1.0)
        d = rel - par[:, None] * ab[k]
        dist = np.full(len(p), np.inf)
        np.minimum.at(dist, i, np.sqrt(np.einsum("nd,nd->n", d, d)))
        best[idx] = dist
    return best


def tube_union(out: Path, p: dict) -> str:
    report = json.loads((out / "tubes.json").read_text())["results"]
    union = report["union_volume"]
    delta, h = p["delta"], union["h"]
    require(abs(h - delta / 4.0) <= 1e-15, f"grid spacing {h} is not delta/4")
    with (out / "tubes.net.csv").open() as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["v1", "v2", "c1", "c2"], f"unexpected net header {rows[0]}")
    data = np.array(rows[1:], dtype=float)
    net, centers = data[:, :2], data[:, 2:]
    require(len(net) == report["net_count"], "net_count differs from the net file")
    closest = _closest_pair(net)
    require(closest >= delta * (1.0 - 1e-12), f"net points {closest!r} apart, closer than delta {delta}")
    c_gap = float(np.max(np.abs(centers - lacunary(net, p["alpha"], p["terms"], p["map_seed"]))))
    require(c_gap <= 1e-12, f"tube centers differ from the map by {c_gap:.3g}")

    # Monte Carlo over the bounding box of the delta-tubes around the segments
    # (c, 0)-(c + v, 1). The grid counts the cells whose centre is within
    # delta, so its volume lies between those of the (delta - r)- and
    # (delta + r)-tubes, r = h sqrt(3)/2 the cell's half diagonal; that
    # bracket is about +-20 % wide, so it is only reported. The check holds
    # the grid volume to the delta-tube estimate within 4 Monte-Carlo
    # standard errors plus GRID_SHARE of the estimate for the lattice count.
    a = np.hstack([centers, np.zeros((len(net), 1))])
    b = np.hstack([centers + net, np.ones((len(net), 1))])
    lo = np.minimum(a, b).min(axis=0) - delta
    hi = np.maximum(a, b).max(axis=0) + delta
    box = float(np.prod(hi - lo))
    pts = lo + (hi - lo) * np.random.default_rng(p["mc_seed"]).random((p["mc_points"], 3))
    r = h * np.sqrt(3.0) / 2.0
    dist = _near_distances(pts, a, b, delta + r)

    def estimate(radius):
        frac = float(np.mean(dist <= radius))
        return box * frac, box * np.sqrt(frac * (1.0 - frac) / len(pts))

    (v_in, _), (v_mid, s_mid), (v_out, _) = (estimate(x) for x in (delta - r, delta, delta + r))
    value = union["value"]
    allowance = 4.0 * s_mid + GRID_SHARE * v_mid
    require(abs(value - v_mid) <= allowance,
            f"union volume {value:.4f} is off the Monte-Carlo delta-tube volume {v_mid:.4f} "
            f"by more than {allowance:.4f}")
    return (f"union {value:.4f}, Monte Carlo {v_mid:.4f} +- {s_mid:.4f} (allowed gap {allowance:.4f}), "
            f"bracket [{v_in:.4f}, {v_out:.4f}], closest net pair {closest:.4f}")


CHECKS = {
    "sweep-mollified": sweep_mollified,
    "sweep-grid": sweep_grid,
    "convergence-split": convergence,
    "tube-union": tube_union,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=list(CHECKS))
    parser.add_argument("out", type=Path)
    parser.add_argument("params", type=json.loads)
    parser.add_argument("--reference", type=Path)
    args = parser.parse_args()
    try:
        if args.reference is not None:
            same_files(args.out, args.reference)
        print(CHECKS[args.workload](args.out, args.params))
    except CheckFailed as exc:
        print(exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
