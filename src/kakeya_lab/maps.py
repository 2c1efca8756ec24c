"""Catalog of direction-to-position maps and numerical regularity estimators.

Catalog variants (all bitwise deterministic for a fixed seed):

  constant          c(v) = p
  radial_scale      c(v) = r * v
  polynomial        c_i(v) = sum_k coeffs[k] * v_i**k     (componentwise)
  lacunary_fourier  octave-spaced rotating terms; on the circle
                    c(theta) = sum_k 2**(-alpha k) (cos, sin)(2**k theta + phi_k),
                    extended to the ball with a radial |v| taper.  Exact
                    Holder class alpha; each octave carries a fixed circular
                    loop-area component, and |c| <= sum_k 2**(-alpha k).
  bandlimited       sphere-domain map: sum of low-frequency plane-wave terms,
                    rescaled so the measured sup norm equals `amplitude`.
  grid_sampled      finite net of (v, c(v)) samples; evaluable everywhere only
                    after a McShane extension.

Regularity estimators: dyadic oscillation fits for the Holder exponent,
double-sum quadrature for fractional smoothness seminorms, exhaustive pair
scans for net Lipschitz constants, and the min-form Lipschitz extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pairs import WIDE_BUDGET, row_blocks, sq_dists, weighted_pair_sum
from .sphere import SphereMesh

_DENSE_SPHERE_SAMPLES = 20000


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


class PositionMap:
    """Deterministic evaluable map from the ball B^{n-1} or sphere S^{n-1}."""

    def __init__(self, n: int, domain_kind: str, variant: str, params: dict):
        if n < 3:
            raise ValueError(f"ambient dimension {n} < 3")
        if domain_kind not in ("ball", "sphere"):
            raise ValueError(f"unknown domain kind {domain_kind!r}")
        self.n = n
        self.domain_kind = domain_kind
        self.variant = variant
        self.params = dict(params)
        self._tables: dict = {}
        self._validate()

    @property
    def in_dim(self) -> int:
        return self.n - 1 if self.domain_kind == "ball" else self.n

    @property
    def out_dim(self) -> int:
        return self.n - 1 if self.domain_kind == "ball" else self.n

    def _validate(self) -> None:
        v, p = self.variant, self.params
        if v == "constant":
            vec = np.asarray(p["p"], dtype=float)
            if vec.shape != (self.out_dim,):
                raise ValueError(f"constant vector must have length {self.out_dim}")
            self._tables["p"] = vec
        elif v == "radial_scale":
            self._tables["r"] = float(p["r"])
        elif v == "polynomial":
            coeffs = np.asarray(p["coeffs"], dtype=float)
            if coeffs.ndim != 1 or len(coeffs) == 0:
                raise ValueError("polynomial coeffs must be a nonempty 1-d sequence")
            self._tables["coeffs"] = coeffs
        elif v == "lacunary_fourier":
            alpha = float(p["alpha"])
            if not 0.0 < alpha <= 1.0:
                raise ValueError(f"lacunary exponent {alpha} outside (0, 1]")
            terms = int(p.get("terms", 12))
            if terms < 1:
                raise ValueError("lacunary term count must be >= 1")
            if self.n != 3:
                raise ValueError("lacunary_fourier is implemented for n = 3 only")
            seed = int(p.get("seed", 0))
            rng = np.random.default_rng(seed)
            self._tables["phases"] = rng.uniform(0.0, 2.0 * np.pi, size=terms)
            self._tables["alpha"] = alpha
            self._tables["terms"] = terms
        elif v == "bandlimited":
            if self.domain_kind != "sphere" or self.n != 3:
                raise ValueError("bandlimited maps live on the sphere domain, n = 3")
            terms = int(p.get("terms", 6))
            seed = int(p.get("seed", 0))
            amplitude = float(p.get("amplitude", 0.5))
            if amplitude <= 0:
                raise ValueError("bandlimited amplitude must be positive")
            rng = np.random.default_rng(seed)
            self._tables["freqs"] = rng.integers(1, 5, size=terms).astype(float)
            us = rng.normal(size=(terms, 3))
            self._tables["us"] = us / np.linalg.norm(us, axis=1, keepdims=True)
            ws = rng.normal(size=(terms, 3))
            self._tables["ws"] = ws / np.linalg.norm(ws, axis=1, keepdims=True)
            self._tables["phs"] = rng.uniform(0.0, 2.0 * np.pi, size=terms)
            self._tables["amps"] = rng.uniform(0.3, 1.0, size=terms)
            raw = self._raw_bandlimited(_fibonacci_sphere(_DENSE_SPHERE_SAMPLES))
            self._tables["scale"] = scale = amplitude / np.max(np.linalg.norm(raw, axis=1))
            self._tables["amplitude"] = amplitude
            # sup_bound's dense sample is this one, and __call__ scales it the same way
            self._tables["sup"] = float(np.max(np.linalg.norm(scale * raw, axis=1)))
        elif v == "grid_sampled":
            pts = np.asarray(p["points"], dtype=float)
            vals = np.asarray(p["values"], dtype=float)
            if pts.ndim != 2 or len(pts) == 0:
                raise ValueError("grid_sampled needs a nonempty net")
            if vals.shape != (len(pts), self.out_dim):
                raise ValueError("grid_sampled values shape mismatch")
            self._tables["points"] = pts
            self._tables["values"] = vals
            self._tables["extended"] = bool(p.get("extended", False))
            self._tables["lip"] = float(p["lip"]) if "lip" in p else None
        else:
            raise ValueError(f"unknown map variant {v!r}")

    def _raw_bandlimited(self, pts: np.ndarray) -> np.ndarray:
        t = self._tables
        out = np.zeros_like(pts)
        for k in range(len(t["freqs"])):
            phase = np.cos(t["freqs"][k] * (pts @ t["us"][k]) + t["phs"][k])
            out += t["amps"][k] * phase[:, None] * t["ws"][k]
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.in_dim:
            raise ValueError(f"points must have dimension {self.in_dim}")
        t = self._tables
        v = self.variant
        if v == "constant":
            out = np.broadcast_to(t["p"], (len(pts), self.out_dim)).copy()
        elif v == "radial_scale":
            out = t["r"] * pts
        elif v == "polynomial":
            out = np.zeros_like(pts)
            for k, a in enumerate(t["coeffs"]):
                if a != 0.0:
                    out += a * pts**k
        elif v == "lacunary_fourier":
            r = np.linalg.norm(pts, axis=1)
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            out = np.zeros((len(pts), 2))
            for k in range(1, t["terms"] + 1):
                amp = 2.0 ** (-t["alpha"] * k)
                arg = 2.0**k * theta + t["phases"][k - 1]
                out[:, 0] += amp * np.cos(arg)
                out[:, 1] += amp * np.sin(arg)
            out *= r[:, None]
        elif v == "bandlimited":
            out = t["scale"] * self._raw_bandlimited(pts)
        elif v == "grid_sampled":
            out = self._eval_grid_sampled(pts)
        else:  # pragma: no cover
            raise AssertionError(v)
        return out[0] if single else out

    def _eval_grid_sampled(self, pts: np.ndarray) -> np.ndarray:
        t = self._tables
        net, vals = t["points"], t["values"]
        out = np.empty((len(pts), self.out_dim))
        if not t["extended"]:
            # raw nets are lookup tables: exact matches only
            for s, e in row_blocks(len(pts), len(net)):
                d = np.sqrt(sq_dists(pts[s:e], net))
                j = np.argmin(d, axis=1)
                if np.any(d[np.arange(e - s), j] > 1e-12):
                    raise ValueError(
                        "raw grid_sampled map evaluated off its net; extend it first"
                    )
                out[s:e] = vals[j]
            return out
        lip = t["lip"]
        for s, e in row_blocks(len(pts), len(net), WIDE_BUDGET):
            d = np.sqrt(sq_dists(pts[s:e], net))
            out[s:e] = np.min(vals[None, :, :] + lip * d[:, :, None], axis=1)
        return out

    def sup_bound(self) -> float:
        """Measured sup |c| over a dense deterministic sample of the domain,
        sampled once per map."""
        if "sup" not in self._tables:
            if self.domain_kind == "sphere":
                pts = _fibonacci_sphere(_DENSE_SPHERE_SAMPLES)
            else:
                theta = 2.0 * np.pi * np.arange(4096) / 4096
                ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
                pts = np.concatenate([r * ring for r in np.linspace(0.1, 1.0, 10)])
            self._tables["sup"] = float(np.max(np.linalg.norm(self(pts), axis=1)))
        return self._tables["sup"]

    def modulus_of_continuity(self) -> tuple[float, float]:
        """Analytic (C, alpha) with |c(x) - c(y)| <= C |x - y|^alpha on the domain.

        Raises for raw sampled nets, where no modulus is certifiable.
        """
        t = self._tables
        v = self.variant
        if v == "constant":
            return 0.0, 1.0
        if v == "radial_scale":
            return abs(t["r"]), 1.0
        if v == "polynomial":
            # each coordinate depends only on its own input coordinate,
            # so the componentwise derivative bound is the Euclidean one
            grad = sum(k * abs(a) for k, a in enumerate(t["coeffs"]))
            return float(grad), 1.0
        if v == "lacunary_fourier":
            alpha = t["alpha"]
            # octave-splitting bound for the angular part plus the radial taper;
            # a rotating octave satisfies |term_k(x)-term_k(y)| <= 2^-ak min(2, 2^k d)
            # at alpha = 1 the low octaves sum to at most `terms` d, not a
            # geometric series
            if alpha == 1.0:
                c_low = float(t["terms"])
            else:
                c_low = 2.0 ** (1 - alpha) / (2.0 ** (1 - alpha) - 1.0)
            c_ang = c_low + 2.0 / (1.0 - 2.0**-alpha)
            sup_w = 2.0**-alpha / (1.0 - 2.0**-alpha)
            # chord-to-arc conversion on the unit circle costs at most pi/2
            return (np.pi / 2) ** alpha * c_ang + sup_w, alpha
        if v == "bandlimited":
            lip = float(t["scale"] * np.sum(t["amps"] * t["freqs"]))
            return lip, 1.0
        if v == "grid_sampled" and t["extended"]:
            return float(np.sqrt(self.out_dim) * t["lip"]), 1.0
        raise ValueError("no modulus of continuity available for a raw sampled net")


def make_map(variant: str, n: int = 3, domain_kind: str = "ball", **params) -> PositionMap:
    """Construct a catalog map; `zero` is shorthand for the zero constant map."""
    if variant == "zero":
        dim = n - 1 if domain_kind == "ball" else n
        return PositionMap(n, domain_kind, "constant", {"p": np.zeros(dim)})
    return PositionMap(n, domain_kind, variant, params)


_SPEC_ALIASES = {
    "radial": "radial_scale",
    "poly": "polynomial",
    "lacunary": "lacunary_fourier",
    "grid": "grid_sampled",
}


def parse_map_spec(spec: str, n: int = 3, domain_kind: str = "ball") -> PositionMap:
    """Parse `variant:key=val,key=val` catalog strings.

    Vector values use `;` separators, e.g. `constant:p=0.1;0.2`.
    `grid:path=net.csv` loads a raw net from CSV rows v1,..,v_{n-1},c1,..,c_{n-1}.
    """
    name, _, rest = spec.partition(":")
    name = _SPEC_ALIASES.get(name.strip(), name.strip())
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _:
                raise ValueError(f"malformed map spec item {item!r}")
            key = key.strip()
            val = val.strip()
            if key in ("seed", "terms"):
                params[key] = int(val)
            elif key == "path":
                params[key] = val
            elif ";" in val:
                params[key] = [float(x) for x in val.split(";")]
            else:
                params[key] = float(val)
    if name == "grid_sampled" and "path" in params:
        rows = np.loadtxt(params.pop("path"), delimiter=",", ndmin=2)
        d = n - 1
        params["points"] = rows[:, :d]
        params["values"] = rows[:, d : 2 * d]
    if name == "polynomial" and "coeffs" in params and np.isscalar(params["coeffs"]):
        params["coeffs"] = [params["coeffs"]]
    return make_map(name, n=n, domain_kind=domain_kind, **params)


@dataclass
class RegularityReport:
    """Measured regularity of a position map."""

    holder_exponent_estimate: float | None = None
    holder_constant_estimate: float | None = None
    degenerate: bool = False
    fit_diagnostics: dict = field(default_factory=dict)


DEFAULT_SCALES = tuple(2.0**-m for m in range(4, 11))


def _chord(j: int, samples: int) -> float:
    return 2.0 * np.sin(np.pi * j / samples)


def _ring_oscillations(vals: np.ndarray, scales: tuple[float, ...]) -> np.ndarray:
    """max |c(x_i) - c(x_{i+j})| over the lags j whose chord is at most each
    scale (sorted ascending), for samples c(x_i) equally spaced on the circle.

    The ring is extended once so that every lag is a slice; lag j takes
    dx^2 + dy^2 into two buffers, and one sqrt per scale gives the maximum
    of the norms bit for bit, since sqrt is monotone and correctly rounded.
    """
    samples = len(vals)
    ext = np.concatenate([vals, vals[: samples // 2]]).T.copy()
    dx = np.empty(samples)
    dy = np.empty(samples)
    osc = np.zeros(len(scales))
    running = 0.0
    j = 1
    for si, s in enumerate(scales):
        while j <= samples // 2 and _chord(j, samples) <= s:
            np.subtract(ext[0, :samples], ext[0, j : j + samples], out=dx)
            np.subtract(ext[1, :samples], ext[1, j : j + samples], out=dy)
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            np.add(dx, dy, out=dx)
            running = max(running, float(np.max(dx)))
            j += 1
        osc[si] = np.sqrt(running)
    return osc


def holder_estimate(
    pmap: PositionMap,
    scales: tuple[float, ...] = DEFAULT_SCALES,
    samples: int = 2**14,
) -> RegularityReport:
    """Fit osc(h) ~ C h^alpha along the boundary circle of the domain.

    Oscillations are maxima of |c(x) - c(y)| over chordal scales; the fit is
    least squares in log-log coordinates.  A residual above 0.2 flags the
    exponent as unreliable in fit_diagnostics.

    The scale window should bracket the regime where the map actually
    oscillates: octave-series maps with a slowly decaying spectrum read
    best on coarser windows, while very rough tails need the window pushed
    toward the sampling scale.  The default suits mid-range exponents.
    """
    scales = tuple(sorted(scales))
    if any(not (2.0**-16 < s < 1.0) for s in scales):
        raise ValueError("scales must be dyadic values inside (2^-16, 1)")
    if pmap.n != 3 or pmap.domain_kind != "ball":
        raise ValueError("holder_estimate supports ball-domain maps with n = 3")
    theta = 2.0 * np.pi * np.arange(samples) / samples
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    vals = pmap(ring)
    if _chord(1, samples) > min(scales):
        raise ValueError("sampling resolution is coarser than the smallest scale")
    osc = _ring_oscillations(vals, scales)
    report = RegularityReport()
    if np.max(osc) < 1e-14:
        report.degenerate = True
        report.fit_diagnostics = {"oscillations": osc.tolist(), "scales": list(scales)}
        return report
    logs = np.log2(np.asarray(scales))
    logo = np.log2(np.maximum(osc, 1e-300))
    A = np.stack([logs, np.ones_like(logs)], axis=1)
    sol, *_ = np.linalg.lstsq(A, logo, rcond=None)
    alpha, logc = sol
    resid = float(np.sqrt(np.mean((A @ sol - logo) ** 2)))
    report.holder_exponent_estimate = float(min(alpha, 1.0))
    report.holder_constant_estimate = float(2.0**logc)
    report.fit_diagnostics = {
        "residual": resid,
        "reliable": resid <= 0.2,
        "oscillations": osc.tolist(),
        "scales": list(scales),
    }
    return report


def slobodeckij_seminorm(
    pmap_or_samples,
    theta: float,
    p: float,
    mesh: SphereMesh,
) -> float:
    """Fractional smoothness seminorm of the map's sphere restriction.

    Double-sum quadrature of |f(x)-f(y)|^p / d(x,y)^(theta p + dim) over
    vertex pairs with chordal d at least one mesh spacing; returns the p-th
    root.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"order {theta} outside (0, 1)")
    if p < 1.0:
        raise ValueError(f"exponent {p} must be >= 1")
    if mesh.n_vertices < 64:
        raise ValueError("mesh resolution must be >= 64")
    if isinstance(pmap_or_samples, PositionMap):
        f = pmap_or_samples(mesh.vertices)
    else:
        f = np.asarray(pmap_or_samples, dtype=float)
        if len(f) != mesh.n_vertices:
            raise ValueError("sample count does not match the mesh")
    if f.ndim == 1:
        f = f[:, None]
    cutoff = mesh.spacing * (1.0 - 1e-9)
    kernel_pow = theta * p + mesh.dim

    def integrand(d2, fd):
        d = np.sqrt(d2)
        ok = d >= cutoff
        return np.where(ok, fd**p / np.where(ok, d, 1.0) ** kernel_pow, 0.0)

    return weighted_pair_sum(mesh.vertices, mesh.weights, f, integrand) ** (1.0 / p)


def lipschitz_constant_on_net(points: np.ndarray, values: np.ndarray) -> float:
    """Max difference quotient over all pairs of net samples."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(points) < 2:
        raise ValueError("need at least two net points")
    best = 0.0
    # the quotient is symmetric, so rows s:e need only the columns from s on
    for s, e in row_blocks(len(points), len(points)):
        d = np.sqrt(sq_dists(points[s:e], points[s:]))
        np.fill_diagonal(d[:, : e - s], np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = float(np.max(np.sqrt(sq_dists(values[s:e], values[s:])) / d))
        # a zero distance makes the quotient inf or nan; only then is d searched for it
        if not q < np.inf and np.any(d == 0.0):
            raise ValueError("net contains duplicate points")
        best = max(best, q)
    return best


def mcshane_extend(
    points: np.ndarray, values: np.ndarray, n: int = 3, lip: float | None = None
) -> PositionMap:
    """Coordinatewise min-form Lipschitz extension of net samples.

    The extension agrees with the samples exactly on the net and has
    Euclidean Lipschitz constant at most sqrt(n-1) times the net constant.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(points) == 0:
        raise ValueError("cannot extend an empty net")
    if lip is None:
        lip = lipschitz_constant_on_net(points, values)
    return PositionMap(
        n,
        "ball",
        "grid_sampled",
        {"points": points, "values": values, "extended": True, "lip": float(lip)},
    )
