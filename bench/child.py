"""One benchmark step in its own process: a CLI run or a library call.

    python3 bench/child.py [--spans DIR] cli <kakeya-lab arguments>
    python3 bench/child.py [--spans DIR] convergence --params JSON [--out FILE]

With `--spans`, every public function of `kakeya_lab` is wrapped in a span
(see spans.py) and the spans are written to DIR when the step ends. Without
it nothing is traced. `convergence` without `--out` stops after set-up
(import, map and mesh), which is how the benchmark times that set-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _convergence(params: dict, out: str | None) -> int:
    import numpy as np

    from kakeya_lab import convergence_split, make_map, sample_sphere

    pmap = make_map("lacunary_fourier", alpha=params["alpha"], terms=params["terms"], seed=params["map_seed"])
    mesh = sample_sphere(1, params["mesh"])
    if out is None:
        return 0
    t_grid = np.linspace(0.0, 1.0, params["heights"])
    rep = convergence_split(pmap, params["epsilons"], t_grid, mesh, params["h"])
    result = {
        "epsilons": rep.epsilons,
        "total_integrals": rep.total_integrals,
        "collar_integrals": rep.collar_integrals,
        "cauchy_gaps": rep.cauchy_gaps,
        "cauchy_ok": rep.cauchy_ok,
        "i1_ok": rep.i1_ok,
        "gap_ratio": rep.gap_ratio(),
    }
    Path(out).write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="trace into this directory")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("convergence")
    p.add_argument("--params", required=True, help="workload parameters as JSON")
    p.add_argument("--out")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer(Path(args.spans))
        spans.install(tracer)
    try:
        if args.mode == "cli":
            from kakeya_lab.cli import main as cli_main

            return cli_main(args.argv)
        return _convergence(json.loads(args.params), args.out)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
