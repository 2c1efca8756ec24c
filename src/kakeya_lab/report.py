"""Report emission: schema-stable JSON, CSV companions, and a hash manifest.

Outputs carry no timestamps and serialize with sorted keys so identical
invocations produce bit-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return [_plain(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


def write_json_report(path: Path, command: str, params: dict, results) -> Path:
    path = Path(path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": _plain(params),
        "results": _plain(results),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def write_csv(path: Path, header: list[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(x) for x in row])
    return path


def _format_cell(x):
    if isinstance(x, (bool, np.bool_)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def write_sv_profile_csv(path: Path, profile) -> Path:
    return write_csv(path, ["t", "sv"], zip(profile.t_values, profile.sv_values))


def write_polyfit_json(path: Path, fit) -> Path:
    path = Path(path)
    payload = {
        "coefficients": _plain(fit.coefficients),
        "residual_rms": float(fit.residual_rms),
        "leading": float(fit.leading_coefficient),
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def write_winding_field_csv(path: Path, field) -> Path:
    """write_csv's rows (x, y, wind, masked), x-major, each axis value formatted once."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    xs = [repr(float(x)) for x in field.grid.axis_centers(0)]
    ys = [repr(float(y)) for y in field.grid.axis_centers(1)]
    with path.open("w", newline="") as fh:
        fh.write("x,y,wind,masked\r\n")  # csv.writer's line ends
        for x, wind, masked in zip(xs, field.values, field.mask):
            rows = zip(ys, wind.tolist(), masked.tolist())
            fh.write("".join([f"{x},{y},{w},{m:d}\r\n" for y, w, m in rows]))
    return path


def write_tube_family(csv_path: Path, family) -> tuple[Path, Path]:
    csv_path = Path(csv_path)
    rows = [
        tuple(family.net[k]) + tuple(family.centers[k]) for k in range(family.count)
    ]
    d = family.net.shape[1]
    header = [f"v{i+1}" for i in range(d)] + [f"c{i+1}" for i in range(d)]
    write_csv(csv_path, header, rows)
    sidecar = csv_path.with_suffix(".json")
    sidecar.write_text(
        json.dumps(
            {"delta": family.delta, "n": family.n, "count": family.count},
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    return csv_path, sidecar


def write_gnuplot_script(path: Path, data_csv: Path, columns: tuple[int, int], title: str) -> Path:
    path = Path(path)
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key off",
        f"plot '{data_csv.name}' every ::1 using {columns[0]}:{columns[1]} with lines",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_manifest(out_dir: Path, files: list[Path]) -> Path:
    out_dir = Path(out_dir)
    entries = [
        {"name": Path(f).name, "sha256": sha256_file(f)}
        for f in sorted(files, key=lambda p: Path(p).name)
    ]
    manifest = out_dir / "MANIFEST.json"
    manifest.write_text(
        json.dumps({"files": entries}, sort_keys=True, indent=2) + "\n"
    )
    return manifest
