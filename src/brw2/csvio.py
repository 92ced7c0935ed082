"""Deterministic CSV and manifest emission.

All data CSVs are RFC 4180 with a header row: text fields holding a comma
or a double quote are quoted, numbers never are.  Floats are serialized
with 17 significant digits so reruns with identical config and seed are
byte-identical.  The manifest carries the config hash, seed and library
versions plus a timestamp; the timestamp is the one field excluded from
the determinism contract.
"""

from __future__ import annotations

import datetime
import json
from pathlib import Path

import numpy as np
import scipy

from . import __version__


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    text = str(value)
    if "," in text or '"' in text:
        # RFC 4180: quote the field and double its inner quotes
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\r\n")


def write_manifest(out_dir: Path, command: str, cfg_hash: str, seed: int,
                   failures=(), extra=None) -> None:
    doc = {
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "versions": {
            "brw2": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "failures": [{"replica": r, "error": e} for r, e in failures],
        # timestamp is excluded from the determinism contract
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        doc.update(extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
