"""Deterministic CSV and manifest emission.

A data CSV is written from a ``Table``: one numpy column per header field.
Each column is formatted as a whole by its dtype: integers with ``str``,
bools as ``1``/``0``, floats with 17 significant digits (``"%.17g"``, the
bytes of ``format(v, ".17g")``), and text with RFC 4180 quoting, decided
once per distinct value: a text field that is empty or holds a comma, a
double quote or a line break is quoted and its inner quotes doubled; numbers
never are.  Rows are joined and written CHUNK_ROWS at a time, so memory
beyond the columns themselves stays bounded whatever the row count.  Reruns
with identical config and seed are byte-identical.  The manifest carries the
config hash, seed and library versions plus a timestamp; the timestamp is the
one field excluded from the determinism contract.
"""

from __future__ import annotations

import datetime
import json
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__

__all__ = ["CHUNK_ROWS", "Table", "write_csv", "write_manifest"]

# rows formatted, joined and written per write call
CHUNK_ROWS = 8192

_BOOL_TEXT = ("0", "1")
_TEXT_KINDS = "UO"    # numpy str, or objects whose str() is the field


class Table:
    """Equal-length 1-D columns of one CSV file, in header order.

    ``len(table)`` is the number of data rows.  Column dtypes must be bool,
    integer, float or text (numpy str or object); anything else raises
    ``TypeError`` here, before a file is opened.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence) -> None:
        cols = [np.asarray(c) for c in columns]
        for k, col in enumerate(cols):
            if col.ndim != 1:
                raise ValueError(f"column {k} is {col.ndim}-D, expected 1-D")
            if col.dtype.kind not in "biuf" + _TEXT_KINDS:
                raise TypeError(f"column {k} has unsupported dtype {col.dtype}")
        if len({len(c) for c in cols}) > 1:
            raise ValueError(f"columns differ in length: {[len(c) for c in cols]}")
        self.columns = cols

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @classmethod
    def concat(cls, tables: Sequence["Table"], width: int) -> "Table":
        """Stack tables of ``width`` columns row-wise; no tables gives an
        empty table of that width."""
        if not tables:
            return cls([np.empty(0)] * width)
        return cls([np.concatenate([t.columns[k] for t in tables])
                    for k in range(width)])


def _quote(text: str) -> str:
    # an empty field is quoted too: a row of one empty field is otherwise a
    # blank line, which readers skip
    if not text or any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_text(values: np.ndarray) -> list[str]:
    """The CSV fields of one column slice, formatted by its dtype."""
    kind = values.dtype.kind
    items = values.tolist()
    if kind == "b":
        return list(map(_BOOL_TEXT.__getitem__, items))
    if kind in "iu":
        return list(map(str, items))
    if kind == "f":
        return list(map("%.17g".__mod__, items))
    quoted = {v: _quote(str(v)) for v in set(items)}
    return list(map(quoted.__getitem__, items))


def write_csv(path: Path, header: list[str], table: Table) -> None:
    if len(header) != len(table.columns):
        raise ValueError(f"{len(header)} header fields for "
                         f"{len(table.columns)} columns")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), CHUNK_ROWS):
            fields = [_column_text(col[start:start + CHUNK_ROWS])
                      for col in table.columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))))
            fh.write("\r\n")


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
