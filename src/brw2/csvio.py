"""Deterministic CSV and manifest emission.

A data CSV is written from a ``Table``: one numpy column per header field.
Rows are written CHUNK_ROWS at a time, so memory beyond the columns
themselves stays bounded whatever the row count.  Within a chunk every
distinct value is formatted once: numbers across all columns of one key
space, text per column.  Bools (as ``1``/``0``) and integers share one set
of texts, each the ``str`` of a Python int (uint64, which int64 cannot
hold, has its own set), so a record id and its children's parent ids are
formatted once.  Floats share one set of 17-significant-digit texts
(``"%.17g"``, the bytes of ``format(v, ".17g")``), keyed by their bit
pattern so that 0.0 and -0.0 keep their own texts; a record's t1 reuses
its parent's t2 text.
Text gets RFC 4180 quoting: a field that is empty or holds a comma, a double
quote or a line break is quoted and its inner quotes doubled; numbers never
are.  The chunk's fields and separators are then joined once.  Reruns with
identical config and seed are byte-identical.  The manifest carries the
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


def _text_fields(values: np.ndarray) -> list[str]:
    """The quoted CSV fields of one text column slice, one quote per value."""
    items = values.tolist()
    quoted = {v: _quote(str(v)) for v in set(items)}
    return list(map(quoted.__getitem__, items))


def _number_keys(values: np.ndarray) -> tuple[str, np.ndarray]:
    """A number column's key space and its values as sort keys.  Floats are
    keyed by their float64 bit pattern, so 0.0 and -0.0 keep their texts;
    bools and integers that fit int64 share one key space, uint64 has its
    own."""
    if values.dtype.kind == "f":
        return "float", values.astype(np.float64).view(np.uint64)
    if np.can_cast(values.dtype, np.int64):
        return "int", values.astype(np.int64)
    return "uint", values


def _chunk_fields(part: list[np.ndarray]) -> list[list[str]]:
    """The CSV fields of one chunk's column slices.  Every distinct number
    is formatted once per key space across all its columns, so a value that
    repeats, such as a record's t1 and its parent's t2 or a record id and
    its children's parent id, costs one format."""
    fields: list = [None] * len(part)
    groups: dict[str, list[tuple[int, np.ndarray]]] = {}
    for j, values in enumerate(part):
        if values.dtype.kind in _TEXT_KINDS:
            fields[j] = _text_fields(values)
        else:
            space, keys = _number_keys(values)
            groups.setdefault(space, []).append((j, keys))
    for space, members in groups.items():
        uniq, index = np.unique(np.concatenate([keys for _, keys in members]),
                                return_inverse=True)
        if space == "float":
            texts = map("%.17g".__mod__, uniq.view(np.float64).tolist())
        else:                        # a Python int's str is its %d text
            texts = map(str, uniq.tolist())
        texts = np.array(list(texts), dtype=object)
        for (j, _), idx in zip(members, index.reshape(len(members), -1)):
            fields[j] = texts[idx].tolist()
    return fields


def write_csv(path: Path, header: list[str], table: Table) -> None:
    if len(header) != len(table.columns):
        raise ValueError(f"{len(header)} header fields for "
                         f"{len(table.columns)} columns")
    width = 2 * len(table.columns)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), CHUNK_ROWS):
            part = [col[start:start + CHUNK_ROWS] for col in table.columns]
            # fields and separators interleaved, row by row, then one join
            cells = [","] * (width * len(part[0]))
            for j, text in enumerate(_chunk_fields(part)):
                cells[2 * j::width] = text
            cells[width - 1::width] = ["\r\n"] * len(part[0])
            fh.write("".join(cells))


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
