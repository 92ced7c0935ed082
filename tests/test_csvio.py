import csv
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brw2 import csvio
from brw2.cli import main
from brw2.csvio import Table, write_csv


# ---------------------------------------------------------------------------
# per-cell reference: the writer's output, one Python value at a time
# ---------------------------------------------------------------------------

def reference_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    text = str(value)
    if not text or any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_bytes(header, columns) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(reference_cell(v) for v in row) for row in zip(*columns)]
    return "".join(line + "\r\n" for line in lines).encode()


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300,
                  -1e300, 0.1, 1 / 3, 2.0 ** 53 + 2]


def int_column(dtype):
    info = np.iinfo(dtype)
    values = st.integers(int(info.min), int(info.max))
    if dtype == np.int64:
        values = st.one_of(values, st.sampled_from(
            [2 ** 53 + 1, -(2 ** 53) - 1, int(info.max), int(info.min)]))
    return lambda n: st.lists(values, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=dtype))


def float_column(n):
    values = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from(SPECIAL_FLOATS))
    return st.lists(values, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.float64))


def bool_column(n):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=bool))


def text_column(n):
    text = st.one_of(st.text(st.characters(min_codepoint=1, max_codepoint=127),
                             max_size=8),
                     st.sampled_from(["branched(2,0)", 'say "hi"', ",", '"',
                                      "a,b\"c", "", "jumped(1,-1)"]))
    return st.lists(text, min_size=n, max_size=n).map(np.array)


COLUMN_KINDS = [int_column(np.int8), int_column(np.int32), int_column(np.int64),
                int_column(np.uint8), int_column(np.uint64), bool_column, float_column,
                text_column]


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=7))
    return [draw(kind(n_rows)) for kind in kinds]


def parsed_equals(field: str, value) -> bool:
    if isinstance(value, np.bool_):
        return field == ("1" if value else "0")
    if isinstance(value, np.integer):
        return int(field) == int(value)
    if isinstance(value, np.floating):
        back = float(field)
        return (math.isnan(back) and math.isnan(value)) or (
            back == value and math.copysign(1, back) == math.copysign(1, value))
    return field == str(value)


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(columns=tables(), chunk=st.integers(1, 5))
    def test_matches_per_cell_reference_and_round_trips(self, tmp_path_factory,
                                                        columns, chunk):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        header = [f"c{k}" for k in range(len(columns))]
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
            write_csv(path, header, Table(columns))
        assert path.read_bytes() == reference_bytes(header, columns)
        with open(path, newline="") as fh:
            head, *rows = list(csv.reader(fh))
        assert head == header
        assert len(rows) == len(columns[0])
        for r, row in enumerate(rows):
            assert len(row) == len(columns)
            assert all(parsed_equals(f, col[r]) for f, col in zip(row, columns))

    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        table = Table.concat([], 3)
        assert len(table) == 0
        write_csv(path, ["a", "b", "c"], table)
        assert path.read_bytes() == b"a,b,c\r\n"

    def test_rows_span_several_chunks(self, tmp_path):
        n = 2 * csvio.CHUNK_ROWS + 5
        columns = [np.arange(n), np.linspace(-1.0, 1.0, n),
                   np.array(["x,y", "z"] * (n // 2) + ["w"])]
        path = tmp_path / "big.csv"
        write_csv(path, ["i", "f", "s"], Table(columns))
        assert path.read_bytes() == reference_bytes(["i", "f", "s"], columns)

    def test_signed_zeros_and_nans_keep_their_text(self, tmp_path):
        # one text per distinct float bit pattern: 0.0 and -0.0 compare equal
        # as values but must not share a text; every nan reads nan
        nan = math.nan
        columns = [np.array([0.0, -0.0, nan, -nan, 1.5]),
                   np.array([-0.0, 0.0, -nan, nan, 1.5])]
        path = tmp_path / "z.csv"
        write_csv(path, ["a", "b"], Table(columns))
        assert path.read_bytes() == reference_bytes(["a", "b"], columns)
        assert path.read_text().splitlines() == ["a,b", "0,-0", "-0,0", "nan,nan",
                                                 "nan,nan", "1.5,1.5"]

    def test_integer_extremes_and_bools_keep_their_text(self, tmp_path):
        # int64 and uint64 extremes, uint64 past int64, and bools, which share
        # the int64 key space with the integers, in one chunk
        i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
        columns = [np.array([i64.min, i64.max, -1, 0, 1]),
                   np.array([u64.max, 2 ** 63, int(i64.max), 0, 1], dtype=np.uint64),
                   np.array([True, False, True, False, True]),
                   np.array([0, 1, -(2 ** 31), 2 ** 31 - 1, 7], dtype=np.int32)]
        header = ["i64", "u64", "flag", "i32"]
        path = tmp_path / "i.csv"
        write_csv(path, header, Table(columns))
        assert path.read_bytes() == reference_bytes(header, columns)
        assert path.read_text().splitlines()[1:3] == [
            "-9223372036854775808,18446744073709551615,1,0",
            "9223372036854775807,9223372036854775808,0,1"]

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_history_shaped_table_across_chunks(self, tmp_path, chunk):
        # t1 is the parent's t2 and parent_id a record_id, so most texts are
        # shared within a chunk; some parents sit in an earlier chunk
        rng = np.random.default_rng(5)
        n = 40
        parents = np.array([-1 if i == 0 or rng.random() < 0.1 else
                            i - 1 if rng.random() < 0.7 else int(rng.integers(0, i))
                            for i in range(n)])
        t2 = np.cumsum(rng.exponential(size=n))
        t2[::9] = 10.0
        t1 = np.where(parents < 0, 0.0, t2[parents])
        assert (parents < np.arange(n) - chunk).any()
        fates = np.array(["died", "branched(2,0)", "jumped(1)"])
        columns = [np.full(n, 3), np.arange(n), parents,
                   rng.integers(1, 3, n).astype(np.int8), rng.integers(-4, 5, n),
                   t1, t2, fates[rng.integers(0, 3, n)]]
        header = ["replica", "record_id", "parent_id", "type", "x1", "t1", "t2", "fate"]
        path = tmp_path / "h.csv"
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
            write_csv(path, header, Table(columns))
        assert path.read_bytes() == reference_bytes(header, columns)

    def test_len_is_row_count_and_concat_stacks(self):
        a = Table([[1, 2], [0.5, 1.5], ["p", "q"]])
        b = Table([[3], [2.5], ["r"]])
        both = Table.concat([a, b], 3)
        assert (len(a), len(b), len(both)) == (2, 1, 3)
        assert both.columns[0].tolist() == [1, 2, 3]
        assert both.columns[2].tolist() == ["p", "q", "r"]

    def test_malformed_tables_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            Table([[1, 2], [1]])
        with pytest.raises(ValueError, match="1-D"):
            Table([np.zeros((2, 2))])
        with pytest.raises(TypeError, match="unsupported dtype"):
            Table([np.array([1j])])
        with pytest.raises(ValueError, match="header fields"):
            write_csv(tmp_path / "x.csv", ["a"], Table([[1], [2]]))
        assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# golden bytes: every CLI CSV as written by the row-by-row writer it replaced
# ---------------------------------------------------------------------------

MOMENTS_D1 = """
model:
  dim: 1
  kappa1: 1.0
  kappa2: 1.0
  kernel1: [[[1], 0.5], [[-1], 0.5]]
  kernel2: [[[1], 0.25], [[-1], 0.25], [[2], 0.25], [[-2], 0.25]]
  law:
    mu1: 0.25
    mu2: 0.375
    beta1: [[2, 0, 0.125], [1, 1, 0.125]]
    beta2: [[0, 2, 0.125], [1, 1, 0.25]]
experiment:
  t_list: [0.5, 1.0]
  box_radius: 8
"""

# 6x6 block of type-1 particles under the critical binary law
CELLS_D2 = """
model:
  dim: 2
  kernel1: [[[1, 0], 0.25], [[-1, 0], 0.25], [[0, 1], 0.25], [[0, -1], 0.25]]
  law:
    mu1: 0.5
    beta1: [[2, 0, 0.5]]
experiment:
  t_list: [5.0, 10.0, 20.0]
  replicas: 3
  seed: 4
  initial: [%s]
""" % ", ".join(f"[1, [{i}, {j}]]" for i in range(6) for j in range(6))

# sha256 of each file; the floats come from numpy/scipy, so a toolchain whose
# arithmetic differs in the last bit moves the moments and epidemic hashes
GOLDEN = {
    "simulate": (["--preset", "fig-z1", "--replicas", "1", "--t", "5,10"], {
        "history_0000.csv":
            "337b58aba3536ae20e2fd2dec31bd39013752f8fbb5ac6fb0bf7e2c52cac0e8f",
        "snapshot.csv":
            "9d2ed64d807a21be4b3184db38a0f0f63cc46e1665debe5b37755d10139cf641"}),
    "clusters": (["--preset", "fig-z1", "--replicas", "1", "--t", "5,10"], {
        "clusters.csv":
            "f3474698e0820424e4602faeaccaa87eb2e0fcc440a0e776a422df4a1b60a5f4"}),
    "moments": (["--config", MOMENTS_D1], {
        "moments.csv":
            "312d30816c111a54eaf8d9bdd3b1e44566185331fb6351d784b09045a30723f6"}),
    "epidemic": (["--preset", "fig-z2", "--t", "1", "--box", "6"], {
        "epidemic.csv":
            "19d1a4d3e8ac3bbc4b159d2b2d51b64a370065697eec6d8f7a4ee34da0668b1a",
        "corr.csv":
            "c419733a1002221075742dda8434b714c5aa78b349629e35a01c9b586ce59467"}),
    "cells": (["--config", CELLS_D2], {
        "cells.csv":
            "12f2b395d7c674a855b8cc9c98bb09acf7892fc61e993dcd41cdfc2c3cacdeb5"}),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_csv_bytes_are_golden(case, tmp_path):
    flags, expected = GOLDEN[case]
    command = "clusters" if case == "cells" else case
    if flags[0] == "--config":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(flags[1])
        flags = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in expected}
    assert got == expected
