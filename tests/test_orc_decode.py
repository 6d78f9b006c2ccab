"""ORC column decode: nested children decode the number of values they
hold, a truncated file raises a ValueError naming it, and bytes written
by liborc (pyarrow.orc — a writer independent of this repo's) decode
exactly, DICTIONARY_V2 strings and nullable decimals included."""

from decimal import Decimal

import numpy as np
import pyarrow as pa
import pyarrow.orc as pa_orc
import pytest

from apacheorcdotnet_ray.sources.orc_reader import (OrcFile, pb_repeated_uint,
                                                    read_file_stats)
from apacheorcdotnet_ray.sources.orc_writer import write_orc

N = 25


def _nested(shape: str) -> pa.Table:
    k = pa.array(np.arange(N, dtype=np.int64))
    if shape == "list_null_elements":
        col = pa.array([None if i % 6 == 0 else
                        [None if (i + j) % 3 == 0 else i * 10 + j
                         for j in range(i % 4)] for i in range(N)],
                       type=pa.list_(pa.int64()))
    elif shape == "struct_null_rows_nullable_child":
        col = pa.StructArray.from_arrays(
            [pa.array([None if i % 5 == 0 else i for i in range(N)],
                      type=pa.int64()),
             pa.array([f"s{i}" for i in range(N)])],
            ["a", "b"], mask=pa.array([i % 4 == 1 for i in range(N)]))
    elif shape == "map_null_values":
        col = pa.array([None if i % 7 == 3 else
                        [(f"k{j}", None if (i + j) % 2 else i + j)
                         for j in range(i % 3)] for i in range(N)],
                       type=pa.map_(pa.string(), pa.int64()))
    else:  # struct with null rows, children without nulls of their own
        col = pa.StructArray.from_arrays(
            [pa.array(np.arange(N, dtype=np.int64)),
             pa.array([f"s{i}" for i in range(N)])],
            ["a", "b"], mask=pa.array([i % 4 == 1 for i in range(N)]))
    return pa.table({"k": k, "c": col})


@pytest.mark.parametrize("writer", ["write_orc", "pyarrow"])
@pytest.mark.parametrize("shape", ["list_null_elements",
                                   "struct_null_rows_nullable_child",
                                   "map_null_values",
                                   "struct_null_rows_dense_children"])
def test_nested_children_decode_their_own_value_count(tmp_path, shape,
                                                      writer):
    t = _nested(shape)
    p = str(tmp_path / f"{shape}.orc")
    if writer == "pyarrow":
        pa_orc.write_table(t, p)
    else:
        write_orc(t, p)
    f = OrcFile(p)
    got = f.read_table()
    f.close()
    assert got.column("k").equals(t.column("k"))
    assert got.column("c").cast(t.schema.field("c").type).equals(
        t.column("c")), got.column("c").to_pylist()


def _small(compression: str, path: str) -> None:
    n = 800
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "s": pa.array([f"v{i % 37}" for i in range(n)]),
        "x": pa.array(np.arange(n, dtype=np.float64) / 8),
    })
    write_orc(t, path, compression=compression, stripe_rows=400,
              row_index_stride=200)


@pytest.mark.parametrize("compression", ["zlib", "none"])
def test_every_truncation_raises_naming_the_file(tmp_path, compression):
    src = str(tmp_path / "whole.orc")
    _small(compression, src)
    data = open(src, "rb").read()
    f = OrcFile(src)
    assert f.read_table().num_rows == 800
    f.close()
    p = str(tmp_path / "cut.orc")
    for size in range(len(data)):
        with open(p, "wb") as out:
            out.write(data[:size])
        with pytest.raises(ValueError, match="cut.orc"):
            OrcFile(p).read_table()
        with pytest.raises(ValueError, match="cut.orc"):
            read_file_stats(p)


def test_liborc_file_closed_forms_dictionary_decimal(tmp_path):
    """A file liborc writes at test time: the Hive demo file's closed-form
    int columns, a DICTIONARY_V2 string column and a nullable decimal,
    with 1,000-row row groups, exact through read_table (full and
    predicate reads)."""
    n = 5_000
    i = np.arange(n, dtype=np.int64)
    t = pa.table({
        "a": pa.array(i + 1),
        "b": pa.array(((i // 70) * 500) % 10_000 + 500),
        "s": pa.array([("F", "M", "U")[j % 3] + str(j % 11) for j in range(n)]),
        "d": pa.array([None if j % 9 == 0 else Decimal(j * 37 - 90_000)
                       .scaleb(-2) for j in range(n)],
                      type=pa.decimal128(10, 2)),
    })
    p = str(tmp_path / "liborc.orc")
    pa_orc.write_table(t, p, dictionary_key_size_threshold=1.0,
                       row_index_stride=1000)
    f = OrcFile(p)
    assert [f.column_encoding(c) for c in (1, 3, 4)] == [2, 3, 2]
    got = f.read_table()
    assert got.equals(t)
    assert (got.column("a").to_numpy() == i + 1).all()
    part = f.read_table(predicate=("a", "==", 2_500))
    assert part.num_rows < n
    assert part.equals(t.slice(2_000, part.num_rows))
    f.close()
    assert read_file_stats(p)["a"] == {"n": n, "min": 1, "max": n}


def test_stream_holding_fewer_values_than_rows_raises(tmp_path):
    """A full-stripe integer stream must hold exactly the rows the stripe
    declares; one that holds fewer raises instead of reading short."""
    p = str(tmp_path / "short.orc")
    write_orc(pa.table({"k": pa.array(np.arange(100, dtype=np.int64))}), p)
    f = OrcFile(p)
    f.stripes[0].number_of_rows += 1
    with pytest.raises(ValueError, match="short.orc.*100 values, expected 101"):
        f.read_table()
    f.close()


def test_packed_field_ending_inside_a_varint_raises():
    """A packed repeated field (Type.subtypes, ROW_INDEX positions) whose
    last varint is cut raises ValueError, as pb_parse does."""
    assert pb_repeated_uint([b"\x05\x85\x01", 7]) == [5, 133, 7]
    with pytest.raises(ValueError, match="inside a varint"):
        pb_repeated_uint([b"\x05\x85"])


def test_unsupported_compression_raises_naming_the_file(tmp_path):
    """A compression kind with no framing codec (SNAPPY = 2) is refused at
    open, naming the file, before any stream is read."""
    p = str(tmp_path / "snappy.orc")
    pa_orc.write_table(pa.table({"a": [1, 2, 3]}), p, compression="snappy")
    with pytest.raises(ValueError, match="snappy.orc.*kind 2"):
        OrcFile(p)
