"""Cross-validation against an INDEPENDENT ORC writer: decode the reference's
committed Hive-written conformance file (demo-12-zlib.orc, 1,920,800 rows,
1 stripe, ZLIB) with THIS repo's RLEv2 decoder and check the closed-form
column formulas the reference pins its LongReader to
(/root/reference/test/ApacheOrcDotNet.Test/ColumnTypes/LongReader_Test.cs:24-102).

This is the one place the codec stack meets bytes it never wrote — a decode
mismatch here means the RLEv2 reader only round-trips its own encoder's
dialect. No Ray needed: the reader is pure tail-parse + codec calls.
"""

import os

import numpy as np
import pytest

from apacheorcdotnet_ray.sources.orc_reader import OrcFile

DEMO = "/root/reference/test/ApacheOrcDotNet.Test/Data/demo-12-zlib.orc"
DECIMAL = os.path.join(os.path.dirname(DEMO), "decimal.orc")

# only the tests that open a reference file skip without it
needs_demo = pytest.mark.skipif(
    not os.path.exists(DEMO), reason="reference conformance file not present")
needs_decimal = pytest.mark.skipif(
    not os.path.exists(DECIMAL), reason="reference decimal.orc not present")


@pytest.fixture(scope="module")
def demo():
    return OrcFile(DEMO)


def _column(f, column):
    """Top-level column ``column`` (an ORC type id: the first field is 1)
    decoded through ``read_table``."""
    name = f.field_names()[column - 1]
    return f.read_table(columns=[name]).column(name)


@needs_demo
def test_tail_parse(demo):
    assert demo.number_of_rows == 1_920_800
    assert len(demo.stripes) == 1
    assert demo.compression == 1  # ZLIB
    assert demo.stripes[0].number_of_rows == 1_920_800


@needs_demo
@pytest.mark.parametrize("column,formula", [
    (1, lambda i: i + 1),                          # LongReader_Test.cs:24
    (5, lambda i: ((i // 70) * 500) % 10_000 + 500),  # :41
    (7, lambda i: (i // 5_600) % 7),               # :58
    (8, lambda i: (i // 39_200) % 7),              # :75
    (9, lambda i: i // 274_400),                   # :92
])
def test_int_column_formulas(demo, column, formula):
    vals = _column(demo, column).to_numpy()
    assert len(vals) == 1_920_800
    idx = np.arange(len(vals), dtype=np.int64)
    assert (vals == formula(idx)).all()


@needs_demo
def test_matches_pyarrow_orc(demo):
    """Same bytes through pyarrow's independent C++ ORC reader."""
    po = pytest.importorskip("pyarrow.orc")
    t = po.ORCFile(DEMO).read()
    ours = _column(demo, 1).to_numpy()
    theirs = t.column(0).to_numpy(zero_copy_only=False).astype(np.int64)
    assert (ours == theirs).all()


@needs_demo
def test_read_table_demo_packed_subtypes(demo):
    """read_table on the Hive-written file: Type.subtypes arrives PACKED
    (one length-delimited varint blob — proto2 [packed=true]), which
    pb_repeated_uint must unpack for top_ids/STRUCT/LIST resolution.
    Full-table value cross-check against pyarrow's C++ reader."""
    import pyarrow as pa

    po = pytest.importorskip("pyarrow.orc")
    theirs = po.ORCFile(DEMO).read()
    mine = demo.read_table().rename_columns(theirs.schema.names)
    assert mine.num_rows == theirs.num_rows
    for c in theirs.schema.names:
        a = pa.chunked_array([mine.column(c)]) \
            .cast(theirs.schema.field(c).type)
        assert a.equals(theirs.column(c)), c


@needs_demo
def test_read_file_stats_demo_packed_subtypes():
    """read_file_stats must survive packed subtypes too (tail-only read)."""
    from apacheorcdotnet_ray.sources.orc_reader import read_file_stats

    stats = read_file_stats(DEMO)
    assert stats["_col0"] == {"n": 1_920_800, "min": 1, "max": 1_920_800}
    assert stats["_col1"]["min"] == "F" and stats["_col1"]["max"] == "M"


@needs_demo
@pytest.mark.parametrize("column", [2, 3, 4, 6])
def test_string_columns_match_pyarrow(demo, column):
    """DICTIONARY_V2 string columns (unsigned RLEv2 ids + lengths) decoded
    with the repo codecs, cross-checked against pyarrow's C++ ORC reader."""
    po = pytest.importorskip("pyarrow.orc")
    t = po.ORCFile(DEMO).read()
    ours = _column(demo, column).to_pylist()
    theirs = t.column(column - 1).to_pylist()
    assert demo.column_encoding(column) == 3  # DICTIONARY_V2
    assert ours == theirs


@needs_decimal
def test_decimal_column_matches_pyarrow():
    """decimal.orc: zigzag-varint mantissas + signed-RLEv2 scales + a real
    PRESENT stream (2,000 nulls) — three repo codecs (varint, rlev2,
    bool_rle) against independently written bytes."""
    po = pytest.importorskip("pyarrow.orc")
    ours = _column(OrcFile(DECIMAL), 1).to_pylist()
    theirs = po.ORCFile(DECIMAL).read().column(0).to_pylist()
    assert len(ours) == 6000
    assert sum(v is None for v in ours) == 2000
    assert ours == theirs  # Decimal equality is numeric-exact


def test_write_orc_read_by_pyarrow(tmp_path):
    """WRITE interop: this repo's codecs emit a real .orc file that the
    Apache C++ reader (pyarrow.orc) accepts with exact value fidelity —
    ints (RLEv2), strings (DIRECT_V2), doubles, bools, nulls (PRESENT)."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    t = pa.table({
        "i": pa.array([1, None, 3, None, 5, -2**40, 7, 2**50],
                      type=pa.int64()),
        "s": pa.array(["a", "bb", None, "", "ccc", None, "dd", "e"],
                      type=pa.string()),
        "d": pa.array([1.5, None, 3.25, float("nan"), -0.0, 2.0, 1e300, -1.0],
                      type=pa.float64()),
        "b": pa.array([True, False, None, True, None, False, True, True]),
    })
    for comp in ("zlib", "none"):
        p = str(tmp_path / f"t_{comp}.orc")
        write_orc(t, p, compression=comp)
        back = po.ORCFile(p).read()
        assert back.column_names == t.column_names
        for c in t.column_names:
            a, b = t.column(c).to_pylist(), back.column(c).to_pylist()
            assert all((x is None and y is None) or x == y
                       or (x != x and y != y)  # NaN
                       for x, y in zip(a, b)), c


def test_write_orc_read_by_own_reader(tmp_path):
    """Round-trip through BOTH ends of this repo's ORC stack."""
    import numpy as np
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    rng = np.random.default_rng(7)
    vals = rng.integers(-2**31, 2**31, size=25_000)
    words = np.array(["alpha", "beta", "gamma", "delta"])[vals % 4]
    t = pa.table({"v": pa.array(vals, type=pa.int64()),
                  "w": pa.array(words, type=pa.string())})
    p = str(tmp_path / "own.orc")
    write_orc(t, p, compression="zlib")
    f = OrcFile(p)
    assert f.number_of_rows == 25_000
    back = f.read_table()
    assert (back.column("v").to_numpy() == vals).all()
    assert back.column("w").to_pylist() == words.tolist()


def test_write_orc_dataset_sink(ray_session, tmp_path):
    """The Ray Data sink writes one .orc per block (atomic publish) and the
    whole directory reads back exactly through pyarrow."""
    import glob

    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.sources.orc_writer import write_orc_dataset

    po = pytest.importorskip("pyarrow.orc")
    t = pa.table({"k": pa.array(range(10_000), type=pa.int64()),
                  "s": pa.array([f"s{i % 97}" for i in range(10_000)])})
    ds = rd.from_arrow(t).repartition(4)
    out = str(tmp_path / "orc_out")
    n = write_orc_dataset(ds, out)
    files = sorted(glob.glob(out + "/*.orc"))
    assert n == len(files) == 4
    back = pa.concat_tables([po.ORCFile(p).read() for p in files])
    assert back.num_rows == 10_000
    assert sorted(back.column("k").to_pylist()) == list(range(10_000))


def test_write_orc_temporal_decimal(tmp_path):
    """Timestamps (incl. pre-2015 and pre-1970 — floor-division seconds),
    date32 and decimal columns written by our codecs, read by pyarrow."""
    import datetime
    from decimal import Decimal

    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    t = pa.table({
        "ts": pa.array([
            datetime.datetime(2024, 1, 10, 12, 30, 15, 123456), None,
            datetime.datetime(2010, 6, 1, 0, 0, 0, 500000),
            datetime.datetime(2015, 1, 1),
            datetime.datetime(1969, 12, 31, 23, 59, 59),
        ], type=pa.timestamp("us")),
        "d": pa.array([datetime.date(2024, 1, 1), None,
                       datetime.date(1969, 1, 1),
                       datetime.date(2000, 2, 29),
                       datetime.date(2015, 7, 4)]),
        "dec": pa.array([Decimal("12.345"), Decimal("-0.001"), None,
                         Decimal("99999.999"), Decimal("0.000")],
                        type=pa.decimal128(10, 3)),
    })
    p = str(tmp_path / "tsdec.orc")
    write_orc(t, p)
    back = po.ORCFile(p).read()
    for c in t.column_names:
        got = back.column(c).cast(t.column(c).type).to_pylist()
        assert got == t.column(c).to_pylist(), c


def test_write_orc_wide_decimal_round_trips(tmp_path):
    """decimal128 mantissas beyond int64, up to ±(10^38 − 1), write as
    128-bit varints and read back exactly through pyarrow's reader and
    ours, row-group seeks included."""
    from decimal import Decimal

    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    top = "9" * 35 + ".999"  # 10^38 - 1 at scale 3; Decimal's unary minus rounds
    vals = [Decimal("1.000"), Decimal("12345678901234567890.123"), None,
            Decimal(top), Decimal("-" + top),
            Decimal("-9223372036854775.808"), Decimal("9223372036854775.808")]
    t = pa.table({"k": list(range(len(vals) * 3)),
                  "amount": pa.array(vals * 3, type=pa.decimal128(38, 3))})
    p = str(tmp_path / "wide.orc")
    write_orc(t, p, row_index_stride=4)
    assert po.ORCFile(p).read().equals(t)
    f = OrcFile(p)
    assert f.read_table().equals(t)
    assert f.read_table(predicate=("k", ">=", 9)).equals(t.slice(8))
    f.close()


def test_write_orc_rejects_negative_decimal_scale(tmp_path):
    """ORC's decimal scale is unsigned: a negative Arrow scale is refused,
    naming the column, and the protobuf varint writer refuses a negative
    value instead of looping forever."""
    from decimal import Decimal

    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_writer import _vint, write_orc

    t = pa.table({"k": [1, 2],
                  "hundreds": pa.array([Decimal("1E+2"), None],
                                       type=pa.decimal128(5, -2))})
    with pytest.raises(ValueError, match="'hundreds'.*negative scale"):
        write_orc(t, str(tmp_path / "neg.orc"))
    with pytest.raises(ValueError, match="negative"):
        _vint(-2)
    assert _vint(300) == b"\xac\x02"


@pytest.mark.parametrize("compression", ["zlib", "zstd"])
def test_empty_streams_are_zero_bytes(tmp_path, compression):
    """A stream with no bytes (all-null, all-"" and all-[] columns) is
    written as 0 bytes, not as one empty chunk, and both readers read the
    file, full and through a ROW_INDEX seek."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile, pb_parse
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    n = 25_000
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                  "nul": pa.array([None] * n, type=pa.int64()),
                  "snul": pa.array([None] * n, type=pa.string()),
                  "e": pa.array([""] * n),
                  "b": pa.array([b""] * n),
                  "l": pa.array([[]] * n, type=pa.large_list(pa.int32()))})
    p = str(tmp_path / "empty.orc")
    write_orc(t, p, compression=compression, row_index_stride=10_000)
    assert po.ORCFile(p).read().cast(t.schema).equals(t)
    f = OrcFile(p)
    assert f.read_table().equals(t)
    flat = ["k", "nul", "snul", "e", "b"]
    part = f.read_table(columns=flat, predicate=("k", "==", 15_000))
    assert part.equals(t.select(flat).slice(10_000, 10_000))
    lens = [pb_parse(r).get(3, [0])[0]
            for r in f._stripe_footer(f.stripes[0]).get(1, [])]
    assert lens.count(0) == 6  # nul, snul x2, e dictionary, b, l child
    f.close()


def test_read_table_full_stack(tmp_path):
    """write_orc → OrcFile.read_table: every supported type incl. nulls,
    NaN, pre-epoch timestamps — both ends of this repo's ORC stack."""
    import datetime
    from decimal import Decimal

    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    t = pa.table({
        "i": pa.array([1, None, 3, -2**40, None], type=pa.int64()),
        "s": pa.array(["a", None, "ccc", "", "dd"], type=pa.string()),
        "d": pa.array([1.5, None, float("nan"), -0.0, 1e300]),
        "b": pa.array([True, None, False, True, False]),
        "ts": pa.array([datetime.datetime(2024, 1, 10, 12, 30, 15, 123456),
                        None, datetime.datetime(2010, 6, 1, 0, 0, 0, 500000),
                        datetime.datetime(2015, 1, 1),
                        datetime.datetime(1969, 12, 31, 23, 59, 59)],
                       type=pa.timestamp("us")),
        "dt": pa.array([datetime.date(2024, 1, 1), None,
                        datetime.date(1969, 1, 1),
                        datetime.date(2000, 2, 29),
                        datetime.date(2015, 7, 4)]),
        "dec": pa.array([Decimal("12.345"), None, Decimal("-0.001"),
                         Decimal("99999.999"), Decimal("0.000")],
                        type=pa.decimal128(10, 3)),
    })
    p = str(tmp_path / "own.orc")
    write_orc(t, p)
    back = OrcFile(p).read_table()
    assert back.column_names == t.column_names
    for c in t.column_names:
        a, b = t.column(c).to_pylist(), back.column(c).to_pylist()
        assert all((x is None and y is None) or x == y
                   or (isinstance(x, float) and x != x and y != y)
                   for x, y in zip(a, b)), c
    # column pruning decodes only what's asked
    pruned = OrcFile(p).read_table(columns=["i", "ts"])
    assert pruned.column_names == ["i", "ts"]


def test_read_orc_files_ray_source(ray_session, tmp_path):
    """read_orc_files: Ray source over a directory of our .orc files,
    column-pruned at the stream level."""
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.sources.orc_reader import read_orc_files
    from apacheorcdotnet_ray.sources.orc_writer import write_orc_dataset

    t = pa.table({"k": pa.array(range(5000), type=pa.int64()),
                  "s": pa.array([f"v{i % 13}" for i in range(5000)]),
                  "x": pa.array([float(i) for i in range(5000)])})
    out = str(tmp_path / "orcdir")
    write_orc_dataset(rd.from_arrow(t).repartition(3), out)
    ds = read_orc_files(out, columns=["k", "s"])
    got = ds.to_pandas()
    assert sorted(got.columns) == ["k", "s"]
    assert sorted(got["k"]) == list(range(5000))


def test_write_orc_zstd(tmp_path):
    """ZSTD-framed ORC (compression kind 5) through pyarrow AND our reader."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    t = pa.table({"v": pa.array(range(50_000), type=pa.int64()),
                  "s": pa.array([f"w{i % 11}" for i in range(50_000)])})
    p = str(tmp_path / "z.orc")
    write_orc(t, p, compression="zstd")
    f = po.ORCFile(p)
    assert f.compression == "ZSTD"
    back = f.read()
    assert back.column("v").to_pylist() == t.column("v").to_pylist()
    ours = OrcFile(p).read_table()
    assert ours.column("s").to_pylist() == t.column("s").to_pylist()


def test_tokens_shape_through_orc(ray_session, tmp_path):
    """The flagship (doc_id, tokens:list<int32>, n_tok, source) table —
    real testdata, tokenized — through real ORC with EXACT token-value
    equality via pyarrow's independent reader and our own."""
    import pyarrow as pa

    from apacheorcdotnet_ray.pipelines.text import tokenize_documents
    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc
    from apacheorcdotnet_ray.sources.parquet import read_parquet_clean

    po = pytest.importorskip("pyarrow.orc")
    src = "/root/testdata/sf0.001/documents.parquet"
    if not os.path.exists(src):
        pytest.skip("testdata not present")
    t = pa.concat_tables(
        tokenize_documents(read_parquet_clean(src)).iter_batches(
            batch_size=None, batch_format="pyarrow"))
    p = str(tmp_path / "tokens.orc")
    write_orc(t, p)
    back = po.ORCFile(p).read()
    assert back.column("tokens").to_pylist() == t.column("tokens").to_pylist()
    assert back.column("doc_id").to_pylist() == t.column("doc_id").to_pylist()
    assert back.schema.field("tokens").type == pa.list_(pa.int32())
    own = OrcFile(p).read_table(columns=["doc_id", "tokens"])
    assert own.column("tokens").to_pylist() == t.column("tokens").to_pylist()


def test_dictionary_string_write(tmp_path):
    """Low-cardinality strings take DICTIONARY_V2 (the reference's 0.8
    distinct-ratio decision, StringWriter.cs:89-92) — verified through
    pyarrow and our reader; high-cardinality strings stay DIRECT_V2."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    low = pa.table({"s": pa.array(["a", "b", "a", "c"] * 500)})
    hi = pa.table({"s": pa.array([f"u{i}" for i in range(2000)])})
    pl_, ph = str(tmp_path / "low.orc"), str(tmp_path / "hi.orc")
    write_orc(low, pl_)
    write_orc(hi, ph)
    assert OrcFile(pl_).column_encoding(1) == 3   # DICTIONARY_V2
    assert OrcFile(ph).column_encoding(1) == 2    # DIRECT_V2
    for p, t in ((pl_, low), (ph, hi)):
        assert po.ORCFile(p).read().column("s").to_pylist() \
            == t.column("s").to_pylist()
        assert OrcFile(p).read_table().column("s").to_pylist() \
            == t.column("s").to_pylist()


def test_struct_column_write(tmp_path):
    """Nullable struct columns round-trip through pyarrow and our reader."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    rec = pa.StructArray.from_arrays(
        [pa.array([1, 2, 3, 4], type=pa.int64()),
         pa.array(["a", "b", "c", "d"])],
        names=["x", "y"],
        mask=pa.array([False, True, False, False]))
    t = pa.table({"k": pa.array([10, 20, 30, 40], type=pa.int64()),
                  "rec": rec})
    p = str(tmp_path / "st.orc")
    write_orc(t, p)
    exp = t.column("rec").to_pylist()
    assert po.ORCFile(p).read().column("rec").to_pylist() == exp
    assert OrcFile(p).read_table().column("rec").to_pylist() == exp


def test_orc_footer_stats_and_pruning(ray_session, tmp_path):
    """Written .orc files carry footer column statistics (sint64 zigzag
    int min/max/sum, string min/max); read_orc_files prunes whole files by
    them with a tail-only read and still returns exact rows."""
    import glob

    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.sources.orc_reader import (read_file_stats,
                                                        read_orc_files)
    from apacheorcdotnet_ray.sources.orc_writer import write_orc_dataset

    t = pa.table({"k": pa.array(range(40_000), type=pa.int64()),
                  "s": pa.array([f"v{i % 7}" for i in range(40_000)])})
    out = str(tmp_path / "prune")
    write_orc_dataset(rd.from_arrow(t).repartition(4), out)
    stats = [read_file_stats(p) for p in sorted(glob.glob(out + "/*.orc"))]
    assert all(st["k"]["n"] == 10_000 for st in stats)
    assert sorted(st["k"]["min"] for st in stats) == [0, 10_000, 20_000, 30_000]
    assert all("min" in st["s"] for st in stats)  # string stats present
    got = read_orc_files(out, predicate=("k", "<", 5_000)).to_pandas()
    assert len(got) == 5_000 and got["k"].max() == 4_999
    point = read_orc_files(out, predicate=("k", "==", 39_999)).to_pandas()
    assert len(point) == 1


def test_multistripe_nested_roundtrip(tmp_path):
    """≥3 stripes with tokens list<int32>, a struct column and nullable
    scalars: value-exact through BOTH pyarrow's C++ reader and our own
    (the per-stripe nested decode path)."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    n = 70_000
    ids = np.arange(n, dtype=np.int64)
    toks = pa.array([list(range(int(i) % 6)) for i in ids],
                    type=pa.list_(pa.int32()))
    struct = pa.StructArray.from_arrays(
        [pa.array(ids % 100), pa.array([f"g{int(i) % 9}" for i in ids])],
        ["a", "b"])
    nullable = pa.array([None if i % 11 == 0 else int(i) for i in range(n)],
                        type=pa.int64())
    t = pa.table({"id": ids, "toks": toks, "s": struct, "nl": nullable})
    p = str(tmp_path / "ms.orc")
    write_orc(t, p, stripe_rows=20_000)
    pf = po.ORCFile(p)
    assert pf.nstripes == 4
    theirs = pf.read()
    f = OrcFile(p)
    assert len(f.stripes) == 4
    assert all(s.index_length > 0 for s in f.stripes)  # ROW_INDEX present
    mine = f.read_table()
    for c in t.column_names:
        a = pa.chunked_array([mine.column(c)]) \
            .cast(theirs.schema.field(c).type)
        assert a.equals(theirs.column(c)), c
        b = pa.chunked_array([t.column(c)]) \
            .cast(theirs.schema.field(c).type)
        assert b.equals(theirs.column(c)), c
    f.close()


def test_pre1970_fractional_timestamps_both_directions(tmp_path):
    """ADVICE round-4 item: pre-1970 timestamps with sub-second micros.
    Writer uses the C++ ORC dialect (trunc-toward-zero seconds, signed
    nanos); reader handles that AND the Java positive-nanos dialect."""
    import datetime

    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")
    ts = [datetime.datetime(1969, 12, 31, 23, 59, 58, 500000),
          datetime.datetime(1969, 12, 31, 23, 59, 59, 500000),
          datetime.datetime(1969, 12, 31, 23, 59, 59),
          datetime.datetime(1970, 1, 1, 0, 0, 0, 500000),
          datetime.datetime(1965, 6, 1, 12, 0, 0, 123456),
          datetime.datetime(2020, 1, 1, 0, 0, 0, 250000)]
    t = pa.table({"t": pa.array(ts, type=pa.timestamp("us"))})
    p1 = str(tmp_path / "ours.orc")
    write_orc(t, p1)
    assert [v.to_pydatetime()
            for v in po.ORCFile(p1).read().column("t").to_pylist()] == ts
    assert OrcFile(p1).read_table().column("t").to_pylist() == ts
    p2 = str(tmp_path / "theirs.orc")
    po.write_table(t, p2)
    assert OrcFile(p2).read_table().column("t").to_pylist() == ts


def test_row_index_positions_seek_exact(tmp_path):
    """ROW_INDEX positions written per row group are exact: decode row
    group k of a zlib-compressed int column from (chunk offset, offset in
    chunk, run offset) alone, and the per-group stats match numpy."""
    import pyarrow as pa

    from apacheorcdotnet_ray.codecs import rlev2
    from apacheorcdotnet_ray.sources.orc_reader import (OrcFile, pb_parse,
                                                        pb_repeated_uint)
    from apacheorcdotnet_ray.sources.orc_writer import write_orc
    from apacheorcdotnet_ray.stripe import framing

    n = 45_000
    vals = (np.arange(n, dtype=np.int64) * 13) % 100000
    p = str(tmp_path / "seek.orc")
    write_orc(pa.table({"x": vals}), p, stripe_rows=n)
    f = OrcFile(p)
    st = f.stripes[0]
    streams = [pb_parse(raw) for raw in f._stripe_footer(st).get(1, [])]
    pos = st.offset
    ri_raw = data_off = data_len = None
    for s in streams:
        kind, col, ln = s.get(1, [0])[0], s.get(2, [0])[0], s.get(3, [0])[0]
        if kind == 6 and col == 1:
            ri_raw = framing.decompress(f._buf[pos:pos + ln], f.codec)
        if kind == 1 and col == 1:
            data_off, data_len = pos, ln
        pos += ln
    entries = [pb_parse(e) for e in pb_parse(ri_raw).get(1, [])]
    assert len(entries) == 5  # 45k rows / 10k stride
    comp_off, in_chunk, run_off = pb_repeated_uint(entries[3].get(1, []))
    assert run_off == 0  # encoder restarts at every stride
    dec = framing.decompress(f._buf[data_off + comp_off:data_off + data_len],
                             f.codec)[in_chunk:]
    got = rlev2.decode(dec, signed=True)[:10_000]
    assert (got == vals[30_000:40_000]).all()
    stm = pb_parse(entries[3][2][0])
    ist = pb_parse(stm[2][0])
    unzz = lambda v: (v >> 1) ^ -(v & 1)  # noqa: E731
    assert stm[1][0] == 10_000
    assert unzz(ist[1][0]) == int(vals[30_000:40_000].min())
    assert unzz(ist[2][0]) == int(vals[30_000:40_000].max())
    f.close()


def test_nested_stats_true_counts(tmp_path):
    """Footer stats carry TRUE per-node numberOfValues (list children =
    sum of list lengths; masked values excluded) and the hasNull flag."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile, pb_parse
    from apacheorcdotnet_ray.sources.orc_writer import write_orc
    from apacheorcdotnet_ray.stripe import framing

    n = 1_000
    toks = pa.array([None if i % 10 == 0 else list(range(i % 4))
                     for i in range(n)], type=pa.list_(pa.int32()))
    t = pa.table({"toks": toks})
    p = str(tmp_path / "st.orc")
    write_orc(t, p)
    # parse footer stats directly
    buf = open(p, "rb").read()
    ps_len = buf[-1]
    ps = pb_parse(buf[-1 - ps_len:-1])
    footer = pb_parse(framing.decompress(
        buf[-1 - ps_len - ps[1][0]:-1 - ps_len], "zlib"))
    stats = [pb_parse(raw) for raw in footer.get(7, [])]
    n_lists = sum(1 for i in range(n) if i % 10 != 0)
    n_child = sum(i % 4 for i in range(n) if i % 10 != 0)
    assert stats[0][1][0] == n          # root: row count
    assert stats[1][1][0] == n_lists    # list node: non-null lists
    assert stats[1][10][0] == 1         # hasNull set
    assert stats[2][1][0] == n_child    # child: sum of list lengths
    assert stats[2][10][0] == 0
    # Metadata section exists with per-stripe stats
    meta_len = ps.get(5, [0])[0]
    assert meta_len > 0
    foot_len = ps[1][0]
    meta = pb_parse(framing.decompress(
        buf[-1 - ps_len - foot_len - meta_len:-1 - ps_len - foot_len],
        "zlib"))
    assert len(meta.get(1, [])) == 1    # one StripeStatistics per stripe


def test_map_kind_both_directions(tmp_path):
    """ORC MAP (kind 11: LENGTH + key/value children) — EXCEEDS the
    reference, which throws on maps (StripeWriter.cs:321). Multi-stripe,
    nullable rows, exact via pyarrow AND our reader, both directions."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")

    def eq(a, b):
        ca = pa.chunked_array([a]) if isinstance(a, pa.Array) else a
        cb = pa.chunked_array([b]) if isinstance(b, pa.Array) else b
        return ca.cast(cb.type).equals(cb)

    n = 30_000
    rows = [None if i % 13 == 0 else
            [(f"k{j}", i * 10 + j) for j in range(i % 4)] for i in range(n)]
    t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64)),
                  "m": pa.array(rows, type=pa.map_(pa.string(), pa.int64()))})
    p = str(tmp_path / "map.orc")
    write_orc(t, p, stripe_rows=10_000)
    pf = po.ORCFile(p)
    assert pf.nstripes == 3
    assert eq(pf.read().column("m"), t.column("m"))
    f = OrcFile(p)
    assert eq(f.read_table().column("m"), t.column("m"))
    f.close()
    p2 = str(tmp_path / "map_pa.orc")  # conforming-writer direction
    po.write_table(t, p2)
    assert eq(OrcFile(p2).read_table().column("m"), t.column("m"))


def test_stripe_stats_pruning(tmp_path):
    """Metadata per-stripe statistics prune whole STRIPES at read time:
    a point predicate on a sorted column decodes exactly one stripe; a
    gap predicate decodes none but keeps the typed schema."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    n = 120_000
    t = pa.table({"k": np.arange(n, dtype=np.int64),
                  "s": pa.array([f"s{i // 30_000}" for i in range(n)])})
    p = str(tmp_path / "sp.orc")
    write_orc(t, p, stripe_rows=30_000)
    f = OrcFile(p)
    ss = f.stripe_stats()
    assert len(ss) == 4
    assert [s["k"]["min"] for s in ss] == [0, 30_000, 60_000, 90_000]
    got = f.read_table(predicate=("k", "==", 70_000))
    # one stripe survives the Metadata stats, and inside it the ROW_INDEX
    # seek decode narrows to the one 10k-row group containing the key
    assert got.num_rows == 10_000
    assert int(got.column("k").to_numpy().min()) == 70_000
    empty = f.read_table(predicate=("k", ">", 10**9))
    assert empty.num_rows == 0
    assert empty.schema.names == ["k", "s"]
    f.close()


def test_read_orc_files_split_stripes(ray_session, tmp_path):
    """The Ray task unit is one STRIPE (import parallelism bound by total
    stripes, not file count)."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import read_orc_files
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    n = 90_000
    t = pa.table({"k": np.arange(n, dtype=np.int64)})
    p = str(tmp_path / "big.orc")
    write_orc(t, p, stripe_rows=30_000)  # 3 stripes, ONE file
    ds = read_orc_files([p])
    assert ds.count() == n
    got = sorted(r["k"] for r in ds.take_all())
    assert got == list(range(n))
    # stripe pruning composes with stripe-level tasks
    pr = read_orc_files([p], predicate=("k", "<", 100))
    assert sorted(r["k"] for r in pr.take_all()) == list(range(100))


def test_read_orc_files_empty_file(ray_session, tmp_path):
    """pyarrow writes an empty table as an ORC file with no stripes: beside a
    non-empty file it adds no rows, and on its own it reads as a typed empty
    Dataset."""
    import pyarrow as pa
    import pyarrow.orc as po

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile, read_orc_files
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    t = pa.table({"k": pa.array(np.arange(50, dtype=np.int64)),
                  "s": pa.array([f"v{i}" for i in range(50)])})
    empty, full = str(tmp_path / "a_empty.orc"), str(tmp_path / "b_full.orc")
    po.write_table(t.slice(0, 0), empty)
    write_orc(t, full)
    assert OrcFile(empty).stripes == []
    ds = read_orc_files([empty, full])
    assert sorted(r["k"] for r in ds.take_all()) == list(range(50))
    assert ds.schema().names == ["k", "s"]
    alone = read_orc_files([empty], columns=["s"])
    assert alone.count() == 0
    assert list(zip(alone.schema().names, alone.schema().types)) == [("s", pa.string())]


def test_byte_binary_float_kinds(tmp_path):
    """Width-faithful BYTE (tinyint, byte-RLE), BINARY (blob+LENGTH) and
    FLOAT columns — both directions, multi-stripe, nullable. VARCHAR(16)/
    CHAR(17) dispatch to the STRING decoder (same streams)."""
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    po = pytest.importorskip("pyarrow.orc")

    def eq(a, b):
        ca = pa.chunked_array([a]) if isinstance(a, pa.Array) else a
        cb = pa.chunked_array([b]) if isinstance(b, pa.Array) else b
        return ca.cast(cb.type).equals(cb)

    n = 20_000
    rng = np.random.default_rng(5)
    t = pa.table({
        "i8": pa.array(rng.integers(-128, 128, n).astype(np.int8)),
        "i8n": pa.array([None if i % 7 == 0 else i % 100 for i in range(n)],
                        type=pa.int8()),
        "bin": pa.array([None if i % 11 == 0 else rng.bytes(i % 9)
                         for i in range(n)], type=pa.binary()),
        "f32": pa.array(rng.normal(size=n).astype(np.float32)),
        "s": pa.array([f"v{i % 5}" for i in range(n)]),
    })
    p = str(tmp_path / "kinds.orc")
    write_orc(t, p, stripe_rows=8_000)
    theirs = po.ORCFile(p).read()
    assert theirs.schema.field("i8").type == pa.int8()
    assert theirs.schema.field("f32").type == pa.float32()
    f = OrcFile(p)
    mine = f.read_table()
    for c in t.column_names:
        assert eq(theirs.column(c), t.column(c)), f"pyarrow {c}"
        assert eq(mine.column(c), t.column(c)), f"own {c}"
    # VARCHAR/CHAR kinds decode through the same string path: patch the
    # Type kind in the parsed footer and re-read
    scol = f.subtypes(0)[t.column_names.index("s")]
    for k in (16, 17):
        f.types[scol][1] = [k]
        assert eq(f.read_table(columns=["s"]).column("s"), t.column("s"))
    f.close()
    p2 = str(tmp_path / "kinds_pa.orc")  # conforming writer direction
    po.write_table(t, p2)
    own2 = OrcFile(p2).read_table()
    for c in t.column_names:
        assert eq(own2.column(c), t.column(c)), f"3p {c}"
