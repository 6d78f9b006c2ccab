"""ORC row-group (ROW_INDEX seek) decode: predicate reads decode only the
row groups whose index stats/blooms may match, on our own files AND on
foreign liborc files whose RLE runs cross group boundaries (the seek lands
on a run header and skips into it)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.orc as pa_orc
import pytest

from apacheorcdotnet_ray.codecs import rlev2
from apacheorcdotnet_ray.sources.orc_reader import OrcFile
from apacheorcdotnet_ray.sources.orc_writer import write_orc
from apacheorcdotnet_ray.stripe import EncodeConfig, encode_stripe

DEMO = "/root/reference/test/ApacheOrcDotNet.Test/Data/demo-12-zlib.orc"


def _table(n=50_000):
    return pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64) * 3),
        "name": pa.array([f"row-{k:06d}" for k in range(n)]),       # direct
        "cat": pa.array([f"cat-{k % 50:03d}" for k in range(n)]),   # dict
        "score": pa.array(np.linspace(0, 1, n)),
        "flag": pa.array([(k // 7) % 2 == 0 for k in range(n)]),
        "d": pa.array(np.arange(n) % 1000, type=pa.int32())
        .cast(pa.date32()),
    })


def test_rlev2_seek_overshoot():
    vals = np.arange(5000, dtype=np.int64)
    enc = rlev2.encode(vals, signed=True)
    got, _ = rlev2.decode_from(enc, 0, True, expected_count=100,
                               allow_overshoot=True)
    assert len(got) >= 100 and np.array_equal(got[:100], vals[:100])
    with pytest.raises(ValueError):
        rlev2.decode_from(enc, 0, True, expected_count=100)


def test_own_file_group_decode(tmp_path):
    t = _table()
    p = str(tmp_path / "rg.orc")
    write_orc(t, p, compression="zlib", stripe_rows=20_000,
              row_index_stride=2_000, bloom_columns=["id"])
    f = OrcFile(p)
    full = f.read_table()
    assert full.equals(t)
    # equality: one row group decodes (row 10_000 → stripe 0, group 5)
    res = f.read_table(predicate=("id", "==", 30_000))
    assert res.num_rows == 2_000
    assert res.equals(full.slice(10_000, 2_000))
    # range: leading two groups
    res = f.read_table(predicate=("id", "<", 3 * 2_500))
    assert res.num_rows == 4_000
    assert res.equals(full.slice(0, 4_000))
    # upper range: trailing groups of the last stripe
    res = f.read_table(predicate=("id", ">=", 3 * 49_000))
    assert res.num_rows == 2_000
    assert res.equals(full.slice(48_000, 2_000))
    f.close()


def test_own_file_group_decode_nulls_ts_decimal(tmp_path):
    n = 20_000
    ids = pa.array([None if k % 11 == 0 else k * 5 for k in range(n)],
                   type=pa.int64())
    ts = pa.array([1_500_000_000_000_000 + k * 1_000_003 for k in range(n)]
                  ).cast(pa.timestamp("us"))
    from decimal import Decimal

    dec = pa.array([Decimal(k * 7).scaleb(-2) for k in range(n)],
                   type=pa.decimal128(12, 2))
    s = pa.array([None if k % 13 == 0 else f"v{k:05d}" for k in range(n)])
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                  "id": ids, "ts": ts, "dec": dec, "s": s})
    p = str(tmp_path / "rg_null.orc")
    write_orc(t, p, compression="zlib", stripe_rows=10_000,
              row_index_stride=1_000)
    f = OrcFile(p)
    full = f.read_table()
    assert full.equals(t)
    res = f.read_table(predicate=("k", "==", 7_500))
    assert res.num_rows == 1_000
    assert res.equals(full.slice(7_000, 1_000))
    f.close()


def test_foreign_liborc_group_decode(tmp_path):
    """liborc does NOT restart RLE runs at row-group bounds — this pins
    the mid-run seek path (positions point at a run header + skip)."""
    t = _table()
    p = str(tmp_path / "rg_foreign.orc")
    pa_orc.write_table(t, p, compression="zlib", stripe_size=1 << 22,
                       row_index_stride=2_000, bloom_filter_columns=[1])
    f = OrcFile(p)
    full = f.read_table()
    res = f.read_table(predicate=("id", "==", 30_000))
    assert res.num_rows < f.number_of_rows
    assert res.filter(pc.equal(res["id"], 30_000)).num_rows == 1
    idx = pc.index(full["id"], 30_000).as_py()
    assert res.equals(full.slice(idx - idx % 2_000, res.num_rows))
    f.close()


def test_foreign_liborc_group_decode_nulls(tmp_path):
    n = 20_000
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array([None if j % 9 == 0 else j * 2 for j in range(n)],
                      type=pa.int64()),
        "s": pa.array([None if j % 7 == 0 else f"x{j:05d}"
                       for j in range(n)]),
    })
    p = str(tmp_path / "rg_fnull.orc")
    pa_orc.write_table(t, p, compression="zlib", stripe_size=1 << 22,
                       row_index_stride=1_000)
    f = OrcFile(p)
    full = f.read_table()
    assert full.equals(t)
    res = f.read_table(predicate=("k", "==", 7_500))
    assert res.num_rows < n
    idx = pc.index(full["k"], 7_500).as_py()
    assert res.equals(full.slice(idx - idx % 1_000, res.num_rows))
    f.close()


def test_nested_column_falls_back_consistently(tmp_path):
    n = 6_000
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "lst": pa.array([[k, k + 1] for k in range(n)]),
    })
    p = str(tmp_path / "rg_nested.orc")
    write_orc(t, p, stripe_rows=3_000, row_index_stride=1_000)
    f = OrcFile(p)
    # a LIST column can't seek-decode → whole matching STRIPE decodes,
    # but both columns must stay row-aligned
    res = f.read_table(predicate=("k", "==", 10))
    assert res.num_rows == 3_000
    assert res.column("k").length() == res.column("lst").length()
    assert res.filter(pc.equal(res["k"], 10))["lst"][0].as_py() == [10, 11]
    f.close()


def test_group_decode_randomized_equivalence(tmp_path):
    """Property check: for random scalar schemas, null densities and
    predicates, (group-pruned read + exact filter) ≡ (full read + exact
    filter), against both our writer and liborc."""
    rng = np.random.default_rng(42)
    n = 12_000
    for trial in range(4):
        null_every = int(rng.integers(5, 30))
        t = pa.table({
            "k": pa.array(rng.permutation(n).astype(np.int64)
                          if trial % 2 else np.arange(n, dtype=np.int64)),
            "v": pa.array([None if j % null_every == 0
                           else int(rng.integers(0, 500))
                           for j in range(n)], type=pa.int64()),
            "s": pa.array([f"t{int(x):04d}" for x in
                           rng.integers(0, 300, n)]),     # dict-encodable
            "f": pa.array(rng.standard_normal(n)),
        })
        p = str(tmp_path / f"rnd{trial}.orc")
        if trial % 2:
            pa_orc.write_table(t, p, compression="zlib",
                               stripe_size=1 << 20, row_index_stride=1_000)
        else:
            write_orc(t, p, compression="zlib", stripe_rows=4_000,
                      row_index_stride=1_000, bloom_columns=["k", "s"])
        f = OrcFile(p)
        full = f.read_table()
        assert full.equals(t)
        for pred in [("k", "==", int(rng.integers(0, n))),
                     ("k", "<", int(rng.integers(1, n))),
                     ("v", "==", int(rng.integers(0, 500))),
                     ("s", "==", f"t{int(rng.integers(0, 300)):04d}"),
                     ("k", ">=", int(rng.integers(0, n)))]:
            col, op, lit = pred
            got = f.read_table(predicate=pred)
            kernel = {"==": pc.equal, "<": pc.less,
                      ">=": pc.greater_equal}[op]
            mask_g = kernel(got[col], lit)
            mask_f = kernel(full[col], lit)
            exact_g = got.filter(pc.fill_null(mask_g, False))
            exact_f = full.filter(pc.fill_null(mask_f, False))
            # pruned read must keep exactly the matching rows (order is
            # preserved: groups decode ascending)
            assert exact_g.equals(exact_f), (trial, pred)
        f.close()


def test_conjunction_predicates(tmp_path):
    """A list of (col, op, lit) terms ANDs together at every level: file
    stats, stripe stats/blooms, row-group stats, exact filter."""
    from apacheorcdotnet_ray.sources.orc_reader import read_orc_files

    n = 20_000
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "grp": pa.array([f"g{j % 4}" for j in range(n)]),
        "x": pa.array(np.arange(n, dtype=np.float64) * 0.5),
    })
    p = str(tmp_path / "conj.orc")
    write_orc(t, p, stripe_rows=5_000, row_index_stride=1_000,
              bloom_columns=["grp"])
    f = OrcFile(p)
    # range + equality: the range narrows to 2 row groups, both decoded
    res = f.read_table(predicate=[("k", ">=", 6_000), ("k", "<", 8_000)])
    assert res.num_rows == 2_000
    full = f.read_table()
    assert res.equals(full.slice(6_000, 2_000))
    f.close()

    # end-to-end through the Ray source with exact filtering on all terms
    got = read_orc_files([p], predicate=[("k", ">=", 6_000),
                                         ("k", "<", 8_000),
                                         ("grp", "==", "g1")]).take_all()
    ks = sorted(r["k"] for r in got)
    assert ks == [k for k in range(6_000, 8_000) if k % 4 == 1]
    assert all(r["grp"] == "g1" for r in got)


def test_read_orc_files_projection_excludes_predicate_column(tmp_path):
    """The Ray source reads the predicate column for the exact filter
    even when the caller's projection drops it, then removes it."""
    from apacheorcdotnet_ray.sources.orc_reader import read_orc_files

    t = pa.table({"k": pa.array(np.arange(10_000, dtype=np.int64)),
                  "v": pa.array([f"s{j}" for j in range(10_000)])})
    write_orc(t, str(tmp_path / "a.orc"), stripe_rows=5_000,
              row_index_stride=1_000)
    res = read_orc_files(str(tmp_path), columns=["v"],
                         predicate=("k", "==", 4_321)).take_all()
    assert res == [{"v": "s4321"}]


def test_read_orc_files_literal_of_another_type(tmp_path):
    """A literal that does not compare with a column's stats (an int
    against a string column) prunes nothing, and no literal of another
    type (that, or a float against an integer column) is bloom-probed;
    the exact filter compares it in the column's type."""
    from apacheorcdotnet_ray.sources.orc_reader import read_orc_files

    n = 10_000
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                  "s": pa.array([str(j % 97) for j in range(n)])})
    write_orc(t, str(tmp_path / "s.orc"), stripe_rows=5_000,
              row_index_stride=1_000, bloom_columns=["s", "k"])
    for pred, want in ((("s", "==", 7), t.filter(pc.equal(t["s"], "7"))),
                       (("k", "==", 7.0), t.slice(7, 1))):
        got = read_orc_files(str(tmp_path), predicate=pred).take_all()
        assert want.num_rows > 0
        assert pa.Table.from_pylist(got, schema=t.schema).sort_by("k").equals(want)


_DRIFT_X = pa.table({"x": pa.array(np.arange(100, dtype=np.int64))})
_DRIFT_S = pa.table({"s": pa.array([str(j) for j in range(100)])})


@pytest.mark.parametrize("reader", ["read_stripes", "read_orc_files"])
@pytest.mark.parametrize("table,pred,want", [
    (pa.table({"s": ["2020-01-01 23:00", "2020-01-01T01:00"]}),
     ("s", "==", "2020-01-01T01:00"), ["2020-01-01T01:00"]),
    (_DRIFT_X, ("x", "!=", 5), [j for j in range(100) if j != 5]),
    (_DRIFT_X, ("x", "=", 5), ValueError),        # no "=" alias
    (_DRIFT_X, ("x", "==", "7"), [7]),
    (_DRIFT_S, ("s", "==", 7), ["7"]),
    (_DRIFT_X, ("x", "==", "abc"), ValueError),   # uncastable literal
], ids=["iso_string", "ne", "eq_alias", "str_literal", "int_literal",
        "uncastable"])
def test_both_readers_same_answer(ray_session, tmp_path, reader, table,
                                  pred, want):
    """The `.oray` and ORC readers give the same rows for the same
    predicate, and refuse the same predicates with ValueError from the
    call itself (in the driver, before any task runs)."""
    from apacheorcdotnet_ray.sources.orc_reader import read_orc_files
    from apacheorcdotnet_ray.sources.stripes import read_stripes

    if reader == "read_stripes":
        buf, _ = encode_stripe(table, EncodeConfig(row_index_stride=50))
        (tmp_path / "t.oray").write_bytes(buf)
        read = read_stripes
    else:
        write_orc(table, str(tmp_path / "t.orc"), row_index_stride=50,
                  bloom_columns=table.column_names)
        read = read_orc_files
    col = table.column_names[0]
    if want is ValueError:
        with pytest.raises(ValueError):
            read(str(tmp_path), predicate=pred)
        return
    got = sorted(r[col] for r in read(str(tmp_path), predicate=pred).take_all())
    assert got == sorted(want)


@pytest.mark.skipif(not os.path.exists(DEMO), reason="reference conformance file not present")
def test_hive_demo_file_predicate_still_exact():
    """demo-12-zlib.orc uses pre-Hive-0.12 (RLEv1) encodings — the seek
    decoder refuses them and the read falls back, so predicate results
    stay correct (superset + exact filter happens in read_orc_files)."""
    f = OrcFile(DEMO)
    full = f.read_table(columns=["_col0"])
    res = f.read_table(columns=["_col0"], predicate=("_col0", "==", 500))
    assert res.num_rows <= full.num_rows
    assert res.filter(pc.equal(res["_col0"], 500)).num_rows == \
        full.filter(pc.equal(full["_col0"], 500)).num_rows
    f.close()
