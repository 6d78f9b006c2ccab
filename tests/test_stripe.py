"""Stripe container round-trips over every supported Arrow type, nulls, lists.

Analog of the reference's column-level + end-to-end round-trip layers
(ColumnTypes/*Column_Test.cs, RoundTrip_Test.cs — SURVEY.md §5 layers 4-5),
re-expressed as Arrow-table round-trips.
"""

import dataclasses

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from apacheorcdotnet_ray.stripe import EncodeConfig, decode_stripe, encode_stripe, read_footer
from apacheorcdotnet_ray.stripe.framing import compress, decompress


def roundtrip_table(table: pa.Table, config: EncodeConfig | None = None) -> pa.Table:
    buf, footer = encode_stripe(table, config)
    out = decode_stripe(buf)
    assert out.num_rows == table.num_rows
    assert out.schema == table.schema
    assert out.equals(table), f"mismatch:\n{out.to_pydict()}\nvs\n{table.to_pydict()}"
    return out


def test_framing_roundtrip():
    rng = np.random.default_rng(0)
    for data in (b"", b"abc", b"a" * 1_000_000, rng.bytes(700_000)):
        assert decompress(compress(data)) == data


def test_int_columns():
    rng = np.random.default_rng(1)
    t = pa.table({
        "i_random": pa.array(rng.integers(0, 2**31, 10000), type=pa.int64()),
        "i_range": pa.array(rng.integers(10_000_000, 10_001_000, 10000), type=pa.int64()),
        "i_incr": pa.array(np.arange(10000), type=pa.int64()),
        "i_step": pa.array(np.arange(10000) // 1000, type=pa.int32()),
        "i_small": pa.array(rng.integers(-100, 100, 10000), type=pa.int16()),
    })
    roundtrip_table(t)


def test_nullable_ints_and_allnull():
    vals = [1, None, 3, None, 5] * 100
    t = pa.table({
        "x": pa.array(vals, type=pa.int64()),
        "allnull": pa.array([None] * 500, type=pa.int32()),
    })
    out = roundtrip_table(t)
    assert out["x"].null_count == 200


def test_floats_bools_timestamps():
    rng = np.random.default_rng(2)
    n = 5000
    t = pa.table({
        "d": pa.array(rng.normal(size=n)),
        "f": pa.array(rng.normal(size=n).astype(np.float32)),
        "b": pa.array(rng.integers(0, 2, n).astype(bool)),
        "ts": pa.array((np.datetime64("2020-01-01", "us") + np.arange(n)).astype("datetime64[us]")),
        "bn": pa.array([None, True, False] * 100 + [True] * (n - 300)),
    })
    roundtrip_table(t)


def test_strings_direct_dict_nulls():
    rng = np.random.default_rng(3)
    n = 7000
    direct = ["s-" + hex(int(x)) for x in rng.integers(0, 2**48, n)]
    dict_vals = [f"cat{i % 8}" for i in range(n)]
    with_nulls = [None if i % 7 == 0 else f"v{i % 50}" for i in range(n)]
    t = pa.table({
        "s_direct": pa.array(direct),
        "s_dict": pa.array(dict_vals),
        "s_nulls": pa.array(with_nulls),
        "empty_strs": pa.array((["", "a", ""] * n)[:n]),
    })
    buf, footer = encode_stripe(t)
    cols = {c["name"]: c for c in footer["columns"]}
    assert cols["s_dict"]["encoding"] == "dict"
    roundtrip_table(t)


def test_binary_column():
    rng = np.random.default_rng(4)
    t = pa.table({"raw": pa.array([rng.bytes(int(x)) for x in rng.integers(0, 50, 500)], type=pa.binary())})
    roundtrip_table(t)


def test_tokens_list_column():
    """The flagship shape: doc_id, tokens list<int32>, n_tok, source."""
    rng = np.random.default_rng(5)
    n = 2000
    lens = rng.integers(1, 200, n)
    tokens = [rng.integers(0, 50257, ln).astype(np.int32) for ln in lens]
    t = pa.table({
        "doc_id": pa.array([f"web-{i:012d}" for i in range(n)]),
        "tokens": pa.array([x.tolist() for x in tokens], type=pa.list_(pa.int32())),
        "n_tok": pa.array(lens, type=pa.int32()),
        "source": pa.array(["web"] * (n // 2) + ["code"] * (n - n // 2)),
    })
    out = roundtrip_table(t)
    # per-row invariant: token-array equality keyed by doc_id
    assert out["tokens"].to_pylist() == t["tokens"].to_pylist()


def test_list_with_null_rows():
    t = pa.table({
        "lst": pa.array([[1, 2], None, [], [3]] * 50, type=pa.list_(pa.int64())),
    })
    roundtrip_table(t)


def test_embeddings_list_float():
    rng = np.random.default_rng(6)
    t = pa.table({
        "embedding": pa.array([rng.normal(size=16).astype(np.float32).tolist() for _ in range(300)],
                              type=pa.list_(pa.float32())),
    })
    roundtrip_table(t)


def test_no_compression_config():
    t = pa.table({"x": pa.array(range(1000), type=pa.int64())})
    roundtrip_table(t, EncodeConfig(compression="none"))


def test_column_pruning():
    t = pa.table({
        "a": pa.array(range(100), type=pa.int64()),
        "b": pa.array([f"s{i}" for i in range(100)]),
    })
    buf, _ = encode_stripe(t)
    out = decode_stripe(buf, columns=["b"])
    assert out.column_names == ["b"]
    assert out["b"].to_pylist() == t["b"].to_pylist()


def test_footer_stats():
    t = pa.table({"x": pa.array([5, 1, None, 9], type=pa.int64())})
    buf, footer = encode_stripe(t, lineage={"input": "frag-0", "rows": [0, 4]})
    f2 = read_footer(buf)
    st = f2["columns"][0]["stats"]
    assert (st["min"], st["max"], st["sum"], st["null_count"]) == (1, 9, 15, 1)
    assert f2["lineage"]["input"] == "frag-0"


def test_empty_table():
    t = pa.table({"x": pa.array([], type=pa.int64()), "s": pa.array([], type=pa.string())})
    roundtrip_table(t)


def test_size_parity_floor_vs_pure_rlev2():
    """The auto-selector must never exceed the reference-equivalent encoding:
    ints always have RLEv2 competing, so DATA size ≤ pure-RLEv2 size."""
    from apacheorcdotnet_ray.codecs import rlev2

    rng = np.random.default_rng(7)
    vals = rng.integers(5_000_000_000, 5_000_100_000, 50000, dtype=np.int64)
    t = pa.table({"x": pa.array(vals)})
    buf, footer = encode_stripe(t, EncodeConfig(compression="none"))
    data_stream = [s for s in footer["streams"] if s["kind"] == "DATA"][0]
    assert data_stream["raw_length"] <= len(rlev2.encode(vals, True))


def test_int8_column_byterle():
    t = pa.table({
        "b": pa.array(np.r_[np.repeat(np.int8(7), 500), rng_ints8()], type=pa.int8()),
        "ub": pa.array(np.arange(1000) % 200, type=pa.uint8()),
    })
    enc, footer = encode_stripe(t, EncodeConfig())
    dec = decode_stripe(enc)
    assert dec.equals(t)
    assert any(s["codec"] == "byterle" for s in footer["streams"])


def rng_ints8():
    return np.random.default_rng(5).integers(-128, 128, 500).astype(np.int8)


def test_decimal_column_varint():
    import decimal
    vals = [decimal.Decimal("123.456"), decimal.Decimal("-7.890"), None,
            decimal.Decimal("0.001"), decimal.Decimal("99999.999")]
    t = pa.table({"d": pa.array(vals, type=pa.decimal128(18, 3))})
    enc, footer = encode_stripe(t, EncodeConfig())
    dec = decode_stripe(enc)
    assert dec.equals(t)
    assert any(s["codec"] == "varint" for s in footer["streams"])


def test_zstd_compression_roundtrip_and_size():
    rng = np.random.default_rng(2)
    toks = [rng.integers(0, 50257, L).astype(np.int32) for L in rng.integers(50, 300, 400)]
    offs = np.concatenate([[0], np.cumsum([len(x) for x in toks])]).astype(np.int32)
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(400)]),
        "tokens": pa.ListArray.from_arrays(
            pa.array(offs), pa.array(np.concatenate(toks), type=pa.int32())),
    })
    z_enc, _ = encode_stripe(t, EncodeConfig(compression="zlib"))
    s_enc, _ = encode_stripe(t, EncodeConfig(compression="zstd"))
    assert decode_stripe(s_enc).equals(t)
    assert len(s_enc) <= len(z_enc) * 1.01  # zstd-3 at-least-matches zlib-1


def test_adversarial_schemas():
    import pandas as pd
    cases = {
        "unicode": pa.table({"s": pa.array(["", "héllo", "日本語", None, "🎉", "a" * 10000])}),
        "date32": pa.table({"d": pa.array([0, 19000, None], type=pa.date32())}),
        "date64": pa.table({"d": pa.array([0, 10**12, None], type=pa.date64())}),
        "tz_ts": pa.table({"t": pa.array([0, 10**15, None], type=pa.timestamp("us", tz="UTC"))}),
        "uint64": pa.table({"u": pa.array([0, 2**63 - 1, 5], type=pa.uint64())}),
        "nan_inf": pa.table({"f": pa.array([1.5, float("nan"), float("inf"), None], type=pa.float32())}),
        "nested_str_list": pa.table({"ls": pa.array([["a", "b"], [], None, ["c"]],
                                                    type=pa.list_(pa.string()))}),
    }
    for name, t in cases.items():
        for comp in ("zlib", "zstd", "none"):
            buf, _ = encode_stripe(t, EncodeConfig(compression=comp))
            dec = decode_stripe(buf)
            pd.testing.assert_frame_equal(dec.to_pandas(), t.to_pandas()), (name, comp)


def test_decimal_stats_widened_conservatively():
    from decimal import Decimal

    import pyarrow.compute as _pc

    from apacheorcdotnet_ray.stripe.stats import column_stats

    # 18-digit decimals where float() rounding could land above the true min
    vals = [Decimal("123456789012345.678"), Decimal("123456789012345.679")]
    arr = pa.array(vals, type=pa.decimal128(18, 3))
    st = column_stats(arr)
    assert st["min"] <= float(vals[0])
    assert st["max"] >= float(vals[1])
    assert st["min"] < st["max"] or st["min"] <= float(vals[0])


def test_prune_incomparable_literal_no_crash():
    import datetime

    from apacheorcdotnet_ray.predicate import Term

    # timestamp stats are ISO strings, read by the column's type
    ts = pa.timestamp("us")
    stats = {"min": "2024-01-01 00:00:00", "max": "2024-06-01 00:00:00"}
    assert Term("t", ">", datetime.datetime(2024, 3, 1), ts).may_match(stats)
    # an int is the µs-epoch value (1970) the exact filter compares with
    assert not Term("t", "==", 12345, ts).may_match(stats)
    # comparable ISO-string literal still prunes
    assert not Term("t", ">", "2024-07-01 00:00:00", ts).may_match(stats)


def test_struct_column_roundtrip():
    # recursive field streams under dotted paths (reference StructWriter.cs:33-41)
    t = pa.table({
        "id": pa.array(np.arange(500, dtype=np.int64)),
        "rec": pa.array(
            [None if i % 5 == 0 else
             {"a": None if i % 3 == 0 else i,
              "b": f"s{i % 7}",
              "inner": {"x": float(i)}}
             for i in range(500)],
            type=pa.struct([("a", pa.int64()), ("b", pa.string()),
                            ("inner", pa.struct([("x", pa.float64())]))])),
    })
    roundtrip_table(t)
    # projection decodes only the struct's streams
    buf, _ = encode_stripe(t)
    out = decode_stripe(buf, columns=["rec"])
    assert out.column("rec").equals(t.column("rec"))


def test_decimal38_two_lane_roundtrip():
    from decimal import Decimal

    base = Decimal("1234567890123456789012345.6789012345")
    vals = [None if i % 11 == 0 else (base + i) * (1 if i % 2 else -1)
            for i in range(1000)]
    t = pa.table({"big": pa.array(vals, type=pa.decimal128(38, 10))})
    buf, footer = encode_stripe(t)
    assert footer["columns"][0]["encoding"] == "varint2"
    assert decode_stripe(buf).equals(t)


def test_row_index_stride_prunes_bytes():
    rng = np.random.default_rng(9)
    n = 40_000
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.normal(size=n)),
        "s": pa.array([f"w{int(x)}" for x in rng.integers(0, 50, n)]),
        "nul": pa.array([None if i % 7 == 0 else i for i in range(n)],
                        type=pa.int64()),
    })
    buf, footer = encode_stripe(t, EncodeConfig(row_index_stride=4000))
    assert len(footer["stride_rows"]) == 10
    assert len(footer["columns"][0]["row_index"]) == 10
    # full decode round-trips exactly
    assert decode_stripe(buf).combine_chunks().equals(t)
    # predicate decode touches only qualifying strides and decompresses
    # measurably fewer bytes than a full stripe decode
    io_part, io_full = {}, {}
    part = decode_stripe(buf, predicate=("k", ">=", 35_000), io_stats=io_part)
    decode_stripe(buf, io_stats=io_full)
    assert io_part["strides_read"] == 2 and io_part["strides_total"] == 10
    assert io_part["bytes_decompressed"] < io_full["bytes_decompressed"] / 3
    import pyarrow.compute as pc
    expect = t.filter(pc.greater_equal(t.column("k"), 35_000))
    got = part.filter(pc.greater_equal(part.column("k"), 35_000))
    assert got.combine_chunks().equals(expect.combine_chunks())


def test_row_index_stride_empty_selection():
    t = pa.table({"k": pa.array(np.arange(100, dtype=np.int64))})
    buf, _ = encode_stripe(t, EncodeConfig(row_index_stride=10))
    out = decode_stripe(buf, predicate=("k", ">", 10_000))
    assert out.num_rows == 0 and out.schema == t.schema


def test_timestamp_two_stream_orc_layout():
    """ORC-layout timestamps: seconds-since-2015 DATA + scaled-nanos
    SECONDARY (TimestampWriter.cs:111-161), exact for pre-2015 values too."""
    import datetime

    vals = [
        datetime.datetime(2014, 12, 31, 23, 59, 59, 500_000),  # pre-epoch
        datetime.datetime(2015, 1, 1),
        datetime.datetime(2020, 6, 1, 12, 34, 56, 789_123),
        None,
        datetime.datetime(1969, 12, 31, 23, 59, 59, 1),        # pre-unix
        datetime.datetime(2024, 1, 1, 0, 0, 0, 100_000),       # trailing zeros
    ]
    for unit in ("us", "ms", "s"):
        conv = [None if v is None else
                (v.replace(microsecond=(v.microsecond // 1000) * 1000)
                 if unit == "ms" else v.replace(microsecond=0) if unit == "s" else v)
                for v in vals]
        t = pa.table({"ts": pa.array(conv, type=pa.timestamp(unit))})
        buf, footer = encode_stripe(t)
        assert footer["columns"][0]["encoding"] == "timestamp2"
        kinds = {s["kind"] for s in footer["streams"]}
        assert "SECONDARY" in kinds and "DATA" in kinds
        assert decode_stripe(buf).equals(t), unit
    # tz-aware
    t = pa.table({"ts": pa.array([1_700_000_000_123_456, None],
                                 type=pa.int64()).cast(pa.timestamp("us", tz="UTC"))})
    buf, _ = encode_stripe(t)
    assert decode_stripe(buf).equals(t)


def test_orc_nanos_codec_vectors():
    from apacheorcdotnet_ray.stripe.columns import _decode_orc_nanos, _encode_orc_nanos

    nanos = np.array([0, 1, 100, 1000, 123_456_789, 500_000_000,
                      100_000_000, 999_999_999, 10_000], dtype=np.int64)
    enc = _encode_orc_nanos(nanos)
    # reference semantics: 0 -> scale 7 scaled 0; 500ms -> scaled 5 scale 7
    assert enc[0] == 7
    assert enc[5] == (5 << 3) | 7
    assert np.array_equal(_decode_orc_nanos(enc), nanos)


def test_stream_crc_detects_corruption():
    t = pa.table({"k": pa.array(np.arange(5000, dtype=np.int64))})
    buf, footer = encode_stripe(t)
    assert decode_stripe(buf).equals(t)
    # flip one byte inside the first stream's payload
    off = footer["streams"][0]["offset"] + 3
    bad = bytearray(buf)
    bad[off] ^= 0xFF
    with pytest.raises(ValueError, match="corrupt"):
        decode_stripe(bytes(bad))


def test_sort_within_stripe_tightens_strides():
    rng = np.random.default_rng(21)
    n = 40_000
    k = rng.permutation(n).astype(np.int64)  # shuffled → every stride spans full range
    t = pa.table({"k": pa.array(k), "v": pa.array(rng.normal(size=n))})
    cfg_plain = EncodeConfig(row_index_stride=4000)
    cfg_sorted = EncodeConfig(row_index_stride=4000, sort_within_stripe="k")
    buf_p, _ = encode_stripe(t, cfg_plain)
    buf_s, _ = encode_stripe(t, cfg_sorted)
    io_p, io_s = {}, {}
    import pyarrow.compute as pc

    pred = ("k", ">=", 36_000)
    got_p = decode_stripe(buf_p, predicate=pred, io_stats=io_p)
    got_s = decode_stripe(buf_s, predicate=pred, io_stats=io_s)
    assert io_p["strides_read"] == 10       # shuffled: nothing prunable
    assert io_s["strides_read"] == 1        # sorted: one stride qualifies
    exp = set(k[k >= 36_000].tolist())
    for got in (got_p, got_s):
        sel = got.filter(pc.greater_equal(got.column("k"), 36_000))
        assert set(sel.column("k").to_pylist()) == exp


def test_per_column_config_overrides():
    rng = np.random.default_rng(31)
    # low-cardinality string col: dict normally wins; override forces direct
    t = pa.table({
        "s": pa.array([f"v{int(x)}" for x in rng.integers(0, 4, 5000)]),
        "i": pa.array(np.repeat(np.arange(50, dtype=np.int64), 100)),
    })
    buf_d, f_d = encode_stripe(t)
    assert f_d["columns"][0]["encoding"] == "dict"
    cfg = EncodeConfig(column_overrides={
        "s": {"string_codecs": ("direct",), "dictionary_threshold": 0.0},
        "i": {"int_codecs": ("rlev2",)},
    })
    buf_o, f_o = encode_stripe(t, cfg)
    assert f_o["columns"][0]["encoding"] == "direct"
    assert f_o["columns"][1]["encoding"] == "rlev2"
    assert decode_stripe(buf_o).equals(t)


def test_map_dictionary_fixedsizelist_roundtrip():
    rng = np.random.default_rng(41)
    n = 2000
    maps = [None if i % 11 == 0 else
            {f"k{j}": int(rng.integers(0, 100)) for j in range(i % 4)}
            for i in range(n)]
    cats = pa.array([f"c{int(x)}" for x in rng.integers(0, 6, n)]).dictionary_encode()
    vecs = pa.FixedSizeListArray.from_arrays(
        pa.array(rng.normal(size=n * 8).astype(np.float32)), 8)
    t = pa.table({
        "m": pa.array(maps, type=pa.map_(pa.string(), pa.int64())),
        "cat": cats,
        "vec": vecs,
    })
    buf, footer = encode_stripe(t)
    encs = {c["name"]: c["encoding"] for c in footer["columns"]}
    assert encs["m"].startswith("map[")
    assert encs["cat"].startswith("cat[")
    assert encs["vec"].startswith("flist[")
    out = decode_stripe(buf)
    assert out.equals(t), out.schema
    # projection still prunes
    assert decode_stripe(buf, columns=["cat"]).column("cat").equals(t.column("cat"))


def test_late_materialization_skips_nonmatching_decode():
    rng = np.random.default_rng(51)
    n = 30_000
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "payload": pa.array([rng.bytes(100).hex() for _ in range(n)]),  # expensive
    })
    buf, _ = encode_stripe(t)
    io_none, io_all = {}, {}
    out = decode_stripe(buf, predicate=("k", ">", 10**9), io_stats=io_none)
    assert out.num_rows == 0
    decode_stripe(buf, io_stats=io_all)
    # only the predicate column was decompressed on the no-match path
    assert io_none["bytes_decompressed"] < io_all["bytes_decompressed"] / 10
    # matching path returns pre-filtered rows
    part = decode_stripe(buf, predicate=("k", "<", 100))
    assert part.num_rows == 100
    assert part.column("k").to_pylist() == list(range(100))
    # an int literal against a string column compares as the string "5"
    some = decode_stripe(buf, predicate=("payload", "<", 5))
    assert some.equals(t.filter(pc.less(t["payload"], "5")))


def test_bloom_filter_prunes_point_lookups(tmp_path):
    from apacheorcdotnet_ray.sources.stripes import prune_stripes
    from apacheorcdotnet_ray.stripe.container import (bloom_may_contain,
                                                      build_bloom)

    rng = np.random.default_rng(71)
    # unclustered keys: every stripe's [min, max] overlaps the whole range,
    # so min/max pruning keeps everything; the bloom must do the work
    all_keys = rng.permutation(100_000)[:20_000].astype(np.int64)
    stripes = np.array_split(all_keys, 4)
    d = tmp_path / "bloomed"
    d.mkdir()
    cfg = EncodeConfig(bloom_columns=("k",))
    for i, ks in enumerate(stripes):
        t = pa.table({"k": pa.array(ks), "v": pa.array(ks * 2)})
        buf, footer = encode_stripe(t, cfg)
        assert "bloom" in footer["columns"][0]
        (d / f"s{i}.oray").write_bytes(buf)

    paths = sorted(str(p) for p in d.glob("*.oray"))
    target = int(stripes[2][7])
    kept = prune_stripes(paths, ("k", "==", target))
    assert str(d / "s2.oray") in kept
    assert len(kept) <= 2, f"bloom should prune most stripes, kept {len(kept)}"
    # absent key: usually everything pruned (0.1% fp per stripe)
    absent = 10_000_000
    kept_absent = prune_stripes(paths, ("k", "==", absent))
    assert len(kept_absent) <= 1
    # direct unit check
    b = build_bloom(pa.array([1, 2, 3], type=pa.int64()))
    assert bloom_may_contain(b, 2)
    assert not bloom_may_contain(b, 999_999)


def test_bloom_probe_type_mismatch_no_false_negative():
    from apacheorcdotnet_ray.predicate import Term
    from apacheorcdotnet_ray.stripe.container import (bloom_may_contain,
                                                      build_bloom)

    def probe(lit, t):
        return Term("c", "==", lit, t).probe

    b_int = build_bloom(pa.array([577, 1000], type=pa.int64()))
    # float literal against int64 column: must cast-and-match, never prune
    assert bloom_may_contain(b_int, probe(577.0, pa.int64()))
    assert not bloom_may_contain(b_int, probe(9999, pa.int64()))
    assert probe(577.9, pa.int64()) is None  # lossy → no probe, keep
    assert probe(0.1, pa.float32()) is None  # 0.1 has no exact float32
    b_f32 = build_bloom(pa.array([1.5, 2.5], type=pa.float32()))
    assert bloom_may_contain(b_f32, probe(1.5, pa.float32()))


def test_merge_stats_mixed_timestamp_forms():
    from apacheorcdotnet_ray.stripe.stats import merge_stats

    a = {"count": 2, "null_count": 0, "min": "2020-01-01 00:00:00",
         "max": "2020-06-01 00:00:00"}
    b = {"count": 2, "null_count": 0, "min": 900000000000000000,
         "max": 990000000000000000}
    m = merge_stats(a, b)  # must not raise; bounds dropped conservatively
    assert m["count"] == 4
    assert "min" not in m and "max" not in m


def test_wide_16_column_nullable_roundtrip():
    """Reference RoundTrip_Test.cs round-trips a 16-property object with
    nullables end-to-end; same shape here at 100k rows across every type
    family, 25% nulls on the nullable half."""
    import datetime
    from decimal import Decimal

    rng = np.random.default_rng(81)
    n = 100_000
    mask = rng.random(n) < 0.25

    def nullify(vals):
        return [None if m else v for v, m in zip(vals, mask)]

    t = pa.table({
        "c_int8": pa.array(rng.integers(-128, 128, n).astype(np.int8)),
        "c_int16": pa.array(rng.integers(-2**15, 2**15, n).astype(np.int16)),
        "c_int32": pa.array(rng.integers(-2**31, 2**31, n).astype(np.int32)),
        "c_int64": pa.array(rng.integers(-2**62, 2**62, n)),
        "c_f32": pa.array(rng.normal(size=n).astype(np.float32)),
        "c_f64": pa.array(rng.normal(size=n)),
        "c_bool": pa.array(rng.integers(0, 2, n).astype(bool)),
        "c_str": pa.array([f"s{int(x)}" for x in rng.integers(0, 10**9, n)]),
        "c_nint": pa.array(nullify(rng.integers(0, 10**6, n).tolist()), type=pa.int64()),
        "c_nf64": pa.array(nullify(rng.normal(size=n).tolist()), type=pa.float64()),
        "c_nstr": pa.array(nullify([f"v{i % 100}" for i in range(n)])),
        "c_nbool": pa.array(nullify(rng.integers(0, 2, n).astype(bool).tolist())),
        "c_ts": pa.array((np.datetime64("2015-06-01", "us")
                          + rng.integers(0, 10**12, n)).astype("datetime64[us]")),
        "c_date": pa.array([datetime.date(2020, 1, 1)
                            + datetime.timedelta(days=int(d))
                            for d in rng.integers(0, 3000, n)], type=pa.date32()),
        "c_dec": pa.array(nullify([Decimal(f"{int(x)}.{int(y):02d}")
                                   for x, y in zip(rng.integers(0, 10**6, n),
                                                   rng.integers(0, 100, n))]),
                          type=pa.decimal128(18, 2)),
        "c_list": pa.array([rng.integers(0, 100, int(ln)).tolist()
                            for ln in rng.integers(0, 5, n)],
                           type=pa.list_(pa.int64())),
    })
    assert len(t.column_names) == 16
    roundtrip_table(t)


def test_dict_predicate_mask_fast_path():
    """String equality on a dict-encoded column is evaluated against the
    dictionary (io_stats dict_masked_cols), and matches the decode+filter
    answer exactly — including null rows and strided layouts."""
    import numpy as np

    rng = np.random.default_rng(8)
    n = 25_000
    cats = np.array([f"src{i}" for i in range(6)])
    vals = cats[rng.integers(0, 6, n)].astype(object)
    vals[rng.random(n) < 0.03] = None  # nulls → PRESENT stream
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "source": pa.array(vals, type=pa.string()),
    })
    for cfg in (EncodeConfig(), EncodeConfig(row_index_stride=4096)):
        buf, _ = encode_stripe(t, cfg)
        st = {}
        out = decode_stripe(buf, predicate=("source", "==", "src3"), io_stats=st)
        assert st.get("dict_masked_cols") == 1, st
        want = t.filter(pa.compute.equal(t["source"], "src3"))
        assert out["k"].to_pylist() == want["k"].to_pylist()
        # range op works on the sorted dictionary too
        st2 = {}
        out2 = decode_stripe(buf, predicate=("source", ">=", "src4"), io_stats=st2)
        assert st2.get("dict_masked_cols") == 1
        want2 = t.filter(pa.compute.greater_equal(t["source"], "src4"))
        assert out2["k"].to_pylist() == want2["k"].to_pylist()
    # high-cardinality (direct-encoded) column falls back, no counter
    t3 = pa.table({
        "k": pa.array(np.arange(2000, dtype=np.int64)),
        "u": pa.array([f"unique-{i:08x}" for i in range(2000)]),
    })
    buf3, _ = encode_stripe(t3)
    st3 = {}
    out3 = decode_stripe(buf3, predicate=("u", "==", "unique-000000ff"), io_stats=st3)
    assert "dict_masked_cols" not in st3
    assert out3["k"].to_pylist() == [255]


def test_selector_reuses_whole_stream_trials(monkeypatch):
    """When the selector's sample is the whole stream, the winning trial is
    the stream: each codec runs once per stream, with the same bytes."""
    from apacheorcdotnet_ray.codecs import fsst, rlev2
    from apacheorcdotnet_ray.stripe import columns

    calls = {"rlev2": 0, "fsst": 0}

    def counting(mod, fn, key):
        orig = getattr(mod, fn)

        def wrapped(*a, **kw):
            calls[key] += 1
            return orig(*a, **kw)
        monkeypatch.setattr(mod, fn, wrapped)

    counting(rlev2, "encode", "rlev2")
    counting(fsst, "encode_chunk", "fsst")
    vals = np.arange(1000, dtype=np.int64) * 7
    config = EncodeConfig(int_codecs=("rlev2",))
    assert columns._encode_int_data(vals, config) == ("rlev2", rlev2.encode(vals, True))
    assert calls["rlev2"] == 2  # one trial, one for the expected value above

    rng = np.random.default_rng(5)
    words = np.asarray(["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), rng.integers(2, 9)))
                        for _ in range(21)], dtype=object)
    text = [" ".join(words[rng.integers(0, len(words), 20)]) for _ in range(200)]
    enc, streams, _ = columns.encode_column("s", pa.array(text),
                                            EncodeConfig(dictionary_threshold=0.0))
    assert enc == "fsst"
    assert calls["fsst"] == 1
    data = "".join(text).encode()
    assert streams[-1].data == fsst.encode_chunk(data, table=fsst.train(data))
    roundtrip_table(pa.table({"s": text}), EncodeConfig(dictionary_threshold=0.0))


def _knob_table() -> pa.Table:
    rng = np.random.default_rng(7)
    n = 2000
    words = np.asarray(["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), rng.integers(2, 9)))
                        for _ in range(21)], dtype=object)
    return pa.table({
        "k": pa.array(rng.permutation(n), pa.int64()),
        "i": pa.array(rng.choice([10**9, 3 * 10**9, 7 * 10**9], n), pa.int64()),
        "s": pa.array([f"v{int(x)}" for x in rng.integers(0, 700, n)]),
        "doc": pa.array([" ".join(words[rng.integers(0, len(words), 20)]) for _ in range(n)]),
        "f": pa.array(rng.uniform(1, 2, n).astype(np.float32)),
        "tok": pa.array([list(range(int(m))) for m in rng.integers(0, 20, n)],
                        pa.list_(pa.int32())),
    })


# one non-default value per EncodeConfig field, each of which must change
# what _knob_table encodes to
_KNOB_CASES = {
    "compression": "zstd",
    "dictionary_threshold": 0.1,                 # s: dict → direct
    "int_codecs": ("rlev2",),                    # i: intdict → rlev2
    "string_codecs": ("direct", "dict"),         # doc: fsst → direct
    "float_codecs": ("raw",),                    # f: bss → raw
    "row_index_stride": 500,
    "bloom_columns": ("k",),
    "sort_within_stripe": "k",
    "target_stripe_values": 10_000,              # more stripes per split
    "column_overrides": {"i": {"int_codecs": ("rlev2",)}},
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EncodeConfig)])
def test_every_encode_config_field_changes_output(name):
    """A setting that changes nothing is not a setting: every field's
    non-default value changes the stripe bytes or footer of one fixed
    table (``target_stripe_values``: the stripe split of it)."""
    if name not in _KNOB_CASES:
        pytest.fail(f"EncodeConfig.{name} has no case: give it one, or remove it")
    from apacheorcdotnet_ray.pipelines.encode import split_for_stripes

    t = _knob_table()
    base, knob = EncodeConfig(), EncodeConfig(**{name: _KNOB_CASES[name]})
    assert getattr(base, name) != getattr(knob, name)
    if name == "target_stripe_values":
        assert len(split_for_stripes(t, knob)) > len(split_for_stripes(t, base))
        return
    buf0, footer0 = encode_stripe(t, base)
    buf1, footer1 = encode_stripe(t, knob)
    assert buf1 != buf0 or footer1 != footer0
    assert decode_stripe(buf1).equals(t if name != "sort_within_stripe" else t.sort_by("k"))


@pytest.mark.parametrize("removed", [
    "magic", "enable_fsst", "compression_block_size", "zlib_level", "zstd_level",
    "aligned_bit_widths", "selector_sample_size", "intdict_max_card_ratio",
    "target_stripe_rows"])
def test_removed_encode_config_fields_raise(removed):
    with pytest.raises(TypeError):
        EncodeConfig(**{removed: None})
    cfg = EncodeConfig(column_overrides={"k": {removed: None}})
    with pytest.raises(TypeError):
        encode_stripe(pa.table({"k": [1, 2, 3]}), cfg)


@pytest.mark.parametrize("arr,want", [
    (pa.array([2**62] * 3), None),                                 # wraps to -2^62
    (pa.array([2**63 + 5, 2**63 + 7], pa.uint64()), None),         # wraps to 12
    (pa.array([-(2**62), -(2**62), 2**62, None, 5]), -(2**62) + 5),  # fits
    (pa.array([2**63 - 1, -(2**63)]), -1),
    (pa.array([2**40, 3], pa.uint64()), 2**40 + 3),
])
def test_integer_sum_is_exact_or_none(arr, want):
    """A 64-bit sum that leaves int64 is None in the footer stats and in
    ORC's IntegerStatistics, never the wrapped value."""
    from apacheorcdotnet_ray.codecs.bitpack import zigzag_decode_scalar
    from apacheorcdotnet_ray.sources.orc_reader import pb_parse
    from apacheorcdotnet_ray.sources.orc_writer import _stats_msg
    from apacheorcdotnet_ray.stripe.stats import column_stats

    assert column_stats(arr)["sum"] == want
    ist = pb_parse(pb_parse(_stats_msg(arr))[2][0])
    assert 1 in ist and 2 in ist
    if want is None:
        assert 3 not in ist
    else:
        assert zigzag_decode_scalar(ist[3][0]) == want


def test_int_sum_matches_python_sum():
    from apacheorcdotnet_ray.stripe.stats import int_sum

    rng = np.random.default_rng(11)
    for t, lo, hi in ((pa.int64(), -(2**63), 2**63 - 1), (pa.uint64(), 0, 2**64 - 1)):
        for scale in (2**40, 2**61, 2**63):
            vals = rng.integers(max(lo, -scale), min(hi, scale), 500, dtype=t.to_pandas_dtype())
            arr = pa.array(vals, t)
            py = sum(int(v) for v in vals)
            want = py if -(2**63) <= py < 2**63 else None
            assert int_sum(arr, int(vals.min()), int(vals.max())) == want, (t, scale)


def test_merged_sum_overflow_is_none():
    from apacheorcdotnet_ray.stripe.stats import column_stats, merge_stats

    half = column_stats(pa.array([2**62, 2**62 - 1]))
    assert half["sum"] == 2**63 - 1
    assert merge_stats(half, column_stats(pa.array([1])))["sum"] is None
    assert merge_stats(half, column_stats(pa.array([-1])))["sum"] == 2**63 - 2
