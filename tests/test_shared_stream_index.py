"""v5 shared-stream ROW_INDEX: size, seekability, and back-compat.

v5 strided stripes keep ONE physical stream per (column, kind) with
per-stride positions (raw length/count/crc; offsets are the cumsum) —
the reference's positions-in-shared-stream design
(/root/reference/src/ApacheOrcDotNet/Compression/OrcCompressedBuffer.cs:66-72)
— instead of v3/v4's independently framed per-stride segments. Pins:
the stride size cost on the token-corpus shape is ~zero, partial reads
stay byte-proportional, per-stride CRCs catch corruption on partial
reads, and a stripe of an older format version asks to be re-encoded.
"""

import json
import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from apacheorcdotnet_ray.stripe.config import EncodeConfig
from apacheorcdotnet_ray.stripe.container import (
    decode_stripe,
    encode_stripe,
    read_footer,
)


def _tokens_table(n_docs=2000, seed=0):
    rng = np.random.default_rng(seed)
    lens = rng.integers(200, 1200, n_docs)
    toks = pa.array([rng.integers(0, 50000, l).tolist() for l in lens],
                    type=pa.list_(pa.int32()))
    return pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n_docs)]),
        "tokens": toks,
        "n_tok": pa.array(lens.astype(np.int32)),
        "source": pa.array([f"src{i % 5}" for i in range(n_docs)]),
    })


def test_stride_size_cost_near_zero_on_tokens():
    t = _tokens_table()
    plain, _ = encode_stripe(t, EncodeConfig())
    strided, footer = encode_stripe(t, EncodeConfig(row_index_stride=400))
    assert footer["version"] >= 5
    # one stream entry per (col, kind), NOT per stride
    assert all("pos_len" in m for m in footer["streams"])
    assert len({(m["col"], m["kind"]) for m in footer["streams"]}) \
        == len(footer["streams"])
    # the headline invariant: row-index stripes cost <=0.1% on the token
    # corpus shape (v4's per-stride segments cost ~1.5%)
    assert len(strided) <= len(plain) * 1.001
    assert decode_stripe(strided).combine_chunks().equals(t)


def test_partial_read_bytes_proportional():
    rng = np.random.default_rng(1)
    n = 40_000
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.normal(size=n)),  # incompressible 8 B/row
    })
    buf, _ = encode_stripe(t, EncodeConfig(row_index_stride=4000))
    io_part, io_full = {}, {}
    part = decode_stripe(buf, predicate=("k", ">=", 36_000), io_stats=io_part)
    decode_stripe(buf, io_stats=io_full)
    assert part.num_rows == 4000
    assert io_part["strides_read"] == 1 and io_part["strides_total"] == 10
    # seek via positions: only blocks covering the selected stride decompress
    assert io_part["bytes_decompressed"] < io_full["bytes_decompressed"] / 3


def test_partial_read_crc_catches_corruption():
    n = 20_000
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                  "v": pa.array(np.arange(n, dtype=np.int64) * 3)})
    buf, footer = encode_stripe(t, EncodeConfig(row_index_stride=2000,
                                                compression=None))
    # flip a byte inside v's LAST stride segment (uncompressed → position
    # arithmetic is exact); a read selecting that stride must fail its crc
    m = next(m for m in footer["streams"] if m["col"] == "v")
    off = m["offset"] + sum(m["pos_len"][:-1]) + 2
    bad = bytearray(buf)
    bad[off] ^= 0xFF
    with pytest.raises(ValueError, match="crc"):
        decode_stripe(bytes(bad), predicate=("k", ">=", 18_000))
    # a read that never touches the corrupt stride succeeds
    ok = decode_stripe(bytes(bad), predicate=("k", "<", 2000))
    assert ok.num_rows == 2000


def test_older_format_version_asks_for_reencode():
    t = pa.table({"k": pa.array(np.arange(3000, dtype=np.int64))})
    buf, footer = encode_stripe(t, EncodeConfig(row_index_stride=1000))
    footer["version"] = 4
    fb = zlib.compress(json.dumps(footer).encode())
    old = buf[:footer["data_length"]] + fb + struct.pack("<I", len(fb)) \
        + b"ORAY"
    assert read_footer(old)["version"] == 4
    with pytest.raises(ValueError, match="re-encode"):
        decode_stripe(old)


def test_heterogeneous_codec_across_strides():
    # first strides dictionary-friendly, later ones high-cardinality: the
    # per-stride codec decision diverges within one shared stream and the
    # pos_codec/pos_params arrays must carry it
    n = 6000
    vals = [f"w{i % 4}" for i in range(n // 2)] \
        + [f"unique-{i}-{'x' * (i % 11)}" for i in range(n // 2)]
    t = pa.table({"s": pa.array(vals)})
    buf, footer = encode_stripe(t, EncodeConfig(row_index_stride=1000))
    assert decode_stripe(buf).combine_chunks().equals(t)
    kinds = {m["kind"] for m in footer["streams"]}
    assert any("pos_codec" in m or "pos_params" in m
               for m in footer["streams"]), kinds


def test_row_range_decode_exact_and_stride_proportional():
    t = _tokens_table(n_docs=3000)
    strided, _ = encode_stripe(t, EncodeConfig(row_index_stride=400))
    # exact slices at stride boundaries, mid-stride, and spanning strides
    for lo, hi in [(0, 400), (350, 450), (799, 1601), (2900, 3000),
                   (0, 3000), (2999, 3000)]:
        got = decode_stripe(strided, row_range=(lo, hi)).combine_chunks()
        assert got.equals(t.slice(lo, hi - lo)), (lo, hi)
    # clamping and empty ranges
    assert decode_stripe(strided, row_range=(2950, 99999)).num_rows == 50
    assert decode_stripe(strided, row_range=(5000, 6000)).num_rows == 0
    assert decode_stripe(strided, row_range=(100, 100)).num_rows == 0
    # seek cost: a 400-row range out of 3000 touches <= 2 of 8 strides
    st = {}
    decode_stripe(strided, row_range=(1200, 1600), io_stats=st)
    assert st["strides_total"] == 8 and st["strides_read"] <= 2
    # unstrided stripes slice after full decode (still exact)
    plain, _ = encode_stripe(t, EncodeConfig())
    got = decode_stripe(plain, row_range=(123, 456)).combine_chunks()
    assert got.equals(t.slice(123, 333))


def test_read_row_range_multi_stripe(ray_session, tmp_path):
    import ray.data as rd

    from apacheorcdotnet_ray.sources.stripes import read_row_range
    from apacheorcdotnet_ray.stripe.container import encode_stripe as enc

    t = _tokens_table(n_docs=900, seed=7)
    # three stripes, filenames exercising the numeric-aware order
    # (lexicographic glob would put rg10 before rg2)
    parts = [(0, 300, "x.parquet_rg2-3-s0000-fa.oray"),
             (300, 300, "x.parquet_rg10-11-s0000-fb.oray"),
             (600, 300, "x.parquet_rg10-11-s0001-fc.oray")]
    for off, n, name in parts:
        buf, _ = enc(t.slice(off, n), EncodeConfig(row_index_stride=128))
        (tmp_path / name).write_bytes(buf)
    for lo, hi in [(0, 10), (250, 350), (299, 601), (880, 900), (0, 900)]:
        got = read_row_range(str(tmp_path), lo, hi - lo) \
            .to_pandas().reset_index(drop=True)
        exp = t.slice(lo, hi - lo).to_pandas().reset_index(drop=True)
        assert got["doc_id"].tolist() == exp["doc_id"].tolist(), (lo, hi)
    # projection + beyond-the-end ranges
    got = read_row_range(str(tmp_path), 890, 100, columns=["doc_id"])
    assert got.schema().names == ["doc_id"] and got.count() == 10
    assert read_row_range(str(tmp_path), 900, 10).count() == 0


@pytest.fixture(scope="module")
def flip_stripes():
    n = 200_000
    rng = np.random.default_rng(5)
    t = pa.table({"x": pa.array(rng.integers(0, 2**40, n), type=pa.int64()),
                  "s": pa.array([f"v{i % 977}-{i}" for i in range(n)])})
    return {stride: encode_stripe(t, EncodeConfig(row_index_stride=stride))
            for stride in (10_000, None)}


@pytest.mark.parametrize("stride", [10_000, None])
@pytest.mark.parametrize("row_range", [None, (150_000, 150_010)])
def test_chunk_header_flip_raises_naming_the_stream(flip_stripes, stride,
                                                     row_range):
    """A flipped byte in a stream's first chunk header either raises a
    ValueError naming the column and stream kind, or the read never
    touches it and returns the clean table: never IndexError, never
    zlib.error, never different rows."""
    buf, footer = flip_stripes[stride]
    clean = decode_stripe(buf, row_range=row_range)
    for m in footer["streams"]:
        for i in range(3):
            bad = bytearray(buf)
            bad[m["offset"] + i] ^= 0xFF
            try:
                got = decode_stripe(bytes(bad), row_range=row_range)
            except ValueError as e:
                assert f"col={m['col']} kind={m['kind']}" in str(e)
            else:
                assert got.equals(clean)
