"""The shared column decoder (``stripe/columns.decode_array``) and what it
fixed: unsigned 64-bit `.oray` columns, ORC decimals wider than 18 digits,
dictionary ids and array lengths checked for both formats."""

from decimal import Decimal

import numpy as np
import pyarrow as pa
import pyarrow.orc as pa_orc
import pytest

from apacheorcdotnet_ray.codecs import bool_rle, byte_rle, rlev2, varint
from apacheorcdotnet_ray.sources.orc_reader import OrcFile
from apacheorcdotnet_ray.sources.orc_writer import write_orc
from apacheorcdotnet_ray.stripe import EncodeConfig, decode_stripe, encode_stripe
from apacheorcdotnet_ray.stripe.columns import (DATA, Stream, column_predicate_mask,
                                                decode_column, encode_column)

INT_TYPES = [pa.int8(), pa.int16(), pa.int32(), pa.int64(),
             pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64()]


@pytest.mark.parametrize("stride", [None, 4])
@pytest.mark.parametrize("t", INT_TYPES, ids=str)
def test_oray_integers_round_trip_at_their_limits(t, stride):
    info = np.iinfo(t.to_pandas_dtype())
    vals = [int(info.min), None, int(info.max), 0, 1, None,
            int(info.max) - 1, int(info.min) + 1, None, None, int(info.max)]
    tbl = pa.table({"v": pa.array(vals, type=t)})
    buf, _ = encode_stripe(tbl, EncodeConfig(row_index_stride=stride))
    got = decode_stripe(buf)
    assert got.schema == tbl.schema
    assert got.equals(tbl)


def _zigzag_varint(v: int) -> bytes:
    z = ((v << 1) ^ (v >> 127)) & ((1 << 128) - 1)
    out = bytearray()
    while z > 0x7F:
        out.append(z & 0x7F | 0x80)
        z >>= 7
    out.append(z)
    return bytes(out)


def test_decode128_matches_python_ints():
    rng = np.random.default_rng(3)
    vals = [0, 1, -1, 10**38 - 1, -(10**38 - 1), 2**63, -2**63, 2**64 - 1,
            -(2**127), 2**127 - 1]
    vals += [int(x) * 2**64 + int(y) for x, y in zip(
        rng.integers(-2**63, 2**63 - 1, 300), rng.integers(0, 2**63, 300))]
    lo, hi = varint.decode128(b"".join(map(_zigzag_varint, vals)), len(vals))
    assert [int(h) << 64 | int(x) & (2**64 - 1)
            for x, h in zip(lo, hi)] == vals
    with pytest.raises(ValueError, match="longer than 19 bytes"):
        varint.decode128(b"\x80" * 19 + b"\x01")
    with pytest.raises(ValueError, match="inside a value"):
        varint.decode128(_zigzag_varint(5) + b"\x80")


def _wide_decimal_table(n: int) -> pa.Table:
    """decimal128(38, 2) up to ±(10^38 - 1) and decimal128(20, 2), with nulls
    (``Decimal(str)`` is exact; ``scaleb`` would round to 28 digits)."""
    rng = np.random.default_rng(11)
    big = "9" * 36 + ".99"  # unary minus on a Decimal would round it too
    vals = [Decimal(big), Decimal("-" + big),
            Decimal("12345678901234567890123.45"), None]
    vals += [None if i % 7 == 3 else
             Decimal(f"{int(rng.integers(-2**62, 2**62)) * 10**(i % 19) + i}E-2")
             for i in range(n - len(vals))]
    narrow = [Decimal("99999999999999999.99"), None,
              Decimal("-99999999999999999.99")]
    narrow += [Decimal(f"{i * 10**15 + 7}E-2") for i in range(n - 3)]
    return pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                     "d38": pa.array(vals, type=pa.decimal128(38, 2)),
                     "d20": pa.array(narrow, type=pa.decimal128(20, 2))})


def test_encode128_inverts_decode128_around_int64_edges():
    """128-bit zigzag varints round-trip around ±2^63 and at the 128-bit
    ends, byte-equal to the Python reference; int64-wide values take the
    bytes ``varint.encode`` gives them."""
    edges = [0, 1, -1, 2**63 - 1, 2**63, 2**63 + 1, -2**63, -2**63 - 1, -2**63 + 1,
             2**64 - 1, 2**64, -(2**64), 10**38 - 1, -(10**38 - 1), 2**127 - 1, -(2**127)]
    lo = np.array([(v & (2**64 - 1)) - (v & 2**63) * 2 for v in edges], dtype=np.int64)
    hi = np.array([v >> 64 for v in edges], dtype=np.int64)
    buf = varint.encode128(lo, hi)
    assert buf == b"".join(map(_zigzag_varint, edges))
    back_lo, back_hi = varint.decode128(buf, len(edges))
    assert np.array_equal(back_lo, lo) and np.array_equal(back_hi, hi)
    narrow = np.array([0, -1, 2**63 - 1, -2**63, 12345], dtype=np.int64)
    assert varint.encode128(narrow, narrow >> 63) == varint.encode(narrow, True)
    assert varint.encode128(np.empty(0, np.int64), np.empty(0, np.int64)) == b""


def test_orc_decimal_seek_decodes_only_its_group(tmp_path, monkeypatch):
    """A row-group seek into a DECIMAL stream decodes the group's varints,
    not every varint to the end of the stream (a predicate read returns
    the rows of the groups it selects)."""
    n = 100_000
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                  "d": pa.array([Decimal(f"{i * 7919 - 10**9}E-2") for i in range(n)],
                                type=pa.decimal128(20, 2))})
    p = str(tmp_path / "dec.orc")
    pa_orc.write_table(t, p, row_index_stride=10_000)
    decoded = []
    decode128 = varint.decode128

    def counting(buf, count=None):
        lo, hi = decode128(buf, count)
        decoded.append(len(lo))
        return lo, hi
    monkeypatch.setattr(varint, "decode128", counting)
    f = OrcFile(p)
    assert f.read_table(predicate=("k", "==", 5)).equals(t.slice(0, 10_000))
    assert decoded == [10_000]
    decoded.clear()
    assert f.read_table(predicate=("k", "==", 55_000)).equals(t.slice(50_000, 10_000))
    assert decoded == [10_000]
    f.close()


def test_orc_wide_decimals_match_pyarrow(tmp_path, monkeypatch):
    t = _wide_decimal_table(5_000)
    p = str(tmp_path / "wide.orc")
    pa_orc.write_table(t, p, row_index_stride=1_000)
    assert pa_orc.ORCFile(p).read().equals(t)
    f = OrcFile(p)
    assert f.read_table().equals(t)
    # the predicate read seeks into row groups, never a whole stripe
    monkeypatch.setattr(OrcFile, "_read_stripe", None)
    got = f.read_table(predicate=("k", ">=", 3_500))
    assert got.equals(t.slice(3_000))
    f.close()


def test_orc_dictionary_id_past_the_dictionary_names_the_file(tmp_path):
    ids = np.arange(300) % 3
    t = pa.table({"s": pa.array(np.array(["a", "b", "c"])[ids])})
    p = str(tmp_path / "dict.orc")
    write_orc(t, p, compression="none")
    f = OrcFile(p)
    off, ln = f._streams(f.stripes[0])[(1, 1)]  # column 1, DATA: the ids
    f.close()
    ids[7] = 3  # one id past the 3 entries, in the same run width
    enc = rlev2.encode(ids, signed=False)
    data = bytearray(open(p, "rb").read())
    assert data[off:off + ln] == rlev2.encode(np.arange(300) % 3, False)
    assert len(enc) == ln
    data[off:off + ln] = enc
    q = str(tmp_path / "bad.orc")
    open(q, "wb").write(bytes(data))
    f = OrcFile(q)
    with pytest.raises(ValueError, match=r"bad\.orc: column 1 stream DATA"):
        f.read_table()
    f.close()


def test_oray_dictionary_id_and_length_checks():
    t = pa.table({"s": pa.array(["x", "y"] * 8)})
    _, streams, _ = encode_column("s", t["s"], EncodeConfig())
    bad = [Stream(s.col, s.kind, s.codec,
                  rlev2.encode(np.full(16, 5), False), s.n, s.params)
           if s.kind == DATA else s for s in streams]
    field_ = pa.field("s", pa.string())
    with pytest.raises(ValueError, match="stream DATA: dictionary id"):
        decode_column(field_, bad, 16)

    class Eq:
        def mask(self, arr):
            return pa.array([v == "x" for v in arr.to_pylist()])

    with pytest.raises(ValueError, match="dictionary id"):
        column_predicate_mask(field_, bad, 16, Eq())
    with pytest.raises(ValueError, match="16 values, expected 20"):
        decode_column(field_, streams, 20)


@pytest.mark.parametrize("t, value", [
    (pa.int64(), 7), (pa.string(), "x"), (pa.float64(), 1.5), (pa.bool_(), True),
    (pa.timestamp("us"), 5), (pa.list_(pa.int32()), [1, 2])], ids=str)
def test_oray_all_null_stride_decodes(t, value):
    """A stride with no non-null value writes no DATA/LENGTH segment."""
    tbl = pa.table({"v": pa.array([None] * 4 + [value] * 4, type=t)})
    buf, _ = encode_stripe(tbl, EncodeConfig(row_index_stride=4))
    assert decode_stripe(buf).equals(tbl)


def test_struct_without_children_keeps_its_rows(tmp_path):
    t = pa.table({"k": pa.array(np.arange(6, dtype=np.int64)),
                  "e": pa.array([{}] * 6, type=pa.struct([]))})
    buf, _ = encode_stripe(t)
    assert decode_stripe(buf).equals(t)
    p = str(tmp_path / "empty_struct.orc")
    write_orc(t, p)
    f = OrcFile(p)
    assert f.read_table().equals(t)
    f.close()


def test_bool_rle_decode_from_seeks_bytes_and_bits():
    bits = np.random.default_rng(2).random(3_000) < 0.3
    enc = bool_rle.encode(bits)
    for byte_skip, bit_off in [(0, 0), (0, 5), (17, 0), (123, 7)]:
        got, _ = bool_rle.decode_from(enc, 0, 100, byte_skip, bit_off)
        start = byte_skip * 8 + bit_off
        assert np.array_equal(got, bits[start:start + 100])
    with pytest.raises(ValueError):
        byte_rle.decode(b"\x05")  # a run header with no value byte
