"""Bit/byte primitive golden vectors, ported from BitManipulation_Test.cs."""

import numpy as np
import pytest

from apacheorcdotnet_ray.codecs import bitpack


def bitstring_to_bytes(bits: str) -> bytes:
    # mirrors BitStringToByteArray (BitManipulation_Test.cs:186-210)
    out = bytearray()
    cur = 0
    count = 0
    for c in bits:
        if c not in "01":
            continue
        cur = (cur << 1) | (c == "1")
        count += 1
        if count == 8:
            out.append(cur)
            cur = count = 0
    if count:
        out.append(cur << (8 - count))
    return bytes(out)


CASES = [
    ([1, 0, 1, 1, 0], "1 0 1 1 0", 1),
    ([0, 1, 2, 3, 0, 1, 2, 3], "00 01 10 11 00 01 10 11", 2),
    ([0, 1, 2, 3, 4, 5, 6, 7], "000 001 010 011 100 101 110 111", 3),
    ([0, 1, 2, 4, 8, 15], "0000 0001 0010 0100 1000 1111", 4),
    ([0, 1, 2, 4, 8, 16, 31], "00000 00001 00010 00100 01000 10000 11111", 5),
    ([0, 1, 2, 4, 8, 16, 32, 63],
     "000000 000001 000010 000100 001000 010000 100000 111111", 6),
    ([0, 1, 2, 4, 8, 16, 32, 64, 127],
     "0000000 0000001 0000010 0000100 0001000 0010000 0100000 1000000 1111111", 7),
    ([0, 1, 2, 4, 8, 16, 32, 64, 128, 255],
     "00000000 00000001 00000010 00000100 00001000 00010000 00100000 01000000 10000000 11111111", 8),
    ([0, 511, 0], "000000000 111111111 000000000", 9),
    ([0, 1023, 0], "0000000000 1111111111 0000000000", 10),
    ([0, 131071, 0], "0 " * 17 + "1 " * 17 + "0 " * 17, 17),
    ([0, 8589934591, 0], "0 " * 33 + "1 " * 33 + "0 " * 33, 33),
    ([0, -1, 0], "0 " * 64 + "1 " * 64 + "0 " * 64, 64),
]


@pytest.mark.parametrize("expected,bits,width", CASES)
def test_bitpack_golden(expected, bits, width):
    data = bitstring_to_bytes(bits)
    vals, consumed = bitpack.unpack_bits(data, width, len(expected))
    assert consumed == len(data)
    assert vals.view(np.int64).tolist() == expected
    packed = bitpack.pack_bits(np.array(expected, dtype=np.int64).view(np.uint64), width)
    assert packed == data


def test_varint_unsigned_golden():
    # BitManipulation_Test.cs:210-232
    table = {
        0: bytes([0x00]), 1: bytes([0x01]), 127: bytes([0x7F]),
        128: bytes([0x80, 0x01]), 129: bytes([0x81, 0x01]),
        16383: bytes([0xFF, 0x7F]), 16384: bytes([0x80, 0x80, 0x01]),
        16385: bytes([0x81, 0x80, 0x01]),
    }
    for value, data in table.items():
        got, pos = bitpack.read_varint_unsigned(data, 0)
        assert (got, pos) == (value, len(data))
        out = bytearray()
        bitpack.write_varint_unsigned(out, value)
        assert bytes(out) == data


@pytest.mark.parametrize("v", [0, 1000, -1000, 10000, -10000, 100000, -100000,
                               2**31 - 1, -(2**31), 2**63 - 1, -(2**63)])
def test_varint_signed_roundtrip(v):
    out = bytearray()
    bitpack.write_varint_signed(out, v)
    got, pos = bitpack.read_varint_signed(bytes(out), 0)
    assert got == v and pos == len(out)


def test_zigzag_roundtrip():
    vals = np.array([0, 1, -1, 2, -2, 2**62, -(2**62), 2**63 - 1, -(2**63)], dtype=np.int64)
    assert np.array_equal(bitpack.zigzag_decode(bitpack.zigzag_encode(vals)), vals)
    # known mapping: 0→0, -1→1, 1→2, -2→3, 2→4
    assert bitpack.zigzag_encode(np.array([0, -1, 1, -2, 2], dtype=np.int64)).tolist() == [0, 1, 2, 3, 4]


def test_bit_widths():
    vals = np.array([0, 1, 2, 3, 4, 255, 256, 2**31, 2**63 - 1, -1], dtype=np.int64)
    assert bitpack.bit_widths(vals).tolist() == [0, 1, 2, 2, 3, 8, 9, 32, 63, 64]


def test_width_tables():
    for enc in range(32):
        w = bitpack.decode_direct_width(enc)
        assert bitpack.encode_direct_width(w) == enc
    assert bitpack.find_nearest_direct_width(0) == 1
    assert bitpack.find_nearest_direct_width(25) == 26
    assert bitpack.find_nearest_direct_width(33) == 40
    assert bitpack.find_nearest_aligned_direct_width(3) == 4
    assert bitpack.find_nearest_aligned_direct_width(9) == 16


def test_subtraction_overflow():
    assert bitpack.subtraction_would_overflow(2**63 - 1, 0) is False
    assert bitpack.subtraction_would_overflow(2**63 - 1, -1) is True
    assert bitpack.subtraction_would_overflow(2**63 - 1, -2) is True
    assert bitpack.subtraction_would_overflow(-(2**63), 1) is True
    assert bitpack.subtraction_would_overflow(100, 50) is False


_LONG_VARINT = b"\xff" * 10 + b"\x01"  # 11 bytes: past any uint64


def test_varint_reader_bounds():
    """One reader for every scalar varint: a uint64 of 10 bytes reads, an
    11th byte or a buffer that ends inside the varint raises ValueError."""
    out = bytearray()
    bitpack.write_varint_unsigned(out, 2**64 - 1)
    assert bitpack.read_varint_unsigned(bytes(out), 0) == (2**64 - 1, 10)
    assert bitpack.read_varint_int64(bytes(out), 0) == (-1, 10)
    with pytest.raises(ValueError, match="longer than 10 bytes"):
        bitpack.read_varint_unsigned(_LONG_VARINT, 0)
    with pytest.raises(ValueError, match="inside a varint"):
        bitpack.read_varint_unsigned(b"\x80\x80", 0)


def test_long_varint_raises_through_every_caller():
    from apacheorcdotnet_ray.codecs import intdict, rlev1, rlev2
    from apacheorcdotnet_ray.sources.orc_reader import pb_parse

    assert pb_parse(b"\x08\x96\x01") == {1: [150]}
    with pytest.raises(ValueError, match="longer than 10 bytes"):
        pb_parse(b"\x08" + _LONG_VARINT)
    # RLEv1 literal run of one value
    assert rlev1.decode(b"\xff\x96\x01", False).tolist() == [150]
    with pytest.raises(ValueError, match="longer than 10 bytes"):
        rlev1.decode(b"\xff" + _LONG_VARINT, False)
    # RLEv2 DELTA run of 34 values: base varint, then delta varint
    assert rlev2.decode(b"\xc0\x21\x00\x06", False).tolist() == list(range(0, 100, 3))
    with pytest.raises(ValueError, match="longer than 10 bytes"):
        rlev2.decode(b"\xc0\x21" + _LONG_VARINT + b"\x06", False)
    with pytest.raises(ValueError, match="longer than 10 bytes"):
        intdict.decode(_LONG_VARINT + b"\x00\x00")


def test_varint_run_of_continuation_bytes_raises_fast():
    """1 MiB of 0xFF stops after 10 bytes instead of shifting one big int."""
    import time

    from apacheorcdotnet_ray.codecs import rlev1
    from apacheorcdotnet_ray.sources.orc_reader import pb_parse

    buf = b"\xff" * (1 << 20)
    t0 = time.perf_counter()
    for read in (lambda: bitpack.read_varint_unsigned(buf, 0),
                 lambda: pb_parse(buf), lambda: rlev1.decode(buf, False)):
        with pytest.raises(ValueError):
            read()
    assert time.perf_counter() - t0 < 1.0
