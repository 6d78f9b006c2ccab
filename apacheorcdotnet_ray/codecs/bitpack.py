"""Bit-level primitives for the ORC-style lightweight codecs.

Vectorized (NumPy) reimplementation of the bit-twiddling utilities of the
reference engine (``/root/reference/src/ApacheOrcDotNet/Encodings/BitManipulation.cs``):
zigzag, MSB-first bit-packing at arbitrary widths, LEB128 varints, big-endian
fixed-width longs, the direct-width tables (1-24,26,28,30,32,40,48,56,64) and
the percentile widths that drive codec selection.

All functions operate on whole NumPy arrays (no per-value Python loops on hot
paths) and are bit-exact with the reference: the golden byte vectors from
``BitManipulation_Test.cs`` are ported to ``tests/test_bitpack.py``.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
I64 = np.int64
_MASK64 = 0xFFFFFFFFFFFFFFFF

# ---------------------------------------------------------------------------
# zigzag


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """(v << 1) ^ (v >> 63) on int64 with wraparound; returns int64 bit pattern.

    Reference: BitManipulation.cs:69-72.
    """
    v = np.asarray(values, dtype=I64)
    with np.errstate(over="ignore"):
        return (v << np.int64(1)) ^ (v >> np.int64(63))


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of zigzag_encode, in uint64 arithmetic (which wraps without
    warnings). Reference: BitManipulation.cs:64-67."""
    u = np.asarray(values, dtype=I64).view(U64)
    out = u & U64(1)
    np.subtract(U64(0), out, out=out)  # 0 - (u & 1)
    out ^= u >> U64(1)
    return out.view(I64)


def zigzag_encode_scalar(value: int) -> int:
    """Scalar zigzag on Python ints with 64-bit wrap; returns uint64 pattern."""
    value &= _MASK64
    sign = (value >> 63) & 1
    return (((value << 1) & _MASK64) ^ (_MASK64 if sign else 0)) & _MASK64


def zigzag_decode_scalar(value: int) -> int:
    """Scalar inverse zigzag; value is a uint64 pattern, result a signed int."""
    value &= _MASK64
    res = (value >> 1) ^ -(value & 1)
    # convert to signed 64
    res &= _MASK64
    return res - (1 << 64) if res >> 63 else res


# ---------------------------------------------------------------------------
# bit widths

def bit_widths(values: np.ndarray) -> np.ndarray:
    """Number of significant bits per value (0 for 0), on uint64 views.

    Vectorized equivalent of BitManipulation.NumBits (BitManipulation.cs:148-157):
    each 32-bit half is below 2**53, so it converts to float64 exactly, and
    the biased exponent of an integer x >= 1 is bit_length(x) + 1022.
    """
    v = np.asarray(values).view(U64)
    hi = (v >> U64(32)).astype(np.float64).view(I64)
    lo = (v & U64(0xFFFFFFFF)).astype(np.float64).view(I64)
    e = np.where(hi > 0, hi + (32 << 52), lo) >> 52
    return np.maximum(e - 1022, 0)


def num_bits(value: int) -> int:
    """Scalar NumBits on a uint64 pattern."""
    return int(value & _MASK64).bit_length()


# Direct-width tables (BitManipulation.cs:79-113,159-207)
_DECODE_DIRECT = list(range(1, 25)) + [26, 28, 30, 32, 40, 48, 56, 64]


def decode_direct_width(encoded: int) -> int:
    return _DECODE_DIRECT[encoded]


def encode_direct_width(bits: int) -> int:
    if bits <= 24:
        return bits - 1
    return {26: 24, 28: 25, 30: 26, 32: 27, 40: 28, 48: 29, 56: 30, 64: 31}[bits]


def find_nearest_direct_width(bits: int) -> int:
    if bits == 0:
        return 1
    if bits <= 24:
        return bits
    for w in (26, 28, 30, 32, 40, 48, 56):
        if bits <= w:
            return w
    return 64


def find_nearest_aligned_direct_width(bits: int) -> int:
    for w in (1, 2, 4, 8, 16, 24, 32, 40, 48, 56):
        if bits <= w:
            return w
    return 64


# vectorized nearest-direct-width lookup tables: index by exact bit count 0..64
_NEAREST_TABLE = np.array([find_nearest_direct_width(b) for b in range(65)], dtype=np.int64)
_ALIGNED_TABLE = np.array(
    [find_nearest_aligned_direct_width(b) for b in range(65)], dtype=np.int64
)


def percentile_widths(rows: np.ndarray, percentile: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest direct widths at the 100th and ``percentile``-th percentile of
    each row, along the last axis (BitManipulation.cs:115-146). The width is
    monotone in the value, so these are the widths of the row's maximum and
    of its (drop+1)-th largest value."""
    n = rows.shape[-1]
    drop = int(n * (1.0 - percentile))  # as the reference: 0, not 1, for n=10 at 0.9
    ranks = np.partition(rows, (n - 1 - drop, n - 1), axis=-1)[..., [n - 1, n - 1 - drop]]
    w = _NEAREST_TABLE[bit_widths(ranks)]
    return w[..., 0], w[..., 1]


def subtraction_would_overflow(left: int, right: int) -> bool:
    """64-bit signed overflow check for left-right (BitManipulation.cs:427-431)."""

    def wrap(x: int) -> int:
        x &= _MASK64
        return x - (1 << 64) if x >> 63 else x

    diff = wrap(left - right)
    no_overflow = (left ^ right) >= 0 or (left ^ diff) >= 0
    return not no_overflow


# ---------------------------------------------------------------------------
# MSB-first bit packing (BitManipulation.cs:209-264)


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """MSB-first bit-pack each value's low `width` bits; final byte zero-padded."""
    v = np.asarray(values).view(U64)
    if width in (8, 16, 32, 64):
        return v.astype(f">u{width // 8}").tobytes()
    nb = (width + 7) // 8  # only the low bytes hold bits that are kept
    be = v.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nb:]
    if width % 8 == 0:
        return be.tobytes()
    return np.packbits(np.unpackbits(be, axis=1)[:, 8 * nb - width:]).tobytes()


# An 8-value block of w-bit values is w bytes. Lane j of a block starts at
# bit j*w: byte (j*w) >> 3 of the block, bit (j*w) & 7 of that byte.
_LANE_BYTE = [None] + [(np.arange(8) * w) >> 3 for w in range(1, 65)]
_LANE_BIT = [None] + [((np.arange(8) * w) & 7).astype(U64)[:, None] for w in range(1, 65)]


def unpack_bits(buf, width: int, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
    """Read `count` MSB-first `width`-bit integers from buf starting at byte
    `offset`. Returns (uint64 array, bytes consumed).

    Only the bytes read are copied, into whole 8-value blocks plus 8 bytes of
    padding. Each lane of a block is then one unaligned 8-byte load at the
    block's start plus a constant per lane, shifted by a constant per lane."""
    if not 1 <= width <= 64:
        raise ValueError(f"bit width {width} outside 1..64")
    nbytes = (count * width + 7) // 8
    if count == 0:
        return np.empty(0, dtype=U64), 0
    if offset + nbytes > len(buf):
        raise ValueError(f"{count} {width}-bit values at byte {offset} overrun "
                         f"a {len(buf)}-byte buffer")
    blocks = (count + 7) // 8
    data = bytearray(blocks * width + 8)
    data[:nbytes] = buf[offset:offset + nbytes]
    lanes, bits = _LANE_BYTE[width], _LANE_BIT[width]
    # the 8-byte word at every byte of every block, byte-major: row o holds
    # the word at byte o of each block, so a lane is one row
    words = np.ndarray((width, blocks), U64, data, strides=(1, width))
    x = words[lanes]  # (8, blocks): gathered lane by lane
    x.byteswap(inplace=True)
    x <<= bits
    if width > 57:  # a lane can reach into a ninth byte
        ninth = np.ndarray((width, blocks), np.uint8, data, 8, (1, width))
        x |= ninth[lanes] >> (U64(8) - bits)
    x >>= U64(64 - width)
    return x.T.reshape(-1)[:count], nbytes


# ---------------------------------------------------------------------------
# LEB128 varints (BitManipulation.cs:266-311) — scalar versions for headers


def write_varint_unsigned(out: bytearray, value: int) -> None:
    value &= _MASK64
    while True:
        if value & ~0x7F == 0:
            out.append(value)
            return
        out.append((value & 0x7F) | 0x80)
        value >>= 7


def write_varint_signed(out: bytearray, value: int) -> None:
    write_varint_unsigned(out, zigzag_encode_scalar(value))


def read_varint_unsigned(buf, pos: int) -> tuple[int, int]:
    """The uint64 varint at ``buf[pos]`` → (value, position after it). The
    one scalar varint reader: a varint that runs past the end of ``buf`` or
    past 10 bytes raises ``ValueError``, so a run of continuation bytes
    costs at most 10 steps."""
    try:
        b = buf[pos]
        if b < 0x80:
            return b, pos + 1
        result = b & 0x7F
        shift = 7
        while shift < 63:
            pos += 1
            b = buf[pos]
            result |= (b & 0x7F) << shift
            if b < 0x80:
                return result, pos + 1
            shift += 7
        pos += 1
        b = buf[pos]  # the 10th byte: only its low bit fits in 64
        if b < 0x80:
            return (result | b << 63) & _MASK64, pos + 1
    except IndexError:
        raise ValueError("the buffer ends inside a varint") from None
    raise ValueError("a varint longer than 10 bytes")


def read_varint_int64(buf, pos: int) -> tuple[int, int]:
    """The uint64 varint as the int64 it wraps to, as the reference's
    ``long``-returning reader gives it."""
    v, pos = read_varint_unsigned(buf, pos)
    return (v - (1 << 64) if v >> 63 else v), pos


def read_varint_signed(buf, pos: int) -> tuple[int, int]:
    v, pos = read_varint_unsigned(buf, pos)
    return zigzag_decode_scalar(v), pos


# ---------------------------------------------------------------------------
# big-endian fixed-width longs (BitManipulation.cs:20-29)


def write_long_be(out: bytearray, num_bytes: int, value: int) -> None:
    value &= _MASK64
    for i in range(num_bytes - 1, -1, -1):
        out.append((value >> (i * 8)) & 0xFF)

