"""Vectorized LEB128 varint stream codec.

The Ray-native analog of the reference's decimal-mantissa stream codec
(``/root/reference/src/ApacheOrcDotNet/Encodings/VarIntWriter.cs:18-32`` /
``VarIntReader.cs:19-29``): one zigzag varint per value, concatenated.
Encode scatters each value's 7-bit groups with one vector op per group
position (<=10; <=19 for 128-bit values); decode reconstructs values with
one ``np.add.reduceat`` over shifted 7-bit contributions — no per-value
Python loops.
"""

from __future__ import annotations

import numpy as np

from .bitpack import I64, U64, bit_widths, zigzag_decode, zigzag_encode


def encode(values: np.ndarray, signed: bool = True) -> bytes:
    v = np.ascontiguousarray(values, dtype=I64)
    if len(v) == 0:
        return b""
    return _varints((zigzag_encode(v) if signed else v).view(U64))


def encode128(lo: np.ndarray, hi: np.ndarray) -> bytes:
    """Zigzag varints of 128-bit values given as their low and high int64
    words (ORC decimal mantissas): the inverse of ``decode128``. A value
    that fits int64 takes the bytes ``encode`` gives it."""
    lo = np.ascontiguousarray(lo, dtype=I64)
    hi = np.ascontiguousarray(hi, dtype=I64)
    sign = (hi >> 63).view(U64)  # zigzag: (v << 1) ^ (v >> 127)
    zlo = (lo.view(U64) << np.uint64(1)) ^ sign
    zhi = ((hi.view(U64) << np.uint64(1)) | (lo.view(U64) >> np.uint64(63))) ^ sign
    return _varints(zlo, zhi)


def _varints(lo: np.ndarray, hi: np.ndarray | None = None) -> bytes:
    """Unsigned values (uint64 words, with ``hi`` for 128 bits) as varints,
    with one vector op per 7-bit group position."""
    width = bit_widths(lo) if hi is None else \
        np.where(hi != 0, 64 + bit_widths(hi), bit_widths(lo))
    nbytes = np.maximum((width + 6) // 7, 1)
    starts = np.concatenate([[0], np.cumsum(nbytes)])
    out = np.empty(int(starts[-1]), dtype=np.uint8)
    for g in range(19):
        mask = nbytes > g
        if not mask.any():
            break
        s = 7 * g
        if s < 64:
            word = lo[mask] >> np.uint64(s)
            if hi is not None and s + 7 > 64:  # straddles the two words
                word |= hi[mask] << np.uint64(64 - s)
        else:
            word = hi[mask] >> np.uint64(s - 64)
        group = (word & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] - 1 > g).astype(np.uint8) << 7
        out[starts[:-1][mask] + g] = group | cont
    return out.tobytes()


def _groups(buf: bytes, count: int | None) -> tuple[np.ndarray, ...]:
    """Each byte's 7-bit group, its bit shift within its value, and the
    index of each value's first byte."""
    b = np.frombuffer(buf, dtype=np.uint8)
    term = (b & 0x80) == 0
    if len(b) and not term[-1]:
        raise ValueError("varint stream ends inside a value")
    starts = np.concatenate([[0], np.nonzero(term)[0][:-1] + 1])[:len(b)]
    if count is not None and len(starts) != count:
        raise ValueError(f"varint stream has {len(starts)} values, expected {count}")
    vidx = np.cumsum(term) - term  # value index per byte
    shift = 7 * (np.arange(len(b), dtype=I64) - starts[vidx])
    return (b & 0x7F).astype(U64), shift, starts


def decode(buf: bytes, count: int | None = None, signed: bool = True) -> np.ndarray:
    g, shift, starts = _groups(buf, count)
    if len(starts) == 0:
        return np.empty(0, dtype=I64)
    vals = np.add.reduceat(g << shift.astype(U64), starts)
    return zigzag_decode(vals.view(I64)) if signed else vals.view(I64)


def decode128(buf: bytes, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Zigzag varints of up to 128 bits (ORC decimal mantissas) → the low
    and high int64 words of each value, vectorized like ``decode``. A
    varint longer than 19 bytes (133 bits) raises ``ValueError``."""
    g, shift, starts = _groups(buf, count)
    if len(starts) == 0:
        return np.empty(0, dtype=I64), np.empty(0, dtype=I64)
    if shift.max() > 126:
        raise ValueError("a varint longer than 19 bytes: 128-bit values "
                         "take at most 19")
    low = np.where(shift < 64, g << np.minimum(shift, 63).astype(U64), 0)
    up = shift - 64  # the byte at bit 63 straddles both words
    high = np.where(up >= 0, g << np.clip(up, 0, 63).astype(U64),
                    g >> np.clip(-up, 0, 63).astype(U64))
    lo, hi = np.add.reduceat(low, starts), np.add.reduceat(high, starts)
    sign = np.uint64(0) - (lo & np.uint64(1))  # zigzag: all ones when odd
    lo = ((lo >> np.uint64(1)) | (hi << np.uint64(63))) ^ sign
    return lo.view(I64), ((hi >> np.uint64(1)) ^ sign).view(I64)
