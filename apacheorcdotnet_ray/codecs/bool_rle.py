"""ORC boolean bit encoding: MSB-first bit-pack 8 bools/byte, then ByteRLE.

Reference: ``/root/reference/src/ApacheOrcDotNet/Encodings/BitWriter.cs`` /
``BitReader.cs``. Used for PRESENT (validity) streams. NumPy ``packbits`` /
``unpackbits`` default to MSB-first ("big" bitorder), matching the reference;
Arrow validity bitmaps are LSB-first, so callers must convert (we always go
through a boolean array, which makes the order explicit).
"""

from __future__ import annotations

import numpy as np

from . import byte_rle


def encode(values: np.ndarray) -> bytes:
    b = np.ascontiguousarray(values, dtype=bool)
    return byte_rle.encode(np.packbits(b))


def decode(buf: bytes, count: int) -> np.ndarray:
    """Decode exactly `count` bools (up to 7 trailing pad bits are discarded)."""
    return decode_from(buf, 0, count)[0]


def decode_from(buf: bytes, pos: int, count: int, byte_skip: int = 0,
                bit_offset: int = 0) -> tuple[np.ndarray, int]:
    """``count`` bools from ``pos``, starting ``byte_skip`` decoded bytes and
    then ``bit_offset`` bits in (an ORC ROW_INDEX seek's codec state)."""
    end = byte_skip + (bit_offset + count + 7) // 8
    packed, pos = byte_rle.decode_from(buf, pos, expected_count=end)
    bits = np.unpackbits(packed[byte_skip:end])
    return bits[bit_offset:bit_offset + count].astype(bool), pos
