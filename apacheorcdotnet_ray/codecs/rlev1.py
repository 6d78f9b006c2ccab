"""ORC integer Run-Length Encoding version 1 (pre-Hive-0.12 files).

Public-spec layout (apache.org/orc/specification, "Integer RLE v1"):

- run:      control byte 0..127 = run_length - 3, then one SIGNED delta
            byte, then the base value varint → base, base+delta, ...
- literals: control byte as signed int8 in -1..-128 = -count, then that
            many varints.

Signed columns zigzag each emitted varint — but the DELTA of a run applies
in the decoded value domain: the base varint is zigzag-decoded first, then
``base, base+delta, base+2*delta, ...`` are generated from the decoded
base (Apache ORC's RunLengthIntegerReader reads the base via readVslong
then adds the delta to the resulting value, not to the zigzag pattern).
The reference never implemented a v1 reader (it only handles v2); this
repo needs v1 only to DECODE old third-party files (``sources/orc_reader``)
— the writer always emits v2 — but an encoder is included so the property
suite can round-trip.

Spec example vectors pin the byte format in ``tests/test_rlev1.py``:
100 copies of 7 → ``61 00 07``; literals [2,3,6,7,11] → ``fb 02 03 06 07 0b``.
A pyarrow cross-check test pins the signed-delta-run dialect against the
C++ ORC reader.
"""

from __future__ import annotations

import numpy as np

from .bitpack import (I64, U64, read_varint_int64, read_varint_signed,
                      read_varint_unsigned, write_varint_unsigned, zigzag_decode,
                      zigzag_encode_scalar)


def decode(buf: bytes, signed: bool, expected_count: int | None = None) -> np.ndarray:
    out: list[np.ndarray] = []
    pos = 0
    n = len(buf)
    read_base = read_varint_signed if signed else read_varint_int64
    try:
        while pos < n:
            ctrl = buf[pos]
            pos += 1
            if ctrl < 0x80:  # run: delta applies to the zigzag-DECODED base
                length = ctrl + 3
                delta = (buf[pos] ^ 0x80) - 0x80  # signed int8
                pos += 1
                base, pos = read_base(buf, pos)
                with np.errstate(over="ignore"):
                    vals = (np.arange(length, dtype=I64) * np.int64(delta)
                            + np.int64(base))
                out.append(vals)
            else:  # literals: each varint zigzagged independently
                count = 256 - ctrl
                vals = np.empty(count, dtype=np.uint64)
                for i in range(count):
                    v, pos = read_varint_unsigned(buf, pos)
                    vals[i] = v
                out.append(zigzag_decode(vals.view(I64)) if signed
                           else vals.view(I64))
    except IndexError:
        raise ValueError("RLEv1 stream ends inside a run") from None
    flat = np.concatenate(out) if out else np.empty(0, dtype=I64)
    if expected_count is not None and len(flat) != expected_count:
        raise ValueError(
            f"RLEv1 stream decoded {len(flat)} values, expected {expected_count}")
    return flat


def encode(values: np.ndarray, signed: bool) -> bytes:
    """Simple spec-conformant v1 encoder (runs of constant delta in
    [-128, 127] and length 3..130; varint literals otherwise). Run deltas
    are computed on the ORIGINAL values and the base/literal varints are
    zigzagged at emission — matching Apache ORC's dialect. Exists for
    round-trip tests — production writes are always RLEv2."""
    v = np.ascontiguousarray(values, dtype=I64)
    u = v.view(U64)
    out = bytearray()
    i = 0
    n = len(v)
    lit_start = 0

    def emit(x: int) -> None:
        write_varint_unsigned(out, zigzag_encode_scalar(x) if signed else x)

    def flush_literals(upto: int) -> None:
        nonlocal lit_start
        j = lit_start
        while j < upto:
            cnt = min(128, upto - j)
            out.append(256 - cnt)
            for k in range(cnt):
                emit(int(v[j + k]))
            j += cnt
        lit_start = upto

    # wraparound diffs once, vectorized — in the VALUE domain
    with np.errstate(over="ignore"):
        diffs = np.diff(v) if n > 1 else np.empty(0, I64)
    while i < n:
        run_len = 1
        delta = 0
        if i + 1 < n:
            d = int(diffs[i])
            if -128 <= d <= 127:
                delta = d
                while (i + run_len < n and run_len < 130
                       and int(diffs[i + run_len - 1]) == delta):
                    run_len += 1
        if run_len >= 3:
            flush_literals(i)
            out.append(run_len - 3)
            out.append(delta & 0xFF)
            emit(int(v[i]))
            i += run_len
            lit_start = i
        else:
            i += 1
    flush_literals(n)
    return bytes(out)
