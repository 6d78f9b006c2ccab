"""ORC ByteRLE codec — vectorized, bit-exact with the reference.

Reimplements ``/root/reference/src/ApacheOrcDotNet/Encodings/ByteRunLengthEncodingWriter.cs``
(runs of 3-130 → ``(len-3, value)``; literals 1-128 → ``(256-len, bytes)``) and
its reader. The encoder precomputes the run-length structure of the whole array
once (NumPy) and then walks *runs* (not values) in Python, reproducing the
reference's greedy byte-at-a-time semantics exactly — including the quirk that
a literal scan which reaches 126 values without finding a repeat-triple takes
128 literals even if a run starts at position 126/127.

Golden vectors from ``ByteRunLengthEncoding_Test.cs`` live in
``tests/test_byte_rle.py``.
"""

from __future__ import annotations

import numpy as np


def encode(values: np.ndarray) -> bytes:
    v = np.ascontiguousarray(values, dtype=np.uint8)
    n = len(v)
    out = bytearray()
    if n == 0:
        return bytes(out)

    # maximal-run structure: starts[i] = first index of run i, lens[i] its length
    change = np.nonzero(v[1:] != v[:-1])[0] + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [n]])
    run_of = np.zeros(n, dtype=np.int64)  # run index for each position
    run_of[starts[1:]] = 1
    run_of = np.cumsum(run_of)
    starts_l = starts.tolist()
    ends_l = ends.tolist()

    # next3[r]: start index of the first run at or after r with length >= 3
    nruns = len(starts_l)
    next3 = [n] * (nruns + 1)
    for r in range(nruns - 1, -1, -1):
        next3[r] = starts_l[r] if (ends_l[r] - starts_l[r]) >= 3 else next3[r + 1]

    pos = 0
    while pos < n:
        r = int(run_of[pos])
        remaining_run = ends_l[r] - pos
        if remaining_run >= 3:
            take = min(remaining_run, 130)
            out.append(take - 3)
            out.append(int(v[pos]))
            pos += take
            continue
        # literal section: the next repeat-triple can only start at the start of
        # a following >=3 run (remaining_run < 3, and runs are maximal so no
        # triple spans a run boundary)
        d = next3[r + 1] - pos
        remaining = n - pos
        if d <= 125:
            lit = d
        else:
            lit = min(remaining, 128)
        if lit == 0:  # defensive; cannot happen (d==0 ⇒ remaining_run>=3)
            raise AssertionError("zero-length literal")
        out.append((256 - lit) & 0xFF)
        out.extend(v[pos : pos + lit].tobytes())
        pos += lit
    return bytes(out)


def decode(buf: bytes, expected_count: int | None = None) -> np.ndarray:
    values, pos = decode_from(buf, 0, expected_count)
    if expected_count is None and pos != len(buf):
        raise ValueError(f"ByteRLE decode consumed {pos} of {len(buf)} bytes")
    return values


def decode_from(
    buf: bytes, pos: int, expected_count: int | None = None
) -> tuple[np.ndarray, int]:
    """Reference: ByteRunLengthEncodingReader.cs:19-43."""
    chunks: list[np.ndarray] = []
    total = 0
    end = len(buf)
    while pos < end and (expected_count is None or total < expected_count):
        first = buf[pos]
        pos += 1
        if first < 0x80:  # a run
            if pos == end:
                raise ValueError("ByteRLE stream ends inside a run")
            count = first + 3
            chunks.append(np.full(count, buf[pos], dtype=np.uint8))
            pos += 1
        else:  # literals
            count = 0x100 - first
            chunks.append(np.frombuffer(buf, dtype=np.uint8, count=count, offset=pos))
            pos += count
        total += count
    if expected_count is not None and total < expected_count:
        raise ValueError(f"ByteRLE produced {total} values, expected {expected_count}")
    if not chunks:
        return np.empty(0, dtype=np.uint8), pos
    return np.concatenate(chunks), pos
