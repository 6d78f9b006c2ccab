"""Apache ORC BLOOM_FILTER_UTF8 (stream kind 8) bloom filters.

The ORC spec attaches an optional per-row-group bloom filter next to the
ROW_INDEX so equality predicates can skip row groups whose [min, max]
range matches but which cannot contain the literal. Hash functions:

- integers / dates: Thomas Wang's 64-bit mix of the long value;
  timestamps: the mix of the trunc-toward-zero milliseconds; doubles:
  the mix of the IEEE-754 bit pattern;
- DIALECTS: C++ liborc implements the Wang mix with ARITHMETIC right
  shifts for every long hash; Java ORC uses unsigned (``>>>``) shifts.
  The variants coincide on small positive longs and diverge elsewhere,
  so Java- and C++-written numeric blooms are mutually incompatible in
  the wild; this module implements BOTH (``arithmetic_shifts``), and
  readers dispatch on the footer's writer-implementation field;
- strings / binary: the single-lane 64-bit Murmur3 variant ("MSB 8 bytes
  of the x64_128 variant") with ORC's DEFAULT_SEED = 104729 — identical
  in both implementations;
- ``k`` index probes via Kirsch–Mitzenmacher double hashing on the two
  32-bit halves, bits stored in little-endian 64-bit words.

Sizing mirrors Java ORC exactly, including the round-UP-to-64 quirk:
``numBits = optimal(n, fpp) + (64 - optimal % 64)``.

Everything here is pinned BYTE-IDENTICAL against pyarrow's independent
C++ ORC writer (``tests/test_orc_bloom.py`` builds the same bloom both
ways and compares bitsets). The reference never implemented bloom
filters (no bloom code under /root/reference/src/ApacheOrcDotNet) — this
module exceeds it on both the write and read side.

Pure NumPy; no Ray imports (codecs/ layering rule).
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SEED = 104729  # Java ORC Murmur3.DEFAULT_SEED
DEFAULT_FPP = 0.05

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F


# --- hash functions ----------------------------------------------------------


def wang_hash64(vals: np.ndarray, arithmetic_shifts: bool = False) -> np.ndarray:
    """Thomas Wang 64-bit mix (Java ORC ``BloomFilter.getLongHash``),
    vectorized. Input any int dtype (viewed as the signed long's bit
    pattern); returns uint64 hashes.

    ``arithmetic_shifts=True`` reproduces C++ liborc, which runs the mix
    with arithmetic (sign-extending) right shifts for EVERY long hash —
    ints, dates, timestamp millis and double bits alike — where Java
    uses ``>>>``. The variants coincide on small positive longs and
    diverge on negatives/large values (pinned empirically against
    pyarrow/liborc 2.0.0 single-value blooms — tests/test_orc_bloom.py)."""
    if arithmetic_shifts:
        k = np.asarray(vals).astype(np.int64)
        with np.errstate(over="ignore"):
            k = (~k) + (k << np.int64(21))
            k = k ^ (k >> np.int64(24))
            k = k + (k << np.int64(3)) + (k << np.int64(8))
            k = k ^ (k >> np.int64(14))
            k = k + (k << np.int64(2)) + (k << np.int64(4))
            k = k ^ (k >> np.int64(28))
            k = k + (k << np.int64(31))
        return k.view(np.uint64)
    k = np.asarray(vals).astype(np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        k = (~k) + (k << np.uint64(21))
        k = k ^ (k >> np.uint64(24))
        k = k + (k << np.uint64(3)) + (k << np.uint64(8))
        k = k ^ (k >> np.uint64(14))
        k = k + (k << np.uint64(2)) + (k << np.uint64(4))
        k = k ^ (k >> np.uint64(28))
        k = k + (k << np.uint64(31))
    return k


def _rotl64(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _fmix64(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> np.uint64(33))
    h = h * np.uint64(0xFF51AFD7ED558CCD)
    h = h ^ (h >> np.uint64(33))
    h = h * np.uint64(0xC4CEB9FE1A85EC53)
    h = h ^ (h >> np.uint64(33))
    return h


def murmur3_hash64(data: bytes, seed: int = DEFAULT_SEED) -> int:
    """Scalar reference implementation (Java ORC ``Murmur3.hash64``):
    8-byte little-endian blocks through the x64_128 k1 lane, byte tail,
    xor length, fmix64."""
    M = (1 << 64) - 1

    def rotl(x, r):
        return ((x << r) | (x >> (64 - r))) & M

    h = seed & M
    n8 = len(data) // 8
    for i in range(n8):
        k = int.from_bytes(data[8 * i:8 * i + 8], "little")
        k = (k * _C1) & M
        k = rotl(k, 31)
        k = (k * _C2) & M
        h ^= k
        h = rotl(h, 27)
        h = (h * 5 + 0x52DCE729) & M
    tail = data[8 * n8:]
    if tail:
        k = int.from_bytes(tail, "little")
        k = (k * _C1) & M
        k = rotl(k, 31)
        k = (k * _C2) & M
        h ^= k
    h ^= len(data)
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & M
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & M
    h ^= h >> 33
    return h


def murmur3_hash64_many(blob: bytes | np.ndarray, offsets: np.ndarray,
                        seed: int = DEFAULT_SEED) -> np.ndarray:
    """Vectorized Murmur3 hash64 over N variable-length values packed in
    one blob (Arrow string/binary layout: value v spans
    ``blob[offsets[v]:offsets[v+1]]``). Vectorizes ACROSS values, looping
    only over the max block count: per 8-byte block index j it gathers
    one word per value (8 byte-gathers) and applies the lane update under
    an "is this value still active" mask — sequential only in j, which is
    ``max_len/8`` iterations (tiny for typical dictionary entries)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    buf = np.frombuffer(blob, dtype=np.uint8) if isinstance(blob, bytes) \
        else np.asarray(blob, dtype=np.uint8)
    # pad so every 8-byte gather stays in bounds
    buf = np.concatenate([buf, np.zeros(8, dtype=np.uint8)])
    starts = offsets[:-1]
    lengths = (offsets[1:] - starts).astype(np.int64)
    nblocks = lengths >> 3
    c1, c2 = np.uint64(_C1), np.uint64(_C2)

    def gather_word(base: np.ndarray) -> np.ndarray:
        # inactive rows may index past their value (their result is masked
        # out) — clamp so the gather itself stays in bounds
        base = np.minimum(base, len(buf) - 8)
        w = np.zeros(n, dtype=np.uint64)
        for b in range(8):
            w |= buf[base + b].astype(np.uint64) << np.uint64(8 * b)
        return w

    h = np.full(n, np.uint64(seed), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(int(nblocks.max()) if n else 0):
            active = nblocks > j
            k = gather_word(starts + 8 * j)
            k = k * c1
            k = _rotl64(k, 31)
            k = k * c2
            h2 = h ^ k
            h2 = _rotl64(h2, 27)
            h2 = h2 * np.uint64(5) + np.uint64(0x52DCE729)
            h = np.where(active, h2, h)
        tail_len = (lengths & 7).astype(np.int64)
        tbase = starts + 8 * nblocks
        k = np.zeros(n, dtype=np.uint64)
        for b in range(7):
            take = tail_len > b
            k |= np.where(take,
                          buf[tbase + b].astype(np.uint64) << np.uint64(8 * b),
                          np.uint64(0))
        k = k * c1
        k = _rotl64(k, 31)
        k = k * c2
        h = np.where(tail_len > 0, h ^ k, h)
        h = h ^ lengths.view(np.uint64)
        h = _fmix64(h)
    return h


# --- bloom build / probe -----------------------------------------------------


def bloom_params(expected_entries: int, fpp: float = DEFAULT_FPP) -> tuple[int, int]:
    """(numBits, numHashFunctions) per Java ORC, including its round-up
    quirk (always adds 64 - nb % 64, so a multiple of 64 grows by 64)."""
    nb = int(-expected_entries * math.log(fpp) / (math.log(2) ** 2))
    num_bits = nb + (64 - nb % 64)
    k = max(1, round(num_bits / expected_entries * math.log(2)))
    return num_bits, k


def positions(hashes: np.ndarray, k: int, num_bits: int) -> np.ndarray:
    """(len(hashes), k) bit positions via the Java double-hash scheme:
    ``combined = hash1 + i*hash2`` in wrapping 32-bit ints, ``~combined``
    when negative, then ``% numBits``."""
    h = np.asarray(hashes, dtype=np.uint64)
    h1 = h.astype(np.uint32).astype(np.int32).astype(np.int64)
    h2 = (h >> np.uint64(32)).astype(np.uint32).astype(np.int32) \
        .astype(np.int64)
    i = np.arange(1, k + 1, dtype=np.int64)
    with np.errstate(over="ignore"):
        c = (h1[:, None] + i[None, :] * h2[:, None]).astype(np.int64)
    c = ((c & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000  # wrap to int32 range
    c = np.where(c < 0, -c - 1, c)                    # Java: ~combined
    return c % num_bits


def bloom_build(hashes: np.ndarray, expected_entries: int,
                fpp: float = DEFAULT_FPP) -> tuple[int, bytes]:
    """Build one bloom: (numHashFunctions, bitset bytes — little-endian
    64-bit words, ready for the proto ``utf8bitset`` field)."""
    num_bits, k = bloom_params(expected_entries, fpp)
    words = np.zeros(num_bits // 64, dtype=np.uint64)
    if len(hashes):
        p = positions(hashes, k, num_bits)
        np.bitwise_or.at(words, p >> 6,
                         np.uint64(1) << (p & 63).astype(np.uint64))
    return k, words.tobytes()


def bloom_might_contain(k: int, bitset: bytes, hashes: np.ndarray) -> np.ndarray:
    """Vectorized probe: bool per hash (True = maybe present)."""
    words = np.frombuffer(bitset, dtype="<u8")
    num_bits = len(words) * 64
    hashes = np.atleast_1d(np.asarray(hashes, dtype=np.uint64))
    if num_bits == 0 or k <= 0:
        return np.ones(len(hashes), dtype=bool)
    p = positions(hashes, k, num_bits)
    bits = (words[p >> 6] >> (p & 63).astype(np.uint64)) & np.uint64(1)
    return bits.all(axis=1)


_TS_MS_DIV = {"s": None, "ms": 1, "us": 1_000, "ns": 1_000_000}


def hash_arrow_values(arr, dialect: str = "cpp") -> np.ndarray | None:
    """ORC bloom hashes (uint64) for an Arrow array's NON-NULL values, or
    None when the type has no defined ORC bloom hash here. Supported:
    integers/date32 (Wang of the long), timestamps (Wang of the
    floor-millis), floats (Wang of the IEEE bits), string/binary
    (Murmur3-64, vectorized over the offsets buffer).

    ``dialect``: "cpp" = liborc runs EVERY long hash (ints, dates,
    timestamps, double bits) through the Wang mix with arithmetic shifts;
    "java" = the unsigned-shift spec mix. The two coincide on small
    positive longs but diverge on negatives and most large values —
    strings/binary (Murmur3) are the only dialect-independent types."""
    import pyarrow as pa

    arith = dialect == "cpp"
    d = arr.drop_null() if arr.null_count else arr
    t = d.type
    supported = (pa.types.is_integer(t) or pa.types.is_date32(t)
                 or pa.types.is_floating(t) or pa.types.is_timestamp(t)
                 or pa.types.is_string(t)
                 or pa.types.is_large_string(t) or pa.types.is_binary(t)
                 or pa.types.is_large_binary(t))
    if not supported:
        return None
    if len(d) == 0:
        return np.empty(0, dtype=np.uint64)
    if pa.types.is_integer(t):
        return wang_hash64(d.to_numpy(zero_copy_only=False).astype(np.int64),
                           arithmetic_shifts=arith)
    if pa.types.is_date32(t):
        return wang_hash64(d.cast(pa.int32()).to_numpy(zero_copy_only=False)
                           .astype(np.int64), arithmetic_shifts=arith)
    if pa.types.is_timestamp(t):
        v = d.cast(pa.int64()).to_numpy(zero_copy_only=False)
        div = _TS_MS_DIV.get(t.unit, 1_000)
        if div is None:
            ms = v * 1_000
        else:
            # liborc derives millis from its (trunc-toward-zero seconds,
            # SIGNED nanos) pair — net effect: TRUNCATED division, not
            # floor (pinned by the -123 µs → 0 ms single-value bloom)
            ms = np.floor_divide(v, div)
            ms += ((v % div != 0) & (v < 0)).astype(np.int64)
        return wang_hash64(ms, arithmetic_shifts=arith)
    if pa.types.is_floating(t):
        v = d.cast(pa.float64()).to_numpy(zero_copy_only=False)
        return wang_hash64(v.view(np.int64), arithmetic_shifts=arith)
    if pa.types.is_string(t) or pa.types.is_large_string(t) \
            or pa.types.is_binary(t) or pa.types.is_large_binary(t):
        import pyarrow.compute as pc

        # a bloom of the DISTINCT values is bit-identical to a bloom of
        # all values (set semantics) — hash each value once
        d = pc.unique(d)
        big = pa.large_binary() if not pa.types.is_string(t) \
            and not pa.types.is_large_string(t) else pa.large_string()
        sa = d.cast(big).combine_chunks() if isinstance(d, pa.ChunkedArray) \
            else d.cast(big)
        offs = np.frombuffer(sa.buffers()[1], dtype=np.int64,
                             count=len(sa) + 1, offset=8 * sa.offset)
        data = sa.buffers()[2]
        blob = np.frombuffer(data, dtype=np.uint8) if data is not None \
            else np.empty(0, dtype=np.uint8)
        return murmur3_hash64_many(blob, offs)
    return None


def hash_literal(lit, dialect: str | None = "cpp") -> int | None:
    """The bloom hash of one predicate literal (None → unhashable type,
    caller must not prune). Numeric literals need ``dialect`` ("cpp" or
    "java" — the two Wang variants diverge outside small positive longs;
    readers dispatch on the footer's writer-implementation field); pass
    None when the writer is unknown and numerics become unprunable.
    String/bytes literals (Murmur3) are dialect-independent."""
    if isinstance(lit, bool):
        return None
    if isinstance(lit, str):
        return murmur3_hash64(lit.encode("utf-8"))
    if isinstance(lit, (bytes, bytearray)):
        return murmur3_hash64(bytes(lit))
    if dialect not in ("cpp", "java"):
        return None
    arith = dialect == "cpp"
    if isinstance(lit, (int, np.integer)):
        return int(wang_hash64(np.array([lit]), arithmetic_shifts=arith)[0])
    if isinstance(lit, (float, np.floating)):
        return int(wang_hash64(np.array([lit], dtype=np.float64)
                               .view(np.int64), arithmetic_shifts=arith)[0])
    return None
