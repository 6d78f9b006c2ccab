"""Per-stripe Bloom filters for equality-predicate pruning.

ORC's spec carries optional per-column bloom filters next to the row index;
the C# reference never implemented them, but they are the missing half of
stat-based pruning: footer min/max prunes RANGE predicates well only when
data is clustered, while a point lookup (``col == x``) on an unclustered
key matches almost every stripe's [min, max]. A ~1% false-positive bloom
(10 bits/distinct value, capped) prunes those stripes at the same tail-only
footer read.

Hashing uses polars' xxhash (the same vectorized kernel the partitioners
use) for both the vectorized build and the scalar probe. The polars version
is recorded next to the filter: a reader under a different polars ignores
the bloom (advisory-only — a hash mismatch must never cause a false
negative, which would silently drop rows).
"""

from __future__ import annotations

import base64

import numpy as np


def _hashes(values) -> np.ndarray:
    """Stable uint64 hashes for an Arrow array / numpy array of values."""
    import polars as pl
    import pyarrow as pa

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        s = pl.from_arrow(values)
    else:
        s = pl.Series(values)
    return s.hash(seed=11).to_numpy().astype(np.uint64)


def hash_version() -> str:
    import polars

    return f"polars-{polars.__version__}"


def build(values, bits_per_value: int = 10, max_bits: int = 1 << 16,
          k: int = 6) -> dict:
    """Bloom dict {m, k, bits(base64)} from an Arrow array of non-null
    values (duplicates fine — they set the same bits)."""
    h = np.unique(_hashes(values))
    m = 1 << int(np.ceil(np.log2(max(len(h) * bits_per_value, 64))))
    m = min(m, max_bits)
    h2 = (h >> np.uint64(17)) | np.uint64(1)
    idx = (h[:, None] + np.arange(k, dtype=np.uint64)[None, :] * h2[:, None]) \
        % np.uint64(m)
    bits = np.zeros(m // 8, dtype=np.uint8)
    np.bitwise_or.at(bits, (idx // 8).astype(np.int64),
                     (np.uint8(1) << (idx % 8).astype(np.uint8)))
    return {"m": int(m), "k": k,
            "bits": base64.b64encode(bits.tobytes()).decode()}


def might_contain(bloom: dict, value) -> bool:
    """Probe for one value: a ``pa.Scalar`` of the column's type (the
    ``predicate.Term.probe`` of an equality term), or a plain Python value
    hashed as its inferred type. polars hashes 577 (Int64) and 577.0
    (Float64) differently, so a probe in any type other than the column's
    could give a false negative: ``Term.probe`` is that exact cast."""
    import pyarrow as pa

    h = np.uint64(_hashes(pa.array([value]))[0])
    m = np.uint64(bloom["m"])
    bits = np.frombuffer(base64.b64decode(bloom["bits"]), dtype=np.uint8)
    h2 = (h >> np.uint64(17)) | np.uint64(1)
    for i in range(bloom["k"]):
        pos = (h + np.uint64(i) * h2) % m
        if not bits[int(pos) // 8] & (1 << (int(pos) % 8)):
            return False
    return True
