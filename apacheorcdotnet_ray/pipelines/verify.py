"""Decode-side verification: the per-row invariant is token-array equality
keyed by doc_id (BASELINE.json input_hint). Distributed comparison: both sides
hash their rows per batch (vectorized), then the comparison is an aggregate
over tiny hash partials — no driver-side row loops, no full materialization."""

from __future__ import annotations

import numpy as np

# polars imports at module level: its lazy submodule init is not
# thread-safe, and Ray workers can hit first-use concurrently from
# multiple task threads (observed: AttributeError on polars._reexport)
import polars  # noqa: F401

import pyarrow as pa
import ray.data as rd


def _row_fingerprints(batch: pa.Table, key: str) -> pa.Table:
    """One (xor-fold row-hash, row-count) partial per batch. Vectorized via
    polars hash_rows (Rust kernel, handles list columns)."""
    import polars as pl

    df = pl.from_arrow(batch.select(sorted(batch.column_names)))
    hashes = df.hash_rows(seed=0).to_numpy()
    acc = int(np.bitwise_xor.reduce(hashes)) if len(hashes) else 0
    return pa.table({"xor_hash": pa.array([acc & (2**63 - 1)], type=pa.int64()),
                     "rows": pa.array([len(hashes)], type=pa.int64())})


def verify_roundtrip(source_ds: rd.Dataset, decoded_ds: rd.Dataset, key: str = "doc_id") -> dict:
    """Both sides fingerprint in ONE streamed execution: tagged partials from
    a union pipeline, so source read and stripe decode overlap instead of
    running as two sequential barriers."""
    import pyarrow as pa

    def tagged(side: str):
        def fn(b: pa.Table) -> pa.Table:
            t = _row_fingerprints(b, key)
            return t.append_column("side", pa.array([side] * t.num_rows))

        return fn

    parts = (
        source_ds.map_batches(tagged("src"), batch_format="pyarrow")
        .union(decoded_ds.map_batches(tagged("dec"), batch_format="pyarrow"))
        .take_all()
    )
    acc = {"src": 0, "dec": 0}
    rows = {"src": 0, "dec": 0}
    for p in parts:
        acc[p["side"]] ^= p["xor_hash"]
        rows[p["side"]] += p["rows"]
    return {
        "rows_match": rows["src"] == rows["dec"],
        "content_match": acc["src"] == acc["dec"],
        "source_rows": rows["src"],
        "decoded_rows": rows["dec"],
    }
