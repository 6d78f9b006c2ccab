"""StripeEncoder — the encode stage, a task-pool `map_batches` callable.

One Arrow batch in → one stripe file out + one metrics row back. The analog of
the reference's StripeWriter+OrcWriter write path
(``/root/reference/src/ApacheOrcDotNet/Stripes/StripeWriter.cs:123-191``) with
the state discipline inverted to fit Ray: all dictionary/symbol-table/stats
state is stripe-local (the reference resets it per stripe anyway,
``StripeWriter.cs:186-190``), so a stripe's bytes and its content-hashed
name depend only on its own rows — which makes Ray task retries idempotent:
a retried task rewrites the same file.

Use as::

    ds.map_batches(StripeEncoder(out_dir).__call__, batch_format="pyarrow",
                   batch_size=...)
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc

from ..stripe import EncodeConfig, encode_stripe

METRICS_SCHEMA = pa.schema(
    [
        ("path", pa.string()),
        ("rows", pa.int64()),
        ("raw_bytes", pa.int64()),
        ("encoded_bytes", pa.int64()),
        ("n_values", pa.int64()),
        ("encode_seconds", pa.float64()),
        ("columns_json", pa.string()),
        ("content_hash", pa.string()),
        ("lineage_json", pa.string()),
    ]
)


def write_stripe_file(table: pa.Table, config: EncodeConfig, lineage: dict,
                      out_dir: str, stem: str) -> tuple[str, str, int, int, dict]:
    """Encode ``table`` as one stripe to ``out_dir/<stem>-<content hash>.oray``.

    Returns (path, content hash, encoded bytes, DATA values, footer)."""
    buf, footer = encode_stripe(table, config, lineage=lineage)
    content_hash = hashlib.sha256(buf).hexdigest()[:16]
    path = os.path.join(out_dir, f"{stem}-{content_hash}.oray")
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(buf)
    os.replace(tmp, path)  # atomic; a retried task overwrites identically
    n_values = sum(s["n"] for s in footer["streams"] if s["kind"] == "DATA")
    return path, content_hash, len(buf), n_values, footer


class StripeEncoder:
    def __init__(
        self,
        out_dir: str,
        config: EncodeConfig | None = None,
        key_column: str | None = None,
        lineage_columns: tuple[str, ...] = (),
    ):
        self.out_dir = out_dir
        self.config = config or EncodeConfig()
        self.key_column = key_column
        self.lineage_columns = lineage_columns
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        lineage = self._lineage(batch)
        path, content_hash, encoded_bytes, n_values, footer = write_stripe_file(
            batch, self.config, lineage, self.out_dir, f"stripe-{batch.num_rows}")
        return pa.Table.from_pylist(
            [
                {
                    "path": path,
                    "rows": batch.num_rows,
                    "raw_bytes": batch.nbytes,
                    "encoded_bytes": encoded_bytes,
                    "n_values": n_values,
                    "encode_seconds": time.perf_counter() - t0,
                    "columns_json": json.dumps(footer["columns"]),
                    "content_hash": content_hash,
                    "lineage_json": json.dumps(lineage),
                }
            ],
            schema=METRICS_SCHEMA,
        )

    def _lineage(self, batch: pa.Table) -> dict:
        lineage: dict = {"rows": batch.num_rows}
        if self.key_column and self.key_column in batch.column_names and batch.num_rows:
            mm = pc.min_max(batch.column(self.key_column))
            lineage["key_column"] = self.key_column
            lineage["key_min"] = str(mm["min"].as_py())
            lineage["key_max"] = str(mm["max"].as_py())
        for c in self.lineage_columns:
            if c in batch.column_names and batch.num_rows:
                lineage[c] = str(batch.column(c)[0].as_py())
        return lineage
