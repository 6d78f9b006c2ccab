"""StripeEncoder — the stateful encode stage (actor-pool `map_batches` callable).

One Arrow batch in → one stripe file out + one metrics row back. The analog of
the reference's StripeWriter+OrcWriter write path
(``/root/reference/src/ApacheOrcDotNet/Stripes/StripeWriter.cs:123-191``) with
the state discipline inverted to fit Ray: all dictionary/symbol-table/stats
state is stripe-local (the reference resets it per stripe anyway,
``StripeWriter.cs:186-190``), so the stage is a pure function of its batch —
which makes Ray task retries idempotent: output names are content-hashed, a
retried task rewrites the same file.

Use as::

    ds.map_batches(StripeEncoder, fn_constructor_kwargs=dict(out_dir=...),
                   batch_format="pyarrow", batch_size=..., concurrency=N)
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


class StripeEncoder:
    def __init__(
        self,
        out_dir: str,
        config: EncodeConfig | None = None,
        key_column: str | None = None,
        lineage_columns: tuple[str, ...] = (),
        adaptive_fsst_by: str | None = None,
    ):
        self.out_dir = out_dir
        self.config = config or EncodeConfig()
        self.key_column = key_column
        self.lineage_columns = lineage_columns
        # per-ACTOR adaptive state: source value → {column: FSST symbol table}.
        # Symbol tables are re-used across stripes of the same source (they
        # are still serialized into every stripe, so stripes stay
        # self-describing and independently decodable).
        self.adaptive_fsst_by = adaptive_fsst_by
        self._fsst_cache: dict = {}
        os.makedirs(out_dir, exist_ok=True)

    def _fsst_tables_for(self, batch: pa.Table) -> dict | None:
        if not self.adaptive_fsst_by or self.adaptive_fsst_by not in batch.column_names:
            return None
        if batch.num_rows == 0:
            return None
        col = batch.column(self.adaptive_fsst_by)
        src = col[0].as_py()
        if pc.count_distinct(col).as_py() != 1:
            return None  # cache only applies to source-pure stripes
        if len(self._fsst_cache) > 1024:
            self._fsst_cache.clear()  # bound actor memory
        return self._fsst_cache.setdefault(src, {})

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        lineage = self._lineage(batch)
        buf, footer = encode_stripe(batch, self.config, lineage=lineage,
                                    fsst_tables=self._fsst_tables_for(batch))
        content_hash = hashlib.sha256(buf).hexdigest()[:16]
        name = f"stripe-{batch.num_rows}-{content_hash}.oray"
        path = os.path.join(self.out_dir, name)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(buf)
        os.replace(tmp, path)  # atomic; a retried task overwrites identically
        dt = time.perf_counter() - t0

        n_values = sum(s["n"] for s in footer["streams"] if s["kind"] == "DATA")
        return pa.Table.from_pylist(
            [
                {
                    "path": path,
                    "rows": batch.num_rows,
                    "raw_bytes": batch.nbytes,
                    "encoded_bytes": len(buf),
                    "n_values": n_values,
                    "encode_seconds": dt,
                    "columns_json": json.dumps(footer["columns"]),
                    "content_hash": content_hash,
                    "lineage_json": json.dumps(lineage or {}),
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
