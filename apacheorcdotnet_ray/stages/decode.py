"""StripeDecoder — stateless decode stage for `map_batches`.

Input batches carry one row per stripe file: its ``path`` and, for a slice,
a stripe-local ``row_range`` (``sources.stripes.decode_paths`` and
``read_row_range`` build them).
Each task reads and decodes its stripes one at a time; output is the decoded
Arrow table. The analog of the reference's read path (OrcReader.cs:18-47)
except we never materialize rows — streams decode straight into Arrow arrays
(values+offsets+validity), cf. SURVEY.md §2.4 T5.
"""

from __future__ import annotations

import logging

import pyarrow as pa

from ..stripe.container import decode_stripe
from ..stripe.deletes import read_delete_mask

log = logging.getLogger(__name__)


class StripeDecoder:
    def __init__(self, columns: list[str] | None = None,
                 predicate: tuple | None = None,
                 schema: pa.Schema | None = None,
                 on_error: str = "raise",
                 fallback_schema: pa.Schema | None = None):
        self.columns = columns
        # (col, op, lit) or a list of them: only matching rows leave the
        # task; row-indexed stripes skip non-qualifying strides first
        self.predicate = predicate
        # target schema for schema-evolved stripe sets (the reference's
        # missing-column tolerance, RoundTrip_Test.cs:40-62): columns absent
        # from a stripe decode as typed nulls; present-but-narrower columns
        # cast up. None = stripes are schema-homogeneous.
        self.schema = schema
        # "raise" (default: a corrupt stripe fails the task, Ray retries) |
        # "skip" (log + drop the stripe — the operational mode for huge
        # corpora where one rotten file must not kill a day-long job; the
        # skip count is visible in Ray's captured task logs)
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', not {on_error!r}")
        self.on_error = on_error
        # skip-mode safety net: when EVERY stripe of a task is corrupt, the
        # empty output still needs a schema (a schema-less pa.table({})
        # makes downstream blocks heterogeneous and column refs fail) —
        # read_stripes derives this from the first readable footer
        self.fallback_schema = fallback_schema

    def _conform(self, table: pa.Table) -> pa.Table:
        cols = {}
        for f in self.schema:
            if f.name in table.column_names:
                cols[f.name] = table.column(f.name)
            else:
                cols[f.name] = pa.nulls(table.num_rows, f.type)
        return pa.table(cols).cast(self.schema)

    def __call__(self, batch: pa.Table) -> pa.Table:
        paths = batch.column("path").to_pylist()
        ranges = (batch.column("row_range").to_pylist()
                  if "row_range" in batch.column_names else [None] * len(paths))
        tables = []
        skipped = 0
        for path, rr in zip(paths, ranges):
            try:
                with open(path, "rb") as f:
                    buf = f.read()
                # merge-on-read deletes (stripe/deletes.py): the stripe's
                # <file>.del sidecar, if any, is the final row filter
                tables.append(decode_stripe(
                    buf, columns=self.columns, predicate=self.predicate,
                    row_range=rr,
                    delete_mask=read_delete_mask(path)))
            except Exception as e:  # noqa: BLE001 — skip means skip: a
                # missing file raises OSError, a corrupt footer or stream
                # ValueError; none of them may kill a skip-mode job
                if self.on_error != "skip":
                    e.add_note(f"stripe file: {path}")
                    raise
                skipped += 1
                log.warning("StripeDecoder: skipping unreadable stripe %s (%s)",
                            path, e)
        if skipped:
            log.warning("StripeDecoder: skipped %d/%d stripes in batch",
                        skipped, len(paths))
        if self.schema is not None:
            tables = [self._conform(t) for t in tables]
        if not tables:
            if self.schema is not None:
                return self.schema.empty_table()
            if self.fallback_schema is not None:
                return self.fallback_schema.empty_table()
            return pa.table({})
        return pa.concat_tables(tables)
