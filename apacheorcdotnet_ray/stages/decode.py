"""StripeDecoder — stateless decode stage for `map_batches`.

Input batches carry stripe file contents (from ``ray.data.read_binary_files``)
or paths; output is the decoded Arrow table. The analog of the reference's
read path (OrcReader.cs:18-47) except we never materialize rows — streams
decode straight into Arrow arrays (values+offsets+validity), cf. SURVEY.md §2.4 T5.
"""

from __future__ import annotations

import pyarrow as pa

from ..stripe.container import decode_stripe


class StripeDecoder:
    def __init__(self, columns: list[str] | None = None,
                 predicate: tuple | None = None,
                 schema: pa.Schema | None = None,
                 on_error: str = "raise",
                 fallback_schema: pa.Schema | None = None,
                 apply_deletes: bool = True):
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
        assert on_error in ("raise", "skip")
        self.on_error = on_error
        # skip-mode safety net: when EVERY stripe of a task is corrupt, the
        # empty output still needs a schema (a schema-less pa.table({})
        # makes downstream blocks heterogeneous and column refs fail) —
        # read_stripes derives this from the first readable footer
        self.fallback_schema = fallback_schema
        # merge-on-read delete vectors (stripe/deletes.py): when input
        # batches carry paths, each stripe's <file>.del sidecar (if any) is
        # applied as a final row filter. Requires read_binary_files(...,
        # include_paths=True); bytes-only input decodes without deletes.
        self.apply_deletes = apply_deletes

    def _conform(self, table: pa.Table) -> pa.Table:
        cols = {}
        for f in self.schema:
            if f.name in table.column_names:
                cols[f.name] = table.column(f.name)
            else:
                cols[f.name] = pa.nulls(table.num_rows, f.type)
        return pa.table(cols).cast(self.schema)

    def __call__(self, batch: pa.Table) -> pa.Table:
        paths = (batch.column("path").to_pylist()
                 if "path" in batch.column_names else None)
        if "bytes" not in batch.column_names and paths is None:
            raise ValueError(
                "StripeDecoder input must carry a 'bytes' or 'path' column "
                f"(got {batch.column_names})")
        if "bytes" in batch.column_names:
            blobs = batch.column("bytes").to_pylist()
        else:  # paths only
            blobs = []
            for p in paths:
                with open(p, "rb") as f:
                    blobs.append(f.read())
        masks = [None] * len(blobs)
        if self.apply_deletes and paths is not None:
            from ..stripe.deletes import read_delete_mask

            masks = [read_delete_mask(p) for p in paths]
        tables = []
        skipped = 0
        for b, dm in zip(blobs, masks):
            try:
                tables.append(decode_stripe(b, columns=self.columns,
                                            predicate=self.predicate,
                                            delete_mask=dm))
            except Exception as e:  # noqa: BLE001 — skip means skip: footer
                # corruption raises zlib.error/json errors, stream corruption
                # ValueError; all of them must not kill a skip-mode job
                if self.on_error != "skip":
                    raise
                skipped += 1
                print(f"StripeDecoder: skipping corrupt stripe ({e})")
        if skipped:
            print(f"StripeDecoder: skipped {skipped}/{len(blobs)} stripes in batch")
        if self.schema is not None:
            tables = [self._conform(t) for t in tables]
        if not tables:
            if self.schema is not None:
                return self.schema.empty_table()
            if self.fallback_schema is not None:
                return self.fallback_schema.empty_table()
            return pa.table({})
        return pa.concat_tables(tables)
