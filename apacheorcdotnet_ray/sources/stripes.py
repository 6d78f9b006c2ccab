"""Read a directory of .oray stripe files back as a ray.data.Dataset.

One stripe = one independent unit of decode (the reference's stripes are
self-describing for the same reason, Stripes/StripeReader.cs:38-61), so a
Dataset of stripe paths + a stateless decode ``map_batches`` parallelizes
embarrassingly: each decode task opens and decodes its own stripe files,
streaming with backpressure. ``read_binary_files`` would do the same reads
but costs about 40 ms more per query (Ray 2.49, 1 CPU).

This module holds the package's one file-to-task rule, for both formats:

- ``map_paths`` is the only place a list of file rows (``.oray`` stripes,
  ORC stripes, parquet partitions, delete candidates, compaction bins)
  becomes Ray tasks: ``from_items`` in as many blocks as Ray Data's read
  rule gives (``encode_num_blocks``), one call of the task function per
  block, except that a job under ``target_min_block_size`` (1 MiB) gets
  one block per CPU rather than two: a small read's second task per CPU
  only adds a task's fixed cost;
- ``map_footers`` is the only tail scan fan-out: serial on the driver for
  a few hundred files, chunked Ray tasks above that;
- ``project_schema`` types every all-pruned read's empty result.

Predicate pushdown (the reference's ROW_INDEX/seek-statistics analog,
ColumnTypes/ColumnWriterStatistics.cs:12-33): stripe footers carry per-column
min/max stats, so whole stripe files whose stat range cannot satisfy the
predicate are pruned driver-side by a cheap tail read — only surviving
stripes are scheduled, and each decode task returns only the matching rows.
Every level evaluates the predicate through ``predicate.Bound.may_match``.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import ray.data as rd

from ..predicate import bind, normalize_predicate
from ..stages.decode import StripeDecoder
from ..stripe.container import (BLOOM_HASH, bloom_may_contain, column_meta,
                                footer_schema, parse_footer)


def stripe_paths(stripe_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(stripe_dir, "*.oray")))


def read_stripe_footer(path: str) -> dict:
    """Tail-only footer read (FileTail.cs:22-54): seek to the end, read the
    footer length + compressed footer — never the data segments."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read_tail(n: int) -> bytes:
            f.seek(max(0, size - n))
            return f.read(n)

        return parse_footer(read_tail, path)


def project_schema(schema: pa.Schema, columns: list[str] | None) -> pa.Schema:
    """``schema`` projected to the ``columns`` it has: the type of a read
    that has nothing left to read (a schema-less ``pa.table({})`` breaks
    downstream column references)."""
    if columns is None:
        return schema
    return pa.schema([schema.field(c) for c in columns if c in schema.names])


def map_paths(rows: list[dict], fn, est_bytes: int) -> rd.Dataset:
    """``fn`` over file rows (``{"path": ...}`` per stripe, or any other
    per-file descriptor), in as many blocks as Ray Data would give a read of
    ``est_bytes`` from those files, but one per CPU rather than two below
    ``target_min_block_size`` (``encode_num_blocks``); each task calls
    ``fn`` once on its block's rows, in row order. ``est_bytes`` is what
    the job reads: a row range passes its share of each stripe file."""
    import ray

    from ..pipelines.encode import encode_num_blocks

    n_blocks = encode_num_blocks(
        len(rows), est_bytes, int(ray.cluster_resources().get("CPU", 1)),
        rd.DataContext.get_current())
    return rd.from_items(rows, override_num_blocks=n_blocks).map_batches(
        fn, batch_format="pyarrow", batch_size=None)


def decode_paths(rows: list[dict], decoder: StripeDecoder) -> rd.Dataset:
    """``decoder`` over one row per whole stripe (``{"path": ...}``), sized
    by the stripe files' bytes (``read_row_range`` sizes its slices)."""
    return map_paths(rows, decoder.__call__,
                     sum(os.path.getsize(r["path"]) for r in rows))


def stripe_may_match(footer: dict, predicate) -> bool:
    """May this stripe hold a row matching ``predicate``? Its footer stats,
    and for equality terms its bloom (when hashed under ``BLOOM_HASH``;
    the bloom prunes point lookups on unclustered keys that min/max
    cannot), decide; a term on a column the stripe lacks prunes it.
    Binding raises ``ValueError`` for a literal the column cannot take."""
    bloom_ok = footer.get("bloom_hash") == BLOOM_HASH

    def may_contain(term) -> bool:
        bloom = column_meta(footer, term.col).get("bloom")
        return not bloom_ok or bloom is None \
            or bloom_may_contain(bloom, term.probe)
    return bind(predicate, footer_schema(footer)).may_match(
        lambda c: column_meta(footer, c).get("stats"), may_contain)


def map_footers(paths: list[str], fn) -> list:
    """Apply ``fn(path)`` per file (tail-only footer work), fanning out as
    64-file Ray tasks above 256 files — a big corpus has far more files
    than a serial driver scan should touch. The single shared
    implementation for pruning, schema unification, footer stats, ORC
    stripe listing and parquet partition listing."""
    if len(paths) > 256:
        import ray

        @ray.remote(num_cpus=0.25)
        def run(chunk: list[str]) -> list:
            return [fn(p) for p in chunk]

        chunks = [paths[i : i + 64] for i in range(0, len(paths), 64)]
        return [r for sub in ray.get([run.remote(c) for c in chunks]) for r in sub]
    return [fn(p) for p in paths]


def prune_stripes(paths: list[str], predicate) -> list[str]:
    """Stat/bloom-based stripe pruning via tail-only footer reads."""
    preds = normalize_predicate(predicate)
    flags = map_footers(
        paths, lambda p: stripe_may_match(read_stripe_footer(p), preds))
    return [p for p, f in zip(paths, flags) if f]


def unified_schema(paths: list[str]) -> pa.Schema:
    """Union of all stripe footers' schemas, first-seen field order/types —
    the read-side schema-evolution contract (reference RoundTrip_Test.cs:
    40-62 reads with a narrower/wider row shape). Fans out as Ray tasks
    above a few hundred files, like prune_stripes."""
    blobs = map_footers(
        paths,
        lambda p: footer_schema(read_stripe_footer(p)).serialize().to_pybytes())
    schema_list = [pa.ipc.read_schema(pa.py_buffer(b)) for b in blobs]
    seen: dict[str, pa.Field] = {}
    for s in schema_list:
        for f in s:
            if f.name not in seen:
                seen[f.name] = f
            elif seen[f.name].type != f.type:
                # widen: let Arrow pick the common type (errors on
                # genuinely incompatible evolution, which should be loud)
                seen[f.name] = pa.field(
                    f.name, pa.unify_schemas(
                        [pa.schema([seen[f.name]]), pa.schema([f])],
                        promote_options="permissive").field(f.name).type)
    return pa.schema(list(seen.values()))


def read_stripes(
    stripe_dir: str,
    columns: list[str] | None = None,
    predicate=None,
    unify_schema: bool = False,
    on_error: str = "raise",
    lineage_filter: dict | None = None,
) -> rd.Dataset:
    """predicate: one (column, op, literal) triple or a LIST of them (a
    conjunction; ops and literal casts per ``predicate.py``, checked here
    before any task runs); stripes whose footer stats or blooms exclude any
    term are never read, row-indexed stripes additionally skip
    non-qualifying strides, and the decode task late-materializes
    (``columns.read_units``): each stride's predicate columns decode
    first, a stride with no match decodes nothing else, and only matching
    rows, projected to ``columns``, leave the task. unify_schema=True
    tolerates schema-evolved stripe sets: every batch conforms to the union
    of all footers' schemas, with columns missing from a stripe decoded as
    typed nulls; a stripe that lacks a predicate column holds no matching
    row."""
    preds = normalize_predicate(predicate)
    paths = stripe_paths(stripe_dir)
    if not paths:
        raise FileNotFoundError(f"no .oray stripes under {stripe_dir}")
    # unified schema over the FULL stripe set (before pruning) so the
    # all-pruned empty path and the decode path agree on one schema
    target_schema = unified_schema(paths) if unify_schema else None
    if target_schema is not None and columns is not None:
        unknown = [c for c in columns if c not in target_schema.names]
        if unknown:
            raise ValueError(
                f"columns {unknown} exist in no stripe's schema under {stripe_dir}")
        target_schema = pa.schema([target_schema.field(c) for c in columns])
    if lineage_filter or preds:
        # ONE footer pass for both pruning axes (folding lineage + stat/
        # bloom checks avoids a second map_footers wave over the corpus):
        # - lineage: grouped encodes stamp each stripe with its group key
        #   (e.g. source), so a per-source read touches only those stripes;
        #   stripes WITHOUT the key are kept conservatively (values compared
        #   as strings on both sides — lineage stamps are stringified).
        # - predicate: footer min/max + bloom checks.
        def keep_stripe(p: str) -> bool:
            footer = read_stripe_footer(p)
            if lineage_filter:
                lin = footer.get("lineage", {})
                if not all(k not in lin or str(lin[k]) == str(v)
                           for k, v in lineage_filter.items()):
                    return False
            return stripe_may_match(footer, preds) if preds else True

        flags = map_footers(paths, keep_stripe)
        kept = [p for p, f in zip(paths, flags) if f]
        if not kept:
            # everything pruned: the unified schema when unify_schema is
            # on, else the first footer's
            sch = (target_schema if target_schema is not None
                   else footer_schema(read_stripe_footer(paths[0])))
            return rd.from_arrow(project_schema(sch, columns).empty_table())
        paths = kept
    fallback_schema = None
    if on_error == "skip" and target_schema is None:
        # derive the typed-empty schema for all-corrupt tasks from the first
        # READABLE footer (one driver-side tail read; corrupt candidates are
        # skipped the same way the decode tasks will skip them)
        for p in paths[:8]:
            try:
                fallback_schema = project_schema(
                    footer_schema(read_stripe_footer(p)), columns)
            except Exception:  # noqa: BLE001 — corrupt candidate, try next
                continue
            break
    # stateless → plain-function task pool; the predicate skips
    # non-qualifying strides and filters rows inside each task
    decoder = StripeDecoder(columns=columns, predicate=preds or None,
                            schema=target_schema, on_error=on_error,
                            fallback_schema=fallback_schema)
    return decode_paths([{"path": p} for p in paths], decoder)


def _natural_key(path: str) -> tuple:
    """Numeric-aware filename sort: 'rg10' orders after 'rg2' (plain
    lexicographic glob order would interleave rowgroup spans at >=10
    rowgroups, breaking the corpus row-order contract)."""
    import re

    name = os.path.basename(path)
    return tuple(int(p) if p.isdigit() else p
                 for p in re.split(r"(\d+)", name))


def read_row_range(
    stripe_dir: str,
    offset: int,
    limit: int,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Rows [offset, offset + limit) of the corpus in encode order — the
    trainer fast-forward path (resume an interrupted epoch without
    re-streaming the prefix). Corpus row order = stripe files in
    numeric-aware name order (encoders name stripes
    <source>_rg<span>-s<idx>-<hash>.oray, so this is input order).

    Cost is proportional to the RANGE, not the corpus: per-stripe row
    counts come from tail-only footer reads (fanned out as tasks on big
    corpora), non-overlapping stripes are never opened, and inside a
    strided stripe only the overlapping strides decompress
    (decode_stripe's row_range seek, the ORC ROW_INDEX skip analog)."""
    paths = sorted(stripe_paths(stripe_dir), key=_natural_key)
    if not paths:
        raise FileNotFoundError(f"no .oray stripes under {stripe_dir}")
    counts = map_footers(paths, lambda p: read_stripe_footer(p)["rows"])
    start, want = max(0, int(offset)), max(0, int(limit))
    rows = []
    acc = est_bytes = 0
    for p, n in zip(paths, counts):
        lo = max(start, acc)
        hi = min(start + want, acc + n)
        if lo < hi:
            rows.append({"path": p, "row_range": (lo - acc, hi - acc)})
            # the range's share of the stripe, not the whole file
            est_bytes += os.path.getsize(p) * (hi - lo) // n
        acc += n
    if not rows:
        return rd.from_arrow(project_schema(
            footer_schema(read_stripe_footer(paths[0])), columns).empty_table())

    # rows must come out in encode order, but Ray Data's default
    # preserve_order=False lets blocks surface in task-COMPLETION order
    # under load. The DataContext is captured per-dataset at creation, so
    # toggling the flag around creation pins THIS dataset without leaking
    # the (slightly less pipelined) setting to unrelated datasets.
    from ray.data import DataContext

    ctx = DataContext.get_current()
    prev = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        # row_range addresses PHYSICAL rows (stable across deletes, so a
        # resume offset never shifts); deleted rows drop from the slice
        return map_paths(rows, StripeDecoder(columns=columns).__call__,
                         est_bytes)
    finally:
        ctx.execution_options.preserve_order = prev
