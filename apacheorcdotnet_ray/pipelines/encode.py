"""Encode / decode pipelines.

Two write paths, mirroring how the reference separates streaming ingest from
its stripe/file bookkeeping (OrcWriter.cs:57-104):

- ``encode_dataset``: streaming Dataset-native path — any ``ray.data.Dataset``
  flows through a task-pool ``map_batches`` of ``StripeEncoder``; one stripe
  per batch; returns the metrics Dataset (one small row per stripe).
- ``encode_corpus``: the resumable job path for parquet corpora. Input is
  deterministically partitioned by (file, row-group range) from parquet
  metadata; Ray tasks take contiguous runs of partitions, sized the way Ray
  Data sizes a read; each partition reads only its fragment, writes
  content-hash-named stripes + a lineage record; the driver folds records into
  ``manifest.jsonl`` + a job summary with file-level stats (the reference's
  stride→stripe→file stats roll-up, StripeWriter.cs:151-158, as a tiny driver
  reduce). Rerunning skips completed partitions (checkpoint/resume per the
  north rule).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..sources.stripes import (map_footers, map_paths, read_stripe_footer,
                               read_stripes, stripe_paths)
from ..stages.encode import StripeEncoder, write_stripe_file
from ..state.manifest import Manifest
from ..stripe import EncodeConfig
from ..stripe.stats import merge_stats

_STRIPE_ROWS = 100_000  # stripe rows where no value count sizes a stripe
_ROW_GROUPS = 4  # parquet row groups per encode_corpus partition


def encode_dataset(
    ds: rd.Dataset,
    out_dir: str,
    config: EncodeConfig | None = None,
    batch_size: int | None = None,
) -> rd.Dataset:
    """Streaming encode: Dataset → stripe files under out_dir + metrics Dataset."""
    enc = StripeEncoder(out_dir=out_dir, config=config, key_column="doc_id")
    return ds.map_batches(
        enc.__call__,
        batch_format="pyarrow",
        batch_size=batch_size or _STRIPE_ROWS,
        zero_copy_batch=True,
    )


decode_dataset = read_stripes  # the decode path's name for the stripe reader


# ---------------------------------------------------------------------------
# source-keyed stripe packing with explicit skew splitting (north rule)


def encode_grouped(
    ds: rd.Dataset,
    out_dir: str,
    config: EncodeConfig | None = None,
    stripe_value_budget: int | None = None,
) -> rd.Dataset:
    """Encode with stripes packed per ``source`` (one source never mixes into
    another's stripes) and hot sources split explicitly:

    1. ``grouped_sum`` measures each source's weight: its ``n_tok`` total
       (flattened values) when that column exists, against
       ``config.target_stripe_values``, else its row count, against
       100,000 rows (the shuffle moves one row per (batch, source), never
       data rows);
    2. any source whose weight exceeds the stripe budget is split into
       ``ceil(total/budget)`` salted sub-keys; rows are assigned
       ``salt = hash(doc_id) % n_salts`` — deterministic, uniform, and
       coordination-free, so one giant source cannot serialize the job;
    3. ``groupby(stripe_key)`` co-locates each sub-group and ``map_groups``
       encodes exactly one stripe per group.

    Returns the metrics Dataset (one row per stripe, same schema as
    ``StripeEncoder``)."""
    from .shuffle import grouped_sum

    key, id_col = "source", "doc_id"
    config = config or EncodeConfig()
    os.makedirs(out_dir, exist_ok=True)

    by_values = "n_tok" in ds.schema().names
    budget = stripe_value_budget or (
        config.target_stripe_values if by_values else _STRIPE_ROWS)

    def weight(batch: pa.Table) -> pa.Table:
        w = (batch.column("n_tok") if by_values
             else np.ones(batch.num_rows, dtype=np.int64))
        return pa.table({key: batch.column(key), "w": w})

    totals = grouped_sum(ds.map_batches(weight, batch_format="pyarrow"),
                         [key], ["w"]).take_all()  # tiny: one row per source
    n_salts = {r[key]: max(1, -(-int(r["w"]) // budget)) for r in totals}
    salts_ref = ray.put(n_salts)

    def add_stripe_key(batch: pa.Table) -> pa.Table:
        import polars as pl
        import pyarrow.compute as pc

        salts = ray.get(salts_ref)
        # per-row salt count via dictionary-encode: Python touches only the
        # batch's DISTINCT keys, never one entry per row
        keys = batch.column(key).combine_chunks()
        codes = pc.dictionary_encode(keys)
        ns_by_code = np.array(
            [salts.get(s, 1) for s in codes.dictionary.to_pylist()],
            dtype=np.uint64)
        ns = ns_by_code[codes.indices.to_numpy()]
        h = pl.from_arrow(batch.select([id_col])).hash_rows(seed=2).to_numpy()
        salt = (h % ns).astype(np.int64)
        sk = pc.binary_join_element_wise(
            pc.cast(keys, pa.string()),
            pc.cast(pa.array(salt), pa.string()), "#")
        return batch.append_column("_stripe_key", sk)

    enc = StripeEncoder(out_dir=out_dir, config=config, key_column=id_col,
                        lineage_columns=(key,))

    def encode_group(group: pa.Table) -> pa.Table:
        return enc(group.drop_columns(["_stripe_key"]))

    return (
        ds.map_batches(add_stripe_key, batch_format="pyarrow")
        .groupby("_stripe_key")
        .map_groups(encode_group, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# stripe compaction


def compact_stripes(
    stripe_dir: str,
    out_dir: str,
    target_values: int | None = None,
) -> dict:
    """Merge undersized stripes into target-sized ones (the cleanup pass a
    grouped encode of many small sources needs). Driver plans bins from
    tail-only footer reads (never data); one task per bin decodes its members
    and re-encodes one merged stripe with the default ``EncodeConfig``.
    Stripes already at/above target copy through untouched (no re-encode
    cost)."""
    from ..stages.decode import StripeDecoder

    budget = target_values or EncodeConfig().target_stripe_values
    os.makedirs(out_dir, exist_ok=True)

    small_bins: list[list[str]] = []
    passthrough: list[str] = []
    cur: list[str] = []
    cur_vals = 0
    paths = stripe_paths(stripe_dir)
    n_values = map_footers(paths, lambda p: sum(
        s["n"] for s in read_stripe_footer(p)["streams"] if s["kind"] == "DATA"))
    for p, nvals in zip(paths, n_values):
        if nvals >= budget:
            passthrough.append(p)
            continue
        if cur and cur_vals + nvals > budget:
            small_bins.append(cur)
            cur, cur_vals = [], 0
        cur.append(p)
        cur_vals += nvals
    if cur:
        small_bins.append(cur)

    import shutil

    for p in passthrough:
        dst = os.path.join(out_dir, os.path.basename(p))
        if not os.path.exists(dst):
            shutil.copy(p, dst)
        # merge-on-read deletes travel with a passthrough copy (merged bins
        # instead apply them physically via StripeDecoder and start clean).
        # Data stripes are immutable (skip-if-exists is safe) but sidecars
        # are NOT: a re-run after further delete_where calls on the source
        # must OR-merge into the destination's sidecar, or the newly
        # deleted rows resurface in the compacted corpus.
        from ..stripe.deletes import read_delete_mask, write_delete_mask

        src_mask = read_delete_mask(p)
        if src_mask is not None:
            write_delete_mask(dst, src_mask)  # idempotent OR-merge

    merged = 0
    if small_bins:
        enc = StripeEncoder(out_dir=out_dir)
        dec = StripeDecoder()

        def compact_bin(batch: pa.Table) -> pa.Table:
            tables = []
            for paths_json in batch.column("paths").to_pylist():
                blobs = pa.table({"path": pa.array(json.loads(paths_json))})
                tables.append(enc(dec(blobs)))
            return pa.concat_tables(tables)

        merged = map_paths(
            [{"paths": json.dumps(b)} for b in small_bins], compact_bin,
            sum(os.path.getsize(p) for b in small_bins for p in b)).count()
    return {
        "input_stripes": len(passthrough) + sum(len(b) for b in small_bins),
        "passthrough": len(passthrough),
        "merged_bins": len(small_bins),
        "output_stripes": len(passthrough) + merged,
    }


# ---------------------------------------------------------------------------
# resumable partition-mapped job


def _file_partitions(path: str) -> list[dict]:
    md = pq.ParquetFile(path).metadata
    n_rg = md.num_row_groups
    size = os.path.getsize(path)
    parts = []
    for start in range(0, n_rg, _ROW_GROUPS):
        end = min(start + _ROW_GROUPS, n_rg)
        rgs = [md.row_group(i) for i in range(start, end)]
        parts.append(
            {
                "partition_id": f"{os.path.basename(path)}:rg{start}-{end}",
                "path": path,
                "rg_start": start,
                "rg_end": end,
                "rows": sum(rg.num_rows for rg in rgs),
                "byte_size": sum(rg.total_byte_size for rg in rgs),
                "fingerprint": f"{size}-{md.num_rows}",
            }
        )
    return parts


def enumerate_partitions(paths: list[str]) -> list[dict]:
    """Deterministic (file, row-group range) partitions from parquet metadata
    — the analog of the reader's FileTail/stripe-directory scan
    (FileTail.cs:22-54). Footer reads go through ``map_footers``, which
    fans out as Ray tasks above a few hundred files (a 100 TB corpus has
    ~10^5 files — a serial driver scan would dominate job startup)."""
    return [part for sub in map_footers(sorted(paths), _file_partitions)
            for part in sub]


def encode_num_blocks(n_parts: int, est_bytes: int, cpus: int, ctx) -> int:
    """Blocks for ``n_parts`` descriptors holding ``est_bytes`` of data,
    chosen as Ray Data chooses a read's block count: up to
    ``ctx.read_op_min_num_blocks`` while blocks stay above
    ``ctx.target_min_block_size``, at least enough to keep them under
    ``ctx.target_max_block_size``, and two per CPU; never more than one per
    descriptor. One departure from Ray Data: a job under
    ``ctx.target_min_block_size`` gets one block per CPU, not two. Its
    second task per CPU only adds a task's fixed cost (a 256-row, 3-stripe
    select at 1 CPU: 2 serial tasks, the second pure overhead), while one
    per CPU still runs every CPU. ``sources.stripes.map_paths`` sizes every
    per-file job with it: encode (parquet partitions), ``.oray`` and ORC
    reads (stripes), delete marking and compaction."""
    per_cpu = 1 if est_bytes < ctx.target_min_block_size else 2
    n = max(min(ctx.read_op_min_num_blocks, est_bytes // ctx.target_min_block_size),
            est_bytes // ctx.target_max_block_size, per_cpu * cpus)
    return max(1, min(n_parts, n))


def split_for_stripes(table: pa.Table, config: EncodeConfig) -> list[pa.Table]:
    """Split a partition's table into stripes bounded by flattened value count
    (tokens lists up to ~100k values mean stripe sizing must count values, not
    rows — SURVEY.md §7.3)."""
    n = table.num_rows
    if n == 0:
        return []
    weights = np.ones(n, dtype=np.int64)
    for name in table.column_names:
        col = table.column(name)
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            import pyarrow.compute as pc

            lens = pc.list_value_length(col).combine_chunks()
            weights = weights + np.nan_to_num(
                lens.to_numpy(zero_copy_only=False).astype(np.float64)
            ).astype(np.int64)
    cum = np.cumsum(weights)
    budget = config.target_stripe_values
    out = []
    start = 0
    base = 0
    while start < n:
        end = int(np.searchsorted(cum, base + budget, side="right")) + 1
        end = max(end, start + 1)
        end = min(end, n)
        out.append(table.slice(start, end - start))
        base = cum[end - 1]
        start = end
    return out


class _EncodePartition:
    """map_batches callable over partition-descriptor rows."""

    def __init__(self, out_dir: str, config: EncodeConfig, columns: list[str] | None = None):
        self.out_dir = out_dir
        self.config = config
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        records = []
        for part in batch.to_pylist():
            records.append(self._encode_one(part))
        return pa.Table.from_pylist(records)

    def _encode_one(self, part: dict) -> dict:
        pf = pq.ParquetFile(part["path"])
        table = pf.read_row_groups(
            list(range(part["rg_start"], part["rg_end"])), columns=self.columns
        )
        outputs = []
        col_stats: dict[str, dict] = {}
        total_encoded = 0
        total_values = 0
        safe_pid = part["partition_id"].replace("/", "_").replace(":", "_")
        for k, stripe_tbl in enumerate(split_for_stripes(table, self.config)):
            lineage = {
                "partition_id": part["partition_id"],
                "stripe_index": k,
                "fingerprint": part["fingerprint"],
            }
            path, h, nbytes, n_values, footer = write_stripe_file(
                stripe_tbl, self.config, lineage, self.out_dir, f"{safe_pid}-s{k:04d}")
            outputs.append({"path": os.path.basename(path), "hash": h,
                            "rows": stripe_tbl.num_rows})
            total_encoded += nbytes
            total_values += n_values
            for cmeta in footer["columns"]:
                col_stats[cmeta["name"]] = merge_stats(col_stats.get(cmeta["name"]), cmeta["stats"])
        return {
            "partition_id": part["partition_id"],
            "fingerprint": part["fingerprint"],
            "rows": part["rows"],
            "encoded_bytes": total_encoded,
            "n_values": total_values,
            "raw_bytes": table.nbytes,
            "outputs_json": json.dumps(outputs, sort_keys=True),
            "column_stats_json": json.dumps(col_stats, sort_keys=True),
        }


def encode_corpus(
    paths: list[str],
    out_dir: str,
    config: EncodeConfig | None = None,
    columns: list[str] | None = None,
    resume: bool = True,
) -> dict:
    """Resumable encode job. Returns the job summary (also written to out_dir)."""
    config = config or EncodeConfig()
    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest(out_dir)
    parts = enumerate_partitions(paths)
    done = manifest.completed_partitions() if resume else {}
    todo = [
        p for p in parts
        if done.get(p["partition_id"], {}).get("fingerprint") != p["fingerprint"]
    ]
    if todo:
        # one task per block, each a contiguous run of partitions: a task per
        # tiny partition costs more in scheduling than its encode. Stateless
        # task pool: Ray reuses warm workers, no actor startup latency.
        fn = _EncodePartition(out_dir=out_dir, config=config, columns=columns)
        records = map_paths(todo, fn.__call__, sum(p["byte_size"] for p in todo)
                            ).take_all()  # small: one record per partition
        manifest.append(records)
        manifest.rewrite_sorted()

    # file-level roll-up (tiny driver reduce over per-partition records)
    all_records = manifest.completed_partitions()
    file_stats: dict[str, dict] = {}
    totals = {"rows": 0, "encoded_bytes": 0, "raw_bytes": 0, "n_values": 0,
              "partitions": 0, "stripes": 0}
    for rec in all_records.values():
        totals["rows"] += rec["rows"]
        totals["encoded_bytes"] += rec["encoded_bytes"]
        totals["raw_bytes"] += rec["raw_bytes"]
        totals["n_values"] += rec["n_values"]
        totals["partitions"] += 1
        totals["stripes"] += len(json.loads(rec["outputs_json"]))
        for cname, cstats in json.loads(rec["column_stats_json"]).items():
            file_stats[cname] = merge_stats(file_stats.get(cname), cstats)
    summary = {**totals, "column_stats": file_stats}
    manifest.finalize(summary)
    return summary


def encode_sorted(
    ds: rd.Dataset,
    out_dir: str,
    by: str,
    config: EncodeConfig | None = None,
    batch_size: int | None = None,
) -> rd.Dataset:
    """Globally key-clustered corpus: one distributed range sort (Ray's
    sort — the only all-to-all this job performs), then streaming encode of
    the range-partitioned blocks. Stripe footer min/max ranges on ``by``
    come out (near-)disjoint, so predicate reads on that key prune almost
    every stripe — pick ONE partitioning key and every downstream scan,
    compaction, and stride index reuses it."""
    from dataclasses import replace

    config = config or EncodeConfig()
    if config.sort_within_stripe is None:
        config = replace(config, sort_within_stripe=by)
    return encode_dataset(ds.sort(by), out_dir, config=config,
                          batch_size=batch_size)


def _zorder_values(cols: list[np.ndarray], los: list[float], his: list[float],
                   bits: int = 21) -> np.ndarray:
    """Interleave ``bits`` bits of each column's GLOBALLY min/max-normalized
    value into one sort key (Morton order). Bits auto-shrink so
    len(cols) * bits <= 63 (shifts past 63 would silently wrap mod 64 and
    produce garbage keys). Normalization bounds must be global — per-batch
    bounds would make z-values incomparable across batches. Null keys
    (NaN after to_numpy) cluster at the column minimum."""
    if not cols:
        raise ValueError("z-order needs at least one key column")
    bits = min(bits, 63 // len(cols))
    if bits < 4:
        raise ValueError(f"too many z-order columns ({len(cols)}): "
                         "fewer than 4 bits each in an int64 key")
    n = len(cols[0])
    z = np.zeros(n, dtype=np.uint64)
    for ci, (c, lo, hi) in enumerate(zip(cols, los, his)):
        v = np.nan_to_num(c.astype(np.float64), nan=lo)
        q = (np.zeros(n) if hi == lo
             else np.clip((v - lo) / (hi - lo), 0, 1) * ((1 << bits) - 1)
             ).astype(np.uint64)
        for b in range(bits):
            z |= ((q >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * len(cols) + ci)
    return z.view(np.int64)


def encode_zordered(
    ds: rd.Dataset,
    out_dir: str,
    by: list[str],
    config: EncodeConfig | None = None,
    batch_size: int | None = None,
) -> rd.Dataset:
    """Multi-column clustering via Z-order (Morton) interleaving: one cheap
    global min/max aggregate per key column, then one distributed sort on
    the derived z-key — stripes AND strides come out selective on EVERY
    listed column at once, where a plain sort only serves its leading key
    (the Databricks Z-ORDER idea on stripe footers). The z column is
    derived per batch (vectorized bit interleave) and dropped before
    encoding."""
    from ray.data.aggregate import Max, Min

    config = config or EncodeConfig()
    # materialize once: the aggregate AND the sort both consume ds — without
    # this an expensive upstream chain would recompute in full twice
    ds = ds.materialize()
    aggs = []
    for c in by:
        aggs += [Min(c), Max(c)]
    g = ds.aggregate(*aggs)
    if any(g[f"min({c})"] is None for c in by):
        empty = [c for c in by if g[f"min({c})"] is None]
        raise ValueError(f"z-order key column(s) {empty} have no non-null values")
    los = [float(g[f"min({c})"]) for c in by]
    his = [float(g[f"max({c})"]) for c in by]

    def add_z(batch: pa.Table) -> pa.Table:
        arrs = [batch.column(c).to_numpy(zero_copy_only=False) for c in by]
        return batch.append_column("_z", pa.array(_zorder_values(arrs, los, his)))

    ds_z = ds.map_batches(add_z, batch_format="pyarrow").sort("_z")
    ds_z = ds_z.map_batches(lambda b: b.drop_columns(["_z"]),
                            batch_format="pyarrow")
    return encode_dataset(ds_z, out_dir, config=config, batch_size=batch_size)
