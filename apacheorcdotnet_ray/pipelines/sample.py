"""Deterministic sampling / splitting / mixing for training corpora.

All operators are hash-deterministic (no RNG state, no ordering
dependence), so they are reproducible across runs, resumable, and exactly
expressible in SQL for the oracle. The row hash is

    h(id) = ((id % 2147483647) * 2654435761) % 1_000_000

which stays inside int64 on both numpy and the SQL side (2^31 * 2.7e9 <
2^63 — no overflow divergence). Every operator is a pure ``map_batches``
filter: no shuffle, no driver collection, trivially scales.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .shuffle import grouped_map
from .text import word_counts

_MOD = 2147483647          # 2^31 - 1
_MULT = 2654435761         # Knuth multiplicative constant
_BUCKETS = 1_000_000


def _row_hash(ids: np.ndarray) -> np.ndarray:
    return ((ids.astype(np.int64) % _MOD) * _MULT) % _BUCKETS


def train_val_split(
    ds: rd.Dataset, val_frac: float = 0.1, id_col: str = "doc_id",
) -> tuple[rd.Dataset, rd.Dataset]:
    """(train, val) by deterministic id hash — the same id always lands on
    the same side, across runs and across differently-partitioned inputs."""
    cut = int(val_frac * _BUCKETS)

    def side(is_val: bool):
        def fn(batch: pa.Table) -> pa.Table:
            h = _row_hash(batch.column(id_col).to_numpy(zero_copy_only=False))
            mask = h < cut if is_val else h >= cut
            return batch.filter(pa.array(mask))

        return fn

    return (ds.map_batches(side(False), batch_format="pyarrow"),
            ds.map_batches(side(True), batch_format="pyarrow"))


def mix_sources(
    ds: rd.Dataset, weights: dict[str, float],
    key_col: str = "source", id_col: str = "doc_id",
) -> rd.Dataset:
    """Weighted corpus mixing: keep each source's rows with its own
    deterministic sampling rate (weight in [0, 1]); unlisted sources drop.
    The standard pretraining-mixture op, expressed as a stateless filter —
    re-weighting a 100 TB corpus costs one streaming pass, no shuffle."""
    cuts = {k: int(w * _BUCKETS) for k, w in weights.items()}

    def fn(batch: pa.Table) -> pa.Table:
        h = _row_hash(batch.column(id_col).to_numpy(zero_copy_only=False))
        col = batch.column(key_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        denc = col.dictionary_encode()  # per-distinct lookup, not per-row
        cut_per_code = np.array([cuts.get(v, 0) for v in denc.dictionary.to_pylist()],
                                dtype=np.int64)
        cut = cut_per_code[denc.indices.to_numpy(zero_copy_only=False)]
        return batch.filter(pa.array(h < cut))

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_sample(
    ds: rd.Dataset, n_per_group: int,
    key_col: str = "source", id_col: str = "doc_id",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Exactly n rows per group, chosen deterministically: the n smallest
    (hash, id) per group. One bounded hash shuffle keyed on the group
    co-locates each group; the per-partition reduction is a vectorized
    pandas groupby head over hash order."""
    import pandas as pd

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        h = _row_hash(df[id_col].to_numpy())
        df = df.assign(_h=h).sort_values(["_h", id_col], kind="mergesort")
        out = df.groupby(key_col, sort=False).head(n_per_group)
        return out.drop(columns="_h")

    return grouped_map(ds, [key_col], pick, num_partitions)


def token_budget_sample(
    ds: rd.Dataset, budget: int,
    id_col: str = "doc_id", text_col: str = "text",
    n_buckets: int = 4096,
) -> rd.Dataset:
    """Deterministic token-budget subsample: walk docs in (row-hash, id)
    order and keep them while the cumulative word count stays within
    ``budget`` — "give me the same ~10B tokens every run" without sorting
    the corpus.

    The global prefix-sum cutoff is found with two metadata passes (same
    narrowing idea as stats.quantile_exact): (1) one streaming pass reduces
    each batch to a fixed n_buckets-long int64 vector of per-hash-bucket
    token sums; the driver prefix-sums ~4k ints to find the bucket the
    budget lands in. (2) only THAT bucket's (id, hash, n_tok) triples —
    ~1/n_buckets of doc metadata — are collected and ordered to resolve the
    exact boundary doc. The final pass is a stateless vectorized filter
    (bucket < cutoff, or membership in the broadcast boundary-bucket id
    set). Nothing corpus-sized touches the driver; no shuffle anywhere."""
    import pyarrow.compute as pc
    import ray

    def _nt(batch: pa.Table) -> np.ndarray:
        return word_counts(batch, text_col).to_numpy(
            zero_copy_only=False).astype(np.int64)

    def _hb(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        h = _row_hash(batch.column(id_col).to_numpy(zero_copy_only=False))
        return h, h * n_buckets // _BUCKETS

    def bucket_sums(batch: pa.Table) -> pa.Table:
        _, b = _hb(batch)
        s = np.bincount(b, weights=_nt(batch), minlength=n_buckets)
        return pa.table({"sums": pa.array([s.astype(np.int64).tobytes()],
                                          type=pa.binary())})

    parts = ds.map_batches(bucket_sums, batch_format="pyarrow").take_all()
    totals = np.zeros(n_buckets, dtype=np.int64)
    for r in parts:
        totals += np.frombuffer(r["sums"], dtype=np.int64)
    cum = np.cumsum(totals)
    if cum[-1] <= budget:
        return ds                       # whole corpus fits the budget
    cb = int(np.searchsorted(cum, budget, side="right"))
    rem = int(budget - (cum[cb - 1] if cb > 0 else 0))

    def boundary_bucket(batch: pa.Table) -> pa.Table:
        h, b = _hb(batch)
        m = b == cb
        return pa.table({
            "id": pa.array(batch.column(id_col).to_numpy(
                zero_copy_only=False)[m]),
            "h": pa.array(h[m]),
            "nt": pa.array(_nt(batch)[m]),
        })

    bb = ds.map_batches(boundary_bucket, batch_format="pyarrow").take_all()
    ids = np.array([r["id"] for r in bb], dtype=np.int64)
    hs = np.array([r["h"] for r in bb], dtype=np.int64)
    nts = np.array([r["nt"] for r in bb], dtype=np.int64)
    order = np.lexsort((ids, hs))
    keep_in_cb = ids[order][np.cumsum(nts[order]) <= rem]
    keep_ref = ray.put(pa.array(keep_in_cb, type=pa.int64()))

    def final(batch: pa.Table) -> pa.Table:
        _, b = _hb(batch)
        in_cb = pc.is_in(
            pc.cast(batch.column(id_col), pa.int64()),
            value_set=ray.get(keep_ref)).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((b < cb) | ((b == cb) & in_cb)))

    return ds.map_batches(final, batch_format="pyarrow")


def epoch_shuffle_rank(
    ds: rd.Dataset, epoch: int = 0,
    id_col: str = "doc_id",
    n_buckets: int = 4096, num_partitions: int = 64,
) -> rd.Dataset:
    """Deterministic per-epoch global shuffle for training: every doc gets
    its position (rank) in the (epoch-hash, id) order — same answer every
    run, different order every epoch — WITHOUT sorting the corpus.

    rank = prefix-sum of coarse hash-bucket counts (one n_buckets-long
    int64 vector per batch, summed driver-side) + the doc's local rank
    inside its bucket. Only (id, hash) METADATA pairs go through one
    bounded shuffle to resolve local ranks; document payloads never move —
    at training time the ranks join back (or feed read_row_range) instead
    of physically reshuffling 100 TB."""
    import pyarrow.compute as pc  # noqa: F401 (parallel import pattern)
    import ray

    def _h(batch: pa.Table) -> np.ndarray:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return _row_hash(ids.astype(np.int64) + epoch * 65599)

    def hist(batch: pa.Table) -> pa.Table:
        b = _h(batch) * n_buckets // _BUCKETS
        s = np.bincount(b, minlength=n_buckets)
        return pa.table({"sums": pa.array([s.astype(np.int64).tobytes()],
                                          type=pa.binary())})

    parts = ds.map_batches(hist, batch_format="pyarrow").take_all()
    totals = np.zeros(n_buckets, dtype=np.int64)
    for r in parts:
        totals += np.frombuffer(r["sums"], dtype=np.int64)
    base = np.concatenate([[0], np.cumsum(totals)])[:-1]
    base_ref = ray.put(base)

    def meta(batch: pa.Table) -> pa.Table:
        h = _h(batch)
        return pa.table({
            id_col: batch.column(id_col),
            "_h": pa.array(h),
            "_b": pa.array(h * n_buckets // _BUCKETS),
        })

    def local_rank(df):
        b = ray.get(base_ref)
        df = df.sort_values(["_b", "_h", id_col], kind="mergesort")
        loc = df.groupby("_b", sort=False).cumcount().to_numpy()
        return df.assign(
            epoch_rank=b[df["_b"].to_numpy()] + loc)[[id_col, "epoch_rank"]]

    return grouped_map(ds.map_batches(meta, batch_format="pyarrow"),
                       ["_b"], local_rank, num_partitions)


def weighted_sample(
    ds: rd.Dataset, k: int, weight_col: str = "n_chars",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Deterministic weighted sampling without replacement: k rows chosen
    by smallest priority h(id)/weight (the A-Res/exponential-keys shape
    with the repo's deterministic row hash standing in for the uniform
    draw — heavier rows get proportionally smaller priorities, and the
    result is reproducible across runs and partitionings). Per-batch
    partial top-k (argpartition) → tiny driver merge; nothing shuffles.
    The priority is ONE IEEE double division, evaluated identically by
    numpy and the SQL oracle, so the selection is bit-exact; ties break
    on id."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        w = batch.column(weight_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        pri = _row_hash(ids).astype(np.float64) / w
        if len(pri) > k:
            # lexsort (not bare argpartition): equal priorities straddling
            # the k-boundary must break on id, matching the driver merge
            # and the SQL oracle's ORDER BY priority, doc_id
            keep = np.lexsort((ids, pri))[:k]
            batch = batch.take(pa.array(keep))
            pri = pri[keep]
        return pa.table({id_col: batch.column(id_col),
                         "priority": pa.array(pri)})

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    parts.sort(key=lambda r: (r["priority"], r[id_col]))
    head = parts[:k]
    return rd.from_arrow(pa.table({
        id_col: pa.array([r[id_col] for r in head], type=pa.int64()),
        "priority": pa.array([r["priority"] for r in head], type=pa.float64()),
    }))
