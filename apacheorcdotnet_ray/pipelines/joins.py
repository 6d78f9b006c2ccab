"""Join operators built scale-first.

Ray Data has no native broadcast or as-of join; these are the two shapes a
training-data pipeline actually needs:

- ``broadcast_hash_join``: small side in the object store ONCE (`ray.put`),
  every batch joins locally via Arrow's hash join — zero shuffle of the
  large side.
- ``asof_join``: both sides co-partitioned by key via bounded hash
  partitions (``shuffle.grouped_map``), then one vectorized
  ``pandas.merge_asof`` per partition — the composition pattern
  (map_batches + groupby + per-group sorted merge) for operators the
  Dataset API lacks. Partitioning assumption: all rows of one key fit in
  one partition.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .shuffle import grouped_map


def broadcast_hash_join(
    ds: rd.Dataset,
    small: pa.Table,
    left_key: str,
    right_key: str,
    join_type: str = "inner",
) -> rd.Dataset:
    """Per-batch Arrow hash join against a broadcast small side."""
    import ray

    ref = ray.put(small)

    def fn(batch: pa.Table) -> pa.Table:
        s = ray.get(ref)
        return batch.join(s, keys=[left_key], right_keys=[right_key],
                          join_type=join_type)

    return ds.map_batches(fn, batch_format="pyarrow")


def range_join_follow_counts(
    ds: rd.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    window_minutes: float = 60.0,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Range (interval) self-join: for each event, the number of events of
    the same key with ts in (t, t + window]. One bounded hash shuffle keyed
    on ``key`` co-locates each key's events; within a partition the counts
    for ALL events come from two vectorized searchsorted calls against the
    key's sorted timestamp array — no pairwise expansion, so a window
    containing m events costs O(log n), not O(m). The per-partition kernel
    is fully vectorized across keys (no Python loop over key groups): rows
    sort by (key, ts), timestamps map to global right-ranks, and ONE
    searchsorted over the composite (key_code, rank) answers every row's
    within-key count — exact because ts_a <= ts_b iff rank(ts_a) <=
    rank(ts_b) for right-ranks into the same sorted array."""
    import pandas as pd

    delta = np.timedelta64(int(window_minutes * 60_000_000), "us")

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col], kind="mergesort")
        n = len(df)
        if n == 0:
            return pd.DataFrame({id_col: np.array([], dtype=np.int64),
                                 "n_follow": np.array([], dtype=np.int64)})
        ts = df[ts_col].to_numpy()
        kcode, _ = pd.factorize(df[key], sort=False)  # key-sorted → nondecreasing
        kcode = kcode.astype(np.int64)
        sorted_ts = np.sort(ts)
        base = np.int64(n + 1)
        rank_lo = np.searchsorted(sorted_ts, ts, side="right").astype(np.int64)
        rank_hi = np.searchsorted(sorted_ts, ts + delta, side="right").astype(np.int64)
        comp = kcode * base + rank_lo  # sorted: kcode and within-key ranks nondecreasing
        lo = np.searchsorted(comp, comp, side="right")
        hi = np.searchsorted(comp, kcode * base + rank_hi, side="right")
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "n_follow": (hi - lo).astype(np.int64),
        })

    return grouped_map(ds.select_columns([id_col, key, ts_col]), [key], count_part,
                       num_partitions)


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_id: str,
    left_key: str,
    left_on: str,
    right_key: str,
    right_on: str,
    right_value: str,
    num_partitions: int = 64,
) -> rd.Dataset:
    """For each left row, the right row with the greatest ``right_on`` <=
    ``left_on`` within the same key (latest-before semantics). Output columns:
    (left_id, left_on, matched right_value — null when no match). Both sides
    normalize to one narrow schema (_id, _jk, _t, _val, _side) so a single
    bounded hash shuffle keyed on the join key co-locates them; each
    partition resolves with one vectorized ``pandas.merge_asof``.

    Partitioning assumption: all rows of one join key fit in one partition
    (salt the key upstream if a single key exceeds worker memory)."""

    def norm(side: str, id_col, key_col, on_col, val_col):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            # Right rows carry a sentinel _id (never read) instead of nulls:
            # a nullable int64 union column would coerce to float64 inside the
            # pandas partition and destabilize the output dtype.
            return pa.table({
                "_id": batch.column(id_col).cast(pa.int64()) if id_col
                else pa.array(np.zeros(n, dtype=np.int64)),
                "_jk": batch.column(key_col).cast(pa.int64()),
                "_t": batch.column(on_col).cast(pa.timestamp("us"))
                if pa.types.is_temporal(batch.schema.field(on_col).type)
                else batch.column(on_col).cast(pa.int64()).cast(pa.timestamp("us")),
                "_val": batch.column(val_col).cast(pa.float64()) if val_col
                else pa.nulls(n, pa.float64()),
                "_side": pa.array([side] * n),
            })

        return fn

    l_norm = left.map_batches(norm("l", left_id, left_key, left_on, None),
                              batch_format="pyarrow")
    r_norm = right.map_batches(norm("r", None, right_key, right_on, right_value),
                               batch_format="pyarrow")
    both = l_norm.union(r_norm)

    def merge_part(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["_side"] == "l"][["_id", "_jk", "_t"]].sort_values("_t", kind="mergesort")
        # deterministic tie-break: max value among right rows sharing (key, t)
        r = (df[df["_side"] == "r"][["_jk", "_t", "_val"]]
             .groupby(["_jk", "_t"], as_index=False)["_val"].max()
             .sort_values("_t", kind="mergesort"))
        if not len(l):
            merged = pd.DataFrame({"_id": pd.Series(dtype="int64"),
                                   "_t": pd.Series(dtype="datetime64[us]"),
                                   "_val": pd.Series(dtype="float64")})
        elif not len(r):
            merged = l[["_id", "_t"]].copy()
            merged["_val"] = np.nan
        else:
            merged = pd.merge_asof(l, r, on="_t", by="_jk", direction="backward")
        merged = merged[["_id", "_t", "_val"]]
        # Pin dtypes so every partition emits the identical Arrow schema
        # (int64 / timestamp[us] / float64) regardless of null patterns.
        merged["_id"] = merged["_id"].astype("int64")
        merged["_t"] = merged["_t"].astype("datetime64[us]")
        merged["_val"] = merged["_val"].astype("float64")
        return merged.set_axis([left_id, left_on, right_value], axis=1)

    return grouped_map(both, ["_jk"], merge_part, num_partitions)


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str,
    how: str = "inner",
    num_partitions: int = 64,
    broadcast_threshold: int = 200_000,
) -> rd.Dataset:
    """Adaptive equi-join. The right side (by convention the smaller) is
    materialized and counted once — vocabulary/dimension-sized sides
    (≤ ``broadcast_threshold`` rows) broadcast via ``ray.put`` and join
    per-batch with zero shuffle; larger sides go through the
    ``repartition_join`` shuffle below.

    Output columns: left's, then right's minus its key (same contract as
    ``repartition_join``). ``how``: inner | left | full (full outer always
    takes the repartition path — a broadcast plan cannot emit unmatched
    right rows without global coordination)."""
    l_cols = list(left.schema().names)
    r_cols = [c for c in right.schema().names if c != right_on]
    if broadcast_threshold > 0 and how in ("inner", "left"):
        right = right.materialize()  # blocks pinned once; count is then free
        if right.count() <= broadcast_threshold:
            from .setops import to_arrow_table

            small = to_arrow_table(right)
            bc_type = {"inner": "inner", "left": "left outer"}[how]
            return broadcast_hash_join(
                left, small, left_on, right_on, join_type=bc_type
            ).map_batches(lambda b: b.select(l_cols + r_cols),
                          batch_format="pyarrow")
    return repartition_join(left, right, left_on, right_on, how,
                            num_partitions)


def repartition_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str,
    how: str = "inner",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Self-contained repartition equi-join (the classic shuffle-union
    shape; ``hash_join``'s path for sides too large to broadcast): both
    sides co-partition by key hash through ONE bounded shuffle, each side's
    rows shipping with the other side's columns null-padded; each partition
    resolves with one Arrow join. NOTE the measured wire cost of the
    padding on a 600k x 150k lineitem/orders join: unified null-padded
    blocks IPC-serialize 62% larger than side-specific schemas (Arrow
    writes full-length data buffers for all-null columns, and the per-row
    side tag adds ~10 B/row) — Ray's ``Dataset.join`` ships leaner but
    measured 1.5–2.7× slower on a single node.

    Non-key column names must be disjoint. ``how``: inner | left | full
    (co-partitioning makes the per-partition full outer globally correct:
    every row of a key, from both sides, lands in exactly one partition).
    Partitioning assumption: all rows of one key fit in one partition."""
    import pyarrow.compute as pc

    l_schema = left.schema()
    r_schema = right.schema()
    l_cols = list(l_schema.names)
    r_cols = [c for c in r_schema.names if c != right_on]
    overlap = set(l_cols) & set(r_cols)
    if overlap:
        raise ValueError(f"non-key column names must be disjoint: {overlap}")
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = {c: t for c, t in zip(r_schema.names, r_schema.types) if c != right_on}
    all_cols = l_cols + r_cols

    def norm(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {}
            for c in all_cols:
                if side == "l" and c in l_types:
                    cols[c] = batch.column(c)
                elif side == "r" and c in r_types:
                    cols[c] = batch.column(c)
                elif side == "r" and c == left_on:
                    cols[c] = batch.column(right_on).cast(l_types[left_on])
                else:
                    cols[c] = pa.nulls(n, l_types.get(c) or r_types[c])
            cols["_side"] = pa.array([side] * n)
            return pa.table(cols)

        return fn

    both = left.map_batches(norm("l"), batch_format="pyarrow").union(
        right.map_batches(norm("r"), batch_format="pyarrow"))

    join_type = {"inner": "inner", "left": "left outer",
                 "full": "full outer"}[how]

    def merge_part(tbl: pa.Table) -> pa.Table:
        # Arrow hash join inside the partition: type-preserving (no pandas
        # int→float widening through the null-padded union columns)
        mask_l = pc.equal(tbl.column("_side"), "l")
        l = tbl.filter(mask_l).select(l_cols)
        r = tbl.filter(pc.invert(mask_l)).select([left_on] + r_cols)
        return l.join(r, keys=[left_on], join_type=join_type).select(all_cols)

    return grouped_map(both, [left_on], merge_part, num_partitions,
                       batch_format="pyarrow")


def semi_join(ds: rd.Dataset, keys_ds: rd.Dataset, left_on: str,
              right_on: str, anti: bool = False) -> rd.Dataset:
    """Semi (or anti) join: keep left rows whose key appears (or doesn't)
    in the right side. The right side reduces to its DISTINCT key set
    first (a bounded-partition distinct — only keys shuffle), which then
    broadcasts once via ray.put and filters per batch with pc.is_in; the
    big left side never shuffles. For right key sets too large to
    broadcast, fall back to hash_join + drop (repartition path)."""
    import pyarrow.compute as pc
    import ray

    from .setops import distinct, to_arrow_table

    keys = to_arrow_table(distinct(keys_ds, [right_on])).column(right_on)
    ref = ray.put(keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys)

    def fn(batch: pa.Table) -> pa.Table:
        vals = ray.get(ref)
        mask = pc.is_in(batch.column(left_on), value_set=vals)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


def anti_join(ds: rd.Dataset, keys_ds: rd.Dataset, left_on: str,
              right_on: str) -> rd.Dataset:
    return semi_join(ds, keys_ds, left_on, right_on, anti=True)


def bloom_semi_join(
    ds: rd.Dataset, keys_ds: rd.Dataset, left_on: str, right_on: str,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Semi join for right key sets too large to broadcast exactly: a Bloom
    filter of the keys broadcasts instead (~10 bits/key ≈ 1% FP — an order
    of magnitude leaner than exact 64-bit keys, the difference between a
    1.25 GB and a 16 GB broadcast at 10^9 keys), prefiltering the left
    stream so only probable matches reach one repartition join against the
    distinct key set, which drops the false positives: output == exact
    semi join.

    The bloom is ``codecs/orc_bloom``'s (ORC hashes of the key cast to the
    left key type, so both sides hash alike). Each build batch ships only
    its sparse (word, bits) pairs; each probe batch hashes its distinct
    keys once. A key type without an ORC bloom hash skips the prefilter."""
    import pyarrow.compute as pc
    import ray

    from ..codecs.orc_bloom import (bloom_might_contain, bloom_params,
                                    hash_arrow_values, positions)
    from .setops import distinct, to_arrow_table

    l_sch = ds.schema()
    l_type = l_sch.types[l_sch.names.index(left_on)]
    rkeys = distinct(keys_ds.select_columns([right_on]), [right_on]) \
        .map_batches(lambda b: b.rename_columns(["_bsj_key"]),
                     batch_format="pyarrow").materialize()
    survivors = ds
    if hash_arrow_values(pa.array([], l_type)) is not None:
        num_bits, k = bloom_params(max(1, rkeys.count()), 0.01)

        def build(batch: pa.Table) -> pa.Table:
            col = batch.column("_bsj_key").combine_chunks().cast(l_type)
            p = positions(hash_arrow_values(col), k, num_bits).ravel()
            widx = p >> 6
            wbit = np.uint64(1) << (p & 63).astype(np.uint64)
            order = np.argsort(widx, kind="stable")
            uniq, start = np.unique(widx[order], return_index=True)
            words = np.bitwise_or.reduceat(wbit[order], start)
            return pa.table({"i": pa.array(uniq), "v": pa.array(words)})

        bitmap = np.zeros(num_bits // 64, dtype=np.uint64)
        wt = to_arrow_table(rkeys.map_batches(build, batch_format="pyarrow"))
        np.bitwise_or.at(bitmap, wt.column("i").to_numpy(zero_copy_only=False),
                         wt.column("v").to_numpy(zero_copy_only=False))
        bloom_ref = ray.put(bitmap.tobytes())

        def prefilter(batch: pa.Table) -> pa.Table:
            enc = pc.dictionary_encode(batch.column(left_on).combine_chunks())
            hit = np.append(bloom_might_contain(
                k, ray.get(bloom_ref), hash_arrow_values(enc.dictionary)),
                False)
            # a null id reads the appended False: a null key never matches
            ids = enc.indices.fill_null(len(enc.dictionary))
            return batch.filter(pa.array(
                hit[ids.to_numpy(zero_copy_only=False)]))

        survivors = ds.map_batches(prefilter, batch_format="pyarrow")
    # exact verify: inner repartition join against the DISTINCT key set is
    # precisely the semi join; only Bloom-probable rows reach it
    return repartition_join(survivors, rkeys, left_on, "_bsj_key",
                            how="inner", num_partitions=num_partitions)
