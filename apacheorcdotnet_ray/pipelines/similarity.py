"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (``ray.put`` once, read per actor), per-batch top-k
partials merged in a tiny driver reduce. Scale path: IVF — seeded k-means
centroids on a sample, bucket assignment per batch, search restricted to the
``n_probe`` nearest buckets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from .shuffle import grouped_map


def _to_matrix(col) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def brute_force_topk(
    emb_ds: rd.Dataset, query_vecs: np.ndarray, k: int = 10,
    id_col: str = "vec_id", emb_col: str = "embedding",
) -> pa.Table:
    """Exact cosine top-k per query. Returns (query_idx, vec_id, cosine, rank)."""
    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    q_ref = ray.put(q)

    def partial(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        ids = batch.column(id_col).to_numpy()
        m = _normalize(_to_matrix(batch.column(emb_col)))
        sims = qm @ m.T  # (n_query, n_batch)
        kk = min(k, sims.shape[1])
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            out_q.extend([qi] * kk)
            out_id.extend(ids[top[qi]].tolist())
            out_s.extend(sims[qi, top[qi]].tolist())
        return pa.table({
            "query_idx": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_id, type=pa.int64()),
            "cosine": pa.array(out_s, type=pa.float64()),
        })

    partials = emb_ds.map_batches(partial, batch_format="pyarrow").take_all()
    # tiny driver merge: k per (query, batch) partial rows
    by_q: dict[int, list] = {}
    for r in partials:
        by_q.setdefault(r["query_idx"], []).append((r["cosine"], r["vec_id"]))
    rows = []
    for qi, cand in sorted(by_q.items()):
        cand.sort(key=lambda t: (-t[0], t[1]))
        for rank, (s, vid) in enumerate(cand[:k]):
            rows.append({"query_idx": qi, "rank": rank, "vec_id": vid, "cosine": s})
    return pa.Table.from_pylist(rows)


def filtered_topk(
    emb_ds: rd.Dataset, query_vecs: np.ndarray, k: int = 10,
    filter_expr: str | None = None,
    id_col: str = "vec_id", emb_col: str = "embedding",
) -> pa.Table:
    """Metadata-filtered exact cosine top-k (the standard production ANN
    shape: "nearest neighbors among rows WHERE <predicate>"). The
    predicate pushes into the Ray Data scan as an Arrow-level block
    filter, so excluded rows never reach the matmul — at 100 TB the
    filter's selectivity directly scales the compute, and a selective
    predicate on a clustered column also prunes whole blocks at the
    read."""
    ds = emb_ds.filter(expr=filter_expr) if filter_expr else emb_ds
    return brute_force_topk(ds, query_vecs, k, id_col=id_col,
                            emb_col=emb_col)


# ---------------------------------------------------------------------------
# IVF (inverted file) variant — the 100TB-scale path


def train_centroids(emb_ds: rd.Dataset, n_centroids: int = 16, iters: int = 10,
                    sample_limit: int = 50_000, seed: int = 11,
                    emb_col: str = "embedding") -> np.ndarray:
    """Seeded mini k-means on a driver-side sample (centroids are the tiny
    broadcast state; the sample is bounded)."""
    sample = emb_ds.limit(sample_limit).take_all()
    m = _normalize(np.stack([np.asarray(r[emb_col], dtype=np.float64) for r in sample]))
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), size=min(n_centroids, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(len(cent)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                cent[c] = v / np.linalg.norm(v)
    return cent


def ivf_build(
    emb_ds: rd.Dataset, index_dir: str, n_centroids: int = 16,
    id_col: str = "vec_id", emb_col: str = "embedding",
    quantize: bool = False,
) -> np.ndarray:
    """Materialize an IVF index: vectors written as parquet PARTITIONED BY
    their nearest-centroid bucket, centroids saved alongside. Search then
    reads only the probed buckets — the 'prune at the read' layout that makes
    ANN viable at corpus scale (a query touches n_probe/n_centroids of the
    data). ``quantize=True`` stores L2-normalized vectors as int8
    (round(v*127) — components of unit vectors are in [-1, 1]), shrinking
    the index ~8x vs float64 list storage; search dequantizes per batch, so
    scores are approximate to ~1/127 per component (recall stays high, the
    standard scalar-quantization trade). Returns the centroid matrix."""
    import os

    cent = train_centroids(emb_ds, n_centroids, emb_col=emb_col)
    os.makedirs(index_dir, exist_ok=True)
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        cm = ray.get(cent_ref)
        m = _normalize(_to_matrix(batch.column(emb_col)))
        bucket = np.argmax(m @ cm.T, axis=1).astype(np.int32)
        out = batch
        if quantize:
            q = np.clip(np.round(m * 127.0), -127, 127).astype(np.int8)
            qcol = pa.FixedSizeListArray.from_arrays(
                pa.array(q.ravel(), type=pa.int8()), q.shape[1])
            out = pa.table({id_col: batch.column(id_col), emb_col: qcol})
        return out.append_column("bucket", pa.array(bucket))

    emb_ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        index_dir, partition_cols=["bucket"])
    np.save(os.path.join(index_dir, "centroids.npy"), cent)
    if quantize:
        with open(os.path.join(index_dir, "quantized"), "w") as f:
            f.write("int8")
    return cent


def ivf_search(
    index_dir: str, query_vecs: np.ndarray, k: int = 10, n_probe: int = 4,
    id_col: str = "vec_id", emb_col: str = "embedding",
    refine_ds: rd.Dataset | None = None, refine_factor: int = 4,
) -> pa.Table:
    """Search a materialized IVF index: only the n_probe nearest buckets'
    parquet partitions are read at all (partition pruning at the source).

    ``refine_ds`` enables the standard quantized-retrieve + exact-rerank
    pattern: the (possibly int8) index supplies ``k * refine_factor``
    candidates per query, then their EXACT vectors are point-looked-up from
    ``refine_ds`` (a tiny ``pc.is_in`` filter — candidates, not the corpus,
    cross the wire) and the final top-k is ranked on true cosines. With
    ``n_probe`` covering every bucket this makes quantized search exact up
    to the candidate cutoff."""
    import glob
    import os

    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    probe = np.argsort(-(q @ cent.T), axis=1)[:, :n_probe]
    buckets = sorted({int(b) for row in probe for b in row})
    paths = [p for b in buckets
             for p in glob.glob(os.path.join(index_dir, f"bucket={b}", "*.parquet"))]
    from ..sources.parquet import read_parquet_clean

    ds = read_parquet_clean(paths, columns=[id_col, emb_col])
    if refine_ds is None:
        return brute_force_topk(ds, q, k, id_col=id_col, emb_col=emb_col)

    import pyarrow.compute as pc

    cand = brute_force_topk(ds, q, k * refine_factor, id_col=id_col, emb_col=emb_col)
    cand_ids = pc.unique(cand.column("vec_id"))
    ids_ref = ray.put(cand_ids)

    def lookup(batch: pa.Table) -> pa.Table:
        hit = batch.select([id_col, emb_col])
        return hit.filter(pc.is_in(hit.column(id_col), value_set=ray.get(ids_ref)))

    exact = pa.concat_tables(
        ray.get(refine_ds.map_batches(lookup, batch_format="pyarrow")
                .to_arrow_refs()))
    ids = exact.column(id_col).to_numpy()
    m = _normalize(_to_matrix(exact.column(emb_col)))
    sims = q @ m.T  # (n_query, n_candidates) — candidates only, tiny
    rows = []
    for qi in range(sims.shape[0]):
        order = np.lexsort((ids, -sims[qi]))[:k]
        for rank, j in enumerate(order):
            rows.append({"query_idx": qi, "rank": rank,
                         "vec_id": int(ids[j]), "cosine": float(sims[qi, j])})
    return pa.Table.from_pylist(rows)


def knn_join(
    emb_ds: rd.Dataset, k: int = 1,
    id_col: str = "vec_id", emb_col: str = "embedding",
) -> rd.Dataset:
    """For EVERY vector, its k nearest OTHER vectors by cosine — the kNN
    self-join used for near-dup mining and retrieval-eval ground truth.

    Exact variant: the normalized corpus matrix is broadcast ONCE
    (``ray.put``, zero-copy reads per task) and each batch scores itself
    against it in one matmul — one streaming pass, no shuffle, no driver
    collection of results. The N×D broadcast is the documented small-N
    trade (fine to ~1M×1k f32 = 4 GB object-store resident); past that,
    use ``knn_join_ivf`` below — the bucketed path that broadcasts nothing
    (exact at n_probe = n_centroids, approximate below it).
    Returns (vec_id, rank, nn_id, cosine) with rank 0 = nearest.
    """
    refs = emb_ds.select_columns([id_col, emb_col]).to_arrow_refs()
    corpus = pa.concat_tables(ray.get(refs))
    all_ids = corpus.column(id_col).to_numpy()
    cm = _normalize(_to_matrix(corpus.column(emb_col)))
    state = ray.put((all_ids, cm))

    def nn(batch: pa.Table) -> pa.Table:
        ids_all, m_all = ray.get(state)
        ids = batch.column(id_col).to_numpy()
        m = _normalize(_to_matrix(batch.column(emb_col)))
        sims = m @ m_all.T  # (batch, N)
        sims[ids[:, None] == ids_all[None, :]] = -np.inf  # mask self
        kk = min(k, sims.shape[1] - 1)
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows_s = np.take_along_axis(sims, top, axis=1)
        # order the k candidates: cosine desc, id asc (deterministic)
        order = np.lexsort((ids_all[top], -rows_s), axis=1)
        top = np.take_along_axis(top, order, axis=1)
        rows_s = np.take_along_axis(rows_s, order, axis=1)
        n = len(ids)
        return pa.table({
            id_col: pa.array(np.repeat(ids, kk)),
            "rank": pa.array(np.tile(np.arange(kk, dtype=np.int64), n)),
            "nn_id": pa.array(ids_all[top].ravel()),
            "cosine": pa.array(rows_s.ravel()),
        })

    return emb_ds.map_batches(nn, batch_format="pyarrow")


def knn_join_ivf(
    emb_ds: rd.Dataset, k: int = 1, n_centroids: int = 4,
    n_probe: int | None = None,
    id_col: str = "vec_id", emb_col: str = "embedding",
    num_partitions: int = 64,
) -> rd.Dataset:
    """IVF-bucketed kNN self-join — the beyond-RAM scale path ``knn_join``'s
    docstring promises. No corpus matrix is ever broadcast or materialized:

    1. centroids come from a bounded driver-side sample (train_centroids);
    2. each vector ships ONCE as a member of its assigned bucket and
       ``n_probe`` times as a query to its nearest buckets — O(n · n_probe)
       rows through one bounded hash shuffle, never O(n²);
    3. each bucket scores its queries × members in one matmul (candidates
       restricted to the probed bucket);
    4. a final bounded-partition reduce keeps each query's global top-k
       across its probed buckets (a neighbor lives in exactly one bucket,
       so no cross-bucket duplicates exist).

    With ``n_probe = n_centroids`` (the default) every bucket is probed and
    the join is EXACT — each (query, member) pair is scored in exactly one
    bucket; smaller ``n_probe`` trades recall for a ~n_probe/n_centroids
    scan fraction. Partitioning assumption: one bucket's members + queries
    fit in one group — scale ``n_centroids`` with the corpus so buckets
    stay worker-sized. Returns (vec_id, rank, nn_id, cosine), rank 0 =
    nearest, ties broken cosine desc then nn_id asc (same contract as
    ``knn_join``)."""
    import pandas as pd

    if n_probe is None:
        n_probe = n_centroids
    cent = train_centroids(emb_ds, n_centroids, emb_col=emb_col)
    n_probe = min(n_probe, len(cent))
    cent_ref = ray.put(cent)

    def explode(batch: pa.Table) -> pa.Table:
        cm = ray.get(cent_ref)
        ids = batch.column(id_col).to_numpy()
        m = _normalize(_to_matrix(batch.column(emb_col)))
        sims = m @ cm.T
        assign = np.argmax(sims, axis=1).astype(np.int32)
        probes = np.argsort(-sims, axis=1)[:, :n_probe].astype(np.int32)
        n, d = m.shape
        bucket = np.concatenate([assign, probes.ravel()])
        rep_ids = np.concatenate([ids, np.repeat(ids, n_probe)])
        role = np.concatenate([np.zeros(n, np.int8),
                               np.ones(n * n_probe, np.int8)])
        vecs = np.concatenate([m, np.repeat(m, n_probe, axis=0)])
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.ravel(), type=pa.float64()), d)
        return pa.table({
            "bucket": pa.array(bucket.astype(np.int32)),
            id_col: pa.array(rep_ids),
            "role": pa.array(role, type=pa.int8()),
            "vec": emb,
        })

    def bucket_knn(t: pa.Table) -> pa.Table:
        bk = t.column("bucket").to_numpy(zero_copy_only=False)
        role = t.column("role").to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        m = _to_matrix(t.column("vec"))
        out = []
        for b in np.unique(bk):  # few buckets per partition; matmul dominates
            sel = bk == b
            mem = sel & (role == 0)
            qry = sel & (role == 1)
            if not mem.any() or not qry.any():
                continue
            mi, qi = ids[mem], ids[qry]
            sims = m[qry] @ m[mem].T
            sims[qi[:, None] == mi[None, :]] = -np.inf  # mask self
            kk = min(k, sims.shape[1])
            top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk] \
                if sims.shape[1] > kk else \
                np.tile(np.arange(sims.shape[1]), (sims.shape[0], 1))
            s = np.take_along_axis(sims, top, axis=1)
            keep = np.isfinite(s.ravel())
            out.append(pa.table({
                id_col: pa.array(np.repeat(qi, top.shape[1])[keep]),
                "nn_id": pa.array(mi[top].ravel()[keep]),
                "cosine": pa.array(s.ravel()[keep], type=pa.float64()),
            }))
        if not out:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "nn_id": pa.array([], type=pa.int64()),
                             "cosine": pa.array([], type=pa.float64())})
        return pa.concat_tables(out)

    cand = grouped_map(
        emb_ds.map_batches(explode, batch_format="pyarrow"),
        ["bucket"], bucket_knn, num_partitions, batch_format="pyarrow")

    def reduce_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "cosine", "nn_id"],
                            ascending=[True, False, True], kind="mergesort")
        df["rank"] = df.groupby(id_col, sort=False).cumcount()
        df = df[df["rank"] < k]
        return df[[id_col, "rank", "nn_id", "cosine"]]

    return grouped_map(cand, [id_col], reduce_topk, num_partitions)


def ivf_topk(emb_ds: rd.Dataset, query_vecs: np.ndarray, k: int = 10,
             n_centroids: int = 16, n_probe: int = 4,
             id_col: str = "vec_id", emb_col: str = "embedding") -> pa.Table:
    """IVF approximate top-k: only vectors whose centroid is among the query's
    n_probe nearest are scored."""
    cent = train_centroids(emb_ds, n_centroids, emb_col=emb_col)
    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    probe = np.argsort(-(q @ cent.T), axis=1)[:, :n_probe]  # (n_query, n_probe)
    state = ray.put((q, cent, probe))

    def partial(batch: pa.Table) -> pa.Table:
        qm, cm, pr = ray.get(state)
        ids = batch.column(id_col).to_numpy()
        m = _normalize(_to_matrix(batch.column(emb_col)))
        assign = np.argmax(m @ cm.T, axis=1)
        out_q, out_id, out_s = [], [], []
        for qi in range(qm.shape[0]):
            mask = np.isin(assign, pr[qi])
            if not mask.any():
                continue
            sims = qm[qi] @ m[mask].T
            sub_ids = ids[mask]
            kk = min(k, len(sub_ids))
            top = np.argpartition(-sims, kk - 1)[:kk]
            out_q.extend([qi] * kk)
            out_id.extend(sub_ids[top].tolist())
            out_s.extend(sims[top].tolist())
        return pa.table({
            "query_idx": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_id, type=pa.int64()),
            "cosine": pa.array(out_s, type=pa.float64()),
        })

    partials = emb_ds.map_batches(partial, batch_format="pyarrow").take_all()
    by_q: dict[int, list] = {}
    for r in partials:
        by_q.setdefault(r["query_idx"], []).append((r["cosine"], r["vec_id"]))
    rows = []
    for qi, cand in sorted(by_q.items()):
        cand.sort(key=lambda t: (-t[0], t[1]))
        for rank, (s, vid) in enumerate(cand[:k]):
            rows.append({"query_idx": qi, "rank": rank, "vec_id": vid, "cosine": s})
    return pa.Table.from_pylist(rows)
