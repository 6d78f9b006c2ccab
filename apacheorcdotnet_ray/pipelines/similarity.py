"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (``ray.put`` once), per-batch top-k partials merged
in a tiny driver reduce. Scale path: IVF — seeded k-means centroids on a
sample, bucket assignment per batch, search restricted to the ``n_probe``
nearest buckets.

Every operator here and in ``cluster.py`` ranks through ``_topk`` and
assigns to centroids through ``_nearest``.
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


def _unit(col) -> np.ndarray:
    """An embedding column as a float64 matrix of unit rows."""
    return _normalize(_to_matrix(col))


def _nearest(m: np.ndarray, cent: np.ndarray, n: int = 1) -> np.ndarray:
    """Each unit row's ``n`` best centroid indexes by cosine, best first;
    ties go to the lowest index (``np.argmax``'s first-wins), so column 0
    is the assignment."""
    return np.argsort(-(m @ cent.T), axis=1, kind="stable")[:, :n]


def _first_k(rows, keys, scores, k: int):
    """Order flat candidates by row, score descending, then key ascending,
    and keep each row's first ``k``. Returns (indexes, ranks)."""
    order = np.lexsort((keys, -scores, rows))
    r = rows[order]
    rank = np.arange(len(r)) - np.searchsorted(r, r)
    keep = rank < k
    return order[keep], rank[keep]


def _topk(sims: np.ndarray, k: int, ids: np.ndarray):
    """The one top-k selection: each row's <= k best columns of a score
    matrix, as flat (row, column, score, rank) arrays in row then rank
    order. Rank orders score descending, then ``ids[column]`` ascending;
    ``-inf`` entries are masked and never returned."""
    kk = min(k, sims.shape[1])
    if kk == 0:
        rows = cols = np.zeros(0, dtype=np.int64)
    else:
        # every column scoring at least the row's kk-th best, so a tie
        # across the cutoff is decided by id below, not by the partition
        kth = -np.partition(-sims, kk - 1, axis=1)[:, kk - 1:kk]
        rows, cols = np.nonzero((sims >= kth) & (sims > -np.inf))
    scores = sims[rows, cols]
    keep, rank = _first_k(rows, ids[cols], scores, k)
    return rows[keep], cols[keep], scores[keep], rank


_RANKED = pa.schema([("query_idx", pa.int64()), ("rank", pa.int64()),
                     ("vec_id", pa.int64()), ("cosine", pa.float64())])


def _ranked(query_idx, vec_id, cosine, k: int) -> pa.Table:
    """Each query's k best candidates as typed ``_RANKED`` rows, in query
    then rank order; zero rows keep the columns."""
    keep, rank = _first_k(query_idx, vec_id, cosine, k)
    return pa.table([query_idx[keep], rank, vec_id[keep], cosine[keep]],
                    schema=_RANKED)


def _scan_topk(emb_ds: rd.Dataset, q: np.ndarray, k: int, id_col: str,
               emb_col: str, ivf: tuple | None = None) -> pa.Table:
    """The one query scoring pass (``brute_force_topk``, ``ivf_topk``, the
    ``ivf_search`` rerank): per batch, each unit query's top-k by cosine,
    merged on the driver. ``ivf`` is (centroids, probed), probed a
    (query, centroid) bool matrix: a vector scores -inf for the queries
    that do not probe its nearest centroid."""
    state = ray.put((q, ivf))

    def partial(batch: pa.Table) -> pa.Table:
        qm, ivf_ = ray.get(state)
        ids = batch.column(id_col).to_numpy()
        m = _unit(batch.column(emb_col))
        sims = qm @ m.T  # (n_query, n_batch)
        if ivf_ is not None:
            cent, probed = ivf_
            sims[~probed[:, _nearest(m, cent)[:, 0]]] = -np.inf
        r, c, s, rank = _topk(sims, k, ids)
        return pa.table([r, rank, ids[c], s], schema=_RANKED)

    # Ray passes empty blocks through without calling ``partial``
    parts = [t for t in emb_ds.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow") if t.num_rows]
    cand = pa.concat_tables(parts or [_RANKED.empty_table()])
    return _ranked(cand["query_idx"].to_numpy(), cand["vec_id"].to_numpy(),
                   cand["cosine"].to_numpy(), k)


def brute_force_topk(
    emb_ds: rd.Dataset, query_vecs: np.ndarray, k: int = 10,
    id_col: str = "vec_id", emb_col: str = "embedding",
) -> pa.Table:
    """Exact cosine top-k per query. Returns (query_idx, rank, vec_id,
    cosine), ties broken on vec_id."""
    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    return _scan_topk(emb_ds, q, k, id_col, emb_col)


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
        assign = _nearest(m, cent)[:, 0]
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
        m = _unit(batch.column(emb_col))
        bucket = _nearest(m, cm)[:, 0].astype(np.int32)
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
    buckets = np.unique(_nearest(q, cent, n_probe)).tolist()
    paths = [p for b in buckets
             for p in glob.glob(os.path.join(index_dir, f"bucket={b}", "*.parquet"))]
    from ..sources.parquet import read_parquet_clean

    ds = read_parquet_clean(paths, columns=[id_col, emb_col])
    if refine_ds is None:
        return brute_force_topk(ds, q, k, id_col=id_col, emb_col=emb_col)

    import pyarrow.compute as pc

    cand = brute_force_topk(ds, q, k * refine_factor, id_col=id_col, emb_col=emb_col)
    ids_ref = ray.put(pc.unique(cand.column("vec_id")))

    def lookup(batch: pa.Table) -> pa.Table:
        hit = batch.select([id_col, emb_col])
        return hit.filter(pc.is_in(hit.column(id_col), value_set=ray.get(ids_ref)))

    return _scan_topk(refine_ds.map_batches(lookup, batch_format="pyarrow"),
                      q, k, id_col, emb_col)


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
    state = ray.put((all_ids, _unit(corpus.column(emb_col))))

    def nn(batch: pa.Table) -> pa.Table:
        ids_all, m_all = ray.get(state)
        ids = batch.column(id_col).to_numpy()
        sims = _unit(batch.column(emb_col)) @ m_all.T  # (batch, N)
        sims[ids[:, None] == ids_all[None, :]] = -np.inf  # mask self
        r, c, s, rank = _topk(sims, k, ids_all)
        return pa.table({
            id_col: pa.array(ids[r]),
            "rank": pa.array(rank, type=pa.int64()),
            "nn_id": pa.array(ids_all[c]),
            "cosine": pa.array(s),
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
        m = _unit(batch.column(emb_col))
        near = _nearest(m, cm, max(n_probe, 1))
        n, d = m.shape
        bucket = np.concatenate([near[:, 0], near[:, :n_probe].ravel()])
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
        out = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
        for b in np.unique(bk):  # few buckets per partition; matmul dominates
            sel = bk == b
            mem, qry = sel & (role == 0), sel & (role == 1)
            mi, qi = ids[mem], ids[qry]
            sims = m[qry] @ m[mem].T
            sims[qi[:, None] == mi[None, :]] = -np.inf  # mask self
            r, c, s, _ = _topk(sims, k, mi)
            out.append((qi[r], mi[c], s))
        q_ids, nn_ids, cos = (np.concatenate(x) for x in zip(*out))
        return pa.table({id_col: q_ids, "nn_id": nn_ids, "cosine": cos})

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
    n_probe nearest are scored; at n_probe = n_centroids it is
    ``brute_force_topk``."""
    cent = train_centroids(emb_ds, n_centroids, emb_col=emb_col)
    q = _normalize(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    probed = np.zeros((len(q), len(cent)), dtype=bool)
    np.put_along_axis(probed, _nearest(q, cent, n_probe), True, axis=1)
    return _scan_topk(emb_ds, q, k, id_col, emb_col, (cent, probed))
