"""Distributed clustering over an embedding column (list<float>).

``kmeans`` is full-corpus spherical Lloyd: every iteration is ONE streaming
``map_batches`` pass emitting a packed (k x d sums, k counts) partial per
batch — the driver reduce touches a few KB per batch, never a vector. The
centroid matrix is the only broadcast state (``ray.put`` per iteration).
This complements ``similarity.train_centroids`` (bounded driver-side sample
for IVF seeding): same math, corpus-exact instead of sample-approximate.

``kmeans_assign`` is the one-pass assignment kernel with deterministic
centroids (the k lowest-id vectors), which makes it SQL-expressible — the
DuckDB oracle checks argmax-cosine assignment value-exactly (IDs only, so
ulp-level similarity differences between engines can't flip the hash).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from .similarity import _nearest, _normalize, _to_matrix, _unit


def seed_centroids(
    emb_ds: rd.Dataset, k: int, id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> np.ndarray:
    """Deterministic init: the k lowest-id vectors, L2-normalized. One tiny
    per-batch top-k partial pass (k rows per batch to the driver)."""
    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        kk = min(k, len(ids))
        idx = np.argsort(ids)[:kk]
        return pa.table({
            id_col: pa.array(ids[idx]),
            emb_col: batch.column(emb_col).take(pa.array(idx)),
        })

    rows = emb_ds.map_batches(partial, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: r[id_col])
    m = np.stack([np.asarray(r[emb_col], dtype=np.float64) for r in rows[:k]])
    return _normalize(m)


def kmeans(
    emb_ds: rd.Dataset, k: int = 8, iters: int = 5,
    id_col: str = "vec_id", emb_col: str = "embedding",
) -> pa.Table:
    """Corpus-exact spherical k-means. Returns one row per cluster:
    (cluster, n_members) under the final centroids.

    Each iteration streams the dataset once; a batch contributes one packed
    row (k x d float64 sums + k counts as bytes), so the shuffle-free driver
    reduce is O(n_batches * k * d) bytes — independent of corpus size."""
    cent = seed_centroids(emb_ds, k, id_col, emb_col)

    def sums_counts(cent: np.ndarray):
        """One pass under ``cent``: per-cluster vector sums and counts."""
        cent_ref = ray.put(cent)

        def partial(batch: pa.Table) -> pa.Table:
            cm = ray.get(cent_ref)
            m = _unit(batch.column(emb_col))
            assign = _nearest(m, cm)[:, 0]
            sums = np.zeros_like(cm)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(cm)).astype(np.int64)
            return pa.table({
                "sums": pa.array([sums.tobytes()], type=pa.binary()),
                "counts": pa.array([counts.tobytes()], type=pa.binary()),
            })

        sums, counts = np.zeros(cent.shape), np.zeros(k, dtype=np.int64)
        for r in emb_ds.map_batches(partial, batch_format="pyarrow").take_all():
            sums += np.frombuffer(r["sums"], dtype=np.float64).reshape(cent.shape)
            counts += np.frombuffer(r["counts"], dtype=np.int64)
        return sums, counts

    for _ in range(iters):
        sums, counts = sums_counts(cent)
        nz = counts > 0
        # empty clusters keep their previous centroid (standard Lloyd fix)
        cent[nz] = _normalize(sums[nz] / counts[nz, None])
    return pa.table({
        "cluster": pa.array(np.arange(k, dtype=np.int64)),
        "n_members": pa.array(sums_counts(cent)[1]),
    })


def group_vector_mean(
    emb_ds: rd.Dataset, group_col: str = "label",
    emb_col: str = "embedding", round_to: int | None = 6,
) -> pa.Table:
    """Per-group element-wise embedding mean (class centroids / mean
    pooling). One streaming pass: each batch emits one packed
    (group, d-float64-sums, count) row per group it contains, so the driver
    reduce is O(n_batches * n_groups * d) bytes — never a vector column.
    Returns exploded rows (group, pos 1-based, centroid_val), the
    SQL-comparable shape; ``round_to`` absorbs summation-order ulp drift
    between engines (set None for raw doubles)."""
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_numpy(zero_copy_only=False)
        m = _to_matrix(batch.column(emb_col))
        uniq, inv = np.unique(g, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]))
        np.add.at(sums, inv, m)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            group_col: pa.array(uniq),
            "sums": pa.array([s.tobytes() for s in sums], type=pa.binary()),
            "n": pa.array(counts),
        })

    rows = emb_ds.map_batches(partial, batch_format="pyarrow").take_all()
    acc: dict = {}
    for r in rows:
        s = np.frombuffer(r["sums"], dtype=np.float64)
        if r[group_col] in acc:
            acc[r[group_col]][0] += s
            acc[r[group_col]][1] += r["n"]
        else:
            acc[r[group_col]] = [s.copy(), r["n"]]
    groups = sorted(acc)
    d = len(next(iter(acc.values()))[0]) if acc else 0
    mean = np.concatenate([acc[g][0] / acc[g][1] for g in groups]) if acc else np.array([])
    if round_to is not None:
        mean = np.round(mean, round_to)
    return pa.table({
        group_col: pa.array(np.repeat(np.array(groups, dtype=object), d)),
        "pos": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), len(groups))),
        "centroid_val": pa.array(mean, type=pa.float64()),
    })


def kmeans_assign(
    emb_ds: rd.Dataset, k: int = 8,
    id_col: str = "vec_id", emb_col: str = "embedding",
) -> rd.Dataset:
    """One assignment pass against the deterministic seed centroids (the k
    lowest-id vectors): (id, cluster). Ties break to the lowest cluster
    index (``_nearest``), mirrored by the oracle's rank ordering."""
    cent_ref = ray.put(seed_centroids(emb_ds, k, id_col, emb_col))

    def assign(batch: pa.Table) -> pa.Table:
        cm = ray.get(cent_ref)
        return pa.table({
            id_col: batch.column(id_col),
            "cluster": pa.array(_nearest(_unit(batch.column(emb_col)), cm)[:, 0],
                                type=pa.int64()),
        })

    return emb_ds.map_batches(assign, batch_format="pyarrow")
