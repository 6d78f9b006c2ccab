"""Similarity search: brute-force exactness and the materialized IVF index
(bucket-partitioned parquet, search touches only probed partitions)."""

import glob
import os

import numpy as np
import pyarrow as pa
import ray.data as rd

from apacheorcdotnet_ray.pipelines import similarity


def _emb_ds(n=2000, d=16, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d)).astype(np.float32)
    offs = (np.arange(n + 1) * d).astype(np.int32)
    emb = pa.ListArray.from_arrays(pa.array(offs), pa.array(m.ravel(), type=pa.float32()))
    return rd.from_arrow(pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                                   "embedding": emb})), m


def test_brute_force_exact(ray_session):
    ds, m = _emb_ds()
    q = m[17].astype(np.float64)
    res = similarity.brute_force_topk(ds, q[None, :], k=5).to_pydict()
    mm = m / np.linalg.norm(m, axis=1, keepdims=True)
    qq = q / np.linalg.norm(q)
    expect = np.argsort(-(mm @ qq), kind="stable")[:5]
    assert res["vec_id"][0] == 17  # exact self-match first
    assert set(res["vec_id"]) == set(expect.tolist())


def test_ivf_index_build_and_search(ray_session, tmp_path):
    ds, m = _emb_ds()
    idx = str(tmp_path / "ivf")
    cent = similarity.ivf_build(ds, idx, n_centroids=8)
    assert cent.shape[0] == 8
    assert os.path.exists(os.path.join(idx, "centroids.npy"))
    buckets = glob.glob(os.path.join(idx, "bucket=*"))
    assert len(buckets) >= 4  # vectors spread across partitions

    q = m[99].astype(np.float64)
    res = similarity.ivf_search(idx, q[None, :], k=5, n_probe=3).to_pydict()
    assert res["vec_id"][0] == 99  # query vector's own bucket always probed first
    assert len(res["vec_id"]) == 5


def test_ivf_quantized_index_recall(ray_session, tmp_path):
    import os

    import numpy as np

    from apacheorcdotnet_ray.pipelines.similarity import ivf_build, ivf_search

    rng = np.random.default_rng(5)
    n, d = 400, 64  # wide enough that vector payload dominates parquet overhead
    m = rng.normal(size=(n, d))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([v.tolist() for v in m],
                              type=pa.list_(pa.float64())),
    })).repartition(4)
    fdir, qdir = str(tmp_path / "f"), str(tmp_path / "q")
    ivf_build(ds, fdir, n_centroids=8)
    ivf_build(ds, qdir, n_centroids=8, quantize=True)
    q = m[3]
    full = [r["vec_id"] for r in ivf_search(fdir, q[None, :], k=10).to_pylist()]
    quant = [r["vec_id"] for r in ivf_search(qdir, q[None, :], k=10).to_pylist()]
    # int8 scalar quantization: top-1 must survive, recall@10 stays high
    assert quant[0] == full[0] == 3
    assert len(set(full) & set(quant)) >= 8
    # quantized retrieve + exact rerank (all buckets probed) = exact result
    refined = ivf_search(qdir, q[None, :], k=10, n_probe=8, refine_ds=ds)
    exact = ivf_search(fdir, q[None, :], k=10, n_probe=8)
    assert ([r["vec_id"] for r in refined.to_pylist()]
            == [r["vec_id"] for r in exact.to_pylist()])
    # the quantized index is materially smaller on disk

    def dir_bytes(p):
        return sum(os.path.getsize(os.path.join(r, f))
                   for r, _, fs in os.walk(p) for f in fs)

    assert dir_bytes(qdir) < 0.55 * dir_bytes(fdir)


def test_knn_join_matches_local(ray_session):
    import numpy as np

    from apacheorcdotnet_ray.pipelines.similarity import knn_join

    rng = np.random.default_rng(11)
    n, d = 120, 12
    m = rng.normal(size=(n, d))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([v.tolist() for v in m],
                              type=pa.list_(pa.float64())),
    })).repartition(4)
    out = knn_join(ds, k=2).to_pandas().sort_values(
        ["vec_id", "rank"]).reset_index(drop=True)
    mm = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mm @ mm.T
    np.fill_diagonal(sims, -np.inf)
    for i in range(n):
        row = out[out["vec_id"] == i]
        expect = np.argsort(-sims[i])[:2]
        assert row["nn_id"].tolist() == expect.tolist()
    assert len(out) == 2 * n


def test_knn_join_ivf_exact_and_approx(ray_session):
    """Bucketed kNN self-join: exact at n_probe=n_centroids (every pair
    scored in exactly one bucket), recall<1 but well-formed at n_probe=1."""
    import numpy as np

    from apacheorcdotnet_ray.pipelines.similarity import knn_join, knn_join_ivf

    rng = np.random.default_rng(23)
    n, d = 150, 16
    m = rng.normal(size=(n, d))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([v.tolist() for v in m],
                              type=pa.list_(pa.float64())),
    })).repartition(4)
    base = knn_join(ds, k=2).to_pandas().sort_values(
        ["vec_id", "rank"]).reset_index(drop=True)
    ivf = knn_join_ivf(ds, k=2, n_centroids=4).to_pandas().sort_values(
        ["vec_id", "rank"]).reset_index(drop=True)
    assert len(ivf) == len(base) == 2 * n
    assert ivf["nn_id"].tolist() == base["nn_id"].tolist()
    assert np.allclose(ivf["cosine"], base["cosine"])
    # approximate: one probed bucket -> every vector still gets k rows,
    # each reported neighbor is a real vector, ranks are 0..k-1
    approx = knn_join_ivf(ds, k=2, n_centroids=4, n_probe=1).to_pandas()
    assert len(approx) == 2 * n
    assert set(approx["rank"]) == {0, 1}
    assert set(approx["nn_id"]).issubset(set(range(n)))


def test_embedding_cosine_guard_fires(ray_session):
    """dedup_embedding_cosine counts the corpus FIRST and refuses to
    broadcast above max_rows, pointing at the LSH scale path (round-4
    verdict item 6); under the cap it still returns exact pairs."""
    import pytest as _pytest

    from apacheorcdotnet_ray.pipelines.dedup import dedup_embedding_cosine

    ds, m = _emb_ds(n=60, d=8, seed=5)
    with _pytest.raises(ValueError, match="dedup_embedding_lsh"):
        dedup_embedding_cosine(ds, threshold=0.9, max_rows=10)
    # under the cap: exact vs brute force
    got_rows = dedup_embedding_cosine(ds, threshold=0.8,
                                      max_rows=100).take_all()
    got = {"vec_a": [r["vec_a"] for r in got_rows],
           "vec_b": [r["vec_b"] for r in got_rows]}
    mm = m.astype(np.float64)
    mm /= np.linalg.norm(mm, axis=1, keepdims=True)
    sims = mm @ mm.T
    ia, ib = np.nonzero(np.triu(sims >= 0.8, k=1))
    assert set(zip(got["vec_a"], got["vec_b"])) == set(zip(ia.tolist(), ib.tolist()))


def _topk_reference(sims, k, ids):
    """Row by row: finite entries sorted by score desc, then id asc."""
    out = []
    for i, row in enumerate(sims):
        cand = sorted((-row[j], ids[j], j) for j in range(len(row))
                      if row[j] > -np.inf)
        out += [(i, j, -neg, rank) for rank, (neg, _, j) in enumerate(cand[:k])]
    return out


def test_topk_matches_reference():
    """The one top-k kernel (no Ray): repeated scores break on id, -inf
    entries never come back, k past a row's finite candidates returns only
    those, and a zero-column matrix returns nothing."""
    from apacheorcdotnet_ray.pipelines.similarity import _topk

    rng = np.random.default_rng(7)
    for trial in range(40):
        n, c = rng.integers(0, 6), rng.integers(0, 12)
        sims = rng.integers(-2, 3, (n, c)).astype(np.float64)  # many ties
        sims[rng.random((n, c)) < 0.3] = -np.inf
        ids = rng.permutation(100)[:c].astype(np.int64)
        for k in (1, 3, 20):
            r, col, s, rank = _topk(sims, k, ids)
            got = list(zip(r.tolist(), col.tolist(), s.tolist(), rank.tolist()))
            assert got == _topk_reference(sims, k, ids), (trial, k)
    r, col, s, rank = _topk(np.zeros((3, 0)), 5, np.zeros(0, np.int64))
    assert len(r) == len(col) == len(s) == len(rank) == 0


def test_nearest_matches_argmax_and_stable_argsort():
    """The one centroid rule: column 0 is np.argmax (first index wins a
    tie) and the order is a stable argsort of descending cosine."""
    from apacheorcdotnet_ray.pipelines.similarity import _nearest

    rng = np.random.default_rng(13)
    m = rng.normal(size=(50, 4))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    cent = m[rng.integers(0, 50, 6)]
    cent[3] = cent[1]  # a tied centroid pair
    cent[5] = cent[1]
    sims = m @ cent.T
    got = _nearest(m, cent, 4)
    assert (got[:, 0] == np.argmax(sims, axis=1)).all()
    assert (got == np.argsort(-sims, axis=1, kind="stable")[:, :4]).all()
    assert (_nearest(m, cent)[:, 0] == got[:, 0]).all()
    assert not (got[:, 0] == 3).any() and not (got[:, 0] == 5).any()


def test_filtered_topk_nothing_matches_is_typed(ray_session):
    """A filter that keeps no row still returns the typed result columns
    (Ray passes empty blocks through without calling the scoring UDF)."""
    ds, m = _emb_ds(n=200)
    res = similarity.filtered_topk(ds, m[0][None, :], k=5,
                                   filter_expr="vec_id < 0")
    assert res.num_rows == 0
    assert res.schema == pa.schema([("query_idx", pa.int64()),
                                    ("rank", pa.int64()),
                                    ("vec_id", pa.int64()),
                                    ("cosine", pa.float64())])


def test_knn_join_repeated_id_returns_finite_neighbours(ray_session):
    """A row whose vec_id repeats has fewer OTHER vectors than N - 1: it
    gets only those, never a masked -inf neighbour."""
    m = np.random.default_rng(2).normal(size=(3, 4))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([1, 1, 2], type=pa.int64()),
        "embedding": pa.array([v.tolist() for v in m],
                              type=pa.list_(pa.float64())),
    }))
    out = similarity.knn_join(ds, k=2).to_pandas()
    assert np.isfinite(out["cosine"]).all()
    assert sorted(zip(out["vec_id"], out["rank"], out["nn_id"])) == [
        (1, 0, 2), (1, 0, 2), (2, 0, 1), (2, 1, 1)]


def test_ivf_topk_exhaustive_probe_is_brute_force(ray_session):
    """ivf_topk probing every centroid scores every vector: the same ids
    and ranks as brute_force_topk."""
    ds, m = _emb_ds()
    q = m[[17, 400]].astype(np.float64)
    ivf = similarity.ivf_topk(ds, q, k=8, n_centroids=6, n_probe=6)
    exact = similarity.brute_force_topk(ds, q, k=8)
    for c in ("query_idx", "rank", "vec_id"):
        assert ivf[c].to_pylist() == exact[c].to_pylist()
    assert ivf.num_rows == 16
