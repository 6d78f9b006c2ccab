"""Vectorized in-bucket verify kernels vs brute force (no Ray needed).

These kernels replace the per-bucket / per-pair Python loops inside every
LSH-family verify stage (minhash, simhash, ngram-jaccard, embedding-LSH);
reference semantics are the obvious triu/set-intersection definitions.
"""

import numpy as np

from apacheorcdotnet_ray.pipelines.dedup import (
    _gather_segments,
    _group_sizes,
    _pair_intersections,
    _segment_pairs,
)


def test_segment_pairs_matches_triu():
    rng = np.random.default_rng(0)
    for _ in range(100):
        sizes = rng.integers(0, 7, size=rng.integers(0, 10))
        ia, ib = _segment_pairs(sizes)
        assert np.all(ia < ib)
        exp = set()
        start = 0
        for m in sizes:
            iu, ju = np.triu_indices(m, k=1)
            exp.update(zip((start + iu).tolist(), (start + ju).tolist()))
            start += int(m)
        assert set(zip(ia.tolist(), ib.tolist())) == exp


def test_segment_pairs_large_segment_exact():
    # triangular inversion uses float64 sqrt; must stay exact for big m
    m = 3000
    ia, ib = _segment_pairs(np.array([m]))
    assert len(ia) == m * (m - 1) // 2
    iu, ju = np.triu_indices(m, k=1)
    assert set(zip(ia.tolist(), ib.tolist())) == set(zip(iu.tolist(), ju.tolist()))


def test_segment_pairs_empty():
    ia, ib = _segment_pairs(np.array([], dtype=np.int64))
    assert len(ia) == 0 and len(ib) == 0
    ia, ib = _segment_pairs(np.array([1, 1, 0]))
    assert len(ia) == 0


def test_gather_segments():
    vals = np.arange(10)
    offs = np.array([0, 3, 3, 7, 10])
    got, lens = _gather_segments(vals, offs, np.array([2, 0, 1]))
    assert got.tolist() == [3, 4, 5, 6, 0, 1, 2]
    assert lens.tolist() == [4, 3, 0]


def test_pair_intersections_vs_sets():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n_docs = int(rng.integers(1, 12))
        sets = [np.unique(rng.integers(0, 30, size=rng.integers(0, 15)))
                for _ in range(n_docs)]
        lens = np.array([len(s) for s in sets], dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)])
        vals = np.concatenate(sets) if sets else np.empty(0, np.int64)
        pairs = rng.integers(0, n_docs, size=(int(rng.integers(0, 20)), 2))
        ia, ib = pairs[:, 0], pairs[:, 1]
        got = _pair_intersections(vals, offs, ia, ib, chunk=17)  # force chunking
        exp = np.array([len(np.intersect1d(sets[a], sets[b]))
                        for a, b in zip(ia, ib)], dtype=np.int64)
        assert np.array_equal(got, exp)


def test_group_sizes():
    k = np.array([2, 1, 2, 1, 1])
    order, sizes = _group_sizes([k], np.array([9, 8, 7, 6, 5]))
    assert sizes.tolist() == [3, 2]  # key 1 first (sorted), then key 2
    assert np.array_equal(k[order], np.array([1, 1, 1, 2, 2]))
    # tiebreak orders within groups ascending
    assert np.array_equal(np.array([9, 8, 7, 6, 5])[order],
                          np.array([5, 6, 8, 7, 9]))


def test_dup_ngram_spans(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.dedup import dup_ngram_spans

    docs = [
        (1, "a b c d e f"),        # first occurrences of everything
        (2, "a b c d x y"),        # "a b c d" dup (1 of 3 positions)
        (3, "a b c d e f"),        # full dup of doc 1 (all 3 positions)
        (4, "q r s"),              # too short for n=4 -> absent
        (5, "z z z z z z z"),      # self-repeats: pos0 first, pos1..3 dup
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
        "text": [t for _, t in docs]})).repartition(3)
    out = dup_ngram_spans(ds, n=4, num_partitions=8).to_pandas() \
        .set_index("doc_id").sort_index()
    assert 4 not in out.index
    assert out.loc[1, "n_pos"] == 3 and out.loc[1, "n_dup"] == 0
    assert out.loc[2, "n_pos"] == 3 and out.loc[2, "n_dup"] == 1
    assert out.loc[3, "n_pos"] == 3 and out.loc[3, "n_dup"] == 3
    assert out.loc[5, "n_pos"] == 4 and out.loc[5, "n_dup"] == 3
    assert out.loc[3, "dup_frac"] == 1.0
    # hashed variant agrees on this corpus
    h = dup_ngram_spans(ds, n=4, hashed=True, num_partitions=8).to_pandas() \
        .set_index("doc_id").sort_index()
    assert (h["n_dup"] == out["n_dup"]).all()


def test_verify_pairs_jaccard_join_path_matches_broadcast(ray_session):
    """The distributed join path (candidate sets above the broadcast
    threshold) must produce exactly what the broadcast fast path does —
    it is the 100-TB branch the small-scale gate never exercises."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.dedup import (
        _verify_pairs_jaccard, dedup_minhash_lsh)

    docs = [
        (1, "a b c d e f g h"),
        (2, "a b c d e f g x"),     # near-dup of 1
        (3, "a b c d e f g h"),     # exact dup of 1
        (4, "p q r s t u v w"),
        (5, "completely different words here now"),
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
        "text": [t for _, t in docs]})).repartition(2)
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([1, 1, 2, 1], type=pa.int64()),
        "doc_b": pa.array([2, 3, 3, 4], type=pa.int64()),
    })).materialize()
    bc = _verify_pairs_jaccard(ds, pairs, k=3, jaccard_threshold=0.5) \
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    jn = _verify_pairs_jaccard(ds, pairs, k=3, jaccard_threshold=0.5,
                               broadcast_pairs=0) \
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert bc.equals(jn)
    assert (1, 3) in set(zip(bc["doc_a"], bc["doc_b"]))  # exact dup found
    assert np.isclose(bc.set_index(["doc_a", "doc_b"]).loc[(1, 3), "jaccard"], 1.0)
    # end-to-end LSH agrees with the exact dup
    full = dedup_minhash_lsh(ds, jaccard_threshold=1.0).to_pandas()
    assert set(zip(full["doc_a"], full["doc_b"])) == {(1, 3)}


def test_ngram_jaccard_logs_dropped_shingles(monkeypatch, caplog):
    """Shingles over ``df_cap`` are dropped with a logged warning (run in
    process: the grouped stage's function is called directly)."""
    import logging

    import pandas as pd

    from apacheorcdotnet_ray.pipelines import dedup

    class _Plan:  # stands in for the Dataset: every stage returns itself
        def map_batches(self, *a, **k):
            return self

    stages = []
    monkeypatch.setattr(dedup, "grouped_map",
                        lambda ds, keys, fn: stages.append(fn) or ds)
    dedup.dedup_ngram_jaccard(_Plan(), df_cap=2)
    postings = pd.DataFrame({"sh": [7, 7, 7, 8, 8], "doc": [1, 2, 3, 1, 2],
                             "n": [2, 3, 1, 2, 3]})
    with caplog.at_level(logging.WARNING, logger=dedup.__name__):
        pairs = stages[0](postings)
    assert "dropped 1 shingles with df > 2" in caplog.text
    assert pairs.to_dict("list") == {"doc_a": [1], "doc_b": [2], "n_a": [2], "n_b": [3]}
