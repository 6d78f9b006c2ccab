"""Vectorized in-bucket verify kernels vs brute force (no Ray needed).

These kernels replace the per-bucket / per-pair Python loops inside every
LSH-family verify stage (minhash, simhash, ngram-jaccard, embedding-LSH);
reference semantics are the obvious triu/set-intersection definitions.
"""

import numpy as np

from apacheorcdotnet_ray.pipelines.dedup import (
    _bucket_pairs,
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
    order, sizes = _group_sizes([np.array([], dtype=np.int64)],
                                np.array([], dtype=np.int64))
    assert len(order) == 0 and len(sizes) == 0


def _brute_bucket_pairs(df, keys, id_col):
    """Each pair of distinct ids sharing a bucket, once per bucket."""
    from collections import Counter

    exp = Counter()
    for _, g in df.groupby(keys):
        ids = sorted(set(g[id_col].tolist()))
        exp.update((a, b) for i, a in enumerate(ids) for b in ids[i + 1:])
    return exp


def test_bucket_pairs_matches_brute_force():
    from collections import Counter

    import pandas as pd

    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(0, 40)) if trial else 0
        n_keys = int(rng.integers(1, 4))
        keys = [f"k{j}" for j in range(n_keys)]
        df = pd.DataFrame({k: rng.integers(0, 3, n) for k in keys})
        # few distinct ids: the same (bucket, doc) repeats, and one id
        # appears in several buckets
        df["doc"] = rng.integers(100, 110, n)
        rows, ids, ia, ib = _bucket_pairs(df, keys, "doc")
        assert ids.dtype == df["doc"].dtype  # typed even when empty
        assert np.array_equal(df["doc"].to_numpy()[rows], ids)
        assert np.all(ia < ib) and np.all(ids[ia] < ids[ib])
        # both rows of a pair lie in one bucket
        kv = df[keys].to_numpy()[rows]
        assert np.array_equal(kv[ia], kv[ib])
        # one row per (bucket, document)
        assert len({(*k, d) for k, d in zip(kv.tolist(), ids.tolist())}) == len(rows)
        got = Counter(zip(ids[ia].tolist(), ids[ib].tolist()))
        assert got == _brute_bucket_pairs(df, keys, "doc")


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


def _ngram_shingle_stage(monkeypatch):
    """``dedup_ngram_jaccard``'s per-shingle stage, run in process: a
    stand-in Dataset whose every stage returns itself, and a ``grouped_map``
    that records the function instead of running it."""
    from apacheorcdotnet_ray.pipelines import dedup

    class _Plan:
        def map_batches(self, *a, **k):
            return self

    stages = []
    monkeypatch.setattr(dedup, "grouped_map",
                        lambda ds, keys, fn: stages.append(fn) or ds)
    monkeypatch.setattr(dedup, "_typed_pairs", lambda ds, *a: a[-1])
    dedup.dedup_ngram_jaccard(_Plan(), df_cap=2)
    return stages[0]


def test_ngram_jaccard_logs_dropped_shingles(monkeypatch, caplog):
    """Shingles over ``df_cap`` are dropped with a logged warning (run in
    process: the grouped stage's function is called directly)."""
    import logging

    import pandas as pd

    from apacheorcdotnet_ray.pipelines import dedup

    shingle_pairs = _ngram_shingle_stage(monkeypatch)
    postings = pd.DataFrame({"sh": [7, 7, 7, 8, 8], "doc": [1, 2, 3, 1, 2],
                             "n": [2, 3, 1, 2, 3]})
    with caplog.at_level(logging.WARNING, logger=dedup.__name__):
        pairs = shingle_pairs(postings)
    assert "dropped 1 shingles with df > 2" in caplog.text
    assert pairs.to_dict("list") == {"doc_a": [1], "doc_b": [2], "n_a": [2], "n_b": [3]}


def test_ngram_jaccard_df_cap_counts_documents(monkeypatch, caplog):
    """``df_cap`` bounds a shingle's DOCUMENT frequency: a doc_id listed
    twice under one shingle counts once."""
    import logging

    import pandas as pd

    from apacheorcdotnet_ray.pipelines import dedup

    shingle_pairs = _ngram_shingle_stage(monkeypatch)
    postings = pd.DataFrame({"sh": [7, 7, 7], "doc": [1, 1, 2], "n": [2, 2, 3]})
    with caplog.at_level(logging.WARNING, logger=dedup.__name__):
        pairs = shingle_pairs(postings)
    assert "dropped" not in caplog.text
    assert pairs[["doc_a", "doc_b"]].to_dict("list") == {"doc_a": [1], "doc_b": [2]}


def _two_batch_docs(rows_a, rows_b):
    import pyarrow as pa
    import ray.data as rd

    def t(rows):
        return pa.table({"doc_id": pa.array([d for d, _ in rows], type=pa.int64()),
                         "text": [x for _, x in rows]})

    return rd.from_arrow([t(rows_a), t(rows_b)])


def test_repeated_doc_id_never_pairs_with_itself(ray_session):
    """doc 1 sits in both batches with the same text: each bucket lists it
    once, so it is not its own near-duplicate and the n-gram intersection
    counts each shared shingle once."""
    from apacheorcdotnet_ray.pipelines import dedup

    ds = _two_batch_docs([(1, "a b c d e f g h"), (3, "p q r s t u v w")],
                         [(1, "a b c d e f g h"), (2, "a b c d e f g x")])
    for out in (dedup.dedup_minhash_lsh(ds, jaccard_threshold=0.5),
                dedup.dedup_ngram_jaccard(ds, threshold=0.5)):
        df = out.to_pandas()
        assert df[["doc_a", "doc_b"]].values.tolist() == [[1, 2]]
        assert np.isclose(df["jaccard"].iloc[0], 5 / 7)


def _no_dup_docs():
    return _two_batch_docs(
        [(1, "alpha beta gamma delta epsilon"), (2, "one two three four five")],
        [(3, "red green blue yellow purple"), (4, "north south east west up")])


def _assert_typed_empty(out, names, types):
    import pyarrow as pa

    from apacheorcdotnet_ray.pipelines.setops import to_arrow_table

    t = to_arrow_table(out)
    assert t.num_rows == 0
    assert t.schema == pa.schema(list(zip(names, types)))


def test_minhash_no_pairs_keeps_columns(ray_session):
    import pyarrow as pa

    from apacheorcdotnet_ray.pipelines import dedup

    _assert_typed_empty(dedup.dedup_minhash_lsh(_no_dup_docs()),
                        ["doc_a", "doc_b", "jaccard"],
                        [pa.int64(), pa.int64(), pa.float64()])


def test_simhash_no_pairs_keeps_columns(ray_session):
    import pyarrow as pa

    from apacheorcdotnet_ray.pipelines import dedup

    _assert_typed_empty(dedup.dedup_simhash(_no_dup_docs(), max_hamming=0),
                        ["doc_a", "doc_b", "hamming"],
                        [pa.int64(), pa.int64(), pa.int64()])


def test_ngram_jaccard_no_pairs_keeps_columns(ray_session):
    import pyarrow as pa

    from apacheorcdotnet_ray.pipelines import dedup

    _assert_typed_empty(dedup.dedup_ngram_jaccard(_no_dup_docs()),
                        ["doc_a", "doc_b", "jaccard"],
                        [pa.int64(), pa.int64(), pa.float64()])


def test_embedding_lsh_no_pairs_keeps_columns(ray_session):
    """The id type comes from the input (int32 here)."""
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import dedup

    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([1, 2, 3], type=pa.int32()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
                              type=pa.list_(pa.float32()))}))
    _assert_typed_empty(dedup.dedup_embedding_lsh(ds, threshold=0.99),
                        ["vec_a", "vec_b", "cosine"],
                        [pa.int32(), pa.int32(), pa.float64()])
