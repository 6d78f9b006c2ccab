"""Deterministic sampling/splitting/mixing + sequence packing."""

import numpy as np
import pyarrow as pa
import ray.data as rd


def _docs(n=200):
    rng = np.random.default_rng(11)
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "source": pa.array([f"s{i % 3}" for i in range(n)]),
        "tokens": pa.array(
            [rng.integers(1, 1000, size=int(rng.integers(5, 60))).astype(np.int32)
             for _ in range(n)], type=pa.list_(pa.int32())),
    }))


def test_train_val_split_disjoint_deterministic(ray_session):
    from apacheorcdotnet_ray.pipelines.sample import train_val_split

    ds = _docs()
    tr, va = train_val_split(ds, val_frac=0.25)
    tr_ids = {r["doc_id"] for r in tr.select_columns(["doc_id"]).take_all()}
    va_ids = {r["doc_id"] for r in va.select_columns(["doc_id"]).take_all()}
    assert tr_ids.isdisjoint(va_ids)
    assert len(tr_ids) + len(va_ids) == 200
    # deterministic across a second invocation
    _, va2 = train_val_split(_docs(), val_frac=0.25)
    assert {r["doc_id"] for r in va2.select_columns(["doc_id"]).take_all()} == va_ids


def test_mix_sources_weights(ray_session):
    from apacheorcdotnet_ray.pipelines.sample import mix_sources

    ds = _docs(300)
    out = mix_sources(ds, {"s0": 1.0, "s1": 0.0}).take_all()
    srcs = {r["source"] for r in out}
    assert srcs == {"s0"}
    assert len(out) == 100  # weight 1.0 keeps every s0 row, s2 unlisted drops


def test_stratified_sample_exact_n(ray_session):
    from apacheorcdotnet_ray.pipelines.sample import stratified_sample

    out = stratified_sample(_docs(300), n_per_group=7).take_all()
    from collections import Counter

    c = Counter(r["source"] for r in out)
    assert c == {"s0": 7, "s1": 7, "s2": 7}
    out2 = stratified_sample(_docs(300), n_per_group=7).take_all()
    assert sorted(r["doc_id"] for r in out) == sorted(r["doc_id"] for r in out2)


def test_pack_sequences_invariants(ray_session):
    from apacheorcdotnet_ray.pipelines.pack import pack_sequences

    ds = _docs(150)
    total_tokens = sum(len(r["tokens"]) for r in ds.take_all())
    seq_len = 128
    packed = pack_sequences(ds, seq_len=seq_len, pad_id=0,
                            num_partitions=8).take_all()
    assert all(len(r["tokens"]) == seq_len for r in packed)
    assert sum(r["n_tokens"] for r in packed) == total_tokens
    for r in packed:
        starts = list(r["doc_starts"])
        assert all(0 <= s < seq_len for s in starts)
        assert starts == sorted(starts)
        assert r["n_docs"] >= 1 and r["n_tokens"] <= seq_len
        # pad tail is all pad_id
        tail = list(r["tokens"])[r["n_tokens"]:]
        assert all(t == 0 for t in tail)
    # drop mode: every sequence full, token count rounds down per partition
    dropped = pack_sequences(_docs(150), seq_len=seq_len, pad_id=None,
                             num_partitions=8).take_all()
    assert all(r["n_tokens"] == seq_len for r in dropped)
    assert sum(r["n_tokens"] for r in dropped) <= total_tokens


def test_bm25_log_variant(ray_session):
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.text import bm25_search

    docs = rd.from_items([
        {"doc_id": 1, "text": "hash join merge hash"},
        {"doc_id": 2, "text": "table scan only"},
        {"doc_id": 3, "text": "hash hash hash hash hash filler filler filler filler"},
        {"doc_id": 4, "text": "join"},
    ])
    out = bm25_search(docs, "hash join", k=3, idf="log").take_all()
    assert [r["doc_id"] for r in out][0] == 1  # both terms → top
    assert len(out) == 3
    scores = [r["score"] for r in out]
    assert scores == sorted(scores, reverse=True)


def test_bm25_exact_tf_consecutive_repeats(ray_session):
    import math

    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.text import bm25_search

    # one doc, one query term repeated consecutively: tf must be 3 (the old
    # padded-substring counting undercounted to 2)
    docs = rd.from_items([{"doc_id": 1, "text": "hash hash hash"}])
    out = bm25_search(docs, "hash", k=1, idf="linear").take_all()
    n, df, tf, dl, avgdl = 1.0, 1.0, 3.0, 3.0, 3.0
    idf = (n - df + 0.5) / (df + 0.5)
    expected = idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
    assert math.isclose(out[0]["score"], expected, rel_tol=1e-12)


def test_set_ops(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.setops import except_, intersect, to_arrow_table

    a = rd.from_arrow(pa.table({"key": pa.array([1, 2, 3, 3], type=pa.int64())}))
    b = rd.from_arrow(pa.table({"key": pa.array([2, 3, 4], type=pa.int64())}))
    assert sorted(to_arrow_table(intersect(a, b, ["key"])).column("key").to_pylist()) == [2, 3]
    assert to_arrow_table(except_(a, b, ["key"])).column("key").to_pylist() == [1]
    # empty result keeps the typed schema
    empty = to_arrow_table(except_(b, b, ["key"]))
    assert empty.num_rows == 0 and empty.schema.names == ["key"]


def test_to_arrow_table_runs_the_plan_once(ray_session, tmp_path):
    """Collecting reads the schema and the rows from one execution."""
    import uuid

    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.setops import to_arrow_table

    def mark(batch):
        (tmp_path / uuid.uuid4().hex).touch()
        return batch

    ds = rd.range(10, override_num_blocks=1).map_batches(mark, batch_format="pyarrow")
    assert to_arrow_table(ds).column("id").to_pylist() == list(range(10))
    assert len(list(tmp_path.iterdir())) == 1


def test_iter_training_batches(ray_session, tmp_path):
    import numpy as np

    from apacheorcdotnet_ray.pipelines.encode import encode_dataset
    from apacheorcdotnet_ray.pipelines.pack import iter_training_batches

    ds = _docs(120)
    total = sum(len(r["tokens"]) for r in ds.take_all())
    out = str(tmp_path / "stripes")
    encode_dataset(ds.select_columns(["doc_id", "tokens"]), out,
                   batch_size=40).materialize()
    seen_tokens = 0
    n_rows = 0
    for mat, n_tok in iter_training_batches(out, seq_len=64, batch_rows=8,
                                            num_partitions=4):
        assert mat.dtype == np.int32 and mat.shape[1] == 64
        assert len(n_tok) == mat.shape[0]
        seen_tokens += int(n_tok.sum())
        n_rows += mat.shape[0]
    assert seen_tokens == total     # every token exactly once
    assert n_rows >= total // 64


def test_pack_drop_mode_doc_starts_within_sequence(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.pack import pack_sequences

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "tokens": pa.array([[1] * 4, [2] * 4, [3], [4] * 2],
                           type=pa.list_(pa.int32())),
    }))
    rows = pack_sequences(ds, seq_len=4, pad_id=None, num_partitions=1).take_all()
    for r in rows:
        for s in r["doc_starts"]:
            assert 0 <= s < 4, r


def test_epoch_shuffle_rank(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.sample import _row_hash, epoch_shuffle_rank

    n = 300
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64())})).repartition(4)
    for epoch in (0, 3):
        out = epoch_shuffle_rank(ds, epoch=epoch, n_buckets=32,
                                 num_partitions=8).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        h = _row_hash(np.arange(n) + epoch * 65599)
        expect = np.empty(n, dtype=np.int64)
        expect[np.lexsort((np.arange(n), h))] = np.arange(n)
        assert out["epoch_rank"].tolist() == expect.tolist()
    # epochs produce different permutations
    r0 = epoch_shuffle_rank(ds, 0, n_buckets=32).to_pandas() \
        .sort_values("doc_id")["epoch_rank"].tolist()
    r1 = epoch_shuffle_rank(ds, 1, n_buckets=32).to_pandas() \
        .sort_values("doc_id")["epoch_rank"].tolist()
    assert r0 != r1 and sorted(r0) == sorted(r1) == list(range(n))


def test_iter_shuffled_batches_reproducible_and_complete(ray_session, tmp_path):
    import numpy as np

    from apacheorcdotnet_ray.pipelines.encode import encode_dataset
    from apacheorcdotnet_ray.pipelines.pack import iter_shuffled_batches

    rng = np.random.default_rng(3)
    n = 400
    toks = [rng.integers(0, 1000, size=rng.integers(5, 60)).astype(np.int32)
            for _ in range(n)]
    tbl = pa.table({
        "doc_id": pa.array([str(i) for i in range(n)]),
        "tokens": pa.array([t.tolist() for t in toks],
                           type=pa.list_(pa.int32())),
    })
    out = str(tmp_path / "stripes")
    encode_dataset(rd.from_arrow(tbl).repartition(4), out).materialize()

    def collect(epoch):
        mats, counts = [], []
        for m, c in iter_shuffled_batches(out, epoch=epoch, seq_len=128,
                                          batch_rows=8, num_partitions=8):
            mats.append(m.copy())
            counts.append(c.copy())
        return np.concatenate(mats), np.concatenate(counts)

    m1, c1 = collect(1)
    m1b, _ = collect(1)
    m2, _ = collect(2)
    # reproducible for a fixed epoch
    assert np.array_equal(np.sort(m1.ravel()), np.sort(m1b.ravel()))
    # complete: every token survives the shuffle + pack (multiset equality)
    all_toks = np.concatenate(toks)
    packed_real = np.concatenate([
        row[:k] for row, k in zip(m1, c1)])
    assert np.array_equal(np.sort(packed_real), np.sort(all_toks))
    # epoch changes the stream composition
    assert m1.shape == m2.shape


def test_iter_training_batches_start_batch_resume(ray_session, tmp_path):
    import numpy as np

    from apacheorcdotnet_ray.pipelines.encode import encode_dataset
    from apacheorcdotnet_ray.pipelines.pack import iter_training_batches

    ds = _docs(120)
    out = str(tmp_path / "stripes")
    encode_dataset(ds.select_columns(["doc_id", "tokens"]), out,
                   batch_size=40).materialize()
    full = list(iter_training_batches(out, seq_len=64, batch_rows=8,
                                      num_partitions=4))
    resumed = list(iter_training_batches(out, seq_len=64, batch_rows=8,
                                         num_partitions=4, start_batch=2))
    assert len(resumed) == len(full) - 2
    for (m1, c1), (m2, c2) in zip(full[2:], resumed):
        assert np.array_equal(m1, m2) and np.array_equal(c1, c2)
