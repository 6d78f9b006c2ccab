"""BPE trainer: hand-computed merge sequence, tie-breaking, run overlap
handling, and the apply pass."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from apacheorcdotnet_ray.pipelines import bpe


def test_bpe_train_hand_computed(ray_session):
    # histogram {low:2, lower:1}; weighted pairs (l,o):3 (o,w):3 (w,e):1 (e,r):1
    ds = rd.from_arrow(pa.table({"doc_id": [1, 2], "text": ["low low", "lower"]}))
    m = bpe.bpe_train(ds, n_merges=4).to_pandas()
    assert list(zip(m["left"], m["right"], m["freq"])) == [
        ("l", "o", 3),   # tie with (o,w) → lexicographically smaller pair
        ("lo", "w", 3),
        ("e", "r", 1),   # tie group at freq 1 → smallest pair key
        ("low", "er", 1),
    ]


def test_bpe_token_count_full_fusion(ray_session):
    ds = rd.from_arrow(pa.table({"doc_id": [1, 2], "text": ["low low", "lower"]}))
    tc = bpe.bpe_token_count(ds, n_merges=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # 4 merges fuse "low" and "lower" into single tokens
    assert tc["n_bpe_tokens"].tolist() == [2, 1]


def test_merge_loop_overlapping_run():
    # "aaaa" ×1 under (a,a): greedy left-to-right → aa|aa (2 symbols)
    words = np.array(["aaaa"], dtype=object)
    counts = np.array([1], dtype=np.int64)
    merges, (sym, wid) = bpe._merge_loop(words, counts, 1)
    assert merges[0]["left"] == "a" and merges[0]["right"] == "a"
    assert merges[0]["freq"] == 3  # three adjacent (a,a) positions counted
    assert sym.tolist() == ["aa", "aa"]


def test_word_histogram_deterministic(ray_session):
    ds1 = rd.from_arrow(pa.table({"text": ["b a", "a c"]})).repartition(2)
    ds2 = rd.from_arrow(pa.table({"text": ["a c", "b a"]})).repartition(2)
    w1, c1 = bpe.word_histogram(ds1)
    w2, c2 = bpe.word_histogram(ds2)
    assert w1.tolist() == w2.tolist() == ["a", "b", "c"]
    assert c1.tolist() == c2.tolist() == [2, 1, 1]


def test_bpe_encode_known_ids(ray_session):
    import ray

    ds = rd.from_arrow(pa.table({"doc_id": [1, 2], "text": ["low low", "lower"]}))
    codec = bpe.bpe_fit(ds, n_merges=4)
    # vocab: [" ", UNK, then sorted {low, lower, e, l, o, r, w}]
    assert codec["vocab"][:2] == [" ", "�"]
    out = bpe.bpe_encode(ds, ray.put(codec)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    tid = codec["tok_id"]
    assert out["token_ids"][0].tolist() == [tid["low"], 0, tid["low"]]
    assert out["token_ids"][1].tolist() == [tid["lower"]]
    assert out["n_tokens"].tolist() == [3, 1]


def test_bpe_encode_unseen_word_char_fallback(ray_session):
    import ray

    train = rd.from_arrow(pa.table({"doc_id": [1], "text": ["low low"]}))
    codec = bpe.bpe_fit(train, n_merges=2)
    ref = ray.put(codec)
    new = rd.from_arrow(pa.table({"doc_id": [9], "text": ["owl oxq"]}))
    out = bpe.bpe_encode(new, ref).to_pandas()
    tid = codec["tok_id"]
    # "owl": chars all in alphabet; "oxq": x,q unseen → UNK id 1
    assert out["token_ids"][0].tolist() == [
        tid["o"], tid["w"], tid["l"], 0, tid["o"], 1, 1]


def test_bpe_roundtrip_lossless_weird_spacing(ray_session):
    texts = ["low lower  low", " leading", "trailing ", "", "a  b", "solo"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": texts})).repartition(3)
    out = bpe.bpe_roundtrip(ds, n_merges=6).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["text"].tolist() == texts


def test_bpe_token_count_null_text(ray_session):
    # a null text has no words: 0 tokens, in the middle and at a batch's end
    ds = rd.from_arrow(pa.table({"doc_id": [1, 2, 3, 4],
                                 "text": ["low low", None, "lower", None]}))
    tc = bpe.bpe_token_count(ds, n_merges=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert tc["n_bpe_tokens"].tolist() == [2, 0, 1, 0]
