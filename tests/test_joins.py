"""Join operators: broadcast hash join (zero large-side shuffle) and the
co-partitioned as-of join (latest-before semantics via merge_asof per
bounded hash partition)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from apacheorcdotnet_ray.pipelines.joins import asof_join, broadcast_hash_join


def test_broadcast_hash_join(ray_session):
    big = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 1, 2, 9], type=pa.int64()),
        "x": pa.array([10, 20, 30, 40, 50, 60], type=pa.int64()),
    })).repartition(3)
    small = pa.table({"pk": pa.array([1, 2, 3], type=pa.int64()),
                      "name": pa.array(["a", "b", "c"])})
    out = broadcast_hash_join(big, small, "k", "pk").to_pandas()
    assert len(out) == 5  # key 9 unmatched (inner)
    assert dict(zip(out["x"], out["name"])) == {10: "a", 40: "a", 20: "b", 50: "b", 30: "c"}


def test_asof_join_latest_before(ray_session):
    ts = lambda d: pd.Timestamp(f"2024-01-{d:02d}")
    left = rd.from_arrow(pa.table({
        "eid": pa.array([1, 2, 3, 4], type=pa.int64()),
        "uk": pa.array([7, 7, 8, 9], type=pa.int64()),
        "t": pa.array([ts(10), ts(20), ts(15), ts(5)], type=pa.timestamp("us")),
    }))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([7, 7, 8, 8], type=pa.int64()),
        "rt": pa.array([ts(1), ts(12), ts(14), ts(16)], type=pa.timestamp("us")),
        "v": pa.array([1.0, 2.0, 3.0, 4.0]),
    }))
    out = asof_join(left, right, "eid", "uk", "t", "rk", "rt", "v").to_pandas()
    got = dict(zip(out["eid"], out["v"]))
    assert got[1] == 1.0       # only ts(1) <= jan10 for key 7
    assert got[2] == 2.0       # latest before jan20
    assert got[3] == 3.0       # jan14 <= jan15 < jan16
    assert np.isnan(got[4])    # key 9 has no right rows


def test_range_join_follow_counts(ray_session):
    ts = pd.to_datetime(["2024-01-01 10:00", "2024-01-01 10:30",
                         "2024-01-01 10:59", "2024-01-01 12:00",
                         "2024-01-01 10:30"])
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "user_id": pa.array([7, 7, 7, 7, 8], type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
    })
    from apacheorcdotnet_ray.pipelines.joins import range_join_follow_counts

    out = range_join_follow_counts(
        rd.from_arrow(t), window_minutes=60).to_pandas().set_index("event_id")
    assert out.loc[1, "n_follow"] == 2  # 10:30 and 10:59 within (10:00, 11:00]
    assert out.loc[2, "n_follow"] == 1  # 10:59
    assert out.loc[3, "n_follow"] == 0  # 12:00 outside
    assert out.loc[4, "n_follow"] == 0
    assert out.loc[5, "n_follow"] == 0  # different user


def test_hash_join_left_and_inner(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.joins import hash_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 2], type=pa.int64()),
        "lv": pa.array([10, 20, 30, 40, 21], type=pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([2, 3, 3, 9], type=pa.int64()),
        "rv": pa.array([200.0, 300.0, 301.0, 900.0]),
    }))
    inner = hash_join(left, right, "k", "rk", how="inner").to_pandas() \
        .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    assert inner["k"].tolist() == [2, 2, 3, 3]
    assert inner["rv"].tolist() == [200.0, 200.0, 300.0, 301.0]
    assert str(inner["lv"].dtype) == "int64"  # no float widening

    lj = hash_join(rd.from_arrow(pa.table({
        "k": pa.array([1, 2], type=pa.int64()),
        "lv": pa.array([10, 20], type=pa.int64()),
    })), right, "k", "rk", how="left").to_pandas().sort_values("k").reset_index(drop=True)
    assert len(lj) == 2
    assert np.isnan(lj["rv"][0]) and lj["rv"][1] == 200.0


def test_hash_join_small_key_domain_broadcast_path(ray_session):
    # 3 distinct keys over many partitions used to crash Ray's native join
    # (empty aggregator partitions -> pa.Table.join FieldRef error); the
    # adaptive broadcast path must handle it
    from apacheorcdotnet_ray.pipelines.joins import hash_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 1, 2, 9], type=pa.int64()),
        "x": pa.array([10, 20, 30, 40, 50, 60], type=pa.int64()),
    })).repartition(4)
    right = rd.from_arrow(pa.table({
        "rk": pa.array([1, 2, 3], type=pa.int64()),
        "name": pa.array(["a", "b", "c"]),
    })).repartition(4)
    out = hash_join(left, right, "k", "rk").to_pandas()
    assert list(out.columns) == ["k", "x", "name"]
    assert len(out) == 5
    assert dict(zip(out["x"], out["name"])) == {
        10: "a", 40: "a", 20: "b", 50: "b", 30: "c"}
    # left join keeps the unmatched row with a null
    lj = hash_join(left, right, "k", "rk", how="left").to_pandas()
    assert len(lj) == 6
    assert lj.loc[lj["x"] == 60, "name"].isna().all()


def test_hash_join_native_path_matches_broadcast(ray_session):
    from apacheorcdotnet_ray.pipelines.joins import hash_join

    n = 500
    left = rd.from_arrow(pa.table({
        "k": pa.array(np.arange(n) % 97, type=pa.int64()),
        "x": pa.array(np.arange(n), type=pa.int64()),
    })).repartition(4)
    right = rd.from_arrow(pa.table({
        "rk": pa.array(np.arange(97), type=pa.int64()),
        "v": pa.array(np.arange(97) * 2, type=pa.int64()),
    })).repartition(4)
    a = hash_join(left, right, "k", "rk").to_pandas() \
        .sort_values(["x"]).reset_index(drop=True)
    b = hash_join(left, right, "k", "rk", broadcast_threshold=0).to_pandas() \
        .sort_values(["x"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_token_budget_sample(ray_session):
    from apacheorcdotnet_ray.pipelines.sample import _row_hash, token_budget_sample

    n = 200
    texts = [" ".join(["w"] * (i % 7 + 1)) for i in range(n)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "text": texts})).repartition(5)
    budget = 300
    out = sorted(token_budget_sample(ds, budget, n_buckets=64)
                 .to_pandas()["doc_id"].tolist())
    # brute-force reference: cumulative word count over (hash, id) order
    h = _row_hash(np.arange(n))
    nt = np.array([i % 7 + 1 for i in range(n)])
    order = np.lexsort((np.arange(n), h))
    keep = np.arange(n)[order][np.cumsum(nt[order]) <= budget]
    assert out == sorted(keep.tolist())
    # budget >= total keeps everything; budget 0 keeps nothing
    assert token_budget_sample(ds, 10**9, n_buckets=64).count() == n
    assert token_budget_sample(ds, 0, n_buckets=64).count() == 0


def test_token_budget_sample_null_text(ray_session):
    """A null text counts 0 tokens, not a huge negative one that would let
    every doc pass the budget."""
    from apacheorcdotnet_ray.pipelines.sample import _row_hash, token_budget_sample

    n = 60
    nt = np.array([0 if i % 5 == 2 else i % 7 + 1 for i in range(n)])
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "text": pa.array([" ".join(["w"] * k) if k else None for k in nt],
                         type=pa.string())})).repartition(3)
    budget = int(nt.sum()) // 2
    out = sorted(token_budget_sample(ds, budget, n_buckets=16)
                 .to_pandas()["doc_id"].tolist())
    h = _row_hash(np.arange(n))
    order = np.lexsort((np.arange(n), h))
    keep = np.arange(n)[order][np.cumsum(nt[order]) <= budget]
    assert 0 < len(out) < n
    assert out == sorted(keep.tolist())


def test_oov_rate(ray_session):
    from apacheorcdotnet_ray.pipelines.text import oov_rate

    ds = rd.from_arrow(pa.table({
        "source": ["s1", "s1", "s2"],
        "text": ["a a b rare1", "a b b", "a rare2 rare2 rare3"],
    })).repartition(2)
    out = oov_rate(ds, k=2, num_partitions=8).to_pandas() \
        .set_index("source").sort_index()
    # vocab = top-2 by (count desc, word): a(5), b(3)
    assert out.loc["s1", "n_tokens"] == 7 and out.loc["s1", "n_oov"] == 1
    assert out.loc["s2", "n_tokens"] == 4 and out.loc["s2", "n_oov"] == 3
    assert out.loc["s2", "oov_rate"] == 0.75


def test_oov_rate_null_text_last_in_batch(ray_session):
    """A null text has no words; as a batch's last row it counts 0 tokens
    instead of raising IndexError from the per-doc reduceat."""
    from apacheorcdotnet_ray.pipelines.text import oov_rate

    ds = rd.from_arrow(pa.table({
        "source": ["s1", "s2", "s2"],
        "text": ["a a b", "a c", None],
    }))
    out = oov_rate(ds, k=2, num_partitions=8).to_pandas() \
        .set_index("source").sort_index()
    assert out.loc["s1", "n_tokens"] == 3 and out.loc["s1", "n_oov"] == 0
    assert out.loc["s2", "n_tokens"] == 2 and out.loc["s2", "n_oov"] == 1


def test_bloom_semi_join_null_and_unhashable_keys(ray_session):
    """Null left keys never match; a key type without an ORC bloom hash
    (decimal) skips the prefilter and still answers the exact semi join."""
    from decimal import Decimal

    from apacheorcdotnet_ray.pipelines.joins import bloom_semi_join

    keys = [3, None, 7, 8, None, 3, 11]
    right = pa.table({"rk": pa.array([3, 11, None], type=pa.int64())})
    got = bloom_semi_join(
        rd.from_arrow(pa.table({"k": pa.array(keys, type=pa.int64()),
                                "x": pa.array(range(len(keys)))})),
        rd.from_arrow(right), "k", "rk", num_partitions=2).to_pandas()
    assert sorted(got["x"]) == [0, 5, 6]
    dec = pa.decimal128(6, 2)
    got = bloom_semi_join(
        rd.from_arrow(pa.table({"k": pa.array(
            [Decimal("1.50"), None, Decimal("2.25")], type=dec),
            "x": pa.array([0, 1, 2])})),
        rd.from_arrow(pa.table({"rk": pa.array([Decimal("2.25")], type=dec)})),
        "k", "rk", num_partitions=2).to_pandas()
    assert list(got["x"]) == [2]
