"""pipelines/shuffle: the one bounded hash-partition shuffle behind every
keyed operator (grouped_map / grouped_sum, both joins)."""

import numpy as np
import pandas as pd
import polars as pl
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from apacheorcdotnet_ray.pipelines.joins import asof_join, repartition_join
from apacheorcdotnet_ray.pipelines.shuffle import grouped_map, grouped_sum


def _oracle_parts(keys: pa.Table, n: int) -> np.ndarray:
    """The partition assignment the pack_sequences SQL oracle injects."""
    return (pl.from_arrow(keys).hash_rows(seed=1).to_numpy()
            % np.uint64(n)).astype(np.int64)


def _blocks(ds: rd.Dataset) -> list[pa.Table]:
    return [ray.get(r) for r in ds.to_arrow_refs()]


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_grouped_map_one_call_per_key_and_oracle_partitions(ray_session,
                                                            batch_format):
    # near-unique string keys (a few repeat across batches), far fewer
    # distinct keys than partitions: most partitions are empty
    n_parts = 256
    keys = [f"d{i}" for i in range(60)] + ["d3", "d17", "d17", "d42"]
    t = pa.table({"doc_id": pa.array(keys), "x": pa.array(np.arange(len(keys)))})
    t = t.append_column("expect", pa.array(_oracle_parts(t.select(["doc_id"]), n_parts)))
    ds = rd.from_arrow(t).repartition(4)

    def fn(g):
        df = g if batch_format == "pandas" else g.to_pandas()
        assert isinstance(g, pd.DataFrame if batch_format == "pandas" else pa.Table)
        assert "_pk" not in df.columns
        out = df.groupby("doc_id", sort=False, as_index=False).agg(
            n=("x", "size"), x_sum=("x", "sum"))
        out["call"] = int(df["x"].min())  # identifies this fn call
        out["n_expect"] = df["expect"].nunique()
        out["expect"] = int(df["expect"].iloc[0])
        return out if batch_format == "pandas" \
            else pa.Table.from_pandas(out, preserve_index=False)

    got = grouped_map(ds, ["doc_id"], fn, n_parts,
                      batch_format=batch_format).to_pandas()
    want = t.to_pandas().groupby("doc_id").agg(n=("x", "size"), x_sum=("x", "sum"))
    # every key reaches exactly one call, with all of its rows
    assert got["doc_id"].is_unique
    pd.testing.assert_frame_equal(
        got.set_index("doc_id")[["n", "x_sum"]].sort_index(), want.sort_index(),
        check_dtype=False)
    # each call holds exactly one oracle partition, and each oracle
    # partition is one call: the grouping IS hash_rows(seed=1) % n
    assert (got["n_expect"] == 1).all()
    calls = got.groupby("call")["expect"].nunique()
    assert (calls == 1).all()
    assert got.groupby("expect")["call"].nunique().eq(1).all()
    assert got["expect"].nunique() < n_parts  # some partitions were empty


def _assert_clean_blocks(ds: rd.Dataset, names: list[str]):
    """No block carries schema metadata, and every block with rows has the
    output columns. Ray 2.49 passes the zero-row, zero-column blocks of
    empty sort ranges through a map stage without calling it, so those can
    still appear, but never with rows."""
    blocks = _blocks(ds)
    assert any(b.num_rows for b in blocks)
    for b in blocks:
        assert not b.schema.metadata
        assert b.column_names == names or (b.num_columns == 0 and b.num_rows == 0)


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_grouped_map_blocks_have_columns_and_no_metadata(ray_session,
                                                         batch_format):
    ds = rd.from_arrow(pa.table({"k": pa.array(np.arange(40) % 3),
                                 "v": pa.array(np.arange(40))})).repartition(8)
    out = grouped_map(ds, ["k"], lambda g: g, 64, batch_format=batch_format)
    _assert_clean_blocks(out, ["k", "v"])


def test_asof_join_blocks_have_columns_and_no_metadata(ray_session):
    left = rd.from_arrow(pa.table({
        "eid": pa.array(np.arange(12, dtype=np.int64)),
        "uk": pa.array(np.arange(12, dtype=np.int64) % 2),
        "t": pa.array(np.arange(12, dtype=np.int64) * 10),
    })).repartition(6)
    right = rd.from_arrow(pa.table({
        "rk": pa.array([0, 1, 1], type=pa.int64()),
        "rt": pa.array([5, 5, 50], type=pa.int64()),
        "v": pa.array([1.0, 2.0, 3.0]),
    }))
    out = asof_join(left, right, "eid", "uk", "t", "rk", "rt", "v")
    _assert_clean_blocks(out, ["eid", "t", "v"])


@pytest.mark.parametrize("how", ["inner", "full"])
def test_repartition_join_blocks_have_columns_and_no_metadata(ray_session, how):
    left = rd.from_arrow(pa.table({"k": pa.array(np.arange(30) % 3),
                                   "x": pa.array(np.arange(30))})).repartition(6)
    right = rd.from_arrow(pa.table({"rk": pa.array([0, 1, 7]),
                                    "name": pa.array(["a", "b", "z"])}))
    out = repartition_join(left, right, "k", "rk", how=how)
    _assert_clean_blocks(out, ["k", "x", "name"])
    got = pd.concat([b.to_pandas() for b in _blocks(out)])
    assert len(got) == (20 if how == "inner" else 31)


def test_grouped_sum_matches_pandas_groupby_sum(ray_session):
    rng = np.random.default_rng(5)
    n = 500
    t = pa.table({
        "a": pa.array(rng.integers(0, 40, n)),
        "b": pa.array(rng.choice(["x", "y", "z"], n)),
        "c1": pa.array(rng.integers(-1000, 1000, n)),
        "c2": pa.array(rng.integers(0, 10**12, n)),
    })
    got = grouped_sum(rd.from_arrow(t).repartition(5), ["a", "b"], ["c1", "c2"],
                      num_partitions=16).to_pandas()
    want = t.to_pandas().groupby(["a", "b"], as_index=False)[["c1", "c2"]].sum()
    key = ["a", "b"]
    assert list(got.columns) == ["a", "b", "c1", "c2"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True), check_dtype=False)


def test_grouped_sum_keeps_null_key_exact_int64_and_null_sum(ray_session):
    """A null key is one group, an int64 sum stays exact and a group whose
    values are all null sums to null: the result equals one Arrow group_by
    over the whole input."""
    t = pa.table({
        "k": pa.array(["a", None, "a", None, "b"]),
        "v": pa.array([2**62 + 1, 2, 3, None, None], type=pa.int64()),
    })
    out = grouped_sum(rd.from_arrow(t).repartition(3), ["k"], ["v"],
                      num_partitions=4)
    got = pa.concat_tables([b for b in _blocks(out) if b.num_rows])
    w = t.group_by(["k"]).aggregate([("v", "sum")])
    want = pa.table({"k": w["k"], "v": w["v_sum"]})
    assert got.schema == want.schema
    assert ({r["k"]: r["v"] for r in got.to_pylist()}
            == {r["k"]: r["v"] for r in want.to_pylist()}
            == {"a": 2**62 + 4, None: 2, "b": None})
    assert got.num_rows == 3
