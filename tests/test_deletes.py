"""Merge-on-read delete vectors: delete_where sidecars, decode-side
application (plain, predicate, row_range), accumulation, idempotency,
and physical removal via compact_stripes."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from apacheorcdotnet_ray.pipelines.deletes import delete_where
from apacheorcdotnet_ray.pipelines.encode import encode_dataset
from apacheorcdotnet_ray.sources.stripes import read_row_range, read_stripes
from apacheorcdotnet_ray.stripe.config import EncodeConfig
from apacheorcdotnet_ray.stripe.deletes import (
    decode_sidecar, encode_sidecar, read_delete_mask, write_delete_mask)


def _corpus(tmp_path, stride=None, n=10_000):
    out = str(tmp_path / "stripes")
    tbl = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array((np.arange(n) % 97).astype(np.int64)),
    })
    cfg = EncodeConfig(row_index_stride=stride) if stride else EncodeConfig()
    encode_dataset(rd.from_arrow(tbl).repartition(4), out,
                   config=cfg).materialize()
    return out, tbl


def test_sidecar_roundtrip():
    mask = np.zeros(1000, dtype=bool)
    mask[::7] = True
    assert np.array_equal(decode_sidecar(encode_sidecar(mask)), mask)


def test_delete_where_and_decode(ray_session, tmp_path):
    out, tbl = _corpus(tmp_path)
    summary = delete_where(out, ("v", "==", 13))
    expect_deleted = int((np.arange(10_000) % 97 == 13).sum())
    assert summary["rows_deleted_new"] == expect_deleted
    assert summary["rows_deleted_total"] == expect_deleted
    got = read_stripes(out).take_all()
    assert len(got) == 10_000 - expect_deleted
    assert all(r["v"] != 13 for r in got)
    # idempotent re-run: no new deletions
    again = delete_where(out, ("v", "==", 13))
    assert again["rows_deleted_new"] == 0
    assert again["rows_deleted_total"] == expect_deleted


def test_delete_accumulates_and_composes_with_predicate(ray_session, tmp_path):
    out, _ = _corpus(tmp_path, stride=1000)
    delete_where(out, ("v", "==", 13))
    delete_where(out, ("k", "<", 100))
    ks = np.arange(10_000)
    alive = ~((ks % 97 == 13) | (ks < 100))
    got = read_stripes(out).take_all()
    assert sorted(r["k"] for r in got) == list(ks[alive])
    # predicate read (stride-skipping path) must also honor deletes
    got2 = read_stripes(out, predicate=("k", "<", 300)).take_all()
    assert sorted(r["k"] for r in got2) == list(ks[(ks < 300) & alive])


def test_row_range_physical_with_deletes(ray_session, tmp_path):
    out, _ = _corpus(tmp_path, stride=1000)
    delete_where(out, ("k", "<", 10))
    # physical rows 0..49 minus the 10 deleted ⇒ 40 rows survive the slice
    got = read_row_range(out, 0, 50).take_all()
    assert sorted(r["k"] for r in got) == list(range(10, 50))


def test_compact_applies_deletes_physically(ray_session, tmp_path):
    import os

    from apacheorcdotnet_ray.pipelines.encode import compact_stripes
    from apacheorcdotnet_ray.sources.stripes import stripe_paths

    out, _ = _corpus(tmp_path, n=4000)
    delete_where(out, ("v", "==", 5))
    dst = str(tmp_path / "compacted")
    compact_stripes(out, dst, target_values=10_000_000)
    # merged output carries no sidecars and is physically filtered
    assert not any(os.path.exists(p + ".del") for p in stripe_paths(dst))
    ks = np.arange(4000)
    alive = ks[ks % 97 != 5]
    got = read_stripes(dst).take_all()
    assert sorted(r["k"] for r in got) == list(alive)


def test_mask_merge(ray_session, tmp_path):
    out, _ = _corpus(tmp_path, n=2000)
    p = sorted(__import__("glob").glob(out + "/*.oray"))[0]
    from apacheorcdotnet_ray.sources.stripes import read_stripe_footer

    rows = read_stripe_footer(p)["rows"]
    m1 = np.zeros(rows, dtype=bool); m1[0] = True
    m2 = np.zeros(rows, dtype=bool); m2[1] = True
    assert write_delete_mask(p, m1) == 1
    assert write_delete_mask(p, m1) == 0      # idempotent
    assert write_delete_mask(p, m2) == 1      # accumulates
    assert int(read_delete_mask(p).sum()) == 2
