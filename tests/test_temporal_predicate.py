"""Temporal predicate pushdown: one literal form (ISO string OR datetime)
must both PRUNE (footer/stride stats) and FILTER (exact row compare).

Regression for the round-2 advisory: timestamp footer stats are stored as
str(datetime) (space separator, microseconds dropped when zero) while
pc.less_equal(timestamp_col, pa.scalar("...")) has no kernel — so a string
literal raised in the read task and a datetime literal silently disabled
pruning. No Ray needed: decode_stripe + predicate.Term are pure."""

import datetime as dt

import numpy as np
import pyarrow as pa
import pytest

from apacheorcdotnet_ray.stripe.config import EncodeConfig
from apacheorcdotnet_ray.stripe.container import decode_stripe, encode_stripe
from apacheorcdotnet_ray.predicate import Term

TS = pa.timestamp("us")


def _ts_table(n=6000):
    base = dt.datetime(2024, 1, 1)
    ts = [base + dt.timedelta(minutes=7 * i) for i in range(n)]
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, type=pa.timestamp("us")),
    })


@pytest.mark.parametrize("lit", [
    "2024-01-03T00:00:00",            # 'T' separator (raised pre-fix)
    "2024-01-03 00:00:00",            # str(datetime) form
    "2024-01-03 00:00:00.000000",     # explicit zero microseconds
    dt.datetime(2024, 1, 3),          # datetime object (no-pruned pre-fix)
])
def test_temporal_filter_and_stride_prune(lit):
    tbl = _ts_table()
    buf, _ = encode_stripe(tbl, EncodeConfig(row_index_stride=1000))
    io: dict = {}
    out = decode_stripe(buf, predicate=("ts", "<", lit), io_stats=io)
    cutoff = dt.datetime(2024, 1, 3)
    exp = tbl.filter(pa.compute.less(tbl["ts"], pa.scalar(cutoff)))
    # decode_stripe late-materializes; rows at/after the cutoff never leave
    assert out.num_rows == exp.num_rows
    assert out["ts"].equals(exp["ts"])
    # and the stride index actually pruned (cutoff ≈ 41% through the rows)
    assert io["strides_read"] < io["strides_total"]


@pytest.mark.parametrize("lit", [
    "2024-01-03T00:00:00", dt.datetime(2024, 1, 3), dt.date(2024, 1, 3),
])
def test_maybe_satisfies_temporal_forms(lit):
    stats = {"min": "2024-01-01 00:00:00", "max": "2024-01-02 23:59:59"}
    assert Term("ts", "<", lit, TS).may_match(stats)  # range below the cutoff
    assert not Term("ts", ">=", lit, TS).may_match(stats)  # nothing at/after it
    # a 'T' literal compared RAW would sort above ' '-separated bounds and
    # wrongly claim > is satisfiable — parsed comparison must say no
    assert not Term("ts", ">", "2024-01-02T23:59:59", TS).may_match(stats)


def test_maybe_satisfies_incomparable_degrades_to_true():
    stats = {"min": "2024-01-01 00:00:00", "max": "2024-01-02 00:00:00"}
    # an int against a timestamp column is its µs-epoch value (1970), the
    # value the exact filter compares with: below this range, so pruned
    t = Term("ts", "<", 12345, TS)
    assert not t.may_match(stats)
    assert t.mask(pa.array([dt.datetime(2024, 1, 1)], TS)).to_pylist() == [False]
    # raw-epoch bounds (the out-of-range fallback) cannot be read: no prune
    assert Term("ts", "<", dt.datetime(2024, 1, 1), TS).may_match(
        {"min": 1, "max": 2})
    # a literal past datetime's year range has no Python value: no prune
    assert Term("ts", ">", 10**18, TS).may_match(stats)


def test_compare_mask_casts_literal():
    col = pa.chunked_array([pa.array(
        [dt.datetime(2024, 1, 1), dt.datetime(2024, 1, 5)], type=TS)])
    m = Term("ts", "<", "2024-01-03T00:00:00", TS).mask(col)
    assert m.to_pylist() == [True, False]
    # a numeric literal against a numeric column is not cast
    m = Term("x", ">=", 5, pa.int64()).mask(pa.array([1, 5]))
    assert m.to_pylist() == [False, True]
