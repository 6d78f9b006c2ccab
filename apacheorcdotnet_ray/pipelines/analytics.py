"""Composed analytic pipelines — multi-operator showcases built ONLY from
the engine's own stages (joins + grouped reduction + top-k), demonstrating
that the operator set composes into TPC-H-shaped reporting queries."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .shuffle import grouped_sum


def top_orders_by_revenue(
    lineitem: rd.Dataset, orders: rd.Dataset, min_total: float = 100_000.0,
    k: int = 10,
) -> rd.Dataset:
    """TPC-H Q3-shaped: join lineitem to high-value orders, sum revenue per
    order, return the top-k. Revenue accumulates as exact floor-cents ints
    (value-exact oracle). The join is hash_join's adaptive path (broadcast
    while the filtered orders side is small, repartition shuffle at scale);
    per-order sums pre-aggregate inside bounded partitions; only k rows
    reach the driver-side head."""
    from .joins import hash_join

    hot = orders.filter(expr=f"o_totalprice > {min_total}")
    joined = hash_join(
        lineitem.select_columns(["l_orderkey", "l_extendedprice"]),
        hot.select_columns(["o_orderkey", "o_custkey"]),
        "l_orderkey", "o_orderkey")

    def to_cents(batch: pa.Table) -> pa.Table:
        v = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "o_custkey": batch.column("o_custkey"),
            "revenue_cents": pa.array(np.floor(v * 100).astype(np.int64)),
        })

    per_order = grouped_sum(joined.map_batches(to_cents, batch_format="pyarrow"),
                            ["l_orderkey", "o_custkey"], ["revenue_cents"])
    return per_order.sort(["revenue_cents", "l_orderkey"],
                          descending=[True, False]).limit(k)
