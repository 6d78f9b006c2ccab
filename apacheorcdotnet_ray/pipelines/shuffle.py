"""Bounded hash-partition shuffle: the one place ``pipelines/`` hashes keys
to a bounded set of partitions.

Ray's groupby(...).map_groups(fn) invokes fn once per group; with
near-unique keys (LSH buckets, full texts) that is one Python call per row.
Instead: hash the key to a bounded partition id, groupby the partition id
(fixed number of groups regardless of key cardinality), and run a VECTORIZED
group-reduction inside each partition. All rows of one key land in
one partition, so semantics match a per-key groupby; skew is bounded because
the partition key is a uniform hash.

``grouped_sum`` is the package's one keyed count/sum: every operator that
counts or sums by key derives its columns and calls it, and it reduces in
Arrow before and after the shuffle. Ray's own ``Sum``/``Count``
aggregations are not used: in Ray 2.49 their groupby raises ``TypeError``
on a null string key.
"""

from __future__ import annotations

import numpy as np

# polars imports at module level: its lazy submodule init is not
# thread-safe, and Ray workers can hit first-use concurrently from
# multiple task threads (observed: AttributeError on polars._reexport)
import polars as pl
import pyarrow as pa
import ray.data as rd


def grouped_map(
    ds: rd.Dataset, keys: list[str], fn, num_partitions: int = 64,
    batch_format: str = "pandas",
) -> rd.Dataset:
    """groupby(keys)-equivalent with O(num_partitions) group invocations:
    fn receives complete key-groups and must itself reduce per key. The
    partition of a row is ``hash_rows(seed=1)`` of its keys mod
    ``num_partitions`` (the pack_sequences SQL oracle injects exactly this
    assignment). ``batch_format="pyarrow"`` hands fn an Arrow table, the
    right variant when the payload has list/tensor columns (object-dtype
    pandas would force per-row materialization)."""

    def add_pk(batch: pa.Table) -> pa.Table:
        h = pl.from_arrow(batch.select(keys)).hash_rows(seed=1).to_numpy()
        return batch.append_column(
            "_pk", pa.array((h % np.uint64(num_partitions)).astype(np.int64))
        )

    return (
        ds.map_batches(add_pk, batch_format="pyarrow")
        .groupby("_pk")
        # pandas DataFrame.drop and pa.Table.drop share this signature
        .map_groups(lambda g: fn(g.drop(columns="_pk")), batch_format=batch_format)
        .map_batches(_strip_meta_drop_empty, batch_format="pyarrow",
                     zero_copy_batch=True)
    )


def grouped_sum(
    ds: rd.Dataset, keys: list[str], cols: list[str], num_partitions: int = 64
) -> rd.Dataset:
    """The one keyed count/sum of ``pipelines/``: per-key sums of ``cols``
    over the rows of ``ds``, as columns ``keys`` then ``cols`` under their
    own names (a count is the sum of a column of ones). One Arrow reduction
    runs on both sides of the shuffle: per batch, so one row per (batch,
    key) crosses the wire, and again per partition. Arrow's rules hold: a
    null key is one group, a group whose values are all null sums to null
    (SQL's SUM), and int64 sums stay exact int64."""
    aggs = [(c, "sum") for c in cols]

    def reduce(t: pa.Table) -> pa.Table:
        g = t.select(keys + cols).group_by(keys, use_threads=False).aggregate(aggs)
        return pa.table([g.column(n) for n in keys + [f"{c}_sum" for c in cols]],
                        names=keys + cols)

    return grouped_map(ds.map_batches(reduce, batch_format="pyarrow"),
                       keys, reduce, num_partitions, batch_format="pyarrow")


def _strip_meta_drop_empty(batch: pa.Table):
    """Strip the schema metadata and DROP zero-COLUMN blocks.

    Ray's pandas→Arrow conversion after map_groups re-attaches the pandas
    metadata blob, making the schema unhashable (defeats Ray's block-schema
    dedup and spams warnings downstream); stripping it is zero-copy.

    Empty sort-range partitions come out of map_groups as zero-column
    blocks (schema "."). They poison schema-strict consumers — pa.Table.join
    inside Dataset.join's aggregators raises 'No match ... FieldRef' when
    such a block lands alone in a partition. Ray 2.49 passes zero-row blocks
    through a map stage without calling it, so there the drop never fires
    and those blocks still flow downstream, row-less; it fires only under a
    Ray that hands empty blocks to map stages.
    Consumers whose whole result may be empty keep their schema via a
    setops._schema_seed union block, which this stage never sees."""
    if batch.num_columns == 0:
        return
    yield batch.replace_schema_metadata(None) if batch.schema.metadata else batch
