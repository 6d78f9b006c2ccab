"""Distributed set operations with SQL INTERSECT / EXCEPT semantics
(distinct rows). Both sides project to the compared columns, union under a
side tag, and co-locate via bounded hash partitions; each partition resolves
with vectorized pandas drop_duplicates + an indicator merge — the shuffle
ships only the projected key columns.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data as rd

from .shuffle import grouped_map


def to_arrow_table(ds: rd.Dataset) -> pa.Table:
    """Collect a (small) Dataset to one Arrow table, preserving the schema
    even when the result has zero rows (``Dataset.to_pandas()`` returns a
    column-less frame for all-empty datasets). Materialized first: on a
    lazy Dataset, ``schema()`` and ``iter_batches`` each run the plan."""
    ds = ds.materialize()
    sch = ds.schema()
    schema = pa.schema(list(zip(sch.names, sch.types)))
    batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not batches:
        return schema.empty_table()
    return pa.concat_tables(batches, promote_options="default")


def _schema_seed(a: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Zero-row dataset carrying the projected schema: unioned in front of a
    grouped result so an all-empty outcome still exposes typed columns (Ray
    drops the schema when every group's output block is empty)."""
    sch = a.schema()
    fields = [(n, t) for n, t in zip(sch.names, sch.types) if n in cols]
    return rd.from_arrow(pa.schema(fields).empty_table())


def _tagged_union(a: rd.Dataset, b: rd.Dataset, cols: list[str]) -> rd.Dataset:
    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch.select(cols)
            return t.append_column("_side", pa.array([side] * t.num_rows))

        return fn

    return a.map_batches(tag("a"), batch_format="pyarrow").union(
        b.map_batches(tag("b"), batch_format="pyarrow"))


def intersect(a: rd.Dataset, b: rd.Dataset, cols: list[str],
              num_partitions: int = 64) -> rd.Dataset:
    """Distinct rows present in BOTH datasets (SQL INTERSECT)."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        ha = df[df["_side"] == "a"][cols].drop_duplicates()
        hb = df[df["_side"] == "b"][cols].drop_duplicates()
        return ha.merge(hb, on=cols, how="inner")

    return _schema_seed(a, cols).union(
        grouped_map(_tagged_union(a, b, cols), cols, part, num_partitions))


def except_(a: rd.Dataset, b: rd.Dataset, cols: list[str],
            num_partitions: int = 64) -> rd.Dataset:
    """Distinct rows of ``a`` absent from ``b`` (SQL EXCEPT)."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        ha = df[df["_side"] == "a"][cols].drop_duplicates()
        hb = df[df["_side"] == "b"][cols].drop_duplicates()
        m = ha.merge(hb, on=cols, how="left", indicator=True)
        return m[m["_merge"] == "left_only"][cols]

    return _schema_seed(a, cols).union(
        grouped_map(_tagged_union(a, b, cols), cols, part, num_partitions))


def distinct(ds: rd.Dataset, cols: list[str], num_partitions: int = 64) -> rd.Dataset:
    """SELECT DISTINCT over the projected columns (bounded hash partitions,
    vectorized drop_duplicates per partition)."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    proj = ds.map_batches(lambda b: b.select(cols), batch_format="pyarrow")
    return _schema_seed(ds, cols).union(
        grouped_map(proj, cols, part, num_partitions))


def union_distinct(a: rd.Dataset, b: rd.Dataset, cols: list[str],
                   num_partitions: int = 64) -> rd.Dataset:
    """SQL UNION (distinct rows of both sides)."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        return df[cols].drop_duplicates()

    return _schema_seed(a, cols).union(
        grouped_map(_tagged_union(a, b, cols), cols, part, num_partitions))
