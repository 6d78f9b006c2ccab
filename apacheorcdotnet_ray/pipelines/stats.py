"""Statistics pipelines — the reference's stats aggregators as Ray Data stages.

A1/A2 analog (SURVEY.md §2.5): per-batch partial stats inside ``map_batches``
(pyarrow.compute kernels), file-level final merge as a tiny driver-side reduce
over one small partial row per batch — the partial+final aggregation tree,
never a full shuffle.

Every count or sum by key (windowed and sliding aggregates, top-k, pricing
summary, group stats, rollup, cube, pivot, histogram) only derives its
output columns per batch, a count being a column of ones, and hands them to
``shuffle.grouped_sum``: one Arrow reduction before and after the shuffle,
with SQL's null rules."""

from __future__ import annotations

import json

import pyarrow as pa

# polars imports at module level: its lazy submodule init is not
# thread-safe, and Ray workers can hit first-use concurrently from
# multiple task threads (observed: AttributeError on polars._reexport)
import polars  # noqa: F401

import ray.data as rd

from ..stripe.stats import column_stats, merge_stats
from .shuffle import grouped_map, grouped_sum


def dataset_column_stats(ds: rd.Dataset, columns: list[str] | None = None) -> dict[str, dict]:
    """column → merged stats over the whole dataset."""

    def partials(batch: pa.Table) -> pa.Table:
        cols = columns or batch.column_names
        st = {c: column_stats(batch.column(c)) for c in cols if c in batch.column_names}
        return pa.table({"stats_json": pa.array([json.dumps(st)])})

    merged: dict[str, dict] = {}
    for row in ds.map_batches(partials, batch_format="pyarrow").take_all():
        for c, st in json.loads(row["stats_json"]).items():
            merged[c] = merge_stats(merged.get(c), st)
    return merged


def stats_row(ds: rd.Dataset, int_columns: list[str], float_columns: list[str] = ()) -> pa.Table:
    """One-row summary table with SQL-matchable column names:
    n_rows plus {col}_min/{col}_max/{col}_sum (ints) and min/max (floats —
    sums of floats are association-order-dependent, so they stay out of the
    oracle-comparable surface)."""
    merged = dataset_column_stats(ds, list(int_columns) + list(float_columns))
    out: dict[str, list] = {}
    any_col = next(iter(merged.values()))
    out["n_rows"] = [any_col["count"]]
    for c in int_columns:
        out[f"{c}_min"] = [merged[c].get("min")]
        out[f"{c}_max"] = [merged[c].get("max")]
        out[f"{c}_sum"] = [merged[c].get("sum")]
    for c in float_columns:
        out[f"{c}_min"] = [merged[c].get("min")]
        out[f"{c}_max"] = [merged[c].get("max")]
    return pa.table(out)


def windowed_agg(ds: rd.Dataset, ts_col: str = "ts", key: str = "event_type",
                 value_col: str = "value", window: str = "hour") -> rd.Dataset:
    """Tumbling-window aggregate over an event stream: per (window_start, key)
    event count + quantized value sum. Pure batch semantics (the reference has
    no watermarks): the window id is a column derived per batch, then
    ``grouped_sum`` counts and sums per window and key. Values are quantized
    to integer millis (floor(value*1000)) so the sum is
    association-order-independent and oracle-comparable."""
    import numpy as np
    import pyarrow.compute as pc

    def rows(batch: pa.Table) -> pa.Table:
        millis = pc.floor(pc.multiply(batch.column(value_col), pa.scalar(1000.0)))
        return pa.table({
            "window_start": pc.floor_temporal(batch.column(ts_col), unit=window),
            key: batch.column(key),
            "sum_millis": millis.cast(pa.int64()),
            "n_events": np.ones(batch.num_rows, dtype=np.int64),
        })

    return grouped_sum(ds.map_batches(rows, batch_format="pyarrow"),
                       ["window_start", key], ["sum_millis", "n_events"])


def distinct_count(ds: rd.Dataset, col: str) -> pa.Table:
    """Exact distinct count, generalizing the reference's distinct-ratio
    sample (StringWriter.cs:89-92, A4) to a full-dataset operator: per-batch
    unique first (the shuffle ships unique values only), then per-partition
    unique counts, then a tiny driver sum."""
    def batch_unique(batch: pa.Table) -> pa.Table:
        return pa.table({col: batch.column(col).unique()})

    def part_count(df):
        import pandas as pd

        return pd.DataFrame({"n": [df[col].nunique()]})

    uniq = ds.map_batches(batch_unique, batch_format="pyarrow")
    parts = grouped_map(uniq, [col], part_count).take_all()
    return pa.table({"n_distinct": pa.array([sum(r["n"] for r in parts)], type=pa.int64())})


_HLL_P = 14  # 2^14 registers → ~0.8% standard error


def distinct_count_hll(ds: rd.Dataset, col: str, p: int = _HLL_P) -> pa.Table:
    """Approximate distinct count: HyperLogLog partials per batch (vectorized
    register update via np.maximum.at), merged associatively on the driver —
    the no-shuffle scale path (a sketch crosses the wire, never values)."""
    import numpy as np

    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        h = pl.from_arrow(batch.select([col])).hash_rows(seed=3).to_numpy().astype(np.uint64)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = (h << np.uint64(p)) | np.uint64(1 << (p - 1))  # sentinel stops clz
        # rank = leading zeros of remaining bits + 1, via float exponent trick
        rank = np.zeros(len(h), dtype=np.uint8)
        nz = rest != 0
        bits = 64 - np.frexp(rest[nz].astype(np.float64))[1]
        rank[nz] = np.minimum(bits + 1, 64 - p + 1).astype(np.uint8)
        regs = np.zeros(m, dtype=np.uint8)
        np.maximum.at(regs, idx, rank)
        return pa.table({"regs": pa.array([regs.tobytes()], type=pa.binary())})

    regs = np.zeros(m, dtype=np.uint8)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        regs = np.maximum(regs, np.frombuffer(row["regs"], dtype=np.uint8))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range correction
    return pa.table({"n_distinct_approx": pa.array([int(round(est))], type=pa.int64())})


def top_k(ds: rd.Dataset, col: str, k: int = 10) -> pa.Table:
    """Exact heavy hitters: per-value counts (``grouped_sum``) → tiny
    driver-side top-k. Ties break by value, a null value last."""
    import numpy as np

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table({col: batch.column(col),
                         "cnt": np.ones(batch.num_rows, dtype=np.int64)})

    counts = grouped_sum(ds.map_batches(ones, batch_format="pyarrow"),
                         [col], ["cnt"]).take_all()
    counts.sort(key=lambda r: (-r["cnt"], r[col] is None, r[col]))
    top = counts[:k]
    return pa.table({
        col: pa.array([r[col] for r in top]),
        "cnt": pa.array([r["cnt"] for r in top], type=pa.int64()),
    })


def pricing_summary(ds: rd.Dataset) -> rd.Dataset:
    """TPC-H Q1-shaped grouped multi-aggregate over lineitem with per-batch
    pre-aggregation; money columns quantized to integer cents so sums are
    association-order-independent (oracle-comparable)."""
    import numpy as np
    import pyarrow.compute as pc

    def rows(batch: pa.Table) -> pa.Table:
        cents = pc.floor(pc.multiply(batch.column("l_extendedprice"),
                                     pa.scalar(100.0))).cast(pa.int64())
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            # quantities are integral
            "sum_qty": batch.column("l_quantity").cast(pa.int64()),
            "sum_cents": cents,
            "count_order": np.ones(batch.num_rows, dtype=np.int64),
        })

    return grouped_sum(ds.map_batches(rows, batch_format="pyarrow"),
                       ["l_returnflag", "l_linestatus"],
                       ["sum_qty", "sum_cents", "count_order"])


def sessionize(
    ds: rd.Dataset, user_col: str = "user_id", ts_col: str = "ts",
    gap_minutes: float = 30.0,
) -> rd.Dataset:
    """Gap-based sessionization: per user, a new session starts when the gap
    to the previous event exceeds ``gap_minutes``. Returns per-user session
    and event counts. Users are co-located via bounded hash partitions; the
    per-partition reduction is one vectorized pandas sort+diff."""
    import numpy as np
    import pandas as pd

    gap = pd.Timedelta(minutes=gap_minutes)

    def count_sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([user_col, ts_col], kind="mergesort")
        new_user = df[user_col].ne(df[user_col].shift())
        big_gap = df[ts_col].diff() > gap
        df = df.assign(_new=(new_user | big_gap).astype(np.int64))
        g = df.groupby(user_col, sort=False)
        out = g["_new"].sum().rename("n_sessions").to_frame()
        out["n_events"] = g.size()
        return out.reset_index()

    return grouped_map(ds.select_columns([user_col, ts_col]), [user_col],
                       count_sessions)


def quantile_exact(ds: rd.Dataset, col: str, q: float, bins: int = 4096) -> float:
    """Exact discrete quantile (the element at index floor(q*(n-1)) of the
    sorted column) without a distributed sort: histogram passes narrow the
    value range until the target bin is small enough to collect, then the
    exact element is picked locally. Each pass moves only per-batch bin
    counts (bins x 8 bytes), never data."""
    import numpy as np

    def hist_pass(lo: float, hi: float) -> np.ndarray:
        def partial(batch: pa.Table) -> pa.Table:
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[(v >= lo) & (v <= hi)]
            idx = np.minimum(((v - lo) / max(hi - lo, 1e-300) * bins).astype(np.int64),
                             bins - 1)
            return pa.table({"h": pa.array([np.bincount(idx, minlength=bins).tobytes()])})

        acc = np.zeros(bins, dtype=np.int64)
        for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
            acc += np.frombuffer(row["h"], dtype=np.int64)
        return acc

    stats = dataset_column_stats(ds, [col])[col]
    lo, hi, n = float(stats["min"]), float(stats["max"]), stats["count"] - stats["null_count"]
    target = int(np.floor(q * (n - 1)))  # duckdb quantile_disc index convention
    below = 0
    for _ in range(4):  # each pass narrows the range by ~bins x
        if lo == hi:
            return lo
        h = hist_pass(lo, hi)
        cum = np.cumsum(h)
        b = int(np.searchsorted(cum, target - below + 1))
        in_bin = int(h[b])
        if in_bin <= 100_000:
            break
        below += int(cum[b]) - in_bin
        width = (hi - lo) / bins
        lo, hi = lo + b * width, lo + (b + 1) * width

    # final pass uses the SAME bin-index formula as the histogram so edge
    # rounding can never disagree between the count and the collected values
    flo, fhi, fb = lo, hi, b

    def bin_of(v: np.ndarray) -> np.ndarray:
        inside = (v >= flo) & (v <= fhi)
        idx = np.full(len(v), -1, dtype=np.int64)
        idx[inside] = np.minimum(
            ((v[inside] - flo) / max(fhi - flo, 1e-300) * bins).astype(np.int64),
            bins - 1)
        return idx

    # two small follow-up aggregations: the bin's values and the exact count
    # below the bin (values below `lo` from earlier passes included)
    def bin_vals(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({col: pa.array(v[bin_of(v) == fb])})

    def below_count(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        idx = bin_of(v)
        c = int((v < flo).sum() + ((idx >= 0) & (idx < fb)).sum())
        return pa.table({"c": pa.array([c], type=pa.int64())})

    parts = [r[col].to_numpy(zero_copy_only=False)
             for r in ds.map_batches(bin_vals, batch_format="pyarrow").iter_batches(
                 batch_format="pyarrow") if r.num_rows]
    vals = np.sort(np.concatenate(parts)) if parts else np.empty(0)
    exact_below = sum(r["c"] for r in
                      ds.map_batches(below_count, batch_format="pyarrow").take_all())
    return float(vals[target - exact_below])


def top_k_by_group(ds: rd.Dataset, group: str, col: str, k: int = 3) -> rd.Dataset:
    """Per-group heavy hitters: top-k values of ``col`` within each ``group``
    by count (ties break by value). Pre-aggregated (group, value) counts move
    through the shuffle, never rows; the per-partition reduction is one
    vectorized pandas sort + cumcount head."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by([group, col]).aggregate([([], "count_all")])
        return g.rename_columns([group, col, "p_cnt"])

    def reduce_part(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby([group, col], sort=False, as_index=False)["p_cnt"].sum()
        c = c.sort_values([group, "p_cnt", col], ascending=[True, False, True],
                          kind="mergesort")
        c["rank"] = c.groupby(group, sort=False).cumcount() + 1
        out = c[c["rank"] <= k].rename(columns={"p_cnt": "cnt"})
        return out[[group, col, "cnt", "rank"]]

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_map(partials, [group], reduce_part)


def group_stats_by(ds: rd.Dataset, key: str, sum_col: str) -> rd.Dataset:
    """Grouped sum + count per ``key`` (``sum_val``, ``n_rows``) through
    ``grouped_sum``: SQL SUM semantics, so a null key is one group and an
    all-null group sums to NULL."""
    import numpy as np

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table({key: batch.column(key), "sum_val": batch.column(sum_col),
                         "n_rows": np.ones(batch.num_rows, dtype=np.int64)})

    return grouped_sum(ds.map_batches(rows, batch_format="pyarrow"),
                       [key], ["sum_val", "n_rows"])


def sliding_windowed_agg(ds: rd.Dataset, ts_col: str = "ts",
                         key: str = "event_type", value_col: str = "value",
                         window_minutes: int = 60, slide_minutes: int = 15) -> rd.Dataset:
    """Sliding (hopping) window aggregate: each event lands in
    window_minutes / slide_minutes overlapping windows; per
    (window_start, key) count + quantized value sum.

    The explode is a vectorized repeat (window/slide is a small constant),
    then the same ``grouped_sum`` as the tumbling variant — it reduces each
    batch first, so the shuffle moves one row per (batch, window, key),
    never the exploded events."""
    import numpy as np
    import pyarrow.compute as pc

    assert window_minutes % slide_minutes == 0
    n_win = window_minutes // slide_minutes
    slide_us = np.int64(slide_minutes * 60_000_000)

    def rows(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        # newest window containing t starts at floor(t/slide)*slide; the
        # n_win windows starting there and earlier all contain t
        base = (ts // slide_us) * slide_us
        offs = (np.arange(n_win, dtype=np.int64) * slide_us)[None, :]
        starts = (base[:, None] - offs).ravel()
        millis = pc.floor(pc.multiply(batch.column(value_col), pa.scalar(1000.0))) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = batch.column(key)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        return pa.table({
            "window_start": pa.array(starts, type=pa.int64()).cast(
                pa.timestamp("us")),
            key: keys.take(pa.array(np.repeat(np.arange(len(ts)), n_win))),
            "sum_millis": pa.array(np.repeat(millis, n_win)),
            "n_events": np.ones(len(starts), dtype=np.int64),
        })

    return grouped_sum(ds.map_batches(rows, batch_format="pyarrow"),
                       ["window_start", key], ["sum_millis", "n_events"])


def stats_from_footers(stripe_dir: str, int_columns: list[str],
                       float_columns: list[str] = ()) -> pa.Table:
    """Aggregate pushdown to metadata: n_rows + per-column min/max/sum
    answered ENTIRELY from stripe footers (tail-only reads, Ray-task
    fan-out via map_footers) — zero data segments decompressed, zero rows
    decoded. Same output shape as ``stats_row``. Footers carry exact int
    sums (overflow-poisoned to null like the reference) and exact int/
    float/string min/max; decimal footer bounds are one-ULP widened (see
    stripe/stats.py), so don't feed decimal columns here expecting
    exactness."""
    from ..sources.stripes import map_footers, read_stripe_footer, stripe_paths

    paths = stripe_paths(stripe_dir)

    def stripe_summary(path: str) -> tuple[int, dict]:
        f = read_stripe_footer(path)
        return f["rows"], {c["name"]: c["stats"] for c in f["columns"]}

    per_stripe = map_footers(paths, stripe_summary)

    wanted = list(int_columns) + list(float_columns)
    merged: dict[str, dict | None] = {c: None for c in wanted}
    n_rows = 0
    for rows, st in per_stripe:
        n_rows += rows  # the footer's authoritative row count
        for c in wanted:
            if c in st:
                merged[c] = merge_stats(merged[c], st[c])

    out: dict[str, list] = {"n_rows": [n_rows]}
    for c in int_columns:
        m = merged[c] or {}
        out[f"{c}_min"] = [m.get("min")]
        out[f"{c}_max"] = [m.get("max")]
        out[f"{c}_sum"] = [m.get("sum")]
    for c in float_columns:
        m = merged[c] or {}
        out[f"{c}_min"] = [m.get("min")]
        out[f"{c}_max"] = [m.get("max")]
    return pa.table(out)


def pivot_counts(ds: rd.Dataset, key: str, pivot_col: str,
                 categories: list[str]) -> rd.Dataset:
    """Pivot: one row per ``key`` with a count column per category of
    ``pivot_col``. The category list is explicit (schema must be static);
    per-batch vectorized one-hot columns, then one ``grouped_sum``."""
    import pyarrow.compute as pc

    cat_names = [f"n_{c}" for c in categories]

    def one_hot(batch: pa.Table) -> pa.Table:
        cols = {key: batch.column(key)}
        for c, name in zip(categories, cat_names):
            cols[name] = pc.equal(batch.column(pivot_col), c).cast(pa.int64())
        return pa.table(cols)

    return grouped_sum(ds.map_batches(one_hot, batch_format="pyarrow"),
                       [key], cat_names)


def group_quantile(ds: rd.Dataset, key: str, value_col: str, q: float = 0.5,
                   num_partitions: int = 64) -> rd.Dataset:
    """Per-group exact discrete quantile (quantile_disc semantics: the
    value at ceil(q*n)-1 in sorted order). Groups co-locate via bounded
    hash partitions; within a partition one sort + vectorized per-group
    index pick."""
    import numpy as np
    import pandas as pd

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, value_col], kind="mergesort")
        sizes = df.groupby(key, sort=False)[value_col].transform("size").to_numpy()
        target = np.maximum(np.ceil(q * sizes).astype(np.int64) - 1, 0)
        take = df.groupby(key, sort=False).cumcount().to_numpy() == target
        out = df[take][[key, value_col]]
        return out.rename(columns={value_col: f"q{int(q * 100)}"})

    return grouped_map(ds.select_columns([key, value_col]), [key], pick,
                       num_partitions)


def group_rollup(ds: rd.Dataset, key: str, value_col: str) -> rd.Dataset:
    """GROUP BY ROLLUP(key): the group_stats_by per-key rows plus one
    grand-total row (key = NULL), a free driver-side fold over the tiny
    per-key result. SQL SUM semantics throughout: an all-null group sums to
    NULL, the grand total sums the non-null group sums (NULL only when
    every group is), and an empty input yields just the (NULL, NULL, 0)
    total row — matching DuckDB's ROLLUP exactly."""
    per_key = group_stats_by(ds, key, value_col)
    rows = per_key.take_all()  # tiny: one row per key
    sch = per_key.schema()
    key_type = sch.types[sch.names.index(key)]
    # sum type follows the value column (an int64 hardcode would silently
    # TRUNCATE float sums when pa.array coerces)
    sum_type = sch.types[sch.names.index("sum_val")]
    sums = [r["sum_val"] for r in rows]
    non_null = [s for s in sums if s is not None]
    total_sum = sum(non_null) if non_null else None
    keys_arr = pa.array([r[key] for r in rows] + [None], type=key_type)
    return rd.from_arrow(pa.table({
        key: keys_arr,
        "sum_val": pa.array(sums + [total_sum], type=sum_type),
        "n_rows": pa.array([r["n_rows"] for r in rows]
                           + [sum(r["n_rows"] for r in rows)], type=pa.int64()),
    }))


def value_histogram(ds: rd.Dataset, col: str, bin_width: float = 10.0) -> rd.Dataset:
    """Fixed-width histogram: bin = floor(value / bin_width), counted per bin
    by ``grouped_sum`` — the distinct-bin domain crosses the wire, never
    values. floor-after-divide is the same single IEEE op in the SQL
    oracle, so counts are value-exact; a null value falls in the null bin,
    as SQL's floor(NULL / w) does."""
    import numpy as np
    import pyarrow.compute as pc

    def bins(batch: pa.Table) -> pa.Table:
        v = batch.column(col).cast(pa.float64(), safe=False)
        return pa.table({"bin": pc.floor(pc.divide(v, bin_width)).cast(pa.int64()),
                         "n": np.ones(batch.num_rows, dtype=np.int64)})

    return grouped_sum(ds.map_batches(bins, batch_format="pyarrow"),
                       ["bin"], ["n"])


def corr_columns(ds: rd.Dataset, x: str, y: str) -> pa.Table:
    """Pearson correlation of two INTEGER columns with exact arithmetic up to
    the final expression: per-batch int64 partial sums (n, sx, sy, sxx, syy,
    sxy) — six numbers per batch to the driver — combined in arbitrary-
    precision Python int, then ONE float expression identical to the SQL
    oracle's, so the double result is bit-equal."""
    import math

    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        xv = batch.column(x).to_numpy(zero_copy_only=False).astype(np.int64)
        yv = batch.column(y).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({k: pa.array([int(v)], type=pa.int64()) for k, v in (
            ("n", len(xv)), ("sx", xv.sum()), ("sy", yv.sum()),
            ("sxx", (xv * xv).sum()), ("syy", (yv * yv).sum()),
            ("sxy", (xv * yv).sum()))})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in rows)
    sx = sum(r["sx"] for r in rows)
    sy = sum(r["sy"] for r in rows)
    sxx = sum(r["sxx"] for r in rows)
    syy = sum(r["syy"] for r in rows)
    sxy = sum(r["sxy"] for r in rows)
    corr = float(n * sxy - sx * sy) / (
        math.sqrt(float(n * sxx - sx * sx)) * math.sqrt(float(n * syy - sy * sy)))
    return pa.table({
        "n_rows": pa.array([n], type=pa.int64()),
        "corr": pa.array([corr], type=pa.float64()),
    })


def running_total(
    ds: rd.Dataset, user_col: str = "user_id", ts_col: str = "ts",
    id_col: str = "event_id", value_col: str = "value",
) -> rd.Dataset:
    """Per-user running total in event-time order (the cumulative window
    function SUM ... OVER (PARTITION BY user ORDER BY ts, id)). Users are
    co-located via bounded hash partitions; each partition does one
    vectorized sort + groupby-cumsum. Values accumulate as exact
    floor-millis integers so the oracle compares value-exactly."""
    import numpy as np

    def cum(df):
        df = df.sort_values([user_col, ts_col, id_col], kind="mergesort")
        millis = np.floor(df[value_col].to_numpy() * 1000).astype(np.int64)
        df = df.assign(cum_millis=millis)
        df["cum_millis"] = df.groupby(user_col, sort=False)["cum_millis"].cumsum()
        return df[[id_col, user_col, "cum_millis"]]

    return grouped_map(
        ds.select_columns([id_col, user_col, ts_col, value_col]),
        [user_col], cum)


def event_paths(
    ds: rd.Dataset, user_col: str = "user_id", ts_col: str = "ts",
    id_col: str = "event_id", type_col: str = "event_type", sep: str = ">",
) -> rd.Dataset:
    """Per-user ordered event-type path (the string_agg ... ORDER BY window
    shape, used for funnel/journey mining). Bounded hash partitions on the
    user key; per-partition one sort + join-aggregation."""

    def agg(df):
        df = df.sort_values([user_col, ts_col, id_col], kind="mergesort")
        g = df.groupby(user_col, sort=False)
        out = g[type_col].agg(sep.join).rename("path").to_frame()
        out["n_events"] = g.size()
        return out.reset_index()

    return grouped_map(
        ds.select_columns([user_col, ts_col, id_col, type_col]),
        [user_col], agg)


def group_cube(ds: rd.Dataset, key1: str, key2: str, value_col: str) -> rd.Dataset:
    """GROUP BY CUBE(key1, key2): all four grouping sets — (k1,k2), (k1),
    (k2), () — from ONE streaming pass. The per-pair sums come from
    ``grouped_sum``; the three coarser sets are a free driver-side fold
    over the tiny per-pair result, so no second scan and no second
    shuffle. SQL SUM semantics match group_rollup's (reference stats
    roll-up: src/ApacheOrcDotNet/Statistics/, same stride→stripe→file
    aggregation tree shape, one level wider)."""
    import numpy as np

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table({key1: batch.column(key1), key2: batch.column(key2),
                         "sum_val": batch.column(value_col),
                         "n_rows": np.ones(batch.num_rows, dtype=np.int64)})

    per_pair = grouped_sum(ds.map_batches(rows, batch_format="pyarrow"),
                           [key1, key2], ["sum_val", "n_rows"])
    rows = per_pair.take_all()  # tiny: one row per (key1, key2) pair
    sch = per_pair.schema() if rows else None
    if sch is not None:
        t1 = sch.types[sch.names.index(key1)]
        t2 = sch.types[sch.names.index(key2)]
        ts = sch.types[sch.names.index("sum_val")]
    else:  # empty input: aggregate yields no schema — fall back to the input's
        in_sch = ds.schema()
        t1 = in_sch.types[in_sch.names.index(key1)]
        t2 = in_sch.types[in_sch.names.index(key2)]
        ts = in_sch.types[in_sch.names.index(value_col)]

    def fold(group_rows, k1, k2):
        sums = [r["sum_val"] for r in group_rows]
        non_null = [s for s in sums if s is not None]
        return {key1: k1, key2: k2,
                "sum_val": sum(non_null) if non_null else None,
                "n_rows": sum(r["n_rows"] for r in group_rows)}

    out = [fold([r], r[key1], r[key2]) for r in rows]
    for k1 in sorted({r[key1] for r in rows}, key=lambda v: (v is None, v)):
        out.append(fold([r for r in rows if r[key1] == k1], k1, None))
    for k2 in sorted({r[key2] for r in rows}, key=lambda v: (v is None, v)):
        out.append(fold([r for r in rows if r[key2] == k2], None, k2))
    out.append(fold(rows, None, None))
    return rd.from_arrow(pa.table({
        key1: pa.array([r[key1] for r in out], type=t1),
        key2: pa.array([r[key2] for r in out], type=t2),
        "sum_val": pa.array([r["sum_val"] for r in out], type=ts),
        "n_rows": pa.array([r["n_rows"] for r in out], type=pa.int64()),
    }))


def windowed_distinct(ds: rd.Dataset, ts_col: str = "ts",
                      id_col: str = "user_id",
                      window: str = "hour") -> rd.Dataset:
    """Exact COUNT(DISTINCT id) per tumbling window — the sessions-per-hour
    shape. Two-level reduction: per-batch (window, id) dedup partials (so
    the shuffle carries distinct pairs, not events), one bounded hash
    shuffle keyed on the window, then a vectorized per-window nunique.
    At 100 TB the pair domain is bounded by windows x active ids — the same
    reduction a groupby over raw events could never afford."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        ws = pc.floor_temporal(batch.column(ts_col), unit=window)
        t = pa.table({"window_start": ws, "id": batch.column(id_col)})
        return t.group_by(["window_start", "id"]).aggregate([])

    def reduce_part(df):
        g = df.groupby("window_start", sort=False)["id"].nunique()
        out = g.rename("n_distinct").to_frame().reset_index()
        out["n_distinct"] = out["n_distinct"].astype("int64")
        return out

    return grouped_map(ds.map_batches(partial, batch_format="pyarrow"),
                       ["window_start"], reduce_part)


def profile_table(ds: rd.Dataset, columns: list[str] | None = None) -> pa.Table:
    """Data-quality profile: one row per column with (n_rows, n_nulls,
    n_distinct) — the pre-ingestion report a curation pipeline runs before
    committing to a schema. Null counts come from ONE streaming pass of
    per-batch validity partials (Arrow null_count is metadata, no value
    scan); exact distincts reuse distinct_count's unique-first bounded
    shuffle per column, so nothing row-sized ever reaches the driver.
    Ray's projection pushdown prunes each distinct pass to its one column."""
    cols = columns or list(ds.schema().names)

    def null_partial(batch: pa.Table) -> pa.Table:
        row = {"_rows": pa.array([batch.num_rows], type=pa.int64())}
        for i, c in enumerate(cols):
            row[f"_n{i}"] = pa.array([batch.column(c).null_count],
                                     type=pa.int64())
        return pa.table(row)

    agg = ds.map_batches(null_partial, batch_format="pyarrow") \
        .sum(["_rows"] + [f"_n{i}" for i in range(len(cols))])
    n_rows = int(agg["sum(_rows)"])
    distincts = [
        int(distinct_count(ds.select_columns([c]), c)["n_distinct"][0].as_py())
        for c in cols
    ]
    return pa.table({
        "col": pa.array(cols, type=pa.string()),
        "n_rows": pa.array([n_rows] * len(cols), type=pa.int64()),
        "n_nulls": pa.array([int(agg[f"sum(_n{i})"]) for i in range(len(cols))],
                            type=pa.int64()),
        "n_distinct": pa.array(distincts, type=pa.int64()),
    })


def quantile_sketch(ds: rd.Dataset, col: str, q: float = 0.5,
                    k: int = 256) -> float:
    """Mergeable one-pass quantile sketch (GK/KLL-style weighted sample):
    each batch sorts its values and keeps one representative per stride of
    ceil(n_batch/k), weighted by the stride's true length, so a batch ships
    at most k (value, weight) pairs regardless of size. The driver merges
    all partials by value and reads the weighted quantile. Cumulative rank
    error is bounded by sum_b(stride_b)/2 ~ n/(2k) — one pass vs
    ``quantile_exact``'s four, the standard sketch trade."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        v = np.sort(batch.column(col).drop_null()
                    .to_numpy(zero_copy_only=False).astype(np.float64))
        n = len(v)
        if n == 0:
            return pa.table({"val": pa.array([], type=pa.float64()),
                             "w": pa.array([], type=pa.int64())})
        s = -(-n // k)  # ceil
        starts = np.arange(0, n, s)
        ends = np.minimum(starts + s, n)
        reps = np.minimum(starts + s // 2, n - 1)
        return pa.table({"val": pa.array(v[reps]),
                         "w": pa.array(ends - starts)})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    if not rows:  # empty dataset or all-null column: no rank to estimate
        raise ValueError(f"quantile_sketch: no non-null values in {col!r}")
    vals = np.array([r["val"] for r in rows])
    ws = np.array([r["w"] for r in rows], dtype=np.int64)
    order = np.argsort(vals, kind="stable")
    cum = np.cumsum(ws[order])
    target = q * cum[-1]
    return float(vals[order][np.searchsorted(cum, target, side="left")])


def lag_delta(
    ds: rd.Dataset, user_col: str = "user_id", ts_col: str = "ts",
    id_col: str = "event_id",
) -> rd.Dataset:
    """Per-user time-since-previous-event (the LAG window function):
    delta_ms = ts - LAG(ts) OVER (PARTITION BY user ORDER BY ts, id), null
    for each user's first event. Same bounded-hash-partition shape as
    running_total: one vectorized sort + diff per partition, no per-user
    Python."""
    import numpy as np

    def lag(df):
        df = df.sort_values([user_col, ts_col, id_col], kind="mergesort")
        ms = df[ts_col].to_numpy().astype("datetime64[ms]").astype(np.int64)
        delta = np.empty(len(ms), dtype=np.float64)
        delta[0] = np.nan
        delta[1:] = ms[1:] - ms[:-1]
        u = df[user_col].to_numpy()
        delta[np.concatenate([[True], u[1:] != u[:-1]])] = np.nan
        out = df[[id_col, user_col]].copy()
        out["delta_ms"] = delta  # NaN→null via pandas nullable round-trip
        out["delta_ms"] = out["delta_ms"].astype("Int64")
        return out

    return grouped_map(
        ds.select_columns([id_col, user_col, ts_col]), [user_col], lag)


def row_number_global(
    ds: rd.Dataset, col: str, id_col: str,
) -> rd.Dataset:
    """Deterministic global row numbering: rn = ROW_NUMBER() OVER
    (ORDER BY col, id). One distributed sort (the unavoidable all-to-all
    for a total order), then block row-counts — a handful of ints — come
    back to the driver to compute per-block offsets, and each block stamps
    offset + arange locally. The classic sort + zip-with-index; no block's
    data ever moves twice."""
    import numpy as np
    import ray

    sorted_refs = ds.select_columns([col, id_col]) \
        .sort([col, id_col]).to_arrow_refs()

    @ray.remote
    def _count(t: pa.Table) -> int:
        return t.num_rows

    counts = ray.get([_count.remote(r) for r in sorted_refs])
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]

    @ray.remote
    def _stamp(t: pa.Table, off: int) -> pa.Table:
        return pa.table({
            id_col: t.column(id_col),
            "rn": pa.array(np.arange(off + 1, off + 1 + t.num_rows,
                                     dtype=np.int64)),
        })

    stamped = [_stamp.remote(r, int(o)) for r, o in zip(sorted_refs, offsets)]
    return rd.from_arrow_refs(stamped)


def group_dense_rank(
    ds: rd.Dataset, key: str = "user_id", val: str = "event_type",
    id_col: str = "event_id", num_partitions: int = 64,
) -> rd.Dataset:
    """DENSE_RANK() OVER (PARTITION BY key ORDER BY val): one bounded hash
    shuffle co-locates each key's rows; inside a partition the ranks for
    ALL rows come from one sort + two change-point cumsums — no per-key
    Python loop (same composite-vectorization discipline as
    range_join_follow_counts)."""
    import numpy as np
    import pandas as pd

    def rank_part(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({id_col: np.array([], dtype=np.int64),
                                 key: np.array([], dtype=np.int64),
                                 "drank": np.array([], dtype=np.int64)})
        df = df.sort_values([key, val], kind="mergesort")
        k = df[key].to_numpy()
        v = df[val].to_numpy()
        new_key = np.ones(len(df), dtype=bool)
        new_key[1:] = k[1:] != k[:-1]
        new_val = new_key.copy()
        new_val[1:] |= v[1:] != v[:-1]
        # dense rank = distinct-values-so-far within the key group:
        # global cumsum of value changes, rebased at each key start
        cum = np.cumsum(new_val)
        base = np.repeat(cum[new_key] - 1, np.diff(
            np.append(np.nonzero(new_key)[0], len(df))))
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            key: k,
            "drank": (cum - base).astype(np.int64),
        })

    return grouped_map(ds.select_columns([id_col, key, val]), [key],
                       rank_part, num_partitions)
