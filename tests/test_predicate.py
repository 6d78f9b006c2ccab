"""One typed predicate layer for `.oray` and ORC reads (predicate.py).

- The ISO-looking string column repro: footer stats of a plain string
  column were once parsed as datetimes, and datetime order is not string
  order when 'T' and space separators mix, so matching stripes, strides
  and deletes were silently dropped.
- A seeded differential test (the pruned-read ≡ filtered-full-read check of
  *Query Weak Equivalence and its Verification in Analytical Databases*,
  ICDE 2025): for every case, stripe/stride/bloom/row-group pruning plus
  the exact mask must give exactly the rows of the full read filtered by
  pyarrow, on `.oray` stripes and on ORC files from both writers.
"""

import datetime as dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.orc as pa_orc
import pytest

from apacheorcdotnet_ray.predicate import KERNELS, bind
from apacheorcdotnet_ray.sources.orc_reader import OrcFile
from apacheorcdotnet_ray.sources.orc_writer import write_orc
from apacheorcdotnet_ray.sources.stripes import prune_stripes, stripe_paths
from apacheorcdotnet_ray.stripe import EncodeConfig, decode_stripe, encode_stripe

ISO = pa.table({"s": ["2020-01-01 23:00", "2020-01-01T01:00"]})


def _iso_dir(tmp_path, stride=None):
    d = tmp_path / "iso"
    d.mkdir()
    buf, _ = encode_stripe(ISO, EncodeConfig(row_index_stride=stride))
    (d / "s0.oray").write_bytes(buf)
    return d, buf


@pytest.mark.parametrize("op,want", [
    ("==", ["2020-01-01T01:00"]),
    ("<", ["2020-01-01 23:00"]),   # ' ' (0x20) sorts before 'T' (0x54)
    (">", []),
    (">=", ["2020-01-01T01:00"]),
])
def test_iso_string_column_compares_as_strings(tmp_path, op, want):
    d, buf = _iso_dir(tmp_path, stride=2)
    pred = ("s", op, "2020-01-01T01:00")
    kept = prune_stripes(stripe_paths(str(d)), pred)
    assert kept == (stripe_paths(str(d)) if want else [])
    assert decode_stripe(buf, predicate=pred)["s"].to_pylist() == want


def test_iso_string_stride_keeps_matching_row(tmp_path):
    _, buf = _iso_dir(tmp_path, stride=2)
    io: dict = {}
    out = decode_stripe(buf, predicate=("s", "==", "2020-01-01T01:00"),
                        io_stats=io)
    assert out["s"].to_pylist() == ["2020-01-01T01:00"]
    assert io["strides_read"] == 1


def test_iso_string_delete_where(ray_session, tmp_path):
    from apacheorcdotnet_ray.pipelines.deletes import delete_where
    from apacheorcdotnet_ray.sources.stripes import read_stripes

    d, _ = _iso_dir(tmp_path, stride=2)
    res = delete_where(str(d), ("s", "==", "2020-01-01T01:00"))
    assert res["files_scanned"] == 1 and res["rows_deleted_new"] == 1
    left = read_stripes(str(d)).take_all()
    assert [r["s"] for r in left] == ["2020-01-01 23:00"]


# --- seeded differential test ----------------------------------------------

N_ROWS, STRIPE_ROWS, STRIDE = 1_200, 400, 100
SEEDS = range(6)
PREDICATES_PER_FILE = 60


def _data(rng) -> pa.Table:
    n = N_ROWS

    def nulls(vals, t):
        return pa.array([None if rng.random() < 0.1 else v for v in vals],
                        type=t)

    base = dt.datetime(2020, 1, 1)
    hours = rng.integers(0, 24 * 20, n)
    ts = [base + dt.timedelta(hours=int(h)) for h in np.sort(hours)]
    sep = rng.random(n) < 0.5
    return pa.table({
        "i": nulls([int(v) for v in rng.integers(0, 200, n)], pa.int64()),
        "f": nulls([int(v) / 4 for v in rng.integers(0, 100, n)],
                   pa.float64()),
        # ISO-looking strings with mixed 'T'/' ' separators, clustered so
        # stripe and stride bounds are ISO-looking too
        "s": nulls([t.strftime("%Y-%m-%dT%H:%M" if x else "%Y-%m-%d %H:%M")
                    for t, x in zip(ts, sep)], pa.string()),
        "ts": nulls(ts, pa.timestamp("us")),
        "d": nulls([t.date() for t in ts], pa.date32()),
    })


def _literal(rng, table: pa.Table, col: str):
    """A literal near the column's values, often of another type."""
    vals = [v for v in table[col].to_pylist() if v is not None]
    v = vals[int(rng.integers(len(vals)))]
    k = int(rng.integers(4))
    if col == "i":
        return [v, v + 0.5, float(v), str(v)][k]
    if col == "f":
        return [v, int(v), v + 0.125, str(v)][k]
    if col == "s":
        other = v.replace("T", " ") if "T" in v else v.replace(" ", "T")
        return [v, other, v[:10], int(rng.integers(10))][k]
    if col == "ts":
        return [v, v.isoformat(), str(v), v.date()][k]
    return [v, v.isoformat(), dt.datetime.combine(v, dt.time()),
            str(v)][k]


def _expected(table: pa.Table, preds) -> pa.Table:
    """pyarrow filter with the literal cast here, by the rule: a numeric
    literal against a numeric column is compared as it is, anything else
    is cast to the column's type."""
    def numeric(t):
        return pa.types.is_integer(t) or pa.types.is_floating(t)

    mask = None
    for col, op, lit in preds:
        c = table[col]
        s = pa.scalar(lit)
        if not (numeric(s.type) and numeric(c.type)):
            s = s.cast(c.type)
        m = KERNELS[op](c, s)
        mask = m if mask is None else pc.and_kleene(mask, m)
    return table.filter(mask)


def _predicates(rng, table: pa.Table) -> list:
    out = []
    for _ in range(PREDICATES_PER_FILE):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            col = str(rng.choice(table.column_names))
            op = str(rng.choice(list(KERNELS)))
            terms.append((col, op, _literal(rng, table, col)))
        out.append(terms)
    return out


def _write_oray(table: pa.Table, d: str) -> list[str]:
    os.makedirs(d)
    cfg = EncodeConfig(row_index_stride=STRIDE,
                       bloom_columns=("i", "f", "s", "d"))
    for k in range(0, table.num_rows, STRIPE_ROWS):
        buf, _ = encode_stripe(table.slice(k, STRIPE_ROWS), cfg)
        with open(os.path.join(d, f"s{k // STRIPE_ROWS:02d}.oray"), "wb") as f:
            f.write(buf)
    return stripe_paths(d)


def _oray_cases(table, d, preds) -> int:
    paths = _write_oray(table, d)
    bufs = {}
    for p in paths:
        with open(p, "rb") as f:
            bufs[p] = f.read()
    full = pa.concat_tables([decode_stripe(bufs[p]) for p in paths])
    assert full.equals(table)
    for pred in preds:
        parts = [decode_stripe(bufs[p], predicate=pred)
                 for p in prune_stripes(paths, pred)]
        got = pa.concat_tables(parts) if parts else full.schema.empty_table()
        assert got.equals(_expected(full, pred)), pred
    return len(preds)


def _orc_cases(path, preds) -> int:
    f = OrcFile(path)
    try:
        full = f.read_table()
        for pred in preds:
            got = f.read_table(predicate=pred)
            got = bind(pred, f.schema).filter(got)
            assert got.equals(_expected(full, pred)), (path, pred)
    finally:
        f.close()
    return len(preds)


def test_pruned_reads_equal_filtered_full_reads(tmp_path):
    cases = 0
    for seed in SEEDS:
        rng = np.random.default_rng(1000 + seed)
        table = _data(rng)
        preds = _predicates(rng, table)
        cases += _oray_cases(table, str(tmp_path / f"oray{seed}"), preds)
        own = str(tmp_path / f"own{seed}.orc")
        write_orc(table, own, stripe_rows=STRIPE_ROWS,
                  row_index_stride=STRIDE, bloom_columns=["i", "f", "s", "d"])
        cases += _orc_cases(own, preds)
        lib = str(tmp_path / f"lib{seed}.orc")
        pa_orc.write_table(table, lib, stripe_size=16 << 10,
                           compression="zlib", row_index_stride=STRIDE,
                           bloom_filter_columns=[0, 2])
        cases += _orc_cases(lib, preds)
    assert cases >= 1_000


def test_orc_float_and_date_stats_prune(tmp_path):
    """DoubleStatistics and DateStatistics prune ORC stripes and row groups
    as IntegerStatistics do: each predicate below keeps one 1,000-row group
    of 8,000, on both writers' files (this writer writes no date stats)."""
    k = np.arange(8_000)
    table = pa.table({"k": k, "f": k.astype(np.float64),
                      "d": pa.array(k.astype(np.int32), pa.date32())})
    own, lib = str(tmp_path / "own.orc"), str(tmp_path / "lib.orc")
    write_orc(table, own, stripe_rows=4_000, row_index_stride=1_000)
    pa_orc.write_table(table, lib, stripe_size=16 << 10,
                       compression="zlib", row_index_stride=1_000)
    num = [("k", ">", 7500), ("f", ">", 7500.0), ("f", "<=", 10.0)]
    dates = [("d", "<", dt.date(1970, 1, 3)), ("d", ">=", "1991-09-01")]
    for path, preds in ((own, num), (lib, num + dates)):
        f = OrcFile(path)
        try:
            for pred in preds:
                got = f.read_table(predicate=pred)
                assert got.num_rows == 1_000, (path, pred)
                assert bind(pred, f.schema).filter(got).equals(
                    _expected(table, [pred])), (path, pred)
        finally:
            f.close()


def test_orc_nan_double_bound_is_no_bound():
    from apacheorcdotnet_ray.sources.orc_reader import _stats_rec, pb_parse
    from apacheorcdotnet_ray.sources.orc_writer import (pb_field,
                                                        pb_field_double,
                                                        pb_msg)

    def rec(lo, hi):
        return _stats_rec(pb_parse(pb_msg(pb_field(1, 3), pb_field(3, pb_msg(
            pb_field_double(1, lo), pb_field_double(2, hi))))))

    assert rec(1.5, 2.5) == {"n": 3, "min": 1.5, "max": 2.5}
    assert rec(float("nan"), 2.5) == {"n": 3}
    assert rec(1.5, float("nan")) == {"n": 3}
