"""Seeded benchmark inputs.

``tokens`` uses the package's own corpus generator. ``tables`` and ``orc``
use a generator kept here, so a run needs nothing outside the checkout. Its
tables have the shape of the repository's synthetic TPC-H-like sf0.1 data
(TESTDATA.md), scaled to ``ORDERS`` orders:

- ``orders``: keys 0..n-1 in order; ``o_custkey`` over n/10 customers;
  status, priority, price and date uniform, as in sf0.1.
- ``lineitem``: 4 lines per order on average (a uniform draw of order keys,
  as in sf0.1), ``l_partkey`` over 20,000 parts and ``l_suppkey`` over n/150
  suppliers, every other column independent and uniform. Two departures
  from sf0.1: the rows are grouped by ascending ``l_orderkey``, as a
  clustered fact table (and TPC-H's own dbgen) has them, where sf0.1's are in
  random order; and the 20,000 parts are sf0.1's count, not scaled down, so
  a part key occurs on about 4 rows and a point lookup on a key drawn from
  the rows hits about half of the 10,000-row groups (about 40% in sf0.1, 30
  rows over 60 groups). With sf0.1's random row order no stride or stripe
  could ever be skipped.
- ``documents``: n/30 documents of 10-100 words drawn from sf0.1's 30-word
  vocabulary, 5% of them another document's text plus " dup"; language 40%
  "en"; source ``src{i % 20}``.

The same seed always gives the same tables.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# tokens: 32 shards x 125 docs, about 1.6 M tokens / 6.5 MB of raw Arrow. Many
# small shards, because codec selection is made per stripe from the stripe's
# first 4,096 values and flips between intdict and rlev2: over 10 seeds, the
# quartile spread of the size ratio was 17% with 4 stripes of 2,500 docs and
# 2% with 32 of 125, and that of encode CPU 16% with 24 stripes of 250 docs
# and 5% with 32 of 125.
TOKEN_SHARDS = 32
TOKEN_DOCS_PER_SHARD = 125

# tables / orc: sf0.1 has 150,000 orders
ORDERS = 20_000
PARTS = 20_000

_WORDS = ("a the key agg row scan slow fast table value part hash merge batch "
          "spark line sort window order data column join small customer query "
          "big group filter stream vector").split()
_LANGS = ("en", "de", "fr", "es", "zh")
_LANG_P = (0.4, 0.15, 0.15, 0.15, 0.15)
_FLAGS = ("A", "N", "R")
_STATUS = ("F", "O")
_ORDER_STATUS = ("F", "O", "P")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_EPOCH_1995_US = 788_918_400 * 1_000_000
_DAY_US = 86_400 * 1_000_000


def _pick(rng: np.random.Generator, choices: tuple[str, ...], n: int,
          p: tuple[float, ...] | None = None) -> pa.Array:
    return pa.array(np.asarray(choices, dtype=object)[rng.choice(len(choices), n, p=p)],
                    type=pa.string())


def _days(rng: np.random.Generator, n: int, first: int, span: int) -> pa.Array:
    us = _EPOCH_1995_US + (first + rng.integers(0, span, n)) * _DAY_US
    return pa.array(us, type=pa.timestamp("us"))


def _cents(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    # a uniform draw rounded to cents: the end values are half as frequent
    return np.round(rng.uniform(lo, hi, n), 2)


def _documents(rng: np.random.Generator, n_docs: int) -> pa.Table:
    words = np.asarray(_WORDS, dtype=object)
    n_words = rng.integers(10, 101, n_docs)
    flat = words[rng.integers(0, len(words), int(n_words.sum()))]
    bounds = np.concatenate([[0], np.cumsum(n_words)])
    text = [" ".join(flat[bounds[i]:bounds[i + 1]]) for i in range(n_docs)]
    for i in np.flatnonzero(rng.random(n_docs) < 0.05):
        text[i] = text[int(rng.integers(0, n_docs))] + " dup"
    return pa.table({
        "doc_id": pa.array(np.arange(n_docs), type=pa.int64()),
        "text": pa.array(text, type=pa.string()),
        "lang": _pick(rng, _LANGS, n_docs, _LANG_P),
        "source": pa.array([f"src{i % 20}" for i in range(n_docs)], type=pa.string()),
        "n_chars": pa.array([len(t) for t in text], type=pa.int64()),
    })


def make_tables(seed: int, orders: int = ORDERS) -> dict[str, pa.Table]:
    rng = np.random.default_rng((seed, 7))
    n_li = 4 * orders
    supps, custs = max(orders // 150, 1), max(orders // 10, 1)
    lineitem = pa.table({
        "l_orderkey": pa.array(np.sort(rng.integers(0, orders, n_li)), type=pa.int64()),
        "l_partkey": pa.array(rng.integers(0, PARTS, n_li), type=pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, supps, n_li), type=pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, n_li), type=pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, n_li).astype(np.float64)),
        "l_extendedprice": pa.array(_cents(rng, 900, 105_000, n_li)),
        "l_discount": pa.array(_cents(rng, 0, 0.1, n_li)),
        "l_tax": pa.array(_cents(rng, 0, 0.08, n_li)),
        "l_returnflag": _pick(rng, _FLAGS, n_li),
        "l_linestatus": _pick(rng, _STATUS, n_li),
        "l_shipdate": _days(rng, n_li, 1, 2_499),
    })
    orders_t = pa.table({
        "o_orderkey": pa.array(np.arange(orders), type=pa.int64()),
        "o_custkey": pa.array(rng.integers(0, custs, orders), type=pa.int64()),
        "o_orderstatus": _pick(rng, _ORDER_STATUS, orders),
        "o_totalprice": pa.array(_cents(rng, 1_000, 500_000, orders)),
        "o_orderdate": _days(rng, orders, 0, 2_405),
        "o_orderpriority": _pick(rng, _PRIORITIES, orders),
    })
    documents = _documents(rng, max(orders // 30, 1))
    return {"lineitem": lineitem, "orders": orders_t, "documents": documents}


def write_tables(out_dir: str, tables: dict[str, pa.Table]) -> dict[str, str]:
    """One parquet file per table, 8 row groups each, so ``encode_corpus``
    gets several partitions per table."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, t in tables.items():
        path = os.path.join(out_dir, f"{name}.parquet")
        pq.write_table(t, path, row_group_size=max(-(-t.num_rows // 8), 1),
                       compression="zstd")
        paths[name] = path
    return paths
