"""sha256 pins of written bytes: ``write_orc`` files and ``encode_stripe``
stripes over seeded tables.

The digests were computed once and are never edited: a change to a column
encoder that alters any written byte fails here. Inputs are the benchmark's
``tables`` generator (``perfbench/inputs.py``) at 2,000 orders, the tokens
corpus shape, and one typed table with nulls in every column.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
from decimal import Decimal
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from apacheorcdotnet_ray.sources.orc_writer import write_orc
from apacheorcdotnet_ray.sources.tokens import generate_tokens_shard
from apacheorcdotnet_ray.stripe import EncodeConfig
from apacheorcdotnet_ray.stripe.container import encode_stripe


@functools.cache
def _tables() -> dict[str, pa.Table]:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_pin_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.make_tables(7, orders=2_000)


def _nulls(rng: np.random.Generator, n: int, p: float = 0.1) -> np.ndarray:
    return rng.random(n) < p


@functools.cache
def _typed() -> pa.Table:
    """3,000 rows of every type both writers take, with nulls in each."""
    n = 3_000
    rng = np.random.default_rng(13)

    def col(values, t):
        return pa.array(values, type=t, mask=_nulls(rng, n))

    words = np.asarray(["alpha", "beta", "gamma", "delta", "eps"], dtype=object)
    us = rng.integers(-3 * 10**12, 3 * 10**12, n)
    us[:40] = -rng.integers(1, 2_000_000, 40)  # 1969 fractions
    lengths = rng.integers(0, 5, n)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    flat = rng.integers(-1000, 1000, int(offsets[-1])).astype(np.int32)
    list_mask = pa.array(_nulls(rng, n))
    m = n + 7  # the map is a slice of a longer array: offsets do not start at 0
    kv = [None if rng.random() < 0.1 else
          [(str(words[rng.integers(0, 5)]), None if rng.random() < 0.1 else int(v))
           for v in rng.integers(-50, 50, rng.integers(0, 4))] for _ in range(m)]
    maps = pa.array(kv, type=pa.map_(pa.string(), pa.int64())).slice(7, n)
    struct = pa.StructArray.from_arrays(
        [pa.array(rng.integers(0, 100, n), mask=_nulls(rng, n)),
         pa.array(words[rng.integers(0, 5, n)].tolist(), mask=_nulls(rng, n))],
        names=["a", "b"], mask=pa.array(_nulls(rng, n)))
    return pa.table({
        "i8": col(rng.integers(-128, 128, n), pa.int8()),
        "i16": col(rng.integers(-2**15, 2**15, n), pa.int16()),
        "i32": col(rng.integers(-2**31, 2**31, n), pa.int32()),
        "i64": col(np.cumsum(rng.integers(-5, 50, n)), pa.int64()),
        "flag": col(rng.random(n) < 0.3, pa.bool_()),
        "f32": col(rng.normal(size=n).astype(np.float32), pa.float32()),
        "f64": col(np.round(rng.uniform(0, 1e5, n), 2), pa.float64()),
        "s_dict": col(words[rng.integers(0, 5, n)].tolist(), pa.string()),
        "s_direct": col([f"row-{i:06d}-{rng.integers(0, 10**9)}" for i in range(n)],
                        pa.string()),
        "blob": col([bytes(rng.integers(0, 256, int(k)).astype(np.uint8))
                     for k in rng.integers(0, 12, n)], pa.binary()),
        "s_large": col([f"large {i % 97}" for i in range(n)], pa.large_string()),
        "day": col(rng.integers(-3_000, 20_000, n).astype(np.int32), pa.date32()),
        "ts": col(us, pa.timestamp("us")),
        "dec": col([Decimal(int(v)).scaleb(-3) for v in rng.integers(-10**9, 10**9, n)],
                   pa.decimal128(10, 3)),
        "lst": pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat), mask=list_mask),
        "llst": pa.array([None if i % 11 == 0 else list(range(i % 4)) for i in range(n)],
                         type=pa.large_list(pa.int64())),
        "kv": maps,
        "st": struct,
    })


def _typed_oray() -> pa.Table:
    """``_typed`` plus the two types only ``.oray`` writes."""
    t = _typed()
    n = t.num_rows
    rng = np.random.default_rng(17)
    vec = pa.FixedSizeListArray.from_arrays(
        pa.array(rng.normal(size=4 * n).astype(np.float32)), 4)
    cat = pa.array([None if i % 9 == 0 else ["x", "y", "z"][i % 3] for i in range(n)]
                   ).dictionary_encode()
    return t.append_column("vec", vec).append_column("cat", cat)


def _tokens() -> pa.Table:
    return generate_tokens_shard(3, docs_per_shard=300, seed=11)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


ORC_PINS = {
    ("lineitem", "zlib"):
        "36676a96816cab2d6cf09192a07b59b0ddcab100d018504cb6b0e0a9ab6abece",
    ("lineitem", "zstd"):
        "f64f150e458d1badf64ca59a7fc9707e760411a16e355b6f90ef769bb77687fe",
    ("lineitem", "none"):
        "0c5a13b0db6ce7436e159be8de98b4c5e24b985297e15cb16165b4770a90bedd",
    ("orders", "zlib"):
        "7060926ea1e1e45adb658cf7d16feb300fb94b36a72c2ff9e1b0dd1c393a92bf",
    ("orders", "zstd"):
        "1f84fb7afa17f28901d8f80b2ab449a92af7c45787e2bb40fa5934453d46dc42",
    ("orders", "none"):
        "7e126c78810d8c1faf2312aeef9777d474618b2f9da2b090345983e127c26063",
}

TYPED_ORC_PINS = {
    "zlib":
        "353bfb6a5c86ce84adb6442f5d4089aa02f72cc79ee38d047ae72ae3bc051ad8",
    "none":
        "36c884ad86818c5d91499f46d99e7cb1881e2313bd1758605a3b2c0660dddcb9",
}

STRIPE_PINS = {
    ("lineitem", None):
        "8b4bcf00a26df8619342fc18a7e27563c02ebc513972263c4e9f3967a7660a45",
    ("lineitem", 1_000):
        "2b6a98ed430ca42d8d1c8e9449d5539a969241f8afe8a23fd66e347ffd3efcd7",
    ("orders", None):
        "c164d0a6f8df202cf3a10f9b7c0b4e0095af5bf2dba25d30d41a59e067f86951",
    ("orders", 1_000):
        "30c0d003f1d55eef8dcfc44f0d3bcb19f5c1751c26ff5701fca00d2c14bd3ec6",
    ("documents", None):
        "8475a6887b5da5fd58d16e2b5f4e2777c1be4cd4ea596a67e2dca57db3cdada9",
    ("documents", 1_000):
        "d143bb234706613d1cac331d5a19505f1154c69eb8b86a4680e8a39d71a0a7ab",
    ("tokens", None):
        "fff88a8592668c4c7665b353541157c89df672562559cc716b3d0d448d5d54ba",
    ("tokens", 1_000):
        "ae7a1f4abe2bf723879be413acd0d5520081c593ae5529022559683cfeb04139",
    ("typed", None):
        "3c41c84af4876eef2f0c005fd04096e3efb278f24392699d5c7d0528e320b73b",
    ("typed", 1_000):
        "75850bca8e2dde2afed8631c902e5d7950ee30f9f578985549f8efd58222b040",
}

_BLOOM = {"lineitem": ["l_partkey"], "orders": ["o_custkey"]}


def _orc_bytes(table: pa.Table, tmp_path, **kw) -> bytes:
    path = tmp_path / "pin.orc"
    write_orc(table, str(path), **kw)
    return path.read_bytes()


@pytest.mark.parametrize("name,compression", sorted(ORC_PINS))
def test_write_orc_pins(tmp_path, name, compression):
    """Seeded lineitem/orders in 1,500-row stripes with 1,000-row groups and
    a bloom column."""
    data = _orc_bytes(_tables()[name], tmp_path, compression=compression,
                      stripe_rows=1_500, row_index_stride=1_000,
                      bloom_columns=_BLOOM[name])
    assert _digest(data) == ORC_PINS[(name, compression)]


@pytest.mark.parametrize("compression", sorted(TYPED_ORC_PINS))
def test_write_orc_typed_pins(tmp_path, compression):
    """Every ORC type the writer takes, nulls in each, in 1,200-row stripes
    with 500-row groups."""
    data = _orc_bytes(_typed(), tmp_path, compression=compression,
                      stripe_rows=1_200, row_index_stride=500)
    assert _digest(data) == TYPED_ORC_PINS[compression]


def _stripe_table(name: str) -> pa.Table:
    if name == "tokens":
        return _tokens()
    if name == "typed":
        return _typed_oray()
    return _tables()[name]


@pytest.mark.parametrize("name,stride", sorted(STRIPE_PINS, key=str))
def test_encode_stripe_pins(name, stride):
    data, _ = encode_stripe(_stripe_table(name), EncodeConfig(row_index_stride=stride))
    assert _digest(data) == STRIPE_PINS[(name, stride)]
