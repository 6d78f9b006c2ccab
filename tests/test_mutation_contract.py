"""Seeded mutation contract for both readers: a bit flip, a random byte or
a 1-15 byte zero-fill anywhere in a file must give back a table or a
``ValueError`` raised by the reader, never another exception and never a
hang. Mutated ``.oray`` stripes are also read through a predicate (stride
pruning, predicate columns first), and a second ORC file with small row
groups and a bloom is read only through one (row-group seeks and bloom
probes).

- ``.oray``: every stream carries a CRC32, so a mutated stripe must decode
  to exactly the input table (its matching rows, for the predicate read)
  or raise.
- ORC carries no checksum over stream payloads, so a mutated file may read
  back as different rows with no error; only the kind of outcome is
  checked. A pyarrow error type (``ArrowInvalid`` is a ``ValueError``)
  escaping the reader counts as a breach: the reader checks its input
  itself and names the file, column and stream.
"""

import signal

import numpy as np
import pyarrow as pa
import pyarrow.orc as pa_orc
import pytest

from apacheorcdotnet_ray.predicate import bind
from apacheorcdotnet_ray.sources.orc_reader import OrcFile
from apacheorcdotnet_ray.sources.orc_writer import write_orc
from apacheorcdotnet_ray.stripe import EncodeConfig, decode_stripe, encode_stripe

N_ROWS = 3_000
CASES = 400
ORAY_PRED = ("k", ">=", 1_700)
ORC_PRED = ("k", "==", 1_234)
ORC_STRIDE = 500
ORC_COLUMNS = ["k", "s", "d"]


def _table(timestamps: bool) -> pa.Table:
    rng = np.random.default_rng(5)
    cols = {
        "k": pa.array(np.arange(N_ROWS, dtype=np.int64)),
        "r": pa.array(rng.integers(-1000, 1000, N_ROWS)),
        "s": pa.array([None if i % 3 == 0 else f"s{rng.integers(100)}"
                       for i in range(N_ROWS)]),
        "d": pa.array(rng.random(N_ROWS)),
        "l": pa.array([list(rng.integers(0, 100, i % 4)) for i in range(N_ROWS)],
                      type=pa.list_(pa.int32())),
    }
    if timestamps:
        us = 1_600_000_000_000_000 + rng.integers(-10**15, 10**15, N_ROWS)
        cols["t"] = pa.array(us, type=pa.timestamp("us"))
    return pa.table(cols)


def _mutations(data: bytes):
    rng = np.random.default_rng(5)
    for _ in range(CASES):
        b = bytearray(data)
        pos = int(rng.integers(len(b)))
        how = int(rng.integers(3))
        if how == 0:
            b[pos] ^= 1 << int(rng.integers(8))
        elif how == 1:
            b[pos] = int(rng.integers(256))
        else:
            n = min(int(rng.integers(1, 16)), len(b) - pos)
            b[pos:pos + n] = bytes(n)
        yield bytes(b)


def _reader_error(e: Exception) -> bool:
    return isinstance(e, ValueError) and not isinstance(e, pa.ArrowException)


@pytest.mark.parametrize("stride", [None, 500])
def test_oray_mutations_decode_exactly_or_raise(stride):
    t = _table(timestamps=True)
    buf, _ = encode_stripe(t, EncodeConfig(row_index_stride=stride))
    assert decode_stripe(buf).equals(t)
    want = bind(ORAY_PRED, t.schema).filter(t)
    assert decode_stripe(buf, predicate=ORAY_PRED).equals(want)
    outcomes = {"equal": 0, "ValueError": 0}
    pred_outcomes = {"equal": 0, "ValueError": 0}
    for mutated in _mutations(buf):
        try:
            got = decode_stripe(mutated, predicate=ORAY_PRED)
        except Exception as e:  # noqa: BLE001 - the contract is the type
            assert _reader_error(e), f"{type(e).__name__}: {e}"
            pred_outcomes["ValueError"] += 1
        else:
            assert got.equals(want), "a mutated stripe matched other rows"
            pred_outcomes["equal"] += 1
        try:
            got = decode_stripe(mutated)
        except Exception as e:  # noqa: BLE001 - the contract is the type
            assert _reader_error(e), f"{type(e).__name__}: {e}"
            outcomes["ValueError"] += 1
            continue
        assert got.equals(t), "a mutated stripe decoded to other rows"
        outcomes["equal"] += 1
    assert sum(outcomes.values()) == CASES
    assert sum(pred_outcomes.values()) == CASES


def _timeout(signum, frame):
    raise TimeoutError("an ORC read ran past 10 s")


@pytest.mark.parametrize("writer", ["write_orc", "pyarrow"])
def test_orc_mutations_read_or_raise(tmp_path, writer):
    t = _table(timestamps=False)
    src = str(tmp_path / "src.orc")
    if writer == "pyarrow":
        pa_orc.write_table(t, src)
    else:
        write_orc(t, src)
    with open(src, "rb") as fh:
        data = fh.read()
    path = str(tmp_path / "mutated.orc")
    old = signal.signal(signal.SIGALRM, _timeout)
    outcomes = {"table": 0, "ValueError": 0}
    try:
        for mutated in _mutations(data):
            with open(path, "wb") as fh:
                fh.write(mutated)
            signal.alarm(10)
            try:
                f = OrcFile(path)
                try:
                    got = f.read_table()
                finally:
                    f.close()
            except Exception as e:  # noqa: BLE001 - the contract is the type
                assert _reader_error(e), f"{type(e).__name__}: {e}"
                outcomes["ValueError"] += 1
                continue
            finally:
                signal.alarm(0)
            outcomes["table"] += 1
    finally:
        signal.signal(signal.SIGALRM, old)
    assert sum(outcomes.values()) == CASES


@pytest.mark.parametrize("writer", ["write_orc", "pyarrow"])
def test_orc_row_group_predicate_mutations_read_or_raise(tmp_path, writer):
    """Predicate reads of a file with 500-row groups and a bloom on ``k``:
    the scalar columns read seek into the row groups that the ROW_INDEX
    stats and per-group blooms keep."""
    t = _table(timestamps=False)
    src = str(tmp_path / "src.orc")
    if writer == "pyarrow":
        pa_orc.write_table(t, src, compression="zlib",
                           row_index_stride=ORC_STRIDE,
                           bloom_filter_columns=[1])  # ORC column id of k
    else:
        write_orc(t, src, row_index_stride=ORC_STRIDE, bloom_columns=["k"])
    f = OrcFile(src)
    # the one row group that holds k == 1234, whole: a row-group unit
    assert f.read_table(columns=ORC_COLUMNS, predicate=ORC_PRED).equals(
        t.select(ORC_COLUMNS).slice(1_000, ORC_STRIDE))
    f.close()
    with open(src, "rb") as fh:
        data = fh.read()
    path = str(tmp_path / "mutated.orc")
    old = signal.signal(signal.SIGALRM, _timeout)
    outcomes = {"table": 0, "ValueError": 0}
    try:
        for mutated in _mutations(data):
            with open(path, "wb") as fh:
                fh.write(mutated)
            signal.alarm(10)
            try:
                f = OrcFile(path)
                try:
                    got = f.read_table(columns=ORC_COLUMNS, predicate=ORC_PRED)
                finally:
                    f.close()
            except Exception as e:  # noqa: BLE001 - the contract is the type
                assert _reader_error(e), f"{type(e).__name__}: {e}"
                outcomes["ValueError"] += 1
                continue
            finally:
                signal.alarm(0)
            assert isinstance(got, pa.Table)
            outcomes["table"] += 1
    finally:
        signal.signal(signal.SIGALRM, old)
    assert sum(outcomes.values()) == CASES
