""".oray stripe blooms: ORC BLOOM_FILTER_UTF8 hashes (codecs/orc_bloom.py).

The footer bloom prunes equality lookups that min/max cannot. Pins: a
present key keeps its stripe and an absent key prunes it for every hashed
type; a bloom under any other hash scheme is ignored; the bitset stays
within 65,536 bits with a seeded false-positive rate; types without an ORC
hash get no bloom; and a float zero never probes (``-0.0 == 0.0``).
"""

import base64
import datetime as dt
from decimal import Decimal

import numpy as np
import pyarrow as pa
import pytest

from apacheorcdotnet_ray.codecs.orc_bloom import (bloom_might_contain,
                                                  bloom_params,
                                                  hash_arrow_values)
from apacheorcdotnet_ray.predicate import Term, normalize_predicate
from apacheorcdotnet_ray.sources.stripes import prune_stripes, stripe_may_match
from apacheorcdotnet_ray.stripe.config import EncodeConfig
from apacheorcdotnet_ray.stripe.container import (BLOOM_FPP, BLOOM_HASH,
                                                  BLOOM_MAX_ENTRIES,
                                                  build_bloom, decode_stripe,
                                                  encode_stripe)

N = 200
EPOCH = dt.datetime(2024, 1, 1)

# (type, value of row i, an absent literal inside [min, max])
CASES = {
    "int64": (pa.int64(), lambda i: 2 * i, 201),
    "float32": (pa.float32(), lambda i: 0.5 * i, 50.25),
    "date32": (pa.date32(), lambda i: dt.date(2024, 1, 1)
               + dt.timedelta(days=2 * i), dt.date(2024, 4, 11)),
    "timestamp_us": (pa.timestamp("us"),
                     lambda i: EPOCH + dt.timedelta(milliseconds=2 * i),
                     EPOCH + dt.timedelta(milliseconds=201)),
    "string": (pa.string(), lambda i: f"k{2 * i:04d}", "k0201"),
}


def _may_match(footer, pred) -> bool:
    return stripe_may_match(footer, normalize_predicate(pred))


@pytest.mark.parametrize("name", list(CASES))
def test_present_key_kept_absent_key_pruned(name):
    type_, value, absent = CASES[name]
    vals = [value(i) for i in range(N)]
    t = pa.table({"c": pa.array(vals, type=type_),
                  "v": pa.array(np.arange(N, dtype=np.int64))})
    _, footer = encode_stripe(t, EncodeConfig(bloom_columns=("c",)))
    assert footer["bloom_hash"] == BLOOM_HASH
    assert "bloom" in footer["columns"][0]
    for i in (0, 57, N - 1):
        assert _may_match(footer, ("c", "==", vals[i])), vals[i]
    # the absent literal lies inside [min, max]: only the bloom prunes it
    assert Term("c", "==", absent, type_).may_match(
        footer["columns"][0]["stats"])
    assert not _may_match(footer, ("c", "==", absent))


def test_bloom_of_another_hash_scheme_never_prunes():
    t = pa.table({"k": pa.array(np.arange(0, 2000, 2, dtype=np.int64))})
    _, footer = encode_stripe(t, EncodeConfig(bloom_columns=("k",)))
    assert not _may_match(footer, ("k", "==", 1001))
    # an older stripe's polars bloom: {m, k, bits}, every bit zero
    footer["bloom_hash"] = "polars-1.31.0"
    footer["columns"][0]["bloom"] = {
        "m": 1024, "k": 6, "bits": base64.b64encode(bytes(128)).decode()}
    for key in (0, 1000, 1001, 1998):
        assert _may_match(footer, ("k", "==", key))
    # min/max still prunes
    assert not _may_match(footer, ("k", "==", 5000))


def test_bloom_size_capped_and_fp_rate_seeded():
    assert bloom_params(BLOOM_MAX_ENTRIES, BLOOM_FPP)[0] == 1 << 16
    assert bloom_params(BLOOM_MAX_ENTRIES + 1, BLOOM_FPP)[0] > 1 << 16
    rng = np.random.default_rng(2024)
    # bound per key count: the FP rate of the polars bloom this replaced
    # (0.97 / 0.10 / 0.23%) plus 0.1 percentage points
    for n, bound in ((100, 0.0107), (1000, 0.0020), (5000, 0.0033)):
        keys = rng.choice(10**9, n, replace=False).astype(np.int64)
        absent = rng.integers(10**9, 2 * 10**9, 20_000)
        bloom = build_bloom(pa.array(keys))
        bits = base64.b64decode(bloom["bits"])
        assert len(bits) * 8 <= 1 << 16
        hit = bloom_might_contain(bloom["k"], bits,
                                  hash_arrow_values(pa.array(absent)))
        assert hit.mean() <= bound, (n, hit.mean())
        assert bloom_might_contain(bloom["k"], bits,
                                   hash_arrow_values(pa.array(keys))).all()


def test_types_without_orc_hash_get_no_bloom():
    t = pa.table({
        "b": pa.array([True, False, True]),
        "d": pa.array([Decimal("1.50"), Decimal("2.25"), None],
                      type=pa.decimal128(10, 2)),
        "l": pa.array([[1], [2, 3], []], type=pa.list_(pa.int64())),
        "n": pa.array([None, None, None], type=pa.int64()),
        "k": pa.array([1, 2, 3], type=pa.int64()),
    })
    buf, footer = encode_stripe(
        t, EncodeConfig(bloom_columns=tuple(t.column_names)))
    blooms = {c["name"] for c in footer["columns"] if "bloom" in c}
    assert blooms == {"k"}
    assert decode_stripe(buf).equals(t)
    assert decode_stripe(buf, predicate=("b", "==", True)).num_rows == 2


def test_float_zero_never_probes(tmp_path):
    from apacheorcdotnet_ray.sources.orc_reader import OrcFile
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    for lit in (0.0, -0.0, 0):
        assert Term("f", "==", lit, pa.float64()).probe is None
    t = pa.table({"f": pa.array([-0.0, 5.0, 7.0]),
                  "s": pa.array(["a", "b", "c"])})
    buf, _ = encode_stripe(t, EncodeConfig(bloom_columns=("f",)))
    path = tmp_path / "s.oray"
    path.write_bytes(buf)
    assert prune_stripes([str(path)], ("f", "==", 0.0)) == [str(path)]
    assert decode_stripe(buf, predicate=("f", "==", 0.0)).num_rows == 1
    orc = str(tmp_path / "f.orc")
    write_orc(t, orc, bloom_columns=["f"])
    f = OrcFile(orc)
    try:
        assert f.read_table(predicate=("f", "==", 0.0)).num_rows == 3
    finally:
        f.close()
