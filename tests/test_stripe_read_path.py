"""The .oray read path: stripe-path Datasets sized by Ray Data's read rule,
StripeDecoder over path rows, and the one footer parse with named errors."""

import logging
import os
import re

import numpy as np
import pyarrow as pa
import pytest

from apacheorcdotnet_ray.sources.stripes import (read_row_range,
                                                 read_stripe_footer,
                                                 read_stripes)
from apacheorcdotnet_ray.stages.decode import StripeDecoder
from apacheorcdotnet_ray.stripe import encode_stripe, read_footer
from apacheorcdotnet_ray.stripe.deletes import write_delete_mask


def _tiny_stripes(d, n_stripes=40, rows=10):
    """Stripes named so that plain lexicographic order is not encode order
    (rg10 sorts before rg2)."""
    d.mkdir()
    for s in range(n_stripes):
        t = pa.table({"k": pa.array(np.arange(s * rows, (s + 1) * rows,
                                              dtype=np.int64))})
        buf, _ = encode_stripe(t)
        (d / f"src_rg{s}-s0-x.oray").write_bytes(buf)
    return str(d)


def test_read_stripes_tasks_follow_read_rule(ray_session, tmp_path):
    import ray
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.encode import encode_num_blocks

    d = _tiny_stripes(tmp_path / "s")
    paths = [os.path.join(d, f) for f in os.listdir(d)]
    want = encode_num_blocks(
        40, sum(os.path.getsize(p) for p in paths),
        int(ray.cluster_resources().get("CPU", 1)), rd.DataContext.get_current())
    ds = read_stripes(d).materialize()
    tasks = re.search(r"MapBatches\(StripeDecoder.__call__\): (\d+) tasks",
                      ds.stats())
    assert int(tasks.group(1)) == want > 1
    assert sorted(ds.to_pandas()["k"]) == list(range(400))


def test_read_orc_files_tasks_follow_read_rule(ray_session, tmp_path):
    """ORC reads share the rule: one row per stripe, as many tasks as
    ``encode_num_blocks`` gives the files' bytes (not one per file or per
    stripe)."""
    import ray
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.encode import encode_num_blocks
    from apacheorcdotnet_ray.sources.orc_reader import OrcFile, read_orc_files
    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    paths = []
    for i in range(3):
        t = pa.table({"k": pa.array(np.arange(i * 30, (i + 1) * 30, dtype=np.int64))})
        paths.append(str(tmp_path / f"f{i}.orc"))
        write_orc(t, paths[-1], stripe_rows=10)
    assert [len(OrcFile(p).stripes) for p in paths] == [3, 3, 3]
    want = encode_num_blocks(
        9, sum(os.path.getsize(p) for p in paths),
        int(ray.cluster_resources().get("CPU", 1)), rd.DataContext.get_current())
    ds = read_orc_files(paths).materialize()
    tasks = re.search(r"MapBatches\(decode\): (\d+) tasks", ds.stats())
    assert int(tasks.group(1)) == want > 1
    assert sorted(ds.to_pandas()["k"]) == list(range(90))


def test_read_row_range_keeps_order_across_blocks(ray_session, tmp_path):
    d = _tiny_stripes(tmp_path / "s")
    # rows 95..334 span stripes 9-33, which land in several decode blocks
    got = read_row_range(d, 95, 240).to_pandas()["k"].tolist()
    assert got == list(range(95, 335))


def _one_cpu_rule(monkeypatch):
    """Evaluate the file-to-task rule at 1 CPU; returns the est_bytes seen."""
    import apacheorcdotnet_ray.pipelines.encode as enc

    rule, seen = enc.encode_num_blocks, []

    def one_cpu(n_parts, est_bytes, cpus, ctx):
        seen.append(est_bytes)
        return rule(n_parts, est_bytes, 1, ctx)

    monkeypatch.setattr(enc, "encode_num_blocks", one_cpu)
    return seen


def _decode_tasks(ds) -> int:
    return int(re.search(r"MapBatches\(StripeDecoder.__call__\): (\d+) tasks",
                         ds.stats()).group(1))


def test_small_row_range_runs_one_task(ray_session, tmp_path, monkeypatch):
    """A 256-row range over 3 stripes is under 1 MiB: at 1 CPU it runs one
    decode task, not two; at more CPUs it keeps one task per stripe."""
    import ray

    d = _tiny_stripes(tmp_path / "s", n_stripes=5, rows=125)
    # rows 100..355 overlap stripes 0-2
    ds = read_row_range(d, 100, 256).materialize()
    assert _decode_tasks(ds) == min(3, int(ray.cluster_resources()["CPU"]))
    _one_cpu_rule(monkeypatch)
    ds = read_row_range(d, 100, 256).materialize()
    assert _decode_tasks(ds) == 1
    assert ds.to_pandas()["k"].tolist() == list(range(100, 356))


def test_row_range_estimate_is_its_share(ray_session, tmp_path, monkeypatch):
    """A row range is sized by its share of each stripe file, so a few rows
    of large stripes count as a small read."""
    d = tmp_path / "s"
    d.mkdir()
    rng = np.random.default_rng(3)
    for s in range(2):
        t = pa.table({"k": pa.array(np.arange(s * 200_000, (s + 1) * 200_000,
                                              dtype=np.int64)),
                      "v": pa.array(rng.integers(0, 1 << 62, 200_000))})
        buf, _ = encode_stripe(t)
        (d / f"src_rg{s}-s0-x.oray").write_bytes(buf)
    sizes = [os.path.getsize(d / f"src_rg{s}-s0-x.oray") for s in range(2)]
    assert min(sizes) > 1 << 20
    seen = _one_cpu_rule(monkeypatch)
    ds = read_row_range(str(d), 199_872, 256).materialize()
    assert seen == [sizes[0] * 128 // 200_000 + sizes[1] * 128 // 200_000]
    assert _decode_tasks(ds) == 1
    assert ds.to_pandas()["k"].tolist() == list(range(199_872, 200_128))


def test_decoder_applies_sidecar_and_row_range(tmp_path):
    t = pa.table({"k": pa.array(np.arange(1000, dtype=np.int64)),
                  "v": pa.array(np.arange(1000, dtype=np.int64) % 7)})
    buf, _ = encode_stripe(t)
    p = str(tmp_path / "a.oray")
    with open(p, "wb") as f:
        f.write(buf)
    mask = np.zeros(1000, dtype=bool)
    mask[::3] = True
    write_delete_mask(p, mask)
    dec = StripeDecoder(columns=["k"])
    got = dec(pa.table({"path": [p]}))["k"].to_pylist()
    assert got == [k for k in range(1000) if k % 3]
    # row_range addresses physical rows; deleted rows drop from the slice
    got = dec(pa.table({"path": [p, p],
                        "row_range": [[100, 110], [995, 1000]]}))
    assert got.column_names == ["k"]
    assert got["k"].to_pylist() == [k for k in list(range(100, 110))
                                    + list(range(995, 1000)) if k % 3]


def test_decoder_skip_logs_path_and_counts(tmp_path, caplog):
    buf, _ = encode_stripe(pa.table({"k": pa.array([1, 2, 3])}))
    good = str(tmp_path / "good.oray")
    with open(good, "wb") as f:
        f.write(buf)
    gone = str(tmp_path / "gone.oray")
    rows = pa.table({"path": [good, gone]})
    with pytest.raises(FileNotFoundError) as e:
        StripeDecoder()(rows)
    assert any(gone in n for n in e.value.__notes__)
    caplog.set_level(logging.WARNING, logger="apacheorcdotnet_ray.stages.decode")
    got = StripeDecoder(on_error="skip")(rows)
    assert got["k"].to_pylist() == [1, 2, 3]
    msgs = [r.getMessage() for r in caplog.records]
    assert any(gone in m for m in msgs)
    assert any("skipped 1/2 stripes" in m for m in msgs)


def test_skip_stripe_vanished_after_listing(ray_session, tmp_path):
    d = _tiny_stripes(tmp_path / "s", n_stripes=3)
    ds = read_stripes(d, on_error="skip")
    os.remove(os.path.join(d, "src_rg1-s0-x.oray"))
    assert sorted(ds.to_pandas()["k"]) == list(range(10)) + list(range(20, 30))


def test_unknown_on_error_raises_value_error(tmp_path):
    """on_error is checked with a ValueError naming the allowed values,
    not an assert that ``python -O`` strips."""
    d = _tiny_stripes(tmp_path / "s", n_stripes=1)
    with pytest.raises(ValueError, match="'raise' or 'skip'"):
        read_stripes(d, on_error="ignore")


@pytest.fixture(scope="module")
def stripe_1000():
    rng = np.random.default_rng(5)
    t = pa.table({"k": pa.array(np.arange(1000, dtype=np.int64)),
                  "s": pa.array([f"w{x}" for x in rng.integers(0, 50, 1000)])})
    return encode_stripe(t)[0]


def test_footer_flips_raise_named_value_error(stripe_1000):
    buf = stripe_1000
    footer_len = int.from_bytes(buf[-8:-4], "little")
    for i in range(len(buf) - 8 - footer_len, len(buf)):
        bad = bytearray(buf)
        bad[i] ^= 0xFF
        with pytest.raises(ValueError, match="stripe buffer"):
            read_footer(bytes(bad))


def test_short_stripe_files_raise_named_value_error(stripe_1000, tmp_path):
    p = str(tmp_path / "short.oray")
    for n in range(13):
        with open(p, "wb") as f:
            f.write(stripe_1000[:n])
        with pytest.raises(ValueError, match=re.escape(p)):
            read_stripe_footer(p)
        with pytest.raises(ValueError, match="stripe buffer"):
            read_footer(stripe_1000[:n])
    # a tail whose footer length runs past the start of the file
    with open(p, "wb") as f:
        f.write(stripe_1000[:4] + stripe_1000[-8:])
    with pytest.raises(ValueError, match="footer length"):
        read_stripe_footer(p)
