"""The one selective-read driver (``stripe/columns.read_units``) on both
formats: a unit kept by its statistics whose predicate column holds no
exact match decodes no other column, a dictionary-masked predicate column
inflates once, and a predicate that prunes every ORC file still gives a
typed dataset."""

import numpy as np
import pyarrow as pa
import pytest

from apacheorcdotnet_ray.predicate import bind
from apacheorcdotnet_ray.sources import orc_reader
from apacheorcdotnet_ray.sources.orc_reader import OrcFile, read_orc_files
from apacheorcdotnet_ray.sources.orc_writer import write_orc
from apacheorcdotnet_ray.stripe import EncodeConfig, columns, decode_stripe, encode_stripe

PRED = ("k", "==", 5)


def _table() -> pa.Table:
    """Three 1,000-row units of ``k``: the first holds only 0 and 10, so its
    [0, 10] stats admit 5 with no row equal to it; the second holds 5s;
    the third's stats exclude 5."""
    i = np.arange(1_000)
    k = np.concatenate([i % 2 * 10, i % 11, 20 + i % 11]).astype(np.int64)
    return pa.table({"k": k, "v": np.arange(3_000, dtype=np.int64)})


def _count_decodes(monkeypatch, module) -> list[str]:
    """Wrap ``module.decode_array``: the name of each top-level column
    decoded, in call order."""
    names = []
    decode_array = module.decode_array

    def counting(t, n_rows, src, values=None):
        names.append(src.name)
        return decode_array(t, n_rows, src, values)
    monkeypatch.setattr(module, "decode_array", counting)
    return names


def test_oray_stride_with_a_stats_only_match_decodes_no_other_column(monkeypatch):
    t = _table()
    buf, _ = encode_stripe(t, EncodeConfig(row_index_stride=1_000))
    names = _count_decodes(monkeypatch, columns)
    io = {}
    got = decode_stripe(buf, columns=["v"], predicate=PRED, io_stats=io)
    assert got.equals(bind(PRED, t.schema).filter(t).select(["v"]))
    assert io["strides_read"] == 2  # the third stride is pruned by stats
    # k decodes in both kept strides, v only in the one with a match
    assert names == ["k", "k", "v"]


def test_orc_row_group_with_a_stats_only_match_decodes_no_other_column(
        tmp_path, monkeypatch):
    t = _table()
    p = str(tmp_path / "late.orc")
    write_orc(t, p, row_index_stride=1_000)
    f = OrcFile(p)
    names = _count_decodes(monkeypatch, orc_reader)
    got = f.read_table(columns=["v"], predicate=PRED)
    f.close()
    # the one row group that holds a match, whole
    assert got.equals(t.slice(1_000, 1_000).select(["v"]))
    # k (column 1) decodes in both kept row groups, v (column 2) only in
    # the one with a match
    assert [n.rsplit(" ", 1)[1] for n in names] == ["1", "1", "2"]


def test_read_orc_files_all_pruned_is_a_typed_empty_dataset(ray_session, tmp_path):
    t = _table()
    for i in range(2):
        write_orc(t, str(tmp_path / f"part-{i}.orc"))
    ds = read_orc_files(str(tmp_path), columns=["v"],
                        predicate=("k", ">", 10**9))
    assert ds.count() == 0
    assert ds.schema().names == ["v"]
    assert ds.schema().types == [pa.int64()]


@pytest.mark.parametrize("stride", [None, 1_000])
def test_oray_dictionary_predicate_column_inflates_once(stride):
    """A dictionary-masked predicate column that the read also returns
    decodes from the streams its mask inflated."""
    t = _table().append_column("s", pa.array(["a", "b", "c"] * 1_000))
    buf, _ = encode_stripe(t, EncodeConfig(row_index_stride=stride))
    pred = [("s", ">=", "b"), ("s", "<=", "b")]
    io = [{}, {}]
    for cols, st in ((["v"], io[0]), (["v", "s"], io[1])):
        got = decode_stripe(buf, columns=cols, predicate=pred, io_stats=st)
        assert got.equals(bind(pred, t.schema).filter(t).select(cols))
    assert io[0]["bytes_decompressed"] == io[1]["bytes_decompressed"]
    assert io[0]["dict_masked_cols"] == io[1]["dict_masked_cols"] == 2  # per term
