"""ORC integer RLE v1 — pinned to the PUBLIC spec's example vectors
(apache.org/orc/specification "Integer RLE v1"), plus round-trip
properties. Needed only to DECODE pre-Hive-0.12 files; production writes
are always RLEv2."""

import numpy as np
import pytest

from apacheorcdotnet_ray.codecs import rlev1


def test_spec_run_vector():
    # "100 copies of 7" → 61 00 07 (unsigned)
    buf = bytes([0x61, 0x00, 0x07])
    vals = rlev1.decode(buf, signed=False)
    assert len(vals) == 100 and (vals == 7).all()
    assert rlev1.encode(np.full(100, 7, dtype=np.int64), signed=False) == buf


def test_spec_literal_vector():
    # "[2, 3, 6, 7, 11]" → fb 02 03 06 07 0b (unsigned)
    buf = bytes([0xFB, 0x02, 0x03, 0x06, 0x07, 0x0B])
    vals = rlev1.decode(buf, signed=False)
    assert vals.tolist() == [2, 3, 6, 7, 11]
    assert rlev1.encode(np.array([2, 3, 6, 7, 11], dtype=np.int64),
                        signed=False) == buf


def test_delta_run():
    # 0..99 = run with delta 1
    v = np.arange(100, dtype=np.int64)
    buf = rlev1.encode(v, signed=False)
    assert len(buf) == 3  # ctrl + delta + base varint
    assert (rlev1.decode(buf, signed=False, expected_count=100) == v).all()


def test_roundtrip_property():
    rng = np.random.default_rng(3)
    for signed in (True, False):
        for _ in range(20):
            mode = rng.integers(0, 3)
            n = int(rng.integers(1, 2000))
            if mode == 0:
                v = rng.integers(-2**40 if signed else 0, 2**40, size=n)
            elif mode == 1:
                v = np.repeat(rng.integers(-100 if signed else 0, 100,
                                           size=max(n // 50, 1)), 50)[:n]
            else:
                v = np.cumsum(rng.integers(-3 if signed else 0, 4, size=n))
            v = v.astype(np.int64)
            if not signed:
                v = np.abs(v)
            got = rlev1.decode(rlev1.encode(v, signed), signed,
                               expected_count=len(v))
            assert (got == v).all()


def test_negative_delta_and_wrap():
    v = np.arange(500, 0, -1, dtype=np.int64)  # delta -1 run
    buf = rlev1.encode(v, signed=True)
    assert (rlev1.decode(buf, signed=True) == v).all()


def test_signed_delta_run_pyarrow_crosscheck():
    """Signed delta runs: ORC applies the delta to the zigzag-DECODED base
    (value domain), not to the raw varint. Pin the dialect against
    pyarrow's independent C++ ORC reader on a hand-assembled v1 file."""
    import tempfile, os

    import pyarrow.orc as porc

    from apacheorcdotnet_ray.sources import orc_writer as W
    from apacheorcdotnet_ray.sources.orc_reader import OrcFile

    vals = np.concatenate([
        np.arange(5, 135, dtype=np.int64),             # delta +1 run
        np.array([-7, 9, -1000000], dtype=np.int64),   # literals, negatives
        np.arange(50, -80, -2, dtype=np.int64),        # delta -2 run
    ])
    data = rlev1.encode(vals, signed=True)
    got = rlev1.decode(data, signed=True, expected_count=len(vals))
    assert (got == vals).all()

    n = len(vals)
    sf = W.pb_msg(
        W.pb_field(1, W.pb_msg(W.pb_field(1, 1), W.pb_field(2, 1),
                               W.pb_field(3, len(data)))),
        W.pb_field(2, W.pb_msg(W.pb_field(1, 0))),   # root DIRECT
        W.pb_field(2, W.pb_msg(W.pb_field(1, 0))),   # int DIRECT (v1)
    )
    types = [W.pb_msg(W.pb_field(1, 12), W.pb_field(2, 1), W.pb_field(3, "i")),
             W.pb_msg(W.pb_field(1, 4))]
    si = W.pb_msg(W.pb_field(1, 3), W.pb_field(2, 0), W.pb_field(3, len(data)),
                  W.pb_field(4, len(sf)), W.pb_field(5, n))
    footer = W.pb_msg(W.pb_field(1, 3), W.pb_field(2, 3 + len(data) + len(sf)),
                      W.pb_field(3, si), *[W.pb_field(4, t) for t in types],
                      W.pb_field(6, n), W.pb_field(8, 0))
    ps = W.pb_msg(W.pb_field(1, len(footer)), W.pb_field(2, 0),
                  W.pb_field(3, 256 * 1024), W.pb_field(4, 0),
                  W.pb_field(4, 11), W.pb_field(5, 0), W.pb_field(8000, "ORC"))
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "v1signed.orc")
        with open(p, "wb") as f:
            f.write(b"ORC" + data + sf + footer + ps + bytes([len(ps)]))
        assert (OrcFile(p).read_table().column("i").to_numpy() == vals).all()
        assert (porc.ORCFile(p).read().column("i").to_numpy() == vals).all()


def test_v1_encoded_orc_column_reads():
    """A hand-assembled ORC file with DIRECT(0) v1-encoded int, DATE and
    LIST<LONG> columns and a DICTIONARY(1) v1-encoded string column
    decodes through the reader's v1 path (the pre-Hive-0.12 file shape),
    value-exact against pyarrow's C++ reader."""
    _check_v1_file(ps_magic=True)


def test_hive011_file_without_postscript_magic_reads():
    """Hive 0.11 wrote no magic in the PostScript: the 3-byte "ORC" file
    header identifies such a file, and a file with neither is refused."""
    _check_v1_file(ps_magic=False)


def _check_v1_file(ps_magic):
    import tempfile, os

    import pyarrow.orc as porc

    from apacheorcdotnet_ray.sources import orc_writer as W
    from apacheorcdotnet_ray.sources.orc_reader import OrcFile

    vals = np.arange(1000, dtype=np.int64) * 3
    words = ["aa", "bb", "cc"]
    ids = (vals % 3).astype(np.int64)
    days = (vals * 7 - 2_000).astype(np.int64)     # pre- and post-1970
    lens = (vals % 4).astype(np.int64)
    items = np.arange(int(lens.sum()), dtype=np.int64) * -5 + 40
    data_i = rlev1.encode(vals, signed=True)
    data_s = rlev1.encode(ids, signed=False)
    dict_blob = "".join(words).encode()
    dict_lens = rlev1.encode(np.full(3, 2, dtype=np.int64), signed=False)

    stream_recs = [(1, 1, data_i), (1, 2, data_s), (3, 2, dict_blob),
                   (2, 2, dict_lens),
                   (1, 3, rlev1.encode(days, signed=True)),
                   (2, 4, rlev1.encode(lens, signed=False)),
                   (1, 5, rlev1.encode(items, signed=True))]
    data = b"".join(r for _, _, r in stream_recs)
    sf = W.pb_msg(
        *[W.pb_field(1, W.pb_msg(W.pb_field(1, k), W.pb_field(2, c),
                                 W.pb_field(3, len(r))))
          for k, c, r in stream_recs],
        W.pb_field(2, W.pb_msg(W.pb_field(1, 0))),      # root DIRECT
        W.pb_field(2, W.pb_msg(W.pb_field(1, 0))),      # int DIRECT (v1)
        W.pb_field(2, W.pb_msg(W.pb_field(1, 1),        # str DICTIONARY (v1)
                               W.pb_field(2, 3))),
        W.pb_field(2, W.pb_msg(W.pb_field(1, 0))),      # date DIRECT (v1)
        W.pb_field(2, W.pb_msg(W.pb_field(1, 0))),      # list DIRECT (v1)
        W.pb_field(2, W.pb_msg(W.pb_field(1, 0))),      # list item DIRECT
    )
    types = [W.pb_msg(W.pb_field(1, 12), *[W.pb_field(2, c) for c in (1, 2, 3, 4)],
                      *[W.pb_field(3, nm) for nm in ("i", "s", "d", "l")]),
             W.pb_msg(W.pb_field(1, 4)), W.pb_msg(W.pb_field(1, 7)),
             W.pb_msg(W.pb_field(1, 15)),
             W.pb_msg(W.pb_field(1, 10), W.pb_field(2, 5)),
             W.pb_msg(W.pb_field(1, 4))]
    si = W.pb_msg(W.pb_field(1, 3), W.pb_field(2, 0), W.pb_field(3, len(data)),
                  W.pb_field(4, len(sf)), W.pb_field(5, 1000))
    footer = W.pb_msg(W.pb_field(1, 3),
                      W.pb_field(2, 3 + len(data) + len(sf)),
                      W.pb_field(3, si),
                      *[W.pb_field(4, t) for t in types],
                      W.pb_field(6, 1000), W.pb_field(8, 0))
    ps = W.pb_msg(W.pb_field(1, len(footer)), W.pb_field(2, 0),
                  W.pb_field(3, 256 * 1024), W.pb_field(4, 0),
                  W.pb_field(4, 11), W.pb_field(5, 0),
                  *([W.pb_field(8000, "ORC")] if ps_magic else []))
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "v1.orc")
        tail = data + sf + footer + ps + bytes([len(ps)])
        if not ps_magic:
            with open(p, "wb") as f:
                f.write(b"XYZ" + tail)
            with pytest.raises(ValueError, match="no ORC magic"):
                OrcFile(p)
        with open(p, "wb") as f:
            f.write(b"ORC" + tail)
        t = OrcFile(p).read_table()
        assert (t.column("i").to_numpy() == vals).all()
        assert t.column("s").to_pylist() == [words[int(i)] for i in ids]
        assert (t.column("d").cast("int32").to_numpy() == days).all()
        offs = np.concatenate([[0], np.cumsum(lens)])
        assert t.column("l").to_pylist() == [
            items[a:b].tolist() for a, b in zip(offs[:-1], offs[1:])]
        theirs = porc.ORCFile(p).read()
        for c in ("i", "s", "d", "l"):
            assert t.column(c).cast(theirs.schema.field(c).type) \
                .equals(theirs.column(c)), c
