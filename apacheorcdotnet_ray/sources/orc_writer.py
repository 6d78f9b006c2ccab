"""Apache ORC writer: this repo's codecs emitting REAL ``.orc`` files.

The reference's headline capability is writing ORC files other engines can
read (``/root/reference/src/ApacheOrcDotNet/OrcWriter.cs``,
``Stripes/StripeWriter.cs:241-333``). This module closes that gap for the
Ray engine. Columns go through ``stripe/columns.encode_array``, the one
Arrow → streams walk it shares with ``.oray``; ``_OrcSink`` is ORC's side
of it: integers through ``codecs.rlev2`` (the byte-faithful
reimplementation of the reference's writer), strings as DIRECT_V2 or
DICTIONARY_V2, floats as IEEE-LE, decimals as 128-bit zigzag varints plus a
scale stream, nulls as ``codecs.bool_rle`` PRESENT streams — all laid out
per the public ORC spec (magic, stripes, protobuf
StripeFooter/Metadata/Footer/PostScript), each stream ZLIB or ZSTD chunks
through ``stripe/framing.py`` (an empty stream is 0 bytes).
Conformance check: ``tests/test_orc_conformance.py`` round-trips
files through BOTH pyarrow's independent C++ ORC reader and this repo's
``orc_reader``.

Production-grade layout (the reference flushes a stripe per ~64 MB with a
ROW_INDEX every 10k rows — ``StripeWriter.cs:116-191``,
``OrcWriter.cs:57-104``):

- **multi-stripe**: rows are split into stripes by a byte budget (64 MB
  default) or an explicit ``stripe_rows``;
- **ROW_INDEX streams**: every RLE/bool/raw stream restarts its encoder at
  each ``row_index_stride`` boundary, so RowIndexEntry positions are exact
  ([chunk offset, offset in chunk][, run offset, bit offset] per the spec)
  and downstream readers can seek/prune row groups. Per-entry column
  statistics included;
- **Metadata section**: per-stripe ColumnStatistics (StripeStatistics);
- **true per-node statistics**: numberOfValues is the node's own non-null
  count (LIST children count their flattened values), and hasNull (field
  10) is always emitted;
- **timestamps**: the C++ ORC dialect — seconds truncated toward zero,
  SIGNED scaled nanos for pre-1970 fractional values (cross-checked
  byte-level against pyarrow's writer on 1969-12-31 23:59:59.5).

Supported column types: int8 → BYTE, int16/32/64 → SHORT/INT/LONG, string
→ STRING (dictionary or direct per the reference's distinct-ratio rule,
``EncodeConfig``'s default threshold), binary → BINARY, float32/64 →
FLOAT/DOUBLE, bool → BOOLEAN, timestamp → TIMESTAMP, date32 → DATE,
decimal128 (up to 38 digits) → DECIMAL, struct → STRUCT, list → LIST,
map → MAP; nullable throughout.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..codecs import bool_rle, byte_rle, rlev2, varint
from ..codecs.bitpack import zigzag_encode_scalar as _zz
from ..stripe import framing
from ..stripe.columns import encode_array, low_cardinality, string_parts
from ..stripe.config import EncodeConfig
from ..stripe.stats import int_sum

# --- minimal protobuf wire-format writer ------------------------------------


def _vint(n: int) -> bytes:
    if n < 0:
        raise ValueError(f"protobuf varint of a negative value {n}")
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def pb_field(tag: int, value) -> bytes:
    """Encode one field: int → varint wire, bytes/str → length-delimited."""
    if isinstance(value, int):
        return _vint(tag << 3 | 0) + _vint(value)
    if isinstance(value, str):
        value = value.encode("utf-8")
    return _vint(tag << 3 | 2) + _vint(len(value)) + value


def pb_field_double(tag: int, value: float) -> bytes:
    return _vint(tag << 3 | 1) + struct.pack("<d", value)


def pb_msg(*fields: bytes) -> bytes:
    return b"".join(fields)


# --- constants ---------------------------------------------------------------

_KIND = {"PRESENT": 0, "DATA": 1, "LENGTH": 2, "DICTIONARY_DATA": 3,
         "SECONDARY": 5, "ROW_INDEX": 6}
_TYPE_LONG, _TYPE_STRING, _TYPE_DOUBLE, _TYPE_BOOLEAN, _TYPE_STRUCT = 4, 7, 6, 0, 12
_TYPE_TIMESTAMP, _TYPE_DECIMAL, _TYPE_DATE, _TYPE_LIST = 9, 14, 15, 10
_TYPE_MAP, _TYPE_FLOAT, _TYPE_BINARY, _TYPE_BYTE = 11, 5, 8, 1
_TYPE_SHORT, _TYPE_INT = 2, 3
_ENC_DIRECT, _ENC_DIRECT_V2, _ENC_DICTIONARY_V2 = 0, 2, 3

_DEFAULT_STRIPE_BYTES = 64 * 2**20   # the reference's WriterConfiguration
_DEFAULT_STRIDE = 10_000
# write_orc's compression → (PostScript kind, framing codec, level)
_COMPRESSION = {"none": (0, "none", 0), "zlib": (1, "zlib", 6),
                "zstd": (5, "zstd_frame", 1)}


# --- schema walk (type tree is data-independent) -----------------------------


class _Node:
    __slots__ = ("id", "type", "kind", "children")

    def __init__(self, nid: int, t: pa.DataType, kind: int,
                 children: list["_Node"]):
        self.id, self.type, self.kind, self.children = nid, t, kind, children


def _build_node(t: pa.DataType, next_id: list[int]) -> _Node:
    nid = next_id[0]
    next_id[0] += 1
    if pa.types.is_map(t):
        key = _build_node(t.key_type, next_id)
        val = _build_node(t.item_type, next_id)
        return _Node(nid, t, _TYPE_MAP, [key, val])
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return _Node(nid, t, _TYPE_LIST, [_build_node(t.value_type, next_id)])
    if pa.types.is_struct(t):
        return _Node(nid, t, _TYPE_STRUCT,
                     [_build_node(t.field(i).type, next_id)
                      for i in range(t.num_fields)])
    if pa.types.is_integer(t):
        kind = _TYPE_BYTE if t.bit_width == 8 else \
            _TYPE_SHORT if t.bit_width == 16 else \
            _TYPE_INT if t.bit_width == 32 else _TYPE_LONG
        return _Node(nid, t, kind, [])
    if pa.types.is_boolean(t):
        return _Node(nid, t, _TYPE_BOOLEAN, [])
    if pa.types.is_float32(t):
        return _Node(nid, t, _TYPE_FLOAT, [])
    if pa.types.is_floating(t):
        return _Node(nid, t, _TYPE_DOUBLE, [])
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return _Node(nid, t, _TYPE_BINARY, [])
    if pa.types.is_timestamp(t):
        return _Node(nid, t, _TYPE_TIMESTAMP, [])
    if pa.types.is_date32(t):  # date64 holds milliseconds, not days
        return _Node(nid, t, _TYPE_DATE, [])
    if pa.types.is_decimal(t):
        if t.scale < 0:
            raise ValueError(f"{t} has a negative scale; ORC's is unsigned")
        return _Node(nid, t, _TYPE_DECIMAL, [])
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return _Node(nid, t, _TYPE_STRING, [])
    raise NotImplementedError(f"ORC writer: unsupported type {t}")


def _type_msgs(node: _Node) -> list[bytes]:
    """Pre-order protobuf Type messages for a subtree."""
    if node.kind == _TYPE_LIST:
        return [pb_msg(pb_field(1, _TYPE_LIST),
                       pb_field(2, node.children[0].id))] \
            + _type_msgs(node.children[0])
    if node.kind == _TYPE_MAP:
        return [pb_msg(pb_field(1, _TYPE_MAP),
                       pb_field(2, node.children[0].id),
                       pb_field(2, node.children[1].id))] \
            + _type_msgs(node.children[0]) + _type_msgs(node.children[1])
    if node.kind == _TYPE_STRUCT:
        head = pb_msg(pb_field(1, _TYPE_STRUCT),
                      *[pb_field(2, c.id) for c in node.children],
                      *[pb_field(3, node.type.field(i).name)
                        for i in range(node.type.num_fields)])
        out = [head]
        for c in node.children:
            out.extend(_type_msgs(c))
        return out
    if node.kind == _TYPE_DECIMAL:
        return [pb_msg(pb_field(1, _TYPE_DECIMAL),
                       pb_field(5, node.type.precision),
                       pb_field(6, node.type.scale))]
    return [pb_msg(pb_field(1, node.kind))]


# --- per-node column statistics ----------------------------------------------


def _stats_msg(arr: pa.Array | None, n_rows: int = 0) -> bytes:
    """ColumnStatistics: true numberOfValues (this node's own non-null
    count) + hasNull, plus min/max(/sum) for int/double/string/bool."""
    import pyarrow.compute as pc

    if arr is None:  # root struct
        return pb_msg(pb_field(1, n_rows), pb_field(10, 0))
    nn = len(arr) - arr.null_count
    msg = pb_field(1, nn)
    t = arr.type
    if nn:
        if pa.types.is_integer(t):
            mm = pc.min_max(arr)
            lo, hi = mm["min"].as_py(), mm["max"].as_py()
            sub = pb_msg(pb_field(1, _zz(lo)), pb_field(2, _zz(hi)))
            total = int_sum(arr, lo, hi)
            if total is not None:  # ORC leaves out a sum that overflowed
                sub += pb_field(3, _zz(total))
            msg += pb_field(2, sub)
        elif pa.types.is_floating(t):
            mm = pc.min_max(arr)
            msg += pb_field(3, pb_msg(
                pb_field_double(1, float(mm["min"].as_py())),
                pb_field_double(2, float(mm["max"].as_py())),
                pb_field_double(3, float(pc.sum(arr).as_py()))))
        elif pa.types.is_string(t) or pa.types.is_large_string(t):
            mm = pc.min_max(arr)
            msg += pb_field(4, pb_msg(
                pb_field(1, str(mm["min"].as_py())),
                pb_field(2, str(mm["max"].as_py()))))
        elif pa.types.is_boolean(t):
            msg += pb_field(5, pb_msg(pb_field(
                1, b"".join([_vint(int(pc.sum(arr).as_py() or 0))]))))
    msg += pb_field(10, 1 if arr.null_count else 0)
    return pb_msg(msg)


# --- segmented stream builders (encoder restarts at row-group bounds) --------


def _seg(encode, vals: np.ndarray, bounds, state=(0,)) -> tuple[bytes, list]:
    """``encode`` restarted at each row-group bound: the stream, and per
    group [stream offset, *state] (run offset 0; varints have no state)."""
    parts, poss, off = [], [], 0
    ends = list(bounds[1:]) + [len(vals)]
    for a, b in zip(bounds, ends):
        poss.append([off, *state])
        parts.append(encode(np.ascontiguousarray(vals[int(a):int(b)])))
        off += len(parts[-1])
    return b"".join(parts), poss


def _seg_bool(bits: np.ndarray, bounds) -> tuple[bytes, list]:
    """Boolean / PRESENT stream restarted at each row group's byte; the
    position triple is [stream offset, byte-RLE run offset (0 — restart),
    bit offset within the byte]."""
    n_bytes = (len(bits) + 7) // 8
    byte_starts = sorted({int(b) // 8 for b in bounds} | {0})
    seg_off: dict[int, int] = {}
    parts, off = [], 0
    for i, bs in enumerate(byte_starts):
        be = byte_starts[i + 1] if i + 1 < len(byte_starts) else n_bytes
        seg = bool_rle.encode(
            np.ascontiguousarray(bits[bs * 8:min(be * 8, len(bits))]))
        seg_off[bs] = off
        parts.append(seg)
        off += len(seg)
    poss = [[seg_off[int(b) // 8], 0, int(b) % 8] for b in bounds]
    return b"".join(parts), poss


def _through(counts: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Row-group starts carried into the next row space by the running sum
    of ``counts`` (PRESENT bits into non-null values, LENGTH values into
    child rows)."""
    cs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=cs[1:])
    return cs[bounds]


# --- per-stripe node encode ----------------------------------------------

_DIRECT_KINDS = (_TYPE_BYTE, _TYPE_BOOLEAN, _TYPE_FLOAT, _TYPE_DOUBLE, _TYPE_STRUCT)
_DICTIONARY_THRESHOLD = EncodeConfig.dictionary_threshold


class _OrcSink:
    """``columns.encode_array``'s sink for one ORC column node of one
    stripe. Every RLE, bool and raw stream restarts at each row-group start
    (``bounds``, in this node's rows; a child's come from the PRESENT and
    LENGTH cumsums), so ROW_INDEX positions are exact. It holds ORC's
    stream kinds and ColumnEncoding messages, the C++ timestamp dialect,
    the DECIMAL scale stream, and, in ``arrays``, each node's array and
    row-group starts for ``_stats_msg`` and the blooms."""

    # C++ ORC dialect: seconds truncated toward zero, SIGNED scaled nanos
    # for pre-1970 fractions (pyarrow writes -0.5 s as secs=0, nanos=-5e8 →
    # frac -33); readers apply the Java positive-nanos adjustment only when
    # nanos > 999999, which signed nanos dodge
    truncate_seconds = True

    def __init__(self, node: _Node, arr: pa.Array, bounds: np.ndarray,
                 recs: list, encs: dict, arrays: dict):
        self.node, self.bounds, self.kid_bounds = node, bounds, bounds
        self.recs, self.encs, self.arrays = recs, encs, arrays
        arrays[node.id] = (arr, bounds)
        encs[node.id] = pb_msg(pb_field(
            1, _ENC_DIRECT if node.kind in _DIRECT_KINDS else _ENC_DIRECT_V2))

    def child(self, i: int, path: str, arr: pa.Array) -> _OrcSink:
        return _OrcSink(self.node.children[i], arr, self.kid_bounds,
                        self.recs, self.encs, self.arrays)

    def nested(self, form: str, kids: list) -> None:
        pass  # the node's type message was written from the schema

    def _put(self, kind: str, raw: bytes, poss: list | None) -> None:
        self.recs.append((_KIND[kind], self.node.id, raw, poss))

    def present(self, bits: np.ndarray) -> None:
        self._put("PRESENT", *_seg_bool(bits, self.bounds))
        self.bounds = self.kid_bounds = _through(bits, self.bounds)

    def ints(self, kind: str, vals: np.ndarray, signed: bool) -> None:
        self._put(kind, *_seg(lambda v: rlev2.encode(v, signed=signed), vals,
                              self.bounds))
        if kind == "LENGTH":
            self.kid_bounds = _through(vals, self.bounds)

    def bytes(self, vals: np.ndarray) -> None:
        self._put("DATA", *_seg(byte_rle.encode, vals, self.bounds))

    def bools(self, bits: np.ndarray) -> None:
        self._put("DATA", *_seg_bool(bits, self.bounds))

    def floats(self, vals: np.ndarray) -> None:
        w = 4 if self.node.kind == _TYPE_FLOAT else 8
        self._put("DATA", vals.astype(f"<f{w}").tobytes(),
                  [[w * int(b)] for b in self.bounds])

    def timestamps(self, secs: np.ndarray, frac: np.ndarray) -> None:
        self.ints("DATA", secs, True)
        self.ints("SECONDARY", frac, False)

    def decimals(self, lanes: np.ndarray, t: pa.DataType) -> None:
        self._put("DATA", *_seg(lambda v: varint.encode128(v[:, 0], v[:, 1]),
                                lanes, self.bounds, ()))
        self.ints("SECONDARY", np.full(len(lanes), t.scale, dtype=np.int64), True)

    def wants_dictionary(self, valid: pa.Array) -> bool:
        return self.node.kind == _TYPE_STRING and low_cardinality(
            valid, len(valid), _DICTIONARY_THRESHOLD)

    def dictionary(self, values: pa.Array, ids: np.ndarray) -> None:
        offsets, blob = string_parts(values)
        self.ints("DATA", ids, False)
        self._put("DICTIONARY_DATA", blob, None)
        self._put("LENGTH", rlev2.encode(np.diff(offsets), signed=False), None)
        self.encs[self.node.id] = pb_msg(pb_field(1, _ENC_DICTIONARY_V2),
                                         pb_field(2, len(values)))

    def strings(self, offsets: np.ndarray, data: bytes) -> None:
        self._put("DATA", data, [[int(offsets[int(b)] - offsets[0])]
                                 for b in self.bounds])
        self.ints("LENGTH", np.diff(offsets), False)


# --- compressed positions -----------------------------------------------------


def _conv_positions(poss: list, framed: bytes) -> list:
    """Raw-domain positions → positions in a compressed stream: the stream
    offset becomes (its chunk's header offset, offset in the inflated
    chunk); RLE-state values pass through. ``framing.compress`` cuts
    ``framing.BLOCK_SIZE``-byte raw chunks; an empty stream has no chunk."""
    heads = framing.block_offsets(framed) or [0]
    out = []
    for p in poss:
        k = min(p[0] // framing.BLOCK_SIZE, len(heads) - 1)
        out.append([heads[k], p[0] - k * framing.BLOCK_SIZE] + p[1:])
    return out


# --- file assembly -----------------------------------------------------------


def write_orc(table: pa.Table, path: str, compression: str = "zlib",
              stripe_rows: int | None = None,
              row_index_stride: int = _DEFAULT_STRIDE,
              bloom_columns: list[str] | tuple[str, ...] = (),
              bloom_fpp: float = 0.05) -> None:
    """Write a multi-stripe ORC file (readable by Apache ORC readers).

    ``stripe_rows`` rows per stripe (default: sized so a stripe holds
    ~64 MB of Arrow data, the reference's stripe budget); a ROW_INDEX
    stream per column with exact seek positions and per-row-group stats
    every ``row_index_stride`` rows (0 disables); per-stripe column stats
    in the Metadata section.

    ``bloom_columns``: top-level int/float/string/binary/date columns to
    also get a BLOOM_FILTER_UTF8 (kind 8) stream — one spec bloom per row
    group (expected entries = stride, ``bloom_fpp``), hash-pinned
    byte-identical to the C++/Java ORC writers, so external engines can
    skip row groups on equality predicates (and ``read_orc_files`` /
    ``import-orc`` prune stripes). Exceeds the reference, which never
    implemented bloom filters."""
    from ..codecs import orc_bloom

    comp_enum, codec, level = _COMPRESSION[compression]

    def frame(raw: bytes) -> bytes:
        return framing.compress(raw, level=level, codec=codec)

    n_rows = table.num_rows
    if bloom_columns and not row_index_stride:
        raise ValueError("bloom_columns require row_index_stride > 0")
    missing = [c for c in bloom_columns if c not in table.column_names]
    if missing:
        raise ValueError(f"bloom_columns not in table: {missing}")

    next_id = [1]  # 0 = root struct
    roots = []
    for name, col in zip(table.column_names, table.columns):
        try:
            roots.append(_build_node(col.type, next_id))
        except ValueError as e:
            raise ValueError(f"column {name!r}: {e}") from None
    bloom_ids = {}
    for ci, name in enumerate(table.column_names):
        if name in bloom_columns:
            if orc_bloom.hash_arrow_values(
                    table.column(ci).slice(0, 0).combine_chunks()) is None:
                raise ValueError(
                    f"bloom_columns: no ORC bloom hash for column {name!r} "
                    f"of type {table.column(ci).type}")
            bloom_ids[roots[ci].id] = name
    n_ids = next_id[0]
    types = [pb_msg(pb_field(1, _TYPE_STRUCT),
                    *[pb_field(2, r.id) for r in roots],
                    *[pb_field(3, name) for name in table.column_names])]
    for r in roots:
        types.extend(_type_msgs(r))

    if stripe_rows is None:
        bpr = max(1, table.nbytes // max(n_rows, 1))
        stripe_rows = max(1, min(n_rows or 1,
                                 _DEFAULT_STRIPE_BYTES // bpr))
    slices = [table.slice(o, min(stripe_rows, n_rows - o))
              for o in range(0, n_rows, stripe_rows)] or [table]

    body = bytearray(b"ORC")
    stripe_info_msgs: list[bytes] = []
    stripe_stats_msgs: list[list[bytes]] = []
    node_parts: dict[int, list] = {}  # node id → its array in each stripe
    for sl in slices:
        k_rows = sl.num_rows
        stride = row_index_stride if row_index_stride else max(k_rows, 1)
        bounds = np.arange(0, max(k_rows, 1), stride, dtype=np.int64)
        recs: list = []
        encs: dict[int, bytes] = {0: pb_msg(pb_field(1, _ENC_DIRECT))}
        stats_by_id: dict[int, tuple] = {}  # node id → (array, group starts)
        for ci, rnode in enumerate(roots):
            col = sl.column(ci).combine_chunks()
            try:
                encode_array(col, _OrcSink(rnode, col, bounds, recs, encs,
                                           stats_by_id))
            except NotImplementedError as e:
                raise NotImplementedError(
                    f"column {sl.column_names[ci]!r}: {e}") from e
        for nid, (a, _) in stats_by_id.items():
            node_parts.setdefault(nid, []).append(a)
        framed = []
        for kind, cid, raw, poss in recs:
            fb = frame(raw)
            if poss is not None and codec != "none":
                poss = _conv_positions(poss, fb)
            framed.append((kind, cid, fb, poss))
        # ROW_INDEX streams (index region, one per column id)
        index_recs: list[tuple[int, int, bytes]] = []
        if row_index_stride:
            K = len(bounds)
            by_id: dict[int, list] = {}
            for kind, cid, _, poss in framed:
                if poss is not None:
                    by_id.setdefault(cid, []).append(poss)
            for nid in range(n_ids):
                entries = []
                for k in range(K):
                    pos_vals = [v for poss in by_id.get(nid, [])
                                for v in poss[k]]
                    if nid == 0:
                        lo = int(bounds[k])
                        hi = int(bounds[k + 1]) if k + 1 < K else k_rows
                        stm = _stats_msg(None, hi - lo)
                    else:
                        a, rb = stats_by_id[nid]
                        lo = int(rb[k])
                        hi = int(rb[k + 1]) if k + 1 < K else len(a)
                        stm = _stats_msg(a.slice(lo, hi - lo))
                    fields = []
                    if pos_vals:
                        fields.append(pb_field(
                            1, b"".join(_vint(int(v)) for v in pos_vals)))
                    fields.append(pb_field(2, stm))
                    entries.append(pb_msg(*fields))
                ri = pb_msg(*[pb_field(1, e) for e in entries])
                index_recs.append((_KIND["ROW_INDEX"], nid,
                                   frame(ri)))
                if nid in bloom_ids:
                    # BLOOM_FILTER_UTF8: one spec bloom per row group over
                    # the group's non-null values (liborc stream order:
                    # right after the column's ROW_INDEX)
                    a, rb = stats_by_id[nid]
                    blooms = []
                    for k in range(K):
                        lo = int(rb[k])
                        hi = int(rb[k + 1]) if k + 1 < K else len(a)
                        hashes = orc_bloom.hash_arrow_values(
                            a.slice(lo, hi - lo))
                        nh, bits = orc_bloom.bloom_build(
                            hashes, row_index_stride, bloom_fpp)
                        blooms.append(pb_msg(pb_field(1, nh),
                                             pb_field(3, bits)))
                    bfi = pb_msg(*[pb_field(1, b) for b in blooms])
                    index_recs.append((8, nid, frame(bfi)))
        index_bytes = b"".join(fb for _, _, fb in index_recs)
        data_bytes = b"".join(fb for _, _, fb, _ in framed)
        stripe_footer = pb_msg(
            *[pb_field(1, pb_msg(pb_field(1, k), pb_field(2, c),
                                 pb_field(3, len(fb))))
              for k, c, fb in index_recs],
            *[pb_field(1, pb_msg(pb_field(1, k), pb_field(2, c),
                                 pb_field(3, len(fb))))
              for k, c, fb, _ in framed],
            *[pb_field(2, encs[i]) for i in range(n_ids)],
            pb_field(3, "UTC"),  # writerTimezone (UTC-normalized)
        )
        sff = frame(stripe_footer)
        stripe_info_msgs.append(pb_msg(
            pb_field(1, len(body)), pb_field(2, len(index_bytes)),
            pb_field(3, len(data_bytes)), pb_field(4, len(sff)),
            pb_field(5, k_rows)))
        body += index_bytes + data_bytes + sff
        stripe_stats_msgs.append(
            [_stats_msg(None, k_rows) if nid == 0
             else _stats_msg(stats_by_id[nid][0]) for nid in range(n_ids)])

    # Metadata: per-stripe column statistics
    metadata = pb_msg(*[pb_field(1, pb_msg(*[pb_field(1, cs) for cs in ss]))
                        for ss in stripe_stats_msgs])
    metadata_framed = frame(metadata)
    # file-level statistics over each node's arrays of all stripes
    file_stats = [_stats_msg(None, n_rows) if nid == 0
                  else _stats_msg(pa.concat_arrays(node_parts[nid]))
                  for nid in range(n_ids)]
    footer = pb_msg(
        pb_field(1, 3),                                   # headerLength
        pb_field(2, len(body)),                           # contentLength
        *[pb_field(3, si) for si in stripe_info_msgs],
        *[pb_field(4, t) for t in types],
        pb_field(6, n_rows),
        *[pb_field(7, st) for st in file_stats],          # file column stats
        pb_field(8, row_index_stride),
        # writer = ORC_CPP: this writer's DOUBLE bloom hashing follows
        # liborc's arithmetic-shift dialect, which is what this field
        # disambiguates (Java hashes doubles differently)
        pb_field(9, 1),
    )
    footer_framed = frame(footer)
    postscript = pb_msg(
        pb_field(1, len(footer_framed)),
        pb_field(2, comp_enum),
        pb_field(3, framing.BLOCK_SIZE),
        pb_field(4, 0), pb_field(4, 12),                  # version 0.12
        pb_field(5, len(metadata_framed)),
        pb_field(6, 6),     # writerVersion ORC_135 (≥ ORC_101, so
                            # readers trust kind-8 blooms)
        pb_field(8000, "ORC"),
    )
    assert len(postscript) < 256
    with open(path, "wb") as f:
        f.write(bytes(body))
        f.write(metadata_framed)
        f.write(footer_framed)
        f.write(postscript)
        f.write(bytes([len(postscript)]))


def write_orc_dataset(ds, out_dir: str, compression: str = "zlib",
                      stripe_rows: int | None = None,
                      row_index_stride: int = _DEFAULT_STRIDE,
                      bloom_columns: list[str] | tuple[str, ...] = ()) -> int:
    """Ray Data sink: one ``part-<id>.orc`` file per input block (resumable
    partitioned output — a failed run just rewrites missing parts), blooms
    at ``write_orc``'s default false-positive rate. Returns the number of
    files written."""
    import os

    import ray.data as rd  # noqa: F401  (type context)

    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        import uuid

        name = f"part-{uuid.uuid4().hex[:12]}.orc"
        tmp = os.path.join(out_dir, "." + name)
        write_orc(batch, tmp, compression=compression,
                  stripe_rows=stripe_rows,
                  row_index_stride=row_index_stride,
                  bloom_columns=bloom_columns)
        os.rename(tmp, os.path.join(out_dir, name))  # atomic publish
        return pa.table({"path": pa.array([os.path.join(out_dir, name)]),
                         "rows": pa.array([batch.num_rows], type=pa.int64())})

    manifest = ds.map_batches(write_block, batch_format="pyarrow",
                              batch_size=None).take_all()
    return len(manifest)
