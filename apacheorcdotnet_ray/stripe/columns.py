"""Arrow column ↔ encoded streams, with per-chunk codec auto-selection.

The Ray-Data-native analog of the reference's ``ColumnTypes/*Writer.cs`` /
``*Reader.cs`` pairs: each Arrow column chunk is decomposed into named streams
(PRESENT / DATA / LENGTH / DICT_DATA / DICT_LENGTH — mirroring
``Protocol/Stream.cs:10-29``) encoded with vectorized codec kernels. Nulls
become a PRESENT bool-RLE stream that is only emitted when at least one null
occurred (same rule as ``ColumnTypes/LongWriter.cs:78-79``); ``list`` columns
decompose into a LENGTH stream plus recursively-encoded flattened child values
(the reference's Binary/String writer shape, ``ColumnTypes/BinaryWriter.cs:49-82``
— the central mapping for the ``tokens: list<int32>`` column).

Both directions have one core for ``.oray`` and ORC, driven by the Arrow
type. ``encode_array`` is the one Arrow → streams walk: it peels nulls,
extracts values, splits timestamps, reads decimal lanes, builds the sorted
string dictionary and windows list/map children, and hands each stream to a
sink. ``_OraySink`` competes the allow-listed codecs on actual encoded size
(RLEv2 as the parity floor for integers; FSST and BSS trials) on a sample of
each chunk, generalizing the reference's dictionary-vs-direct sample
decision (``ColumnTypes/StringWriter.cs:83-96``); ``orc_writer._OrcSink``
writes ORC's streams with per-row-group restarts. ``decode_array`` is the
one streams → Arrow decoder, over a format's stream source, and
``read_units`` the one selective-read driver above it: predicate columns
first, the rest only for the units (``.oray`` strides, ORC row groups,
whole stripes) that hold a match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs import bool_rle, bss, byte_rle, for_, fsst, intdict, rlev2, varint
from .config import EncodeConfig
from .stats import column_stats

PRESENT = "PRESENT"
DATA = "DATA"
LENGTH = "LENGTH"
DICT_DATA = "DICT_DATA"
DICT_LENGTH = "DICT_LENGTH"
SECONDARY = "SECONDARY"
_SAMPLE = 4096           # values sampled per chunk for codec choice
_INTDICT_MAX_CARD = 0.5  # try intdict only if the sample's unique ratio is below


@dataclass
class Stream:
    col: str          # column path ("tokens", "tokens.item")
    kind: str
    codec: str
    data: bytes
    n: int            # number of logical values encoded
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# integer data-stream encode/decode with selection


def _unique_ratio(sample: np.ndarray) -> float:
    if len(sample) == 0:
        return 1.0
    return len(np.unique(sample)) / len(sample)


def _encode_int_data(vals: np.ndarray, config: EncodeConfig, signed: bool = True) -> tuple[str, bytes]:
    """Pick the smallest codec by competing on a sample; RLEv2 is the floor.
    When the sample is the whole stream, the winner's trial output is the
    stream."""
    vals = np.ascontiguousarray(vals, dtype=np.int64)
    sample = vals[:_SAMPLE]
    trials: dict[str, bytes] = {}
    trials["rlev2"] = rlev2.encode(sample, signed)
    if "for" in config.int_codecs:
        f = for_.encode(sample)
        if f is not None:
            trials["for"] = f
    if "intdict" in config.int_codecs and _unique_ratio(sample) <= _INTDICT_MAX_CARD:
        d = intdict.encode(sample)
        if d is not None:
            trials["intdict"] = d
    best = min(trials, key=lambda k: len(trials[k]))
    # prefer the parity floor unless the challenger wins by ≥10% on the sample
    if best != "rlev2" and len(trials[best]) >= 0.9 * len(trials["rlev2"]):
        best = "rlev2"
    if len(sample) == len(vals):
        return best, trials[best]
    if best == "for":
        enc = for_.encode(vals)
        if enc is not None:
            return "for", enc
    elif best == "intdict":
        enc = intdict.encode(vals)
        if enc is not None:
            return "intdict", enc
    return "rlev2", rlev2.encode(vals, signed)


def _decode_int_data(stream: Stream) -> np.ndarray:
    if stream.codec == "rlev2":
        return rlev2.decode(stream.data, stream.params.get("signed", True), stream.n)
    if stream.codec == "for":
        return for_.decode(stream.data)
    if stream.codec == "intdict":
        return intdict.decode(stream.data, stream.n)
    if stream.codec == "varint":
        return varint.decode(stream.data, stream.n, stream.params.get("signed", True))
    raise ValueError(f"unknown int codec {stream.codec}")


# ---------------------------------------------------------------------------
# ORC timestamp fraction codec (TimestampWriter.cs RemoveZeros semantics)

_ORC_EPOCH_S = 1_420_070_400  # 2015-01-01T00:00:00Z in unix seconds
_UNIT_FACTOR = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}
# scale s in the low 3 bits means scaled was multiplied back by this
_NANO_MULT = np.array([1, 100, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8],
                      dtype=np.int64)


def _encode_orc_nanos(nanos: np.ndarray) -> np.ndarray:
    """(scaled << 3) | scale, scale = count of stripped decimal zeros - 1
    (0 = none stripped), vectorized over the column."""
    scaled = nanos.copy()
    scale = np.zeros(len(nanos), dtype=np.int64)
    done = np.zeros(len(nanos), dtype=bool)
    for s in range(7, 0, -1):
        div = _NANO_MULT[s]
        m = ~done & (nanos % div == 0)
        scaled[m] = nanos[m] // div
        scale[m] = s
        done |= m
    return (scaled << 3) | scale


def _decode_orc_nanos(frac: np.ndarray) -> np.ndarray:
    return (frac >> 3) * _NANO_MULT[frac & 7]


# ---------------------------------------------------------------------------
# column encode: one walk for .oray and ORC, driven by the Arrow type


def encode_column(
    name: str, arr: pa.Array | pa.ChunkedArray, config: EncodeConfig,
) -> tuple[str, list[Stream], dict]:
    """Returns (encoding_name, streams, stats) for one top-level column chunk."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if config.column_overrides:
        ov = config.column_overrides.get(name.split(".", 1)[0])
        if ov:
            from dataclasses import replace

            config = replace(config, **ov, column_overrides={})
    stats = column_stats(arr)
    streams: list[Stream] = []
    sink = _OraySink(name, config, streams)
    try:
        return encode_array(arr, sink).enc, streams, stats
    except NotImplementedError as e:
        raise NotImplementedError(f"column {name!r}: {e}") from None


def encode_array(arr: pa.Array, sink):
    """The one walk from an Arrow array to streams, for ``.oray`` and ORC
    alike: the mirror of ``decode_array``. Nulls become PRESENT bits and the
    non-null values go to ``sink`` (this module's ``_OraySink``,
    ``orc_writer._OrcSink``), which hides the format's codecs: ``present``
    bits, 8-bit ``bytes``, ``bools``, ``ints`` of one stream kind (DATA, or
    the LENGTH of lists and maps), ``floats``, ``timestamps`` (ORC-epoch
    seconds, floored or, with ``truncate_seconds``, truncated toward zero,
    and ``_encode_orc_nanos`` fractions), ``decimals`` (decimal128 lo/hi
    lanes), ``strings`` (``string_parts``), or a sorted ``dictionary`` and
    ids where ``wants_dictionary``. A nested value opens one ``child(i,
    path, array)`` sink per child and ends with ``nested(form, kids)``.
    Returns ``sink``."""
    if arr.null_count:
        sink.present(np.invert(arr.is_null().to_numpy(zero_copy_only=False)))
        arr = arr.drop_null()
    t, kids = arr.type, None
    if pa.types.is_integer(t):
        vals = arr.to_numpy(zero_copy_only=False)
        if t.bit_width == 8:  # the reference's ByteRLE (ColumnTypes/ByteWriter.cs)
            sink.bytes(vals.view(np.uint8))
        else:  # unsigned values travel as their int64 bit pattern
            sink.ints(DATA, vals.astype(np.int64, copy=False), True)
    elif pa.types.is_date(t):
        # date32 has no direct int64 cast; bridge through its storage width
        via = arr.cast(pa.int32()) if t == pa.date32() else arr
        sink.ints(DATA, via.cast(pa.int64()).to_numpy(zero_copy_only=False), True)
    elif pa.types.is_boolean(t):
        sink.bools(arr.to_numpy(zero_copy_only=False))
    elif pa.types.is_floating(t):
        sink.floats(arr.to_numpy(zero_copy_only=False))
    elif pa.types.is_timestamp(t):
        # ORC layout (TimestampWriter.cs:111-161): seconds since the ORC
        # epoch, and nanos with trailing decimal zeros stripped. Floor
        # seconds round-trip exactly before 1970; the C# writer truncates
        # toward zero and abs()es the remainder, which is lossy there.
        factor = _UNIT_FACTOR[t.unit]
        secs, rem = np.divmod(arr.cast(pa.int64()).to_numpy(zero_copy_only=False), factor)
        if sink.truncate_seconds:  # and the fraction keeps the sign
            back = (secs < 0) & (rem != 0)
            secs, rem = secs + back, rem - back * factor
        sink.timestamps(secs - _ORC_EPOCH_S,
                        _encode_orc_nanos(rem * (1_000_000_000 // factor)))
    elif pa.types.is_decimal128(t):
        sink.decimals(np.frombuffer(arr.buffers()[1], dtype=np.int64, count=2 * len(arr),
                                    offset=arr.offset * 16).reshape(-1, 2), t)
    elif (pa.types.is_string(t) or pa.types.is_large_string(t)
          or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        if len(arr) and sink.wants_dictionary(arr):
            sink.dictionary(*_sorted_dictionary(arr))
        else:
            sink.strings(*string_parts(arr))
    elif pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
        offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        sink.ints(LENGTH, np.diff(offsets), False)
        if pa.types.is_map(t):
            # .keys/.items are the whole child arrays, whatever the slice:
            # window them by the offsets, which are slice-aware and absolute
            lo, m = int(offsets[0]), int(offsets[-1] - offsets[0])
            form, kids = "map", [("entries.key", arr.keys.slice(lo, m)),
                                 ("entries.value", arr.items.slice(lo, m))]
        else:
            form, kids = "list", [("item", arr.flatten())]
    elif pa.types.is_fixed_size_list(t):  # no LENGTH: the width is in the type
        form, kids = "flist", [("item", arr.flatten())]
    elif pa.types.is_struct(t):  # children hold the struct's non-null rows
        form, kids = "struct", [(t.field(i).name, arr.field(i))
                                for i in range(t.num_fields)]
    elif pa.types.is_dictionary(t):  # categoricals encode their logical values
        form, kids = "cat", [("values", arr.cast(t.value_type))]
    else:
        raise NotImplementedError(f"unsupported Arrow type for encode: {t}")
    if kids is not None:
        sink.nested(form, [encode_array(c, sink.child(i, path, c))
                           for i, (path, c) in enumerate(kids)])
    return sink


def string_parts(valid: pa.Array) -> tuple[np.ndarray, bytes]:
    """(offsets, bytes) of a no-null string/binary array, shared by the
    ``.oray`` and ORC writers: the offsets in the array's own width (int32,
    int64 for large types), absolute into its data buffer (so
    ``offsets[0]`` is not 0 on a slice), and the bytes they span."""
    large = pa.types.is_large_string(valid.type) or pa.types.is_large_binary(valid.type)
    width = 8 if large else 4
    offsets = np.frombuffer(valid.buffers()[1], dtype=np.int64 if large else np.int32,
                            count=len(valid) + 1, offset=valid.offset * width)
    data_buf = valid.buffers()[2]
    lo, hi = int(offsets[0]), int(offsets[-1])
    data = data_buf.slice(lo, hi - lo).to_pybytes() if data_buf is not None else b""
    return offsets, data


def low_cardinality(valid: pa.Array, sample_n: int, threshold: float) -> bool:
    """The reference's dictionary-vs-direct rule (StringWriter.cs:83-96): at
    most ``threshold`` distinct values per value among the first
    ``sample_n`` of a non-empty array. ``.oray`` samples; ORC counts all."""
    return pc.count_distinct(valid.slice(0, sample_n)).as_py() / sample_n <= threshold


def _sorted_dictionary(valid: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """The distinct values in byte order, and each value's id into them
    (StringWriter.cs:155-249; sort at :187-191)."""
    enc = valid.dictionary_encode()
    order = pc.array_sort_indices(enc.dictionary)
    remap = np.empty(len(order), dtype=np.int64)
    remap[order.to_numpy(zero_copy_only=False)] = np.arange(len(order))
    return enc.dictionary.take(order), remap[enc.indices.to_numpy(zero_copy_only=False)]


class _OraySink:
    """``encode_array``'s sink for one ``.oray`` column path: every stream
    competes its codecs on a sample (``_encode_int_data``; FSST and BSS
    trials), decimals take one signed varint lane or two, and ``enc`` is
    the encoding name the footer records (``list[…]``, ``map[struct[…]]``,
    ``cat[…]``, …). Children append to the same stream list."""

    truncate_seconds = False

    def __init__(self, name: str, config: EncodeConfig, streams: list[Stream]):
        self.name, self.config = name, config
        self.streams, self.enc = streams, None

    def child(self, i: int, path: str, arr: pa.Array) -> _OraySink:
        return _OraySink(f"{self.name}.{path}", self.config, self.streams)

    def nested(self, form: str, kids: list[_OraySink]) -> None:
        inner = ",".join(k.enc for k in kids)
        self.enc = f"map[struct[{inner}]]" if form == "map" else f"{form}[{inner}]"

    def _add(self, kind: str, codec: str, data: bytes, n: int, params=None) -> str:
        self.streams.append(Stream(self.name, kind, codec, data, n, params or {}))
        return codec

    def present(self, bits: np.ndarray) -> None:
        self._add(PRESENT, "boolrle", bool_rle.encode(bits), len(bits))

    def bytes(self, vals: np.ndarray) -> None:
        self.enc = self._add(DATA, "byterle", byte_rle.encode(vals), len(vals))

    def bools(self, bits: np.ndarray) -> None:
        self.enc = self._add(DATA, "boolrle", bool_rle.encode(bits), len(bits))

    def ints(self, kind: str, vals: np.ndarray, signed: bool) -> None:
        codec, data = _encode_int_data(vals, self.config, signed)
        self.enc = self._add(kind, codec, data, len(vals), {"signed": signed})

    def timestamps(self, secs: np.ndarray, frac: np.ndarray) -> None:
        self.ints(DATA, secs, True)
        self.ints(SECONDARY, frac, False)
        self.enc = "timestamp2"

    def floats(self, vals: np.ndarray) -> None:
        # raw IEEE-754 LE, like the reference (ColumnTypes/FloatWriter.cs),
        # vs byte-stream-split — competed on a compressed sample, since BSS
        # only pays off through the downstream block compression
        c = self.config
        params = {"dtype": str(pa.from_numpy_dtype(vals.dtype))}
        if "bss" in c.float_codecs and len(vals) and c.compression != "none":
            from .framing import compress

            sample = vals[:_SAMPLE]
            raw_c, bss_c = (len(compress(b, level=c.compression_level,
                                         codec=c.compression))
                            for b in (sample.tobytes(), bss.encode(sample)))
            if bss_c < 0.98 * raw_c:
                self.enc = self._add(DATA, "bss", bss.encode(vals), len(vals), params)
                return
        self.enc = self._add(DATA, "raw", vals.tobytes(), len(vals), params)

    def decimals(self, lanes: np.ndarray, t: pa.DataType) -> None:
        # mantissas that fit int64 (precision ≤ 18, like the reference,
        # ColumnTypes/DecimalWriter.cs:30-31) take one zigzag varint lane;
        # wider ones an unsigned low lane and a zigzag high lane in
        # SECONDARY (cf. the reader's BigInteger varints,
        # Encodings/BitManipulation.cs:313-425). The scale is in the type.
        lo, hi = lanes[:, 0], lanes[:, 1]
        if (hi == lo >> 63).all():
            self.enc = self._add(DATA, "varint", varint.encode(lo, True), len(lo),
                                 {"signed": True})
            return
        self._add(DATA, "varint", varint.encode(lo, False), len(lo), {"signed": False})
        self._add(SECONDARY, "varint", varint.encode(hi, True), len(lo), {"signed": True})
        self.enc = "varint2"

    def wants_dictionary(self, valid: pa.Array) -> bool:
        c = self.config
        return "dict" in c.string_codecs and low_cardinality(
            valid, min(len(valid), _SAMPLE), c.dictionary_threshold)

    def dictionary(self, values: pa.Array, ids: np.ndarray) -> None:
        offsets, data = string_parts(values)
        self._add(DICT_DATA, "raw", data, len(values), {"dtype": "bytes"})
        self._add(DICT_LENGTH, "rlev2", rlev2.encode(np.diff(offsets), False),
                  len(values), {"signed": False})
        self._add(DATA, "rlev2", rlev2.encode(ids, False), len(ids),
                  {"signed": False})
        self.enc = "dict"

    def strings(self, offsets: np.ndarray, data: bytes) -> None:
        n, c = len(offsets) - 1, self.config
        if n == 0:  # no values: DATA before LENGTH, as the format has it
            self._add(DATA, "raw", b"", 0, {"dtype": "bytes"})
            self._add(LENGTH, "rlev2", b"", 0, {"signed": False})
            self.enc = "direct"
            return
        self.ints(LENGTH, np.diff(offsets), False)
        if "fsst" in c.string_codecs and data:
            import zlib

            sample = data[: 1 << 15]
            table = fsst.train(sample)
            encoded = fsst.encode_chunk(sample, table=table)
            # compare post-zlib sizes — both streams get block-compressed later
            if len(zlib.compress(encoded, 1)) < 0.9 * len(zlib.compress(sample, 1)):
                if len(sample) < len(data):
                    encoded = fsst.encode_chunk(data, table=table)
                self.enc = self._add(DATA, "fsst", encoded, n)
                return
        self._add(DATA, "raw", data, n, {"dtype": "bytes"})
        self.enc = "direct"


# ---------------------------------------------------------------------------
# column decode: one decoder for .oray and ORC, driven by the Arrow type

_ABSENT = (b"", 0, (0, 0))  # a stream a column lacks holds no values


def decode_array(t: pa.DataType, n_rows: int, src, values=None) -> pa.Array:
    """``n_rows`` rows of Arrow type ``t``: the one place stream values
    become Arrow arrays, for ``.oray`` and ORC alike. ``src`` (this module's
    ``_OraySource``, ``orc_reader._OrcSource``) hides the format's codecs:
    ``at(kind)`` gives a stream's (bytes, offset, seek state) or None,
    ``ints``/``dictionary``/``decimal_lanes`` its decoded values, ``child``
    a child column's source, ``name`` the column for errors, and
    ``java_seconds`` ORC's Java timestamp dialect. ``values(n)``, when
    given, stands in for the decode of the ``n`` non-null rows. Every array
    must hold exactly its rows, and every dictionary id name an entry, or
    ``ValueError`` names the stream."""
    present = src.at(PRESENT)
    mask = None if present is None else _bits(present, n_rows)
    n = n_rows if mask is None else int(np.count_nonzero(mask))
    arr = _values(t, n, src) if values is None else values(n)
    if len(arr) != n:
        raise _error(src, DATA, f"{len(arr)} values decoded for {n} rows")
    return arr if mask is None else scatter_valid(arr, mask)


def read_units(schema: pa.Schema, bound, rows: list[int], column):
    """The one selective-read driver of ``.oray`` and ORC, over the units
    (strides, row groups, stripes) a reader kept by ``bound.may_match``;
    ``rows[i]`` is unit i's row count. ``column(field)`` opens one pass
    over the units, whose caches live as long as the pass, and gives
    ``decode(i)`` and ``mask(i, term)``: the term's mask on unit i's
    encoded column, or None. Predicate columns decode first, units with no
    match drop out, and ``schema``'s columns decode for the rest
    (CompressDB's late materialization, SIGMOD 2022); a predicate column
    masked on its encoding decodes in its own pass, so it inflates once.
    Returns their rows, match mask (None without ``bound``) and indexes."""
    live, masks, got, passes = range(len(rows)), {}, {}, {}
    for t in bound.terms if bound is not None else ():
        if t.col not in passes:
            passes[t.col] = column(pa.field(t.col, t.type))
        decode, mask = passes[t.col]
        arrs = got.setdefault(t.col, {})
        for i in live:
            m = None if i in arrs else mask(i, t)
            if m is None:
                arrs[i] = arrs[i] if i in arrs else decode(i)
                m = t.mask(arrs[i])
            masks[i] = pc.and_kleene(masks[i], m) if i in masks else m
        live = [i for i in live if pc.any(masks[i]).as_py()]
    cols = []
    for f in schema:
        arrs, decode = got.get(f.name, {}), None
        if any(i not in arrs for i in live):
            decode = (passes.get(f.name) or column(f))[0]
        cols.append(pa.chunked_array(
            [arrs[i] if i in arrs else decode(i) for i in live], type=f.type))
    mask = None if bound is None else pa.chunked_array(
        [masks[i] for i in live], type=pa.bool_())
    return pa.table(cols, schema=schema), mask, list(live)


def _error(src, kind: str, msg: str) -> ValueError:
    return ValueError(f"{src.name} stream {kind}: {msg}")


def _bits(at: tuple, n: int) -> np.ndarray:
    buf, off, (byte_skip, bit_offset) = at
    return bool_rle.decode_from(buf, off, n, byte_skip, bit_offset)[0]


def _ints(src, kind: str, n: int, signed: bool) -> np.ndarray:
    vals = src.ints(kind, n, signed)
    if len(vals) != n:
        raise _error(src, kind, f"{len(vals)} values, expected {n}")
    return vals


def _blob(src, n_bytes: int) -> memoryview:
    buf, off, _ = src.at(DATA) or _ABSENT
    out = memoryview(buf)[off:off + n_bytes]
    if len(out) < n_bytes:
        raise _error(src, DATA, f"holds {len(out)} of {n_bytes} bytes")
    return out


def _dict_ids(src, size: int, n: int) -> np.ndarray:
    ids = _ints(src, DATA, n, False)
    if n and not (ids.min() >= 0 and ids.max() < size):
        raise _error(src, DATA, f"dictionary id outside its {size} entries")
    return ids


def _fixed(t: pa.DataType, vals: np.ndarray) -> pa.Array:
    """Zero-copy array of a fixed-width type over values in its storage."""
    vals = np.ascontiguousarray(vals)
    return pa.Array.from_buffers(t, len(vals), [None, pa.py_buffer(vals)])


def _values(t: pa.DataType, n: int, src) -> pa.Array:
    """The ``n`` non-null values of type ``t``."""
    if pa.types.is_boolean(t):
        return pa.array(_bits(src.at(DATA) or _ABSENT, n))
    if pa.types.is_integer(t) and t.bit_width == 8:  # byte-RLE
        buf, off, (skip, *_) = src.at(DATA) or _ABSENT
        vals, _ = byte_rle.decode_from(buf, off, expected_count=skip + n)
        return _fixed(t, vals[skip:skip + n].view(t.to_pandas_dtype()))
    if pa.types.is_integer(t):  # unsigned values travel as int64 bits
        return _fixed(t, _ints(src, DATA, n, True).astype(t.to_pandas_dtype(),
                                                           copy=False))
    if pa.types.is_floating(t):
        w = t.bit_width // 8
        return _fixed(t, np.frombuffer(_blob(src, w * n), dtype=f"<f{w}"))
    if pa.types.is_date(t):
        return _fixed(t, _ints(src, DATA, n, True).astype(f"<i{t.bit_width // 8}",
                                                           copy=False))
    if pa.types.is_timestamp(t):
        # ORC layout: DATA = seconds since the ORC epoch, SECONDARY = nanos
        secs = _ints(src, DATA, n, True) + _ORC_EPOCH_S
        nanos = _decode_orc_nanos(_ints(src, SECONDARY, n, False))
        if src.java_seconds:  # positive nanos, seconds truncated toward 0
            secs -= (secs < 0) & (nanos > 999_999)
        factor = _UNIT_FACTOR[t.unit]
        return _fixed(t, secs * factor + nanos // (1_000_000_000 // factor))
    if pa.types.is_decimal128(t):
        lanes = np.empty((n, 2), dtype=np.int64)
        lanes[:, 0], lanes[:, 1] = src.decimal_lanes(n, t)
        return _fixed(t, lanes)
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        d = src.dictionary(t)
        if d is not None:
            return d.take(pa.array(_dict_ids(src, len(d), n)))
        lengths = _ints(src, LENGTH, n, False)
        return build_string_array(t, lengths, _blob(src, int(lengths.sum())))
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
        large = pa.types.is_large_list(t)
        lengths = _ints(src, LENGTH, n, False)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offs[1:])
        m = int(offs[-1])
        if n and (lengths.min() < 0 or not large and m >= 2**31):
            raise _error(src, LENGTH, "list lengths out of range")
        offs = pa.array(offs if large else offs.astype(np.int32))
        if pa.types.is_map(t):  # .oray spells its children as entries' fields
            return pa.MapArray.from_arrays(
                offs, decode_array(t.key_type, m, src.child(0, "entries.key")),
                decode_array(t.item_type, m, src.child(1, "entries.value")))
        child = decode_array(t.value_type, m, src.child(0, "item"))
        return (pa.LargeListArray if large else pa.ListArray).from_arrays(offs, child)
    if pa.types.is_fixed_size_list(t):
        child = decode_array(t.value_type, n * t.list_size, src.child(0, "item"))
        return pa.FixedSizeListArray.from_arrays(child, t.list_size)
    if pa.types.is_struct(t):  # children hold the struct's non-null rows
        kids = [decode_array(t.field(i).type, n, src.child(i, t.field(i).name))
                for i in range(t.num_fields)]
        return pa.Array.from_buffers(t, n, [None], children=kids)
    if pa.types.is_dictionary(t):
        values = decode_array(t.value_type, n, src.child(0, "values"))
        return values.dictionary_encode().cast(t)
    raise NotImplementedError(f"unsupported Arrow type for decode: {t}")


class _OraySource:
    """``decode_array``'s source over one ``.oray`` column chunk: streams by
    (column path, kind), each decoded by its own codec. Timestamps are
    floor seconds; decimals one signed varint lane (precision ≤ 18) or two."""

    java_seconds = False

    def __init__(self, streams: dict, path: str):
        self.streams, self.name = streams, path

    def child(self, i: int, path: str) -> _OraySource:
        return _OraySource(self.streams, f"{self.name}.{path}")

    def at(self, kind: str):
        s = self.streams.get((self.name, kind))
        if s is None:
            return None
        if s.codec == "fsst":
            return fsst.decode_chunk(s.data), 0, (0, 0)
        if s.codec == "bss":  # a byte transpose of len // n byte values
            w = len(s.data) // max(s.n, 1)
            return bss.decode(s.data, s.n, f"<f{w}").view(np.uint8), 0, (0, 0)
        return s.data, 0, (0, 0)

    def ints(self, kind: str, n: int, signed: bool) -> np.ndarray:
        s = self.streams.get((self.name, kind))  # signed per its params
        return np.empty(0, dtype=np.int64) if s is None else _decode_int_data(s)

    def dictionary(self, t: pa.DataType) -> pa.Array | None:
        d = self.streams.get((self.name, DICT_DATA))
        return None if d is None else build_string_array(
            t, _ints(self, DICT_LENGTH, d.n, False), d.data)

    def decimal_lanes(self, n: int, t: pa.DataType):
        lo = _ints(self, DATA, n, True)
        if (self.name, SECONDARY) not in self.streams:
            return lo, lo >> 63
        return lo, _ints(self, SECONDARY, n, True)


def decode_column(field_: pa.Field, streams: list[Stream], n_rows: int) -> pa.Array:
    """Rebuild one top-level Arrow column from its streams (zero row objects)."""
    src = _OraySource({(s.col, s.kind): s for s in streams}, field_.name)
    return decode_array(field_.type, n_rows, src)


def column_predicate_mask(field_: pa.Field, streams: list[Stream], n_rows: int,
                          term) -> pa.Array | None:
    """Evaluate a bound ``predicate.Term`` directly on a dict-encoded
    string/binary column: ONE comparison over the (tiny) sorted dictionary,
    then a fancy-index over the id stream — row strings never materialize
    for the predicate (the classic predicate-on-encoded-data win for
    low-cardinality columns). Returns None when the column isn't
    dict-encoded; the caller then decodes + compares normally. Null rows
    yield null (Kleene), matching ``term.mask`` on a decoded column."""
    src = _OraySource({(s.col, s.kind): s for s in streams}, field_.name)
    d = src.dictionary(field_.type)  # only strings have a DICT_DATA stream
    if d is None:
        return None
    dmask = term.mask(d).to_numpy(zero_copy_only=False).astype(bool)
    return decode_array(pa.bool_(), n_rows, src,
                        lambda n: pa.array(dmask[_dict_ids(src, len(d), n)]))


def build_string_array(t: pa.DataType, lengths: np.ndarray, data: bytes) -> pa.Array:
    """Zero-copy string/binary array of type ``t`` from per-value lengths
    and their concatenated bytes (``.oray`` and ORC reads). Bytes past
    int32 offsets give the large counterpart of ``t``."""
    n = len(lengths)
    total = int(lengths.sum()) if n else 0
    if total > len(data) or (n and int(lengths.min()) < 0):
        raise ValueError(f"string lengths sum to {total} B, but the data "
                         f"holds {len(data)} B")
    binary = pa.types.is_binary(t) or pa.types.is_large_binary(t)
    large = (pa.types.is_large_string(t) or pa.types.is_large_binary(t)
             or total > 2**31 - 1)
    storage = ((pa.large_binary() if large else pa.binary()) if binary
               else pa.large_utf8() if large else pa.utf8())
    offsets = np.zeros(n + 1, dtype=np.int64 if large else np.int32)
    np.cumsum(lengths, out=offsets[1:])
    return pa.Array.from_buffers(
        storage, n, [None, pa.py_buffer(offsets), pa.py_buffer(data)])


def scatter_valid(values: pa.Array, mask: np.ndarray) -> pa.Array:
    """Spread the non-null values back to one slot per row (``mask`` True
    where a row is valid), for ``.oray`` and ORC reads: take() with null
    indices yields nulls, for primitives, strings and nested types alike."""
    idx = np.maximum(np.cumsum(mask) - 1, 0)
    return values.take(pa.array(idx, mask=~mask))
