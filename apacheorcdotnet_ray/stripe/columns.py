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

Codec selection samples each chunk (generalizing the reference's
dictionary-vs-direct sample decision, ``ColumnTypes/StringWriter.cs:83-96``)
and competes the allow-listed codecs on actual encoded size, with RLEv2 as the
parity floor for integers. Reads go back through ``decode_array``, the one
streams → Arrow decoder of ``.oray`` and ORC, driven by the Arrow type.
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
    sample = vals[: config.selector_sample_size]
    aligned = config.aligned_bit_widths
    trials: dict[str, bytes] = {}
    trials["rlev2"] = rlev2.encode(sample, signed, aligned)
    if "for" in config.int_codecs:
        f = for_.encode(sample)
        if f is not None:
            trials["for"] = f
    if "intdict" in config.int_codecs and _unique_ratio(sample) <= config.intdict_max_card_ratio:
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
    return "rlev2", rlev2.encode(vals, signed, aligned)


def _decode_int_data(stream: Stream) -> np.ndarray:
    if stream.codec == "rlev2":
        return rlev2.decode(stream.data, stream.params.get("signed", True), stream.n)
    if stream.codec == "rlev2u":
        return rlev2.decode(stream.data, False, stream.n)
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
# column encode


def encode_column(
    name: str, arr: pa.Array | pa.ChunkedArray, config: EncodeConfig,
    fsst_tables: dict | None = None,
) -> tuple[str, list[Stream], dict]:
    """Returns (encoding_name, streams, stats) for one top-level column chunk.

    ``fsst_tables`` is an optional mutable per-actor cache (column name →
    trained FSST symbol table): pass the same dict across stripes of one
    ``source`` to amortize symbol-table training (the north-star stateful
    actor-pool pattern; cf. the reference's per-stripe dictionary state,
    StringWriter.cs:155-175)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if config.column_overrides:
        ov = config.column_overrides.get(name.split(".", 1)[0])
        if ov:
            from dataclasses import replace

            config = replace(config, **ov, column_overrides={})
    stats = column_stats(arr)
    streams: list[Stream] = []
    n = len(arr)

    if arr.null_count > 0:
        mask = np.invert(arr.is_null().to_numpy(zero_copy_only=False))
        streams.append(Stream(name, PRESENT, "boolrle", bool_rle.encode(mask), n))
        valid = arr.drop_null()
    else:
        valid = arr

    enc_name = _encode_values(name, valid, config, streams, fsst_tables)
    return enc_name, streams, stats


def _encode_values(name: str, valid: pa.Array, config: EncodeConfig,
                   streams: list[Stream], fsst_tables: dict | None = None) -> str:
    """Encode the non-null values of a column into DATA/LENGTH/... streams."""
    t = valid.type
    nv = len(valid)

    if pa.types.is_integer(t):
        if t.bit_width == 8:
            # 8-bit columns take the reference's ByteRLE path
            # (ColumnTypes/ByteWriter.cs; sbyte is viewed as its byte pattern)
            raw = valid.to_numpy(zero_copy_only=False).astype(
                np.int8 if pa.types.is_signed_integer(t) else np.uint8, copy=False
            ).view(np.uint8)
            streams.append(Stream(name, DATA, "byterle", byte_rle.encode(raw), nv))
            return "byterle"
        vals = valid.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        codec, enc = _encode_int_data(vals, config, signed=True)
        streams.append(Stream(name, DATA, codec, enc, nv, {"signed": True}))
        return codec

    if pa.types.is_decimal(t):
        if not pa.types.is_decimal128(t):
            raise NotImplementedError(
                f"decimal column {name}: only decimal128 (precision<=38) is supported")
        # decimal128 mantissas: the common case (precision <= 18, like the
        # reference, ColumnTypes/DecimalWriter.cs:30-31) fits int64 and takes
        # a single zigzag-varint DATA stream; wider mantissas (precision up
        # to 38) split into low-64 (unsigned varint DATA) + high-64 (zigzag
        # varint SECONDARY) lanes — the analog of the reference reader's
        # BigInteger varint path (Encodings/BitManipulation.cs:313-425).
        # Arrow's scale is per-type, so no scale stream is needed.
        lanes = np.frombuffer(
            valid.buffers()[1], dtype=np.int64, count=2 * nv, offset=valid.offset * 16
        )
        lo, hi = lanes[0::2], lanes[1::2]
        if (hi == (lo >> 63)).all():
            streams.append(Stream(name, DATA, "varint", varint.encode(lo, True), nv,
                                  {"signed": True}))
            return "varint"
        streams.append(Stream(name, DATA, "varint", varint.encode(lo, False), nv,
                              {"signed": False}))
        streams.append(Stream(name, SECONDARY, "varint", varint.encode(hi, True), nv,
                              {"signed": True}))
        return "varint2"

    if pa.types.is_timestamp(t):
        # ORC-layout two-stream timestamps (TimestampWriter.cs:111-161):
        # DATA = signed seconds since the ORC epoch (2015-01-01 UTC),
        # SECONDARY = nanos with trailing decimal zeros stripped, encoded
        # (scaled << 3) | zeros_removed. We use floor division so pre-2015
        # values round-trip exactly (the C# writer truncates toward zero and
        # abs()es the remainder, which is lossy there — deliberate fix).
        factor = _UNIT_FACTOR[t.unit]
        v = valid.cast(pa.int64()).to_numpy(zero_copy_only=False)
        secs = v // factor - _ORC_EPOCH_S
        nanos = (v % factor) * (1_000_000_000 // factor)
        codec_s, enc_s = _encode_int_data(secs, config, signed=True)
        streams.append(Stream(name, DATA, codec_s, enc_s, nv, {"signed": True}))
        frac = _encode_orc_nanos(nanos)
        codec_f, enc_f = _encode_int_data(frac, config, signed=False)
        streams.append(Stream(name, SECONDARY, codec_f, enc_f, nv, {"signed": False}))
        return "timestamp2"

    if pa.types.is_date(t):
        # date32 has no direct int64 cast; bridge through its storage width
        via = valid.cast(pa.int32()) if t == pa.date32() else valid
        vals = via.cast(pa.int64()).to_numpy(zero_copy_only=False)
        codec, enc = _encode_int_data(vals, config, signed=True)
        streams.append(Stream(name, DATA, codec, enc, nv, {"signed": True}))
        return codec

    if pa.types.is_boolean(t):
        b = valid.to_numpy(zero_copy_only=False)
        streams.append(Stream(name, DATA, "boolrle", bool_rle.encode(b), nv))
        return "boolrle"

    if pa.types.is_floating(t):
        # raw IEEE-754 LE, like the reference (ColumnTypes/FloatWriter.cs),
        # vs byte-stream-split — competed on a zlib'd sample, since BSS only
        # pays off through the downstream block compression
        vals_np = valid.to_numpy(zero_copy_only=False)
        if ("bss" in config.float_codecs and nv
                and config.compression != "none"):
            from .framing import compress as _fcompress

            sample = vals_np[: config.selector_sample_size]
            raw_c, bss_c = (len(_fcompress(b, config.compression_block_size,
                                           config.compression_level,
                                           config.compression))
                            for b in (sample.tobytes(), bss.encode(sample)))
            if bss_c < 0.98 * raw_c:
                streams.append(Stream(name, DATA, "bss", bss.encode(vals_np),
                                      nv, {"dtype": str(valid.type)}))
                return "bss"
        streams.append(Stream(name, DATA, "raw", vals_np.tobytes(), nv,
                              {"dtype": str(valid.type)}))
        return "raw"

    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        return _encode_string(name, valid, config, streams, fsst_tables)

    if pa.types.is_list(t) or pa.types.is_large_list(t):
        offsets = valid.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lengths = np.diff(offsets)
        codec, enc = _encode_int_data(lengths, config, signed=False)
        streams.append(Stream(name, LENGTH, codec, enc, nv, {"signed": False}))
        child = valid.flatten()
        child_enc, child_streams, _ = encode_column(f"{name}.item", child, config, fsst_tables)
        streams.extend(child_streams)
        return f"list[{child_enc}]"

    if pa.types.is_dictionary(t):
        # dictionary-typed (categorical) input: encode the logical values —
        # the string/int dict codecs re-discover the dictionary anyway, and
        # decode rebuilds the categorical type from the stored schema
        child_enc, child_streams, _ = encode_column(
            f"{name}.values", valid.cast(t.value_type), config, fsst_tables)
        streams.extend(child_streams)
        return f"cat[{child_enc}]"

    if pa.types.is_fixed_size_list(t):
        # fixed-size list (embedding vectors): no LENGTH stream needed —
        # the width lives in the type; child values encode flattened
        child = valid.flatten()
        child_enc, child_streams, _ = encode_column(
            f"{name}.item", child, config, fsst_tables)
        streams.extend(child_streams)
        return f"flist[{child_enc}]"

    if pa.types.is_map(t):
        # map<k,v> is physically list<struct<key,value>> — reuse the list
        # LENGTH stream + recursive struct child encode
        offsets = valid.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lengths = np.diff(offsets)
        codec, enc = _encode_int_data(lengths, config, signed=False)
        streams.append(Stream(name, LENGTH, codec, enc, nv, {"signed": False}))
        # .keys/.items return the FULL child arrays with absolute offsets —
        # slice to this array's window
        lo, hi = int(offsets[0]), int(offsets[-1])
        kv = pa.StructArray.from_arrays(
            [valid.keys.slice(lo, hi - lo), valid.items.slice(lo, hi - lo)],
            names=["key", "value"])
        child_enc, child_streams, _ = encode_column(
            f"{name}.entries", kv, config, fsst_tables)
        streams.extend(child_streams)
        return f"map[{child_enc}]"

    if pa.types.is_struct(t):
        # struct: no DATA stream of its own (nulls already peeled into the
        # struct-level PRESENT stream); each child field encodes recursively
        # under the dotted path "name.field" — the reference's (root-only)
        # StructWriter shape (ColumnTypes/StructWriter.cs:33-41), generalized
        # to arbitrary nesting because paths compose.
        child_names = []
        for i in range(t.num_fields):
            f_ = t.field(i)
            child_enc, child_streams, _ = encode_column(
                f"{name}.{f_.name}", valid.field(i), config, fsst_tables)
            streams.extend(child_streams)
            child_names.append(child_enc)
        return f"struct[{','.join(child_names)}]"

    raise NotImplementedError(f"unsupported Arrow type for column {name}: {t}")


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


def _encode_string(name: str, valid: pa.Array, config: EncodeConfig,
                   streams: list[Stream], fsst_tables: dict | None = None) -> str:
    nv = len(valid)
    if nv == 0:
        streams.append(Stream(name, DATA, "raw", b"", 0, {"dtype": "bytes"}))
        streams.append(Stream(name, LENGTH, "rlev2", b"", 0, {"signed": False}))
        return "direct"

    sample_n = min(nv, config.selector_sample_size)
    sample = valid.slice(0, sample_n)
    distinct = pc.count_distinct(sample).as_py()
    use_dict = (
        "dict" in config.string_codecs
        and distinct / sample_n <= config.dictionary_threshold
    )
    if use_dict:
        # dictionary encoding with ordinally-sorted dictionary
        # (StringWriter.cs:155-249; sort at :187-191)
        denc = valid.dictionary_encode()
        dictionary = denc.dictionary
        order = pc.array_sort_indices(dictionary)
        sorted_dict = dictionary.take(order)
        remap = np.empty(len(dictionary), dtype=np.int64)
        remap[order.to_numpy(zero_copy_only=False)] = np.arange(len(dictionary))
        ids = remap[denc.indices.to_numpy(zero_copy_only=False)]
        doffs, dbytes = string_parts(sorted_dict)
        streams.append(Stream(name, DICT_DATA, "raw", dbytes, len(sorted_dict), {"dtype": "bytes"}))
        streams.append(Stream(name, DICT_LENGTH, "rlev2",
                              rlev2.encode(np.diff(doffs), False, config.aligned_bit_widths),
                              len(sorted_dict), {"signed": False}))
        streams.append(Stream(name, DATA, "rlev2",
                              rlev2.encode(ids, False, config.aligned_bit_widths),
                              nv, {"signed": False}))
        return "dict"

    offsets, data = string_parts(valid)
    len_codec, len_enc = _encode_int_data(np.diff(offsets), config, signed=False)
    streams.append(Stream(name, LENGTH, len_codec, len_enc, nv, {"signed": False}))

    if config.enable_fsst and "fsst" in config.string_codecs and len(data) > 0:
        import zlib

        sample_bytes = data[: 1 << 15]
        table = fsst_tables.get(name) if fsst_tables is not None else None
        if table is None:
            table = fsst.train(sample_bytes)
            if fsst_tables is not None:
                fsst_tables[name] = table
        fsst_sample = fsst.encode_chunk(sample_bytes, table=table)
        # compare post-zlib sizes — both streams get block-compressed later
        z_direct = len(zlib.compress(sample_bytes, 1))
        z_fsst = len(zlib.compress(fsst_sample, 1))
        if z_fsst < 0.9 * z_direct:
            if len(sample_bytes) < len(data):
                fsst_sample = fsst.encode_chunk(data, table=table)
            streams.append(Stream(name, DATA, "fsst", fsst_sample, nv))
            return "fsst"

    streams.append(Stream(name, DATA, "raw", data, nv, {"dtype": "bytes"}))
    return "direct"


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
