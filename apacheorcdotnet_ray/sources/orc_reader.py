"""Decode-only Apache ORC reader: cross-validates this repo's codec stack
against an INDEPENDENT writer (the Hive-written conformance file the
reference pins its readers to — /root/reference/test/ApacheOrcDotNet.Test/
Data/demo-12-zlib.orc, expected values at ColumnTypes/LongReader_Test.cs:24-102
and Protocol/ExpectedOutput.txt).

The repo's own container format remains the production surface (SURVEY
§2.6 C4 blessed deviation); this module proves the codec stack against
bytes this codebase never wrote and gives the engine a real ``.orc``
source:

- protobuf tail parsing via a ~40-line wire-format reader (no protobuf dep;
  field numbers from the public ORC spec — the reference's generated
  Protocol/*.cs carries the same public schema). ``Type.subtypes`` is
  ``repeated uint32 [packed=true]`` so real writers emit it as ONE
  length-delimited blob of varints — ``pb_repeated_uint`` unpacks both the
  packed and the unpacked dialect;
- ORC compressed-stream framing (3-byte little-endian chunk headers,
  ``(len << 1) | is_original``; raw-deflate bodies for ZLIB);
- column decoders driving the repo codecs: DIRECT_V2 ints (``rlev2``),
  DICTIONARY_V2/DIRECT_V2 strings (zero-copy ``pa.Array.from_buffers``
  construction — no per-row Python), doubles/floats, booleans, two-stream
  timestamps (both nano dialects: C++ signed-negative nanos AND the
  Java/Hive positive-nanos one-second adjustment), dates, decimals
  (``varint`` mantissas, vectorized to ``decimal128`` for precision ≤ 18),
  PRESENT null masks (``bool_rle``), STRUCT and LIST — all of them across
  multiple stripes (per-stripe decode, one concat at the top);
- the file is ``mmap``-ed, not slurped: only the tail plus the streams a
  read actually touches are ever paged in / copied;
- ``read_table(columns=...)`` prunes at the decode (unrequested streams
  never decompress); ``read_orc_files`` is the Ray Data source (one decode
  task per file).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..codecs import bool_rle, byte_rle, rlev1, rlev2

# --- minimal protobuf wire-format reader -----------------------------------


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def pb_parse(buf: bytes) -> dict[int, list]:
    """Tag → list of raw values (int for varint/fixed, bytes for
    length-delimited). Enough of proto2 for ORC's PostScript / Footer /
    StripeFooter messages."""
    out: dict[int, list] = {}
    pos = 0
    while pos < len(buf):
        key, pos = _read_varint(buf, pos)
        tag, wire = key >> 3, key & 7
        if wire == 0:
            val, pos = _read_varint(buf, pos)
        elif wire == 2:
            ln, pos = _read_varint(buf, pos)
            val = buf[pos:pos + ln]
            pos += ln
        elif wire == 5:
            val = int.from_bytes(buf[pos:pos + 4], "little")
            pos += 4
        elif wire == 1:
            val = int.from_bytes(buf[pos:pos + 8], "little")
            pos += 8
        else:  # pragma: no cover - groups unused by ORC
            raise ValueError(f"unsupported protobuf wire type {wire}")
        out.setdefault(tag, []).append(val)
    return out


def pb_repeated_uint(values: list) -> list[int]:
    """Flatten a ``repeated uint32/uint64`` field that may arrive PACKED
    (proto2 ``[packed=true]``: one wire-type-2 blob of varints — how real
    ORC writers emit ``Type.subtypes``) or unpacked (one varint per
    element — this repo's own writer)."""
    out: list[int] = []
    for v in values:
        if isinstance(v, (bytes, bytearray, memoryview)):
            pos = 0
            while pos < len(v):
                x, pos = _read_varint(v, pos)
                out.append(x)
        else:
            out.append(int(v))
    return out


# --- ORC structures (field numbers from the public ORC proto) ---------------

_KIND_PRESENT, _KIND_DATA, _KIND_LENGTH = 0, 1, 2
_KIND_DICTIONARY_DATA, _KIND_ROW_INDEX = 3, 6
_ENC_DIRECT, _ENC_DICTIONARY, _ENC_DIRECT_V2, _ENC_DICTIONARY_V2 = 0, 1, 2, 3


@dataclass
class _Stripe:
    offset: int
    index_length: int
    data_length: int
    footer_length: int
    number_of_rows: int


def _zstd_content_size(frame: bytes) -> int:
    """Frame_Content_Size from a zstd frame header (RFC 8878 §3.1.1)."""
    if frame[:4] != b"\x28\xb5\x2f\xfd":
        raise ValueError("not a zstd frame")
    fhd = frame[4]
    single_segment = (fhd >> 5) & 1
    fcs_flag = fhd >> 6
    pos = 5 + (0 if single_segment else 1)  # skip window descriptor
    pos += (0, 1, 2, 4)[fhd & 3]            # skip dictionary id
    if fcs_flag == 0:
        if not single_segment:
            raise ValueError("zstd frame without content size")
        return frame[pos]
    if fcs_flag == 1:
        return int.from_bytes(frame[pos:pos + 2], "little") + 256
    if fcs_flag == 2:
        return int.from_bytes(frame[pos:pos + 4], "little")
    return int.from_bytes(frame[pos:pos + 8], "little")


def _decompress(buf: bytes, compression: int) -> bytes:
    """ORC stream: concatenation of [3-byte LE header][chunk] blocks;
    header = (chunk_len << 1) | is_original. compression 0 = NONE."""
    if compression == 0:
        return buf
    out = bytearray()
    pos = 0
    while pos + 3 <= len(buf):
        hdr = int.from_bytes(buf[pos:pos + 3], "little")
        pos += 3
        ln, original = hdr >> 1, hdr & 1
        chunk = buf[pos:pos + ln]
        pos += ln
        if original:
            out += chunk
        elif compression == 1:  # ZLIB = raw deflate
            out += zlib.decompress(chunk, -15)
        elif compression == 5:  # ZSTD frames
            import pyarrow as _pa

            # pyarrow needs the exact decompressed size — read it from the
            # zstd frame header (Frame_Content_Size; our writer's frames
            # always carry it)
            out += _pa.Codec("zstd").decompress(
                chunk, decompressed_size=_zstd_content_size(chunk))
        else:  # pragma: no cover
            raise NotImplementedError(f"ORC compression kind {compression}")
    return bytes(out)


def _strings_from_blob(blob: bytes, lengths: np.ndarray, binary: bool = False):
    """Zero-copy Arrow string/binary array from a packed blob + per-value
    lengths (the LENGTH stream already IS the vectorized offsets source —
    no per-row Python slicing/decoding)."""
    import pyarrow as pa

    n = len(lengths)
    if n and int(lengths.sum()) > 2**31 - 8:  # pragma: no cover - huge blob
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offs[1:])
        return pa.Array.from_buffers(
            pa.large_binary() if binary else pa.large_utf8(), n,
            [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(blob)])
    offs = np.zeros(n + 1, dtype=np.int32)
    if n:
        np.cumsum(lengths, out=offs[1:])
    return pa.Array.from_buffers(
        pa.binary() if binary else pa.utf8(), n,
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(blob)])


def _decimals_from_parts(mant: np.ndarray, scale: np.ndarray,
                         prec: int, scl: int):
    """Vectorized decimal128 construction: rescale int64 mantissas to the
    column scale, then build the 16-byte two's-complement buffer directly
    (low word = mantissa, high word = sign extension). Falls back to
    per-value ``Decimal`` only for precision > 18 (mantissas that overflow
    int64 — the varint decoder already wrapped those)."""
    import pyarrow as pa

    if prec <= 18:
        adj = scl - scale.astype(np.int64)
        if ((adj >= 0) & (adj <= 18)).all():
            m = mant.astype(np.int64) * 10 ** adj
            buf = np.empty((len(m), 2), dtype=np.int64)
            buf[:, 0] = m
            buf[:, 1] = m >> 63  # sign extension
            return pa.Array.from_buffers(
                pa.decimal128(prec, scl), len(m),
                [None, pa.py_buffer(buf.tobytes())])
    from decimal import Decimal  # pragma: no cover - prec>18 foreign files

    return pa.array([Decimal(int(m)).scaleb(-int(s))
                     for m, s in zip(mant, scale)],
                    type=pa.decimal128(prec, scl))


class OrcFile:
    """Tail-parsed ORC file; reads columns through the repo codecs.

    The file is memory-mapped: ``__init__`` touches only the tail
    (PostScript + Footer), and each column read pages in just that
    column's streams — peak heap for a decode is bounded by one stripe's
    streams, not the file."""

    def __init__(self, path: str):
        import mmap

        self._f = open(path, "rb")
        try:
            self._buf = mmap.mmap(self._f.fileno(), 0,
                                  access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # pragma: no cover - empty/special
            self._buf = self._f.read()
        buf = self._buf
        ps_len = buf[-1]
        ps = pb_parse(buf[-1 - ps_len:-1])
        footer_len = ps[1][0]
        self.compression = ps.get(2, [0])[0]
        self.block_size = ps.get(3, [256 * 1024])[0]
        self._metadata_span = (len(buf) - 1 - ps_len - footer_len
                               - ps.get(5, [0])[0], ps.get(5, [0])[0])
        footer_raw = _decompress(
            buf[-1 - ps_len - footer_len:-1 - ps_len], self.compression)
        footer = pb_parse(footer_raw)
        self.number_of_rows = footer.get(6, [0])[0]
        self.stripes = [
            _Stripe(s.get(1, [0])[0], s.get(2, [0])[0], s.get(3, [0])[0],
                    s.get(4, [0])[0], s.get(5, [0])[0])
            for s in (pb_parse(raw) for raw in footer.get(3, []))
        ]
        # types: field 1 = kind enum, field 2 = subtypes (packed or not)
        self.types = [pb_parse(raw) for raw in footer.get(4, [])]
        # writer implementation (Footer field 9): 0 = ORC_JAVA, 1 =
        # ORC_CPP, absent = unknown. Java and C++ hash DOUBLE bloom
        # entries differently, so double bloom probes dispatch on this.
        w = footer.get(9, [None])[0]
        self.writer_impl = int(w) if w is not None else None
        self.row_index_stride = footer.get(8, [0])[0]
        self._sf_cache: dict[int, dict[int, list]] = {}
        self._dict_cache: dict[tuple[int, int], "pa.Array"] = {}  # noqa: F821

    def close(self) -> None:
        buf, self._buf = self._buf, b""
        if hasattr(buf, "close"):
            buf.close()
        self._f.close()

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def subtypes(self, column: int) -> list[int]:
        return pb_repeated_uint(self.types[column].get(2, []))

    def _stripe_footer(self, st: _Stripe) -> dict[int, list]:
        cached = self._sf_cache.get(st.offset)
        if cached is not None:
            return cached
        start = st.offset + st.index_length + st.data_length
        raw = self._buf[start:start + st.footer_length]
        sf = pb_parse(_decompress(raw, self.compression))
        self._sf_cache[st.offset] = sf
        return sf

    def _column_streams(self, st: _Stripe, column: int) -> dict[int, bytes]:
        """kind → decompressed stream bytes for one column of one stripe.
        Stream payloads are laid out in StripeFooter.streams order: ROW_INDEX
        kinds live in the index region, the rest in the data region."""
        sf = self._stripe_footer(st)
        streams = [pb_parse(raw) for raw in sf.get(1, [])]
        out: dict[int, bytes] = {}
        pos = st.offset
        for s in streams:
            kind = s.get(1, [0])[0]
            col = s.get(2, [0])[0]
            ln = s.get(3, [0])[0]
            if col == column and kind not in (_KIND_ROW_INDEX, 7, 8):
                out[kind] = _decompress(self._buf[pos:pos + ln],
                                        self.compression)
            pos += ln
        return out

    def _stream_spans(self, st: _Stripe) -> list[tuple[int, int, int, int]]:
        """(kind, column, absolute offset, length) per stream, in stripe
        directory order (payloads are laid out in exactly this order)."""
        sf = self._stripe_footer(st)
        out = []
        pos = st.offset
        for raw in sf.get(1, []):
            s = pb_parse(raw)
            kind = s.get(1, [0])[0]
            col = s.get(2, [0])[0]
            ln = s.get(3, [0])[0]
            out.append((kind, col, pos, ln))
            pos += ln
        return out

    def _row_index(self, st: _Stripe,
                   column: int) -> list[tuple[list[int], dict]] | None:
        """Parsed ROW_INDEX for one column of one stripe: one
        (positions, stats-rec) per row group, or None when absent."""
        for kind, col, off, ln in self._stream_spans(st):
            if col == column and kind == _KIND_ROW_INDEX:
                ri = pb_parse(_decompress(self._buf[off:off + ln],
                                          self.compression))
                out = []
                for raw in ri.get(1, []):
                    e = pb_parse(raw)
                    poss = pb_repeated_uint(e.get(1, []))
                    stat_raw = e.get(2, [None])[0]
                    rec = _stats_rec(pb_parse(stat_raw)) if stat_raw else {}
                    out.append((poss, rec))
                return out or None
        return None

    # --- row-group (ROW_INDEX-seek) decode -------------------------------

    # scalar ORC type kinds the group decoder supports (nested kinds fall
    # back to full-stripe decode)
    _GROUP_KINDS = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 16, 17}

    def _position_arity(self, stream_kind: int, type_kind: int,
                        enc: int) -> int | None:
        """How many ROW_INDEX position values one RowIndexEntry carries
        for this stream (spec: stream seek base — 1 uncompressed, 2
        compressed — plus codec state), or None for streams that carry no
        row positions (dictionary blobs)."""
        base = 1 if self.compression == 0 else 2
        dictionary = enc in (_ENC_DICTIONARY_V2, _ENC_DICTIONARY)
        if stream_kind == _KIND_PRESENT:
            return base + 2                      # byte-RLE run + bit
        if stream_kind in (_KIND_DICTIONARY_DATA,):
            return None
        if stream_kind == _KIND_LENGTH:
            return None if dictionary else base + 1
        if stream_kind == _KIND_DATA:
            if type_kind == 0:
                return base + 2                  # boolean bits
            if type_kind == 1:
                return base + 1                  # byte-RLE
            if type_kind in (2, 3, 4, 9, 15):
                return base + 1                  # int RLE
            if type_kind in (5, 6, 8, 14):
                return base                      # raw bytes / varint
            if type_kind in (7, 16, 17):
                return base + 1 if dictionary else base
        if stream_kind == 5:                     # SECONDARY
            return base + 1                      # ts nanos / decimal scale
        return None

    def _bytes_from_position(self, span: tuple[int, int], pos: list[int]
                             ) -> tuple[bytes, int]:
        """(decompressed bytes from the position's chunk to stream end,
        byte offset of the seek point within them). Decompressing to the
        stream end trades some tail work for simplicity — the expensive
        part a seek avoids is decoding values, and chunks BEFORE the seek
        point are never touched."""
        off, ln = span
        if self.compression == 0:
            return self._buf[off:off + ln], int(pos[0])
        chunk, within = int(pos[0]), int(pos[1])
        return _decompress(self._buf[off + chunk:off + ln],
                           self.compression), within

    def _seek_ints(self, span, base, state, n, signed) -> np.ndarray:
        """RLEv2 seek decode: jump to the position's chunk/byte, decode
        ``state[0]`` + ``n`` values (the run containing the group's first
        value may have started before the boundary), drop the skip."""
        buf, off = self._bytes_from_position(span, base)
        skip = int(state[0])
        vals, _ = rlev2.decode_from(buf, off, signed,
                                    expected_count=skip + n,
                                    allow_overshoot=True)
        return vals[skip:skip + n]

    def _seek_bits(self, span, base, state, n) -> np.ndarray:
        """Boolean/PRESENT seek decode: byte-RLE run skip + bit offset."""
        byte_skip, bit_off = int(state[0]), int(state[1])
        buf, off = self._bytes_from_position(span, base)
        nbytes = byte_skip + (bit_off + n + 7) // 8
        packed, _ = byte_rle.decode_from(buf, off, expected_count=nbytes)
        packed = packed[byte_skip:byte_skip + (bit_off + n + 7) // 8]
        return np.unpackbits(packed)[bit_off:bit_off + n].astype(bool)

    def _dictionary(self, st: _Stripe, column: int):
        """Decoded (cached) dictionary entries for one stripe/column."""
        key = (st.offset, column)
        ent = self._dict_cache.get(key)
        if ent is None:
            spans = {k: (o, ln) for k, c, o, ln in self._stream_spans(st)
                     if c == column}
            lengths = rlev2.decode(
                _decompress(self._buf[spans[_KIND_LENGTH][0]:
                                      spans[_KIND_LENGTH][0]
                                      + spans[_KIND_LENGTH][1]],
                            self.compression), signed=False)
            blob = _decompress(
                self._buf[spans[_KIND_DICTIONARY_DATA][0]:
                          spans[_KIND_DICTIONARY_DATA][0]
                          + spans[_KIND_DICTIONARY_DATA][1]],
                self.compression)
            ent = _strings_from_blob(blob, lengths)
            self._dict_cache[key] = ent
        return ent

    def _read_column_stripe_groups(self, st: _Stripe, column: int,
                                   groups: list[int]):
        """Decode ONLY the given row groups of one scalar column via
        ROW_INDEX positions (works on foreign files too: seeks land on
        run headers, the skip count crosses into mid-run group starts).
        Returns the concatenated Arrow array, or None when this column
        cannot group-decode (nested type, RLEv1 int encoding, missing or
        unexpected index layout) — callers fall back to the full-stripe
        decode."""
        import pyarrow as pa

        kind = self.types[column].get(1, [0])[0]
        if kind not in self._GROUP_KINDS:
            return None
        enc = self._stripe_encoding(st, column)
        if kind in (2, 3, 4, 7, 8, 9, 14, 15, 16, 17) \
                and enc in (_ENC_DIRECT, _ENC_DICTIONARY):
            # pre-Hive-0.12 encodings: every int-RLE stream (data, ids,
            # lengths, scales) is RLEv1, which has no seek decoder here
            return None
        ri = self._row_index(st, column)
        stride = self.row_index_stride
        if not ri or not stride:
            return None
        spans = {k: (o, ln) for k, c, o, ln in self._stream_spans(st)
                 if c == column and k not in (_KIND_ROW_INDEX, 7, 8)}
        # RowIndexEntry positions follow the LOGICAL stream order
        # (PRESENT, DATA, then LENGTH/SECONDARY), NOT the stripe
        # directory order — liborc lists LENGTH before DATA in the
        # directory but records positions DATA-first
        order = [_KIND_PRESENT, _KIND_DATA]
        if kind in (7, 16, 17):
            if enc not in (_ENC_DICTIONARY_V2, _ENC_DICTIONARY):
                order.append(_KIND_LENGTH)
        elif kind == 8:
            order.append(_KIND_LENGTH)
        elif kind in (9, 14):
            order.append(5)                      # SECONDARY
        layout = []       # (stream kind, span, slice into positions)
        at = 0
        for k in order:
            if k not in spans:
                continue
            a = self._position_arity(k, kind, enc)
            if a:
                layout.append((k, spans[k], slice(at, at + a)))
                at += a
        if any(len(p) != at for p, _ in ri):
            return None   # layout mismatch — never guess on foreign files
        base_n = 1 if self.compression == 0 else 2

        def stream_pos(g, want_kind):
            for k, span, sl in layout:
                if k == want_kind:
                    p = ri[g][0][sl]
                    return span, p[:base_n], p[base_n:]
            return None

        parts = []
        for g in groups:
            n_rows = min(stride, st.number_of_rows - g * stride)
            present = None
            n = n_rows
            if stream_pos(g, _KIND_PRESENT) is not None:
                span, base, state = stream_pos(g, _KIND_PRESENT)
                present = self._seek_bits(span, base, state, n_rows)
                n = int(present.sum())
            if kind in (2, 3, 4):       # SHORT / INT / LONG
                span, base, state = stream_pos(g, _KIND_DATA)
                vals = self._seek_ints(span, base, state, n, signed=True)
                dt = {2: np.int16, 3: np.int32, 4: np.int64}[kind]
                arr = pa.array(vals.astype(dt))
            elif kind == 1:             # BYTE
                span, base, state = stream_pos(g, _KIND_DATA)
                buf, off = self._bytes_from_position(span, base)
                skip = int(state[0])
                bv, _ = byte_rle.decode_from(buf, off,
                                             expected_count=skip + n)
                arr = pa.array(bv[skip:skip + n].view(np.int8))
            elif kind == 0:             # BOOLEAN
                span, base, state = stream_pos(g, _KIND_DATA)
                arr = pa.array(self._seek_bits(span, base, state, n))
            elif kind == 6:             # DOUBLE
                span, base, _ = stream_pos(g, _KIND_DATA)
                buf, off = self._bytes_from_position(span, base)
                arr = pa.array(np.frombuffer(buf, "<f8", count=n,
                                             offset=off))
            elif kind == 5:             # FLOAT
                span, base, _ = stream_pos(g, _KIND_DATA)
                buf, off = self._bytes_from_position(span, base)
                arr = pa.array(np.frombuffer(buf, "<f4", count=n,
                                             offset=off))
            elif kind in (7, 16, 17):   # STRING / VARCHAR / CHAR
                if enc in (_ENC_DICTIONARY_V2, _ENC_DICTIONARY):
                    span, base, state = stream_pos(g, _KIND_DATA)
                    ids = self._seek_ints(span, base, state, n, signed=False)
                    arr = self._dictionary(st, column).take(pa.array(ids))
                else:
                    span, base, state = stream_pos(g, _KIND_LENGTH)
                    lengths = self._seek_ints(span, base, state, n,
                                              signed=False)
                    span, base, _ = stream_pos(g, _KIND_DATA)
                    buf, off = self._bytes_from_position(span, base)
                    blob = buf[off:off + int(lengths.sum())]
                    arr = _strings_from_blob(blob, lengths)
            elif kind == 8:             # BINARY
                span, base, state = stream_pos(g, _KIND_LENGTH)
                lengths = self._seek_ints(span, base, state, n, signed=False)
                span, base, _ = stream_pos(g, _KIND_DATA)
                buf, off = self._bytes_from_position(span, base)
                arr = _strings_from_blob(buf[off:off + int(lengths.sum())],
                                         lengths, binary=True)
            elif kind == 9:             # TIMESTAMP
                from ..stripe.columns import _decode_orc_nanos, _ORC_EPOCH_S

                span, base, state = stream_pos(g, _KIND_DATA)
                secs = self._seek_ints(span, base, state, n, signed=True)
                span, base, state = stream_pos(g, 5)
                frac = self._seek_ints(span, base, state, n, signed=False)
                nanos = _decode_orc_nanos(frac.astype(np.int64))
                unix_secs = secs + _ORC_EPOCH_S
                adj = ((unix_secs < 0) & (nanos > 999_999)).astype(np.int64)
                us = (unix_secs - adj) * 1_000_000 + nanos // 1_000
                arr = pa.array(us).cast(pa.timestamp("us"))
            elif kind == 15:            # DATE
                span, base, state = stream_pos(g, _KIND_DATA)
                days = self._seek_ints(span, base, state, n, signed=True)
                arr = pa.array(days.astype(np.int32)).cast(pa.date32())
            elif kind == 14:            # DECIMAL
                from ..codecs import varint

                span, base, _ = stream_pos(g, _KIND_DATA)
                buf, off = self._bytes_from_position(span, base)
                # varints are self-delimiting: decode from the seek point
                # and keep the group's first n values
                mant = varint.decode(buf[off:], signed=True)[:n]
                span, base, state = stream_pos(g, 5)
                scale = self._seek_ints(span, base, state, n, signed=True)
                prec = self.types[column].get(5, [38])[0]
                scl = self.types[column].get(6, [0])[0]
                arr = _decimals_from_parts(mant, scale, prec, scl)
            else:  # pragma: no cover - guarded by _GROUP_KINDS
                return None
            if present is not None:
                idx = np.maximum(np.cumsum(present) - 1, 0)
                arr = arr.take(pa.array(idx, mask=~present))
            parts.append(arr.combine_chunks()
                         if isinstance(arr, pa.ChunkedArray) else arr)
        if not parts:  # callers skip stripes whose keep-set is empty
            return None
        return pa.concat_arrays(parts)

    def bloom_filters(self, st: _Stripe,
                      column: int) -> list[tuple[int, bytes]] | None:
        """Parsed BLOOM_FILTER_UTF8 (kind 8) entries for one column of one
        stripe: one (numHashFunctions, bitset bytes) per row group, or
        None when the stripe carries no bloom for that column. Kind 7
        (pre-ORC-101 blooms, different string/double hashing) is ignored
        — never pruned on, only a missed optimization."""
        sf = self._stripe_footer(st)
        pos = st.offset
        for raw in sf.get(1, []):
            s = pb_parse(raw)
            kind = s.get(1, [0])[0]
            col = s.get(2, [0])[0]
            ln = s.get(3, [0])[0]
            if col == column and kind == 8:
                idx = pb_parse(_decompress(self._buf[pos:pos + ln],
                                           self.compression))
                out = []
                for b in idx.get(1, []):
                    bd = pb_parse(b)
                    out.append((int(bd.get(1, [1])[0]),
                                bd.get(3, [b""])[0]))
                return out or None
            pos += ln
        return None

    def _bloom_may_match(self, st: _Stripe, column: int, lit) -> bool:
        """False only when the column's blooms PROVE no row group of this
        stripe can contain ``lit`` (equality predicates). Advisory: any
        missing/unhashable piece returns True."""
        from ..codecs.orc_bloom import bloom_might_contain

        h = self._bloom_hash(column, lit)
        if h is None:
            return True
        blooms = self.bloom_filters(st, column)
        if blooms is None:
            return True
        return any(bool(bloom_might_contain(k, bits, h).all())
                   for k, bits in blooms)

    def _bloom_hash(self, column: int, lit) -> int | None:
        """The bloom hash of ``lit`` for ``column``, or None (cannot prune)
        when the literal's type is not the column's: 7 against a string
        column or 7.0 against an integer one hashes to a value the writer
        never put in the bloom, though the exact filter matches it."""
        from ..codecs.orc_bloom import hash_literal

        kind = self.types[column].get(1, [0])[0]
        want = ((str, bytes, bytearray) if kind in (7, 8, 16, 17)
                else (float, np.floating) if kind in (5, 6) else (int, np.integer))
        if not isinstance(lit, want):
            return None
        return hash_literal(lit, dialect={0: "java", 1: "cpp"}.get(self.writer_impl))

    def _stripe_encoding(self, st: _Stripe, column: int) -> int:
        enc = self._stripe_footer(st).get(2, [])
        return pb_parse(enc[column]).get(1, [0])[0] if column < len(enc) else 0

    def column_encoding(self, column: int) -> int:
        return self._stripe_encoding(self.stripes[0], column)

    def field_names(self) -> list[str]:
        return [v.decode("utf-8") for v in self.types[0].get(3, [])]

    def stripe_stats(self) -> list[dict[str, dict]]:
        """Per-stripe column statistics from the Metadata section (one
        {name: {n, min, max}} per stripe for top-level int/string columns);
        empty list when the writer emitted no Metadata. Tail-only — no
        stream bytes are touched."""
        off, ln = self._metadata_span
        if not ln:
            return []
        meta = pb_parse(_decompress(self._buf[off:off + ln],
                                    self.compression))
        names = self.field_names()
        top_ids = self.subtypes(0) or list(range(1, len(names) + 1))
        out = []
        for raw in meta.get(1, []):  # StripeStatistics
            cols = [pb_parse(c) for c in pb_parse(raw).get(1, [])]
            rec: dict[str, dict] = {}
            for name, cid in zip(names, top_ids):
                if cid >= len(cols):
                    continue
                rec[name] = _stats_rec(cols[int(cid)])
            out.append(rec)
        return out

    def read_table(self, columns: list[str] | None = None,
                   predicate: tuple | None = None,
                   stripe_indices: list[int] | None = None) -> "pa.Table":  # noqa: F821
        """Decode every supported column (LONG/INT/SHORT, STRING, DOUBLE,
        FLOAT, BOOLEAN, TIMESTAMP, DATE, DECIMAL, STRUCT, LIST, MAP — nulls
        via PRESENT) into one Arrow table, entirely through this repo's
        codecs. ``columns`` prunes at the decode: unrequested columns'
        streams are never decompressed. ``predicate`` = one (col, op, lit)
        triple or a list of them (a conjunction): stripes are pruned by
        the Metadata per-stripe statistics (+ bloom probes for equality
        terms) before any stream is read, then row groups by ROW_INDEX
        stats/blooms (rows are NOT exact-filtered here — callers like
        ``read_orc_files`` do that). Multi-stripe files decode
        stripe-by-stripe (nested types included) with one concat per
        column at the top. ``stripe_indices`` restricts the decode to a
        subset of stripes (the per-stripe Ray task unit)."""
        import pyarrow as pa

        from ..stripe.container import normalize_predicate

        preds = normalize_predicate(predicate)
        stripes = self.stripes if stripe_indices is None \
            else [self.stripes[i] for i in stripe_indices]
        if preds:
            per_stripe = self.stripe_stats()
            if len(per_stripe) == len(self.stripes):
                keep = {id(st) for st, ss in zip(self.stripes, per_stripe)
                        if all(_stats_may_match(ss, p) for p in preds)}
                stripes = [st for st in stripes if id(st) in keep]
            names = self.field_names()
            tids = self.subtypes(0) or list(range(1, len(names) + 1))
            by_name = dict(zip(names, tids))
            for p in preds:
                if p[1] not in ("==", "="):
                    continue
                # equality: additionally probe BLOOM_FILTER_UTF8 streams
                # (prunes stripes whose [min, max] matches but which
                # cannot contain the literal)
                cid = by_name.get(p[0])
                if cid is not None:
                    stripes = [st for st in stripes
                               if self._bloom_may_match(st, int(cid), p[2])]
        names = self.field_names()
        top_ids = self.subtypes(0) or list(range(1, len(names) + 1))
        want = [(int(ci), name) for ci, name in zip(top_ids, names)
                if columns is None or name in columns]

        # row-group plan: inside each surviving stripe, keep only groups
        # whose ROW_INDEX stats (and bloom, for equality) may match — the
        # ORC seek-skip a production reader does. Kicks in only when every
        # requested column can seek-decode (scalar, RLEv2-family).
        plan: dict[int, list[int]] = {}
        if preds and self.row_index_stride and stripes:
            from ..codecs.orc_bloom import bloom_might_contain

            by_name = dict(zip(names, top_ids))
            terms = [p for p in preds
                     if by_name.get(p[0]) is not None
                     and p[1] in ("==", "=", "<", "<=", ">", ">=")]
            stride = self.row_index_stride
            for st in stripes:
                K = -(-st.number_of_rows // stride)
                keep = list(range(K))
                for p in terms:
                    cid = int(by_name[p[0]])
                    ri = self._row_index(st, cid)
                    if not ri or len(ri) != K:
                        continue  # this term can't narrow — stay safe
                    keep = [g for g in keep if _stats_may_match(
                        {p[0]: ri[g][1]}, p)]
                    if p[1] in ("==", "=") and keep:
                        h = self._bloom_hash(cid, p[2])
                        blooms = self.bloom_filters(st, cid) \
                            if h is not None else None
                        if blooms and len(blooms) == K:
                            keep = [g for g in keep if bool(
                                bloom_might_contain(*blooms[g], h).all())]
                if len(keep) < K:
                    plan[id(st)] = keep

        per_col: dict[str, list] = {name: [] for _, name in want}
        for st in stripes:
            keep = plan.get(id(st))
            done = None
            if keep is not None:
                if not keep:
                    continue  # every row group pruned
                done = {}
                for ci, name in want:
                    arr = self._read_column_stripe_groups(st, ci, keep)
                    if arr is None:  # some column can't seek-decode
                        done = None
                        break
                    done[name] = arr
            if done is None:
                done = {name: self._read_column_stripe(st, ci)
                        for ci, name in want}
            for _, name in want:
                a = done[name]
                per_col[name].append(a.combine_chunks()
                                     if isinstance(a, pa.ChunkedArray)
                                     else a)
        cols = {}
        for ci, name in want:
            parts = per_col[name]
            if not parts:  # every stripe pruned: typed empty column
                cols[name] = pa.concat_arrays(
                    [self._read_column_stripe(self.stripes[0], ci)]
                ).slice(0, 0) if self.stripes else pa.array([])
            else:
                cols[name] = pa.concat_arrays(parts)
        return pa.table(cols)

    def _read_any_column(self, column: int, stripes=None):
        import pyarrow as pa

        parts = [self._read_column_stripe(st, column)
                 for st in (self.stripes if stripes is None else stripes)]
        parts = [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
                 for p in parts]
        if not parts:  # every stripe pruned: typed empty column
            return pa.concat_arrays(
                [self._read_column_stripe(self.stripes[0], column)]).slice(0, 0) \
                if self.stripes else pa.array([])
        return pa.concat_arrays(parts)

    def _read_column_stripe(self, st: _Stripe, column: int):
        """One column of ONE stripe → Arrow array (recursive for nested
        types, so multi-stripe STRUCT/LIST work stripe-locally: child
        streams are scoped to the same stripe as the parent's)."""
        import pyarrow as pa

        kind = self.types[column].get(1, [0])[0]
        # pre-Hive-0.12 files: DIRECT(0)/DICTIONARY(1) encodings carry
        # RLEv1 integer streams; v2 encodings carry RLEv2
        enc = self._stripe_encoding(st, column)
        ints = rlev1.decode if enc in (_ENC_DIRECT, _ENC_DICTIONARY) \
            else rlev2.decode
        streams = self._column_streams(st, column)
        present = None
        if _KIND_PRESENT in streams:
            present = bool_rle.decode(streams[_KIND_PRESENT],
                                      st.number_of_rows)
        if kind in (2, 3, 4):  # SHORT / INT / LONG — width-faithful
            vals = ints(streams[_KIND_DATA], signed=True)
            dt = {2: np.int16, 3: np.int32, 4: np.int64}[kind]
            arr = pa.array(vals.astype(dt))
        elif kind == 1:  # BYTE (tinyint): byte-RLE DATA
            from ..codecs import byte_rle

            n_vals = int(present.sum()) if present is not None \
                else st.number_of_rows
            vals = byte_rle.decode(streams[_KIND_DATA], n_vals)
            arr = pa.array(np.asarray(vals, dtype=np.uint8).view(np.int8))
        elif kind == 8:  # BINARY: packed blob + LENGTH
            lengths = ints(streams[_KIND_LENGTH], signed=False)
            arr = _strings_from_blob(streams[_KIND_DATA], lengths,
                                     binary=True)
        elif kind == 0:  # BOOLEAN
            n_vals = int(present.sum()) if present is not None \
                else st.number_of_rows
            arr = pa.array(bool_rle.decode(streams[_KIND_DATA], n_vals)
                           .astype(bool))
        elif kind == 6:  # DOUBLE
            arr = pa.array(np.frombuffer(streams[_KIND_DATA], dtype="<f8"))
        elif kind == 5:  # FLOAT
            arr = pa.array(np.frombuffer(streams[_KIND_DATA], dtype="<f4"))
        elif kind in (7, 16, 17):  # STRING / VARCHAR / CHAR — same streams
            lengths = ints(streams[_KIND_LENGTH], signed=False)
            if enc in (_ENC_DICTIONARY_V2, _ENC_DICTIONARY):
                entries = _strings_from_blob(
                    streams[_KIND_DICTIONARY_DATA], lengths)
                ids = ints(streams[_KIND_DATA], signed=False)
                arr = entries.take(pa.array(ids))
            else:
                arr = _strings_from_blob(streams[_KIND_DATA], lengths)
        elif kind == 9:  # TIMESTAMP (two-stream ORC layout)
            from ..stripe.columns import _decode_orc_nanos, _ORC_EPOCH_S

            secs = rlev2.decode(streams[_KIND_DATA], signed=True)
            frac = rlev2.decode(streams[5], signed=False)
            # arithmetic shift keeps the C++ writer's SIGNED nanos dialect
            # (pre-1970 fractions stored as negative scaled nanos)
            nanos = _decode_orc_nanos(frac.astype(np.int64))
            unix_secs = secs + _ORC_EPOCH_S
            # Java/Hive dialect: positive nanos with truncated-toward-zero
            # seconds — readers subtract one second when writerTime < 0
            adj = ((unix_secs < 0) & (nanos > 999_999)).astype(np.int64)
            us = (unix_secs - adj) * 1_000_000 + nanos // 1_000
            arr = pa.array(us).cast(pa.timestamp("us"))
        elif kind == 15:  # DATE
            days = rlev2.decode(streams[_KIND_DATA], signed=True)
            arr = pa.array(days.astype(np.int32)).cast(pa.date32())
        elif kind == 14:  # DECIMAL
            from ..codecs import varint

            mant = varint.decode(streams[_KIND_DATA], signed=True)
            scale = rlev2.decode(streams[5], signed=True)
            prec = self.types[column].get(5, [38])[0]
            scl = self.types[column].get(6, [0])[0]
            arr = _decimals_from_parts(mant, scale, prec, scl)
        elif kind == 12:  # STRUCT
            child_ids = self.subtypes(column)
            names = [v.decode("utf-8")
                     for v in self.types[column].get(3, [])]
            children = []
            for cid in child_ids:
                c = self._read_column_stripe(st, int(cid))
                children.append(c.combine_chunks()
                                if isinstance(c, pa.ChunkedArray) else c)
            if present is not None:
                idx = pa.array(np.maximum(np.cumsum(present) - 1, 0))
                children = [c.take(idx) for c in children]
                arr = pa.StructArray.from_arrays(
                    children, names, mask=pa.array(~present))
                present = None  # expansion handled here
            else:
                arr = pa.StructArray.from_arrays(children, names)
        elif kind == 10:  # LIST
            lengths = rlev2.decode(streams[_KIND_LENGTH], signed=False)
            subs = self.subtypes(column)
            child_id = subs[0] if subs else column + 1
            child = self._read_column_stripe(st, int(child_id))
            offs = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
            arr = pa.LargeListArray.from_arrays(
                pa.array(offs, type=pa.int64()),
                child.combine_chunks()
                if isinstance(child, pa.ChunkedArray) else child)
        elif kind == 11:  # MAP: LENGTH + key/value children
            lengths = rlev2.decode(streams[_KIND_LENGTH], signed=False)
            subs = self.subtypes(column)
            keys = self._read_column_stripe(st, int(subs[0]))
            items = self._read_column_stripe(st, int(subs[1]))
            offs = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
            arr = pa.MapArray.from_arrays(
                pa.array(offs, type=pa.int32()),
                keys.combine_chunks()
                if isinstance(keys, pa.ChunkedArray) else keys,
                items.combine_chunks()
                if isinstance(items, pa.ChunkedArray) else items)
        else:  # pragma: no cover
            raise NotImplementedError(f"ORC type kind {kind}")
        if present is not None:
            # expand dense values to row slots: take with NULL indices at
            # absent rows (works for every type, map included)
            idx = np.maximum(np.cumsum(present) - 1, 0)
            arr = arr.take(pa.array(idx, mask=~present))
        return arr

    def read_decimal_column(self, column: int) -> list:
        """Decode a decimal column (DIRECT_V2): DATA = zigzag varint
        mantissas (our ``codecs.varint``), SECONDARY = signed RLEv2 scales,
        PRESENT = boolean RLE. Returns ``decimal.Decimal`` values with None
        for nulls — drives three repo codecs against independent bytes."""
        from decimal import Decimal

        from ..codecs import varint

        out: list = []
        for st in self.stripes:
            streams = self._column_streams(st, column)
            mant = varint.decode(streams[_KIND_DATA], signed=True)
            scale = rlev2.decode(streams[5], signed=True)  # SECONDARY
            if len(scale) != len(mant):  # pragma: no cover
                raise ValueError("scale/mantissa count mismatch")
            vals = [Decimal(int(m)).scaleb(-int(s))
                    for m, s in zip(mant, scale)]
            if _KIND_PRESENT in streams:
                present = bool_rle.decode(streams[_KIND_PRESENT],
                                          st.number_of_rows)
                it = iter(vals)
                vals = [next(it) if p else None for p in present]
            out.extend(vals)
        return out

    def read_string_column(self, column: int) -> list:
        """Decode a string column across all stripes: DICTIONARY_V2
        (DATA = unsigned RLEv2 dictionary ids, DICTIONARY_DATA = packed
        UTF-8, LENGTH = unsigned RLEv2 entry lengths) or DIRECT_V2
        (DATA = packed UTF-8, LENGTH = unsigned RLEv2 row lengths) —
        both drive the repo's RLEv2 decoder on the unsigned path."""
        import pyarrow as pa

        out: list = []
        for st in self.stripes:
            enc = self._stripe_encoding(st, column)
            streams = self._column_streams(st, column)
            lengths = rlev2.decode(streams[_KIND_LENGTH], signed=False)
            if enc == _ENC_DICTIONARY_V2:
                entries = _strings_from_blob(
                    streams[_KIND_DICTIONARY_DATA], lengths)
                ids = rlev2.decode(streams[_KIND_DATA], signed=False)
                out.extend(entries.take(pa.array(ids)).to_pylist())
            elif enc == _ENC_DIRECT_V2:
                out.extend(_strings_from_blob(
                    streams[_KIND_DATA], lengths).to_pylist())
            else:  # pragma: no cover
                raise NotImplementedError(f"string encoding {enc}")
        return out

    def read_int_column(self, column: int) -> np.ndarray:
        """Decode an integer column (DIRECT_V2) across all stripes with the
        repo's RLEv2 decoder; PRESENT (if any) via the boolean-RLE decoder.
        Returns int64 values (nulls excluded — the conformance columns are
        fully present, and the null PATH is exercised by the present-mask
        assertion)."""
        parts = []
        for st in self.stripes:
            enc = self._stripe_encoding(st, column)
            if enc not in (_ENC_DIRECT_V2,):
                raise NotImplementedError(
                    f"column encoding {enc} (only DIRECT_V2 wired)")
            streams = self._column_streams(st, column)
            data = streams[_KIND_DATA]
            vals = rlev2.decode(data, signed=True)
            if _KIND_PRESENT in streams:
                present = bool_rle.decode(streams[_KIND_PRESENT],
                                          st.number_of_rows)
                if int(present.sum()) != len(vals):  # pragma: no cover
                    raise ValueError("PRESENT count != decoded value count")
            elif len(vals) != st.number_of_rows:  # pragma: no cover
                raise ValueError(
                    f"decoded {len(vals)} values, stripe has "
                    f"{st.number_of_rows} rows")
            parts.append(vals.astype(np.int64))
        return np.concatenate(parts) if parts else np.empty(0, np.int64)


def _unzz(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def _stats_rec(st: dict[int, list]) -> dict:
    """{n, min, max} from one parsed ColumnStatistics message (int stats
    are sint64 zigzag; string stats UTF-8)."""
    rec: dict = {"n": st.get(1, [None])[0]}
    if 2 in st:  # intStatistics
        ist = pb_parse(st[2][0])
        rec["min"] = _unzz(ist.get(1, [0])[0])
        rec["max"] = _unzz(ist.get(2, [0])[0])
    elif 4 in st:  # stringStatistics
        sst = pb_parse(st[4][0])
        rec["min"] = sst.get(1, [b""])[0].decode("utf-8")
        rec["max"] = sst.get(2, [b""])[0].decode("utf-8")
    return rec


def read_file_stats(path: str) -> dict[str, dict]:
    """Footer column statistics via a TAIL-ONLY read (two seeks, no stream
    bytes touched): name → {n, min, max} for top-level int/string columns.
    The file-level analog of the container's footer-stats pruning."""
    import os

    size = os.path.getsize(path)
    with open(path, "rb") as f:
        f.seek(max(0, size - 16384))
        tail = f.read()
        ps_len = tail[-1]
        ps = pb_parse(tail[-1 - ps_len:-1])
        footer_len = ps[1][0]
        need = 1 + ps_len + footer_len
        if need > len(tail):  # enormous footer: one more seek
            f.seek(size - need)
            tail = f.read()
        compression = ps.get(2, [0])[0]
    footer = pb_parse(_decompress(
        tail[-1 - ps_len - footer_len:-1 - ps_len], compression))
    types = [pb_parse(raw) for raw in footer.get(4, [])]
    names = [v.decode("utf-8") for v in types[0].get(3, [])]
    top_ids = pb_repeated_uint(types[0].get(2, [])) \
        or list(range(1, len(names) + 1))
    stats = [pb_parse(raw) for raw in footer.get(7, [])]
    out: dict[str, dict] = {}
    for name, cid in zip(names, top_ids):
        if cid >= len(stats):
            continue
        out[name] = _stats_rec(stats[int(cid)])
    return out


def _stats_may_match(stats: dict, predicate) -> bool:
    col, op, lit = predicate
    rec = stats.get(col)
    if rec is None or "min" not in rec:
        return True  # no stats → cannot prune
    lo, hi = rec["min"], rec["max"]
    try:
        if op == "==":
            return lo <= lit <= hi
        if op in ("<", "<="):
            return lo < lit if op == "<" else lo <= lit
        if op in (">", ">="):
            return hi > lit if op == ">" else hi >= lit
    except TypeError:
        pass  # a literal that does not compare with the stats cannot prune
    return True


def read_orc_files(paths, columns: list[str] | None = None,
                   predicate: tuple | None = None,
                   split_stripes: bool = False):
    """Ray Data source over real ``.orc`` files, column-pruned at the
    stream level — unrequested columns never decompress. ``paths``: a
    directory, a glob, or an explicit list. ``predicate`` = one
    (col, op, lit) triple or a list of them (a conjunction): whole files
    whose footer stats exclude any term are never opened beyond the tail
    (two seeks), surviving files prune STRIPES by Metadata stripe stats
    (+ blooms) and ROW GROUPS by ROW_INDEX, and surviving rows are
    filtered exactly on every term.

    Task granularity: one decode task per FILE by default;
    ``split_stripes=True`` makes it one task per STRIPE (a driver-side
    tail read per file lists the stripes), so import parallelism is bound
    by total stripes, not file count — the right unit when the input is a
    few huge multi-stripe files."""
    import glob as _glob
    import os

    import pyarrow as pa
    import ray.data as rd

    from ..stripe.container import normalize_predicate

    preds = normalize_predicate(predicate)
    if isinstance(paths, str):
        if os.path.isdir(paths):
            paths = sorted(_glob.glob(os.path.join(paths, "*.orc")))
        else:
            paths = sorted(_glob.glob(paths))
    if not paths:
        raise FileNotFoundError("no .orc files matched")
    if preds:
        kept = []
        for p in paths:
            fs = read_file_stats(p)
            if all(_stats_may_match(fs, t) for t in preds):
                kept.append(p)
        pruned = len(paths) - len(kept)
        if pruned:
            print(f"read_orc_files: footer stats pruned {pruned}/"
                  f"{len(paths)} files")
        paths = kept
        if not paths:
            raise FileNotFoundError(
                "every .orc file pruned by the predicate — no schema "
                "available for an empty result")

    items = [{"path": p, "stripe": -1} for p in paths]
    if split_stripes:
        items = []
        for p in paths:
            f = OrcFile(p)  # tail-only: stripe directory, no streams
            n_st = max(len(f.stripes), 1)
            f.close()
            items.extend({"path": p, "stripe": i} for i in range(n_st))

    # the exact row filter needs every predicate column even when the
    # caller's projection excludes them — read them, filter, then drop
    read_cols = columns
    drop_after = []
    if columns is not None and preds:
        extra = [t[0] for t in preds if t[0] not in columns]
        extra = list(dict.fromkeys(extra))
        if extra:
            read_cols = list(columns) + extra
            drop_after = extra

    def decode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tables = []
        for p, si in zip(batch.column("path").to_pylist(),
                         batch.column("stripe").to_pylist()):
            f = OrcFile(p)
            # surviving files also prune STRIPES by Metadata stripe stats
            tables.append(f.read_table(
                columns=read_cols, predicate=preds or None,
                stripe_indices=None if si < 0 else [si]))
            f.close()
        t = pa.concat_tables(tables)
        for col, op, lit in preds:  # exact row filter after the prunes
            kernel = {"==": pc.equal, "=": pc.equal, "<": pc.less,
                      "<=": pc.less_equal, ">": pc.greater,
                      ">=": pc.greater_equal}[op]
            c = t.column(col)
            try:
                mask = kernel(c, lit)
            except pa.ArrowNotImplementedError:
                # no kernel for the pair: compare in the column's type
                mask = kernel(c, pa.scalar(lit).cast(c.type))
            t = t.filter(mask)
        if drop_after:
            t = t.drop_columns(drop_after)
        return t

    return rd.from_items(items, override_num_blocks=len(items)) \
        .map_batches(decode, batch_format="pyarrow", batch_size=1)
