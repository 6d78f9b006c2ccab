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
- compressed chunks through ``stripe/framing.py``, the codec named once
  from the PostScript at open; a row-group seek inflates from its chunk to
  the stream end, each chunk once per stream for all selected groups;
- one tail parser (``OrcFile.__init__``; ``read_file_stats`` goes through
  it) that checks the ORC magic (in the PostScript, or in the file header
  for Hive 0.11 files, which wrote none there) and every length and stripe
  span against the file size, so a truncated file raises ``ValueError``
  naming the path instead of reading short;
- columns decode through the shared ``stripe/columns.decode_array``,
  driven by ``OrcFile.arrow_type``; ``_OrcSource`` holds ORC's dialects:
  RLEv1 or RLEv2 by column encoding, the Java/Hive timestamp second and
  128-bit decimal varints with a scale stream;
- predicate reads prune files, stripes and row groups through
  ``predicate.Bound.may_match`` and read the kept units through
  ``stripe/columns.read_units``, as ``.oray`` reads do: predicate columns
  first, the rest only for units with a match. A unit is a row group,
  sought by ROW_INDEX positions, when every column read is scalar with v2
  encodings, else a whole stripe (nested kinds, RLEv1 columns);
- the file is ``mmap``-ed, not slurped: only the tail plus the streams a
  read actually touches are ever paged in / copied;
- ``read_table(columns=...)`` prunes at the decode (unrequested streams
  never decompress); ``read_orc_files`` is the Ray Data source (one row
  per stripe through ``sources.stripes.map_paths``, as ``.oray`` reads).
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from ..codecs import rlev1, rlev2, varint
from ..codecs.bitpack import read_varint_unsigned, zigzag_decode_scalar
from ..predicate import bind, normalize_predicate
from ..stripe import framing
from ..stripe.columns import (_ABSENT, DATA, LENGTH, PRESENT, SECONDARY,
                              build_string_array, decode_array, read_units)

# --- minimal protobuf wire-format reader -----------------------------------


def pb_parse(buf: bytes) -> dict[int, list]:
    """Tag → list of raw values (int for varint/fixed, bytes for
    length-delimited). Enough of proto2 for ORC's PostScript / Footer /
    StripeFooter messages."""
    if isinstance(buf, int):
        raise ValueError("protobuf field holds a number, not a message")
    out: dict[int, list] = {}
    pos = 0
    end = len(buf)
    while pos < end:
        key, pos = read_varint_unsigned(buf, pos)
        tag, wire = key >> 3, key & 7
        if wire == 0:
            val, pos = read_varint_unsigned(buf, pos)
        elif wire == 2:
            ln, pos = read_varint_unsigned(buf, pos)
            val = buf[pos:pos + ln]
            pos += ln
        elif wire == 5:
            val = int.from_bytes(buf[pos:pos + 4], "little")
            pos += 4
        elif wire == 1:
            val = int.from_bytes(buf[pos:pos + 8], "little")
            pos += 8
        else:
            raise ValueError(f"unsupported protobuf wire type {wire}")
        out.setdefault(tag, []).append(val)
    if pos > end:
        raise ValueError("protobuf field runs past the end of its message")
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
                x, pos = read_varint_unsigned(v, pos)
                out.append(x)
        else:
            out.append(int(v))
    return out


# --- ORC structures (field numbers from the public ORC proto) ---------------

_KIND_PRESENT, _KIND_DATA, _KIND_LENGTH = 0, 1, 2
_KIND_DICTIONARY_DATA, _KIND_SECONDARY, _KIND_ROW_INDEX = 3, 5, 6
_KIND_BLOOM_FILTER_UTF8 = 8
_ENC_DIRECT, _ENC_DICTIONARY, _ENC_DIRECT_V2, _ENC_DICTIONARY_V2 = 0, 1, 2, 3
# PostScript compression kind → stripe/framing.py block codec
_CODECS = {0: "none", 1: "zlib", 5: "zstd_frame"}
_MASK64 = (1 << 64) - 1
log = logging.getLogger(__name__)


def _tail_field(msg: dict[int, list], tag: int, repeated: bool = False):
    """A scalar integer field of a tail message (0 when absent), or every
    value of a repeated message field; a wrong wire type is a bad tail."""
    vals = msg.get(tag, [] if repeated else [0])
    if any(isinstance(v, int) == repeated for v in vals):
        raise ValueError(f"protobuf field {tag} has the wrong wire type")
    return vals if repeated else vals[0]


@dataclass
class _Stripe:
    offset: int
    index_length: int
    data_length: int
    footer_length: int
    number_of_rows: int


class OrcFile:
    """Tail-parsed ORC file; reads columns through the repo codecs.

    The file is memory-mapped: ``__init__`` touches only the tail
    (PostScript + Footer), and each column read pages in just that
    column's streams — peak heap for a decode is bounded by one stripe's
    streams, not the file."""

    def __init__(self, path: str):
        import mmap

        self.path = path
        self._f = open(path, "rb")
        try:
            self._buf = mmap.mmap(self._f.fileno(), 0,
                                  access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty or special file
            self._buf = self._f.read()
        self._sf_cache: dict[int, dict[int, list]] = {}
        self._span_cache: dict[int, dict[tuple[int, int], tuple[int, int]]] = {}
        self._dict_cache: dict[tuple[int, int], "pa.Array"] = {}  # noqa: F821
        self._index_cache: dict[tuple[int, int, int], list | None] = {}
        try:
            self._parse_tail()
        except ValueError as e:
            self.close()
            raise ValueError(f"{path}: not a readable ORC file: {e}") from None

    def _parse_tail(self) -> None:
        """PostScript → Footer (and the Metadata span), each length and
        every stripe's span checked against the file size."""
        buf = self._buf
        size = len(buf)
        ps_len = buf[-1] if size else 0
        if not 0 < ps_len < size:
            raise ValueError(f"PostScript length {ps_len} in a {size} B file")
        ps = pb_parse(buf[-1 - ps_len:-1])
        # Hive 0.11 wrote no PostScript magic (field 8000): such files
        # are recognised by the 3-byte "ORC" header instead.
        magic = ps.get(8000, [None])[0]
        if magic != b"ORC" and (magic is not None or buf[:3] != b"ORC"):
            raise ValueError("no ORC magic in the PostScript or header")
        footer_len, meta_len = _tail_field(ps, 1), _tail_field(ps, 5)
        self.compression = _tail_field(ps, 2)
        self.codec = _CODECS.get(self.compression)
        if self.codec is None:
            raise ValueError(f"ORC compression kind {self.compression} is "
                             "not supported")
        data_end = size - 1 - ps_len - footer_len - meta_len
        if data_end < 3:  # the file opens with 3 magic bytes
            raise ValueError(f"footer ({footer_len} B) and metadata "
                             f"({meta_len} B) exceed the file")
        self._metadata_span = (data_end, meta_len)
        footer = pb_parse(framing.decompress(
            buf[data_end + meta_len:size - 1 - ps_len], self.codec))
        self.number_of_rows = _tail_field(footer, 6)
        self.stripes = [_Stripe(*(_tail_field(s, t) for t in range(1, 6)))
                        for s in map(pb_parse, _tail_field(footer, 3, True))]
        for st in self.stripes:
            end = st.offset + st.index_length + st.data_length \
                + st.footer_length
            if st.offset < 3 or end > data_end:
                raise ValueError(f"stripe at {st.offset} ends at {end}, "
                                 f"past the data end {data_end}")
        # types: field 1 = kind enum, field 2 = subtypes (packed or not)
        self.types = list(map(pb_parse, _tail_field(footer, 4, True)))
        if not self.types:
            raise ValueError("footer lists no types")
        self._file_stats = _tail_field(footer, 7, True)
        # writer implementation (Footer field 9): 0 = ORC_JAVA, 1 =
        # ORC_CPP, absent = unknown. Java and C++ hash DOUBLE bloom
        # entries differently, so double bloom probes dispatch on this.
        w = footer.get(9, [None])[0]
        self.writer_impl = int(w) if w is not None else None
        self.row_index_stride = _tail_field(footer, 8)

    def close(self) -> None:
        buf, self._buf = self._buf, b""
        if hasattr(buf, "close"):
            buf.close()
        self._f.close()
        self._dict_cache.clear()
        self._index_cache.clear()

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def subtypes(self, column: int) -> list[int]:
        subs = pb_repeated_uint(self.types[column].get(2, []))
        if not all(column < c < len(self.types) for c in subs):  # pre-order
            raise ValueError(f"{self.path}: column {column} has children {subs}")
        return subs

    def field_names(self) -> list[str]:
        return [v.decode("utf-8") for v in self.types[0].get(3, [])]

    def _top_columns(self) -> list[tuple[str, int]]:
        """(name, column id) of each top-level field."""
        names = self.field_names()
        ids = self.subtypes(0) or range(1, len(names) + 1)
        return [(name, int(ci)) for name, ci in zip(names, ids)]

    def _stripe_footer(self, st: _Stripe) -> dict[int, list]:
        sf = self._sf_cache.get(st.offset)
        if sf is None:
            start = st.offset + st.index_length + st.data_length
            raw = self._buf[start:start + st.footer_length]
            sf = self._sf_cache[st.offset] = pb_parse(
                framing.decompress(raw, self.codec))
        return sf

    def _streams(self, st: _Stripe) -> dict[tuple[int, int], tuple[int, int]]:
        """(column, stream kind) → (absolute offset, length) for one
        stripe. Payloads are laid out in StripeFooter.streams order:
        ROW_INDEX and bloom kinds in the index region, the rest in the
        data region."""
        spans = self._span_cache.get(st.offset)
        if spans is None:
            spans = {}
            pos = st.offset
            for raw in self._stripe_footer(st).get(1, []):
                s = pb_parse(raw)
                ln = s.get(3, [0])[0]
                spans[(s.get(2, [0])[0], s.get(1, [0])[0])] = (pos, ln)
                pos += ln
            if pos > st.offset + st.index_length + st.data_length:
                raise ValueError(f"{self.path}: streams of the stripe at "
                                 f"{st.offset} overrun its index and data")
            self._span_cache[st.offset] = spans
        return spans

    def _stream(self, st: _Stripe, column: int, kind: int) -> bytes | None:
        """One stream's whole decompressed bytes, or None when absent."""
        span = self._streams(st).get((column, kind))
        if span is None:
            return None
        off, ln = span
        return framing.decompress(self._buf[off:off + ln], self.codec)

    def _stripe_encoding(self, st: _Stripe, column: int) -> int:
        enc = self._stripe_footer(st).get(2, [])
        return pb_parse(enc[column]).get(1, [0])[0] if column < len(enc) else 0

    def column_encoding(self, column: int) -> int:
        return self._stripe_encoding(self.stripes[0], column)

    def _index(self, st: _Stripe, column: int, kind: int, entry):
        """``entry`` of each message in one index-region stream of one
        stripe, or None when the stream is absent or empty. Parsed once per
        open file: stripe pruning, the row-group plan and the seek share it."""
        key = (st.offset, column, kind)
        if key not in self._index_cache:
            raw = self._stream(st, column, kind)
            self._index_cache[key] = None if raw is None else [
                entry(pb_parse(e)) for e in pb_parse(raw).get(1, [])] or None
        return self._index_cache[key]

    def _row_index(self, st: _Stripe,
                   column: int) -> list[tuple[list[int], dict]] | None:
        """Parsed ROW_INDEX for one column of one stripe: one
        (positions, stats-rec) per row group, or None when absent."""
        def entry(e):
            stat_raw = e.get(2, [None])[0]
            return (pb_repeated_uint(e.get(1, [])),
                    _stats_rec(pb_parse(stat_raw)) if stat_raw else {})
        return self._index(st, column, _KIND_ROW_INDEX, entry)

    def bloom_filters(self, st: _Stripe,
                      column: int) -> list[tuple[int, bytes]] | None:
        """Parsed BLOOM_FILTER_UTF8 (kind 8) entries for one column of one
        stripe: one (numHashFunctions, bitset bytes) per row group, or
        None when the stripe carries no bloom for that column. Kind 7
        (pre-ORC-101 blooms, different string/double hashing) is ignored
        — never pruned on, only a missed optimization."""
        return self._index(st, column, _KIND_BLOOM_FILTER_UTF8, lambda bd: (
            int(bd.get(1, [1])[0]), bd.get(3, [b""])[0]))

    def _may_contain(self, st: _Stripe, column: int, h: int | None,
                     g: int | None = None) -> bool:
        """False only when the column's blooms PROVE that row group ``g``
        (with ``g`` None, every row group) of this stripe lacks the value
        of bloom hash ``h``; True without a hash or blooms."""
        from ..codecs.orc_bloom import bloom_might_contain

        blooms = None if h is None else self.bloom_filters(st, column)
        if not blooms:
            return True
        if g is None:
            return any(bool(bloom_might_contain(k, bits, h).all())
                       for k, bits in blooms)
        return len(blooms) != self._groups(st) \
            or bool(bloom_might_contain(*blooms[g], h).all())

    def arrow_type(self, column: int) -> "pa.DataType":  # noqa: F821
        """The Arrow type a read gives this column: ``decode_array`` decodes
        by it."""
        import pyarrow as pa

        kind = self.types[column].get(1, [0])[0]
        if kind in (10, 11):
            subs = [self.arrow_type(c)
                    for c in self.subtypes(column) or [column + 1]]
            if len(subs) != kind - 9:  # LIST: 1, MAP: 2
                raise ValueError(f"{self.path}: column {column} has {subs}")
            return pa.large_list(subs[0]) if kind == 10 else pa.map_(*subs)
        if kind == 12:
            names = [v.decode("utf-8") for v in self.types[column].get(3, [])]
            return pa.struct([(n, self.arrow_type(c)) for n, c
                              in zip(names, self.subtypes(column))])
        if kind == 14:
            return pa.decimal128(self.types[column].get(5, [38])[0],
                                 self.types[column].get(6, [0])[0])
        t = {0: pa.bool_(), 1: pa.int8(), 2: pa.int16(), 3: pa.int32(),
             4: pa.int64(), 5: pa.float32(), 6: pa.float64(),
             7: pa.string(), 8: pa.binary(), 9: pa.timestamp("us"),
             15: pa.date32(), 16: pa.string(), 17: pa.string()}.get(kind)
        if t is None:
            raise ValueError(f"{self.path}: ORC type kind {kind} is unsupported")
        return t

    @property
    def schema(self) -> "pa.Schema":  # noqa: F821
        """Arrow schema of the top-level columns (what predicates bind to)."""
        import pyarrow as pa

        return pa.schema([(name, self.arrow_type(ci))
                          for name, ci in self._top_columns()])

    def file_stats(self) -> dict[str, dict]:
        """Footer column statistics: name → {n, min, max} for top-level
        int/double/string/date columns (tail-only)."""
        stats = self._file_stats
        return {name: _stats_rec(pb_parse(stats[cid]))
                for name, cid in self._top_columns() if cid < len(stats)}

    def stripe_stats(self) -> list[dict[str, dict]]:
        """Per-stripe column statistics from the Metadata section (one
        {name: {n, min, max}} per stripe for top-level int/double/string/
        date columns); empty list when the writer emitted no Metadata.
        Tail-only — no stream bytes are touched."""
        off, ln = self._metadata_span
        if not ln:
            return []
        meta = pb_parse(framing.decompress(self._buf[off:off + ln],
                                           self.codec))
        top = self._top_columns()
        out = []
        for raw in meta.get(1, []):  # StripeStatistics
            cols = pb_parse(raw).get(1, [])
            out.append({name: _stats_rec(pb_parse(cols[cid]))
                        for name, cid in top if cid < len(cols)})
        return out

    # --- column decode ---------------------------------------------------

    def _read_stripe(self, st: _Stripe, column: int):
        return decode_array(self.arrow_type(column), st.number_of_rows,
                            _OrcSource(self, st, column))

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
        base = 1 if self.codec == "none" else 2
        dictionary = enc in (_ENC_DICTIONARY_V2, _ENC_DICTIONARY)
        if stream_kind == _KIND_PRESENT:
            return base + 2                      # byte-RLE run + bit
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
        if stream_kind == _KIND_SECONDARY:
            return base + 1                      # ts nanos / decimal scale
        return None

    def _groups(self, st: _Stripe) -> int:
        """The stripe's row-group count (0 without a row index stride)."""
        stride = self.row_index_stride
        return -(-st.number_of_rows // stride) if stride else 0

    def _seek(self, st: _Stripe, column: int):
        """``seek(g)`` → row group g's ``_OrcSource`` for one scalar column
        of one stripe, through ROW_INDEX positions (works on foreign files
        too: seeks land on run headers, the skip count crosses into mid-run
        group starts); the groups share one chunk cache per stream. None
        when this column cannot seek: nested type, RLEv1 int encoding, or a
        missing or unexpected index layout."""
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
        if not ri or len(ri) != self._groups(st):
            return None
        spans = self._streams(st)
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
            order.append(_KIND_SECONDARY)
        layout = {}       # stream kind → (span, slice into positions)
        at = 0
        for k in order:
            if (column, k) not in spans:
                continue
            a = self._position_arity(k, kind, enc)
            if a:
                layout[k] = (spans[(column, k)], slice(at, at + a))
                at += a
        if any(len(p) != at for p, _ in ri):
            return None   # layout mismatch — never guess on foreign files
        base_n = 1 if self.codec == "none" else 2
        caches = {k: {} for k in layout}  # chunk index → inflated bytes
        bufs = {}  # a stream's bytes, copied out of the map on first use

        def seek(g):
            def at(k):
                if k not in layout:
                    return None
                (off, ln), sl = layout[k]
                if k not in bufs:
                    bufs[k] = self._buf[off:off + ln]
                p = ri[g][0][sl]
                state = p[base_n:]
                if self.codec == "none":
                    return bufs[k], p[0], state
                # inflate from the position's chunk to the stream end:
                # chunks BEFORE the seek point are never touched
                return (framing.decompress(bufs[k], self.codec, p[0],
                                           caches[k]), p[1], state)
            return _OrcSource(self, st, column, enc, at)
        return seek

    def _units(self, bound, stripes: list[_Stripe],
               need: set[int]) -> list[tuple[_Stripe, int | None]]:
        """The read's units, (stripe, row group), or (stripe, None) for a
        whole stripe, each kept by ``bound.may_match``: a stripe by its
        Metadata stats and any row group's bloom, then its row groups by
        their ROW_INDEX stats and bloom. Row groups are the units only
        where the plan drops one and every ``need``-ed column can seek."""
        if bound is None:
            return [(st, None) for st in stripes]
        if bound.empty:
            return []  # a term's column is not in this file
        from ..codecs.orc_bloom import hash_literal

        cid = dict(self._top_columns())
        # each equality term's bloom hash (numeric hashes need the writer)
        dialect = {0: "java", 1: "cpp"}.get(self.writer_impl)
        h = {t: None if t.probe is None
             else hash_literal(t.probe.as_py(), dialect=dialect)
             for t in bound.terms}
        meta = self.stripe_stats()
        meta = (dict(zip(map(id, self.stripes), meta))
                if len(meta) == len(self.stripes) else {})
        units = []
        for st in stripes:
            n = self._groups(st)

            def stats_of(g):  # a term column's ROW_INDEX stats of group g
                def stats(c):
                    ri = self._row_index(st, cid[c])
                    return ri[g][1] if ri and len(ri) == n else None
                return stats

            def may_contain(g):
                return lambda t: self._may_contain(st, cid[t.col], h[t], g)
            if not bound.may_match(meta.get(id(st), {}).get,
                                   may_contain(None)):
                continue
            keep = [g for g in range(n)
                    if bound.may_match(stats_of(g), may_contain(g))]
            if n and not keep:
                continue  # every row group pruned
            if len(keep) < n and all(self._seek(st, c) for c in need):
                units += [(st, g) for g in keep]
            else:
                units.append((st, None))
        return units

    def read_table(self, columns: list[str] | None = None,
                   predicate: tuple | None = None,
                   stripe_indices: list[int] | None = None) -> "pa.Table":  # noqa: F821
        """Decode every supported column (LONG/INT/SHORT, STRING, DOUBLE,
        FLOAT, BOOLEAN, TIMESTAMP, DATE, DECIMAL, STRUCT, LIST, MAP — nulls
        via PRESENT) into one Arrow table, entirely through this repo's
        codecs. ``columns`` prunes at the decode: unrequested columns'
        streams are never decompressed. ``stripe_indices`` restricts the
        decode to a subset of stripes (the per-stripe Ray task unit).

        ``predicate`` = one (col, op, lit) triple or a list of them (a
        conjunction): stripes are pruned by the Metadata per-stripe
        statistics (+ bloom probes for equality terms) before any stream is
        read, then row groups by ROW_INDEX stats/blooms, all through
        ``predicate.py``; the kept units read through
        ``columns.read_units``, predicate columns first. The result holds
        every row of each kept row group that holds a match (a whole stripe
        where a column cannot seek): ``predicate.bind(...).filter`` keeps
        the matching ones (``read_orc_files`` does)."""
        import pyarrow as pa

        preds = normalize_predicate(predicate)
        bound = bind(preds, self.schema) if preds else None
        cid = dict(self._top_columns())
        schema = pa.schema([(name, self.arrow_type(ci)) for name, ci
                            in cid.items() if columns is None or name in columns])
        need = {cid[n] for n in schema.names} \
            | {cid[t.col] for t in (bound.terms if bound is not None else ())}
        units = self._units(bound, self.stripes if stripe_indices is None
                            else [self.stripes[i] for i in stripe_indices], need)
        stride = self.row_index_stride
        rows = [st.number_of_rows if g is None
                else min(stride, st.number_of_rows - g * stride)
                for st, g in units]

        def column(field_):
            c, seekers = cid[field_.name], {}  # stripe → this pass's seek

            def decode(i):
                st, g = units[i]
                if g is None:
                    return self._read_stripe(st, c)
                if id(st) not in seekers:
                    seekers[id(st)] = self._seek(st, c)
                return decode_array(field_.type, rows[i], seekers[id(st)](g))
            return decode, lambda i, t: None  # decode, then mask
        return read_units(schema, bound, rows, column)[0]


_KINDS = {PRESENT: _KIND_PRESENT, DATA: _KIND_DATA, LENGTH: _KIND_LENGTH,
          SECONDARY: _KIND_SECONDARY}


class _OrcSource:
    """``decode_array``'s source over one ORC column of one stripe: whole
    decompressed streams, or with ``seek`` a row group's streams from its
    ROW_INDEX positions (``OrcFile._seek``). Integer streams are
    RLEv1 or RLEv2 by the column encoding; strings may index the stripe's
    DICTIONARY_DATA; decimals are 128-bit varints plus a scale stream."""

    java_seconds = True

    def __init__(self, f: OrcFile, st: _Stripe, column: int,
                 enc: int | None = None, seek=None):
        self.f, self.st, self.column, self.seek = f, st, column, seek
        self.name = f"{f.path}: column {column}"
        if enc is None:
            enc = f._stripe_encoding(st, column)
        self.dict_enc = enc in (_ENC_DICTIONARY, _ENC_DICTIONARY_V2)
        # pre-Hive-0.12 files: DIRECT(0)/DICTIONARY(1) encodings carry
        # RLEv1 integer streams; v2 encodings carry RLEv2
        self.rle = rlev1 if enc in (_ENC_DIRECT, _ENC_DICTIONARY) else rlev2

    def at(self, kind: str):
        if self.seek is not None:
            return self.seek(_KINDS[kind])
        buf = self.f._stream(self.st, self.column, _KINDS[kind])
        return None if buf is None else (buf, 0, (0, 0))

    def child(self, i: int, path: str) -> _OrcSource:
        """Children, addressed by column id, decode whole-stripe."""
        return _OrcSource(self.f, self.st,
                          (self.f.subtypes(self.column) or [self.column + 1])[i])

    def ints(self, kind: str, n: int, signed: bool) -> np.ndarray:
        """A whole stream decodes strictly to its end; a seek decodes past
        the run skip."""
        buf, off, (skip, *_) = self.at(kind) or _ABSENT
        if self.seek is None:
            return self.rle.decode(buf, signed)
        vals, _ = rlev2.decode_from(buf, off, signed, expected_count=skip + n,
                                    allow_overshoot=True)
        return vals[skip:skip + n]

    def dictionary(self, t: "pa.DataType") -> "pa.Array | None":  # noqa: F821
        if not self.dict_enc:
            return None
        # stripe-wide: read whole even when seeking, and cached only then,
        # for the stripe's other row groups
        f, st, key = self.f, self.st, (self.st.offset, self.column)
        cache = f._dict_cache if self.seek is not None else {}
        if key not in cache:
            lengths = self.rle.decode(f._stream(st, key[1], _KIND_LENGTH) or b"",
                                      False)
            cache[key] = build_string_array(t, lengths, f._stream(
                st, key[1], _KIND_DICTIONARY_DATA) or b"")
        return cache[key]

    def decimal_lanes(self, n: int, t: "pa.DataType"):  # noqa: F821
        buf, off, _ = self.at(DATA) or _ABSENT
        data = np.frombuffer(buf, dtype=np.uint8)[off:]
        if self.seek is not None:  # varints self-delimit: cut the group's n
            ends = np.flatnonzero(data[:19 * n] < 0x80)
            cut = ends[n - 1] + 1 if n and len(ends) >= n else 19 * n
            data = data[:cut]
        lo, hi = varint.decode128(data, n)
        scale = self.ints(SECONDARY, n, True)
        if len(scale) != n:
            raise ValueError(f"{self.name} stream {SECONDARY}: {len(scale)} "
                             f"scales, expected {n}")
        for i in np.flatnonzero(scale != t.scale):  # per value, rarely
            adj = t.scale - int(scale[i])
            v, rem = divmod((int(hi[i]) << 64 | int(lo[i]) & _MASK64)
                            * 10 ** min(max(adj, 0), 38),
                            10 ** min(max(-adj, 0), 38))
            if rem or abs(adj) > 38 or not -(1 << 127) <= v < 1 << 127:
                raise ValueError(f"{self.name} stream {SECONDARY}: a value at "
                                 f"scale {scale[i]} does not fit {t}")
            lo[i], hi[i] = (v & _MASK64) - ((v & 1 << 63) << 1), v >> 64
        return lo, hi


_EPOCH_DATE = date(1970, 1, 1)


def _stats_rec(st: dict[int, list]) -> dict:
    """{n, min, max} from one parsed ColumnStatistics message, in the forms
    ``.oray`` footers use: int stats are sint64 zigzag, double stats IEEE
    bits (a NaN bound is no bound), string stats UTF-8, and date stats
    sint32 days, which become ISO dates."""
    rec: dict = {"n": st.get(1, [None])[0]}
    if 2 in st:  # intStatistics
        ist = pb_parse(st[2][0])
        rec["min"] = zigzag_decode_scalar(ist.get(1, [0])[0])
        rec["max"] = zigzag_decode_scalar(ist.get(2, [0])[0])
    elif 3 in st:  # doubleStatistics
        dst = pb_parse(st[3][0])
        if 1 in dst and 2 in dst:
            lo, hi = struct.unpack("<2d", struct.pack("<2Q", dst[1][0], dst[2][0]))
            if lo == lo and hi == hi:
                rec["min"], rec["max"] = lo, hi
    elif 4 in st:  # stringStatistics
        sst = pb_parse(st[4][0])
        rec["min"] = sst.get(1, [b""])[0].decode("utf-8")
        rec["max"] = sst.get(2, [b""])[0].decode("utf-8")
    elif 7 in st:  # dateStatistics
        dst = pb_parse(st[7][0])
        if 1 in dst and 2 in dst:
            try:
                rec["min"], rec["max"] = (
                    str(_EPOCH_DATE + timedelta(days=zigzag_decode_scalar(dst[k][0])))
                    for k in (1, 2))
            except OverflowError:  # outside datetime's years: no bound
                pass
    return rec


def read_file_stats(path: str) -> dict[str, dict]:
    """Footer column statistics through ``OrcFile``'s tail parse (no
    stream bytes touched): name → {n, min, max} for top-level
    int/double/string/date columns. The file-level analog of the
    container's footer-stats pruning."""
    f = OrcFile(path)
    try:
        return f.file_stats()
    finally:
        f.close()


def read_orc_files(paths, columns: list[str] | None = None,
                   predicate: tuple | None = None):
    """Ray Data source over real ``.orc`` files, column-pruned at the
    stream level — unrequested columns never decompress. ``paths``: a
    directory, a glob, or an explicit list. ``predicate`` = one
    (col, op, lit) triple or a list of them (a conjunction; ops and
    literal casts per ``predicate.py``, checked against each file's schema
    here, before any task runs): whole files whose footer stats exclude
    any term, or that lack a term's column, are never read beyond the tail
    (``OrcFile``'s checked tail parse on an mmap of the file; no stream
    is touched), surviving files prune STRIPES by Metadata stripe stats
    (+ blooms) and ROW GROUPS by ROW_INDEX, ``read_table`` drops the kept
    units with no match, and surviving rows are filtered exactly on every
    term. When nothing is left to read, the result is an empty dataset of
    the first file's schema, projected to ``columns``.

    The task unit is the STRIPE, as for ``.oray`` reads: one tail read per
    file (``map_footers``) prunes it and lists its stripes, and
    ``map_paths`` reads the ``{"path", "stripe"}`` rows in as many tasks as
    a read of the kept files' bytes gets. A file with no stripes (pyarrow
    writes an empty table so) contributes no rows."""
    import glob as _glob
    import itertools
    import os

    import pyarrow as pa
    import ray.data as rd

    from .stripes import map_footers, map_paths, project_schema

    preds = normalize_predicate(predicate)
    if isinstance(paths, str):
        if os.path.isdir(paths):
            paths = sorted(_glob.glob(os.path.join(paths, "*.orc")))
        else:
            paths = sorted(_glob.glob(paths))
    if not paths:
        raise FileNotFoundError("no .orc files matched")

    def stripes_to_read(p: str) -> int:
        f = OrcFile(p)  # tail only: schema, footer stats, stripe directory
        try:
            if preds and not bind(preds, f.schema).may_match(f.file_stats().get):
                return 0
            return len(f.stripes)
        finally:
            f.close()

    counts = map_footers(paths, stripes_to_read)
    if preds and 0 in counts:
        log.info("read_orc_files: %d/%d files have no stripe to read "
                 "(predicate %s)", counts.count(0), len(paths), preds)
    items = [{"path": p, "stripe": i}
             for p, n in zip(paths, counts) for i in range(n)]
    if not items:
        f = OrcFile(paths[0])
        schema = f.schema
        f.close()
        return rd.from_arrow(project_schema(schema, columns).empty_table())

    # the exact row filter needs every predicate column even when the
    # caller's projection excludes them — read them, filter, then drop
    read_cols = columns if columns is None else list(dict.fromkeys(
        [*columns, *(col for col, _, _ in preds)]))
    drop_after = [] if columns is None else [c for c in read_cols
                                             if c not in columns]

    def decode(batch: pa.Table) -> pa.Table:
        tables = []
        rows = zip(batch.column("path").to_pylist(),
                   batch.column("stripe").to_pylist())
        for p, stripes in itertools.groupby(rows, key=lambda r: r[0]):
            f = OrcFile(p)
            # surviving files also prune STRIPES and ROW GROUPS
            t = f.read_table(columns=read_cols, predicate=preds or None,
                             stripe_indices=[si for _, si in stripes])
            if preds:  # exact row filter after the prunes
                t = bind(preds, f.schema).filter(t)
            tables.append(t)
            f.close()
        return pa.concat_tables(tables).drop_columns(drop_after)

    return map_paths(items, decode, sum(
        os.path.getsize(p) for p, n in zip(paths, counts) if n))
