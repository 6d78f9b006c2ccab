"""Stripe file container: magic + compressed stream segments + footer tail.

Analog of the reference's stripe layout + FileTail
(``/root/reference/src/ApacheOrcDotNet/OrcWriter.cs:57-104``, ``FileTail.cs:22-54``):
each stripe is fully self-describing — a footer holds the stream directory
(column path, kind, codec, offset, length, value count), the Arrow schema,
row count, per-column statistics and an optional lineage record (input
fragment + row range) used for checkpoint/resume. Unlike the reference we use
a JSON footer (we need decoded-value parity and size parity, not ORC binary
compatibility — see SURVEY.md §2.6 C4).

Layout::

    b"ORAY1" | stream segments (each zlib-block-framed) | footer(zlib json)
    | uint32 LE footer length | b"ORAY"
"""

from __future__ import annotations

import base64
import bisect
import json
import struct
import zlib
from itertools import accumulate

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.orc_bloom import (bloom_build, bloom_might_contain,
                                hash_arrow_values)
from ..predicate import bind, normalize_predicate
from .columns import (Stream, column_predicate_mask, decode_column,
                      encode_column, read_units)
from .config import EncodeConfig
from .framing import (BLOCK_SIZE, block_offsets, compress, decompress,
                      decompress_range)
from .stats import merge_stats

MAGIC = b"ORAY1"
TAIL_MAGIC = b"ORAY"
# bump when any codec's internal layout changes incompatibly: readers accept
# only this version and ask for older stripes to be re-encoded (scratch
# caches key on it)
FORMAT_VERSION = 5
# footer "bloom_hash" of the column blooms: ORC BLOOM_FILTER_UTF8 hashes
# (codecs/orc_bloom.py, liborc's Wang dialect). A bloom under any other
# scheme is ignored by readers — blooms are advisory, never a false negative
BLOOM_HASH = "orc-utf8-cpp"
# a tight false-positive rate, with entries capped where the bitset reaches
# 65,536 bits (bloom_params(4558, 0.001) is the last 65,536-bit size)
BLOOM_FPP = 0.001
BLOOM_MAX_ENTRIES = 4558


def encode_stripe(
    table: pa.Table, config: EncodeConfig | None = None, lineage: dict | None = None,
) -> tuple[bytes, dict]:
    """Encode one Arrow table (= one stripe) to container bytes + footer dict."""
    config = config or EncodeConfig()
    if table.schema.metadata is not None or any(f.metadata for f in table.schema):
        # schemas with metadata are unhashable (breaks Ray's block-schema
        # dedup downstream of decode) and bloat every footer — normalize
        table = table.cast(pa.schema([f.remove_metadata() for f in table.schema]))
    if config.sort_within_stripe and config.sort_within_stripe in table.column_names:
        table = table.sort_by(config.sort_within_stripe)
    out = bytearray(MAGIC)
    stream_dir = []
    columns_meta = []

    def emit(streams: list[Stream]) -> None:
        for s in streams:
            payload = compress(s.data, level=config.compression_level, codec=config.compression)
            entry = {
                "col": s.col,
                "kind": s.kind,
                "codec": s.codec,
                "params": s.params,
                "offset": len(out),
                "length": len(payload),
                "raw_length": len(s.data),
                "n": s.n,
                # integrity: at 100 TB, silent bit-rot in transit/storage is
                # a when, not an if — decode verifies before decompressing
                "crc32": zlib.crc32(payload),
            }
            stream_dir.append(entry)
            out.extend(payload)

    stride = config.row_index_stride
    if stride:
        # ROW_INDEX mode (v5): every column still ENCODES in stride-row
        # units (codec selection per stride, so a locally-constant stride
        # can still pick SHORT_REPEAT etc.), but all strides of one
        # (column, kind) share ONE physical stream: raw segments are
        # concatenated and block-framed together (one compression context),
        # with per-stride positions (raw offset/length/count/crc) in the
        # stream entry — the reference's shared-stream ROW_INDEX
        # (Compression/OrcCompressedBuffer.cs:66-72). A predicate read
        # seeks via positions and decompresses only covering blocks.
        n = table.num_rows
        bounds = list(range(0, n, stride)) + [n]
        stride_rows = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
        n_strides = len(stride_rows)
        for name in table.column_names:
            col = table.column(name)
            row_index = []
            enc_name = None
            by_kind: dict[tuple, list] = {}  # (subcol, kind) → [(si, Stream)]
            for si in range(n_strides):
                sl = col.slice(bounds[si], stride_rows[si])
                enc_name, streams, st = encode_column(name, sl, config)
                row_index.append(st)
                for s in streams:
                    by_kind.setdefault((s.col, s.kind), []).append((si, s))
            for (scol, kind), items in by_kind.items():
                segs = {si: s for si, s in items}
                raw_parts, pos_len, pos_n, pos_crc = [], [], [], []
                codecs, params_list = [], []
                for si in range(n_strides):
                    s = segs.get(si)
                    d = s.data if s is not None else b""
                    raw_parts.append(d)
                    pos_len.append(len(d))
                    pos_n.append(s.n if s is not None else 0)
                    pos_crc.append(zlib.crc32(d))
                    codecs.append(s.codec if s is not None else None)
                    params_list.append(s.params if s is not None else {})
                raw = b"".join(raw_parts)
                # block size ≈ avg stride segment (pow2, clamped): deflate's
                # 32 KiB window means blocks beyond that gain no context, so
                # the shared stream's win is block FILL — and stride-sized
                # blocks keep partial reads proportional (a stride touches
                # ~1-2 blocks, never the whole stream)
                nonzero = [ln for ln in pos_len if ln]
                avg = (sum(nonzero) // len(nonzero)) if nonzero else 1
                bs = min(BLOCK_SIZE, max(4096, 1 << (max(avg, 1) - 1).bit_length()))
                payload = compress(raw, bs, config.compression_level,
                                   config.compression)
                base_codec = next(c for c in codecs if c is not None)
                base_params = next(s.params for _, s in items)
                entry = {
                    "col": scol, "kind": kind,
                    "codec": base_codec, "params": base_params,
                    "offset": len(out), "length": len(payload),
                    "raw_length": len(raw), "n": sum(pos_n),
                    "crc32": zlib.crc32(payload),
                    "bs": bs,
                    # raw offsets are the cumsum of pos_len — not stored
                    "pos_len": pos_len, "pos_n": pos_n, "pos_crc": pos_crc,
                }
                # per-stride codec/params only when heterogeneous (rare —
                # e.g. a string column flipping dict↔direct across strides)
                if any(c not in (None, base_codec) for c in codecs):
                    entry["pos_codec"] = codecs
                if any(p not in ({}, base_params) for p in params_list):
                    entry["pos_params"] = params_list
                stream_dir.append(entry)
                out.extend(payload)
            stats = None
            for st in row_index:
                stats = merge_stats(stats, st)
            columns_meta.append({"name": name, "encoding": enc_name,
                                 "stats": stats or {}, "row_index": row_index})
    else:
        stride_rows = None
        for name in table.column_names:
            col = table.column(name)
            enc_name, streams, stats = encode_column(name, col, config)
            columns_meta.append({"name": name, "encoding": enc_name, "stats": stats})
            emit(streams)

    if config.bloom_columns:
        for meta in columns_meta:
            if meta["name"] in config.bloom_columns:
                bloom = build_bloom(table.column(meta["name"]))
                if bloom is not None:
                    meta["bloom"] = bloom

    footer = {
        "version": FORMAT_VERSION,
        "rows": table.num_rows,
        "compression": config.compression,
        "block_size": BLOCK_SIZE,
        "schema": base64.b64encode(table.schema.serialize().to_pybytes()).decode(),
        "columns": columns_meta,
        "streams": stream_dir,
        "data_length": len(out),
    }
    if config.bloom_columns:
        footer["bloom_hash"] = BLOOM_HASH
    if stride:
        footer["row_index_stride"] = stride
        footer["stride_rows"] = stride_rows
    if lineage:
        footer["lineage"] = lineage
    footer_bytes = zlib.compress(json.dumps(footer).encode(), 1)
    out.extend(footer_bytes)
    out.extend(struct.pack("<I", len(footer_bytes)))
    out.extend(TAIL_MAGIC)
    return bytes(out), footer


def build_bloom(col) -> dict | None:
    """One column's footer bloom {k, bits (base64)}, or None when the column
    has no non-null value or its type has no ORC bloom hash."""
    hashes = hash_arrow_values(col.combine_chunks()
                               if isinstance(col, pa.ChunkedArray) else col)
    if hashes is None or not len(hashes):
        return None
    hashes = np.unique(hashes)
    k, bits = bloom_build(hashes, min(len(hashes), BLOOM_MAX_ENTRIES),
                          BLOOM_FPP)
    return {"k": k, "bits": base64.b64encode(bits).decode()}


def bloom_may_contain(bloom: dict, probe) -> bool:
    """Probe a ``build_bloom`` bloom with one value of the column's type
    (the ``predicate.Term.probe`` of an equality term: an exact cast, since
    577 and 577.0 hash differently); a plain Python value hashes as the
    Arrow type it infers."""
    h = hash_arrow_values(pa.array([probe]))
    return h is None or bool(bloom_might_contain(
        bloom["k"], base64.b64decode(bloom["bits"]), h)[0])


def parse_footer(read_tail, name: str) -> dict:
    """The one footer parse (FileTail.cs:22-54) of a whole buffer or a file's
    tail. ``read_tail(n)`` returns the stripe's last ``n`` bytes, or all of
    them when it is shorter. Raises ``ValueError`` naming ``name`` when the
    stripe is shorter than its tail or its footer, the tail magic is wrong,
    or the footer does not inflate to a JSON object."""
    tail = read_tail(8)
    if len(tail) < 8 or tail[4:] != TAIL_MAGIC:
        raise ValueError(f"{name}: not an ORAY1 stripe file")
    (footer_len,) = struct.unpack("<I", tail[:4])
    footer_bytes = read_tail(footer_len + 8)[:-8]
    if len(footer_bytes) != footer_len:
        raise ValueError(f"{name}: footer length {footer_len} exceeds the "
                         f"{len(footer_bytes)} bytes before the tail")
    try:
        footer = json.loads(zlib.decompress(footer_bytes))
    except (zlib.error, ValueError) as e:  # JSON and UTF-8 errors are ValueErrors
        raise ValueError(f"{name}: corrupt stripe footer ({e})") from None
    if not isinstance(footer, dict):
        raise ValueError(f"{name}: corrupt stripe footer (not a JSON object)")
    return footer


def read_footer(buf: bytes) -> dict:
    """The footer of a whole stripe buffer."""
    if buf[:5] != MAGIC:
        raise ValueError("stripe buffer: not an ORAY1 stripe file")
    return parse_footer(lambda n: buf[-n:], "stripe buffer")


def footer_schema(footer: dict) -> pa.Schema:
    """Deserialize the Arrow schema embedded in a stripe footer."""
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(footer["schema"])))


def column_meta(footer: dict, name: str) -> dict:
    """One column's footer entry (stats, row index, bloom); {} when absent."""
    return next((c for c in footer["columns"] if c["name"] == name), {})


def qualifying_strides(footer: dict, predicate) -> list[int]:
    """Stride indexes whose per-stride [min, max] may satisfy every term of
    ``predicate`` (a ``predicate.Bound``). Columns without a row index
    qualify every stride (conservative)."""
    ris = {c["name"]: c.get("row_index") for c in footer["columns"]}
    return [i for i in range(len(footer.get("stride_rows", [])))
            if predicate.may_match(lambda c: ris[c][i] if ris.get(c) else None)]


def decode_stripe(
    buf: bytes,
    columns: list[str] | None = None,
    predicate: tuple | None = None,
    io_stats: dict | None = None,
    row_range: tuple[int, int] | None = None,
    delete_mask=None,
) -> pa.Table:
    """Decode container bytes back to an Arrow table (optionally projected).

    Column pruning here is the analog of ORC's per-stream reads
    (Stripes/StripeStreamReader.cs:33-39): untouched columns' segments are
    never decompressed. The stripe reads as units, one per stride on
    stripes written with ``row_index_stride`` and else the whole stripe,
    through ``columns.read_units``. ``predicate`` = one (col, op, lit) term
    or a list of them (see ``predicate.py``): strides whose footer
    row-index range excludes it are skipped (``qualifying_strides``, the
    ROW_INDEX seek analog, ColumnWriterStatistics.cs:12-33), the predicate
    columns of each unit decode first, the other columns only for units
    with a match, and only the matching rows are returned; predicate
    columns outside ``columns`` are read for the mask and dropped.
    ``row_range`` = stripe-local ``(start, stop)`` row positions: only the
    overlapping strides decompress (the ORC seek-to-row analog), then the
    exact slice is taken — the trainer fast-forward path. ``io_stats``,
    when passed, is filled with {bytes_read, bytes_decompressed,
    strides_total, strides_read, dict_masked_cols}. ``delete_mask`` (bool
    array over the stripe's PHYSICAL rows, True = deleted; see
    stripe/deletes.py) is applied as the final filter — with ``row_range``
    the range addresses physical rows and deleted rows are dropped from the
    slice after.
    """
    footer = read_footer(buf)
    if footer.get("version", 1) != FORMAT_VERSION:
        raise ValueError(
            f"stripe format v{footer.get('version', 1)} != reader v{FORMAT_VERSION};"
            " re-encode the input")
    schema = footer_schema(footer)
    out_schema = pa.schema([f for f in schema
                            if columns is None or f.name in columns])
    preds = normalize_predicate(predicate)
    bound = bind(preds, schema) if preds else None
    if bound is not None and bound.empty:
        return out_schema.empty_table()  # a term's column is not in this stripe
    n_rows = footer["rows"]
    codec = footer.get("compression") or "none"
    stride_rows = footer.get("stride_rows")
    # unit i spans rows [starts[i], starts[i + 1]): a stride, or the stripe
    starts = list(accumulate(stride_rows if stride_rows is not None
                             else [n_rows], initial=0))
    sel = range(len(starts) - 1)  # the units read
    range_slice = None  # (offset into the units read, length)
    if row_range is not None:
        if bound is not None:
            raise ValueError("row_range and predicate are mutually exclusive")
        r0, r1 = max(0, int(row_range[0])), min(int(row_range[1]), n_rows)
        if r0 >= r1:
            return out_schema.empty_table()
        i0 = bisect.bisect_right(starts, r0) - 1
        sel = range(i0, bisect.bisect_left(starts, r1))
        range_slice = (r0 - starts[i0], r1 - r0)
    elif bound is not None and stride_rows is not None:
        sel = qualifying_strides(footer, bound)
    if delete_mask is not None:
        dm = np.asarray(delete_mask, dtype=bool)
        if len(dm) != n_rows:
            raise ValueError(
                f"delete mask length {len(dm)} != stripe rows {n_rows}")
    if io_stats is not None:
        io_stats.setdefault("bytes_read", 0)
        io_stats.setdefault("bytes_decompressed", 0)
        if stride_rows is not None:
            io_stats["strides_total"] = len(stride_rows)
            io_stats["strides_read"] = len(sel)

    def make_stream(meta: dict, si: int, state: dict) -> Stream:
        payload = buf[meta["offset"] : meta["offset"] + meta["length"]]
        expected = meta.get("crc32")
        if expected is not None and zlib.crc32(payload) != expected:
            raise ValueError(
                f"stripe stream corrupt: col={meta['col']} kind={meta['kind']}"
                f" (crc mismatch at offset {meta['offset']})")
        data = decompress(payload, codec)
        if io_stats is not None:
            io_stats["bytes_read"] += meta["length"]
            io_stats["bytes_decompressed"] += meta["raw_length"]
        return Stream(meta["col"], meta["kind"], meta["codec"], data, meta["n"],
                      meta["params"])

    def stride_stream(m: dict, si: int, state: dict) -> Stream | None:
        ln = m["pos_len"][si]
        if ln == 0:
            return None
        corrupt = (f"stripe stream corrupt: col={m['col']} "
                   f"kind={m['kind']} stride={si}")
        try:
            if "seg" not in state:  # raw offsets = cumsum of pos_len
                seg = buf[m["offset"] : m["offset"] + m["length"]]
                state.update(seg=seg, cache={},
                             pos_off=list(accumulate(m["pos_len"], initial=0)),
                             offsets=(block_offsets(seg)
                                      if codec != "none" else None))
            data = decompress_range(
                state["seg"], state["pos_off"][si], ln, codec,
                m.get("bs", footer.get("block_size", BLOCK_SIZE)),
                cache=state["cache"], io_stats=io_stats,
                offsets=state["offsets"])
        except ValueError as e:
            raise ValueError(f"{corrupt} ({e})") from None
        if zlib.crc32(data) != m["pos_crc"][si]:
            raise ValueError(f"{corrupt} (crc mismatch)")
        cdc = m["pos_codec"][si] if "pos_codec" in m else m["codec"]
        prm = m["pos_params"][si] if "pos_params" in m else m["params"]
        return Stream(m["col"], m["kind"], cdc, data, m["pos_n"][si], prm)

    read = make_stream if stride_rows is None else stride_stream
    rows = [starts[si + 1] - starts[si] for si in sel]
    masked = set()  # ids of the terms masked on their dictionary

    def column(field_):
        metas = [m for m in footer["streams"] if m["col"] == field_.name
                 or m["col"].startswith(field_.name + ".")]
        states = [{} for _ in metas]  # per-stream block cache of this pass
        last = {}  # unit → its streams: a mask, then a decode, reads once

        def streams(i):
            if i not in last:
                last.clear()
                last[i] = [s for m, st in zip(metas, states)
                           if (s := read(m, sel[i], st)) is not None]
            return last[i]

        def mask(i, term):
            m = column_predicate_mask(field_, streams(i), rows[i], term)
            if m is not None:
                masked.add(id(term))
            return m
        return (lambda i: decode_column(field_, streams(i), rows[i])), mask

    tbl, mask, kept = read_units(out_schema, bound, rows, column)
    if io_stats is not None and masked:
        io_stats["dict_masked_cols"] = \
            io_stats.get("dict_masked_cols", 0) + len(masked)
    live = None  # ~delete_mask over the rows of the units kept
    if delete_mask is not None:
        live = np.concatenate([np.zeros(0, dtype=bool)] + [
            ~dm[starts[sel[i]]:starts[sel[i] + 1]] for i in kept])
    if mask is not None:
        # non-matching rows never leave the task
        return tbl.filter(mask if live is None
                          else pc.and_(mask, pa.array(live)))
    if range_slice is not None:
        tbl = tbl.slice(*range_slice)  # zero-copy exact-row trim
        if live is not None:
            live = live[range_slice[0]:sum(range_slice)]
    return tbl if live is None else tbl.filter(pa.array(live))
