"""Compressed-chunk framing, the one reader and writer of the reference's
compressed-buffer format for ``.oray`` stripes and ORC files alike
(ApacheOrcDotNet Compression/OrcCompressedStream.cs:49-107,
OrcCompressedBuffer.cs:35-59): data is cut into ``block_size`` raw chunks,
each compressed and preceded by a 3-byte little-endian header
``(len << 1) | is_original``, where is_original=1 means stored raw
(store-if-bigger rule — it matters for size parity).

Block codecs: ``"zlib"`` raw deflate (both formats); ``"zstd"``, ``.oray``'s
zstd frame behind a 3-byte little-endian raw length (pyarrow's zstd
decompress needs the size); ``"zstd_frame"``, ORC's bare zstd frame, sized
from its frame header; ``"none"`` (or None), no framing at all.

One bounds-checked header walk, ``_chunks``, feeds whole-stream and seek
reads. A chunk that runs past its stream, a seek past the last chunk, an
inflated chunk of the wrong size and a codec error all raise ValueError."""

from __future__ import annotations

import zlib

import pyarrow as pa

_MAX_BLOCK = 0x7FFFFF
BLOCK_SIZE = 256 * 1024  # raw bytes per chunk (WriterConfiguration.cs:34)


def _zstd_content_size(frame: bytes) -> int:
    """Frame_Content_Size from a zstd frame header (RFC 8878 §3.1.1)."""
    if frame[:4] != b"\x28\xb5\x2f\xfd" or len(frame) < 6:
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
    return int.from_bytes(frame[pos:pos + 4 * fcs_flag - 4], "little")


def _deflate(block: bytes, level: int) -> bytes:
    comp = zlib.compressobj(level, zlib.DEFLATED, -15)
    return comp.compress(block) + comp.flush()


def _zstd(block: bytes, level: int) -> bytes:
    return pa.Codec("zstd", compression_level=level).compress(block, asbytes=True)


def _unzstd(frame: bytes, size: int) -> bytes:
    return pa.Codec("zstd").decompress(frame, size, asbytes=True)


_PACK = {
    "zlib": _deflate,
    "zstd": lambda b, level: len(b).to_bytes(3, "little") + _zstd(b, level),
    "zstd_frame": _zstd,
}
_UNPACK = {
    "zlib": lambda b: zlib.decompress(b, -15),
    "zstd": lambda b: _unzstd(b[3:], int.from_bytes(b[:3], "little")),
    "zstd_frame": lambda b: _unzstd(b, _zstd_content_size(b)),
}


def _codec(table: dict, codec: str):
    if codec not in table:
        raise ValueError(f"unknown framing codec {codec}")
    return table[codec]


def compress(data: bytes, block_size: int = BLOCK_SIZE, level: int = 1,
             codec: str = "zlib") -> bytes:
    if codec in ("none", None):
        return data
    pack = _codec(_PACK, codec)
    out = bytearray()
    for start in range(0, len(data), block_size):
        block = data[start : start + block_size]
        cdata = pack(block, level)
        if len(cdata) >= len(block):
            header = (len(block) << 1) | 1
            payload = block
        else:
            header = len(cdata) << 1
            payload = cdata
        if len(payload) > _MAX_BLOCK:
            raise OverflowError("compressed block larger than 8MB")
        out.extend(header.to_bytes(3, "little"))
        out.extend(payload)
    return bytes(out)


def _chunks(data: bytes, pos: int = 0,
            count: int | None = None) -> list[tuple[int, int, bool]]:
    """(payload start, payload end, is_original) of the chunks from the
    header at ``pos`` on (``count`` of them at most), each header and
    payload checked against the end of the stream."""
    out = []
    n = len(data)
    while pos < n and count != len(out):
        hdr = int.from_bytes(data[pos : pos + 3], "little")
        end = pos + 3 + (hdr >> 1)
        if pos + 3 > n or end > n:
            raise ValueError(f"chunk at {pos} runs past the {n} B stream")
        out.append((pos + 3, end, bool(hdr & 1)))
        pos = end
    return out


def _chunk(data: bytes, head: int, i: int, codec: str, cache: dict | None,
           io_stats: dict | None = None) -> bytes:
    """Chunk ``i`` (header at byte ``head``) inflated, once per ``cache``;
    ``io_stats`` counts bytes_read/bytes_decompressed of a new inflate."""
    raw = cache.get(i) if cache is not None else None
    if raw is None:
        start, end, original = _chunks(data, head, 1)[0]
        raw = data[start:end]
        if not original:
            unpack = _codec(_UNPACK, codec)
            try:
                raw = unpack(raw)
            except (zlib.error, OSError, ValueError, IndexError) as e:
                raise ValueError(f"corrupt {codec} chunk at {head}: {e}") from None
        if cache is not None:
            cache[i] = raw
        if io_stats is not None:
            for key, n in (("bytes_read", end - head),
                           ("bytes_decompressed", len(raw))):
                io_stats[key] = io_stats.get(key, 0) + n
    return raw


def block_offsets(data: bytes) -> list[int]:
    """Byte offsets of each chunk's 3-byte header within ``data`` — a
    header walk, no decompression. Chunk i holds raw bytes
    [i*block_size, (i+1)*block_size) because ``compress`` chunks its input
    at exactly block_size (the stored-original rule preserves raw size)."""
    return [start - 3 for start, _, _ in _chunks(data)]


def decompress(data: bytes, codec: str = "zlib", start: int = 0,
               cache: dict | None = None) -> bytes:
    """The raw bytes of the chunks from the one whose header is at byte
    ``start`` (ORC's seek position; 0, the whole stream, by default) to the
    end of the stream. ``cache`` (chunk index → raw bytes) lets a caller
    seeking several times into one stream inflate each chunk once."""
    if codec in ("none", None):
        return data
    heads = block_offsets(data)
    if start not in heads:
        if start == len(data):
            return b""
        raise ValueError(f"seek to byte {start}: no chunk starts there in "
                         f"the {len(data)} B stream")
    parts = [_chunk(data, heads[i], i, codec, cache)
             for i in range(heads.index(start), len(heads))]
    return parts[0] if len(parts) == 1 else b"".join(parts)


def decompress_range(
    data: bytes, raw_start: int, raw_len: int, codec: str = "zlib",
    block_size: int = BLOCK_SIZE, cache: dict | None = None,
    io_stats: dict | None = None, offsets: list[int] | None = None,
) -> bytes:
    """Decompress only the chunks covering raw bytes
    [raw_start, raw_start + raw_len) — the seek primitive behind shared-
    stream ROW_INDEX positions (a stride read touches its chunks, never the
    whole stream). ``cache`` (chunk index → raw bytes) lets a caller
    decoding several strides of one stream decompress each chunk once;
    ``io_stats`` accounts bytes_read/bytes_decompressed per NEW chunk
    touched; ``offsets`` is the stream's ``block_offsets``, when the
    caller keeps it across calls."""
    if raw_len == 0:
        return b""
    if codec in ("none", None):
        out = data[raw_start : raw_start + raw_len]
        if io_stats is not None:
            for key in ("bytes_read", "bytes_decompressed"):
                io_stats[key] = io_stats.get(key, 0) + len(out)
    else:
        if offsets is None:
            offsets = block_offsets(data)
        first = raw_start // block_size
        last = (raw_start + raw_len - 1) // block_size
        if last >= len(offsets):
            raise ValueError(f"raw byte {raw_start + raw_len - 1} lies past "
                             f"the last of {len(offsets)} chunks")
        parts = []
        for bi in range(first, last + 1):
            blk = _chunk(data, offsets[bi], bi, codec, cache, io_stats)
            if len(blk) > block_size or (len(blk) < block_size
                                         and bi + 1 < len(offsets)):
                raise ValueError(f"chunk {bi} inflates to {len(blk)} B, not "
                                 f"the {block_size} B block size")
            parts.append(blk)
        joined = parts[0] if len(parts) == 1 else b"".join(parts)
        lo = raw_start - first * block_size
        out = joined[lo : lo + raw_len]
    if len(out) != raw_len:
        raise ValueError(f"raw bytes [{raw_start}, {raw_start + raw_len}) "
                         "run past the end of the stream")
    return out
