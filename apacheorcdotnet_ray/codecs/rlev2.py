"""ORC RLEv2 integer codec — vectorized, bit-exact with the reference.

Reimplements the greedy 512-value-window codec auto-selection cascade of
``/root/reference/src/ApacheOrcDotNet/Encodings/IntegerRunLengthEncodingV2Writer.cs``
(SHORT_REPEAT → DELTA → PATCHED_BASE → DIRECT) and its reader
(``IntegerRunLengthEncodingV2Reader.cs``), producing byte-identical output so
that our compressed sizes equal the reference's by construction.

The writer's inner math is NumPy over whole windows; its only Python-level
loop is per encoded run (≤512 values each). The reference's percentile bit
widths come from a per-window width histogram; since a value's width is
monotone in the value, they are read here from two order statistics of each
window (its maximum and its (drop+1)-th largest value). Golden byte vectors from
``IntegerRunLengthEncodingV2_Test.cs`` are ported to ``tests/test_rlev2.py``.

The reader decodes a whole stream, not one run at a time, in two steps:

1. A scalar pass over the run headers. It records each run's kind,
   length, output offset, base and delta base, and queues the run's
   bit-packed bytes (DIRECT and PATCHED_BASE values, DELTA magnitudes),
   padded to whole 8-value blocks, under its bit width. It stops at the
   expected count and bounds every run by the bytes present.
2. One expansion of all runs. Each width's queued blocks go through one
   ``bitpack.unpack_bits`` call (a word gather per lane of a block).
   SHORT_REPEAT values fill the output with one ``np.repeat``, DIRECT
   values are copied in, and one zigzag decodes both. PATCHED_BASE runs add
   their base, and every patch list of the stream is applied in one scatter.
   DELTA runs read one running sum per width, less its value before each
   run.
"""

from __future__ import annotations

import sys
from array import array

import numpy as np

from .bitpack import (
    I64,
    U64,
    _ALIGNED_TABLE,
    _MASK64,
    _NEAREST_TABLE,
    bit_widths,
    encode_direct_width,
    decode_direct_width,
    find_nearest_aligned_direct_width,
    find_nearest_direct_width,
    num_bits,
    pack_bits,
    percentile_widths,
    read_varint_int64,
    read_varint_signed,
    subtraction_would_overflow,
    unpack_bits,
    write_long_be,
    write_varint_signed,
    write_varint_unsigned,
    zigzag_decode,
    zigzag_encode,
    zigzag_encode_scalar,
)

_WINDOW = 512
_MAX_BATCH = 256  # windows analyzed per vectorized pass (128k values)


def encode(values: np.ndarray, signed: bool, aligned: bool = False) -> bytes:
    """Encode int64 values with ORC RLEv2. Byte-identical to the reference writer.

    Fast path: SHORT_REPEAT is the only sub-mode that consumes fewer than 512
    values (Writer.cs:19-28 feeds the consumed run length back into the scan),
    so window boundaries stay 512-aligned until one fires — all per-window
    stats (min/max/deltas/percentile widths) are computed vectorized across
    up to ``_MAX_BATCH`` windows at once, and the scalar path only handles
    short-repeat runs and the final partial window.
    """
    v = np.ascontiguousarray(values, dtype=I64)
    out = bytearray()
    pos = 0
    n = len(v)
    zz_all = (zigzag_encode(v) if signed else v).view(U64)
    while pos < n:
        if n - pos >= _WINDOW:
            consumed = _encode_batch(out, v, zz_all, pos, signed, aligned)
            if consumed:
                pos += consumed
                continue
            # first window starts with a 3..10 repeat → vectorized SR stream
            consumed = _encode_sr_stream(out, v, zz_all, pos, n)
            if consumed:
                pos += consumed
                continue
        consumed = _encode_window(out, v[pos : pos + _WINDOW], signed, aligned)
        pos += consumed
    return bytes(out)


def _encode_sr_stream(
    out: bytearray, v: np.ndarray, zz_all: np.ndarray, pos: int, n: int
) -> int:
    """Emit consecutive SHORT_REPEAT runs vectorized: while the leading run at
    the scan position is 3..10 long, the window encoder consumes exactly that
    run (Writer.cs:52-59), so a maximal-run scan emits them all in one pass.
    Stops at the first run outside [3,10] (the caller's window logic resumes
    there) or at a lookahead-truncated run (next call re-examines it)."""
    look = v[pos : pos + (1 << 13)]  # bounded: re-scanned when SR and batch
    # encoding interleave, so the lookahead cost must stay proportional
    change = np.nonzero(look[1:] != look[:-1])[0] + 1
    starts = np.concatenate([[0], change])
    lens = np.diff(np.concatenate([starts, [len(look)]]))
    truncated_last = pos + len(look) < n  # final run may continue beyond lookahead
    ok = (lens >= 3) & (lens <= 10)
    if truncated_last:
        ok[-1] = False
    stop = int(np.argmin(ok)) if not ok.all() else len(ok)
    if stop == 0:
        return 0
    run_starts = starts[:stop]
    run_lens = lens[:stop]
    vals = zz_all[pos + run_starts]
    nb = np.maximum((bit_widths(vals) + 7) // 8, 1)
    out_offs = np.concatenate([[0], np.cumsum(nb + 1)])
    buf = np.empty(int(out_offs[-1]), dtype=np.uint8)
    buf[out_offs[:-1]] = ((nb - 1) << 3) | (run_lens - 3)
    for b in range(8):
        mask = nb > b
        if not mask.any():
            break
        shift = ((nb[mask] - 1 - b) * 8).astype(np.uint64)
        buf[out_offs[:-1][mask] + 1 + b] = ((vals[mask] >> shift) & np.uint64(0xFF)).astype(np.uint8)
    out.extend(buf.tobytes())
    return int(run_starts[-1] + run_lens[-1])


def _encode_batch(
    out: bytearray, v: np.ndarray, zz_all: np.ndarray, pos: int, signed: bool, aligned: bool
) -> int:
    """Vectorized window classification + emission for 512-aligned full windows
    starting at ``pos``. Returns values consumed (0 → caller uses scalar path).
    Bit-exact with _encode_window: same cascade, same stats."""
    n = len(v)
    nw = min((n - pos) // _WINDOW, _MAX_BATCH)
    W = v[pos : pos + nw * _WINDOW].reshape(nw, _WINDOW)
    # leading-repeat length per window, bounded scan (Writer.cs:52-59)
    neq = W[:, :11] != W[:, :1]
    any_neq = neq.any(axis=1)
    rep = np.where(any_neq, neq.argmax(axis=1), 11)
    sr = (rep >= 3) & (rep <= 10)
    limit = int(sr.argmax()) if sr.any() else nw
    if limit == 0:
        return 0
    Wl = W[:limit]
    ZZl = zz_all[pos : pos + limit * _WINDOW].reshape(limit, _WINDOW)
    mins = Wl.min(axis=1)
    maxs = Wl.max(axis=1)
    diff = maxs - mins
    D = Wl[:, 1:] - Wl[:, :-1]
    absD = np.abs(D)
    ovf = ((maxs ^ mins) < 0) & ((maxs ^ diff) < 0)
    d0 = D[:, 0]
    fixed = maxs == mins
    constd = (D == D[:, :1]).all(axis=1)
    inc = (D >= 0).all(axis=1) & (d0 > 0)
    dec = (D <= 0).all(axis=1) & (d0 < 0)
    # 100th/90th percentile widths per window (BitManipulation.cs:115-146)
    bits100, bits90 = percentile_widths(ZZl, 0.9)

    # batched base-reduced percentiles for the PATCHED_BASE candidates
    # (Writer.cs:74-85): only windows that fail every earlier check and have
    # a 90th/100th percentile width gap
    is_delta = ~ovf & (fixed | constd | inc | dec)
    pb_cand = ~ovf & ~is_delta & (bits100 != bits90)
    pb_idx = np.nonzero(pb_cand)[0]
    br100 = br95 = BR = None
    pb_pos = np.full(limit, -1, dtype=np.int64)
    is_patch = np.zeros(limit, dtype=bool)
    if len(pb_idx):
        pb_pos[pb_idx] = np.arange(len(pb_idx))
        BR = (Wl[pb_idx] - mins[pb_idx, None]).view(U64)
        br100, br95 = percentile_widths(BR, 0.95)
        is_patch[pb_idx] = br100 != br95

    # group-pack DIRECT payloads by bit width: a 512-value window at width w
    # packs to exactly 64*w bytes, so one pack_bits call serves a whole group
    is_direct = ~is_delta & ~is_patch
    wdir = (_ALIGNED_TABLE if aligned else _NEAREST_TABLE)[bits100]
    payloads: dict[int, bytes] = {}
    di = np.nonzero(is_direct)[0]
    if len(di):
        for wbits in np.unique(wdir[di]).tolist():
            rows = di[wdir[di] == wbits]
            packed = pack_bits(ZZl[rows].ravel(), wbits)
            sz = 64 * wbits
            for j, r in enumerate(rows.tolist()):
                payloads[r] = packed[j * sz : (j + 1) * sz]

    for i in range(limit):
        if is_direct[i]:
            wbits = int(wdir[i])
            enc_w = encode_direct_width(wbits)
            out.append((0x1 << 6) | ((enc_w & 0x1F) << 1) | ((_WINDOW - 1) >> 8))
            out.append((_WINDOW - 1) & 0xFF)
            out.extend(payloads[i])
        elif fixed[i]:
            _delta_encode(out, int(mins[i]), signed, _WINDOW, [0], 0)
        elif constd[i]:
            _delta_encode(out, int(Wl[i, 0]), signed, _WINDOW, [int(d0[i])], 0)
        elif inc[i] or dec[i]:
            bits = num_bits(int(absD[i, 1:].max()))
            bits = (
                find_nearest_aligned_direct_width(bits)
                if aligned
                else find_nearest_direct_width(bits)
            )
            packed_deltas = np.concatenate([[d0[i]], absD[i, 1:]]).astype(I64)
            _delta_encode(out, int(Wl[i, 0]), signed, _WINDOW, packed_deltas, bits)
        else:
            k = pb_pos[i]
            _patch_encode(out, int(mins[i]), BR[k].copy(), int(br100[k]), int(br95[k]))
    return limit * _WINDOW


def _encode_window(out: bytearray, w: np.ndarray, signed: bool, aligned: bool) -> int:
    n = len(w)
    # Writer.cs:45-50 — too short for anything but DIRECT
    if n <= 3:
        zz = zigzag_encode(w) if signed else w
        _direct_encode(out, zz.view(U64), n, aligned, None)
        return n

    # Writer.cs:52-59 — SHORT_REPEAT for 3..10 leading repeats (a leading run
    # of 11+ can never be SHORT_REPEAT, so scanning the first 11 values is exact)
    head = w[:11]
    neq = head != w[0]
    rep = int(np.argmax(neq)) if neq.any() else len(head)
    if 3 <= rep <= 10:
        val = zigzag_encode_scalar(int(w[0])) if signed else int(w[0]) & _MASK64
        _short_repeat_encode(out, val, rep)
        return rep

    # Writer.cs:61-72 — DELTA attempt over the whole window
    deltas = w[1:] - w[:-1]
    minv = int(w.min())
    maxv = int(w.max())
    if subtraction_would_overflow(maxv, minv):
        zz = zigzag_encode(w) if signed else w
        _direct_encode(out, zz.view(U64), n, aligned, None)
        return n

    d0 = int(deltas[0])
    if maxv == minv:  # all values after the first were identical → fixed delta 0
        _delta_encode(out, minv, signed, n, [0], 0)
        return n
    if bool(np.all(deltas == deltas[0])):  # constant delta
        _delta_encode(out, int(w[0]), signed, n, [d0], 0)
        return n
    is_increasing = d0 > 0 and bool(np.all(deltas >= 0))
    is_decreasing = d0 < 0 and bool(np.all(deltas <= 0))
    if is_increasing or is_decreasing:
        abs_d = np.abs(deltas)
        delta_max = int(abs_d[1:].max()) if n > 2 else 0
        bits = num_bits(delta_max)
        bits = (
            find_nearest_aligned_direct_width(bits)
            if aligned
            else find_nearest_direct_width(bits)
        )
        packed_deltas = np.concatenate([[d0], abs_d[1:]]).astype(I64)
        _delta_encode(out, int(w[0]), signed, n, packed_deltas, bits)
        return n

    # Writer.cs:74-85 — PATCHED_BASE attempt, else DIRECT
    zz = (zigzag_encode(w) if signed else w).view(U64)
    bits100, bits90 = percentile_widths(zz, 0.9)
    if bits100 != bits90:
        base_reduced = (w - np.int64(minv)).view(U64)
        br100, br95 = percentile_widths(base_reduced, 0.95)
        if br100 != br95:
            _patch_encode(out, minv, base_reduced.copy(), int(br100), int(br95))
            return n

    _direct_encode(out, zz, n, aligned, int(bits100))
    return n


def _direct_encode(
    out: bytearray, values_u64: np.ndarray, n: int, aligned: bool, fixed_bit_width
) -> None:
    """Writer.cs:234-260."""
    if fixed_bit_width is None:
        fixed_bit_width = num_bits(int(values_u64.max()))
    if aligned:
        fixed_bit_width = find_nearest_aligned_direct_width(fixed_bit_width)
    else:
        fixed_bit_width = find_nearest_direct_width(fixed_bit_width)
    enc_w = encode_direct_width(fixed_bit_width)
    byte1 = (0x1 << 6) | ((enc_w & 0x1F) << 1) | ((n - 1) >> 8)
    out.append(byte1)
    out.append((n - 1) & 0xFF)
    out.extend(pack_bits(values_u64, fixed_bit_width))


def _short_repeat_encode(out: bytearray, value_u64: int, repeat_count: int) -> None:
    """Writer.cs:262-276."""
    bits = find_nearest_direct_width(num_bits(value_u64))
    width = (bits + 7) // 8
    out.append(((width - 1) << 3) | (repeat_count - 3))
    write_long_be(out, width, value_u64)


def _delta_encode(
    out: bytearray, initial: int, signed: bool, n: int, deltas, delta_bit_width: int
) -> None:
    """Writer.cs:288-310. deltas[0] is the signed delta base; deltas[1:] are abs."""
    if delta_bit_width == 1:
        delta_bit_width = 2  # width 1 is reserved for constant run-lengths
    enc_w = encode_direct_width(delta_bit_width) if delta_bit_width > 1 else 0
    byte1 = (0x3 << 6) | ((enc_w & 0x1F) << 1) | ((n - 1) >> 8)
    out.append(byte1)
    out.append((n - 1) & 0xFF)
    if signed:
        write_varint_signed(out, initial)
    else:
        write_varint_unsigned(out, initial)
    write_varint_signed(out, int(deltas[0]))
    if len(deltas) > 1:
        out.extend(pack_bits(np.asarray(deltas[1:], dtype=I64).view(U64), delta_bit_width))


def _patch_encode(
    out: bytearray, base_value: int, base_reduced: np.ndarray, w100: int, w95: int
) -> None:
    """Writer.cs:312-415 — frame-of-reference with exception patch list."""
    base_is_negative = base_value < 0
    if base_is_negative:
        base_value = -base_value
    num_bits_base = num_bits(base_value) + 1  # +1 sign bit
    num_bytes_base = (num_bits_base + 7) // 8
    if base_is_negative:
        base_value |= 1 << ((num_bytes_base * 8) - 1)

    patch_bit_width = find_nearest_direct_width(w100 - w95)
    reduced_bit_width = w95
    if patch_bit_width == 64:
        patch_bit_width = 56
        reduced_bit_width = 8
    enc_patch_w = encode_direct_width(patch_bit_width)
    value_bit_width = find_nearest_direct_width(reduced_bit_width)
    enc_value_w = encode_direct_width(value_bit_width)

    patch_gap_list, gap_bit_width = _generate_patch_list(
        base_reduced, patch_bit_width, reduced_bit_width
    )
    patch_list_width = find_nearest_direct_width(gap_bit_width + patch_bit_width)

    n = len(base_reduced)
    out.append((0x2 << 6) | ((enc_value_w & 0x1F) << 1) | ((n - 1) >> 8))
    out.append((n - 1) & 0xFF)
    out.append(((num_bytes_base - 1) << 5) | (enc_patch_w & 0x1F))
    out.append(((gap_bit_width - 1) << 5) | (len(patch_gap_list) & 0x1F))
    write_long_be(out, num_bytes_base, base_value)
    out.extend(pack_bits(base_reduced, value_bit_width))
    out.extend(pack_bits(np.asarray(patch_gap_list, dtype=U64), patch_list_width))


def _generate_patch_list(
    base_reduced: np.ndarray, patch_bit_width: int, reduced_bit_width: int
) -> tuple[list[int], int]:
    """Writer.cs:358-415. Mutates base_reduced (masks patched values)."""
    mask = np.uint64((1 << reduced_bit_width) - 1)
    idx = np.nonzero(base_reduced > mask)[0]
    gaps = np.diff(np.concatenate([[0], idx])).astype(np.int64) if len(idx) else np.empty(0, np.int64)
    patches = (base_reduced[idx] >> np.uint64(reduced_bit_width)).astype(U64)
    base_reduced[idx] &= mask
    max_gap = int(gaps.max()) if len(gaps) else 0

    if max_gap == 0 and len(idx) != 0:
        gap_bit_width = 1
    else:
        gap_bit_width = find_nearest_direct_width(num_bits(max_gap))
    actual_length = len(idx)
    if gap_bit_width > 8:
        gap_bit_width = 8  # special case: emit zero-patch links for gaps > 255
        actual_length += 2 if max_gap == 511 else 1

    result: list[int] = []  # uint64 bit patterns (C# long arithmetic wraps)
    for gap, patch in zip(gaps.tolist(), patches.tolist()):
        while gap > 255:
            result.append((255 << patch_bit_width) & _MASK64)
            gap -= 255
        result.append(((gap << patch_bit_width) | int(patch)) & _MASK64)
    assert len(result) == actual_length
    return result, gap_bit_width


# ---------------------------------------------------------------------------
# decoder

_WIDTHS = tuple(decode_direct_width(e) for e in range(32))
_LIST_WIDTHS = tuple(int(w) for w in _NEAREST_TABLE)
_ZEROS = bytes(64)
# SHORT_REPEAT header byte -> bytes in the run, values in the run
_REPEAT_BYTES = tuple(2 + ((b >> 3) & 0x7) for b in range(0x40))
_REPEATS = tuple((b & 0x7) + 3 for b in range(0x40))
_STEPS = np.arange(_WINDOW, dtype=I64)


def decode(buf: bytes, signed: bool, expected_count: int | None = None) -> np.ndarray:
    """Decode RLEv2 bytes to int64. Consumes the entire buffer (or stops once
    expected_count values are produced). Reference: IntegerRunLengthEncodingV2Reader.cs."""
    values, pos = decode_from(buf, 0, signed, expected_count)
    if expected_count is None and pos != len(buf):
        raise ValueError(f"RLEv2 decode consumed {pos} of {len(buf)} bytes")
    return values


def _wrap(x: int) -> int:
    """A Python int as the int64 it wraps to."""
    return ((x + (1 << 63)) & _MASK64) - (1 << 63)


def decode_from(
    buf: bytes, pos: int, signed: bool, expected_count: int | None = None,
    allow_overshoot: bool = False,
) -> tuple[np.ndarray, int]:
    """Decode starting at ``pos``. With ``expected_count`` the loop stops
    once that many values are available; ``allow_overshoot`` tolerates the
    final run producing MORE than requested (an ORC ROW_INDEX seek into a
    foreign writer's stream lands on a run header that can span a
    row-group boundary — the caller slices). Without it a count mismatch
    raises (the native container's segments are exact). A run that reaches
    past the end of ``buf`` raises ``ValueError``. The header pass follows
    Reader.cs:53-199; the module docstring describes the two steps."""
    end = len(buf)
    limit = sys.maxsize if expected_count is None else expected_count
    from_bytes = int.from_bytes
    # every run: its SHORT_REPEAT value (0 for other kinds) and its length
    fill = array("Q")
    counts = array("q")
    # other kinds, by run: (first output index, length, width, first value
    # in its width's unpacked output, ...)
    direct: list[tuple] = []
    patched: list[tuple] = []
    deltas: list[tuple] = []
    lists: list[tuple] = []  # PATCHED_BASE patch lists, in patch_bytes
    patch_bytes: list = []
    groups: dict[int, list] = {}  # width -> [payloads, blocks so far]

    def payload(start: int, n: int, w: int) -> tuple[int, int]:
        """Queue n w-bit values at buf[start:], padded to whole 8-value
        blocks, for the width's unpack; returns (index of the first in the
        width's output, end of the payload)."""
        stop = start + (n * w + 7) // 8
        if stop > end:
            raise ValueError(f"RLEv2 payload ends at byte {stop}, past the "
                             f"{end}-byte buffer")
        g = groups.get(w)
        if g is None:
            g = groups[w] = [[], 0]
        blocks = (n + 7) >> 3
        g[0].append(buf[start:stop])
        if n & 7:
            g[0].append(_ZEROS[:blocks * w - (stop - start)])
        at = g[1] * 8
        g[1] += blocks
        return at, stop

    add_fill, add_count = fill.append, counts.append
    total = n_entries = n_patch_bytes = 0
    try:
        while pos < end and total < limit:
            first = buf[pos]
            if first < 0x40:  # SHORT_REPEAT
                nxt = pos + _REPEAT_BYTES[first]
                if nxt > end:
                    raise ValueError(f"RLEv2 repeat at byte {pos} overruns "
                                     f"the {end}-byte buffer")
                add_fill(from_bytes(buf[pos + 1:nxt], "big"))
                n = _REPEATS[first]
                add_count(n)
                total += n
                pos = nxt
                continue
            kind = first >> 6
            n = (((first & 0x1) << 8) | buf[pos + 1]) + 1
            w = _WIDTHS[(first >> 1) & 0x1F]
            pos += 2
            if kind == 1:  # DIRECT
                at, pos = payload(pos, n, w)
                direct.append((total, n, w, at))
            elif kind == 2:  # PATCHED_BASE
                third, fourth = buf[pos], buf[pos + 1]
                patch_w = _WIDTHS[third & 0x1F]
                gap_w = (fourth >> 5) + 1
                if patch_w + gap_w > 64:
                    raise ValueError("patchGapWidth + patchWidth > 64")
                base_end = pos + 3 + (third >> 5)
                base = from_bytes(buf[pos + 2:base_end], "big")
                msb = 1 << (8 * (base_end - pos - 2) - 1)
                if base & msb:
                    base = -(base ^ msb)
                at, pos = payload(base_end, n, w)
                entries, list_w = fourth & 0x1F, _LIST_WIDTHS[patch_w + gap_w]
                stop = pos + (entries * list_w + 7) // 8
                if stop > end:
                    raise ValueError(f"RLEv2 patch list ends at byte {stop}, "
                                     f"past the {end}-byte buffer")
                if entries:
                    lists.append((total, n, w, patch_w, list_w, entries,
                                  n_entries, n_patch_bytes))
                    patch_bytes.append(buf[pos:stop])
                    n_entries += entries
                    n_patch_bytes += stop - pos
                patched.append((total, n, w, at, base))
                pos = stop
            else:  # DELTA
                w = w if (first >> 1) & 0x1F else 0
                if signed:
                    base, pos = read_varint_signed(buf, pos)
                else:
                    base, pos = read_varint_int64(buf, pos)
                step, pos = read_varint_signed(buf, pos)
                at = 0
                if w:
                    if n < 2:
                        raise ValueError("RLEv2 DELTA run of one value has a bit width")
                    at, pos = payload(pos, n - 2, w)
                deltas.append((total, n, w, at, base, step))
            add_fill(0)
            add_count(n)
            total += n
    except IndexError:
        raise ValueError(f"RLEv2 run header overruns the {end}-byte buffer") from None
    if expected_count is not None and (
            total < expected_count
            or (total != expected_count and not allow_overshoot)):
        raise ValueError(f"RLEv2 decode produced {total} values, expected {expected_count}")

    repeats = len(counts) > len(direct) + len(patched) + len(deltas)
    if repeats:
        out = np.repeat(np.frombuffer(fill, U64), np.frombuffer(counts, I64)).view(I64)
    else:  # every value is written below
        out = np.empty(total, dtype=I64)
    # a width's queued runs, each padded to whole blocks, pack back to back
    unpacked = {w: unpack_bits(b"".join(parts), w, 8 * blocks)[0].view(I64)
                for w, (parts, blocks) in groups.items()}
    for s, n, w, at in direct:
        out[s:s + n] = unpacked[w][at:at + n]
    if signed and (repeats or direct):
        # PATCHED_BASE and DELTA runs are written after: they are not zigzagged
        out = zigzag_decode(out)
    for s, n, w, at, base in patched:
        np.add(unpacked[w][at:at + n], base, out=out[s:s + n])
    if lists:
        _patch(out, lists, b"".join(patch_bytes + [_ZEROS[:9]]))
    if deltas:
        _expand_deltas(out, deltas, unpacked)
    return out, pos


def _patch(out: np.ndarray, lists: list[tuple], data: bytes) -> None:
    """Apply every PATCHED_BASE patch list of a stream in one scatter
    (Reader.cs:114-147). ``lists`` holds per list: (first output index of
    its run, run length, value width, patch width, entry width, entries,
    index of its first entry among the stream's, byte offset in ``data``)."""
    table = np.array(lists, dtype=I64)
    per_entry = np.repeat(table, table[:, 5], axis=0).view(U64).T
    s, n, w, patch_w, list_w, _, first, offset = per_entry
    bit = offset * U64(8) + (np.arange(len(s), dtype=U64) - first) * list_w
    byte, shift = bit >> U64(3), bit & U64(7)
    words = np.ndarray(len(data) - 7, U64, data, strides=(1,))  # word at every byte
    x = words[byte].byteswap() << shift
    x |= np.frombuffer(data, np.uint8)[byte + U64(8)] >> (U64(8) - shift)
    x >>= U64(64) - list_w
    gap = x >> patch_w
    # the running gap is the position; a gap of 255 with patch 0 only moves it on
    at = np.cumsum(gap)
    at -= (at - gap)[first]
    real = x != U64(255) << patch_w
    at, x, gap, (s, n, w, patch_w) = at[real], x[real], gap[real], per_entry[:4, real]
    if (at >= n).any():
        raise ValueError("RLEv2 patch position past the end of its run")
    # the base is already added; a patch's bits lie above the value's, so
    # adding them is the reference's OR
    out[s + at] += ((x ^ (gap << patch_w)) << w).view(I64)


def _expand_deltas(out: np.ndarray, deltas: list[tuple], unpacked: dict) -> None:
    """DELTA runs (Reader.cs:151-199): a run is its base, base + step, then
    the running sum of its unpacked magnitudes, signed like the step. One
    cumulative sum per width serves every run of that width: a run's sums
    are the width's running sum minus its value before the run."""
    sums = {}
    for s, n, w, at, base, step in deltas:
        if not w:  # fixed step
            seg = out[s:s + n]
            np.multiply(_STEPS[:n], step, out=seg)
            seg += base
            continue
        out[s] = base
        out[s + 1] = _wrap(base + step)
        if n == 2:
            continue
        c = sums.get(w)
        if c is None:
            c = sums[w] = np.cumsum(unpacked[w])
        before = int(c[at - 1]) if at else 0
        if step > 0:
            np.add(c[at:at + n - 2], _wrap(base + step - before), out=out[s + 2:s + n])
        else:
            np.subtract(_wrap(base + step + before), c[at:at + n - 2], out=out[s + 2:s + n])
