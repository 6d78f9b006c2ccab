"""FSST — Fast Static Symbol Table compression for string columns.

Not present in the reference (mandated by the north star as the string-column
addition). Implements the scheme of "FSST: Fast Random Access String
Compression" (Boncz, Neumann, Leis — VLDB 2020, public): a table of up to 255
symbols of 1-8 bytes each; output codes 0-254 index the table, code 255 is an
escape followed by one literal byte. Random access per string is preserved when
lengths are stored separately (our LENGTH stream).

Training follows the paper's iterative greedy scheme on a bounded sample:
repeatedly parse the sample with the current table, count symbol and
symbol-concatenation frequencies, keep the highest-gain candidates.

Encoder and trainer share one whole-array parse: the longest match at every
position in one pass, then a plain walk of the greedy chain. The stripe-level
codec selector only picks FSST when it beats dict/direct on the sampled chunk.
"""

from __future__ import annotations

import itertools

import numpy as np

ESCAPE = 255
MAX_SYMBOLS = 255
MAX_SYMBOL_LEN = 8
_BLOCK = 1024


class SymbolTable:
    """Up to 255 symbols, also kept as arrays: ``values`` holds each symbol as
    a big-endian uint64, zero-padded on the right, and ``lengths`` its length."""

    def __init__(self, symbols: list[bytes]):
        assert len(symbols) <= MAX_SYMBOLS
        self.symbols = symbols
        k = len(symbols)
        self.lengths = np.array([len(s) for s in symbols], dtype=np.int64)
        # decode tables: per-code byte length and a flat (256*8) byte matrix
        self.sym_lens = np.zeros(256, dtype=np.int64)
        self.sym_lens[:k] = self.lengths
        symmat = np.zeros((256, MAX_SYMBOL_LEN), dtype=np.uint8)
        symmat[:k] = np.frombuffer(b"".join(s.ljust(MAX_SYMBOL_LEN, b"\0") for s in symbols),
                                   dtype=np.uint8).reshape(k, MAX_SYMBOL_LEN)
        self.symflat = symmat.ravel()
        self.values = symmat[:k].view(">u8").ravel().astype(np.uint64)
        self._matcher: list | None = None

    def matcher(self) -> list[tuple[np.uint64, np.uint64, np.uint64, np.ndarray, np.ndarray]]:
        """Per symbol length, shortest first, a collision-free multiply-shift
        hash of the symbols' values: (window shift, multiplier, slot shift,
        value per slot, ``length << 8 | code`` per slot). An empty slot holds
        a value that hashes elsewhere, so it never matches. Built once per
        table."""
        if self._matcher is None:
            self._matcher = []
            for L in sorted(set(self.lengths.tolist())):
                at = np.flatnonzero(self.lengths == L)
                pats, first = np.unique(self.values[at] >> np.uint64(64 - 8 * L),
                                        return_index=True)
                # odd multipliers; at >= 2 * k**2 slots (2**15 past 127 symbols)
                # a try collides with probability <= 0.63, and every 4th
                # collision doubles the slots
                bits = min(2 * len(pats).bit_length() + 1, 15)
                for i in itertools.count():
                    mult = np.uint64(0x9E3779B97F4A7C15 * (2 * i + 1) % 2**64)
                    shift = np.uint64(64 - bits - i // 4)
                    slot = (pats * mult) >> shift
                    if np.unique(slot).size == len(slot):
                        break
                value = np.full(1 << (64 - int(shift)), pats[0], dtype=np.uint64)
                value[slot] = pats
                length_code = np.zeros(len(value), dtype=np.int16)
                length_code[slot] = L << 8 | at[first]
                self._matcher.append((np.uint64(64 - 8 * L), mult, shift, value, length_code))
        return self._matcher

    def serialize(self) -> bytes:
        out = bytearray([len(self.symbols)])
        for s in self.symbols:
            out.append(len(s))
            out.extend(s)
        return bytes(out)

    @classmethod
    def deserialize(cls, buf: bytes) -> tuple["SymbolTable", int]:
        n = buf[0]
        pos = 1
        symbols = []
        for _ in range(n):
            ln = buf[pos]
            pos += 1
            symbols.append(bytes(buf[pos : pos + ln]))
            pos += ln
        return cls(symbols), pos


def train(sample: bytes) -> SymbolTable:
    """Iterative greedy symbol-table construction on a bounded sample
    (gain = frequency x length over current-parse tokens and adjacent-token
    concatenations, per the FSST paper's scheme).

    16 KiB / 3 iterations measures within 0.1% of the post-zlib ratio of
    64 KiB / 5 iterations on the documents corpus at ~10x less train cost."""
    sample = sample[: 1 << 14]
    table = SymbolTable([])
    if not sample:
        return table
    for _ in range(3):
        table = SymbolTable(_rank(_parse(sample, table), table))
    return table


def _rank(ext: np.ndarray, table: SymbolTable) -> list[bytes]:
    """The 255 highest-gain (count x length) candidates among the parse's
    tokens and adjacent token pairs of at most 8 bytes. A key formed more than
    once sums its counts and keeps its first position; ties go by position,
    singles by ascending extended code, then pairs by ascending
    ``first * 512 + second``."""
    n_sym = len(table.symbols)
    ext_lens = np.ones(512, dtype=np.int64)
    ext_lens[:n_sym] = table.lengths
    ext_values = np.arange(512, dtype=np.uint64) << np.uint64(56)  # (256 + b) << 56 wraps to b << 56
    ext_values[:n_sym] = table.values
    lens = ext_lens[ext]
    singles, s_cnt = np.unique(ext, return_counts=True)
    ok = lens[:-1] + lens[1:] <= MAX_SYMBOL_LEN
    pairs, p_cnt = np.unique(ext[:-1][ok] * 512 + ext[1:][ok], return_counts=True)
    first, second = pairs // 512, pairs % 512
    shift = (8 * ext_lens[first]).astype(np.uint64)
    vals = np.concatenate([ext_values[singles], ext_values[first] | ext_values[second] >> shift])
    klen = np.concatenate([ext_lens[singles], ext_lens[first] + ext_lens[second]])
    # lexsort is stable: each run of equal keys starts at its first position
    order = np.lexsort((klen, vals))
    v, k = vals[order], klen[order]
    head = np.flatnonzero(np.r_[True, (v[1:] != v[:-1]) | (k[1:] != k[:-1])])
    gain = np.add.reduceat(np.concatenate([s_cnt, p_cnt])[order], head) * k[head]
    top = head[np.lexsort((order[head], -gain))[:MAX_SYMBOLS]]
    raw = v[top].astype(">u8").tobytes()
    return [raw[8 * i : 8 * i + L] for i, L in enumerate(k[top].tolist())]


def _parse(data: bytes, table: SymbolTable) -> np.ndarray:
    """Greedy longest-match parse of ``data`` as extended codes: a symbol's
    code, or 256 + the byte of an escape.

    The data is cut in blocks of ``min(1024, max(64, ceil(n / 64)))`` bytes.
    A match that would cross its block's end, or run into the zero padding
    past the data, becomes an escape, never a shorter match. Inputs under 16
    bytes take the scalar parse, which has neither rule. Both rules are part
    of the pinned output (tests/test_fsst_bytes.py)."""
    n = len(data)
    b = np.frombuffer(data, dtype=np.uint8)
    if not table.symbols:
        return b.astype(np.int64) + 256
    if n < 16:
        return np.array(_parse_scalar(data, table), dtype=np.int64)
    padded = np.concatenate([b, np.zeros(MAX_SYMBOL_LEN, dtype=np.uint8)])
    window = np.ndarray((n,), dtype=">u8", buffer=padded, strides=(1,)).astype(np.uint64)
    # longest match at every position as length << 8 | code, 0 for none
    match = np.zeros(n, dtype=np.int16)
    for key_shift, mult, shift, value, length_code in table.matcher():
        key = window >> key_shift
        slot = ((key * mult) >> shift).view(np.int64)
        match = np.where(value[slot] == key, length_code[slot], match)
    block = int(min(_BLOCK, max(64, -(-n // 64))))
    ends = np.minimum(np.arange(block, n + block, block), n)
    room = np.arange(1, MAX_SYMBOL_LEN)
    at = (ends[:, None] - room).ravel()
    match[at[match[at] >> 8 > np.tile(room, len(ends))]] = 0
    step = np.maximum(match >> 8, 1).astype(np.uint8).tobytes()
    chain = []
    p = 0
    while p < n:
        chain.append(p)
        p += step[p]
    chain = np.array(chain)
    tokens = match[chain]
    return np.where(tokens == 0, b[chain].astype(np.int64) + 256, tokens & 255)


def _parse_scalar(data: bytes, table: SymbolTable) -> list[int]:
    longest_first = sorted(zip(table.symbols, range(len(table.symbols))), key=lambda t: -len(t[0]))
    out = []
    pos = 0
    n = len(data)
    while pos < n:
        for sym, code in longest_first:
            if data.startswith(sym, pos):
                out.append(code)
                pos += len(sym)
                break
        else:
            out.append(256 + data[pos])
            pos += 1
    return out


def _emit(ext: np.ndarray) -> bytes:
    """Code bytes of a parse: a symbol code, or ESCAPE then the byte."""
    esc = ext >= 256
    at = np.arange(len(ext)) + np.cumsum(esc) - esc
    out = np.full(len(ext) + int(esc.sum()), ESCAPE, dtype=np.uint8)
    out[at[~esc]] = ext[~esc]
    out[at[esc] + 1] = ext[esc] - 256
    return out.tobytes()


def compress_scalar(data: bytes, table: SymbolTable) -> bytes:
    """Reference greedy longest-match encode with no blocks or padding; the
    encoding of inputs under 16 bytes. Codes 0-254 = symbols, 255 = escape."""
    return _emit(np.array(_parse_scalar(data, table), dtype=np.int64))


def compress(data: bytes, table: SymbolTable) -> bytes:
    return _emit(_parse(data, table))


def decompress(codes: bytes, table: SymbolTable) -> bytes:
    """Vectorized decode. Token parsing looks sequential (an ESCAPE consumes
    the next byte as a literal) but is fully data-parallel: every non-255
    byte terminates a token, so each maximal run of 255-bytes starts at a
    token boundary and its escape/literal split follows from run parity —
    (255,255) pairs inside the run, plus, for odd runs, a final escape
    taking the byte after the run as its literal."""
    b = np.frombuffer(codes, dtype=np.uint8)
    n = len(b)
    if n == 0:
        return b""
    if not table.symbols:  # all escapes: strip every other byte
        return b[1::2].tobytes()

    is_esc_byte = b == ESCAPE
    # literal positions (consumed by an escape) — computed from 255-run parity
    literal = np.zeros(n + 1, dtype=bool)  # +1 slot: odd run at very end (invalid input guard)
    if is_esc_byte.any():
        d = np.diff(is_esc_byte.astype(np.int8))
        run_starts = np.nonzero(d == 1)[0] + 1
        if is_esc_byte[0]:
            run_starts = np.concatenate([[0], run_starts])
        run_ends = np.nonzero(d == -1)[0] + 1  # exclusive
        if is_esc_byte[-1]:
            run_ends = np.concatenate([run_ends, [n]])
        run_lens = run_ends - run_starts
        # within each run: positions start+1, start+3, ... are literals
        # (odd runs also consume the byte AFTER the run); ragged aranges
        # built with the repeat/cumsum pattern
        lit_counts = (run_lens + 1) // 2
        base = np.repeat(run_starts, lit_counts)
        prefix = np.concatenate([[0], np.cumsum(lit_counts[:-1])])
        j = np.arange(int(lit_counts.sum())) - np.repeat(prefix, lit_counts)
        literal[base + 1 + 2 * j] = True
    literal = literal[:n]

    is_code = ~literal
    token_codes = b[is_code]
    esc_tok = token_codes == ESCAPE
    out_lens = np.where(esc_tok, 1, table.sym_lens[token_codes])
    offs = np.concatenate([[0], np.cumsum(out_lens)])
    # one repeat+gather emits every output byte: out byte i of token t is
    # symflat[code[t]*8 + (i - offs[t])] → index = i + (code[t]*8 - offs[t])
    adj = token_codes.astype(np.int64) * MAX_SYMBOL_LEN - offs[:-1]
    idx = np.arange(int(offs[-1])) + np.repeat(adj, out_lens)
    out = table.symflat[idx]
    # escape literals overwrite their placeholder byte
    esc_pos = np.nonzero(is_code)[0][esc_tok]
    out[offs[:-1][esc_tok]] = b[np.minimum(esc_pos + 1, n - 1)]
    return out.tobytes()


# ---------------------------------------------------------------------------
# column-level helpers: compress a whole chunk of strings at once


def encode_chunk(data: bytes, table: SymbolTable | None = None) -> bytes:
    """Train on the data and compress. Layout: table | varint len | codes.
    Pass ``table`` to reuse a symbol table already trained by the selector."""
    from .bitpack import write_varint_unsigned

    if table is None:
        table = train(data)
    codes = compress(data, table)
    out = bytearray()
    tbl = table.serialize()
    write_varint_unsigned(out, len(tbl))
    out.extend(tbl)
    write_varint_unsigned(out, len(codes))
    out.extend(codes)
    return bytes(out)


def decode_chunk(buf: bytes) -> bytes:
    from .bitpack import read_varint_unsigned

    tbl_len, pos = read_varint_unsigned(buf, 0)
    table, _ = SymbolTable.deserialize(buf[pos : pos + int(tbl_len)])
    pos += int(tbl_len)
    codes_len, pos = read_varint_unsigned(buf, pos)
    return decompress(buf[pos : pos + int(codes_len)], table)
