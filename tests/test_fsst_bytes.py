"""Byte pins for the FSST encoder: sha256 prefixes of ``train(s).serialize()``
and ``encode_chunk(s)`` on seeded inputs.

A faster trainer or parser must give exactly these symbol tables and code
streams. The cases cover the encoder's edge rules: the ``n < 16`` scalar
path, block sizes of ``min(1024, max(64, ceil(n / 64)))`` bytes, matches
that cross a block's end or run into the zero padding past the data (both
become escapes), and rank ties between candidates of equal gain.
"""

import hashlib

import numpy as np
import pytest

from apacheorcdotnet_ray.codecs import fsst

LENGTHS = (0, 1, 15, 16, 17, 63, 64, 65, 1023, 1025, 40_000)
_SOURCES = ("web", "books", "code", "wiki")
_WORDS = ("a the key agg row scan slow fast table value part hash merge batch "
          "line sort window order data column join small query big").split()


def _ids(n: int, seed: int) -> bytes:
    """doc_id-style strings as the tokens corpus writes them, concatenated."""
    rng = np.random.default_rng(seed)
    out = bytearray()
    i = 0
    while len(out) < n:
        out += f"{_SOURCES[rng.integers(len(_SOURCES))]}-{i:012d}".encode()
        i += 1
    return bytes(out[:n])


def _text(n: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    words = rng.choice(np.asarray(_WORDS, dtype=object), n // 2 + 1)
    return " ".join(words).encode()[:n]


def _alphabet(n: int, k: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    base = 0 if k == 256 else ord("a")
    return (rng.integers(0, k, n) + base).astype(np.uint8).tobytes()


CASES = {}
for n in LENGTHS:
    CASES[f"ids-{n}"] = (_ids(n, 1), None)
    CASES[f"text-{n}"] = (_text(n, 2), None)
for k in (1, 2, 256):
    for n in (15, 17, 1025, 40_000):
        CASES[f"alpha{k}-{n}"] = (_alphabet(n, k, 3 + k), None)
# a table full of symbols that end in zero bytes, and data that ends partway
# through such a symbol (a match would run into the padding) or has one
# straddling a block end
_ZERO_SAMPLE = b"xy\x00\x00" * 300 + b"q\x00\x00\x00\x00\x00" * 200
for n in (17, 64, 65, 1025, 4099):
    CASES[f"zeros-{n}"] = ((b"xy\x00\x00q\x00\x00\x00\x00\x00" * n)[:n - 1] + b"\x00",
                           _ZERO_SAMPLE)

EXPECTED = {
    "alpha1-1025": ('aa0c523d74a933ba', '8a005314f9d50879'),
    "alpha1-15": ('1c4aa004d0917dca', 'e765e6bd3f2b2acb'),
    "alpha1-17": ('aa0c523d74a933ba', '9eac9bca4c73b13e'),
    "alpha1-40000": ('d7ae32e6dcea2636', 'e56384cfc0ae8c55'),
    "alpha2-1025": ('25a9d9c44a6892ba', 'bc20d63014b5e943'),
    "alpha2-15": ('e57dfdada7b06b54', '70d30a2009ba89e3'),
    "alpha2-17": ('81b7922aac224ddf', 'ab701f1e93a940cf'),
    "alpha2-40000": ('8b21963ec707ac15', '02a11c70cf26502b'),
    "alpha256-1025": ('6b0b1850a9dd2e61', '277203c6f71d88f7'),
    "alpha256-15": ('ae761b8c6169db59', '01632357c1689def'),
    "alpha256-17": ('e8743e39353d9dce', '23e2a071bd4d10b9'),
    "alpha256-40000": ('f4589b58a6a569a2', '8fe758f73757f8ae'),
    "ids-0": ('6e340b9cffb37a98', 'fb50dc0717ff266c'),
    "ids-1": ('d2391f25a1f2f785', '35c6716426d95d44'),
    "ids-1023": ('13cd10fffebab3fa', 'd05fbafb3ea681a1'),
    "ids-1025": ('871e6f7d60ae90f6', '9a00734898edd9fd'),
    "ids-15": ('2dad19a7a7b628d9', '6218403151ca7e13'),
    "ids-16": ('174b2eb00b131b96', '31fe9028ff46c44b'),
    "ids-17": ('359158e84218396d', '26c603e8f50e573e'),
    "ids-40000": ('e2582fd63bb01842', 'c0982f64596721fc'),
    "ids-63": ('137780e125efaaa1', '878143bf21673d54'),
    "ids-64": ('54e9e5c21b9e02f7', '4c72ac57816e915e'),
    "ids-65": ('532cb2a680be4dd4', 'd4ef34735acc9406'),
    "text-0": ('6e340b9cffb37a98', 'fb50dc0717ff266c'),
    "text-1": ('e895cecc0611d63e', '3df526ad4448ba10'),
    "text-1023": ('6cdcd1247c661d99', 'd939dc754d805878'),
    "text-1025": ('982d39508f08f83c', '5812e13e41de633a'),
    "text-15": ('6a2d9ea73310d062', '52b03912b47ba17c'),
    "text-16": ('0a3e8c278c17d32d', '927a8d399a550182'),
    "text-17": ('2b30f9971a851023', '0f68de7a2fe8293c'),
    "text-40000": ('1622f4dd6b1938bb', '24c33914b0e0fcd9'),
    "text-63": ('da2d3f19d0ffc7e8', '286e029a713e166b'),
    "text-64": ('e3aee960aa637bea', '4c850de46fa0eab4'),
    "text-65": ('214482c64b43278e', '4401ea77e128abd4'),
    "zeros-1025": ('170cdd53e748a740', 'd329dca63daf95c6'),
    "zeros-17": ('170cdd53e748a740', 'c8b30d5c1f75ed4d'),
    "zeros-4099": ('170cdd53e748a740', '6cebe568b39c2571'),
    "zeros-64": ('170cdd53e748a740', '9081021866fcd41f'),
    "zeros-65": ('170cdd53e748a740', 'fafb470959407f6e'),
}


def _digest(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_fsst_bytes_pinned(case):
    data, sample = CASES[case]
    table = fsst.train(data if sample is None else sample)
    enc = fsst.encode_chunk(data, table=table)
    assert fsst.decode_chunk(enc) == data
    assert (_digest(table.serialize()), _digest(enc)) == EXPECTED[case]


def test_zero_ending_symbols_present():
    """The zeros cases only probe the padding rule if the table holds
    multi-byte symbols ending in a zero byte."""
    table = fsst.train(_ZERO_SAMPLE)
    assert any(len(s) > 1 and s.endswith(b"\x00") for s in table.symbols)


def _loop_compress(data: bytes, table: fsst.SymbolTable) -> bytes:
    """The encoder's rules as a plain loop: greedy longest match over the data
    followed by zero padding, in blocks, where a match that crosses its
    block's end (or the data's end) is an escape."""
    n = len(data)
    if n < 16:
        return fsst.compress_scalar(data, table)
    padded = data + bytes(8)
    block = min(1024, max(64, -(-n // 64)))
    longest_first = sorted(enumerate(table.symbols), key=lambda t: -len(t[1]))
    out = bytearray()
    pos = 0
    while pos < n:
        end = min(pos - pos % block + block, n)
        hit = next(((c, s) for c, s in longest_first if padded.startswith(s, pos)), None)
        if hit is None or pos + len(hit[1]) > end:
            out += bytes([fsst.ESCAPE, data[pos]])
            pos += 1
        else:
            out.append(hit[0])
            pos += len(hit[1])
    return bytes(out)


@pytest.mark.parametrize("seed", range(12))
def test_compress_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 3000))
    if seed % 2:
        data = _alphabet(n, int(rng.integers(1, 257)), seed)
    else:
        data = (_text(n, seed).replace(b" ", b"\x00") if seed % 4 else _ids(n, seed))
    table = fsst.train(data[: n // 2])
    assert fsst.compress(data, table) == _loop_compress(data, table)
