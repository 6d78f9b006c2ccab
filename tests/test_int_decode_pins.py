"""Decode pins for RLEv2 and the bit unpacker: sha256 prefixes of
``rlev2.decode_from`` outputs and of ``bitpack.unpack_bits`` at every width.

A faster decoder must give exactly these values and end positions. Every
RLEv2 stream of ``test_int_codec_bytes`` (5 input regimes x lengths, signed
or unsigned, aligned or not) is decoded at ``pos > 0`` inside a larger
buffer: once to the buffer's end, and once with an ``expected_count`` below
the stream's total and ``allow_overshoot``, as an ORC ROW_INDEX seek
decodes. ``unpack_bits`` is read at widths 1-64, byte offsets 0-7 and counts
that end inside an 8-value block, from a buffer that ends at the last byte
the call consumes.
"""

import hashlib

import numpy as np
import pytest

from apacheorcdotnet_ray.codecs import bitpack, rlev2
from test_int_codec_bytes import GENERATORS, LENGTHS, _input

PREFIX = bytes([0x5A, 0xFF, 0x00])  # bytes before the stream: never read
SUFFIX = bytes(range(200, 240))     # bytes after it: read only without a count


def _decoded(v: np.ndarray, signed: bool, aligned: bool) -> str:
    enc = rlev2.encode(v, signed=signed, aligned=aligned)
    start = len(PREFIX)
    full, end = rlev2.decode_from(PREFIX + enc, start, signed)
    assert end == start + len(enc) and np.array_equal(full, v)
    want = (2 * len(v)) // 3
    part, part_end = rlev2.decode_from(PREFIX + enc + SUFFIX, start, signed,
                                       expected_count=want, allow_overshoot=True)
    assert len(part) >= want and np.array_equal(part[:want], v[:want])
    h = hashlib.sha256()
    for arr, pos in ((full, end), (part, part_end)):
        h.update(arr.astype("<i8").tobytes())
        h.update(pos.to_bytes(8, "little"))
    return h.hexdigest()[:12]


# (signed, aligned) in the order (T, F), (T, T), (F, F), (F, T)
DECODE_EXPECTED = {
    "extremes-0": ('0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80'),
    "extremes-1": ('ae5c1887f327', 'ae5c1887f327', 'ae5c1887f327', 'ae5c1887f327'),
    "extremes-3": ('57ebb0a6b2e6', '57ebb0a6b2e6', '57ebb0a6b2e6', '57ebb0a6b2e6'),
    "extremes-4": ('650129720308', '650129720308', '650129720308', '650129720308'),
    "extremes-10": ('b9458b202f91', 'b9458b202f91', 'b9458b202f91', 'b9458b202f91'),
    "extremes-11": ('9455d47381a9', '9455d47381a9', '9455d47381a9', '9455d47381a9'),
    "extremes-511": ('1a9eb314f2e5', '1a9eb314f2e5', '1a9eb314f2e5', '1a9eb314f2e5'),
    "extremes-512": ('1a75fdb167b3', '1a75fdb167b3', '1a75fdb167b3', '1a75fdb167b3'),
    "extremes-513": ('a29a39076073', 'a29a39076073', '0a5743649fa8', '0a5743649fa8'),
    "extremes-131072": ('66406d36d7cf', '66406d36d7cf', '5fe4ffd8203c', '5fe4ffd8203c'),
    "extremes-131073": ('dac1b5ff07af', 'dac1b5ff07af', '928133c0a9ba', '928133c0a9ba'),
    "monotonic-0": ('0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80'),
    "monotonic-1": ('dc1883027914', 'dc1883027914', 'dc1883027914', 'dc1883027914'),
    "monotonic-3": ('661ab8817c6e', '4f5e66e70f2d', '661ab8817c6e', '4f5e66e70f2d'),
    "monotonic-4": ('209a4b185860', '209a4b185860', '209a4b185860', '209a4b185860'),
    "monotonic-10": ('c79363bf564c', '0a4779367a30', 'c79363bf564c', '0a4779367a30'),
    "monotonic-11": ('4ec6f0453466', '70fa4bc84dd1', '4ec6f0453466', '70fa4bc84dd1'),
    "monotonic-511": ('5b71220cceb6', '18487e53a628', '5b71220cceb6', '18487e53a628'),
    "monotonic-512": ('a23b52526528', '86a77ebffe9b', 'a23b52526528', '86a77ebffe9b'),
    "monotonic-513": ('2e301daf1166', '8870b3e1cf14', '2e301daf1166', '8870b3e1cf14'),
    "monotonic-131072": ('2dd72a10b3f7', 'd48ce3d6550c', '5e5a03804736', '1df6f7412c3c'),
    "monotonic-131073": ('637098c5c730', '411039cf8649', '9c5c287f0397', 'cfbac2bedd7b'),
    "outliers-0": ('0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80'),
    "outliers-1": ('5b36f294a365', '5b36f294a365', '5b36f294a365', '5b36f294a365'),
    "outliers-3": ('48f984970597', '48f984970597', '48f984970597', '48f984970597'),
    "outliers-4": ('25794613b5ae', '25794613b5ae', '25794613b5ae', '25794613b5ae'),
    "outliers-10": ('6ad8aa4e0b70', '6ad8aa4e0b70', '6ad8aa4e0b70', '6ad8aa4e0b70'),
    "outliers-11": ('35b79e830d30', '35b79e830d30', 'e9407105af4f', 'e9407105af4f'),
    "outliers-511": ('ad6a61cbc298', 'ad6a61cbc298', 'ad6a61cbc298', 'ad6a61cbc298'),
    "outliers-512": ('09aef6b6163f', '09aef6b6163f', '09aef6b6163f', '09aef6b6163f'),
    "outliers-513": ('9911236c7410', '9911236c7410', '9911236c7410', '9911236c7410'),
    "outliers-131072": ('083392fdcf1d', '083392fdcf1d', '70dec3ec6e2e', '70dec3ec6e2e'),
    "outliers-131073": ('e3f04c8b6c56', 'e3f04c8b6c56', '16ad7c78aa0e', '16ad7c78aa0e'),
    "random-0": ('0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80'),
    "random-1": ('f272a9271870', 'f272a9271870', 'f272a9271870', 'f272a9271870'),
    "random-3": ('1953afdc59fb', '528b17186681', '59fb1f84049e', '59fb1f84049e'),
    "random-4": ('ac3da52d70b4', 'f6946a08670a', '48785de1b3ef', '48785de1b3ef'),
    "random-10": ('f4dbe7e198a6', '378dac0bbff1', '7e2ab38a2129', '7e2ab38a2129'),
    "random-11": ('caf51c4fc8dd', '9a7cc00dda8b', '4c0419e501f2', '4c0419e501f2'),
    "random-511": ('70a35a73c2bb', 'b33d3e480fcb', '125497be3f1d', '125497be3f1d'),
    "random-512": ('a6b8cb533e0d', '23a758755002', 'cbeb9f342243', 'cbeb9f342243'),
    "random-513": ('638437058f65', 'b133fcb3530d', '3391b98b3e57', '3391b98b3e57'),
    "random-131072": ('36f52aa67625', 'af4a176fe756', '2b2b3c0c102c', '2b2b3c0c102c'),
    "random-131073": ('d640037325d9', 'dff16311d7a8', 'e926a6c8f909', 'e926a6c8f909'),
    "runs-0": ('0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80', '0fec49e5cb80'),
    "runs-1": ('e151e5f711b2', 'e151e5f711b2', '0c66ce4fca7a', '0c66ce4fca7a'),
    "runs-3": ('baea648cdeec', 'baea648cdeec', '9a278b3309ed', '9a278b3309ed'),
    "runs-4": ('81f4aad6b147', '81f4aad6b147', 'ec3c785e088b', 'ec3c785e088b'),
    "runs-10": ('fb8334f5e4c2', 'fb8334f5e4c2', 'fb8334f5e4c2', 'fb8334f5e4c2'),
    "runs-11": ('cb5aa5febb60', 'cb5aa5febb60', '6bd54a72b162', '6bd54a72b162'),
    "runs-511": ('0e93479351f6', '96a48568c082', 'a51fdcfa2d26', 'a51fdcfa2d26'),
    "runs-512": ('bc6b63b13d2d', '3d5e5a6149c4', '2c35dd0fbae8', '2c35dd0fbae8'),
    "runs-513": ('e08c273f914e', 'dd6b41c69063', '66df339f93f7', '66df339f93f7'),
    "runs-131072": ('82806b76de45', 'efdded302df9', '7bf03bbb03d7', '7bf03bbb03d7'),
    "runs-131073": ('2abec3026272', '20ecfb25a09d', 'a2c1005d2236', 'a2c1005d2236'),
}


@pytest.mark.parametrize("case", sorted(DECODE_EXPECTED))
def test_rlev2_decode_pins(case):
    gen, n = case.rsplit("-", 1)
    v = _input(gen, int(n))
    got = tuple(_decoded(v, s, a)
                for s, a in ((True, False), (True, True), (False, False), (False, True)))
    assert got == DECODE_EXPECTED[case]


def test_decode_cases_cover_every_input_and_length():
    assert set(DECODE_EXPECTED) == {f"{g}-{n}" for g in GENERATORS for n in LENGTHS}


UNPACK_COUNTS = (1, 7, 9, 511, 4097)

# sha256 prefix per width over byte offsets 0-7 x UNPACK_COUNTS
UNPACK_EXPECTED = {
    1: '07d0daaaae81', 2: 'c29602ec5ce7', 3: 'c13d36904d6e', 4: '1cbdf3738814',
    5: '103e5fe47725', 6: 'a23a4f6bb400', 7: '177fdc893693', 8: '766b4167b2e5',
    9: 'ed46582adea0', 10: 'a640ba652475', 11: 'd0287c3696e9', 12: 'a8c0d0802906',
    13: 'acb667113f95', 14: '8ffdf12cfc80', 15: '137e09ac21d8', 16: 'a88de6f2bcae',
    17: 'a11efc517485', 18: 'fee335d418c1', 19: '0b484623f76a', 20: 'a60ddef698fb',
    21: 'c7e0786f49ea', 22: 'aceb5198e22e', 23: '6362c758021b', 24: '4265eb23f467',
    25: '271fe31a64fe', 26: 'ff5a9b749165', 27: '1f79c5d65fe8', 28: '8b594bfb92ee',
    29: '1b7a87d3e62e', 30: '90ad2a4176e3', 31: '54fe5bfe5c80', 32: '48fb22cf9725',
    33: '065597e5424b', 34: '44838adc3c4a', 35: '5cb0801f3bfe', 36: 'a7c76cb53a3c',
    37: 'bd0948b5543a', 38: '77e71092fc09', 39: 'dc82d107ce60', 40: '93521fd285ee',
    41: '43360ae70194', 42: '99dfcd78dc98', 43: 'ed71fee2d3cf', 44: '7231931161a5',
    45: '29959e32d952', 46: '858658fbb56f', 47: '87961c7717af', 48: '0dc84c2b3ede',
    49: '67bac7e8b73b', 50: '69ce1e040933', 51: 'cda039b55599', 52: 'a3fec0c5dfc0',
    53: '39eab2cd817e', 54: '57a754c1c1f9', 55: '7c3527608d3f', 56: '69d5cd01bf43',
    57: '7183d533945b', 58: '62e43b0b438a', 59: 'c21c1d727698', 60: 'ef47171d8fcf',
    61: '07e33c970ef1', 62: 'fef602bb8ce9', 63: '892fd4f889fd', 64: '99b7d33ed118',
}


def test_unpack_bits_every_width_offset_count():
    pool = np.random.default_rng(11).integers(0, 256, 8 + 4097 * 8, dtype=np.uint8).tobytes()
    got = {}
    for w in range(1, 65):
        h = hashlib.sha256()
        for off in range(8):
            for n in UNPACK_COUNTS:
                nbytes = (n * w + 7) // 8
                vals, consumed = bitpack.unpack_bits(pool[:off + nbytes], w, n, off)
                assert consumed == nbytes and len(vals) == n
                if n == 9:
                    big = int.from_bytes(pool[off:off + nbytes], "big")
                    ref = [(big >> (nbytes * 8 - (i + 1) * w)) & ((1 << w) - 1)
                           for i in range(n)]
                    assert vals.tolist() == ref
                h.update(vals.astype("<u8").tobytes())
        got[w] = h.hexdigest()[:12]
    assert got == UNPACK_EXPECTED
