"""RLEv2 decode and the bit unpacker are bounded by the bytes present.

Every run's header bytes, varints, base bytes, payload and patch list must
lie inside the buffer; a run that reaches past its end raises ``ValueError``
(never ``IndexError`` or a short read). With a value count, every truncation
of a stream fails. Without one, a truncation decodes only when it falls on a
run boundary, and then gives the values of the runs before it.
"""

import numpy as np
import pytest

from apacheorcdotnet_ray.codecs import rlev2
from apacheorcdotnet_ray.codecs.bitpack import (decode_direct_width, find_nearest_direct_width,
                                               unpack_bits)
from test_int_codec_bytes import _extremes, _monotonic, _outliers, _random, _runs


def _mixed(seed: int) -> np.ndarray:
    """About 2,300 values that reach every sub-mode, in a seeded order."""
    rng = np.random.default_rng(seed)
    gens = [_random, _runs, _monotonic, _outliers, _extremes, _runs, _monotonic]
    rng.shuffle(gens)
    sizes = rng.integers(5, 700, len(gens))
    return np.concatenate([g(int(n), rng) for g, n in zip(gens, sizes)]).astype(np.int64)


def _varint_end(buf: bytes, pos: int) -> int:
    while buf[pos] & 0x80:
        pos += 1
    return pos + 1


def _run_ends(enc: bytes) -> list[tuple[int, int]]:
    """(byte offset after the run, values so far) for every run, from the
    run headers alone (ORC specification, RLEv2)."""
    ends, pos, total = [], 0, 0
    while pos < len(enc):
        first = enc[pos]
        kind = first >> 6
        if kind == 0:
            pos += 2 + ((first >> 3) & 7)
            total += (first & 7) + 3
        else:
            n = (((first & 1) << 8) | enc[pos + 1]) + 1
            w = decode_direct_width((first >> 1) & 0x1F)
            if kind == 1:
                pos += 2 + (n * w + 7) // 8
            elif kind == 2:
                third, fourth = enc[pos + 2], enc[pos + 3]
                list_w = find_nearest_direct_width(
                    decode_direct_width(third & 0x1F) + (fourth >> 5) + 1)
                base_bytes = (third >> 5) + 1
                pos += 4 + base_bytes + (n * w + 7) // 8 + ((fourth & 0x1F) * list_w + 7) // 8
            else:
                w = w if (first >> 1) & 0x1F else 0
                pos = _varint_end(enc, _varint_end(enc, pos + 2))
                pos += ((n - 2) * w + 7) // 8
            total += n
        ends.append((pos, total))
    return ends


@pytest.mark.parametrize("seed,signed", [(1, True), (2, False), (3, True)])
def test_every_truncation(seed, signed):
    v = _mixed(seed)
    enc = rlev2.encode(v, signed=signed)
    ends = dict(_run_ends(enc))
    assert max(ends) == len(enc) and ends[len(enc)] == len(v)
    for t in range(len(enc)):
        cut = enc[:t]
        with pytest.raises(ValueError):
            rlev2.decode(cut, signed, len(v))
        with pytest.raises(ValueError):
            rlev2.decode_from(cut, 0, signed, len(v), allow_overshoot=True)
        if t in ends or t == 0:
            got = rlev2.decode(cut, signed)
            assert np.array_equal(got, v[:ends.get(t, 0)])
        else:
            with pytest.raises(ValueError):
                rlev2.decode(cut, signed)


def _single_run(v: np.ndarray, kind: int) -> bytearray:
    enc = rlev2.encode(v, signed=True)
    assert enc[0] >> 6 == kind and [e for e, _ in _run_ends(enc)] == [len(enc)]
    return bytearray(enc)


def test_inflated_direct_count():
    v = _random(100, np.random.default_rng(5)).astype(np.int64)
    enc = _single_run(v, 1)
    enc[0] |= 1
    enc[1] = 0xFF  # 512 values, for the payload of 100
    for count in (None, 100, 512):
        with pytest.raises(ValueError):
            rlev2.decode(bytes(enc), True, count)
    with pytest.raises(ValueError):
        rlev2.decode_from(bytes(enc), 0, True, 100, allow_overshoot=True)


def test_inflated_patch_list_length():
    v = _outliers(512, np.random.default_rng(6)).astype(np.int64)
    enc = _single_run(v, 2)
    assert enc[3] & 0x1F < 31
    enc[3] |= 0x1F  # 31 patch entries, past the end of the list
    for count in (None, 512):
        with pytest.raises(ValueError):
            rlev2.decode(bytes(enc), True, count)


def test_patch_position_past_run():
    v = _outliers(512, np.random.default_rng(6)).astype(np.int64)
    enc = _single_run(v, 2)
    width = decode_direct_width((enc[0] >> 1) & 0x1F)
    patch_list = 4 + (enc[2] >> 5) + 1 + (512 * width + 7) // 8
    # every entry all ones: each moves the position by the largest gap
    enc[patch_list:] = b"\xff" * (len(enc) - patch_list)
    assert (enc[3] & 0x1F) * ((1 << ((enc[3] >> 5) + 1)) - 1) >= 512
    for count in (None, 512):
        with pytest.raises(ValueError):
            rlev2.decode(bytes(enc), True, count)


def test_unpack_bits_bounds():
    data = bytes(range(16))
    for width in (0, 65):
        with pytest.raises(ValueError):
            unpack_bits(data, width, 1)
    with pytest.raises(ValueError):
        unpack_bits(data, 13, 10, 1)  # 17 bytes from byte 1 of 16
    vals, used = unpack_bits(data, 13, 9, 1)
    assert used == 15 and len(vals) == 9
