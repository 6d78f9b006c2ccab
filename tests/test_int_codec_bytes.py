"""Byte pins for the integer encoders: sha256 prefixes of ``rlev2.encode``
(signed and unsigned, aligned or not), ``intdict.encode``, ``for_.encode``
and ``varint.encode`` on seeded inputs, plus ``pack_bits`` at every width and
``bit_widths`` at the edges of its exact range.

A faster width analysis or bit packer must give exactly these bytes. The
lengths straddle RLEv2's 512-value window and its 256-window batch
(131,072 values), and the inputs reach every RLEv2 sub-mode: SHORT_REPEAT
(runs), DELTA (monotonic), PATCHED_BASE (outliers) and DIRECT (random,
int64 extremes).
"""

import hashlib

import numpy as np
import pytest

from apacheorcdotnet_ray.codecs import bitpack, for_, intdict, rlev2, varint

LENGTHS = (0, 1, 3, 4, 10, 11, 511, 512, 513, 131_072, 131_073)
_I64 = np.iinfo(np.int64)


def _random(n, rng):
    return rng.integers(-(1 << 20), 1 << 20, n)


def _runs(n, rng):
    vals = rng.integers(-50, 50, n)
    reps = rng.integers(1, 14, n)
    return np.repeat(vals, reps)[:n]


def _monotonic(n, rng):
    return 1_000 + np.cumsum(rng.integers(0, 40, n))


def _outliers(n, rng):
    v = rng.integers(0, 100, n)
    hit = rng.random(n) < 0.03
    v[hit] = rng.integers(1 << 30, 1 << 40, int(hit.sum()))
    return v


def _extremes(n, rng):
    pool = np.array([_I64.min, _I64.max, _I64.min + 1, _I64.max - 1, 0, -1, 1],
                    dtype=np.int64)
    return pool[rng.integers(0, len(pool), n)]


GENERATORS = {"random": _random, "runs": _runs, "monotonic": _monotonic,
              "outliers": _outliers, "extremes": _extremes}


def _input(gen: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([sorted(GENERATORS).index(gen), n])
    return GENERATORS[gen](n, rng).astype(np.int64)


def _sha(buf) -> str:
    return hashlib.sha256(b"<none>" if buf is None else bytes(buf)).hexdigest()[:12]


def _encodings(v: np.ndarray) -> tuple[str, ...]:
    """rlev2 signed/unsigned x plain/aligned, intdict, for_, varint."""
    return (
        _sha(rlev2.encode(v, signed=True)),
        _sha(rlev2.encode(v, signed=True, aligned=True)),
        _sha(rlev2.encode(v, signed=False)),
        _sha(rlev2.encode(v, signed=False, aligned=True)),
        _sha(intdict.encode(v)),
        _sha(for_.encode(v)),
        _sha(varint.encode(v)),
    )


EXPECTED = {
    "extremes-0": ('e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'df3f619804a9', '709e80c88487', 'e3b0c44298fc'),
    "extremes-1": ('24b1ee5e04f7', '24b1ee5e04f7', '9156cae5b17d', '9156cae5b17d', '4873eb131014', '9c49cd908982', 'd55e918ec237'),
    "extremes-10": ('d5061a78f848', 'd5061a78f848', '445ff155dfe9', '445ff155dfe9', 'd2d9af79f28f', '6e9c960fd025', '007152041819'),
    "extremes-11": ('7879b31d575d', '7879b31d575d', '77ab855d782a', '77ab855d782a', '2a7b30cb3204', '6e9c960fd025', 'c88bfd518510'),
    "extremes-131072": ('6b9144775e4b', '6b9144775e4b', '4c8063c65196', '4c8063c65196', '3bf5929da580', '6e9c960fd025', '3607b5f5d760'),
    "extremes-131073": ('1c969f529e80', '1c969f529e80', '81c0807e13d4', '81c0807e13d4', 'cc76d6b172eb', '6e9c960fd025', '31a800c31559'),
    "extremes-3": ('eec8cbd80b08', 'eec8cbd80b08', '271dbc4caa26', '271dbc4caa26', 'de4fc08afb4e', 'cd970b97dadc', '94c3a2ceb029'),
    "extremes-4": ('4c1b1a33ac44', '4c1b1a33ac44', '1808655fa179', '1808655fa179', '77f7929771ab', 'ad20f1be0124', '825fc0e2f91e'),
    "extremes-511": ('a52c0b39676b', 'a52c0b39676b', '2128405b2c31', '2128405b2c31', 'dd0dc460d732', '6e9c960fd025', 'b9dd995d79cc'),
    "extremes-512": ('5c54ef6dc5af', '5c54ef6dc5af', '1147435bb2dd', '1147435bb2dd', '459fd18e44c3', '6e9c960fd025', 'e531d33cc200'),
    "extremes-513": ('199b10583703', '199b10583703', '739bf3715775', '739bf3715775', 'd0244693a247', '6e9c960fd025', '19b2dae2067b'),
    "monotonic-0": ('e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'df3f619804a9', '709e80c88487', 'e3b0c44298fc'),
    "monotonic-1": ('3f60c53de7f1', 'f5bc32ec240b', '73265272c7c9', '3ce5310a87d2', 'ecf268209b5d', '6abed9329349', 'aeac0e05037c'),
    "monotonic-10": ('36a5b8db11f0', 'bda8cb8ebec1', '72516b37fa5d', '8359c6923148', '08b847cfb322', '32852b83e9a4', '803ad024910a'),
    "monotonic-11": ('34db92ea035e', '6bf6dbbdb097', 'f9596536de8f', 'fe21ecef64bd', 'f44f351f14d1', 'ef802e26390c', 'e5bcf441a2ec'),
    "monotonic-131072": ('32b3842193a1', '7b6d9e30c3d4', '563f0eecb0f0', '4c7db5b356a0', 'e4ad4201cac3', '5d17c93f2e61', 'bdd725da3ab9'),
    "monotonic-131073": ('b4fd88257bda', 'cef22ca9b925', '10677a21c4b5', '6435c7927038', '027b1f0fb1a7', '766e316eb851', '345173c02e77'),
    "monotonic-3": ('c4292a624daa', '356f2c30d0c0', '294b66bc6640', 'dda778e04635', 'fac4cb41cbbd', '75f4d981d27c', 'a3abac05dd20'),
    "monotonic-4": ('b706c32917b1', 'fdc5f082ceac', '53004dc439d4', '4f99be2b7a6f', 'dfd80b990288', 'bc1f6c48e9eb', 'dba769bb1513'),
    "monotonic-511": ('c4dd14c04c6d', '140ef2e4a0ad', 'c069a15fef37', 'adc901ad50f8', '08e65cf9b81d', '8e97f08a37cf', '952c0bbdc1bf'),
    "monotonic-512": ('06be499ebec8', '80092cd8179b', '7a565dfac698', 'a56de501c649', '21576faca90e', '246ce0e79270', '0b1f0dcf439b'),
    "monotonic-513": ('95a7e5fd86de', '7201152daf54', '552f894fc370', '63ed613012c7', 'ca45e98e3292', 'ef92c0d37c7f', 'e3f7a1624230'),
    "outliers-0": ('e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'df3f619804a9', '709e80c88487', 'e3b0c44298fc'),
    "outliers-1": ('b9ad7a2e0e89', 'addd73ddfa12', 'ecf21c638ce9', '5503e2b1119b', 'd41f3786ef8f', '9a86b39b7d8f', 'e7ac0786668e'),
    "outliers-10": ('b1efcdaa5c6b', 'b1efcdaa5c6b', '6ee0bb664b58', '6ee0bb664b58', '90ed66d98799', '6b83b4695600', '0115d144a88d'),
    "outliers-11": ('b4df3d16274c', 'b4df3d16274c', '525bfc841c6f', '525bfc841c6f', 'b32559f396e3', '7218656363f4', '1b808af5cd93'),
    "outliers-131072": ('384df2056332', '384df2056332', '5252a4e0d265', '5252a4e0d265', '4ffeff984e50', '73068d86b0bb', '81fe0e1252a1'),
    "outliers-131073": ('8571196705fa', '8571196705fa', 'eb2ae3109ff4', '7c3ee373b3bc', '4d1470dada15', 'f69ff161bc0e', 'b4ab45310330'),
    "outliers-3": ('fb9e27ddbbb0', 'fb9e27ddbbb0', '5af39cf58722', 'a23cb2237b8e', '05ff1c54f85e', '94d9e98a67b8', 'ce9ffacbf685'),
    "outliers-4": ('92dc32a3e3f0', '92dc32a3e3f0', 'c0965c60359b', '3e6d2b19a9bc', '88ae3bb8128a', '492c73a02f2f', 'd1324737d80f'),
    "outliers-511": ('7d1d682f115b', '7d1d682f115b', '7d1d682f115b', '7d1d682f115b', '7cd8f2773e3e', '7a264bd6247e', '31062765f5d7'),
    "outliers-512": ('0a6c1611122a', '0a6c1611122a', '0a6c1611122a', '0a6c1611122a', '2c937d02fa1e', '3d79dc57593a', '4daabb83ab07'),
    "outliers-513": ('92fda9c87dc2', '4edbec3ce55d', '54ef9a3c8d5a', 'c9461953f148', 'a67c5ea9990f', 'f856b86dbb41', 'a02bf303cb3b'),
    "random-0": ('e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'df3f619804a9', '709e80c88487', 'e3b0c44298fc'),
    "random-1": ('7073880bda1c', '22081ee42668', '3e800a2397f8', '825fc3c716c9', 'e7f647fa80a0', '2b341242baf6', '37e8d38969da'),
    "random-10": ('3cbd0c54b571', '9993e1efb140', '205c8ac2ceb8', '205c8ac2ceb8', '3abd1362d4fa', '6a2be73b4f89', 'e5359073eb72'),
    "random-11": ('866adc8b812d', 'b62264ae58b0', '2e93f033201f', '2e93f033201f', '2e4957d8727b', '15d8338bf704', '33b640ba2422'),
    "random-131072": ('34745ee461c8', 'dc8de684563a', '18cd11ac4899', '18cd11ac4899', '395134159a1d', 'f7dc1aecb522', '806c609d4440'),
    "random-131073": ('1569c46d45cb', 'b345a3a97353', '523c83461bbd', 'd16e338a4fc8', 'a0d86675072f', '185c246db9a2', 'ef2847ccdf5d'),
    "random-3": ('b555ea9e6bd2', 'fc51ab3b4ade', '66a0f65552f9', '66a0f65552f9', 'c7d343205bb8', '171a2360d9a6', '787ec94db198'),
    "random-4": ('8f2f315df93e', '57b34fc9ddcb', '341a86a8644a', '341a86a8644a', 'd49624d4d1d8', 'f03e1e0288ea', '713f5067f1fe'),
    "random-511": ('69df432cb053', '79cc44f96e2d', '9036b6b94994', '9036b6b94994', '90bd6bbf29fc', '6b9ef03ea465', '517b6627ddd8'),
    "random-512": ('faba55de09de', 'e6aaf46b9edf', '21c36da640de', '21c36da640de', 'a8ce55ea24fa', '20958861ec9b', '3d6cde716e27'),
    "random-513": ('fdc1ae41af89', '3e66b0ff4053', 'd1279ce4b90b', 'd1279ce4b90b', 'ac23a73aeca1', '9e23c60db60c', 'fd6525584b3f'),
    "runs-0": ('e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'df3f619804a9', '709e80c88487', 'e3b0c44298fc'),
    "runs-1": ('19c09af4ea81', '19c09af4ea81', '6bc645c4504b', '6bc645c4504b', '9b6788d5fa56', '174e7c03e0d7', '9d1e0e2d9459'),
    "runs-10": ('6327545e809a', '6327545e809a', '56f90335a09a', '56f90335a09a', '6d32b030893f', 'd40b60b5f207', 'b76ac919aadf'),
    "runs-11": ('b2fe29d12a8d', 'b2fe29d12a8d', 'c811ee44670b', 'c811ee44670b', 'b90be2579ffb', 'ac97166f3532', '2ae8ce074b01'),
    "runs-131072": ('8299f106b459', '0fba87c119ae', '39da8ac60506', '39da8ac60506', '5e5a7240d58a', '0980bd880aa6', '3ac92c3e8261'),
    "runs-131073": ('3e473ae524c2', '360c6aef350f', '367e9f4bc06e', '367e9f4bc06e', '6c76024e53a6', '1f1f10b4665d', 'ea082b65734c'),
    "runs-3": ('e5241a757ca0', 'edc43cc7a090', 'fbe27bfc23db', 'fbe27bfc23db', '72261aca3729', 'a472655cc379', '83cf8b609de6'),
    "runs-4": ('ae58b7e08e26', 'ae58b7e08e26', '46b2953e62ad', '46b2953e62ad', 'aacef63e2086', '074ea2d5e34d', '27db6c926284'),
    "runs-511": ('73a8cfcce8f5', 'fbf383c41f06', '7ed5a490e560', '7ed5a490e560', 'e1fe7a0fe900', 'dea47f4d16e7', 'dda7d0d24080'),
    "runs-512": ('37faa5b7bf7d', '1cf50acfd1a6', '20f8b9b5ae9e', '20f8b9b5ae9e', '576a1de4aee3', '8bf3faf71900', 'e7161a4b22f0'),
    "runs-513": ('523ecb07e169', 'f8cd4edca5d4', 'ad51c5c08c91', 'd181c8b97136', '4abe4fa3a93f', '4edcf87ba3bc', '23a11bbc6d11'),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_int_encoder_bytes(case):
    gen, n = case.rsplit("-", 1)
    assert _encodings(_input(gen, int(n))) == EXPECTED[case]


def test_cases_cover_every_input_and_length():
    assert set(EXPECTED) == {f"{g}-{n}" for g in GENERATORS for n in LENGTHS}


# sha256 prefix of pack_bits at each width over 0, 1, 37 and 513 values
PACK_EXPECTED = {
    1: '9c53f6598bde', 2: '8976fbe4dc36', 3: '0488192ef462', 4: '0fd016bb35b6',
    5: '20d16afe934c', 6: 'da96adbb2d5a', 7: '97f5fbe08a6f', 8: '623da0d83dc8',
    9: 'beb442a6af91', 10: 'a6116f7724ee', 11: 'b4e322319803', 12: '96b1a860c02d',
    13: 'ea778f51de2c', 14: '3f33296bd734', 15: '774f7b1dc43d', 16: '52d8a8e8c686',
    17: '6d5df8a6e0b2', 18: '1a4e5118f041', 19: '6e0e47e92781', 20: '8ed09d78c4e0',
    21: '49fbfeabf2d7', 22: 'df92d2367b64', 23: '3c598cca8cb2', 24: 'd35193f83565',
    25: 'eadaa1f8d3a4', 26: '93a836ce2706', 27: 'fdb5aad66631', 28: '0e7f7e234a2c',
    29: 'c9e222fd81c4', 30: 'a416055d85f3', 31: '54be3fec50a9', 32: 'a5f1791d4b58',
    33: '4e7e02e06657', 34: 'cb0fdda43ec4', 35: 'f49f5f8bfa56', 36: '0a4b85fbeb4a',
    37: '49c3756132a7', 38: 'f954d3819886', 39: 'd28adf11a97c', 40: '02589e029f7d',
    41: 'eef4ed6690a0', 42: 'cdf7874b3327', 43: '6397942e39ce', 44: '9ef1d9ba70b9',
    45: '071e10bfc8ef', 46: '8f10b9d74c86', 47: '372b58ff9266', 48: '3e2772c4255f',
    49: '913ae454b469', 50: '2051b056f14e', 51: 'd74bfd2d37e9', 52: 'd91ebc8101f4',
    53: 'ef728f64be49', 54: '5490e2e85db7', 55: 'e3de4c8a52ea', 56: 'd0b0eda841c0',
    57: 'a5cc2afa34f1', 58: '3b8960997a2b', 59: 'b87b8c920fbb', 60: 'f88288e0a935',
    61: 'e03631cad1d9', 62: 'f98b8139e199', 63: 'ad11195a1d96', 64: 'e4e51990cf28',
}


def test_pack_bits_every_width():
    rng = np.random.default_rng(7)
    # every bit set at random, so each value has bits above the width, and
    # a strided view, so the input is not contiguous
    src = rng.integers(0, 1 << 64, 2 * 513, dtype=np.uint64, endpoint=False)[::2]
    assert not src.flags.c_contiguous
    got = {}
    for w in range(1, 65):
        h = hashlib.sha256()
        for n in (0, 1, 37, 513):
            h.update(bitpack.pack_bits(src[:n], w))
        got[w] = h.hexdigest()[:12]
    assert got == PACK_EXPECTED


def test_bit_widths_edges():
    vals = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 53) - 1, 1 << 53, (1 << 53) + 1,
            1 << 63, (1 << 64) - 1]
    want = [v.bit_length() for v in vals]
    u = np.array(vals, dtype=np.uint64)
    assert bitpack.bit_widths(u).tolist() == want
    assert bitpack.bit_widths(u.view(np.int64)).tolist() == want
    strided = np.repeat(u, 2)[::2]
    assert bitpack.bit_widths(strided).tolist() == want
    assert bitpack.bit_widths(u[:0]).tolist() == []
