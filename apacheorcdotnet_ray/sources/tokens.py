"""Deterministic synthetic corpus of pre-tokenized training sequences.

Schema exactly per BASELINE.json input_hint:
``doc_id:string, tokens:list<int32>, n_tok:int32, source:string``.

Token value regimes per document exercise every RLEv2 sub-mode, mirroring the
reference's vector suite (FIXTURES.md F1); ``source`` is Zipf-skewed so one
source dominates (exercises hot-partition splitting). Same (shard_id, seed) →
identical bytes, which is what makes N-vs-4N scaling runs comparable and
resume tests reproducible.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 50257
SOURCES = ["web", "code", "books", "wiki", "news", "social", "academic",
           "legal", "forums", "mail"]
_ZIPF = 1.0 / np.arange(1, len(SOURCES) + 1) ** 1.1
_ZIPF /= _ZIPF.sum()

REGIMES = ["random_vocab", "repeat_runs", "monotonic", "clustered_outliers",
           "low_card", "extremes"]


def generate_tokens_shard(shard_id: int, docs_per_shard: int = 10_000, seed: int = 42,
                          mean_len: float = 5.5, sigma: float = 1.0) -> pa.Table:
    rng = np.random.default_rng((seed, shard_id))
    n = docs_per_shard
    lengths = np.clip(rng.lognormal(mean_len, sigma, n), 16, 8192).astype(np.int64)
    src_idx = rng.choice(len(SOURCES), size=n, p=_ZIPF)
    regime_idx = rng.integers(0, len(REGIMES), n)
    # ~weight the hot source toward the cheap-to-compress regimes so skew also
    # skews bytes, not just rows
    total = int(lengths.sum())
    flat = np.empty(total, dtype=np.int32)
    offsets = np.concatenate([[0], np.cumsum(lengths)])

    for r, name in enumerate(REGIMES):
        sel = np.nonzero(regime_idx == r)[0]
        if len(sel) == 0:
            continue
        seg_lens = lengths[sel]
        m = int(seg_lens.sum())
        if name == "random_vocab":
            vals = rng.integers(0, VOCAB, m, dtype=np.int32)
        elif name == "repeat_runs":
            n_runs = m // 5 + 2
            run_vals = rng.integers(0, VOCAB, n_runs, dtype=np.int32)
            run_lens = rng.integers(3, 11, n_runs)
            vals = np.repeat(run_vals, run_lens)[:m].astype(np.int32)
        elif name == "monotonic":
            deltas = rng.integers(0, 4, m, dtype=np.int32)
            vals = np.cumsum(deltas, dtype=np.int64) % VOCAB
            vals = vals.astype(np.int32)
        elif name == "clustered_outliers":
            vals = rng.integers(0, 128, m, dtype=np.int32)
            out_pos = rng.random(m) < 0.05
            vals[out_pos] = rng.integers(VOCAB - 1000, VOCAB, int(out_pos.sum()), dtype=np.int32)
        elif name == "low_card":
            alphabet = rng.integers(0, VOCAB, 8, dtype=np.int32)
            vals = alphabet[rng.integers(0, 8, m)]
        else:  # extremes: int32 boundary values mixed with small ints
            vals = rng.integers(-8, 8, m, dtype=np.int64)
            boundary = rng.random(m) < 0.02
            picks = rng.choice(np.array([-2**31, 2**31 - 1, -1, 0], dtype=np.int64),
                               int(boundary.sum()))
            vals[boundary] = picks
            vals = vals.astype(np.int32)
        # scatter each doc's segment into the flat buffer
        pos = 0
        for i in sel.tolist():
            ln = int(lengths[i])
            flat[offsets[i]: offsets[i] + ln] = vals[pos: pos + ln]
            pos += ln

    sources = [SOURCES[i] for i in src_idx]
    base = shard_id * docs_per_shard
    doc_ids = [f"{s}-{base + i:012d}" for i, s in enumerate(sources)]
    tokens = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(flat))
    return pa.table({
        "doc_id": pa.array(doc_ids),
        "tokens": tokens,
        "n_tok": pa.array(lengths, type=pa.int32()),
        "source": pa.array(sources),
    })


def _write_shard(shard_id: int, docs_per_shard: int, seed: int, path: str) -> None:
    """Write one shard unless it exists (atomically: a crash leaves no
    partial shard under its final name)."""
    if not os.path.exists(path):
        t = generate_tokens_shard(shard_id, docs_per_shard, seed)
        pq.write_table(t, path + ".tmp", compression="zstd")
        os.replace(path + ".tmp", path)


def write_tokens_corpus(out_dir: str, n_shards: int = 8, docs_per_shard: int = 10_000,
                        seed: int = 42, use_ray: bool = False) -> list[str]:
    """Write the corpus as one parquet file per shard. Deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"tokens-{i:05d}.parquet") for i in range(n_shards)]
    if use_ray:
        import ray

        write = ray.remote(num_cpus=1)(_write_shard)
        ray.get([write.remote(i, docs_per_shard, seed, p) for i, p in enumerate(paths)])
    else:
        for i, p in enumerate(paths):
            _write_shard(i, docs_per_shard, seed, p)
    return paths
