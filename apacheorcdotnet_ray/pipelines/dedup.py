"""Deduplication operators over the documents table.

Exact dedup (hash-partition → per-group first), MinHash+LSH, SimHash and
n-gram-Jaccard near-dup, embedding-cosine near-dup. All follow the
shuffle-aware pattern: vectorized per-batch signature computation inside
``map_batches``, then a ``groupby`` over small signature rows (never over full
documents), candidate verification per group, tiny driver-side merge. The
four bucketed near-duplicate operators list the document pairs of a bucket
through one kernel, ``_bucket_pairs``, and drop repeated pairs through one
shuffle, ``_distinct_pairs``.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .shuffle import grouped_map, grouped_sum
from .text import ngram_windows, ngrams, word_counts, words

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# vectorized segment kernels (shared by every in-bucket verify stage)
#
# The LSH-family operators all reduce to "within each bucket, enumerate the
# (i < j) pairs, then score each pair". Buckets are many and small, so a
# Python loop over buckets (or worse, over pairs) dominates; these kernels do
# the enumeration and set-intersection for ALL buckets/pairs of a partition
# in a handful of NumPy calls. ``_bucket_pairs`` is the one enumeration the
# operators call: one row per (bucket, document), then ``_segment_pairs``.


def _segment_pairs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-segment (i < j) index pairs for consecutive segments of the
    given sizes, as GLOBAL indices into the concatenated segments.

    Pair rank r inside a segment maps to (i, j) via the triangular inversion
    j = floor((1 + sqrt(1 + 8r)) / 2), i = r - j(j-1)/2 (exact in float64 up
    to 2^52 pairs per segment; ±1-ulp sqrt rounding is corrected below)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    npairs = sizes * (sizes - 1) // 2
    total = int(npairs.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    seg = np.repeat(np.arange(len(sizes)), npairs)
    pair_starts = np.concatenate([[0], np.cumsum(npairs)])[:-1]
    loc = np.arange(total, dtype=np.int64) - pair_starts[seg]
    j = ((np.sqrt(8.0 * loc + 1.0) + 1.0) // 2).astype(np.int64)
    over = j * (j - 1) // 2 > loc
    j[over] -= 1
    under = (j + 1) * j // 2 <= loc
    j[under] += 1
    i = loc - j * (j - 1) // 2
    val_starts = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    base = val_starts[seg]
    return base + i, base + j


def _group_sizes(
    group_keys: list[np.ndarray], tiebreak: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows by (group_keys..., tiebreak) and return (order, group sizes)
    where groups are runs of equal group_keys in the sorted order — the
    prelude every batched in-bucket verify needs before ``_segment_pairs``."""
    order = np.lexsort((tiebreak, *group_keys[::-1]))
    change = np.zeros(len(order), dtype=bool)
    for k in group_keys:
        ks = k[order]
        change[1:] |= ks[1:] != ks[:-1]
    change[:1] = True
    starts = np.nonzero(change)[0]
    return order, np.diff(np.append(starts, len(order)))


def _bucket_pairs(
    df: pd.DataFrame, keys: list[str], id_col: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of distinct documents that share a bucket (rows of equal
    ``keys``), for all buckets of ``df`` at once.

    Returns (rows, ids, ia, ib). ``rows`` are positions in ``df``, one per
    (bucket, document), so callers gather payload columns with them;
    ``ids`` are their document ids; ``ia < ib`` index ``rows``, with
    ``ids[ia] < ids[ib]``. A pair comes back once per bucket it shares."""
    rows = np.nonzero(df.duplicated(keys, keep=False).to_numpy())[0]
    # sort=True: code order is id order, so pairs come out (smaller, larger)
    codes, uniq = pd.factorize(df[id_col].to_numpy()[rows], sort=True)
    order, sizes = _group_sizes([df[k].to_numpy()[rows] for k in keys], codes)
    codes = codes[order]
    bucket = np.repeat(np.arange(len(sizes)), sizes)
    first = np.ones(len(order), dtype=bool)  # a doc's first row in its bucket
    first[1:] = (bucket[1:] != bucket[:-1]) | (codes[1:] != codes[:-1])
    ia, ib = _segment_pairs(np.bincount(bucket[first], minlength=len(sizes)))
    return rows[order[first]], uniq[codes[first]], ia, ib


def _distinct_pairs(
    pairs: rd.Dataset, a: str, b: str, num_partitions: int = 64
) -> rd.Dataset:
    """One row per (a, b): a pair listed by several buckets, in one
    partition or in several, keeps its first row."""
    return grouped_map(pairs, [a, b], lambda df: df.drop_duplicates([a, b]),
                       num_partitions)


def _typed_pairs(
    ds: rd.Dataset, id_col: str, names: tuple[str, str, str],
    score_type: pa.DataType, pairs: rd.Dataset,
) -> rd.Dataset:
    """``pairs`` behind a zero-row (a, b, score) seed block, a and b typed
    as ``ds``'s ``id_col``: an operator that finds no pair still has its
    columns (Ray drops the schema when every output block is empty, as
    ``setops._schema_seed`` notes)."""
    sch = ds.schema()
    t = sch.types[sch.names.index(id_col)]
    a, b, score = names
    seed = pa.schema([(a, t), (b, t), (score, score_type)]).empty_table()
    return rd.from_arrow(seed).union(pairs)


def _gather_segments(
    vals: np.ndarray, offs: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate vals[offs[d]:offs[d+1]] for each d in idx (vectorized).
    Returns (flat gathered values, per-segment lengths)."""
    lens = (offs[idx + 1] - offs[idx]).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return vals[:0], lens
    cum = np.concatenate([[0], np.cumsum(lens)])[:-1]
    pos = np.arange(total, dtype=np.int64) + np.repeat(offs[idx] - cum, lens)
    return vals[pos], lens


def _pair_intersections(
    vals: np.ndarray, offs: np.ndarray, ia: np.ndarray, ib: np.ndarray,
    chunk: int = 4_000_000,
) -> np.ndarray:
    """|set_a ∩ set_b| for each pair (ia[p], ib[p]), where doc d's UNIQUE
    value set is vals[offs[d]:offs[d+1]]. One lexsort over (pair, value) per
    chunk + an adjacent-duplicate count — no per-pair Python. Chunked so the
    gathered working set stays bounded regardless of pair fan-out."""
    la = (offs[ia + 1] - offs[ia]).astype(np.int64)
    lb = (offs[ib + 1] - offs[ib]).astype(np.int64)
    inter = np.empty(len(ia), dtype=np.int64)
    p0 = 0
    n = len(ia)
    while p0 < n:
        p1 = p0 + 1
        tot = la[p0] + lb[p0]
        while p1 < n and tot + la[p1] + lb[p1] <= chunk:
            tot += la[p1] + lb[p1]
            p1 += 1
        ga, _ = _gather_segments(vals, offs, ia[p0:p1])
        gb, _ = _gather_segments(vals, offs, ib[p0:p1])
        pids = np.arange(p0, p1, dtype=np.int64)
        tags = np.concatenate([np.repeat(pids, la[p0:p1]), np.repeat(pids, lb[p0:p1])])
        gv = np.concatenate([ga, gb])
        order = np.lexsort((gv, tags))
        gv, tags = gv[order], tags[order]
        dup = (gv[1:] == gv[:-1]) & (tags[1:] == tags[:-1])
        inter[p0:p1] = np.bincount(tags[1:][dup] - p0, minlength=p1 - p0)
        p0 = p1
    return inter


# ---------------------------------------------------------------------------
# exact dedup


def dedup_exact(ds: rd.Dataset, key: str = "text", id_col: str = "doc_id") -> rd.Dataset:
    """Keep the min-id row per distinct key value. The shuffle ships only
    (key, id) pairs (projected first); per-partition reduction is one
    vectorized pandas groupby-min."""

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(key, sort=False, as_index=False)[id_col].min()[[id_col]]

    return grouped_map(ds.select_columns([id_col, key]), [key], keep_first)


# ---------------------------------------------------------------------------
# shingles + minhash

def _shingle_mult(k: int) -> np.ndarray:
    """k odd 64-bit multipliers combining k consecutive word hashes into one
    shingle hash (position-dependent so "a b c" != "c b a")."""
    with np.errstate(over="ignore"):
        return (np.arange(k, dtype=np.uint64) * np.uint64(2) + np.uint64(1)) \
            * np.uint64(0x9E3779B97F4A7C15)


def _batch_word_hashes(texts: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized words→uint64 hashes for a whole batch: ``text.words``
    + polars hash (Rust xxhash kernel). Returns (flat word hashes, offsets)."""
    import polars as pl

    flat, offs = words(texts)
    if len(flat) == 0:
        return np.empty(0, dtype=np.uint64), offs
    wh = pl.from_arrow(pa.table({"w": flat}))["w"].hash(seed=0).to_numpy().astype(np.uint64)
    return wh, offs


def _batch_shingle_hashes(
    texts: pa.Array | pa.ChunkedArray, k: int, short: str = "fold"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc k-word-shingle hash sets for a whole batch, vectorized.

    Returns (flat shingle hashes, doc boundary offsets into it). Shingles
    are the ``text.ngram_windows`` windows. A doc with fewer than k words
    has none; ``short`` says what it contributes instead: "fold" → one
    fallback hash (its word-hash fold), "drop" → nothing (the SQL ``WHERE
    len(ws) >= n`` form)."""
    wh, offs = _batch_word_hashes(texts)
    wc = np.diff(offs)
    doc, pos = ngram_windows(wc, k)
    start = offs[:-1][doc] + pos
    mult = _shingle_mult(k)
    with np.errstate(over="ignore"):
        s = wh[start] * mult[0]
        for j in range(1, k):
            s = s + wh[start + j] * mult[j]
    counts = np.bincount(doc, minlength=len(wc))
    is_short = wc < k
    if short == "drop" or not is_short.any():
        return s, np.concatenate([[0], np.cumsum(counts)])
    # fold each short doc's word hashes into one hash, position-dependent
    # (mult[:wc] = same family as full shingles) so permuted word orders do
    # NOT collide — matches the order-sensitive oracle semantics for <k-word
    # docs. Folds are differences of one wrapping running sum, so a doc with
    # no words (a null text) folds to 0
    word_doc = np.repeat(np.arange(len(wc), dtype=np.int64), wc)
    in_short = is_short[word_doc]
    word_pos = np.arange(len(wh), dtype=np.int64) - offs[:-1][word_doc]
    with np.errstate(over="ignore"):
        run = np.cumsum(np.concatenate([np.zeros(1, np.uint64),
                                        wh[in_short] * mult[word_pos[in_short]]]))
        end = np.cumsum(wc[is_short])
        folded = run[end] - run[end - wc[is_short]]
    out = np.insert(s, (np.cumsum(counts) - counts)[is_short], folded)
    counts[is_short] = 1
    return out, np.concatenate([[0], np.cumsum(counts)])


_MERSENNE = np.uint64((1 << 61) - 1)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _minhash_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 61, num_perm, dtype=np.uint64)
    b = rng.integers(0, 1 << 61, num_perm, dtype=np.uint64)
    return a, b


def _minhash_from_shingles(
    sh: np.ndarray, offs: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(n_docs, num_perm) uint64 minhash signatures from a flat shingle
    stream + doc offsets.

    Outer product (shingles x permutations) chunked to bound memory, with one
    ``np.minimum.reduceat`` per chunk collapsing doc segments — no per-doc
    Python-level hashing (duplicate shingles cannot change a min, so the
    flat shingle stream needs no per-doc unique)."""
    n_docs = len(offs) - 1
    num_perm = len(a)
    sigs = np.empty((n_docs, num_perm), dtype=np.uint64)
    chunk = max(1, 8_000_000 // num_perm)
    d0 = 0
    while d0 < n_docs:
        d1 = d0 + 1
        while d1 < n_docs and offs[d1 + 1] - offs[d0] <= chunk:
            d1 += 1
        seg = sh[offs[d0] : offs[d1]]
        with np.errstate(over="ignore"):
            prod = seg[:, None] * a[None, :] + b
        starts = (offs[d0:d1] - offs[d0]).astype(np.int64)
        sigs[d0:d1] = np.minimum.reduceat(prod, starts, axis=0)
        d0 = d1
    return sigs


def dedup_minhash_lsh(
    ds: rd.Dataset, k: int = 3, num_perm: int = 64, bands: int = 16,
    jaccard_threshold: float = 0.8, num_partitions: int = 64,
) -> rd.Dataset:
    """MinHash → LSH band buckets → candidate pairs → exact-Jaccard verify.

    Emits (doc_a, doc_b, jaccard) for verified near-duplicate pairs. The
    banding shuffle moves (doc_id, band_id, band_hash) POSTINGS only — 24
    bytes per (doc, band) — not shingle sets: candidate pairs come out of
    the buckets first, and only the docs actually referenced by a candidate
    pair have their shingle sets computed (one filtered corpus pass) and
    joined back for the exact verify. Versus shipping each doc's set once
    per band, the banding shuffle shrinks ~bands× (16× at the defaults) and
    verify traffic is proportional to CANDIDATES, not corpus.

    Partitioning assumptions: all members of one LSH bucket fit in one
    group (buckets are (band_id, band_hash)), and the candidate-pair doc
    set is far smaller than the corpus (the semi-join broadcast below —
    same bound dup_clusters already relies on)."""
    rows_per_band = num_perm // bands
    a, b = _minhash_params(num_perm)

    def explode(batch: pa.Table) -> pa.Table:
        sh, offs = _batch_shingle_hashes(batch.column("text"), k)
        sigs = _minhash_from_shingles(sh, offs, a, b)
        n = len(sigs)
        banded = sigs.reshape(n, bands, rows_per_band)
        with np.errstate(over="ignore"):
            # positional fold of each band's rows into one 64-bit bucket hash
            mult = (np.arange(rows_per_band, dtype=np.uint64) * np.uint64(2) + np.uint64(1)) \
                * np.uint64(0x9E3779B97F4A7C15)
            bh = (banded * mult).sum(axis=2)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, bands)),
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "band_hash": pa.array(bh.ravel().view(np.int64)),
        })

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        _, ids, ia, ib = _bucket_pairs(df, ["band_id", "band_hash"], "doc_id")
        return pd.DataFrame({"doc_a": ids[ia], "doc_b": ids[ib]})

    postings = ds.map_batches(explode, batch_format="pyarrow")
    pairs = grouped_map(postings, ["band_id", "band_hash"], bucket_pairs,
                        num_partitions)
    pairs = _distinct_pairs(pairs, "doc_a", "doc_b", num_partitions)
    # candidates are small (near-dups + band collisions); pin them so the
    # banding shuffle runs ONCE even though verify consumes pairs three
    # times (two id projections + the join left side)
    return _typed_pairs(
        ds, "doc_id", ("doc_a", "doc_b", "jaccard"), pa.float64(),
        _verify_pairs_jaccard(ds, pairs.materialize(), k, jaccard_threshold))


def _verify_pairs_jaccard(
    ds: rd.Dataset, pairs: rd.Dataset, k: int, jaccard_threshold: float,
    broadcast_pairs: int = 1_000_000,
) -> rd.Dataset:
    """Exact-Jaccard verify for candidate (doc_a, doc_b) pairs: shingle
    sets are computed ONLY for referenced docs, shipped as packed int32
    binary, and scored with the chunked vectorized intersection kernel.

    Two paths on the already-materialized ``pairs``:
    - ≤ ``broadcast_pairs`` candidates (the common case — candidates are
      near-dups + band collisions): candidate ids and their sets broadcast
      via ``ray.put`` (the same boundedness dup_clusters relies on), so
      verify is ONE filtered corpus pass + ONE map over pairs — no extra
      shuffles.
    - larger candidate sets: fully distributed — semi-join corpus filter,
      then two adaptive hash_joins attach set_a/set_b (Arrow joins carry
      binary payloads, not list columns).

    Sets are 32-bit hash truncations: half the bytes; expected Jaccard
    inflation from 32-bit collisions is ~|A||B|/2^32 ≈ 1e-5 for typical
    shingle sets — far below any useful threshold."""
    import ray

    from .joins import hash_join, semi_join

    def make_sets(batch: pa.Table) -> pa.Table:
        sh, offs = _batch_shingle_hashes(batch.column("text"), k)
        u32, o32 = _unique_per_doc((sh & np.uint64(0xFFFFFFFF)), offs)
        vals = u32.astype(np.int32)
        bufs = [vals[o32[i]:o32[i + 1]].tobytes()
                for i in range(len(o32) - 1)]
        return pa.table({
            "_d": batch.column("doc_id"),
            "_set": pa.array(bufs, type=pa.binary()),
        })

    n_pairs = pairs.count()  # pairs is materialized → count is free
    if n_pairs <= broadcast_pairs:
        import pyarrow.compute as pc

        cand = set()
        for r in pairs.take_all():
            cand.add(r["doc_a"])
            cand.add(r["doc_b"])
        ids_ref = ray.put(pa.array(sorted(cand)))

        def filt(batch: pa.Table) -> pa.Table:
            m = pc.is_in(batch.column("doc_id"), value_set=ray.get(ids_ref))
            return batch.filter(m)

        set_rows = ds.select_columns(["doc_id", "text"]) \
            .map_batches(filt, batch_format="pyarrow") \
            .map_batches(make_sets, batch_format="pyarrow").take_all()
        sets_ref = ray.put({r["_d"]: r["_set"] for r in set_rows})

        def attach(batch: pa.Table) -> pa.Table:
            lut = ray.get(sets_ref)
            sa = [lut[d] for d in batch.column("doc_a").to_pylist()]
            sb = [lut[d] for d in batch.column("doc_b").to_pylist()]
            return pa.table({
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "set_a": pa.array(sa, type=pa.binary()),
                "set_b": pa.array(sb, type=pa.binary()),
            })

        j = pairs.map_batches(attach, batch_format="pyarrow")
    else:
        def ids_only(col):
            def fn(batch: pa.Table) -> pa.Table:
                return pa.table({"_d": batch.column(col)})
            return fn

        cand_ids = pairs.map_batches(ids_only("doc_a"), batch_format="pyarrow") \
            .union(pairs.map_batches(ids_only("doc_b"), batch_format="pyarrow"))
        cand_docs = semi_join(ds.select_columns(["doc_id", "text"]), cand_ids,
                              "doc_id", "_d")

        def rename(ka, sa):
            def fn(batch: pa.Table) -> pa.Table:
                return batch.rename_columns([ka, sa])
            return fn

        # sets computed ONCE for the candidate docs, pinned, then renamed
        # per join side (rename over materialized blocks is zero-copy)
        sets = cand_docs.map_batches(make_sets, batch_format="pyarrow") \
            .materialize()
        sets_a = sets.map_batches(rename("_da", "set_a"), batch_format="pyarrow")
        sets_b = sets.map_batches(rename("_db", "set_b"), batch_format="pyarrow")
        j = hash_join(pairs, sets_a, "doc_a", "_da")
        j = hash_join(j, sets_b, "doc_b", "_db")

    def score(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.table({
            "doc_a": pa.array([], type=batch.schema.field("doc_a").type),
            "doc_b": pa.array([], type=batch.schema.field("doc_b").type),
            "jaccard": pa.array([], type=pa.float64()),
        })
        if n == 0:
            return empty
        sa = [np.frombuffer(x.as_py(), dtype=np.int32).astype(np.int64)
              for x in batch.column("set_a")]
        sb = [np.frombuffer(x.as_py(), dtype=np.int32).astype(np.int64)
              for x in batch.column("set_b")]
        lens = np.array([len(s) for s in sa] + [len(s) for s in sb],
                        dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)])
        vals = np.concatenate(sa + sb) if (sa or sb) else np.empty(0, np.int64)
        ia = np.arange(n, dtype=np.int64)
        ib = ia + n
        inter = _pair_intersections(vals, offs, ia, ib)
        union = lens[ia] + lens[ib] - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        hit = jac >= jaccard_threshold
        if not hit.any():
            return empty
        mask = pa.array(hit)
        return pa.table({
            "doc_a": batch.column("doc_a").filter(mask),
            "doc_b": batch.column("doc_b").filter(mask),
            "jaccard": pa.array(jac[hit], type=pa.float64()),
        })

    return j.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# simhash


def simhash_signatures(ds: rd.Dataset) -> rd.Dataset:
    """64-bit SimHash over vectorized word hashes (unit weights): per-bit
    votes summed per doc with one ``np.add.reduceat`` over the flat stream."""

    def fn(batch: pa.Table) -> pa.Table:
        wh, offs = _batch_word_hashes(batch.column("text"))
        n_docs = len(offs) - 1
        shifts = np.arange(64, dtype=np.uint64)
        sigs = np.empty(n_docs, dtype=np.uint64)
        chunk = 200_000  # words per chunk: bounds the (words x 64) bit matrix
        d0 = 0
        weights = np.uint64(1) << shifts
        while d0 < n_docs:
            d1 = d0 + 1
            while d1 < n_docs and offs[d1 + 1] - offs[d0] <= chunk:
                d1 += 1
            seg = wh[offs[d0] : offs[d1]]
            bits = ((seg[:, None] >> shifts) & np.uint64(1)).astype(np.int32)
            starts = (offs[d0:d1] - offs[d0]).astype(np.int64)
            votes = np.add.reduceat(2 * bits - 1, starts, axis=0)
            sigs[d0:d1] = ((votes > 0).astype(np.uint64) * weights).sum(axis=1)
            d0 = d1
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "simhash": pa.array(sigs.view(np.int64)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def dedup_simhash(ds: rd.Dataset, max_hamming: int = 3, blocks: int = 4) -> rd.Dataset:
    """Near-dup pairs with hamming(simhash) ≤ max_hamming via the block-key
    trick: split 64 bits into `blocks` blocks; any pair within distance d <
    blocks shares ≥1 exact block → groupby(block_id, block_value)."""
    sigs = simhash_signatures(ds)

    def explode(batch: pa.Table) -> pa.Table:
        sig = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        width = 64 // blocks
        mask = np.uint64((1 << width) - 1)
        vals = np.stack(
            [(sig >> np.uint64(bi * width)) & mask for bi in range(blocks)], axis=1
        )
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, blocks)),
            "block_id": pa.array(np.tile(np.arange(blocks, dtype=np.int32), len(ids))),
            "block_val": pa.array(vals.ravel().view(np.int64)),
            "simhash": pa.array(np.repeat(sig.view(np.int64), blocks)),
        })

    def bucket_verify(df: pd.DataFrame) -> pd.DataFrame:
        # batched across ALL buckets: expand pairs once, popcount once
        rows, ids, ia, ib = _bucket_pairs(df, ["block_id", "block_val"], "doc_id")
        h = df["simhash"].to_numpy(np.int64).view(np.uint64)[rows]
        x = h[ia] ^ h[ib]
        d = np.zeros(len(x), dtype=np.int64)  # popcount via byte LUT
        for shift in range(0, 64, 8):
            d += _POPCOUNT8[(x >> np.uint64(shift)) & np.uint64(0xFF)]
        hit = d <= max_hamming
        return pd.DataFrame({"doc_a": ids[ia][hit], "doc_b": ids[ib][hit],
                             "hamming": d[hit]})

    pairs = grouped_map(
        sigs.map_batches(explode, batch_format="pyarrow"),
        ["block_id", "block_val"],
        bucket_verify,
    )
    return _typed_pairs(ds, "doc_id", ("doc_a", "doc_b", "hamming"), pa.int64(),
                        _distinct_pairs(pairs, "doc_a", "doc_b"))


# ---------------------------------------------------------------------------
# exact n-gram Jaccard join


def _unique_per_doc(flat: np.ndarray, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate each doc's segment of a flat hash stream (vectorized:
    one lexsort over (doc, hash) + an adjacent-duplicate mask)."""
    n_docs = len(offs) - 1
    doc_of = np.repeat(np.arange(n_docs), np.diff(offs))
    order = np.lexsort((flat, doc_of))
    fs, ds_ = flat[order], doc_of[order]
    keep = np.ones(len(fs), dtype=bool)
    keep[1:] = (fs[1:] != fs[:-1]) | (ds_[1:] != ds_[:-1])
    fs, ds_ = fs[keep], ds_[keep]
    new_counts = np.bincount(ds_, minlength=n_docs)
    return fs, np.concatenate([[0], np.cumsum(new_counts)])


def dedup_ngram_jaccard(
    ds: rd.Dataset, k: int = 3, threshold: float = 0.8,
    id_col: str = "doc_id", text_col: str = "text",
    df_cap: int | None = None,
) -> rd.Dataset:
    """Exact all-pairs n-gram Jaccard ≥ threshold, distributed via an
    inverted shingle index — no candidate pruning, so the result is exact
    when ``df_cap`` is None:

    1. per-doc unique shingle-hash sets (vectorized), emitted as
       (shingle, doc, |set|) postings — each posting carries its doc's set
       size so NOTHING is collected to the driver or broadcast;
    2. shuffle postings by shingle (bounded hash partitions); each shingle
       shared by m docs yields its m(m-1)/2 doc pairs annotated with both
       set sizes;
    3. count pair occurrences per (doc_a, doc_b) group = |A ∩ B|;
       jaccard = c / (|A| + |B| - c).

    Skew bound: a shingle appearing in f docs emits O(f^2) pairs; with
    ``df_cap`` set, shingles with in-partition document frequency > df_cap
    are dropped (a warning per partition names how many). That makes
    the intersection count a LOWER bound, i.e. recall can drop for pairs
    whose overlap is concentrated in stop-shingles — the standard corpus-
    scale trade. The oracle query runs with df_cap=None (exact)."""

    def explode(batch: pa.Table) -> pa.Table:
        flat, offs = _batch_shingle_hashes(batch.column(text_col), k)
        flat, offs = _unique_per_doc(flat, offs)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        counts = np.diff(offs)
        return pa.table({
            "sh": pa.array(flat.view(np.int64)),
            "doc": pa.array(np.repeat(ids, counts)),
            "n": pa.array(np.repeat(counts.astype(np.int64), counts)),
        })

    def shingle_pairs(df: pd.DataFrame) -> pd.DataFrame:
        dup = df[df.duplicated(["sh"], keep=False)]
        if df_cap is not None and len(dup):
            f = dup.groupby("sh", sort=False)["doc"].transform("nunique")
            hot = f > df_cap
            if hot.any():
                n_hot = dup.loc[hot, "sh"].nunique()
                log.warning("dedup_ngram_jaccard: dropped %d shingles with "
                            "df > %d", n_hot, df_cap)
                dup = dup[~hot]
        rows, ids, ia, ib = _bucket_pairs(dup, ["sh"], "doc")
        n = dup["n"].to_numpy(np.int64)[rows]
        return pd.DataFrame({"doc_a": ids[ia], "doc_b": ids[ib],
                             "n_a": n[ia], "n_b": n[ib]})

    def count_and_score(df: pd.DataFrame) -> pd.DataFrame:
        c = (df.groupby(["doc_a", "doc_b"], sort=False)
             .agg(inter=("n_a", "size"), n_a=("n_a", "first"), n_b=("n_b", "first"))
             .reset_index())
        inter = c["inter"].to_numpy(dtype=np.float64)
        j = inter / (c["n_a"].to_numpy(dtype=np.float64)
                     + c["n_b"].to_numpy(dtype=np.float64) - inter)
        c["jaccard"] = j
        return c[j >= threshold][["doc_a", "doc_b", "jaccard"]]

    postings = ds.map_batches(explode, batch_format="pyarrow")
    pairs = grouped_map(postings, ["sh"], shingle_pairs)
    return _typed_pairs(ds, id_col, ("doc_a", "doc_b", "jaccard"), pa.float64(),
                        grouped_map(pairs, ["doc_a", "doc_b"], count_and_score))


def dup_clusters(pairs_ds: rd.Dataset, a_col: str = "doc_a", b_col: str = "doc_b") -> rd.Dataset:
    """Connected components over verified near-dup pairs → (doc_id, cluster)
    rows, cluster = min doc id of the component (the canonical survivor).

    The pair set is orders of magnitude smaller than the corpus (only
    verified near-duplicates), so union-find on the driver is the right
    tool (cf. Ray guide: driver-side only when the candidate set is provably
    small). At extreme pair counts, swap in a few rounds of distributed
    min-label propagation over the same (node, label) schema."""
    rows = pairs_ds.select_columns([a_col, b_col]).take_all()
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in rows:
        ra, rb = find(r[a_col]), find(r[b_col])
        if ra != rb:
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo
    members = sorted(parent)
    out = pa.table({
        "doc_id": pa.array(members),
        "cluster": pa.array([find(m) for m in members]),
    })
    return rd.from_arrow(out)


def keep_canonical(ds: rd.Dataset, clusters: rd.Dataset, id_col: str = "doc_id") -> rd.Dataset:
    """Drop every clustered doc except its canonical (min-id) survivor: the
    reject set {doc_id != cluster} broadcasts via ray.put and filters inside
    map_batches — an anti-join with no shuffle of the corpus."""
    import ray

    import pyarrow.compute as pc

    rej_tbl = clusters.map_batches(
        lambda b: b.filter(pc.not_equal(b.column("doc_id"), b.column("cluster")))
        .select(["doc_id"]),
        batch_format="pyarrow",
    ).take_all()
    rej_ref = ray.put(pa.array([r["doc_id"] for r in rej_tbl]))

    def fn(batch: pa.Table) -> pa.Table:
        rejects = ray.get(rej_ref)
        keep = pc.invert(pc.is_in(batch.column(id_col), value_set=rejects))
        return batch.filter(keep)

    return ds.map_batches(fn, batch_format="pyarrow")


def dedup_embedding_lsh(
    emb_ds: rd.Dataset, threshold: float = 0.9, n_planes: int = 16,
    bands: int = 4, seed: int = 19,
    id_col: str = "vec_id", emb_col: str = "embedding",
) -> rd.Dataset:
    """Scale-path embedding near-dup: random-hyperplane (cosine) LSH.

    Sign bits of R @ v give an n_planes-bit signature; banding the bits (as
    in MinHash LSH) buckets candidates, which verify with exact cosine inside
    their group. Nothing is broadcast and no all-pairs matrix exists — the
    shuffle moves (band, bucket, id, vector) rows only. Approximate: a pair
    is found iff it shares all bits of >=1 band (high recall near
    threshold->1; tune n_planes/bands for lower thresholds)."""
    planes_by_dim: dict[int, np.ndarray] = {}
    bits_per_band = n_planes // bands

    def explode(batch: pa.Table) -> pa.Table:
        from .similarity import _normalize, _to_matrix

        m = _normalize(_to_matrix(batch.column(emb_col)))
        d = m.shape[1]
        if d not in planes_by_dim:  # same seed per dim → identical planes everywhere
            planes_by_dim[d] = np.random.default_rng(seed).normal(size=(d, n_planes))
        bits = (m @ planes_by_dim[d]) > 0  # (n, planes)
        weights = (np.uint64(1) << np.arange(bits_per_band, dtype=np.uint64))
        banded = bits.reshape(len(m), bands, bits_per_band)
        bh = (banded.astype(np.uint64) * weights).sum(axis=2)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        flat = m.astype(np.float32)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(np.repeat(flat, bands, axis=0).ravel(), type=pa.float32()), d)
        return pa.table({
            id_col: pa.array(np.repeat(ids, bands)),
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), len(m))),
            "band_hash": pa.array(bh.ravel().view(np.int64)),
            "vec": emb,
        })

    def bucket_verify(df: pd.DataFrame) -> pd.DataFrame:
        # batched across ALL buckets: expand in-bucket pairs once, then one
        # row-wise einsum for every pair's cosine (vectors are pre-normalized)
        rows, ids, ia, ib = _bucket_pairs(df, ["band_id", "band_hash"], id_col)
        m = np.stack(df["vec"].to_numpy())[rows].astype(np.float64)
        sims = np.einsum("ij,ij->i", m[ia], m[ib])
        hit = sims >= threshold
        return pd.DataFrame({"vec_a": ids[ia][hit], "vec_b": ids[ib][hit],
                             "cosine": sims[hit]})

    pairs = grouped_map(
        emb_ds.map_batches(explode, batch_format="pyarrow"),
        ["band_id", "band_hash"], bucket_verify)
    return _typed_pairs(emb_ds, id_col, ("vec_a", "vec_b", "cosine"), pa.float64(),
                        _distinct_pairs(pairs, "vec_a", "vec_b"))


# ---------------------------------------------------------------------------
# embedding cosine near-dup


def dedup_embedding_cosine(emb_ds: rd.Dataset, threshold: float = 0.95,
                           max_rows: int = 2_000_000) -> rd.Dataset:
    """Near-duplicate (vec_a < vec_b) pairs with cosine ≥ threshold.

    Block-local matmul against a broadcast matrix of all vectors — valid
    while the embedding matrix fits in memory (N×D float64). The guard
    counts the corpus FIRST and refuses above ``max_rows`` (2M vectors ×
    768 dims ≈ 12 GB broadcast) instead of OOM-ing the driver;
    ``dedup_embedding_lsh`` is the no-broadcast scale path."""
    import ray

    n = emb_ds.count()
    if n > max_rows:
        raise ValueError(
            f"dedup_embedding_cosine materializes the whole corpus "
            f"({n} rows > max_rows={max_rows}); use dedup_embedding_lsh "
            f"(random-hyperplane LSH, no broadcast) at this scale")
    rows = emb_ds.select_columns(["vec_id", "embedding"]).take_all()
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    mat = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    ref = ray.put((ids, mat))

    def fn(batch: pa.Table) -> pa.Table:
        all_ids, all_mat = ray.get(ref)
        b_ids = batch.column("vec_id").to_numpy()
        b_mat = np.stack([np.asarray(v, dtype=np.float64)
                          for v in batch.column("embedding").to_pylist()])
        b_mat /= np.linalg.norm(b_mat, axis=1, keepdims=True)
        sims = b_mat @ all_mat.T
        ai, bj = np.nonzero(sims >= threshold)
        keep = b_ids[ai] < all_ids[bj]
        return pa.table({
            "vec_a": pa.array(b_ids[ai][keep], type=pa.int64()),
            "vec_b": pa.array(all_ids[bj][keep], type=pa.int64()),
        })

    return emb_ds.map_batches(fn, batch_format="pyarrow")


def dup_ngram_spans(
    ds: rd.Dataset, n: int = 4,
    id_col: str = "doc_id", text_col: str = "text",
    hashed: bool = False, num_partitions: int = 64,
) -> rd.Dataset:
    """Per-doc count of word n-gram positions whose n-gram already occurred
    EARLIER in the corpus (earlier = smaller (doc_id, pos)) — the
    span-level duplication profile behind suffix-array corpus dedup
    ("remove every repeated span after its first occurrence"), reduced to
    a distributable postings shape. Output: (doc_id, n_pos, n_dup,
    dup_frac) for every doc with at least n words.

    One postings pass builds (ngram, doc_id, pos) per batch from the
    in-doc windows of ``text.ngrams``; ONE bounded hash
    shuffle keyed on the ngram co-locates each ngram's occurrences; inside
    a partition a single sort + duplicated-mask marks every non-first
    occurrence, pre-aggregated to per-doc counts before the tiny final
    groupby. Per-doc totals ride the adaptive hash_join (broadcast while
    doc metadata is small, shuffle at scale).

    ``hashed=True`` ships 64-bit ngram hashes through the shuffle instead
    of the strings (~constant width, collision odds ~N²/2⁶⁴) — the 100 TB
    path; the default keeps exact strings so the SQL oracle can reproduce
    results value-for-value."""
    import pyarrow.compute as pc

    from .joins import hash_join

    def postings(batch: pa.Table) -> pa.Table:
        grams, doc, pos = ngrams(batch.column(text_col), n)
        if hashed:
            import polars as pl

            grams = pa.array(pl.from_arrow(pa.table({"g": grams}))["g"]
                             .hash(seed=0).to_numpy().view(np.int64))
        ids = batch.column(id_col).take(pa.array(doc))
        return pa.table({"ng": grams, id_col: ids, "pos": pa.array(pos)})

    def mark_dups(df):
        df = df.sort_values(["ng", id_col, "pos"], kind="mergesort")
        dup = df["ng"].duplicated().to_numpy()
        out = df.assign(_d=dup.astype(np.int64)) \
            .groupby(id_col, sort=False, as_index=False)["_d"].sum()
        return out.rename(columns={"_d": "n_dup"})

    per_part = grouped_map(ds.map_batches(postings, batch_format="pyarrow"),
                           ["ng"], mark_dups, num_partitions)
    dups = grouped_sum(per_part, [id_col], ["n_dup"], num_partitions)

    def totals(batch: pa.Table) -> pa.Table:
        wc = word_counts(batch, text_col).to_numpy(zero_copy_only=False)
        n_pos = np.bincount(ngram_windows(wc, n)[0], minlength=len(wc))
        t = pa.table({id_col: batch.column(id_col),
                      "n_pos": pa.array(n_pos.astype(np.int64))})
        return t.filter(pa.array(n_pos > 0))

    joined = hash_join(ds.map_batches(totals, batch_format="pyarrow"),
                       dups, id_col, id_col, how="left",
                       num_partitions=num_partitions)

    def final(batch: pa.Table) -> pa.Table:
        nd = pc.coalesce(batch.column("n_dup"), pa.scalar(0, pa.int64()))
        np_ = batch.column("n_pos").to_numpy(zero_copy_only=False)
        ndv = nd.to_numpy(zero_copy_only=False) if isinstance(nd, pa.ChunkedArray) \
            else np.asarray(nd)
        return pa.table({
            id_col: batch.column(id_col),
            "n_pos": batch.column("n_pos"),
            "n_dup": nd,
            "dup_frac": pa.array(ndv.astype(np.float64) / np_.astype(np.float64)),
        })

    return joined.map_batches(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# incremental dedup: fingerprint index on disk, probed by ingestion batches


def _prefix_fingerprints(batch: pa.Table, id_col: str, text_col: str,
                         prefix_len: int) -> tuple[pa.Array, np.ndarray]:
    import polars as pl
    import pyarrow.compute as pc

    txt = batch.column(text_col)
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    pref = pc.utf8_slice_codeunits(txt, 0, prefix_len)
    h = pl.from_arrow(pa.table({"p": pref}))["p"].hash(seed=7) \
        .to_numpy().astype(np.uint64)
    return batch.column(id_col), h


def build_fingerprint_index(
    ds: rd.Dataset, index_dir: str, prefix_len: int = 100,
    n_buckets: int = 64, id_col: str = "doc_id", text_col: str = "text",
) -> None:
    """Materialize an exact-dup fingerprint index: one xxhash of each doc's
    first ``prefix_len`` chars, written as (fp, doc_id) parquet PARTITIONED
    by fp's bucket. Ingestion-time dedup then probes only the buckets its
    batch hashes into — the corpus is indexed once and never re-scanned."""
    def fp_batch(batch: pa.Table) -> pa.Table:
        ids, h = _prefix_fingerprints(batch, id_col, text_col, prefix_len)
        return pa.table({
            id_col: ids,
            "fp": pa.array(h.view(np.int64)),
            "bucket": pa.array((h % np.uint64(n_buckets)).astype(np.int32)),
        })

    ds.map_batches(fp_batch, batch_format="pyarrow") \
        .write_parquet(index_dir, partition_cols=["bucket"])


def dedup_against_index(
    new_ds: rd.Dataset, index_dir: str, prefix_len: int = 100,
    n_buckets: int = 64, id_col: str = "doc_id", text_col: str = "text",
) -> pa.Table:
    """Incremental dedup: which incoming docs already exist in the indexed
    corpus (by prefix fingerprint)? The INCOMING batch is the small side of
    ingestion, so its distinct fingerprints collect to the driver and
    broadcast; the index — the 100 TB side — is read ONLY in the buckets
    those fingerprints hash to, filtered by ``pc.is_in`` per batch. Returns
    the hit rows' (doc_id, fp), never shipping corpus text anywhere."""
    import glob
    import os

    import pyarrow.compute as pc
    import ray

    parts = [_prefix_fingerprints(b, id_col, text_col, prefix_len)
             for b in new_ds.map_batches(
                 lambda t: t.select([id_col, text_col]),
                 batch_format="pyarrow").iter_batches(
                     batch_format="pyarrow", batch_size=65536)]
    def _flat(col) -> pa.Array:
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col

    inc_ids = (pa.concat_arrays([_flat(i) for i, _ in parts])
               if parts else pa.array([], type=pa.int64()))
    inc_fp = (np.concatenate([h for _, h in parts]) if parts
              else np.empty(0, dtype=np.uint64))
    fps = np.unique(inc_fp)
    buckets = sorted({int(b) for b in (fps % np.uint64(n_buckets))})
    paths = [p for b in buckets
             for p in glob.glob(os.path.join(index_dir, f"bucket={b}", "*.parquet"))]
    if not paths or not len(fps):
        return pa.table({id_col: pa.array([], inc_ids.type),
                         "fp": pa.array([], type=pa.int64())})
    from ..sources.parquet import read_parquet_clean

    fset = ray.put(pa.array(fps.view(np.int64)))

    def probe(batch: pa.Table) -> pa.Table:
        return batch.select(["fp"]).filter(
            pc.is_in(batch.column("fp"), value_set=ray.get(fset)))

    matched = pa.concat_tables(ray.get(
        read_parquet_clean(paths, columns=["fp"])
        .map_batches(probe, batch_format="pyarrow").to_arrow_refs()))
    mset = np.unique(matched.column("fp").to_numpy())
    hit = np.isin(inc_fp.view(np.int64), mset)
    return pa.table({id_col: inc_ids.filter(pa.array(hit)),
                     "fp": pa.array(inc_fp.view(np.int64)[hit])})
