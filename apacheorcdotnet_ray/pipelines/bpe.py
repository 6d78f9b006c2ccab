"""Byte-pair-encoding vocabulary training over a document corpus.

The scale split mirrors production BPE trainers: the CORPUS-sized work is
one streaming word-frequency histogram pass (per-batch ``value_counts``
partials → bounded hash-partition sum); the merge loop then runs on the
(word, count) HISTOGRAM, whose size is the distinct-word vocabulary — corpus
-size-independent. Driver-side loop state is the flattened symbol array of
that vocabulary, vectorized NumPy per merge (pair counting via np.unique +
bincount, fusion via mask arithmetic); no per-character Python.

``bpe_token_count`` applies a trained merge table: the word → subword-count
mapping (again vocabulary-sized) ships once via ``ray.put``; the corpus pass
is a streaming per-batch dictionary lookup + per-doc bincount.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .shuffle import grouped_sum
from .text import word_freqs, words


def word_histogram(ds: rd.Dataset, text_col: str = "text") -> tuple[np.ndarray, np.ndarray]:
    """Distributed (word, count) histogram: words counted by ``grouped_sum``,
    one vocabulary-sized driver collection."""
    summed = grouped_sum(ds.map_batches(word_freqs, fn_kwargs={"col": text_col},
                                        batch_format="pyarrow"),
                         ["w"], ["cnt"])
    rows = summed.take_all()  # vocabulary-sized by construction
    words = np.array([r["w"] for r in rows], dtype=object)
    counts = np.array([r["cnt"] for r in rows], dtype=np.int64)
    order = np.argsort(words)  # deterministic regardless of partition order
    return words[order], counts[order]


def _merge_loop(words: np.ndarray, counts: np.ndarray, n_merges: int):
    """Vectorized BPE merges on a word histogram. Returns (merge rows,
    per-word symbol arrays) — symbols as (flat object array, word_id array)."""
    sym = np.array([ch for w in words for ch in w], dtype=object)
    wid = np.repeat(np.arange(len(words)), [len(w) for w in words])
    merges = []
    for rank in range(n_merges):
        if len(sym) < 2:
            break
        adj = wid[1:] == wid[:-1]
        if not adj.any():
            break
        left, right = sym[:-1][adj], sym[1:][adj]
        pair_keys = np.array([l + "\x00" + r for l, r in zip(left, right)],
                             dtype=object)
        uniq, inv = np.unique(pair_keys, return_inverse=True)
        freq = np.bincount(inv, weights=counts[wid[:-1][adj]].astype(np.float64))
        best = int(np.lexsort((uniq, -freq))[0])  # max freq, ties → smallest pair
        l, r = uniq[best].split("\x00")
        f = int(freq[best])
        if f <= 0:
            break
        merges.append({"rank": rank, "left": l, "right": r, "freq": f})
        # fuse non-overlapping occurrences, greedy left-to-right within runs
        cand = np.nonzero((sym[:-1] == l) & (sym[1:] == r)
                          & (wid[:-1] == wid[1:]))[0]
        keep_pos, last = [], -2
        for p in cand.tolist():
            if p == last + 1 and sym[p] == sym[p + 1] == l == r:
                continue  # overlapping run like "aaa" under (a,a)
            keep_pos.append(p)
            last = p
        kp = np.asarray(keep_pos, dtype=np.int64)
        sym[kp] = l + r
        dead = np.zeros(len(sym), dtype=bool)
        dead[kp + 1] = True
        sym, wid = sym[~dead], wid[~dead]
    return merges, (sym, wid)


def bpe_train(ds: rd.Dataset, n_merges: int = 20,
              text_col: str = "text") -> pa.Table:
    """Train BPE merges; returns (rank, left, right, freq) — freq is the
    corpus-weighted pair frequency at merge time."""
    words, counts = word_histogram(ds, text_col)
    merges, _ = _merge_loop(words, counts, n_merges)
    return pa.table({
        "rank": pa.array([m["rank"] for m in merges], type=pa.int64()),
        "left": pa.array([m["left"] for m in merges], type=pa.string()),
        "right": pa.array([m["right"] for m in merges], type=pa.string()),
        "freq": pa.array([m["freq"] for m in merges], type=pa.int64()),
    })


def bpe_token_count(ds: rd.Dataset, n_merges: int = 20,
                    id_col: str = "doc_id", text_col: str = "text") -> rd.Dataset:
    """Per-doc subword count under a freshly trained merge table. The
    word → n_subwords map (vocabulary-sized) broadcasts once; each batch does
    a dictionary-encode lookup + per-doc bincount — unseen words fall back to
    character count (standard char-level fallback)."""
    vocab, counts = word_histogram(ds, text_col)
    _, (sym, wid) = _merge_loop(vocab, counts, n_merges)
    tok_len = np.bincount(wid, minlength=len(vocab)).astype(np.int64)
    lookup_ref = ray.put({w: int(n) for w, n in zip(vocab, tok_len)})

    def fn(batch: pa.Table) -> pa.Table:
        lut = ray.get(lookup_ref)
        flat, offs = words(batch.column(text_col))
        flat = flat.dictionary_encode()
        dvals = flat.dictionary.to_pylist()  # batch-distinct words only
        per_distinct = np.array([lut.get(w, len(w)) for w in dvals],
                                dtype=np.int64)
        per_word = per_distinct[flat.indices.to_numpy(zero_copy_only=False)]
        # summed by doc index, so a doc with no words (a null text) gets 0
        doc = np.repeat(np.arange(batch.num_rows), np.diff(offs))
        per_doc = np.bincount(doc, weights=per_word,
                              minlength=batch.num_rows).astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            "n_bpe_tokens": pa.array(per_doc, type=pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


# --- full tokenizer: fit → encode (token ids) → decode (lossless) ---

_SPACE_ID = 0
_UNK_ID = 1


def bpe_fit(ds: rd.Dataset, n_merges: int = 20,
            text_col: str = "text") -> dict:
    """Train a complete BPE codec: merges + id space. The id space is
    deterministic (0 = word separator, 1 = unknown-char sentinel, then the
    sorted distinct final subwords plus the single-char fallback alphabet).
    Everything returned is vocabulary-sized — broadcast it once with
    ``ray.put``; never per batch."""
    words, counts = word_histogram(ds, text_col)
    _, (sym, wid) = _merge_loop(words, counts, n_merges)
    alphabet = set(sym.tolist())
    for w in words:
        alphabet.update(w)          # char-level fallback for unseen words
    alphabet.discard(" ")
    vocab = [" ", "�"] + sorted(alphabet)
    tok_id = {s: i for i, s in enumerate(vocab)}
    ids_flat = np.array([tok_id[s] for s in sym], dtype=np.int32)
    # per-word slices: wid is non-decreasing (words were processed in order)
    offs = np.searchsorted(wid, np.arange(len(words) + 1))
    word2ids = {w: ids_flat[offs[i]:offs[i + 1]]
                for i, w in enumerate(words)}
    return {"vocab": vocab, "tok_id": tok_id, "word2ids": word2ids}


def bpe_encode(ds: rd.Dataset, codec_ref, id_col: str = "doc_id",
               text_col: str = "text") -> rd.Dataset:
    """Encode documents to BPE token-id lists (``codec_ref`` is a
    ``ray.put`` handle to a ``bpe_fit`` result). A separator token is
    emitted between consecutive split words, so decode is LOSSLESS even for
    irregular spacing (split-on-space then join-on-space is identity).

    Per batch everything is vocabulary- or token-vectorized: the only
    Python loop is over the batch's DISTINCT words (dictionary-encode),
    and per-occurrence id sequences are gathered with one ragged-index
    computation — no per-token Python."""
    def fn(batch: pa.Table) -> pa.Table:
        codec = ray.get(codec_ref)
        word2ids, tok_id = codec["word2ids"], codec["tok_id"]
        flat, word_doc_offs = words(batch.column(text_col))
        flat = flat.dictionary_encode()
        dist = []
        for w in flat.dictionary.to_pylist():   # batch-distinct words only
            ids = word2ids.get(w)
            if ids is None:
                ids = np.array([tok_id.get(c, _UNK_ID) for c in w],
                               dtype=np.int32)
            dist.append(np.append(ids, _SPACE_ID).astype(np.int32))
        dist_flat = np.concatenate(dist) if dist else np.empty(0, np.int32)
        dist_lens = np.array([len(a) for a in dist], dtype=np.int64)
        dist_offs = np.concatenate([[0], np.cumsum(dist_lens)])
        widx = flat.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = dist_lens[widx] if len(widx) else np.empty(0, np.int64)
        total = int(lens.sum())
        out_starts = np.cumsum(lens) - lens
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(out_starts, lens)
               + np.repeat(dist_offs[:-1][widx], lens))
        tok = dist_flat[idx]
        # per-doc token ranges; drop each non-empty doc's trailing separator
        cum = np.concatenate([[0], np.cumsum(lens)])
        tok_doc_offs = cum[word_doc_offs]
        keep = np.ones(total, dtype=bool)
        nonempty = tok_doc_offs[1:] > tok_doc_offs[:-1]
        keep[tok_doc_offs[1:][nonempty] - 1] = False
        new_lens = np.diff(tok_doc_offs) - nonempty.astype(np.int64)
        new_offs = np.concatenate([[0], np.cumsum(new_lens)])
        return pa.table({
            id_col: batch.column(id_col),
            "token_ids": pa.ListArray.from_arrays(
                pa.array(new_offs, type=pa.int32()),
                pa.array(tok[keep], type=pa.int32())),
            "n_tokens": pa.array(new_lens, type=pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def bpe_decode(ds: rd.Dataset, codec_ref, id_col: str = "doc_id",
               out_col: str = "text") -> rd.Dataset:
    """Decode token-id lists back to text: one vocabulary gather + one
    Arrow ``binary_join`` per batch."""
    def fn(batch: pa.Table) -> pa.Table:
        vocab = np.array(ray.get(codec_ref)["vocab"], dtype=object)
        col = batch.column("token_ids")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat_ids = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        offs = np.concatenate([[0], np.cumsum(lens.astype(np.int64))])
        lists = pa.ListArray.from_arrays(
            pa.array(offs, type=pa.int32()),
            pa.array(vocab[flat_ids], type=pa.string()))
        return pa.table({
            id_col: batch.column(id_col),
            out_col: pc.binary_join(lists, ""),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def bpe_roundtrip(ds: rd.Dataset, n_merges: int = 20,
                  id_col: str = "doc_id", text_col: str = "text") -> rd.Dataset:
    """fit → encode → decode; output equals the input text column exactly
    (the losslessness proof the SQL oracle checks)."""
    codec_ref = ray.put(bpe_fit(ds, n_merges, text_col))
    return bpe_decode(bpe_encode(ds, codec_ref, id_col, text_col),
                      codec_ref, id_col, text_col)
