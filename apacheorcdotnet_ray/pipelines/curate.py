"""Corpus-curation operators for training-data pipelines: test-set
decontamination, term/PII redaction, Gopher-style quality gating, document
chunking, and percentile filtering.

Everything is one-or-two streaming ``map_batches`` passes with vectorized
Arrow/NumPy kernels; the only driver-side state is deliberately tiny (the
test-set shingle hash array, a single quantile scalar). Formulas mirror
ANSI-SQL semantics exactly so the DuckDB oracle validates values, not just
row counts (same discipline as pipelines/text.py).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .dedup import _batch_shingle_hashes
from .shuffle import grouped_map
from .text import doc_terms, stop_hits, word_counts, words


def decontaminate(
    train: rd.Dataset,
    test: rd.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Remove training documents that share ANY n-word shingle with the
    test/eval set — the standard benchmark-decontamination pass. A document
    under n words has no shingle (the SQL ``WHERE len(ws) >= n`` form).

    The test side reduces to a distinct shingle-hash array (per-batch
    ``np.unique`` partials, one tiny driver union) broadcast once via
    ``ray.put``; the train side is a single streaming filter pass doing a
    sorted-array membership probe per batch. Partitioning assumption: the
    DISTINCT test shingle set fits in one object (eval sets are
    benchmark-sized by definition — a 100k-doc test set is ~100 MB of
    hashes). For a test set that outgrows that, swap the probe for a
    distributed semi-join of shingle postings (joins.semi_join shape).
    """
    def test_partial(batch: pa.Table) -> pa.Table:
        flat, _ = _batch_shingle_hashes(batch.column(text_col), n, "drop")
        u = np.unique(flat)
        # one packed row per batch (vocab_counts-style): the driver reduce
        # touches one small object per batch, not one row per hash
        return pa.table({"h": pa.array([u.tobytes()], type=pa.binary())})

    rows = test.map_batches(test_partial, batch_format="pyarrow").take_all()
    arrs = [np.frombuffer(r["h"], dtype=np.uint64) for r in rows]
    test_hashes = (np.unique(np.concatenate(arrs)) if arrs
                   else np.empty(0, np.uint64))
    test_ref = ray.put(test_hashes)  # broadcast once, read per task

    def keep_clean(batch: pa.Table) -> pa.Table:
        th = ray.get(test_ref)
        flat, offs = _batch_shingle_hashes(batch.column(text_col), n, "drop")
        if len(th) and len(flat):
            idx = np.searchsorted(th, flat).clip(max=len(th) - 1)
            hit = (th[idx] == flat).astype(np.int64)
        else:
            hit = np.zeros(len(flat), dtype=np.int64)
        counts = np.diff(offs)
        nz = np.nonzero(counts)[0]
        doc_hits = np.zeros(batch.num_rows, dtype=np.int64)
        if len(nz):
            doc_hits[nz] = np.add.reduceat(hit, offs[:-1][nz])
        return batch.filter(pa.array(doc_hits == 0)).select([id_col])

    return train.map_batches(keep_clean, batch_format="pyarrow")


def redact_terms(
    ds: rd.Dataset,
    terms: tuple[str, ...],
    replacement: str = "[REDACTED]",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Term-list scrubbing (the PII-redaction shape: emails/SSNs/blocklist
    words swap in a placeholder): one vectorized RE2 pass per batch.
    ``\\b``-anchored alternation, so semantics are identical to DuckDB's
    regexp_replace(..., 'g') — both engines run RE2."""
    pattern = r"\b(" + "|".join(re.escape(t) for t in terms) + r")\b"

    def fn(batch: pa.Table) -> pa.Table:
        txt = batch.column(text_col)
        return pa.table({
            id_col: batch.column(id_col),
            "clean_text": pc.replace_substring_regex(txt, pattern, replacement),
            "n_redacted": pc.count_substring_regex(txt, pattern).cast(pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def _top_word_counts(texts) -> np.ndarray:
    """Per-doc count of the most frequent word: the max tf of each doc's
    ``doc_terms`` (0 for a null text, which has no words)."""
    doc, _, tf = doc_terms(texts)
    top = np.zeros(len(texts), dtype=np.int64)
    np.maximum.at(top, doc, tf)
    return top


def gopher_filter(
    ds: rd.Dataset,
    min_words: int = 30,
    max_words: int = 100_000,
    min_mean_word_len: float = 2.5,
    max_mean_word_len: float = 10.0,
    min_stop_hits: int = 2,
    max_top_word_frac: float = 0.2,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Gopher-style heuristic quality gate (word-count band, mean word
    length band, stopword evidence, single-word repetition cap), one
    vectorized pass. Returns the surviving ids.

    stop-hit counting is ``text.stop_hits`` (the non-overlapping ' w '
    substring convention text.lang_id uses) so the SQL oracle is
    value-exact."""

    def fn(batch: pa.Table) -> pa.Table:
        keep = _gopher_keep(batch, text_col, min_words, max_words,
                            min_mean_word_len, max_mean_word_len,
                            min_stop_hits, max_top_word_frac)
        return batch.filter(pa.array(keep)).select([id_col])

    return ds.map_batches(fn, batch_format="pyarrow")


def _gopher_keep(batch: pa.Table, text_col: str, min_words: int,
                 max_words: int, min_mean_word_len: float,
                 max_mean_word_len: float, min_stop_hits: int,
                 max_top_word_frac: float) -> np.ndarray:
    txt = batch.column(text_col)
    nw = word_counts(batch, text_col).cast(pa.int64()).to_numpy()
    text_len = pc.utf8_length(txt).cast(pa.int64()).to_numpy()
    mean_wl = (text_len - (nw - 1)).astype(np.float64) / nw
    top_frac = _top_word_counts(txt).astype(np.float64) / nw
    return ((nw >= min_words) & (nw <= max_words)
            & (mean_wl >= min_mean_word_len) & (mean_wl <= max_mean_word_len)
            & (stop_hits(txt).to_numpy() >= min_stop_hits)
            & (top_frac <= max_top_word_frac))


def chunk_documents(
    ds: rd.Dataset,
    chunk_words: int = 32,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Explode each document into fixed-size word chunks with stable
    (doc_id, chunk_idx) identity — the RAG/context-window splitting shape.
    Fully vectorized: one split per batch, chunk boundaries by offset
    arithmetic, chunk strings re-joined with one Arrow binary_join kernel
    (no per-row Python)."""
    W = chunk_words

    def fn(batch: pa.Table) -> pa.Table:
        flat, offs = words(batch.column(text_col))
        wc = np.diff(offs)
        n_chunks = -(-wc // W)  # every doc has >=1 word -> >=1 chunk
        total = int(n_chunks.sum())
        doc_rep = np.repeat(np.arange(len(wc), dtype=np.int64), n_chunks)
        chunk_base = np.concatenate([[0], np.cumsum(n_chunks)])
        k_within = np.arange(total, dtype=np.int64) - chunk_base[:-1][doc_rep]
        starts = offs[:-1][doc_rep] + W * k_within
        # consecutive chunk starts are also the previous chunk's ends (a
        # doc's last chunk ends where the next doc starts), so ONE offsets
        # array drives the ListArray re-slice
        chunk_offs = np.append(starts, offs[-1]).astype(np.int32)
        chunks = pa.ListArray.from_arrays(pa.array(chunk_offs), flat)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(ids[doc_rep]),
            "chunk_idx": pa.array(k_within),
            "chunk_text": pc.binary_join(chunks, " "),
            "n_words": pa.array(np.diff(chunk_offs.astype(np.int64))),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def repetition_filter(
    ds: rd.Dataset,
    n: int = 3,
    max_dup_frac: float = 0.2,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Gopher-style repetition gate: drop docs whose fraction of DUPLICATED
    n-word shingles exceeds ``max_dup_frac``. Single streaming pass; per-doc
    distinct counts via one lexsort (``dedup._unique_per_doc``). Uses dedup's
    short-doc convention (docs under n words contribute one fallback shingle
    → dup fraction 0, trivially kept), mirrored by the SQL ``[text]`` arm."""
    def fn(batch: pa.Table) -> pa.Table:
        keep = _repetition_keep(batch, text_col, n, max_dup_frac)
        return batch.filter(pa.array(keep)).select([id_col])

    return ds.map_batches(fn, batch_format="pyarrow")


def _repetition_keep(batch: pa.Table, text_col: str, n: int,
                     max_dup_frac: float) -> np.ndarray:
    from .dedup import _unique_per_doc

    flat, offs = _batch_shingle_hashes(batch.column(text_col), n)
    total = np.diff(offs)
    _, uoffs = _unique_per_doc(flat, offs)
    distinct = np.diff(uoffs)
    return (total - distinct).astype(np.float64) / total <= max_dup_frac


def percentile_filter(
    ds: rd.Dataset,
    col: str,
    q: float = 0.5,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Keep rows whose ``col`` exceeds the corpus-wide discrete q-quantile —
    the 'top half by quality score' selection. Two streaming passes: the
    exact distributed quantile (histogram narrowing, no sort shuffle) yields
    one driver scalar, then a stateless filter pass."""
    from .stats import quantile_exact

    thr = quantile_exact(ds, col, q)

    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch.column(col), pa.scalar(thr))) \
            .select([id_col])

    return ds.map_batches(fn, batch_format="pyarrow")


def curate_pipeline(
    ds: rd.Dataset,
    n_rep: int = 3,
    max_dup_frac: float = 0.2,
    prefix_len: int = 100,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 64,
) -> rd.Dataset:
    """The composed curation job a real corpus run executes: Gopher quality
    gate AND repetition gate evaluated in ONE streaming pass (both are
    stateless per-batch predicates — scanning twice would be waste), then
    exact prefix-fingerprint dedup keeping the lowest surviving id per
    group. Full documents never cross a shuffle: only (fp, doc_id, n_tok)
    survivor rows reach the bounded hash partitions. Returns
    (doc_id, n_tok) of the curated corpus."""
    from .dedup import _prefix_fingerprints

    def gate(batch: pa.Table) -> pa.Table:
        keep = (_gopher_keep(batch, text_col, 30, 100_000, 2.5, 10.0, 2, 0.2)
                & _repetition_keep(batch, text_col, n_rep, max_dup_frac))
        kept = batch.filter(pa.array(keep))
        ids, h = _prefix_fingerprints(kept, id_col, text_col, prefix_len)
        return pa.table({
            id_col: ids,
            "fp": pa.array(h.view(np.int64)),
            "n_tok": word_counts(kept, text_col).cast(pa.int64()),
        })

    survivors = ds.map_batches(gate, batch_format="pyarrow")

    def keep_min(df):
        df = df.sort_values([("fp"), (id_col)], kind="mergesort")
        first = df.groupby("fp", sort=False, as_index=False).first()
        return first[[id_col, "n_tok"]]

    return grouped_map(survivors, ["fp"], keep_min, num_partitions)
