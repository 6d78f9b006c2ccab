"""Text-analysis operators over the documents table: tokenization, token
counting, language-ID heuristic, quality scoring, fingerprinting.

All vectorized (pyarrow.compute / polars) inside ``map_batches``; formulas are
chosen to be expressible in ANSI SQL with *identical* semantics so the DuckDB
oracle can validate them.

One word rule serves every text operator here and in ``dedup``, ``curate``,
``bpe`` and ``sample``: a document's words are what Python's
``text.split(' ')`` yields (split on a single space, so ``""`` is one empty
word and ``"a  b"`` is three). ``words()`` is the one split; ``word_counts()``
counts the same words without splitting, since count(' ') + 1 ==
len(text.split(' ')) == DuckDB len(string_split(text, ' ')). The helpers
built on them (``doc_terms``, ``distinct_word_counts``, ``stop_hits``,
``ngram_windows``, ``ngrams``, ``query_terms``) are the only other places
that look at words.
"""

from __future__ import annotations

import numpy as np

# polars imports at module level: its lazy submodule init is not
# thread-safe, and Ray workers can hit first-use concurrently from
# multiple task threads (observed: AttributeError on polars._reexport)
import polars  # noqa: F401

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .shuffle import grouped_map, grouped_sum

VOCAB = 50257
STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "on")


def words(texts: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, np.ndarray]:
    """The one word split: (flat words of every doc in order, int64 doc
    offsets into them starting at 0). Each doc's words are exactly
    ``text.split(' ')``, so every doc has at least one word; a null text
    has none."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    wl = pc.split_pattern(texts, " ")
    return wl.flatten(), np.asarray(wl.offsets, dtype=np.int64)


def word_counts(batch: pa.Table, col: str = "text") -> pa.Array:
    """Words per doc under the ``words`` rule, counted without splitting:
    count(' ') + 1 (== DuckDB len(string_split(text, ' ')))."""
    return pc.add(pc.count_substring(batch.column(col), " "), 1)


def doc_terms(texts: pa.Array | pa.ChunkedArray
              ) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """Each distinct (doc, word) pair of a batch with the word's count in
    that doc: (doc index, word, tf int64), ordered by doc. Exact: words are
    told apart by dictionary code, not by hash."""
    flat, offs = words(texts)
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nv = max(1, len(enc.dictionary))
    doc = np.repeat(np.arange(len(offs) - 1, dtype=np.int64), np.diff(offs))
    pair, tf = np.unique(doc * nv + codes, return_counts=True)
    return pair // nv, enc.dictionary.take(pa.array(pair % nv)), tf.astype(np.int64)


def distinct_word_counts(texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Distinct words per doc (== DuckDB len(list_distinct(string_split(
    text, ' ')))), as int64."""
    doc, _, _ = doc_terms(texts)
    return np.bincount(doc, minlength=len(texts)).astype(np.int64)


def stop_hits(texts: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Per-doc stopword hits with SQL-identical semantics:
    Σ_w count(' w ' in ' '||text||' '), non-overlapping, int64 (null for
    a null text)."""
    padded = pc.binary_join_element_wise(" ", texts, " ", "")
    hits = pa.scalar(0, pa.int64())
    for w in STOPWORDS:
        hits = pc.add(hits, pc.count_substring(padded, f" {w} ").cast(pa.int64()))
    return hits


def query_terms(query: str) -> list[str]:
    """A search query's distinct terms (whitespace split), sorted: the term
    order every BM25 score sums in."""
    return sorted(set(query.split()))


def ngram_windows(wc: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The one n-gram window rule: a doc of ``wc`` words holds the n-word
    windows that start at in-doc positions 0 .. wc - n, so a window never
    crosses into the next doc and a doc under n words has none. Returns
    (doc index, in-doc start position) of every window, docs in order."""
    per_doc = np.maximum(np.asarray(wc, dtype=np.int64) - n + 1, 0)
    doc = np.repeat(np.arange(len(per_doc), dtype=np.int64), per_doc)
    first = np.cumsum(per_doc) - per_doc
    return doc, np.arange(len(doc), dtype=np.int64) - first[doc]


def ngrams(texts: pa.Array | pa.ChunkedArray, n: int
           ) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Every in-doc n-word window of a batch as its space-joined string:
    (n-gram, doc index, in-doc start position)."""
    flat, offs = words(texts)
    doc, pos = ngram_windows(np.diff(offs), n)
    start = offs[:-1][doc] + pos
    grams = pc.binary_join_element_wise(
        *[flat.take(pa.array(start + j)) for j in range(n)], " ")
    return grams, doc, pos


def word_freqs(batch: pa.Table, col: str = "text") -> pa.Table:
    """One batch's word histogram (w, cnt int64): the per-batch partial of
    a distributed word count, summed per word by ``grouped_sum``."""
    vc = words(batch.column(col))[0].value_counts()
    return pa.table({"w": vc.field("values"),
                     "cnt": vc.field("counts").cast(pa.int64())})


def token_count(ds: rd.Dataset) -> rd.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_words": word_counts(batch).cast(pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


# BPE-ish pre-tokenization pattern: letter runs, digit runs, single
# non-alphanumeric marks (RE2 semantics on both the Arrow and DuckDB side)
TOKEN_REGEX = "[A-Za-z]+|[0-9]+|[^A-Za-z0-9 ]"


def token_count_regex(ds: rd.Dataset) -> rd.Dataset:
    """Regex (BPE-ish pre-tokenizer) token counts per doc — one vectorized
    RE2 scan per batch."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pc.count_substring_regex(
                batch.column("text"), TOKEN_REGEX).cast(pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def token_count_by_source(ds: rd.Dataset) -> rd.Dataset:
    """Per-source doc count + total word count, with per-batch pre-aggregation
    before the (tiny) shuffle."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "source": batch.column("source"),
            "n_words": word_counts(batch).cast(pa.int64()),
        })
        g = t.group_by("source").aggregate([("n_words", "sum"), ([], "count_all")])
        return g.select(["source", "n_words_sum", "count_all"]).rename_columns(
            ["source", "p_words", "p_docs"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("p_words", alias_name="sum_words"), Sum("p_docs", alias_name="n_docs"))
    )


def extract_json_field(ds: rd.Dataset, col: str, field: str,
                       id_col: str = "event_id") -> rd.Dataset:
    """Vectorized JSON field extraction (polars json_path_match — Rust
    kernel) from a JSON-string column; returns (id, value as int64)."""
    import polars as pl

    def fn(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.select([col]))[col]
        vals = s.str.json_path_match(f"$.{field}").cast(pl.Int64).to_arrow()
        return pa.table({id_col: batch.column(id_col), field: vals.cast(pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow")


def quality_scores(ds: rd.Dataset) -> rd.Dataset:
    """Per-doc quality signals: word count, distinct-word count, uniqueness
    ratio, mean word length. Matches the oracle formulas exactly."""
    def fn(batch: pa.Table) -> pa.Table:
        n_words = word_counts(batch).cast(pa.int64())
        n_unique = distinct_word_counts(batch.column("text"))
        nw = n_words.to_numpy()
        text_len = pc.utf8_length(batch.column("text")).cast(pa.int64()).to_numpy()
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_words": n_words,
            "n_unique_words": pa.array(n_unique),
            "uniq_ratio": pa.array(n_unique.astype(np.float64) / nw.astype(np.float64)),
            "mean_word_len": pa.array((text_len - (nw - 1)).astype(np.float64) / nw.astype(np.float64)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def quality_filter(
    ds: rd.Dataset, min_words: int = 20, max_words: int = 10_000,
    min_uniq_ratio: float = 0.3,
) -> rd.Dataset:
    """Training-data quality gate: keep docs inside the word-count band with
    enough lexical diversity. One vectorized pass computes the signals and
    applies the mask per batch — the filter composes with any downstream
    stage without materializing rejects."""
    def fn(batch: pa.Table) -> pa.Table:
        n_words = word_counts(batch).cast(pa.int64()).to_numpy()
        n_unique = distinct_word_counts(batch.column("text"))
        keep = (n_words >= min_words) & (n_words <= max_words) & (
            n_unique.astype(np.float64) / n_words >= min_uniq_ratio)
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def lang_id(ds: rd.Dataset) -> rd.Dataset:
    """Stopword-hit language heuristic with SQL-identical semantics:
    hits = Σ_w count(' w ' in ' '||text||' '); lang_pred = 'en' if hits>0."""

    def fn(batch: pa.Table) -> pa.Table:
        hits = stop_hits(batch.column("text"))
        pred = pc.if_else(pc.greater(hits, 0), pa.scalar("en"), pa.scalar("other"))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "stop_hits": hits,
            "lang_pred": pred,
        })

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic tokenizer → the BASELINE.json input_hint shape


def tokenize_documents(ds: rd.Dataset) -> rd.Dataset:
    """documents(doc_id,text,source) → (doc_id:string, tokens:list<int32>,
    n_tok:int32, source:string). Deterministic (seeded word hash % vocab), so
    repeat runs and oracle-side recomputation agree; fully vectorized via the
    shared batch word-hash kernel."""
    from .dedup import _batch_word_hashes

    def fn(batch: pa.Table) -> pa.Table:
        wh, offs = _batch_word_hashes(batch.column("text"))
        flat = (wh % np.uint64(VOCAB)).astype(np.int32)
        lengths = np.diff(offs)
        tokens = pa.ListArray.from_arrays(pa.array(offs.astype(np.int32)),
                                          pa.array(flat, type=pa.int32()))
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.string()),
            "tokens": tokens,
            "n_tok": pa.array(lengths.astype(np.int32)),
            "source": batch.column("source"),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def doc_fingerprints(ds: rd.Dataset, window: int = 8) -> rd.Dataset:
    """Rolling-hash document fingerprint (winnowing-style min over rolling
    word-window hashes) — a fast near-dup prefilter. One reduceat-min per
    batch over the flat shingle-hash stream."""
    from .dedup import _batch_shingle_hashes

    def fn(batch: pa.Table) -> pa.Table:
        flat, offs = _batch_shingle_hashes(batch.column("text"), window)
        fps = np.minimum.reduceat(flat, offs[:-1]) if len(flat) else np.empty(0, np.uint64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "fingerprint": pa.array(fps.view(np.int64)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def ngram_counts(ds: rd.Dataset, n: int = 2, k: int = 10,
                 text_col: str = "text") -> rd.Dataset:
    """Global top-k word n-grams: the batch's in-doc n-gram strings
    (``ngrams``) → per-batch value_counts partial → grouped sum → tiny sorted
    head. Ties break on the n-gram string, matching the SQL oracle."""

    def partial(batch: pa.Table) -> pa.Table:
        vc = ngrams(batch.column(text_col), n)[0].value_counts()
        return pa.table({"ng": vc.field("values"), "cnt": vc.field("counts")})

    summed = grouped_sum(ds.map_batches(partial, batch_format="pyarrow"),
                         ["ng"], ["cnt"])
    return summed.sort(["cnt", "ng"], descending=[True, False]).limit(k)


def oov_rate(ds: rd.Dataset, k: int = 200, text_col: str = "text",
             key_col: str = "source", num_partitions: int = 64) -> rd.Dataset:
    """Out-of-vocabulary rate per source against the corpus' top-k word
    vocabulary — the coverage check run before committing to a tokenizer
    vocab size.

    Two passes, nothing corpus-sized ever collected: (1) distributed word
    counts (per-batch value_counts partials → bounded hash partitions) with
    only the k-row head pulled to the driver; (2) the tiny vocabulary is
    broadcast once via ``ray.put`` and one streaming pass computes per-batch
    (source, n_tokens, n_oov) partials via ``pc.is_in`` + bincount over
    dictionary codes, reduced by a 20-key groupby. Top-k ties break on the
    word string, matching the SQL oracle."""
    import ray
    from ray.data.aggregate import Sum

    counts = grouped_sum(ds.map_batches(word_freqs, fn_kwargs={"col": text_col},
                                        batch_format="pyarrow"),
                         ["w"], ["cnt"], num_partitions)
    top = counts.sort(["cnt", "w"], descending=[True, False]).limit(k).take_all()
    vocab_ref = ray.put(pa.array([r["w"] for r in top], type=pa.string()))

    def part(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        flat, offs = words(batch.column(text_col))
        oov = pc.invert(pc.is_in(flat, value_set=vocab)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        per_doc_tok = np.diff(offs)
        keys = batch.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        denc = keys.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nk = len(denc.dictionary)
        per_doc_oov = np.add.reduceat(oov, offs[:-1]) if len(flat) else \
            np.zeros(len(per_doc_tok), dtype=np.int64)
        per_doc_oov[per_doc_tok == 0] = 0
        return pa.table({
            key_col: denc.dictionary,
            "n_tokens": pa.array(np.bincount(codes, weights=per_doc_tok,
                                             minlength=nk).astype(np.int64)),
            "n_oov": pa.array(np.bincount(codes, weights=per_doc_oov,
                                          minlength=nk).astype(np.int64)),
        })

    agg = ds.map_batches(part, batch_format="pyarrow") \
        .groupby(key_col).aggregate(Sum("n_tokens"), Sum("n_oov"))

    def final(batch: pa.Table) -> pa.Table:
        nt = batch.column("sum(n_tokens)").to_numpy(zero_copy_only=False)
        no = batch.column("sum(n_oov)").to_numpy(zero_copy_only=False)
        return pa.table({
            key_col: batch.column(key_col),
            "n_tokens": pa.array(nt.astype(np.int64)),
            "n_oov": pa.array(no.astype(np.int64)),
            "oov_rate": pa.array(no.astype(np.float64) / nt.astype(np.float64)),
        })

    return agg.map_batches(final, batch_format="pyarrow")


def tfidf_top_terms(ds: rd.Dataset, k: int = 3,
                    id_col: str = "doc_id", text_col: str = "text",
                    num_partitions: int = 64, idf: str = "log") -> rd.Dataset:
    """Per-doc top-k terms by tf-idf, rank ties on the term string. Fully
    distributed: per-batch ``doc_terms`` builds the (doc, term, tf)
    postings (docs never span batches), document frequency aggregates
    through bounded hash partitions, and the vocabulary-sized df table
    joins back via hash_join's adaptive path — broadcast while the vocab
    stays under ~200k rows (a few MB via ray.put), a repartition shuffle
    beyond. Nothing CORPUS-sized is ever broadcast or collected.

    ``idf``: "log" → score = tf * ln(N/df) (textbook); "linear" → score =
    tf * N / df. The linear kernel uses only IEEE +,*,/ so its doubles are
    bit-identical across engines — the driver's DuckDB oracle runs it
    because numpy's log and DuckDB's ln differ in the last ulp."""
    from .joins import hash_join

    n_docs = ds.count()  # one driver-side scalar

    def postings(batch: pa.Table) -> pa.Table:
        doc, term, tf = doc_terms(batch.column(text_col))
        return pa.table({
            id_col: batch.column(id_col).take(pa.array(doc)),
            "term": term,
            "tf": pa.array(tf),
        })

    post = ds.map_batches(postings, batch_format="pyarrow")

    def df_partial(batch: pa.Table) -> pa.Table:
        # (doc, term) pairs are unique within a batch (docs don't span
        # batches), so df partial = rows per term
        g = batch.group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": g.column("term"),
                         "df": g.column("count_all").cast(pa.int64())})

    doc_freq = grouped_sum(post.map_batches(df_partial, batch_format="pyarrow"),
                           ["term"], ["df"], num_partitions)

    joined = hash_join(post, doc_freq, left_on="term", right_on="term",
                       num_partitions=num_partitions)

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = batch.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
        s = tf * np.log(n_docs / dfv) if idf == "log" else tf * n_docs / dfv
        return batch.append_column("score", pa.array(s, type=pa.float64()))

    scored = joined.map_batches(score, batch_format="pyarrow")

    def topk(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([id_col, "score", "term"],
                                ascending=[True, False, True], kind="mergesort")
        part["rank"] = part.groupby(id_col, sort=False).cumcount() + 1
        out = part[part["rank"] <= k][[id_col, "term", "score", "rank"]]
        out["rank"] = out["rank"].astype(np.int64)
        return out

    return grouped_map(scored, [id_col], topk, num_partitions)


def bm25_search(ds: rd.Dataset, query: str, k: int = 10,
                k1: float = 1.2, b: float = 0.75,
                id_col: str = "doc_id", text_col: str = "text",
                idf: str = "log", num_partitions: int = 64) -> rd.Dataset:
    """Lexical top-k retrieval: BM25 score of each doc against a query
    string, the text-side sibling of similarity.brute_force_topk.

    Two cheap metadata passes (corpus size + avg doc length, tiny driver
    scalars; query-term document frequencies via one filtered aggregate),
    then one streaming scoring pass — per batch, term counts come from
    vectorized substring counts of the padded text, so no per-row Python
    and nothing document-sized leaves the workers. Final top-k is a sort
    over per-batch partial top-ks.

    ``idf``: "log" → ln((N - df + 0.5)/(df + 0.5)) (textbook BM25);
    "linear" → (N - df + 0.5)/(df + 0.5), using only IEEE arithmetic so the
    DuckDB oracle matches bit-for-bit.

    tf is EXACT tokenized term frequency: split on single spaces, count
    words equal to each query term ('hash hash hash' → tf 3). Vectorized
    as one split + ``pc.index_in`` against the tiny term list + a flat
    bincount per batch — no per-row Python."""
    terms = query_terms(query)

    def term_tf(batch: pa.Table) -> np.ndarray:
        """(n_rows × n_terms) exact word-equality counts."""
        flat, offs = words(batch.column(text_col))
        tid = pc.index_in(flat, value_set=pa.array(terms)).to_numpy(
            zero_copy_only=False)
        doc_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                            np.diff(offs))
        hit = ~np.isnan(tid) if tid.dtype.kind == "f" else tid >= 0
        nt = len(terms)
        return np.bincount(
            doc_idx[hit] * nt + tid[hit].astype(np.int64),
            minlength=batch.num_rows * nt).reshape(batch.num_rows, nt)

    # pass 1: N, avgdl, and per-term document frequencies — one aggregate
    def stats_partial(batch: pa.Table) -> pa.Table:
        tf = term_tf(batch)
        row = {"n_docs": [batch.num_rows],
               "sum_dl": [int(np.sum(word_counts(batch, text_col).to_numpy()))]}
        for i in range(len(terms)):
            row[f"df{i}"] = [int((tf[:, i] > 0).sum())]
        return pa.table(row)

    agg = ds.map_batches(stats_partial, batch_format="pyarrow") \
        .sum(["n_docs", "sum_dl"] + [f"df{i}" for i in range(len(terms))])
    n_docs = agg["sum(n_docs)"]
    avgdl = agg["sum(sum_dl)"] / n_docs
    dfs = np.array([agg[f"sum(df{i})"] for i in range(len(terms))], dtype=np.float64)
    if idf == "log":
        idfs = np.log((n_docs - dfs + 0.5) / (dfs + 0.5))
    else:
        idfs = (n_docs - dfs + 0.5) / (dfs + 0.5)

    # pass 2: streaming scoring, per-batch partial top-k
    def score(batch: pa.Table) -> pa.Table:
        tfm = term_tf(batch).astype(np.float64)
        dl = word_counts(batch, text_col).to_numpy().astype(np.float64)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        s = np.zeros(batch.num_rows, dtype=np.float64)
        for i in range(len(terms)):
            tf = tfm[:, i]
            s += idfs[i] * tf * (k1 + 1.0) / (tf + norm)
        t_out = pa.table({id_col: batch.column(id_col),
                          "score": pa.array(s, type=pa.float64())})
        order = pc.sort_indices(t_out, sort_keys=[("score", "descending"),
                                                  (id_col, "ascending")])
        return t_out.take(order[: k])

    partials = ds.map_batches(score, batch_format="pyarrow")
    return partials.sort(["score", id_col], descending=[True, False]).limit(k)


def parse_json_struct(ds: rd.Dataset, col: str, id_col: str = "event_id") -> rd.Dataset:
    """JSON-string column → typed Arrow struct column (polars json_decode,
    Rust kernel — no per-row Python). The struct then flows through the
    stripe container's recursive struct streams like any other column."""
    import polars as pl

    def fn(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.select([col]))[col]
        decoded = s.str.json_decode().to_frame().to_arrow()[col]
        if isinstance(decoded, pa.ChunkedArray):
            decoded = decoded.combine_chunks()
        return pa.table({id_col: batch.column(id_col), col: decoded})

    return ds.map_batches(fn, batch_format="pyarrow")


def vocab_counts(ds: rd.Dataset, k: int = 20, vocab: int = VOCAB,
                 tokens_col: str = "tokens") -> pa.Table:
    """Top-k token-id frequencies over a tokens:list<int32> corpus with NO
    shuffle: each batch reduces to ONE fixed-length bincount vector (the
    whole-vocab histogram fits in ~400 KB), a distributed tree reduce sums
    the per-batch vectors so the driver receives O(1) rows (NOT one per
    batch — at 10^6 batches that would be ~400 GB of driver traffic), then
    the driver takes the top-k. The classic fixed-domain aggregation shape —
    a groupby over token ids would shuffle billions of rows to produce the
    same 50k counters."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = batch.column(tokens_col)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        # [:vocab]: ids >= vocab would make bincount return a LONGER vector
        # than minlength and break the fixed-length driver sum
        counts = np.bincount(flat, minlength=vocab)[:vocab].astype(np.int64)
        return pa.table({"counts": pa.array([counts.tobytes()], type=pa.binary())})

    def combine(batch: pa.Table) -> pa.Table:
        acc = np.zeros(vocab, dtype=np.int64)
        for buf in batch.column("counts"):
            acc += np.frombuffer(buf.as_py(), dtype=np.int64)
        return pa.table({"counts": pa.array([acc.tobytes()], type=pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # tree reduce: each level folds up to 64 histogram rows into one, so
    # three levels bound the driver fold at O(batches / 64^3) rows
    for _ in range(3):
        partials = partials.map_batches(combine, batch_format="pyarrow",
                                        batch_size=64)
    rows = partials.take_all()
    total = np.zeros(vocab, dtype=np.int64)
    for r in rows:  # a handful of rows after the tree reduce
        total += np.frombuffer(r["counts"], dtype=np.int64)
    order = np.argsort(-total, kind="stable")[:k]
    return pa.table({
        "token_id": pa.array(order.astype(np.int32)),
        "cnt": pa.array(total[order]),
    })


def normalize_text(ds: rd.Dataset, id_col: str = "doc_id",
                   text_col: str = "text") -> rd.Dataset:
    """Canonical text normalization for downstream dedup/tokenization:
    lowercase, collapse non-alphanumeric runs to one space, trim. One
    vectorized pass of Arrow RE2 kernels; DuckDB's regexp_replace is RE2
    too, so the oracle is string-exact."""
    def fn(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(batch.column(text_col))
        t = pc.replace_substring_regex(t, "[^a-z0-9]+", " ")
        t = pc.utf8_trim(t, " ")
        return pa.table({id_col: batch.column(id_col), "norm_text": t})

    return ds.map_batches(fn, batch_format="pyarrow")


def heavy_hitters(ds: rd.Dataset, phi: float = 0.002,
                  text_col: str = "text") -> rd.Dataset:
    """Exact frequent words above a support fraction (count > floor(phi*N)),
    via a mergeable Misra–Gries sketch plus one exact verification pass.

    Pass 1: each batch emits its exact word counts compressed to an MG
    summary of capacity m = ceil(2/phi) (subtract the (m+1)-th largest
    weight, keep positives) plus one NULL-word sentinel row carrying the
    batch token count; the driver merges summaries the same way. The
    mergeable-summary guarantee (Agarwal et al., "Mergeable Summaries",
    PODS'12) keeps total error <= N/(m+1) < floor(phi*N)+1, so the merged
    sketch's support is a superset of the true answer. Pass 2 broadcasts
    the <=m candidate words once and exact-counts only those
    (pc.index_in + bincount), so the shuffle is candidate-sized — never
    vocabulary-sized like a naive word-count groupby at 100 TB."""
    import ray

    m = int(np.ceil(2.0 / phi))

    def compress(values: pa.Array, counts: np.ndarray):
        if len(counts) <= m:
            return values, counts
        order = np.argsort(counts, kind="stable")[::-1]
        residual = counts[order[m]]
        w = counts[order[:m]] - residual
        keep = order[:m][w > 0]
        return values.take(pa.array(keep)), counts[keep] - residual

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = words(batch.column(text_col))
        vc = flat.value_counts()
        values = vc.field("values")
        counts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        values, counts = compress(values, counts)
        # sentinel NULL word carries this batch's token count for N
        return pa.table({
            "w": pa.concat_arrays([values.cast(pa.string()),
                                   pa.array([None], type=pa.string())]),
            "wt": pa.array(np.concatenate([counts, [len(flat)]])),
        })

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    total = sum(r["wt"] for r in rows if r["w"] is None)
    agg: dict[str, int] = {}
    for r in rows:
        if r["w"] is not None:
            agg[r["w"]] = agg.get(r["w"], 0) + int(r["wt"])
    threshold = int(phi * total)  # answer = words with count > threshold
    if threshold + 1 > total / (m + 1):
        cand, _ = compress(pa.array(list(agg.keys()), type=pa.string()),
                           np.asarray(list(agg.values()), dtype=np.int64))
    else:
        # degenerate tiny-N case (phi*N < 1): guarantee needs the full map
        cand = pa.array(list(agg.keys()), type=pa.string())
    cand_ref = ray.put(cand)

    def exact(batch: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        flat, _ = words(batch.column(text_col))
        codes = pc.index_in(flat, value_set=cand).drop_null()
        cnt = np.bincount(codes.to_numpy(zero_copy_only=False).astype(np.int64),
                          minlength=len(cand)).astype(np.int64)
        return pa.table({"w": cand, "cnt": pa.array(cnt)})

    summed = grouped_sum(ds.map_batches(exact, batch_format="pyarrow"),
                         ["w"], ["cnt"], num_partitions=8)
    return summed.filter(expr=f"cnt > {threshold}")


def _term_bucket(terms: pa.Array, num_buckets: int) -> np.ndarray:
    """Stable term → bucket id (shared by index build and search)."""
    import polars as pl

    h = pl.from_arrow(pa.table({"t": terms}))["t"].hash(seed=7).to_numpy()
    return (h.astype(np.uint64) % np.uint64(num_buckets)).astype(np.int32)


def text_index_build(ds: rd.Dataset, index_dir: str, num_buckets: int = 32,
                     id_col: str = "doc_id", text_col: str = "text") -> dict:
    """Materialize an inverted BM25 index: postings (term, doc_id, tf, dl)
    written as parquet PARTITIONED BY hash(term) % num_buckets, corpus
    totals (n_docs, sum_dl) in meta.json. A search then reads ONLY the
    query terms' bucket partitions — query cost scales with the terms'
    document frequency, not the corpus (the text sibling of ivf_build's
    prune-at-the-read layout). Doc length is denormalized into each
    posting (the Lucene norms trick) so scoring needs no doc-length join.
    Per-(doc, term) tf is exact tokenized counts, identical to
    bm25_search's kernel, so index-backed scores match the streaming path
    bit-for-bit."""
    import json
    import os

    os.makedirs(index_dir, exist_ok=True)

    def postings(batch: pa.Table) -> pa.Table:
        d, term, tf = doc_terms(batch.column(text_col))
        dl = word_counts(batch, text_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "term": term,
            id_col: batch.column(id_col).take(pa.array(d)),
            "tf": pa.array(tf),
            "dl": pa.array(dl[d].astype(np.int64)),
            "bucket": pa.array(_term_bucket(term, num_buckets)),
        })

    ds.map_batches(postings, batch_format="pyarrow").write_parquet(
        index_dir, partition_cols=["bucket"])

    def meta_partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_docs": pa.array([batch.num_rows], type=pa.int64()),
            "sum_dl": pa.array([int(np.sum(
                word_counts(batch, text_col).to_numpy()))], type=pa.int64()),
        })

    agg = ds.map_batches(meta_partial, batch_format="pyarrow") \
        .sum(["n_docs", "sum_dl"])
    meta = {"n_docs": int(agg["sum(n_docs)"]), "sum_dl": int(agg["sum(sum_dl)"]),
            "num_buckets": num_buckets, "id_col": id_col}
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def text_index_search(index_dir: str, query: str, k: int = 10,
                      k1: float = 1.2, b: float = 0.75,
                      idf: str = "log") -> rd.Dataset:
    """BM25 top-k against a materialized inverted index: only the query
    terms' bucket partitions are read (partition pruning at the source);
    candidates pivot to per-doc tf vectors in bounded hash partitions and
    score with the exact bm25_search expression (absent terms contribute
    +0.0, which is exact in IEEE, so scores equal the streaming pass
    bit-for-bit for every doc containing at least one term)."""
    import glob
    import json
    import os

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    id_col = meta["id_col"]
    n_docs, avgdl = meta["n_docs"], meta["sum_dl"] / meta["n_docs"]
    terms = query_terms(query)
    buckets = sorted({int(x) for x in _term_bucket(
        pa.array(terms, type=pa.string()), meta["num_buckets"])})
    paths = [p for bkt in buckets for p in sorted(
        glob.glob(os.path.join(index_dir, f"bucket={bkt}", "*.parquet")))]
    empty = pa.schema([pa.field(id_col, pa.int64()),
                       pa.field("score", pa.float64())])
    if not paths:
        return rd.from_arrow(empty.empty_table())
    from ..sources.parquet import read_parquet_clean

    term_arr = pa.array(terms, type=pa.string())
    cands = read_parquet_clean(paths, columns=["term", id_col, "tf", "dl"]) \
        .map_batches(lambda t: t.filter(pc.is_in(t.column("term"),
                                                 value_set=term_arr)),
                     batch_format="pyarrow")

    # exact per-term document frequencies: postings rows are distinct
    # (term, doc) pairs, so df = row count per term — a tiny aggregate
    def df_partial(batch: pa.Table) -> pa.Table:
        vc = batch.column("term").combine_chunks().value_counts() \
            if isinstance(batch.column("term"), pa.ChunkedArray) \
            else batch.column("term").value_counts()
        return pa.table({"term": vc.field("values").cast(pa.string()),
                         "df": vc.field("counts").cast(pa.int64())})

    df_map = {t: 0 for t in terms}
    for r in cands.map_batches(df_partial, batch_format="pyarrow").take_all():
        df_map[r["term"]] += int(r["df"])
    dfs = np.array([df_map[t] for t in terms], dtype=np.float64)
    idfs = (np.log((n_docs - dfs + 0.5) / (dfs + 0.5)) if idf == "log"
            else (n_docs - dfs + 0.5) / (dfs + 0.5))

    def score_part(df: pd.DataFrame) -> pd.DataFrame:
        piv = df.pivot_table(index=[id_col, "dl"], columns="term",
                             values="tf", fill_value=0, aggfunc="sum")
        piv = piv.reset_index()
        dl = piv["dl"].to_numpy().astype(np.float64)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        s = np.zeros(len(piv), dtype=np.float64)
        for i, t in enumerate(terms):  # same term order as the oracle
            tf = (piv[t].to_numpy().astype(np.float64)
                  if t in piv.columns else np.zeros(len(piv)))
            s += idfs[i] * tf * (k1 + 1.0) / (tf + norm)
        out = pd.DataFrame({id_col: piv[id_col], "score": s})
        return out.sort_values(["score", id_col],
                               ascending=[False, True]).head(k)

    scored = grouped_map(cands, [id_col], score_part)
    return scored.sort(["score", id_col], descending=[True, False]).limit(k)
