"""The one word view of the text operators: ``text.words`` splits exactly
like Python's ``str.split(' ')``, ``word_counts`` counts the same words, and
the n-gram window rule gives the same windows to every operator built on it
(hash shingles under both short-document rules, n-gram strings and
positions). No Ray."""

import numpy as np
import polars as pl
import pyarrow as pa
import pytest

from apacheorcdotnet_ray.pipelines.curate import _top_word_counts
from apacheorcdotnet_ray.pipelines.dedup import (
    _batch_shingle_hashes, _shingle_mult)
from apacheorcdotnet_ray.pipelines.text import ngrams, word_counts, words

DOCS = ["", "a  b", " c", "d ", "x y z"]


def _inputs(docs):
    """The docs as a 2-chunk ChunkedArray and as a sliced Array."""
    return [pa.chunked_array([docs[:2], docs[2:]]),
            pa.array(["skip"] + docs + ["skip"]).slice(1, len(docs))]


@pytest.mark.parametrize("texts", _inputs(DOCS), ids=["chunked", "sliced"])
def test_words_is_python_split(texts):
    flat, offs = words(texts)
    assert offs.dtype == np.int64 and offs[0] == 0
    got = [flat.slice(offs[i], offs[i + 1] - offs[i]).to_pylist()
           for i in range(len(DOCS))]
    assert got == [d.split(" ") for d in DOCS]
    wc = word_counts(pa.table({"text": texts})).to_pylist()
    assert wc == [len(d.split(" ")) for d in DOCS]


def _naive_windows(docs, n):
    """(doc index, in-doc position, words) of every n-word window that lies
    inside one doc."""
    out = []
    for d, text in enumerate(docs):
        ws = text.split(" ")
        out += [(d, p, ws[p:p + n]) for p in range(len(ws) - n + 1)]
    return out


def _naive_shingles(docs, n, short):
    mult = _shingle_mult(n)
    per_doc = []
    for text in docs:
        ws = text.split(" ")
        wh = pl.Series(ws, dtype=pl.String).hash(seed=0).to_numpy() \
            .astype(np.uint64)
        with np.errstate(over="ignore"):
            hs = [(wh[p:p + n] * mult).sum() for p in range(len(ws) - n + 1)]
            if not hs and short == "fold":
                hs = [(wh * mult[:len(ws)]).sum()]
        per_doc.append(hs)
    return per_doc


LEN_5_1_5 = ["a b c d e", "f", "g h a b c"]


@pytest.mark.parametrize("n", [3, 1])
@pytest.mark.parametrize("texts", _inputs(LEN_5_1_5), ids=["chunked", "sliced"])
def test_window_rule_is_shared(texts, n):
    expect = _naive_windows(LEN_5_1_5, n)
    grams, doc, pos = ngrams(texts, n)
    assert grams.to_pylist() == [" ".join(w) for _, _, w in expect]
    assert doc.tolist() == [d for d, _, _ in expect]
    assert pos.tolist() == [p for _, p, _ in expect]
    for short in ("fold", "drop"):
        flat, offs = _batch_shingle_hashes(texts, n, short)
        got = [flat[offs[i]:offs[i + 1]].tolist()
               for i in range(len(LEN_5_1_5))]
        assert got == [[int(h) for h in hs]
                       for hs in _naive_shingles(LEN_5_1_5, n, short)], short


def test_null_text_has_no_words():
    texts = pa.array(["a b", None, "c"])
    flat, offs = words(texts)
    assert flat.to_pylist() == ["a", "b", "c"] and offs.tolist() == [0, 2, 2, 3]
    fold, fold_offs = _batch_shingle_hashes(texts, 3)
    assert fold_offs.tolist() == [0, 1, 2, 3] and fold[1] == 0
    assert _batch_shingle_hashes(texts, 3, "drop")[1].tolist() == [0, 0, 0, 0]
    assert _top_word_counts(pa.array(["a a b", "c", None])).tolist() == [2, 1, 0]
