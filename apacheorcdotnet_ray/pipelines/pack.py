"""Sequence packing: documents' token lists → fixed-length training
sequences, the last tokens-axis mile of an LLM data pipeline.

Docs are hash-partitioned (bounded partitions, ``shuffle.grouped_map``) and
packed greedily in deterministic doc-id order WITHIN each partition, so the
operator is reproducible, shuffle-bounded, and each partition emits
independent, self-contained sequences — on a cluster each ~1/N-th of the
corpus packs in parallel with no coordination. Cross-partition remainders
are not merged (at most one partial sequence per partition, padded or
dropped) — the standard trade for distributed packing.

Everything inside a partition is vectorized: one concatenate over the flat
token stream, one reshape into (n, seq_len), searchsorted for per-sequence
document boundaries (attention-mask resets).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .shuffle import grouped_map


def pack_sequences(
    ds: rd.Dataset,
    seq_len: int = 2048,
    tokens_col: str = "tokens",
    id_col: str = "doc_id",
    pad_id: int | None = 0,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Output rows: (first_doc, n_docs, n_tokens, doc_starts, tokens).

    - ``tokens``: exactly ``seq_len`` ids; the final sequence of a partition
      pads with ``pad_id`` (or is DROPPED when ``pad_id`` is None).
    - ``n_tokens``: real (non-pad) token count.
    - ``doc_starts``: offsets within the sequence where a new document
      begins (position 0 included iff a document starts there) — feeds
      block-diagonal attention masking.
    - ``first_doc`` / ``n_docs``: lineage back to the packed documents.
    """

    def pack(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        id_arr = t.column(id_col).combine_chunks()
        empty = pa.table({
            "first_doc": pa.array([], type=id_arr.type),
            "n_docs": pa.array([], type=pa.int64()),
            "n_tokens": pa.array([], type=pa.int64()),
            "doc_starts": pa.array([], type=pa.large_list(pa.int32())),
            "tokens": pa.array([], type=pa.large_list(pa.int32())),
        })
        if t.num_rows == 0:
            return empty
        order = pc.sort_indices(id_arr)
        ids = id_arr.take(order)
        toks = t.column(tokens_col).combine_chunks().take(order)
        # flat token stream + doc boundaries straight off the Arrow list
        # buffers — no per-doc Python, no object-dtype pandas round-trip
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        flat = flat.astype(np.int32, copy=False)
        bounds = np.concatenate([[0], np.cumsum(lens)])  # doc start offsets
        total = len(flat)
        n_full = total // seq_len
        rem = total - n_full * seq_len
        if rem and pad_id is not None:
            flat = np.concatenate([flat, np.full(seq_len - rem, pad_id, np.int32)])
            n_seq = n_full + 1
        else:
            n_seq = n_full
            flat = flat[: n_seq * seq_len]
        if n_seq == 0:
            return empty
        cuts = np.arange(n_seq + 1, dtype=np.int64) * seq_len
        # docs whose start falls in [cuts[i], cuts[i+1]) belong to sequence i
        start_seq = np.searchsorted(cuts, bounds[:-1], side="right") - 1
        start_seq = np.minimum(start_seq, n_seq - 1)
        # first/last doc index touching each sequence
        first_idx = np.searchsorted(bounds, cuts[:-1], side="right") - 1
        last_idx = np.minimum(
            np.searchsorted(bounds, np.minimum(cuts[1:], total), side="left") - 1,
            len(lens) - 1)
        n_tok = np.minimum(cuts[1:], total) - cuts[:-1]
        # only docs whose start survives truncation (drop mode cuts the
        # remainder at n_seq*seq_len; an unfiltered bound would emit
        # doc_starts >= seq_len pointing at dropped docs); starts are sorted
        # and start_seq is nondecreasing, so one bincount gives per-seq counts
        kept = min(total, n_seq * seq_len)
        live = bounds[:-1] < kept
        ds_vals = (bounds[:-1][live] - cuts[start_seq[live]]).astype(np.int32)
        ds_counts = np.bincount(start_seq[live], minlength=n_seq)
        # large_list (int64 offsets): a partition's flat token stream can
        # exceed 2^31 at corpus scale
        ds_offs = np.concatenate([[0], np.cumsum(ds_counts)]).astype(np.int64)
        doc_starts = pa.LargeListArray.from_arrays(
            pa.array(ds_offs, type=pa.int64()), pa.array(ds_vals, type=pa.int32()))
        tokens = pa.LargeListArray.from_arrays(
            pa.array(cuts, type=pa.int64()),
            pa.array(flat, type=pa.int32()))
        return pa.table({
            "first_doc": ids.take(pa.array(first_idx)),
            "n_docs": pa.array((last_idx - first_idx + 1).astype(np.int64)),
            "n_tokens": pa.array(n_tok.astype(np.int64)),
            "doc_starts": doc_starts,
            "tokens": tokens,
        })

    return grouped_map(ds.select_columns([id_col, tokens_col]), [id_col],
                       pack, num_partitions, batch_format="pyarrow")


def _matrix_stream(packed, seq_len: int, batch_rows: int, start_batch: int):
    """Shared trainer tail: packed sequences -> dense (batch_rows, seq_len)
    int32 matrices + real-token counts. ``start_batch`` fast-forwards a
    resumed trainer: skipped batches still stream through decode/pack
    (packing is stateful across docs, so their content is needed), but no
    matrix is built for them."""
    import numpy as np

    for i, b in enumerate(packed.iter_batches(batch_size=batch_rows,
                                              batch_format="pyarrow")):
        if i < start_batch:
            continue
        toks = b.column("tokens")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        if hasattr(toks, "flatten"):  # plain list<int32>
            flat = toks.flatten().to_numpy(zero_copy_only=False)
        else:  # Ray tensor-extension array (fixed-shape rows)
            flat = np.asarray(toks.to_numpy(zero_copy_only=False)).ravel()
        mat = flat.astype(np.int32, copy=False).reshape(len(toks), seq_len)
        yield mat, b.column("n_tokens").to_numpy(zero_copy_only=False)


def iter_training_batches(stripe_dir: str, seq_len: int = 2048,
                          batch_rows: int = 32, pad_id: int = 0,
                          tokens_col: str = "tokens", id_col: str = "doc_id",
                          num_partitions: int = 64, start_batch: int = 0):
    """The training-loop consumer: stream an encoded stripe corpus as dense
    (batch_rows, seq_len) int32 matrices + per-row real-token counts.

    decode (column-pruned) → pack_sequences → iter_batches: the whole chain
    is a lazy streaming pipeline with backpressure, so the trainer pulls
    batches while decode/pack of later stripes is still running — nothing
    materializes beyond Ray's object store."""
    import numpy as np

    from .encode import decode_dataset

    ds = decode_dataset(stripe_dir, columns=[id_col, tokens_col])
    packed = pack_sequences(ds, seq_len=seq_len, tokens_col=tokens_col,
                            id_col=id_col, pad_id=pad_id,
                            num_partitions=num_partitions)
    yield from _matrix_stream(packed, seq_len, batch_rows, start_batch)


def iter_shuffled_batches(stripe_dir: str, epoch: int, seq_len: int = 2048,
                          batch_rows: int = 32, pad_id: int = 0,
                          tokens_col: str = "tokens", id_col: str = "doc_id",
                          num_partitions: int = 64, start_batch: int = 0):
    """Per-epoch shuffled trainer stream WITHOUT a global shuffle: the
    two-level deterministic shuffle every at-scale training loop uses.

    Level 1 — stripe order: files are visited in a seeded permutation
    (sorted by hash(name, epoch)), so each epoch streams the corpus in a
    different file order at zero data-movement cost. Level 2 — within the
    stream, docs get sample.epoch_shuffle_rank-style deterministic ranks and
    each decode batch is permuted locally before packing. The composition
    approximates a uniform shuffle the way block-shuffled data loaders do
    (shard order x intra-shard permutation), is fully reproducible from
    (corpus, epoch), and never materializes more than Ray's object store
    holds — a true global shuffle of 10^12 tokens would be an all-to-all
    over the entire corpus every epoch."""
    import zlib as _z

    import numpy as np

    from ..sources.stripes import decode_paths, stripe_paths
    from ..stages.decode import StripeDecoder
    import os

    paths = stripe_paths(stripe_dir)
    if not paths:
        raise FileNotFoundError(f"no .oray stripes under {stripe_dir}")
    order = sorted(paths, key=lambda p: _z.crc32(
        f"{os.path.basename(p)}#{epoch}".encode()))
    ds = decode_paths([{"path": p} for p in order],
                      StripeDecoder(columns=[id_col, tokens_col]))

    def permute(batch: pa.Table) -> pa.Table:
        # deterministic local permutation: rank = crc-free integer hash of
        # (row position, epoch) — stable across runs for a fixed corpus
        n = batch.num_rows
        r = (np.arange(n, dtype=np.int64) * np.int64(2654435761)
             + np.int64(epoch) * np.int64(40503)) % np.int64(max(n, 1) * 2 + 1)
        return batch.take(pa.array(np.argsort(r, kind="stable")))

    shuffled = ds.map_batches(permute, batch_format="pyarrow")
    packed = pack_sequences(shuffled, seq_len=seq_len, tokens_col=tokens_col,
                            id_col=id_col, pad_id=pad_id,
                            num_partitions=num_partitions)
    yield from _matrix_stream(packed, seq_len, batch_rows, start_batch)
