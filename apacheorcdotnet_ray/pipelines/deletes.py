"""Merge-on-read row deletion over an encoded stripe corpus.

``delete_where`` marks rows matching a predicate as deleted by writing
per-stripe ``<file>.del`` bitmap sidecars (stripe/deletes.py) — no stripe
bytes are rewritten, so deleting 0.1% of a 100 TB corpus costs one pruned
predicate scan, not a full rewrite. Every subsequent ``read_stripes`` /
``decode_dataset`` applies the sidecars as a final row filter;
``compact_stripes`` physically drops deleted rows when it rewrites.

Scale shape: footer-stat/bloom pruning first (stripes whose stats exclude
the predicate are never opened — same path as a predicate read), then Ray
tasks over the surviving stripes (``map_paths``, sized like a read of those
files) decode ONLY the predicate columns and write each stripe's sidecar
atomically. Deletes accumulate (set-OR) and re-runs are
idempotent.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from ..predicate import bind, normalize_predicate
from ..sources.stripes import map_paths, prune_stripes, stripe_paths
from ..stripe.container import decode_stripe
from ..stripe.deletes import read_delete_mask, write_delete_mask


def delete_where(stripe_dir: str, predicate) -> dict:
    """Mark rows matching ``predicate`` (one (col, op, lit) triple or a
    conjunction list) deleted across the corpus. Returns a summary dict:
    files / files_scanned / rows_deleted_new / rows_deleted_total."""
    preds = normalize_predicate(predicate)
    if not preds:
        raise ValueError("delete_where needs a predicate")
    paths = stripe_paths(stripe_dir)
    if not paths:
        raise FileNotFoundError(f"no .oray stripes under {stripe_dir}")
    # stripes whose footer stats/bloom exclude the predicate contain no
    # matching rows — their sidecars can't change, skip the decode entirely
    candidates = prune_stripes(paths, preds)
    pred_cols = sorted({p[0] for p in preds})

    def mark(batch: pa.Table) -> pa.Table:
        out_path, out_new = [], []
        for path in batch.column("path").to_pylist():
            with open(path, "rb") as f:
                buf = f.read()
            # full physical decode of just the predicate columns: the mask
            # must align to every row, so no stride skip / late-material here
            tbl = decode_stripe(buf, columns=pred_cols)
            mask = bind(preds, tbl.schema).mask(tbl)
            dm = pc.fill_null(mask, False).to_numpy(zero_copy_only=False) \
                .astype(bool)  # NULL never matches ⇒ never deleted (SQL WHERE)
            out_path.append(path)
            out_new.append(write_delete_mask(path, dm))
        return pa.table({"path": pa.array(out_path),
                         "new": pa.array(out_new, type=pa.int64())})

    new_total = 0
    if candidates:
        res = map_paths([{"path": p} for p in candidates], mark,
                        sum(os.path.getsize(p) for p in candidates))
        new_total = sum(r["new"] for r in res.take_all())
    total = 0
    for p in paths:
        dm = read_delete_mask(p)
        if dm is not None:
            total += int(dm.sum())
    return {"files": len(paths), "files_scanned": len(candidates),
            "rows_deleted_new": int(new_total),
            "rows_deleted_total": int(total)}


def undelete_all(stripe_dir: str) -> int:
    """Drop every delete sidecar under the directory (restore all rows);
    returns the number of sidecars removed."""
    from ..stripe.deletes import sidecar_path

    n = 0
    for p in stripe_paths(stripe_dir):
        sp = sidecar_path(p)
        if os.path.exists(sp):
            os.remove(sp)
            n += 1
    return n
