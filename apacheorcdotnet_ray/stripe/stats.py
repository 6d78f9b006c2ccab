"""Per-column statistics: partial (per stripe) + final (file) aggregation.

Analog of the reference's ``ColumnTypes/*WriterStatistics.cs`` accumulators and
the stride→stripe→file roll-up (``Stripes/StripeWriter.cs:151-158``): min / max
/ sum (sum nulled on overflow, mirroring LongWriterStatistics.cs:32-56) / count
/ null count, computed vectorized per Arrow chunk and merged associatively —
the classic partial+final aggregation tree, which is what makes file-level
stats a tiny driver-side reduce over per-stripe metric rows."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_I64_MAX = 2**63 - 1
_I64_MIN = -(2**63)


def int_sum(arr: pa.Array, lo: int, hi: int) -> int | None:
    """Exact sum of an integer array with non-null values in [lo, hi], or
    None when it does not fit int64 (LongWriterStatistics.cs:32-56).
    ``pc.sum`` wraps silently on 64-bit columns, so an int64/uint64 column
    whose sum could leave int64 adds its high and low 32-bit halves as two
    lanes, which cannot overflow below 2^31 values."""
    n = len(arr) - arr.null_count
    if arr.type.bit_width < 64 or n * max(-lo, hi) <= _I64_MAX:
        total = pc.sum(arr).as_py()
    else:
        v = arr.drop_null().to_numpy()
        k = v.dtype.type
        total = (int((v >> k(32)).sum()) << 32) + int((v & k(0xFFFFFFFF)).sum())
    return total if _I64_MIN <= total <= _I64_MAX else None


def column_stats(arr: pa.ChunkedArray | pa.Array) -> dict:
    """JSON-safe partial stats for one column chunk."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    stats: dict = {
        "count": len(arr),
        "null_count": arr.null_count,
    }
    if len(arr) == arr.null_count:
        return stats
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        mm = pc.min_max(arr)
        stats["min"] = mm["min"].as_py()
        stats["max"] = mm["max"].as_py()
        stats["sum"] = (int_sum(arr, stats["min"], stats["max"])
                        if pa.types.is_integer(t) else pc.sum(arr).as_py())
    elif pa.types.is_boolean(t):
        stats["true_count"] = pc.sum(arr.cast(pa.int64())).as_py() or 0
    elif pa.types.is_string(t) or pa.types.is_large_string(t):
        mm = pc.min_max(arr)
        stats["min"] = mm["min"].as_py()
        stats["max"] = mm["max"].as_py()
        stats["sum"] = pc.sum(pc.utf8_length(arr)).as_py()  # total char length
    elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
        stats["sum"] = pc.sum(pc.binary_length(arr)).as_py()
    elif pa.types.is_decimal(t):
        import math

        mm = pc.min_max(arr)
        # float() rounds to nearest, which for >15-digit decimals can push
        # the stored min ABOVE the true min (or max below true max) and make
        # predicate pushdown silently prune a matching stripe — widen each
        # bound by one ULP outward so the footer range always contains the
        # true range
        stats["min"] = math.nextafter(float(mm["min"].as_py()), -math.inf)
        stats["max"] = math.nextafter(float(mm["max"].as_py()), math.inf)
    elif pa.types.is_timestamp(t) or pa.types.is_date(t):
        mm = pc.min_max(arr)
        try:
            stats["min"] = str(mm["min"].as_py())
            stats["max"] = str(mm["max"].as_py())
        except (OverflowError, ValueError):
            # outside Python datetime's year range → store raw epoch units,
            # which predicate.py reads as "may match" (no prune)
            stats["min"] = mm["min"].value
            stats["max"] = mm["max"].value
    elif pa.types.is_list(t) or pa.types.is_large_list(t):
        lens = pc.list_value_length(arr)
        stats["sum"] = pc.sum(lens).as_py()  # total element count
        mm = pc.min_max(lens)
        stats["min_len"] = mm["min"].as_py()
        stats["max_len"] = mm["max"].as_py()
    return stats


def merge_stats(a: dict | None, b: dict | None) -> dict:
    """Associative merge of two partial stats dicts (stripe → file roll-up)."""
    if a is None:
        return dict(b or {})
    if b is None:
        return dict(a)
    out = {
        "count": a.get("count", 0) + b.get("count", 0),
        "null_count": a.get("null_count", 0) + b.get("null_count", 0),
    }
    for key, fn in (("min", min), ("max", max), ("min_len", min), ("max_len", max)):
        va, vb = a.get(key), b.get(key)
        present = [v for v in (va, vb) if v is not None]
        if present:
            try:
                out[key] = fn(present) if len(present) == 2 else present[0]
            except TypeError:
                # mixed stat forms (e.g. one stripe's timestamps stored as
                # ISO strings, another's as the extreme-value int fallback)
                # → drop the bound; absent stats mean conservative no-prune
                pass
    if "sum" in a or "sum" in b:
        sa, sb = a.get("sum"), b.get("sum")
        if sa is None and "sum" in a or sb is None and "sum" in b:
            out["sum"] = None  # overflow poisoning propagates
        else:
            total = (sa or 0) + (sb or 0)
            out["sum"] = total if isinstance(total, float) or _I64_MIN <= total <= _I64_MAX else None
    if "true_count" in a or "true_count" in b:
        out["true_count"] = a.get("true_count", 0) + b.get("true_count", 0)
    return out
