"""Encode configuration — analog of the reference's WriterConfiguration
(/root/reference/src/ApacheOrcDotNet/WriterConfiguration.cs:14-77) plus the
north-star extensions (codec allow-lists, row index, blooms, overrides)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EncodeConfig:
    # compression framing (WriterConfiguration.cs:34,54: 256 KiB blocks, Deflate/Fastest)
    compression: str = "zlib"           # "zlib" (reference parity) | "zstd" | "none"

    # codec selection
    dictionary_threshold: float = 0.8   # unique/total ≤ threshold → dict (cs:64)
    int_codecs: tuple[str, ...] = ("rlev2", "for", "intdict")
    string_codecs: tuple[str, ...] = ("direct", "dict", "fsst")
    # float columns: "raw" IEEE (reference parity, DoubleWriter.cs) vs "bss"
    # byte-stream-split (Parquet-spec encoding; wins after block compression
    # on embedding-style data) — chosen by compressed-sample compete
    float_codecs: tuple[str, ...] = ("raw", "bss")

    # row index: when set, every column encodes in independent `stride`-row
    # segments with per-stride min/max stats in the footer (the reference's
    # ROW_INDEX / position-annotation analog, ColumnTypes/
    # ColumnWriterStatistics.cs:12-33 + OrcCompressedBuffer.cs:66-72):
    # predicate reads decompress only qualifying strides within a surviving
    # stripe instead of every stream. None = single-segment streams.
    row_index_stride: int | None = None
    # per-stripe Bloom filters for these columns (ORC-spec feature the C#
    # reference lacks): ~0.1% false-positive filters in the footer, hashed
    # as ORC BLOOM_FILTER_UTF8, let equality predicates prune stripes that
    # min/max cannot (point lookups on unclustered keys). Types without an
    # ORC bloom hash (bool, decimal, nested) get none.
    bloom_columns: tuple[str, ...] = ()

    # sort rows by this column within each stripe before encoding: stride
    # min/max ranges become disjoint, so predicate reads skip maximally
    # (also improves RLE run lengths on correlated columns). Stripe-local —
    # no global shuffle; combine with an upstream ds.sort for total order.
    sort_within_stripe: str | None = None

    # stripe sizing: flattened values (e.g. tokens) per stripe
    target_stripe_values: int = 4_000_000

    # per-column overrides — the FluentSerialization per-property analog
    # (reference FluentSerialization/*.cs, used at StripeWriter.cs:229-238):
    # {"col_name": {any EncodeConfig field: value}}, applied to that top-
    # level column and its nested children during encode. e.g.
    # {"doc_id": {"string_codecs": ("direct",)}, "value": {"int_codecs": ("rlev2",)}}
    column_overrides: dict = field(default_factory=dict)

    @property
    def compression_level(self) -> int:
        """Deflate "Fastest" (cs:54); zstd 3, smaller AND faster than it."""
        return 3 if self.compression == "zstd" else 1
