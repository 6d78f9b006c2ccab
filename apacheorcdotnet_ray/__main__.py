"""Console entry points — the reference's WriterTest.App / ReaderTest.App
console surface (Program.cs) re-expressed as a small CLI:

    python -m apacheorcdotnet_ray encode  'IN*.parquet' [IN2...] OUT_DIR
        [--compression zlib|zstd|none] [--stride N] [--columns a,b]
        [--group-by-source] [--no-resume]
    python -m apacheorcdotnet_ray decode  STRIPE_DIR OUT.parquet
        [--columns a,b] [--predicate col,op,lit]
    python -m apacheorcdotnet_ray inspect STRIPE_DIR_OR_FILE
    python -m apacheorcdotnet_ray verify  IN.parquet STRIPE_DIR
    python -m apacheorcdotnet_ray compact STRIPE_DIR OUT_DIR
    python -m apacheorcdotnet_ray export-orc IN OUT_DIR [--compression zlib]
    python -m apacheorcdotnet_ray import-orc IN OUT.parquet [--columns a,b]

This module OWNS its Ray session (guarded init) — library code never does.
It joins ``RAY_ADDRESS`` (``ray job submit``), else the latest ``ray start``
cluster, else starts a local one.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False, logging_level="ERROR")


def cmd_encode(args) -> int:
    import glob

    from .pipelines.encode import encode_corpus, encode_grouped
    from .sources.parquet import read_parquet_clean
    from .stripe import EncodeConfig

    # expanded here: a large corpus overflows a shell's argument limit
    paths = sorted(p for pattern in args.inputs for p in glob.glob(pattern))
    if not paths:
        print(f"no input files match {args.inputs}", file=sys.stderr)
        return 2
    _ensure_ray()
    cfg = EncodeConfig(compression=args.compression,
                       row_index_stride=args.stride,
                       bloom_columns=tuple(args.bloom.split(",")) if args.bloom else (),
                       sort_within_stripe=args.sort_within_stripe)
    columns = args.columns.split(",") if args.columns else None
    keys = ("rows", "raw_bytes", "encoded_bytes")
    if args.group_by_source:
        metrics = encode_grouped(read_parquet_clean(paths, columns=columns),
                                 args.out_dir, config=cfg).take_all()
        summary = {k: sum(r[k] for r in metrics) for k in keys}
        summary["stripes"] = len(metrics)
    else:
        summary = encode_corpus(paths, args.out_dir, config=cfg,
                                columns=columns, resume=not args.no_resume)
    print(json.dumps({k: summary[k] for k in (*keys, "stripes")}, default=str))
    return 0


def _predicate_term(spec: str) -> tuple:
    """``col,op,lit`` → (col, op, lit). The literal is JSON when it parses
    (7, 7.5, "x", true), else the raw string; the read casts it to the
    column's type (predicate.py)."""
    col, op, lit = spec.split(",", 2)
    try:
        lit = json.loads(lit)
    except json.JSONDecodeError:
        pass
    return col, op, lit


def cmd_decode(args) -> int:
    from .pipelines.encode import decode_dataset

    _ensure_ray()
    predicate = _predicate_term(args.predicate) if args.predicate else None
    columns = args.columns.split(",") if args.columns else None
    ds = decode_dataset(args.stripe_dir, columns=columns, predicate=predicate,
                        unify_schema=args.unify_schema).materialize()
    ds.write_parquet(args.out)  # materialized: decode runs once, not per consumer
    print(json.dumps({"rows": ds.count(), "out": args.out}))
    return 0


def cmd_export_orc(args) -> int:
    """parquet / .oray stripes -> real .orc files (one per block)."""
    from .sources.orc_writer import write_orc_dataset

    _ensure_ray()
    if args.input.endswith(".parquet"):
        from .sources.parquet import read_parquet_clean

        ds = read_parquet_clean(args.input)
    else:
        from .pipelines.encode import decode_dataset

        ds = decode_dataset(args.input)
    n = write_orc_dataset(
        ds, args.out_dir, compression=args.compression,
        bloom_columns=tuple(args.bloom.split(",")) if args.bloom else ())
    print(json.dumps({"orc_files": n, "out_dir": args.out_dir}))
    return 0


def cmd_import_orc(args) -> int:
    """real .orc files -> parquet (decoded by this repo's ORC reader)."""
    from .sources.orc_reader import read_orc_files

    _ensure_ray()
    columns = args.columns.split(",") if args.columns else None
    # repeatable: terms AND together
    predicate = [_predicate_term(p) for p in args.predicate or ()]
    read_orc_files(args.input, columns=columns,
                   predicate=predicate).write_parquet(args.out)
    print(json.dumps({"out": args.out}))
    return 0


def cmd_inspect(args) -> int:
    import glob
    import os

    from .sources.stripes import read_stripe_footer

    paths = ([args.path] if os.path.isfile(args.path)
             else sorted(glob.glob(os.path.join(args.path, "*.oray"))))
    for p in paths:
        f = read_stripe_footer(p)
        print(json.dumps({
            "file": os.path.basename(p),
            "rows": f["rows"],
            "version": f.get("version"),
            "compression": f.get("compression"),
            "columns": [{"name": c["name"], "encoding": c["encoding"]}
                        for c in f["columns"]],
            "strides": len(f.get("stride_rows", [])) or None,
            "data_length": f["data_length"],
        }))
    return 0


def cmd_verify(args) -> int:
    from .pipelines.encode import decode_dataset
    from .pipelines.verify import verify_roundtrip
    from .sources.parquet import read_parquet_clean

    _ensure_ray()
    res = verify_roundtrip(read_parquet_clean(args.parquet),
                           decode_dataset(args.stripe_dir))
    print(json.dumps(res))
    return 0 if res.get("content_match") else 1


def cmd_compact(args) -> int:
    from .pipelines.encode import compact_stripes

    _ensure_ray()
    res = compact_stripes(args.stripe_dir, args.out_dir)
    print(json.dumps(res, default=str))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="apacheorcdotnet_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("encode", help="parquet -> .oray stripes")
    e.add_argument("inputs", nargs="+", help="parquet files or quoted globs")
    e.add_argument("out_dir")
    e.add_argument("--compression", default="zlib",
                   choices=["zlib", "zstd", "none"])
    e.add_argument("--stride", type=int, default=None,
                   help="row_index_stride (enables per-stride ROW_INDEX)")
    e.add_argument("--bloom", default=None, metavar="col1,col2",
                   help="per-stripe Bloom filters for equality pruning")
    e.add_argument("--sort-within-stripe", default=None, metavar="col",
                   help="sort rows by col inside each stripe (tighter strides)")
    e.add_argument("--columns", default=None, metavar="a,b")
    e.add_argument("--group-by-source", action="store_true",
                   help="one source per stripe, hot sources split")
    e.add_argument("--no-resume", action="store_true")
    e.set_defaults(fn=cmd_encode)

    d = sub.add_parser("decode", help=".oray stripes -> parquet")
    d.add_argument("stripe_dir")
    d.add_argument("out")
    d.add_argument("--columns", default=None)
    d.add_argument("--predicate", default=None, metavar="col,op,lit")
    d.add_argument("--unify-schema", action="store_true")
    d.set_defaults(fn=cmd_decode)

    i = sub.add_parser("inspect", help="print stripe footers")
    i.add_argument("path")
    i.set_defaults(fn=cmd_inspect)

    v = sub.add_parser("verify", help="parquet vs stripes content hash")
    v.add_argument("parquet")
    v.add_argument("stripe_dir")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("compact", help="merge undersized stripes")
    c.add_argument("stripe_dir")
    c.add_argument("out_dir")
    c.set_defaults(fn=cmd_compact)

    xo = sub.add_parser("export-orc",
                        help="parquet or .oray stripes -> real .orc files")
    xo.add_argument("input", help="a .parquet file or a stripe directory")
    xo.add_argument("out_dir")
    xo.add_argument("--compression", default="zlib",
                    choices=["zlib", "zstd", "none"])
    xo.add_argument("--bloom", default=None, metavar="col1,col2",
                    help="emit ORC BLOOM_FILTER_UTF8 streams for these "
                         "columns (equality-predicate row-group skipping "
                         "in any ORC reader)")
    xo.set_defaults(fn=cmd_export_orc)

    io_ = sub.add_parser("import-orc",
                         help="real .orc files -> parquet (our decoder)")
    io_.add_argument("input", help=".orc file, glob, or directory")
    io_.add_argument("out")
    io_.add_argument("--columns", default=None)
    io_.add_argument("--predicate", action="append", default=None,
                     metavar="COL,OP,LIT",
                     help="prunes files (footer stats), stripes (Metadata "
                          "stats + blooms) and row groups (ROW_INDEX), "
                          "then filters rows exactly; repeatable — terms "
                          "AND together")
    io_.set_defaults(fn=cmd_import_orc)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
