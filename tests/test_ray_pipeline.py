"""End-to-end Ray Data pipeline tests: encode → stripes → decode → verify,
plus checkpoint/resume (SURVEY.md §7.1 M3-M5)."""

import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from apacheorcdotnet_ray.pipelines.encode import (
    encode_corpus,
    encode_dataset,
    decode_dataset,
    encode_num_blocks,
    enumerate_partitions,
)
from apacheorcdotnet_ray.pipelines.verify import verify_roundtrip
from apacheorcdotnet_ray.sources.tokens import generate_tokens_shard, write_tokens_corpus
from apacheorcdotnet_ray.stripe import EncodeConfig, read_footer


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("tokens_corpus")
    paths = write_tokens_corpus(str(d), n_shards=3, docs_per_shard=400, seed=42)
    return paths


def test_tokens_generator_deterministic():
    a = generate_tokens_shard(0, 50, seed=42)
    b = generate_tokens_shard(0, 50, seed=42)
    assert a.equals(b)
    assert a.column_names == ["doc_id", "tokens", "n_tok", "source"]
    assert str(a.schema.field("tokens").type) == "list<item: int32>"


def test_encode_corpus_roundtrip(corpus, ray_session, tmp_path):
    import ray.data as rd

    out = str(tmp_path / "stripes")
    summary = encode_corpus(corpus, out, EncodeConfig(target_stripe_values=50_000))
    assert summary["rows"] == 1200
    assert summary["partitions"] == len(enumerate_partitions(corpus))
    assert os.path.exists(os.path.join(out, "manifest.jsonl"))
    assert summary["encoded_bytes"] < summary["raw_bytes"]

    src = rd.read_parquet(corpus)
    dec = decode_dataset(out)
    res = verify_roundtrip(src, dec)
    assert res["rows_match"] and res["content_match"], res


def test_encode_corpus_resume_identical_manifest(corpus, ray_session, tmp_path):
    out_full = str(tmp_path / "full")
    out_resume = str(tmp_path / "resumed")

    encode_corpus(corpus, out_full)
    # simulate a killed job: first run covers only the first shard
    encode_corpus(corpus[:1], out_resume)
    # resume with the complete input
    encode_corpus(corpus, out_resume)

    with open(os.path.join(out_full, "manifest.jsonl")) as f:
        full = f.read()
    with open(os.path.join(out_resume, "manifest.jsonl")) as f:
        resumed = f.read()
    assert full == resumed
    s1 = json.load(open(os.path.join(out_full, "job_summary.json")))
    s2 = json.load(open(os.path.join(out_resume, "job_summary.json")))
    assert s1 == s2


def test_encode_num_blocks_rule():
    from types import SimpleNamespace

    mib = 1 << 20
    ctx = SimpleNamespace(read_op_min_num_blocks=200, target_min_block_size=mib,
                          target_max_block_size=128 * mib)
    # many tiny partitions: blocks of at least 1 MiB, but two per CPU
    assert encode_num_blocks(32, 4 * mib + 5, 1, ctx) == 4
    assert encode_num_blocks(32, mib, 1, ctx) == 2
    assert encode_num_blocks(32, mib, 4, ctx) == 8
    assert encode_num_blocks(32, 2 * mib, 4, ctx) == 8
    # under 1 MiB in all: one block per CPU, not two
    assert encode_num_blocks(32, 100_000, 1, ctx) == 1
    assert encode_num_blocks(32, 100_000, 4, ctx) == 4
    assert encode_num_blocks(64, mib - 1, 32, ctx) == 32
    assert encode_num_blocks(3, 0, 1, ctx) == 1
    # CPUs >= partitions: one block per partition
    assert encode_num_blocks(32, 100_000, 32, ctx) == 32
    assert encode_num_blocks(3, 100_000, 8, ctx) == 3
    # few large partitions: never more blocks than partitions
    assert encode_num_blocks(3, 10 << 30, 1, ctx) == 3
    # many large ones: read_op_min_num_blocks, until blocks would pass the max size
    assert encode_num_blocks(1000, 1 << 30, 1, ctx) == 200
    assert encode_num_blocks(1000, 64 << 30, 1, ctx) == 512


def test_encode_corpus_block_sizing_same_output(ray_session, tmp_path, monkeypatch):
    """Blocks of several partitions write what one block per partition writes."""
    import apacheorcdotnet_ray.pipelines.encode as enc

    paths = write_tokens_corpus(str(tmp_path / "in"), n_shards=32, docs_per_shard=5, seed=7)
    rule = enc.encode_num_blocks
    used = []

    def two_cpus(n_parts, est_bytes, cpus, ctx):
        used.append(rule(n_parts, est_bytes, 2, ctx))
        return used[-1]

    monkeypatch.setattr(enc, "encode_num_blocks", two_cpus)
    encode_corpus(paths, str(tmp_path / "sized"))
    monkeypatch.setattr(enc, "encode_num_blocks", lambda n_parts, *_: n_parts)
    encode_corpus(paths, str(tmp_path / "per_part"))
    assert used == [2]

    def contents(d):
        return {name: open(os.path.join(d, name), "rb").read()
                for name in os.listdir(d) if name.endswith((".oray", ".jsonl", ".json"))}

    sized, per_part = contents(tmp_path / "sized"), contents(tmp_path / "per_part")
    assert sum(n.endswith(".oray") for n in sized) >= 32
    assert sized == per_part


def test_encode_corpus_skips_done(corpus, ray_session, tmp_path):
    out = str(tmp_path / "skip")
    encode_corpus(corpus, out)
    before = os.path.getmtime(os.path.join(out, "manifest.jsonl"))
    encode_corpus(corpus, out)  # no-op: everything is already done
    after = os.path.getmtime(os.path.join(out, "manifest.jsonl"))
    assert before == after


def test_streaming_encode_dataset(corpus, ray_session, tmp_path):
    import ray.data as rd

    out = str(tmp_path / "stream_stripes")
    ds = rd.read_parquet(corpus)
    metrics = encode_dataset(ds, out, batch_size=500).take_all()
    assert sum(m["rows"] for m in metrics) == 1200
    assert all(m["encoded_bytes"] > 0 for m in metrics)
    dec = decode_dataset(out)
    res = verify_roundtrip(rd.read_parquet(corpus), dec)
    assert res["content_match"], res


def test_column_stats_rollup(corpus, ray_session, tmp_path):
    out = str(tmp_path / "stats")
    summary = encode_corpus(corpus, out)
    st = summary["column_stats"]["n_tok"]
    tables = [pq.read_table(p) for p in corpus]
    all_ntok = np.concatenate([t["n_tok"].to_numpy() for t in tables])
    assert st["min"] == int(all_ntok.min())
    assert st["max"] == int(all_ntok.max())
    assert st["sum"] == int(all_ntok.sum())
    assert st["count"] == len(all_ntok)


def test_encode_grouped_skew_split(corpus, ray_session, tmp_path):
    """Source-keyed stripe packing: hot sources split into multiple stripes,
    each stripe is source-pure, and the full round-trip is lossless."""
    import json

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.encode import decode_dataset, encode_grouped
    from apacheorcdotnet_ray.pipelines.verify import verify_roundtrip
    from apacheorcdotnet_ray.stripe import EncodeConfig

    rng = np.random.default_rng(9)
    n = 600
    # one giant skewed source (~80% of tokens) + several small ones
    sources = np.where(rng.random(n) < 0.8, "hot", rng.choice(["a", "b", "c"], n))
    tok_lens = rng.integers(50, 200, n)
    toks = [rng.integers(0, 50257, L).astype(np.int32) for L in tok_lens]
    offs = np.concatenate([[0], np.cumsum(tok_lens)]).astype(np.int32)
    tokens = pa.ListArray.from_arrays(pa.array(offs), pa.array(np.concatenate(toks), type=pa.int32()))
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(n)]),
        "tokens": tokens,
        "n_tok": pa.array(tok_lens.astype(np.int32)),
        "source": pa.array(sources.tolist()),
    })
    ds = rd.from_arrow(t)
    out = str(tmp_path / "grouped")
    budget = 8000  # tokens per stripe → the hot source must split
    metrics = encode_grouped(ds, out, config=EncodeConfig(), stripe_value_budget=budget).to_pandas()

    lineages = metrics["lineage_json"].map(json.loads)
    hot_stripes = [l for l in lineages if l.get("source") == "hot"]
    assert len(hot_stripes) > 1, "hot source must be split across stripes"
    # every stripe is source-pure: lineage records exactly one source value
    assert all("source" in l for l in lineages)
    # stripes stay near the budget (hash salting is approximately uniform)
    hot_rows = metrics[[json.loads(x).get("source") == "hot" for x in metrics["lineage_json"]]]
    assert (hot_rows["n_values"] < budget * 3).all()

    res = verify_roundtrip(ds, decode_dataset(out))
    assert res["content_match"], res


def test_stripe_encoder_lineage_key_range_unsorted(tmp_path):
    """Stripe lineage records the key column's true min and max, not its
    first and last rows."""
    import pyarrow as pa

    from apacheorcdotnet_ray.stages.encode import StripeEncoder

    batch = pa.table({"doc_id": pa.array([5, 2, 9, 1, 7], type=pa.int64()),
                      "v": pa.array(["a", "b", "c", "d", "e"])})
    enc = StripeEncoder(out_dir=str(tmp_path), config=EncodeConfig(), key_column="doc_id")
    metrics = enc(batch)
    lineage = json.loads(metrics["lineage_json"][0].as_py())
    assert (lineage["key_min"], lineage["key_max"]) == ("1", "9")
    footer = read_footer(open(metrics["path"][0].as_py(), "rb").read())
    assert footer["lineage"] == lineage


def test_stripe_bytes_depend_only_on_its_rows(tmp_path):
    """A stripe's name and bytes are a function of its own rows: batch B
    written after batch A of the same source (as ``encode_grouped`` does)
    equals B written alone, on a prose column where FSST wins."""
    import pyarrow as pa

    from apacheorcdotnet_ray.stages.encode import StripeEncoder

    def mk_batch(seed):
        rng = np.random.default_rng(seed)
        words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"),
                                    rng.integers(2, 9))) for _ in range(21)]
        return pa.table({
            "doc_id": pa.array(np.arange(300, dtype=np.int64) + seed * 1000),
            "body": pa.array([" ".join(rng.choice(words, 20)) + f" tail{i}"
                              for i in range(300)]),
            "source": pa.array(["s1"] * 300),
        })

    a, b = mk_batch(1), mk_batch(2)

    def write(out, batches):
        enc = StripeEncoder(out_dir=str(out), key_column="doc_id",
                            lineage_columns=("source",))
        path = [enc(t)["path"][0].as_py() for t in batches][-1]
        return os.path.basename(path), open(path, "rb").read()

    after_a = write(tmp_path / "after_a", [a, b])
    alone = write(tmp_path / "alone", [b])
    body = next(c for c in read_footer(alone[1])["columns"] if c["name"] == "body")
    assert body["encoding"] == "fsst"
    assert after_a == alone


def test_distinct_count_and_hll(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    rng = np.random.default_rng(12)
    vals = rng.integers(0, 5000, 60_000)
    ds = rd.from_arrow(pa.table({"x": pa.array(vals)})).repartition(8)
    exact = stats.distinct_count(ds, "x")["n_distinct"][0].as_py()
    assert exact == len(np.unique(vals))
    approx = stats.distinct_count_hll(ds, "x")["n_distinct_approx"][0].as_py()
    assert abs(approx - exact) / exact < 0.03


def test_top_k(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    rng = np.random.default_rng(13)
    vals = rng.choice(["a", "b", "c", "d", "e"], 10_000, p=[0.4, 0.3, 0.15, 0.1, 0.05])
    ds = rd.from_arrow(pa.table({"x": pa.array(vals.tolist())})).repartition(4)
    top = stats.top_k(ds, "x", k=3).to_pydict()
    import collections
    expect = collections.Counter(vals.tolist()).most_common(3)
    assert list(zip(top["x"], top["cnt"])) == expect


def test_predicate_pushdown_prunes_stripes(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.encode import decode_dataset, encode_dataset
    from apacheorcdotnet_ray.sources.stripes import prune_stripes, stripe_paths

    # four stripes with disjoint key ranges (batch_size bounds each stripe)
    t = pa.table({
        "k": pa.array(np.arange(4000, dtype=np.int64)),
        "v": pa.array(np.arange(4000, dtype=np.float64) * 0.5),
    })
    out = str(tmp_path / "stripes")
    encode_dataset(rd.from_arrow(t), out, batch_size=1000).materialize()
    paths = stripe_paths(out)
    assert len(paths) >= 4

    kept = prune_stripes(paths, ("k", "<", 500))
    assert len(kept) < len(paths), "footer stats must prune whole stripes"

    got = decode_dataset(out, columns=["k"], predicate=("k", "<", 500)).to_pandas()
    assert sorted(got["k"].tolist()) == list(range(500))
    # predicate column not in projection still works
    got2 = decode_dataset(out, columns=["v"], predicate=("k", ">=", 3500)).to_pandas()
    assert len(got2) == 500 and list(got2.columns) == ["v"]


def test_compact_stripes(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.encode import (
        compact_stripes, decode_dataset, encode_dataset)
    from apacheorcdotnet_ray.pipelines.verify import verify_roundtrip
    from apacheorcdotnet_ray.sources.stripes import stripe_paths

    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(2000)]),
        "k": pa.array(np.arange(2000, dtype=np.int64)),
    })
    small = str(tmp_path / "small")
    encode_dataset(rd.from_arrow(t), small, batch_size=100).materialize()
    n_small = len(stripe_paths(small))
    assert n_small >= 20

    out = str(tmp_path / "compacted")
    summary = compact_stripes(small, out, target_values=4000)
    n_out = len(stripe_paths(out))
    assert n_out < n_small / 2
    assert summary["output_stripes"] == n_out

    res = verify_roundtrip(rd.from_arrow(t), decode_dataset(out))
    assert res["content_match"], res


def test_quantile_exact_matches_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    rng = np.random.default_rng(21)
    v = np.concatenate([rng.normal(0, 1, 30_000), rng.normal(50, 5, 5000),
                        np.full(2000, 7.5)])  # heavy duplicate cluster
    ds = rd.from_arrow(pa.table({"x": pa.array(v)})).repartition(8)
    for q in (0.1, 0.5, 0.9, 0.999):
        expect = float(np.sort(v)[int(np.floor(q * (len(v) - 1)))])
        got = stats.quantile_exact(ds, "x", q)
        assert got == expect, (q, got, expect)


def test_sessionize_gap_semantics(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-01 10:10", "2024-01-01 11:00",  # u1: 2 sessions
        "2024-01-01 09:00",                                          # u2: 1 session
    ])
    t = pa.table({"user_id": pa.array([1, 1, 1, 2], type=pa.int64()),
                  "ts": pa.array(ts, type=pa.timestamp("us"))})
    out = stats.sessionize(rd.from_arrow(t), gap_minutes=30).to_pandas()
    got = out.set_index("user_id")
    assert got.loc[1, "n_sessions"] == 2 and got.loc[1, "n_events"] == 3
    assert got.loc[2, "n_sessions"] == 1 and got.loc[2, "n_events"] == 1


def test_dedup_embedding_lsh_finds_planted_dups(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import dedup

    rng = np.random.default_rng(31)
    base = rng.normal(size=(500, 16))
    # plant 5 near-duplicate pairs (tiny perturbations)
    dups = base[:5] + rng.normal(scale=0.01, size=(5, 16))
    m = np.vstack([base, dups])
    offs = (np.arange(len(m) + 1) * 16).astype(np.int32)
    emb = pa.ListArray.from_arrays(pa.array(offs),
                                   pa.array(m.ravel().astype(np.float32), type=pa.float32()))
    ds = rd.from_arrow(pa.table({"vec_id": pa.array(np.arange(len(m), dtype=np.int64)),
                                 "embedding": emb})).repartition(4)
    out = dedup.dedup_embedding_lsh(ds, threshold=0.98).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(out["vec_a"], out["vec_b"])}
    planted = {(i, 500 + i) for i in range(5)}
    assert planted <= found, planted - found
    assert (out["cosine"] >= 0.98).all()


def test_encode_grouped_without_weight_column(ray_session, tmp_path):
    """Tables without n_tok fall back to row-count stripe budgets."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.encode import decode_dataset, encode_grouped
    from apacheorcdotnet_ray.pipelines.verify import verify_roundtrip

    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(400)]),
        "source": pa.array((["hot"] * 300) + (["cold"] * 100)),
        "x": pa.array(np.arange(400, dtype=np.int64)),
    })
    ds = rd.from_arrow(t)
    out = str(tmp_path / "g")
    metrics = encode_grouped(ds, out, stripe_value_budget=100).to_pandas()
    assert len(metrics) >= 4  # hot source splits by row budget
    res = verify_roundtrip(ds, decode_dataset(out))
    assert res["content_match"], res


def test_dup_clusters_and_canonical_filter(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import dedup

    # components: {1,2,3} (chained), {7,9}; singletons untouched
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([1, 2, 7], type=pa.int64()),
        "doc_b": pa.array([2, 3, 9], type=pa.int64()),
    }))
    cl = dedup.dup_clusters(pairs).to_pandas().set_index("doc_id")["cluster"].to_dict()
    assert cl == {1: 1, 2: 1, 3: 1, 7: 7, 9: 7}

    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 5, 7, 9], type=pa.int64()),
        "text": pa.array(list("abcdef")),
    }))
    kept = dedup.keep_canonical(corpus, dedup.dup_clusters(pairs)).to_pandas()
    assert sorted(kept["doc_id"]) == [1, 5, 7]


def test_schema_evolution_unify(ray_session, tmp_path):
    """A stripe set whose files carry different schemas decodes with the
    union schema: missing columns become typed nulls, narrower ints widen
    (reference missing-column tolerance, RoundTrip_Test.cs:40-62)."""
    import numpy as np
    import pyarrow as pa

    from apacheorcdotnet_ray.pipelines.encode import decode_dataset
    from apacheorcdotnet_ray.stripe import encode_stripe

    d = tmp_path / "evolved"
    d.mkdir()
    t1 = pa.table({"id": pa.array([1, 2, 3], type=pa.int64()),
                   "a": pa.array(["x", "y", "z"])})
    t2 = pa.table({"id": pa.array([4, 5], type=pa.int64()),
                   "b": pa.array([1.5, 2.5], type=pa.float64())})
    for name, t in [("s1", t1), ("s2", t2)]:
        buf, _ = encode_stripe(t)
        (d / f"{name}.oray").write_bytes(buf)

    df = decode_dataset(str(d), unify_schema=True).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert list(df.columns) == ["id", "a", "b"]
    assert df["a"].tolist()[:3] == ["x", "y", "z"] and df["a"].isna().tolist()[3:] == [True, True]
    assert df["b"].isna().tolist() == [True, True, True, False, False]

    # projection of an evolved column still works
    df2 = decode_dataset(str(d), columns=["id", "b"], unify_schema=True) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert list(df2.columns) == ["id", "b"]

    # predicate over a column one stripe lacks: missing -> null -> filtered out
    df3 = decode_dataset(str(d), predicate=("b", ">", 2.0), unify_schema=True) \
        .to_pandas()
    assert df3["id"].tolist() == [5]


def test_cli_encode_inspect_decode(ray_session, tmp_path, capsys):
    """python -m apacheorcdotnet_ray encode/inspect/decode round-trip."""
    import json

    from apacheorcdotnet_ray.__main__ import main

    stripes = str(tmp_path / "stripes")
    out = str(tmp_path / "out.parquet")
    assert main(["encode", "/root/testdata/sf0.001/region.parquet", stripes]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(printed) == ["encoded_bytes", "raw_bytes", "rows", "stripes"]
    assert (printed["rows"], printed["stripes"]) == (5, 1)
    assert main(["inspect", stripes]) == 0
    assert main(["decode", stripes, out]) == 0
    import pyarrow.parquet as pq

    a = pq.read_table("/root/testdata/sf0.001/region.parquet")
    b = pq.read_table(out)
    assert b.sort_by("r_regionkey").select(a.column_names).equals(
        a.sort_by("r_regionkey").cast(b.select(a.column_names).schema))

    # import-orc parses literals like decode does (JSON, else the raw
    # string); the read casts 7 to the string column's type
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.orc_writer import write_orc

    orc_dir = tmp_path / "orc"
    orc_dir.mkdir()
    write_orc(pa.table({"s": [str(j) for j in range(20)]}),
              str(orc_dir / "s.orc"))
    out_orc = str(tmp_path / "orc.parquet")
    assert main(["import-orc", str(orc_dir), out_orc,
                 "--predicate", "s,==,7"]) == 0
    assert pq.read_table(out_orc)["s"].to_pylist() == ["7"]

    # encode expands quoted globs itself, projects --columns and, with
    # --group-by-source, packs each stripe from one source
    import glob
    from pathlib import Path

    from apacheorcdotnet_ray.sources.parquet import read_parquet_clean
    from apacheorcdotnet_ray.stripe import decode_stripe

    for shard in (0, 1):
        pq.write_table(generate_tokens_shard(shard, 120, seed=5),
                       str(tmp_path / f"tok{shard}.parquet"))
    pattern = str(tmp_path / "tok*.parquet")
    cols = ["doc_id", "n_tok", "source"]
    grouped = str(tmp_path / "grouped")
    assert main(["encode", pattern, grouped, "--group-by-source",
                 "--columns", ",".join(cols)]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(printed) == ["encoded_bytes", "raw_bytes", "rows", "stripes"]
    paths = sorted(glob.glob(os.path.join(grouped, "*.oray")))
    assert (printed["rows"], printed["stripes"]) == (240, len(paths))
    for p in paths:
        buf = Path(p).read_bytes()
        t = decode_stripe(buf)
        assert t.column_names == cols
        assert set(t["source"].to_pylist()) == {read_footer(buf)["lineage"]["source"]}
    src = read_parquet_clean(sorted(glob.glob(pattern)), columns=cols)
    assert verify_roundtrip(src, decode_dataset(grouped))["content_match"]
    assert main(["encode", str(tmp_path / "none*.parquet"), grouped]) == 2


def test_conjunction_predicate_read(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa

    from apacheorcdotnet_ray.pipelines.encode import decode_dataset
    from apacheorcdotnet_ray.stripe import EncodeConfig, encode_stripe

    d = tmp_path / "conj"
    d.mkdir()
    rng = np.random.default_rng(61)
    for s in range(4):
        n = 5000
        t = pa.table({
            "k": pa.array(np.arange(s * n, (s + 1) * n, dtype=np.int64)),
            "v": pa.array(rng.integers(0, 100, n).astype(np.int64)),
        })
        buf, _ = encode_stripe(t, EncodeConfig(row_index_stride=1000))
        (d / f"s{s}.oray").write_bytes(buf)

    preds = [("k", ">=", 7000), ("k", "<", 9000), ("v", ">=", 50)]
    df = decode_dataset(str(d), predicate=preds).to_pandas()
    assert (df["k"] >= 7000).all() and (df["k"] < 9000).all()
    assert (df["v"] >= 50).all()
    assert len(df) > 0
    # single-tuple form still works
    one = decode_dataset(str(d), predicate=("k", "==", 123)).to_pandas()
    assert one["k"].tolist() == [123]


def test_skip_corrupt_stripe(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pytest

    from apacheorcdotnet_ray.sources.stripes import read_stripes
    from apacheorcdotnet_ray.stripe import encode_stripe

    d = tmp_path / "mixcorrupt"
    d.mkdir()
    for s in range(3):
        t = pa.table({"k": pa.array(np.arange(s * 100, (s + 1) * 100, dtype=np.int64))})
        buf, _ = encode_stripe(t)
        if s == 1:  # corrupt a data byte (CRC will catch it)
            b = bytearray(buf)
            b[10] ^= 0xFF
            buf = bytes(b)
        (d / f"s{s}.oray").write_bytes(buf)

    with pytest.raises(Exception):
        read_stripes(str(d)).to_pandas()  # default: loud failure
    df = read_stripes(str(d), on_error="skip").to_pandas()
    assert len(df) == 200  # corrupt stripe dropped, others intact
    assert set(df["k"]) == set(range(100)) | set(range(200, 300))


def test_skip_all_corrupt_yields_typed_empty(ray_session, tmp_path):
    """A directory where EVERY stripe's data is corrupt must still produce
    a TYPED empty dataset in skip mode (schema from the first readable
    footer), not a schema-less column-less one."""
    import numpy as np
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.stripes import read_stripes
    from apacheorcdotnet_ray.stripe import encode_stripe

    d = tmp_path / "allcorrupt"
    d.mkdir()
    for s in range(2):
        t = pa.table({"k": pa.array(np.arange(100, dtype=np.int64))})
        buf, _ = encode_stripe(t)
        b = bytearray(buf)
        b[10] ^= 0xFF  # data corruption; footer stays readable
        (d / f"s{s}.oray").write_bytes(bytes(b))

    ds = read_stripes(str(d), on_error="skip")
    tbl = ds.take_batch(batch_format="pyarrow") if ds.count() else None
    assert ds.count() == 0 and tbl is None
    # the dataset-level schema is typed (Ray's to_pandas drops columns on
    # all-empty datasets regardless — known upstream quirk, see CLAUDE.md)
    assert ds.schema().names == ["k"]


def test_map_footers_ray_fanout(ray_session, tmp_path):
    """>256 stripes exercises the ray.remote chunked footer fan-out."""
    import numpy as np
    import pyarrow as pa

    from apacheorcdotnet_ray.sources.stripes import prune_stripes
    from apacheorcdotnet_ray.stripe import encode_stripe

    d = tmp_path / "many"
    d.mkdir()
    for i in range(300):
        t = pa.table({"k": pa.array(np.arange(i * 10, (i + 1) * 10, dtype=np.int64))})
        buf, _ = encode_stripe(t)
        (d / f"s{i:04d}.oray").write_bytes(buf)
    paths = sorted(str(p) for p in d.glob("*.oray"))
    kept = prune_stripes(paths, ("k", "<", 25))
    assert len(kept) == 3  # stripes 0,1,2 hold k<30


def test_enumerate_partitions_ray_fanout(ray_session, tmp_path):
    """>256 parquet files take map_footers' Ray fan-out and list the same
    partitions, in the same order, as the per-file scan."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from apacheorcdotnet_ray.pipelines.encode import _file_partitions

    paths = []
    for i in range(300):
        paths.append(str(tmp_path / f"p{i:04d}.parquet"))
        pq.write_table(pa.table({"k": list(range(i % 7 + 1))}), paths[-1],
                       row_group_size=1)
    want = [part for p in paths for part in _file_partitions(p)]
    assert len(want) > 300
    assert enumerate_partitions(paths[::-1]) == want


def test_encode_corpus_append_resume(ray_session, tmp_path):
    """Appending new input files re-encodes ONLY the new partitions."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from apacheorcdotnet_ray.pipelines.encode import decode_dataset, encode_corpus

    src = tmp_path / "in"
    src.mkdir()
    out = str(tmp_path / "stripes")
    p1 = str(src / "a.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(range(100), type=pa.int64())}), p1)
    s1 = encode_corpus([p1], out)
    assert s1["rows"] == 100
    first_stripes = {f: os.path.getmtime(os.path.join(out, f))
                     for f in os.listdir(out) if f.endswith(".oray")}
    # append a second file: rerun must see the old partition as complete
    p2 = str(src / "b.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(range(100, 150), type=pa.int64())}), p2)
    s2 = encode_corpus([p1, p2], out)
    assert s2["rows"] == 150
    assert decode_dataset(out).count() == 150
    # the original partition's stripes were NOT rewritten (true resume,
    # not idempotent re-encode)
    for f, mtime in first_stripes.items():
        assert os.path.getmtime(os.path.join(out, f)) == mtime, f


def test_zorder_prunes_both_columns(ray_session, tmp_path):
    """Z-order clustering makes stripes selective on BOTH keys; a plain
    sort only serves its leading key."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.encode import encode_sorted, encode_zordered
    from apacheorcdotnet_ray.sources.stripes import prune_stripes, stripe_paths
    from apacheorcdotnet_ray.stripe import EncodeConfig

    rng = np.random.default_rng(91)
    n = 40_000
    t = pa.table({
        "x": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
        "y": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
    })
    ds = rd.from_arrow(t)
    zdir, sdir = str(tmp_path / "z"), str(tmp_path / "s")
    encode_zordered(ds, zdir, by=["x", "y"], batch_size=2500).materialize()
    encode_sorted(rd.from_arrow(t), sdir, by="x", batch_size=2500).materialize()

    zp, sp = stripe_paths(zdir), stripe_paths(sdir)
    pred_y = ("y", "<=", 50)
    kept_z = prune_stripes(zp, pred_y)
    kept_s = prune_stripes(sp, pred_y)
    # x-sorted stripes can't prune on y at all; z-ordered ones can
    assert len(kept_s) == len(sp)
    assert len(kept_z) < len(zp) * 0.7, (len(kept_z), len(zp))
    # and z still prunes on x too
    kept_zx = prune_stripes(zp, ("x", "<=", 50))
    assert len(kept_zx) < len(zp) * 0.7
    # correctness: decode + filter matches the source
    from apacheorcdotnet_ray.pipelines.encode import decode_dataset

    got = decode_dataset(zdir, predicate=pred_y).to_pandas()
    assert (got["y"] <= 50).all()
    assert len(got) == int((t.column("y").to_numpy() <= 50).sum())


def test_value_histogram_exact(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    vals = [0.1, 0.2, 0.26, 0.5, 0.74, 0.75, -0.1, -0.26]
    ds = rd.from_arrow(pa.table({"value": pa.array(vals)})).repartition(3)
    out = {r["bin"]: r["n"] for r in
           stats.value_histogram(ds, "value", bin_width=0.25).take_all()}
    # floor(v/0.25): 0.1,0.2→0; 0.26→1; 0.5→2; 0.74→2; 0.75→3; -0.1→-1; -0.26→-2
    assert out == {0: 2, 1: 1, 2: 2, 3: 1, -1: 1, -2: 1}


def test_value_histogram_null_value_is_null_bin(ray_session):
    """floor(NULL / w) is NULL in SQL: a null value counts in the null bin."""
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    ds = rd.from_arrow(pa.table({"value": pa.array([0.1, None, 0.3])}))
    out = {r["bin"]: r["n"] for r in
           stats.value_histogram(ds, "value", bin_width=0.25).take_all()}
    assert out == {0: 1, None: 1, 1: 1}


def test_group_stats_by_null_string_key_is_one_group(ray_session):
    """A null string key is one group and an all-null group sums to NULL
    (SQL GROUP BY / SUM), where a Ray groupby-aggregate raised TypeError."""
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    ds = rd.from_arrow(pa.table({
        "src": pa.array(["a", None, "a", None, "b"]),
        "v": pa.array([1, 2, 3, None, None], type=pa.int64()),
    })).repartition(2)
    rows = {r["src"]: (r["sum_val"], r["n_rows"])
            for r in stats.group_stats_by(ds, "src", "v").take_all()}
    assert rows == {"a": (4, 2), None: (2, 2), "b": (None, 1)}


def test_corr_columns_matches_numpy(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    rng = np.random.default_rng(13)
    x = rng.integers(0, 1000, 5000)
    y = (x // 3 + rng.integers(0, 100, 5000)).astype(np.int64)
    ds = rd.from_arrow(pa.table({"x": pa.array(x, type=pa.int64()),
                                 "y": pa.array(y)})).repartition(4)
    out = stats.corr_columns(ds, "x", "y").to_pylist()[0]
    assert out["n_rows"] == 5000
    assert abs(out["corr"] - np.corrcoef(x, y)[0, 1]) < 1e-12


def test_normalize_text(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import text as T

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2],
        "text": ["  Hello,   WORLD!! 42 ", "a--b__c"],
    }))
    out = {r["doc_id"]: r["norm_text"] for r in T.normalize_text(ds).take_all()}
    assert out[1] == "hello world 42"
    assert out[2] == "a b c"


def test_running_total_per_user(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "user_id": pa.array([7, 7, 8, 7, 8], type=pa.int64()),
        "ts": pa.array([10, 30, 5, 20, 50], type=pa.int64()),
        "value": pa.array([1.5, 2.0, 0.25, 1.0, 0.5]),
    })
    out = stats.running_total(rd.from_arrow(t).repartition(3)).to_pandas()
    got = dict(zip(out["event_id"], out["cum_millis"]))
    # user 7 in ts order: e1(1500), e4(+1000=2500), e2(+2000=4500)
    assert got[1] == 1500 and got[4] == 2500 and got[2] == 4500
    # user 8: e3(250), e5(+500=750)
    assert got[3] == 250 and got[5] == 750


def test_event_paths_ordering(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import stats

    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "user_id": pa.array([7, 7, 7, 8], type=pa.int64()),
        "ts": pa.array([20, 10, 10, 1], type=pa.int64()),
        "event_type": pa.array(["c", "a", "b", "x"]),
    })
    out = {r["user_id"]: (r["path"], r["n_events"]) for r in
           stats.event_paths(rd.from_arrow(t).repartition(2)).take_all()}
    # ties on ts break by event_id: (ts10,e2)=a then (ts10,e3)=b then (ts20,e1)=c
    assert out[7] == ("a>b>c", 3)
    assert out[8] == ("x", 1)


def test_top_orders_by_revenue(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import analytics

    li = pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], type=pa.int64()),
        "l_extendedprice": pa.array([10.55, 4.50, 100.0, 7.0]),
    })
    orders = pa.table({
        "o_orderkey": pa.array([1, 2, 3], type=pa.int64()),
        "o_custkey": pa.array([11, 22, 33], type=pa.int64()),
        "o_totalprice": pa.array([500.0, 900.0, 50.0]),
    })
    out = analytics.top_orders_by_revenue(
        rd.from_arrow(li).repartition(2), rd.from_arrow(orders),
        min_total=100.0, k=2).to_pandas()
    # order 3 filtered out (totalprice 50 <= 100); order 2 tops revenue
    assert out["l_orderkey"].tolist() == [2, 1]
    assert out["revenue_cents"].tolist() == [10000, 1505]
    assert out["o_custkey"].tolist() == [22, 11]
