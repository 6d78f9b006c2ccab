"""Benchmark driver. Prints ONE JSON line with headline + per-query seconds.

Headline: encode throughput on the deterministic pre-tokenized corpus
(the BASELINE.json north-star metric: tokens/sec + compressed bytes/token),
plus decode-verify and representative operator pipelines over $GRAFT_SF_DIR.

Usage:
    python bench.py                  # single run at $RAY_GRAFT_CPUS (default: os.cpu_count())
    python bench.py --scaling        # $GRAFT_SCALE_LO vs $GRAFT_SCALE_HI cpus (default 1 vs 4)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1))

# corpus sized from the sf dir (same input at every parallelism level)
_SF_SCALE = {"sf0.001": (4, 500), "sf0.01": (8, 2000), "sf0.1": (32, 2500)}


def corpus_params() -> tuple[int, int]:
    if os.environ.get("GRAFT_SCALING_CORPUS"):
        # scaling runs need enough compute to amortize fixed startup/shuffle
        # costs at BOTH parallelism levels, or the ratio measures overhead
        return (64, 6000)
    tag = os.path.basename(os.path.normpath(SF_DIR))
    return _SF_SCALE.get(tag, (16, 2500))


def build_corpus() -> list[str]:
    from apacheorcdotnet_ray.sources.tokens import write_tokens_corpus

    n_shards, docs = corpus_params()
    d = f"/tmp/oray_bench_corpus/{os.path.basename(os.path.normpath(SF_DIR))}-{n_shards}x{docs}"
    return write_tokens_corpus(d, n_shards=n_shards, docs_per_shard=docs, seed=42,
                               use_ray=True)


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    # Ray's sort shuffle emits schema-less EMPTY range partitions that the
    # executor warns about once each; our blocks are always typed, so drop
    # exactly that cosmetic variant (see apacheorcdotnet_ray/raylog.py).
    from apacheorcdotnet_ray.raylog import suppress_empty_schema_warnings

    suppress_empty_schema_warnings()

    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.encode import decode_dataset, encode_corpus
    from apacheorcdotnet_ray.pipelines import dedup, similarity, text
    from apacheorcdotnet_ray.pipelines.verify import verify_roundtrip

    queries: dict[str, float] = {}
    corpus = build_corpus()

    # warm the page cache AND the worker pool (package import happens on the
    # first task a worker runs) so we measure steady-state compute+shuffle,
    # not first disk read / cold process start
    from apacheorcdotnet_ray.sources.parquet import read_parquet_clean

    read_parquet_clean(corpus).count()
    warm_dir = "/tmp/oray_bench_warmup"
    shutil.rmtree(warm_dir, ignore_errors=True)
    # scaling legs only need the worker pool + imports warm — a few shards
    # suffice and keep the 1-cpu legs from paying a second full encode
    warm_corpus = corpus[:max(4, 2 * NUM_CPUS)] \
        if os.environ.get("GRAFT_ENCODE_ONLY") else corpus
    encode_corpus(warm_corpus, warm_dir)
    shutil.rmtree(warm_dir, ignore_errors=True)

    # --- headline: tokens encode ---
    # best-of-2: this sandbox's co-tenant noise swings identical runs 3-4x
    # (CLAUDE.md); the min of two back-to-back runs is the stable signal
    out = "/tmp/oray_bench_stripes"
    t_encode = float("inf")
    reps = int(os.environ.get("GRAFT_ENCODE_REPS", "2"))
    for _ in range(reps):
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        summary = encode_corpus(corpus, out)
        t_encode = min(t_encode, time.perf_counter() - t0)
    queries["encode_tokens"] = t_encode
    n_tokens = summary["column_stats"]["tokens"]["sum"]
    tokens_per_sec = n_tokens / t_encode
    bytes_per_token = summary["encoded_bytes"] / n_tokens

    def make_result() -> dict:
        return {
            "metric": "tokens_encode_throughput",
            "value": round(t_encode, 3),
            "unit": "sec",
            # co-tenant load context: this box swings wall-times 3-15x in
            # waves (BASELINE.md); loadavg lets a reader judge the window
            "loadavg": [round(x, 1) for x in os.getloadavg()],
            "queries": {k: round(v, 3) for k, v in queries.items()},
            "sf": os.path.basename(os.path.normpath(SF_DIR)),
            "num_cpus": NUM_CPUS,
            "n_tokens": int(n_tokens),
            "tokens_per_sec": round(tokens_per_sec),
            "bytes_per_token": round(bytes_per_token, 4),
            "encoded_bytes": summary["encoded_bytes"],
            "raw_bytes": summary["raw_bytes"],
        }

    if os.environ.get("GRAFT_ENCODE_ONLY"):
        # scaling legs measure ONLY the headline encode — skip the rest
        result = make_result()
        ray.shutdown()
        return result

    # --- decode + verify ---
    t_decode = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        res = verify_roundtrip(read_parquet_clean(corpus), decode_dataset(out))
        t_decode = min(t_decode, time.perf_counter() - t0)
        assert res["content_match"], res
    queries["decode_verify_tokens"] = t_decode

    # --- representative operator pipelines over the sf tables (best-of-2) ---
    def timed(name, fn):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        queries[name] = best

    lineitem_out = "/tmp/oray_bench_lineitem"

    def _lineitem():
        shutil.rmtree(lineitem_out, ignore_errors=True)
        encode_corpus([os.path.join(SF_DIR, "lineitem.parquet")], lineitem_out)
        decode_dataset(lineitem_out).count()

    timed("roundtrip_lineitem", _lineitem)
    docs_ds = read_parquet_clean(os.path.join(SF_DIR, "documents.parquet"))
    timed("token_count_by_source", lambda: text.token_count_by_source(docs_ds).to_pandas())
    timed("dedup_minhash", lambda: dedup.dedup_minhash_lsh(docs_ds).to_pandas())
    emb_ds = read_parquet_clean(os.path.join(SF_DIR, "embeddings.parquet"))

    def _ann():
        import numpy as np

        first = emb_ds.sort("vec_id").limit(1).take_all()[0]
        q = np.asarray(first["embedding"], dtype=np.float64)
        similarity.brute_force_topk(emb_ds, q[None, :], k=10)

    timed("ann_topk", _ann)
    # bucketed exact kNN self-join (nothing broadcast; n_probe = n_centroids)
    timed("knn_join_ivf", lambda: similarity.knn_join_ivf(
        emb_ds, k=1, n_centroids=16).count())

    from apacheorcdotnet_ray.pipelines import joins, pack

    timed("hash_join", lambda: joins.hash_join(
        read_parquet_clean(os.path.join(SF_DIR, "lineitem.parquet"),
                           columns=["l_orderkey", "l_linenumber", "l_quantity"]),
        read_parquet_clean(os.path.join(SF_DIR, "orders.parquet"),
                           columns=["o_orderkey", "o_custkey", "o_totalprice"]),
        left_on="l_orderkey", right_on="o_orderkey",
        broadcast_threshold=0).count())

    from apacheorcdotnet_ray.pipelines.text import tokenize_documents

    timed("pack_sequences", lambda: pack.pack_sequences(
        tokenize_documents(docs_ds), seq_len=2048).count())

    idx_dir = "/tmp/oray_bench_txtidx"

    def _bm25_index():
        shutil.rmtree(idx_dir, ignore_errors=True)
        text.text_index_build(
            docs_ds.select_columns(["doc_id", "text"]), idx_dir)
        text.text_index_search(idx_dir, "hash join merge", k=10,
                               idf="linear").to_pandas()

    timed("bm25_index", _bm25_index)

    timed("bloom_semi_join", lambda: joins.bloom_semi_join(
        read_parquet_clean(os.path.join(SF_DIR, "lineitem.parquet"),
                           columns=["l_orderkey", "l_linenumber", "l_quantity"]),
        read_parquet_clean(os.path.join(SF_DIR, "orders.parquet"),
                           columns=["o_orderkey", "o_totalprice"])
        .filter(expr="o_totalprice > 150000").select_columns(["o_orderkey"]),
        "l_orderkey", "o_orderkey").count())

    result = make_result()
    ray.shutdown()
    return result


def run_scaling() -> None:
    """N vs 4N parallelism in fresh processes (sandbox stand-in for N vs 4N
    nodes). Round-5 protocol per the round-4 verdict: MANY tightly-adjacent
    lo→hi PAIRS (each pair back-to-back in time so host-load drift between
    the two legs is minimal), one timed encode per leg; report the MEDIAN
    of per-pair efficiencies (the headline — robust to a burst hitting one
    pair) plus min/max and every pair. The old best-of-interleaved protocol
    compared legs minutes apart and produced physically-implausible >1
    efficiencies when single-core throughput drifted between them.

    Default 1 vs 4: per-process throughput of memory-heavy kernels degrades
    measurably beyond ~4-8 concurrent processes (shared bandwidth / SMT /
    virtualization), so higher levels measure the hardware ceiling, not the
    engine's scaling; BASELINE.md records measurements at both 1v4 and 2v8.
    The high level may not exceed ``os.cpu_count()``."""
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SCALING_CORPUS="1",
                   GRAFT_ENCODE_ONLY="1", GRAFT_ENCODE_REPS="1")
        out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                             capture_output=True, text=True, check=True,
                             cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = int(os.environ.get("GRAFT_SCALE_LO", 1)), int(os.environ.get("GRAFT_SCALE_HI", 4))
    if hi > (os.cpu_count() or 1):
        sys.exit(f"bench.py --scaling: GRAFT_SCALE_HI={hi} exceeds this machine's "
                 f"{os.cpu_count()} CPUs; set GRAFT_SCALE_HI to at most that")
    n_pairs = int(os.environ.get("GRAFT_SCALE_PAIRS", 5))
    # sandwich mode: lo, hi, lo per pair — the hi leg sits BETWEEN two lo
    # legs and the lo time is their mean, so any linear host-load drift
    # across the pair cancels instead of biasing the ratio (a burst during
    # exactly one lo leg moved a round-4 pair to eff 2.16)
    sandwich = os.environ.get("GRAFT_SCALE_SANDWICH", "1") != "0"
    pairs = []
    effs = []
    r_hi = None
    for _ in range(n_pairs):
        r_lo = run(lo)
        r_hi = run(hi)  # immediately after its lo partner
        if sandwich:
            r_lo2 = run(lo)
            sec_lo = (r_lo["value"] + r_lo2["value"]) / 2
        else:
            sec_lo = r_lo["value"]
        e = (sec_lo / r_hi["value"]) / (hi / lo)
        effs.append(e)
        rec = {f"sec_{lo}": r_lo["value"], f"sec_{hi}": r_hi["value"],
               "eff": round(e, 3),
               "loadavg": round(os.getloadavg()[0], 1)}
        if sandwich:
            rec[f"sec_{lo}b"] = r_lo2["value"]
        pairs.append(rec)
    s = sorted(effs)
    median = s[len(s) // 2] if len(s) % 2 else (s[len(s) // 2 - 1] + s[len(s) // 2]) / 2
    print(json.dumps({
        "metric": "scaling_efficiency",
        "value": round(median, 3),          # median of per-pair efficiencies
        "unit": "ratio",
        "min": round(min(effs), 3),
        "max": round(max(effs), 3),
        "pairs": pairs,
        "cpus": [lo, hi],
        "n_tokens": r_hi["n_tokens"],
        "bytes_per_token": r_hi["bytes_per_token"],
        "sf": r_hi["sf"],
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
