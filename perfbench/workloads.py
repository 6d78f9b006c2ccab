"""The three benchmark workloads.

Each workload prepares its inputs from the seed, then offers three timed
operations through the package's public Ray Data entry points: ``write``
(the encode or export job), ``scan`` (a full read, iterated to Arrow
batches in this process) and ``select`` (a selective read, fully consumed).
Every operation has a matching check against the input; the checks run
outside the timed region.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import inputs

STRIDE = 10_000


def _consume(ds) -> pa.Table | None:
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches) if batches else None


def _canonical(t: pa.Table) -> pa.Table:
    """Rows sorted by every scalar column, so equal multisets compare equal
    (every workload table has a unique scalar key)."""
    keys = [(f.name, "ascending") for f in t.schema if not pa.types.is_nested(f.type)]
    return t.take(pc.sort_indices(t, sort_keys=keys)).combine_chunks()


def _same_rows(got: pa.Table | None, want: pa.Table, canonical: bool = False) -> bool:
    """Same rows in any order; ``canonical`` says ``want`` is already sorted."""
    if got is None:
        return want.num_rows == 0
    if got.schema != want.schema or got.num_rows != want.num_rows:
        return False
    return _canonical(got).equals(want if canonical else _canonical(want))


def written(out_dir: str, pattern: str) -> tuple[int, str]:
    """Total size and a sha256 over the written files' contents, in an order
    that does not depend on file names."""
    files = glob.glob(os.path.join(out_dir, "**", pattern), recursive=True)
    digests, size = [], 0
    for f in files:
        with open(f, "rb") as fh:
            data = fh.read()
        size += len(data)
        digests.append(hashlib.sha256(data).hexdigest())
    return size, hashlib.sha256("".join(sorted(digests)).encode()).hexdigest()


class Tokens:
    """Pre-tokenized training corpus: encode, decode, trainer-resume reads."""

    name = "tokens"
    pattern = "*.oray"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, work: str) -> None:
        from apacheorcdotnet_ray.sources.tokens import write_tokens_corpus

        self.paths = write_tokens_corpus(
            work, n_shards=inputs.TOKEN_SHARDS,
            docs_per_shard=inputs.TOKEN_DOCS_PER_SHARD, seed=self.seed)
        # corpus row order is the order of the shards, as the encoder names them
        self.table = pa.concat_tables([pq.read_table(p) for p in self.paths])
        self.raw_bytes = self.table.nbytes
        self.rows = self.table.num_rows
        self.sorted = _canonical(self.table)
        self.tokens = int(pc.sum(self.table["n_tok"]).as_py())

    def write(self, out: str):
        from apacheorcdotnet_ray.pipelines.encode import encode_corpus

        return encode_corpus(self.paths, out)

    def check_write(self, out: str, summary) -> bool:
        from apacheorcdotnet_ray.pipelines.encode import enumerate_partitions

        return (summary["partitions"] == len(enumerate_partitions(self.paths))
                and summary["rows"] == self.rows)

    def scan(self, out: str):
        from apacheorcdotnet_ray.pipelines.encode import decode_dataset

        return _consume(decode_dataset(out))

    def check_scan(self, got) -> bool:
        return _same_rows(got, self.sorted, canonical=True)

    def select(self, out: str, rng: np.random.Generator):
        from apacheorcdotnet_ray.sources.stripes import read_row_range

        offset = int(rng.integers(0, self.rows - 256))
        got = _consume(read_row_range(out, offset, 256))
        return got, self.table.slice(offset, 256)

    def check_select(self, got, want) -> bool:
        # row order is part of the contract here: compare as-is
        return got is not None and got.schema == want.schema and got.equals(want)

    def select_target(self, out: str) -> str:
        return out

    def context(self) -> dict:
        return {"rows": self.rows, "raw_bytes": self.raw_bytes, "tokens": self.tokens}


class Tables:
    """Mixed scalar tables with prose strings, written with a stride index."""

    name = "tables"
    pattern = "*.oray"
    names = ("lineitem", "orders", "documents")

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, work: str) -> None:
        made = inputs.make_tables(self.seed)
        paths = inputs.write_tables(work, {n: made[n] for n in self.names})
        self.paths = paths
        self.tables = {n: pq.read_table(p) for n, p in paths.items()}
        self.sorted = {n: _canonical(t) for n, t in self.tables.items()}
        self.raw_bytes = sum(t.nbytes for t in self.tables.values())
        self.rows = sum(t.num_rows for t in self.tables.values())
        self.keys = self.tables["lineitem"]["l_orderkey"].to_numpy()

    def write(self, out: str):
        from apacheorcdotnet_ray.pipelines.encode import encode_corpus
        from apacheorcdotnet_ray.stripe import EncodeConfig

        config = EncodeConfig(row_index_stride=STRIDE)
        return {n: encode_corpus([self.paths[n]], os.path.join(out, n), config=config)
                for n in self.names}

    def check_write(self, out: str, summaries) -> bool:
        from apacheorcdotnet_ray.pipelines.encode import enumerate_partitions

        return all(
            summaries[n]["partitions"] == len(enumerate_partitions([self.paths[n]]))
            and summaries[n]["rows"] == self.tables[n].num_rows
            for n in self.names)

    def scan(self, out: str):
        from apacheorcdotnet_ray.pipelines.encode import decode_dataset

        return {n: _consume(decode_dataset(os.path.join(out, n))) for n in self.names}

    def check_scan(self, got) -> bool:
        return all(_same_rows(got[n], self.sorted[n], canonical=True) for n in self.names)

    def select(self, out: str, rng: np.random.Generator):
        from apacheorcdotnet_ray.sources.stripes import read_stripes

        a = int(rng.choice(self.keys))  # a key present in the input: never empty
        pred = [("l_orderkey", ">=", a), ("l_orderkey", "<", a + 500)]
        got = _consume(read_stripes(os.path.join(out, "lineitem"), predicate=pred))
        col = self.tables["lineitem"]["l_orderkey"]
        mask = pc.and_(pc.greater_equal(col, a), pc.less(col, a + 500))
        return got, self.tables["lineitem"].filter(mask)

    def check_select(self, got, want) -> bool:
        return want.num_rows > 0 and _same_rows(got, want)

    def select_target(self, out: str) -> str:
        return os.path.join(out, "lineitem")

    def context(self) -> dict:
        return {"rows": self.rows, "raw_bytes": self.raw_bytes,
                "tables": {n: t.num_rows for n, t in self.tables.items()}}


class Orc(Tables):
    """ORC export and import of lineitem and orders, with blooms."""

    name = "orc"
    pattern = "*.orc"
    names = ("lineitem", "orders")
    blooms = {"lineitem": ("l_partkey",), "orders": ("o_custkey",)}
    files = {"lineitem": 2, "orders": 1}
    columns = ["l_orderkey", "l_partkey", "l_quantity"]

    def prepare(self, work: str) -> None:
        super().prepare(work)
        self.keys = self.tables["lineitem"]["l_partkey"].to_numpy()

    def _blocks(self, n: str) -> list[pa.Table]:
        t, k = self.tables[n], self.files[n]
        step = -(-t.num_rows // k)
        return [t.slice(i * step, step) for i in range(k)]

    def write(self, out: str):
        import ray.data as rd

        from apacheorcdotnet_ray.sources.orc_writer import write_orc_dataset

        return {n: write_orc_dataset(rd.from_arrow(self._blocks(n)), os.path.join(out, n),
                                     row_index_stride=STRIDE, bloom_columns=self.blooms[n])
                for n in self.names}

    def check_write(self, out: str, files) -> bool:
        return all(files[n] == self.files[n] for n in self.names)

    def scan(self, out: str):
        from apacheorcdotnet_ray.sources.orc_reader import read_orc_files

        return {n: _consume(read_orc_files(os.path.join(out, n))) for n in self.names}

    def select(self, out: str, rng: np.random.Generator):
        from apacheorcdotnet_ray.sources.orc_reader import read_orc_files

        x = int(rng.choice(self.keys))  # a key present in the input: never empty
        got = _consume(read_orc_files(os.path.join(out, "lineitem"), columns=self.columns,
                                      predicate=("l_partkey", "==", x)))
        li = self.tables["lineitem"]
        return got, li.filter(pc.equal(li["l_partkey"], x)).select(self.columns)


WORKLOADS = {w.name: w for w in (Tokens, Tables, Orc)}
