"""Local stand-in for the driver's correctness gate: run every queries() entry
at a given sf and compare row-count / schema / order-insensitive values against
oracle_sql() via DuckDB. Usage: python tools/check_queries.py [sf_dir]."""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        # Dataset.to_pandas() drops the columns of a zero-row result
        from apacheorcdotnet_ray.pipelines.setops import to_arrow_table

        return to_arrow_table(res).to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    raise TypeError(type(res))


def canon(df):
    import numpy as np
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(
                lambda v: tuple(np.asarray(v).tolist()) if isinstance(v, (list, np.ndarray)) else v
            )
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2].split(",") if len(sys.argv) > 2 else None

    import ray

    ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from apacheorcdotnet_ray.raylog import suppress_empty_schema_warnings

    suppress_empty_schema_warnings()

    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oq = entrymod.oracle_sql()
    results = {}
    seconds = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            results[name] = f"RAY-ERROR: {type(e).__name__}: {e}"
            print(name, results[name])
            continue
        dt = time.time() - t0
        seconds[name] = round(dt, 2)
        if name not in oq:
            results[name] = f"rows-only: {len(mine)} rows ({dt:.1f}s)"
            print(name, results[name])
            continue
        try:
            oracle = canon(con.sql(oq[name]).df())
        except Exception as e:
            results[name] = f"ORACLE-ERROR: {e}"
            print(name, results[name])
            continue
        problems = []
        if len(mine) != len(oracle):
            problems.append(f"rowcount {len(mine)} vs {len(oracle)}")
        if list(mine.columns) != list(oracle.columns):
            problems.append(f"columns {list(mine.columns)} vs {list(oracle.columns)}")
        if not problems:
            try:
                pd.testing.assert_frame_equal(mine, oracle, check_dtype=False,
                                              check_exact=True)
            except AssertionError as e:
                problems.append("values: " + str(e).split("\n")[0])
        results[name] = f"OK ({len(mine)} rows, {dt:.1f}s)" if not problems else "MISMATCH: " + "; ".join(problems)
        print(name, results[name])

    bad = {k: v for k, v in results.items() if not v.startswith(("OK", "rows-only"))}
    print(json.dumps({"total": len(results), "bad": bad, "seconds": seconds}))
    ray.shutdown()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
