"""Local mimic of the driver's correctness harness.

For each ``queries()`` entry: run the Ray pipeline and (if present) the
DuckDB oracle on the same sf dir; compare row count, column names and
order-insensitive values.  Usage::

    python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    issues = []
    if sorted(got.columns) != sorted(want.columns):
        issues.append(f"columns differ: ray={sorted(got.columns)} sql={sorted(want.columns)}")
        return issues
    # the driver's compare hashes dtypes too — be strict on numeric /
    # datetime kinds (int32 vs int64, float32 vs 64, ns vs us, nullable
    # Int64 vs int64); string columns stay lax (object vs extension is a
    # pandas representation detail, not a schema difference)
    for c in got.columns:
        g_dt, w_dt = got[c].dtype, want[c].dtype
        if g_dt == w_dt:
            continue
        if got[c].dtype == object or str(g_dt) in ("string", "str"):
            continue
        issues.append(f"column {c}: dtype differs ray={g_dt} sql={w_dt}")
    if issues:
        return issues
    if len(got) != len(want):
        issues.append(f"row count differs: ray={len(got)} sql={len(want)}")
    g, w = canon(got), canon(want)
    if len(g) == len(w):
        for c in g.columns:
            if pd.api.types.is_float_dtype(g[c]):
                eq = np.array_equal(
                    g[c].to_numpy(), w[c].to_numpy(), equal_nan=True
                )
            else:
                eq = g[c].equals(w[c])
            if not eq:
                mism = (g[c] != w[c]) if not pd.api.types.is_float_dtype(g[c]) else ~(
                    (g[c] == w[c]) | (g[c].isna() & w[c].isna())
                )
                n_bad = int(mism.sum())
                ex = pd.DataFrame({"ray": g[c][mism].head(3), "sql": w[c][mism].head(3)})
                issues.append(f"column {c}: {n_bad} mismatched values\n{ex}")
    return issues


def main() -> int:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    failures = ok = rows_only = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"[FAIL] {name}: ray raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in oracles:
            print(f"[rows-only] {name}: {len(got)} rows, cols={list(got.columns)}")
            rows_only += 1
            continue
        try:
            want = con.execute(oracles[name]).df()
        except Exception as e:  # noqa: BLE001
            print(f"[FAIL] {name}: oracle SQL raised {e}")
            failures += 1
            continue
        issues = compare(name, got, want)
        if issues:
            failures += 1
            print(f"[FAIL] {name} ({len(got)} vs {len(want)} rows)")
            for i in issues:
                print("   ", i)
        else:
            print(f"[ok] {name}: {len(got)} rows match oracle")
            ok += 1
    print(f"ok {ok}, rows-only {rows_only}, FAIL {failures} of "
          f"{ok + rows_only + failures}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
