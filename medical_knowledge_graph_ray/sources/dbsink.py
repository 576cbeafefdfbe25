"""Generic batched external-DB sink — S7 completed as a real database
writer, not only the Parquet adaptation.

The reference loads its graph tables into ClickHouse with batched
INSERTs from a single process (clean_and_save.py:1477-1505).  At Ray
scale the same contract is: every WRITE TASK opens its own connection
(per-process cached), sends column-batched INSERTs, and marks each
block with a content-digest ledger row so retried tasks are
EXACTLY-ONCE — the idempotency discipline of ``run_kg``'s parquet shard
sink applied to a DBAPI target.

``write_sql_table`` is the engine-facing API; it is database-agnostic
over the DBAPI ``connect_fn`` (a ClickHouse/Postgres driver drops in
unchanged — parameter style is the only knob).  The stdlib ``sqlite3``
default makes the sink REAL and testable in this container: WAL mode +
busy-timeout retries handle concurrent writer tasks on one file.

Scale posture: the driver never sees a row — tasks stream their blocks
straight into the target; the returned census is one (rows, slices)
pair per task.  For a sharded warehouse, pass a ``connect_fn`` that
routes by worker/partition (the same url-hash routing as the parquet
shards).
"""

from __future__ import annotations

import time

import pandas as pd
import pyarrow as pa

from ..functions.hashing import block_digest
from ..stages.shuffle import fold_groups

_LEDGER = "_mkg_slices"


def _sqlite_connect(db_path: str, *, init: bool = False):
    import sqlite3

    con = sqlite3.connect(db_path, timeout=60.0)
    if init:
        # journal-mode change needs an exclusive lock — do it ONCE
        # driver-side before any concurrent writer exists (a worker
        # running the pragma under contention raises "database is
        # locked" even with a busy timeout)
        con.execute("PRAGMA journal_mode=WAL")
    con.execute("PRAGMA busy_timeout=60000")
    return con


_SQL_TYPES = {
    "i": "BIGINT", "u": "BIGINT", "f": "DOUBLE", "b": "BOOLEAN",
    "O": "TEXT", "U": "TEXT", "S": "TEXT", "M": "TEXT",
}


def _ddl(table: str, df: pd.DataFrame) -> str:
    cols = ", ".join(
        f'"{c}" {_SQL_TYPES.get(df[c].dtype.kind, "TEXT")}'
        for c in df.columns
    )
    return f'CREATE TABLE IF NOT EXISTS "{table}" ({cols})'


def write_sql_table(
    ds,
    table: str,
    *,
    db_path: str | None = None,
    connect_fn=None,
    batch_rows: int = 5000,
    max_retries: int = 8,
) -> dict:
    """Write a Dataset into a SQL table, exactly-once per block.

    ``connect_fn() -> DBAPI connection`` defaults to sqlite3 on
    ``db_path``.  Each write task: ensure DDL, check the slice ledger
    (content digest — a retried/duplicate block is a structural no-op),
    ``executemany`` INSERT in ``batch_rows`` chunks, record the slice,
    commit — one transaction per block, so a task killed mid-block
    leaves nothing behind (DBAPI rollback) and its retry re-applies
    cleanly.  Returns {"rows", "slices"}."""
    if connect_fn is None:
        if db_path is None:
            raise ValueError("need db_path or connect_fn")
        path = db_path
        boot = _sqlite_connect(path, init=True)  # WAL + ledger, once
        boot.execute(
            f'CREATE TABLE IF NOT EXISTS "{_LEDGER}" '
            "(tbl TEXT, digest TEXT, rows BIGINT, PRIMARY KEY (tbl, digest))"
        )
        boot.commit()
        boot.close()

        def connect_fn():
            return _sqlite_connect(path)

    from ..functions.arrow import arrow_out

    def write_block(b: pd.DataFrame) -> pd.DataFrame:
        out = {"rows": pd.array([0], "int64"),
               "slices": pd.array([0], "int64")}
        if not len(b):
            return pd.DataFrame(out)
        digest = block_digest(pa.Table.from_pandas(b, preserve_index=False))
        for attempt in range(max_retries):
            con = connect_fn()
            try:
                cur = con.cursor()
                cur.execute("BEGIN IMMEDIATE")  # take the write lock upfront
                cur.execute(_ddl(table, b))
                cur.execute(
                    f'CREATE TABLE IF NOT EXISTS "{_LEDGER}" '
                    "(tbl TEXT, digest TEXT, rows BIGINT, "
                    "PRIMARY KEY (tbl, digest))"
                )
                cur.execute(
                    f'SELECT 1 FROM "{_LEDGER}" WHERE tbl=? AND digest=?',
                    (table, digest),
                )
                if cur.fetchone():
                    con.rollback()
                    return pd.DataFrame(out)  # retried block: no-op
                ph = ", ".join(["?"] * len(b.columns))
                sql = (f'INSERT INTO "{table}" '
                       f'({", ".join(chr(34)+c+chr(34) for c in b.columns)})'
                       f" VALUES ({ph})")
                rows = list(map(tuple, b.itertuples(index=False)))
                for s in range(0, len(rows), batch_rows):
                    cur.executemany(sql, rows[s:s + batch_rows])
                cur.execute(
                    f'INSERT INTO "{_LEDGER}" VALUES (?, ?, ?)',
                    (table, digest, len(b)),
                )
                con.commit()
                return pd.DataFrame(
                    {"rows": pd.array([len(b)], "int64"),
                     "slices": pd.array([1], "int64")})
            except Exception:
                try:
                    con.rollback()
                except Exception:
                    pass
                if attempt == max_retries - 1:
                    raise
                time.sleep(min(0.1 * (2 ** attempt), 3.0))
            finally:
                con.close()

    census = fold_groups(  # one (rows, slices) pair per block, summed
        ds.map_batches(arrow_out(write_block), batch_format="pandas"),
        [], [("rows", "sum"), ("slices", "sum")]).fillna(0).iloc[0]
    return {"rows": int(census["rows"]), "slices": int(census["slices"])}


def read_sql_table(table: str, *, db_path: str) -> pd.DataFrame:
    """Driver-side readback (verification/serve helper, not a scan path)."""
    con = _sqlite_connect(db_path)
    try:
        return pd.read_sql_query(f'SELECT * FROM "{table}"', con)
    finally:
        con.close()
