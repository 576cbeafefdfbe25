"""Exactly-once micro-batch aggregation over the keyed upsert table.

A streaming ingestion loop at 100 TB is a sequence of arrival chunks,
each reduced to MERGEABLE partials and folded into persistent state.
This module provides that fold with exactly-once semantics layered on
``stages/upsert.py``:

* each chunk is reduced to one row per aggregation key by
  ``fold_groups`` (grouped in the producing tasks, merged on the driver)
  — the driver only ever sees the chunk's key census (contract: the key
  space must be aggregation-bounded, e.g. (event_type, hour window),
  never raw rows);
* the census is ADDED to the current state (touched keys only, via the
  pruned ``lookup``) and written back through ``upsert`` — only touched
  buckets rewrite;
* a chunk id ledger (``_STREAM.json``) makes re-applying a chunk a
  structural no-op, so a crashed/restarted ingestion loop is
  exactly-once regardless of where it died (pytest-gated, including a
  mid-stream crash resume).

The batch/streaming equivalence is pinned: folding any chunking of the
input equals the one-shot batch aggregate bit-for-bit (exact int64
partials — addition is associative), which is what lets the streaming
query share the batch query's SQL oracle.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from .shuffle import fold_groups
from .upsert import init_keyed_table, lookup, read_keyed_table, upsert


def _stream_path(table_dir: str) -> str:
    return os.path.join(table_dir, "_STREAM.json")


def init_stream_table(table_dir: str, key: str) -> dict:
    """Idempotent: an EXISTING stream table is left untouched (that is
    what makes a restarted ingestion loop resume instead of restart)."""
    if os.path.exists(_stream_path(table_dir)):
        with open(os.path.join(table_dir, "_MANIFEST.json")) as fh:
            return json.load(fh)
    m = init_keyed_table(table_dir, key)
    with open(_stream_path(table_dir), "w") as fh:
        json.dump({"applied_chunks": []}, fh)
    return m


def microbatch_aggregate(
    table_dir: str,
    chunk_id: str,
    partials,
    key_cols: list[str],
    sum_cols: list[str],
    *,
    key_sep: str = "|",
) -> dict:
    """Fold one arrival chunk's keyed additive partials into the state
    table, exactly-once by ``chunk_id``.

    ``partials`` is a Dataset of (key_cols..., sum_cols...) rows where
    every sum_col is an exact int64 partial.  Returns the stream ledger
    after the fold."""
    with open(_stream_path(table_dir)) as fh:
        ledger = json.load(fh)
    if chunk_id in ledger["applied_chunks"]:
        return ledger  # exactly-once: structural no-op

    census = fold_groups(partials, key_cols, [(c, "sum") for c in sum_cols])
    if len(census):
        packed = census[key_cols[0]].astype(str)
        for k in key_cols[1:]:
            packed = packed + key_sep + census[k].astype(str)
        census = census.assign(_k=packed)
        cur = lookup(table_dir, census["_k"].tolist())
        if len(cur):
            cur = cur.set_index("_k")
            for c in sum_cols:
                add = census["_k"].map(cur[c]).fillna(0).astype("int64")
                census[c] = census[c].to_numpy("int64") + add.to_numpy()
        upsert(table_dir, census[["_k", *key_cols, *sum_cols]])
    ledger["applied_chunks"].append(chunk_id)
    with open(_stream_path(table_dir), "w") as fh:
        json.dump(ledger, fh)
    return ledger


def stream_state(table_dir: str):
    """The folded state as a Dataset (key columns restored — ``_k`` is
    an implementation detail and is dropped)."""
    ds = read_keyed_table(table_dir)

    def drop_k(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop(columns=["_k"])

    from ..functions.arrow import arrow_out

    return ds.map_batches(arrow_out(drop_k), batch_format="pandas")


def arrival_chunks(
    input_path: str,
    n_chunks: int,
    *,
    columns: list[str] | None = None,
    land_dir: str | None = None,
    key_col: str | None = None,
):
    """Split an input into ``n_chunks`` arrival micro-batches with a
    TOTAL source scan of 1× regardless of ``n_chunks`` — never the
    ``key % n == i`` full-rescan-per-chunk anti-pattern (each chunk of
    that shape re-reads the whole input, an n× scan).

    * Directory inputs with ≥ ``n_chunks`` parquet fragments: chunks are
      per-chunk FILE LISTS (round-robin over sorted fragment names) —
      zero extra I/O; each fragment is read by exactly ONE chunk.  This
      is the 100-TB path: a real arrival log is always a many-file
      directory, so chunking there costs nothing.
    * Otherwise (single-file fixtures): ONE streaming scan lands every
      row into per-chunk parquet files under ``land_dir`` (task-side
      writes, rows routed by ``key_col % n_chunks`` when given, else by
      a deterministic row hash) and each chunk reads only its own
      landing files.  1× input read + 1× land write + 1× landing read —
      constant in ``n_chunks``.

    Returns ``n_chunks`` Datasets.  Chunk contents are deterministic;
    the union of chunks is exactly the input (disjoint), which is all
    the micro-batch fold semantics require (exact additive partials —
    arrival order and chunk boundaries are irrelevant)."""
    import glob
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..functions.arrow import arrow_out, read_parquet_clean
    from ..functions.hashing import block_digest

    if os.path.isdir(input_path):
        frags = sorted(glob.glob(os.path.join(input_path, "*.parquet")))
    else:
        frags = [input_path]
    if len(frags) >= n_chunks:
        return [
            read_parquet_clean(frags[i::n_chunks], columns=columns)
            for i in range(n_chunks)
        ]

    if land_dir is None:
        raise ValueError("land_dir is required for single-file inputs")
    # landing rescans the whole input and a part's name is a digest of
    # its rows, so a crashed earlier landing (other batch boundaries,
    # other part names) is cleared, never merged into this one
    for stale in glob.glob(os.path.join(land_dir, "chunk=*")):
        shutil.rmtree(stale)
    for i in range(n_chunks):
        os.makedirs(os.path.join(land_dir, f"chunk={i}"))

    def land(b: pd.DataFrame) -> pd.DataFrame:
        if key_col is not None:
            cid = (b[key_col].to_numpy("int64") % n_chunks).astype("int64")
        else:
            h = pd.util.hash_pandas_object(b, index=False).to_numpy()
            cid = (h % np.uint64(n_chunks)).astype("int64")
        for i in range(n_chunks):
            sub = b[cid == i]
            if not len(sub):
                continue
            tbl = pa.Table.from_pandas(
                sub, preserve_index=False).replace_schema_metadata(None)
            out = os.path.join(land_dir, f"chunk={i}",
                               f"part-{block_digest(tbl)}.parquet")
            pq.write_table(tbl, out)
        return pd.DataFrame({"n": pd.array([len(b)], "int64")})

    src = read_parquet_clean(input_path, columns=columns)
    src.map_batches(arrow_out(land), batch_format="pandas").count()

    # a chunk that received no rows still needs a schema-complete file
    schema = pq.read_schema(frags[0])
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    schema = pa.schema([pa.field(f.name, f.type, f.nullable)
                        for f in schema])
    empty = pa.Table.from_pylist([], schema=schema)
    for i in range(n_chunks):
        d = os.path.join(land_dir, f"chunk={i}")
        if not glob.glob(os.path.join(d, "*.parquet")):
            pq.write_table(empty, os.path.join(d, "part-empty.parquet"))

    return [
        read_parquet_clean(os.path.join(land_dir, f"chunk={i}"),
                           columns=columns)
        for i in range(n_chunks)
    ]
