"""Persisted BITMAP (bitset) secondary index for low-cardinality columns.

The third index family beside the zone map (`stages/zonemap.py`, range
pruning) and the inverted index (`stages/search.py`, token lookup): one
packed bitset per (bucket, column, value) over a STABLE row numbering,
so any boolean combination of equality predicates — AND / OR / NOT
across columns — is answered by bitwise ops + popcount without ever
touching the data pages again.  This is the classic warehouse bitmap
index (Oracle/Druid-style); a production system would roaring-compress
the bitsets — the packed-uint8 form here keeps the same asymptotics at
~v·n/8 bytes per column of v distinct values.

Layout contract (what makes bit positions well-defined and rebuildable):
rows hash-exchange on ``key_cols`` into ``num_buckets`` coarse buckets
(`functions/hashing.py:row_hash` through `stages/shuffle.py:exchange` —
content-stable across processes and parallelism), and WITHIN a bucket
rows sort by ``key_cols`` (a total order).  Bit i of a bucket's bitset
is therefore the same logical row on every build of the same data,
independent of file layout or block boundaries.

Scale shape: the build is one hash exchange + task-side parquet writes
(one file per bucket — never a driver materialize); serving reads ONLY
the (column, value) index rows the predicate names (Parquet filter
pushdown on the index table), groups them per bucket, and ships ≤
#buckets scalar count rows to the driver.  A NOT term needs just the
negated values' bitsets (complement within the bucket's n_rows), and a
bucket holding no predicate rows at all resolves driver-side from the
bounded per-bucket meta table.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from ..functions.arrow import arrow_out, read_parquet_clean
from ..functions.hashing import row_hash
from .shuffle import default_num_buckets, exchange, with_bucket

BITMAP_VERSION = "v1"


def build_bitmap_index(
    ds,
    key_cols: list[str],
    index_cols: list[str],
    out_dir: str,
    *,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Build the index: one packed bitset per (bucket, col, value).

    ``ds`` must carry ``key_cols`` (a unique composite key — the stable
    row identity) and ``index_cols`` (values are indexed as strings, so
    callers can feed derived columns like a year).  Returns the bounded
    per-bucket meta table (bucket, n_rows, n_entries) and persists
    ``parts/bucket_*.parquet`` + ``meta.parquet`` + a manifest under
    ``out_dir`` for build-once / serve-many."""
    num_buckets = num_buckets or default_num_buckets()
    parts = os.path.join(out_dir, "parts")
    os.makedirs(parts, exist_ok=True)

    def _assign(b: pd.DataFrame) -> pd.DataFrame:
        # the bucket also travels as a data column: it names the file
        bid = (row_hash(b[key_cols]) % np.uint64(num_buckets)).astype("int32")
        return with_bucket(b.assign(_bid=bid), bid)

    def _build_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.parquet as pq

        bid = int(g["_bid"].iloc[0])
        s = g.sort_values(key_cols, kind="mergesort").reset_index(drop=True)
        n = len(s)
        cols, vals, blobs = [], [], []
        for col in index_cols:
            v = s[col].astype(str).to_numpy()
            uniq, codes = np.unique(v, return_inverse=True)
            for ui, uval in enumerate(uniq):
                bits = np.packbits(codes == ui)
                cols.append(col)
                vals.append(str(uval))
                blobs.append(bits.tobytes())
        t = pa.table(
            {
                "bucket": pa.array([bid] * len(cols), pa.int32()),
                "col": pa.array(cols, pa.string()),
                "value": pa.array(vals, pa.string()),
                "n_rows": pa.array([n] * len(cols), pa.int64()),
                "bits": pa.array(blobs, pa.binary()),
            }
        )
        pq.write_table(t, os.path.join(parts, f"bucket_{bid:05d}.parquet"))
        return pd.DataFrame(
            {"bucket": pd.array([bid], "int32"),
             "n_rows": pd.array([n], "int64"),
             "n_entries": pd.array([len(cols)], "int64")}
        )

    meta = (
        exchange(ds.map_batches(arrow_out(_assign), batch_format="pandas"),
                 _build_bucket)
        .to_pandas()  # ≤ num_buckets rows — bounded by construction
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    meta.to_parquet(os.path.join(out_dir, "meta.parquet"))
    with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as fh:
        json.dump(
            {"version": BITMAP_VERSION, "key_cols": key_cols,
             "index_cols": index_cols,
             "num_buckets": int(num_buckets),
             "n_rows": int(meta["n_rows"].sum()),
             "n_entries": int(meta["n_entries"].sum())},
            fh,
        )
    return meta


def _term_bits(g: pd.DataFrame, col: str, values: list[str],
               negate: bool, n: int) -> np.ndarray:
    sub = g[(g["col"] == col) & (g["value"].isin(values))]
    acc = np.zeros(n, dtype=bool)
    for raw in sub["bits"]:
        acc |= np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=n
        ).astype(bool)
    return ~acc if negate else acc


def bitmap_counts(
    index_dir: str,
    combos: dict[str, list[tuple[str, list[str], bool]]],
) -> pd.DataFrame:
    """Answer every combo — a conjunction of ``(col, values, negate)``
    terms, i.e. ``col IN values`` / ``NOT col IN values`` ANDed — in ONE
    distributed pass over only the index rows the predicates name.

    Returns (combo, n) with combos sorted by name.  Buckets that hold no
    predicate row at all never leave storage; they resolve from the meta
    table (0 unless every term of the combo is negated, in which case
    the empty complement is the whole bucket)."""
    import pyarrow.compute as pc

    from .shuffle import bucketed_group_map

    meta = pd.read_parquet(os.path.join(index_dir, "meta.parquet"))
    names = sorted(combos)
    wanted = sorted(
        {(c, v) for terms in combos.values() for c, vs, _ in terms
         for v in vs}
    )
    flt = None
    for c, v in wanted:
        e = (pc.field("col") == c) & (pc.field("value") == v)
        flt = e if flt is None else (flt | e)
    idx = read_parquet_clean(os.path.join(index_dir, "parts"), filter=flt)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # a coarse exchange bucket can hold SEVERAL index buckets —
        # bitsets only align within one index bucket's row numbering
        out_b, out_name, out_n = [], [], []
        for bid, gg in g.groupby("bucket", sort=False):
            n = int(gg["n_rows"].iloc[0])
            for name in names:
                acc = np.ones(n, dtype=bool)
                for col, vals, neg in combos[name]:
                    acc &= _term_bits(gg, col, vals, neg, n)
                    if not acc.any():
                        break
                out_b.append(int(bid))
                out_name.append(name)
                out_n.append(int(acc.sum()))
        return pd.DataFrame(
            {"bucket": pd.array(out_b, "int32"),
             "combo": pd.array(out_name, "str"),
             "n": pd.array(out_n, "int64")}
        )

    got = bucketed_group_map(idx, ["bucket"], per_bucket).to_pandas()
    # buckets absent from the pruned read: every non-negated term is an
    # empty OR (count 0); an all-negated combo complements to the bucket
    seen = set(got["bucket"].unique().tolist()) if len(got) else set()
    missing = meta[~meta["bucket"].isin(seen)]
    extra_rows = []
    for name in names:
        if all(neg for _, _, neg in combos[name]):
            extra_rows.append((name, int(missing["n_rows"].sum())))
        else:
            extra_rows.append((name, 0))
    base = (
        got.groupby("combo", sort=False)["n"].sum()
        if len(got)
        else pd.Series(dtype="int64")
    )
    out = pd.DataFrame(
        {"combo": pd.array(names, "str"),
         "n": pd.array(
             [int(base.get(nm, 0)) + ex for (nm, ex) in extra_rows],
             "int64")}
    )
    return out


def load_manifest(index_dir: str) -> dict | None:
    man = os.path.join(index_dir, "_MANIFEST.json")
    if not os.path.exists(man):
        return None
    with open(man) as fh:
        return json.load(fh)
