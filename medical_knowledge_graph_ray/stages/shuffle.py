"""Explicit key-partitioned shuffle helpers.

Ray Data's ``groupby(key).map_groups(fn)`` invokes Python once per GROUP —
measured ~1-2 ms/group in this version, which is catastrophic for
high-cardinality keys (an 80 k-bucket LSH stage spends seconds on pure
per-group overhead).  The scalable idiom (see the Ray guide's partitioned
hash-join pattern) is:

1. add a **coarse bucket** column = deterministic row-hash of the key
   columns modulo ``num_buckets`` (vectorized, pandas ``hash_pandas_object``
   with its fixed default hash key — stable across processes);
2. ``groupby(bucket).map_groups`` over the *small, fixed* number of coarse
   buckets — every row of a key lands in exactly one bucket, so per-key
   logic stays correct;
3. inside the bucket, do the per-key work **vectorized** (pandas groupby
   aggregates, sort + drop_duplicates, boundary masks), never a Python
   loop per key.

Skew note: a coarse bucket holds many keys, so one hot key cannot
overload a bucket beyond its own row count; pre-combining partials
upstream (the engine's standard two-phase shape) bounds even that.

A census skips the exchange altogether: ``fold_groups`` is the one
census path.  It groups each block in Arrow inside the task that
produced it (so partials emit per-row columns, never a pandas group-by
combiner) and merges the grouped blocks on the driver as they arrive.
A result with a row per fact-table entity stays a Dataset through
``bucketed_group_map``.
"""

from __future__ import annotations

from collections.abc import Callable

import pandas as pd
import pyarrow as pa

from ..functions.arrow import arrow_out

BUCKET_COL = "_bucket"


def default_num_buckets(*, per_cpu: int = 2, lo: int = 16, hi: int = 2048) -> int:
    """Coarse-bucket default derived from the cluster CPU count,
    ``per_cpu`` buckets per CPU (floored at 16 so small sessions keep
    enough key spread, capped so a huge cluster doesn't explode tiny
    exchanges).  Measured at 32 CPUs: group-map exchanges want 2
    buckets/CPU (64 vs 32 = kg_doc_edges 2.76 vs 3.28 s — the second
    wave smooths map_groups stragglers), joins want 1/CPU (q5's 16-vs-32
    A/B, and join buckets carry two sides' rows each).  At 8 CPUs the
    floor keeps key spread; at 256 nodes a hardcoded 32/64 would idle
    most CPUs through every exchange.  Call sites with a MEASURED
    explicit count keep it — this only replaces the hardcoded defaults."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(lo, min(hi, per_cpu * cpus))


def add_bucket(batch: pd.DataFrame, keys: list[str], num_buckets: int) -> pd.DataFrame:
    """Vectorized deterministic bucket assignment from the key columns."""
    h = pd.util.hash_pandas_object(batch[keys], index=False)
    batch = batch.copy()
    batch[BUCKET_COL] = (h % num_buckets).astype("int32")
    return batch


def _group(t: pa.Table, keys: list[str], aggs: list[tuple[str, str]]) -> pa.Table:
    """``t`` grouped by ``keys`` in Arrow, output columns keeping their
    input names."""
    cols = [c for c, _ in aggs]
    g = t.group_by(keys, use_threads=False).aggregate(aggs)
    names = [f"{c}_{f}" for c, f in aggs]
    return g.select(keys + names).rename_columns(keys + cols)


def group_frame(df: pd.DataFrame, keys: list[str],
                aggs: list[tuple[str, str]]) -> pd.DataFrame:
    """``fold_groups``' Arrow group-by over an in-memory frame, for a
    grouping that is not itself the census: a combiner or bucket kernel
    that does more than sum (two-limb splits of int64-overflowing
    moments, per-class tests) and a coarser level of an already collected
    census (rollup subtotals).  Bytewise keys, so NUL-distinct strings
    stay apart; ``keys=[]`` gives the one-row total."""
    cols = [c for c, _ in aggs]
    t = pa.Table.from_pandas(df[keys + cols], preserve_index=False)
    return _group(t, keys, aggs).to_pandas()


def fold_groups(ds, keys: list[str], aggs: list[tuple[str, str]]) -> pd.DataFrame:
    """The engine's one census path, for a group-by whose result the
    caller collects: ``aggs`` is ``[(col, "sum" | "max" | "min")]`` and
    each output column keeps its input name; ``keys=[]`` gives the global
    totals as one row.  Each block of ``ds`` (per-row columns, or per-block
    partials where a combiner does more than group and sum) is grouped with
    ``pa.Table.group_by`` inside the task that produced it — a
    ``map_batches`` step Ray fuses into the producer — and the driver
    merges the grouped blocks as they arrive, so it holds the result plus
    one block and the plan has no all-to-all operator.  Arrow groups on
    bytes, so string keys that differ only after a NUL stay apart.

    The frame is sorted by the keys (nulls last), with narrow integer key
    and value columns widened to int64 and float ones to float64.  An
    empty ``ds`` gives an empty frame typed from the Dataset's schema, or
    with ``keys=[]`` one all-null row."""
    cols = [c for c, _ in aggs]

    def widen(t: pa.Table) -> pa.Table:
        for k in keys + cols:
            i, typ = t.schema.get_field_index(k), t.schema.field(k).type
            if pa.types.is_integer(typ) and typ.bit_width < 64:
                t = t.set_column(i, k, t[k].cast(pa.int64()))
            elif pa.types.is_floating(typ) and typ.bit_width < 64:
                t = t.set_column(i, k, t[k].cast(pa.float64()))
        return t

    def combine(t: pa.Table) -> pa.Table:
        # a sort exchange's empty partition arrives with no columns
        return _group(widen(t), keys, aggs) if t.num_rows else t

    acc = None
    grouped = ds.map_batches(combine, batch_format="pyarrow", batch_size=None)
    for block in grouped.iter_batches(batch_size=None, batch_format="pyarrow"):
        if block.num_rows:
            acc = block if acc is None else _group(
                pa.concat_tables([acc, block], promote_options="permissive"),
                keys, aggs)
    if acc is None:  # no row arrived: type the result from the schema
        schema = getattr(ds.schema(), "base_schema", None)
        if not isinstance(schema, pa.Schema):
            return pd.DataFrame({c: [] if keys else [None] for c in keys + cols})
        acc = _group(widen(schema.empty_table()), keys, aggs)
    if keys:
        acc = acc.sort_by([(k, "ascending") for k in keys])
    return acc.to_pandas()


def first_non_null_agg(
    ds,
    keys: list[str],
    order_col: str,
    value_cols: list[str],
    *,
    num_buckets: int | None = None,
):
    """A1 group-merge (``structurize_files.py:662-681``): per group, per
    value column INDEPENDENTLY, the first non-null value — "first" defined
    by ``order_col`` (the reference used row order, which is
    parallelism-hostile; a content-stable order column makes the result
    identical at any parallelism).

    Two-phase: each batch melts to one partial row per (group, column)
    carrying the batch-local minimal-order non-null value; the bucketed
    final keeps the global minimum and pivots back to wide."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # the unified _val dtype for EVERY partial frame: a batch where
        # only one column contributes would otherwise emit that column's
        # dtype while multi-contributor batches emit pd.concat's promoted
        # dtype — inconsistent block schemas under mixed-dtype value_cols
        val_dtype = pd.concat([b[c].iloc[:0] for c in value_cols]).dtype
        frames = []
        for col in value_cols:
            nn = b[b[col].notna()]
            if not len(nn):
                continue
            idx = nn.groupby(keys, sort=False)[order_col].idxmin()
            sub = nn.loc[idx, keys + [order_col, col]].rename(
                columns={order_col: "_ord", col: "_val"}
            )
            sub["_val"] = sub["_val"].astype(val_dtype)
            sub["_col"] = col
            frames.append(sub)
        if not frames:
            # typed empty: _val must carry the REAL value dtype or empty
            # batches emit blocks whose schema disagrees with non-empty ones
            return pd.DataFrame(
                {**{k: b[k].iloc[:0] for k in keys},
                 "_ord": pd.array([], b[order_col].dtype),
                 "_val": pd.Series([], dtype=val_dtype),
                 "_col": pd.array([], "str")}
            )
        return pd.concat(frames, ignore_index=True)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        idx = g.groupby(keys + ["_col"], sort=False)["_ord"].idxmin()
        wide = (
            g.loc[idx]
            .pivot(index=keys, columns="_col", values="_val")
            .reset_index()
        )
        wide.columns.name = None
        for col in value_cols:  # groups where a column was all-null
            if col not in wide.columns:
                wide[col] = pd.NA
        return wide[keys + value_cols]

    partials = ds.map_batches(arrow_out(partial), batch_format="pandas")
    return bucketed_group_map(partials, keys, combine, num_buckets=num_buckets)


def bucketed_group_map(
    ds,
    keys: list[str],
    bucket_fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    num_buckets: int | None = None,
):
    """Run ``bucket_fn`` once per coarse bucket with all rows of every key
    co-located.  ``bucket_fn`` receives the bucket as a DataFrame (bucket
    column already dropped) and must handle its keys vectorized.
    ``num_buckets=None`` (default) derives the count from the cluster CPU
    census (``default_num_buckets``)."""
    num_buckets = num_buckets or default_num_buckets()

    def _assign(b: pd.DataFrame) -> pd.DataFrame:
        return add_bucket(b, keys, num_buckets)

    def _run(group: pd.DataFrame) -> pd.DataFrame:
        return bucket_fn(group.drop(columns=[BUCKET_COL]))

    bucketed = ds.map_batches(arrow_out(_assign), batch_format="pandas")
    return bucketed.groupby(BUCKET_COL).map_groups(
        arrow_out(_run), batch_format="pandas"
    )


def grouped_topn(
    ds,
    keys: list[str],
    order_col: str,
    n: int,
    *,
    descending: bool = True,
    tiebreak: str | None = None,
    num_buckets: int | None = None,
):
    """Top-``n`` rows per group — the distributed form of
    ``row_number() OVER (PARTITION BY keys ORDER BY order_col) <= n``.

    Two-phase: each batch keeps its batch-local top-n per group (a
    combiner — the exchange moves at most n·#groups·#batches rows, never
    the table), then a bucketed final re-selects and emits a 1-based
    ``rank`` column.  ``tiebreak`` (ascending) makes ranking total and
    parallelism-invariant; required when ``order_col`` has duplicates.
    """
    sort_cols = keys + [order_col] + ([tiebreak] if tiebreak else [])
    asc = [True] * len(keys) + [not descending] + ([True] if tiebreak else [])

    def keep_topn(b: pd.DataFrame) -> pd.DataFrame:
        s = b.sort_values(sort_cols, ascending=asc, kind="mergesort")
        return s.groupby(keys, sort=False).head(n)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(sort_cols, ascending=asc, kind="mergesort")
        top = s.groupby(keys, sort=False).head(n).copy()
        top["rank"] = top.groupby(keys, sort=False).cumcount() + 1
        return top

    partials = ds.map_batches(arrow_out(keep_topn), batch_format="pandas")
    return bucketed_group_map(partials, keys, final, num_buckets=num_buckets)
