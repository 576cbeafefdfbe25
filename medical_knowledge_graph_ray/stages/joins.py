"""Distributed joins (J-family, SURVEY §2.4).

The engine's join ladder, in preference order:

1. **Broadcast-hash join** (J4/J5): small side shipped once via
   ``ray.put`` and fetched lazily per worker — used throughout
   ``pipelines/relational.py``.  No shuffle.
2. **Semi/anti join by broadcast key set** (J6): ``isin`` masks inside
   ``map_batches``.
3. **Partitioned hash join** (J2, this module): both sides large — each
   side's ``map_batches`` tags its rows with the side and a coarse bucket
   (``functions/hashing.py:row_hash`` of the key columns modulo the
   bucket count), and ``stages/shuffle.py:exchange`` pools both sides
   and hands each bucket to a vectorized pandas merge.  All rows of a
   key land in exactly one bucket on both sides — strings holding a NUL
   included — so the per-bucket merge is exact.
4. **Sort-merge join** (``merge_join``): the same exchange with range
   buckets on a single int64 key, merged by ``searchsorted`` inside each
   bucket.

Skew note: one hot key cannot overload a bucket beyond its own row count;
for extreme key skew, pre-aggregate the probe side per (key, batch) first
(the engine's standard combiner shape) or SALT the hot keys —
``hash_join(..., hot_keys=detect_hot_keys(ds, on), salt=8)`` splits each
hot key's bucket work ``salt`` ways with a row-identical result (hot left
rows spread, hot right rows replicate, cold rows untouched).

This Ray version also ships a native ``Dataset.join`` (hash-partitioned;
measured 4.6 s vs 5.6 s for this module's explicit join on a 600 k-row
orders⋈lineitem at 32 CPUs).  The explicit version stays the default
because its bucket count, skew handling and per-bucket merge semantics
are inspectable and tunable; swap in the native join where those knobs
don't matter.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.arrow import arrow_out
from ..functions.hashing import row_hash
from .shuffle import exchange, fold_groups, with_bucket

_SIDE_COL = "_join_side"
# skew="auto" prefix-sample size: big enough that a ≥5%-mass hot key is
# seen thousands of times, small enough that mining is a sub-second pass
SKEW_SAMPLE_ROWS = 500_000


def _pd_dtypes(schema) -> tuple[list[str], dict]:
    """A join side's column names and the pandas dtypes of its Arrow
    schema, captured at plan time: the unioned bucket frame null-fills
    the other side's columns (ints → float64 in pandas), so each side is
    re-selected and cast back before the merge."""
    arrow = pa.schema(list(zip(schema.names, schema.types)))
    dt = arrow.empty_table().to_pandas().dtypes.to_dict()
    return list(schema.names), dt


def _restore(frame: pd.DataFrame, names: list[str], dtypes: dict) -> pd.DataFrame:
    """One side's rows of a bucket with its own columns and dtypes.
    reindex, not column-select: a bucket that received rows from only
    ONE side (e.g. a sparse right side whose ~200 rows hash into few of
    the 32 buckets) yields a group block WITHOUT the other side's
    columns — Ray's union does not align the two schemas.  reindex
    null-fills the missing columns so the empty side still carries its
    full schema into the merge (the r02 driver failure:
    docs_curation_neardup KeyError 'comp')."""
    out = frame.reindex(columns=names)
    for c in out.columns:
        if c in dtypes and out[c].dtype != dtypes[c]:
            out[c] = out[c].astype(dtypes[c])
    return out


def hash_join(
    left,
    right,
    on: list[str],
    *,
    how: str = "inner",
    num_buckets: int | None = None,
    suffixes: tuple[str, str] = ("_l", "_r"),
    left_schema=None,
    right_schema=None,
    bucket_post=None,
    hot_keys=None,
    salt: int = 8,
    skew: str = "off",
):
    """Partitioned hash join of two Datasets on equality keys.

    Both sides are bucketed by the same deterministic key hash and
    unioned; each bucket's pandas merge sees every row of its keys from
    both sides.  ``how`` ∈ {inner, left, full, semi, anti} — ``full``
    keeps unmatched rows from BOTH sides (key columns coalesced,
    the other side's columns null); semi/anti keep left rows whose key
    does/doesn't appear on the right (no right columns emitted): the
    PARTITIONED form of the broadcast ``isin`` filter (J6), for when the
    filter side is itself too big to ship.

    ``left_schema`` / ``right_schema``: optional ``pyarrow.Schema`` for each
    side.  When omitted the join introspects ``ds.schema()`` — which
    PARTIALLY EXECUTES a lazy plan (and fully executes any upstream
    shuffle), then the union re-executes it.  Pass explicit schemas
    whenever a side is anything more expensive than a read: a chained
    join left uninspected was measured to double total wall time.

    ``bucket_post``: optional ``DataFrame -> DataFrame`` applied to each
    bucket's merged frame.  Because every row of a key lands in exactly
    one bucket on both sides, a per-join-key aggregate placed here is
    exact and FUSES with the join — no second exchange (the reference's
    join→groupby chains, clean_and_save.py:1039-1083, all have this
    shape).

    ``hot_keys`` + ``salt``: EXTREME-SKEW handling.  A single hot key
    lands all its rows from both sides in one bucket, making that
    bucket's merge the straggler.  Pass the hot key set (scalars for a
    single-column ``on``, tuples otherwise — ``detect_hot_keys`` mines
    one) and the bucket space splits ``salt`` ways for those keys: hot
    LEFT rows spread uniformly over the salt shards, hot RIGHT rows
    replicate to every shard, cold rows of both sides stay on shard 0 —
    so every (left, right) row pair still meets exactly once and the
    result is row-identical to the unsalted join.  Not valid for
    ``how='full'`` (replicated unmatched right rows would emit per
    shard).  With ``bucket_post``, a hot key's merged rows now span
    ``salt`` buckets, so the post must be a re-aggregatable PARTIAL
    (every engine bucket_post already is — a final groupby finishes).
    ``skew``: ADAPTIVE skew handling.  ``"auto"`` mines hot keys from a
    bounded prefix sample of the LEFT side's key columns
    (``detect_hot_keys`` over ``SKEW_SAMPLE_ROWS`` rows — one cheap
    column-pruned pass) and salts them; ``"off"`` (default) disables.
    Detection errors are graceful in BOTH directions: salting a cold key
    only splits bucket work (row-identical result), missing a hot key is
    the status quo.
    ``how='full'`` ignores auto (salting is invalid there).  Explicit
    ``hot_keys`` wins over ``skew``.
    """
    if how not in ("inner", "left", "full", "semi", "anti"):
        raise ValueError(f"unsupported join type: {how}")
    if num_buckets is None:
        from .shuffle import default_num_buckets

        num_buckets = default_num_buckets(per_cpu=1)
    if skew not in ("off", "auto"):
        raise ValueError(f"unknown skew mode: {skew!r} (off|auto)")
    if hot_keys is None and skew == "auto" and how != "full":
        sample = left.select_columns(on).limit(SKEW_SAMPLE_ROWS)
        hot_keys = detect_hot_keys(sample, on)
    if hot_keys is not None and salt > 1 and how == "full":
        raise ValueError(
            "salted join cannot run FULL OUTER: replicated unmatched "
            "right rows would be emitted once per salt shard"
        )
    hot_keys = frozenset(hot_keys) if hot_keys else None

    # capture each side's columns/dtypes at plan time from the Arrow
    # schema (see ``_restore``)
    l_names, l_pd = _pd_dtypes(left_schema if left_schema is not None else left.schema())
    r_names, r_pd = _pd_dtypes(right_schema if right_schema is not None else right.schema())
    if how in ("left", "full"):
        # unmatched rows null-fill the other side's columns: use pandas
        # nullable dtypes on that side so every bucket emits ONE Arrow
        # schema (int64-with-nulls) instead of int64/float64 depending on
        # matches.  Key columns stay as-is (coalesced by the merge, never
        # null in the output).
        _nullable = {"int64": "Int64", "int32": "Int32", "float64": "Float64",
                     "bool": "boolean"}
        r_pd = {
            c: _nullable.get(str(d), d) if c not in on else d
            for c, d in r_pd.items()
        }
        if how == "full":
            l_pd = {
                c: _nullable.get(str(d), d) if c not in on else d
                for c, d in l_pd.items()
            }

    shards = salt if hot_keys is not None and salt > 1 else 1

    def _hot_mask(b: pd.DataFrame):
        if len(on) == 1:
            return b[on[0]].isin(hot_keys).to_numpy()
        return np.asarray(pd.MultiIndex.from_frame(b[on]).isin(hot_keys))

    def _tag(side: int):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            # a key's bucket is ``hash % num_buckets``, split ``shards`` ways
            # into salt shards when salted (1 otherwise)
            base = (row_hash(b[on]) % np.uint64(num_buckets)).astype("int64") * shards
            hot = _hot_mask(b) if shards > 1 else np.zeros(len(b), bool)
            if side == 1 and hot.any():
                # hot right rows replicate to every salt shard
                rep = np.where(hot, shards, 1)
                idx = np.repeat(np.arange(len(b)), rep)
                shard = np.arange(len(idx)) - np.repeat(np.cumsum(rep) - rep, rep)
                b, bucket = b.iloc[idx].reset_index(drop=True), base[idx] + shard
            else:
                # hot left rows spread over the shards by batch position:
                # any shard sees the full replicated right side, so the
                # OUTPUT row set is invariant to batching even though
                # routing isn't
                bucket = base + np.where(hot, np.arange(len(b)) % shards, 0)
            out = with_bucket(b, bucket)
            out[_SIDE_COL] = side
            return out

        fn.__name__ = f"tag_side_{side}"
        return fn

    sides = [left.map_batches(arrow_out(_tag(0)), batch_format="pandas"),
             right.map_batches(arrow_out(_tag(1)), batch_format="pandas")]

    def _merge(bucket: pd.DataFrame) -> pd.DataFrame:
        lmask = bucket[_SIDE_COL] == 0
        l = _restore(bucket[lmask], l_names, l_pd)
        r = _restore(bucket[~lmask], r_names, r_pd)
        if how in ("semi", "anti"):
            if len(l) and len(r):
                mark = l.merge(
                    r[on].drop_duplicates().assign(_hit=1), on=on, how="left"
                )["_hit"].notna().to_numpy()
                out = l[mark] if how == "semi" else l[~mark]
            else:
                out = l if how == "anti" else l.iloc[:0]
        elif how == "full":
            # no empty-side shortcut: unmatched RIGHT rows must survive
            out = l.merge(r, on=on, how="outer", suffixes=suffixes)
        elif not len(l):
            out = l.merge(r.iloc[:0], on=on, how=how, suffixes=suffixes)
        else:
            out = l.merge(r, on=on, how=how, suffixes=suffixes)
        return bucket_post(out) if bucket_post is not None else out

    return exchange(sides, _merge)


def detect_hot_keys(ds, on: list[str], *, min_frac: float = 0.05,
                    topk_per_batch: int = 16) -> frozenset:
    """Approximate hot-key mining for the salted join: per-batch top-k
    ``value_counts`` partials (≤ k rows cross per batch) fold
    driver-side; keys holding ≥ ``min_frac`` of the captured mass are
    hot.  The captured mass underestimates the true total (cold tails
    are dropped per batch), so the fraction OVER-estimates — the
    detector errs toward salting more keys, which is harmless: salting
    is result-invariant, it only splits bucket work.  Returns scalars
    for a single-column ``on``, tuples otherwise."""
    from ..functions.arrow import arrow_out as _ao

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {**{c: b[c].iloc[:0] for c in on},
                 "cnt": pd.array([], "int64")}
            )
        vc = b[on].value_counts().head(topk_per_batch)
        out = vc.rename("cnt").reset_index()
        out["cnt"] = out["cnt"].astype("int64")
        return out

    tot = fold_groups(ds.map_batches(_ao(partial), batch_format="pandas"),
                      on, [("cnt", "sum")])
    hot = tot[tot["cnt"] >= min_frac * tot["cnt"].sum()]
    return frozenset(hot[on[0]] if len(on) == 1 else zip(*(hot[c] for c in on)))


BROADCAST_ROW_BUDGET = 2_000_000


def auto_join(
    left,
    right,
    on: list[str],
    *,
    how: str = "inner",
    broadcast_rows: int = BROADCAST_ROW_BUDGET,
    right_rows: int | None = None,
    **kwargs,
):
    """Size-adaptive join: BROADCAST the right side when it is small
    enough, fall back to the partitioned ``hash_join`` otherwise — the
    planner decision every static call site in this engine makes by
    hand (dims broadcast in q5/q9, facts partitioned in q3/q18/q21),
    offered as one API for user pipelines.

    The size probe is ``right.count()`` — METADATA-CHEAP when the right
    side is a plain Parquet read (row counts come from footers), which
    is exactly the case where broadcasting is plausible; pass
    ``right_rows`` to skip the probe when the caller already knows (or
    the right side is an expensive lazy plan, where counting would
    execute it — the probe is the caller's bill, same contract as
    ``ds.schema()``).

    Broadcast path: the collected right frame is ``ray.put`` ONCE and
    every left batch pandas-merges against it — zero exchanges, the
    left side never moves.  Supports inner/left/semi/anti (a broadcast
    'full' would need unmatched-right tracking across batches — use the
    partitioned join).  Results are row-identical to ``hash_join``
    (pytest-pinned)."""
    import ray

    if how not in ("inner", "left", "semi", "anti"):
        return hash_join(left, right, on, how=how, **kwargs)
    n = right.count() if right_rows is None else right_rows
    if n > broadcast_rows:
        return hash_join(left, right, on, how=how, **kwargs)

    rdf = right.to_pandas() if not isinstance(right, pd.DataFrame) else right
    bucket_post = kwargs.get("bucket_post")
    ref = ray.put(rdf)

    def batch_fn(b: pd.DataFrame) -> pd.DataFrame:
        import pandas as pd

        r = ray.get(ref)
        if how in ("semi", "anti"):
            keys = r[on].drop_duplicates()
            m = b.merge(keys, on=on, how="left", indicator=True)
            keep = (m["_merge"] == "both") if how == "semi" else (
                m["_merge"] == "left_only")
            out = m.loc[keep, list(b.columns)]
        else:
            out = b.merge(r, on=on, how=how,
                          suffixes=kwargs.get("suffixes", ("_l", "_r")))
        if bucket_post is not None:
            out = bucket_post(out)
        return out

    from ..functions.arrow import arrow_out

    return left.map_batches(arrow_out(batch_fn), batch_format="pandas")


def range_bucket(k: np.ndarray, lo: int, hi: int, nb: int) -> np.ndarray:
    """Range bucket ``clip(floor((k - lo) * nb / span), 0, nb - 1)`` of
    int64 keys, exact over the whole int64 range: bucket ``j`` starts at
    key ``lo + ceil(j * span / nb)``, found with Python-int bounds and one
    ``searchsorted``, so no product ``(k - lo) * nb`` can wrap."""
    span = max(hi - lo + 1, 1)
    starts = [lo - (-j * span // nb) for j in range(1, nb)]
    top = int(np.iinfo(np.int64).max)
    starts = np.array([s for s in starts if s <= top], dtype=np.int64)
    return np.searchsorted(starts, k, side="right").astype("int32")


def merge_join(
    left,
    right,
    on: str,
    *,
    key_range: tuple[int, int],
    num_buckets: int | None = None,
    left_schema=None,
    right_schema=None,
    bucket_post=None,
):
    """SORT-MERGE join on a single int64 equality key — the third join
    strategy next to the partitioned hash join and the broadcast join:
    both sides range-partition by KEY VALUE (hash of the high key bits
    ⇒ a bucket owns a contiguous key range), each bucket sorts its two
    sides once and probes with ``np.searchsorted`` two-pointer
    expansion — no hash table is ever built, and within a bucket the
    output is key-ordered.  The strategy of choice when inputs arrive
    (nearly) sorted by the key — e.g. reading back the engine's own
    key-sorted checkpoints — where in-bucket sorts degenerate to
    verification scans.

    Inner join only (the hash join covers the other shapes);
    ``bucket_post`` fuses a per-key aggregate into the buckets exactly
    as in ``hash_join``.  Row-identical to ``hash_join`` up to order
    (pytest-pinned).  ``key_range=(lo, hi)``: the caller supplies the
    key bounds (parquet footer min/max, catalog stats, or a sample —
    range partitioning always needs bounds; keys outside clamp into the
    edge buckets, which stays CORRECT, merely unbalanced)."""
    from .shuffle import default_num_buckets

    nb = num_buckets or default_num_buckets()

    lo_k, hi_k = int(key_range[0]), int(key_range[1])

    def _tag(side: int):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            b = with_bucket(b, range_bucket(b[on].to_numpy("int64"), lo_k, hi_k, nb))
            b[_SIDE_COL] = np.int8(side)
            return b
        return fn

    if left_schema is None or right_schema is None:
        raise ValueError("merge_join requires explicit left/right schemas")
    l_names, l_pd = _pd_dtypes(left_schema)
    r_names, r_pd = _pd_dtypes(right_schema)

    sides = [left.map_batches(arrow_out(_tag(0)), batch_format="pandas"),
             right.map_batches(arrow_out(_tag(1)), batch_format="pandas")]

    def _merge(bucket: pd.DataFrame) -> pd.DataFrame:
        lhs = _restore(bucket[bucket[_SIDE_COL] == 0], l_names, l_pd)
        rhs = _restore(bucket[bucket[_SIDE_COL] == 1], r_names, r_pd)
        lk = lhs[on].to_numpy("int64")
        rk = rhs[on].to_numpy("int64")
        lo = np.argsort(lk, kind="mergesort")
        ro = np.argsort(rk, kind="mergesort")
        lk, rk = lk[lo], rk[ro]
        # two-pointer expansion: for each left row, its right match span
        starts = np.searchsorted(rk, lk, side="left")
        ends = np.searchsorted(rk, lk, side="right")
        m = ends - starts
        li = np.repeat(np.arange(len(lk)), m)
        off = (np.arange(int(m.sum())) -
               np.repeat(np.cumsum(m) - m, m)) if m.sum() else np.zeros(0, "int64")
        ri = np.repeat(starts, m) + off
        lsel = lhs.iloc[lo[li]].reset_index(drop=True)
        rsel = rhs.iloc[ro[ri]].drop(columns=[on]).reset_index(drop=True)
        out = pd.concat([lsel, rsel], axis=1)
        if bucket_post is not None:
            out = bucket_post(out)
        return out

    return exchange(sides, _merge)
