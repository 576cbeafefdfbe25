"""ANALYZE-style distributed column profiling + heavy-key diagnostics.

One pass per table computes, for every profiled column: row count, null
count, EXACT distinct count, typed min/max and (for strings) total byte
length — the catalog statistics a query planner or data-quality gate
feeds on (reference intent: the ad-hoc per-table sanity counts scattered
through ``structurize_files.py``'s load steps, promoted to a first-class
operator).

Distributed shape — ONE narrow census exchange carries everything:

1. per-batch combiner: each column collapses to its batch-local value
   census ``(cid int64, v_bits int64, v_str, cnt int64)`` — ``cid`` is
   a spec-order column id (never the table/column STRINGS repeated per
   row — a measured 2× sort-exchange tax), numeric/timestamp values are
   their int64 BIT PATTERN (``float64.view(int64)`` is injective, so
   distinct-on-bits ≡ distinct-on-value and no stringified floats ever
   leave a worker), strings ROUTE by their 64-bit md5 while the exact
   string rides as data (collisions co-locate, never miscount); null
   counts ride as ``cid + NULL_CID`` rows;
2. values of a column co-locate, so per-bucket distinct counts are
   globally disjoint and SUM to the exact distinct, and min/max/length
   fold from the in-bucket distinct values (min over distinct ≡ min
   over all);
3. the unioned reads are ``repartition(16)``-coalesced before the
   exchange: Ray's sort exchange cost scales with BLOCK COUNT, not
   rows (4 × SplitBlocks(64) = 256 tiny blocks cost 11.5 s where 16
   blocks cost 4.3 s at sf0.1).

Exactness contracts:
- distinct keys are exact (bit patterns / raw strings), never hashes;
- string min/max compare by codepoint ≡ DuckDB's binary collation
  (UTF-8 byte order preserves codepoint order);
- numeric min/max are never arithmetic — the oracle's
  ``CAST(MIN(col) AS DOUBLE)`` and Python's ``float()`` round the same
  integer the same way (both round-to-nearest; rounding is monotone,
  so min-of-rounds ≡ round-of-min), timestamps via ``epoch_us``;
- parquet float NULLs arrive in pandas as NaN, so NaN ≡ NULL here (the
  honest reading for parquet-sourced data); bit-distinct counts −0.0
  and +0.0 separately where SQL value-equality would merge them —
  acceptable for parquet analytics, noted.

Sentinels are \x01-prefixed, NEVER \x00-prefixed.  Bucket routing is
NUL-safe (``functions/hashing.py:row_hash`` hashes a NUL-holding string
whole, so every key lands in one bucket), but pandas 2.2.2 object-dtype
``groupby`` and ``nunique`` inside the bucket kernels still read strings
up to the first NUL: ``'\x00STATS'`` groups with ``''`` there (one
``nunique`` where there are two values).  A \x01 sentinel is
collision-free on every path (pinned by
``test_bucket_keys_must_not_contain_nul_strings``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.arrow import arrow_out
from ..functions.hashing import md5_int_vec


def _col_values(s: pd.Series, kind: str):
    """(bits int64 | None, strings | None, null mask) for one column."""
    mask = s.isna().to_numpy()
    if kind == "ts":
        bits = s.to_numpy().astype("datetime64[us]").view("int64")
        return bits, None, mask
    if kind == "num":
        return s.astype("float64").to_numpy().view("int64"), None, mask
    return None, s.astype(str).to_numpy(dtype=object), mask


def profile_datasets(specs: list[tuple[str, "object", dict[str, str]]]) -> pd.DataFrame:
    """Profile every ``(tbl, dataset, {col: kind})`` spec; kinds are
    ``num`` / ``str`` / ``ts``.  Returns one row per (tbl, col)."""
    from .shuffle import bucketed_group_map

    cols = [(tbl, c, k) for tbl, _ds, kinds in specs for c, k in kinds.items()]
    cid_of = {(tbl, c): i for i, (tbl, c, _k) in enumerate(cols)}
    kind_of = {i: k for i, (_t, _c, k) in enumerate(cols)}
    NULL_CID = 1_000_000  # cid + NULL_CID rows carry per-batch null counts

    def census_fn(kinds, tbl):
        cids = {c: cid_of[(tbl, c)] for c in kinds}

        def census(b: pd.DataFrame) -> pd.DataFrame:
            frames = []
            for col, kind in kinds.items():
                cid = cids[col]
                bits, strs, mask = _col_values(b[col], kind)
                if bits is not None:
                    uniq, counts = np.unique(bits[~mask], return_counts=True)
                    frames.append(pd.DataFrame(
                        {"cid": np.int64(cid), "v_bits": uniq, "v_str": "",
                         "cnt": counts.astype("int64")}
                    ))
                else:
                    # strings ROUTE by 64-bit md5 (bucket keys stay pure
                    # int64) but the exact string rides as data: equal
                    # strings co-locate by hash and the in-bucket dedup
                    # compares the strings themselves, so a hash
                    # collision cannot miscount
                    uniq, counts = np.unique(strs[~mask], return_counts=True)
                    h = md5_int_vec(uniq, bits=64) if len(uniq) else \
                        np.empty(0, "uint64")
                    frames.append(pd.DataFrame(
                        {"cid": np.int64(cid),
                         "v_bits": (h - np.uint64(1 << 63)).view("int64"),
                         "v_str": uniq,
                         "cnt": counts.astype("int64")}
                    ))
                nn = int(mask.sum())
                if nn:
                    frames.append(pd.DataFrame(
                        {"cid": [np.int64(cid + NULL_CID)],
                         "v_bits": [np.int64(0)], "v_str": [""],
                         "cnt": [np.int64(nn)]}
                    ))
            out = pd.concat(frames, ignore_index=True)
            for c in ("cid", "v_bits", "cnt"):
                out[c] = out[c].astype("int64")
            return out

        return census

    census_ds = None
    for tbl, ds, kinds in specs:
        c = ds.map_batches(
            arrow_out(census_fn(kinds, tbl)), batch_format="pandas"
        )
        census_ds = c if census_ds is None else census_ds.union(c)

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby(["cid", "v_bits", "v_str"], sort=False)["cnt"]
            .sum().reset_index()
        )
        rows = []
        for cid, sub in m.groupby("cid", sort=False):
            cid = int(cid)
            row = {"cid": cid, "nd": len(sub), "n": int(sub["cnt"].sum()),
                   "min_num": np.nan, "max_num": np.nan,
                   "min_str": None, "max_str": None, "sum_len": 0}
            if cid < NULL_CID:
                if kind_of[cid] == "str":
                    vs = sub["v_str"].to_numpy(dtype=object)
                    row["min_str"] = str(vs.min())
                    row["max_str"] = str(vs.max())
                    lens = np.char.str_len(vs.astype("str"))
                    row["sum_len"] = int(
                        (lens * sub["cnt"].to_numpy("int64")).sum()
                    )
                else:
                    vb = sub["v_bits"].to_numpy("int64")
                    if kind_of[cid] == "ts":
                        row["min_num"] = float(int(vb.min()))
                        row["max_num"] = float(int(vb.max()))
                    else:
                        vals = vb.view("float64")
                        row["min_num"] = float(vals.min())
                        row["max_num"] = float(vals.max())
            rows.append(row)
        out = pd.DataFrame(
            rows, columns=["cid", "nd", "n", "min_num", "max_num",
                           "min_str", "max_str", "sum_len"]
        )
        for c in ("cid", "nd", "n", "sum_len"):
            out[c] = out[c].astype("int64")
        return out

    # coalesce before the exchange: 4 unioned reads arrive as ~256 tiny
    # blocks and Ray's sort-based exchange cost scales with BLOCK COUNT,
    # not rows (measured 11.5 s -> 4.3 s at sf0.1 with repartition(16);
    # raise for census volumes beyond ~50M rows)
    p = bucketed_group_map(
        census_ds.repartition(16), ["cid", "v_bits"], bucket_stats
    ).to_pandas()  # bounded: ≤ buckets × #columns rows

    rows = []
    for (tbl, col, kind) in cols:
        cid = cid_of[(tbl, col)]
        sub = p[p["cid"] == cid]
        nulls = p[p["cid"] == cid + NULL_CID]
        n_null = int(nulls["n"].sum()) if len(nulls) else 0
        row = {"tbl": tbl, "col": col,
               "n_rows": int(sub["n"].sum()) + n_null,
               "n_null": n_null,
               "n_distinct": int(sub["nd"].sum()),
               "min_num": np.nan, "max_num": np.nan,
               "min_str": None, "max_str": None, "sum_len": 0}
        if kind == "str":
            strs_mn = sub["min_str"].dropna()
            strs_mx = sub["max_str"].dropna()
            row["min_str"] = strs_mn.min() if len(strs_mn) else None
            row["max_str"] = strs_mx.max() if len(strs_mx) else None
            row["sum_len"] = int(sub["sum_len"].sum())
        elif sub["min_num"].notna().any():
            row["min_num"] = float(sub["min_num"].min())
            row["max_num"] = float(sub["max_num"].max())
        rows.append(row)
    out_cols = ["tbl", "col", "n_rows", "n_null", "n_distinct",
                "min_num", "max_num", "min_str", "max_str", "sum_len"]
    out = pd.DataFrame(rows, columns=out_cols).sort_values(
        ["tbl", "col"], kind="mergesort"
    ).reset_index(drop=True)
    for c in ("n_rows", "n_null", "n_distinct", "sum_len"):
        out[c] = out[c].astype("int64")
    out["min_num"] = out["min_num"].astype("float64")
    out["max_num"] = out["max_num"].astype("float64")
    return out


TOTAL_SENTINEL = "\x01TOTAL"  # \x01 not \x00 — see the sentinel note above


def skew_report(specs: list[tuple[str, "object", list[str]]], top_n: int = 5) -> pd.DataFrame:
    """Heavy-key diagnostics over join/group key columns — the mining
    pass that feeds ``hash_join(skew=...)``: per (table, column) the
    ``top_n`` hottest values with exact counts and their integer
    basis-point share of the table.  ``specs`` = (tbl, dataset, [cols]).

    Shape: per-batch ``value_counts`` combiner → all columns of all
    tables share ONE hash exchange on (cid, value) — ``cid`` is the
    compact column id, integer keys travel AS int64 (never stringified;
    the output's ``str(int)`` ≡ ``CAST(x AS VARCHAR)`` conversion runs
    on ≤ top_n rows driver-side).  Per-bucket top-n candidates are
    value-disjoint so their union provably contains the global top-n
    (the in-bucket tie-break — cnt desc, native value asc — equals the
    oracle's); each bucket also emits one Σcnt marker row per cid so
    the share denominator needs no second pass.  Shares are
    ``cnt·10⁴ // total`` — exact integer division on both engines."""
    from .shuffle import bucketed_group_map

    cols = [(tbl, c) for tbl, _ds, cs in specs for c in cs]
    cid_of = {tc: i for i, tc in enumerate(cols)}

    tall = None
    for tbl, ds, cs in specs:
        def _census(b: pd.DataFrame, _t=tbl, _cols=tuple(cs)) -> pd.DataFrame:
            frames = []
            for c in _cols:
                s = b[c].dropna()
                if s.dtype == object or str(s.dtype) in ("string", "str"):
                    vc = s.value_counts()
                    vi = np.zeros(len(vc), dtype="int64")
                    vs = vc.index.to_numpy(dtype=object)
                else:
                    vc = s.astype("int64").value_counts()
                    vi = vc.index.to_numpy(dtype="int64")
                    vs = np.full(len(vc), "", dtype=object)
                frames.append(pd.DataFrame(
                    {"cid": np.int64(cid_of[(_t, c)]), "v_int": vi,
                     "v_str": pd.array(vs, "str"),
                     "cnt": pd.array(vc.to_numpy(), "int64")}
                ))
            out = pd.concat(frames, ignore_index=True)
            out["cid"] = out["cid"].astype("int64")
            return out

        t = ds.map_batches(arrow_out(_census), batch_format="pandas")
        tall = t if tall is None else tall.union(t)

    def bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby(["cid", "v_int", "v_str"], sort=False)["cnt"]
            .sum().reset_index()
        )
        top = (
            m.sort_values(["cid", "cnt", "v_str", "v_int"],
                          ascending=[True, False, True, True],
                          kind="mergesort")
            .groupby("cid", sort=False).head(top_n)
        )
        totals = m.groupby("cid", sort=False)["cnt"].sum().reset_index()
        totals["v_int"] = np.int64(0)
        totals["v_str"] = TOTAL_SENTINEL
        out = pd.concat([top, totals[top.columns]], ignore_index=True)
        for c in ("cid", "v_int", "cnt"):
            out[c] = out[c].astype("int64")
        return out

    p = bucketed_group_map(
        tall.repartition(16), ["cid", "v_int", "v_str"], bucket_top
    ).to_pandas()  # block-count coalesce — see profile_datasets note
    is_tot = p["v_str"] == TOTAL_SENTINEL
    totals = p[is_tot].groupby("cid")["cnt"].sum().to_dict()
    rows = []
    for (tbl, col) in cols:
        cid = cid_of[(tbl, col)]
        sub = p[~is_tot & (p["cid"] == cid)]
        if not len(sub):
            continue
        total = int(totals[cid])
        sub = sub.assign(
            value=np.where(sub["v_str"].to_numpy(dtype=object) == "",
                           sub["v_int"].astype(str).to_numpy(dtype=object),
                           sub["v_str"].to_numpy(dtype=object))
        ).sort_values(
            ["cnt", "v_str", "v_int"], ascending=[False, True, True],
            kind="mergesort",
        ).head(top_n)
        for i, r in enumerate(sub.itertuples(index=False), 1):
            rows.append(
                {"tbl": tbl, "col": col, "value": r.value,
                 "cnt": int(r.cnt),
                 "share_bp": int(r.cnt) * 10000 // total,
                 "rank": i}
            )
    cols_out = ["tbl", "col", "value", "cnt", "share_bp", "rank"]
    out = pd.DataFrame(rows, columns=cols_out).sort_values(
        ["tbl", "col", "rank"], kind="mergesort"
    ).reset_index(drop=True)
    for c in ("cnt", "share_bp", "rank"):
        out[c] = out[c].astype("int64")
    return out


def skew_report_sql(specs: list[tuple[str, list[str]]], top_n: int = 5) -> str:
    """Mirrored oracle: one ranked GROUP BY arm per (table, column)."""
    arms = []
    for tbl, cols in specs:
        for c in cols:
            arms.append(f"""
SELECT tbl, col, value, cnt, share_bp, rank FROM (
  SELECT tbl, col, value, cnt, share_bp,
         CAST(row_number() OVER (ORDER BY cnt DESC, rawv) AS BIGINT) AS rank
  FROM (
    SELECT '{tbl}' AS tbl, '{c}' AS col, CAST({c} AS VARCHAR) AS value,
           {c} AS rawv, COUNT(*) AS cnt,
           CAST(COUNT(*) * 10000 //
                (SELECT COUNT(*) FROM {tbl} WHERE {c} IS NOT NULL)
                AS BIGINT) AS share_bp
    FROM {tbl} WHERE {c} IS NOT NULL GROUP BY {c}
    ORDER BY cnt DESC, rawv LIMIT {top_n}
  )
)""")
    return " UNION ALL ".join(arms)


def profile_sql(specs: list[tuple[str, dict[str, str]]]) -> str:
    """The mirrored DuckDB oracle: one UNION ALL arm per column."""
    arms = []
    for tbl, kinds in specs:
        for col, kind in kinds.items():
            if kind == "str":
                num = "CAST(NULL AS DOUBLE)"
                mn, mx = f"MIN({col})", f"MAX({col})"
                sl = f"CAST(COALESCE(SUM(length({col})), 0) AS BIGINT)"
                arm_num = f"{num} AS min_num, {num} AS max_num"
            else:
                expr = f"epoch_us({{m}}({col}))" if kind == "ts" else f"{{m}}({col})"
                arm_num = (
                    f"CAST({expr.format(m='MIN')} AS DOUBLE) AS min_num, "
                    f"CAST({expr.format(m='MAX')} AS DOUBLE) AS max_num"
                )
                mn = mx = "CAST(NULL AS VARCHAR)"
                sl = "CAST(0 AS BIGINT)"
            arms.append(
                f"SELECT '{tbl}' AS tbl, '{col}' AS col, "
                f"COUNT(*) AS n_rows, COUNT(*) - COUNT({col}) AS n_null, "
                f"COUNT(DISTINCT {col}) AS n_distinct, {arm_num}, "
                f"{mn} AS min_str, {mx} AS max_str, {sl} AS sum_len "
                f"FROM {tbl}"
            )
    return " UNION ALL ".join(arms)
