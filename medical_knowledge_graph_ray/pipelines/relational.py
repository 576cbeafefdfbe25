"""Relational operator pipelines over the TPC-H-ish testdata tables.

These exercise the engine's generic operator families against the
reference's inventory (SURVEY §2): partial-then-final aggregation (A1/A4),
broadcast-hash joins for small sides (J2-J5 "avoid the shuffle join"),
anti/semi joins by broadcast set (J6), global sort + limit (R1-R3), and
vectorized filters/projections (O-family scalar ops).

Float determinism contract: every SUM over monetary doubles is computed on
exactly-scaled int64 cents (``rint(x * 10^d)``) and divided back once at
the end — a single IEEE multiply + rint is bit-identical between numpy and
DuckDB, so the oracle hash matches regardless of summation order or
parallelism.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow.compute as pc

from ..functions.arrow import arrow_out, read_parquet_clean
from ..stages.shuffle import fold_groups, group_frame

Q1_CUTOFF = "2001-09-01"
Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-01-01"
Q5_REGION = "ASIA"
Q5_FROM, Q5_TO = "1996-01-01", "1999-01-01"


def _read(sf_dir: str, table: str, columns=None, filter=None):
    import ray.data as rd

    return read_parquet_clean(
        f"{sf_dir}/{table}.parquet", columns=columns, filter=filter
    )


def _read_dim(sf_dir: str, table: str, columns=None) -> pd.DataFrame:
    """Driver-side pyarrow read for FIXED-CARDINALITY dimension tables
    (region = 5 rows, nation = 25 at every scale factor).  A distributed
    Dataset execution for a KB-sized table is pure fixed overhead
    (~0.5-1 s per execution — measured ~2 s of q5's wall across its two
    dimension reads); the table is broadcast state, so read it where the
    broadcast starts.  Only valid for tables whose size does NOT grow
    with the data (never customer/supplier/part)."""
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{table}.parquet", columns=columns).to_pandas()


# -- Q1: pricing summary (per-row int-cent columns folded by fold_groups) ----

def q1_pricing(sf_dir: str):
    li = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
        filter=pc.field("l_shipdate") <= pc.scalar(np.datetime64(Q1_CUTOFF, "us")),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        qty_c = np.rint(b["l_quantity"].to_numpy() * 100).astype("int64")
        price = b["l_extendedprice"].to_numpy()
        disc = b["l_discount"].to_numpy()
        tax = b["l_tax"].to_numpy()
        price_c = np.rint(price * 100).astype("int64")
        disc_price_c = np.rint(price * (1.0 - disc) * 10_000).astype("int64")
        charge_c = np.rint(price * (1.0 - disc) * (1.0 + tax) * 1_000_000).astype("int64")
        disc_c = np.rint(disc * 100).astype("int64")
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty_c": qty_c, "price_c": price_c, "disc_price_c": disc_price_c,
                "charge_c": charge_c, "disc_c": disc_c, "count_order": 1,
            }
        )

    agg = fold_groups(  # ≤ |returnflag| × |linestatus| rows
        li.map_batches(arrow_out(partial), batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        [("qty_c", "sum"), ("price_c", "sum"), ("disc_price_c", "sum"),
         ("charge_c", "sum"), ("disc_c", "sum"), ("count_order", "sum")])

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = df["count_order"]
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["qty_c"] / 100.0,
                "sum_base_price": df["price_c"] / 100.0,
                "sum_disc_price": df["disc_price_c"] / 10_000.0,
                "sum_charge": df["charge_c"] / 1_000_000.0,
                "avg_qty": df["qty_c"] / 100.0 / n,
                "avg_price": df["price_c"] / 100.0 / n,
                "avg_disc": df["disc_c"] / 100.0 / n,
                "count_order": n,
            }
        )

    return finalize(agg)


def q1_rollup(sf_dir: str) -> pd.DataFrame:
    """ROLLUP / GROUPING-SETS aggregate (the subtotal family Ray Data has
    no native operator for): q1's pricing sums at THREE grouping levels —
    (returnflag, linestatus), per-returnflag subtotals, and the grand
    total — with the sentinel 'ALL' marking rolled-up key columns.

    Scale shape: the detail aggregate is computed ONCE distributed (the
    same int-cent partial combiner as q1); every coarser level is then
    derived from the DETAIL aggregate — a ≤|flag|·|status| bounded
    artifact — driver-side, never a second corpus pass.  Sums stay int64
    cents through every re-aggregation and divide once at the end (the
    engine's float-parity contract)."""
    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_shipdate"],
        filter=pc.field("l_shipdate") <= pc.scalar(np.datetime64(Q1_CUTOFF, "us")),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty_c": np.rint(b["l_quantity"].to_numpy() * 100).astype("int64"),
                "price_c": np.rint(
                    b["l_extendedprice"].to_numpy() * 100
                ).astype("int64"),
                "n": 1,
            }
        )

    sums = [("qty_c", "sum"), ("price_c", "sum"), ("n", "sum")]
    base = fold_groups(  # ≤ |returnflag| × |linestatus| rows
        li.map_batches(arrow_out(partial), batch_format="pandas"),
        ["l_returnflag", "l_linestatus"], sums)
    levels = [base]
    for keep in (["l_returnflag"], []):
        lvl = group_frame(base, keep, sums)
        for col in ("l_returnflag", "l_linestatus"):
            if col not in lvl.columns:
                lvl[col] = "ALL"
        levels.append(lvl)
    out = pd.concat(levels, ignore_index=True)
    out = pd.DataFrame(
        {
            "l_returnflag": pd.array(out["l_returnflag"], "str"),
            "l_linestatus": pd.array(out["l_linestatus"], "str"),
            "sum_qty": out["qty_c"].astype("int64") / 100.0,
            "sum_base_price": out["price_c"].astype("int64") / 100.0,
            "count_order": out["n"].astype("int64"),
        }
    )
    return out.sort_values(
        ["l_returnflag", "l_linestatus"], kind="mergesort"
    ).reset_index(drop=True)


Q1_ROLLUP_SQL = f"""
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       SUM(CAST(round(l_quantity*100) AS BIGINT))/100.0 AS sum_qty,
       SUM(CAST(round(l_extendedprice*100) AS BIGINT))/100.0 AS sum_base_price,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


Q1_SQL = f"""
SELECT l_returnflag, l_linestatus,
       SUM(CAST(round(l_quantity*100) AS BIGINT))/100.0 AS sum_qty,
       SUM(CAST(round(l_extendedprice*100) AS BIGINT))/100.0 AS sum_base_price,
       SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))/10000.0 AS sum_disc_price,
       SUM(CAST(round(l_extendedprice*(1-l_discount)*(1+l_tax)*1000000) AS BIGINT))/1000000.0 AS sum_charge,
       SUM(CAST(round(l_quantity*100) AS BIGINT))/100.0/COUNT(*) AS avg_qty,
       SUM(CAST(round(l_extendedprice*100) AS BIGINT))/100.0/COUNT(*) AS avg_price,
       SUM(CAST(round(l_discount*100) AS BIGINT))/100.0/COUNT(*) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# -- Q3: shipping priority (partitioned hash join + top-k) --------------------

def q3_top_orders(sf_dir: str, k: int = 10):
    """customer ⋈ orders ⋈ lineitem with NO driver-side materialization of
    a fact table (reference J2 "large-large", clean_and_save.py:1039-1040).

    Only the BUILDING custkey *set* is broadcast (a filtered dimension-key
    set — the one side small enough to ship at scale); the date-filtered
    orders stream is semi-joined against it inside map_batches, then hash-
    joined (stages/joins.py, two-sided bucketed exchange) against lineitem
    revenue partials that were pre-aggregated per orderkey per batch, so
    the exchange carries ~distinct-orderkey rows, not raw lineitems."""
    import pyarrow as pa
    import ray

    from ..stages.joins import hash_join

    custkeys_ref = ray.put(
        set(
            _read(
                sf_dir, "customer", columns=["c_custkey", "c_mktsegment"],
                filter=pc.field("c_mktsegment") == Q3_SEGMENT,
            )
            .select_columns(["c_custkey"])
            .to_pandas()["c_custkey"]
            .tolist()
        )
    )

    class SemiJoinCust:
        """Broadcast key set fetched lazily per worker (J6 anti/semi shape)."""

        def __init__(self, ref):
            self.ref = ref
            self.keys = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keys is None:
                self.keys = ray.get(self.ref)
            return b.loc[b["o_custkey"].isin(self.keys), ["o_orderkey", "o_orderdate"]]

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pc.field("o_orderdate") < pc.scalar(np.datetime64(Q3_DATE, "us")),
    ).map_batches(arrow_out(SemiJoinCust(custkeys_ref)), batch_format="pandas")

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=pc.field("l_shipdate") > pc.scalar(np.datetime64(Q3_DATE, "us")),
    )

    def partial_revenue(b: pd.DataFrame) -> pd.DataFrame:
        rev_c = np.rint(
            b["l_extendedprice"].to_numpy() * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return (
            pd.DataFrame({"o_orderkey": b["l_orderkey"], "rev_c": rev_c})
            .groupby("o_orderkey", sort=False).agg(rev_c=("rev_c", "sum"))
            .reset_index()
        )

    partials = li.map_batches(arrow_out(partial_revenue), batch_format="pandas")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        # exact inside the join bucket: all partials of an orderkey land in
        # this bucket, so this is the FINAL per-orderkey sum (no 2nd shuffle)
        return (
            g.groupby(["o_orderkey", "o_orderdate"], sort=False)
            .agg(rev_c=("rev_c", "sum"))
            .reset_index()
        )

    agg = hash_join(
        orders, partials, on=["o_orderkey"], how="inner", num_buckets=16,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))]
        ),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("rev_c", pa.int64())]),
        bucket_post=combine,
    )
    top = agg.sort(["rev_c", "o_orderkey"], descending=[True, False]).limit(k)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": df["o_orderkey"],
                "revenue": df["rev_c"] / 10_000.0,
                "o_orderdate": df["o_orderdate"],
            }
        )

    return top.map_batches(finalize, batch_format="pandas")


Q3_SQL = f"""
SELECT l_orderkey,
       SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))/10000.0 AS revenue,
       o_orderdate
FROM customer JOIN orders ON c_custkey = o_custkey
     JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = '{Q3_SEGMENT}'
  AND o_orderdate < TIMESTAMP '{Q3_DATE} 00:00:00'
  AND l_shipdate  > TIMESTAMP '{Q3_DATE} 00:00:00'
GROUP BY l_orderkey, o_orderdate
ORDER BY SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)) DESC, l_orderkey
LIMIT 10
"""


# -- Q5-ish: region revenue (broadcast join chain through 4 dimensions) ------

def q5_region_revenue(sf_dir: str):
    """Region revenue with the fact tables kept DISTRIBUTED.

    Dimension chain region ⋈ nation ⋈ customer collapses to a broadcast
    ``custkey → nationkey`` array pair: customer is scanned DISTRIBUTED
    (column-pruned read + region-nation filter in map_batches) and only
    the surviving key pairs — the same size class as q3's custkey set, a
    per-region dimension-key artifact that any broadcast join must hold
    anyway — are collected and ``ray.put`` once.  Orders then resolves its
    nation map-side (np.searchsorted, no exchange), and the ONE
    large-large join left — orders ⋈ per-batch-pre-aggregated lineitem
    revenue — runs through stages/joins.py's bucketed hash join with the
    per-nation partial aggregate fused into the join buckets.  No fact
    table (orders/lineitem) is ever materialized on the driver."""
    import pyarrow as pa
    import ray

    from ..stages.joins import hash_join

    region = _read_dim(sf_dir, "region")
    nation = _read_dim(sf_dir, "nation")
    rkeys = set(region.loc[region["r_name"] == Q5_REGION, "r_regionkey"])
    nat = nation[nation["n_regionkey"].isin(rkeys)]
    nation_by_key = dict(zip(nat["n_nationkey"], nat["n_name"]))
    nkeys = set(nation_by_key)

    def filter_cust(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b["c_nationkey"].isin(nkeys), ["c_custkey", "c_nationkey"]]

    cust = (
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
        .map_batches(arrow_out(filter_cust), batch_format="pandas")
        .to_pandas()
        .sort_values("c_custkey")
    )
    cust_ref = ray.put(
        (cust["c_custkey"].to_numpy(), cust["c_nationkey"].to_numpy())
    )

    class OrderNation:
        """Map-side custkey→nationkey resolution via the broadcast sorted
        key array (fetched lazily once per worker)."""

        def __init__(self, ref):
            self.ref = ref
            self.keys = None
            self.nats = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keys is None:
                self.keys, self.nats = ray.get(self.ref)
            if not len(self.keys):  # region with zero customers
                return pd.DataFrame(
                    {"o_orderkey": pd.array([], "int64"),
                     "c_nationkey": pd.array([], "int32")}
                )
            ck = b["o_custkey"].to_numpy()
            pos = np.searchsorted(self.keys, ck)
            pos_c = np.clip(pos, 0, len(self.keys) - 1)
            hit = self.keys[pos_c] == ck
            return pd.DataFrame(
                {
                    "o_orderkey": b["o_orderkey"].to_numpy()[hit],
                    "c_nationkey": self.nats[pos_c[hit]],
                }
            )

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(
            (pc.field("o_orderdate") >= pc.scalar(np.datetime64(Q5_FROM, "us")))
            & (pc.field("o_orderdate") < pc.scalar(np.datetime64(Q5_TO, "us")))
        ),
    ).map_batches(arrow_out(OrderNation(cust_ref)), batch_format="pandas")

    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def partial_revenue(b: pd.DataFrame) -> pd.DataFrame:
        rev_c = np.rint(
            b["l_extendedprice"].to_numpy() * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return (
            pd.DataFrame({"o_orderkey": b["l_orderkey"], "rev_c": rev_c})
            .groupby("o_orderkey", sort=False).agg(rev_c=("rev_c", "sum"))
            .reset_index()
        )

    partials = li.map_batches(arrow_out(partial_revenue), batch_format="pandas")

    def by_nation(b: pd.DataFrame) -> pd.DataFrame:
        # per-bucket PARTIAL per-nation sum fused into the join (nation keys
        # span buckets, so a tiny final groupby below finishes the sum);
        # nation_by_key is a few dozen entries — closure-shipped, not ray.put
        out = (
            b.groupby("c_nationkey", sort=False).agg(rev_c=("rev_c", "sum"))
            .reset_index()
        )
        out["n_name"] = out["c_nationkey"].map(nation_by_key)
        return out[["n_name", "rev_c"]]

    joined = hash_join(
        orders, partials, on=["o_orderkey"], how="inner", num_buckets=32,
        left_schema=pa.schema([("o_orderkey", pa.int64()), ("c_nationkey", pa.int32())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("rev_c", pa.int64())]),
        bucket_post=by_nation,
    )

    agg = fold_groups(joined, ["n_name"], [("rev_c", "sum")])  # ≤ |nations|
    return pd.DataFrame(
        {"n_name": agg["n_name"], "revenue": agg["rev_c"] / 10_000.0})


Q5_SQL = f"""
SELECT n_name,
       SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))/10000.0 AS revenue
FROM region JOIN nation ON n_regionkey = r_regionkey
     JOIN customer ON c_nationkey = n_nationkey
     JOIN orders ON o_custkey = c_custkey
     JOIN lineitem ON l_orderkey = o_orderkey
WHERE r_name = '{Q5_REGION}'
  AND o_orderdate >= TIMESTAMP '{Q5_FROM} 00:00:00'
  AND o_orderdate <  TIMESTAMP '{Q5_TO} 00:00:00'
GROUP BY n_name
ORDER BY n_name
"""


# -- Q9-ish: profit by nation and year (4-table join chain) -------------------

Q9_PART_LIKE = "red"


def q9_profit(sf_dir: str):
    """Profit per (supplier nation, order year) — the J2/J3/J4 chain over
    FOUR tables: part and supplier scanned distributed and collapsed to
    broadcast key artifacts (a filtered partkey set; a suppkey→nationkey
    array pair — both dimension-key-sized), lineitem filtered and
    pre-aggregated per orderkey map-side, then ONE large-large hash join
    against date-filtered orders with the per-(nation, year) partial
    aggregate fused into the join buckets.  No fact table ever touches
    the driver."""
    import pyarrow as pa
    import ray

    from ..stages.joins import hash_join

    nation = _read_dim(sf_dir, "nation")
    nation_by_key = dict(zip(nation["n_nationkey"], nation["n_name"]))

    def filter_part(b: pd.DataFrame) -> pd.DataFrame:
        # regex=False: the SQL side is LIKE '%…%', a literal substring
        # match — a metacharacter in Q9_PART_LIKE must not change semantics
        return b.loc[
            b["p_name"].str.contains(Q9_PART_LIKE, regex=False), ["p_partkey"]
        ]

    partkeys = (
        _read(sf_dir, "part", columns=["p_partkey", "p_name"])
        .map_batches(arrow_out(filter_part), batch_format="pandas")
        .to_pandas()["p_partkey"]
        .to_numpy()
    )
    partkeys.sort()

    supp = (
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
        .to_pandas()
        .sort_values("s_suppkey")
    )
    bcast = ray.put(
        (partkeys, supp["s_suppkey"].to_numpy(), supp["s_nationkey"].to_numpy())
    )

    class LineitemPartial:
        """Map-side: part semi-join + supplier nation resolution + exact-
        cents amount, pre-aggregated per (orderkey, nation) per batch."""

        def __init__(self, ref):
            self.ref = ref
            self.state = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.state is None:
                self.state = ray.get(self.ref)
            pkeys, skeys, snat = self.state
            empty = pd.DataFrame(
                {"o_orderkey": pd.array([], "int64"),
                 "nation": pd.array([], "str"),
                 "amount_c": pd.array([], "int64")}
            )
            if not len(pkeys) or not len(skeys):
                return empty
            pk = b["l_partkey"].to_numpy()
            pos_c = np.clip(np.searchsorted(pkeys, pk), 0, len(pkeys) - 1)
            mask = pkeys[pos_c] == pk
            if not mask.any():
                return empty
            b = b[mask]
            sk = b["l_suppkey"].to_numpy()
            spos = np.clip(np.searchsorted(skeys, sk), 0, len(skeys) - 1)
            # inner-join semantics: a suppkey absent from supplier DROPS
            # the row (clip without the equality check silently credited
            # it to the nearest supplier's nation)
            shit = skeys[spos] == sk
            if not shit.all():
                b = b[shit]
                spos = spos[shit]
                if not len(b):
                    return empty
            nations = pd.Series(snat[spos]).map(nation_by_key).to_numpy()
            amount_c = np.rint(
                b["l_extendedprice"].to_numpy()
                * (1.0 - b["l_discount"].to_numpy()) * 10_000
            ).astype("int64")
            return (
                pd.DataFrame(
                    {"o_orderkey": b["l_orderkey"].to_numpy(),
                     "nation": nations, "amount_c": amount_c}
                )
                .groupby(["o_orderkey", "nation"], sort=False)
                .agg(amount_c=("amount_c", "sum"))
                .reset_index()
            )

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    )
    partials = li.map_batches(
        arrow_out(LineitemPartial(bcast)), batch_format="pandas"
    )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def by_nation_year(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(o_year=g["o_orderdate"].dt.year.astype("int64"))
        return (
            g.groupby(["nation", "o_year"], sort=False)
            .agg(amount_c=("amount_c", "sum"))
            .reset_index()
        )

    joined = hash_join(
        orders, partials, on=["o_orderkey"], how="inner", num_buckets=32,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("nation", pa.string()),
             ("amount_c", pa.int64())]
        ),
        bucket_post=by_nation_year,
    )
    agg = fold_groups(  # ≤ |nations| × |years| rows
        joined, ["nation", "o_year"], [("amount_c", "sum")])
    return pd.DataFrame(
        {"nation": agg["nation"], "o_year": agg["o_year"],
         "profit": agg["amount_c"] / 10_000.0}
    ).sort_values(["nation", "o_year"], ascending=[True, False],
                  kind="mergesort", ignore_index=True)


Q9_SQL = f"""
SELECT n_name AS nation,
       CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))/10000.0 AS profit
FROM part JOIN lineitem ON p_partkey = l_partkey
     JOIN supplier ON s_suppkey = l_suppkey
     JOIN orders ON o_orderkey = l_orderkey
     JOIN nation ON n_nationkey = s_nationkey
WHERE p_name LIKE '%{Q9_PART_LIKE}%'
GROUP BY n_name, o_year
ORDER BY nation, o_year DESC
"""


# -- large-large partitioned hash join (J2) -----------------------------------

def orders_lineitem_join(sf_dir: str):
    """Revenue by order priority via a REAL two-sided shuffle join
    (stages/joins.py hash_join) — no broadcast side, exercising J2."""
    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_group_map

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"l_orderkey": "o_orderkey"})
        b["rev_c"] = np.rint(
            b["l_extendedprice"].to_numpy() * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return b[["o_orderkey", "rev_c"]]

    li_keyed = li.map_batches(arrow_out(keyed), batch_format="pandas")
    joined = hash_join(orders, li_keyed, on=["o_orderkey"], how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("o_orderpriority", sort=False)
            .agg(rev_c=("rev_c", "sum"), n_items=("rev_c", "size"))
            .reset_index()
        )

    partials = joined.map_batches(arrow_out(partial), batch_format="pandas")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("o_orderpriority", sort=False)
            .agg(rev_c=("rev_c", "sum"), n_items=("n_items", "sum"))
            .reset_index()
        )
        out["revenue"] = out["rev_c"] / 10_000.0
        return out[["o_orderpriority", "revenue", "n_items"]]

    return bucketed_group_map(partials, ["o_orderpriority"], combine, num_buckets=4)


ORDERS_LINEITEM_JOIN_SQL = """
SELECT o_orderpriority,
       SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))/10000.0 AS revenue,
       COUNT(*) AS n_items
FROM orders JOIN lineitem ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


def orders_topn_per_cust(sf_dir: str, n: int = 3):
    """Top-n orders per customer by total price — the grouped top-N
    pattern (`stages/shuffle.py:grouped_topn`): batch-local top-n
    combiner, bucketed final, deterministic orderkey tiebreak."""
    from ..stages.shuffle import grouped_topn

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    return grouped_topn(
        orders, ["o_custkey"], "o_totalprice", n, tiebreak="o_orderkey"
    )


TOPN_SQL = """
SELECT o_custkey, o_orderkey, o_totalprice, CAST(rn AS BIGINT) AS rank
FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rn
  FROM orders
) WHERE rn <= 3
"""


QUANTILE_QS = [0.25, 0.5, 0.75, 0.9, 0.99]


def lineitem_quantiles(sf_dir: str):
    """Exact discrete quantiles of l_extendedprice WITHOUT a global sort:
    iterative histogram narrowing (`stages/quantiles.py`) — each round is
    a cheap column scan exchanging a 4096-bin histogram, never rows.  The
    column round-trips losslessly through int cents (verified property of
    2-decimal prices), so the answers are bit-identical to DuckDB's
    quantile_disc over the raw doubles."""
    import numpy as np
    import pandas as pd

    from ..functions.arrow import arrow_out
    from ..stages.quantiles import quantiles_disc_int

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")}
        )

    ints = li.map_batches(arrow_out(to_cents), batch_format="pandas")
    out = quantiles_disc_int(ints, QUANTILE_QS)
    out["value"] = out["value"] / 100.0
    return out


LINEITEM_QUANTILES_SQL = "\nUNION ALL\n".join(
    f"SELECT CAST({q} AS DOUBLE) AS q, "
    f"quantile_disc(l_extendedprice, {q}) AS value FROM lineitem"
    for q in QUANTILE_QS
)


NO_BIG_ORDER_CUTOFF = 400_000


def customers_no_orders(sf_dir: str):
    """Customers with no order above NO_BIG_ORDER_CUTOFF — the
    PARTITIONED anti join (`stages/joins.py` how='anti'): both sides
    bucket by the key and the filter resolves in-bucket, for when the
    filter side is itself too large to broadcast as a key set (the
    broadcast `isin` form is J6; this is its shuffle-scale sibling)."""
    import pyarrow as pa

    from ..functions.arrow import arrow_out
    from ..stages.joins import hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(
        sf_dir, "orders", ["o_custkey"],
        filter=pc.field("o_totalprice") > float(NO_BIG_ORDER_CUTOFF),
    ).map_batches(
        arrow_out(lambda b: b.rename(columns={"o_custkey": "c_custkey"})),
        batch_format="pandas",
    )
    return hash_join(
        cust, orders, on=["c_custkey"], how="anti",
        left_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_mktsegment", pa.string())]
        ),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    )


CUSTOMERS_NO_ORDERS_SQL = f"""
SELECT c_custkey, c_mktsegment FROM customer
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_totalprice > {NO_BIG_ORDER_CUTOFF})
"""


Q18_MIN_QTY = 250  # whole units; HAVING sum(l_quantity) > this (~top 1-2%)


def q18_big_orders(sf_dir: str):
    """TPC-H-q18-shaped "large-volume customers": HAVING over a grouped
    SUM, then two CHAINED partitioned hash joins (reference's
    join→groupby chains, ``clean_and_save.py:1039-1083``, composed the
    other way round: aggregate FIRST, join the survivors).

    Scale shape: per-orderkey quantity sums are combined map-side per
    batch, then the final per-key sum AND the HAVING filter run inside
    the orders⋈partials join buckets (``bucket_post`` — every row of a
    key lands in exactly one bucket, so the aggregate is exact and the
    HAVING costs NO extra exchange; a separate pre-aggregate exchange
    was measured ~1.6× slower).  Survivors (~1-2%% of orders) scale
    with the data, so the customer join stays a partitioned hash join,
    no broadcast; explicit Arrow schemas on every join side because
    ``ds.schema()`` on a chained lazy join re-executes the upstream
    shuffle (CLAUDE.md round-2 fact)."""
    import pyarrow as pa

    from ..stages.joins import hash_join

    thr_c = Q18_MIN_QTY * 100

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["l_quantity"].to_numpy() * 100).astype("int64")
        return (
            pd.DataFrame({"o_orderkey": b["l_orderkey"].astype("int64"), "qty_c": c})
            .groupby("o_orderkey", sort=False)
            .agg(qty_c=("qty_c", "sum"))
            .reset_index()
        )

    partials = li.map_batches(arrow_out(partial), batch_format="pandas")

    orders = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def having_post(m: pd.DataFrame) -> pd.DataFrame:
        # merge inflation is bounded by the number of batches an orderkey
        # spans (each contributes one partial row); re-sum then HAVING
        agg = (
            m.groupby(
                ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
                sort=False,
            )
            .agg(qty_c=("qty_c", "sum"))
            .reset_index()
        )
        return agg[agg["qty_c"] > thr_c]

    j1 = hash_join(
        orders, partials, on=["o_orderkey"], how="inner",
        bucket_post=having_post,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("o_orderdate", pa.timestamp("us")), ("o_totalprice", pa.float64())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("qty_c", pa.int64())]
        ),
    )

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"]).map_batches(
        arrow_out(lambda b: b.rename(columns={"c_custkey": "o_custkey"})),
        batch_format="pandas",
    )
    j2 = hash_join(
        j1, cust, on=["o_custkey"], how="inner",
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("o_orderdate", pa.timestamp("us")), ("o_totalprice", pa.float64()),
             ("qty_c", pa.int64())]
        ),
        right_schema=pa.schema(
            [("o_custkey", pa.int64()), ("c_name", pa.string())]
        ),
    )

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c_custkey": b["o_custkey"].astype("int64"),
             "c_name": pd.array(b["c_name"], "str"),
             "o_orderkey": b["o_orderkey"].astype("int64"),
             "o_orderdate": b["o_orderdate"],
             "o_totalprice": b["o_totalprice"].astype("float64"),
             "sum_qty": (b["qty_c"] / 100.0).astype("float64")}
        )

    return j2.map_batches(arrow_out(finalize), batch_format="pandas")


Q18_SQL = f"""
SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate, o.o_totalprice,
       SUM(CAST(round(l.l_quantity*100) AS BIGINT))/100.0 AS sum_qty
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON o.o_orderkey = l.l_orderkey
GROUP BY 1, 2, 3, 4, 5
HAVING SUM(CAST(round(l.l_quantity*100) AS BIGINT)) > {Q18_MIN_QTY * 100}
"""


WINSOR_LO, WINSOR_HI = 0.01, 0.99


def lineitem_winsorize(sf_dir: str):
    """Winsorization — clip a column at its exact global p01/p99, the
    standard robust-feature preparation before training.  Inherently
    two-pass: pass 1 finds the thresholds via the sort-free
    histogram-narrowing quantile stage (exchanges 4096-bin histograms,
    never rows); pass 2 is a pure vectorized clip.  The thresholds are
    ACTUAL data values (discrete quantiles) that round-trip losslessly
    through int cents, so the clip comparisons are float-exact against
    the SQL oracle."""
    from ..stages.quantiles import quantiles_disc_int

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")}
        )

    ints = li.map_batches(arrow_out(to_cents), batch_format="pandas")
    thr = quantiles_disc_int(ints, [WINSOR_LO, WINSOR_HI])
    lo, hi = (thr["value"] / 100.0).tolist()

    full = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_linenumber", "l_extendedprice"],
    )

    def clip(b: pd.DataFrame) -> pd.DataFrame:
        p = b["l_extendedprice"].astype("float64")
        return pd.DataFrame(
            {"l_orderkey": b["l_orderkey"].astype("int64"),
             "l_linenumber": b["l_linenumber"],  # keep source int32
             "l_extendedprice": p,
             "price_winsor": p.clip(lo, hi)}
        )

    return full.map_batches(arrow_out(clip), batch_format="pandas")


WINSORIZE_SQL = f"""
WITH t AS (
  SELECT quantile_disc(l_extendedprice, {WINSOR_LO}) AS lo,
         quantile_disc(l_extendedprice, {WINSOR_HI}) AS hi
  FROM lineitem
)
SELECT l_orderkey, l_linenumber, l_extendedprice,
       CASE WHEN l_extendedprice < lo THEN lo
            WHEN l_extendedprice > hi THEN hi
            ELSE l_extendedprice END AS price_winsor
FROM lineitem, t
"""


BLOOM_ACCTBAL = 9000


def orders_bloom_semi(sf_dir: str):
    """Orders of high-balance customers via the Bloom semi-join chain
    (`stages/bloom.py`): constant-size bitmap broadcast prefilters the
    probe stream vectorized, an exact partitioned semi join removes the
    false positives — the scale substitute for shipping exact key sets
    (J6) when the filter side has too many keys to broadcast.  Result is
    exact; the oracle is a plain EXISTS."""
    import pyarrow as pa

    from ..stages.bloom import bloom_semi_join

    filt = _read(
        sf_dir, "customer", columns=["c_custkey", "c_acctbal"],
        filter=pc.field("c_acctbal") > float(BLOOM_ACCTBAL),
    ).map_batches(
        arrow_out(
            lambda b: pd.DataFrame(
                {"o_custkey": b["c_custkey"].astype("int64")}
            )
        ),
        batch_format="pandas",
    )
    probe = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    return bloom_semi_join(
        probe, filt, "o_custkey",
        probe_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
    )


BLOOM_SEMI_SQL = f"""
SELECT o_orderkey, o_custkey FROM orders
WHERE EXISTS (SELECT 1 FROM customer
              WHERE c_custkey = o_custkey AND c_acctbal > {BLOOM_ACCTBAL})
"""


# -- Q6-ish: forecasting revenue change (pure pushdown filter + scalar) -------

Q6_FROM, Q6_TO = "1996-01-01", "1997-01-01"
Q6_DISC_LO, Q6_DISC_HI = 0.05, 0.07
Q6_QTY = 24


def q6_forecast_revenue(sf_dir: str) -> pd.DataFrame:
    """Single-scalar filtered sum (the TPC-H q6 shape, adapted to the
    testdata columns).  Everything that can prune, prunes AT THE READ:
    all four predicates push into the Parquet scan (row-group statistics
    skip non-matching groups before any byte leaves storage), the
    projection carries only the two revenue columns, and each batch
    collapses to ONE int64-cents row in the task that reads it, before
    the driver's fold — O(num_blocks) rows reach the driver regardless of
    corpus size.

    The discount bounds compare against the same stored doubles on both
    sides (numpy and DuckDB evaluate identical IEEE comparisons), so no
    epsilon is needed."""
    li = _read(
        sf_dir, "lineitem",
        columns=["l_extendedprice", "l_discount"],
        filter=(
            (pc.field("l_shipdate") >= pc.scalar(np.datetime64(Q6_FROM, "us")))
            & (pc.field("l_shipdate") < pc.scalar(np.datetime64(Q6_TO, "us")))
            & (pc.field("l_discount") >= Q6_DISC_LO)
            & (pc.field("l_discount") <= Q6_DISC_HI)
            & (pc.field("l_quantity") < float(Q6_QTY))
        ),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rev_c": np.rint(
            b["l_extendedprice"].to_numpy() * b["l_discount"].to_numpy() * 10_000
        ).astype("int64")})

    agg = fold_groups(li.map_batches(arrow_out(partial), batch_format="pandas"),
                      [], [("rev_c", "sum")])
    return pd.DataFrame({"revenue": agg["rev_c"] / 10_000.0})


Q6_SQL = f"""
SELECT SUM(CAST(round(l_extendedprice*l_discount*10000) AS BIGINT))/10000.0
         AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{Q6_FROM} 00:00:00'
  AND l_shipdate <  TIMESTAMP '{Q6_TO} 00:00:00'
  AND l_discount BETWEEN {Q6_DISC_LO} AND {Q6_DISC_HI}
  AND l_quantity < {Q6_QTY}
"""


# -- Q14-ish: promo revenue share (broadcast key-set membership ratio) --------

Q14_FROM, Q14_TO = "1997-01-01", "1997-04-01"
Q14_PROMO_TYPE = "PROMO"


def q14_promo_share(sf_dir: str) -> pd.DataFrame:
    """Share of revenue from promo parts (TPC-H q14 shape).  The join is
    MEMBERSHIP-ONLY — no part attribute survives into the output — so the
    part side collapses to a broadcast sorted-partkey array (a filtered
    dimension-KEY artifact, the q9 tradeoff) and lineitem resolves promo
    membership map-side via searchsorted; one scan, two int64-cent sums
    folded by ``fold_groups``, no exchange."""
    import ray

    def keys_only(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b["p_type"] == Q14_PROMO_TYPE, ["p_partkey"]]

    promo = (
        _read(sf_dir, "part", columns=["p_partkey", "p_type"])
        .map_batches(arrow_out(keys_only), batch_format="pandas")
        .to_pandas()["p_partkey"]
        .to_numpy()
    )
    promo_ref = ray.put(np.sort(promo))

    class PromoPartial:
        """Per-batch (promo_rev, total_rev) int64-cent sums; promo
        membership via the broadcast sorted key array (fetched once per
        worker process)."""

        def __init__(self, ref):
            self.ref = ref
            self.keys = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keys is None:
                self.keys = ray.get(self.ref)
            rev_c = np.rint(
                b["l_extendedprice"].to_numpy()
                * (1.0 - b["l_discount"].to_numpy()) * 10_000
            ).astype("int64")
            pk = b["l_partkey"].to_numpy()
            if len(self.keys):
                pos = np.clip(
                    np.searchsorted(self.keys, pk), 0, len(self.keys) - 1
                )
                is_promo = self.keys[pos] == pk
            else:
                is_promo = np.zeros(len(pk), dtype=bool)
            return pd.DataFrame(
                {"promo_c": np.where(is_promo, rev_c, 0), "total_c": rev_c}
            )

    li = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=(
            (pc.field("l_shipdate") >= pc.scalar(np.datetime64(Q14_FROM, "us")))
            & (pc.field("l_shipdate") < pc.scalar(np.datetime64(Q14_TO, "us")))
        ),
    )
    agg = fold_groups(
        li.map_batches(arrow_out(PromoPartial(promo_ref)), batch_format="pandas"),
        [], [("promo_c", "sum"), ("total_c", "sum")]).iloc[0]
    return pd.DataFrame(
        {"promo_revenue": [round(100.0 * int(agg["promo_c"])
                                 / int(agg["total_c"]), 6)]}
    )


Q14_SQL = f"""
SELECT round(
  100.0 * SUM(CASE WHEN p_type = '{Q14_PROMO_TYPE}'
      THEN CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)
      ELSE 0 END)
  / SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)), 6)
  AS promo_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '{Q14_FROM} 00:00:00'
  AND l_shipdate <  TIMESTAMP '{Q14_TO} 00:00:00'
"""


# -- Q10-ish: returned-item top customers (join chain + global top-k) ---------

Q10_FROM, Q10_TO = "1996-07-01", "1996-10-01"
Q10_K = 20


def q10_returned_customers(sf_dir: str, k: int = Q10_K) -> pd.DataFrame:
    """Top-k customers by returned-lineitem revenue in a quarter (TPC-H
    q10 shape).  Both fact tables stay distributed: lineitem pre-aggregates
    per-orderkey 'R' revenue inside map_batches (filter pushed to the
    scan), the date-filtered orders stream joins it through the bucketed
    hash join with the per-custkey partial fused into the buckets, and the
    per-customer sums — a customer-bounded census — fold on the driver,
    where they are sorted and cut to k.  Customer attributes are fetched
    LAST, a k-row keyed lookup (attributes of the winners only; never the
    customer table driver-side)."""
    import pyarrow as pa

    from ..stages.joins import hash_join

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey"],
        filter=(
            (pc.field("o_orderdate") >= pc.scalar(np.datetime64(Q10_FROM, "us")))
            & (pc.field("o_orderdate") < pc.scalar(np.datetime64(Q10_TO, "us")))
        ),
    )

    def partial_returned(b: pd.DataFrame) -> pd.DataFrame:
        rev_c = np.rint(
            b["l_extendedprice"].to_numpy()
            * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return (
            pd.DataFrame({"o_orderkey": b["l_orderkey"], "rev_c": rev_c})
            .groupby("o_orderkey", sort=False).agg(rev_c=("rev_c", "sum"))
            .reset_index()
        )

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pc.field("l_returnflag") == "R",
    ).map_batches(arrow_out(partial_returned), batch_format="pandas")

    def by_cust(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("o_custkey", sort=False).agg(rev_c=("rev_c", "sum"))
            .reset_index()
        )

    per_cust = hash_join(
        orders, li, on=["o_orderkey"], how="inner", num_buckets=32,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("rev_c", pa.int64())]
        ),
        bucket_post=by_cust,
    )
    top = (
        fold_groups(per_cust, ["o_custkey"], [("rev_c", "sum")])  # ≤ |customers|
        .sort_values(["rev_c", "o_custkey"], ascending=[False, True],
                     kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )

    keys = top["o_custkey"].tolist()
    cust = _read(
        sf_dir, "customer",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filter=pc.field("c_custkey").isin(keys),
    ).to_pandas()  # k rows — winners' attributes only
    nation = _read_dim(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    out = (
        top.merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    )
    return pd.DataFrame(
        {
            "c_custkey": out["c_custkey"].astype("int64"),
            "c_name": out["c_name"],
            "c_acctbal": out["c_acctbal"],
            "n_name": out["n_name"],
            "revenue": out["rev_c"].astype("int64") / 10_000.0,
        }
    ).sort_values("c_custkey").reset_index(drop=True)


Q10_SQL = f"""
SELECT c_custkey, c_name, c_acctbal, n_name,
       SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))/10000.0
         AS revenue
FROM customer
  JOIN orders   ON o_custkey = c_custkey
  JOIN lineitem ON l_orderkey = o_orderkey
  JOIN nation   ON n_nationkey = c_nationkey
WHERE o_orderdate >= TIMESTAMP '{Q10_FROM} 00:00:00'
  AND o_orderdate <  TIMESTAMP '{Q10_TO} 00:00:00'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue DESC, c_custkey
LIMIT {Q10_K}
"""


# -- Q7-ish: bi-nation shipping volume (composite-key join + year rollup) -----

Q7_N1, Q7_N2 = "NATION_12", "NATION_10"
Q7_FROM, Q7_TO = "1996-01-01", "1997-12-31"


def q7_nation_volume(sf_dir: str) -> pd.DataFrame:
    """Shipping volume between two nations per year (TPC-H q7 shape).
    The two dimension chains collapse to broadcast key artifacts filtered
    to the two nations (supplier→nationkey, customer→nationkey — the q5
    idiom); lineitem resolves its supplier nation MAP-SIDE and
    pre-aggregates per (orderkey, supp_nation, year) so the one
    large-large exchange — orders ⋈ lineitem partials — carries
    ~distinct-orderkey rows with the pair filter and per-group partial
    fused into the join buckets."""
    import pyarrow as pa
    import ray

    from ..stages.joins import hash_join

    nation = _read_dim(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    name_by_key = dict(zip(nation["n_nationkey"], nation["n_name"]))
    nkeys = set(
        nation.loc[nation["n_name"].isin([Q7_N1, Q7_N2]), "n_nationkey"]
    )

    def _key_nat(ds, key_col, nat_col):
        def filt(b: pd.DataFrame) -> pd.DataFrame:
            return b.loc[b[nat_col].isin(nkeys), [key_col, nat_col]]

        df = (
            ds.map_batches(arrow_out(filt), batch_format="pandas")
            .to_pandas().sort_values(key_col)
        )
        return df[key_col].to_numpy(), df[nat_col].to_numpy()

    supp_ref = ray.put(
        _key_nat(
            _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
            "s_suppkey", "s_nationkey",
        )
    )
    cust_ref = ray.put(
        _key_nat(
            _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
            "c_custkey", "c_nationkey",
        )
    )

    def _resolve(keys, nats, probe):
        """probe keys → (hit mask, nationkey per hit) via searchsorted."""
        if not len(keys):
            return np.zeros(len(probe), dtype=bool), np.array([], dtype=nats.dtype)
        pos = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
        hit = keys[pos] == probe
        return hit, nats[pos[hit]]

    class LiPartial:
        def __init__(self, ref):
            self.ref = ref
            self.state = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.state is None:
                self.state = ray.get(self.ref)
            keys, nats = self.state
            hit, supp_nat = _resolve(keys, nats, b["l_suppkey"].to_numpy())
            rev_c = np.rint(
                b["l_extendedprice"].to_numpy()[hit]
                * (1.0 - b["l_discount"].to_numpy()[hit]) * 10_000
            ).astype("int64")
            df = pd.DataFrame(
                {
                    "o_orderkey": b["l_orderkey"].to_numpy()[hit],
                    "supp_nat": supp_nat.astype("int32"),
                    "l_year": b["l_shipdate"].dt.year.to_numpy()[hit]
                    .astype("int64"),
                    "rev_c": rev_c,
                }
            )
            return (
                df.groupby(["o_orderkey", "supp_nat", "l_year"], sort=False)
                .agg(rev_c=("rev_c", "sum")).reset_index()
            )

    class OrdCustNat:
        def __init__(self, ref):
            self.ref = ref
            self.state = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.state is None:
                self.state = ray.get(self.ref)
            keys, nats = self.state
            hit, cust_nat = _resolve(keys, nats, b["o_custkey"].to_numpy())
            return pd.DataFrame(
                {
                    "o_orderkey": b["o_orderkey"].to_numpy()[hit],
                    "cust_nat": cust_nat.astype("int32"),
                }
            )

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=(
            (pc.field("l_shipdate") >= pc.scalar(np.datetime64(Q7_FROM, "us")))
            & (pc.field("l_shipdate") <= pc.scalar(np.datetime64(Q7_TO, "us")))
        ),
    ).map_batches(arrow_out(LiPartial(supp_ref)), batch_format="pandas")

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey"]
    ).map_batches(arrow_out(OrdCustNat(cust_ref)), batch_format="pandas")

    def pair_rollup(b: pd.DataFrame) -> pd.DataFrame:
        # keep only cross-nation pairs, partial-sum per (pair, year);
        # the handful of (nation, nation, year) keys span buckets, so a
        # tiny final groupby finishes the sum
        b = b.loc[b["supp_nat"] != b["cust_nat"]]
        return (
            b.groupby(["supp_nat", "cust_nat", "l_year"], sort=False)
            .agg(rev_c=("rev_c", "sum")).reset_index()
        )

    joined = hash_join(
        orders, li, on=["o_orderkey"], how="inner", num_buckets=32,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("cust_nat", pa.int32())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("supp_nat", pa.int32()),
             ("l_year", pa.int64()), ("rev_c", pa.int64())]
        ),
        bucket_post=pair_rollup,
    )
    agg = fold_groups(  # ≤ 2 pairs × years — bounded artifact
        joined, ["supp_nat", "cust_nat", "l_year"], [("rev_c", "sum")])
    return pd.DataFrame(
        {
            "supp_nation": agg["supp_nat"].map(name_by_key),
            "cust_nation": agg["cust_nat"].map(name_by_key),
            "l_year": agg["l_year"].astype("int64"),
            "revenue": agg["rev_c"].astype("int64") / 10_000.0,
        }
    ).sort_values(["supp_nation", "cust_nation", "l_year"]).reset_index(drop=True)


Q7_SQL = f"""
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))/10000.0
         AS revenue
FROM supplier
  JOIN lineitem ON s_suppkey = l_suppkey
  JOIN orders   ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation n1 ON s_nationkey = n1.n_nationkey
  JOIN nation n2 ON c_nationkey = n2.n_nationkey
WHERE ((n1.n_name = '{Q7_N1}' AND n2.n_name = '{Q7_N2}')
    OR (n1.n_name = '{Q7_N2}' AND n2.n_name = '{Q7_N1}'))
  AND l_shipdate >= TIMESTAMP '{Q7_FROM} 00:00:00'
  AND l_shipdate <= TIMESTAMP '{Q7_TO} 00:00:00'
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""


# -- cross-table integrity audit (data-quality checks) -------------------------

def tables_integrity(sf_dir: str) -> pd.DataFrame:
    """Constraint audit across the warehouse tables — the dbt-style test
    suite a pipeline runs before trusting an ingest: key uniqueness,
    referential integrity, and range constraints, each reported as a
    (check, violations) row.

    Execution shape: FOUR executions for six checks.  The two referenced
    key columns (customer.c_custkey, orders.o_orderkey) are collected
    once each — the broadcast artifact the FK checks need anyway (the
    q5 tradeoff; swap in `stages/bloom.py:bloom_semi_join(how='anti')`
    when a referenced key set outgrows worker memory) — and their
    uniqueness censuses ride those same arrays for free.  Each probe
    table then makes ONE pass computing its FK-orphan and range
    violations together (per-batch int partials, O(num_batches)
    exchange).  For a uniqueness check on a table whose keys are NOT
    otherwise collected, use the distinct-census combiner
    (`docs.token_histogram`'s shape) instead of collecting."""
    import ray

    def _key_array(table: str, key: str) -> np.ndarray:
        return _read(sf_dir, table, columns=[key]).to_pandas()[key].to_numpy()

    def _dups(keys: np.ndarray) -> int:
        """Rows carrying a duplicated key value (driver-side — the array
        is already collected for the FK broadcast)."""
        _u, counts = np.unique(keys, return_counts=True)
        return int(counts[counts > 1].sum())

    cust_keys = _key_array("customer", "c_custkey")
    order_keys = _key_array("orders", "o_orderkey")
    cust_ref = ray.put(np.sort(cust_keys))
    order_ref = ray.put(np.sort(order_keys))

    def _miss_count(keys: np.ndarray, probe: np.ndarray) -> int:
        if not len(keys):
            return len(probe)
        pos = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
        return int((keys[pos] != probe).sum())

    class OrdersChecks:
        def __init__(self):
            self.keys = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keys is None:
                self.keys = ray.get(cust_ref)
            return pd.DataFrame(
                {"fk": pd.array(
                    [_miss_count(self.keys, b["o_custkey"].to_numpy())], "int64"),
                 "rng": pd.array(
                    [int((b["o_totalprice"].to_numpy() < 0.0).sum())], "int64")}
            )

    class LineitemChecks:
        def __init__(self):
            self.keys = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keys is None:
                self.keys = ray.get(order_ref)
            return pd.DataFrame(
                {"fk": pd.array(
                    [_miss_count(self.keys, b["l_orderkey"].to_numpy())], "int64"),
                 "rng": pd.array(
                    [int((b["l_quantity"].to_numpy() <= 0.0).sum())], "int64")}
            )

    def _two(ds) -> tuple[int, int]:
        out = fold_groups(ds, [], [("fk", "sum"), ("rng", "sum")]).fillna(0)
        return (int(out["fk"].iloc[0]), int(out["rng"].iloc[0]))

    o_fk, o_rng = _two(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
        .map_batches(arrow_out(OrdersChecks()), batch_format="pandas")
    )
    l_fk, l_rng = _two(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
        .map_batches(arrow_out(LineitemChecks()), batch_format="pandas")
    )

    checks = [
        ("customer_custkey_unique", _dups(cust_keys)),
        ("orders_orderkey_unique", _dups(order_keys)),
        ("orders_custkey_fk", o_fk),
        ("lineitem_orderkey_fk", l_fk),
        ("lineitem_quantity_positive", l_rng),
        ("orders_totalprice_nonneg", o_rng),
    ]
    return pd.DataFrame(
        {"check": [c for c, _ in checks],
         "violations": pd.array([v for _, v in checks], "int64")}
    )


TABLES_INTEGRITY_SQL = """
SELECT 'customer_custkey_unique' AS "check",
       CAST(COALESCE(SUM(c), 0) AS BIGINT) AS violations
FROM (SELECT COUNT(*) AS c FROM customer GROUP BY c_custkey HAVING COUNT(*) > 1)
UNION ALL
SELECT 'orders_orderkey_unique',
       CAST(COALESCE(SUM(c), 0) AS BIGINT)
FROM (SELECT COUNT(*) AS c FROM orders GROUP BY o_orderkey HAVING COUNT(*) > 1)
UNION ALL
SELECT 'orders_custkey_fk', COUNT(*) FROM orders
WHERE NOT EXISTS (SELECT 1 FROM customer WHERE c_custkey = o_custkey)
UNION ALL
SELECT 'lineitem_orderkey_fk', COUNT(*) FROM lineitem
WHERE NOT EXISTS (SELECT 1 FROM orders WHERE o_orderkey = l_orderkey)
UNION ALL
SELECT 'lineitem_quantity_positive', COUNT(*) FROM lineitem WHERE l_quantity <= 0
UNION ALL
SELECT 'orders_totalprice_nonneg', COUNT(*) FROM orders WHERE o_totalprice < 0
"""


# -- monthly cumulative revenue (global ordered running total) -----------------

def orders_monthly_cumrev(sf_dir: str) -> pd.DataFrame:
    """Month → (revenue, cumulative revenue) over the whole order log —
    the global ordered running-total shape: the per-month census is a
    BOUNDED artifact (dozens of rows), so the distributed work is one
    int64-cent column per row folded by ``fold_groups``, and the cumsum
    is a driver-side prefix over the tiny sorted census (never a global
    sort of rows)."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # numpy month truncation keeps the µs unit (pandas to_period
        # round-trips through ns and would diverge from the oracle dtype)
        month = (
            b["o_orderdate"].to_numpy()
            .astype("datetime64[M]").astype("datetime64[us]")
        )
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"month": month, "c": c})

    agg = fold_groups(  # ≤ #months rows — bounded artifact
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["month"], [("c", "sum")])
    c = agg["c"].astype("int64")
    return pd.DataFrame(
        # explicit µs — Ray's to_pandas upcasts timestamps to ns, which
        # the driver's dtype-strict compare would flag vs the oracle
        {"month": agg["month"].to_numpy().astype("datetime64[us]"),
         "revenue": c / 100.0,
         "cum_revenue": c.cumsum() / 100.0}
    )


MONTHLY_CUMREV_SQL = """
WITH m AS (
  SELECT date_trunc('month', o_orderdate) AS month,
         SUM(CAST(round(o_totalprice*100) AS BIGINT)) AS c
  FROM orders GROUP BY 1
)
SELECT month, c/100.0 AS revenue,
       SUM(c) OVER (ORDER BY month ROWS UNBOUNDED PRECEDING)/100.0
         AS cum_revenue
FROM m ORDER BY month
"""


def orders_yoy(sf_dir: str) -> pd.DataFrame:
    """Year-over-year monthly revenue growth — the seasonal-compare
    sibling of ``orders_monthly_cumrev``: each month joins the month 12
    back; growth is the EXACT integer basis-point ratio
    ``rev·10⁴ // prev_rev`` (floor division is identical on both
    engines, so no float division is oracled).  Only months with a
    prior-year partner emit (inner-join semantics keep every column
    non-null int64).

    Shape: the distributed work is one int64-cent month column per row
    → a ≤#months ``fold_groups`` census; the self-join-12-back runs on
    the BOUNDED census driver-side (dozens of rows at any corpus
    size)."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        month = (
            b["o_orderdate"].to_numpy()
            .astype("datetime64[M]").astype("datetime64[us]")
        )
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"month": month, "c": c})

    agg = fold_groups(  # ≤ #months rows — bounded artifact
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["month"], [("c", "sum")])
    prev = agg.copy()
    prev["month"] = (
        prev["month"].to_numpy().astype("datetime64[M]") + 12
    ).astype("datetime64[us]")
    j = agg.merge(prev, on="month", suffixes=("", "_prev"))
    rev = j["c"].astype("int64")
    pv = j["c_prev"].astype("int64")
    return pd.DataFrame(
        {"month": j["month"].to_numpy().astype("datetime64[us]"),
         "rev_cents": rev,
         "prev_cents": pv,
         "growth_bp": (rev * 10000 // pv).astype("int64")}
    )


ORDERS_YOY_SQL = """
WITH m AS (
  SELECT date_trunc('month', o_orderdate) AS month,
         SUM(CAST(round(o_totalprice*100) AS BIGINT)) AS c
  FROM orders GROUP BY 1
)
SELECT a.month AS month, CAST(a.c AS BIGINT) AS rev_cents,
       CAST(b.c AS BIGINT) AS prev_cents,
       CAST(a.c * 10000 // b.c AS BIGINT) AS growth_bp
FROM m a JOIN m b ON b.month = a.month - INTERVAL 12 MONTH
"""


RFM_REF_US = 999_302_400_000_000  # 2001-09-01, fixed just past the window


def customers_rfm(sf_dir: str):
    """RFM segmentation — per customer the classic (Recency, Frequency,
    Monetary) triple plus GLOBAL quintile scores
    ``NTILE(5) OVER (ORDER BY dim, custkey)`` for each dimension: the
    marketing / training-data-curation scoring grid.

    Global (un-partitioned) NTILE is the hard part at scale — it needs
    a total order over ALL customers per dimension.  No sort operator:
    each dimension's value maps through a MONOTONE shift to an ordered
    range bucket (bucket order IS value order — the
    ``docs_global_shuffle`` idiom; shifts sized from the domain, or
    from ``tables_profile`` stats in production), pass 1 exchanges only
    per-(dim, range-bucket) counts (driver prefix-sums offsets), pass 2
    sorts within buckets and assigns ``tile`` from the global index via
    the SQL NTILE size contract (first n mod t tiles get ceil(n/t)).
    All three dimensions ride ONE melted exchange; a final custkey
    exchange pivots the scores back to one row per customer.

    Exactness: r_days = exact int µs floor-division; monetary is int64
    cents; ties break on custkey, so the output is total-ordered and
    parallelism-invariant."""
    import ray

    from ..stages.shuffle import bucketed_group_map

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate",
                                              "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        us = b["o_orderdate"].to_numpy().astype("datetime64[us]").view("int64")
        cents = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return (
            pd.DataFrame({"custkey": b["o_custkey"].astype("int64"),
                          "us": us, "cents": cents})
            .groupby("custkey", sort=False)
            .agg(us=("us", "max"), f=("us", "size"), m=("cents", "sum"))
            .reset_index()
        )

    # ONE hash exchange on custkey instead of the sort-aggregate
    # barrier (the supplier_gini/orders_abc rework; measured 2-3x)
    census = bucketed_group_map(
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["custkey"],
        lambda g: g.groupby("custkey", sort=False, as_index=False).agg(
            us=("us", "max"), f=("f", "sum"), m=("m", "sum")),
    )

    DAY_US = 86_400_000_000
    SHIFTS = {0: 6, 1: 0, 2: 20}  # r_days>>6, f as-is, m_cents>>20

    def melt(b: pd.DataFrame) -> pd.DataFrame:
        ck = b["custkey"].to_numpy("int64")
        r = (RFM_REF_US - b["us"].to_numpy("int64")) // DAY_US
        f = b["f"].to_numpy("int64")
        m = b["m"].to_numpy("int64")
        vals = np.concatenate([r, f, m])
        dims = np.repeat(np.arange(3, dtype="int64"), len(ck))
        shifts = np.repeat([SHIFTS[0], SHIFTS[1], SHIFTS[2]], len(ck))
        return pd.DataFrame(
            {"custkey": np.tile(ck, 3), "dim": dims, "val": vals,
             "vbucket": (vals >> shifts).astype("int64")}
        )

    melted = census.map_batches(
        arrow_out(melt), batch_format="pandas"
    ).materialize()  # two passes (counts, then ranks); customers-sized

    counts = fold_groups(  # ≤ dims × range-buckets rows
        melted.select_columns(["dim", "vbucket"]).map_batches(
            arrow_out(lambda b: b.assign(n=1)), batch_format="pandas"),
        ["dim", "vbucket"], [("n", "sum")]).set_index(["dim", "vbucket"])["n"]
    n_total = int(counts.loc[0].sum())  # customers (same for every dim)
    offsets = {}
    for dim in (0, 1, 2):
        per = counts.loc[dim].sort_index()
        off = per.cumsum().shift(fill_value=0)
        offsets.update({(dim, int(vb)): int(o) for vb, o in off.items()})
    off_ref = ray.put(offsets)

    TILES = 5
    q, rmod = divmod(n_total, TILES)
    big = rmod * (q + 1)

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        outs = []
        for (dim, vb), sub in g.groupby(["dim", "vbucket"], sort=False):
            s = sub.sort_values(["val", "custkey"], kind="mergesort")
            idx = off[(int(dim), int(vb))] + np.arange(len(s), dtype="int64")
            tile = np.where(
                idx < big,
                idx // max(q + 1, 1),
                rmod + (idx - big) // max(q, 1),
            ) + 1
            outs.append(pd.DataFrame(
                {"custkey": s["custkey"].astype("int64"),
                 "dim": np.int64(dim),
                 "val": s["val"].astype("int64"),
                 "tile": tile.astype("int64")}
            ))
        return pd.concat(outs, ignore_index=True)

    ranked = bucketed_group_map(melted, ["dim", "vbucket"], rank_bucket)

    def pivot_bucket(g: pd.DataFrame) -> pd.DataFrame:
        v = g.pivot_table(index="custkey", columns="dim", values="val",
                          aggfunc="first")
        t = g.pivot_table(index="custkey", columns="dim", values="tile",
                          aggfunc="first")
        return pd.DataFrame(
            {"custkey": pd.array(v.index.to_numpy(), "int64"),
             "r_days": pd.array(v[0].to_numpy(), "int64"),
             "f_cnt": pd.array(v[1].to_numpy(), "int64"),
             "m_cents": pd.array(v[2].to_numpy(), "int64"),
             "r_score": pd.array(t[0].to_numpy(), "int64"),
             "f_score": pd.array(t[1].to_numpy(), "int64"),
             "m_score": pd.array(t[2].to_numpy(), "int64")}
        )

    return bucketed_group_map(ranked, ["custkey"], pivot_bucket)


CUSTOMERS_RFM_SQL = f"""
WITH cust AS (
  SELECT o_custkey AS custkey,
         CAST(({RFM_REF_US} - epoch_us(MAX(o_orderdate))) // 86400000000
              AS BIGINT) AS r_days,
         COUNT(*) AS f_cnt,
         CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS m_cents
  FROM orders GROUP BY 1
)
SELECT custkey, r_days, f_cnt, m_cents,
       CAST(NTILE(5) OVER (ORDER BY r_days, custkey) AS BIGINT) AS r_score,
       CAST(NTILE(5) OVER (ORDER BY f_cnt, custkey) AS BIGINT) AS f_score,
       CAST(NTILE(5) OVER (ORDER BY m_cents, custkey) AS BIGINT) AS m_score
FROM cust
"""


# -- customers above 2x the average spend (global scalar -> filter) ------------

ABOVE_AVG_FACTOR = 2


def customers_above_avg(sf_dir: str):
    """Customers whose total spend exceeds 2× the all-customer average —
    the global-scalar-then-filter shape (a correlated subquery in SQL):
    pass 1 folds per-customer cent totals (a customer-bounded census);
    the average divides two already-global integers on the driver;
    pass 2 is a vectorized filter of the SAME per-customer aggregate."""
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"o_custkey": b["o_custkey"], "c": c})

    per_cust = fold_groups(  # ≤ |customers| rows
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["o_custkey"], [("c", "sum")])
    spend = per_cust["c"]
    cutoff = ABOVE_AVG_FACTOR * int(spend.sum()) / len(spend)  # ints divided once
    out = per_cust.loc[spend > cutoff]
    return pd.DataFrame(
        {"o_custkey": out["o_custkey"].astype("int64"),
         "total_spend": out["c"].astype("int64") / 100.0}
    ).reset_index(drop=True)


ABOVE_AVG_SQL = f"""
WITH per_cust AS (
  SELECT o_custkey, SUM(CAST(round(o_totalprice*100) AS BIGINT)) AS c
  FROM orders GROUP BY o_custkey
)
SELECT o_custkey, c/100.0 AS total_spend
FROM per_cust
WHERE c > {ABOVE_AVG_FACTOR} * (SELECT SUM(c) FROM per_cust)
          / (SELECT COUNT(*) FROM per_cust)
"""


# -- grouped moments (mean / stddev via mergeable integer partials) ------------

def lineitem_qty_stats(sf_dir: str):
    """Per-(returnflag, linestatus) quantity mean and sample stddev — the
    mergeable-moments shape (the (n, Σx, Σx²) triple is associative, so
    partials combine at any parallelism with NO precision drift: all
    three moments are EXACT int64 on the cent-scaled domain, and the
    float appears exactly once in the final formula).  x ≤ 50·100 cents
    ⇒ Σx² ≤ ~1.5e13 — well inside int64; for wide-domain columns scale
    down or use the histogram-quantile machinery instead."""
    li = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["l_quantity"].to_numpy() * 100).astype("int64")
        return pd.DataFrame(
            {"l_returnflag": b["l_returnflag"],
             "l_linestatus": b["l_linestatus"],
             "n": 1, "s1": c, "s2": c * c}
        )

    agg = fold_groups(  # ≤ |returnflag| × |linestatus| rows
        li.map_batches(arrow_out(partial), batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        [("n", "sum"), ("s1", "sum"), ("s2", "sum")])

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].astype("int64")
        # n·Σx² − (Σx)² overflows int64 once a group holds ~1e7 rows;
        # the final table is ≤ |flag|·|status| rows, so Python big ints
        # here are free and match DuckDB's HUGEINT arithmetic exactly
        var = [
            float((int(nn) * int(b) - int(a) * int(a)))
            / (int(nn) * (int(nn) - 1)) / 10_000.0
            for nn, a, b in zip(df["n"], df["s1"], df["s2"])
        ]
        mean = (df["s1"].astype("int64") / n / 100.0).round(6)
        return pd.DataFrame(
            {"l_returnflag": df["l_returnflag"],
             "l_linestatus": df["l_linestatus"],
             "n": n,
             "avg_qty": mean,
             "stddev_qty": np.round(np.sqrt(np.asarray(var)), 6)}
        )

    return finalize(agg)


QTY_STATS_SQL = """
SELECT l_returnflag, l_linestatus, COUNT(*) AS n,
       round(SUM(CAST(round(l_quantity*100) AS BIGINT))/COUNT(*)/100.0, 6)
         AS avg_qty,
       round(sqrt(
         (COUNT(*)*SUM(CAST(round(l_quantity*100) AS BIGINT)
                       * CAST(round(l_quantity*100) AS BIGINT))
          - SUM(CAST(round(l_quantity*100) AS BIGINT))
            * SUM(CAST(round(l_quantity*100) AS BIGINT)))
         / (COUNT(*)*(COUNT(*)-1)) / 10000.0), 6) AS stddev_qty
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


def lineitem_regression(sf_dir: str):
    """Per-returnflag OLS regression of extendedprice on quantity plus
    the Pearson correlation — the mergeable-sufficient-statistics shape
    every distributed ML-ish aggregate reduces to: the six moments
    (n, Σx, Σy, Σx², Σxy, Σy²) are associative, so batch partials
    combine at any parallelism with zero precision drift.

    Exactness at ANY scale: x is the integral quantity, y is exact
    cents; Σxy and Σy² outgrow int64 around 1e10 rows per group, so the
    wide moments travel as TWO int64 limbs (lo = s mod 10¹⁵,
    hi = s div 10¹⁵ — Python big-int split in the bounded partial
    frame); the driver reassembles exact integers and the oracle's
    HUGEINT SUM matches them digit-for-digit.  Floats appear only in
    the final ≤|flags|-row formula, mirrored term-for-term in the SQL
    (cast-to-double of identical integers, same operation order; 6-dp
    round absorbs the cast ulp).  ``batch_size`` bounds the in-batch
    int64 groupby sums (16384 · y²_max ≈ 1.8e18 < 2^63)."""
    li = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    LIMB = 10 ** 15
    sums = [(c, "sum") for c in ("n", "sx", "sxx", "sy", "sxy", "syy")]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        y = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        g = group_frame(pd.DataFrame(
            {"l_returnflag": b["l_returnflag"], "n": 1,
             "sx": x, "sxx": x * x, "sy": y, "sxy": x * y, "syy": y * y}
        ), ["l_returnflag"], sums)
        for c in ("sy", "sxy", "syy"):
            vals = [int(v) for v in g[c]]
            g[f"{c}_lo"] = pd.array([v % LIMB for v in vals], "int64")
            g[f"{c}_hi"] = pd.array([v // LIMB for v in vals], "int64")
        return g.drop(columns=["sy", "sxy", "syy"])

    agg = fold_groups(  # ≤ |returnflag| rows
        li.map_batches(arrow_out(partial), batch_format="pandas",
                       batch_size=16384),
        ["l_returnflag"],
        [(c, "sum") for c in ("n", "sx", "sxx", "sy_lo", "sy_hi", "sxy_lo",
                              "sxy_hi", "syy_lo", "syy_hi")])

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for r in df.itertuples(index=False):
            n, sx, sxx = int(r.n), int(r.sx), int(r.sxx)
            sy = int(r.sy_hi) * LIMB + int(r.sy_lo)
            sxy = int(r.sxy_hi) * LIMB + int(r.sxy_lo)
            syy = int(r.syy_hi) * LIMB + int(r.syy_lo)
            num = n * sxy - sx * sy
            den = n * sxx - sx * sx
            deny = n * syy - sy * sy
            if n <= 1 or den <= 0 or deny <= 0:
                continue
            slope = float(num) / float(den)
            rows.append(
                {"l_returnflag": r.l_returnflag, "n": n,
                 "slope": round(slope / 100.0, 6),
                 "intercept": round(
                     (float(sy) / float(n) - slope * (float(sx) / float(n)))
                     / 100.0, 6),
                 "corr": round(
                     float(num) / math.sqrt(float(den) * float(deny)), 6)}
            )
        out = pd.DataFrame(
            rows, columns=["l_returnflag", "n", "slope", "intercept", "corr"]
        )
        return pd.DataFrame(
            {"l_returnflag": out["l_returnflag"].astype(str),
             "n": out["n"].astype("int64"),
             "slope": out["slope"].astype("float64"),
             "intercept": out["intercept"].astype("float64"),
             "corr": out["corr"].astype("float64")}
        )

    return finalize(agg)


LINEITEM_REGRESSION_SQL = """
WITH m AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS HUGEINT) AS n,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS HUGEINT) AS sx,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)) AS HUGEINT) AS sxx,
         CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS HUGEINT)
           AS sy,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_extendedprice*100) AS BIGINT)) AS HUGEINT)
           AS sxy,
         CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                  * CAST(round(l_extendedprice*100) AS BIGINT)) AS HUGEINT)
           AS syy
  FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag, CAST(n AS BIGINT) AS n,
       round(CAST(n*sxy - sx*sy AS DOUBLE)
             / CAST(n*sxx - sx*sx AS DOUBLE) / 100.0, 6) AS slope,
       round((CAST(sy AS DOUBLE) / CAST(n AS DOUBLE)
              - (CAST(n*sxy - sx*sy AS DOUBLE)
                 / CAST(n*sxx - sx*sx AS DOUBLE))
                * (CAST(sx AS DOUBLE) / CAST(n AS DOUBLE))) / 100.0, 6)
         AS intercept,
       round(CAST(n*sxy - sx*sy AS DOUBLE)
             / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                    * CAST(n*syy - sy*sy AS DOUBLE)), 6) AS corr
FROM m
WHERE n > 1 AND n*sxx - sx*sx > 0 AND n*syy - sy*sy > 0
"""


NEYMAN_TARGET = 2000  # total sample budget across all strata


def lineitem_neyman(sf_dir: str):
    """Variance-optimal (Neyman-allocation) stratified sampling — the
    survey-sampling upgrade of proportional stratification: stratum h
    gets sampling rate ∝ its stddev, so a fixed sample budget minimizes
    the estimator variance.  Two streaming passes over lineitem, strata
    = l_returnflag:

    pass 1 — exact int64 moment partials (n, Σx, Σx²) per stratum (the
    ``lineitem_qty_stats`` combiner shape), folded to |strata| rows;
    pass 2 — broadcast the integer rates, accept rows by content hash,
    and fold a per-stratum census of the sample.

    Determinism contract (the reason this oracles): the ONLY float ops
    are one IEEE division of two exact integers and one IEEE sqrt (both
    correctly rounded, bit-identical across numpy and DuckDB), pinned to
    an integer immediately — s_micro = ⌊σ̂·10⁶ + 0.5⌋ — after which the
    rate is pure integer arithmetic: rate_ppm = min(10⁶,
    (10⁶·T·s_micro) // Σ n·s_micro).  Acceptance is md5_64 % 10⁶ <
    rate_ppm on the (flag, orderkey, linenumber) content key — the
    engine's sampling idiom, reproducible at any parallelism."""
    import math

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from ..functions.hashing import md5_int_vec

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_orderkey", "l_linenumber",
                        "l_quantity"])

    def moment_partial(b: pd.DataFrame) -> pd.DataFrame:
        q = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        return pd.DataFrame({"l_returnflag": b["l_returnflag"], "n": 1,
                             "s1": q, "s2": q * q})

    m = fold_groups(  # |strata| rows
        li.map_batches(arrow_out(moment_partial), batch_format="pandas"),
        ["l_returnflag"], [("n", "sum"), ("s1", "sum"), ("s2", "sum")])
    s_micro: dict[str, int] = {}
    n_rows: dict[str, int] = {}
    for flag, n, s1, s2 in m[["l_returnflag", "n", "s1", "s2"]].itertuples(
            index=False):
        n, s1, s2 = int(n), int(s1), int(s2)
        n_rows[str(flag)] = n
        if n < 2:
            s_micro[str(flag)] = 0
            continue
        var = float(n * s2 - s1 * s1) / float(n * (n - 1))
        s_micro[str(flag)] = int(math.floor(math.sqrt(var) * 1_000_000
                                            + 0.5))
    w = sum(n_rows[f] * s_micro[f] for f in s_micro)
    rate_ppm = {f: min(1_000_000,
                       (1_000_000 * NEYMAN_TARGET * s_micro[f]) // w)
                for f in s_micro}
    r_ref = ray.put(rate_ppm)

    def sample_partial(b: pd.DataFrame) -> pd.DataFrame:
        rates = ray.get(r_ref)
        msg = pc.binary_join_element_wise(
            pa.array(b["l_returnflag"], pa.string()),
            pc.cast(pa.array(b["l_orderkey"].to_numpy("int64")),
                    pa.string()),
            pc.cast(pa.array(b["l_linenumber"].to_numpy("int64")),
                    pa.string()),
            pa.scalar("|"),
        )
        h = md5_int_vec(msg, bits=64) % np.uint64(1_000_000)
        lim = b["l_returnflag"].map(rates).to_numpy("uint64")
        keep = h < lim
        q = np.rint(b["l_quantity"].to_numpy()).astype("int64")[keep]
        return pd.DataFrame({"l_returnflag": b["l_returnflag"][keep],
                             "n_sampled": 1, "qty_sum": q})

    cen = fold_groups(
        li.map_batches(arrow_out(sample_partial), batch_format="pandas"),
        ["l_returnflag"], [("n_sampled", "sum"), ("qty_sum", "sum")])
    cen = cen[cen["n_sampled"].to_numpy() > 0]
    flags = cen["l_returnflag"].astype(str)
    out = pd.DataFrame(
        {"l_returnflag": pd.array(flags, "str"),
         "n_rows": pd.array([n_rows[f] for f in flags], "int64"),
         "rate_ppm": pd.array([rate_ppm[f] for f in flags], "int64"),
         "n_sampled": cen["n_sampled"].astype("int64").to_numpy(),
         "qty_sum": cen["qty_sum"].astype("int64").to_numpy()}
    )
    return (out.sort_values("l_returnflag", kind="mergesort")
            .reset_index(drop=True))


LINEITEM_NEYMAN_SQL = f"""
WITH m AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS HUGEINT) AS n,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS HUGEINT) AS sx,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)) AS HUGEINT) AS sxx
  FROM lineitem GROUP BY 1
),
a AS (
  SELECT l_returnflag, n,
         CASE WHEN n < 2 THEN 0 ELSE
           CAST(floor(sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                           / CAST(n*(n-1) AS DOUBLE)) * 1000000 + 0.5)
                AS BIGINT) END AS s_micro
  FROM m
),
r AS (
  SELECT l_returnflag, CAST(n AS BIGINT) AS n_rows,
         CAST(LEAST(1000000,
              (1000000 * {NEYMAN_TARGET} * CAST(s_micro AS HUGEINT))
              // (SELECT SUM(n * s_micro) FROM a)) AS BIGINT) AS rate_ppm
  FROM a
)
SELECT r.l_returnflag, r.n_rows, r.rate_ppm,
       CAST(COUNT(*) AS BIGINT) AS n_sampled,
       CAST(SUM(CAST(round(l.l_quantity) AS BIGINT)) AS BIGINT) AS qty_sum
FROM r JOIN lineitem l ON l.l_returnflag = r.l_returnflag
WHERE ('0x' || substr(md5(l.l_returnflag || '|' || l.l_orderkey || '|' ||
                          l.l_linenumber), 1, 16))::UBIGINT % 1000000
      < r.rate_ppm
GROUP BY 1, 2, 3
"""


PROFILE_SPECS: list[tuple[str, dict[str, str]]] = [
    ("orders", {
        "o_orderkey": "num", "o_custkey": "num", "o_orderstatus": "str",
        "o_totalprice": "num", "o_orderdate": "ts", "o_orderpriority": "str",
    }),
    ("lineitem", {
        "l_orderkey": "num", "l_partkey": "num", "l_suppkey": "num",
        "l_linenumber": "num", "l_quantity": "num", "l_extendedprice": "num",
        "l_discount": "num", "l_tax": "num", "l_returnflag": "str",
        "l_linestatus": "str", "l_shipdate": "ts",
    }),
    ("documents", {
        "doc_id": "num", "lang": "str", "source": "str", "n_chars": "num",
    }),
    ("events", {
        "event_id": "num", "user_id": "num", "event_type": "str",
        "value": "num", "ts": "ts", "props": "str",
    }),
]


def tables_profile(sf_dir: str) -> pd.DataFrame:
    """ANALYZE over four tables at once — per column: rows, nulls, EXACT
    distinct, typed min/max, string byte volume.  All 27 columns of all
    four tables ride ONE hash exchange (per-batch value-census combiner;
    see ``stages/profile.py`` for the full shape + exactness contracts)."""
    from ..stages.profile import profile_datasets

    specs = [
        (tbl, _read(sf_dir, tbl, columns=list(kinds)), kinds)
        for tbl, kinds in PROFILE_SPECS
    ]
    return profile_datasets(specs)


def tables_profile_sql() -> str:
    from ..stages.profile import profile_sql

    return profile_sql(PROFILE_SPECS)


SKEW_SPECS: list[tuple[str, list[str]]] = [
    ("orders", ["o_custkey"]),
    ("lineitem", ["l_orderkey", "l_partkey", "l_suppkey"]),
    ("events", ["user_id", "event_type"]),
    ("documents", ["source"]),
]


KEY_SPECS: list[tuple[str, list[list[str]]]] = [
    ("orders", [["o_orderkey"], ["o_custkey", "o_orderdate"]]),
    ("lineitem", [["l_orderkey"], ["l_orderkey", "l_linenumber"],
                  ["l_partkey", "l_suppkey"]]),
    ("events", [["event_id"], ["user_id", "ts"]]),
    ("documents", [["doc_id"], ["source", "n_chars"]]),
]


KEY_HLL_EPS = 0.05   # screen margin ≈ 6σ of the P=14 sketch's 0.81% SE


def tables_key_discovery(sf_dir: str) -> pd.DataFrame:
    """Candidate-KEY discovery via the SKETCH LADDER — the uniqueness
    complement of ``tables_fd_discovery`` (reference schema audit:
    primary keys are never declared in a lake, they're discovered).

    Two passes, both bounded:

    1. HLL screen — ONE pruned read per table; every batch emits one
       16 KiB register row PER CANDIDATE (row-tuple hashes via
       ``hash_pandas_object``, no value strings ever built), folded to
       |cands| rows by a tiny groupby merge.  A candidate whose estimate
       falls below ``(1-KEY_HLL_EPS)·n_rows`` is decided NON-key
       outright — no value of a clear non-key ever crosses an exchange.
    2. Exact confirm — survivors only: ONE read per surviving table;
       per batch per survivor the candidate columns are deduped and
       shipped as native int64 limbs (ints/datetimes verbatim, string
       columns joined on the 0x1f unit separator — injective for
       id-typed columns), ALL survivors sharing ONE bucketed exchange;
       value-complete buckets ⇒ in-bucket unique tuples partition the
       global distinct set, so ``is_key`` is EXACT for every survivor.

    Exact-fallback bound: ``KEY_HLL_EPS = 0.05`` ≈ 6σ of the P=14
    sketch's 1.04/√2¹⁴ ≈ 0.81% standard error — a true key reaches the
    exact pass unless its (deterministic, data-fixed) HLL estimate reads
    ≥6σ low.  Row counts come from parquet footers (zero scan).  The
    output is (table, cols, n_rows, is_key): pruned non-keys carry no
    exact distinct count by design, so no count column is emitted."""
    import pyarrow.parquet as pq

    from ..stages.shuffle import bucketed_group_map
    from ..stages.sketches import hll_estimate, hll_merge, hll_regs_from_hashes

    cands: list[tuple[int, str, list[str]]] = []
    by_table: dict[str, list[tuple[int, list[str]]]] = {}
    for tbl, sets in KEY_SPECS:
        for cols in sets:
            by_table.setdefault(tbl, []).append((len(cands), cols))
            cands.append((len(cands), tbl, cols))

    n_rows = {tbl: pq.ParquetFile(f"{sf_dir}/{tbl}.parquet").metadata.num_rows
              for tbl, _ in KEY_SPECS}

    # ---- pass 1: one read per table, one HLL sketch row per candidate
    def sketch_fn(tbl_cands: list[tuple[int, list[str]]]):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            ids, regs = [], []
            for cand_id, cols in tbl_cands:
                h = pd.util.hash_pandas_object(
                    b[cols], index=False).to_numpy()
                ids.append(cand_id)
                regs.append(hll_regs_from_hashes(h).tobytes())
            return pd.DataFrame({"cand": pd.array(ids, "int64"),
                                 "regs": regs})
        return fn

    parts = None
    for tbl, tbl_cands in by_table.items():
        need = sorted({c for _, cols in tbl_cands for c in cols})
        ds = _read(sf_dir, tbl, columns=need).map_batches(
            arrow_out(sketch_fn(tbl_cands)), batch_format="pandas")
        parts = ds if parts is None else parts.union(ds)

    # Coalesce sketch rows with a narrow map (no sort barrier): each
    # merge-batch folds its rows to ≤|cands| rows, so the driver sees
    # O(|cands| · #merge-batches) 16 KiB rows regardless of data size.
    def coalesce(g: pd.DataFrame) -> pd.DataFrame:
        ids, regs = [], []
        for cid, sub in g.groupby("cand", sort=False):
            ids.append(int(cid))
            regs.append(hll_merge(sub).tobytes())
        return pd.DataFrame({"cand": pd.array(ids, "int64"), "regs": regs})

    folded = parts.map_batches(arrow_out(coalesce), batch_format="pandas",
                               batch_size=4096).to_pandas()
    est = {int(cid): hll_estimate(hll_merge(sub))
           for cid, sub in folded.groupby("cand")}

    survivors = [
        (cand_id, tbl, cols) for cand_id, tbl, cols in cands
        if est.get(cand_id, 0) >= (1.0 - KEY_HLL_EPS) * n_rows[tbl]
    ]

    # ---- pass 2: exact confirm for survivors, one shared exchange
    nd = pd.Series(dtype="int64")
    if survivors:
        surv_by_table: dict[str, list[tuple[int, list[str]]]] = {}
        for cand_id, tbl, cols in survivors:
            surv_by_table.setdefault(tbl, []).append((cand_id, cols))
        int_limbs = [f"i{j}" for j in range(
            max(len(cols) for _, _, cols in survivors))]

        # The string limb exists only when a surviving candidate has a
        # non-integer column (footer schema decides — deterministic,
        # zero scan).  Numeric/temporal columns ship as int64 verbatim.
        import pyarrow as pa

        def _intable(t: "pa.DataType") -> bool:
            return (pa.types.is_integer(t) or pa.types.is_boolean(t)
                    or pa.types.is_date(t) or pa.types.is_timestamp(t))

        has_str = False
        for tbl, tbl_cands in surv_by_table.items():
            sch = pq.ParquetFile(f"{sf_dir}/{tbl}.parquet").schema_arrow
            for _, cols in tbl_cands:
                if any(not _intable(sch.field(c).type) for c in cols):
                    has_str = True

        def limb_fn(tbl_cands: list[tuple[int, list[str]]]):
            def fn(b: pd.DataFrame) -> pd.DataFrame:
                frames = []
                for cand_id, cols in tbl_cands:
                    u = b[cols].drop_duplicates()
                    out = {"cand": pd.array([cand_id] * len(u), "int64")}
                    k, strs = 0, None
                    for c in cols:
                        s = u[c]
                        if pd.api.types.is_datetime64_any_dtype(s):
                            out[int_limbs[k]] = s.to_numpy().view("int64")
                            k += 1
                        elif pd.api.types.is_integer_dtype(s) or \
                                pd.api.types.is_bool_dtype(s):
                            out[int_limbs[k]] = s.to_numpy().astype("int64")
                            k += 1
                        else:
                            sv = s.astype(str)
                            strs = sv if strs is None else strs + "\x1f" + sv
                    for j in range(k, len(int_limbs)):
                        out[int_limbs[j]] = np.zeros(len(u), "int64")
                    if has_str:
                        out["s"] = (strs.to_numpy().astype(str)
                                    if strs is not None
                                    else np.full(len(u), "", dtype=object))
                    frames.append(pd.DataFrame(out))
                res = pd.concat(frames, ignore_index=True)
                if has_str:
                    res["s"] = res["s"].astype(str)
                return res
            return fn

        sparts = None
        for tbl, tbl_cands in surv_by_table.items():
            need = sorted({c for _, cols in tbl_cands for c in cols})
            ds = _read(sf_dir, tbl, columns=need).map_batches(
                arrow_out(limb_fn(tbl_cands)), batch_format="pandas")
            sparts = ds if sparts is None else sparts.union(ds)

        key_cols = ["cand"] + int_limbs + (["s"] if has_str else [])

        def bucket(g: pd.DataFrame) -> pd.DataFrame:
            u = g[key_cols].drop_duplicates()
            return pd.DataFrame({"cand": u["cand"].astype("int64"), "nd": 1})

        nd = fold_groups(  # one row per candidate
            bucketed_group_map(sparts, key_cols, bucket), ["cand"],
            [("nd", "sum")]).set_index("cand")["nd"]

    surv_ids = {cand_id for cand_id, _, _ in survivors}
    rows = []
    for cand_id, tbl, cols in cands:
        n = int(n_rows[tbl])
        if cand_id in surv_ids:
            is_key = int(int(nd.get(cand_id, 0)) == n)
        else:
            is_key = 0
        rows.append((tbl, ",".join(cols), n, is_key))
    return pd.DataFrame(rows, columns=["table_name", "cols", "n_rows",
                                       "is_key"]).astype(
        {"table_name": "str", "cols": "str", "n_rows": "int64",
         "is_key": "int64"})


def tables_key_discovery_sql() -> str:
    parts = []
    for tbl, sets in KEY_SPECS:
        for cols in sets:
            expr = (cols[0] if len(cols) == 1
                    else "(" + ", ".join(cols) + ")")
            parts.append(
                f"SELECT '{tbl}' AS table_name, '{','.join(cols)}' AS cols,\n"
                f"       (SELECT CAST(COUNT(*) AS BIGINT) FROM {tbl})"
                f" AS n_rows,\n"
                f"       CAST(CASE WHEN COUNT(DISTINCT {expr}) ="
                f" (SELECT COUNT(*) FROM {tbl}) THEN 1 ELSE 0 END"
                f" AS BIGINT) AS is_key\n"
                f"FROM {tbl}"
            )
    return "\nUNION ALL\n".join(parts)


def tables_skew_report(sf_dir: str) -> pd.DataFrame:
    """Heavy-key mining over the join/group key columns the production
    pipelines exchange on — the diagnostics feed for
    ``hash_join(skew="auto")``: top-5 hottest values per column with
    exact counts and integer basis-point shares (see
    ``stages/profile.py:skew_report`` for the one-exchange shape)."""
    from ..stages.profile import skew_report

    specs = [
        (tbl, _read(sf_dir, tbl, columns=cols), cols)
        for tbl, cols in SKEW_SPECS
    ]
    return skew_report(specs)


def tables_skew_report_sql() -> str:
    from ..stages.profile import skew_report_sql

    return skew_report_sql(SKEW_SPECS)


def lineitem_spearman(sf_dir: str) -> pd.DataFrame:
    """EXACT Spearman rank correlation between quantity and discount —
    the rank-based sibling of ``lineitem_regression``'s Pearson: ties
    take fractional (average) ranks, carried as the INTEGER ``2·rank``
    (2·#smaller + #equal + 1), so every moment is exact int math.

    Distributed shape — the joint-value CENSUS is the whole trick: both
    columns have small discrete domains (quantity 1–50, discount 0–10%),
    so a per-batch (x, y)-count combiner collapses the table to ≤ |X|·|Y|
    cells before ONE driver fold; ranks, moments and ρ are
    driver-side exact-integer math on the census (for continuous columns
    you'd bin first or rank via the range-bucketed global-order path of
    ``docs_global_shuffle``).

    Float contract: moments travel as two int64 limbs (the
    ``lineitem_regression`` past-int64 contract) and ρ is emitted as the
    integer micro-unit ``floor(ρ·10⁶ + 0.5)`` of a term-for-term mirrored
    double expression — ``floor`` has no half-even/half-away divergence,
    so the oracle matches bit-for-bit."""
    import math

    li = _read(sf_dir, "lineitem", columns=["l_quantity", "l_discount"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        y = np.rint(b["l_discount"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"x": x, "y": y, "c": 1})

    cells = fold_groups(
        li.map_batches(arrow_out(partial), batch_format="pandas"),
        ["x", "y"], [("c", "sum")])

    def rank2(marginal: pd.Series) -> dict[int, int]:
        m = marginal.sort_index()
        before = m.cumsum() - m
        return {int(v): 2 * int(b) + int(c) + 1
                for v, b, c in zip(m.index, before, m)}

    r2x = rank2(cells.groupby("x")["c"].sum())
    r2y = rank2(cells.groupby("y")["c"].sum())
    n = sxx = syy = sxy = sx = sy = 0
    for r in cells.itertuples(index=False):
        c, rx, ry = int(r.c), r2x[int(r.x)], r2y[int(r.y)]
        n += c
        sx += c * rx
        sy += c * ry
        sxx += c * rx * rx
        syy += c * ry * ry
        sxy += c * rx * ry
    denx, deny = n * sxx - sx * sx, n * syy - sy * sy
    rows = []
    if n > 1 and denx > 0 and deny > 0:
        rho = (
            float(n * sxy - sx * sy)
            / math.sqrt(float(denx) * float(deny))
        )
        LIMB = 10 ** 15
        rows.append(
            {"n": n,
             "sxx_lo": sxx % LIMB, "sxx_hi": sxx // LIMB,
             "syy_lo": syy % LIMB, "syy_hi": syy // LIMB,
             "sxy_lo": sxy % LIMB, "sxy_hi": sxy // LIMB,
             "rho_micro": int(math.floor(rho * 1000000.0 + 0.5))}
        )
    cols = ["n", "sxx_lo", "sxx_hi", "syy_lo", "syy_hi",
            "sxy_lo", "sxy_hi", "rho_micro"]
    return pd.DataFrame(rows, columns=cols).astype("int64")


LINEITEM_SPEARMAN_SQL = """
WITH pts AS (
  SELECT CAST(round(l_quantity) AS BIGINT) AS x,
         CAST(round(l_discount * 100) AS BIGINT) AS y
  FROM lineitem
), cells AS (
  SELECT x, y, CAST(COUNT(*) AS BIGINT) AS c FROM pts GROUP BY x, y
), mx AS (
  SELECT x, SUM(c) AS cx FROM cells GROUP BY x
), rx AS (
  SELECT x, 2 * (SUM(cx) OVER (ORDER BY x) - cx) + cx + 1 AS r2x FROM mx
), my AS (
  SELECT y, SUM(c) AS cy FROM cells GROUP BY y
), ry AS (
  SELECT y, 2 * (SUM(cy) OVER (ORDER BY y) - cy) + cy + 1 AS r2y FROM my
), j AS (
  SELECT c, r2x, r2y FROM cells JOIN rx USING (x) JOIN ry USING (y)
), m AS (
  SELECT CAST(SUM(c) AS HUGEINT) AS n,
         CAST(SUM(c * r2x) AS HUGEINT) AS sx,
         CAST(SUM(c * r2y) AS HUGEINT) AS sy,
         CAST(SUM(c * r2x * r2x) AS HUGEINT) AS sxx,
         CAST(SUM(c * r2y * r2y) AS HUGEINT) AS syy,
         CAST(SUM(c * r2x * r2y) AS HUGEINT) AS sxy
  FROM j
)
SELECT CAST(n AS BIGINT) AS n,
       CAST(sxx % 1000000000000000 AS BIGINT) AS sxx_lo,
       CAST(sxx // 1000000000000000 AS BIGINT) AS sxx_hi,
       CAST(syy % 1000000000000000 AS BIGINT) AS syy_lo,
       CAST(syy // 1000000000000000 AS BIGINT) AS syy_hi,
       CAST(sxy % 1000000000000000 AS BIGINT) AS sxy_lo,
       CAST(sxy // 1000000000000000 AS BIGINT) AS sxy_hi,
       CAST(floor(CAST(n * sxy - sx * sy AS DOUBLE)
                  / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                         * CAST(n * syy - sy * sy AS DOUBLE))
                  * 1000000.0 + 0.5) AS BIGINT) AS rho_micro
FROM m
WHERE n > 1 AND n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
"""


def lineitem_mad(sf_dir: str) -> pd.DataFrame:
    """Robust dispersion: median, MAD (median absolute deviation) and
    the robust-z outlier census of l_extendedprice — the
    outlier-resistant sibling of ``lineitem_qty_stats`` (one wild value
    moves a mean/stddev fence arbitrarily; the MAD fence doesn't move).

    Three shuffle-free passes, all on exact int64 cents: (1) the
    histogram-narrowed exact median (``stages/quantiles.py`` — shared
    stats pass, no sort); (2) the same machinery on |x − median|;
    (3) a filtered count with the INTEGER fence ``dev·10⁴ > 44478·mad``
    (3·1.4826 ≈ 4.4478 scaled to ×10⁴ — both engines compare identical
    integers, no float fence).  Output is one row; floats only in the
    final cents→dollars descale."""
    from ..stages.quantiles import quantiles_disc_int

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")}
        )

    ints = li.map_batches(arrow_out(to_cents), batch_format="pandas")
    med = int(quantiles_disc_int(ints, [0.5])["value"].iloc[0])

    def to_dev(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": np.abs(b["v"].to_numpy() - med)})

    devs = ints.map_batches(arrow_out(to_dev), batch_format="pandas")
    mad = int(quantiles_disc_int(devs, [0.5])["value"].iloc[0])

    def flag_outliers(b: pd.DataFrame) -> pd.DataFrame:
        dev = np.abs(b["v"].to_numpy() - med)
        return pd.DataFrame({"n": (dev * 10_000 > 44_478 * mad).astype("int64")})

    n_out = fold_groups(
        ints.map_batches(arrow_out(flag_outliers), batch_format="pandas"),
        [], [("n", "sum")])["n"].iloc[0]
    return pd.DataFrame(
        {"median_price": [round(med / 100.0, 6)],
         "mad_price": [round(mad / 100.0, 6)],
         "n_outliers": pd.array([int(n_out)], "int64")}
    )


LINEITEM_MAD_SQL = """
WITH s AS (
  SELECT CAST(round(l_extendedprice*100) AS BIGINT) AS v FROM lineitem
), m AS (
  SELECT quantile_disc(v, 0.5) AS med FROM s
), d AS (
  SELECT abs(s.v - m.med) AS dev FROM s, m
), md AS (
  SELECT quantile_disc(dev, 0.5) AS mad FROM d
)
SELECT round(m.med / 100.0, 6) AS median_price,
       round(md.mad / 100.0, 6) AS mad_price,
       (SELECT COUNT(*) FROM d, md WHERE d.dev * 10000 > 44478 * md.mad)
         AS n_outliers
FROM m, md
"""


def lineitem_quantiles_cont(sf_dir: str):
    """INTERPOLATED quantiles (percentile_cont semantics) of
    l_extendedprice — same shuffle-free histogram narrowing as the disc
    form (`stages/quantiles.py:quantiles_cont_int`), two neighbor ranks
    per target, linear interpolation with the identical IEEE (n−1)·q
    fraction DuckDB computes; 6-dp rounding absorbs the one
    domain-rescale difference (cents here, raw dollars there — ~1e-11
    relative vs a 1e-6 absolute round)."""
    import numpy as np
    import pandas as pd

    from ..functions.arrow import arrow_out
    from ..stages.quantiles import quantiles_cont_int

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")}
        )

    ints = li.map_batches(arrow_out(to_cents), batch_format="pandas")
    out = quantiles_cont_int(ints, QUANTILE_QS)
    out["value"] = (out["value"] / 100.0).round(6)
    return out


LINEITEM_QUANTILES_CONT_SQL = "\nUNION ALL\n".join(
    f"SELECT CAST({q} AS DOUBLE) AS q, "
    f"round(quantile_cont(l_extendedprice, {q}), 6) AS value FROM lineitem"
    for q in QUANTILE_QS
)


# -- CUBE grouping sets (all 2^k subtotal levels) -------------------------------

def q1_cube(sf_dir: str) -> pd.DataFrame:
    """q1 pricing sums at ALL FOUR grouping levels of (returnflag,
    linestatus) — GROUP BY CUBE.  Same posture as `q1_rollup`: the
    detail aggregate is computed ONCE distributed, every coarser level
    (including the (ALL, status) level ROLLUP lacks) derives from the
    ≤|flag|·|status| bounded detail artifact driver-side; int64 cents
    throughout, one division at the end."""

    li = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_shipdate"],
        filter=pc.field("l_shipdate") <= pc.scalar(np.datetime64(Q1_CUTOFF, "us")),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_returnflag": b["l_returnflag"],
             "l_linestatus": b["l_linestatus"],
             "qty_c": np.rint(b["l_quantity"].to_numpy() * 100).astype("int64"),
             "price_c": np.rint(
                 b["l_extendedprice"].to_numpy() * 100).astype("int64"),
             "n": 1}
        )

    sums = [("qty_c", "sum"), ("price_c", "sum"), ("n", "sum")]
    base = fold_groups(  # bounded detail artifact
        li.map_batches(arrow_out(partial), batch_format="pandas"),
        ["l_returnflag", "l_linestatus"], sums)
    levels = [base]
    for keep in (["l_returnflag"], ["l_linestatus"], []):
        lvl = group_frame(base, keep, sums)
        for col in ("l_returnflag", "l_linestatus"):
            if col not in lvl.columns:
                lvl[col] = "ALL"
        levels.append(lvl)
    out = pd.concat(levels, ignore_index=True)
    return pd.DataFrame(
        {"l_returnflag": pd.array(out["l_returnflag"], "str"),
         "l_linestatus": pd.array(out["l_linestatus"], "str"),
         "sum_qty": out["qty_c"].astype("int64") / 100.0,
         "sum_base_price": out["price_c"].astype("int64") / 100.0,
         "count_order": out["n"].astype("int64")}
    ).sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


Q1_CUBE_SQL = f"""
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       SUM(CAST(round(l_quantity*100) AS BIGINT))/100.0 AS sum_qty,
       SUM(CAST(round(l_extendedprice*100) AS BIGINT))/100.0 AS sum_base_price,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
GROUP BY CUBE(l_returnflag, l_linestatus)
"""


# =============================================================================
# TPC-H remainder family (q4/q8/q13/q15/q17/q19/q22 shapes, adapted to the
# slimmed testdata schema: no partsupp table, no comment / commitdate /
# shipmode columns — each query keeps its ORIGINAL distributed shape and
# swaps only the predicate columns).  Reference parity: these exercise the
# same join→aggregate chains as clean_and_save.py:1039-1083 and the
# merge-table censuses of structurize_files.py, at TPC-H shapes.
# =============================================================================

Q4_FROM, Q4_TO = "1996-07-01", "1996-10-01"
Q4_LATE_DAYS = 60


def q4_order_priority(sf_dir: str):
    """TPC-H q4 shape: EXISTS semi-join with a CROSS-TABLE predicate
    (l_shipdate > o_orderdate + 60 days — the slimmed schema has no
    commitdate/receiptdate pair, so "late" is measured against the order
    date the same way).  Because the predicate needs columns from BOTH
    sides, the semi cannot collapse to a key-set broadcast: it runs as a
    partitioned inner hash join whose ``bucket_post`` applies the
    predicate, dedups order keys (exact — every key lands in exactly one
    bucket) and pre-counts per priority, so only 5-row partials leave
    the exchange."""
    import pyarrow as pa

    from ..stages.joins import hash_join

    orders = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(
            (pc.field("o_orderdate") >= pc.scalar(np.datetime64(Q4_FROM, "us")))
            & (pc.field("o_orderdate") < pc.scalar(np.datetime64(Q4_TO, "us")))
        ),
    )
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"]).map_batches(
        arrow_out(lambda b: b.rename(columns={"l_orderkey": "o_orderkey"})),
        batch_format="pandas",
    )

    def count_late(m: pd.DataFrame) -> pd.DataFrame:
        late = m[m["l_shipdate"] > m["o_orderdate"] + pd.Timedelta(days=Q4_LATE_DAYS)]
        cnt = (
            late.drop_duplicates("o_orderkey")
            .groupby("o_orderpriority", sort=False).size()
        )
        return pd.DataFrame(
            {"o_orderpriority": pd.array(cnt.index, "str"),
             "order_count": pd.array(cnt.to_numpy(), "int64")}
        )

    j = hash_join(
        orders, li, on=["o_orderkey"], how="inner", bucket_post=count_late,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
             ("o_orderpriority", pa.string())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("l_shipdate", pa.timestamp("us"))]
        ),
    )
    return fold_groups(  # ≤ |priorities| rows
        j, ["o_orderpriority"], [("order_count", "sum")])


Q4_SQL = f"""
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '{Q4_FROM} 00:00:00'
  AND o_orderdate <  TIMESTAMP '{Q4_TO} 00:00:00'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_shipdate > o_orderdate + INTERVAL {Q4_LATE_DAYS} DAY)
GROUP BY o_orderpriority
"""


Q13_EXCLUDED_PRIORITY = "1-URGENT"


def q13_custdist(sf_dir: str) -> pd.DataFrame:
    """TPC-H q13 shape: distribution of per-customer order counts
    INCLUDING zero-order customers (the filtered LEFT JOIN + two-level
    GROUP BY).  Orders pre-count per custkey map-side; customer keys ride
    the SAME bucketed exchange as zero-count partials carrying an
    is-customer indicator, so the in-bucket fold reproduces exact LEFT
    JOIN semantics (orphan order custkeys absent from customer are
    excluded, zero-order customers counted) with no FK-cleanliness
    assumption and no driver-side subtraction.  Each bucket emits its
    LOCAL count-of-counts, so the final exchange carries only
    O(buckets × distinct counts) rows."""
    from ..stages.shuffle import bucketed_group_map

    orders = _read(
        sf_dir, "orders", columns=["o_custkey"],
        filter=pc.field("o_orderpriority") != Q13_EXCLUDED_PRIORITY,
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt = b.groupby("o_custkey", sort=False).size()
        return pd.DataFrame(
            {"o_custkey": pd.array(cnt.index, "int64"),
             "n": pd.array(cnt.to_numpy(), "int64"),
             "is_cust": pd.array(np.zeros(len(cnt), "int64"), "int64")}
        )

    def cust_partial(b: pd.DataFrame) -> pd.DataFrame:
        k = b["c_custkey"].to_numpy("int64")
        return pd.DataFrame(
            {"o_custkey": pd.array(k, "int64"),
             "n": pd.array(np.zeros(len(k), "int64"), "int64"),
             "is_cust": pd.array(np.ones(len(k), "int64"), "int64")}
        )

    partials = orders.map_batches(arrow_out(partial), batch_format="pandas").union(
        _read(sf_dir, "customer", columns=["c_custkey"]).map_batches(
            arrow_out(cust_partial), batch_format="pandas"
        )
    )

    def dist_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("o_custkey", sort=False).agg(
            n=("n", "sum"), is_cust=("is_cust", "sum")
        )
        return pd.DataFrame(
            {"c_count": agg.loc[agg["is_cust"] > 0, "n"].astype("int64"),
             "custdist": 1}
        )

    # the count-of-counts census is BOUNDED (≤ distinct order counts):
    # ``fold_groups`` folds it.  The remaining gap vs the old
    # FK-assuming form (~2.9 s vs ~1.5 s at sf0.1) is the customer
    # branch + union itself: the price of exact LEFT JOIN semantics
    # (advisor fix r4).
    return fold_groups(
        bucketed_group_map(partials, ["o_custkey"], dist_of_bucket,
                           num_buckets=32),
        ["c_count"], [("custdist", "sum")])


Q13_SQL = f"""
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (
  SELECT c_custkey, CAST(count(o_custkey) AS BIGINT) AS c_count
  FROM customer LEFT JOIN orders
    ON c_custkey = o_custkey AND o_orderpriority <> '{Q13_EXCLUDED_PRIORITY}'
  GROUP BY c_custkey
) GROUP BY c_count
"""


Q15_FROM, Q15_TO = "1996-01-01", "1996-04-01"


def q15_top_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H q15 shape: argmax-with-ties over a grouped aggregate (the
    revenue view + scalar MAX).  Per-supplier cent totals fold on the
    driver (a supplier-bounded census); the scalar max and the tie filter
    run on that frame, and supplier attributes are fetched LAST by
    winner key."""
    li = _read(
        sf_dir, "lineitem",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(
            (pc.field("l_shipdate") >= pc.scalar(np.datetime64(Q15_FROM, "us")))
            & (pc.field("l_shipdate") < pc.scalar(np.datetime64(Q15_TO, "us")))
        ),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        total_c = np.rint(
            b["l_extendedprice"].to_numpy()
            * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return pd.DataFrame({"l_suppkey": b["l_suppkey"], "total_c": total_c})

    per_supp = fold_groups(  # ≤ |suppliers| rows
        li.map_batches(arrow_out(partial), batch_format="pandas"),
        ["l_suppkey"], [("total_c", "sum")])
    winners = per_supp[per_supp["total_c"] == per_supp["total_c"].max()]

    supp = _read(
        sf_dir, "supplier", columns=["s_suppkey", "s_name"],
        filter=pc.field("s_suppkey").isin(winners["l_suppkey"].tolist()),
    ).to_pandas()
    out = winners.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    return pd.DataFrame(
        {"s_suppkey": out["s_suppkey"].astype("int64"),
         "s_name": pd.array(out["s_name"], "str"),
         "total_revenue": out["total_c"].astype("int64") / 10_000.0}
    ).sort_values("s_suppkey").reset_index(drop=True)


Q15_SQL = f"""
WITH rev AS (
  SELECT l_suppkey,
         SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))
           AS total_c
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{Q15_FROM} 00:00:00'
    AND l_shipdate <  TIMESTAMP '{Q15_TO} 00:00:00'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, total_c/10000.0 AS total_revenue
FROM supplier JOIN rev ON s_suppkey = l_suppkey
WHERE total_c = (SELECT max(total_c) FROM rev)
"""


Q17_BRAND = "Brand#13"


def q17_small_qty_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H q17 shape: rows filtered against THEIR OWN group's average
    (the correlated-subquery aggregate).  The brand's part keys broadcast
    as a sorted array (membership-only, the q14 idiom), the surviving
    lineitems make ONE bucketed exchange co-locating each partkey, and
    the in-bucket kernel computes per-part (Σqty, n) vectorized and
    filters ``qty < 0.2·avg`` in exact integers (5·qty_c·n < Σqty_c —
    no float division anywhere near the comparison)."""
    import ray

    from ..stages.shuffle import bucketed_group_map

    keys = (
        _read(sf_dir, "part", columns=["p_partkey"],
              filter=pc.field("p_brand") == Q17_BRAND)
        .to_pandas()["p_partkey"].to_numpy()
    )
    keys_ref = ray.put(np.sort(keys))

    class FilterToBrand:
        def __init__(self, ref):
            self.ref = ref
            self.keys = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keys is None:
                self.keys = ray.get(self.ref)
            pk = b["l_partkey"].to_numpy()
            if len(self.keys):
                pos = np.clip(np.searchsorted(self.keys, pk), 0, len(self.keys) - 1)
                m = self.keys[pos] == pk
            else:
                m = np.zeros(len(pk), dtype=bool)
            qty_c = np.rint(b["l_quantity"].to_numpy() * 100).astype("int64")
            price_c = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
            return pd.DataFrame(
                {"l_partkey": pd.array(pk[m], "int64"),
                 "qty_c": pd.array(qty_c[m], "int64"),
                 "price_c": pd.array(price_c[m], "int64")}
            )

    li = _read(
        sf_dir, "lineitem", columns=["l_partkey", "l_quantity", "l_extendedprice"]
    ).map_batches(arrow_out(FilterToBrand(keys_ref)), batch_format="pandas")

    def small_qty_sum(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("l_partkey", sort=False)["qty_c"]
        sum_c = grp.transform("sum").to_numpy()
        cnt = grp.transform("size").to_numpy()
        keep = 5 * g["qty_c"].to_numpy() * cnt < sum_c
        return pd.DataFrame({"price_c": [int(g.loc[keep, "price_c"].sum())]})

    total = fold_groups(
        bucketed_group_map(li, ["l_partkey"], small_qty_sum, num_buckets=16),
        [], [("price_c", "sum")])
    return pd.DataFrame({"avg_yearly": total["price_c"] / 100.0 / 7.0})


Q17_SQL = f"""
WITH perpart AS (
  SELECT l_partkey,
         SUM(CAST(round(l_quantity*100) AS BIGINT)) AS sum_c,
         CAST(count(*) AS BIGINT) AS cnt
  FROM lineitem GROUP BY l_partkey
)
SELECT SUM(CAST(round(l_extendedprice*100) AS BIGINT))/100.0/7.0 AS avg_yearly
FROM lineitem
  JOIN part ON p_partkey = l_partkey
  JOIN perpart USING (l_partkey)
WHERE p_brand = '{Q17_BRAND}'
  AND 5 * CAST(round(l_quantity*100) AS BIGINT) * cnt < sum_c
"""


Q19_CLAUSES = [
    # (p_brand, size_lo, size_hi, qty_lo, qty_hi) — OR-of-ANDs
    ("Brand#13", 1, 15, 1, 20),
    ("Brand#22", 10, 30, 10, 30),
    ("Brand#25", 20, 50, 20, 40),
]


def q19_disjunctive_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H q19 shape: disjunctive OR-of-ANDs predicates spanning both
    join sides.  The part side pre-evaluates its half of every clause
    into a per-key uint8 BITMASK (parts matching no clause never leave
    the scan) broadcast as sorted-key + mask arrays; lineitem resolves
    its quantity ranges vectorized and ANDs them against the looked-up
    mask — one scan, no exchange: each task folds its rows to one."""
    import ray

    def mask_parts(b: pd.DataFrame) -> pd.DataFrame:
        size = b["p_size"].to_numpy()
        brand = b["p_brand"].to_numpy()
        mask = np.zeros(len(b), dtype=np.uint8)
        for i, (br, lo, hi, _, _) in enumerate(Q19_CLAUSES):
            mask |= ((brand == br) & (size >= lo) & (size <= hi)).astype(np.uint8) << i
        keep = mask > 0
        return pd.DataFrame(
            {"p_partkey": pd.array(b["p_partkey"].to_numpy()[keep], "int64"),
             "mask": pd.array(mask[keep], "int64")}
        )

    parts = (
        _read(sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"])
        .map_batches(arrow_out(mask_parts), batch_format="pandas")
        .to_pandas()  # bounded: matching part keys only
        .sort_values("p_partkey")
    )
    keys_ref = ray.put(
        (parts["p_partkey"].to_numpy(), parts["mask"].to_numpy().astype(np.uint8))
    )

    class RevPartial:
        def __init__(self, ref):
            self.ref = ref
            self.state = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.state is None:
                self.state = ray.get(self.ref)
            keys, masks = self.state
            pk = b["l_partkey"].to_numpy()
            if len(keys):
                pos = np.clip(np.searchsorted(keys, pk), 0, len(keys) - 1)
                hit = keys[pos] == pk
                mask = np.where(hit, masks[np.clip(pos, 0, len(masks) - 1)], 0)
            else:
                mask = np.zeros(len(pk), dtype=np.uint8)
            qty = b["l_quantity"].to_numpy()
            keep = np.zeros(len(pk), dtype=bool)
            for i, (_, _, _, qlo, qhi) in enumerate(Q19_CLAUSES):
                keep |= ((mask & (1 << i)) > 0) & (qty >= qlo) & (qty <= qhi)
            rev_c = np.rint(
                b["l_extendedprice"].to_numpy()
                * (1.0 - b["l_discount"].to_numpy()) * 10_000
            ).astype("int64")
            return pd.DataFrame({"rev_c": np.where(keep, rev_c, 0)})

    li = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    agg = fold_groups(
        li.map_batches(arrow_out(RevPartial(keys_ref)), batch_format="pandas"),
        [], [("rev_c", "sum")])
    return pd.DataFrame({"revenue": agg["rev_c"] / 10_000.0})


Q19_SQL = "\nSELECT SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))/10000.0 AS revenue\nFROM lineitem JOIN part ON p_partkey = l_partkey\nWHERE " + "\n   OR ".join(
    f"(p_brand = '{br}' AND p_size BETWEEN {slo} AND {shi} "
    f"AND l_quantity BETWEEN {qlo} AND {qhi})"
    for br, slo, shi, qlo, qhi in Q19_CLAUSES
)


Q22_RECENT = "2000-01-01"


def q22_global_sales(sf_dir: str):
    """TPC-H q22 shape: scalar-subquery average + NOT-EXISTS anti join +
    grouped census.  The above-average filter compares in EXACT integers
    (acctbal_c·n > Σacctbal_c — both global scalars from one
    ``fold_groups`` total); survivors anti-join the recent-orders stream
    through the PARTITIONED hash join (the orders side scales — no key-set
    broadcast), with the per-nation census fused into the join buckets
    so only 25-row partials leave the exchange."""
    import pyarrow as pa

    from ..stages.joins import hash_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def bal_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["c_acctbal"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"sum_c": np.where(c > 0, c, 0),
                             "n": (c > 0).astype("int64")})

    g = fold_groups(
        cust.map_batches(arrow_out(bal_partial), batch_format="pandas"),
        [], [("sum_c", "sum"), ("n", "sum")]).iloc[0]
    sum_c, n_pos = int(g["sum_c"]), int(g["n"])

    def above_avg(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["c_acctbal"].to_numpy() * 100).astype("int64")
        keep = c * n_pos > sum_c
        return pd.DataFrame(
            {"c_custkey": pd.array(b["c_custkey"].to_numpy()[keep], "int64"),
             "c_nationkey": pd.array(
                 b["c_nationkey"].to_numpy()[keep].astype("int64"), "int64"
             ),
             "bal_c": pd.array(c[keep], "int64")}
        )

    rich = cust.map_batches(arrow_out(above_avg), batch_format="pandas")
    recent = _read(
        sf_dir, "orders", columns=["o_custkey"],
        filter=pc.field("o_orderdate") >= pc.scalar(np.datetime64(Q22_RECENT, "us")),
    ).map_batches(
        arrow_out(lambda b: b.rename(columns={"o_custkey": "c_custkey"})),
        batch_format="pandas",
    )

    def census(m: pd.DataFrame) -> pd.DataFrame:
        agg = m.groupby("c_nationkey", sort=False).agg(
            numcust=("c_custkey", "size"), bal_c=("bal_c", "sum")
        ).reset_index()
        return pd.DataFrame(
            {"cntrycode": pd.array(agg["c_nationkey"], "int64"),
             "numcust": pd.array(agg["numcust"], "int64"),
             "bal_c": pd.array(agg["bal_c"], "int64")}
        )

    j = hash_join(
        rich, recent, on=["c_custkey"], how="anti", bucket_post=census,
        left_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_nationkey", pa.int64()),
             ("bal_c", pa.int64())]
        ),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    )
    out = fold_groups(  # bounded: one row per nation
        j, ["cntrycode"], [("numcust", "sum"), ("bal_c", "sum")])
    return pd.DataFrame(
        {"cntrycode": out["cntrycode"].astype("int64"),
         "numcust": out["numcust"].astype("int64"),
         "totacctbal": out["bal_c"].astype("int64") / 100.0}
    ).sort_values("cntrycode").reset_index(drop=True)


Q22_SQL = f"""
WITH avgbal AS (
  SELECT SUM(CAST(round(c_acctbal*100) AS BIGINT)) AS sum_c,
         CAST(count(*) AS BIGINT) AS n
  FROM customer WHERE round(c_acctbal*100) > 0
)
SELECT CAST(c_nationkey AS BIGINT) AS cntrycode,
       CAST(count(*) AS BIGINT) AS numcust,
       SUM(CAST(round(c_acctbal*100) AS BIGINT))/100.0 AS totacctbal
FROM customer, avgbal
WHERE CAST(round(c_acctbal*100) AS BIGINT) * n > sum_c
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= TIMESTAMP '{Q22_RECENT} 00:00:00')
GROUP BY c_nationkey
"""


Q8_TYPE = "ECONOMY"
Q8_NATION = "NATION_13"
Q8_REGION = "EUROPE"
Q8_FROM, Q8_TO = "1996-01-01", "1998-01-01"


def q8_market_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H q8 shape: one nation's share of a region's market by order
    year (the CASE-share aggregate over a 5-way join).  Scale plan: the
    three small sides collapse to broadcast KEY artifacts (typed part
    keys; supplier keys + a target-nation flag; the region's customer
    keys — the documented q5/q9 dimension-key tradeoff), lineitem
    resolves all three map-side and pre-aggregates (Σall, Σnation) cents
    per orderkey, and the only exchange is the partitioned
    orders⋈partials join with the per-year rollup fused into its
    buckets."""
    import pyarrow as pa
    import ray

    from ..stages.joins import hash_join

    part_keys = np.sort(
        _read(sf_dir, "part", columns=["p_partkey"],
              filter=pc.field("p_type") == Q8_TYPE)
        .to_pandas()["p_partkey"].to_numpy()
    )

    supp = (
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
        .to_pandas().sort_values("s_suppkey")
    )
    nation = _read_dim(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    region = _read_dim(sf_dir, "region", ["r_regionkey", "r_name"])
    target_key = int(nation.loc[nation["n_name"] == Q8_NATION, "n_nationkey"].iloc[0])
    region_keys = nation.merge(
        region[region["r_name"] == Q8_REGION],
        left_on="n_regionkey", right_on="r_regionkey",
    )["n_nationkey"].to_numpy()

    cust_keys = np.sort(
        _read(sf_dir, "customer", columns=["c_custkey"],
              filter=pc.field("c_nationkey").isin([int(k) for k in region_keys]))
        .to_pandas()["c_custkey"].to_numpy()
    )

    bcast = ray.put(
        (part_keys,
         supp["s_suppkey"].to_numpy(),
         (supp["s_nationkey"].to_numpy() == target_key),
         cust_keys)
    )

    def _member(sorted_keys, vals):
        if not len(sorted_keys):
            return np.zeros(len(vals), dtype=bool)
        pos = np.clip(np.searchsorted(sorted_keys, vals), 0, len(sorted_keys) - 1)
        return sorted_keys[pos] == vals

    class LiPartial:
        def __init__(self, ref):
            self.ref = ref
            self.state = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.state is None:
                self.state = ray.get(self.ref)
            pk, sk, s_is_target, _ = self.state
            m = _member(pk, b["l_partkey"].to_numpy())
            if not m.any():
                return pd.DataFrame(
                    {"o_orderkey": pd.array([], "int64"),
                     "all_c": pd.array([], "int64"),
                     "nat_c": pd.array([], "int64")}
                )
            sub = b.loc[m]
            rev_c = np.rint(
                sub["l_extendedprice"].to_numpy()
                * (1.0 - sub["l_discount"].to_numpy()) * 10_000
            ).astype("int64")
            spos = np.clip(
                np.searchsorted(sk, sub["l_suppkey"].to_numpy()), 0, len(sk) - 1
            )
            is_nat = s_is_target[spos] & (sk[spos] == sub["l_suppkey"].to_numpy())
            g = (
                pd.DataFrame(
                    {"o_orderkey": sub["l_orderkey"].to_numpy(),
                     "all_c": rev_c, "nat_c": np.where(is_nat, rev_c, 0)}
                )
                .groupby("o_orderkey", sort=False).agg(
                    all_c=("all_c", "sum"), nat_c=("nat_c", "sum")
                ).reset_index()
            )
            g["o_orderkey"] = g["o_orderkey"].astype("int64")
            return g

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    ).map_batches(arrow_out(LiPartial(bcast)), batch_format="pandas")

    class OrderYears:
        def __init__(self, ref):
            self.ref = ref
            self.keys = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keys is None:
                self.keys = ray.get(self.ref)[3]
            m = _member(self.keys, b["o_custkey"].to_numpy())
            sub = b.loc[m]
            return pd.DataFrame(
                {"o_orderkey": pd.array(sub["o_orderkey"].to_numpy(), "int64"),
                 "o_year": pd.array(
                     sub["o_orderdate"].dt.year.to_numpy().astype("int64"), "int64"
                 )}
            )

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(
            (pc.field("o_orderdate") >= pc.scalar(np.datetime64(Q8_FROM, "us")))
            & (pc.field("o_orderdate") < pc.scalar(np.datetime64(Q8_TO, "us")))
        ),
    ).map_batches(arrow_out(OrderYears(bcast)), batch_format="pandas")

    def per_year(m: pd.DataFrame) -> pd.DataFrame:
        return (
            m.groupby("o_year", sort=False)
            .agg(all_c=("all_c", "sum"), nat_c=("nat_c", "sum")).reset_index()
        )

    j = hash_join(
        orders, li, on=["o_orderkey"], how="inner", bucket_post=per_year,
        left_schema=pa.schema([("o_orderkey", pa.int64()), ("o_year", pa.int64())]),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("all_c", pa.int64()),
             ("nat_c", pa.int64())]
        ),
    )
    out = fold_groups(  # one row per order year
        j, ["o_year"], [("all_c", "sum"), ("nat_c", "sum")])
    return pd.DataFrame(
        {"o_year": out["o_year"].astype("int64"),
         "mkt_share": [
             round(n / a, 6) for n, a in zip(out["nat_c"], out["all_c"])
         ]}
    ).sort_values("o_year").reset_index(drop=True)


Q8_SQL = f"""
SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
       round(
         SUM(CASE WHEN n2.n_name = '{Q8_NATION}'
             THEN CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)
             ELSE 0 END)
         / SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)),
         6) AS mkt_share
FROM lineitem
  JOIN part     ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN orders   ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation n1 ON n1.n_nationkey = c_nationkey
  JOIN region   ON r_regionkey = n1.n_regionkey
  JOIN nation n2 ON n2.n_nationkey = s_nationkey
WHERE r_name = '{Q8_REGION}' AND p_type = '{Q8_TYPE}'
  AND o_orderdate >= TIMESTAMP '{Q8_FROM} 00:00:00'
  AND o_orderdate <  TIMESTAMP '{Q8_TO} 00:00:00'
GROUP BY 1
"""


def q21_waiting_suppliers(sf_dir: str):
    """TPC-H q21 shape: EXISTS + NOT-EXISTS over a fact SELF-join — the
    "sole blocking supplier" attribution.  Instead of three correlated
    lineitem scans, ONE partitioned orders⋈lineitem join co-locates each
    order's lines; the bucket kernel computes (distinct suppliers,
    distinct LATE suppliers) per order vectorized, keeps multi-supplier
    orders whose late set is a singleton, and pre-counts per supplier —
    so ``fold_groups`` folds a |suppliers|-bounded census.  Supplier
    names are fetched last, for the waiting suppliers only."""
    import pyarrow as pa

    from ..stages.joins import hash_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        # "supplier s shipped late in order o" depends only on s's LATEST
        # ship date in o, so lineitem pre-aggregates map-side to one row
        # per (order, supplier).  On TPC-H-uniform data that's ~1 line
        # per pair (9.0 → 8.4 s measured, exchange barely shrinks); on
        # real corpora where a supplier ships many lines per order this
        # is the combiner that keeps the exchange per-pair, not per-line
        g = (
            b.groupby(["l_orderkey", "l_suppkey"], sort=False)
            .agg(max_ship=("l_shipdate", "max")).reset_index()
            .rename(columns={"l_orderkey": "o_orderkey"})
        )
        g["o_orderkey"] = g["o_orderkey"].astype("int64")
        g["l_suppkey"] = g["l_suppkey"].astype("int64")
        return g

    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_shipdate"]
    ).map_batches(arrow_out(li_partial), batch_format="pandas")

    def attribute(m: pd.DataFrame) -> pd.DataFrame:
        # partials may repeat per (order, supplier) across batches: keep
        # the max ship date, then decide lateness once per pair
        agg = (
            m.groupby(["o_orderkey", "l_suppkey"], sort=False)
            .agg(max_ship=("max_ship", "max"), odate=("o_orderdate", "first"))
            .reset_index()
        )
        agg["late"] = agg["max_ship"] > agg["odate"] + pd.Timedelta(days=Q4_LATE_DAYS)
        per_order = agg.groupby("o_orderkey", sort=False)["late"].agg(
            n_supp="size", n_late="sum"
        )
        sole = per_order[(per_order["n_late"] == 1) & (per_order["n_supp"] >= 2)]
        winners = agg[agg["late"] & agg["o_orderkey"].isin(sole.index)]
        cnt = winners.groupby("l_suppkey", sort=False).size()
        return pd.DataFrame(
            {"s_suppkey": pd.array(cnt.index, "int64"),
             "numwait": pd.array(cnt.to_numpy(), "int64")}
        )

    waits = hash_join(
        orders, li, on=["o_orderkey"], how="inner", bucket_post=attribute,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("l_suppkey", pa.int64()),
             ("max_ship", pa.timestamp("us"))]
        ),
    )
    waits = fold_groups(  # ≤ |suppliers| rows
        waits, ["s_suppkey"], [("numwait", "sum")])
    supp = _read(
        sf_dir, "supplier", columns=["s_suppkey", "s_name"],
        filter=pc.field("s_suppkey").isin(waits["s_suppkey"].tolist()),
    ).to_pandas()  # the waiting suppliers' names only
    return waits.merge(supp, on="s_suppkey")[["s_suppkey", "numwait", "s_name"]]


Q21_SQL = f"""
SELECT s_suppkey, CAST(count(DISTINCT o_orderkey) AS BIGINT) AS numwait, s_name
FROM supplier JOIN lineitem l1 ON s_suppkey = l1.l_suppkey
  JOIN orders ON o_orderkey = l1.l_orderkey
WHERE l1.l_shipdate > o_orderdate + INTERVAL {Q4_LATE_DAYS} DAY
  AND EXISTS (SELECT 1 FROM lineitem l2
              WHERE l2.l_orderkey = l1.l_orderkey
                AND l2.l_suppkey <> l1.l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM lineitem l3 JOIN orders o3
                    ON o3.o_orderkey = l3.l_orderkey
                  WHERE l3.l_orderkey = l1.l_orderkey
                    AND l3.l_suppkey <> l1.l_suppkey
                    AND l3.l_shipdate > o3.o_orderdate
                                        + INTERVAL {Q4_LATE_DAYS} DAY)
GROUP BY s_suppkey, s_name
"""


CHEAPEST_FROM, CHEAPEST_TO = "1996-01-01", "1997-01-01"


def part_cheapest_supplier(sf_dir: str):
    """TPC-H q2 shape without the partsupp table: per part, the supplier
    with the LOWEST average sale price over a year (argmin-per-group on
    a two-level aggregate, tie → smaller suppkey).  The winner contract
    is integer floor-scaled micro-price ``sum_c·10⁴ // n`` on BOTH
    engines, so no float enters the ordering; per-(part, supplier) cent
    partials combine map-side, the argmin resolves inside partkey
    buckets, and winner names come through a partitioned join."""
    import pyarrow as pa

    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_group_map

    li = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
        filter=(
            (pc.field("l_shipdate") >= pc.scalar(np.datetime64(CHEAPEST_FROM, "us")))
            & (pc.field("l_shipdate") < pc.scalar(np.datetime64(CHEAPEST_TO, "us")))
        ),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        g = (
            pd.DataFrame(
                {"l_partkey": b["l_partkey"], "l_suppkey": b["l_suppkey"], "c": c}
            )
            .groupby(["l_partkey", "l_suppkey"], sort=False)
            .agg(sum_c=("c", "sum"), n=("c", "size")).reset_index()
        )
        for col in ("l_partkey", "l_suppkey", "sum_c", "n"):
            g[col] = g[col].astype("int64")
        return g

    partials = li.map_batches(arrow_out(partial), batch_format="pandas")

    def argmin_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = (
            g.groupby(["l_partkey", "l_suppkey"], sort=False)
            .agg(sum_c=("sum_c", "sum"), n=("n", "sum")).reset_index()
        )
        agg["avg6"] = agg["sum_c"] * 10_000 // agg["n"]
        win = (
            agg.sort_values(["l_partkey", "avg6", "l_suppkey"], kind="mergesort")
            .groupby("l_partkey", sort=False).head(1)
        )
        return pd.DataFrame(
            {"p_partkey": win["l_partkey"].astype("int64"),
             "s_suppkey": win["l_suppkey"].astype("int64"),
             "avg_price": win["avg6"].astype("int64") / 1_000_000.0}
        )

    winners = bucketed_group_map(partials, ["l_partkey"], argmin_bucket,
                                 num_buckets=32)
    supp = _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    return hash_join(
        winners, supp, on=["s_suppkey"], how="inner",
        left_schema=pa.schema(
            [("p_partkey", pa.int64()), ("s_suppkey", pa.int64()),
             ("avg_price", pa.float64())]
        ),
        right_schema=pa.schema([("s_suppkey", pa.int64()), ("s_name", pa.string())]),
    )


CHEAPEST_SQL = f"""
WITH ps AS (
  SELECT l_partkey, l_suppkey,
         SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS sum_c,
         CAST(count(*) AS BIGINT) AS n
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{CHEAPEST_FROM} 00:00:00'
    AND l_shipdate <  TIMESTAMP '{CHEAPEST_TO} 00:00:00'
  GROUP BY 1, 2
)
SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
       (sum_c * 10000 // n) / 1000000.0 AS avg_price, s_name
FROM ps JOIN supplier ON s_suppkey = l_suppkey
QUALIFY row_number() OVER (
  PARTITION BY l_partkey ORDER BY sum_c * 10000 // n, l_suppkey) = 1
"""


def lineitem_quantiles_sketch(sf_dir: str):
    """ONE-pass approximate quantiles of l_extendedprice via the fixed-
    grid histogram sketch (`stages/quantiles.py:quantiles_sketch_int`) —
    the single-scan scale path next to the exact narrowing core; error
    bounded by half a bin width, pytest-pinned against the exact
    answers."""
    import numpy as np

    from ..stages.quantiles import quantiles_sketch_int

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")}
        )

    ints = li.map_batches(arrow_out(to_cents), batch_format="pandas")
    out = quantiles_sketch_int(ints, QUANTILE_QS)
    out["approx"] = out["approx"] / 100.0
    return out


def _sketch_rank_sql(q: float) -> str:
    from fractions import Fraction

    f = Fraction(str(q))
    return f"GREATEST(1, (n * {f.numerator} + {f.denominator - 1}) // {f.denominator})"


LINEITEM_QUANTILES_SKETCH_SQL = (
    """
WITH v AS (
  SELECT CAST(round(l_extendedprice*100) AS BIGINT) AS v FROM lineitem
), s AS (
  SELECT CAST(count(*) AS BIGINT) AS n, min(v) AS lo, max(v) AS hi FROM v
), w AS (
  SELECT n, lo, GREATEST(1, (hi - lo + 1 + 4095) // 4096) AS width FROM s
), h AS (
  SELECT (v.v - w.lo) // w.width AS bin, count(*) AS c FROM v, w GROUP BY 1
), c AS (
  SELECT bin, SUM(c) OVER (ORDER BY bin) AS cum FROM h
), r AS (
"""
    + "\n  UNION ALL\n".join(
        f"  SELECT CAST({q} AS DOUBLE) AS q, {_sketch_rank_sql(q)} AS rank FROM w"
        for q in QUANTILE_QS
    )
    + """
)
SELECT r.q,
       (w.lo + (SELECT min(bin) FROM c WHERE cum >= r.rank) * w.width
        + w.width / 2.0) / 100.0 AS approx
FROM r, w
"""
)


Q16_MAX_SIZE = 15
Q16_EXCLUDED_TYPE = "STANDARD"
Q16_BAD_BAL = 0.0


def q16_brand_suppliers(sf_dir: str) -> pd.DataFrame:
    """TPC-H-q16-shaped supplier census: per (p_brand, p_size) over the
    selected parts, how many DISTINCT suppliers ship them — the
    COUNT(DISTINCT) OVER A LARGE-LARGE JOIN pattern (adapted to this
    testdata: lineitem is the part⇄supplier bridge in place of partsupp,
    and the "complaints" NOT IN becomes negative-balance suppliers).

    Scale shape: the excluded-supplier key set is a filtered,
    column-pruned read broadcast into the lineitem scan (it is a small
    FRACTION of suppliers; swap in `stages/bloom.py` when it outgrows
    memory — same ladder as docs_decontaminate); lineitem⋈part is a
    partitioned hash join whose ``bucket_post`` immediately collapses
    each bucket to its DISTINCT (brand, size, suppkey) triples, so the
    second exchange carries distinct triples, never lineitem rows; each
    triple lives in exactly one bucket of that exchange, so the
    per-(brand, size) count partials sum exactly."""
    import pyarrow as pa
    import ray

    from ..functions.arrow import arrow_out
    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_group_map

    bad = _read_dim(
        sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"]
    )
    bad_keys = ray.put(
        frozenset(bad.loc[bad["s_acctbal"] < Q16_BAD_BAL, "s_suppkey"]
                  .astype("int64"))
    )

    part = _read(
        sf_dir, "part", columns=["p_partkey", "p_brand", "p_size", "p_type"],
        filter=(pc.field("p_size") <= Q16_MAX_SIZE)
        & (pc.field("p_type") != Q16_EXCLUDED_TYPE),
    ).map_batches(
        arrow_out(lambda b: b[["p_partkey", "p_brand", "p_size"]]),
        batch_format="pandas",
    )

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def drop_bad(b: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        keys = _ray.get(bad_keys)
        if keys:
            b = b[~b["l_suppkey"].isin(keys)]
        return b.rename(columns={"l_partkey": "p_partkey"})

    li = li.map_batches(arrow_out(drop_bad), batch_format="pandas")

    def distinct_triples(m: pd.DataFrame) -> pd.DataFrame:
        return m[["p_brand", "p_size", "l_suppkey"]].drop_duplicates()

    joined = hash_join(
        li, part, on=["p_partkey"], how="inner",
        left_schema=pa.schema(
            [("p_partkey", pa.int64()), ("l_suppkey", pa.int64())]
        ),
        right_schema=pa.schema(
            [("p_partkey", pa.int64()), ("p_brand", pa.string()),
             ("p_size", pa.int32())]
        ),
        bucket_post=distinct_triples,
    )

    def count_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates()  # triples from different join buckets
        return pd.DataFrame({"p_brand": d["p_brand"], "p_size": d["p_size"],
                             "supplier_cnt": 1})

    counts = fold_groups(  # ≤ brands × sizes rows
        bucketed_group_map(
            joined, ["p_brand", "p_size", "l_suppkey"], count_partial,
        ),
        ["p_brand", "p_size"], [("supplier_cnt", "sum")])
    counts["supplier_cnt"] = counts["supplier_cnt"].astype("int64")
    counts["p_size"] = counts["p_size"].astype("int32")
    return counts.sort_values(
        ["supplier_cnt", "p_brand", "p_size"], ascending=[False, True, True]
    ).reset_index(drop=True)


Q16_SQL = f"""
SELECT p_brand, p_size,
       CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM part JOIN lineitem ON p_partkey = l_partkey
WHERE p_size <= {Q16_MAX_SIZE} AND p_type <> '{Q16_EXCLUDED_TYPE}'
  AND l_suppkey NOT IN (
    SELECT s_suppkey FROM supplier WHERE s_acctbal < {Q16_BAD_BAL}
  )
GROUP BY p_brand, p_size
"""


# -- Q12: conditional counts over an orders⋈lineitem join ---------------------

Q12_FROM, Q12_TO = "1996-01-01", "1997-01-01"
Q12_HIGH = ("1-URGENT", "2-HIGH")


def q12_priority_lines(sf_dir: str) -> pd.DataFrame:
    """TPC-H-q12-shaped conditional aggregation over a large-large join
    (reference analogue: the join→pivoted-count chains in
    clean_and_save.py:1039-1083).  The slimmed schema has no
    ``l_shipmode``, so ``l_returnflag`` plays the mode axis: per flag,
    how many shipped line items belong to high- vs low-priority orders.

    Scale shape: lineitem is pre-counted per (orderkey, returnflag)
    inside ``map_batches`` (a combiner — the join exchange carries at
    most one row per key per batch, never raw line items); orders ship
    only an int64 is-high indicator; ``bucket_post`` collapses each join
    bucket to ≤ |flags| partial rows, so the driver folds the result."""
    import pyarrow as pa

    from ..stages.joins import hash_join

    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag", "l_shipdate"],
        filter=(
            (pc.field("l_shipdate") >= pc.scalar(np.datetime64(Q12_FROM, "us")))
            & (pc.field("l_shipdate") < pc.scalar(np.datetime64(Q12_TO, "us")))
        ),
    )

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt = b.groupby(["l_orderkey", "l_returnflag"], sort=False).size()
        out = cnt.reset_index()
        out.columns = ["o_orderkey", "l_returnflag", "n"]
        out["n"] = out["n"].astype("int64")
        return out

    def orders_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"o_orderkey": pd.array(b["o_orderkey"].to_numpy("int64"), "int64"),
             "is_high": pd.array(
                 b["o_orderpriority"].isin(Q12_HIGH).to_numpy("int64"), "int64"
             )}
        )

    li_counts = li.map_batches(arrow_out(li_partial), batch_format="pandas")
    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(arrow_out(orders_partial), batch_format="pandas")

    def flag_partial(m: pd.DataFrame) -> pd.DataFrame:
        n = m["n"].to_numpy("int64")
        hi = m["is_high"].to_numpy("int64")
        return pd.DataFrame(
            {"l_returnflag": m["l_returnflag"],
             "high_line_count": n * hi,
             "low_line_count": n * (1 - hi)}
        )

    j = hash_join(
        li_counts, orders, on=["o_orderkey"], how="inner",
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("l_returnflag", pa.string()),
             ("n", pa.int64())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("is_high", pa.int64())]
        ),
        bucket_post=flag_partial,
    )
    out = fold_groups(  # ≤ |flags| rows
        j, ["l_returnflag"],
        [("high_line_count", "sum"), ("low_line_count", "sum")])
    out["high_line_count"] = out["high_line_count"].astype("int64")
    out["low_line_count"] = out["low_line_count"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


Q12_SQL = f"""
SELECT l_returnflag,
       CAST(SUM(CASE WHEN o_orderpriority IN ('{Q12_HIGH[0]}', '{Q12_HIGH[1]}')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(SUM(CASE WHEN o_orderpriority IN ('{Q12_HIGH[0]}', '{Q12_HIGH[1]}')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '{Q12_FROM} 00:00:00'
  AND l_shipdate <  TIMESTAMP '{Q12_TO} 00:00:00'
GROUP BY l_returnflag
"""


# -- Q20: dominant-share suppliers (two-level aggregate + semi join) ----------

Q20_NAME_PREFIX = "blue"
Q20_DOM_MULT = 2  # dominant = shipped > MULT × the part's per-supplier mean


def q20_dominant_suppliers(sf_dir: str) -> pd.DataFrame:
    """TPC-H-q20-shaped supplier promotion: suppliers who shipped MORE
    THAN ``Q20_DOM_MULT``× the average per-supplier quantity of some
    filtered part — the nested two-level aggregate + semi-join pattern
    (availqty vs half of shipped quantity in the original; lineitem is
    the part⇄supplier bridge since the slimmed schema has no partsupp,
    and the threshold is relative to the part's supplier census so the
    predicate stays non-degenerate at every scale factor).

    Scale shape: lineitem pre-aggregates qty per (partkey, suppkey) in
    ``map_batches``; the partitioned join with the filtered part keys
    buckets by partkey, so EVERY row of a part lands in one bucket —
    ``bucket_post`` finishes the per-(part, supplier) sums, computes the
    per-part totals + supplier counts, applies the dominance test and
    emits DISTINCT winning suppkeys, all without a second exchange.  The
    winner set is bounded by |suppliers| (and in practice ≪), so it
    broadcasts into the supplier scan; quantities are exactly-scaled
    int64 so the strict ``qty·cnt > MULT·total`` comparison is
    bit-identical to the SQL oracle (pure integer arithmetic)."""
    import pyarrow as pa
    import ray

    from ..stages.joins import hash_join

    part_keys = _read(
        sf_dir, "part", columns=["p_partkey", "p_name"],
        filter=pc.match_substring_regex(
            pc.field("p_name"), f"^{Q20_NAME_PREFIX}"
        ),
    ).map_batches(
        arrow_out(lambda b: b[["p_partkey"]]), batch_format="pandas"
    )

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        q = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        g = pd.DataFrame(
            {"p_partkey": b["l_partkey"].to_numpy("int64"),
             "l_suppkey": b["l_suppkey"].to_numpy("int64"),
             "qty": q}
        ).groupby(["p_partkey", "l_suppkey"], sort=False).sum().reset_index()
        g["qty"] = g["qty"].astype("int64")
        return g

    li = _read(
        sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_quantity"]
    ).map_batches(arrow_out(li_partial), batch_format="pandas")

    def winners(m: pd.DataFrame) -> pd.DataFrame:
        ps = (
            m.groupby(["p_partkey", "l_suppkey"], sort=False)["qty"]
            .sum().reset_index()
        )
        grp = ps.groupby("p_partkey", sort=False)["qty"]
        total = grp.transform("sum").to_numpy("int64")
        cnt = grp.transform("size").to_numpy("int64")
        qty = ps["qty"].to_numpy("int64")
        win = ps.loc[qty * cnt > Q20_DOM_MULT * total, "l_suppkey"]
        return pd.DataFrame(
            {"l_suppkey": pd.array(
                win.drop_duplicates().to_numpy("int64"), "int64"
            )}
        )

    j = hash_join(
        li, part_keys, on=["p_partkey"], how="inner",
        left_schema=pa.schema(
            [("p_partkey", pa.int64()), ("l_suppkey", pa.int64()),
             ("qty", pa.int64())]
        ),
        right_schema=pa.schema([("p_partkey", pa.int64())]),
        bucket_post=winners,
    )
    won = j.to_pandas()  # ≤ buckets × |suppliers| rows, ≪ in practice
    # Ray 2.49 to_pandas on a zero-block dataset drops the schema
    winners_set = (
        frozenset(won["l_suppkey"].astype("int64"))
        if "l_suppkey" in won.columns else frozenset()
    )
    key_ref = ray.put(winners_set)

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        keys = _ray.get(key_ref)
        return b[b["s_suppkey"].isin(keys)][["s_name", "s_acctbal"]]

    out = (
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_name", "s_acctbal"])
        .map_batches(arrow_out(pick), batch_format="pandas")
        .to_pandas()  # the answer itself
    )
    return out.sort_values("s_name").reset_index(drop=True)


Q20_SQL = f"""
WITH ps AS (
  SELECT l_partkey, l_suppkey,
         SUM(CAST(round(l_quantity) AS BIGINT)) AS qty
  FROM lineitem
  WHERE l_partkey IN (
    SELECT p_partkey FROM part WHERE p_name LIKE '{Q20_NAME_PREFIX}%'
  )
  GROUP BY l_partkey, l_suppkey
), tot AS (
  SELECT l_partkey, SUM(qty) AS total, COUNT(*) AS cnt
  FROM ps GROUP BY l_partkey
)
SELECT s_name, s_acctbal
FROM supplier
WHERE s_suppkey IN (
  SELECT ps.l_suppkey FROM ps JOIN tot ON ps.l_partkey = tot.l_partkey
  WHERE ps.qty * tot.cnt > {Q20_DOM_MULT} * tot.total
)
"""


# -- Q11: global-share filter (value > fraction of a global total) ------------

Q11_REGION = "ASIA"
Q11_FRAC_DEN = 1000  # keep parts with value > total/1000


def q11_part_value_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H-q11-shaped global-share filter: per-part revenue from
    suppliers of one region, keeping parts whose value exceeds a
    FRACTION OF THE GLOBAL TOTAL — the scalar-subquery-over-an-aggregate
    pattern (partsupp value becomes lineitem revenue in the slimmed
    schema).

    Scale shape: the region's supplier keys are a filtered broadcast
    set (÷25 of suppliers — the q16 ladder; swap in ``stages/bloom.py``
    beyond memory); lineitem's revenue cents fold per partkey
    (``fold_groups``, a parts-bounded census) and the driver takes the
    global total and the share filter from that frame — the aggregate,
    never the fact table.  All arithmetic is exact int64
    basis-point cents (``value·DEN > total`` — at extreme totals where
    int64 would saturate, DuckDB's HUGEINT side still compares exactly;
    the engine side would need the int128 ladder, noted here for the
    100-TB reader)."""
    import ray

    nations = _read_dim(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"])
    region = _read_dim(sf_dir, "region", columns=["r_regionkey", "r_name"])
    rkey = int(region.loc[region["r_name"] == Q11_REGION, "r_regionkey"].iloc[0])
    nkeys = set(nations.loc[nations["n_regionkey"] == rkey, "n_nationkey"])

    sup = _read(
        sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"],
        filter=pc.field("s_nationkey").isin(sorted(nkeys)),
    ).map_batches(
        arrow_out(lambda b: b[["s_suppkey"]]), batch_format="pandas"
    ).to_pandas()
    sup_ref = ray.put(
        frozenset(sup["s_suppkey"].astype("int64"))
        if "s_suppkey" in sup.columns else frozenset()
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        keys = _ray.get(sup_ref)
        b = b[b["l_suppkey"].isin(keys)]
        cents = np.rint(
            b["l_extendedprice"].to_numpy()
            * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return pd.DataFrame(
            {"p_partkey": b["l_partkey"].to_numpy("int64"), "value_c": cents})

    li = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(arrow_out(partial), batch_format="pandas")
    per_part = fold_groups(li, ["p_partkey"], [("value_c", "sum")])  # ≤ |parts|
    total = int(per_part["value_c"].sum())
    res = per_part[per_part["value_c"].to_numpy("int64") * Q11_FRAC_DEN > total]
    return pd.DataFrame(
        {"p_partkey": res["p_partkey"].astype("int64"),
         "value": res["value_c"] / 10_000.0}
    ).sort_values(["value", "p_partkey"], ascending=[False, True]
                  ).reset_index(drop=True)


Q11_SQL = f"""
WITH sup AS (
  SELECT s_suppkey FROM supplier
  WHERE s_nationkey IN (
    SELECT n_nationkey FROM nation
    WHERE n_regionkey = (SELECT r_regionkey FROM region
                         WHERE r_name = '{Q11_REGION}'))
), ps AS (
  SELECT l_partkey AS p_partkey,
         SUM(CAST(round(l_extendedprice * (1 - l_discount) * 10000)
                  AS BIGINT)) AS value_c
  FROM lineitem
  WHERE l_suppkey IN (SELECT s_suppkey FROM sup)
  GROUP BY 1
), tot AS (SELECT SUM(value_c) AS t FROM ps)
SELECT p_partkey, value_c / 10000.0 AS value
FROM ps, tot
WHERE value_c * {Q11_FRAC_DEN} > t
"""


# -- Skyline (Pareto-dominance filter) ----------------------------------------


def part_skyline(sf_dir: str) -> pd.DataFrame:
    """Skyline operator: the Pareto-optimal parts under (minimize
    p_retailprice, maximize p_size) — no other part is at-least-as-good
    on both axes and strictly better on one (Börzsönyi et al. 2001,
    "The Skyline Operator", public).

    Scale shape: the skyline has a PERFECT COMBINER — a row dominated
    inside any batch is dominated globally, so each batch keeps only
    its local skyline (vectorized prefix-max over the price-sorted
    frame, no quadratic pass) and the final pass re-runs the same
    kernel on the union of partials.  For uniformly random data the
    local skyline is O(log n) rows, so the final input is tiny;
    perfectly anti-correlated axes degrade toward O(batch) partials —
    the known worst case, at which point the bucketed-by-price-range
    variant applies (partition by price quantile; bucket i's survivors
    only need checking against the running max size of buckets < i)."""

    def local_skyline(b: pd.DataFrame) -> pd.DataFrame:
        b = b[["p_partkey", "p_retailprice", "p_size"]]
        s = b.sort_values(
            ["p_retailprice", "p_size"], ascending=[True, False],
            kind="mergesort",
        )
        size = s["p_size"].to_numpy()
        price = s["p_retailprice"].to_numpy()
        # group max per equal-price run, prefix max over CHEAPER prices
        new_price = np.empty(len(s), dtype=bool)
        if len(s):
            new_price[0] = True
            new_price[1:] = price[1:] != price[:-1]
        grp = np.cumsum(new_price) - 1
        # first row of each price group carries the group max (sorted desc);
        # running prefix max over ALL strictly-cheaper groups
        grp_max = size[new_price]
        run = np.maximum.accumulate(grp_max)
        cheaper_max = np.concatenate(
            ([np.iinfo("int64").min], run[:-1])
        )[grp]
        is_grp_max = size == grp_max[grp]
        keep = is_grp_max & (size > cheaper_max)
        return s[keep]

    part = _read(
        sf_dir, "part", columns=["p_partkey", "p_retailprice", "p_size"]
    )
    partials = part.map_batches(
        arrow_out(local_skyline), batch_format="pandas"
    ).to_pandas()  # union of batch-local skylines — bounded
    out = local_skyline(partials)
    return out.sort_values("p_partkey").reset_index(drop=True)[
        ["p_partkey", "p_retailprice", "p_size"]
    ]


SKYLINE_SQL = """
SELECT p.p_partkey, p.p_retailprice, p.p_size
FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM part q
  WHERE q.p_retailprice <= p.p_retailprice AND q.p_size >= p.p_size
    AND (q.p_retailprice < p.p_retailprice OR q.p_size > p.p_size)
)
"""


# -- ABC / Pareto classification (global cumulative revenue share) -------------

def orders_abc(sf_dir: str):
    """ABC (Pareto) customer classification: rank customers by total
    revenue DESC and class by GLOBAL cumulative share — A while the
    running total is ≤80 % of all revenue, B ≤95 %, else C.  The
    inventory/CRM segmentation operator; its hard part at scale is the
    global running SUM over a total order, which needs no sort operator:
    the ``docs_global_shuffle`` idiom on the MONOTONE shift
    ``(-cents) >> 20`` (arithmetic shift of negatives floor-divides, so
    bucket order IS descending-revenue order), pass 1 exchanges only
    per-range-bucket (count, Σcents) pairs — the driver prefix-sums both
    — pass 2 sorts within buckets and attaches offset + in-bucket cumsum.

    Exactness: int64 cents end to end; the class thresholds are the
    integer compares ``100·cum ≤ 80·total`` / ``≤ 95·total``; ties break
    on custkey, so the order (and every cum value) is total and
    parallelism-invariant."""
    import ray

    from ..stages.shuffle import bucketed_group_map

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return (
            pd.DataFrame({"custkey": b["o_custkey"].astype("int64"),
                          "cents": cents})
            .groupby("custkey", sort=False, as_index=False)["cents"].sum()
        )

    def census_final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("custkey", sort=False, as_index=False)["cents"].sum()
        out["vbucket"] = (-out["cents"].to_numpy("int64")) >> 20
        return out.astype({"custkey": "int64", "cents": "int64",
                           "vbucket": "int64"})

    # ONE hash exchange on custkey (no sort-aggregate barrier), the
    # range-bucket key assigned in the same pass (the supplier_gini
    # rework, measured ~3x there)
    keyed = bucketed_group_map(
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["custkey"], census_final,
    ).materialize()  # two passes (bucket census, then ranks)

    def count_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"vbucket": b["vbucket"], "n": 1, "s": b["cents"]})

    counts = fold_groups(  # ≤ range-buckets rows
        keyed.map_batches(arrow_out(count_rows), batch_format="pandas"),
        ["vbucket"], [("n", "sum"), ("s", "sum")]).set_index("vbucket")
    total = int(counts["s"].sum())
    rank_off = counts["n"].cumsum().shift(fill_value=0)
    cum_off = counts["s"].cumsum().shift(fill_value=0)
    off_ref = ray.put(
        {int(vb): (int(r), int(c))
         for vb, r, c in zip(counts.index, rank_off, cum_off)}
    )

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        outs = []
        for vb, sub in g.groupby("vbucket", sort=False):
            s = sub.sort_values(["cents", "custkey"], kind="mergesort",
                                ascending=[False, True])
            r0, c0 = off[int(vb)]
            cents = s["cents"].to_numpy("int64")
            cum = c0 + np.cumsum(cents)
            cls = np.where(100 * cum <= 80 * total, "A",
                           np.where(100 * cum <= 95 * total, "B", "C"))
            outs.append(pd.DataFrame(
                {"custkey": s["custkey"].astype("int64"),
                 "cents": cents,
                 "cum_cents": cum.astype("int64"),
                 "rnk": r0 + 1 + np.arange(len(s), dtype="int64"),
                 "abc_class": pd.array(cls, "str")}
            ))
        return pd.concat(outs, ignore_index=True)

    return bucketed_group_map(keyed, ["vbucket"], rank_bucket)


ORDERS_ABC_SQL = """
WITH rev AS (
  SELECT o_custkey AS custkey,
         CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
),
w AS (
  SELECT custkey, cents,
         SUM(cents) OVER (ORDER BY cents DESC, custkey
                          ROWS UNBOUNDED PRECEDING) AS cum,
         SUM(cents) OVER () AS total,
         CAST(row_number() OVER (ORDER BY cents DESC, custkey) AS BIGINT)
           AS rnk
  FROM rev
)
SELECT custkey, cents, CAST(cum AS BIGINT) AS cum_cents, rnk,
       CASE WHEN 100 * cum <= 80 * total THEN 'A'
            WHEN 100 * cum <= 95 * total THEN 'B' ELSE 'C' END AS abc_class
FROM w
"""


# -- item-item co-purchase similarity (collaborative filtering) ----------------

COPURCHASE_MIN_PAIR = 2


def parts_copurchase_sim(sf_dir: str):
    """Item-item collaborative-filtering scores: for every pair of parts
    bought together in ≥``COPURCHASE_MIN_PAIR`` orders, the cosine of
    their order-incidence vectors ``c_ab / √(n_a·n_b)`` — the classic
    "customers also bought" similarity (Linden et al., Amazon item-item
    CF), computed without materializing any incidence matrix.

    Distributed shape: ONE bucketed exchange on orderkey; per order the
    DISTINCT sorted parts emit their pairs via the shifted-slice trick
    (for each lag k ≤ basket size: compare arr[:-k] to arr[k:] under a
    same-order mask — fully vectorized, no per-order Python loop; basket
    sizes are small so k is bounded), with a batch-local pair combiner →
    second exchange sums per pair.  Part order-frequencies are a
    dimension-sized broadcast artifact (rank hash-join for unbounded
    catalogs).

    Float contract: ``floor(1e6·c / sqrt(na·nb) + 0.5)`` — IEEE sqrt is
    correctly rounded on both engines, the expression is mirrored
    term-for-term."""
    import math

    import ray

    from ..stages.shuffle import bucketed_group_map

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def distinct_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame({"o": b["l_orderkey"].astype("int64"),
                          "p": b["l_partkey"].astype("int64")})
            .drop_duplicates()
        )

    op = li.map_batches(
        arrow_out(distinct_partial), batch_format="pandas"
    ).materialize()  # consumed twice: part census + pair enumeration

    def part_count_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["o", "p"])
        return pd.DataFrame({"p": d["p"].astype("int64"), "n": 1})

    # orderkey bucket: batch-level drop_duplicates above is only a
    # combiner — the same (o, p) can survive in two blocks, so dedup
    # must finish inside the order-complete bucket before counting.
    nparts = fold_groups(  # catalog-sized artifact
        bucketed_group_map(op, ["o"], part_count_partial), ["p"],
        [("n", "sum")]).set_index("p")["n"]
    n_ref = ray.put(dict(zip(nparts.index, nparts.astype(int))))

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["o", "p"]).sort_values(
            ["o", "p"], kind="mergesort"
        )
        o = d["o"].to_numpy("int64")
        p = d["p"].to_numpy("int64")
        sizes = np.unique(o, return_counts=True)[1]
        outs = []
        for k in range(1, int(sizes.max()) if len(sizes) else 1):
            same = o[:-k] == o[k:]
            if same.any():
                outs.append(pd.DataFrame(
                    {"part_a": p[:-k][same], "part_b": p[k:][same]}
                ))
        if not outs:
            return pd.DataFrame({"part_a": pd.array([], "int64"),
                                 "part_b": pd.array([], "int64"),
                                 "n_pair": pd.array([], "int64")})
        allp = pd.concat(outs, ignore_index=True)
        return (
            allp.groupby(["part_a", "part_b"], sort=False)
            .size().rename("n_pair").reset_index()
        )

    pairs = bucketed_group_map(op, ["o"], pair_partial)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["part_a", "part_b"], sort=False, as_index=False)[
            "n_pair"].sum()
        agg = agg[agg["n_pair"] >= COPURCHASE_MIN_PAIR]
        n = ray.get(n_ref)
        na = agg["part_a"].map(n).to_numpy("int64")
        nb = agg["part_b"].map(n).to_numpy("int64")
        c = agg["n_pair"].to_numpy("int64")
        cos = [math.floor(1e6 * ci / math.sqrt(ni) + 0.5)
               for ci, ni in zip(c, na * nb)]
        return pd.DataFrame(
            {"part_a": pd.array(agg["part_a"], "int64"),
             "part_b": pd.array(agg["part_b"], "int64"),
             "n_pair": pd.array(c, "int64"),
             "cos_micro": pd.array(cos, "int64")}
        )

    return bucketed_group_map(pairs, ["part_a", "part_b"], final)


COPURCHASE_SQL = f"""
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
n AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS n FROM op GROUP BY 1),
pairs AS (
  SELECT a.p AS part_a, b.p AS part_b, CAST(COUNT(*) AS BIGINT) AS n_pair
  FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
  GROUP BY 1, 2 HAVING COUNT(*) >= {COPURCHASE_MIN_PAIR}
)
SELECT part_a, part_b, n_pair,
       CAST(FLOOR(1000000.0 * n_pair
                  / SQRT(CAST(na.n * nb.n AS DOUBLE)) + 0.5) AS BIGINT)
         AS cos_micro
FROM pairs JOIN n na ON na.p = part_a JOIN n nb ON nb.p = part_b
"""


# -- cohort analysis (first-order month × months-since retention grid) ---------

def orders_cohorts(sf_dir: str):
    """Cohort retention/revenue grid: customers grouped by their FIRST
    order month (the cohort), each cell (cohort_m, k) counting how many
    of them ordered again k months later and the revenue they brought —
    the standard retention matrix behind LTV and curation dashboards.

    Months are epoch-month ints ((year−1970)·12 + month−1 — numpy's
    ``datetime64[M]`` integer, mirrored arithmetically in SQL), revenue
    is int64 cents.  Shape: ONE bucketed exchange on custkey (buckets
    are customer-complete, so each customer's first month AND its
    per-cell distinct-contribution of 1 are decided in-bucket — the
    distinct count never rides an exchange), then ``fold_groups`` folds
    the tiny (n, rev) cell census."""
    from ..stages.shuffle import bucketed_group_map

    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def to_months(b: pd.DataFrame) -> pd.DataFrame:
        m = b["o_orderdate"].to_numpy().astype("datetime64[M]").view("int64")
        return pd.DataFrame(
            {"ck": b["o_custkey"].astype("int64"),
             "m": pd.array(m, "int64"),
             "cents": pd.array(
                 np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64"),
                 "int64")}
        )

    keyed = orders.map_batches(arrow_out(to_months), batch_format="pandas")

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        m0 = g.groupby("ck", sort=False)["m"].transform("min")
        cells = pd.DataFrame(
            {"cohort_m": m0.astype("int64"),
             "k": (g["m"] - m0).astype("int64"),
             "ck": g["ck"], "cents": g["cents"]}
        )
        agg = cells.groupby(["cohort_m", "k"], sort=False).agg(
            n_customers=("ck", "nunique"), rev_cents=("cents", "sum")
        ).reset_index()
        agg["n_customers"] = agg["n_customers"].astype("int64")
        return agg

    return fold_groups(  # ≤ #months² cells
        bucketed_group_map(keyed, ["ck"], bucket), ["cohort_m", "k"],
        [("n_customers", "sum"), ("rev_cents", "sum")])


ORDERS_COHORTS_SQL = """
WITH o AS (
  SELECT o_custkey AS ck,
         (EXTRACT(year FROM o_orderdate) - 1970) * 12
           + EXTRACT(month FROM o_orderdate) - 1 AS m,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
),
f AS (SELECT ck, MIN(m) AS m0 FROM o GROUP BY 1)
SELECT CAST(f.m0 AS BIGINT) AS cohort_m, CAST(o.m - f.m0 AS BIGINT) AS k,
       CAST(COUNT(DISTINCT o.ck) AS BIGINT) AS n_customers,
       CAST(SUM(o.cents) AS BIGINT) AS rev_cents
FROM o JOIN f USING (ck)
GROUP BY 1, 2
"""


# -- open-interval sweep line (orders in flight per day) -----------------------

def orders_open_by_day(sf_dir: str):
    """Daily in-flight census: how many order lines were OPEN (order
    placed, not yet shipped) at the end of each day — the sweep-line /
    interval-overlap aggregate (capacity planning, backlog monitoring).
    Interval = [o_orderdate, l_shipdate), half-open: a line no longer
    counts on its ship day.

    Shape: one partitioned orderkey exchange joins order dates onto
    lineitem, each join bucket emits per-day (opened, closed) deltas —
    the exchange carries DAY-census rows, never lines — and the
    calendar-bounded delta table (one row per active day at ANY scale
    factor) prefix-sums on the driver.  The running total needs no sort
    operator anywhere: days are the range keys."""
    import ray

    from ..stages.joins import hash_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    import pyarrow as pa

    li_keyed = li.map_batches(
        arrow_out(lambda b: b.rename(columns={"l_orderkey": "o_orderkey"})),
        batch_format="pandas",
    )
    joined = hash_join(
        orders, li_keyed, on=["o_orderkey"], num_buckets=16,
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("l_shipdate", pa.timestamp("us"))]),
        bucket_post=_open_deltas,
    )
    agg = fold_groups(  # calendar-bounded census
        joined, ["d"], [("opened", "sum"), ("closed", "sum")])
    if not len(agg):
        return pd.DataFrame({"d": pd.Series(dtype="datetime64[us]"),
                             "opened": pd.array([], "int64"),
                             "closed": pd.array([], "int64"),
                             "open_eod": pd.array([], "int64")})
    agg["open_eod"] = (agg["opened"] - agg["closed"]).cumsum().astype("int64")
    agg["opened"] = agg["opened"].astype("int64")
    agg["closed"] = agg["closed"].astype("int64")
    return agg


def _open_deltas(b: pd.DataFrame) -> pd.DataFrame:
    od = b["o_orderdate"]
    sd = b["l_shipdate"]
    op = od.value_counts().rename_axis("d").reset_index(name="opened")
    op["closed"] = 0
    cl = sd.value_counts().rename_axis("d").reset_index(name="closed")
    cl["opened"] = 0
    out = pd.concat([op, cl], ignore_index=True)
    out = out.groupby("d", as_index=False)[["opened", "closed"]].sum()
    out["opened"] = out["opened"].astype("int64")
    out["closed"] = out["closed"].astype("int64")
    return out


ORDERS_OPEN_SQL = """
WITH iv AS (
  SELECT o.o_orderdate AS od, l.l_shipdate AS sd
  FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
),
op AS (SELECT od AS d, CAST(COUNT(*) AS BIGINT) AS opened FROM iv GROUP BY 1),
cl AS (SELECT sd AS d, CAST(COUNT(*) AS BIGINT) AS closed FROM iv GROUP BY 1),
days AS (SELECT d FROM op UNION SELECT d FROM cl),
x AS (
  SELECT days.d, COALESCE(op.opened, 0) AS opened,
         COALESCE(cl.closed, 0) AS closed
  FROM days LEFT JOIN op USING (d) LEFT JOIN cl USING (d)
)
SELECT d, CAST(opened AS BIGINT) AS opened, CAST(closed AS BIGINT) AS closed,
       CAST(SUM(opened - closed) OVER (ORDER BY d ROWS UNBOUNDED PRECEDING)
            AS BIGINT) AS open_eod
FROM x
"""


# -- supplier market concentration (HHI) ---------------------------------------

def supplier_hhi(sf_dir: str):
    """Herfindahl–Hirschman concentration of supplier revenue per nation
    — the market-structure diagnostic (a nation whose parts flow through
    one supplier is a supply-chain risk).  hhi ∈ (0, 1] emitted as the
    exact integer ``(10⁶·Σsᵢ²) // (Σsᵢ)²`` over int64 revenue cents —
    squares exceed int64, so the in-bucket final computes them as Python
    big ints (the two-limb transport contract's driver-side sibling);
    the SQL mirror rides HUGEINT.

    Shape: per-supplier revenue census (suppkey exchange, map-side
    combined), nationkey attached from the driver-read supplier
    dimension (the q9 artifact pattern), 25-group bucketed final."""
    import ray

    from ..stages.shuffle import bucketed_group_map

    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(
            b["l_extendedprice"].to_numpy()
            * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")  # exact ints (2-dp price x 2-dp discount)
        return (
            pd.DataFrame({"suppkey": b["l_suppkey"].astype("int64"),
                          "cents": cents})
            .groupby("suppkey", sort=False, as_index=False)["cents"].sum()
        )

    # hash exchange instead of the sort-aggregate barrier (the
    # supplier_gini rework pattern)
    per_supp = bucketed_group_map(
        li.map_batches(arrow_out(partial), batch_format="pandas"),
        ["suppkey"],
        lambda g: g.groupby("suppkey", sort=False, as_index=False)["cents"]
        .sum().astype({"suppkey": "int64", "cents": "int64"}),
    )

    supp = _read_dim(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    nk = ray.put(dict(zip(supp["s_suppkey"].astype(int),
                          supp["s_nationkey"].astype(int))))

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(nk)
        return pd.DataFrame(
            {"nationkey": b["suppkey"].map(m).astype("int64"),
             "cents": b["cents"].astype("int64")}
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for nation, sub in g.groupby("nationkey", sort=False):
            s = [int(c) for c in sub["cents"]]
            tot = sum(s)
            sq = sum(c * c for c in s)
            rows.append((int(nation), len(s), tot,
                         (1_000_000 * sq) // (tot * tot)))
        return pd.DataFrame(
            {"nationkey": pd.array([r[0] for r in rows], "int64"),
             "n_suppliers": pd.array([r[1] for r in rows], "int64"),
             "rev_u": pd.array([r[2] for r in rows], "int64"),
             "hhi_micro": pd.array([r[3] for r in rows], "int64")}
        )

    keyed = per_supp.map_batches(arrow_out(attach), batch_format="pandas")
    return bucketed_group_map(keyed, ["nationkey"], final, num_buckets=4)


SUPPLIER_HHI_SQL = """
WITH rev AS (
  SELECT l_suppkey AS suppkey,
         CAST(SUM(CAST(round(l_extendedprice * (1 - l_discount) * 10000)
                       AS BIGINT)) AS BIGINT) AS cents
  FROM lineitem GROUP BY 1
),
k AS (
  SELECT s.s_nationkey AS nationkey, rev.cents
  FROM rev JOIN supplier s ON s.s_suppkey = rev.suppkey
)
SELECT CAST(nationkey AS BIGINT) AS nationkey,
       CAST(COUNT(*) AS BIGINT) AS n_suppliers,
       CAST(SUM(cents) AS BIGINT) AS rev_u,
       CAST((1000000 * SUM(CAST(cents AS HUGEINT) * cents))
            // (CAST(SUM(cents) AS HUGEINT) * SUM(cents)) AS BIGINT)
         AS hhi_micro
FROM k GROUP BY 1
"""


# -- Benford first-digit audit -------------------------------------------------

def lineitem_benford(sf_dir: str):
    """Benford's-law first-significant-digit audit of extendedprice —
    the classic fraud/synthetic-data detector: observed digit counts vs
    the expected ``n·log10(1 + 1/d)``.  The census is a 9-cell
    ``fold_groups``; expectations are micro-ints of ONE glibc
    log expression per digit, so parity is unconditional.  The χ²-style
    deviation is a client-side division away — the exact integers ride
    in the row."""
    import math

    import numpy as np

    li = _read(sf_dir, "lineitem", columns=["l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        # first significant digit via the decimal string (mirror of the
        # oracle's substr) — vectorized through numpy's str kernel
        first = np.char.lstrip(cents.astype(str), "0").astype("<U1")
        return pd.DataFrame({"digit": first.astype("int64"), "observed": 1})

    cen = fold_groups(  # ≤ 9 rows
        li.map_batches(arrow_out(partial), batch_format="pandas"),
        ["digit"], [("observed", "sum")]).set_index("digit")["observed"]
    n = int(cen.sum())
    digits = list(range(1, 10))
    obs = [int(cen.get(d, 0)) for d in digits]
    exp = [math.floor(n * (math.log(1 + 1 / d) / math.log(10)) * 1e6 + 0.5)
           for d in digits]
    return pd.DataFrame(
        {"digit": pd.array(digits, "int64"),
         "observed": pd.array(obs, "int64"),
         "n_total": pd.array([n] * 9, "int64"),
         "expected_micro": pd.array(exp, "int64")}
    )


BENFORD_SQL = """
WITH cents AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS c FROM lineitem
),
d AS (
  SELECT CAST(substr(ltrim(CAST(c AS VARCHAR), '0'), 1, 1) AS BIGINT)
           AS digit
  FROM cents
),
cen AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS observed FROM d GROUP BY 1),
tot AS (SELECT CAST(SUM(observed) AS BIGINT) AS n FROM cen),
spine AS (SELECT unnest(range(1, 10)) AS digit)
SELECT spine.digit, COALESCE(cen.observed, 0) AS observed,
       tot.n AS n_total,
       CAST(FLOOR(tot.n * (LN(1 + 1.0 / spine.digit) / LN(10))
                  * 1000000 + 0.5) AS BIGINT) AS expected_micro
FROM spine LEFT JOIN cen USING (digit), tot
"""


# -- association rules over co-purchases ---------------------------------------

def parts_assoc_rules(sf_dir: str):
    """Market-basket association rules a→b over the co-purchase pairs:
    support count, confidence (share of a's orders that also hold b)
    and lift (observed/expected under independence) — the rule-mining
    layer on top of ``parts_copurchase_sim``, emitted BOTH directions
    per unordered pair.  Exact integer contract: conf_bp =
    ``c_ab·10⁴ // n_a``, lift_micro = ``(c_ab·N·10⁶) // (n_a·n_b)``
    (HUGEINT in the oracle; Python big ints in the bounded final).

    Same exchange plan as the similarity query (order-bucketed pair
    enumeration + catalog-sized incidence census); only the final
    scoring differs."""
    import ray

    from ..stages.shuffle import bucketed_group_map

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def distinct_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame({"o": b["l_orderkey"].astype("int64"),
                          "p": b["l_partkey"].astype("int64")})
            .drop_duplicates()
        )

    op = li.map_batches(
        arrow_out(distinct_partial), batch_format="pandas"
    ).materialize()

    def part_count_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["o", "p"])
        c = d["p"].value_counts()
        out = pd.DataFrame({"p": pd.array(c.index, "int64"),
                            "n": pd.array(c.to_numpy(), "int64")})
        # one sentinel row per bucket carries the bucket-local distinct
        # order count (buckets are order-disjoint → the sum is exact)
        out = pd.concat(
            [out, pd.DataFrame({"p": pd.array([-1], "int64"),
                                "n": pd.array([d["o"].nunique()],
                                              "int64")})],
            ignore_index=True)
        return out

    nstats = fold_groups(  # ≤ |parts| + 1 rows
        bucketed_group_map(op, ["o"], part_count_partial), ["p"], [("n", "sum")])
    n_orders = int(nstats.loc[nstats["p"] == -1, "n"].sum())
    nparts = nstats[nstats["p"] != -1].set_index("p")["n"]
    n_ref = ray.put(dict(zip(nparts.index, nparts.astype(int))))

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["o", "p"]).sort_values(
            ["o", "p"], kind="mergesort")
        o = d["o"].to_numpy("int64")
        p = d["p"].to_numpy("int64")
        sizes = np.unique(o, return_counts=True)[1]
        outs = []
        for k in range(1, int(sizes.max()) if len(sizes) else 1):
            same = o[:-k] == o[k:]
            if same.any():
                outs.append(pd.DataFrame(
                    {"part_a": p[:-k][same], "part_b": p[k:][same]}))
        if not outs:
            return pd.DataFrame({"part_a": pd.array([], "int64"),
                                 "part_b": pd.array([], "int64"),
                                 "n_pair": pd.array([], "int64")})
        allp = pd.concat(outs, ignore_index=True)
        return (allp.groupby(["part_a", "part_b"], sort=False)
                .size().rename("n_pair").reset_index())

    pairs = bucketed_group_map(op, ["o"], pair_partial)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["part_a", "part_b"], sort=False, as_index=False)[
            "n_pair"].sum()
        agg = agg[agg["n_pair"] >= COPURCHASE_MIN_PAIR]
        n = ray.get(n_ref)
        rows = []
        for pa, pb, c in zip(agg["part_a"], agg["part_b"], agg["n_pair"]):
            na, nb, c = int(n[pa]), int(n[pb]), int(c)
            lift = (c * n_orders * 1_000_000) // (na * nb)
            rows.append((int(pa), int(pb), c, (c * 10_000) // na, lift))
            rows.append((int(pb), int(pa), c, (c * 10_000) // nb, lift))
        return pd.DataFrame(
            {"antecedent": pd.array([r[0] for r in rows], "int64"),
             "consequent": pd.array([r[1] for r in rows], "int64"),
             "n_pair": pd.array([r[2] for r in rows], "int64"),
             "conf_bp": pd.array([r[3] for r in rows], "int64"),
             "lift_micro": pd.array([r[4] for r in rows], "int64")}
        )

    return bucketed_group_map(pairs, ["part_a", "part_b"], final)


ASSOC_RULES_SQL = f"""
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
n AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS n FROM op GROUP BY 1),
tot AS (SELECT CAST(COUNT(DISTINCT o) AS BIGINT) AS n_orders FROM op),
pairs AS (
  SELECT a.p AS part_a, b.p AS part_b, CAST(COUNT(*) AS BIGINT) AS n_pair
  FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
  GROUP BY 1, 2 HAVING COUNT(*) >= {COPURCHASE_MIN_PAIR}
),
dir2 AS (
  SELECT part_a AS antecedent, part_b AS consequent, n_pair FROM pairs
  UNION ALL
  SELECT part_b, part_a, n_pair FROM pairs
)
SELECT b.antecedent, b.consequent, b.n_pair,
       CAST((b.n_pair * 10000) // na.n AS BIGINT) AS conf_bp,
       CAST((CAST(b.n_pair AS HUGEINT) * tot.n_orders * 1000000)
            // (CAST(na.n AS HUGEINT) * nb.n) AS BIGINT) AS lift_micro
FROM dir2 b
JOIN n na ON na.p = b.antecedent
JOIN n nb ON nb.p = b.consequent, tot
"""


# -- weighted median -----------------------------------------------------------

def lineitem_weighted_median(sf_dir: str):
    """Quantity-weighted median of extendedprice — the weighted order
    statistic (selection-only, zero floats): the smallest cent value v
    with ``2·cumweight(≤v) ≥ W``.  The distinct-value weight census is
    PRICE-DOMAIN-bounded (≤ ~10⁷ distinct cents at any scale factor —
    the ``tables_profile`` artifact posture), so ``fold_groups`` folds
    it and the cumulative pick runs on the bounded series; for
    unbounded value domains compose the histogram-narrowing core
    (`stages/quantiles.py`) with weight sums instead."""
    import numpy as np

    li = _read(sf_dir, "lineitem",
               columns=["l_extendedprice", "l_quantity"])

    def census_partial(b: pd.DataFrame) -> pd.DataFrame:
        v = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        w = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        return pd.DataFrame({"v": v, "w": w})

    cen = fold_groups(  # price-domain-bounded artifact
        li.map_batches(arrow_out(census_partial), batch_format="pandas"),
        ["v"], [("w", "sum")]).set_index("v")["w"]
    total = int(cen.sum())
    cum = cen.cumsum()
    med = int(cum.index[(2 * cum >= total).argmax()])
    return pd.DataFrame(
        {"w_total": pd.array([total], "int64"),
         "wmedian_cents": pd.array([med], "int64")}
    )


WEIGHTED_MEDIAN_SQL = """
WITH c AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS v,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS w
  FROM lineitem GROUP BY 1
),
o AS (
  SELECT v, SUM(w) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS cw,
         SUM(w) OVER () AS tot
  FROM c
)
SELECT CAST(MAX(tot) AS BIGINT) AS w_total,
       CAST(MIN(CASE WHEN 2 * cw >= tot THEN v END) AS BIGINT)
         AS wmedian_cents
FROM o
"""


# -- Gini coefficient of supplier revenue --------------------------------------

def supplier_gini(sf_dir: str):
    """Gini inequality coefficient of per-supplier revenue — the
    distribution-skew diagnostic next to ``supplier_hhi``: from the
    sorted-order identity ``G = Σ(2i − n − 1)·x₍ᵢ₎ / (n·Σx)`` the
    numerator is an EXACT integer once every supplier knows its global
    rank — which the monotone range-bucket idiom provides with no sort
    operator (ties on (cents, suppkey) stay inside one bucket).  Emits
    (n, sum_u, gini_num as two int64 limbs, gini_micro) — the numerator
    outgrows int64 around 10⁹ suppliers, so it travels limbed.

    Shape: per-supplier census (suppkey exchange) → bucket census for
    rank offsets (driver prefix sums) → in-bucket rank + Σ(2i−n−1)·x
    partials → six-number fold; one mirrored double division at the
    end."""
    import math

    import ray

    from ..stages.shuffle import bucketed_group_map

    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        u = np.rint(
            b["l_extendedprice"].to_numpy()
            * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return (
            pd.DataFrame({"suppkey": b["l_suppkey"].astype("int64"),
                          "u": u})
            .groupby("suppkey", sort=False, as_index=False)["u"].sum()
        )

    def census_final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("suppkey", sort=False, as_index=False)["u"].sum()
        out["vbucket"] = out["u"].to_numpy("int64") >> 24
        return out.astype({"suppkey": "int64", "u": "int64",
                           "vbucket": "int64"})

    # ONE hash exchange on suppkey (no sort-aggregate barrier) with the
    # range-bucket key assigned in the same pass; materialized for the
    # two downstream consumers (bucket census, rank pass)
    # batch_size sized to the supplier catalog: a 1k default caps the
    # combiner at no reduction against 10k+ suppliers (measured)
    keyed = bucketed_group_map(
        li.map_batches(arrow_out(partial), batch_format="pandas",
                       batch_size=65536),
        ["suppkey"], census_final,
    ).materialize()

    counts = fold_groups(  # ≤ range-buckets rows
        keyed.map_batches(
            arrow_out(lambda b: pd.DataFrame({"vbucket": b["vbucket"], "c": 1})),
            batch_format="pandas"),
        ["vbucket"], [("c", "sum")]).set_index("vbucket")["c"]
    n = int(counts.sum())
    off = counts.cumsum().shift(fill_value=0)
    off_ref = ray.put({int(vb): int(o) for vb, o in off.items()})

    LIMB = 10 ** 15

    def rank_partial(g: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(off_ref)
        rows = []
        for vb, sub in g.groupby("vbucket", sort=False):
            s = sub.sort_values(["u", "suppkey"], kind="mergesort")
            rank = o[int(vb)] + 1 + np.arange(len(s), dtype="int64")
            x = s["u"].to_numpy("int64")
            num = sum(int(2 * r - n - 1) * int(xi)
                      for r, xi in zip(rank, x))
            rows.append((num, int(x.sum())))
        # numerator partials can be NEGATIVE (low-rank buckets): Python's
        # floored % / // keep lo ∈ [0, LIMB) and hi signed, and
        # hi·LIMB + lo reassembles exactly after the fold
        return pd.DataFrame(
            {"num_lo": pd.array([r[0] % LIMB for r in rows], "int64"),
             "num_hi": pd.array([r[0] // LIMB for r in rows], "int64"),
             "sum_u": pd.array([r[1] for r in rows], "int64")}
        )

    m = fold_groups(
        bucketed_group_map(keyed, ["vbucket"], rank_partial), [],
        [("num_hi", "sum"), ("num_lo", "sum"), ("sum_u", "sum")]).iloc[0]
    gini_num = int(m["num_hi"]) * LIMB + int(m["num_lo"])
    sum_u = int(m["sum_u"])
    gini_micro = math.floor(
        1e6 * float(gini_num) / (float(n) * float(sum_u)) + 0.5)
    return pd.DataFrame(
        {"n_suppliers": pd.array([n], "int64"),
         "sum_u": pd.array([sum_u], "int64"),
         "gini_num_lo": pd.array([gini_num % LIMB], "int64"),
         "gini_num_hi": pd.array([gini_num // LIMB], "int64"),
         "gini_micro": pd.array([gini_micro], "int64")}
    )


SUPPLIER_GINI_SQL = """
WITH rev AS (
  SELECT l_suppkey AS suppkey,
         CAST(SUM(CAST(round(l_extendedprice * (1 - l_discount) * 10000)
                       AS BIGINT)) AS BIGINT) AS u
  FROM lineitem GROUP BY 1
),
r AS (
  SELECT u, CAST(row_number() OVER (ORDER BY u, suppkey) AS BIGINT) AS i,
         CAST(COUNT(*) OVER () AS BIGINT) AS n
  FROM rev
),
s AS (
  SELECT MAX(n) AS n, CAST(SUM(u) AS BIGINT) AS sum_u,
         SUM((2 * CAST(i AS HUGEINT) - n - 1) * u) AS num
  FROM r
)
SELECT CAST(n AS BIGINT) AS n_suppliers, sum_u,
       CAST(num % 1000000000000000 AS BIGINT) AS gini_num_lo,
       CAST(num // 1000000000000000 AS BIGINT) AS gini_num_hi,
       CAST(FLOOR(1000000.0 * CAST(num AS DOUBLE)
                  / (CAST(n AS DOUBLE) * CAST(sum_u AS DOUBLE))
                  + 0.5) AS BIGINT) AS gini_micro
FROM s
"""


# -- full nation-to-nation trade matrix ----------------------------------------

def nations_trade_matrix(sf_dir: str):
    """The FULL supplier-nation × customer-nation revenue matrix — q7
    without the two-nation filter: every cell of the international
    trade flow (≤ 25×25 rows at any scale factor).  Same exchange plan
    as q7: both dimension chains collapse to broadcast sorted-key
    artifacts, lineitem resolves its supplier nation map-side and
    pre-aggregates per (orderkey, supp_nat), so the ONE large-large
    exchange (orders ⋈ lineitem partials) carries ~distinct-orderkey
    rows and the per-cell aggregate fuses into the join buckets."""
    import pyarrow as pa
    import ray

    from ..stages.joins import hash_join

    nation = _read_dim(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    name_by_key = dict(zip(nation["n_nationkey"].astype(int),
                           nation["n_name"]))

    def _sorted_map(ds, key_col, nat_col):
        df = ds.to_pandas().sort_values(key_col)
        return df[key_col].to_numpy("int64"), df[nat_col].to_numpy("int32")

    supp_ref = ray.put(_sorted_map(
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        "s_suppkey", "s_nationkey"))
    cust_ref = ray.put(_sorted_map(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        "c_custkey", "c_nationkey"))

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        keys, nats = ray.get(supp_ref)
        pos = np.searchsorted(keys, b["l_suppkey"].to_numpy("int64"))
        supp_nat = nats[pos]  # FK-complete: every suppkey resolves
        rev = np.rint(
            b["l_extendedprice"].to_numpy()
            * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return (
            pd.DataFrame({"o_orderkey": b["l_orderkey"].astype("int64"),
                          "supp_nat": supp_nat.astype("int32"),
                          "rev_u": rev})
            .groupby(["o_orderkey", "supp_nat"], sort=False, as_index=False)
            ["rev_u"].sum()
        )

    def ord_partial(b: pd.DataFrame) -> pd.DataFrame:
        keys, nats = ray.get(cust_ref)
        pos = np.searchsorted(keys, b["o_custkey"].to_numpy("int64"))
        return pd.DataFrame(
            {"o_orderkey": b["o_orderkey"].astype("int64"),
             "cust_nat": nats[pos].astype("int32")}
        )

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"]).map_batches(
        arrow_out(li_partial), batch_format="pandas")
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey"]).map_batches(
        arrow_out(ord_partial), batch_format="pandas")

    def cell_partial(m: pd.DataFrame) -> pd.DataFrame:
        return (m.groupby(["supp_nat", "cust_nat"], sort=False,
                          as_index=False)["rev_u"].sum())

    joined = hash_join(
        orders, li, on=["o_orderkey"], num_buckets=16,
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("cust_nat", pa.int32())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("supp_nat", pa.int32()),
                                ("rev_u", pa.int64())]),
        bucket_post=cell_partial,
    )
    cells = fold_groups(  # ≤ 625 rows
        joined, ["supp_nat", "cust_nat"], [("rev_u", "sum")])
    return pd.DataFrame(
        {"supp_nation": pd.array(
            [name_by_key[int(k)] for k in cells["supp_nat"]], "str"),
         "cust_nation": pd.array(
            [name_by_key[int(k)] for k in cells["cust_nat"]], "str"),
         "rev_u": cells["rev_u"].astype("int64")}
    )


TRADE_MATRIX_SQL = """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(SUM(CAST(round(l_extendedprice * (1 - l_discount) * 10000)
                     AS BIGINT)) AS BIGINT) AS rev_u
FROM lineitem
JOIN orders ON o_orderkey = l_orderkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN customer ON c_custkey = o_custkey
JOIN nation ns ON ns.n_nationkey = s_nationkey
JOIN nation nc ON nc.n_nationkey = c_nationkey
GROUP BY 1, 2
"""


# -- monthly revenue trend (trailing moving window) -----------------------------

TREND_W = 12


def orders_trend(sf_dir: str):
    """Monthly revenue with the trailing-12-month moving sum and count
    — the trend/seasonality companion to ``orders_yoy``: the month
    census is CALENDAR-BOUNDED (one row per month at any scale), so the
    distributed work is one additive cent-census fold and the sliding
    window runs exact on the bounded series (int64 cents, no floats).
    Only months with a FULL trailing window emit ma12 (NULL earlier —
    float64 carrier)."""
    import numpy as np

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = b["o_orderdate"].to_numpy().astype("datetime64[M]").view("int64")
        cents = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"m": m, "cents": cents})

    cen = fold_groups(  # calendar-bounded artifact
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["m"], [("cents", "sum")]).set_index("m")["cents"]
    lo, hi = int(cen.index.min()), int(cen.index.max())
    dense_idx = np.arange(lo, hi + 1)
    dense = np.zeros(len(dense_idx), dtype="int64")
    dense[cen.index.to_numpy("int64") - lo] = cen.to_numpy("int64")
    cs = np.concatenate([[0], np.cumsum(dense)])
    ma = np.full(len(dense), np.nan)
    if len(dense) >= TREND_W:
        i = np.arange(TREND_W - 1, len(dense))
        ma[i] = (cs[i + 1] - cs[i + 1 - TREND_W]).astype("float64")
    return pd.DataFrame(
        {"m": pd.array(dense_idx, "int64"),
         "rev_cents": pd.array(dense, "int64"),
         "ma12_cents": ma}
    )


ORDERS_TREND_SQL = f"""
WITH cen AS (
  SELECT (EXTRACT(year FROM o_orderdate) - 1970) * 12
           + EXTRACT(month FROM o_orderdate) - 1 AS m,
         CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
),
b AS (SELECT MIN(m) AS lo, MAX(m) AS hi FROM cen),
spine AS (SELECT unnest(range(b.lo, b.hi + 1)) AS m FROM b),
dense AS (
  SELECT CAST(spine.m AS BIGINT) AS m, COALESCE(cen.cents, 0) AS rev_cents
  FROM spine LEFT JOIN cen USING (m)
)
SELECT m, CAST(rev_cents AS BIGINT) AS rev_cents,
       CAST(CASE WHEN row_number() OVER (ORDER BY m) >= {TREND_W}
                 THEN SUM(rev_cents) OVER (ORDER BY m
                      ROWS BETWEEN {TREND_W - 1} PRECEDING AND CURRENT ROW)
                 END AS DOUBLE) AS ma12_cents
FROM dense
"""


def orders_theilsen(sf_dir: str):
    """Theil–Sen robust slope of the daily-revenue series — the median
    of ALL pairwise slopes (Δrevenue/Δday over every day pair), the
    breakdown-resistant trend estimator (up to 29% outlier days cannot
    move it — unlike the OLS slope in ``lineitem_regression``).

    Exact-integer contract: each slope travels as
    ``trunc((Δcents·10⁶)/Δdays)`` — numerator widened to HUGEINT in the
    oracle, trunc-toward-zero division mirrored on the numpy side
    (den>0 always, so trunc = floordiv + (rem≠0 ∧ num<0)) — and the
    median itself NEVER divides: the two middle order statistics are
    emitted as int64 (equal when the pair count is odd).

    Shape: per-row (day, cents) columns folded by ``fold_groups`` → a
    calendar-bounded driver artifact (≤ one row per day at ANY scale) → the
    O(days²) pairwise stage runs vectorized on the bounded series
    (the ``orders_trend`` / ``events_dau_mau`` bounded-artifact
    pattern)."""
    import numpy as np

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").view("int64")
        cents = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"d": d, "cents": cents})

    cen = fold_groups(  # calendar-bounded artifact
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["d"], [("cents", "sum")]).set_index("d")["cents"]
    d = cen.index.to_numpy("int64")
    r = cen.to_numpy("int64")
    i, j = np.triu_indices(len(d), k=1)
    num = (r[j] - r[i]) * 1_000_000
    den = d[j] - d[i]
    q = num // den
    q += ((num % den != 0) & (num < 0)).astype("int64")  # floor → trunc
    q.sort()
    m = len(q)
    return pd.DataFrame(
        {"n_days": pd.array([len(d)], "int64"),
         "n_pairs": pd.array([m], "int64"),
         "slope_mid_lo": pd.array([int(q[(m - 1) // 2])], "int64"),
         "slope_mid_hi": pd.array([int(q[m // 2])], "int64")}
    )


ORDERS_THEILSEN_SQL = """
WITH cen AS (
  SELECT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT) AS d,
         CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS r
  FROM orders GROUP BY 1
),
p AS (
  SELECT CAST((CAST(b.r - a.r AS HUGEINT) * 1000000) // (b.d - a.d)
              AS BIGINT) AS s
  FROM cen a JOIN cen b ON b.d > a.d
),
rk AS (SELECT s, row_number() OVER (ORDER BY s) AS rn,
              COUNT(*) OVER () AS m
       FROM p)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM cen) AS n_days,
       CAST(MAX(m) AS BIGINT) AS n_pairs,
       CAST(MAX(CASE WHEN rn = (m + 1) // 2 THEN s END) AS BIGINT)
         AS slope_mid_lo,
       CAST(MAX(CASE WHEN rn = m // 2 + 1 THEN s END) AS BIGINT)
         AS slope_mid_hi
FROM rk
"""


# -- zone-mapped range scan ------------------------------------------------------

ZM_LO = np.datetime64("1996-01-01", "us")
ZM_HI = np.datetime64("1996-06-30", "us")


def _zonemap_shards(sf_dir: str) -> str:
    """Build-once month-sharded copy of lineitem + its persisted zone
    map under /tmp (the data-lake layout the zone map serves: many
    shard files whose l_shipdate ranges don't overlap across months).
    Task-side pyarrow writes — the corpus never materializes driver-
    side; file names are content-hashed (idempotent re-build)."""
    import hashlib
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.zonemap import ZONEMAP_VERSION, build_zonemap

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/mkg_zonemap/{tag}"
    man = os.path.join(root, "_MANIFEST.json")
    if os.path.exists(man):
        with open(man) as fh:
            if json.load(fh).get("version") == ZONEMAP_VERSION:
                return root
    os.makedirs(f"{root}/shards", exist_ok=True)

    def write_months(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        month = (b["l_shipdate"].to_numpy()
                 .astype("datetime64[M]").astype(str))
        for m, sub in b.groupby(month, sort=False):
            t = pa.Table.from_pandas(
                sub.reset_index(drop=True), preserve_index=False
            ).replace_schema_metadata(None)
            h = hashlib.md5(
                (m + "|" + str(pd.util.hash_pandas_object(
                    sub["l_orderkey"], index=False).sum())).encode()
            ).hexdigest()[:12]
            path = f"{root}/shards/m={m}-{h}.parquet"
            if not os.path.exists(path):
                pq.write_table(t, path + ".tmp", row_group_size=65536)
                os.replace(path + ".tmp", path)
            out.append((m, path, len(sub)))
        return pd.DataFrame(out, columns=["month", "path", "n"])

    _read(sf_dir, "lineitem",
          columns=["l_orderkey", "l_shipdate", "l_extendedprice"]
          ).map_batches(arrow_out(write_months), batch_format="pandas"
                        ).to_pandas()  # ≤ #batches×#months manifest rows
    files = [f"{root}/shards/{f}" for f in sorted(os.listdir(f"{root}/shards"))
             if f.endswith(".parquet")]
    build_zonemap(files, "l_shipdate", out_dir=root)
    with open(man, "w") as fh:
        json.dump({"version": ZONEMAP_VERSION, "n_files": len(files)}, fh)
    return root


def lineitem_zonemap_scan(sf_dir: str) -> pd.DataFrame:
    """Monthly line count + revenue over a shipdate range served through
    the persisted ZONE MAP (`stages/zonemap.py`): the scan opens ONLY
    shard files whose [min, max] intersects the range — file-level
    pruning stacked on Parquet's own row-group stats (pruning measured
    to bite in `tests/test_operators.py`).  The aggregate itself is the
    exact int64-cent month census."""
    from ..stages.zonemap import load_zonemap, pruned_range_read

    root = _zonemap_shards(sf_dir)
    zones = load_zonemap(root)
    ds, _n_sel, _n_tot = pruned_range_read(
        zones, "l_shipdate", ZM_LO, ZM_HI,
        columns=["l_shipdate", "l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        month = (b["l_shipdate"].to_numpy()
                 .astype("datetime64[M]").astype("datetime64[us]"))
        c = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"month": month, "c": c, "n": 1})

    agg = fold_groups(  # ≤ months-in-range rows
        ds.map_batches(arrow_out(partial), batch_format="pandas"),
        ["month"], [("c", "sum"), ("n", "sum")])
    return pd.DataFrame(
        {"month": agg["month"].to_numpy().astype("datetime64[us]"),
         "n_lines": agg["n"].astype("int64"),
         "revenue": agg["c"].astype("int64") / 100.0}
    )


ZONEMAP_SCAN_SQL = """
SELECT date_trunc('month', l_shipdate) AS month,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       SUM(CAST(round(l_extendedprice*100) AS BIGINT))/100.0 AS revenue
FROM lineitem
WHERE l_shipdate BETWEEN TIMESTAMP '1996-01-01'
                     AND TIMESTAMP '1996-06-30'
GROUP BY 1
"""


# -- bitmap-index boolean-predicate counts --------------------------------------

BITMAP_COMBOS: dict[str, list[tuple[str, list[str], bool]]] = {
    "rf_R_and_ls_F": [("l_returnflag", ["R"], False),
                      ("l_linestatus", ["F"], False)],
    "rf_A_or_N_not_ls_O": [("l_returnflag", ["A", "N"], False),
                           ("l_linestatus", ["O"], True)],
    "not_rf_R": [("l_returnflag", ["R"], True)],
    "rf_R_y94_95": [("l_returnflag", ["R"], False),
                    ("l_shipyear", ["1994", "1995"], False)],
}


def _bitmap_index(sf_dir: str) -> str:
    """Build-once persisted bitmap index over lineitem's low-cardinality
    columns (returnflag / linestatus / derived ship YEAR) under /tmp —
    the build-once / serve-many contract shared with `_zonemap_shards`.
    Fixed 64 buckets keep the cached artifact identical across the
    gate's 4-CPU and the bench's 32-CPU sessions."""
    import os

    from ..stages.bitmap import (BITMAP_VERSION, build_bitmap_index,
                                 load_manifest)

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/mkg_bitmap/{tag}"
    man = load_manifest(root)
    if man and man.get("version") == BITMAP_VERSION:
        return root
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_returnflag",
                        "l_linestatus", "l_shipdate"])

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        y = b["l_shipdate"].to_numpy().astype("datetime64[Y]")
        out = b[["l_orderkey", "l_linenumber", "l_returnflag",
                 "l_linestatus"]].copy()
        out["l_shipyear"] = pd.array(
            (y.astype("int64") + 1970).astype(str), "str")
        return out

    build_bitmap_index(
        li.map_batches(arrow_out(derive), batch_format="pandas"),
        ["l_orderkey", "l_linenumber"],
        ["l_returnflag", "l_linestatus", "l_shipyear"],
        root, num_buckets=64,
    )
    return root


def lineitem_bitmap_counts(sf_dir: str) -> pd.DataFrame:
    """Boolean-predicate counts (AND / OR / NOT across columns) served
    ENTIRELY from the persisted bitmap index (`stages/bitmap.py`) — the
    data pages are never touched after the build: one pruned read of
    exactly the predicate's (col, value) bitsets, bitwise combine per
    bucket, ≤ #buckets count rows to the driver."""
    from ..stages.bitmap import bitmap_counts

    root = _bitmap_index(sf_dir)
    return bitmap_counts(root, BITMAP_COMBOS)


BITMAP_COUNTS_SQL = """
SELECT 'not_rf_R' AS combo, CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem WHERE NOT l_returnflag = 'R'
UNION ALL
SELECT 'rf_A_or_N_not_ls_O', CAST(COUNT(*) AS BIGINT)
FROM lineitem
WHERE l_returnflag IN ('A', 'N') AND NOT l_linestatus = 'O'
UNION ALL
SELECT 'rf_R_and_ls_F', CAST(COUNT(*) AS BIGINT)
FROM lineitem WHERE l_returnflag = 'R' AND l_linestatus = 'F'
UNION ALL
SELECT 'rf_R_y94_95', CAST(COUNT(*) AS BIGINT)
FROM lineitem
WHERE l_returnflag = 'R' AND year(l_shipdate) IN (1994, 1995)
"""


# -- Theil inequality decomposition of supplier revenue by nation ---------------

def supplier_theil(sf_dir: str):
    """Theil-T inequality decomposition of per-supplier revenue BY NATION
    — the additive cousin of ``supplier_gini``: T_total = T_between +
    Σ_g share_g·T_within_g, so each nation row carries its within-group
    inequality plus its between-group term, and auditors can roll the
    decomposition up exactly.

    Exactness: per-supplier revenue r is an exact integer (1e-4 dollar
    units, same contract as gini/HHI); the only transcendental inputs
    are ln's of those exact integers, and each supplier's r·ln(r) addend
    is pre-rounded to an integer centi-unit (``floor(r·ln(r)·100+0.5)``)
    so the per-nation sums are exact int64 limbs — summation order never
    matters.  The final ≤25-row formula is mirrored term-for-term in
    the oracle (identical doubles in, identical doubles out — no
    rounding needed).

    Shape: per-batch (suppkey, revenue) combiner → ONE bucketed
    exchange on suppkey → in-bucket supplier totals + broadcast
    suppkey→nation resolve → per-nation limbed partials (≤ buckets×25
    rows to the driver)."""
    import math

    import ray

    from ..stages.shuffle import bucketed_group_map

    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])
    nation = _read_dim(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    name_by_key = dict(zip(nation["n_nationkey"].astype(int),
                           nation["n_name"]))
    supp = _read(sf_dir, "supplier",
                 columns=["s_suppkey", "s_nationkey"]).to_pandas()
    supp = supp.sort_values("s_suppkey")
    supp_ref = ray.put((supp["s_suppkey"].to_numpy("int64"),
                        supp["s_nationkey"].to_numpy("int64")))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        u = np.rint(
            b["l_extendedprice"].to_numpy()
            * (1.0 - b["l_discount"].to_numpy()) * 10_000
        ).astype("int64")
        return (
            pd.DataFrame({"suppkey": b["l_suppkey"].astype("int64"), "u": u})
            .groupby("suppkey", sort=False, as_index=False)["u"].sum()
        )

    LIMB = 10 ** 15

    def nation_partial(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("suppkey", sort=False, as_index=False)["u"].sum()
        keys, nats = ray.get(supp_ref)
        pos = np.searchsorted(keys, tot["suppkey"].to_numpy("int64"))
        rows = {}
        for nk, r in zip(nats[pos], tot["u"].to_numpy("int64")):
            r = int(r)
            term = math.floor(float(r) * math.log(float(r)) * 100 + 0.5)
            n, s, t = rows.get(int(nk), (0, 0, 0))
            rows[int(nk)] = (n + 1, s + r, t + term)
        out = pd.DataFrame(
            [(nk, n, s % LIMB, s // LIMB, t % LIMB, t // LIMB)
             for nk, (n, s, t) in rows.items()],
            columns=["nationkey", "n", "s_lo", "s_hi", "t_lo", "t_hi"],
        )
        return out.astype("int64")

    agg = fold_groups(  # ≤ 25 rows
        bucketed_group_map(
            li.map_batches(arrow_out(partial), batch_format="pandas",
                           batch_size=65536),
            ["suppkey"], nation_partial,
        ), ["nationkey"],
        [(c, "sum") for c in ("n", "s_lo", "s_hi", "t_lo", "t_hi")],
    ).set_index("nationkey")
    per = {
        int(nk): (int(r.n), int(r.s_hi) * LIMB + int(r.s_lo),
                  int(r.t_hi) * LIMB + int(r.t_lo))
        for nk, r in agg.iterrows()
    }
    st = float(sum(s for _, s, _ in per.values()))
    nt = sum(n for n, _, _ in per.values())
    rows = []
    for nk in per:
        n, s, t = per[nk]
        share = float(s) / st
        rows.append({
            "nation": str(name_by_key[nk]),
            "n_suppliers": n,
            "revenue": float(s) / 10000.0,
            "share": share,
            "theil_within": float(t) / 100.0 / float(s)
                            + math.log(n) - math.log(float(s)),
            "theil_between_term": share * (
                math.log(float(s)) - math.log(n)
                - math.log(st) + math.log(nt)),
        })
    out = pd.DataFrame(rows)
    return pd.DataFrame(
        {"nation": out["nation"].astype(str),
         "n_suppliers": out["n_suppliers"].astype("int64"),
         "revenue": out["revenue"].astype("float64"),
         "share": out["share"].astype("float64"),
         "theil_within": out["theil_within"].astype("float64"),
         "theil_between_term": out["theil_between_term"].astype("float64")}
    )


SUPPLIER_THEIL_SQL = """
WITH rev AS (
  SELECT l_suppkey AS suppkey,
         SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)) AS r
  FROM lineitem GROUP BY 1
), sn AS (
  SELECT n_name AS nation, r
  FROM rev JOIN supplier ON s_suppkey = suppkey
           JOIN nation ON n_nationkey = s_nationkey
), g AS (
  SELECT nation, COUNT(*) AS n_suppliers, SUM(r) AS s,
         SUM(CAST(floor(CAST(r AS DOUBLE) * ln(CAST(r AS DOUBLE)) * 100 + 0.5)
                  AS BIGINT)) AS terms
  FROM sn GROUP BY nation
), tot AS (
  SELECT CAST(SUM(s) AS DOUBLE) AS st, SUM(n_suppliers) AS nt FROM g
)
SELECT nation,
       CAST(n_suppliers AS BIGINT) AS n_suppliers,
       CAST(s AS DOUBLE) / 10000.0 AS revenue,
       CAST(s AS DOUBLE) / st AS share,
       CAST(terms AS DOUBLE) / 100.0 / CAST(s AS DOUBLE)
         + ln(n_suppliers) - ln(CAST(s AS DOUBLE)) AS theil_within,
       (CAST(s AS DOUBLE) / st)
         * (ln(CAST(s AS DOUBLE)) - ln(n_suppliers) - ln(st) + ln(nt))
         AS theil_between_term
FROM g, tot
"""


# -- pairwise Pearson correlation matrix over lineitem measures ------------------

_CORR_COLS = [("quantity", "l_quantity", 1),
              ("extendedprice", "l_extendedprice", 100),
              ("discount", "l_discount", 100),
              ("tax", "l_tax", 100)]


def lineitem_corr_matrix(sf_dir: str):
    """All 6 pairwise Pearson correlations between the four lineitem
    measures — the feature-correlation screen every tabular-ML prep
    pipeline runs.  Generalizes ``lineitem_regression``'s mergeable
    exact-moment contract to the full moment MATRIX: every Σx, Σx²,
    Σx·y is an exact integer (values pre-scaled to integers), every wide sum
    travels as TWO int64 limbs, and the driver reassembles Python
    bigints — zero precision drift at any parallelism.  The ≤6-row
    finalize mirrors the oracle term-for-term (identical doubles in,
    6-dp round out)."""
    import math

    li = _read(sf_dir, "lineitem",
               columns=[src for _, src, _ in _CORR_COLS])

    LIMB = 10 ** 15
    names = [n for n, _, _ in _CORR_COLS]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cols = [np.rint(b[src].to_numpy() * scale).astype("int64")
                for _, src, scale in _CORR_COLS]
        vals = {"n": len(b)}
        for i, c in enumerate(cols):
            for tag, s in ((f"s{i}", int(c.sum())),
                           (f"q{i}", int((c * c).sum()))):
                vals[f"{tag}_lo"], vals[f"{tag}_hi"] = s % LIMB, s // LIMB
        for i, j in pairs:
            s = int((cols[i] * cols[j]).sum())
            vals[f"c{i}{j}_lo"], vals[f"c{i}{j}_hi"] = s % LIMB, s // LIMB
        return pd.DataFrame([vals]).astype("int64")

    sums = ["n"] + [f"{t}{i}_{limb}" for i in range(4) for t in ("s", "q")
                    for limb in ("lo", "hi")] + [
        f"c{i}{j}_{limb}" for i, j in pairs for limb in ("lo", "hi")]
    agg = fold_groups(
        li.map_batches(arrow_out(partial), batch_format="pandas",
                       batch_size=16384),
        [], [(c, "sum") for c in sums]).iloc[0]
    tot = {c: int(agg[c]) for c in sums}
    n = tot["n"]

    def big(tag: str) -> int:
        return tot[f"{tag}_hi"] * LIMB + tot[f"{tag}_lo"]

    rows = []
    for i, j in pairs:
        num = n * big(f"c{i}{j}") - big(f"s{i}") * big(f"s{j}")
        di = n * big(f"q{i}") - big(f"s{i}") ** 2
        dj = n * big(f"q{j}") - big(f"s{j}") ** 2
        corr = (float(num) / math.sqrt(float(di) * float(dj))
                if di > 0 and dj > 0 else 0.0)
        rows.append({"col_x": names[i], "col_y": names[j],
                     "n": n, "corr": round(corr, 6)})
    out = pd.DataFrame(rows)
    return pd.DataFrame(
        {"col_x": out["col_x"].astype(str),
         "col_y": out["col_y"].astype(str),
         "n": out["n"].astype("int64"),
         "corr": out["corr"].astype("float64")}
    )


def _corr_pair_sql(nx: str, cx: str, sx: int, ny: str, cy: str, sy: int) -> str:
    return f"""
SELECT '{nx}' AS col_x, '{ny}' AS col_y, CAST(COUNT(*) AS BIGINT) AS n,
       round(CAST(COUNT(*) * SUM(x*y) - SUM(x) * SUM(y) AS DOUBLE)
             / sqrt(CAST(COUNT(*) * SUM(x*x) - SUM(x) * SUM(x) AS DOUBLE)
                    * CAST(COUNT(*) * SUM(y*y) - SUM(y) * SUM(y) AS DOUBLE)),
             6) AS corr
FROM (SELECT CAST(round({cx} * {sx}) AS BIGINT) AS x,
             CAST(round({cy} * {sy}) AS BIGINT) AS y FROM lineitem)
"""


CORR_MATRIX_SQL = " UNION ALL ".join(
    _corr_pair_sql(nx, cx, sx, ny, cy, sy)
    for k, (nx, cx, sx) in enumerate(_CORR_COLS)
    for (ny, cy, sy) in _CORR_COLS[k + 1:]
)


# -- Wald-Wolfowitz runs test on the daily revenue series -----------------------

def orders_runs_test(sf_dir: str):
    """Wald–Wolfowitz runs test for randomness of the daily-revenue
    sign sequence (above/below the median day): the nonparametric
    trend/clustering detector next to ``events_mannwhitney`` and
    ``events_ks_test``.  R runs among n₊ above / n₋ below days gives
    z = (R − μ)/σ, μ = 2n₊n₋/n + 1, σ² = 2n₊n₋(2n₊n₋−n)/(n²(n−1)).

    Exactness: daily revenue is an exact cent census (two-phase
    combiner, folded on the driver by day); the pivot is the
    LOWER-MEDIAN ELEMENT (rank (n+1)//2, a real data point — no
    interpolation), tie days (== pivot) are dropped per the classic
    test, and R, n₊, n₋ are pure integers, so the single z expression
    is mirrored term-for-term on identical doubles.  The day census is
    a bounded artifact (≤ #days rows) — finalize runs driver-side."""
    import math

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"day": b["o_orderdate"], "c": c})

    daily = fold_groups(  # ≤ #days rows
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["day"], [("c", "sum")])
    rev = daily["c"].to_numpy("int64")
    nd = len(rev)
    pivot = int(np.sort(rev)[(nd + 1) // 2 - 1])
    sign = rev[rev != pivot] > pivot  # ties dropped, date order kept
    a = int(sign.sum())
    b_ = int(len(sign) - a)
    n = a + b_
    runs = int(1 + np.count_nonzero(sign[1:] != sign[:-1])) if n else 0
    mu = 2.0 * a * b_ / n + 1.0
    var = (2.0 * a * b_ * (2.0 * a * b_ - n)) / (n * n * (n - 1.0))
    z = (runs - mu) / math.sqrt(var)
    return pd.DataFrame(
        {"n_days": pd.array([nd], "int64"),
         "n_above": pd.array([a], "int64"),
         "n_below": pd.array([b_], "int64"),
         "runs": pd.array([runs], "int64"),
         "z": pd.array([z], "float64")}
    )


RUNS_TEST_SQL = """
WITH daily AS (
  SELECT o_orderdate AS day,
         SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS c
  FROM orders GROUP BY 1
), piv AS (
  SELECT c AS pv FROM (
    SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn,
           COUNT(*) OVER () AS cnt
    FROM daily
  ) WHERE rn = (cnt + 1) // 2
), signs AS (
  SELECT day, (c > pv) AS up FROM daily, piv WHERE c != pv
), flips AS (
  SELECT up, CASE WHEN up != lag(up) OVER (ORDER BY day) THEN 1 ELSE 0 END AS flip
  FROM signs
), agg AS (
  SELECT SUM(CASE WHEN up THEN 1 ELSE 0 END) AS a,
         SUM(CASE WHEN up THEN 0 ELSE 1 END) AS b,
         1 + SUM(flip) AS runs,
         COUNT(*) AS n
  FROM flips
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM daily) AS n_days,
       CAST(a AS BIGINT) AS n_above,
       CAST(b AS BIGINT) AS n_below,
       CAST(runs AS BIGINT) AS runs,
       (runs - (2.0 * a * b / n + 1.0))
         / sqrt((2.0 * a * b * (2.0 * a * b - n)) / (n * n * (n - 1.0))) AS z
FROM agg
"""


# -- inclusion-dependency (FK) discovery ------------------------------------------

_FK_CANDIDATES = [
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    # negative control: a non-FK pair the discovery must reject
    ("orders", "o_custkey", "supplier", "s_suppkey"),
]


def tables_fk_discovery(sf_dir: str):
    """Inclusion-dependency mining over candidate key pairs — the
    FK-discovery half of the profiling family (``tables_profile`` /
    ``tables_integrity`` verify DECLARED constraints; this one measures
    containment(child ⊆ parent) so undeclared joins — and
    near-misses — surface, including a negative control pair.

    ALL candidate pairs ride ONE bucketed hash exchange of tagged
    (pair, value, side) rows — each TABLE is read once (all its child
    and parent roles emitted from one pruned scan; a union branch
    costs ~1-2 s of fixed execution wall regardless of rows, so
    14 branches → 6 was half the win), both sides deduped batch-side
    so the exchange carries ≤ Σ distinct values, and each bucket counts
    its pairs' matches with one vectorized merge.  The per-pair driver
    loop this replaced cost one chained execution PER PAIR (22 s at
    sf0.1 vs ~7 s folded — the minimize-EXECUTIONS lesson).
    Containment is a ratio of exact integers, rounded 6 dp on both
    sides."""
    from ..stages.shuffle import bucketed_group_map, default_num_buckets

    roles: dict[str, list[tuple[str, int, int]]] = {}
    for idx, (ct, cc, pt, pcol) in enumerate(_FK_CANDIDATES):
        roles.setdefault(ct, []).append((cc, 0, idx))
        roles.setdefault(pt, []).append((pcol, 1, idx))

    parts = []
    for tbl, rl in roles.items():
        def tag_all(rl):
            def fn(b: pd.DataFrame) -> pd.DataFrame:
                outs = []
                for col, side, idx in rl:
                    v = np.unique(b[col].to_numpy().astype("int64"))
                    outs.append(pd.DataFrame(
                        {"pair": np.full(len(v), idx, dtype="int64"),
                         "v": v,
                         "side": np.full(len(v), side, dtype="int64")}))
                return pd.concat(outs, ignore_index=True)
            return fn

        cols = sorted({c for c, _, _ in rl})
        parts.append(_read(sf_dir, tbl, columns=cols).map_batches(
            arrow_out(tag_all(rl)), batch_format="pandas"))
    uni = parts[0]
    for p in parts[1:]:
        uni = uni.union(p)
    # pin + coalesce the union of tagged-distinct partials: the
    # downstream groupby's schema fetch would re-execute every read
    # (the measured 2x union trap), and the per-batch dedup already
    # bounded the rows to <= sum of distinct values
    uni = uni.repartition(default_num_buckets()).materialize()

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["pair", "v", "side"])
        d0 = d.loc[d["side"] == 0, ["pair", "v"]]
        d1 = d.loc[d["side"] == 1, ["pair", "v"]].assign(m=1)
        mg = d0.merge(d1, on=["pair", "v"], how="left")
        return pd.DataFrame({"pair": mg["pair"].astype("int64"), "nc": 1,
                             "nm": mg["m"].notna().astype("int64")})

    fold = fold_groups(
        bucketed_group_map(uni, ["pair", "v"], count_bucket), ["pair"],
        [("nc", "sum"), ("nm", "sum")],
    ).set_index("pair").reindex(range(len(_FK_CANDIDATES)), fill_value=0)
    rows = []
    for idx, (ct, cc, pt, pcol) in enumerate(_FK_CANDIDATES):
        nc, nm = int(fold.loc[idx, "nc"]), int(fold.loc[idx, "nm"])
        rows.append({"child_table": ct, "child_col": cc,
                     "parent_table": pt, "parent_col": pcol,
                     "n_child_distinct": nc, "n_matched": nm,
                     "containment": round(nm / nc, 6)})
    out = pd.DataFrame(rows)
    return pd.DataFrame(
        {"child_table": out["child_table"].astype(str),
         "child_col": out["child_col"].astype(str),
         "parent_table": out["parent_table"].astype(str),
         "parent_col": out["parent_col"].astype(str),
         "n_child_distinct": out["n_child_distinct"].astype("int64"),
         "n_matched": out["n_matched"].astype("int64"),
         "containment": out["containment"].astype("float64")}
    )


def _fk_pair_sql(ct: str, cc: str, pt: str, pc: str) -> str:
    return f"""
SELECT '{ct}' AS child_table, '{cc}' AS child_col,
       '{pt}' AS parent_table, '{pc}' AS parent_col,
       (SELECT CAST(COUNT(DISTINCT {cc}) AS BIGINT) FROM {ct})
         AS n_child_distinct,
       (SELECT CAST(COUNT(DISTINCT {ct}.{cc}) AS BIGINT)
          FROM {ct} JOIN {pt} ON {ct}.{cc} = {pt}.{pc}) AS n_matched,
       round(CAST((SELECT COUNT(DISTINCT {ct}.{cc})
                   FROM {ct} JOIN {pt} ON {ct}.{cc} = {pt}.{pc}) AS DOUBLE)
             / (SELECT COUNT(DISTINCT {cc}) FROM {ct}), 6) AS containment
"""


FK_DISCOVERY_SQL = " UNION ALL ".join(
    _fk_pair_sql(*p) for p in _FK_CANDIDATES
)


# -- classical seasonal decomposition of daily revenue ---------------------------

def orders_seasonal_decompose(sf_dir: str):
    """Classical (moving-average) seasonal decomposition of the daily
    revenue series, summarized per weekday: trend = centered 7-day MA,
    seasonal(dow) = mean of (value − trend) over that weekday — the
    STL-lite every ops dashboard runs.

    Exactness: the 7-day trend SUM is an exact int64 (cent census), so
    each detrended addend is the exact integer 7·c − T ("centi-cents
    ×7" units) and the per-weekday mean is ONE mirrored double division
    Σ(7c−T)/(7n).  Edge days (incomplete window) drop on both sides
    (the SQL counts frame rows).  The day census is the distributed
    part (one pass, folded on the driver); the ≤7-row finalize is driver-side."""

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"day": b["o_orderdate"], "c": c})

    daily = fold_groups(  # ≤ #days rows
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["day"], [("c", "sum")])
    c = daily["c"].to_numpy("int64")
    nd = len(c)
    # centered 7-day rolling sum, full windows only (positions 3..nd-4)
    cs = np.concatenate(([0], np.cumsum(c)))
    t7 = cs[7:] - cs[:-7]  # T[i] = sum of c[i..i+6]
    mid = np.arange(3, nd - 3)
    detr = 7 * c[mid] - t7  # exact int: 7·value − trend_sum
    # ISO weekday of the middle day (DuckDB isodow: Mon=1..Sun=7)
    dow = pd.to_datetime(daily["day"].to_numpy()[mid]).isocalendar().day \
            .to_numpy().astype("int64")
    g = pd.DataFrame({"dow": dow, "d": detr}).groupby("dow")
    n = g["d"].size()
    s = g["d"].sum()
    return pd.DataFrame(
        {"isodow": pd.array(n.index.to_numpy(), "int64"),
         "n_days": pd.array(n.to_numpy(), "int64"),
         "seasonal": (s.to_numpy("int64").astype("float64")
                      / (7.0 * n.to_numpy("int64").astype("float64"))
                      / 100.0)}
    )


SEASONAL_SQL = """
WITH daily AS (
  SELECT o_orderdate AS day,
         SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS c
  FROM orders GROUP BY 1
), win AS (
  SELECT day, c,
         SUM(c) OVER (ORDER BY day ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
           AS t7,
         COUNT(*) OVER (ORDER BY day ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
           AS w
  FROM daily
), detr AS (
  SELECT isodow(day) AS isodow, 7 * c - t7 AS d
  FROM win WHERE w = 7
)
SELECT CAST(isodow AS BIGINT) AS isodow,
       CAST(COUNT(*) AS BIGINT) AS n_days,
       CAST(SUM(d) AS DOUBLE) / (7.0 * COUNT(*)) / 100.0 AS seasonal
FROM detr GROUP BY isodow
"""


# -- functional-dependency discovery ---------------------------------------------

FD_CANDIDATES: list[tuple[str, str, str]] = [
    ("customer", "c_custkey", "c_mktsegment"),
    ("lineitem", "l_orderkey", "l_returnflag"),
    ("lineitem", "l_partkey", "l_suppkey"),
    ("nation", "n_name", "n_regionkey"),
    ("nation", "n_regionkey", "n_name"),
    ("orders", "o_custkey", "o_orderstatus"),
    ("orders", "o_orderkey", "o_orderpriority"),
    ("part", "p_brand", "p_type"),
]


def tables_fd_discovery(sf_dir: str) -> pd.DataFrame:
    """Functional-dependency discovery (det → dep) over a candidate
    list — the data-profiling sibling of `tables_fk_discovery`
    (inclusion): the FD holds iff |distinct det| == |distinct
    (det, dep)|, and the violation count is their difference.

    Shape: each table is read ONCE (union of its candidates' columns,
    column-pruned); per-batch DISTINCT (cand, det, dep) combiners
    collapse the exchange to the candidate-pair cardinality, then ONE
    (cand, det)-bucketed exchange finalizes both distinct censuses
    exactly (det-complete buckets) and ≤ buckets×|cands| partial rows
    fold driver-side.  The exchange payload is PURE int64: integer
    columns ride verbatim (injective), string columns as vectorized
    64-bit md5 (collision-free on these ≤150-value domains; a
    float64+object-string payload measured 25 s at sf0.1, dominated by
    per-row str conversions and object blocks through the shuffle)."""
    import ray.data as rd

    from ..functions.hashing import md5_int_vec
    from ..stages.shuffle import bucketed_group_map

    by_table: dict[str, list[tuple[int, str, str]]] = {}
    for i, (tbl, det, dep) in enumerate(FD_CANDIDATES):
        by_table.setdefault(tbl, []).append((i, det, dep))

    parts = []
    for tbl, cands in sorted(by_table.items()):
        cols = sorted({c for _, det, dep in cands for c in (det, dep)})
        ds = _read(sf_dir, tbl, columns=cols)

        def make_partial(cands=cands):
            def _as_i64(col: pd.Series) -> np.ndarray:
                if pd.api.types.is_numeric_dtype(col):
                    return col.to_numpy("int64")
                return md5_int_vec(col.to_numpy(), bits=64).view("int64")

            def partial(b: pd.DataFrame) -> pd.DataFrame:
                enc = {c: _as_i64(b[c]) for c in b.columns}
                frames = []
                for cid, det, dep in cands:
                    sub = pd.DataFrame(
                        {"det": enc[det], "dep": enc[dep]}
                    ).drop_duplicates()
                    sub.insert(0, "cand", np.int64(cid))
                    frames.append(sub)
                return pd.concat(frames, ignore_index=True)

            return partial

        parts.append(ds.map_batches(arrow_out(make_partial()),
                                    batch_format="pandas"))
    uni = parts[0]
    for p in parts[1:]:
        uni = uni.union(p)
    # pin the combined partials: the downstream groupby's schema fetch
    # partially executes the plan and the UNION then re-executes every
    # table read (the measured 2× union trap) — the partials are the
    # post-combiner distinct rows, a bounded fraction of the input.
    # COALESCE while pinning: the union leaves ~320 small blocks and the
    # census sort pays ~30 ms/block of fixed cost (measured 10.8 s
    # fragmented vs 1.4 s at 32 blocks on the same 1.5M rows)
    from ..stages.shuffle import default_num_buckets

    uni = uni.repartition(default_num_buckets()).materialize()

    def census(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["cand", "det", "dep"])
        dd = d.drop_duplicates(["cand", "det"])
        return pd.DataFrame(
            {"cand": np.concatenate([d["cand"].to_numpy("int64"),
                                     dd["cand"].to_numpy("int64")]),
             "n_pairs": np.repeat(np.array([1, 0], "int64"), [len(d), len(dd)]),
             "n_det": np.repeat(np.array([0, 1], "int64"), [len(d), len(dd)])})

    fold = fold_groups(
        bucketed_group_map(uni, ["cand", "det"], census), ["cand"],
        [("n_pairs", "sum"), ("n_det", "sum")],
    ).set_index("cand").reindex(range(len(FD_CANDIDATES)), fill_value=0)
    out = pd.DataFrame(
        {"tbl": pd.array([t for t, _, _ in FD_CANDIDATES], "str"),
         "det": pd.array([d for _, d, _ in FD_CANDIDATES], "str"),
         "dep": pd.array([d for _, _, d in FD_CANDIDATES], "str"),
         "n_det": fold["n_det"].to_numpy("int64"),
         "n_pairs": fold["n_pairs"].to_numpy("int64"),
         "n_violations": (fold["n_pairs"] - fold["n_det"])
         .to_numpy("int64"),
         "holds": (fold["n_pairs"] == fold["n_det"])
         .to_numpy().astype("int64")}
    )
    return out.sort_values(["tbl", "det", "dep"],
                           kind="mergesort").reset_index(drop=True)


def _fd_sql_one(tbl: str, det: str, dep: str) -> str:
    return f"""
SELECT '{tbl}' AS tbl, '{det}' AS det, '{dep}' AS dep,
       (SELECT CAST(COUNT(DISTINCT {det}) AS BIGINT) FROM {tbl}) AS n_det,
       (SELECT CAST(COUNT(*) AS BIGINT)
        FROM (SELECT DISTINCT {det}, {dep} FROM {tbl})) AS n_pairs,
       (SELECT CAST(COUNT(*) AS BIGINT)
        FROM (SELECT DISTINCT {det}, {dep} FROM {tbl}))
       - (SELECT CAST(COUNT(DISTINCT {det}) AS BIGINT) FROM {tbl})
         AS n_violations,
       CAST(CASE WHEN (SELECT COUNT(*)
                       FROM (SELECT DISTINCT {det}, {dep} FROM {tbl}))
                      = (SELECT COUNT(DISTINCT {det}) FROM {tbl})
                 THEN 1 ELSE 0 END AS BIGINT) AS holds"""


FD_DISCOVERY_SQL = "\nUNION ALL\n".join(
    _fd_sql_one(t, det, dep) for t, det, dep in sorted(FD_CANDIDATES)
)


# -- z-order clustered 2-D rectangle scan ----------------------------------------

ZO_PLO, ZO_PHI = 40, 400     # l_partkey range of the query rectangle
ZO_SLO, ZO_SHI = 2, 9        # l_suppkey range

#: observability for tests/bench: (n_files_selected, n_files_total,
#: n_z_ranges) of the last `lineitem_zorder_scan` serve
LAST_ZORDER_PRUNE: tuple[int, int, int] | None = None


def _zorder_shards(sf_dir: str) -> tuple[str, int]:
    """Build-once z-clustered copy of lineitem under /tmp: rows are
    bucketed by the TOP BITS of their Morton code over
    (l_partkey, l_suppkey) — bucket order IS global z order — written
    task-side sorted by z within each shard (tight per-file z stats),
    then zone-mapped on the z column (`stages/zonemap.py`).  The
    coordinate bit width comes from the source footer's column stats
    (metadata-only, no data pass) and is persisted in the manifest so
    serve-time range decomposition uses the exact build-time grid."""
    import hashlib
    import json
    import os

    import pyarrow.parquet as pq
    import pyarrow as pa

    from ..stages.zonemap import ZONEMAP_VERSION, build_zonemap
    from ..stages.zorder import morton2

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/mkg_zorder/{tag}"
    man = os.path.join(root, "_MANIFEST.json")
    version = f"{ZONEMAP_VERSION}-zorder1"
    if os.path.exists(man):
        with open(man) as fh:
            m = json.load(fh)
        if m.get("version") == version:
            return root, int(m["bits"])
    os.makedirs(f"{root}/shards", exist_ok=True)

    # coordinate bit width from footer stats only (one metadata open)
    md = pq.ParquetFile(f"{sf_dir}/lineitem.parquet").metadata
    names = {md.schema.column(i).name: i for i in range(md.num_columns)}
    pmax = smax = 0
    for rg in range(md.num_row_groups):
        pmax = max(pmax, md.row_group(rg).column(names["l_partkey"])
                   .statistics.max)
        smax = max(smax, md.row_group(rg).column(names["l_suppkey"])
                   .statistics.max)
    bits = max(int(pmax).bit_length(), int(smax).bit_length(), 1)
    shift = max(0, 2 * bits - 6)  # top bit-pairs -> <= 64 coarse buckets

    def write_zbuckets(b: pd.DataFrame) -> pd.DataFrame:
        z = morton2(b["l_partkey"].to_numpy("int64"),
                    b["l_suppkey"].to_numpy("int64"))
        b = b.assign(z=z).sort_values("z", kind="mergesort")
        out = []
        for bk, sub in b.groupby(b["z"].to_numpy() >> shift, sort=True):
            t = pa.Table.from_pandas(
                sub.reset_index(drop=True), preserve_index=False
            ).replace_schema_metadata(None)
            h = hashlib.md5(
                (f"{bk}|" + str(pd.util.hash_pandas_object(
                    sub["z"], index=False).sum())).encode()
            ).hexdigest()[:12]
            path = f"{root}/shards/z={bk:05d}-{h}.parquet"
            if not os.path.exists(path):
                pq.write_table(t, path + ".tmp", row_group_size=65536)
                os.replace(path + ".tmp", path)
            out.append((int(bk), path, len(sub)))
        return pd.DataFrame(out, columns=["bucket", "path", "n"])

    _read(sf_dir, "lineitem",
          columns=["l_partkey", "l_suppkey", "l_quantity",
                   "l_extendedprice"]
          ).map_batches(arrow_out(write_zbuckets), batch_format="pandas"
                        ).to_pandas()  # <= #batches x #buckets manifest rows
    files = [f"{root}/shards/{f}" for f in sorted(os.listdir(f"{root}/shards"))
             if f.endswith(".parquet")]
    build_zonemap(files, "z", out_dir=root)
    with open(man, "w") as fh:
        json.dump({"version": version, "bits": bits,
                   "n_files": len(files)}, fh)
    return root, bits


def lineitem_zorder_scan(sf_dir: str) -> pd.DataFrame:
    """Per-supplier line count / quantity / revenue inside a 2-D key
    rectangle, served off the Z-ORDER-CLUSTERED layout: the rectangle
    decomposes into few contiguous Morton ranges
    (`stages/zorder.py:z_ranges_for_rect`), the persisted zone map
    prunes shard files to those ranges, and the pushed-down row filter
    re-checks the rectangle EXACTLY — pruning can only skip files,
    never change the answer.  The Delta/Iceberg OPTIMIZE-ZORDER serve
    path on the engine's own index machinery."""
    import pyarrow.compute as pc

    from ..stages.zonemap import load_zonemap
    from ..stages.zorder import prune_files_by_ranges, z_ranges_for_rect

    global LAST_ZORDER_PRUNE
    root, bits = _zorder_shards(sf_dir)
    zones = load_zonemap(root)
    ranges = z_ranges_for_rect(ZO_PLO, ZO_PHI, ZO_SLO, ZO_SHI,
                               bits=bits, max_ranges=64)
    files = prune_files_by_ranges(zones, ranges)
    n_total = int(zones["path"].nunique())
    LAST_ZORDER_PRUNE = (len(files), n_total, len(ranges))

    empty = pd.DataFrame({"suppkey": pd.Series([], dtype="int64"),
                          "n_lines": pd.Series([], dtype="int64"),
                          "sum_qty": pd.Series([], dtype="int64"),
                          "rev_cents": pd.Series([], dtype="int64")})
    if not files:
        return empty
    flt = ((pc.field("l_partkey") >= ZO_PLO)
           & (pc.field("l_partkey") <= ZO_PHI)
           & (pc.field("l_suppkey") >= ZO_SLO)
           & (pc.field("l_suppkey") <= ZO_SHI))
    ds = read_parquet_clean(
        files, columns=["l_suppkey", "l_quantity", "l_extendedprice"],
        filter=flt)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        qty = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        c = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"suppkey": b["l_suppkey"].astype("int64"),
                             "n": 1, "q": qty, "c": c})

    agg = fold_groups(  # <= #suppliers-in-range rows
        ds.map_batches(arrow_out(partial), batch_format="pandas"),
        ["suppkey"], [("n", "sum"), ("q", "sum"), ("c", "sum")])
    if not len(agg):
        return empty
    return (pd.DataFrame({"suppkey": agg["suppkey"].astype("int64"),
                          "n_lines": agg["n"].astype("int64"),
                          "sum_qty": agg["q"].astype("int64"),
                          "rev_cents": agg["c"].astype("int64")})
            .sort_values("suppkey").reset_index(drop=True))


ZORDER_SCAN_SQL = f"""
SELECT l_suppkey AS suppkey,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT)
         AS rev_cents
FROM lineitem
WHERE l_partkey BETWEEN {ZO_PLO} AND {ZO_PHI}
  AND l_suppkey BETWEEN {ZO_SLO} AND {ZO_SHI}
GROUP BY 1
ORDER BY 1
"""


# -- snapshot diff / reconciliation ----------------------------------------------

def orders_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Keyed DIFF between two table snapshots — the CDC/reconciliation
    operator (what changed between yesterday's and today's lake copy):
    emits one row per added / removed / value-changed key, never the
    unchanged bulk.  Both snapshots are deterministic views of orders
    (v1 drops keys ≡3 mod 10 and perturbs prices of keys ≡2 mod 7;
    v2 drops keys ≡5 mod 13), so the oracle is a plain FULL OUTER JOIN.

    Shape: ONE read pass emits both sides tagged; ONE hash exchange on
    the key co-locates a key's two versions; the in-bucket compare is a
    vectorized outer merge.  The exchange carries (key, side, value)
    triples — at 100 TB the diff never materializes either snapshot
    driver-side, and unchanged keys die inside their bucket."""
    from ..stages.shuffle import bucketed_group_map

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def both_sides(b: pd.DataFrame) -> pd.DataFrame:
        k = b["o_orderkey"].to_numpy("int64")
        p = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        old = pd.DataFrame({"o_orderkey": k, "side": 0,
                            "p": p + np.where(k % 7 == 2, 500, 0)}
                           )[k % 10 != 3]
        new = pd.DataFrame({"o_orderkey": k, "side": 1, "p": p}
                           )[k % 13 != 5]
        out = pd.concat([old, new], ignore_index=True)
        return out.astype({"o_orderkey": "int64", "side": "int64",
                           "p": "int64"})

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        old = g[g["side"] == 0][["o_orderkey", "p"]]
        new = g[g["side"] == 1][["o_orderkey", "p"]]
        m = old.merge(new, on="o_orderkey", how="outer",
                      suffixes=("_old", "_new"))
        po = m["p_old"].to_numpy("float64")
        pn = m["p_new"].to_numpy("float64")
        status = np.where(np.isnan(po), "added",
                          np.where(np.isnan(pn), "removed", "changed"))
        keep = np.isnan(po) | np.isnan(pn) | (po != pn)
        m = m[keep]
        return pd.DataFrame(
            {"o_orderkey": m["o_orderkey"].to_numpy("int64"),
             "status": pd.array(status[keep], "str"),
             "old_price_cents": np.nan_to_num(
                 m["p_old"].to_numpy("float64"), nan=-1).astype("int64"),
             "new_price_cents": np.nan_to_num(
                 m["p_new"].to_numpy("float64"), nan=-1).astype("int64")})

    tagged = ds.map_batches(arrow_out(both_sides), batch_format="pandas")
    out = bucketed_group_map(tagged, ["o_orderkey"], diff).to_pandas()
    # <= |added| + |removed| + |changed| rows reach the driver — the
    # diff itself, never the snapshots
    return out.sort_values("o_orderkey").reset_index(drop=True)


ORDERS_SNAPSHOT_DIFF_SQL = """
WITH v1 AS (
  SELECT o_orderkey AS k,
         CAST(round(o_totalprice*100) AS BIGINT)
         + CASE WHEN o_orderkey % 7 = 2 THEN 500 ELSE 0 END AS p
  FROM orders WHERE o_orderkey % 10 <> 3),
v2 AS (
  SELECT o_orderkey AS k, CAST(round(o_totalprice*100) AS BIGINT) AS p
  FROM orders WHERE o_orderkey % 13 <> 5)
SELECT COALESCE(v1.k, v2.k) AS o_orderkey,
       CASE WHEN v1.k IS NULL THEN 'added'
            WHEN v2.k IS NULL THEN 'removed'
            ELSE 'changed' END AS status,
       COALESCE(v1.p, -1) AS old_price_cents,
       COALESCE(v2.p, -1) AS new_price_cents
FROM v1 FULL OUTER JOIN v2 ON v1.k = v2.k
WHERE v1.k IS NULL OR v2.k IS NULL OR v1.p <> v2.p
ORDER BY 1
"""


# -- incremental view maintenance of a JOIN view ---------------------------------

def nation_rev_ivm(sf_dir: str, n_chunks: int = 3,
                   state_dir: str | None = None) -> pd.DataFrame:
    """Per-nation revenue JOIN view maintained INCREMENTALLY — the
    delta-join IVM operator (ΔV = ΔA ⋈ B): lineitem arrives in
    ``n_chunks`` micro-batches; each delta joins the base side
    (orders already resolved to nation through the broadcast
    customer dimension) and folds exactly-once into the persistent
    keyed state (`stages/streaming.py` over the upsert table).  The
    folded state equals the one-shot 4-table join aggregate
    bit-for-bit (exact int64 partials, associative addition), so this
    query shares the batch SQL oracle — the incremental/batch
    equivalence IS the correctness gate.

    Scale shape: the resolved base side (o_orderkey → nationkey) is
    materialized ONCE and reused by every delta apply — the persisted
    denormalized artifact a production IVM keeps next to the view.
    The customer resolve is a size-adaptive ``auto_join`` (broadcast
    under the row budget, partitioned ``hash_join`` above it — never an
    unconditional driver-side dimension materialize); deltas arrive via
    ``arrival_chunks`` (per-chunk fragment lists, or a one-scan landing
    split for single-file fixtures — total lineitem scan 1× regardless
    of ``n_chunks``); each apply is one partitioned join with the
    per-nation aggregate fused into the join buckets, and the state
    table rewrites touched buckets only.  rev_u outgrows int64 around
    10^14 revenue units per nation — the two-limb contract
    (`lineitem_regression`) is the documented escape."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.joins import auto_join, hash_join
    from ..stages.streaming import (
        arrival_chunks, init_stream_table, microbatch_aggregate,
        stream_state,
    )

    nation = _read_dim(sf_dir, "nation")

    def cust_rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"o_custkey": b["c_custkey"].to_numpy("int64"),
             "nationkey": b["c_nationkey"].to_numpy("int64")})

    cust_ds = _read(sf_dir, "customer",
                    columns=["c_custkey", "c_nationkey"]).map_batches(
        arrow_out(cust_rename), batch_format="pandas")
    cust_rows = pq.ParquetFile(
        f"{sf_dir}/customer.parquet").metadata.num_rows

    def base_cols(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": b["o_orderkey"].to_numpy("int64"),
             "nationkey": b["nationkey"].to_numpy("int64")})

    cust_schema = pa.schema([("o_custkey", pa.int64()),
                             ("nationkey", pa.int64())])
    orders_schema = pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())])
    base = (auto_join(
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
        cust_ds, on=["o_custkey"], right_rows=cust_rows,
        left_schema=orders_schema, right_schema=cust_schema)
        .map_batches(arrow_out(base_cols), batch_format="pandas")
        .materialize())  # reused by every delta apply
    base_schema = pa.schema([("l_orderkey", pa.int64()),
                             ("nationkey", pa.int64())])
    delta_schema = pa.schema([("l_orderkey", pa.int64()),
                              ("u", pa.int64())])

    table_dir = state_dir or tempfile.mkdtemp(prefix="mkg_ivm_")
    init_stream_table(table_dir, "_k")
    chunks = arrival_chunks(
        f"{sf_dir}/lineitem.parquet", n_chunks,
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        land_dir=os.path.join(table_dir, "_arrivals"),
        key_col="l_orderkey",
    )

    def nation_partial(m: pd.DataFrame) -> pd.DataFrame:
        g = (m.groupby("nationkey", sort=False, as_index=False)["u"].sum())
        return g.astype({"nationkey": "int64", "u": "int64"})

    def delta(b: pd.DataFrame) -> pd.DataFrame:
        u = np.rint(b["l_extendedprice"].to_numpy()
                    * (1.0 - b["l_discount"].to_numpy())
                    * 10_000).astype("int64")
        g = (pd.DataFrame({"l_orderkey":
                           b["l_orderkey"].to_numpy("int64"), "u": u})
             .groupby("l_orderkey", sort=False, as_index=False)["u"]
             .sum())
        return g.astype("int64")

    for i, chunk in enumerate(chunks):
        partials = hash_join(
            chunk.map_batches(arrow_out(delta), batch_format="pandas"),
            base, on=["l_orderkey"],
            left_schema=delta_schema, right_schema=base_schema,
            bucket_post=nation_partial)
        microbatch_aggregate(table_dir, f"chunk-{i}", partials,
                             ["nationkey"], ["u"])

    state = stream_state(table_dir).to_pandas()  # <= |nations| rows
    names = dict(zip(nation["n_nationkey"].astype("int64"),
                     nation["n_name"]))
    return (pd.DataFrame(
        {"n_name": pd.array([names[int(k)] for k in state["nationkey"]],
                            "str"),
         "rev_u": state["u"].astype("int64")})
        .sort_values("n_name").reset_index(drop=True))


NATION_REV_IVM_SQL = """
SELECT n.n_name AS n_name,
       CAST(SUM(CAST(round(l.l_extendedprice*(1-l.l_discount)*10000)
                AS BIGINT)) AS BIGINT) AS rev_u
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1
ORDER BY 1
"""


# -- hierarchical share-of-parent rollup ------------------------------------------

def sales_hierarchy_share(sf_dir: str) -> pd.DataFrame:
    """Region → nation revenue rollup with SHARE-OF-PARENT at each
    level (each nation's share of its region and of the world, exact
    integer micro = ``rev·10⁶ // parent_total`` in Python ints — no
    float division anywhere).  The fact side is one partitioned
    lineitem ⋈ (orders resolved to nation map-side through the
    broadcast customer dimension) join with the per-nation aggregate
    fused into the join buckets; the hierarchy math runs on the
    ≤ |nations| census driver-side."""
    import pyarrow as pa
    import ray

    from ..stages.joins import hash_join

    nation = _read_dim(sf_dir, "nation")
    region = _read_dim(sf_dir, "region")
    cust = (_read(sf_dir, "customer",
                  columns=["c_custkey", "c_nationkey"])
            .to_pandas().sort_values("c_custkey"))
    cust_ref = ray.put((cust["c_custkey"].to_numpy(),
                        cust["c_nationkey"].to_numpy().astype("int64")))

    class OrderNation:
        def __init__(self, ref):
            self.ref = ref
            self.keys = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keys is None:
                self.keys, self.nats = ray.get(self.ref)
            ck = b["o_custkey"].to_numpy()
            pos = np.clip(np.searchsorted(self.keys, ck), 0,
                          max(len(self.keys) - 1, 0))
            hit = self.keys[pos] == ck if len(self.keys) else \
                np.zeros(len(b), bool)
            return pd.DataFrame(
                {"l_orderkey": b["o_orderkey"].to_numpy("int64")[hit],
                 "nationkey": self.nats[pos[hit]]})

    base = (_read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
            .map_batches(arrow_out(OrderNation(cust_ref)),
                         batch_format="pandas"))

    def rev_partial(b: pd.DataFrame) -> pd.DataFrame:
        u = np.rint(b["l_extendedprice"].to_numpy()
                    * (1.0 - b["l_discount"].to_numpy())
                    * 10_000).astype("int64")
        g = (pd.DataFrame({"l_orderkey": b["l_orderkey"].to_numpy("int64"),
                           "u": u})
             .groupby("l_orderkey", sort=False, as_index=False)["u"].sum())
        return g.astype("int64")

    def nation_partial(m: pd.DataFrame) -> pd.DataFrame:
        g = m.groupby("nationkey", sort=False, as_index=False)["u"].sum()
        return g.astype({"nationkey": "int64", "u": "int64"})

    li = (_read(sf_dir, "lineitem",
                columns=["l_orderkey", "l_extendedprice", "l_discount"])
          .map_batches(arrow_out(rev_partial), batch_format="pandas"))
    cen = fold_groups(hash_join(
        li, base, on=["l_orderkey"],
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("u", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("nationkey", pa.int64())]),
        bucket_post=nation_partial), ["nationkey"], [("u", "sum")])  # ≤ |nations|

    nat = nation.merge(region, left_on="n_regionkey",
                       right_on="r_regionkey")
    m = cen.merge(nat, left_on="nationkey", right_on="n_nationkey")
    total = int(m["u"].sum())
    rtot = m.groupby("r_name")["u"].transform("sum")
    share_r = [int(u) * 1_000_000 // int(rt)
               for u, rt in zip(m["u"], rtot)]
    share_t = [int(u) * 1_000_000 // total for u in m["u"]]
    return (pd.DataFrame(
        {"r_name": m["r_name"].astype("str"),
         "n_name": m["n_name"].astype("str"),
         "rev_u": m["u"].astype("int64"),
         "share_region_micro": pd.Series(share_r, dtype="int64"),
         "share_total_micro": pd.Series(share_t, dtype="int64")})
        .sort_values(["r_name", "n_name"]).reset_index(drop=True))


SALES_HIERARCHY_SHARE_SQL = """
WITH nat AS (
  SELECT n.n_nationkey, n.n_name, r.r_name
  FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey),
rev AS (
  SELECT c.c_nationkey AS nk,
         SUM(CAST(round(l.l_extendedprice*(1-l.l_discount)*10000)
             AS BIGINT)) AS u
  FROM lineitem l
  JOIN orders o ON l.l_orderkey = o.o_orderkey
  JOIN customer c ON o.o_custkey = c.c_custkey
  GROUP BY 1)
SELECT nat.r_name AS r_name, nat.n_name AS n_name,
       CAST(rev.u AS BIGINT) AS rev_u,
       CAST((1000000 * rev.u)
            // SUM(rev.u) OVER (PARTITION BY nat.r_name) AS BIGINT)
         AS share_region_micro,
       CAST((1000000 * rev.u) // SUM(rev.u) OVER () AS BIGINT)
         AS share_total_micro
FROM rev JOIN nat ON rev.nk = nat.n_nationkey
ORDER BY 1, 2
"""


# -- Holt linear exponential smoothing (integer-exact recursion) ---------------

def orders_holt(sf_dir: str) -> pd.DataFrame:
    """Holt double exponential smoothing (level+trend, α=β=1/2) of
    monthly order revenue, plus the one-step-ahead forecast — the
    classic ops-dashboard trend line.

    Exact contract: the recursion runs entirely in int64 CENTS with an
    explicit floor at each halving — ``l_t = ⌊(x_t + l_{t-1} +
    b_{t-1})/2⌋``, ``b_t = ⌊(l_t − l_{t-1} + b_{t-1})/2⌋`` (Python
    ``//`` ≡ the oracle's ``floor(x/2)``; |values| ≪ 2^52 so the
    double-float floor is exact) — so both engines walk bit-identical
    integer states and the ONE division by 100.0 per output column
    happens on identical ints.

    Shape: distributed per-batch month census (exact int64 cents) →
    ≤ #months driver rows (bounded artifact) → O(months) driver
    recursion.  The oracle is a recursive CTE over the same census."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        month = (
            b["o_orderdate"].to_numpy()
            .astype("datetime64[M]").astype("datetime64[us]")
        )
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"month": month, "c": c})

    agg = fold_groups(  # ≤ #months rows — bounded artifact
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["month"], [("c", "sum")])
    x = [int(v) for v in agg["c"]]
    levels, trends = [], []
    l_prev = b_prev = 0
    for t, xt in enumerate(x):
        if t == 0:
            l_t, b_t = xt, 0
        else:
            l_t = (xt + l_prev + b_prev) // 2
            b_t = (l_t - l_prev + b_prev) // 2
        levels.append(l_t)
        trends.append(b_t)
        l_prev, b_prev = l_t, b_t
    lv = np.array(levels, dtype="int64")
    tr = np.array(trends, dtype="int64")
    return pd.DataFrame(
        {"month": agg["month"].to_numpy().astype("datetime64[us]"),
         "revenue": np.array(x, dtype="int64") / 100.0,
         "level": lv / 100.0,
         "trend": tr / 100.0,
         "forecast_next": (lv + tr) / 100.0}
    )


HOLT_SQL = """
WITH RECURSIVE m AS (
  SELECT date_trunc('month', o_orderdate) AS month,
         SUM(CAST(round(o_totalprice*100) AS BIGINT)) AS c,
         CAST(row_number() OVER (ORDER BY date_trunc('month', o_orderdate))
              AS BIGINT) AS idx
  FROM orders GROUP BY 1
), h(idx, month, x, l, b) AS (
  SELECT idx, month, CAST(c AS BIGINT), CAST(c AS BIGINT),
         CAST(0 AS BIGINT)
  FROM m WHERE idx = 1
  UNION ALL
  SELECT m.idx, m.month, CAST(m.c AS BIGINT),
         CAST(floor(CAST(m.c + h.l + h.b AS DOUBLE) / 2) AS BIGINT),
         CAST(floor((CAST(floor(CAST(m.c + h.l + h.b AS DOUBLE) / 2)
                          AS DOUBLE) - h.l + h.b) / 2) AS BIGINT)
  FROM h JOIN m ON m.idx = h.idx + 1
)
SELECT month, x / 100.0 AS revenue, l / 100.0 AS level,
       b / 100.0 AS trend, (l + b) / 100.0 AS forecast_next
FROM h
"""


# -- isotonic regression (PAVA ≡ minimax identity) ------------------------------

def orders_isotonic(sf_dir: str) -> pd.DataFrame:
    """Weighted isotonic (non-decreasing) regression of the daily average
    order price over date — the monotone-calibration primitive (price
    floors, dose-response curves, probability calibration).

    Algorithm: distributed per-batch (day, Σcents, n) census → ≤ #days
    driver rows (bounded artifact) → pool-adjacent-violators on exact
    integer (sum, weight) pairs, violations compared by int
    cross-multiplication so pooling decisions never touch a float.  The
    oracle uses the classical minimax identity fitted_i =
    max_{j≤i} min_{k≥i} mean(y_j..y_k) — an O(#days²) window in SQL,
    equal to PAVA's pooled means: both engines derive each candidate
    mean as CAST(int sum AS DOUBLE)/int weight, so the achieved optimum
    is the same double bit-for-bit.  avg/fitted stay UNROUNDED (never
    oracle a rounded division — CLAUDE.md tie lesson); prices in
    dollars via one final /100.0 of identical ints."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        day = (
            b["o_orderdate"].to_numpy()
            .astype("datetime64[D]").astype("datetime64[us]")
        )
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"day": day, "s": c, "n": 1})

    agg = fold_groups(  # ≤ #days rows — bounded artifact
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["day"], [("s", "sum"), ("n", "sum")])
    s = [int(v) for v in agg["s"]]
    n = [int(v) for v in agg["n"]]
    # PAVA over (sum, weight) blocks; Python ints → exact comparisons
    blocks: list[list[int]] = []  # [sum, weight, count_of_days]
    for si, ni in zip(s, n):
        blocks.append([si, ni, 1])
        while (
            len(blocks) > 1
            and blocks[-2][0] * blocks[-1][1] > blocks[-1][0] * blocks[-2][1]
        ):
            s2, n2, c2 = blocks.pop()
            blocks[-1][0] += s2
            blocks[-1][1] += n2
            blocks[-1][2] += c2
    fitted = np.concatenate(
        [np.full(c, (bs / bn) / 100.0) for bs, bn, c in blocks]
    ) if blocks else np.array([], dtype="float64")
    sv = np.array(s, dtype="int64")
    nv = np.array(n, dtype="int64")
    return pd.DataFrame(
        {"day": agg["day"].to_numpy().astype("datetime64[us]"),
         "n_orders": nv,
         "avg_price": (sv / nv) / 100.0,
         "fitted": fitted}
    )


ISOTONIC_SQL = """
WITH d AS (
  SELECT date_trunc('day', o_orderdate) AS day,
         SUM(CAST(round(o_totalprice*100) AS BIGINT)) AS s,
         COUNT(*) AS n
  FROM orders GROUP BY 1
), o AS (
  SELECT day, s, n, row_number() OVER (ORDER BY day) AS i FROM d
), p AS (
  SELECT i, day, s, n,
         SUM(s) OVER (ORDER BY i) AS cs,
         SUM(n) OVER (ORDER BY i) AS cn
  FROM o
), a AS (
  SELECT j.i AS j, k.i AS k,
         CAST(k.cs - j.cs + j.s AS DOUBLE) / (k.cn - j.cn + j.n) AS m
  FROM p j JOIN p k ON k.i >= j.i
), sm AS (
  SELECT j, k AS i,
         MIN(m) OVER (PARTITION BY j ORDER BY k DESC
                      ROWS UNBOUNDED PRECEDING) AS mn
  FROM a
), f AS (
  SELECT i, MAX(mn) AS fit FROM sm GROUP BY i
)
SELECT o.day AS day, CAST(o.n AS BIGINT) AS n_orders,
       (CAST(o.s AS DOUBLE) / o.n) / 100.0 AS avg_price,
       f.fit / 100.0 AS fitted
FROM o JOIN f ON f.i = o.i
"""


# -- order-insensitive table checksums (migration validation) -------------------

_CHECKSUM_LIMB = 10**15


def _checksum_partial(tbl: str, serialize):
    """Make a pyarrow-batch partial: row message → vectorized 64-bit md5
    → 32-bit-split sums (int64-exact per batch: ≤ 2^32·batch_rows)."""
    import pyarrow as pa

    from ..functions.hashing import md5_int_vec

    def fn(t: pa.Table) -> pa.Table:
        msg = serialize(t)
        h = md5_int_vec(msg, bits=64)
        lo = (h & np.uint64(0xFFFFFFFF)).astype("int64")
        hi = (h >> np.uint64(32)).astype("int64")
        return pa.table(
            {"tbl": pa.array([tbl]),
             "slo": pa.array([int(lo.sum())], pa.int64()),
             "shi": pa.array([int(hi.sum())], pa.int64()),
             "n": pa.array([len(h)], pa.int64())}
        )

    return fn


def _join_cols(cols) -> "object":
    import pyarrow as pa
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(*cols, pa.scalar("|"))


def _s_int(t, name):
    import pyarrow as pa
    import pyarrow.compute as pc

    return pc.cast(t[name], pa.string())


def _s_cents(t, name):
    import pyarrow as pa
    import pyarrow.compute as pc

    cents = pc.cast(
        pc.round(pc.multiply(t[name], 100.0), round_mode="half_to_even"),
        pa.int64(),
    )
    return pc.cast(cents, pa.string())


def _s_us(t, name):
    import pyarrow as pa
    import pyarrow.compute as pc

    return pc.cast(pc.cast(t[name], pa.int64()), pa.string())


_CHECKSUM_TABLES: dict[str, tuple[list[str], object]] = {
    "lineitem": (
        ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
         "l_quantity", "l_extendedprice", "l_discount", "l_tax",
         "l_returnflag", "l_linestatus", "l_shipdate"],
        lambda t: _join_cols([
            _s_int(t, "l_orderkey"), _s_int(t, "l_partkey"),
            _s_int(t, "l_suppkey"), _s_int(t, "l_linenumber"),
            _s_cents(t, "l_quantity"), _s_cents(t, "l_extendedprice"),
            _s_cents(t, "l_discount"), _s_cents(t, "l_tax"),
            t["l_returnflag"], t["l_linestatus"], _s_us(t, "l_shipdate"),
        ]),
    ),
    "orders": (
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
         "o_orderdate", "o_orderpriority"],
        lambda t: _join_cols([
            _s_int(t, "o_orderkey"), _s_int(t, "o_custkey"),
            t["o_orderstatus"], _s_cents(t, "o_totalprice"),
            _s_us(t, "o_orderdate"), t["o_orderpriority"],
        ]),
    ),
    "events": (
        ["event_id", "ts", "user_id", "event_type", "value", "props"],
        lambda t: _join_cols([
            _s_int(t, "event_id"), _s_us(t, "ts"), _s_int(t, "user_id"),
            t["event_type"], _s_cents(t, "value"), t["props"],
        ]),
    ),
    "documents": (
        ["doc_id", "text", "lang", "source", "n_chars"],
        lambda t: _join_cols([
            _s_int(t, "doc_id"), t["text"], t["lang"], t["source"],
            _s_int(t, "n_chars"),
        ]),
    ),
}


def tables_checksum(sf_dir: str) -> pd.DataFrame:
    """Order-insensitive content checksum of the four data-sized tables
    — the cross-system migration validator (run it on both sides of a
    copy/engine swap; equal limbs ⟺ identical multisets of rows, mod
    md5 collisions).

    Row canon: every numeric field serializes through the repo's exact
    contracts (ints as digits, money as cents via half-even round ≡
    DuckDB round at cent-resolution, timestamps as epoch-µs), fields
    joined with '|', hashed with the vectorized 64-bit md5
    (``md5_int(x,64) ≡ ('0x'||substr(md5(x),1,16))::UBIGINT``).  The
    checksum Σh is exact: per-batch 32-bit-split int64 sums → Python
    big-int fold → two int64 limbs (lo = Σh mod 10¹⁵, hi = Σh div
    10¹⁵ — the repo's past-int64 contract).

    Shape: ONE fused execution — the four reads union their one-row-
    per-batch partials; no exchange at all (sum is commutative)."""
    partials = None
    for tbl, (cols, ser) in _CHECKSUM_TABLES.items():
        ds = _read(sf_dir, tbl, columns=cols).map_batches(
            _checksum_partial(tbl, ser), batch_format="pyarrow"
        )
        partials = ds if partials is None else partials.union(ds)
    p = partials.to_pandas()  # one row per input batch — bounded
    rows = []
    for tbl in _CHECKSUM_TABLES:
        g = p[p["tbl"] == tbl]
        total = (sum(int(v) for v in g["shi"]) << 32) + sum(
            int(v) for v in g["slo"]
        )
        rows.append(
            (tbl, int(g["n"].sum()),
             total % _CHECKSUM_LIMB, total // _CHECKSUM_LIMB)
        )
    return pd.DataFrame(
        {"tbl": pd.array([r[0] for r in rows], "str"),
         "n_rows": pd.array([r[1] for r in rows], "int64"),
         "sum_lo": pd.array([r[2] for r in rows], "int64"),
         "sum_hi": pd.array([r[3] for r in rows], "int64")}
    )


def tables_checksum_sql() -> str:
    per = {
        "lineitem": (
            "CAST(l_orderkey AS VARCHAR) || '|' || CAST(l_partkey AS VARCHAR)"
            " || '|' || CAST(l_suppkey AS VARCHAR)"
            " || '|' || CAST(l_linenumber AS VARCHAR)"
            " || '|' || CAST(CAST(round(l_quantity*100) AS BIGINT) AS VARCHAR)"
            " || '|' || CAST(CAST(round(l_extendedprice*100) AS BIGINT) AS VARCHAR)"
            " || '|' || CAST(CAST(round(l_discount*100) AS BIGINT) AS VARCHAR)"
            " || '|' || CAST(CAST(round(l_tax*100) AS BIGINT) AS VARCHAR)"
            " || '|' || l_returnflag || '|' || l_linestatus"
            " || '|' || CAST(epoch_us(l_shipdate) AS VARCHAR)"
        ),
        "orders": (
            "CAST(o_orderkey AS VARCHAR) || '|' || CAST(o_custkey AS VARCHAR)"
            " || '|' || o_orderstatus"
            " || '|' || CAST(CAST(round(o_totalprice*100) AS BIGINT) AS VARCHAR)"
            " || '|' || CAST(epoch_us(o_orderdate) AS VARCHAR)"
            " || '|' || o_orderpriority"
        ),
        "events": (
            "CAST(event_id AS VARCHAR) || '|' || CAST(epoch_us(ts) AS VARCHAR)"
            " || '|' || CAST(user_id AS VARCHAR) || '|' || event_type"
            " || '|' || CAST(CAST(round(value*100) AS BIGINT) AS VARCHAR)"
            " || '|' || props"
        ),
        "documents": (
            "CAST(doc_id AS VARCHAR) || '|' || text || '|' || lang"
            " || '|' || source || '|' || CAST(n_chars AS VARCHAR)"
        ),
    }
    selects = [
        f"SELECT '{tbl}' AS tbl, COUNT(*) AS n_rows,\n"
        f"  CAST(SUM(CAST(('0x'||substr(md5({msg}),1,16))::UBIGINT AS HUGEINT))"
        f" % {_CHECKSUM_LIMB} AS BIGINT) AS sum_lo,\n"
        f"  CAST(SUM(CAST(('0x'||substr(md5({msg}),1,16))::UBIGINT AS HUGEINT))"
        f" // {_CHECKSUM_LIMB} AS BIGINT) AS sum_hi\n"
        f"FROM {tbl}"
        for tbl, msg in per.items()
    ]
    return "\nUNION ALL\n".join(selects)


# -- rolling-origin forecast backtest ---------------------------------------------


def orders_backtest(sf_dir: str) -> pd.DataFrame:
    """Rolling-origin backtest of two baseline forecasters over monthly
    order revenue: NAIVE (last month) and MA3 (3-month trailing mean),
    each evaluated on every month with a full 3-month history — the
    model-selection harness that pairs with ``orders_holt`` /
    ``orders_seasonal_decompose``.

    Exact contract: revenue folds as int64 cents; per-month absolute
    errors are scaled ×3 so the MA3 mean never divides
    (|3·actual − Σ₃| and 3·|actual − prev| are both exact int64), and
    the MAE ratio is ONE final division mirrored in the oracle.

    Distributed shape: the int64-cent monthly census is one
    ``fold_groups`` (≤ #months rows — a bounded artifact), then the
    backtest itself is a driver-side prefix sweep over the sorted
    census.  Nothing row-scale leaves the cluster."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        month = (
            b["o_orderdate"].to_numpy()
            .astype("datetime64[M]").astype("datetime64[us]")
        )
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"month": month, "c": c})

    census = fold_groups(  # ≤ #months rows — bounded artifact
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["month"], [("c", "sum")])
    rev = census["c"].to_numpy("int64")
    if len(rev) < 4:
        return pd.DataFrame(
            {"model": pd.array([], "str"),
             "n_months": pd.array([], "int64"),
             "abs_err_x3_cents": pd.array([], "int64"),
             "mae_dollars": pd.array([], "float64")}
        )
    actual = rev[3:]
    naive = rev[2:-1]
    ma3 = rev[0:-3] + rev[1:-2] + rev[2:-1]
    err_naive = np.abs(3 * actual - 3 * naive).sum()
    err_ma3 = np.abs(3 * actual - ma3).sum()
    n = len(actual)
    return pd.DataFrame(
        {"model": pd.array(["ma3", "naive"], "str"),
         "n_months": pd.array([n, n], "int64"),
         "abs_err_x3_cents": pd.array([int(err_ma3), int(err_naive)], "int64"),
         "mae_dollars": np.array([err_ma3, err_naive], "float64") / (3.0 * n * 100.0)}
    )


BACKTEST_SQL = """
WITH m AS (
  SELECT date_trunc('month', o_orderdate) AS month,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS c
  FROM orders GROUP BY 1
), w AS (
  SELECT month, c,
         LAG(c, 1) OVER (ORDER BY month) AS prev1,
         SUM(c) OVER (ORDER BY month
                      ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING) AS s3,
         ROW_NUMBER() OVER (ORDER BY month) AS rn
  FROM m
), ev AS (
  SELECT c, prev1, s3 FROM w WHERE rn >= 4
), agg AS (
  SELECT 'naive' AS model, CAST(COUNT(*) AS BIGINT) AS n_months,
         CAST(SUM(ABS(3 * c - 3 * prev1)) AS BIGINT) AS abs_err_x3_cents
  FROM ev
  UNION ALL
  SELECT 'ma3', CAST(COUNT(*) AS BIGINT),
         CAST(SUM(ABS(3 * c - s3)) AS BIGINT)
  FROM ev
)
SELECT model, n_months, abs_err_x3_cents,
       CAST(abs_err_x3_cents AS DOUBLE) / (3.0 * n_months * 100.0) AS mae_dollars
FROM agg ORDER BY model
"""


# -- weight-of-evidence feature binning ---------------------------------------------


def orders_woe(sf_dir: str) -> pd.DataFrame:
    """Weight-of-evidence (WOE) credit-scoring binning of order value:
    o_totalprice bins into exact equal-frequency quartiles (the
    rank-targeted quantile core — no global sort) and each bin scores
    ``ln(good_share / bad_share)`` against the bad flag
    ``o_orderstatus = 'F'`` — the classic supervised feature-encoding
    operator (paired with IV for feature selection).

    Float contract: counts are exact int64; woe_micro =
    ``floor(10⁶·ln(g·B / (b·G)) + 0.5)`` — CPython ``math.log`` ≡ DuckDB
    ``std::log`` (same glibc, the events_entropy precedent), carried in
    float64 (NaN ⇄ NULL when a bin has one class only).

    Distributed shape: one histogram-narrowing quantile pass (exchanges
    4096-bin histograms, never rows) + one combiner census pass
    (4-row partials); nothing row-scale leaves the cluster."""
    from ..stages.quantiles import quantiles_disc_int

    orders = _read(sf_dir, "orders", columns=["o_totalprice", "o_orderstatus"])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")}
        )

    ints = orders.map_batches(arrow_out(to_cents), batch_format="pandas")
    cuts = quantiles_disc_int(ints, [0.25, 0.5, 0.75])["value"].to_numpy("int64")

    def census(b: pd.DataFrame) -> pd.DataFrame:
        v = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        bad = (b["o_orderstatus"].to_numpy() == "F").astype("int64")
        bin_ = (v[:, None] > cuts[None, :]).sum(axis=1).astype("int64")
        return pd.DataFrame({"bin": bin_, "n_good": 1 - bad, "n_bad": bad})

    parts = fold_groups(  # ≤ 4 rows
        orders.map_batches(arrow_out(census), batch_format="pandas"),
        ["bin"], [("n_good", "sum"), ("n_bad", "sum")])
    G = int(parts["n_good"].sum())
    B = int(parts["n_bad"].sum())
    g = parts["n_good"].to_numpy("int64")
    b = parts["n_bad"].to_numpy("int64")
    with np.errstate(divide="ignore", invalid="ignore"):
        woe = np.floor(
            1_000_000.0 * np.log(g.astype("float64") * B / (b.astype("float64") * G))
            + 0.5
        )
    woe = np.where((g == 0) | (b == 0), np.nan, woe)
    return pd.DataFrame(
        {"bin": parts["bin"].astype("int64"),
         "n_good": parts["n_good"].astype("int64"),
         "n_bad": parts["n_bad"].astype("int64"),
         "woe_micro": woe.astype("float64")}
    )


WOE_SQL = """
WITH c AS (
  SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS v,
         CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END AS bad
  FROM orders
), q AS (
  SELECT quantile_disc(v, 0.25) AS c1, quantile_disc(v, 0.5) AS c2,
         quantile_disc(v, 0.75) AS c3
  FROM c
), b AS (
  SELECT CAST((v > c1)::INT + (v > c2)::INT + (v > c3)::INT AS BIGINT) AS bin, bad
  FROM c, q
), g AS (
  SELECT bin, CAST(SUM(1 - bad) AS BIGINT) AS n_good,
         CAST(SUM(bad) AS BIGINT) AS n_bad
  FROM b GROUP BY 1
), t AS (
  SELECT CAST(SUM(n_good) AS BIGINT) AS gt, CAST(SUM(n_bad) AS BIGINT) AS bt FROM g
)
SELECT bin, n_good, n_bad,
       CASE WHEN n_good = 0 OR n_bad = 0 THEN NULL
            ELSE FLOOR(1000000 * ln(CAST(n_good AS DOUBLE) * bt
                                    / (CAST(n_bad AS DOUBLE) * gt)) + 0.5)
       END AS woe_micro
FROM g, t ORDER BY bin
"""


# -- largest-remainder apportionment ---------------------------------------------

APPORTION_SEATS = 1000


def orders_apportion(sf_dir: str) -> pd.DataFrame:
    """Largest-remainder (Hamilton) apportionment: allocate a fixed
    budget of 1000 units across nations proportional to order revenue —
    the exact-integer allocation operator behind quota / budget / seat
    splits (floor shares + top remainders, ties → nation name asc).

    Distributed shape: orders pre-aggregate per custkey in the combiner,
    ONE partitioned orders⋈customer exchange with the per-nation
    aggregate fused into the join buckets (``bucket_post``), the
    25-row nation census folds driver-side, and the apportionment
    itself is Python bigint arithmetic (seats·cents exceeds int64 at
    warehouse scale — HUGEINT in the oracle)."""
    import pyarrow as pa

    from ..stages.joins import hash_join

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def o_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame(
                {"custkey": b["o_custkey"].astype("int64"),
                 "cents": np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")}
            )
            .groupby("custkey", sort=False)["cents"].sum().reset_index()
        )

    left = orders.map_batches(arrow_out(o_partial), batch_format="pandas")

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def c_rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"custkey": b["c_custkey"].astype("int64"),
             "nationkey": b["c_nationkey"].astype("int64")}
        )

    right = cust.map_batches(arrow_out(c_rename), batch_format="pandas")

    def per_nation(m: pd.DataFrame) -> pd.DataFrame:
        return m.groupby("nationkey", sort=False)["cents"].sum().reset_index()

    joined = hash_join(
        left, right, on=["custkey"],
        left_schema=pa.schema([("custkey", pa.int64()), ("cents", pa.int64())]),
        right_schema=pa.schema([("custkey", pa.int64()), ("nationkey", pa.int64())]),
        bucket_post=per_nation,
    )
    rev = fold_groups(joined, ["nationkey"], [("cents", "sum")])  # ≤ 25 rows

    nation = _read_dim(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    rev = rev.merge(
        nation.rename(columns={"n_nationkey": "nationkey", "n_name": "nation"}),
        on="nationkey", validate="1:1",
    )
    total = int(rev["cents"].sum())
    quota = [APPORTION_SEATS * int(c) for c in rev["cents"]]  # bigint-safe
    fl = [q // total for q in quota]
    rem = [q % total for q in quota]
    extra = APPORTION_SEATS - sum(fl)
    order = sorted(
        range(len(rev)), key=lambda i: (-rem[i], rev["nation"].iloc[i])
    )
    units = list(fl)
    for i in order[:extra]:
        units[i] += 1
    out = pd.DataFrame(
        {"nation": pd.array(rev["nation"], "str"),
         "revenue_cents": rev["cents"].astype("int64"),
         "units": pd.array(units, "int64")}
    )
    return out.sort_values("nation", kind="mergesort").reset_index(drop=True)


APPORTION_SQL = f"""
WITH rev AS (
  SELECT n_name AS nation,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM orders
  JOIN customer ON o_custkey = c_custkey
  JOIN nation ON c_nationkey = n_nationkey
  GROUP BY 1
), t AS (SELECT CAST(SUM(cents) AS HUGEINT) AS total FROM rev),
fl AS (
  SELECT nation, cents,
         CAST(({APPORTION_SEATS} * CAST(cents AS HUGEINT)) // total AS BIGINT) AS fl,
         ({APPORTION_SEATS} * CAST(cents AS HUGEINT)) % total AS rem
  FROM rev, t
), ex AS (SELECT CAST({APPORTION_SEATS} - SUM(fl) AS BIGINT) AS extra FROM fl),
rk AS (
  SELECT nation, cents, fl,
         ROW_NUMBER() OVER (ORDER BY rem DESC, nation ASC) AS rk
  FROM fl
)
SELECT nation, cents AS revenue_cents,
       CAST(fl + CASE WHEN rk <= extra THEN 1 ELSE 0 END AS BIGINT) AS units
FROM rk, ex ORDER BY nation
"""


# -- k-anonymity privacy audit ---------------------------------------------

KANON_K = 5
KANON_BAND_CENTS = 100_000  # $1000 account-balance bands


def customers_kanon(sf_dir: str) -> pd.DataFrame:
    """k-anonymity audit of the customer table under the
    quasi-identifier (nation, market segment, $1000 account-balance
    band): per nation, how many equivalence classes exist, how many
    fall below k=5, and how many ROWS sit in those re-identifiable
    classes — the privacy gate a release pipeline runs before
    publishing a \"de-identified\" extract.

    Distributed shape: ONE hash-bucketed exchange on the QI key
    (all rows of a class co-locate), class sizes fold vectorized
    in-bucket, and only the ≤25-row per-nation summary leaves."""
    from ..stages.shuffle import bucketed_group_map

    cust = _read(
        sf_dir, "customer", columns=["c_nationkey", "c_mktsegment", "c_acctbal"]
    )

    def qi(b: pd.DataFrame) -> pd.DataFrame:
        band = np.floor(
            np.rint(b["c_acctbal"].to_numpy() * 100).astype("int64")
            / KANON_BAND_CENTS
        ).astype("int64")
        return pd.DataFrame(
            {"nationkey": b["c_nationkey"].astype("int64"),
             "segment": b["c_mktsegment"].astype(str),
             "band": band}
        )

    rows = cust.map_batches(arrow_out(qi), batch_format="pandas")

    def classes(g: pd.DataFrame) -> pd.DataFrame:
        # one row per equivalence class, complete in its bucket
        c = group_frame(g.assign(n=1), ["nationkey", "segment", "band"],
                        [("n", "sum")])
        small = (c["n"] < KANON_K).astype("int64")
        return pd.DataFrame({"nationkey": c["nationkey"], "n_rows": c["n"],
                             "n_classes": 1, "n_small_classes": small,
                             "n_rows_at_risk": c["n"] * small})

    # bucket on the FULL QI key so a class never splits across buckets
    agg = fold_groups(  # ≤ |nations| rows
        bucketed_group_map(rows, ["nationkey", "segment", "band"], classes),
        ["nationkey"], [(c, "sum") for c in ("n_rows", "n_classes",
                                             "n_small_classes", "n_rows_at_risk")])
    return pd.DataFrame({c: agg[c].astype("int64") for c in agg.columns})


KANON_SQL = f"""
WITH qi AS (
  SELECT CAST(c_nationkey AS BIGINT) AS nationkey, c_mktsegment AS segment,
         CAST(FLOOR(CAST(ROUND(c_acctbal * 100) AS BIGINT)
                    / {KANON_BAND_CENTS}.0) AS BIGINT) AS band
  FROM customer
), c AS (
  SELECT nationkey, segment, band, CAST(COUNT(*) AS BIGINT) AS n
  FROM qi GROUP BY 1, 2, 3
)
SELECT nationkey,
       CAST(SUM(n) AS BIGINT) AS n_rows,
       CAST(COUNT(*) AS BIGINT) AS n_classes,
       CAST(SUM(CASE WHEN n < {KANON_K} THEN 1 ELSE 0 END) AS BIGINT)
         AS n_small_classes,
       CAST(SUM(CASE WHEN n < {KANON_K} THEN n ELSE 0 END) AS BIGINT)
         AS n_rows_at_risk
FROM c GROUP BY 1 ORDER BY 1
"""


# -- discounted customer lifetime value ---------------------------------------------

CLV_DECAY = 0.98  # per-month discount factor


def customers_clv(sf_dir: str) -> pd.DataFrame:
    """Top-20 customers by discounted lifetime value: each order
    contributes ``floor(cents · 0.98^age_months + 0.5)`` micro-discounted
    cents, age measured in calendar months back from the NEWEST order in
    the log (the analysis anchor).  glibc ``pow`` is shared by numpy and
    DuckDB (the events_entropy ln precedent), and the power is taken on
    exact integer month counts, so the per-order addends match bit-for-bit.

    Distributed shape: the month anchor is one cheap max fold; the
    per-customer sums are a customer-bounded ``fold_groups`` census;
    top-20 by (clv DESC, custkey ASC) is cut on the driver."""
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"])

    anchor = fold_groups(orders.select_columns(["o_orderdate"]), [],
                         [("o_orderdate", "max")])["o_orderdate"].iloc[0]
    anchor_m = np.datetime64(anchor, "M")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        age = (anchor_m - b["o_orderdate"].to_numpy().astype("datetime64[M]")).astype(
            "int64"
        )
        disc = np.floor(cents * np.power(CLV_DECAY, age.astype("float64")) + 0.5).astype(
            "int64"
        )
        return pd.DataFrame({"custkey": b["o_custkey"].astype("int64"),
                             "n_orders": 1, "clv_cents": disc})

    cand = fold_groups(  # ≤ |customers| rows
        orders.map_batches(arrow_out(partial), batch_format="pandas"),
        ["custkey"], [("n_orders", "sum"), ("clv_cents", "sum")])
    top = (
        cand.sort_values(["clv_cents", "custkey"], ascending=[False, True],
                         kind="mergesort")
        .head(20)
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {"custkey": top["custkey"].astype("int64"),
         "n_orders": top["n_orders"].astype("int64"),
         "clv_cents": top["clv_cents"].astype("int64")}
    )


CLV_SQL = f"""
WITH a AS (
  SELECT date_trunc('month', MAX(o_orderdate)) AS anchor FROM orders
), d AS (
  SELECT o_custkey AS custkey,
         CAST(FLOOR(CAST(ROUND(o_totalprice * 100) AS BIGINT)
                    * POWER({CLV_DECAY},
                            datediff('month', date_trunc('month', o_orderdate),
                                     anchor))
                    + 0.5) AS BIGINT) AS disc
  FROM orders, a
)
SELECT custkey, CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(disc) AS BIGINT) AS clv_cents
FROM d GROUP BY 1
ORDER BY clv_cents DESC, custkey ASC LIMIT 20
"""


# -- join-size estimator statistics ---------------------------------------------


def lineitem_selfjoin_size(sf_dir: str) -> pd.DataFrame:
    """Optimizer-statistics operator: the EXACT cardinality of the
    lineitem⋈lineitem self-join on l_partkey (Σ c(k)²) plus the skew
    diagnostics a planner needs BEFORE running the join — distinct
    keys, max key count, and the hot key itself (ties → lower key).
    Costs one count exchange instead of the join's full data exchange:
    the pre-flight a user runs before deciding broadcast vs partitioned
    vs salted (`stages/joins.py` skew="auto" is the in-join version).

    Shape: per-batch (key, c) count partials → ONE key-bucketed
    exchange; each bucket folds its keys' totals and emits ONE partial
    row (Σc, Σc², n_keys, its argmax) — the driver folds ≤ buckets
    rows.  Σc² rides as int64 here; past ~10⁹-row keys move it to the
    two-limb lo/hi recipe (``lineitem_regression``)."""
    from ..stages.shuffle import bucketed_group_map

    li = _read(sf_dir, "lineitem", columns=["l_partkey"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(b["l_partkey"].to_numpy(), return_counts=True)
        return pd.DataFrame(
            {"k": pd.array(u, "int64"), "c": pd.array(c, "int64")}
        )

    parts = li.map_batches(arrow_out(partial), batch_format="pandas")

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = g.groupby("k", sort=False)["c"].sum()
        c = t.to_numpy("int64")
        k = t.index.to_numpy()
        # argmax with ties → lowest key: sort by (c desc, k asc), take 0
        order = np.lexsort((k, -c))
        top = order[0]
        return pd.DataFrame(
            {"n_rows": pd.array([int(c.sum())], "int64"),
             "n_keys": pd.array([len(c)], "int64"),
             "sj": pd.array([int((c * c).sum())], "int64"),
             "max_c": pd.array([int(c[top])], "int64"),
             "max_k": pd.array([int(k[top])], "int64")}
        )

    f = bucketed_group_map(parts, ["k"], bucket).to_pandas()
    best = f.sort_values(["max_c", "max_k"], ascending=[False, True],
                         kind="mergesort").iloc[0]
    return pd.DataFrame(
        {"n_rows": pd.array([int(f["n_rows"].sum())], "int64"),
         "n_keys": pd.array([int(f["n_keys"].sum())], "int64"),
         "selfjoin_rows": pd.array([int(f["sj"].sum())], "int64"),
         "max_key_count": pd.array([int(best["max_c"])], "int64"),
         "hot_key": pd.array([int(best["max_k"])], "int64")}
    )


SELFJOIN_SIZE_SQL = """
WITH c AS (
  SELECT l_partkey AS k, CAST(COUNT(*) AS BIGINT) AS c
  FROM lineitem GROUP BY 1
), m AS (
  SELECT k, c, ROW_NUMBER() OVER (ORDER BY c DESC, k ASC) AS rn FROM c
)
SELECT CAST(SUM(c.c) AS BIGINT) AS n_rows,
       CAST(COUNT(*) AS BIGINT) AS n_keys,
       CAST(SUM(c.c * c.c) AS BIGINT) AS selfjoin_rows,
       (SELECT c FROM m WHERE rn = 1) AS max_key_count,
       (SELECT k FROM m WHERE rn = 1) AS hot_key
FROM c
"""


def tables_storage_audit(sf_dir: str) -> pd.DataFrame:
    """Metadata-only storage audit: per (table, column) the value count,
    compressed and uncompressed byte totals, and the compression ratio
    in basis points — the layout/cost report an engine operator reads
    before choosing encodings, sort keys, or compaction targets.
    FOOTERS ONLY: no data pages are read; at lake scale the per-file
    footer scan fans out as Ray tasks (the ``build_zonemap`` posture —
    one task per file slice), so the audit costs seconds at any data
    size.  Rows-only (DuckDB's ``parquet_metadata`` needs literal paths
    the driver's view-only oracle runner can't carry); pinned against
    parquet_metadata per table in ``tests/test_storage_audit.py``."""
    import pyarrow.parquet as pq

    rows = []
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"):
        md = pq.ParquetFile(f"{sf_dir}/{t}.parquet").metadata
        agg: dict[str, list[int]] = {}
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                c = g.column(ci)
                a = agg.setdefault(c.path_in_schema, [0, 0, 0])
                a[0] += c.num_values
                a[1] += c.total_compressed_size
                a[2] += c.total_uncompressed_size
        for col in sorted(agg):
            nv, comp, uncomp = agg[col]
            rows.append((t, col, nv, comp, uncomp,
                         (uncomp * 10_000) // comp if comp else 0))
    out = pd.DataFrame(
        rows, columns=["table", "column", "n_values", "compressed_bytes",
                       "uncompressed_bytes", "ratio_bp"]
    )
    return pd.DataFrame(
        {"table": pd.array(out["table"], "str"),
         "column": pd.array(out["column"], "str"),
         "n_values": out["n_values"].astype("int64"),
         "compressed_bytes": out["compressed_bytes"].astype("int64"),
         "uncompressed_bytes": out["uncompressed_bytes"].astype("int64"),
         "ratio_bp": out["ratio_bp"].astype("int64")}
    )


# -- Pareto skyline ---------------------------------------------------------------

def _skyline2d(price: "np.ndarray", qty: "np.ndarray"):
    """Indices of the 2-D skyline (minimize price, maximize qty) over
    DISTINCT (price, qty) pairs.  Sort by (price asc, qty desc); a pair
    survives iff its qty strictly exceeds every strictly-cheaper pair's
    qty (running max with price-tie handling via the qty-desc order:
    within a price tie only the highest qty survives)."""
    order = np.lexsort((-qty, price))
    p, q = price[order], qty[order]
    # best qty among pairs with strictly smaller price
    best_before = np.full(len(p), np.iinfo(np.int64).min, dtype=np.int64)
    if len(p):
        run_max = np.maximum.accumulate(q)
        # position of the last strictly-smaller price for each row
        prev = np.searchsorted(p, p, side="left") - 1
        valid = prev >= 0
        best_before[valid] = run_max[prev[valid]]
    first_of_price = np.r_[True, p[1:] != p[:-1]]  # qty-desc ⇒ max of tie
    keep = first_of_price & (q > best_before)
    return order[keep]


def lineitem_skyline(sf_dir: str) -> pd.DataFrame:
    """Pareto-SKYLINE of lineitems over (minimize extendedprice,
    maximize quantity) — the multi-criteria dominance operator (no row
    in the result is beaten on both axes by any other row).

    Distributed shape — skylines are ASSOCIATIVE
    (``sky(A∪B) = sky(sky(A) ∪ sky(B))``), which makes the per-batch
    local skyline a legal combiner: each batch collapses to its own
    skyline (expected O(log n) pairs for non-degenerate data), the
    union of partial skylines reaches the driver as a tiny artifact,
    and one more fold yields the exact global skyline.  A second pass
    counts the GLOBAL multiplicity of each surviving pair (broadcast
    the pair set, per-batch count, driver fold) — counts of dominated
    pairs are never computed because dominated pairs never surface.

    Exactness: price travels as integer cents, quantity as rounded
    int64; dominance is pure integer comparison."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_extendedprice", "l_quantity"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        price = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        qty = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        u = pd.DataFrame({"price_cents": price, "qty": qty}).drop_duplicates()
        pc_, qc = u["price_cents"].to_numpy(), u["qty"].to_numpy()
        keep = _skyline2d(pc_, qc)
        return u.iloc[keep].reset_index(drop=True).astype("int64")

    parts = ds.map_batches(arrow_out(partial),
                           batch_format="pandas").to_pandas()
    u = parts.drop_duplicates()
    keep = _skyline2d(u["price_cents"].to_numpy(), u["qty"].to_numpy())
    sky = u.iloc[keep].reset_index(drop=True)

    import ray

    ref = ray.put(set(zip(sky["price_cents"], sky["qty"])))

    def count(b: pd.DataFrame) -> pd.DataFrame:
        pairs = ray.get(ref)
        price = np.rint(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        qty = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        df = pd.DataFrame({"price_cents": price, "qty": qty})
        return df[[p in pairs for p in zip(price, qty)]].assign(n_lines=1)

    counts = fold_groups(  # ≤ skyline rows
        ds.map_batches(arrow_out(count), batch_format="pandas"),
        ["price_cents", "qty"], [("n_lines", "sum")])
    out = sky.merge(counts, on=["price_cents", "qty"], how="left")
    out["n_lines"] = out["n_lines"].fillna(0).astype("int64")
    return (out.sort_values("price_cents").reset_index(drop=True)
            .astype("int64"))


LINEITEM_SKYLINE_SQL = """
WITH d AS (
  SELECT CAST(round(l_extendedprice*100) AS BIGINT) AS price_cents,
         CAST(round(l_quantity) AS BIGINT) AS qty,
         CAST(COUNT(*) AS BIGINT) AS n_lines
  FROM lineitem GROUP BY 1, 2)
SELECT price_cents, qty, n_lines
FROM d a
WHERE NOT EXISTS (
  SELECT 1 FROM d b
  WHERE b.price_cents <= a.price_cents AND b.qty >= a.qty
    AND (b.price_cents < a.price_cents OR b.qty > a.qty))
ORDER BY price_cents
"""


# -- higher-moment statistics (skewness / kurtosis) -------------------------------

def lineitem_moments(sf_dir: str) -> pd.DataFrame:
    """Per-returnflag SKEWNESS and EXCESS KURTOSIS of quantity from the
    exact integer power sums ΣX, ΣX², ΣX³, ΣX⁴ (the 3rd/4th-moment
    extension of ``lineitem_qty_stats``): per-row int64 power columns
    fold through ``fold_groups``; the ONLY float arithmetic is the driver-side
    closed form, mirrored term-for-term in the oracle and emitted as
    floor-micro ints (qty ≤ 50 ⇒ Σx⁴ ≤ n·6.25e6 — two-limb per the
    ``lineitem_regression`` contract once n approaches 10¹²)."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        return pd.DataFrame({
            "flag": b["l_returnflag"].astype(str), "n": 1, "s1": x,
            "s2": x * x, "s3": x ** 3, "s4": x ** 4,
        })

    agg = fold_groups(  # ≤ |returnflag| rows
        ds.map_batches(arrow_out(partial), batch_format="pandas"), ["flag"],
        [(c, "sum") for c in ("n", "s1", "s2", "s3", "s4")])
    n = agg["n"].to_numpy("float64")
    m1 = agg["s1"].to_numpy("float64") / n
    # central moments from raw power sums (one arithmetic path, mirrored
    # in SQL):  mk = Σ(x-μ)^k / n expanded binomially
    s1 = agg["s1"].to_numpy("float64")
    s2 = agg["s2"].to_numpy("float64")
    s3 = agg["s3"].to_numpy("float64")
    s4 = agg["s4"].to_numpy("float64")
    m2 = s2 / n - m1 * m1
    m3 = s3 / n - 3.0 * m1 * (s2 / n) + 2.0 * m1 * m1 * m1
    m4 = (s4 / n - 4.0 * m1 * (s3 / n) + 6.0 * m1 * m1 * (s2 / n)
          - 3.0 * m1 * m1 * m1 * m1)
    skew = m3 / (m2 ** 1.5)
    kurt = m4 / (m2 * m2) - 3.0
    return pd.DataFrame({
        "l_returnflag": pd.array(agg["flag"], "str"),
        "n": agg["n"].astype("int64"),
        "sum_qty": agg["s1"].astype("int64"),
        "skew_micro": np.floor(skew * 1e6 + 0.5).astype("int64"),
        "kurtosis_micro": np.floor(kurt * 1e6 + 0.5).astype("int64"),
    }).sort_values("l_returnflag").reset_index(drop=True)


LINEITEM_MOMENTS_SQL = """
WITH s AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS s1,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS s2,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS s3,
         CAST(SUM(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS s4
  FROM lineitem GROUP BY 1),
m AS (
  SELECT l_returnflag, n, s1,
         CAST(s1 AS DOUBLE) / n AS m1,
         CAST(s2 AS DOUBLE) / n AS r2,
         CAST(s3 AS DOUBLE) / n AS r3,
         CAST(s4 AS DOUBLE) / n AS r4
  FROM s),
c AS (
  SELECT l_returnflag, n, s1,
         r2 - m1*m1 AS m2,
         r3 - 3.0*m1*r2 + 2.0*m1*m1*m1 AS m3,
         r4 - 4.0*m1*r3 + 6.0*m1*m1*r2 - 3.0*m1*m1*m1*m1 AS m4
  FROM m)
SELECT l_returnflag, n, s1 AS sum_qty,
       CAST(FLOOR(m3 / pow(m2, 1.5) * 1000000 + 0.5) AS BIGINT)
         AS skew_micro,
       CAST(FLOOR((m4 / (m2*m2) - 3.0) * 1000000 + 0.5) AS BIGINT)
         AS kurtosis_micro
FROM c
ORDER BY l_returnflag
"""


# -- Q11-shaped national value share ----------------------------------------------

VALUE_SHARE_BP = 150  # keep suppliers holding > 1.5% of their nation's value


def supplier_value_share(sf_dir: str) -> pd.DataFrame:
    """Suppliers holding an outsized share of their NATION's lineitem
    value — the TPC-H Q11 shape (aggregate, then filter against a
    correlated fraction of a second aggregate over the same data)
    re-keyed to the tables this lake has.

    ONE lineitem pass: per-batch (suppkey → value) int64 combiner →
    suppkey census folded on the driver; the supplier→nation dimension is a
    broadcast (|suppliers| rows); nation totals and the share filter
    are driver math on the |suppliers|-bounded census.  Value is exact
    cents of extendedprice·(1−discount)·100 (two-decimal discount ⇒
    ·10⁴ then /100 is exact integer)."""

    sup = _read_dim(sf_dir, "supplier")
    nat = dict(zip(sup["s_suppkey"].astype("int64"),
                   sup["s_nationkey"].astype("int64")))

    ds = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        u = np.rint(b["l_extendedprice"].to_numpy()
                    * (1.0 - b["l_discount"].to_numpy())
                    * 10_000).astype("int64")
        return pd.DataFrame({"suppkey": b["l_suppkey"].astype("int64"), "u": u})

    census = fold_groups(  # ≤ |suppliers| rows
        ds.map_batches(arrow_out(partial), batch_format="pandas"),
        ["suppkey"], [("u", "sum")])
    census["nationkey"] = census["suppkey"].map(nat).astype("int64")
    totals = census.groupby("nationkey")["u"].sum()
    thresh = census["nationkey"].map(totals).to_numpy("int64")
    share_bp = census["u"].to_numpy("int64") * 10_000 // thresh
    keep = share_bp > VALUE_SHARE_BP
    out = pd.DataFrame(
        {"s_suppkey": census["suppkey"].to_numpy("int64")[keep],
         "nationkey": census["nationkey"].to_numpy("int64")[keep],
         "value_u": census["u"].to_numpy("int64")[keep],
         "share_bp": share_bp[keep]})
    return out.sort_values("s_suppkey").reset_index(drop=True).astype("int64")


SUPPLIER_VALUE_SHARE_SQL = f"""
WITH v AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(SUM(CAST(round(l_extendedprice*(1-l_discount)*10000)
                       AS BIGINT)) AS BIGINT) AS value_u
  FROM lineitem GROUP BY 1),
j AS (
  SELECT v.s_suppkey, CAST(s.s_nationkey AS BIGINT) AS nationkey,
         v.value_u
  FROM v JOIN supplier s ON s.s_suppkey = v.s_suppkey),
t AS (
  SELECT nationkey, CAST(SUM(value_u) AS BIGINT) AS total_u
  FROM j GROUP BY 1)
SELECT j.s_suppkey, j.nationkey, j.value_u,
       CAST(j.value_u * 10000 // t.total_u AS BIGINT) AS share_bp
FROM j JOIN t USING (nationkey)
WHERE j.value_u * 10000 // t.total_u > {VALUE_SHARE_BP}
ORDER BY j.s_suppkey
"""


# -- BILATERAL streaming join IVM -------------------------------------------------

def nation_rev_ivm_bilateral(sf_dir: str, n_chunks: int = 3,
                             state_dir: str | None = None) -> pd.DataFrame:
    """The per-nation revenue view maintained while BOTH join sides
    stream — the full incremental-join decomposition
    ``ΔV = ΔA⋈B + A⋈ΔB + ΔA⋈ΔB`` (``nation_rev_ivm`` streams only the
    fact side).  A lineitem row whose order has NOT yet arrived parks in
    a persistent PENDING state and is claimed the moment its order
    lands — the pipelined symmetric-hash-join discipline made durable.

    Per interleaved chunk (orders first, then lineitem — both via
    ``arrival_chunks``, total scan 1× per table; lineitem is routed by
    ROW HASH so early lineitem genuinely precedes its order and the
    pending path is exercised, not vacuously empty):

    1. ``O_i``: resolve order→nation through the size-adaptive customer
       join, upsert into the ``order_nation`` keyed state, then CLAIM
       any pending value for these orders (bucket-pruned lookup +
       ``delete_keys``) into the view delta.
    2. ``L_i``: per-batch (orderkey → value-cents) combiner census
       joins the ``order_nation`` state PARTITIONED (``hash_join`` left
       — the state is a Dataset, never a driver artifact); matches fold
       per-nation inside the join buckets, misses add into PENDING
       (chunk-bounded lookup + upsert).
    3. The chunk's nation partials fold exactly-once into the view
       (``microbatch_aggregate`` — nation keys are aggregation-bounded).

    The folded view equals the one-shot 4-table join aggregate
    bit-for-bit (exact int64 partials; every lineitem row contributes
    exactly once: either at arrival (order known) or at claim (order
    arrives later)), so this query SHARES the batch SQL oracle."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.joins import auto_join, hash_join
    from ..stages.streaming import (
        arrival_chunks, init_stream_table, microbatch_aggregate,
        stream_state,
    )
    from ..stages.upsert import init_keyed_table, lookup, upsert
    from ..stages.upsert import read_keyed_table

    nation = _read_dim(sf_dir, "nation")
    root = state_dir or tempfile.mkdtemp(prefix="mkg_ivm2_")
    on_dir = os.path.join(root, "order_nation")
    pend_dir = os.path.join(root, "pending")
    rev_dir = os.path.join(root, "rev")
    if not os.path.exists(os.path.join(on_dir, "_MANIFEST.json")):
        init_keyed_table(on_dir, "_k")
    if not os.path.exists(os.path.join(pend_dir, "_MANIFEST.json")):
        init_keyed_table(pend_dir, "_k")
    init_stream_table(rev_dir, "_k")

    def cust_rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"o_custkey": b["c_custkey"].to_numpy("int64"),
             "nationkey": b["c_nationkey"].to_numpy("int64")})

    cust_ds = _read(sf_dir, "customer",
                    columns=["c_custkey", "c_nationkey"]).map_batches(
        arrow_out(cust_rename), batch_format="pandas")
    cust_rows = pq.ParquetFile(
        f"{sf_dir}/customer.parquet").metadata.num_rows
    cust_schema = pa.schema([("o_custkey", pa.int64()),
                             ("nationkey", pa.int64())])
    orders_schema = pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())])

    o_chunks = arrival_chunks(
        f"{sf_dir}/orders.parquet", n_chunks,
        columns=["o_orderkey", "o_custkey"],
        land_dir=os.path.join(root, "_arrivals_o"), key_col="o_orderkey")
    l_chunks = arrival_chunks(
        f"{sf_dir}/lineitem.parquet", n_chunks,
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        land_dir=os.path.join(root, "_arrivals_l"))  # row-hash routing

    census_schema = pa.schema([("okey", pa.int64()), ("u", pa.int64())])
    state_schema = pa.schema([("_k", pa.string()), ("okey", pa.int64()),
                              ("nationkey", pa.int64())])

    def li_census(b: pd.DataFrame) -> pd.DataFrame:
        u = np.rint(b["l_extendedprice"].to_numpy()
                    * (1.0 - b["l_discount"].to_numpy())
                    * 10_000).astype("int64")
        g = (pd.DataFrame({"okey": b["l_orderkey"].to_numpy("int64"),
                           "u": u})
             .groupby("okey", sort=False, as_index=False)["u"].sum())
        return g.astype("int64")

    for i in range(n_chunks):
        # ---- orders chunk: register + claim pending
        o_res = (auto_join(
            o_chunks[i], cust_ds, on=["o_custkey"], right_rows=cust_rows,
            left_schema=orders_schema, right_schema=cust_schema)
            .to_pandas())  # chunk-bounded (orderkey, nationkey) rows
        nation_parts = []
        if len(o_res):
            reg = pd.DataFrame(
                {"_k": o_res["o_orderkey"].astype(str),
                 "okey": o_res["o_orderkey"].to_numpy("int64"),
                 "nationkey": o_res["nationkey"].to_numpy("int64")})
            upsert(on_dir, reg)
            hit = lookup(pend_dir, reg["_k"].tolist())
            if len(hit):
                claimed = hit.merge(
                    reg[["_k", "nationkey"]], on="_k", how="inner")
                nation_parts.append(
                    claimed.groupby("nationkey", as_index=False)["u"].sum())
                upsert(pend_dir, pd.DataFrame(
                    {"_k": pd.array([], "str"),
                     "okey": pd.array([], "int64"),
                     "u": pd.array([], "int64")}),
                    delete_keys=claimed["_k"].tolist())

        # ---- lineitem chunk: partitioned resolve against the state
        lc = l_chunks[i].map_batches(arrow_out(li_census),
                                     batch_format="pandas")
        joined = hash_join(
            lc, read_keyed_table(on_dir), on=["okey"], how="left",
            left_schema=census_schema, right_schema=state_schema,
        ).to_pandas()  # chunk-bounded census rows
        if len(joined):
            matched = joined[joined["nationkey"].notna()]
            if len(matched):
                m = pd.DataFrame(
                    {"nationkey": matched["nationkey"].astype("int64"),
                     "u": matched["u"].astype("int64")})
                nation_parts.append(
                    m.groupby("nationkey", as_index=False)["u"].sum())
            miss = joined[joined["nationkey"].isna()]
            if len(miss):
                add = pd.DataFrame(
                    {"_k": miss["okey"].astype("int64").astype(str),
                     "okey": miss["okey"].astype("int64"),
                     "u": miss["u"].astype("int64")})
                add = add.groupby(["_k", "okey"], as_index=False)["u"].sum()
                cur = lookup(pend_dir, add["_k"].tolist())
                if len(cur):
                    prev = add["_k"].map(
                        cur.set_index("_k")["u"]).fillna(0).astype("int64")
                    add["u"] = add["u"].to_numpy("int64") + prev.to_numpy()
                upsert(pend_dir, add)

        # ---- fold the chunk's nation delta exactly-once into the view
        if nation_parts:
            delta = (pd.concat(nation_parts, ignore_index=True)
                     .groupby("nationkey", as_index=False)["u"].sum()
                     .astype("int64"))
        else:
            delta = pd.DataFrame({"nationkey": pd.array([], "int64"),
                                  "u": pd.array([], "int64")})
        import ray.data as rd

        microbatch_aggregate(rev_dir, f"chunk-{i}",
                             rd.from_pandas(delta), ["nationkey"], ["u"])

    state = stream_state(rev_dir).to_pandas()
    names = dict(zip(nation["n_nationkey"].astype("int64"),
                     nation["n_name"]))
    return (pd.DataFrame(
        {"n_name": pd.array([names[int(k)] for k in state["nationkey"]],
                            "str"),
         "rev_u": state["u"].astype("int64")})
        .sort_values("n_name").reset_index(drop=True))


# -- ISO-week revenue (calendar parity) -------------------------------------------

def orders_weekly_iso(sf_dir: str) -> pd.DataFrame:
    """Revenue by ISO-8601 (year, week) — the calendar bucketing every
    BI layer needs, with the ISO week-numbering edge cases (years whose
    Jan 1 falls late in a week belong to the previous ISO year) decided
    identically by pandas ``isocalendar`` and DuckDB ``yearweek``
    family.  Per-row int64 cent columns; the calendar-BOUNDED census
    (≤ years·53 rows) folds through ``fold_groups``."""
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.to_datetime(b["o_orderdate"])
        iso = d.dt.isocalendar()
        c = np.rint(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"iso_year": iso["year"].astype("int64"),
                             "iso_week": iso["week"].astype("int64"),
                             "n_orders": 1, "rev_cents": c})

    out = fold_groups(  # ≤ years·53 rows
        ds.map_batches(arrow_out(partial), batch_format="pandas"),
        ["iso_year", "iso_week"], [("n_orders", "sum"), ("rev_cents", "sum")])
    return out.astype("int64")


ORDERS_WEEKLY_ISO_SQL = """
SELECT CAST(isoyear(o_orderdate) AS BIGINT) AS iso_year,
       CAST(week(o_orderdate) AS BIGINT) AS iso_week,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(round(o_totalprice*100) AS BIGINT)) AS BIGINT)
         AS rev_cents
FROM orders
GROUP BY 1, 2
ORDER BY 1, 2
"""


# -- l-diversity privacy audit ----------------------------------------------------

def customers_ldiversity(sf_dir: str) -> pd.DataFrame:
    """l-DIVERSITY audit over the (nation, mktsegment) quasi-identifier
    groups — the sibling of ``customers_kanon``: a group is safe only
    if its SENSITIVE attribute (account-balance sign class:
    negative / low / high) takes ≥ l distinct values, or one
    re-identified row leaks the sensitive value outright.

    Per-batch (qi-group, class) int64 census partials → one bounded
    driver fold (≤ nations·segments·3 rows) → driver
    distinct-class fold.  Emits every group with its size, class
    diversity, and the l=2 / l=3 safety flags."""

    ds = _read(sf_dir, "customer",
               columns=["c_nationkey", "c_mktsegment", "c_acctbal"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bal = b["c_acctbal"].to_numpy()
        cls = np.where(bal < 0.0, 0, np.where(bal < 5000.0, 1, 2))
        return pd.DataFrame({"nationkey": b["c_nationkey"].astype("int64"),
                             "mktsegment": b["c_mktsegment"].astype(str),
                             "bal_class": cls.astype("int64"), "n": 1})

    agg = fold_groups(
        ds.map_batches(arrow_out(partial), batch_format="pandas"),
        ["nationkey", "mktsegment", "bal_class"], [("n", "sum")])
    out = (agg.groupby(["nationkey", "mktsegment"])
           .agg(group_size=("n", "sum"), l_diversity=("bal_class", "nunique"))
           .reset_index())
    out["safe_l2"] = (out["l_diversity"] >= 2).astype("int64")
    out["safe_l3"] = (out["l_diversity"] >= 3).astype("int64")
    return (out.sort_values(["nationkey", "mktsegment"])
            .reset_index(drop=True)
            .astype({"nationkey": "int64", "mktsegment": "str",
                     "group_size": "int64", "l_diversity": "int64"}))


CUSTOMERS_LDIVERSITY_SQL = """
WITH c AS (
  SELECT CAST(c_nationkey AS BIGINT) AS nationkey, c_mktsegment AS mktsegment,
         CASE WHEN c_acctbal < 0 THEN 0
              WHEN c_acctbal < 5000 THEN 1 ELSE 2 END AS bal_class
  FROM customer)
SELECT nationkey, mktsegment,
       CAST(COUNT(*) AS BIGINT) AS group_size,
       CAST(COUNT(DISTINCT bal_class) AS BIGINT) AS l_diversity,
       CAST(CASE WHEN COUNT(DISTINCT bal_class) >= 2 THEN 1 ELSE 0 END
            AS BIGINT) AS safe_l2,
       CAST(CASE WHEN COUNT(DISTINCT bal_class) >= 3 THEN 1 ELSE 0 END
            AS BIGINT) AS safe_l3
FROM c GROUP BY 1, 2
ORDER BY 1, 2
"""


# -- fulfillment lead time --------------------------------------------------------

def supplier_lead_time(sf_dir: str) -> pd.DataFrame:
    """Per-supplier fulfillment LEAD TIME (ship date − order date, days)
    — the operations KPI that needs the large-large orders⋈lineitem
    join: ONE partitioned ``hash_join`` on orderkey with the
    per-supplier day partials FUSED into the join buckets
    (``bucket_post`` — the exchange carries supplier partials, never
    joined rows), then a tiny supplier census fold.  Day arithmetic is
    exact integer epoch-days (unit-safe datetime64[D] views); mean is
    the single mirrored float path, floor-micro."""
    import pyarrow as pa

    from ..stages.joins import hash_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_shipdate"])

    def o_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": b["o_orderkey"].to_numpy("int64"),
             "oday": pd.to_datetime(b["o_orderdate"]).to_numpy()
             .astype("datetime64[D]").view("int64")})

    def l_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": b["l_orderkey"].to_numpy("int64"),
             "suppkey": b["l_suppkey"].to_numpy("int64"),
             "sday": pd.to_datetime(b["l_shipdate"]).to_numpy()
             .astype("datetime64[D]").view("int64")})

    def supp_partial(m: pd.DataFrame) -> pd.DataFrame:
        lead = m["sday"].to_numpy("int64") - m["oday"].to_numpy("int64")
        g = (pd.DataFrame({"suppkey": m["suppkey"].to_numpy("int64"),
                           "n": 1, "sum_days": lead, "max_days": lead})
             .groupby("suppkey", sort=False, as_index=False)
             .agg(n=("n", "sum"), sum_days=("sum_days", "sum"),
                  max_days=("max_days", "max")))
        return g.astype("int64")

    lschema = pa.schema([("l_orderkey", pa.int64()),
                         ("suppkey", pa.int64()), ("sday", pa.int64())])
    oschema = pa.schema([("l_orderkey", pa.int64()), ("oday", pa.int64())])
    parts = hash_join(
        li.map_batches(arrow_out(l_prep), batch_format="pandas"),
        orders.map_batches(arrow_out(o_prep), batch_format="pandas"),
        on=["l_orderkey"], left_schema=lschema, right_schema=oschema,
        bucket_post=supp_partial)
    agg = fold_groups(  # ≤ |suppliers| rows
        parts, ["suppkey"],
        [("n", "sum"), ("sum_days", "sum"), ("max_days", "max")])
    mean = agg["sum_days"].to_numpy("float64") / agg["n"].to_numpy("float64")
    out = pd.DataFrame(
        {"suppkey": agg["suppkey"].astype("int64"),
         "n_lines": agg["n"].astype("int64"),
         "sum_days": agg["sum_days"].astype("int64"),
         "max_days": agg["max_days"].astype("int64"),
         "mean_days_micro": np.floor(mean * 1e6 + 0.5).astype("int64")})
    return out.sort_values("suppkey").reset_index(drop=True)


SUPPLIER_LEAD_TIME_SQL = """
WITH j AS (
  SELECT l.l_suppkey AS suppkey,
         date_diff('day', o.o_orderdate, l.l_shipdate) AS lead
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey)
SELECT suppkey,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(SUM(lead) AS BIGINT) AS sum_days,
       CAST(MAX(lead) AS BIGINT) AS max_days,
       CAST(FLOOR(CAST(SUM(lead) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS mean_days_micro
FROM j GROUP BY 1
ORDER BY 1
"""


# -- sort-merge join demonstration ------------------------------------------------

def orders_lineitem_mergejoin(sf_dir: str) -> pd.DataFrame:
    """Per-orderstatus line count + revenue through the SORT-MERGE join
    strategy (``stages/joins.py:merge_join``): both sides range-
    partition by orderkey VALUE (bounds from the parquet footer
    statistics — zero scan), each bucket runs the two-pointer
    searchsorted merge, and the per-status aggregate fuses into the
    join buckets.  Result ≡ the hash-join/SQL answer (the strategy only
    changes the exchange discipline, pytest-pinned row-identical)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.joins import merge_join

    f = pq.ParquetFile(f"{sf_dir}/orders.parquet")
    stats = f.metadata.row_group(0).column(0).statistics
    lo, hi = int(stats.min), int(stats.max)
    for rg in range(1, f.metadata.num_row_groups):
        s = f.metadata.row_group(rg).column(0).statistics
        lo, hi = min(lo, int(s.min)), max(hi, int(s.max))

    def l_prep(b: pd.DataFrame) -> pd.DataFrame:
        u = np.rint(b["l_extendedprice"].to_numpy()
                    * (1.0 - b["l_discount"].to_numpy())
                    * 10_000).astype("int64")
        return pd.DataFrame(
            {"l_orderkey": b["l_orderkey"].to_numpy("int64"), "u": u})

    def o_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": b["o_orderkey"].to_numpy("int64"),
             "status": b["o_orderstatus"].astype(str)})

    def post(m: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"status": m["status"], "n_lines": 1,
                             "rev_u": m["u"].astype("int64")})

    lschema = pa.schema([("l_orderkey", pa.int64()), ("u", pa.int64())])
    oschema = pa.schema([("l_orderkey", pa.int64()),
                         ("status", pa.string())])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"]
               ).map_batches(arrow_out(l_prep), batch_format="pandas")
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderstatus"]
                   ).map_batches(arrow_out(o_prep), batch_format="pandas")
    parts = merge_join(li, orders, "l_orderkey", key_range=(lo, hi),
                       left_schema=lschema, right_schema=oschema,
                       bucket_post=post)
    agg = fold_groups(parts, ["status"],
                      [("n_lines", "sum"), ("rev_u", "sum")])
    return (pd.DataFrame({"status": pd.array(agg["status"], "str"),
                          "n_lines": agg["n_lines"].astype("int64"),
                          "rev_u": agg["rev_u"].astype("int64")})
            .sort_values("status").reset_index(drop=True))


ORDERS_LINEITEM_MERGEJOIN_SQL = """
SELECT o.o_orderstatus AS status,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(SUM(CAST(round(l.l_extendedprice*(1-l.l_discount)*10000)
                AS BIGINT)) AS BIGINT) AS rev_u
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY 1
ORDER BY 1
"""


# -- Kendall rank correlation -----------------------------------------------------

def lineitem_kendall(sf_dir: str) -> pd.DataFrame:
    """EXACT Kendall τ-b between quantity and discount — the
    concordant/discordant-pair sibling of ``lineitem_spearman``, off the
    same trick: both columns have small discrete domains, so a per-batch
    (x, y)-count combiner collapses the table to ≤|X|·|Y| cells before
    ONE driver fold, and ALL pair counting is exact integer math over
    census cells (concordant/discordant/ties via cell-pair products —
    never row pairs).  τ-b's denominator is the only float arithmetic:
    one sqrt over exact ints, mirrored, floor-micro."""

    ds = _read(sf_dir, "lineitem", columns=["l_quantity", "l_discount"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(b["l_quantity"].to_numpy()).astype("int64")
        y = np.rint(b["l_discount"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"x": x, "y": y, "n": 1})

    cen = fold_groups(
        ds.map_batches(arrow_out(partial), batch_format="pandas"),
        ["x", "y"], [("n", "sum")])
    x = cen["x"].to_numpy("int64")
    y = cen["y"].to_numpy("int64")
    c = cen["n"].to_numpy("int64")
    # cell-pair accumulation (≤ |cells|² products, exact Python ints)
    C = D = 0
    for i in range(len(c)):
        gt = (x > x[i]) & (y > y[i])
        lt = (x > x[i]) & (y < y[i])
        C += int(c[i]) * int(c[gt].sum())
        D += int(c[i]) * int(c[lt].sum())
    n = int(c.sum())
    n0 = n * (n - 1) // 2
    tx = cen.groupby("x")["n"].sum().to_numpy("int64")
    ty = cen.groupby("y")["n"].sum().to_numpy("int64")
    n1 = int(sum(int(t) * (int(t) - 1) // 2 for t in tx))
    n2 = int(sum(int(t) * (int(t) - 1) // 2 for t in ty))
    import math

    tau = (C - D) / math.sqrt(float(n0 - n1) * float(n0 - n2))
    return pd.DataFrame({
        "n": pd.array([n], "int64"),
        "concordant": pd.array([C], "int64"),
        "discordant": pd.array([D], "int64"),
        "tau_b_micro": pd.array([int(np.floor(tau * 1e6 + 0.5))], "int64"),
    })


LINEITEM_KENDALL_SQL = """
WITH cen AS (
  SELECT CAST(round(l_quantity) AS BIGINT) AS x,
         CAST(round(l_discount*100) AS BIGINT) AS y,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM lineitem GROUP BY 1, 2),
pairs AS (
  SELECT CAST(SUM(CASE WHEN b.x > a.x AND b.y > a.y
                       THEN a.n * b.n ELSE 0 END) AS BIGINT) AS c,
         CAST(SUM(CASE WHEN b.x > a.x AND b.y < a.y
                       THEN a.n * b.n ELSE 0 END) AS BIGINT) AS d
  FROM cen a, cen b),
tot AS (
  SELECT CAST(SUM(n) AS BIGINT) AS n FROM cen),
tiex AS (
  SELECT CAST(SUM(t * (t - 1) // 2) AS BIGINT) AS n1
  FROM (SELECT CAST(SUM(n) AS BIGINT) AS t FROM cen GROUP BY x)),
tiey AS (
  SELECT CAST(SUM(t * (t - 1) // 2) AS BIGINT) AS n2
  FROM (SELECT CAST(SUM(n) AS BIGINT) AS t FROM cen GROUP BY y))
SELECT tot.n AS n, pairs.c AS concordant, pairs.d AS discordant,
       CAST(FLOOR(CAST(pairs.c - pairs.d AS DOUBLE)
                  / sqrt(CAST(tot.n * (tot.n - 1) // 2 - tiex.n1 AS DOUBLE)
                         * CAST(tot.n * (tot.n - 1) // 2 - tiey.n2
                                AS DOUBLE))
                  * 1000000 + 0.5) AS BIGINT) AS tau_b_micro
FROM pairs, tot, tiex, tiey
"""
