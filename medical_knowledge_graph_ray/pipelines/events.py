"""Event-table pipelines: tumbling windows, per-key argmax, sessions.

Each returns a lazy Dataset; SQL oracles alongside (DuckDB-ready).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.arrow import arrow_out, read_parquet_clean
from ..stages.shuffle import bucketed_group_map, fold_groups, group_frame
from ..stages.windows import (
    argmax_finalize,
    argmax_partial_batch,
    sessionize_group,
    tumbling_finalize,
    tumbling_partial_batch,
)


def _events(sf_dir: str, columns=None):
    import ray.data as rd

    return read_parquet_clean(f"{sf_dir}/events.parquet", columns=columns)


def events_tumbling(sf_dir: str):
    ev = _events(sf_dir, ["event_type", "ts", "value"])
    partials = ev.map_batches(arrow_out(tumbling_partial_batch), batch_format="pandas")
    return tumbling_finalize(partials)


TUMBLING_SQL = """
SELECT event_type, date_trunc('hour', ts) AS window_start, COUNT(*) AS n,
       SUM(CAST(round(value*100) AS BIGINT))/100.0 AS sum_value
FROM events GROUP BY event_type, date_trunc('hour', ts)
"""


def events_argmax(sf_dir: str):
    ev = _events(sf_dir, ["user_id", "event_id", "ts", "event_type", "value"])
    partials = ev.map_batches(arrow_out(argmax_partial_batch), batch_format="pandas")
    return argmax_finalize(partials)


ARGMAX_SQL = """
SELECT user_id, event_id, ts, event_type, value FROM events
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY value DESC, event_id) = 1
"""


def events_sessionize(sf_dir: str):
    ev = _events(sf_dir, ["user_id", "event_id", "ts"])
    from ..stages.shuffle import bucketed_group_map
    from ..stages.windows import sessionize_bucket

    return bucketed_group_map(ev, ["user_id"], sessionize_bucket)


SESSIONIZE_SQL = """
WITH x AS (
  SELECT user_id, event_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
  FROM events
), s AS (
  SELECT user_id, ts,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS session_ord
  FROM x
)
SELECT user_id, CAST(session_ord AS BIGINT) AS session_ord,
       COUNT(*) AS n_events, MIN(ts) AS session_start, MAX(ts) AS session_end
FROM s GROUP BY user_id, session_ord
"""


def events_sliding(sf_dir: str):
    """Sliding window: 1-hour windows hopping every 30 min — each event
    belongs to exactly two windows (explode inside the combiner, then the
    standard two-phase aggregate)."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_type", "ts", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # a 1h window starting on a 30-min boundary contains ts iff its
        # start is floor30(ts) or floor30(ts) - 30min
        half = b["ts"].dt.floor("30min")
        frames = []
        for start in (half - pd.Timedelta(minutes=30), half):
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": b["event_type"],
                        "window_start": start,
                        "value_c": np.rint(b["value"].to_numpy() * 100).astype("int64"),
                    }
                )
            )
        x = pd.concat(frames, ignore_index=True)
        return (
            x.groupby(["event_type", "window_start"], sort=False)
            .agg(n=("value_c", "size"), sum_value_c=("value_c", "sum"))
            .reset_index()
        )

    from ..functions.arrow import arrow_out

    partials = ev.map_batches(arrow_out(partial), batch_format="pandas")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(["event_type", "window_start"], sort=False)
            .agg(n=("n", "sum"), sum_value_c=("sum_value_c", "sum"))
            .reset_index()
        )
        out["sum_value"] = out["sum_value_c"] / 100.0
        # explicit µs — pandas floor() yields ns, which the driver's
        # dtype-strict compare would flag vs the oracle's timestamp[us]
        out["window_start"] = (
            out["window_start"].to_numpy().astype("datetime64[us]")
        )
        return out[["event_type", "window_start", "n", "sum_value"]]

    return bucketed_group_map(partials, ["event_type", "window_start"], combine)


SLIDING_SQL = """
WITH halves AS (
  SELECT event_type, value, time_bucket(INTERVAL 30 MINUTE, ts) AS half
  FROM events
), exploded AS (
  SELECT event_type, value, half - INTERVAL 30 MINUTE AS window_start FROM halves
  UNION ALL
  SELECT event_type, value, half AS window_start FROM halves
)
SELECT event_type, window_start, COUNT(*) AS n,
       SUM(CAST(round(value*100) AS BIGINT))/100.0 AS sum_value
FROM exploded GROUP BY event_type, window_start
"""


def events_asof(sf_dir: str):
    """As-of join: each 'click' matched to the user's latest prior (or
    simultaneous) 'purchase'.  One pruned read feeds both sides (a side
    tag instead of two scans); one bucketed shuffle on user_id co-locates
    a user's probe and reference rows; `asof_bucket` aligns them with a
    single vectorized merge_asof."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map
    from ..stages.windows import asof_bucket

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def tag(b):
        keep = b[b["event_type"].isin(["click", "purchase"])]
        out = keep[["event_id", "user_id", "ts"]].copy()
        out["side"] = np.where(keep["event_type"].to_numpy() == "click", "L", "R")
        return out

    tagged = ev.map_batches(arrow_out(tag), batch_format="pandas")
    return bucketed_group_map(tagged, ["user_id"], asof_bucket)


ASOF_SQL = """
WITH r AS (
  SELECT user_id, ts, max(event_id) AS ref_event_id
  FROM events WHERE event_type = 'purchase' GROUP BY user_id, ts
), l AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'
)
SELECT l.event_id, l.user_id, l.ts, r.ref_event_id, r.ts AS ref_ts,
       CAST(epoch_us(l.ts) - epoch_us(r.ts) AS BIGINT) AS wait_us
FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts >= r.ts
"""


def events_running_sum(sf_dir: str):
    """Per-user event-time cumulative sum (the windowed-aggregate shape
    Ray Data lacks natively): bucketed shuffle on user_id, then one
    vectorized per-bucket sort + grouped cumsum on exact int cents."""
    from ..stages.shuffle import bucketed_group_map
    from ..stages.windows import running_sum_bucket

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "value"])
    return bucketed_group_map(ev, ["user_id"], running_sum_bucket)


RUNNING_SUM_SQL = """
SELECT event_id, user_id, ts,
       SUM(CAST(round(value*100) AS BIGINT))
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING) / 100.0 AS running_sum
FROM events
"""


def events_range_join(sf_dir: str):
    """Interval self-join: same-user event pairs at most 2 h apart
    (strictly later partner).  One bucketed shuffle on user_id; the
    in-bucket kernel is a single searchsorted sweep over all users —
    see `stages/windows.py:range_join_bucket` for the monotone-axis
    construction and its overflow guard."""
    from ..stages.shuffle import bucketed_group_map
    from ..stages.windows import range_join_bucket

    ev = _events(sf_dir, ["event_id", "user_id", "ts"])
    return bucketed_group_map(ev, ["user_id"], range_join_bucket)


RANGE_JOIN_SQL = """
SELECT a.event_id AS a_event_id, b.event_id AS b_event_id, a.user_id,
       CAST(epoch_us(b.ts) - epoch_us(a.ts) AS BIGINT) AS gap_us
FROM events a JOIN events b
  ON a.user_id = b.user_id AND b.ts > a.ts
 AND b.ts <= a.ts + INTERVAL 2 HOUR
"""


def events_user_median(sf_dir: str):
    """Per-user discrete median of event value — grouped quantile via
    rank selection: one bucketed shuffle on user_id, then a vectorized
    sort + cumcount rank-pick over every user at once.  quantile_disc is
    pure selection (an existing element, rank max(1, ceil(q·n))), so the
    result is bit-exact with no scaled-integer contract needed."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "value"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "value"], kind="mergesort")
        n = s.groupby("user_id", sort=False)["value"].transform("size").to_numpy()
        rank = s.groupby("user_id", sort=False).cumcount().to_numpy() + 1
        # the same IEEE double product DuckDB computes for the rank
        pick = rank == np.maximum(1, np.ceil(0.5 * n))
        out = s[pick][["user_id", "value"]].rename(columns={"value": "median_value"})
        return out

    return bucketed_group_map(ev, ["user_id"], bucket)


USER_MEDIAN_SQL = """
SELECT user_id, quantile_disc(value, 0.5) AS median_value
FROM events GROUP BY user_id
"""


def events_lag_diff(sf_dir: str):
    """Per-user LAG window: each event with the value delta and time gap
    from the user's previous event (NULL-free: first events drop, like
    an inner LAG join).  Same bucketed shape as the running sum; the
    in-bucket kernel is one sort + grouped shift, fully vectorized."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        grp = s.groupby("user_id", sort=False)
        prev_c = grp["value"].shift().mul(100).round()
        cur_c = np.rint(s["value"].to_numpy() * 100)
        gap = (s["ts"] - grp["ts"].shift()) // pd.Timedelta(microseconds=1)
        out = pd.DataFrame(
            {
                "event_id": s["event_id"],
                "user_id": s["user_id"],
                "ts": s["ts"],
                "value_delta": (cur_c - prev_c.to_numpy()) / 100.0,
                "gap_us": gap,
            }
        )
        out = out[out["value_delta"].notna()]
        return out.astype({"value_delta": "float64", "gap_us": "int64"})

    return bucketed_group_map(ev, ["user_id"], bucket)


LAG_DIFF_SQL = """
SELECT event_id, user_id, ts,
       (CAST(round(value*100) AS BIGINT)
        - lag(CAST(round(value*100) AS BIGINT))
            OVER w) / 100.0 AS value_delta,
       epoch_us(ts) - lag(epoch_us(ts)) OVER w AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
QUALIFY value_delta IS NOT NULL
"""


PIVOT_TYPES = ["click", "error", "purchase", "signup", "view"]


def events_user_type_pivot(sf_dir: str):
    """Long→wide pivot (conditional aggregation): one row per user with
    a count column per event type.  Two-phase: per-batch (user, type)
    partial counts, bucketed final pivots to the fixed wide schema —
    the column set is part of the schema contract, never data-driven."""
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby(["user_id", "event_type"], sort=False)
            .size().rename("n").reset_index()
        )

    partials = ev.map_batches(arrow_out(partial), batch_format="pandas")

    def pivot(g: pd.DataFrame) -> pd.DataFrame:
        wide = (
            g.groupby(["user_id", "event_type"], sort=False)["n"].sum()
            .unstack(fill_value=0)
            .reindex(columns=PIVOT_TYPES, fill_value=0)
            .astype("int64")
            .reset_index()
        )
        wide.columns = ["user_id"] + [f"n_{t}" for t in PIVOT_TYPES]
        return wide

    return bucketed_group_map(partials, ["user_id"], pivot)


USER_TYPE_PIVOT_SQL = """
SELECT user_id,
       COUNT(*) FILTER (WHERE event_type = 'click')    AS n_click,
       COUNT(*) FILTER (WHERE event_type = 'error')    AS n_error,
       COUNT(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
       COUNT(*) FILTER (WHERE event_type = 'signup')   AS n_signup,
       COUNT(*) FILTER (WHERE event_type = 'view')     AS n_view
FROM events GROUP BY user_id
"""


def events_type_approx_users(sf_dir: str):
    """Approximate distinct users per event type via grouped HyperLogLog
    (stages/sketches.py:approx_distinct_by) — the sketch form of
    COUNT(DISTINCT user_id) GROUP BY event_type: the exchange carries
    16 KiB register rows per (batch, type), never user ids.  Rows-only
    (approximate by design); accuracy vs the exact count is
    pytest-gated."""
    from ..stages.sketches import approx_distinct_by

    ev = _events(sf_dir, ["event_type", "user_id"])
    return approx_distinct_by(ev, "event_type", "user_id")


ROLLING_ROWS = 3


def events_rolling_avg(sf_dir: str):
    """Row-based rolling mean per user (last ROLLING_ROWS events,
    partial windows included) — the ROWS BETWEEN window-frame shape, as
    distinct from the engine's time-based tumbling/sliding windows.
    In-bucket: one sort + cython grouped rolling sum/count on exact int
    cents, divided once (both sides divide the same exact integers)."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cents = pd.Series(np.rint(s["value"].to_numpy() * 100), index=s.index)
        grp = cents.groupby(s["user_id"].to_numpy())
        # groupby(...).rolling returns rows in group-concatenation order,
        # which equals s's row order BECAUSE s is sorted by user_id first
        rs = grp.rolling(ROLLING_ROWS, min_periods=1).sum().to_numpy()
        rn = grp.rolling(ROLLING_ROWS, min_periods=1).count().to_numpy()
        out = s[["event_id", "user_id", "ts"]].copy()
        out["rolling_avg"] = rs / (rn * 100.0)
        return out

    return bucketed_group_map(ev, ["user_id"], bucket)


ROLLING_AVG_SQL = f"""
SELECT event_id, user_id, ts,
       SUM(CAST(round(value*100) AS BIGINT)) OVER w
         / (COUNT(*) OVER w * 100.0) AS rolling_avg
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN {ROLLING_ROWS - 1} PRECEDING AND CURRENT ROW)
"""


def events_orders_reconcile(sf_dir: str):
    """Key reconciliation across two fact tables via a FULL OUTER join:
    per-user purchase-event counts ⟗ per-customer urgent-order counts
    (users with activity but no urgent orders, customers with urgent
    orders but no tracked activity, and the matched middle — the audit
    query every warehouse runs between event logs and the order system).

    Scale shape: each side is pre-aggregated to one row per key with a
    batch-local count partial + bucketed sum BEFORE the join, so the
    full-outer ``hash_join`` (J2, ``how='full'``) exchanges only the
    per-key aggregates; unmatched sides null-fill and coalesce to 0."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_group_map

    def _counted(ds, key_col: str, filt, out_name: str):
        def partial(b: pd.DataFrame) -> pd.DataFrame:
            b = b[filt(b)]
            out = (
                b.groupby(key_col, sort=False).size().rename(out_name)
                .reset_index()
                .rename(columns={key_col: "user_key"})
            )
            out[out_name] = out[out_name].astype("int64")
            return out

        partials = ds.map_batches(arrow_out(partial), batch_format="pandas")
        return bucketed_group_map(
            partials, ["user_key"],
            lambda g: g.groupby("user_key", sort=False)[out_name]
            .sum().astype("int64").reset_index(),
            num_buckets=8,
        )

    ev = _counted(
        _events(sf_dir, ["user_id", "event_type"]),
        "user_id",
        lambda b: b["event_type"] == "purchase",
        "n_purchases",
    )
    orders = _counted(
        read_parquet_clean(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderpriority"],
        ),
        "o_custkey",
        lambda b: b["o_orderpriority"] == "1-URGENT",
        "n_urgent_orders",
    )
    joined = hash_join(
        ev, orders, on=["user_key"], how="full", num_buckets=16,
        left_schema=pa.schema(
            [("user_key", pa.int64()), ("n_purchases", pa.int64())]
        ),
        right_schema=pa.schema(
            [("user_key", pa.int64()), ("n_urgent_orders", pa.int64())]
        ),
    )

    def coalesce(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"user_key": b["user_key"].astype("int64"),
             "n_purchases": b["n_purchases"].fillna(0).astype("int64"),
             "n_urgent_orders": b["n_urgent_orders"].fillna(0).astype("int64")}
        )

    return joined.map_batches(arrow_out(coalesce), batch_format="pandas")


EVENTS_ORDERS_RECONCILE_SQL = """
WITH e AS (
  SELECT user_id AS user_key, COUNT(*) AS n_purchases
  FROM events WHERE event_type = 'purchase' GROUP BY 1
), o AS (
  SELECT o_custkey AS user_key, COUNT(*) AS n_urgent_orders
  FROM orders WHERE o_orderpriority = '1-URGENT' GROUP BY 1
)
SELECT COALESCE(e.user_key, o.user_key) AS user_key,
       CAST(COALESCE(e.n_purchases, 0) AS BIGINT) AS n_purchases,
       CAST(COALESCE(o.n_urgent_orders, 0) AS BIGINT) AS n_urgent_orders
FROM e FULL OUTER JOIN o ON e.user_key = o.user_key
"""


def events_anomaly(sf_dir: str):
    """3-sigma outliers per event_type — EXACT integer arithmetic so the
    borderline rows match the SQL oracle bit-for-bit (a float z-score
    computed in a different summation order would flip rows sitting on
    the boundary).

    Contract, all on cents ``c = rint(value·100)`` (the engine's float
    convention): a row is anomalous iff ``(c·n − S)² > 9·(n·Q − S²)``
    per event_type, where ``n``/``S``/``Q`` are the group's count / sum /
    sum-of-squares — algebraically ``(c − mean)² > 9·var_pop`` with every
    quantity exact.  The per-row test vectorizes in int64 as
    ``|c·n − S| > isqrt(9·(nQ − S²))`` (isqrt makes the strict
    comparison exact without per-row bignums).

    Distributed shape: per-batch (n, S, Q) combiner partials → the tiny
    per-type stats table combines DRIVER-SIDE IN PYTHON INTS (n·Q
    overflows int64; #event_types is bounded) → thresholds broadcast into
    a vectorized filter pass.  Scale bound (documented): ``c·n`` must fit
    int64 — holds to ~10¹² rows/type at c ≤ 10⁶; beyond that switch the
    row test to float z with an epsilon band.
    """
    import math

    import numpy as np
    import pandas as pd

    ev = _events(sf_dir, ["event_id", "event_type", "value"])

    def stats_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["value"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"event_type": b["event_type"].astype(str),
                             "n": 1, "s": c, "q": c * c})

    stats = fold_groups(  # ≤ #event_types rows — bounded artifact
        ev.map_batches(arrow_out(stats_partial), batch_format="pandas"),
        ["event_type"], [("n", "sum"), ("s", "sum"), ("q", "sum")])

    n_map: dict[str, int] = {}
    s_map: dict[str, int] = {}
    t_map: dict[str, int] = {}
    for et, n, big_s, big_q in stats.itertuples(index=False):
        n, big_s, big_q = int(n), int(big_s), int(big_q)
        r = 9 * (n * big_q - big_s * big_s)  # Python int: n·Q > int64
        n_map[et] = n
        s_map[et] = big_s
        t_map[et] = math.isqrt(r) if r > 0 else 0

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["value"].to_numpy() * 100).astype("int64")
        et = b["event_type"]
        n = et.map(n_map).to_numpy("int64")
        s = et.map(s_map).to_numpy("int64")
        t = et.map(t_map).to_numpy("int64")
        keep = np.abs(c * n - s) > t
        out = b.loc[keep, ["event_id", "event_type", "value"]]
        return pd.DataFrame(
            {"event_id": out["event_id"].astype("int64"),
             "event_type": pd.array(out["event_type"], "str"),
             "value": out["value"].astype("float64")}
        )

    return ev.map_batches(arrow_out(flag), batch_format="pandas")


ANOMALY_SQL = """
WITH st AS (
  SELECT event_type,
         COUNT(*) AS n,
         SUM(CAST(round(value*100) AS HUGEINT)) AS s,
         SUM(CAST(round(value*100) AS HUGEINT)
             * CAST(round(value*100) AS HUGEINT)) AS q
  FROM events GROUP BY event_type
)
SELECT e.event_id, e.event_type, e.value
FROM events e JOIN st USING (event_type)
WHERE (CAST(round(e.value*100) AS HUGEINT) * st.n - st.s)
      * (CAST(round(e.value*100) AS HUGEINT) * st.n - st.s)
      > 9 * (st.n * st.q - st.s * st.s)
"""


def events_percent_rank(sf_dir: str):
    """Per-user PERCENT_RANK of event value — the grouped-window rank
    family (rank−1)/(n−1) with min-rank ties, single-row groups → 0.

    Exact float contract: both sides divide the SAME two integers once
    (rank−1, n−1), so the IEEE result is bit-identical — no rounding
    needed.  Distributed shape: one bucketed exchange on user_id; ranks
    vectorize per bucket with pandas ``groupby.rank(method='min')``."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "value"])

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("user_id", sort=False)["value"].rank(method="min")
        n = g.groupby("user_id", sort=False)["value"].transform("size")
        denom = (n - 1.0).to_numpy()
        pct = np.where(denom > 0, (r - 1.0).to_numpy() / denom, 0.0)
        return pd.DataFrame(
            {"event_id": g["event_id"].astype("int64"),
             "user_id": g["user_id"].astype("int64"),
             "value": g["value"].astype("float64"),
             "pct_rank": pct.astype("float64")}
        )

    return bucketed_group_map(ev, ["user_id"], rank_bucket, num_buckets=32)


PERCENT_RANK_SQL = """
SELECT event_id, user_id, value,
       PERCENT_RANK() OVER (PARTITION BY user_id ORDER BY value) AS pct_rank
FROM events
"""


def events_props_parse(sf_dir: str):
    """Semi-structured payload parsing: extract ``k`` from the JSON
    ``props`` column and census it per (event_type, k-decile) with
    exact cent-sums of value — the "parse the event payload" stage every
    log pipeline starts with.

    The extract is a COMPILED vectorized regex (`"k": <int>` — exact for
    the corpus's flat one-key payloads; a jsonpath engine would be
    per-row Python) checked against DuckDB's real ``json_extract`` by
    the oracle, so any payload-shape drift fails the gate rather than
    silently diverging."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_type", "props", "value"])

    def parse_partial(b: pd.DataFrame) -> pd.DataFrame:
        k = b["props"].str.extract(r'"k":\s*(-?\d+)', expand=False).astype("int64")
        c = np.rint(b["value"].to_numpy() * 100).astype("int64")
        g = pd.DataFrame(
            {"event_type": b["event_type"].astype(str),
             "k_decile": (k // 10).astype("int64"), "c": c}
        )
        out = (
            g.groupby(["event_type", "k_decile"], sort=False)
            .agg(n=("c", "size"), sum_value_c=("c", "sum"))
            .reset_index()
        )
        return pd.DataFrame(
            {"event_type": pd.array(out["event_type"], "str"),
             "k_decile": out["k_decile"].astype("int64"),
             "n": out["n"].astype("int64"),
             "sum_value_c": out["sum_value_c"].astype("int64")}
        )

    partials = ev.map_batches(arrow_out(parse_partial), batch_format="pandas")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(["event_type", "k_decile"], sort=False)
            .agg(n=("n", "sum"), sum_value_c=("sum_value_c", "sum"))
            .reset_index()
        )
        out["sum_value"] = out["sum_value_c"] / 100.0
        return out[["event_type", "k_decile", "n", "sum_value"]]

    return bucketed_group_map(
        partials, ["event_type", "k_decile"], combine, num_buckets=8
    )


PROPS_PARSE_SQL = """
SELECT event_type,
       CAST(json_extract(props, '$.k') AS BIGINT) // 10 AS k_decile,
       COUNT(*) AS n,
       SUM(CAST(round(value*100) AS BIGINT))/100.0 AS sum_value
FROM events
GROUP BY 1, 2
"""


def events_gapfill(sf_dir: str) -> pd.DataFrame:
    """Hourly event counts per type with ZERO-FILLED gaps over the
    corpus's [min, max] hour span — time-series resampling (the dense
    grid a forecaster or anomaly monitor consumes; sparse groupbys
    silently skip empty hours).

    Distributed shape: the per-(type, hour) counts and the global hour
    span come out of ONE combiner pass (counts are the tumbling-window
    partial family); the dense hours × types grid is a BOUNDED artifact
    (span/3600 × #types rows) assembled driver-side and left-filled
    from the distributed counts."""
    import numpy as np

    ev = _events(sf_dir, ["event_type", "ts"])

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        hour = b["ts"].dt.floor("h")
        return pd.DataFrame({"event_type": b["event_type"].astype(str),
                             "hour": hour, "n": 1})

    counts = fold_groups(  # ≤ #types · #hours rows — bounded artifact
        ev.map_batches(arrow_out(count_partial), batch_format="pandas"),
        ["event_type", "hour"], [("n", "sum")])
    if not len(counts):
        return pd.DataFrame(
            {"event_type": pd.array([], "str"),
             "hour": pd.Series([], dtype="datetime64[us]"),
             "n": pd.array([], "int64")}
        )
    hours = pd.date_range(
        counts["hour"].min(), counts["hour"].max(), freq="h"
    )
    types = sorted(counts["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [types, hours], names=["event_type", "hour"]
    ).to_frame(index=False)
    out = grid.merge(counts, on=["event_type", "hour"], how="left")
    return pd.DataFrame(
        {"event_type": pd.array(out["event_type"], "str"),
         "hour": out["hour"].astype("datetime64[us]"),
         "n": out["n"].fillna(0).astype("int64")}
    )


GAPFILL_SQL = """
WITH span AS (
  SELECT date_trunc('hour', MIN(ts)) AS lo, date_trunc('hour', MAX(ts)) AS hi
  FROM events
), hours AS (
  SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS hour FROM span
), types AS (SELECT DISTINCT event_type FROM events),
counts AS (
  SELECT event_type, date_trunc('hour', ts) AS hour, COUNT(*) AS n
  FROM events GROUP BY 1, 2
)
SELECT t.event_type, h.hour, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
FROM types t CROSS JOIN hours h
LEFT JOIN counts c ON c.event_type = t.event_type AND c.hour = h.hour
"""


def events_conversion(sf_dir: str, days: int = 7):
    """Signup→purchase conversion funnel: for every user with a signup,
    the first signup time and how many purchases land in the following
    ``days`` window — the multi-event-sequence primitive of product
    analytics.  All comparisons are on exact microsecond timestamps —
    no float contract needed.

    Distributed shape: the read is pruned to the two relevant event
    types (row filter pushed into the Parquet scan); ONE bucketed
    exchange on user_id; inside a bucket the first-signup and the
    windowed purchase count both vectorize (groupby min + boolean-mask
    count)."""
    import pyarrow.compute as pc
    import ray.data as rd

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"],
        filter=pc.field("event_type").isin(["signup", "purchase"]),
    )

    from ..stages.shuffle import bucketed_group_map

    delta = pd.Timedelta(days=days)

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        s = g[g["event_type"] == "signup"]
        if not len(s):
            return pd.DataFrame(
                {"user_id": pd.array([], "int64"),
                 "first_signup": pd.Series([], dtype="datetime64[us]"),
                 "n_purchases_7d": pd.array([], "int64"),
                 "converted": pd.array([], "bool")}
            )
        first = s.groupby("user_id", sort=False)["ts"].min().rename("first_signup")
        p = g[g["event_type"] == "purchase"].merge(
            first, left_on="user_id", right_index=True
        )
        inwin = p[
            (p["ts"] > p["first_signup"]) & (p["ts"] <= p["first_signup"] + delta)
        ]
        n = inwin.groupby("user_id", sort=False).size()
        out = first.reset_index()
        counts = out["user_id"].map(n).fillna(0).astype("int64")
        return pd.DataFrame(
            {"user_id": out["user_id"].astype("int64"),
             "first_signup": out["first_signup"].astype("datetime64[us]"),
             "n_purchases_7d": counts,
             "converted": (counts > 0).astype("bool")}
        )

    return bucketed_group_map(ev, ["user_id"], funnel, num_buckets=32)


CONVERSION_SQL = """
WITH s AS (
  SELECT user_id, MIN(ts) AS first_signup
  FROM events WHERE event_type = 'signup' GROUP BY 1
), p AS (
  SELECT e.user_id, COUNT(*) AS n
  FROM events e JOIN s USING (user_id)
  WHERE e.event_type = 'purchase'
    AND e.ts > s.first_signup
    AND e.ts <= s.first_signup + INTERVAL 7 DAY
  GROUP BY 1
)
SELECT s.user_id, s.first_signup,
       CAST(COALESCE(p.n, 0) AS BIGINT) AS n_purchases_7d,
       COALESCE(p.n, 0) > 0 AS converted
FROM s LEFT JOIN p USING (user_id)
"""


def events_retention(sf_dir: str):
    """Weekly cohort retention: users grouped by the week of their FIRST
    event; for every (cohort_week, week_offset ≥ 0) the count of cohort
    users active in that later week — the triangle every growth
    dashboard is built on.

    Distributed shape: ONE bucketed exchange on user_id; per bucket the
    (cohort, offset) pairs come from a vectorized first-week join +
    distinct (user, week) census; the pair counts then combine through a
    tiny second exchange (pair cardinality ≤ weeks², bounded)."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "ts"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        wk = g["ts"].dt.to_period("W").dt.start_time
        d = pd.DataFrame({"user_id": g["user_id"], "week": wk}).drop_duplicates()
        first = d.groupby("user_id", sort=False)["week"].transform("min")
        off = ((d["week"] - first).dt.days // 7).astype("int64")
        out = (
            pd.DataFrame({"cohort_week": first, "week_offset": off})
            .groupby(["cohort_week", "week_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        return pd.DataFrame(
            {"cohort_week": out["cohort_week"].astype("datetime64[us]"),
             "week_offset": out["week_offset"].astype("int64"),
             "n_users": out["n_users"].astype("int64")}
        )

    per_user = bucketed_group_map(ev, ["user_id"], pairs, num_buckets=32)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby(["cohort_week", "week_offset"], sort=False)["n_users"]
            .sum()
            .reset_index()
        )

    return bucketed_group_map(
        per_user, ["cohort_week", "week_offset"], combine, num_buckets=4
    )


RETENTION_SQL = """
WITH uw AS (
  SELECT DISTINCT user_id, date_trunc('week', ts) AS week FROM events
), f AS (
  SELECT user_id, MIN(week) AS cohort_week FROM uw GROUP BY 1
)
SELECT f.cohort_week,
       CAST(date_diff('day', f.cohort_week, uw.week) // 7 AS BIGINT)
         AS week_offset,
       COUNT(*) AS n_users
FROM uw JOIN f USING (user_id)
GROUP BY 1, 2
"""


# -- NTILE window (quartile bucketing per user) --------------------------------

NTILE_TILES = 4


def events_ntile(sf_dir: str, tiles: int = NTILE_TILES):
    """Per-user NTILE(4) over (ts, event_id) order — the windowed
    bucketing family (equal-depth tiles with the SQL size contract: the
    first n mod t tiles get ceil(n/t) rows).  One bucketed exchange on
    user_id; tile assignment vectorizes per bucket from cumcount + group
    size, never a per-row loop."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts"])

    def tile_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        idx = g.groupby("user_id", sort=False).cumcount().to_numpy()
        n = (
            g.groupby("user_id", sort=False)["event_id"]
            .transform("size").to_numpy()
        )
        q, r = np.divmod(n, tiles)
        big = r * (q + 1)  # rows covered by the leading ceil-sized tiles
        tile = np.where(
            idx < big,
            idx // np.maximum(q + 1, 1),
            r + (idx - big) // np.maximum(q, 1),
        ) + 1
        return pd.DataFrame(
            {"event_id": g["event_id"].astype("int64"),
             "user_id": g["user_id"].astype("int64"),
             "tile": tile.astype("int64")}
        )

    return bucketed_group_map(ev, ["user_id"], tile_bucket, num_buckets=32)


NTILE_SQL = f"""
SELECT event_id, user_id,
       CAST(NTILE({NTILE_TILES}) OVER (
         PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS tile
FROM events
"""


# -- event-type transition census (next-event Markov counts) -------------------

def events_transitions(sf_dir: str):
    """(event_type → next event_type) transition counts across every
    user's time-ordered stream — the Markov-chain census behind funnel
    and path analysis (the LEAD window family).  One bucketed exchange
    on user_id; inside each bucket the next-type column is ONE shift of
    the (user, ts, event_id)-sorted frame (boundary rows masked where
    the user changes), then ``fold_groups`` counts the (type, next_type)
    pairs — transition keys are |types|² bounded."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        user = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = user[:-1] == user[1:]
        return pd.DataFrame(
            {"event_type": et[:-1][same], "next_type": et[1:][same], "n": 1}
        )

    pairs = bucketed_group_map(ev, ["user_id"], pair_partial, num_buckets=32)
    agg = fold_groups(pairs, ["event_type", "next_type"], [("n", "sum")])
    return pd.DataFrame(
        {"event_type": agg["event_type"].astype(str),
         "next_type": agg["next_type"].astype(str),
         "n": agg["n"].astype("int64")}
    )


TRANSITIONS_SQL = """
WITH nxt AS (
  SELECT event_type,
         lead(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS next_type
  FROM events
)
SELECT event_type, next_type, COUNT(*) AS n
FROM nxt WHERE next_type IS NOT NULL
GROUP BY event_type, next_type
"""


# -- sliding-window exact distinct users ---------------------------------------

def events_sliding_users(sf_dir: str):
    """Exact distinct users per 1-hour/30-min sliding window — the
    windowed COUNT(DISTINCT) (the exact complement of the HLL sketch
    queries): explode each event into its two windows AND dedup
    (window, user) inside the batch (the combiner — repeat visitors
    collapse before the exchange), then one bucketed exchange counts
    exact distincts per window."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        half = b["ts"].dt.floor("30min")
        frames = [
            pd.DataFrame(
                {"window_start": start, "user_id": b["user_id"]}
            )
            for start in (half - pd.Timedelta(minutes=30), half)
        ]
        return pd.concat(frames, ignore_index=True).drop_duplicates()

    pairs = ev.map_batches(arrow_out(partial), batch_format="pandas")

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.drop_duplicates()
            .groupby("window_start", sort=False)["user_id"]
            .size().rename("n_users").reset_index()
        )
        out["n_users"] = out["n_users"].astype("int64")
        out["window_start"] = (
            out["window_start"].to_numpy().astype("datetime64[us]")
        )
        return out

    return bucketed_group_map(
        pairs, ["window_start"], count_bucket, num_buckets=32
    )


SLIDING_USERS_SQL = """
WITH halves AS (
  SELECT user_id, time_bucket(INTERVAL 30 MINUTE, ts) AS half FROM events
), exploded AS (
  SELECT user_id, half - INTERVAL 30 MINUTE AS window_start FROM halves
  UNION ALL
  SELECT user_id, half FROM halves
)
SELECT window_start, COUNT(DISTINCT user_id) AS n_users
FROM exploded GROUP BY window_start
"""


# -- per-user modal event type (grouped mode, deterministic tiebreak) ----------

def events_user_mode(sf_dir: str):
    """Each user's most frequent event type (ties → lexicographically
    first type) — the grouped-mode shape: per-(user, type) counts
    combine per batch, then ONE bucketed exchange on user_id finishes
    the counts and takes the per-user argmax vectorized."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby(["user_id", "event_type"], sort=False)
            .size().rename("n").reset_index()
        )

    counts = ev.map_batches(arrow_out(partial), batch_format="pandas")

    def mode_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = (
            g.groupby(["user_id", "event_type"], sort=False)["n"]
            .sum().reset_index()
        )
        s = tot.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True], kind="mergesort",
        )
        top = s.groupby("user_id", sort=False).head(1)
        return pd.DataFrame(
            {"user_id": top["user_id"].astype("int64"),
             "mode_type": top["event_type"].astype(str),
             "n": top["n"].astype("int64")}
        )

    return bucketed_group_map(counts, ["user_id"], mode_bucket, num_buckets=32)


USER_MODE_SQL = """
SELECT user_id, event_type AS mode_type, COUNT(*) AS n
FROM events
GROUP BY user_id, event_type
QUALIFY row_number() OVER (
  PARTITION BY user_id ORDER BY COUNT(*) DESC, event_type) = 1
"""


def events_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution — the
    behavioral-diversity signal (bot/user segmentation, exploration
    scoring): H = ln(n) − (Σ_type c·ln c)/n over the user's type counts.

    Float contract: Σ c·ln c is order-sensitive, so each addend is
    pre-rounded to an INTEGER micro-nat (``floor(c·ln(c)·1e6 + 0.5)``)
    and the sum travels as exact int64 — summation order stops
    mattering.  Both engines take ``ln`` from the same glibc
    (CPython's ``math.log`` ≡ DuckDB's ``std::log``), and the logs are
    computed once per DISTINCT count via a lookup table, never per row.
    The final expression is mirrored term-for-term in the oracle, so
    the doubles match bit-for-bit.

    Shape: per-batch (user, type) count combiner → ONE bucketed
    exchange on user_id → vectorized per-bucket finalize."""
    import math

    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby(["user_id", "event_type"], sort=False)
            .size().rename("n").reset_index()
        )

    counts = ev.map_batches(arrow_out(partial), batch_format="pandas")

    def entropy_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = (
            g.groupby(["user_id", "event_type"], sort=False)["n"]
            .sum().reset_index()
        )
        c = tot["n"].to_numpy("int64")
        ln = {int(v): math.log(int(v)) for v in np.unique(c)}
        lnc = np.fromiter((ln[int(v)] for v in c), dtype="float64", count=len(c))
        term = np.floor(
            c.astype("float64") * lnc * 1000000.0 + 0.5
        ).astype("int64")
        per = (
            pd.DataFrame({"user_id": tot["user_id"], "n": c, "t": term})
            .groupby("user_id", sort=False)
            .agg(n=("n", "sum"), n_types=("n", "size"), terms=("t", "sum"))
            .reset_index()
        )
        n = per["n"].to_numpy("int64")
        lnn = {int(v): math.log(int(v)) for v in np.unique(n)}
        log_n = np.fromiter(
            (lnn[int(v)] for v in n), dtype="float64", count=len(n)
        )
        ent = log_n - (per["terms"].to_numpy("int64").astype("float64")
                       / 1000000.0) / n.astype("float64")
        return pd.DataFrame(
            {"user_id": per["user_id"].astype("int64"),
             "n_events": n,
             "n_types": per["n_types"].astype("int64"),
             "entropy": ent}
        )

    return bucketed_group_map(counts, ["user_id"], entropy_bucket)


def events_dense_rank(sf_dir: str):
    """DENSE_RANK of users inside each event type by total spend — the
    gap-free sibling of the rank family already covered
    (row_number/percent_rank/cume_dist/ntile): ties share a rank and the
    next distinct value takes rank+1, so no tiebreak column is needed
    for determinism.  Exact int64 cent sums; per-(type,user) partials
    combine per batch, ONE bucketed exchange on event_type, then the
    rank is a vectorized cumsum of new-distinct-value flags per type."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_type", "user_id", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["value"].to_numpy() * 100).astype("int64")
        return (
            pd.DataFrame(
                {"event_type": b["event_type"], "user_id": b["user_id"], "v": c}
            )
            .groupby(["event_type", "user_id"], sort=False)["v"]
            .sum().reset_index()
        )

    sums = ev.map_batches(arrow_out(partial), batch_format="pandas")

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = (
            g.groupby(["event_type", "user_id"], sort=False)["v"]
            .sum().reset_index()
        )
        s = tot.sort_values(
            ["event_type", "v"], ascending=[True, False], kind="mergesort"
        )
        t = s["event_type"].to_numpy()
        v = s["v"].to_numpy()
        new_grp = np.ones(len(s), dtype=bool)
        new_grp[1:] = t[1:] != t[:-1]
        new_val = np.ones(len(s), dtype=bool)
        new_val[1:] = (v[1:] != v[:-1]) | new_grp[1:]
        csum = np.cumsum(new_val)
        base = np.maximum.accumulate(np.where(new_grp, csum - 1, 0))
        return pd.DataFrame(
            {"event_type": s["event_type"].astype(str),
             "user_id": s["user_id"].astype("int64"),
             "sum_cents": pd.array(v, "int64"),
             "drank": pd.array(csum - base, "int64")}
        )

    return bucketed_group_map(sums, ["event_type"], rank_bucket, num_buckets=8)


FUNNEL_STEPS = ("signup", "click", "purchase")


def events_funnel3(sf_dir: str):
    """Three-step ORDERED funnel (signup → click → purchase, each step
    strictly AFTER the previous step's first qualifying time) — the
    product-analytics generalization of the 2-step ``events_conversion``:
    step k counts users whose first type-k event follows their first
    qualifying type-(k−1) event.  µs-integer comparisons on both
    engines; the read is pruned to the three funnel types.

    ONE bucketed exchange on user_id; per bucket each step is a grouped
    min over a masked merge (no per-user Python loop), partial counts
    fold driver-side to three rows."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.shuffle import bucketed_group_map

    s1, s2, s3 = FUNNEL_STEPS
    ev = _events_filtered(sf_dir, list(FUNNEL_STEPS))

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        us = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        d = pd.DataFrame(
            {"user_id": g["user_id"].to_numpy(), "t": us,
             "et": g["event_type"].to_numpy()}
        )
        t1 = (
            d[d["et"] == s1].groupby("user_id", sort=False)["t"].min()
            .rename("t1")
        )
        c = d[d["et"] == s2].merge(t1, on="user_id")
        t2 = (
            c[c["t"] > c["t1"]].groupby("user_id", sort=False)["t"].min()
            .rename("t2")
        )
        p = d[d["et"] == s3].merge(t2, on="user_id")
        t3 = (
            p[p["t"] > p["t2"]].groupby("user_id", sort=False)["t"].min()
        )
        return pd.DataFrame(
            {"n1": pd.array([len(t1)], "int64"),
             "n2": pd.array([len(t2)], "int64"),
             "n3": pd.array([len(t3)], "int64")}
        )

    tot = fold_groups(bucketed_group_map(ev, ["user_id"], funnel_bucket), [],
                      [("n1", "sum"), ("n2", "sum"), ("n3", "sum")]).iloc[0]
    return pd.DataFrame(
        {"step": pd.array([1, 2, 3], "int64"),
         "event_type": pd.array(list(FUNNEL_STEPS), "str"),
         "n_users": pd.array(
             [int(tot["n1"]), int(tot["n2"]), int(tot["n3"])], "int64")}
    )


def _events_filtered(sf_dir: str, types: list):
    import pyarrow.compute as pc

    return read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"],
        filter=pc.field("event_type").isin(types),
    )


FUNNEL3_SQL = f"""
WITH s AS (
  SELECT user_id, MIN(ts) AS t1 FROM events
  WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY user_id
), c AS (
  SELECT e.user_id, MIN(e.ts) AS t2
  FROM events e JOIN s ON e.user_id = s.user_id
  WHERE e.event_type = '{FUNNEL_STEPS[1]}' AND e.ts > s.t1
  GROUP BY e.user_id
), p AS (
  SELECT e.user_id, MIN(e.ts) AS t3
  FROM events e JOIN c ON e.user_id = c.user_id
  WHERE e.event_type = '{FUNNEL_STEPS[2]}' AND e.ts > c.t2
  GROUP BY e.user_id
)
SELECT CAST(1 AS BIGINT) AS step, '{FUNNEL_STEPS[0]}' AS event_type,
       (SELECT COUNT(*) FROM s) AS n_users
UNION ALL
SELECT CAST(2 AS BIGINT), '{FUNNEL_STEPS[1]}', (SELECT COUNT(*) FROM c)
UNION ALL
SELECT CAST(3 AS BIGINT), '{FUNNEL_STEPS[2]}', (SELECT COUNT(*) FROM p)
"""


DENSE_RANK_SQL = """
WITH s AS (
  SELECT event_type, user_id,
         CAST(SUM(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS sum_cents
  FROM events GROUP BY event_type, user_id
)
SELECT event_type, user_id, sum_cents,
       CAST(dense_rank() OVER (PARTITION BY event_type
                               ORDER BY sum_cents DESC) AS BIGINT) AS drank
FROM s
"""


ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, event_type, COUNT(*) AS c
  FROM events GROUP BY user_id, event_type
), u AS (
  SELECT user_id, SUM(c) AS n, COUNT(*) AS n_types,
         SUM(CAST(floor(c * ln(c) * 1000000.0 + 0.5) AS BIGINT)) AS terms
  FROM c GROUP BY user_id
)
SELECT user_id, CAST(n AS BIGINT) AS n_events,
       CAST(n_types AS BIGINT) AS n_types,
       ln(CAST(n AS BIGINT)) - (CAST(terms AS DOUBLE) / 1000000.0)
                               / CAST(n AS DOUBLE) AS entropy
FROM u
"""


# -- per-user time-weighted average (interval-weighted aggregation) -------------

def events_twa(sf_dir: str):
    """Per-user TIME-weighted average of ``value`` — the metrics-system
    aggregate where each reading holds until the next one (numerator
    Σ value·Δt, denominator Σ Δt over the user's ordered stream; the
    last reading has no interval and is excluded, users with zero total
    duration are dropped — mirrored in the oracle's HAVING).

    Exact contract: value in int cents, Δt in whole seconds via the SAME
    integer floor-division both engines compute ((µs_next − µs) //
    1e6), so both sums are exact int64 (product ≤ ~1e11/row) and the
    ONE float division happens on identical integers.  One bucketed
    exchange on user_id; the shift/mask/sums vectorize per bucket."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def twa_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        user = g["user_id"].to_numpy()
        us = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        vc = np.rint(g["value"].to_numpy() * 100).astype("int64")
        same = user[:-1] == user[1:]
        dt_s = (us[1:] - us[:-1]) // 1_000_000
        d = pd.DataFrame(
            {"user_id": user[:-1][same],
             "num": vc[:-1][same] * dt_s[same],
             "den": dt_s[same]}
        )
        agg = d.groupby("user_id", sort=False).agg(
            num=("num", "sum"), den=("den", "sum")
        ).reset_index()
        agg = agg[agg["den"] > 0]
        return pd.DataFrame(
            {"user_id": agg["user_id"].astype("int64"),
             "twa_value": np.round(
                 agg["num"].to_numpy() / (100.0 * agg["den"].to_numpy()), 6
             )}
        )

    return bucketed_group_map(ev, ["user_id"], twa_bucket, num_buckets=32)


TWA_SQL = """
WITH x AS (
  SELECT user_id, value, ts,
         lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
), d AS (
  SELECT user_id,
         CAST(round(value*100) AS BIGINT) AS vc,
         (epoch_us(nxt) - epoch_us(ts)) // 1000000 AS dt_s
  FROM x WHERE nxt IS NOT NULL
)
SELECT user_id, round(SUM(vc*dt_s) / (100.0 * SUM(dt_s)), 6) AS twa_value
FROM d GROUP BY user_id HAVING SUM(dt_s) > 0
"""


# -- wide→long UNPIVOT (the inverse of the per-user type pivot) -----------------

def events_type_unpivot(sf_dir: str):
    """Melt the wide per-user type-count table back to long
    (user_id, event_type, n) rows, dropping zero cells — the UNPIVOT
    half of the reshape pair.  The melt is a pure per-batch flat
    transform over the pivot's output (no additional exchange beyond
    the pivot's own), so the chain is pivot-exchange + map."""
    wide = events_user_type_pivot(sf_dir)

    def melt(b: pd.DataFrame) -> pd.DataFrame:
        long = b.melt(
            id_vars=["user_id"],
            value_vars=[f"n_{t}" for t in PIVOT_TYPES],
            var_name="event_type", value_name="n",
        )
        long = long[long["n"] > 0]
        return pd.DataFrame(
            {"user_id": long["user_id"].astype("int64"),
             "event_type": long["event_type"].str.removeprefix("n_"),
             "n": long["n"].astype("int64")}
        )

    return wide.map_batches(arrow_out(melt), batch_format="pandas")


TYPE_UNPIVOT_SQL = """
SELECT user_id, event_type, COUNT(*) AS n
FROM events GROUP BY user_id, event_type
"""


# -- INTERSECT of per-user type key sets ----------------------------------------

def events_users_both(sf_dir: str, type_a: str = "click",
                      type_b: str = "purchase"):
    """Users present in BOTH event types — the INTERSECT shape: the read
    prunes to the two types via Parquet row-filter pushdown, each batch
    emits its distinct (user, has_a, has_b) flag partials, one bucketed
    exchange ORs the flags per user and keeps the conjunction."""
    import pyarrow.compute as pc

    from ..stages.shuffle import bucketed_group_map

    import ray.data as rd

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"],
        filter=pc.field("event_type").isin([type_a, type_b]),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.assign(
            has_a=(b["event_type"] == type_a),
            has_b=(b["event_type"] == type_b),
        ).groupby("user_id", sort=False)[["has_a", "has_b"]].any().reset_index()
        return g

    flags = ev.map_batches(arrow_out(partial), batch_format="pandas")

    def conj(g: pd.DataFrame) -> pd.DataFrame:
        t = g.groupby("user_id", sort=False)[["has_a", "has_b"]].any()
        keep = t[t["has_a"] & t["has_b"]].reset_index()
        return pd.DataFrame({"user_id": keep["user_id"].astype("int64")})

    return bucketed_group_map(flags, ["user_id"], conj, num_buckets=16)


USERS_BOTH_SQL = """
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'
"""


# -- FIRST_VALUE / LAST_VALUE per partition ------------------------------------

def events_first_last(sf_dir: str):
    """Per-user first and last event type by (ts, event_id) — the
    FIRST_VALUE/LAST_VALUE window pair as mergeable extremum partials:
    each batch keeps its local first/last row per user (the combiner),
    one bucketed exchange picks the global extrema — order-by state
    never leaves the batch, no global sort."""
    import numpy as np

    from ..functions.arrow import arrow_out
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_id", "ts", "event_type"])

    def extrema_partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = s.groupby("user_id", sort=False)
        first = g.head(1).assign(kind="f")
        last = g.tail(1).assign(kind="l")
        out = pd.concat([first, last], ignore_index=True)
        return pd.DataFrame(
            {"user_id": out["user_id"].astype("int64"),
             "event_id": out["event_id"].astype("int64"),
             "ts": out["ts"],
             "event_type": pd.array(out["event_type"], "str"),
             "kind": pd.array(out["kind"], "str")}
        )

    partials = ev.map_batches(arrow_out(extrema_partial), batch_format="pandas")

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        f = s[s["kind"] == "f"].groupby("user_id", sort=False).head(1)
        l = s[s["kind"] == "l"].groupby("user_id", sort=False).tail(1)
        m = f[["user_id", "event_type"]].rename(
            columns={"event_type": "first_type"}
        ).merge(
            l[["user_id", "event_type"]].rename(
                columns={"event_type": "last_type"}
            ),
            on="user_id",
        )
        return pd.DataFrame(
            {"user_id": m["user_id"].astype("int64"),
             "first_type": pd.array(m["first_type"], "str"),
             "last_type": pd.array(m["last_type"], "str")}
        )

    return bucketed_group_map(partials, ["user_id"], pick, num_buckets=32)


FIRST_LAST_SQL = """
SELECT DISTINCT user_id,
       first_value(event_type) OVER w AS first_type,
       last_value(event_type) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING
       ) AS last_type
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def events_cume_dist(sf_dir: str):
    """Per-user CUME_DIST of event value — rank(method='max')/n, the
    ≤-inclusive sibling of events_percent_rank.  Same exact float
    contract (ONE division of the same two integers on both engines) and
    the same single bucketed user_id exchange."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "value"])

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("user_id", sort=False)["value"].rank(method="max")
        n = g.groupby("user_id", sort=False)["value"].transform("size")
        return pd.DataFrame(
            {"event_id": g["event_id"].astype("int64"),
             "user_id": g["user_id"].astype("int64"),
             "value": g["value"].astype("float64"),
             "cume": (r.to_numpy() / n.to_numpy()).astype("float64")}
        )

    return bucketed_group_map(ev, ["user_id"], rank_bucket, num_buckets=32)


CUME_DIST_SQL = """
SELECT event_id, user_id, value,
       CUME_DIST() OVER (PARTITION BY user_id ORDER BY value) AS cume
FROM events
"""


def events_user_path(sf_dir: str):
    """Per-user ordered event-type path (ORDERED string aggregation —
    the `string_agg(... ORDER BY ...)` shape): one bucketed user_id
    exchange, per-bucket mergesort by (ts, event_id) then a grouped
    join — order state never crosses buckets because a user's rows are
    co-located."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_id", "ts", "event_type"])

    def path_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        p = s.groupby("user_id", sort=False)["event_type"].agg(">".join)
        return pd.DataFrame(
            {"user_id": pd.array(p.index, "int64"),
             "path": pd.array(p.to_numpy(), "str")}
        )

    return bucketed_group_map(ev, ["user_id"], path_bucket, num_buckets=32)


USER_PATH_SQL = """
SELECT user_id,
       string_agg(event_type, '>' ORDER BY ts, event_id) AS path
FROM events GROUP BY user_id
"""


# one char per event type so the CEP pattern is a plain regex; first
# letters are distinct across the five types on this schema
CEP_CODES = {"click": "c", "error": "e", "purchase": "p",
             "signup": "s", "view": "v"}
CEP_PATTERN = "vc+p"  # view, 1+ clicks, purchase — strictly in order


def events_cep(sf_dir: str):
    """MATCH_RECOGNIZE-style complex-event-processing: per user, the
    count of non-overlapping leftmost matches of the ordered pattern
    ``view (click)+ purchase`` in the event-type sequence — the SQL:2016
    row-pattern primitive (PATTERN (V C+ P) ONE ROW PER MATCH), which no
    windowed aggregate expresses.

    Shape: event types collapse to one char per row, each user's ordered
    sequence assembles inside ONE user-bucketed exchange (the
    ``events_user_path`` co-location argument — order state never
    crosses buckets), and the pattern runs as one compiled regex per
    USER-sequence, not per event.  Leftmost non-overlapping ``findall``
    semantics are exactly DuckDB's ``regexp_extract_all`` (both RE2-ish
    leftmost); users with zero matches drop in-bucket, so the driver
    sees only matching users."""
    import re

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_id", "ts", "event_type"])
    pat = re.compile(CEP_PATTERN)

    def cep_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        codes = s["event_type"].map(CEP_CODES).fillna("?")
        seq = codes.groupby(s["user_id"].to_numpy(), sort=False).agg("".join)
        n = np.fromiter((len(pat.findall(q)) for q in seq.to_numpy()),
                        dtype="int64", count=len(seq))
        keep = n > 0
        return pd.DataFrame(
            {"user_id": pd.array(seq.index.to_numpy()[keep], "int64"),
             "n_matches": pd.array(n[keep], "int64")}
        )

    out = bucketed_group_map(
        ev, ["user_id"], cep_bucket, num_buckets=32
    ).to_pandas()  # ≤ matching users
    if "user_id" not in out.columns:
        out = pd.DataFrame({"user_id": pd.array([], "int64"),
                            "n_matches": pd.array([], "int64")})
    return (out.astype({"user_id": "int64", "n_matches": "int64"})
            .sort_values("user_id", kind="mergesort").reset_index(drop=True))


CEP_SQL = """
WITH s AS (
  SELECT user_id,
         string_agg(CASE event_type WHEN 'view' THEN 'v'
                    WHEN 'click' THEN 'c' WHEN 'purchase' THEN 'p'
                    WHEN 'signup' THEN 's' WHEN 'error' THEN 'e'
                    ELSE '?' END, '' ORDER BY ts, event_id) AS seq
  FROM events GROUP BY user_id
)
SELECT user_id, len(regexp_extract_all(seq, 'vc+p')) AS n_matches
FROM s
WHERE len(regexp_extract_all(seq, 'vc+p')) > 0
"""


def events_share_of_total(sf_dir: str):
    """Per-event-type share of total value (the RATIO_TO_REPORT /
    percent-of-total window shape): exact int-cent sums per type folded
    by ``fold_groups``, one float division of two exact integers per
    row — the engine's ratio contract."""
    import numpy as np

    ev = _events(sf_dir, ["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["value"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"event_type": b["event_type"], "c": c})

    agg = fold_groups(  # one row per event type
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["event_type"], [("c", "sum")])
    total = int(agg["c"].sum())
    return pd.DataFrame(
        {"event_type": pd.array(agg["event_type"], "str"),
         "total_value": agg["c"].astype("int64") / 100.0,
         "share": np.round(agg["c"].to_numpy().astype("float64") / total, 6)}
    ).sort_values("event_type").reset_index(drop=True)


SHARE_OF_TOTAL_SQL = """
WITH t AS (
  SELECT event_type,
         SUM(CAST(round(value*100) AS BIGINT)) AS c
  FROM events GROUP BY 1
)
SELECT event_type, c/100.0 AS total_value,
       round(c / (SELECT SUM(c) FROM t), 6) AS share
FROM t
"""


RANGE_WINDOW_MINUTES = 10


def events_rolling_time(sf_dir: str):
    """Time-RANGE windowed aggregate per user: for every event, the count
    and exact cent-sum of that user's events in the trailing
    ``RANGE_WINDOW_MINUTES`` interval — the ``RANGE BETWEEN INTERVAL x
    PRECEDING AND CURRENT ROW`` frame (value-based, peers included), as
    distinct from the engine's row-based rolling and fixed tumbling /
    sliding windows.

    In-bucket the whole frame is TWO ``np.searchsorted`` calls: rows sort
    by (user, ts); a composite int64 key ``user_rank·2^45 + Δts_µs``
    makes every user's events one contiguous strictly-keyed run (a year
    of microseconds < 2^45, so windows can never cross users), the
    window's low edge is ``searchsorted(keys, key − 10min)`` and its high
    edge ``searchsorted(keys, key, side='right')`` — the right side
    includes ts-PEERS exactly like the SQL RANGE frame — and the sums
    fall out of one cumulative-sum difference.  No Python loop per user
    or per row; exchange = one user-bucketed pass."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "value"])
    delta_us = RANGE_WINDOW_MINUTES * 60 * 1_000_000

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = s["ts"].to_numpy("datetime64[us]").astype(np.int64)
        ts_rel = ts_us - (ts_us.min() if len(ts_us) else 0)
        # contiguous user ranks in sorted order (codes of a factorize on
        # the already-sorted column are monotonic)
        u = s["user_id"].to_numpy()
        new_user = np.empty(len(u), dtype=bool)
        if len(u):
            new_user[0] = True
            new_user[1:] = u[1:] != u[:-1]
        ranks = np.cumsum(new_user) - 1 if len(u) else np.array([], np.int64)
        if len(ts_rel) and int(ts_rel.max()) >= (1 << 45) - delta_us:
            # composite-key guard: ~1.1 years of µs per bucket; wider
            # spans need a coarser tick or a per-user segment loop
            raise ValueError("events_rolling_time: ts span exceeds 2^45 µs")
        keys = ranks.astype(np.int64) * (1 << 45) + ts_rel
        lo = np.searchsorted(keys, keys - delta_us, side="left")
        hi = np.searchsorted(keys, keys, side="right")
        cents = np.rint(s["value"].to_numpy() * 100).astype(np.int64)
        csum = np.concatenate([[0], np.cumsum(cents)])
        out = s[["event_id"]].copy()
        out["event_id"] = out["event_id"].astype("int64")
        out["n_window"] = pd.array((hi - lo).astype("int64"), "int64")
        out["sum_cents"] = pd.array(csum[hi] - csum[lo], "int64")
        return out

    return bucketed_group_map(ev, ["user_id"], bucket)


ROLLING_TIME_SQL = f"""
SELECT event_id,
       CAST(COUNT(*) OVER w AS BIGINT) AS n_window,
       CAST(SUM(CAST(round(value*100) AS BIGINT)) OVER w AS BIGINT) AS sum_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL {RANGE_WINDOW_MINUTES} MINUTES PRECEDING
             AND CURRENT ROW)
"""


# -- Debounce: suppress rapid-fire same-key repeats ---------------------------

DEBOUNCE_GAP_US = 86_400_000_000  # 1 day


def events_debounce(sf_dir: str):
    """Gap-based event suppression: keep an event iff it is the first of
    its (user, type) stream or arrived more than ``DEBOUNCE_GAP_US``
    after the PREVIOUS EVENT of that stream — the LAG-gap filter
    analytics pipelines run to collapse rapid-fire duplicates
    (instrumentation retries, double-clicks) before sessionization.

    Contract note: this is the SQL-expressible LAG semantics (gap from
    the previous event, kept or not).  The stricter recurrence variant —
    gap from the previous KEPT event — is sessionization in disguise:
    compose ``events_sessionize``'s gap-chain kernel and keep session
    heads if that's the need.  Shape: one bucketed exchange on user_id,
    in-bucket sort + grouped shift, fully vectorized."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "event_type", "ts"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(
            ["user_id", "event_type", "ts", "event_id"], kind="mergesort"
        )
        prev = s.groupby(["user_id", "event_type"], sort=False)["ts"].shift()
        gap = (s["ts"] - prev) // pd.Timedelta(microseconds=1)
        keep = prev.isna().to_numpy() | (gap.to_numpy() > DEBOUNCE_GAP_US)
        return s.loc[keep, ["event_id", "user_id", "event_type", "ts"]]

    return bucketed_group_map(ev, ["user_id"], bucket)


DEBOUNCE_SQL = f"""
SELECT event_id, user_id, event_type, ts
FROM (
  SELECT event_id, user_id, event_type, ts,
         epoch_us(ts) - lag(epoch_us(ts))
           OVER (PARTITION BY user_id, event_type
                 ORDER BY ts, event_id) AS gap
  FROM events
)
WHERE gap IS NULL OR gap > CAST({DEBOUNCE_GAP_US} AS BIGINT)
"""


# -- exponential time-decay scoring -------------------------------------------

DECAY_REF_US = 1_706_700_000_000_000  # fixed "now" just past the corpus window
DECAY_TAU_US = 604_800_000_000        # 7-day half-life scale (e-folding)


def events_decay(sf_dir: str):
    """Per-user exponential time-decay score Σ value·e^(−(T−t)/τ) — the
    recency-weighted engagement metric (feature stores, ranking
    freshness).  τ = 7 days, T fixed just past the corpus window so the
    score is reproducible.

    Float contract: each addend is pre-rounded to an INTEGER micro-unit
    ``floor(value·e^(−Δ/τ)·10⁶ + 0.5)`` so the per-user sum is exact
    int64 and summation order stops mattering.  ``exp`` is taken from
    glibc via CPython's ``math.exp`` — computed once per DISTINCT
    timestamp (np.unique + table, the ``events_entropy`` ln idiom), NOT
    via numpy's vectorized exp (its SIMD polynomial can differ from
    libm in the last ulp, which a floor contract cannot absorb).  The
    argument ``(T−t)/τ`` is exact-int subtraction then one double
    divide, mirrored term-for-term in the oracle.

    Shape: per-row (user, addend) columns → one ``bucketed_group_map``
    on user_id (the result has a row per user, so it stays a
    Dataset)."""
    import math

    ev = _events(sf_dir, ["user_id", "ts", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b["ts"].to_numpy().astype("datetime64[us]").view("int64")
        expo = (DECAY_REF_US - t).astype("float64") / float(DECAY_TAU_US)
        uniq, inv = np.unique(expo, return_inverse=True)
        table = np.fromiter(
            (math.exp(-v) for v in uniq), dtype="float64", count=len(uniq)
        )
        addend = np.floor(
            b["value"].to_numpy("float64") * table[inv] * 1000000.0 + 0.5
        ).astype("int64")
        return pd.DataFrame({"user_id": b["user_id"].astype("int64"),
                             "decay_micro": addend, "n_events": 1})

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", sort=False, as_index=False)[
            ["decay_micro", "n_events"]].sum()

    return bucketed_group_map(  # one row per user: stays a Dataset
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["user_id"], per_user)


DECAY_SQL = f"""
SELECT user_id,
       CAST(SUM(CAST(floor(value
                      * exp(-((CAST({DECAY_REF_US} AS BIGINT)
                               - epoch_us(ts))
                              / {DECAY_TAU_US}.0))
                      * 1000000.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS decay_micro,
       COUNT(*) AS n_events
FROM events GROUP BY user_id
"""


# -- chi-square independence test ---------------------------------------------


def events_chisq(sf_dir: str) -> pd.DataFrame:
    """Pearson χ² test of independence between event type and a user
    segment (here: user-id parity) — the A/B-test / drift-detection
    statistic.  Per contingency cell: observed count and the EXACT
    addend (o−e)²/e expressed over integers as (o·N − r·c)²/(r·c·N),
    emitted as ``floor(·10⁶ + 0.5)`` of the mirrored double ratio (the
    big products stay exact Python/HUGEINT integers until ONE final
    cast each).  Σ chi2_micro over the rows is the statistic.

    Shape: per-batch (type, seg) census combiner → one ≤|types|·2-row
    driver fold; marginals and the formula are driver-side exact
    math on the bounded census."""

    ev = _events(sf_dir, ["event_type", "user_id"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"].astype(str),
                             "seg": b["user_id"].to_numpy("int64") % 2, "o": 1})

    cells = fold_groups(  # bounded: |types| × 2 rows
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["event_type", "seg"], [("o", "sum")])
    r = cells.groupby("event_type")["o"].sum().to_dict()
    c = cells.groupby("seg")["o"].sum().to_dict()
    n = int(cells["o"].sum())
    rows = []
    for t in cells.itertuples(index=False):
        o, rt, ct = int(t.o), int(r[t.event_type]), int(c[t.seg])
        num = (o * n - rt * ct) ** 2
        den = rt * ct * n
        rows.append(
            {"event_type": t.event_type, "seg": t.seg, "o": o,
             "chi2_micro": int(
                 np.floor(float(num) / float(den) * 1000000.0 + 0.5)
             )}
        )
    out = pd.DataFrame(
        rows, columns=["event_type", "seg", "o", "chi2_micro"]
    ).sort_values(["event_type", "seg"]).reset_index(drop=True)
    for col in ("seg", "o", "chi2_micro"):
        out[col] = out[col].astype("int64")
    return out


CHISQ_SQL = """
WITH cells AS (
  SELECT event_type, CAST(user_id % 2 AS BIGINT) AS seg,
         CAST(COUNT(*) AS BIGINT) AS o
  FROM events GROUP BY 1, 2
), rt AS (
  SELECT event_type, SUM(o) AS r FROM cells GROUP BY 1
), ct AS (
  SELECT seg, SUM(o) AS c FROM cells GROUP BY 1
), nn AS (
  SELECT SUM(o) AS n FROM cells
)
SELECT cells.event_type, cells.seg, cells.o,
       CAST(floor(CAST((cells.o * nn.n - rt.r * ct.c)
                       * (cells.o * nn.n - rt.r * ct.c) AS DOUBLE)
                  / CAST(rt.r * ct.c * nn.n AS DOUBLE)
                  * 1000000.0 + 0.5) AS BIGINT) AS chi2_micro
FROM cells JOIN rt USING (event_type) JOIN ct USING (seg) CROSS JOIN nn
"""


# -- SCD type-2 dimension build (state-change validity intervals) --------------

def events_scd2(sf_dir: str):
    """Slowly-Changing-Dimension type-2 build from an ordered change log:
    collapse each user's event stream to its STATE CHANGES (an event
    opens a new version only when its type differs from the previous
    event's), then attach validity intervals — ``valid_from`` = the
    change's timestamp, ``valid_to`` = the next change's (NULL for the
    current version) — and a per-user version number.  This is the
    standard warehouse dimension-history operator (Kimball SCD2) the
    reference's ClickHouse sink-side would model with
    ReplacingMergeTree versions.

    Shape: ONE bucketed exchange on user_id; in-bucket mergesort +
    three grouped shifts (lag state, lead ts, cumcount), fully
    vectorized — the gaps-and-islands composition of ``events_debounce``
    (change detection) and interval attachment."""
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "event_type", "ts"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = s.groupby("user_id", sort=False)["event_type"].shift()
        change = prev.isna() | (prev != s["event_type"])
        c = s.loc[change, ["user_id", "event_type", "ts"]].rename(
            columns={"event_type": "state"}
        )
        grp = c.groupby("user_id", sort=False)
        return pd.DataFrame(
            {"user_id": c["user_id"].astype("int64"),
             "state": pd.array(c["state"], "str"),
             "valid_from": c["ts"],
             "valid_to": grp["ts"].shift(-1),
             "version": (grp.cumcount() + 1).astype("int64")}
        )

    return bucketed_group_map(ev, ["user_id"], bucket)


SCD2_SQL = """
WITH ch AS (
  SELECT user_id, event_type, ts, event_id,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events
),
changes AS (
  SELECT user_id, event_type AS state, ts, event_id FROM ch
  WHERE prev IS NULL OR prev <> event_type
)
SELECT user_id, state, ts AS valid_from,
       lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
         AS valid_to,
       CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
            AS BIGINT) AS version
FROM changes
"""


# -- per-group exact quantiles over high-cardinality groups --------------------

def events_user_quantiles(sf_dir: str):
    """Exact per-USER p50/p90 of purchase value — the per-group quantile
    operator where the GROUP COUNT is data-sized (one group per user),
    so the global histogram-narrowing core (`stages/quantiles.py`) does
    not apply; instead each group's order statistics are computed
    in-bucket.  quantile_disc semantics: the element at rank
    ``ceil(q·n)`` (1-indexed) of the sorted values — pure SELECTION, no
    interpolation arithmetic, so float parity is exact.

    Shape: ONE bucketed exchange on user_id; per bucket, one vectorized
    sort + group-offset arithmetic (prefix sizes → rank positions →
    one fancy-index take) — no per-group Python loop."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    import pyarrow.compute as pc

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "value"],
        filter=pc.field("event_type") == "purchase",
    )

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "value"], kind="mergesort")
        vals = s["value"].to_numpy()
        users, sizes = np.unique(s["user_id"].to_numpy(), return_counts=True)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        p50 = vals[starts + (sizes + 1) // 2 - 1]
        p90 = vals[starts + (9 * sizes + 9) // 10 - 1]
        return pd.DataFrame(
            {"user_id": pd.array(users, "int64"),
             "n": pd.array(sizes, "int64"),
             "p50": p50.astype("float64"),
             "p90": p90.astype("float64")}
        )

    return bucketed_group_map(ev, ["user_id"], bucket)


USER_QUANTILES_SQL = """
WITH r AS (
  SELECT user_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY value) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events WHERE event_type = 'purchase'
)
SELECT user_id, CAST(MAX(n) AS BIGINT) AS n,
       MAX(CASE WHEN rn = (n + 1) // 2 THEN value END) AS p50,
       MAX(CASE WHEN rn = (9 * n + 9) // 10 THEN value END) AS p90
FROM r GROUP BY user_id
"""


# -- LOCF last-touch attribution ----------------------------------------------

def events_last_touch(sf_dir: str):
    """Last-touch attribution via LOCF (last-observation-carried-forward):
    every purchase event annotated with the VALUE of the user's most
    recent preceding click (NULL if none) — the forward-fill imputation /
    marketing-attribution window operator (SQL ``LAST_VALUE(...IGNORE
    NULLS)``).

    Shape: ONE bucketed exchange on user_id; in-bucket mergesort, one
    masked ffill, one boolean select — no per-user loop.  NULL survives
    as NaN in the float column (both engines agree)."""
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "event_type", "ts",
                          "value"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        click_val = s["value"].where(s["event_type"] == "click")
        filled = click_val.groupby(s["user_id"], sort=False).ffill()
        keep = (s["event_type"] == "purchase").to_numpy()
        out = s.loc[keep, ["event_id", "user_id", "ts", "value"]].copy()
        out["last_click_value"] = filled.to_numpy()[keep]
        out["event_id"] = out["event_id"].astype("int64")
        out["user_id"] = out["user_id"].astype("int64")
        return out

    return bucketed_group_map(ev, ["user_id"], bucket)


LAST_TOUCH_SQL = """
SELECT event_id, user_id, ts, value,
       last_value(CASE WHEN event_type = 'click' THEN value END
                  IGNORE NULLS)
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
         AS last_click_value
FROM events
QUALIFY event_type = 'purchase'
"""


# -- rolling window median (5-event trailing frame) ----------------------------

ROLLMED_W = 5


def events_rolling_median(sf_dir: str):
    """Per-user trailing-5-event median of ``value`` — the robust
    smoother (noise-tolerant trend lines, spike suppression) as a
    window aggregate.  NO division anywhere: the output is the exact
    pair (m_lo, m_hi) of lower/upper middle ORDER STATISTICS of the
    frame (equal when the frame is odd-sized) — selection-only float
    contract, immune to engine-specific interpolation formulas.

    Shape: ONE bucketed exchange on user_id; in-bucket the frame is
    materialized as ≤W shifted columns under a same-user mask (NaN
    pads), one np.sort along axis=1 (NaN sorts last), two fancy-index
    gathers — no per-row or per-user loop."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = s["user_id"].to_numpy("int64")
        v = s["value"].to_numpy("float64")
        n = len(s)
        cols = np.full((n, ROLLMED_W), np.nan)
        cols[:, 0] = v
        for k in range(1, ROLLMED_W):
            same = u[k:] == u[:-k]
            cols[k:, k] = np.where(same, v[:-k], np.nan)
        cnt = (~np.isnan(cols)).sum(axis=1)
        srt = np.sort(cols, axis=1)  # NaN sorts last
        rows = np.arange(n)
        return pd.DataFrame(
            {"event_id": s["event_id"].astype("int64"),
             "user_id": pd.array(u, "int64"),
             "ts": s["ts"],
             "value": v,
             "m_lo": srt[rows, (cnt - 1) // 2],
             "m_hi": srt[rows, cnt // 2]}
        )

    return bucketed_group_map(ev, ["user_id"], bucket)


ROLLING_MEDIAN_SQL = f"""
SELECT event_id, user_id, ts, value,
       l[(c + 1) // 2] AS m_lo, l[c // 2 + 1] AS m_hi
FROM (
  SELECT event_id, user_id, ts, value,
         list_sort(list(value) OVER w) AS l,
         count(*) OVER w AS c
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN {ROLLMED_W - 1} PRECEDING AND CURRENT ROW)
)
"""


# -- inter-arrival gap statistics ----------------------------------------------

def events_interarrival(sf_dir: str):
    """Per-user inter-event-gap statistics: (n_gaps, Σgap, max gap) in
    exact µs ints — engagement-cadence features (the mean stays a
    client-side division of two exact ints; emitting it would re-open
    the measured rounding-tie divergence).  One user_id exchange, one
    grouped shift."""
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = s.groupby("user_id", sort=False)["ts"].shift()
        gap = ((s["ts"] - prev) // pd.Timedelta(microseconds=1))
        d = pd.DataFrame({"user_id": s["user_id"], "gap": gap}).dropna()
        if not len(d):
            return pd.DataFrame({"user_id": pd.array([], "int64"),
                                 "n_gaps": pd.array([], "int64"),
                                 "sum_gap_us": pd.array([], "int64"),
                                 "max_gap_us": pd.array([], "int64")})
        out = d.groupby("user_id", sort=False)["gap"].agg(
            n_gaps="size", sum_gap_us="sum", max_gap_us="max"
        ).reset_index()
        return out.astype({"user_id": "int64", "n_gaps": "int64",
                           "sum_gap_us": "int64", "max_gap_us": "int64"})

    return bucketed_group_map(ev, ["user_id"], bucket)


INTERARRIVAL_SQL = """
WITH g AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT user_id, CAST(COUNT(gap) AS BIGINT) AS n_gaps,
       CAST(SUM(gap) AS BIGINT) AS sum_gap_us,
       CAST(MAX(gap) AS BIGINT) AS max_gap_us
FROM g WHERE gap IS NOT NULL GROUP BY 1
"""


# -- Welch's t-test (two-sample mean comparison) -------------------------------

TTEST_A, TTEST_B = "purchase", "click"


def events_ttest(sf_dir: str):
    """Welch's unequal-variance t statistic comparing the value
    distributions of two event types — the A/B-testing primitive as a
    mergeable-moment aggregate (the ``lineitem_regression`` posture):
    per-batch (n, Σq, Σq²) partials over exact cent ints, Σq² traveling
    as two int64 limbs so the contract outlives int64, ONE mirrored
    double expression at the end emitted floor-micro.  The six exact
    moments ride along for auditability."""
    import math

    import pyarrow.compute as pc

    from ..functions.arrow import read_parquet_clean

    LIMB = 10 ** 15

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"],
        filter=pc.field("event_type").isin([TTEST_A, TTEST_B]),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        q = np.rint(b["value"].to_numpy() * 100).astype("int64")
        g = group_frame(
            pd.DataFrame({"t": b["event_type"], "n": 1, "s": q, "ssq": q * q}),
            ["t"], [("n", "sum"), ("s", "sum"), ("ssq", "sum")])
        vals = [int(v) for v in g["ssq"]]
        g["ssq_lo"] = pd.array([v % LIMB for v in vals], "int64")
        g["ssq_hi"] = pd.array([v // LIMB for v in vals], "int64")
        return g.drop(columns=["ssq"])

    agg = fold_groups(  # two rows
        ev.map_batches(arrow_out(partial), batch_format="pandas",
                       batch_size=16384),
        ["t"], [("n", "sum"), ("s", "sum"), ("ssq_lo", "sum"),
                ("ssq_hi", "sum")])
    m = {r.t: (int(r.n), int(r.s), int(r.ssq_hi) * LIMB + int(r.ssq_lo))
         for r in agg.itertuples(index=False)}
    n1, s1, ssq1 = m[TTEST_A]
    n2, s2, ssq2 = m[TTEST_B]
    num = float(s1) / n1 - float(s2) / n2
    v1 = (float(ssq1) - float(s1 * s1) / n1) / (n1 - 1)
    v2 = (float(ssq2) - float(s2 * s2) / n2) / (n2 - 1)
    t = num / math.sqrt(v1 / n1 + v2 / n2)
    return pd.DataFrame(
        {"n1": pd.array([n1], "int64"), "n2": pd.array([n2], "int64"),
         "sum1": pd.array([s1], "int64"), "sum2": pd.array([s2], "int64"),
         "ssq1": pd.array([ssq1], "int64"), "ssq2": pd.array([ssq2], "int64"),
         "t_micro": pd.array([math.floor(t * 1_000_000 + 0.5)], "int64")}
    )


TTEST_SQL = f"""
WITH q AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS q
  FROM events WHERE event_type IN ('{TTEST_A}', '{TTEST_B}')
),
m AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(q) AS BIGINT) AS s,
         CAST(SUM(CAST(q AS HUGEINT) * q) AS BIGINT) AS ssq
  FROM q GROUP BY 1
),
a AS (SELECT * FROM m WHERE event_type = '{TTEST_A}'),
b AS (SELECT * FROM m WHERE event_type = '{TTEST_B}')
SELECT a.n AS n1, b.n AS n2, a.s AS sum1, b.s AS sum2,
       a.ssq AS ssq1, b.ssq AS ssq2,
       CAST(FLOOR(
         (CAST(a.s AS DOUBLE) / a.n - CAST(b.s AS DOUBLE) / b.n)
         / SQRT(
             ((CAST(a.ssq AS DOUBLE)
               - CAST(CAST(a.s AS HUGEINT) * a.s AS DOUBLE) / a.n)
              / (a.n - 1)) / a.n
           + ((CAST(b.ssq AS DOUBLE)
               - CAST(CAST(b.s AS HUGEINT) * b.s AS DOUBLE) / b.n)
              / (b.n - 1)) / b.n)
         * 1000000 + 0.5) AS BIGINT) AS t_micro
FROM a, b
"""


# -- exact Kolmogorov–Smirnov two-sample statistic -----------------------------

KS_A, KS_B = "purchase", "view"


def events_ks_test(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov statistic between the value
    distributions of two event types — the distribution-drift detector
    — computed EXACTLY in integers: D = max over distinct values of
    |cum1·n2 − cum2·n1| (cross-multiplied ECDF difference; divide by
    n1·n2 client-side for the classical D ∈ [0,1]).  No float appears
    anywhere, so parity is unconditional.

    The global running maximum needs a total order over distinct
    values but NO sort operator: cent values map through the monotone
    shift q >> 8 to ordered range buckets (the ``orders_abc`` idiom),
    pass 1 exchanges per-bucket (Σc1, Σc2) for driver prefix offsets,
    pass 2 cumsums in-bucket and emits one max partial per bucket."""
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from ..functions.arrow import read_parquet_clean
    from ..stages.shuffle import bucketed_group_map

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"],
        filter=pc.field("event_type").isin([KS_A, KS_B]),
    )

    def census_partial(b: pd.DataFrame) -> pd.DataFrame:
        q = np.rint(b["value"].to_numpy() * 100).astype("int64")
        df = pd.DataFrame({"q": q, "c1": (b["event_type"] == KS_A)
                           .to_numpy().astype("int64")})
        df["c2"] = 1 - df["c1"]
        out = df.groupby("q", sort=False, as_index=False)[["c1", "c2"]].sum()
        out["vbucket"] = out["q"].to_numpy("int64") >> 8
        return out.astype({"q": "int64", "c1": "int64", "c2": "int64",
                           "vbucket": "int64"})

    keyed = bucketed_group_map(
        ev.map_batches(arrow_out(census_partial), batch_format="pandas"),
        ["q"],
        lambda g: g.groupby(["q", "vbucket"], sort=False, as_index=False)[
            ["c1", "c2"]].sum(),
    ).materialize()  # distinct-value census; two passes

    bc = fold_groups(  # ≤ range-buckets rows
        keyed.select_columns(["vbucket", "c1", "c2"]), ["vbucket"],
        [("c1", "sum"), ("c2", "sum")]).set_index("vbucket")
    n1, n2 = int(bc["c1"].sum()), int(bc["c2"].sum())
    off1 = bc["c1"].cumsum().shift(fill_value=0)
    off2 = bc["c2"].cumsum().shift(fill_value=0)
    off_ref = ray.put({int(vb): (int(a), int(b))
                       for vb, a, b in zip(bc.index, off1, off2)})

    def max_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        best = 0
        for vb, sub in g.groupby("vbucket", sort=False):
            s = sub.sort_values("q", kind="mergesort")
            o1, o2 = off[int(vb)]
            cum1 = o1 + s["c1"].to_numpy("int64").cumsum()
            cum2 = o2 + s["c2"].to_numpy("int64").cumsum()
            d = np.abs(cum1 * n2 - cum2 * n1).max()
            best = max(best, int(d))
        return pd.DataFrame({"d": pd.array([best], "int64")})

    d_num = fold_groups(bucketed_group_map(keyed, ["vbucket"], max_bucket),
                        [], [("d", "max")])["d"].iloc[0]
    return pd.DataFrame(
        {"n1": pd.array([n1], "int64"), "n2": pd.array([n2], "int64"),
         "d_num": pd.array([int(d_num)], "int64")}
    )


KS_SQL = f"""
WITH q AS (
  SELECT event_type AS t, CAST(round(value * 100) AS BIGINT) AS q
  FROM events WHERE event_type IN ('{KS_A}', '{KS_B}')
),
cen AS (
  SELECT q,
         CAST(SUM(CASE WHEN t = '{KS_A}' THEN 1 ELSE 0 END) AS BIGINT)
           AS c1,
         CAST(SUM(CASE WHEN t = '{KS_B}' THEN 1 ELSE 0 END) AS BIGINT)
           AS c2
  FROM q GROUP BY 1
),
w AS (
  SELECT SUM(c1) OVER (ORDER BY q ROWS UNBOUNDED PRECEDING) AS cum1,
         SUM(c2) OVER (ORDER BY q ROWS UNBOUNDED PRECEDING) AS cum2
  FROM cen
),
tot AS (SELECT CAST(SUM(c1) AS BIGINT) AS n1,
               CAST(SUM(c2) AS BIGINT) AS n2 FROM cen)
SELECT tot.n1, tot.n2,
       CAST(MAX(ABS(cum1 * tot.n2 - cum2 * tot.n1)) AS BIGINT) AS d_num
FROM w, tot GROUP BY tot.n1, tot.n2
"""


# -- frequent end-to-end paths -------------------------------------------------

TOP_PATHS_K = 20


def events_top_paths(sf_dir: str):
    """The ``TOP_PATHS_K`` most common complete user journeys (the
    funnel-discovery census over the ordered per-user path strings):
    composition of ``events_user_path`` (one user_id exchange, ordered
    string_agg) with a path census (path-bucketed sum) and a bounded
    global top-k (count desc, path asc tiebreak)."""
    from ..stages.shuffle import bucketed_group_map

    paths = events_user_path(sf_dir)

    def census_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = b["path"].value_counts()
        return pd.DataFrame({"path": pd.array(c.index, "str"),
                             "n_users": pd.array(c.to_numpy(), "int64")})

    census = bucketed_group_map(
        paths.map_batches(arrow_out(census_partial), batch_format="pandas"),
        ["path"],
        lambda g: g.groupby("path", sort=False, as_index=False)["n_users"]
        .sum(),
    )
    return (
        census.sort(["n_users", "path"], descending=[True, False])
        .limit(TOP_PATHS_K)
    )


TOP_PATHS_SQL = f"""
WITH p AS ({USER_PATH_SQL})
SELECT path, CAST(COUNT(*) AS BIGINT) AS n_users
FROM p GROUP BY 1
ORDER BY n_users DESC, path LIMIT {TOP_PATHS_K}
"""


# -- percent change vs previous event ------------------------------------------

def events_pct_change(sf_dir: str):
    """Per-(user, type) percent change of value vs the previous event —
    the LAG-ratio window op (basis points, exact integer contract:
    ``cur_cents·10⁴ // prev_cents``; NULL on the stream head and on
    prev = 0).  One user_id exchange, one grouped shift."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "event_type", "ts",
                          "value"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "event_type", "ts", "event_id"],
                          kind="mergesort")
        cents = np.rint(s["value"].to_numpy() * 100).astype("int64")
        prev = (pd.Series(cents, index=s.index)
                .groupby([s["user_id"], s["event_type"]], sort=False)
                .shift())
        pv = prev.to_numpy()
        ok = ~np.isnan(pv) & (pv != 0)
        bp = np.full(len(s), np.nan)
        bp[ok] = (cents[ok] * 10_000) // pv[ok].astype("int64")
        return pd.DataFrame(
            {"event_id": s["event_id"].astype("int64"),
             "user_id": s["user_id"].astype("int64"),
             "event_type": pd.array(s["event_type"], "str"),
             "ts": s["ts"],
             "pct_bp": bp}
        )

    return bucketed_group_map(ev, ["user_id"], bucket)


PCT_CHANGE_SQL = """
SELECT event_id, user_id, event_type, ts,
       CAST(CASE WHEN prev IS NULL OR prev = 0 THEN NULL
                 ELSE (cur * 10000) // prev END AS DOUBLE) AS pct_bp
FROM (
  SELECT event_id, user_id, event_type, ts,
         CAST(round(value * 100) AS BIGINT) AS cur,
         lag(CAST(round(value * 100) AS BIGINT))
           OVER (PARTITION BY user_id, event_type
                 ORDER BY ts, event_id) AS prev
  FROM events
)
"""


# -- lag-1 autocorrelation of the daily volume series --------------------------

def events_daily_autocorr(sf_dir: str):
    """Lag-1 Pearson autocorrelation of the DENSE daily event-count
    series (missing days count 0 — the gapfill contract) — the
    time-series health diagnostic (is volume persistent day over day or
    white noise?).  The day census is CALENDAR-BOUNDED at any scale
    factor, so the distributed work is one additive census fold; the
    dense spine, the lag pairing and the exact integer moments happen
    on the bounded artifact, and r is ONE mirrored double emitted
    floor-micro (NaN when a variance is 0)."""
    import math

    import numpy as np

    ev = _events(sf_dir, ["ts"])

    def census_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b["ts"].to_numpy().astype("datetime64[D]").view("int64")
        return pd.DataFrame({"d": d, "c": 1})

    cen = fold_groups(  # calendar-bounded artifact
        ev.map_batches(arrow_out(census_partial), batch_format="pandas"),
        ["d"], [("c", "sum")]).set_index("d")["c"]
    lo, hi = int(cen.index.min()), int(cen.index.max())
    dense = np.zeros(hi - lo + 1, dtype="int64")
    dense[cen.index.to_numpy("int64") - lo] = cen.to_numpy("int64")
    x, y = dense[:-1], dense[1:]
    n = len(x)
    sx, sy = int(x.sum()), int(y.sum())
    sxx = int((x * x).sum())
    syy = int((y * y).sum())
    sxy = int((x * y).sum())
    a = n * sxx - sx * sx
    b_ = n * syy - sy * sy
    r_micro = (float("nan") if a == 0 or b_ == 0 else
               float(math.floor(1e6 * float(n * sxy - sx * sy)
                                / math.sqrt(float(a) * float(b_)) + 0.5)))
    return pd.DataFrame(
        {"n_days": pd.array([n + 1], "int64"),
         "n_pairs": pd.array([n], "int64"),
         "sx": pd.array([sx], "int64"), "sy": pd.array([sy], "int64"),
         "sxx": pd.array([sxx], "int64"), "syy": pd.array([syy], "int64"),
         "sxy": pd.array([sxy], "int64"),
         "r_micro": pd.array([r_micro], "float64")}
    )


DAILY_AUTOCORR_SQL = """
WITH cen AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
b AS (SELECT MIN(d) AS lo, MAX(d) AS hi FROM cen),
spine AS (
  SELECT unnest(range(b.lo, b.hi + 1)) AS d FROM b
),
dense AS (
  SELECT spine.d, COALESCE(cen.c, 0) AS c
  FROM spine LEFT JOIN cen USING (d)
),
pairs AS (
  SELECT c AS x, lead(c) OVER (ORDER BY d) AS y FROM dense
  QUALIFY y IS NOT NULL
),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(CAST(x AS HUGEINT) * x) AS BIGINT) AS sxx,
         CAST(SUM(CAST(y AS HUGEINT) * y) AS BIGINT) AS syy,
         CAST(SUM(CAST(x AS HUGEINT) * y) AS BIGINT) AS sxy
  FROM pairs
)
SELECT n + 1 AS n_days, n AS n_pairs, sx, sy, sxx, syy, sxy,
       CASE WHEN CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx = 0
              OR CAST(n AS HUGEINT) * syy - CAST(sy AS HUGEINT) * sy = 0
            THEN NULL
            ELSE CAST(FLOOR(
              1000000.0
              * CAST(CAST(n AS HUGEINT) * sxy
                     - CAST(sx AS HUGEINT) * sy AS DOUBLE)
              / SQRT(CAST(CAST(n AS HUGEINT) * sxx
                          - CAST(sx AS HUGEINT) * sx AS DOUBLE)
                     * CAST(CAST(n AS HUGEINT) * syy
                            - CAST(sy AS HUGEINT) * sy AS DOUBLE))
              + 0.5) AS DOUBLE) END AS r_micro
FROM s
"""


# -- trailing-window burst detection (all-integer) -----------------------------

BURST_W = 7


def events_bursts(sf_dir: str):
    """Days whose event volume bursts above the trailing week: flag day
    x against the previous ``BURST_W`` days' (S, Q) iff
    ``W·x − S > 0`` AND ``(W·x − S)² > 4·(W·Q − S²)`` — algebraically
    exactly "x − μ > 2σ" with EVERY operation an integer (the μ/σ
    divisions cleared by cross-multiplication), so there is no float
    anywhere and parity is unconditional.  Only days with a full
    trailing window qualify.

    Shape: per-row day columns fold (``fold_groups``) into the
    calendar-bounded artifact (one row per active day at ANY scale
    factor); the dense spine, sliding sums and the integer predicate
    run on that bounded series driver-side."""
    import numpy as np

    ev = _events(sf_dir, ["ts"])

    def census_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b["ts"].to_numpy().astype("datetime64[D]").view("int64")
        return pd.DataFrame({"d": d, "c": 1})

    cen = fold_groups(  # calendar-bounded artifact
        ev.map_batches(arrow_out(census_partial), batch_format="pandas"),
        ["d"], [("c", "sum")]).set_index("d")["c"]
    lo, hi = int(cen.index.min()), int(cen.index.max())
    dense = np.zeros(hi - lo + 1, dtype="int64")
    dense[cen.index.to_numpy("int64") - lo] = cen.to_numpy("int64")
    if len(dense) <= BURST_W:
        return pd.DataFrame({"d": pd.array([], "int64"),
                             "x": pd.array([], "int64"),
                             "s7": pd.array([], "int64"),
                             "q7": pd.array([], "int64")})
    cs = np.concatenate([[0], np.cumsum(dense)])
    cq = np.concatenate([[0], np.cumsum(dense * dense)])
    i = np.arange(BURST_W, len(dense))
    x = dense[i]
    s = cs[i] - cs[i - BURST_W]
    q = cq[i] - cq[i - BURST_W]
    lhs = BURST_W * x - s
    flag = (lhs > 0) & (lhs * lhs > 4 * (BURST_W * q - s * s))
    return pd.DataFrame(
        {"d": pd.array((lo + i[flag]), "int64"),
         "x": pd.array(x[flag], "int64"),
         "s7": pd.array(s[flag], "int64"),
         "q7": pd.array(q[flag], "int64")}
    )


BURSTS_SQL = f"""
WITH cen AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
b AS (SELECT MIN(d) AS lo, MAX(d) AS hi FROM cen),
spine AS (SELECT unnest(range(b.lo, b.hi + 1)) AS d FROM b),
dense AS (
  SELECT spine.d, COALESCE(cen.c, 0) AS c
  FROM spine LEFT JOIN cen USING (d)
),
w AS (
  SELECT d, c AS x,
         SUM(c) OVER (ORDER BY d ROWS BETWEEN {BURST_W} PRECEDING
                      AND 1 PRECEDING) AS s,
         SUM(c * c) OVER (ORDER BY d ROWS BETWEEN {BURST_W} PRECEDING
                          AND 1 PRECEDING) AS q,
         row_number() OVER (ORDER BY d) AS rn
  FROM dense
)
SELECT d, x, CAST(s AS BIGINT) AS s7, CAST(q AS BIGINT) AS q7
FROM w
WHERE rn > {BURST_W}
  AND {BURST_W} * x - s > 0
  AND ({BURST_W} * x - s) * ({BURST_W} * x - s)
      > 4 * ({BURST_W} * q - s * s)
"""


# -- longest consecutive-day activity streak -----------------------------------

def events_streaks(sf_dir: str):
    """Longest consecutive-day activity streak per user (plus the
    number of maximal streaks) — the gaps-and-islands engagement
    metric: over each user's DISTINCT active days, runs where
    ``day − rank(day)`` is constant are streaks.

    Shape: ONE bucketed exchange on user_id; in-bucket the distinct
    (user, day) table sorts once, island ids come from one vectorized
    ``day − cumcount`` and the per-(user, island) sizes reduce with a
    grouped max — no per-user loop."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "ts"])

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b["ts"].to_numpy().astype("datetime64[D]").view("int64")
        return (pd.DataFrame({"user_id": b["user_id"].astype("int64"),
                              "d": pd.array(d, "int64")})
                .drop_duplicates())

    days = ev.map_batches(arrow_out(day_partial), batch_format="pandas")

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "d"]).sort_values(
            ["user_id", "d"], kind="mergesort")
        rank = d.groupby("user_id", sort=False).cumcount()
        island = d["d"].to_numpy("int64") - rank.to_numpy("int64")
        runs = (pd.DataFrame({"user_id": d["user_id"].to_numpy("int64"),
                              "island": island})
                .groupby(["user_id", "island"], sort=False)
                .size().rename("len").reset_index())
        out = runs.groupby("user_id", sort=False)["len"].agg(
            longest_streak="max")
        out["n_best"] = (
            runs.merge(out, on="user_id")
            .query("len == longest_streak")
            .groupby("user_id", sort=False).size()
        )
        return out.reset_index().astype(
            {"user_id": "int64", "longest_streak": "int64",
             "n_best": "int64"})

    return bucketed_group_map(days, ["user_id"], bucket)


STREAKS_SQL = """
WITH days AS (
  SELECT DISTINCT user_id,
         CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d
  FROM events
),
isl AS (
  SELECT user_id,
         d - row_number() OVER (PARTITION BY user_id ORDER BY d)
           AS island
  FROM days
),
runs AS (
  SELECT user_id, island, CAST(COUNT(*) AS BIGINT) AS len
  FROM isl GROUP BY 1, 2
),
best AS (
  SELECT user_id, CAST(MAX(len) AS BIGINT) AS longest_streak
  FROM runs GROUP BY 1
)
SELECT b.user_id, b.longest_streak, CAST(COUNT(*) AS BIGINT) AS n_best
FROM runs r
JOIN best b ON b.user_id = r.user_id AND r.len = b.longest_streak
GROUP BY 1, 2
"""


# -- gap magnitude histogram ----------------------------------------------------

def events_gap_histogram(sf_dir: str):
    """Order-of-magnitude histogram of inter-event gaps: bucket = the
    DECIMAL DIGIT COUNT of the µs gap (an exact integer magnitude — no
    float log anywhere, so no power-boundary divergence) — the latency/
    cadence profile behind session-timeout and watermark tuning.

    Shape: one user_id exchange for the LAG (user-complete buckets),
    then a ≤20-cell ``fold_groups`` census."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = s.groupby("user_id", sort=False)["ts"].shift()
        gap = ((s["ts"] - prev) // pd.Timedelta(microseconds=1)).dropna()
        if not len(gap):
            return pd.DataFrame({"digits": pd.array([], "int64"),
                                 "n_gaps": pd.array([], "int64")})
        digits = np.char.str_len(
            gap.to_numpy("int64").astype("int64").astype(str))
        return pd.DataFrame({"digits": digits.astype("int64"), "n_gaps": 1})

    return fold_groups(  # ≤ 20 rows: int64 gaps have ≤ 19 digits
        bucketed_group_map(ev, ["user_id"], bucket), ["digits"],
        [("n_gaps", "sum")])


GAP_HISTOGRAM_SQL = """
WITH g AS (
  SELECT epoch_us(ts) - lag(epoch_us(ts))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT CAST(length(CAST(gap AS VARCHAR)) AS BIGINT) AS digits,
       CAST(COUNT(*) AS BIGINT) AS n_gaps
FROM g WHERE gap IS NOT NULL
GROUP BY 1
"""


# -- audience overlap between event types ---------------------------------------

def events_type_jaccard(sf_dir: str):
    """Pairwise Jaccard similarity between event-TYPE audiences (the
    sets of users emitting each type) — the segment-overlap matrix
    behind funnel design and campaign targeting.  Exact ints end to
    end: per-user type-pair indicators are decided inside user-complete
    buckets, the ≤(T choose 2)-cell census sums them, and the ratio
    ships as ``inter·10⁶ // union``.

    Shape: ONE bucketed exchange on user_id; per bucket a vectorized
    user×type incidence pivot emits pair/indicator partials (types are
    a fixed tiny vocabulary)."""
    from itertools import combinations

    import numpy as np
    import pandas as pd

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_type"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        inc = (g.drop_duplicates(["user_id", "event_type"])
               .assign(one=1)
               .pivot_table(index="user_id", columns="event_type",
                            values="one", fill_value=0))
        types = sorted(inc.columns)
        rows = []
        for a, b in combinations(types, 2):
            ia = inc[a].to_numpy().astype(bool)
            ib = inc[b].to_numpy().astype(bool)
            rows.append((a, b, int((ia & ib).sum()), int((ia | ib).sum())))
        for t in types:
            n_t = int(inc[t].to_numpy().astype(bool).sum())
            rows.append((t, t, n_t, n_t))
        return pd.DataFrame(
            {"type_a": pd.array([r[0] for r in rows], "str"),
             "type_b": pd.array([r[1] for r in rows], "str"),
             "inter": pd.array([r[2] for r in rows], "int64"),
             "uni": pd.array([r[3] for r in rows], "int64")}
        )

    partials = bucketed_group_map(ev, ["user_id"], bucket)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["type_a", "type_b"], sort=False, as_index=False)[
            ["inter", "uni"]].sum()
        # the SQL inner join omits zero-intersection pairs; mirror it
        agg = agg[(agg["inter"] > 0) | (agg["type_a"] == agg["type_b"])]
        agg["jaccard_micro"] = (
            agg["inter"].to_numpy("int64") * 1_000_000
            // agg["uni"].to_numpy("int64")
        ).astype("int64")
        return agg.astype({"inter": "int64", "uni": "int64"})

    return bucketed_group_map(partials, ["type_a", "type_b"], final,
                              num_buckets=4)


TYPE_JACCARD_SQL = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
pairs AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         CAST(COUNT(*) AS BIGINT) AS inter
  FROM ut a JOIN ut b ON a.user_id = b.user_id
            AND a.event_type < b.event_type
  GROUP BY 1, 2
),
n AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM ut GROUP BY 1),
allp AS (
  SELECT p.type_a, p.type_b, p.inter,
         na.n + nb.n - p.inter AS uni
  FROM pairs p JOIN n na ON na.event_type = p.type_a
  JOIN n nb ON nb.event_type = p.type_b
  UNION ALL
  SELECT event_type, event_type, n, n FROM n
)
SELECT type_a, type_b, inter, CAST(uni AS BIGINT) AS uni,
       CAST((inter * 1000000) // uni AS BIGINT) AS jaccard_micro
FROM allp
"""


# -- hour-of-day seasonality profile ---------------------------------------------

def events_hourly_profile(sf_dir: str):
    """Hour-of-day × event-type activity profile with each cell's share
    of its type (exact basis points) — the diurnal-seasonality fingerprint
    (alert baselining, send-time optimization).  A ≤24×|types|
    ``fold_groups`` census; the share is ``n·10⁴ // type_total`` on two
    exact ints."""
    import numpy as np
    import pandas as pd

    ev = _events(sf_dir, ["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        hrs = b["ts"].dt.hour.to_numpy().astype("int64")
        return pd.DataFrame({"event_type": b["event_type"], "hour": hrs, "n": 1})

    cells = fold_groups(  # ≤ 24 × |types| rows
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["event_type", "hour"], [("n", "sum")])
    tot = cells.groupby("event_type")["n"].transform("sum")
    return pd.DataFrame(
        {"event_type": pd.array(cells["event_type"], "str"),
         "hour": cells["hour"].astype("int64"),
         "n": cells["n"].astype("int64"),
         "share_bp": ((cells["n"].to_numpy("int64") * 10_000)
                      // tot.to_numpy("int64")).astype("int64")}
    )


HOURLY_PROFILE_SQL = """
WITH c AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
t AS (SELECT event_type, CAST(SUM(n) AS BIGINT) AS tot FROM c GROUP BY 1)
SELECT c.event_type, c.hour, c.n,
       CAST((c.n * 10000) // t.tot AS BIGINT) AS share_bp
FROM c JOIN t USING (event_type)
"""


def events_mutual_info(sf_dir: str) -> pd.DataFrame:
    """Mutual information between event type and hour-of-day — the
    dependence strength of the diurnal pattern (feature-selection /
    drift signal: MI 0 = types fire uniformly around the clock).

    MI = (Σ_xy c·ln c − Σ_x c·ln c − Σ_y c·ln c + n·ln n) / n, every
    c·ln c addend pre-rounded to an INTEGER micro-nat (the
    ``events_entropy`` float contract — summation order stops
    mattering, ln from the same glibc on both engines, final double
    expression mirrored term-for-term in the oracle).

    Shape: per-row (type, hour) columns → ≤ |types|×24-row
    ``fold_groups`` census (marginals and total derive from the same cells —
    ONE pass, ZERO exchanges)."""
    import math

    import numpy as np

    ev = _events(sf_dir, ["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        hrs = b["ts"].dt.hour.to_numpy().astype("int64")
        return pd.DataFrame({"event_type": b["event_type"], "hour": hrs, "n": 1})

    cells = fold_groups(  # ≤ 24 × |types| rows
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["event_type", "hour"], [("n", "sum")])

    def micro_terms(counts: np.ndarray) -> int:
        c = counts.astype("int64")
        ln = {int(v): math.log(int(v)) for v in np.unique(c)}
        lnc = np.fromiter((ln[int(v)] for v in c), dtype="float64",
                          count=len(c))
        return int(np.floor(
            c.astype("float64") * lnc * 1000000.0 + 0.5
        ).astype("int64").sum())

    txy = micro_terms(cells["n"].to_numpy())
    tx = micro_terms(cells.groupby("event_type")["n"].sum().to_numpy())
    ty = micro_terms(cells.groupby("hour")["n"].sum().to_numpy())
    n = int(cells["n"].sum())
    tn = int(math.floor(n * math.log(n) * 1000000.0 + 0.5))
    mi = ((txy - tx - ty + tn) / 1000000.0) / float(n)
    return pd.DataFrame(
        {"n_events": pd.array([n], "int64"),
         "term_xy": pd.array([txy], "int64"),
         "term_x": pd.array([tx], "int64"),
         "term_y": pd.array([ty], "int64"),
         "term_n": pd.array([tn], "int64"),
         "mi_nats": pd.array([mi], "float64")}
    )


MUTUAL_INFO_SQL = """
WITH c AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
),
xy AS (
  SELECT CAST(SUM(CAST(floor(c * ln(c) * 1000000.0 + 0.5) AS BIGINT))
              AS BIGINT) AS txy,
         CAST(SUM(c) AS BIGINT) AS n
  FROM c
),
mx AS (
  SELECT CAST(SUM(CAST(floor(cx * ln(cx) * 1000000.0 + 0.5) AS BIGINT))
              AS BIGINT) AS tx
  FROM (SELECT CAST(SUM(c) AS BIGINT) AS cx FROM c GROUP BY event_type)
),
my AS (
  SELECT CAST(SUM(CAST(floor(cy * ln(cy) * 1000000.0 + 0.5) AS BIGINT))
              AS BIGINT) AS ty
  FROM (SELECT CAST(SUM(c) AS BIGINT) AS cy FROM c GROUP BY hour)
)
SELECT n AS n_events, txy AS term_xy, tx AS term_x, ty AS term_y,
       CAST(floor(n * ln(n) * 1000000.0 + 0.5) AS BIGINT) AS term_n,
       (CAST(txy - tx - ty
             + CAST(floor(n * ln(n) * 1000000.0 + 0.5) AS BIGINT)
             AS DOUBLE) / 1000000.0) / CAST(n AS DOUBLE) AS mi_nats
FROM xy, mx, my
"""

# -- DAU / trailing-28-day MAU / stickiness --------------------------------------

def events_dau_mau(sf_dir: str) -> pd.DataFrame:
    """Daily active users, trailing-28-day active users and the DAU/MAU
    stickiness ratio — the product-analytics headline triple.  The MAU
    window is an EXACT sliding COUNT(DISTINCT): a user active on day d
    is "in window" for every day D ∈ [d, d+27], so each user's active
    days collapse (inside user-complete buckets) into merged
    contribution INTERVALS whose ±1 endpoint deltas ride the exchange —
    the sweep-line idiom (`orders_open_by_day`), never a day×user pair
    expansion.  DAU partials (per-bucket distinct day counts) share the
    same exchange; the per-day census is calendar-bounded, so the
    prefix sum is a driver-side artifact fold.

    stickiness_bp = dau·10⁴ // mau28 (exact ints; 0 when the window is
    empty, mirroring the SQL CASE)."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "ts"])

    DAY_US = 86_400_000_000

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        day = (g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
               // DAY_US)
        pairs = (pd.DataFrame({"u": g["user_id"].to_numpy(), "d": day})
                 .drop_duplicates()
                 .sort_values(["u", "d"], kind="mergesort"))
        u = pairs["u"].to_numpy()
        d = pairs["d"].to_numpy("int64")
        if not len(d):
            return pd.DataFrame({"d": pd.array([], "int64"),
                                 "dau": pd.array([], "int64"),
                                 "delta": pd.array([], "int64")})
        # merged contribution intervals: a new interval starts on a user
        # switch or a gap > 27 days (the previous interval's [d, d+27]
        # coverage no longer reaches this day)
        new = np.ones(len(d), bool)
        new[1:] = (u[1:] != u[:-1]) | (d[1:] - d[:-1] > 27)
        iid = np.cumsum(new) - 1
        starts = d[new]
        last = np.zeros(iid[-1] + 1, dtype="int64")
        np.maximum.at(last, iid, d)
        ends = last + 27
        days_c, dau_c = np.unique(d, return_counts=True)
        out_d = np.concatenate([days_c, starts, ends + 1])
        out_dau = np.concatenate(
            [dau_c.astype("int64"), np.zeros(2 * len(starts), "int64")])
        out_delta = np.concatenate(
            [np.zeros(len(days_c), "int64"), np.ones(len(starts), "int64"),
             -np.ones(len(starts), "int64")])
        return pd.DataFrame({"d": pd.array(out_d, "int64"),
                             "dau": pd.array(out_dau, "int64"),
                             "delta": pd.array(out_delta, "int64")})

    census = fold_groups(  # ≤ #days + #interval-ends rows — calendar-bounded
        bucketed_group_map(ev, ["user_id"], bucket),
        ["d"], [("dau", "sum"), ("delta", "sum")])
    d = census["d"].to_numpy("int64")
    dau_in = census["dau"].to_numpy("int64")
    delta_in = census["delta"].to_numpy("int64")
    active = d[dau_in > 0]
    lo, hi = int(active.min()), int(active.max())
    n_days = hi - lo + 1
    dau = np.zeros(n_days, "int64")
    deltas = np.zeros(n_days, "int64")
    keep = (d >= lo) & (d <= hi)
    np.add.at(dau, d[keep] - lo, dau_in[keep])
    np.add.at(deltas, d[keep] - lo, delta_in[keep])
    mau = np.cumsum(deltas)
    stick = np.where(mau > 0, dau * 10_000 // np.maximum(mau, 1), 0)
    return pd.DataFrame(
        {"d": pd.array(np.arange(lo, hi + 1, dtype="int64"), "int64"),
         "dau": pd.array(dau, "int64"),
         "mau28": pd.array(mau, "int64"),
         "stickiness_bp": pd.array(stick.astype("int64"), "int64")}
    )


DAU_MAU_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id,
         CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d
  FROM events
),
bounds AS (SELECT MIN(d) AS lo, MAX(d) AS hi FROM ud),
spine AS (SELECT UNNEST(range(lo, hi + 1)) AS d FROM bounds),
dau AS (SELECT d, CAST(COUNT(*) AS BIGINT) AS dau FROM ud GROUP BY 1),
mau AS (
  SELECT s.d, CAST(COUNT(DISTINCT u.user_id) AS BIGINT) AS mau28
  FROM spine s LEFT JOIN ud u ON u.d BETWEEN s.d - 27 AND s.d
  GROUP BY 1
)
SELECT s.d, CAST(COALESCE(a.dau, 0) AS BIGINT) AS dau, m.mau28,
       CAST(CASE WHEN m.mau28 = 0 THEN 0
            ELSE COALESCE(a.dau, 0) * 10000 // m.mau28 END AS BIGINT)
         AS stickiness_bp
FROM spine s JOIN mau m USING (d) LEFT JOIN dau a USING (d)
"""


# -- CUSUM change-point detection ------------------------------------------------

def events_cusum(sf_dir: str) -> pd.DataFrame:
    """Per-event-type change-point detection on the daily-count series —
    the CUSUM statistic max_k |n·S_k − k·S_n| over the zero-filled
    calendar spine (S_k = prefix count through spine day k, n = spine
    length).  Cross-multiplying by n removes the rational mean, so the
    statistic, the argmax day (first max) and the flag are PURE
    integers — no float drift anywhere.

    Shape: one per-(type, day) count combiner feeds a bounded
    types×days census; the prefix scan folds driver-side (the
    `orders_monthly_cumrev` bounded-artifact idiom)."""

    ev = _events(sf_dir, ["event_type", "ts"])

    DAY_US = 86_400_000_000

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        day = (b["ts"].to_numpy().astype("datetime64[us]").astype("int64")
               // DAY_US)
        return pd.DataFrame({"event_type": b["event_type"].to_numpy(),
                             "d": day, "n": 1})

    census = fold_groups(  # ≤ |types| × #days rows — calendar-bounded
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["event_type", "d"], [("n", "sum")])
    lo = int(census["d"].min())
    hi = int(census["d"].max())
    n = hi - lo + 1
    rows = []
    for t in sorted(census["event_type"].unique()):
        sub = census[census["event_type"] == t]
        daily = np.zeros(n, "int64")
        np.add.at(daily, sub["d"].to_numpy("int64") - lo,
                  sub["n"].to_numpy("int64"))
        pref = np.cumsum(daily)          # S_k, k = 1..n at index k-1
        total = int(pref[-1])
        k = np.arange(1, n + 1, dtype="int64")
        stat = np.abs(n * pref - k * total)
        best = int(stat.argmax())        # first max — deterministic
        rows.append((t, lo + best, int(stat[best]), total))
    return pd.DataFrame(
        {"event_type": pd.array([r[0] for r in rows], "str"),
         "change_day": pd.array([r[1] for r in rows], "int64"),
         "cusum_stat": pd.array([r[2] for r in rows], "int64"),
         "total": pd.array([r[3] for r in rows], "int64")}
    )


CUSUM_SQL = """
WITH c AS (
  SELECT event_type,
         CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT MIN(d) AS lo, MAX(d) AS hi FROM c),
spine AS (SELECT UNNEST(range(lo, hi + 1)) AS d FROM bounds),
grid AS (
  SELECT t.event_type, s.d, COALESCE(c.n, 0) AS n
  FROM (SELECT DISTINCT event_type FROM c) t
  CROSS JOIN spine s
  LEFT JOIN c ON c.event_type = t.event_type AND c.d = s.d
),
pre AS (
  SELECT event_type, d,
         SUM(n) OVER (PARTITION BY event_type ORDER BY d
                      ROWS UNBOUNDED PRECEDING) AS s_k,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS k,
         (SELECT hi - lo + 1 FROM bounds) AS nn,
         SUM(n) OVER (PARTITION BY event_type) AS tot
  FROM grid
),
stat AS (
  SELECT event_type, d, ABS(nn * s_k - k * tot) AS stat, tot
  FROM pre
)
SELECT event_type,
       CAST(MIN(d) FILTER (WHERE stat = ms) AS BIGINT) AS change_day,
       CAST(MAX(ms) AS BIGINT) AS cusum_stat,
       CAST(MAX(tot) AS BIGINT) AS total
FROM (SELECT *, MAX(stat) OVER (PARTITION BY event_type) AS ms FROM stat)
GROUP BY event_type
"""


# -- KMV/theta sketch: distinct users + audience intersections -------------------

def events_type_kmv(sf_dir: str) -> pd.DataFrame:
    """Approximate per-type distinct users AND pairwise audience
    intersections from ONE sketch pass — the KMV/theta-sketch sibling of
    `events_type_approx_users` (HLL can only union; KMV supports set
    operations, so the Jaccard matrix `events_type_jaccard` computes
    exactly costs one mergeable-sketch exchange here instead of a
    user-complete data exchange).  Accuracy/merge-invariance
    pytest-gated (`tests/test_operators.py`)."""
    from ..stages.sketches import (
        KMV_K,
        kmv_distinct_by,
        kmv_estimate,
        kmv_intersect_estimate,
    )

    ev = _events(sf_dir, ["event_type", "user_id"])
    sketches = kmv_distinct_by(ev, "event_type", "user_id")
    types = sorted(sketches)
    rows = []
    for i, a in enumerate(types):
        rows.append((a, a, int(round(kmv_estimate(sketches[a])))))
        for b in types[i + 1:]:
            rows.append((a, b, int(round(
                kmv_intersect_estimate(sketches[a], sketches[b])))))
    return pd.DataFrame(
        {"type_a": pd.array([r[0] for r in rows], "str"),
         "type_b": pd.array([r[1] for r in rows], "str"),
         "est_users": pd.array([r[2] for r in rows], "int64")}
    )


# -- Mann–Whitney U rank test ----------------------------------------------------

def events_mannwhitney(sf_dir: str) -> pd.DataFrame:
    """Two-sample Mann–Whitney U between the value distributions of the
    same event-type pair as the KS test — the RANK-based member of the
    nonparametric family (t-test compares means, KS the full ECDF, MWU
    stochastic dominance; it is the one robust to outliers).

    Exact-integer contract: with midranks over the JOINT distinct-value
    census, a tied group at value v spanning s_v prior rows and t_v ties
    has 2·midrank = 2·s_v + t_v + 1, so

        2·U_A = Σ_v c1_v·(2·s_v + t_v + 1) − n₁(n₁+1)

    is PURE int64 — no float, no division, unconditional parity
    (U_B = n₁n₂ − U_A rides along).

    Shape: identical plumbing to `events_ks_test` (census exchange on
    the cent value, monotone q≫8 range buckets, driver prefix offsets
    over bucket totals, one contribution partial per bucket)."""
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from ..functions.arrow import read_parquet_clean
    from ..stages.shuffle import bucketed_group_map

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"],
        filter=pc.field("event_type").isin([KS_A, KS_B]),
    )

    def census_partial(b: pd.DataFrame) -> pd.DataFrame:
        q = np.rint(b["value"].to_numpy() * 100).astype("int64")
        df = pd.DataFrame({"q": q, "c1": (b["event_type"] == KS_A)
                           .to_numpy().astype("int64")})
        df["c2"] = 1 - df["c1"]
        out = df.groupby("q", sort=False, as_index=False)[["c1", "c2"]].sum()
        out["vbucket"] = out["q"].to_numpy("int64") >> 8
        return out.astype({"q": "int64", "c1": "int64", "c2": "int64",
                           "vbucket": "int64"})

    keyed = bucketed_group_map(
        ev.map_batches(arrow_out(census_partial), batch_format="pandas"),
        ["q"],
        lambda g: g.groupby(["q", "vbucket"], sort=False, as_index=False)[
            ["c1", "c2"]].sum(),
    ).materialize()  # distinct-value census; two passes

    bc = fold_groups(  # ≤ range-buckets rows
        keyed.select_columns(["vbucket", "c1", "c2"]), ["vbucket"],
        [("c1", "sum"), ("c2", "sum")]).set_index("vbucket")
    n1, n2 = int(bc["c1"].sum()), int(bc["c2"].sum())
    tot_off = (bc["c1"] + bc["c2"]).cumsum().shift(fill_value=0)
    off_ref = ray.put({int(vb): int(o) for vb, o in zip(bc.index, tot_off)})

    def contrib_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        acc = 0
        for vb, sub in g.groupby("vbucket", sort=False):
            s_ = sub.sort_values("q", kind="mergesort")
            c1 = s_["c1"].to_numpy("int64")
            t = c1 + s_["c2"].to_numpy("int64")
            s_prior = off[int(vb)] + t.cumsum() - t
            acc += int((c1 * (2 * s_prior + t + 1)).sum())
        return pd.DataFrame({"acc": pd.array([acc], "int64")})

    two_rank_sum = int(fold_groups(
        bucketed_group_map(keyed, ["vbucket"], contrib_bucket), [],
        [("acc", "sum")])["acc"].iloc[0])
    u2_a = two_rank_sum - n1 * (n1 + 1)
    u2_b = 2 * n1 * n2 - u2_a
    return pd.DataFrame(
        {"n1": pd.array([n1], "int64"), "n2": pd.array([n2], "int64"),
         "u2_a": pd.array([u2_a], "int64"),
         "u2_b": pd.array([u2_b], "int64")}
    )


MANNWHITNEY_SQL = f"""
WITH q AS (
  SELECT event_type AS t, CAST(round(value * 100) AS BIGINT) AS q
  FROM events WHERE event_type IN ('{KS_A}', '{KS_B}')
),
cen AS (
  SELECT q,
         CAST(SUM(CASE WHEN t = '{KS_A}' THEN 1 ELSE 0 END) AS BIGINT)
           AS c1,
         CAST(SUM(CASE WHEN t = '{KS_B}' THEN 1 ELSE 0 END) AS BIGINT)
           AS c2
  FROM q GROUP BY 1
),
w AS (
  SELECT c1, c1 + c2 AS t,
         SUM(c1 + c2) OVER (ORDER BY q ROWS UNBOUNDED PRECEDING)
           - (c1 + c2) AS s
  FROM cen
),
tot AS (
  SELECT CAST(SUM(c1) AS BIGINT) AS n1, CAST(SUM(c2) AS BIGINT) AS n2
  FROM cen
)
SELECT n1, n2,
       CAST(SUM(c1 * (2 * s + t + 1)) - n1 * (n1 + 1) AS BIGINT) AS u2_a,
       CAST(2 * n1 * n2
            - (SUM(c1 * (2 * s + t + 1)) - n1 * (n1 + 1)) AS BIGINT) AS u2_b
FROM w, tot
GROUP BY n1, n2
"""


# -- geometric mean (log-space exact) --------------------------------------------

def events_geomean(sf_dir: str) -> pd.DataFrame:
    """Per-type geometric mean of positive values, carried in LOG space
    as the exact pair (n, Σ floor(ln(cent)·10⁶ + 0.5)) — the
    `docs_unigram_logprob` rounding lesson: never oracle the rounded
    DIVISION (exp(Σ/n) is one client-side call away).  ln computed once
    per DISTINCT cent via glibc ``math.log`` (≡ DuckDB ``std::log``).

    Shape: per-row integer addends (exact under any batch split), one
    |types|-row ``fold_groups`` census."""
    import math

    import numpy as np

    ev = _events(sf_dir, ["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["value"].to_numpy() * 100).astype("int64")
        keep = c > 0
        t = b["event_type"].to_numpy()[keep]
        c = c[keep]
        u, inv = np.unique(c, return_inverse=True)
        lu = np.array([math.floor(math.log(float(x)) * 1_000_000 + 0.5)
                       for x in u], dtype="int64")
        return pd.DataFrame({"event_type": t, "n": 1, "ln_sum_micro": lu[inv]})

    return fold_groups(  # ≤ |types| rows
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["event_type"], [("n", "sum"), ("ln_sum_micro", "sum")])


GEOMEAN_SQL = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(
           ln(CAST(round(value * 100) AS BIGINT)) * 1000000 + 0.5
         ) AS BIGINT)) AS BIGINT) AS ln_sum_micro
FROM events
WHERE CAST(round(value * 100) AS BIGINT) > 0
GROUP BY 1
"""


# -- Kaplan-Meier survival over session durations -------------------------------

def events_kaplan_meier(sf_dir: str):
    """Kaplan-Meier survival estimator over SESSION durations — the
    survival-analysis primitive (churn curves, page-dwell analysis):
    sessions still open at the observation end (last event within one
    session gap of the global max ts) are right-CENSORED, everything
    else is a completed "death" at duration (end − start) whole seconds.
    At each death time t: S(t) = Π_{t_i ≤ t} (1 − d_i / n_i) with
    n_i = sessions whose duration ≥ t_i (censored sessions stay in the
    risk set until their censoring time, the standard KM convention).

    Float contract: every factor is a ratio of INTEGERS, so the log
    survival travels exactly — term_i = iround(ln(n_i − d_i)·1e6) −
    iround(ln(n_i)·1e6) (each ln taken on an integer, micro-nat
    pre-rounded like ``events_entropy``), the running sum is exact
    int64, and both engines exp() the identical double.  A zero factor
    (n_i == d_i, only possible at the max duration) pins survival to
    0.0 from that row on.

    Shape: one cheap max(ts) column scan for the censor horizon, then
    ONE bucketed exchange on user_id (sessionize + per-bucket duration
    census partials); the KM curve itself is computed on the census —
    bounded by DISTINCT durations, far smaller than the session table.
    Reference framing: survival curves are standard pipeline-health
    analytics; no reference-file counterpart (beyond-reference op)."""
    import math

    from ..stages.shuffle import bucketed_group_map
    from ..stages.windows import SESSION_GAP_MIN

    ev = _events(sf_dir, ["user_id", "event_id", "ts"])
    mx = fold_groups(_events(sf_dir, ["ts"]), [], [("ts", "max")])["ts"].iloc[0]
    horizon = pd.Timestamp(mx) - pd.Timedelta(minutes=SESSION_GAP_MIN)

    def census_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = s["user_id"].ne(s["user_id"].shift())
        gap = s["ts"].diff() > pd.Timedelta(minutes=SESSION_GAP_MIN)
        sess = (new_user | gap).cumsum()
        per = (
            s.assign(sess=sess)
            .groupby("sess", sort=False)
            .agg(start=("ts", "min"), end=("ts", "max"))
        )
        us = per["end"].to_numpy().astype("datetime64[us]").astype("int64")
        dur = (us - per["start"].to_numpy().astype("datetime64[us]")
               .astype("int64")) // 1_000_000
        death = (per["end"] < horizon).to_numpy()
        return pd.DataFrame({"dur": dur.astype("int64"),
                             "deaths": death.astype("int64"), "tot": 1})

    c = fold_groups(  # ≤ distinct durations
        bucketed_group_map(ev, ["user_id"], census_bucket), ["dur"],
        [("deaths", "sum"), ("tot", "sum")])
    total = int(c["tot"].sum())
    below = np.concatenate(([0], np.cumsum(c["tot"].to_numpy("int64"))[:-1]))
    n_risk = total - below
    d = c["deaths"].to_numpy("int64")
    keep = d > 0
    nr, dd, dur = n_risk[keep], d[keep], c["dur"].to_numpy("int64")[keep]

    def iln(x: int) -> int:
        return math.floor(math.log(x) * 1_000_000 + 0.5)

    terms = np.fromiter(
        ((iln(int(n) - int(k)) - iln(int(n))) if n > k else 0
         for n, k in zip(nr, dd)),
        dtype="int64", count=len(nr),
    )
    cum = np.cumsum(terms)
    zero_seen = np.cumsum((nr == dd).astype("int64")) > 0
    surv = np.where(
        zero_seen, 0.0,
        np.fromiter((math.exp(v / 1_000_000.0) for v in cum),
                    dtype="float64", count=len(cum)),
    )
    return pd.DataFrame(
        {"duration_s": dur, "n_risk": nr.astype("int64"),
         "n_events": dd.astype("int64"), "survival": surv}
    )


KAPLAN_MEIER_SQL = """
WITH x AS (
  SELECT user_id, event_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
  FROM events
), s AS (
  SELECT user_id, ts,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sid
  FROM x
), per AS (
  SELECT user_id, sid,
         (epoch_us(MAX(ts)) - epoch_us(MIN(ts))) // 1000000 AS dur,
         MAX(ts) AS e
  FROM s GROUP BY user_id, sid
), m AS (
  SELECT MAX(ts) - INTERVAL 30 MINUTE AS horizon FROM events
), c AS (
  SELECT dur,
         SUM(CASE WHEN e < horizon THEN 1 ELSE 0 END) AS deaths,
         COUNT(*) AS tot
  FROM per, m GROUP BY dur
), r AS (
  SELECT dur, deaths,
         SUM(tot) OVER (ORDER BY dur DESC ROWS UNBOUNDED PRECEDING) AS n_risk
  FROM c
), k AS (
  SELECT dur, n_risk, deaths,
         CASE WHEN n_risk > deaths THEN
           CAST(floor(ln(CAST(n_risk - deaths AS BIGINT)) * 1000000 + 0.5) AS BIGINT)
           - CAST(floor(ln(CAST(n_risk AS BIGINT)) * 1000000 + 0.5) AS BIGINT)
         ELSE 0 END AS term,
         CASE WHEN n_risk = deaths THEN 1 ELSE 0 END AS zf
  FROM r WHERE deaths > 0
)
SELECT CAST(dur AS BIGINT) AS duration_s,
       CAST(n_risk AS BIGINT) AS n_risk,
       CAST(deaths AS BIGINT) AS n_events,
       CASE WHEN SUM(zf) OVER (ORDER BY dur ROWS UNBOUNDED PRECEDING) > 0
            THEN 0.0
            ELSE exp(CAST(SUM(term) OVER (ORDER BY dur
                          ROWS UNBOUNDED PRECEDING) AS DOUBLE) / 1000000.0)
       END AS survival
FROM k
"""


def events_markov_stationary(sf_dir: str, iters: int = 60):
    """Stationary distribution of the event-type Markov chain — where a
    user's behavior settles in the long run (the eigenvector summary of
    ``events_transitions``).  The transition census is the distributed
    part (|types|²-bounded artifact); the power iteration runs dense
    driver-side from the uniform start, row-normalizing the count
    matrix once.  Deterministic: fixed iteration count, fixed start,
    one arithmetic path; probabilities rounded 6 dp.  Rows-only
    (iterative fixpoint — no SQL oracle); pytest pins πP = π and
    Σπ = 1."""
    t = events_transitions(sf_dir)  # |types|² bounded
    types = sorted(set(t["event_type"]) | set(t["next_type"]))
    idx = {s: i for i, s in enumerate(types)}
    k = len(types)
    M = np.zeros((k, k), dtype="float64")
    for et, nt, n in zip(t["event_type"], t["next_type"], t["n"]):
        M[idx[et], idx[nt]] = float(n)
    rs = M.sum(axis=1)
    # types with no outgoing transition: self-loop (keeps P stochastic)
    for i in range(k):
        if rs[i] == 0:
            M[i, i] = 1.0
            rs[i] = 1.0
    P = M / rs[:, None]
    pi = np.full(k, 1.0 / k, dtype="float64")
    for _ in range(iters):
        pi = pi @ P
        pi = pi / pi.sum()
    return pd.DataFrame(
        {"event_type": pd.array(types, "str"),
         "stationary_p": np.round(pi, 6)}
    )


def events_streaming_tumbling(sf_dir: str, n_chunks: int = 4,
                              state_dir: str | None = None):
    """The tumbling-window aggregate computed as a STREAMING ingestion:
    events arrive in ``n_chunks`` micro-batches, each folded
    exactly-once into a persistent keyed state table
    (``stages/streaming.py:microbatch_aggregate`` over the upsert
    table).  Chunking is SOURCE-SIDE (``arrival_chunks``): per-chunk
    fragment lists when the input is a many-file directory, a one-scan
    landing split for single-file fixtures — total input scan is 1×
    regardless of ``n_chunks`` (arrival order is irrelevant: the
    partials are exact int64 and addition is associative).  The folded
    state equals the one-shot batch ``events_tumbling`` bit-for-bit, so
    this query shares its SQL oracle — the batch/streaming equivalence
    is the correctness gate, not just a pytest.  Crash/restart
    exactly-once semantics are pytest-gated separately."""
    import os
    import tempfile

    from ..stages.streaming import (
        arrival_chunks, init_stream_table, microbatch_aggregate,
        stream_state,
    )
    from ..stages.windows import tumbling_partial_batch

    table_dir = state_dir or tempfile.mkdtemp(prefix="mkg_stream_")
    init_stream_table(table_dir, "_k")
    chunks = arrival_chunks(
        f"{sf_dir}/events.parquet", n_chunks,
        columns=["event_id", "event_type", "ts", "value"],
        land_dir=os.path.join(table_dir, "_arrivals"), key_col="event_id",
    )
    for i, chunk in enumerate(chunks):
        partials = chunk.map_batches(
            arrow_out(tumbling_partial_batch), batch_format="pandas"
        )
        microbatch_aggregate(
            table_dir, f"chunk-{i}", partials,
            ["event_type", "window_start"], ["n", "sum_value_c"],
        )

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": b["event_type"].astype(str),
             "window_start": b["window_start"],
             "n": b["n"].astype("int64"),
             "sum_value": b["sum_value_c"].astype("int64") / 100.0}
        )

    return stream_state(table_dir).map_batches(
        arrow_out(finalize), batch_format="pandas"
    )


# -- sequence mining: top contiguous event-type trigrams -------------------------

TRIGRAM_TOP_K = 20


def events_path_trigrams(sf_dir: str):
    """Top-``TRIGRAM_TOP_K`` contiguous event-type TRIGRAMS across all
    user streams with occurrence AND distinct-user counts — the
    sequence-mining census one order up from `events_transitions`'
    bigrams (sub-path discovery rather than whole-path `events_top_paths`
    counting).

    Shape: ONE user_id exchange; inside each user-complete bucket both
    statistics finalize per trigram EXACTLY (every occurrence and every
    user of a stream lives in one bucket), so the second exchange is the
    ≤|types|³-key census fold; top-k (n desc, trigram asc) is total and
    parallelism-invariant."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        user = s["user_id"].to_numpy()
        et = s["event_type"].to_numpy()
        if len(s) < 3:
            return pd.DataFrame(
                {"t1": pd.array([], "str"), "t2": pd.array([], "str"),
                 "t3": pd.array([], "str"),
                 "n": pd.array([], "int64"),
                 "n_users": pd.array([], "int64")}
            )
        same = (user[:-2] == user[1:-1]) & (user[1:-1] == user[2:])
        df = pd.DataFrame(
            {"u": user[:-2][same], "t1": et[:-2][same],
             "t2": et[1:-1][same], "t3": et[2:][same]}
        )
        agg = (df.groupby(["t1", "t2", "t3"], sort=False)
               .agg(n=("u", "size"), n_users=("u", "nunique"))
               .reset_index())
        return agg.astype({"n": "int64", "n_users": "int64"})

    partials = bucketed_group_map(ev, ["user_id"], partial, num_buckets=32)
    agg = fold_groups(  # ≤ |types|³ rows
        partials, ["t1", "t2", "t3"], [("n", "sum"), ("n_users", "sum")])
    return (
        agg.astype({"t1": str, "t2": str, "t3": str})
        .sort_values(["n", "t1", "t2", "t3"],
                     ascending=[False, True, True, True], kind="mergesort")
        .head(TRIGRAM_TOP_K)
        .reset_index(drop=True)
    )


PATH_TRIGRAMS_SQL = f"""
WITH s AS (
  SELECT user_id, event_type AS t1,
         LEAD(event_type, 1) OVER w AS t2,
         LEAD(event_type, 2) OVER w AS t3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM s WHERE t3 IS NOT NULL
GROUP BY 1, 2, 3
ORDER BY n DESC, t1, t2, t3
LIMIT {TRIGRAM_TOP_K}
"""


# -- one-way ANOVA across event types --------------------------------------------


def events_anova(sf_dir: str) -> pd.DataFrame:
    """One-way ANOVA of ``value`` across event types with a FULLY EXACT
    integer contract — no rounded division anywhere (the measured
    half-even/half-away tie trap): per-type (n, Σc, Σc²-limbs) exact
    cent moments ride one |types|-row census; each group's
    ``a_g = (S_g²·10⁶) // n_g`` is an exact floor (round-each-addend
    contract, order-free), SSB/SSW derive by subtraction (clamped at 0
    against the ≤k-unit floor undershoot when true SSB≈0), wide sums
    travel as the standard two int64 limbs, and the F statistic is the
    exact integer ``(ssb·(n−k)·1000) // (ssw·(k−1))`` — arbitrary-int
    Python ≡ DuckDB HUGEINT."""

    LIMB = 10 ** 15

    ev = _events(sf_dir, ["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(b["value"].to_numpy() * 100).astype("int64")
        # per-row c² ≤ ~1e10 and per-batch Σc² ≤ 4096·1e10 ≪ 2⁶³: int64
        # is exact inside a batch; the LIMB split below keeps the
        # cross-batch fold exact past int64
        g = group_frame(
            pd.DataFrame({"t": b["event_type"].to_numpy(), "n": 1, "s": c,
                          "q": c * c}),
            ["t"], [("n", "sum"), ("s", "sum"), ("q", "sum")])
        q = g["q"].to_numpy("int64")
        return pd.DataFrame(
            {"t": pd.array(g["t"], "str"),
             "n": g["n"].astype("int64"),
             "s": g["s"].astype("int64"),
             "q_lo": pd.array(q % LIMB, "int64"),
             "q_hi": pd.array(q // LIMB, "int64")}
        )

    agg = fold_groups(  # ≤ |types| rows
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["t"], [("n", "sum"), ("s", "sum"), ("q_lo", "sum"),
                ("q_hi", "sum")])
    k = len(agg)
    n = int(agg["n"].sum())
    s_tot = int(agg["s"].sum())
    q_tot = sum(int(lo) + int(hi) * LIMB
                for lo, hi in zip(agg["q_lo"], agg["q_hi"]))
    sa = sum((int(sg) * int(sg) * 1_000_000) // int(ng)
             for sg, ng in zip(agg["s"], agg["n"]))
    ssb = max(sa - (s_tot * s_tot * 1_000_000) // n, 0)
    ssw = max(q_tot * 1_000_000 - sa, 0)
    f_permille = ((ssb * (n - k) * 1000) // (ssw * (k - 1))
                  if ssw > 0 and k > 1 else 0)
    return pd.DataFrame(
        {"k": pd.array([k], "int64"), "n": pd.array([n], "int64"),
         "ssb_lo": pd.array([ssb % LIMB], "int64"),
         "ssb_hi": pd.array([ssb // LIMB], "int64"),
         "ssw_lo": pd.array([ssw % LIMB], "int64"),
         "ssw_hi": pd.array([ssw // LIMB], "int64"),
         "f_permille": pd.array([f_permille], "int64")}
    )


ANOVA_SQL = """
WITH g AS (
  SELECT event_type,
         CAST(COUNT(*) AS HUGEINT) AS n,
         CAST(SUM(CAST(round(value*100) AS BIGINT)) AS HUGEINT) AS s,
         CAST(SUM(CAST(round(value*100) AS BIGINT)
                  * CAST(round(value*100) AS BIGINT)) AS HUGEINT) AS q
  FROM events GROUP BY 1
), a AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS k, SUM(n) AS n, SUM(s) AS s,
         SUM(q) AS q, SUM((s*s*1000000)//n) AS sa
  FROM g
), f AS (
  SELECT k, n,
         GREATEST(sa - (s*s*1000000)//n, 0) AS ssb,
         GREATEST(q*1000000 - sa, 0) AS ssw
  FROM a
)
SELECT CAST(k AS BIGINT) AS k, CAST(n AS BIGINT) AS n,
       CAST(ssb % 1000000000000000 AS BIGINT) AS ssb_lo,
       CAST(ssb // 1000000000000000 AS BIGINT) AS ssb_hi,
       CAST(ssw % 1000000000000000 AS BIGINT) AS ssw_lo,
       CAST(ssw // 1000000000000000 AS BIGINT) AS ssw_hi,
       CAST(CASE WHEN ssw > 0 AND k > 1
                 THEN (ssb*(n-k)*1000) // (ssw*(k-1)) ELSE 0 END
            AS BIGINT) AS f_permille
FROM f
"""

# -- population stability index (distribution drift monitor) -------------------

PSI_BINS = 10
PSI_BIN_CENTS = 10_000  # $100-wide bins in integer cents


def events_psi(sf_dir: str):
    """Per-type Population Stability Index between the EARLY and LATE
    half of the event log — the standard drift monitor a production
    data pipeline runs on every feature (PSI < 0.1 stable, > 0.25
    drifted).  Reference analogue: the engine-health censuses the
    reference derives per source (``clean_and_save.py`` weight audits);
    over the events table the same idea is a distribution diff.

    Deterministic contract:

    * period split at ``mid = min_ts + (max_ts − min_ts) // 2`` in
      integer µs (identical floor-division both engines),
    * value binned in integer cents: ``bin = min(cents // 10000, 9)``
      (10 × $100 bins; cents = rint(value·100) — the repo-wide float
      contract),
    * Laplace-smoothed PSI with every bin materialized:
      ``a = early_count + 1`` over ``n1' = n_early + B`` (same for
      late); per-bin addend
      ``(a/n1' − b/n2')·(ln a − ln n1' − ln b + ln n2')`` mirrored
      term-for-term on both engines (ln of INTEGERS only — CPython's
      ``math.log`` ≡ DuckDB's ``std::log``), pre-rounded to an integer
      nano via ``floor(x·1e9 + 0.5)`` so the sum is exact int64 and
      summation order never matters (the ``events_entropy`` recipe).

    Shape: one ts-only min/max pass (bounded), then ONE full scan whose
    per-row (type, period, bin) columns fold into a ≤ types×2×B census;
    finalize is driver-side on that census."""
    import math

    import pyarrow as pa

    ts_stats = fold_groups(
        _events(sf_dir, ["ts"]).map_batches(
            lambda t: pa.table({"lo": t["ts"], "hi": t["ts"]}),
            batch_format="pyarrow"),
        [], [("lo", "min"), ("hi", "max")]).iloc[0]
    lo = pd.Timestamp(ts_stats["lo"]).value // 1000  # ns → µs
    hi = pd.Timestamp(ts_stats["hi"]).value // 1000
    mid = lo + (hi - lo) // 2

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        period = (us > mid).astype("int64")
        cents = np.rint(b["value"].to_numpy() * 100).astype("int64")
        bins = np.minimum(cents // PSI_BIN_CENTS, PSI_BINS - 1)
        return pd.DataFrame({"event_type": b["event_type"], "period": period,
                             "bin": bins, "n": 1})

    census = fold_groups(  # ≤ types×2×B rows — bounded artifact
        _events(sf_dir, ["event_type", "ts", "value"])
        .map_batches(arrow_out(partial), batch_format="pandas"),
        ["event_type", "period", "bin"], [("n", "sum")])

    out_rows = []
    for etype, g in census.groupby("event_type", sort=True):
        early = np.zeros(PSI_BINS, dtype="int64")
        late = np.zeros(PSI_BINS, dtype="int64")
        ge = g[g["period"] == 0]
        gl = g[g["period"] == 1]
        early[ge["bin"].to_numpy()] = ge["n"].to_numpy()
        late[gl["bin"].to_numpy()] = gl["n"].to_numpy()
        n1p = int(early.sum()) + PSI_BINS
        n2p = int(late.sum()) + PSI_BINS
        a = early + 1
        b = late + 1
        ln = {int(v): math.log(int(v))
              for v in set(a.tolist()) | set(b.tolist()) | {n1p, n2p}}
        lna = np.array([ln[int(v)] for v in a])
        lnb = np.array([ln[int(v)] for v in b])
        term = (a / n1p - b / n2p) * (lna - ln[n1p] - lnb + ln[n2p])
        nano = np.floor(term * 1e9 + 0.5).astype("int64")
        out_rows.append(
            (etype, int(early.sum()), int(late.sum()),
             int(nano.sum()) / 1e9)
        )
    return pd.DataFrame(
        {"event_type": pd.array([r[0] for r in out_rows], "str"),
         "n_early": pd.array([r[1] for r in out_rows], "int64"),
         "n_late": pd.array([r[2] for r in out_rows], "int64"),
         "psi": pd.array([r[3] for r in out_rows], "float64")}
    )


PSI_SQL = f"""
WITH bounds AS (
  SELECT epoch_us(MIN(ts)) + (epoch_us(MAX(ts)) - epoch_us(MIN(ts))) // 2
         AS mid
  FROM events
), binned AS (
  SELECT event_type,
         CASE WHEN epoch_us(ts) > (SELECT mid FROM bounds)
              THEN 1 ELSE 0 END AS period,
         LEAST(CAST(round(value*100) AS BIGINT) // {PSI_BIN_CENTS},
               {PSI_BINS - 1}) AS bin
  FROM events
), census AS (
  SELECT event_type, period, bin, COUNT(*) AS n
  FROM binned GROUP BY 1, 2, 3
), grid AS (
  SELECT t.event_type, g.bin,
         COALESCE(e.n, 0) AS early, COALESCE(l.n, 0) AS late
  FROM (SELECT DISTINCT event_type FROM events) t
  CROSS JOIN (SELECT unnest(range({PSI_BINS})) AS bin) g
  LEFT JOIN census e ON e.event_type = t.event_type AND e.bin = g.bin
                     AND e.period = 0
  LEFT JOIN census l ON l.event_type = t.event_type AND l.bin = g.bin
                     AND l.period = 1
), tot AS (
  SELECT event_type, SUM(early) AS n_early, SUM(late) AS n_late
  FROM grid GROUP BY 1
), terms AS (
  SELECT g.event_type,
         CAST(floor(
           (CAST(g.early + 1 AS DOUBLE) / (t.n_early + {PSI_BINS})
            - CAST(g.late + 1 AS DOUBLE) / (t.n_late + {PSI_BINS}))
           * (ln(g.early + 1) - ln(t.n_early + {PSI_BINS})
              - ln(g.late + 1) + ln(t.n_late + {PSI_BINS}))
           * 1e9 + 0.5) AS BIGINT) AS nano
  FROM grid g JOIN tot t USING (event_type)
)
SELECT t.event_type AS event_type,
       CAST(t.n_early AS BIGINT) AS n_early,
       CAST(t.n_late AS BIGINT) AS n_late,
       CAST(s.nano_sum AS DOUBLE) / 1e9 AS psi
FROM tot t JOIN (
  SELECT event_type, CAST(SUM(nano) AS BIGINT) AS nano_sum
  FROM terms GROUP BY 1
) s USING (event_type)
"""


# -- linear multi-touch attribution ---------------------------------------------

ATTRIB_WINDOW_US = 7 * 24 * 3600 * 1_000_000  # 7-day lookback


def events_linear_attrib(sf_dir: str):
    """LINEAR multi-touch attribution: every purchase splits one unit of
    conversion credit equally across ALL the user's non-purchase touches
    in the trailing 7 days (strictly before the purchase); per type we
    report how many purchase windows it appeared in and its total
    credit — the marketing-analytics complement of the last-touch model
    (``events_last_touch``).

    Exact contract: per (purchase, type) the credit is the INTEGER
    ``(10⁶·c) // k`` (c = touches of that type in the window, k = all
    touches in the window) — floor division on integers both engines,
    so the per-type sums are exact int64 and the one /1e6 division
    happens on identical ints.

    Shape: ONE user-bucketed exchange; in-bucket the window counts are
    composite-key ``searchsorted`` diffs (the ``events_rolling_time``
    idiom — user_rank·2^45 + Δµs keeps users contiguous), one pair of
    searchsorteds per event type, no per-purchase Python loop; the
    per-type partials fold driver-side (≤ #types rows)."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = s["ts"].to_numpy("datetime64[us]").astype(np.int64)
        ts_rel = ts_us - (ts_us.min() if len(ts_us) else 0)
        u = s["user_id"].to_numpy()
        new_user = np.empty(len(u), dtype=bool)
        if len(u):
            new_user[0] = True
            new_user[1:] = u[1:] != u[:-1]
        ranks = np.cumsum(new_user) - 1 if len(u) else np.array([], np.int64)
        if len(ts_rel) and int(ts_rel.max()) >= (1 << 45) - ATTRIB_WINDOW_US:
            raise ValueError("events_linear_attrib: ts span exceeds 2^45 µs")
        keys = ranks.astype(np.int64) * (1 << 45) + ts_rel
        et = s["event_type"].to_numpy()
        is_p = et == "purchase"
        pkeys = keys[is_p]
        touch_keys = keys[~is_p]
        k = (
            np.searchsorted(touch_keys, pkeys, side="left")
            - np.searchsorted(touch_keys, pkeys - ATTRIB_WINDOW_US, side="left")
        )
        rows = []
        for t in np.unique(et[~is_p]):
            tk = keys[et == t]
            c = (
                np.searchsorted(tk, pkeys, side="left")
                - np.searchsorted(tk, pkeys - ATTRIB_WINDOW_US, side="left")
            )
            m = c > 0  # k >= c > 0 implied
            if not m.any():
                continue
            credit = (1_000_000 * c[m].astype("int64")) // k[m]
            rows.append((str(t), int(m.sum()), int(credit.sum())))
        if not rows:
            return pd.DataFrame(
                {"event_type": pd.array([], "str"),
                 "n_windows": pd.array([], "int64"),
                 "credit_micro": pd.array([], "int64")}
            )
        return pd.DataFrame(
            {"event_type": pd.array([r[0] for r in rows], "str"),
             "n_windows": pd.array([r[1] for r in rows], "int64"),
             "credit_micro": pd.array([r[2] for r in rows], "int64")}
        )

    agg = fold_groups(  # ≤ |types| rows
        bucketed_group_map(ev, ["user_id"], bucket), ["event_type"],
        [("n_windows", "sum"), ("credit_micro", "sum")])
    return pd.DataFrame(
        {"event_type": pd.array(agg["event_type"], "str"),
         "n_windows": agg["n_windows"].astype("int64"),
         "credit_micro": agg["credit_micro"].astype("int64"),
         "credit": agg["credit_micro"].to_numpy("int64") / 1_000_000.0}
    )


LINEAR_ATTRIB_SQL = """
WITH p AS (
  SELECT event_id AS pid, user_id, ts AS pt FROM events
  WHERE event_type = 'purchase'
), t AS (
  SELECT user_id, event_type, ts FROM events WHERE event_type <> 'purchase'
), w AS (
  SELECT p.pid, t.event_type, COUNT(*) AS c
  FROM p JOIN t ON t.user_id = p.user_id AND t.ts < p.pt
              AND t.ts >= p.pt - INTERVAL 7 DAY
  GROUP BY 1, 2
), k AS (
  SELECT pid, SUM(c) AS k FROM w GROUP BY 1
)
SELECT w.event_type AS event_type,
       CAST(COUNT(*) AS BIGINT) AS n_windows,
       CAST(SUM((1000000 * c) // k.k) AS BIGINT) AS credit_micro,
       CAST(CAST(SUM((1000000 * c) // k.k) AS BIGINT) AS DOUBLE)
         / 1000000.0 AS credit
FROM w JOIN k USING (pid)
GROUP BY 1
"""


# -- HMM Viterbi session-intent decoding ------------------------------------------


def events_hmm_score(sf_dir: str) -> pd.DataFrame:
    """Per-user Viterbi score under the fixed 2-state session-intent HMM
    (``stages/hmm.py``): sequence length, final best path score in
    micro-nats (exact int64 dp — bit-identical at any parallelism) and
    the argmax final state.  ONE user-bucketed exchange; the dp sweep
    vectorizes across users per time step, so the Python loop is
    bounded by the longest user sequence in a bucket, never row count.
    Oracle: recursive CTE running the same integer recursion."""
    from ..stages.hmm import viterbi_scores_bucket
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    out = bucketed_group_map(ev, ["user_id"], viterbi_scores_bucket).to_pandas()
    return out.sort_values("user_id", kind="mergesort").reset_index(drop=True)


def events_hmm_decode(sf_dir: str):
    """Full per-event Viterbi decode (adds the backtrace to
    ``events_hmm_score``): every event row gets its decoded latent
    state.  Rows-only (backtrace is not SQL-expressible in one pass);
    ``tests/test_hmm.py`` pins distributed ≡ per-user dense decode and
    parallelism invariance, and the score face of the same sweep is
    SQL-oracled (``events_hmm_score``)."""
    from ..stages.hmm import viterbi_bucket
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    return bucketed_group_map(ev, ["user_id"], viterbi_bucket)


HMM_SCORE_SQL = """
WITH RECURSIVE seq AS (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS pos
  FROM events
), e AS (
  SELECT user_id, pos,
    CASE event_type WHEN 'view' THEN -1000000 WHEN 'click' THEN -2000000
      WHEN 'purchase' THEN -8000000 WHEN 'signup' THEN -6000000
      WHEN 'error' THEN -3000000 ELSE -4000000 END AS e0,
    CASE event_type WHEN 'view' THEN -3000000 WHEN 'click' THEN -2000000
      WHEN 'purchase' THEN -1000000 WHEN 'signup' THEN -2000000
      WHEN 'error' THEN -3000000 ELSE -4000000 END AS e1
  FROM seq
), dp AS (
  SELECT user_id, pos,
         CAST(0 - 0 + e0 AS BIGINT) AS dp0,
         CAST(-2000000 + e1 AS BIGINT) AS dp1
  FROM e WHERE pos = 0
  UNION ALL
  SELECT x.user_id, x.pos,
         CAST(GREATEST(d.dp0 - 100000, d.dp1 - 3000000) + x.e0 AS BIGINT),
         CAST(GREATEST(d.dp0 - 3000000, d.dp1 - 100000) + x.e1 AS BIGINT)
  FROM dp d JOIN e x ON x.user_id = d.user_id AND x.pos = d.pos + 1
), fin AS (
  SELECT user_id, MAX(pos) AS maxpos FROM seq GROUP BY 1
)
SELECT d.user_id AS user_id,
       CAST(f.maxpos + 1 AS BIGINT) AS n_events,
       CAST(GREATEST(d.dp0, d.dp1) AS BIGINT) AS score_micro,
       CAST(CASE WHEN d.dp0 >= d.dp1 THEN 0 ELSE 1 END AS BIGINT) AS state
FROM dp d JOIN fin f ON d.user_id = f.user_id AND d.pos = f.maxpos
ORDER BY 1
"""


# -- peak concurrent sessions ---------------------------------------------


def events_peak_concurrency(sf_dir: str) -> pd.DataFrame:
    """Top-10 peak-concurrency minutes: sessionize (30-min gap), treat
    each session as the interval [start-minute, end-minute] and sweep
    +1/−1 deltas — the classic max-overlap problem (capacity planning /
    surge detection) at minute resolution.

    Scale shape: ONE user-bucketed exchange (sessionization); each
    bucket emits its per-minute delta PARTIALS, so what leaves the
    bucket is bounded by the TIME SPAN (minutes with changes), never by
    rows; the prefix sweep + top-10 runs driver-side on that bounded
    census.  Ties break toward the earlier minute, mirrored in SQL."""
    from ..stages.shuffle import bucketed_group_map
    from ..stages.windows import sessionize_bucket

    ev = _events(sf_dir, ["user_id", "event_id", "ts"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {"m": pd.array([], "datetime64[us]"),
                 "delta": pd.array([], "int64")}
            )
        s = sessionize_bucket(g)
        d = pd.concat([
            pd.DataFrame({"m": s["session_start"].dt.floor("min"),
                          "delta": np.int64(1)}),
            pd.DataFrame({"m": s["session_end"].dt.floor("min")
                               + pd.Timedelta(minutes=1),
                          "delta": np.int64(-1)}),
        ], ignore_index=True)
        d["m"] = d["m"].to_numpy().astype("datetime64[us]")
        return d

    census = fold_groups(  # bounded by minutes-with-changes, not rows
        bucketed_group_map(ev, ["user_id"], bucket), ["m"], [("delta", "sum")]
    ).set_index("m")["delta"]
    conc = census.cumsum()
    top = (
        conc.reset_index(name="concurrency")
        .sort_values(["concurrency", "m"], ascending=[False, True],
                     kind="mergesort")
        .head(10)
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {"minute": top["m"].to_numpy().astype("datetime64[us]"),
         "concurrency": top["concurrency"].astype("int64")}
    )


PEAK_CONCURRENCY_SQL = """
WITH x AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess,
         event_id
  FROM events
), s AS (
  SELECT user_id, ts,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS so
  FROM x
), sess AS (
  SELECT user_id, so, MIN(ts) AS st, MAX(ts) AS en FROM s GROUP BY 1, 2
), d AS (
  SELECT date_trunc('minute', st) AS m, 1 AS delta FROM sess
  UNION ALL
  SELECT date_trunc('minute', en) + INTERVAL 1 MINUTE, -1 FROM sess
), c AS (
  SELECT m, CAST(SUM(delta) AS BIGINT) AS nd FROM d GROUP BY 1
), r AS (
  SELECT m, CAST(SUM(nd) OVER (ORDER BY m ROWS UNBOUNDED PRECEDING) AS BIGINT) AS conc
  FROM c
)
SELECT m AS minute, conc AS concurrency
FROM r ORDER BY conc DESC, m ASC LIMIT 10
"""


# -- Wilson confidence interval on per-type reach ----------------------------------


def events_wilson(sf_dir: str) -> pd.DataFrame:
    """Per-event-type REACH (share of all users who ever emit the type)
    with a Wilson-score 95% confidence interval — the uncertainty-
    quantified census an experimentation stack reports instead of bare
    proportions.

    Float contract: counts are exact int64 from ONE user-bucketed
    exchange (a user never splits, so per-bucket distinct counts fold
    exactly; the bucket's user total rides a sentinel row through the
    same exchange — the docs_dupspans trick); the interval is ONE
    closed-form double expression (sqrt is IEEE-correctly-rounded, so
    numpy ≡ DuckDB bit-for-bit) written identically on both sides and
    emitted floor-micro."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_type"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "event_type"])
        users = g.drop_duplicates("user_id")
        return pd.DataFrame(
            {"event_type": np.concatenate([d["event_type"].astype(str).to_numpy(),
                                           np.full(len(users), "", object)]),
             "x": 1})

    parts = fold_groups(  # ≤ |types| + 1 rows
        bucketed_group_map(ev, ["user_id"], bucket), ["event_type"], [("x", "sum")])
    total = int(parts.loc[parts["event_type"] == "", "x"].sum())
    agg = parts[parts["event_type"] != ""].reset_index(drop=True)
    x = agg["x"].to_numpy("int64").astype("float64")
    n = float(total)
    p = x / n
    z = 1.96
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return pd.DataFrame(
        {"event_type": pd.array(agg["event_type"], "str"),
         "n_users": agg["x"].astype("int64"),
         "total_users": pd.array([total] * len(agg), "int64"),
         "lo_micro": np.floor(1_000_000.0 * (center - half) + 0.5),
         "hi_micro": np.floor(1_000_000.0 * (center + half) + 0.5)}
    )


WILSON_SQL = """
WITH u AS (
  SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS total FROM events
), x AS (
  SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS nu
  FROM events GROUP BY 1
), f AS (
  SELECT event_type, nu, total,
         CAST(nu AS DOUBLE) / CAST(total AS DOUBLE) AS p,
         CAST(total AS DOUBLE) AS n
  FROM x, u
)
SELECT event_type, nu AS n_users, total AS total_users,
       FLOOR(1000000.0 * ((p + (1.96 * 1.96) / (2.0 * n)) / (1.0 + (1.96 * 1.96) / n)
             - 1.96 * sqrt(p * (1.0 - p) / n + (1.96 * 1.96) / (4.0 * n * n))
               / (1.0 + (1.96 * 1.96) / n)) + 0.5) AS lo_micro,
       FLOOR(1000000.0 * ((p + (1.96 * 1.96) / (2.0 * n)) / (1.0 + (1.96 * 1.96) / n)
             + 1.96 * sqrt(p * (1.0 - p) / n + (1.96 * 1.96) / (4.0 * n * n))
               / (1.0 + (1.96 * 1.96) / n)) + 0.5) AS hi_micro
FROM f ORDER BY event_type
"""


# -- absorbing-Markov expected steps to conversion --------------------------------

ABSORBING_STATE = "purchase"


def events_absorbing(sf_dir: str) -> pd.DataFrame:
    """Expected number of events until the next PURCHASE from each
    starting event type, under the absorbing-Markov model of the
    empirical transition chain (fundamental matrix t = (I−Q)⁻¹·1 —
    the funnel-depth statistic behind "how far is each surface from
    conversion?").

    Distributed shape: the exact integer (type → next type) transition
    census is ONE user-bucketed exchange (the ``events_transitions``
    idiom, census ≤ |types|² rows); the linear solve is driver-side on
    the ≤|types|² float matrix.  Rows-only (matrix inverse has no SQL
    form); ``tests/test_absorbing.py`` pins the solve against a
    hand-built chain, the defining identity (I−Q)·t = 1, and census
    exactness (parallelism-invariant by construction)."""
    return absorbing_expected_steps(events_transitions(sf_dir))


def absorbing_expected_steps(census: pd.DataFrame) -> pd.DataFrame:
    """Driver-side fundamental-matrix solve over an exact integer
    (event_type, next_type, n) census.  Split out so tests can feed
    hand-built chains."""
    types = sorted(
        set(census["event_type"]) | set(census["next_type"])
    )
    transient = [t for t in types if t != ABSORBING_STATE]
    idx = {t: i for i, t in enumerate(transient)}
    k = len(transient)
    q = np.zeros((k, k), dtype=np.float64)
    out_n = np.zeros(k, dtype=np.int64)
    for t, nx, n in zip(census["event_type"], census["next_type"], census["n"]):
        if t == ABSORBING_STATE:
            continue
        out_n[idx[t]] += int(n)
    for t, nx, n in zip(census["event_type"], census["next_type"], census["n"]):
        if t == ABSORBING_STATE:
            continue
        if nx != ABSORBING_STATE:
            q[idx[t], idx[nx]] = float(n)
    live = out_n > 0  # rows with no outgoing mass stay out of the solve
    q[live] = q[live] / out_n[live, None]
    t_steps = np.full(k, np.nan)
    if live.any():
        sub = np.ix_(live, live)
        n_mat = np.linalg.solve(
            np.eye(int(live.sum())) - q[sub], np.ones(int(live.sum()))
        )
        t_steps[live] = n_mat
    return pd.DataFrame(
        {"event_type": pd.array(transient, "str"),
         "n_out": pd.array(out_n, "int64"),
         "expected_steps": np.round(t_steps, 6)}
    )


# -- bounce rate per entry type ---------------------------------------------


def events_bounce_rate(sf_dir: str) -> pd.DataFrame:
    """Per ENTRY event type (the first event of a session), how many
    sessions start there and how many of them BOUNCE (exactly one
    event) — the landing-surface quality metric.  Integer-only output
    (n_sessions, n_bounces); rate is the consumer's division.

    Shape: ONE user-bucketed exchange; sessionization and the
    first-event/size census are vectorized inside the bucket (sessions
    never span buckets), and only the ≤|types| census leaves."""
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_id", "ts", "event_type"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = s["user_id"].ne(s["user_id"].shift())
        gap = s["ts"].diff() > pd.Timedelta(minutes=30)
        new_sess = (new_user | gap).to_numpy()
        sess_id = np.cumsum(new_sess)
        sizes = np.bincount(sess_id)[1:]  # sessions are 1-indexed
        entry_type = s["event_type"].to_numpy()[new_sess]
        return pd.DataFrame({"entry_type": entry_type, "n_sessions": 1,
                             "n_bounces": (sizes == 1).astype("int64")})

    agg = fold_groups(  # ≤ |types| rows
        bucketed_group_map(ev, ["user_id"], bucket), ["entry_type"],
        [("n_sessions", "sum"), ("n_bounces", "sum")])
    return pd.DataFrame(
        {"entry_type": pd.array(agg["entry_type"], "str"),
         "n_sessions": agg["n_sessions"].astype("int64"),
         "n_bounces": agg["n_bounces"].astype("int64")}
    )


BOUNCE_SQL = """
WITH x AS (
  SELECT user_id, event_id, ts, event_type,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
  FROM events
), s AS (
  SELECT user_id, event_type, ts, event_id,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS so
  FROM x
), sess AS (
  SELECT user_id, so, CAST(COUNT(*) AS BIGINT) AS n
  FROM s GROUP BY 1, 2
), fe AS (
  SELECT user_id, so, event_type AS entry_type FROM (
    SELECT user_id, so, event_type,
           ROW_NUMBER() OVER (PARTITION BY user_id, so
                              ORDER BY ts, event_id) AS rn
    FROM s
  ) WHERE rn = 1
)
SELECT entry_type,
       CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounces
FROM sess JOIN fe USING (user_id, so) GROUP BY 1 ORDER BY 1
"""


# -- CUPED variance-reduced experiment readout ---------------------------------


def events_cuped(sf_dir: str) -> pd.DataFrame:
    """CUPED (Deng et al. 2013) variance-reduced A/B readout: users
    split into two variants by content-stable md5 parity; the metric Y =
    second-half purchase value (cents), the pre-period covariate X =
    first-half view count; the pooled ``θ = cov(X,Y)/var(X)`` adjusts
    each variant mean — the experimentation-stack operator that shrinks
    CIs without touching the treatment effect.

    Exact contract: the period split is the integer µs midpoint
    ``(min+max)//2``; all five moments and per-variant sums fold as
    exact int64 through ONE user-bucketed exchange; θ and the adjusted
    means are the only float arithmetic — ONE mirrored double expression
    each, emitted floor-micro."""
    from ..functions.hashing import md5_int_vec_prefixed
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_type", "ts", "value"])

    # pass 1: global µs time bounds (cheap column census)
    def bounds(b: pd.DataFrame) -> pd.DataFrame:
        t = b["ts"].to_numpy("datetime64[us]").astype("int64")
        return pd.DataFrame({"lo": t, "hi": t})

    bf = fold_groups(ev.map_batches(arrow_out(bounds), batch_format="pandas"),
                     [], [("lo", "min"), ("hi", "max")])
    lo, hi = int(bf["lo"].iloc[0]), int(bf["hi"].iloc[0])
    mid = (lo + hi) // 2

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].to_numpy("datetime64[us]").astype("int64")
        et = g["event_type"].to_numpy()
        cents = np.rint(g["value"].to_numpy() * 100).astype("int64")
        x_ev = ((t < mid) & (et == "view")).astype("int64")
        y_ev = np.where((t >= mid) & (et == "purchase"), cents, 0)
        per_user = (
            pd.DataFrame({"user_id": g["user_id"], "x": x_ev, "y": y_ev})
            .groupby("user_id", sort=False).agg(x=("x", "sum"), y=("y", "sum"))
            .reset_index()
        )
        variant = (
            md5_int_vec_prefixed("exp1", per_user["user_id"].to_numpy(), bits=32)
            % 2
        ).astype("int64")
        x = per_user["x"].to_numpy("int64")
        y = per_user["y"].to_numpy("int64")
        return pd.DataFrame({"variant": variant, "n": 1, "sx": x, "sy": y,
                             "sxy": x * y, "sxx": x * x})

    agg = fold_groups(  # two variant rows
        bucketed_group_map(ev, ["user_id"], bucket), ["variant"],
        [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx")])
    n = float(agg["n"].sum())
    sx = float(agg["sx"].sum())
    sy = float(agg["sy"].sum())
    sxy = float(agg["sxy"].sum())
    sxx = float(agg["sxx"].sum())
    theta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    mean_x = sx / n
    nv = agg["n"].to_numpy("int64").astype("float64")
    sxv = agg["sx"].to_numpy("int64").astype("float64")
    syv = agg["sy"].to_numpy("int64").astype("float64")
    mean_adj = (syv - theta * (sxv - nv * mean_x)) / nv
    return pd.DataFrame(
        {"variant": agg["variant"].astype("int64"),
         "n_users": agg["n"].astype("int64"),
         "sum_x": agg["sx"].astype("int64"),
         "sum_y_cents": agg["sy"].astype("int64"),
         "theta_micro": np.floor(1_000_000.0 * theta + 0.5) * np.ones(len(agg)),
         "mean_adj_micro": np.floor(1_000_000.0 * mean_adj + 0.5)}
    )


CUPED_SQL = """
WITH b AS (
  SELECT CAST(epoch_us(MIN(ts)) AS BIGINT) AS lo,
         CAST(epoch_us(MAX(ts)) AS BIGINT) AS hi
  FROM events
), u AS (
  SELECT user_id,
         CAST(SUM(CASE WHEN epoch_us(ts) < (lo + hi) // 2
                        AND event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS x,
         CAST(SUM(CASE WHEN epoch_us(ts) >= (lo + hi) // 2
                        AND event_type = 'purchase'
                       THEN CAST(ROUND(value * 100) AS BIGINT) ELSE 0 END)
              AS BIGINT) AS y
  FROM events, b GROUP BY user_id
), v AS (
  SELECT x, y,
         CAST(('0x' || substr(md5('exp1|' || CAST(user_id AS VARCHAR)), 1, 8)
              )::UBIGINT % 2 AS BIGINT) AS variant
  FROM u
), m AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n,
         CAST(SUM(x) AS DOUBLE) AS sx, CAST(SUM(y) AS DOUBLE) AS sy,
         CAST(SUM(x * y) AS DOUBLE) AS sxy, CAST(SUM(x * x) AS DOUBLE) AS sxx
  FROM v
), g AS (
  SELECT variant, CAST(COUNT(*) AS BIGINT) AS n_users,
         CAST(SUM(x) AS BIGINT) AS sum_x, CAST(SUM(y) AS BIGINT) AS sum_y_cents
  FROM v GROUP BY 1
)
SELECT variant, n_users, sum_x, sum_y_cents,
       FLOOR(1000000.0 * ((n * sxy - sx * sy) / (n * sxx - sx * sx)) + 0.5)
         AS theta_micro,
       FLOOR(1000000.0 * ((CAST(sum_y_cents AS DOUBLE)
              - ((n * sxy - sx * sy) / (n * sxx - sx * sx))
                * (CAST(sum_x AS DOUBLE) - CAST(n_users AS DOUBLE) * (sx / n)))
             / CAST(n_users AS DOUBLE)) + 0.5) AS mean_adj_micro
FROM g, m ORDER BY variant
"""


# -- step-indexed flow census (Sankey) -------------------------------------------

SANKEY_STEPS = 3


def events_sankey(sf_dir: str):
    """Step-indexed transition flows — the Sankey-diagram census: for
    every user's time-ordered stream, count (step, from_type, to_type)
    over the first ``SANKEY_STEPS`` transitions.  Same one-exchange
    shape as ``events_transitions`` with the step index riding along;
    flow keys are ``steps·|types|²`` bounded."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def flow_partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        user = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = user[:-1] == user[1:]
        # 1-based rank of the FROM event within its user
        rn = np.arange(len(g), dtype=np.int64)
        seg_start = np.zeros(len(g), dtype=np.int64)
        if len(g):
            new = np.r_[True, user[1:] != user[:-1]]
            seg_start = np.maximum.accumulate(np.where(new, rn, -1))
        step = rn - seg_start + 1
        keep = same & (step[:-1] <= SANKEY_STEPS)
        return pd.DataFrame(
            {"step": step[:-1][keep], "from_type": et[:-1][keep],
             "to_type": et[1:][keep], "n": 1}
        )

    flows = bucketed_group_map(ev, ["user_id"], flow_partial, num_buckets=32)
    agg = fold_groups(  # ≤ steps·|types|² rows
        flows, ["step", "from_type", "to_type"], [("n", "sum")])
    return pd.DataFrame(
        {"step": agg["step"].astype("int64"),
         "from_type": agg["from_type"].astype(str),
         "to_type": agg["to_type"].astype(str),
         "n": agg["n"].astype("int64")}
    )


EVENTS_SANKEY_SQL = f"""
WITH e AS (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         LEAD(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS next_type
  FROM events)
SELECT CAST(rn AS BIGINT) AS step, event_type AS from_type,
       next_type AS to_type, CAST(COUNT(*) AS BIGINT) AS n
FROM e
WHERE next_type IS NOT NULL AND rn <= {SANKEY_STEPS}
GROUP BY 1, 2, 3
"""


# -- exponentially-weighted moving average ---------------------------------------

EWMA_ALPHA = 0.25


def events_ewma(sf_dir: str):
    """Per-event EWMA of ``value`` over each user's time-ordered stream
    (α = 0.25, y₁ = x₁) — the streaming smoother.

    Float contract (the oracle-safe recursion escape): the recursion is
    unrolled to its addend form  y_t = Σ_k w(t,k)·x_k  and EVERY addend
    is floored to int64 micro-units BEFORE the sum — integer addition
    is exact and order-free, so the result is independent of both batch
    boundaries and SQL join order, and ``pow(0.75, j)`` hits the same
    glibc pow on both sides (the ``customers_clv`` precedent).  Weights
    below the 1e-6 quantum vanish identically on both sides.

    Distributed shape: ONE user-bucketed exchange; inside a bucket the
    (t, k) pair expansion is fully vectorized (repeat + offset-arange,
    no per-user loop) — Σ T_u² work, bounded by the rolling-window span
    guard of this table (max 99 events/user in the testdata; a user
    with millions of events needs the windowed variant)."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def ewma_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(g)
        if not n:
            return pd.DataFrame({"user_id": pd.array([], "int64"),
                                 "rn": pd.array([], "int64"),
                                 "ewma_micro": pd.array([], "int64")})
        user = g["user_id"].to_numpy()
        x = g["value"].to_numpy("float64")
        idx = np.arange(n, dtype=np.int64)
        new = np.r_[True, user[1:] != user[:-1]]
        seg_start = np.maximum.accumulate(np.where(new, idx, -1))
        rn = idx - seg_start + 1                      # 1-based rank
        m = rn                                        # addends per row
        total = int(m.sum())
        t_idx = np.repeat(idx, m)
        off = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(m) - m, m)
        k_idx = np.repeat(seg_start, m) + off
        j = (rn[t_idx] - rn[k_idx]).astype("float64")
        pj = np.power(1.0 - EWMA_ALPHA, j)
        xk = x[k_idx]
        first = rn[k_idx] == 1
        term = np.where(
            first,
            np.floor(pj * xk * 1_000_000 + 0.5),
            np.floor(EWMA_ALPHA * pj * xk * 1_000_000 + 0.5),
        ).astype("int64")
        out = np.zeros(n, dtype=np.int64)
        np.add.at(out, t_idx, term)
        return pd.DataFrame({"user_id": user.astype("int64"),
                             "rn": rn.astype("int64"),
                             "ewma_micro": out})

    return bucketed_group_map(ev, ["user_id"], ewma_bucket, num_buckets=32)


EVENTS_EWMA_SQL = f"""
WITH e AS (
  SELECT user_id, value,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events)
SELECT a.user_id, CAST(a.rn AS BIGINT) AS rn,
       CAST(SUM(CASE WHEN b.rn = 1
         THEN CAST(FLOOR(pow({1.0 - EWMA_ALPHA}, CAST(a.rn - b.rn AS DOUBLE))
                         * b.value * 1000000 + 0.5) AS BIGINT)
         ELSE CAST(FLOOR({EWMA_ALPHA} * pow({1.0 - EWMA_ALPHA},
                         CAST(a.rn - b.rn AS DOUBLE))
                         * b.value * 1000000 + 0.5) AS BIGINT) END)
         AS BIGINT) AS ewma_micro
FROM e a JOIN e b ON a.user_id = b.user_id AND b.rn <= a.rn
GROUP BY 1, 2
"""


# -- run-length encoding census (gaps-and-islands) --------------------------------

def events_runlengths(sf_dir: str):
    """Run-length census of consecutive same-type events per user — the
    gaps-and-islands operator (how long do users persist in one
    activity?): count (event_type, run_length) over every maximal
    same-type run in every user's time-ordered stream.

    ONE user-bucketed exchange; inside a bucket runs are pure
    vectorized diffs on the (user, ts, event_id)-sorted frame; the
    census is |types|·max_run bounded."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def rle_partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        user = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        n = len(g)
        if not n:
            return pd.DataFrame({"event_type": pd.array([], "str"),
                                 "run_length": pd.array([], "int64"),
                                 "n_runs": pd.array([], "int64")})
        new_run = np.r_[True, (user[1:] != user[:-1]) | (et[1:] != et[:-1])]
        starts = np.flatnonzero(new_run)
        lengths = np.diff(np.r_[starts, n])
        return pd.DataFrame({"event_type": et[starts],
                             "run_length": lengths.astype("int64"), "n_runs": 1})

    runs = bucketed_group_map(ev, ["user_id"], rle_partial, num_buckets=32)
    agg = fold_groups(  # ≤ |types|·max_run rows
        runs, ["event_type", "run_length"], [("n_runs", "sum")])
    return pd.DataFrame(
        {"event_type": agg["event_type"].astype(str),
         "run_length": agg["run_length"].astype("int64"),
         "n_runs": agg["n_runs"].astype("int64")})


EVENTS_RUNLENGTHS_SQL = """
WITH e AS (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id)
         - ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                              ORDER BY ts, event_id) AS island
  FROM events),
r AS (
  SELECT user_id, event_type, island,
         CAST(COUNT(*) AS BIGINT) AS run_length
  FROM e GROUP BY 1, 2, 3)
SELECT event_type, run_length, CAST(COUNT(*) AS BIGINT) AS n_runs
FROM r GROUP BY 1, 2
"""


# -- burstiness (Fano factor) -----------------------------------------------------

def events_fano(sf_dir: str):
    """Per-type BURSTINESS of daily arrival counts — the Fano factor
    (variance / mean; 1 = Poisson, >1 = bursty): the dispersion
    diagnostic behind anomaly thresholds.  The (type, day) count census
    is calendar-bounded (types × days); moments are exact ints and the
    single float division is mirrored term-for-term, emitted
    floor-micro.  Days with zero events count as zero-count days via
    the calendar span (first..last day PER TYPE), exactly as the oracle
    computes it."""
    import numpy as np

    ev = _events(sf_dir, ["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # unit-safe epoch-day (ts arrives as datetime64[us] here; an
        # int64 // ns-per-day on µs values collapses every day to 0)
        day = (pd.to_datetime(b["ts"]).to_numpy()
               .astype("datetime64[D]").view("int64"))
        return pd.DataFrame({"event_type": b["event_type"].astype(str),
                             "day": day, "n": 1})

    cen = fold_groups(
        ev.map_batches(arrow_out(partial), batch_format="pandas"),
        ["event_type", "day"], [("n", "sum")])
    rows = []
    for et, g in cen.groupby("event_type"):
        span = int(g["day"].max() - g["day"].min()) + 1
        s1 = int(g["n"].sum())
        s2 = int((g["n"].to_numpy("int64") ** 2).sum())  # zero days add 0
        mean = s1 / span
        var = s2 / span - mean * mean
        fano = var / mean
        rows.append((et, span, s1,
                     int(np.floor(fano * 1e6 + 0.5))))
    out = pd.DataFrame(rows, columns=["event_type", "n_days", "n_events",
                                      "fano_micro"])
    return (out.sort_values("event_type").reset_index(drop=True)
            .astype({"event_type": "str", "n_days": "int64",
                     "n_events": "int64", "fano_micro": "int64"}))


EVENTS_FANO_SQL = """
WITH d AS (
  SELECT event_type, CAST(date_trunc('day', ts) AS DATE) AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
s AS (
  SELECT event_type,
         CAST(date_diff('day', MIN(day), MAX(day)) + 1 AS BIGINT) AS n_days,
         CAST(SUM(n) AS BIGINT) AS n_events,
         CAST(SUM(n * n) AS BIGINT) AS s2
  FROM d GROUP BY 1)
SELECT event_type, n_days, n_events,
       CAST(FLOOR(
         ((CAST(s2 AS DOUBLE) / n_days)
          - (CAST(n_events AS DOUBLE) / n_days)
            * (CAST(n_events AS DOUBLE) / n_days))
         / (CAST(n_events AS DOUBLE) / n_days) * 1000000 + 0.5)
         AS BIGINT) AS fano_micro
FROM s
ORDER BY 1
"""


# -- windowed type co-occurrence --------------------------------------------------

COOCCUR_WINDOW_US = 5 * 60 * 1_000_000  # 5 minutes


def events_cooccur_window(sf_dir: str):
    """Type pairs co-occurring within a 5-minute window of the SAME
    user — the temporal-proximity census behind session-level intent
    signals (an interval self-join, the band-join family): count
    ordered pairs (type_a ≤ type_b, distinct events,
    |ts_a − ts_b| ≤ 5 min).

    ONE user-bucketed exchange; in-bucket the band join is TWO
    searchsorteds on the (user-rank << 45) + µs composite key (the
    ``events_rolling_time`` trick — peers included exactly like SQL
    RANGE), then a vectorized pair-type census; output is |types|²
    bounded."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(g)
        if not n:
            return pd.DataFrame({"type_a": pd.array([], "str"),
                                 "type_b": pd.array([], "str"),
                                 "n_pairs": pd.array([], "int64")})
        user = g["user_id"].to_numpy()
        ts = pd.to_datetime(g["ts"]).to_numpy().astype(
            "datetime64[us]").view("int64")
        et = g["event_type"].to_numpy()
        urank = np.cumsum(np.r_[0, (user[1:] != user[:-1]).astype(np.int64)])
        key = (urank << np.int64(45)) + ts
        hi = np.searchsorted(key, key + COOCCUR_WINDOW_US, side="right")
        # pairs (i, j) with i < j ≤ hi_i — vectorized expansion
        m = hi - np.arange(n) - 1
        total = int(m.sum())
        if not total:
            return pd.DataFrame({"type_a": pd.array([], "str"),
                                 "type_b": pd.array([], "str"),
                                 "n_pairs": pd.array([], "int64")})
        i_idx = np.repeat(np.arange(n), m)
        off = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
        j_idx = i_idx + 1 + off
        a, b = et[i_idx], et[j_idx]
        lo = np.where(a <= b, a, b)
        hi_t = np.where(a <= b, b, a)
        return pd.DataFrame({"type_a": lo, "type_b": hi_t, "n_pairs": 1})

    pairs = bucketed_group_map(ev, ["user_id"], pair_partial,
                               num_buckets=32)
    agg = fold_groups(  # ≤ |types|² rows
        pairs, ["type_a", "type_b"], [("n_pairs", "sum")])
    return pd.DataFrame(
        {"type_a": agg["type_a"].astype(str),
         "type_b": agg["type_b"].astype(str),
         "n_pairs": agg["n_pairs"].astype("int64")})


EVENTS_COOCCUR_WINDOW_SQL = """
SELECT LEAST(a.event_type, b.event_type) AS type_a,
       GREATEST(a.event_type, b.event_type) AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
 AND b.ts <= a.ts + INTERVAL 5 MINUTE
GROUP BY 1, 2
"""


# -- interval union (active time) -------------------------------------------------

ACTIVE_WINDOW_US = 5 * 60 * 1_000_000  # each event opens a 5-minute interval


def events_active_time(sf_dir: str):
    """Per-user ACTIVE TIME: every event opens a 5-minute activity
    interval; overlapping intervals MERGE (the interval-union sweep —
    the dual of sessionization: bounded extension instead of
    gap-splitting).  Emits per user the merged-island count and total
    active microseconds — exact integers end-to-end.

    ONE user-bucketed exchange; in-bucket the union is the classic
    islands scan vectorized: an interval starts a new island iff its
    start exceeds the running max end of everything before it."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts"])

    def union_partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(g)
        if not n:
            return pd.DataFrame({"user_id": pd.array([], "int64"),
                                 "n_islands": pd.array([], "int64"),
                                 "active_us": pd.array([], "int64")})
        user = g["user_id"].to_numpy()
        ts = pd.to_datetime(g["ts"]).to_numpy().astype(
            "datetime64[us]").view("int64")
        end = ts + ACTIVE_WINDOW_US
        rows_u, rows_k, rows_a = [], [], []
        # islands per user, vectorized per user segment
        seg_new = np.r_[True, user[1:] != user[:-1]]
        seg_starts = np.flatnonzero(seg_new)
        seg_ends = np.r_[seg_starts[1:], n]
        for s, e in zip(seg_starts, seg_ends):
            t, en = ts[s:e], end[s:e]
            run_max = np.maximum.accumulate(en)
            new_isl = np.r_[True, t[1:] > run_max[:-1]]
            isl = np.cumsum(new_isl) - 1
            isl_start = t[new_isl]
            isl_end = np.maximum.reduceat(en, np.flatnonzero(new_isl))
            rows_u.append(int(user[s]))
            rows_k.append(int(new_isl.sum()))
            rows_a.append(int((isl_end - isl_start).sum()))
        return pd.DataFrame({"user_id": pd.array(rows_u, "int64"),
                             "n_islands": pd.array(rows_k, "int64"),
                             "active_us": pd.array(rows_a, "int64")})

    return bucketed_group_map(ev, ["user_id"], union_partial,
                              num_buckets=32)


EVENTS_ACTIVE_TIME_SQL = f"""
WITH e AS (
  SELECT user_id,
         epoch_us(ts) AS s,
         epoch_us(ts) + {ACTIVE_WINDOW_US} AS e
  FROM events),
m AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM e),
i AS (
  SELECT user_id, s, e,
         CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END
           AS new_island
  FROM m),
g AS (
  SELECT user_id, s, e,
         SUM(new_island) OVER (PARTITION BY user_id ORDER BY s, e
                               ROWS UNBOUNDED PRECEDING) AS island
  FROM i),
isl AS (
  SELECT user_id, island, MIN(s) AS st, MAX(e) AS en
  FROM g GROUP BY 1, 2)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_islands,
       CAST(SUM(en - st) AS BIGINT) AS active_us
FROM isl GROUP BY 1
"""


# -- difference-in-differences readout --------------------------------------------

def events_did(sf_dir: str) -> pd.DataFrame:
    """DIFFERENCE-IN-DIFFERENCES readout — the quasi-experimental
    sibling of ``events_cuped``: users split into control/treat by
    content-stable md5 parity, the observation window into pre/post by
    the integer µs midpoint; the effect estimate is
    ``(treat_post − treat_pre) − (control_post − control_pre)`` on
    per-user purchase value.

    Exact contract: per-(variant) user counts and per-period cent sums
    fold as exact int64 through ONE user-bucketed exchange; the four
    means and the DiD are the only float arithmetic — mirrored
    term-for-term, emitted floor-micro (did_micro is a constant column,
    the tidy-table convention for a scalar estimate)."""
    from ..functions.hashing import md5_int_vec_prefixed
    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["user_id", "event_type", "ts", "value"])

    def bounds(b: pd.DataFrame) -> pd.DataFrame:
        t = b["ts"].to_numpy("datetime64[us]").astype("int64")
        return pd.DataFrame({"lo": t, "hi": t})

    bf = fold_groups(ev.map_batches(arrow_out(bounds), batch_format="pandas"),
                     [], [("lo", "min"), ("hi", "max")])
    lo, hi = int(bf["lo"].iloc[0]), int(bf["hi"].iloc[0])
    mid = (lo + hi) // 2

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].to_numpy("datetime64[us]").astype("int64")
        et = g["event_type"].to_numpy()
        cents = np.rint(g["value"].to_numpy() * 100).astype("int64")
        pre = np.where((t < mid) & (et == "purchase"), cents, 0)
        post = np.where((t >= mid) & (et == "purchase"), cents, 0)
        per_user = (
            pd.DataFrame({"user_id": g["user_id"], "pre": pre, "post": post})
            .groupby("user_id", sort=False)
            .agg(pre=("pre", "sum"), post=("post", "sum")).reset_index()
        )
        variant = (
            md5_int_vec_prefixed("did1", per_user["user_id"].to_numpy(),
                                 bits=32) % 2
        ).astype("int64")
        return pd.DataFrame({"variant": variant, "n": 1,
                             "s_pre": per_user["pre"].to_numpy("int64"),
                             "s_post": per_user["post"].to_numpy("int64")})

    agg = fold_groups(  # two variant rows
        bucketed_group_map(ev, ["user_id"], bucket), ["variant"],
        [(c, "sum") for c in ("n", "s_pre", "s_post")])
    nv = agg["n"].to_numpy("int64").astype("float64")
    mpre = agg["s_pre"].to_numpy("int64").astype("float64") / nv
    mpost = agg["s_post"].to_numpy("int64").astype("float64") / nv
    did = (mpost[1] - mpre[1]) - (mpost[0] - mpre[0])
    return pd.DataFrame({
        "variant": agg["variant"].astype("int64"),
        "n_users": agg["n"].astype("int64"),
        "sum_pre_cents": agg["s_pre"].astype("int64"),
        "sum_post_cents": agg["s_post"].astype("int64"),
        "mean_pre_micro": np.floor(mpre * 1e6 + 0.5).astype("int64"),
        "mean_post_micro": np.floor(mpost * 1e6 + 0.5).astype("int64"),
        "did_micro": np.full(len(agg), int(np.floor(did * 1e6 + 0.5)),
                             dtype="int64"),
    })


EVENTS_DID_SQL = """
WITH b AS (
  SELECT CAST(epoch_us(MIN(ts)) AS BIGINT) AS lo,
         CAST(epoch_us(MAX(ts)) AS BIGINT) AS hi
  FROM events
), u AS (
  SELECT user_id,
         CAST(SUM(CASE WHEN epoch_us(ts) < (lo + hi) // 2
                        AND event_type = 'purchase'
                       THEN CAST(ROUND(value * 100) AS BIGINT) ELSE 0 END)
              AS BIGINT) AS pre,
         CAST(SUM(CASE WHEN epoch_us(ts) >= (lo + hi) // 2
                        AND event_type = 'purchase'
                       THEN CAST(ROUND(value * 100) AS BIGINT) ELSE 0 END)
              AS BIGINT) AS post
  FROM events, b GROUP BY user_id
), v AS (
  SELECT pre, post,
         CAST(('0x' || substr(md5('did1|' || CAST(user_id AS VARCHAR)), 1, 8)
              )::UBIGINT % 2 AS BIGINT) AS variant
  FROM u
), g AS (
  SELECT variant, CAST(COUNT(*) AS BIGINT) AS n_users,
         CAST(SUM(pre) AS BIGINT) AS sum_pre_cents,
         CAST(SUM(post) AS BIGINT) AS sum_post_cents
  FROM v GROUP BY 1
), m AS (
  SELECT
    (SELECT CAST(sum_post_cents AS DOUBLE) / CAST(n_users AS DOUBLE)
     FROM g WHERE variant = 1)
    - (SELECT CAST(sum_pre_cents AS DOUBLE) / CAST(n_users AS DOUBLE)
       FROM g WHERE variant = 1)
    - ((SELECT CAST(sum_post_cents AS DOUBLE) / CAST(n_users AS DOUBLE)
        FROM g WHERE variant = 0)
       - (SELECT CAST(sum_pre_cents AS DOUBLE) / CAST(n_users AS DOUBLE)
          FROM g WHERE variant = 0)) AS did
)
SELECT variant, n_users, sum_pre_cents, sum_post_cents,
       CAST(FLOOR(CAST(sum_pre_cents AS DOUBLE) / CAST(n_users AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS mean_pre_micro,
       CAST(FLOOR(CAST(sum_post_cents AS DOUBLE) / CAST(n_users AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS mean_post_micro,
       CAST(FLOOR(did * 1000000 + 0.5) AS BIGINT) AS did_micro
FROM g, m ORDER BY variant
"""


# -- Lindley queueing waits -------------------------------------------------------

def events_queue_wait(sf_dir: str):
    """Per-event QUEUE WAITING TIME under the single-server FIFO model
    (Lindley recursion ``W₁=0, W_{n+1} = max(0, W_n + S_n − A_n)``):
    each user is a queue, arrivals are the event times, service time is
    the value-derived ``round(value·1000)`` µs — the operational
    what-if (how backed up would a per-user worker be?).

    The recursion LOOKS sequential but closes over prefix sums:
    ``W_{n+1} = C_n − min(0, min_{k≤n} C_k)`` with
    ``C_n = Σ_{j≤n}(S_j − A_j)`` — so the in-bucket compute is one
    cumsum + one running min (vectorized, exact int64 µs), and the SQL
    oracle is two window functions.  Emits per event the wait in µs."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def wait_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(g)
        if not n:
            return pd.DataFrame({"user_id": pd.array([], "int64"),
                                 "rn": pd.array([], "int64"),
                                 "wait_us": pd.array([], "int64")})
        user = g["user_id"].to_numpy()
        ts = pd.to_datetime(g["ts"]).to_numpy().astype(
            "datetime64[us]").view("int64")
        svc = np.rint(g["value"].to_numpy() * 1000).astype("int64")
        idx = np.arange(n, dtype=np.int64)
        new = np.r_[True, user[1:] != user[:-1]]
        seg_start = np.maximum.accumulate(np.where(new, idx, -1))
        rn = idx - seg_start + 1
        # X_j = S_j − A_j where A_j = inter-arrival to the NEXT event
        inter = np.r_[ts[1:] - ts[:-1], np.int64(0)]
        inter[np.r_[new[1:], True]] = 0   # last event of each user
        x = svc - inter
        # per-user cumulative C and running min via segment reset
        c = np.zeros(n, dtype=np.int64)
        w = np.zeros(n, dtype=np.int64)
        for s in np.flatnonzero(new):
            e = s + 1
            while e < n and not new[e]:
                e += 1
            cs = np.cumsum(x[s:e])
            run = np.minimum.accumulate(np.minimum(cs, 0))
            # W of events 2..k uses C and min over the PREVIOUS prefix
            w[s] = 0
            if e - s > 1:
                w[s + 1:e] = cs[:-1] - run[:-1]
        return pd.DataFrame({"user_id": user.astype("int64"),
                             "rn": rn.astype("int64"),
                             "wait_us": w})

    return bucketed_group_map(ev, ["user_id"], wait_bucket, num_buckets=32)


EVENTS_QUEUE_WAIT_SQL = """
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CAST(ROUND(value * 1000) AS BIGINT) AS svc,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events),
x AS (
  SELECT user_id, rn,
         svc - COALESCE(LEAD(t) OVER (PARTITION BY user_id
                                      ORDER BY rn) - t, 0) AS xv
  FROM e),
c AS (
  SELECT user_id, rn,
         SUM(xv) OVER (PARTITION BY user_id ORDER BY rn
                       ROWS UNBOUNDED PRECEDING) AS cum
  FROM x),
m AS (
  SELECT user_id, rn, cum,
         LEAST(MIN(cum) OVER (PARTITION BY user_id ORDER BY rn
                              ROWS UNBOUNDED PRECEDING), 0) AS runmin
  FROM c)
SELECT user_id, CAST(rn + 1 AS BIGINT) AS rn,
       CAST(cum - runmin AS BIGINT) AS wait_us
FROM m
WHERE rn + 1 <= (SELECT MAX(rn) FROM e e2 WHERE e2.user_id = m.user_id)
UNION ALL
SELECT user_id, CAST(1 AS BIGINT) AS rn, CAST(0 AS BIGINT) AS wait_us
FROM e WHERE rn = 1
"""


# -- Markov removal-effect attribution --------------------------------------------

def events_markov_attribution(sf_dir: str) -> pd.DataFrame:
    """Markov-chain REMOVAL-EFFECT attribution (Anderl et al. 2014) —
    the data-driven alternative to last-touch: each user's journey is
    START → type → … → CONV (first 'purchase') or NULL (journey ends);
    a channel's credit is how much the conversion probability DROPS
    when the channel is removed (its transitions redirect to NULL),
    normalized over channels.

    Distributed part: the exact integer transition census (bounded by
    (|types|+3)²) through ONE user-bucketed exchange; the absorbing-
    chain solves (base + one per removed channel) are driver-side dense
    linear algebra on the tiny matrix — the ``events_absorbing``
    posture.  Rows-only (iterative/linear-algebra; no SQL oracle);
    pytest pins a hand chain, share normalization, and parallelism
    invariance."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    ev = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def census(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        rows: dict[tuple[str, str], int] = {}
        for _uid, seq in g.groupby("user_id", sort=False)["event_type"]:
            prev = "_START"
            for et in seq:
                if et == "purchase":
                    rows[(prev, "_CONV")] = rows.get((prev, "_CONV"), 0) + 1
                    prev = None
                    break
                rows[(prev, et)] = rows.get((prev, et), 0) + 1
                prev = et
            if prev is not None:
                rows[(prev, "_NULL")] = rows.get((prev, "_NULL"), 0) + 1
        if not rows:
            return pd.DataFrame({"src": pd.array([], "str"),
                                 "dst": pd.array([], "str"),
                                 "n": pd.array([], "int64")})
        ks = list(rows)
        return pd.DataFrame({"src": [a for a, _ in ks],
                             "dst": [b for _, b in ks],
                             "n": pd.array(list(rows.values()), "int64")})

    cen = fold_groups(  # ≤ (|types| + 3)² rows
        bucketed_group_map(ev, ["user_id"], census), ["src", "dst"], [("n", "sum")])

    channels = sorted((set(cen["src"]) | set(cen["dst"]))
                      - {"_START", "_CONV", "_NULL"})
    states = ["_START"] + channels
    sidx = {s: i for i, s in enumerate(states)}

    def p_conv(removed: str | None) -> float:
        n = len(states)
        T = np.zeros((n, n))
        r_conv = np.zeros(n)
        for src, dst, c in zip(cen["src"], cen["dst"], cen["n"]):
            if src == removed or src not in sidx:
                continue
            if dst == removed:
                continue  # redirected to NULL (absorbed, no conversion)
            if dst == "_CONV":
                r_conv[sidx[src]] += c
            elif dst in sidx:
                T[sidx[src], sidx[dst]] += c
        tot = np.zeros(n)
        for src, dst, c in zip(cen["src"], cen["dst"], cen["n"]):
            if src == removed or src not in sidx:
                continue
            tot[sidx[src]] += c  # removed-dst mass stays in the denominator
        tot = np.where(tot == 0, 1.0, tot)
        P = T / tot[:, None]
        r = r_conv / tot
        # absorption probability: p = (I - P)^-1 r, read at START
        p = np.linalg.solve(np.eye(n) - P, r)
        return float(p[sidx["_START"]])

    base = p_conv(None)
    effects = []
    for c in channels:
        pc = p_conv(c)
        effects.append(max(0.0, 1.0 - (pc / base if base > 0 else 0.0)))
    tot_eff = sum(effects)
    rows = []
    for c, eff in zip(channels, effects):
        share = eff / tot_eff if tot_eff > 0 else 0.0
        rows.append((c, int(np.floor(eff * 1e6 + 0.5)),
                     int(np.floor(share * 1e6 + 0.5))))
    return (pd.DataFrame(rows, columns=["channel", "removal_effect_micro",
                                        "share_micro"])
            .sort_values("channel").reset_index(drop=True)
            .astype({"channel": "str", "removal_effect_micro": "int64",
                     "share_micro": "int64"}))
