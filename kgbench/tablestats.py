"""The distribution properties of a ``kg_queries`` table directory that
decide how much the query modules' exchanges and pre-aggregations shrink.

    python3 kgbench/tablestats.py <tables_dir> [<tables_dir> ...]

Run it on a TPC-H-like sf0.1 directory and on the generator's output
(``.kgbench/inputs/tables`` after a ``kg_queries`` run) to compare the two;
the README lists both.  Apart from the row and user counts, which grow
with the scale factor, every property is a share, a mean, a spread or a
fixed key domain, so that directories of different scale factors compare
directly.
"""

from __future__ import annotations

import json
import os
import sys

_PROPS = {
    # lineitem -> orders: lines per order and their placement
    "lines_per_order.mean": "select count(*) / (select count(*) from orders) from lineitem",
    "orders_without_lines.share": """select 1 - count(distinct l_orderkey) / (select count(*) from orders)
        from lineitem""",
    "lines_per_order.p99": """select quantile_disc(n, 0.99) from
        (select count(*) n from lineitem group by l_orderkey)""",
    "lineitem.orderkey_descents.share": """select avg((l_orderkey < p)::int) from
        (select l_orderkey, lag(l_orderkey) over () p from lineitem) where p is not null""",
    "orderdate_to_shipdate_days.mean": """select avg(datediff('day', o_orderdate, l_shipdate))
        from lineitem join orders on l_orderkey = o_orderkey""",
    "orderdate_to_shipdate_days.corr": """select corr(epoch(o_orderdate), epoch(l_shipdate))
        from lineitem join orders on l_orderkey = o_orderkey""",
    "orderdate.span_days": "select datediff('day', min(o_orderdate), max(o_orderdate)) from orders",
    "shipdate.span_days": "select datediff('day', min(l_shipdate), max(l_shipdate)) from lineitem",
    "orderdate.distinct_days": "select count(distinct o_orderdate) from orders",
    # orders -> customer
    "orders_per_customer.mean": "select count(*) / (select count(*) from customer) from orders",
    "orders_per_customer.cv": """select stddev_pop(n) / avg(n) from
        (select count(*) n from orders group by o_custkey)""",
    "orderkey.sorted": """select (count(*) = 0)::int from
        (select o_orderkey, lag(o_orderkey) over () p from orders) where o_orderkey < p""",
    "o_orderstatus.top_share": """select max(n) / sum(n) from
        (select count(*) n from orders group by o_orderstatus)""",
    "c_mktsegment.top_share": """select max(n) / sum(n) from
        (select count(*) n from customer group by c_mktsegment)""",
    "c_nationkey.distinct": "select count(distinct c_nationkey) from customer",
    "l_returnflag_linestatus.groups": """select count(*) from
        (select distinct l_returnflag, l_linestatus from lineitem)""",
    "l_discount.mean": "select avg(l_discount) from lineitem",
    "l_extendedprice.mean": "select avg(l_extendedprice) from lineitem",
    # events
    "events.users": "select count(distinct user_id) from events",
    "events_per_user.cv": """select stddev_pop(n) / avg(n) from
        (select count(*) n from events group by user_id)""",
    "events_per_user.mean": """select avg(n) from
        (select count(*) n from events group by user_id)""",
    "event_type.top_share": """select max(n) / sum(n) from
        (select count(*) n from events group by event_type)""",
    "events.value.mean": "select avg(value) from events",
    "events.value.median": "select median(value) from events",
    "events.ts_sorted": """select (count(*) = 0)::int from
        (select ts, lag(ts) over () p from events) where ts < p""",
    "events.span_days": "select datediff('day', min(ts), max(ts)) from events",
    # documents
    "documents.words.mean": "select avg(len(string_split(text, ' '))) from documents",
    "documents.words.min": "select min(len(string_split(text, ' '))) from documents",
    "documents.words.max": "select max(len(string_split(text, ' '))) from documents",
    "documents.vocabulary": """select count(distinct w) from
        (select unnest(string_split(text, ' ')) w from documents)""",
    "documents.top_word_share": """select max(n) / sum(n) from (select count(*) n from
        (select unnest(string_split(text, ' ')) w from documents) group by w)""",
    "documents.lang_top_share": """select max(n) / sum(n) from
        (select count(*) n from documents group by lang)""",
    "documents.sources": "select count(distinct source) from documents",
    "documents.source_top_share": """select max(n) / sum(n) from
        (select count(*) n from documents group by source)""",
}


def term_hit_rate(con) -> dict:
    """Gazetteer terms per document and the share of documents with one,
    as ``kg_doc_mentions`` counts them."""
    from medical_knowledge_graph_ray.pipelines import docs_kg

    m = con.execute(docs_kg.mentions_sql()).df()
    docs = con.execute("select count(*) from documents").fetchone()[0]
    return {
        "documents.mentions_per_doc": float(m["n_occ"].sum()) / docs,
        "documents.with_mention.share": m["doc_id"].nunique() / docs,
        "documents.distinct_terms": int(m["term"].nunique()),
    }


def table_stats(tables_dir: str) -> dict:
    import duckdb

    con = duckdb.connect()
    try:
        for f in sorted(os.listdir(tables_dir)):
            if f.endswith(".parquet"):
                con.execute(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                            f"read_parquet('{os.path.join(tables_dir, f)}')")
        out = {"rows." + t: con.execute(f"select count(*) from {t}").fetchone()[0]
               for t in ("customer", "orders", "lineitem", "events", "documents")}
        for k, sql in _PROPS.items():
            v = con.execute(sql).fetchone()[0]
            out[k] = round(float(v), 4)
        out.update({k: round(v, 4) for k, v in term_hit_rate(con).items()})
        return out
    finally:
        con.close()


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    dirs = sys.argv[1:]
    if not dirs:
        print(__doc__, file=sys.stderr)
        return 2
    stats = {d: table_stats(d) for d in dirs}
    keys = list(next(iter(stats.values())))
    width = max(map(len, keys))
    print(f"{'property':{width}s}  " + "  ".join(f"{os.path.basename(os.path.normpath(d)):>12s}" for d in dirs))
    for k in keys:
        print(f"{k:{width}s}  " + "  ".join(f"{stats[d][k]:12.4f}" for d in dirs))
    print(json.dumps(stats), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
