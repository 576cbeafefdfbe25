"""Seeded input generators.  The same seed always gives the same files.

* ``write_pages``: the ``input_hint`` page corpus for ``kg_build``, built
  from ``sources.pages.pages_batch`` over a seed-chosen page-id range
  (pages are a pure function of their id).  ``generate_pages`` is not used:
  its ``_SUCCESS`` stamp ignores the id range.
* ``write_triples``: a triples checkpoint for ``graph_finalize`` with
  Zipf-skewed subjects and a data-sized object vocabulary.
* ``write_tables``: the TPC-H-like ``region nation customer orders
  lineitem`` tables plus ``events`` and ``documents`` for ``kg_queries``,
  with the column names, dtypes and value domains the query modules and
  their DuckDB oracles expect, at scale factor 0.02.  The distributions
  follow those measured on the sf0.1 test tables with
  ``kgbench/tablestats.py`` (README, "kg_queries tables"): independent
  uniform keys and dates, line items scattered over random orders (about
  4 per order, Poisson), 66.7 events per user, an ``en``-heavy language
  mix, documents spread round-robin over 20 sources and 5% near-duplicate
  documents marked ``dup``.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PAGES = 2_000
PAGES_PER_FILE = 500
TRIPLES = 120_000
TRIPLE_FILES = 4
SUBJECT_VOCAB = 100_000
OBJECT_VOCAB = 1_000_000
ZIPF_A = 1.3


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def page_ids(seed: int, n: int = PAGES) -> np.ndarray:
    """Seed ``s`` reads pages ``[s·n, (s+1)·n)``: disjoint per seed."""
    return np.arange(seed * n, (seed + 1) * n, dtype=np.int64)


def write_pages(seed: int, out_dir: str, n: int = PAGES) -> dict:
    from medical_knowledge_graph_ray.sources.pages import pages_batch

    _fresh(out_dir)
    ids = page_ids(seed, n)
    for k in range(0, n, PAGES_PER_FILE):
        t = pages_batch({"id": ids[k:k + PAGES_PER_FILE]})
        pq.write_table(t, os.path.join(out_dir, f"part-{k // PAGES_PER_FILE:04d}.parquet"))
    return {"pages": n, "first_id": int(ids[0])}


def write_triples(seed: int, out_dir: str, n: int = TRIPLES) -> dict:
    """Triples in ``TRIPLE_SCHEMA``.  Subjects follow a Zipf law over
    ``SUBJECT_VOCAB`` surfaces (a few hot heads carry much of the mass);
    objects are uniform over ``OBJECT_VOCAB`` surfaces, so the node and
    edge key sets grow with the data.  One object surface in ten carries
    a bracketed alias or a case change, which canonicalization must fold
    into the plain surface's node."""
    from medical_knowledge_graph_ray.ontology import RELATIONS
    from medical_knowledge_graph_ray.stages.triples import TRIPLE_SCHEMA

    rng = np.random.default_rng([seed, 7])
    subj_rank = rng.zipf(ZIPF_A, n) % SUBJECT_VOCAB
    subj_perm = rng.permutation(SUBJECT_VOCAB)
    subj_k = subj_perm[subj_rank]
    obj_k = rng.integers(0, OBJECT_VOCAB, n)
    variant = rng.integers(0, 20, n)
    pred_k = rng.integers(0, len(RELATIONS), n)
    prob = np.round(rng.uniform(0.05, 1.0, n), 6)

    subj_types = np.array(["DIS", "DRU"])
    obj_types = np.array(["SYM", "DRU", "CHE", "DIS"])
    subj = pa.array([f"疾病{k:06d}" if k % 2 == 0 else f"药物{k:06d}" for k in subj_k.tolist()])
    obj_base = [f"Ent{k:07d}" for k in obj_k.tolist()]
    obj = [
        s + "（别名）" if v == 0 else s.upper() if v == 1 else s
        for s, v in zip(obj_base, variant.tolist())
    ]
    row = np.arange(n)
    table = pa.table(
        {
            "subj": subj,
            "subj_type": pa.array(subj_types[subj_k % 2]),
            "pred": pa.array(np.array(RELATIONS, dtype=object)[pred_k]),
            "obj": pa.array(obj),
            "obj_type": pa.array(obj_types[obj_k % 4]),
            "prob": pa.array(prob),
            "url": pa.array([f"https://bench.example.org/t/{seed}/{r // 64}" for r in row.tolist()]),
            "sent_ord": pa.array((row % 64).astype(np.int32)),
        },
        schema=TRIPLE_SCHEMA,
    )
    _fresh(out_dir)
    step = -(-n // TRIPLE_FILES)
    for i in range(TRIPLE_FILES):
        pq.write_table(table.slice(i * step, step), os.path.join(out_dir, f"part-{i:04d}.parquet"))
    return {
        "triples": n,
        "distinct_subjects": int(len(np.unique(subj_k))),
        "distinct_objects": int(len(np.unique(obj_k))),
    }


# -- kg_queries tables --------------------------------------------------------

# row counts of the sf0.1 tables scaled by 0.2; key domains that do not
# grow with the scale factor (parts, suppliers, nations) are kept
SCALE = 0.2
CUSTOMERS = int(15_000 * SCALE)
ORDERS = int(150_000 * SCALE)
LINES_PER_ORDER = 4
EVENTS = int(100_000 * SCALE)
USERS = int(1_500 * SCALE)
DOCUMENTS = int(5_000 * SCALE)
DUP_SHARE = 0.05

_DOC_WORDS = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["de", "en", "es", "fr", "zh"]
_LANG_P = [0.14, 0.41, 0.15, 0.15, 0.15]
_DAY_US = 86_400 * 10**6


def _days(start: str, rng, n: int, span_days: int) -> pa.Array:
    base = np.datetime64(start, "D").astype("datetime64[us]").astype(np.int64)
    return pa.array(base + rng.integers(0, span_days, n) * _DAY_US, pa.timestamp("us"))


def write_tables(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 11])
    _fresh(out_dir)
    tables: dict[str, pa.Table] = {}
    tables["region"] = pa.table({
        "r_regionkey": pa.array(np.arange(5, dtype=np.int32)),
        "r_name": pa.array(_REGIONS),
    })
    tables["nation"] = pa.table({
        "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
        "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
        "n_regionkey": pa.array((np.arange(25) % 5).astype(np.int32)),
    })
    ck = np.arange(CUSTOMERS, dtype=np.int64)
    tables["customer"] = pa.table({
        "c_custkey": pa.array(ck),
        "c_name": pa.array([f"Customer#{k:09d}" for k in ck.tolist()]),
        "c_nationkey": pa.array(rng.integers(0, 25, CUSTOMERS).astype(np.int32)),
        "c_acctbal": pa.array(np.round(rng.uniform(-999.99, 9999.99, CUSTOMERS), 2)),
        "c_mktsegment": pa.array(np.array(_SEGMENTS, dtype=object)[rng.integers(0, 5, CUSTOMERS)]),
    })
    ok = np.arange(ORDERS, dtype=np.int64)
    tables["orders"] = pa.table({
        "o_orderkey": pa.array(ok),
        "o_custkey": pa.array(rng.integers(0, CUSTOMERS, ORDERS)),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"], dtype=object)[rng.integers(0, 3, ORDERS)]),
        "o_totalprice": pa.array(np.round(rng.uniform(1000.0, 500000.0, ORDERS), 2)),
        "o_orderdate": _days("1995-01-01", rng, ORDERS, 2405),
        "o_orderpriority": pa.array(np.array(_PRIORITIES, dtype=object)[rng.integers(0, 5, ORDERS)]),
    })
    nl = ORDERS * LINES_PER_ORDER
    tables["lineitem"] = pa.table({
        "l_orderkey": pa.array(rng.integers(0, ORDERS, nl)),
        "l_partkey": pa.array(rng.integers(0, 20_000, nl)),
        "l_suppkey": pa.array(rng.integers(0, 1_000, nl)),
        "l_linenumber": pa.array(rng.integers(1, 8, nl).astype(np.int32)),
        "l_quantity": pa.array(rng.integers(1, 51, nl).astype(np.float64)),
        "l_extendedprice": pa.array(np.round(rng.uniform(900.0, 105000.0, nl), 2)),
        "l_discount": pa.array(rng.integers(0, 11, nl) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, nl) / 100.0),
        "l_returnflag": pa.array(np.array(["A", "N", "R"], dtype=object)[rng.integers(0, 3, nl)]),
        "l_linestatus": pa.array(np.array(["F", "O"], dtype=object)[rng.integers(0, 2, nl)]),
        "l_shipdate": _days("1995-01-02", rng, nl, 2499),
    })
    ts0 = np.datetime64("2024-01-01", "us").astype(np.int64)
    ts = np.sort(ts0 + rng.integers(0, 30 * _DAY_US, EVENTS))
    tables["events"] = pa.table({
        "event_id": pa.array(np.arange(EVENTS, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, USERS, EVENTS)),
        "event_type": pa.array(np.array(_EVENT_TYPES, dtype=object)[rng.integers(0, 5, EVENTS)]),
        "value": pa.array(np.round(rng.exponential(50.0, EVENTS), 2)),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, EVENTS).tolist()]),
    })
    words = np.array(_DOC_WORDS, dtype=object)
    texts = [" ".join(words[rng.integers(0, len(words), int(m))]) for m in rng.integers(10, 101, DOCUMENTS)]
    # near-duplicates: another document's text with " dup" appended
    dups = rng.choice(DOCUMENTS, int(DOCUMENTS * DUP_SHARE), replace=False)
    for d, o in zip(dups.tolist(), rng.integers(0, DOCUMENTS, len(dups)).tolist()):
        texts[d] = texts[o] + " dup"
    doc_id = np.arange(DOCUMENTS, dtype=np.int64)
    tables["documents"] = pa.table({
        "doc_id": pa.array(doc_id),
        "text": pa.array(texts),
        "lang": pa.array(np.array(_LANGS, dtype=object)[rng.choice(5, DOCUMENTS, p=_LANG_P)]),
        "source": pa.array([f"src{k}" for k in (doc_id % 20).tolist()]),
        "n_chars": pa.array(np.array([len(t) for t in texts], dtype=np.int64)),
    })
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return {name: t.num_rows for name, t in tables.items()}
