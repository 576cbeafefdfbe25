"""Correctness checks.  Each returns a list of problems; empty means correct.

The references are computed apart from the Ray pipeline: the generator's
ground-truth page text, the single-process sequential oracle
(``pipelines/oracle.py``), pandas group-bys of the written triples, and
DuckDB running each query's ``oracle_sql()`` on the same tables.  Tables
are compared with ``compare`` from ``tools/check_correctness.py``, the
repository's reference comparison, so that the benchmark and that tool
apply one policy.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABOO_PREDS = {"禁用人群", "慎用人群"}


def read_dir(path: str, columns: list[str] | None = None) -> pd.DataFrame:
    """Every parquet file under ``path``, in sorted path order."""
    files = sorted(
        os.path.join(r, n)
        for r, _, names in os.walk(path)
        for n in names
        if n.endswith(".parquet")
    )
    if not files:
        return pd.DataFrame(columns=columns)
    return pd.concat(
        [pq.read_table(f, columns=columns).to_pandas() for f in files],
        ignore_index=True,
    )


def _load_reference_compare():
    """``tools/check_correctness.py``: the repository's order-insensitive,
    dtype-strict, float-exact comparison of a result with its reference."""
    path = os.path.join(ROOT, "tools", "check_correctness.py")
    spec = importlib.util.spec_from_file_location("kgbench_check_correctness", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_reference = _load_reference_compare()
compare = _reference.compare
to_pandas = _reference.to_pandas


def digest(df: pd.DataFrame) -> str:
    """Order-insensitive content digest of a table (a sum of row hashes),
    for comparing one round's output with another round's."""
    c = df.reindex(sorted(df.columns), axis=1)
    h = pd.util.hash_pandas_object(c, index=False).to_numpy()
    return hashlib.md5(f"{list(c.columns)}|{len(c)}|{int(h.sum(dtype=np.uint64))}".encode()).hexdigest()


# -- graph tables ---------------------------------------------------------------


def check_graph(triples: pd.DataFrame, nodes_dir: str, edges_dir: str) -> list[str]:
    """Nodes and edges against a pandas group-by of ``triples``, plus the
    content properties any correct finalize has (``check_edge_order``
    checks the row order)."""
    from medical_knowledge_graph_ray.pipelines.oracle import oracle_edges, oracle_nodes

    nodes = read_dir(nodes_dir)
    edges = read_dir(edges_dir)
    t = triples[["subj", "subj_type", "pred", "obj", "obj_type", "prob"]]
    if not nodes["node_id"].is_unique:
        return ["node_id not unique"]
    problems = [f"nodes: {p}" for p in compare("nodes", nodes, oracle_nodes(t))]
    problems += [f"edges: {p}" for p in compare("edges", edges, oracle_edges(t))]
    if int(nodes["n_mentions"].sum()) != 2 * len(t):
        problems.append(f"sum(n_mentions)={int(nodes['n_mentions'].sum())} != 2x{len(t)} triples")
    if int(edges["n_evidence"].sum()) != len(t):
        problems.append(f"sum(n_evidence)={int(edges['n_evidence'].sum())} != {len(t)} triples")
    ids = set(nodes["node_id"])
    if not (set(edges["subj_id"]) <= ids and set(edges["obj_id"]) <= ids):
        problems.append("an edge endpoint is not a node")
    return problems


def check_edge_order(edges_dir: str) -> list[str]:
    """Edges read back (files in path order) sorted by ``subj_id``.  Cheap,
    so it runs on every round: the content digest ignores row order."""
    if read_dir(edges_dir, ["subj_id"])["subj_id"].is_monotonic_increasing:
        return []
    return ["edges do not read back sorted by subj_id"]


# -- kg_build ---------------------------------------------------------------------


def sample_urls(urls, every: int = 40) -> list[str]:
    """Deterministic url-hash sample (about one page in ``every``)."""
    return sorted(
        u for u in set(urls)
        if int(hashlib.md5(u.encode()).hexdigest()[:8], 16) % every == 0
    )


def oracle_triples_for(page_ids: np.ndarray) -> pd.DataFrame:
    """The sequential oracle over exactly ``page_ids``.  ``oracle_triples``
    reads pages ``[0, n)``; its page source is pointed at the given ids."""
    from medical_knowledge_graph_ray.pipelines import oracle
    from medical_knowledge_graph_ray.sources.pages import pages_batch

    saved = oracle.pages_table
    oracle.pages_table = lambda n: pages_batch({"id": page_ids})
    try:
        return oracle.oracle_triples(len(page_ids))
    finally:
        oracle.pages_table = saved


def check_kg_build(pages_dir: str, out_dir: str, oracle_sample: bool = True) -> list[str]:
    """Content checks of a ``run_kg`` output (``check_edge_order`` checks
    the edges' row order)."""
    from medical_knowledge_graph_ray.sources.pages import HOT_HEADS

    problems: list[str] = []
    pages = read_dir(pages_dir, ["url", "text"])
    sents = read_dir(os.path.join(out_dir, "source_info"))
    triples = read_dir(os.path.join(out_dir, "triples"))
    if triples.empty:
        return ["no triples written"]

    # extracted text and sentences: substrings of the ground-truth text
    text_of = dict(zip(pages["url"], pages["text"]))
    bad = sum(1 for u, s in zip(sents["url"], sents["sentence"]) if s not in text_of.get(u, ""))
    if bad:
        problems.append(f"{bad} source_info sentences are not in their page's text")

    j = triples.merge(sents, on=["url", "sent_ord"], how="left", indicator=True)
    if (j["_merge"] != "both").any():
        problems.append(f"{int((j['_merge'] != 'both').sum())} triples have no source sentence")
    j = j[j["_merge"] == "both"]
    implicit = j[j["obj_type"] != "GRP"]
    explicit = j[j["obj_type"] == "GRP"]
    for label, mask in (
        ("subj != head entity", implicit["subj"] != implicit["head_entity"]),
        ("pred != paragraph", implicit["pred"] != implicit["paragraph"]),
        ("obj not in sentence", pd.Series(
            [o not in s for o, s in zip(implicit["obj"], implicit["sentence"])],
            index=implicit.index, dtype=bool)),
        ("prob outside (0, 1]", ~((implicit["prob"] > 0) & (implicit["prob"] <= 1))),
    ):
        if mask.any():
            problems.append(f"implicit triples: {int(mask.sum())} with {label}")
    bad_taboo = ~(explicit["pred"].isin(TABOO_PREDS)
                  & (explicit["subj_type"] == "DRU") & (explicit["obj_type"] == "GRP"))
    if bad_taboo.any():
        problems.append(f"{int(bad_taboo.sum())} malformed explicit taboo triples")
    if explicit.empty:
        problems.append("no explicit taboo triples")

    if oracle_sample:
        urls = sample_urls(pages["url"])
        ids = np.array(sorted(int(u.rsplit("/", 1)[1]) for u in urls), dtype=np.int64)
        want = oracle_triples_for(ids)
        got = triples[triples["url"].isin(set(urls))]
        # the oracle builds sent_ord as int64; TRIPLE_SCHEMA writes int32
        want = want.astype({"sent_ord": got["sent_ord"].dtype})
        # the e2e golden test's equality: probabilities to 9 decimals (the
        # batched and the per-sentence paths differ in the last bits)
        problems += [f"oracle sample triples: {p}" for p in compare(
            "oracle sample triples",
            got.assign(prob=got["prob"].round(9)), want.assign(prob=want["prob"].round(9)),
        )]
        if not (want["pred"] == "TABOO").any() or not want["subj"].isin(HOT_HEADS).any():
            problems.append("oracle sample lacks a TABOO section or a hot head")

    problems += check_graph(triples, os.path.join(out_dir, "nodes"), os.path.join(out_dir, "edges"))
    return problems


def kg_build_digest(out_dir: str) -> str:
    return "|".join(
        digest(read_dir(os.path.join(out_dir, t)))
        for t in ("triples", "source_info", "nodes", "edges")
    )


# -- kg_queries -------------------------------------------------------------------


def duckdb_results(sf_dir: str, names: list[str]) -> dict[str, pd.DataFrame]:
    import duckdb

    import __ray_entry__ as entry

    sql = entry.oracle_sql()
    con = duckdb.connect()
    try:
        for f in sorted(os.listdir(sf_dir)):
            if f.endswith(".parquet"):
                con.execute(
                    f"CREATE VIEW {f[:-8]} AS SELECT * FROM read_parquet('{os.path.join(sf_dir, f)}')"
                )
        return {n: con.execute(sql[n]).df() for n in names}
    finally:
        con.close()
