"""Parallelism-invariance: the triple set must be identical at any batch
size / block structure (SURVEY §4 Ordering — the whole point
of content-stable keys and batch-local semantics)."""

from unittest import mock

import pandas as pd
import pytest


def _triples(corpus, batch_size, blocks=None):
    from medical_knowledge_graph_ray.pipelines import kg

    pages = kg.pages_dataset(corpus)
    if blocks:
        pages = pages.repartition(blocks)
    with mock.patch.object(kg, "NER_BATCH_SIZE", batch_size):
        ds = kg.triples_dataset(pages)
    df = ds.to_pandas()
    return (
        df.sort_values(["url", "sent_ord", "pred", "obj", "obj_type"], kind="mergesort")
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def small_corpus(ray_session, tmp_path_factory):
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    root = tmp_path_factory.mktemp("inv")
    return generate_pages(80, str(root / "pages"))


def test_triples_invariant_to_batching(small_corpus):
    base = _triples(small_corpus, 512)
    tiny_batches = _triples(small_corpus, 16)
    pd.testing.assert_frame_equal(base, tiny_batches)


def test_triples_invariant_to_blocks(small_corpus):
    base = _triples(small_corpus, 512)
    other = _triples(small_corpus, 128, blocks=7)
    pd.testing.assert_frame_equal(base, other)


def test_ner_eval_invariant_to_batching(small_corpus):
    """The MUC count aggregation is associative: identical evaluation at
    any batch size / block structure."""
    from medical_knowledge_graph_ray.pipelines.kg import sentences_dataset
    from medical_knowledge_graph_ray.stages.muc_eval import ner_eval_dataset

    def run(batch_size, blocks=None):
        sents = sentences_dataset(small_corpus)
        if blocks:
            sents = sents.repartition(blocks)
        df = ner_eval_dataset(sents, batch_size=batch_size)
        return df.sort_values(["model", "ent_type", "schema"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(run(2048), run(64, blocks=5))


def test_fused_finalize_invariant_to_buckets_and_matches_oracle(
    small_corpus, tmp_path_factory
):
    """finalize_graph_write must emit VALUE-identical nodes/edges tables
    at any bucket count, equal to the single-process oracle over the same
    triples — and the edges table must read globally sorted by subj_id
    straight off the range-ordered part files (north_rule, no sort
    operator)."""
    import os

    from medical_knowledge_graph_ray.pipelines.kg import pages_dataset, triples_dataset
    from medical_knowledge_graph_ray.pipelines.oracle import oracle_edges, oracle_nodes
    from medical_knowledge_graph_ray.stages.canonicalize import finalize_graph_write

    tri = triples_dataset(pages_dataset(small_corpus)).materialize()
    tri_df = tri.to_pandas()
    want_n = oracle_nodes(tri_df).sort_values("node_id").reset_index(drop=True)
    want_e = (
        oracle_edges(tri_df)
        .sort_values(["subj_id", "pred", "obj_id"])
        .reset_index(drop=True)
    )
    for nb in (3, 16):
        root = str(tmp_path_factory.mktemp(f"fused{nb}"))
        nd, ed = os.path.join(root, "nodes"), os.path.join(root, "edges")
        m_nodes, m_edges = finalize_graph_write(
            tri, nd, ed, f"test-fp-{nb}", num_buckets=nb
        )
        got_n = pd.read_parquet(nd)
        got_e = pd.read_parquet(ed)
        assert m_nodes["rows"] == len(got_n) and m_edges["rows"] == len(got_e)
        assert list(got_e["subj_id"]) == sorted(got_e["subj_id"])
        pd.testing.assert_frame_equal(
            got_n.sort_values("node_id").reset_index(drop=True), want_n
        )
        pd.testing.assert_frame_equal(got_e, want_e)


def test_finalize_keeps_names_that_differ_after_nul(ray_session, tmp_path):
    """Two nodes whose names share a prefix up to a NUL, in ONE bucket:
    each must keep its own name and its own id (pandas object hashing
    merges such strings)."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.canonicalize import (
        finalize_graph_write,
        node_id,
    )
    from medical_knowledge_graph_ray.stages.triples import TRIPLE_SCHEMA

    subj = ["a\x00b", "a\x00c"]
    tri = pa.table(
        {"subj": subj, "subj_type": ["DIS"] * 2, "pred": ["rel"] * 2,
         "obj": ["x"] * 2, "obj_type": ["DRU"] * 2, "prob": [0.5, 0.7],
         "url": ["u"] * 2, "sent_ord": [0, 1]},
        schema=TRIPLE_SCHEMA,
    )
    nd, ed = os.path.join(tmp_path, "nodes"), os.path.join(tmp_path, "edges")
    finalize_graph_write(rd.from_arrow(tri), nd, ed, "nul", num_buckets=1)
    nodes = pd.read_parquet(nd)
    assert dict(zip(nodes["node_id"], nodes["canonical_name"])) == {
        node_id("a\x00b", "DIS"): "a\x00b",
        node_id("a\x00c", "DIS"): "a\x00c",
        node_id("x", "DRU"): "x",
    }
    edges = pd.read_parquet(ed)
    assert sorted(edges["subj_id"]) == sorted(node_id(s, "DIS") for s in subj)


def test_finalize_and_oracle_keep_preds_that_differ_after_nul(
    ray_session, tmp_path
):
    """Two triples with the same endpoints whose preds share a prefix up
    to a NUL are two edges, in the finalize (one bucket) and in the
    oracle alike (pandas object hashing merges such strings)."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from medical_knowledge_graph_ray.pipelines.oracle import oracle_edges
    from medical_knowledge_graph_ray.stages.canonicalize import (
        finalize_graph_write,
        node_id,
    )
    from medical_knowledge_graph_ray.stages.triples import TRIPLE_SCHEMA

    preds = ["rel\x00a", "rel\x00b"]
    tri = pa.table(
        {"subj": ["s"] * 2, "subj_type": ["DIS"] * 2, "pred": preds,
         "obj": ["x"] * 2, "obj_type": ["DRU"] * 2, "prob": [0.5, 0.7],
         "url": ["u"] * 2, "sent_ord": [0, 1]},
        schema=TRIPLE_SCHEMA,
    )
    want = {(node_id("s", "DIS"), p, node_id("x", "DRU")): (w, 1)
            for p, w in zip(preds, [0.5, 0.7])}
    nd, ed = os.path.join(tmp_path, "nodes"), os.path.join(tmp_path, "edges")
    finalize_graph_write(rd.from_arrow(tri), nd, ed, "nul-pred", num_buckets=1)
    for edges in (pd.read_parquet(ed), oracle_edges(tri.to_pandas())):
        got = {(r.subj_id, r.pred, r.obj_id): (r.weight, r.n_evidence)
               for r in edges.itertuples()}
        assert len(edges) == 2 and got == want


def test_bucketed_ops_survive_extreme_key_skew(ray_session):
    """90% of rows on ONE key: hash_join and bucketed_group_map must stay
    correct (the hot bucket simply does more vectorized work)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join
    from medical_knowledge_graph_ray.stages.shuffle import bucketed_group_map

    rng = np.random.RandomState(9)
    n = 20_000
    keys = np.where(rng.rand(n) < 0.9, 7, rng.randint(0, 500, n)).astype("int64")
    left = pd.DataFrame({"k": keys, "v": rng.randint(0, 100, n).astype("int64")})
    right = pd.DataFrame({"k": np.arange(0, 500, dtype="int64"),
                          "w": np.arange(0, 500, dtype="int64") * 10})

    agg = (
        bucketed_group_map(
            rd.from_pandas(left), ["k"],
            lambda g: g.groupby("k", sort=False)["v"].sum().reset_index(),
            num_buckets=8,
        )
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    exp = left.groupby("k")["v"].sum().reset_index()
    pd.testing.assert_frame_equal(agg, exp)

    j = (
        hash_join(
            rd.from_pandas(left), rd.from_pandas(right), on=["k"],
            left_schema=pa.schema([("k", pa.int64()), ("v", pa.int64())]),
            right_schema=pa.schema([("k", pa.int64()), ("w", pa.int64())]),
        )
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    exp_j = left.merge(right, on="k").sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(j[["k", "v", "w"]], exp_j[["k", "v", "w"]])


def test_chunk_dedup_parallelism_invariant(ray_session):
    """docs_chunk_dedup over the sf0.001 corpus is identical at 1 vs
    default block parallelism (ownership is content-defined, not
    arrival-order-defined)."""
    import ray.data as rd

    from medical_knowledge_graph_ray.pipelines.docs import docs_chunk_dedup

    base = (
        docs_chunk_dedup("/root/testdata/sf0.001")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    import pandas as pd
    import pyarrow.parquet as pq
    import tempfile, os

    # single-block variant: rewrite the corpus as ONE row group/file
    df = pq.read_table("/root/testdata/sf0.001/documents.parquet").to_pandas()
    with tempfile.TemporaryDirectory() as td:
        import pyarrow as pa

        pq.write_table(
            pa.Table.from_pandas(df), os.path.join(td, "documents.parquet"),
            row_group_size=len(df),
        )
        one = (
            docs_chunk_dedup(td)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(base, one)


def test_prefix_jaccard_invariant_to_buckets(ray_session):
    """prefix_jaccard_pairs emits the identical exact pair set at any
    bucket count (candidate generation may route pairs through different
    prefix-gram groups; the verify + distinct make the result
    partitioning-free).  Truth vs the brute-force self-join is pinned by
    the docs_jaccard_prefix oracle test."""
    import pandas as pd

    from medical_knowledge_graph_ray.functions.arrow import arrow_out
    from medical_knowledge_graph_ray.pipelines.docs import (
        PFX_GRAM_K,
        _docs,
        _token_gram_hashes,
    )
    from medical_knowledge_graph_ray.stages.dedup import prefix_jaccard_pairs

    def gram_sets(b):
        dids, _pos, h = _token_gram_hashes(b, PFX_GRAM_K)
        return pd.DataFrame(
            {"doc_id": pd.array(dids, "int64"), "h": pd.array(h, "uint64")}
        ).drop_duplicates()

    def run(num_buckets):
        grams = _docs("/root/testdata/sf0.001", ["doc_id", "text"]).map_batches(
            arrow_out(gram_sets), batch_format="pandas"
        )
        return (
            prefix_jaccard_pairs(grams, num_buckets=num_buckets)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(run(4), run(64))


def test_minhash_pairs_batch_invariance(ray_session):
    """docs_minhash_pairs signatures are doc-local mins of seeded md5s,
    so the pair set is identical whether docs arrive one per batch or
    all in one block (truth vs the seeded-md5 SQL mirror is pinned by
    the docs_minhash_pairs oracle test).  Exercises the reduceat doc-
    boundary math on single-row batches."""
    import os
    import tempfile

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from medical_knowledge_graph_ray.pipelines.docs import docs_minhash_pairs

    src = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas().head(120)

    def run(row_group_size):
        with tempfile.TemporaryDirectory() as td:
            pq.write_table(
                pa.Table.from_pandas(src),
                os.path.join(td, "documents.parquet"),
                row_group_size=row_group_size,
            )
            return (
                docs_minhash_pairs(td)
                .to_pandas()
                .sort_values(["doc_a", "doc_b"])
                .reset_index(drop=True)
            )

    pd.testing.assert_frame_equal(run(1), run(len(src)))


def test_spearman_matches_rank_pearson(ray_session):
    """lineitem_spearman's integer-moment rho equals the classical
    rank-then-Pearson computation (pandas average ranks) to 1e-9."""
    import math

    import pandas as pd
    import pyarrow.parquet as pq

    from medical_knowledge_graph_ray.pipelines.relational import lineitem_spearman

    got = lineitem_spearman("/root/testdata/sf0.001")
    assert len(got) == 1
    li = pq.read_table(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_quantity", "l_discount"],
    ).to_pandas()
    rho = li["l_quantity"].rank().corr(li["l_discount"].rank())
    assert abs(got["rho_micro"].iloc[0] - math.floor(rho * 1e6 + 0.5)) <= 1
    # the 2-rank sums obey the closed form Σ2r = n(n+1)
    n = int(got["n"].iloc[0])
    assert n == len(li)


def test_auto_join_broadcast_matches_partitioned(ray_session):
    import pandas as pd
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import auto_join, hash_join

    import pyarrow as pa

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "a": [10, 20, 21, 30, 50]})
    right = pd.DataFrame({"k": [1, 2, 4], "b": ["x", "y", "z"]})
    lds = rd.from_arrow(pa.Table.from_pandas(left))
    rds = rd.from_arrow(pa.Table.from_pandas(right))

    for how in ("inner", "left", "semi", "anti"):
        want = (hash_join(lds, rds, ["k"], how=how).to_pandas()
                .sort_values(list(left.columns[:1]) + ["a"])
                .reset_index(drop=True))
        got_b = (auto_join(lds, rds, ["k"], how=how, broadcast_rows=100)
                 .to_pandas())
        got_p = (auto_join(lds, rds, ["k"], how=how, broadcast_rows=0)
                 .to_pandas())
        for got in (got_b, got_p):
            g = got.sort_values(["k", "a"]).reset_index(drop=True)
            w = want.sort_values(["k", "a"]).reset_index(drop=True)
            assert sorted(g.columns) == sorted(w.columns), how
            pd.testing.assert_frame_equal(
                g[sorted(g.columns)], w[sorted(w.columns)],
                check_dtype=False), how
