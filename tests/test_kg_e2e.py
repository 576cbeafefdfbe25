"""End-to-end golden test: Ray pipeline ≡ single-process oracle.

BASELINE.json gate: triple P/R ≥ 0.95 vs the reference semantics (encoded
in the oracle) — on the synthetic corpus the match must be exact — plus
byte-identical extracted text per url.
"""

import json
import os

import pandas as pd
import pytest

from medical_knowledge_graph_ray.pipelines.oracle import (
    oracle_edges,
    oracle_nodes,
    oracle_triples,
)

N_PAGES = 120


TRIPLE_COLS = ["subj", "subj_type", "pred", "obj", "obj_type", "prob", "url",
               "sent_ord"]


def _triple_key(df: pd.DataFrame) -> set:
    return {
        (r.subj, r.pred, r.obj, r.obj_type, r.url, r.sent_ord, r.prob)
        for r in df.itertuples()
    }


@pytest.fixture(scope="module")
def kg_run(ray_session, tmp_path_factory):
    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    root = tmp_path_factory.mktemp("kg")
    corpus = str(root / "pages")
    out = str(root / "out")
    generate_pages(N_PAGES, corpus, num_files=3)
    manifests = run_kg(corpus, out, n_shards=4)
    return corpus, out, manifests


def test_triples_match_oracle_exactly(kg_run):
    _, out, _ = kg_run
    got = pd.read_parquet(os.path.join(out, "triples"))
    want = oracle_triples(N_PAGES)
    got_k, want_k = _triple_key(got), _triple_key(want)
    # exact match on the synthetic corpus (gate is P/R >= 0.95)
    missing, extra = want_k - got_k, got_k - want_k
    assert not missing and not extra, (
        f"precision={1 - len(extra) / max(1, len(got_k)):.4f} "
        f"recall={1 - len(missing) / max(1, len(want_k)):.4f} "
        f"missing={list(missing)[:3]} extra={list(extra)[:3]}"
    )
    # bit-exact on every column, dtypes included
    pd.testing.assert_frame_equal(
        got[TRIPLE_COLS].sort_values(TRIPLE_COLS).reset_index(drop=True),
        want[TRIPLE_COLS].sort_values(TRIPLE_COLS).reset_index(drop=True),
        check_exact=True,
    )


def test_nodes_match_oracle(kg_run):
    _, out, _ = kg_run
    got = (
        pd.read_parquet(os.path.join(out, "nodes"))
        .sort_values("node_id")
        .reset_index(drop=True)
    )
    want = (
        oracle_nodes(oracle_triples(N_PAGES))
        .sort_values("node_id")
        .reset_index(drop=True)
    )
    cols = ["node_id", "canonical_name", "type", "n_mentions", "prob_max"]
    pd.testing.assert_frame_equal(got[cols], want[cols], check_exact=True)


def test_edges_match_oracle_and_sorted(kg_run):
    _, out, _ = kg_run
    got = pd.read_parquet(os.path.join(out, "edges"))
    want = oracle_edges(oracle_triples(N_PAGES))
    # north_rule: edge table sorted by subject
    assert list(got["subj_id"]) == sorted(got["subj_id"])
    g = got.sort_values(["subj_id", "pred", "obj_id"]).reset_index(drop=True)
    w = want.sort_values(["subj_id", "pred", "obj_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        g[["subj_id", "pred", "obj_id", "n_evidence"]],
        w[["subj_id", "pred", "obj_id", "n_evidence"]],
    )


def test_manifests_lineage(kg_run):
    _, out, manifests = kg_run
    for stage in ("nodes", "edges"):
        mpath = os.path.join(out, stage, "_MANIFEST.json")
        assert os.path.exists(mpath)
        with open(mpath) as f:
            m = json.load(f)
        assert m["rows"] == sum(p["rows"] for p in m["partitions"])
        assert m["rows"] > 0
    # triples: per-shard manifests with input-file lineage
    tri = manifests["triples"]
    assert tri["rows"] == sum(s["rows"] for s in tri["shards"]) > 0
    for shard in tri["shards"]:
        assert shard["rows"] == sum(p["rows"] for p in shard["partitions"])


def test_resume_skips_completed_shards(kg_run):
    corpus, out, first = kg_run
    from medical_knowledge_graph_ray.pipelines.kg import run_kg

    shard0 = os.path.join(out, "triples", "shard_0000", "_MANIFEST.json")
    before = os.path.getmtime(shard0)
    second = run_kg(corpus, out, n_shards=4)
    assert os.path.getmtime(shard0) == before  # shard skipped
    assert second["triples"]["rows"] == first["triples"]["rows"]


def test_partition_level_resume_recomputes_only_missing(kg_run):
    corpus, out, first = kg_run
    import shutil

    from medical_knowledge_graph_ray.pipelines.kg import run_kg

    tri_dir = os.path.join(out, "triples")
    shards = sorted(d for d in os.listdir(tri_dir) if d.startswith("shard_"))
    if len(shards) < 2:
        import pytest

        pytest.skip("corpus produced a single shard")
    # destroy one shard; rerun must rebuild exactly it and leave the rest
    victim, survivor = shards[0], shards[1]
    shutil.rmtree(os.path.join(tri_dir, victim))
    survivor_mtime = os.path.getmtime(
        os.path.join(tri_dir, survivor, "_MANIFEST.json")
    )
    second = run_kg(corpus, out, n_shards=4)
    assert os.path.exists(os.path.join(tri_dir, victim, "_MANIFEST.json"))
    assert os.path.getmtime(
        os.path.join(tri_dir, survivor, "_MANIFEST.json")
    ) == survivor_mtime
    assert second["triples"]["rows"] == first["triples"]["rows"]


def test_corpus_regeneration_invalidates_checkpoints(ray_session, tmp_path_factory):
    """Content-aware fingerprints: regenerating the corpus in place must
    recompute every shard (a path-only fingerprint returned stale data)."""
    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    root = tmp_path_factory.mktemp("stale")
    corpus, out = str(root / "pages"), str(root / "out")
    generate_pages(40, corpus, num_files=1)
    first = run_kg(corpus, out, n_shards=2)
    # regenerate with different content (different page count) in place
    generate_pages(60, corpus, num_files=1, overwrite=True)
    second = run_kg(corpus, out, n_shards=2)
    assert second["triples"]["rows"] != first["triples"]["rows"]
    # and the outputs reflect the NEW corpus
    import pandas as pd

    tri = pd.read_parquet(f"{out}/triples")
    assert tri["url"].nunique() > 35  # 60-page corpus minus en pages


def test_source_info_lineage_table(ray_session, tmp_path):
    """source_info (clean_and_save.py:561-597): one row per sentence,
    sorted by (url, sent_ord), written alongside nodes/edges."""
    import pandas as pd

    from medical_knowledge_graph_ray.pipelines.kg import (
        run_kg,
        sentences_dataset,
    )
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    corpus = generate_pages(120, str(tmp_path / "pages"))
    m = run_kg(corpus, str(tmp_path / "out"), n_shards=2)
    assert "source_info" in m and m["source_info"]["rows"] > 0
    import glob

    si = pd.read_parquet(tmp_path / "out" / "source_info")
    assert list(si.columns) == [
        "url", "sent_ord", "sentence", "head_entity", "head_type", "paragraph"
    ]
    # sorted within every file (global order is the query's job)
    for f in glob.glob(str(tmp_path / "out" / "source_info" / "*" / "*.parquet")):
        part = pd.read_parquet(f)
        key = list(zip(part["url"], part["sent_ord"]))
        assert key == sorted(key)
    # covers every sentence, including triple-less ones
    n_sents = sentences_dataset(corpus).count()
    assert len(si) == n_sents
    assert not si.duplicated(["url", "sent_ord"]).any()


def test_source_info_shard_resume_independent(ray_session, tmp_path):
    """Deleting one source_info shard and rerunning rebuilds ONLY it —
    and never re-WRITES the completed triples shards (independent
    per-stage resume state)."""
    import os
    import shutil

    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    corpus = generate_pages(100, str(tmp_path / "pages"))
    out = str(tmp_path / "out")
    m1 = run_kg(corpus, out, n_shards=4)
    tri_mtimes = {
        i: os.path.getmtime(os.path.join(out, "triples", f"shard_{i:04d}", "_MANIFEST.json"))
        for i in range(4)
    }
    shutil.rmtree(os.path.join(out, "source_info", "shard_0001"))
    m2 = run_kg(corpus, out, n_shards=4)
    assert m2["source_info"]["rows"] == m1["source_info"]["rows"]
    assert m2["triples"]["rows"] == m1["triples"]["rows"]
    for i in range(4):
        assert os.path.getmtime(
            os.path.join(out, "triples", f"shard_{i:04d}", "_MANIFEST.json")
        ) == tri_mtimes[i]


def test_audit_detects_tampering(ray_session, tmp_path):
    """north_rule audit half: a clean run audits ok; a truncated partition
    and an orphan file are both flagged."""
    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages
    from medical_knowledge_graph_ray.state.manifests import audit_run

    corpus = generate_pages(80, str(tmp_path / "pages"))
    out = str(tmp_path / "out")
    run_kg(corpus, out, n_shards=2)
    clean = audit_run(out)
    assert clean["ok"], clean
    assert set(clean["stages"]) == {"triples", "source_info", "nodes", "edges"}

    # tamper: truncate one triples partition, drop an orphan next to nodes
    import glob

    victim = sorted(glob.glob(f"{out}/triples/shard_*/*.parquet"))[0]
    with open(victim, "r+b") as f:
        f.truncate(100)
    with open(f"{out}/nodes/orphan-xyz.parquet", "wb") as f:
        f.write(b"not parquet")
    dirty = audit_run(out)
    assert not dirty["ok"]
    blob = "\n".join(
        i for s in dirty["stages"].values() for i in s["issues"]
    )
    assert "ORPHAN" in blob
    assert ("unreadable footer" in blob) or ("size" in blob)


def test_merge_graph_runs_equals_single_run(ray_session, tmp_path):
    """Incremental append invariant: run_kg on two disjoint corpus halves
    + merge_graph_runs == run_kg on the whole corpus, EXACTLY (node/edge
    aggregation is associative over content-hash keys)."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from medical_knowledge_graph_ray.pipelines.kg import merge_graph_runs, run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    corpus = generate_pages(160, str(tmp_path / "pages_all"))
    # split the corpus into two halves by url hash (simulating an initial
    # crawl + a later delta slice)
    full = pq.read_table(corpus)
    urls = full.column("url").to_pandas()
    import pyarrow as pa

    mask = (pd.util.hash_pandas_object(urls, index=False) % 2 == 0).to_numpy()
    for name, m in (("a", mask), ("b", ~mask)):
        d = tmp_path / f"pages_{name}"
        os.makedirs(d)
        pq.write_table(full.filter(pa.array(m)), str(d / "part-0.parquet"))

    run_kg(corpus, str(tmp_path / "out_all"), n_shards=2)
    run_kg(str(tmp_path / "pages_a"), str(tmp_path / "out_a"), n_shards=2)
    run_kg(str(tmp_path / "pages_b"), str(tmp_path / "out_b"), n_shards=2)
    merged = merge_graph_runs(
        [str(tmp_path / "out_a"), str(tmp_path / "out_b")],
        str(tmp_path / "out_merged"),
    )
    assert merged["nodes"]["rows"] > 0 and merged["edges"]["rows"] > 0

    for table, key in (("nodes", ["node_id"]), ("edges", ["subj_id", "pred", "obj_id"])):
        want = (
            pd.read_parquet(tmp_path / "out_all" / table)
            .sort_values(key).reset_index(drop=True)
        )
        got = (
            pd.read_parquet(tmp_path / "out_merged" / table)
            .sort_values(key).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.sort_index(axis=1), want.sort_index(axis=1)
        )

    # resume: a second merge with unchanged inputs is a manifest no-op
    again = merge_graph_runs(
        [str(tmp_path / "out_a"), str(tmp_path / "out_b")],
        str(tmp_path / "out_merged"),
    )
    assert again["edges"]["rows"] == merged["edges"]["rows"]


def test_active_learning_seeds(ray_session, tmp_path, monkeypatch):
    """Seed selection is deterministic, capped at n, sorted by descending
    disagreement, and scores sentences in [0, 1]."""
    from medical_knowledge_graph_ray.pipelines import kg

    # point corpus_for_sf's cache at a tmp corpus of 80 pages
    monkeypatch.setitem(kg.PAGES_PER_SF, "sfseed", 80)
    out1 = kg.active_learning_seeds(
        str(tmp_path / "sfseed"), n=25
    ).to_pandas()
    assert len(out1) == 25
    assert (out1["disagreement"].to_numpy() >= 0).all()
    assert (out1["disagreement"].to_numpy() <= 1.0).all()
    d = out1["disagreement"].to_numpy()
    assert (d[:-1] >= d[1:]).all()  # descending
    out2 = kg.active_learning_seeds(str(tmp_path / "sfseed"), n=25).to_pandas()
    pd.testing.assert_frame_equal(out1, out2)
