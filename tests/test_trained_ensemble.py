"""M2 closure gates: the TRAINED perceptron tagger as a real voting
member of the flagship ensemble.

What is pinned:
* train→eval→configure loop is checkpointed and deterministic;
* batch path ≡ per-sentence path with the trained member resident;
* e2e triple P/R of the trained-ensemble graph vs the default-ensemble
  graph ≥ 0.95 (the VERDICT done-bar; exact-span corroboration gate);
* parallelism invariance: the trained-config triple set is identical
  under different shard counts / batch sizes;
* the trained member actually contributes (mention rows + support).
"""

import glob
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

sys.path.insert(0, "/root/repo")

N_PAGES = 120
ROUNDS = 3


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    return generate_pages(
        N_PAGES, str(tmp_path_factory.mktemp("trained_corpus"))
    )


@pytest.fixture(scope="module")
def model_dir(corpus, tmp_path_factory):
    from medical_knowledge_graph_ray.pipelines.ner_train import (
        ensure_trained_tagger,
    )

    root = str(tmp_path_factory.mktemp("models"))
    return ensure_trained_tagger(corpus, model_root=root, rounds=ROUNDS)


def _triples(root: str) -> pd.DataFrame:
    fs = sorted(glob.glob(f"{root}/triples/shard_*/*.parquet"))
    return pd.concat([pd.read_parquet(f) for f in fs], ignore_index=True)


def _tri_key_set(df: pd.DataFrame) -> set:
    return set(
        map(tuple, df[["subj", "pred", "obj", "url", "sent_ord"]]
            .itertuples(index=False))
    )


def test_ensure_trained_tagger_checkpoints(corpus, model_dir):
    """Second call returns the same artifact without retraining."""
    import json
    import os
    import time

    from medical_knowledge_graph_ray.pipelines.ner_train import (
        ensure_trained_tagger,
    )

    t0 = time.perf_counter()
    again = ensure_trained_tagger(
        corpus, model_root=os.path.dirname(model_dir), rounds=ROUNDS
    )
    assert again == model_dir
    assert time.perf_counter() - t0 < 0.5  # manifest read only
    with open(os.path.join(model_dir, "model.json")) as fh:
        meta = json.load(fh)
    assert meta["nnz"] > 0 and meta["learning_curve"]


def test_trained_member_batch_equals_per_sentence(model_dir):
    """The vectorized batch path must agree with the per-sentence oracle
    path mention-for-mention with the trained member resident (the \\x00
    joiner IS the featurizer's boundary mask — see TrainedMember)."""
    from medical_knowledge_graph_ray.stages.ner import EnsembleNER
    from medical_knowledge_graph_ray.stages.perceptron import load_tagger

    ner = EnsembleNER(trained_weights=load_tagger(model_dir))
    assert ner.members[-1].name == "trained" and ner.num_models == 4
    sents = [
        "患者出现发热和咳嗽",
        "可使用阿司匹林治疗",
        "见上",
        "慢性心力衰竭患者慎用",
        "主要表现为胸痛、呼吸困难及水肿",
        "首选二甲双胍联合胰岛素",
    ]
    batch = pa.table(
        {
            "url": [f"u{i}" for i in range(len(sents))],
            "sent_ord": pa.array(range(len(sents)), pa.int32()),
            "sentence": sents,
            "head_entity": ["糖尿病"] * len(sents),
            "head_type": ["DIS"] * len(sents),
            "paragraph": ["clinical"] * len(sents),
        }
    )
    got = ner(batch).to_pandas()
    want = []
    for i, s in enumerate(sents):
        for (model, ent, ety, st, en, p1, p2, p3, p4, k) in ner._sentence_mentions(s):
            want.append((f"u{i}", i, model, ent, ety, st, en,
                         round(p1, 12), round(p2, 12), round(p3, 12),
                         round(p4, 12), k))
    got_rows = [
        (r.url, r.sent_ord, r.model, r.ent_name, r.ent_type, r.start, r.end,
         round(r.prob_strict, 12), round(r.prob_partial, 12),
         round(r.prob_exact, 12), round(r.prob_type, 12), r.n_models)
        for r in got.itertuples()
    ]
    assert sorted(got_rows) == sorted(want)


def test_trained_member_contributes(corpus, model_dir):
    """The trained member emits corroborated mention rows AND raises
    strong-span support (n_models reaches the 4-member ensemble) — it is
    a real voting member, not dead config."""
    import ray

    from medical_knowledge_graph_ray.config import EngineConfig
    from medical_knowledge_graph_ray.pipelines.kg import (
        MentionStage,
        sentences_dataset,
    )

    stage = MentionStage(config=EngineConfig(trained_model_dir=model_dir))
    sents = sentences_dataset(corpus).limit(400).to_pandas()
    batch = pa.Table.from_pandas(sents, preserve_index=False)
    mentions = stage.ner(batch).to_pandas()
    assert (mentions["model"] == "trained").sum() > 0
    strong = mentions[mentions["model"] == "ensemble_strong"]
    assert int(strong["n_models"].max()) >= 3  # trained raises support


def test_trained_flagship_pr_vs_default_oracle(corpus, model_dir, tmp_path):
    """THE done-bar: e2e triple P/R of the trained-ensemble graph vs the
    default-ensemble graph ≥ 0.95 (exact-span corroboration keeps the
    tagger's boundary errors out of the graph)."""
    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.pipelines.ner_train import (
        trained_kg_config,
    )

    cfg = trained_kg_config(corpus, rounds=ROUNDS)
    assert cfg.trained_model_dir  # trained via the same checkpoint root?
    run_kg(corpus, str(tmp_path / "trained"), n_shards=2, config=cfg)
    run_kg(corpus, str(tmp_path / "default"), n_shards=2)
    a = _tri_key_set(_triples(str(tmp_path / "trained")))
    b = _tri_key_set(_triples(str(tmp_path / "default")))
    inter = len(a & b)
    p, r = inter / len(a), inter / len(b)
    assert p >= 0.95 and r >= 0.95, (p, r)


def test_trained_config_parallelism_invariance(corpus, model_dir, tmp_path,
                                               monkeypatch):
    """Identical triple sets under different shard counts and NER batch
    sizes — the trained decode is a pure function of (weights, sentence)
    and the corroboration gate is batch-local."""
    from medical_knowledge_graph_ray.config import EngineConfig
    from medical_knowledge_graph_ray.pipelines import kg

    cfg = EngineConfig(trained_model_dir=model_dir)
    monkeypatch.setattr(kg, "NER_BATCH_SIZE", 64)
    kg.run_kg(corpus, str(tmp_path / "a"), n_shards=2, config=cfg)
    monkeypatch.setattr(kg, "NER_BATCH_SIZE", 512)
    kg.run_kg(corpus, str(tmp_path / "b"), n_shards=5, config=cfg)
    ta = _triples(str(tmp_path / "a"))
    tb = _triples(str(tmp_path / "b"))
    cols = ["subj", "pred", "obj", "url", "sent_ord", "prob"]
    sa = ta[cols].sort_values(cols).reset_index(drop=True)
    sb = tb[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(sa, sb)


def test_trained_config_fingerprint_invalidates(corpus, model_dir, tmp_path):
    """A trained-model config must not reuse default-config checkpoints
    (and retrained weights in the same dir must invalidate too)."""
    from medical_knowledge_graph_ray.config import EngineConfig
    from medical_knowledge_graph_ray.pipelines.kg import _config_fingerprint

    default = _config_fingerprint(None)
    with_model = _config_fingerprint(
        EngineConfig(trained_model_dir=model_dir)
    )
    assert with_model != default
    # eval_override is semantic as well
    ev = {"a": {"DIS": [0.9, 0.9, 0.9, 0.9]}}
    assert _config_fingerprint(EngineConfig(eval_override=ev)) != default
