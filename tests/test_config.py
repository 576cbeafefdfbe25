"""EngineConfig surface (§2.12): switches, model registry, fingerprints."""

import json

import pyarrow as pa
import pytest

from medical_knowledge_graph_ray.config import EngineConfig
from medical_knowledge_graph_ray.pipelines.kg import (
    MentionStage,
    _config_fingerprint,
)
from medical_knowledge_graph_ray.stages.ner import EnsembleNER


def _sent_batch(sents):
    n = len(sents)
    return pa.table({
        "url": [f"u{i}" for i in range(n)],
        "sent_ord": pa.array(range(n), pa.int32()),
        "sentence": sents,
        "head_entity": ["糖尿病"] * n,
        "head_type": ["DIS"] * n,
        "paragraph": ["clinical"] * n,
    })


SENTS = ["患者出现发热和头痛", "适用于糖尿病的治疗", "可使用阿司匹林治疗"]


def test_dictionary_only_mode():
    """ner_on=False ⇒ only dictionary mentions, no members, no ensemble."""
    ner = EnsembleNER(members=())
    out = ner(_sent_batch(SENTS)).to_pandas()
    assert len(out) > 0
    assert set(out["model"]) == {"dictionary"}


def test_member_registry_subset():
    """prediction_models=('a','b') ⇒ voting over TWO members; member 'c'
    never appears and the strong formula uses M=2."""
    ner = EnsembleNER(members=("a", "b"))
    assert ner.num_models == 2
    out = ner(_sent_batch(SENTS)).to_pandas()
    assert set(out["model"]) <= {"a", "b", "ensemble_strong", "dictionary"}
    strong = out[out["model"] == "ensemble_strong"]
    assert (strong["n_models"] <= 2).all()
    with pytest.raises(ValueError):
        EnsembleNER(members=("a", "nope"))


def test_mention_stage_switches():
    base = MentionStage()(_sent_batch(SENTS)).to_pandas()
    dict_only = MentionStage(
        config=EngineConfig(ner_on=False, merging=False)
    )(_sent_batch(SENTS)).to_pandas()
    assert 0 < len(dict_only) <= len(base)


def test_mention_batch_memo_keys_on_config():
    """The task form builds one MentionStage per process and config: a
    semantic config must get its own stage, a tuning-only one must reuse
    the default stage."""
    from medical_knowledge_graph_ray.pipelines.kg import mention_batch
    from medical_knowledge_graph_ray.stages.ner import _STAGES

    batch = _sent_batch(SENTS)
    dict_only = EngineConfig(ner_on=False, merging=False)
    default = mention_batch(batch, config=None)
    got = mention_batch(batch, config=dict_only)
    assert got.equals(MentionStage(config=dict_only)(batch))
    assert not got.equals(default)

    stage, keys = _STAGES["mention", "default"], set(_STAGES)
    tuned = mention_batch(batch, config=EngineConfig(ner_num_gpus=0.5))
    assert set(_STAGES) == keys and _STAGES["mention", "default"] is stage
    assert tuned.equals(default)


def test_config_from_file_json(tmp_path):
    gaz_path = tmp_path / "gaz.json"
    gaz_path.write_text(json.dumps({"发热": "SYM"}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "gazetteer": str(gaz_path),
        "prediction_models": ["a", "b"],
        "merging": False,
        "ner_concurrency": [2, 4],  # removed knobs: kept as extras
        "ner_batch_size": 512,
        "custom_knob": 7,
    }))
    cfg = EngineConfig.from_file(str(cfg_path))
    assert cfg.gazetteer == {"发热": "SYM"}
    assert cfg.prediction_models == ("a", "b")
    assert cfg.merging is False and cfg.ner_on is True
    assert cfg.extras == {"ner_concurrency": [2, 4], "ner_batch_size": 512,
                          "custom_knob": 7}


def test_config_fingerprint_semantics():
    """Semantic fields change the fingerprint; tuning fields don't."""
    a = _config_fingerprint(EngineConfig())
    assert a != _config_fingerprint(EngineConfig(ner_on=False))
    assert a != _config_fingerprint(EngineConfig(prediction_models=("a",)))
    assert a == _config_fingerprint(EngineConfig(ner_num_gpus=0.5))
    assert _config_fingerprint(None) == "default"


def test_run_kg_config_invalidates_checkpoints(ray_session, tmp_path):
    """Same corpus, different SEMANTIC config ⇒ triples recompute (the
    fingerprint carries the config digest)."""
    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    corpus = generate_pages(40, str(tmp_path / "pages"))
    out = str(tmp_path / "out")
    full = run_kg(corpus, out, n_shards=2)
    dict_only = run_kg(
        corpus, out, n_shards=2,
        config=EngineConfig(ner_on=False, merging=False),
    )
    assert dict_only["triples"]["rows"] < full["triples"]["rows"]


def test_config_gpu_option_plumbs_and_defaults_noop(tmp_path):
    """ner_num_gpus parses from file, is a tuning field (fingerprint
    unchanged), and defaults to None so CPU-only sessions never request
    GPUs."""
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ner_num_gpus": 0.5}))
    cfg = EngineConfig.from_file(str(cfg_path))
    assert cfg.ner_num_gpus == 0.5
    assert EngineConfig().ner_num_gpus is None
    # physical tuning only: must NOT invalidate triple checkpoints
    assert _config_fingerprint(EngineConfig(ner_num_gpus=1.0)) == "default"
