"""Ensemble NER semantics unit tests (no Ray needed)."""

import numpy as np
import pyarrow as pa

from medical_knowledge_graph_ray.functions.spans import fill_spans, runs
from medical_knowledge_graph_ray.stages.ner import (
    EnsembleNER,
    GazetteerMatcher,
    MENTION_SCHEMA,
)
from medical_knowledge_graph_ray.stages.triples import strip_boundaries
from medical_knowledge_graph_ray.state.artifacts import (
    MODEL_NAMES,
    eval_matrix,
    member_covers,
    model_weights,
)


def test_runs_merges_adjacent_same_type():
    # union semantics: adjacent same-type chars = one entity (post_processing)
    tids = np.array([0, 1, 1, 2, 2, 0, 1], dtype=np.int16)
    assert runs(tids) == [(1, 3, 1), (3, 5, 2), (6, 7, 1)]


def test_fill_spans_roundtrip():
    tids, probs = fill_spans(10, [(2, 5, 3, 0.9), (7, 9, 1, 0.7)])
    assert runs(tids) == [(2, 5, 3), (7, 9, 1)]
    assert probs[3] == 0.9 and probs[0] == 0.5


def test_gazetteer_longest_match_wins():
    m = GazetteerMatcher({"心力衰竭": "DIS", "慢性心力衰竭": "DIS", "发热": "SYM"})
    found = m.find("患者慢性心力衰竭伴发热")
    assert found == [(2, 8, "慢性心力衰竭"), (9, 11, "发热")]


def test_matcher_offsets_exclusive_end():
    m = GazetteerMatcher({"咳嗽": "SYM"})
    [(s, e, surf)] = m.find("有咳嗽史")
    assert (s, e) == (1, 3) and "有咳嗽史"[s:e] == surf


def test_member_coverage_deterministic_and_distinct():
    from medical_knowledge_graph_ray.ontology import MEDICAL_GAZETTEER

    terms = sorted(MEDICAL_GAZETTEER)
    cov = {m: [t for t in terms if member_covers(m, t)] for m in MODEL_NAMES}
    assert cov == {m: [t for t in terms if member_covers(m, t)] for m in MODEL_NAMES}
    # over the full gazetteer, coverage ordering a > c holds
    assert len(cov["a"]) > len(cov["c"])
    # and the member term sets genuinely differ (real ensemble variance)
    assert set(cov["a"]) != set(cov["b"]) != set(cov["c"])


def test_weights_normalize_per_type():
    w = model_weights()
    for t in ("DIS", "SYM", "DRU"):
        assert abs(sum(w[m][t] for m in MODEL_NAMES) - 1.0) < 1e-9


def test_ensemble_strong_requires_two_members():
    ner = EnsembleNER({"发热": "SYM"})
    rows = ner._sentence_mentions("患者出现发热症状")
    strong = [r for r in rows if r[0] == "ensemble_strong"]
    n_members = sum(member_covers(m, "发热") for m in MODEL_NAMES)
    if n_members >= 2:
        assert len(strong) == 1
        (_, ent, ety, s, e, *_ps, k) = strong[0]
        assert (ent, ety) == ("发热", "SYM") and k == n_members
    else:
        assert strong == []


def test_ensemble_confidence_formula():
    gaz = {"发热": "SYM"}
    ner = EnsembleNER(gaz)
    rows = ner._sentence_mentions("出现发热")
    strong = [r for r in rows if r[0] == "ensemble_strong"]
    if not strong:
        return
    (_m, _e, ety, s, e, p1, _p2, _p3, _p4, k) = strong[0]
    ev = eval_matrix()
    support = [m for m in MODEL_NAMES if member_covers(m, "发热")]
    from medical_knowledge_graph_ray.state.artifacts import member_prob

    x3 = max(member_prob(m, "发热") for m in support)  # uniform char prob in span
    cmax = max(ev[m][ety][0] for m in support)
    expect = x3 * (cmax + (1 - cmax) * k / (2 * len(MODEL_NAMES)))
    assert abs(p1 - expect) < 1e-12


def test_dictionary_mentions_always_present():
    ner = EnsembleNER({"罕见病X": "DIS"})  # term no member covers reliably
    rows = ner._sentence_mentions("确诊罕见病X一例")
    assert any(r[0] == "dictionary" and r[1] == "罕见病X" for r in rows)


def test_ner_batch_schema():
    ner = EnsembleNER()
    batch = pa.table(
        {
            "url": ["u1"],
            "sent_ord": pa.array([0], pa.int32()),
            "sentence": ["患者出现发热和咳嗽"],
            "head_entity": ["糖尿病"],
            "head_type": ["DIS"],
            "paragraph": ["clinical"],
        }
    )
    out = ner(batch)
    assert out.schema.equals(MENTION_SCHEMA)
    assert out.num_rows > 0
    for s, e, ent, sent in zip(
        out["start"].to_pylist(),
        out["end"].to_pylist(),
        out["ent_name"].to_pylist(),
        out["sentence"].to_pylist(),
    ):
        assert sent[s:e].startswith(ent[: e - s])


def test_strip_boundaries_fixpoint():
    assert strip_boundaries("、发热。", 3, 7) == ("发热", 4, 6)
    assert strip_boundaries("发热", 0, 2) == ("发热", 0, 2)
    assert strip_boundaries("。。", 0, 2)[0] == ""


def test_batch_equals_per_sentence():
    """The vectorized batch path must agree with the straight-line
    per-sentence oracle path on every mention."""
    ner = EnsembleNER()
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
    want_rows = []
    for i, s in enumerate(sents):
        for (model, ent, ety, st, en, p1, p2, p3, p4, k) in ner._sentence_mentions(s):
            want_rows.append((f"u{i}", i, model, ent, ety, st, en,
                              round(p1, 12), round(p2, 12), round(p3, 12),
                              round(p4, 12), k))
    got_rows = [
        (r.url, r.sent_ord, r.model, r.ent_name, r.ent_type, r.start, r.end,
         round(r.prob_strict, 12), round(r.prob_partial, 12),
         round(r.prob_exact, 12), round(r.prob_type, 12), r.n_models)
        for r in got.itertuples()
    ]
    assert sorted(got_rows) == sorted(want_rows)


def test_vote_spans_weighted_threshold():
    """V1 weighted vote: accepted iff summed member weights >= 0.2."""
    ner = EnsembleNER({"发热": "SYM"})
    spans = ner.vote_spans("患者发热明显")
    supporters = [m for m in MODEL_NAMES if member_covers(m, "发热")]
    w = model_weights()
    score = sum(w[m]["SYM"] for m in supporters)
    if score >= 0.2:
        assert spans and spans[0][:4] == ("发热", "SYM", 2, 4)
        from medical_knowledge_graph_ray.state.artifacts import member_prob

        # min-fusion seeded from member "a"'s path probs (reference :252):
        # if "a" doesn't cover the term its base 0.5 participates in the min
        cands = [member_prob(m, "发热") for m in supporters]
        if "a" not in supporters:
            cands.append(0.5)
        assert spans[0][4] == min(cands)
    else:
        assert spans == []


# -- S8: online-serving surface (the app_multi.py contract minus HTTP) --------

# the reference's model-selection smoke sentences (utils.py:15-40)
_SMOKE_1 = (
    "5.瓣膜置换术后心内膜炎,感染严重,药物不易控制,引起人工瓣功能障碍或瓣周漏、"
    "瓣周脓肿等。此时应使用用纱布，血压计，心电图仪对病患进行监测。"
)
_SMOKE_2 = (
    "(1)缺血性或非缺血性心肌病(2)充分抗心力衰竭药物治疗后,NYHA心功能分级仍在Ⅲ级"
    "或不必卧床的Ⅳ级(3)窦性心律4)左心室射血分数≤35%"
)


def test_predict_sentences_smoke():
    """S8: the serving call returns well-formed span predictions for the
    reference's smoke sentences — offsets index the sentence exactly and
    both member and dictionary/ensemble rows appear."""
    ner = EnsembleNER({"心内膜炎": "DIS", "心肌病": "DIS", "血压计": "EQM",
                       "心电图仪": "EQM", "感染": "SYM"})
    res = ner.predict_sentences([_SMOKE_1, _SMOKE_2])
    assert [r["sentence"] for r in res] == [_SMOKE_1, _SMOKE_2]
    for r in res:
        assert r["mentions"], "smoke sentence produced no mentions"
        for m in r["mentions"]:
            assert r["sentence"][m["start"]: m["end"]] == m["ent_name"]
            assert 0.0 <= m["prob"] <= 1.0
    models = {m["model"] for r in res for m in r["mentions"]}
    assert "dictionary" in models


def test_predict_sentences_matches_batch_pipeline():
    """Online and offline must agree: predict_sentences emits exactly the
    batch stage's mentions for the same sentence."""
    import pyarrow as pa

    gaz = {"心内膜炎": "DIS", "血压计": "EQM"}
    ner = EnsembleNER(gaz)
    online = ner.predict_sentences([_SMOKE_1])[0]["mentions"]
    batch = ner(
        pa.table({"url": ["u"], "sent_ord": [0], "sentence": [_SMOKE_1],
                  "head_entity": [""], "head_type": [""], "paragraph": [0]})
    ).to_pandas()
    offline = sorted(
        zip(batch["model"], batch["ent_name"], batch["start"], batch["end"]),
        key=lambda r: (r[2], r[3], r[0]),
    )
    got = [(m["model"], m["ent_name"], m["start"], m["end"]) for m in online]
    assert got == [tuple(r) for r in offline]


def test_triples_do_not_depend_on_the_sentence_offset_in_the_batch():
    """A sentence's triples — ``prob`` included, bit for bit — are the
    same when it is the whole batch and when it sits at a non-zero
    offset inside a 2,048-sentence batch (the ensemble mention's mean
    char prob is summed over the mention's own chars)."""
    import pandas as pd

    from medical_knowledge_graph_ray.pipelines.kg import MentionStage
    from medical_knowledge_graph_ray.sources.pages import pages_table
    from medical_knowledge_graph_ray.stages.extract import extract_text_batch
    from medical_knowledge_graph_ray.stages.sentences import split_batch

    pages = pages_table(400)
    batch = split_batch(extract_text_batch(pages).select(["url", "text"])).slice(0, 2048)
    assert batch.num_rows == 2048
    stage = MentionStage()
    full = stage(batch).to_pandas()
    compared = 0
    for i in range(1, 2048, 16):
        alone = stage(batch.slice(i, 1)).to_pandas()
        row = batch.slice(i, 1).to_pylist()[0]
        within = full[(full["url"] == row["url"]) & (full["sent_ord"] == row["sent_ord"])]
        pd.testing.assert_frame_equal(alone, within.reset_index(drop=True), check_exact=True)
        compared += len(alone)
    assert compared > 50
