"""BMES char-HMM segmentation (the jieba-HMM OOV role): training is
parallelism-invariant, the decode is deterministic and word-shape-aware,
and the opt-in Tokenizer integration preserves the partition property."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from medical_knowledge_graph_ray.stages.segment import (
    train_hmm_segmenter, viterbi_segment,
)
from medical_knowledge_graph_ray.stages.tokenize import Tokenizer

_GAZ = {
    "心内膜炎": "DIS", "心肌病": "DIS", "血压计": "EQM", "青霉素": "DRU",
    "阿司匹林": "DRU", "胰岛素": "DRU", "糖尿病": "DIS", "高血压": "DIS",
}
_SENTS = [
    "心内膜炎患者使用青霉素与阿司匹林治疗",
    "糖尿病合并高血压时首选胰岛素",
    "用血压计监测心肌病病情变化",
    "阿司匹林青霉素胰岛素轮换使用",
] * 10


def _params():
    ds = rd.from_pandas(pd.DataFrame({"sentence": _SENTS}))
    return train_hmm_segmenter(ds, _GAZ)


def test_training_parallelism_invariant(ray_session):
    ds1 = rd.from_pandas(pd.DataFrame({"sentence": _SENTS})).repartition(1)
    ds8 = rd.from_pandas(pd.DataFrame({"sentence": _SENTS})).repartition(8)
    a = train_hmm_segmenter(ds1, _GAZ)
    b = train_hmm_segmenter(ds8, _GAZ)
    for k in ("chars", "em", "unseen", "tr", "start", "final"):
        assert np.array_equal(a[k], b[k]), k


def test_decode_learns_word_shape(ray_session):
    """Trained on a 3/4-char-word dictionary, an OOV run splits into
    multi-char words (never one fat token, never all singles), the
    split partitions the text, and a known word's chars segment
    together even inside an unseen context."""
    p = _params()
    run = "青霉素效果显著"          # known word + OOV tail
    words = viterbi_segment(p, run)
    assert "".join(words) == run
    assert 1 < len(words) < len(run)       # real segmentation
    assert words[0] == "青霉素"            # dictionary shape recalled
    # determinism
    assert viterbi_segment(p, run) == words
    assert viterbi_segment(p, "") == []
    assert viterbi_segment(p, "药") == ["药"]
    # fully unseen chars still produce a legal partition
    novel = "乾坤斡旋无穷"
    w2 = viterbi_segment(p, novel)
    assert "".join(w2) == novel


def test_decode_with_empty_vocabulary(ray_session):
    """An empty char vocabulary decodes every char as unseen, exactly as
    a vocabulary that holds none of the text's chars does."""
    p = _params()
    empty = dict(p, chars=p["chars"][:0], em=p["em"][:0])
    absent = dict(p, chars=np.array([ord("z")], dtype=p["chars"].dtype),
                  em=p["em"][:1])
    words = viterbi_segment(empty, "abc")
    assert "".join(words) == "abc"
    assert words == viterbi_segment(absent, "abc")


def test_tokenizer_hmm_integration_partitions(ray_session):
    p = _params()
    tok_plain = Tokenizer(_GAZ)
    tok_hmm = Tokenizer(_GAZ, hmm_params=p)
    sent = "心内膜炎患者的病情观察记录,编号A12。"
    for tok in (tok_plain, tok_hmm):
        toks = tok.tokenize(sent)
        # exact partition with correct offsets
        assert "".join(t[0] for t in toks) == sent
        for w, _tag, s, e in toks:
            assert sent[s:e] == w
    plain = tok_plain.tokenize(sent)
    hmm = tok_hmm.tokenize(sent)
    # the OOV run is genuinely segmented (more n-tokens than the one-fat
    # default), entity/m/x tokens untouched
    assert len(hmm) > len(plain)
    assert [t for t in plain if t[1] not in ("n",)] == \
        [t for t in hmm if t[1] not in ("n",)]
