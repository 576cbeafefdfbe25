"""BMES character-HMM word segmentation — the jieba-HMM role (OOV word
discovery) for the tokenizer.

The reference segments with jieba + userdict (``pre_labeling.py:88-96``);
jieba's HMM decodes UNSEEN stretches into words with a pre-trained
char-level BMES model.  The engine's public-knowledge equivalent is a
DICTIONARY-PROJECTED HMM: training statistics come from the corpus's own
gazetteer matches (every matched surface yields a BMES char sequence;
single-char tokens yield S), so no external segmented corpus is needed —
the classic self-supervised bootstrap for CJK segmentation.

Determinism contract (the ``events_hmm_score`` discipline): all Viterbi
arithmetic is int64 MICRO-NAT log-probabilities
(``floor(ln p · 10⁶)``, add-one smoothed), ties break to the lowest
state index — the decode is bit-decided at any parallelism, and the
training censuses are exact integer counts (bounded: 4×4 transitions +
|chars|×4 emissions), so ``train ∘ decode`` is parallelism-invariant
end-to-end (pytest-pinned).

States: 0=B 1=M 2=E 3=S.  Legal transitions: B→{M,E}, M→{M,E},
E→{B,S}, S→{B,S}; a run starts in {B,S} and must end in {E,S}.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from .shuffle import fold_groups

B, M, E, S = 0, 1, 2, 3
_NEG = -(10 ** 12)          # forbidden-path sentinel (micro-nats)


def _bmes_of(word: str) -> list[int]:
    if len(word) == 1:
        return [S]
    return [B] + [M] * (len(word) - 2) + [E]


def hmm_census_batch(batch: pd.DataFrame, gazetteer: dict[str, str],
                     _cache: dict = {}) -> pd.DataFrame:
    """Sentence rows → exact integer (kind, a, b, n) count partials:
    kind 0 = transition (a=prev state, b=state), kind 1 = emission
    (a=char codepoint, b=state).  Words are the gazetteer matches plus
    single-char S tokens for everything between them — the projection
    that lets the HMM learn word-shape statistics from the dictionary
    alone."""
    from .ner import GazetteerMatcher

    key = id(gazetteer)
    matcher = _cache.get(key)
    if matcher is None:
        matcher = _cache[key] = GazetteerMatcher(gazetteer)
    tr = np.zeros((4, 4), dtype=np.int64)
    em: dict[tuple[int, int], int] = {}
    for sent in batch["sentence"]:
        # Projection: ONLY dictionary-matched words carry supervision
        # (their BMES shapes, concatenated as if adjacent), plus S
        # evidence from length-1 gaps BETWEEN adjacent matches (almost
        # always a connective particle).  Labeling every inter-entity
        # char S — the naive projection — drowns the model in S→S mass
        # and every OOV decode collapses to single chars (measured on
        # the page corpus); word-only projection learns word SHAPE.
        states: list[int] = []
        chars: list[int] = []
        prev_end = None
        for s, e, surf in matcher.find(sent):
            if prev_end is not None and s - prev_end == 1:
                states.append(S)
                chars.append(ord(sent[prev_end]))
            states.extend(_bmes_of(surf))
            chars.extend(ord(c) for c in surf)
            prev_end = e
        for i in range(1, len(states)):
            tr[states[i - 1], states[i]] += 1
        for c, st in zip(chars, states):
            em[(c, st)] = em.get((c, st), 0) + 1
    rows_k, rows_a, rows_b, rows_n = [], [], [], []
    for a in range(4):
        for b in range(4):
            if tr[a, b]:
                rows_k.append(0)
                rows_a.append(a)
                rows_b.append(b)
                rows_n.append(int(tr[a, b]))
    for (c, st), n in em.items():
        rows_k.append(1)
        rows_a.append(c)
        rows_b.append(st)
        rows_n.append(n)
    return pd.DataFrame(
        {"kind": pd.array(rows_k, "int64"), "a": pd.array(rows_a, "int64"),
         "b": pd.array(rows_b, "int64"), "n": pd.array(rows_n, "int64")})


def train_hmm_segmenter(sentences, gazetteer: dict[str, str]) -> dict:
    """sentences Dataset → HMM params (micro-nat int64 tables).

    Distributed shape: per-batch exact count partials (bounded by
    16 + |chars|·4 rows) → one tiny groupby fold → driver-side log
    tables.  The float→micro-nat conversion happens ONCE driver-side on
    the exact global counts, so the params are independent of how the
    corpus was batched."""

    from ..functions.arrow import arrow_out

    parts = sentences.map_batches(
        arrow_out(lambda b: hmm_census_batch(b, gazetteer)),
        batch_format="pandas",
    )
    agg = fold_groups(parts, ["kind", "a", "b"], [("n", "sum")])
    tr = np.zeros((4, 4), dtype=np.int64)
    t = agg[agg["kind"] == 0]
    tr[t["a"].to_numpy(), t["b"].to_numpy()] = t["n"].to_numpy()
    e = agg[agg["kind"] == 1]
    chars = np.sort(e["a"].unique()).astype(np.int64)
    cidx = {int(c): i for i, c in enumerate(chars)}
    emc = np.zeros((len(chars), 4), dtype=np.int64)
    emc[[cidx[int(c)] for c in e["a"]], e["b"].to_numpy()] = e["n"].to_numpy()

    legal = np.array([[0, 1, 1, 0],
                      [0, 1, 1, 0],
                      [1, 0, 0, 1],
                      [1, 0, 0, 1]], dtype=bool)
    tr_m = np.full((4, 4), _NEG, dtype=np.int64)
    for a in range(4):
        tot = int(tr[a][legal[a]].sum()) + int(legal[a].sum())  # add-one
        for b_ in range(4):
            if legal[a, b_]:
                p = (int(tr[a, b_]) + 1) / tot
                tr_m[a, b_] = int(math.floor(math.log(p) * 1e6))
    vsz = len(chars) + 1  # +1 unseen bucket
    em_m = np.zeros((len(chars), 4), dtype=np.int64)
    unseen = np.zeros(4, dtype=np.int64)
    for st in range(4):
        tot = int(emc[:, st].sum()) + vsz  # add-one over chars ∪ unseen
        col = (emc[:, st] + 1).astype("float64") / tot
        em_m[:, st] = np.floor(np.log(col) * 1e6).astype(np.int64)
        unseen[st] = int(math.floor(math.log(1.0 / tot) * 1e6))
    start = np.array([0, _NEG, _NEG, 0], dtype=np.int64)   # start ∈ {B,S}
    final_ok = np.array([_NEG, _NEG, 0, 0], dtype=np.int64)  # end ∈ {E,S}
    return {"chars": chars, "em": em_m, "unseen": unseen, "tr": tr_m,
            "start": start, "final": final_ok}


def viterbi_segment(params: dict, text: str) -> list[str]:
    """One OOV run → words (BMES Viterbi, int64 micro-nats, lowest-state
    tie-break).  Pure function of (params, text)."""
    n = len(text)
    if n == 0:
        return []
    if n == 1:
        return [text]
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32
                          ).astype(np.int64)
    chars = params["chars"]
    if len(chars) == 0:  # empty vocabulary: every char is unseen
        emis = np.broadcast_to(params["unseen"], (n, 4))
    else:
        pos = np.clip(np.searchsorted(chars, codes), 0, len(chars) - 1)
        emis = np.where((chars[pos] == codes)[:, None], params["em"][pos],
                        params["unseen"][None, :])
    dp = params["start"] + emis[0]
    back = np.zeros((n, 4), dtype=np.int8)
    tr = params["tr"]
    for i in range(1, n):
        cand = dp[:, None] + tr            # (prev, cur)
        prev = cand.argmax(axis=0)         # lowest index wins ties
        dp = cand[prev, np.arange(4)] + emis[i]
        back[i] = prev
    dp = dp + params["final"]
    st = int(dp.argmax())
    path = [st]
    for i in range(n - 1, 0, -1):
        st = int(back[i, st])
        path.append(st)
    path.reverse()
    words, cur = [], ""
    for ch, st in zip(text, path):
        cur += ch
        if st in (E, S):
            words.append(cur)
            cur = ""
    if cur:
        words.append(cur)
    return words
