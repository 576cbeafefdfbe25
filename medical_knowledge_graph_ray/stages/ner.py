"""Ensemble NER stage: multi-member scoring + union-then-vote merging.

Re-expresses the reference's full-corpus ensemble labeling
(``EnsemblePredict_all.py``) as ONE Ray Data stage run as tasks: all
ensemble members live in one object (the reference holds 4-5 models in one
process, ``EnsemblePredict_all.py:436-441``), built once per worker process
(``memo_stage``), and each sentence batch becomes exploded mention rows.

Semantics mirrored (see SURVEY §2.10):

* **union ensemble (V2)** — start from member "a"'s per-char labels; fill O
  chars with any other member's label; char prob = max
  (``EnsemblePredict_all.py:290-315``);
* **union+vote / ensemble_strong (V3, the shipped strategy)** — decode the
  union into spans (adjacent same-type chars merge, ``post_processing``
  semantics); a member *supports* a span if any of its non-O chars falls
  inside the span boundaries (``get_word_ind``, ``:155-160, 344-352``);
  keep spans supported by ≥ 2 distinct members (``:358-360``);
* **confidence calibration (V4/A7)** — entity char-prob mean ``x3`` times
  ``max(prec) + (1 - max(prec)) · k / (2·M)`` over the k supporting
  members' eval-matrix precisions (``:526-552``); single-member mentions
  use ``x3 · precision`` (``:523-526``);
* **dictionary mentions** — the full-gazetteer longest-match pass of STEP2
  (``clean_and_save.py:455-510``) emits rows under model "dictionary" with
  fixed calibrated probs.

The per-(url, sent_ord) mention set is emitted complete within one batch —
downstream max-prob dedup (D2) is therefore batch-local and needs **no
shuffle** (partitioning assumption documented in ``triples.py``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..functions.spans import fill_spans, runs
from ..ontology import ESSENTIAL_TYPES, MEDICAL_GAZETTEER
from ..state.artifacts import (
    DICT_PROBS,
    MODEL_NAMES,
    eval_matrix,
    member_covers,
    member_jitter,
    member_prob,
)

TYPE_LIST: tuple[str, ...] = tuple(ESSENTIAL_TYPES)
_TID: dict[str, int] = {t: i + 1 for i, t in enumerate(TYPE_LIST)}

BASE_CHAR_PROB = 0.5  # O-char path prob analogue

MENTION_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("sent_ord", pa.int32()),
        ("sentence", pa.string()),
        ("head_entity", pa.string()),
        ("head_type", pa.string()),
        ("paragraph", pa.string()),
        ("model", pa.string()),
        ("ent_name", pa.string()),
        ("ent_type", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("prob_strict", pa.float64()),
        ("prob_partial", pa.float64()),
        ("prob_exact", pa.float64()),
        ("prob_type", pa.float64()),
        ("n_models", pa.int8()),
    ]
)


class GazetteerMatcher:
    """Longest-match-first, non-overlapping surface matcher.

    Equivalent to the reference's length-desc-sorted dictionary scan
    (``utils.py:61-62`` longest-match preference) but executed by the C
    regex engine: alternation ordered longest-first makes ``finditer``
    prefer the longest surface at each position.
    """

    def __init__(self, terms: dict[str, str]):
        self.types = dict(terms)
        ordered = sorted(terms, key=lambda t: (-len(t), t))
        self._re = re.compile("|".join(re.escape(t) for t in ordered)) if ordered else None

    def find(self, sentence: str) -> list[tuple[int, int, str]]:
        """[(start, end, surface)] — [start, end) exclusive offsets."""
        if self._re is None:
            return []
        return [(m.start(), m.end(), m.group(0)) for m in self._re.finditer(sentence)]


TRAINED_MODEL_NAME = "trained"
NEURAL_MODEL_NAME = "neural"
# per-char confidence of trained-tagger spans: a CONSTANT keeps the fit
# deterministic (the perceptron has no calibrated probabilities; real
# per-span calibration comes from the eval matrix the caller derives on
# held-out data — the multi_ner_prediction.py:139-159 loop)
TRAINED_CHAR_PROB = 0.80
# standalone trained-member rows require EXACT-SPAN corroboration (another
# member or the dictionary found the same [start, end) span).  The trained
# tagger still votes fully — union fill, strong-span support counts, char
# probs, vote weights — but its boundary errors (span F1 ≈ 0.92 on silver
# labels) would otherwise each mint a NEW truncated/shifted surface as a
# graph triple: measured e2e triple precision of the trained-ensemble
# graph vs the default-ensemble graph was 0.92 ungated, 0.94
# overlap-gated, and 0.999 exact-gated (recall 1.0 throughout; 300
# pages / 6 rounds) — the ≥ 0.95 bar only holds with the exact gate.
TRAINED_REQUIRE_SUPPORT = True
# eval-matrix row used when no derived eval_override covers the trained
# member (zero rows would silently drop every trained mention downstream)
TRAINED_DEFAULT_EVAL = [0.85, 0.90, 0.88, 0.90]


class TrainedMember:
    """The TRAINED perceptron tagger as a first-class ensemble member —
    the reference's actual ensemble is trained models + dictionary voting
    (``EnsemblePredict_all.py:436-441``, ``multi_source_ner.py:140-372``);
    this closes the loop with weights from ``stages/perceptron.py``.

    Exposes the same ``spans(sentence)`` contract as ``_Member`` plus a
    vectorized ``mega_decode(mega)`` for the batch path.  Decoding the
    batch's "\\x00"-joined mega string is EXACTLY equivalent to decoding
    each sentence alone: the featurizer masks cross-boundary neighbors to
    codepoint 0, and the joiner IS codepoint 0 — so every real char sees
    identical features either way; joiner positions are then forced to O
    so no span can bridge sentences (pinned by
    ``test_batch_equals_per_sentence``)."""

    def __init__(self, W):
        self.name = TRAINED_MODEL_NAME
        self.W = np.ascontiguousarray(W)

    def _pred(self, codes: np.ndarray) -> np.ndarray:
        """Char codepoints → BIO tag ids (greedy per-char decode)."""
        from .perceptron import N_FEATS, _feature_ids

        fids = _feature_ids(codes, np.zeros(len(codes), dtype=np.int64))
        scores = self.W[fids[:, 0]].astype(np.int64)
        for f in range(1, N_FEATS):
            scores += self.W[fids[:, f]]
        return scores.argmax(axis=1)

    @staticmethod
    def _bio_spans(pred: np.ndarray) -> list[tuple[int, int, int]]:
        """BIO tag ids → [(start, end, tid)] with B- starting a new span
        (same convention as the trainer's eval, ``perceptron._EvalBucket``)."""
        ty = (pred + 1) // 2  # 0 = O, else 1-based type id == _TID value
        is_b = (pred % 2) == 1
        inside = ty > 0
        start = inside & (is_b | (np.roll(ty, 1) != ty))
        if len(start):
            start[0] = inside[0]
        out = []
        sid = np.cumsum(start)
        df_pos = np.flatnonzero(inside)
        if not len(df_pos):
            return out
        import itertools

        for _g, grp in itertools.groupby(df_pos, key=lambda i: sid[i]):
            pos = list(grp)
            out.append((int(pos[0]), int(pos[-1]) + 1, int(ty[pos[0]])))
        return out

    def mega_decode(self, mega: str) -> np.ndarray:
        """Whole-batch decode: BIO tag ids per char of the joined string,
        with joiner positions forced to O."""
        codes = np.frombuffer(mega.encode("utf-32-le"), dtype=np.uint32)
        if not len(codes):
            return np.zeros(0, dtype=np.int64)
        pred = self._pred(codes)
        pred[codes == 0] = 0  # joiners can never carry a tag
        return pred

    def span_probs(self, bio: list[tuple[int, int, int]]) -> list[float]:
        """Per-span char probability for the decoded spans of the LAST
        ``mega_decode`` call.  The perceptron has no calibrated scores —
        a constant; ``NeuralMember`` overrides with real softmax mins."""
        return [TRAINED_CHAR_PROB] * len(bio)

    def spans(self, sentence: str) -> list[tuple[int, int, int, float]]:
        """[(start, end, type_id, char_prob)] — the ``_Member`` contract."""
        if not sentence:
            return []
        pred = self.mega_decode(sentence)
        bio = self._bio_spans(pred)
        return [
            (s, e, tid, p) for (s, e, tid), p in zip(bio, self.span_probs(bio))
        ]


class NeuralMember(TrainedMember):
    """The NEURAL tagger (``stages/neural.py``: learned hashed-char
    embeddings → tanh hidden → softmax BIO) as an ensemble member — the
    reference's CNN-BiLSTM-CRF role (``multi_source_ner.py:140-372``;
    padded batch path ``:757-801`` ≙ ``mega_decode``), CPU-sized.  When
    ``EngineConfig.ner_num_gpus`` is set the scorer tasks are placed on
    GPUs; the numpy forward runs unchanged either way (CPU fallback is
    the same code path).  Inherits the decode plumbing and the
    exact-span corroboration gate from ``TrainedMember``; unlike the
    perceptron it emits REAL per-span probabilities (min over the
    span's softmax maxima)."""

    def __init__(self, params: dict):
        self.name = NEURAL_MODEL_NAME
        self.params = params
        self._probs = None

    def _pred(self, codes: np.ndarray) -> np.ndarray:
        from .neural import predict_tags

        pred, self._probs = predict_tags(self.params, codes)
        return pred

    def span_probs(self, bio: list[tuple[int, int, int]]) -> list[float]:
        pr = self._probs
        return [round(float(pr[s:e].min()), 6) for s, e, _t in bio]


class _Member:
    """One deterministic ensemble member (stand-in for a BiLSTM-CRF model;
    output contract mirrors ``multi_source_ner.py:803-844``: spans with
    per-char probabilities)."""

    def __init__(self, name: str, gazetteer: dict[str, str]):
        self.name = name
        covered = {t: ty for t, ty in gazetteer.items() if member_covers(name, t)}
        self.matcher = GazetteerMatcher(covered)
        self.prob = {t: member_prob(name, t) for t in covered}
        self.jitter = {t: member_jitter(name, t) for t in covered}

    def spans(self, sentence: str) -> list[tuple[int, int, int, float]]:
        """[(start, end, type_id, char_prob)]"""
        out = []
        for s, e, surf in self.matcher.find(sentence):
            e -= self.jitter[surf]
            tid = _TID[self.matcher.types[surf]]
            out.append((s, e, tid, self.prob[surf]))
        return out


def _span_means(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``values[s:e].mean()`` per span, bit for bit: each span is summed
    over its own elements (grouped by length, one gather + row sum per
    length), so a mean does not depend on where its span sits in
    ``values``."""
    lens = ends - starts
    out = np.empty(len(lens))
    for n in np.unique(lens):
        sel = np.flatnonzero(lens == n)
        out[sel] = values[starts[sel, None] + np.arange(n)].sum(axis=1) / n
    return out


def union_strong_spans(
    member_tids: list[np.ndarray],
) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """V2 union fill + V3 strong decode — THE shipped ensemble semantics,
    shared by the per-sentence NER path and the MUC evaluator so the
    evaluator can never drift from what production ships.

    ``member_tids``: per-member char type-id arrays in member order.
    Returns ``[(start, end, tid, supporting_member_indices)]`` for union
    runs supported by ≥ 2 distinct members (``EnsemblePredict_all.py:
    321-395``)."""
    if len(member_tids) < 2:  # dictionary-only / single-member config
        return []
    union = member_tids[0].copy()
    for tids in member_tids[1:]:
        fill = (union == 0) & (tids != 0)
        union[fill] = tids[fill]
    out = []
    for s, e, tid in runs(union):
        support = tuple(
            mi for mi, tids in enumerate(member_tids)
            if bool((tids[s:e] != 0).any())
        )
        if len(support) >= 2:
            out.append((s, e, tid, support))
    return out


class EnsembleNER:
    """``map_batches`` stage: sentence rows → mention rows.

    All members + the full dictionary + the eval matrix are built in
    ``__init__`` (M2/M3/M4 state, SURVEY §2.3), once per worker process
    when run through ``memo_stage``; ``__call__`` does per-batch work
    only.
    """

    def __init__(
        self,
        gazetteer: dict[str, str] | None = None,
        eval_override: dict[str, dict[str, list[float]]] | None = None,
        members: tuple[str, ...] | None = None,
        trained_weights=None,
        neural_params=None,
    ):
        gaz = gazetteer or MEDICAL_GAZETTEER
        # members: the config-selected ensemble (the reference's
        # `prediction_model` registry, config.yaml:48-49); voting math
        # (k / 2·M) follows the SELECTED ensemble size
        # members=() is the reference's ner_on=False: dictionary-only
        # labeling (no model scoring, no ensemble rows)
        names = MODEL_NAMES if members is None else tuple(members)
        unknown = [m for m in names if m not in MODEL_NAMES]
        if unknown:
            raise ValueError(f"unknown ensemble members: {unknown}")
        self.members = [_Member(m, gaz) for m in names]
        # trained tagger votes LAST (union fill starts from member "a",
        # reference :290-315 order; the trained model fills remaining O
        # chars and counts toward span support like any member)
        if trained_weights is not None:
            self.members.append(TrainedMember(trained_weights))
        if neural_params is not None:
            self.members.append(NeuralMember(neural_params))
        self.dictionary = GazetteerMatcher(gaz)
        # eval_override: a REAL eval matrix computed from a labeled dataset
        # (stages/muc_eval.py:eval_matrix_from); the default hash-fabricated
        # matrix stands in for the snapshot's missing eval_dic.json.
        # Deep-copied before zero-filling — mutating the caller's dict
        # would poison artifacts it later persists (eval_dic.json).
        src = eval_override or eval_matrix()
        self.eval = {m: dict(v) for m, v in src.items()}
        for m in [mem.name for mem in self.members]:  # every cell must exist
            ev = self.eval.setdefault(m, {})
            # the trained member's fallback row is a nonzero default —
            # zero precision would silently drop every trained mention;
            # derived eval_override rows (muc_eval on held-out data)
            # replace it in the production path
            fallback = (
                TRAINED_DEFAULT_EVAL
                if m in (TRAINED_MODEL_NAME, NEURAL_MODEL_NAME)
                else [0.0, 0.0, 0.0, 0.0]
            )
            for t in TYPE_LIST:
                ev.setdefault(t, list(fallback))
        self.num_models = len(self.members)

    # -- per-sentence ensemble ------------------------------------------------
    def _sentence_mentions(
        self, sentence: str
    ) -> list[tuple[str, str, str, int, int, float, float, float, float, int]]:
        """[(model, ent_name, ent_type, start, end, p_strict, p_partial,
        p_exact, p_type, n_models)]"""
        L = len(sentence)
        out = []
        member_spans = {m.name: m.spans(sentence) for m in self.members}
        member_tids: dict[str, np.ndarray] = {}
        prob_combined = np.full(L, BASE_CHAR_PROB, dtype=np.float64)
        dict_matches = self.dictionary.find(sentence)

        # single-member mentions + char arrays
        for m in self.members:
            spans = member_spans[m.name]
            tids, probs = fill_spans(L, spans, BASE_CHAR_PROB)
            member_tids[m.name] = tids
            nz = tids != 0
            np.maximum(prob_combined, np.where(nz, probs, 0.0), out=prob_combined)
            if isinstance(m, TrainedMember) and TRAINED_REQUIRE_SUPPORT:
                continue  # standalone rows gated below (voting unaffected)
            ev = self.eval[m.name]
            for s, e, tid, p in spans:
                ety = TYPE_LIST[tid - 1]
                pr = ev[ety]
                out.append(
                    (m.name, sentence[s:e], ety, s, e,
                     p * pr[0], p * pr[1], p * pr[2], p * pr[3], 1)
                )

        # corroboration-gated standalone trained rows (batch-path parity):
        # exact-span match against any other member or the dictionary
        if TRAINED_REQUIRE_SUPPORT:
            for m in self.members:
                if not isinstance(m, TrainedMember):
                    continue
                corroborated = {
                    (s, e)
                    for other in self.members if other is not m
                    for s, e, _tid, _p in member_spans[other.name]
                } | {(s, e) for s, e, _surf in dict_matches}
                ev = self.eval[m.name]
                for s, e, tid, p in member_spans[m.name]:
                    if (s, e) not in corroborated:
                        continue
                    ety = TYPE_LIST[tid - 1]
                    pr = ev[ety]
                    out.append(
                        (m.name, sentence[s:e], ety, s, e,
                         p * pr[0], p * pr[1], p * pr[2], p * pr[3], 1)
                    )

        # union (V2) + strong (V3) via the shared shipped-semantics helper
        tid_list = [member_tids[m.name] for m in self.members]
        for s, e, tid, support in union_strong_spans(tid_list):
            names = [self.members[mi].name for mi in support]
            k = len(names)
            ety = TYPE_LIST[tid - 1]
            x3 = float(prob_combined[s:e].mean())
            ps = []
            for mi in range(4):
                c = [self.eval[m][ety][mi] for m in names]
                cmax = max(c)
                ps.append(x3 * (cmax + (1.0 - cmax) * k / (2 * self.num_models)))
            out.append(("ensemble_strong", sentence[s:e], ety, s, e, *ps, k))

        # dictionary pass (STEP2 analogue)
        for s, e, surf in dict_matches:
            out.append(
                ("dictionary", surf, self.dictionary.types[surf], s, e,
                 *DICT_PROBS, 1)
            )
        return out

    # -- S8: online-serving surface (app.py:32-48, app_multi.py:154-282) ------
    def predict_sentences(self, sentences: list[str]) -> list[dict]:
        """The reference's only interactive entry point (POST sentence →
        ensemble spans) as a thin library call on the resident ensemble —
        the HTTP layer minus HTTP.  One resident ``EnsembleNER`` (e.g. a
        long-lived ``@ray.remote`` actor, or simply an in-process object)
        scores ad-hoc sentences with exactly the batch pipeline's member +
        ensemble_strong + dictionary semantics, so online and offline
        predictions can never diverge.

        Returns one dict per sentence: ``{"sentence", "mentions": [
        {"model", "ent_name", "ent_type", "start", "end", "prob"}]}``,
        mentions ordered by (start, end, model)."""
        out = []
        for sent in sentences:
            mentions = [
                {
                    "model": m, "ent_name": nm, "ent_type": ty,
                    "start": s, "end": e, "prob": round(p_strict, 6),
                }
                for (m, nm, ty, s, e, p_strict, _pp, _pe, _pt, _k)
                in self._sentence_mentions(sent)
            ]
            mentions.sort(key=lambda r: (r["start"], r["end"], r["model"]))
            out.append({"sentence": sent, "mentions": mentions})
        return out

    # -- V1: weighted-vote ensemble (EnsemblePredict_all.py:250-288) ----------
    #
    # Computed by the reference alongside union/strong but NOT exported to
    # the final mention table (only members + ensemble_strong are,
    # ``:508``); exposed here as a selectable strategy for parity.
    def vote_spans(
        self, sentence: str
    ) -> list[tuple[str, str, int, int, float]]:
        """Per-char weighted vote: sum member weights per predicted type,
        accept the argmax where the score ≥ 0.2; char prob = min over
        non-O member probs (the reference's min-fusion; its appended
        score-probs are dead code truncated by the zip at ``:254``).
        Returns [(surface, type, start, end, prob_min)]."""
        if not hasattr(self, "_vote_w"):
            # per-type strict-precision-normalized weights over the
            # SELECTED members (A4, multi_ner_prediction.py:139-159) —
            # computed from self.eval directly so a trained member's
            # derived precisions weight its vote like any other's
            self._vote_w = np.zeros((len(self.members), len(TYPE_LIST) + 1))
            for t, ety in enumerate(TYPE_LIST):
                total = sum(self.eval[m.name][ety][0] for m in self.members)
                for mi, m in enumerate(self.members):
                    self._vote_w[mi, t + 1] = (
                        self.eval[m.name][ety][0] / total if total else 0.0
                    )
        L = len(sentence)
        scores = np.zeros((len(TYPE_LIST) + 1, L))
        prob_min = None  # starts from member "a"'s path probs (reference :252)
        for mi, m in enumerate(self.members):
            tids, probs = fill_spans(L, m.spans(sentence), BASE_CHAR_PROB)
            nz = tids != 0
            np.add.at(scores, (tids[nz], np.flatnonzero(nz)), self._vote_w[mi, tids[nz]])
            if prob_min is None:
                prob_min = probs.copy()
            else:
                np.minimum(prob_min, np.where(nz, probs, np.inf), out=prob_min)
        if prob_min is None:
            prob_min = np.full(L, BASE_CHAR_PROB)
        best = scores.argmax(axis=0)
        accept = scores[best, np.arange(L)] >= 0.2
        voted = np.where(accept, best, 0).astype(np.int16)
        out = []
        for s, e, tid in runs(voted):
            out.append(
                (sentence[s:e], TYPE_LIST[tid - 1], s, e, float(prob_min[s:e].min()))
            )
        return out

    # -- vectorized batch path ------------------------------------------------
    #
    # Semantically identical to _sentence_mentions (asserted by
    # tests/test_ner.py::test_batch_equals_per_sentence) but the whole batch
    # is processed as ONE concatenated string per regex pass:
    # * finditer runs once per member per batch (C regex engine, no
    #   per-sentence call overhead); the "\x00" joiner can never occur in a
    #   gazetteer term, so no match spans two sentences;
    # * the union/vote/confidence char math runs on batch-wide numpy arrays
    #   (cumulative sums give per-span member support and char-prob means
    #   without any per-span slicing).
    def _eval_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(per-model precision[model, tid, metric],
        ensemble factor[support_mask, tid, metric]) lookup tables."""
        n_t = len(TYPE_LIST) + 1
        per_model = np.zeros((len(self.members), n_t, 4))
        for mi, m in enumerate(self.members):
            for t, ety in enumerate(TYPE_LIST):
                per_model[mi, t + 1] = self.eval[m.name][ety]
        n_masks = 1 << len(self.members)
        ens = np.zeros((n_masks, n_t, 4))
        for mask in range(n_masks):
            names = [m.name for mi, m in enumerate(self.members) if mask >> mi & 1]
            k = len(names)
            if k < 2:
                continue
            for t, ety in enumerate(TYPE_LIST):
                for metric in range(4):
                    cmax = max(self.eval[n][ety][metric] for n in names)
                    ens[mask, t + 1, metric] = cmax + (1.0 - cmax) * k / (
                        2 * self.num_models
                    )
        return per_model, ens

    def __call__(self, batch: pa.Table) -> pa.Table:
        sents: list[str] = batch.column("sentence").to_pylist()
        n = len(sents)
        if n == 0:
            return pa.table({k: [] for k in MENTION_SCHEMA.names}, schema=MENTION_SCHEMA)
        if not hasattr(self, "_pm_fact"):
            self._pm_fact, self._ens_fact = self._eval_factors()

        lens = np.fromiter((len(s) for s in sents), dtype=np.int64, count=n)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens + 1, out=starts[1:])  # +1 for the "\x00" joiner
        mega = "\x00".join(sents)
        L = len(mega) + 1

        # per-member match arrays + char arrays over the mega string
        member_tids = np.zeros((len(self.members), L), dtype=np.int16)
        prob_combined = np.full(L, BASE_CHAR_PROB)
        rows_model, rows_gs, rows_ge, rows_tid, rows_p = [], [], [], [], []
        for mi, m in enumerate(self.members):
            if isinstance(m, TrainedMember):
                # one vectorized whole-batch decode (see TrainedMember:
                # the \x00 joiner IS the featurizer's boundary mask value,
                # so mega decode ≡ per-sentence decode exactly)
                pred = m.mega_decode(mega)
                bio = m._bio_spans(pred)
                gs_l = [s for s, _e, _t in bio]
                ge_l = [e for _s, e, _t in bio]
                tid_l = [t for _s, _e, t in bio]
                p_l = m.span_probs(bio)
            else:
                found = m.matcher._re.finditer(mega) if m.matcher._re else ()
                gs_l, ge_l, tid_l, p_l = [], [], [], []
                types, probs, jits = m.matcher.types, m.prob, m.jitter
                for match in found:
                    surf = match.group(0)
                    s = match.start()
                    e = match.end() - jits[surf]
                    gs_l.append(s)
                    ge_l.append(e)
                    tid_l.append(_TID[types[surf]])
                    p_l.append(probs[surf])
            gs = np.asarray(gs_l, dtype=np.int64)
            ge = np.asarray(ge_l, dtype=np.int64)
            tid = np.asarray(tid_l, dtype=np.int16)
            pr = np.asarray(p_l)
            tids = member_tids[mi]
            for s, e, t, p in zip(gs_l, ge_l, tid_l, p_l):
                tids[s:e] = t
                cp = prob_combined[s:e]
                np.maximum(cp, p, out=cp)
            rows_model.append(mi)
            rows_gs.append(gs)
            rows_ge.append(ge)
            rows_tid.append(tid)
            rows_p.append(pr)

        # union (V2): member 0 base, fill O chars in member order;
        # < 2 members (dictionary-only config) ⇒ no ensemble rows
        if len(self.members) >= 2:
            union = member_tids[0].copy()
            for mi in range(1, len(self.members)):
                fill = (union == 0) & (member_tids[mi] != 0)
                union[fill] = member_tids[mi][fill]
            u_runs = runs(union)
        else:
            u_runs = []

        # strong (V3) on the union runs, fully vectorized
        ens_gs = ens_ge = ens_tid = ens_x3 = ens_mask = None
        if u_runs:
            r = np.asarray(u_runs, dtype=np.int64)
            rs, re_, rt = r[:, 0], r[:, 1], r[:, 2]
            nz_cum = np.zeros((len(self.members), L + 1), dtype=np.int64)
            np.cumsum(member_tids != 0, axis=1, out=nz_cum[:, 1:])
            support = (nz_cum[:, re_] - nz_cum[:, rs]) > 0  # (n_members, n_runs)
            mask_id = np.zeros(len(rs), dtype=np.int64)
            for mi in range(len(self.members)):
                mask_id |= support[mi].astype(np.int64) << mi
            k_support = support.sum(axis=0)
            keep = k_support >= 2
            if keep.any():
                ens_gs, ens_ge = rs[keep], re_[keep]
                ens_tid = rt[keep].astype(np.int16)
                ens_x3 = _span_means(prob_combined, ens_gs, ens_ge)
                ens_mask = mask_id[keep]
                ens_k = k_support[keep]

        # dictionary pass
        d_gs_l, d_ge_l, d_tid_l = [], [], []
        if self.dictionary._re is not None:
            for match in self.dictionary._re.finditer(mega):
                d_gs_l.append(match.start())
                d_ge_l.append(match.end())
                d_tid_l.append(_TID[self.dictionary.types[match.group(0)]])
        d_gs = np.asarray(d_gs_l, dtype=np.int64)
        d_ge = np.asarray(d_ge_l, dtype=np.int64)
        d_tid = np.asarray(d_tid_l, dtype=np.int16)

        # corroboration gate on standalone trained rows (see
        # TRAINED_REQUIRE_SUPPORT): keep a trained span iff another member
        # or the dictionary found EXACTLY the same [start, end) span
        if TRAINED_REQUIRE_SUPPORT:
            for ti, m in enumerate(self.members):
                if not isinstance(m, TrainedMember):
                    continue
                other_keys = [
                    rows_gs[mi] * np.int64(L) + rows_ge[mi]
                    for mi in range(len(rows_gs)) if mi != ti
                ] + [d_gs * np.int64(L) + d_ge]
                corroborated = (
                    np.unique(np.concatenate(other_keys))
                    if other_keys else np.zeros(0, np.int64)
                )
                keys = rows_gs[ti] * np.int64(L) + rows_ge[ti]
                keep = np.isin(keys, corroborated)
                rows_gs[ti] = rows_gs[ti][keep]
                rows_ge[ti] = rows_ge[ti][keep]
                rows_tid[ti] = rows_tid[ti][keep]
                rows_p[ti] = rows_p[ti][keep]

        # assemble output columns
        model_names = [m.name for m in self.members]
        parts = []  # (model_label, gs, ge, tid, probs(4,n), n_models)
        for mi, gs, ge, tid, pr in zip(
            rows_model, rows_gs, rows_ge, rows_tid, rows_p
        ):
            fact = self._pm_fact[mi, tid]  # (n, 4)
            parts.append(
                (model_names[mi], gs, ge, tid, (pr[:, None] * fact).T,
                 np.ones(len(gs), dtype=np.int8))
            )
        if ens_gs is not None:
            fact = self._ens_fact[ens_mask, ens_tid]  # (n, 4)
            parts.append(
                ("ensemble_strong", ens_gs, ens_ge, ens_tid,
                 (ens_x3[:, None] * fact).T, ens_k.astype(np.int8))
            )
        if len(d_gs):
            dp = np.asarray(DICT_PROBS)
            parts.append(
                ("dictionary", d_gs, d_ge, d_tid,
                 np.repeat(dp[:, None], len(d_gs), axis=1),
                 np.ones(len(d_gs), dtype=np.int8))
            )

        all_model = np.concatenate(
            [np.full(len(p[1]), i, dtype=np.int32) for i, p in enumerate(parts)]
        ) if parts else np.zeros(0, dtype=np.int32)
        label_pool = [p[0] for p in parts]
        all_gs = np.concatenate([p[1] for p in parts]) if parts else np.zeros(0, np.int64)
        all_ge = np.concatenate([p[2] for p in parts]) if parts else np.zeros(0, np.int64)
        all_tid = np.concatenate([p[3] for p in parts]) if parts else np.zeros(0, np.int16)
        all_probs = (
            np.concatenate([p[4] for p in parts], axis=1)
            if parts
            else np.zeros((4, 0))
        )
        all_k = np.concatenate([p[5] for p in parts]) if parts else np.zeros(0, np.int8)

        sent_idx = np.searchsorted(starts, all_gs, side="right") - 1
        local_s = (all_gs - starts[sent_idx]).astype(np.int32)
        local_e = (all_ge - starts[sent_idx]).astype(np.int32)
        ent_names = [mega[s:e] for s, e in zip(all_gs.tolist(), all_ge.tolist())]
        type_pool = ["?"] + list(TYPE_LIST)

        idx_arr = pa.array(sent_idx, pa.int64())
        take = lambda col: pa.compute.take(batch.column(col), idx_arr)  # noqa: E731
        sent_arr = pa.compute.take(pa.array(sents, pa.string()), idx_arr)
        return pa.table(
            {
                "url": take("url"),
                "sent_ord": take("sent_ord"),
                "sentence": sent_arr,
                "head_entity": take("head_entity"),
                "head_type": take("head_type"),
                "paragraph": take("paragraph"),
                "model": pa.DictionaryArray.from_arrays(
                    pa.array(all_model), pa.array(label_pool, pa.string())
                ).cast(pa.string()),
                "ent_name": pa.array(ent_names, pa.string()),
                "ent_type": pa.DictionaryArray.from_arrays(
                    pa.array(all_tid.astype(np.int32)),
                    pa.array(type_pool, pa.string()),
                ).cast(pa.string()),
                "start": pa.array(local_s, pa.int32()),
                "end": pa.array(local_e, pa.int32()),
                "prob_strict": pa.array(all_probs[0], pa.float64()),
                "prob_partial": pa.array(all_probs[1], pa.float64()),
                "prob_exact": pa.array(all_probs[2], pa.float64()),
                "prob_type": pa.array(all_probs[3], pa.float64()),
                "n_models": pa.array(all_k, pa.int8()),
            },
            schema=MENTION_SCHEMA,
        )


_STAGES: dict = {}


def memo_stage(key, build):
    """Per-process memo of the stateful NER stages, which run as Ray tasks.

    Ray reuses worker processes, so each worker calls ``build()`` once per
    ``key`` and every later task on it reuses the stage.  The key must
    name everything the stage is built from."""
    stage = _STAGES.get(key)
    if stage is None:
        stage = _STAGES[key] = build()
    return stage


def ensemble_batch(batch: pa.Table) -> pa.Table:
    """The default ``EnsembleNER`` as a ``map_batches`` task function."""
    return memo_stage("ensemble", EnsembleNER)(batch)
