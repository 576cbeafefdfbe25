"""RulesMerge stage: mention table → mention table + rule-merged
entities (the distributed packaging of STEP4/5/6,
``clean_and_save.py:605-709``).

Consumes mention batches (every mention of a sentence is batch-local, the
NER stage's contract), reconstructs per-sentence state, tokenizes (O7),
folds ensemble spans into the seg (E4), runs the fixed merge-pass sequence
(E5: round_1 + round_2) and emits NEW entities discovered by merging as
additional mention rows under model ``"rules"``.

Confidence for a merged entity follows the reference's rule-merged prob
assignment (A8 flavor, ``clean_and_save.py:646-690``): the mean strict
confidence of the constituent mentions inside the merged span, boosted by
+0.5 and capped — ``min(mean + 0.5, 0.98)``; 0.75 when no constituent
mention exists.

A vectorized prefilter skips sentences that cannot fire any rule (see
``merge_rules.rules_applicable`` — two essential tags within distance 2 or
an entity followed by a suffix word), so the per-sentence Python cost is
paid only where merging is possible.
"""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa

from ..ontology import ESSENTIAL_TYPES, MEDICAL_GAZETTEER, SUFFIX_DICT
from .merge_rules import apply_rounds
from .tokenize import Tokenizer

RULES_MODEL = "rules"
RULES_BASE_PROB = 0.75
RULES_CAP = 0.98

def _trigger_regex(gaz: dict[str, str]) -> re.Pattern:
    """Sentence-level CAN-ANY-RULE-FIRE trigger.

    A merge pass can only fire when (a) two entity tokens sit within one
    middle token of ≤ 7 chars of each other — any longer and the merged
    surface hits the len ≥ 12 veto for 2-char ends — with no veto char
    (、 , :) between, or (b) an entity token is directly followed by a
    suffix-lexicon word (E3).  Encoded as ONE compiled regex over the raw
    sentence, this skips tokenization entirely for the (vast) majority of
    sentences that cannot fire anything.  Slightly over-triggers (the
    filler need not be a single token) — never under-triggers; and the
    oracle shares this exact code path, so parity is structural.
    """
    terms = "|".join(re.escape(t) for t in sorted(gaz, key=len, reverse=True))
    suffixes = "|".join(
        re.escape(w) for w in sorted(SUFFIX_DICT, key=len, reverse=True)
    )
    return re.compile(
        f"(?:{terms})(?:[^、，,:：]{{0,7}}(?:{terms})|(?:{suffixes}))"
    )


def merged_prob(constituent_probs: list[float]) -> float:
    if not constituent_probs:
        return RULES_BASE_PROB
    return min(sum(constituent_probs) / len(constituent_probs) + 0.5, RULES_CAP)


class RulesMerge:
    """Actor-pool ``map_batches`` stage (tokenizer automaton built once)."""

    def __init__(self, gazetteer: dict[str, str] | None = None):
        gaz = gazetteer or MEDICAL_GAZETTEER
        # suffix words become standalone "n" tokens so E3 can see them;
        # real gazetteer entries win on conflict (longest-match regardless)
        tok_terms = {**{w: "n" for w in SUFFIX_DICT}, **gaz}
        self.tokenizer = Tokenizer(tok_terms)
        self.trigger = _trigger_regex(gaz)

    def process_sentence(
        self,
        sentence: str,
        mentions: list[tuple[str, str, str, int, int, float]],
    ) -> list[tuple[str, str, int, int, float]]:
        """One sentence's mention tuples (model, ent_name, ent_type, start,
        end, prob_strict) → [(surface, type, start, end, prob)] newly
        created by rule merging (pure; shared with the oracle)."""
        seg = self.tokenizer.tokenize(sentence)
        ens = [
            (name, ety, s, e)
            for (model, name, ety, s, e, _p) in mentions
            if model == "ensemble_strong"
        ]
        seg = apply_rounds(seg, sentence, ens)
        existing = {(s, e, ety) for (_m, _n, ety, s, e, _p) in mentions}
        out = []
        for word, tag, s, e in seg:
            if tag not in ESSENTIAL_TYPES or (s, e, tag) in existing:
                continue
            consts = [
                p for (_m, _n, _t, ms, me, p) in mentions if ms >= s and me <= e
            ]
            out.append((word, tag, s, e, merged_prob(consts)))
        return out

    def augment(
        self, sents: pd.DataFrame, mentions: pd.DataFrame
    ) -> pd.DataFrame:
        """Sentence rows (url, sent_ord, sentence, head_entity, head_type,
        paragraph) + that batch's mention rows → NEW rules-mention rows.

        Processes EVERY sentence the trigger regex marks as able to fire a
        rule — including zero-mention sentences (a 1-char organ dropped by
        O14 plus a suffix word still merges, e.g. 胃+肿大 → 胃肿大/SYM).
        """
        cand = sents[sents["sentence"].str.contains(self.trigger, regex=True)]
        if not len(cand):
            return pd.DataFrame()
        # one columnar → tuple-list conversion for the whole batch (tiny
        # per-sentence DataFrames + itertuples dominate otherwise)
        groups: dict[tuple, list[tuple]] = {}
        if len(mentions):
            it = zip(
                mentions["url"].tolist(), mentions["sent_ord"].tolist(),
                mentions["model"].tolist(), mentions["ent_name"].tolist(),
                mentions["ent_type"].tolist(), mentions["start"].tolist(),
                mentions["end"].tolist(), mentions["prob_strict"].tolist(),
            )
            for url, ordn, model, name, ety, s, e, p in it:
                groups.setdefault((url, ordn), []).append(
                    (model, name, ety, s, e, p)
                )
        new_rows: list[dict] = []
        for row in cand.itertuples():
            grp = groups.get((row.url, row.sent_ord), [])
            for word, tag, s, e, prob in self.process_sentence(row.sentence, grp):
                new_rows.append(
                    dict(
                        url=row.url, sent_ord=row.sent_ord, sentence=row.sentence,
                        head_entity=row.head_entity, head_type=row.head_type,
                        paragraph=row.paragraph, model=RULES_MODEL,
                        ent_name=word, ent_type=tag, start=s, end=e,
                        prob_strict=prob, prob_partial=prob, prob_exact=prob,
                        prob_type=prob, n_models=0,
                    )
                )
        return pd.DataFrame(new_rows)
