"""Single-process straight-line oracle for the P/R ≥ 0.95 parity gate.

SURVEY §5 target strategy / §7.4 hard part 1: the reference's model ``.pkl``
weights are missing, so parity is defined against a deterministic
single-process implementation of the cited semantics.  This oracle runs the
same per-record pure functions as the distributed pipeline but composed as
one sequential loop — no Ray, no batching, no shuffles — so the e2e test
verifies that the Ray orchestration (batch explosion, actor pooling,
batch-local dedup, two-phase aggregation, content-hash ids) changes
nothing about the result set at any parallelism.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..sources.pages import pages_table
from ..stages.canonicalize import node_id, normalize_surface
from ..stages.cleansing import classify_taboo, confidence_rules_df, taboo_group
from ..stages.extract import extract_html
from ..stages.ner import EnsembleNER
from ..stages.rules_stage import RulesMerge
from ..stages.sentences import split_document
from ..stages.triples import strip_boundaries

_MENTION_COLS = [
    "url", "sent_ord", "sentence", "head_entity", "head_type", "paragraph",
    "model", "ent_name", "ent_type", "start", "end",
    "prob_strict", "prob_partial", "prob_exact", "prob_type", "n_models",
]


def oracle_triples(n_pages: int) -> pd.DataFrame:
    """pages[0..n) → triple DataFrame, sequentially (one loop, no Ray)."""
    pages = pages_table(n_pages)
    ner = EnsembleNER()
    rules = RulesMerge()
    rows = []
    for url, html, lang in zip(
        pages["url"].to_pylist(),
        pages["html"].to_pylist(),
        pages["lang"].to_pylist(),
    ):
        if lang != "zh":
            continue
        text = extract_html(html)
        for sent_ord, (sentence, head, head_type, paragraph) in enumerate(
            split_document(text)
        ):
            mentions = []
            for (model, ent, ety, s, e, p1, p2, p3, p4, k) in ner._sentence_mentions(
                sentence
            ):
                ent2, s2, e2 = strip_boundaries(ent, s, e)
                if len(ent2) >= 2:
                    mentions.append(
                        (url, sent_ord, sentence, head, head_type, paragraph,
                         model, ent2, ety, s2, e2, p1, p2, p3, p4, k)
                    )
            mdf = pd.DataFrame(mentions, columns=_MENTION_COLS)
            # E4/E5 rule merging — same augment path as the Ray stage
            sent_row = pd.DataFrame(
                [
                    {
                        "url": url, "sent_ord": sent_ord, "sentence": sentence,
                        "head_entity": head, "head_type": head_type,
                        "paragraph": paragraph,
                    }
                ]
            )
            new = rules.augment(sent_row, mdf)
            if len(new):
                new = new[_MENTION_COLS]
                mdf = (
                    new if not len(mdf) else pd.concat([mdf, new], ignore_index=True)
                )
            # D2 max-prob dedup, deterministic tiebreak on model name
            mdf = mdf.sort_values(
                ["prob_strict", "model"], ascending=[False, True], kind="mergesort"
            ).drop_duplicates(["ent_name", "ent_type", "start"], keep="first")
            # O15 confidence cleansing
            mdf = confidence_rules_df(mdf)
            for r in mdf.itertuples():
                rows.append(
                    (head, head_type, paragraph, r.ent_name, r.ent_type,
                     r.prob_strict, url, sent_ord)
                )
                if paragraph == "TABOO" and r.ent_type == "DRU":
                    rel = classify_taboo(sentence)
                    grp = taboo_group(sentence)
                    if rel and grp:
                        rows.append(
                            (r.ent_name, "DRU", rel, grp, "GRP",
                             r.prob_strict, url, sent_ord)
                        )
    df = pd.DataFrame(
        rows,
        columns=[
            "subj", "subj_type", "pred", "obj", "obj_type", "prob", "url", "sent_ord",
        ],
    ).astype({"sent_ord": "int32"})  # TRIPLE_SCHEMA's dtype
    # explicit taboo triples dedup per sentence (mirror emit_triples_df)
    taboo_mask = df["obj_type"] == "GRP"
    taboo_dedup = df[taboo_mask].drop_duplicates(
        ["url", "sent_ord", "subj", "pred", "obj"]
    )
    return pd.concat([df[~taboo_mask], taboo_dedup], ignore_index=True)


def oracle_nodes(triples: pd.DataFrame) -> pd.DataFrame:
    ends = pd.concat(
        [
            triples[["subj", "subj_type", "prob"]].rename(
                columns={"subj": "surface", "subj_type": "type"}
            ),
            triples[["obj", "obj_type", "prob"]].rename(
                columns={"obj": "surface", "obj_type": "type"}
            ),
        ],
        ignore_index=True,
    )
    # keyed on the node id, as oracle_edges: pandas object hashing would
    # merge names that differ only after a NUL
    ends["node_id"] = [node_id(s, t) for s, t in zip(ends["surface"], ends["type"])]
    ends["canonical_name"] = ends["surface"].map(normalize_surface)
    out = (
        ends.groupby("node_id", sort=False)
        .agg(canonical_name=("canonical_name", "first"), type=("type", "first"),
             n_mentions=("surface", "size"), prob_max=("prob", "max"))
        .reset_index()
    )
    from ..stages.canonicalize import ontology_ids

    out["ontology_id"] = ontology_ids(out["type"]).to_numpy(zero_copy_only=False)
    return out[["node_id", "canonical_name", "type", "ontology_id",
                "n_mentions", "prob_max"]]


def oracle_edges(triples: pd.DataFrame) -> pd.DataFrame:
    df = triples.copy()
    df["subj_id"] = [node_id(s, t) for s, t in zip(df["subj"], df["subj_type"])]
    df["obj_id"] = [node_id(o, t) for o, t in zip(df["obj"], df["obj_type"])]
    # grouped on pred's Arrow dictionary code: pandas object hashing would
    # merge preds that differ only after a NUL
    df["pred_code"] = (
        pa.array(df["pred"], pa.string()).dictionary_encode().indices.to_numpy()
    )
    out = (
        df.groupby(["subj_id", "pred_code", "obj_id"], sort=False)
        .agg(pred=("pred", "first"), weight=("prob", "max"),
             n_evidence=("prob", "size"))
        .reset_index()
        .sort_values("subj_id", kind="mergesort")
        .reset_index(drop=True)
    )
    return out[["subj_id", "pred", "obj_id", "weight", "n_evidence"]]
