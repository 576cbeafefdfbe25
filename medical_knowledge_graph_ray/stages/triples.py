"""Mention cleanup, max-prob dedup and (subj, pred, obj) triple emission.

* **Boundary strip (O14)** — the reference strips leading/trailing
  punctuation from mention surfaces with offset fixup, applied repeatedly
  (``head_process`` ``clean_and_save.py:359-386``, invoked 3+2 rounds at
  ``:534-544``); mentions shrinking below 2 chars are blanked and dropped.
  Re-expressed as a vectorized-ish fixpoint strip per row.

* **Max-prob dedup (D2)** — the reference sorts by prob desc and keeps the
  first row per ``(ind, ent_name, ent_type, start)``
  (``clean_and_save.py:1081-1082``).  Here the key includes ``(url,
  sent_ord)`` and the dedup is **batch-local, shuffle-free**: the NER stage
  emits every mention of a sentence inside one batch, so all duplicate
  candidates are co-located by construction.  PARTITIONING ASSUMPTION:
  mention rows for one sentence never span batches (guaranteed because the
  NER stage explodes each sentence row into its mentions within a single
  output batch and no repartition runs in between).

* **Triple emission** — the reference's implicit triple model (SURVEY §0):
  (head entity, paragraph/relation, mention) per sentence, with the
  mention's calibrated strict prob.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

BOUNDARY_CHARS = set(",，：:、【】[]-.。&*！= ")

TRIPLE_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("subj_type", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_type", pa.string()),
        ("prob", pa.float64()),
        ("url", pa.string()),
        ("sent_ord", pa.int32()),
    ]
)

DEDUP_KEY = ["url", "sent_ord", "ent_name", "ent_type", "start"]


def strip_boundaries(surface: str, start: int, end: int) -> tuple[str, int, int]:
    """Fixpoint boundary-punctuation strip with offset fixup (O14)."""
    while surface and surface[0] in BOUNDARY_CHARS:
        surface, start = surface[1:], start + 1
    while surface and surface[-1] in BOUNDARY_CHARS:
        surface, end = surface[:-1], end - 1
    return surface, start, end


def clean_mentions_df(df: pd.DataFrame) -> pd.DataFrame:
    """O14 boundary strip + drop len<2 survivors (vector mask first: rows
    with clean boundaries pass through untouched)."""
    ent = df["ent_name"].astype(str)
    dirty = ent.str.len().eq(0)
    first = ent.str[0].fillna("")
    last = ent.str[-1].fillna("")
    needs = first.isin(BOUNDARY_CHARS) | last.isin(BOUNDARY_CHARS)
    if needs.any():
        idx = df.index[needs]
        fixed = [
            strip_boundaries(e, s, en)
            for e, s, en in zip(
                df.loc[idx, "ent_name"], df.loc[idx, "start"], df.loc[idx, "end"]
            )
        ]
        df.loc[idx, "ent_name"] = [f[0] for f in fixed]
        # keep the column dtype (int32): a bare Python-int list assignment
        # warns (and will raise) on dtype widening in future pandas
        df.loc[idx, "start"] = np.asarray(
            [f[1] for f in fixed], dtype=df["start"].dtype
        )
        df.loc[idx, "end"] = np.asarray(
            [f[2] for f in fixed], dtype=df["end"].dtype
        )
    keep = df["ent_name"].str.len() >= 2
    return df[keep & ~dirty]


def clean_mentions_batch(batch: pa.Table) -> pa.Table:
    """Arrow wrapper around :func:`clean_mentions_df`."""
    return pa.Table.from_pandas(
        clean_mentions_df(batch.to_pandas()), schema=batch.schema,
        preserve_index=False,
    ).replace_schema_metadata(None)


def dedup_mentions_df(df: pd.DataFrame) -> pd.DataFrame:
    """D2 max-prob dedup per (url, sent_ord, ent_name, ent_type, start) —
    batch-local (see module docstring).  Deterministic tiebreak on model
    name so results are order-independent."""
    df = df.sort_values(
        ["prob_strict", "model"], ascending=[False, True], kind="mergesort"
    ).drop_duplicates(DEDUP_KEY, keep="first")
    return df.sort_values(["url", "sent_ord", "start"], kind="mergesort")


def dedup_mentions_batch(batch: pa.Table) -> pa.Table:
    """Arrow wrapper around :func:`dedup_mentions_df`."""
    return pa.Table.from_pandas(
        dedup_mentions_df(batch.to_pandas()), schema=batch.schema,
        preserve_index=False,
    ).replace_schema_metadata(None)


def emit_triples_df(df: pd.DataFrame) -> pd.DataFrame:
    """Deduped mention rows → triple rows.

    * implicit triples: (head entity, paragraph/relation, mention) — the
      reference's core triple model (SURVEY §0);
    * explicit taboo triples (O16, ``pre_labeling.py:313-376``): for DRU
      mentions in TABOO sentences that also name a population group, emit
      (drug, 禁用人群/慎用人群, group) with obj_type GRP, deduplicated per
      sentence.
    """
    from .cleansing import classify_taboo, taboo_group

    out = pd.DataFrame(
        {
            "subj": df["head_entity"],
            "subj_type": df["head_type"],
            "pred": df["paragraph"],
            "obj": df["ent_name"],
            "obj_type": df["ent_type"],
            "prob": df["prob_strict"],
            "url": df["url"],
            "sent_ord": df["sent_ord"],
        }
    )
    taboo = df[(df["paragraph"] == "TABOO") & (df["ent_type"] == "DRU")]
    if len(taboo):
        rows = []
        for r in taboo.itertuples():
            rel = classify_taboo(r.sentence)
            grp = taboo_group(r.sentence)
            if rel and grp:
                rows.append(
                    (r.ent_name, "DRU", rel, grp, "GRP", r.prob_strict,
                     r.url, r.sent_ord)
                )
        if rows:
            explicit = pd.DataFrame(rows, columns=list(TRIPLE_SCHEMA.names))
            explicit = explicit.drop_duplicates(
                ["url", "sent_ord", "subj", "pred", "obj"]
            )
            out = pd.concat([out, explicit], ignore_index=True)
    return out
