"""Entity-confidence cleansing (O15) + taboo relation classifier (O16).

O15 mirrors the reference's final vectorized mask rules over the mention
table (``clean_and_save.py:1323-1469``), applied to the strict confidence:

1. 1-char mentions (type ∉ {AT, ORG, DEG, BFL}) → conf/4;
2. 2-char mentions of {SYM, TES, DIS, SUR, EQM} with conf ≥ 0.2 → conf/3;
3. surfaces ending 触及/闻及 → 0.01;
4. splitter-containing surfaces (，,；;:：。, no bracket, conf ≥ 0.2) →
   conf/4 plus re-split sub-entities: 伴有-class prefixes stripped (conf =
   original), elimination-list starts dropped, others at 3 × reduced conf,
   first segment boosted (``c + (1-c)/2`` on the original conf); emitted
   under ``model + "_cleaned"``;
5. unbalanced trailing bracket or trailing 或/和/及/等/与 (conf ≥ 0.2) →
   conf/3 + truncated copy boosted;
6. trailing-open-bracket surfaces (conf ≥ 0.3) → conf/2 + prefix copy
   boosted;
7. trailing 性/型 (conf ≥ 0.3, except 典型/血型/阳性/变性) → conf/2;
8. trailing 下/中/前/上 ({DIS,SYM,SUR,EQM,TES}, except 卒中/低下) → conf/3;
9. trailing 时 (same types) → conf × 0.8.

All rules are row-local → the same pure pandas function serves the Ray
``map_batches`` stage and the single-process oracle.

O16 (``pre_labeling.py:326-376``): keyword-priority relation classification
for taboo sentences — caution < notrecommended < prohibited (later lists
override), 调整用量 remapped to 慎用人群; explicit (drug, relation, group)
triples are emitted for drug mentions co-occurring with a population-group
keyword.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..ontology import (
    TABOO_CAUTION,
    TABOO_GROUPS,
    TABOO_NOTRECOMMENDED,
    TABOO_PROHIBITED,
)

COMPANIONED = ("伴有", "合并", "常伴", "并发", "有时", "伴或", "多发", "多伴", "以及", "如")
ELIMINATION = (
    "预防", "晚期", "术后", "成人", "影响", "其他", "由于", "有时", "有无", "但",
    "一般", "但无", "主要", "切除", "固定", "养血", "术中", "过敏", "处理", "遵守",
    "常", "其", "使用", "多于", "仅",
)
_SPLITTERS = "，,；;:：。"
import re as _re
_SPLIT_RE = _re.compile(f"[{_SPLITTERS}]")


def confidence_rules_df(df: pd.DataFrame) -> pd.DataFrame:
    """Apply O15 to a mention table (columns ent_name, ent_type, start, end,
    model, prob_strict/partial/exact/type).  Returns the table with adjusted
    confidences plus appended ``*_cleaned`` sub-entity rows."""
    df = df.reset_index(drop=True)
    name = df["ent_name"].astype(str)
    conf = df["prob_strict"].to_numpy(copy=True)
    etype = df["ent_type"]

    m = (name.str.len() == 1) & ~etype.isin(["AT", "ORG", "DEG", "BFL"])
    conf[m.to_numpy()] /= 4

    m = (
        (name.str.len() == 2)
        & etype.isin(["SYM", "TES", "DIS", "SUR", "EQM"])
        & (conf >= 0.2)
    )
    conf[m.to_numpy()] /= 3

    m = name.str.endswith(("触及", "闻及"))
    conf[m.to_numpy()] = 0.01

    new_rows: list[dict] = []

    # rule 4: splitter re-split
    has_split = name.str.contains(f"[{_SPLITTERS}]", regex=True)
    has_bracket = name.str.contains(r"[（(\[]", regex=True)
    m4 = (has_split & ~has_bracket & (conf >= 0.2)).to_numpy()
    orig4 = conf[m4].copy()
    conf[m4] /= 4
    for row_idx, orig in zip(np.flatnonzero(m4), orig4):
        row = df.iloc[row_idx]
        surface = str(row["ent_name"])
        pieces = _SPLIT_RE.split(surface)
        head = int(row["start"])
        for order, piece in enumerate(pieces, start=1):
            piece_start = head
            head += len(piece) + 1  # +1 for the splitter char
            if len(piece) <= 2:
                continue
            sub_conf = orig + (1 - orig) / 2
            if order >= 2:
                pref = next((c for c in COMPANIONED if piece.startswith(c)), None)
                if pref is not None:
                    piece = piece[len(pref):]
                    piece_start += len(pref)
                    sub_conf = orig
                elif any(piece.startswith(c) for c in ELIMINATION):
                    continue
                else:
                    sub_conf = 3 * (orig / 4)
            new = row.to_dict()
            new.update(
                ent_name=piece, start=piece_start, end=piece_start + len(piece),
                prob_strict=sub_conf, prob_partial=sub_conf, prob_exact=sub_conf,
                prob_type=sub_conf, model=str(row["model"]) + "_cleaned",
            )
            new_rows.append(new)

    # rule 5: unbalanced trailing chars
    unb = (
        (name.str.endswith("]") & ~name.str.contains(r"\["))
        | (name.str.endswith(")") & ~name.str.contains(r"\("))
        | name.str.endswith(tuple("<【[(（"))
        | name.str.endswith(tuple("或和及等与"))
    )
    m5 = (unb & (conf >= 0.2)).to_numpy()
    orig5 = conf[m5].copy()
    conf[m5] /= 3
    for row_idx, orig in zip(np.flatnonzero(m5), orig5):
        row = df.iloc[row_idx]
        piece = str(row["ent_name"])[:-1]
        if len(piece) <= 2:
            continue
        reduced = orig / 3
        boosted = reduced + (1 - reduced) / 2
        new = row.to_dict()
        new.update(
            ent_name=piece, end=int(row["end"]) - 1,
            prob_strict=boosted, prob_partial=boosted, prob_exact=boosted,
            prob_type=boosted, model=str(row["model"]) + "_cleaned",
        )
        new_rows.append(new)

    # rule 6: surface ends with an opening bracket → keep the prefix
    # (clean_and_save.py:1427-1449; overlaps rule 5 as in the reference)
    m6 = (name.str.endswith(tuple("[(（【")) & (conf >= 0.3)).to_numpy()
    orig6 = conf[m6].copy()
    conf[m6] /= 2
    for row_idx, orig in zip(np.flatnonzero(m6), orig6):
        row = df.iloc[row_idx]
        surface = str(row["ent_name"])
        cut = min((surface.index(c) for c in "（([【" if c in surface), default=-1)
        if cut <= 2:
            continue
        piece = surface[:cut]
        reduced = orig / 2
        boosted = reduced + (1 - reduced) / 2
        new = row.to_dict()
        new.update(
            ent_name=piece, end=int(row["start"]) + len(piece),
            prob_strict=boosted, prob_partial=boosted, prob_exact=boosted,
            prob_type=boosted, model=str(row["model"]) + "_cleaned",
        )
        new_rows.append(new)

    m = (name.str.endswith(tuple("性型"))
         & ~name.str.endswith(("典型", "血型", "阳性", "变性"))) & (conf >= 0.3)
    conf[m.to_numpy()] /= 2

    core = etype.isin(["DIS", "SYM", "SUR", "EQM", "TES"])
    m = (name.str.endswith(tuple("下中前上"))
         & core & ~name.str.endswith(("卒中", "低下")))
    conf[m.to_numpy()] /= 3

    m = name.str.endswith("时") & core
    conf[m.to_numpy()] *= 0.8

    df = df.copy()
    scale = conf / np.where(df["prob_strict"].to_numpy() == 0, 1.0,
                            df["prob_strict"].to_numpy())
    df["prob_strict"] = conf
    for col in ("prob_partial", "prob_exact", "prob_type"):
        df[col] = df[col].to_numpy() * scale
    if new_rows:
        df = pd.concat([df, pd.DataFrame(new_rows)], ignore_index=True)
    return df


# -- O16: taboo relation classification --------------------------------------

def classify_taboo(sentence: str) -> str | None:
    """Keyword-priority relation: caution < notrecommended < prohibited
    (later override), then 调整用量 → 慎用人群 remap."""
    taboo = None
    if any(t in sentence for t in TABOO_CAUTION):
        taboo = "调整用量"
    if any(t in sentence for t in TABOO_NOTRECOMMENDED):
        taboo = "慎用人群"
    if any(t in sentence for t in TABOO_PROHIBITED):
        taboo = "禁用人群"
    if taboo == "调整用量":
        taboo = "慎用人群"
    return taboo


def taboo_group(sentence: str) -> str | None:
    """First population-group keyword present in the sentence."""
    return next((g for g in TABOO_GROUPS if g in sentence), None)
