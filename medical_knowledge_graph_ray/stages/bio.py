"""NER training-data path: BIO encode/export/parse + deterministic splits.

Reference analogues:

* **O10 BIO encoder** (``get_BI_word``, ``generation.py:64-98``): one char
  per line, ``char\\tB-TYPE`` / ``char\\tI-TYPE`` / ``char\\tO``, blank line
  between sentences.
* **S4 BIO writer** (``generation.py:433-460``): train/val/test files.
* **S5 BIO parser** (``multi_ner_prediction.py:329-355``): line-based,
  blank line = sentence boundary, tab-or-space split.
* **R6 split** (``generation.py:446-455``): the reference splits by
  positional index ``i%80==0`` → val, ``i%90==0`` → test — order-dependent
  and parallelism-hostile (SURVEY §4 Ordering).  This engine derives the
  split from a stable content hash of ``(url, sent_ord)`` with the same
  marginal rates (1/80 val, 1/90 test, rest train).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.hashing import md5_int
from ..ontology import (
    NONESSENTIAL_GAZETTEER,
    NONESSENTIAL_JIEBA,
    NONTEST_WORDS,
    OVERLAY_TYPES,
)

_E6_VETO = ("、", "；", "，", ";")


def overlay_nonessential(
    seg: list[list], ner_spans: list[tuple[str, str, int, int]]
) -> list[list]:
    """E6 nonessential-tag overlay (``generation.py:216-238``): NER spans
    of the FW/DEG/AT/DUR/PSB/PT types replace a seg token's tag when the
    boundaries match EXACTLY; spans whose surface contains 、；，; are
    skipped.  Mutates and returns ``seg`` (tokens are [word, tag, s, e])."""
    if not ner_spans:
        return seg
    bounds = {(t[2], t[3]): i for i, t in enumerate(seg)}
    for surf, ety, s, e in ner_spans:
        if ety not in OVERLAY_TYPES:
            continue
        if any(v in surf for v in _E6_VETO):
            continue
        i = bounds.get((s, e))
        if i is not None:
            seg[i][1] = ety
    return seg


def problematic_removal(seg: list[list]) -> list[list]:
    """E7 problematic-entity removal (``generation.py:347-414``):

    * a token whose word ends with any NONTEST word → tag ``'rm'``;
    * else a token containing 、/； (len ≥ 2) splits into pieces keeping
      the original tag, the splitter chars becoming ``'rm'`` tokens —
      UNLESS any non-empty piece is ≤ 2 chars (the reference's
      ``min(splitted_test) <= 2 → continue`` guard keeps short runs
      intact).

    Offsets are recomputed EXACTLY: one 'rm' token per splitter char, so
    the output always re-partitions the input span (documented
    divergence: the reference drops the separator token before an empty
    piece, generation.py:401-414, leaving all following offsets short by
    one for consecutive splitters — the same class of off-by-one its own
    ``lengthcleaner`` exists to patch, SURVEY §7.4)."""
    out: list[list] = []
    for word, tag, s, e in seg:
        if any(word.endswith(nt) for nt in NONTEST_WORDS):
            out.append([word, "rm", s, e])
            continue
        splitter = next((c for c in ("、", "；") if c in word), None)
        if splitter is not None and len(word) >= 2:
            pieces = word.split(splitter)
            lens = [len(p) for p in pieces if p]
            if lens and min(lens) <= 2:
                out.append([word, tag, s, e])
                continue
            pos = s
            for i, piece in enumerate(pieces):
                if piece:
                    out.append([piece, tag, pos, pos + len(piece)])
                    pos += len(piece)
                if i != len(pieces) - 1:  # one rm token per splitter char
                    out.append([splitter, "rm", pos, pos + 1])
                    pos += 1
            continue
        out.append([word, tag, s, e])
    return out


def bio_encode(sentence: str, spans: list[tuple[int, int, str]]) -> str:
    """O10: sentence + [start, end) typed spans → char-per-line BIO block."""
    tags = ["O"] * len(sentence)
    for s, e, ety in spans:
        for i in range(s, min(e, len(sentence))):
            tags[i] = ("B-" if i == s else "I-") + ety
    return "\n".join(f"{ch}\t{tag}" for ch, tag in zip(sentence, tags))


def bio_decode(block: str) -> tuple[str, list[tuple[int, int, str]]]:
    """S5: one BIO block → (sentence, spans).  Tab or space separated;
    B- starts a span, I- extends, anything else closes."""
    chars: list[str] = []
    spans: list[tuple[int, int, str]] = []
    cur_start, cur_type = -1, None
    for line in block.splitlines():
        if not line.strip():
            continue
        parts = line.split("\t") if "\t" in line else line.rsplit(" ", 1)
        ch, tag = (parts[0], parts[1]) if len(parts) == 2 else (parts[0], "O")
        i = len(chars)
        chars.append(ch)
        if tag.startswith("B-"):
            if cur_type is not None:
                spans.append((cur_start, i, cur_type))
            cur_start, cur_type = i, tag[2:]
        elif tag.startswith("I-") and cur_type == tag[2:]:
            pass
        else:
            if cur_type is not None:
                spans.append((cur_start, i, cur_type))
            cur_start, cur_type = -1, None
    if cur_type is not None:
        spans.append((cur_start, len(chars), cur_type))
    return "".join(chars), spans


def split_of(url: str, sent_ord: int) -> str:
    """R6: content-stable train/val/test assignment (1/80 val, 1/90 test)."""
    h = md5_int(f"split|{url}|{sent_ord}", bits=32)
    if h % 80 == 0:
        return "val"
    if h % 90 == 0:
        return "test"
    return "train"


def split_heldout_mask(urls, ords):
    """Vectorized ``split_of(u, o) != 'train'`` over aligned Arrow columns
    (identical md5 contract — the message string and modulo tests match the
    scalar form bit-for-bit).  Returns a numpy bool mask."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.hashing import md5_int_vec

    msg = pc.binary_join_element_wise(
        pa.scalar("split"), urls, pc.cast(ords, pa.string()), pa.scalar("|")
    )
    h = md5_int_vec(msg, bits=32)
    return (h % 80 == 0) | (h % 90 == 0)


_TRAINING_STATE: dict = {}


def _training_state():
    """Process-cached tokenizer + non-essential matcher for the training
    path (Ray reuses worker processes, so this builds once per worker).

    The tokenizer's lexicon adds the non-essential words with their
    lowercase jieba flags (config.yaml jieba_inverted) — the userdict
    analogue; the E6 overlay then upgrades exact-boundary matches to the
    uppercase NER type.  The NONESSENTIAL matcher stands in for the
    missing models' non-essential predictions (SURVEY §0)."""
    if not _TRAINING_STATE:
        from ..ontology import MEDICAL_GAZETTEER
        from .ner import GazetteerMatcher
        from .tokenize import Tokenizer

        lex = {
            **{w: NONESSENTIAL_JIEBA[t] for w, t in NONESSENTIAL_GAZETTEER.items()
               if t in NONESSENTIAL_JIEBA},
            **MEDICAL_GAZETTEER,
        }
        _TRAINING_STATE["tokenizer"] = Tokenizer(lex)
        _TRAINING_STATE["ne_matcher"] = GazetteerMatcher(NONESSENTIAL_GAZETTEER)
    return _TRAINING_STATE["tokenizer"], _TRAINING_STATE["ne_matcher"]


def training_spans(sentence: str, essential: list[tuple[int, int, str]]):
    """One sentence's final training spans: essential mention spans (E7
    nontest-suffix entities dropped) + non-essential seg tokens after the
    E6 overlay and E7 removal."""
    tokenizer, ne_matcher = _training_state()
    taken: list[tuple[int, int, str]] = []
    occupied = [False] * len(sentence)
    for s, e, ety in essential:
        if any(occupied[s:e]):
            continue
        if any(sentence[s:e].endswith(nt) for nt in NONTEST_WORDS):  # E7 'rm'
            continue
        for i in range(s, min(e, len(sentence))):
            occupied[i] = True
        taken.append((s, e, ety))

    seg = tokenizer.tokenize(sentence)
    ner_spans = [
        (surf, NONESSENTIAL_GAZETTEER[surf], s, e)
        for s, e, surf in ne_matcher.find(sentence)
    ]
    seg = overlay_nonessential(seg, ner_spans)
    seg = problematic_removal(seg)
    for word, tag, s, e in seg:
        if tag in OVERLAY_TYPES and not any(occupied[s:e]):
            for i in range(s, min(e, len(sentence))):
                occupied[i] = True
            taken.append((s, e, tag))
    taken.sort()
    return taken


def bio_export_batch(batch: pa.Table) -> pa.Table:
    """Deduped mention batch → one BIO block row per sentence with its
    split assignment: (url, sent_ord, split, bio).  Dictionary + ensemble
    mentions define the essential spans (the reference's dict+model
    pre-labeling); the E6 nonessential overlay and E7 problematic-entity
    removal then shape the final training tags (``generation.py:216-238,
    347-414``)."""
    df = batch.to_pandas()
    rows = []
    for (url, ordn), grp in df.groupby(["url", "sent_ord"], sort=False):
        sentence = grp["sentence"].iloc[0]
        spans = [
            (int(r.start), int(r.end), r.ent_type)
            for r in grp.itertuples()
            if r.model in ("dictionary", "ensemble_strong")
        ]
        # earlier (longer-first) spans win on overlap: sort by start, -len
        spans.sort(key=lambda x: (x[0], -(x[1] - x[0])))
        taken = training_spans(sentence, spans)
        rows.append(
            (url, int(ordn), split_of(url, int(ordn)), bio_encode(sentence, taken))
        )
    out = pd.DataFrame(rows, columns=["url", "sent_ord", "split", "bio"])
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


def write_bio_corpus(bio_ds, out_dir: str) -> None:
    """S4: write split-partitioned BIO Parquet (url-keyed, resumable) —
    one directory per split so training jobs read only their slice.
    ``bio_ds`` holds ``bio_export_batch`` rows (``kg.bio_dataset``)."""
    encoded = bio_ds.materialize()  # one execution; the BIO table is small vs its inputs
    for split in ("train", "val", "test"):
        part = encoded.filter(expr=f"split == '{split}'")
        part.write_parquet(f"{out_dir}/{split}")
