"""Distributed batch-perceptron character tagger — the model-training
loop (SURVEY §2 "what's missing #3": ``multi_source_ner.py:46-75,
331-342`` trains a BiLSTM-CRF single-process; the data-parallel
re-expression is a synchronous batch structured perceptron in the
parameter-mixing family of McDonald, Hall & Mann 2010).

Shape (the same BSP contract as ``stages/clustering.py`` k-means):

* the weight matrix is a FIXED-SIZE broadcast artifact
  (``ray.put`` once per round, fetched once per worker task);
* each batch scores its positions vectorized (one fancy-indexed gather
  per feature slot + argmax) and emits SPARSE integer update partials
  ``(feat·T+tag, ±1)`` pre-aggregated per batch;
* one bucketed exchange compacts the partials to one row per touched
  (feature, tag) cell — the only thing that moves is the gradient-sized
  sparse update, never positions;
* the driver applies the summed deltas.  Every step is an int64 SUM, so
  the fit is BIT-IDENTICAL at any parallelism or batch size.

Training data is the dictionary-labeled (silver) char-BIO corpus — the
reference's own pre-labeling scheme (``generation.py:216-238``: dict +
model spans become training tags).  Features are position-local char
unigrams/bigrams hashed multiplicatively into a fixed 2^17 space (no
vocabulary to build, ship, or synchronize).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

DIM = 1 << 17          # hashed feature space per tag
N_FEATS = 5            # c0, c-1, c+1, bigram(c-1,c0), bigram(c0,c+1)
TRAIN_SAMPLE_MOD = 4   # content-stable 1-in-4 training sample
_MISTAKE_KEY = -1      # sentinel partial row carrying the mistake count

_P1 = np.uint64(0x100000001B3)
_P2 = np.uint64(0x9E3779B97F4A7C15)
_P3 = np.uint64(0xC2B2AE3D27D4EB4F)
_SHIFT = np.uint64(64 - 17)  # top bits of the mix → [0, DIM)


def tag_vocab() -> list[str]:
    """O + B-/I- per essential type, layout: O=0, B-t=1+2i, I-t=2+2i."""
    from .ner import TYPE_LIST

    out = ["O"]
    for t in TYPE_LIST:
        out += [f"B-{t}", f"I-{t}"]
    return out


def n_tags() -> int:
    from .ner import TYPE_LIST

    return 1 + 2 * len(TYPE_LIST)


def _feature_ids(codes: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """(n,) char codepoints + sentence ids → (n, N_FEATS) hashed feature
    ids.  Neighbors are masked to 0 across sentence boundaries; the hash
    is multiplicative mixing on wraparound uint64 (vectorized, no md5 on
    the hot path)."""
    c = codes.astype(np.uint64)
    prev = np.roll(c, 1)
    nxt = np.roll(c, -1)
    if len(sent):
        prev[np.roll(sent, 1) != sent] = 0
        nxt[np.roll(sent, -1) != sent] = 0
        prev[0] = 0
        nxt[-1] = 0
    zero = np.zeros_like(c)
    slots = [(c, zero), (prev, zero), (nxt, zero), (prev, c), (c, nxt)]
    out = np.empty((len(c), N_FEATS), dtype=np.int32)
    with np.errstate(over="ignore"):
        for f, (a, b) in enumerate(slots):
            h = (a * _P1 + b + np.uint64(f) * _P2) * _P3
            out[:, f] = (h >> _SHIFT).astype(np.int32)
    return out


_FEATURIZE_CACHE: dict = {}


def featurize_sentences_batch(batch: pa.Table) -> pa.Table:
    """(url, sent_ord, sentence) rows → per-char training positions.

    Role assignment is content-stable (the engine's R6 split contract:
    md5('split|url|ord'), 1/80 val / 1/90 test) plus an independent
    1-in-4 hash sample of the train split — at any corpus scale the
    materialized position table is a bounded fraction of the corpus.
    Gold tags come from the gazetteer longest-match scan (the
    dictionary half of the reference's silver labeling), built once per
    worker process (task-pool + module cache — the muc_eval idiom)."""
    import pyarrow.compute as pc

    from ..functions.hashing import md5_int_vec

    matcher = _FEATURIZE_CACHE.get("matcher")
    tid = _FEATURIZE_CACHE.get("tid")
    if matcher is None:
        from ..ontology import MEDICAL_GAZETTEER
        from .ner import TYPE_LIST, GazetteerMatcher

        matcher = _FEATURIZE_CACHE["matcher"] = GazetteerMatcher(MEDICAL_GAZETTEER)
        tid = _FEATURIZE_CACHE["tid"] = {t: i for i, t in enumerate(TYPE_LIST)}

    def _msg(prefix: str):
        return pc.binary_join_element_wise(
            pa.scalar(prefix),
            pc.cast(batch.column("url"), pa.string()),
            pc.cast(batch.column("sent_ord"), pa.string()),
            pa.scalar("|"),
        )

    h_split = md5_int_vec(_msg("split"), bits=32)
    is_val = h_split % 80 == 0
    is_test = (h_split % 90 == 0) & ~is_val
    sampled = md5_int_vec(_msg("ptrain"), bits=32) % TRAIN_SAMPLE_MOD == 0
    # role: 0 = train (sampled), 1 = val; test + unsampled rows drop
    roles = np.where(is_val, 1, np.where(~is_test & sampled, 0, -1))
    # 64-bit md5 masked to 63 bits: a positive int64 sentence key
    sent_keys = (md5_int_vec(_msg("sent"), bits=64) >> np.uint64(1)).astype("int64")

    sentences = batch.column("sentence").to_pylist()
    codes_l, tags_l, sent_l, role_l, pos_l = [], [], [], [], []
    for i, s in enumerate(sentences):
        if roles[i] < 0 or not s:
            continue
        codes = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
        tags = np.zeros(len(codes), dtype=np.int8)
        for st, en, surf in matcher.find(s):
            t = tid[matcher.types[surf]]
            tags[st] = 1 + 2 * t
            tags[st + 1:en] = 2 + 2 * t
        codes_l.append(codes)
        tags_l.append(tags)
        sent_l.append(np.full(len(codes), sent_keys[i], dtype=np.int64))
        role_l.append(np.full(len(codes), roles[i], dtype=np.int8))
        pos_l.append(np.arange(len(codes), dtype=np.int32))

    if not codes_l:
        cols = {"role": pa.array([], pa.int8())}
        for f in range(N_FEATS):
            cols[f"f{f}"] = pa.array([], pa.int32())
        cols.update(
            {"tag": pa.array([], pa.int8()), "sent": pa.array([], pa.int64()),
             "pos": pa.array([], pa.int32())}
        )
        return pa.table(cols)

    codes = np.concatenate(codes_l)
    sent = np.concatenate(sent_l)
    fids = _feature_ids(codes, sent)
    cols = {"role": pa.array(np.concatenate(role_l))}
    for f in range(N_FEATS):
        cols[f"f{f}"] = pa.array(fids[:, f])
    cols["tag"] = pa.array(np.concatenate(tags_l))
    cols["sent"] = pa.array(sent)
    cols["pos"] = pa.array(np.concatenate(pos_l))
    return pa.table(cols)


def _gather_scores(b: pd.DataFrame, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pred, gold) for a position batch under weights W."""
    scores = W[b["f0"].to_numpy()].astype(np.int64)
    for f in range(1, N_FEATS):
        scores += W[b[f"f{f}"].to_numpy()]
    return scores.argmax(axis=1), b["tag"].to_numpy()


class _RoundPartial:
    """Per-batch sparse update partial for one training round: ±1 per
    (feature, tag) cell of each mistaken position, pre-summed per batch.
    Weights fetched lazily once per worker task (zero-copy plasma)."""

    def __init__(self, wref, T: int):
        self.wref = wref
        self.T = T
        self.W = None

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        import ray

        if self.W is None:
            self.W = ray.get(self.wref)
        pred, gold = _gather_scores(b, self.W)
        m = pred != gold
        k = int(m.sum())
        if k == 0:
            return pd.DataFrame(
                {"key": pd.array([_MISTAKE_KEY], "int64"),
                 "delta": pd.array([0], "int64")}
            )
        feats = np.stack(
            [b[f"f{f}"].to_numpy()[m] for f in range(N_FEATS)], axis=1
        ).ravel().astype(np.int64)
        gold_r = np.repeat(gold[m].astype(np.int64), N_FEATS)
        pred_r = np.repeat(pred[m].astype(np.int64), N_FEATS)
        keys = np.concatenate([feats * self.T + gold_r, feats * self.T + pred_r])
        deltas = np.concatenate(
            [np.ones(len(feats), np.int64), -np.ones(len(feats), np.int64)]
        )
        uk, inv = np.unique(keys, return_inverse=True)
        d = np.zeros(len(uk), dtype=np.int64)
        np.add.at(d, inv, deltas)
        nz = d != 0
        return pd.DataFrame(
            {"key": pd.array(
                np.concatenate([[np.int64(_MISTAKE_KEY)], uk[nz]]), "int64"
             ),
             "delta": pd.array(np.concatenate([[np.int64(k)], d[nz]]), "int64")}
        )


def train_rounds(train_positions, *, rounds: int = 4, dim: int = DIM):
    """Synchronous distributed batch perceptron: ``rounds`` BSP passes
    over the materialized position Dataset.  Yields
    (round, mistakes, W) after each weight application; the caller owns
    evaluation cadence.  Integer arithmetic end-to-end ⇒ the weight
    trajectory is identical at any parallelism.

    The per-batch partials are GRADIENT-sized (unique touched
    (feature, tag) cells of the batch's mistakes), so they combine
    driver-side with one vectorized ``np.add.at`` — the k-means
    bounded-artifact posture; a distributed groupby exchange here is
    pure fixed cost (measured ~4 s/round at sf0.01 for a ≤1.5M-row
    partials table pandas reduces in ~50 ms)."""
    import ray

    from ..functions.arrow import arrow_out

    T = n_tags()
    W = np.zeros((dim, T), dtype=np.int32)
    for r in range(rounds):
        wref = ray.put(W)
        upd = train_positions.map_batches(
            arrow_out(_RoundPartial(wref, T)), batch_format="pandas"
        ).to_pandas()  # batches × touched cells — gradient-sized artifact
        mistakes = int(upd.loc[upd["key"] == _MISTAKE_KEY, "delta"].sum())
        upd = upd[upd["key"] >= 0]
        keys = upd["key"].to_numpy()
        np.add.at(
            W, (keys // T, keys % T), upd["delta"].to_numpy().astype(np.int32)
        )
        yield r, mistakes, W


class _EvalBucket:
    """Per-bucket (token + strict-span) count partials: sentences are
    co-located by the bucketed exchange, so span reconstruction is exact."""

    def __init__(self, wref):
        self.wref = wref
        self.W = None

    @staticmethod
    def _spans(sent, pos, tags) -> pd.DataFrame:
        ty = ((tags.astype(np.int64) + 1) // 2)          # 0 = O, else type+1
        is_b = (tags % 2) == 1
        inside = ty > 0
        start = inside & (
            is_b
            | (np.roll(ty, 1) != ty)
            | (np.roll(sent, 1) != sent)
            | (np.roll(pos, 1) + 1 != pos)
        )
        if len(start):
            start[0] = inside[0]
        sid = np.cumsum(start)
        df = pd.DataFrame(
            {"sid": sid[inside], "sent": sent[inside], "pos": pos[inside],
             "ty": ty[inside]}
        )
        if not len(df):
            return pd.DataFrame(columns=["sent", "start", "end", "ty"])
        g = df.groupby("sid", sort=False).agg(
            sent=("sent", "first"), start=("pos", "min"),
            end=("pos", "max"), ty=("ty", "first"),
        )
        g["end"] += 1
        return g.reset_index(drop=True)

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import ray

        if self.W is None:
            self.W = ray.get(self.wref)
        g = g.sort_values(["sent", "pos"], kind="mergesort")
        pred, gold = _gather_scores(g, self.W)
        sent = g["sent"].to_numpy()
        pos = g["pos"].to_numpy()
        gold_spans = self._spans(sent, pos, gold)
        pred_spans = self._spans(sent, pos, pred.astype(np.int8))
        tp = len(gold_spans.merge(pred_spans, on=["sent", "start", "end", "ty"]))
        return pd.DataFrame(
            {"correct": [int((pred == gold).sum())], "total": [len(g)],
             "tp": [tp], "n_pred": [len(pred_spans)], "n_gold": [len(gold_spans)]}
        )


def eval_tagger(val_positions, W) -> dict:
    """Token accuracy + strict-span P/R/F1 of weights W on a position
    Dataset (one bucketed exchange co-locating sentences, count partials
    out — the MUC-I schema on the silver gold)."""
    import ray

    from .shuffle import bucketed_group_map, fold_groups

    wref = ray.put(W)
    counts = fold_groups(
        bucketed_group_map(val_positions, ["sent"], _EvalBucket(wref),
                           num_buckets=8), [],
        [(c, "sum") for c in ("correct", "total", "tp", "n_pred", "n_gold")],
    ).iloc[0]
    correct, total = int(counts["correct"]), int(counts["total"])
    tp, n_pred, n_gold = (
        int(counts["tp"]), int(counts["n_pred"]), int(counts["n_gold"]))
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return {
        "token_acc": round(correct / total, 6) if total else 0.0,
        "span_p": round(p, 6), "span_r": round(r, 6), "span_f1": round(f1, 6),
    }


def save_tagger(W: np.ndarray, out_dir: str) -> dict:
    """Persist trained weights as a SPARSE Parquet artifact (one row per
    nonzero (feature, tag) cell) + a JSON sidecar with the layout
    contract — the build-once/serve-many posture of the PQ index."""
    import json
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    feat, tag = np.nonzero(W)
    table = pa.table(
        {"feat": pa.array(feat.astype(np.int32)),
         "tag": pa.array(tag.astype(np.int8)),
         "w": pa.array(W[feat, tag].astype(np.int32))}
    )
    pq.write_table(table, os.path.join(out_dir, "weights.parquet"))
    meta = {"dim": int(W.shape[0]), "n_tags": int(W.shape[1]),
            "n_feats": N_FEATS, "tags": tag_vocab(), "nnz": len(feat)}
    with open(os.path.join(out_dir, "model.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
    return meta


def load_tagger(out_dir: str) -> np.ndarray:
    """Reload a ``save_tagger`` artifact into the dense weight matrix."""
    import json
    import os

    import pyarrow.parquet as pq

    with open(os.path.join(out_dir, "model.json")) as fh:
        meta = json.load(fh)
    t = pq.read_table(os.path.join(out_dir, "weights.parquet"))
    W = np.zeros((meta["dim"], meta["n_tags"]), dtype=np.int32)
    W[t.column("feat").to_numpy(), t.column("tag").to_numpy()] = (
        t.column("w").to_numpy()
    )
    return W


def predict_sentences(W: np.ndarray, sentences: list[str]):
    """Ad-hoc serve path (the ``EnsembleNER.predict_sentences`` contract
    for the TRAINED model): greedy per-char decode under weights W →
    [[(start, end, type), ...]] per sentence.  Same featurizer and span
    convention ([start, end) exclusive) as training/eval — one resident
    weight matrix scores any number of sentences without Ray."""
    from .ner import TYPE_LIST

    out = []
    for s in sentences:
        if not s:
            out.append([])
            continue
        codes = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
        sent = np.zeros(len(codes), dtype=np.int64)
        fids = _feature_ids(codes, sent)
        scores = W[fids[:, 0]].astype(np.int64)
        for f in range(1, N_FEATS):
            scores += W[fids[:, f]]
        pred = scores.argmax(axis=1)
        ty = (pred + 1) // 2
        is_b = (pred % 2) == 1
        inside = ty > 0
        start = inside & (is_b | (np.roll(ty, 1) != ty))
        if len(start):
            start[0] = inside[0]
        spans = []
        sid = np.cumsum(start)
        for g in np.unique(sid[inside]):
            pos = np.nonzero(inside & (sid == g))[0]
            spans.append(
                (int(pos[0]), int(pos[-1]) + 1, TYPE_LIST[int(ty[pos[0]]) - 1])
            )
        out.append(spans)
    return out
