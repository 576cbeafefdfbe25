"""Distributed NEURAL character tagger — the learned-representation
member of the ensemble (reference ``multi_source_ner.py:140-372`` trains
a CNN-BiLSTM-CRF on a GPU; this is the same role re-expressed as a
CPU-sized hashed-feature neural network trained data-parallel on Ray,
with the forward/backward in numpy so it runs in any worker — when a
GPU is present, ``EngineConfig.ner_num_gpus`` places the scoring tasks
on it and the same numpy math runs under cupy-compatible layouts).

Architecture (fastText-family sum-of-embeddings tagger):

    per char position: x = Σ_f E[fid_f]         (5 hashed context slots,
                                                  the perceptron's own
                                                  featurizer — no vocab
                                                  to build or ship)
                       h = tanh(x + b1)          (H-dim hidden)
                       logits = h·W2 + b2        (T BIO tags, softmax)

Dense learned embeddings + a nonlinear hidden layer + softmax output,
trained by backprop — a genuinely neural scorer, unlike the linear
perceptron (``stages/perceptron.py``), with calibrated per-char
probabilities (softmax max) instead of a constant.

Distributed training contract (the BSP shape shared with k-means and
the perceptron, but for FLOAT gradients):

* parameters are a fixed-size broadcast artifact (``ray.put`` per
  round);
* each batch runs forward+backward vectorized and quantizes the
  PER-POSITION gradient contributions to int64 micro-units
  (``floor(g·2^20 + 0.5)``) BEFORE summing — a position's contribution
  never depends on which batch it landed in, and int64 addition is
  exact and associative, so the summed round gradient (and hence the
  whole weight trajectory) is BIT-IDENTICAL at any parallelism or
  batch split (pytest-pinned);
* partials are dense int64 arrays over the (small, hashed) parameter
  space shipped as one bytes row per batch and folded by a narrow
  merge map — nothing position-sized ever reaches the driver;
* the driver applies a deterministic momentum-SGD step.

Training data is the same dictionary-labeled silver char-BIO position
table as the perceptron (``featurize_sentences_batch``) — at 100 TB a
trainer samples that table down (TRAIN_SAMPLE_MOD is already a
content-stable 1-in-4); the gradient artifact stays parameter-sized
regardless of corpus size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .perceptron import N_FEATS, _feature_ids, n_tags

V = 1 << 14            # hashed embedding rows (re-hash of the 2^17 ids)
H = 32                 # hidden width
SCALE = float(1 << 20)  # int64 micro-unit for gradient quantization
_SEED = 12345


def _fold_ids(fids: np.ndarray) -> np.ndarray:
    """2^17 featurizer ids → 2^14 embedding rows (slot-salted so the
    same char hashes to different rows per slot)."""
    out = np.empty_like(fids)
    for f in range(fids.shape[1]):
        out[:, f] = (fids[:, f] * 2654435761 + f * 40503) % V
    return out


def init_params(*, dim_v: int = V, hidden: int = H) -> dict:
    T = n_tags()
    rng = np.random.RandomState(_SEED)
    return {
        "E": (rng.standard_normal((dim_v, hidden)) * 0.10).astype("float64"),
        "b1": np.zeros(hidden, dtype="float64"),
        "W2": (rng.standard_normal((hidden, T)) * 0.10).astype("float64"),
        "b2": np.zeros(T, dtype="float64"),
    }


def _forward(params: dict, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, N_FEATS) embedding rows → (h, probs)."""
    E = params["E"]
    x = E[rows[:, 0]].copy()
    for f in range(1, N_FEATS):
        x += E[rows[:, f]]
    h = np.tanh(x + params["b1"])
    logits = h @ params["W2"] + params["b2"]
    logits -= logits.max(axis=1, keepdims=True)
    ex = np.exp(logits)
    return h, ex / ex.sum(axis=1, keepdims=True)


def _rows_of(b: pd.DataFrame) -> np.ndarray:
    fids = np.stack(
        [b[f"f{f}"].to_numpy() for f in range(N_FEATS)], axis=1
    ).astype(np.int64)
    return _fold_ids(fids)


def _q(a: np.ndarray) -> np.ndarray:
    """Per-position int64 quantization — batch-boundary-independent."""
    return np.floor(a * SCALE + 0.5).astype(np.int64)


class _GradPartial:
    """One training batch → one bytes row: the batch's exact int64
    gradient partial over the full (hashed, small) parameter space."""

    def __init__(self, pref):
        self.pref = pref
        self.params = None

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        import ray

        if self.params is None:
            self.params = ray.get(self.pref)
        p = self.params
        T = p["W2"].shape[1]
        n = len(b)
        gE = np.zeros_like(p["E"], dtype=np.int64)
        gb1 = np.zeros(H, dtype=np.int64)
        gW2 = np.zeros_like(p["W2"], dtype=np.int64)
        gb2 = np.zeros(T, dtype=np.int64)
        n_pos = 0
        loss_u = 0
        if n:
            rows = _rows_of(b)
            gold = b["tag"].to_numpy().astype(np.int64)
            h, probs = _forward(p, rows)
            loss_u = int(
                _q(-np.log(np.maximum(probs[np.arange(n), gold], 1e-12))).sum()
            )
            dy = probs
            dy[np.arange(n), gold] -= 1.0
            # output layer: per-position outer(h, dy), quantized per
            # position then summed (chunked to bound the temporary)
            for s in range(0, n, 8192):
                e = min(n, s + 8192)
                gW2 += _q(h[s:e, :, None] * dy[s:e, None, :]).sum(axis=0)
            gb2 += _q(dy).sum(axis=0)
            # hidden/embedding: g1 = (dy·W2ᵀ)·(1−h²), one add per slot
            g1 = (dy @ p["W2"].T) * (1.0 - h * h)
            q1 = _q(g1)
            gb1 += q1.sum(axis=0)
            for f in range(N_FEATS):
                np.add.at(gE, rows[:, f], q1)
            n_pos = n
        return pd.DataFrame({
            "payload": [np.concatenate([
                np.asarray([n_pos, loss_u], np.int64),
                gb1, gb2, gW2.ravel(), gE.ravel(),
            ]).tobytes()],
        })


def _merge_payloads(b: pd.DataFrame) -> pd.DataFrame:
    acc = None
    for payload in b["payload"]:
        a = np.frombuffer(payload, dtype=np.int64)
        acc = a.copy() if acc is None else acc + a
    return pd.DataFrame({"payload": [acc.tobytes()]})


def train_neural(
    positions,
    *,
    rounds: int = 30,
    lr: float = 0.5,
    momentum: float = 0.9,
):
    """Full-batch momentum SGD, one BSP pass per round over the
    (materialized) position Dataset.  Yields (round, mean_loss, params)
    after each step; the whole trajectory is bit-identical at any
    parallelism (exact int64 gradient folds, one float arithmetic path
    driver-side)."""
    import ray

    from ..functions.arrow import arrow_out

    params = init_params()
    T = params["W2"].shape[1]
    vel = {k: np.zeros_like(v) for k, v in params.items()}
    sizes = [H, T, H * T, V * H]
    for r in range(rounds):
        pref = ray.put(params)
        folded = (
            positions.map_batches(
                arrow_out(_GradPartial(pref)), batch_format="pandas",
                batch_size=8192,
            )
            .map_batches(arrow_out(_merge_payloads), batch_format="pandas",
                         batch_size=64)
            .to_pandas()
        )
        total = None
        for payload in folded["payload"]:
            a = np.frombuffer(payload, dtype=np.int64)
            total = a.copy() if total is None else total + a
        n_pos = int(total[0])
        mean_loss = float(total[1]) / SCALE / max(n_pos, 1)
        grads = {}
        off = 2
        for k, size, shape in (
            ("b1", sizes[0], (H,)),
            ("b2", sizes[1], (T,)),
            ("W2", sizes[2], (H, T)),
            ("E", sizes[3], (V, H)),
        ):
            grads[k] = (
                total[off:off + size].astype("float64") / SCALE / max(n_pos, 1)
            ).reshape(shape)
            off += size
        for k in params:
            vel[k] = momentum * vel[k] - lr * grads[k]
            params[k] = params[k] + vel[k]
        yield r, round(mean_loss, 6), params


def predict_tags(params: dict, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Char codepoints → (BIO tag ids, per-char max softmax prob)."""
    if not len(codes):
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    fids = _feature_ids(codes, np.zeros(len(codes), dtype=np.int64))
    rows = _fold_ids(fids.astype(np.int64))
    _, probs = _forward(params, rows)
    pred = probs.argmax(axis=1)
    return pred, probs[np.arange(len(pred)), pred]


def eval_neural(val_positions, params: dict) -> dict:
    """Token accuracy + strict-span P/R/F1 on a position Dataset — the
    perceptron evaluator's bucket shape with the neural forward."""
    import ray

    from ..functions.arrow import arrow_out
    from .perceptron import _EvalBucket
    from .shuffle import bucketed_group_map, fold_groups

    pref = ray.put(params)

    class _Bucket:
        def __init__(self):
            self.params = None

        def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
            if self.params is None:
                self.params = ray.get(pref)
            g = g.sort_values(["sent", "pos"], kind="mergesort")
            rows = _rows_of(g)
            _, probs = _forward(self.params, rows)
            pred = probs.argmax(axis=1)
            gold = g["tag"].to_numpy()
            sent = g["sent"].to_numpy()
            pos = g["pos"].to_numpy()
            gold_spans = _EvalBucket._spans(sent, pos, gold)
            pred_spans = _EvalBucket._spans(sent, pos, pred.astype(np.int8))
            tp = len(gold_spans.merge(
                pred_spans, on=["sent", "start", "end", "ty"]))
            return pd.DataFrame(
                {"correct": [int((pred == gold).sum())], "total": [len(g)],
                 "tp": [tp], "n_pred": [len(pred_spans)],
                 "n_gold": [len(gold_spans)]})

    counts = fold_groups(
        bucketed_group_map(val_positions, ["sent"], _Bucket(), num_buckets=8),
        [], [(c, "sum") for c in ("correct", "total", "tp", "n_pred", "n_gold")],
    ).iloc[0]
    correct, total = int(counts["correct"]), int(counts["total"])
    tp = int(counts["tp"])
    n_pred = int(counts["n_pred"])
    n_gold = int(counts["n_gold"])
    p = tp / n_pred if n_pred else 0.0
    rcl = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * rcl / (p + rcl) if p + rcl else 0.0
    return {
        "token_acc": round(correct / total, 6) if total else 0.0,
        "span_p": round(p, 6), "span_r": round(rcl, 6),
        "span_f1": round(f1, 6),
    }


def save_neural(params: dict, out_dir: str) -> dict:
    """Persist the dense parameter arrays (npz) + a JSON layout sidecar."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    np.savez(os.path.join(out_dir, "neural.npz"),
             **{k: v for k, v in params.items()})
    meta = {"V": int(params["E"].shape[0]), "H": int(params["E"].shape[1]),
            "n_tags": int(params["W2"].shape[1]), "n_feats": N_FEATS,
            "arch": "sum-embed/tanh/softmax"}
    with open(os.path.join(out_dir, "neural.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
    return meta


def load_neural(out_dir: str) -> dict:
    import os

    with np.load(os.path.join(out_dir, "neural.npz")) as z:
        return {k: z[k].copy() for k in ("E", "b1", "W2", "b2")}
