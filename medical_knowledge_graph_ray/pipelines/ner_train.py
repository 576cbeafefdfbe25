"""NER model-training pipeline: distributed batch-perceptron rounds over
the dictionary-labeled page corpus (the reference's training loop,
``multi_source_ner.py:46-75,331-342``, as data-parallel BSP — see
``stages/perceptron.py`` for the exact-integer contract).

One featurize pass materializes a bounded position table (content-stable
1-in-4 train sample + the full val split); each round is one broadcast +
one sparse-gradient exchange; evaluation re-reads only the val slice.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.shuffle import fold_groups


def train_positions_dataset(corpus_dir: str):
    """pages → materialized (role, f0..f4, tag, sent, pos) positions."""
    from .kg import sentences_dataset
    from ..stages.perceptron import featurize_sentences_batch

    sents = sentences_dataset(corpus_dir)
    return sents.map_batches(
        featurize_sentences_batch, batch_format="pyarrow"
    ).materialize()  # bounded: sampled train + val positions only


def ner_train_fit(
    corpus_dir: str, *, rounds: int = 6, eval_every_round: bool = False
):
    """Train ``rounds`` BSP rounds — returns (learning-curve table,
    final weight matrix).  Held-out metrics are computed for the FINAL
    weights by default (each eval is its own bucketed execution;
    per-round evals are a test/debug luxury, ``eval_every_round=True``)
    — the per-round mistake counts already trace convergence for free."""
    from ..stages.perceptron import eval_tagger, train_rounds

    feats = train_positions_dataset(corpus_dir)
    train = feats.filter(expr="role == 0")
    val = feats.filter(expr="role == 1")

    rows, W = [], None
    for r, mistakes, W in train_rounds(train, rounds=rounds):
        if eval_every_round or r == rounds - 1:
            m = eval_tagger(val, W)
        else:
            m = {"token_acc": np.nan, "span_p": np.nan,
                 "span_r": np.nan, "span_f1": np.nan}
        rows.append(
            {"round": r, "train_mistakes": mistakes,
             "val_token_acc": m["token_acc"], "val_span_p": m["span_p"],
             "val_span_r": m["span_r"], "val_span_f1": m["span_f1"]}
        )
    out = pd.DataFrame(rows)
    for c in ("round", "train_mistakes"):
        out[c] = out[c].astype("int64")
    return out, W


def ner_train_corpus(
    corpus_dir: str, *, rounds: int = 6, eval_every_round: bool = False
) -> pd.DataFrame:
    """Learning-curve table only (the driver-query face of
    ``ner_train_fit``)."""
    curve, _W = ner_train_fit(
        corpus_dir, rounds=rounds, eval_every_round=eval_every_round
    )
    return curve


def ner_train_pages(sf_dir: str, *, rounds: int = 6) -> pd.DataFrame:
    """Driver query: learning curve over the sf-scaled page corpus."""
    from .kg import corpus_for_sf

    return ner_train_corpus(corpus_for_sf(sf_dir), rounds=rounds)


def ensure_trained_tagger(
    corpus_dir: str, *, model_root: str = "/tmp/mkg_models", rounds: int = 6
) -> str:
    """Train-once-per-corpus checkpointing for the tagger artifact: the
    model directory is keyed by (corpus fingerprint, rounds, feature-space
    version), so a re-run with the same corpus returns the existing
    artifact without touching Ray — the same manifest-keyed posture as
    the search/PQ indexes.  Returns the model directory (must live on
    shared storage for multi-node serving — each scorer process loads it)."""
    import json
    import os

    from ..stages.perceptron import DIM, save_tagger
    from .kg import _corpus_fingerprint

    fp = f"perceptron|dim={DIM}|rounds={rounds}|corpus={_corpus_fingerprint(corpus_dir)}"
    out_dir = os.path.join(
        model_root,
        f"tagger_{__import__('hashlib').md5(fp.encode()).hexdigest()[:16]}",
    )
    meta_path = os.path.join(out_dir, "model.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            if json.load(fh).get("fingerprint") == fp:
                return out_dir
    curve, W = ner_train_fit(corpus_dir, rounds=rounds)
    meta = save_tagger(W, out_dir)
    meta["fingerprint"] = fp
    meta["learning_curve"] = curve.to_dict(orient="records")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=1)
    return out_dir


def trained_kg_config(
    corpus_dir: str, *, rounds: int = 6,
    model_root: str = "/tmp/mkg_models",
):
    """The full reference loop, composed: train (checkpointed) → evaluate
    the ensemble INCLUDING the trained member on the held-out split →
    derive the eval matrix (``multi_ner_prediction.py:139-159`` →
    ``EnsemblePredict_all.py:453-462``) → an EngineConfig whose scorer
    pool votes with the trained tagger under those derived precisions."""
    from ..config import EngineConfig
    from ..stages.muc_eval import eval_matrix_from
    from .kg import ner_eval_corpus

    model_dir = ensure_trained_tagger(
        corpus_dir, model_root=model_root, rounds=rounds
    )
    eval_df = ner_eval_corpus(corpus_dir, trained_model_dir=model_dir)
    ev = eval_matrix_from(eval_df)
    # the derived matrix covers members + ensemble_strong + trained;
    # EnsembleNER zero-fills any missing cell itself
    ev.pop("ensemble_strong", None)
    return EngineConfig(trained_model_dir=model_dir, eval_override=ev)


def kg_flagship_trained(sf_dir: str, *, out_root: str | None = None):
    """Flagship KG run with the TRAINED tagger voting in the ensemble
    (M2 fully closed).  Returns the (subj_type, pred, obj_type) triple
    census — a bounded (types × predicates), deterministic summary of
    the trained-ensemble graph; trained-member contribution itself is
    pinned at mention level by ``tests/test_trained_ensemble.py``."""
    import os

    import pandas as pd

    from ..functions.arrow import arrow_out
    from ..state.manifests import read_stage
    from .kg import corpus_for_sf, run_kg

    corpus = corpus_for_sf(sf_dir)
    cfg = trained_kg_config(corpus)
    out = out_root or os.path.join(
        "/tmp/mkg_kg_trained", os.path.basename(os.path.normpath(sf_dir))
    )
    run_kg(corpus, out, config=cfg)
    tri = read_stage(
        os.path.join(out, "triples"),
        columns=["subj_type", "pred", "obj_type"],
    )

    def census(b: pd.DataFrame) -> pd.DataFrame:
        return b[["subj_type", "pred", "obj_type"]].dropna().assign(n_triples=1)

    out_df = fold_groups(  # ≤ types × predicates × types rows
        tri.map_batches(arrow_out(census), batch_format="pandas"),
        ["subj_type", "pred", "obj_type"], [("n_triples", "sum")])
    out_df["n_triples"] = out_df["n_triples"].astype("int64")
    return out_df.sort_values(
        ["subj_type", "pred", "obj_type"]
    ).reset_index(drop=True)


# -- NEURAL member: train → eval → config → flagship --------------------------

NEURAL_ROUNDS = 120  # measured knee: silver span F1 0.70@30 → 0.96@120


NEURAL_MAX_POSITIONS = 3_000_000


def neural_train_fit(
    corpus_dir: str, *, rounds: int = NEURAL_ROUNDS,
    max_positions: int = NEURAL_MAX_POSITIONS,
):
    """Train the neural tagger (``stages/neural.py``) — returns
    (learning-curve table, params).  Loss is traced every round for
    free; held-out span metrics are computed for the final params.

    ``max_positions`` bounds the TRAINING set with a content-stable
    sentence-key subsample (``sent % K == 0`` on the md5-derived key —
    whole sentences, uniform, deterministic): at 100 TB a neural
    trainer samples its corpus; the bound keeps every round's wall
    proportional to the cap, not the corpus."""
    from ..stages.neural import eval_neural, train_neural

    feats = train_positions_dataset(corpus_dir)
    train = feats.filter(expr="role == 0").materialize()
    n = train.count()
    if n > max_positions:
        import pyarrow as pa

        from ..functions.arrow import arrow_out

        k = -(-n // max_positions)  # ceil

        def keep(t: pa.Table) -> pa.Table:
            sent = t.column("sent").to_numpy()
            return t.filter(pa.array(sent % k == 0))

        train = train.map_batches(
            keep, batch_format="pyarrow").materialize()
    val = feats.filter(expr="role == 1").materialize()

    rows, params = [], None
    for r, loss, params in train_neural(train, rounds=rounds):
        rows.append({"round": r, "train_loss": loss})
    m = eval_neural(val, params)
    curve = pd.DataFrame(rows)
    curve["round"] = curve["round"].astype("int64")
    for k, v in m.items():
        curve[f"final_{k}"] = v
    return curve, params


def ensure_neural_tagger(
    corpus_dir: str, *, model_root: str = "/tmp/mkg_models",
    rounds: int = NEURAL_ROUNDS,
) -> str:
    """Train-once-per-corpus checkpointing for the neural artifact —
    the ``ensure_trained_tagger`` posture (fingerprint keyed by corpus
    content + rounds + architecture version)."""
    import json
    import os

    from ..stages.neural import H, V, save_neural
    from .kg import _corpus_fingerprint

    fp = (f"neural|V={V}|H={H}|rounds={rounds}|cap={NEURAL_MAX_POSITIONS}"
          f"|corpus={_corpus_fingerprint(corpus_dir)}")
    out_dir = os.path.join(
        model_root,
        f"neural_{__import__('hashlib').md5(fp.encode()).hexdigest()[:16]}",
    )
    meta_path = os.path.join(out_dir, "neural.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            if json.load(fh).get("fingerprint") == fp:
                return out_dir
    curve, params = neural_train_fit(corpus_dir, rounds=rounds)
    meta = save_neural(params, out_dir)
    meta["fingerprint"] = fp
    meta["final_eval"] = {
        k.removeprefix("final_"): float(curve[k].iloc[-1])
        for k in curve.columns if k.startswith("final_")
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=1)
    return out_dir


def neural_kg_config(
    corpus_dir: str, *, rounds: int = NEURAL_ROUNDS,
    model_root: str = "/tmp/mkg_models",
):
    """Train (checkpointed) → evaluate the ensemble INCLUDING the neural
    member on the held-out split → derive the eval matrix → an
    EngineConfig whose scorer votes with the neural tagger under
    those derived precisions (the ``trained_kg_config`` loop for the
    neural member; ``EngineConfig.ner_num_gpus`` places the scorer
    tasks on GPUs where present — the numpy forward is the CPU
    fallback and the same code path)."""
    from ..config import EngineConfig
    from ..stages.muc_eval import eval_matrix_from
    from .kg import ner_eval_corpus

    model_dir = ensure_neural_tagger(
        corpus_dir, model_root=model_root, rounds=rounds
    )
    eval_df = ner_eval_corpus(corpus_dir, neural_model_dir=model_dir)
    ev = eval_matrix_from(eval_df)
    ev.pop("ensemble_strong", None)
    return EngineConfig(neural_model_dir=model_dir, eval_override=ev)


def kg_flagship_neural(sf_dir: str, *, out_root: str | None = None):
    """Flagship KG run with the NEURAL tagger voting in the ensemble —
    the reference's model-quality path (its BiLSTM-CRF members) fully
    closed: learned representations score every sentence, exact-span
    corroboration gates standalone neural mentions (the
    ``TRAINED_REQUIRE_SUPPORT`` contract), and the derived eval matrix
    calibrates confidences.  Returns the bounded (subj_type, pred,
    obj_type) census of the neural-ensemble graph."""
    import os

    from ..functions.arrow import arrow_out
    from ..state.manifests import read_stage
    from .kg import corpus_for_sf, run_kg

    corpus = corpus_for_sf(sf_dir)
    cfg = neural_kg_config(corpus)
    out = out_root or os.path.join(
        "/tmp/mkg_kg_neural", os.path.basename(os.path.normpath(sf_dir))
    )
    run_kg(corpus, out, config=cfg)
    tri = read_stage(
        os.path.join(out, "triples"),
        columns=["subj_type", "pred", "obj_type"],
    )

    def census(b: pd.DataFrame) -> pd.DataFrame:
        return b[["subj_type", "pred", "obj_type"]].dropna().assign(n_triples=1)

    out_df = fold_groups(
        tri.map_batches(arrow_out(census), batch_format="pandas"),
        ["subj_type", "pred", "obj_type"], [("n_triples", "sum")])
    out_df["n_triples"] = out_df["n_triples"].astype("int64")
    return out_df.sort_values(
        ["subj_type", "pred", "obj_type"]
    ).reset_index(drop=True)


def kg_segment_hmm(sf_dir: str) -> pd.DataFrame:
    """Dictionary-projected HMM segmentation census (the jieba-HMM OOV
    role, ``stages/segment.py``): train BMES tables on the sf-scaled
    corpus (exact integer censuses, parallelism-invariant), then
    segment every NON-ENTITY run and count the discovered multi-char
    words.  Output = top-40 (word, n_runs) census — bounded,
    deterministic.  Rows-only (Viterbi decode has no SQL oracle; the
    decode/training contracts are pytest-pinned in test_segment.py)."""
    from ..functions.arrow import arrow_out
    from ..ontology import MEDICAL_GAZETTEER
    from ..stages.segment import train_hmm_segmenter
    from ..stages.shuffle import bucketed_group_map
    from .kg import corpus_for_sf, sentences_dataset

    corpus = corpus_for_sf(sf_dir)
    sents = sentences_dataset(corpus).select_columns(["sentence"])
    params = train_hmm_segmenter(sents, MEDICAL_GAZETTEER)

    import ray

    pref = ray.put(params)

    _CACHE: dict = {}

    def census(b: pd.DataFrame) -> pd.DataFrame:
        from ..stages.tokenize import Tokenizer

        tok = _CACHE.get("tok")
        if tok is None:
            tok = _CACHE["tok"] = Tokenizer(
                MEDICAL_GAZETTEER, hmm_params=ray.get(pref))
        counts: dict[str, int] = {}
        for s in b["sentence"]:
            for w, tag, _s, _e in tok.tokenize(s):
                if tag == "n" and len(w) > 1:
                    counts[w] = counts.get(w, 0) + 1
        return pd.DataFrame(
            {"word": pd.array(list(counts), "str"),
             "n_runs": pd.array(list(counts.values()), "int64")})

    parts = sents.map_batches(arrow_out(census), batch_format="pandas")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("word", sort=False, as_index=False)["n_runs"].sum()

    agg = bucketed_group_map(parts, ["word"], fold).to_pandas()
    return (agg.sort_values(["n_runs", "word"],
                            ascending=[False, True]).head(40)
            .reset_index(drop=True)
            .astype({"word": "str", "n_runs": "int64"}))
