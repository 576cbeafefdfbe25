"""Long-lived model + search serving for the engine.

The reference ships two Flask apps that hold resident NER models and
answer ad-hoc requests (app.py:32-48 single-model; app_multi.py:154-282
multi-model ensemble: POST ``{"sentence": ...}`` → per-mention JSON
records ``[surface, type, type_name, position, prob]``).  This module
is that deployment re-expressed Ray-natively: ONE named, long-lived
``@ray.remote`` actor builds the full ensemble (and optionally attaches
a persisted search index) once in ``__init__`` and serves requests for
the life of the cluster — the HTTP layer minus HTTP.  Any HTTP front
(a Ray Serve deployment where available, a FastAPI worker, a plain
socket server) binds the actor's ``predict``/``search`` methods 1:1;
nothing in the engine depends on a web framework being installed.

Online ≡ offline is structural: the actor scores through the same
``EnsembleNER`` the batch pipeline's NER tasks use, so a sentence
served interactively and the same sentence flowing through
``run_kg`` can never disagree (pytest-pinned, including through the
actor boundary).
"""

from __future__ import annotations

from .config import EngineConfig
from .ontology import ESSENTIAL_TYPES, NONESSENTIAL_TYPES

_TYPE_NAMES = {**NONESSENTIAL_TYPES, **ESSENTIAL_TYPES}


class ModelServer:
    """The serving state + request handlers (plain class — wrap with
    ``ray.remote`` via :func:`deploy`, or hold in-process for tests).

    One instance = one resident ensemble (M2/M3/M4 state built once) +
    an optional search-index attachment.  Methods are the app contract:

    * ``predict({"sentence": s})`` → ``{"0": [surface, type, type_name,
      [start, end), prob], ...}`` — app_multi.py:154-282's response
      shape for the shipped union+vote ensemble (positions use the
      engine-wide [start, end) exclusive convention, O9).
    * ``predict_batch([s, ...])`` → the full per-member mention records
      of ``EnsembleNER.predict_sentences`` (S8).
    * ``search({"q": [...], "mode": and|ranked|phrase, "k": n})`` →
      bounded result records off the persisted inverted index.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        gazetteer: dict[str, str] | None = None,
        index_dir: str | None = None,
    ):
        from .stages.ner import EnsembleNER

        cfg = config or EngineConfig()
        members = cfg.prediction_models if cfg.ner_on else ()
        trained_w = None
        if cfg.trained_model_dir and cfg.ner_on:
            from .stages.perceptron import load_tagger

            trained_w = load_tagger(cfg.trained_model_dir)
        self.ner = EnsembleNER(
            gazetteer if gazetteer is not None else cfg.gazetteer,
            members=members,
            eval_override=cfg.eval_override,
            trained_weights=trained_w,
        )
        self.index_dir = index_dir
        self._n_requests = 0

    # -- health/metrics (what a load balancer polls) ----------------------
    def health(self) -> dict:
        return {
            "ok": True,
            "members": len(self.ner.members),
            "index": self.index_dir,
            "n_requests": self._n_requests,
        }

    # -- app_multi.py request/response contract ---------------------------
    def predict(self, payload: dict) -> dict:
        """``{"sentence": s}`` → indexed mention records of the SHIPPED
        ensemble strategy (union+vote, V3), exactly what the reference
        endpoint returns per request."""
        self._n_requests += 1
        sentence = payload["sentence"]
        res = self.ner.predict_sentences([sentence])[0]
        out: dict[str, list] = {}
        i = 0
        for m in res["mentions"]:
            if m["model"] != "ensemble_strong":
                continue
            out[str(i)] = [
                m["ent_name"],
                m["ent_type"],
                _TYPE_NAMES.get(m["ent_type"], m["ent_type"]),
                [m["start"], m["end"]],
                m["prob"],
            ]
            i += 1
        return out

    def predict_batch(self, sentences: list[str]) -> list[dict]:
        """S8 passthrough: every member's mentions, not just the ensemble."""
        self._n_requests += 1
        return self.ner.predict_sentences(list(sentences))

    # -- search serve over the persisted inverted index -------------------
    def search(self, payload: dict) -> list[dict]:
        """``{"q": [terms...], "mode": "and"|"ranked"|"phrase",
        "k"/"limit": n}`` → result records (bounded: the serve paths
        collect ≤ buckets×k rows driver-side by construction)."""
        from .stages.search import search_and, search_phrase, search_ranked

        if self.index_dir is None:
            raise ValueError("server deployed without an index_dir")
        self._n_requests += 1
        terms = list(payload["q"])
        mode = payload.get("mode", "and")
        if mode == "and":
            df = search_and(self.index_dir, terms,
                            limit=payload.get("limit"))
        elif mode == "ranked":
            df = search_ranked(self.index_dir, terms,
                               k=int(payload.get("k", 10)))
        elif mode == "phrase":
            df = search_phrase(self.index_dir, terms,
                               limit=payload.get("limit"))
        else:
            raise ValueError(f"unknown search mode: {mode}")
        return df.to_dict(orient="records")


def deploy(
    name: str = "mkg_model_server",
    *,
    config: EngineConfig | None = None,
    gazetteer: dict[str, str] | None = None,
    index_dir: str | None = None,
    num_cpus: float = 1,
    detached: bool = False,
):
    """Start (or fetch) the named serving actor — idempotent by name:
    ``get_if_exists`` makes a second deploy of the same name return the
    running actor, which is what a rolling client does on reconnect.

    ``detached=True`` gives the actor a cluster-scoped lifetime (it
    survives the submitting driver — the production posture for ``ray
    job submit``); tests keep the default driver-scoped lifetime so the
    actor dies with the session.  Where the optional Ray Serve extra is
    installed, the same class drops into a Serve deployment unchanged —
    the actor is the lowest-common-denominator host every Ray build has.
    """
    import ray

    opts = {"name": name, "get_if_exists": True, "num_cpus": num_cpus}
    if detached:
        opts["lifetime"] = "detached"
    Actor = ray.remote(ModelServer)
    return Actor.options(**opts).remote(
        config, gazetteer=gazetteer, index_dir=index_dir
    )
