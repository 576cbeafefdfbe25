"""Typed engine configuration — the §2.12 user-extension surface.

The reference is config-driven end to end: corpus paths, dictionary
files, ontology maps, the ``prediction_model`` ensemble registry and
on/off switches (``merging``, ``unseen_dic``, ``ner_on``) all live in
``config.yaml:1-114`` and are loaded at the top of every script
(``pre_labeling.py:34-56``).  This module is the engine's equivalent: a
small typed config consumed by the pipeline builders, loadable from YAML
or JSON.

Knobs (reference analogues):

* ``gazetteer`` — surface→type dict, or a path to a JSON file of one
  (the dictionaries/ directory analogue; defaults to the built-in
  ``MEDICAL_GAZETTEER``).
* ``prediction_models`` — which ensemble members vote
  (``config.yaml:48-49`` model registry); voting math follows the
  selected ensemble size.
* ``ner_on`` — False ⇒ dictionary-only labeling (the reference's switch
  that skips model prediction in pre-labeling).
* ``merging`` — False ⇒ skip the E1-E7 rule-merge stage
  (``config.yaml`` ``merging`` switch consumed at
  ``generation.py:304-340``).
* ``ner_num_gpus`` — per-task GPU reservation for the NER scorer tasks
  (the reference moves its models to CUDA when available,
  ``multi_source_ner.py:819-825``).  ``None`` (default) requests no
  GPUs — a no-op in CPU-only sessions; on a GPU cluster set e.g. 0.5
  to pack two scorer tasks per device.
* ``trained_model_dir`` — a ``stages/perceptron.save_tagger`` artifact
  directory; when set, the TRAINED tagger joins the ensemble as a real
  voting member (the reference's trained-models + dictionary ensemble,
  ``EnsemblePredict_all.py:436-441``).  Must be on storage visible to
  every worker (each worker process loads it once).
* ``eval_override`` — ``{model: {etype: [strict, partial, exact, type]}}``
  precision matrix derived from held-out evaluation
  (``stages/muc_eval.eval_matrix_from``) replacing the default artifact —
  the computed ``eval_dic.json`` of ``multi_ner_prediction.py:595-606``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class EngineConfig:
    gazetteer: dict[str, str] | None = None
    prediction_models: tuple[str, ...] | None = None
    ner_on: bool = True
    merging: bool = True
    ner_num_gpus: float | None = None
    trained_model_dir: str | None = None
    neural_model_dir: str | None = None
    eval_override: dict | None = None
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "EngineConfig":
        """Load from YAML (if pyyaml is importable) or JSON."""
        with open(path) as f:
            text = f.read()
        try:
            import yaml  # noqa: F401

            raw = yaml.safe_load(text)
        except ImportError:
            raw = json.loads(text)
        return cls.from_dict(raw or {})

    @classmethod
    def from_dict(cls, raw: dict) -> "EngineConfig":
        gaz = raw.get("gazetteer")
        if isinstance(gaz, str):  # path to a JSON {surface: type} file
            with open(gaz) as f:
                gaz = json.load(f)
        models = raw.get("prediction_models")
        if models is not None:
            models = tuple(models)
        known = {
            "gazetteer", "prediction_models", "ner_on", "merging",
            "ner_num_gpus", "trained_model_dir", "neural_model_dir",
            "eval_override",
        }
        return cls(
            gazetteer=gaz,
            prediction_models=models,
            ner_on=raw.get("ner_on", True),
            merging=raw.get("merging", True),
            ner_num_gpus=raw.get("ner_num_gpus"),
            trained_model_dir=raw.get("trained_model_dir"),
            neural_model_dir=raw.get("neural_model_dir"),
            eval_override=raw.get("eval_override"),
            extras={k: v for k, v in raw.items() if k not in known},
        )
