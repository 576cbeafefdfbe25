"""Flagship KG-construction pipeline (pages → nodes/edges Parquet).

The Ray-Data-first re-expression of the reference's end-to-end flow
(``structurize_files.py`` → ``pre_labeling.py`` → ``EnsemblePredict_all.py``
→ ``clean_and_save.py``; SURVEY §3, §7.1)::

    read_parquet(pages: url, warc_ts, html, text, lang)        # prune: url/html/lang only
     → map_batches(extract_text)        stateless               # byte-identical text per url
     → map_batches(split_sentences)     stateless, explode
     → map_batches(MentionStage, tasks)                         # members + dict + voting built once per worker process
         (NER → clean → rules → dedup → triples)                # batch-local D2
     → checkpoint triples (Parquet + lineage manifest)
     → map_batches(partial_graph_batch)                         # node + edge partials, one pass
     → ONE range-bucketed exchange → nodes + edges part files   # edges read sorted by subj_id

Branching note: nodes and edges both derive from triples; the triple set is
**checkpointed to Parquet** first so the expensive NER stage runs exactly
once and the graph finalize re-reads the (much smaller) checkpoint — this
is also the resume point (state/manifests.py).
"""

from __future__ import annotations

import os

import pyarrow.compute as pc

from ..functions.arrow import read_parquet_clean
from ..sources.pages import generate_pages
from ..stages.extract import extract_text_batch
from ..stages.ner import ensemble_batch, memo_stage
from ..stages.sentences import split_batch
from ..stages.triples import clean_mentions_batch, dedup_mentions_batch
from ..state.manifests import (
    read_manifest,
    read_stage,
    stage_complete,
    write_manifest,
)

# corpus size per scale-factor dir name (deterministic synthetic corpus;
# sf0.001 ≈ driver smoke, sf0.01 ≈ correctness, sf0.1 ≈ bench).  The bench
# corpus is sized so per-batch compute dominates the fixed per-run costs
# (execution start-ups + checkpoint write) — at 50 k pages those
# constants capped two-scale efficiency at ~0.5.
PAGES_PER_SF = {"sf0.001": 500, "sf0.01": 20_000, "sf0.1": 400_000}

# sentences per NER task batch.
# The triple set does not depend on it (test_triples_invariant_to_batching),
# but ``prob`` can move in the last bits (ROADMAP item 9).
NER_BATCH_SIZE = 2048


def pages_dataset(corpus_dir: str):
    """Open the page corpus reading ONLY the pipeline's columns (the
    ground-truth ``text`` column stays on disk — it is the oracle, not an
    input)."""
    import ray.data as rd

    return read_parquet_clean(
        corpus_dir,
        columns=["url", "html", "lang"],
        filter=pc.equal(pc.field("lang"), "zh"),
    )


def corpus_for_sf(sf_dir: str, root: str = "/tmp/mkg_corpus") -> str:
    """Materialize (once) the deterministic page corpus sized for a
    testdata scale-factor dir; returns the corpus directory."""
    sf_name = os.path.basename(os.path.normpath(sf_dir))
    n = PAGES_PER_SF.get(sf_name, 500)
    out = os.path.join(root, sf_name)
    return generate_pages(n, out)


class MentionStage:
    """ONE stage for the whole per-sentence path: ensemble NER → O14
    boundary strip → E4/E5 rule merging → D2 max-prob dedup → O15
    confidence cleansing → triple emission (implicit + taboo).

    Everything after the NER call is batch-local by construction (all
    mentions of a sentence live in the emitting batch), so chaining the
    stages inside one call removes five object-store round-trips per
    batch.  Pipelines run it as Ray tasks through ``mention_batch``,
    which builds it once per worker process and config.
    """

    def __init__(self, gazetteer: dict[str, str] | None = None, config=None):
        from ..config import EngineConfig
        from ..stages.ner import EnsembleNER
        from ..stages.rules_stage import RulesMerge

        cfg = config or EngineConfig()
        gaz = gazetteer if gazetteer is not None else cfg.gazetteer
        # ner_on=False (reference switch): dictionary-only labeling
        members = cfg.prediction_models if cfg.ner_on else ()
        # trained tagger as a voting member (M2): each worker process
        # loads the sparse weight artifact once, in __init__ (shared-FS
        # path, same visibility requirement as run_kg's sinks)
        trained_w = None
        if cfg.trained_model_dir and cfg.ner_on:
            from ..stages.perceptron import load_tagger

            trained_w = load_tagger(cfg.trained_model_dir)
        neural_p = None
        if cfg.neural_model_dir and cfg.ner_on:
            from ..stages.neural import load_neural

            neural_p = load_neural(cfg.neural_model_dir)
        self.ner = EnsembleNER(
            gaz, members=members,
            eval_override=cfg.eval_override,
            trained_weights=trained_w,
            neural_params=neural_p,
        )
        self.rules = RulesMerge(gaz) if cfg.merging else None

    def __call__(self, batch):
        import pandas as pd
        import pyarrow as pa

        from ..stages.cleansing import confidence_rules_df
        from ..stages.triples import (
            TRIPLE_SCHEMA,
            clean_mentions_df,
            dedup_mentions_df,
            emit_triples_df,
        )

        # ONE arrow→pandas conversion after NER, ONE pandas→arrow at the
        # end — the intermediate stages chain on the same DataFrame
        m = self.ner(batch)
        mdf = clean_mentions_df(m.to_pandas())
        if self.rules is not None:
            new = self.rules.augment(batch.to_pandas(), mdf)
            if len(new):
                mdf = pd.concat([mdf, new], ignore_index=True)
        mdf = dedup_mentions_df(mdf)
        mdf = confidence_rules_df(mdf)
        out = emit_triples_df(mdf)
        return pa.Table.from_pandas(out, schema=TRIPLE_SCHEMA, preserve_index=False).replace_schema_metadata(None)


def mention_batch(batch, config=None):
    """``MentionStage`` as a ``map_batches`` task function: one stage per
    worker process and config, memoized on ``_config_fingerprint`` (a
    tuning-only config shares the default stage)."""
    stage = memo_stage(
        ("mention", _config_fingerprint(config)),
        lambda: MentionStage(config=config),
    )
    return stage(batch)


def split_pages(pages):
    """pages Dataset → (url, sent_ord, sentence, …) rows: the extract +
    split prefix shared by every NER pipeline."""
    text = pages.map_batches(extract_text_batch, batch_format="pyarrow")
    return text.select_columns(["url", "text"]).map_batches(
        split_batch, batch_format="pyarrow"
    )


def triples_dataset(pages, *, sentence_tee=None, config=None):
    """pages Dataset → lazy triples Dataset (no checkpoint).

    Stage order mirrors the reference lifecycle (SURVEY §3.3): extract →
    split → [MentionStage tasks: NER + strip + rules + dedup + cleansing
    + triples].

    ``sentence_tee``: optional pass-through ``pa.Table → pa.Table``
    inserted after the split — run_kg uses it to write the source_info
    lineage table from the SAME execution (a separate extract+split pass
    cost a whole extra execution's fixed overhead).

    ``config``: an ``EngineConfig`` (gazetteer override, ensemble member
    registry, ner_on / merging switches, GPU placement — SURVEY §2.12)."""
    sents = split_pages(pages)
    if sentence_tee is not None:
        sents = sents.map_batches(sentence_tee, batch_format="pyarrow")
    # GPU-aware scorer tasks: a per-task GPU reservation (no-op when the
    # config leaves it None — this CPU sandbox — but on a GPU cluster the
    # tasks schedule onto GPU nodes exactly like the reference's
    # model.cuda() path, multi_source_ner.py:819-825)
    gpu_kw = (
        {"num_gpus": config.ner_num_gpus}
        if config is not None and config.ner_num_gpus
        else {}
    )
    return sents.map_batches(
        mention_batch,
        fn_kwargs={"config": config},
        batch_format="pyarrow",
        batch_size=NER_BATCH_SIZE,
        **gpu_kw,
    )


def sentences_dataset(corpus_dir: str):
    """pages → (url, sent_ord, sentence, …) rows (the shared prefix of the
    flagship, BIO-export and evaluation pipelines)."""
    return split_pages(pages_dataset(corpus_dir))


def bio_dataset(corpus_dir: str):
    """Char-level BIO training rows (url, sent_ord, split, bio) from a
    page corpus — the reference's NER-training export path (S4/O10/R6):
    sentences → ensemble NER → strip → dedup → BIO encoding."""
    from ..stages.bio import bio_export_batch

    return (
        sentences_dataset(corpus_dir)
        .map_batches(ensemble_batch, batch_format="pyarrow",
                     batch_size=NER_BATCH_SIZE)
        .map_batches(clean_mentions_batch, batch_format="pyarrow")
        .map_batches(dedup_mentions_batch, batch_format="pyarrow")
        .map_batches(bio_export_batch, batch_format="pyarrow")
    )


def source_info_dataset(corpus_dir: str):
    """Sentence-lineage table (``source_info``, ``clean_and_save.py:
    561-597``): one row per sentence with its head entity,
    section/paragraph and provenance, globally sorted by the
    content-stable key — the R1 ``sort_values("ind")`` analogue.  The
    reference's integer ``ind`` becomes (url, sent_ord); ``corpus``
    becomes the page language (the c/m/d/kd source label has no analogue
    in a single web-page table)."""
    sents = sentences_dataset(corpus_dir)
    return sents.sort(["url", "sent_ord"])


def ner_eval_pages(sf_dir: str, *, heldout_only: bool = True):
    """MUC evaluation over the sf-scaled page corpus (driver query)."""
    return ner_eval_corpus(corpus_for_sf(sf_dir), heldout_only=heldout_only)


def ner_eval_corpus(
    corpus_dir: str, *, heldout_only: bool = True,
    trained_model_dir: str | None = None,
    neural_model_dir: str | None = None,
):
    """MUC-style evaluation table over a page corpus: every ensemble
    member + ensemble_strong scored against the gazetteer gold span set —
    the reference's quality gate as a first-class distributed operator
    (``multi_ner_prediction.py:75-84, 595-606``).

    ``heldout_only`` (default): evaluate the content-stable val+test
    splits (~2.3% of sentences) — the reference evaluates held-out test
    sets, never the training corpus (``generation.py:446-455``,
    ``clean_and_save.py:763-768``); pass False for a full-corpus audit."""
    import pyarrow as pa

    from ..stages.bio import split_heldout_mask
    from ..stages.muc_eval import ner_eval_dataset

    sents = sentences_dataset(corpus_dir)
    if heldout_only:
        def keep_heldout(t: pa.Table) -> pa.Table:
            # vectorized split decision (identical md5 contract as
            # split_of) — the per-row loop here was the most expensive
            # single stage of BENCH_r02 (11.8 s ner_eval wall)
            mask = split_heldout_mask(t.column("url"), t.column("sent_ord"))
            return t.filter(pa.array(mask))

        sents = sents.map_batches(keep_heldout, batch_format="pyarrow")
    return (
        ner_eval_dataset(sents, trained_model_dir=trained_model_dir,
                         neural_model_dir=neural_model_dir)
        .sort_values(["model", "ent_type", "schema"])
        .reset_index(drop=True)
    )


def derived_eval_artifacts(sf_dir: str):
    """(eval_matrix, vote_weights) COMPUTED from the labeled corpus — the
    ``eval_dic.json`` / ``model_weights.json`` production path
    (``multi_ner_prediction.py:139-159, 609-610``), replacing the
    hash-fabricated stand-ins.  The evaluated table is tiny
    (#models × types × schemas); collecting it driver-side is the
    broadcast-artifact pattern, not a materialization."""
    from ..stages.muc_eval import eval_matrix_from, weights_from_eval

    eval_df = ner_eval_pages(sf_dir)
    return eval_matrix_from(eval_df), weights_from_eval(eval_df)


def _corpus_fingerprint(corpus_dir: str) -> str:
    """Content-aware corpus identity: abspath + sorted (file, size) digest
    (+ the generator stamp when present).  Path-only fingerprints returned
    stale checkpoints after a corpus was regenerated in place."""
    import hashlib

    parts = [os.path.abspath(corpus_dir)]
    for name in sorted(os.listdir(corpus_dir)):
        p = os.path.join(corpus_dir, name)
        if name.endswith(".parquet"):
            parts.append(f"{name}:{os.path.getsize(p)}")
        elif name == "_SUCCESS":
            with open(p) as fh:
                parts.append(fh.read())
    return hashlib.md5("|".join(parts).encode()).hexdigest()[:16]


def _config_fingerprint(config) -> str:
    """Semantic config digest — a different gazetteer / member registry /
    switch set must invalidate the triple checkpoints (tuning fields are
    excluded: they don't change results)."""
    import hashlib

    if config is None:
        return "default"
    ev = config.eval_override
    # trained model identity = CONTENT (weights file digest), not path —
    # retraining into the same directory must invalidate checkpoints
    trained_sig = None
    if config.trained_model_dir:
        wpath = os.path.join(config.trained_model_dir, "weights.parquet")
        trained_sig = f"{wpath}:{os.path.getsize(wpath)}:{int(os.path.getmtime(wpath))}"
    neural_sig = None
    if getattr(config, "neural_model_dir", None):
        npath = os.path.join(config.neural_model_dir, "neural.npz")
        neural_sig = f"{npath}:{os.path.getsize(npath)}:{int(os.path.getmtime(npath))}"
    sem = (
        sorted((config.gazetteer or {}).items()) if config.gazetteer else None,
        config.prediction_models,
        config.ner_on,
        config.merging,
        trained_sig,
        neural_sig,
        # eval_override changes every mention's confidence → results
        sorted((m, sorted(v.items())) for m, v in ev.items()) if ev else None,
    )
    if sem == (None, None, True, True, None, None, None):  # semantically default
        return "default"  # (a tuning-only config must NOT invalidate)
    return hashlib.md5(repr(sem).encode()).hexdigest()[:12]


def merge_graph_runs(
    out_roots: list[str], merged_out: str, *, resume: bool = True
) -> dict:
    """Incremental KG maintenance: nodes + edges re-finalized from the
    UNION of several runs' triples checkpoints.

    The 100-TB corpus-append story: a new crawl slice goes through
    ``run_kg`` against its OWN ``out_root`` (extraction + NER run only on
    the delta pages), then this merge rebuilds the graph tables from all
    triples checkpoints — which are orders of magnitude smaller than the
    page corpora, and the canonicalization half of the pipeline is the
    cheap half.  Because node/edge aggregation is associative
    (sum/max/count over content-hash keys), ``merge(run(A), run(B)) ≡
    run(A ∪ B)`` EXACTLY — pinned by ``test_merge_graph_runs_equals_
    single_run``.  No reference analogue (the reference recomputes from
    scratch, clean_and_save.py end-to-end); this is the operational gap
    a production graph needs closed.

    Returns {"nodes": manifest, "edges": manifest} under ``merged_out``.
    """
    import hashlib

    # merged fingerprint = digest of every input shard manifest's
    # fingerprint (any input change invalidates the merge)
    parts = []
    for root in sorted(out_roots):
        tri_dir = os.path.join(root, "triples")
        for name in sorted(os.listdir(tri_dir)):
            sdir = os.path.join(tri_dir, name)
            if name.startswith("shard_") and stage_complete(sdir):
                m = read_manifest(sdir)
                parts.append(f"{m['fingerprint']}|rows={m['rows']}")
    fp = "merge|" + hashlib.md5("\n".join(parts).encode()).hexdigest()[:16]

    def triples():
        tri = None
        for root in out_roots:
            ds = read_stage(os.path.join(root, "triples"))
            tri = ds if tri is None else tri.union(ds)
        return tri

    return _graph_stages(triples, merged_out, fp, resume=resume)


def _graph_stages(triples, out_root: str, fp: str, *, resume: bool) -> dict:
    """{"nodes", "edges"} manifests under ``out_root``: loaded when both
    checkpoints are complete for ``fp`` (``resume``), else written by
    ``finalize_graph_write`` over ``triples()`` — a callable, so a no-op
    resume never opens the triples checkpoint."""
    from ..stages.canonicalize import finalize_graph_write

    dirs = {name: os.path.join(out_root, name) for name in ("nodes", "edges")}
    if resume and all(stage_complete(d, fp) for d in dirs.values()):
        return {name: read_manifest(d) for name, d in dirs.items()}
    m_nodes, m_edges = finalize_graph_write(
        triples(), dirs["nodes"], dirs["edges"], fp
    )
    return {"nodes": m_nodes, "edges": m_edges}


def run_kg(
    corpus_dir: str,
    out_root: str,
    *,
    resume: bool = True,
    n_shards: int = 8,
    config=None,
) -> dict:
    """Full run with checkpoints: url-hash-sharded triples → nodes + edges.

    Returns {"triples": manifest, "nodes": manifest, "edges": manifest}.

    **Partition-level resumability (north_rule):** triples are partitioned
    into ``n_shards`` deterministic url-hash buckets, each landing in
    ``triples/shard_NNNN/`` with its own lineage manifest.  A rerun skips
    complete shards: the input is re-scanned but every page whose bucket
    is already done is filtered out right after the read, so only the
    missing shards pay extraction/NER/rules compute.  All incomplete
    shards run in ONE streaming execution (one fixed cost) and split at
    the task-side sink — per-shard executions would pay execution
    start-up per shard (~2.6 s each, measured).

    Tradeoff vs input-file-group shards: resume re-reads the (cheap,
    column-pruned) input once; choose file-group sharding instead when
    input re-read dominates compute.

    MULTI-NODE REQUIREMENT: ``out_root`` (and the corpus) must live on
    storage visible to every worker (shared FS / object store) — the
    task-side shard writer writes from worker processes and the driver
    assembles manifests from the same paths.  True of any distributed
    file sink; single-node /tmp is only valid in this sandbox.
    """
    import shutil

    from ..functions.hashing import block_digest, stable_bucket_vec

    fp_base = (
        f"corpus={_corpus_fingerprint(corpus_dir)}|shards={n_shards}"
        f"|cfg={_config_fingerprint(config)}"
    )
    tri_dir = os.path.join(out_root, "triples")
    si_dir = os.path.join(out_root, "source_info")
    os.makedirs(tri_dir, exist_ok=True)
    os.makedirs(si_dir, exist_ok=True)
    manifests: dict[str, dict] = {}

    def _sdir(i: int) -> str:
        return os.path.join(tri_dir, f"shard_{i:04d}")

    def _fp(i: int) -> str:
        return f"{fp_base}|shard={i}"

    def _si_sdir(i: int) -> str:
        return os.path.join(si_dir, f"shard_{i:04d}")

    def _fp_si(i: int) -> str:
        return f"{fp_base}|source_info|shard={i}"

    def _part_name(part) -> str:
        """Slice file name from the digest of its (url, sent_ord) rows in
        order: a retried block rewrites its own file, two distinct blocks
        never share one (a per-row Python md5 loop here cost ~15 s at
        5.6M triples; the digest reads the Arrow bytes once)."""
        return "part-" + block_digest(part.select(["url", "sent_ord"])) + ".parquet"

    def _shards_of(t):
        """Vectorized url→shard routing: dictionary-encode so each DISTINCT
        url is md5-hashed once (a block holds many rows per url), then
        gather.  Replaces a per-row Python loop on the flagship's widest
        stream (the same trap as the old shard_write filename loop)."""
        import numpy as np
        import pyarrow.compute as pc

        d = pc.dictionary_encode(t.column("url").combine_chunks())
        shard_u = stable_bucket_vec(d.dictionary, n_shards).astype(np.int32)
        return shard_u[np.asarray(d.indices)]

    # independent per-stage resume state; one execution covers the union
    # of whatever is missing (asymmetric resumes re-compute a completed
    # stage's slices but never re-WRITE them)
    tri_inc = [
        i for i in range(n_shards) if not (resume and stage_complete(_sdir(i), _fp(i)))
    ]
    si_inc = [
        i for i in range(n_shards)
        if not (resume and stage_complete(_si_sdir(i), _fp_si(i)))
    ]
    incomplete = sorted(set(tri_inc) | set(si_inc))
    if incomplete:
        pages = pages_dataset(corpus_dir)
        todo = frozenset(incomplete)
        if len(incomplete) < n_shards:
            import pyarrow as pa

            def keep_incomplete(t: pa.Table) -> pa.Table:
                import numpy as np
                import pyarrow.compute as pc

                d = pc.dictionary_encode(t.column("url").combine_chunks())
                bucket_u = stable_bucket_vec(d.dictionary, n_shards)
                mask = np.isin(bucket_u, list(todo))[np.asarray(d.indices)]
                return t.filter(pa.array(mask))

            pages = pages.map_batches(keep_incomplete, batch_format="pyarrow")

        tmp = tri_dir + ".partial"
        si_tmp = si_dir + ".partial"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(si_tmp, ignore_errors=True)
        for i in tri_inc:
            os.makedirs(os.path.join(tmp, f"shard_id={i:04d}"), exist_ok=True)
        for i in si_inc:
            os.makedirs(os.path.join(si_tmp, f"shard_id={i:04d}"), exist_ok=True)
        si_todo = frozenset(si_inc)
        tri_todo = frozenset(tri_inc)

        def sentence_tee(t):
            """Pass-through task-side sink for source_info: writes each
            incomplete shard's sentence slice (sorted within the file)
            from the SAME execution that feeds the NER stage — the
            lineage table costs no extra pipeline pass."""
            import pyarrow as pa
            import pyarrow.parquet as _pq

            shard = _shards_of(t)
            import numpy as np

            for i in np.unique(shard).tolist():
                if i not in si_todo:
                    continue
                part = t.filter(pa.array(shard == i)).sort_by(
                    [("url", "ascending"), ("sent_ord", "ascending")]
                )
                fname = _part_name(part)
                _pq.write_table(part, os.path.join(si_tmp, f"shard_id={i:04d}", fname))
            return t

        def shard_write(t):
            """Task-side triples sink: split the block by url-hash shard
            and write each slice as its own parquet file (Ray's
            partition_cols datasink was measured ~45 s at 8 CPUs for the
            same data — a direct pyarrow write is essentially free).
            Emits one lineage row per written file."""
            import numpy as np
            import pyarrow as pa
            import pyarrow.parquet as _pq

            shard = _shards_of(t)
            rows = []
            for i in np.unique(shard).tolist():
                if i not in tri_todo:
                    continue
                part = t.filter(pa.array(shard == i))
                fname = _part_name(part)
                fpath = os.path.join(tmp, f"shard_id={i:04d}", fname)
                _pq.write_table(part, fpath)
                rows.append((i, fname, part.num_rows, os.path.getsize(fpath)))
            return pa.table(
                {
                    "shard": pa.array([r[0] for r in rows], pa.int32()),
                    "file": pa.array([r[1] for r in rows], pa.string()),
                    "rows": pa.array([r[2] for r in rows], pa.int64()),
                    "bytes": pa.array([r[3] for r in rows], pa.int64()),
                }
            )

        if tri_inc:
            tri = triples_dataset(
                pages, sentence_tee=sentence_tee if si_inc else None,
                config=config,
            )
            tri.map_batches(shard_write, batch_format="pyarrow").count()
        else:
            # source_info-only rebuild: the lineage table needs just the
            # CHEAP extract+split prefix — never the NER stage
            split_pages(pages).map_batches(
                sentence_tee, batch_format="pyarrow"
            ).count()

        def _assemble(tmp_root, dst_fn, fp_fn, stage_name, inc):
            for i in inc:
                src = os.path.join(tmp_root, f"shard_id={i:04d}")
                dst = dst_fn(i)
                shutil.rmtree(dst, ignore_errors=True)
                if os.path.exists(src):
                    os.replace(src, dst)
                else:
                    os.makedirs(dst, exist_ok=True)  # empty shard
                write_manifest(
                    dst, f"{stage_name}/shard_{i:04d}", fp_fn(i),
                    input={"corpus": os.path.abspath(corpus_dir),
                           "url_hash_bucket": i, "n_shards": n_shards},
                )

        _assemble(tmp, _sdir, _fp, "triples", tri_inc)
        _assemble(si_tmp, _si_sdir, _fp_si, "source_info", si_inc)
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(si_tmp, ignore_errors=True)

    # prune stale shard dirs from an earlier run with a LARGER n_shards:
    # read_stage walks every shard_* directory, so leftovers would be
    # silently double-counted into nodes/edges while the triples manifest
    # only sums shards 0..n-1
    for stage_dir in (tri_dir, si_dir):
        for name in sorted(os.listdir(stage_dir)):
            if name.startswith("shard_"):
                try:
                    idx = int(name.split("_", 1)[1])
                except ValueError:
                    continue
                if idx >= n_shards:
                    shutil.rmtree(os.path.join(stage_dir, name), ignore_errors=True)

    for stage_name, sdir_fn in (("triples", _sdir), ("source_info", _si_sdir)):
        shard_manifests = [read_manifest(sdir_fn(i)) for i in range(n_shards)]
        manifests[stage_name] = {
            "stage": stage_name,
            "rows": sum(m["rows"] for m in shard_manifests),
            "num_partitions": sum(m["num_partitions"] for m in shard_manifests),
            "shards": shard_manifests,
        }

    # nodes and edges derive from ONE scan of the triples checkpoint AND
    # finalize in ONE streaming execution
    # (stages/canonicalize.py:finalize_graph_write)
    manifests.update(
        _graph_stages(lambda: read_stage(tri_dir), out_root, fp_base, resume=resume)
    )
    return manifests


def active_learning_seeds(sf_dir: str, n: int = 200):
    """Uncertainty-sampled annotation seeds: the ``n`` sentences whose
    ensemble votes disagree most — the data-side of the reference's
    active-learning loop (``multi_source_ner.py:854-858`` seeds retraining
    with ``random.sample``, which is order-dependent; top-disagreement
    selection is deterministic AND targets annotation where the ensemble
    is least sure, the standard uncertainty-sampling upgrade).

    Disagreement per sentence, from the mention stream alone (no span
    join): member span instances that failed to form a majority span
    (``orphans = n_member_rows − Σ support``) plus each majority span's
    dissent ``(M − k)``, normalized by the sentence's member instance
    count.  Unanimous sentences score 0; a sentence whose members all
    disagree scores ~1.

    Shape: one EnsembleNER task pass → vectorized per-batch
    (url, sent_ord) partials → global top-n through grouped_topn's
    combiner (the exchange carries ≤ n rows per batch, never the
    corpus)."""
    import numpy as np
    import pandas as pd

    from ..functions.arrow import arrow_out, read_parquet_clean
    from ..stages.ner import MODEL_NAMES
    from ..stages.shuffle import grouped_topn

    corpus = corpus_for_sf(sf_dir)
    sents = sentences_dataset(corpus)
    mentions = sents.map_batches(
        ensemble_batch, batch_format="pyarrow", batch_size=NER_BATCH_SIZE
    )
    M = len(MODEL_NAMES)
    member_set = frozenset(MODEL_NAMES)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"url": pd.array([], "str"), "sent_ord": pd.array([], "int64"),
                 "disagreement": pd.array([], "float64"),
                 "_all": pd.array([], "int8")}
            )
        is_member = b["model"].isin(member_set).to_numpy()
        is_strong = (b["model"] == "ensemble_strong").to_numpy()
        g = pd.DataFrame(
            {"url": b["url"], "sent_ord": b["sent_ord"],
             "n_member": is_member.astype("int64"),
             "support": np.where(is_strong, b["n_models"], 0).astype("int64"),
             "dissent": np.where(is_strong, M - b["n_models"], 0).astype("int64")}
        ).groupby(["url", "sent_ord"], sort=False).sum().reset_index()
        orphans = np.maximum(g["n_member"] - g["support"], 0)
        score = (orphans + g["dissent"]) / np.maximum(g["n_member"], 1)
        return pd.DataFrame(
            {"url": g["url"].astype(str),
             "sent_ord": pd.array(g["sent_ord"], "int64"),
             "disagreement": pd.array(np.round(score, 6), "float64"),
             "_all": pd.array(np.zeros(len(g), dtype="int8"), "int8")}
        )

    partials = mentions.map_batches(arrow_out(partial), batch_format="pandas")
    top = grouped_topn(
        partials, ["_all"], "disagreement", n,
        descending=True, tiebreak="url", num_buckets=1,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        out = b.sort_values(
            ["disagreement", "url", "sent_ord"], ascending=[False, True, True],
            kind="mergesort",
        )
        return out[["url", "sent_ord", "disagreement"]]

    return top.map_batches(arrow_out(finish), batch_format="pandas")
