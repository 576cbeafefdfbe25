"""CLI entry points — the engine's analogue of the reference's script
surface (``python structurize_files.py`` → ``python -m
medical_knowledge_graph_ray run`` etc.).

Owns its Ray session (library code never calls ray.init — see
``__ray_entry__`` contract).
"""

from __future__ import annotations
from medical_knowledge_graph_ray.functions.arrow import read_parquet_clean

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> bool:
    """Init Ray if nobody has; returns True iff THIS call owns the
    session (an embedding caller's session — e.g. the pytest fixture —
    must never be shut down underneath it)."""
    import ray

    owned = not ray.is_initialized()
    if owned:
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False
    return owned


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="medical_knowledge_graph_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen-corpus", help="generate the synthetic page corpus")
    gen.add_argument("--pages", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--num-files", type=int, default=None)

    run = sub.add_parser(
        "run",
        help="flagship KG pipeline: corpus → triples/nodes/edges/source_info. "
        "Multi-node: `ray job submit -- python -m medical_knowledge_graph_ray "
        "run …` with corpus/out on shared storage.",
    )
    run.add_argument("--corpus", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--no-resume", action="store_true")
    run.add_argument("--n-shards", type=int, default=8)
    run.add_argument(
        "--config", default=None,
        help="EngineConfig YAML/JSON: gazetteer (inline or file path), "
        "prediction_models, ner_on, merging, tuning (SURVEY §2.12)",
    )
    run.add_argument(
        "--target-block-mb", type=int, default=None,
        help="DataContext.target_max_block_size in MiB (explicit target "
        "block size; default Ray's 128)",
    )
    run.add_argument(
        "--trained", action="store_true",
        help="vote with the TRAINED perceptron tagger: train once per "
        "corpus fingerprint (checkpointed under --model-root), derive "
        "the eval matrix on the held-out split, then run the flagship "
        "with the trained member in the ensemble (M2 loop)",
    )
    run.add_argument(
        "--model-root", default="/tmp/mkg_models",
        help="checkpoint root for --trained tagger artifacts "
        "(shared storage on multi-node)",
    )

    bio = sub.add_parser("export-bio", help="BIO training-data export")
    bio.add_argument("--corpus", required=True)
    bio.add_argument("--out", required=True)

    ev = sub.add_parser(
        "ner-eval",
        help="MUC evaluation → eval table Parquet + eval_dic.json / "
        "model_weights.json (the reference's evaluation artifacts)",
    )
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument(
        "--full-corpus", action="store_true",
        help="evaluate every sentence instead of the held-out splits",
    )

    pr = sub.add_parser(
        "prep",
        help="composed LLM-prep flagship: documents table → kept/packs/"
        "sequences/stats checkpoints (curate ⊖ decontaminate → split → "
        "pack); optionally export the packed sequences as sharded JSONL",
    )
    pr.add_argument("--sf-dir", required=True,
                    help="directory holding documents.parquet")
    pr.add_argument("--out", required=True)
    pr.add_argument("--no-resume", action="store_true")
    pr.add_argument(
        "--export-jsonl", action="store_true",
        help="also write <out>/sequences_jsonl/ (the training-export "
        "format; sharded, with an auditable manifest)",
    )

    tr = sub.add_parser(
        "train",
        help="distributed batch-perceptron NER training over the "
        "dictionary-labeled corpus → sparse weights Parquet + model.json "
        "+ learning-curve Parquet (the model-training loop; exact-integer "
        "BSP, bit-identical at any parallelism)",
    )
    tr.add_argument("--corpus", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--rounds", type=int, default=6)

    se = sub.add_parser(
        "search",
        help="build (once) the positional inverted index over a "
        "documents table and serve a query: --mode and|ranked|phrase",
    )
    se.add_argument("--sf-dir", required=True,
                    help="directory holding documents.parquet")
    se.add_argument("--index", required=True,
                    help="index directory (built + manifest-resumed here)")
    se.add_argument("--terms", nargs="+", required=True)
    se.add_argument("--mode", choices=["and", "ranked", "phrase"],
                    default="and")
    se.add_argument("--k", type=int, default=10,
                    help="top-k for --mode ranked")

    co = sub.add_parser(
        "compact",
        help="bin-pack small parquet files under --in into ~target-MB "
        "outputs (metadata-only planning, one Ray task per bin, "
        "content-addressed idempotent outputs, manifest resume)",
    )
    co.add_argument("--in", dest="in_dir", required=True)
    co.add_argument("--out", required=True)
    co.add_argument("--target-mb", type=int, default=128)

    pf = sub.add_parser(
        "profile",
        help="ANALYZE the testdata tables: per-column rows/nulls/exact "
        "distinct/typed min-max + heavy-key skew report (top values, "
        "bp shares) over the join key columns; prints JSON or writes "
        "parquet with --out",
    )
    pf.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    pf.add_argument("--out", default=None,
                    help="directory for profile.parquet + skew.parquet")

    qr = sub.add_parser(
        "query",
        help="run any registered pipeline (the __ray_entry__.queries() "
        "registry) by name over an sf dir; prints a head as JSON or "
        "writes the full result with --out (.parquet/.csv/.jsonl). "
        "--list shows every registered name",
    )
    qr.add_argument("name", nargs="?", default=None)
    qr.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    qr.add_argument("--out", default=None,
                    help="output file; format from the extension")
    qr.add_argument("--head", type=int, default=10,
                    help="rows to print when no --out is given")
    qr.add_argument("--list", action="store_true", dest="list_names")

    sv = sub.add_parser(
        "serve",
        help="deploy the named model/search serving actor and answer "
        "one request: --sentence for NER prediction (the reference "
        "app_multi response shape) or --terms for index search",
    )
    sv.add_argument("--sentence", default=None)
    sv.add_argument("--terms", nargs="+", default=None)
    sv.add_argument("--mode", choices=["and", "ranked", "phrase"],
                    default="ranked")
    sv.add_argument("--index", default=None,
                    help="index dir for --terms (see the search command)")
    sv.add_argument("--k", type=int, default=10)
    sv.add_argument("--name", default="mkg_model_server")

    au = sub.add_parser(
        "audit",
        help="audit a run_kg output root: every manifest vs the actual "
        "parquet files (missing/mismatched/orphan partitions)",
    )
    au.add_argument("--out", required=True)

    args = p.parse_args(argv)
    if args.cmd == "audit":  # pure filesystem metadata work — no Ray
        from .state.manifests import audit_run

        report = audit_run(args.out)
        print(json.dumps(report))
        return 0 if report["ok"] else 1
    owns_ray = _init_ray(args.num_cpus)
    import ray

    try:
        if args.cmd == "gen-corpus":
            from .sources.pages import generate_pages

            out = generate_pages(args.pages, args.out, num_files=args.num_files)
            print(json.dumps({"corpus": out, "pages": args.pages}))
        elif args.cmd == "run":
            from .pipelines.kg import run_kg

            if args.target_block_mb:
                from ray.data import DataContext

                DataContext.get_current().target_max_block_size = (
                    args.target_block_mb * 1024 * 1024
                )
            cfg = None
            if args.config:
                from .config import EngineConfig

                cfg = EngineConfig.from_file(args.config)
            if args.trained:
                if cfg is not None and (
                    cfg.trained_model_dir or cfg.eval_override
                ):
                    raise SystemExit(
                        "--trained conflicts with a --config that already "
                        "sets trained_model_dir/eval_override"
                    )
                import dataclasses

                from .pipelines.ner_train import trained_kg_config

                tcfg = trained_kg_config(
                    args.corpus, model_root=args.model_root
                )
                cfg = (
                    dataclasses.replace(
                        cfg,
                        trained_model_dir=tcfg.trained_model_dir,
                        eval_override=tcfg.eval_override,
                    )
                    if cfg is not None
                    else tcfg
                )
            m = run_kg(
                args.corpus,
                args.out,
                resume=not args.no_resume,
                n_shards=args.n_shards,
                config=cfg,
            )
            print(
                json.dumps(
                    {k: {"rows": v["rows"]} for k, v in m.items()} | {"out": args.out}
                )
            )
        elif args.cmd == "export-bio":
            from .pipelines.kg import bio_dataset
            from .stages.bio import write_bio_corpus

            write_bio_corpus(bio_dataset(args.corpus), args.out)
            print(json.dumps({"out": args.out}))
        elif args.cmd == "prep":
            from .pipelines.docs_prep import run_docs_prep

            m = run_docs_prep(args.sf_dir, args.out,
                              resume=not args.no_resume)
            out = {"out": args.out,
                   "rows": {k: v["rows"] for k, v in m.items()}}
            if args.export_jsonl:
                from .sources.tables import write_jsonl
                from .state.manifests import read_stage

                jm = write_jsonl(
                    read_stage(f"{args.out}/sequences"),
                    f"{args.out}/sequences_jsonl",
                )
                out["jsonl"] = {"rows": jm["rows"],
                                "files": len(jm["files"])}
            print(json.dumps(out))
        elif args.cmd == "ner-eval":
            import os

            from .pipelines.kg import ner_eval_corpus
            from .stages.muc_eval import eval_matrix_from, weights_from_eval

            eval_df = ner_eval_corpus(
                args.corpus, heldout_only=not args.full_corpus
            )
            os.makedirs(args.out, exist_ok=True)
            eval_df.to_parquet(os.path.join(args.out, "ner_eval.parquet"))
            with open(os.path.join(args.out, "eval_dic.json"), "w") as f:
                json.dump(eval_matrix_from(eval_df), f, indent=1)
            with open(os.path.join(args.out, "model_weights.json"), "w") as f:
                json.dump(weights_from_eval(eval_df), f, indent=1)
            print(json.dumps({"out": args.out, "rows": len(eval_df)}))
        elif args.cmd == "train":
            import os

            from .pipelines.ner_train import ner_train_fit
            from .stages.perceptron import save_tagger

            curve, W = ner_train_fit(args.corpus, rounds=args.rounds)
            meta = save_tagger(W, args.out)
            curve.to_parquet(os.path.join(args.out, "learning_curve.parquet"))
            final = curve.iloc[-1]
            print(json.dumps(
                {"out": args.out, "rounds": args.rounds, "nnz": meta["nnz"],
                 "val_token_acc": float(final["val_token_acc"]),
                 "val_span_f1": float(final["val_span_f1"])}
            ))
        elif args.cmd == "serve":
            import ray as _ray

            from .serving import deploy

            server = deploy(args.name, index_dir=args.index)
            if args.sentence:
                preds = _ray.get(server.predict.remote(
                    {"sentence": args.sentence}))
                print(json.dumps({"endpoint": "predict",
                                  "preds": preds}, ensure_ascii=False))
            elif args.terms:
                hits = _ray.get(server.search.remote(
                    {"q": args.terms, "mode": args.mode, "k": args.k}))
                print(json.dumps({"endpoint": "search", "mode": args.mode,
                                  "hits": hits}, ensure_ascii=False))
            else:
                print(json.dumps(_ray.get(server.health.remote())))
        elif args.cmd == "search":
            import ray.data as rd

            from .stages.search import (
                build_inverted_index, search_and, search_phrase, search_ranked,
            )

            docs = read_parquet_clean(
                f"{args.sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
            build_inverted_index(docs, args.index)
            if args.mode == "and":
                out = search_and(args.index, args.terms)
            elif args.mode == "phrase":
                out = search_phrase(args.index, args.terms)
            else:
                out = search_ranked(args.index, args.terms, k=args.k)
            print(json.dumps(
                {"mode": args.mode, "terms": args.terms, "hits": len(out),
                 "rows": out.to_dict(orient="records")}
            ))
        elif args.cmd == "profile":
            from .pipelines.relational import tables_profile, tables_skew_report

            prof = tables_profile(args.sf_dir)
            skew = tables_skew_report(args.sf_dir)
            if args.out:
                import os

                import pyarrow as pa
                import pyarrow.parquet as pq

                os.makedirs(args.out, exist_ok=True)
                pq.write_table(pa.Table.from_pandas(prof),
                               os.path.join(args.out, "profile.parquet"))
                pq.write_table(pa.Table.from_pandas(skew),
                               os.path.join(args.out, "skew.parquet"))
            print(json.dumps(
                {"columns_profiled": len(prof),
                 "hottest": skew.sort_values(
                     "share_bp", ascending=False
                 ).head(3)[["tbl", "col", "value", "share_bp"]]
                  .to_dict("records"),
                 "out": args.out}
            ))
        elif args.cmd == "query":
            # the registry lives in the repo-root entry module; resolve it
            # the way the driver does (repo root on sys.path)
            import importlib
            import os

            sys.path.insert(0, os.getcwd())
            em = importlib.import_module("__ray_entry__")
            registry = em.queries()
            if args.list_names or args.name is None:
                print(json.dumps(sorted(registry)))
                return 0
            if args.name not in registry:
                print(json.dumps({"error": f"unknown query {args.name!r}"}))
                return 1
            import pandas as pd

            res = registry[args.name](args.sf_dir)
            df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
            if args.out:
                if args.out.endswith(".csv"):
                    df.to_csv(args.out, index=False)
                elif args.out.endswith(".jsonl"):
                    df.to_json(args.out, orient="records", lines=True)
                else:
                    df.to_parquet(args.out, index=False)
                print(json.dumps({"query": args.name, "rows": len(df),
                                  "out": args.out}))
            else:
                print(json.dumps(
                    {"query": args.name, "rows": len(df),
                     "head": json.loads(
                         df.head(args.head).to_json(orient="records")
                     )}
                ))
        elif args.cmd == "compact":
            from .stages.compact import compact_parquet

            m = compact_parquet(args.in_dir, args.out, target_mb=args.target_mb)
            print(json.dumps(
                {"out": args.out, "input_files": m["input_files"],
                 "output_files": m["output_files"], "rows": m["rows"]}
            ))
    finally:
        if owns_ray:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
