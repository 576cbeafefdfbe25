"""The three workloads.  Each has the same shape:

* ``generate(seed, dir)``: write the seeded inputs (timed as set-up);
* ``operation(round_dir, log)``: the timed calls into the package,
  returning the round record: ``items``, ``attempted`` and ``failed``
  operations, and what the check and the layer metrics need.  A call that
  raises is logged and counted as a failed operation;
* ``check(round)``: ``(operation, problem)`` pairs for a round's outputs,
  called for every round in order after all rounds, so that no check runs
  between timed rounds.  For the pipelines, the first round whose call
  returned gets the full check; each later round is compared with it by
  content digest (equal contents share its problems) and gets the cheap
  row-order check of its own.  Every query result of every round is
  compared with DuckDB;
* ``layers(rounds)``: per-layer metrics of traced rounds.

``items`` is what ``items_per_s`` counts: input pages for ``kg_build``,
triples consumed for ``graph_finalize``, queries answered for
``kg_queries``.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback

from kgbench import checks, inputs, tracing

# kg_queries: at least one query per exchange idiom (ROADMAP item 2)
QUERIES = [
    "kg_doc_mentions",            # map-only over documents
    "kg_doc_edges",               # bucketed_group_map census
    "kg_cooccurrence",            # bucketed_group_map, gazetteer-bounded keys
    "events_fano",                # Ray sort-based .aggregate + to_pandas fold
    "q3_top_orders",              # hash_join + driver-side key collect
    "q5_region_revenue",          # broadcast keys + hash_join
    "orders_lineitem_mergejoin",  # merge_join
]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _per(total: float, n: float, scale: float = 1e6) -> float:
    return total / n * scale if n else 0.0


def _call(fn) -> tuple[object, int]:
    """``(result, failed)``: a raising call is logged and counted, not fatal."""
    try:
        return fn(), 0
    except Exception:  # noqa: BLE001
        traceback.print_exc()
        return None, 1


class _Pipeline:
    """Checks of a single-call workload whose outputs are files."""

    op = ""
    digest = None

    def full_check(self, out: str) -> list[str]:
        raise NotImplementedError

    def content_digest(self, out: str) -> str:
        raise NotImplementedError

    def check(self, r: dict) -> list[tuple[str, str]]:
        if r["failed"]:
            return []
        out = r["dir"]
        order = checks.check_edge_order(os.path.join(out, "edges"))
        if self.digest is None:
            self.digest = self.content_digest(out)
            self.content_problems = problems = self.full_check(out)
        elif self.content_digest(out) != self.digest:
            problems = ["outputs differ from the first checked round's"]
        else:
            problems = self.content_problems
        return [(self.op, p) for p in problems + order]

    def wall(self, rounds) -> float:
        """``wall_s``: the median round."""
        return _median([r["wall"] for r in rounds])

    def layers(self, rounds) -> dict:
        return _pipeline_layers(rounds)


class KgBuild(_Pipeline):
    name = "kg_build"
    op = "run_kg"

    def generate(self, seed: int, d: str) -> dict:
        self.pages_dir = os.path.join(d, "pages")
        self.shape = inputs.write_pages(seed, self.pages_dir)
        return self.shape

    def operation(self, out: str, log=None) -> dict:
        from medical_knowledge_graph_ray.pipelines.kg import run_kg

        manifests, failed = _call(lambda: run_kg(self.pages_dir, out, resume=False))
        r = {"items": self.shape["pages"], "attempted": 1, "failed": failed}
        if manifests is not None:
            r["manifests"] = manifests
        return r

    def full_check(self, out: str) -> list[str]:
        return checks.check_kg_build(self.pages_dir, out)

    def content_digest(self, out: str) -> str:
        return checks.kg_build_digest(out)


class GraphFinalize(_Pipeline):
    name = "graph_finalize"
    op = "finalize_graph_write"

    def generate(self, seed: int, d: str) -> dict:
        self.triples_dir = os.path.join(d, "triples")
        self.shape = inputs.write_triples(seed, self.triples_dir)
        return self.shape

    def operation(self, out: str, log=None) -> dict:
        from medical_knowledge_graph_ray.stages.canonicalize import finalize_graph_write
        from medical_knowledge_graph_ray.state.manifests import read_stage

        _, failed = _call(lambda: finalize_graph_write(
            read_stage(self.triples_dir),
            os.path.join(out, "nodes"), os.path.join(out, "edges"), "kgbench",
        ))
        return {"items": self.shape["triples"], "attempted": 1, "failed": failed}

    def full_check(self, out: str) -> list[str]:
        return checks.check_graph(
            checks.read_dir(self.triples_dir), os.path.join(out, "nodes"), os.path.join(out, "edges"))

    def content_digest(self, out: str) -> str:
        return "|".join(checks.digest(checks.read_dir(os.path.join(out, t))) for t in ("nodes", "edges"))


class KgQueries:
    name = "kg_queries"

    def generate(self, seed: int, d: str) -> dict:
        self.sf_dir = os.path.join(d, "tables")
        self.shape = inputs.write_tables(seed, self.sf_dir)
        return self.shape

    def prepare(self) -> None:
        """DuckDB reference results, computed once outside the timing."""
        self.want = checks.duckdb_results(self.sf_dir, QUERIES)

    def operation(self, out: str, log=None) -> dict:
        import __ray_entry__ as entry

        qs = entry.queries()
        results, per_query, failed = {}, {}, 0
        for name in QUERIES:
            if log is not None:
                log.read_new()
            t0 = time.perf_counter()
            got, bad = _call(lambda: checks.to_pandas(qs[name](self.sf_dir)))
            wall = time.perf_counter() - t0
            if bad:
                failed += 1
            else:
                results[name] = got
            per_query[name] = (wall, log.read_new() if log is not None else [])
        return {"items": len(QUERIES), "attempted": len(QUERIES), "failed": failed,
                "results": results, "per_query": per_query}

    def wall(self, rounds) -> float:
        """``wall_s``: the sum of each query's median over the rounds, so
        that a slow stretch during one query of a round does not move the
        whole round."""
        return sum(_median([r["per_query"][name][0] for r in rounds]) for name in QUERIES)

    def check(self, r: dict) -> list[tuple[str, str]]:
        return [
            (name, p)
            for name, got in r["results"].items()
            for p in checks.compare(name, got, self.want[name])
        ]

    def layers(self, rounds) -> dict:
        m = {}
        for name in QUERIES:
            m[f"query.{name}.s"] = _median([r["per_query"][name][0] for r in rounds])
            m[f"query.{name}.executions"] = _median([len(r["per_query"][name][1]) for r in rounds])
        execs = [[e for _, ex in r["per_query"].values() for e in ex] for r in rounds]
        m["ray.executions"] = _median([len(ex) for ex in execs])
        m["ray.spilled_mb"] = _median([
            tracing.op_sum(ex, "obj_store_mem_spilled", lambda op: True) / 1e6 for ex in execs
        ])
        return m


WORKLOADS = {w.name: w for w in (KgBuild, GraphFinalize, KgQueries)}


def _pipeline_layers(rounds) -> dict:
    """Per-layer metrics of ``kg_build`` / ``graph_finalize`` traced rounds:
    span sums from the workers, Ray-side times from Ray Data's log."""
    per_round = []
    for r in rounds:
        spans, execs = r["spans"], r["execs"]
        selfs = tracing.self_times(spans)
        tot: dict[str, dict[str, float]] = {}
        for s in spans:
            t = tot.setdefault(s["name"], {"wall": 0.0, "self": 0.0, "in": 0, "out": 0})
            t["wall"] += s["wall"]
            t["self"] += selfs[(s["pid"], s["id"])]
            t["in"] += s["n_in"] or 0
            t["out"] += s["n_out"] or 0
        g = lambda n, k: tot.get(n, {}).get(k, 0.0)  # noqa: E731
        pages, sents = g("extract", "in"), g("mention_stage", "in")
        is_fin = lambda e: "partial_graph_batch" in e["plan"]  # noqa: E731
        build = [e for e in execs if not is_fin(e)]
        fin = [e for e in execs if is_fin(e)]
        m = {
            "read.task_s": tracing.op_sum(build, "block_generation_time", lambda op: "ReadParquet" in op),
            "read.rows": tracing.op_sum(build, "rows_task_outputs_generated", lambda op: "ReadParquet" in op),
            "extract.us_per_page": _per(g("extract", "wall"), pages),
            "split.us_per_page": _per(g("split", "wall"), pages),
            "split.sentences": g("split", "out"),
            "mention_stage.us_per_sentence": _per(g("mention_stage", "wall"), sents),
            "mention_stage.self_us_per_sentence": _per(g("mention_stage", "self"), sents),
            "mention_stage.cpu_us_per_sentence": _per(
                sum(s["cpu"] for s in spans if s["name"] == "mention_stage"), sents),
            "mention.yield": g("emit", "out") / g("ner", "out") if g("ner", "out") else 0.0,
            "sink.task_s": tracing.op_sum(build, "block_generation_time", lambda op: "shard_write" in op),
            "sink.files": float(sum(
                r["manifests"][k]["num_partitions"] for k in ("triples", "source_info")
            )) if "manifests" in r else 0.0,
            "partial_graph.us_per_triple": _per(g("partial_graph", "wall"), g("partial_graph", "in")),
            "partial_graph.partials": g("partial_graph", "out"),
            "finalize.s": g("finalize", "wall"),
            "finalize.exchange_mb": tracing.op_sum(
                fin, "bytes_inputs_received", lambda op: op.startswith("AllToAll")) / 1e6,
            "ray.executions": float(len(execs)),
            "ray.spilled_mb": tracing.op_sum(execs, "obj_store_mem_spilled", lambda op: True) / 1e6,
        }
        for layer, count in (("ner", "spans"), ("strip", "spans_kept"), ("rules", "spans_added"),
                             ("dedup", "spans_kept"), ("cleansing", "spans_kept"), ("emit", "triples")):
            m[f"{layer}.us_per_sentence"] = _per(g(layer, "wall"), sents)
            m[f"{layer}.{count}"] = g(layer, "out")
        # what the spans and Ray's operator times leave of the round's wall:
        # execution start-up, scheduling, the driver's own work, and any
        # overlap between the read/sink tasks and the actor (negative)
        m["trace.unaccounted_s"] = r["wall"] - (
            g("extract", "wall") + g("split", "wall") + g("mention_stage", "wall")
            + m["read.task_s"] + m["sink.task_s"] + m["finalize.s"]
        )
        per_round.append(m)
    return {k: _median([m[k] for m in per_round]) for k in per_round[0]}
