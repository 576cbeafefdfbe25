"""Self-test of the benchmark's correctness checks: each check must pass on
real outputs and report a problem on a deliberately corrupted copy.

    python3 kgbench/selftest.py

Corruptions: a dropped triple, a triple whose object is not in its
sentence, an edge file out of ``subj_id`` order (checked alone and as a
later timed round) and a changed query row; and a call that raises must
count as a failed operation.
Exits 0 when every check passes on the real output and fails on every
corruption; a problem reported by a check is what ``run.py`` counts as a
failed operation.
"""

from __future__ import annotations

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".kgbench-selftest")


def _rewrite(path: str, fn) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    df = pq.read_table(path).to_pandas()
    pq.write_table(pa.Table.from_pandas(fn(df), preserve_index=False), path)


def _first_file(d: str) -> str:
    return sorted(
        os.path.join(r, n) for r, _, ns in os.walk(d) for n in ns if n.endswith(".parquet")
    )[0]


def main() -> int:
    sys.path[:0] = [ROOT]
    from kgbench import checks, cluster, inputs, workloads

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    pages, out = os.path.join(WORK, "pages"), os.path.join(WORK, "out")
    triples = os.path.join(WORK, "triples")
    tables = os.path.join(WORK, "tables")
    inputs.write_pages(3, pages, n=240)
    inputs.write_triples(3, triples, n=5_000)
    inputs.write_tables(3, tables)
    results = []

    def expect(label: str, problems: list[str], fail: bool) -> None:
        ok = bool(problems) == fail
        results.append(ok)
        print(f"[{'ok' if ok else 'FAIL'}] {label}: {problems[:2] or 'no problems'}", flush=True)

    with cluster.Cluster(ROOT, WORK):
        import __ray_entry__ as entry
        from medical_knowledge_graph_ray.pipelines.kg import run_kg
        from medical_knowledge_graph_ray.stages.canonicalize import finalize_graph_write
        from medical_knowledge_graph_ray.state.manifests import read_stage

        run_kg(pages, out, resume=False)
        graph = os.path.join(WORK, "graph")
        finalize_graph_write(read_stage(triples), f"{graph}/nodes", f"{graph}/edges", "selftest")
        query = "q3_top_orders"
        got = entry.queries()[query](tables).to_pandas()

        # a call that raises is a failed operation, not the end of the run
        wl = workloads.GraphFinalize()
        wl.triples_dir, wl.shape = os.path.join(WORK, "no_such_checkpoint"), {"triples": 0}
        raised = wl.operation(os.path.join(WORK, "raised"))
        expect("a raising finalize_graph_write counts as failed",
               ["failed"] * raised["failed"], fail=True)

    want = checks.duckdb_results(tables, [query])[query]
    expect("kg_build outputs", checks.check_kg_build(pages, out), fail=False)
    expect("graph_finalize outputs", checks.check_graph(
        checks.read_dir(triples), f"{graph}/nodes", f"{graph}/edges")
        + checks.check_edge_order(f"{graph}/edges"), fail=False)
    expect(f"{query} result", checks.compare(query, got, want), fail=False)

    def corrupted(label: str, src: str, corrupt) -> str:
        dst = os.path.join(WORK, label)
        shutil.copytree(src, dst)
        corrupt(dst)
        return dst

    bad = corrupted("dropped_triple", out, lambda d: _rewrite(
        _first_file(os.path.join(d, "triples")), lambda df: df.iloc[1:]))
    expect("dropped triple", checks.check_kg_build(pages, bad, oracle_sample=False), fail=True)

    def foreign_object(df):
        i = df.index[df["obj_type"] != "GRP"][0]
        df.loc[i, "obj"] = "不存在的实体"
        return df

    bad = corrupted("foreign_object", out, lambda d: _rewrite(
        _first_file(os.path.join(d, "triples")), foreign_object))
    expect("object not in sentence", checks.check_kg_build(pages, bad, oracle_sample=False), fail=True)

    bad = corrupted("unsorted_edges", graph, lambda d: _rewrite(
        _first_file(os.path.join(d, "edges")), lambda df: df.iloc[::-1]))
    expect("edge file out of subj_id order", checks.check_edge_order(f"{bad}/edges"), fail=True)
    # through the workload's per-round check: a later round with the first
    # round's content but its edges out of order
    wl = workloads.GraphFinalize()
    wl.triples_dir = triples
    expect("graph_finalize first round", wl.check({"dir": graph, "failed": 0}), fail=False)
    expect("graph_finalize later round out of subj_id order",
           wl.check({"dir": bad, "failed": 0}), fail=True)

    changed = got.copy()
    changed.loc[changed.index[0], "revenue"] += 0.01
    expect("changed query row", checks.compare(query, changed, want), fail=True)

    # the same corruption through the workload's check, whose
    # (operation, problem) pairs run.py counts as failed operations
    wl = workloads.KgQueries()
    wl.want = {query: want}
    expect("kg_queries reports the changed row's query as failed",
           [op for op, _ in wl.check({"results": {query: changed}})], fail=True)

    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
