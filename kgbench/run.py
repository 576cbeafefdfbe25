"""Benchmark of the KG build, the graph finalize and the exchange queries.

    python3 kgbench/run.py --workload kg_build --seed 1 --seconds 10 --trace 0

Run from the repository root (any working directory works; the package is
found next to this directory).  With ``--trace 0`` the last stdout line is
a JSON object with the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run.  Everything else -- Ray's logging,
worker output, progress -- goes to stderr.  Scratch files live under
``.kgbench/`` in the repository root and are replaced on every run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".kgbench")
GENERATIONS = 3  # set-up is repeated and its median reported
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "items/s",
    "cpu_s": "s",
    "peak_mem_mb": "MB",
}
PER_LAYER = {
    "read.task_s": "s", "read.rows": "count",
    "extract.us_per_page": "us/page",
    "split.us_per_page": "us/page", "split.sentences": "count",
    "ner.us_per_sentence": "us/sentence", "ner.spans": "count",
    "strip.us_per_sentence": "us/sentence", "strip.spans_kept": "count",
    "rules.us_per_sentence": "us/sentence", "rules.spans_added": "count",
    "dedup.us_per_sentence": "us/sentence", "dedup.spans_kept": "count",
    "cleansing.us_per_sentence": "us/sentence", "cleansing.spans_kept": "count",
    "emit.us_per_sentence": "us/sentence", "emit.triples": "count",
    "mention_stage.us_per_sentence": "us/sentence",
    "mention_stage.self_us_per_sentence": "us/sentence",
    "mention_stage.cpu_us_per_sentence": "us/sentence",
    "mention.yield": "ratio",
    "sink.task_s": "s", "sink.files": "count",
    "partial_graph.us_per_triple": "us/triple", "partial_graph.partials": "count",
    "finalize.s": "s", "finalize.exchange_mb": "MB",
    "ray.executions": "count", "ray.spilled_mb": "MB",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}


def _claim_stdout():
    """Point fd 1 (and anything that inherits it: Ray's daemons and
    workers) at stderr; return a private handle on the real stdout."""
    real = os.fdopen(os.dup(1), "w")
    sys.stdout.flush()
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    return real


def _log(msg: str) -> None:
    print(f"[kgbench] {msg}", file=sys.stderr, flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["kg_build", "graph_finalize", "kg_queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    sys.path[:0] = [ROOT]
    if importlib.util.find_spec("medical_knowledge_graph_ray") is None:
        _log(f"package medical_knowledge_graph_ray not found under {ROOT}")
        return 2
    out = _claim_stdout()

    from kgbench import cluster, proctree, tracing, workloads

    per_layer = dict(PER_LAYER)
    for q in workloads.QUERIES:
        per_layer[f"query.{q}.s"] = "s"
        per_layer[f"query.{q}.executions"] = "count"
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    wl = workloads.WORKLOADS[args.workload]()

    gen_s = []
    for _ in range(GENERATIONS):
        t0 = time.perf_counter()
        shape = wl.generate(args.seed, os.path.join(WORK, "inputs"))
        gen_s.append(time.perf_counter() - t0)
    _log(f"{args.workload} seed={args.seed} inputs={shape}")

    trace_dir = os.path.join(WORK, "trace") if args.trace else None
    if trace_dir:
        os.makedirs(trace_dir)
    t0 = time.perf_counter()
    with cluster.Cluster(ROOT, WORK, trace_dir=trace_dir) as cl:
        ray_start_s = time.perf_counter() - t0
        print(json.dumps({"host": cluster.host_shape(), "workload": args.workload,
                          "seed": args.seed}), file=out, flush=True)
        log = tracing.RayDataLog(cl.ray_data_log()) if trace_dir else None
        if trace_dir:
            tracing.install_driver(trace_dir)
        if hasattr(wl, "prepare"):
            wl.prepare()

        runs = os.path.join(WORK, "runs")
        t0 = time.perf_counter()
        warm = {"dir": os.path.join(runs, "warm")}
        warm.update(wl.operation(warm["dir"], log))
        warm_s = time.perf_counter() - t0

        # timed rounds run back to back: a check between them would leave
        # Ray time to retire idle workers and cool the next round
        rounds = []
        t_begin = time.perf_counter()
        steal0 = proctree.host_steal_ticks()
        with proctree.TreeMonitor() as mon:
            while True:
                traced = bool(trace_dir) and len(rounds) % 2 == 1
                if trace_dir:
                    tracing.set_tracing(trace_dir, traced)
                    log.read_new()
                r = {"dir": os.path.join(runs, f"r{len(rounds):03d}"), "traced": traced}
                cpu0, r["t0"], w0 = mon.cpu_s(), time.time(), time.perf_counter()
                r.update(wl.operation(r["dir"], log if traced else None))
                r["wall"] = time.perf_counter() - w0
                r["cpu"], r["t1"] = mon.cpu_s() - cpu0, time.time()
                if traced:
                    tracing.set_tracing(trace_dir, False)
                    r["execs"] = log.read_new()
                rounds.append(r)
                done = time.perf_counter() - t_begin >= args.seconds
                if done and (not trace_dir or len(rounds) >= 2):
                    break
        steal1 = proctree.host_steal_ticks()

    t0 = time.perf_counter()
    problems = wl.check(warm)
    for r in rounds:
        r["problems"] = wl.check(r)
    _log(f"checks: {time.perf_counter() - t0:.2f} s")
    for op, p in sorted(set(problems + [x for r in rounds for x in r["problems"]])):
        _log(f"CHECK FAILED: {op}: {p}")
    plain = [r for r in rounds if not r["traced"]]
    wall_s = wl.wall(plain)
    if trace_dir:
        spans = tracing.read_spans(trace_dir)
        traced = [r for r in rounds if r["traced"]]
        for r in traced:
            r["spans"] = [s for s in spans if r["t0"] <= s["t0"] <= r["t1"]]
        values = dict.fromkeys(per_layer, 0.0)
        values.update(wl.layers(traced))
        values["trace.overhead_s"] = wl.wall(traced) - wall_s
        units = per_layer
    else:
        values = {
            "setup_s": ray_start_s + statistics.median(gen_s) + warm_s,
            "wall_s": wall_s,
            "items_per_s": plain[0]["items"] / wall_s,
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "peak_mem_mb": mon.peak_mb,
        }
        units = END_TO_END
    steal_pct = 100 * (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    _log(f"rounds={len(rounds)} walls={[round(r['wall'], 3) for r in rounds]} "
         f"ray_start={ray_start_s:.2f} gen={[round(g, 3) for g in gen_s]} warm={warm_s:.2f} "
         f"host_steal={steal_pct:.1f}%")
    # an operation fails when it raises or its output fails a check;
    # ``correct`` speaks of the outputs of the operations that returned
    result = {
        "correct": not problems and not any(r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] + len({op for op, _ in r["problems"]}) for r in rounds),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result), file=out, flush=True)
    shutil.rmtree(os.path.join(WORK, "runs"), ignore_errors=True)
    return 0


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


if __name__ == "__main__":
    # a stuck run fails (and still shuts Ray down) instead of hanging
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 -- report and fail without a result line
        traceback.print_exc()
        sys.exit(1)
