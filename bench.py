"""Benchmark harness.

Plain run: executes the headline flagship KG pipeline + the operator
pipelines over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) under
``ray.init(num_cpus=$RAY_GRAFT_CPUS or 32)`` and prints ONE JSON line.

``--scaling``: runs the headline pipeline twice in fresh processes
(num_cpus=8 then 32) on the same input and reports both throughputs plus
the scaling efficiency (north_rule two-cluster-size evidence).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _consume(result) -> int:
    """Execute a lazy result and return its row count."""
    import pandas as pd

    if isinstance(result, pd.DataFrame):
        return len(result)
    return result.count()


def run_queries() -> tuple[dict[str, float], dict[str, int]]:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as em

    qs = em.queries()
    names = [name for name, _fn, _sql, bench in em.registry() if bench]
    times: dict[str, float] = {}
    rows: dict[str, int] = {}
    for name in names:
        t0 = time.perf_counter()
        rows[name] = _consume(qs[name](SF_DIR))
        times[name] = round(time.perf_counter() - t0, 3)
    return times, rows


def run_flagship() -> dict:
    """Headline: pages corpus → triples/nodes/edges Parquet (fresh run).

    ``MKG_BENCH_PAGES`` overrides the corpus size (used by --scaling to
    amortize the ~11 s fixed per-run cost — three execution startups +
    actor-pool spin-up — which at 400k pages is ~half the 32-CPU wall and
    turns host noise into efficiency noise)."""
    from medical_knowledge_graph_ray.pipelines.kg import PAGES_PER_SF, corpus_for_sf, run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    sf_name = os.path.basename(os.path.normpath(SF_DIR))
    n_override = os.environ.get("MKG_BENCH_PAGES")
    if n_override:
        n_pages = int(n_override)
        # cached; generation excluded from timing
        corpus = generate_pages(n_pages, f"/tmp/mkg_corpus/pages_{n_pages}")
    else:
        corpus = corpus_for_sf(SF_DIR)  # cached; generation excluded from timing
        n_pages = PAGES_PER_SF.get(sf_name, 500)

    # warm the corpus page cache (untimed) — a cold first scan of the
    # ~350 MB pages directory was measured to double the flagship wall
    for root, _dirs, files in os.walk(corpus):
        for f in files:
            if f.endswith(".parquet"):
                with open(os.path.join(root, f), "rb") as fh:
                    fh.read()

    # min-of-2 (default): the first run in a fresh process pays one-time
    # import/compile/actor-spinup noise the steady state doesn't (53.6 s
    # vs 25.6 s measured back-to-back in one session during round 3).
    # --scaling sets MKG_FLAGSHIP_RUNS=1 — it already min-of-Ns whole
    # subprocesses per leg.
    n_runs = int(os.environ.get("MKG_FLAGSHIP_RUNS", "2"))
    walls = []
    manifests = None
    for _attempt in range(n_runs):
        out_root = f"/tmp/mkg_bench_out/{sf_name}"
        shutil.rmtree(out_root, ignore_errors=True)
        t0 = time.perf_counter()
        manifests = run_kg(corpus, out_root, resume=False)
        walls.append(time.perf_counter() - t0)
    wall = min(walls)
    n_triples = manifests["triples"]["rows"]
    return {
        "kg_flagship_sec": round(wall, 3),
        "kg_flagship_runs_sec": [round(w, 3) for w in walls],
        "n_pages": n_pages,
        "n_triples": n_triples,
        "docs_per_sec": round(n_pages / wall, 1),
        "triples_per_sec": round(n_triples / wall, 1),
    }


def main_bench() -> dict:
    import ray

    if not ray.is_initialized():
        # log_to_driver=False: worker log forwarding writes to the
        # driver's STDOUT asynchronously and once leaked an operator-name
        # fragment ahead of the one-line JSON contract
        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
        )
    import logging

    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False
    # Ray 2.49's sort-based aggregate emits an internal column-less
    # sentinel block for empty reduce partitions, tripping a cosmetic
    # "different schema" warning even when every user block is typed
    # (ours are — see the typed-empty-partial tests); keep the bench log
    # to real errors.
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    # warm the OS page cache (untimed)
    for t in ("lineitem", "documents", "events", "embeddings", "orders", "customer"):
        with open(f"{SF_DIR}/{t}.parquet", "rb") as f:
            f.read()

    flagship = run_flagship()
    qtimes, _rows = ({}, {}) if os.environ.get("GRAFT_FLAGSHIP_ONLY") else run_queries()

    out = {
        "metric": "kg_flagship_sec",
        "value": flagship["kg_flagship_sec"],
        "unit": "sec",
        "queries": {**qtimes, "kg_flagship": flagship["kg_flagship_sec"]},
        "sf": os.path.basename(os.path.normpath(SF_DIR)),
        "num_cpus": NUM_CPUS,
        "flagship_runs_sec": flagship.get("kg_flagship_runs_sec"),
        "docs_per_sec": flagship["docs_per_sec"],
        "triples_per_sec": flagship["triples_per_sec"],
        "n_triples": flagship["n_triples"],
        "n_pages": flagship["n_pages"],
    }
    ray.shutdown()
    return out


def _spin(d: float) -> int:
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < d:
        for _ in range(10000):
            n += 1
    return n


def _host_envelope(lo: int, hi: int, dur: float = 2.0) -> float:
    """How much more raw compute the HOST actually yields from lo to hi
    parallel processes right now (pure-CPU spin, no Ray).  On a shared
    box with CPU steal this is < hi/lo — e.g. measured 3.01x for 8->32
    during round 3 — and bounds the best achievable raw scaling
    efficiency at envelope/(hi/lo); report it so the engine's efficiency
    can be read against what the hardware offered during the run."""
    import multiprocessing as mp

    rates = {}
    for procs in (lo, hi):
        with mp.Pool(procs) as p:
            t0 = time.perf_counter()
            total = sum(p.map(_spin, [dur] * procs))
            rates[procs] = total / (time.perf_counter() - t0)
    return rates[hi] / rates[lo]


def scaling() -> dict:
    # Amortize the ~11 s fixed per-run cost (three execution startups +
    # actor-pool spin-up + checkpoint write): after the round-3 kernel
    # vectorizations the 32-CPU leg of the 400k-page corpus is >50%
    # fixed cost, which caps the measurable ratio regardless of how well
    # the engine scales.  800k pages keeps both legs compute-dominated
    # (cached corpus; generation excluded from timing).
    scaling_pages = os.environ.get("MKG_SCALING_PAGES", "800000")

    def run(ncpu: int) -> dict:
        # flagship only — same job, same input, two parallelism levels
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_FLAGSHIP_ONLY="1",
            MKG_FLAGSHIP_RUNS="1",
            MKG_BENCH_PAGES=scaling_pages,
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    envelope = _host_envelope(lo, hi)
    # min-of-N per leg: co-tenant noise only ever ADDS wall time, so the
    # minimum is the noise-robust estimator of each leg's true cost
    # (observed same-code efficiency swings 0.68-0.83 from noise alone)
    repeats = int(os.environ.get("MKG_SCALING_REPEATS", "2"))
    runs_lo = [run(lo) for _ in range(repeats)]
    runs_hi = [run(hi) for _ in range(repeats)]
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "sf": r_lo["sf"],
        "cpus_lo": lo, "cpus_hi": hi,
        "sec_lo": t_lo, "sec_hi": t_hi,
        "docs_per_sec_lo": r_lo["docs_per_sec"],
        "docs_per_sec_hi": r_hi["docs_per_sec"],
        "triples_per_sec_lo": r_lo["triples_per_sec"],
        "triples_per_sec_hi": r_hi["triples_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "host_cpu_envelope": round(envelope, 3),
        "efficiency_vs_host": round((t_lo / t_hi) / envelope, 3),
        "n_pages": r_lo.get("n_pages"),
        "repeats": repeats,
        "sec_lo_all": [r["value"] for r in runs_lo],
        "sec_hi_all": [r["value"] for r in runs_hi],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(scaling()))
    else:
        print(json.dumps(main_bench()))
