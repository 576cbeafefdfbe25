"""Crash fault injection: SIGKILL a run_kg driver (and with it every
worker of its cluster) mid-execution, then resume on the same output
root — the north_rule resumability claim demonstrated on an ACTUAL
crash, not just a clean re-run.

The kill is provably mid-flight: the poll triggers on the first
task-side slice file in ``triples.partial`` (which exists only during
the streaming execution, before any shard manifest is assembled)."""

import glob
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pandas as pd
import pytest

_CHILD = """
import sys, ray
out, tmpdir = sys.argv[1], sys.argv[2]
ray.init(address="local", num_cpus=int(sys.argv[4]), include_dashboard=False,
         logging_level="ERROR", _temp_dir=tmpdir)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from medical_knowledge_graph_ray.pipelines.kg import run_kg
run_kg(sys.argv[3], out, n_shards=8)
"""


def _kill_leftovers(marker: str) -> None:
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            cmd = open(f"/proc/{pid}/cmdline", "rb").read().decode(
                errors="replace")
        except OSError:
            continue
        if marker in cmd:
            try:
                os.kill(int(pid), signal.SIGKILL)
            except OSError:
                pass


def _table_hash(root: str, sub: str, cols: list[str]) -> tuple[int, int]:
    df = pd.read_parquet(os.path.join(root, sub)).sort_values(
        cols).reset_index(drop=True)
    return len(df), int(pd.util.hash_pandas_object(
        df, index=False).to_numpy().sum(dtype=np.uint64))


def test_sigkill_mid_run_then_resume_identical(ray_session, tmp_path):
    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    corpus = str(tmp_path / "pages")
    out_crash = str(tmp_path / "out_crash")
    out_clean = str(tmp_path / "out_clean")
    generate_pages(1500, corpus)

    child_py = str(tmp_path / "child.py")
    with open(child_py, "w") as f:
        f.write(_CHILD)
    ray_tmp = f"/tmp/mkg_crash_ray_{os.getpid()}"
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = os.getcwd()
    log = open(str(tmp_path / "child.log"), "wb")
    p = subprocess.Popen(
        [sys.executable, child_py, out_crash, ray_tmp, corpus, "2"],
        cwd=os.getcwd(), env=env, stdout=log, stderr=log,
        start_new_session=True,
    )
    killed = False
    try:
        t0 = time.time()
        while time.time() - t0 < 180:
            if p.poll() is not None:
                break
            if glob.glob(os.path.join(
                    out_crash, "triples.partial", "*", "part-*.parquet")):
                os.killpg(p.pid, signal.SIGKILL)
                killed = True
                break
            time.sleep(0.05)
        p.wait(timeout=60)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
        time.sleep(1.5)
        _kill_leftovers(ray_tmp)

    # the crash landed mid-execution: task-side slices exist, no shard
    # manifest was assembled yet
    assert killed, "child finished before the kill — corpus too small"
    assert glob.glob(os.path.join(
        out_crash, "triples.partial", "*", "part-*.parquet"))
    assert not glob.glob(os.path.join(
        out_crash, "triples", "shard_*", "_MANIFEST.json"))

    # resume on the crashed root (this session's cluster), plus an
    # untouched clean run for comparison
    m_resumed = run_kg(corpus, out_crash)
    m_clean = run_kg(corpus, out_clean)
    assert {k: v["rows"] for k, v in m_resumed.items()} == \
        {k: v["rows"] for k, v in m_clean.items()}

    for sub, cols in (
        ("nodes", ["node_id"]),
        ("edges", ["subj_id", "pred", "obj_id"]),
        ("triples", ["url", "sent_ord", "subj", "pred", "obj"]),
        ("source_info", ["url", "sent_ord"]),
    ):
        assert _table_hash(out_crash, sub, cols) == \
            _table_hash(out_clean, sub, cols), sub

    # stale partial dirs from the crash are gone after the resume
    assert not os.path.exists(os.path.join(out_crash, "triples.partial"))


def test_shard_manifest_crash_resume_skips_done_shards(ray_session, tmp_path):
    """The complementary crash point: the run died AFTER some shards
    completed (their manifests exist).  Deleting two shard manifests
    simulates it; the re-run recomputes ONLY those shards and the final
    tables are value-identical."""
    import json

    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    corpus = str(tmp_path / "pages2")
    out = str(tmp_path / "out2")
    generate_pages(300, corpus)
    m1 = run_kg(corpus, out)
    before = _table_hash(out, "edges", ["subj_id", "pred", "obj_id"])

    for i in (1, 5):
        os.remove(os.path.join(out, "triples", f"shard_{i:04d}",
                               "_MANIFEST.json"))
    m2 = run_kg(corpus, out)
    assert m2["triples"]["rows"] == m1["triples"]["rows"]
    assert _table_hash(out, "edges", ["subj_id", "pred", "obj_id"]) == before
    # untouched shards kept their original manifests (not rewritten)
    with open(os.path.join(out, "triples", "shard_0000",
                           "_MANIFEST.json")) as f:
        assert json.load(f)["stage"] == "triples/shard_0000"


def test_run_kg_completes_on_one_cpu(ray_session, tmp_path):
    """ROADMAP 4a: ``run_kg`` on a real ``num_cpus=1`` cluster finishes and
    matches a run on this session's cluster.  A stage that reserves the
    only CPU ahead of the read (the former NER actor pool) hangs here, so
    the child gets a hard timeout."""
    from medical_knowledge_graph_ray.pipelines.kg import run_kg
    from medical_knowledge_graph_ray.sources.pages import generate_pages

    corpus = str(tmp_path / "pages")
    out_one = str(tmp_path / "out_one")
    generate_pages(60, corpus)
    child_py = str(tmp_path / "child.py")
    with open(child_py, "w") as f:
        f.write(_CHILD)
    ray_tmp = f"/tmp/mkg_onecpu_ray_{os.getpid()}"
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = os.getcwd()
    log_path = str(tmp_path / "child.log")
    with open(log_path, "wb") as log:
        p = subprocess.Popen(
            [sys.executable, child_py, out_one, ray_tmp, corpus, "1"],
            cwd=os.getcwd(), env=env, stdout=log, stderr=log,
            start_new_session=True,
        )
        try:
            rc = p.wait(timeout=120)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if p.poll() is None:
                os.killpg(p.pid, signal.SIGKILL)
                p.wait(timeout=60)
            time.sleep(1.5)
            _kill_leftovers(ray_tmp)
    assert rc is not None, "run_kg hung on a 1-CPU cluster (120 s timeout)"
    assert rc == 0, open(log_path, errors="replace").read()[-2000:]

    out_ref = str(tmp_path / "out_ref")
    run_kg(corpus, out_ref, n_shards=8)
    for sub, cols in (
        ("edges", ["subj_id", "pred", "obj_id"]),
        ("triples", ["url", "sent_ord", "subj", "pred", "obj"]),
    ):
        assert _table_hash(out_one, sub, cols) == \
            _table_hash(out_ref, sub, cols), sub
