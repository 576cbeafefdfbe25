"""Spans around the package's layer functions, recorded from outside it.

``install_worker`` is Ray's ``worker_process_setup_hook`` in traced runs:
it replaces each layer function listed in ``WORKER_LAYERS`` by a wrapper
in every Ray worker, before the worker unpickles any task.  Ray Data ships
the pipeline's functions and classes by reference, so the worker resolves
them to the wrappers.  The driver is never patched for those names: its
copies must stay identical to the module attributes, or cloudpickle would
ship them by value and the wrappers would be bypassed.

A span records its name, its parent span, its start time, its wall and
thread-CPU time and the rows it took and returned.  Spans are kept in
memory and appended to ``<trace dir>/spans-<pid>.jsonl`` when a root span
ends.  Wrappers record only while ``<trace dir>/ON`` exists, so one traced
run can interleave untraced and traced rounds and report the overhead.

``RayDataLog`` reads Ray Data's per-session log: the "Execution plan of
Dataset" lines and the "Operator ... completed. Operator Metrics" records.
"""

from __future__ import annotations

import ast
import functools
import importlib
import itertools
import json
import os
import time

PKG = "medical_knowledge_graph_ray"

# (module, attribute, span name, index of the argument whose len() is the
# input row count: 1 for methods, 0 for functions)
WORKER_LAYERS = [
    ("stages.extract", "extract_text_batch", "extract", 0),
    ("stages.sentences", "split_batch", "split", 0),
    ("pipelines.kg", "MentionStage.__call__", "mention_stage", 1),
    ("stages.ner", "EnsembleNER.__call__", "ner", 1),
    ("stages.triples", "clean_mentions_df", "strip", 0),
    ("stages.rules_stage", "RulesMerge.augment", "rules", 2),
    ("stages.triples", "dedup_mentions_df", "dedup", 0),
    ("stages.cleansing", "confidence_rules_df", "cleansing", 0),
    ("stages.triples", "emit_triples_df", "emit", 0),
    ("stages.canonicalize", "partial_graph_batch", "partial_graph", 0),
]
DRIVER_LAYERS = [
    ("stages.canonicalize", "finalize_graph_write", "finalize", None),
]


class Recorder:
    """Span stack and buffer of one process."""

    def __init__(self, trace_dir: str):
        self.flag = os.path.join(trace_dir, "ON")
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._buf: list[str] = []

    def on(self) -> bool:
        return os.path.exists(self.flag)

    def call(self, name: str, fn, args, kwargs, n_in_arg):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.time()
        w0, c0 = time.perf_counter(), time.thread_time()
        try:
            out = fn(*args, **kwargs)
        finally:
            wall, cpu = time.perf_counter() - w0, time.thread_time() - c0
            self._stack.pop()
        self._buf.append(json.dumps({
            "pid": os.getpid(), "id": sid, "parent": parent, "name": name,
            "t0": t0, "wall": wall, "cpu": cpu,
            "n_in": _rows(args[n_in_arg]) if n_in_arg is not None else None,
            "n_out": _rows(out),
        }))
        if not self._stack:
            self.flush()
        return out

    def flush(self) -> None:
        if self._buf:
            with open(self.path, "a") as f:
                f.write("\n".join(self._buf) + "\n")
            self._buf.clear()


def _rows(x) -> int | None:
    try:
        return len(x)
    except TypeError:
        return None


def _wrap(rec: Recorder, name: str, fn, n_in_arg):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.on():
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs, n_in_arg)

    return traced


def _install(rec: Recorder, layers) -> None:
    for mod_name, attr, name, n_in_arg in layers:
        mod = importlib.import_module(f"{PKG}.{mod_name}")
        owner, _, leaf = attr.rpartition(".")
        target = getattr(mod, owner) if owner else mod
        setattr(target, leaf, _wrap(rec, name, getattr(target, leaf), n_in_arg))


def install_worker() -> None:
    """Ray ``worker_process_setup_hook`` for traced runs."""
    _install(Recorder(os.environ["KGBENCH_TRACE_DIR"]), WORKER_LAYERS)


def install_driver(trace_dir: str) -> None:
    _install(Recorder(trace_dir), DRIVER_LAYERS)


def set_tracing(trace_dir: str, on: bool) -> None:
    flag = os.path.join(trace_dir, "ON")
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


def read_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Span key (pid, id) → wall time minus its direct children's."""
    out = {(s["pid"], s["id"]): s["wall"] for s in spans}
    for s in spans:
        if s["parent"] is not None and (s["pid"], s["parent"]) in out:
            out[(s["pid"], s["parent"])] -= s["wall"]
    return out


# -- Ray Data's own log ----------------------------------------------------------

_PLAN = "Execution plan of Dataset "
_OP_DONE = " completed. Operator Metrics:"


class RayDataLog:
    """Incremental reader of the session's ``ray-data.log``."""

    def __init__(self, path: str):
        self.path = path
        self.offset = os.path.getsize(path) if os.path.exists(path) else 0

    def read_new(self) -> list[dict]:
        """Executions logged since the last call: ``{"plan": str,
        "ops": [(operator name, metrics dict), ...]}`` in log order."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as f:
            f.seek(self.offset)
            data = f.read()
        # keep a trailing partial record for the next call
        cut = data.rfind(b"\n20")
        if cut < 0:
            return []
        self.offset += cut + 1
        lines = data[:cut].decode("utf-8", "replace").split("\n")
        execs: list[dict] = []
        for i, line in enumerate(lines):
            if _PLAN in line:
                execs.append({"plan": line.split(_PLAN, 1)[1], "ops": []})
            elif _OP_DONE in line and execs and i + 1 < len(lines):
                op = line.split(" -- Operator ", 1)[1].split(_OP_DONE, 1)[0]
                try:
                    metrics = ast.literal_eval(lines[i + 1])
                except (ValueError, SyntaxError):
                    continue
                execs[-1]["ops"].append((op, metrics))
        return execs


def op_sum(execs: list[dict], key: str, match) -> float:
    return float(sum(
        (m.get(key) or 0) for e in execs for op, m in e["ops"] if match(op)
    ))
