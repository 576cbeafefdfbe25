"""Entity canonicalization + graph materialization (nodes / edges).

The reference normalizes surfaces by stripping bracketed aliases and
whitespace (``structurize_files.py:769-799``, O8) and assigns ids by
enumeration (``head_id='h{:08d}'`` per group index,
``clean_and_save.py:1174-1180``) — order-dependent and unusable under
parallelism.  Here every id is a deterministic content hash of the
normalized ``(surface, type)`` key (SURVEY §4 Ordering).

**One path, two phases (north_rule skew design):** hot entities (common
drugs/diseases recur across a large share of pages) would hot-spot a
naive ``groupby(key).map_groups``, so ``finalize_graph_write`` runs

1. *partial* — ``partial_graph_batch`` inside ``map_batches`` combines
   each batch to ≤ 1 node row per (name, type) key and ≤ 1 edge row per
   (subj, pred, obj) key (the classic combiner; a key appearing in 1e6
   rows leaves each batch as a single partial row, so the shuffle moves
   O(#batches) not O(#rows) for hot keys);
2. *final* — ONE range-bucketed exchange over both partial kinds with
   associative aggregates (Sum / Max), written task-side per bucket.

This removes the need for explicit key salting for count/max aggregates
while remaining deterministic; the partial rows are the "salted" shards.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import md5_int_vec, stable_id

_BRACKET_RE = re.compile(r"[\(\[（【].*?[\)\]）】]")

NODE_SCHEMA = pa.schema(
    [
        ("node_id", pa.string()),
        ("canonical_name", pa.string()),
        ("type", pa.string()),
        ("ontology_id", pa.string()),
        ("n_mentions", pa.int64()),
        ("prob_max", pa.float64()),
    ]
)


def ontology_ids(types: pd.Series) -> pd.Series:
    """External-ontology class id per node type (config.yaml:100-114):
    derived from ``type`` at finalize time — it never rides an exchange."""
    from ..ontology import ONTOLOGY_MAPPING

    return types.map(ONTOLOGY_MAPPING).fillna("").astype(str)

EDGE_SCHEMA = pa.schema(
    [
        ("subj_id", pa.string()),
        ("pred", pa.string()),
        ("obj_id", pa.string()),
        ("weight", pa.float64()),
        ("n_evidence", pa.int64()),
    ]
)


def normalize_surface(s: str) -> str:
    """O8 normalizer: drop bracketed aliases, trim, casefold."""
    return _BRACKET_RE.sub("", s).strip().casefold()


def node_id(surface: str, etype: str) -> str:
    """Deterministic node id = md5(normalized surface, type)."""
    return stable_id(normalize_surface(surface), etype, prefix="n")


GRAPH_PARTIAL_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),           # 'n' | 'e'
        ("a", pa.string()),              # node_id | subj_id
        ("b", pa.string()),              # type | pred
        ("c", pa.string()),              # '' | obj_id
        ("name", pa.string()),           # canonical_name | ''
        ("n", pa.int64()),               # n_mentions | n_evidence
        ("p", pa.float64()),             # prob_max | weight
    ]
)


def _groups(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct code, dense group 0..G-1 per row)."""
    _, first, group = np.unique(codes, return_index=True, return_inverse=True)
    return first, group


def _count_max(group: np.ndarray, n_groups: int, prob: np.ndarray):
    """(row count, max prob) per dense group (NaN-skipping, as pandas
    ``max``)."""
    counts = np.bincount(group, minlength=n_groups).astype("int64")
    if not n_groups:
        return counts, np.empty(0, "float64")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return counts, np.fmax.reduceat(prob[np.argsort(group, kind="stable")], starts)


def partial_graph_batch(batch: pa.Table) -> pa.Table:
    """Triple batch → node AND edge partials (superset rows, ≤ 1 per key).

    Every key is built once per batch from integer codes: the subj+obj
    surfaces are dictionary-encoded, ``normalize_surface`` runs over the
    distinct surfaces only, each distinct (name, type) key is md5-hashed
    once (``md5_int_vec`` of ``name + "\x1f" + type``, i.e. ``node_id``),
    and node and edge partials combine on those codes in numpy.  No pandas
    object hashing touches a surface: it truncates strings at NUL."""
    n = batch.num_rows

    def encode(*cols: str) -> pa.DictionaryArray:
        chunks = [c for col in cols for c in batch.column(col).chunks]
        return pc.dictionary_encode(
            pa.chunked_array(chunks, pa.string()).combine_chunks()
        )

    # endpoint rows: subj of every triple, then obj of every triple
    surf = encode("subj", "obj")
    etype = encode("subj_type", "obj_type")
    names = pc.dictionary_encode(
        pa.array(
            [normalize_surface(s) for s in surf.dictionary.to_pylist()],
            pa.string(),
        )
    )
    name_code = np.asarray(names.indices, "int64")[np.asarray(surf.indices)]
    type_code = np.asarray(etype.indices, "int64")
    first, key = _groups(name_code * len(etype.dictionary) + type_code)
    key_name = names.dictionary.take(name_code[first])
    key_type = etype.dictionary.take(type_code[first])
    digest = md5_int_vec(
        pc.binary_join_element_wise(key_name, key_type, "\x1f"), bits=64
    )
    ids = pa.array([f"n{h:016x}" for h in digest.tolist()], pa.string())
    prob = batch.column("prob").to_numpy()
    node_n, node_p = _count_max(key, len(first), np.concatenate([prob, prob]))

    # edges on (subj key, pred, obj key), composed pairwise so every
    # composite code stays below rows × distinct keys
    pred = encode("pred")
    pred_code = np.asarray(pred.indices, "int64")
    _, sp = _groups(key[:n] * len(pred.dictionary) + pred_code)
    edge_row, edge = _groups(sp * len(first) + key[n:])
    edge_n, edge_p = _count_max(edge, len(edge_row), prob)

    k, e = len(first), len(edge_row)
    return pa.Table.from_arrays(
        [
            pa.concat_arrays([pa.repeat("n", k), pa.repeat("e", e)]),
            pa.concat_arrays([ids, ids.take(key[edge_row])]),
            pa.concat_arrays([key_type, pred.dictionary.take(pred_code[edge_row])]),
            pa.concat_arrays([pa.repeat("", k), ids.take(key[n + edge_row])]),
            pa.concat_arrays([key_name, pa.repeat("", e)]),
            pa.array(np.concatenate([node_n, edge_n]), pa.int64()),
            pa.array(np.concatenate([node_p, edge_p]), pa.float64()),
        ],
        schema=GRAPH_PARTIAL_SCHEMA,
    )


def _hex2_code(s: pd.Series) -> "np.ndarray":
    """Vectorized value of hex chars [1:3) of each id (ids are
    '<prefix-char>' + 16 lowercase hex — md5-uniform, so the code is
    uniform over [0, 256))."""
    raw = np.asarray(s.to_numpy(), dtype="U3").view("uint32").reshape(-1, 3)
    c = raw[:, 1:3].astype("uint32")
    digit = c - 48 - (c >= 97) * 39  # '0'-'9' → 0-9, 'a'-'f' → 10-15
    return (digit[:, 0] * 16 + digit[:, 1]).astype("int32")


def finalize_graph_write(
    triples,
    nodes_dir: str,
    edges_dir: str,
    fingerprint: str,
    *,
    num_buckets: int = 32,
) -> tuple[dict, dict]:
    """nodes + edges finalize AND checkpointed write in ONE streaming
    execution with ONE shuffle — the only graph finalize (``run_kg``,
    ``merge_graph_runs`` and the ``kg_edges_pages`` query all use it).

    * ``partial_graph_batch`` combines each triple batch to ≤ 1 partial
      row per node key and per edge key.
    * ONE bucketed exchange serves both tables: partials are
      RANGE-bucketed on the md5-uniform id prefix (``_hex2_code`` of
      column ``a`` — node_id for node partials, subj_id for edge
      partials), so bucket order IS global id order.
    * Each bucket task combines both kinds (n=Sum, p=Max per
      (kind, a, b, c); a node's name comes with its id), sorts within
      the bucket, and writes one nodes file and one edges file
      task-side (``part-<bucket>.parquet``; rewrite-idempotent).
      Range-ordered filenames + within-file sort ⇒ the edges table
      reads globally sorted by subj_id (north_rule) with NO sort
      operator; ties additionally ordered by (pred, obj_id), making
      file bytes parallelism-invariant.
    * The execution is driven by counting the tiny per-bucket lineage
      frames; manifests for both stages are assembled driver-side.

    Partials are associative, so any batching and any bucket count
    finalize to the same tables (pinned against the single-process
    oracle by ``test_invariance``).  Both stages are force-written:
    entering the finalize at all means at least one is missing, and
    deterministic content makes a rewrite value-identical.  Skew note: a
    hot entity is ONE key in one bucket, but its partials are
    pre-combined to ≤1 row per upstream batch, so no bucket can be
    overloaded by entity popularity."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from ..functions.arrow import arrow_out
    from ..state.manifests import write_manifest

    tmp = {
        "nodes": nodes_dir.rstrip("/") + ".fused.tmp",
        "edges": edges_dir.rstrip("/") + ".fused.tmp",
    }
    for d in tmp.values():
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)

    parts = triples.map_batches(
        partial_graph_batch, batch_format="pyarrow", batch_size=65536
    )

    def _assign(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["_bucket"] = (
            (_hex2_code(b["a"]) * num_buckets) // 256
            if len(b)
            else np.empty(0, "int32")
        )
        return b

    def _write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {"table": pd.array([], "str"),
                 "bucket": pd.array([], "int32"),
                 "rows": pd.array([], "int64")}
            )
        bucket = int(g["_bucket"].iloc[0])
        # name is a function of the node id: taken, never grouped on
        # (pandas object hashing truncates strings at NUL)
        m = (
            g.groupby(["kind", "a", "b", "c"], sort=False)
            .agg(n=("n", "sum"), p=("p", "max"), name=("name", "first"))
            .reset_index()
        )
        out = []
        nodes = m[m["kind"] == "n"].sort_values("a", kind="mergesort")
        if len(nodes):
            nt = pd.DataFrame(
                {
                    "node_id": nodes["a"].to_numpy(),
                    "canonical_name": nodes["name"].to_numpy(),
                    "type": nodes["b"].to_numpy(),
                    "ontology_id": ontology_ids(nodes["b"]).to_numpy(),
                    "n_mentions": nodes["n"].to_numpy("int64"),
                    "prob_max": nodes["p"].to_numpy("float64"),
                }
            )
            pq.write_table(
                pa.Table.from_pandas(nt, schema=NODE_SCHEMA, preserve_index=False).replace_schema_metadata(None),
                os.path.join(tmp["nodes"], f"part-{bucket:04d}.parquet"),
            )
            out.append(("nodes", bucket, len(nt)))
        edges = m[m["kind"] == "e"].sort_values(
            ["a", "b", "c"], kind="mergesort"
        )
        if len(edges):
            et = pd.DataFrame(
                {
                    "subj_id": edges["a"].to_numpy(),
                    "pred": edges["b"].to_numpy(),
                    "obj_id": edges["c"].to_numpy(),
                    "weight": edges["p"].to_numpy("float64"),
                    "n_evidence": edges["n"].to_numpy("int64"),
                }
            )
            pq.write_table(
                pa.Table.from_pandas(et, schema=EDGE_SCHEMA, preserve_index=False).replace_schema_metadata(None),
                os.path.join(tmp["edges"], f"part-{bucket:04d}.parquet"),
            )
            out.append(("edges", bucket, len(et)))
        return pd.DataFrame(
            {"table": pd.array([t for t, _, _ in out], "str"),
             "bucket": pd.array([b_ for _, b_, _ in out], "int32"),
             "rows": pd.array([r for _, _, r in out], "int64")}
        )

    (
        parts.map_batches(arrow_out(_assign), batch_format="pandas")
        .groupby("_bucket")
        .map_groups(arrow_out(_write_bucket), batch_format="pandas")
        .count()
    )

    results = {}
    for stage_name, final_dir in (("nodes", nodes_dir), ("edges", edges_dir)):
        shutil.rmtree(final_dir, ignore_errors=True)
        os.replace(tmp[stage_name], final_dir)
        results[stage_name] = write_manifest(final_dir, stage_name, fingerprint)
    return results["nodes"], results["edges"]
