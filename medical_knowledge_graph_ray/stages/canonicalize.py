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

Node ids cross the exchange as their 64-bit md5 digests in fixed-width
``uint64`` columns (unsigned, so id order is the order of the hex
strings); the ``n`` + 16-hex ``node_id`` form is spelled only when a
bucket writes its files (``format_ids``).  Both phases run on Arrow
tables and numpy arrays — no DataFrame is built.

This removes the need for explicit key salting for count/max aggregates
while remaining deterministic; the partial rows are the "salted" shards.
"""

from __future__ import annotations

import re

import numpy as np
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


def ontology_ids(types) -> pa.Array:
    """External-ontology class id per node type, '' for a type with none
    (config.yaml:100-114): derived from ``type`` at finalize time — it
    never rides an exchange.  ``types`` is any string array-like."""
    from ..ontology import ONTOLOGY_MAPPING

    enc = pa.array(types, pa.string()).dictionary_encode()
    ids = pa.array(
        [ONTOLOGY_MAPPING.get(t, "") for t in enc.dictionary.to_pylist()],
        pa.string(),
    )
    return ids.take(enc.indices).fill_null("")


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
        ("kind", pa.int8()),             # 0 node | 1 edge
        ("a", pa.uint64()),              # node id | subj id (md5 digest)
        ("b", pa.string()),              # type | pred
        ("c", pa.uint64()),              # 0 | obj id
        ("name", pa.string()),           # canonical_name | ''
        ("n", pa.int64()),               # n_mentions | n_evidence
        ("p", pa.float64()),             # prob_max | weight
    ]
)


def format_ids(digest: np.ndarray) -> pa.Array:
    """64-bit digests → their ``node_id`` strings (``"n"`` + 16 lowercase
    hex), as one Arrow string array built from fixed-width buffers."""
    digest = np.asarray(digest, ">u8")
    chars = np.full((len(digest), 17), ord("n"), np.uint8)
    chars[:, 1:] = np.frombuffer(
        digest.tobytes().hex().encode(), np.uint8
    ).reshape(-1, 16)
    offsets = np.arange(0, chars.size + 1, 17, dtype=np.int32)
    return pa.Array.from_buffers(
        pa.string(), len(digest), [None, pa.py_buffer(offsets), pa.py_buffer(chars)]
    )


def bucket_of(digest: np.ndarray, num_buckets: int) -> np.ndarray:
    """Range bucket of each 64-bit id from its top byte (md5-uniform over
    [0, 256)), so bucket order IS id order."""
    top = (np.asarray(digest, np.uint64) >> np.uint64(56)).astype(np.int64)
    return (top * num_buckets // 256).astype(np.int32)


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
    once (``md5_int_vec`` of ``name + "\x1f" + type``, i.e. ``node_id``'s
    64-bit digest, kept as ``uint64``), and node and edge partials combine
    on those codes in numpy.  No pandas object hashing touches a surface:
    it truncates strings at NUL."""
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
    ids = md5_int_vec(
        pc.binary_join_element_wise(key_name, key_type, "\x1f"), bits=64
    )
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
            pa.array(np.repeat(np.array([0, 1], np.int8), [k, e])),
            pa.array(np.concatenate([ids, ids[key[edge_row]]]), pa.uint64()),
            pa.concat_arrays([key_type, pred.dictionary.take(pred_code[edge_row])]),
            pa.array(
                np.concatenate([np.zeros(k, np.uint64), ids[key[n + edge_row]]]),
                pa.uint64(),
            ),
            pa.concat_arrays([key_name, pa.repeat("", e)]),
            pa.array(np.concatenate([node_n, edge_n]), pa.int64()),
            pa.array(np.concatenate([node_p, edge_p]), pa.float64()),
        ],
        schema=GRAPH_PARTIAL_SCHEMA,
    )


def _combine_bucket(g: pa.Table) -> tuple[pa.Table, pa.Table]:
    """One bucket's partials → its (nodes, edges) tables: n = Sum,
    p = NaN-skipping Max and name = first per (kind, a, b, c).  Nodes come
    out ordered by id, edges by (subj id, pred, obj id) with preds in
    string order; ``b`` is grouped on its Arrow dictionary codes, so no
    string is hashed (pandas object hashing truncates at NUL)."""
    b = g.column("b").combine_chunks().dictionary_encode()
    rank = np.empty(len(b.dictionary), np.int64)
    rank[np.asarray(pc.array_sort_indices(b.dictionary))] = np.arange(len(rank))
    kind, a, c = (g.column(col).to_numpy() for col in ("kind", "a", "c"))
    keys = (kind, a, rank[np.asarray(b.indices)], c)
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), bool)
    new[0] = True
    for k in keys:
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    first = order[starts]
    n = np.add.reduceat(g.column("n").to_numpy()[order], starts)
    p = np.fmax.reduceat(g.column("p").to_numpy()[order], starts)
    split = int(np.searchsorted(kind[first], 1))  # kind 0 (nodes) sorts first

    def take(col: str, rows: np.ndarray) -> pa.Array:
        return g.column(col).take(rows).combine_chunks()

    # from_pandas: a NaN max is written as null, as the pandas writer did
    node, edge = first[:split], first[split:]
    types = take("b", node)
    nodes = pa.Table.from_arrays(
        [format_ids(a[node]), take("name", node), types, ontology_ids(types),
         pa.array(n[:split]), pa.array(p[:split], from_pandas=True)],
        schema=NODE_SCHEMA,
    )
    edges = pa.Table.from_arrays(
        [format_ids(a[edge]), take("b", edge), format_ids(c[edge]),
         pa.array(p[split:], from_pandas=True), pa.array(n[split:])],
        schema=EDGE_SCHEMA,
    )
    return nodes, edges


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
      RANGE-bucketed on the top byte of the uint64 id in column ``a``
      (``bucket_of`` — the node id for node partials, the subj id for
      edge partials), so bucket order IS global id order.
    * Each bucket task combines both kinds in numpy
      (``_combine_bucket``: n=Sum, p=Max per (kind, a, b, c); a node's
      name comes with its id), sorts within the bucket, spells the ids,
      and writes one nodes file and one edges file task-side
      (``part-<bucket>.parquet``; rewrite-idempotent).
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

    def _assign(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_bucket", pa.array(bucket_of(t.column("a").to_numpy(), num_buckets))
        )

    def _write_bucket(g: pa.Table) -> pa.Table:
        out = []
        if g.num_rows:
            bucket = g.column("_bucket")[0].as_py()
            for name, table in zip(("nodes", "edges"), _combine_bucket(g)):
                if table.num_rows:
                    pq.write_table(
                        table,
                        os.path.join(tmp[name], f"part-{bucket:04d}.parquet"),
                    )
                    out.append((name, bucket, table.num_rows))
        return pa.table(
            {"table": pa.array([t for t, _, _ in out], pa.string()),
             "bucket": pa.array([b_ for _, b_, _ in out], pa.int32()),
             "rows": pa.array([r for _, _, r in out], pa.int64())}
        )

    (
        parts.map_batches(_assign, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(_write_bucket, batch_format="pyarrow")
        .count()
    )

    results = {}
    for stage_name, final_dir in (("nodes", nodes_dir), ("edges", edges_dir)):
        shutil.rmtree(final_dir, ignore_errors=True)
        os.replace(tmp[stage_name], final_dir)
        results[stage_name] = write_manifest(final_dir, stage_name, fingerprint)
    return results["nodes"], results["edges"]
