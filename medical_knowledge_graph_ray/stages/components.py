"""Distributed connected components (local contraction + min-label BSP).

The missing last step of every near-dup chain: pair mining (MinHash-LSH,
SimHash banding, embedding buckets) emits EDGES, but dedup needs
CLUSTERS — one canonical representative per transitively-connected group.
A single-process union-find cannot shard; the scalable composition here:

1. **Local contraction (no shuffle):** every edge block runs a classic
   path-compressing union-find over just its own edges (``map_batches``)
   and emits (node, block-local min).  Any edge partition is valid — a
   node appearing in several blocks gets several partial labels, and the
   min-reduce that follows folds them.  One block's whole subgraph
   collapses in a single step, so the BSP phase only reconciles ACROSS
   blocks: the effective diameter drops from graph-diameter to
   ~#blocks-touching-a-component (measured: a 200-node chain needs 9
   label-propagation rounds raw, 2-3 after local contraction).
2. **BSP rounds (hooking + pointer jumping, Shiloach–Vishkin shape):**
   one fused partitioned hash join serves BOTH message kinds per round —
   edge probes (forward label(src) to dst) and jump probes (label(label)
   halves tree depth) — then a bucketed min-reduce per node folds them
   with the old label.  Labels only decrease, so the round's ``changed``
   count hitting zero is an exact fixpoint.
3. **State compaction:** the label state is re-materialized AND
   repartitioned every round — the group-map multiplies block count ~4×
   per round (measured 40→168→680 blocks on a 200-row state, round time
   5.5→63 s); without compaction task-scheduling overhead, not data,
   dominates.

Per round the exchange is O(E + V) small rows — never document payloads.
Reference semantics: the reference keeps one max-prob row per EXACT-key
duplicate group (clean_and_save.py:1081-1082); components generalize
that to transitive near-duplicate groups, which exact grouping cannot
express.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.arrow import arrow_out
from .joins import hash_join
from .shuffle import bucketed_group_map, fold_groups

_PROBE_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64())]
)
_LABEL_SCHEMA = pa.schema([("src", pa.int64()), ("label", pa.int64())])


def _local_cc_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Union-find over one edge block → (node, partial label).

    Sequential by nature (path compression), but O(m α) with a tiny
    working set; the cross-block reconciliation is what must (and does)
    stay distributed."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, c in zip(b["doc_a"].tolist(), b["doc_b"].tolist()):
        ra, rc = find(int(a)), find(int(c))
        if ra != rc:
            if rc < ra:
                ra, rc = rc, ra
            parent[rc] = ra
    nodes = set(b["doc_a"].tolist()) | set(b["doc_b"].tolist())
    out = {n: find(int(n)) for n in nodes}
    return pd.DataFrame(
        {"src": np.fromiter(out.keys(), np.int64, len(out)),
         "label": np.fromiter(out.values(), np.int64, len(out))}
    )


def connected_components(
    edges,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    *,
    max_iters: int = 50,
    num_buckets: int = 16,
    mode: str = "auto",
    dense_edge_bound: int = 4_000_000,
):
    """edges Dataset → (node, component_id) for every node on an edge
    (isolated nodes are trivially their own component and are not
    emitted).  component_id = min node id of the component: content-
    stable, never enumeration order.

    ADAPTIVE FINALIZER (``mode='auto'``, the default): the symmetrized
    edge table is materialized exactly once anyway (re-execution guard),
    so its row count is known for free — when ≤ ``dense_edge_bound``
    (~64 MB driver-side, the engine's bounded-artifact budget) the BSP
    phase collapses to one driver-side union-find over all edges:
    identical labels (unions always root at the smaller id, so the
    label IS the component min in both paths), none of the ~3-4 s/round
    AllToAll fixed cost.  ``mode='bsp'`` forces the distributed path
    (the 100-TB posture, pinned by the random-graph equivalence tests);
    ``mode='dense'`` forces the driver path."""

    def normalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_a": b[a_col].to_numpy().astype("int64"),
             "doc_b": b[b_col].to_numpy().astype("int64")}
        )

    norm = edges.map_batches(arrow_out(normalize), batch_format="pandas")

    def symmetrize(b: pd.DataFrame) -> pd.DataFrame:
        a = b["doc_a"].to_numpy()
        c = b["doc_b"].to_numpy()
        return pd.DataFrame(
            {"src": np.concatenate([a, c]), "dst": np.concatenate([c, a])}
        )

    # ONE materialized execution of the upstream edge-mining plan: both
    # phase 1 and the BSP rounds read `sym` (deriving phase 1 from the
    # lazy `norm` would re-run the whole pair miner — the documented
    # accidental-re-execution trap).  Duplicate/reversed edges are
    # harmless to union-find.
    sym = norm.map_batches(
        arrow_out(symmetrize), batch_format="pandas"
    ).materialize()

    n_sym = sym.count()  # metadata-only: sym is materialized
    if not n_sym:
        # typed empty (same convention as shuffle.first_non_null_agg):
        # a corpus with no near-dup pairs is a legitimate input, and an
        # un-typed 0-column dataset breaks downstream joins/oracles
        import ray.data as rd

        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "component_id": pa.array([], pa.int64())})
        )

    if mode == "dense" or (mode == "auto" and n_sym <= dense_edge_bound):
        import ray.data as rd

        df = sym.to_pandas()
        out = _local_cc_batch(
            pd.DataFrame({"doc_a": df["src"], "doc_b": df["dst"]})
        ).rename(columns={"src": "node", "label": "component_id"})
        return rd.from_pandas(out.reset_index(drop=True))

    # phase 1: per-block union-find partials, folded by a min-reduce
    def local_cc_sym(b: pd.DataFrame) -> pd.DataFrame:
        return _local_cc_batch(
            pd.DataFrame({"doc_a": b["src"], "doc_b": b["dst"]})
        )

    partials = sym.map_batches(arrow_out(local_cc_sym), batch_format="pandas")

    def min_label(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("src", sort=False)["label"].min()
        return pd.DataFrame(
            {"src": m.index.to_numpy(), "label": m.to_numpy()}
        )

    labels = (
        bucketed_group_map(partials, ["src"], min_label, num_buckets=num_buckets)
        .repartition(num_buckets)
        .materialize()
    )

    # phase 2: BSP rounds.  One fused probe table per round:
    #   edge probe (src=edge src, dst=edge dst)   — hooking
    #   jump probe (src=own label, dst=own node)  — pointer jumping
    # joined against labels on src, every result row means
    # "candidate label(dst) := joined label".
    for _ in range(max_iters):
        def jump_probe(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"src": b["label"].to_numpy(), "dst": b["src"].to_numpy()}
            )

        probes = sym.union(
            labels.map_batches(arrow_out(jump_probe), batch_format="pandas")
        )
        msgs = hash_join(
            probes, labels, on=["src"],
            left_schema=_PROBE_SCHEMA, right_schema=_LABEL_SCHEMA,
            num_buckets=num_buckets,
        )

        def to_candidate(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"src": b["dst"].to_numpy(), "label": b["label"].to_numpy(),
                 "is_old": pd.array([0] * len(b), "int8")}
            )

        def old_flag(b: pd.DataFrame) -> pd.DataFrame:
            out = b.copy()
            out["is_old"] = pd.array([1] * len(b), "int8")
            return out

        cand = msgs.map_batches(
            arrow_out(to_candidate), batch_format="pandas"
        ).union(labels.map_batches(arrow_out(old_flag), batch_format="pandas"))

        def min_reduce(g: pd.DataFrame) -> pd.DataFrame:
            gg = g.groupby("src", sort=False)["label"]
            new = gg.min()
            old = g[g["is_old"] == 1].set_index("src")["label"]
            changed = new.to_numpy() < old.reindex(new.index).to_numpy()
            return pd.DataFrame(
                {"src": new.index.to_numpy(), "label": new.to_numpy(),
                 "changed": pd.array(changed.astype("int64"), "int64")}
            )

        new_labels = bucketed_group_map(
            cand, ["src"], min_reduce, num_buckets=num_buckets
        ).materialize()
        n_changed = fold_groups(new_labels.select_columns(["changed"]), [],
                                [("changed", "sum")]).fillna(0)["changed"].iloc[0]
        labels = (
            new_labels.drop_columns(["changed"])
            .repartition(num_buckets)
            .materialize()
        )
        if not n_changed:
            break
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds"
        )

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={"src": "node", "label": "component_id"})

    return labels.map_batches(arrow_out(rename), batch_format="pandas")
