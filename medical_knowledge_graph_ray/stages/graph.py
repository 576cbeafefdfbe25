"""Distributed PageRank — entity/document salience over mined graphs.

The KG pipelines mine edge tables (entity co-occurrence, near-dup pairs,
subject→object triples); ranking their nodes by stationary importance is
the classic follow-up (the reference ranks entities only by raw mention
counts — ``clean_and_save.py``'s weight columns; PageRank generalizes
that to transitive salience).

Two execution paths, same math (damped power iteration,
``r' = (1-d)/N + d·(Pᵀ r + dangling_mass/N)``):

* ``pagerank`` — the DISTRIBUTED BSP form for unbounded node sets
  (documents, urls): edge weights are out-normalized ONCE up front
  (one partitioned join), then each round is one ``hash_join`` of the
  normalized edges against the rank state plus one bucketed per-node
  sum — the Shiloach–Vishkin-shaped round structure shared with
  ``stages/components.py``, with the same per-round state compaction.
  Per round the exchange is O(E + V) small rows.
* ``pagerank_power`` — the driver-side dense form for BOUNDED node sets
  (a gazetteer-keyed co-occurrence graph is ≤ |gazetteer| nodes — a
  bounded artifact by the engine's broadcast convention).  Also the
  test oracle the BSP path must match to 1e-9.

Float contract: ranks are order-of-summation sensitive; callers that
need cross-run stability round to 6 dp (the engine-wide float contract).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.arrow import arrow_out
from .joins import hash_join
from .shuffle import bucketed_group_map, fold_groups

_EDGE_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64()), ("w", pa.float64())]
)
_EDGE_NORM_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64()), ("w_norm", pa.float64())]
)
_RANK_SCHEMA = pa.schema(
    [("src", pa.int64()), ("rank", pa.float64()), ("dangling", pa.int8())]
)


def pagerank(
    edges,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    *,
    damping: float = 0.85,
    iters: int = 20,
    num_buckets: int = 16,
    symmetric: bool = False,
    mode: str = "auto",
    dense_edge_bound: int = 4_000_000,
):
    """edges Dataset → (node, rank) for every node incident to an edge.

    ``symmetric=True`` treats each input row as an undirected edge (both
    directions emitted) — the right setting for co-occurrence / near-dup
    pair graphs, and it also guarantees no dangling nodes.  Directed
    graphs are supported: dangling mass (rank parked on nodes without
    out-edges) is redistributed uniformly each round, which keeps the
    rank vector a proper distribution (Σ rank = 1).

    Fixed ``iters`` rounds (PageRank converges geometrically at rate
    ``damping``; 20 rounds ≈ 3 decimal digits at d=0.85) — a fixed
    round count keeps the distributed op count deterministic.

    ADAPTIVE FINALIZER (``mode='auto'``, the default): the edge table is
    materialized exactly once anyway (re-execution guard), so its row
    count is known for free — when it is ≤ ``dense_edge_bound``
    (~100 MB driver-side, the engine's bounded-artifact budget) the
    iteration collapses to the dense driver path: distributed MINING,
    dense FINALIZE, the same shape as every broadcast-side artifact in
    this engine.  Each BSP round otherwise costs one join + one bucketed
    reduce of pure AllToAll fixed overhead (~3 s/round measured at small
    scale) regardless of graph size — the wrong price for a graph that
    fits on the driver.  ``mode='bsp'`` forces the distributed path (the
    100-TB posture, and what the equivalence tests pin); ``mode='dense'``
    forces the driver path.  Both paths agree to 1e-9
    (``tests/test_graph.py``)."""

    def normalize(b: pd.DataFrame) -> pd.DataFrame:
        s = b[src_col].to_numpy().astype("int64")
        d = b[dst_col].to_numpy().astype("int64")
        w = (
            b[weight_col].to_numpy().astype("float64")
            if weight_col is not None
            else np.ones(len(b), dtype="float64")
        )
        if symmetric:
            s, d, w = (
                np.concatenate([s, d]),
                np.concatenate([d, s]),
                np.concatenate([w, w]),
            )
        return pd.DataFrame({"src": s, "dst": d, "w": w})

    # ONE materialized execution of the upstream edge-mining plan (the
    # documented accidental-re-execution trap): every round reads `ew`.
    ew = edges.map_batches(
        arrow_out(normalize), batch_format="pandas"
    ).materialize()

    import ray.data as rd

    n_edges = ew.count()  # metadata-only: ew is materialized
    if not n_edges:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.float64())})
        )

    if mode == "dense" or (mode == "auto" and n_edges <= dense_edge_bound):
        # symmetric expansion already applied in `normalize`
        dense = pagerank_power(
            ew.to_pandas(), "src", "dst", "w",
            damping=damping, iters=iters, symmetric=False,
        )
        return rd.from_pandas(dense)

    # out-weight per src (V rows — the per-batch groupby is the combiner)
    def outw_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("src", sort=False)["w"].sum()
        return pd.DataFrame(
            {"src": g.index.to_numpy(), "out_w": g.to_numpy()}
        )

    def outw_final(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("src", sort=False)["out_w"].sum()
        return pd.DataFrame(
            {"src": m.index.to_numpy(), "out_w": m.to_numpy()}
        )

    outw = bucketed_group_map(
        ew.map_batches(arrow_out(outw_partial), batch_format="pandas"),
        ["src"], outw_final, num_buckets=num_buckets,
    ).materialize()
    _OUTW_SCHEMA = pa.schema([("src", pa.int64()), ("out_w", pa.float64())])

    # normalize edge weights once: w_norm = w / out_w(src).  Reused every
    # round — the transition matrix never needs recomputing.
    def edge_norm_post(m: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"src": m["src"].to_numpy(), "dst": m["dst"].to_numpy(),
             "w_norm": m["w"].to_numpy() / m["out_w"].to_numpy()}
        )

    edges_norm = hash_join(
        ew, outw, on=["src"],
        left_schema=_EDGE_SCHEMA, right_schema=_OUTW_SCHEMA,
        num_buckets=num_buckets, bucket_post=edge_norm_post,
    ).materialize()

    # node set = distinct src ∪ dst; dangling ⟺ no out-edge.  SYMMETRIC
    # fast path: both directions of every edge exist, so nodes ≡ outw's
    # keys and nothing dangles — the node census, the left-join flag
    # derivation AND the per-round dangling-mass pass all vanish (each
    # was a full distributed execution; measured ~3 s/query of pure
    # fixed cost at small scale).
    if symmetric:
        def flag_zero(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"src": b["src"].to_numpy(),
                 "dangling": pd.array(np.zeros(len(b), "int8"), "int8")}
            )

        flagged = outw.map_batches(
            arrow_out(flag_zero), batch_format="pandas"
        ).materialize()
    else:
        def node_partial(b: pd.DataFrame) -> pd.DataFrame:
            n = np.unique(
                np.concatenate([b["src"].to_numpy(), b["dst"].to_numpy()])
            )
            return pd.DataFrame({"src": n})

        def node_final(g: pd.DataFrame) -> pd.DataFrame:
            return g.drop_duplicates("src")

        nodes = bucketed_group_map(
            ew.map_batches(arrow_out(node_partial), batch_format="pandas"),
            ["src"], node_final, num_buckets=num_buckets,
        )
        _NODE_SCHEMA = pa.schema([("src", pa.int64())])

        def flag_post(m: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"src": m["src"].to_numpy(),
                 "dangling": pd.array(
                     m["out_w"].isna().to_numpy().astype("int8"), "int8")}
            )

        flagged = hash_join(
            nodes, outw, on=["src"], how="left",
            left_schema=_NODE_SCHEMA, right_schema=_OUTW_SCHEMA,
            num_buckets=num_buckets, bucket_post=flag_post,
        ).materialize()
    n_nodes = flagged.count()

    def init_rank(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        out["rank"] = 1.0 / n_nodes
        return out[["src", "rank", "dangling"]]

    ranks = flagged.map_batches(
        arrow_out(init_rank), batch_format="pandas"
    ).repartition(num_buckets).materialize()

    base_teleport = (1.0 - damping) / n_nodes

    for _ in range(iters):
        # dangling mass of the CURRENT vector (one cheap V-row pass;
        # structurally zero for symmetric graphs)
        if symmetric:
            dangling_sum = 0.0
        else:
            def dangling_partial(b: pd.DataFrame) -> pd.DataFrame:
                s = float(b.loc[b["dangling"] == 1, "rank"].sum())
                return pd.DataFrame({"x": [s]})

            dangling_sum = float(fold_groups(
                ranks.map_batches(arrow_out(dangling_partial),
                                  batch_format="pandas"),
                [], [("x", "sum")]).fillna(0.0)["x"].iloc[0])

        def contrib_post(m: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"src": m["dst"].to_numpy(),
                 "val": m["rank"].to_numpy() * m["w_norm"].to_numpy(),
                 "dangling": pd.array(np.zeros(len(m), "int8"), "int8")}
            )

        contribs = hash_join(
            edges_norm, ranks, on=["src"],
            left_schema=_EDGE_NORM_SCHEMA, right_schema=_RANK_SCHEMA,
            num_buckets=num_buckets, bucket_post=contrib_post,
        )

        # base rows keep nodes with no in-edges alive AND carry the
        # authoritative dangling flag (max-folded in the reduce)
        def base_row(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"src": b["src"].to_numpy(),
                 "val": np.zeros(len(b), "float64"),
                 "dangling": b["dangling"].to_numpy()}
            )

        cand = contribs.union(
            ranks.map_batches(arrow_out(base_row), batch_format="pandas")
        )

        extra = damping * dangling_sum / n_nodes

        def reduce_rank(g: pd.DataFrame) -> pd.DataFrame:
            gg = g.groupby("src", sort=False)
            val = gg["val"].sum()
            flag = gg["dangling"].max()
            return pd.DataFrame(
                {"src": val.index.to_numpy(),
                 "rank": base_teleport + damping * val.to_numpy() + extra,
                 "dangling": pd.array(flag.to_numpy(), "int8")}
            )

        ranks = bucketed_group_map(
            cand, ["src"], reduce_rank, num_buckets=num_buckets
        ).repartition(num_buckets).materialize()

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": b["src"].to_numpy(), "rank": b["rank"].to_numpy()}
        )

    return ranks.map_batches(arrow_out(rename), batch_format="pandas")


def pagerank_power(
    edges: pd.DataFrame,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    *,
    damping: float = 0.85,
    iters: int = 20,
    symmetric: bool = False,
) -> pd.DataFrame:
    """Dense power iteration over a BOUNDED edge frame (driver-side
    finalizer for gazetteer-keyed graphs; also the BSP path's test
    oracle).  Same update rule, same dangling handling."""
    s = edges[src_col].to_numpy().astype("int64")
    d = edges[dst_col].to_numpy().astype("int64")
    w = (
        edges[weight_col].to_numpy().astype("float64")
        if weight_col is not None
        else np.ones(len(edges), dtype="float64")
    )
    if symmetric:
        s, d, w = (
            np.concatenate([s, d]),
            np.concatenate([d, s]),
            np.concatenate([w, w]),
        )
    nodes = np.unique(np.concatenate([s, d]))
    idx = {int(n): i for i, n in enumerate(nodes)}
    n = len(nodes)
    if not n:
        return pd.DataFrame({"node": pd.array([], "int64"),
                             "rank": pd.array([], "float64")})
    si = np.fromiter((idx[int(x)] for x in s), np.int64, len(s))
    di = np.fromiter((idx[int(x)] for x in d), np.int64, len(d))
    out_w = np.zeros(n)
    np.add.at(out_w, si, w)
    w_norm = w / out_w[si]
    dangling = out_w == 0.0
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        np.add.at(contrib, di, r[si] * w_norm)
        extra = damping * float(r[dangling].sum()) / n
        r = (1.0 - damping) / n + damping * contrib + extra
    return pd.DataFrame(
        {"node": pd.array(nodes, "int64"),
         "rank": pd.array(r, "float64")}
    )


# -- k-hop neighborhood (BFS min-distance from a seed set) ---------------------

def k_hop_dense(
    edges: pd.DataFrame,
    src_col: str,
    dst_col: str,
    seeds,
    k: int = 3,
) -> dict:
    """Driver-side exact BFS over a BOUNDED undirected edge table:
    {node: min hops from the seed set, ≤ k}.  The dense twin of
    ``k_hop_frontier`` (equivalence pinned by tests) — use it when the
    edge table is already a bounded driver-side artifact (gazetteer
    co-occurrence graphs), the same convention as ``pagerank_power``."""
    adj: dict = {}
    for a, b in zip(edges[src_col], edges[dst_col]):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    visited = {s: 0 for s in seeds}
    frontier = set(seeds)
    for hop in range(1, k + 1):
        nxt: set = set()
        for t in frontier:
            nxt |= adj.get(t, set())
        nxt -= visited.keys()
        if not nxt:
            break
        for t in nxt:
            visited[t] = hop
        frontier = nxt
    return visited


def k_hop_frontier(
    edges,
    src_col: str,
    dst_col: str,
    seeds,
    k: int = 3,
) -> dict:
    """Distributed BFS min-distance over an undirected edge Dataset:
    {node: min hops from the seed set, ≤ k}.

    Per hop: ONE streamed pass over the edge Dataset with the current
    frontier broadcast once via ``ray.put`` (read per task, never
    re-shipped per batch); each batch emits its DISTINCT touched
    neighbors, so the driver-side union receives batch-deduplicated
    node partials — O(#batches · frontier-degree) small rows, never
    edge rows.  The visited map is the query RESULT, so holding it
    driver-side is the output contract, not a materialization; for
    whole-graph reachability (result ~ node set) use
    ``stages/components.py`` labels instead.  The Dataset is
    materialized once up front because BFS re-scans it k times."""
    import ray

    edges = edges.materialize()
    visited = {s: 0 for s in seeds}
    frontier = set(seeds)
    for hop in range(1, k + 1):
        ref = ray.put(frontier)

        def touched(b: pd.DataFrame, _ref=ref) -> pd.DataFrame:
            fr = ray.get(_ref)
            s, d = b[src_col], b[dst_col]
            nbrs = pd.concat([d[s.isin(fr)], s[d.isin(fr)]]).drop_duplicates()
            return pd.DataFrame({"node": nbrs.reset_index(drop=True)})

        found = set(
            edges.map_batches(arrow_out(touched), batch_format="pandas")
            .to_pandas()["node"]
        )
        nxt = found - visited.keys()
        if not nxt:
            break
        for t in nxt:
            visited[t] = hop
        frontier = nxt
    return visited


# -- triangle census ----------------------------------------------------------

def triangle_counts(edges, *, node_type=None, num_buckets: int = 16):
    """Per-node triangle participation over an undirected edge Dataset —
    the degree-oriented wedge semi-join (each triangle counted once at
    its minimum-rank corner, then unpivoted to all three corners).

    ``edges``: Dataset with columns ``src``/``dst`` — DISTINCT undirected
    pairs, each pair present exactly once in either orientation, no
    self-loops.  Returns a Dataset of ``(node, triangles)`` for nodes in
    ≥1 triangle.

    Steps: (1) bucketed degree census; (2) orient each edge from the
    lower (degree, node) endpoint to the higher — caps oriented
    out-degree at O(√m), bounding wedge fan-out on hubs (skew control);
    (3) enumerate out-neighbor pairs per apex in a bucketed group;
    (4) semi-join wedges against the oriented edges — survivors are
    triangles.  The result is orientation-invariant, so any total order
    (lexicographic in a SQL oracle, degree here) yields identical counts.

    Partitioning assumption (documented per the engine convention): the
    degree→rank map is collected driver-side — a NODE-cardinality
    artifact, fine for gazetteer-/entity-keyed graphs; for unbounded
    node sets replace step (2) with two rank hash-joins (src then dst)
    — same exchange shape as ``pagerank``'s out-weight normalization."""
    from itertools import combinations

    import ray

    node_type = node_type or pa.string()
    pd_node = pa.schema([("n", node_type)]).empty_table().to_pandas()["n"].dtype

    # ONE execution of the upstream edge-mining plan: the edge table is
    # consumed twice (degree census, orientation) and re-executing a
    # mining pipeline per consumer was measured to dominate wall time.
    # materialize() keeps blocks distributed/spillable in the object store.
    edges = edges.materialize()

    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        both = pd.concat([b["src"].rename("node"), b["dst"].rename("node")])
        out = both.value_counts().rename_axis("node").reset_index(name="deg")
        return pd.DataFrame(
            {"node": out["node"].astype(pd_node), "deg": out["deg"].astype("int64")}
        )

    deg = bucketed_group_map(
        edges.map_batches(arrow_out(deg_partial), batch_format="pandas"),
        ["node"],
        lambda g: g.groupby("node", sort=False)["deg"].sum().reset_index(),
        num_buckets=4,
    ).to_pandas()  # node-cardinality artifact (see docstring)
    empty = pd.DataFrame(
        {"node": pd.Series([], dtype=pd_node),
         "triangles": pd.array([], "int64")}
    )
    if not len(deg):
        import ray.data as rd

        return rd.from_pandas(empty)
    ordered = deg.sort_values(["deg", "node"], kind="mergesort")
    rank_ref = ray.put({t: i for i, t in enumerate(ordered["node"])})

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        ra = b["src"].map(r).to_numpy("int64")
        rb = b["dst"].map(r).to_numpy("int64")
        lo = np.where(ra < rb, b["src"], b["dst"])
        hi = np.where(ra < rb, b["dst"], b["src"])
        return pd.DataFrame(
            {"src": pd.Series(lo).astype(pd_node),
             "dst": pd.Series(hi).astype(pd_node)}
        )

    # oriented edges feed BOTH the wedge stage and the semi-join right
    # side — materialize to avoid running the orientation (and everything
    # above it) twice.
    oriented = edges.map_batches(
        arrow_out(orient), batch_format="pandas"
    ).materialize()

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        apex, v, w = [], [], []
        for src, sub in g.groupby("src", sort=False):
            nbrs = sorted(sub["dst"], key=r.__getitem__)
            for x, y in combinations(nbrs, 2):
                apex.append(src)
                v.append(x)
                w.append(y)
        return pd.DataFrame(
            {"apex": pd.Series(apex, dtype=pd_node),
             "src": pd.Series(v, dtype=pd_node),
             "dst": pd.Series(w, dtype=pd_node)}
        )

    wedge_ds = bucketed_group_map(oriented, ["src"], wedges, num_buckets=num_buckets)
    tri = hash_join(
        wedge_ds, oriented, on=["src", "dst"], how="semi",
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("apex", node_type), ("src", node_type), ("dst", node_type)]
        ),
        right_schema=pa.schema([("src", node_type), ("dst", node_type)]),
    )

    def corner_partial(b: pd.DataFrame) -> pd.DataFrame:
        corners = pd.concat(
            [b["apex"].rename("node"), b["src"].rename("node"),
             b["dst"].rename("node")]
        )
        out = corners.value_counts().rename_axis("node").reset_index(name="triangles")
        return pd.DataFrame(
            {"node": out["node"].astype(pd_node),
             "triangles": out["triangles"].astype("int64")}
        )

    return bucketed_group_map(
        tri.map_batches(arrow_out(corner_partial), batch_format="pandas"),
        ["node"],
        lambda g: g.groupby("node", sort=False)["triangles"].sum().reset_index(),
        num_buckets=4,
    )


def triangle_counts_dense(edges: pd.DataFrame, src: str, dst: str) -> pd.DataFrame:
    """Driver-side dense oracle: A³ diagonal / 2 per node (test pin for
    ``triangle_counts``)."""
    nodes = sorted(set(edges[src]) | set(edges[dst]))
    idx = {n: i for i, n in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for s, d in zip(edges[src], edges[dst]):
        if s != d:
            a[idx[s], idx[d]] = 1
            a[idx[d], idx[s]] = 1
    tri = np.diag(a @ a @ a) // 2
    keep = tri > 0
    return pd.DataFrame(
        {"node": pd.Series(np.asarray(nodes)[keep]),
         "triangles": pd.array(tri[keep], "int64")}
    )


def k_core_nodes(
    edges,
    k: int,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    mode: str = "auto",
    dense_edge_bound: int = 4_000_000,
):
    """Nodes of the k-core (maximal subgraph where every node keeps
    degree ≥ k) with their in-core degree — the density filter used to
    trim noisy fringe entities before community/centrality analysis.
    The k-core is UNIQUE, so any peeling order converges to the same
    answer (confluence) — that's what makes the distributed and dense
    paths provably agree.

    BSP peeling (``mode='bsp'``): each round runs ONE degree census
    over the surviving edge set, folded on the driver (removed nodes are
    a broadcast set; the census is the node-cardinality artifact this
    engine collects driver-side, same posture as ``triangle_counts``'s
    rank map — for unbounded node sets the removal set becomes a
    semi-join against a distributed node table), drops every
    node under ``k``, repeats to fixpoint.  Rounds are bounded by the
    peeling depth (≤ node count; tiny in practice — each round removes
    a whole "shell").

    ``mode='auto'`` (default): the edge table is materialized once
    anyway; when its size is ≤ ``dense_edge_bound`` the peeling runs
    dense on the driver (distributed MINING, dense FINALIZE — the
    adaptive posture shared with pagerank/components).  Returns a
    pandas DataFrame (node, core_deg), node dtype preserved."""
    import ray

    def both_dirs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"u": pd.concat([b[src_col], b[dst_col]], ignore_index=True),
             "v": pd.concat([b[dst_col], b[src_col]], ignore_index=True)}
        )

    adj = edges.map_batches(
        arrow_out(both_dirs), batch_format="pandas"
    ).materialize()
    n_dir = adj.count()  # metadata-only (materialized)

    if mode == "dense" or (mode == "auto" and n_dir <= 2 * dense_edge_bound):
        return k_core_dense(adj.to_pandas(), k, "u", "v")

    removed: set = set()
    while True:
        rm_ref = ray.put(removed)

        def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
            rm = ray.get(rm_ref)
            live = b[~b["u"].isin(rm) & ~b["v"].isin(rm)]
            return pd.DataFrame({"u": live["u"].dropna(), "d": 1})

        deg = fold_groups(  # node-cardinality artifact
            adj.map_batches(arrow_out(deg_partial), batch_format="pandas"),
            ["u"], [("d", "sum")])
        bad = set(deg.loc[deg["d"] < k, "u"])
        if not bad:
            break
        removed |= bad
    return deg.rename(columns={"u": "node", "d": "core_deg"})


def k_core_dense(adj: pd.DataFrame, k: int, u: str = "u", v: str = "v"
                 ) -> pd.DataFrame:
    """Driver-side dense peeling over a both-directions adjacency frame
    (reference pin for ``k_core_nodes``; also its adaptive finalizer)."""
    live = adj[[u, v]].copy()
    while True:
        deg = live[u].value_counts()
        bad = set(deg[deg < k].index)
        if not bad:
            break
        live = live[~live[u].isin(bad) & ~live[v].isin(bad)]
    deg = live[u].value_counts().sort_index()
    return pd.DataFrame({"node": pd.Series(deg.index),
                         "core_deg": pd.array(deg.to_numpy(), "int64")})


def lpa_dense(adj: pd.DataFrame, rounds: int, u: str = "u", v: str = "v"
              ) -> pd.DataFrame:
    """Driver-side dense label propagation over a both-directions
    adjacency frame (reference pin for ``lpa_communities``; also its
    adaptive finalizer).  Deterministic semantics: SYNCHRONOUS rounds,
    new label = the most frequent neighbor label, ties → smallest
    label; a FIXED round budget (bipartite-ish regions can oscillate
    under synchronous updates — the fixed budget makes the output a
    pure function of the graph, which is what the distributed path
    pins against)."""
    import numpy as np

    nodes = pd.unique(pd.concat([adj[u], adj[v]], ignore_index=True))
    lbl = {n: n for n in nodes}
    for _ in range(rounds):
        lab = adj[v].map(lbl)
        cnt = (pd.DataFrame({"u": adj[u], "lab": lab})
               .groupby(["u", "lab"], sort=False).size()
               .reset_index(name="c"))
        cnt = cnt.sort_values(["u", "c", "lab"],
                              ascending=[True, False, True],
                              kind="mergesort")
        win = cnt.drop_duplicates("u")
        new = dict(zip(win["u"], win["lab"]))
        changed = any(new[n] != lbl[n] for n in new)
        lbl.update(new)
        if not changed:
            break
    out = pd.DataFrame({"node": list(lbl.keys()),
                        "community": [lbl[n] for n in lbl]})
    return out.sort_values("node", kind="mergesort").reset_index(drop=True)


def lpa_communities(
    edges,
    *,
    rounds: int = 10,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 16,
    mode: str = "auto",
    dense_edge_bound: int = 4_000_000,
):
    """Label-propagation community detection (Raghavan, Albert & Kumara
    2007) over an undirected edge list — near-linear community mining
    (the coarse counterpart of ``connected_components``: components
    split where internal edge density drops).

    Deterministic contract (exactly `lpa_dense`'s): synchronous rounds,
    new label = most frequent neighbor label with ties to the SMALLEST
    label, fixed round budget — a pure function of the graph, invariant
    to parallelism and arrival order (pytest-pinned BSP ≡ dense).

    BSP shape per round: the label map broadcasts (`ray.put`, the
    node-cardinality artifact posture shared with k_core's removal set
    and triangle_counts' rank map — at an unbounded node scale it
    becomes a keyed join against a distributed label table, same
    exchange), each edge batch emits pre-counted (u, neighbor-label)
    partials, ONE bucketed exchange per round finalizes the argmax."""
    import ray

    from .shuffle import bucketed_group_map

    def both_dirs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"u": pd.concat([b[src_col], b[dst_col]], ignore_index=True),
             "v": pd.concat([b[dst_col], b[src_col]], ignore_index=True)}
        )

    adj = edges.map_batches(
        arrow_out(both_dirs), batch_format="pandas"
    ).materialize()
    n_dir = adj.count()  # metadata-only (materialized)

    if mode == "dense" or (mode == "auto" and n_dir <= 2 * dense_edge_bound):
        return lpa_dense(adj.to_pandas(), rounds, "u", "v")

    nodes = bucketed_group_map(
        adj.map_batches(
            arrow_out(lambda b: b[["u"]].drop_duplicates()),
            batch_format="pandas",
        ),
        ["u"], lambda g: g.drop_duplicates(), num_buckets=num_buckets,
    ).to_pandas()["u"]
    lbl = {n: n for n in nodes}

    for _ in range(rounds):
        ref = ray.put(lbl)

        def cnt_partial(b: pd.DataFrame) -> pd.DataFrame:
            m = ray.get(ref)
            out = (pd.DataFrame({"u": b["u"],
                                 "lab": b["v"].map(m)})
                   .groupby(["u", "lab"], sort=False).size()
                   .reset_index(name="c"))
            out["c"] = out["c"].astype("int64")
            return out

        def argmax(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby(["u", "lab"], sort=False, as_index=False)["c"].sum()
            s = s.sort_values(["u", "c", "lab"],
                              ascending=[True, False, True],
                              kind="mergesort")
            return s.drop_duplicates("u")[["u", "lab"]]

        win = bucketed_group_map(
            adj.map_batches(arrow_out(cnt_partial), batch_format="pandas"),
            ["u"], argmax, num_buckets=num_buckets,
        ).to_pandas()  # node-cardinality artifact
        new = dict(zip(win["u"], win["lab"]))
        changed = any(new[n] != lbl[n] for n in new)
        lbl.update(new)
        if not changed:
            break
    out = pd.DataFrame({"node": list(lbl.keys()),
                        "community": [lbl[n] for n in lbl]})
    return out.sort_values("node", kind="mergesort").reset_index(drop=True)


# -- HITS hubs & authorities ----------------------------------------------------

_SCORE_SCHEMA = pa.schema([("src", pa.int64()), ("score", pa.float64())])


def hits_power(
    edges: pd.DataFrame,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    *,
    iters: int = 20,
) -> pd.DataFrame:
    """Dense driver-side HITS (Kleinberg 1999) over a DIRECTED edge
    frame → (node, hub, authority), L1-normalized each half-step.
    The test oracle the distributed ``hits`` path must match to 1e-9;
    for bounded node sets (bipartite source→term graphs) it is also the
    production finalizer, same convention as ``pagerank_power``."""
    s = edges[src_col].to_numpy().astype("int64")
    d = edges[dst_col].to_numpy().astype("int64")
    w = (edges[weight_col].to_numpy().astype("float64")
         if weight_col is not None else np.ones(len(edges), dtype="float64"))
    nodes = np.unique(np.concatenate([s, d]))
    n = len(nodes)
    if not n:
        return pd.DataFrame({"node": pd.array([], "int64"),
                             "hub": pd.array([], "float64"),
                             "authority": pd.array([], "float64")})
    si = np.searchsorted(nodes, s)
    di = np.searchsorted(nodes, d)
    h = np.full(n, 1.0 / n, dtype="float64")
    a = np.zeros(n, dtype="float64")
    for _ in range(iters):
        a = np.bincount(di, weights=h[si] * w, minlength=n)
        ta = a.sum()
        if ta > 0:
            a = a / ta
        h = np.bincount(si, weights=a[di] * w, minlength=n)
        th = h.sum()
        if th > 0:
            h = h / th
    return pd.DataFrame({"node": nodes.astype("int64"), "hub": h,
                         "authority": a})


def hits(
    edges,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    *,
    iters: int = 20,
    num_buckets: int = 16,
    mode: str = "auto",
    dense_edge_bound: int = 4_000_000,
):
    """Distributed HITS over a directed edge Dataset → Dataset
    (node, hub, authority).

    Same adaptive-finalizer contract as :func:`pagerank`: the edge table
    is materialized once (re-execution guard), and when its row count is
    under ``dense_edge_bound`` the iteration collapses to the dense
    driver path.  The BSP path runs each half-step as ONE partitioned
    ``hash_join`` (state ⋈ edges, per-node sum fused into the join
    buckets via a union of zero base rows) plus one L1-normalization
    scalar pass — O(E + V) exchange per half-step, no dense state
    anywhere.  Pinned ≡ ``hits_power`` to 1e-9 (``tests/test_graph.py``)."""
    import ray.data as rd

    def normalize(b: pd.DataFrame) -> pd.DataFrame:
        w = (b[weight_col].to_numpy().astype("float64")
             if weight_col is not None
             else np.ones(len(b), dtype="float64"))
        return pd.DataFrame({"src": b[src_col].to_numpy().astype("int64"),
                             "dst": b[dst_col].to_numpy().astype("int64"),
                             "w": w})

    ew = edges.map_batches(
        arrow_out(normalize), batch_format="pandas"
    ).materialize()
    n_edges = ew.count()
    if not n_edges:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "hub": pa.array([], pa.float64()),
                      "authority": pa.array([], pa.float64())})
        )

    if mode == "dense" or (mode == "auto" and n_edges <= dense_edge_bound):
        return rd.from_pandas(
            hits_power(ew.to_pandas(), "src", "dst", "w", iters=iters)
        )

    # reversed edge view: hub update is the authority update on (dst→src)
    def rev(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": b["dst"].to_numpy(),
                             "dst": b["src"].to_numpy(),
                             "w": b["w"].to_numpy()})

    ew_rev = ew.map_batches(arrow_out(rev), batch_format="pandas").materialize()

    def node_partial(b: pd.DataFrame) -> pd.DataFrame:
        nn = np.unique(np.concatenate([b["src"].to_numpy(),
                                       b["dst"].to_numpy()]))
        return pd.DataFrame({"src": nn})

    nodes = bucketed_group_map(
        ew.map_batches(arrow_out(node_partial), batch_format="pandas"),
        ["src"], lambda g: g.drop_duplicates("src"),
        num_buckets=num_buckets,
    ).materialize()
    n_nodes = nodes.count()

    def init_h(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": b["src"].to_numpy(),
                             "score": np.full(len(b), 1.0 / n_nodes)})

    def zero_base(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": b["src"].to_numpy(),
                             "val": np.zeros(len(b), "float64")})

    base = nodes.map_batches(
        arrow_out(zero_base), batch_format="pandas"
    ).materialize()

    h = nodes.map_batches(arrow_out(init_h), batch_format="pandas").materialize()

    def half_step(edge_view, state):
        """state(src, score) ⋈ edge_view on src → L1-normalized per-dst sums
        (returned keyed as (src, score) for the next half-step)."""
        def contrib_post(m: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"src": m["dst"].to_numpy(),
                 "val": m["score"].to_numpy() * m["w"].to_numpy()}
            )

        contribs = hash_join(
            edge_view, state, on=["src"],
            left_schema=_EDGE_SCHEMA, right_schema=_SCORE_SCHEMA,
            num_buckets=num_buckets, bucket_post=contrib_post,
        )

        def reduce_sum(g: pd.DataFrame) -> pd.DataFrame:
            m = g.groupby("src", sort=False)["val"].sum()
            return pd.DataFrame({"src": m.index.to_numpy(),
                                 "val": m.to_numpy()})

        raw = bucketed_group_map(
            contribs.union(base), ["src"], reduce_sum,
            num_buckets=num_buckets,
        ).materialize()
        tot = float(fold_groups(raw.select_columns(["val"]), [],
                                [("val", "sum")]).fillna(0.0)["val"].iloc[0])

        def norm(b: pd.DataFrame) -> pd.DataFrame:
            v = b["val"].to_numpy()
            return pd.DataFrame(
                {"src": b["src"].to_numpy(),
                 "score": (v / tot) if tot > 0 else v}
            )

        return raw.map_batches(
            arrow_out(norm), batch_format="pandas"
        ).materialize()

    a = None
    for _ in range(iters):
        a = half_step(ew, h)        # authorities from hubs
        h = half_step(ew_rev, a)    # hubs from authorities

    _VAL_SCHEMA = pa.schema([("src", pa.int64()), ("score", pa.float64())])

    def merge_post(m: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": m["src"].to_numpy(),
             "hub": m["score_l"].to_numpy(),
             "authority": m["score_r"].to_numpy()}
        )

    return hash_join(
        h, a, on=["src"],
        left_schema=_VAL_SCHEMA, right_schema=_VAL_SCHEMA,
        num_buckets=num_buckets, bucket_post=merge_post,
    )


# -- betweenness centrality (Brandes 2001, pivot-parallel) -----------------------


def _csr_undirected(u: np.ndarray, v: np.ndarray):
    """Dedup + symmetrize an edge list into CSR over the sorted node
    array (self-loops dropped).  Returns (nodes, indptr, nbrs)."""
    keep = u != v
    u, v = u[keep], v[keep]
    nodes = np.unique(np.concatenate([u, v]))
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    a = np.concatenate([ui, vi])
    b = np.concatenate([vi, ui])
    key = a.astype("int64") * len(nodes) + b
    uk = np.unique(key)
    a = (uk // len(nodes)).astype("int64")
    b = (uk % len(nodes)).astype("int64")
    indptr = np.zeros(len(nodes) + 1, dtype="int64")
    np.add.at(indptr, a + 1, 1)
    indptr = np.cumsum(indptr)
    return nodes, indptr, b


def _brandes_sources(sources: np.ndarray, indptr: np.ndarray,
                     nbrs: np.ndarray, n: int) -> np.ndarray:
    """Exact per-source Brandes dependency accumulation for a SLICE of
    sources, each fully level-vectorized (frontier gathers over CSR,
    np.add.at for σ and δ) — returns the slice's summed int64
    MICRO-dependency vector.  Rounding each source's δ to integer
    micro-units BEFORE any cross-source sum is what makes the global
    result an exact integer fold: invariant to pivot batching and to
    the final exchange's order (the engine's round-each-addend float
    contract)."""
    acc = np.zeros(n, dtype="int64")
    deg = np.diff(indptr)
    for s in sources:
        dist = np.full(n, -1, dtype="int64")
        sigma = np.zeros(n, dtype="float64")
        dist[s] = 0
        sigma[s] = 1.0
        frontiers = [np.array([s], dtype="int64")]
        lvl = 0
        while True:
            f = frontiers[-1]
            reps = deg[f]
            if not reps.sum():
                break
            src = np.repeat(f, reps)
            tgt = np.concatenate([nbrs[indptr[x]:indptr[x + 1]] for x in f]) \
                if len(f) < 64 else nbrs[_ranges(indptr, f)]
            new_mask = dist[tgt] == -1
            if new_mask.any():
                dist[tgt[new_mask]] = lvl + 1
            on_path = dist[tgt] == lvl + 1
            if on_path.any():
                np.add.at(sigma, tgt[on_path], sigma[src[on_path]])
            nxt = np.unique(tgt[new_mask])
            if not len(nxt):
                break
            frontiers.append(nxt)
            lvl += 1
        delta = np.zeros(n, dtype="float64")
        for f in reversed(frontiers[1:]):
            reps = deg[f]
            src = np.repeat(f, reps)
            tgt = nbrs[_ranges(indptr, f)]
            down = dist[tgt] == dist[src] + 1
            if down.any():
                contrib = (sigma[src[down]] / sigma[tgt[down]]
                           * (1.0 + delta[tgt[down]]))
                np.add.at(delta, src[down], contrib)
        delta[s] = 0.0
        acc += np.floor(delta * 1_000_000 + 0.5).astype("int64")
    return acc


def _ranges(indptr: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Concatenated CSR index ranges for the frontier nodes ``f``."""
    counts = indptr[f + 1] - indptr[f]
    total = int(counts.sum())
    out = np.ones(total, dtype="int64")
    starts = np.cumsum(np.concatenate([[0], counts[:-1]]))
    out[starts] = indptr[f]
    out[starts[1:]] -= indptr[f[:-1] + 1] - 1
    return np.cumsum(out)


def betweenness_dense(adj: pd.DataFrame, u: str = "u", v: str = "v",
                      *, pivots: np.ndarray | None = None) -> pd.DataFrame:
    """Driver-side exact (or pivot-restricted) Brandes — the reference
    pin for :func:`betweenness` and its bounded-graph finalizer.
    Returns (node, bc_micro): the int64 sum of per-source micro-rounded
    dependencies (undirected double counting NOT halved — callers
    finalize ``bc = bc_micro / 2e6`` in one division)."""
    nodes, indptr, nbrs = _csr_undirected(
        adj[u].to_numpy("int64"), adj[v].to_numpy("int64"))
    n = len(nodes)
    if not n:
        return pd.DataFrame({"node": pd.array([], "int64"),
                             "bc_micro": pd.array([], "int64")})
    src = (np.arange(n, dtype="int64") if pivots is None
           else np.searchsorted(nodes, np.sort(pivots)))
    acc = _brandes_sources(src, indptr, nbrs, n)
    return pd.DataFrame({"node": nodes.astype("int64"),
                         "bc_micro": acc})


def betweenness(
    edges,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    n_pivots: int | None = None,
    pivot_batch: int = 8,
    num_buckets: int = 16,
):
    """Distributed betweenness centrality (Brandes 2001; Brandes–Pich
    pivot sampling when ``n_pivots`` caps the source set) over an
    undirected edge Dataset → Dataset (node, bc_micro int64).

    Partitioning assumption (documented, inherent to the algorithm):
    each source's BFS needs the WHOLE graph, so the CSR is the
    broadcast-side artifact (``ray.put`` once, read by every pivot
    task) and the parallel axis is the PIVOT fan-out — the standard
    practical shape for betweenness (the graph is orders of magnitude
    smaller than the corpus that mined it).  Per-pivot-batch partial
    vectors are pre-summed int64 micro addends, so the single node-keyed
    exchange carries ≤ batches×n rows and the fold is exact-integer ⇒
    bit-identical at any parallelism.  Pivot selection is md5-stable
    (bottom-``n_pivots`` by ``md5_int`` of the node id), never
    enumeration order."""
    import ray
    import ray.data as rd

    from ..functions.hashing import md5_int_vec_prefixed
    from .shuffle import bucketed_group_map

    def both(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": b[src_col].astype("int64"),
                             "v": b[dst_col].astype("int64")})

    adj = edges.map_batches(arrow_out(both), batch_format="pandas") \
               .to_pandas()  # broadcast-side artifact by assumption
    nodes, indptr, nbrs = _csr_undirected(
        adj["u"].to_numpy("int64"), adj["v"].to_numpy("int64"))
    n = len(nodes)
    if not n:
        return rd.from_pandas(pd.DataFrame(
            {"node": pd.array([], "int64"),
             "bc_micro": pd.array([], "int64")}))
    if n_pivots is not None and n_pivots < n:
        h = md5_int_vec_prefixed("bc-pivot|", nodes, bits=64)
        src = np.sort(np.argsort(h, kind="stable")[:n_pivots]).astype("int64")
    else:
        src = np.arange(n, dtype="int64")
    csr_ref = ray.put((nodes, indptr, nbrs))

    piv = rd.from_pandas(pd.DataFrame({"s": src})).repartition(
        max(1, (len(src) + pivot_batch - 1) // pivot_batch))

    def run_batch(b: pd.DataFrame) -> pd.DataFrame:
        nds, ip, nb = ray.get(csr_ref)
        acc = _brandes_sources(b["s"].to_numpy("int64"), ip, nb, len(nds))
        nz = np.flatnonzero(acc)
        return pd.DataFrame({"node": nds[nz].astype("int64"),
                             "bc_micro": acc[nz]})

    parts = piv.map_batches(arrow_out(run_batch), batch_format="pandas",
                            batch_size=pivot_batch)
    return bucketed_group_map(
        parts, ["node"],
        lambda g: g.groupby("node", sort=False, as_index=False)["bc_micro"]
        .sum(),
        num_buckets=num_buckets,
    )


# -- single-source shortest paths (weighted, BSP relaxation) ---------------------


def sssp_dense(adj: pd.DataFrame, source: int, u: str = "u", v: str = "v",
               w: str = "w_micro") -> pd.DataFrame:
    """Driver-side Dijkstra over a both-directions integer-weight edge
    frame — the reference pin for :func:`sssp` and its bounded-graph
    finalizer.  Returns (node, dist_micro) for REACHABLE nodes only."""
    import heapq
    from collections import defaultdict

    nbr = defaultdict(list)
    for a, b, c in zip(adj[u].to_numpy("int64"), adj[v].to_numpy("int64"),
                       adj[w].to_numpy("int64")):
        nbr[a].append((b, c))
    dist = {int(source): 0}
    pq = [(0, int(source))]
    while pq:
        d, x = heapq.heappop(pq)
        if d > dist.get(x, 1 << 62):
            continue
        for y, c in nbr.get(x, ()):
            nd = d + int(c)
            if nd < dist.get(y, 1 << 62):
                dist[y] = nd
                heapq.heappush(pq, (nd, y))
    ks = sorted(dist)
    return pd.DataFrame({"node": pd.array(ks, "int64"),
                         "dist_micro": pd.array([dist[k] for k in ks],
                                                "int64")})


def sssp(
    edges,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    *,
    source: int,
    num_buckets: int = 16,
    mode: str = "auto",
    dense_edge_bound: int = 4_000_000,
):
    """Distributed weighted single-source shortest paths over an
    undirected edge Dataset → (node, dist_micro int64) for reachable
    nodes — frontier-synchronous Bellman–Ford relaxation (the BSP shape
    of Δ-stepping with one global bucket).

    Weights are micro-scaled NON-NEGATIVE integers
    (``floor(w·10⁶ + 0.5)``, 1 per edge when ``weight_col`` is None), so
    every relaxation is exact int64 arithmetic ⇒ the fixpoint is unique
    and bit-identical at any parallelism.  Per round: the frontier's
    tentative distances broadcast (``ray.put``; the dist map is the
    node-cardinality driver artifact this engine accepts — the k_core /
    triangle_counts posture; unbounded node sets would hold dist as a
    keyed table and make each round a partitioned join on src), edge
    partials emit ``dist[src] + w`` candidates combined per batch, ONE
    dst-keyed min exchange returns ≤ improved-node rows, the driver
    folds improvements into the map.  Rounds ≤ the weighted-hop
    diameter (frontier-synchronous), each a single exchange.

    ``mode='auto'``: below ``dense_edge_bound`` directed edges the
    finalize runs dense Dijkstra driver-side (mining stays distributed —
    the adaptive posture shared with pagerank/k_core)."""
    import ray
    import ray.data as rd

    from .shuffle import bucketed_group_map

    def both(b: pd.DataFrame) -> pd.DataFrame:
        wm = (np.floor(b[weight_col].to_numpy("float64") * 1_000_000 + 0.5)
              .astype("int64")
              if weight_col is not None
              else np.full(len(b), 1_000_000, dtype="int64"))
        if (wm < 0).any():
            raise ValueError("sssp requires non-negative weights")
        return pd.DataFrame(
            {"u": pd.concat([b[src_col], b[dst_col]],
                            ignore_index=True).astype("int64"),
             "v": pd.concat([b[dst_col], b[src_col]],
                            ignore_index=True).astype("int64"),
             "w_micro": np.concatenate([wm, wm])}
        )

    adj = edges.map_batches(arrow_out(both),
                            batch_format="pandas").materialize()
    n_dir = adj.count()
    if mode == "dense" or (mode == "auto" and n_dir <= dense_edge_bound):
        return sssp_dense(adj.to_pandas(), source)

    dist: dict[int, int] = {int(source): 0}
    frontier: dict[int, int] = {int(source): 0}
    while frontier:
        f_ref = ray.put(frontier)

        def relax_partial(b: pd.DataFrame) -> pd.DataFrame:
            f = ray.get(f_ref)
            m = b["u"].isin(f)
            if not m.any():
                return pd.DataFrame({"v": pd.array([], "int64"),
                                     "d": pd.array([], "int64")})
            sub = b[m]
            d = (sub["u"].map(f).to_numpy("int64")
                 + sub["w_micro"].to_numpy("int64"))
            out = pd.DataFrame({"v": sub["v"].to_numpy("int64"), "d": d})
            return (out.groupby("v", sort=False, as_index=False)["d"].min()
                    .astype({"v": "int64", "d": "int64"}))

        cand = bucketed_group_map(
            adj.map_batches(arrow_out(relax_partial), batch_format="pandas"),
            ["v"],
            lambda g: g.groupby("v", sort=False, as_index=False)["d"].min(),
            num_buckets=num_buckets,
        ).to_pandas()  # ≤ touched-node rows
        frontier = {}
        if "v" in cand.columns:
            for node, d in zip(cand["v"].to_numpy("int64"),
                               cand["d"].to_numpy("int64")):
                if d < dist.get(int(node), 1 << 62):
                    dist[int(node)] = int(d)
                    frontier[int(node)] = int(d)
    ks = sorted(dist)
    return pd.DataFrame({"node": pd.array(ks, "int64"),
                         "dist_micro": pd.array([dist[k] for k in ks],
                                                "int64")})


def _uf_find(parent: dict, x: int) -> int:
    r = x
    while parent.get(r, r) != r:
        r = parent[r]
    while parent.get(x, x) != x:  # path compression
        parent[x], x = r, parent[x]
    return r


def msf_dense(adj: pd.DataFrame, u: str = "u", v: str = "v",
              w: str = "w_micro") -> pd.DataFrame:
    """Driver-side Kruskal over a normalized (u<v) integer-weight edge
    frame — the reference pin for :func:`msf` and its bounded-graph
    finalizer.  Tie-break is the lexicographic (w, u, v) composite, so
    the forest is UNIQUE even with repeated weights."""
    a = adj[u].to_numpy("int64")
    b = adj[v].to_numpy("int64")
    c = adj[w].to_numpy("int64")
    order = np.lexsort((b, a, c))
    parent: dict[int, int] = {}
    rows = []
    for i in order:
        ra, rb = _uf_find(parent, int(a[i])), _uf_find(parent, int(b[i]))
        if ra != rb:
            parent[ra] = rb
            rows.append((int(a[i]), int(b[i]), int(c[i])))
    out = pd.DataFrame(rows, columns=[u, v, w]).astype(
        {u: "int64", v: "int64", w: "int64"})
    return out.sort_values([u, v], kind="mergesort").reset_index(drop=True)


def msf(
    edges,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    *,
    num_buckets: int = 16,
    mode: str = "auto",
    dense_edge_bound: int = 4_000_000,
):
    """Distributed minimum spanning FOREST via frontier-synchronous
    Borůvka — each round every component elects its cheapest outgoing
    edge (a per-batch min combiner + ONE component-keyed min exchange),
    the driver merges components with union-find, and the round count
    is ≤ log₂(nodes).  Negative weights are fine (maximum spanning
    backbones negate their evidence weight).

    Determinism: the effective edge weight is the LEXICOGRAPHIC
    composite (w_micro, u, v) on the normalized u<v edge — unique ⇒ the
    forest is unique ⇒ bit-identical at any parallelism (pytest-pinned
    against dense Kruskal).  Weights are micro-scaled int64
    (``floor(w·10⁶ + 0.5)``; 10⁶ per edge when ``weight_col`` is None).

    The component map is the node-cardinality driver artifact this
    engine accepts (the sssp/k_core posture; an unbounded node set
    would keep comp as a keyed table and make each round a partitioned
    join).  ``mode='auto'``: small graphs finalize dense (mining stays
    distributed)."""
    import ray

    from .shuffle import bucketed_group_map

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        s = b[src_col].to_numpy("int64")
        d = b[dst_col].to_numpy("int64")
        wm = (np.floor(b[weight_col].to_numpy("float64") * 1_000_000 + 0.5)
              .astype("int64")
              if weight_col is not None
              else np.full(len(b), 1_000_000, dtype="int64"))
        keep = s != d  # self-loops never span
        a = np.minimum(s[keep], d[keep])
        bb = np.maximum(s[keep], d[keep])
        out = pd.DataFrame({"u": a, "v": bb, "w_micro": wm[keep]})
        # batch-local combiner: cheapest parallel edge only
        out = out.sort_values(["u", "v", "w_micro"], kind="mergesort")
        return out.drop_duplicates(["u", "v"]).astype(
            {"u": "int64", "v": "int64", "w_micro": "int64"})

    adj = edges.map_batches(arrow_out(norm),
                            batch_format="pandas").materialize()
    n_edges = adj.count()
    if mode == "dense" or (mode == "auto" and n_edges <= dense_edge_bound):
        return msf_dense(adj.to_pandas())

    parent: dict[int, int] = {}
    forest: list[tuple[int, int, int]] = []
    while True:
        roots = {x: _uf_find(parent, x) for x in list(parent)}
        r_ref = ray.put(roots)

        def pick_partial(b: pd.DataFrame) -> pd.DataFrame:
            r = ray.get(r_ref)
            ca = b["u"].map(r).fillna(b["u"]).astype("int64")
            cb = b["v"].map(r).fillna(b["v"]).astype("int64")
            m = (ca != cb).to_numpy()
            if not m.any():
                return pd.DataFrame({"comp": pd.array([], "int64"),
                                     "w_micro": pd.array([], "int64"),
                                     "u": pd.array([], "int64"),
                                     "v": pd.array([], "int64")})
            sub = b[m]
            two = pd.DataFrame(
                {"comp": np.concatenate([ca[m].to_numpy("int64"),
                                         cb[m].to_numpy("int64")]),
                 "w_micro": np.tile(sub["w_micro"].to_numpy("int64"), 2),
                 "u": np.tile(sub["u"].to_numpy("int64"), 2),
                 "v": np.tile(sub["v"].to_numpy("int64"), 2)}
            )
            two = two.sort_values(["comp", "w_micro", "u", "v"],
                                  kind="mergesort")
            return two.drop_duplicates("comp").astype(
                {"comp": "int64", "w_micro": "int64",
                 "u": "int64", "v": "int64"})

        cand = bucketed_group_map(
            adj.map_batches(arrow_out(pick_partial), batch_format="pandas"),
            ["comp"],
            lambda g: (g.sort_values(["comp", "w_micro", "u", "v"],
                                     kind="mergesort")
                       .drop_duplicates("comp")),
            num_buckets=num_buckets,
        ).to_pandas()  # ≤ one row per live component
        if "u" not in cand.columns or not len(cand):
            break
        sel = (cand[["w_micro", "u", "v"]]
               .drop_duplicates(["u", "v"])
               .sort_values(["w_micro", "u", "v"], kind="mergesort"))
        merged = False
        for wm, a, b in sel.itertuples(index=False):
            ra, rb = _uf_find(parent, int(a)), _uf_find(parent, int(b))
            if ra != rb:
                parent[ra] = rb
                forest.append((int(a), int(b), int(wm)))
                merged = True
        if not merged:
            break
    out = pd.DataFrame(forest, columns=["u", "v", "w_micro"]).astype(
        {"u": "int64", "v": "int64", "w_micro": "int64"})
    return out.sort_values(["u", "v"], kind="mergesort").reset_index(drop=True)


def bridge_edges(g: "pd.DataFrame", col_a: str = "a", col_b: str = "b") -> "pd.DataFrame":
    """Bridge edges of the undirected graph given as an edge frame —
    iterative Tarjan low-link (no recursion: explicit stack), O(V+E).
    Returns the bridges as (col_a, col_b) with a < b, sorted.  Pure
    function over one (small) graph — callers bucket by component and
    apply per bucket (a bridge never crosses components)."""
    import numpy as np
    import pandas as pd

    if not len(g):
        return pd.DataFrame({col_a: pd.array([], "int64"),
                             col_b: pd.array([], "int64")})
    a = g[col_a].to_numpy()
    b = g[col_b].to_numpy()
    nodes = np.unique(np.concatenate([a, b]))
    idx = {int(n): i for i, n in enumerate(nodes)}
    n = len(nodes)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (nbr, edge_id)
    for eid, (u, v) in enumerate(zip(a, b)):
        ui, vi = idx[int(u)], idx[int(v)]
        adj[ui].append((vi, eid))
        adj[vi].append((ui, eid))
    disc = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    timer = 0
    bridges: list[int] = []
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # (node, in-edge, child-ptr)
        while stack:
            u, in_eid, ptr = stack.pop()
            if ptr == 0:
                disc[u] = low[u] = timer
                timer += 1
            if ptr < len(adj[u]):
                stack.append((u, in_eid, ptr + 1))
                v, eid = adj[u][ptr]
                if eid == in_eid:
                    continue
                if disc[v] == -1:
                    stack.append((v, eid, 0))
                else:
                    low[u] = min(low[u], disc[v])
            else:
                if in_eid != -1:
                    # finished u: propagate low to parent, test the bridge
                    parent = stack[-1][0] if stack else -1
                    if parent != -1:
                        low[parent] = min(low[parent], low[u])
                    # tree edge (parent,u) is a bridge iff no back edge
                    # escapes subtree(u): low[u] == disc[u] (⟺ > disc[parent])
                    if low[u] == disc[u]:
                        bridges.append(in_eid)
    if not bridges:
        return pd.DataFrame({col_a: pd.array([], "int64"),
                             col_b: pd.array([], "int64")})
    ba = a[bridges]
    bb = b[bridges]
    lo = np.minimum(ba, bb)
    hi = np.maximum(ba, bb)
    out = pd.DataFrame({col_a: pd.array(lo, "int64"),
                        col_b: pd.array(hi, "int64")})
    return out.sort_values([col_a, col_b], kind="mergesort").reset_index(drop=True)
