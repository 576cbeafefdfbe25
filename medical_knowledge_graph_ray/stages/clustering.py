"""Distributed spherical k-means over an embedding column.

The reference has no clustering stage — this is one of the
beyond-reference LLM-data operators (semantic bucketing of a corpus for
dedup, mixture curation, or IVF index builds).  Built Ray-Data-first:
every Lloyd iteration is ONE streaming pass over the dataset — centroids
broadcast via ``ray.put``, per-batch partial sums computed in EXACT int64
fixed point (``rint(unit_vec · 10^6)`` per element), a k×(dim+2)-bounded
``fold_groups`` sum on the driver, and a driver-side centroid update on
the k-row result.  The fixed-point contract makes the fit
BIT-IDENTICAL at any parallelism or batch boundary (float partial sums
would vary with block splits); ``mode='dense'`` runs the same math in one
driver-side numpy pass and is pinned ≡ to the distributed path by tests.

Scale shape: per iteration the driver receives ≤ k rows per input batch
(the batch-local combiner IS the fold's input), so the fold is
O(num_batches · k), never O(rows); ``iters`` full scans are the textbook
k-means cost — bound it and feed a raw column-pruned read (each pass
re-executes the input plan).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.arrow import arrow_out
from .shuffle import fold_groups

FP_SCALE = 1_000_000
_SEED = 777
_STRIDE_MIX = np.uint64(0x9E3779B97F4A7C15)


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return mat / norms


def _to_matrix(col) -> np.ndarray:
    return np.asarray([np.asarray(v, np.float64) for v in col], np.float64)


def _sum_cols(dim: int) -> list[str]:
    return [f"s{j}" for j in range(dim)]


def kmeans_init(
    embeddings, k: int, *, vec_col: str = "embedding", id_col: str = "vec_id",
    train_limit: int = 4096,
) -> np.ndarray:
    """Deterministic seed centroids: stride-hash sample on the id (the IVF
    idiom — content-stable regardless of block arrival order), driver-side
    sort, seeded choice of k distinct rows."""
    n_total = embeddings.count()
    stride = max(1, n_total // train_limit)

    def _stride_sample(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            keep = ((ids * _STRIDE_MIX) >> np.uint64(33)) % np.uint64(stride) == 0
        return b.loc[keep, [id_col, vec_col]]

    sample = (
        embeddings.map_batches(_stride_sample, batch_format="pandas")
        .to_pandas().sort_values(id_col)
    )
    mat = _unit(_to_matrix(sample[vec_col]))
    rng = np.random.RandomState(_SEED)
    pick = rng.choice(len(mat), size=min(k, len(mat)), replace=False)
    cent = mat[pick]
    if len(cent) < k:  # degenerate tiny input: pad by repeating rows
        cent = cent[np.arange(k) % len(cent)]
    return cent


def _iterate_partials(cent: np.ndarray):
    """Batch fn: assign rows to the broadcast centroids, emit per-cluster
    exact int64 partial sums (count + fixed-point unit-vector sums)."""
    k, dim = cent.shape
    scols = _sum_cols(dim)

    def partial(b: pd.DataFrame, *, _cent=cent) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"cluster": pd.array([], "int32"),
                 "n": pd.array([], "int64"),
                 **{c: pd.array([], "int64") for c in scols}}
            )
        unit = _unit(_to_matrix(b.iloc[:, 0]))
        cluster = (unit @ _cent.T).argmax(axis=1).astype("int32")
        fp = np.rint(unit * FP_SCALE).astype("int64")
        df = pd.DataFrame(fp, columns=scols)
        df.insert(0, "cluster", cluster)
        df.insert(1, "n", np.int64(1))
        return df.groupby("cluster", sort=False).sum().reset_index()

    return partial


def _update(cent: np.ndarray, agg: pd.DataFrame) -> np.ndarray:
    """Driver-side centroid update from the k-row aggregate; clusters that
    received no rows keep their previous centroid."""
    k, dim = cent.shape
    out = cent.copy()
    scols = _sum_cols(dim)
    idx = agg["cluster"].to_numpy().astype(int)
    n = agg["n"].to_numpy().astype(np.float64)
    sums = agg[scols].to_numpy().astype(np.float64)
    mean = sums / (FP_SCALE * n[:, None])
    out[idx] = _unit(mean)
    return out


DENSE_CELL_BUDGET = 4_000_000  # rows × dim under which dense fits in one task


def kmeans_fit(
    embeddings, k: int = 10, iters: int = 8, *,
    vec_col: str = "embedding", id_col: str = "vec_id",
    mode: str = "auto",
) -> np.ndarray:
    """Lloyd's spherical k-means; returns (k, dim) unit centroids.

    ``mode='distributed'`` streams every iteration (one pass each);
    ``mode='dense'`` materializes the (bounded) vector column driver-side
    and runs the identical fixed-point math in numpy; ``'auto'`` picks
    dense when rows × dim fits the budget — the adaptive-finalizer
    posture used by the graph ops (each streamed iteration costs a full
    execution startup, pure overhead for a matrix that fits in one heap).
    Both paths produce BIT-IDENTICAL centroids (pinned by tests)."""
    import ray

    cent = kmeans_init(embeddings, k, vec_col=vec_col, id_col=id_col)
    dim = cent.shape[1]
    scols = _sum_cols(dim)

    if mode == "auto":
        # count() is metadata-only for a raw Parquet read (the intended
        # input); the fit is dominated by iters × execution startup when
        # the matrix fits in one worker heap
        mode = "dense" if embeddings.count() * dim <= DENSE_CELL_BUDGET \
            else "distributed"

    if mode == "dense":
        mat = _to_matrix(embeddings.to_pandas()[vec_col])
        for _ in range(iters):
            b = pd.DataFrame({vec_col: list(mat)})
            agg = _iterate_partials(cent)(b[[vec_col]])
            cent = _update(cent, agg)
        return cent

    proj = embeddings.select_columns([vec_col])
    for _ in range(iters):
        partial = _iterate_partials(cent)
        agg = fold_groups(  # ≤ k rows — bounded artifact
            proj.map_batches(arrow_out(partial), batch_format="pandas"),
            ["cluster"], [(c, "sum") for c in ["n", *scols]])
        cent = _update(cent, agg)
    return cent


def kmeans_assign(
    embeddings, cent: np.ndarray, *,
    vec_col: str = "embedding", id_col: str = "vec_id",
):
    """Final assignment pass: Dataset of (id, cluster, sim) — sim is the
    cosine to the assigned centroid in exact ppm (int64), the engine's
    float-parity idiom for downstream aggregation."""
    import ray

    cent_ref = ray.put(cent)

    class Assign:
        def __init__(self):
            self.cent = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.cent is None:
                self.cent = ray.get(cent_ref)
            if not len(b):
                return pd.DataFrame(
                    {id_col: pd.array([], "int64"),
                     "cluster": pd.array([], "int32"),
                     "sim_ppm": pd.array([], "int64")}
                )
            unit = _unit(_to_matrix(b[vec_col]))
            sims = unit @ self.cent.T
            cluster = sims.argmax(axis=1)
            best = sims[np.arange(len(sims)), cluster]
            return pd.DataFrame(
                {
                    id_col: b[id_col].to_numpy().astype("int64"),
                    "cluster": cluster.astype("int32"),
                    "sim_ppm": np.rint(best * FP_SCALE).astype("int64"),
                }
            )

    return embeddings.map_batches(
        arrow_out(Assign()), batch_format="pandas"
    )


# -- distributed PCA (exact-integer sufficient statistics) ---------------------


def pca_fit(ds, n_components: int = 4, *, embedding_col: str = "embedding"):
    """Distributed PCA over an embedding column — the textbook
    sufficient-statistics shape: ONE streaming pass emits per-batch
    exact int64 partials (n, Σq, upper-triangle Σqqᵀ of the fixed-point
    quantized vectors q = rint(x·10⁶)), the driver combines them with
    Python big-int sums (no overflow ceiling, no float drift), builds
    the covariance from exact integers, and runs the d×d
    eigendecomposition locally.  Deterministic at ANY parallelism: the
    partials are associative integers, ``eigh`` sees a bit-identical
    matrix, and the sign convention (largest-|loading| entry positive,
    first-index tie-break) pins the eigenvector gauge.

    At 100 TB the exchange is #batches × d(d+1)/2 int64 rows — the
    data never concentrates; d×d work is driver-side and O(d³).
    Returns a tall frame (component, dim, loading, eigval, evr_bp)."""
    import numpy as np
    import pandas as pd

    from ..functions.arrow import arrow_out

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"n": pd.array([], "int64")})
        x = _to_matrix(b[embedding_col]).astype("float64")
        q = np.rint(x * FP_SCALE).astype("int64")
        d = q.shape[1]
        r, c = np.triu_indices(d)
        cov = (q.T @ q)[r, c]  # exact: |q|≤~1e6 ⇒ per-batch < 2^63
        row = {"n": np.int64(len(q))}
        for j in range(d):
            row[f"s{j}"] = q[:, j].sum()
        for idx, (i, j) in enumerate(zip(r, c)):
            row[f"c{i}_{j}"] = cov[idx]
        return pd.DataFrame([row])

    parts = ds.map_batches(
        arrow_out(partial), batch_format="pandas", batch_size=4096
    ).to_pandas()  # bounded: one row per batch
    parts = parts.dropna().astype("object")
    n = int(sum(int(v) for v in parts["n"]))
    d = sum(1 for c in parts.columns if c.startswith("s"))
    s = np.array(
        [sum(int(v) for v in parts[f"s{j}"]) for j in range(d)], dtype=object
    )
    r, c = np.triu_indices(d)
    C = np.zeros((d, d), dtype=object)
    for i, j in zip(r, c):
        v = sum(int(x) for x in parts[f"c{i}_{j}"])
        C[i, j] = v
        C[j, i] = v
    # covariance from exact ints: (C/n − ssᵀ/n²) / SCALE²  (float64 once)
    scale2 = float(FP_SCALE) ** 2
    Cf = C.astype("float64")
    sf = s.astype("float64")
    cov = (Cf / n - np.outer(sf, sf) / (float(n) ** 2)) / scale2
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:n_components]
    tot = float(w.sum())
    rows = []
    for comp, k in enumerate(order):
        vec = v[:, k]
        pivot = int(np.argmax(np.abs(vec)))
        if vec[pivot] < 0:
            vec = -vec
        for dim in range(d):
            rows.append(
                {"component": comp, "dim": dim,
                 "loading": float(vec[dim]),
                 "eigval": float(w[k]),
                 "evr_bp": int(np.floor(w[k] / tot * 10000 + 0.5))}
            )
    out = pd.DataFrame(rows)
    for col in ("component", "dim", "evr_bp"):
        out[col] = out[col].astype("int64")
    return out


# -- DBSCAN (density clustering over the exact eps-neighbor graph) -----------

def dbscan_dense(mat: np.ndarray, ids: np.ndarray, *, eps_cos: float,
                 min_pts: int) -> pd.DataFrame:
    """Brute-force reference DBSCAN (the pin for :func:`dbscan`).
    Neighborhood = cosine ≥ eps_cos on unit vectors (≡ a euclidean eps
    ball on the sphere), core = ≥ min_pts points in the CLOSED
    neighborhood, clusters = components of the core-core graph labeled
    by their min core id, borders attach to the MIN adjacent core
    cluster (deterministic, replaces scan-order assignment), noise −1."""
    u = _unit(mat.astype("float64"))
    sims = np.round(u @ u.T, 6)
    nbr = sims >= eps_cos
    np.fill_diagonal(nbr, False)
    core = nbr.sum(1) + 1 >= min_pts
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    ci = np.nonzero(core)[0]
    for i in ci:
        for j in np.nonzero(nbr[i] & core)[0]:
            ra, rb = find(int(ids[i])), find(int(ids[j]))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    lab = np.full(len(ids), -1, dtype="int64")
    for i in ci:
        lab[i] = find(int(ids[i]))
    for i in np.nonzero(~core)[0]:
        cn = np.nonzero(nbr[i] & core)[0]
        if len(cn):
            lab[i] = min(find(int(ids[j])) for j in cn)
    out = pd.DataFrame({"vec_id": pd.array(ids.astype("int64"), "int64"),
                        "cluster": pd.array(lab, "int64"),
                        "is_core": pd.array(core.astype("int64"), "int64")})
    return out.sort_values("vec_id", kind="mergesort").reset_index(drop=True)


def dbscan(embeddings, *, eps_cos: float, min_pts: int, n_chunks: int = 8,
           num_buckets: int = 16) -> pd.DataFrame:
    """Distributed DBSCAN over an embedding Dataset → (vec_id, cluster,
    is_core), cluster = min core id of the density component, noise −1.

    Decomposition: DBSCAN is exactly (1) the eps-neighbor graph —
    `similarity.py:neardup_pairs_chunked`, the EXACT all-pairs
    chunk-replicated self-join (cos ≥ eps_cos ≡ a euclidean ball on
    unit vectors); (2) a symmetric degree census (folded on the
    driver) deciding core points (closed-neighborhood ≥ min_pts);
    (3) connected components of the core-core subgraph
    (`components.py:connected_components`, min-id labels); (4) border
    attachment = per-border MIN over adjacent core labels (a second
    pass over the materialized pair table + ONE min exchange).  The
    deterministic min-label border rule replaces the scan-order
    assignment of textbook DBSCAN — parallelism-invariant, pinned ≡
    :func:`dbscan_dense`.

    The degree/label maps are node-cardinality driver artifacts (the
    k_core/sssp posture); the pair table itself never leaves the
    cluster."""
    import ray

    from .components import connected_components
    from .shuffle import bucketed_group_map
    from .similarity import neardup_pairs_chunked

    pairs = neardup_pairs_chunked(embeddings, eps_cos,
                                  n_chunks=n_chunks).materialize()

    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        v = np.concatenate([b["vec_a"].to_numpy("int64"),
                            b["vec_b"].to_numpy("int64")])
        return pd.DataFrame({"v": v, "deg": 1})

    deg = fold_groups(  # node-cardinality artifact
        pairs.map_batches(arrow_out(deg_partial), batch_format="pandas"),
        ["v"], [("deg", "sum")])
    core: set[int] = set(
        deg.loc[deg["deg"].to_numpy("int64") + 1 >= min_pts, "v"]
        .astype("int64").tolist())
    core_ref = ray.put(core)

    def core_edges(b: pd.DataFrame) -> pd.DataFrame:
        cs = ray.get(core_ref)
        m = (b["vec_a"].isin(cs) & b["vec_b"].isin(cs)).to_numpy()
        return b.loc[m, ["vec_a", "vec_b"]].astype("int64")

    cc = connected_components(
        pairs.map_batches(arrow_out(core_edges), batch_format="pandas"),
        "vec_a", "vec_b", num_buckets=num_buckets,
    ).to_pandas()
    comp = (dict(zip(cc["node"].astype("int64"),
                     cc["component_id"].astype("int64")))
            if "node" in cc.columns else {})
    # isolated cores (no core neighbor): their own cluster
    label = {c: comp.get(c, c) for c in core}
    lab_ref = ray.put(label)

    def border_partial(b: pd.DataFrame) -> pd.DataFrame:
        lab = ray.get(lab_ref)
        a = b["vec_a"].to_numpy("int64")
        c = b["vec_b"].to_numpy("int64")
        rows = []
        for x, y in ((a, c), (c, a)):
            xs, ys = pd.Series(x), pd.Series(y)
            m = (xs.isin(lab) & ~ys.isin(lab)).to_numpy()
            if m.any():
                lx = xs[m].map(lab).to_numpy("int64")
                rows.append(pd.DataFrame({"v": y[m], "cl": lx}))
        if not rows:
            return pd.DataFrame({"v": pd.array([], "int64"),
                                 "cl": pd.array([], "int64")})
        out = pd.concat(rows, ignore_index=True)
        return (out.groupby("v", sort=False, as_index=False)["cl"].min()
                .astype({"v": "int64", "cl": "int64"}))

    border = bucketed_group_map(
        pairs.map_batches(arrow_out(border_partial), batch_format="pandas"),
        ["v"],
        lambda g: g.groupby("v", sort=False, as_index=False)["cl"].min(),
        num_buckets=num_buckets,
    ).to_pandas()
    if "v" in border.columns:
        label.update(dict(zip(border["v"].astype("int64"),
                              border["cl"].astype("int64"))))
    full_ref = ray.put((label, core))

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        lab, cs = ray.get(full_ref)
        ids = b["vec_id"].to_numpy("int64")
        return pd.DataFrame(
            {"vec_id": pd.array(ids, "int64"),
             "cluster": pd.array([lab.get(int(i), -1) for i in ids],
                                 "int64"),
             "is_core": pd.array([int(int(i) in cs) for i in ids],
                                 "int64")})

    out = embeddings.select_columns(["vec_id"]).map_batches(
        arrow_out(emit), batch_format="pandas").to_pandas()
    return out.sort_values("vec_id", kind="mergesort").reset_index(drop=True)
