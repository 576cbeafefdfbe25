"""Similarity search over an embedding column (list<float>).

* **Brute-force cosine top-k** (baseline): the query vector is tiny and
  closure-captured (Ray ships it with the task spec once per task
  serialization); each batch computes a vectorized numpy matmul and emits
  only its batch-local top-k partials, so the final exchange sorts
  k·#batches rows, never the corpus.
* **LSH-bucketed variant** (scale path): deterministic random-hyperplane
  signatures bucket vectors; queries probe only their own bucket(s) —
  the all-to-all disappears at the cost of recall (documented).
* **Chunk-pair self-join** (exact near-dup): see ``neardup_pairs_chunked``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _to_matrix(col) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in col])


class BruteForceTopK:
    """Stateless-per-batch cosine scorer emitting batch-local top-k.

    Query normalization happens once in ``__init__`` (actor-pool or plain
    task reuse); sims are rounded to 6 dp at emission so results match the
    DuckDB oracle bit-for-bit after its own rounding.
    """

    def __init__(self, query: np.ndarray, k: int = 10):
        q = np.asarray(query, dtype=np.float64)
        self.q = q / np.linalg.norm(q)
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa

        if not len(batch):
            return pa.table(
                {"vec_id": pa.array([], pa.int64()), "sim": pa.array([], pa.float64())}
            )
        mat = _to_matrix(batch["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        sims = (mat @ self.q) / np.where(norms == 0, 1.0, norms)
        sims = np.round(sims, 6)
        order = np.lexsort((batch["vec_id"].to_numpy(), -sims))[: self.k]
        # Arrow out: this partial feeds a global sort (see functions/arrow.py)
        import pyarrow as pa

        return pa.table(
            {
                "vec_id": pa.array(batch["vec_id"].to_numpy()[order]),
                "sim": pa.array(sims[order], pa.float64()),
            }
        )


def knn_cosine(embeddings, query: np.ndarray, k: int = 10):
    """embeddings Dataset → top-k (vec_id, sim), deterministic tiebreak on
    vec_id.  Partial top-k per batch → tiny global sort → limit."""
    partials = embeddings.map_batches(
        BruteForceTopK(query, k), batch_format="pandas", batch_size=4096
    )
    return partials.sort(["sim", "vec_id"], descending=[True, False]).limit(k)


# -- LSH (random hyperplanes) -------------------------------------------------

# bucket-count knob: 2^N_PLANES buckets. Sized for corpus density — too
# many planes → singleton buckets and zero recall; production would raise
# this with corpus size and multi-probe neighboring buckets.
N_PLANES = 6


def _planes(dim: int) -> np.ndarray:
    rng = np.random.RandomState(2024)
    return rng.standard_normal((N_PLANES, dim))


def knn_cosine_lsh(embeddings, query: np.ndarray, k: int = 10, *, probe_bits: int = 1):
    """Scale path: multi-probe the query's LSH bucket plus every bucket
    within Hamming distance ``probe_bits`` of it (standard multi-probe
    LSH — a near neighbor most likely disagrees on the few hyperplanes
    whose margin is smallest), then brute-force inside the candidates.
    Recall < 1 by design; probe_bits=1 touches (1+N_PLANES)/2^N_PLANES
    of the buckets and measured 8/10 top-10 recall on clustered data
    (`test_lsh_knn_recall_on_clustered_data`) vs 5/10 single-bucket."""
    q = np.asarray(query, dtype=np.float64)

    def _sig_and_keep(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return batch
        mat = _to_matrix(batch["embedding"])
        planes = _planes(mat.shape[1])
        qb = int(((q @ planes.T) > 0) @ (1 << np.arange(N_PLANES, dtype=np.int64)))
        bits = (mat @ planes.T) > 0
        bucket = bits @ (1 << np.arange(N_PLANES, dtype=np.int64))
        ham = np.zeros(len(bucket), dtype=np.int64)
        diff = bucket ^ qb
        for b in range(N_PLANES):
            ham += (diff >> b) & 1
        return batch[ham <= probe_bits]

    candidates = embeddings.map_batches(_sig_and_keep, batch_format="pandas")
    return knn_cosine(candidates, query, k)


# -- exact all-pairs near-dup as a distributed chunk-pair self-join -----------

_CHUNK_MIX = np.uint64(0x9E3779B97F4A7C15)


def neardup_pairs_chunked(embeddings, threshold: float, *, n_chunks: int = 8):
    """All vector pairs with cosine ≥ threshold — EXACT, distributed.

    Why not LSH/IVF here: at low thresholds (this dataset's near-dups sit
    at cos 0.40-0.51 against a 0.29 p99 background) no sign-hyperplane or
    centroid bucketing separates pairs from background — measured IVF
    top-4 multi-assignment recovers only 98% of true pairs while touching
    ~all-pairs candidate volume.  Exact pruning bounds don't help either:
    cos ≥ t implies |proj_r(a) − proj_r(b)| ≤ √(2−2t) ≈ 1.10 for t=0.4 —
    wider than the projection range, so a projection-band prefilter (the
    exactness-preserving sub-quadratic trick for t ≥ ~0.8) prunes nothing.

    Shape: each vector is hash-assigned to one of C chunks and REPLICATED
    to the C pair-groups (min(c,k), max(c,k)) its chunk participates in;
    one bucketed shuffle co-locates each pair-group, which brute-forces
    its two chunks with one vectorized matmul.  Every (a, b) pair lives in
    exactly ONE pair-group, so no pair dedup pass is needed.

    Scale accounting: worker memory O(N/C · d), exchange volume O(N · C · d),
    compute O(N²d/2) total (inherent for exact all-pairs) spread over
    C(C+1)/2 independent tasks.  Choose C ≈ √(N·d·8 / worker_mem); the
    driver never holds a vector and no task holds more than two chunks.
    """
    from ..functions.arrow import arrow_out
    from .shuffle import bucketed_group_map

    C = n_chunks

    def replicate(b: pd.DataFrame):
        if not len(b):
            import pyarrow as pa

            return pa.table(
                {"pk": pa.array([], pa.int32()), "chunk": pa.array([], pa.int32()),
                 "vec_id": pa.array([], pa.int64()),
                 "unit": pa.array([], pa.binary())}
            )
        mat = _to_matrix(b["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
        ids = b["vec_id"].to_numpy().astype(np.int64)
        with np.errstate(over="ignore"):
            chunk = ((ids.astype(np.uint64) * _CHUNK_MIX) >> np.uint64(33)) % np.uint64(C)
        chunk = chunk.astype(np.int64)
        other = np.arange(C, dtype=np.int64)
        lo = np.minimum(chunk[:, None], other[None, :])
        hi = np.maximum(chunk[:, None], other[None, :])
        pk = (lo * C + hi).reshape(-1)
        rep = np.repeat(np.arange(len(ids)), C)
        return pd.DataFrame(
            {
                "pk": pd.array(pk, "int32"),
                "chunk": pd.array(np.repeat(chunk, C), "int32"),
                "vec_id": pd.array(ids[rep], "int64"),
                "unit": [unit[i].tobytes() for i in rep],
            }
        )

    def pair_group(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_s = [], [], []
        for pk, sub in g.groupby("pk", sort=False):
            a_chunk, b_chunk = divmod(int(pk), C)
            sub = sub.drop_duplicates("vec_id")
            ga = sub[sub["chunk"] == a_chunk]
            ids_a = ga["vec_id"].to_numpy()
            mat_a = np.stack([np.frombuffer(v, np.float64) for v in ga["unit"]]) \
                if len(ga) else np.empty((0, 1))
            if a_chunk == b_chunk:
                if len(ga) < 2:
                    continue
                sims = np.round(mat_a @ mat_a.T, 6)
                ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
                pa, pb, ps = ids_a[ii], ids_a[jj], sims[ii, jj]
            else:
                gb = sub[sub["chunk"] == b_chunk]
                if not len(ga) or not len(gb):
                    continue
                ids_b = gb["vec_id"].to_numpy()
                mat_b = np.stack([np.frombuffer(v, np.float64) for v in gb["unit"]])
                sims = np.round(mat_a @ mat_b.T, 6)
                ii, jj = np.nonzero(sims >= threshold)
                pa, pb, ps = ids_a[ii], ids_b[jj], sims[ii, jj]
            swap = pa > pb
            out_a.append(np.where(swap, pb, pa))
            out_b.append(np.where(swap, pa, pb))
            out_s.append(ps)
        if not out_a:
            return pd.DataFrame(
                {"vec_a": pd.array([], "int64"), "vec_b": pd.array([], "int64"),
                 "cos_sim": pd.array([], "float64")}
            )
        return pd.DataFrame(
            {
                "vec_a": pd.array(np.concatenate(out_a), "int64"),
                "vec_b": pd.array(np.concatenate(out_b), "int64"),
                "cos_sim": pd.array(np.concatenate(out_s), "float64"),
            }
        )

    rows = embeddings.map_batches(arrow_out(replicate), batch_format="pandas")
    return bucketed_group_map(rows, ["pk"], pair_group, num_buckets=32)


def neardup_pairs_projected(embeddings, threshold: float):
    """High-threshold EXACT near-dup via projection slabs — the
    sub-quadratic exact path for thresholds where pruning actually bites
    (t ≥ ~0.8; see ``neardup_pairs_chunked`` for why no prefilter helps
    at low thresholds).

    Geometry: unit vectors with cos ≥ t satisfy ‖a−b‖ ≤ ε = √(2−2t), so
    their projections onto ANY fixed unit direction differ by ≤ ε.
    Slab the projection axis with width ε and send each vector to the
    two pair-groups (slab−1, slab) covering its slab: every qualifying
    pair shares ≥ 1 group (|Δslab| ≤ 1), making the prefilter EXACT,
    while only same/adjacent-slab vectors are ever compared — for
    concentrated thresholds the per-group population is a tiny fraction
    of N.  In-group work is one vectorized matmul + threshold; pairs can
    surface from both shared groups, so a bucketed pair-dedup closes the
    pipeline (same shape as MinHash-LSH).
    """
    from ..functions.arrow import arrow_out
    from .shuffle import bucketed_group_map

    if threshold < 0.5:
        raise ValueError(
            "projection slabs prune nothing below t≈0.5 — use "
            "neardup_pairs_chunked for low thresholds"
        )
    # widen the slab by the 6-dp emission rounding: a pair whose ROUNDED
    # sim reaches t can have true cos as low as t - 5e-7, i.e. distance
    # slightly beyond sqrt(2-2t) — without the margin such a pair could
    # straddle two slab boundaries and be missed at the rounding edge
    eps = float(np.sqrt(2.0 - 2.0 * (threshold - 1e-6)))

    def replicate(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            import pyarrow as pa

            return pa.table(
                {"grp": pa.array([], pa.int64()),
                 "vec_id": pa.array([], pa.int64()),
                 "unit": pa.array([], pa.binary())}
            )
        mat = _to_matrix(b["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
        r = _projection_dir(mat.shape[1])
        proj = unit @ r
        slab = np.floor((proj + 1.0) / eps).astype(np.int64)
        ids = b["vec_id"].to_numpy().astype(np.int64)
        grp = np.concatenate([slab - 1, slab])
        rep = np.concatenate([np.arange(len(ids))] * 2)
        return pd.DataFrame(
            {
                "grp": pd.array(grp, "int64"),
                "vec_id": pd.array(ids[rep], "int64"),
                "unit": [unit[i].tobytes() for i in rep],
            }
        )

    def group_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_s = [], [], []
        for _grp, sub in g.groupby("grp", sort=False):
            sub = sub.drop_duplicates("vec_id").sort_values("vec_id")
            if len(sub) < 2:
                continue
            ids = sub["vec_id"].to_numpy()
            mat = np.stack([np.frombuffer(v, np.float64) for v in sub["unit"]])
            sims = np.round(mat @ mat.T, 6)
            ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
            out_a.append(ids[ii])
            out_b.append(ids[jj])
            out_s.append(sims[ii, jj])
        if not out_a:
            return pd.DataFrame(
                {"vec_a": pd.array([], "int64"), "vec_b": pd.array([], "int64"),
                 "cos_sim": pd.array([], "float64")}
            )
        return pd.DataFrame(
            {
                "vec_a": pd.array(np.concatenate(out_a), "int64"),
                "vec_b": pd.array(np.concatenate(out_b), "int64"),
                "cos_sim": pd.array(np.concatenate(out_s), "float64"),
            }
        )

    rows = embeddings.map_batches(arrow_out(replicate), batch_format="pandas")
    pairs = bucketed_group_map(rows, ["grp"], group_pairs, num_buckets=32)
    return bucketed_group_map(
        pairs, ["vec_a", "vec_b"],
        lambda g: g.drop_duplicates(["vec_a", "vec_b"]),
        num_buckets=8,
    )


def _projection_dir(dim: int) -> np.ndarray:
    rng = np.random.RandomState(4242)
    r = rng.standard_normal(dim)
    return r / np.linalg.norm(r)


# -- IVF (inverted-file) variant ---------------------------------------------

IVF_CENTROIDS = 16
IVF_ITERS = 8


def train_ivf_centroids(sample: np.ndarray, n_centroids: int = IVF_CENTROIDS) -> np.ndarray:
    """Deterministic spherical k-means on a (small) training sample.

    Seeded init + fixed Lloyd iterations — same centroids on every run at
    any parallelism.  The sample is driver-side (a bounded `limit()` of
    the corpus); at real scale the sample IS the broadcast side while
    assignment streams."""
    rng = np.random.RandomState(777)
    unit = sample / np.linalg.norm(sample, axis=1, keepdims=True)
    centroids = unit[rng.choice(len(unit), size=n_centroids, replace=False)]
    for _ in range(IVF_ITERS):
        assign = (unit @ centroids.T).argmax(axis=1)
        for c in range(n_centroids):
            members = unit[assign == c]
            if len(members):
                v = members.sum(axis=0)
                centroids[c] = v / np.linalg.norm(v)
    return centroids


def knn_cosine_ivf(
    embeddings,
    query: np.ndarray,
    k: int = 10,
    *,
    nprobe: int = 4,
    train_limit: int = 4096,
):
    """IVF scale path: train centroids on a bounded sample, probe only the
    query's ``nprobe`` nearest cells, brute-force inside them.

    Replaces the all-rows scan with a ~nprobe/n_centroids fraction of the
    corpus; recall < 1 by design (measured against `knn_cosine`, the
    exact baseline)."""
    import ray

    # Deterministic training sample regardless of block arrival order
    # (preserve_order=False makes `limit(n)` order-dependent): stride-hash
    # on vec_id, then a driver-side sort of the ≈train_limit survivors.
    # NOTE `count()` is metadata-only for a raw read_parquet input but
    # EXECUTES any non-trivial lazy plan — pass a plain read (or a cheap
    # projection of one) as `embeddings` when that matters.
    n_total = embeddings.count()
    stride = max(1, n_total // train_limit)
    def _stride_sample(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["vec_id"].to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            keep = ((ids * _CHUNK_MIX) >> np.uint64(33)) % np.uint64(stride) == 0
        return b[keep]

    sample = (
        embeddings.map_batches(_stride_sample, batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")
    )
    mat = _to_matrix(sample["embedding"])
    centroids = train_ivf_centroids(mat)
    q = np.asarray(query, np.float64)
    qc = (centroids @ (q / np.linalg.norm(q))).argsort()[::-1][:nprobe]
    probe = frozenset(int(c) for c in qc)
    cent_ref = ray.put(centroids)

    class CellFilter:
        def __init__(self):
            self.centroids = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if not len(b):
                return b
            if self.centroids is None:
                self.centroids = ray.get(cent_ref)
            m = _to_matrix(b["embedding"])
            unit = m / np.linalg.norm(m, axis=1, keepdims=True)
            assign = (unit @ self.centroids.T).argmax(axis=1)
            return b[np.isin(assign, list(probe))]

    candidates = embeddings.map_batches(CellFilter(), batch_format="pandas")
    return knn_cosine(candidates, query, k)


# -- product quantization (PQ) ANN ---------------------------------------------

PQ_M = 16       # subspaces
PQ_K = 32       # centroids per subspace (codes fit 5 bits; stored uint8)
PQ_ITERS = 10
PQ_RERANK = 200


def train_pq_codebooks(
    sample: np.ndarray, m: int = PQ_M, k: int = PQ_K
) -> np.ndarray:
    """Deterministic per-subspace Lloyd's on a (bounded, driver-side)
    training sample → (m, k, dim/m) codebooks.  PQ compresses each unit
    vector to m sub-centroid ids — 16 bytes here vs 512 for float64×64 —
    the memory path that lets an ANN index hold billions of vectors in
    worker heaps.  Seeded init per subspace; same sample → same books at
    any parallelism (training is driver-side numpy, the IVF posture)."""
    n, d = sample.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    unit = sample / np.maximum(
        np.linalg.norm(sample, axis=1, keepdims=True), 1e-12
    )
    books = np.zeros((m, k, dsub), dtype=np.float64)
    for s in range(m):
        sub = unit[:, s * dsub:(s + 1) * dsub]
        rng = np.random.RandomState(777 + s)
        pick = rng.choice(n, size=min(k, n), replace=False)
        cent = sub[pick].copy()
        if len(cent) < k:  # degenerate tiny sample: repeat rows
            cent = cent[np.arange(k) % len(cent)]
        for _ in range(PQ_ITERS):
            d2 = ((sub[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
            assign = d2.argmin(1)
            for c in range(k):
                members = sub[assign == c]
                if len(members):
                    cent[c] = members.mean(0)
        books[s] = cent
    return books


def knn_cosine_pq(
    embeddings, query: np.ndarray, k: int = 10, *,
    rerank: int = PQ_RERANK, train_limit: int = 4096,
):
    """PQ asymmetric-distance prefilter + EXACT re-rank, one corpus pass.

    Codebooks train on the stride-hash sample (the IVF idiom — content-
    stable at any block order); the query collapses to an (m, k) LUT of
    sub-inner-products broadcast with the books.  Each batch encodes its
    vectors (argmin to sub-centroids — at real scale the codes column IS
    the stored index; here encoding streams), scores every row with m
    LUT lookups + a sum (no full-dim dot), and emits only its top-
    ``rerank`` candidates WITH their true vectors — a bounded
    rerank×batches payload.  The driver takes the global ADC top-rerank
    and re-scores those exactly, so recall = P(true top-k ⊂ ADC
    top-rerank); measured 1.0 at rerank=200 on the sf0.1 table whose
    weak clustering defeats plain PQ (ADC-only recall ≈ 0.6 — see
    ``neardup_pairs_chunked`` for why this corpus resists bucketing).
    Output matches ``knn_cosine``'s (vec_id, sim) contract, 6-dp."""
    import ray

    n_total = embeddings.count()
    stride = max(1, n_total // train_limit)

    def _stride_sample(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["vec_id"].to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            keep = ((ids * _CHUNK_MIX) >> np.uint64(33)) % np.uint64(stride) == 0
        return b[keep]

    sample = (
        embeddings.map_batches(_stride_sample, batch_format="pandas")
        .to_pandas().sort_values("vec_id")
    )
    books = train_pq_codebooks(_to_matrix(sample["embedding"]))
    m, kk, dsub = books.shape
    q = np.asarray(query, np.float64)
    q = q / np.linalg.norm(q)
    lut = np.einsum("mkd,md->mk", books, q.reshape(m, dsub))  # (m, k)
    state_ref = ray.put((books, lut))

    class AdcTopC:
        def __init__(self):
            self.state = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if not len(b):
                return pd.DataFrame(
                    {"vec_id": pd.array([], "int64"),
                     "sim_adc": pd.array([], "float64"),
                     "embedding": pd.Series([], dtype=object)}
                )
            if self.state is None:
                self.state = ray.get(state_ref)
            books, lut = self.state
            mat = _to_matrix(b["embedding"])
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            unit = mat / np.where(norms == 0, 1.0, norms)
            sub = unit.reshape(len(unit), m, dsub)
            # encode: argmin squared distance to each subspace's centroids
            d2 = (
                (sub[:, :, None, :] - books[None, :, :, :]) ** 2
            ).sum(-1)  # (n, m, k)
            codes = d2.argmin(-1)  # (n, m)
            sims = lut[np.arange(m)[None, :], codes].sum(1)
            order = np.lexsort((b["vec_id"].to_numpy(), -sims))[:rerank]
            return pd.DataFrame(
                {
                    "vec_id": pd.array(b["vec_id"].to_numpy()[order], "int64"),
                    "sim_adc": pd.array(sims[order], "float64"),
                    "embedding": pd.Series(
                        list(mat[order]), dtype=object
                    ),
                }
            )

    cand = (
        embeddings.map_batches(AdcTopC(), batch_format="pandas")
        .to_pandas()  # ≤ rerank × batches candidate rows — bounded
        .sort_values(
            ["sim_adc", "vec_id"], ascending=[False, True], kind="mergesort"
        )
        .head(rerank)
    )
    mat = _to_matrix(cand["embedding"])
    norms = np.linalg.norm(mat, axis=1)
    sims = np.round((mat @ q) / np.where(norms == 0, 1.0, norms), 6)
    order = np.lexsort((cand["vec_id"].to_numpy(), -sims))[:k]
    return pd.DataFrame(
        {
            "vec_id": pd.array(cand["vec_id"].to_numpy()[order], "int64"),
            "sim": pd.array(sims[order], "float64"),
        }
    ).reset_index(drop=True)


# -- multi-query brute-force top-k (broadcast query MATRIX) --------------------

def knn_cosine_multi(
    embeddings, queries: np.ndarray, query_ids, k: int = 10,
):
    """Top-k cosine neighbors for EVERY row of a query matrix in one
    corpus pass — the serving shape of similarity search (a batch of
    queries, not one vector).  The normalized (Q, d) matrix ships once
    via ``ray.put``; each corpus batch scores all queries with ONE
    matmul ((n, d) @ (d, Q)) and keeps its batch-local top-k per query —
    the exchange then carries ≤ k·Q rows per batch into the grouped
    top-N final, which also emits the 1-based rank.  Output
    (query_id, vec_id, sim, rank), 6-dp sims matching the single-query
    scorer."""
    import ray

    from .shuffle import grouped_topn

    qm = np.asarray(queries, np.float64)
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    qids = np.asarray(query_ids, np.int64)
    ref = ray.put((qn, qids))

    class MultiTopK:
        def __init__(self):
            self.state = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if not len(b):
                return pd.DataFrame(
                    {"query_id": pd.array([], "int64"),
                     "vec_id": pd.array([], "int64"),
                     "sim": pd.array([], "float64")}
                )
            if self.state is None:
                self.state = ray.get(ref)
            qn, qids = self.state
            mat = _to_matrix(b["embedding"])
            norms = np.linalg.norm(mat, axis=1)
            sims = np.round(
                (mat @ qn.T) / np.where(norms == 0, 1.0, norms)[:, None], 6
            )  # (n, Q)
            ids = b["vec_id"].to_numpy()
            frames = []
            for j in range(sims.shape[1]):  # loop over QUERIES, never rows
                order = np.lexsort((ids, -sims[:, j]))[:k]
                frames.append(pd.DataFrame(
                    {"query_id": np.full(len(order), qids[j], "int64"),
                     "vec_id": ids[order].astype("int64"),
                     "sim": sims[order, j]}
                ))
            return pd.concat(frames, ignore_index=True)

    partials = embeddings.map_batches(MultiTopK(), batch_format="pandas")
    return grouped_topn(
        partials, ["query_id"], "sim", k,
        descending=True, tiebreak="vec_id", num_buckets=8,
    )


# -- persisted PQ index (build once, serve many) --------------------------------

def build_pq_index(
    embeddings, out_dir: str, *, train_limit: int = 4096,
    resume: bool = True,
) -> dict:
    """Materialize the PQ index: a checkpointed (vec_id, codes) table —
    16 bytes per vector instead of 512 — plus the codebooks alongside.
    This is the serve-path split: the corpus is encoded ONCE (the write
    is a resumable `write_stage` checkpoint) and every later query scans
    only the code table (`knn_cosine_pq_indexed`), never the vectors,
    fetching true vectors for its final re-rank candidates by a
    pushed-down keyed read."""
    import ray

    from ..state.manifests import read_manifest, stage_complete, write_stage

    fp = f"pq_index|m={PQ_M}|k={PQ_K}|train={train_limit}"
    book_path = f"{out_dir}/codebooks.npy"
    if resume and stage_complete(f"{out_dir}/codes", fp):
        return read_manifest(f"{out_dir}/codes")

    n_total = embeddings.count()
    stride = max(1, n_total // train_limit)

    def _stride_sample(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["vec_id"].to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            keep = ((ids * _CHUNK_MIX) >> np.uint64(33)) % np.uint64(stride) == 0
        return b[keep]

    sample = (
        embeddings.map_batches(_stride_sample, batch_format="pandas")
        .to_pandas().sort_values("vec_id")
    )
    books = train_pq_codebooks(_to_matrix(sample["embedding"]))
    m, kk, dsub = books.shape
    books_ref = ray.put(books)

    class Encode:
        def __init__(self):
            self.books = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if not len(b):
                return pd.DataFrame(
                    {"vec_id": pd.array([], "int64"),
                     "codes": pd.Series([], dtype=object)}
                )
            if self.books is None:
                self.books = ray.get(books_ref)
            mat = _to_matrix(b["embedding"])
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            unit = mat / np.where(norms == 0, 1.0, norms)
            sub = unit.reshape(len(unit), m, dsub)
            d2 = ((sub[:, :, None, :] - self.books[None, :, :, :]) ** 2).sum(-1)
            codes = d2.argmin(-1).astype(np.uint8)  # (n, m)
            return pd.DataFrame(
                {"vec_id": pd.array(b["vec_id"].to_numpy(), "int64"),
                 "codes": pd.Series([c.tobytes() for c in codes],
                                    dtype=object)}
            )

    import os

    os.makedirs(out_dir, exist_ok=True)
    np.save(book_path, books)
    codes_ds = embeddings.map_batches(Encode(), batch_format="pandas")
    return write_stage(codes_ds, f"{out_dir}/codes", "pq_codes", fp)


def knn_cosine_pq_indexed(
    index_dir: str, embeddings_path: str, query: np.ndarray, k: int = 10,
    *, rerank: int = PQ_RERANK,
) -> pd.DataFrame:
    """Serve-path ANN over the persisted PQ index: scan ONLY the 16-byte
    code table (the I/O win the index exists for), ADC-score with the
    query LUT, keep per-batch top-``rerank`` candidates, then fetch the
    candidates' TRUE vectors by a pushed-down keyed Parquet read (row
    groups without candidate ids never leave storage) and re-rank
    exactly.  Output contract identical to ``knn_cosine_pq``."""
    import pyarrow.parquet as pq

    from ..state.manifests import read_stage

    books = np.load(f"{index_dir}/codebooks.npy")
    m, kk, dsub = books.shape
    q = np.asarray(query, np.float64)
    q = q / np.linalg.norm(q)
    lut = np.einsum("mkd,md->mk", books, q.reshape(m, dsub))

    def adc(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"vec_id": pd.array([], "int64"),
                 "sim_adc": pd.array([], "float64")}
            )
        codes = np.stack(
            [np.frombuffer(c, np.uint8) for c in b["codes"]]
        ).astype(np.int64)
        sims = lut[np.arange(m)[None, :], codes].sum(1)
        order = np.lexsort((b["vec_id"].to_numpy(), -sims))[:rerank]
        return pd.DataFrame(
            {"vec_id": pd.array(b["vec_id"].to_numpy()[order], "int64"),
             "sim_adc": pd.array(sims[order], "float64")}
        )

    cand = (
        read_stage(f"{index_dir}/codes")
        .map_batches(adc, batch_format="pandas")
        .to_pandas()  # ≤ rerank × batches — bounded
        .sort_values(["sim_adc", "vec_id"], ascending=[False, True],
                     kind="mergesort")
        .head(rerank)
    )
    keys = cand["vec_id"].tolist()
    t = pq.read_table(
        embeddings_path, columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", keys)],
    ).to_pandas()
    mat = _to_matrix(t["embedding"])
    norms = np.linalg.norm(mat, axis=1)
    sims = np.round((mat @ q) / np.where(norms == 0, 1.0, norms), 6)
    order = np.lexsort((t["vec_id"].to_numpy(), -sims))[:k]
    return pd.DataFrame(
        {"vec_id": pd.array(t["vec_id"].to_numpy()[order], "int64"),
         "sim": pd.array(sims[order], "float64")}
    ).reset_index(drop=True)


def knn_cosine_range(embeddings, query: np.ndarray, threshold: float):
    """Range (radius) search: every vector whose 6-dp-rounded cosine to
    ``query`` is ≥ ``threshold`` — the fixed-radius sibling of the top-k
    front (semantic recall sets, near-duplicate probes).  Unlike top-k
    there is NO global sort or limit: the whole operator is one
    streaming filter-map (batch matmul + mask), so it pipelines with
    zero exchanges at any scale; the output is as big as the data says
    it is.  The same 6-dp rounding contract as ``BruteForceTopK`` makes
    the ≥ compare bit-identical to the SQL oracle's."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)

    def batch_fn(b: pd.DataFrame):
        import pyarrow as pa

        if not len(b):
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        mat = _to_matrix(b["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        sims = np.round((mat @ q) / np.where(norms == 0, 1.0, norms), 6)
        keep = sims >= threshold
        return pa.table({"vec_id": pa.array(b["vec_id"].to_numpy()[keep]),
                         "sim": pa.array(sims[keep], pa.float64())})

    return embeddings.map_batches(batch_fn, batch_format="pandas",
                                  batch_size=4096)


# -- MMR diversified top-k ------------------------------------------------------

def mmr_topk(
    embeddings,
    query: np.ndarray,
    k: int = 10,
    *,
    pool: int = 50,
    lam: float = 0.7,
) -> pd.DataFrame:
    """Maximal Marginal Relevance (Carbonell & Goldstein 1998)
    diversified top-k: greedily pick argmax ``λ·sim(q,d) −
    (1−λ)·max_{s∈selected} sim(d,s)`` from the top-``pool`` relevance
    candidates.

    Two stages, the standard serve shape: (1) DISTRIBUTED candidate
    generation — per-batch top-``pool`` cosine partials carrying the
    embedding, tiny global sort, limit ``pool`` (driver receives ≤
    ``pool`` rows, never the corpus); (2) driver-side greedy over the
    bounded pool (the greedy loop is inherently sequential — k·pool
    dot products on ≤ pool vectors).  Deterministic: sims rounded to
    6 dp before the greedy, ties break on vec_id asc.  Returns
    (rank, vec_id, rel, mmr) pandas (bounded artifact)."""
    q = np.asarray(query, dtype=np.float64)
    qn = q / np.linalg.norm(q)

    def cand_partial(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {"vec_id": pd.array([], "int64"),
                 "sim": pd.array([], "float64"),
                 "embedding": pd.array([], object)}
            )
        mat = _to_matrix(batch["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        sims = np.round((mat @ qn) / np.where(norms == 0, 1.0, norms), 6)
        order = np.lexsort((batch["vec_id"].to_numpy(), -sims))[:pool]
        return pd.DataFrame(
            {"vec_id": batch["vec_id"].to_numpy()[order],
             "sim": sims[order],
             "embedding": batch["embedding"].to_numpy()[order]}
        )

    cands = (
        embeddings.map_batches(cand_partial, batch_format="pandas",
                               batch_size=4096)
        .sort(["sim", "vec_id"], descending=[True, False])
        .limit(pool)
        .to_pandas()  # <= pool rows
    )
    if not len(cands):
        return pd.DataFrame(
            {"rank": pd.array([], "int64"), "vec_id": pd.array([], "int64"),
             "rel": pd.array([], "float64"), "mmr": pd.array([], "float64")}
        )
    mat = _to_matrix(cands["embedding"])
    norms = np.linalg.norm(mat, axis=1)
    unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
    rel = cands["sim"].to_numpy("float64")
    ids = cands["vec_id"].to_numpy("int64")
    pair = np.round(unit @ unit.T, 6)  # candidate-candidate cosine

    n = len(ids)
    selected: list[int] = []
    max_to_sel = np.zeros(n, dtype="float64")
    picked = np.zeros(n, dtype=bool)
    out = []
    for rank in range(min(k, n)):
        score = lam * rel - (0.0 if not selected else (1.0 - lam)) * max_to_sel
        score[picked] = -np.inf
        # deterministic argmax: max score, then smallest vec_id
        best = np.lexsort((ids, -score))[0]
        selected.append(best)
        picked[best] = True
        out.append((rank + 1, int(ids[best]), float(rel[best]),
                    round(float(score[best]), 6)))
        max_to_sel = np.maximum(max_to_sel, pair[:, best])
    return pd.DataFrame(
        {"rank": pd.array([r for r, *_ in out], "int64"),
         "vec_id": pd.array([v for _, v, *_ in out], "int64"),
         "rel": pd.array([r for *_, r, _ in out], "float64"),
         "mmr": pd.array([m for *_, m in out], "float64")}
    )


def triplet_mine(embeddings, *, n_chunks: int = 8):
    """Hardest-positive / hardest-negative triplet mining for metric
    learning: per anchor vector, the most-similar SAME-label candidate
    (pos) and the most-similar DIFFERENT-label candidate (neg) — the
    batch-hard triplet construction behind contrastive / triplet-loss
    training sets.

    Exact all-pairs by construction (the ``neardup_pairs_chunked``
    replication: every (a, b) pair meets in exactly one chunk pair-group;
    same O(N²d) compute spread over C(C+1)/2 tasks, O(N/C·d) worker
    memory).  At corpus scale substitute the ANN paths (IVF/PQ) for the
    candidate generation and keep this as the exact verifier.

    Tie contract: cosines round to 6 dp at emission; candidate matrices
    sort by vec_id ASC so the first argmax IS the lowest-id tie-winner,
    mirrored by the oracle's ``ORDER BY cos DESC, cand ASC``.  Anchors
    whose label has no second member drop out (inner join in both
    engines)."""
    from ..functions.arrow import arrow_out
    from .shuffle import bucketed_group_map

    C = n_chunks

    def replicate(b: pd.DataFrame):
        if not len(b):
            import pyarrow as pa

            return pa.table(
                {"pk": pa.array([], pa.int32()), "chunk": pa.array([], pa.int32()),
                 "vec_id": pa.array([], pa.int64()), "label": pa.array([], pa.int64()),
                 "unit": pa.array([], pa.binary())}
            )
        mat = _to_matrix(b["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
        ids = b["vec_id"].to_numpy().astype(np.int64)
        labels = b["label"].to_numpy().astype(np.int64)
        with np.errstate(over="ignore"):
            chunk = ((ids.astype(np.uint64) * _CHUNK_MIX) >> np.uint64(33)) % np.uint64(C)
        chunk = chunk.astype(np.int64)
        other = np.arange(C, dtype=np.int64)
        lo = np.minimum(chunk[:, None], other[None, :])
        hi = np.maximum(chunk[:, None], other[None, :])
        pk = (lo * C + hi).reshape(-1)
        rep = np.repeat(np.arange(len(ids)), C)
        return pd.DataFrame(
            {"pk": pd.array(pk, "int32"),
             "chunk": pd.array(np.repeat(chunk, C), "int32"),
             "vec_id": pd.array(ids[rep], "int64"),
             "label": pd.array(labels[rep], "int64"),
             "unit": [unit[i].tobytes() for i in rep]}
        )

    def _mine(ids_a, lab_a, mat_a, ids_b, lab_b, mat_b, self_pair: bool):
        """Best pos/neg in B for every anchor in A → partial rows."""
        sims = np.round(mat_a @ mat_b.T, 6)
        same = lab_a[:, None] == lab_b[None, :]
        if self_pair:
            selfm = ids_a[:, None] == ids_b[None, :]
        else:
            selfm = np.zeros_like(same)
        rows = []
        for kind, mask in (("p", same & ~selfm), ("n", ~same)):
            s = np.where(mask, sims, -np.inf)
            j = np.argmax(s, axis=1)  # cols sorted by id → lowest id wins ties
            best = s[np.arange(len(ids_a)), j]
            ok = np.isfinite(best)
            if ok.any():
                rows.append(pd.DataFrame(
                    {"anchor": pd.array(ids_a[ok], "int64"),
                     "kind": pd.array([kind] * int(ok.sum()), "str"),
                     "cand": pd.array(ids_b[j[ok]], "int64"),
                     "cos": pd.array(best[ok], "float64")}
                ))
        return rows

    _EMPTY = pd.DataFrame(
        {"anchor": pd.array([], "int64"), "kind": pd.array([], "str"),
         "cand": pd.array([], "int64"), "cos": pd.array([], "float64")}
    )

    def pair_group(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for pk, sub in g.groupby("pk", sort=False):
            a_chunk, b_chunk = divmod(int(pk), C)
            sub = sub.drop_duplicates("vec_id").sort_values("vec_id")
            ga = sub[sub["chunk"] == a_chunk]
            ids_a = ga["vec_id"].to_numpy()
            lab_a = ga["label"].to_numpy()
            mat_a = (np.stack([np.frombuffer(v, np.float64) for v in ga["unit"]])
                     if len(ga) else np.empty((0, 1)))
            if a_chunk == b_chunk:
                if len(ga):
                    rows += _mine(ids_a, lab_a, mat_a, ids_a, lab_a, mat_a, True)
            else:
                gb = sub[sub["chunk"] == b_chunk]
                if not len(ga) or not len(gb):
                    continue
                ids_b = gb["vec_id"].to_numpy()
                lab_b = gb["label"].to_numpy()
                mat_b = np.stack([np.frombuffer(v, np.float64) for v in gb["unit"]])
                rows += _mine(ids_a, lab_a, mat_a, ids_b, lab_b, mat_b, False)
                rows += _mine(ids_b, lab_b, mat_b, ids_a, lab_a, mat_a, False)
        return pd.concat(rows, ignore_index=True) if rows else _EMPTY

    partials = bucketed_group_map(
        embeddings.map_batches(arrow_out(replicate), batch_format="pandas"),
        ["pk"], pair_group, num_buckets=32,
    )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {"anchor": pd.array([], "int64"),
                 "pos_id": pd.array([], "int64"), "pos_cos": pd.array([], "float64"),
                 "neg_id": pd.array([], "int64"), "neg_cos": pd.array([], "float64")}
            )
        s = g.sort_values(["anchor", "kind", "cos", "cand"],
                          ascending=[True, True, False, True], kind="mergesort")
        best = s.groupby(["anchor", "kind"], sort=False).head(1)
        p = best[best["kind"] == "p"].set_index("anchor")
        n = best[best["kind"] == "n"].set_index("anchor")
        j = p.join(n, how="inner", lsuffix="_p", rsuffix="_n").reset_index()
        return pd.DataFrame(
            {"anchor": j["anchor"].astype("int64"),
             "pos_id": j["cand_p"].astype("int64"),
             "pos_cos": j["cos_p"].astype("float64"),
             "neg_id": j["cand_n"].astype("int64"),
             "neg_cos": j["cos_n"].astype("float64")}
        )

    return bucketed_group_map(partials, ["anchor"], fold, num_buckets=8)
