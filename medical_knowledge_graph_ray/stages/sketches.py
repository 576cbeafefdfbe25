"""Mergeable cardinality sketches: HyperLogLog over Dataset columns.

Exact COUNT(DISTINCT) needs every distinct value to cross an exchange
(the engine's `token_histogram` path); at 100 TB the distinct set itself
can be the biggest intermediate.  HyperLogLog replaces it with a
fixed-size register array that merges with an elementwise max — the
canonical sketch shape for Ray Data:

* per batch: deterministic vectorized 64-bit hashes
  (``functions/hashing.py:row_hash`` — stable across processes, the same
  primitive the engine's bucketed exchange relies on, and a function of
  the value even for strings holding a NUL; never Python's salted
  ``hash``), register update via ``np.maximum.at``;
* per dataset: registers travel as ONE small row per batch; the reduce
  is an elementwise max — associative and commutative, so the estimate
  is IDENTICAL at any parallelism / batch split (tested);
* estimator: the bias-corrected harmonic mean with the standard
  small-range linear-counting correction.

Registers are 2^P bytes (P=14 → 16 KiB, ~0.8% relative error); the
exchange is O(#batches) rows of 16 KiB regardless of data size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.hashing import row_hash

P = 14                      # 2^14 = 16384 registers
M = 1 << P
_ALPHA = 0.7213 / (1 + 1.079 / M)


def _clz64(v: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros for uint64 (branchless shifts)."""
    v = v.copy()
    lz = np.zeros(v.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        cond = v < (np.uint64(1) << np.uint64(64 - s))
        lz[cond] += s
        v[cond] = v[cond] << np.uint64(s)
    lz[v == 0] = 64  # all-zero input (loop leaves 63)
    return lz


def hll_regs_from_hashes(h: np.ndarray) -> np.ndarray:
    """Register array from precomputed uint64 hashes (the reusable core:
    multi-column candidates hash a row tuple once via ``row_hash(frame)``
    and feed the array here)."""
    regs = np.zeros(M, dtype=np.uint8)
    if len(h):
        idx = (h >> np.uint64(64 - P)).astype(np.int64)
        rest = h << np.uint64(P)
        rank = (np.minimum(_clz64(rest), 64 - P) + 1).astype(np.uint8)
        np.maximum.at(regs, idx, rank)
    return regs


def hll_partial_batch(batch: pd.DataFrame, col: str) -> pd.DataFrame:
    """One sketch row per batch: registers as a 16 KiB bytes payload."""
    return pd.DataFrame({"regs": [hll_regs_from_hashes(row_hash(batch[col])).tobytes()]})


def hll_merge(frames: pd.DataFrame) -> np.ndarray:
    regs = np.zeros(M, dtype=np.uint8)
    for payload in frames["regs"]:
        regs = np.maximum(regs, np.frombuffer(payload, dtype=np.uint8))
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    inv = np.ldexp(1.0, -regs.astype(np.int64))
    raw = _ALPHA * M * M / inv.sum()
    zeros = int((regs == 0).sum())
    if raw <= 2.5 * M and zeros:
        return M * np.log(M / zeros)      # linear counting, small range
    return raw


def approx_distinct(ds, col: str) -> pd.DataFrame:
    """Dataset → one-row DataFrame (column, approx_distinct int64).

    The partial sketches stream; only #batches 16 KiB rows reach the
    driver, which folds them with an elementwise max."""
    partials = ds.map_batches(
        lambda b: hll_partial_batch(b, col), batch_format="pandas"
    ).to_pandas()
    est = hll_estimate(hll_merge(partials))
    return pd.DataFrame(
        {"column": [col], "approx_distinct": np.asarray([round(est)], np.int64)}
    )


def hll_grouped_partial(batch: pd.DataFrame, key: str, col: str):
    """One sketch row per (batch, group): groupwise register payloads.

    Returns an Arrow table with an EXPLICIT schema: the key column always
    carries the incoming key dtype (``batch[key].dtype`` is available on
    zero-row frames) and ``regs`` is ``pa.binary()`` even when empty — an
    empty object column would otherwise infer Arrow null type and clash
    with populated blocks at the shuffle."""
    import pyarrow as pa

    keys, payloads = [], []
    if len(batch):
        for k, sub in batch.groupby(key, sort=False):
            keys.append(k)
            payloads.append(hll_partial_batch(sub, col)["regs"].iloc[0])
    dt = batch[key].dtype
    if keys:
        key_arr = pa.Array.from_pandas(pd.Series(keys, dtype=dt))
    else:
        # explicit Arrow type for the typed-empty case (object → string,
        # the engine's convention for string keys)
        key_type = pa.string() if dt == object else pa.from_numpy_dtype(dt)
        key_arr = pa.array([], key_type)
    return pa.table({key: key_arr, "regs": pa.array(payloads, pa.binary())})


def approx_distinct_by(ds, key: str, col: str) -> pd.DataFrame:
    """Grouped HLL: Dataset of (key, approx_distinct) — approx distinct
    ``col`` per ``key`` group.

    Partial sketches per (batch, group) → one bucketed exchange of
    16 KiB rows → per-group register max + estimate.  The exchange is
    O(#batches · #groups-per-batch) sketch rows — never the value set."""
    import numpy as np

    from .shuffle import bucketed_group_map

    partials = ds.map_batches(
        lambda b: hll_grouped_partial(b, key, col), batch_format="pandas"
    )

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, sub in g.groupby(key, sort=False):
            est = hll_estimate(hll_merge(sub))
            rows.append((k, round(est)))
        return pd.DataFrame(
            {key: [r[0] for r in rows],
             "approx_distinct": np.asarray([r[1] for r in rows], np.int64)}
        )

    out = bucketed_group_map(partials, [key], reduce, num_buckets=8)
    return out


# -- Count-Min sketch (frequency estimation; heavy-hitter prefilter) ----------

CM_W = 2048  # counters per row
CM_D = 4     # rows (independent hashes)


def _cm_positions(tokens) -> "np.ndarray":
    """(n, CM_D) counter indices: one vectorized md5 per token, then
    double-hashed row probes (same construction as stages/bloom.py)."""
    import numpy as np

    from ..functions.hashing import md5_int_vec

    h1 = md5_int_vec(tokens, bits=64)
    # splitmix-style second stride derived from the md5 (odd → full period)
    z = (h1 ^ (h1 >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h2 = (z ^ (z >> np.uint64(27))) | np.uint64(1)
    r = np.arange(CM_D, dtype=np.uint64)[None, :]
    return ((h1[:, None] + r * h2[:, None]) % np.uint64(CM_W)).astype(np.int64)


def cm_add(counts: "pd.Series") -> "np.ndarray":
    """(CM_D, CM_W) int64 sketch of token→count (LINEAR: sketches of
    partitions sum to the sketch of the union)."""
    import numpy as np

    cm = np.zeros((CM_D, CM_W), dtype=np.int64)
    if not len(counts):
        return cm
    pos = _cm_positions(list(counts.index))
    c = counts.to_numpy("int64")
    for r in range(CM_D):
        np.add.at(cm[r], pos[:, r], c)
    return cm


def cm_estimate(cm: "np.ndarray", tokens) -> "np.ndarray":
    """Point estimates (min over rows) — NEVER underestimates."""
    import numpy as np

    if not len(tokens):
        return np.empty(0, dtype=np.int64)
    pos = _cm_positions(list(tokens))
    ests = np.stack([cm[r][pos[:, r]] for r in range(CM_D)], axis=1)
    return ests.min(axis=1)


# -- KMV / theta sketch (distinct + SET-OPERATION estimation) ------------------

KMV_K = 1024  # retained minimum hashes; rel. error ≈ 1/√(k−2) ≈ 3.1 %


def _kmv_hash(values) -> "np.ndarray":
    """Content-stable 64-bit hashes (md5 — platform/session independent,
    unlike pandas' object-hashing fallback paths),
    sorted distinct."""
    from ..functions.hashing import md5_int_vec

    s = pd.Series(values).astype(str).to_numpy()
    return np.unique(md5_int_vec(s, bits=64))


def kmv_partial_batch(batch: pd.DataFrame, col: str, k: int = KMV_K
                      ) -> pd.DataFrame:
    """One sketch row per batch: the k smallest distinct hashes as an
    8·k-byte payload.  Mergeable EXACTLY: bottom-k(A ∪ B) =
    bottom-k(bottom-k(A) ∪ bottom-k(B)) — so any partial/merge tree
    yields the identical sketch (parallelism-invariant by construction,
    unlike probabilistic-register sketches)."""
    u = _kmv_hash(batch[col]) if len(batch) else np.empty(0, np.uint64)
    return pd.DataFrame({"kmv": [u[:k].tobytes()]})


def kmv_merge(payloads, k: int = KMV_K) -> "np.ndarray":
    parts = [np.frombuffer(p, dtype=np.uint64) for p in payloads]
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.concatenate(parts))[:k]


def kmv_estimate(sk: "np.ndarray", k: int = KMV_K) -> float:
    """(k−1)/θ estimator (Bar-Yossef et al. 2002); EXACT below k."""
    if len(sk) < k:
        return float(len(sk))
    theta = (float(sk[k - 1]) + 1.0) / 18446744073709551616.0
    return (k - 1) / theta


def kmv_intersect_estimate(a: "np.ndarray", b: "np.ndarray",
                           k: int = KMV_K) -> float:
    """Theta-sketch intersection estimate |A ∩ B| ≈ |common below θ|/θ
    with θ = min(θ_A, θ_B) — the set-operation capability HLL lacks
    (union-only registers); EXACT when both sides are below k."""
    if len(a) < k and len(b) < k:
        return float(len(np.intersect1d(a, b)))
    th_a = (float(a[k - 1]) + 1.0) / 18446744073709551616.0 \
        if len(a) >= k else 1.0
    th_b = (float(b[k - 1]) + 1.0) / 18446744073709551616.0 \
        if len(b) >= k else 1.0
    theta = min(th_a, th_b)
    cut = np.uint64(round(theta * 18446744073709551616.0)) \
        if theta < 1.0 else None
    aa = a if cut is None else a[a < cut]
    bb = b if cut is None else b[b < cut]
    return len(np.intersect1d(aa, bb)) / theta


def kmv_grouped_partial(batch: pd.DataFrame, key: str, col: str,
                        k: int = KMV_K):
    """One sketch row per (batch, group) — the `hll_grouped_partial`
    layout with KMV payloads."""
    import pyarrow as pa

    keys, payloads = [], []
    if len(batch):
        for g, sub in batch.groupby(key, sort=False):
            keys.append(g)
            payloads.append(kmv_partial_batch(sub, col, k)["kmv"].iloc[0])
    dt = batch[key].dtype
    if keys:
        key_arr = pa.Array.from_pandas(pd.Series(keys, dtype=dt))
    else:
        key_type = pa.string() if dt == object else pa.from_numpy_dtype(dt)
        key_arr = pa.array([], key_type)
    return pa.table({key: key_arr, "kmv": pa.array(payloads, pa.binary())})


def kmv_distinct_by(ds, key: str, col: str, k: int = KMV_K) -> dict:
    """Grouped KMV: driver-side dict key → merged sketch array (callers
    estimate distincts AND pairwise intersections from the same pass).
    The exchange is O(#batches · #groups-per-batch) 8k-byte rows."""
    from .shuffle import bucketed_group_map

    partials = ds.map_batches(
        lambda b: kmv_grouped_partial(b, key, col, k), batch_format="pandas"
    )

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kk, sub in g.groupby(key, sort=False):
            rows.append((kk, kmv_merge(sub["kmv"], k).tobytes()))
        return pd.DataFrame({key: [r[0] for r in rows],
                             "kmv": [r[1] for r in rows]})

    out = bucketed_group_map(partials, [key], reduce, num_buckets=8
                             ).to_pandas()
    if key not in out.columns:
        return {}
    return {r[key]: np.frombuffer(r["kmv"], dtype=np.uint64)
            for _, r in out.iterrows()}
