"""Document-table pipelines: text stats, language-ID, fingerprints,
quality, exact dedup, near-dup, similarity search.  SQL oracles alongside.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.arrow import arrow_out, read_parquet_clean
from ..ontology import EN_STOPWORDS
from ..stages.dedup import (
    fingerprint_cluster_partial,
    minhash_dedup_pairs,
    ngram_jaccard_group,
    simhash_batch,
)
from ..stages.shuffle import exchange, fold_groups, group_frame, with_bucket
from ..stages.text_stats import (
    doc_stats_batch,
    fingerprint_batch,
    lang_id_batch,
    quality_score_batch,
)


def _docs(sf_dir: str, columns=None):
    import ray.data as rd

    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


def docs_stats(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        doc_stats_batch, batch_format="pandas"
    )


_STOP_SQL = ", ".join(f"'{w}'" for w in sorted(EN_STOPWORDS))

STATS_SQL = f"""
SELECT doc_id, n_tokens, n_chars_actual, n_stopwords,
       CAST(n_stopwords AS DOUBLE)/n_tokens AS stopword_ratio,
       CAST(n_chars_actual - (n_tokens - 1) AS DOUBLE)/n_tokens AS avg_token_len
FROM (
  SELECT doc_id,
         len(string_split(text, ' ')) AS n_tokens,
         length(text) AS n_chars_actual,
         len(list_filter(string_split(text, ' '), t -> t IN ({_STOP_SQL}))) AS n_stopwords
  FROM documents
)
"""


def docs_bpe_tokens(sf_dir: str):
    """Whitespace vs BPE-ish-regex token counts per doc (LM budget
    estimator — see ``stages/text_stats.py:bpe_token_count_batch``)."""
    from ..stages.text_stats import bpe_token_count_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        bpe_token_count_batch, batch_format="pandas"
    )


def _bpe_tokens_sql() -> str:
    from ..stages.text_stats import BPE_TOKEN_PATTERN

    pat = BPE_TOKEN_PATTERN.replace("'", "''")
    return f"""
SELECT doc_id,
       CAST(len(string_split(text, ' ')) AS BIGINT) AS n_ws_tokens,
       CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_bpe_tokens
FROM documents
"""


BPE_TOKENS_SQL = _bpe_tokens_sql()


def docs_langid(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "lang", "text"]).map_batches(
        lang_id_batch, batch_format="pandas"
    )


LANGID_SQL = f"""
SELECT doc_id, lang AS lang_declared, stopword_ratio,
       CASE WHEN stopword_ratio >= 0.05 THEN 'en' ELSE 'other' END AS lang_pred
FROM (
  SELECT doc_id, lang,
         CAST(len(list_filter(string_split(text, ' '), t -> t IN ({_STOP_SQL}))) AS DOUBLE)
           / len(string_split(text, ' ')) AS stopword_ratio
  FROM documents
)
"""


def docs_fingerprint(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pandas"
    )


FINGERPRINT_SQL = "SELECT doc_id, md5(text) AS fp FROM documents"


def docs_quality(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        quality_score_batch, batch_format="pandas"
    )


QUALITY_SQL = """
SELECT doc_id, n_tokens, n_distinct,
       (LEAST(n_tokens, 200)/200.0) * (CAST(n_distinct AS DOUBLE)/n_tokens) AS quality
FROM (
  SELECT doc_id, len(string_split(text, ' ')) AS n_tokens,
         len(list_distinct(string_split(text, ' '))) AS n_distinct
  FROM documents
)
"""


def dedup_exact(sf_dir: str):
    """md5 cluster table: two-phase (batch combiner → coarse-bucket final)."""
    from ..stages.shuffle import bucketed_group_map

    fps = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(fingerprint_cluster_partial), batch_format="pandas"
    )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("fp", sort=False)
            .agg(canonical_id=("canonical_id", "min"), cluster_size=("cluster_size", "sum"))
            .reset_index()
        )

    return bucketed_group_map(fps, ["fp"], combine, num_buckets=32)


DEDUP_EXACT_SQL = """
SELECT md5(text) AS fp, MIN(doc_id) AS canonical_id, COUNT(*) AS cluster_size
FROM documents GROUP BY md5(text)
"""


def docs_minhash_pairs(sf_dir: str, threshold: float = 0.5):
    return minhash_dedup_pairs(_docs(sf_dir, ["doc_id", "text"]), threshold)


def docs_simhash(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        simhash_batch, batch_format="pandas"
    )


def docs_simhash_neardup(sf_dir: str, max_hamming: int = 3):
    """SimHash banded-Hamming near-dup pairs (exact <= radius 3 by
    pigeonhole; bit-exact SQL oracle via bit_count(xor(...)))."""
    from ..stages.dedup import simhash_neardup_pairs

    return simhash_neardup_pairs(_docs(sf_dir, ["doc_id", "text"]), max_hamming)


SIMHASH_NEARDUP_SQL_TEMPLATE = """
WITH sims AS ({simhash_sql})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS INT) AS hamming
FROM sims a JOIN sims b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""


def simhash_neardup_sql() -> str:
    return SIMHASH_NEARDUP_SQL_TEMPLATE.format(simhash_sql=SIMHASH_SQL)


def docs_minhash_verified(sf_dir: str, threshold: float = 0.5):
    """Scale-correct dedup chain: LSH candidates -> exact Jaccard verify
    (stages/dedup.py:minhash_verified_pairs)."""
    from ..stages.dedup import minhash_verified_pairs

    return minhash_verified_pairs(_docs(sf_dir, ["doc_id", "text"]), threshold)


def docs_ngram_jaccard(sf_dir: str, threshold: float = 0.3):
    """Exact n-gram Jaccard pairs within same-source candidate groups
    (SQL-oracle-able form — candidate groups = `source`).  At corpus
    scale the candidate generator is MinHash-LSH, not a metadata column:
    see `docs_minhash_verified` / `stages/dedup.py:minhash_verified_pairs`
    for the shipped LSH→exact-verify composition."""
    docs = _docs(sf_dir, ["doc_id", "source", "text"])
    return docs.groupby("source").map_groups(
        lambda g: ngram_jaccard_group(g, threshold), batch_format="pandas"
    )


# -- embeddings ---------------------------------------------------------------

def _embeddings(sf_dir: str):
    import ray.data as rd

    return read_parquet_clean(f"{sf_dir}/embeddings.parquet")


def _query_vec(sf_dir: str):
    """One query vector — predicate pushed into the read (row-group prune +
    filter), never a full-table scan."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", 0)],
    )
    return t["embedding"].to_pylist()[0]


def knn_cosine_q0(sf_dir: str, k: int = 10):
    """Top-k cosine neighbors of vec_id 0 (brute-force baseline)."""
    from ..stages.similarity import knn_cosine

    return knn_cosine(_embeddings(sf_dir), _query_vec(sf_dir), k)


KNN_SQL = """
SELECT vec_id,
       round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
             (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)), 6) AS sim
FROM embeddings
ORDER BY sim DESC, vec_id
LIMIT 10
"""


def embed_norms(sf_dir: str):
    """Per-label vector-count and average L2 norm (6-dp-stable)."""
    import numpy as np

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        norm_u = np.zeros(len(b), dtype="int64")
        if len(b):
            mat = np.stack([np.asarray(v, dtype=np.float64) for v in b["embedding"]])
            norm_u = np.rint(
                np.round(np.linalg.norm(mat, axis=1), 6) * 1_000_000
            ).astype("int64")
        return pd.DataFrame({"label": b["label"], "n_vecs": 1, "norm_u": norm_u})

    agg = fold_groups(  # ≤ |labels| rows
        _embeddings(sf_dir).map_batches(arrow_out(partial), batch_format="pandas"),
        ["label"], [("n_vecs", "sum"), ("norm_u", "sum")])
    return pd.DataFrame(
        {
            # the fold widens int32 keys to int64; the oracle keeps the
            # parquet int32 — retype to match the driver's dtype-strict
            # compare
            "label": agg["label"].astype("int32"),
            "n_vecs": agg["n_vecs"],
            "avg_norm": agg["norm_u"] / 1_000_000.0 / agg["n_vecs"],
        }
    )


EMBED_NORMS_SQL = """
SELECT label, COUNT(*) AS n_vecs,
       SUM(CAST(round(round(sqrt(list_sum(list_transform(CAST(embedding AS DOUBLE[]),
           x -> x*x))), 6) * 1000000) AS BIGINT))/1000000.0/COUNT(*) AS avg_norm
FROM embeddings GROUP BY label
"""


# -- distributed spherical k-means (semantic bucketing) ------------------------

KMEANS_K = 10
KMEANS_ITERS = 8


def embed_pca(sf_dir: str) -> pd.DataFrame:
    """Distributed PCA over the embeddings table
    (``stages/clustering.py:pca_fit``): top-4 components as a tall
    (component, dim, loading, eigval, evr_bp) frame.  No SQL oracle for
    an eigendecomposition — the pytest gates pin (a) bit-identical
    output at any parallelism (exact int64 sufficient statistics) and
    (b) exact equality with a dense single-machine PCA on the same
    quantized data."""
    from ..stages.clustering import pca_fit

    return pca_fit(_embeddings(sf_dir), n_components=4)


DBSCAN_EPS_COS = 0.30
DBSCAN_MIN_PTS = 4


def embed_dbscan(sf_dir: str) -> pd.DataFrame:
    """Density clustering (DBSCAN) over the embeddings table —
    (vec_id, cluster, is_core), noise −1 (`stages/clustering.py:dbscan`:
    exact eps-neighbor self-join → degree census → core-core components
    → deterministic min-label border attach).  Rows-only (density
    clustering has no SQL oracle); pinned ≡ the brute-force dense
    reference and parallelism-invariant in tests/test_clustering.py."""
    from ..stages.clustering import dbscan

    return dbscan(_embeddings(sf_dir), eps_cos=DBSCAN_EPS_COS,
                  min_pts=DBSCAN_MIN_PTS)


def embed_kmeans(sf_dir: str) -> pd.DataFrame:
    """Cluster census from distributed spherical k-means over the
    embeddings table (`stages/clustering.py`): per cluster its size and
    mean cosine-to-centroid.  No SQL oracle exists for an iterative fit —
    the pytest gates pin (a) bit-identical centroids at any parallelism
    (exact int64 fixed-point partials), (b) distributed ≡ dense driver
    path, and (c) recovery of the testdata's planted label structure."""

    from ..stages.clustering import FP_SCALE, kmeans_assign, kmeans_fit

    emb = _embeddings(sf_dir)
    cent = kmeans_fit(emb, k=KMEANS_K, iters=KMEANS_ITERS)
    assigned = kmeans_assign(_embeddings(sf_dir), cent)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"cluster": b["cluster"], "n": 1,
                             "sim_ppm": b["sim_ppm"]})

    agg = fold_groups(  # ≤ k rows
        assigned.map_batches(arrow_out(partial), batch_format="pandas"),
        ["cluster"], [("n", "sum"), ("sim_ppm", "sum")])
    return pd.DataFrame(
        {
            "cluster": agg["cluster"].astype("int32"),
            "n": agg["n"].astype("int64"),
            "avg_sim": (agg["sim_ppm"] / FP_SCALE / agg["n"]).round(6),
        }
    ).sort_values("cluster").reset_index(drop=True)


# -- token histogram (A2/A5 prefix/census analogue) ---------------------------

def token_histogram(sf_dir: str):
    """token → (n_docs, n_occ) over documents: fused explode+combiner →
    coarse-bucket final (the A5 distinct-surface census, distributed).

    Explode and partial-count run in ONE batch function so a document's
    tokens can never be split across combiner batches — per-batch
    ``nunique(doc_id)`` then sums to the exact distinct-doc count."""
    from ..stages.shuffle import bucketed_group_map
    from ..stages.text_stats import token_explode_batch

    def explode_and_count(b: pd.DataFrame) -> pd.DataFrame:
        toks = token_explode_batch(b).to_pandas()
        return (
            toks.groupby("token", sort=False)
            .agg(n_docs=("doc_id", "nunique"), n_occ=("doc_id", "size"))
            .reset_index()
        )

    partials = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(explode_and_count), batch_format="pandas"
    )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("token", sort=False)
            .agg(n_docs=("n_docs", "sum"), n_occ=("n_occ", "sum"))
            .reset_index()
        )

    return bucketed_group_map(partials, ["token"], combine, num_buckets=32)


TOKEN_HISTOGRAM_SQL = """
SELECT token, COUNT(DISTINCT doc_id) AS n_docs, COUNT(*) AS n_occ
FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents)
GROUP BY token
"""


# -- deterministic train/val/test split (R6, content-stable) ------------------

def docs_split(sf_dir: str):
    """doc_id → split by md5 hash-mod (1/80 val, 1/90 test, rest train) —
    the content-stable replacement for the reference's positional
    i%80/i%90 split (generation.py:446-455)."""
    import numpy as np

    from ..functions.hashing import md5_int_vec_prefixed

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        h = md5_int_vec_prefixed("split", b["doc_id"].to_numpy(), bits=32)
        split = np.where(h % 80 == 0, "val",
                         np.where(h % 90 == 0, "test", "train"))
        return pd.DataFrame({"doc_id": b["doc_id"], "split": split})

    return _docs(sf_dir, ["doc_id"]).map_batches(assign, batch_format="pandas")


DOCS_SPLIT_SQL = """
SELECT doc_id,
       CASE WHEN h % 80 = 0 THEN 'val'
            WHEN h % 90 = 0 THEN 'test'
            ELSE 'train' END AS split
FROM (SELECT doc_id,
             ('0x' || substr(md5('split|' || CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT AS h
      FROM documents)
"""


# -- corpus curation: the composed training-data filter chain ----------------

CURATION_MIN_QUALITY = 0.10


def _curation_gate(b: pd.DataFrame, min_quality: float) -> pd.DataFrame:
    """Shared language/quality gate (ONE definition — `docs_curation` and
    `docs_curation_neardup` must stay in lockstep with their oracles):
    stopword-ratio language check + length×distinctness quality score.
    Returns the surviving (doc_id, text, n_tokens, quality) rows."""
    import numpy as np

    texts = b["text"].astype(str).tolist()
    toks = [t.split(" ") for t in texts]
    n_tokens = np.array([len(t) for t in toks], dtype=np.int64)
    stop = np.array(
        [sum(1 for w in t if w in EN_STOPWORDS) for t in toks], dtype=np.int64
    )
    n_distinct = np.array([len(set(t)) for t in toks], dtype=np.int64)
    ratio = stop / n_tokens
    quality = np.round(
        np.minimum(n_tokens, 200) / 200.0 * (n_distinct / n_tokens), 6
    )
    keep = (ratio >= 0.05) & (quality >= min_quality)
    return pd.DataFrame(
        {
            "doc_id": pd.array(b["doc_id"].to_numpy()[keep], "int64"),
            "text": pd.array([t for t, k in zip(texts, keep) if k], "str"),
            "n_tokens": pd.array(n_tokens[keep], "int64"),
            "quality": pd.array(quality[keep], "float64"),
        }
    )


def docs_curation(sf_dir: str, min_quality: float = CURATION_MIN_QUALITY):
    """The end-to-end training-corpus curation chain every large pipeline
    runs before training: language gate (predicted en) → quality gate →
    exact dedup keeping the canonical (min doc_id) copy.  One streaming
    pass computes langid + quality + fingerprint per batch; one bucketed
    exchange resolves canonical-per-fingerprint.  Output: the surviving
    (doc_id, n_tokens, quality) rows."""
    import hashlib

    from ..stages.shuffle import bucketed_group_map

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        g = _curation_gate(b, min_quality)
        g["fp"] = pd.array(
            [hashlib.md5(t.encode()).hexdigest() for t in g["text"]], "str"
        )
        return g[["doc_id", "fp", "n_tokens", "quality"]]

    gated = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(gate), batch_format="pandas"
    )

    def keep_canonical(g: pd.DataFrame) -> pd.DataFrame:
        idx = g.groupby("fp", sort=False)["doc_id"].idxmin()
        return g.loc[idx, ["doc_id", "n_tokens", "quality"]]

    return bucketed_group_map(gated, ["fp"], keep_canonical, num_buckets=16)


CURATION_SQL = f"""
WITH scored AS (
  SELECT doc_id, md5(text) AS fp,
         len(string_split(text, ' ')) AS n_tokens,
         round((LEAST(len(string_split(text, ' ')), 200)/200.0)
               * (CAST(len(list_distinct(string_split(text, ' '))) AS DOUBLE)
                  / len(string_split(text, ' '))), 6) AS quality,
         CAST(len(list_filter(string_split(text, ' '), t -> t IN ({_STOP_SQL})))
              AS DOUBLE) / len(string_split(text, ' ')) AS stop_ratio
  FROM documents
), gated AS (
  SELECT * FROM scored WHERE stop_ratio >= 0.05 AND quality >= {CURATION_MIN_QUALITY}
)
SELECT doc_id, n_tokens, quality FROM gated
WHERE doc_id = (SELECT MIN(doc_id) FROM gated g2 WHERE g2.fp = gated.fp)
"""


# -- R5 deterministic sampling ------------------------------------------------

def docs_sample(sf_dir: str):
    """Content-stable 1-in-20 sample (R5): the order-independent
    replacement for the reference's positional ``np.random.choice``
    (``multi_source_ner.py:854-858``) — same stable-hash idiom as the R6
    split, so the sample is identical at any parallelism."""
    from ..functions.hashing import md5_int_vec_prefixed

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        mask = (
            md5_int_vec_prefixed("sample", b["doc_id"].to_numpy(), bits=32)
            % 20 == 0
        )
        return b.loc[mask, ["doc_id", "source", "n_chars"]]

    return _docs(sf_dir, ["doc_id", "source", "n_chars"]).map_batches(
        keep, batch_format="pandas"
    )


DOCS_SAMPLE_SQL = """
SELECT doc_id, source, n_chars FROM documents
WHERE ('0x' || substr(md5('sample|' || CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 20 = 0
"""


# -- A1 first-non-null group-merge --------------------------------------------

def docs_first_nonnull(sf_dir: str):
    """A1 (``structurize_files.py:662-681``): per source, per value column
    INDEPENDENTLY, the first non-null value in doc_id order.  Nulls are
    synthesized deterministically (n_chars hidden unless divisible by
    2 / by 3) so different rows donate different columns, which is the
    semantics that distinguishes first-non-null from plain first."""
    from ..stages.shuffle import first_non_null_agg

    def nullify(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_chars"]
        return pd.DataFrame(
            {
                "source": b["source"],
                "doc_id": b["doc_id"],
                "first_even": n.where(n % 2 == 0).astype("Int64"),
                "first_mod3": n.where(n % 3 == 0).astype("Int64"),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "source", "n_chars"]).map_batches(
        arrow_out(nullify), batch_format="pandas"
    )
    agg = first_non_null_agg(
        ds, ["source"], "doc_id", ["first_even", "first_mod3"]
    )

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        for c in ("first_even", "first_mod3"):
            out[c] = out[c].astype("int64")  # every source has both parities
        return out

    return agg.map_batches(arrow_out(finalize), batch_format="pandas")


DOCS_FIRST_NONNULL_SQL = """
SELECT source,
       FIRST(CASE WHEN n_chars % 2 = 0 THEN n_chars END ORDER BY doc_id)
         FILTER (WHERE n_chars % 2 = 0) AS first_even,
       FIRST(CASE WHEN n_chars % 3 = 0 THEN n_chars END ORDER BY doc_id)
         FILTER (WHERE n_chars % 3 = 0) AS first_mod3
FROM documents GROUP BY source
"""


# -- SQL oracles for the near-dup family --------------------------------------
# (minhash stays rows-only: its universal hashing relies on uint64
# wraparound multiplication, which SQL integer arithmetic cannot express)

NGRAM_JACCARD_SQL = """
WITH toks AS (
  SELECT doc_id, source,
         unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
), tri AS (
  SELECT DISTINCT doc_id, source,
         tok || ' ' || lead(tok, 1) OVER w || ' ' || lead(tok, 2) OVER w AS sh
  FROM toks
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
  QUALIFY lead(tok, 2) OVER w IS NOT NULL
), sizes AS (
  SELECT doc_id, COUNT(*) AS n FROM tri GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS ix
  FROM tri a JOIN tri b ON a.sh = b.sh AND a.source = b.source AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT doc_a, doc_b,
       CAST(ix AS DOUBLE) / (sa.n + sb.n - ix) AS jaccard
FROM inter JOIN sizes sa ON sa.doc_id = doc_a JOIN sizes sb ON sb.doc_id = doc_b
WHERE CAST(ix AS DOUBLE) / (sa.n + sb.n - ix) >= 0.3
"""

_SIMHASH_BITS = " + ".join(
    f"CASE WHEN SUM(CASE WHEN (h >> {b}) & 1 = 1 THEN 1 ELSE -1 END) > 0 "
    f"THEN CAST({1 << b} AS UBIGINT) ELSE CAST(0 AS UBIGINT) END"
    for b in range(64)
)

SIMHASH_SQL = f"""
WITH toks AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), hashed AS (
  SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h FROM toks
)
SELECT doc_id, {_SIMHASH_BITS} AS simhash FROM hashed GROUP BY doc_id
"""


# -- embedding-cosine near-duplicate pairs ------------------------------------

NEARDUP_COS_THRESHOLD = 0.4  # testdata embeddings are weakly clustered (max pairwise cos ≈ 0.51)


def embed_neardup_pairs(sf_dir: str, threshold: float = NEARDUP_COS_THRESHOLD):
    """All vector pairs with cosine ≥ threshold (embedding-based near-dup).

    SHIPPED form: the exact distributed chunk-pair self-join
    (``stages/similarity.py:neardup_pairs_chunked``) — bounded worker
    memory, no driver-side table read, no full-matrix broadcast, 100%
    recall by construction (see its docstring for why LSH/IVF bucketing
    cannot meet the recall bar at this threshold on this data)."""
    from ..stages.similarity import neardup_pairs_chunked

    return neardup_pairs_chunked(
        _embeddings(sf_dir).select_columns(["vec_id", "embedding"]), threshold
    )


def embed_neardup_pairs_broadcast(sf_dir: str, threshold: float = NEARDUP_COS_THRESHOLD):
    """Test-only baseline: broadcast the full unit matrix and scan batches
    against it.  O(N) worker memory + driver-side full read — the shape
    the shipped chunk-pair join is asserted exactly equal to in
    ``tests/test_operators.py``.  NOT a ``queries()`` entry."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    all_ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.stack([np.asarray(v, np.float64) for v in t["embedding"].to_pylist()])
    norms = np.linalg.norm(mat, axis=1)
    ref = ray.put((all_ids, mat / np.where(norms == 0, 1.0, norms)[:, None]))

    class PairFinder:
        def __init__(self):
            self.side = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            import numpy as np

            if self.side is None:
                self.side = ray.get(ref)
            ids_b, unit_b = self.side
            m = np.stack([np.asarray(v, np.float64) for v in b["embedding"]])
            n = np.linalg.norm(m, axis=1)
            sims = (m / np.where(n == 0, 1.0, n)[:, None]) @ unit_b.T
            sims = np.round(sims, 6)
            ids_a = b["vec_id"].to_numpy()
            ai, bi = np.nonzero(
                (sims >= threshold) & (ids_a[:, None] < ids_b[None, :])
            )
            return pd.DataFrame(
                {
                    "vec_a": pd.array(ids_a[ai], dtype="int64"),
                    "vec_b": pd.array(ids_b[bi], dtype="int64"),
                    "cos_sim": pd.array(sims[ai, bi], dtype="float64"),
                }
            )

    return _embeddings(sf_dir).map_batches(
        arrow_out(PairFinder()), batch_format="pandas", batch_size=1024
    )


EMBED_NEARDUP_SQL = f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cos_sim
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                   CAST(b.embedding AS DOUBLE[])), 6) >= {NEARDUP_COS_THRESHOLD}
"""


def docs_dedup_components(sf_dir: str, max_hamming: int = 3):
    """Near-dup CLUSTERS (not just pairs): SimHash banded pairs →
    distributed min-label connected components.  component_id = min
    doc_id of the transitive group — the canonical representative a
    keep-one-per-cluster dedup would retain.  Isolated docs are omitted
    (trivially their own cluster), keeping the output O(clustered docs)."""
    from ..stages.components import connected_components
    from ..stages.dedup import simhash_neardup_pairs

    pairs = simhash_neardup_pairs(_docs(sf_dir, ["doc_id", "text"]), max_hamming)
    comp = connected_components(pairs, "doc_a", "doc_b")

    def rename(b):
        return b.rename(columns={"node": "doc_id"})

    from ..functions.arrow import arrow_out

    return comp.map_batches(arrow_out(rename), batch_format="pandas")


DEDUP_COMPONENTS_SQL_TEMPLATE = """
WITH RECURSIVE pairs AS ({pairs_sql}),
edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM pairs
  UNION SELECT doc_b, doc_a FROM pairs
),
reach(node, r) AS (
  SELECT src AS node, src AS r FROM edges
  UNION
  SELECT e.src AS node, r.r FROM edges e JOIN reach r ON e.dst = r.node
)
SELECT node AS doc_id, min(r) AS component_id FROM reach GROUP BY node
"""


def dedup_components_sql() -> str:
    return DEDUP_COMPONENTS_SQL_TEMPLATE.format(
        pairs_sql=simhash_neardup_sql()
    )


def docs_tfidf_top(sf_dir: str, k: int = 5):
    """Top-k TF-IDF terms per document — the canonical composed text-
    analytics pipeline: per-doc term counts (fused explode+count, a doc
    never splits across batches) ⋈ corpus document-frequency census on
    the token key (partitioned hash join — the vocabulary is corpus-sized
    at scale, never a broadcast), then the grouped top-N combiner.
    idf = ln(N/df) rounded to 6 dp on both sides (engine float contract).

    Streaming throughout: tf is never materialized, so nothing
    corpus-sized pins the object store; the lazy tf plan re-executes for
    each of its two consumers (df census + join probe), i.e. the corpus
    text is tokenized twice."""
    import numpy as np
    import pyarrow as pa

    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_group_map, grouped_topn
    from ..stages.text_stats import token_explode_batch

    docs = _docs(sf_dir, ["doc_id", "text"])
    n_total = docs.count()

    def tf_batch(b: pd.DataFrame) -> pd.DataFrame:
        toks = token_explode_batch(b).to_pandas()
        return (
            toks.groupby(["doc_id", "token"], sort=False)
            .size().rename("tf").reset_index()
        )

    # the df census derives from tf: tf rows are globally unique per
    # (doc, token), so df(token) is a plain row count — batch-split-safe
    # with no nunique
    tf = docs.map_batches(arrow_out(tf_batch), batch_format="pandas")

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("token", sort=False)
            .size().rename("df").reset_index()
        )

    df_partials = tf.map_batches(arrow_out(df_partial), batch_format="pandas")
    df_tbl = bucketed_group_map(
        df_partials, ["token"],
        lambda g: g.groupby("token", sort=False).agg(df=("df", "sum")).reset_index(),
        num_buckets=32,
    )

    TF_SCHEMA = pa.schema(
        [("doc_id", pa.int64()), ("token", pa.string()), ("tf", pa.int64())]
    )
    DF_SCHEMA = pa.schema([("token", pa.string()), ("df", pa.int64())])
    joined = hash_join(
        tf, df_tbl, on=["token"],
        left_schema=TF_SCHEMA, right_schema=DF_SCHEMA,
    )

    def score(b: pd.DataFrame) -> pd.DataFrame:
        out = b[["doc_id", "token", "tf"]].copy()
        out["tfidf"] = np.round(
            b["tf"].to_numpy() * np.log(n_total / b["df"].to_numpy()), 6
        )
        return out

    scored = joined.map_batches(arrow_out(score), batch_format="pandas")
    return grouped_topn(scored, ["doc_id"], "tfidf", k, tiebreak="token")


TFIDF_TOP_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
), tf AS (
  SELECT doc_id, token, COUNT(*) AS tf FROM toks GROUP BY doc_id, token
), df AS (
  SELECT token, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY token
), n AS (SELECT COUNT(*) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.token, tf.tf,
         round(tf.tf * ln(n.n / df.df), 6) AS tfidf
  FROM tf JOIN df USING (token) CROSS JOIN n
)
SELECT doc_id, token, tf, tfidf, CAST(rn AS BIGINT) AS rank FROM (
  SELECT *, row_number() OVER (PARTITION BY doc_id
                               ORDER BY tfidf DESC, token) AS rn
  FROM scored
) WHERE rn <= 5
"""


def tokens_approx_distinct(sf_dir: str):
    """Approximate vocabulary size via HyperLogLog (stages/sketches.py):
    the exchange is one 16 KiB register row per batch instead of the
    whole distinct token set — the sketch alternative to the exact
    `token_histogram` census.  Rows-only (approximate by design);
    accuracy (~0.8% expected, <2% asserted) and batch-split invariance
    are pytest-gated against the exact DuckDB count."""
    from ..stages.sketches import approx_distinct
    from ..stages.text_stats import token_explode_batch

    toks = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_explode_batch, batch_format="pandas"
    )
    return approx_distinct(toks, "token")


def docs_curation_neardup(sf_dir: str, min_quality: float = CURATION_MIN_QUALITY):
    """Near-dup-aware curation — the production superset of
    `docs_curation`: language gate → quality gate → SimHash banded pairs
    over the survivors → distributed connected components → keep only
    cluster canonicals (min doc_id) plus all unclustered docs.  The
    cluster filter FUSES into the final hash join (`bucket_post`), so
    after the CC label state the chain adds no extra exchange.  Exact
    dedup is subsumed: identical texts have identical simhashes
    (Hamming 0)."""
    import pyarrow as pa

    from ..stages.components import connected_components
    from ..stages.dedup import simhash_neardup_pairs
    from ..stages.joins import hash_join

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        return _curation_gate(b, min_quality)

    gated = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(gate), batch_format="pandas"
    ).materialize()  # reused by the pair miner AND the final join

    pairs = simhash_neardup_pairs(gated, 3)
    comps = connected_components(pairs, "doc_a", "doc_b")

    def comp_rename(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={"node": "doc_id", "component_id": "comp"})

    def thin(b: pd.DataFrame) -> pd.DataFrame:
        return b[["doc_id", "n_tokens", "quality"]]

    GATED = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                       ("quality", pa.float64())])
    COMPS = pa.schema([("doc_id", pa.int64()), ("comp", pa.int64())])

    def keep_canonical(m: pd.DataFrame) -> pd.DataFrame:
        ok = m["comp"].isna() | (m["comp"] == m["doc_id"])
        return m[ok][["doc_id", "n_tokens", "quality"]]

    return hash_join(
        gated.map_batches(arrow_out(thin), batch_format="pandas"),
        comps.map_batches(arrow_out(comp_rename), batch_format="pandas"),
        on=["doc_id"], how="left",
        left_schema=GATED, right_schema=COMPS,
        bucket_post=keep_canonical,
    )


CURATION_NEARDUP_SQL = f"""
WITH RECURSIVE scored AS (
  SELECT doc_id, text,
         len(string_split(text, ' ')) AS n_tokens,
         round((LEAST(len(string_split(text, ' ')), 200)/200.0)
               * (CAST(len(list_distinct(string_split(text, ' '))) AS DOUBLE)
                  / len(string_split(text, ' '))), 6) AS quality,
         CAST(len(list_filter(string_split(text, ' '), t -> t IN ({{stop_sql}})))
              AS DOUBLE) / len(string_split(text, ' ')) AS stop_ratio
  FROM documents
), gated AS (
  SELECT * FROM scored WHERE stop_ratio >= 0.05 AND quality >= {CURATION_MIN_QUALITY}
), sims AS ({{simhash_sql}}),
gsims AS (
  SELECT s.doc_id, s.simhash FROM sims s JOIN gated g USING (doc_id)
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM gsims a JOIN gsims b ON a.doc_id < b.doc_id
  WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
), edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM pairs
  UNION SELECT doc_b, doc_a FROM pairs
), reach(node, r) AS (
  SELECT src AS node, src AS r FROM edges
  UNION
  SELECT e.src AS node, r.r FROM edges e JOIN reach r ON e.dst = r.node
), comp AS (
  SELECT node AS doc_id, min(r) AS comp FROM reach GROUP BY node
)
SELECT g.doc_id, g.n_tokens, g.quality
FROM gated g LEFT JOIN comp c USING (doc_id)
WHERE c.comp IS NULL OR c.comp = g.doc_id
"""


def curation_neardup_sql() -> str:
    return CURATION_NEARDUP_SQL.format(stop_sql=_STOP_SQL, simhash_sql=SIMHASH_SQL)


CHUNK_WINDOW = 64
CHUNK_STRIDE = 48


def docs_chunk_windows(sf_dir: str):
    """Strided token-window chunking — the standard pre-tokenization
    step of an LLM training pipeline: each document explodes into
    windows of CHUNK_WINDOW tokens every CHUNK_STRIDE (trailing windows
    may be short; the simple strided form is kept so the SQL oracle is
    exactly expressible with range()+list_slice).  Pure per-doc flat-map
    — embarrassingly parallel, no exchange."""

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        doc_ids, ords, texts, ntoks = [], [], [], []
        for did, text in zip(b["doc_id"].tolist(), b["text"].astype(str).tolist()):
            toks = text.split(" ")
            n = len(toks)
            for ord_, start in enumerate(range(0, n, CHUNK_STRIDE)):
                window = toks[start:start + CHUNK_WINDOW]
                doc_ids.append(did)
                ords.append(ord_)
                texts.append(" ".join(window))
                ntoks.append(len(window))
        return pd.DataFrame(
            {
                "doc_id": pd.array(doc_ids, "int64"),
                "chunk_ord": pd.array(ords, "int64"),
                "chunk_text": pd.array(texts, "str"),
                "n_chunk_tokens": pd.array(ntoks, "int64"),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(explode), batch_format="pandas"
    )


CHUNK_WINDOWS_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), idx AS (
  SELECT doc_id, toks, n, unnest(range(0, n, {CHUNK_STRIDE})) AS start FROM t
)
SELECT doc_id,
       CAST(start / {CHUNK_STRIDE} AS BIGINT) AS chunk_ord,
       array_to_string(list_slice(toks, start + 1,
                                  LEAST(start + {CHUNK_WINDOW}, n)), ' ')
         AS chunk_text,
       LEAST({CHUNK_WINDOW}, n - start) AS n_chunk_tokens
FROM idx
"""


PACK_BUDGET = 256
PACK_GROUPS = 64


def docs_pack_sequences(sf_dir: str):
    """Deterministic sequence packing (sample packing): greedy best-fit-
    decreasing of documents into fixed token budgets, the step that
    turns a curated corpus into dense training sequences.  Packing is
    inherently sequential, so determinism at ANY parallelism comes from
    structure: each doc hash-routes to one of PACK_GROUPS independent
    packing groups (content hash, never arrival order), and within a
    group docs are packed in (n_tokens desc, doc_id) order into the
    fullest bin that still fits (capacity-sorted bisect — O(log bins)
    probe per doc, vs the O(bins) linear scan of naive first-fit whose
    cost grows quadratically with group size).  Oversized docs
    (> budget) become flagged singleton packs.  Rows-only
    (order-dependent greedy state is not SQL-expressible); the budget,
    exactly-once and parallelism-invariance contracts are pytest-gated."""
    import numpy as np

    from ..functions.hashing import md5_int_vec_prefixed
    from ..stages.shuffle import bucketed_group_map

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        texts = b["text"].astype(str).tolist()
        n_tokens = np.array([t.count(" ") + 1 for t in texts], dtype=np.int64)
        grp = (
            md5_int_vec_prefixed("pack", b["doc_id"].to_numpy(), bits=32)
            % np.uint64(PACK_GROUPS)
        ).astype("int64")
        return pd.DataFrame(
            {"doc_id": pd.array(b["doc_id"].to_numpy(), "int64"),
             "n_tokens": pd.array(n_tokens, "int64"),
             "grp": pd.array(grp, "int64")}
        )

    prepped = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(prep), batch_format="pandas"
    )
    return bucketed_group_map(prepped, ["grp"], pack_bucket, num_buckets=16)


def pack_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Best-fit-decreasing packing of one shuffle bucket of (doc_id,
    n_tokens, grp) rows — the in-bucket kernel shared by the
    `docs_pack_sequences` query and the composed `run_docs_prep`
    pipeline (one definition so the packing contract can't drift)."""
    from bisect import bisect_left, insort

    frames = []
    for grp_id, sub in g.groupby("grp", sort=True):
        sub = sub.sort_values(
            ["n_tokens", "doc_id"], ascending=[False, True], kind="mergesort"
        )
        # open bins sorted by (remaining, pack_ord): bisect finds the
        # FULLEST bin that still fits (best-fit; pack_ord tiebreak
        # keeps it deterministic); n_packs/next_pos index by pack_ord
        open_bins: list[tuple[int, int]] = []
        next_pos: list[int] = []
        rows = []
        for did, nt in zip(sub["doc_id"].tolist(), sub["n_tokens"].tolist()):
            placed = False
            if nt <= PACK_BUDGET:
                i = bisect_left(open_bins, (nt, -1))
                if i < len(open_bins):
                    rem, ord_ = open_bins.pop(i)
                    rows.append((did, nt, ord_, next_pos[ord_], False))
                    next_pos[ord_] += 1
                    insort(open_bins, (rem - nt, ord_))
                    placed = True
            if not placed:
                ord_ = len(next_pos)
                next_pos.append(1)
                insort(open_bins, (max(0, PACK_BUDGET - nt), ord_))
                rows.append((did, nt, ord_, 0, nt > PACK_BUDGET))
        out = pd.DataFrame(
            rows, columns=["doc_id", "n_tokens", "pack_ord", "pos", "oversize"]
        )
        out["pack_id"] = [
            f"p{int(grp_id):02d}_{int(o):05d}" for o in out["pack_ord"]
        ]
        frames.append(out[["pack_id", "doc_id", "n_tokens", "pos", "oversize"]])
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
        {"pack_id": pd.array([], "str"), "doc_id": pd.array([], "int64"),
         "n_tokens": pd.array([], "int64"), "pos": pd.array([], "int64"),
         "oversize": pd.array([], "bool")}
    )


def docs_weighted_sample(sf_dir: str):
    """Deterministic weighted (importance) sampling — the training-
    mixture primitive: keep each doc with probability equal to its
    quality score, decided by content hash, never a RNG.  A doc's fate
    is a pure function of (doc_id, text), so the sample is identical at
    any parallelism AND stable across incremental runs (adding new docs
    never flips old decisions — the property positional np.random
    sampling fundamentally lacks, multi_source_ner.py:854-858).
    keep ⟺ md5_32('wsample|'||doc_id) < floor(quality · 2^32)."""
    import numpy as np

    from ..functions.hashing import md5_int_vec_prefixed
    from ..stages.text_stats import quality_score_batch

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        q = quality_score_batch(b)
        h = md5_int_vec_prefixed(
            "wsample", q["doc_id"].to_numpy(), bits=32
        ).astype("int64")
        thr = np.floor(q["quality"].to_numpy() * 4294967296.0).astype("int64")
        keep = h < thr
        return pd.DataFrame(
            {"doc_id": pd.array(q["doc_id"].to_numpy()[keep], "int64"),
             "quality": pd.array(q["quality"].to_numpy()[keep], "float64")}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(pick), batch_format="pandas"
    )


WEIGHTED_SAMPLE_SQL = """
WITH q AS (
  SELECT doc_id,
         (LEAST(n_tokens, 200)/200.0) * (CAST(n_distinct AS DOUBLE)/n_tokens) AS quality
  FROM (
    SELECT doc_id, len(string_split(text, ' ')) AS n_tokens,
           len(list_distinct(string_split(text, ' '))) AS n_distinct
    FROM documents
  )
)
SELECT doc_id, quality FROM q
WHERE CAST(('0x' || substr(md5('wsample|' || CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT AS BIGINT)
      < CAST(floor(quality * 4294967296.0) AS BIGINT)
"""


# -- benchmark decontamination (word-n-gram overlap, broadcast semi-join) -----
#
# The eval-set decontamination step every LLM training pipeline needs:
# flag training documents sharing any word n-gram with a held-out
# benchmark slice.  Here the "benchmark" is a deterministic slice of the
# documents table itself (doc_id % DECONTAM_BENCH_MOD == 0 — no external
# data), which keeps the whole operator SQL-oracle-able.

DECONTAM_N = 3            # word n-gram size
DECONTAM_BENCH_MOD = 97   # doc_id % MOD == 0 → benchmark member


def _doc_ngrams(b: pd.DataFrame, n: int) -> pd.DataFrame:
    """(doc_id, g) rows of word ``n``-grams, vectorized: one explode of
    the token lists, then shifted elementwise joins with a doc-boundary
    mask — no per-document Python loop."""
    import numpy as np

    toks = b["text"].astype(str).str.split(" ")
    lens = toks.str.len().to_numpy()
    if not len(b) or int(lens.sum()) < n:
        return pd.DataFrame({"doc_id": pd.array([], "int64"),
                             "g": pd.array([], "str")})
    flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
    doc = np.repeat(b["doc_id"].to_numpy().astype("int64"), lens)
    m = len(flat) - (n - 1)
    # a window starting at i is valid iff it stays inside one document
    valid = doc[:m] == doc[n - 1:]
    grams = flat[:m].copy()
    for k in range(1, n):
        grams = grams + " "
        grams = grams + flat[k: m + k]
    return pd.DataFrame(
        {"doc_id": pd.array(doc[:m][valid], "int64"),
         "g": pd.array(grams[valid], "str")}
    )


def docs_decontaminate(sf_dir: str, n: int = DECONTAM_N):
    """Contaminated training docs: (doc_id, n_hits) where n_hits = count
    of DISTINCT benchmark n-grams the doc contains (benchmark docs
    excluded from the output).

    Shape: the benchmark slice is scanned distributed, its distinct
    grams collected driver-side and shipped ONCE via ``ray.put``; the
    corpus pass is then a pure map (each doc's grams live in its batch,
    so the per-doc distinct-hit count needs no exchange).  At real scale
    ship 64-bit gram hashes instead of strings (8 bytes/gram), and when
    the benchmark outgrows worker memory switch to the partitioned
    semi-join on the gram key (stages/joins.py, how='semi')."""
    import numpy as np
    import ray

    def bench_grams(b: pd.DataFrame) -> pd.DataFrame:
        sel = b[b["doc_id"] % DECONTAM_BENCH_MOD == 0]
        return _doc_ngrams(sel, n).drop_duplicates("g")[["g"]]

    bench = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(arrow_out(bench_grams), batch_format="pandas")
        .to_pandas()  # distinct grams of a ~1% slice — bounded artifact
    )
    bench_ref = ray.put(frozenset(bench["g"]))

    class Contaminated:
        def __init__(self):
            self.bench = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.bench is None:
                self.bench = ray.get(bench_ref)
            train = b[b["doc_id"] % DECONTAM_BENCH_MOD != 0]
            g = _doc_ngrams(train, n).drop_duplicates()
            hit = g[g["g"].isin(self.bench)]
            out = hit.groupby("doc_id", sort=False).size().reset_index(name="n_hits")
            return pd.DataFrame(
                {"doc_id": pd.array(out["doc_id"].to_numpy(), "int64"),
                 "n_hits": pd.array(out["n_hits"].to_numpy(), "int64")}
            )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        Contaminated(), batch_format="pandas"
    )


DECONTAM_SQL = f"""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
grams AS (
  SELECT doc_id, array_to_string(w[i:i+{DECONTAM_N - 1}], ' ') AS g
  FROM toks, UNNEST(range(1, len(w) - {DECONTAM_N - 2})) AS t(i)
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {DECONTAM_BENCH_MOD} = 0)
SELECT g.doc_id, COUNT(DISTINCT g.g) AS n_hits
FROM grams g JOIN bench b USING (g)
WHERE g.doc_id % {DECONTAM_BENCH_MOD} != 0
GROUP BY g.doc_id
"""


# -- repetition quality signal: top-bigram share (Gopher-style) ---------------

def docs_repetition(sf_dir: str):
    """Per-doc repetition score: the share of word-bigram slots occupied
    by the single most frequent bigram (the Gopher/C4 family's
    duplicate-n-gram-fraction signal).  Docs with < 2 tokens score 0.

    Pure per-batch map (a doc's bigrams live in its batch): one explode
    + shifted join builds every bigram, one pandas groupby counts them,
    one more takes the per-doc max — all C-level, no Python loop over
    docs."""
    import numpy as np

    def score(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"doc_id": pd.array([], "int64"),
                                 "top_bigram_share": pd.array([], "float64")})
        g = _doc_ngrams(b, 2)
        n_tok = (
            b["text"].astype(str).str.count(" ").to_numpy().astype("int64") + 1
        )
        base = pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy().astype("int64"), "n_tok": n_tok}
        )
        if len(g):
            cnt = g.groupby(["doc_id", "g"], sort=False).size()
            mx = cnt.groupby("doc_id").max().rename("mx").reset_index()
        else:
            mx = pd.DataFrame({"doc_id": pd.array([], "int64"),
                               "mx": pd.array([], "int64")})
        m = base.merge(mx, on="doc_id", how="left")
        share = np.where(
            m["mx"].notna(), m["mx"].astype("float64") / (m["n_tok"] - 1), 0.0
        )
        return pd.DataFrame(
            {"doc_id": pd.array(m["doc_id"], "int64"),
             "top_bigram_share": pd.array(np.round(share, 6), "float64")}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(score), batch_format="pandas"
    )


REPETITION_SQL = """
WITH toks AS (SELECT doc_id, string_split(text,' ') AS w FROM documents),
g2 AS (SELECT doc_id, w[i] || ' ' || w[i+1] AS g, len(w) AS n
       FROM toks, UNNEST(range(1, len(w))) t(i)),
cnt AS (SELECT doc_id, n, COUNT(*) AS c FROM g2 GROUP BY doc_id, g, n)
SELECT d.doc_id,
       COALESCE(ROUND(m.mx / (m.n - 1), 6), 0.0) AS top_bigram_share
FROM documents d LEFT JOIN (
  SELECT doc_id, n, MAX(c)::DOUBLE AS mx FROM cnt GROUP BY doc_id, n
) m USING (doc_id)
"""


# -- per-source quota (domain-cap curation) -----------------------------------

QUOTA_K = 10


def docs_source_quota(sf_dir: str, k: int = QUOTA_K):
    """Cap each source (domain analogue) at ``k`` documents, selected by
    a content-stable md5 priority — the per-domain quota step of web-
    corpus curation, as the distributed ROW_NUMBER() OVER (PARTITION BY
    source ORDER BY priority) <= k.  Rides grouped_topn's two-phase
    combiner: the exchange carries at most k rows per (source, batch)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.hashing import md5_int_vec
    from ..stages.shuffle import grouped_topn

    def prioritize(t: pa.Table) -> pa.Table:
        msg = pc.binary_join_element_wise(
            pa.scalar("quota"), pc.cast(t.column("doc_id"), pa.string()),
            pa.scalar("|"),
        )
        pr = md5_int_vec(msg, bits=32).astype("int64")
        return t.append_column("priority", pa.array(pr, pa.int64()))

    prepped = _docs(sf_dir, ["doc_id", "source"]).map_batches(
        prioritize, batch_format="pyarrow"
    )
    top = grouped_topn(
        prepped, ["source"], "priority", k, descending=False, tiebreak="doc_id",
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": pd.array(b["doc_id"], "int64"),
             "source": b["source"].astype(str),
             "quota_rank": pd.array(b["rank"], "int64")}
        )

    return top.map_batches(arrow_out(finish), batch_format="pandas")


SOURCE_QUOTA_SQL = f"""
SELECT doc_id, source, rn AS quota_rank FROM (
  SELECT doc_id, source, ROW_NUMBER() OVER (
     PARTITION BY source
     ORDER BY ('0x'||substr(md5('quota|'||CAST(doc_id AS VARCHAR)),1,8))::UBIGINT,
              doc_id
  ) AS rn FROM documents
) WHERE rn <= {QUOTA_K}
"""


# -- global n-gram census: top-K heavy hitters --------------------------------

NGRAM_TOPK_N = 3   # word n-gram size
NGRAM_TOPK_K = 100  # heavy hitters kept


def docs_ngram_topk(sf_dir: str, n: int = NGRAM_TOPK_N, k: int = NGRAM_TOPK_K):
    """Global top-``k`` word ``n``-grams by corpus count — the LM-census /
    heavy-hitters op every corpus audit runs.

    Shape: per-batch ``value_counts`` is the map-side combiner (the
    exchange moves (gram, partial_count) rows, never token streams);
    per-bucket exact sums then per-bucket top-``k`` — gram keys are
    disjoint across buckets, so the union of bucket top-``k``s provably
    contains the global top-``k``; the final merge ranks ≤ buckets·k
    rows driver-side.  ``rank`` = order by (cnt DESC, gram ASC): total
    and parallelism-invariant.  At open-vocabulary web scale, bound the
    exchange further with a count-min + heavy-hitter sketch prefilter;
    this exact two-phase form is the oracle-able baseline.
    """
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = _doc_ngrams(b, n)
        vc = g["g"].value_counts()
        return pd.DataFrame(
            {"g": pd.array(vc.index.to_numpy(dtype=object), "str"),
             "cnt": pd.array(vc.to_numpy(), "int64")}
        )

    def bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("g", sort=False)["cnt"].sum().reset_index()
        return m.sort_values(
            ["cnt", "g"], ascending=[False, True], kind="mergesort"
        ).head(k)

    partials = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(partial), batch_format="pandas"
    )
    per_bucket = bucketed_group_map(partials, ["g"], bucket_top, num_buckets=16)
    top = (
        per_bucket.to_pandas()  # ≤ 16·k rows — bounded artifact
        .sort_values(["cnt", "g"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {"gram": pd.array(top["g"], "str"),
         "cnt": pd.array(top["cnt"].to_numpy(), "int64"),
         "rank": pd.array(np.arange(1, len(top) + 1), "int64")}
    )


NGRAM_TOPK_SQL = f"""
WITH toks AS (SELECT string_split(text, ' ') AS w FROM documents),
grams AS (
  SELECT array_to_string(w[i:i+{NGRAM_TOPK_N - 1}], ' ') AS g
  FROM toks, UNNEST(range(1, len(w) - {NGRAM_TOPK_N - 2})) AS t(i)
),
counted AS (SELECT g, COUNT(*) AS cnt FROM grams GROUP BY g)
SELECT g AS gram, CAST(cnt AS BIGINT) AS cnt,
       CAST(ROW_NUMBER() OVER (ORDER BY cnt DESC, g ASC) AS BIGINT) AS rank
FROM counted ORDER BY cnt DESC, g ASC LIMIT {NGRAM_TOPK_K}
"""


# -- stratified (per-language) deterministic sampling -------------------------

# training-mixture rates: downsample the dominant language, keep the tail
STRATA_RATES: dict[str, float] = {
    "en": 0.25, "zh": 0.75, "es": 0.75, "de": 0.75, "fr": 0.75,
}
STRATA_DEFAULT_RATE = 0.5  # unlisted strata


def docs_stratified_sample(sf_dir: str):
    """Per-stratum (language) deterministic rate sampling — the
    training-mixture rebalancing op (R5's stratified form).

    keep ⟺ md5_32('strat|'||doc_id) < floor(rate[lang]·2³²): a pure
    content-hash decision — no shuffle, no state, decisions stable under
    corpus growth/reordering, and independent across strata.  Expected
    rate is exact per stratum; the same keyed-threshold trick as
    ``docs_weighted_sample``."""
    from ..functions.hashing import md5_int_vec

    thresholds = {
        lang: int(rate * 2**32) for lang, rate in STRATA_RATES.items()
    }
    default_thr = int(STRATA_DEFAULT_RATE * 2**32)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        keys = ("strat|" + b["doc_id"].astype(str)).tolist()
        h = md5_int_vec(keys, bits=32)
        thr = b["lang"].map(thresholds).fillna(default_thr).to_numpy("uint64")
        out = b.loc[h < thr, ["doc_id", "lang", "source"]]
        return pd.DataFrame(
            {"doc_id": pd.array(out["doc_id"].to_numpy(), "int64"),
             "lang": pd.array(out["lang"], "str"),
             "source": pd.array(out["source"], "str")}
        )

    return _docs(sf_dir, ["doc_id", "lang", "source"]).map_batches(
        arrow_out(keep), batch_format="pandas"
    )


def _strata_case_sql() -> str:
    whens = " ".join(
        f"WHEN '{lang}' THEN {int(rate * 2**32)}"
        for lang, rate in sorted(STRATA_RATES.items())
    )
    return f"CASE lang {whens} ELSE {int(STRATA_DEFAULT_RATE * 2**32)} END"


STRATIFIED_SAMPLE_SQL = f"""
SELECT doc_id, lang, source FROM documents
WHERE ('0x' || substr(md5('strat|' || CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
      < {_strata_case_sql()}
"""


# -- document salience: PageRank over the near-dup graph ----------------------

def docs_pagerank(sf_dir: str, max_hamming: int = 3, iters: int = 20):
    """Document salience over the SimHash near-dup graph
    (``stages/graph.py:pagerank``) — the node set is doc_ids, unbounded
    at corpus scale, so the ADAPTIVE path applies: pair mining stays
    distributed, and the iteration runs dense driver-side while the
    mined edge table is under the bounded-artifact budget, switching to
    the BSP rounds (one join + one bucketed reduce each) beyond it.
    Unweighted symmetric edges; 20 damped rounds ≈ converged to 3
    decimal digits.  ``rank`` rounded to 6 dp (float contract);
    isolated docs are omitted (they all share the baseline rank)."""
    from ..stages.dedup import simhash_neardup_pairs
    from ..stages.graph import pagerank

    pairs = simhash_neardup_pairs(_docs(sf_dir, ["doc_id", "text"]), max_hamming)
    pr = pagerank(
        pairs, "doc_a", "doc_b", iters=iters, num_buckets=4, symmetric=True
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": pd.array(b["node"].to_numpy(), "int64"),
             "rank": pd.array(b["rank"].to_numpy().round(6), "float64")}
        )

    return pr.map_batches(arrow_out(finish), batch_format="pandas")


# -- sub-document (chunk-level) exact dedup + reconstruction ------------------

CHUNK_DEDUP_W = 16  # non-overlapping chunk width (tokens)


def docs_chunk_dedup(sf_dir: str):
    """Chunk-level exact dedup WITH document reconstruction — the
    sub-document granularity a web-scale curation pipeline needs when
    boilerplate repeats across pages that are not whole-document dups
    (each document keeps only the chunks whose globally-first occurrence
    it owns, then reassembles).

    Contract (exact SQL parity): documents split into NON-overlapping
    ``CHUNK_DEDUP_W``-token chunks (trailing chunk short); a chunk
    instance survives iff it is the minimum ``(doc_id, chunk_idx)``
    holder of its exact text; surviving chunks rejoin in chunk order.
    Documents whose every chunk is owned elsewhere disappear.

    Distributed shape — exactly TWO exchanges, no join:

    1. per-doc flat-map explode (combiner: batch-local keep-first is
       sound because the global minimum instance is ≤ every batch-local
       minimum), bucket by chunk text → keep the min instance per text;
    2. survivors bucket by doc_id → ordered reassembly.

    The exchange carries the corpus once (inherent to any
    dedup-and-rebuild); the combiner shrinks dup-heavy batches first."""
    from ..stages.shuffle import bucketed_group_map

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        doc_ids, idxs, texts = [], [], []
        for did, text in zip(b["doc_id"].tolist(), b["text"].astype(str).tolist()):
            toks = text.split(" ")
            for idx, start in enumerate(range(0, len(toks), CHUNK_DEDUP_W)):
                doc_ids.append(did)
                idxs.append(idx)
                texts.append(" ".join(toks[start:start + CHUNK_DEDUP_W]))
        out = pd.DataFrame(
            {"doc_id": pd.array(doc_ids, "int64"),
             "chunk_idx": pd.array(idxs, "int64"),
             "chunk": pd.array(texts, "str")}
        )
        # batch-local combiner: keep-first never discards a global winner
        return out.sort_values(
            ["chunk", "doc_id", "chunk_idx"], kind="mergesort"
        ).drop_duplicates("chunk", keep="first")

    chunks = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(explode), batch_format="pandas"
    )

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(
            ["chunk", "doc_id", "chunk_idx"], kind="mergesort"
        ).drop_duplicates("chunk", keep="first")

    survivors = bucketed_group_map(chunks, ["chunk"], keep_first, num_buckets=32)

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["doc_id", "chunk_idx"], kind="mergesort")
        out = (
            s.groupby("doc_id", sort=False)
            .agg(text_dedup=("chunk", " ".join), n_kept=("chunk", "size"))
            .reset_index()
        )
        return pd.DataFrame(
            {"doc_id": out["doc_id"].astype("int64"),
             "text_dedup": pd.array(out["text_dedup"], "str"),
             "n_kept": out["n_kept"].astype("int64")}
        )

    return bucketed_group_map(survivors, ["doc_id"], rebuild, num_buckets=16)


CHUNK_DEDUP_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), idx AS (
  SELECT doc_id, toks, n, unnest(range(0, n, {CHUNK_DEDUP_W})) AS start FROM t
), chunks AS (
  SELECT doc_id, CAST(start / {CHUNK_DEDUP_W} AS BIGINT) AS chunk_idx,
         array_to_string(list_slice(toks, start + 1,
                                    LEAST(start + {CHUNK_DEDUP_W}, n)), ' ')
           AS chunk
  FROM idx
), kept AS (
  SELECT doc_id, chunk_idx, chunk FROM (
    SELECT doc_id, chunk_idx, chunk,
           row_number() OVER (PARTITION BY chunk
                              ORDER BY doc_id, chunk_idx) AS rn
    FROM chunks
  ) WHERE rn = 1
)
SELECT doc_id, string_agg(chunk, ' ' ORDER BY chunk_idx) AS text_dedup,
       COUNT(*) AS n_kept
FROM kept GROUP BY doc_id
"""


# -- duplicated-span removal (ExactSubstr-style, overlapping n-grams) ---------

DUPSPAN_K = 6  # overlapping gram width (tokens); dup iff the gram repeats


def _token_gram_strings(b: pd.DataFrame, k: int):
    """(doc_id, token-pos, space-joined k-gram Arrow string array) for
    every in-document overlapping k-gram of a batch.  The gram strings
    build Arrow-side (``binary_join_element_wise`` over ``k`` shifted
    token slices) — no per-row Python.  Rows stay grouped by document
    in input order (callers may ``reduceat`` on doc boundaries)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    empty = (
        np.empty(0, "int64"), np.empty(0, "int64"),
        pa.array([], type=pa.string()),
    )
    if not len(b):
        return empty
    toklists = b["text"].astype(str).str.split(" ")
    counts = toklists.str.len().to_numpy("int64")
    dids = np.repeat(b["doc_id"].to_numpy("int64"), counts)
    toks = np.concatenate([np.asarray(t, dtype=object) for t in toklists])
    off = np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.arange(len(toks), dtype=np.int64) - off
    valid = pos <= np.repeat(counts, counts) - k
    idx = np.flatnonzero(valid)
    if not len(idx):
        return empty
    tok_arr = pa.array(toks, type=pa.string())
    parts = [tok_arr.take(pa.array(idx + j)) for j in range(k)]
    grams = pc.binary_join_element_wise(*parts, pa.scalar(" "))
    return dids[idx], pos[idx], grams


def _token_gram_hashes(b: pd.DataFrame, k: int):
    """(doc_id, token-pos, 64-bit md5 of the space-joined k-gram) arrays
    for every in-document overlapping k-gram of a batch.  Oracle
    equivalence: the hash is exactly
    ``('0x'||substr(md5(gram),1,16))::UBIGINT``.  Shared by
    ``docs_dupspans`` and ``docs_winnow_fingerprints``."""
    import numpy as np

    from ..functions.hashing import md5_int_vec

    dids, pos, grams = _token_gram_strings(b, k)
    if not len(dids):
        return dids, pos, np.empty(0, "uint64")
    return dids, pos, md5_int_vec(grams, bits=64)


def docs_dupspans(sf_dir: str):
    """Duplicated-SPAN removal — the overlapping-n-gram sibling of
    ``docs_chunk_dedup`` (Lee et al., *Deduplicating Training Data Makes
    Language Models Better*): a token is removed iff ANY of the
    ``DUPSPAN_K``-token grams covering it occurs more than once in the
    corpus (ALL occurrences are scrubbed, unlike keep-first chunk dedup
    — repeated boilerplate disappears everywhere).

    Contract (exact SQL parity): grams keyed by the 64-bit md5 of the
    gram TEXT on BOTH engines (the oracle partitions by the identical
    ``('0x'||substr(md5(g),1,16))::UBIGINT``), so even a hash collision
    yields the same answer.  Output per document: ``n_tokens``,
    ``n_removed`` and the surviving tokens rejoined (empty string when
    everything is boilerplate).

    Distributed shape — exactly TWO bucketed exchanges, no join:

    1. gram instances ``(h, doc_id, pos)`` bucket by hash; the in-bucket
       dup filter (``count>1``) needs the instances anyway, so census and
       flagging share ONE exchange (a count-only combiner would need a
       second semi-join exchange to recover the positions);
    2. flagged positions UNION the original docs (``pos=-1`` sentinel
       rows carry the text) bucket by doc_id → per-doc interval mask via
       a difference array (no merge row-amplification: the text crosses
       the exchange exactly once per doc, never once per flag).

    The gram strings build Arrow-side (``binary_join_element_wise`` over
    ``K`` shifted token slices) feeding the vectorized md5 — no per-row
    Python in the hot path.  At 100 TB the exchange carries one row per
    token (~20 B), the inherent cost of exact-substring dedup without a
    distributed suffix array (which trades it for a global sort)."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    K = DUPSPAN_K
    docs = _docs(sf_dir, ["doc_id", "text"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        dids, pos, h = _token_gram_hashes(b, K)
        return pd.DataFrame(
            {"h": pd.array(h, "uint64"),
             "doc_id": pd.array(dids, "int64"),
             "pos": pd.array(pos, "int64")}
        )

    grams = docs.map_batches(arrow_out(explode), batch_format="pandas")

    def dup_only(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("h", sort=False)["h"].transform("size").to_numpy()
        out = g.loc[c > 1]
        return pd.DataFrame(
            {"doc_id": out["doc_id"].astype("int64"),
             "pos": out["pos"].astype("int64"),
             "text": pd.array([""] * len(out), "str")}
        )

    flags = bucketed_group_map(grams, ["h"], dup_only)

    def doc_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "pos": pd.array([-1] * len(b), "int64"),
             "text": b["text"].astype(str)}
        )

    tagged = docs.map_batches(arrow_out(doc_rows), batch_format="pandas")

    def mask_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "pos"], kind="mergesort")
        out_id, out_nt, out_nr, out_txt = [], [], [], []
        for did, grp in g.groupby("doc_id", sort=False):
            p = grp["pos"].to_numpy()
            text = grp["text"].iloc[0]  # pos=-1 sentinel sorts first
            toks = text.split(" ")
            n = len(toks)
            starts = p[p >= 0]
            if len(starts):
                diff = np.zeros(n + 1, dtype=np.int64)
                np.add.at(diff, starts, 1)
                np.add.at(diff, np.minimum(starts + K, n), -1)
                cov = np.cumsum(diff[:-1]) > 0
                kept = " ".join(
                    t for t, c in zip(toks, cov.tolist()) if not c
                )
                removed = int(cov.sum())
            else:
                kept, removed = text, 0
            out_id.append(did)
            out_nt.append(n)
            out_nr.append(removed)
            out_txt.append(kept)
        return pd.DataFrame(
            {"doc_id": pd.array(out_id, "int64"),
             "n_tokens": pd.array(out_nt, "int64"),
             "n_removed": pd.array(out_nr, "int64"),
             "text_kept": pd.array(out_txt, "str")}
        )

    return bucketed_group_map(
        tagged.union(flags), ["doc_id"], mask_bucket
    )


DUPSPANS_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), gidx AS (
  SELECT doc_id, toks, unnest(range(0, n - {DUPSPAN_K} + 1)) AS pos
  FROM t WHERE n >= {DUPSPAN_K}
), g AS (
  SELECT doc_id, pos,
         ('0x' || substr(md5(array_to_string(
            list_slice(toks, pos + 1, pos + {DUPSPAN_K}), ' ')), 1, 16)
         )::UBIGINT AS h
  FROM gidx
), flag AS (
  SELECT doc_id, pos FROM (
    SELECT doc_id, pos, COUNT(*) OVER (PARTITION BY h) AS c FROM g
  ) WHERE c > 1
), cov AS (
  SELECT DISTINCT doc_id, pos + j AS ti
  FROM flag, (SELECT unnest(range(0, {DUPSPAN_K})) AS j)
), tok AS (
  SELECT doc_id, unnest(range(0, n)) AS ti, toks FROM t
), kept AS (
  SELECT tok.doc_id, tok.ti, toks[tok.ti + 1] AS tk
  FROM tok LEFT JOIN cov ON tok.doc_id = cov.doc_id AND tok.ti = cov.ti
  WHERE cov.doc_id IS NULL
), agg AS (
  SELECT doc_id, COUNT(*) AS n_kept,
         string_agg(tk, ' ' ORDER BY ti) AS text_kept
  FROM kept GROUP BY doc_id
)
SELECT t.doc_id, t.n AS n_tokens,
       t.n - COALESCE(agg.n_kept, 0) AS n_removed,
       COALESCE(agg.text_kept, '') AS text_kept
FROM t LEFT JOIN agg USING (doc_id)
"""


# -- per-source curation report ------------------------------------------------

REPORT_SHORT_TOKENS = 20  # "short document" threshold for the report


def docs_curation_report(sf_dir: str):
    """The corpus-quality DASHBOARD a curation team reads before
    training: one row per source with document count, language spread,
    exact-duplicate incidence (corpus-wide, not per-source), token
    volume and the short-document count.  All counts exact int64 — the
    report is a composition of already-proven pieces (md5 content
    fingerprints, the dup census, token stats) into the deliverable an
    end user actually consumes.

    Shape: one doc-level map row per document, ONE hash-bucketed
    exchange to mark corpus-wide exact dups (group size > 1 — all
    copies flagged), ONE source-bucketed exchange for the final
    aggregate.  No materialize; both exchanges carry one row per doc."""
    import numpy as np

    from ..functions.hashing import md5_int_vec
    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["doc_id", "source", "lang", "text"])

    def doc_row(b: pd.DataFrame) -> pd.DataFrame:
        txt = b["text"].astype(str)
        return pd.DataFrame(
            {"h": pd.array(md5_int_vec(txt, bits=64), "uint64"),
             "source": b["source"].astype(str),
             "lang": b["lang"].astype(str),
             "nt": txt.str.split(" ").str.len().astype("int64")}
        )

    rows = docs.map_batches(arrow_out(doc_row), batch_format="pandas")

    def mark_dups(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("h", sort=False)["h"].transform("size").to_numpy()
        return pd.DataFrame(
            {"source": g["source"].astype(str),
             "lang": g["lang"].astype(str),
             "nt": g["nt"].astype("int64"),
             "dup": pd.array((c > 1).astype("int64"), "int64")}
        )

    flagged = bucketed_group_map(rows, ["h"], mark_dups)

    def report(g: pd.DataFrame) -> pd.DataFrame:
        agg = (
            g.groupby("source", sort=False)
            .agg(n_docs=("nt", "size"),
                 n_langs=("lang", "nunique"),
                 n_dup_docs=("dup", "sum"),
                 total_tokens=("nt", "sum"),
                 n_short=("nt", lambda s: int((s < REPORT_SHORT_TOKENS).sum())))
            .reset_index()
        )
        return pd.DataFrame(
            {"source": agg["source"].astype(str),
             "n_docs": agg["n_docs"].astype("int64"),
             "n_langs": agg["n_langs"].astype("int64"),
             "n_dup_docs": agg["n_dup_docs"].astype("int64"),
             "total_tokens": agg["total_tokens"].astype("int64"),
             "n_short": agg["n_short"].astype("int64")}
        )

    return bucketed_group_map(flagged, ["source"], report, num_buckets=16)


CURATION_REPORT_SQL = f"""
WITH d AS (
  SELECT source, lang, md5(text) AS h,
         len(string_split(text, ' ')) AS nt
  FROM documents
), f AS (
  SELECT source, lang, nt,
         COUNT(*) OVER (PARTITION BY h) > 1 AS dup
  FROM d
)
SELECT source,
       COUNT(*) AS n_docs,
       CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs,
       CAST(SUM(CASE WHEN dup THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_docs,
       CAST(SUM(nt) AS BIGINT) AS total_tokens,
       CAST(SUM(CASE WHEN nt < {REPORT_SHORT_TOKENS} THEN 1 ELSE 0 END)
            AS BIGINT) AS n_short
FROM f GROUP BY source
"""


# -- winnowing document fingerprints (MOSS) ------------------------------------

WINNOW_K = 4  # gram width (tokens)
WINNOW_W = 4  # winnowing window (grams)


def docs_winnow_fingerprints(sf_dir: str):
    """Winnowing fingerprints (Schleimer, Wilkerson & Aiken, *Winnowing:
    Local Algorithms for Document Fingerprinting*, SIGMOD'03 — the MOSS
    selector): from each window of ``WINNOW_W`` consecutive
    ``WINNOW_K``-gram hashes keep the MINIMUM (ties → rightmost), then
    dedup selections.  Guarantees every shared run of ``W+K-1`` tokens
    between two documents shares a fingerprint, at ~2/(W+1) density —
    the sub-linear sketch that near-dup/plagiarism joins run on instead
    of the full gram set.

    Purely document-local ⇒ a single ``map_batches`` pass, ZERO
    exchanges — embarrassingly parallel at any scale.  Per batch the
    grams flatten doc-major; one ``sliding_window_view`` min plus a
    reversed argmin (rightmost tie) selects every window's fingerprint
    vectorized, and cross-document windows mask out by doc-id equality
    of the window's two ends.  Documents with fewer than ``W`` grams
    emit nothing (no full window exists).  Exact SQL parity: same
    64-bit md5 gram keys, windows = frames ending at each gram with
    ``W-1`` predecessors."""
    import numpy as np

    docs = _docs(sf_dir, ["doc_id", "text"])
    K, W = WINNOW_K, WINNOW_W

    def winnow(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_id": pd.array([], "int64"),
             "pos": pd.array([], "int64"),
             "fp": pd.array([], "uint64")}
        )
        dids, pos, h = _token_gram_hashes(b, K)
        if len(h) < W:
            return empty
        swv = np.lib.stride_tricks.sliding_window_view(h, W)
        valid = dids[: len(h) - W + 1] == dids[W - 1:]
        if not valid.any():
            return empty
        # rightmost minimum: argmin over the reversed window is the
        # FIRST minimum from the right
        rel = (W - 1) - swv[:, ::-1].argmin(axis=1)
        sel = np.unique((np.arange(len(swv)) + rel)[valid])
        return pd.DataFrame(
            {"doc_id": pd.array(dids[sel], "int64"),
             "pos": pd.array(pos[sel], "int64"),
             "fp": pd.array(h[sel], "uint64")}
        )

    return docs.map_batches(arrow_out(winnow), batch_format="pandas")


WINNOW_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), gidx AS (
  SELECT doc_id, toks, unnest(range(0, n - {WINNOW_K} + 1)) AS pos
  FROM t WHERE n >= {WINNOW_K}
), g AS (
  SELECT doc_id, pos,
         ('0x' || substr(md5(array_to_string(
            list_slice(toks, pos + 1, pos + {WINNOW_K}), ' ')), 1, 16)
         )::UBIGINT AS h
  FROM gidx
), win AS (
  SELECT doc_id, pos AS e,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY pos
                      ROWS BETWEEN {WINNOW_W - 1} PRECEDING
                      AND CURRENT ROW) AS mh
  FROM g
), sel AS (
  SELECT w.doc_id, MAX(g.pos) AS pos, w.mh AS fp
  FROM win w
  JOIN g ON g.doc_id = w.doc_id
        AND g.pos BETWEEN w.e - {WINNOW_W - 1} AND w.e
        AND g.h = w.mh
  WHERE w.e >= {WINNOW_W - 1}
  GROUP BY w.doc_id, w.e, w.mh
)
SELECT DISTINCT doc_id, pos, fp FROM sel
"""

PFX_GRAM_K = 3        # distinct-gram set width for the prefix-filter join
PFX_T_PERMILLE = 500  # Jaccard threshold (‰) — integer compare on both engines


def docs_jaccard_prefix(sf_dir: str):
    """CORPUS-WIDE exact Jaccard near-dup pairs via prefix filtering —
    the scale upgrade over ``docs_ngram_jaccard`` (which needs a
    candidate-group column) and the exact complement to MinHash-LSH
    (which trades recall): every pair with distinct-3-gram Jaccard ≥
    ``PFX_T_PERMILLE``/1000, no candidate column, no all-pairs stage.
    Algorithm + exchange plan: ``stages/dedup.py:prefix_jaccard_pairs``.

    One lazy chain, three corpus exchanges, no side table and no
    materialize — the df census folds INTO the first hash-bucketed
    exchange (all rows of a gram share a bucket, so the in-bucket group
    size IS the global document frequency)."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def gram_sets(b: pd.DataFrame) -> pd.DataFrame:
        dids, _pos, h = _token_gram_hashes(b, PFX_GRAM_K)
        out = pd.DataFrame(
            {"doc_id": pd.array(dids, "int64"), "h": pd.array(h, "uint64")}
        ).drop_duplicates()  # docs are batch-local → global distinct
        return out

    grams = docs.map_batches(arrow_out(gram_sets), batch_format="pandas")
    from ..stages.dedup import prefix_jaccard_pairs

    return prefix_jaccard_pairs(grams, threshold_permille=PFX_T_PERMILLE)


JACCARD_PREFIX_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), gidx AS (
  SELECT doc_id, toks, unnest(range(0, n - {PFX_GRAM_K} + 1)) AS pos
  FROM t WHERE n >= {PFX_GRAM_K}
), g AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(toks, pos + 1, pos + {PFX_GRAM_K}), ' ')
           AS gram
  FROM gidx
), sz AS (
  SELECT doc_id, COUNT(*) AS sz FROM g GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS inter
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT doc_a, doc_b, inter, sa.sz + sb.sz - inter AS uni
FROM inter
JOIN sz sa ON doc_a = sa.doc_id
JOIN sz sb ON doc_b = sb.doc_id
WHERE inter * 1000 >= {PFX_T_PERMILLE} * (sa.sz + sb.sz - inter)
"""


# -- PMI collocations ----------------------------------------------------------

COLLOC_MIN_C = 5   # minimum bigram count to rank
COLLOC_K = 100     # global top-k


def docs_collocations(sf_dir: str, k: int = COLLOC_K) -> pd.DataFrame:
    """Top-``k`` collocations — adjacent-token bigrams ranked by PMI
    over the bigram distribution (Church & Hanks '90): PMI =
    ln c_xy + ln N − ln c_x· − ln c_·y with marginals taken over bigram
    slots.  The token-association op behind phrase mining and
    tokenizer-vocab seeding.

    Float contract (the ``events_entropy`` micro-nat contract): each ln
    is of an INTEGER count, pre-rounded to ``floor(ln·1e6 + 0.5)`` and
    combined as exact int64 — no summation-order or rounding-mode
    divergence; glibc ``math.log`` ≡ DuckDB ``std::log``.

    Shape — the corpus is read ONCE, two bucketed exchanges, no join:

    1. per-batch bigram census (value_counts combiner) → bucket by LEFT
       token: the bigram census AND the left marginal c_x· both complete
       in-bucket (all instances of a bigram share x);
    2. bucket by RIGHT token: the right marginal, the PMI partial
       (ln N excluded — a constant shift that can't change the order),
       the ``c ≥ COLLOC_MIN_C`` filter and the per-bucket top-k; N rides
       along as one Σc marker row per bucket (y-disjoint ⇒ they sum to
       the global bigram count), so the driver adds ln N to ≤ buckets·k
       rows and never triggers a second corpus pass."""
    import math

    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["doc_id", "text"])
    TOT = "\x00TOTAL"

    def census(b: pd.DataFrame) -> pd.DataFrame:
        _d, _p, grams = _token_gram_strings(b, 2)
        if not len(grams):
            return pd.DataFrame(
                {"x": pd.array([], "str"), "y": pd.array([], "str"),
                 "c": pd.array([], "int64")}
            )
        vc = grams.to_pandas().value_counts()
        xy = vc.index.str.split(" ", n=1)
        return pd.DataFrame(
            {"x": pd.array([p[0] for p in xy], "str"),
             "y": pd.array([p[1] for p in xy], "str"),
             "c": pd.array(vc.to_numpy(), "int64")}
        )

    cells = docs.map_batches(arrow_out(census), batch_format="pandas")

    def left_marginal(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["x", "y"], sort=False)["c"].sum().reset_index()
        m["cx"] = m.groupby("x", sort=False)["c"].transform("sum")
        m["c"] = m["c"].astype("int64")
        m["cx"] = m["cx"].astype("int64")
        return m

    with_cx = bucketed_group_map(cells, ["x"], left_marginal)

    def lmicro(counts: np.ndarray) -> np.ndarray:
        tbl = {int(v): int(math.floor(math.log(int(v)) * 1e6 + 0.5))
               for v in np.unique(counts)}
        return np.fromiter(
            (tbl[int(v)] for v in counts), dtype="int64", count=len(counts)
        )

    def right_top(g: pd.DataFrame) -> pd.DataFrame:
        cy = g.groupby("y", sort=False)["c"].transform("sum").to_numpy("int64")
        total = int(g["c"].sum())
        keep = g["c"].to_numpy("int64") >= COLLOC_MIN_C
        sub = g.loc[keep].copy()
        if len(sub):
            sub["pmi_part"] = (
                lmicro(sub["c"].to_numpy("int64"))
                - lmicro(sub["cx"].to_numpy("int64"))
                - lmicro(cy[keep])
            )
            sub = sub.sort_values(
                ["pmi_part", "x", "y"], ascending=[False, True, True],
                kind="mergesort",
            ).head(k)[["x", "y", "c", "pmi_part"]]
        else:
            sub = pd.DataFrame(
                {"x": pd.array([], "str"), "y": pd.array([], "str"),
                 "c": pd.array([], "int64"),
                 "pmi_part": pd.array([], "int64")}
            )
        marker = pd.DataFrame(
            {"x": pd.array([TOT], "str"), "y": pd.array([""], "str"),
             "c": pd.array([total], "int64"),
             "pmi_part": pd.array([0], "int64")}
        )
        sub["pmi_part"] = sub["pmi_part"].astype("int64")
        return pd.concat([sub, marker], ignore_index=True)

    per_bucket = bucketed_group_map(with_cx, ["y"], right_top).to_pandas()

    is_tot = per_bucket["x"] == TOT
    n_bigrams = int(per_bucket.loc[is_tot, "c"].sum())
    ln_n = int(math.floor(math.log(n_bigrams) * 1e6 + 0.5)) if n_bigrams else 0
    top = (
        per_bucket.loc[~is_tot]
        .assign(pmi_micro=lambda d: d["pmi_part"].astype("int64") + ln_n)
        .sort_values(["pmi_micro", "x", "y"], ascending=[False, True, True],
                     kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {"x": pd.array(top["x"], "str"), "y": pd.array(top["y"], "str"),
         "c": pd.array(top["c"].to_numpy(), "int64"),
         "pmi_micro": pd.array(top["pmi_micro"].to_numpy(), "int64"),
         "rank": pd.array(np.arange(1, len(top) + 1), "int64")}
    )


COLLOCATIONS_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), big AS (
  SELECT toks[pos + 1] AS x, toks[pos + 2] AS y
  FROM (
    SELECT doc_id, toks, unnest(range(0, n - 1)) AS pos
    FROM t WHERE n >= 2
  )
), cells AS (
  SELECT x, y, CAST(COUNT(*) AS BIGINT) AS c FROM big GROUP BY x, y
), nb AS (
  SELECT SUM(c) AS n FROM cells
), mx AS (
  SELECT x, SUM(c) AS cx FROM cells GROUP BY x
), my AS (
  SELECT y, SUM(c) AS cy FROM cells GROUP BY y
), pmi AS (
  SELECT cells.x, cells.y, cells.c,
         CAST(floor(ln(cells.c) * 1000000 + 0.5) AS BIGINT)
       + CAST(floor(ln(nb.n) * 1000000 + 0.5) AS BIGINT)
       - CAST(floor(ln(mx.cx) * 1000000 + 0.5) AS BIGINT)
       - CAST(floor(ln(my.cy) * 1000000 + 0.5) AS BIGINT) AS pmi_micro
  FROM cells JOIN mx USING (x) JOIN my USING (y) CROSS JOIN nb
  WHERE cells.c >= {COLLOC_MIN_C}
)
SELECT x, y, c, pmi_micro,
       CAST(row_number() OVER (ORDER BY pmi_micro DESC, x, y) AS BIGINT)
         AS rank
FROM pmi ORDER BY pmi_micro DESC, x, y LIMIT {COLLOC_K}
"""


# -- SQL-oracled MinHash-LSH candidate pairs ----------------------------------

MINHASH_GRAM_K = 3   # token-gram width of the shingle set
MINHASH_NSIG = 8     # seeded 64-bit minhash signatures per doc
MINHASH_BAND_R = 2   # signatures per LSH band → NSIG/R bands


def _minhash_band_frame(b: pd.DataFrame) -> pd.DataFrame:
    """Doc-local seeded-md5 minhash band rows (doc_id, band, v0, v1) —
    ``MINHASH_NSIG`` vectorized md5 passes + per-doc ``minimum.reduceat``
    on doc boundaries; zero exchanges.  Extra input columns (e.g.
    ``source``) are carried through per doc.  Shared by
    ``docs_minhash_pairs`` and ``docs_crossdedup``."""
    import numpy as np

    from ..functions.hashing import md5_int_vec_prefixed

    n_bands = MINHASH_NSIG // MINHASH_BAND_R
    extra = [c for c in b.columns if c not in ("doc_id", "text")]
    dids, _pos, grams = _token_gram_strings(b, MINHASH_GRAM_K)
    if not len(dids):
        return pd.DataFrame(
            {"doc_id": pd.array([], "int64"),
             "band": pd.array([], "int64"),
             "v0": pd.array([], "uint64"),
             "v1": pd.array([], "uint64"),
             **{c: pd.array([], "str") for c in extra}}
        )
    starts = np.concatenate([[0], np.flatnonzero(np.diff(dids)) + 1])
    doc_ids = dids[starts]
    sigs = np.empty((len(starts), MINHASH_NSIG), dtype=np.uint64)
    for s in range(MINHASH_NSIG):
        h = md5_int_vec_prefixed(str(s), grams, bits=64)
        sigs[:, s] = np.minimum.reduceat(h, starts)
    out = pd.DataFrame(
        {"doc_id": pd.array(np.repeat(doc_ids, n_bands), "int64"),
         "band": pd.array(
             np.tile(np.arange(n_bands, dtype="int64"), len(doc_ids)),
             "int64"),
         "v0": pd.array(sigs[:, 0::MINHASH_BAND_R].ravel(), "uint64"),
         "v1": pd.array(sigs[:, 1::MINHASH_BAND_R].ravel(), "uint64")}
    )
    if extra:
        lookup = b.set_index("doc_id")
        for c in extra:
            out[c] = lookup[c].loc[out["doc_id"]].to_numpy()
    return out


def docs_minhash_pairs(sf_dir: str):
    """MinHash-LSH near-dup CANDIDATE PAIRS with full SQL parity — the
    oracled sibling of ``minhash_verified_pairs`` (whose permutation
    hashes are numpy-native and thus rows-only).  Every hash here is the
    seeded 64-bit md5 ``md5_int(f"{seed}|{gram}")``, which DuckDB
    reproduces as ``('0x'||substr(md5(seed||'|'||gram),1,16))::UBIGINT``,
    so signatures, band keys and the final pair set are bit-identical on
    both engines (reference near-dup intent:
    ``structurize_files.py`` dedup family; Broder '97 resemblance).

    Math note: ``min`` over duplicate grams equals ``min`` over the
    distinct gram set, so NEITHER side dedups shingles — one less
    exchange.  A pair collides when one whole band (``MINHASH_BAND_R``
    consecutive signatures) matches; ``n_bands`` counts collisions
    (monotone in estimated Jaccard).

    Shape: signature + band rows are DOC-LOCAL (zero-exchange map,
    ``NSIG`` vectorized md5 passes + per-doc ``minimum.reduceat``);
    then TWO bucketed exchanges — band-key collision expansion and the
    per-pair band count.  At 100 TB the exchange carries 4 fixed-width
    rows per doc; a boilerplate cluster of g identical docs expands to
    g(g−1)/2 pairs, the inherent LSH candidate cost (cap ubiquitous
    band keys upstream when a corpus has true universal boilerplate)."""
    import numpy as np

    from ..functions.hashing import md5_int_vec_prefixed
    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["doc_id", "text"])
    bands = docs.map_batches(
        arrow_out(_minhash_band_frame), batch_format="pandas"
    )

    def pair_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["band", "v0", "v1", "doc_id"], kind="mergesort")
        key_change = (
            (g["band"].to_numpy()[1:] != g["band"].to_numpy()[:-1])
            | (g["v0"].to_numpy()[1:] != g["v0"].to_numpy()[:-1])
            | (g["v1"].to_numpy()[1:] != g["v1"].to_numpy()[:-1])
        )
        import numpy as np

        starts = np.concatenate([[0], np.flatnonzero(key_change) + 1, [len(g)]])
        docs_arr = g["doc_id"].to_numpy("int64")
        a_parts, b_parts = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            m = e - s
            if m < 2:
                continue
            iu = np.triu_indices(m, k=1)
            a_parts.append(docs_arr[s:e][iu[0]])
            b_parts.append(docs_arr[s:e][iu[1]])
        if not a_parts:
            return pd.DataFrame(
                {"doc_a": pd.array([], "int64"),
                 "doc_b": pd.array([], "int64")}
            )
        return pd.DataFrame(
            {"doc_a": pd.array(np.concatenate(a_parts), "int64"),
             "doc_b": pd.array(np.concatenate(b_parts), "int64")}
        )

    pairs = bucketed_group_map(bands, ["band", "v0", "v1"], pair_bucket)

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(["doc_a", "doc_b"], sort=False)
            .size().rename("n_bands").reset_index()
        )
        return pd.DataFrame(
            {"doc_a": out["doc_a"].astype("int64"),
             "doc_b": out["doc_b"].astype("int64"),
             "n_bands": out["n_bands"].astype("int64")}
        )

    return bucketed_group_map(pairs, ["doc_a", "doc_b"], count_bucket)


MINHASH_PAIRS_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), g AS (
  SELECT doc_id,
         array_to_string(
           list_slice(toks, pos + 1, pos + {MINHASH_GRAM_K}), ' ') AS gram
  FROM (
    SELECT doc_id, toks, unnest(range(0, n - {MINHASH_GRAM_K} + 1)) AS pos
    FROM t WHERE n >= {MINHASH_GRAM_K}
  )
), sig AS (
  SELECT doc_id, sd.s AS s,
         MIN(('0x' || substr(md5(CAST(sd.s AS VARCHAR) || '|' || gram), 1, 16)
             )::UBIGINT) AS mh
  FROM g CROSS JOIN (SELECT unnest(range(0, {MINHASH_NSIG})) AS s) sd
  GROUP BY doc_id, sd.s
), band AS (
  SELECT a.doc_id, a.s // {MINHASH_BAND_R} AS band, a.mh AS v0, b.mh AS v1
  FROM sig a JOIN sig b
    ON a.doc_id = b.doc_id AND b.s = a.s + 1
  WHERE a.s % {MINHASH_BAND_R} = 0
)
SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, COUNT(*) AS n_bands
FROM band x JOIN band y
  ON x.band = y.band AND x.v0 = y.v0 AND x.v1 = y.v1
 AND x.doc_id < y.doc_id
GROUP BY 1, 2
"""


FEATHASH_DIM = 64  # hashed feature-space width


def docs_feature_hashing(sf_dir: str):
    """Feature-hashing vectorizer (the "hashing trick", Weinberger et
    al. ICML'09): each doc becomes a sparse ``FEATHASH_DIM``-dim count
    vector, feature index = 32-bit md5 of the token mod dim — the
    ML-featurization step that needs NO vocabulary artifact, so it
    scales to open-vocabulary web text with zero exchanges: docs own
    their rows, the per-batch explode→hash→count is the whole job.
    Output is tall ``(doc_id, feat, cnt)``; the oracle reproduces the
    index as ``('0x'||substr(md5(tok),1,8))::UBIGINT % dim``."""
    import numpy as np

    from ..functions.hashing import md5_int_vec

    docs = _docs(sf_dir, ["doc_id", "text"])

    def vectorize(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"doc_id": pd.array([], "int64"),
                 "feat": pd.array([], "int64"),
                 "cnt": pd.array([], "int64")}
            )
        toklists = b["text"].astype(str).str.split(" ")
        counts = toklists.str.len().to_numpy("int64")
        dids = np.repeat(b["doc_id"].to_numpy("int64"), counts)
        toks = np.concatenate(
            [np.asarray(t, dtype=object) for t in toklists]
        )
        feat = (md5_int_vec(toks, bits=32) % FEATHASH_DIM).astype("int64")
        out = (
            pd.DataFrame({"doc_id": dids, "feat": feat})
            .groupby(["doc_id", "feat"], sort=False)
            .size().rename("cnt").reset_index()
        )
        out["cnt"] = out["cnt"].astype("int64")
        return out

    return docs.map_batches(arrow_out(vectorize), batch_format="pandas")


FEATURE_HASHING_SQL = f"""
SELECT doc_id,
       CAST(('0x' || substr(md5(tok), 1, 8))::UBIGINT % {FEATHASH_DIM}
            AS BIGINT) AS feat,
       COUNT(*) AS cnt
FROM (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
)
GROUP BY 1, 2
"""


def docs_minhash_clusters(sf_dir: str):
    """Near-dup CLUSTERS over the ORACLED MinHash-LSH candidate graph —
    completes the fully-SQL-verified dedup chain (signatures → band
    pairs → transitive clusters → min-id representative): the
    keep-one-per-cluster decision a production dedup applies.  Pairs
    come from ``docs_minhash_pairs`` (bit-identical to the oracle), the
    clustering is the distributed min-label connected components of
    ``stages/components.py`` (local union-find contraction, O(log d)
    BSP rounds); the oracle mirrors with a recursive CTE.  Isolated
    docs are omitted (trivially their own cluster)."""
    from ..stages.components import connected_components

    comp = connected_components(docs_minhash_pairs(sf_dir), "doc_a", "doc_b")

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={"node": "doc_id"})

    return comp.map_batches(arrow_out(rename), batch_format="pandas")


def minhash_clusters_sql() -> str:
    return DEDUP_COMPONENTS_SQL_TEMPLATE.format(pairs_sql=MINHASH_PAIRS_SQL)


CROSSDEDUP_INCOMING = "src0"  # the "new shard" being deduped against the rest


def docs_crossdedup(sf_dir: str, incoming: str = CROSSDEDUP_INCOMING):
    """INCREMENTAL near-dup dedup — the production shape where a new
    shard arrives and must be deduped AGAINST the existing corpus, not
    within itself: an incoming doc (``source = incoming``) is flagged
    iff it shares ≥1 MinHash-LSH band with any BASE (non-incoming) doc.
    Same seeded-md5 signature contract as ``docs_minhash_pairs``, so
    the flag set is bit-identical to the SQL oracle.

    Shape: ONE pass emits band rows tagged with source (doc-local), one
    bucketed exchange on the band key does the incoming-vs-base
    membership test vectorized (no pair expansion — an incoming row
    needs only ANY base hit), and a second doc_id-bucketed exchange
    folds a doc's 4 band verdicts with max().  Docs too short for a
    signature ride the second exchange as zero sentinel rows so every
    incoming doc appears exactly once.  At 100 TB the base corpus never
    re-shuffles per shard in steady state: persist the band table once
    (``stages/upsert.py`` keyed by the band triple) and probe it with
    the new shard's bands only."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["doc_id", "text", "source"])
    bands = docs.map_batches(
        arrow_out(_minhash_band_frame), batch_format="pandas"
    )

    def hits(g: pd.DataFrame) -> pd.DataFrame:
        inc = g["source"].to_numpy() == incoming
        if not inc.any():
            return pd.DataFrame(
                {"doc_id": pd.array([], "int64"),
                 "hit": pd.array([], "int64")}
            )
        base = g.loc[~inc, ["band", "v0", "v1"]].drop_duplicates()
        m = g.loc[inc, ["doc_id", "band", "v0", "v1"]].merge(
            base.assign(_h=np.int64(1)),
            on=["band", "v0", "v1"], how="left",
        )
        return pd.DataFrame(
            {"doc_id": m["doc_id"].astype("int64").to_numpy(),
             "hit": m["_h"].notna().to_numpy().astype("int64")}
        )

    verdicts = bucketed_group_map(bands, ["band", "v0", "v1"], hits)

    def sentinels(b: pd.DataFrame) -> pd.DataFrame:
        sub = b.loc[b["source"] == incoming]
        return pd.DataFrame(
            {"doc_id": sub["doc_id"].astype("int64").to_numpy(),
             "hit": np.zeros(len(sub), dtype="int64")}
        )

    zero = docs.map_batches(arrow_out(sentinels), batch_format="pandas")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", sort=False)["hit"].max().reset_index()
        return pd.DataFrame(
            {"doc_id": out["doc_id"].astype("int64"),
             "is_dup": out["hit"].astype("int64")}
        )

    return bucketed_group_map(verdicts.union(zero), ["doc_id"], fold)


CROSSDEDUP_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), g AS (
  SELECT doc_id,
         array_to_string(
           list_slice(toks, pos + 1, pos + {MINHASH_GRAM_K}), ' ') AS gram
  FROM (
    SELECT doc_id, toks, unnest(range(0, n - {MINHASH_GRAM_K} + 1)) AS pos
    FROM t WHERE n >= {MINHASH_GRAM_K}
  )
), sig AS (
  SELECT doc_id, sd.s AS s,
         MIN(('0x' || substr(md5(CAST(sd.s AS VARCHAR) || '|' || gram), 1, 16)
             )::UBIGINT) AS mh
  FROM g CROSS JOIN (SELECT unnest(range(0, {MINHASH_NSIG})) AS s) sd
  GROUP BY doc_id, sd.s
), band AS (
  SELECT a.doc_id, a.s // {MINHASH_BAND_R} AS band, a.mh AS v0, b.mh AS v1
  FROM sig a JOIN sig b
    ON a.doc_id = b.doc_id AND b.s = a.s + 1
  WHERE a.s % {MINHASH_BAND_R} = 0
), hit AS (
  SELECT DISTINCT x.doc_id
  FROM band x JOIN documents dx ON dx.doc_id = x.doc_id
  JOIN band y ON x.band = y.band AND x.v0 = y.v0 AND x.v1 = y.v1
  JOIN documents dy ON dy.doc_id = y.doc_id
  WHERE dx.source = '{CROSSDEDUP_INCOMING}'
    AND dy.source <> '{CROSSDEDUP_INCOMING}'
)
SELECT d.doc_id,
       CAST(CASE WHEN h.doc_id IS NULL THEN 0 ELSE 1 END AS BIGINT) AS is_dup
FROM documents d LEFT JOIN hit h USING (doc_id)
WHERE d.source = '{CROSSDEDUP_INCOMING}'
"""


WINNOW_MIN_SHARED = 2  # pair survives with ≥ this many shared fingerprints


def docs_winnow_pairs(sf_dir: str):
    """Near-dup CANDIDATE PAIRS from the winnowing sketch — documents
    sharing ≥ ``WINNOW_MIN_SHARED`` fingerprints (the winnowing
    guarantee: any shared run of ``W+K-1`` tokens shares one, so long
    overlaps yield several).  The join runs on the ~2/(W+1)-density
    sketch, never the full gram set — that is winnowing's point.

    Shape: the zero-exchange winnow map → per-doc distinct fp (doc-local,
    still map-side) → bucket by fp, in-bucket triangle pair expansion →
    bucket by (doc_a, doc_b) for the shared count + threshold.  A
    boilerplate fingerprint shared by g docs expands to g(g−1)/2 pairs —
    inherent to candidate generation (same exchange law as the LSH-band
    buckets in ``stages/dedup.py``); cap or drop ubiquitous fps upstream
    when a corpus has true universal boilerplate."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    fps = docs_winnow_fingerprints(sf_dir)

    def distinct_fp(b: pd.DataFrame) -> pd.DataFrame:
        # whole docs live in one batch, so a batch-local distinct is the
        # global (doc_id, fp) distinct
        out = b.drop_duplicates(["doc_id", "fp"])
        return pd.DataFrame(
            {"fp": pd.array(out["fp"], "uint64"),
             "doc_id": out["doc_id"].astype("int64")}
        )

    fpset = fps.map_batches(arrow_out(distinct_fp), batch_format="pandas")

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["doc_id", "fp"]).sort_values(
            ["fp", "doc_id"], kind="mergesort"
        )
        out_a, out_b = [], []
        for _, grp in g.groupby("fp", sort=False):
            d = grp["doc_id"].to_numpy()
            if len(d) < 2:
                continue
            i, j = np.triu_indices(len(d), k=1)
            out_a.append(d[i])
            out_b.append(d[j])
        a = np.concatenate(out_a) if out_a else np.empty(0, "int64")
        b = np.concatenate(out_b) if out_b else np.empty(0, "int64")
        return pd.DataFrame(
            {"doc_a": pd.array(a, "int64"), "doc_b": pd.array(b, "int64")}
        )

    pairs = bucketed_group_map(fpset, ["fp"], pairs_bucket)

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        n = (
            g.groupby(["doc_a", "doc_b"], sort=False)
            .size().rename("n_shared").reset_index()
        )
        n = n[n["n_shared"] >= WINNOW_MIN_SHARED]
        return pd.DataFrame(
            {"doc_a": n["doc_a"].astype("int64"),
             "doc_b": n["doc_b"].astype("int64"),
             "n_shared": n["n_shared"].astype("int64")}
        )

    return bucketed_group_map(pairs, ["doc_a", "doc_b"], count_bucket)


WINNOW_PAIRS_SQL = f"""
WITH fpset AS (
  SELECT DISTINCT doc_id, fp FROM ({WINNOW_SQL})
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS n_shared
FROM fpset a JOIN fpset b ON a.fp = b.fp AND a.doc_id < b.doc_id
GROUP BY a.doc_id, b.doc_id
HAVING COUNT(*) >= {WINNOW_MIN_SHARED}
"""


# -- heavy hitters via Count-Min prefilter + exact verify ---------------------

FREQ_PERMILLE = 5  # report tokens holding ≥ 0.5% of all occurrences


def docs_frequent_tokens(sf_dir: str):
    """Heavy-hitter tokens (≥ ``FREQ_PERMILLE``‰ of all occurrences) via
    the Count-Min chain — the scale substitute for a full token census
    when the vocabulary itself is too large to exchange (`token_histogram`
    moves EVERY distinct token; this moves a fixed 64 KiB sketch plus
    candidate-only partials).

    Two passes, exact result: (1) per-batch CM partials + batch token
    totals — CM is linear, so batch sketches SUM to the corpus sketch
    (driver fold, bounded); (2) per-batch counts KEPT ONLY for tokens the
    broadcast sketch estimates ≥ threshold — CM never underestimates, so
    the candidate set is a SUPERSET of the truth (no false negatives) —
    then one tiny bucketed exact sum + the exact integer HAVING
    ``n_occ·1000 ≥ permille·total``.  Same prefilter-then-verify pattern
    as ``stages/bloom.py``; the sketch only saves work, never changes
    the answer (oracle: plain GROUP BY / HAVING)."""
    import numpy as np
    import ray

    from ..stages.shuffle import bucketed_group_map
    from ..stages.sketches import cm_add, cm_estimate

    def sketch_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = pd.Series(
            np.concatenate([t.split(" ") for t in b["text"].astype(str)])
            if len(b) else [], dtype=object
        )
        counts = toks.value_counts()
        cm = cm_add(counts)
        return pd.DataFrame(
            {"cm": [cm.tobytes()],
             "n_tokens": pd.array([int(counts.sum())], "int64")}
        )

    parts = _docs(sf_dir, ["text"]).map_batches(
        arrow_out(sketch_partial), batch_format="pandas"
    ).to_pandas()  # ≤ #batches rows of 64 KiB
    from ..stages.sketches import CM_D, CM_W

    cm = np.zeros((CM_D, CM_W), dtype=np.int64)
    for buf in parts["cm"]:
        cm += np.frombuffer(buf, dtype=np.int64).reshape(CM_D, CM_W)
    total = int(parts["n_tokens"].sum())
    cm_ref = ray.put(cm)

    def candidate_counts(b: pd.DataFrame) -> pd.DataFrame:
        toks = pd.Series(
            np.concatenate([t.split(" ") for t in b["text"].astype(str)])
            if len(b) else [], dtype=object
        )
        counts = toks.value_counts()
        if len(counts):
            est = cm_estimate(ray.get(cm_ref), list(counts.index))
            # est ≥ true count, so true ≥ T ⇒ est ≥ T: superset kept
            counts = counts[est * 1000 >= FREQ_PERMILLE * total]
        return pd.DataFrame(
            {"token": pd.array(counts.index, "str"),
             "n_occ": pd.array(counts.to_numpy(), "int64")}
        )

    partials = _docs(sf_dir, ["text"]).map_batches(
        arrow_out(candidate_counts), batch_format="pandas"
    )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("token", sort=False)["n_occ"].sum().reset_index()
        return out[out["n_occ"] * 1000 >= FREQ_PERMILLE * total]

    return bucketed_group_map(partials, ["token"], verify, num_buckets=4)


FREQUENT_TOKENS_SQL = f"""
WITH toks AS (SELECT unnest(string_split(text, ' ')) AS token FROM documents),
tot AS (SELECT COUNT(*) AS n FROM toks)
SELECT token, COUNT(*) AS n_occ
FROM toks, tot
GROUP BY token, tot.n
HAVING COUNT(*) * 1000 >= {FREQ_PERMILLE} * tot.n
"""


# -- grouped bottom-k deterministic sampling ----------------------------------

BOTTOMK_K = 3


def docs_bottomk_sample(sf_dir: str):
    """EXACT-size per-stratum sampling: the ``BOTTOMK_K`` documents per
    language with the smallest content hashes — the bottom-k sketch, the
    fixed-BUDGET complement of the rate samplers (`docs_sample` keeps
    hash < rate·2³², so its output size floats with the corpus; training
    mixtures often need exactly-k exemplars per stratum).

    Bottom-k is mergeable and order-independent (the k smallest of a
    union = the k smallest of each part's k smallest), so it reuses the
    grouped top-N machinery ascending on the hash: batch-local bottom-k
    combiner → bucketed final.  Deterministic: md5 of the doc id, never
    arrival order; ties impossible (hash of distinct ids ~unique, and
    doc_id tiebreak makes it total anyway)."""
    from ..functions.hashing import md5_int_vec
    from ..stages.shuffle import grouped_topn

    docs = _docs(sf_dir, ["doc_id", "lang"])

    def with_hash(b: pd.DataFrame) -> pd.DataFrame:
        from ..functions.hashing import md5_int_vec_prefixed

        h = md5_int_vec_prefixed(
            "bk", b["doc_id"].to_numpy(), bits=32
        ).astype("int64")
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "lang": pd.array(b["lang"], "str"),
             "h": h}
        )

    hashed = docs.map_batches(arrow_out(with_hash), batch_format="pandas")
    return grouped_topn(
        hashed, ["lang"], "h", BOTTOMK_K,
        descending=False, tiebreak="doc_id", num_buckets=8,
    )


BOTTOMK_SQL = f"""
SELECT doc_id, lang,
       CAST(('0x' || substr(md5('bk|' || CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
            AS BIGINT) AS h,
       CAST(row_number() OVER (
         PARTITION BY lang
         ORDER BY ('0x' || substr(md5('bk|' || CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT,
                  doc_id
       ) AS BIGINT) AS rank
FROM documents
QUALIFY rank <= {BOTTOMK_K}
"""


# -- entity/PII redaction (vectorized regex scrub) ------------------------------

def _redact_pattern() -> str:
    """Longest-first alternation over the gazetteer — the same pattern
    string feeds Python re and DuckDB RE2, and both engines scan
    leftmost-first, so match boundaries (and therefore counts and
    rewritten text) are identical by construction."""
    import re as _re

    from ..ontology import WEBTEXT_GAZETTEER

    terms = sorted(WEBTEXT_GAZETTEER, key=lambda t: (-len(t), t))
    return r"\b(?:" + "|".join(_re.escape(t) for t in terms) + r")\b"


REDACT_TOKEN = "[ENT]"


def docs_redact(sf_dir: str):
    """Scrub every gazetteer entity from the corpus text (the PII/
    entity-anonymization shape of a training-data pipeline: one compiled
    alternation, vectorized replace + count per batch — never a per-row
    re-compile or a Python token loop).  Output is the full rewritten
    text plus the per-doc hit count, both hash-compared against DuckDB's
    regexp_replace/regexp_extract_all on the identical pattern."""
    import re

    pat = re.compile(_redact_pattern())

    def redact(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_hits": b["text"].str.count(pat).astype("int64"),
                "redacted": b["text"].str.replace(pat, REDACT_TOKEN, regex=True),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(redact), batch_format="pandas"
    )


def redact_sql() -> str:
    pat = _redact_pattern()
    return f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_hits,
       regexp_replace(text, '{pat}', '{REDACT_TOKEN}', 'g') AS redacted
FROM documents
"""


# -- multi-query similarity search (broadcast query matrix) --------------------

KNN_MULTI_QUERY_IDS = (0, 1, 2)


def knn_cosine_multi_q(sf_dir: str, k: int = 10):
    """Top-k neighbors for a BATCH of query vectors in one corpus pass
    (`stages/similarity.py:knn_cosine_multi`) — the query matrix is a
    pushed-down keyed read, never a table scan."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..stages.similarity import knn_cosine_multi

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(KNN_MULTI_QUERY_IDS))],
    )
    order = np.argsort(t["vec_id"].to_numpy())
    qm = np.stack(
        [np.asarray(v, np.float64) for v in t["embedding"].to_pylist()]
    )[order]
    qids = t["vec_id"].to_numpy()[order]
    return knn_cosine_multi(_embeddings(sf_dir), qm, qids, k=k)


KNN_MULTI_SQL = f"""
WITH q AS (
  SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings WHERE vec_id IN {KNN_MULTI_QUERY_IDS}
), s AS (
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv), 6)
           AS sim
  FROM embeddings e CROSS JOIN q
)
SELECT query_id, vec_id, sim,
       CAST(row_number() OVER (
         PARTITION BY query_id ORDER BY sim DESC, vec_id) AS BIGINT) AS rank
FROM s
QUALIFY rank <= 10
"""


# -- boolean search over a persisted inverted index ---------------------------

SEARCH_TERMS = ["dup", "spark", "vector"]  # one rare + two common terms


def docs_search_indexed(sf_dir: str):
    """Boolean-AND retrieval through the build-once/serve-many inverted
    index (`stages/search.py`): the index materializes to a token-
    bucketed Parquet postings directory (manifest-keyed resume — the
    second query pays only the serve path), and the serve reads ONLY the
    query terms' buckets with the token filter pushed to the scan."""
    import os

    from ..stages.search import build_inverted_index, search_and

    tag = os.path.basename(os.path.normpath(sf_dir))
    index_dir = f"/tmp/mkg_search_idx/{tag}"
    build_inverted_index(_docs(sf_dir, ["doc_id", "text"]), index_dir)
    return search_and(index_dir, SEARCH_TERMS)


SEARCH_SQL = "SELECT doc_id FROM documents WHERE " + " AND ".join(
    f"list_contains(string_split(text, ' '), '{t}')" for t in SEARCH_TERMS
)


# -- SemDeDup: cluster-restricted semantic dedup -------------------------------

SEMDEDUP_T = 0.42  # cosine threshold (testdata max pairwise ≈ 0.48)


def semdedup_removed(
    emb, *, k: int = KMEANS_K, threshold: float = SEMDEDUP_T,
    iters: int = KMEANS_ITERS,
):
    """SemDeDup (Abbas et al. 2023, public): k-means clusters →
    WITHIN-cluster pairwise cosine ≥ t → drop all but the min-id member
    of each semantic-dup component.  The cluster restriction is the
    scale contract: pairwise work is O(Σ|cluster|²) ≈ n²/k instead of
    n², and each cluster's matrix lives in exactly one bucket worker
    (document the assumption: max cluster must fit a worker — raise k,
    or chunk like `neardup_pairs_chunked`, when it can't).  Returns the
    REMOVED (vec_id, comp) table."""
    import numpy as np
    import ray

    from ..stages.clustering import _to_matrix, _unit, kmeans_fit
    from ..stages.components import connected_components
    from ..stages.shuffle import bucketed_group_map

    cent = kmeans_fit(emb, k=k, iters=iters)
    cent_ref = ray.put(cent)

    class AssignKeepVec:
        def __init__(self):
            self.cent = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.cent is None:
                self.cent = ray.get(cent_ref)
            if not len(b):
                return pd.DataFrame(
                    {"vec_id": pd.array([], "int64"),
                     "cluster": pd.array([], "int32"), "embedding": []}
                )
            unit = _unit(_to_matrix(b["embedding"]))
            cluster = (unit @ self.cent.T).argmax(axis=1)
            return pd.DataFrame(
                {"vec_id": b["vec_id"].to_numpy().astype("int64"),
                 "cluster": cluster.astype("int32"),
                 "embedding": list(unit)}
            )

    assigned = emb.map_batches(AssignKeepVec(), batch_format="pandas")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _c, sub in g.groupby("cluster", sort=False):
            if len(sub) < 2:
                continue
            ids = sub["vec_id"].to_numpy()
            m = np.stack(sub["embedding"].to_numpy())
            sims = m @ m.T
            ai, bi = np.nonzero(np.triu(sims >= threshold, 1))
            a, b = ids[ai], ids[bi]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            out_a.append(lo)
            out_b.append(hi)
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.array([], "int64"), "doc_b": pd.array([], "int64")}
            )
        return pd.DataFrame(
            {"doc_a": pd.array(np.concatenate(out_a), "int64"),
             "doc_b": pd.array(np.concatenate(out_b), "int64")}
        )

    pairs = bucketed_group_map(assigned, ["cluster"], pairs_in_bucket,
                               num_buckets=min(16, k))
    comps = connected_components(pairs)  # (node, component_id)

    def removed(b: pd.DataFrame) -> pd.DataFrame:
        out = b[b["node"] != b["component_id"]]
        return pd.DataFrame(
            {"vec_id": out["node"].astype("int64"),
             "comp": out["component_id"].astype("int64")}
        )

    return comps.map_batches(arrow_out(removed), batch_format="pandas")


def embed_semdedup(sf_dir: str) -> pd.DataFrame:
    """Driver query: the removed-vector table (semantic duplicates that
    lost their component's min-id election), sorted."""
    out = semdedup_removed(_embeddings(sf_dir)).to_pandas()
    if "vec_id" not in out.columns:  # zero-block to_pandas schema drop
        return pd.DataFrame(
            {"vec_id": pd.array([], "int64"), "comp": pd.array([], "int64")}
        )
    return out.sort_values("vec_id").reset_index(drop=True)


def docs_search_ranked(sf_dir: str):
    """BM25 top-10 over the same persisted inverted index (disjunctive
    semantics): df comes free from the bucket-local posting counts, dl
    rides on every posting row, corpus stats live in the manifest —
    serving never touches the documents table."""
    import os

    from ..stages.search import build_inverted_index, search_and, search_ranked

    tag = os.path.basename(os.path.normpath(sf_dir))
    index_dir = f"/tmp/mkg_search_idx/{tag}"
    build_inverted_index(_docs(sf_dir, ["doc_id", "text"]), index_dir)
    return search_ranked(index_dir, SEARCH_TERMS, k=10)


def _search_ranked_sql() -> str:
    from ..stages.search import BM25_B, BM25_K1

    terms = ", ".join(f"'{t}'" for t in SEARCH_TERMS)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), dl AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY 1
), tf AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
  FROM toks WHERE tok IN ({terms}) GROUP BY 1, 2
), stats AS (
  SELECT CAST(count(*) AS BIGINT) AS n_docs, SUM(dl) AS total_tf FROM dl
), df AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
), addend AS (
  SELECT doc_id,
         round(ln((n_docs - df + 0.5) / (df + 0.5) + 1)
               * tf * ({BM25_K1} + 1)
               / (tf + {BM25_K1} * (1 - {BM25_B}
                                    + {BM25_B} * dl / (total_tf / n_docs))),
               6) AS w
  FROM tf JOIN df USING (tok) JOIN dl USING (doc_id), stats
)
SELECT doc_id, round(SUM(w), 6) AS score FROM addend GROUP BY doc_id
QUALIFY row_number() OVER (ORDER BY score DESC, doc_id) <= 10
"""


PHRASE_QUERY = ["spark", "window"]


def docs_search_phrase(sf_dir: str):
    """Exact phrase retrieval over the positional postings index —
    offset-shifted position-set intersection, the classic positional-
    index algorithm; same build-once cache as the other search queries."""
    import os

    from ..stages.search import build_inverted_index, search_phrase

    tag = os.path.basename(os.path.normpath(sf_dir))
    index_dir = f"/tmp/mkg_search_idx/{tag}"
    build_inverted_index(_docs(sf_dir, ["doc_id", "text"]), index_dir)
    return search_phrase(index_dir, PHRASE_QUERY)


PHRASE_SQL = (
    "SELECT doc_id FROM documents WHERE ' ' || text || ' ' LIKE '% "
    + " ".join(PHRASE_QUERY) + " %'"
)


# -- deterministic global shuffle rank (distributed ROW_NUMBER) ----------------

SHUFFLE_BUCKET_BITS = 6  # 64 range-ordered buckets on the top hash bits


def docs_global_shuffle(sf_dir: str):
    """Deterministic global shuffle order with an EXPLICIT global
    ROW_NUMBER — the training-data shuffle that is reproducible across
    runs and resumable by rank range.

    No monolithic sort: the md5 hash is uniform, so its TOP BITS define
    range-ordered buckets (bucket order IS global hash order — the
    finalize_graph_write idiom).  Pass 1 exchanges only per-bucket
    counts (driver prefix-sums them into offsets); pass 2 sorts within
    each bucket and adds the offset.  Global rank = offset[bucket] +
    local rank, exact at any parallelism."""
    import numpy as np
    import ray

    from ..functions.hashing import md5_int_vec_prefixed

    docs = _docs(sf_dir, ["doc_id"])

    # h travels as int64 (Arrow blocks): subtract 2^63 so UNSIGNED hash
    # order is preserved under signed comparison
    def with_bucket_safe(b: pd.DataFrame) -> pd.DataFrame:
        h = md5_int_vec_prefixed("shuf", b["doc_id"].to_numpy(), bits=64)
        bucket = (h >> np.uint64(64 - SHUFFLE_BUCKET_BITS)).astype("int32")
        return with_bucket(pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "h": pd.array(
                 (h - np.uint64(1 << 63)).view(np.int64), "int64"
             ),
             "bucket": pd.array(bucket, "int32")}
        ), bucket)

    keyed = docs.map_batches(arrow_out(with_bucket_safe), batch_format="pandas")
    keyed = keyed.materialize()  # two passes over the keyed rows

    counts = fold_groups(  # ≤ 64 rows
        keyed.map_batches(
            arrow_out(lambda b: pd.DataFrame({"bucket": b["bucket"], "n": 1})),
            batch_format="pandas"),
        ["bucket"], [("n", "sum")]).set_index("bucket")["n"]
    offsets = counts.cumsum().shift(fill_value=0).to_dict()
    off_ref = ray.put(offsets)

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        s = g.sort_values(["h", "doc_id"], kind="mergesort")
        base = int(off[int(s["bucket"].iloc[0])])
        return pd.DataFrame(
            {"doc_id": s["doc_id"].astype("int64"),
             "shuffle_rank": pd.array(
                 base + np.arange(1, len(s) + 1, dtype=np.int64), "int64"
             )}
        )

    return exchange(keyed, rank_bucket)


GLOBAL_SHUFFLE_SQL = """
SELECT doc_id,
       CAST(row_number() OVER (
         ORDER BY ('0x' || substr(md5('shuf|' || doc_id), 1, 16))::UBIGINT,
                  doc_id
       ) AS BIGINT) AS shuffle_rank
FROM documents
"""


# -- DSIR-style importance resampling ------------------------------------------

DSIR_BUCKETS = 256
DSIR_TARGET_LANG = "zh"


def docs_dsir(sf_dir: str, *, target_lang: str = DSIR_TARGET_LANG):
    """DSIR-style importance weights + deterministic resample (Xie et
    al. 2023, "Data Selection for Language Models via Importance
    Resampling" — public): hashed unigram bucket LMs for the TARGET
    slice (here ``lang == target_lang``) vs the full SOURCE corpus;
    per-doc log importance = Σ_token ln(p_tgt[b]/p_src[b]).

    Scale shape: pass 1 is a mergeable 256-bucket census (per-token
    bucket columns, ``fold_groups`` — the HLL/CMS artifact size);
    pass 2 scores each doc vectorized against the broadcast 256-float
    log-ratio vector and applies the content-stable acceptance rule
    ``keep ⟺ md5_32('dsir|'‖id)/2³² < exp(logw − max logw)`` (importance
    resampling normalized by the global max, so acceptance is a pure
    function of content at any parallelism).  Returns
    (doc_id, lang, logw, keep)."""
    import numpy as np

    from ..functions.arrow import arrow_out
    from ..functions.hashing import md5_int_vec_prefixed, stable_bucket_vec

    docs = _docs(sf_dir, ["doc_id", "text", "lang"]).materialize()

    def census(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        counts = toks.str.len().to_numpy()
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        buckets = stable_bucket_vec(flat, DSIR_BUCKETS).astype("int64")
        is_tgt = np.repeat(
            (b["lang"].to_numpy() == target_lang), counts
        )
        return pd.DataFrame({"bucket": buckets, "n_src": 1,
                             "n_tgt": is_tgt.astype("int64")})

    cen = fold_groups(  # ≤ 256 rows
        docs.map_batches(arrow_out(census), batch_format="pandas"),
        ["bucket"], [("n_src", "sum"), ("n_tgt", "sum")],
    ).set_index("bucket").reindex(range(DSIR_BUCKETS), fill_value=0)
    # add-1 smoothing on both LMs so empty buckets stay finite; each
    # bucket's log-ratio PRE-rounds to 6 dp so per-doc sums are exact
    # multiples of 1e-6 — summation-order-immune and SQL-oracle-equal
    p_src = (cen["n_src"].to_numpy() + 1.0) / (cen["n_src"].sum() + DSIR_BUCKETS)
    p_tgt = (cen["n_tgt"].to_numpy() + 1.0) / (cen["n_tgt"].sum() + DSIR_BUCKETS)
    log_ratio = np.round(np.log(p_tgt / p_src), 6)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        counts = toks.str.len().to_numpy()
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        buckets = stable_bucket_vec(flat, DSIR_BUCKETS).astype("int64")
        doc_idx = np.repeat(np.arange(len(b)), counts)
        logw = np.zeros(len(b), dtype=np.float64)
        np.add.at(logw, doc_idx, log_ratio[buckets])
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "lang": pd.array(b["lang"], "str"),
             "logw": np.round(logw, 6)}
        )

    scored = docs.map_batches(
        arrow_out(score), batch_format="pandas"
    ).materialize()  # reused: global max + the acceptance pass
    w_max = fold_groups(scored, [], [("logw", "max")])["logw"].iloc[0]

    def accept(b: pd.DataFrame) -> pd.DataFrame:
        u = (
            md5_int_vec_prefixed("dsir", b["doc_id"].to_numpy(), bits=32)
            .astype("float64") / 4294967296.0
        )
        keep = u < np.exp(b["logw"].to_numpy() - w_max)
        out = b.copy()
        out["keep"] = keep
        return out

    return scored.map_batches(arrow_out(accept), batch_format="pandas")


def docs_unigram_logprob(sf_dir: str):
    """Per-doc average unigram log-probability — the CCNet-style
    LM-perplexity quality filter (docs far from the corpus distribution
    score low).  One exact token census (the docs_frequent_tokens
    combiner pattern; the vocabulary→log-p map broadcasts — for an
    unbounded vocabulary use the hashed-bucket variant, `docs_dsir`),
    then a vectorized scoring pass.  Float contract: each token addend
    ln(n/total) rounds to 6 dp BEFORE the per-doc SUM (the BM25
    contract — the true sum is an exact multiple of 1e-6, immune to
    summation order).  Emits (sum_logp, n_tokens) rather than the mean:
    a final division lands on 0.5e-6 ties where numpy (half-even) and
    DuckDB (half-away) disagree — measured on exactly one doc at
    sf0.001."""
    import numpy as np

    docs = _docs(sf_dir, ["doc_id", "text"]).materialize()

    def census(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        return pd.DataFrame({"tok": pd.array(flat, "str"), "n": 1})

    cen = fold_groups(  # vocabulary-bounded artifact
        docs.map_batches(arrow_out(census), batch_format="pandas"),
        ["tok"], [("n", "sum")]).set_index("tok")["n"]
    total = float(cen.sum())
    logp = {t: float(np.round(np.log(n / total), 6)) for t, n in cen.items()}

    def score(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        counts = toks.str.len().to_numpy()
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        vals = pd.Series(flat).map(logp).to_numpy(dtype=np.float64)
        sums = np.zeros(len(b), dtype=np.float64)
        np.add.at(sums, np.repeat(np.arange(len(b)), counts), vals)
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "sum_logp": np.round(sums, 6),
             "n_tokens": pd.array(counts.astype("int64"), "int64")}
        )

    return docs.map_batches(arrow_out(score), batch_format="pandas")


UNIGRAM_LOGPROB_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), cen AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1
), tot AS (
  SELECT SUM(n) AS t FROM cen
)
SELECT doc_id,
       round(SUM(round(ln(n / t), 6)), 6) AS sum_logp,
       CAST(count(*) AS BIGINT) AS n_tokens
FROM toks JOIN cen USING (tok), tot
GROUP BY doc_id
"""


def dsir_sql() -> str:
    """DuckDB oracle for ``docs_dsir`` — the identical arithmetic:
    md5%256 buckets, add-1-smoothed LMs, pre-rounded bucket log-ratios,
    per-doc sum, and the content-stable acceptance compare."""
    B = DSIR_BUCKETS
    return f"""
WITH toks AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS tok FROM documents
), b AS (
  SELECT doc_id, lang,
         CAST(('0x' || substr(md5(tok), 1, 8))::UBIGINT % {B} AS BIGINT)
           AS bucket
  FROM toks
), cen AS (
  SELECT bucket, CAST(count(*) AS BIGINT) AS n_src,
         CAST(count(*) FILTER (lang = '{DSIR_TARGET_LANG}') AS BIGINT)
           AS n_tgt
  FROM b GROUP BY 1
), tot AS (
  SELECT SUM(n_src) AS ts, SUM(n_tgt) AS tt FROM cen
), lr AS (
  SELECT bucket,
         round(ln(((n_tgt + 1.0) / (tt + {B}))
                  / ((n_src + 1.0) / (ts + {B}))), 6) AS lw
  FROM cen, tot
), doc AS (
  SELECT doc_id, lang, round(SUM(lw), 6) AS logw
  FROM b JOIN lr USING (bucket) GROUP BY 1, 2
), m AS (SELECT max(logw) AS mx FROM doc)
SELECT doc_id, lang, logw,
       (('0x' || substr(md5('dsir|' || doc_id), 1, 8))::UBIGINT
        / 4294967296.0) < exp(logw - mx) AS keep
FROM doc, m
"""


BPE_MERGES = 256


def docs_bpe_vocab(sf_dir: str):
    """Trained BPE merge table over the documents corpus (distributed
    word census → driver-side merge learning on the bounded artifact —
    `stages/bpe.py`).  Deterministic at any parallelism (exact integer
    census + lexicographic tie-break), pytest-pinned."""
    from ..stages.bpe import train_bpe

    return train_bpe(_docs(sf_dir, ["text"]), n_merges=BPE_MERGES)


def docs_bpe_encoded(sf_dir: str):
    """Per-doc BPE token counts under the corpus-trained vocabulary —
    train (bounded census) then one encode pass with per-process word
    caching."""
    from ..functions.arrow import arrow_out
    from ..stages.bpe import BpeEncoder, train_bpe

    merges = train_bpe(_docs(sf_dir, ["text"]), n_merges=BPE_MERGES)
    enc = BpeEncoder(merges)
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(enc), batch_format="pandas"
    )


# -- Naive Bayes language classifier: distributed training, SQL-oracled ------

NB_BUCKETS = 256


def docs_nb_langid(sf_dir: str):
    """Multinomial Naive Bayes language classifier whose TRAINING is a
    distributed pipeline stage: hashed-unigram features (md5 % B — the
    DSIR bucket function, so the vocabulary is bounded and the whole
    model is SQL-expressible), per-class add-1-smoothed bucket LMs,
    doc-count priors, then one vectorized scoring pass that predicts
    ``argmax_c  ln P(c) + Σ_tok ln P(bucket(tok) | c)`` per document.

    Because NB training is pure counting, BOTH the training pass and the
    inference pass oracle exactly against DuckDB — a trained-model
    operator with an end-to-end SQL correctness gate (contrast
    ``ner_train``, whose perceptron is only pytest-gated).

    Float contract (the ``docs_dsir`` precedent): every per-(class,
    bucket) log-probability and the class prior pre-round to 6 dp, so
    per-doc class scores are sums of identical doubles on both engines;
    the final score re-rounds to 6 dp and ties break on ascending class
    name.  Scale shape: the census folds to ≤ |classes| × (B+1) rows
    (``fold_groups``; a model-sized artifact, the HLL/CMS pattern);
    scoring broadcasts the (C × B) log-prob matrix and runs
    one ``np.add.at`` per batch — no exchange anywhere."""
    import numpy as np

    from ..functions.arrow import arrow_out
    from ..functions.hashing import stable_bucket_vec

    docs = _docs(sf_dir, ["doc_id", "text", "lang"]).materialize()

    def census(b: pd.DataFrame) -> pd.DataFrame:
        langs = b["lang"].astype(str)
        toks = b["text"].astype(str).str.split(" ")
        counts = toks.str.len().to_numpy()
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        buckets = stable_bucket_vec(flat, NB_BUCKETS).astype("int64")
        # bucket = -1 rows carry the per-class DOCUMENT counts (priors)
        return pd.DataFrame(
            {"c": np.concatenate([np.repeat(langs.to_numpy(), counts),
                                  langs.to_numpy()]),
             "bucket": np.concatenate([buckets, np.full(len(b), -1, "int64")]),
             "n": 1}
        )

    cen = fold_groups(  # ≤ classes × (B+1) rows
        docs.map_batches(arrow_out(census), batch_format="pandas"),
        ["c", "bucket"], [("n", "sum")])
    classes = np.array(sorted(cen["c"].unique()))
    c_idx = {c: i for i, c in enumerate(classes)}
    C = len(classes)
    doc_counts = np.zeros(C, "int64")
    tok_counts = np.zeros((C, NB_BUCKETS), "int64")
    for c, bucket, n in cen.itertuples(index=False):  # model-sized loop
        if bucket < 0:
            doc_counts[c_idx[c]] = n
        else:
            tok_counts[c_idx[c], bucket] = n
    totals = tok_counts.sum(axis=1)
    log_p = np.round(
        np.log((tok_counts + 1.0) / (totals[:, None] + float(NB_BUCKETS))), 6
    )
    prior = np.round(np.log(doc_counts / doc_counts.sum()), 6)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        counts = toks.str.len().to_numpy()
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        buckets = stable_bucket_vec(flat, NB_BUCKETS).astype("int64")
        doc_idx = np.repeat(np.arange(len(b)), counts)
        acc = np.tile(prior, (len(b), 1))
        np.add.at(acc, doc_idx, log_p[:, buckets].T)
        acc = np.round(acc, 6)
        best = acc.argmax(axis=1)  # first max → ascending-class tiebreak
        return pd.DataFrame(
            {"doc_id": pd.array(b["doc_id"].to_numpy("int64"), "int64"),
             "lang": pd.array(b["lang"].astype(str), "str"),
             "pred_lang": pd.array(classes[best], "str"),
             "score": acc[np.arange(len(b)), best]}
        )

    return docs.map_batches(arrow_out(score), batch_format="pandas")


def nb_langid_sql() -> str:
    """DuckDB oracle for ``docs_nb_langid`` — identical arithmetic:
    md5%B buckets, add-1-smoothed per-class LMs with 6-dp pre-rounded
    log-probs, 6-dp rounded priors and final scores, ascending-class
    tie-break on the argmax."""
    B = NB_BUCKETS
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), b AS (
  SELECT doc_id,
         CAST(('0x' || substr(md5(tok), 1, 8))::UBIGINT % {B} AS BIGINT)
           AS bucket
  FROM toks
), cls AS (
  SELECT lang AS c, CAST(count(*) AS BIGINT) AS n_docs FROM documents
  GROUP BY 1
), nd AS (SELECT SUM(n_docs) AS total FROM cls),
cen AS (
  SELECT d.lang AS c, b.bucket, CAST(count(*) AS BIGINT) AS n
  FROM b JOIN documents d USING (doc_id) GROUP BY 1, 2
), tot AS (SELECT c, SUM(n) AS t FROM cen GROUP BY 1),
lp AS (
  SELECT cls.c, g.bucket,
         round(ln((COALESCE(cen.n, 0) + 1.0) / (tot.t + {B})), 6) AS lw
  FROM cls
  CROSS JOIN (SELECT unnest(range(0, {B})) AS bucket) g
  JOIN tot ON tot.c = cls.c
  LEFT JOIN cen ON cen.c = cls.c AND cen.bucket = g.bucket
), prior AS (
  SELECT c, round(ln(n_docs * 1.0 / total), 6) AS pw FROM cls, nd
), docscore AS (
  SELECT b.doc_id, lp.c, round(prior.pw + SUM(lp.lw), 6) AS score
  FROM b JOIN lp USING (bucket) JOIN prior ON prior.c = lp.c
  GROUP BY b.doc_id, lp.c, prior.pw
), ranked AS (
  SELECT s.doc_id, s.c, s.score,
         row_number() OVER (PARTITION BY s.doc_id
                            ORDER BY s.score DESC, s.c ASC) AS rn
  FROM docscore s
)
SELECT r.doc_id, d.lang, r.c AS pred_lang, r.score
FROM ranked r JOIN documents d ON d.doc_id = r.doc_id
WHERE r.rn = 1
"""


# -- fixed-radius cosine range search ------------------------------------------

KNN_RANGE_T = 0.25


def knn_range_q0(sf_dir: str):
    """All vectors within cosine radius ``KNN_RANGE_T`` of vec 0 —
    the streaming filter-map sibling of ``knn_cosine_q0`` (no sort, no
    limit, no exchange; see `stages/similarity.py:knn_cosine_range`)."""
    from ..stages.similarity import knn_cosine_range

    return knn_cosine_range(_embeddings(sf_dir), _query_vec(sf_dir),
                            KNN_RANGE_T)


KNN_RANGE_SQL = f"""
SELECT vec_id,
       round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
             (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
              WHERE vec_id = 0)), 6) AS sim
FROM embeddings
WHERE round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
            (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
             WHERE vec_id = 0)), 6) >= {KNN_RANGE_T}
"""


# -- per-source log-odds keyword extraction ------------------------------------

ODDS_MIN_C = 5


def docs_odds_ratio(sf_dir: str):
    """Smoothed log-odds-ratio keyness per (source, token) — which words
    characterize a source against the rest of the corpus (Monroe et al.
    2008 'Fightin' Words' family, add-1 smoothing): the
    corpus-comparison operator behind domain-mix diagnostics and
    source-conditioned quality filters.

    score = ln( (c_sw+1)·(n_rest+V) / ((c_w−c_sw+1)·(n_s+V)) ), emitted
    as the floor-micro-nat integer (glibc-log parity); every factor is
    an exact int64 product, ONE double division feeds ln.

    Distributed shape: per-batch (source, token) count partials → ONE
    token-bucketed exchange to the vocab-sized census (materialized —
    it is consumed by three bounded follow-ups: per-source totals,
    distinct-vocabulary count, and the scoring map with the broadcast
    constants).  Sources are a bounded artifact; the vocabulary never
    is — it stays distributed, only per-bucket counts leave."""
    import ray

    from ..stages.shuffle import bucketed_group_map
    from ..functions.arrow import arrow_out

    docs = _docs(sf_dir, ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        acc: dict[tuple[str, str], int] = {}
        for src, text in zip(b["source"].astype(str), b["text"].astype(str)):
            for t in text.split(" "):
                k = (src, t)
                acc[k] = acc.get(k, 0) + 1
        keys = sorted(acc)
        return pd.DataFrame(
            {"source": pd.array([k[0] for k in keys], "str"),
             "token": pd.array([k[1] for k in keys], "str"),
             "c": pd.array([acc[k] for k in keys], "int64")}
        )

    census = bucketed_group_map(
        docs.map_batches(arrow_out(partial), batch_format="pandas"),
        ["token"],
        lambda g: g.groupby(["source", "token"], sort=False, as_index=False)[
            "c"].sum(),
    ).materialize()  # vocab×sources-sized; three bounded consumers

    n_s = fold_groups(  # ≤ |sources| rows
        census.select_columns(["source", "c"]), ["source"], [("c", "sum")]
    ).set_index("source")["c"].astype(int).to_dict()
    n_all = int(sum(n_s.values()))
    # distinct vocabulary: per-BUCKET distinct is exact (buckets are
    # token-disjoint and the group map sees the whole bucket — a plain
    # map_batches partial could split a bucket and double-count)
    v = int(fold_groups(bucketed_group_map(
        census, ["token"],
        lambda g: pd.DataFrame({"v": pd.array([g["token"].nunique()],
                                              "int64")}),
        num_buckets=4,
    ), [], [("v", "sum")])["v"].iloc[0])
    consts = ray.put((n_s, n_all, v))

    def score(g: pd.DataFrame) -> pd.DataFrame:
        import math

        ns_d, na, vv = ray.get(consts)
        out = []
        for tok, sub in g.groupby("token", sort=False):
            cw = int(sub["c"].sum())
            for src, c in zip(sub["source"], sub["c"]):
                c = int(c)
                if c < ODDS_MIN_C:
                    continue
                ns = ns_d[src]
                arg = ((c + 1) * (na - ns + vv)) / ((cw - c + 1) * (ns + vv))
                out.append((src, tok, c,
                            math.floor(math.log(arg) * 1e6 + 0.5)))
        return pd.DataFrame(
            {"source": pd.array([o[0] for o in out], "str"),
             "token": pd.array([o[1] for o in out], "str"),
             "c": pd.array([o[2] for o in out], "int64"),
             "lor_micro": pd.array([o[3] for o in out], "int64")}
        )

    return bucketed_group_map(census, ["token"], score)


ODDS_RATIO_SQL = f"""
WITH tok AS (
  SELECT source, unnest(string_split(text, ' ')) AS token FROM documents
),
c AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c
      FROM tok GROUP BY 1, 2),
ns AS (SELECT source, CAST(SUM(c) AS BIGINT) AS n FROM c GROUP BY 1),
tot AS (SELECT CAST(SUM(c) AS BIGINT) AS n_all,
               CAST(COUNT(DISTINCT token) AS BIGINT) AS v FROM c),
cw AS (SELECT token, CAST(SUM(c) AS BIGINT) AS cw FROM c GROUP BY 1)
SELECT c.source, c.token, c.c,
       CAST(FLOOR(LN(CAST((c.c + 1) * (tot.n_all - ns.n + tot.v) AS DOUBLE)
                     / CAST((cw.cw - c.c + 1) * (ns.n + tot.v) AS DOUBLE))
                  * 1000000 + 0.5) AS BIGINT) AS lor_micro
FROM c JOIN ns USING (source) JOIN cw USING (token) CROSS JOIN tot
WHERE c.c >= {ODDS_MIN_C}
"""


# -- bigram LM quality scoring -------------------------------------------------

def docs_bigram_lm(sf_dir: str):
    """Per-doc bigram-LM log-probability with add-1 smoothing — the
    second-order sibling of ``docs_unigram_logprob`` (CCNet-style LM
    quality filtering; a doc whose transitions are unusual for the
    corpus scores low): addend(x,y) = ln((c_xy+1)/(c_x+V)) where c_x
    counts x as a bigram CONTEXT and V is the unigram vocabulary.

    Integer contract: each DISTINCT bigram's addend is the micro-nat
    int ``floor(1e6·ln(p) + 0.5)`` (glibc-log parity, computed once per
    bigram); a doc's score is an order-immune int64 sum.  Emits
    (doc_id, n_bigrams, sum_micro); docs with <2 tokens have no bigram
    and no row (the SQL GROUP BY contract).

    Distributed shape: one corpus pass builds the bigram census via the
    doc-boundary-masked shifted-slice kernel (no per-doc loop), the
    vocabulary→addend map broadcasts (vocabulary-bounded; the unbounded
    variant is the hashed-bucket `docs_dsir` posture), one scoring pass
    maps and segment-sums."""
    import math

    import numpy as np

    docs = _docs(sf_dir, ["doc_id", "text"]).materialize()

    def flat_bigrams(b: pd.DataFrame):
        toks = b["text"].astype(str).str.split(" ")
        lens = toks.str.len().to_numpy()
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        di = np.repeat(np.arange(len(b)), lens)
        same = di[:-1] == di[1:] if len(flat) else np.array([], bool)
        return flat, lens, di, same

    def census(b: pd.DataFrame) -> pd.DataFrame:
        flat, _, _, same = flat_bigrams(b)
        x = flat[:-1][same]
        y = flat[1:][same]
        key = np.char.add(np.char.add(x.astype(str), " "), y.astype(str))
        return pd.DataFrame(
            {"key": pd.array(np.concatenate([key, flat]).astype(str), "str"),
             "kind": pd.array(["b"] * len(key) + ["t"] * len(flat), "str"),
             "n": 1}
        )

    cen = fold_groups(  # vocabulary-bounded artifact
        docs.map_batches(arrow_out(census), batch_format="pandas"),
        ["kind", "key"], [("n", "sum")]).set_index(["kind", "key"])["n"]
    big = cen.loc["b"]
    v = len(cen.loc["t"])
    # context counts: occurrences of x as the FIRST element of a bigram
    cx: dict[str, int] = {}
    for k, n in big.items():
        x = k.split(" ", 1)[0]
        cx[x] = cx.get(x, 0) + int(n)
    addend = {
        k: math.floor(
            math.log((int(n) + 1) / (cx[k.split(" ", 1)[0]] + v)) * 1e6
            + 0.5
        )
        for k, n in big.items()
    }

    def score(b: pd.DataFrame) -> pd.DataFrame:
        flat, lens, di, same = flat_bigrams(b)
        x = flat[:-1][same]
        y = flat[1:][same]
        key = np.char.add(np.char.add(x.astype(str), " "), y.astype(str))
        vals = pd.Series(key).map(addend).to_numpy(dtype=np.int64)
        sums = np.zeros(len(b), dtype=np.int64)
        counts = np.zeros(len(b), dtype=np.int64)
        owner = di[:-1][same]
        np.add.at(sums, owner, vals)
        np.add.at(counts, owner, 1)
        keep = counts > 0
        return pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy("int64")[keep],
             "n_bigrams": pd.array(counts[keep], "int64"),
             "sum_micro": pd.array(sums[keep], "int64")}
        )

    return docs.map_batches(arrow_out(score), batch_format="pandas")


BIGRAM_LM_SQL = """
WITH t AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
),
big AS (
  SELECT doc_id, tok AS x,
         lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS y
  FROM t QUALIFY y IS NOT NULL
),
cxy AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM big GROUP BY 1, 2),
cx AS (SELECT x, CAST(COUNT(*) AS BIGINT) AS n FROM big GROUP BY 1),
vv AS (SELECT CAST(COUNT(DISTINCT tok) AS BIGINT) AS v FROM t),
a AS (
  SELECT cxy.x, cxy.y,
         CAST(FLOOR(LN((cxy.n + 1) / CAST(cx.n + vv.v AS DOUBLE)) * 1000000
                    + 0.5) AS BIGINT) AS add_micro
  FROM cxy JOIN cx USING (x) CROSS JOIN vv
)
SELECT big.doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       CAST(SUM(a.add_micro) AS BIGINT) AS sum_micro
FROM big JOIN a USING (x, y)
GROUP BY 1
"""


# -- per-label embedding centroids ---------------------------------------------

def embed_label_centroids(sf_dir: str):
    """Per-(label, dimension) vector sums — the class-centroid statistic
    (nearest-centroid classifiers, SemDeDup seeding, drift monitoring)
    as mergeable partials: each batch contributes label-grouped
    fixed-point component sums, one tiny (labels×dims) exchange folds
    them.  Emitting (n, Σmicro) instead of the mean keeps the contract
    integer-exact (``floor(v·1e6 + 0.5)`` per component — float32→double
    is exact, so both engines floor the same double)."""
    import numpy as np

    emb = _embeddings(sf_dir)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"label": pd.array([], "int32"),
                 "dim": pd.array([], "int64"),
                 "n_vecs": pd.array([], "int64"),
                 "sum_micro": pd.array([], "int64")})
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in b["embedding"]])
        micro = np.floor(mat * 1e6 + 0.5).astype("int64")
        labels = b["label"].to_numpy()
        u = np.unique(labels)
        rows = []
        for lab in u:
            m = labels == lab
            s = micro[m].sum(axis=0)
            rows.append(pd.DataFrame(
                {"label": pd.array([lab] * micro.shape[1], "int32"),
                 "dim": pd.array(np.arange(1, micro.shape[1] + 1), "int64"),
                 "n_vecs": pd.array([int(m.sum())] * micro.shape[1],
                                    "int64"),
                 "sum_micro": pd.array(s, "int64")}))
        return pd.concat(rows, ignore_index=True)

    agg = fold_groups(  # ≤ |labels| × dims rows
        emb.map_batches(arrow_out(partial), batch_format="pandas"),
        ["label", "dim"], [("n_vecs", "sum"), ("sum_micro", "sum")])
    # the fold widens the int32 key; the driver compare is dtype-strict
    # against the oracle's int32 label
    return agg.astype({"label": "int32"})


LABEL_CENTROIDS_SQL = """
WITH e AS (
  SELECT label, unnest(CAST(embedding AS DOUBLE[])) AS v,
         CAST(generate_subscripts(embedding, 1) AS BIGINT) AS dim
  FROM embeddings
)
SELECT label, dim,
       CAST(COUNT(*) AS BIGINT) AS n_vecs,
       CAST(SUM(CAST(FLOOR(v * 1000000 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_micro
FROM e GROUP BY 1, 2
"""


# -- Zipf's-law fit over the token census --------------------------------------

def docs_zipf(sf_dir: str):
    """Zipf's-law fit of the corpus token distribution: OLS of
    ln(freq) on ln(rank) over the full frequency-ranked vocabulary —
    the corpus-health diagnostic (natural text slopes ≈ −1; template
    spam and boilerplate bend the tail).  Output: the six exact moment
    integers + the floor-micro slope and intercept.

    The scale-shaped part is the GLOBAL RANK with no sort operator:
    census counts map through the monotone shift ``(−n) >> 8`` to
    ordered range buckets (bucket order IS descending-frequency order —
    the ``orders_abc`` idiom; ties on (n, token) stay inside one bucket
    because the bucket key is a function of n alone), pass 1 exchanges
    per-bucket counts (driver prefix-sums rank offsets), pass 2 ranks
    in-bucket and folds integer moment partials.

    Integer contract: per-token addends x = floor(1e6·ln rank + 0.5),
    y = floor(1e6·ln n + 0.5) (glibc-log parity); Σxy/Σxx/Σyy travel as
    two int64 limbs; the slope/intercept are mirrored double
    expressions of the reassembled exact ints."""
    import math

    import numpy as np
    import ray

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["text"])

    def census_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        u, c = np.unique(flat, return_counts=True)
        return pd.DataFrame(
            {"tok": pd.array(u, "str"),
             "n": pd.array(c.astype("int64"), "int64")}
        )

    census = bucketed_group_map(
        docs.map_batches(arrow_out(census_partial), batch_format="pandas"),
        ["tok"],
        lambda g: g.groupby("tok", sort=False, as_index=False)["n"].sum(),
    )

    def vbucket(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        out["vbucket"] = (-out["n"].to_numpy("int64")) >> 8
        return out

    keyed = census.map_batches(
        arrow_out(vbucket), batch_format="pandas"
    ).materialize()  # two passes: bucket census, then rank+moments

    counts = fold_groups(  # ≤ range-buckets rows
        keyed.map_batches(
            arrow_out(lambda b: pd.DataFrame({"vbucket": b["vbucket"], "c": 1})),
            batch_format="pandas"),
        ["vbucket"], [("c", "sum")]).set_index("vbucket")["c"]
    rank_off = counts.cumsum().shift(fill_value=0)
    off_ref = ray.put({int(vb): int(o) for vb, o in rank_off.items()})

    LIMB = 10 ** 15

    def moments_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        rows = []
        for vb, sub in g.groupby("vbucket", sort=False):
            s = sub.sort_values(["n", "tok"], kind="mergesort",
                                ascending=[False, True])
            rank = off[int(vb)] + 1 + np.arange(len(s), dtype="int64")
            x = np.floor(np.log(rank.astype("float64")) * 1e6 + 0.5
                         ).astype("int64")
            y = np.floor(np.log(s["n"].to_numpy("float64")) * 1e6 + 0.5
                         ).astype("int64")
            sxy = sum(int(a) * int(b) for a, b in zip(x, y))
            sxx = sum(int(a) * int(a) for a in x)
            syy = sum(int(a) * int(a) for a in y)
            rows.append((len(s), int(x.sum()), int(y.sum()), sxx, sxy, syy))
        out = pd.DataFrame(rows, columns=["n", "sx", "sy", "sxx", "sxy",
                                          "syy"])
        for c in ("sxx", "sxy", "syy"):
            out[f"{c}_lo"] = pd.array([v % LIMB for v in out[c]], "int64")
            out[f"{c}_hi"] = pd.array([v // LIMB for v in out[c]], "int64")
        out = out.drop(columns=["sxx", "sxy", "syy"])
        return out.astype({"n": "int64", "sx": "int64", "sy": "int64"})

    m = fold_groups(
        bucketed_group_map(keyed, ["vbucket"], moments_bucket), [],
        [(c, "sum") for c in ("n", "sx", "sy", "sxx_lo", "sxx_hi", "sxy_lo",
                              "sxy_hi", "syy_lo", "syy_hi")]).iloc[0]
    n = int(m["n"])
    sx, sy = int(m["sx"]), int(m["sy"])
    sxx = int(m["sxx_hi"]) * LIMB + int(m["sxx_lo"])
    sxy = int(m["sxy_hi"]) * LIMB + int(m["sxy_lo"])
    syy = int(m["syy_hi"]) * LIMB + int(m["syy_lo"])
    slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
    intercept = (float(sy) - slope * sx) / n
    return pd.DataFrame(
        {"n_tokens": pd.array([n], "int64"),
         "sx": pd.array([sx], "int64"), "sy": pd.array([sy], "int64"),
         "sxx": pd.array([sxx], "int64"), "sxy": pd.array([sxy], "int64"),
         "syy": pd.array([syy], "int64"),
         "slope_micro": pd.array(
             [math.floor(slope * 1e6 + 0.5)], "int64"),
         "intercept_micro": pd.array(
             [math.floor(intercept * 1e6 + 0.5)], "int64")}
    )


ZIPF_SQL = """
WITH cen AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS n FROM (
    SELECT unnest(string_split(text, ' ')) AS tok FROM documents
  ) GROUP BY 1
),
r AS (
  SELECT CAST(row_number() OVER (ORDER BY n DESC, tok) AS BIGINT) AS rank,
         n
  FROM cen
),
a AS (
  SELECT CAST(FLOOR(LN(CAST(rank AS DOUBLE)) * 1000000 + 0.5) AS BIGINT)
           AS x,
         CAST(FLOOR(LN(CAST(n AS DOUBLE)) * 1000000 + 0.5) AS BIGINT) AS y
  FROM r
),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_tokens,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         SUM(CAST(x AS HUGEINT) * x) AS sxx,
         SUM(CAST(x AS HUGEINT) * y) AS sxy,
         SUM(CAST(y AS HUGEINT) * y) AS syy
  FROM a
)
SELECT n_tokens, sx, sy,
       CAST(sxx AS BIGINT) AS sxx, CAST(sxy AS BIGINT) AS sxy,
       CAST(syy AS BIGINT) AS syy,
       CAST(FLOOR(
         CAST(CAST(n_tokens AS HUGEINT) * sxy
              - CAST(sx AS HUGEINT) * sy AS DOUBLE)
         / CAST(CAST(n_tokens AS HUGEINT) * sxx
                - CAST(sx AS HUGEINT) * sx AS DOUBLE)
         * 1000000 + 0.5) AS BIGINT) AS slope_micro,
       CAST(FLOOR(
         (CAST(sy AS DOUBLE)
          - CAST(CAST(n_tokens AS HUGEINT) * sxy
                 - CAST(sx AS HUGEINT) * sy AS DOUBLE)
            / CAST(CAST(n_tokens AS HUGEINT) * sxx
                   - CAST(sx AS HUGEINT) * sx AS DOUBLE)
            * sx)
         / n_tokens * 1000000 + 0.5) AS BIGINT) AS intercept_micro
FROM s
"""


# -- kNN graph construction ----------------------------------------------------

KNN_GRAPH_K = 5


def embed_knn_graph(sf_dir: str):
    """Exact cosine kNN GRAPH: every vector's top-``KNN_GRAPH_K``
    neighbors (self excluded, 6-dp sims, neighbor-id tiebreak) — the
    similarity-graph construction feeding clustering, label propagation
    and graph-based dedup.

    Shape: brute-exact baseline — the corpus matrix is ray.put-broadcast
    once and every batch matmuls against it (one pass, no exchange;
    O(N·B·d) per batch).  This is the same adaptive posture as
    ``knn_cosine``'s brute front: for corpora past the broadcast budget
    the IVF/PQ paths (`stages/similarity.py`) bound the candidate set
    per probe and this map becomes probe-vs-centroid-bucket; the
    all-pairs exact graph itself is inherently O(N²d) — SemDeDup-style
    cluster restriction is the scale substitute."""
    import numpy as np
    import ray

    emb = _embeddings(sf_dir).materialize()
    full = emb.to_pandas()
    ids = full["vec_id"].to_numpy("int64")
    mat = np.stack([np.asarray(v, dtype=np.float64)
                    for v in full["embedding"]])
    norms = np.linalg.norm(mat, axis=1)
    matn = mat / np.where(norms == 0, 1.0, norms)[:, None]
    ref = ray.put((ids, matn))

    def batch_fn(b: pd.DataFrame) -> pd.DataFrame:
        aids, amat = ray.get(ref)
        q = np.stack([np.asarray(v, dtype=np.float64)
                      for v in b["embedding"]])
        qn = np.linalg.norm(q, axis=1)
        q = q / np.where(qn == 0, 1.0, qn)[:, None]
        sims = np.round(q @ amat.T, 6)  # (B, N)
        bids = b["vec_id"].to_numpy("int64")
        self_mask = bids[:, None] == aids[None, :]
        sims[self_mask] = -np.inf
        # top-k by (-sim, neighbor_id): lexsort per row
        order = np.lexsort((np.broadcast_to(aids, sims.shape), -sims),
                           axis=1)[:, :KNN_GRAPH_K]
        rows = np.repeat(bids, KNN_GRAPH_K)
        cols = aids[order.ravel()]
        vals = np.take_along_axis(sims, order, axis=1).ravel()
        return pd.DataFrame(
            {"vec_id": pd.array(rows, "int64"),
             "neighbor": pd.array(cols, "int64"),
             "sim": vals.astype("float64")}
        )

    return emb.map_batches(arrow_out(batch_fn), batch_format="pandas",
                           batch_size=1024)


KNN_GRAPH_SQL = f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
),
p AS (
  SELECT a.vec_id AS va, b.vec_id AS vb,
         round(list_cosine_similarity(a.v, b.v), 6) AS sim
  FROM e a JOIN e b ON a.vec_id <> b.vec_id
),
r AS (
  SELECT va, vb, sim,
         row_number() OVER (PARTITION BY va ORDER BY sim DESC, vb) AS rn
  FROM p
)
SELECT va AS vec_id, vb AS neighbor, sim FROM r WHERE rn <= {KNN_GRAPH_K}
"""


# -- LSH quality evaluation against the exact join -----------------------------

def docs_minhash_eval(sf_dir: str):
    """Candidate-quality report for MinHash-LSH: recall/precision of the
    ORACLED LSH candidate pairs (``docs_minhash_pairs``, est. Jaccard ≥
    0.5) against the ORACLED exact pairs (``docs_jaccard_prefix``,
    true Jaccard ≥ 0.5) — dedup-pipeline tuning as a first-class
    pipeline, not a notebook: both sides and the intersection are
    SQL-verified, so the report itself oracles end to end.

    Shape: both chains run lazily, rows tagged (is_lsh, is_true) union
    into ONE pair-bucketed exchange; per-bucket combo counts (a pair's
    two tags co-locate) fold to a single driver row.  recall/precision
    ride as exact basis-point ints in a float64 carrier (NaN when the
    denominator is 0)."""
    import numpy as np
    import ray.data as rd

    from ..stages.shuffle import bucketed_group_map

    def tag(is_lsh: int):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"doc_a": b["doc_a"].astype("int64"),
                 "doc_b": b["doc_b"].astype("int64"),
                 "is_lsh": pd.array([is_lsh] * len(b), "int64"),
                 "is_true": pd.array([1 - is_lsh] * len(b), "int64")}
            )
        return fn

    lsh = docs_minhash_pairs(sf_dir).map_batches(
        arrow_out(tag(1)), batch_format="pandas")
    true = docs_jaccard_prefix(sf_dir).map_batches(
        arrow_out(tag(0)), batch_format="pandas")

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        p = g.groupby(["doc_a", "doc_b"], sort=False)[["is_lsh", "is_true"]
                                                      ].max()
        return pd.DataFrame({"n_cand": p["is_lsh"], "n_true": p["is_true"],
                             "n_hit": p["is_lsh"] & p["is_true"]})

    parts = fold_groups(
        bucketed_group_map(lsh.union(true), ["doc_a", "doc_b"], bucket), [],
        [("n_cand", "sum"), ("n_true", "sum"), ("n_hit", "sum")]).iloc[0]
    n_cand = int(parts["n_cand"])
    n_true = int(parts["n_true"])
    n_hit = int(parts["n_hit"])
    return pd.DataFrame(
        {"n_candidates": pd.array([n_cand], "int64"),
         "n_true": pd.array([n_true], "int64"),
         "n_hit": pd.array([n_hit], "int64"),
         "recall_bp": pd.array(
             [float(n_hit * 10_000 // n_true) if n_true else np.nan],
             "float64"),
         "precision_bp": pd.array(
             [float(n_hit * 10_000 // n_cand) if n_cand else np.nan],
             "float64")}
    )


def minhash_eval_sql() -> str:
    return (
        f"WITH lsh AS ({MINHASH_PAIRS_SQL}),\n"
        f"ex AS ({JACCARD_PREFIX_SQL}),\n"
        "hit AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM lsh\n"
        "        JOIN ex USING (doc_a, doc_b)),\n"
        "c AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM lsh),\n"
        "t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM ex)\n"
        "SELECT c.n AS n_candidates, t.n AS n_true, hit.n AS n_hit,\n"
        "       CAST(CASE WHEN t.n = 0 THEN NULL\n"
        "                 ELSE (hit.n * 10000) // t.n END AS DOUBLE)\n"
        "         AS recall_bp,\n"
        "       CAST(CASE WHEN c.n = 0 THEN NULL\n"
        "                 ELSE (hit.n * 10000) // c.n END AS DOUBLE)\n"
        "         AS precision_bp\n"
        "FROM c, t, hit"
    )


# -- RAKE keyphrase extraction -------------------------------------------------

RAKE_STOP = ("the", "a", "an", "of", "to", "in", "and", "or", "is", "on",
             "for", "with", "by", "at", "as", "it", "this", "that")
RAKE_MAX_LEN = 4
RAKE_K = 30


def docs_rake(sf_dir: str):
    """RAKE keyphrase extraction (Rose et al. 2010): candidate phrases
    are maximal stopword-free token runs (≤ ``RAKE_MAX_LEN`` words);
    each word scores deg/freq over ALL phrase occurrences (deg = Σ
    phrase length, freq = occurrence count) and a phrase scores the sum
    of its words — the corpus-keyphrase miner feeding taxonomy seeds
    and KG relation vocabularies.

    Integer contract: the per-word addend is ``(deg·10⁶) // freq``
    (exact int floor-division), a phrase's score an order-immune int64
    sum; top-``RAKE_K`` by (score desc, phrase asc).

    Shape: doc-local phrase mining (island detection over the
    boundary-masked token stream — one cumsum, no per-doc loop; the
    per-phrase string join is the ``user_path`` grouped-agg kernel) →
    phrase-census exchange (materialized: consumed by the word-stats
    fold and the scoring map) → vocab-bounded word-stats artifact
    broadcast → score + bounded top-k."""
    import numpy as np
    import ray

    from ..stages.shuffle import bucketed_group_map

    stop = frozenset(RAKE_STOP)
    docs = _docs(sf_dir, ["text"])

    def phrase_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        lens = toks.str.len().to_numpy()
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        di = np.repeat(np.arange(len(b)), lens)
        keep = ~pd.Series(flat).isin(stop).to_numpy()
        if not keep.any():
            return pd.DataFrame({"phrase": pd.array([], "str"),
                                 "n_occ": pd.array([], "int64")})
        # a kept token starts a new phrase unless its predecessor is
        # kept and in the same doc
        prev_keep = np.concatenate([[False], keep[:-1]])
        same_doc = np.concatenate([[False], di[1:] == di[:-1]])
        new_phrase = keep & ~(prev_keep & same_doc)
        pid = np.cumsum(new_phrase)[keep]  # phrase id per kept token
        words = flat[keep]
        s = pd.Series(words).groupby(pid, sort=False)
        phrases = s.agg(" ".join)
        plen = s.size()
        ok = plen <= RAKE_MAX_LEN
        c = phrases[ok].value_counts()
        return pd.DataFrame({"phrase": pd.array(c.index, "str"),
                             "n_occ": pd.array(c.to_numpy(), "int64")})

    census = bucketed_group_map(
        docs.map_batches(arrow_out(phrase_partial), batch_format="pandas"),
        ["phrase"],
        lambda g: g.groupby("phrase", sort=False, as_index=False)["n_occ"]
        .sum(),
    ).materialize()  # phrase census; two consumers

    def word_partial(b: pd.DataFrame) -> pd.DataFrame:
        # additive under any batch split
        ws = b["phrase"].astype(str).str.split(" ")
        wl = ws.str.len().to_numpy()
        n = b["n_occ"].to_numpy("int64")
        flat = np.concatenate(ws.to_numpy()) if len(b) else np.array([], str)
        freq = np.repeat(n, wl)
        deg = np.repeat(n * wl, wl)
        return pd.DataFrame({"word": flat, "freq": freq, "deg": deg})

    ws = fold_groups(  # vocab-bounded artifact
        census.map_batches(arrow_out(word_partial), batch_format="pandas"),
        ["word"], [("freq", "sum"), ("deg", "sum")]).set_index("word")
    score_w = {w: (int(r.deg) * 1_000_000) // int(r.freq)
               for w, r in ws.iterrows()}
    ref = ray.put(score_w)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        sw = ray.get(ref)
        scores = [sum(sw[w] for w in p.split(" "))
                  for p in b["phrase"].astype(str)]
        return pd.DataFrame({"phrase": pd.array(b["phrase"], "str"),
                             "n_occ": b["n_occ"].astype("int64"),
                             "score_micro": pd.array(scores, "int64")})

    return (
        census.map_batches(arrow_out(score), batch_format="pandas")
        .sort(["score_micro", "phrase"], descending=[True, False])
        .limit(RAKE_K)
    )


def rake_sql() -> str:
    stoplist = ", ".join(f"'{w}'" for w in RAKE_STOP)
    return f"""
WITH t AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
),
nz AS (
  SELECT doc_id, tok, i,
         i - row_number() OVER (PARTITION BY doc_id ORDER BY i) AS grp
  FROM t WHERE tok NOT IN ({stoplist})
),
ph AS (
  SELECT doc_id, grp, string_agg(tok, ' ' ORDER BY i) AS phrase,
         COUNT(*) AS len
  FROM nz GROUP BY 1, 2
),
pc AS (
  SELECT phrase, CAST(MAX(len) AS BIGINT) AS len,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM ph WHERE len <= {RAKE_MAX_LEN} GROUP BY 1
),
w AS (SELECT unnest(string_split(phrase, ' ')) AS word, len, n FROM pc),
ws AS (
  SELECT word, CAST(SUM(n) AS BIGINT) AS freq,
         CAST(SUM(n * len) AS BIGINT) AS deg
  FROM w GROUP BY 1
),
pw AS (
  SELECT phrase, unnest(string_split(phrase, ' ')) AS word FROM pc
),
scored AS (
  SELECT pc.phrase, pc.n AS n_occ,
         CAST(SUM((ws.deg * 1000000) // ws.freq) AS BIGINT) AS score_micro
  FROM pc JOIN pw USING (phrase) JOIN ws USING (word)
  GROUP BY 1, 2
)
SELECT phrase, n_occ, score_micro FROM scored
ORDER BY score_micro DESC, phrase LIMIT {RAKE_K}
"""


# -- per-vector affinity to its label centroid ---------------------------------

def embed_label_affinity(sf_dir: str):
    """Cosine of every vector to its OWN label's centroid — the
    embedding-quality / outlier-mining enrichment (low affinity = label
    noise or drift candidates; threshold client-side).  Scale
    invariance of cosine lets the centroid stay the RAW fixed-point
    component SUM (no division, no float mean): dot, |v|² and |S|² are
    exact ints (HUGEINT in the oracle) and ONE mirrored double
    expression emits floor-micro cosine.

    Shape: pass 1 folds the labels×dims fixed-point sum artifact
    (bounded, broadcast); pass 2 scores each batch vectorized.  int64
    headroom: dot ≤ n_label·d·(10⁶·|v|∞)² — for corpora past ~10⁹
    unit vectors per label move the score pass to float128/two-limb."""
    import math

    import numpy as np
    import ray

    emb = _embeddings(sf_dir).materialize()

    def sum_partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"label": pd.array([], "int32"),
                                 "dim": pd.array([], "int64"),
                                 "sq": pd.array([], "int64")})
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in b["embedding"]])
        micro = np.floor(mat * 1e6 + 0.5).astype("int64")
        labels = b["label"].to_numpy()
        rows = []
        for lab in np.unique(labels):
            s = micro[labels == lab].sum(axis=0)
            rows.append(pd.DataFrame(
                {"label": pd.array([lab] * micro.shape[1], "int32"),
                 "dim": pd.array(np.arange(1, micro.shape[1] + 1), "int64"),
                 "sq": pd.array(s, "int64")}))
        return pd.concat(rows, ignore_index=True)

    sums = fold_groups(  # labels×dims artifact
        emb.map_batches(arrow_out(sum_partial), batch_format="pandas"),
        ["label", "dim"], [("sq", "sum")]).set_index(["label", "dim"])["sq"]
    cents: dict[int, np.ndarray] = {}
    ns: dict[int, int] = {}
    for lab in sums.index.get_level_values(0).unique():
        v = sums.loc[lab].sort_index().to_numpy("int64")
        cents[int(lab)] = v
        ns[int(lab)] = int(sum(int(x) * int(x) for x in v))
    ref = ray.put((cents, ns))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        cd, nsd = ray.get(ref)
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in b["embedding"]]) if len(b) else \
            np.zeros((0, 1))
        micro = np.floor(mat * 1e6 + 0.5).astype("int64")
        labels = b["label"].to_numpy()
        out = []
        for i in range(len(b)):
            s = cd[int(labels[i])]
            dot = int(np.dot(micro[i], s))
            nv = int(np.dot(micro[i], micro[i]))
            c = math.floor(
                1e6 * dot / math.sqrt(float(nv) * float(nsd[int(labels[i])]))
                + 0.5)
            out.append(c)
        return pd.DataFrame(
            {"vec_id": b["vec_id"].astype("int64"),
             "label": b["label"].astype("int32"),
             "cos_micro": pd.array(out, "int64")}
        )

    return emb.map_batches(arrow_out(score), batch_format="pandas")


LABEL_AFFINITY_SQL = """
WITH v AS (
  SELECT vec_id, label,
         CAST(FLOOR(unnest(CAST(embedding AS DOUBLE[])) * 1000000 + 0.5)
              AS BIGINT) AS vq,
         CAST(generate_subscripts(embedding, 1) AS BIGINT) AS dim
  FROM embeddings
),
s AS (SELECT label, dim, CAST(SUM(vq) AS BIGINT) AS sq FROM v GROUP BY 1, 2),
d AS (
  SELECT v.vec_id, v.label,
         CAST(SUM(CAST(v.vq AS HUGEINT) * s.sq) AS BIGINT) AS dot,
         CAST(SUM(CAST(v.vq AS HUGEINT) * v.vq) AS BIGINT) AS nv
  FROM v JOIN s ON s.label = v.label AND s.dim = v.dim
  GROUP BY 1, 2
),
ns AS (SELECT label, CAST(SUM(CAST(sq AS HUGEINT) * sq) AS BIGINT) AS ns
       FROM s GROUP BY 1)
SELECT d.vec_id, d.label,
       CAST(FLOOR(1000000.0 * dot
                  / SQRT(CAST(nv AS DOUBLE) * CAST(ns.ns AS DOUBLE))
                  + 0.5) AS BIGINT) AS cos_micro
FROM d JOIN ns USING (label)
"""


# -- per-source length percentiles ----------------------------------------------

def docs_length_percentiles(sf_dir: str):
    """Exact p25/p50/p75/p95 of document length (n_chars) per source —
    the per-group quantile fan where groups are FEW (sources) but rows
    are data-sized: the ``events_user_quantiles`` in-bucket
    order-statistic kernel keyed on source.  Selection-only (rank
    ``ceil(q·n)``), zero floats."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["source", "n_chars"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["source", "n_chars"], kind="mergesort")
        vals = s["n_chars"].to_numpy("int64")
        src, sizes = np.unique(s["source"].to_numpy(), return_counts=True)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        return pd.DataFrame(
            {"source": pd.array(src, "str"),
             "n_docs": pd.array(sizes, "int64"),
             "p25": pd.array(vals[starts + (sizes + 3) // 4 - 1], "int64"),
             "p50": pd.array(vals[starts + (sizes + 1) // 2 - 1], "int64"),
             "p75": pd.array(
                 vals[starts + (3 * sizes + 3) // 4 - 1], "int64"),
             "p95": pd.array(
                 vals[starts + (19 * sizes + 19) // 20 - 1], "int64")}
        )

    return bucketed_group_map(docs, ["source"], bucket)


LENGTH_PCTL_SQL = """
WITH r AS (
  SELECT source, n_chars,
         row_number() OVER (PARTITION BY source ORDER BY n_chars) AS rn,
         count(*) OVER (PARTITION BY source) AS n
  FROM documents
)
SELECT source, CAST(MAX(n) AS BIGINT) AS n_docs,
       CAST(MAX(CASE WHEN rn = (n + 3) // 4 THEN n_chars END) AS BIGINT)
         AS p25,
       CAST(MAX(CASE WHEN rn = (n + 1) // 2 THEN n_chars END) AS BIGINT)
         AS p50,
       CAST(MAX(CASE WHEN rn = (3 * n + 3) // 4 THEN n_chars END)
            AS BIGINT) AS p75,
       CAST(MAX(CASE WHEN rn = (19 * n + 19) // 20 THEN n_chars END)
            AS BIGINT) AS p95
FROM r GROUP BY source
"""


# -- per-source robust length stats (median / MAD / outlier census) -------------

def docs_length_mad(sf_dir: str):
    """Per-source robust document-length profile: lower median, MAD
    (median of |x − med|, lower-median convention so parity is
    selection-only) and the count of robust outliers
    ``|x − med| > 3·MAD`` (exact integer compare) — the grouped sibling
    of ``lineitem_mad``, for the per-source curation dashboards.

    Shape: ONE bucketed exchange on source (source-complete buckets);
    in-bucket two sorted passes with group-offset selection — no
    per-source Python loop."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["source", "n_chars"])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["source", "n_chars"], kind="mergesort")
        vals = s["n_chars"].to_numpy("int64")
        src, sizes = np.unique(s["source"].to_numpy(), return_counts=True)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        med = vals[starts + (sizes + 1) // 2 - 1]
        dev = np.abs(vals - np.repeat(med, sizes))
        # per-group sort of deviations: order by (group id, dev)
        gid = np.repeat(np.arange(len(src)), sizes)
        order = np.lexsort((dev, gid))
        dev_sorted = dev[order]
        mad = dev_sorted[starts + (sizes + 1) // 2 - 1]
        n_out = np.zeros(len(src), dtype="int64")
        np.add.at(n_out, gid, (dev > 3 * np.repeat(mad, sizes))
                  .astype("int64"))
        return pd.DataFrame(
            {"source": pd.array(src, "str"),
             "n_docs": pd.array(sizes, "int64"),
             "med": pd.array(med, "int64"),
             "mad": pd.array(mad, "int64"),
             "n_outliers": pd.array(n_out, "int64")}
        )

    return bucketed_group_map(docs, ["source"], bucket)


LENGTH_MAD_SQL = """
WITH r AS (
  SELECT source, n_chars,
         row_number() OVER (PARTITION BY source ORDER BY n_chars) AS rn,
         count(*) OVER (PARTITION BY source) AS n
  FROM documents
),
med AS (
  SELECT source, CAST(MAX(n) AS BIGINT) AS n_docs,
         CAST(MAX(CASE WHEN rn = (n + 1) // 2 THEN n_chars END) AS BIGINT)
           AS med
  FROM r GROUP BY 1
),
dev AS (
  SELECT d.source, abs(d.n_chars - med.med) AS dv
  FROM documents d JOIN med USING (source)
),
r2 AS (
  SELECT source, dv,
         row_number() OVER (PARTITION BY source ORDER BY dv) AS rn,
         count(*) OVER (PARTITION BY source) AS n
  FROM dev
),
mad AS (
  SELECT source,
         CAST(MAX(CASE WHEN rn = (n + 1) // 2 THEN dv END) AS BIGINT)
           AS mad
  FROM r2 GROUP BY 1
)
SELECT med.source, med.n_docs, med.med, mad.mad,
       CAST((SELECT COUNT(*) FROM documents d
             WHERE d.source = med.source
               AND abs(d.n_chars - med.med) > 3 * mad.mad) AS BIGINT)
         AS n_outliers
FROM med JOIN mad USING (source)
"""


# -- Heaps'-law vocabulary growth curve -----------------------------------------

HEAPS_POINTS = 8


def docs_heaps(sf_dir: str):
    """Vocabulary-growth curve (Heaps' law): distinct-token count after
    each of ``HEAPS_POINTS`` doc-id checkpoints — the
    corpus-saturation diagnostic (a flattening curve says new shards
    add few new words; template corpora flatten early).  Checkpoints
    are exact integer thresholds ``lo + (k+1)·(hi−lo)//P`` over the
    doc-id domain; a token's FIRST document (min doc_id) decides when
    it enters the vocabulary, so the curve is one first-occurrence
    census (token-bucketed exchange) + one bounded threshold count —
    order- and parallelism-invariant by construction (no sequential
    scan).  Fit V = K·nᵝ client-side from the 8 exact points."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["doc_id", "text"]).materialize()

    bounds = fold_groups(
        docs.map_batches(
            arrow_out(lambda b: pd.DataFrame({"lo": b["doc_id"].astype("int64"),
                                              "hi": b["doc_id"].astype("int64")})),
            batch_format="pandas"),
        [], [("lo", "min"), ("hi", "max")])
    lo, hi = int(bounds["lo"].iloc[0]), int(bounds["hi"].iloc[0])
    thresholds = [lo + (k + 1) * (hi - lo) // HEAPS_POINTS
                  for k in range(HEAPS_POINTS)]

    def first_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        lens = toks.str.len().to_numpy()
        flat = np.concatenate(toks.to_numpy()) if len(b) else np.array([], str)
        di = np.repeat(b["doc_id"].to_numpy("int64"), lens)
        df = pd.DataFrame({"tok": flat, "first_doc": di})
        return group_frame(df, ["tok"], [("first_doc", "min")])  # NUL-safe

    firsts = bucketed_group_map(
        docs.map_batches(arrow_out(first_partial), batch_format="pandas"),
        ["tok"], lambda g: group_frame(g, ["tok"], [("first_doc", "min")]))

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        fd = b["first_doc"].to_numpy("int64")
        return pd.DataFrame(
            {"k": pd.array(range(HEAPS_POINTS), "int64"),
             "vocab": pd.array([int((fd <= t).sum()) for t in thresholds],
                               "int64")}
        )

    vocab = fold_groups(  # P rows (additive under any split)
        firsts.map_batches(arrow_out(count_partial), batch_format="pandas"),
        ["k"], [("vocab", "sum")]).set_index("k")["vocab"]

    def docs_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy("int64")
        return pd.DataFrame(
            {"k": pd.array(range(HEAPS_POINTS), "int64"),
             "n_docs": pd.array([int((d <= t).sum()) for t in thresholds],
                                "int64")}
        )

    nd = fold_groups(
        docs.map_batches(arrow_out(docs_partial), batch_format="pandas"),
        ["k"], [("n_docs", "sum")]).set_index("k")["n_docs"]
    return pd.DataFrame(
        {"k": pd.array(range(HEAPS_POINTS), "int64"),
         "threshold": pd.array(thresholds, "int64"),
         "n_docs": pd.array([int(nd[k]) for k in range(HEAPS_POINTS)],
                            "int64"),
         "vocab": pd.array([int(vocab[k]) for k in range(HEAPS_POINTS)],
                           "int64")}
    )


HEAPS_SQL = f"""
WITH b AS (SELECT MIN(doc_id) AS lo, MAX(doc_id) AS hi FROM documents),
ks AS (SELECT unnest(range(0, {HEAPS_POINTS})) AS k),
th AS (
  SELECT CAST(ks.k AS BIGINT) AS k,
         CAST(b.lo + (ks.k + 1) * (b.hi - b.lo) // {HEAPS_POINTS}
              AS BIGINT) AS threshold
  FROM ks, b
),
f AS (
  SELECT tok, MIN(doc_id) AS first_doc FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
  ) GROUP BY 1
)
SELECT th.k, th.threshold,
       CAST((SELECT COUNT(*) FROM documents d
             WHERE d.doc_id <= th.threshold) AS BIGINT) AS n_docs,
       CAST((SELECT COUNT(*) FROM f
             WHERE f.first_doc <= th.threshold) AS BIGINT) AS vocab
FROM th
"""


# -- per-source Jensen–Shannon divergence from the corpus -----------------------

def docs_source_js(sf_dir: str):
    """Jensen–Shannon divergence between each SOURCE's unigram
    distribution and the whole corpus — the data-mixture drift
    diagnostic (which shard pulls the mixture away; pairs with
    ``docs_odds_ratio``'s per-token view).  JS = ½·KL(P‖M) + ½·KL(Q‖M),
    M = (P+Q)/2, emitted as the two int64 addend sums (divide by 2·10⁶
    client-side).

    Integer contract (the PPMI pattern, per addend): the ln argument is
    ONE double division of exact int products —
    P-side ``2·c_st·N / (c_st·N + c_t·n_s)``, Q-side
    ``2·c_t·n_s / (same)`` (an absent source hits exactly 2 → ln 2) —
    each addend multiplies by its exact probability ratio and floors to
    micro-nats BEFORE the sum, so per-source totals are order-immune.

    Shape: ONE token-bucketed exchange builds the (source, token)
    census; buckets are token-complete, so c_t and every source's
    addend (including ABSENT sources' Q-side ln 2 terms) finalize
    in-bucket against the broadcast (n_s, N) artifact; a tiny
    per-source fold ends it."""
    import math

    import numpy as np
    import ray

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        acc: dict[tuple[str, str], int] = {}
        for src, text in zip(b["source"].astype(str), b["text"].astype(str)):
            for t in text.split(" "):
                k = (src, t)
                acc[k] = acc.get(k, 0) + 1
        keys = sorted(acc)
        return pd.DataFrame(
            {"source": pd.array([k[0] for k in keys], "str"),
             "token": pd.array([k[1] for k in keys], "str"),
             "c": pd.array([acc[k] for k in keys], "int64")}
        )

    census = bucketed_group_map(
        docs.map_batches(arrow_out(partial), batch_format="pandas"),
        ["token"],
        lambda g: g.groupby(["source", "token"], sort=False, as_index=False)[
            "c"].sum(),
    ).materialize()

    ns = fold_groups(  # ≤ |sources| rows
        census.select_columns(["source", "c"]), ["source"], [("c", "sum")]
    ).set_index("source")["c"].astype(int).to_dict()
    n_all = int(sum(ns.values()))
    ref = ray.put((ns, n_all))

    def js_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ns_d, N = ray.get(ref)
        sources = sorted(ns_d)
        acc = {s: [0, 0] for s in sources}
        for tok, sub in g.groupby("token", sort=False):
            ct = int(sub["c"].sum())
            present = dict(zip(sub["source"], sub["c"]))
            for s in sources:
                n_s = ns_d[s]
                cst = int(present.get(s, 0))
                den = cst * N + ct * n_s
                if cst:
                    arg_p = (2 * cst * N) / den
                    acc[s][0] += math.floor(
                        (cst / n_s) * math.log(arg_p) * 1e6 + 0.5)
                arg_q = (2 * ct * n_s) / den
                acc[s][1] += math.floor(
                    (ct / N) * math.log(arg_q) * 1e6 + 0.5)
        return pd.DataFrame(
            {"source": pd.array(sources, "str"),
             "p_side_micro": pd.array([acc[s][0] for s in sources],
                                      "int64"),
             "q_side_micro": pd.array([acc[s][1] for s in sources],
                                      "int64")}
        )

    agg = fold_groups(bucketed_group_map(census, ["token"], js_bucket), ["source"],
                      [("p_side_micro", "sum"), ("q_side_micro", "sum")])
    agg["n_s"] = agg["source"].map(ns).astype("int64")
    return agg.astype({"p_side_micro": "int64", "q_side_micro": "int64"})


SOURCE_JS_SQL = """
WITH tok AS (
  SELECT source, unnest(string_split(text, ' ')) AS token FROM documents
),
c AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c
      FROM tok GROUP BY 1, 2),
ns AS (SELECT source, CAST(SUM(c) AS BIGINT) AS n FROM c GROUP BY 1),
tot AS (SELECT CAST(SUM(c) AS BIGINT) AS n_all FROM c),
ct AS (SELECT token, CAST(SUM(c) AS BIGINT) AS ct FROM c GROUP BY 1),
grid AS (
  SELECT ns.source, ns.n AS n_s, ct.token, ct.ct,
         COALESCE(c.c, 0) AS cst
  FROM ns CROSS JOIN ct
  LEFT JOIN c ON c.source = ns.source AND c.token = ct.token
),
addends AS (
  SELECT g.source,
         CASE WHEN g.cst > 0 THEN
           CAST(FLOOR(CAST(g.cst AS DOUBLE) / g.n_s
                      * LN(CAST(2 * CAST(g.cst AS HUGEINT) * tot.n_all
                                AS DOUBLE)
                           / CAST(CAST(g.cst AS HUGEINT) * tot.n_all
                                  + CAST(g.ct AS HUGEINT) * g.n_s
                                  AS DOUBLE))
                      * 1000000 + 0.5) AS BIGINT)
         ELSE 0 END AS ap,
         CAST(FLOOR(CAST(g.ct AS DOUBLE) / tot.n_all
                    * LN(CAST(2 * CAST(g.ct AS HUGEINT) * g.n_s AS DOUBLE)
                         / CAST(CAST(g.cst AS HUGEINT) * tot.n_all
                                + CAST(g.ct AS HUGEINT) * g.n_s
                                AS DOUBLE))
                    * 1000000 + 0.5) AS BIGINT) AS aq
  FROM grid g, tot
)
SELECT a.source, CAST(SUM(a.ap) AS BIGINT) AS p_side_micro,
       CAST(SUM(a.aq) AS BIGINT) AS q_side_micro,
       ns.n AS n_s
FROM addends a JOIN ns ON ns.source = a.source
GROUP BY 1, 4
"""


# -- hybrid retrieval: reciprocal-rank fusion ------------------------------------

def docs_search_rrf(sf_dir: str) -> pd.DataFrame:
    """Hybrid retrieval over the persisted inverted index: BM25 and
    Dirichlet query-likelihood LM rankings fused by reciprocal-rank
    fusion (Cormack et al. 2009) — the standard two-ranker serving
    composition (with an embedding leg the fusion is identical).
    Fusion is PURE integers: rrf_micro = Σ 10⁶ // (60 + rank)."""
    import os

    from ..stages.search import build_inverted_index, search_rrf

    tag = os.path.basename(os.path.normpath(sf_dir))
    index_dir = f"/tmp/mkg_search_idx/{tag}"
    build_inverted_index(_docs(sf_dir, ["doc_id", "text"]), index_dir)
    return search_rrf(index_dir, SEARCH_TERMS, k=10, n_cand=20)


def _search_rrf_sql() -> str:
    from ..stages.search import BM25_B, BM25_K1, LM_MU, RRF_K0

    terms = ", ".join(f"'{t}'" for t in sorted(set(SEARCH_TERMS)))
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), dl AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY 1
), tf AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
  FROM toks WHERE tok IN ({terms}) GROUP BY 1, 2
), stats AS (
  SELECT CAST(count(*) AS BIGINT) AS n_docs, SUM(dl) AS total_tf FROM dl
), df AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
), bm_addend AS (
  SELECT doc_id,
         round(ln((n_docs - df + 0.5) / (df + 0.5) + 1)
               * tf * ({BM25_K1} + 1)
               / (tf + {BM25_K1} * (1 - {BM25_B}
                                    + {BM25_B} * dl / (total_tf / n_docs))),
               6) AS w
  FROM tf JOIN df USING (tok) JOIN dl USING (doc_id), stats
), bm_score AS (
  SELECT doc_id, round(SUM(w), 6) AS score FROM bm_addend GROUP BY doc_id
), bm_top AS (
  SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS rnk
  FROM bm_score QUALIFY rnk <= 20
), cand AS (
  SELECT DISTINCT doc_id FROM tf
), qt AS (
  SELECT unnest([{terms}]) AS tok
), ctf AS (
  SELECT tok, CAST(SUM(tf) AS BIGINT) AS ctf FROM tf GROUP BY 1
), lm_addend AS (
  SELECT c.doc_id,
         round(ln((COALESCE(t.tf, 0) + {LM_MU} * ctf.ctf / stats.total_tf)
                  / (dl.dl + {LM_MU})), 6) AS w
  FROM cand c
  CROSS JOIN qt q
  JOIN ctf ON ctf.tok = q.tok
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf t ON t.doc_id = c.doc_id AND t.tok = q.tok
  CROSS JOIN stats
), lm_score AS (
  SELECT doc_id, round(SUM(w), 6) AS score FROM lm_addend GROUP BY doc_id
), lm_top AS (
  SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS rnk
  FROM lm_score QUALIFY rnk <= 20
)
SELECT doc_id,
       CAST(SUM(1000000 // ({RRF_K0} + rnk)) AS BIGINT) AS rrf_micro
FROM (SELECT * FROM bm_top UNION ALL SELECT * FROM lm_top)
GROUP BY doc_id
QUALIFY row_number() OVER (ORDER BY rrf_micro DESC, doc_id) <= 10
"""


# -- weighted sampling WITHOUT replacement (Efraimidis–Spirakis) -----------------

ES_SAMPLE_K = 50


def docs_es_sample(sf_dir: str) -> pd.DataFrame:
    """Weighted random sampling WITHOUT replacement (Efraimidis &
    Spirakis 2006): each doc draws an Exp(w) jitter key = −ln(u)/w from
    a content-stable uniform u, and the k SMALLEST keys form the sample
    — every doc's inclusion probability is proportional to its weight
    (n_chars here), decisions are reproducible and mergeable (the
    global bottom-k of a union is the bottom-k of the parts' bottom-k,
    so each batch ships only its local k rows — no exchange at all).

    Ordering contract: both engines order by the INTEGER
    key_nano = floor(−ln(u)/w · 10⁹) (u = (md5₆₄ ≫ 11 + 1)/2⁵³, exact
    in a double).  numpy's SIMD log can differ from glibc in the last
    ulp, so rows whose floor could flip within ±2 ulp recompute with
    ``math.log`` (≡ DuckDB ``std::log``) — the `events_decay` rule with
    a vectorized guard instead of a per-distinct loop."""
    import math

    import numpy as np

    from ..functions.hashing import md5_int_vec_prefixed

    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    k = ES_SAMPLE_K

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n_chars"] > 0]
        if not len(b):
            return pd.DataFrame({"doc_id": pd.array([], "int64"),
                                 "w": pd.array([], "int64"),
                                 "key_nano": pd.array([], "int64")})
        ids = b["doc_id"].to_numpy("int64")
        w = b["n_chars"].to_numpy("int64")
        h = md5_int_vec_prefixed("esample", ids, bits=64)
        u = ((h >> np.uint64(11)).astype("float64") + 1.0) / 9007199254740992.0
        lnu = np.log(u)
        wf = w.astype("float64")
        key = np.floor(-lnu / wf * 1e9)
        lo = np.nextafter(np.nextafter(lnu, -np.inf), -np.inf)
        hi = np.nextafter(np.nextafter(lnu, np.inf), np.inf)
        risky = np.floor(-lo / wf * 1e9) != np.floor(-hi / wf * 1e9)
        if risky.any():
            exact = np.array([math.log(x) for x in u[risky]], dtype="float64")
            key[risky] = np.floor(-exact / wf[risky] * 1e9)
        out = pd.DataFrame({"doc_id": pd.array(ids, "int64"),
                            "w": pd.array(w, "int64"),
                            "key_nano": pd.array(key.astype("int64"), "int64")})
        return out.sort_values(["key_nano", "doc_id"],
                               kind="mergesort").head(k)

    part = docs.map_batches(arrow_out(partial),
                            batch_format="pandas").to_pandas()
    if "doc_id" not in part.columns:
        return pd.DataFrame({"doc_id": pd.array([], "int64"),
                             "w": pd.array([], "int64"),
                             "key_nano": pd.array([], "int64")})
    return (part.sort_values(["key_nano", "doc_id"], kind="mergesort")
            .head(k).reset_index(drop=True)
            .astype({"doc_id": "int64", "w": "int64", "key_nano": "int64"}))


ES_SAMPLE_SQL = f"""
WITH h AS (
  SELECT doc_id, n_chars,
         (('0x' || substr(md5('esample|' || CAST(doc_id AS VARCHAR)), 1, 16))
            ::UBIGINT // 2048 + 1) / 9007199254740992.0 AS u
  FROM documents WHERE n_chars > 0
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_chars AS BIGINT) AS w,
       CAST(floor(-ln(u) / n_chars * 1000000000) AS BIGINT) AS key_nano
FROM h
QUALIFY row_number() OVER (ORDER BY key_nano, doc_id) <= {ES_SAMPLE_K}
"""


# -- cross-source n-gram contamination matrix ------------------------------------

OVERLAP_GRAM_K = 5


def docs_sources_overlap(sf_dir: str) -> pd.DataFrame:
    """Pairwise k-gram Jaccard overlap between SOURCES — the corpus-
    mixture contamination matrix (which feeds deduplicate-across-sources
    and train/benchmark-leak decisions): each source's distinct
    ``OVERLAP_GRAM_K``-token gram set, intersected pairwise.

    Contract: grams keyed by the 64-bit md5 of the gram text on BOTH
    engines (the `docs_dupspans` idiom — collision-identical), so the
    matrix is bit-exact.  jaccard_micro = inter·10⁶ // (n_a+n_b−inter).

    Shape: ONE bucketed exchange on the gram hash (batch-local distinct
    (gram, source) combiner first); gram-complete buckets make both the
    per-source distinct census and the per-gram source-pair expansion
    exact with no second corpus pass — the ≤ buckets×|S|² partial rows
    fold driver-side."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["doc_id", "source", "text"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        dids, _pos, h = _token_gram_hashes(b, OVERLAP_GRAM_K)
        if not len(dids):
            return pd.DataFrame({"g": pd.array([], "uint64"),
                                 "source": pd.array([], "str")})
        src = (pd.Series(b["source"].to_numpy(),
                         index=b["doc_id"].to_numpy("int64"))
               .loc[dids].to_numpy())
        return (pd.DataFrame({"g": pd.array(h, "uint64"),
                              "source": pd.array(src, "str")})
                .drop_duplicates())

    exploded = docs.map_batches(arrow_out(explode), batch_format="pandas")

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one row per (gram, source) and per (gram, source pair)
        d = g.drop_duplicates()
        m = d.merge(d, on="g")
        m = m[m["source_x"] < m["source_y"]]
        return pd.DataFrame(
            {"src_a": pd.concat([d["source"], m["source_x"]], ignore_index=True),
             "src_b": pd.concat([d["source"], m["source_y"]], ignore_index=True),
             "inter": 1}).astype({"src_a": "str", "src_b": "str"})

    agg = fold_groups(  # ≤ |S|² rows
        bucketed_group_map(exploded, ["g"], bucket), ["src_a", "src_b"],
        [("inter", "sum")])
    cols = ["src_a", "src_b", "inter", "uni", "jaccard_micro"]
    if not len(agg):
        return pd.DataFrame({c: pd.array([], "str" if c.startswith("src")
                                         else "int64") for c in cols})
    ns = (agg[agg["src_a"] == agg["src_b"]]
          .set_index("src_a")["inter"].to_dict())
    out = agg[agg["src_a"] < agg["src_b"]].copy()
    na = out["src_a"].map(ns).to_numpy("int64")
    nb = out["src_b"].map(ns).to_numpy("int64")
    inter = out["inter"].to_numpy("int64")
    uni = na + nb - inter
    return pd.DataFrame(
        {"src_a": out["src_a"].astype("str"),
         "src_b": out["src_b"].astype("str"),
         "inter": pd.array(inter, "int64"),
         "uni": pd.array(uni, "int64"),
         "jaccard_micro": pd.array(inter * 1_000_000 // uni, "int64")}
    ).reset_index(drop=True)


SOURCES_OVERLAP_SQL = f"""
WITH t AS (
  SELECT source, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents
), gidx AS (
  SELECT source, toks, unnest(range(0, n - {OVERLAP_GRAM_K} + 1)) AS pos
  FROM t WHERE n >= {OVERLAP_GRAM_K}
), g AS (
  SELECT DISTINCT source,
         ('0x' || substr(md5(array_to_string(
            list_slice(toks, pos + 1, pos + {OVERLAP_GRAM_K}), ' ')), 1, 16)
         )::UBIGINT AS h
  FROM gidx
), ns AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n FROM g GROUP BY 1
), inter AS (
  SELECT a.source AS src_a, b.source AS src_b,
         CAST(COUNT(*) AS BIGINT) AS inter
  FROM g a JOIN g b ON a.h = b.h AND a.source < b.source
  GROUP BY 1, 2
)
SELECT i.src_a, i.src_b, i.inter,
       CAST(na.n + nb.n - i.inter AS BIGINT) AS uni,
       CAST(i.inter * 1000000 // (na.n + nb.n - i.inter) AS BIGINT)
         AS jaccard_micro
FROM inter i
JOIN ns na ON na.source = i.src_a
JOIN ns nb ON nb.source = i.src_b
"""


# -- lexical diversity per source ------------------------------------------------

def docs_ttr(sf_dir: str) -> pd.DataFrame:
    """Type-token ratio and hapax-legomena census per source — the
    lexical-diversity quality signal (template-generated or boilerplate
    sources show low TTR; OCR-noise sources show a hapax spike).

    Shape: per-batch (source, token, count) Arrow combiner → ONE bucketed
    exchange on token (token-complete buckets make each (source, token)
    global count exact) → one (Σc, distinct, hapax) row per (source,
    token) → a ≤ |S|-row ``fold_groups`` census.  ttr_micro is the exact integer
    ``distinct·10⁶ // tokens``."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        n = toks.str.len().to_numpy("int64")
        src = np.repeat(b["source"].to_numpy(), n)
        t = np.concatenate([np.asarray(x, dtype=object) for x in toks]) \
            if len(b) else np.array([], dtype=object)
        return group_frame(
            pd.DataFrame({"source": src, "t": t, "c": 1}).astype(
                {"source": "str", "t": "str"}),
            ["source", "t"], [("c", "sum")])

    partials = docs.map_batches(arrow_out(partial), batch_format="pandas")

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one row per (source, token), its global count complete here
        full = group_frame(g, ["source", "t"], [("c", "sum")])
        return pd.DataFrame({"source": full["source"], "n_tokens": full["c"],
                             "n_distinct": 1,
                             "n_hapax": (full["c"] == 1).astype("int64")})

    agg = fold_groups(  # ≤ |S| rows
        bucketed_group_map(partials, ["t"], bucket), ["source"],
        [("n_tokens", "sum"), ("n_distinct", "sum"), ("n_hapax", "sum")])
    if not len(agg):
        return pd.DataFrame({c: pd.array([], "str" if c == "source"
                                         else "int64")
                             for c in ["source", "n_tokens", "n_distinct",
                                       "n_hapax", "ttr_micro"]})
    return pd.DataFrame(
        {"source": agg["source"].astype("str"),
         "n_tokens": agg["n_tokens"].astype("int64"),
         "n_distinct": agg["n_distinct"].astype("int64"),
         "n_hapax": agg["n_hapax"].astype("int64"),
         "ttr_micro": (agg["n_distinct"].to_numpy("int64") * 1_000_000
                       // agg["n_tokens"].to_numpy("int64")).astype("int64")}
    )


TTR_SQL = """
WITH tok AS (
  SELECT source, unnest(string_split(text, ' ')) AS t FROM documents
),
c AS (
  SELECT source, t, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY 1, 2
)
SELECT source,
       CAST(SUM(c) AS BIGINT) AS n_tokens,
       CAST(COUNT(*) AS BIGINT) AS n_distinct,
       CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax,
       CAST(COUNT(*) * 1000000 // SUM(c) AS BIGINT) AS ttr_micro
FROM c GROUP BY 1
"""


def docs_simpson(sf_dir: str) -> pd.DataFrame:
    """Per-source Simpson repeat probability numerator Σ c·(c−1) over
    the token census — the collision-probability diversity index
    (D = Σc(c−1)/(n(n−1)) is the chance two sampled tokens match;
    template/boilerplate sources spike it long before TTR moves).

    Exact-integer contract: Σ c·(c−1) can pass int64 at corpus scale
    (c_max·n per source), so the sum travels as TWO int64 limbs in
    base 10¹⁵ (the ``lineitem_regression`` past-int64 contract) —
    per-bucket partials are exact Python ints, the driver fold
    re-normalizes.  The division is NEVER materialized (rounded
    divisions tie — see docs_unigram_logprob lesson).

    Shape: per-batch (source, token, count) combiner → ONE bucketed
    exchange on token (token-complete buckets ⇒ global (source, token)
    counts exact) → per-bucket limbed partials → ≤|S|-row ``fold_groups``
    census."""
    import numpy as np

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].astype(str).str.split(" ")
        n = toks.str.len().to_numpy("int64")
        src = np.repeat(b["source"].to_numpy(), n)
        t = np.concatenate([np.asarray(x, dtype=object) for x in toks]) \
            if len(b) else np.array([], dtype=object)
        return group_frame(
            pd.DataFrame({"source": src, "t": t, "c": 1}).astype(
                {"source": "str", "t": "str"}),
            ["source", "t"], [("c", "sum")])

    partials = docs.map_batches(arrow_out(partial), batch_format="pandas")

    LIMB = 10**15

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        full = group_frame(g, ["source", "t"], [("c", "sum")])
        # exact Python-int fold per source: c*(c-1) can pass int64 at scale
        acc: dict[str, list[int]] = {}
        for src, c in zip(full["source"], full["c"].tolist()):
            a = acc.setdefault(src, [0, 0])
            a[0] += c
            a[1] += c * (c - 1)
        return pd.DataFrame(
            [(src, n, s % LIMB, s // LIMB) for src, (n, s) in acc.items()],
            columns=["source", "n_tokens", "cc1_lo", "cc1_hi"]).astype(
            {"source": "str", "n_tokens": "int64",
             "cc1_lo": "int64", "cc1_hi": "int64"})

    cen = fold_groups(  # ≤ |S| rows; each limb sum stays far below 2^63
        bucketed_group_map(partials, ["t"], bucket), ["source"],
        [("n_tokens", "sum"), ("cc1_lo", "sum"), ("cc1_hi", "sum")])
    cc1 = [int(lo) + int(hi) * LIMB
           for lo, hi in zip(cen["cc1_lo"], cen["cc1_hi"])]
    return pd.DataFrame(
        {"source": pd.array(cen["source"], "str"),
         "n_tokens": cen["n_tokens"].astype("int64"),
         "cc1_lo": pd.array([v % LIMB for v in cc1], "int64"),
         "cc1_hi": pd.array([v // LIMB for v in cc1], "int64")})


SIMPSON_SQL = """
WITH tok AS (
  SELECT source, unnest(string_split(text, ' ')) AS t FROM documents
),
c AS (
  SELECT source, t, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY 1, 2
),
s AS (
  SELECT source, CAST(SUM(c) AS BIGINT) AS n_tokens,
         SUM(CAST(c AS HUGEINT) * (c - 1)) AS cc1
  FROM c GROUP BY 1
)
SELECT source, n_tokens,
       CAST(cc1 % 1000000000000000 AS BIGINT) AS cc1_lo,
       CAST(cc1 // 1000000000000000 AS BIGINT) AS cc1_hi
FROM s
"""


def docs_compress_ratio(sf_dir: str):
    """Per-doc zlib compression-ratio quality signal
    (`stages/text_stats.py:compress_ratio_batch`) — rows-only (no
    DEFLATE in SQL); determinism + discrimination pytest-gated."""
    from ..stages.text_stats import compress_ratio_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(compress_ratio_batch), batch_format="pandas"
    )


# -- Gopher-rule quality filter (Rae et al. 2021, word-level subset) ------------

def docs_gopher_rules(sf_dir: str):
    """Per-document Gopher quality-rule census + pass flag — the
    published curation rule set next to the repo's composite
    ``docs_quality`` score: word count in [50, 1e5], mean word length
    in [3, 10], ≥80 % alphabetic words, ≥2 stopwords, ≤10 % symbol
    words.  All comparisons are exact-integer (no float thresholds), so
    the flag is bit-stable; pure per-batch map, zero exchanges."""
    from ..stages.text_stats import gopher_rules_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        gopher_rules_batch, batch_format="pandas"
    )


GOPHER_RULES_SQL = f"""
SELECT doc_id,
       CAST(n_words AS BIGINT) AS n_words,
       CAST(sum_word_len AS BIGINT) AS sum_word_len,
       CAST(n_alpha_words AS BIGINT) AS n_alpha_words,
       CAST(n_stopwords AS BIGINT) AS n_stopwords,
       CAST(n_symbol_words AS BIGINT) AS n_symbol_words,
       (n_words BETWEEN 50 AND 100000
        AND sum_word_len >= 3 * n_words AND sum_word_len <= 10 * n_words
        AND 5 * n_alpha_words >= 4 * n_words
        AND n_stopwords >= 2
        AND 10 * n_symbol_words <= n_words) AS passes
FROM (
  SELECT doc_id,
         len(string_split(text, ' ')) AS n_words,
         length(text) - (len(string_split(text, ' ')) - 1) AS sum_word_len,
         len(list_filter(string_split(text, ' '),
                         x -> regexp_matches(x, '[a-zA-Z]'))) AS n_alpha_words,
         len(list_filter(string_split(text, ' '),
                         x -> x IN ({_STOP_SQL}))) AS n_stopwords,
         len(list_filter(string_split(text, ' '),
                         x -> contains(x, '#') OR contains(x, '...')))
           AS n_symbol_words
  FROM documents
)
"""


def embed_mmr(sf_dir: str, k: int = 10, pool: int = 50, lam: float = 0.7):
    """MMR-diversified top-k neighbors of vec_id 0 — relevance from the
    distributed brute-force pass, diversity from the greedy
    marginal-relevance re-rank over the bounded candidate pool
    (``stages/similarity.py:mmr_topk``; pinned ≡ a single-process
    reference implementation in tests)."""
    from ..stages.similarity import mmr_topk

    return mmr_topk(_embeddings(sf_dir), _query_vec(sf_dir), k,
                    pool=pool, lam=lam)


# -- sorted-neighborhood dedup pairs (SNM, Hernandez & Stolfo 1995) -------------

def docs_snm_pairs(sf_dir: str, window: int = 4, threshold: float = 0.5,
                   span: int = 256):
    """Sorted-Neighborhood-Method candidate pairs: sort the corpus by
    (text, doc_id), slide a ``window``-row frame, keep pairs with exact
    distinct-token Jaccard ≥ ``threshold`` — the classic O(n·w)
    blocking alternative to LSH for near-dup mining.

    Distribution: global rank via the monotone-coarse-bucket idiom
    (first-2-byte text prefix is monotone in the sort key, so bucket
    order IS global text order; per-bucket counts → driver prefix-sum
    offsets → in-bucket local ranks — no sort operator).  Pass 2
    rebuckets by ``rank // span`` and REPLICATES each span's last
    ``window−1`` rows into the next span as ghost rows, so every
    window pair is computed in exactly one bucket (emitted iff the
    larger-rank element is native — cross-span pairs count once).
    Corpus is ASCII, so byte order ≡ DuckDB's binary collation.

    Exactness: Jaccard is a ratio of set-cardinality INTEGERS; the
    threshold compares the raw double (mirrored in the oracle's WHERE)
    and the emitted value rounds to 6 dp on both sides."""
    import ray

    from ..stages.shuffle import bucketed_group_map

    docs = _docs(sf_dir, ["doc_id", "text"])
    W = window - 1

    def keyed_partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].astype(str)
        cb = np.fromiter(
            (int.from_bytes(s.encode("utf-8")[:2].ljust(2, b"\0"), "big")
             for s in t),
            dtype="int64", count=len(t),
        )
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "text": t, "cbucket": cb})

    keyed = docs.map_batches(
        arrow_out(keyed_partial), batch_format="pandas"
    ).materialize()

    counts = fold_groups(  # ≤ distinct-prefix rows
        keyed.map_batches(
            arrow_out(lambda b: pd.DataFrame({"cbucket": b["cbucket"], "n": 1})),
            batch_format="pandas"),
        ["cbucket"], [("n", "sum")]).set_index("cbucket")["n"]
    offsets = counts.cumsum().shift(fill_value=0).to_dict()
    off_ref = ray.put(offsets)

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        out = []
        for cb, sub in g.groupby("cbucket", sort=False):
            s = sub.sort_values(["text", "doc_id"], kind="mergesort")
            out.append(pd.DataFrame(
                {"doc_id": s["doc_id"].to_numpy("int64"),
                 "text": s["text"].to_numpy(),
                 "rank": int(off[int(cb)])
                         + np.arange(len(s), dtype="int64")}
            ))
        return pd.concat(out, ignore_index=True)

    ranked = bucketed_group_map(keyed, ["cbucket"], rank_bucket)

    def spread(b: pd.DataFrame) -> pd.DataFrame:
        r = b["rank"].to_numpy("int64")
        native = pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy("int64"),
             "text": b["text"].to_numpy(), "rank": r,
             "wb": r // span,
             "ghost": np.zeros(len(r), dtype="int8")}
        )
        m = (r % span) >= span - W
        ghost = pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy("int64")[m],
             "text": b["text"].to_numpy()[m], "rank": r[m],
             "wb": r[m] // span + 1,
             "ghost": np.ones(int(m.sum()), dtype="int8")}
        )
        return pd.concat([native, ghost], ignore_index=True)

    spread_ds = ranked.map_batches(arrow_out(spread), batch_format="pandas")

    def pair_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, sub in g.groupby("wb", sort=False):
            s = sub.sort_values("rank", kind="mergesort")
            ids = s["doc_id"].to_numpy("int64")
            rk = s["rank"].to_numpy("int64")
            gh = s["ghost"].to_numpy()
            sets = [set(t.split(" ")) for t in s["text"]]
            n = len(s)
            for i in range(n):
                si = sets[i]
                for j in range(i + 1, min(i + window, n)):
                    if rk[j] - rk[i] > W:
                        break
                    if gh[j]:
                        continue  # larger-rank element must be native
                    jac = len(si & sets[j]) / len(si | sets[j])
                    if jac >= threshold:
                        rows.append((ids[i], ids[j], round(jac, 6)))
        return pd.DataFrame(
            rows, columns=["doc_a", "doc_b", "jaccard"]
        ).astype({"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"})

    return bucketed_group_map(spread_ds, ["wb"], pair_bucket)


SNM_PAIRS_SQL = """
WITH t AS (
  SELECT doc_id, list_distinct(string_split(text, ' ')) AS toks,
         ROW_NUMBER() OVER (ORDER BY text, doc_id) AS rn
  FROM documents
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       round(CAST(len(list_intersect(a.toks, b.toks)) AS DOUBLE)
             / len(list_distinct(list_concat(a.toks, b.toks))), 6) AS jaccard
FROM t a JOIN t b ON b.rn > a.rn AND b.rn <= a.rn + 3
WHERE CAST(len(list_intersect(a.toks, b.toks)) AS DOUBLE)
      / len(list_distinct(list_concat(a.toks, b.toks))) >= 0.5
"""


CONTAIN_T_PERMILLE = 800  # containment threshold (‰), integer compare


def docs_containment_pairs(sf_dir: str):
    """Near-SUPERSET pairs: ordered (doc_sub, doc_sup) with
    distinct-3-gram containment |sub∩sup| ≥ 0.8·|sub| — catches quoted
    /extended/boilerplate-wrapped documents that symmetric Jaccard
    misses (a 10× wrapper has tiny Jaccard but full containment).
    Algorithm + exchange plan: ``stages/dedup.py:
    prefix_containment_pairs`` (asymmetric-index prefix filter)."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def gram_sets(b: pd.DataFrame) -> pd.DataFrame:
        dids, _pos, h = _token_gram_hashes(b, PFX_GRAM_K)
        return pd.DataFrame(
            {"doc_id": pd.array(dids, "int64"), "h": pd.array(h, "uint64")}
        ).drop_duplicates()

    grams = docs.map_batches(arrow_out(gram_sets), batch_format="pandas")
    from ..stages.dedup import prefix_containment_pairs

    pairs = prefix_containment_pairs(
        grams, threshold_permille=CONTAIN_T_PERMILLE
    )

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_sub": b["doc_sub"].astype("int64"),
             "doc_sup": b["doc_sup"].astype("int64"),
             "inter": b["inter"].astype("int64"),
             "sz_sub": b["sz_sub"].astype("int64"),
             "containment": np.round(
                 b["inter"].to_numpy("int64")
                 / b["sz_sub"].to_numpy("int64"), 6)}
        )

    return pairs.map_batches(arrow_out(finalize), batch_format="pandas")


CONTAINMENT_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n FROM documents
), gidx AS (
  SELECT doc_id, toks, unnest(range(0, n - {PFX_GRAM_K} + 1)) AS pos
  FROM t WHERE n >= {PFX_GRAM_K}
), g AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(toks, pos + 1, pos + {PFX_GRAM_K}), ' ')
           AS gram
  FROM gidx
), sz AS (
  SELECT doc_id, COUNT(*) AS sz FROM g GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS doc_sub, b.doc_id AS doc_sup, COUNT(*) AS inter
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id != b.doc_id
  GROUP BY 1, 2
)
SELECT doc_sub, doc_sup, CAST(inter AS BIGINT) AS inter,
       CAST(s.sz AS BIGINT) AS sz_sub,
       round(CAST(inter AS DOUBLE) / s.sz, 6) AS containment
FROM inter JOIN sz s ON doc_sub = s.doc_id
WHERE inter * 1000 >= {CONTAIN_T_PERMILLE} * s.sz
"""


def docs_readability(sf_dir: str) -> pd.DataFrame:
    """Per-source readability census — the surface-complexity quality
    signal next to `docs_quality`/`docs_gopher_rules`: word count,
    vowel-group syllable proxy, polysyllabic-word (>= 3 vowel groups)
    count, and the exact integer complexity index
    ``syllables*10^6 // words`` (a SMOG/Flesch-style rate without the
    sentence term — the corpus has no sentence punctuation).

    Float-free contract: every per-doc quantity is an exact regex-match
    count (pandas non-overlapping counts == DuckDB regexp_extract_all
    lengths, RE2-compatible patterns), the final rate is one integer
    floor division on the driver-side fold, so the oracle matches
    bit-for-bit.  Shape: pure per-batch map + a <= |sources| census —
    ZERO data-sized exchanges."""
    import numpy as np

    docs = _docs(sf_dir, ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].astype(str)
        words = t.str.count("[^ ]+").to_numpy("int64")
        syl = t.str.count("[aeiou]+").to_numpy("int64")
        toks = t.str.findall("[^ ]+")
        n = toks.str.len().to_numpy("int64")
        flat = toks.explode().dropna()
        is_poly = (flat.str.count("[aeiou]+") >= 3).to_numpy()
        poly = np.zeros(len(b), dtype="int64")
        np.add.at(poly, np.repeat(np.arange(len(b)), n), is_poly)
        return pd.DataFrame({"source": b["source"].astype(str), "n_docs": 1,
                             "n_words": words, "n_syllables": syl,
                             "n_poly": poly})

    agg = fold_groups(  # <= |sources| rows
        docs.map_batches(arrow_out(partial), batch_format="pandas"),
        ["source"], [("n_docs", "sum"), ("n_words", "sum"),
                     ("n_syllables", "sum"), ("n_poly", "sum")])
    # Python-int floor division driver-side: the product
    # syllables * 10^6 outgrows int64 around 10^12 words per source
    comp = [int(s) * 1_000_000 // int(w) if w else 0
            for s, w in zip(agg["n_syllables"], agg["n_words"])]
    return (pd.DataFrame(
        {"source": agg["source"].astype("str"),
         "n_docs": agg["n_docs"].astype("int64"),
         "n_words": agg["n_words"].astype("int64"),
         "n_syllables": agg["n_syllables"].astype("int64"),
         "n_poly": agg["n_poly"].astype("int64"),
         "complexity_micro": pd.Series(comp, dtype="int64")})
        .sort_values("source").reset_index(drop=True))


READABILITY_SQL = """
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(words) AS BIGINT) AS n_words,
       CAST(SUM(syl) AS BIGINT) AS n_syllables,
       CAST(SUM(poly) AS BIGINT) AS n_poly,
       CAST((1000000 * SUM(syl)) // SUM(words) AS BIGINT)
         AS complexity_micro
FROM (
  SELECT source,
         len(regexp_extract_all(text, '[^ ]+')) AS words,
         len(regexp_extract_all(text, '[aeiou]+')) AS syl,
         len(list_filter(regexp_extract_all(text, '[^ ]+'),
             w -> len(regexp_extract_all(w, '[aeiou]+')) >= 3)) AS poly
  FROM documents)
GROUP BY 1
ORDER BY 1
"""


# -- Johnson–Lindenstrauss sign random projection ---------------------------------

RPROJ_DIM = 64     # embeddings table vector width (guarded at runtime)
RPROJ_DPRIME = 8   # projected width


def _rproj_signs() -> np.ndarray:
    """(64, 8) ±1 sign matrix from md5 parity — deterministic, content-
    derived (never Python ``hash``), and exactly mirrorable in SQL via
    ``('0x'||substr(md5(i||'|'||j),1,8))::UBIGINT % 2``."""
    from ..functions.hashing import md5_int

    s = np.empty((RPROJ_DIM, RPROJ_DPRIME), dtype=np.int64)
    for i in range(RPROJ_DIM):
        for j in range(RPROJ_DPRIME):
            s[i, j] = 1 if md5_int(f"{i}|{j}", 32) % 2 == 0 else -1
    return s


def embed_rproj(sf_dir: str) -> pd.DataFrame:
    """Sign (Achlioptas) random projection of the embedding table from
    64 → 8 dims — the Johnson–Lindenstrauss preprocessing step for
    cheap distance sketches ahead of ANN / clustering.

    Exact contract: inputs quantize to ``floor(x·10⁶)`` int64 (pure
    FLOOR — no rounding tie to diverge on, unlike round-half; both
    engines compute the same IEEE double ``x·10⁶`` first) and the
    projection is an integer matmul against the md5-parity ±1 sign
    matrix, so every output cell is exact int64.  Pure ``map_batches``
    — ZERO exchanges; the 64×8 sign matrix is a module constant.
    Scale-out is the per-batch matmul (numpy, zero-copy Arrow in)."""
    signs = _rproj_signs()

    def project(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"vec_id": pd.array([], "int64"),
                 **{f"p{j}": pd.array([], "int64")
                    for j in range(RPROJ_DPRIME)}}
            )
        mat = np.stack([np.asarray(v, dtype=np.float64) for v in b["embedding"]])
        if mat.shape[1] != RPROJ_DIM:
            raise ValueError(f"embed_rproj expects dim {RPROJ_DIM}, got {mat.shape[1]}")
        xmic = np.floor(mat * 1_000_000.0).astype(np.int64)
        proj = xmic @ signs
        out = {"vec_id": b["vec_id"].astype("int64")}
        for j in range(RPROJ_DPRIME):
            out[f"p{j}"] = pd.array(proj[:, j], "int64")
        return pd.DataFrame(out)

    return (
        _embeddings(sf_dir)
        .map_batches(arrow_out(project), batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id", kind="mergesort")
        .reset_index(drop=True)
    )


RPROJ_SQL = f"""
WITH s AS (
  SELECT i, j,
         CASE WHEN ('0x' || substr(md5(i || '|' || j), 1, 8))::UBIGINT % 2 = 0
              THEN 1 ELSE -1 END AS sgn
  FROM (SELECT unnest(range(0, {RPROJ_DIM})) AS i),
       (SELECT unnest(range(0, {RPROJ_DPRIME})) AS j)
), x AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
), xm AS (
  SELECT vec_id, i,
         CAST(FLOOR(e[i + 1] * 1000000) AS BIGINT) AS xmic
  FROM x, (SELECT unnest(range(0, {RPROJ_DIM})) AS i)
), p AS (
  SELECT vec_id, j, CAST(SUM(sgn * xmic) AS BIGINT) AS pm
  FROM xm JOIN s USING (i) GROUP BY 1, 2
)
SELECT vec_id,
{",".join(f"       MAX(CASE WHEN j = {j} THEN pm END) AS p{j}" for j in range(8))}
FROM p GROUP BY vec_id ORDER BY vec_id
"""


def embed_triplets(sf_dir: str) -> pd.DataFrame:
    """Batch-hard triplet mining over the embeddings table
    (``stages/similarity.py:triplet_mine``): per anchor, the hardest
    positive (most-similar same-label vector) and hardest negative
    (most-similar different-label vector) — the contrastive-training
    data generator.  Cosines round to 6 dp (engine float contract);
    ties → lowest candidate id, mirrored by the oracle window."""
    from ..stages.similarity import triplet_mine

    out = triplet_mine(_embeddings(sf_dir)).to_pandas()
    return out.sort_values("anchor", kind="mergesort").reset_index(drop=True)


TRIPLETS_SQL = """
WITH p AS (
  SELECT a.vec_id AS anchor, a.label AS alab, b.vec_id AS cand, b.label AS clab,
         round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                      CAST(b.embedding AS DOUBLE[])), 6) AS cos
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
), pos AS (
  SELECT anchor, cand, cos,
         ROW_NUMBER() OVER (PARTITION BY anchor ORDER BY cos DESC, cand ASC) AS rn
  FROM p WHERE alab = clab
), neg AS (
  SELECT anchor, cand, cos,
         ROW_NUMBER() OVER (PARTITION BY anchor ORDER BY cos DESC, cand ASC) AS rn
  FROM p WHERE alab <> clab
)
SELECT pos.anchor AS anchor,
       pos.cand AS pos_id, pos.cos AS pos_cos,
       neg.cand AS neg_id, neg.cos AS neg_cos
FROM pos JOIN neg ON pos.anchor = neg.anchor
WHERE pos.rn = 1 AND neg.rn = 1
ORDER BY pos.anchor
"""


HUFFMAN_V = 256


def docs_huffman(sf_dir: str) -> pd.DataFrame:
    """Canonical Huffman code lengths for the corpus's top-256 tokens
    (+ one aggregated ``<other>`` symbol) — the compression-planning
    census: expected code length vs the entropy lower bound tells you
    what a token-level entropy coder would achieve on this corpus
    (``tests/test_huffman.py`` pins optimality, Kraft equality, the
    [H, H+1) bound, and determinism).

    Scale shape: per-batch token-count partials → ONE token-bucketed
    exchange with exact in-bucket sums; each bucket forwards only its
    top-256 (a global top-256 symbol is top-256 in its own bucket) plus
    a sentinel row carrying the bucket's total occurrences, so the
    driver folds ≤ buckets·257 rows; the tree build is O(V log V) on
    the bounded vocabulary.  Rows-only: the greedy merge has no SQL
    form (the cost identity is the in-repo oracle)."""
    from ..functions.coding import huffman_lengths
    from ..stages.shuffle import bucketed_group_map

    def census(b: pd.DataFrame) -> pd.DataFrame:
        toks = pd.Series(
            np.concatenate([t.split(" ") for t in b["text"].astype(str)])
            if len(b) else [], dtype=object
        )
        c = toks.value_counts()
        return pd.DataFrame(
            {"token": pd.array(c.index.astype(str), "str"),
             "n": pd.array(c.to_numpy(), "int64")}
        )

    parts = _docs(sf_dir, ["text"]).map_batches(
        arrow_out(census), batch_format="pandas"
    )

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("token", sort=False)["n"].sum().reset_index()
        top = agg.sort_values(["n", "token"], ascending=[False, True],
                              kind="mergesort").head(HUFFMAN_V)
        sentinel = pd.DataFrame({"token": [""], "n": [int(agg["n"].sum())]})
        out = pd.concat([top, sentinel], ignore_index=True)
        out["token"] = out["token"].astype(str)
        out["n"] = out["n"].astype("int64")
        return out

    cand = bucketed_group_map(parts, ["token"], bucket).to_pandas()
    total = int(cand.loc[cand["token"] == "", "n"].sum())
    toks = cand[cand["token"] != ""].sort_values(
        ["n", "token"], ascending=[False, True], kind="mergesort"
    ).head(HUFFMAN_V).reset_index(drop=True)
    other = total - int(toks["n"].sum())
    names = list(toks["token"]) + (["<other>"] if other > 0 else [])
    weights = [int(x) for x in toks["n"]] + ([other] if other > 0 else [])
    lens = huffman_lengths(weights)
    return pd.DataFrame(
        {"token": pd.array(names, "str"),
         "n_occ": pd.array(weights, "int64"),
         "code_len": pd.array(lens, "int64")}
    )


# -- leakage-safe (cluster-aware) train/test split -------------------------------


def docs_leakage_safe_split(sf_dir: str):
    """Near-dup-aware train/val/test split: every document inherits the
    split of its near-dup CLUSTER (SimHash components → canonical
    min-id; isolated docs are their own group), so near-duplicates can
    never straddle train and test — the contamination-safe variant of
    ``docs_split`` (Lee et al. "Deduplicating Training Data Makes LMs
    Better" splits by cluster for exactly this reason).

    Shape: the component table is the banded-SimHash + BSP-components
    chain (both already scale-shaped); one partitioned LEFT join keys
    every doc to its group, then a pure vectorized md5-mod assign.
    group_id rides along so the no-leakage property is auditable."""
    import pyarrow as pa

    from ..functions.hashing import md5_int_vec_prefixed
    from ..stages.joins import hash_join

    ids = _docs(sf_dir, ["doc_id"])
    comp = docs_dedup_components(sf_dir)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"doc_id": pd.array([], "int64"),
                 "group_id": pd.array([], "int64"),
                 "split": pd.array([], "str")}
            )
        gid = b["component_id"].fillna(b["doc_id"]).astype("int64")
        h = md5_int_vec_prefixed("gsplit", gid.to_numpy(), bits=32)
        split = np.where(h % 80 == 0, "val",
                         np.where(h % 90 == 0, "test", "train"))
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "group_id": gid,
             "split": pd.array(split, "str")}
        )

    joined = hash_join(
        ids, comp, on=["doc_id"], how="left",
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema(
            [("doc_id", pa.int64()), ("component_id", pa.int64())]
        ),
        bucket_post=assign,
    )
    return joined


def leakage_split_sql() -> str:
    return f"""
SELECT d.doc_id AS doc_id,
       COALESCE(c.component_id, d.doc_id) AS group_id,
       CASE WHEN ('0x' || substr(md5('gsplit|' ||
                 CAST(COALESCE(c.component_id, d.doc_id) AS VARCHAR)), 1, 8)
                 )::UBIGINT % 80 = 0 THEN 'val'
            WHEN ('0x' || substr(md5('gsplit|' ||
                 CAST(COALESCE(c.component_id, d.doc_id) AS VARCHAR)), 1, 8)
                 )::UBIGINT % 90 = 0 THEN 'test'
            ELSE 'train' END AS split
FROM documents d LEFT JOIN ({dedup_components_sql()}) c ON d.doc_id = c.doc_id
"""


# -- keyword-in-context search snippets -------------------------------------------

SNIPPET_TERM = "spark"
SNIPPET_PAD = 20


def docs_search_snippets(sf_dir: str):
    """KWIC (keyword-in-context) concordance: for every document
    containing the query term, its FIRST occurrence position (1-based,
    the SQL ``instr`` convention) and a ±20-char snippet — the
    human-review surface of the search family (``docs_search_*``).
    Pure pruned-scan map — ZERO exchanges; string arithmetic is
    byte-identical to the oracle's ``instr``/``substr``."""

    def kwic(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"doc_id": pd.array([], "int64"),
                 "pos": pd.array([], "int64"),
                 "snippet": pd.array([], "str")}
            )
        texts = b["text"].astype(str)
        pos0 = texts.str.find(SNIPPET_TERM)  # -1 = no match
        m = pos0 >= 0
        t = texts[m]
        p0 = pos0[m].to_numpy()
        # mirror substr(text, GREATEST(1, pos-PAD), end-start+1) exactly
        start0 = np.maximum(0, p0 - SNIPPET_PAD)
        end0 = p0 + len(SNIPPET_TERM) + SNIPPET_PAD  # exclusive
        snip = [s[a:e] for s, a, e in zip(t, start0, end0)]
        return pd.DataFrame(
            {"doc_id": b.loc[m, "doc_id"].astype("int64"),
             "pos": pd.array(p0 + 1, "int64"),
             "snippet": pd.array(snip, "str")}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        arrow_out(kwic), batch_format="pandas"
    )


SNIPPETS_SQL = f"""
SELECT doc_id,
       CAST(instr(text, '{SNIPPET_TERM}') AS BIGINT) AS pos,
       substr(text,
              GREATEST(1, instr(text, '{SNIPPET_TERM}') - {SNIPPET_PAD}),
              instr(text, '{SNIPPET_TERM}') + {len(SNIPPET_TERM)} + {SNIPPET_PAD}
                - GREATEST(1, instr(text, '{SNIPPET_TERM}') - {SNIPPET_PAD})
              ) AS snippet
FROM documents WHERE instr(text, '{SNIPPET_TERM}') > 0
"""


def docs_fragile_links(sf_dir: str, max_hamming: int = 3):
    """Fragile (bridge) links in the near-dup graph: pairs whose removal
    would split their dedup cluster — the classic false-positive
    amplifiers of transitive near-dup clustering (one bad pair glues two
    unrelated groups; auditing bridges first is the highest-leverage
    manual review).  Output: (doc_a, doc_b, component_id), doc_a < doc_b.

    Distributed shape: SimHash banded pairs → min-label components (both
    existing scale-shaped chains) → pairs join their component id via
    one partitioned hash join → ONE component-bucketed exchange runs
    iterative Tarjan PER COMPONENT (`stages/graph.py:bridge_edges`,
    O(V+E) per cluster — clusters are small by construction; a bridge
    never crosses components, so the bucketing is exact).  Rows-only;
    `tests/test_bridges.py` pins Tarjan ≡ brute edge-removal and
    parallelism invariance."""
    import pyarrow as pa

    from ..stages.components import connected_components
    from ..stages.dedup import simhash_neardup_pairs
    from ..stages.graph import bridge_edges
    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_group_map

    pairs = simhash_neardup_pairs(_docs(sf_dir, ["doc_id", "text"]), max_hamming)

    def strip(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_a": b["doc_a"].astype("int64"),
             "doc_b": b["doc_b"].astype("int64")}
        )

    pairs = pairs.map_batches(arrow_out(strip), batch_format="pandas").materialize()
    comp = connected_components(pairs, "doc_a", "doc_b")

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_a": b["node"].astype("int64"),
             "component_id": b["component_id"].astype("int64")}
        )

    comp_a = comp.map_batches(arrow_out(rename), batch_format="pandas")
    tagged = hash_join(
        pairs, comp_a, on=["doc_a"],
        left_schema=pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]),
        right_schema=pa.schema([("doc_a", pa.int64()), ("component_id", pa.int64())]),
    )

    def per_component(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for cid, sub in g.groupby("component_id", sort=False):
            br = bridge_edges(sub, "doc_a", "doc_b")
            if len(br):
                br["component_id"] = np.int64(cid)
                outs.append(br)
        if not outs:
            return pd.DataFrame(
                {"doc_a": pd.array([], "int64"),
                 "doc_b": pd.array([], "int64"),
                 "component_id": pd.array([], "int64")}
            )
        return pd.concat(outs, ignore_index=True)

    out = bucketed_group_map(tagged, ["component_id"], per_component).to_pandas()
    return out.sort_values(["doc_a", "doc_b"], kind="mergesort").reset_index(drop=True)


def docs_corpus_report(sf_dir: str) -> pd.DataFrame:
    """Fused per-source corpus dashboard: ONE read + ONE tiny census
    fold computing what ``docs_stats`` + ``docs_langid`` +
    ``docs_gopher_rules`` + the quality distinct-ratio each pay a
    separate execution for — the execution-count lesson (each chained
    Dataset execution costs ~1.5–2 s fixed at sf0.1) packaged as a
    product feature.  All columns are exact integer sums of the SAME
    per-doc contracts the individual oracled queries pin, so the fused
    report stays SQL-oracled."""
    from ..stages.text_stats import (
        EN_STOPWORDS,
        LANG_STOPWORD_THRESHOLD,
        doc_stats_batch,
        gopher_rules_batch,
    )

    docs = _docs(sf_dir, ["doc_id", "text", "source"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"source": pd.array([], "str"),
                 **{c: pd.array([], "int64") for c in
                    ("n_docs", "n_tokens", "n_chars", "n_stopwords",
                     "n_distinct", "n_lang_en", "n_gopher_pass")}}
            )
        st = doc_stats_batch(b)
        go = gopher_rules_batch(b)
        tokens = b["text"].astype(str).str.split(" ")
        n_distinct = tokens.map(lambda ts: len(set(ts))).astype("int64")
        lang_en = (st["stopword_ratio"] >= LANG_STOPWORD_THRESHOLD)
        f = pd.DataFrame(
            {"source": b["source"].astype(str),
             "n_docs": np.int64(1),
             "n_tokens": st["n_tokens"].astype("int64"),
             "n_chars": st["n_chars_actual"].astype("int64"),
             "n_stopwords": st["n_stopwords"].astype("int64"),
             "n_distinct": n_distinct,
             "n_lang_en": lang_en.astype("int64"),
             "n_gopher_pass": go["passes"].astype("int64")}
        )
        return f

    cols = ("n_docs", "n_tokens", "n_chars", "n_stopwords", "n_distinct",
            "n_lang_en", "n_gopher_pass")
    agg = fold_groups(  # ≤ |sources| rows
        docs.map_batches(arrow_out(partial), batch_format="pandas"),
        ["source"], [(c, "sum") for c in cols])
    out = {"source": pd.array(agg["source"], "str")}
    for c in cols:
        out[c] = agg[c].astype("int64")
    return pd.DataFrame(out)


CORPUS_REPORT_SQL = f"""
WITH x AS (
  SELECT source,
         len(string_split(text, ' ')) AS nt,
         length(text) AS nc,
         len(list_filter(string_split(text, ' '), t -> t IN ({_STOP_SQL}))) AS ns,
         len(list_distinct(string_split(text, ' '))) AS nd,
         length(text) - (len(string_split(text, ' ')) - 1) AS swl,
         len(list_filter(string_split(text, ' '),
                         t -> regexp_matches(t, '[a-zA-Z]'))) AS na,
         len(list_filter(string_split(text, ' '),
                         t -> contains(t, '#') OR contains(t, '...'))) AS nsym
  FROM documents
)
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(nt) AS BIGINT) AS n_tokens,
       CAST(SUM(nc) AS BIGINT) AS n_chars,
       CAST(SUM(ns) AS BIGINT) AS n_stopwords,
       CAST(SUM(nd) AS BIGINT) AS n_distinct,
       CAST(SUM(CASE WHEN CAST(ns AS DOUBLE) / nt >= 0.05
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_lang_en,
       CAST(SUM(CASE WHEN nt BETWEEN 50 AND 100000
                      AND swl >= 3 * nt AND swl <= 10 * nt
                      AND 5 * na >= 4 * nt AND ns >= 2 AND 10 * nsym <= nt
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_gopher_pass
FROM x GROUP BY 1 ORDER BY 1
"""


# -- int8 vector quantization audit ----------------------------------------------

def embed_quantize(sf_dir: str) -> pd.DataFrame:
    """Per-vector symmetric INT8 quantization audit — the compression
    step every large embedding store applies, with its reconstruction
    error measured exactly: ``scale = max|x|/127``, ``q = floor(x/scale
    + 0.5)`` (clamped), error = ``max|x − q·scale|``.

    A pure per-vector ``map_batches`` (no exchange); the whole float
    path (float32→double cast, one division, floor-half-up, one fused
    reconstruct) is mirrored term-for-term in the SQL oracle over
    UNNEST, so outputs are bit-decided: scale/error emitted as
    floor-nano ints, saturated-lane count as int64.  FLOOR(z+0.5) is
    used on BOTH sides (never round(): DuckDB rounds half-away,
    numpy half-even — the documented tie trap)."""
    import numpy as np

    def audit(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {"vec_id": pd.array([], "int64"),
                 "scale_nano": pd.array([], "int64"),
                 "max_err_nano": pd.array([], "int64"),
                 "n_saturated": pd.array([], "int64")})
        mat = np.stack(
            [np.asarray(v, dtype=np.float64) for v in b["embedding"]])
        amax = np.abs(mat).max(axis=1)
        scale = amax / 127.0
        safe = np.where(scale == 0.0, 1.0, scale)
        q = np.clip(np.floor(mat / safe[:, None] + 0.5), -127.0, 127.0)
        q = np.where(scale[:, None] == 0.0, 0.0, q)
        err = np.abs(mat - q * scale[:, None]).max(axis=1)
        return pd.DataFrame(
            {"vec_id": b["vec_id"].astype("int64"),
             "scale_nano": np.floor(
                 scale * 1e9 + 0.5).astype("int64"),
             "max_err_nano": np.floor(err * 1e9 + 0.5).astype("int64"),
             "n_saturated": (np.abs(q) == 127.0).sum(axis=1)
             .astype("int64")})

    return _embeddings(sf_dir).map_batches(
        arrow_out(audit), batch_format="pandas")


EMBED_QUANTIZE_SQL = """
WITH u AS (
  SELECT vec_id, CAST(UNNEST(embedding) AS DOUBLE) AS x FROM embeddings),
s AS (
  SELECT vec_id, MAX(ABS(x)) / 127.0 AS scale FROM u GROUP BY 1),
q AS (
  SELECT u.vec_id, u.x, s.scale,
         CASE WHEN s.scale = 0 THEN 0.0
              ELSE GREATEST(-127.0, LEAST(127.0,
                   FLOOR(u.x / s.scale + 0.5))) END AS qi
  FROM u JOIN s USING (vec_id))
SELECT vec_id,
       CAST(FLOOR(ANY_VALUE(scale) * 1e9 + 0.5) AS BIGINT) AS scale_nano,
       CAST(FLOOR(MAX(ABS(x - qi * scale)) * 1e9 + 0.5) AS BIGINT)
         AS max_err_nano,
       CAST(SUM(CASE WHEN ABS(qi) = 127.0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_saturated
FROM q
GROUP BY vec_id
"""


# -- per-label top embedding dimensions -------------------------------------------

TOPK_DIMS = 5


def embed_topk_dims(sf_dir: str) -> pd.DataFrame:
    """Per-label TOP-5 embedding dimensions by total |activation| — the
    feature-importance census over the vector table.  Per-batch exact
    int64 partials (each |x| floored to micro BEFORE the sum — the
    order-free integer contract), one (label × dim) driver fold,
    driver rank by (sum desc, dim asc)."""
    import numpy as np

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"label": pd.array([], "int64"),
                                 "dim": pd.array([], "int64"),
                                 "abs_u": pd.array([], "int64")})
        mat = np.stack(
            [np.asarray(v, dtype=np.float64) for v in b["embedding"]])
        au = np.floor(np.abs(mat) * 1e6 + 0.5).astype("int64")
        lab = b["label"].to_numpy().astype("int64")
        frames = []
        for lv in np.unique(lab):
            s = au[lab == lv].sum(axis=0)
            frames.append(pd.DataFrame(
                {"label": lv, "dim": np.arange(len(s), dtype="int64"),
                 "abs_u": s}))
        return pd.concat(frames, ignore_index=True).astype("int64")

    agg = fold_groups(
        _embeddings(sf_dir).map_batches(arrow_out(partial),
                                        batch_format="pandas"),
        ["label", "dim"], [("abs_u", "sum")])
    agg = agg.sort_values(["label", "abs_u", "dim"],
                          ascending=[True, False, True])
    top = agg.groupby("label").head(TOPK_DIMS).reset_index(drop=True)
    top["rank"] = top.groupby("label").cumcount() + 1
    return top[["label", "rank", "dim", "abs_u"]].astype("int64")


EMBED_TOPK_DIMS_SQL = f"""
WITH u AS (
  SELECT CAST(label AS BIGINT) AS label,
         CAST(UNNEST(embedding) AS DOUBLE) AS x,
         CAST(GENERATE_SUBSCRIPTS(embedding, 1) - 1 AS BIGINT) AS dim
  FROM embeddings),
s AS (
  SELECT label, dim,
         CAST(SUM(CAST(FLOOR(ABS(x) * 1000000 + 0.5) AS BIGINT))
              AS BIGINT) AS abs_u
  FROM u GROUP BY 1, 2),
r AS (
  SELECT label, dim, abs_u,
         ROW_NUMBER() OVER (PARTITION BY label
                            ORDER BY abs_u DESC, dim) AS rank
  FROM s)
SELECT label, CAST(rank AS BIGINT) AS rank, dim, abs_u
FROM r WHERE rank <= {TOPK_DIMS}
"""


# -- script-composition census ----------------------------------------------------

_CJK_RE = None


def docs_script_mix(sf_dir: str) -> pd.DataFrame:
    """Per-source SCRIPT composition — exact char-class counts (CJK /
    latin / digit / other) over every document, the writing-system
    census a multilingual curation pipeline cuts on (finer than
    ``docs_langid``'s n-gram guess: these are exact counts, not a
    classifier).  Pure per-batch vectorized counting (compiled regex,
    applied per column not per row), one tiny per-source fold; basis
    points are integer ``count·10⁴ // total``."""
    import re

    import numpy as np

    cjk = re.compile(r"[一-鿿]")
    lat = re.compile(r"[A-Za-z]")
    dig = re.compile(r"[0-9]")

    docs = _docs(sf_dir, ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].astype(str)
        return pd.DataFrame({
            "source": b["source"].astype(str),
            "n_chars": t.str.len().astype("int64"),
            "n_cjk": t.str.count(cjk).astype("int64"),
            "n_latin": t.str.count(lat).astype("int64"),
            "n_digit": t.str.count(dig).astype("int64"),
        })

    agg = fold_groups(
        docs.map_batches(arrow_out(partial), batch_format="pandas"),
        ["source"], [("n_chars", "sum"), ("n_cjk", "sum"),
                     ("n_latin", "sum"), ("n_digit", "sum")])
    tot = agg["n_chars"].to_numpy("int64")
    out = pd.DataFrame({
        "source": pd.array(agg["source"], "str"),
        "n_chars": tot,
        "cjk_bp": agg["n_cjk"].to_numpy("int64") * 10_000 // tot,
        "latin_bp": agg["n_latin"].to_numpy("int64") * 10_000 // tot,
        "digit_bp": agg["n_digit"].to_numpy("int64") * 10_000 // tot,
    })
    return out.sort_values("source").reset_index(drop=True)


DOCS_SCRIPT_MIX_SQL = r"""
WITH c AS (
  SELECT source,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(length(text)
              - length(regexp_replace(text, '[\x{4e00}-\x{9fff}]', '', 'g'))
              AS BIGINT) AS n_cjk,
         CAST(length(text)
              - length(regexp_replace(text, '[A-Za-z]', '', 'g'))
              AS BIGINT) AS n_latin,
         CAST(length(text)
              - length(regexp_replace(text, '[0-9]', '', 'g'))
              AS BIGINT) AS n_digit
  FROM documents)
SELECT source,
       CAST(SUM(n_chars) AS BIGINT) AS n_chars,
       CAST(SUM(n_cjk) * 10000 // SUM(n_chars) AS BIGINT) AS cjk_bp,
       CAST(SUM(n_latin) * 10000 // SUM(n_chars) AS BIGINT) AS latin_bp,
       CAST(SUM(n_digit) * 10000 // SUM(n_chars) AS BIGINT) AS digit_bp
FROM c GROUP BY 1
ORDER BY 1
"""


# -- embedding distribution drift -------------------------------------------------

def embed_drift(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding DRIFT monitor: cosine similarity between the
    mean vectors of the first and second half of the table (vec_id
    parity split — content-stable) — the distribution-shift alarm a
    production embedding store watches between snapshots.

    Per-batch exact int64 micro sums per (label, half, dim) — each
    value floored to micro BEFORE summation (order-free) — one bounded
    (labels × 2 × dims) driver fold; the cosine over the two integer mean
    vectors is the single mirrored float path, floor-micro.  Degenerate
    halves (zero vectors) emit similarity 0."""
    import numpy as np

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"label": pd.array([], "int64"),
                                 "half": pd.array([], "int64"),
                                 "dim": pd.array([], "int64"),
                                 "s_u": pd.array([], "int64"),
                                 "n": pd.array([], "int64")})
        mat = np.stack(
            [np.asarray(v, dtype=np.float64) for v in b["embedding"]])
        su = np.floor(mat * 1e6 + 0.5).astype("int64")
        lab = b["label"].to_numpy().astype("int64")
        half = (b["vec_id"].to_numpy().astype("int64") % 2)
        frames = []
        for lv in np.unique(lab):
            for h in (0, 1):
                m = (lab == lv) & (half == h)
                if not m.any():
                    continue
                s = su[m].sum(axis=0)
                frames.append(pd.DataFrame(
                    {"label": lv, "half": h,
                     "dim": np.arange(len(s), dtype="int64"),
                     "s_u": s, "n": int(m.sum())}))
        return pd.concat(frames, ignore_index=True).astype("int64")

    agg = fold_groups(
        _embeddings(sf_dir).map_batches(arrow_out(partial),
                                        batch_format="pandas"),
        ["label", "half", "dim"], [("s_u", "sum"), ("n", "sum")])
    rows = []
    for lv, g in agg.groupby("label"):
        g0 = g[g["half"] == 0].sort_values("dim")
        g1 = g[g["half"] == 1].sort_values("dim")
        a = [int(v) for v in g0["s_u"]]
        b_ = [int(v) for v in g1["s_u"]]
        n0 = int(g0["n"].max()) if len(g0) else 0
        n1 = int(g1["n"].max()) if len(g1) else 0
        # EXACT integer dot products (Python bigints ≡ DuckDB HUGEINT
        # sums) — a float dot product's addition order would differ
        # between numpy and SQL; only the final casts + division float
        num_i = sum(x * y for x, y in zip(a, b_))
        d1 = sum(x * x for x in a)
        d2 = sum(y * y for y in b_)
        if d1 > 0 and d2 > 0:
            import math

            cos = float(num_i) / (math.sqrt(float(d1))
                                  * math.sqrt(float(d2)))
        else:
            cos = 0.0
        rows.append((int(lv), n0, n1, int(np.floor(cos * 1e6 + 0.5))))
    return (pd.DataFrame(rows, columns=["label", "n_first", "n_second",
                                        "cos_micro"])
            .sort_values("label").reset_index(drop=True)
            .astype("int64"))


EMBED_DRIFT_SQL = """
WITH u AS (
  SELECT CAST(label AS BIGINT) AS label,
         CAST(vec_id % 2 AS BIGINT) AS half,
         CAST(GENERATE_SUBSCRIPTS(embedding, 1) - 1 AS BIGINT) AS dim,
         CAST(FLOOR(CAST(UNNEST(embedding) AS DOUBLE) * 1000000 + 0.5)
              AS BIGINT) AS xu,
         vec_id
  FROM embeddings),
s AS (
  SELECT label, half, dim,
         CAST(SUM(xu) AS BIGINT) AS s_u,
         CAST(COUNT(DISTINCT vec_id) AS BIGINT) AS n
  FROM u GROUP BY 1, 2, 3),
p AS (
  SELECT a.label,
         ANY_VALUE(a.n) AS n_first, ANY_VALUE(b.n) AS n_second,
         SUM(CAST(a.s_u AS HUGEINT) * b.s_u) AS num,
         SUM(CAST(a.s_u AS HUGEINT) * a.s_u) AS d1,
         SUM(CAST(b.s_u AS HUGEINT) * b.s_u) AS d2
  FROM s a JOIN s b ON a.label = b.label AND a.dim = b.dim
  WHERE a.half = 0 AND b.half = 1
  GROUP BY 1)
SELECT label, n_first, n_second,
       CAST(FLOOR(CASE WHEN d1 > 0 AND d2 > 0
                  THEN CAST(num AS DOUBLE)
                       / (sqrt(CAST(d1 AS DOUBLE)) * sqrt(CAST(d2 AS DOUBLE)))
                  ELSE 0.0 END * 1000000 + 0.5) AS BIGINT) AS cos_micro
FROM p
ORDER BY label
"""


# -- vocabulary drift between halves ----------------------------------------------

def docs_vocab_drift(sf_dir: str) -> pd.DataFrame:
    """Per-source VOCABULARY drift between the doc_id-parity halves of
    the corpus — the text sibling of ``embed_drift``: |V₁|, |V₂|, the
    overlap, and the Jaccard (integer micro = ``overlap·10⁶ //
    |V₁∪V₂|`` — floor division both engines, no float at all).

    Per-batch (source, token) → half-membership bitmask combiner → one
    vocabulary-bounded exchange (Max over the 2-bit mask) → per-source
    fold of bit counts."""
    docs = _docs(sf_dir, ["doc_id", "source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        srcs, toks, masks = [], [], []
        for did, src, text in zip(b["doc_id"].astype("int64"),
                                  b["source"].astype(str),
                                  b["text"].astype(str)):
            bit = 1 << (int(did) % 2)
            for t in set(text.split(" ")):
                srcs.append(src)
                toks.append(t)
                masks.append(bit)
        if not srcs:
            return pd.DataFrame({"source": pd.array([], "str"),
                                 "token": pd.array([], "str"),
                                 "mask": pd.array([], "int64")})
        g = (pd.DataFrame({"source": srcs, "token": toks, "mask": masks})
             .groupby(["source", "token"], sort=False)["mask"]
             .agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
             .reset_index())
        return g.astype({"mask": "int64"})

    # bitwise-or folds as Max would NOT (1|2=3) — emit per-batch OR
    # partials and fold with a second OR inside a bucketed exchange
    from ..stages.shuffle import bucketed_group_map

    parts = docs.map_batches(arrow_out(partial), batch_format="pandas")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["source", "token"], sort=False)["mask"]
               .agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
               .reset_index())
        mask = out["mask"].to_numpy("int64")
        return pd.DataFrame({"source": out["source"],
                             "v1": (mask & 1 != 0).astype("int64"),
                             "v2": (mask & 2 != 0).astype("int64"),
                             "overlap": (mask == 3).astype("int64"),
                             "union": 1})

    agg = fold_groups(  # ≤ |sources| rows
        bucketed_group_map(parts, ["source", "token"], fold), ["source"],
        [(c, "sum") for c in ("v1", "v2", "overlap", "union")])
    out = pd.DataFrame({
        "source": pd.array(agg["source"], "str"),
        "v1": agg["v1"].astype("int64"),
        "v2": agg["v2"].astype("int64"),
        "overlap": agg["overlap"].astype("int64"),
        "jaccard_micro": (agg["overlap"].to_numpy("int64") * 1_000_000
                          // agg["union"].to_numpy("int64")),
    })
    return out.sort_values("source").reset_index(drop=True)


DOCS_VOCAB_DRIFT_SQL = """
WITH t AS (
  SELECT DISTINCT source, doc_id % 2 AS half,
         UNNEST(string_split(text, ' ')) AS token
  FROM documents),
m AS (
  SELECT source, token,
         CAST(MAX(CASE WHEN half = 0 THEN 1 ELSE 0 END)
              + 2 * MAX(CASE WHEN half = 1 THEN 1 ELSE 0 END)
              AS BIGINT) AS mask
  FROM t GROUP BY 1, 2)
SELECT source,
       CAST(SUM(CASE WHEN mask & 1 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS v1,
       CAST(SUM(CASE WHEN mask & 2 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS v2,
       CAST(SUM(CASE WHEN mask = 3 THEN 1 ELSE 0 END) AS BIGINT) AS overlap,
       CAST(SUM(CASE WHEN mask = 3 THEN 1 ELSE 0 END) * 1000000
            // COUNT(*) AS BIGINT) AS jaccard_micro
FROM m GROUP BY 1
ORDER BY 1
"""
