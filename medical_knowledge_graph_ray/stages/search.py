"""Inverted-index build + boolean-AND search serving.

The text-retrieval sibling of the persisted PQ index
(``similarity.py:build_pq_index``): the corpus is tokenized ONCE into a
token-bucketed Parquet postings index, and every later query reads ONLY
the buckets its terms hash to (file-level pruning) with a ``token IN
terms`` row-group filter inside them (postings are written
token-sorted, so Parquet min/max stats prune within the bucket too).

Reference analogue: the gazetteer scan answers "which entities are in
this doc"; the inverted index answers the transposed serving question
"which docs contain these terms" without a corpus scan per query —
S7-style build-once/serve-many.

Scale shape: the build is one vectorized explode (distinct (token,
doc_id) per batch — the map-side combiner) + ONE bucketed exchange on
the md5 token bucket; postings files never co-reside in memory.  The
serve path's exchange is bounded by the SMALLEST term's posting list
(the AND census only counts rows that survived the token filter).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import exchange, fold_groups, with_bucket

N_SEARCH_BUCKETS = 32
N_SERVE_BUCKETS = 8  # doc-side buckets of the serve exchanges
_INDEX_VERSION = "v3"  # v2: +(tf, dl) for BM25; v3: +positions for phrases

# observability: row count the driver collected on the LAST serve call
# (per path) — pytest pins the ≤ buckets×k bound on common-token queries
LAST_SERVE_COLLECTED: dict[str, int] = {}


def _fingerprint() -> str:
    return f"inverted_index|{_INDEX_VERSION}|buckets={N_SEARCH_BUCKETS}"


def _explode_tokens(b: pd.DataFrame) -> pd.DataFrame:
    """documents batch → one (token, doc_id, tf, dl, pos) row per distinct
    (token, doc) pair, exchange-bucketed on the md5 token bucket; ``pos``
    is the sorted in-doc position list (the positional-index payload
    phrase queries intersect).

    Vectorized split + repeat; the per-batch (token, doc) groupby is the
    map-side combiner.  ``dl`` (the doc's token count) is exact here —
    each documents row carries its FULL text — so BM25 length
    normalization needs no separate lengths table."""
    from ..functions.hashing import stable_bucket_vec

    if not len(b):
        return with_bucket(pd.DataFrame(
            {"token": pd.array([], "str"), "doc_id": pd.array([], "int64"),
             "tf": pd.array([], "int64"), "dl": pd.array([], "int64"),
             "pos": pd.Series([], dtype=object)}
        ), [])
    toks = b["text"].astype(str).str.split(" ")
    counts = toks.str.len().to_numpy()
    flat = np.concatenate(toks.to_numpy())
    doc = np.repeat(b["doc_id"].to_numpy().astype("int64"), counts)
    dl = np.repeat(counts.astype("int64"), counts)
    # in-doc token position (empty tokens keep their slot so positions
    # mirror the original token stream — phrase adjacency stays exact)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    pos = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts)
    df = (
        pd.DataFrame({"token": flat, "doc_id": doc, "dl": dl, "pos": pos})
        .groupby(["token", "doc_id", "dl"], sort=False)["pos"]
        .agg(list)  # an ndarray return here trips pandas' agg check
        .reset_index()
    )
    df = df[df["token"] != ""]
    pos_list = [np.sort(np.asarray(p, dtype=np.int32)) for p in df["pos"]]
    return with_bucket(pd.DataFrame(
        {"token": pd.array(df["token"].to_numpy(), "str"),
         "doc_id": pd.array(df["doc_id"].to_numpy(), "int64"),
         "tf": pd.array([len(p) for p in pos_list], "int64"),
         "dl": pd.array(df["dl"].to_numpy().astype("int64"), "int64"),
         "pos": pd.Series(pos_list, dtype=object)}
    ), stable_bucket_vec(df["token"].to_numpy(), N_SEARCH_BUCKETS))


def build_inverted_index(docs, out_dir: str, *, resume: bool = True) -> dict:
    """Materialize the postings index: one token-sorted Parquet file per
    md5 token bucket + an auditable manifest.  Rebuilds are manifest-keyed
    no-ops (``resume=True``)."""
    from ..functions.arrow import arrow_out, read_parquet_clean
    from ..functions.hashing import stable_bucket_vec

    manifest_path = os.path.join(out_dir, "_MANIFEST.json")
    if resume and os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            m = json.load(fh)
        if m.get("fingerprint") == _fingerprint():
            return m

    os.makedirs(out_dir, exist_ok=True)

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.parquet as pq

        bucket = int(stable_bucket_vec(g["token"].to_numpy()[:1], N_SEARCH_BUCKETS)[0])
        part = g.sort_values(["token", "doc_id"], kind="mergesort")[
            ["token", "doc_id", "tf", "dl", "pos"]
        ]
        pq.write_table(
            pa.Table.from_pandas(part, preserve_index=False).replace_schema_metadata(None),
            os.path.join(out_dir, f"bucket={bucket:04d}.parquet"),
            row_group_size=8192,  # token-sorted → min/max stats prune IN terms
        )
        return pd.DataFrame(
            {"bucket": pd.array([bucket], "int32"),
             "rows": pd.array([len(part)], "int64"),
             "tf_sum": pd.array([int(part["tf"].sum())], "int64")}
        )

    postings = docs.map_batches(arrow_out(_explode_tokens), batch_format="pandas")
    written = exchange(postings, write_bucket).to_pandas()  # ≤ N_SEARCH_BUCKETS rows
    m = {
        "fingerprint": _fingerprint(),
        "rows": int(written["rows"].sum()),
        # BM25 corpus stats: total token count (Σ tf ≡ Σ doc lengths)
        # and the doc census, both free at build time
        "total_tf": int(written["tf_sum"].sum()),
        "n_docs": int(docs.count()),
        "buckets": [
            {"bucket": int(r.bucket), "rows": int(r.rows)}
            for r in written.itertuples()
        ],
    }
    with open(manifest_path, "w") as fh:
        json.dump(m, fh, indent=1)
    return m


def search_and(
    index_dir: str, terms: list[str], *, limit: int | None = None
) -> pd.DataFrame:
    """Boolean-AND serve: doc_ids containing EVERY term.

    Reads only the buckets the terms hash to, filters ``token IN terms``
    at the scan, and counts distinct terms per doc through one bucketed
    exchange — the exchange payload is bounded by the posting lists of
    the query terms, never the index.

    ``limit``: with a limit, each doc bucket emits only its ``limit``
    smallest matching doc_ids, so the driver collects ≤ buckets×limit
    rows even for a corpus-wide common-token query (result = the
    globally smallest ``limit`` matches — deterministic).  ``None``
    returns the full match set: that is the operator's SEMANTICS, but at
    web scale the caller owns the O(df) result; pass a limit for
    interactive serving."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.arrow import arrow_out, read_parquet_clean
    from ..functions.hashing import stable_bucket_vec
    from .shuffle import bucketed_group_map

    terms = sorted(set(terms))
    k = len(terms)
    if k == 0:
        return pd.DataFrame({"doc_id": pd.array([], "int64")})
    buckets = sorted(set(stable_bucket_vec(np.array(terms), N_SEARCH_BUCKETS)))
    files = [
        f
        for b in buckets
        if os.path.exists(f := os.path.join(index_dir, f"bucket={int(b):04d}.parquet"))
    ]
    if not files:
        return pd.DataFrame({"doc_id": pd.array([], "int64")})
    postings = read_parquet_clean(
        files, columns=["token", "doc_id"],
        filter=pc.field("token").isin(terms),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # postings are distinct (token, doc) by construction → count rows
        c = b.groupby("doc_id", sort=False).size()
        return pd.DataFrame(
            {"doc_id": pd.array(c.index, "int64"),
             "n": pd.array(c.to_numpy(), "int64")}
        )

    def and_filter(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("doc_id", sort=False)["n"].sum()
        hit = s[s == k].index.to_numpy()
        hit = np.sort(hit)
        if limit is not None:
            hit = hit[:limit]  # bucket-local head: ≤ limit rows leave
        return pd.DataFrame({"doc_id": pd.array(hit, "int64")})

    out = bucketed_group_map(
        postings.map_batches(arrow_out(partial), batch_format="pandas"),
        ["doc_id"], and_filter, num_buckets=N_SERVE_BUCKETS,
    ).to_pandas()  # ≤ buckets×limit rows (or the match set when no limit)
    LAST_SERVE_COLLECTED["and"] = len(out)
    if "doc_id" not in out.columns:  # Ray 2.49: zero-block to_pandas drops schema
        return pd.DataFrame({"doc_id": pd.array([], "int64")})
    out = out.sort_values("doc_id").reset_index(drop=True)
    return out.head(limit).reset_index(drop=True) if limit is not None else out


BM25_K1, BM25_B = 1.2, 0.75


def search_ranked(
    index_dir: str, terms: list[str], *, k: int = 10,
    k1: float = BM25_K1, b: float = BM25_B,
) -> pd.DataFrame:
    """BM25 top-k over the postings index (disjunctive semantics — a doc
    matching any term scores).

    Two passes over the SAME bucket-pruned, token-filtered read
    (materialized once — it is bounded by the terms' posting lists):
    a |terms|-row df census (every token's postings live wholly in its
    hash bucket, so the filtered row count per token IS its global df),
    then vectorized per-row BM25 addends.  Float contract: each addend
    rounds to 6 dp BEFORE the per-doc sum — the true sum is then an
    exact multiple of 1e-6, so the final 6-dp round is immune to
    summation order on both engines."""
    import math

    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.arrow import arrow_out, read_parquet_clean
    from ..functions.hashing import stable_bucket_vec
    from .shuffle import bucketed_group_map

    terms = sorted(set(terms))
    empty = pd.DataFrame(
        {"doc_id": pd.array([], "int64"), "score": pd.array([], "float64")}
    )
    if not terms:
        return empty
    with open(os.path.join(index_dir, "_MANIFEST.json")) as fh:
        m = json.load(fh)
    n_docs, total_tf = m["n_docs"], m["total_tf"]
    avgdl = total_tf / n_docs

    buckets = sorted(set(stable_bucket_vec(np.array(terms), N_SEARCH_BUCKETS)))
    files = [
        f
        for bk in buckets
        if os.path.exists(
            f := os.path.join(index_dir, f"bucket={int(bk):04d}.parquet")
        )
    ]
    if not files:
        return empty
    postings = read_parquet_clean(
        files, columns=["token", "doc_id", "tf", "dl"],
        filter=pc.field("token").isin(terms),
    ).materialize()  # bounded by the query terms' posting lists

    census = fold_groups(  # ≤ |terms| rows
        postings.select_columns(["token"]).map_batches(
            lambda t: t.append_column("n", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["token"], [("n", "sum")])
    if not len(census):
        return empty
    df_map = census.set_index("token")["n"].to_dict()
    idf = {
        t: math.log((n_docs - d + 0.5) / (d + 0.5) + 1)
        for t, d in df_map.items()
    }

    def addends(t: pd.DataFrame) -> pd.DataFrame:
        tf = t["tf"].to_numpy().astype("float64")
        dl = t["dl"].to_numpy().astype("float64")
        idf_arr = t["token"].map(idf).to_numpy().astype("float64")
        # expression order mirrors the SQL oracle exactly (left-assoc)
        w = idf_arr * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
        g = (
            pd.DataFrame({"doc_id": t["doc_id"].astype("int64"),
                          "w": np.round(w, 6)})
            .groupby("doc_id", sort=False)["w"].sum().reset_index()
        )
        return g

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        # bucket-local top-k: every doc_id lives wholly in one bucket, so
        # the global top-k is a subset of the per-bucket top-k's — the
        # driver collects ≤ buckets×k rows even when a corpus-frequency
        # token matches millions of docs (the old full-candidate collect
        # returned O(df) rows to the driver)
        s = g.groupby("doc_id", sort=False)["w"].sum()
        d = pd.DataFrame(
            {"doc_id": pd.array(s.index, "int64"),
             "score": np.round(s.to_numpy(), 6)}
        )
        return d.sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)

    scored = bucketed_group_map(
        postings.map_batches(arrow_out(addends), batch_format="pandas"),
        ["doc_id"], per_doc, num_buckets=N_SERVE_BUCKETS,
    ).to_pandas()  # ≤ buckets×k rows by construction
    LAST_SERVE_COLLECTED["ranked"] = len(scored)
    if "doc_id" not in scored.columns:
        return empty
    return (
        scored.sort_values(["score", "doc_id"], ascending=[False, True])
        .head(k).reset_index(drop=True)
    )


def merge_indexes(parts: list[str], out_dir: str, *, resume: bool = True) -> dict:
    """Incremental index maintenance (the ``merge_graph_runs`` analogue):
    fold several postings indexes over DISJOINT doc sets into one, per
    bucket — the same token hashes to the same bucket in every part, so
    the merge is an embarrassingly parallel per-bucket concat + re-sort
    with NO exchange.  ``merge(build(A), build(B)) == build(A ∪ B)``
    exactly (postings rows are per (token, doc); doc sets are disjoint),
    pinned by pytest.  Corpus-append without re-tokenizing old docs."""
    import ray

    manifest_path = os.path.join(out_dir, "_MANIFEST.json")
    metas = []
    for p in parts:
        with open(os.path.join(p, "_MANIFEST.json")) as fh:
            metas.append(json.load(fh))
    for m in metas:
        if m["fingerprint"] != _fingerprint():
            raise ValueError(f"index version mismatch: {m['fingerprint']}")
    if resume and os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            m = json.load(fh)
        if m.get("fingerprint") == _fingerprint() and m.get("merged_from") == parts:
            return m

    os.makedirs(out_dir, exist_ok=True)

    @ray.remote
    def merge_bucket(bucket: int) -> tuple[int, int, int]:
        import pyarrow.parquet as pq_

        name = f"bucket={bucket:04d}.parquet"
        tables = [
            pq_.read_table(os.path.join(p, name))
            for p in parts
            if os.path.exists(os.path.join(p, name))
        ]
        if not tables:
            return bucket, 0, 0
        merged = (
            pd.concat([t.to_pandas() for t in tables], ignore_index=True)
            .sort_values(["token", "doc_id"], kind="mergesort")
        )
        import pyarrow as pa_

        pq_.write_table(
            pa_.Table.from_pandas(merged, preserve_index=False).replace_schema_metadata(None),
            os.path.join(out_dir, name), row_group_size=8192,
        )
        return bucket, len(merged), int(merged["tf"].sum())

    results = ray.get(
        [merge_bucket.remote(b) for b in range(N_SEARCH_BUCKETS)]
    )
    written = [(b, r, s) for b, r, s in results if r > 0]
    m = {
        "fingerprint": _fingerprint(),
        "merged_from": parts,
        "rows": int(sum(r for _b, r, _s in written)),
        "total_tf": int(sum(s for _b, _r, s in written)),
        "n_docs": int(sum(meta["n_docs"] for meta in metas)),
        "buckets": [{"bucket": b, "rows": r} for b, r, _s in written],
    }
    with open(manifest_path, "w") as fh:
        json.dump(m, fh, indent=1)
    return m


def search_phrase(
    index_dir: str, phrase: list[str], *, limit: int | None = None
) -> pd.DataFrame:
    """Exact phrase serve over the positional (v3) postings: doc_ids
    where the phrase tokens appear CONSECUTIVELY.

    Positional adjacency via offset-shifted position-set intersection
    (``∩ᵢ (posᵢ − i)``), the classic positional-index algorithm — one
    bucket-pruned, token-filtered read, one doc-co-locating exchange
    bounded by the phrase terms' posting lists.  Repeated phrase tokens
    intersect the SAME posting list at different offsets, so e.g.
    'batch batch' works without special-casing.

    ``limit``: bucket-local head — each doc bucket emits only its
    ``limit`` smallest matching doc_ids (driver collects ≤ buckets×limit
    rows; result = globally smallest ``limit`` matches).  ``None``
    returns the full match set (the operator's semantics)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.arrow import arrow_out, read_parquet_clean
    from ..functions.hashing import stable_bucket_vec
    from .shuffle import bucketed_group_map

    empty = pd.DataFrame({"doc_id": pd.array([], "int64")})
    phrase = [t for t in phrase if t]
    if not phrase:
        return empty
    uniq = sorted(set(phrase))
    buckets = sorted(set(stable_bucket_vec(np.array(uniq), N_SEARCH_BUCKETS)))
    files = [
        f
        for bk in buckets
        if os.path.exists(
            f := os.path.join(index_dir, f"bucket={int(bk):04d}.parquet")
        )
    ]
    if not files:
        return empty
    postings = read_parquet_clean(
        files, columns=["token", "doc_id", "pos"],
        filter=pc.field("token").isin(uniq),
    )

    def check(g: pd.DataFrame) -> pd.DataFrame:
        hits = []
        for doc, sub in g.groupby("doc_id", sort=False):
            by_tok = dict(zip(sub["token"], sub["pos"]))
            if any(t not in by_tok for t in phrase):
                continue
            cand = set(np.asarray(by_tok[phrase[0]], dtype=np.int64))
            for i, t in enumerate(phrase[1:], start=1):
                cand &= set(np.asarray(by_tok[t], dtype=np.int64) - i)
                if not cand:
                    break
            if cand:
                hits.append(int(doc))
        hits = sorted(hits)
        if limit is not None:
            hits = hits[:limit]  # bucket-local head: ≤ limit rows leave
        return pd.DataFrame({"doc_id": pd.array(hits, "int64")})

    out = bucketed_group_map(
        postings, ["doc_id"], check, num_buckets=N_SERVE_BUCKETS
    ).to_pandas()
    LAST_SERVE_COLLECTED["phrase"] = len(out)
    if "doc_id" not in out.columns:  # zero-block to_pandas schema drop
        return empty
    out = out.sort_values("doc_id").reset_index(drop=True)
    return out.head(limit).reset_index(drop=True) if limit is not None else out


LM_MU = 2000.0  # Dirichlet smoothing mass (Zhai & Lafferty 2001)
RRF_K0 = 60     # the standard RRF rank offset (Cormack et al. 2009)


def search_lm(
    index_dir: str, terms: list[str], *, k: int = 10, mu: float = LM_MU,
) -> pd.DataFrame:
    """Query-likelihood unigram-LM ranking (Dirichlet smoothing) over the
    SAME bucket-pruned postings read as BM25 — the second ranker of the
    hybrid pair.  Candidates are docs matching ≥1 term (the standard
    serving restriction); each candidate scores EVERY query term, with
    tf = 0 for unmatched ones:

        score(d) = Σ_t round₆(ln((tf + µ·ctf_t/T) / (dl_d + µ)))

    Float contract: ln is glibc ``math.log`` computed once per DISTINCT
    argument (numpy's SIMD log can differ from libm in the last ulp —
    the `events_decay` rule), the argument expression mirrors the SQL
    oracle term for term, and each addend rounds to 6 dp BEFORE the
    per-doc sum so the total is an exact multiple of 1e-6 (summation-
    order-immune).  ctf (corpus term frequency) is exact and free: a
    token's postings live wholly in its hash bucket.

    Scale shape: the postings read is bounded by the terms' posting
    lists; per-doc scoring + top-k happen inside doc-complete serve
    buckets, so the driver collects ≤ buckets×k rows."""
    import math

    import pyarrow.compute as pc

    from ..functions.arrow import arrow_out, read_parquet_clean
    from ..functions.hashing import stable_bucket_vec
    from .shuffle import bucketed_group_map

    terms = sorted(set(terms))
    empty = pd.DataFrame(
        {"doc_id": pd.array([], "int64"), "score": pd.array([], "float64")}
    )
    if not terms:
        return empty
    with open(os.path.join(index_dir, "_MANIFEST.json")) as fh:
        m = json.load(fh)
    total_tf = float(m["total_tf"])

    buckets = sorted(set(stable_bucket_vec(np.array(terms), N_SEARCH_BUCKETS)))
    files = [
        f
        for bk in buckets
        if os.path.exists(
            f := os.path.join(index_dir, f"bucket={int(bk):04d}.parquet")
        )
    ]
    if not files:
        return empty
    postings = read_parquet_clean(
        files, columns=["token", "doc_id", "tf", "dl"],
        filter=pc.field("token").isin(terms),
    ).materialize()  # bounded by the query terms' posting lists

    census = fold_groups(  # ≤ |terms| rows
        postings.select_columns(["token", "tf"]), ["token"], [("tf", "sum")])
    if not len(census):
        return empty
    ctf_map = census.set_index("token")["tf"].to_dict()
    # zero-occurrence terms have no smoothed mass (ln 0); both engines
    # drop them (the SQL joins ctf inner)
    live = [t for t in terms if ctf_map.get(t, 0) > 0]
    if not live:
        return empty

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        docs = g.drop_duplicates("doc_id")[["doc_id", "dl"]]
        ids = docs["doc_id"].to_numpy("int64")
        dl = docs["dl"].to_numpy().astype("float64")
        pos = pd.Series(np.arange(len(ids)), index=ids)
        score = np.zeros(len(ids), "float64")
        for t in live:
            tf = np.zeros(len(ids), "float64")
            sub = g[g["token"] == t]
            if len(sub):
                tf[pos.loc[sub["doc_id"].to_numpy("int64")].to_numpy()] = (
                    sub["tf"].to_numpy().astype("float64"))
            # expression order mirrors the SQL oracle exactly
            arg = (tf + mu * float(ctf_map[t]) / total_tf) / (dl + mu)
            u, inv = np.unique(arg, return_inverse=True)
            lu = np.array([math.log(x) for x in u], dtype="float64")
            score += np.round(lu[inv], 6)
        d = pd.DataFrame(
            {"doc_id": pd.array(ids, "int64"),
             "score": np.round(score, 6)}
        )
        return d.sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)

    scored = bucketed_group_map(
        postings, ["doc_id"], per_doc, num_buckets=N_SERVE_BUCKETS,
    ).to_pandas()  # ≤ buckets×k rows by construction
    LAST_SERVE_COLLECTED["lm"] = len(scored)
    if "doc_id" not in scored.columns:
        return empty
    return (
        scored.sort_values(["score", "doc_id"], ascending=[False, True])
        .head(k).reset_index(drop=True)
    )


def search_rrf(
    index_dir: str, terms: list[str], *, k: int = 10, n_cand: int = 20,
    k0: int = RRF_K0, mu: float = LM_MU,
) -> pd.DataFrame:
    """Reciprocal-rank fusion of two rankers over the same persisted
    index — BM25 and the Dirichlet query-likelihood LM (the standard
    hybrid-retrieval serving composition; with an embedding ranker the
    fusion step is IDENTICAL — plug `knn_cosine*`'s top-k in as a third
    leg when doc/vec ids share a key).

        rrf_micro(d) = Σ_r∈rankers, d∈top-N(r)  10⁶ // (k0 + rank_r(d))

    Pure integers — no float fusion drift; ranks are deterministic
    (score desc, doc_id asc ties).  Each leg collects ≤ buckets×N rows;
    the fusion itself is a driver-side fold over ≤ 2N rows."""
    legs = [
        search_ranked(index_dir, terms, k=n_cand),
        search_lm(index_dir, terms, k=n_cand, mu=mu),
    ]
    parts = []
    for r in legs:
        if not len(r):
            continue
        rr = r.reset_index(drop=True)
        parts.append(pd.DataFrame(
            {"doc_id": rr["doc_id"].astype("int64"),
             "a": (1_000_000 // (k0 + np.arange(1, len(rr) + 1, dtype="int64")
                                 )).astype("int64")}
        ))
    if not parts:
        return pd.DataFrame({"doc_id": pd.array([], "int64"),
                             "rrf_micro": pd.array([], "int64")})
    f = (pd.concat(parts).groupby("doc_id", as_index=False)["a"].sum()
         .sort_values(["a", "doc_id"], ascending=[False, True])
         .head(k).reset_index(drop=True))
    return pd.DataFrame({"doc_id": f["doc_id"].astype("int64"),
                         "rrf_micro": f["a"].astype("int64")})
