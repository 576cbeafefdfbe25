"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in the library) may call ``ray.init`` / ``ray.shutdown``.

* ``entry()`` — flagship KG pipeline (``run_kg``) on the deterministic
  sf0.001 synthetic page corpus (input_hint shape); returns the edge
  Dataset.
* ``queries()`` — one callable per implemented operator/pipeline
  (SURVEY.md §2 + the large-scale training-data operators).
* ``oracle_sql()`` — DuckDB equivalents for every SQL-expressible query
  (same column names; order-insensitive compare).  Non-SQL-expressible
  entries (minhash/simhash/LSH, the pages-corpus flagship) are rows-only.
* ``registry()`` — the one query table both of the above (and
  ``bench.py``'s run list) derive from.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on the sf0.001-scale synthetic page corpus (the
    corpus size comes from the scale-factor name alone)."""
    return _kg_edges_pages("sf0.001")


def _kg_edges_pages(sf_dir: str):
    """The flagship's edge table: a fresh ``run_kg`` (``resume=False``, so
    no call returns a cached graph) on the sf-scaled page corpus."""
    import os

    from medical_knowledge_graph_ray.pipelines.kg import corpus_for_sf, run_kg
    from medical_knowledge_graph_ray.state.manifests import read_stage

    out = os.path.join(
        "/tmp/mkg_kg_edges", os.path.basename(os.path.normpath(sf_dir))
    )
    run_kg(corpus_for_sf(sf_dir), out, resume=False)
    return read_stage(os.path.join(out, "edges"))


def _kg_triples_pages(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.kg import (
        corpus_for_sf,
        pages_dataset,
        triples_dataset,
    )

    return triples_dataset(pages_dataset(corpus_for_sf(sf_dir)))


def _docs_llm_prep(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.docs_prep import docs_llm_prep

    return docs_llm_prep(sf_dir)


def _kg_bio_export(sf_dir: str):
    """Char-level BIO training rows (url, sent_ord, split, bio) from the
    pages corpus — the reference's NER-training export path (S4/O10/R6)."""
    from medical_knowledge_graph_ray.pipelines.kg import bio_dataset, corpus_for_sf

    return bio_dataset(corpus_for_sf(sf_dir))


def _kg_extract_audit(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.kg import corpus_for_sf
    from medical_knowledge_graph_ray.stages.audit import extraction_audit

    return extraction_audit(corpus_for_sf(sf_dir))


def _kg_source_info(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.kg import (
        corpus_for_sf,
        source_info_dataset,
    )

    return source_info_dataset(corpus_for_sf(sf_dir))


def _ner_eval(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.kg import ner_eval_pages

    return ner_eval_pages(sf_dir)


def _ner_train(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.ner_train import ner_train_pages

    return ner_train_pages(sf_dir)


def _kg_segment_hmm(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.ner_train import (
        kg_segment_hmm,
    )

    return kg_segment_hmm(sf_dir)


def _kg_flagship_neural(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.ner_train import (
        kg_flagship_neural,
    )

    return kg_flagship_neural(sf_dir)


def _kg_flagship_trained(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.ner_train import (
        kg_flagship_trained,
    )

    return kg_flagship_trained(sf_dir)


def _knn_ivf(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.docs import _embeddings, _query_vec
    from medical_knowledge_graph_ray.stages.similarity import knn_cosine_ivf

    return knn_cosine_ivf(_embeddings(sf_dir), _query_vec(sf_dir), k=10)


def _knn_lsh(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.docs import _embeddings, _query_vec
    from medical_knowledge_graph_ray.stages.similarity import knn_cosine_lsh

    return knn_cosine_lsh(_embeddings(sf_dir), _query_vec(sf_dir), k=10)


def _knn_pq(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.docs import _embeddings, _query_vec
    from medical_knowledge_graph_ray.stages.similarity import knn_cosine_pq

    return knn_cosine_pq(_embeddings(sf_dir), _query_vec(sf_dir), k=10)


def _knn_pq_indexed(sf_dir: str):
    import os

    from medical_knowledge_graph_ray.pipelines.docs import _embeddings, _query_vec
    from medical_knowledge_graph_ray.stages.similarity import (
        build_pq_index,
        knn_cosine_pq_indexed,
    )

    src = f"{sf_dir}/embeddings.parquet"
    idx = f"/tmp/mkg_pq_index/{os.path.basename(os.path.normpath(sf_dir))}"
    build_pq_index(_embeddings(sf_dir), idx)  # checkpointed — resumes
    return knn_cosine_pq_indexed(idx, src, _query_vec(sf_dir), k=10)


def _media_neardup(sf_dir: str):
    from medical_knowledge_graph_ray.stages.multimodal import media_neardup

    return media_neardup(256)


def _kg_active_seeds(sf_dir: str):
    from medical_knowledge_graph_ray.pipelines.kg import active_learning_seeds

    return active_learning_seeds(sf_dir, n=200)


def registry() -> list[tuple[str, Callable[[str], Any], str | None, bool]]:
    """The one query table: ``(name, fn, oracle SQL or None, bench)`` rows.

    ``queries()``, ``oracle_sql()`` and ``bench.py``'s run list (the rows
    with ``bench`` set) all derive from it, in row order.  The driver
    verifies only the first 50 queries, so every oracled row comes before
    every rows-only row.  To add a query, add one row; to promote one
    into the driver's window, move its row."""
    from medical_knowledge_graph_ray.pipelines import docs, docs_kg, events, relational

    return [
        ("lineitem_skyline", relational.lineitem_skyline, relational.LINEITEM_SKYLINE_SQL, True),
        ("lineitem_moments", relational.lineitem_moments, relational.LINEITEM_MOMENTS_SQL, True),
        ("events_sankey", events.events_sankey, events.EVENTS_SANKEY_SQL, True),
        ("kg_nodes_ontology", docs_kg.kg_nodes_ontology, docs_kg.kg_nodes_ontology_sql(), True),
        # Newman modularity of the entity-type partition of the
        # co-occurrence graph (exact int64 q_num = 4mL_c − D_c²)
        ("kg_label_modularity", docs_kg.kg_label_modularity, docs_kg.label_modularity_sql(), True),
        ("events_ewma", events.events_ewma, events.EVENTS_EWMA_SQL, True),
        ("customers_ldiversity", relational.customers_ldiversity,
         relational.CUSTOMERS_LDIVERSITY_SQL, True),
        ("supplier_lead_time", relational.supplier_lead_time,
         relational.SUPPLIER_LEAD_TIME_SQL, True),
        ("events_cooccur_window", events.events_cooccur_window,
         events.EVENTS_COOCCUR_WINDOW_SQL, True),
        ("supplier_value_share", relational.supplier_value_share,
         relational.SUPPLIER_VALUE_SHARE_SQL, True),
        ("kg_eccentricity", docs_kg.kg_eccentricity, docs_kg.eccentricity_sql(), True),
        ("events_fano", events.events_fano, events.EVENTS_FANO_SQL, True),
        ("docs_script_mix", docs.docs_script_mix, docs.DOCS_SCRIPT_MIX_SQL, True),
        ("events_runlengths", events.events_runlengths, events.EVENTS_RUNLENGTHS_SQL, True),
        ("embed_topk_dims", docs.embed_topk_dims, docs.EMBED_TOPK_DIMS_SQL, True),
        ("embed_quantize", docs.embed_quantize, docs.EMBED_QUANTIZE_SQL, True),
        ("events_active_time", events.events_active_time, events.EVENTS_ACTIVE_TIME_SQL, True),
        ("events_queue_wait", events.events_queue_wait, events.EVENTS_QUEUE_WAIT_SQL, True),
        ("lineitem_kendall", relational.lineitem_kendall, relational.LINEITEM_KENDALL_SQL, True),
        ("embed_drift", docs.embed_drift, docs.EMBED_DRIFT_SQL, True),
        # per-group EXACT quantiles where groups are data-sized (one per
        # user): in-bucket order statistics, selection-only float contract
        ("events_user_quantiles", events.events_user_quantiles, events.USER_QUANTILES_SQL, True),
        # ABC/Pareto classification: global running revenue share via
        # ordered range buckets + driver prefix sums (no sort operator)
        ("orders_abc", relational.orders_abc, relational.ORDERS_ABC_SQL, True),
        ("orders_weekly_iso", relational.orders_weekly_iso, relational.ORDERS_WEEKLY_ISO_SQL, True),
        # trailing-5 rolling median as exact order-statistic pair (no
        # interpolation division; shifted-column frame, one axis sort)
        ("events_rolling_median", events.events_rolling_median, events.ROLLING_MEDIAN_SQL, True),
        ("nation_rev_ivm_bilateral", relational.nation_rev_ivm_bilateral,
         relational.NATION_REV_IVM_SQL, True),
        # per-source corpus-quality dashboard (dup census + token stats)
        ("docs_curation_report", docs.docs_curation_report, docs.CURATION_REPORT_SQL, True),
        ("orders_lineitem_mergejoin", relational.orders_lineitem_mergejoin,
         relational.ORDERS_LINEITEM_MERGEJOIN_SQL, True),
        # HHI market concentration per nation (big-int exact squares)
        ("supplier_hhi", relational.supplier_hhi, relational.SUPPLIER_HHI_SQL, True),
        # LOCF last-touch attribution (LAST_VALUE IGNORE NULLS): masked
        # ffill inside user-complete buckets
        ("events_last_touch", events.events_last_touch, events.LAST_TOUCH_SQL, True),
        # sweep-line in-flight census: join buckets emit day deltas, the
        # calendar-bounded table prefix-sums driver-side (no sort op)
        ("orders_open_by_day", relational.orders_open_by_day, relational.ORDERS_OPEN_SQL, True),
        ("docs_vocab_drift", docs.docs_vocab_drift, docs.DOCS_VOCAB_DRIFT_SQL, True),
        # PPJoin-style corpus-wide exact Jaccard pairs (prefix filter)
        ("docs_jaccard_prefix", docs.docs_jaccard_prefix, docs.JACCARD_PREFIX_SQL, True),
        ("events_did", events.events_did, events.EVENTS_DID_SQL, True),
        # exact integer two-sample KS statistic (cross-multiplied ECDFs,
        # range-bucket prefix offsets — zero floats anywhere)
        ("events_ks_test", events.events_ks_test, events.KS_SQL, True),
        # DENSE_RANK (gap-free tied ranks) of users per type by spend
        ("events_dense_rank", events.events_dense_rank, events.DENSE_RANK_SQL, True),
        # Neyman variance-optimal stratified sampling (exact-integer
        # rate contract; two streaming passes)
        ("lineitem_neyman", relational.lineitem_neyman, relational.LINEITEM_NEYMAN_SQL, True),
        # item-item co-purchase cosine (Amazon-style CF): per-order pair
        # enumeration via the shifted-slice trick, catalog-sized census
        ("parts_copurchase_sim", relational.parts_copurchase_sim, relational.COPURCHASE_SQL, True),
        # ANALYZE-style column profiler: 27 columns of 4 tables ride ONE
        # hash exchange (value-census combiner; exact distinct)
        ("tables_profile", relational.tables_profile, relational.tables_profile_sql(), True),
        # per-source log-odds keyness (Fightin' Words family): vocab
        # census on one token exchange, micro-nat integer log contract
        ("docs_odds_ratio", docs.docs_odds_ratio, docs.ODDS_RATIO_SQL, True),
        # bigram LM quality scoring (add-1 smoothing, micro-nat addends
        # once per DISTINCT bigram; boundary-masked shifted-slice kernel)
        ("docs_bigram_lm", docs.docs_bigram_lm, docs.BIGRAM_LM_SQL, True),
        # TPC-H q13 shape: left-join count distribution
        ("q13_custdist", relational.q13_custdist, relational.Q13_SQL, True),
        # q21 multi-EXISTS self-join attribution
        ("q21_waiting_suppliers", relational.q21_waiting_suppliers, relational.Q21_SQL, True),
        # degree assortativity: six exact moments + floor-micro Pearson
        ("kg_assortativity", docs_kg.kg_assortativity, docs_kg.assortativity_sql(), True),
        # near-dup-aware curation: gates -> simhash pairs -> components ->
        # keep cluster canonicals (SQL-oracled end to end)
        ("docs_curation_neardup", docs.docs_curation_neardup, docs.curation_neardup_sql(), True),
        # PMI-ranked collocations (micro-nat integer log contract; one
        # corpus read, census + both marginals across two exchanges)
        ("docs_collocations", docs.docs_collocations, docs.COLLOCATIONS_SQL, True),
        # sequence mining: top contiguous event-type trigrams with
        # occurrence + distinct-user counts (user-complete buckets)
        ("events_path_trigrams", events.events_path_trigrams, events.PATH_TRIGRAMS_SQL, True),
        # heavy-key diagnostics feeding hash_join(skew=...): top-5 values
        # + bp shares per join key column, one shared exchange
        ("tables_skew_report", relational.tables_skew_report,
         relational.tables_skew_report_sql(), True),
        # incremental near-dup dedup: a new shard probed against the base
        # corpus via the oracled seeded-md5 LSH bands (no pair expansion)
        ("docs_crossdedup", docs.docs_crossdedup, docs.CROSSDEDUP_SQL, True),
        # functional-dependency discovery (profiling; det-complete buckets)
        ("tables_fd_discovery", relational.tables_fd_discovery, relational.FD_DISCOVERY_SQL, True),
        # one-way ANOVA across types (fully exact integer F contract)
        ("events_anova", events.events_anova, events.ANOVA_SQL, True),
        # Pearson chi-square independence (type x user-segment): exact
        # integer contingency algebra, one bounded census exchange
        ("events_chisq", events.events_chisq, events.CHISQ_SQL, True),
        # transitive near-dup clusters over the ORACLED minhash pair
        # graph (min-label BSP components; recursive-CTE oracle)
        ("docs_minhash_clusters", docs.docs_minhash_clusters, docs.minhash_clusters_sql(), True),
        # RFM quintile scoring: GLOBAL NTILE(5) per dimension via ordered
        # range buckets + prefix offsets (no sort operator), one melted
        # exchange for all three dims
        ("customers_rfm", relational.customers_rfm, relational.CUSTOMERS_RFM_SQL, True),
        # k-hop neighborhood over the mined co-occurrence graph (the KG-serving
        # traversal; recursive-CTE oracle)
        ("kg_khop", docs_kg.kg_khop, docs_kg.khop_sql(), True),
        # FULL OUTER partitioned hash join: event-log vs order-system key
        # reconciliation (both sides pre-aggregated per key)
        ("events_orders_reconcile", events.events_orders_reconcile,
         events.EVENTS_ORDERS_RECONCILE_SQL, False),
        # ROLLUP / grouping-sets aggregate (subtotal levels derived from the
        # distributed detail aggregate)
        ("q1_rollup", relational.q1_rollup, relational.Q1_ROLLUP_SQL, False),
        # HAVING-filtered grouped sum + two chained partitioned hash joins
        # (TPC-H q18 shape)
        ("q18_big_orders", relational.q18_big_orders, relational.Q18_SQL, True),
        # exact 3-sigma per-type anomaly flagging (integer z² contract)
        ("events_anomaly", events.events_anomaly, events.ANOMALY_SQL, True),
        # per-node triangle census via degree-oriented wedge semi-join
        ("kg_triangles", docs_kg.kg_triangles, docs_kg.triangles_sql(), True),
        # sub-document chunk dedup with document reconstruction
        ("docs_chunk_dedup", docs.docs_chunk_dedup, docs.CHUNK_DEDUP_SQL, True),
        # neighborhood-Jaccard link-prediction candidates (exact integer ppm
        # contract)
        ("kg_jaccard_neighbors", docs_kg.kg_jaccard_neighbors,
         docs_kg.jaccard_neighbors_sql(), True),
        # grouped-window PERCENT_RANK (exact shared-integer division)
        ("events_percent_rank", events.events_percent_rank, events.PERCENT_RANK_SQL, False),
        # semi-structured JSON payload extraction census
        ("events_props_parse", events.events_props_parse, events.PROPS_PARSE_SQL, False),
        # zero-filled hourly resampling over the corpus span
        ("events_gapfill", events.events_gapfill, events.GAPFILL_SQL, False),
        # signup→purchase conversion funnel (pruned two-type read, one user_id
        # exchange)
        ("events_conversion", events.events_conversion, events.CONVERSION_SQL, True),
        # weekly cohort retention triangle
        ("events_retention", events.events_retention, events.RETENTION_SQL, False),
        # exact-quantile winsorization (two-pass: histogram-narrowed thresholds,
        # vectorized clip)
        ("lineitem_winsorize", relational.lineitem_winsorize, relational.WINSORIZE_SQL, True),
        # Bloom-prefiltered exact semi join (bitmap broadcast instead of a key
        # set)
        ("orders_bloom_semi", relational.orders_bloom_semi, relational.BLOOM_SEMI_SQL, True),
        # Count-Min heavy hitters (sketch prefilter + exact verify)
        ("docs_frequent_tokens", docs.docs_frequent_tokens, docs.FREQUENT_TOKENS_SQL, True),
        # deletion-banded fuzzy gazetteer match (typo mining)
        ("docs_typo_candidates", docs_kg.docs_typo_candidates,
         docs_kg.typo_candidates_sql(), False),
        # grouped bottom-k deterministic sampling (exact-size strata)
        ("docs_bottomk_sample", docs.docs_bottomk_sample, docs.BOTTOMK_SQL, True),
        # TPC-H shapes: q6 pushdown filter + scalar sum, q14 broadcast
        # promo-membership revenue share, q10 returned-customer top-k join
        # chain, q7 bi-nation volume per year
        ("q6_forecast_revenue", relational.q6_forecast_revenue, relational.Q6_SQL, False),
        ("q14_promo_share", relational.q14_promo_share, relational.Q14_SQL, False),
        ("q10_returned_customers", relational.q10_returned_customers, relational.Q10_SQL, True),
        ("q7_nation_volume", relational.q7_nation_volume, relational.Q7_SQL, False),
        # entity/PII redaction (vectorized alternation scrub, full-text
        # hash-compared) and per-user NTILE window bucketing
        ("docs_redact", docs.docs_redact, docs.redact_sql(), True),
        ("events_ntile", events.events_ntile, events.NTILE_SQL, False),
        # cross-table integrity audit (uniqueness / FK / range checks)
        ("tables_integrity", relational.tables_integrity, relational.TABLES_INTEGRITY_SQL, True),
        # multi-query brute-force top-k (broadcast query MATRIX — one
        # matmul scores every query per batch)
        ("knn_cosine_multi", docs.knn_cosine_multi_q, docs.KNN_MULTI_SQL, True),
        # event-type transition census (LEAD window → Markov counts)
        ("events_transitions", events.events_transitions, events.TRANSITIONS_SQL, False),
        # YoY monthly growth — exact basis-point integer division, the
        # 12-back self-join on the bounded month census
        ("orders_yoy", relational.orders_yoy, relational.ORDERS_YOY_SQL, True),
        # recency-weighted engagement: micro-int addend contract, exp
        # from glibc once per DISTINCT timestamp (never numpy's SIMD exp)
        ("events_decay", events.events_decay, events.DECAY_SQL, True),
        # global ordered running total over the bounded month census, and
        # the global-scalar-then-filter (correlated-subquery) shape
        ("orders_monthly_cumrev", relational.orders_monthly_cumrev,
         relational.MONTHLY_CUMREV_SQL, False),
        ("customers_above_avg", relational.customers_above_avg, relational.ABOVE_AVG_SQL, False),
        # exact windowed COUNT(DISTINCT) + grouped mode with tiebreak
        ("events_sliding_users", events.events_sliding_users, events.SLIDING_USERS_SQL, False),
        ("events_user_mode", events.events_user_mode, events.USER_MODE_SQL, False),
        # grouped mean/stddev via mergeable exact-integer moments
        ("lineitem_qty_stats", relational.lineitem_qty_stats, relational.QTY_STATS_SQL, False),
        # per-user TIME-weighted average (interval-weighted aggregate)
        ("events_twa", events.events_twa, events.TWA_SQL, False),
        # wide→long UNPIVOT (inverse of the per-user type pivot)
        ("events_type_unpivot", events.events_type_unpivot, events.TYPE_UNPIVOT_SQL, False),
        # percentile_cont: interpolated quantiles, still shuffle-free
        ("lineitem_quantiles_cont", relational.lineitem_quantiles_cont,
         relational.LINEITEM_QUANTILES_CONT_SQL, False),
        # GROUP BY CUBE (all 2^k subtotal levels) + INTERSECT key sets
        ("q1_cube", relational.q1_cube, relational.Q1_CUBE_SQL, False),
        ("events_users_both", events.events_users_both, events.USERS_BOTH_SQL, False),
        # TPC-H remainder family (adapted to the slimmed schema — see
        # pipelines/relational.py): q4 EXISTS with a cross-table predicate, q8
        # CASE-share over a 5-way join
        ("q4_order_priority", relational.q4_order_priority, relational.Q4_SQL, True),
        ("q8_market_share", relational.q8_market_share, relational.Q8_SQL, True),
        # R5 deterministic sampling / A1 first-non-null
        ("docs_sample", docs.docs_sample, docs.DOCS_SAMPLE_SQL, False),
        # more of the TPC-H remainder family: q15 argmax-with-ties, q17
        # correlated per-group average, q19 disjunctive OR-of-ANDs, q22
        # scalar-subquery + NOT-EXISTS census
        ("q15_top_supplier", relational.q15_top_supplier, relational.Q15_SQL, False),
        ("q17_small_qty_revenue", relational.q17_small_qty_revenue, relational.Q17_SQL, True),
        ("q19_disjunctive_revenue", relational.q19_disjunctive_revenue, relational.Q19_SQL, False),
        ("q22_global_sales", relational.q22_global_sales, relational.Q22_SQL, False),
        ("events_sliding", events.events_sliding, events.SLIDING_SQL, False),
        # deterministic importance sampling (training-mixture weights)
        ("docs_weighted_sample", docs.docs_weighted_sample, docs.WEIGHTED_SAMPLE_SQL, False),
        # q2-shaped argmin-per-group join, FIRST/LAST_VALUE extremum partials
        ("part_cheapest_supplier", relational.part_cheapest_supplier,
         relational.CHEAPEST_SQL, True),
        ("events_first_last", events.events_first_last, events.FIRST_LAST_SQL, True),
        ("events_lag_diff", events.events_lag_diff, events.LAG_DIFF_SQL, False),
        ("events_user_type_pivot", events.events_user_type_pivot,
         events.USER_TYPE_PIVOT_SQL, False),
        ("events_rolling_avg", events.events_rolling_avg, events.ROLLING_AVG_SQL, False),
        ("docs_langid", docs.docs_langid, docs.LANGID_SQL, False),
        # ordered string aggregation (per-user event path)
        ("events_user_path", events.events_user_path, events.USER_PATH_SQL, False),
        # deterministic global shuffle with an explicit ROW_NUMBER
        # (range-ordered hash buckets + prefix-sum offsets, no sort op)
        ("docs_global_shuffle", docs.docs_global_shuffle, docs.GLOBAL_SHUFFLE_SQL, False),
        # CCNet-style unigram LM quality score (round-addends contract)
        ("docs_unigram_logprob", docs.docs_unigram_logprob, docs.UNIGRAM_LOGPROB_SQL, False),
        # one-pass approximate quantiles (fixed-grid histogram sketch) —
        # the estimate is a pure integer-arithmetic function, so the SQL
        # oracle reproduces it bit-for-bit (plus the error-bound pytest)
        ("lineitem_quantiles_sketch", relational.lineitem_quantiles_sketch,
         relational.LINEITEM_QUANTILES_SKETCH_SQL, False),
        # RATIO_TO_REPORT: per-type share of total value
        ("events_share_of_total", events.events_share_of_total, events.SHARE_OF_TOTAL_SQL, False),
        ("simhash_fingerprints", docs.docs_simhash, docs.SIMHASH_SQL, False),
        # time-RANGE window frame (value-based, peers included) — two
        # vectorized searchsorteds per bucket, no per-user loop
        ("events_rolling_time", events.events_rolling_time, events.ROLLING_TIME_SQL, False),
        # COUNT(DISTINCT) over a large-large join (q16 shape): bucket_post
        # collapses join buckets to distinct triples before the exchange
        ("q16_brand_suppliers", relational.q16_brand_suppliers, relational.Q16_SQL, False),
        # conditional counts over a joined fact (q12 shape): lineitem
        # pre-counted per (order, flag) map-side, orders ship one int64
        # indicator, bucket_post emits ≤|flags| partials per bucket
        ("q12_priority_lines", relational.q12_priority_lines, relational.Q12_SQL, False),
        # nested two-level aggregate + semi join (q20 shape): per-part
        # majority suppliers decided entirely inside join buckets
        ("q20_dominant_suppliers", relational.q20_dominant_suppliers, relational.Q20_SQL, False),
        # trained-model operator with an end-to-end SQL gate: Naive
        # Bayes training is pure counting, so the census AND the argmax
        # inference both oracle exactly (hashed buckets, 6dp log contract)
        ("docs_nb_langid", docs.docs_nb_langid, docs.nb_langid_sql(), False),
        # global-share filter (q11 shape): parts-sized aggregate
        # materialized once, consumed by the scalar total + the filter
        ("q11_part_value_share", relational.q11_part_value_share, relational.Q11_SQL, False),
        # skyline / Pareto-dominance filter — perfect combiner (batch-
        # local skyline), vectorized prefix-max kernel, bounded final
        ("part_skyline", relational.part_skyline, relational.SKYLINE_SQL, False),
        # LAG-gap suppression of rapid-fire same-key events (debounce)
        ("events_debounce", events.events_debounce, events.DEBOUNCE_SQL, False),
        ("events_asof", events.events_asof, events.ASOF_SQL, True),
        ("docs_fingerprint", docs.docs_fingerprint, docs.FINGERPRINT_SQL, False),
        # dedup family
        ("dedup_exact", docs.dedup_exact, docs.DEDUP_EXACT_SQL, True),
        # token census + content-stable split + large-large shuffle join
        ("token_histogram", docs.token_histogram, docs.TOKEN_HISTOGRAM_SQL, False),
        ("ngram_jaccard_pairs", docs.docs_ngram_jaccard, docs.NGRAM_JACCARD_SQL, False),
        ("events_running_sum", events.events_running_sum, events.RUNNING_SUM_SQL, False),
        # text analysis
        ("docs_stats", docs.docs_stats, docs.STATS_SQL, True),
        ("embed_norms", docs.embed_norms, docs.EMBED_NORMS_SQL, True),
        # similarity search
        ("knn_cosine", docs.knn_cosine_q0, docs.KNN_SQL, True),
        ("docs_quality", docs.docs_quality, docs.QUALITY_SQL, True),
        # event-stream-shaped operators
        ("events_tumbling", events.events_tumbling, events.TUMBLING_SQL, True),
        ("events_argmax", events.events_argmax, events.ARGMAX_SQL, True),
        ("docs_split", docs.docs_split, docs.DOCS_SPLIT_SQL, False),
        ("docs_first_nonnull", docs.docs_first_nonnull, docs.DOCS_FIRST_NONNULL_SQL, False),
        ("gazetteer_unseen", docs_kg.gazetteer_unseen, docs_kg.unseen_sql(), False),
        # benchmark decontamination (n-gram overlap, broadcast semi-join),
        # Gopher-style repetition signal, per-source quota curation
        ("docs_decontaminate", docs.docs_decontaminate, docs.DECONTAM_SQL, True),
        ("docs_repetition", docs.docs_repetition, docs.REPETITION_SQL, False),
        ("docs_source_quota", docs.docs_source_quota, docs.SOURCE_QUOTA_SQL, True),
        # entity co-occurrence graph (relation-candidate generation)
        ("kg_cooccurrence", docs_kg.doc_cooccurrence, docs_kg.cooccur_sql(), True),
        # global n-gram heavy hitters (LM census)
        ("docs_ngram_topk", docs.docs_ngram_topk, docs.NGRAM_TOPK_SQL, True),
        # per-language deterministic rate sampling (training mixture)
        ("docs_stratified_sample", docs.docs_stratified_sample, docs.STRATIFIED_SAMPLE_SQL, False),
        # BPE-ish-regex vs whitespace token counts (LM budget estimator)
        ("docs_bpe_tokens", docs.docs_bpe_tokens, docs.BPE_TOKENS_SQL, False),
        ("events_sessionize", events.events_sessionize, events.SESSIONIZE_SQL, True),
        ("events_range_join", events.events_range_join, events.RANGE_JOIN_SQL, True),
        ("events_user_median", events.events_user_median, events.USER_MEDIAN_SQL, False),
        # grouped top-N + shuffle-free exact quantiles
        ("orders_topn_per_cust", relational.orders_topn_per_cust, relational.TOPN_SQL, True),
        ("lineitem_quantiles", relational.lineitem_quantiles,
         relational.LINEITEM_QUANTILES_SQL, True),
        # LLM training-data prep: strided token-window chunking
        ("docs_chunk_windows", docs.docs_chunk_windows, docs.CHUNK_WINDOWS_SQL, False),
        # fixed-radius cosine range search: pure streaming filter-map,
        # zero exchanges (the no-sort sibling of knn_cosine)
        ("knn_range", docs.knn_range_q0, docs.KNN_RANGE_SQL, True),
        ("orders_lineitem_join", relational.orders_lineitem_join,
         relational.ORDERS_LINEITEM_JOIN_SQL, False),
        # partitioned anti join (filter side too big to broadcast)
        ("customers_no_orders", relational.customers_no_orders,
         relational.CUSTOMERS_NO_ORDERS_SQL, False),
        # cohort retention/revenue grid: first-month census + cell
        # partials decided inside customer-complete buckets
        ("orders_cohorts", relational.orders_cohorts, relational.ORDERS_COHORTS_SQL, True),
        # per-(label, dim) centroid sums as mergeable fixed-point partials
        ("embed_label_centroids", docs.embed_label_centroids, docs.LABEL_CENTROIDS_SQL, True),
        ("simhash_neardup_pairs", docs.docs_simhash_neardup, docs.simhash_neardup_sql(), False),
        # pairs -> transitive clusters (distributed min-label components)
        ("dedup_components", docs.docs_dedup_components, docs.dedup_components_sql(), False),
        # DSIR importance resampling — pre-rounded bucket log-ratios
        # make the per-doc sums order-immune, so the full chain (md5
        # buckets, smoothed LMs, acceptance compare) oracles exactly
        ("docs_dsir", docs.docs_dsir, docs.dsir_sql(), False),
        # CUME_DIST: the ≤-inclusive sibling of percent_rank
        ("events_cume_dist", events.events_cume_dist, events.CUME_DIST_SQL, False),
        # per-user inter-arrival gap stats in exact µs ints
        ("events_interarrival", events.events_interarrival, events.INTERARRIVAL_SQL, True),
        # composed training-corpus curation: lang gate -> quality gate ->
        # exact-dedup keep-canonical (SQL-oracled end to end)
        ("docs_curation", docs.docs_curation, docs.CURATION_SQL, False),
        ("kg_doc_nodes", docs_kg.doc_nodes, docs_kg.nodes_sql(), False),
        ("q9_profit", relational.q9_profit, relational.Q9_SQL, False),
        ("embed_neardup_pairs", docs.embed_neardup_pairs, docs.EMBED_NEARDUP_SQL, True),
        # most common complete user journeys (path census top-k)
        ("events_top_paths", events.events_top_paths, events.TOP_PATHS_SQL, True),
        # exact cosine kNN graph (broadcast-matrix brute baseline; IVF/PQ
        # are the repo's scale paths, SemDeDup the cluster-restricted sub)
        ("embed_knn_graph", docs.embed_knn_graph, docs.KNN_GRAPH_SQL, True),
        # LAG-ratio percent change (exact basis-point integer division)
        ("events_pct_change", events.events_pct_change, events.PCT_CHANGE_SQL, True),
        # LSH quality report: recall/precision of the oracled candidate
        # pairs vs the oracled exact join — evaluation AS a pipeline
        ("docs_minhash_eval", docs.docs_minhash_eval, docs.minhash_eval_sql(), True),
        # lag-1 autocorrelation of the dense daily volume series
        ("events_daily_autocorr", events.events_daily_autocorr, events.DAILY_AUTOCORR_SQL, True),
        # RAKE keyphrases: island-mined stopword-free runs, deg/freq
        # word scores, integer floor-micro addends, bounded top-k
        ("docs_rake", docs.docs_rake, docs.rake_sql(), True),
        # Benford first-digit audit (9-cell perfect combiner)
        ("lineitem_benford", relational.lineitem_benford, relational.BENFORD_SQL, True),
        # trailing-window burst days — x−μ>2σ cleared to pure integers
        ("events_bursts", events.events_bursts, events.BURSTS_SQL, True),
        # per-vector cosine to its label centroid (raw fixed-point sums,
        # no mean division — cosine is scale-invariant)
        ("embed_label_affinity", docs.embed_label_affinity, docs.LABEL_AFFINITY_SQL, True),
        # market-basket association rules a→b (confidence + lift, exact
        # int bp/micro; both directions per unordered pair)
        ("parts_assoc_rules", relational.parts_assoc_rules, relational.ASSOC_RULES_SQL, True),
        # quantity-weighted median (selection-only, zero floats)
        ("lineitem_weighted_median", relational.lineitem_weighted_median,
         relational.WEIGHTED_MEDIAN_SQL, True),
        # Gini coefficient via sort-free global ranks (signed two-limb
        # numerator partials)
        ("supplier_gini", relational.supplier_gini, relational.SUPPLIER_GINI_SQL, True),
        # longest consecutive-day streaks (gaps-and-islands, in-bucket)
        ("events_streaks", events.events_streaks, events.STREAKS_SQL, True),
        # full 25×25 nation trade-flow matrix (q7 exchange plan, no
        # nation filter; per-cell aggregate fused into join buckets)
        ("nations_trade_matrix", relational.nations_trade_matrix,
         relational.TRADE_MATRIX_SQL, True),
        # monthly revenue + trailing-12 moving sum on the bounded census
        ("orders_trend", relational.orders_trend, relational.ORDERS_TREND_SQL, True),
        # per-source exact length percentiles (selection-only)
        ("docs_length_percentiles", docs.docs_length_percentiles, docs.LENGTH_PCTL_SQL, True),
        # per-source robust stats: lower median / MAD / 3·MAD outliers
        ("docs_length_mad", docs.docs_length_mad, docs.LENGTH_MAD_SQL, True),
        # inter-event gap magnitude histogram (exact digit-count buckets)
        ("events_gap_histogram", events.events_gap_histogram, events.GAP_HISTOGRAM_SQL, True),
        # audience-overlap Jaccard matrix between event types (exact
        # int union/intersection partials inside user-complete buckets)
        ("events_type_jaccard", events.events_type_jaccard, events.TYPE_JACCARD_SQL, True),
        # hour-of-day × type seasonality profile (exact bp shares)
        ("events_hourly_profile", events.events_hourly_profile, events.HOURLY_PROFILE_SQL, True),
        # Heaps'-law vocabulary growth (first-occurrence census — no
        # sequential scan; exact integer checkpoints)
        ("docs_heaps", docs.docs_heaps, docs.HEAPS_SQL, True),
        # per-source Jensen–Shannon divergence from the corpus mixture
        # (PPMI-pattern exact-int ln args, pre-floored micro addends)
        ("docs_source_js", docs.docs_source_js, docs.SOURCE_JS_SQL, True),
        # DAU / trailing-28-day MAU / stickiness (exact sliding
        # COUNT(DISTINCT) via per-user contribution-interval sweep-line)
        ("events_dau_mau", events.events_dau_mau, events.DAU_MAU_SQL, True),
        # CUSUM change-point per event type (pure-integer statistic over
        # the zero-filled daily spine)
        ("events_cusum", events.events_cusum, events.CUSUM_SQL, True),
        # hybrid retrieval: BM25 ⊕ query-likelihood-LM reciprocal-rank
        # fusion over the persisted index (integer rank fusion)
        ("docs_search_rrf", docs.docs_search_rrf, docs._search_rrf_sql(), True),
        # weighted sampling WITHOUT replacement (Efraimidis–Spirakis
        # Exp(w) jitter bottom-k; integer key contract, zero exchanges)
        ("docs_es_sample", docs.docs_es_sample, docs.ES_SAMPLE_SQL, True),
        # cross-source k-gram contamination matrix (hash-keyed distinct
        # gram sets, ONE gram exchange, bit-exact pairwise Jaccard)
        ("docs_sources_overlap", docs.docs_sources_overlap, docs.SOURCES_OVERLAP_SQL, True),
        # lexical diversity per source (TTR + hapax census on ONE
        # token-complete exchange)
        ("docs_ttr", docs.docs_ttr, docs.TTR_SQL, True),
        # zone-mapped range scan: persisted min/max file index prunes
        # shard files BEFORE any footer/data read (pruning pytest-gated)
        ("lineitem_zonemap_scan", relational.lineitem_zonemap_scan,
         relational.ZONEMAP_SCAN_SQL, True),
        # Mann–Whitney U (midrank-exact pure-integer statistic over the
        # joint value census; the rank member of the nonparam family)
        ("events_mannwhitney", events.events_mannwhitney, events.MANNWHITNEY_SQL, True),
        # geometric mean in exact log space (n, Σ micro-ln cents)
        ("events_geomean", events.events_geomean, events.GEOMEAN_SQL, True),
        # Kaplan-Meier survival over session durations (right-censored
        # open sessions; exact integer log-survival, census-bounded curve)
        ("events_kaplan_meier", events.events_kaplan_meier, events.KAPLAN_MEIER_SQL, True),
        # STREAMING micro-batch tumbling aggregate: exactly-once chunk
        # folds into the keyed upsert table ≡ the batch aggregate —
        # shares the batch query's SQL oracle
        ("events_streaming_tumbling", events.events_streaming_tumbling, events.TUMBLING_SQL, True),
        # Theil-T inequality decomposition of supplier revenue by nation
        # (within + between terms; exact centi-nat integer addends)
        ("supplier_theil", relational.supplier_theil, relational.SUPPLIER_THEIL_SQL, True),
        # full pairwise Pearson matrix (exact limbed moment matrix)
        ("lineitem_corr_matrix", relational.lineitem_corr_matrix, relational.CORR_MATRIX_SQL, True),
        # Wald-Wolfowitz runs test (randomness of the daily revenue
        # sign sequence; pure-integer R/n+/n-, mirrored z formula)
        ("orders_runs_test", relational.orders_runs_test, relational.RUNS_TEST_SQL, True),
        # inclusion-dependency (FK) discovery with a negative control
        # (distinct-deduped tagged exchange; exact containment ratio)
        ("tables_fk_discovery", relational.tables_fk_discovery, relational.FK_DISCOVERY_SQL, True),
        # classical seasonal decomposition (7-day MA trend; exact
        # integer detrended addends, per-weekday means)
        ("orders_seasonal_decompose", relational.orders_seasonal_decompose,
         relational.SEASONAL_SQL, True),
        # Gopher quality-rule census (published word-level rule set;
        # exact-integer comparisons, float-free pass flag)
        ("docs_gopher_rules", docs.docs_gopher_rules, docs.GOPHER_RULES_SQL, True),
        # sorted-neighborhood dedup pairs (SNM: monotone-prefix global
        # rank + ghost-overlap span buckets; exact windowed Jaccard)
        ("docs_snm_pairs", docs.docs_snm_pairs, docs.SNM_PAIRS_SQL, True),
        # SQL-oracled MinHash-LSH candidate pairs (seeded-md5 signatures,
        # band collisions bit-identical on both engines)
        ("docs_minhash_pairs", docs.docs_minhash_pairs, docs.MINHASH_PAIRS_SQL, True),
        # Welch's t-test: mergeable two-limb moment partials, one
        # mirrored double expression emitted floor-micro
        ("events_ttest", events.events_ttest, events.TTEST_SQL, True),
        # feature-hashing vectorizer (hashing trick): no vocab artifact,
        # ZERO exchanges — docs own their sparse count vectors
        ("docs_feature_hashing", docs.docs_feature_hashing, docs.FEATURE_HASHING_SQL, True),
        # 2-D rectangle scan off the z-order-clustered layout (Morton
        # range decomposition + zone-map file pruning; exact re-filter)
        ("lineitem_zorder_scan", relational.lineitem_zorder_scan, relational.ZORDER_SCAN_SQL, True),
        # CDC snapshot diff: added/removed/changed keys between two
        # table versions, one key exchange, unchanged bulk dies in-bucket
        ("orders_snapshot_diff", relational.orders_snapshot_diff,
         relational.ORDERS_SNAPSHOT_DIFF_SQL, True),
        # readability census: float-free regex-count contract, zero
        # data-sized exchanges
        ("docs_readability", docs.docs_readability, docs.READABILITY_SQL, True),
        # delta-join IVM: the nation-revenue join view folded from
        # micro-batch deltas, exactly-once state, batch-equivalence oracle
        ("nation_rev_ivm", relational.nation_rev_ivm, relational.NATION_REV_IVM_SQL, True),
        # CUPED variance-reduced A/B readout (md5-parity variants,
        # exact int64 moments, floor-micro θ / adjusted means)
        ("events_cuped", events.events_cuped, events.CUPED_SQL, True),
        # hierarchical rollup with exact integer share-of-parent at
        # both levels (region, world)
        ("sales_hierarchy_share", relational.sales_hierarchy_share,
         relational.SALES_HIERARCHY_SHARE_SQL, True),
        # type×hour mutual information (entropy micro-nat contract,
        # one combiner pass, zero exchanges)
        ("events_mutual_info", events.events_mutual_info, events.MUTUAL_INFO_SQL, True),
        # per-source Simpson repeat-probability numerator (two-limb
        # past-int64 Σc(c−1), division never materialized)
        ("docs_simpson", docs.docs_simpson, docs.SIMPSON_SQL, True),
        # Theil–Sen robust daily-revenue slope (median of pairwise
        # slopes; trunc-div micro slopes, order statistics — no division)
        ("orders_theilsen", relational.orders_theilsen, relational.ORDERS_THEILSEN_SQL, True),
        # candidate-key discovery (exact distinct-vs-rows over single +
        # composite column sets; ONE value exchange, footer row counts)
        ("tables_key_discovery", relational.tables_key_discovery,
         relational.tables_key_discovery_sql(), True),
        # linear multi-touch attribution (7-day lookback; exact integer
        # (1e6*c)//k credit shares; one user-bucketed exchange)
        ("events_linear_attrib", events.events_linear_attrib, events.LINEAR_ATTRIB_SQL, True),
        # k-anonymity privacy audit under the (nation, segment,
        # $1000-band) quasi-identifier (one QI-bucketed exchange)
        ("customers_kanon", relational.customers_kanon, relational.KANON_SQL, True),
        # top-20 discounted customer lifetime value (0.98^months,
        # floor-micro addends; combiner + grouped top-20)
        ("customers_clv", relational.customers_clv, relational.CLV_SQL, True),
        # KWIC concordance snippets for the search family (pure map,
        # instr/substr byte-parity)
        ("docs_search_snippets", docs.docs_search_snippets, docs.SNIPPETS_SQL, True),
        # contamination-safe split: every near-dup CLUSTER lands whole
        # in one of train/val/test (components → md5-mod by group)
        ("docs_leakage_safe_split", docs.docs_leakage_safe_split, docs.leakage_split_sql(), True),
        # Hamilton largest-remainder apportionment of 1000 units across
        # nations by revenue (bigint-exact; fused join census)
        ("orders_apportion", relational.orders_apportion, relational.APPORTION_SQL, True),
        # WOE credit-scoring binning: exact equal-frequency quartiles
        # (histogram-narrowing) + floor-micro ln(g·B/(b·G))
        ("orders_woe", relational.orders_woe, relational.WOE_SQL, True),
        # rolling-origin forecast backtest: naive vs MA3 on monthly
        # revenue (×3-scaled exact int64 absolute errors)
        ("orders_backtest", relational.orders_backtest, relational.BACKTEST_SQL, True),
        # top-10 peak concurrent-session minutes (interval sweep over
        # the sessionized log; time-bounded delta census)
        ("events_peak_concurrency", events.events_peak_concurrency,
         events.PEAK_CONCURRENCY_SQL, True),
        # optimizer statistics: exact self-join cardinality Σc² + hot
        # key, from a count exchange (pre-flight for join planning)
        ("lineitem_selfjoin_size", relational.lineitem_selfjoin_size,
         relational.SELFJOIN_SIZE_SQL, True),
        # BM25 top-k over the same persisted index (disjunctive)
        ("docs_search_ranked", docs.docs_search_ranked, docs._search_ranked_sql(), True),
        # exact phrase retrieval over the positional postings (v3)
        ("docs_search_phrase", docs.docs_search_phrase, docs.PHRASE_SQL, True),
        # PPMI relation scoring over the co-occurrence graph
        ("kg_ppmi", docs_kg.kg_ppmi, docs_kg.ppmi_sql(), True),
        # three-step strictly-ordered funnel (signup -> click -> purchase)
        ("events_funnel3", events.events_funnel3, events.FUNNEL3_SQL, True),
        # Johnson–Lindenstrauss ±1 sign projection 64→8 (floor-micro
        # int64 matmul, md5-parity signs — exact; ZERO exchanges)
        ("embed_rproj", docs.embed_rproj, docs.RPROJ_SQL, True),
        # fused per-source corpus dashboard (stats+langid+gopher+
        # distinct in ONE read + ONE census fold)
        ("docs_corpus_report", docs.docs_corpus_report, docs.CORPUS_REPORT_SQL, True),
        # bounce rate per session entry type (vectorized in-bucket
        # sessionize + first-event census)
        ("events_bounce_rate", events.events_bounce_rate, events.BOUNCE_SQL, True),
        # harmonic centrality (exact 10⁶//d integer addends — an
        # ORACLED graph metric; recursive-CTE BFS oracle)
        ("kg_harmonic", docs_kg.kg_harmonic, docs_kg.harmonic_sql(), True),
        # batch-hard triplet mining (hardest pos/neg per anchor; exact
        # chunk-pair all-pairs, ANN as the scale substitute)
        ("embed_triplets", docs.embed_triplets, docs.TRIPLETS_SQL, True),
        # Wilson-score 95% CI on per-type user reach (sentinel-row user
        # census through one user-bucketed exchange)
        ("events_wilson", events.events_wilson, events.WILSON_SQL, True),
        # per-user Viterbi score under the 2-state session-intent HMM
        # (exact int64 micro-nat dp; recursive-CTE oracle)
        ("events_hmm_score", events.events_hmm_score, events.HMM_SCORE_SQL, True),
        # relational operator families
        ("q1_pricing", relational.q1_pricing, relational.Q1_SQL, True),
        ("q3_top_orders", relational.q3_top_orders, relational.Q3_SQL, True),
        # composed text analytics: tf x idf join + grouped top-N
        ("docs_tfidf_top", docs.docs_tfidf_top, docs.TFIDF_TOP_SQL, True),
        # per-type PSI drift between the early/late half of the event
        # log (Laplace-smoothed, integer nano-nat addends)
        ("events_psi", events.events_psi, events.PSI_SQL, False),
        # Holt level+trend smoothing of monthly revenue (α=β=1/2,
        # bit-identical int64 floor recursion; recursive-CTE oracle)
        ("orders_holt", relational.orders_holt, relational.HOLT_SQL, False),
        # weighted isotonic regression of daily avg price (exact-int
        # PAVA ≡ the O(n²) minimax-identity oracle)
        ("orders_isotonic", relational.orders_isotonic, relational.ISOTONIC_SQL, False),
        # degree-distribution power-law MLE over the co-occurrence
        # graph (CSN discrete α at x_min=1; micro-nat integer Σln d)
        ("kg_powerlaw", docs_kg.kg_powerlaw, docs_kg.powerlaw_sql(), False),
        # order-insensitive md5-sum content checksums of the four
        # data-sized tables (migration validator; one fused execution)
        ("tables_checksum", relational.tables_checksum, relational.tables_checksum_sql(), False),
        # KG over the driver documents table
        ("kg_doc_mentions", docs_kg.doc_mentions, docs_kg.mentions_sql(), True),
        ("kg_doc_edges", docs_kg.doc_edges, docs_kg.edges_sql(), True),
        ("q5_region_revenue", relational.q5_region_revenue, relational.Q5_SQL, True),
        # Zipf's-law fit: global frequency rank with NO sort operator
        # (range buckets + prefix offsets), micro-log OLS moments
        ("docs_zipf", docs.docs_zipf, docs.ZIPF_SQL, True),
        # exact Spearman rank correlation via joint-value census +
        # integer average-ranks (two-limb moments, floor-micro rho)
        ("lineitem_spearman", relational.lineitem_spearman, relational.LINEITEM_SPEARMAN_SQL, True),
        # Adamic–Adar link prediction: degree-discounted common-neighbor
        # scores (floor-micro 1/ln(deg) addends, once per distinct degree)
        ("kg_adamic_adar", docs_kg.kg_adamic_adar, docs_kg.adamic_adar_sql(), True),
        # boolean-AND retrieval through the persisted token-bucketed
        # inverted index (build-once/serve-many; bucket-pruned reads)
        ("docs_search_indexed", docs.docs_search_indexed, docs.SEARCH_SQL, True),
        # SCD type-2 dimension build: state-change collapse + validity
        # intervals + per-user version numbers (one user_id exchange)
        ("events_scd2", events.events_scd2, events.SCD2_SQL, True),
        # near-superset detection: exact gram containment ≥ 0.8 via the
        # asymmetric-index prefix-filter self-join
        ("docs_containment_pairs", docs.docs_containment_pairs, docs.CONTAINMENT_SQL, True),
        # local clustering coefficient: 2·tri // (d·(d−1)) in exact ints
        ("kg_clustering_coeff", docs_kg.kg_clustering_coeff, docs_kg.clustering_coeff_sql(), True),
        # boolean-predicate counts served from the persisted bitmap index
        # (AND/OR/NOT bitwise combine per bucket; data pages untouched)
        ("lineitem_bitmap_counts", relational.lineitem_bitmap_counts,
         relational.BITMAP_COUNTS_SQL, True),
        # MATCH_RECOGNIZE-style CEP: per-user count of the ordered
        # view (click)+ purchase pattern (regex per USER-sequence inside
        # one user-bucketed exchange)
        ("events_cep", events.events_cep, events.CEP_SQL, True),
        # deterministic node2vec-style walks over the co-occurrence
        # graph (md5-argmin steps; recursive-CTE oracle)
        ("kg_walks", docs_kg.kg_walks, docs_kg.walks_sql(), True),
        # MOSS winnowing fingerprints (doc-local, zero exchanges)
        ("docs_winnow", docs.docs_winnow_fingerprints, docs.WINNOW_SQL, False),
        # near-dup candidate pairs over the winnow sketch (≥2 shared fps)
        ("docs_winnow_pairs", docs.docs_winnow_pairs, docs.WINNOW_PAIRS_SQL, True),
        # ExactSubstr-style duplicated-SPAN removal (overlapping grams,
        # all occurrences scrubbed, per-doc interval-mask reconstruction)
        ("docs_dupspans", docs.docs_dupspans, docs.DUPSPANS_SQL, True),
        # OLS slope/intercept + Pearson r via mergeable exact-integer
        # moments (two-limb int64 transport for the wide sums)
        ("lineitem_regression", relational.lineitem_regression,
         relational.LINEITEM_REGRESSION_SQL, True),
        # per-user Shannon entropy of event types (micro-nat integer
        # addend contract; glibc-log parity)
        ("events_entropy", events.events_entropy, events.ENTROPY_SQL, True),
        # robust stats: exact median / MAD / integer-fence outlier census
        ("lineitem_mad", relational.lineitem_mad, relational.LINEITEM_MAD_SQL, True),
        # ---- rows-only (no SQL-expressible oracle), by value ----
        # flagship KG over input_hint-shaped pages (parity enforced by the
        # in-repo oracle e2e golden test)
        ("kg_triples_pages", _kg_triples_pages, None, False),
        ("kg_edges_pages", _kg_edges_pages, None, False),
        # M2 fully closed: flagship with the TRAINED perceptron tagger
        # voting in the ensemble (train→held-out eval→derived eval
        # matrix→run; exact-span corroboration keeps e2e triple P/R vs
        # the default-ensemble graph ≥ 0.95 — tests/test_trained_ensemble)
        ("kg_flagship_trained", _kg_flagship_trained, None, True),
        ("kg_segment_hmm", _kg_segment_hmm, None, False),
        ("events_markov_attribution", events.events_markov_attribution, None, False),
        ("kg_flagship_neural", _kg_flagship_neural, None, False),
        # MUC-style NER evaluation (strict/exact/partial/ent_type P&R per
        # model per type — the reference's quality gate; gold+preds are
        # engine-computed, golden-tested in tests/test_muc_eval.py)
        ("ner_eval", _ner_eval, None, True),
        # sentence-lineage table sorted by content-stable key
        # (clean_and_save.py:561-597 source_info analogue)
        ("kg_source_info", _kg_source_info, None, False),
        # BIO training-data export over the pages corpus
        ("kg_bio_export", _kg_bio_export, None, False),
        # explicit dead-letter accounting over the pages corpus
        ("kg_extract_audit", _kg_extract_audit, None, False),
        # LSH-bucketed + IVF ANN (scale paths; recall<1 by design) + PQ with
        # exact re-rank (16-byte codes; recall pytest-gated)
        ("knn_cosine_lsh", _knn_lsh, None, False),
        ("knn_cosine_ivf", _knn_ivf, None, False),
        ("knn_cosine_pq", _knn_pq, None, False),
        # persisted-index serve path: scan ONLY the 16-byte code table,
        # pushdown keyed fetch for the re-rank candidates (≡ inline PQ,
        # pytest-pinned)
        ("knn_cosine_pq_indexed", _knn_pq_indexed, None, False),
        # production chain: MinHash-LSH candidates -> exact n-gram-Jaccard
        # verify (LSH recall < 1 by design, measured in tests; subsumes the
        # former minhash_pairs entry)
        ("minhash_verified_pairs", docs.docs_minhash_verified, None, True),
        # model-training loop: distributed batch-perceptron learning
        # curve over the dictionary-labeled corpus (exact-integer BSP;
        # convergence + parallelism-invariance pytest-gated)
        ("ner_train", _ner_train, None, False),
        # BPE tokenizer TRAINING (distributed word census → driver-side
        # merge learning on the bounded artifact; Sennrich-example +
        # invariance pytest-gated) and the encode serving pass
        ("docs_bpe_vocab", docs.docs_bpe_vocab, None, False),
        ("docs_bpe_encoded", docs.docs_bpe_encoded, None, False),
        # SemDeDup: cluster-restricted semantic dedup (k-means buckets →
        # within-cluster cosine pairs → component min-id election);
        # brute-force-equivalence + invariance pytest-gated
        ("embed_semdedup", docs.embed_semdedup, None, True),
        # grouped + global HLL sketches (approximate; <2%-error and
        # split-invariance pytest gates vs the exact counts)
        ("events_type_approx_users", events.events_type_approx_users, None, False),
        ("tokens_approx_distinct", docs.tokens_approx_distinct, None, False),
        # deterministic first-fit-decreasing sequence packing
        # (budget/exactly-once/parallelism-invariance pytest-gated)
        ("docs_pack_sequences", docs.docs_pack_sequences, None, False),
        # multimodal: REAL PPM/WAV/raw-frame decode kernels + perceptual-
        # hash near-dup over an engine-synthesized corpus (subsumes the
        # former media_features entry — neardup computes the features)
        ("media_neardup", _media_neardup, None, False),
        # uncertainty-sampled annotation seeds (active-learning data side;
        # deterministic top-disagreement vs the reference's random.sample)
        ("kg_active_seeds", _kg_active_seeds, None, False),
        # entity salience: PageRank over the (bounded) co-occurrence graph
        # — dense finalizer over distributed mining; ≡-to-BSP pytest-gated
        ("kg_entity_salience", docs_kg.kg_entity_salience, None, True),
        # document salience: distributed BSP PageRank over the near-dup
        # graph (unbounded node set; BSP ≡ dense power iteration in tests)
        ("docs_pagerank", docs.docs_pagerank, None, True),
        # distributed spherical k-means cluster census (exact fixed-point
        # partials; parallelism-invariance + dense-≡ + planted-label
        # pytest gates — no SQL oracle exists for an iterative fit)
        ("embed_kmeans", docs.embed_kmeans, None, True),
        # DBSCAN density clustering (exact eps-neighbor self-join →
        # core-core components → min-label border attach; ≡-dense pinned)
        ("embed_dbscan", docs.embed_dbscan, None, True),
        # distributed PCA: exact-int sufficient statistics (one pass,
        # #batches x d(d+1)/2 exchange), driver d x d eigh; bit-identical
        # at any parallelism (tests/test_clustering.py)
        ("embed_pca", docs.embed_pca, None, True),
        # composed LLM-prep flagship: curate → decontaminate → split →
        # pack → checkpointed Parquet stages with lineage manifests
        # (components individually oracled; composition pytest-gated in
        # tests/test_docs_prep.py incl. resume + audit)
        ("docs_llm_prep", _docs_llm_prep, None, True),
        # k-core trim of the co-occurrence graph (iterative BSP peeling;
        # unique fixpoint → parallelism-invariant; BSP ≡ dense ≡ brute
        # pinned in tests/test_graph.py)
        ("kg_kcore", docs_kg.kg_kcore, None, True),
        # label-propagation communities (fixed-budget synchronous
        # semantics; BSP ≡ dense pinned in tests/test_graph.py)
        ("kg_lpa", docs_kg.kg_lpa, None, True),
        # HITS hubs/authorities over the directed source→term graph
        # (BSP ≡ dense pinned in tests/test_graph.py; iterative — no SQL)
        ("kg_hits", docs_kg.kg_hits, None, True),
        # betweenness centrality (pivot-parallel Brandes, exact int64
        # micro-dependency fold; distributed ≡ dense pytest-pinned)
        ("kg_betweenness", docs_kg.kg_betweenness, None, True),
        # weighted SSSP from an md5-stable hub (BSP relaxation ≡ Dijkstra)
        ("kg_distances", docs_kg.kg_distances, None, True),
        # maximum-evidence spanning backbone (Borůvka MSF on −n_docs;
        # BSP ≡ dense Kruskal pytest-pinned, unique forest)
        ("kg_mst", docs_kg.kg_mst, None, True),
        # MMR diversified top-k retrieval (distributed candidate pool +
        # bounded greedy re-rank; pinned ≡ reference impl in tests)
        ("embed_mmr", docs.embed_mmr, None, True),
        # Markov stationary distribution of the event-type chain
        # (distributed transition census + dense fixpoint; pytest-pinned)
        ("events_markov_stationary", events.events_markov_stationary, None, True),
        # KMV/theta sketch: distinct users + audience INTERSECTIONS from
        # one mergeable-sketch pass (accuracy/merge pytest-gated)
        ("events_type_kmv", events.events_type_kmv, None, True),
        # zlib compression-ratio quality signal (per-doc codec — no SQL
        # DEFLATE; determinism/discrimination pytest-gated)
        ("docs_compress_ratio", docs.docs_compress_ratio, None, True),
        # KG-embedding training prep: k deterministic tail-corrupted
        # negatives per co-occurrence edge (validity/invariance pytests)
        ("kg_negative_samples", docs_kg.kg_negative_samples, None, True),
        # full per-event Viterbi decode (backtrace face of the oracled
        # events_hmm_score; distributed ≡ dense pinned in tests)
        ("events_hmm_decode", events.events_hmm_decode, None, False),
        # canonical Huffman code lengths for the top-256 token census
        # (optimality/Kraft/Shannon-bound pytest-pinned)
        ("docs_huffman", docs.docs_huffman, None, True),
        # absorbing-Markov expected steps to conversion (exact integer
        # transition census → fundamental-matrix solve; pytest-pinned)
        ("events_absorbing", events.events_absorbing, None, True),
        # bridge (fragile) links in the near-dup graph — per-component
        # Tarjan after a component-bucketed exchange (≡-brute pinned)
        ("docs_fragile_links", docs.docs_fragile_links, None, True),
        # footer-only per-column storage audit (≡ parquet_metadata
        # pinned; rows-only — path-bound oracle)
        ("tables_storage_audit", relational.tables_storage_audit, None, True),
    ]


def queries() -> dict[str, Callable[[str], Any]]:
    rows = registry()
    q = {name: fn for name, fn, _sql, _bench in rows}
    if len(q) != len(rows):
        raise ValueError("registry() lists a query name twice")
    return q


def oracle_sql() -> dict[str, str]:
    return {name: sql for name, _fn, sql, _bench in registry() if sql is not None}
