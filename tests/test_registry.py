"""Snapshot of the query registry: the names ``queries()`` returns and
their order, the oracled/rows-only split, and the set ``bench.py`` runs.

No Ray execution: the registry is only read, and ``bench.run_queries``
runs against recording stand-ins.  The driver checks only the first 50
entries of ``queries()``, so a change to this order is a deliberate
rotation and must be made here too.
"""

from __future__ import annotations

import pandas as pd

import __ray_entry__ as em

QUERY_ORDER = [
    "lineitem_skyline", "lineitem_moments", "events_sankey", "kg_nodes_ontology",
    "kg_label_modularity", "events_ewma", "customers_ldiversity",
    "supplier_lead_time", "events_cooccur_window", "supplier_value_share",
    "kg_eccentricity", "events_fano", "docs_script_mix", "events_runlengths",
    "embed_topk_dims", "embed_quantize", "events_active_time", "events_queue_wait",
    "lineitem_kendall", "embed_drift", "events_user_quantiles", "orders_abc",
    "orders_weekly_iso", "events_rolling_median", "nation_rev_ivm_bilateral",
    "docs_curation_report", "orders_lineitem_mergejoin", "supplier_hhi",
    "events_last_touch", "orders_open_by_day", "docs_vocab_drift",
    "docs_jaccard_prefix", "events_did", "events_ks_test", "events_dense_rank",
    "lineitem_neyman", "parts_copurchase_sim", "tables_profile", "docs_odds_ratio",
    "docs_bigram_lm", "q13_custdist", "q21_waiting_suppliers", "kg_assortativity",
    "docs_curation_neardup", "docs_collocations", "events_path_trigrams",
    "tables_skew_report", "docs_crossdedup", "tables_fd_discovery", "events_anova",
    "events_chisq", "docs_minhash_clusters", "customers_rfm", "kg_khop",
    "events_orders_reconcile", "q1_rollup", "q18_big_orders", "events_anomaly",
    "kg_triangles", "docs_chunk_dedup", "kg_jaccard_neighbors",
    "events_percent_rank", "events_props_parse", "events_gapfill",
    "events_conversion", "events_retention", "lineitem_winsorize",
    "orders_bloom_semi", "docs_frequent_tokens", "docs_typo_candidates",
    "docs_bottomk_sample", "q6_forecast_revenue", "q14_promo_share",
    "q10_returned_customers", "q7_nation_volume", "docs_redact", "events_ntile",
    "tables_integrity", "knn_cosine_multi", "events_transitions", "orders_yoy",
    "events_decay", "orders_monthly_cumrev", "customers_above_avg",
    "events_sliding_users", "events_user_mode", "lineitem_qty_stats", "events_twa",
    "events_type_unpivot", "lineitem_quantiles_cont", "q1_cube",
    "events_users_both", "q4_order_priority", "q8_market_share", "docs_sample",
    "q15_top_supplier", "q17_small_qty_revenue", "q19_disjunctive_revenue",
    "q22_global_sales", "events_sliding", "docs_weighted_sample",
    "part_cheapest_supplier", "events_first_last", "events_lag_diff",
    "events_user_type_pivot", "events_rolling_avg", "docs_langid",
    "events_user_path", "docs_global_shuffle", "docs_unigram_logprob",
    "lineitem_quantiles_sketch", "events_share_of_total", "simhash_fingerprints",
    "events_rolling_time", "q16_brand_suppliers", "q12_priority_lines",
    "q20_dominant_suppliers", "docs_nb_langid", "q11_part_value_share",
    "part_skyline", "events_debounce", "events_asof", "docs_fingerprint",
    "dedup_exact", "token_histogram", "ngram_jaccard_pairs", "events_running_sum",
    "docs_stats", "embed_norms", "knn_cosine", "docs_quality", "events_tumbling",
    "events_argmax", "docs_split", "docs_first_nonnull", "gazetteer_unseen",
    "docs_decontaminate", "docs_repetition", "docs_source_quota", "kg_cooccurrence",
    "docs_ngram_topk", "docs_stratified_sample", "docs_bpe_tokens",
    "events_sessionize", "events_range_join", "events_user_median",
    "orders_topn_per_cust", "lineitem_quantiles", "docs_chunk_windows", "knn_range",
    "orders_lineitem_join", "customers_no_orders", "orders_cohorts",
    "embed_label_centroids", "simhash_neardup_pairs", "dedup_components",
    "docs_dsir", "events_cume_dist", "events_interarrival", "docs_curation",
    "kg_doc_nodes", "q9_profit", "embed_neardup_pairs", "events_top_paths",
    "embed_knn_graph", "events_pct_change", "docs_minhash_eval",
    "events_daily_autocorr", "docs_rake", "lineitem_benford", "events_bursts",
    "embed_label_affinity", "parts_assoc_rules", "lineitem_weighted_median",
    "supplier_gini", "events_streaks", "nations_trade_matrix", "orders_trend",
    "docs_length_percentiles", "docs_length_mad", "events_gap_histogram",
    "events_type_jaccard", "events_hourly_profile", "docs_heaps", "docs_source_js",
    "events_dau_mau", "events_cusum", "docs_search_rrf", "docs_es_sample",
    "docs_sources_overlap", "docs_ttr", "lineitem_zonemap_scan",
    "events_mannwhitney", "events_geomean", "events_kaplan_meier",
    "events_streaming_tumbling", "supplier_theil", "lineitem_corr_matrix",
    "orders_runs_test", "tables_fk_discovery", "orders_seasonal_decompose",
    "docs_gopher_rules", "docs_snm_pairs", "docs_minhash_pairs", "events_ttest",
    "docs_feature_hashing", "lineitem_zorder_scan", "orders_snapshot_diff",
    "docs_readability", "nation_rev_ivm", "events_cuped", "sales_hierarchy_share",
    "events_mutual_info", "docs_simpson", "orders_theilsen", "tables_key_discovery",
    "events_linear_attrib", "customers_kanon", "customers_clv",
    "docs_search_snippets", "docs_leakage_safe_split", "orders_apportion",
    "orders_woe", "orders_backtest", "events_peak_concurrency",
    "lineitem_selfjoin_size", "docs_search_ranked", "docs_search_phrase", "kg_ppmi",
    "events_funnel3", "embed_rproj", "docs_corpus_report", "events_bounce_rate",
    "kg_harmonic", "embed_triplets", "events_wilson", "events_hmm_score",
    "q1_pricing", "q3_top_orders", "docs_tfidf_top", "events_psi", "orders_holt",
    "orders_isotonic", "kg_powerlaw", "tables_checksum", "kg_doc_mentions",
    "kg_doc_edges", "q5_region_revenue", "docs_zipf", "lineitem_spearman",
    "kg_adamic_adar", "docs_search_indexed", "events_scd2",
    "docs_containment_pairs", "kg_clustering_coeff", "lineitem_bitmap_counts",
    "events_cep", "kg_walks", "docs_winnow", "docs_winnow_pairs", "docs_dupspans",
    "lineitem_regression", "events_entropy", "lineitem_mad", "kg_triples_pages",
    "kg_edges_pages", "kg_flagship_trained", "kg_segment_hmm",
    "events_markov_attribution", "kg_flagship_neural", "ner_eval", "kg_source_info",
    "kg_bio_export", "kg_extract_audit", "knn_cosine_lsh", "knn_cosine_ivf",
    "knn_cosine_pq", "knn_cosine_pq_indexed", "minhash_verified_pairs", "ner_train",
    "docs_bpe_vocab", "docs_bpe_encoded", "embed_semdedup",
    "events_type_approx_users", "tokens_approx_distinct", "docs_pack_sequences",
    "media_neardup", "kg_active_seeds", "kg_entity_salience", "docs_pagerank",
    "embed_kmeans", "embed_dbscan", "embed_pca", "docs_llm_prep", "kg_kcore",
    "kg_lpa", "kg_hits", "kg_betweenness", "kg_distances", "kg_mst", "embed_mmr",
    "events_markov_stationary", "events_type_kmv", "docs_compress_ratio",
    "kg_negative_samples", "events_hmm_decode", "docs_huffman", "events_absorbing",
    "docs_fragile_links", "tables_storage_audit",
]

BENCH_NAMES = {
    "customers_clv", "customers_kanon", "customers_ldiversity", "customers_rfm",
    "dedup_exact", "docs_bigram_lm", "docs_bottomk_sample", "docs_chunk_dedup",
    "docs_collocations", "docs_compress_ratio", "docs_containment_pairs",
    "docs_corpus_report", "docs_crossdedup", "docs_curation_neardup",
    "docs_curation_report", "docs_decontaminate", "docs_dupspans", "docs_es_sample",
    "docs_feature_hashing", "docs_fragile_links", "docs_frequent_tokens",
    "docs_gopher_rules", "docs_heaps", "docs_huffman", "docs_jaccard_prefix",
    "docs_leakage_safe_split", "docs_length_mad", "docs_length_percentiles",
    "docs_llm_prep", "docs_minhash_clusters", "docs_minhash_eval",
    "docs_minhash_pairs", "docs_ngram_topk", "docs_odds_ratio", "docs_pagerank",
    "docs_quality", "docs_rake", "docs_readability", "docs_redact",
    "docs_script_mix", "docs_search_indexed", "docs_search_phrase",
    "docs_search_ranked", "docs_search_rrf", "docs_search_snippets", "docs_simpson",
    "docs_snm_pairs", "docs_source_js", "docs_source_quota", "docs_sources_overlap",
    "docs_stats", "docs_tfidf_top", "docs_ttr", "docs_vocab_drift",
    "docs_winnow_pairs", "docs_zipf", "embed_dbscan", "embed_drift", "embed_kmeans",
    "embed_knn_graph", "embed_label_affinity", "embed_label_centroids", "embed_mmr",
    "embed_neardup_pairs", "embed_norms", "embed_pca", "embed_quantize",
    "embed_rproj", "embed_semdedup", "embed_topk_dims", "embed_triplets",
    "events_absorbing", "events_active_time", "events_anomaly", "events_anova",
    "events_argmax", "events_asof", "events_bounce_rate", "events_bursts",
    "events_cep", "events_chisq", "events_conversion", "events_cooccur_window",
    "events_cuped", "events_cusum", "events_daily_autocorr", "events_dau_mau",
    "events_decay", "events_dense_rank", "events_did", "events_entropy",
    "events_ewma", "events_fano", "events_first_last", "events_funnel3",
    "events_gap_histogram", "events_geomean", "events_hmm_score",
    "events_hourly_profile", "events_interarrival", "events_kaplan_meier",
    "events_ks_test", "events_last_touch", "events_linear_attrib",
    "events_mannwhitney", "events_markov_stationary", "events_mutual_info",
    "events_path_trigrams", "events_pct_change", "events_peak_concurrency",
    "events_queue_wait", "events_range_join", "events_rolling_median",
    "events_runlengths", "events_sankey", "events_scd2", "events_sessionize",
    "events_streaks", "events_streaming_tumbling", "events_top_paths",
    "events_ttest", "events_tumbling", "events_type_jaccard", "events_type_kmv",
    "events_user_quantiles", "events_wilson", "kg_adamic_adar", "kg_assortativity",
    "kg_betweenness", "kg_clustering_coeff", "kg_cooccurrence", "kg_distances",
    "kg_doc_edges", "kg_doc_mentions", "kg_eccentricity", "kg_entity_salience",
    "kg_flagship_trained", "kg_harmonic", "kg_hits", "kg_jaccard_neighbors",
    "kg_kcore", "kg_khop", "kg_label_modularity", "kg_lpa", "kg_mst",
    "kg_negative_samples", "kg_nodes_ontology", "kg_ppmi", "kg_triangles",
    "kg_walks", "knn_cosine", "knn_cosine_multi", "knn_range", "lineitem_benford",
    "lineitem_bitmap_counts", "lineitem_corr_matrix", "lineitem_kendall",
    "lineitem_mad", "lineitem_moments", "lineitem_neyman", "lineitem_quantiles",
    "lineitem_regression", "lineitem_selfjoin_size", "lineitem_skyline",
    "lineitem_spearman", "lineitem_weighted_median", "lineitem_winsorize",
    "lineitem_zonemap_scan", "lineitem_zorder_scan", "minhash_verified_pairs",
    "nation_rev_ivm", "nation_rev_ivm_bilateral", "nations_trade_matrix",
    "ner_eval", "orders_abc", "orders_apportion", "orders_backtest",
    "orders_bloom_semi", "orders_cohorts", "orders_lineitem_mergejoin",
    "orders_open_by_day", "orders_runs_test", "orders_seasonal_decompose",
    "orders_snapshot_diff", "orders_theilsen", "orders_topn_per_cust",
    "orders_trend", "orders_weekly_iso", "orders_woe", "orders_yoy",
    "part_cheapest_supplier", "parts_assoc_rules", "parts_copurchase_sim",
    "q10_returned_customers", "q13_custdist", "q17_small_qty_revenue",
    "q18_big_orders", "q1_pricing", "q21_waiting_suppliers", "q3_top_orders",
    "q4_order_priority", "q5_region_revenue", "q8_market_share",
    "sales_hierarchy_share", "supplier_gini", "supplier_hhi", "supplier_lead_time",
    "supplier_theil", "supplier_value_share", "tables_fd_discovery",
    "tables_fk_discovery", "tables_integrity", "tables_key_discovery",
    "tables_profile", "tables_skew_report", "tables_storage_audit",
}


def test_query_order_is_pinned():
    assert len(QUERY_ORDER) == len(set(QUERY_ORDER)) == 310
    assert list(em.queries()) == QUERY_ORDER


def test_oracled_names_are_queries_and_come_first():
    names, oracled = list(em.queries()), set(em.oracle_sql())
    assert oracled <= set(names)
    flags = [n in oracled for n in names]
    assert flags == sorted(flags, reverse=True)  # oracled, then rows-only
    assert all(flags[:50])
    assert len(oracled) == 264


def test_bench_runs_the_pinned_set_once_each(monkeypatch):
    import bench

    called = []

    def recorder(name):
        def run(sf_dir):
            called.append(name)
            return pd.DataFrame()

        return run

    fakes = {n: recorder(n) for n in em.queries()}
    monkeypatch.setattr(em, "queries", lambda: fakes)
    bench.run_queries()
    assert len(called) == len(set(called))
    assert set(called) == BENCH_NAMES
