"""Group keys that differ only after a NUL byte stay apart end to end:
the sf0.001 tables with ``l_returnflag`` 'A' → 'x\\0a' and 'N' → 'x\\0b',
so two of the three flags share the prefix 'x' and differ after the NUL,
and, as a second copy, with the ``documents.text`` tokens 'hash' →
'x\\0a' and 'join' → 'x\\0b'.  Each query is compared with its DuckDB
oracle on the same files."""

from __future__ import annotations

import os
import sys

import duckdb
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from test_queries_oracle import SF_DIR  # noqa: E402  (the oracle gate's tables)
from tools.check_correctness import TABLES, compare, to_pandas  # noqa: E402

QUERIES = ["q1_pricing", "lineitem_qty_stats", "lineitem_regression",
           "lineitem_moments", "q1_rollup", "q1_cube"]


DOCS_QUERIES = ["docs_ttr", "docs_frequent_tokens", "docs_zipf", "docs_simpson",
                "docs_source_js", "docs_odds_ratio", "docs_chunk_dedup",
                "docs_heaps"]


def _sf_copy(d, table: str, col: str, swaps: dict[str, str]):
    """``d`` holding every oracle table, ``table`` rewritten with each
    regex of ``swaps`` replaced in ``col``; returns (dir, DuckDB views,
    rewritten column)."""
    for t in TABLES:
        if t != table:
            os.symlink(f"{SF_DIR}/{t}.parquet", d / f"{t}.parquet")
    tbl = pq.read_table(f"{SF_DIR}/{table}.parquet")
    vals = tbl[col]
    for pattern, value in swaps.items():
        vals = pc.replace_substring_regex(vals, pattern, value)
    tbl = tbl.set_column(tbl.schema.get_field_index(col), col, vals)
    pq.write_table(tbl, d / f"{table}.parquet")
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{d}/{t}.parquet')")
    return str(d), con, tbl[col]


@pytest.fixture(scope="module")
def nul_sf(tmp_path_factory):
    sf, con, flag = _sf_copy(tmp_path_factory.mktemp("sf_nul"), "lineitem",
                             "l_returnflag", {"^A$": "x\x00a", "^N$": "x\x00b"})
    assert set(flag.to_pylist()) == {"x\x00a", "x\x00b", "R"}
    return sf, con


@pytest.fixture(scope="module")
def nul_docs_sf(tmp_path_factory):
    sf, con, text = _sf_copy(tmp_path_factory.mktemp("sf_nul_docs"), "documents",
                             "text", {r"\bhash\b": "x\x00a", r"\bjoin\b": "x\x00b"})
    toks = {t for s in text.to_pylist() for t in s.split(" ")}
    assert {"x\x00a", "x\x00b"} <= toks and not {"hash", "join"} & toks
    return sf, con


def _check(name, sf, con):
    import __ray_entry__ as em

    got = to_pandas(em.queries()[name](sf))
    want = con.execute(em.oracle_sql()[name]).df()
    issues = compare(name, got, want)
    assert not issues, issues


@pytest.mark.parametrize("name", QUERIES)
def test_nul_keys_match_oracle(name, nul_sf, ray_session):
    _check(name, *nul_sf)


@pytest.mark.parametrize("name", DOCS_QUERIES)
def test_nul_tokens_match_oracle(name, nul_docs_sf, ray_session):
    """Token-keyed exchanges route a NUL-holding token to one bucket."""
    _check(name, *nul_docs_sf)
