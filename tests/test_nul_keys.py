"""Group keys that differ only after a NUL byte stay apart end to end:
the sf0.001 tables with ``l_returnflag`` 'A' → 'x\\0a' and 'N' → 'x\\0b',
so two of the three flags share the prefix 'x' and differ after the NUL.
Each query is compared with its DuckDB oracle on the same files."""

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


@pytest.fixture(scope="module")
def nul_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("sf_nul")
    for t in TABLES:
        if t != "lineitem":
            os.symlink(f"{SF_DIR}/{t}.parquet", d / f"{t}.parquet")
    li = pq.read_table(f"{SF_DIR}/lineitem.parquet")
    flag = li["l_returnflag"]
    flag = pc.replace_substring_regex(flag, "^A$", "x\x00a")
    flag = pc.replace_substring_regex(flag, "^N$", "x\x00b")
    li = li.set_column(li.schema.get_field_index("l_returnflag"),
                       "l_returnflag", flag)
    assert set(li["l_returnflag"].to_pylist()) == {"x\x00a", "x\x00b", "R"}
    pq.write_table(li, d / "lineitem.parquet")
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{d}/{t}.parquet')")
    return str(d), con


@pytest.mark.parametrize("name", QUERIES)
def test_nul_keys_match_oracle(name, nul_sf, ray_session):
    import __ray_entry__ as em

    sf, con = nul_sf
    got = to_pandas(em.queries()[name](sf))
    want = con.execute(em.oracle_sql()[name]).df()
    issues = compare(name, got, want)
    assert not issues, issues
