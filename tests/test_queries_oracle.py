"""In-repo regression of the driver's correctness gate: every SQL-oracled
``queries()`` entry must match its DuckDB oracle at sf0.001."""

import sys

import duckdb
import pytest

sys.path.insert(0, "/root/repo")

SF_DIR = "/root/testdata/sf0.001"

from tools.check_correctness import TABLES, compare, to_pandas  # noqa: E402


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con


def _entry():
    import __ray_entry__

    return __ray_entry__


def _oracled_names():
    return sorted(_entry().oracle_sql())


@pytest.mark.parametrize("name", _oracled_names())
def test_query_matches_oracle(name, ray_session, duck):
    em = _entry()
    got = to_pandas(em.queries()[name](SF_DIR))
    want = duck.execute(em.oracle_sql()[name]).df()
    issues = compare(name, got, want)
    assert not issues, issues


def test_entry_smoke(ray_session):
    em = _entry()
    ds = em.entry()
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    assert len(df) > 0
    assert set(df.columns) == {"subj_id", "pred", "obj_id", "weight", "n_evidence"}


def test_rows_only_queries_run(ray_session):
    em = _entry()
    qs, oracles = em.queries(), em.oracle_sql()
    for name, fn in qs.items():
        if name in oracles or name.startswith("kg_triples_pages"):
            continue
        if name in ("kg_edges_pages",):  # entry() runs it: test_entry_smoke
            continue
        out = to_pandas(fn(SF_DIR))
        assert out is not None and len(out.columns) > 0
