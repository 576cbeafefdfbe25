"""``stages/shuffle.fold_groups``: the engine's one census path, pinned
against a plain Python dict fold of the same rows and against Ray's
sort-based ``groupby().aggregate()`` where the two agree (no NULs), plus
the source rules that every census goes through it and every keyed
exchange through ``stages/shuffle.exchange``."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _dict_fold(blocks: list[pa.Table], keys, aggs) -> dict:
    acc: dict = {}
    for t in blocks:
        for row in t.to_pylist():
            k = tuple(row[c] for c in keys)
            cur = acc.setdefault(k, {c: None for c, _ in aggs})
            for c, f in aggs:
                v = row[c]
                if v is None:
                    continue
                if cur[c] is None:
                    cur[c] = v
                else:
                    cur[c] = {"sum": lambda a, b: a + b, "max": max,
                              "min": min}[f](cur[c], v)
    return acc


def _as_dict(df: pd.DataFrame, keys, aggs) -> dict:
    out = {}
    for row in df.to_dict("records"):
        k = tuple(None if pd.isna(row[c]) else row[c] for c in keys)
        out[k] = {c: row[c] for c, _ in aggs}
    return out


def _blocks(seed: int, n_blocks: int = 4, rows: int = 30) -> list[pa.Table]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_blocks):  # every key appears in several blocks
        out.append(pa.table({
            "k32": pa.array(rng.integers(0, 4, rows), pa.int32()),
            "s": pa.array(rng.choice(["a", "b", "c"], rows)),
            "v": pa.array(rng.integers(-2**40, 2**40, rows), pa.int64()),
            "f": pa.array(rng.integers(-1000, 1000, rows) / 8.0),
        }))
    return out


AGGS = [("v", "sum"), ("f", "sum"), ("f_max", "max"), ("v_min", "min")]


def _with_max(t: pa.Table) -> pa.Table:
    return t.append_column("f_max", t["f"]).append_column("v_min", t["v"])


def test_fold_groups_matches_dict_fold_and_ray(ray_session):
    """Same keys spread over several blocks and repeated inside each one
    (raw per-row input, combined in the producing task), an int32 key
    widened to int64, int64/float64 sums, a max and a min, and the global
    totals of ``keys=[]``: the fold equals the dict fold and, with its
    dtypes, Ray's sort-based aggregate."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min, Sum

    from medical_knowledge_graph_ray.stages.shuffle import fold_groups

    blocks = [_with_max(t) for t in _blocks(7)]
    assert all(len(set(t["k32"].to_pylist())) < t.num_rows for t in blocks)
    ds = rd.from_arrow(blocks)
    ray_aggs = (Sum("v", alias_name="v"), Sum("f", alias_name="f"),
                Max("f_max", alias_name="f_max"),
                Min("v_min", alias_name="v_min"))
    for keys in (["k32"], ["s", "k32"], []):
        got = fold_groups(ds, keys, AGGS)
        assert list(got.columns) == keys + [c for c, _ in AGGS]
        want = _dict_fold(blocks, keys, AGGS)
        assert _as_dict(got, keys, AGGS) == want
        if not keys:
            assert len(got) == 1
            assert got.iloc[0].to_dict() == ds.aggregate(*ray_aggs)
            continue
        assert got["k32"].dtype == np.int64
        ray_df = ds.groupby(keys).aggregate(*ray_aggs).to_pandas()
        pd.testing.assert_frame_equal(got, ray_df, check_exact=True)


def test_fold_groups_keeps_nul_keys_apart_and_null_keys(ray_session):
    """Keys that differ only after a NUL stay two groups, also when they
    arrive as raw per-row rows that the producing task combines; a null
    key is its own group, sorted last."""
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.shuffle import fold_groups

    blocks = [
        pa.table({"k": ["x\x00a", "x\x00b", None, "x\x00a", "x\x00b"],
                  "n": pa.array([1, 2, 3, 4, 5])}),
        pa.table({"k": ["x\x00b", None, "x\x00a"], "n": pa.array([10, 20, 30])}),
    ]
    got = fold_groups(rd.from_arrow(blocks), ["k"], [("n", "sum")])
    assert got["k"].tolist() == ["x\x00a", "x\x00b", None]
    assert got["n"].tolist() == [35, 17, 23]
    assert _as_dict(got, ["k"], [("n", "sum")]) == _dict_fold(
        blocks, ["k"], [("n", "sum")])


def test_fold_groups_empty_dataset_gives_typed_frame(ray_session):
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.shuffle import fold_groups

    empty = _with_max(_blocks(1)[0]).slice(0, 0)
    got = fold_groups(rd.from_arrow(empty), ["s", "k32"], AGGS)
    assert len(got) == 0
    assert list(got.columns) == ["s", "k32", "v", "f", "f_max", "v_min"]
    assert dict(got.dtypes.astype(str)) == {
        "s": "object", "k32": "int64", "v": "int64", "f": "float64",
        "f_max": "float64", "v_min": "int64"}
    total = fold_groups(rd.from_arrow(empty), [], AGGS)  # ds.aggregate: None
    assert len(total) == 1 and total.isna().all(axis=None)


def _receiver_calls(node: ast.AST) -> list[str]:
    """Method names called along ``node``'s receiver chain, outermost
    first, stepping through subscripts and attribute reads."""
    names = []
    while isinstance(node, (ast.Call, ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Attribute):
                break
            names.append(node.func.attr)
            node = node.func.value
        else:
            node = node.value
    return names


def _census_bypasses(path: pathlib.Path) -> list[str]:
    """``line: what`` for every census that does not go through
    ``fold_groups``: a ``ray.data.aggregate`` import, a Dataset
    ``.aggregate(`` call (Arrow's ``group_by(...).aggregate`` is the fold
    itself), and a ``map_batches(...)…to_pandas()…groupby(...)`` chain
    ending in ``.sum()``, ``.max()`` or ``.min()``."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").startswith("ray.data.aggregate"):
            hits.append(f"{node.lineno}: import {node.module}")
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("ray.data.aggregate") for a in node.names):
            hits.append(f"{node.lineno}: import ray.data.aggregate")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, calls = node.func.attr, _receiver_calls(node.func.value)
            if attr == "aggregate" and calls[:1] != ["group_by"]:
                hits.append(f"{node.lineno}: .aggregate(")
            elif attr in ("sum", "max", "min") and "groupby" in calls:
                rest = calls[calls.index("groupby") + 1:]
                if "to_pandas" in rest and "map_batches" in rest[
                        rest.index("to_pandas") + 1:]:
                    hits.append(f"{node.lineno}: to_pandas().groupby().{attr}()")
    return hits


@pytest.mark.parametrize("rel", ["medical_knowledge_graph_ray", "__ray_entry__.py"])
def test_no_collected_census_goes_through_an_exchange(rel, tmp_path):
    """``fold_groups`` is the one census path: no Ray sort-based
    aggregate and no collected pandas group-by fold of a Dataset's
    partials anywhere in the package or the entry module.  The pin
    itself flags each bypass shape and passes the fold's own Arrow call
    and a driver-side pandas group-by."""
    src = tmp_path / "m.py"
    src.write_text(
        "from ray.data.aggregate import Sum\n"
        "a = ds.groupby('k').aggregate(Sum('n'))\n"
        "b = ds.aggregate(Sum('n'))\n"
        "c = ds.map_batches(f).to_pandas().groupby('k')['n'].sum()\n"
        "d = t.group_by(['k']).aggregate([('n', 'sum')])\n"
        "e = frame.groupby('k')['n'].sum()\n")
    assert [h.split(":")[0] for h in _census_bypasses(src)] == ["1", "2", "3", "4"]
    root = ROOT / rel
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    found = [f"{f.relative_to(ROOT)}:{hit}"
             for f in files for hit in _census_bypasses(f)]
    assert not found, found


# the one group-by on a real key that is not a bucket exchange: one
# kernel call per source, whose candidate pairs never cross sources
MAP_GROUPS_ALLOWED = {("medical_knowledge_graph_ray/stages/shuffle.py", "exchange"),
                      ("medical_knowledge_graph_ray/pipelines/docs.py",
                       "docs_ngram_jaccard")}
HASH_NAMES = {"hash_pandas_object", "hash_array"}


def _exchange_bypasses(path: pathlib.Path, rel: str) -> list[str]:
    """``line: what`` for every keyed exchange or row hash that does not
    go through the shared one: a ``.map_groups(`` call outside the
    allowed functions, a ``hash_pandas_object``/``hash_array`` reference
    outside ``functions/hashing.py``, and a ``BUCKET_COL`` import."""
    hits = []

    def walk(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = func or child.name  # the enclosing top-level function
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "map_groups" \
                    and (rel, name) not in MAP_GROUPS_ALLOWED:
                hits.append(f"{child.lineno}: .map_groups( in {name or '<module>'}")
            if rel != "medical_knowledge_graph_ray/functions/hashing.py" and (
                    isinstance(child, ast.Attribute) and child.attr in HASH_NAMES
                    or isinstance(child, ast.Name) and child.id in HASH_NAMES
                    or isinstance(child, ast.ImportFrom)
                    and HASH_NAMES & {a.name for a in child.names}):
                hits.append(f"{child.lineno}: row hash outside row_hash")
            if isinstance(child, ast.ImportFrom) and any(
                    a.name == "BUCKET_COL" for a in child.names):
                hits.append(f"{child.lineno}: import BUCKET_COL")
            walk(child, name)

    walk(ast.parse(path.read_text()), "")
    return hits


def test_every_keyed_exchange_goes_through_shuffle(tmp_path):
    """``stages/shuffle.exchange`` holds the package's only bucket
    ``groupby().map_groups`` and ``functions/hashing.row_hash`` its only
    pandas row hash (one call of each), so every bucket exchange groups
    on a bucket that one NUL-safe hash assigned.  The pin itself flags
    each bypass shape first."""
    src = tmp_path / "m.py"
    src.write_text(
        "from medical_knowledge_graph_ray.stages.shuffle import BUCKET_COL\n"
        "def f(ds):\n"
        "    return ds.groupby('b').map_groups(g)\n"
        "h = pd.util.hash_pandas_object(df)\n"
        "from pandas.core.util.hashing import hash_array\n"
        "def docs_ngram_jaccard(ds):\n"
        "    return ds.groupby('source').map_groups(g)\n")
    assert [h.split(":")[0] for h in _exchange_bypasses(src, "m.py")] == [
        "1", "3", "4", "5", "7"]

    files = sorted((ROOT / "medical_knowledge_graph_ray").rglob("*.py"))
    files.append(ROOT / "__ray_entry__.py")
    found, calls = [], {"map_groups": [], "hash_pandas_object": []}
    for f in files:
        rel = str(f.relative_to(ROOT))
        found += [f"{rel}:{hit}" for hit in _exchange_bypasses(f, rel)]
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in calls:
                calls[node.func.attr].append(rel)
    assert not found, found
    assert calls == {
        "map_groups": ["medical_knowledge_graph_ray/pipelines/docs.py",
                       "medical_knowledge_graph_ray/stages/shuffle.py"],
        "hash_pandas_object": ["medical_knowledge_graph_ray/functions/hashing.py"],
    }, calls
