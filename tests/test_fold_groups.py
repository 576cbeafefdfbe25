"""``stages/shuffle.fold_groups``: the driver-side census fold, pinned
against a plain Python dict fold of the same partials and against Ray's
sort-based ``groupby().aggregate()`` where the two agree (no NULs), plus
the source rule that no collected census goes through Ray's exchange."""

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
                    cur[c] = cur[c] + v if f == "sum" else max(cur[c], v)
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


AGGS = [("v", "sum"), ("f", "sum"), ("f_max", "max")]


def _with_max(t: pa.Table) -> pa.Table:
    return t.append_column("f_max", t["f"])


def test_fold_groups_matches_dict_fold_and_ray(ray_session):
    """Same keys spread over several blocks, an int32 key widened to
    int64, int64/float64 sums and a max: the fold equals the dict fold
    and, with its dtypes, Ray's sort-based aggregate."""
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from medical_knowledge_graph_ray.stages.shuffle import fold_groups

    blocks = [_with_max(t) for t in _blocks(7)]
    ds = rd.from_arrow(blocks)
    for keys in (["k32"], ["s", "k32"]):
        got = fold_groups(ds, keys, AGGS)
        assert got["k32"].dtype == np.int64
        assert list(got.columns) == keys + [c for c, _ in AGGS]
        want = _dict_fold(blocks, keys, AGGS)
        assert _as_dict(got, keys, AGGS) == want
        ray_df = ds.groupby(keys).aggregate(
            Sum("v", alias_name="v"), Sum("f", alias_name="f"),
            Max("f_max", alias_name="f_max")).to_pandas()
        pd.testing.assert_frame_equal(got, ray_df, check_exact=True)


def test_fold_groups_keeps_nul_keys_apart_and_null_keys(ray_session):
    """Keys that differ only after a NUL stay two groups; a null key is
    its own group, sorted last."""
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.shuffle import fold_groups

    blocks = [
        pa.table({"k": ["x\x00a", "x\x00b", None], "n": pa.array([1, 2, 3])}),
        pa.table({"k": ["x\x00b", None, "x\x00a"], "n": pa.array([10, 20, 30])}),
    ]
    got = fold_groups(rd.from_arrow(blocks), ["k"], [("n", "sum")])
    assert got["k"].tolist() == ["x\x00a", "x\x00b", None]
    assert got["n"].tolist() == [31, 12, 23]
    assert _as_dict(got, ["k"], [("n", "sum")]) == _dict_fold(
        blocks, ["k"], [("n", "sum")])


def test_fold_groups_empty_dataset_gives_typed_frame(ray_session):
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.shuffle import fold_groups

    empty = _with_max(_blocks(1)[0]).slice(0, 0)
    got = fold_groups(rd.from_arrow(empty), ["s", "k32"], AGGS)
    assert len(got) == 0
    assert list(got.columns) == ["s", "k32", "v", "f", "f_max"]
    assert dict(got.dtypes.astype(str)) == {
        "s": "object", "k32": "int64", "v": "int64", "f": "float64",
        "f_max": "float64"}


def _collected_sort_aggregates(path: pathlib.Path) -> list[int]:
    """Lines where a ``groupby(...).aggregate(...)`` result reaches
    ``.to_pandas()`` through a chain of method calls."""
    tree = ast.parse(path.read_text())
    parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "aggregate"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "groupby"):
            continue
        cur = node
        while isinstance(parents.get(cur), ast.Attribute):
            attr = parents[cur]
            if attr.attr == "to_pandas":
                hits.append(node.lineno)
                break
            call = parents.get(attr)
            if not (isinstance(call, ast.Call) and call.func is attr):
                break
            cur = call
    return hits


@pytest.mark.parametrize("rel", ["medical_knowledge_graph_ray", "__ray_entry__.py"])
def test_no_collected_census_goes_through_an_exchange(rel):
    """A census whose result comes to the driver folds there with
    ``fold_groups``; Ray's sort-based aggregate is for results that stay
    a Dataset."""
    root = ROOT / rel
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    found = [f"{f.relative_to(ROOT)}:{line}"
             for f in files for line in _collected_sort_aggregates(f)]
    assert not found, found
