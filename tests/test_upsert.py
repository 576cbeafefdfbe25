"""Keyed upsert table gates: MERGE semantics vs pandas reference,
idempotent re-apply, deletes, touched-bucket-only rewrites, pruned
lookups."""

import os
import sys

import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, "/root/repo")


def _df(rows):
    return pd.DataFrame(rows, columns=["k", "v"]).astype({"k": "int64", "v": "str"})


@pytest.fixture()
def table(ray_session, tmp_path):
    from medical_knowledge_graph_ray.stages.upsert import init_keyed_table

    d = str(tmp_path / "t")
    init_keyed_table(d, "k")
    return d


def test_upsert_merge_semantics_match_pandas(table):
    from medical_knowledge_graph_ray.stages.upsert import (
        read_keyed_table, upsert,
    )

    base = _df([(i, f"v{i}") for i in range(200)])
    upsert(table, base)
    # overwrite some, insert some, and within-batch last-row-wins
    b2 = _df([(5, "old5"), (5, "new5"), (7, "new7"), (500, "v500")])
    upsert(table, b2)

    ref = base.set_index("k")
    for k, v in [(5, "new5"), (7, "new7"), (500, "v500")]:
        ref.loc[k] = v
    want = ref.sort_index().reset_index()

    got = (
        read_keyed_table(table).to_pandas()
        .sort_values("k").reset_index(drop=True)[["k", "v"]]
    )
    pd.testing.assert_frame_equal(got, want.astype({"k": "int64", "v": "str"}))


def test_upsert_idempotent_and_deletes(table):
    from medical_knowledge_graph_ray.stages.upsert import (
        lookup, read_keyed_table, upsert,
    )

    upsert(table, _df([(1, "a"), (2, "b"), (3, "c")]))
    m1 = upsert(table, _df([(2, "B")]), delete_keys=[3])
    m2 = upsert(table, _df([(2, "B")]), delete_keys=[3])  # same batch again
    assert m2["version"] == m1["version"]  # no-op re-apply
    got = read_keyed_table(table).to_pandas().sort_values("k")
    assert got["k"].tolist() == [1, 2]
    assert got.loc[got["k"] == 2, "v"].iloc[0] == "B"
    hit = lookup(table, [2, 3, 99])
    assert hit["k"].tolist() == [2] and hit["v"].tolist() == ["B"]


def test_upsert_reapply_check_tells_nul_batches_apart(table):
    """A batch whose strings differ from an applied batch's only after a
    NUL is new data, not an idempotent re-apply: the second upsert lands
    and row 2 takes its value."""
    from medical_knowledge_graph_ray.stages.upsert import (
        read_keyed_table, upsert,
    )

    m1 = upsert(table, _df([(1, "x\x00a"), (2, "x\x00b")]))
    m2 = upsert(table, _df([(1, "x\x00a"), (2, "x\x00a")]))
    assert m2["version"] == m1["version"] + 1
    got = read_keyed_table(table).to_pandas().sort_values("k")
    assert got["v"].tolist() == ["x\x00a", "x\x00a"]


def test_upsert_rewrites_only_touched_buckets(table):
    from medical_knowledge_graph_ray.stages.upsert import (
        _bucket_of, _bucket_file, upsert,
    )

    upsert(table, _df([(i, f"v{i}") for i in range(300)]))
    mtimes = {
        f: os.path.getmtime(os.path.join(table, f))
        for f in os.listdir(table) if f.endswith(".parquet")
    }
    touched_bucket = int(_bucket_of([7])[0])
    upsert(table, _df([(7, "NEW")]))
    for f, t0 in mtimes.items():
        t1 = os.path.getmtime(os.path.join(table, f))
        if f == os.path.basename(_bucket_file(table, touched_bucket)):
            assert t1 >= t0
        else:
            assert t1 == t0, f"untouched bucket {f} was rewritten"


def test_time_travel_and_vacuum(ray_session, tmp_path):
    """Snapshot reads reproduce every historical version exactly
    (including deletions and bucket-created-later cases); vacuum keeps
    the recent window serving and refuses older versions loudly."""
    import pytest

    from medical_knowledge_graph_ray.stages.upsert import (
        init_keyed_table,
        read_keyed_table,
        upsert,
        vacuum,
    )

    table = str(tmp_path / "tt")
    init_keyed_table(table, "k")

    def snap():
        out = read_keyed_table(table).to_pandas()
        if "k" not in out.columns:
            return pd.DataFrame({"k": [], "v": []}).astype(
                {"k": "object", "v": "int64"})
        return out.sort_values("k").reset_index(drop=True)

    states = {0: snap()}
    upsert(table, pd.DataFrame({"k": [f"a{i}" for i in range(40)],
                                "v": list(range(40))}))
    states[1] = snap()
    upsert(table, pd.DataFrame({"k": [f"a{i}" for i in range(20)]
                                + [f"b{i}" for i in range(30)],
                                "v": [100 + i for i in range(50)]}))
    states[2] = snap()
    upsert(table, pd.DataFrame({"k": ["b0"], "v": [999]}),
           delete_keys=[f"a{i}" for i in range(10)])
    states[3] = snap()

    for v, want in states.items():
        got = read_keyed_table(table, version=v).to_pandas()
        if "k" not in got.columns:
            got = want.iloc[:0]
        got = got.sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    with pytest.raises(ValueError):
        read_keyed_table(table, version=7)

    vacuum(table, keep_versions=2)
    for v in (1, 2, 3):
        got = (read_keyed_table(table, version=v).to_pandas()
               .sort_values("k").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, states[v], check_dtype=False)
    with pytest.raises(ValueError):
        read_keyed_table(table, version=0)


# -- streaming micro-batch aggregation ----------------------------------------


def _mk_partials(rows):
    import pandas as pd
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame(rows))


def test_microbatch_exactly_once_and_resume(ray_session, tmp_path):
    import pandas as pd

    from medical_knowledge_graph_ray.stages.streaming import (
        init_stream_table, microbatch_aggregate, stream_state,
    )

    d = str(tmp_path / "state")
    init_stream_table(d, "_k")
    c1 = [{"k": "a", "n": 2}, {"k": "b", "n": 1}]
    c2 = [{"k": "a", "n": 3}, {"k": "c", "n": 5}]

    microbatch_aggregate(d, "c1", _mk_partials(c1), ["k"], ["n"])
    # re-apply the SAME chunk: structural no-op (exactly-once)
    microbatch_aggregate(d, "c1", _mk_partials(c1), ["k"], ["n"])
    # "crash" here, then the restarted loop replays c1 AND applies c2
    microbatch_aggregate(d, "c1", _mk_partials(c1), ["k"], ["n"])
    microbatch_aggregate(d, "c2", _mk_partials(c2), ["k"], ["n"])

    got = (stream_state(d).to_pandas()
           .sort_values("k").reset_index(drop=True))
    want = pd.DataFrame({"k": ["a", "b", "c"], "n": [5, 1, 5]})
    assert got["k"].tolist() == want["k"].tolist()
    assert got["n"].tolist() == want["n"].tolist()


def test_streaming_tumbling_chunking_invariance(ray_session, tmp_path):
    from medical_knowledge_graph_ray.pipelines.events import (
        events_streaming_tumbling, events_tumbling,
    )

    sf = "/root/testdata/sf0.001"
    batch = (events_tumbling(sf).to_pandas()
             .sort_values(["event_type", "window_start"])
             .reset_index(drop=True))
    for n_chunks in (2, 4):
        got = (events_streaming_tumbling(
                   sf, n_chunks=n_chunks,
                   state_dir=str(tmp_path / f"s{n_chunks}"))
               .to_pandas()
               .sort_values(["event_type", "window_start"])
               .reset_index(drop=True))
        assert got[["event_type", "n", "sum_value"]].equals(
            batch[["event_type", "n", "sum_value"]])
        assert (got["window_start"].to_numpy()
                == batch["window_start"].to_numpy()).all()


def test_streaming_resume_from_partial_run(ray_session, tmp_path):
    """Apply half the chunks, 'crash', re-run the FULL loop on the same
    state dir — result equals the batch aggregate (no double counts)."""
    from medical_knowledge_graph_ray.pipelines.events import (
        events_streaming_tumbling, events_tumbling,
    )
    from medical_knowledge_graph_ray.pipelines.events import _events
    from medical_knowledge_graph_ray.stages.streaming import (
        init_stream_table, microbatch_aggregate,
    )
    from medical_knowledge_graph_ray.stages.windows import (
        tumbling_partial_batch,
    )
    from medical_knowledge_graph_ray.functions.arrow import arrow_out
    import pandas as pd

    sf = "/root/testdata/sf0.001"
    d = str(tmp_path / "resume")
    init_stream_table(d, "_k")
    ev = _events(sf, ["event_id", "event_type", "ts", "value"])
    for i in range(2):  # partial run: chunks 0 and 1 of 4
        def pick(b: pd.DataFrame, i=i) -> pd.DataFrame:
            return b[b["event_id"] % 4 == i]

        partials = ev.map_batches(
            arrow_out(pick), batch_format="pandas"
        ).map_batches(arrow_out(tumbling_partial_batch),
                      batch_format="pandas")
        microbatch_aggregate(d, f"chunk-{i}", partials,
                             ["event_type", "window_start"],
                             ["n", "sum_value_c"])
    # restart: the full query replays all 4 chunk ids on the same dir
    got = (events_streaming_tumbling(sf, n_chunks=4, state_dir=d)
           .to_pandas().sort_values(["event_type", "window_start"])
           .reset_index(drop=True))
    batch = (events_tumbling(sf).to_pandas()
             .sort_values(["event_type", "window_start"])
             .reset_index(drop=True))
    assert got[["event_type", "n", "sum_value"]].equals(
        batch[["event_type", "n", "sum_value"]])


def test_arrival_chunks_scan_input_once(ray_session, tmp_path):
    """Source-chunked micro-batching: a multi-file input is chunked by
    per-chunk FILE LISTS that exactly partition the fragment set (each
    fragment read by one chunk — total scan 1×); a single-file input is
    landed once into per-chunk files whose union is exactly the input.
    Either way the chunk union equals the source, disjointly."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from medical_knowledge_graph_ray.stages.streaming import arrival_chunks

    # multi-file directory: file-list mode
    src = tmp_path / "frags"
    src.mkdir()
    for j in range(6):
        pq.write_table(pa.table({
            "k": pa.array(np.arange(j * 10, j * 10 + 10), pa.int64()),
            "v": pa.array(np.full(10, j), pa.int64())}),
            str(src / f"f{j}.parquet"))
    chunks = arrival_chunks(str(src), 3, columns=["k", "v"])
    assert len(chunks) == 3
    seen = []
    for c in chunks:
        files = {os.path.basename(p) for p in c.input_files()}
        seen.append(files)
    # the chunk file lists PARTITION the fragment set
    all_files = set().union(*seen)
    assert all_files == {f"f{j}.parquet" for j in range(6)}
    assert sum(len(s) for s in seen) == 6  # disjoint — each read once
    union = pd.concat([c.to_pandas() for c in chunks]).sort_values("k")
    assert union["k"].tolist() == list(range(60))

    # single-file input: one-scan landing split, union == input
    one = tmp_path / "one.parquet"
    pq.write_table(pa.table({
        "k": pa.array(np.arange(100), pa.int64()),
        "v": pa.array(np.arange(100) * 2, pa.int64())}), str(one))
    land = str(tmp_path / "land")
    chunks = arrival_chunks(str(one), 4, columns=["k", "v"],
                            land_dir=land, key_col="k")
    parts = [c.to_pandas() for c in chunks]
    for i, p in enumerate(parts):
        assert (p["k"].to_numpy() % 4 == i).all()  # routed by key
    union = pd.concat(parts).sort_values("k").reset_index(drop=True)
    assert union["k"].tolist() == list(range(100))
    # every landed file belongs to exactly one chunk directory
    landed = glob.glob(os.path.join(land, "chunk=*", "*.parquet"))
    assert len(landed) >= 4


def test_arrival_chunks_landing_is_crash_idempotent(ray_session, tmp_path):
    """A crashed landing leaves parts cut at other batch boundaries,
    under other names; landing again clears them, so the chunks hold the
    input row for row, with no row twice."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from medical_knowledge_graph_ray.stages.streaming import arrival_chunks

    one = tmp_path / "one.parquet"
    src = pa.table({"k": pa.array(np.arange(100), pa.int64()),
                    "s": pa.array([f"x\x00{i % 7}" for i in range(100)])})
    pq.write_table(src, str(one))
    land = tmp_path / "land"
    (land / "chunk=0").mkdir(parents=True)
    stale = src.filter(pa.array(np.arange(100) % 4 == 0)).slice(0, 5)
    pq.write_table(stale, str(land / "chunk=0" / "part-0123456789abcdef.parquet"))
    chunks = arrival_chunks(str(one), 4, columns=["k", "s"],
                            land_dir=str(land), key_col="k")
    union = pd.concat([c.to_pandas() for c in chunks]).sort_values("k")
    pd.testing.assert_frame_equal(union.reset_index(drop=True), src.to_pandas())


def test_bilateral_ivm_pending_claims_and_exactly_once(ray_session, tmp_path):
    """Bilateral streaming join: the final view equals the batch join
    aggregate, the pending state was genuinely USED (touched by
    upserts) and fully CLAIMED (empty at end), every order is
    registered, and re-running on the same state is a no-op."""
    import json

    from medical_knowledge_graph_ray.pipelines.relational import (
        nation_rev_ivm, nation_rev_ivm_bilateral,
    )

    sf = "/root/testdata/sf0.001"
    d = str(tmp_path / "s")
    got = nation_rev_ivm_bilateral(sf, state_dir=d)
    batch = nation_rev_ivm(sf, state_dir=str(tmp_path / "u"))
    pd.testing.assert_frame_equal(got, batch)

    with open(os.path.join(d, "pending", "_MANIFEST.json")) as fh:
        pend = json.load(fh)
    assert pend["version"] > 0        # lineitem really arrived early
    assert pend["rows"] == 0          # ...and every row was claimed
    with open(os.path.join(d, "order_nation", "_MANIFEST.json")) as fh:
        on = json.load(fh)
    assert on["rows"] == 1500         # every order registered (sf0.001)

    again = nation_rev_ivm_bilateral(sf, state_dir=d)  # ledger no-op
    pd.testing.assert_frame_equal(got, again)
