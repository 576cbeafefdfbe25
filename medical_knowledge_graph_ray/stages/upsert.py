"""Keyed upsert table — mutable state on immutable Parquet.

The Delta/Hudi-style primitive the rest of the engine's sinks don't
need but a production pipeline does: a table addressed by a unique key
that absorbs UPSERT batches (and deletions) without rewriting the whole
table.  This is the "shared mutable index" case: Ray Data has no
mutable dataset, so mutability lives in the STORAGE LAYOUT —

* rows live in ``N_UPSERT_BUCKETS`` files bucketed by the md5 of the
  key (the same stable bucketing the search index and shard sinks use),
  so a key's row is always in exactly one known file;
* an upsert batch buckets its rows the same way, and ONLY the touched
  buckets are rewritten — one Ray task per touched bucket merges
  old + new vectorized (updates win; within a batch the LAST row per
  key wins, matching SQL ``MERGE`` semantics for ordered sources);
* writes are temp+rename with a version-stamped manifest carrying the
  md5 fingerprint of the applied batch — RE-applying the same batch is
  a manifest-keyed no-op, so a crashed-and-retried apply is idempotent.

Reads are plain ``read_parquet`` over the directory (plus key-pruned
point lookups via the bucket function).
"""

from __future__ import annotations
from medical_knowledge_graph_ray.functions.arrow import read_parquet_clean

import json
import os

import numpy as np
import pandas as pd

N_UPSERT_BUCKETS = 32
APPLIED_FP_WINDOW = 256  # retries land close to the original apply


def _bucket_of(keys) -> np.ndarray:
    from ..functions.hashing import stable_bucket_vec

    return stable_bucket_vec(
        np.asarray(keys).astype(str), N_UPSERT_BUCKETS
    ).astype("int64")


def _manifest_path(table_dir: str) -> str:
    return os.path.join(table_dir, "_MANIFEST.json")


def _bucket_file(table_dir: str, b: int) -> str:
    return os.path.join(table_dir, f"bucket={b:04d}.parquet")


def _history_dir(table_dir: str) -> str:
    return os.path.join(table_dir, "_history")


def _snapshot_bucket(table_dir: str, b: int, old_version: int) -> None:
    """Preserve bucket ``b``'s pre-merge state as the version-stamped
    snapshot ``bucket=BBBB.vVVVVV.parquet`` (a HARD LINK — zero copy;
    Parquet files are immutable once written, the merge replaces the
    directory entry, never the bytes).  An absent bucket snapshots as an
    ``.absent`` marker so time travel can tell "empty then" from
    "untouched since"."""
    hd = _history_dir(table_dir)
    os.makedirs(hd, exist_ok=True)
    live = _bucket_file(table_dir, b)
    if os.path.exists(live):
        dst = os.path.join(hd, f"bucket={b:04d}.v{old_version:05d}.parquet")
        if not os.path.exists(dst):
            os.link(live, dst)
    else:
        dst = os.path.join(hd, f"bucket={b:04d}.v{old_version:05d}.absent")
        if not os.path.exists(dst):
            open(dst, "w").close()


def init_keyed_table(table_dir: str, key: str) -> dict:
    """Create an empty keyed table (directory + manifest)."""
    os.makedirs(table_dir, exist_ok=True)
    m = {"key": key, "version": 0, "applied": [], "rows": 0,
         "buckets": N_UPSERT_BUCKETS}
    with open(_manifest_path(table_dir), "w") as fh:
        json.dump(m, fh, indent=1)
    return m


def upsert(
    table_dir: str, batch: pd.DataFrame, *, delete_keys: list | None = None
) -> dict:
    """Apply one upsert batch (+ optional deletions) atomically-enough:
    only touched buckets rewrite; same-batch re-application is a no-op.

    Within ``batch``, the LAST row per key wins (ordered-source MERGE
    semantics).  Returns the updated manifest."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from ..functions.hashing import row_hash

    with open(_manifest_path(table_dir)) as fh:
        m = json.load(fh)
    key = m["key"]
    delete_keys = list(delete_keys or [])

    # fingerprint covers column names + dtypes, not just row values —
    # identical values under renamed/retyped columns must NOT be skipped
    schema_sig = json.dumps([[c, str(batch.dtypes[c])] for c in batch.columns])
    fp = hashlib.md5(
        schema_sig.encode()
        + row_hash(batch).tobytes()
        + json.dumps(sorted(map(str, delete_keys))).encode()
    ).hexdigest()
    if fp in m["applied"]:
        return m  # idempotent re-apply

    # last-row-per-key wins within the batch
    batch = batch.drop_duplicates(subset=[key], keep="last")
    batch = batch[~batch[key].isin(delete_keys)]
    up_bucket = _bucket_of(batch[key])
    del_bucket = _bucket_of(delete_keys) if delete_keys else np.array([], "int64")
    touched = sorted(set(up_bucket.tolist()) | set(del_bucket.tolist()))

    batch_ref = ray.put((batch, up_bucket, set(map(str, delete_keys))))

    old_version = m["version"]

    @ray.remote
    def merge_bucket(b: int) -> tuple[int, int]:
        up, ub, dels = ray.get(batch_ref)
        new = up[ub == b]
        path = _bucket_file(table_dir, b)
        _snapshot_bucket(table_dir, b, old_version)
        old_t = None
        if os.path.exists(path):
            old_t = pq.read_table(path)
            old = old_t.to_pandas()
            old = old[~old[key].astype(str).isin(dels)]
            old = old[~old[key].isin(new[key])]
            merged = pd.concat([old, new], ignore_index=True)
        else:
            merged = new
        if not len(merged) and old_t is None:
            return b, 0  # delete-only touch of a bucket that never existed
        merged = merged.sort_values(key, kind="mergesort").reset_index(drop=True)
        if not len(merged):
            # empty pandas object columns infer as Arrow NULL type —
            # write the bucket's TRUE (pre-delete) schema instead, or a
            # later key-pruned lookup fails to bind its string filter
            out_t = old_t.schema.remove_metadata().empty_table()
        else:
            out_t = pa.Table.from_pandas(
                merged, preserve_index=False).replace_schema_metadata(None)
        tmp = path + ".tmp"
        pq.write_table(out_t, tmp)
        os.replace(tmp, path)
        return b, len(merged)

    results = ray.get([merge_bucket.remote(b) for b in touched])

    # refresh row census: touched buckets from the merge, others from the
    # (cheap) parquet metadata
    rows = 0
    merged_rows = dict(results)
    for b in range(N_UPSERT_BUCKETS):
        if b in merged_rows:
            rows += merged_rows[b]
        elif os.path.exists(_bucket_file(table_dir, b)):
            rows += pq.read_metadata(_bucket_file(table_dir, b)).num_rows
    m["version"] += 1
    # keep the applied-fingerprint window bounded: idempotency only needs
    # to catch retries of RECENT batches, not the table's full history
    m["applied"] = (m["applied"] + [fp])[-APPLIED_FP_WINDOW:]
    m["rows"] = int(rows)
    with open(_manifest_path(table_dir), "w") as fh:
        json.dump(m, fh, indent=1)
    return m


def read_keyed_table(table_dir: str, version: int | None = None):
    """Full-table Dataset; ``version=`` TIME-TRAVELS to the table as of
    that manifest version (Delta/Iceberg-style snapshot read): a bucket's
    state at V is its OLDEST history snapshot with version ≥ V (each
    merge at version T snapshots the pre-merge file as v(T−1)), falling
    back to the live file when no later touch exists.  Vacuumed-away
    versions refuse loudly instead of answering wrong."""
    import ray.data as rd

    if version is None:
        files = [
            os.path.join(table_dir, f)
            for f in sorted(os.listdir(table_dir))
            if f.endswith(".parquet")
        ]
        if not files:
            return rd.from_items([])
        return read_parquet_clean(files)

    with open(_manifest_path(table_dir)) as fh:
        m = json.load(fh)
    if version > m["version"] or version < 0:
        raise ValueError(f"version {version} out of range 0..{m['version']}")
    if version < m.get("history_min", 0):
        raise ValueError(
            f"version {version} vacuumed away (history_min="
            f"{m.get('history_min', 0)})")
    hd = _history_dir(table_dir)
    snaps: dict[int, list[tuple[int, str]]] = {}
    if os.path.isdir(hd):
        for f in os.listdir(hd):
            stem = f.split(".")
            b = int(stem[0].split("=")[1])
            v = int(stem[1][1:])
            snaps.setdefault(b, []).append((v, os.path.join(hd, f)))
    files = []
    for b in range(m["buckets"]):
        later = sorted(v_p for v_p in snaps.get(b, []) if v_p[0] >= version)
        if later:
            path = later[0][1]
            if path.endswith(".parquet"):
                files.append(path)
            # .absent marker: the bucket was empty at this version
        elif os.path.exists(_bucket_file(table_dir, b)):
            files.append(_bucket_file(table_dir, b))
    if not files:
        return rd.from_items([])
    return read_parquet_clean(files)


def vacuum(table_dir: str, keep_versions: int) -> dict:
    """Drop history snapshots older than ``current − keep_versions``;
    time travel below the new floor refuses (recorded as
    ``history_min``)."""
    with open(_manifest_path(table_dir)) as fh:
        m = json.load(fh)
    floor = max(0, m["version"] - keep_versions)
    hd = _history_dir(table_dir)
    if os.path.isdir(hd):
        for f in list(os.listdir(hd)):
            if int(f.split(".")[1][1:]) < floor:
                os.remove(os.path.join(hd, f))
    m["history_min"] = floor
    with open(_manifest_path(table_dir), "w") as fh:
        json.dump(m, fh, indent=1)
    return m


def lookup(table_dir: str, keys: list) -> pd.DataFrame:
    """Key-pruned point lookup: reads ONLY the buckets the keys hash to,
    with the key filter pushed into the (key-sorted) files."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    with open(_manifest_path(table_dir)) as fh:
        key = json.load(fh)["key"]
    out = []
    for b in sorted(set(_bucket_of(keys).tolist())):
        path = _bucket_file(table_dir, b)
        if not os.path.exists(path):
            continue
        t = pq.read_table(path, filters=pc.field(key).isin(keys))
        if t.num_rows:
            out.append(t.to_pandas())
    if not out:
        return pd.DataFrame()
    return pd.concat(out, ignore_index=True).sort_values(key).reset_index(drop=True)
