"""Checkpointed stage outputs + per-partition lineage manifests.

The reference's de-facto checkpoint mechanism is "each script writes
JSON/CSV, the next script re-reads" (SURVEY §3.3) with no partial-stage
resume.  This engine formalizes it (north_rule resumability requirement):

* a stage output is a **directory of Parquet part files** written via a
  temp-dir + atomic rename, never a single giant file;
* a ``_MANIFEST.json`` records the stage name, config fingerprint, total
  rows and a per-file (partition) row-count + byte-size lineage table,
  read back from the Parquet footers (no extra data pass);
* resume = ``stage_complete()`` → skip the stage and ``read_stage()`` the
  checkpoint instead of recomputing.
"""

from __future__ import annotations
from medical_knowledge_graph_ray.functions.arrow import read_parquet_clean

import json
import os
import shutil

MANIFEST = "_MANIFEST.json"


def stage_complete(out_dir: str, fingerprint: str | None = None) -> bool:
    """True iff a finished checkpoint exists (and matches fingerprint)."""
    path = os.path.join(out_dir, MANIFEST)
    if not os.path.exists(path):
        return False
    if fingerprint is None:
        return True
    try:
        with open(path) as f:
            return json.load(f).get("fingerprint") == fingerprint
    except (json.JSONDecodeError, OSError):
        return False


def read_manifest(out_dir: str) -> dict:
    """The ``_MANIFEST.json`` of a stage directory."""
    with open(os.path.join(out_dir, MANIFEST)) as f:
        return json.load(f)


def write_manifest(out_dir: str, stage: str, fingerprint: str, **extra) -> dict:
    """Write ``out_dir``'s lineage manifest from its part files' Parquet
    footers (rows, bytes, row groups per file — no data pass); ``extra``
    keys follow the standard ones.  Returns the manifest dict."""
    import pyarrow.parquet as pq

    partitions = []
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".parquet"):
            continue
        fpath = os.path.join(out_dir, name)
        meta = pq.read_metadata(fpath)
        partitions.append(
            {
                "file": name,
                "rows": meta.num_rows,
                "bytes": os.path.getsize(fpath),
                "row_groups": meta.num_row_groups,
            }
        )
    manifest = {
        "stage": stage,
        "fingerprint": fingerprint,
        "rows": sum(p["rows"] for p in partitions),
        "num_partitions": len(partitions),
        "partitions": partitions,
        **extra,
    }
    with open(os.path.join(out_dir, MANIFEST), "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest


def write_stage(
    ds, out_dir: str, stage: str, fingerprint: str = "", *, force: bool = False
) -> dict:
    """Write ``ds`` as a checkpointed Parquet stage with lineage manifest.

    Returns the manifest dict.  Idempotent: a complete checkpoint with the
    same fingerprint is left untouched unless ``force`` is set.
    """
    if not force and stage_complete(out_dir, fingerprint or None):
        return read_manifest(out_dir)

    tmp = out_dir.rstrip("/") + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    # Concurrent write_parquet calls race on fsspec's http module import
    # (ray's _is_http_filesystem catches ModuleNotFoundError but a thread
    # importing a partially-initialized module gets a bare ImportError;
    # failed imports are never cached, so every call re-races).  The race
    # hits before any data is written — retry with backoff is safe.
    import time as _time

    for attempt in range(3):
        try:
            ds.write_parquet(tmp)
            break
        except ImportError:
            if attempt == 2:
                raise
            _time.sleep(0.2 * (attempt + 1))

    manifest = write_manifest(tmp, stage, fingerprint)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    return manifest


def read_stage(out_dir: str, columns: list[str] | None = None):
    """Re-open a checkpointed stage as a Dataset (resume path).

    Walks shard subdirectories (``shard_NNNN/``) as well as flat stage
    directories.
    """
    import ray.data as rd

    files = []
    for root, _dirs, names in sorted(os.walk(out_dir)):
        for n in sorted(names):
            if n.endswith(".parquet"):
                files.append(os.path.join(root, n))
    return read_parquet_clean(files, columns=columns)


def audit_stage(out_dir: str) -> dict:
    """Audit one checkpointed stage directory against its manifest(s).

    north_rule: "any partition can be resumed AND AUDITED" — this is the
    audit half.  Verifies, for every manifest (flat stage or per-shard):

    * each listed partition file exists, matches its recorded byte size,
      and its Parquet footer row count matches the manifest;
    * no ORPHAN parquet files exist beside the manifest (a partial write
      or foreign layout would silently inflate a directory read);
    * the manifest's total equals the sum of its partitions.

    Returns ``{"stage_dir", "ok", "manifests_checked", "rows", "issues"}``
    where ``issues`` is a list of human-readable findings (empty = clean).
    Footer reads are metadata-only — no data pass.
    """
    import pyarrow.parquet as pq

    issues: list[str] = []
    manifests_checked = 0
    total_rows = 0

    manifest_dirs = []
    if os.path.exists(os.path.join(out_dir, MANIFEST)):
        manifest_dirs.append(out_dir)
    for name in sorted(os.listdir(out_dir)):
        sub = os.path.join(out_dir, name)
        if os.path.isdir(sub) and os.path.exists(os.path.join(sub, MANIFEST)):
            manifest_dirs.append(sub)
    if not manifest_dirs:
        return {
            "stage_dir": out_dir, "ok": False, "manifests_checked": 0,
            "rows": 0, "issues": [f"no {MANIFEST} found under {out_dir}"],
        }

    # EVERY parquet under the stage must be governed by some manifest —
    # read_stage walks all of them, so a manifest-less shard dir (crash
    # between replace and manifest write) or a stray top-level file would
    # silently inflate a directory read
    manifest_set = set(manifest_dirs)
    for root, _dirs, names in os.walk(out_dir):
        if root in manifest_set:
            continue
        for name in sorted(names):
            if name.endswith(".parquet"):
                issues.append(
                    f"{root}: parquet file {name} not governed by any manifest"
                )

    for mdir in manifest_dirs:
        m = read_manifest(mdir)
        manifests_checked += 1
        listed = set()
        part_sum = 0
        for p in m.get("partitions", []):
            listed.add(p["file"])
            part_sum += p["rows"]
            fpath = os.path.join(mdir, p["file"])
            if not os.path.exists(fpath):
                issues.append(f"{mdir}: missing partition {p['file']}")
                continue
            size = os.path.getsize(fpath)
            if size != p["bytes"]:
                issues.append(
                    f"{mdir}/{p['file']}: size {size} != manifest {p['bytes']}"
                )
            try:
                rows = pq.read_metadata(fpath).num_rows
            except Exception as exc:
                issues.append(f"{mdir}/{p['file']}: unreadable footer ({exc})")
                continue
            if rows != p["rows"]:
                issues.append(
                    f"{mdir}/{p['file']}: rows {rows} != manifest {p['rows']}"
                )
        if m.get("rows") != part_sum:
            issues.append(
                f"{mdir}: manifest total {m.get('rows')} != partition sum {part_sum}"
            )
        total_rows += m.get("rows", 0)
        for name in sorted(os.listdir(mdir)):
            if name.endswith(".parquet") and name not in listed:
                issues.append(f"{mdir}: ORPHAN parquet file {name}")

    return {
        "stage_dir": out_dir,
        "ok": not issues,
        "manifests_checked": manifests_checked,
        "rows": total_rows,
        "issues": issues,
    }


def audit_run(out_root: str) -> dict:
    """Audit every stage under a run_kg output root."""
    stages = {}
    for name in sorted(os.listdir(out_root)):
        d = os.path.join(out_root, name)
        if os.path.isdir(d):
            stages[name] = audit_stage(d)
    return {
        "out_root": out_root,
        "ok": all(s["ok"] for s in stages.values()) and bool(stages),
        "stages": stages,
    }
