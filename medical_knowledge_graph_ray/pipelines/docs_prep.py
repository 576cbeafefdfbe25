"""End-to-end LLM training-data prep flagship (documents table analogue
of `pipelines/kg.py:run_kg`): curate → decontaminate → split → pack →
checkpointed Parquet stages with lineage manifests.

Composes the individually-oracled operators into the pipeline a user
would actually run over a raw 100-TB crawl:

1. **kept** — language/quality gates → SimHash near-dup components →
   cluster canonicals (`docs.docs_curation_neardup`), minus every doc
   the benchmark-overlap decontaminator flags; split assigned by
   vectorized content hash (train/val/test, stable under corpus growth).
2. **packs** — best-fit-decreasing sequence packing of the kept docs
   into fixed token budgets (`docs.pack_bucket`, deterministic at any
   parallelism via content-hash pack groups).
3. **stats** — the bounded per-split summary (docs, packs, tokens,
   fill rate, oversize count).

Each stage is a `state/manifests.py:write_stage` checkpoint: re-running
with the same fingerprint skips completed stages (resume after failure
costs only the unfinished stages), and `audit_run` validates the output
tree.  Scale notes: the contaminated-id set is collected driver-side and
shipped once via ``ray.put`` — a bounded artifact at the testdata's hit
rate; at a scale where contamination ids outgrow worker memory, swap the
isin filter for `stages/bloom.py:bloom_semi_join` in anti mode (the
engine's documented substitute for oversized key sets).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.arrow import arrow_out, read_parquet_clean
from ..functions.hashing import md5_int_vec_prefixed
from ..stages.shuffle import bucketed_group_map, fold_groups
from ..state.manifests import write_stage

PREP_VERSION = "docs_prep_v1"
DECONTAM_MAX_HITS = 0  # any benchmark n-gram overlap disqualifies


def _split_of_ids(doc_ids: np.ndarray) -> np.ndarray:
    """Vectorized content-stable split (same value contract as the
    oracled `docs.docs_split`: md5_32('split|'||id), 1/80 val, 1/90
    test)."""
    h = md5_int_vec_prefixed("split", doc_ids, bits=32)
    return np.where(
        h % 80 == 0, "val", np.where(h % 90 == 0, "test", "train")
    )


def run_docs_prep(
    sf_dir: str, out_root: str, *, resume: bool = True,
    pack_groups: int = 64,
) -> dict:
    """Run the full prep chain; returns {stage: manifest} like run_kg."""
    import ray

    from ..state.manifests import read_manifest, stage_complete
    from .docs import (
        PACK_BUDGET, docs_curation_neardup, docs_decontaminate, pack_bucket,
    )

    fp = f"{PREP_VERSION}|budget={PACK_BUDGET}|groups={pack_groups}"
    manifests: dict[str, dict] = {}

    def _done(stage_dir: str) -> dict | None:
        """Load the manifest iff the stage checkpoint is complete — so a
        resumed run skips a finished stage's ENTIRE computation (including
        driver-side pre-collects), not just its write."""
        if resume and stage_complete(stage_dir, fp):
            return read_manifest(stage_dir)
        return None

    # -- stage 1: kept (curation ⊖ contamination, + split) -------------------
    kept_dir = f"{out_root}/kept"
    m = _done(kept_dir)
    if m is None:
        contaminated = (
            docs_decontaminate(sf_dir).to_pandas()  # flagged ids — bounded
        )
        bad = contaminated.loc[
            contaminated["n_hits"] > DECONTAM_MAX_HITS, "doc_id"
        ].to_numpy()
        bad_ref = ray.put(np.sort(bad))

        class KeepClean:
            def __init__(self):
                self.bad = None

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                if self.bad is None:
                    self.bad = ray.get(bad_ref)
                ids = b["doc_id"].to_numpy()
                if len(self.bad):
                    pos = np.clip(
                        np.searchsorted(self.bad, ids), 0, len(self.bad) - 1
                    )
                    keep = self.bad[pos] != ids
                else:
                    keep = np.ones(len(ids), dtype=bool)
                out = b.loc[keep].copy()
                out["split"] = _split_of_ids(out["doc_id"].to_numpy())
                return out

        kept_ds = docs_curation_neardup(sf_dir).map_batches(
            arrow_out(KeepClean()), batch_format="pandas"
        )
        m = write_stage(kept_ds, kept_dir, "kept", fp, force=not resume)
    manifests["kept"] = m

    # -- stage 2: packs (read back the checkpoint — restart-safe) ------------
    from ..state.manifests import read_stage

    packs_dir = f"{out_root}/packs"
    m = _done(packs_dir)
    if m is None:
        # a hash group must hold MANY docs for best-fit to fill bins —
        # adapt group count to the kept census (same-input deterministic:
        # the kept manifest row count is part of the lineage)
        eff_groups = max(1, min(pack_groups, manifests["kept"]["rows"] // 64))

        def prep_groups(b: pd.DataFrame) -> pd.DataFrame:
            ids = b["doc_id"].to_numpy()
            grp = (
                md5_int_vec_prefixed("pack", ids, bits=32)
                % np.uint64(eff_groups)
            ).astype("int64")
            return pd.DataFrame(
                {"doc_id": pd.array(ids, "int64"),
                 "n_tokens": pd.array(b["n_tokens"].to_numpy(), "int64"),
                 "grp": pd.array(grp, "int64"),
                 "split": b["split"].astype(str)}
            )

        def pack_with_split(g: pd.DataFrame) -> pd.DataFrame:
            # pack WITHIN each split (training sequences must not leak
            # across splits); the kernel stays the shared pack_bucket
            frames = []
            for split, sub in g.groupby("split", sort=True):
                out = pack_bucket(sub[["doc_id", "n_tokens", "grp"]])
                out["pack_id"] = split + "_" + out["pack_id"]
                out["split"] = split
                frames.append(out)
            return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
                {"pack_id": pd.array([], "str"), "doc_id": pd.array([], "int64"),
                 "n_tokens": pd.array([], "int64"), "pos": pd.array([], "int64"),
                 "oversize": pd.array([], "bool"), "split": pd.array([], "str")}
            )

        packs_ds = bucketed_group_map(
            read_stage(kept_dir, columns=["doc_id", "n_tokens", "split"])
            .map_batches(arrow_out(prep_groups), batch_format="pandas"),
            ["grp"], pack_with_split,
            num_buckets=min(16, eff_groups),
        )
        m = write_stage(packs_ds, packs_dir, "packs", fp, force=not resume)
    manifests["packs"] = m

    # -- stage 3: sequences (the packed training text itself) ----------------
    seq_dir = f"{out_root}/sequences"
    m = _done(seq_dir)
    if m is None:
        import pyarrow as pa
        import ray.data as rd

        from ..stages.joins import hash_join

        pack_rows = read_stage(
            packs_dir, columns=["pack_id", "doc_id", "pos", "split"]
        )
        texts = read_parquet_clean(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        joined = hash_join(
            pack_rows, texts, on=["doc_id"], how="inner", num_buckets=16,
            left_schema=pa.schema(
                [("doc_id", pa.int64()), ("pack_id", pa.string()),
                 ("pos", pa.int64()), ("split", pa.string())]
            ),
            right_schema=pa.schema(
                [("doc_id", pa.int64()), ("text", pa.string())]
            ),
        )

        def assemble(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["pack_id", "pos"], kind="mergesort")
            out = (
                g.groupby(["pack_id", "split"], sort=False)
                .agg(n_docs=("doc_id", "size"), text=("text", " ".join))
                .reset_index()
            )
            out["n_tokens"] = (
                out["text"].str.count(" ").astype("int64") + 1
            )
            return out[["pack_id", "split", "n_docs", "n_tokens", "text"]]

        seq_ds = bucketed_group_map(joined, ["pack_id"], assemble,
                                    num_buckets=16)
        m = write_stage(seq_ds, seq_dir, "sequences", fp, force=not resume)
    manifests["sequences"] = m

    # -- stage 4: stats (bounded per-split summary) ---------------------------
    stats_dir = f"{out_root}/stats"
    m = _done(stats_dir)
    if m is not None:
        manifests["stats"] = m
        return manifests

    def stat_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"split": b["split"], "n_docs": 1,
                             "n_tokens": b["n_tokens"].astype("int64"),
                             "n_oversize": b["oversize"].astype("int64")})

    # a pack can span stat batches, so n_packs can't be a summed partial;
    # count distinct pack_ids exactly (per-batch dedup shrinks the census
    # to ~n_packs rows before the driver-side final dedup):
    pack_census = (
        read_stage(packs_dir, columns=["split", "pack_id"])
        .map_batches(
            arrow_out(
                lambda b: b.drop_duplicates(["split", "pack_id"])
            ),
            batch_format="pandas",
        )
        .to_pandas()
        .drop_duplicates(["split", "pack_id"])
        .groupby("split").size().rename("n_packs").reset_index()
    )
    stats = fold_groups(  # ≤ |splits| rows
        read_stage(packs_dir).map_batches(arrow_out(stat_partial),
                                          batch_format="pandas"),
        ["split"], [("n_docs", "sum"), ("n_tokens", "sum"),
                    ("n_oversize", "sum")],
    ).merge(pack_census, on="split")
    from .docs import PACK_BUDGET as _B

    stats["fill_rate"] = (
        stats["n_tokens"] / (stats["n_packs"] * _B)
    ).round(6)
    stats = stats[
        ["split", "n_docs", "n_packs", "n_tokens", "n_oversize", "fill_rate"]
    ].astype({"n_docs": "int64", "n_packs": "int64", "n_tokens": "int64",
              "n_oversize": "int64"})
    import ray.data as rd

    manifests["stats"] = write_stage(
        rd.from_pandas(stats), stats_dir, "stats", fp, force=not resume,
    )
    return manifests


def docs_llm_prep(sf_dir: str) -> pd.DataFrame:
    """Query surface: run the full prep chain to a scratch root and
    return the bounded per-split stats table (rows-only — the chain's
    components are individually SQL-oracled; the composition contracts
    are pytest-gated in tests/test_docs_prep.py)."""
    import os

    out_root = f"/tmp/mkg_docs_prep/{os.path.basename(os.path.normpath(sf_dir))}"
    import shutil

    shutil.rmtree(out_root, ignore_errors=True)
    run_docs_prep(sf_dir, out_root)
    return pd.read_parquet(f"{out_root}/stats")
