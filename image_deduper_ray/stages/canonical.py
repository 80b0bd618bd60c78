"""Canonical pick + action/lineage records.

A4 in SURVEY.md §2.5: the reference's ``PriorityRule`` list
(/root/reference/crates/image-deduper-core/src/config.rs:5-23, defaults
HighestResolution -> LargestFileSize -> OldestCreationDate at
config.rs:111-115) becomes one deterministic lexicographic tuple sort
per cluster; the winner is the canonical ("keep") file, the rest are
dups. Output rows are the ``ActionResult`` analog
(src/types.rs:86-114): lineage records written to Parquet instead of
filesystem moves.
"""

from __future__ import annotations

import pandas as pd
import ray.data

from ..config import DedupConfig


def _sort_key_cols(cfg: DedupConfig) -> tuple[list[str], list[bool]]:
    cols, asc = [], []
    for spec in cfg.canonical_order:
        if spec.startswith("-"):
            cols.append(spec[1:])
            asc.append(False)
        else:
            cols.append(spec)
            asc.append(True)
    return cols, asc


def canonical_actions(members: ray.data.Dataset, cfg: DedupConfig,
                      action: str = "symlink") -> ray.data.Dataset:
    """members: (file_id, cluster_id, repo, path, commit, n_bytes).
    -> actions(file_id, cluster_id, role, canonical_file_id, action,
    success). Per-cluster LOCAL sort only — never a global ds.sort
    (SURVEY.md §2.6). Partition-level blocks: one shuffle on
    hash(cluster_id), all clusters of a partition picked in one
    vectorized pass."""
    import numpy as np
    import pyarrow as pa

    from ..functions.groups import group_starts, partitioned_group_map

    cols, asc = _sort_key_cols(cfg)

    def block(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({
                "file_id": pd.Series([], dtype=object),
                "cluster_id": pd.Series([], dtype=object),
                "role": pd.Series([], dtype=object),
                "canonical_file_id": pd.Series([], dtype=object),
                "action": pd.Series([], dtype=object),
                "success": pd.Series([], dtype=bool)})
        g = (g.sort_values(["cluster_id"] + cols, ascending=[True] + asc,
                           kind="mergesort").reset_index(drop=True))
        cid = g["cluster_id"].to_numpy()
        fid = g["file_id"].to_numpy()
        new = group_starts(cid)
        group_idx = np.cumsum(new, dtype=np.int32) - 1
        canonical = fid[new][group_idx]
        return pd.DataFrame({
            "file_id": fid, "cluster_id": cid,
            "role": np.where(new, "keep", "dup"),
            "canonical_file_id": canonical,
            "action": np.where(new, "none", action),
            "success": np.ones(len(g), dtype=bool)})

    out_schema = pa.schema([
        ("file_id", pa.string()), ("cluster_id", pa.string()),
        ("role", pa.string()), ("canonical_file_id", pa.string()),
        ("action", pa.string()), ("success", pa.bool_())])
    return partitioned_group_map(members, ["cluster_id"], block,
                                 cfg.num_partitions, out_schema=out_schema)
