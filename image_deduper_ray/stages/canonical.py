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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import DedupConfig
from ..functions.groups import group_starts, partitioned_group_map

_ACTIONS_SCHEMA = pa.schema([
    ("file_id", pa.string()), ("cluster_id", pa.string()),
    ("role", pa.string()), ("canonical_file_id", pa.string()),
    ("action", pa.string()), ("success", pa.bool_())])


def _sort_keys(cfg: DedupConfig) -> list[tuple[str, str]]:
    """``canonical_order`` as Arrow sort keys: a ``-`` prefix sorts
    that column descending."""
    return [(spec[1:], "descending") if spec.startswith("-")
            else (spec, "ascending") for spec in cfg.canonical_order]


def _pick_block(t: pa.Table, sort_keys: list[tuple[str, str]],
                action: str) -> pa.Table:
    """Action rows of one partition's clusters: each cluster's rows in
    ``sort_keys`` order (a stable sort: ties keep their input order),
    the first one ``keep``, every other one a ``dup`` of it."""
    t = t.take(pc.sort_indices(
        t, sort_keys=[("cluster_id", "ascending")] + sort_keys))
    new = group_starts(t["cluster_id"].to_numpy(zero_copy_only=False))
    fid = t["file_id"]
    return pa.table({
        "file_id": fid, "cluster_id": t["cluster_id"],
        "role": pa.array(np.where(new, "keep", "dup")),
        "canonical_file_id": fid.take(np.flatnonzero(new)[np.cumsum(new) - 1]),
        "action": pa.array(np.where(new, "none", action)),
        "success": pa.array(np.ones(t.num_rows, dtype=bool))},
        schema=_ACTIONS_SCHEMA)


def canonical_actions(members: ray.data.Dataset, cfg: DedupConfig,
                      action: str = "symlink") -> ray.data.Dataset:
    """members: (file_id, cluster_id, repo, path, commit, n_bytes).
    -> actions(file_id, cluster_id, role, canonical_file_id, action,
    success). Per-cluster LOCAL sort only — never a global ds.sort
    (SURVEY.md §2.6). Partition-level blocks: one shuffle on
    hash(cluster_id), all clusters of a partition picked in one
    vectorized pass."""
    sort_keys = _sort_keys(cfg)
    return partitioned_group_map(
        members, ["cluster_id"],
        lambda t: _pick_block(t, sort_keys, action),
        cfg.num_partitions, out_schema=_ACTIONS_SCHEMA)
