"""``entry()`` runs the flagship dedup pipeline (signatures -> salted LSH
-> Jaccard verify -> substring containment -> connected components ->
canonical pick) over the sf0.001 ``documents`` table mapped onto the
engine's code-files schema.

Ray is initialised by the caller BEFORE this module is imported: no
``ray.init`` / ``ray.shutdown`` here or in the library code.
"""

from __future__ import annotations

import os
import shutil
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from image_deduper_ray.config import DedupConfig
from image_deduper_ray.functions.groups import (group_starts,
                                                partitioned_group_map)
from image_deduper_ray.pipelines.dedup import run_pipeline


def entry() -> Any:
    """Flagship pipeline on sf0.001 documents; returns (doc_id, cluster_id)."""
    return minhash_lsh_clusters("/root/testdata/sf0.001",
                                "/tmp/idr_entry_flagship")


def documents_as_files(sf_dir: str) -> ray.data.Dataset:
    """Map documents(doc_id, text, lang, source) onto the engine's files
    schema (repo, path, commit, lang, content)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang", "source"])

    def f(t: pa.Table) -> pa.Table:
        n = t.num_rows
        paths = pc.binary_join_element_wise(
            pa.array(["doc"] * n), t["doc_id"].cast(pa.string()), "/")
        return pa.table({
            "repo": t["source"],
            "path": paths,
            "commit": pa.array([""] * n, pa.string()),
            "lang": t["lang"],
            "content": t["text"],
        })

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def minhash_lsh_clusters(sf_dir: str, out_dir: str,
                         cfg: DedupConfig | None = None) -> ray.data.Dataset:
    """The full flagship pipeline (signatures -> salted LSH -> verify ->
    substring -> CC -> canonical) over documents. Returns
    (doc_id, cluster_id) with cluster_id = min doc_id of the component
    (stable, human-readable)."""
    cfg = cfg or DedupConfig()
    shutil.rmtree(out_dir, ignore_errors=True)

    staged = os.path.join(out_dir, "_input")
    os.makedirs(staged, exist_ok=True)
    documents_as_files(sf_dir).write_parquet(staged)

    res = run_pipeline(staged, out_dir, cfg)
    clusters = res["clusters"]

    def doc_ids(t: pa.Table) -> pa.Table:
        dids = pc.cast(pc.utf8_slice_codeunits(t["path"], 4, 2**31 - 1),
                       pa.int64())
        return pa.table({"doc_id": dids, "cluster_key": t["cluster_id"]})

    labeled = clusters.map_batches(doc_ids, batch_format="pyarrow")

    # relabel via the raw-task hash shuffle + one vectorized segment-min
    # per partition, not a sort-based groupby().map_groups
    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("cluster_id", pa.int64())])

    def relabel_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype=np.int64),
                 "cluster_id": pd.Series([], dtype=np.int64)})
        df = df.sort_values("cluster_key", kind="mergesort")
        keys = df["cluster_key"].to_numpy()
        dids = df["doc_id"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(keys))
        sizes = np.diff(np.append(starts, len(dids)))
        mins = np.minimum.reduceat(dids, starts)
        return pd.DataFrame({"doc_id": dids,
                             "cluster_id": np.repeat(mins, sizes)})

    return partitioned_group_map(labeled, ["cluster_key"], relabel_block,
                                 cfg.resolved().num_partitions,
                                 out_schema=out_schema)
