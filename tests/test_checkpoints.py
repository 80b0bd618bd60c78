"""Checkpoint/resume primitives: anti-joins and manifests."""

from __future__ import annotations

import pyarrow as pa
import ray.data

from image_deduper_ray.sources.checkpoints import anti_join_done


def _files_ds(n=100):
    return ray.data.from_arrow(pa.table({
        "file_id": pa.array([f"id{i:04d}" for i in range(n)], pa.string()),
        "payload": pa.array([f"p{i}" for i in range(n)], pa.string())}))


def test_broadcast_anti_join():
    done = {f"id{i:04d}" for i in range(0, 100, 2)}
    out = anti_join_done(_files_ds(), done,
                         lambda b: b["file_id"].to_pylist()).to_pandas()
    assert len(out) == 50
    assert set(out.file_id).isdisjoint(done)


def test_manifest_per_partition_lineage(tmp_path):
    from image_deduper_ray.sources import checkpoints as ckpt

    ds = _files_ds(64)
    ckpt.write_stage(ds, str(tmp_path), "stagex")
    m = ckpt.read_manifest(str(tmp_path), "stagex")
    assert m["rows"] == 64
    assert sum(m["partitions"].values()) == 64
