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


def test_sign_unit_drops_done_ids(tmp_path):
    """The scan's resume anti-join runs inside its read of each input
    unit (``read_unit(..., drop_ids=True)``): the rows whose ``file_id``
    is in the done set are dropped, ``ids`` without ``drop_ids`` keeps
    only them, and both split the rows as ``anti_join_done`` does."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from image_deduper_ray.sources.files import add_file_id, read_unit

    t = pa.table({"repo": ["r"] * 100,
                  "path": [f"src/f{i}.py" for i in range(100)],
                  "commit": ["c"] * 100, "lang": ["py"] * 100,
                  "content": [f"body {i}" for i in range(100)]})
    p = str(tmp_path / "files.parquet")
    pq.write_table(t, p, row_group_size=10)
    fids = add_file_id(t)["file_id"].combine_chunks()
    done = pa.array(fids.to_pylist()[::2], pa.string())

    kept, n_groups, n_read = read_unit(p, "parquet", ids=done, drop_ids=True)
    assert kept.num_rows == 50 and (n_groups, n_read) == (10, 10)
    assert not pc.any(pc.is_in(kept["file_id"], value_set=done)).as_py()
    hit, _, _ = read_unit(p, "parquet", ids=done)
    assert sorted(hit["file_id"].to_pylist()) == sorted(done.to_pylist())

    ref = anti_join_done(ray.data.from_arrow(add_file_id(t)),
                         set(done.to_pylist()), lambda b: b["file_id"])
    assert sorted(ref.to_pandas().file_id) == sorted(kept["file_id"].to_pylist())
    # only the row groups holding a kept row have their content read
    _, _, n_read = read_unit(p, "parquet", [0, 1], ids=fids[:5])
    assert n_read == 1


def test_manifest_per_partition_lineage(tmp_path):
    from image_deduper_ray.sources import checkpoints as ckpt

    ds = _files_ds(64).materialize()
    ckpt.write_stage(ds, str(tmp_path), "stagex")
    m = ckpt.read_manifest(str(tmp_path), "stagex")
    assert m["rows"] == 64
    assert sum(m["partitions"].values()) == 64


def test_read_stage_one_block_per_part(tmp_path, monkeypatch):
    """``read_stage`` reads each part with one plain task into one block
    (``columns`` honoured) and runs no Ray Data execution; ``lazy=True``
    reads the same rows only when consumed."""
    import pyarrow.parquet as pq
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    from ray.data.dataset import MaterializedDataset

    from image_deduper_ray.sources import checkpoints as ckpt

    d = tmp_path / "stagex"
    d.mkdir()
    t = pa.table({"file_id": [f"id{i}" for i in range(9)],
                  "payload": [f"p{i}" for i in range(9)]})
    for i in range(3):
        pq.write_table(t.slice(3 * i, 3), str(d / f"part-{i:05d}.parquet"))

    executions = []
    real = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        executions.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    ds = ckpt.read_stage(str(tmp_path), "stagex", columns=["file_id"])
    blocks = ray.get(ds.to_arrow_refs())
    assert executions == []
    assert isinstance(ds, MaterializedDataset)
    assert [b.column_names for b in blocks] == [["file_id"]] * 3
    assert pa.concat_tables(blocks)["file_id"] == t["file_id"]

    lazy = ckpt.read_stage(str(tmp_path), "stagex", lazy=True)
    assert not isinstance(lazy, MaterializedDataset)
    assert sorted(lazy.to_pandas().file_id) == sorted(t["file_id"].to_pylist())
