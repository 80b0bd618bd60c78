"""Checkpointed Parquet stages + resume anti-join.

The reference uses its RocksDB keyspace as both sink and resume ledger:
``batch_insert_hashes`` (S4, /root/reference/crates/image-deduper-core/
src/persistence/db.rs:64-92), ``get_all_hashes`` (S5, db.rs:94-129) and
the ``find_new_images`` anti-join (J1, db.rs:132-164) that lets a rerun
hash only new files (lib.rs:246-264). Here every stage writes a Parquet
directory plus a ``_MANIFEST.json`` (row count + config hash) written
only after the data lands — the atomic 'stage done' marker. Each part
is written to a temp name and renamed (``write_part``), so a killed
scan leaves whole parts only, and resume anti-joins the done
``file_id`` set before the expensive signature stage.

Scale note: the anti-join ships the done-key set once via ``ray.put``
to the signature tasks, which filter their rows by it (no shuffle); it
needs the done keys to fit in driver and worker memory (hundreds of
millions of 32-char keys).
"""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.dataset import MaterializedDataset

from ..functions.arrow_utils import arrow_schema_of
from ..functions.groups import _dataset_of, _with_meta, blocks_of

MANIFEST = "_MANIFEST.json"


def stage_dir(root: str, stage: str) -> str:
    return os.path.join(root, stage)


def is_complete(root: str, stage: str) -> bool:
    return os.path.exists(os.path.join(stage_dir(root, stage), MANIFEST))


def write_part(t, path: str) -> None:
    """Write ``t`` as the Parquet part ``path`` atomically: to a temp
    name that no reader lists (it does not end in ``.parquet``), then
    renamed over ``path``, so a killed write leaves no torn part."""
    tmp = path + ".tmp"
    pq.write_table(t.replace_schema_metadata(None), tmp)
    os.replace(tmp, path)


@ray.remote
def _write_part(block, path: str, schema) -> None:
    """Write one block as one Parquet part, cast to the stage schema."""
    from ray.data.block import BlockAccessor

    from ..functions.arrow_utils import ensure_schema

    write_part(ensure_schema(BlockAccessor.for_block(block).to_arrow(), schema),
               path)


def _write_blocks(ds: MaterializedDataset, d: str, schema) -> None:
    """One plain Ray task per non-empty block writes ``part-NNNNN``;
    a stage whose every block is empty gets one schema-only part."""
    refs = [ref for ref, meta, _ in blocks_of(ds) if meta.num_rows != 0]
    if not refs:
        refs = [ray.put(schema.empty_table())]
    ray.get([_write_part.remote(ref, os.path.join(d, f"part-{i:05d}.parquet"),
                                schema)
             for i, ref in enumerate(refs)])


def write_stage(ds: MaterializedDataset, root: str, stage: str,
                config_json: str = "") -> dict:
    """Write a materialized stage checkpoint in its own schema, then its
    manifest; returns the manifest.

    The blocks are written with plain tasks, no Ray Data job: the caller
    keeps the dataset and feeds the next stage from memory, so nothing
    re-reads the parts in the run that wrote them. (The ``signatures``
    tasks write their own parts, and ``write_manifest`` completes that
    stage.)"""
    d = stage_dir(root, stage)
    os.makedirs(d, exist_ok=True)
    _write_blocks(ds, d, arrow_schema_of(ds).remove_metadata())
    return write_manifest(root, stage, config_json)


def write_manifest(root: str, stage: str, config_json: str = "") -> dict:
    """Write the manifest of a stage whose parts are all on disk, and
    return it: the rows of each part and in all, and the config.
    Written to a temp name and renamed, so it is the stage's atomic
    'done' marker."""
    d = stage_dir(root, stage)
    per_part = {f: int(pq.ParquetFile(os.path.join(d, f)).metadata.num_rows)
                for f in sorted(os.listdir(d)) if f.endswith(".parquet")}
    n = sum(per_part.values())
    # per-partition lineage (north rule): which physical partition holds
    # how many rows — a resume or audit can account for every block
    manifest = {"stage": stage, "rows": int(n), "config": config_json,
                "partitions": per_part}
    tmp = os.path.join(d, MANIFEST + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh)
    os.replace(tmp, os.path.join(d, MANIFEST))  # atomic 'done' marker
    return manifest


@ray.remote(num_returns=2)
def _read_part(path: str, columns):
    return _with_meta(pq.ParquetFile(path).read(columns=columns))


def read_stage(root: str, stage: str, columns: list[str] | None = None,
               lazy: bool = False) -> ray.data.Dataset:
    """A stage checkpoint (``columns`` of it, or all) as a dataset.

    By default one plain Ray task reads each Parquet part, and the
    result is a materialized dataset of one block per part: no Ray Data
    execution, and its consumers read the blocks from the object store.
    ``lazy=True`` gives a ``read_parquet`` dataset instead, which reads
    nothing until it is consumed (a stage handed back to a caller that
    may never look at it)."""
    d = stage_dir(root, stage)
    paths = [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    if lazy:
        return ray.data.read_parquet(paths, columns=columns)
    return _dataset_of([_read_part.remote(p, columns) for p in paths])


def read_manifest(root: str, stage: str) -> dict:
    with open(os.path.join(stage_dir(root, stage), MANIFEST)) as fh:
        return json.load(fh)


def clear_stage(root: str, stage: str) -> None:
    d = stage_dir(root, stage)
    if os.path.isdir(d):
        for f in os.listdir(d):
            os.remove(os.path.join(d, f))


def part_columns(root: str, stage: str, columns: list[str]):
    """Yield ``columns`` of each Parquet part of a (possibly partial)
    checkpoint, read on the driver — column pruning means this touches
    those columns' pages, not the data, and runs no Ray job."""
    d = stage_dir(root, stage)
    if not os.path.isdir(d):
        return
    for f in sorted(os.listdir(d)):
        if f.endswith(".parquet"):
            yield pq.read_table(os.path.join(d, f), columns=columns)


def drop_torn_parts(root: str, stage: str) -> list[str]:
    """Delete every Parquet part of a (possibly partial) checkpoint
    whose footer does not parse, and every temp file a killed write
    left (``*.tmp``), and return their names. The scan writes each part
    to a temp name and renames it, but a part can still be cut short
    outside the program (a full disk, a copied directory); its rows
    are then recomputed instead of failing every later resume."""
    d = stage_dir(root, stage)
    if not os.path.isdir(d):
        return []
    torn = []
    for f in sorted(os.listdir(d)):
        if f.endswith(".tmp"):
            os.remove(os.path.join(d, f))
            torn.append(f)
        elif f.endswith(".parquet"):
            try:
                pq.read_metadata(os.path.join(d, f))
            except (OSError, ValueError):   # ArrowInvalid is a ValueError
                os.remove(os.path.join(d, f))
                torn.append(f)
    return torn


def done_key_set(root: str, stage: str, key_col: str = "file_id") -> set[str]:
    """The key column of a (possibly partial) checkpoint, as a set."""
    keys: set[str] = set()
    for t in part_columns(root, stage, [key_col]):
        keys.update(t[key_col].to_pylist())
    return keys


# the scan drops done ids inside its signature tasks
# (``files.read_unit(..., drop_ids=True)``). This stays: the benchmark's
# tracer (perfbench/tracing.py) looks the name up with no default, and
# it is the reference that test_checkpoints compares ``read_unit`` with
def anti_join_done(ds: ray.data.Dataset, done_keys: set,
                   key_fn) -> ray.data.Dataset:
    """J1: discovered ∖ done. Broadcast the done-key set once
    (``ray.put``) as an Arrow value set, filter inside map_batches with
    the hash-lookup ``is_in`` kernel — no shuffle, no per-row Python
    membership test (this sits on the flagship resume path).
    ``key_fn(batch) -> pa.Array | ChunkedArray | list`` of keys."""
    if not done_keys:
        return ds
    import pyarrow as pa

    ref = ray.put(pa.array(list(done_keys)))

    def _filter(batch):
        import pyarrow as pa
        import pyarrow.compute as pc
        value_set = ray.get(ref)
        keys = key_fn(batch)
        if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
            keys = pa.array(keys, value_set.type)
        keep = pc.invert(pc.is_in(keys, value_set=value_set))
        return batch.filter(keep)

    return ds.map_batches(_filter, batch_format="pyarrow", zero_copy_batch=True)
