"""Partition-level group processing.

``Dataset.groupby(key).map_groups(fn)`` invokes ``fn`` once per GROUP —
per-group pandas slicing dominates wall time when groups are tiny and
numerous (one per file / per bucket), which is exactly the dedup shape.
The scale-correct pattern: hash-partition on the key (ONE shuffle into
``num_partitions`` groups — all rows of a key land together), then run
a vectorized block function once per PARTITION that handles all its
groups with numpy segment operations.

Every fan-out here is sized by its input rows: one task per
``ROWS_PER_TASK`` rows, read from the blocks' metadata at no cost, and
at most the caller's cap (``num_partitions`` for a shuffle, one task per
cluster CPU for ``map_blocks`` and ``coalesce_blocks``). The cap bounds
reducer memory; below it each task that a few thousand rows cannot
keep busy is fixed cost (a task round, a map-side slice per map task,
a Parquet part when the stage is checkpointed). A shuffle sized to one
task is one plain task that preps, groups and conforms every row, with
no key hash and no map split.

Row prep runs inside the shuffle: every entry point takes an optional
per-block ``pre`` (``pa.Table -> pa.Table``: a column select, a fold, a
filter, an explode) that each map task applies to its blocks before
hashing. The input may also be a list of datasets, each with its own
``pre`` (a union without the union). A ``map_batches`` in front of the
shuffle would cost one Ray Data execution of its own; with ``pre``, a
shuffle over materialized inputs runs none, and its output is a
materialized dataset too, so the next consumer runs none either.

The same holds for maps that need no shuffle: ``map_blocks`` runs a
per-block function over a materialized dataset as plain Ray tasks
(``map_batches`` would start an execution for a few thousand rows),
``union_blocks`` concatenates datasets by their block refs, and
``coalesce_blocks`` merges small blocks with plain concat tasks. Every
task here returns its block's metadata next to the block, and the
caller builds the materialized output from those (``_dataset_of``)
instead of ``from_arrow_refs``, which would start one more task per
block just to read that metadata. The caller waits for every metadata
object, so no task outlives the stage that started it.

Such a dataset is built computed (``_over_blocks``), and its blocks are
listed from that snapshot (``blocks_of``): neither calls Ray Data's
``ExecutionPlan.execute``, which for data already in hand costs a GCS
round trip and logs a false "will hang" warning whenever plain tasks
hold every CPU. This module is the scan's one user of Ray Data
internals (Ray 2.49).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data._internal.execution.interfaces import RefBundle
from ray.data._internal.logical.interfaces import LogicalPlan
from ray.data._internal.logical.operators.input_data_operator import InputData
from ray.data._internal.plan import ExecutionPlan
from ray.data._internal.stats import DatasetStats
from ray.data.block import (BlockMetadataWithSchema,
                            _take_first_non_empty_schema)
from ray.data.context import DataContext
from ray.data.dataset import MaterializedDataset

from .arrow_utils import as_table

# rows per task of every fan-out (shuffle partitions and map tasks,
# ``map_blocks`` tasks, ``coalesce_blocks`` parts). With 4 Ray CPUs
# a task costs ~2-3 ms of its own, and the heaviest block function,
# LSH pair-gen, 1-4 us per band row: a second task pays from about
# 40k rows on (measured; CHANGES.md has the numbers)
ROWS_PER_TASK = 50_000


def default_partitions() -> int:
    """The cap on every fan-out here, a hash shuffle's partitions among
    them: one per cluster CPU. A fan-out runs fewer when its rows are
    few (``_fan_out``). Hot-bucket salting already bounds reducer skew,
    so more partitions than CPUs only add fixed cost: each one is a
    reduce task, a map-side slice per map task and, in a checkpointed
    stage, a Parquet part. On a 4-CPU session the earlier floor of
    32/48 reducers cost nearly half the wall time of a 1k-file scan."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8


def _fan_out(rows: int, cap: int | None = None) -> int:
    """Tasks for ``rows`` input rows: one per ``ROWS_PER_TASK``, at
    least one, at most ``cap`` (None: one per cluster CPU, asked of the
    GCS only when the rows need more than one task)."""
    n = -(-rows // ROWS_PER_TASK)
    if n <= 1:
        return 1
    return min(n, cap or default_partitions())


def _key_hash(t: pa.Table, key_cols: list[str]) -> np.ndarray:
    """Deterministic uint64 hash of the key columns (pandas hash_array:
    fixed key, stable across processes — required for resume)."""
    h = np.zeros(t.num_rows, dtype=np.uint64)
    for c in key_cols:
        col = t[c].to_numpy(zero_copy_only=False)
        h = h * np.uint64(1099511628211) + pd.util.hash_array(col)
    return h


def _with_meta(t: pa.Table) -> tuple:
    """A block a plain task made, with its metadata and schema, so the
    caller builds a dataset over it without another task round. The
    schema's metadata (e.g. pandas') is dropped: Ray unifies block
    schemas through a ``set``, and a schema carrying a metadata dict
    does not hash (a logged warning per unification)."""
    t = t.replace_schema_metadata(None)
    return t, BlockMetadataWithSchema.from_block(t)


def _dataset_of(outs: list) -> MaterializedDataset:
    """A materialized dataset over the ``(block, metadata)`` ref pairs
    of plain tasks (``_with_meta``), in order. It waits for every task:
    the caller fetches each metadata object, never a block, so no task
    outlives the call. ``from_arrow_refs`` would start one more task
    per block only to compute the metadata its producer already had."""
    metas = ray.get([m for _, m in outs])
    return _over_blocks([(ref, m.metadata, m.schema)
                         for (ref, _), m in zip(outs, metas)])


def _over_blocks(blocks: list) -> MaterializedDataset:
    """A materialized dataset over existing ``(block ref, BlockMetadata,
    schema)`` triples: no task, no execution. Built the way
    ``Dataset.materialize`` builds its output, then marked computed the
    way ``ExecutionPlan.execute`` marks a plan over an ``InputData``
    source (its snapshot bundle, operator and stats), without the call:
    ``execute`` would ask the GCS for free CPUs and, on a plan's first
    call, for object-store stats."""
    ctx = DataContext.get_current().copy()
    bundles = [RefBundle([(ref, meta)], owns_blocks=False, schema=schema)
               for ref, meta, schema in blocks]
    stats = DatasetStats(metadata={"MapBlocks": [m for _, m, _ in blocks]},
                         parent=None)
    ds = MaterializedDataset(ExecutionPlan(stats, ctx),
                             LogicalPlan(InputData(bundles), ctx))
    plan = ds._plan
    plan._has_started_execution = True
    plan._snapshot_bundle = RefBundle(
        [(ref, meta) for ref, meta, _ in blocks], owns_blocks=False,
        schema=_take_first_non_empty_schema(s for _, _, s in blocks))
    plan._snapshot_operator = plan._logical_plan.dag
    plan._snapshot_stats = stats    # the dataset's uuid is already set
    stats.dataset_bytes_spilled = 0
    return ds


def blocks_of(ds: ray.data.Dataset):
    """Yield ``(block ref, BlockMetadata, schema)`` for every block of
    ``ds``, in order. A computed dataset's come from its plan's snapshot
    with no call into the plan; any other runs its plan, streamed
    (``iter_internal_ref_bundles``), so a caller may stop early."""
    plan = ds._plan
    if plan.has_computed_output():
        bundle = plan._snapshot_bundle
        for ref, meta in bundle.blocks:
            yield ref, meta, bundle.schema
        return
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            yield ref, meta, bundle.schema


def materialized(ds: ray.data.Dataset) -> MaterializedDataset:
    """``ds`` as a materialized dataset: itself when it already is one
    (``Dataset.materialize`` would copy its plan and call
    ``ExecutionPlan.execute`` again), else ``ds.materialize()``."""
    return ds if isinstance(ds, MaterializedDataset) else ds.materialize()


def tables_of(ds: ray.data.Dataset):
    """Yield each non-empty block of ``ds`` as an Arrow table, in order,
    fetched by ref (``blocks_of``): over a materialized dataset no
    batching pipeline runs, as ``iter_batches`` would start."""
    for ref, meta, _ in blocks_of(ds):
        if meta.num_rows != 0:
            yield as_table(ray.get(ref))


def table_dataset(t: pa.Table) -> MaterializedDataset:
    """A local table as a materialized dataset of one block, with
    no task (``ray.data.from_arrow`` starts one to read its metadata)."""
    return _over_blocks([(ray.put(t), BlockMetadataWithSchema.from_block(t)
                          .metadata, t.schema)])


def _prepped(key_cols: list[str], pre, blocks) -> list[pa.Table]:
    """Each of ``blocks`` after ``pre`` that has rows and the key
    columns. Schema-less / empty blocks do arrive from upstream unions
    (Ray 2.49): they are skipped, before ``pre`` and after it."""
    ts = []
    for block in blocks:
        t = as_table(block)
        if t.num_rows and pre is not None:
            t = pre(t)
        if t.num_rows and all(c in t.column_names for c in key_cols):
            ts.append(t)
    return ts


def _concat(ts: list[pa.Table]) -> pa.Table:
    """``ts`` as one table, columns in the first one's order."""
    if len(ts) == 1:
        return ts[0]
    cols = ts[0].column_names
    return pa.concat_tables([x.select(cols) for x in ts])


def _reduce(block_fn, out_schema: pa.Schema, as_pandas: bool,
            ts: list[pa.Table]) -> tuple:
    """Run the block function once over the rows of ``ts`` (no call
    when there are none) and conform the result to ``out_schema``."""
    from .arrow_utils import ensure_schema

    if not ts:
        return _with_meta(out_schema.empty_table())
    t = pa.concat_tables(ts).combine_chunks()
    if as_pandas:
        out = block_fn(t.to_pandas())
        out = pa.Table.from_pandas(out, preserve_index=False) \
            if not isinstance(out, pa.Table) else out
    else:
        out = block_fn(t)
    return _with_meta(ensure_schema(out, out_schema))


@ray.remote
def _shuffle_map_task(key_cols: list[str], num_partitions: int, pre,
                      *blocks):
    """One map task of the raw hash shuffle: apply ``pre`` to each
    non-empty block, then split the result into ``num_partitions``
    zero-copy slices by key hash (one argsort, one take). Returns
    ``num_partitions`` (at least 2) values, None for empty slices.
    Takes SEVERAL upstream blocks of one input (the driver coalesces
    small blocks) so the task count stays bounded, not O(blocks)."""
    ts = _prepped(key_cols, pre, blocks)
    if not ts:
        return tuple(None for _ in range(num_partitions))
    t = _concat(ts)
    pk = (_key_hash(t, key_cols) % np.uint64(num_partitions)).astype(np.int64)
    order = np.argsort(pk, kind="stable")
    t2 = t.take(pa.array(order))
    pks = pk[order]
    bounds = np.searchsorted(pks, np.arange(num_partitions + 1))
    return tuple(
        t2.slice(bounds[i], bounds[i + 1] - bounds[i])
        if bounds[i + 1] > bounds[i] else None
        for i in range(num_partitions))


@ray.remote(num_returns=2)
def _shuffle_reduce_task(block_fn, out_schema: pa.Schema, as_pandas: bool,
                         *parts) -> tuple:
    """One reduce task: concat this partition's slices from every map
    task, run the block function once, conform to ``out_schema``."""
    return _reduce(block_fn, out_schema, as_pandas,
                   [p for p in parts if p is not None and p.num_rows > 0])


@ray.remote(num_returns=2)
def _shuffle_one_task(key_cols: list[str], block_fn, out_schema: pa.Schema,
                      as_pandas: bool, runs: list, *blocks) -> tuple:
    """A shuffle of one partition: every input's blocks after its
    ``pre`` (``runs``: one ``(pre, n_blocks)`` per input, in order),
    then the block function once, as one task."""
    ts, i = [], 0
    for pre, n in runs:
        ts += _prepped(key_cols, pre, blocks[i:i + n])
        i += n
    return _reduce(block_fn, out_schema, as_pandas,
                   [_concat(ts)] if ts else [])


def _manual_shuffle(ds, key_cols: list[str], block_fn,
                    num_partitions: int | None, out_schema: pa.Schema,
                    as_pandas: bool, pre=None,
                    pre_rows: int = 1) -> ray.data.Dataset:
    """Raw-task hash shuffle: map tasks over the upstream blocks (the
    driver only ever handles refs), one reduce task per partition.
    Replaces Ray Data's sort-based ``groupby().map_groups`` for the
    partition-block pattern: the sort machinery costs ~9 s of
    mostly-serial overhead PER SHUFFLE at this scale (measured, 173k
    rows / 8 cpus) vs <1 s for this path — that overhead was the
    dominant scaling-efficiency loss across the wide stages.

    ``num_partitions`` caps the partitions (None: one per cluster CPU;
    driver ref load is map tasks x partitions: keep it O(CPUs), not
    O(rows)). Below the cap the shuffle runs one partition, and one map
    task, per ``ROWS_PER_TASK`` rows its block function sees: the input
    rows from the blocks' metadata, times ``pre_rows`` when ``pre``
    explodes each row into that many. Sized to one, it is one task with
    no key hash.

    ``ds`` is one dataset or a list of them; ``pre`` is one per-block
    function for all of them, or a list with one entry (or None) per
    input. Every input's rows, after its ``pre``, must share the key
    columns and one schema. Returns a materialized dataset of one block
    per partition."""
    inputs = list(ds) if isinstance(ds, (list, tuple)) else [ds]
    pres = list(pre) if isinstance(pre, (list, tuple)) \
        else [pre] * len(inputs)
    if len(pres) != len(inputs):
        raise ValueError(f"{len(inputs)} inputs but {len(pres)} pre functions")
    listed = [[(ref, meta.num_rows) for ref, meta, _ in blocks_of(d)
               if meta.num_rows != 0] for d in inputs]
    refs = [[ref for ref, _ in bs] for bs in listed]
    n_refs = sum(len(r) for r in refs)
    if not n_refs:
        return table_dataset(out_schema.empty_table())
    rows = sum(r or 0 for bs in listed for _, r in bs)
    n = _fan_out(pre_rows * rows, num_partitions)
    if n == 1:
        return _dataset_of([_shuffle_one_task.remote(
            key_cols, block_fn, out_schema, as_pandas,
            [(fn, len(rs)) for rs, fn in zip(refs, pres)],
            *(r for rs in refs for r in rs))])
    # runs of consecutive upstream blocks: one map task per partition's
    # worth of rows, each slicing into every partition
    per = -(-n_refs // min(n_refs, n))
    maps = [
        _shuffle_map_task.options(num_returns=n).remote(
            key_cols, n, fn, *rs[i:i + per])
        for rs, fn in zip(refs, pres)
        for i in range(0, len(rs), per)]
    outs = [
        _shuffle_reduce_task.remote(block_fn, out_schema, as_pandas,
                                    *(m[p] for m in maps))
        for p in range(n)]
    # a materialized dataset is read (iterated, counted, shuffled
    # again) without a Ray Data execution
    return _dataset_of(outs)


@ray.remote(num_returns=2)
def _concat_blocks(*blocks) -> tuple:
    ts = [as_table(b) for b in blocks]
    # empty blocks may be schema-less (Ray 2.49): keep one only when
    # nothing else is left
    full = [t for t in ts if t.num_rows]
    return _with_meta(pa.concat_tables(full, promote_options="default")
                      if full else ts[0])


def coalesce_blocks(ds: ray.data.Dataset) -> ray.data.Dataset:
    """A materialized ``ds`` in one block per ``ROWS_PER_TASK`` rows, at
    most one per cluster CPU: each run of consecutive blocks is
    concatenated by one plain task, so no Ray Data job runs (a
    ``repartition`` would be one). Row order is kept."""
    blocks = list(blocks_of(ds))
    n = _fan_out(sum(meta.num_rows or 0 for _, meta, _ in blocks))
    if len(blocks) <= n:
        return ds
    refs = [ref for ref, _, _ in blocks]
    per = -(-len(refs) // n)
    return _dataset_of([_concat_blocks.remote(*refs[i:i + per])
                        for i in range(0, len(refs), per)])


@ray.remote(num_returns=2)
def _map_task(fn, out_schema: pa.Schema, *blocks) -> tuple:
    """``fn`` over each non-empty block of one run, outputs concatenated
    in order; a run with no output rows gives ``out_schema``'s empty
    table, so no block downstream is schema-less."""
    outs = []
    for block in blocks:
        t = as_table(block)
        if t.num_rows:
            out = fn(t)
            if out.num_rows:
                outs.append(out)
    if not outs:
        return _with_meta(out_schema.empty_table())
    return _with_meta(outs[0] if len(outs) == 1
                      else pa.concat_tables(outs, promote_options="default"))


def map_blocks(ds: ray.data.Dataset, fn, out_schema: pa.Schema
               ) -> ray.data.Dataset:
    """``fn`` (``pa.Table -> pa.Table``) over every block of ``ds``.

    A materialized ``ds`` is mapped by plain Ray tasks, one per run of
    consecutive non-empty blocks and per ``ROWS_PER_TASK`` rows (at
    most one per cluster CPU: on a few thousand rows each task costs
    more than its map; row order kept), and the result is materialized
    from their refs: no Ray Data execution runs here, nor in the next
    consumer. Each execution costs a ``StreamingExecutor`` start-up and
    tear-down that, for the few thousand rows of a scan stage,
    outweighs the map itself. An input with no rows gives
    ``out_schema``'s empty table.

    A lazy ``ds`` keeps ``map_batches``: the map fuses into the upstream
    plan and streams, so e.g. a filter fused into a full-corpus read
    never lands the unfiltered rows in the object store."""
    if not isinstance(ds, MaterializedDataset):
        return ds.map_batches(fn, batch_format="pyarrow",
                              zero_copy_batch=True)
    blocks = [(ref, meta.num_rows) for ref, meta, _ in blocks_of(ds)
              if meta.num_rows != 0]
    if not blocks:
        return table_dataset(out_schema.empty_table())
    refs = [ref for ref, _ in blocks]
    n = _fan_out(sum(rows or 0 for _, rows in blocks))
    per = -(-len(refs) // n)
    return _dataset_of([_map_task.remote(fn, out_schema, *refs[i:i + per])
                        for i in range(0, len(refs), per)])


def union_blocks(inputs: list, out_schema: pa.Schema) -> ray.data.Dataset:
    """The rows of every dataset in ``inputs`` as one materialized
    dataset over their existing blocks, in input order: no task and no
    execution over materialized inputs (a lazy one runs its own plan;
    every input on the scan path is materialized, a checkpoint a resume
    reads included). Empty blocks are left out; with no rows at all,
    ``out_schema``'s empty table."""
    blocks = [b for ds in inputs for b in blocks_of(ds) if b[1].num_rows != 0]
    return _over_blocks(blocks) if blocks else table_dataset(out_schema.empty_table())


def partitioned_group_map(ds, key_cols: list[str],
                          block_fn, num_partitions: int | None,
                          out_schema: pa.Schema,
                          pre=None) -> ray.data.Dataset:
    """Hash-partition ``ds`` on ``key_cols`` and apply ``block_fn``
    (pandas DataFrame -> pandas DataFrame) once per partition. The block
    function sees every row of every key assigned to its partition and
    is responsible for its own group segmentation (sort + boundaries).
    ``num_partitions`` caps the partitions; None = one per cluster CPU.

    The shuffle runs on raw Ray tasks (``_manual_shuffle``) — Ray
    Data's sort-based groupby costs ~9 s serial overhead per shuffle at
    bench scale. ``out_schema`` types every partition's output, an
    empty one included. ``ds`` and ``pre``: see ``_manual_shuffle``."""
    return _manual_shuffle(ds, key_cols, block_fn, num_partitions,
                           out_schema, as_pandas=True, pre=pre)


def partitioned_group_map_arrow(ds, key_cols: list[str],
                                block_fn, num_partitions: int | None,
                                out_schema: pa.Schema,
                                pre=None, pre_rows: int = 1
                                ) -> ray.data.Dataset:
    """``partitioned_group_map`` with an Arrow block function
    (pa.Table -> pa.Table). Use when the payload carries binary/string
    columns (e.g. 1 KB minhash signatures): the pandas path would turn
    every value into a Python object on both sides of the block call,
    while Arrow blocks keep them as C buffers end to end. ``pre_rows``:
    see ``_manual_shuffle``."""
    return _manual_shuffle(ds, key_cols, block_fn, num_partitions,
                           out_schema, as_pandas=False, pre=pre,
                           pre_rows=pre_rows)


def partitioned_sum(ds, key_cols: list[str],
                    value_col: str, num_partitions: int | None,
                    out_schema: pa.Schema,
                    out_name: str | None = None,
                    pre=None) -> ray.data.Dataset:
    """Distributed ``SELECT key_cols, SUM(value_col) GROUP BY key_cols``
    as a hash-partitioned vectorized block aggregate. Ray 2.49's native
    ``groupby().sum()`` runs a full sort-based shuffle that measures
    ~10x slower on narrow high-cardinality keys; this shape is one
    partition shuffle + one lexsort + one ``np.add.reduceat`` per
    partition. The sum column is named ``out_name`` (default
    ``sum(value_col)``, native-API compatible); ``out_schema`` must use
    the same name."""
    out_name = out_name or f"sum({value_col})"

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.select(key_cols + [value_col]).rename_columns(
                key_cols + [out_name])
        keys = [t[c].to_numpy(zero_copy_only=False) for c in key_cols]
        vals = t[value_col].to_numpy(zero_copy_only=False)
        order = np.lexsort(tuple(reversed(keys)))
        keys = [k[order] for k in keys]
        vals = vals[order]
        new = group_starts(*keys)
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(vals, starts)
        cols = {c: pa.array(k[starts]) for c, k in zip(key_cols, keys)}
        cols[out_name] = pa.array(sums)
        return pa.table(cols)

    return partitioned_group_map_arrow(ds, key_cols, block, num_partitions,
                                       out_schema=out_schema, pre=pre)


def group_starts(*key_arrays: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first row of each group in
    already-sorted key arrays."""
    n = len(key_arrays[0])
    if n == 0:
        return np.zeros(0, dtype=bool)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for k in key_arrays:
        new[1:] |= k[1:] != k[:-1]
    return new


def csr_expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row half-open ranges [lo_i, hi_i) into flat gather
    indices: returns (row_idx, take) where ``take`` concatenates every
    range and ``row_idx[j]`` is the i that produced ``take[j]``. The
    vectorized inner loop of windowed joins and probe-table lookups —
    output size is the true hit count, never a cross product."""
    cnt = hi - lo
    rows = np.repeat(np.arange(len(lo)), cnt)
    take = np.repeat(lo, cnt) + (np.arange(cnt.sum()) -
                                 np.repeat(np.cumsum(cnt) - cnt, cnt))
    return rows, take
