"""Joins: one broadcast-or-join helper over a partitioned hash join.

``broadcast_join`` is the engine's one small-side lookup (the J4
pair-signature attach past the verify cap, pair resolution,
containment id prune and content attach, cluster label attach,
signature-member filter and ``apply``'s path lookup; SURVEY.md §2.4).
It stream-collects the right side under a byte cap
(``collect_under_cap``) into ONE Arrow table, ``ray.put``s it once
(zero-copy through plasma) and probes it per left block with Acero's
``pa.Table.join``, so the big side never shuffles. A lookup for both
ends of a row takes a tuple key (``("a", "b")``): each left block is
joined on every key in one task, against the one put table, and each
key's right columns are named ``<col>_<key>``. The probe, and the
caller's per-block ``post`` riding in the same task after the last
key, go through ``groups.map_blocks``: over a materialized left side
(every scan-path join, the containment content prune too:
``read_content`` returns a materialized dataset) that is plain Ray
tasks and no Ray Data execution. Past the cap it calls ``hash_join``
once per key with the same ``how``; both routes keep every matching
right row.

``hash_join`` is the partitioned route. Ray 2.49's ``Dataset.join``
(Acero-backed) intermittently loses block schemas for empty partitions,
which poisons chained joins, so this module implements the portable
pattern instead: ONE raw-task hash shuffle on the key over both sides
(``groups.partitioned_group_map`` — Ray's sort-based groupby costs
seconds of serial overhead per shuffle at bench scale), whose map tasks
conform each side to one superset schema (tagged with a side column).
Each partition splits back into its left and right rows and joins them
with the broadcast probe's kernel, Acero's ``pa.Table.join``, so both
routes match rows one way: every matching right row, unmatched left
rows of a left join padded with nulls. ``num_partitions`` bounds
reducer memory; skewed keys can be salted by raising it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.dataset import MaterializedDataset

from .arrow_utils import arrow_schema_of

_KEY = "__jk"
_SIDE = "__side"


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
              key_left: str, key_right: str,
              left_schema: pa.Schema, right_schema: pa.Schema,
              how: str = "inner",
              num_partitions: int | None = None) -> ray.data.Dataset:
    """Join two datasets on keys compared as strings.

    ``left_schema`` / ``right_schema``: the exact output columns taken
    from each side (right_schema must EXCLUDE its key column; its values
    are attached to matching left rows). Column names must be disjoint.
    how: "inner", "left", or "semi"/"anti" (left rows with / without a
    matching right key, each at most once; right_schema is then empty).
    Every matching right row is kept, so a left row matching k right
    rows emits k output rows (the fid64-collision resolution semantics:
    expansion can only add candidate rows for a downstream verifier to
    reject, never lose one).
    """
    import pyarrow.compute as pc

    from .groups import partitioned_group_map

    lcols = left_schema.names
    rcols = right_schema.names
    super_fields = ([pa.field(_KEY, pa.string()), pa.field(_SIDE, pa.int8())]
                    + list(left_schema) + list(right_schema))
    super_schema = pa.schema(super_fields)

    def conform(key_col: str, own: pa.Schema, other: pa.Schema, side: int):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {_KEY: t[key_col].cast(pa.string()),
                    _SIDE: pa.array(np.full(n, side, dtype=np.int8))}
            for fld in own:
                c = t[fld.name]
                cols[fld.name] = c.cast(fld.type) if c.type != fld.type else c
            for fld in other:
                cols[fld.name] = pa.nulls(n, fld.type)
            return pa.table(cols, schema=super_schema)
        return f

    out_schema = pa.schema(list(left_schema) + list(right_schema))

    def merge_block(t: pa.Table) -> pa.Table:
        lt = t.filter(pc.equal(t[_SIDE], 0)).select([_KEY] + lcols)
        rt = t.filter(pc.equal(t[_SIDE], 1)).select([_KEY] + rcols)
        out = lt.join(rt, _KEY, join_type=_JOIN_TYPES[how], use_threads=False)
        return out.select(out_schema.names)

    # each side is conformed in the shuffle's own map tasks
    return partitioned_group_map(
        [left, right], [_KEY], merge_block, num_partitions,
        out_schema=out_schema,
        pre=[conform(key_left, left_schema, right_schema, 0),
             conform(key_right, right_schema, left_schema, 1)])


_JOIN_TYPES = {"inner": "inner", "left": "left outer",
               "semi": "left semi", "anti": "left anti"}


def collect_under_cap(ds: ray.data.Dataset,
                      max_bytes: int) -> pa.Table | None:
    """Collect a (presumed-small) dataset into this process as ONE Arrow
    table, or ``None`` once its blocks' metadata sizes outgrow
    ``max_bytes`` (a lazy dataset streams, and stops there). Blocks are
    fetched by ref: over a materialized dataset that costs no batching
    pipeline. Empty blocks are skipped (Ray 2.49's can arrive
    schema-less); an all-empty dataset gives its schema's empty table."""
    from .groups import blocks_of

    refs = []
    total = 0
    schema = None
    for ref, meta, block_schema in blocks_of(ds):
        if schema is None and isinstance(block_schema, pa.Schema):
            schema = block_schema
        if meta.num_rows == 0:
            continue
        total += meta.size_bytes or 0
        if total > max_bytes:
            return None
        refs.append(ref)
    if refs:
        return pa.concat_tables(ray.get(refs)).combine_chunks()
    schema = schema or arrow_schema_of(ds)
    return pa.table({}) if schema is None else schema.empty_table()


def _suffixed(t: pa.Table, key: str, suffix: str) -> pa.Table:
    """``t`` with every column but ``key`` renamed ``<col><suffix>``."""
    return t.rename_columns([n if n == key else n + suffix
                             for n in t.column_names])


def broadcast_join(left: ray.data.Dataset, right: ray.data.Dataset,
                   key_left: str | tuple[str, ...], key_right: str,
                   how: str = "inner", max_bytes: int = 2_000_000_000,
                   num_partitions: int | None = None,
                   post=None) -> ray.data.Dataset:
    """Join ``left`` with a presumed-small ``right`` on one key, or on
    each key of a tuple ``key_left`` in turn (both ends of a pair,
    ``("a", "b")``).

    ``how``: "inner", "left" (unmatched left rows get null right
    columns), "semi" or "anti" (left rows with / without a match, each
    at most once). Output: the left columns, then for inner/left the
    right columns without ``key_right`` (names must not clash); with a
    tuple key each key's right columns are named ``<col>_<key>``
    (``f_a``, ``f_b``), in key order. Key types must match. A left row
    matching k right rows gives k rows on both routes. ``post``
    (``pa.Table -> pa.Table``, also called on an empty table to learn
    its output schema) runs on each joined block after the last key, in
    the same task, so a follow-up map costs no pass of its own.

    Broadcast route: ``right`` is collected under ``max_bytes`` into one
    Arrow table, ``ray.put`` once, and each left block is joined with it
    on every key in one task by Acero (``use_threads=False``: the task
    already owns its CPU), through ``groups.map_blocks``: plain tasks
    over a materialized ``left``, a fused ``map_batches`` over a lazy
    one. Past the cap: one partitioned ``hash_join`` per key over a
    materialized ``left`` (its schema then comes from block metadata;
    fetching a lazy dataset's schema runs part of its plan and cancels
    the rest), then ``post`` as plain tasks. Row order is not kept. A
    right side without a schema (no rows, none reported) attaches no
    columns — Ray 2.49 reports the schema from BEFORE a transform of an
    executed-empty dataset, so pass an empty right side untransformed."""
    from .groups import map_blocks, materialized

    if how not in _JOIN_TYPES:
        raise ValueError(f"how must be one of {sorted(_JOIN_TYPES)}, "
                         f"got {how!r}")
    keys = [(key_left, "")] if isinstance(key_left, str) else \
        [(k, f"_{k}") for k in key_left]
    filtering = how in ("semi", "anti")     # right keys only
    rtbl = collect_under_cap(right, max_bytes)
    if rtbl is None:
        out = materialized(left)
        ls = arrow_schema_of(out)
        rfull = arrow_schema_of(right)
        rs = pa.schema([] if filtering else
                       [f for f in rfull if f.name != key_right])
        for k, suffix in keys:
            rk = right if not suffix else map_blocks(
                right, lambda t, s=suffix: _suffixed(t, key_right, s),
                _suffixed(rfull.empty_table(), key_right, suffix).schema)
            ks = _suffixed(rs.empty_table(), key_right, suffix).schema
            out = hash_join(out, rk, k, key_right, ls, ks, how=how,
                            num_partitions=num_partitions)
            ls = pa.schema(list(ls) + list(ks))
        if post is None:
            return out
        return map_blocks(out, post, post(ls.empty_table()).schema)
    if filtering and rtbl.num_rows:
        rtbl = rtbl.select([key_right])

    ref = ray.put(rtbl)
    join_type = _JOIN_TYPES[how]

    def probe(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:      # schema-less empty block
            return t
        rt = ray.get(ref)
        for k, suffix in keys:
            if key_right not in rt.column_names:    # schema-less right
                t = t if how in ("anti", "left") else t.slice(0, 0)
            else:
                t = t.join(_suffixed(rt, key_right, suffix), keys=k,
                           right_keys=key_right, join_type=join_type,
                           use_threads=False)
        return t if post is None else post(t)

    ls = arrow_schema_of(left) if isinstance(left, MaterializedDataset) \
        else None
    out_schema = pa.schema([]) if ls is None else \
        probe(ls.empty_table()).schema
    return map_blocks(left, probe, out_schema)
