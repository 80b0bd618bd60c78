"""Joins: one broadcast-or-join helper over a partitioned hash join.

``broadcast_join`` is the engine's one small-side lookup (the J4
pair-signature attach, containment id prune and content attach,
cluster label attach and signature-member filter; SURVEY.md §2.4). It
stream-collects the right side under a byte cap (``collect_under_cap``)
into ONE Arrow table, ``ray.put``s it once (zero-copy through plasma)
and probes it per left block with Acero's ``pa.Table.join``, so the big
side never shuffles. The probe, and the caller's per-block ``post``
riding in the same task, go through ``groups.map_blocks``: over a
materialized left side (every scan-path join, the containment content
prune too: ``read_content`` returns a materialized dataset) that is
plain Ray tasks and no Ray Data execution. Past the cap it calls
``hash_join`` with the same ``how``; both routes keep every matching
right row.

``hash_join`` is the partitioned route. Ray 2.49's ``Dataset.join``
(Acero-backed) intermittently loses block schemas for empty partitions,
which poisons chained joins, so this module implements the portable
pattern instead: ONE raw-task hash shuffle on the key over both sides
(``partitioned_group_map_arrow`` — Ray's sort-based groupby costs
seconds of serial overhead per shuffle at bench scale), whose map tasks
conform each side to one superset schema (tagged with a side column),
and a C-speed ``pd.merge`` (or an ``is_in`` mask for semi/anti) per
partition. ``num_partitions`` bounds reducer memory; skewed keys can be
salted by raising it. Each side is converted to pandas separately
inside the reducer so the null padding of the other side's columns
never upcasts real values.
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
              how: str = "inner", num_partitions: int | None = None,
              right_dup: str = "unique") -> ray.data.Dataset:
    """Join two datasets on keys compared as strings.

    ``left_schema`` / ``right_schema``: the exact output columns taken
    from each side (right_schema must EXCLUDE its key column; its values
    are attached to matching left rows). Column names must be disjoint.
    how: "inner", "left", or "semi"/"anti" (left rows with / without a
    matching right key, each at most once; right_schema is then empty).
    right_dup: "unique" (default) keeps ONE right row per key (supply
    semantics — duplicates dropped with a logged warning); "expand"
    keeps every right row, so a left row matching k right rows emits k
    output rows (the fid64-collision resolution semantics: expansion
    can only add candidate rows for a downstream verifier to reject,
    never lose one).
    """
    import pyarrow.compute as pc

    from .groups import partitioned_group_map_arrow

    if right_dup not in ("unique", "expand"):
        raise ValueError(f"right_dup must be 'unique' or 'expand', "
                         f"got {right_dup!r}")
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
        if t.num_rows == 0:
            return out_schema.empty_table()
        if how in ("semi", "anti"):
            lt = t.filter(pc.equal(t[_SIDE], 0))
            rkeys = t.filter(pc.equal(t[_SIDE], 1))[_KEY].combine_chunks()
            hit = pc.is_in(lt[_KEY], value_set=rkeys)
            keep = hit if how == "semi" else pc.invert(hit)
            return lt.filter(keep).select(lcols).cast(out_schema)
        # sides pandas-ified SEPARATELY: the other side's null padding
        # never touches a side's real columns, so int64 stays int64
        ldf = t.filter(pc.equal(t[_SIDE], 0)) \
            .select([_KEY] + lcols).to_pandas()
        rdf = t.filter(pc.equal(t[_SIDE], 1)) \
            .select([_KEY] + rcols).to_pandas()
        if right_dup == "unique":
            # supply semantics: ONE right row per key. Duplicate right
            # keys are dropped — observable, never silent.
            n_dup = len(rdf)
            rdf = rdf.drop_duplicates(subset=[_KEY])
            n_dup -= len(rdf)
            if n_dup:
                import logging
                logging.getLogger(__name__).warning(
                    "hash_join: dropped %d duplicate right-side key rows "
                    "(supply-unique semantics)", n_dup)
        # right_dup == "expand": keep every right row; pd.merge expands
        # many-to-many, as the broadcast route's Acero join does
        m = ldf.merge(rdf, on=_KEY, how="left" if how == "left" else "inner",
                      suffixes=(False, False))
        cols = {}
        for f in out_schema:
            # from_pandas=True: unmatched-left NaN padding becomes null
            # (not a float upcast) for any output type
            cols[f.name] = pa.array(m[f.name], type=f.type, from_pandas=True)
        return pa.table(cols, schema=out_schema)

    # each side is conformed in the shuffle's own map tasks
    return partitioned_group_map_arrow(
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
    from .arrow_utils import as_table
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
        return pa.concat_tables(
            [as_table(b) for b in ray.get(refs)]).combine_chunks()
    schema = schema or arrow_schema_of(ds)
    return pa.table({}) if schema is None else schema.empty_table()


def broadcast_join(left: ray.data.Dataset, right: ray.data.Dataset,
                   key_left: str, key_right: str, how: str = "inner",
                   max_bytes: int = 2_000_000_000,
                   num_partitions: int | None = None,
                   post=None) -> ray.data.Dataset:
    """Join ``left`` with a presumed-small ``right`` on one key.

    ``how``: "inner", "left" (unmatched left rows get null right
    columns), "semi" or "anti" (left rows with / without a match, each
    at most once). Output: the left columns, then for inner/left the
    right columns without ``key_right`` (names must not clash). Key
    types must match. A left row matching k right rows gives k rows on
    both routes. ``post`` (``pa.Table -> pa.Table``, also called on an
    empty table to learn its output schema) runs on each joined block
    in the same task, so a follow-up map costs no pass of its own.

    Broadcast route: ``right`` is collected under ``max_bytes`` into one
    Arrow table, ``ray.put`` once, and joined with each left block by
    Acero (``use_threads=False``: the task already owns its CPU), through
    ``groups.map_blocks``: plain tasks over a materialized ``left``, a
    fused ``map_batches`` over a lazy one. Past the cap: the partitioned
    ``hash_join`` over a materialized ``left`` (its schema then comes
    from block metadata; fetching a lazy dataset's schema runs part of
    its plan and cancels the rest), then ``post`` as plain tasks. Row
    order is not kept. A right side without a schema (no rows, none
    reported) attaches no columns — Ray 2.49 reports the schema from
    BEFORE a transform of an executed-empty dataset, so pass an empty
    right side untransformed."""
    from .groups import map_blocks, materialized

    if how not in _JOIN_TYPES:
        raise ValueError(f"how must be one of {sorted(_JOIN_TYPES)}, "
                         f"got {how!r}")
    filtering = how in ("semi", "anti")     # right keys only
    rtbl = collect_under_cap(right, max_bytes)
    if rtbl is None:
        left = materialized(left)
        rs = pa.schema([] if filtering else
                       [f for f in arrow_schema_of(right)
                        if f.name != key_right])
        ls = arrow_schema_of(left)
        out = hash_join(left, right, key_left, key_right, ls, rs, how=how,
                        num_partitions=num_partitions, right_dup="expand")
        if post is None:
            return out
        joined = pa.schema(list(ls) + list(rs))
        return map_blocks(out, post, post(joined.empty_table()).schema)
    if filtering and rtbl.num_rows:
        rtbl = rtbl.select([key_right])

    ref = ray.put(rtbl)
    join_type = _JOIN_TYPES[how]

    def probe(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:      # schema-less empty block
            return t
        rt = ray.get(ref)
        if key_right not in rt.column_names:    # schema-less right
            out = t if how in ("anti", "left") else t.slice(0, 0)
        else:
            out = t.join(rt, keys=key_left, right_keys=key_right,
                         join_type=join_type, use_threads=False)
        return out if post is None else post(out)

    ls = arrow_schema_of(left) if isinstance(left, MaterializedDataset) \
        else None
    out_schema = pa.schema([]) if ls is None else \
        probe(ls.empty_table()).schema
    return map_blocks(left, probe, out_schema)
