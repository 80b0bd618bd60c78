"""Explicit partitioned hash join (hash shuffle -> per-partition merge).

Ray 2.49's ``Dataset.join`` (Acero-backed) intermittently loses block
schemas for empty partitions, which poisons chained joins. This module
implements the portable pattern instead: conform both sides to one
superset schema (tagged with a side column), union, ONE raw-task hash
shuffle on the key (``partitioned_group_map_arrow`` — Ray's sort-based
groupby costs seconds of serial overhead per shuffle at bench scale),
and a C-speed ``pd.merge`` per partition. ``num_partitions`` bounds
reducer memory; skewed keys can be salted by raising it. Each side is
converted to pandas separately inside the reducer so the null padding
of the other side's columns never upcasts real values.

This is the J4 pair-signature attach / containment content attach /
cluster left-outer assign primitive (SURVEY.md §2.4).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

_KEY = "__jk"
_SIDE = "__side"


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
              key_left: str, key_right: str,
              left_schema: pa.Schema, right_schema: pa.Schema,
              how: str = "inner", num_partitions: int | None = None,
              right_dup: str = "unique") -> ray.data.Dataset:
    """Join two datasets on string keys.

    ``left_schema`` / ``right_schema``: the exact output columns taken
    from each side (right_schema must EXCLUDE its key column; its values
    are attached to matching left rows). Column names must be disjoint.
    how: "inner" or "left".
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

    both = (left.map_batches(conform(key_left, left_schema, right_schema, 0),
                             batch_format="pyarrow", zero_copy_batch=True)
            .union(right.map_batches(
                conform(key_right, right_schema, left_schema, 1),
                batch_format="pyarrow", zero_copy_batch=True)))

    out_schema = pa.schema(list(left_schema) + list(right_schema))

    def merge_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
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
        # many-to-many (fid64-collision resolution parity with the
        # broadcast path's expansion)
        m = ldf.merge(rdf, on=_KEY, how="left" if how == "left" else "inner",
                      suffixes=(False, False))
        cols = {}
        for f in out_schema:
            # from_pandas=True: unmatched-left NaN padding becomes null
            # (not a float upcast) for any output type
            cols[f.name] = pa.array(m[f.name], type=f.type, from_pandas=True)
        return pa.table(cols, schema=out_schema)

    return partitioned_group_map_arrow(both, [_KEY], merge_block,
                                       num_partitions,
                                       out_schema=out_schema)


def collect_i64_under_cap(ds: ray.data.Dataset, cols: list[str],
                          max_bytes: int) -> list[np.ndarray] | None:
    """Stream-collect int64 columns of a (presumed-small) dataset onto
    the driver under a byte budget. Returns the concatenated arrays, or
    ``None`` the moment the budget is exceeded — the caller falls back
    to a distributed route. The shared guard for every
    broadcast-small-side optimization (label attach, semi-join prune)."""
    parts: list[list[np.ndarray]] = [[] for _ in cols]
    total = 0
    for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if b.num_rows == 0:
            # Ray 2.49 empty partitions can arrive schema-less; a
            # NON-empty batch missing a column must still raise below
            # (silently dropping rows would corrupt both call sites)
            continue
        for i, c in enumerate(cols):
            a = b[c].to_numpy(zero_copy_only=False).astype(np.int64)
            parts[i].append(a)
            total += a.nbytes
        if total > max_bytes:
            return None
    return [np.concatenate(p) if p else np.empty(0, np.int64)
            for p in parts]


def broadcast_attach_str(left: ray.data.Dataset, key_left: str,
                         right: ray.data.Dataset, key_right: str,
                         val_col: str, out_col: str,
                         max_bytes: int = 256 << 20,
                         num_partitions: int | None = None
                         ) -> ray.data.Dataset:
    """Left-attach ONE string value column by STRING key — the
    cluster-label attach shape (labels cover only the nodes that appear
    in an edge; the full file stream is the big side). The right side
    is collected streaming under ``max_bytes`` into ONE Arrow table and
    broadcast via ``ray.put`` (Arrow is zero-copy through plasma —
    never a Python dict, which is stored pickled and re-unpickled per
    worker); each batch probes with ``index_in``/``take`` C kernels, so
    the big side never shuffles at all. Past the byte cap it falls back
    to the partitioned ``hash_join``. Right keys must be UNIQUE (labels
    are); unmatched left keys get null ``out_col``."""
    import pyarrow.compute as pc
    import ray as _ray

    parts: list[pa.Table] | None = []
    total = 0
    for b in right.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        total += b.nbytes
        if total > max_bytes:
            parts = None
            break
        parts.append(b.select([key_right, val_col]))

    out_field = pa.field(out_col, pa.string())

    if parts is None:
        key_str = "__battach_k"
        l2 = left.map_batches(
            lambda t: t.append_column(key_str,
                                      t[key_left].cast(pa.string())),
            batch_format="pyarrow", zero_copy_batch=True)
        r2 = right.map_batches(
            lambda t: pa.table({
                "__battach_rk": t[key_right].cast(pa.string()),
                out_col: t[val_col].cast(pa.string())}),
            batch_format="pyarrow", zero_copy_batch=True)
        s = left.schema(fetch_if_missing=True)
        lschema = pa.schema(list(zip(s.names, s.types))
                            + [(key_str, pa.string())])
        j = hash_join(l2, r2, key_str, "__battach_rk", lschema,
                      pa.schema([out_field]), how="left",
                      num_partitions=num_partitions)
        return j.map_batches(lambda t: t.drop_columns([key_str]),
                             batch_format="pyarrow")

    rtbl = pa.concat_tables(parts).combine_chunks() if parts \
        else pa.table({key_right: pa.array([], pa.string()),
                       val_col: pa.array([], pa.string())})
    ref = _ray.put(rtbl)

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.string()))
        rt = _ray.get(ref)
        keys = rt[key_right].combine_chunks() \
            if isinstance(rt[key_right], pa.ChunkedArray) \
            else rt[key_right]
        idx = pc.index_in(t[key_left], value_set=keys)
        vals = pc.take(rt[val_col], idx)    # null idx -> null value
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        return t.append_column(out_col, vals.cast(pa.string()))

    return left.map_batches(attach, batch_format="pyarrow",
                            zero_copy_batch=True)


def broadcast_attach_i64(left: ray.data.Dataset, key_left: str,
                         right: ray.data.Dataset, key_right: str,
                         val_col: str, out_col: str,
                         max_bytes: int = 64 << 20,
                         num_partitions: int | None = None
                         ) -> ray.data.Dataset:
    """Left-attach ONE int64 value column by int64 key. The common
    dedup shape — attach cluster labels (small: only nodes that appear
    in an edge) to the full id stream — does not need a shuffle at all:
    the right side is collected streaming under ``max_bytes``, sorted
    once, broadcast once via ``ray.put``, and every batch resolves with
    a vectorized searchsorted. Past the byte cap it falls back to the
    partitioned ``hash_join``.

    Right keys are expected UNIQUE (cluster labels are): left-join
    semantics then match on both routes (``out_col`` null where the key
    has no match). With duplicate right keys the two routes pick one
    value differently (broadcast: first in stream order; fallback:
    arbitrary shuffle-arrival order) — don't rely on it."""
    import ray as _ray

    collected = collect_i64_under_cap(right, [key_right, val_col],
                                      max_bytes)
    fits = collected is not None

    out_field = pa.field(out_col, pa.int64())

    if not fits:
        key_str = "__battach_k"
        l2 = left.map_batches(
            lambda t: t.append_column(
                key_str, t[key_left].cast(pa.string())),
            batch_format="pyarrow", zero_copy_batch=True)
        r2 = right.map_batches(
            lambda t: pa.table({
                "__battach_rk": t[key_right].cast(pa.string()),
                out_col: t[val_col].cast(pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
        s = left.schema(fetch_if_missing=True)
        lschema = pa.schema(list(zip(s.names, s.types))
                            + [(key_str, pa.string())])
        j = hash_join(l2, r2, key_str, "__battach_rk", lschema,
                      pa.schema([out_field]), how="left",
                      num_partitions=num_partitions)
        return j.map_batches(lambda t: t.drop_columns([key_str]),
                             batch_format="pyarrow")

    ks, vs = collected
    order = np.argsort(ks, kind="stable")
    ks, vs = ks[order], vs[order]
    ref = _ray.put((ks, vs))

    def attach(t: pa.Table) -> pa.Table:
        ks_, vs_ = _ray.get(ref)
        n = t.num_rows
        if n == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        ids = t[key_left].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ks_) == 0:
            return t.append_column(out_col, pa.nulls(n, pa.int64()))
        pos = np.searchsorted(ks_, ids).clip(0, len(ks_) - 1)
        hit = ks_[pos] == ids
        return t.append_column(
            out_col, pa.array(vs_[pos], pa.int64(),
                              mask=~hit))

    return left.map_batches(attach, batch_format="pyarrow",
                            zero_copy_batch=True)
