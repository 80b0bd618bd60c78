"""Small Arrow helpers shared by stages."""

from __future__ import annotations

import pyarrow as pa


def as_table(block) -> pa.Table:
    """A Ray block (Arrow table or pandas frame) as an Arrow table."""
    return block if isinstance(block, pa.Table) \
        else pa.Table.from_pandas(block, preserve_index=False)


def ensure_schema(tb: pa.Table, schema: pa.Schema) -> pa.Table:
    """Ray's hash-join emits schema-less empty blocks for empty
    partitions; downstream joins then fail with 'No match for key
    field'. Coerce such blocks (and column order) to the expected
    schema."""
    if tb.num_rows == 0:
        return schema.empty_table()
    tb = tb.select(schema.names)
    if tb.schema != schema:
        tb = tb.cast(schema)
    return tb


def arrow_schema_of(ds) -> pa.Schema | None:
    """Arrow schema of a Dataset even when its blocks are pandas
    (PandasBlockSchema): numpy dtypes map via pandas; ``object`` columns
    in this engine are always strings. ``None`` while the schema is
    unknown (an executed-empty Dataset in Ray 2.49)."""
    import numpy as np

    schema = ds.schema()
    if schema is None:
        return None
    if isinstance(schema, pa.Schema):
        return schema
    base = getattr(schema, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, typ in zip(schema.names, schema.types):
        if isinstance(typ, pa.DataType):
            fields.append(pa.field(name, typ))
        elif isinstance(typ, np.dtype) and typ != np.dtype("O"):
            fields.append(pa.field(name, pa.from_numpy_dtype(typ)))
        else:
            fields.append(pa.field(name, pa.string()))
    return pa.schema(fields)


def rename_drop(tb: pa.Table, renames: dict[str, str], drops: tuple[str, ...]) -> pa.Table:
    names = [renames.get(c, c) for c in tb.column_names]
    tb = tb.rename_columns(names)
    present = [c for c in drops if c in tb.column_names]
    return tb.drop_columns(present) if present else tb


def fixed_str_view(col, width: int):
    """Zero-copy ``S{width}`` numpy view of a pyarrow string column
    whose values are AT MOST ``width`` bytes (key columns — file_ids
    are 32-hex): the uniform-width fast path views the Arrow data
    buffer directly instead of round-tripping every value through a
    Python str (``to_pylist``); other layouts (shorter values, chunked,
    sliced) take the pylist copy. Values LONGER than ``width`` or null
    raise — numpy's S-dtype would silently truncate (colliding distinct
    keys) or stringify None, corrupting downstream key comparisons."""
    import numpy as np

    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(a, pa.ChunkedArray):          # zero-chunk edge
        a = pa.array([], pa.string())
    n = len(a)
    if n == 0:
        return np.empty(0, dtype=f"S{width}")
    if a.null_count:
        raise ValueError("fixed_str_view: null key values")
    if pa.types.is_string(a.type):
        offs_buf, data_buf = a.buffers()[1], a.buffers()[2]
        offs = np.frombuffer(offs_buf, np.int32,
                             count=n + 1, offset=4 * a.offset)
        widths = np.diff(offs)
        if (widths == width).all():
            return np.frombuffer(data_buf, dtype=f"S{width}",
                                 count=n, offset=int(offs[0]))
    import pyarrow.compute as _pc
    wmax = _pc.max(_pc.binary_length(a)).as_py()
    if wmax is not None and wmax > width:
        raise ValueError(
            f"fixed_str_view: value of {wmax} bytes exceeds width "
            f"{width} (S-dtype would truncate and collide distinct "
            "keys)")
    return np.array(a.to_pylist(), dtype=f"S{width}")


def safe_coalesce(a, b):
    """``pc.coalesce`` with both inputs combined to a single chunk
    first. pyarrow 16.1.0's coalesce kernel mishandles validity bitmaps
    when its arguments have MISALIGNED chunk layouts (e.g. one 64-row
    chunk with nulls vs four 16-row chunks): re-slicing the bitmap
    leaks the masked-out garbage values through as if valid. Observed
    in situ (a null label coalesced to the searchsorted slot's raw
    value instead of the fallback column) and reproduced minimally in
    tests/test_functions.py::test_safe_coalesce_misaligned_chunks.
    Chunk layouts of a Ray batch's columns depend on block history, so
    EVERY coalesce of two table columns must go through here."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    if isinstance(b, pa.ChunkedArray):
        b = b.combine_chunks()
    return pc.coalesce(a, b)
