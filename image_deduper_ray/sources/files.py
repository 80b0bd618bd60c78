"""Discovery source: reading the files table.

Analog of ``discover_images`` / ``discover_images_in_directory``
(/root/reference/crates/image-deduper-core/src/discovery/mod.rs:16-109):
the recursive WalkDir + filters becomes the Parquet read itself —
multi-root fan-out is a list of paths, and the extension/format
predicate (lang), the excluded-directories filter (path prefixes) and
the hidden-path filter are one vectorized row mask (``row_mask``) that
every reader applies. Per-file metadata (S3, discovery/mod.rs:119-128)
becomes derived columns computed in the same batch pass.

One reader: ``read_unit`` reads one input unit (a file, or some of a
Parquet file's row groups) in a plain Ray task, with the file list of
Ray's own reader (``_input_files``), the hive directory columns, the
row mask and the ``file_id``. The scan's signature tasks read their
units through it (``input_units``), and ``read_content`` looks up the
content of a few file ids again (the containment candidates) with one
task per input file, reading a Parquet file's ``content`` only in the
row groups that hold one of the ids. Neither starts a Ray Data
execution. ``read_files``, the lazy Ray Data read, is the reference the
tests compare them with.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions import hashing
from ..functions.arrow_utils import ensure_schema
from ..functions.groups import _dataset_of, _with_meta, table_dataset


FILES_COLUMNS = ["repo", "path", "commit", "lang", "content"]
# the rows ``read_unit`` returns
UNIT_SCHEMA = pa.schema([(c, pa.string()) for c in FILES_COLUMNS + ["file_id"]])
CONTENT_SCHEMA = pa.schema([("file_id", pa.string()), ("content", pa.string())])


def _sniff_format(paths: str | list[str]) -> str:
    """File-extension sniff over the first path entry (the
    magic-bytes-dispatch analog, M14): parquet | json | csv."""
    p = paths[0] if isinstance(paths, (list, tuple)) else paths
    if os.path.isdir(p):
        for f in sorted(os.listdir(p)):
            if f.startswith(("_", ".")):   # markers/manifests, not data
                continue
            ext = f.rsplit(".", 1)[-1].lower()
            if ext in ("parquet", "json", "jsonl", "csv"):
                return "json" if ext in ("json", "jsonl") else ext
        return "parquet"
    ext = p.rsplit(".", 1)[-1].lower()
    return {"json": "json", "jsonl": "json", "csv": "csv"}.get(ext, "parquet")


def row_mask(t: pa.Table, *, langs: list[str] | None = None,
             exclude_path_prefixes: list[str] | None = None,
             include_hidden: bool = False):
    """The rows of a files-table block a scan reads, as a boolean mask
    (``None``: every row): the lang filter (the supported-format
    predicate, types.rs:38-44), the excluded-directories filter
    (discovery/mod.rs:68-72) and the hidden '.'-segment filter
    (discovery/mod.rs:61-66). A null ``lang`` or ``path`` gives a null,
    which ``Table.filter`` drops. Every reader of the files table
    (``read_files``, ``read_unit``) filters with it."""
    conds = []
    if langs is not None:
        conds.append(pc.is_in(t["lang"], value_set=pa.array(langs, pa.string())))
    for p in exclude_path_prefixes or ():
        conds.append(pc.invert(pc.starts_with(t["path"], p)))
    if not include_hidden:
        # any path segment starting with '.'
        conds.append(pc.invert(pc.match_substring_regex(t["path"], r"(^|/)\.")))
    if not conds:
        return None
    mask = conds[0]
    for c in conds[1:]:
        mask = pc.and_(mask, c)
    return mask


def add_file_id(t: pa.Table) -> pa.Table:
    """``t`` with its ``file_id`` column (``hashing.file_ids`` of repo,
    path and commit) appended."""
    fids = hashing.file_ids(t["repo"].to_pylist(), t["path"].to_pylist(),
                            t["commit"].to_pylist())
    return t.append_column("file_id", pa.array(fids, pa.string()))


def _conform(t: pa.Table, file_format: str, src_desc) -> pa.Table:
    """A JSONL/CSV block as the files table: FILES_COLUMNS, as strings."""
    # validate before projecting: a hand-rolled JSONL/CSV file missing
    # a column should name the column and the source, not surface as a
    # bare KeyError deep inside a Ray task
    missing = [c for c in FILES_COLUMNS if c not in t.column_names]
    if missing and t.num_rows:
        raise ValueError(
            f"{file_format} source {src_desc!r} is missing "
            f"required files-table column(s) {missing}; "
            f"expected {FILES_COLUMNS}, got {t.column_names}")
    if t.num_rows == 0:
        return pa.table({c: pa.array([], pa.string()) for c in FILES_COLUMNS})
    return pa.table({c: t[c].cast(pa.string()) for c in FILES_COLUMNS})


def read_files(paths: str | list[str], *, langs: list[str] | None = None,
               exclude_path_prefixes: list[str] | None = None,
               include_hidden: bool = False,
               override_num_blocks: int | None = None,
               file_format: str = "auto") -> ray.data.Dataset:
    """Read the files table, lazily, with the scan's row filters.

    ``file_format``: 'parquet' (default), 'json' (JSONL) or 'csv' —
    'auto' sniffs the extension. Columns are conformed to FILES_COLUMNS
    either way (the row formats cast to strings), so every downstream
    stage is format-agnostic. Rows are kept by ``row_mask`` (langs,
    ``exclude_path_prefixes``, hidden paths unless ``include_hidden``),
    one vectorized batch predicate fused into the read."""
    if file_format == "auto":
        file_format = _sniff_format(paths)
    kw = {"override_num_blocks": override_num_blocks} \
        if override_num_blocks else {}
    if file_format == "parquet":
        ds = ray.data.read_parquet(paths, columns=FILES_COLUMNS, **kw)
    else:
        if file_format == "json":
            ds = ray.data.read_json(paths, **kw)
        elif file_format == "csv":
            ds = ray.data.read_csv(paths, **kw)
        else:
            raise ValueError(f"unknown file_format {file_format!r}")
        src_desc = paths if isinstance(paths, str) else ", ".join(paths)
        ds = ds.map_batches(lambda t: _conform(t, file_format, src_desc),
                            batch_format="pyarrow", zero_copy_batch=True)

    if langs is not None or exclude_path_prefixes or not include_hidden:
        def _filter(batch: pa.Table) -> pa.Table:
            return batch.filter(row_mask(
                batch, langs=langs, exclude_path_prefixes=exclude_path_prefixes,
                include_hidden=include_hidden))

        ds = ds.map_batches(_filter, batch_format="pyarrow", zero_copy_batch=True)
    return ds


def _input_files(paths: str | list[str], file_format: str) -> list[str]:
    """The files a Ray Data read of ``paths`` opens, in its order: for
    Parquet, the files PyArrow's dataset discovery finds (recursive,
    skipping '.'- and '_'-prefixed names, as ``read_parquet`` does);
    for JSONL/CSV, Ray's own path expansion (recursive, every file) and,
    for JSONL, its extension filter."""
    from ray.data._internal.datasource.json_datasource import \
        JSON_FILE_EXTENSIONS
    from ray.data.datasource.file_meta_provider import \
        DefaultFileMetadataProvider
    from ray.data.datasource.path_util import (_has_file_extension,
                                               _resolve_paths_and_filesystem)

    resolved, fs = _resolve_paths_and_filesystem(paths)
    if file_format == "parquet":
        return list(pq.ParquetDataset(
            resolved[0] if len(resolved) == 1 else resolved,
            filesystem=fs, partitioning=None).files)
    files = [p for p, _ in DefaultFileMetadataProvider().expand_paths(resolved, fs)]
    if file_format == "json":
        files = [p for p in files if _has_file_extension(p, JSON_FILE_EXTENSIONS)]
    return files


def _with_partitions(t: pa.Table, path: str) -> pa.Table:
    """``t`` plus the hive ``key=value`` directories of ``path`` as
    columns it lacks (a column the file holds wins, as in Ray's read)."""
    from ray.data.datasource.partitioning import (Partitioning,
                                                  PathPartitionParser)

    for k, v in PathPartitionParser(Partitioning("hive"))(path).items():
        if k not in t.column_names:
            t = t.append_column(k, pa.array([v] * t.num_rows, pa.string()))
    return t


def _read_row_file(path: str, file_format: str) -> pa.Table:
    """A whole JSONL or CSV input file, read with the options of Ray's
    datasources and conformed to FILES_COLUMNS."""
    if file_format == "json":
        import pyarrow.json as pajson

        # one block for the whole file: a line straddling the default
        # 1 MiB block fails to parse (Ray's reader retries with larger
        # blocks)
        t = pajson.read_json(path, read_options=pajson.ReadOptions(
            use_threads=False,
            block_size=max(1 << 20, os.path.getsize(path) + 1)))
    else:
        import pyarrow.csv as pacsv

        t = pacsv.read_csv(path, read_options=pacsv.ReadOptions(
            use_threads=False))
    return _conform(_with_partitions(t, path), file_format, path)


def read_unit(path: str, file_format: str, row_groups: list[int] | None = None,
              *, langs: list[str] | None = None,
              exclude_path_prefixes: list[str] | None = None,
              ids=None, drop_ids: bool = False) -> tuple:
    """The rows of one input unit that pass ``row_mask`` (hidden paths
    always dropped) and the id filter: unless ``ids`` is None, the rows
    whose ``file_id`` is in ``ids`` or, with ``drop_ids``, is not.
    Returns ``(table, row groups, row groups read)``; the table holds
    FILES_COLUMNS and ``file_id``, in input order.

    A unit is a JSONL or CSV file, read whole and counted as one row
    group, or the ``row_groups`` of a Parquet file (``None``: all of
    them). A Parquet file is read row group by row group, and a row
    group's ``content`` only when it holds a kept row, so the caller
    holds one unit's rows at a time. Every reader of the input
    (``read_content``, the signature tasks) reads through here, so the
    file and row rules live in one place."""
    def kept(t: pa.Table) -> tuple:
        t = add_file_id(_with_partitions(t, path))
        # never None: hidden paths are always dropped
        keep = row_mask(t, langs=langs, exclude_path_prefixes=exclude_path_prefixes)
        if ids is not None:
            hit = pc.is_in(t["file_id"], value_set=ids)
            keep = pc.and_(keep, pc.invert(hit) if drop_ids else hit)
        keep = pc.fill_null(keep, False)
        return t.filter(keep), keep

    columns = UNIT_SCHEMA.names
    outs = []
    if file_format == "parquet":
        pf = pq.ParquetFile(path)
        key_cols = [c for c in ("repo", "path", "commit", "lang")
                    if c in pf.schema_arrow.names]
        groups = range(pf.num_row_groups) if row_groups is None else row_groups
        for i in groups:
            t, keep = kept(pf.read_row_group(i, columns=key_cols))
            if t.num_rows:
                content = pf.read_row_group(i, columns=["content"])["content"]
                outs.append(t.append_column("content", content.filter(keep))
                            .select(columns))
        n_groups = len(groups)
    else:
        t, _ = kept(_read_row_file(path, file_format))
        if t.num_rows:
            outs.append(t.select(columns))
        n_groups = 1
    if not outs:
        return UNIT_SCHEMA.empty_table(), n_groups, 0
    return pa.concat_tables(outs), n_groups, len(outs)


def input_units(paths: str | list[str], min_rows: int) -> tuple:
    """The input's format and its ``(file, row groups)`` units, in read
    order: each JSONL or CSV file whole (``None``), each Parquet file as
    runs of consecutive whole row groups holding at least ``min_rows``
    rows (the last run of a file may hold fewer). A Parquet file without
    a row group gives no unit. Reads each Parquet footer on the driver."""
    file_format = _sniff_format(paths)
    units = []
    for f in _input_files(paths, file_format):
        if file_format != "parquet":
            units.append((f, None))
            continue
        md = pq.read_metadata(f)
        run, n = [], 0
        for i in range(md.num_row_groups):
            run.append(i)
            n += md.row_group(i).num_rows
            if n >= min_rows:
                units.append((f, run))
                run, n = [], 0
        if run:
            units.append((f, run))
    return file_format, units


@ray.remote(num_returns=3)
def _content_task(path: str, file_format: str, ids, langs, prefixes):
    """The ``(file_id, content)`` rows of one input file that pass
    ``row_mask`` and, unless ``ids`` is None, whose ``file_id`` is in
    ``ids`` (``read_unit``); returns ``(block, metadata, (row groups,
    row groups read))``."""
    t, n_groups, n_read = read_unit(path, file_format, langs=langs,
                                    exclude_path_prefixes=prefixes, ids=ids)
    return (*_with_meta(ensure_schema(t, CONTENT_SCHEMA)), (n_groups, n_read))


def read_content(paths: str | list[str], ids: pa.Array | None, *,
                 langs: list[str] | None = None,
                 exclude_path_prefixes: list[str] | None = None) -> tuple:
    """The ``(file_id, content)`` rows of ``ids`` in the files table at
    ``paths``: the rows ``read_files(paths, langs=...,
    exclude_path_prefixes=...)`` holds for those ids, read by one plain
    Ray task per input file (no Ray Data execution). ``ids`` is
    ``ray.put`` once; ``None`` gives every row. Returns the materialized
    dataset (one block per input file, ``CONTENT_SCHEMA``) and the
    counts ``files_read``, ``row_groups_total`` and ``row_groups_read``
    (the row groups whose ``content`` was read)."""
    file_format = _sniff_format(paths)
    files = [] if ids is not None and len(ids) == 0 \
        else _input_files(paths, file_format)
    counts = {"files_read": len(files), "row_groups_total": 0,
              "row_groups_read": 0}
    if not files:
        return table_dataset(CONTENT_SCHEMA.empty_table()), counts
    ref = None if ids is None else ray.put(ids)
    outs = [_content_task.remote(f, file_format, ref, langs,
                                 exclude_path_prefixes) for f in files]
    ds = _dataset_of([(b, m) for b, m, _ in outs])
    for n_groups, n_read in ray.get([c for _, _, c in outs]):
        counts["row_groups_total"] += n_groups
        counts["row_groups_read"] += n_read
    return ds, counts
