"""Discovery-source tests (read filters + projections)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from image_deduper_ray.sources.files import (CONTENT_SCHEMA, add_file_id,
                                             read_content, read_files)


def _write(tmp_path):
    t = pa.table({
        "repo": ["r"] * 6,
        "path": ["src/a.py", "vendor/b.js", ".hidden/c.py", "src/.d.py",
                 "src/e.RS", "src/noext"],
        "commit": ["c"] * 6,
        "lang": ["py", "js", "py", "py", "rs", "txt"],
        "content": ["x"] * 6,
    })
    p = str(tmp_path / "files.parquet")
    pq.write_table(t, p)
    return p


def test_lang_pushdown_and_filters(tmp_path):
    p = _write(tmp_path)
    got = read_files(p, langs=["py"]).to_pandas()
    # hidden path segments dropped (discovery/mod.rs:61-66 analog)
    assert sorted(got.path) == ["src/a.py"]

    got2 = read_files(p, exclude_path_prefixes=["vendor/"]).to_pandas()
    assert "vendor/b.js" not in set(got2.path)

    got3 = read_files(p, include_hidden=True, langs=["py"]).to_pandas()
    assert sorted(got3.path) == [".hidden/c.py", "src/.d.py", "src/a.py"]


def test_row_format_sources_match_parquet(tmp_path):
    """JSONL and CSV sources must conform to the same files schema and
    pass the same filters — every downstream stage is format-agnostic
    (S1/S2 over a second and third source format)."""
    import csv
    import json

    rows = [
        {"repo": "r", "path": "src/a.py", "commit": "c", "lang": "py",
         "content": "def a(): pass"},
        {"repo": "r", "path": "vendor/b.js", "commit": "c", "lang": "js",
         "content": "function b() {}"},
        {"repo": "r", "path": ".hidden/c.py", "commit": "c", "lang": "py",
         "content": "def c(): pass"},
    ]
    jp = str(tmp_path / "files.jsonl")
    with open(jp, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    cp = str(tmp_path / "files.csv")
    with open(cp, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    for p in (jp, cp):
        df = read_files(p).to_pandas()           # auto-sniffed format
        assert list(df.columns) == ["repo", "path", "commit", "lang",
                                    "content"]
        assert sorted(df.path) == ["src/a.py", "vendor/b.js"]  # hidden cut
        only_py = read_files(p, langs=["py"],
                             include_hidden=True).to_pandas()
        assert sorted(only_py.path) == [".hidden/c.py", "src/a.py"]


def _rows(ds) -> list[tuple]:
    return sorted((r["file_id"], r["content"]) for r in ds.take_all())


def _lookup_matches_read_files(paths, ids, **kw) -> dict:
    """Assert that ``read_content`` gives the rows of ``read_files``
    semi-joined on ``file_id`` with ``ids`` (every row for ``ids=None``);
    returns its counts."""
    blocks = ray.get(read_files(paths, **kw).materialize().to_arrow_refs())
    # empty blocks may come schema-less
    files = add_file_id(pa.concat_tables(
        [b for b in blocks if b.num_rows] or [_table(0)]))
    if ids is not None:
        files = files.filter(pc.is_in(files["file_id"], value_set=ids))
    want = sorted(zip(files["file_id"].to_pylist(),
                      files["content"].to_pylist()))
    ds, counts = read_content(paths, ids, **kw)
    assert _rows(ds) == want
    assert ds.schema().base_schema == CONTENT_SCHEMA
    return counts


def _ids(t: pa.Table, rows) -> pa.Array:
    fids = add_file_id(t)["file_id"]
    return pa.array([fids[i].as_py() for i in rows], pa.string())


def _table(n: int, tag: str = "") -> pa.Table:
    return pa.table({
        "repo": ["r"] * n, "path": [f"src/{tag}{i}.py" for i in range(n)],
        "commit": ["c"] * n, "lang": ["py"] * n,
        "content": [f"body {tag}{i}" for i in range(n)]})


def test_content_lookup_reads_only_candidate_row_groups(tmp_path):
    """Three row groups of 10 rows, candidates in the middle one only:
    the lookup reads that row group's ``content`` and no other."""
    t = _table(30)
    p = str(tmp_path / "files.parquet")
    pq.write_table(t, p, row_group_size=10)
    counts = _lookup_matches_read_files(p, _ids(t, [11, 14, 19]))
    assert counts == {"files_read": 1, "row_groups_total": 3,
                      "row_groups_read": 1}
    # no ids: every row, every row group
    counts = _lookup_matches_read_files(p, None)
    assert counts["row_groups_read"] == 3


def test_content_lookup_lists_files_as_the_parquet_read(tmp_path):
    """A marker file, a '.'-prefixed Parquet file and a hive
    ``lang=py/`` subdirectory: the lookup reads the files the Parquet
    read reads (the hidden one is skipped although its ids are asked
    for), and a hive directory fills a column its files lack."""
    d = tmp_path / "in"
    (d / "lang=py").mkdir(parents=True)
    top, hidden, hive = _table(4, "t"), _table(3, "h"), _table(5, "p")
    pq.write_table(top, str(d / "part-0.parquet"))
    pq.write_table(hidden, str(d / ".x.parquet"))
    pq.write_table(hive, str(d / "lang=py" / "part-1.parquet"))
    (d / "_SUCCESS").write_text("")
    ids = pa.concat_arrays([_ids(top, [0, 3]), _ids(hidden, [0, 1, 2]),
                            _ids(hive, [2])])
    counts = _lookup_matches_read_files(str(d), ids)
    assert counts["files_read"] == 2
    assert _lookup_matches_read_files(str(d), ids, langs=["py"]) == counts

    h = tmp_path / "hive"
    for lang in ("py", "js"):
        (h / f"lang={lang}").mkdir(parents=True)
        pq.write_table(_table(3, lang).drop_columns(["lang"]),
                       str(h / f"lang={lang}" / "part-0.parquet"))
    ids = pa.concat_arrays([_ids(_table(3, lang), [0, 2])
                            for lang in ("py", "js")])
    _lookup_matches_read_files(str(h), ids, langs=["js"])
    _lookup_matches_read_files(str(h), ids)


@pytest.mark.parametrize("kw", [
    {}, {"langs": ["py"]}, {"exclude_path_prefixes": ["vendor/"]},
    {"langs": ["py", "rs"], "exclude_path_prefixes": ["src/n", "x"]}],
    ids=["hidden", "langs", "prefix", "langs_prefixes"])
def test_content_lookup_filters_as_read_files(tmp_path, kw):
    """Langs, excluded prefixes and hidden paths drop the same rows as
    in ``read_files``, even when their ids are asked for."""
    p = _write(tmp_path)
    t = pq.read_table(p)
    _lookup_matches_read_files(p, _ids(t, range(t.num_rows)), **kw)


def test_content_lookup_of_no_ids_is_typed_empty(tmp_path):
    p = _write(tmp_path)
    ds, counts = read_content(p, pa.array([], pa.string()))
    assert ds.count() == 0
    assert ds.schema().base_schema == CONTENT_SCHEMA
    assert counts == {"files_read": 0, "row_groups_total": 0,
                      "row_groups_read": 0}


def _write_rows(rows: list[dict], path: str, fmt: str) -> None:
    import csv
    import json

    if fmt == "jsonl":
        with open(path, "w") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
    else:
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_content_lookup_over_row_formats(tmp_path, fmt):
    """A JSONL or CSV input is read whole, one row group per file, and
    conformed and filtered as in ``read_files``."""
    t = pq.read_table(_write(tmp_path))
    d = tmp_path / fmt
    d.mkdir()
    rows = t.to_pylist()
    _write_rows(rows[:3], str(d / f"a.{fmt}"), fmt)
    _write_rows(rows[3:], str(d / f"b.{fmt}"), fmt)
    ids = _ids(t, [0, 1, 2, 4])
    counts = _lookup_matches_read_files(str(d), ids)
    assert counts == {"files_read": 2, "row_groups_total": 2,
                      "row_groups_read": 2}
    _lookup_matches_read_files(str(d), ids, langs=["py"])
    _lookup_matches_read_files(str(d), None, exclude_path_prefixes=["src/e"])


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_flagship_runs_over_row_format_corpus(tmp_path, fmt):
    """The full dedup pipeline over a JSONL or CSV files table must
    produce the same clusters and containment edges as the identical
    Parquet table (the edges exercise the content lookup's row-format
    read)."""
    import pyarrow.parquet as pq2
    from image_deduper_ray.corpus import write_corpus
    from image_deduper_ray.pipelines.dedup import run_pipeline

    d, _ = write_corpus(str(tmp_path / "pq"), n_clusters=10)
    # re-encode the same table as JSONL / CSV
    rd = tmp_path / fmt
    rd.mkdir()
    rows = []
    for f in sorted(os.listdir(d)):
        if f.endswith(".parquet"):
            rows.extend(pq2.read_table(os.path.join(d, f)).to_pylist())
    _write_rows(rows, str(rd / f"files.{fmt}"), fmt)

    res_pq = run_pipeline(d, str(tmp_path / "out_pq"))
    res_rf = run_pipeline(str(rd), str(tmp_path / "out_rf"))
    a = res_pq["clusters"].to_pandas().set_index("file_id")["cluster_id"]
    b = res_rf["clusters"].to_pandas().set_index("file_id")["cluster_id"]
    assert a.sort_index().equals(b.sort_index())

    def cont(res):
        return sorted(zip(*(res["edges_cont"].to_pandas()[c]
                            for c in ("a", "b"))))

    assert cont(res_pq) and cont(res_rf) == cont(res_pq)


# no row may trip the signing time budget on a slow host: these tests
# compare signatures, not the budget rule
def _sign_cfg(**kw):
    from image_deduper_ray.config import DedupConfig

    return DedupConfig(row_time_budget_s=1e9, row_time_budget_by_lang=(),
                       **kw)


def _sign_matches_read_files(paths, out_dir: str, cfg=None, **kw) -> dict:
    """Assert that ``sign_input``'s dataset and the parts it writes hold
    ``sign_batch`` over the rows of ``read_files`` (sorted by
    ``file_id``), and that the manifest counts every part; returns the
    metrics ``extra``."""
    from image_deduper_ray.pipelines.dedup import sign_input
    from image_deduper_ray.sources import checkpoints as ckpt
    from image_deduper_ray.stages.signatures import sign_batch

    cfg = cfg or _sign_cfg()
    blocks = ray.get(read_files(paths, **kw).materialize().to_arrow_refs())
    files = pa.concat_tables([b for b in blocks if b.num_rows] or [_table(0)])
    want = sign_batch(files, cfg).sort_by("file_id")
    ds, extra = sign_input(paths, out_dir, cfg, "run0", **kw)
    got = pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("file_id")
    assert got.combine_chunks().equals(want.combine_chunks())
    disk = pq.read_table(os.path.join(out_dir, "signatures"))
    assert disk.sort_by("file_id").combine_chunks().equals(
        want.combine_chunks())
    m = ckpt.read_manifest(out_dir, "signatures")
    assert m["rows"] == want.num_rows == sum(m["partitions"].values())
    return extra


def test_sign_units_cut_a_parquet_file_into_row_group_runs(tmp_path):
    """Eight row groups of at most 4 rows at ``sig_batch_size=10``: three
    units of consecutive whole row groups holding at least 10 rows (the
    last fewer), one part each, named in unit order."""
    from image_deduper_ray.sources.files import input_units

    t = _table(30)
    p = str(tmp_path / "files.parquet")
    pq.write_table(t, p, row_group_size=4)
    assert input_units(p, 10) == ("parquet", [(p, [0, 1, 2]), (p, [3, 4, 5]),
                                              (p, [6, 7])])
    out = str(tmp_path / "out")
    extra = _sign_matches_read_files(p, out, _sign_cfg(sig_batch_size=10))
    assert (extra["units"], extra["units_signed"]) == (3, 3)
    parts = sorted(f for f in os.listdir(os.path.join(out, "signatures"))
                   if f.endswith(".parquet"))
    assert parts == [f"part-run0-{i:05d}.parquet" for i in range(3)]
    assert [pq.read_table(os.path.join(out, "signatures", f))["path"]
            .to_pylist() for f in parts] == [
        t["path"].to_pylist()[:12], t["path"].to_pylist()[12:24],
        t["path"].to_pylist()[24:]]


def test_sign_units_list_files_as_the_parquet_read(tmp_path):
    """A marker file, a '.'-prefixed Parquet file and a hive
    ``lang=py/`` subdirectory: the signature tasks sign the rows the
    Parquet read reads, and a hive directory fills a column its files
    lack."""
    d = tmp_path / "in"
    (d / "lang=py").mkdir(parents=True)
    pq.write_table(_table(4, "t"), str(d / "part-0.parquet"))
    pq.write_table(_table(3, "h"), str(d / ".x.parquet"))
    pq.write_table(_table(5, "p"), str(d / "lang=py" / "part-1.parquet"))
    (d / "_SUCCESS").write_text("")
    extra = _sign_matches_read_files(str(d), str(tmp_path / "out"))
    assert extra["units"] == 2

    h = tmp_path / "hive"
    for lang in ("py", "js"):
        (h / f"lang={lang}").mkdir(parents=True)
        pq.write_table(_table(3, lang).drop_columns(["lang"]),
                       str(h / f"lang={lang}" / "part-0.parquet"))
    _sign_matches_read_files(str(h), str(tmp_path / "out_js"), langs=["js"])


@pytest.mark.parametrize("kw", [
    {}, {"langs": ["py"]}, {"exclude_path_prefixes": ["vendor/"]},
    {"langs": ["py", "rs"], "exclude_path_prefixes": ["src/n", "x"]}],
    ids=["hidden", "langs", "prefix", "langs_prefixes"])
def test_sign_units_filter_as_read_files(tmp_path, kw):
    """Langs, excluded prefixes and hidden paths drop the same rows from
    the signature tasks as from ``read_files``."""
    _sign_matches_read_files(_write(tmp_path), str(tmp_path / "out"), **kw)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_sign_units_over_row_formats(tmp_path, fmt):
    """Each JSONL or CSV file is one unit, read whole, conformed and
    filtered as in ``read_files``."""
    rows = pq.read_table(_write(tmp_path)).to_pylist()
    d = tmp_path / fmt
    d.mkdir()
    _write_rows(rows[:3], str(d / f"a.{fmt}"), fmt)
    _write_rows(rows[3:], str(d / f"b.{fmt}"), fmt)
    extra = _sign_matches_read_files(str(d), str(tmp_path / "out"))
    assert extra["units"] == 2
    _sign_matches_read_files(str(d), str(tmp_path / "out_py"), langs=["py"])


def test_sign_units_of_an_all_filtered_input(tmp_path):
    """When every row is filtered the stage still gets one schema-only
    part, a manifest of 0 rows and a typed empty dataset."""
    from image_deduper_ray.pipelines.dedup import sign_input
    from image_deduper_ray.sources import checkpoints as ckpt

    out = str(tmp_path / "out")
    ds, extra = sign_input(_write(tmp_path), out, _sign_cfg(), "run0",
                           langs=["go"])
    assert (extra["units"], extra["units_signed"]) == (1, 0)
    assert ds.count() == 0
    assert {"file_id", "minhash", "sig_kind"} <= set(ds.schema().names)
    m = ckpt.read_manifest(out, "signatures")
    assert m["rows"] == 0 and len(m["partitions"]) == 1
    schema = pq.read_schema(os.path.join(out, "signatures",
                                         next(iter(m["partitions"]))))
    assert schema.remove_metadata().equals(ds.schema().base_schema)
