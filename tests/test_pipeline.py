"""End-to-end pipeline tests on the synthetic corpus.

The grouping analog of the reference's discovery/grouping behavior
tests (/root/reference/crates/image-deduper-core/src/discovery/tests/
file_system_tests.rs:25-102): planted cluster families must co-cluster,
high-edit variants and singletons must not, and a rerun must resume
from checkpoints instead of recomputing.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from image_deduper_ray.corpus import generate_corpus, write_corpus
from image_deduper_ray.pipelines.dedup import (STAGE_TABLE, STAGES,
                                               run_pipeline)
from image_deduper_ray.pipelines.oracle import (dup_pair_recall, oracle_pairs,
                                                oracle_signatures)

N_CLUSTERS = 10


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("corpus"))
    out_dir = str(tmp_path_factory.mktemp("out"))
    shutil.rmtree(data_dir, ignore_errors=True)
    d, expected = write_corpus(data_dir, n_clusters=N_CLUSTERS)
    res = run_pipeline(d, out_dir)
    table, _ = generate_corpus(N_CLUSTERS)
    return d, out_dir, res, table, expected


def _engine_clusters(res) -> dict[str, str]:
    cl = res["clusters"].to_pandas()
    return dict(zip(cl.file_id, cl.cluster_id))


def test_recall_vs_oracle(corpus_run):
    _, _, res, table, _ = corpus_run
    engine = _engine_clusters(res)
    ref_pairs = oracle_pairs(oracle_signatures(table))
    assert dup_pair_recall(engine, ref_pairs) >= 0.99


def test_planted_families_cocluster(corpus_run):
    _, _, res, table, expected = corpus_run
    engine = _engine_clusters(res)
    from image_deduper_ray.functions import hashing

    fids = hashing.file_ids(table["repo"].to_pylist(),
                            table["path"].to_pylist(),
                            table["commit"].to_pylist())
    for group in expected:
        labels = {engine[fids[i]] for i in group}
        assert len(labels) == 1, f"family {group} split into {labels}"


def test_singletons_stay_alone(corpus_run):
    _, _, res, table, expected = corpus_run
    engine = _engine_clusters(res)
    from image_deduper_ray.functions import hashing

    fids = hashing.file_ids(table["repo"].to_pylist(),
                            table["path"].to_pylist(),
                            table["commit"].to_pylist())
    planted = {i for g in expected for i in g}
    singles = [i for i, r in enumerate(table["repo"].to_pylist())
               if r.startswith("solo") and i not in planted]
    assert singles
    for i in singles:
        cid = engine[fids[i]]
        members = [f for f, c in engine.items() if c == cid]
        assert members == [fids[i]]


def test_high_edit_variants_split(corpus_run):
    _, _, res, table, expected = corpus_run
    engine = _engine_clusters(res)
    from image_deduper_ray.functions import hashing

    fids = hashing.file_ids(table["repo"].to_pylist(),
                            table["path"].to_pylist(),
                            table["commit"].to_pylist())
    paths = table["path"].to_pylist()
    e25 = [i for i, p in enumerate(paths) if "/e25/" in p]
    assert e25
    for i in e25:
        base_idx = next(j for g in expected for j in g
                        if paths[j].startswith("src/mod_")
                        and table["repo"][j].as_py().split("/")[0]
                        == table["repo"][i].as_py().split("/")[0])
        assert engine[fids[i]] != engine[fids[base_idx]]


def test_actions_lineage(corpus_run):
    _, _, res, _, _ = corpus_run
    acts = res["actions"].to_pandas()
    # one canonical per cluster; every non-canonical is a dup row
    roles = acts.groupby("cluster_id")["role"].apply(
        lambda s: (s == "keep").sum())
    assert (roles == 1).all()


def test_signature_metrics_count_fallbacks(corpus_run):
    """The signatures metrics row reports the stage's fallback and
    over-budget rows, as counted in its Parquet parts, and the wall of
    the checkpoint's read back (``read_s``, part of the row's wall)."""
    import ast

    import pyarrow.parquet as pq

    _, out_dir, res, _, _ = corpus_run
    sigs = res["signatures"].to_pandas()
    m = pq.read_table(os.path.join(out_dir, "metrics")).to_pydict()
    extra = ast.literal_eval(dict(zip(m["stage"], m["extra"]))["signatures"])
    assert extra["fallback"] == (sigs.sig_kind == "fallback").sum()
    assert extra["over_budget"] == (sigs.error == "over-budget").sum()
    wall = dict(zip(m["stage"], m["wall_s"]))["signatures"]
    assert 0 <= extra["read_s"] <= wall


def test_signature_metrics_count_units(corpus_run):
    """The signatures metrics row reports the sign tasks (``units``: the
    one input file of ``corpus_run``, one row group) and those that
    signed a row (``units_signed``)."""
    import ast

    import pyarrow.parquet as pq

    _, out_dir, _, _, _ = corpus_run
    m = pq.read_table(os.path.join(out_dir, "metrics")).to_pydict()
    extra = ast.literal_eval(dict(zip(m["stage"], m["extra"]))["signatures"])
    assert (extra["units"], extra["units_signed"]) == (1, 1)
    assert extra["resumed_from"] == 0


def test_plain_task_blocks_carry_no_schema_metadata(corpus_run, tmp_path):
    """Every block a plain task returns drops its schema metadata (a
    pandas block function's, say), so Ray's schema unification never
    logs ``Failed to hash the schemas`` on a scan."""
    import logging

    import pandas as pd
    import pyarrow as pa
    from ray.data.dataset import MaterializedDataset

    from image_deduper_ray.functions.groups import _with_meta

    t = pa.Table.from_pandas(pd.DataFrame({"x": [1, 2]}),
                             preserve_index=False)
    assert t.schema.metadata
    block, meta = _with_meta(t)
    assert block.schema.metadata is None and meta.schema.metadata is None

    logged = []

    class Keep(logging.Handler):
        def emit(self, record):
            logged.append(record.getMessage())

    log = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    handler = Keep()
    log.addHandler(handler)
    try:
        d, _, _, _, _ = corpus_run
        res = run_pipeline(d, str(tmp_path / "out"))
    finally:
        log.removeHandler(handler)
    assert not [m for m in logged if "Failed to hash" in m], logged
    for stage in STAGES:
        assert isinstance(res[stage], MaterializedDataset), stage
        for bundle in res[stage].iter_internal_ref_bundles():
            assert bundle.schema.metadata is None, stage


def test_all_stages_checkpointed(corpus_run):
    _, out_dir, _, _, _ = corpus_run
    for stage in ["signatures", "edges_exact", "edges_sig", "pairs",
                  "verified", "edges_cont", "edges", "clusters", "actions"]:
        mpath = os.path.join(out_dir, stage, "_MANIFEST.json")
        assert os.path.exists(mpath), stage
        with open(mpath) as fh:
            assert json.load(fh)["rows"] >= 0


def test_rerun_resumes(corpus_run):
    d, out_dir, _, _, _ = corpus_run
    import time

    t0 = time.time()
    res2 = run_pipeline(d, out_dir)  # everything complete -> all skips
    assert time.time() - t0 < 15
    assert res2["clusters"].count() == res2["actions"].count()


def test_salting_preserves_recall(tmp_path):
    """With a tiny bucket_cap every near-dup family's buckets are salted
    into sub-buckets; representative linking must keep components
    connected (recall still 1.0)."""
    from image_deduper_ray.config import DedupConfig

    cfg = DedupConfig(bucket_cap=2, salt_window=2)
    data_dir = str(tmp_path / "corpus")
    d, _ = write_corpus(data_dir, n_clusters=8)
    res = run_pipeline(d, str(tmp_path / "out"), cfg)
    engine = _engine_clusters(res)
    table, _ = generate_corpus(8)
    ref_pairs = oracle_pairs(oracle_signatures(table, cfg), cfg)
    assert dup_pair_recall(engine, ref_pairs) >= 0.99


def test_distributed_cc_matches_driver(corpus_run):
    """Label propagation (``cc_driver_max_edges=0`` forces it) must
    produce exactly the driver union-find components."""
    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.stages.cc import connected_components

    _, out_dir, res, _, _ = corpus_run
    edges = res["edges"]
    drv = connected_components(edges, DedupConfig()).to_pandas()
    dist = connected_components(
        edges, DedupConfig(cc_driver_max_edges=0)).to_pandas()
    a = drv.sort_values("file_id").reset_index(drop=True)
    b = dist.sort_values("file_id").reset_index(drop=True)
    assert a.equals(b[["file_id", "cluster_id"]].reset_index(drop=True))


def test_label_propagation_runs_until_no_label_changes():
    """A label moves one hop per round, so a 60-node path needs about
    60 rounds: label propagation must run until no label changes, not
    stop at a round cap with the path split into pieces."""
    import pyarrow as pa
    import ray.data

    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.stages.cc import connected_components

    nodes = [f"n{i:03d}" for i in range(60)]
    edges = ray.data.from_arrow(pa.table({"a": nodes[:-1], "b": nodes[1:]}))
    out = connected_components(
        edges, DedupConfig(cc_driver_max_edges=0)).to_pandas()
    assert sorted(out.file_id) == nodes
    assert set(out.cluster_id) == {"n000"}


def test_signature_antijoin_resume(corpus_run, tmp_path):
    """Partial signature checkpoint: rerun must hash only missing rows
    and the final count must not grow (find_new_images discipline)."""
    d, out_dir, res, _, _ = corpus_run
    n_before = res["signatures"].count()

    out2 = str(tmp_path / "resume_out")
    shutil.copytree(os.path.join(out_dir, "signatures"),
                    os.path.join(out2, "signatures"))
    # drop the manifest (stage incomplete) but keep the parquet rows
    os.remove(os.path.join(out2, "signatures", "_MANIFEST.json"))
    res2 = run_pipeline(d, out2)
    assert res2["signatures"].count() == n_before


def test_resume_over_a_torn_signatures_part(corpus_run, tmp_path):
    """A ``signatures`` part cut off mid-write (no Parquet footer) is
    dropped before the resume anti-join, so its files are signed again:
    one ``clusters`` row per input file and the fresh partition."""
    d, out_dir, full, table, _ = corpus_run
    out2 = str(tmp_path / "out")
    sig_dir = os.path.join(out2, "signatures")
    shutil.copytree(os.path.join(out_dir, "signatures"), sig_dir)
    os.remove(os.path.join(sig_dir, "_MANIFEST.json"))
    part = os.path.join(sig_dir, sorted(
        f for f in os.listdir(sig_dir) if f.endswith(".parquet"))[0])
    os.truncate(part, os.path.getsize(part) // 2)
    res = run_pipeline(d, out2)
    assert res["clusters"].count() == table.num_rows
    assert _engine_clusters(res) == _engine_clusters(full)


def test_resume_mid_signatures_over_a_leftover_temp_file(corpus_run,
                                                         tmp_path):
    """A scan killed mid-``signatures``: half the parts of a four-unit
    stage on disk, the temp file of a killed part write (cut short), no
    manifest. The resume removes the temp file, signs only the rows the
    parts lack (two units sign, the other two find every row done) and
    gives the fresh partition and manifest rows."""
    import ast

    import pyarrow.parquet as pq

    from image_deduper_ray.sources import checkpoints as ckpt

    d, out_dir, full, table, _ = corpus_run
    src = tmp_path / "in"
    src.mkdir()
    step = -(-table.num_rows // 4)
    for i in range(4):
        pq.write_table(table.slice(i * step, step),
                       str(src / f"part-{i:05d}.parquet"))
    fresh = str(tmp_path / "fresh")
    run_pipeline(str(src), fresh)
    fresh_sig = os.path.join(fresh, "signatures")
    parts = sorted(f for f in os.listdir(fresh_sig) if f.endswith(".parquet"))
    assert len(parts) == 4

    out2 = str(tmp_path / "out")
    sig_dir = os.path.join(out2, "signatures")
    os.makedirs(sig_dir)
    for f in parts[:2]:
        shutil.copy(os.path.join(fresh_sig, f), sig_dir)
    leftover = os.path.join(sig_dir, parts[2] + ".tmp")
    shutil.copy(os.path.join(fresh_sig, parts[2]), leftover)
    os.truncate(leftover, os.path.getsize(leftover) // 2)

    res = run_pipeline(str(src), out2)
    assert not [f for f in os.listdir(sig_dir) if not f.endswith(".parquet")
                and f != ckpt.MANIFEST]
    assert _engine_clusters(res) == _engine_clusters(full)
    for s in STAGES:
        assert (ckpt.read_manifest(out2, s)["rows"]
                == ckpt.read_manifest(fresh, s)["rows"]), s
    m = pq.read_table(os.path.join(out2, "metrics")).to_pydict()
    extra = ast.literal_eval(dict(zip(m["stage"], m["extra"]))["signatures"])
    done = sum(pq.read_metadata(os.path.join(fresh_sig, f)).num_rows
               for f in parts[:2])
    assert (extra["units"], extra["units_signed"],
            extra["resumed_from"]) == (4, 2, done)


_CAPS = {"broadcast_max_bytes": 0, "cc_driver_max_edges": 0}


def _set_rows_per_task(monkeypatch, rows_per_task):
    """``rows_per_task=1`` fans every shuffle, map and coalesce out to
    its cap: the scan's inputs are far below ``groups.ROWS_PER_TASK``,
    so without it the fanned-out path would go untested."""
    from image_deduper_ray.functions import groups

    if rows_per_task is not None:
        monkeypatch.setattr(groups, "ROWS_PER_TASK", rows_per_task)


@pytest.mark.parametrize("rows_per_task", [None, 1], ids=["sized", "fanned"])
@pytest.mark.parametrize("caps", [{k: v} for k, v in _CAPS.items()]
                         + [_CAPS], ids=list(_CAPS) + ["all"])
def test_forced_fallback_gives_fresh_partition(corpus_run, tmp_path, caps,
                                               rows_per_task, monkeypatch):
    """Each cap at 0 forces its fallback path: ``broadcast_max_bytes=0``
    sends every ``broadcast_join`` (signature collapse, pair resolution,
    containment prune and content attach, label attach) and the verify
    scorer to partitioned hash joins; ``cc_driver_max_edges=0`` runs
    label propagation in place of the driver union-find. Each path, and
    both together, must give the fresh scan's partition and the same
    pair, verdict and edge rows. A counter on ``hash_join`` shows that
    the join route ran under the byte cap, and never at the default byte
    cap (the ``cc_driver_max_edges`` case); every left side it got was
    materialized, so its schema came from block metadata, not from a
    partial execution."""
    import pyarrow.parquet as pq
    from ray.data.dataset import MaterializedDataset

    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.functions import joins

    calls = []
    real = joins.hash_join

    def counting(*args, **kwargs):
        calls.append((args[2], isinstance(args[0], MaterializedDataset)))
        return real(*args, **kwargs)

    monkeypatch.setattr(joins, "hash_join", counting)
    _set_rows_per_task(monkeypatch, rows_per_task)
    d, out_dir, full, _, _ = corpus_run
    out2 = str(tmp_path / "out")
    res = run_pipeline(d, out2, DedupConfig(**caps))
    assert _engine_clusters(res) == _engine_clusters(full)
    # left keys of the join route: file_id (member filter, content
    # prune, label attach), a/b (pair resolution, verify, content attach)
    assert {key for key, _ in calls} == ({"file_id", "a", "b"}
                                         if "broadcast_max_bytes" in caps
                                         else set())
    assert all(materialized for _, materialized in calls), calls

    def rows(root, stage):
        t = pq.read_table(os.path.join(root, stage))
        return sorted(zip(*(t[c].to_pylist() for c in t.column_names)))

    for stage in ["edges_sig", "pairs", "verified", "edges_cont", "edges"]:
        assert rows(out2, stage) == rows(out_dir, stage), stage


@pytest.mark.parametrize("case", ["torn_clusters", "force_rescan"])
def test_rewritten_stage_replaces_old_parts(corpus_run, tmp_path, case):
    """A stage written again must replace its earlier parts, not append
    to them: a resume over a torn ``clusters`` stage (parts on disk, no
    manifest) and a forced rescan over a complete out dir both give one
    row per input file in every per-file stage, and the fresh partition."""
    d, out_dir, full, table, _ = corpus_run
    out2 = str(tmp_path / "out")
    shutil.copytree(out_dir, out2)
    if case == "torn_clusters":
        os.remove(os.path.join(out2, "clusters", "_MANIFEST.json"))
        shutil.rmtree(os.path.join(out2, "actions"))
        res = run_pipeline(d, out2)
    else:
        res = run_pipeline(d, out2, resume=False)
    for stage in ["signatures", "clusters", "actions"]:
        assert res[stage].count() == table.num_rows, stage
    assert _engine_clusters(res) == _engine_clusters(full)


def test_fresh_scan_reads_back_no_stage(corpus_run, tmp_path, monkeypatch):
    """Every stage is fed to the next one from memory, ``signatures``
    too (its tasks return the blocks they write): a fresh scan reads no
    checkpoint back, although it writes all nine."""
    from image_deduper_ray.sources import checkpoints as ckpt

    read = []
    real = ckpt.read_stage

    def counting(root, stage, *args, **kwargs):
        read.append(stage)
        return real(root, stage, *args, **kwargs)

    monkeypatch.setattr(ckpt, "read_stage", counting)
    d, _, _, _, _ = corpus_run
    out2 = str(tmp_path / "out")
    run_pipeline(d, out2)
    assert read == []
    assert all(ckpt.is_complete(out2, stage) for stage in STAGES)


def test_fresh_scan_execution_budget(corpus_run, tmp_path, monkeypatch):
    """A fresh scan starts no Ray Data execution and exactly 7 hash
    shuffles. The signing runs one plain task per input unit and the
    containment content lookup one per input file; each shuffle's row
    prep runs in its own map tasks; every map over a materialized stage
    (the joins' probes and their ``post``, verify scoring, the edge
    filters and union, the cluster meta) runs plain tasks through
    ``groups.map_blocks``, as do the representatives' signature
    broadcast and a checkpoint's block coalescing. No plan the scan
    builds calls ``ExecutionPlan.execute`` either: the datasets are
    built computed and their blocks read from that snapshot, so the
    scan makes none of its GCS calls."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    from ray.data._internal.plan import ExecutionPlan

    from image_deduper_ray.functions import groups

    executions, shuffles, plans = [], [], []
    real_execute = StreamingExecutor.execute
    real_shuffle = groups._manual_shuffle
    real_plan_execute = ExecutionPlan.execute

    def execute(self, *args, **kwargs):
        executions.append(type(self).__name__)
        return real_execute(self, *args, **kwargs)

    def shuffle(*args, **kwargs):
        shuffles.append(args[1])
        return real_shuffle(*args, **kwargs)

    def plan_execute(self, *args, **kwargs):
        plans.append(self)
        return real_plan_execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    monkeypatch.setattr(groups, "_manual_shuffle", shuffle)
    monkeypatch.setattr(ExecutionPlan, "execute", plan_execute)
    d, _, _, _, _ = corpus_run
    run_pipeline(d, str(tmp_path / "out"))
    assert len(shuffles) == 7, shuffles
    assert executions == [], len(executions)
    assert plans == [], len(plans)


def test_complete_rerun_reads_no_stage(corpus_run, monkeypatch):
    """A rerun over an out dir whose every stage is complete reads no
    checkpoint into the object store: each stage it returns is a lazy
    read that the caller may never consume."""
    from image_deduper_ray.sources import checkpoints as ckpt

    eager = []
    real = ckpt.read_stage

    def counting(root, stage, *args, lazy=False, **kwargs):
        if not lazy:
            eager.append(stage)
        return real(root, stage, *args, lazy=lazy, **kwargs)

    monkeypatch.setattr(ckpt, "read_stage", counting)
    d, out_dir, full, _, _ = corpus_run
    res = run_pipeline(d, out_dir)
    assert eager == []
    assert res["clusters"].count() == full["clusters"].count()


def test_edges_cont_metrics_count_row_groups_read(corpus_run, tmp_path):
    """``edges_cont``'s metrics row reports the input files and row
    groups its content lookup read. The ``corpus_run`` input rewritten
    in row groups of 4 rows gives the same containment edges, and only
    the row groups holding a candidate have their ``content`` read."""
    import ast

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from image_deduper_ray.sources.files import add_file_id

    def cont_extra(out):
        m = pq.read_table(os.path.join(out, "metrics")).to_pydict()
        return ast.literal_eval(dict(zip(m["stage"], m["extra"]))["edges_cont"])

    d, out_dir, full, table, _ = corpus_run
    n_files = sum(f.endswith(".parquet") for f in os.listdir(d))
    extra = cont_extra(out_dir)
    assert extra["files_read"] == n_files
    assert extra["row_groups_read"] == extra["row_groups_total"] == n_files

    d2 = tmp_path / "rg"
    d2.mkdir()
    pq.write_table(table, str(d2 / "part-00000.parquet"), row_group_size=4)
    out2 = str(tmp_path / "out")
    res = run_pipeline(str(d2), out2)
    assert _engine_clusters(res) == _engine_clusters(full)
    edges = pq.read_table(os.path.join(out_dir, "edges_cont"))
    assert edges.num_rows
    assert (sorted(pq.read_table(os.path.join(out2, "edges_cont")).to_pylist(),
                   key=str) == sorted(edges.to_pylist(), key=str))
    v = pq.read_table(os.path.join(out2, "verified"))
    v = v.filter(pc.equal(v["verdict"], "containment_cand"))
    cand = set(v["a"].to_pylist() + v["b"].to_pylist())
    fids = add_file_id(table)["file_id"].to_pylist()
    groups_hit = {i // 4 for i, f in enumerate(fids) if f in cand}
    extra = cont_extra(out2)
    assert extra["files_read"] == 1
    assert extra["row_groups_total"] == -(-table.num_rows // 4)
    assert extra["row_groups_read"] == len(groups_hit) < extra["row_groups_total"]


@pytest.mark.parametrize("stage", STAGES[1:])
def test_resume_from_each_kill_point(corpus_run, tmp_path, stage):
    """A scan killed before ``stage`` completed (its manifest and every
    later one missing, their parts left behind) resumes to the fresh
    partition and the same manifest rows: the stages before it load
    from Parquet, the rest run again and stay in memory."""
    from image_deduper_ray.sources import checkpoints as ckpt

    d, out_dir, full, _, _ = corpus_run
    out2 = str(tmp_path / "out")
    shutil.copytree(out_dir, out2)
    for later in STAGES[STAGES.index(stage):]:
        os.remove(os.path.join(out2, later, ckpt.MANIFEST))
    res = run_pipeline(d, out2)
    assert _engine_clusters(res) == _engine_clusters(full)
    for s in STAGES:
        assert (ckpt.read_manifest(out2, s)["rows"]
                == ckpt.read_manifest(out_dir, s)["rows"]), s


def _last_run_stages(out_dir: str) -> list[str]:
    """The stages of the metrics rows the latest run wrote, in order."""
    import pyarrow.parquet as pq

    mdir = os.path.join(out_dir, "metrics")
    rows = [pq.read_table(os.path.join(mdir, f)).to_pylist()[0]
            for f in sorted(os.listdir(mdir))]
    last = max(r["run_id"] for r in rows)
    return [r["stage"] for r in rows if r["run_id"] == last]


@pytest.mark.parametrize("entry", STAGE_TABLE,
                         ids=[written[-1] for written, _, _ in STAGE_TABLE])
def test_rerun_of_one_entry_reads_only_its_inputs(corpus_run, tmp_path,
                                                  monkeypatch, entry):
    """With the manifests of only one table entry's stages removed from
    a complete out dir, a rerun runs exactly that entry: it reads from
    Parquet exactly the stages the entry declares, writes one metrics
    row (and a ``signatures_read`` row only if it reads ``signatures``),
    and gives the fresh scan's partition and manifests."""
    from image_deduper_ray.sources import checkpoints as ckpt

    written, reads, _ = entry
    d, out_dir, full, _, _ = corpus_run
    out2 = str(tmp_path / "out")
    shutil.copytree(out_dir, out2)
    for stage in written:
        os.remove(os.path.join(out2, stage, ckpt.MANIFEST))
    read = []
    real = ckpt.read_stage

    def counting(root, stage, *args, lazy=False, **kwargs):
        if not lazy:
            read.append(stage)
        return real(root, stage, *args, lazy=lazy, **kwargs)

    monkeypatch.setattr(ckpt, "read_stage", counting)
    res = run_pipeline(d, out2)
    assert sorted(read) == sorted(reads)
    assert _last_run_stages(out2) == (
        ["signatures_read"] if "signatures" in reads else []) + [written[-1]]
    assert _engine_clusters(res) == _engine_clusters(full)
    for s in STAGES:
        got, want = (ckpt.read_manifest(root, s) for root in (out2, out_dir))
        assert (got["rows"], got["partitions"]) == (want["rows"],
                                                    want["partitions"]), s


@pytest.mark.parametrize("build,stage", [
    ("connected_components", "clusters"), ("canonical_actions", "actions")])
def test_failing_build_leaves_its_stage_incomplete(corpus_run, tmp_path,
                                                   monkeypatch, build, stage):
    """A build that raises ends the scan with its exception: the failing
    stage and every later one have no manifest, the earlier stages keep
    theirs, and a rerun completes the scan with the fresh partition."""
    from image_deduper_ray.pipelines import dedup
    from image_deduper_ray.sources import checkpoints as ckpt

    class Boom(RuntimeError):
        pass

    def boom(*args, **kwargs):
        raise Boom(build)

    d, out_dir, full, _, _ = corpus_run
    out2 = str(tmp_path / "out")
    monkeypatch.setattr(dedup, build, boom)
    with pytest.raises(Boom):
        run_pipeline(d, out2)
    k = STAGES.index(stage)
    assert all(ckpt.is_complete(out2, s) for s in STAGES[:k])
    assert not any(ckpt.is_complete(out2, s) for s in STAGES[k:])
    monkeypatch.undo()
    res = run_pipeline(d, out2)
    assert _engine_clusters(res) == _engine_clusters(full)
    for s in STAGES:
        assert (ckpt.read_manifest(out2, s)["rows"]
                == ckpt.read_manifest(out_dir, s)["rows"]), s


def _check_manifest_matches_parts(out_dir: str) -> dict[str, int]:
    """Assert that each stage's manifest ``rows`` and ``partitions``
    equal its parts' row counts and that its parts share one schema;
    returns the rows per stage."""
    import pyarrow.parquet as pq

    from image_deduper_ray.sources import checkpoints as ckpt

    rows = {}
    for stage in STAGES:
        d = os.path.join(out_dir, stage)
        m = ckpt.read_manifest(out_dir, stage)
        parts = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        counts = {f: pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
                  for f in parts}
        assert m["partitions"] == counts, stage
        assert m["rows"] == sum(counts.values()), stage
        schemas = [pq.read_schema(os.path.join(d, f)).remove_metadata()
                   for f in parts]
        assert all(sch.equals(schemas[0]) for sch in schemas), stage
        rows[stage] = m["rows"]
    return rows


def test_manifest_matches_parts(corpus_run):
    _, out_dir, _, _, _ = corpus_run
    assert all(_check_manifest_matches_parts(out_dir).values())


def test_zero_row_stage_has_a_readable_part(tmp_path):
    """Three unrelated files give empty edge stages; each still holds
    one part with its schema, readable by a Ray read."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from image_deduper_ray.sources import checkpoints as ckpt

    table, _ = generate_corpus(N_CLUSTERS)
    solo = table.filter(pc.starts_with(table["repo"], "solo")).slice(0, 3)
    os.makedirs(tmp_path / "corpus")
    pq.write_table(solo, str(tmp_path / "corpus" / "part-00000.parquet"))
    out2 = str(tmp_path / "out")
    run_pipeline(str(tmp_path / "corpus"), out2)
    rows = _check_manifest_matches_parts(out2)
    assert rows["clusters"] == 3 and rows["edges"] == 0
    for stage in (s for s, n in rows.items() if n == 0):
        assert len(ckpt.read_manifest(out2, stage)["partitions"]) == 1, stage
        ds = ckpt.read_stage(out2, stage)
        assert ds.count() == 0, stage
        assert {"a", "b"} <= set(ds.schema().names), stage


def test_stats_reports_every_checkpointed_stage(corpus_run, capsys):
    """``stats`` prints the manifest row count of every stage the scan
    checkpointed: nine stages, ``edges_sig`` among them."""
    from image_deduper_ray.__main__ import main

    _, out_dir, _, _, _ = corpus_run
    want = {}
    for stage in os.listdir(out_dir):
        mpath = os.path.join(out_dir, stage, "_MANIFEST.json")
        if os.path.exists(mpath):
            with open(mpath) as fh:
                want[stage] = json.load(fh)["rows"]
    assert len(want) == 9
    assert main(["stats", "--out", out_dir]) == 0
    got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert got == want


def test_metrics_rows_of_each_run_stay_apart(corpus_run, tmp_path):
    """Every ``run_pipeline`` call writes its metrics rows under its own
    run_id, and the file names sort in run order: after a resume from
    the ``clusters`` kill point there are two run_ids, one row per
    (run_id, stage), and the resumed run's rows sort last."""
    import pyarrow.parquet as pq

    from image_deduper_ray.sources import checkpoints as ckpt

    d, out_dir, _, _, _ = corpus_run
    out2 = str(tmp_path / "out")
    shutil.copytree(out_dir, out2)
    for stage in ("clusters", "actions"):
        os.remove(os.path.join(out2, stage, ckpt.MANIFEST))
    run_pipeline(d, out2)
    mdir = os.path.join(out2, "metrics")
    rows = [pq.read_table(os.path.join(mdir, f)).to_pylist()[0]
            for f in sorted(os.listdir(mdir))]
    keys = [(r["run_id"], r["stage"]) for r in rows]
    assert len(keys) == len(set(keys))
    first, resumed = sorted({r["run_id"] for r in rows})
    # the resumed run reads the complete signatures stage back: a row
    # of its own
    assert keys[-3:] == [(resumed, "signatures_read"),
                         (resumed, "clusters"), (resumed, "actions")]
    # the ``pairs`` row also times ``edges_sig``
    assert keys[:-3] == [(first, s) for s in STAGES if s != "edges_sig"]


def test_canonical_order_picks_the_keep_row():
    """The default ``canonical_order`` keeps the largest file; the order
    ("path", "repo", "commit") keeps the first path."""
    import pyarrow as pa
    import ray.data

    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.stages.canonical import canonical_actions

    members = ray.data.from_arrow(pa.table({
        "file_id": ["f1", "f2", "f3"], "cluster_id": ["c", "c", "c"],
        "repo": ["r", "r", "r"], "path": ["b.py", "a.py", "c.py"],
        "commit": ["x", "x", "x"],
        "n_bytes": pa.array([10, 20, 30], pa.int64())}))

    def keep(cfg):
        acts = canonical_actions(members, cfg).to_pandas()
        assert set(acts.canonical_file_id) == set(acts.file_id[acts.role == "keep"])
        return acts.file_id[acts.role == "keep"].tolist()

    assert keep(DedupConfig()) == ["f3"]
    assert keep(DedupConfig(canonical_order=("path", "repo", "commit"))) \
        == ["f2"]


def test_scan_cli_summary_and_config(corpus_run, tmp_path, capsys):
    """``scan`` passes --threshold and --batch-size into the config the
    manifests record, and prints ``files`` and ``clusters`` as the
    checkpoints hold them. A --config file naming an unknown field (a
    removed one, ``shingle_stride``) fails before any scan."""
    import pyarrow.parquet as pq

    from image_deduper_ray.__main__ import main
    from image_deduper_ray.sources import checkpoints as ckpt

    d, _, full, table, _ = corpus_run
    out2 = str(tmp_path / "out")
    assert main(["scan", "--input", d, "--out", out2, "--threshold", "0.8",
                 "--batch-size", "64"]) == 0
    got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    clusters = pq.read_table(os.path.join(out2, "clusters"))
    assert got["files"] == clusters.num_rows == table.num_rows
    assert got["clusters"] == len(set(clusters["cluster_id"].to_pylist()))
    assert got["clusters"] == len(set(_engine_clusters(full).values()))
    cfg = json.loads(ckpt.read_manifest(out2, "signatures")["config"])
    assert (cfg["sig_batch_size"], cfg["jaccard_threshold"]) == (64, 0.8)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"shingle_stride": 2}))
    with pytest.raises(TypeError, match="shingle_stride"):
        main(["scan", "--input", d, "--out", str(tmp_path / "out_bad"),
              "--config", str(bad)])
    assert not os.path.exists(tmp_path / "out_bad")


def test_num_partitions_defaults_to_cluster_cpus():
    from image_deduper_ray.config import DedupConfig

    assert DedupConfig().resolved().num_partitions == 4  # conftest num_cpus
    assert DedupConfig(num_partitions=48).resolved().num_partitions == 48


@pytest.mark.parametrize("rows_per_task", [None, 1], ids=["sized", "fanned"])
@pytest.mark.parametrize("num_partitions", [2, 48])
def test_partition_count_does_not_change_result(corpus_run, tmp_path,
                                                num_partitions,
                                                rows_per_task, monkeypatch):
    """Every salted sub-bucket, rep bucket and (a, b) dedup key lands
    whole in one partition, so the partition count does not change the
    partition. The pair and edge counts hold too: the in-bucket check's
    forest can depend on which sub-buckets share a partition, but on
    this corpus every forest is all of its near-dup pairs. Each wide
    stage records the count it ran with in its metrics row (the cap;
    ``ROWS_PER_TASK=1`` runs every shuffle at it)."""
    import ast

    import pyarrow.parquet as pq

    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.sources import checkpoints as ckpt

    _set_rows_per_task(monkeypatch, rows_per_task)
    d, out_dir, full, _, _ = corpus_run
    out2 = str(tmp_path / "out")
    res = run_pipeline(d, out2, DedupConfig(num_partitions=num_partitions))
    assert _engine_clusters(res) == _engine_clusters(full)
    for stage in ["pairs", "verified", "edges"]:
        assert (ckpt.read_manifest(out2, stage)["rows"]
                == ckpt.read_manifest(out_dir, stage)["rows"]), stage
    m = pq.read_table(os.path.join(out2, "metrics")).to_pydict()
    extra = dict(zip(m["stage"], m["extra"]))
    for stage in ["edges_exact", "pairs", "verified", "edges_cont",
                  "clusters", "actions"]:
        assert ast.literal_eval(extra[stage])["partitions"] \
            == num_partitions, stage


def test_wide_stages_report_parts(corpus_run):
    """Each wide stage's metrics row reports ``parts``, the Parquet
    parts it wrote; a stage of a few hundred rows, far below
    ``groups.ROWS_PER_TASK``, writes one."""
    import ast

    import pyarrow.parquet as pq

    from image_deduper_ray.sources import checkpoints as ckpt

    _, out_dir, _, _, _ = corpus_run
    m = pq.read_table(os.path.join(out_dir, "metrics")).to_pydict()
    extra = dict(zip(m["stage"], m["extra"]))
    for stage in ["edges_exact", "pairs", "verified", "edges_cont",
                  "edges", "clusters", "actions"]:
        parts = ast.literal_eval(extra[stage])["parts"]
        assert parts == len(ckpt.read_manifest(out_dir, stage)["partitions"])
        assert parts == 1, stage


def test_row_over_budget_falls_back_in_the_same_call():
    """ST4: a row whose own signing overruns its lang budget gets the
    deterministic fallback signature in that same call, and nothing is
    remembered between calls; a row within budget stays ``ok``."""
    import pyarrow as pa

    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.stages.signatures import sign_batch

    batch = pa.table({
        "repo": ["r1", "r1"], "path": ["a.py", "b.cpp"],
        "commit": ["c", "c"], "lang": ["py", "cpp"],
        "content": ["x = 1\n" * 50, "int x = 1;\n" * 50]})

    # zero budget for py only; cpp keeps its per-lang budget (30 s)
    cfg = DedupConfig(row_time_budget_s=0.0)
    first = sign_batch(batch, cfg)
    second = sign_batch(batch, cfg)
    for out in (first, second):
        assert out["sig_kind"].to_pylist() == ["fallback", "ok"]
        assert out["error"].to_pylist() == ["over-budget", ""]
    # the fallback signature is deterministic (resume-safe)
    assert first["minhash"].to_pylist() == second["minhash"].to_pylist()


# no row may trip the time budget on a slow host: these tests compare
# signatures, not the budget rule
_NO_BUDGET = dict(row_time_budget_s=1e9, row_time_budget_by_lang=())


@pytest.mark.parametrize("sig_cfg", [
    {}, dict(shingle_k=3, num_perms=64, lsh_bands=16, lsh_rows=4,
             minhash_seed=7)], ids=["default", "k3-p64-seed7"])
def test_sign_batch_matches_oracle_signatures(sig_cfg):
    """The task kernel and the oracle sign every row the same: equal
    MinHash, sha256, n_bytes and sig_kind per file_id, so recall is
    measured at byte-identical semantics, under the default and a
    non-default signature config."""
    import numpy as np

    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.stages.signatures import sign_batch

    cfg = DedupConfig(**_NO_BUDGET, **sig_cfg)
    table, _ = generate_corpus(N_CLUSTERS)
    out = sign_batch(table, cfg)
    ref = oracle_signatures(table, cfg)
    assert out.num_rows == table.num_rows == len(ref)
    sigs = np.frombuffer(out["minhash"].combine_chunks().buffers()[1],
                         dtype=np.uint64).reshape(out.num_rows, cfg.num_perms)
    kinds = set()
    for i, row in enumerate(out.drop_columns(["minhash"]).to_pylist()):
        r = ref[row["file_id"]]
        assert row["sig_kind"] == r["sig_kind"], row["path"]
        assert row["sha256"] == r["sha256"], row["path"]
        assert row["n_bytes"] == r["n_bytes"], row["path"]
        np.testing.assert_array_equal(sigs[i], r["sig"], err_msg=row["path"])
        kinds.add(row["sig_kind"])
    assert "ok" in kinds


def test_sign_batch_is_independent_of_batch_split():
    """Nothing outlives one ``sign_batch`` call: signing the corpus in
    one batch or in uneven slices gives the same table, so neither the
    batch size nor the task that runs a batch changes a signature."""
    import pyarrow as pa

    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.stages.signatures import sign_batch

    cfg = DedupConfig(**_NO_BUDGET)
    table, _ = generate_corpus(N_CLUSTERS)
    whole = sign_batch(table, cfg)
    step = 7
    parts = [sign_batch(table.slice(i, step), cfg)
             for i in range(0, table.num_rows, step)]
    split = pa.concat_tables(parts).combine_chunks()
    assert split.equals(whole.combine_chunks())


_ONE_CPU_SCAN = """
import sys

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
try:
    from ray.data import DataContext

    from image_deduper_ray.corpus import write_corpus
    from image_deduper_ray.pipelines.dedup import STAGES, run_pipeline

    DataContext.get_current().enable_progress_bars = False
    d, _ = write_corpus(sys.argv[1], n_clusters=10)
    print(run_pipeline(d, sys.argv[2])["clusters"].count())
finally:
    ray.shutdown()
"""


def _group_exits(pgid: int, wait_s: float) -> bool:
    """Whether every process of group ``pgid`` is gone within ``wait_s``."""
    import time

    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.5)
    return False


def test_one_cpu_session_does_not_hang(tmp_path):
    """A scan on a ``num_cpus=1`` Ray session finishes: no stage holds
    the only CPU while another waits for it. The scan runs in its own
    process group (its raylet, GCS and workers too), which must be empty
    after it exits, and is killed whole on timeout."""
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = root
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCAN, str(tmp_path / "corpus"),
         str(tmp_path / "out")],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    hung = False
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        hung = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    lingered = not _group_exits(proc.pid, 30.0)
    if lingered:
        os.killpg(proc.pid, signal.SIGKILL)
    assert not hung, "1-CPU scan did not finish in 120 s"
    assert not lingered, "Ray processes outlived the scan"
    assert proc.returncode == 0, err[-2000:]
    table, _ = generate_corpus(N_CLUSTERS)
    assert int(out.strip().splitlines()[-1]) == table.num_rows


def test_entry_smoke():
    import pandas as pd

    import __ray_entry__ as entry

    ds = entry.entry()
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else pd.DataFrame(ds)
    assert len(df) >= 0
    assert {"doc_id", "cluster_id"} <= set(df.columns)
    assert len(df) == 500
