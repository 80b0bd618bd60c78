"""End-to-end dedup pipeline with checkpoint/resume.

The Ray-Data recast of the reference's intended flow
(/root/reference/dev_notes.md:1-49, docs/mermaid/core-architecture.mmd:2-38:
Discovery -> Processing -> Persistence -> DuplicateCheck -> Action) and
of the ``ImageDeduper::run`` / ``hash_and_persist`` drivers
(/root/reference/crates/image-deduper-core/src/lib.rs:110-243):

  read + sign_batch (a task per input unit)   [checkpoint signatures]
  -> exact sha256 edges (partition blocks)     [checkpoint edges_exact]
  -> signature-identical collapse              [checkpoint edges_sig]
  -> LSH candidate pairs (salted, on reps)     [checkpoint pairs]
  -> Jaccard verification (broadcast matrix)   [checkpoint verified]
  -> containment verification (substring pass) [checkpoint edges_cont]
  -> union edges                               [checkpoint edges]
  -> connected components                      [checkpoint clusters]
  -> canonical pick + actions lineage          [checkpoint actions]

Every stage writes Parquet + a manifest; a rerun skips completed stages
and anti-joins partially-done signature work (the find_new_images
discipline, db.rs:132-164). The checkpoints are written, never read
back by the run that wrote them. The signatures stage is one plain Ray
task per input unit (``sign_input``: a file, or a run of a Parquet
file's row groups), which drops the done ids, signs its rows and writes
its own part to a temp name, then renames it, so a killed scan keeps
whole parts only; the tasks' blocks are the stage, in memory. Each
later stage is materialized once, its blocks are written by plain
tasks, and the next stage reads it from the object store. Only stages
an earlier run completed (and the parts a killed run left) are read
from Parquet, each by one plain Ray task per part
(``checkpoints.read_stage``) and only when a stage of this run needs
it; a signatures part left without a Parquet footer, or a temp file, is
dropped before the resume. The signatures stage's six consumers (exact
edges, signature collapse and its anti-join, pair resolution, the
verify pack, the cluster meta) take its blocks from the object store,
and the shuffles among them run their row prep in their own map tasks
(``functions/groups``). Every other map over a materialized stage (the
joins' probes and their per-block ``post``, verify scoring, the edge
filters, the cluster meta) runs as plain Ray tasks through
``functions/groups.map_blocks``, and the edge union takes the blocks of
its four inputs as they are (``union_blocks``). The containment stage
looks up the content of its candidate ids with one plain task per
input file (``sources/files.read_content``), which reads a Parquet
file's ``content`` only in the row groups that hold a candidate. A
fresh scan thus starts no Ray Data execution. The read of an earlier
run's signatures parts is the ``read_s`` of the ``signatures`` metrics
row, or of a ``signatures_read`` row when an earlier run completed the
stage.

Every small-side lookup (signature-member filter, pair resolution,
containment id prune and content attach, cluster label attach) is one
``functions/joins.broadcast_join``: one byte cap,
``cfg.broadcast_max_bytes``, picks a broadcast or a partitioned hash
join. The ``content`` column is dropped inside the signature stage;
below the cap the candidate ids ride to the content lookup's tasks, so
only the candidates' content leaves them, and never crosses a shuffle.
"""

from __future__ import annotations

import os
import time as _time

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.dataset import MaterializedDataset

from ..config import DedupConfig, DEFAULT_CONFIG
from ..functions.arrow_utils import ensure_schema, rename_drop
from ..functions.groups import (_dataset_of, _with_meta, coalesce_blocks,
                                map_blocks, materialized, table_dataset,
                                union_blocks)
from ..functions.joins import broadcast_join, collect_under_cap
from ..sources import checkpoints as ckpt
from ..sources.files import (UNIT_SCHEMA, input_units, read_content,
                             read_unit)
# the scan reads its input through ``sign_input``'s tasks; this name
# stays because the benchmark's tracer (perfbench/tracing.py) looks up
# ``dedup.read_files`` with no default, and test_sources checks
# ``read_content`` and the sign units against ``read_files``
from ..sources.files import read_files  # noqa: F401
from ..stages.canonical import canonical_actions
from ..stages.cc import connected_components
from ..stages.lsh import candidate_pairs
from ..stages.signatures import sign_batch
from ..stages.substring import ContainmentVerify
from ..stages.verify import (exact_dup_edges, pack_signatures,
                             signature_representatives, verify_pairs)
from ..state.metrics import MetricsSink, StageTimer

_EDGE_SCHEMA = pa.schema([("a", pa.string()), ("b", pa.string())])
_PAIR_SCHEMA = _EDGE_SCHEMA.append(pa.field("is_cont", pa.int8()))
_VERIFIED_SCHEMA = _EDGE_SCHEMA.append(pa.field("jaccard", pa.float64())).append(
    pa.field("verdict", pa.string()))
_EMPTY_EDGES = _EDGE_SCHEMA.empty_table()
_IDS_SCHEMA = pa.schema([("file_id", pa.string())])

# perfbench/tracing.py times the label attach under this name; drop the
# alias with ROADMAP item 5
broadcast_attach_str = broadcast_join

# every checkpointed stage, in run order; ``stats`` and ``diagnose``
# read the same list
STAGES = ("signatures", "edges_exact", "edges_sig", "pairs", "verified",
          "edges_cont", "edges", "clusters", "actions")
# the (a, b) edge and pair stages between signatures and clusters
EDGE_STAGES = STAGES[1:-2]


# the scan signs with ``sign_input``'s plain tasks; this stays because
# the benchmark's tracer (perfbench/tracing.py) looks the name up with
# no default
def compute_signatures(files: ray.data.Dataset, cfg: DedupConfig) -> ray.data.Dataset:
    # plain tasks, not an actor pool: no worker holds a CPU between
    # batches, so the read and the next stage always find one
    return files.map_batches(sign_batch, fn_kwargs={"cfg": cfg},
                             batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=cfg.sig_batch_size)


def _fallback_counts(tables) -> dict[str, int]:
    """``fallback`` and ``over_budget`` row counts of signature tables
    (their ``sig_kind`` and ``error`` columns)."""
    counts = {"fallback": 0, "over_budget": 0}
    for t in tables:
        fb = pa.compute.equal(t["sig_kind"], "fallback")
        ob = pa.compute.equal(t["error"], "over-budget")
        counts["fallback"] += pa.compute.sum(fb).as_py() or 0
        counts["over_budget"] += pa.compute.sum(ob).as_py() or 0
    return counts


@ray.remote(num_returns=3)
def _sign_unit(path: str, file_format: str, row_groups, done, langs,
               prefixes, cfg: DedupConfig, part: str) -> tuple:
    """Sign the rows of one input unit whose ``file_id`` is not in
    ``done`` (the resume anti-join), ``cfg.sig_batch_size`` rows per
    ``sign_batch`` call, and write them, if any, as the Parquet part
    ``part`` (atomically). Returns ``(block, metadata, fallback
    counts)``."""
    t, _, _ = read_unit(path, file_format, row_groups, langs=langs,
                        exclude_path_prefixes=prefixes, ids=done,
                        drop_ids=True)
    n = cfg.sig_batch_size
    # an empty unit still signs its empty table: the output schema
    sig = pa.concat_tables([sign_batch(t.slice(i, n), cfg)
                            for i in range(0, t.num_rows, n)]
                           or [sign_batch(t, cfg)])
    if sig.num_rows:
        ckpt.write_part(sig, part)
    return (*_with_meta(sig), _fallback_counts([sig]))


def sign_input(input_paths, out_dir: str, cfg: DedupConfig, run_id: str,
               resume: bool = True, langs: list[str] | None = None,
               exclude_path_prefixes: list[str] | None = None) -> tuple:
    """Write the ``signatures`` stage: sign every input row the stage's
    parts lack, with one plain Ray task per input unit
    (``files.input_units``: a file, or a run of a Parquet file's row
    groups), each writing its own part ``part-<run_id>-<unit>.parquet``,
    then the manifest. Returns the stage as a materialized dataset (the
    new blocks and the earlier parts, read by one task each, in part
    name order) and its metrics ``extra``.

    A resume keeps the parts an earlier run left (bar a torn one or a
    temp file) and signs only the rows whose ``file_id`` they lack: the
    done ids are ``ray.put`` once and each task drops them. No Ray Data
    execution runs, and a fresh scan reads nothing back. A stage with
    no row gets one schema-only part."""
    d = ckpt.stage_dir(out_dir, "signatures")
    # a forced rescan starts from nothing
    if not resume:
        ckpt.clear_stage(out_dir, "signatures")
    ckpt.drop_torn_parts(out_dir, "signatures")
    done = ckpt.done_key_set(out_dir, "signatures") if resume else set()
    os.makedirs(d, exist_ok=True)
    earlier = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    t0 = _time.monotonic()
    parts = {f: ckpt._read_part.remote(os.path.join(d, f), None)
             for f in earlier}
    file_format, units = input_units(input_paths, cfg.sig_batch_size)
    done_ref = ray.put(pa.array(list(done), pa.string())) if done else None
    signed = {}
    for i, (path, row_groups) in enumerate(units):
        name = f"part-{run_id}-{i:05d}.parquet"
        signed[name] = _sign_unit.remote(
            path, file_format, row_groups, done_ref, langs,
            exclude_path_prefixes, cfg, os.path.join(d, name))
    read_metas = ray.get([m for _, m in parts.values()])
    read_s = _time.monotonic() - t0
    # waits for every task
    metas = ray.get([m for _, m, _ in signed.values()])
    counts = _fallback_counts(pq.read_table(os.path.join(d, f),
                                            columns=["sig_kind", "error"])
                              for f in earlier)
    for c in ray.get([c for _, _, c in signed.values()]):
        for k in counts:
            counts[k] += c[k]
    if any(m.metadata.num_rows for m in read_metas + metas):
        parts.update((name, (b, m)) for name, (b, m, _) in signed.items())
        sigs = _dataset_of([parts[name] for name in sorted(parts)])
    else:
        empty = sign_batch(UNIT_SCHEMA.empty_table(), cfg)
        if not earlier:
            # every row filtered: persist the schema so readers still work
            ckpt.write_part(empty, os.path.join(d, f"part-{run_id}-empty.parquet"))
        sigs = table_dataset(empty)
    ckpt.write_manifest(out_dir, "signatures", cfg.to_json())
    return sigs, {"resumed_from": len(done), "units": len(units),
                  "units_signed": sum(m.metadata.num_rows > 0 for m in metas),
                  "read_s": round(read_s, 2), **counts}


def run_pipeline(input_paths, out_dir: str, cfg: DedupConfig = DEFAULT_CONFIG,
                 resume: bool = True,
                 langs: list[str] | None = None,
                 exclude_path_prefixes: list[str] | None = None) -> dict:
    """Run (or resume) the full dedup pipeline. Returns every stage's
    Dataset (in memory if this run computed or read it, else a lazy read
    of its checkpoint), the metrics sink and the out dir."""
    cfg = cfg.resolved()   # fill the cluster-derived partition count
    metrics = MetricsSink(out_dir)
    cfg_json = cfg.to_json()

    # stages computed in this run: each is materialized once, written
    # from its blocks and handed to the next stage from the object
    # store; only a stage an earlier run completed is read from Parquet,
    # once, when a stage of this run first needs it
    mem: dict[str, MaterializedDataset] = {}

    def persist(ds_, name, schema=None):
        # clear first: a torn or stale earlier write must not mix in
        ckpt.clear_stage(out_dir, name)
        # a fanned-out shuffle leaves one block per partition, a union
        # the blocks of all its inputs: coalesce to one block per
        # ``groups.ROWS_PER_TASK`` rows (at most one per CPU), or every
        # downstream consumer and the write pay a task (and the
        # checkpoint a part) per small block
        m = coalesce_blocks(materialized(ds_))
        manifest = ckpt.write_stage(m, out_dir, name, cfg_json, schema=schema)
        mem[name] = m
        return len(manifest["partitions"])      # the parts written

    def rows_of(name):
        return ckpt.read_manifest(out_dir, name)["rows"]

    def load(name):
        if name not in mem:
            mem[name] = ckpt.read_stage(out_dir, name)
        return mem[name]

    def complete(name):
        return resume and ckpt.is_complete(out_dir, name)

    # -- signatures (the expensive stage: resumable mid-stage) --
    # a run that finds the stage complete still reads it back for the
    # stages after it: that read gets a metrics row of its own. A run
    # that finds every later stage complete reads nothing
    if not complete("signatures"):
        with StageTimer(metrics, "signatures") as t:
            sigs, extra = sign_input(input_paths, out_dir, cfg, metrics.run_id,
                                     resume, langs, exclude_path_prefixes)
            mem["signatures"] = sigs
            t.done(rows_of("signatures"), **extra)
    elif not all(complete(name) for name in STAGES[1:]):
        with StageTimer(metrics, "signatures_read") as t:
            # one Parquet read per run, a plain task per part; every
            # consumer below reads the blocks
            sigs = load("signatures")
            t.done(rows_of("signatures"),
                   read_s=round(_time.monotonic() - t.t0, 2))

    # -- exact-dup edges (A1) --
    if not complete("edges_exact"):
        with StageTimer(metrics, "edges_exact") as t:
            e = exact_dup_edges(sigs, cfg.num_partitions)
            parts = persist(e, "edges_exact", schema=_EDGE_SCHEMA)
            t.done(rows_of("edges_exact"), partitions=cfg.num_partitions,
                   parts=parts)

    # -- LSH candidate pairs (A2 part 1, salted) --
    # signature-identical rows (exact copies AND reformat-only twins)
    # collapse to one representative before banding: identical MinHash
    # => est-Jaccard 1.0 => near-dup edge with no banding/verification
    # needed. At web scale this is the single biggest bucket-skew and
    # duplicate-emission source (vendored/boilerplate copies). Their
    # signature broadcast feeds the in-bucket check and, in the same
    # scan, the verify scorer (every pair endpoint is a representative)
    rep_sigs = None
    if not (complete("pairs") and complete("edges_sig")):
        with StageTimer(metrics, "pairs") as t:
            reps, sig_edges = signature_representatives(sigs, cfg)
            persist(sig_edges, "edges_sig", schema=_EDGE_SCHEMA)
            rep_sigs = pack_signatures(reps, cfg)
            p = candidate_pairs(reps, cfg, rep_sigs)
            parts = persist(p, "pairs", schema=_PAIR_SCHEMA)
            t.done(rows_of("pairs"), partitions=cfg.num_partitions,
                   parts=parts)

    # -- Jaccard verification (J4) --
    if not complete("verified"):
        with StageTimer(metrics, "verified") as t:
            if rows_of("pairs") == 0:
                v = table_dataset(_VERIFIED_SCHEMA.empty_table())
            else:
                v = verify_pairs(
                    load("pairs"), sigs, cfg,
                    n_sigs=ckpt.read_manifest(out_dir, "signatures")["rows"],
                    packed=rep_sigs)
            parts = persist(v, "verified", schema=_VERIFIED_SCHEMA)
            t.done(rows_of("verified"), partitions=cfg.num_partitions,
                   parts=parts)
    rep_sigs = None  # frees the broadcast's plasma objects

    # -- containment (suffix-array substring) edges --
    if not complete("edges_cont"):
        with StageTimer(metrics, "edges_cont") as t:
            _t0 = _time.monotonic()
            cands = map_blocks(load("verified"), lambda tb: tb.filter(
                pa.compute.equal(tb["verdict"], "containment_cand"))
                .select(["a", "b"]), _EDGE_SCHEMA)
            ids = map_blocks(cands, lambda tb: pa.table({"file_id": pa.concat_arrays(
                [tb["a"].combine_chunks(), tb["b"].combine_chunks()])}),
                _IDS_SCHEMA)
            _t_ids = _t_scan = 0.0
            n_cand_ids = 0
            scan = dict.fromkeys(
                ("files_read", "row_groups_total", "row_groups_read"), 0)
            if ids.count() == 0:
                ce = table_dataset(_EMPTY_EDGES)
            else:
                # only the candidates' content is read again, by plain
                # tasks over the input files; below the byte cap each
                # task filters by the ids, past it every row comes back
                # and the join route prunes
                id_tbl = collect_under_cap(ids, cfg.broadcast_max_bytes)
                _t_ids = _time.monotonic() - _t0
                content, scan = read_content(
                    input_paths, None if id_tbl is None else id_tbl["file_id"],
                    langs=langs, exclude_path_prefixes=exclude_path_prefixes)
                if id_tbl is None:
                    content = broadcast_join(
                        content, ids, "file_id", "file_id", "semi",
                        cfg.broadcast_max_bytes, cfg.num_partitions)
                _t_scan = _time.monotonic() - _t0 - _t_ids
                n_cand_ids = content.count()
                verify_cont = ContainmentVerify()

                def with_a(tb: pa.Table) -> pa.Table:
                    return rename_drop(tb, {"content": "content_a"}, ())

                def contained(tb: pa.Table) -> pa.Table:
                    return verify_cont(
                        rename_drop(tb, {"content": "content_b"}, ()))

                ctbl = collect_under_cap(content, cfg.broadcast_max_bytes)
                if ctbl is None:
                    # past the cap, one hash join per endpoint; both
                    # content attaches and the substring check ride as
                    # the joins' per-block ``post``
                    j = broadcast_join(
                        cands, content, "a", "file_id", "inner",
                        cfg.broadcast_max_bytes, cfg.num_partitions,
                        post=with_a)
                    ce = broadcast_join(
                        j, content, "b", "file_id", "inner",
                        cfg.broadcast_max_bytes, cfg.num_partitions,
                        post=contained)
                else:
                    # below it the content is collected and put once, and
                    # one task per run of blocks attaches both endpoints
                    # and runs the substring check
                    ref = ray.put(ctbl)

                    def attach(tb: pa.Table) -> pa.Table:
                        c = ray.get(ref)
                        for key, post in (("a", with_a), ("b", contained)):
                            tb = post(tb.join(c, keys=key, right_keys="file_id",
                                              join_type="inner",
                                              use_threads=False))
                        return tb

                    ce = map_blocks(cands, attach, _EDGE_SCHEMA)
            parts = persist(ce, "edges_cont", schema=_EDGE_SCHEMA)
            # sub-step attribution (the metrics 'extra' column):
            # candidate-id collect, pruned content scan (with the input
            # files and row groups it read), and the remainder (attach
            # + verify + persist)
            t.done(rows_of("edges_cont"), partitions=cfg.num_partitions,
                   parts=parts,
                   cand_ids_s=round(_t_ids, 2),
                   n_cand_ids=n_cand_ids, content_scan_s=round(_t_scan, 2),
                   **scan)

    # -- edge union --
    if not complete("edges"):
        with StageTimer(metrics, "edges") as t:
            near = map_blocks(load("verified"), lambda tb: tb.filter(
                pa.compute.equal(tb["verdict"], "near_dup"))
                .select(["a", "b"]), _EDGE_SCHEMA)
            # every input is already (a, b): the union takes their
            # blocks as they are
            all_edges = union_blocks(
                [near] + [load(name) for name in
                          ("edges_exact", "edges_sig", "edges_cont")],
                _EDGE_SCHEMA)
            parts = persist(all_edges, "edges", schema=_EDGE_SCHEMA)
            t.done(rows_of("edges"), parts=parts)

    # -- connected components (A2 part 2) --
    if not complete("clusters"):
        with StageTimer(metrics, "clusters") as t:
            _t0 = _time.monotonic()
            labels = connected_components(load("edges"), cfg)
            _t_cc = _time.monotonic() - _t0
            meta_schema = pa.schema([
                ("file_id", pa.string()), ("repo", pa.string()),
                ("path", pa.string()), ("commit", pa.string()),
                ("n_bytes", pa.int64())])
            meta = map_blocks(sigs, lambda tb: tb.select(meta_schema.names),
                              meta_schema)
            cl_schema = meta_schema.append(pa.field("cluster_id", pa.string()))

            def fill(tb: pa.Table) -> pa.Table:
                if tb.num_rows == 0:
                    return cl_schema.empty_table()
                from ..functions.arrow_utils import safe_coalesce
                cid = safe_coalesce(tb["cluster_id"], tb["file_id"])
                return ensure_schema(
                    tb.drop_columns(["cluster_id"]).append_column("cluster_id", cid),
                    cl_schema)

            # label attach: the labels cover only edge-touched nodes
            # (small), the meta stream is every file (big) — a
            # broadcast beats shuffling the full 5-column meta table
            # through a partitioned join (measured: clusters stage
            # 24.5 -> ~8 s at 1M files / 32 cpus)
            full = broadcast_attach_str(
                meta, labels, "file_id", "file_id", "left",
                cfg.broadcast_max_bytes, cfg.num_partitions, post=fill)
            parts = persist(full, "clusters")
            t.done(rows_of("clusters"), partitions=cfg.num_partitions,
                   parts=parts,
                   cc_s=round(_t_cc, 2),
                   attach_write_s=round(_time.monotonic() - _t0 - _t_cc, 2))

    # -- canonical pick + actions lineage (A4) --
    if not complete("actions"):
        with StageTimer(metrics, "actions") as t:
            acts = canonical_actions(load("clusters"), cfg)
            parts = persist(acts, "actions")
            t.done(rows_of("actions"), partitions=cfg.num_partitions,
                   parts=parts)

    # a stage no stage of this run needed stays on disk until the
    # caller reads it
    return {
        **{name: mem[name] if name in mem
           else ckpt.read_stage(out_dir, name, lazy=True) for name in STAGES},
        "metrics": metrics, "out_dir": out_dir,
    }


