"""End-to-end dedup pipeline with checkpoint/resume.

The Ray-Data recast of the reference's intended flow
(/root/reference/dev_notes.md:1-49, docs/mermaid/core-architecture.mmd:2-38:
Discovery -> Processing -> Persistence -> DuplicateCheck -> Action) and
of the ``ImageDeduper::run`` / ``hash_and_persist`` drivers
(/root/reference/crates/image-deduper-core/src/lib.rs:110-243):

  read + sign_batch (row slices, part/unit)   [checkpoint signatures]
  -> exact sha256 edges (partition blocks)     [checkpoint edges_exact]
  -> signature-identical collapse              [checkpoint edges_sig]
  -> LSH candidate pairs (salted, on reps)     [checkpoint pairs]
  -> Jaccard verification (broadcast matrix)   [checkpoint verified]
  -> containment verification (substring pass) [checkpoint edges_cont]
  -> union edges                               [checkpoint edges]
  -> connected components                      [checkpoint clusters]
  -> canonical pick + actions lineage          [checkpoint actions]

The run is one table, ``STAGE_TABLE``: an entry per step, in run order,
names the stages it writes (the ``pairs`` step writes ``edges_sig`` and
``pairs``), the stages it reads and its build. ``run_pipeline`` is one
loop over it. It skips an entry whose stages are all complete (the
find_new_images discipline, db.rs:132-164); otherwise it reads from
Parquet each stage the entry reads that this run has not computed,
times the build and records the entry's metrics row under the last
stage it writes. Each build writes its stages through ``_Run.persist``
and gets its inputs as arguments, in the entry's order. ``STAGES``,
which ``stats`` and ``diagnose`` read, is the table's written stages.

The checkpoints are written, never read back by the run that wrote
them. The signatures build (``sign_input``) writes one part per input
unit (a file, or a run of a Parquet file's row groups) and spreads the
signing over the cluster's CPUs in row slices, two per CPU: a Parquet
unit is a read task, a sign task per slice and a write task, a JSONL or
CSV file one plain Ray task. Each unit drops the done ids,
signs its rows and writes its part to a temp name, then renames it, so
a killed scan keeps whole parts only; the units' blocks are the stage,
in memory. Every other stage is
materialized once, its blocks are written by plain tasks, and the next
stage reads it from the object store. Only stages an earlier run
completed (and the parts a killed run left) are read from Parquet, each
by one plain Ray task per part (``checkpoints.read_stage``) and only
when an entry of this run reads it; a signatures part left without a
Parquet footer, or a temp file, is dropped before the resume. The
signatures stage's six consumers (exact edges, signature collapse and
its anti-join, pair resolution, the verify pack, the cluster meta)
take its blocks from the object store, and the shuffles among them run
their row prep in their own map tasks (``functions/groups``). Every
other map over a materialized stage (the joins' probes and their
per-block ``post``, verify scoring, the edge filters, the cluster
meta) runs as plain Ray tasks through ``functions/groups.map_blocks``,
and the edge union takes the blocks of its four inputs as they are
(``union_blocks``). The containment stage looks up the content of its
candidate ids with one plain task per input file
(``sources/files.read_content``), which reads a Parquet file's
``content`` only in the row groups that hold a candidate. A fresh scan
thus starts no Ray Data execution. The read of an earlier run's
signatures parts is the ``read_s`` of the ``signatures`` metrics row,
or of a ``signatures_read`` row when an earlier run completed the
stage.

Every small-side lookup (signature-member filter, pair resolution,
containment id prune and content attach, cluster label attach) is one
``functions/joins.broadcast_join``: one byte cap,
``cfg.broadcast_max_bytes``, picks a broadcast or a partitioned hash
join. A lookup for both ends of a pair (pair resolution, the content
attach, verify past the cap) is one call on ``("a", "b")``, so its
small side is collected and put once. The ``content`` column is dropped
inside the signature stage; below the cap the candidate ids ride to the
content lookup's tasks, so only the candidates' content leaves them,
and never crosses a shuffle.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..config import DedupConfig, DEFAULT_CONFIG
from ..functions.arrow_utils import ensure_schema, safe_coalesce
from ..functions.groups import (_dataset_of, _with_meta, coalesce_blocks,
                                default_partitions, map_blocks,
                                materialized, table_dataset, union_blocks)
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
from ..state.metrics import MetricsSink

_EDGE_SCHEMA = pa.schema([("a", pa.string()), ("b", pa.string())])
_VERIFIED_SCHEMA = _EDGE_SCHEMA.append(pa.field("jaccard", pa.float64())).append(
    pa.field("verdict", pa.string()))
_IDS_SCHEMA = pa.schema([("file_id", pa.string())])

# perfbench/tracing.py times the label attach under this name; drop the
# alias with ROADMAP item 5
broadcast_attach_str = broadcast_join


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


def _sign_rows(t: pa.Table, cfg: DedupConfig) -> pa.Table:
    """``sign_batch`` over ``t``, ``cfg.sig_batch_size`` rows per call."""
    n = cfg.sig_batch_size
    # no row still signs the empty table: the output schema
    return pa.concat_tables([sign_batch(t.slice(i, n), cfg)
                             for i in range(0, t.num_rows, n)]
                            or [sign_batch(t, cfg)])


def _write_signed(sig: pa.Table, part: str) -> tuple:
    """Write ``sig``, if it holds a row, as the Parquet part ``part``
    (atomically); returns ``(block, metadata, fallback counts)``."""
    if sig.num_rows:
        ckpt.write_part(sig, part)
    return (*_with_meta(sig), _fallback_counts([sig]))


@ray.remote(num_returns=3)
def _sign_unit(path: str, file_format: str, row_groups, done, langs,
               prefixes, cfg: DedupConfig, part: str) -> tuple:
    """Sign the rows of one JSONL/CSV file whose ``file_id`` is not in
    ``done`` (the resume anti-join) and write them, if any, as the part
    ``part``: no footer counts such a file's rows, so one task does it
    all."""
    t, _, _ = read_unit(path, file_format, row_groups, langs=langs,
                        exclude_path_prefixes=prefixes, ids=done,
                        drop_ids=True)
    return _write_signed(_sign_rows(t, cfg), part)


@ray.remote(num_returns=2)
def _read_kept(path: str, file_format: str, row_groups, done, langs,
               prefixes) -> tuple:
    """The rows of one input unit whose ``file_id`` is not in ``done``,
    and their count: the input of a Parquet unit's sign tasks."""
    t, _, _ = read_unit(path, file_format, row_groups, langs=langs,
                        exclude_path_prefixes=prefixes, ids=done,
                        drop_ids=True)
    return t, t.num_rows


@ray.remote
def _sign_slice(rows: pa.Table, start: int, n: int,
                cfg: DedupConfig) -> pa.Table:
    """The signatures of ``rows[start:start + n]`` (a zero-copy slice of
    the unit's kept rows in the object store)."""
    return _sign_rows(rows.slice(start, n), cfg)


@ray.remote(num_returns=3)
def _write_slices(part: str, *slices: pa.Table) -> tuple:
    """A Parquet unit's part: its signed slices in row order."""
    return _write_signed(pa.concat_tables(slices), part)


def sign_input(input_paths, out_dir: str, cfg: DedupConfig, run_id: str,
               resume: bool = True, langs: list[str] | None = None,
               exclude_path_prefixes: list[str] | None = None) -> tuple:
    """Write the ``signatures`` stage: sign every input row the stage's
    parts lack, one part ``part-<run_id>-<unit>.parquet`` per input unit
    (``files.input_units``: a file, or a run of a Parquet file's row
    groups), then the manifest. Returns the stage as a materialized
    dataset (the new blocks and the earlier parts, read by one task
    each, in part name order) and its metrics ``extra``.

    The work is spread over the cluster's CPUs in slices of
    ``slice_rows``, the input's footer rows over two slices per CPU. A
    Parquet unit is a read task that puts its kept rows in the object
    store, a sign task per ``slice_rows`` of them, each on a zero-copy
    slice, and a write task that joins the slices in row order (no sign
    or write task runs for a unit with no kept row). A JSONL/CSV file,
    which no footer counts, is one plain task that reads, signs and
    writes it. Either way the unit gives one block and one part, of the
    same rows in input order, and every task is waited for.

    A resume keeps the parts an earlier run left (bar a torn one or a
    temp file) and signs only the rows whose ``file_id`` they lack: the
    done ids are ``ray.put`` once and each read drops them. No Ray Data
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
    footer_rows = sum(n or 0 for _, _, n in units)
    slice_rows = max(1, -(-footer_rows // (2 * default_partitions())))
    signed, kept = {}, {}
    for i, (path, row_groups, n) in enumerate(units):
        name = f"part-{run_id}-{i:05d}.parquet"
        args = (path, file_format, row_groups, done_ref, langs,
                exclude_path_prefixes)
        if n is None:
            signed[name] = _sign_unit.remote(*args, cfg, os.path.join(d, name))
        else:
            kept[name] = _read_kept.remote(*args)
    read_metas = ray.get([m for _, m in parts.values()])
    read_s = _time.monotonic() - t0
    sign_tasks = len(signed)
    empty = sign_batch(UNIT_SCHEMA.empty_table(), cfg)
    no_rows = None
    for (name, (rows, _)), n in zip(kept.items(),
                                    ray.get([n for _, n in kept.values()])):
        sign_tasks += -(-n // slice_rows)
        if n:
            signed[name] = _write_slices.remote(os.path.join(d, name), *(
                _sign_slice.remote(rows, s, slice_rows, cfg)
                for s in range(0, n, slice_rows)))
        else:
            # no sign task and no part, but the unit's block all the
            # same: empty, with the stage schema
            no_rows = no_rows or tuple(map(ray.put, (
                *_with_meta(empty), _fallback_counts([]))))
            signed[name] = no_rows
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
        if not earlier:
            # every row filtered: persist the schema so readers still work
            ckpt.write_part(empty, os.path.join(d, f"part-{run_id}-empty.parquet"))
        sigs = table_dataset(empty)
    ckpt.write_manifest(out_dir, "signatures", cfg.to_json())
    return sigs, {"resumed_from": len(done), "units": len(units),
                  "units_signed": sum(m.metadata.num_rows > 0 for m in metas),
                  "sign_tasks": sign_tasks, "slice_rows": slice_rows,
                  "read_s": round(read_s, 2), **counts}


@dataclass
class _Run:
    """One ``run_pipeline`` call: its arguments, the stages it holds in
    memory, and the checkpoint write and read every build goes through."""
    input_paths: object
    out_dir: str
    cfg: DedupConfig
    resume: bool
    langs: list[str] | None
    exclude_path_prefixes: list[str] | None
    metrics: MetricsSink
    # stages computed in this run: each is materialized once, written
    # from its blocks and handed to the next stage from the object
    # store; only a stage an earlier run completed is read from Parquet,
    # once, when an entry of this run first reads it
    mem: dict = field(default_factory=dict)
    # the representatives' signature broadcast that built ``pairs``;
    # ``verified`` scores against it in the same run
    packed: tuple | None = None

    def persist(self, ds, name: str) -> dict:
        """Write ``ds`` as stage ``name`` and keep it in memory; returns
        the metrics ``extra`` every wide stage reports."""
        # clear first: a torn or stale earlier write must not mix in
        ckpt.clear_stage(self.out_dir, name)
        # a fanned-out shuffle leaves one block per partition, a union
        # the blocks of all its inputs: coalesce to one block per
        # ``groups.ROWS_PER_TASK`` rows (at most one per CPU), or every
        # downstream consumer and the write pay a task (and the
        # checkpoint a part) per small block
        m = coalesce_blocks(materialized(ds))
        manifest = ckpt.write_stage(m, self.out_dir, name, self.cfg.to_json())
        self.mem[name] = m
        return {"partitions": self.cfg.num_partitions,
                "parts": len(manifest["partitions"])}

    def rows(self, name: str) -> int:
        return ckpt.read_manifest(self.out_dir, name)["rows"]

    def load(self, name: str):
        """Stage ``name``: from memory, else read from its checkpoint.
        ``signatures``, which six consumers share, is read once per run
        (a plain task per part), and that read gets a metrics row of its
        own; a run whose entries read no signatures reads none."""
        if name not in self.mem:
            t0 = _time.monotonic()
            self.mem[name] = ckpt.read_stage(self.out_dir, name)
            if name == "signatures":
                s = _time.monotonic() - t0
                self.metrics.record("signatures_read", self.rows(name), s,
                                    read_s=round(s, 2))
        return self.mem[name]


def _signatures(run: _Run) -> dict:
    # the expensive stage: resumable mid-stage
    run.mem["signatures"], extra = sign_input(
        run.input_paths, run.out_dir, run.cfg, run.metrics.run_id, run.resume,
        run.langs, run.exclude_path_prefixes)
    return extra


def _edges_exact(run: _Run, sigs) -> dict:
    # exact-dup edges (A1)
    return run.persist(exact_dup_edges(sigs, run.cfg.num_partitions),
                       "edges_exact")


def _pairs(run: _Run, sigs) -> dict:
    # LSH candidate pairs (A2 part 1, salted).
    # signature-identical rows (exact copies AND reformat-only twins)
    # collapse to one representative before banding: identical MinHash
    # => est-Jaccard 1.0 => near-dup edge with no banding/verification
    # needed. At web scale this is the single biggest bucket-skew and
    # duplicate-emission source (vendored/boilerplate copies). Their
    # signature broadcast feeds the in-bucket check and, in the same
    # scan, the verify scorer (every pair endpoint is a representative)
    reps, sig_edges = signature_representatives(sigs, run.cfg)
    run.persist(sig_edges, "edges_sig")
    run.packed = pack_signatures(reps, run.cfg)
    return run.persist(candidate_pairs(reps, run.cfg, run.packed), "pairs")


def _verified(run: _Run, pairs, sigs) -> dict:
    # Jaccard verification (J4)
    # the broadcast's plasma objects are freed with this stage
    packed, run.packed = run.packed, None
    v = (table_dataset(_VERIFIED_SCHEMA.empty_table()) if run.rows("pairs") == 0
         else verify_pairs(pairs, sigs, run.cfg, packed=packed))
    return run.persist(v, "verified")


def _edges_cont(run: _Run, verified) -> dict:
    # containment (suffix-array substring) edges
    cfg = run.cfg
    _t0 = _time.monotonic()
    cands = map_blocks(verified, lambda tb: tb.filter(
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
        ce = table_dataset(_EDGE_SCHEMA.empty_table())
    else:
        # only the candidates' content is read again, by plain
        # tasks over the input files; below the byte cap each
        # task filters by the ids, past it every row comes back
        # and the join route prunes
        id_tbl = collect_under_cap(ids, cfg.broadcast_max_bytes)
        _t_ids = _time.monotonic() - _t0
        content, scan = read_content(
            run.input_paths, None if id_tbl is None else id_tbl["file_id"],
            langs=run.langs, exclude_path_prefixes=run.exclude_path_prefixes)
        if id_tbl is None:
            content = broadcast_join(
                content, ids, "file_id", "file_id", "semi",
                cfg.broadcast_max_bytes, cfg.num_partitions)
        _t_scan = _time.monotonic() - _t0 - _t_ids
        n_cand_ids = content.count()
        # one lookup for both endpoints: below the byte cap the
        # content is collected and put once and one task per run of
        # blocks attaches ``content_a`` and ``content_b``; past it one
        # hash join per endpoint. The substring check rides as the
        # per-block ``post``
        ce = broadcast_join(cands, content, ("a", "b"), "file_id", "inner",
                            cfg.broadcast_max_bytes, cfg.num_partitions,
                            post=ContainmentVerify())
    # sub-step attribution (the metrics 'extra' column):
    # candidate-id collect, pruned content scan (with the input
    # files and row groups it read), and the remainder (attach
    # + verify + persist)
    return {**run.persist(ce, "edges_cont"), "cand_ids_s": round(_t_ids, 2),
            "n_cand_ids": n_cand_ids, "content_scan_s": round(_t_scan, 2),
            **scan}


def _edges(run: _Run, verified, *edges) -> dict:
    # edge union
    near = map_blocks(verified, lambda tb: tb.filter(
        pa.compute.equal(tb["verdict"], "near_dup"))
        .select(["a", "b"]), _EDGE_SCHEMA)
    # every input is already (a, b): the union takes their
    # blocks as they are
    return run.persist(union_blocks([near, *edges], _EDGE_SCHEMA), "edges")


def _clusters(run: _Run, edges, sigs) -> dict:
    # connected components (A2 part 2)
    cfg = run.cfg
    _t0 = _time.monotonic()
    labels = connected_components(edges, cfg)
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
    return {**run.persist(full, "clusters"), "cc_s": round(_t_cc, 2),
            "attach_write_s": round(_time.monotonic() - _t0 - _t_cc, 2)}


def _actions(run: _Run, clusters) -> dict:
    # canonical pick + actions lineage (A4)
    return run.persist(canonical_actions(clusters, run.cfg), "actions")


# the run, in order: (stages written, stages read, build). A build gets
# the ``_Run`` and the stages it reads, and returns its metrics row's
# ``extra``; it names every function perfbench/tracing.py wraps as a
# module global, so the tracer's swap reaches it at call time
STAGE_TABLE = (
    (("signatures",), (), _signatures),
    (("edges_exact",), ("signatures",), _edges_exact),
    (("edges_sig", "pairs"), ("signatures",), _pairs),
    (("verified",), ("pairs", "signatures"), _verified),
    (("edges_cont",), ("verified",), _edges_cont),
    (("edges",), ("verified", "edges_exact", "edges_sig", "edges_cont"),
     _edges),
    (("clusters",), ("edges", "signatures"), _clusters),
    (("actions",), ("clusters",), _actions),
)
# every checkpointed stage, in run order; ``stats`` and ``diagnose``
# read the same list
STAGES = tuple(name for written, _, _ in STAGE_TABLE for name in written)
# the (a, b) edge and pair stages between signatures and clusters
EDGE_STAGES = STAGES[1:-2]


def run_pipeline(input_paths, out_dir: str, cfg: DedupConfig = DEFAULT_CONFIG,
                 resume: bool = True,
                 langs: list[str] | None = None,
                 exclude_path_prefixes: list[str] | None = None) -> dict:
    """Run (or resume) the full dedup pipeline. Returns every stage's
    Dataset (in memory if this run computed or read it, else a lazy read
    of its checkpoint), the metrics sink and the out dir."""
    # resolved(): fill the cluster-derived partition count
    run = _Run(input_paths, out_dir, cfg.resolved(), resume, langs,
               exclude_path_prefixes, MetricsSink(out_dir))
    for written, read, build in STAGE_TABLE:
        if resume and all(ckpt.is_complete(out_dir, s) for s in written):
            continue
        inputs = [run.load(name) for name in read]
        t0 = _time.monotonic()
        extra = build(run, *inputs)
        run.metrics.record(written[-1], run.rows(written[-1]),
                           _time.monotonic() - t0, **extra)
    # a stage no entry of this run read stays on disk until the caller
    # reads it
    return {
        **{name: run.mem[name] if name in run.mem
           else ckpt.read_stage(out_dir, name, lazy=True) for name in STAGES},
        "metrics": run.metrics, "out_dir": out_dir,
    }
