"""End-to-end dedup pipeline with checkpoint/resume.

The Ray-Data recast of the reference's intended flow
(/root/reference/dev_notes.md:1-49, docs/mermaid/core-architecture.mmd:2-38:
Discovery -> Processing -> Persistence -> DuplicateCheck -> Action) and
of the ``ImageDeduper::run`` / ``hash_and_persist`` drivers
(/root/reference/crates/image-deduper-core/src/lib.rs:110-243):

  read files -> sign_batch (stateless tasks)   [checkpoint signatures]
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
back by the run that wrote them: each stage after signatures is
materialized once, its blocks are written by plain tasks, and the next
stage reads it from the object store. Only signatures (streamed to
disk, so a killed run keeps its parts) and stages an earlier run
completed are read from Parquet. The ``content`` column never crosses a
shuffle: it is dropped inside the signature stage and re-read from the
source only for the (small) containment-candidate set.
"""

from __future__ import annotations

import time as _time

import pyarrow as pa
import ray.data
from ray.data.dataset import MaterializedDataset

from ..config import DedupConfig, DEFAULT_CONFIG
from ..functions import hashing
from ..functions.arrow_utils import ensure_schema
from ..functions.groups import default_partitions
from ..functions.joins import broadcast_attach_str, hash_join
from ..sources import checkpoints as ckpt
from ..sources.files import read_files
from ..stages.canonical import canonical_actions
from ..stages.cc import connected_components
from ..stages.lsh import candidate_pairs
from ..stages.signatures import sign_batch
from ..stages.substring import ContainmentVerify
from ..stages.verify import (exact_dup_edges, signature_representatives,
                             verify_pairs)
from ..state.metrics import MetricsSink, StageTimer

_EDGE_SCHEMA = pa.schema([("a", pa.string()), ("b", pa.string())])
_PAIR_SCHEMA = _EDGE_SCHEMA.append(pa.field("is_cont", pa.int8()))
_VERIFIED_SCHEMA = _EDGE_SCHEMA.append(pa.field("jaccard", pa.float64())).append(
    pa.field("verdict", pa.string()))
_EMPTY_EDGES = _EDGE_SCHEMA.empty_table()

# every checkpointed stage, in run order; ``stats`` and ``diagnose``
# read the same list
STAGES = ("signatures", "edges_exact", "edges_sig", "pairs", "verified",
          "edges_cont", "edges", "clusters", "actions")
# the (a, b) edge and pair stages between signatures and clusters
EDGE_STAGES = STAGES[1:-2]


def _add_file_id(batch: pa.Table) -> pa.Table:
    fids = hashing.file_ids(batch["repo"].to_pylist(), batch["path"].to_pylist(),
                            batch["commit"].to_pylist())
    return batch.append_column("file_id", pa.array(fids, pa.string()))


def compute_signatures(files: ray.data.Dataset, cfg: DedupConfig) -> ray.data.Dataset:
    # plain tasks, not an actor pool: no worker holds a CPU between
    # batches, so the read and the next stage always find one
    return files.map_batches(sign_batch, fn_kwargs={"cfg": cfg},
                             batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=cfg.sig_batch_size)


def _fallback_counts(out_dir: str) -> dict[str, int]:
    """``fallback`` and ``over_budget`` row counts of the signatures
    checkpoint, read from two columns of its parts (no Ray job)."""
    counts = {"fallback": 0, "over_budget": 0}
    for t in ckpt.part_columns(out_dir, "signatures", ["sig_kind", "error"]):
        fb = pa.compute.equal(t["sig_kind"], "fallback")
        ob = pa.compute.equal(t["error"], "over-budget")
        counts["fallback"] += pa.compute.sum(fb).as_py() or 0
        counts["over_budget"] += pa.compute.sum(ob).as_py() or 0
    return counts


def run_pipeline(input_paths, out_dir: str, cfg: DedupConfig = DEFAULT_CONFIG,
                 resume: bool = True,
                 langs: list[str] | None = None,
                 exclude_path_prefixes: list[str] | None = None) -> dict:
    """Run (or resume) the full dedup pipeline. Returns every stage's
    Dataset (in memory if this run computed it, else its checkpoint),
    the metrics sink and the out dir."""
    cfg = cfg.resolved()   # fill the cluster-derived partition count
    metrics = MetricsSink(out_dir)
    cfg_json = cfg.to_json()

    # stages computed in this run: each is materialized once, written
    # from its blocks and handed to the next stage from the object
    # store; only a stage an earlier run completed is read from Parquet
    mem: dict[str, MaterializedDataset] = {}

    def persist(ds_, name, schema=None):
        # clear first: a torn or stale earlier write must not mix in
        ckpt.clear_stage(out_dir, name)
        m = ds_.materialize()
        # shuffle stages leave one small block per partition (plus one
        # per union input): coalesce, or every downstream consumer and
        # the write pay a task per tiny block
        cap = 2 * default_partitions()
        if m.num_blocks() > cap:
            m = m.repartition(cap).materialize()
        ckpt.write_stage(m, out_dir, name, cfg_json, schema=schema)
        mem[name] = m
        return m

    def rows_of(name):
        return ckpt.read_manifest(out_dir, name)["rows"]

    def load(name):
        return mem[name] if name in mem else ckpt.read_stage(out_dir, name)

    def complete(name):
        return resume and ckpt.is_complete(out_dir, name)

    # -- signatures (the expensive stage: resumable mid-stage) --
    if not complete("signatures"):
        with StageTimer(metrics, "signatures") as t:
            files = read_files(input_paths, langs=langs,
                               exclude_path_prefixes=exclude_path_prefixes)
            # a resume keeps the parts already written and appends only
            # the files they lack; a forced rescan starts from nothing
            if not resume:
                ckpt.clear_stage(out_dir, "signatures")
            done = ckpt.done_key_set(out_dir, "signatures") if resume else set()
            if done:
                files = files.map_batches(_add_file_id, batch_format="pyarrow",
                                          zero_copy_batch=True)
                files = ckpt.anti_join_done(
                    files, done, lambda b: b["file_id"])
                files = files.map_batches(lambda b: b.drop_columns(["file_id"]),
                                          batch_format="pyarrow")
            # streamed, not materialized: a killed scan keeps the parts
            # written so far for the anti-join above
            ckpt.write_stage(compute_signatures(files, cfg), out_dir,
                             "signatures", cfg_json)
            t.done(ckpt.read_manifest(out_dir, "signatures")["rows"],
                   resumed_from=len(done), **_fallback_counts(out_dir))
    sigs = ckpt.read_stage(out_dir, "signatures")

    # -- exact-dup edges (A1) --
    if not complete("edges_exact"):
        with StageTimer(metrics, "edges_exact") as t:
            e = exact_dup_edges(sigs, cfg.num_partitions)
            e = persist(e, "edges_exact", schema=_EDGE_SCHEMA)
            t.done(rows_of("edges_exact"), partitions=cfg.num_partitions)
    edges_exact = load("edges_exact")

    # -- LSH candidate pairs (A2 part 1, salted) --
    # signature-identical rows (exact copies AND reformat-only twins)
    # collapse to one representative before banding: identical MinHash
    # => est-Jaccard 1.0 => near-dup edge with no banding/verification
    # needed. At web scale this is the single biggest bucket-skew and
    # duplicate-emission source (vendored/boilerplate copies).
    if not (complete("pairs") and complete("edges_sig")):
        with StageTimer(metrics, "pairs") as t:
            reps, sig_edges = signature_representatives(sigs, cfg)
            persist(sig_edges, "edges_sig", schema=_EDGE_SCHEMA)
            p = candidate_pairs(reps, cfg)
            p = persist(p, "pairs", schema=_PAIR_SCHEMA)
            t.done(rows_of("pairs"), partitions=cfg.num_partitions)
    pairs = load("pairs")
    edges_sig = load("edges_sig")

    # -- Jaccard verification (J4) --
    if not complete("verified"):
        with StageTimer(metrics, "verified") as t:
            if rows_of("pairs") == 0:
                v = ray.data.from_arrow(_VERIFIED_SCHEMA.empty_table())
            else:
                v = verify_pairs(
                    pairs, sigs, cfg,
                    n_sigs=ckpt.read_manifest(out_dir, "signatures")["rows"])
            v = persist(v, "verified", schema=_VERIFIED_SCHEMA)
            t.done(rows_of("verified"), partitions=cfg.num_partitions)
    verified = load("verified")

    # -- containment (suffix-array substring) edges --
    if not complete("edges_cont"):
        with StageTimer(metrics, "edges_cont") as t:

            _t0 = _time.monotonic()
            cands = verified.map_batches(
                lambda tb: tb.filter(
                    pa.compute.equal(tb["verdict"], "containment_cand"))
                .select(["a", "b"]),
                batch_format="pyarrow", zero_copy_batch=True)
            # candidate-id collection is CAPPED: past
            # cfg.cont_max_broadcast_ids the prune flips to a distributed
            # hash semi-join instead of a driver-resident set
            cand_ids: set | None = set()
            for b in cands.iter_batches(batch_size=65536,
                                        batch_format="pyarrow"):
                cand_ids.update(b["a"].to_pylist())
                cand_ids.update(b["b"].to_pylist())
                if len(cand_ids) > cfg.cont_max_broadcast_ids:
                    cand_ids = None
                    break
            _t_ids = _time.monotonic() - _t0
            _n_cand_ids = len(cand_ids) if cand_ids is not None else -1
            _t_scan = -1.0
            if cand_ids is not None and not cand_ids:
                ce = ray.data.from_arrow(_EMPTY_EDGES)
            else:
                raw_content = (read_files(input_paths, langs=langs,
                                          exclude_path_prefixes=exclude_path_prefixes)
                               .map_batches(_add_file_id, batch_format="pyarrow",
                                            zero_copy_batch=True)
                               .select_columns(["file_id", "content"]))
                if cand_ids is not None:
                    # semi-join prune: broadcast the (small) candidate id
                    # set once as an Arrow value set and filter content
                    # BEFORE anything shuffles — only the candidates'
                    # content is ever touched again. is_in is a C hash
                    # probe per batch, not a per-row Python test.
                    ids_ref = ray.put(pa.array(list(cand_ids), pa.string()))

                    def _only_cands(tb: pa.Table) -> pa.Table:
                        wanted = ray.get(ids_ref)
                        keep = pa.compute.is_in(tb["file_id"],
                                                value_set=wanted)
                        return tb.filter(keep)

                    content = raw_content.map_batches(
                        _only_cands, batch_format="pyarrow",
                        zero_copy_batch=True)
                else:
                    # over-cap: distinct candidate ids stay a Dataset and
                    # the prune is a partitioned hash semi-join
                    from ..functions.groups import partitioned_group_map

                    flat = cands.map_batches(
                        lambda tb: pa.table({"file_id": pa.concat_arrays(
                            [tb["a"].combine_chunks(),
                             tb["b"].combine_chunks()])}),
                        batch_format="pyarrow", zero_copy_batch=True)
                    ids_ds = partitioned_group_map(
                        flat, ["file_id"],
                        lambda df: df.drop_duplicates(["file_id"]),
                        cfg.num_partitions,
                        out_schema=pa.schema([("file_id", pa.string())]))
                    content = hash_join(
                        raw_content, ids_ds, "file_id", "file_id",
                        pa.schema([("file_id", pa.string()),
                                   ("content", pa.string())]),
                        pa.schema([]),
                        num_partitions=cfg.num_partitions)
                # common case: candidate content fits a broadcast —
                # collect it (streaming, byte-capped) and verify pairs
                # in a single map_batches with no shuffle at all; fall
                # back to partitioned joins only past the byte cap.
                # materialize() BEFORE the driver loop: iter_batches on
                # the lazy scan would throttle the whole full-corpus
                # read to the driver's single-threaded consumption
                # (measured: this stage INVERTED 8->32 cpus, 8.7->21 s,
                # until the scan was decoupled from the collect) — the
                # materialized result is only the candidates' content
                content = content.materialize()
                _t_scan = _time.monotonic() - _t0 - _t_ids
                # broadcast the candidate content as ONE Arrow table,
                # not a Python dict: an Arrow table is zero-copy
                # through plasma, while a ray.put dict of ~10^5 texts
                # is re-UNPICKLED by every worker (measured ~12 s of
                # this stage's wall at 32 cpus before the change);
                # lookups become index_in/take C kernels per batch
                parts: list[pa.Table] | None = []
                lookup_bytes = 0
                for b in content.iter_batches(batch_size=4096,
                                              batch_format="pyarrow"):
                    lookup_bytes += b.nbytes
                    if lookup_bytes > cfg.cont_broadcast_max_bytes:
                        parts = None
                        break
                    if b.num_rows:
                        parts.append(b)
                if parts is not None:
                    ctbl = pa.concat_tables(parts).combine_chunks() \
                        if parts else pa.table(
                            {"file_id": pa.array([], pa.string()),
                             "content": pa.array([], pa.string())})
                    content_ref = ray.put(ctbl)

                    def _attach(tb: pa.Table) -> pa.Table:
                        ct = ray.get(content_ref)
                        keys = ct["file_id"].combine_chunks() \
                            if isinstance(ct["file_id"], pa.ChunkedArray) \
                            else ct["file_id"]
                        ia = pa.compute.index_in(tb["a"], value_set=keys)
                        ib = pa.compute.index_in(tb["b"], value_set=keys)
                        # null index -> null content (take propagates)
                        ca = pa.compute.take(ct["content"], ia)
                        cb = pa.compute.take(ct["content"], ib)
                        return tb.append_column("content_a", ca) \
                            .append_column("content_b", cb)

                    ce = (cands.map_batches(_attach, batch_format="pyarrow")
                          .map_batches(ContainmentVerify(),
                                       batch_format="pyarrow"))
                else:
                    # candidate content too large to broadcast:
                    # partitioned joins (scale path)
                    content_a = content.map_batches(
                        lambda tb: tb.rename_columns(["file_id", "content_a"]),
                        batch_format="pyarrow", zero_copy_batch=True)
                    content_b = content.map_batches(
                        lambda tb: tb.rename_columns(["file_id", "content_b"]),
                        batch_format="pyarrow", zero_copy_batch=True)
                    ab = pa.schema([("a", pa.string()), ("b", pa.string())])
                    j = hash_join(cands, content_a, "a", "file_id", ab,
                                  pa.schema([("content_a", pa.string())]),
                                  num_partitions=cfg.num_partitions)
                    j = hash_join(j, content_b, "b", "file_id",
                                  ab.append(pa.field("content_a", pa.string())),
                                  pa.schema([("content_b", pa.string())]),
                                  num_partitions=cfg.num_partitions)
                    ce = j.map_batches(ContainmentVerify(),
                                       batch_format="pyarrow")
            ce = persist(ce, "edges_cont", schema=_EDGE_SCHEMA)
            # sub-step attribution (shows up in the metrics 'extra'
            # column): candidate-id collect, pruned content scan, and
            # the remainder (verify + persist) — the data that localized
            # this stage's single-box saturation in the first place
            t.done(rows_of("edges_cont"), partitions=cfg.num_partitions,
                   cand_ids_s=round(_t_ids, 2),
                   n_cand_ids=_n_cand_ids, content_scan_s=round(_t_scan, 2))
    edges_cont = load("edges_cont")

    # -- edge union --
    if not complete("edges"):
        with StageTimer(metrics, "edges") as t:
            near = verified.map_batches(
                lambda tb: tb.filter(pa.compute.equal(tb["verdict"], "near_dup"))
                .select(["a", "b"]),
                batch_format="pyarrow", zero_copy_batch=True)
            all_edges = near.union(edges_exact.select_columns(["a", "b"]),
                                   edges_sig.select_columns(["a", "b"]),
                                   edges_cont.select_columns(["a", "b"]))
            all_edges = persist(all_edges, "edges", schema=_EDGE_SCHEMA)
            t.done(rows_of("edges"))
    edges = load("edges")

    # -- connected components (A2 part 2) --
    if not complete("clusters"):
        with StageTimer(metrics, "clusters") as t:
            _t0 = _time.monotonic()
            labels = connected_components(edges, cfg)
            _t_cc = _time.monotonic() - _t0
            meta = sigs.select_columns(
                ["file_id", "repo", "path", "commit", "n_bytes"])
            meta_schema = pa.schema([
                ("file_id", pa.string()), ("repo", pa.string()),
                ("path", pa.string()), ("commit", pa.string()),
                ("n_bytes", pa.int64())])
            cl_schema = meta_schema.append(pa.field("cluster_id", pa.string()))
            lab = labels.map_batches(
                lambda tb: tb.rename_columns(["node", "cluster_id"]),
                batch_format="pyarrow")
            # label attach: the labels cover only edge-touched nodes
            # (small), the meta stream is every file (big) — a
            # byte-capped zero-copy Arrow broadcast probed per batch
            # beats shuffling the full 5-column meta table through a
            # partitioned join (measured: clusters stage 24.5 -> ~8 s
            # at 1M files / 32 cpus); past the cap the helper falls
            # back to that join
            full = broadcast_attach_str(
                meta, "file_id", lab, "node", "cluster_id", "cluster_id",
                max_bytes=cfg.verify_broadcast_max_bytes,
                num_partitions=cfg.num_partitions)

            def fill(tb: pa.Table) -> pa.Table:
                if tb.num_rows == 0:
                    return cl_schema.empty_table()
                from ..functions.arrow_utils import safe_coalesce
                cid = safe_coalesce(tb["cluster_id"], tb["file_id"])
                return ensure_schema(
                    tb.drop_columns(["cluster_id"]).append_column("cluster_id", cid),
                    cl_schema)

            full = full.map_batches(fill, batch_format="pyarrow")
            persist(full, "clusters")
            t.done(rows_of("clusters"), partitions=cfg.num_partitions,
                   cc_s=round(_t_cc, 2),
                   attach_write_s=round(_time.monotonic() - _t0 - _t_cc, 2))
    clusters = load("clusters")

    # -- canonical pick + actions lineage (A4) --
    if not complete("actions"):
        with StageTimer(metrics, "actions") as t:
            acts = canonical_actions(clusters, cfg)
            persist(acts, "actions")
            t.done(rows_of("actions"), partitions=cfg.num_partitions)
    actions = load("actions")

    return {
        "signatures": sigs, "edges_exact": edges_exact,
        "edges_sig": edges_sig, "pairs": pairs,
        "verified": verified, "edges_cont": edges_cont, "edges": edges,
        "clusters": clusters, "actions": actions, "metrics": metrics,
        "out_dir": out_dir,
    }


