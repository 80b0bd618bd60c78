"""CLI entry: ``python -m image_deduper_ray scan --input DIR --out DIR``.

The clap CLI analog (/root/reference/crates/image-deduper-cli/cli.rs:6-115):
``scan`` runs the full pipeline (their intended scan flow), ``stats``
prints checkpoint manifests (get_db_stats analog, db.rs:191-210),
``diagnose`` cross-checks stage row counts (diagnose_database analog,
db.rs:213-278). Config file + flag overrides mirror Config::from_file /
CLI override precedence (cli.rs:74-92).

This is the only library module allowed to own the Ray session
(guarded init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _load_config(args) -> "DedupConfig":
    from .config import DedupConfig

    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    if args.threshold is not None:
        base["jaccard_threshold"] = args.threshold
    if args.batch_size is not None:
        base["sig_batch_size"] = args.batch_size
    return DedupConfig(**base)


def cmd_scan(args) -> int:
    import pyarrow.compute as pc
    import ray

    cfg = _load_config(args)        # a bad config fails before Ray starts
    started = False
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
        started = True
    from .pipelines.dedup import run_pipeline
    from .sources import checkpoints as ckpt

    run_pipeline(args.input, args.out, cfg,
                 resume=not args.force_rescan,
                 langs=args.langs.split(",") if args.langs else None,
                 exclude_path_prefixes=(args.exclude.split(",")
                                        if args.exclude else None))
    # the summary runs no Ray job: files from the clusters manifest,
    # clusters as the keep rows of the actions parts (one per cluster)
    n_files = ckpt.read_manifest(args.out, "clusters")["rows"]
    n_clusters = sum(pc.sum(pc.equal(t["role"], "keep")).as_py() or 0
                     for t in ckpt.part_columns(args.out, "actions", ["role"]))
    print(json.dumps({"files": n_files, "clusters": n_clusters,
                      "out": args.out}))
    if started:                     # never tear down a caller's session
        ray.shutdown()
    return 0


def cmd_apply(args) -> int:
    """Execute the actions checkpoint against a real tree (the
    reference's intended Move/Delete/Symlink loop, types.rs:86-114).
    DRY-RUN by default; --execute makes changes. Writes per-row
    ActionResult lineage to a fresh <out>/apply_results/run_NNNN dir
    (append-only: prior runs' audit records are preserved) and prints a
    summary."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    started = False
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
        started = True
    from .sources import checkpoints as ckpt
    from .stages.apply import apply_actions

    actions = ckpt.read_stage(args.out, "actions")
    clusters = ckpt.read_stage(args.out, "clusters")
    res = apply_actions(actions, clusters, args.root,
                        dry_run=not args.execute).materialize()
    # each invocation writes its ActionResult lineage to a fresh
    # numbered run dir — a later dry-run must never destroy the audit
    # record of an earlier --execute (apply_results/ is append-only)
    base = os.path.join(args.out, "apply_results")
    os.makedirs(base, exist_ok=True)
    run = 1 + max((int(d[4:]) for d in os.listdir(base)
                   if d.startswith("run_") and d[4:].isdigit()),
                  default=0)
    res_dir = os.path.join(base, f"run_{run:04d}")
    res.write_parquet(res_dir)
    # summary via streamed per-batch partials — never a full to_pandas
    n = n_applied = n_errors = 0
    for b in res.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        n += b.num_rows
        n_applied += pc.sum(pc.cast(b["applied"], pa.int64())).as_py() or 0
        n_errors += pc.sum(pc.cast(pc.is_valid(b["error"]),
                                   pa.int64())).as_py() or 0
    print(json.dumps({"dups": n, "applied": n_applied,
                      "errors": n_errors, "dry_run": not args.execute,
                      "results": res_dir}))
    if started:                     # never tear down a caller's session
        ray.shutdown()
    return 0 if n_errors == 0 else 1


def cmd_stats(args) -> int:
    from .pipelines.dedup import STAGES
    from .sources import checkpoints as ckpt

    out = {}
    for stage in STAGES:
        try:
            out[stage] = ckpt.read_manifest(args.out, stage)["rows"]
        except FileNotFoundError:
            out[stage] = None
    print(json.dumps(out))
    return 0


def cmd_diagnose(args) -> int:
    """Consistency cross-check between ALL stage checkpoints — the J5
    diagnose_database analog (reference db.rs:213-278 audits every
    keyspace asymmetry; here: signatures<->clusters<->actions row
    accounting, one-keep-per-cluster, canonical self-consistency, and
    edge/pair endpoints contained in signatures). Vectorized numpy
    membership on fixed-width keys, not Python sets. Stages absent on
    disk are reported 'absent' and skipped, not failed."""
    import numpy as np
    import pyarrow.parquet as pq

    from .functions.arrow_utils import fixed_str_view
    from .pipelines.dedup import EDGE_STAGES

    def col(stage: str, c: str) -> "np.ndarray | None":
        # stream per row-group and view each batch's key column as
        # fixed-width S64 bytes (zero-copy on uniform-width columns) —
        # never to_pylist: at 10^9 rows the transient Python-str
        # materialization would OOM the driver, the S64 accumulation
        # is 64 B/row flat
        d = os.path.join(args.out, stage)
        if not os.path.isdir(d):
            return None
        vals = []
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                pf = pq.ParquetFile(os.path.join(d, f))
                for rb in pf.iter_batches(columns=[c], batch_size=262144):
                    a = rb.column(0)
                    if len(a) == 0:
                        continue
                    # zero-copy when the batch is uniform-width (the
                    # common case: 32-hex file_ids); per-batch-bounded
                    # pylist fallback otherwise
                    w0 = len(a[0].as_py().encode()) if a[0].is_valid \
                        else 0
                    try:
                        v = fixed_str_view(a, w0) if 0 < w0 <= 64 \
                            else fixed_str_view(a, 64)
                    except ValueError:
                        v = fixed_str_view(a, 64)
                    vals.append(v.astype("S64")
                                if v.dtype != np.dtype("S64") else v)
        return np.concatenate(vals) if vals else np.array([], "S64")

    def diff_counts(a: np.ndarray, b: np.ndarray) -> dict:
        only_a = np.unique(a[~np.isin(a, b)])
        only_b = np.unique(b[~np.isin(b, a)])
        return {"only_left": [x.decode() for x in only_a[:20]],
                "n_only_left": int(len(only_a)),
                "only_right": [x.decode() for x in only_b[:20]],
                "n_only_right": int(len(only_b))}

    report: dict = {"checks": {}}
    ok = True

    sig = col("signatures", "file_id")
    clu = col("clusters", "file_id")
    act = col("actions", "file_id")
    report["rows"] = {"signatures": None if sig is None else int(len(sig)),
                      "clusters": None if clu is None else int(len(clu)),
                      "actions": None if act is None else int(len(act))}

    # 1. every signed file is clustered and vice versa
    if sig is not None and clu is not None:
        d = diff_counts(sig, clu)
        good = d["n_only_left"] == 0 and d["n_only_right"] == 0
        report["checks"]["signatures_vs_clusters"] = {"ok": good, **d}
        ok &= good
    # 2. every clustered file has exactly one action row
    if clu is not None and act is not None:
        d = diff_counts(clu, act)
        good = (d["n_only_left"] == 0 and d["n_only_right"] == 0
                and len(act) == len(np.unique(act)))
        report["checks"]["clusters_vs_actions"] = {
            "ok": good, "duplicate_action_rows":
                int(len(act) - len(np.unique(act))), **d}
        ok &= good
    # 3. actions invariants: one keep per cluster; every canonical id
    #    is a keep row's file_id; dups reference their own cluster's
    #    canonical
    if act is not None:
        roles = col("actions", "role")
        cids = col("actions", "cluster_id")
        canon = col("actions", "canonical_file_id")
        keeps = roles == b"keep"
        n_clusters = len(np.unique(cids)) if len(cids) else 0
        keep_ids = act[keeps]
        good = (int(keeps.sum()) == n_clusters
                and bool(np.isin(canon, keep_ids).all())
                and len(np.unique(cids[keeps])) == int(keeps.sum()))
        report["checks"]["actions_invariants"] = {
            "ok": good, "n_keep": int(keeps.sum()),
            "n_clusters": n_clusters,
            "n_bad_canonicals": int((~np.isin(canon, keep_ids)).sum())}
        ok &= good
    # 4. edge/pair endpoints all come from signed files
    if sig is not None:
        for stage in EDGE_STAGES:
            a = col(stage, "a")
            if a is None:
                report["checks"][f"{stage}_endpoints"] = "absent"
                continue
            b = col(stage, "b")
            bad = int((~np.isin(a, sig)).sum() + (~np.isin(b, sig)).sum())
            report["checks"][f"{stage}_endpoints"] = {
                "ok": bad == 0, "rows": int(len(a)),
                "n_endpoints_not_in_signatures": bad}
            ok &= bad == 0

    report["consistent"] = bool(ok)
    print(json.dumps(report))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="image_deduper_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    scan = sub.add_parser("scan", help="run the full dedup pipeline")
    scan.add_argument("--input", required=True,
                      help="parquet dir(s) of the files table")
    scan.add_argument("--out", required=True, help="checkpoint/output dir")
    scan.add_argument("--config", help="JSON config file (DedupConfig fields)")
    scan.add_argument("--threshold", type=float, default=None)
    scan.add_argument("--batch-size", type=int, default=None)
    scan.add_argument("--langs", help="comma-separated lang filter")
    scan.add_argument("--exclude", help="comma-separated path prefixes")
    scan.add_argument("--force-rescan", action="store_true")
    scan.set_defaults(fn=cmd_scan)

    ap = sub.add_parser("apply",
                        help="execute the actions table against a tree "
                             "(dry-run unless --execute)")
    ap.add_argument("--out", required=True, help="checkpoint dir of a scan")
    ap.add_argument("--root", required=True,
                    help="directory tree the repo/path columns live under")
    ap.add_argument("--execute", action="store_true",
                    help="actually modify the tree (default: dry run)")
    ap.set_defaults(fn=cmd_apply)

    stats = sub.add_parser("stats", help="print checkpoint row counts")
    stats.add_argument("--out", required=True)
    stats.set_defaults(fn=cmd_stats)

    diag = sub.add_parser("diagnose", help="stage consistency cross-check")
    diag.add_argument("--out", required=True)
    diag.set_defaults(fn=cmd_diagnose)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
