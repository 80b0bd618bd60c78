"""Execute the actions table against a real directory tree.

The reference *intends* Move/Delete/Symlink duplicate handling — its
``ActionResult`` loop is defined at
/root/reference/crates/image-deduper-core/src/types.rs:86-114 and
sketched in dev_notes.md:28-38 ("Hash Database -> Duplicate Groups ->
Actions"), but its action module is an empty stub. This module is that
apply step: each ``dup`` row's on-disk file (``root/repo/path``) is
symlinked to its canonical / moved under a quarantine dir / deleted,
with a per-row ActionResult lineage record (applied, error) written by
the caller to Parquet. ``dry_run`` (the default) validates every
precondition and touches NOTHING.

Scale shape: path resolution is two partitioned hash joins (dup-side
path, canonical-side path) so no full-table broadcast is needed; the
filesystem work itself is a stateless ``map_batches`` — on a real
cluster the tree lives on shared storage, so each task applies its own
batch's rows wherever it lands. Every operation is IDEMPOTENT (a row
already in its desired state reports applied=True), so a crashed apply
re-runs to completion instead of erroring on its own partial work —
the same resume discipline as the checkpointed pipeline stages.
Per-row failures are RECORDED, never raised: one unreadable file must
not poison a million-row apply.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

APPLY_RESULT_SCHEMA = pa.schema([
    ("file_id", pa.string()),
    ("action", pa.string()),        # symlink | move | delete
    ("src", pa.string()),           # root-relative duplicate path
    ("target", pa.string()),        # canonical (symlink) / quarantine
    ("dry_run", pa.bool_()),
    ("applied", pa.bool_()),
    ("error", pa.string()),         # null on success
])


def _safe_join(root: str, rel: str) -> str | None:
    """root/rel, or None if rel escapes root (absolute or ..)."""
    p = os.path.normpath(os.path.join(root, rel))
    return p if p.startswith(os.path.normpath(root) + os.sep) else None


def _parent_contained(path: str, root: str) -> bool:
    """True iff ``path``'s parent directory REALLY lives under root.

    ``_safe_join`` is lexical only — a directory inside the tree that
    is itself a symlink pointing outside root would pass it, letting a
    mutating action (symlink/move/delete) operate outside the root.
    Resolve the parent with realpath (the leaf stays unresolved so
    idempotent re-runs over already-created symlinks still work) and
    re-check containment before any filesystem mutation."""
    real_root = os.path.realpath(root)
    real_parent = os.path.realpath(os.path.dirname(path))
    return real_parent == real_root or \
        real_parent.startswith(real_root + os.sep)


def _apply_row(action: str, src_rel: str, can_rel: str | None,
               root: str, dup_root: str, dry_run: bool
               ) -> tuple[str, bool, str | None]:
    """One ActionResult: returns (target_rel, applied, error)."""
    src = _safe_join(root, src_rel)
    if src is None:
        return "", False, f"path escapes root: {src_rel!r}"
    if action == "symlink":
        if not can_rel:
            return "", False, "no canonical path resolved"
        can = _safe_join(root, can_rel)
        if can is None:
            return "", False, f"canonical escapes root: {can_rel!r}"
        link_target = os.path.relpath(can, os.path.dirname(src))
        # idempotent: already the desired link
        if os.path.islink(src) and os.readlink(src) == link_target:
            return can_rel, True, None
        if not os.path.isfile(can) or os.path.islink(can):
            return can_rel, False, "canonical missing or not a regular file"
        if not os.path.isfile(src):
            return can_rel, False, "duplicate missing"
        if dry_run:
            return can_rel, False, None
        if not _parent_contained(src, root):
            return can_rel, False, "parent dir resolves outside root"
        tmp = src + ".idr_tmp"
        try:                        # a crash between symlink and replace
            os.unlink(tmp)          # leaves tmp behind — re-runs must
        except FileNotFoundError:   # clear it, not FileExistsError out
            pass
        os.symlink(link_target, tmp)
        os.replace(tmp, src)        # atomic swap, crash-safe
        return can_rel, True, None
    if action == "move":
        tgt_rel = os.path.join(dup_root, src_rel)
        tgt = _safe_join(root, tgt_rel)
        if tgt is None:
            return tgt_rel, False, f"target escapes root: {tgt_rel!r}"
        if not os.path.exists(src):
            # idempotent: a prior run already moved it
            if os.path.isfile(tgt):
                return tgt_rel, True, None
            return tgt_rel, False, "duplicate missing"
        if dry_run:
            return tgt_rel, False, None
        if not _parent_contained(src, root):
            return tgt_rel, False, "parent dir resolves outside root"
        os.makedirs(os.path.dirname(tgt), exist_ok=True)
        if not _parent_contained(tgt, root):
            return tgt_rel, False, "quarantine dir resolves outside root"
        if os.path.exists(tgt):
            # src was re-created after a prior run already quarantined
            # it: never overwrite the existing quarantine copy (the only
            # content backup the move action keeps) — move to a
            # deduplicated suffixed name instead
            n = 1
            while os.path.exists(f"{tgt}.dup{n}"):
                n += 1
            tgt_rel, tgt = f"{tgt_rel}.dup{n}", f"{tgt}.dup{n}"
        os.replace(src, tgt)
        return tgt_rel, True, None
    if action == "delete":
        if not os.path.exists(src) and not os.path.islink(src):
            return "", True, None   # idempotent: already gone
        if dry_run:
            return "", False, None
        if not _parent_contained(src, root):
            return "", False, "parent dir resolves outside root"
        os.unlink(src)
        return "", True, None
    return "", False, f"unknown action {action!r}"


def apply_actions(actions: ray.data.Dataset, clusters: ray.data.Dataset,
                  root: str, *, dry_run: bool = True,
                  dup_dir: str = "_duplicates",
                  num_partitions: int | None = None) -> ray.data.Dataset:
    """Apply the ``dup`` rows of an actions table to the tree at
    ``root``. ``clusters`` supplies the (file_id -> repo/path) map.
    Returns one ActionResult row per dup (APPLY_RESULT_SCHEMA);
    ``keep`` rows are never touched. ``dry_run=True`` (default)
    validates preconditions only."""
    from ..functions.joins import hash_join

    def dups_only(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["role"], "dup"))
        return t.select(["file_id", "canonical_file_id", "action"])

    dups = actions.map_batches(dups_only, batch_format="pyarrow",
                               zero_copy_batch=True)

    def relpaths(t: pa.Table) -> pa.Table:
        rel = pc.binary_join_element_wise(t["repo"], t["path"], "/")
        return pa.table({"pm_fid": t["file_id"], "src_rel": rel})

    pmap = clusters.map_batches(relpaths, batch_format="pyarrow",
                                zero_copy_batch=True)

    base = pa.schema([("file_id", pa.string()),
                      ("canonical_file_id", pa.string()),
                      ("action", pa.string())])
    # left joins: an unresolvable path becomes an error ROW, not a
    # silently dropped action
    j = hash_join(dups, pmap, "file_id", "pm_fid", base,
                  pa.schema([("src_rel", pa.string())]), how="left",
                  num_partitions=num_partitions)
    pmap2 = pmap.map_batches(
        lambda t: t.rename_columns(["pm_fid2", "can_rel"]),
        batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(j, pmap2, "canonical_file_id", "pm_fid2",
                  base.append(pa.field("src_rel", pa.string())),
                  pa.schema([("can_rel", pa.string())]), how="left",
                  num_partitions=num_partitions)

    def run(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return APPLY_RESULT_SCHEMA.empty_table()
        fids = t["file_id"].to_pylist()
        acts = t["action"].to_pylist()
        srcs = t["src_rel"].to_pylist()
        cans = t["can_rel"].to_pylist()
        targets, applied, errors = [], [], []
        for act, src_rel, can_rel in zip(acts, srcs, cans):
            if src_rel is None:
                tgt, ok, err = "", False, "no source path resolved"
            else:
                try:
                    tgt, ok, err = _apply_row(act, src_rel, can_rel,
                                              root, dup_dir, dry_run)
                except OSError as e:   # record, never raise (M8 analog)
                    tgt, ok, err = "", False, f"{type(e).__name__}: {e}"
            targets.append(tgt)
            applied.append(ok)
            errors.append(err)
        return pa.table({
            "file_id": pa.array(fids, pa.string()),
            "action": pa.array(acts, pa.string()),
            "src": pa.array([s or "" for s in srcs], pa.string()),
            "target": pa.array(targets, pa.string()),
            "dry_run": pa.array(np.full(len(fids), dry_run)),
            "applied": pa.array(applied, pa.bool_()),
            "error": pa.array(errors, pa.string()),
        }, schema=APPLY_RESULT_SCHEMA)

    out = j.map_batches(run, batch_format="pyarrow", zero_copy_batch=True)
    # zero-dup corpora must still yield a typed (empty) result
    return ray.data.from_arrow(APPLY_RESULT_SCHEMA.empty_table()).union(out)


def materialize_tree(clusters: ray.data.Dataset, content_src,
                     root: str) -> int:
    """Test/demo helper: write each clustered file's content to
    ``root/repo/path`` so ``apply_actions`` has a real tree to act on.
    ``content_src``: the files-table parquet path(s). Returns the file
    count. Driver-side loop — small corpora only."""
    want = set()
    for b in clusters.iter_batches(batch_size=8192, batch_format="pyarrow"):
        for r, p in zip(b["repo"].to_pylist(), b["path"].to_pylist()):
            want.add(f"{r}/{p}")
    n = 0
    tbl = ray.data.read_parquet(content_src,
                                columns=["repo", "path", "content"])
    for b in tbl.iter_batches(batch_size=8192, batch_format="pyarrow"):
        for r, p, c in zip(b["repo"].to_pylist(), b["path"].to_pylist(),
                           b["content"].to_pylist()):
            rel = f"{r}/{p}"
            if rel not in want:
                continue
            dst = os.path.join(root, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(dst, "w") as fh:
                fh.write(c or "")
            n += 1
    return n
