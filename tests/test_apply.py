"""Action apply step: scan -> apply against a real tmp tree.

The ActionResult loop the reference intends (types.rs:86-114,
dev_notes.md:28-38): dups symlinked/moved/deleted on disk, keeps
untouched, per-row lineage, dry-run default, idempotent re-runs,
errors recorded not raised.
"""

from __future__ import annotations

import os
import shutil

import pytest

# every test here runs Ray (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    """One pipeline run + materialized tree shared by the apply tests
    (each test re-materializes the tree slice it mutates)."""
    import ray.data
    from image_deduper_ray.pipelines.dedup import run_pipeline
    from image_deduper_ray.corpus import write_corpus

    base = tmp_path_factory.mktemp("apply")
    corpus = str(base / "corpus")
    out = str(base / "out")
    write_corpus(corpus, n_clusters=8)
    res = run_pipeline(corpus, out)
    return {"corpus": corpus, "out": out,
            "actions": res["actions"].to_pandas(),
            "clusters": res["clusters"].to_pandas()}


def _fresh_tree(scanned, root: str) -> None:
    import ray.data
    from image_deduper_ray.sources.checkpoints import read_stage
    from image_deduper_ray.stages.apply import materialize_tree

    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    clusters = read_stage(scanned["out"], "clusters")
    n = materialize_tree(clusters, scanned["corpus"], root)
    assert n == len(scanned["clusters"])


def _apply(scanned, root, **kw):
    from image_deduper_ray.sources.checkpoints import read_stage
    from image_deduper_ray.stages.apply import apply_actions

    actions = read_stage(scanned["out"], "actions")
    clusters = read_stage(scanned["out"], "clusters")
    return apply_actions(actions, clusters, root, **kw).to_pandas()


def test_dry_run_touches_nothing_and_validates(scanned, tmp_path):
    root = str(tmp_path / "tree")
    _fresh_tree(scanned, root)
    before = {}
    for d, _, fs in os.walk(root):
        for f in fs:
            p = os.path.join(d, f)
            before[p] = (os.path.islink(p), os.path.getsize(p))

    res = _apply(scanned, root, dry_run=True)
    n_dups = (scanned["actions"]["role"] == "dup").sum()
    assert len(res) == n_dups
    assert (~res["applied"]).all()          # nothing applied
    assert res["error"].isna().all()        # every precondition OK
    after = {}
    for d, _, fs in os.walk(root):
        for f in fs:
            p = os.path.join(d, f)
            after[p] = (os.path.islink(p), os.path.getsize(p))
    assert before == after                  # tree untouched


def test_execute_symlinks_and_reruns_idempotently(scanned, tmp_path):
    root = str(tmp_path / "tree")
    _fresh_tree(scanned, root)

    res = _apply(scanned, root, dry_run=False)
    assert res["applied"].all() and res["error"].isna().all()

    acts = scanned["actions"]
    clus = scanned["clusters"].set_index("file_id")
    relof = lambda fid: f"{clus.loc[fid,'repo']}/{clus.loc[fid,'path']}"
    dups = acts[acts["role"] == "dup"]
    keeps = acts[acts["role"] == "keep"]
    for _, r in dups.iterrows():
        src = os.path.join(root, relof(r["file_id"]))
        can = os.path.join(root, relof(r["canonical_file_id"]))
        assert os.path.islink(src)
        # link resolves to the canonical file and reads its content
        assert os.path.realpath(src) == os.path.realpath(can)
        assert open(src).read() == open(can).read()
    for _, r in keeps.iterrows():
        p = os.path.join(root, relof(r["file_id"]))
        assert os.path.isfile(p) and not os.path.islink(p)

    # idempotent: second run reports applied with no errors, no change
    res2 = _apply(scanned, root, dry_run=False)
    assert res2["applied"].all() and res2["error"].isna().all()


def test_move_quarantines_dups(scanned, tmp_path):
    root = str(tmp_path / "tree")
    _fresh_tree(scanned, root)
    # rewrite the actions to move-mode by feeding a patched dataset
    import ray.data
    from image_deduper_ray.sources.checkpoints import read_stage
    from image_deduper_ray.stages.apply import apply_actions
    import pyarrow as pa
    import pyarrow.compute as pc

    actions = read_stage(scanned["out"], "actions").map_batches(
        lambda t: t.set_column(
            t.column_names.index("action"), "action",
            pc.if_else(pc.equal(t["role"], "dup"),
                       pa.scalar("move"), t["action"])),
        batch_format="pyarrow")
    clusters = read_stage(scanned["out"], "clusters")
    res = apply_actions(actions, clusters, root,
                        dry_run=False).to_pandas()
    assert res["applied"].all() and res["error"].isna().all()
    clus = scanned["clusters"].set_index("file_id")
    dups = scanned["actions"].query("role == 'dup'")
    for _, r in dups.iterrows():
        rel = f"{clus.loc[r['file_id'],'repo']}/{clus.loc[r['file_id'],'path']}"
        assert not os.path.exists(os.path.join(root, rel))
        assert os.path.isfile(os.path.join(root, "_duplicates", rel))


def test_missing_file_records_error_row(scanned, tmp_path):
    root = str(tmp_path / "tree")
    _fresh_tree(scanned, root)
    clus = scanned["clusters"].set_index("file_id")
    dups = scanned["actions"].query("role == 'dup'")
    victim = dups.iloc[0]["file_id"]
    rel = f"{clus.loc[victim,'repo']}/{clus.loc[victim,'path']}"
    os.unlink(os.path.join(root, rel))

    res = _apply(scanned, root, dry_run=False).set_index("file_id")
    assert res.loc[victim, "error"] == "duplicate missing"
    assert not res.loc[victim, "applied"]
    others = res.drop(index=victim)
    assert others["applied"].all() and others["error"].isna().all()


def test_diagnose_healthy_and_corrupted(scanned, tmp_path, capsys):
    """The broadened J5 diagnose (db.rs:213-278 analog): a healthy run
    passes every pairwise check; dropping a clusters row, planting a
    foreign edge endpoint, or doubling a keep must each flip the
    matching check and the exit code."""
    import json

    import pyarrow.parquet as pq
    from image_deduper_ray.__main__ import main

    assert main(["diagnose", "--out", scanned["out"]]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["consistent"]
    assert rep["checks"]["actions_invariants"]["ok"]
    assert rep["checks"]["edges_endpoints"]["ok"]

    # corrupt a COPY: drop one clusters row + point one edge endpoint
    # at a file_id that was never signed
    bad = str(tmp_path / "bad_out")
    shutil.copytree(scanned["out"], bad)

    cdir = os.path.join(bad, "clusters")
    f = sorted(x for x in os.listdir(cdir) if x.endswith(".parquet"))[0]
    t = pq.read_table(os.path.join(cdir, f))
    if t.num_rows:
        pq.write_table(t.slice(1), os.path.join(cdir, f))

    edir = os.path.join(bad, "edges")
    for f in sorted(os.listdir(edir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(edir, f))
        if t.num_rows == 0:
            continue
        import pyarrow as pa
        a = t["a"].to_pylist()
        a[0] = "f" * 32          # not a signed file_id
        pq.write_table(t.set_column(0, "a", pa.array(a)),
                       os.path.join(edir, f))
        break

    assert main(["diagnose", "--out", bad]) == 1
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not rep["consistent"]
    assert not rep["checks"]["signatures_vs_clusters"]["ok"]
    assert rep["checks"]["signatures_vs_clusters"]["n_only_left"] == 1
    assert not rep["checks"]["clusters_vs_actions"]["ok"]
    assert not rep["checks"]["edges_endpoints"]["ok"]
    # untouched pairings still pass independently
    assert rep["checks"]["pairs_endpoints"]["ok"]


def test_path_escape_is_refused(tmp_path):
    from image_deduper_ray.stages.apply import _apply_row

    root = str(tmp_path)
    for rel in ["../evil", "/abs/evil"]:
        _, ok, err = _apply_row("delete", rel, None, root,
                                "_duplicates", False)
        assert not ok and "escapes root" in err


def test_crash_leftover_tmp_recovers(scanned, tmp_path):
    """Crash-resume through the symlink swap: a crash between
    os.symlink(tmp) and os.replace leaves <src>.idr_tmp behind — the
    re-run must clear it and finish to a clean, fully-applied lineage
    (apply.py documents tmp+os.replace as crash-safe; this proves the
    resume half)."""
    root = str(tmp_path / "tree")
    _fresh_tree(scanned, root)

    clus = scanned["clusters"].set_index("file_id")
    relof = lambda fid: f"{clus.loc[fid,'repo']}/{clus.loc[fid,'path']}"
    dups = scanned["actions"].query("role == 'dup'")
    # plant stale leftovers of BOTH crash flavors next to two dups:
    # a dangling tmp symlink and a tmp pointing at a real file
    v0 = os.path.join(root, relof(dups.iloc[0]["file_id"]))
    v1 = os.path.join(root, relof(dups.iloc[1]["file_id"]))
    os.symlink("no-such-target", v0 + ".idr_tmp")
    os.symlink(os.path.basename(v1), v1 + ".idr_tmp")

    res = _apply(scanned, root, dry_run=False)
    assert res["applied"].all() and res["error"].isna().all()
    # no tmp debris anywhere; the planted victims are correct links now
    for d, _, fs in os.walk(root):
        assert not any(f.endswith(".idr_tmp") for f in fs)
    for _, r in dups.iloc[:2].iterrows():
        src = os.path.join(root, relof(r["file_id"]))
        can = os.path.join(root, relof(r["canonical_file_id"]))
        assert os.path.islink(src)
        assert os.path.realpath(src) == os.path.realpath(can)


def test_symlinked_parent_dir_outside_root_refused(tmp_path):
    """ADVICE round-4: _safe_join containment is lexical; a directory
    INSIDE the tree that is itself a symlink to outside the root must
    not let mutating actions (delete/move/symlink) reach outside. The
    realpath parent check refuses the row; the outside file survives."""
    from image_deduper_ray.stages.apply import _apply_row

    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "f.txt").write_text("precious")
    root = tmp_path / "root"
    root.mkdir()
    (root / "can.txt").write_text("canonical")
    os.symlink(str(outside), str(root / "sub"))  # dir symlink escape

    for action, can in [("delete", None), ("move", None),
                        ("symlink", "can.txt")]:
        _, ok, err = _apply_row(action, "sub/f.txt", can, str(root),
                                "_duplicates", False)
        assert not ok and "outside root" in err, (action, err)
    assert (outside / "f.txt").read_text() == "precious"

    # dry-run still reports the row as apply-able without mutating —
    # and a legit row under the real root is unaffected by the check
    (root / "legit.txt").write_text("x")
    _, ok, err = _apply_row("delete", "legit.txt", None, str(root),
                            "_duplicates", False)
    assert ok and err is None
    assert not (root / "legit.txt").exists()


def test_move_never_overwrites_quarantine(tmp_path):
    """ADVICE round-4: if src was re-created after a prior run already
    quarantined it, the move must NOT os.replace over the existing
    quarantine copy (the only content backup) — it deduplicates the
    target name instead."""
    from image_deduper_ray.stages.apply import _apply_row

    root = str(tmp_path)
    os.makedirs(os.path.join(root, "a"))
    p = os.path.join(root, "a", "x.txt")
    open(p, "w").write("original")
    tgt_rel, ok, err = _apply_row("move", "a/x.txt", None, root,
                                  "_duplicates", False)
    assert ok and err is None and tgt_rel == "_duplicates/a/x.txt"
    q = os.path.join(root, "_duplicates", "a", "x.txt")
    assert open(q).read() == "original"

    open(p, "w").write("recreated")       # src comes back, different bytes
    tgt_rel2, ok, err = _apply_row("move", "a/x.txt", None, root,
                                   "_duplicates", False)
    assert ok and err is None
    assert tgt_rel2 == "_duplicates/a/x.txt.dup1"
    assert open(q).read() == "original"   # backup intact
    assert open(q + ".dup1").read() == "recreated"
    assert not os.path.exists(p)

    open(p, "w").write("third")           # and again: .dup2
    tgt_rel3, ok, err = _apply_row("move", "a/x.txt", None, root,
                                   "_duplicates", False)
    assert ok and tgt_rel3 == "_duplicates/a/x.txt.dup2"
    assert open(q + ".dup2").read() == "third"


def test_cli_apply_results_append_only(scanned, tmp_path, capsys):
    """ADVICE round-4: every `apply` invocation writes its ActionResult
    lineage to a fresh run_NNNN dir — a later dry-run must never
    destroy an earlier run's audit record."""
    import json

    from image_deduper_ray.__main__ import main

    root = str(tmp_path / "tree")
    _fresh_tree(scanned, root)
    base = os.path.join(scanned["out"], "apply_results")
    shutil.rmtree(base, ignore_errors=True)

    assert main(["apply", "--out", scanned["out"], "--root", root]) == 0
    rep1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["apply", "--out", scanned["out"], "--root", root]) == 0
    rep2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert rep1["results"] != rep2["results"]
    assert os.path.basename(rep1["results"]) == "run_0001"
    assert os.path.basename(rep2["results"]) == "run_0002"
    # the first run's parquet lineage is still on disk, untouched
    assert any(f.endswith(".parquet")
               for f in os.listdir(rep1["results"]))
