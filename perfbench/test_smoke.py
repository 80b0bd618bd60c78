"""Smoke tests for the benchmark itself.

    python -m pytest perfbench -q

The gate tests build checkpoints by hand (no Ray). The workload tests
run the whole benchmark in-process at tiny scale, traced, and need a
few tens of seconds each.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _write_scan(out_dir, corpus, labels, keeps_per_cluster=1, drop_row=None):
    """Fake clusters/actions checkpoints assigning row i to labels[i]."""
    rows = [i for i in range(corpus.table.num_rows) if i != drop_row]
    t = corpus.table.take(rows).select(["repo", "path", "commit"])
    t = t.append_column("cluster_id", pa.array([labels[i] for i in rows]))
    os.makedirs(os.path.join(out_dir, "clusters"))
    pq.write_table(t, os.path.join(out_dir, "clusters", "part-0.parquet"))
    roles, cids, seen = [], [], {}
    for i in rows:
        seen[labels[i]] = seen.get(labels[i], 0) + 1
        cids.append(labels[i])
        roles.append("keep" if seen[labels[i]] <= keeps_per_cluster else "dup")
    os.makedirs(os.path.join(out_dir, "actions"))
    pq.write_table(pa.table({"cluster_id": cids, "role": roles}),
                   os.path.join(out_dir, "actions", "part-0.parquet"))


@pytest.fixture(scope="module")
def corpus():
    return workloads.mixed(seed=3, n_clusters=10)


def _truth(corpus):
    labels = [f"solo{i}" for i in range(corpus.table.num_rows)]
    for g, group in enumerate(corpus.groups):
        for i in group:
            labels[i] = f"group{g}"
    return labels


def test_gate_accepts_the_planted_truth(corpus, tmp_path):
    _write_scan(str(tmp_path), corpus, _truth(corpus))
    g = gate.check(corpus, str(tmp_path))
    assert g["problems"] == []
    assert g["recall"] == 1.0 and g["false_merge_rate"] == 0.0


def test_gate_rejects_a_false_merge(corpus, tmp_path):
    labels = _truth(corpus)
    labels[corpus.negatives[0]] = labels[corpus.groups[0][0]]
    _write_scan(str(tmp_path), corpus, labels)
    g = gate.check(corpus, str(tmp_path))
    assert g["false_merge_rate"] > 0
    assert any("false-merge" in p for p in g["problems"])


def test_gate_rejects_a_dropped_row(corpus, tmp_path):
    _write_scan(str(tmp_path), corpus, _truth(corpus), drop_row=corpus.groups[1][0])
    problems = gate.check(corpus, str(tmp_path))["problems"]
    assert any("no clusters row" in p for p in problems)


def test_gate_rejects_split_clusters_and_two_keeps(corpus, tmp_path):
    labels = _truth(corpus)
    for i in corpus.groups[0]:
        labels[i] = f"split{i}"
    _write_scan(str(tmp_path / "split"), corpus, labels)
    assert any("recall" in p for p in gate.check(corpus, str(tmp_path / "split"))["problems"])
    _write_scan(str(tmp_path / "keeps"), corpus, _truth(corpus), keeps_per_cluster=2)
    assert any("exactly one keep" in p
               for p in gate.check(corpus, str(tmp_path / "keeps"))["problems"])


def test_gate_compares_partitions_not_labels(corpus, tmp_path):
    truth = _truth(corpus)
    renamed = [f"x{label}" for label in truth]
    _write_scan(str(tmp_path), corpus, renamed)
    ref = gate.partition(truth)
    assert gate.check(corpus, str(tmp_path), ref)["problems"] == []
    moved = list(truth)
    moved[corpus.negatives[0]] = moved[corpus.negatives[1]]
    assert gate.partition(moved) != ref


def test_workloads_are_seeded():
    a = workloads.generate("resume", 5, {"n_clusters": 6})
    b = workloads.generate("resume", 5, {"n_clusters": 6})
    c = workloads.generate("resume", 6, {"n_clusters": 6})
    assert a.table.equals(b.table) and not a.table.equals(c.table)
    v = workloads.generate("vendored", 5, {"n_clusters": 4, "popular_files": 2,
                                            "popular_copies": 5, "mega_copies": 20})
    assert len(v.groups[-1]) == 21 and len(set(v.keys())) == v.table.num_rows


TINY = {"vendored": {"n_clusters": 8, "popular_files": 3, "popular_copies": 10,
                     "mega_copies": 300},
        # > 512 rows (one signature batch), so the checkpoint has 2+ parts
        "resume": {"n_clusters": 150}}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_at_tiny_scale(name, monkeypatch):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    monkeypatch.setitem(workloads.PARAMS, name, dict(workloads.PARAMS[name], **TINY[name]))
    # 300 mega copies make hot buckets, but too few for 16 sub-buckets
    monkeypatch.setattr(run, "MIN_SUBBUCKETS", 2)
    monkeypatch.setattr(run, "T0", time.monotonic())
    result = run.run(argparse.Namespace(workload=name, seed=2, seconds=1, trace=1), spec)
    assert result["correct"], result
    assert result["attempted"] >= 2 and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {x["name"] for x in spec["per_layer"]}
    assert m["trace.files_per_s"] > 0 and m["trace.untraced_files_per_s"] > 0
    if name == "vendored":
        assert m["lsh.hot_buckets"] > 0 and m["lsh.max_subbuckets"] >= 2
    else:
        assert m["ckpt.done_keys"] > 0 and 0 < m["ckpt.anti_join_kept_ratio"] < 1
