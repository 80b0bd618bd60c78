"""Correctness gate for one scan, read straight from its checkpoints.

A scan passes when:
  - every input row has exactly one ``clusters`` row (by repo, path,
    commit) and no other rows exist;
  - planted dup pairs are co-clustered at recall >= RECALL_MIN;
  - no planted negative sits in a cluster of size > 1;
  - every cluster has exactly one ``keep`` row in ``actions``;
  - when a reference partition is given (the resume workload), the
    cluster partition equals it.
"""

from __future__ import annotations

import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

RECALL_MIN = 0.99


def read_stage(out_dir: str, stage: str, columns: list[str]) -> pa.Table:
    d = os.path.join(out_dir, stage)
    parts = [pq.read_table(os.path.join(d, f), columns=columns)
             for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    return pa.concat_tables(parts)


def labels_by_row(corpus, clusters: pa.Table) -> tuple[list, list[str]]:
    """Map each input row to its cluster id. Returns (labels, problems):
    labels[i] is None for a row with no clusters row."""
    problems = []
    keys = list(zip(clusters["repo"].to_pylist(), clusters["path"].to_pylist(),
                    clusters["commit"].to_pylist()))
    seen = Counter(keys)
    repeated = sum(1 for n in seen.values() if n > 1)
    if repeated:
        problems.append(f"{repeated} input rows have more than one clusters row")
    label_of = dict(zip(keys, clusters["cluster_id"].to_pylist()))
    labels = [label_of.get(k) for k in corpus.keys()]
    missing = sum(1 for x in labels if x is None)
    if missing:
        problems.append(f"{missing} input rows have no clusters row")
    extra = len(seen) - (len(labels) - missing)
    if extra:
        problems.append(f"{extra} clusters rows match no input row")
    return labels, problems


def partition(labels: list) -> list[int]:
    """Canonical form of a partition: each row's label becomes the index
    of the first row carrying that label, so two partitions compare
    equal exactly when they group the same rows."""
    first: dict = {}
    return [first.setdefault(x, i) for i, x in enumerate(labels)]


def recall_and_false_merges(corpus, labels: list) -> tuple[float, float]:
    """(planted pairs co-clustered / planted pairs,
        negatives in a cluster of size > 1 / negatives)."""
    total = hit = 0
    for group in corpus.groups:
        n = len(group)
        total += n * (n - 1) // 2
        counts = Counter(labels[i] for i in group if labels[i] is not None)
        hit += sum(k * (k - 1) // 2 for k in counts.values())
    size = Counter(x for x in labels if x is not None)
    merged = sum(1 for i in corpus.negatives
                 if labels[i] is not None and size[labels[i]] > 1)
    recall = hit / total if total else 1.0
    fmr = merged / len(corpus.negatives) if corpus.negatives else 0.0
    return recall, fmr


def keep_problems(clusters: pa.Table, actions: pa.Table) -> list[str]:
    keeps = Counter(c for c, r in zip(actions["cluster_id"].to_pylist(),
                                      actions["role"].to_pylist())
                    if r == "keep")
    cids = set(clusters["cluster_id"].to_pylist())
    bad = sum(1 for c in cids if keeps.get(c, 0) != 1)
    stray = len(set(keeps) - cids)
    problems = []
    if bad:
        problems.append(f"{bad} clusters do not have exactly one keep")
    if stray:
        problems.append(f"{stray} keep rows name no cluster")
    return problems


def check(corpus, out_dir: str, reference: list[int] | None = None) -> dict:
    """Gate one finished scan. Returns recall, false_merge_rate, the row
    partition, and the list of problems (empty when the scan passes)."""
    clusters = read_stage(out_dir, "clusters",
                          ["repo", "path", "commit", "cluster_id"])
    actions = read_stage(out_dir, "actions", ["cluster_id", "role"])
    labels, problems = labels_by_row(corpus, clusters)
    recall, fmr = recall_and_false_merges(corpus, labels)
    if recall < RECALL_MIN:
        problems.append(f"dup-pair recall {recall:.5f} < {RECALL_MIN}")
    if fmr > 0:
        problems.append(f"false-merge rate {fmr:.5f} > 0")
    problems += keep_problems(clusters, actions)
    part = partition(labels)
    if reference is not None and part != reference:
        diff = sum(1 for a, b in zip(part, reference) if a != b)
        problems.append(f"cluster partition differs from a fresh scan on {diff} rows")
    return {"recall": recall, "false_merge_rate": fmr, "partition": part,
            "problems": problems}
