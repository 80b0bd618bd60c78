"""Connected components over the verified dup-pair graph.

A2 part 2 in SURVEY.md §2.5 — the reference's duplicate groups
(``Vec<Vec<ImageFile>>``, intended at
/root/reference/crates/image-deduper-core/src/deduplication/mod.rs:8-32)
become a ``clusters(file_id, cluster_id)`` table with
``cluster_id = min(file_id)`` per component (deterministic, so reruns
and resumes agree — SURVEY.md §7.4).

Two execution paths, picked by the edge count alone:
  - driver union-find when the edge count is at most
    ``cfg.cc_driver_max_edges``: the candidate graph after
    verification is tiny relative to the input, so this is the common
    fast path; the edge blocks are fetched to the driver by ref.
  - distributed min-label propagation past it (repeated shuffle
    rounds, cf. PAPERS.md 'connected components in map-reduce in
    logarithmic rounds'): per round, each node sends its current label
    to its neighbors (one shuffle on node to attach labels to edges),
    then each node takes the min of incoming labels (second shuffle).
    A label moves one hop per round, so a component needs up to as
    many rounds as its diameter; the loop runs until no label changes,
    with no round cap.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from ..config import DedupConfig


def _driver_union_find(edge_batches) -> pd.DataFrame:
    """Vectorized driver-side CC: factorize node ids (np.unique sorts,
    so min label index == min node id), then min-label relaxation over
    the edge arrays + pointer jumping until fixpoint — O(log n) rounds
    of pure C kernels, no per-edge Python loop."""
    import pyarrow as pa

    from ..functions.arrow_utils import fixed_str_view

    parts_a, parts_b = [], []
    str_nodes = False
    for batch in edge_batches:
        # string endpoints (32-hex file_ids): fixed-width S32 views —
        # np.unique on S-dtype is C-speed memcmp, vs the object-array
        # path which compares Python strs (measured ~6 s of the
        # clusters stage at 1M files / 554k edges)
        if pa.types.is_string(batch["a"].type):
            str_nodes = True
            parts_a.append(fixed_str_view(batch["a"], 32))
            parts_b.append(fixed_str_view(batch["b"], 32))
        else:
            parts_a.append(batch["a"].to_numpy(zero_copy_only=False))
            parts_b.append(batch["b"].to_numpy(zero_copy_only=False))
    if not parts_a:
        return pd.DataFrame({"file_id": [], "cluster_id": []})
    a = np.concatenate(parts_a)
    b = np.concatenate(parts_b)
    uniq, idx = np.unique(np.concatenate([a, b]), return_inverse=True)
    ai, bi = idx[:len(a)], idx[len(a):]
    label = np.arange(len(uniq))
    while True:
        np.minimum.at(label, ai, label[bi])
        np.minimum.at(label, bi, label[ai])
        while True:  # pointer jumping: compress chains label -> root
            new = label[label]
            if np.array_equal(new, label):
                break
            label = new
        if np.all(label[ai] == label[bi]):
            break
    if str_nodes:
        # back to str so downstream Arrow columns stay utf8, not binary
        uniq = uniq.astype("U32")
    return pd.DataFrame({"file_id": uniq, "cluster_id": uniq[label]})


def spanning_forest(u: np.ndarray, v: np.ndarray, n_nodes: int) -> np.ndarray:
    """Mask of the edges (u, v) over nodes 0..n_nodes-1 that form a
    spanning forest: the kept edges give the same components as all of
    them, and each one joins two components (n_nodes - #components
    edges in all). Vectorized hooking, O(log n) rounds: each round,
    every component root that is the larger root of a crossing edge
    hooks under the smaller root of its first such edge, and that edge
    is kept. Hooks always point to a smaller root, so no round closes a
    cycle; each round at least halves the components that still have a
    crossing edge. Deterministic for a given edge order."""
    parent = np.arange(n_nodes)
    keep = np.zeros(len(u), dtype=bool)
    live = np.arange(len(u))
    while live.size:
        ru, rv = parent[u[live]], parent[v[live]]
        cross = ru != rv
        live, ru, rv = live[cross], ru[cross], rv[cross]
        if not live.size:
            break
        hi, lo = np.maximum(ru, rv), np.minimum(ru, rv)
        roots, first = np.unique(hi, return_index=True)
        parent[roots] = lo[first]
        keep[live[first]] = True
        while True:  # pointer jumping: every node points at its root
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
    return keep


def _node_type(edges: ray.data.Dataset):
    """pyarrow type of the edge endpoints, from the schema (string
    file_ids on the scan path)."""
    import pyarrow as pa
    s = edges.schema(fetch_if_missing=True)
    if s is None:        # executed-empty dataset: Ray 2.49 reports None
        return pa.string()
    return dict(zip(s.names, s.types))["a"]


def _distributed_label_prop(edges: ray.data.Dataset, cfg: DedupConfig) -> ray.data.Dataset:
    """Min-label propagation with partition-level blocks: per round, one
    shuffle keyed on node to attach labels to outgoing edges (pandas
    C-speed merge per partition), one shuffle keyed on receiving node to
    take the min (vectorized segment-min per partition). Runs until a
    round changes no label (one round per hop from each node to its
    component's min node), so it never stops on a split component. Node type
    (string/int64) follows the edge schema."""
    import pyarrow as pa

    from ..functions.groups import (group_starts, map_blocks, materialized,
                                    partitioned_group_map)

    P = cfg.num_partitions
    nt = _node_type(edges)

    def to_bidir(t: pa.Table) -> pa.Table:
        a, b = t["a"], t["b"]
        return pa.table({"key": pa.concat_arrays([a.combine_chunks(), b.combine_chunks()]),
                         "neigh": pa.concat_arrays([b.combine_chunks(), a.combine_chunks()])})

    bidir = materialized(map_blocks(edges, to_bidir, pa.schema(
        [("key", nt), ("neigh", nt)])))

    # label seed: every node starts labeled with itself, one row per
    # DISTINCT node. Seed label == key, so min-per-key is just distinct
    # keys — run it on the raw-task hash shuffle like every other wide
    # op here (Ray's sort-based groupby costs ~9 s serial per shuffle
    # at bench scale; this was the last native-groupby call in CC).
    def seed_block(df: pd.DataFrame) -> pd.DataFrame:
        u = df["key"].drop_duplicates()
        return pd.DataFrame({"key": u.to_numpy(), "label": u.to_numpy()})

    labels = partitioned_group_map(
        bidir, ["key"], seed_block, P,
        out_schema=pa.schema([("key", nt), ("label", nt)]),
        pre=lambda t: t.select(["key"]))

    msg_schema = pa.schema([("node", nt), ("label", nt),
                            ("is_self", pa.int8())])
    lab_schema = pa.schema([("key", nt), ("label", nt),
                            ("changed", pa.int64())])

    def block_msgs(df: pd.DataFrame) -> pd.DataFrame:
        lab = df.loc[df["label"].notna(), ["key", "label"]]
        edg = df.loc[df["neigh"].notna(), ["key", "neigh"]]
        m = edg.merge(lab, on="key", how="inner")
        return pd.DataFrame({
            "node": np.concatenate([m["neigh"].to_numpy(),
                                    lab["key"].to_numpy()]),
            "label": np.concatenate([m["label"].to_numpy(),
                                     lab["label"].to_numpy()]),
            "is_self": np.concatenate([
                np.zeros(len(m), dtype=np.int8),
                np.ones(len(lab), dtype=np.int8)])})

    def block_reduce(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["node", "label"], kind="mergesort")
        node = df["node"].to_numpy()
        label = df["label"].to_numpy()
        is_self = df["is_self"].to_numpy()
        new = group_starts(node)
        group_idx = np.cumsum(new, dtype=np.int32) - 1
        best = label[new]                       # min label per node
        n_groups = len(best)
        old = np.full(n_groups, None, dtype=object)
        self_pos = np.flatnonzero(is_self == 1)
        old[group_idx[self_pos]] = label[self_pos]
        return pd.DataFrame({
            "key": node[new], "label": best,
            "changed": (best != old).astype(np.int64)})

    def lab_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["key"], "label": t["label"],
                         "neigh": pa.nulls(t.num_rows, nt)})

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["key"], "label": pa.nulls(t.num_rows, nt),
                         "neigh": t["neigh"]})

    while True:
        # labels and edges meet in one shuffle, each with its own row prep
        msgs = partitioned_group_map([labels, bidir], ["key"], block_msgs, P,
                                     out_schema=msg_schema,
                                     pre=[lab_rows, edge_rows])
        labels = partitioned_group_map(msgs, ["node"], block_reduce, P,
                                       out_schema=lab_schema)
        # None on an empty graph: nothing to change either
        if not labels.sum("changed"):
            break
    return map_blocks(
        labels,
        lambda t: pa.table({"file_id": t["key"], "cluster_id": t["label"]}),
        pa.schema([("file_id", nt), ("cluster_id", nt)]))


def connected_components(edges: ray.data.Dataset,
                         cfg: DedupConfig) -> ray.data.Dataset:
    """-> clusters(file_id, cluster_id) covering every node that appears
    in an edge. Nodes with no edges are absent (the pipeline assigns
    them singleton clusters via a left join). Union-find on the driver
    up to ``cfg.cc_driver_max_edges`` edges, label propagation past it."""
    cfg = cfg.resolved()
    if edges.count() <= cfg.cc_driver_max_edges:
        import pyarrow as pa

        from ..functions.groups import table_dataset, tables_of

        # no projection: the union-find reads ``a`` and ``b`` itself, and
        # the blocks of a materialized ``edges`` are fetched by ref
        df = _driver_union_find(tables_of(edges))

        if df.empty:
            nt = _node_type(edges)
            labels = pa.table({"file_id": pa.array([], nt),
                               "cluster_id": pa.array([], nt)})
        else:
            labels = pa.Table.from_pandas(df, preserve_index=False)
        # materialized: the label attach collects it without a Ray Data
        # job
        return table_dataset(labels)
    return _distributed_label_prop(edges, cfg)
