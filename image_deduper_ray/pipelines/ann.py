"""Similarity search over the ``embeddings`` table (list<float> column).

Brute-force cosine top-k is the exact baseline: the query matrix is
normalized once on the driver, broadcast once via ``ray.put`` (never
re-shipped per batch), and each ``map_batches`` task does one numpy
matmul (batch x dim @ dim x Q) — the per-batch partial top-k keeps the
shuffle tiny (only batch-local candidates reach the final per-query
group). The LSH-bucketed variant is the scale path: random-hyperplane
sketches route each vector to a bucket; queries probe only matching
buckets (approximate, rows-only oracle).

This is the embedding-space analog of the reference's pHash
nearest-neighbor intent (PHash::distance ranking,
/root/reference/crates/image-deduper-core/src/processing/types.rs:22-43).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.groups import csr_expand


def _read_embeddings(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "embedding"])


def _to_matrix(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    col = t["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // len(t) if len(t) else 0
    return ids, flat.reshape(len(t), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def load_queries(sf_dir: str, num_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """The (small) query side: lowest ``num_queries`` vec_ids. Loaded on
    the driver once — at scale this is the broadcast side. Only the id
    column is scanned in full; the (wide) embedding column is read with a
    row filter so untouched row groups never leave storage."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"
    ids_only = pq.read_table(path, columns=["vec_id"])["vec_id"] \
        .to_numpy(zero_copy_only=False)
    if len(ids_only) == 0:
        return np.empty(0, np.int64), np.empty((0, 0), np.float64)
    cut = np.sort(ids_only)[min(num_queries, len(ids_only)) - 1]
    t = pq.read_table(path, columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<=", int(cut))])
    ids, m = _to_matrix(t)
    order = np.argsort(ids, kind="stable")[:num_queries]
    return ids[order], _normalize(m[order])


def _batch_topk(ids: np.ndarray, M: np.ndarray, qids_: np.ndarray,
                Q_: np.ndarray, k: int) -> pa.Table:
    """Tie-aware per-batch partial top-k shared by the brute and
    filtered operators: one matmul against the broadcast query matrix,
    then per query keep k plus ALL candidates tied at the k-th
    boundary, so the final (sim desc, id asc) order can't lose a
    smaller-id tie dropped here. Self excluded."""
    sims = _normalize(M) @ Q_.T  # (batch, nq)
    out_q, out_n, out_s = [], [], []
    for j, qid in enumerate(qids_):
        col = sims[:, j]
        cand = np.flatnonzero(ids != qid)
        if len(cand) == 0:
            continue
        take = min(k, len(cand))
        vals = col[cand]
        if len(cand) > take:
            kth = np.partition(vals, len(vals) - take)[len(vals) - take]
            keep = vals >= kth
            cand, vals = cand[keep], vals[keep]
        order = np.lexsort((ids[cand], -vals))[:take]
        sel = cand[order]
        out_q.append(np.full(len(sel), qid, np.int64))
        out_n.append(ids[sel].astype(np.int64))
        out_s.append(col[sel].astype(np.float64))
    if not out_q:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "neighbor_id": pa.array([], pa.int64()),
                         "sim": pa.array([], pa.float64())})
    return pa.table({"query_id": pa.array(np.concatenate(out_q)),
                     "neighbor_id": pa.array(np.concatenate(out_n)),
                     "sim": pa.array(np.concatenate(out_s))})


def knn_brute(sf_dir: str, k: int = 10, num_queries: int = 8) -> ray.data.Dataset:
    """Exact cosine top-k: (query_id, neighbor_id, rank), self excluded.
    Tie-break (sim desc, neighbor_id asc) — deterministic, so the result
    hash-matches the DuckDB oracle."""
    qids, Q = load_queries(sf_dir, num_queries)
    q_ref = ray.put((qids, Q))

    def partial_topk(t: pa.Table) -> pa.Table:
        qids_, Q_ = ray.get(q_ref)
        ids, M = _to_matrix(t)
        return _batch_topk(ids, M, qids_, Q_, k)

    cands = _read_embeddings(sf_dir).map_batches(
        partial_topk, batch_format="pyarrow", zero_copy_batch=True)

    return _final_topk(cands, k)


def range_search(sf_dir: str, tau: float = 0.35,
                 num_queries: int = 8) -> ray.data.Dataset:
    """Exact cosine range search: every (query_id, neighbor_id) with
    cosine >= tau, self excluded. Same broadcast-queries shape as
    knn_brute but with NO top-k truncation — one matmul per batch, only
    above-threshold hits cross the wire. Hash-matches the DuckDB
    all-neighbors oracle."""
    qids, Q = load_queries(sf_dir, num_queries)
    q_ref = ray.put((qids, Q))

    def emit(t: pa.Table) -> pa.Table:
        qids_, Q_ = ray.get(q_ref)
        ids, M = _to_matrix(t)
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64())})
        sims = _normalize(M) @ Q_.T       # (batch, nq)
        r, c = np.nonzero(sims >= tau)
        nb = ids[r].astype(np.int64)
        qq = qids_[c].astype(np.int64)
        keep = nb != qq
        return pa.table({"query_id": pa.array(qq[keep]),
                         "neighbor_id": pa.array(nb[keep])})

    return _read_embeddings(sf_dir).map_batches(
        emit, batch_format="pyarrow", zero_copy_batch=True)


def _final_topk(cands: ray.data.Dataset, k: int) -> ray.data.Dataset:
    """Final per-query top-k over the (tiny) partial-candidate stream:
    hash-partitioned block map (raw-task shuffle — Ray's sort-based
    groupby costs seconds of fixed overhead for a handful of groups),
    one vectorized sort + segmented rank per partition. Order
    (sim desc, neighbor_id asc) matches the SQL oracle exactly."""
    from ..functions.groups import partitioned_group_map, segmented_rank

    out_schema = pa.schema([("query_id", pa.int64()),
                            ("neighbor_id", pa.int64()),
                            ("rank", pa.int64())])

    def block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                                 "neighbor_id": pd.Series([], dtype=np.int64),
                                 "rank": pd.Series([], dtype=np.int64)})
        df = df.sort_values(["query_id", "sim", "neighbor_id"],
                            ascending=[True, False, True], kind="mergesort")
        q = df["query_id"].to_numpy(np.int64)
        rank = segmented_rank(q)
        keep = rank <= k
        return pd.DataFrame({"query_id": q[keep],
                             "neighbor_id": df["neighbor_id"].to_numpy(np.int64)[keep],
                             "rank": rank[keep]})

    return partitioned_group_map(cands, ["query_id"], block, 8,
                                 out_schema=out_schema)


def _as_arrow(block) -> pa.Table:
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def _concat_blocks(blocks: list) -> pa.Table:
    ts = [_as_arrow(b) for b in blocks]
    ts = [t for t in ts if t.num_rows > 0 and "vec_id" in t.column_names]
    if not ts:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "embedding": pa.array([], pa.list_(pa.float32()))})
    return pa.concat_tables(ts) if len(ts) > 1 else ts[0]


_TILE_MAX_ROWS = 16384   # dense sim sub-tile <= 16k^2 float64 ~ 2 GB


@ray.remote
def _block_pair_task(tau: float, refs_a: list, refs_b: list,
                     same: bool, tile_max_rows: int) -> pa.Table:
    """Exact cosine pairs >= tau between two block GROUPS (one tile of
    the distributed all-pairs tiling). Each group is a list of plasma
    object refs (the driver coalesces the dataset's blocks into
    ~sqrt(4*CPUs) groups so the tile count is O(CPUs), not
    O(blocks^2) — hundreds of confetti tasks cost more in scheduling
    and per-block executor overhead than the matmuls they carry).

    Dense sim sub-tiles are chunked at ``_TILE_MAX_ROWS`` rows per
    side INSIDE the task, so peak memory is bounded no matter how the
    reader blocked the input (group size follows the ref partition,
    which can't be finer than one block)."""
    ids_a, Ma = _to_matrix(_concat_blocks(ray.get(refs_a)))
    if same:
        ids_b = ids_a
        Na = _normalize(Ma)
        Nb = Na
    else:
        ids_b, Mb = _to_matrix(_concat_blocks(ray.get(refs_b)))
        Na, Nb = _normalize(Ma), _normalize(Mb)
    if len(ids_a) == 0 or len(ids_b) == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64())})
    W = tile_max_rows
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for i0 in range(0, len(ids_a), W):
        # same-group tiles only need the upper chunk triangle: a pair
        # in chunks (i, j) with i < j is seen exactly once there
        for j0 in range(i0 if same else 0, len(ids_b), W):
            sims = Na[i0:i0 + W] @ Nb[j0:j0 + W].T
            r, c = np.nonzero(sims >= tau)
            if len(r) == 0:
                continue
            a = ids_a[i0:i0 + W][r].astype(np.int64)
            b = ids_b[j0:j0 + W][c].astype(np.int64)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            keep = lo < hi              # drop self-sims; orient a < b
            if same and i0 == j0:
                keep &= a < b           # diagonal chunk: each pair once
            out_a.append(lo[keep])
            out_b.append(hi[keep])
    if not out_a:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64())})
    return pa.table({"a": pa.array(np.concatenate(out_a)),
                     "b": pa.array(np.concatenate(out_b))})


def near_dup_pairs(sf_dir: str, tau: float = 0.35, method: str = "auto",
                   exact_max_rows: int = 2_000_000,
                   n_planes: int = 4, n_tables: int = 24,
                   seed: int = 7,
                   tile_max_rows: int = _TILE_MAX_ROWS) -> ray.data.Dataset:
    """Embedding-cosine near-dup pairs (a < b) with cosine >= tau.

    Two routes:
      - ``exact`` (default up to ``exact_max_rows``): distributed
        block-pair tiling — the dataset's blocks stay in the object
        store; one Ray task per block pair (i <= j) computes its exact
        sim tile and emits only above-threshold pairs. Nothing is
        materialized on the driver (it only handles block refs), results
        hash-match the DuckDB all-pairs oracle.
      - ``lsh`` (the 100-TB path, where all-pairs is quadratic-infeasible):
        multi-table random-hyperplane buckets -> exact in-bucket cosine
        rerank -> pair dedup. Approximate (recall tuned by
        n_planes/n_tables); same output schema.
    """
    import pyarrow.parquet as pq

    ds = _read_embeddings(sf_dir)
    n_rows = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows
    if method == "auto":
        method = "exact" if n_rows <= exact_max_rows else "lsh"

    if method == "exact":
        bundles = ds.iter_internal_ref_bundles()
        refs = [r for bundle in bundles for r in bundle.block_refs]
        if not refs:
            return ray.data.from_arrow(pa.table({
                "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}))
        # coalesce blocks into g groups with g*(g+1)/2 ~ 2*CPUs tiles:
        # task count tracks the cluster, not the reader's block count.
        # Peak tile MEMORY is bounded inside _block_pair_task (dense
        # sub-tiles chunked at _TILE_MAX_ROWS); the row-count term here
        # only adds parallelism when groups would otherwise be huge
        # (groups can never be finer than one reader block).
        cpus = int(ray.cluster_resources().get("CPU", 8)) \
            if ray.is_initialized() else 8
        g = max(1, int(np.ceil(np.sqrt(4.0 * cpus))),
                int(np.ceil(n_rows / tile_max_rows)))
        g = min(g, len(refs))
        per = (len(refs) + g - 1) // g
        groups = [refs[i:i + per] for i in range(0, len(refs), per)]
        out = []
        for i in range(len(groups)):
            for j in range(i, len(groups)):
                out.append(_block_pair_task.remote(
                    tau, groups[i], groups[j], i == j, tile_max_rows))
        return ray.data.from_arrow_refs(out)

    # --- LSH-bucketed route (scale path) ---
    from ..functions.groups import group_starts, partitioned_group_map

    def sketch(t: pa.Table) -> pa.Table:
        ids, M = _to_matrix(t)
        if len(ids) == 0:
            return pa.table({"tbl": pa.array([], pa.int32()),
                             "bucket": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "embedding": t["embedding"]})
        N = _normalize(M)
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((n_tables, N.shape[1], n_planes))
        tbls, buckets = [], []
        for tb in range(n_tables):
            bits = (N @ planes[tb]) > 0
            buckets.append((bits @ (1 << np.arange(n_planes))).astype(np.int64))
            tbls.append(np.full(len(ids), tb, np.int32))
        rep = pa.chunked_array([t["embedding"].combine_chunks()] * n_tables)
        return pa.table({"tbl": pa.array(np.concatenate(tbls)),
                         "bucket": pa.array(np.concatenate(buckets)),
                         "vec_id": pa.array(np.tile(ids, n_tables).astype(np.int64)),
                         "embedding": rep})

    banded = ds.map_batches(sketch, batch_format="pyarrow",
                            zero_copy_batch=True)

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def bucket_pairs(t: pa.Table) -> pa.Table:
        empty = pair_schema.empty_table()
        if t.num_rows == 0:
            return empty
        # Arrow block fn: the embedding column stays a list<float>
        # buffer through sort and slicing — ONE zero-copy-ish flatten
        # to a (n, dim) matrix per partition, per-bucket rows are then
        # contiguous views (no per-row Python, no object arrays).
        idx = pc.sort_indices(
            pa.table({"tbl": t["tbl"], "bucket": t["bucket"],
                      "vec_id": t["vec_id"]}),
            sort_keys=[("tbl", "ascending"), ("bucket", "ascending"),
                       ("vec_id", "ascending")])
        t = t.take(idx)
        key_t = t["tbl"].to_numpy(zero_copy_only=False)
        key_b = t["bucket"].to_numpy(zero_copy_only=False)
        ids, M = _to_matrix(t)
        N = _normalize(M)
        new = group_starts(key_t, key_b)
        bounds = np.append(np.flatnonzero(new), len(ids))
        out_a, out_b = [], []
        for s in range(len(bounds) - 1):
            lo, hi = bounds[s], bounds[s + 1]
            if hi - lo < 2:
                continue
            Nb = N[lo:hi]
            sims = Nb @ Nb.T
            r, c = np.nonzero(np.triu(sims >= tau, k=1))
            bid = ids[lo:hi]
            out_a.append(bid[r])
            out_b.append(bid[c])
        if not out_a:
            return empty
        return pa.table({"a": pa.array(np.concatenate(out_a)),
                         "b": pa.array(np.concatenate(out_b))})

    from ..functions.groups import partitioned_group_map_arrow

    pairs = partitioned_group_map_arrow(banded, ["tbl", "bucket"],
                                        bucket_pairs, 32,
                                        out_schema=pair_schema)

    def distinct_block(df):
        return df.drop_duplicates(["a", "b"])

    return partitioned_group_map(pairs, ["a", "b"], distinct_block, 16,
                                 out_schema=pair_schema)


def dedup_canonical(sf_dir: str, tau: float = 0.35,
                    method: str = "auto") -> ray.data.Dataset:
    """Embedding-space dedup end to end (the SemDeDup-shaped pass):
    near-dup pairs at cosine >= tau -> connected components -> every
    vector labeled with its component's canonical representative
    (min vec_id; singletons map to themselves). Returns
    (vec_id, canonical_id): a vector survives dedup iff
    vec_id == canonical_id.

    Composition of existing scale-safe stages: distributed block-pair
    (or LSH-bucketed) pair-gen, driver/distributed CC by edge count, and
    a byte-capped broadcast label attach (labels cover only clustered
    nodes; past the cap it degrades to the partitioned hash join) — the
    full dataset never materializes on the driver. Exact at current
    scale, so it hash-matches the DuckDB recursive-CTE oracle."""
    from ..config import DedupConfig
    from ..functions.joins import broadcast_join
    from ..stages.cc import connected_components

    cfg = DedupConfig().resolved()
    pairs = near_dup_pairs(sf_dir, tau=tau, method=method)
    labels = connected_components(pairs, cfg)

    ids = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id"])
    j = broadcast_join(ids, labels, "vec_id", "file_id", "left")

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "canonical_id": pa.array([], pa.int64())})
        from ..functions.arrow_utils import safe_coalesce
        canon = safe_coalesce(t["cluster_id"], t["vec_id"])
        return pa.table({"vec_id": t["vec_id"],
                         "canonical_id": pc.cast(canon, pa.int64())})

    return j.map_batches(fin, batch_format="pyarrow")


def _spherical_kmeans(sample: np.ndarray, n_cells: int, iters: int = 5,
                      ) -> np.ndarray:
    """Deterministic spherical k-means on a (bounded) normalized sample:
    seeds = first ``n_cells`` sample rows, assign by max dot product,
    update = renormalized mean. Returns (n_cells, dim) unit centroids."""
    cent = sample[:n_cells].copy()
    for _ in range(iters):
        assign = (sample @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            members = sample[assign == c]
            if len(members):
                m = members.sum(axis=0)
                nrm = np.linalg.norm(m)
                if nrm > 0:
                    cent[c] = m / nrm
    return cent


def knn_ivf(sf_dir: str, k: int = 10, num_queries: int = 8,
            n_cells: int | None = None, nprobe: int | None = None,
            sample_rows: int = 4096) -> ray.data.Dataset:
    """Approximate top-k via an IVF (inverted-file) index: spherical
    k-means centroids from a bounded driver-side sample, each vector
    assigned to its nearest cell, queries probe only the ``nprobe``
    nearest cells and exactly rerank what they find.

    Streaming IVF shape for Ray Data: (centroids, per-query probed-cell
    sets) are broadcast ONCE via ``ray.put``; each batch does one
    assignment matmul + membership mask — embeddings never shuffle, and
    only per-batch partial top-k rows reach the final (tiny) groupby.
    Defaults size the index to the table: ``n_cells ~ sqrt(n)``. Below
    ``full_probe_rows`` the default ``nprobe`` covers EVERY cell — the
    result is then exactly brute top-k (the driver-checkable gate; the
    routing/assignment machinery still runs) because on small tables
    any partial probe of scattered vectors loses recall. Above it the
    default drops to ``ceil(n_cells/2)``: the sublinear scan that is
    the point of IVF at 10^9 rows (measured recall at half-probe on
    this corpus: 0.91-0.97)."""
    import pyarrow.parquet as pq

    qids, Q = load_queries(sf_dir, num_queries)
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    n_rows = pf.metadata.num_rows
    full_probe_rows = 100_000
    if n_cells is None:
        n_cells = max(4, int(round(np.sqrt(max(1, n_rows)))))
    nprobe_default = nprobe is None

    # bounded sample for centroid training: first row groups only —
    # never the full table
    batches = []
    got = 0
    for rg in range(pf.metadata.num_row_groups):
        t = pf.read_row_group(rg, columns=["vec_id", "embedding"])
        batches.append(t)
        got += t.num_rows
        if got >= sample_rows:
            break
    sample_t = pa.concat_tables(batches) if batches else None
    if sample_t is None or sample_t.num_rows == 0:
        return ray.data.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64())}))
    _, S = _to_matrix(sample_t.slice(0, sample_rows))
    cent = _spherical_kmeans(_normalize(S), min(n_cells, len(S)))
    # the bounded training sample can yield fewer cells than requested
    # (sample_rows < n_cells on tables past ~sample_rows^2 rows): the
    # defaults derive from the centroid count that actually EXISTS, so
    # the full-probe==brute gate and the documented half-probe ratio
    # hold against len(cent), not the nominal n_cells
    if nprobe_default:
        nprobe = len(cent) if n_rows <= full_probe_rows \
            else max(2, int(np.ceil(len(cent) / 2)))
    nprobe = min(nprobe, len(cent))

    # per-query probed cells: the nprobe centroids nearest each query
    q_cells = np.argsort(-(Q @ cent.T), axis=1, kind="stable")[:, :nprobe]
    ref = ray.put((qids, Q, cent, q_cells))

    def partial_topk(t: pa.Table) -> pa.Table:
        qids_, Q_, cent_, q_cells_ = ray.get(ref)
        ids, M = _to_matrix(t)
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        N = _normalize(M)
        cells = (N @ cent_.T).argmax(axis=1)
        out_q, out_n, out_s = [], [], []
        for j, qid in enumerate(qids_):
            mask = np.isin(cells, q_cells_[j])
            mask &= ids != qid
            cand = np.flatnonzero(mask)
            if len(cand) == 0:
                continue
            vals = N[cand] @ Q_[j]
            take = min(k, len(cand))
            if len(cand) > take:
                kth = np.partition(vals, len(vals) - take)[len(vals) - take]
                keep = vals >= kth        # tie-aware partial (keep ties)
                cand, vals = cand[keep], vals[keep]
            order = np.lexsort((ids[cand], -vals))[:take]
            sel = cand[order]
            out_q.append(np.full(len(sel), qid, np.int64))
            out_n.append(ids[sel].astype(np.int64))
            out_s.append(vals[order].astype(np.float64))
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({"query_id": pa.array(np.concatenate(out_q)),
                         "neighbor_id": pa.array(np.concatenate(out_n)),
                         "sim": pa.array(np.concatenate(out_s))})

    cands = _read_embeddings(sf_dir).map_batches(
        partial_topk, batch_format="pyarrow", zero_copy_batch=True)

    return _final_topk(cands, k)


def knn_lsh(sf_dir: str, k: int = 10, num_queries: int = 8,
            n_planes: int | None = None, n_tables: int = 6,
            target_bucket: int | None = None,
            seed: int = 7) -> ray.data.Dataset:
    """Approximate top-k via multi-table random-hyperplane LSH: each of
    ``n_tables`` independent sketches routes a vector to one bucket;
    queries probe their bucket plus all Hamming<=2 neighbors in every
    table, candidates are exactly reranked. More tables -> higher
    recall, linearly more candidate work — the classic LSH dial.

    ``n_planes=None`` adapts the sketch width to the dataset:
    ``round(log2(n / target_bucket))`` with ``target_bucket = 4k``, so
    expected bucket size tracks the answer size instead of a constant —
    small tables keep near-total probe coverage (recall ~1.0), huge
    tables keep buckets bounded at ~4k vectors. Probe work per table is
    ``O(P^2)`` buckets; candidate rerank stays the dominant cost."""
    import pyarrow.parquet as pq

    qids, Q = load_queries(sf_dir, num_queries)
    if n_planes is None:
        n_rows = pq.ParquetFile(f"{sf_dir}/embeddings.parquet") \
            .metadata.num_rows
        tb = target_bucket or 4 * k
        n_planes = max(2, int(round(np.log2(max(2.0, n_rows / tb)))))
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, Q.shape[1], n_planes))

    def sketch(m: np.ndarray, t: int) -> np.ndarray:
        bits = (m @ planes[t]) > 0
        return (bits @ (1 << np.arange(n_planes))).astype(np.int64)

    # Hamming<=2 multiprobe masks: the query's own bucket, every 1-bit
    # flip, every 2-bit flip.
    flips = [0] + [1 << p for p in range(n_planes)] + \
        [(1 << p) | (1 << q)
         for p in range(n_planes) for q in range(p + 1, n_planes)]
    masks = np.array(flips, dtype=np.int64)

    # probe tables in CSR form (sorted bucket keys + offsets + q-index
    # payload) so candidate lookup per batch is searchsorted + repeat —
    # no per-row Python dict probing.
    probe_csr: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for t in range(n_tables):
        q_buckets = sketch(Q, t)
        tgt = (q_buckets[None, :] ^ masks[:, None]).reshape(-1)
        qj = np.tile(np.arange(len(q_buckets)), len(masks))
        order = np.argsort(tgt, kind="stable")
        tgt, qj = tgt[order], qj[order]
        keys, starts = np.unique(tgt, return_index=True)
        offsets = np.append(starts, len(tgt))
        probe_csr.append((keys, offsets, qj))
    ref = ray.put((qids, Q, probe_csr))

    def candidates(t: pa.Table) -> pa.Table:
        qids_, Q_, probe_ = ray.get(ref)
        ids, M = _to_matrix(t)
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        N = _normalize(M)
        row_hits, q_hits = [], []
        for tbl in range(n_tables):
            keys, offsets, qj = probe_[tbl]
            buckets = sketch(N, tbl)
            pos = np.searchsorted(keys, buckets).clip(0, len(keys) - 1)
            ok = np.flatnonzero(keys[pos] == buckets) if len(keys) else []
            if len(ok) == 0:
                continue
            lo, hi = offsets[pos[ok]], offsets[pos[ok] + 1]
            # CSR gather: concatenated qj[lo_i:hi_i] ranges
            rows_i, take = csr_expand(lo, hi)
            row_hits.append(ok[rows_i])
            q_hits.append(qj[take])
        if not row_hits:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        rows = np.concatenate(row_hits)
        qs = np.concatenate(q_hits)
        # dedup (row, query) across tables; drop self-matches
        combo = rows.astype(np.int64) * len(qids_) + qs
        uniq = np.unique(combo)
        rows = (uniq // len(qids_)).astype(np.int64)
        qs = (uniq % len(qids_)).astype(np.int64)
        keep = ids[rows] != qids_[qs]
        rows, qs = rows[keep], qs[keep]
        sims = np.einsum("ij,ij->i", N[rows], Q_[qs])
        return pa.table({"query_id": pa.array(qids_[qs].astype(np.int64)),
                         "neighbor_id": pa.array(ids[rows].astype(np.int64)),
                         "sim": pa.array(sims.astype(np.float64))})

    cands = _read_embeddings(sf_dir).map_batches(
        candidates, batch_format="pyarrow", zero_copy_batch=True)

    return _final_topk(cands, k)


def load_seed_centroids(sf_dir: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed centroids for k-means: the ``k`` lowest vec_ids' raw
    (unnormalized) embeddings, via the same row-filtered driver read as
    ``load_queries`` — at scale this is the small broadcast side."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"
    ids_only = pq.read_table(path, columns=["vec_id"])["vec_id"] \
        .to_numpy(zero_copy_only=False)
    if len(ids_only) == 0:
        return np.empty(0, np.int64), np.empty((0, 0), np.float64)
    cut = np.sort(ids_only)[min(k, len(ids_only)) - 1]
    t = pq.read_table(path, columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<=", int(cut))])
    ids, m = _to_matrix(t)
    order = np.argsort(ids, kind="stable")[:k]
    return ids[order].astype(np.int64), m[order]


def kmeans_iter(sf_dir: str, k: int = 8) -> ray.data.Dataset:
    """One deterministic Lloyd iteration of k-means over the embedding
    column: assign every vector to its nearest of ``k`` seed centroids
    (squared-L2, tie-break lowest seed vec_id) and report per-centroid
    membership counts plus integer-quantized witnesses of the update
    step. Output columns (one row per seed, all int64 so the DuckDB
    oracle hash-matches exactly):

    - ``centroid_id``   — the seed's vec_id
    - ``n_assigned``    — cluster size after assignment
    - ``inertia_q3``    — sum over members of floor(1000 * ||x - c||^2)
    - ``elem_sum_q3``   — sum over members of floor(1000 * sum_d x_d)
                          (pins the new-centroid numerator: mean = that
                          per-dim sum / n_assigned)

    Scale shape: the (k x dim) seed matrix is ``ray.put`` ONCE and read
    inside every batch (never re-shipped); each ``map_batches`` task
    computes the argmin with one matmul (the ||x||^2 - 2xC^T + ||c||^2
    identity) then re-derives the chosen distance DIRECTLY as
    ||x - c||^2 so the quantized inertia is float-stable against the
    oracle; each batch pre-aggregates to k partial rows (np.add.at on
    int64 accumulators), so only k rows per block reach the final
    single-partition combine — shuffle volume O(k x blocks), never
    O(rows). Iterating Lloyd is re-running this with the updated
    centroids broadcast again; the per-iteration plan is identical.

    This is the embedding-space clustering step a diversity-sampling /
    semantic-dedup curation pipeline runs upstream of selection
    (reference intent: grouping by signature distance,
    /root/reference/crates/image-deduper-core/src/processing/types.rs:22-43).
    """
    sids, C = load_seed_centroids(sf_dir, k)
    kk = len(sids)
    c_norm2 = np.einsum("ij,ij->i", C, C) if kk else np.empty(0)
    seed_ref = ray.put((sids, C, c_norm2))

    empty = pa.table({"centroid_id": pa.array([], pa.int64()),
                      "n_assigned": pa.array([], pa.int64()),
                      "inertia_q3": pa.array([], pa.int64()),
                      "elem_sum_q3": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        sids_, C_, cn2 = ray.get(seed_ref)
        if len(t) == 0 or len(sids_) == 0:
            return empty
        _, X = _to_matrix(t)
        # argmin over the identity form (ties impossible to introduce:
        # seeds are distinct rows; argmin takes the FIRST minimum =
        # lowest seed index = lowest seed vec_id, matching the oracle's
        # ORDER BY d2, sid)
        d2_all = (np.einsum("ij,ij->i", X, X)[:, None]
                  - 2.0 * (X @ C_.T) + cn2[None, :])
        chosen = np.argmin(d2_all, axis=1)
        # exact distance to the CHOSEN centroid only (k gathers, cheap):
        # the direct form is what the oracle computes, so quantization
        # at 1e-3 sees identical float64 values
        diff = X - C_[chosen]
        d2 = np.einsum("ij,ij->i", diff, diff)
        q_inertia = np.floor(d2 * 1000.0).astype(np.int64)
        q_esum = np.floor(X.sum(axis=1) * 1000.0).astype(np.int64)
        n = np.zeros(len(sids_), np.int64)
        si = np.zeros(len(sids_), np.int64)
        se = np.zeros(len(sids_), np.int64)
        np.add.at(n, chosen, 1)
        np.add.at(si, chosen, q_inertia)
        np.add.at(se, chosen, q_esum)
        return pa.table({"centroid_id": pa.array(sids_),
                         "n_assigned": pa.array(n),
                         "inertia_q3": pa.array(si),
                         "elem_sum_q3": pa.array(se)})

    def combine(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return empty
        df = t.to_pandas()
        out = df.groupby("centroid_id", sort=True, as_index=False).sum()
        out = out[out["n_assigned"] > 0]
        return pa.Table.from_pandas(out[["centroid_id", "n_assigned",
                                         "inertia_q3", "elem_sum_q3"]],
                                    preserve_index=False)

    return (_read_embeddings(sf_dir)
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .repartition(1)
            .map_batches(combine, batch_format="pyarrow"))


def semantic_prune(sf_dir: str, n_centroids: int = 8,
                   tau: float = 0.35) -> ray.data.Dataset:
    """SemDeDup-shape semantic dedup: (vec_id, cluster_id, pruned) —
    assign every embedding to its nearest of ``n_centroids`` fixed
    centroids (the lowest vec_ids' embeddings, cosine, ties to the
    lower centroid id), then WITHIN each cluster prune any row that
    has an earlier (lower vec_id) cluster-mate with cosine >= ``tau``.
    "Earlier neighbor exists" is evaluated against ALL earlier
    cluster-mates (chain-independent), so the flag is order-exact and
    the DuckDB oracle reproduces it with a within-cluster self-join.

    Scale shape (the SemDeDup argument, Abbas et al. 2023): the
    quadratic prune never runs corpus-wide — the centroid matrix is
    broadcast once and assignment is one streaming matmul per batch;
    the prune is per-cluster after ONE hash shuffle on cluster_id,
    O(sum n_c^2) with k chosen so clusters stay small. Content never
    moves twice."""
    import ray

    from ..functions.groups import group_starts, partitioned_group_map_arrow

    cids, Q = load_queries(sf_dir, n_centroids)
    out_schema = pa.schema([("vec_id", pa.int64()),
                            ("cluster_id", pa.int64()),
                            ("pruned", pa.bool_())])
    if len(cids) == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    cent_ref = ray.put((cids.astype(np.int64), _normalize(Q)))

    mid_schema = pa.schema([("vec_id", pa.int64()),
                            ("cluster_id", pa.int64()),
                            ("embedding", pa.list_(pa.float32()))])

    def assign(t: pa.Table) -> pa.Table:
        ids, M = _to_matrix(t)
        if len(ids) == 0:
            return mid_schema.empty_table()
        qids, Qn = ray.get(cent_ref)
        sims = _normalize(M) @ Qn.T
        # argmax returns the FIRST max: ties go to the lower centroid
        # id (qids is ascending), matching the oracle's ORDER BY
        # sim DESC, cid ASC
        cl = qids[np.argmax(sims, axis=1)]
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        return pa.table({"vec_id": pa.array(ids.astype(np.int64)),
                         "cluster_id": pa.array(cl),
                         "embedding": emb.cast(pa.list_(pa.float32()))})

    assigned = _read_embeddings(sf_dir).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True)

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        order = pc.sort_indices(t, sort_keys=[("cluster_id", "ascending"),
                                              ("vec_id", "ascending")])
        t = t.take(order)
        ids, M = _to_matrix(t)
        N = _normalize(M)
        cl = t["cluster_id"].to_numpy(zero_copy_only=False)
        pruned = np.zeros(len(ids), bool)
        starts = np.flatnonzero(group_starts(cl))
        bounds = np.append(starts, len(ids))
        # per-CLUSTER loop (not per-row): each iteration is one dense
        # gram matrix over that cluster's rows, vectorized end to end
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            S = N[s:e] @ N[s:e].T
            hit = np.triu(S >= tau, k=1)  # rows sorted by vec_id: i<j
            pruned[s:e] = hit.any(axis=0)
        return pa.table({"vec_id": pa.array(ids.astype(np.int64)),
                         "cluster_id": pa.array(cl.astype(np.int64)),
                         "pruned": pa.array(pruned)})

    return partitioned_group_map_arrow(assigned, ["cluster_id"], block,
                                       8, out_schema=out_schema)


def knn_filtered(sf_dir: str, k: int = 10, num_queries: int = 8,
                 label_mod: int = 2, label_rem: int = 0
                 ) -> ray.data.Dataset:
    """(query_id, neighbor_id, rank) — FILTERED vector search (hybrid
    search's vector half): exact cosine top-k restricted to candidates
    whose metadata matches a predicate (``label %% label_mod ==
    label_rem``). The filter-then-search discipline at scale: the
    predicate mask applies per batch BEFORE the matmul (a modulo
    predicate carries no min/max row-group statistics, so only the
    narrow label column is scanned extra — no Parquet pruning is
    possible or claimed), and the tie-aware partial top-k / final
    merge are shared with the unfiltered operator (``_batch_topk``) —
    post-filtering a larger unfiltered top-k would be both wrong
    (recall holes) and slower.

    Same deterministic tie rule as ``knn_brute`` (sim desc, id asc);
    self-matches excluded."""
    qids, Q = load_queries(sf_dir, num_queries)
    q_ref = ray.put((qids, Q))

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"])

    def partial_topk(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(lab % label_mod == label_rem))
        if t.num_rows == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        qids_, Q_ = ray.get(q_ref)
        ids, M = _to_matrix(t.select(["vec_id", "embedding"]))
        return _batch_topk(ids, M, qids_, Q_, k)

    cands = ds.map_batches(partial_topk, batch_format="pyarrow",
                           zero_copy_batch=True)
    return _final_topk(cands, k)


def label_centroids(sf_dir: str, scale: int = 1_000_000
                    ) -> ray.data.Dataset:
    """(label, dim, sum_q, n_vecs) — VECTOR-VALUED AGGREGATE: the
    per-label embedding sum, integer-quantized PER ROW
    (``floor(scale * x_i)``) so the distributed sum is
    order-independent and the centroid (sum_q / n_vecs in the
    consumer's hands) hash-matches the SQL oracle exactly. Per-batch
    combiner: one bincount-weighted pass per dimension block emits
    O(labels x dim) partial rows, merged by one tiny hash shuffle —
    the embedding matrix itself never shuffles."""
    from ..functions.groups import group_starts, partitioned_group_map_arrow

    out_schema = pa.schema([("label", pa.int64()), ("dim", pa.int64()),
                            ("sum_q", pa.int64()), ("n_vecs", pa.int64())])

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["embedding", "label"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = t["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        d = len(flat) // t.num_rows
        Mq = np.floor(flat.reshape(t.num_rows, d) * scale) \
            .astype(np.int64)
        ulab, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(ulab), d), np.int64)
        np.add.at(sums, inv, Mq)
        cnt = np.bincount(inv).astype(np.int64)
        L = np.repeat(ulab, d)
        return pa.table({
            "label": pa.array(L),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64),
                                    len(ulab))),
            "sum_q": pa.array(sums.reshape(-1)),
            "n_vecs": pa.array(np.repeat(cnt, d))}, schema=out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        # collision-free multi-key grouping (no packed magic constant:
        # a dim >= the pack base would silently merge groups)
        lab = t["label"].to_numpy(zero_copy_only=False)
        dim = t["dim"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dim, lab))
        lab, dim = lab[order], dim[order]
        starts = np.flatnonzero(group_starts(lab, dim))
        return pa.table({
            "label": pa.array(lab[starts]),
            "dim": pa.array(dim[starts]),
            "sum_q": pa.array(np.add.reduceat(
                t["sum_q"].to_numpy(zero_copy_only=False)[order], starts)),
            "n_vecs": pa.array(np.add.reduceat(
                t["n_vecs"].to_numpy(zero_copy_only=False)[order],
                starts))}, schema=out_schema)

    return partitioned_group_map_arrow(partials, ["label", "dim"],
                                       merge, 4, out_schema=out_schema)
