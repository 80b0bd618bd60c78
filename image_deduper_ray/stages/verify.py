"""Pair verification + exact-dup edges.

J4 in SURVEY.md §2.4: the reference's intended pair check is
``PHash::is_similar`` distance <= threshold
(/root/reference/crates/image-deduper-core/src/processing/types.rs:47-58).
Here: estimated Jaccard = mean(sig_a == sig_b), computed vectorized
per batch of candidate pairs (a, b). The signature matrix is broadcast
once while it fits ``broadcast_max_bytes`` (its own packer and gather:
scoring through Acero joins measured ~1.5x slower); past it the pairs
are hash-joined with the signatures table twice
(``score_joined_pairs``). Both scorers share one verdict rule
(``_verdicts``): ``near_dup`` at ``jaccard_threshold``, else
``containment_cand`` for a containment-band pair at or above
``CONTAINMENT_EST_JACCARD_MIN``, else ``reject``.

Exact dedup (A1, the commented-out ``_find_duplicate_images`` at
src/deduplication/mod.rs:8-32): groupby(sha256), emit (first, other)
edges per group — groups of size 1 emit nothing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import DedupConfig
from ..functions.groups import blocks_of, map_blocks, materialized

# containment candidates must clear this estimated Jaccard before the
# (content-joining) substring pass: real containment of ratio r has
# J ~= r, while shared-boilerplate noise sits near 0. The band-hit gate
# in stages/lsh dominates the reach (see its module docstring).
CONTAINMENT_EST_JACCARD_MIN = 0.15

_VERIFIED_SCHEMA = pa.schema([("a", pa.string()), ("b", pa.string()),
                              ("jaccard", pa.float64()),
                              ("verdict", pa.string())])

# pair rows per scoring batch: each batch gathers two (n, num_perms)
# uint64 signature matrices, so whole materialized blocks (~70k pairs)
# would cost ~150 MB per worker
SCORE_BATCH_ROWS = 4096


def _sig_of(batch_col: pa.ChunkedArray | pa.Array, num_perms: int) -> np.ndarray:
    """(n, P) uint64 view of a packed-minhash column. fixed_size_binary
    (the signature stage's native layout) reshapes the Arrow data buffer
    ZERO-COPY; variable binary (post-join pandas round-trips) falls back
    to one join+frombuffer."""
    if isinstance(batch_col, pa.ChunkedArray):
        batch_col = batch_col.combine_chunks()
    if pa.types.is_fixed_size_binary(batch_col.type):
        w = batch_col.type.byte_width // 8
        flat = np.frombuffer(batch_col.buffers()[1], dtype=np.uint64)
        flat = flat[batch_col.offset * w:(batch_col.offset + len(batch_col)) * w]
    else:
        flat = np.frombuffer(b"".join(batch_col.to_pylist()), dtype=np.uint64)
    return flat.reshape(-1, num_perms)


def est_jaccard(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Estimated Jaccard of row-aligned signature matrices: the share
    of equal MinHash values. Every scorer uses this one expression, so
    the in-bucket check of stages/lsh and ``_verdicts`` agree to the
    bit."""
    return (sa == sb).mean(axis=1)


def attach_signatures(pairs: ray.data.Dataset, sigs: ray.data.Dataset,
                      cfg: DedupConfig) -> ray.data.Dataset:
    """pairs(a, b, is_cont) -> + minhash_a, minhash_b via two
    partitioned hash joins (functions/joins.py). Both joins are inner
    and ``sign_batch`` writes every ``minhash`` non-null, so each
    joined row carries both signatures."""
    from ..functions.joins import hash_join

    def sig_side(name: str):
        schema = pa.schema([("file_id", pa.string()),
                            (name, pa.binary(cfg.num_perms * 8))])
        return map_blocks(sigs, lambda t: pa.table(
            {"file_id": t["file_id"], name: t["minhash"]}), schema)

    sig_a, sig_b = sig_side("minhash_a"), sig_side("minhash_b")
    pair_schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                             ("is_cont", pa.int8())])
    a_fields = pa.schema([("minhash_a", pa.binary())])
    j = hash_join(pairs, sig_a, "a", "file_id", pair_schema, a_fields,
                  num_partitions=cfg.num_partitions)
    j = hash_join(j, sig_b, "b", "file_id",
                  pa.schema(list(pair_schema) + list(a_fields)),
                  pa.schema([("minhash_b", pa.binary())]),
                  num_partitions=cfg.num_partitions)
    return j


def _verdicts(batch: pa.Table, jac: np.ndarray,
              cfg: DedupConfig) -> pa.Table:
    """(a, b, jaccard, verdict) of one scored pair batch, shared by the
    broadcast and the join scorer: ``near_dup`` at est-Jaccard >=
    ``jaccard_threshold``; else ``containment_cand`` for a pair a
    containment band produced that clears CONTAINMENT_EST_JACCARD_MIN;
    else ``reject``."""
    is_cont = batch["is_cont"].to_numpy(zero_copy_only=False)
    cont_ok = (is_cont == 1) & (jac >= CONTAINMENT_EST_JACCARD_MIN)
    verdict = np.where(jac >= cfg.jaccard_threshold, "near_dup",
                       np.where(cont_ok, "containment_cand", "reject"))
    return pa.table({"a": batch["a"], "b": batch["b"],
                     "jaccard": pa.array(jac, pa.float64()),
                     "verdict": pa.array(verdict.tolist(), pa.string())})


def score_joined_pairs(batch: pa.Table, cfg: DedupConfig) -> pa.Table:
    """``map_batches`` fn of the join path: est-Jaccard of each pair
    from its two attached signatures, then the shared verdicts."""
    if batch.num_rows == 0:
        return _VERIFIED_SCHEMA.empty_table()
    sa = _sig_of(batch["minhash_a"], cfg.num_perms)
    sb = _sig_of(batch["minhash_b"], cfg.num_perms)
    return _verdicts(batch, est_jaccard(sa, sb), cfg)


@ray.remote(num_returns=2)
def _pack(block, num_perms: int):
    """(S32 file_ids, uint64 signature matrix) of one signature block."""
    from ..functions.arrow_utils import as_table, fixed_str_view
    t = as_table(block)
    if t.num_rows == 0 or "file_id" not in t.column_names:
        # Ray 2.49 empty partitions can arrive schema-less
        return (np.empty(0, dtype="S32"),
                np.empty((0, num_perms), np.uint64))
    return (fixed_str_view(t["file_id"], 32).copy(),
            _sig_of(t["minhash"], num_perms))


def pack_signatures(sigs: ray.data.Dataset, cfg: DedupConfig):
    """The signature broadcast of a materialized ``sigs``, or None when
    its matrix outgrows ``broadcast_max_bytes`` (row count from the
    blocks' metadata): (id part refs, matrix part refs), one ``_pack``
    task per block, reading the blocks themselves so no Ray Data job
    runs.

    The matrices are NEVER concatenated or reordered: they stay as
    per-part plasma objects, and each consumer builds only a small
    sorted (key -> part, row) INDEX on one worker (~40 B/row). A serial
    concat + sorted gather of the full matrix was once the pipeline's
    single biggest fixed cost: 2 x matrix_bytes of single-thread memcpy
    on the critical path at every cluster size (measured 15-80 s at
    345 k x 128 on a memory-bandwidth-bound host), exactly the kind of
    non-parallelizable term that caps N->4N scaling efficiency. Row
    gathers happen inside the parallel consumers (``gather_rows``),
    reading the part objects zero-copy from plasma."""
    blocks = list(blocks_of(sigs))
    rows = sum(meta.num_rows or 0 for _, meta, _ in blocks)
    if rows * cfg.num_perms * 8 > cfg.broadcast_max_bytes:
        return None
    packed = [_pack.remote(ref, cfg.num_perms) for ref, _, _ in blocks]
    return [i for i, _ in packed], [m for _, m in packed]


def gather_rows(parts, part_of, row_of, pos, num_perms: int) -> np.ndarray:
    """(len(pos), num_perms) signatures of the index entries ``pos``:
    entry k is row ``row_of[k]`` of matrix part ``part_of[k]``."""
    out = np.empty((len(pos), num_perms), np.uint64)
    pidx = part_of[pos]
    ridx = row_of[pos]
    for q in np.unique(pidx):
        m = pidx == q
        out[m] = parts[q][ridx[m]]
    return out


@ray.remote
def _index(*id_parts):
    """(sorted S32 ids, part, row) over the packed id parts."""
    sizes = [len(x) for x in id_parts]
    n = sum(sizes)
    if n == 0:
        return (np.empty(0, dtype="S32"),
                np.empty(0, np.int32), np.empty(0, np.int32))
    ids = np.concatenate(id_parts)
    part_of = np.repeat(np.arange(len(id_parts), dtype=np.int32), sizes)
    row_of = np.concatenate([np.arange(s, dtype=np.int32) for s in sizes])
    order = np.argsort(ids)
    return (ids[order], part_of[order], row_of[order])


def verify_pairs(pairs: ray.data.Dataset, sigs: ray.data.Dataset,
                 cfg: DedupConfig, packed=None) -> ray.data.Dataset:
    """-> (a, b, jaccard, verdict) for every candidate pair.
    ``packed``: a ``pack_signatures`` broadcast that already holds every
    pair endpoint (a fresh scan passes the representatives' one that
    built the pairs), scored against instead of packing ``sigs``.

    Fast path: the signature matrix fits the broadcast budget — ship it
    ONCE as per-part plasma objects plus a sorted (id -> part, row)
    index; one plain task per ``pairs`` block (``groups.map_blocks``)
    gets zero-copy views and scores ``SCORE_BATCH_ROWS`` pairs at a time
    with one vectorized searchsorted + equality mean. No shuffle, no
    per-pair signature copies. Past the budget (the 10^12-file regime, where
    even collapsed representatives outgrow a node), fall back to the
    partitioned hash joins."""
    cfg = cfg.resolved()
    if packed is None:
        # None past the byte cap, sized from ``sigs``' block metadata
        packed = pack_signatures(sigs, cfg)
    if packed is not None:
        P = cfg.num_perms
        id_refs, mat_refs = packed
        index_ref = _index.remote(*id_refs)

        def score(batch: pa.Table, sids, part_of, row_of, parts) -> pa.Table:
            # direct fixed-width buffer view — no per-value Python str
            from ..functions.arrow_utils import fixed_str_view
            a = fixed_str_view(batch["a"], 32)
            b = fixed_str_view(batch["b"], 32)
            pa_ = np.searchsorted(sids, a).clip(0, max(len(sids) - 1, 0))
            pb_ = np.searchsorted(sids, b).clip(0, max(len(sids) - 1, 0))
            if len(sids) == 0:
                ok = np.zeros(len(a), dtype=bool)
                jac = np.zeros(len(a), dtype=np.float64)
            else:
                ok = (sids[pa_] == a) & (sids[pb_] == b)
                sa = gather_rows(parts, part_of, row_of, pa_, P)
                sb = gather_rows(parts, part_of, row_of, pb_, P)
                jac = np.where(ok, est_jaccard(sa, sb), 0.0)
            return _verdicts(batch, jac, cfg)

        def score_block(t: pa.Table) -> pa.Table:
            index = ray.get(index_ref)
            parts = ray.get(mat_refs)   # plasma views, zero-copy local
            return pa.concat_tables(
                [score(t.slice(s, SCORE_BATCH_ROWS), *index, parts)
                 for s in range(0, t.num_rows, SCORE_BATCH_ROWS)]
                or [_VERIFIED_SCHEMA.empty_table()])

        return map_blocks(pairs, score_block, _VERIFIED_SCHEMA)

    joined = attach_signatures(pairs, sigs, cfg)
    return map_blocks(joined, lambda t: score_joined_pairs(t, cfg),
                      _VERIFIED_SCHEMA)


def signature_representatives(sigs: ray.data.Dataset, cfg: DedupConfig
                              ) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Collapse signature-identical rows before LSH.

    Rows with BYTE-IDENTICAL MinHash signatures (sig_kind='ok') have
    est-Jaccard exactly 1.0 >= tau — they are near-dups by definition,
    needing neither banding nor verification. Letting them into LSH is
    the dominant skew + duplicate-emission source: a group of k
    identical signatures collides in EVERY band, emitting k^2 pairs x
    num_bands duplicates (exact copies and reformat-only twins are the
    web-scale boilerplate case). Instead: one representative (min
    file_id) per signature group enters LSH; (rep, member) edges are
    returned for the edge union; CC transitivity reconnects everything.

    Returns (reps, sig_edges): ``sig_edges`` is (a=rep, b=member), one
    row per non-first member, straight from the collapse shuffle. Rows
    whose sig_kind is 'fallback' are never merged by signature (their
    signature encodes identity, not content); 'empty' rows are dropped
    from both outputs (M16 validator semantics)."""
    from ..functions.groups import partitioned_group_map_arrow

    num_partitions = cfg.num_partitions

    # Shuffle a 128-bit FOLD of the signature, not the 1 KB payload
    # (~15x less shuffle volume). Group membership by fold is
    # byte-equality modulo a ~2^-128 collision (a collision would merge
    # two non-identical signatures — vanishingly unlikely even at 10^12
    # rows, and bounded to one spurious near-dup edge). Non-first
    # members are then removed from the signature stream by an
    # anti-join on the edges' ``b`` (functions/joins.broadcast_join).
    import pyarrow.compute as pc

    from ..functions.joins import broadcast_join

    P = cfg.num_perms
    mults1 = np.cumprod(np.full(P, 1099511628211, dtype=np.uint64),
                        dtype=np.uint64)
    mults2 = np.cumprod(np.full(P, 2654435769, dtype=np.uint64),
                        dtype=np.uint64)

    def fold(t: pa.Table) -> pa.Table:
        """The shuffle's row prep: (file_id, h1, h2, sig_kind)."""
        M = _sig_of(t["minhash"], P)
        with np.errstate(over="ignore"):
            h1 = (M * mults1[None, :]).sum(axis=1, dtype=np.uint64)
            h2 = (M * mults2[None, :]).sum(axis=1, dtype=np.uint64)
        return pa.table({"file_id": t["file_id"],
                         "h1": pa.array(h1.view(np.int64)),
                         "h2": pa.array(h2.view(np.int64)),
                         "sig_kind": t["sig_kind"]})

    edge_schema = pa.schema([("a", pa.string()), ("b", pa.string())])

    def member_edges(t: pa.Table) -> pa.Table:
        """(first, member) edges of one partition's 'ok' rows, grouped
        by fold; the first is the group's min file_id."""
        m = t.filter(pc.equal(t["sig_kind"], "ok"))
        if m.num_rows == 0:
            return edge_schema.empty_table()
        m = m.take(pc.sort_indices(
            m, sort_keys=[("h1", "ascending"), ("h2", "ascending"),
                          ("file_id", "ascending")])).combine_chunks()
        k1 = m["h1"].to_numpy(zero_copy_only=False)
        k2 = m["h2"].to_numpy(zero_copy_only=False)
        first = np.ones(m.num_rows, dtype=bool)
        first[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
        rep_idx = np.flatnonzero(first)[np.cumsum(first) - 1]
        member = np.flatnonzero(~first)
        return pa.table({"a": m["file_id"].take(pa.array(rep_idx[member])),
                         "b": m["file_id"].take(pa.array(member))})

    # materialized by the shuffle: the anti-join below AND the
    # ``edges_sig`` checkpoint read it
    sig_edges = partitioned_group_map_arrow(
        sigs, ["h1", "h2"], member_edges, num_partitions,
        out_schema=edge_schema, pre=fold)

    rep_schema = pa.schema([("file_id", pa.string()),
                            ("minhash", pa.binary(P * 8)),
                            ("simhash", pa.int64()),
                            ("sig_kind", pa.string())])

    def signed(t: pa.Table) -> pa.Table:
        return t.select(rep_schema.names).filter(
            pc.not_equal(t["sig_kind"], "empty"))

    # materialized: consumed by hot-bucket counting AND band explode
    # (and the narrow projection is small next to the corpus)
    reps = materialized(broadcast_join(
        map_blocks(sigs, signed, rep_schema), sig_edges, "file_id", "b",
        "anti", cfg.broadcast_max_bytes, num_partitions))
    return reps, sig_edges


def exact_dup_edges(sigs: ray.data.Dataset,
                    num_partitions: int | None = None) -> ray.data.Dataset:
    """A1: sha256-equal edges (first-vs-rest per group, deterministic
    by file_id order). Empty-content rows are excluded (M16 validator
    semantics, file_validation.rs:37-51).

    Partition-level block processing (functions/groups.py): one shuffle
    on hash(sha256), then the whole partition's groups segment in one
    vectorized pass — no per-group Python overhead."""
    from ..functions.groups import group_starts, partitioned_group_map

    def block(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["sig_kind"] != "empty"]
        if df.empty:
            return pd.DataFrame({"a": pd.Series([], dtype=object),
                                 "b": pd.Series([], dtype=object)})
        sha = df["sha256"].to_numpy()
        fid = df["file_id"].to_numpy()
        order = np.lexsort((fid, sha))
        sha, fid = sha[order], fid[order]
        new = group_starts(sha)
        group_idx = np.cumsum(new, dtype=np.int32) - 1
        first_fid = fid[new][group_idx]  # group's min file_id, broadcast
        mask = ~new                      # every non-first row is an edge
        return pd.DataFrame({"a": first_fid[mask], "b": fid[mask]})

    return partitioned_group_map(
        sigs, ["sha256"], block, num_partitions,
        out_schema=pa.schema([("a", pa.string()), ("b", pa.string())]),
        pre=lambda t: t.select(["sha256", "file_id", "sig_kind"]))
