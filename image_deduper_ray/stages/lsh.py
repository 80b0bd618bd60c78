"""LSH banding + candidate-pair generation with explicit skew handling.

The near-dup grouping the reference intends via
``PHash::is_similar`` threshold grouping
(/root/reference/crates/image-deduper-core/src/processing/types.rs:47-58,
threshold ``phash_threshold=90`` at src/config.rs:105; intended flow in
dev_notes.md:28-38) — recast as MinHash-LSH (SURVEY.md §2.5 A2):

  explode: sig (P=128) -> b bands x r rows; band_key = rolling hash of
           the band's r values  (vectorized, one reshape + r fused ops)
  shuffle: hash-partition on (band_id, band_key, SALT) — a hot bucket's
           sub-buckets land on DIFFERENT reducers
  pairs:   one vectorized block per partition segments its sub-buckets
           (lexsort + boundary scan), verifies the regular ones in place
           and emits a spanning forest of their near-dup pairs, not
           every pair (see below)

Skew (vendored/boilerplate code — the north rule's explicit case):
buckets are Zipf-skewed, and pair-gen is quadratic in bucket size. Two
passes make the salting explicit and bounded:

  pass 1: SAMPLED partial bucket counts (1/HOT_SAMPLE_K of rows) ->
          small groupby-sum -> keys estimated over bucket_cap become
          the HOT set {key: n_sub}, broadcast once via ray.put.
          Mega-buckets are found w.h.p.; a marginal miss is harmless
          (the pair-gen block windows any over-cap sub-bucket).
  pass 2: explode with salt = hash(file_id) % n_sub for hot keys.

Each salted sub-bucket emits its pairs plus ONE representative row
(min file_id); representatives of the same original bucket are
all-paired by a second, tiny shuffle on (band_id, band_key) —
preserving cluster connectivity across sub-buckets while no reducer
holds more than ~cap rows of one bucket. Note that exact-copy and
reformat-twin skew never reaches this stage at all: signature-identical
rows are collapsed to one representative upstream
(stages/verify.signature_representatives).

Verification inside the bucket: a near-dup family of k members
collides in most of the b bands, so banding alone emits ~b * k^2 / 2
pairs for connected components that need k - 1 edges (on the benchmark's
``vendored`` input, 275k candidate pairs for 2.3k duplicates).
``_pairs_block`` therefore scores each regular sub-bucket where it is
formed, with ``verify``'s est-Jaccard and thresholds, and emits only the
near-dup pairs that join two components of its partition (one
vectorized union-find, ``cc.spanning_forest``) plus each reject that
clears ``verify.CONTAINMENT_EST_JACCARD_MIN``, so a containment band's
evidence about that pair still reaches the dedup shuffle. A pair is
left out only when verified edges already join its ends, or when it is
a reject that can never become an edge, so the components, and with
them the clusters and actions, are those of every candidate pair; on
``vendored`` the pairs fall ~25x. Which forest edges a partition emits
depends on which sub-buckets share it, so the ``pairs`` rows (not the
clusters) can differ with ``num_partitions``. The signatures reach the
reducers as the representatives' per-part broadcast
(``verify.pack_signatures``, which ``verify_pairs`` then scores against
too) plus a small fid64-sorted (part, row) index; past
``broadcast_max_bytes`` there is no broadcast and every sub-bucket
emits all of its candidate pairs, as before the check. A sub-bucket
holding a fid64 that two representatives share keeps every pair, so
pair resolution still expands the collision. ``verify_pairs``
re-scores the emitted pairs and stays the one source of verdicts.

Band rows and every pair shuffle run on the 8-byte ``fid64`` key; the
final pair set resolves back to file_ids with one two-key inner
``functions/joins.broadcast_join`` on it (``_resolve_pairs``), whose
many-to-many match expands a 64-bit collision to all member ids.

Containment candidates (for the suffix-array substring pass) ride the
same machinery as r=``CONTAINMENT_ROWS`` bands over the first
``CONTAINMENT_PERMS`` permutation values: if file A is contained in
file B, each perm's min over B's shingles equals A's with probability
|A|/|B∪A| = J, so a band of r perms collides with probability J^r.
r=2 trades the lowest-J reach for ~J-fold suppression of
shared-boilerplate noise; hot containment buckets are additionally
dropped outright (df-pruning), a pair seen only by containment bands
must hit ``CONTAINMENT_MIN_BAND_HITS`` of them, and candidates must
clear ``verify.CONTAINMENT_EST_JACCARD_MIN`` in verification before
the content-joining substring pass. Reach: with 16 r=2 bands a pair at
J=0.15 collides in two bands w.p. only ~0.6% (per-band hit ~J^2), so
containment is reliably surfaced from J >~ 0.4-0.5 downward-tapering;
tiny-in-huge containment below that is out of signature reach by
construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..config import DedupConfig
from ..functions.groups import (csr_expand, group_starts, map_blocks,
                               partitioned_group_map, partitioned_sum,
                               tables_of)

_BAND_MULT = np.uint64(0x9E3779B97F4A7C15)
CONTAINMENT_BAND_BASE = 1000  # band_ids >= this are containment bands
# containment bands: the first CONTAINMENT_PERMS perms in bands of
# CONTAINMENT_ROWS rows (16 bands)
CONTAINMENT_PERMS = 32
CONTAINMENT_ROWS = 2
# a pair seen only by containment bands must agree in this many (noise
# hits one band w.p. ~16*J^2, two w.p. ~120*J^4: a 50x gate at J~0.05)
CONTAINMENT_MIN_BAND_HITS = 2
# the hot-bucket counting pass samples 1/HOT_SAMPLE_K of the rows
HOT_SAMPLE_K = 16


def _combo(band_id: np.ndarray, band_key_i64: np.ndarray) -> np.ndarray:
    """uint64 merge of (band_id, band_key) used for hot-key lookups."""
    return (band_id.astype(np.uint64) * _BAND_MULT) ^ \
        band_key_i64.astype(np.int64).view(np.uint64)


def _sig_matrix(batch: pa.Table, num_perms: int) -> np.ndarray:
    from .verify import _sig_of
    return _sig_of(batch["minhash"], num_perms)


def _band_keys(sigs: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """(n, bands) uint64 rolling hash over each band's r values."""
    n = sigs.shape[0]
    s = sigs.reshape(n, bands, rows)
    bk = s[:, :, 0].copy()
    for i in range(1, rows):
        bk *= _BAND_MULT
        bk += s[:, :, i]
    # mix in band index so identical value-tuples in different bands differ
    bk += np.arange(bands, dtype=np.uint64)[None, :] * _BAND_MULT
    return bk


def _salt_for(file_ids, n_sub: np.ndarray) -> np.ndarray:
    """Deterministic salt = (low 8 hex chars of file_id) % n_sub,
    vectorized over the fixed-width hex id bytes (no per-row int())."""
    arr = np.asarray(file_ids, dtype="S32")
    view = arr.view(np.uint8).reshape(len(arr), -1)[:, -8:]
    d = view.astype(np.uint64)
    d = np.where(d >= 97, d - 87, np.where(d >= 65, d - 55,
                 np.where(d >= 48, d - 48, np.uint64(0))))
    base = np.zeros(len(arr), dtype=np.uint64)
    for i in range(8):  # 8 fixed iterations, each full-vector
        base = base * np.uint64(16) + d[:, i]
    return (base % np.maximum(n_sub.astype(np.uint64), 1)).astype(np.int32)


def fid64(file_ids) -> np.ndarray:
    """uint64 view of the FIRST 16 hex chars of each file_id.

    Band rows and pair-gen run on this 8-byte key instead of the
    32-char id string: ~55% less shuffle volume and int64 lexsorts
    instead of Python-object compares. 64 bits birthday-collide at
    ~10^10 ids, so pair RESOLUTION back to file_ids expands colliding
    keys to all their members (see candidate_pairs) — a collision can
    only add candidate pairs (verification rejects the junk), never
    drop one."""
    arr = np.asarray(file_ids, dtype="S32")
    view = arr.view(np.uint8).reshape(len(arr), -1)[:, :16]
    d = view.astype(np.uint64)
    d = np.where(d >= 97, d - 87, np.where(d >= 65, d - 55,
                 np.where(d >= 48, d - 48, np.uint64(0))))
    base = np.zeros(len(arr), dtype=np.uint64)
    for i in range(16):
        base = base * np.uint64(16) + d[:, i]
    return base


class ExplodeBands:
    """Row prep of the pair-gen shuffle: signature rows -> (band_id,
    band_key, salt, n_sub, fid, simhash) rows. ``hot_ref`` is the
    hot-bucket table from the counting pass (empty on the counting pass
    itself): a PRE-SORTED (combo uint64 array, n_sub int64 array) pair,
    fetched once on the driver when the instance is built, so the
    searchsorted lookup tables ship with the function as numpy arrays
    (never a ray.put dict, which is stored pickled and re-unpickled by
    every task)."""

    def __init__(self, config: DedupConfig, hot_ref=None):
        if config.num_perms < CONTAINMENT_PERMS:
            raise ValueError(f"num_perms ({config.num_perms}) < "
                             f"CONTAINMENT_PERMS ({CONTAINMENT_PERMS})")
        self.cfg = config
        if hot_ref is not None:
            self._hot_combos, self._hot_nsub = ray.get(hot_ref)
        else:
            self._hot_combos = np.empty(0, dtype=np.uint64)
            self._hot_nsub = np.empty(0, dtype=np.int64)

    @property
    def bands(self) -> int:
        """Band rows per signature row: the regular and containment
        bands."""
        return self.cfg.lsh_bands + CONTAINMENT_PERMS // CONTAINMENT_ROWS

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        mask = pa.compute.not_equal(batch["sig_kind"], "empty")
        batch = batch.filter(mask)
        n = batch.num_rows
        if n == 0:
            return pa.table({"band_id": pa.array([], pa.int32()),
                             "band_key": pa.array([], pa.int64()),
                             "salt": pa.array([], pa.int32()),
                             "n_sub": pa.array([], pa.int32()),
                             "fid": pa.array([], pa.int64()),
                             "simhash": pa.array([], pa.int64())})
        sigs = _sig_matrix(batch, cfg.num_perms)
        f64 = fid64(batch["file_id"].to_pylist())
        simhash = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.int64)

        bk = _band_keys(sigs, cfg.lsh_bands, cfg.lsh_rows)          # (n, b)
        ncb = CONTAINMENT_PERMS // CONTAINMENT_ROWS
        cb = _band_keys(sigs[:, :CONTAINMENT_PERMS].copy(), ncb,
                        CONTAINMENT_ROWS)                            # (n, ncb)
        bid = np.concatenate([
            np.repeat(np.arange(cfg.lsh_bands, dtype=np.int32)[None, :], n, axis=0),
            np.repeat((CONTAINMENT_BAND_BASE
                       + np.arange(ncb, dtype=np.int32))[None, :], n, axis=0)],
            axis=1)                                                  # (n, B)
        bkey = np.concatenate([bk, cb], axis=1)
        B = bid.shape[1]
        flat_bid = bid.reshape(-1)
        flat_bkey = bkey.reshape(-1)
        flat_fid = np.repeat(f64, B)                                 # uint64
        flat_sim = np.repeat(simhash, B)

        n_sub = np.ones(len(flat_bid), dtype=np.int64)
        if len(self._hot_combos):
            with np.errstate(over="ignore"):
                combos = _combo(flat_bid, flat_bkey.view(np.int64))
            pos = np.searchsorted(self._hot_combos, combos)
            pos[pos >= len(self._hot_combos)] = 0
            hit = self._hot_combos[pos] == combos
            n_sub[hit] = self._hot_nsub[pos[hit]]
            salt = (flat_fid % np.maximum(n_sub.astype(np.uint64), 1)) \
                .astype(np.int32)
        else:
            salt = np.zeros(len(flat_bid), dtype=np.int32)

        # int64 bit-views: Ray's aggregate shuffle mishandles uint64
        return pa.table({"band_id": pa.array(flat_bid),
                         "band_key": pa.array(flat_bkey.view(np.int64)),
                         "salt": pa.array(salt),
                         "n_sub": pa.array(n_sub.astype(np.int32)),
                         "fid": pa.array(flat_fid.view(np.int64)),
                         "simhash": pa.array(flat_sim.view(np.int64))})


class PartialBucketCounts:
    """Counting pass: per-batch partial counts (combiner) so the
    groupby-sum shuffles one row per distinct key per batch, not one row
    per (file, band)."""

    def __init__(self, config: DedupConfig):
        self.explode = ExplodeBands(config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = self.explode(batch)
        bid = t["band_id"].to_numpy(zero_copy_only=False)
        bkey = t["band_key"].to_numpy(zero_copy_only=False).astype(np.int64)
        combo = bkey.view(np.uint64) ^ (bid.astype(np.uint64) * _BAND_MULT)
        uniq, inv, counts = np.unique(combo, return_inverse=True, return_counts=True)
        first = np.full(len(uniq), -1, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(inv) - 1, -1, -1)
        return pa.table({"band_id": pa.array(bid[first]),
                         "band_key": pa.array(bkey[first]),
                         "partial": pa.array(counts.astype(np.int64))})


def find_hot_buckets(sigs: ray.data.Dataset, cfg: DedupConfig):
    """Pass 1: returns a ray.put ObjectRef of the hot-bucket table —
    a pre-sorted (combo uint64 array, n_sub int64 array) pair for
    buckets whose total count exceeds bucket_cap (numpy broadcasts
    zero-copy through plasma; a dict would re-unpickle per worker).

    Counts on a deterministic 1/HOT_SAMPLE_K row sample (hash(file_id)
    selector): mega-buckets — the ones salting exists for — are found
    w.h.p., and a marginally-hot bucket that slips through is harmless
    because the pair-gen block windows any over-cap sub-bucket anyway.
    This keeps the counting shuffle at 1/HOT_SAMPLE_K of the band volume."""
    k = HOT_SAMPLE_K
    threshold = max(2.0, cfg.bucket_cap / k)

    partial = PartialBucketCounts(cfg)

    def sample_counts(t: pa.Table) -> pa.Table:
        # vectorized deterministic selector (same fixed-width hex trick
        # as _salt_for) — no per-row int(f[-4:], 16)
        sel = _salt_for(t["file_id"].to_pylist(),
                        np.full(t.num_rows, k, dtype=np.int64))
        return partial(t.filter(pa.array(sel == 0)))

    # partitioned vectorized sum — Ray's native groupby().sum() is a
    # full sort-based shuffle, ~10x slower on this narrow key shape.
    # Sampling and partial counts run in the shuffle's map tasks
    counts = partitioned_sum(
        sigs, ["band_id", "band_key"], "partial", cfg.num_partitions,
        out_schema=pa.schema([("band_id", pa.int32()),
                              ("band_key", pa.int64()),
                              ("sum(partial)", pa.int64())]),
        pre=sample_counts)
    bids, bkeys, nsubs = [], [], []
    for b in tables_of(counts):
        # the hot threshold, on the driver: the counts are one row per
        # sampled bucket
        b = b.filter(pa.compute.greater(b["sum(partial)"], threshold))
        if b.num_rows == 0:
            continue
        bids.append(b["band_id"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))
        bkeys.append(b["band_key"].to_numpy(zero_copy_only=False)
                     .astype(np.int64))
        est = b["sum(partial)"].to_numpy(zero_copy_only=False) * k
        nsubs.append(np.ceil(est / cfg.bucket_cap).astype(np.int64))
    if bids:
        with np.errstate(over="ignore"):
            combos = _combo(np.concatenate(bids), np.concatenate(bkeys))
        nsub = np.concatenate(nsubs)
        order = np.argsort(combos)
        return ray.put((combos[order], nsub[order]))
    return ray.put((np.empty(0, dtype=np.uint64),
                    np.empty(0, dtype=np.int64)))


_RAW_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                         ("is_cont", pa.int8()), ("band_id", pa.int32()),
                         ("band_key", pa.int64()), ("kind", pa.string())])


def _pairs_block(t: pa.Table, cfg: DedupConfig,
                 sig_index=None) -> pa.Table:
    """Pair-gen for one hash partition of band rows, partitioned on
    (band_id, band_key, SALT): a hot bucket's salt sub-buckets land on
    DIFFERENT reducers, so no reducer ever holds more than ~cap rows of
    one bucket — the actual point of salting. Each salted regular
    sub-bucket emits one representative row (kind='rep', its min fid)
    that a tiny second shuffle links across sub-buckets.

    A sub-bucket's candidate pairs are all its pairs up to
    ``bucket_cap`` members, else the pairs (k, k+w), w <= ``salt_window``,
    along the (simhash, fid) order. Containment sub-buckets (salted ones are
    dropped), regular ones that hold a collided fid64 and, without
    ``sig_index``, every sub-bucket emit every candidate pair. Every
    other regular sub-bucket is verified here, with ``verify``'s
    est-Jaccard and thresholds, and emits only:

      - the near-dup pairs that join two components of the partition's
        near-dup graph (a spanning forest, one union-find over all of
        the partition's accepted pairs), and
      - each rejected pair at est-Jaccard >= CONTAINMENT_EST_JACCARD_MIN
        (``is_cont`` 0), which a containment band may still route to
        the substring pass.

    Scoring is vectorized over the partition: every member against its
    sub-bucket's first row (the star), then each member that failed the
    star against every other member (passed members are already joined
    through the first row); over-cap sub-buckets score their window
    pairs. A pair goes unscored only when the star already joined its
    ends, and a reject below the floor can never become an edge, so
    connected components over the emitted pairs equal those over every
    candidate pair. ``verify_pairs`` still re-scores the emitted pairs.

    ``sig_index`` is ``(ids, part_of, row_of, collided, parts)``: every
    representative's fid64, sorted, with the part and row of its
    signature among the matrices ``parts``, and the fid64s that more
    than one representative shares (``_fid_index``). Signature rows are
    gathered one scoring batch at a time, so a reducer holds its band
    rows plus ``SCORE_BATCH_ROWS`` pairs of signatures."""
    from .cc import spanning_forest
    from .verify import (CONTAINMENT_EST_JACCARD_MIN, SCORE_BATCH_ROWS,
                         est_jaccard, gather_rows)

    def col(name, dtype):
        return t[name].to_numpy(zero_copy_only=False).astype(dtype, copy=False)

    bid, bkey, salt = col("band_id", np.int32), col("band_key", np.int64), \
        col("salt", np.int32)
    n_sub, fid, sim = col("n_sub", np.int32), col("fid", np.int64), \
        col("simhash", np.int64)
    order = np.lexsort((fid, sim, salt, bkey, bid))
    bid, bkey, salt, n_sub, fid = (bid[order], bkey[order], salt[order],
                                   n_sub[order], fid[order])

    # sub-buckets: [lo, lo + size); per row its sub-bucket's first row
    # and end
    new = group_starts(bid, bkey, salt)
    lo = np.flatnonzero(new)
    size = np.diff(np.append(lo, len(bid)))
    sub = np.cumsum(new) - 1
    first, end = lo[sub], (lo + size)[sub]
    is_cont = bid[lo] >= CONTAINMENT_BAND_BASE
    salted = n_sub[lo] > 1
    # df-pruning: a containment bucket that went hot means its band
    # value is boilerplate shared by many files — zero containment
    # signal, quadratic noise. Drop it (regular bands keep salting:
    # they are the near-dup path)
    dropped = is_cont & salted
    if sig_index is None:
        checked = np.zeros(len(lo), dtype=bool)
    else:
        ids, part_of, row_of, collided, parts = sig_index
        has_collided = np.logical_or.reduceat(
            np.isin(fid.view(np.uint64), collided), lo)
        checked = ~is_cont & ~has_collided & (size >= 2)

    # each row's partners: the rest of its sub-bucket, or the next
    # ``window`` rows of an over-cap one
    row = np.arange(len(bid))
    over = (size > cfg.bucket_cap)[sub]
    stop = np.where(over, np.minimum(row + 1 + cfg.salt_window, end), end)

    # unchecked sub-buckets: every candidate pair
    ex = np.flatnonzero(~(dropped | checked)[sub])
    ex_i, ex_j = csr_expand(ex + 1, stop[ex])
    ex_i = ex[ex_i]

    # checked rows: the index entry of each one's signature
    vrows = np.flatnonzero(checked[sub])
    entry = np.full(len(bid), -1, dtype=np.int64)
    if len(vrows):
        entry[vrows] = np.searchsorted(ids, fid[vrows].view(np.uint64))

    def score(i, j):
        out = np.empty(len(i), dtype=np.float64)
        for s in range(0, len(i), SCORE_BATCH_ROWS):
            e = s + SCORE_BATCH_ROWS
            out[s:e] = est_jaccard(
                gather_rows(parts, part_of, row_of, entry[i[s:e]],
                            cfg.num_perms),
                gather_rows(parts, part_of, row_of, entry[j[s:e]],
                            cfg.num_perms))
        return out

    small = vrows[~over[vrows]]
    # star: every member against its sub-bucket's first row
    st_j = small[small != first[small]]
    st_i = first[st_j]
    st_jac = score(st_i, st_j)
    joined = np.zeros(len(bid), dtype=bool)
    joined[st_j[st_jac >= cfg.jaccard_threshold]] = True
    # residual: a member that failed the star against every other
    # non-first member (a pair of two failed members once)
    failed = st_j[st_jac < cfg.jaccard_threshold]
    k, rs_j = csr_expand(first[failed] + 1, end[failed])
    rs_i = failed[k]
    keep = (rs_j != rs_i) & (joined[rs_j] | (rs_j > rs_i))
    rs_i, rs_j = rs_i[keep], rs_j[keep]
    # over-cap sub-buckets: their window pairs
    big = vrows[over[vrows]]
    k, wn_j = csr_expand(big + 1, stop[big])
    wn_i = big[k]

    pi = np.concatenate([st_i, rs_i, wn_i])
    pj = np.concatenate([st_j, rs_j, wn_j])
    jac = np.concatenate([st_jac, score(rs_i, rs_j), score(wn_i, wn_j)])
    near = jac >= cfg.jaccard_threshold
    ni, nj = pi[near], pj[near]
    nodes, inv = np.unique(np.concatenate([fid[ni], fid[nj]]),
                           return_inverse=True)
    tree = spanning_forest(inv[:len(ni)], inv[len(ni):], len(nodes))
    floor = ~near & (jac >= CONTAINMENT_EST_JACCARD_MIN)

    ca = np.concatenate([fid[ex_i], fid[ni[tree]], fid[pi[floor]]])
    cb = np.concatenate([fid[ex_j], fid[nj[tree]], fid[pj[floor]]])
    cc = np.concatenate([is_cont[sub[ex_i]].astype(np.int8),
                         np.zeros(len(ca) - len(ex_i), dtype=np.int8)])
    reps = np.flatnonzero(salted & ~is_cont)
    n_c, n_r = len(ca), len(reps)
    return pa.table({
        "a": pa.array(np.concatenate([np.minimum(ca, cb),
                                      np.minimum.reduceat(fid, lo)[reps]])),
        "b": pa.array(np.concatenate([np.maximum(ca, cb),
                                      np.zeros(n_r, dtype=np.int64)])),
        "is_cont": pa.array(np.concatenate([cc,
                                            np.zeros(n_r, dtype=np.int8)])),
        "band_id": pa.array(np.concatenate([np.full(n_c, -1, np.int32),
                                            bid[lo][reps]])),
        "band_key": pa.array(np.concatenate([np.zeros(n_c, np.int64),
                                             bkey[lo][reps]])),
        "kind": pa.concat_arrays([pa.repeat("cand", n_c),
                                  pa.repeat("rep", n_r)])}, schema=_RAW_SCHEMA)


_PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                          ("is_cont", pa.int8())])


def _link_reps_block(t: pa.Table) -> pa.Table:
    """Second (tiny) shuffle: all-pair the distinct sub-bucket
    representatives (``a``) of each hot bucket (band_id, band_key),
    each pair carrying the is_cont of the bucket's first row in (a)
    order, so salting never disconnects a component. Pairs come out
    bucket by bucket, (i, j) for i < j in rep order."""
    bid, bkey, rep, cont = (t[c].to_numpy(zero_copy_only=False) for c in
                            ("band_id", "band_key", "a", "is_cont"))
    order = np.lexsort((rep, bkey, bid))
    # one row per distinct (bucket, rep): the first in the stable order
    keep = order[group_starts(bid[order], bkey[order], rep[order])]
    bid, bkey, rep, cont = bid[keep], bkey[keep], rep[keep], cont[keep]
    new = group_starts(bid, bkey)
    lo = np.flatnonzero(new)
    sub = np.cumsum(new) - 1
    end = np.append(lo[1:], len(rep))[sub]
    i, j = csr_expand(np.arange(1, len(rep) + 1), end)
    return pa.table({"a": rep[i], "b": rep[j], "is_cont": cont[lo[sub[i]]]},
                    schema=_PAIR_SCHEMA)


def _dedup_pairs_block(t: pa.Table) -> pa.Table:
    """Distinct (a, b) of one partition, in (a, b) order, with is_cont
    the max over its rows. A pair whose every row has is_cont 1 (seen
    only by containment bands) is kept only when it has at least
    ``CONTAINMENT_MIN_BAND_HITS`` rows."""
    a, b, c = (t[n].to_numpy(zero_copy_only=False)
               for n in ("a", "b", "is_cont"))
    order = np.lexsort((c, b, a))
    a, b, c = a[order], b[order], c[order]
    first = group_starts(a, b)
    starts = np.flatnonzero(first)
    last = np.append(starts[1:], len(a)) - 1    # max is_cont (sort asc)
    counts = np.diff(np.append(starts, len(a)))
    cont_only = c[first] == 1        # min is_cont (sort asc) == 1
    keep = last[~cont_only | (counts >= CONTAINMENT_MIN_BAND_HITS)]
    return pa.table({"a": a[keep], "b": b[keep], "is_cont": c[keep]},
                    schema=_PAIR_SCHEMA)


@ray.remote
def _fid_index(*id_parts):
    """The in-bucket check's index into the packed representatives
    (``verify.pack_signatures``): their fid64s, sorted, with the part
    and row of each signature, and the fid64s that more than one of
    them shares (their sub-buckets keep every pair, so pair resolution
    still expands the collision). ~20 B per representative."""
    sizes = [len(x) for x in id_parts]
    ids = np.concatenate([np.empty(0, dtype=np.uint64)] + [
        fid64(x) for x in id_parts if len(x)])
    part_of = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    row_of = np.concatenate([np.empty(0, dtype=np.int32)] + [
        np.arange(n, dtype=np.int32) for n in sizes])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    collided = np.unique(ids[1:][ids[1:] == ids[:-1]])
    return ids, part_of[order], row_of[order], collided


def candidate_pairs(sigs: ray.data.Dataset, cfg: DedupConfig,
                    packed=None) -> ray.data.Dataset:
    """Full LSH candidate generation: counting pass, salted explode,
    partition-block pair-gen with the in-bucket check (reducers bounded
    by salt), representative linking (tiny second shuffle), pair dedup,
    then fid64 -> file_id resolution (the band rows and every pair
    shuffle run on 8-byte keys; only the final, small pair set touches
    id strings again). ``sigs`` is materialized (the representatives);
    ``packed`` is their ``verify.pack_signatures`` broadcast, built here
    when not given (None again past ``broadcast_max_bytes``: the check
    is then skipped).

    Returns distinct pairs (a, b, is_cont) with a < b; ``is_cont`` is
    the max over generating bands, so a pair seen only by containment
    bands is routed to the substring pass if Jaccard rejects it."""
    import pyarrow.compute as pc

    from .verify import pack_signatures

    cfg = cfg.resolved()
    hot_ref = find_hot_buckets(sigs, cfg)

    if packed is None:
        packed = pack_signatures(sigs, cfg)
    if packed is None:
        def pairs(t: pa.Table) -> pa.Table:
            return _pairs_block(t, cfg)
    else:
        id_refs, mat_refs = packed
        index_ref = _fid_index.remote(*id_refs)

        def pairs(t: pa.Table) -> pa.Table:
            return _pairs_block(t, cfg,
                                (*ray.get(index_ref), ray.get(mat_refs)))

    # the band explode runs in the shuffle's map tasks, which are sized
    # by the band rows it makes; the output is materialized, so the cand
    # and rep reads below both take its blocks
    explode = ExplodeBands(cfg, hot_ref)
    raw = partitioned_group_map(
        sigs, ["band_id", "band_key", "salt"], pairs, cfg.num_partitions,
        out_schema=_RAW_SCHEMA, pre=explode, pre_rows=explode.bands)

    def kind_rows(kind: str, cols: list[str]):
        return lambda t: t.filter(pc.equal(t["kind"], kind)).select(cols)

    rep_pairs = partitioned_group_map(
        raw, ["band_id", "band_key"], _link_reps_block,
        cfg.num_partitions, out_schema=_PAIR_SCHEMA,
        pre=kind_rows("rep", ["a", "is_cont", "band_id", "band_key"]))

    # distinct on (a, b); is_cont = max => ANY containment-band evidence
    # routes a Jaccard-rejected pair to the substring pass. Partitioned
    # block dedup (sort + segment scan) — measurably faster than the
    # generic sort-based aggregate on string pair keys. Pairs seen ONLY
    # by containment bands must agree in >= CONTAINMENT_MIN_BAND_HITS
    # bands: at band collision prob J^r a real containment pair (J >=
    # ~0.5) hits many bands, while a boilerplate-noise pair almost never
    # hits twice — the cheap pre-verify noise gate (_dedup_pairs_block).

    # the union of cand rows and rep-link pairs: two shuffle inputs
    deduped = partitioned_group_map(
        [raw, rep_pairs], ["a", "b"], _dedup_pairs_block,
        cfg.num_partitions, out_schema=_PAIR_SCHEMA,
        pre=[kind_rows("cand", ["a", "b", "is_cont"]), None])
    return _resolve_pairs(deduped, sigs, cfg)


_ID_MAP_SCHEMA = pa.schema([("k", pa.int64()), ("f", pa.string())])


def _id_map_block(t: pa.Table) -> pa.Table:
    """fid64 -> file_id rows of one signature block."""
    from ..functions.arrow_utils import fixed_str_view

    ids = t["file_id"].combine_chunks()
    return pa.table({"k": pa.array(fid64(fixed_str_view(ids, 32))
                                   .view(np.int64)), "f": ids},
                    schema=_ID_MAP_SCHEMA)


def _resolve_pairs(pairs64: ray.data.Dataset, sigs: ray.data.Dataset,
                   cfg: DedupConfig) -> ray.data.Dataset:
    """fid64 pairs -> file_id pairs: one two-key inner join on the int64
    fid64 key (functions/joins.broadcast_join on ``("a", "b")``, which
    names the endpoints' ids ``f_a`` and ``f_b``). A 64-bit COLLISION
    (two file_ids sharing a fid64 — expected only in the 10^10+ regime)
    expands by construction: the many-to-many join resolves a colliding
    endpoint to ALL its member ids, so a collision can only add
    candidate pairs for verification to reject, never lose a true pair.
    Self-pairs from a collision are dropped and each pair is ordered
    a < b. Over a materialized ``sigs`` and ``pairs64`` the id map, the
    join and its ``post`` run as plain tasks, and below the byte cap the
    id map is collected and put once."""
    import pyarrow.compute as pc

    from ..functions.joins import broadcast_join

    id_map = map_blocks(sigs, _id_map_block, _ID_MAP_SCHEMA)

    def fin(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["f_a"], t["f_b"]))
        return pa.table({"a": pc.min_element_wise(t["f_a"], t["f_b"]),
                         "b": pc.max_element_wise(t["f_a"], t["f_b"]),
                         "is_cont": t["is_cont"]})

    return broadcast_join(pairs64, id_map, ("a", "b"), "k", "inner",
                          cfg.broadcast_max_bytes, cfg.num_partitions,
                          post=fin)
