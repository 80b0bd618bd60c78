"""Differential tests of the scan's numeric kernels (no Ray).

Each vectorized kernel on the scan path is checked against a plain
Python reference that follows its docstring literally: Python ints
masked to 64 bits instead of numpy uint64 wraparound, sorting instead
of prefix doubling, a union-find instead of vectorized hooking, ``in``
instead of a suffix-array search, ``sorted()`` and dicts instead of a
shuffle block function's Arrow sort and segment scan. The cases are a
grid over the shapes that pick different code paths (short input vs k,
one chunk vs many, empty, hot keys, degenerate graphs), or random rows
drawn from few values, so keys repeat and sorts tie.
"""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa
import pytest

from image_deduper_ray.config import DedupConfig
from image_deduper_ray.functions import hashing, minhash as mh
from image_deduper_ray.functions.groups import csr_expand, group_starts
from image_deduper_ray.stages import lsh, verify
from image_deduper_ray.stages.cc import spanning_forest
from image_deduper_ray.stages.substring import ContainmentVerify, suffix_array

MASK = 2**64 - 1


def _u64(rng: random.Random, n: int) -> list[int]:
    return [rng.getrandbits(64) for _ in range(n)]


# --- shingle hashes -------------------------------------------------------

def _ref_shingles(th: list[int], k: int) -> list[int]:
    mult = int(hashing.SHINGLE_MULT)
    if not th:
        return []
    windows = [th] if len(th) < k else \
        [th[i:i + k] for i in range(len(th) - k + 1)]
    out = set()
    for w in windows:
        h = w[0]
        for t in w[1:]:
            h = (h * mult + t) & MASK
        out.add(h)
    return sorted(out)


@pytest.mark.parametrize("n", [0, 1, 3, 5, 9, 64])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_shingle_hashes_match_scalar_rolling_hash(k, n):
    rng = random.Random(1000 * k + n)
    # a small vocabulary so windows repeat and the unique step matters
    vocab = _u64(rng, 4)
    th = [rng.choice(vocab) for _ in range(n)]
    got = hashing.shingle_hashes(np.array(th, dtype=np.uint64), k)
    assert got.dtype == np.uint64
    assert sorted(got.tolist()) == _ref_shingles(th, k)
    if n >= k:
        assert got.tolist() == sorted(got.tolist())


# --- MinHash --------------------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 7, 65536])
@pytest.mark.parametrize("n_shingles", [0, 1, 2, 100])
@pytest.mark.parametrize("num_perms", [1, 8, 128])
def test_minhash_signature_matches_scalar_min(num_perms, n_shingles, chunk):
    a, b = mh.make_perms(num_perms, 31 + num_perms)
    assert (a % np.uint64(2) == 1).all()
    sh = _u64(random.Random(n_shingles * 7 + chunk), n_shingles)
    got = mh.minhash_signature(np.array(sh, dtype=np.uint64), a, b,
                               chunk=chunk)
    want = [min(((int(ap) * h + int(bp)) & MASK for h in sh), default=MASK)
            for ap, bp in zip(a, b)]
    assert got.tolist() == want


@pytest.mark.parametrize("agree", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("num_perms", [1, 4, 128])
def test_matrix_est_jaccard_matches_rowwise(num_perms, agree):
    rng = np.random.default_rng(num_perms)
    sa = rng.integers(0, 2**63, size=(6, num_perms), dtype=np.uint64)
    sb = sa.copy()
    flip = rng.random((6, num_perms)) >= agree
    sb[flip] += np.uint64(1)
    got = verify.est_jaccard(sa, sb)
    want = [mh.est_jaccard(x, y) for x, y in zip(sa, sb)]
    assert got.tolist() == want
    if agree in (0.0, 1.0):
        assert set(got.tolist()) == {agree}


# --- LSH band keys and fid64 keys ----------------------------------------

@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("bands,rows", [(1, 1), (1, 4), (4, 1), (32, 4),
                                        (16, 8), (16, 2), (64, 2)])
def test_band_keys_match_scalar_rolling_hash(bands, rows, n):
    mult = int(lsh._BAND_MULT)
    rng = random.Random(bands * 100 + rows * 10 + n)
    sigs = [_u64(rng, bands * rows) for _ in range(n)]
    got = lsh._band_keys(np.array(sigs, dtype=np.uint64), bands, rows)
    assert got.shape == (n, bands)
    for i, s in enumerate(sigs):
        for j in range(bands):
            h = s[j * rows]
            for v in s[j * rows + 1:(j + 1) * rows]:
                h = (h * mult + v) & MASK
            assert int(got[i, j]) == (h + j * mult) & MASK, (i, j)


def test_band_keys_tell_equal_bands_apart_by_index():
    # the same r values in two bands must land in two buckets
    sig = np.array([[5, 6, 5, 6]], dtype=np.uint64)
    bk = lsh._band_keys(sig, 2, 2)
    assert bk[0, 0] != bk[0, 1]


def _file_ids(seed: int, n: int = 12) -> list[str]:
    rng = random.Random(seed)
    return hashing.file_ids([f"org/r{rng.randrange(99)}" for _ in range(n)],
                            [f"src/f{i}.py" for i in range(n)],
                            [f"{rng.getrandbits(40):x}" for _ in range(n)])


@pytest.mark.parametrize("case", ["lower", "upper"])
@pytest.mark.parametrize("seed", range(5))
def test_fid64_is_the_first_16_hex_digits(seed, case):
    ids = _file_ids(seed)
    if case == "upper":
        ids = [f.upper() for f in ids]
    got = lsh.fid64(ids)
    assert got.dtype == np.uint64
    assert got.tolist() == [int(f[:16], 16) for f in ids]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n_sub", [0, 1, 2, 3, 64])
def test_salt_is_the_last_8_hex_digits_mod_n_sub(n_sub, seed):
    ids = _file_ids(seed)
    got = lsh._salt_for(ids, np.full(len(ids), n_sub))
    assert got.tolist() == [int(f[-8:], 16) % max(n_sub, 1) for f in ids]


# --- spanning forest ------------------------------------------------------

def _graph(shape: str, n: int, seed: int) -> tuple[list[int], list[int]]:
    rng = random.Random(seed)
    if shape == "empty":
        return [], []
    if shape == "path":
        return list(range(n - 1)), list(range(1, n))
    if shape == "reversed_path":
        return list(range(n - 1, 0, -1)), list(range(n - 2, -1, -1))
    if shape == "star":
        return [0] * (n - 1), list(range(1, n))
    if shape == "cycle":
        return list(range(n)), [(i + 1) % n for i in range(n)]
    if shape == "complete":
        pairs = [(i, j) for i in range(min(n, 30)) for j in range(i + 1, min(n, 30))]
        rng.shuffle(pairs)
        return [p[0] for p in pairs], [p[1] for p in pairs]
    if shape == "sparse_random":   # several components, repeated edges
        m = n // 2
    else:                          # "dense_random", with self-loops
        m = 3 * n
    u = [rng.randrange(n) for _ in range(m)]
    v = [rng.randrange(n) for _ in range(m)]
    return u + u[: m // 4], v + v[: m // 4]


def _ref_components(u, v, n) -> list[int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(u, v):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


@pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
@pytest.mark.parametrize("shape", ["empty", "path", "reversed_path", "star",
                                   "cycle", "complete", "sparse_random",
                                   "dense_random"])
def test_spanning_forest_matches_union_find(shape, n):
    u, v = _graph(shape, n, seed=n)
    ua, va = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    keep = spanning_forest(ua, va, n)
    assert keep.dtype == bool and len(keep) == len(u)
    comps = _ref_components(u, v, n)
    kept_u, kept_v = ua[keep].tolist(), va[keep].tolist()
    # the kept edges give the same components as all of them ...
    assert _ref_components(kept_u, kept_v, n) == comps
    # ... and each joins two components, so there is no cycle
    assert keep.sum() == n - len(set(comps))
    assert spanning_forest(ua, va, n).tolist() == keep.tolist()


# --- suffix array and containment ----------------------------------------

@pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
@pytest.mark.parametrize("alphabet", [1, 2, 4, 26])
def test_suffix_array_matches_sorted_suffixes(alphabet, n):
    rng = random.Random(alphabet * 1000 + n)
    s = [rng.randrange(alphabet) for _ in range(n)]
    got = suffix_array(np.array(s, dtype=np.int64))
    assert got.tolist() == sorted(range(n), key=lambda i: s[i:])


_ALPHABETS = {"ab": "ab", "code": "abc_ =()\n", "unicode": "aé中😀\n"}


def _docs(seed: int, alphabet: str) -> list[str]:
    """Random documents, some of them planted verbatim inside others,
    some exact copies (equal length: never a containment)."""
    rng = random.Random(seed)
    docs = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 40)))
            for _ in range(6)]
    for _ in range(3):
        small = rng.choice(docs)
        lo = rng.randrange(0, 12)
        docs.append(docs[rng.randrange(len(docs))][:lo] + small
                    + "".join(rng.choice(alphabet) for _ in range(lo)))
    docs.append(docs[0])
    rng.shuffle(docs)
    return docs


@pytest.mark.parametrize("min_len", [1, 4, 16])
@pytest.mark.parametrize("alphabet", sorted(_ALPHABETS))
@pytest.mark.parametrize("seed", range(4))
def test_containment_verify_matches_str_in(seed, alphabet, min_len):
    """``ContainmentVerify`` over every pair of the documents, with its
    suffix-array search forced for every host (``sa_min_needles=1``),
    keeps exactly the pairs whose shorter text (at least ``min_len``
    long) occurs inside the other."""
    docs = _docs(seed, _ALPHABETS[alphabet])
    ids = [f"d{i}" for i in range(len(docs))]
    pairs = [(i, j) for i in range(len(docs)) for j in range(i + 1, len(docs))]
    out = ContainmentVerify(min_len=min_len, sa_min_needles=1)(pa.table({
        "a": [ids[i] for i, _ in pairs], "b": [ids[j] for _, j in pairs],
        "content_a": [docs[i] for i, _ in pairs],
        "content_b": [docs[j] for _, j in pairs]}))
    got = list(zip(out["a"].to_pylist(), out["b"].to_pylist()))
    want = []
    for i, j in pairs:
        small, big = sorted((docs[i], docs[j]), key=len)
        if len(small) >= min_len and len(small) < len(big) and small in big:
            want.append((ids[i], ids[j]))
    assert sorted(got) == sorted(want)
    assert len(got) == len(set(got))


# --- grouping helpers -----------------------------------------------------

@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n", [0, 1, 10, 100])
@pytest.mark.parametrize("n_keys", [1, 2, 3])
def test_group_starts_matches_python(n_keys, n, seed):
    rng = np.random.default_rng(seed * 10 + n_keys)
    keys = [np.sort(rng.integers(0, 4, size=n))] + \
        [rng.integers(0, 3, size=n) for _ in range(n_keys - 1)]
    got = group_starts(*keys)
    want = [i == 0 or any(k[i] != k[i - 1] for k in keys) for i in range(n)]
    assert got.tolist() == want


@pytest.mark.parametrize("max_len", [0, 1, 4])
@pytest.mark.parametrize("n", [0, 1, 5, 50])
def test_csr_expand_matches_ranges(n, max_len):
    rng = np.random.default_rng(n * 10 + max_len)
    lo = rng.integers(0, 20, size=n)
    hi = lo + rng.integers(0, max_len + 1, size=n)
    rows, take = csr_expand(lo, hi)
    assert rows.tolist() == [i for i in range(n) for _ in range(lo[i], hi[i])]
    assert take.tolist() == [x for i in range(n) for x in range(lo[i], hi[i])]


# --- verification ---------------------------------------------------------

@pytest.mark.parametrize("layout", ["fixed", "fixed_sliced", "fixed_chunked",
                                    "empty"])
def test_sig_of_matches_unpacked_rows(layout):
    p = 4
    rng = np.random.default_rng(3)
    sigs = rng.integers(0, 2**63, size=(0 if layout == "empty" else 9, p),
                        dtype=np.uint64)
    rows = [s.tobytes() for s in sigs]
    want = sigs
    col = pa.array(rows, pa.binary(8 * p))
    if layout == "fixed_sliced":
        col, want = col.slice(2, 5), sigs[2:7]
    elif layout.endswith("chunked"):
        col = pa.chunked_array([col.slice(0, 4), col.slice(4)])
    got = verify._sig_of(col, p)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


_CONT_MIN = verify.CONTAINMENT_EST_JACCARD_MIN


def _ref_verdict(jac: float, is_cont: int, tau: float) -> str:
    if jac >= tau:
        return "near_dup"
    if is_cont == 1 and jac >= _CONT_MIN:
        return "containment_cand"
    return "reject"


@pytest.mark.parametrize("tau", [0.8, 0.5])
@pytest.mark.parametrize("is_cont", [0, 1])
@pytest.mark.parametrize("jac", [0.0, _CONT_MIN - 1 / 128, _CONT_MIN,
                                 0.5, 0.79, 0.8])
def test_verdict_rule(jac, is_cont, tau):
    batch = pa.table({"a": ["x"], "b": ["y"],
                      "is_cont": pa.array([is_cont], pa.int8())})
    out = verify._verdicts(batch, np.array([jac]),
                           DedupConfig(jaccard_threshold=tau))
    assert out.column_names == ["a", "b", "jaccard", "verdict"]
    assert out["jaccard"].to_pylist() == [jac]
    assert out["verdict"].to_pylist() == [_ref_verdict(jac, is_cont, tau)]


# --- shuffle block functions ----------------------------------------------
# each runs once per shuffle partition with at least one row

@pytest.mark.parametrize("seed", range(6))
def test_link_reps_pairs_every_two_distinct_reps_of_a_bucket(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    rows = [(rng.randrange(3), rng.randrange(-2, 2), rng.randrange(8),
             rng.randrange(2)) for _ in range(n)]     # bid, bkey, rep, cont
    t = pa.table({"a": pa.array([r[2] for r in rows], pa.int64()),
                  "is_cont": pa.array([r[3] for r in rows], pa.int8()),
                  "band_id": pa.array([r[0] for r in rows], pa.int32()),
                  "band_key": pa.array([r[1] for r in rows], pa.int64())})
    want = []
    for bucket in sorted({r[:2] for r in rows}):
        members = sorted((r for r in rows if r[:2] == bucket),
                         key=lambda r: r[2])        # stable
        reps = sorted({r[2] for r in members})
        want += [(x, y, members[0][3]) for i, x in enumerate(reps)
                 for y in reps[i + 1:]]
    got = lsh._link_reps_block(t)
    assert got.schema == lsh._PAIR_SCHEMA
    assert list(zip(*got.to_pydict().values())) == want


@pytest.mark.parametrize("seed", range(6))
def test_dedup_pairs_keeps_distinct_pairs_with_max_is_cont(seed):
    rng = random.Random(seed)
    rows = [(rng.randrange(5), rng.randrange(5), rng.randrange(2))
            for _ in range(rng.randrange(1, 60))]
    t = pa.table({"a": pa.array([r[0] for r in rows], pa.int64()),
                  "b": pa.array([r[1] for r in rows], pa.int64()),
                  "is_cont": pa.array([r[2] for r in rows], pa.int8())})
    seen: dict = {}
    for a, b, c in rows:
        seen.setdefault((a, b), []).append(c)
    want = [(a, b, max(cs)) for (a, b), cs in sorted(seen.items())
            if min(cs) == 0 or len(cs) >= lsh.CONTAINMENT_MIN_BAND_HITS]
    got = lsh._dedup_pairs_block(t)
    assert got.schema == lsh._PAIR_SCHEMA
    assert list(zip(*got.to_pydict().values())) == want


def _hex(rng: random.Random, n: int, width: int) -> list[str]:
    """``n`` hex ids of ``width`` chars from a small pool, so ids repeat."""
    pool = [f"{rng.getrandbits(4 * width):0{width}x}" for _ in range(4)]
    return [rng.choice(pool) for _ in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_exact_edges_link_each_sha_group_to_its_min_file_id(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    sha = _hex(rng, n, 64)
    fids = [f"{i:032x}" for i in rng.sample(range(1000), n)]
    kinds = [rng.choice(["ok", "ok", "fallback", "empty"]) for _ in range(n)]
    t = pa.table({"sha256": sha, "file_id": fids, "sig_kind": kinds})
    want = []
    for s in sorted(set(sha)):
        group = sorted(f for f, x, k in zip(fids, sha, kinds)
                       if x == s and k != "empty")
        want += [(group[0], f) for f in group[1:]]
    got = verify._exact_edges_block(t)
    assert got.schema == verify._EDGE_SCHEMA
    assert list(zip(got["a"].to_pylist(), got["b"].to_pylist())) == want


@pytest.mark.parametrize("order", [("-n_bytes", "repo", "path", "commit"),
                                   ("repo", "-path", "n_bytes")])
@pytest.mark.parametrize("seed", range(4))
def test_canonical_pick_matches_a_stable_sort(seed, order):
    from image_deduper_ray.stages import canonical

    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    cols = {"file_id": [f"f{i:02d}" for i in range(n)],
            "cluster_id": [rng.choice("xyz") for _ in range(n)],
            "repo": [rng.choice(["r1", "r2"]) for _ in range(n)],
            "path": [rng.choice(["a.py", "b.py", "c.py"]) for _ in range(n)],
            "commit": [rng.choice(["c0", "c1"]) for _ in range(n)],
            "n_bytes": [rng.randrange(3) for _ in range(n)]}
    rows = [dict(zip(cols, v)) for v in zip(*cols.values())]
    rng.shuffle(rows)
    t = pa.table({c: [r[c] for r in rows] for c in cols})
    # stable sorts from the last key to the first: a row keeps its input
    # place among rows equal on every key
    want = rows
    for spec in reversed(("cluster_id",) + order):
        want = sorted(want, key=lambda r: r[spec.lstrip("-")],
                      reverse=spec.startswith("-"))
    keep = {}
    for r in want:
        keep.setdefault(r["cluster_id"], r["file_id"])
    got = canonical._pick_block(t, canonical._sort_keys(
        DedupConfig(canonical_order=order)), "symlink")
    assert got.schema == canonical._ACTIONS_SCHEMA
    assert got.to_pylist() == [
        {"file_id": r["file_id"], "cluster_id": r["cluster_id"],
         "role": "keep" if keep[r["cluster_id"]] == r["file_id"] else "dup",
         "canonical_file_id": keep[r["cluster_id"]],
         "action": "none" if keep[r["cluster_id"]] == r["file_id"]
         else "symlink", "success": True} for r in want]


@pytest.mark.parametrize("node_type", ["string", "int64"])
@pytest.mark.parametrize("seed", range(6))
def test_label_propagation_round_matches_a_dict_min_label_step(seed,
                                                               node_type):
    from image_deduper_ray.stages import cc

    rng = random.Random(seed)
    typ, conv = (pa.string(), lambda i: f"n{i:02d}") \
        if node_type == "string" else (pa.int64(), int)
    nodes = [conv(i) for i in range(rng.randrange(2, 12))]
    labels = {v: rng.choice(nodes) for v in nodes if rng.random() < 0.8}
    edges = [(rng.choice(nodes), rng.choice(nodes))
             for _ in range(rng.randrange(0, 20))]
    # a seed round over the edge keys: each distinct key, its own label
    if edges:
        seed_out = cc._seed_block(pa.table({"key": pa.array(
            [k for k, _ in edges], typ)}))
        assert sorted(seed_out["key"].to_pylist()) == sorted({k for k, _ in edges})
        assert seed_out["label"].to_pylist() == seed_out["key"].to_pylist()
    t = pa.table({
        "key": pa.array(list(labels) + [k for k, _ in edges], typ),
        "label": pa.array(list(labels.values()) + [None] * len(edges), typ),
        "neigh": pa.array([None] * len(labels) + [v for _, v in edges], typ)})
    new: dict = {}
    for k, v in [(k, k) for k in labels] + edges:
        if k in labels:
            new[v] = min(new.get(v, labels[k]), labels[k])
    msgs = cc._messages_block(t)
    got = cc._min_label_block(msgs)
    assert got.column_names == ["key", "label", "changed"]
    assert got["key"].to_pylist() == sorted(new)
    assert dict(zip(got["key"].to_pylist(), got["label"].to_pylist())) == new
    assert got["changed"].to_pylist() == [
        int(k not in labels or labels[k] != new[k]) for k in sorted(new)]


@pytest.mark.parametrize("seed", range(4))
def test_relabel_gives_each_cluster_its_min_doc_id(seed):
    import __ray_entry__ as entry

    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    keys = [rng.choice(["c", "a", "b"]) for _ in range(n)]
    dids = rng.sample(range(100), n)
    t = pa.table({"doc_id": pa.array(dids, pa.int64()), "cluster_key": keys})
    got = entry._relabel_block(t)
    want = sorted(zip(keys, dids), key=lambda r: r[0])      # stable
    mins = {k: min(d for kk, d in want if kk == k) for k in keys}
    assert got.schema == entry._RELABELED
    assert list(zip(got["doc_id"].to_pylist(), got["cluster_id"].to_pylist())) \
        == [(d, mins[k]) for k, d in want]
