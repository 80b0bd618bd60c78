"""Differential tests of the scan's numeric kernels (no Ray).

Each vectorized kernel on the scan path is checked against a plain
Python reference that follows its docstring literally: Python ints
masked to 64 bits instead of numpy uint64 wraparound, sorting instead
of prefix doubling, a union-find instead of vectorized hooking, ``in``
instead of a suffix-array search. The cases are a grid over the shapes
that pick different code paths (short input vs k, one chunk vs many,
empty, hot keys, degenerate graphs).
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
from image_deduper_ray.stages.substring import find_containments, suffix_array

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
def test_find_containments_matches_str_in(seed, alphabet, min_len):
    docs = _docs(seed, _ALPHABETS[alphabet])
    ids = [f"d{i}" for i in range(len(docs))]
    got = find_containments(ids, docs, min_len=min_len)
    want = [(ids[i], ids[j]) for i, t in enumerate(docs) if len(t) >= min_len
            for j, h in enumerate(docs)
            if j != i and len(h) > len(t) and t in h]
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
                                    "binary", "binary_chunked", "empty"])
def test_sig_of_matches_unpacked_rows(layout):
    p = 4
    rng = np.random.default_rng(3)
    sigs = rng.integers(0, 2**63, size=(0 if layout == "empty" else 9, p),
                        dtype=np.uint64)
    rows = [s.tobytes() for s in sigs]
    want = sigs
    if layout.startswith("fixed") or layout == "empty":
        col = pa.array(rows, pa.binary(8 * p))
    else:
        col = pa.array(rows, pa.binary())
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
