"""Hypothesis property tests for the signature kernels (no Ray)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from image_deduper_ray.functions import hashing, minhash as mh, tokenize as tok
from image_deduper_ray.stages.substring import suffix_array

_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=300)
_code_line = st.text(
    alphabet=st.sampled_from("abcdefgh_123 ()=+*.:\n\t"), max_size=60)


@settings(max_examples=60, deadline=None)
@given(_text)
def test_tokenize_never_raises_and_is_deterministic(s):
    assert tok.tokenize(s, "py") == tok.tokenize(s, "py")


@settings(max_examples=60, deadline=None)
@given(st.lists(_code_line, max_size=20))
def test_tokenize_whitespace_churn_invariant(lines):
    base = "\n".join(lines)
    churned = "\n\n".join(line + "   " for line in lines)
    assert tok.tokenize(base, "py") == tok.tokenize(churned, "py")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200),
       st.integers(1, 8))
def test_shingles_sorted_unique_deterministic(tokens, k):
    th = np.array(tokens, dtype=np.uint64)
    s1 = hashing.shingle_hashes(th, k)
    s2 = hashing.shingle_hashes(th.copy(), k)
    assert (s1 == s2).all()
    assert len(np.unique(s1)) == len(s1)
    assert len(s1) >= 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_minhash_estimate_in_unit_interval_and_exact_on_self(shingles):
    a, b = mh.make_perms(32, 7)
    sh = np.unique(np.array(shingles, dtype=np.uint64))
    sig = mh.minhash_signature(sh, a, b)
    assert mh.est_jaccard(sig, sig) == 1.0
    other = mh.minhash_signature(sh[: max(1, len(sh) // 2)], a, b)
    assert 0.0 <= mh.est_jaccard(sig, other) <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=120))
def test_suffix_array_is_a_sorted_permutation(codes):
    s = np.array(codes, dtype=np.int64)
    sa = suffix_array(s)
    assert sorted(sa.tolist()) == list(range(len(s)))
    for i in range(len(sa) - 1):  # adjacent suffixes non-decreasing
        assert tuple(s[sa[i]:]) <= tuple(s[sa[i + 1]:])


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=80), st.text(max_size=80))
def test_sha256_column_matches_python_hashlib(x, y):
    import hashlib

    got = hashing.sha256_hex([x, y])
    assert got[0] == hashlib.sha256(x.encode("utf-8", "surrogatepass")).hexdigest()
    assert (got[0] == got[1]) == (
        x.encode("utf-8", "surrogatepass") == y.encode("utf-8", "surrogatepass"))
