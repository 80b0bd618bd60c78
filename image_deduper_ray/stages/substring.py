"""Suffix-array substring pass: exact-overlap (containment) dedup.

North-rule component with no direct reference analog (the closest is
the reference's byte-level JPEG marker scan,
/root/reference/crates/image-deduper-core/src/processing/formats/jpeg.rs:34-66
— scanning content for an embedded structure): detects file A embedded
verbatim inside file B, which MinHash misses when |A| << |B| (Jaccard
~ |A|/|B|). Runs ONLY per candidate pair — never a global
index (SURVEY.md §7.1 step 8).

The entry point is ``ContainmentVerify``: a per-pair verdict over
LSH containment candidates joined with both contents. Each needle is
found in its host with C-speed ``needle in host``, or, for a host
facing ``sa_min_needles`` or more needles, by binary search over one
suffix array of the host (``suffix_array``: numpy prefix-doubling,
O(n log^2 n)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling (vectorized numpy lexsort)."""
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(s, kind="mergesort")
    svals = s[order]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(np.concatenate(
        ([0], (svals[1:] != svals[:-1]).astype(np.int64))))
    k = 1
    while k < n and rank.max() < n - 1:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r_o, k_o = rank[order], key2[order]
        changed = np.concatenate(
            ([0], ((r_o[1:] != r_o[:-1]) | (k_o[1:] != k_o[:-1])).astype(np.int64)))
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(changed)
        rank = new_rank
        k *= 2
    sa = np.empty(n, dtype=np.int64)
    sa[rank] = np.arange(n)
    return sa


def _cmp_suffix_prefix(s: np.ndarray, pos: int, pat: np.ndarray) -> int:
    """-1/0/+1: compare s[pos:pos+len(pat)] vs pat lexicographically
    (prefix semantics: shorter suffix that matches so far compares <)."""
    m = min(len(s) - pos, len(pat))
    seg = s[pos : pos + m]
    neq = np.nonzero(seg != pat[:m])[0]
    if len(neq):
        i = neq[0]
        return -1 if seg[i] < pat[i] else 1
    return -1 if m < len(pat) else 0


def _bounds(s: np.ndarray, sa: np.ndarray, pat: np.ndarray) -> tuple[int, int]:
    lo, hi = 0, len(sa)
    while lo < hi:  # left bound: first suffix >= pat
        mid = (lo + hi) // 2
        if _cmp_suffix_prefix(s, sa[mid], pat) < 0:
            lo = mid + 1
        else:
            hi = mid
    left = lo
    hi = len(sa)
    while lo < hi:  # right bound: first suffix > pat-prefix
        mid = (lo + hi) // 2
        if _cmp_suffix_prefix(s, sa[mid], pat) <= 0:
            lo = mid + 1
        else:
            hi = mid
    return left, lo


class ContainmentVerify:
    """Per-pair containment verdict over joined (a, b, content_a,
    content_b) batches: emits (a, b) edges where one side is a verbatim
    substring of the other. min_len guards trivial matches.

    The C-speed ``in`` scan is the default for every pair: at ~GB/s a
    1 MB host costs ~1 ms per needle, while building a (numpy
    prefix-doubling) suffix array over it costs tens of seconds — the
    SA pays off only when one host faces hundreds of needles, so the
    threshold defaults high. (Measured: the SA-eager variant serialized
    the containment stage at 150 s on 346k files; the scan runs it in
    seconds.)"""

    def __init__(self, min_len: int = 64, sa_min_needles: int = 512):
        self.min_len = min_len
        self.sa_min_needles = sa_min_needles

    @staticmethod
    def _codes(text: str) -> np.ndarray:
        return np.frombuffer(text.encode("utf-32-le"),
                             dtype=np.uint32).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ca = batch["content_a"].to_pylist()
        cb = batch["content_b"].to_pylist()
        aa = batch["a"].to_pylist()
        bb = batch["b"].to_pylist()

        # orient each pair as (needle, host) and group by host
        by_host: dict[str, list[int]] = {}
        oriented: list[tuple[str, str] | None] = []
        for i in range(len(ca)):
            x, y = ca[i], cb[i]
            if x is None or y is None or x == y:
                oriented.append(None)
                continue
            small, big = (x, y) if len(x) < len(y) else (y, x)
            if len(small) < self.min_len:
                oriented.append(None)
                continue
            oriented.append((small, big))
            by_host.setdefault(big, []).append(i)

        sa_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for host, idxs in by_host.items():
            if len(idxs) >= self.sa_min_needles:
                s = self._codes(host)
                sa_cache[host] = (s, suffix_array(s))

        out_a, out_b = [], []
        for i, pair in enumerate(oriented):
            if pair is None:
                continue
            needle, host = pair
            if host in sa_cache:
                s, sa = sa_cache[host]
                left, right = _bounds(s, sa, self._codes(needle))
                hit = right > left
            else:
                hit = needle in host
            if hit:
                out_a.append(aa[i])
                out_b.append(bb[i])
        return pa.table({"a": pa.array(out_a, pa.string()),
                         "b": pa.array(out_b, pa.string())})
