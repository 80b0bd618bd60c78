"""MinHash / SimHash signature kernels (vectorized numpy).

MinHash (128 perms, ``list<uint64>``) is the analog of the reference's
Enhanced 1024-bit perceptual hash
(/root/reference/crates/image-deduper-core/src/processing/core.rs:109-154,
``PHash::Enhanced([u64;16])`` at src/processing/types.rs:8-15); SimHash
(64-bit) is the analog of the Standard 8x8 u64 pHash (core.rs:37-104).
Estimated Jaccard = mean(sig_a == sig_b) plays the role of
``PHash::distance`` Hamming comparison (processing/types.rs:22-43).

Permutations are the cheap universal-ish family h -> a*h + b over
uint64 wraparound with odd ``a`` — deterministic from the config seed,
identical in engine and oracle.
"""

from __future__ import annotations

import numpy as np


def make_perms(num_perms: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) coefficient vectors, a forced odd. Built once per
    signature batch: 2 x num_perms seeded draws."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 2**63, size=num_perms, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 2**63, size=num_perms, dtype=np.uint64)
    return a, b


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray,
                      chunk: int = 65536) -> np.ndarray:
    """(num_perms,) uint64 signature = min over shingles of a*h+b.

    Chunked over the shingle axis so a pathological row (millions of
    shingles) never allocates a num_perms x n matrix bigger than
    num_perms x chunk.
    """
    num_perms = len(a)
    if len(shingles) == 0:
        return np.full(num_perms, np.iinfo(np.uint64).max, dtype=np.uint64)
    sig = np.full(num_perms, np.iinfo(np.uint64).max, dtype=np.uint64)
    for s in range(0, len(shingles), chunk):
        block = shingles[s : s + chunk]
        # (P, n) = a[:,None]*h[None,:] + b[:,None]  (uint64 wraparound)
        m = a[:, None] * block[None, :]
        m += b[:, None]
        np.minimum(sig, m.min(axis=1), out=sig)
    return sig


def simhash64(shingles: np.ndarray) -> int:
    """64-bit SimHash over the shingle-hash set: per-bit +-1 vote. The
    bits are counted over the little-endian byte view (``unpackbits``:
    n x 64 bytes, not an n x 64 uint64 shift matrix) and the winning
    votes packed back in one call."""
    if len(shingles) == 0:
        return 0
    by = np.ascontiguousarray(shingles, dtype="<u8").view(np.uint8)
    ones = np.unpackbits(by.reshape(-1, 8), axis=1, bitorder="little") \
        .sum(axis=0, dtype=np.int64)
    votes = ones * 2 - len(shingles)
    return int(np.packbits(votes > 0, bitorder="little").view("<u8")[0])


def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """MinHash Jaccard estimate (the PHash::is_similar analog,
    processing/types.rs:47-58)."""
    return float(np.mean(sig_a == sig_b))


def hamming64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vector popcount(x XOR y) for uint64 arrays (the reference's
    XOR+count_ones at processing/types.rs:22-31)."""
    v = np.bitwise_xor(x, y)
    return np.unpackbits(v.view(np.uint8)).reshape(len(v), 8 * 8).sum(axis=1)
