"""Hashing kernels: sha256, file_id, token/shingle hashes.

The sha256 column is the analog of the reference's blake3 cryptographic
hash (/root/reference/crates/image-deduper-core/src/processing/core.rs:10-33);
BASELINE.json's per-row invariant requires ``sha256(content)`` equality,
so we use hashlib.sha256 over the UTF-8 bytes of ``content`` — the same
value DuckDB's ``sha256(text)`` yields (tests/test_functions.py checks
it).

``file_id`` is the stable primary key (SURVEY.md §1.2): the reference
keys its RocksDB rows by path (db.rs:79-85); at 10^12-file scale a
64-bit key would birthday-collide, so we take 128 bits of
sha256(repo|path|commit).
"""

from __future__ import annotations

import hashlib

import numpy as np

# rolling-hash multiplier for shingles (FNV-ish odd constant; arithmetic
# is uint64 wraparound, which numpy performs silently on arrays).
SHINGLE_MULT = np.uint64(0x100000001B3)


def sha256_hex(texts) -> list[str]:
    """Vector of hex sha256 digests for a column of strings."""
    return [hashlib.sha256(t.encode("utf-8", "surrogatepass")).hexdigest() for t in texts]


def file_ids(repos, paths, commits) -> list[str]:
    """Deterministic 128-bit hex key per (repo, path, commit)."""
    out = []
    for r, p, c in zip(repos, paths, commits):
        h = hashlib.sha256(f"{r}\x1f{p}\x1f{c}".encode("utf-8", "surrogatepass"))
        out.append(h.hexdigest()[:32])
    return out


def token_hash64(token: str) -> int:
    """64-bit stable hash of one token (blake2b-8; PYTHONHASHSEED-proof)."""
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8", "surrogatepass"), digest_size=8).digest(), "little")


class TokenHashCache(dict):
    """Per-call token->u64 memo (the analog of ImageCache,
    src/processing/types.rs:78-113 — dedupe *work*, not results). One
    lives for one signature batch, so it needs no capacity bound."""

    def __missing__(self, token: str) -> int:
        v = self[token] = token_hash64(token)
        return v

    def hash_tokens(self, tokens: list[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, tokens), dtype=np.uint64,
                           count=len(tokens))


def shingle_hashes(token_h: np.ndarray, k: int) -> np.ndarray:
    """Unique u64 hashes of the k-gram shingles of a token-hash sequence.

    Rolling polynomial over uint64 wraparound, fully vectorized across
    shingle positions. Fewer than k tokens → single shingle over all of
    them (so short files still get a signature).
    """
    n = len(token_h)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if n < k:
        with np.errstate(over="ignore"):  # uint64 wraparound is the point
            h = token_h[0]
            for i in range(1, n):
                h = h * SHINGLE_MULT + token_h[i]
        return np.array([h], dtype=np.uint64)
    m = n - k + 1
    h = token_h[:m].copy()
    for i in range(1, k):
        h *= SHINGLE_MULT
        h += token_h[i : m + i]
    return np.unique(h)


def fallback_shingles(repo: str, path: str, n_bytes: int) -> np.ndarray:
    """Fallback signature source when content is binary/unparseable:
    hash of identity + size (M8 analog, file_processing.rs:182-200) —
    keeps every row scored, no silent drops."""
    h = token_hash64(f"<fallback>{repo}\x1f{path}\x1f{n_bytes}")
    return np.array([h], dtype=np.uint64)
