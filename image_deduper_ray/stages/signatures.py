"""Signature stage: one stateless batch function, ``sign_batch``.

Analog of ``process_single_image`` composition (validate -> crypto hash
-> perceptual hash, with timeouts and fallbacks) at
crates/image-deduper-core/src/processing/utils/image_processor.rs:12-72
of the reference, run per batch by ``process_image_batch``
(src/processing/utils/batch_processor.rs:30-69). Here the scan's plain
Ray tasks (``pipelines/dedup.sign_input``: an input unit's rows, or a
row slice of them) call ``sign_batch(batch, cfg)`` on each
``sig_batch_size`` slice of their rows: nothing outlives one call, so a
batch's output depends only on the batch and the config.

Per batch: MinHash permutation coefficients and a token hash memo, then
per row validate (M16/M17) -> sha256 (M1) -> tokenize via lang registry
(M5) -> MinHash 128 (M3) + SimHash 64 (M2), with the windowed path for
oversized rows (M6/M7, file_processing.rs:44-179), fallback signature
for binary/unparseable rows (M8, file_processing.rs:182-200),
junk-prefix recovery (M9, jpeg.rs:8-66), and a cooperative per-row time
budget (ST4, hash_computation_with_timeout.rs:19-42,
timeout_utils.rs:63-153): a row whose own signing overruns its lang
budget gets the fallback signature in that same call. Rows never throw;
failures become the ``sig_kind``/``error`` columns.

Output schema (content is DROPPED here — SURVEY.md §7.4 'wide rows'):
  repo, path, commit, lang, file_id, sha256, n_bytes, n_tokens,
  n_shingles, simhash: int64 bit-view, minhash: fixed_size_binary
  (P packed u64s), sig_kind: {ok, fallback, empty}, error
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from ..config import DedupConfig
from ..functions import hashing, minhash as mh, tokenize as tok

# rows longer than this (in characters) are signed over their first
# MAX_CONTENT_BYTES characters only: the windowed path (M6/M7); the
# oracle applies the same window
MAX_CONTENT_BYTES = 262144


def _fallback(repo: str, path: str, n_bytes: int, a: np.ndarray,
              b: np.ndarray, error: str) -> tuple:
    """Deterministic identity signature (M8): resume-safe, never merges
    on content."""
    sh = hashing.fallback_shingles(repo, path, n_bytes)
    return (mh.minhash_signature(sh, a, b), mh.simhash64(sh), 0, 1,
            "fallback", error)


def _row_signature(repo: str, path: str, lang: str, content: str,
                   n_bytes: int, cfg: DedupConfig, a: np.ndarray,
                   b: np.ndarray, token_cache: hashing.TokenHashCache,
                   budget_s: float) -> tuple:
    """(sig, simhash, n_tokens, n_shingles, sig_kind, error) of one row.
    Strings force a row loop; the arithmetic inside is vectorized numpy
    over the row's shingles."""
    if n_bytes == 0:
        return (np.zeros(cfg.num_perms, np.uint64), 0, 0, 0, "empty", "")
    t0 = time.monotonic()
    content = content[:MAX_CONTENT_BYTES]
    tokens = tok.tokenize(content, lang)
    if not tokens:
        return _fallback(repo, path, n_bytes, a, b,
                         "binary-or-empty-after-normalize")
    th = token_cache.hash_tokens(tokens)
    shingles = hashing.shingle_hashes(th, cfg.shingle_k)
    sig = mh.minhash_signature(shingles, a, b)
    simh = mh.simhash64(shingles)
    if time.monotonic() - t0 > budget_s:
        return _fallback(repo, path, n_bytes, a, b, "over-budget")
    return (sig, simh, len(tokens), len(shingles), "ok", "")


def sign_batch(batch: pa.Table, cfg: DedupConfig) -> pa.Table:
    """Signature rows of one files batch (content dropped)."""
    a, b = mh.make_perms(cfg.num_perms, cfg.minhash_seed)
    token_cache = hashing.TokenHashCache()
    # per-lang budget table (timeout_utils.rs:27-58 analog)
    budget = dict(cfg.row_time_budget_by_lang)
    repos = batch["repo"].to_pylist()
    paths = batch["path"].to_pylist()
    commits = batch["commit"].to_pylist()
    langs = batch["lang"].to_pylist()
    contents = batch["content"].to_pylist()
    n = len(repos)

    sha = hashing.sha256_hex(contents)
    fids = hashing.file_ids(repos, paths, commits)
    n_bytes = np.array([len(c.encode("utf-8", "surrogatepass")) for c in contents],
                       dtype=np.int64)

    sigs = np.empty((n, cfg.num_perms), dtype=np.uint64)
    simhashes = np.empty(n, dtype=np.uint64)
    n_tokens = np.empty(n, dtype=np.int64)
    n_shingles = np.empty(n, dtype=np.int64)
    kinds = []
    errors = []
    for i in range(n):
        sig, simh, nt, ns, kind, err = _row_signature(
            repos[i], paths[i], langs[i], contents[i], int(n_bytes[i]),
            cfg, a, b, token_cache,
            budget.get(langs[i], cfg.row_time_budget_s))
        sigs[i] = sig
        simhashes[i] = np.uint64(simh)
        n_tokens[i] = nt
        n_shingles[i] = ns
        kinds.append(kind)
        errors.append(err)

    # packed little-endian u64s (the analog of the reference's packed
    # u64 phash serialization, db.rs:287-331) as fixed_size_binary:
    # downstream signature-matrix readers reshape the Arrow buffer
    # zero-copy instead of joining per-row Python bytes.
    minhash_col = pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(cfg.num_perms * 8), n,
        [None, pa.py_buffer(np.ascontiguousarray(sigs).tobytes())])
    return pa.table({
        "repo": batch["repo"], "path": batch["path"],
        "commit": batch["commit"], "lang": batch["lang"],
        "file_id": pa.array(fids, pa.string()),
        "sha256": pa.array(sha, pa.string()),
        "n_bytes": pa.array(n_bytes),
        "n_tokens": pa.array(n_tokens),
        "n_shingles": pa.array(n_shingles),
        "simhash": pa.array(simhashes.view(np.int64)),  # int64 bit-view: Ray groupby chokes on uint64
        "minhash": minhash_col,
        "sig_kind": pa.array(kinds, pa.string()),
        "error": pa.array(errors, pa.string()),
    })
