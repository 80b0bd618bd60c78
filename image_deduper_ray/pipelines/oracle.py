"""Single-process reference-semantics oracle.

Plays the role of the reference's golden-hash conformance tests
(/root/reference/crates/image-deduper-core/src/processing/processing_tests.rs:29-127):
a small, pure-Python, all-pairs implementation of the identical
shingle/signature config (same tokenize, same shingle hash, same
MinHash perms) whose threshold grouping defines the "reference
clusters" that the distributed engine must match at dup-pair recall
>= 0.99 (BASELINE.md). All-pairs means it has NO LSH recall loss, so
it strictly upper-bounds the engine's pair set.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DedupConfig, DEFAULT_CONFIG
from ..functions import hashing, minhash as mh, tokenize as tok
from ..stages.signatures import MAX_CONTENT_BYTES


def oracle_signatures(table: pa.Table, cfg: DedupConfig = DEFAULT_CONFIG) -> dict:
    """file_id -> dict(sig, sha256, n_bytes, meta…) — the SAME kernels
    as the distributed ``stages.signatures.sign_batch``, minus the
    distribution: the scalar tokenizer and MinHash per row, so recall
    is measured at byte-identical semantics. No time budget applies."""
    a, b = mh.make_perms(cfg.num_perms, cfg.minhash_seed)
    rows = table.to_pylist()
    repos = [r["repo"] for r in rows]
    paths = [r["path"] for r in rows]
    commits = [r["commit"] for r in rows]
    langs = [r["lang"] for r in rows]
    contents = [r["content"] for r in rows]
    n_bytes = np.array([len(c.encode("utf-8", "surrogatepass"))
                        for c in contents], dtype=np.int64)
    fids = hashing.file_ids(repos, paths, commits)
    shas = hashing.sha256_hex(contents)

    sigs = np.zeros((len(rows), cfg.num_perms), dtype=np.uint64)
    kinds = []
    for i, content in enumerate(contents):
        if n_bytes[i] == 0:
            kinds.append("empty")
            continue
        body = content[:MAX_CONTENT_BYTES]
        tokens = tok.tokenize(body, langs[i])
        if not tokens:
            sh = hashing.fallback_shingles(repos[i], paths[i],
                                           int(n_bytes[i]))
            sigs[i] = mh.minhash_signature(sh, a, b)
            kinds.append("fallback")
        else:
            th = np.array([hashing.token_hash64(t) for t in tokens],
                          dtype=np.uint64)
            sh = hashing.shingle_hashes(th, cfg.shingle_k)
            sigs[i] = mh.minhash_signature(sh, a, b)
            kinds.append("ok")

    out = {}
    for i in range(len(rows)):
        out[fids[i]] = {"sig": sigs[i], "sha256": shas[i],
                        "n_bytes": int(n_bytes[i]), "sig_kind": kinds[i],
                        "content": contents[i], "repo": repos[i],
                        "path": paths[i], "commit": commits[i]}
    return out


def oracle_pairs(sigs: dict, cfg: DedupConfig = DEFAULT_CONFIG,
                 containment_min_len: int = 64) -> set[tuple[str, str]]:
    """All dup pairs under reference semantics: sha-equal OR estimated
    Jaccard >= tau OR verbatim containment. All-pairs, no LSH."""
    fids = sorted(sigs)
    pairs: set[tuple[str, str]] = set()
    for i in range(len(fids)):
        si = sigs[fids[i]]
        if si["sig_kind"] == "empty":
            continue
        for j in range(i + 1, len(fids)):
            sj = sigs[fids[j]]
            if sj["sig_kind"] == "empty":
                continue
            dup = False
            if si["sha256"] == sj["sha256"]:
                dup = True
            elif si["sig_kind"] == "ok" and sj["sig_kind"] == "ok":
                if mh.est_jaccard(si["sig"], sj["sig"]) >= cfg.jaccard_threshold:
                    dup = True
                else:
                    small, big = ((si, sj) if len(si["content"]) <= len(sj["content"])
                                  else (sj, si))
                    if (len(small["content"]) >= containment_min_len
                            and small["content"] in big["content"]):
                        dup = True
            if dup:
                pairs.add((fids[i], fids[j]))
    return pairs


def dup_pair_recall(engine_clusters: dict[str, str],
                    ref_pairs: set[tuple[str, str]]) -> float:
    """Fraction of reference dup pairs co-clustered by the engine —
    the BASELINE.md >= 0.99 metric."""
    if not ref_pairs:
        return 1.0
    hit = sum(1 for a, b in ref_pairs
              if engine_clusters.get(a) is not None
              and engine_clusters.get(a) == engine_clusters.get(b))
    return hit / len(ref_pairs)
