"""Pipeline configuration.

Analog of the reference's ``Config`` struct
(/root/reference/crates/image-deduper-core/src/config.rs:37-96): the
dedup-relevant knobs there (``phash_threshold`` default 90 at
config.rs:105, ``prioritization`` rules at config.rs:5-23 and
config.rs:111-115, ``batch_size`` default 100 at config.rs:120) become
the shingle / signature / LSH / threshold / canonical-pick knobs here.

A frozen dataclass: every stage receives it explicitly (task
arguments) — no globals, so runs are deterministic and resumable
(SURVEY.md §2.8, §7.4).

Every field is set by a Tier-1 test or a CLI flag. Tuning values that
nothing varies are module constants next to their only reader:
``stages/lsh.CONTAINMENT_PERMS``, ``CONTAINMENT_ROWS``,
``CONTAINMENT_MIN_BAND_HITS`` and ``HOT_SAMPLE_K``,
``stages/verify.CONTAINMENT_EST_JACCARD_MIN`` and
``stages/signatures.MAX_CONTENT_BYTES``. One byte cap,
``broadcast_max_bytes``, picks the route of every small-side lookup
(broadcast or partitioned hash join) and ``cc_driver_max_edges`` the
CC path. Each stage manifest stores
``to_json()``, so adding or removing a field changes that JSON; a
config dict (or ``scan --config`` file) naming an unknown field raises
``TypeError``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class DedupConfig:
    # --- signature config (must match the oracle exactly for recall) ---
    shingle_k: int = 5          # token 5-gram shingles (north rule)
    num_perms: int = 128        # MinHash permutations (analog: Enhanced [u64;16] phash)
    minhash_seed: int = 12345   # seeds the (a, b) permutation coefficients

    # --- LSH banding ---
    lsh_bands: int = 32         # b  (b * r must equal num_perms)
    lsh_rows: int = 4           # r; s-curve threshold (1/b)^(1/r) ~= 0.42
    bucket_cap: int = 64        # max members per bucket before salting kicks in
    salt_window: int = 8        # pair window inside oversized sub-buckets

    # --- verification ---
    jaccard_threshold: float = 0.8   # analog of phash_threshold=90 (config.rs:105)

    # --- batch / scale knobs ---
    sig_batch_size: int = 512        # rows per signature task batch
    # cap on the reducer count of every hash shuffle (LSH pair-gen, the
    # join route of every broadcast, CC, canonical pick): None = one per
    # cluster CPU, filled by resolved() (functions/groups.
    # default_partitions). Below it a shuffle runs one reducer per
    # functions/groups.ROWS_PER_TASK rows, so a small one is one task
    num_partitions: int | None = None
    # byte cap of every small-side broadcast (functions/joins.
    # broadcast_join, verify_pairs' signature matrix): past it each
    # lookup flips to a partitioned hash join
    broadcast_max_bytes: int = 2_000_000_000
    cc_driver_max_edges: int = 2_000_000  # below this, union-find on the driver is allowed

    # --- canonical pick (analog of PriorityRule list, config.rs:111-115:
    #     HighestResolution -> LargestFileSize -> OldestCreationDate) ---
    # deterministic lexicographic tuple: largest content first, then
    # repo/path/commit for total order.
    canonical_order: tuple[str, ...] = ("-n_bytes", "repo", "path", "commit")

    # --- per-row time budget (analog of timeout_utils.rs:27-58) ---
    # the reference scales its hash timeout 5-30 s by format (JPEG/PNG
    # cheap, TIFF/RAW expensive); the code analog scales by lang —
    # verbose/macro-heavy languages get a larger budget; a row whose
    # own signing overruns it gets the fallback signature
    # (error="over-budget") in that same call.
    row_time_budget_s: float = 5.0
    row_time_budget_by_lang: tuple[tuple[str, float], ...] = (
        ("cpp", 30.0), ("c", 20.0), ("rs", 20.0), ("java", 15.0),
        ("ts", 10.0), ("js", 10.0))

    def __post_init__(self) -> None:
        if self.lsh_bands * self.lsh_rows != self.num_perms:
            raise ValueError(
                f"lsh_bands*lsh_rows ({self.lsh_bands}*{self.lsh_rows}) != num_perms ({self.num_perms})"
            )

    def resolved(self) -> "DedupConfig":
        """Fill the cluster-derived partition count — called at pipeline
        entry, once Ray is up. An explicit value passes through."""
        if self.num_partitions is not None:
            return self
        from .functions.groups import default_partitions

        return dataclasses.replace(self, num_partitions=default_partitions())

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "DedupConfig":
        d = json.loads(s)
        if "canonical_order" in d:
            d["canonical_order"] = tuple(d["canonical_order"])
        if "row_time_budget_by_lang" in d:
            d["row_time_budget_by_lang"] = tuple(
                (lang, float(t)) for lang, t in d["row_time_budget_by_lang"])
        return cls(**d)


DEFAULT_CONFIG = DedupConfig()
