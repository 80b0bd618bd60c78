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

    # --- containment (suffix-array substring pass) candidate bands ---
    # first containment_perms perms grouped into r=containment_rows
    # bands: per-band collision prob for a pair at Jaccard J is J^r, so
    # r=2 suppresses low-J boilerplate noise ~J-fold while catching
    # moderate containment (J >= ~0.4 at 16 bands w.h.p.)
    containment_perms: int = 32
    containment_rows: int = 2
    # containment candidates must clear this estimated Jaccard before
    # the (content-joining) substring pass: real containment of ratio r
    # has J ~= r, while shared-boilerplate noise sits near 0. Pairs
    # below it are rejects. NOTE the effective reach: this floor is the
    # verification gate, but the BAND-HIT gate below dominates — with 16
    # r=2 bands a pair at J=0.15 collides in >=2 bands w.p. only ~0.6%
    # (per-band hit ~J^2), so containment is reliably surfaced from
    # J >~ 0.4-0.5 downward-tapering, NOT from 0.15. Tiny-in-huge
    # containment (J below the band-hit reach) is out of signature
    # reach by construction — documented limitation; lower
    # containment_min_band_hits to 1 (and accept the noise) or raise
    # containment_perms if low-J reach is required.
    containment_est_jaccard_min: float = 0.15
    # containment-only pairs must agree in this many bands (noise hits
    # one band w.p. ~16*J^2, two w.p. ~120*J^4 — a 50x gate at J~0.05)
    containment_min_band_hits: int = 2

    # --- verification ---
    jaccard_threshold: float = 0.8   # analog of phash_threshold=90 (config.rs:105)

    # --- batch / scale knobs ---
    sig_batch_size: int = 512        # rows per signature task batch
    # reducer count of every hash shuffle (LSH pair-gen, verify and
    # containment joins, CC, canonical pick): None = one per cluster
    # CPU, filled by resolved() (functions/groups.default_partitions)
    num_partitions: int | None = None
    hot_sample_k: int = 16           # hot-bucket counting samples 1/k of rows
    max_content_bytes: int = 262144  # rows larger than this use the windowed signature path (M6/M7)
    cc_max_rounds: int = 50          # label-propagation round cap
    # containment-verify broadcasts the candidate contents (zero
    # shuffles) while their total size stays under this; partitioned
    # joins past it
    cont_broadcast_max_bytes: int = 2_000_000_000
    # the containment candidate-id SET is broadcast for the semi-join
    # prune only while it stays under this many ids; past it the prune
    # flips to a distributed hash semi-join (no driver set)
    cont_max_broadcast_ids: int = 2_000_000
    # pair verification broadcasts the (collapsed-representative)
    # signature matrix while it fits; partitioned hash joins past it
    verify_broadcast_max_bytes: int = 4_000_000_000
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

    # --- fast-signature mode (analog of ultra_fast_phash,
    #     core.rs:158-199: strided sampling instead of the full pass) ---
    # keep every k-th shingle (post-sort): k=1 is exact; k>1 trades
    # recall resolution for k-fold less MinHash work on huge rows
    shingle_stride: int = 1

    def __post_init__(self) -> None:
        if self.lsh_bands * self.lsh_rows != self.num_perms:
            raise ValueError(
                f"lsh_bands*lsh_rows ({self.lsh_bands}*{self.lsh_rows}) != num_perms ({self.num_perms})"
            )
        if self.containment_perms > self.num_perms:
            raise ValueError("containment_perms > num_perms")
        if self.containment_perms % self.containment_rows != 0:
            raise ValueError("containment_perms % containment_rows != 0")

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
