"""Seeded input generators for the dedup-scan benchmark.

Every workload is a directory of Parquet files in the ``files`` shape
(repo, path, commit, lang, content) plus the ground truth the generator
planted: groups of rows that must share a cluster, and negative rows
that must stay alone. The program under test only ever sees the files.

  vendored  a small ``mixed`` base (the FIXTURES.md families from
            ``corpus.generate_corpus``: exact copies, reformat twins,
            graduated edits, renames, junk-prefix twins, containment,
            singletons, empty / huge / binary rows), popular vendored files forked many
            times (mostly byte-identical, the rest with 2% line edits),
            and one mega-vendored file with many distinct 2%-edit
            copies, the same for every seed (see ``vendored``). The
            mega file's band buckets are far over
            ``bucket_cap``, so hot-bucket salting, verification and
            union-find over one big component do most of the work.
  resume    a ``mixed`` corpus, where every stage does moderate work;
            each timed scan starts from a
            ``signatures`` checkpoint that holds half its parts and no
            manifest (a job killed mid-signatures and resubmitted).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

# Generator parameters per workload. A scan takes ~10-25 s on a 4-vCPU
# host with 4 logical Ray CPUs, most of it the pipeline's fixed per-stage
# cost, so a run (set-up, one or two timed scans) stays under a minute. The mega file
# needs ~2000 distinct copies before its busiest band bucket reliably
# splits into >= 16 salt sub-buckets (bucket_cap 64, 1/16 sampling).
PARAMS = {
    "vendored": {"n_clusters": 50, "popular_files": 8, "popular_copies": 25,
                 "identical_share": 0.8, "mega_copies": 2000,
                 "edit_frac": 0.02},
    "resume": {"n_clusters": 300},
}
WORKLOADS = tuple(PARAMS)
MEGA_SEED = 1  # see vendored()
ROWS_PER_PART = 1000

_VOCAB = ["vnd_alloc", "vnd_free", "vnd_lock", "vnd_pool", "vnd_queue",
          "vnd_frame", "vnd_codec", "vnd_socket", "vnd_digest", "vnd_cursor",
          "vnd_span", "vnd_arena", "vnd_token", "vnd_range", "vnd_slot"]


@dataclass
class Corpus:
    """A generated input: the files table and its planted ground truth.

    ``groups`` are lists of row indices that must end in one cluster;
    ``negatives`` are row indices that must end in a cluster of size 1."""
    table: pa.Table
    groups: list[list[int]]
    negatives: list[int]

    def keys(self) -> list[tuple[str, str, str]]:
        return list(zip(self.table["repo"].to_pylist(),
                        self.table["path"].to_pylist(),
                        self.table["commit"].to_pylist()))


def _negatives(n_rows: int, groups: list[list[int]]) -> list[int]:
    """Rows no planted group claims: singletons, 25%-edit variants and the
    empty / oversized / binary rows. None of them may join a cluster."""
    grouped = {i for g in groups for i in g}
    return [i for i in range(n_rows) if i not in grouped]


def mixed(seed: int, n_clusters: int) -> Corpus:
    from image_deduper_ray.corpus import generate_corpus

    table, groups = generate_corpus(n_clusters=n_clusters, seed=seed)
    return Corpus(table, groups, _negatives(table.num_rows, groups))


def _vendored_lines(rng: random.Random, n: int) -> list[str]:
    out = []
    for _ in range(n):
        a, b, c = (rng.choice(_VOCAB) for _ in range(3))
        out.append(f"    {a}_{rng.randrange(10**4)} = {b}({c}, "
                   f"{rng.randrange(10**4)}, {rng.randrange(10**4)})")
    return out


def _edit(lines: list[str], frac: float, rng: random.Random) -> str:
    """Replace ``frac`` of the lines (at least one) with fresh lines, so
    every edited copy is distinct but stays near the original."""
    out = list(lines)
    for i in rng.sample(range(len(lines)), max(1, int(len(lines) * frac))):
        out[i] = f"    patched_{rng.randrange(10**9)} = local_{rng.randrange(10**9)}"
    return "\n".join(out)


def _commit(rng: random.Random) -> str:
    return "%040x" % rng.getrandbits(160)


def vendored(seed: int, n_clusters: int, popular_files: int,
             popular_copies: int, identical_share: float, mega_copies: int,
             edit_frac: float) -> Corpus:
    base = mixed(seed, n_clusters)
    cols = {k: base.table[k].to_pylist()
            for k in ("repo", "path", "commit", "lang", "content")}
    groups = [list(g) for g in base.groups]
    rng = random.Random(seed * 7919 + 1)

    def add(repo: str, path: str, content: str, commit: str | None = None) -> int:
        for k, v in (("repo", repo), ("path", path), ("commit", commit or _commit(rng)),
                     ("lang", "go"), ("content", content)):
            cols[k].append(v)
        return len(cols["repo"]) - 1

    for f in range(popular_files):
        lines = _vendored_lines(rng, rng.randrange(60, 120))
        original = "\n".join(lines)
        group = [add(f"upstream{f}/lib", f"src/lib_{f}.go", original)]
        for c in range(popular_copies):
            same = rng.random() < identical_share
            group.append(add(f"fork{f}_{c}/app", f"vendor/lib_{f}/lib.go",
                             original if same else _edit(lines, edit_frac, rng)))
        groups.append(group)

    # The mega file and its copies are the same for every seed. From one
    # draw to the next their pair count, and with it out_mb and peak RSS,
    # moved by up to 25% (15 seeds: out_mb 9.9-13.7 MB): salt sub-buckets
    # are sized from a 1/16 sample of file_ids, and where that estimate
    # lands near the bucket's size they straddle bucket_cap. The rest of
    # the corpus follows the seed.
    mega_rng = random.Random(MEGA_SEED)
    lines = _vendored_lines(mega_rng, 60)
    group = [add("upstream_mega/core", "src/core.go", "\n".join(lines),
                 _commit(mega_rng))]
    for c in range(mega_copies):
        group.append(add(f"mega{c}/app", "third_party/core/core.go",
                         _edit(lines, edit_frac, mega_rng), _commit(mega_rng)))
    groups.append(group)

    table = pa.table({k: pa.array(v, pa.string()) for k, v in cols.items()})
    return Corpus(table, groups, _negatives(table.num_rows, groups))


def generate(name: str, seed: int, params: dict | None = None) -> Corpus:
    """Build workload ``name`` from ``seed`` (same seed, same rows)."""
    p = dict(PARAMS[name], **(params or {}))
    corpus = vendored(seed, **p) if name == "vendored" else mixed(seed, **p)
    if len(set(corpus.keys())) != corpus.table.num_rows:
        raise ValueError(f"{name}: generated (repo, path, commit) keys repeat")
    return corpus


def write(corpus: Corpus, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    for part, start in enumerate(range(0, corpus.table.num_rows, ROWS_PER_PART)):
        pq.write_table(corpus.table.slice(start, ROWS_PER_PART),
                       os.path.join(out_dir, f"part-{part:05d}.parquet"))
    return out_dir
