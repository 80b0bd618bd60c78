"""Deterministic synthetic source-code corpus (FIXTURES.md).

The analog of the reference's fixture corpus of one image plus
systematic transformations with the family encoded in the filename
(/root/reference/crates/image-deduper-core/src/test_utils/test_support.rs:87-139;
families in tests/data/jpeg/valid/: original, compress_10/50,
resize_*, rotate_5/10). Families map per FIXTURES.md:

  original  -> exact content copy across repos        (sha256-equal)
  compress  -> whitespace/comment churn               (Jaccard ~1.0)
  resize    -> graduated line edits 2/5/10/25%        (Jaccard decreasing)
  rotate    -> identifier rename 5%/10% of tokens     (monotone distance)
  corrupted -> junk-prefix twin (BOM/NULs)            (normalizer recovers)
  zero-size -> empty content                          (validator drop)
  oversized -> >> MAX_CONTENT_BYTES                   (windowed path)
  contain   -> file A verbatim inside larger file B   (substring pass)
  singleton -> unique content                         (precision guard)
  binary    -> NUL-laden content                      (fallback signature)

Same seed -> byte-identical Parquet. Scale via ``n_clusters``.
"""

from __future__ import annotations

import random

import pyarrow as pa
import pyarrow.parquet as pq

LANGS = ["py", "js", "go", "rs", "txt"]

_IDENT_WORDS = [
    "data", "value", "result", "index", "count", "total", "item", "node",
    "buffer", "state", "config", "handler", "parse", "build", "update",
    "merge", "split", "cache", "token", "batch",
]


def _commit(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(40))


def _code_lines(rng: random.Random, n_lines: int, lang: str) -> list[str]:
    cmt = "#" if lang in ("py", "txt") else "//"
    lines = []
    for i in range(n_lines):
        kind = rng.random()
        w1, w2, w3 = (rng.choice(_IDENT_WORDS) for _ in range(3))
        if kind < 0.1:
            lines.append(f"{cmt} {w1} {w2} step {rng.randrange(100)}")
        elif kind < 0.3:
            lines.append(f"def {w1}_{rng.randrange(50)}({w2}, {w3}):" if lang == "py"
                         else f"fn {w1}_{rng.randrange(50)}({w2}, {w3}) {{")
        elif kind < 0.7:
            lines.append(f"    {w1}_{rng.randrange(30)} = {w2} + {w3} * {rng.randrange(1000)}")
        else:
            lines.append(f"    return {w1}({w2}, {rng.randrange(100)})")
    return lines


def _reformat(lines: list[str], rng: random.Random, lang: str) -> str:
    """Whitespace/blank-line/comment churn only — token stream invariant."""
    cmt = "#" if lang in ("py", "txt") else "//"
    out = []
    for ln in lines:
        if rng.random() < 0.2:
            out.append("")
        out.append(ln.replace("    ", "\t") if rng.random() < 0.5 else ln + "   ")
        if rng.random() < 0.1:
            out.append(f"{cmt} churn {rng.randrange(10**6)}")
    return "\n".join(out)


def _edit_lines(lines: list[str], frac: float, rng: random.Random) -> str:
    out = list(lines)
    k = max(1, int(len(lines) * frac))
    for idx in rng.sample(range(len(lines)), k):
        out[idx] = f"    edited_{rng.randrange(10**6)} = wholly_new_{rng.randrange(10**6)}"
    return "\n".join(out)


def generate_corpus(n_clusters: int = 20, seed: int = 42,
                    n_singletons: int | None = None) -> tuple[pa.Table, list[list[int]]]:
    """Build the files table. Returns (table, expected_clusters) where
    expected_clusters is a list of row-index groups that must co-cluster
    at the default config (tau=0.8): exact copies, reformat variants,
    low-edit variants, rename variants, junk-prefix twins, containment
    pairs. High-edit (25%) variants and singletons must NOT join."""
    rng = random.Random(seed)
    rows: list[dict] = []
    expected: list[list[int]] = []

    def add(repo, path, lang, content):
        rows.append({"repo": repo, "path": path, "commit": _commit(rng),
                     "lang": lang, "content": content})
        return len(rows) - 1

    for c in range(n_clusters):
        lang = LANGS[c % len(LANGS)]
        lines = _code_lines(rng, rng.randrange(40, 120), lang)
        base = "\n".join(lines)
        group = []
        base_i = add(f"org{c}/repo_a", f"src/mod_{c}/file.{lang}", lang, base)
        group.append(base_i)
        fam = c % 5
        if fam == 0:  # exact copies across repos
            group.append(add(f"org{c}/repo_b", f"vendor/lib_{c}/file.{lang}", lang, base))
            group.append(add(f"org{c}/repo_c", f"third_party/file.{lang}", lang, base))
        elif fam == 1:  # reformat-only variants
            group.append(add(f"org{c}/repo_b", f"src/fmt/file.{lang}", lang,
                             _reformat(lines, rng, lang)))
        elif fam == 2:  # graduated edits — 2% and 5% stay; 25% must split
            group.append(add(f"org{c}/repo_b", f"src/e2/file.{lang}", lang,
                             _edit_lines(lines, 0.02, rng)))
            group.append(add(f"org{c}/repo_b", f"src/e5/file.{lang}", lang,
                             _edit_lines(lines, 0.05, rng)))
            add(f"org{c}/repo_b", f"src/e25/file.{lang}", lang,
                _edit_lines(lines, 0.25, rng))
        elif fam == 3:  # junk-prefix twin (corrupted-JPEG analog)
            group.append(add(f"org{c}/repo_b", f"src/bom/file.{lang}", lang,
                             "﻿\x01\x02" + base))
        else:  # containment: base verbatim inside a larger host
            host_lines = _code_lines(rng, 30, lang)
            host = "\n".join(host_lines[:15]) + "\n" + base + "\n" + "\n".join(host_lines[15:])
            group.append(add(f"org{c}/repo_b", f"src/host/file.{lang}", lang, host))
        expected.append(group)

    n_singletons = n_clusters if n_singletons is None else n_singletons
    for s in range(n_singletons):
        lang = LANGS[s % len(LANGS)]
        add(f"solo{s}/repo", f"src/only_{s}.{lang}",
            lang, "\n".join(_code_lines(rng, rng.randrange(30, 80), lang)))

    # special rows: empty, oversized, binary-ish
    add("edge/repo", "src/empty.py", "py", "")
    big_lines = _code_lines(rng, 60, "py")
    add("edge/repo", "src/huge.py", "py", "\n".join(big_lines * 400))  # ~1 MB
    add("edge/repo", "blobs/model.bin", "bin",
        "".join(chr(rng.randrange(0, 256)) for _ in range(2048)))

    table = pa.table({
        "repo": pa.array([r["repo"] for r in rows], pa.string()),
        "path": pa.array([r["path"] for r in rows], pa.string()),
        "commit": pa.array([r["commit"] for r in rows], pa.string()),
        "lang": pa.array([r["lang"] for r in rows], pa.string()),
        "content": pa.array([r["content"] for r in rows], pa.string()),
    })
    return table, expected


def write_corpus(out_dir: str, n_clusters: int = 20, seed: int = 42,
                 rows_per_file: int = 50_000) -> tuple[str, list[list[int]]]:
    """Write the corpus as a directory of Parquet files (the multi-dir
    discovery analog, discovery/mod.rs:16-38 — a read over many files)."""
    import os

    table, expected = generate_corpus(n_clusters, seed)
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    part = 0
    for start in range(0, n, rows_per_file):
        pq.write_table(table.slice(start, rows_per_file),
                       os.path.join(out_dir, f"part-{part:05d}.parquet"))
        part += 1
    return out_dir, expected
