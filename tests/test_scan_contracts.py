"""Table-driven checks of the scan's per-row rules (no Ray): what the
tokenizer ignores in each language, which rows discovery keeps, which
paths ``apply`` may touch, the config's JSON form and the recall metric.
Each case states its expected outcome next to its input.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pytest

from image_deduper_ray.config import DedupConfig
from image_deduper_ray.functions import tokenize as tok
from image_deduper_ray.pipelines.oracle import dup_pair_recall
from image_deduper_ray.sources.files import row_mask
from image_deduper_ray.stages.apply import _safe_join

# --- tokenizer, per language ---------------------------------------------

LANGS = sorted(tok._LINE_COMMENT) + ["txt", "weird"]

SOURCE = "\n".join(f"def f_{i}(x):\n    return x * {i} + (y - 1)"
                   for i in range(8))


@pytest.mark.parametrize("lang", LANGS)
def test_whitespace_churn_never_changes_tokens(lang):
    churned = SOURCE.replace("    ", "\t \t").replace("\n", " \n\n ")
    assert tok.tokenize(churned, lang) == tok.tokenize(SOURCE, lang) != []


@pytest.mark.parametrize("lang", LANGS)
def test_line_comments_are_stripped_only_for_known_langs(lang):
    marker = tok._LINE_COMMENT.get(lang, "#")
    commented = "\n".join(f"{line}  {marker} churn, v2"
                          for line in SOURCE.split("\n"))
    same = tok.tokenize(commented, lang) == tok.tokenize(SOURCE, lang)
    assert same == (lang in tok._LINE_COMMENT)


@pytest.mark.parametrize("lang", LANGS)
def test_junk_prefix_is_stripped_and_binary_gives_no_tokens(lang):
    assert tok.tokenize("﻿\x01\x02\x0b" + SOURCE, lang) == \
        tok.tokenize(SOURCE, lang)
    assert tok.tokenize(SOURCE[:40] + "\x00" + SOURCE, lang) == []


# --- discovery filters ----------------------------------------------------

FILES = [
    ("py", "src/a.py"), ("go", "src/b.go"), ("py", "vendor/lib/c.py"),
    ("rs", "src/abc/d.rs"), ("py", ".git/hooks/e.py"),
    ("py", "src/.cache/f.py"), ("go", "src/g.go.bak/.h.go"),
    ("py", "src/dir.with.dots/i.py"), (None, "src/j.py"), ("py", None),
]


def _ref_keep(lang, path, langs, prefixes, include_hidden) -> bool:
    conds = []          # a condition over a null input is never True
    if langs is not None:
        conds.append(lang is not None and lang in langs)
    for p in prefixes or ():
        conds.append(path is not None and not path.startswith(p))
    if not include_hidden:
        conds.append(path is not None
                     and re.search(r"(^|/)\.", path) is None)
    return all(conds)


@pytest.mark.parametrize("include_hidden", [False, True])
@pytest.mark.parametrize("prefixes", [None, ["vendor/"], ["vendor/", "src/a"]],
                         ids=["no_prefix", "vendor", "vendor+src_a"])
@pytest.mark.parametrize("langs", [None, ["py"], ["py", "go"]],
                         ids=["all_langs", "py", "py+go"])
def test_row_mask_matches_the_discovery_rules(langs, prefixes,
                                              include_hidden):
    t = pa.table({"lang": pa.array([f[0] for f in FILES], pa.string()),
                  "path": pa.array([f[1] for f in FILES], pa.string())})
    mask = row_mask(t, langs=langs, exclude_path_prefixes=prefixes,
                    include_hidden=include_hidden)
    kept = t if mask is None else t.filter(mask)
    want = [f for f in FILES
            if _ref_keep(*f, langs, prefixes, include_hidden)]
    assert list(zip(kept["lang"].to_pylist(), kept["path"].to_pylist())) \
        == want
    assert (mask is None) == (langs is None and not prefixes
                              and include_hidden)


# --- apply: paths inside the root ----------------------------------------

@pytest.mark.parametrize("root,rel,want", [
    ("/data/tree", "a.py", "/data/tree/a.py"),
    ("/data/tree", "src/a.py", "/data/tree/src/a.py"),
    ("/data/tree", "src/../a.py", "/data/tree/a.py"),
    ("/data/tree", "./src/./a.py", "/data/tree/src/a.py"),
    ("/data/tree", "..a.py", "/data/tree/..a.py"),
    ("/data/tree/", "src/a.py", "/data/tree/src/a.py"),
    ("/data/tree", "../a.py", None),
    ("/data/tree", "src/../../a.py", None),
    ("/data/tree", "/etc/passwd", None),
    ("/data/tree", "", None),
    ("/data/tree", ".", None),
    ("/data/tree", "../tree2/a.py", None),
])
def test_safe_join_keeps_paths_inside_the_root(root, rel, want):
    assert _safe_join(root, rel) == want


# --- config ---------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {},
    dict(shingle_k=3, num_perms=64, lsh_bands=16, lsh_rows=4, minhash_seed=7),
    dict(canonical_order=("path", "repo", "commit")),
    dict(row_time_budget_by_lang=()),
    dict(num_partitions=8, sig_batch_size=64, jaccard_threshold=0.7),
    dict(broadcast_max_bytes=0, cc_driver_max_edges=0),
], ids=["default", "k3-p64", "order", "no_budgets", "knobs", "caps0"])
def test_config_json_round_trip(kw):
    cfg = DedupConfig(**kw)
    back = DedupConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.to_json() == cfg.to_json()


@pytest.mark.parametrize("bands,rows,perms", [
    (32, 3, 128), (16, 4, 128), (1, 1, 128), (16, 8, 64)])
def test_config_rejects_bands_that_do_not_tile_the_signature(bands, rows,
                                                             perms):
    with pytest.raises(ValueError, match="num_perms"):
        DedupConfig(lsh_bands=bands, lsh_rows=rows, num_perms=perms)


# --- recall ---------------------------------------------------------------

@pytest.mark.parametrize("clusters,pairs,want", [
    ({}, set(), 1.0),
    ({"a": "c1", "b": "c1", "c": "c1"}, {("a", "b"), ("b", "c")}, 1.0),
    ({"a": "c1", "b": "c2"}, {("a", "b")}, 0.0),
    ({"a": "c1", "b": "c1"}, {("a", "b"), ("a", "z")}, 0.5),
    ({"a": "c1", "b": "c1", "c": "c2", "d": "c2"},
     {("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")}, 0.5),
], ids=["no_pairs", "all_hit", "split", "missing_member", "half"])
def test_dup_pair_recall_counts_co_clustered_pairs(clusters, pairs, want):
    assert dup_pair_recall(clusters, pairs) == want
