"""Dedup variants over the ``documents`` table.

The flagship engine (pipelines/dedup.py) runs on the code-files schema;
this module adapts the documents table onto it and adds the remaining
dedup family members a training-data pipeline needs: exact (sha256),
MinHash+LSH (full pipeline), SimHash Hamming grouping, and exact word
n-gram Jaccard pairs (inverted-index formulation whose results are
SQL-reproducible, so the driver's DuckDB oracle can verify it).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import DedupConfig
from ..functions import hashing


def documents_as_files(sf_dir: str) -> ray.data.Dataset:
    """Map documents(doc_id, text, lang, source) onto the engine's files
    schema (repo, path, commit, lang, content)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang", "source"])

    def f(t: pa.Table) -> pa.Table:
        n = t.num_rows
        paths = pc.binary_join_element_wise(
            pa.array(["doc"] * n), t["doc_id"].cast(pa.string()), "/")
        return pa.table({
            "repo": t["source"],
            "path": paths,
            "commit": pa.array([""] * n, pa.string()),
            "lang": t["lang"],
            "content": t["text"],
        })

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


DUP_SEED_OFFSET = 10_000_000


def exact_dup_groups(sf_dir: str,
                     seed_dup_mod: int | None = None) -> ray.data.Dataset:
    """A1 over documents: sha256 groups with >1 member.
    Columns (sha256, n_docs, min_doc_id) — names match the SQL oracle.

    ``seed_dup_mod``: when set, every doc with ``doc_id % mod == 0`` is
    unioned in a second time under ``doc_id + DUP_SEED_OFFSET`` (same
    text) BEFORE grouping. The synthetic corpora have no exact-dup
    texts, so without seeding this query passes vacuously at 0 == 0
    rows; the seeded variant drives the whole group-detect path with
    real groups while staying exactly SQL-reproducible (the oracle
    applies the same UNION ALL)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def add_sha(t: pa.Table) -> pa.Table:
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sha = np.asarray(hashing.sha256_hex(t["text"].to_pylist()),
                         dtype=object)
        if seed_dup_mod:
            # test-battery-only path: a corpus whose doc_ids reach the
            # seed offset would silently collide re-keyed duplicates
            # with real ids — fail loudly instead
            if len(dids) and int(dids.max()) >= DUP_SEED_OFFSET:
                raise ValueError(
                    f"seed_dup_mod set but doc_id {int(dids.max())} >= "
                    f"DUP_SEED_OFFSET {DUP_SEED_OFFSET}: seeded ids "
                    "would collide with real ones")
            m = dids % seed_dup_mod == 0
            dids = np.concatenate([dids, dids[m] + DUP_SEED_OFFSET])
            sha = np.concatenate([sha, sha[m]])  # identical content
        return pa.table({
            "doc_id": pa.array(dids),
            "sha256": pa.array(sha, pa.string())})

    out_schema = pa.schema([("sha256", pa.string()), ("n_docs", pa.int64()),
                            ("min_doc_id", pa.int64())])

    def dup_groups_block(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"sha256": pd.Series([], dtype=str),
                              "n_docs": pd.Series([], dtype=np.int64),
                              "min_doc_id": pd.Series([], dtype=np.int64)})
        if df.empty:
            return empty
        df = df.sort_values(["sha256", "doc_id"], kind="mergesort")
        sha = df["sha256"].to_numpy()
        ids = df["doc_id"].to_numpy(np.int64)
        from ..functions.groups import group_starts
        new = group_starts(sha)
        bounds = np.append(np.flatnonzero(new), len(sha))
        sizes = np.diff(bounds).astype(np.int64)
        keep = sizes > 1
        if not keep.any():
            return empty
        lo = bounds[:-1][keep]
        return pd.DataFrame({"sha256": sha[lo], "n_docs": sizes[keep],
                             "min_doc_id": ids[lo]})

    from ..functions.groups import partitioned_group_map
    grouped = partitioned_group_map(
        ds.map_batches(add_sha, batch_format="pyarrow", zero_copy_batch=True),
        ["sha256"], dup_groups_block, None, out_schema=out_schema)
    # a zero-match result must still carry the schema (Ray skips empty
    # blocks, so anchor it with an explicit empty Arrow block)
    return ray.data.from_arrow(out_schema.empty_table()).union(grouped)


def exact_dedup_keep_first(sf_dir: str) -> ray.data.Dataset:
    """A1+A4 over documents: keep the min doc_id per sha256 group —
    hash-partitioned 'first per key', no driver materialization."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def add_sha(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "sha256": pa.array(hashing.sha256_hex(t["text"].to_pylist()),
                               pa.string())})

    def keep_first_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64)})
        df = df.sort_values(["sha256", "doc_id"], kind="mergesort")
        from ..functions.groups import group_starts
        first = group_starts(df["sha256"].to_numpy())
        return pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(np.int64)[first]})

    from ..functions.groups import partitioned_group_map
    return partitioned_group_map(
        ds.map_batches(add_sha, batch_format="pyarrow", zero_copy_batch=True),
        ["sha256"], keep_first_block, None,
        out_schema=pa.schema([("doc_id", pa.int64())]))


def dedup_report(sf_dir: str,
                 num_partitions: int | None = None) -> ray.data.Dataset:
    """(source, n_docs, n_unique, n_dup_docs) — the per-source dedup
    rate: how many docs each source contributes and how many distinct
    contents that is (A5 metrics-counter analog,
    /root/reference/crates/image-deduper-core/src/lib.rs:131-259 rollup,
    keyed like a per-corpus quality report). Combiner-first: each batch
    pre-aggregates (source, sha256) rows, one hash-partitioned sum
    merges partials, and a per-source reduce counts distinct hashes —
    sha strings cross the wire once, already deduplicated per batch."""
    from ..functions.groups import (group_starts, partitioned_group_map,
                                    partitioned_sum)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"source": pa.array([], pa.string()),
                          "sha256": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "sha256": hashing.sha256_hex(t["text"].to_pylist())})
        cnt = df.groupby(["source", "sha256"], sort=False).size() \
            .reset_index(name="n")
        return pa.table({"source": pa.array(cnt["source"], pa.string()),
                         "sha256": pa.array(cnt["sha256"], pa.string()),
                         "n": pa.array(cnt["n"].to_numpy(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    summed = partitioned_sum(
        partials, ["source", "sha256"], "n", num_partitions,
        out_schema=pa.schema([("source", pa.string()),
                              ("sha256", pa.string()),
                              ("n", pa.int64())]), out_name="n")

    out_schema = pa.schema([("source", pa.string()),
                            ("n_docs", pa.int64()),
                            ("n_unique", pa.int64()),
                            ("n_dup_docs", pa.int64())])

    def block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"source": pd.Series([], dtype=object),
                                 **{c: pd.Series([], dtype=np.int64)
                                    for c in ["n_docs", "n_unique",
                                              "n_dup_docs"]}})
        df = df.sort_values("source", kind="mergesort")
        src = df["source"].to_numpy()
        n = df["n"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(src))
        sizes = np.diff(np.append(starts, len(src))).astype(np.int64)
        totals = np.add.reduceat(n, starts)
        return pd.DataFrame({"source": src[starts],
                             "n_docs": totals,
                             "n_unique": sizes,
                             "n_dup_docs": totals - sizes})

    return partitioned_group_map(summed, ["source"], block, 8,
                                 out_schema=out_schema)


def minhash_lsh_clusters(sf_dir: str, out_dir: str,
                         cfg: DedupConfig | None = None) -> ray.data.Dataset:
    """The full flagship pipeline (signatures -> salted LSH -> verify ->
    substring -> CC -> canonical) over documents. Returns
    (doc_id, cluster_id) with cluster_id = min doc_id of the component
    (stable, human-readable). Rows-only oracle (iterative/stateful)."""
    from .dedup import run_pipeline

    cfg = cfg or DedupConfig()
    import shutil
    shutil.rmtree(out_dir, ignore_errors=True)

    import os
    staged = os.path.join(out_dir, "_input")
    os.makedirs(staged, exist_ok=True)
    documents_as_files(sf_dir).write_parquet(staged)

    res = run_pipeline(staged, out_dir, cfg)
    clusters = res["clusters"]

    def doc_ids(t: pa.Table) -> pa.Table:
        dids = pc.cast(pc.utf8_slice_codeunits(t["path"], 4, 2**31 - 1),
                       pa.int64())
        return pa.table({"doc_id": dids, "cluster_key": t["cluster_id"]})

    labeled = clusters.map_batches(doc_ids, batch_format="pyarrow")

    # relabel via the raw-task hash shuffle + one vectorized segment-min
    # per partition — Ray's native groupby().map_groups is a sort-based
    # shuffle (~9 s serial overhead at bench scale) plus one Python/
    # pandas call per cluster; this path is the same
    # partitioned_group_map every other grouped reduce here uses
    from ..functions.groups import group_starts, partitioned_group_map

    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("cluster_id", pa.int64())])

    def relabel_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype=np.int64),
                 "cluster_id": pd.Series([], dtype=np.int64)})
        df = df.sort_values("cluster_key", kind="mergesort")
        keys = df["cluster_key"].to_numpy()
        dids = df["doc_id"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(keys))
        sizes = np.diff(np.append(starts, len(dids)))
        mins = np.minimum.reduceat(dids, starts)
        return pd.DataFrame({"doc_id": dids,
                             "cluster_id": np.repeat(mins, sizes)})

    return partitioned_group_map(labeled, ["cluster_key"], relabel_block,
                                 cfg.resolved().num_partitions,
                                 out_schema=out_schema)


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a uint64 array via a byte LUT."""
    return _POP8[np.ascontiguousarray(x).view(np.uint8).reshape(len(x), 8)] \
        .sum(axis=1, dtype=np.int16)


def simhash_groups(sf_dir: str, max_hamming: int = 3,
                   cfg: DedupConfig | None = None,
                   max_bucket: int = 4096,
                   band_window: int = 8) -> ray.data.Dataset:
    """SimHash near-dup grouping, end-to-end distributed: 64-bit SimHash
    per doc via the SHARED signature task (``compute_signatures``: same
    tokenize / shingle / simhash kernels as the flagship), then the
    shared Hamming-clustering machinery (``_hamming_cluster``: pigeonhole
    banding, partitioned XOR-popcount pair-gen, connected components,
    join-based label attach) — no driver union-find, no label-dict
    broadcast, no ``to_pandas``. Returns (doc_id, group_id = min doc_id).
    The blake2b-based token hashes are pinned by the scalar-equality
    pytest; the driver-oracled variant is ``simhash_text_groups``.
    SimHash threshold-grouping is the analog of the reference's Standard
    pHash Hamming intent (src/processing/types.rs:22-43)."""
    cfg = (cfg or DedupConfig()).resolved()
    from .dedup import compute_signatures

    def project(t: pa.Table) -> pa.Table:
        dids = pc.cast(pc.utf8_slice_codeunits(t["path"], 4, 2**31 - 1),
                       pa.int64())
        return pa.table({"doc_id": dids, "simhash": t["simhash"]})

    sig = compute_signatures(documents_as_files(sf_dir), cfg) \
        .map_batches(project, batch_format="pyarrow")
    return _hamming_cluster(sig, cfg, max_hamming, max_bucket, band_window)


def simhash_text_groups(sf_dir: str, n: int = 3, max_hamming: int = 3,
                        cfg: DedupConfig | None = None,
                        max_bucket: int = 4096,
                        band_window: int = 8) -> ray.data.Dataset:
    """SimHash grouping whose signature is DRIVER-ORACLE-CHECKABLE end
    to end: per-doc 64-bit SimHash over DISTINCT word ``n``-grams with
    the gram hash = low 64 bits of md5(gram) — md5 is computable in
    DuckDB, so the oracle SQL reconstructs the exact signature bits
    (hex-digit arithmetic), the exact Hamming<=``max_hamming`` pair set
    and the exact min-label components; any drift anywhere in the
    banding / pair-gen / CC / label-attach machinery is a driver-visible
    hash mismatch. Same distributed machinery as ``simhash_groups``
    (``_hamming_cluster``); only the signature kernel differs. Returns
    (doc_id, group_id = min doc_id of the component)."""
    cfg = (cfg or DedupConfig()).resolved()
    import hashlib

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def sign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "simhash": pa.array([], pa.int64())})
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        simh = np.zeros(t.num_rows, np.uint64)
        d, grams = _distinct_word_ngrams_batch(t, n)
        if d is not None and len(d):
            # hash each DISTINCT gram once (md5 is C-speed; the
            # vocabulary per batch is far smaller than the gram stream)
            uniq, inv = np.unique(grams, return_inverse=True)
            hv = np.fromiter(
                (int.from_bytes(
                    hashlib.md5(g.encode("utf-8")).digest()[:8], "big")
                 for g in uniq), np.uint64, len(uniq))
            sh = hv[inv]
            # d is non-decreasing by construction (gram explode walks
            # the batch in row order)
            seg = np.ones(len(d), bool)
            seg[1:] = d[1:] != d[:-1]
            seg_starts = np.flatnonzero(seg)
            seg_rows = d[seg_starts]
            n_per = np.diff(np.append(seg_starts, len(sh))).astype(np.int64)
            for bit in range(64):
                bits = ((sh >> np.uint64(bit)) & np.uint64(1)) \
                    .astype(np.int64)
                ones = np.add.reduceat(bits, seg_starts)
                hits = (2 * ones - n_per) > 0   # strict majority; tie -> 0
                simh[seg_rows[hits]] |= np.uint64(1) << np.uint64(bit)
        return pa.table({"doc_id": pa.array(dids),
                         "simhash": pa.array(simh.view(np.int64))})

    sig = ds.map_batches(sign, batch_format="pyarrow", zero_copy_batch=True)
    return _hamming_cluster(sig, cfg, max_hamming, max_bucket, band_window)


def _hamming_cluster(sig: ray.data.Dataset, cfg: DedupConfig,
                     max_hamming: int = 3, max_bucket: int = 4096,
                     band_window: int = 8) -> ray.data.Dataset:
    """Shared distributed Hamming<=``max_hamming`` grouping over a
    (doc_id, simhash int64) dataset: banded into 4 16-bit chunks
    (pigeonhole: Hamming<=3 pairs share at least one exact chunk),
    candidate pairs generated per hash partition (vectorized
    XOR-popcount, over-cap buckets windowed along the sorted-simhash
    order), components via stages/cc.connected_components, labels
    attached back with a byte-capped broadcast (partitioned-join
    fallback). Returns (doc_id, group_id = min doc_id)."""
    from ..functions.groups import group_starts, partitioned_group_map
    from ..functions.joins import broadcast_join
    from ..stages.cc import connected_components

    # 16 bytes/row: materializing the narrow signature table (consumed
    # by banding AND the final label join) is cheap and avoids signing
    # every document twice.
    sig = sig.materialize()

    def band(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"band_key": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "simhash": pa.array([], pa.int64())})
        sh = t["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        keys = np.empty(4 * n, np.int64)
        for c in range(4):
            part = ((sh >> np.uint64(16 * c)) & np.uint64(0xFFFF)) \
                .astype(np.int64)
            keys[c * n:(c + 1) * n] = (np.int64(c) << np.int64(16)) | part
        return pa.table({"band_key": pa.array(keys),
                         "doc_id": pa.array(np.tile(ids, 4)),
                         "simhash": pa.array(np.tile(sh.view(np.int64), 4))})

    banded = sig.map_batches(band, batch_format="pyarrow",
                             zero_copy_batch=True)

    def bucket_pairs_block(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                              "b": pd.Series([], dtype=np.int64)})
        if df.empty:
            return empty
        df = df.sort_values(["band_key", "doc_id"], kind="mergesort")
        k = df["band_key"].to_numpy(np.int64)
        d = df["doc_id"].to_numpy(np.int64)
        s = df["simhash"].to_numpy(np.int64).view(np.uint64)
        bounds = np.append(np.flatnonzero(group_starts(k)), len(k))
        out_a, out_b = [], []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            m = hi - lo
            if m < 2:
                continue
            ids_b, sh_b = d[lo:hi], s[lo:hi]
            if m > max_bucket:
                # boilerplate mega-bucket (one 16-bit chunk shared by
                # >max_bucket docs): windowed pairs along the sorted
                # simhash order bound work at m*band_window — the same
                # over-cap discipline as the LSH stage's salt_window.
                order = np.argsort(sh_b, kind="mergesort")
                ids_s, sh_s = ids_b[order], sh_b[order]
                for w in range(1, band_window + 1):
                    if w >= m:
                        break
                    hv = _popcount64(np.bitwise_xor(sh_s[:-w], sh_s[w:]))
                    hit = np.flatnonzero(hv <= max_hamming)
                    if len(hit):
                        pa_, pb_ = ids_s[hit], ids_s[hit + w]
                        out_a.append(np.minimum(pa_, pb_))
                        out_b.append(np.maximum(pa_, pb_))
                continue
            x = np.bitwise_xor(sh_b[:, None], sh_b[None, :])
            ham = _POP8[x.view(np.uint8).reshape(m, m, 8)] \
                .sum(axis=2, dtype=np.int16)
            r, c = np.nonzero(np.triu(ham <= max_hamming, k=1))
            if len(r):
                out_a.append(ids_b[r])
                out_b.append(ids_b[c])
        if not out_a:
            return empty
        return pd.DataFrame({"a": np.concatenate(out_a),
                             "b": np.concatenate(out_b)})

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    pairs = partitioned_group_map(banded, ["band_key"], bucket_pairs_block,
                                  cfg.num_partitions,
                                  out_schema=pair_schema)

    # duplicate edges across bands are harmless to CC (union-find and
    # label-prop are idempotent per edge) — no dedup shuffle needed
    labels = connected_components(pairs, cfg)

    left = sig.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"]}),
        batch_format="pyarrow")
    j = broadcast_join(left, labels, "doc_id", "file_id", "left")

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "group_id": pa.array([], pa.int64())})
        from ..functions.arrow_utils import safe_coalesce
        gid = safe_coalesce(t["cluster_id"], t["doc_id"])
        return pa.table({"doc_id": t["doc_id"],
                         "group_id": pc.cast(gid, pa.int64())})

    return j.map_batches(fin, batch_format="pyarrow")


def _distinct_word_ngrams_batch(t: pa.Table, n: int
                                ) -> tuple[np.ndarray | None,
                                           np.ndarray | None]:
    """Vectorized per-doc DISTINCT word n-gram explode for one batch:
    Arrow whitespace split (empty boundary tokens dropped to match
    Python ``str.split`` / DuckDB ``regexp_split_to_array`` on '\\s+'),
    grams built from n sliced views of the flat token array joined in
    one C kernel, per-doc distinct via a hash dedupe — no per-row
    Python. Returns (doc_pos, grams) with doc_pos the batch-row index,
    NON-DECREASING, or (None, None) when the batch yields no grams."""
    col = t["text"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.utf8_split_whitespace(col)
    flat = toks.flatten()
    doc_idx = np.repeat(np.arange(t.num_rows),
                        np.diff(toks.offsets.to_numpy()))
    keep = pc.not_equal(pc.utf8_length(flat), 0).to_numpy(
        zero_copy_only=False)
    flat = flat.filter(pa.array(keep))
    doc_idx = doc_idx[keep]
    m = len(flat)
    if m < n:
        return None, None
    parts = [flat.slice(k, m - n + 1) for k in range(n)]
    g = pc.binary_join_element_wise(*parts, " ")
    # a gram is valid only when all n tokens come from one doc
    valid = doc_idx[:m - n + 1] == doc_idx[n - 1:]
    df = pd.DataFrame({"d": doc_idx[:m - n + 1][valid],
                       "gram": g.filter(pa.array(valid)).to_pandas()})
    df = df.drop_duplicates(["d", "gram"])
    return df["d"].to_numpy(), df["gram"].to_numpy()


# df_cap="auto" resolution: below this corpus size every gram joins
# (oracle-exact); above it the cap kicks in at n_docs // AUTO_DF_DIVISOR
# (a gram shared by >0.5% of a web-scale corpus is stopword-ish
# boilerplate whose pair contribution is noise, and whose uncapped
# reducer cost is quadratic — SURVEY.md §7.4 'skewed buckets').
AUTO_DF_CAP_MIN_DOCS = 200_000
AUTO_DF_DIVISOR = 200


def _resolve_df_cap(sf_dir: str, df_cap) -> int | None:
    if df_cap != "auto":
        return df_cap
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    if n_docs <= AUTO_DF_CAP_MIN_DOCS:
        return None
    return max(512, n_docs // AUTO_DF_DIVISOR)


def _heavy_grams(sf_dir: str, n: int, df_cap: int,
                 num_partitions: int,
                 max_bytes: int = 64 << 20) -> list[str] | None:
    """Pass A of the cap-exact scheme: the DISTINCT grams whose document
    frequency exceeds ``df_cap``. Combiner-first (per-batch gram counts
    pre-aggregated before the shuffle), heavy survivors filtered INSIDE
    the reduce block — only over-cap grams ever reach the driver, and by
    construction there are at most n_grams_total / df_cap of them.
    Returns None when even that set exceeds the byte budget (callers
    must then choose exactness over capping)."""
    from ..functions.groups import partitioned_sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"gram": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        d, gram = _distinct_word_ngrams_batch(t, n)
        if d is None:
            return empty
        uniq, counts = np.unique(gram, return_counts=True)
        return pa.table({"gram": pa.array(uniq, pa.string()),
                         "n": pa.array(counts.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    summed = partitioned_sum(
        partials, ["gram"], "n", num_partitions,
        out_schema=pa.schema([("gram", pa.string()), ("n", pa.int64())]),
        out_name="n")
    heavy = summed.map_batches(
        lambda t: t.filter(pc.greater(t["n"], df_cap)).select(["gram"]),
        batch_format="pyarrow", zero_copy_batch=True)
    out: list[str] = []
    total = 0
    for b in heavy.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        vals = b["gram"].to_pylist()
        total += sum(len(x) for x in vals)
        if total > max_bytes:
            return None
        out.extend(vals)
    return out


def _gram_intersections(sf_dir: str, n: int = 3,
                        df_cap: int | None | str = None,
                        num_partitions: int = 16,
                        finalize=None,
                        out_schema: pa.Schema | None = None,
                        cap_exact_counts: bool = False
                        ) -> ray.data.Dataset:
    """(a, b, ca, cb, inter) per co-occurring doc pair (a < b): the
    distributed inverted-index core shared by the Jaccard and
    containment operators, single streaming pass: explode distinct
    n-grams with the per-doc distinct-gram count |A| CARRIED ON EVERY
    GRAM ROW (known at emission — no count shuffle, no driver dict, no
    materialization), groupby(gram) emits co-occurrence pairs carrying
    (|A|, |B|), groupby(pair) counts the intersection.

    ``finalize`` (with its ``out_schema``): optional pandas -> pandas
    reduction applied INSIDE the pair-reduce task, so selective callers
    (the Jaccard tau filter) discard losing pairs before they are ever
    serialized to the object store — co-occurring pairs vastly
    outnumber survivors on stopword-ish grams.

    ``df_cap``: document-frequency cap — grams shared by more than
    df_cap docs are excluded from pair-gen (the stopword-ish skew guard
    for the 100-TB regime: one df-10^6 gram otherwise implies 10^12
    pairs in a single reducer loop). ``None`` = exact, matching the
    oracles, which join all grams too; ``"auto"`` resolves by corpus
    size (None at oracle scales, ``n_docs // 200`` beyond
    ``AUTO_DF_CAP_MIN_DOCS`` — so the oracle-checked scales stay exact
    and web scale gets bounded reducers by default).

    ``cap_exact_counts`` (the containment mode): a plain cap silently
    breaks the ``inter == |A|`` full-cover premise — a skipped gram
    undercounts ``inter`` but not ``|A|``. With this flag and an active
    cap, a first pass computes the (few, heavy-hitter) over-cap grams
    exactly (``_heavy_grams``), broadcasts them, and the explode drops
    them BEFORE counting — ``|A|`` then counts only surviving grams and
    ``inter == |A|`` stays a necessary condition for containment for
    every doc that retains >= 1 uncapped gram. Docs whose every gram is
    capped (all-boilerplate text) are logged and skipped — the
    documented residual miss. If the heavy-gram set itself exceeds the
    broadcast budget the cap is DISABLED (exactness over capping) with
    a warning."""
    df_cap = _resolve_df_cap(sf_dir, df_cap)
    capped_ref = None
    if df_cap is not None and cap_exact_counts:
        heavy = _heavy_grams(sf_dir, n, df_cap, num_partitions)
        if heavy is None:
            import logging
            logging.getLogger(__name__).warning(
                "cap-exact gram pass: over-cap gram set exceeds the "
                "broadcast budget; disabling df_cap (exactness kept, "
                "reducer-skew guard lost)")
            df_cap = None
        elif heavy:
            capped_ref = ray.put(pa.array(heavy, pa.string()))

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def grams(t: pa.Table) -> pa.Table:
        """Distinct-n-gram explode (``_distinct_word_ngrams_batch``)
        carrying each doc's distinct-gram count |A| on every gram row —
        known at emission, so no count shuffle and no driver dict."""
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "gram": pa.array([], pa.string()),
                          "n_grams": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d, gram = _distinct_word_ngrams_batch(t, n)
        if d is None:
            return empty
        if capped_ref is not None:
            capped = ray.get(capped_ref)
            ga = pa.array(gram, pa.string())
            keep = pc.invert(pc.is_in(ga, value_set=capped)) \
                .to_numpy(zero_copy_only=False)
            if not keep.all():
                had = np.unique(d)
                d, gram = d[keep], gram[keep]
                lost = np.setdiff1d(had, np.unique(d))
                if len(lost):
                    import logging
                    logging.getLogger(__name__).warning(
                        "cap-exact gram pass: %d docs lost every gram "
                        "to the df cap (all-boilerplate text) and exit "
                        "candidate generation", len(lost))
            if len(d) == 0:
                return empty
        cnt = np.bincount(d, minlength=t.num_rows)
        return pa.table({
            "doc_id": pa.array(dids[d]),
            "gram": pa.array(gram, pa.string()),
            "n_grams": pa.array(cnt[d].astype(np.int64))})

    from ..functions.groups import group_starts, partitioned_group_map

    exploded = ds.map_batches(grams, batch_format="pyarrow",
                              zero_copy_batch=True)

    def cooccur_block(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                              "b": pd.Series([], dtype=np.int64),
                              "ca": pd.Series([], dtype=np.int64),
                              "cb": pd.Series([], dtype=np.int64)})
        if df.empty:
            return empty
        df = df.sort_values(["gram", "doc_id"], kind="mergesort")
        g = df["gram"].to_numpy()
        d = df["doc_id"].to_numpy(np.int64)
        c = df["n_grams"].to_numpy(np.int64)
        new = group_starts(g)
        bounds = np.append(np.flatnonzero(new), len(g))
        out_a, out_b, out_ca, out_cb = [], [], [], []
        for s in range(len(bounds) - 1):
            lo, hi = bounds[s], bounds[s + 1]
            m = hi - lo
            if m < 2 or (df_cap is not None and m > df_cap):
                continue
            ids = d[lo:hi]  # already sorted, distinct per doc
            cnt = c[lo:hi]
            r, cc_ = np.triu_indices(m, k=1)
            out_a.append(ids[r])
            out_b.append(ids[cc_])
            out_ca.append(cnt[r])
            out_cb.append(cnt[cc_])
        if not out_a:
            return empty
        return pd.DataFrame({"a": np.concatenate(out_a),
                             "b": np.concatenate(out_b),
                             "ca": np.concatenate(out_ca),
                             "cb": np.concatenate(out_cb)})

    cooc_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("ca", pa.int64()), ("cb", pa.int64())])
    inter_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                              ("ca", pa.int64()), ("cb", pa.int64()),
                              ("inter", pa.int64())])
    pairs = partitioned_group_map(exploded, ["gram"], cooccur_block,
                                  num_partitions, out_schema=cooc_schema)

    def count_block(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c: pd.Series([], dtype=np.int64)
                              for c in ["a", "b", "ca", "cb", "inter"]})
        if df.empty:
            return finalize(empty) if finalize else empty
        df = df.sort_values(["a", "b"], kind="mergesort")
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        new = group_starts(a, b)
        gidx = np.cumsum(new, dtype=np.int32) - 1
        inter = np.bincount(gidx).astype(np.int64)
        out = pd.DataFrame({"a": a[new], "b": b[new],
                            "ca": df["ca"].to_numpy(np.int64)[new],
                            "cb": df["cb"].to_numpy(np.int64)[new],
                            "inter": inter})
        return finalize(out) if finalize else out

    return partitioned_group_map(pairs, ["a", "b"], count_block,
                                 num_partitions,
                                 out_schema=out_schema or inter_schema)


def ngram_novelty(sf_dir: str, n: int = 3,
                  num_partitions: int | None = None) -> ray.data.Dataset:
    """Per-doc duplication-aware novelty counts: of a document's
    DISTINCT word ``n``-grams, how many appear in NO other document
    (corpus document-frequency 1) — the standard "how much of this text
    is boilerplate vs original" curation signal, the per-document
    inverse of the df view the jaccard/containment caps use.

    Scale shape (no join): gram rows (gram, doc_id) hash-partition by
    GRAM, so every occurrence of a gram lands in one reduce block —
    each block computes df locally (one C-speed hash groupby) and emits
    per-doc partial (n_distinct, n_unique) counts; zero rows for every
    doc ride along from the corpus scan so gramless docs still report;
    one narrow second shuffle sums by doc_id. Output integers only
    (hash-stable): (doc_id, n_distinct, n_unique)."""
    from ..functions.groups import group_starts, partitioned_group_map

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    gram_schema = pa.schema([("gram", pa.string()),
                             ("doc_id", pa.int64())])

    def gram_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return gram_schema.empty_table()
        d, grams = _distinct_word_ngrams_batch(t, n)
        if d is None:
            return gram_schema.empty_table()
        dids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[d]
        return pa.table({"gram": pa.array(grams, pa.string()),
                         "doc_id": pa.array(dids)})

    grams = ds.map_batches(gram_rows, batch_format="pyarrow",
                           zero_copy_batch=True)

    part_schema = pa.schema([("doc_id", pa.int64()),
                             ("n_distinct", pa.int64()),
                             ("n_unique", pa.int64())])

    def df_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64)
                 for c in ["doc_id", "n_distinct", "n_unique"]})
        sizes = df.groupby("gram", sort=False)["doc_id"] \
            .transform("size").to_numpy()
        out = df.assign(u=(sizes == 1).astype(np.int64)) \
            .groupby("doc_id", sort=False) \
            .agg(n_distinct=("gram", "size"), n_unique=("u", "sum")) \
            .reset_index()
        return out.astype({"doc_id": np.int64, "n_distinct": np.int64,
                           "n_unique": np.int64})

    partials = partitioned_group_map(grams, ["gram"], df_block,
                                     num_partitions,
                                     out_schema=part_schema)

    # every doc appears, even gramless ones: zero partials from the scan
    zeros = ds.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "n_distinct": pa.array(np.zeros(t.num_rows, np.int64)),
            "n_unique": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)

    def sum_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        df = df.sort_values("doc_id", kind="mergesort")
        dids = df["doc_id"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(dids))
        return pd.DataFrame({
            "doc_id": dids[starts],
            "n_distinct": np.add.reduceat(
                df["n_distinct"].to_numpy(np.int64), starts),
            "n_unique": np.add.reduceat(
                df["n_unique"].to_numpy(np.int64), starts)})

    return partitioned_group_map(partials.union(zeros), ["doc_id"],
                                 sum_block, num_partitions,
                                 out_schema=part_schema)


def ngram_jaccard_pairs(sf_dir: str, n: int = 3, tau: float = 0.1,
                        df_cap: int | None | str = "auto",
                        num_partitions: int = 16) -> ray.data.Dataset:
    """Exact word n-gram Jaccard pairs (a < b, jaccard >= tau) over the
    shared inverted-index intersections: filter
    Jaccard = i / (|A| + |B| - i) >= tau INSIDE the pair-reduce task
    (losing pairs never reach the object store). Exact (no LSH loss) at
    oracle scales, so it hash-matches the DuckDB self-join oracle;
    ``df_cap`` auto-resolves by corpus size (see
    ``_gram_intersections``) — past the threshold, over-cap grams stop
    generating pairs, which only ever LOWERS a pair's computed overlap:
    precision is kept, the (bounded, stopword-driven) recall cost is
    the standard capped-inverted-index trade."""
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def jac_filter(df: pd.DataFrame) -> pd.DataFrame:
        i = df["inter"].to_numpy(np.int64)
        union = (df["ca"].to_numpy(np.int64)
                 + df["cb"].to_numpy(np.int64) - i)
        keep = (union > 0) & (i / np.maximum(union, 1) >= tau)
        return pd.DataFrame({"a": df["a"].to_numpy(np.int64)[keep],
                             "b": df["b"].to_numpy(np.int64)[keep]})

    return _gram_intersections(sf_dir, n, df_cap, num_partitions,
                               finalize=jac_filter,
                               out_schema=pair_schema)


def containment_pairs(sf_dir: str, n: int = 3, min_len: int = 64,
                      num_partitions: int = 16,
                      df_cap: int | None | str = "auto",
                      cand_broadcast_bytes: int = 64 << 20,
                      text_broadcast_bytes: int = 256 << 20
                      ) -> ray.data.Dataset:
    """Verbatim-containment pairs (inner_doc_id, host_doc_id): inner's
    full text occurs as a substring of host's (strictly longer) text —
    the quote / embedded-document detector MinHash structurally misses
    when |inner| << |host| (Jaccard ~ |inner|/|host|). Document-level
    analog of the flagship's suffix-array containment pass
    (stages/substring.py; SURVEY.md §7.1 step 8).

    Candidate generation is the shared n-gram inverted index: inner ⊆
    host requires (with whitespace-aligned embedding) every distinct
    n-gram of inner to appear in host, so candidates are intersection
    rows with inter == |A| (either direction). The tiny candidate set
    then gets contents attached (partitioned hash join — full texts
    only ever ship for candidates) and each pair is verified with an
    exact C-speed substring scan, so false candidates die and the
    result matches the DuckDB strpos oracle. Assumption (documented,
    verified against the oracle at both test scales): the contained
    text spans >= n tokens and embeds on whitespace boundaries — the
    same token-alignment premise every shingle-based dedup makes.

    ``df_cap`` auto-resolves by corpus size and runs in CAP-EXACT mode
    (``_gram_intersections(cap_exact_counts=True)``): over-cap grams
    are computed exactly first and excluded from BOTH ``inter`` and
    ``|A|``, so the full-cover premise survives capping for every doc
    that keeps >= 1 uncapped gram (all-boilerplate docs are logged and
    skipped — the documented residual)."""
    from ..functions.joins import hash_join

    inter = _gram_intersections(sf_dir, n, df_cap, num_partitions,
                                cap_exact_counts=True)

    cand_schema = pa.schema([("inner_id", pa.int64()),
                             ("host_id", pa.int64())])

    def cands(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return cand_schema.empty_table()
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        ca = t["ca"].to_numpy(zero_copy_only=False)
        cb = t["cb"].to_numpy(zero_copy_only=False)
        i = t["inter"].to_numpy(zero_copy_only=False)
        a_in_b = i == ca          # all of a's grams occur in b
        b_in_a = i == cb
        return pa.table({
            "inner_id": pa.array(np.concatenate([a[a_in_b], b[b_in_a]])
                                 .astype(np.int64)),
            "host_id": pa.array(np.concatenate([b[a_in_b], a[b_in_a]])
                                .astype(np.int64))})

    # candidate pairs are tiny (full-cover intersections only) —
    # materialize them so the id-prune scan below doesn't re-run the
    # gram shuffle, then semi-join prune the text table
    # (functions/joins.broadcast_join), so full texts only ever ship
    # for candidates (not the whole corpus through two join shuffles).
    cand = inter.map_batches(cands, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    from ..functions.joins import broadcast_join

    out_schema = pa.schema([("inner_doc_id", pa.int64()),
                            ("host_doc_id", pa.int64())])

    ids = cand.map_batches(
        lambda t: pa.table({"doc_id": pa.concat_arrays(
            [t["inner_id"].combine_chunks(), t["host_id"].combine_chunks()])}),
        batch_format="pyarrow", zero_copy_batch=True)
    docs = broadcast_join(docs, ids, "doc_id", "doc_id", "semi",
                          cand_broadcast_bytes, num_partitions)
    # materialize the PRUNED (candidates-only) table before any
    # driver-side collection: iter_batches on the lazy scan would
    # throttle the full-corpus read to single-threaded driver
    # consumption, and the join fallback would otherwise re-run
    # the scan once per side
    docs = docs.materialize()

    # common case: the candidates' texts fit a broadcast — verify
    # with ONE stateless map over the pair stream (the flagship
    # containment stage's pattern, pipelines/dedup.py) instead of
    # two partitioned hash joins; past the byte cap fall through to
    # the join route below. The broadcast is ONE Arrow table
    # (zero-copy through plasma, probed with index_in/take C
    # kernels per batch), NOT a Python dict: a ray.put dict is
    # stored pickled, so every worker re-unpickles the whole
    # payload on first get — a per-worker fixed cost that grows
    # with worker count and inverts scaling (measured on the
    # flagship's equivalent stage: ~12 s of a 15 s stage wall at
    # 32 cpus, see pipelines/dedup.py and BASELINE.md 8->32).
    parts: list[pa.Table] | None = []
    lookup_bytes = 0
    for b in docs.iter_batches(batch_size=4096,
                               batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        lookup_bytes += b.nbytes
        if lookup_bytes > text_broadcast_bytes:
            parts = None
            break
        parts.append(b.select(["doc_id", "text"]))
    if parts is not None:
        ttbl = pa.concat_tables(parts).combine_chunks() if parts \
            else pa.table({"doc_id": pa.array([], pa.int64()),
                           "text": pa.array([], pa.string())})
        texts_ref = ray.put(ttbl)

        def verify_bcast(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return out_schema.empty_table()
            tt = ray.get(texts_ref)
            keys = tt["doc_id"].combine_chunks() \
                if isinstance(tt["doc_id"], pa.ChunkedArray) \
                else tt["doc_id"]
            # null index -> null text (take propagates); pairs with
            # either side un-broadcast are dropped by the validity
            # check inside the keep mask
            xa = pc.take(tt["text"],
                         pc.index_in(t["inner_id"], value_set=keys)) \
                .to_pylist()
            xb = pc.take(tt["text"],
                         pc.index_in(t["host_id"], value_set=keys)) \
                .to_pylist()
            ii = t["inner_id"].to_numpy(zero_copy_only=False)
            hh = t["host_id"].to_numpy(zero_copy_only=False)
            keep = np.fromiter(
                (x is not None and y is not None
                 and len(x) >= min_len and len(x) < len(y) and x in y
                 for x, y in zip(xa, xb)),
                dtype=bool, count=len(ii))
            return pa.table({
                "inner_doc_id": pa.array(ii[keep].astype(np.int64)),
                "host_doc_id": pa.array(hh[keep].astype(np.int64))})

        verified = cand.map_batches(verify_bcast,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)
        return ray.data.from_arrow(out_schema.empty_table()) \
            .union(verified)
    inner_txt = docs.map_batches(
        lambda t: pa.table({"node": pc.cast(t["doc_id"], pa.string()),
                            "inner_text": t["text"]}),
        batch_format="pyarrow")
    host_txt = docs.map_batches(
        lambda t: pa.table({"node2": pc.cast(t["doc_id"], pa.string()),
                            "host_text": t["text"]}),
        batch_format="pyarrow")

    j1 = hash_join(
        cand.map_batches(
            lambda t: t.append_column("k", pc.cast(t["inner_id"],
                                                   pa.string())),
            batch_format="pyarrow"),
        inner_txt, "k", "node",
        pa.schema([("inner_id", pa.int64()), ("host_id", pa.int64()),
                   ("k", pa.string())]),
        pa.schema([("inner_text", pa.string())]), how="inner",
        num_partitions=num_partitions)
    j2 = hash_join(
        j1.map_batches(
            lambda t: t.append_column("k2", pc.cast(t["host_id"],
                                                    pa.string())),
            batch_format="pyarrow"),
        host_txt, "k2", "node2",
        pa.schema([("inner_id", pa.int64()), ("host_id", pa.int64()),
                   ("inner_text", pa.string()), ("k2", pa.string())]),
        pa.schema([("host_text", pa.string())]), how="inner",
        num_partitions=num_partitions)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        inner = t["inner_text"].to_pylist()
        host = t["host_text"].to_pylist()
        ii = t["inner_id"].to_numpy(zero_copy_only=False)
        hh = t["host_id"].to_numpy(zero_copy_only=False)
        keep = np.fromiter(
            (len(x) >= min_len and len(x) < len(h) and x in h
             for x, h in zip(inner, host)), dtype=bool, count=len(inner))
        return pa.table({"inner_doc_id": pa.array(ii[keep].astype(np.int64)),
                         "host_doc_id": pa.array(hh[keep].astype(np.int64))})

    verified = j2.map_batches(verify, batch_format="pyarrow",
                              zero_copy_batch=True)
    # zero-match results must still carry the schema
    return ray.data.from_arrow(out_schema.empty_table()).union(verified)


def snm_pairs(sf_dir: str, window: int = 4, n: int = 3,
              tau: float = 0.2, key_len: int = 16,
              num_ranges: int | None = None, sample_mask: int = 15,
              sample_broadcast_max: int = 64 << 20) -> ray.data.Dataset:
    """Sorted-neighborhood-method near-dup pairs (a < b): docs whose
    positions in the global (normalized-prefix key, doc_id) order are
    within ``window`` of each other AND whose distinct word n-gram
    Jaccard >= ``tau``. The classic record-linkage blocking strategy
    (Hernandez & Stolfo's merge/purge) — the dedup family member LSH
    doesn't cover: candidates come from ONE sort instead of signature
    collisions, so recall concentrates on documents with near-identical
    prefixes (headers, boilerplate, templated pages) at O(n·window)
    verify cost, with zero hash-family tuning.

    Scale shape (the sort IS the algorithm, so it is made cheap):
    - the blocking key is 16 chars of the normalized text — the only
      payload that moves in the range shuffle beyond (doc_id, text
      needed for the in-partition verify);
    - the global sort is sample-ranged: a deterministic key sample
      (doc_id & sample_mask == 0) picks range boundaries driver-side
      (byte-capped), every row tags its range with one searchsorted,
      and ONE hash shuffle co-locates each range; ranks never
      materialize globally;
    - within a range, window pairs + the Jaccard verify run fully
      vectorized (``window`` shifted self-merges of the distinct-gram
      frame — never a per-pair loop);
    - pairs that straddle a range boundary are reconstructed
      driver-side from each range's first/last ``window`` rows
      (O(window x ranges) rows — bounded, independent of data size).

    ``tau`` must be > 0 (zero-intersection pairs never verify). The
    pair set is invariant to the sampled boundaries: windows are
    defined on the global rank order, which partitioning never
    changes. Oracle: ROW_NUMBER window self-join + the shared
    exploded-gram Jaccard (same SQL fragments as ngram_jaccard_pairs).
    """
    from ..functions.groups import (default_partitions, group_starts,
                                    partitioned_group_map_arrow)

    if not tau > 0:
        raise ValueError("tau must be > 0 (see docstring)")

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def add_key(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        # the exact normalized_dup_groups kernel chain (DuckDB parity
        # proven by that query's hash): lower -> collapse \s+ -> trim
        norm = pc.utf8_trim(pc.replace_substring_regex(
            pc.utf8_lower(text), r"\s+", " "), " ")
        key = pc.utf8_slice_codeunits(norm, 0, key_len)
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "key": key, "text": text})

    keyed = docs.map_batches(add_key, batch_format="pyarrow",
                             zero_copy_batch=True)

    # deterministic boundary sample: doc_id & sample_mask == 0
    samp = keyed.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["doc_id"],
                                                    sample_mask), 0))
        .select(["key"]),
        batch_format="pyarrow", zero_copy_batch=True)
    chunks: list[np.ndarray] = []
    total = 0
    for b in samp.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        total += b.nbytes
        if total > sample_broadcast_max:
            raise ValueError(
                "boundary key sample exceeds the broadcast budget "
                f"({sample_broadcast_max} B); raise sample_mask")
        chunks.append(b["key"].to_numpy(zero_copy_only=False).astype(str))
    ranges = max(2, num_ranges or default_partitions())
    if chunks:
        sample = np.sort(np.concatenate(chunks))
        cuts = sample[np.linspace(0, len(sample) - 1,
                                  ranges + 1).astype(np.int64)[1:-1]]
        bounds = np.unique(cuts)
    else:
        bounds = np.array([], dtype=str)
    bounds_ref = ray.put(bounds)

    def tag(t: pa.Table) -> pa.Table:
        bnd = ray.get(bounds_ref)
        keys = t["key"].to_numpy(zero_copy_only=False).astype(str)
        rid = np.searchsorted(bnd, keys, side="right").astype(np.int64) \
            if len(bnd) else np.zeros(t.num_rows, np.int64)
        return t.append_column("rid", pa.array(rid))

    tagged = keyed.map_batches(tag, batch_format="pyarrow",
                               zero_copy_batch=True)

    out_schema = pa.schema([
        ("kind", pa.int8()), ("a", pa.int64()), ("b", pa.int64()),
        ("rid", pa.int64()), ("pos", pa.int64()), ("rcount", pa.int64()),
        ("doc_id", pa.int64()), ("text", pa.string())])

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(t, sort_keys=[("rid", "ascending"),
                                            ("key", "ascending"),
                                            ("doc_id", "ascending")])
        t = t.take(idx).combine_chunks()
        rids = t["rid"].to_numpy(zero_copy_only=False).astype(np.int64)
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)

        pair_a = np.empty(0, np.int64)
        pair_b = np.empty(0, np.int64)
        dpos, grams = _distinct_word_ngrams_batch(t, n)
        if dpos is not None:
            gd = pd.DataFrame({"rid": rids[dpos],
                               "pos": dpos.astype(np.int64),
                               "gram": grams})
            sizes = np.zeros(t.num_rows, np.int64)
            cnt = gd.groupby("pos").size()
            sizes[cnt.index.to_numpy(np.int64)] = cnt.to_numpy(np.int64)
            frames = []
            for d in range(1, window + 1):
                right = pd.DataFrame({"rid": gd["rid"],
                                      "jpos": gd["pos"] - d,
                                      "posb": gd["pos"],
                                      "gram": gd["gram"]})
                m = gd.merge(right,
                             left_on=["rid", "pos", "gram"],
                             right_on=["rid", "jpos", "gram"])
                if len(m):
                    frames.append(m[["pos", "posb"]])
            if frames:
                ic = pd.concat(frames).groupby(["pos", "posb"]) \
                    .size().reset_index(name="i")
                p_a = ic["pos"].to_numpy(np.int64)
                p_b = ic["posb"].to_numpy(np.int64)
                i = ic["i"].to_numpy(np.int64)
                union = sizes[p_a] + sizes[p_b] - i
                keep = (union > 0) & (i / np.maximum(union, 1) >= tau)
                aa, bb = dids[p_a[keep]], dids[p_b[keep]]
                pair_a = np.minimum(aa, bb)
                pair_b = np.maximum(aa, bb)

        # boundary rows: first/last `window` rows of every range in
        # this partition, with position-from-start and range size
        starts = np.flatnonzero(group_starts(rids))
        ends = np.append(starts[1:], len(rids))
        bidx: list[int] = []
        bpos: list[int] = []
        brc: list[int] = []
        for s, e in zip(starts, ends):
            rows = sorted(set(range(s, min(s + window, e)))
                          | set(range(max(s, e - window), e)))
            bidx.extend(rows)
            bpos.extend(r - s for r in rows)
            brc.extend([e - s] * len(rows))
        bidx_a = np.asarray(bidx, np.int64)

        npairs, nb = len(pair_a), len(bidx_a)
        return pa.table({
            "kind": pa.array(np.concatenate(
                [np.zeros(npairs, np.int8), np.ones(nb, np.int8)])),
            "a": pa.array(np.concatenate(
                [pair_a, np.zeros(nb, np.int64)])),
            "b": pa.array(np.concatenate(
                [pair_b, np.zeros(nb, np.int64)])),
            "rid": pa.array(np.concatenate(
                [np.zeros(npairs, np.int64), rids[bidx_a]])),
            "pos": pa.array(np.concatenate(
                [np.zeros(npairs, np.int64), np.asarray(bpos, np.int64)])),
            "rcount": pa.array(np.concatenate(
                [np.zeros(npairs, np.int64), np.asarray(brc, np.int64)])),
            "doc_id": pa.array(np.concatenate(
                [np.zeros(npairs, np.int64), dids[bidx_a]])),
            "text": pa.concat_arrays([
                pa.nulls(npairs, pa.string()),
                t["text"].combine_chunks().take(pa.array(bidx_a))
                if nb else pa.array([], pa.string())])})

    res = partitioned_group_map_arrow(tagged, ["rid"], block, None,
                                      out_schema=out_schema)
    # pairs + boundary rows are O(matches + window x ranges) — small by
    # construction; materialize once so the two splits don't re-shuffle
    res = res.materialize()

    pairs_in = res.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 0)).select(["a", "b"]),
        batch_format="pyarrow", zero_copy_batch=True)

    brows = res.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 1))
        .select(["rid", "pos", "rcount", "doc_id", "text"]),
        batch_format="pyarrow", zero_copy_batch=True).take_all()

    cross_a: list[int] = []
    cross_b: list[int] = []
    if brows:
        bdf = pd.DataFrame(brows).sort_values(["rid", "pos"])
        rc = bdf.groupby("rid")["rcount"].first().sort_index()
        rids_u = rc.index.to_numpy(np.int64)
        counts = rc.to_numpy(np.int64)
        offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
        off_map = dict(zip(rids_u.tolist(), offs.tolist()))
        gpos = (bdf["rid"].map(off_map).to_numpy(np.int64)
                + bdf["pos"].to_numpy(np.int64))
        order = np.argsort(gpos, kind="stable")
        gpos = gpos[order]
        brid = bdf["rid"].to_numpy(np.int64)[order]
        bdid = bdf["doc_id"].to_numpy(np.int64)[order]
        btxt = pa.table({"text": pa.array(
            bdf["text"].to_numpy(object)[order], pa.string())})
        dpos, grams = _distinct_word_ngrams_batch(btxt, n)
        gsets: dict[int, set] = {}
        if dpos is not None:
            for p, g in zip(dpos, grams):
                gsets.setdefault(int(p), set()).add(g)
        # O(window x ranges) rows: a plain scan is exact and bounded
        for i in range(len(gpos)):
            j = i + 1
            while j < len(gpos) and gpos[j] - gpos[i] <= window:
                if brid[j] != brid[i]:
                    ga = gsets.get(i, set())
                    gb = gsets.get(j, set())
                    inter = len(ga & gb)
                    uni = len(ga) + len(gb) - inter
                    if uni > 0 and inter / uni >= tau:
                        cross_a.append(int(min(bdid[i], bdid[j])))
                        cross_b.append(int(max(bdid[i], bdid[j])))
                j += 1

    cross = ray.data.from_arrow(pa.table({
        "a": pa.array(cross_a, pa.int64()),
        "b": pa.array(cross_b, pa.int64())}))
    return cross.union(pairs_in)


def source_overlap_matrix(sf_dir: str, seed_dup_mod: int | None = 13
                          ) -> ray.data.Dataset:
    """Cross-source contamination matrix: (source_a, source_b,
    n_shared) with source_a < source_b and n_shared the number of
    DISTINCT exact texts (sha256) present in both — the
    benchmark-contamination / dataset-overlap audit a5's per-source
    report cannot answer (a5 counts dups WITHIN a source; this counts
    identical content ACROSS source pairs).

    Scale shape: one hash-partitioned shuffle on the content hash
    (per-batch (hash, source) dedupe first, so shuffle volume is
    O(distinct pairs per block)); each partition explodes its hash
    groups into source pairs with a vectorized self-merge (group width
    is bounded by the source count) and pre-aggregates; the partial
    matrices are O(sources^2) rows by construction and merge
    driver-side.

    ``seed_dup_mod``: the synthetic corpora have no cross-source exact
    dups, so every doc with ``doc_id % mod == 0`` is unioned in again
    under source 'src'||((doc_id*7)%20) — a pseudo-random re-homing
    that is literal-arithmetic reproducible in SQL and fills a genuine
    matrix (not a star)."""
    from ..functions.groups import partitioned_group_map

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "source"])

    def hash_source(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([], pa.string()),
                             "source": pa.array([], pa.string())})
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        src = t["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        if seed_dup_mod:
            dids = t["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            m = dids % seed_dup_mod == 0
            re_homed = pc.binary_join_element_wise(
                "src", pa.array(((dids[m] * 7) % 20).astype(str),
                                pa.string()), "")
            text = pa.concat_arrays([text, text.filter(pa.array(m))])
            src = pa.concat_arrays([src, re_homed])
        hs = hashing.sha256_hex(text.to_pylist())
        df = pd.DataFrame({"h": hs,
                           "source": src.to_numpy(zero_copy_only=False)})
        df = df.drop_duplicates()
        return pa.table({"h": pa.array(df["h"].to_numpy(object),
                                       pa.string()),
                         "source": pa.array(df["source"].to_numpy(object),
                                            pa.string())})

    hs = ds.map_batches(hash_source, batch_format="pyarrow",
                        zero_copy_batch=True)

    out_schema = pa.schema([("source_a", pa.string()),
                            ("source_b", pa.string()),
                            ("n_shared", pa.int64())])

    def block(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"source_a": pd.Series([], dtype=object),
                              "source_b": pd.Series([], dtype=object),
                              "n_shared": pd.Series([], dtype=np.int64)})
        if df.empty:
            return empty
        df = df.drop_duplicates()  # same (h, source) from two blocks
        m = df.merge(df, on="h")
        m = m[m["source_x"] < m["source_y"]]
        if m.empty:
            return empty
        g = m.groupby(["source_x", "source_y"]).size() \
            .reset_index(name="n_shared")
        return pd.DataFrame({"source_a": g["source_x"],
                             "source_b": g["source_y"],
                             "n_shared": g["n_shared"]
                             .to_numpy(np.int64)})

    partial = partitioned_group_map(hs, ["h"], block, None,
                                    out_schema=out_schema)

    # the partial matrices are O(sources^2 x partitions) rows — merge
    # driver-side (bounded by construction, independent of data size)
    rows = partial.take_all()
    if not rows:
        return ray.data.from_arrow(out_schema.empty_table())
    mdf = pd.DataFrame(rows).groupby(["source_a", "source_b"],
                                     as_index=False)["n_shared"].sum()
    return ray.data.from_arrow(pa.table({
        "source_a": pa.array(mdf["source_a"].to_numpy(object),
                             pa.string()),
        "source_b": pa.array(mdf["source_b"].to_numpy(object),
                             pa.string()),
        "n_shared": pa.array(mdf["n_shared"].to_numpy(np.int64))}))
