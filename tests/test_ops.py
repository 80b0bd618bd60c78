"""Operator tests: text analysis, ANN, dedup variants, multimodal
plumbing, and the driver contract — checked against DuckDB directly
(the same oracle the driver runs at sf0.01)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["documents", "embeddings", "events", "orders", "customer",
              "lineitem", "supplier", "nation", "region", "part"]:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM "
              f"read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _compare(res, sql: str, con) -> None:
    df = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
    odf = con.sql(sql).df()
    pd.testing.assert_frame_equal(_norm(df), _norm(odf), check_dtype=False)


SQL_CHECKED = [
    "m1_sha256", "a1_exact_dup_groups", "a1_exact_dedup_keep_first",
    "a4_canonical_pick", "s2_discovery_filter", "a3_stats_by_lang",
    "j1_anti_join_resume", "t_token_count", "t_quality", "t_fingerprint",
    "ann_topk_cosine", "ann_topk_lsh", "ann_topk_ivf",
    "emb_near_dup_pairs", "ann_range_search", "minhash_lsh_clusters",
    "t_lang_id", "t_mislabel_flags", "media_decode_features",
    "media_external_probe", "media_frame_sample",
    "e_windowed_counts", "e_sessionize", "j_orders_by_segment",
    "e_asof_join", "e_range_join", "t_stratified_sample",
    "t_topk_tokens", "t_vocab_stats", "t_token_quantiles", "t_top_docs",
    "l_pricing_summary", "emb_dedup_canonical", "doc_containment_pairs",
    "a5_dedup_report", "simhash_groups", "media_decode_real",
    "t_decontaminate", "t_repetition", "t_pii_counts",
    "media_phash_bmp", "media_phash_groups", "media_decode_png",
    "t_dedup_against", "t_ngram_novelty", "e_distinct_users_daily",
    "q3_shipping_priority", "media_decode_tiff", "media_decode_ppm",
    "t_normalized_dup_groups", "media_decode_jpeg",
    "media_phash_enhanced", "media_decode_png_gray",
    "media_decode_gif", "media_cross_format_groups",
    "q5_local_supplier_volume", "q18_large_orders",
    "e_hll_user_registers", "q14_part_type_revenue",
    "e_user_running_totals", "emb_kmeans_iter", "q10_returned_items",
    "snm_dedup_pairs", "source_overlap_matrix", "t_lang_token_outliers",
    "e_hopping_counts", "l_rollup_revenue", "t_topk_docs_per_lang",
    "t_bloom_decontaminate", "emb_semantic_prune", "q4_priority_semijoin",
    "q6_forecast_revenue", "q12_priority_line_counts",
    "q13_order_count_distribution", "q15_top_supplier",
    "q17_small_quantity_revenue", "q22_idle_customer_balance",
    "q19_disjunctive_revenue", "q16_supplier_part_variety",
    "q7_nation_pair_volume", "q2_min_unit_cost_supplier",
    "q8_national_market_share", "q21_waiting_suppliers",
    "q11_important_parts", "q20_concentrated_suppliers",
    "e_funnel_counts", "t_tfidf_top_terms", "t_pack_sequences",
    "t_posting_lists", "t_leakfree_split", "e_retention_cohorts",
    "t_quality_weighted_sample", "q9_product_type_profit",
    "ann_topk_filtered", "emb_label_centroids", "t_fuzzy_decontaminate",
    "e_value_mad_outliers",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(name, con):
    import __ray_entry__ as entry

    fn = entry.queries()[name]
    sql = entry.oracle_sql()[name]
    _compare(fn(SF), sql, con)


def test_snm_boundary_stitch_matches_oracle(con):
    # force ~5-row ranges so windows straddle (and fully span) range
    # boundaries: the driver-side stitch must reconstruct exactly the
    # pairs the single-sort oracle sees
    from image_deduper_ray.pipelines.docdedup import snm_pairs

    import __ray_entry__ as entry

    _compare(snm_pairs(SF, num_ranges=97, sample_mask=3),
             entry.oracle_sql()["snm_dedup_pairs"], con)


def test_ngram_jaccard_matches_oracle(con):
    # separate: the heaviest oracle SQL (self-join on exploded grams)
    import __ray_entry__ as entry

    _compare(entry.queries()["ngram_jaccard_pairs"](SF),
             entry.oracle_sql()["ngram_jaccard_pairs"], con)


def test_queries_have_oracle_or_reason():
    import __ray_entry__ as entry

    qs, sqls = entry.queries(), entry.oracle_sql()
    assert set(sqls) <= set(qs)
    # every driver query has an oracle since round 3 (simhash_groups
    # was the last rows-only entry; its driver variant now uses an
    # md5-gram SimHash DuckDB reconstructs bit by bit)
    assert set(qs) == set(sqls)
    # this file's parametrized oracle list covers every queries() entry,
    # so a new query can never silently fall out of the battery
    pytest_checked = set(SQL_CHECKED) | {"ngram_jaccard_pairs"}
    assert pytest_checked == set(qs), (
        f"pytest oracle battery out of sync with queries(): "
        f"missing={sorted(set(qs) - pytest_checked)} "
        f"stale={sorted(pytest_checked - set(qs))}")


def test_lang_id_detects_cjk():
    from image_deduper_ray.pipelines.textops import lang_id

    df = lang_id(SF).to_pandas()
    assert set(df.columns) == {"doc_id", "lang_pred"}
    assert len(df) == 500
    assert df["lang_pred"].isin(["en", "de", "fr", "es", "zh", "und"]).all()


def test_ann_lsh_recall_vs_brute():
    from image_deduper_ray.pipelines.ann import knn_brute, knn_lsh

    exact = knn_brute(SF, k=10, num_queries=8).to_pandas()
    approx = knn_lsh(SF, k=10, num_queries=8).to_pandas()
    e = set(zip(exact.query_id, exact.neighbor_id))
    a = set(zip(approx.query_id, approx.neighbor_id))
    # adaptive sketch width + Hamming<=2 multiprobe: near-total probe
    # coverage at small table sizes — the driver oracle requires exact
    # equality with brute at sf0.01, so hold the floor high here too
    assert len(e & a) / len(e) >= 0.9


def test_ann_ivf_recall_vs_brute():
    from image_deduper_ray.pipelines.ann import knn_brute, knn_ivf

    exact = knn_brute(SF, k=10, num_queries=8).to_pandas()
    e = set(zip(exact.query_id, exact.neighbor_id))
    # default mode at small n: full probe -> exactly brute (the driver
    # oracle requires equality at sf0.01)
    full = knn_ivf(SF, k=10, num_queries=8).to_pandas()
    f = set(zip(full.query_id, full.neighbor_id))
    assert f == e
    # approximate mode (the at-scale default): recall floor at
    # nprobe ~ 2/3 of cells
    approx = knn_ivf(SF, k=10, num_queries=8, nprobe=15).to_pandas()
    a = set(zip(approx.query_id, approx.neighbor_id))
    assert len(e & a) / len(e) >= 0.9


def test_simhash_groups_shape():
    from image_deduper_ray.pipelines.docdedup import simhash_groups

    df = simhash_groups(SF).to_pandas()
    assert len(df) == 500
    # word-salad docs: grouping must not collapse everything
    assert df["group_id"].nunique() > 400


def test_simhash_text_groups_matches_scalar_reference():
    """The oracle-checkable md5-gram variant must equal a straight
    scalar recomputation: distinct word 3-grams -> md5 low-64 ->
    strict-majority bit vote -> brute Hamming<=3 pairs -> union-find."""
    import hashlib

    import pyarrow.parquet as pq
    from image_deduper_ray.pipelines.docdedup import simhash_text_groups

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])

    def ref_simhash(text: str, n: int = 3) -> int:
        toks = text.split()
        grams = {" ".join(toks[i:i + n])
                 for i in range(len(toks) - n + 1)} if len(toks) >= n else set()
        votes = [0] * 64
        for g in grams:
            h = int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "big")
            for b in range(64):
                votes[b] += 1 if (h >> b) & 1 else -1
        return sum(1 << b for b in range(64) if votes[b] > 0)

    sims = {d: ref_simhash(x) for d, x in
            zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    ids = sorted(sims)
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if bin(sims[ids[i]] ^ sims[ids[j]]).count("1") <= 3:
                ra, rb = find(ids[i]), find(ids[j])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    eng = simhash_text_groups(SF).to_pandas()
    got = dict(zip(eng.doc_id, eng.group_id))
    assert len(got) == len(ids)
    assert all(got[i] == find(i) for i in ids)


def test_media_decode_plumbing():
    import ray.data
    from image_deduper_ray.stages.multimodal import (DecodeStage,
                                                     decode_features,
                                                     synth_media_table)

    # fake=False is constructible with no imaging library: the built-in
    # numpy BMP parser is a real codec. Non-BMP image payloads without
    # PIL must still declare themselves per row, not silently fake.
    stage = DecodeStage(fake=False)
    import importlib.util
    if importlib.util.find_spec("PIL") is None:
        with pytest.raises(NotImplementedError):
            stage._real_decode(b"\x89PNG junk", "image")

    media = ray.data.from_arrow(synth_media_table(n=32))
    out1 = decode_features(media, fake=True).to_pandas()
    out2 = decode_features(ray.data.from_arrow(synth_media_table(n=32)),
                           fake=True).to_pandas()
    assert len(out1) == 32
    assert "payload" not in out1.columns  # payload never crosses the stage
    assert (out1.loc[out1["kind"] == "image", "n_frames"] == 1).all()
    # deterministic across runs (resume-safe)
    o1 = out1.sort_values("media_id").reset_index(drop=True)
    o2 = out2.sort_values("media_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(o1, o2)


def test_bmp_decoder_roundtrip():
    """decode_bmp must invert encode_bmp_24 including the awkward
    cases: row padding (width not a multiple of 4) and bottom-up
    storage; and the synth BMP pixel sum must equal the raw digest-byte
    sum the oracle computes."""
    import hashlib

    from image_deduper_ray.stages.multimodal import (decode_bmp,
                                                     encode_bmp_24,
                                                     synth_bmp_table)

    rng = np.random.default_rng(3)
    for w, h in [(3, 5), (8, 4), (7, 1), (4, 4)]:
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        w2, h2, out = decode_bmp(encode_bmp_24(px))
        assert (w2, h2) == (w, h)
        np.testing.assert_array_equal(out, px)

    t = synth_bmp_table(n=4)
    for i, payload in enumerate(t["payload"].to_pylist()):
        w, h, px = decode_bmp(payload)
        hx = hashlib.sha256(f"bmp-{i}-42".encode()).hexdigest() * 3
        assert (w, h) == (8, 4)
        assert int(px.sum()) == sum(bytes.fromhex(hx))

    with pytest.raises(ValueError):
        decode_bmp(b"nope")


def test_real_decode_stage_end_to_end():
    """The non-fake decode branch runs in this container (numpy BMP
    parser, no PIL): actor-pool stage over synth BMPs, px_sum exact."""
    import hashlib

    import ray.data
    from image_deduper_ray.stages.multimodal import (decode_features,
                                                     synth_bmp_table)

    media = ray.data.from_arrow(synth_bmp_table(n=32))
    out = decode_features(media, fake=False).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    assert len(out) == 32
    assert (out["width"] == 8).all() and (out["height"] == 4).all()
    assert (out["n_frames"] == 1).all()
    want = [sum(bytes.fromhex(
        hashlib.sha256(f"bmp-{i}-42".encode()).hexdigest() * 3))
        for i in range(32)]
    assert out["px_sum"].tolist() == want
    # features carry the per-channel means of the decoded pixels
    assert ((out_f := np.stack(out["features"].to_numpy()))[:, :3] > 0).all()
    assert (out_f[:, 3:] == 0).all()


def test_png_decoder_rejects_unsupported():
    """decode_png must refuse what it cannot represent — loudly, per
    the M10-12 parse-or-error contract — and the synth corpus pixel
    sums must equal the digest-byte sums the oracle computes."""
    import hashlib
    import struct
    import zlib

    from image_deduper_ray.stages.multimodal import (decode_png,
                                                     encode_png,
                                                     synth_png_table)

    with pytest.raises(ValueError):
        decode_png(b"nope")
    # 4-bit depth / bogus-interlace / 1-bit / 16-bit-palette headers
    # must raise (grayscale, palette, Adam7 and 16-bit are SUPPORTED
    # since round 5 — tested separately)
    good = encode_png(np.zeros((2, 2, 3), np.uint8))
    for depth, color, inter in [(4, 2, 0), (8, 2, 2), (1, 0, 0),
                                (16, 3, 0)]:
        ihdr = (struct.pack(">II", 2, 2) + bytes([depth, color, 0, 0,
                                                  inter]))
        bad = (good[:8]
               + struct.pack(">I", 13) + b"IHDR" + ihdr
               + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr))
               + good[8 + 25:])
        with pytest.raises(ValueError):
            decode_png(bad)

    t = synth_png_table(n=10)
    for i, payload in enumerate(t["payload"].to_pylist()):
        w, h, px = decode_png(payload)
        hx = hashlib.sha256(f"png-{i}-42".encode()).hexdigest() * 3
        assert (w, h) == (8, 4)
        assert int(px.sum()) == sum(bytes.fromhex(hx))


def test_real_decode_stage_png_end_to_end():
    """The non-fake decode branch over PNG payloads (zlib inflate +
    unfilter, no PIL): actor-pool stage, px_sum exact, every filter
    type present in the corpus."""
    import hashlib

    import ray.data
    from image_deduper_ray.stages.multimodal import (decode_features,
                                                     synth_png_table)

    media = ray.data.from_arrow(synth_png_table(n=20))
    out = decode_features(media, fake=False).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    assert len(out) == 20
    assert (out["width"] == 8).all() and (out["height"] == 4).all()
    want = [sum(bytes.fromhex(
        hashlib.sha256(f"png-{i}-42".encode()).hexdigest() * 3))
        for i in range(20)]
    assert out["px_sum"].tolist() == want


def test_tiff_decoder_roundtrip_and_rejects():
    """decode_tiff must invert encode_tiff_rgb across byte orders and
    strip layouts, refuse compressed / non-8-bit headers loudly, and
    the synth corpus pixel sums must equal the digest-byte sums."""
    import hashlib

    from image_deduper_ray.stages.multimodal import (decode_tiff,
                                                     encode_tiff_rgb,
                                                     synth_tiff_table)

    rng = np.random.default_rng(7)
    for be in (False, True):
        for rps in (None, 1, 2):
            px = rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8)
            w, h, out = decode_tiff(encode_tiff_rgb(
                px, big_endian=be, rows_per_strip=rps))
            assert (w, h) == (9, 5)
            np.testing.assert_array_equal(out, px)

    with pytest.raises(ValueError):
        decode_tiff(b"nope")
    # flip the Compression tag (259) to Deflate(8): must refuse (LZW=5
    # and PackBits=32773 are SUPPORTED since round 5)
    good = bytearray(encode_tiff_rgb(np.zeros((2, 2, 3), np.uint8)))
    import struct
    ifd_off = struct.unpack_from("<I", good, 4)[0]
    n = struct.unpack_from("<H", good, ifd_off)[0]
    for i in range(n):
        tag = struct.unpack_from("<H", good, ifd_off + 2 + 12 * i)[0]
        if tag == 259:
            struct.pack_into("<H", good, ifd_off + 2 + 12 * i + 8, 8)
    with pytest.raises(ValueError):
        decode_tiff(bytes(good))

    t = synth_tiff_table(n=8)
    for i, payload in enumerate(t["payload"].to_pylist()):
        w, h, px = decode_tiff(payload)
        hx = hashlib.sha256(f"tiff-{i}-42".encode()).hexdigest() * 3
        assert (w, h) == (8, 4)
        assert int(px.sum()) == sum(bytes.fromhex(hx))


def test_real_decode_stage_tiff_end_to_end():
    """The non-fake decode branch over TIFF payloads (IFD walk, both
    endians, strip reassembly, no PIL): actor-pool stage, px_sum
    exact."""
    import hashlib

    import ray.data
    from image_deduper_ray.stages.multimodal import (decode_features,
                                                     synth_tiff_table)

    media = ray.data.from_arrow(synth_tiff_table(n=18))
    out = decode_features(media, fake=False).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    assert len(out) == 18
    assert (out["width"] == 8).all() and (out["height"] == 4).all()
    want = [sum(bytes.fromhex(
        hashlib.sha256(f"tiff-{i}-42".encode()).hexdigest() * 3))
        for i in range(18)]
    assert out["px_sum"].tolist() == want


def test_png_gray_and_palette_roundtrip():
    """Round-5 decode-breadth branches (round-4 verdict 'What's
    missing' #2): 8-bit grayscale (color type 0) and palette-indexed
    (color type 3) PNGs round-trip through every filter type, palette
    expansion reproduces the exact RGB pixels, and corrupt palette
    payloads raise per the parse-or-error contract."""
    from image_deduper_ray.stages.multimodal import (decode_png,
                                                     encode_png,
                                                     encode_png_palette)

    rng = np.random.default_rng(11)
    for ft in range(5):
        gray = rng.integers(0, 256, size=(6, 10, 1), dtype=np.uint8)
        w, h, out = decode_png(encode_png(gray, filter_type=ft))
        assert (w, h) == (10, 6) and out.shape == (6, 10, 1)
        np.testing.assert_array_equal(out, gray)

        pal = rng.integers(0, 256, size=(13, 3), dtype=np.uint8)
        px = pal[rng.integers(0, 13, size=(6, 10))]
        w, h, out = decode_png(encode_png_palette(px, filter_type=ft))
        assert out.shape == (6, 10, 3)
        np.testing.assert_array_equal(out, px)

    # palette PNG with the PLTE chunk stripped must raise, not crash
    payload = encode_png_palette(pal[rng.integers(0, 13, size=(4, 4))])
    pos, chunks = 8, []
    while pos + 8 <= len(payload):
        ln = int.from_bytes(payload[pos:pos + 4], "big")
        if payload[pos + 4:pos + 8] != b"PLTE":
            chunks.append(payload[pos:pos + 12 + ln])
        pos += 12 + ln
    with pytest.raises(ValueError, match="PLTE"):
        decode_png(payload[:8] + b"".join(chunks))
    # > 256 distinct colors cannot be palette-encoded
    vals = np.arange(300)
    big = np.stack([vals % 256, vals // 256, np.zeros(300, np.int64)],
                   axis=1).astype(np.uint8).reshape(300, 1, 3)
    with pytest.raises(ValueError, match="256"):
        encode_png_palette(big)


def test_packbits_roundtrip_and_truncation():
    """PackBits encoder/decoder property round-trip over adversarial
    byte patterns (long runs, long literals, alternating, empty) plus
    randomized inputs, and truncated packets raise ValueError."""
    from image_deduper_ray.stages.multimodal import (packbits_decode,
                                                     packbits_encode)

    rng = np.random.default_rng(13)
    cases = [b"", b"x", b"a" * 1000, bytes(range(256)) * 3,
             b"ab" * 257, b"aab" * 100, bytes(500)]
    cases += [bytes(rng.integers(0, v, size=rng.integers(1, 700),
                                 dtype=np.uint8).tolist())
              for v in (2, 8, 256) for _ in range(5)]
    for data in cases:
        enc = packbits_encode(data)
        assert packbits_decode(enc) == data
        # runs must actually compress
        if data == b"a" * 1000:
            assert len(enc) <= 2 * (1000 // 128 + 1)
    with pytest.raises(ValueError):
        packbits_decode(b"\x05ab")        # literal claims 6, has 2
    with pytest.raises(ValueError):
        packbits_decode(b"\xfe")          # repeat with no data byte
    # 128 is a spec no-op
    assert packbits_decode(b"\x80\x00a") == b"a"


def test_tiff_packbits_and_png_subformat_corpus():
    """The synth corpora cycle through the new branches: PackBits TIFF
    strips decompress to the same digest pixels, and the PNG corpus's
    palette rows (media_id % 3 == 2) carry a PLTE chunk yet decode to
    the identical sums — so the driver queries exercise every branch."""
    import hashlib

    from image_deduper_ray.stages.multimodal import (decode_tiff,
                                                     encode_tiff_rgb,
                                                     synth_png_table,
                                                     synth_tiff_table)

    rng = np.random.default_rng(17)
    for be in (False, True):
        for rps in (None, 1, 3):
            px = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
            w, h, out = decode_tiff(encode_tiff_rgb(
                px, big_endian=be, rows_per_strip=rps,
                compression=32773))
            np.testing.assert_array_equal(out, px)

    t = synth_tiff_table(n=24)
    for i, payload in enumerate(t["payload"].to_pylist()):
        w, h, px = decode_tiff(payload)
        hx = hashlib.sha256(f"tiff-{i}-42".encode()).hexdigest() * 3
        assert int(px.sum()) == sum(bytes.fromhex(hx))
    # all three compressions and both predictors appear in 24 ids
    assert {(i // 2) % 3 for i in range(24)} == {0, 1, 2}
    assert {(i // 6) % 2 for i in range(24)} == {0, 1}

    p = synth_png_table(n=12)
    payloads = p["payload"].to_pylist()
    n_palette = sum(b"PLTE" in pl for pl in payloads)
    assert n_palette == 4                 # media_id 2, 5, 8, 11
    # IHDR depth byte at offset 24, interlace flag at offset 28
    assert [pl[24] for pl in payloads] == \
        [16 if i % 6 == 1 else 8 for i in range(12)]
    assert [pl[28] for pl in payloads] == \
        [1 if i % 4 == 1 else 0 for i in range(12)]


def test_png_16bit_roundtrip():
    """Depth-16 PNGs (big-endian samples) decode with the standard
    MSB downconversion (sample >> 8), across color types, filter
    types and both interlace layouts."""
    from image_deduper_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.default_rng(31)
    for c in (1, 3, 4):
        for ft in range(5):
            for inter in (False, True):
                px16 = rng.integers(0, 65536, size=(5, 9, c),
                                    dtype=np.uint16)
                w, h, out = decode_png(encode_png(px16, filter_type=ft,
                                                  interlace=inter))
                assert (w, h) == (9, 5) and out.dtype == np.uint8
                np.testing.assert_array_equal(
                    out, (px16 >> 8).astype(np.uint8))


def test_png_adam7_interlace_roundtrip():
    """Adam7-interlaced PNGs round-trip for every color type and filter
    type, including dimensions where some passes are empty (1x1, 2x2,
    3x5) — each pass filters independently, so cross-pass state leaks
    would corrupt the reconstruction."""
    from image_deduper_ray.stages.multimodal import (decode_png,
                                                     encode_png,
                                                     encode_png_palette)

    rng = np.random.default_rng(29)
    for hw in [(1, 1), (2, 2), (3, 5), (8, 8), (9, 13)]:
        for c in (1, 3, 4):
            for ft in range(5):
                px = rng.integers(0, 256, size=(*hw, c), dtype=np.uint8)
                w, h, out = decode_png(encode_png(px, filter_type=ft,
                                                  interlace=True))
                assert (w, h) == (hw[1], hw[0])
                np.testing.assert_array_equal(out, px)
    # interlaced palette
    pal = rng.integers(0, 256, size=(7, 3), dtype=np.uint8)
    px = pal[rng.integers(0, 7, size=(9, 13))]
    w, h, out = decode_png(encode_png_palette(px, filter_type=4,
                                              interlace=True))
    np.testing.assert_array_equal(out, px)
    # truncated interlaced payload raises, never crashes
    full = encode_png(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8),
                      interlace=True)
    import zlib
    # rebuild with IDAT cut short by one pass-row
    pos, chunks = 8, []
    for_idat = None
    while pos + 8 <= len(full):
        ln = int.from_bytes(full[pos:pos + 4], "big")
        typ = full[pos + 4:pos + 8]
        if typ == b"IDAT":
            body = zlib.decompress(full[pos + 8:pos + 8 + ln])
            for_idat = zlib.compress(body[:-5])
            chunks.append(None)
        else:
            chunks.append(full[pos:pos + 12 + ln])
        pos += 12 + ln
    rebuilt = full[:8] + b"".join(
        (len(for_idat).to_bytes(4, "big") + b"IDAT" + for_idat
         + zlib.crc32(b"IDAT" + for_idat).to_bytes(4, "big"))
        if c is None else c for c in chunks)
    with pytest.raises(ValueError):
        decode_png(rebuilt)


def test_tiff_lzw_roundtrip_and_predictor():
    """TIFF 6.0 LZW (Compression=5) with the early-change width
    schedule: byte-level round-trips across width growth (9->12 bits)
    and the 4094-entry table reset, full-TIFF round-trips with the
    horizontal-differencing predictor, and corrupt streams raise."""
    from image_deduper_ray.stages.multimodal import (decode_tiff,
                                                     encode_tiff_rgb,
                                                     tiff_lzw_decode,
                                                     tiff_lzw_encode)

    rng = np.random.default_rng(23)
    cases = [b"", b"x", b"ab" * 300, bytes(range(256)) * 4,
             # 200k random bytes: grows the code width to 12 bits and
             # crosses the 4094-entry Clear/reset at least once
             bytes(rng.integers(0, 256, 200_000, dtype=np.uint8)
                   .tolist())]
    for data in cases:
        assert tiff_lzw_decode(tiff_lzw_encode(data)) == data
    # compressible input must actually shrink
    assert len(tiff_lzw_encode(b"a" * 10_000)) < 1_000

    for be in (False, True):
        for pred in (1, 2):
            px = rng.integers(0, 256, size=(6, 11, 3), dtype=np.uint8)
            w, h, out = decode_tiff(encode_tiff_rgb(
                px, big_endian=be, rows_per_strip=2,
                compression=5, predictor=pred))
            np.testing.assert_array_equal(out, px)
    # predictor also composes with uncompressed strips
    px = rng.integers(0, 256, size=(4, 7, 3), dtype=np.uint8)
    w, h, out = decode_tiff(encode_tiff_rgb(px, predictor=2))
    np.testing.assert_array_equal(out, px)

    # a stream not starting with Clear, and a code beyond the table
    with pytest.raises(ValueError):
        tiff_lzw_decode(b"\x00\x00\x00\x00")
    good = tiff_lzw_encode(b"hello hello hello")
    assert tiff_lzw_decode(good) == b"hello hello hello"


def test_real_decode_stage_png_gray_end_to_end():
    """The non-fake decode branch over grayscale PNGs (1-channel
    unfilter, bpp=1): actor-pool stage, px_sum exact, dims 12x8."""
    import hashlib

    import ray.data
    from image_deduper_ray.stages.multimodal import (decode_features,
                                                     synth_png_gray_table)

    media = ray.data.from_arrow(synth_png_gray_table(n=20))
    out = decode_features(media, fake=False).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    assert len(out) == 20
    assert (out["width"] == 12).all() and (out["height"] == 8).all()
    want = [sum(bytes.fromhex(
        hashlib.sha256(f"pnggray-{i}-42".encode()).hexdigest() * 3))
        for i in range(20)]
    assert out["px_sum"].tolist() == want


def test_unsupported_subformat_falls_through_or_raises():
    """A payload a built-in decoder recognizes but refuses (16-bit PPM
    here) must fall through to PIL when installed, and raise the
    decoder's ValueError — not a silent fake — when no codec exists."""
    import importlib.util

    from image_deduper_ray.stages.multimodal import DecodeStage

    stage = DecodeStage(fake=False)
    bad_ppm = b"P6\n2 2\n65535\n" + b"\x00" * 24
    if importlib.util.find_spec("PIL") is None:
        with pytest.raises(ValueError):
            stage._real_decode(bad_ppm, "image")
    else:  # PIL decodes 16-bit PPM: the fall-through must succeed
        w, h, _, _, _ = stage._real_decode(bad_ppm, "image")
        assert (w, h) == (2, 2)


def test_jpeg_roundtrip_exact_and_tolerant():
    """Baseline JPEG codec: flat 8x8 blocks under unit quant roundtrip
    BIT-EXACTLY in every variant (gray / 4:4:4 / 4:2:2 / 4:2:0 /
    restart markers) — the invariant the driver oracle rides on — and
    general content roundtrips within DCT rounding (<=2/channel) when
    the chroma is subsampling-aligned."""
    import hashlib

    from image_deduper_ray.stages.jpegcodec import decode_jpeg, encode_jpeg

    tiles = np.frombuffer(hashlib.sha256(b"t").digest(), np.uint8) \
        .reshape(4, 8)
    y = np.repeat(np.repeat(tiles, 8, 0), 8, 1)
    neutral = np.full_like(y, 128)
    variants = [encode_jpeg(y)]
    for sub, dri in [("444", 0), ("422", 0), ("420", 0), ("420", 2),
                     ("444", 1)]:
        variants.append(encode_jpeg(
            np.stack([y, neutral, neutral], 2), ycbcr=True,
            subsampling=sub, restart_interval=dri))
    for payload in variants:
        w, h, px = decode_jpeg(payload)
        assert (w, h) == (64, 32)
        np.testing.assert_array_equal(px, np.repeat(y[:, :, None], 3, 2))

    # general content: random luma, chroma constant per 2x2 window
    rng = np.random.default_rng(3)
    yl = rng.integers(40, 216, (32, 48)).astype(np.float64)
    cb = np.repeat(np.repeat(rng.integers(80, 176, (16, 24)), 2, 0),
                   2, 1).astype(np.float64)
    cr = np.repeat(np.repeat(rng.integers(80, 176, (16, 24)), 2, 0),
                   2, 1).astype(np.float64)
    for sub in ["444", "420"]:
        _, _, out = decode_jpeg(encode_jpeg(
            np.stack([yl, cb, cr], 2), ycbcr=True, subsampling=sub))
        r = yl + 1.402 * (cr - 128)
        g = yl - 0.344136 * (cb - 128) - 0.714136 * (cr - 128)
        b = yl + 1.772 * (cb - 128)
        ref = np.clip(np.rint(np.stack([r, g, b], 2)), 0, 255)
        assert np.abs(out.astype(int) - ref.astype(int)).max() <= 2

    # RGB input path (color conversion both ways), 4:4:4
    img = rng.integers(60, 196, (16, 24, 3)).astype(np.uint8)
    _, _, out = decode_jpeg(encode_jpeg(img.astype(np.float64)))
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 2


def test_jpeg_corrupt_recovery_and_rejects():
    """The reference's corrupt-JPEG discipline (jpeg.rs:34-66): a
    garbage prefix before the SOI is recovered by the 0xFFD8 scan;
    unrecoverable payloads raise ValueError (M8 fallback-hash path);
    progressive / truncated / non-JPEG inputs are refused."""
    import hashlib

    from image_deduper_ray.stages.jpegcodec import (decode_jpeg,
                                                    decode_jpeg_recover,
                                                    encode_jpeg)

    y = np.repeat(np.repeat(
        np.frombuffer(hashlib.sha256(b"r").digest(), np.uint8)
        .reshape(4, 8), 8, 0), 8, 1)
    good = encode_jpeg(y)

    corrupt = b"\x00garbage\x01\xfe" + good
    with pytest.raises(ValueError):
        decode_jpeg(corrupt)            # direct decode refuses
    w, h, px = decode_jpeg_recover(corrupt)
    np.testing.assert_array_equal(px, np.repeat(y[:, :, None], 3, 2))

    # a decoy FFD8 BEFORE the real SOI: the scan must keep going
    decoy = b"\xff\xd8\x00broken" + good
    _, _, px2 = decode_jpeg_recover(decoy)
    np.testing.assert_array_equal(px2, px)

    with pytest.raises(ValueError):
        decode_jpeg_recover(b"\xff\xd8" + b"\x00" * 64)   # no markers
    with pytest.raises(ValueError):
        decode_jpeg(good[:40])          # truncated mid-segment
    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg at all")
    # progressive SOF2 is refused, not mis-decoded
    prog = bytearray(good)
    sof = prog.index(b"\xff\xc0")
    prog[sof + 1] = 0xC2
    with pytest.raises(ValueError):
        decode_jpeg(bytes(prog))
    # entropy truncation surfaces as ValueError (never IndexError)
    with pytest.raises(ValueError):
        decode_jpeg(good[:-20] + b"\xff\xd9")


def test_jpeg_decode_stage_end_to_end():
    """The non-fake decode branch over the JPEG synth corpus: actor
    pool, px_sum exact against the digest invariant, recovery payloads
    (every 8th has a garbage prefix) decoded through the registry."""
    import hashlib

    import ray.data
    from image_deduper_ray.stages.jpegcodec import synth_jpeg_table
    from image_deduper_ray.stages.multimodal import decode_features

    t = synth_jpeg_table(n=16)
    out = decode_features(ray.data.from_arrow(t), fake=False) \
        .to_pandas().set_index("media_id").sort_index()
    for i in range(16):
        d = hashlib.sha256(f"jpeg-{i}-42".encode()).digest()
        assert out.loc[i, "px_sum"] == 3 * 64 * sum(d), i
        assert (out.loc[i, "width"], out.loc[i, "height"]) == (64, 32)


def test_corrupt_payload_falls_through_not_task_kill():
    """ADVICE round-4 regression: corrupt payloads with a VALID magic
    raise more than ValueError from the built-in decoders — zlib.error
    from a corrupt PNG IDAT, struct.error from a truncated TIFF IFD.
    With a codec present these must fall through to it (proven here
    with a stub PIL that records the call); without one they must
    surface per the row contract — never escape as a raw zlib/struct
    error that kills the whole map_batches task."""
    import struct
    import zlib

    from image_deduper_ray.stages.multimodal import (DecodeStage,
                                                     encode_png,
                                                     synth_tiff_table)

    # corrupt PNG: valid signature+IHDR, IDAT bytes are not a zlib
    # stream -> zlib.error inside decode_png
    good_png = encode_png(np.zeros((4, 4, 3), np.uint8))
    idat = good_png.index(b"IDAT")
    bad_png = bytearray(good_png)
    bad_png[idat + 4:idat + 12] = b"\xff" * 8
    bad_png = bytes(bad_png)
    # truncated TIFF: valid magic, IFD cut short -> struct.error
    bad_tiff = synth_tiff_table(n=1)["payload"][0].as_py()[:12]

    # sanity: the raw decoders do raise the non-ValueError types
    from image_deduper_ray.stages.multimodal import decode_png, decode_tiff
    with pytest.raises(zlib.error):
        decode_png(bad_png)
    with pytest.raises(struct.error):
        decode_tiff(bad_tiff)

    class _StubCodec:                       # stands in for PIL.Image
        calls = []

        @staticmethod
        def open(bio):
            _StubCodec.calls.append(bio.read()[:4])
            raise _Reached()

    class _Reached(Exception):
        pass

    stage = DecodeStage(fake=True)          # avoid the probe
    stage.fake = False
    stage._pil_image = _StubCodec
    for payload in (bad_png, bad_tiff):
        with pytest.raises(_Reached):       # fell THROUGH, not out
            stage._real_decode(payload, "image")
    assert len(_StubCodec.calls) == 2

    # codec-less: the error surfaces (row contract) but as the decoder
    # exception, not a task-killing escape of an unexpected type — the
    # stage wrapper turns it into a per-row decision either way
    stage._pil_image = None
    with pytest.raises((ValueError, zlib.error, struct.error)):
        stage._real_decode(bad_png, "image")


def test_ppm_decoder_roundtrip_and_rejects():
    """decode_ppm must invert encode_ppm (with and without header
    comments), refuse 16-bit and truncated payloads, and match the
    digest sums on the synth corpus."""
    import hashlib

    from image_deduper_ray.stages.multimodal import (decode_ppm,
                                                     encode_ppm,
                                                     synth_ppm_table)

    rng = np.random.default_rng(11)
    for comment in (None, "hello # tricky"):
        px = rng.integers(0, 256, size=(3, 7, 3), dtype=np.uint8)
        w, h, out = decode_ppm(encode_ppm(px, comment=comment))
        assert (w, h) == (7, 3)
        np.testing.assert_array_equal(out, px)

    with pytest.raises(ValueError):
        decode_ppm(b"P5 1 1 255 x")
    with pytest.raises(ValueError):
        decode_ppm(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(ValueError):
        decode_ppm(b"P6\n4 4\n255\n\x00\x01")  # truncated

    t = synth_ppm_table(n=6)
    for i, payload in enumerate(t["payload"].to_pylist()):
        w, h, px = decode_ppm(payload)
        hx = hashlib.sha256(f"ppm-{i}-42".encode()).hexdigest() * 3
        assert (w, h) == (8, 4)
        assert int(px.sum()) == sum(bytes.fromhex(hx))


def test_gif_lzw_roundtrip_and_conventions():
    """GIF LZW is NOT the TIFF LZW with a flag: LSB-first packing, no
    early-change bump, variable minimum code size. Roundtrip across
    min code sizes and sizes big enough to grow codes to 12 bits and
    trigger the table-reset Clear; decode rejects a stream that does
    not start with Clear and codes beyond the table."""
    from image_deduper_ray.stages.gifcodec import (gif_lzw_decode,
                                                   gif_lzw_encode)

    rng = np.random.default_rng(7)
    for mcs in (2, 4, 8):
        for size in (0, 1, 10, 1000, 20000):
            data = rng.integers(0, 1 << mcs, size).astype(np.uint8) \
                .tobytes()
            assert gif_lzw_decode(gif_lzw_encode(data, mcs), mcs) == data
    # repetitive data drives table growth fastest (deep prefixes)
    data = b"abcd" * 6000
    assert gif_lzw_decode(gif_lzw_encode(data, 8), 8) == data

    with pytest.raises(ValueError):
        gif_lzw_decode(b"\x00\x00", 8)      # code 0 before Clear
    with pytest.raises(ValueError):
        gif_lzw_encode(b"", 1)              # mcs below GIF minimum
    # truncation clamps at EOF instead of raising (real-decoder
    # tolerance; the container layer decides via the pixel count)
    enc = gif_lzw_encode(b"abcdefgh" * 40, 8)
    short = gif_lzw_decode(enc[: len(enc) // 2], 8)
    assert (b"abcdefgh" * 40).startswith(short) and 0 < len(short) < 320


def test_gif_container_roundtrip_variants():
    """encode_gif -> decode_gif is pixel-exact across every variant the
    synth corpus cycles: 87a/89a+GCE, global/local color table,
    sequential/4-pass interlaced; rejects cover bad magic, truncated
    descriptors, missing color table and >256 colors."""
    from image_deduper_ray.stages.gifcodec import decode_gif, encode_gif

    rng = np.random.default_rng(13)
    for interlace in (False, True):
        for local in (False, True):
            for ver, gce in ((b"GIF87a", False), (b"GIF89a", True)):
                px = ((rng.integers(0, 256, (16, 13, 3)) // 32) * 32) \
                    .astype(np.uint8)
                p = encode_gif(px, interlace=interlace,
                               local_palette=local, version=ver,
                               with_gce=gce)
                w, h, out = decode_gif(p)
                assert (w, h) == (13, 16)
                np.testing.assert_array_equal(out, px)

    with pytest.raises(ValueError):
        decode_gif(b"nope")
    with pytest.raises(ValueError):
        decode_gif(b"GIF89a\x01\x00")       # truncated LSD
    with pytest.raises(ValueError):
        # no global table, image descriptor without local table
        decode_gif(b"GIF89a" + b"\x02\x00\x02\x00\x00\x00\x00"
                   + b"\x2c" + b"\x00" * 8 + b"\x00")
    with pytest.raises(ValueError):
        i = np.arange(300)
        many = np.stack([i % 256, i // 256, np.zeros_like(i)], axis=1) \
            .astype(np.uint8).reshape(10, 30, 3)   # 300 unique colors
        encode_gif(many)


def test_gif_truncation_tolerance_and_stage_end_to_end():
    """A GIF whose pixel data is cut mid-stream still decodes (missing
    rows pad with the background color) — the behavior real decoders
    exhibit on a real-world truncated earth.gif. And the non-fake
    DecodeStage over the synth corpus matches the digest px_sum
    invariant end to end through the registry dispatch."""
    import hashlib

    import ray.data
    from image_deduper_ray.stages.gifcodec import (decode_gif,
                                                   encode_gif,
                                                   synth_gif_table)
    from image_deduper_ray.stages.multimodal import decode_features

    rng = np.random.default_rng(17)
    px = (rng.integers(0, 8, (32, 32, 1)) * 30).astype(np.uint8) \
        .repeat(3, axis=2)
    p = encode_gif(px)
    w, h, out = decode_gif(p[: len(p) // 2])
    assert (w, h, out.shape) == (32, 32, (32, 32, 3))
    # the decoded prefix is intact; only the tail is padded
    flat_in, flat_out = px.reshape(-1, 3), out.reshape(-1, 3)
    n_exact = int((flat_in == flat_out).all(axis=1).sum())
    assert n_exact >= len(flat_in) // 4

    t = synth_gif_table(n=16)
    res = decode_features(ray.data.from_arrow(t), fake=False) \
        .to_pandas().set_index("media_id").sort_index()
    for i in range(16):
        hx = hashlib.sha256(f"gif-{i}-42".encode()).hexdigest() * 3
        assert res.loc[i, "px_sum"] == sum(bytes.fromhex(hx)), i
        assert (res.loc[i, "width"], res.loc[i, "height"]) == (8, 4)


def test_hll_registers_estimate_and_merge(ray_session):
    """The register table must (a) fold to an estimate within the
    standard HLL error envelope of the exact distinct count, and (b)
    merge associatively: registers over two disjoint halves MAX-merge
    to exactly the registers over the union — the property that makes
    the sketch the 10^12-row distinct path."""
    import duckdb

    from image_deduper_ray.pipelines.events import (hll_estimate,
                                                    hll_user_registers)

    regs = hll_user_registers(SF).to_pandas()
    exact = duckdb.sql(
        f"SELECT COUNT(DISTINCT user_id) c FROM "
        f"read_parquet('{SF}/events.parquet')").fetchone()[0]
    est = hll_estimate(regs)
    # p=12 standard error is 1.04/sqrt(4096) ~ 1.6%; linear counting at
    # this cardinality is tighter still — allow 5%
    assert abs(est - exact) / exact < 0.05, (est, exact)

    # associativity on a deterministic split: rank is a pure function
    # of user_id, so per-half registers are computable directly
    import hashlib as _hl
    regs_map: dict[int, int] = {}
    for u in range(0, 50):
        h = _hl.sha256(str(u).encode()).hexdigest()
        b, v = int(h[:3], 16), int(h[3:15], 16)
        r = 49 - v.bit_length() if v else 49
        regs_map[b] = max(regs_map.get(b, 0), r)
    halves: dict[int, int] = {}
    for lo, hi in ((0, 25), (25, 50)):
        for u in range(lo, hi):
            h = _hl.sha256(str(u).encode()).hexdigest()
            b, v = int(h[:3], 16), int(h[3:15], 16)
            r = 49 - v.bit_length() if v else 49
            halves[b] = max(halves.get(b, 0), r)
    assert halves == regs_map


def test_cross_format_groups_all_six_codecs_agree(ray_session):
    """The same pixels encoded as BMP / PNG / TIFF / PPM / GIF / JPEG
    must decode bit-identically through the registry, hash to the
    identical pHash, and group together — and a perturbed group must
    NOT merge with its original. Exercises every built-in decoder in
    one distributed run."""
    import ray.data
    from image_deduper_ray.stages.multimodal import (
        cross_format_phash_groups, decode_image_builtin,
        synth_cross_format_table)

    t = synth_cross_format_table(n_groups=8)
    # decoder agreement, directly: all six payloads of a group decode
    # to the same array
    payloads = t["payload"].to_pylist()
    ref = decode_image_builtin(payloads[0])[2]
    for p in payloads[1:6]:
        np.testing.assert_array_equal(decode_image_builtin(p)[2], ref)

    out = cross_format_phash_groups(ray.data.from_arrow(t)) \
        .to_pandas().sort_values("media_id").reset_index(drop=True)
    assert len(out) == 48
    for g in range(8):
        rows = out[out.media_id // 6 == g]
        assert rows.group_id.nunique() == 1
        assert rows.group_id.iloc[0] == 6 * g
        assert rows.phash.nunique() == 1
    assert out.group_id.nunique() == 8


def test_phash64_properties():
    """Strict mean threshold: a constant image hashes to all-zero bits
    (64*luma == sum, never >); a half-bright image sets exactly the
    bright half; format(+packing) round-trips through the hex string."""
    import numpy as np
    from image_deduper_ray.stages.multimodal import phash64

    flat = np.full((8, 8, 3), 77, np.uint8)
    assert phash64(flat) == 0

    half = np.zeros((8, 8, 3), np.uint8)
    half[:, 4:, :] = 200                  # right half bright
    v = phash64(half)
    want = 0
    for p in range(64):
        if p % 8 >= 4:
            want |= 1 << p
    assert v == want

    # nearest-neighbor resize: 16x8 downsamples columns by 2
    wide = np.zeros((8, 16, 3), np.uint8)
    wide[:, 8:, :] = 200
    assert phash64(wide) == want


def test_phash_enhanced_packing_and_properties():
    """Reference [u64;16] packing (core.rs:109-154): pixel p = y*32+x
    sets bit p%64 of word p//64; constant images hash all-zero under
    the strict mean rule; a scalar re-derivation of the packing agrees
    word for word on a random image."""
    import numpy as np
    from image_deduper_ray.stages.multimodal import phash_enhanced

    flat = np.full((32, 32, 3), 123, np.uint8)
    assert phash_enhanced(flat).tolist() == [0] * 16

    rng = np.random.default_rng(7)
    px = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    arr = phash_enhanced(px)
    luma = (299 * px[:, :, 0].astype(np.int64)
            + 587 * px[:, :, 1].astype(np.int64)
            + 114 * px[:, :, 2].astype(np.int64)).reshape(-1)
    want = [0] * 16
    for p in range(1024):
        if 1024 * luma[p] > luma.sum():
            want[p // 64] |= 1 << (p % 64)
    assert [int(v) for v in arr] == want

    # nearest-neighbor floor sampling: a 64x64 image whose 2x2 blocks
    # are constant hashes identically to its 32x32 downsample
    big = np.repeat(np.repeat(px, 2, axis=0), 2, axis=1)
    assert phash_enhanced(big).tolist() == arr.tolist()


def test_phash_distance_variant_rules():
    """PHash::distance parity (types.rs:19-45): equal variants XOR the
    whole hash; mixed compares the standard word against enhanced word
    0 only — and is_similar (types.rs:47-59) scales the threshold by
    16 for enhanced x enhanced, not for mixed."""
    from image_deduper_ray.stages.multimodal import (phash_distance,
                                                     phash_similar)

    std_a = format(0b1011, "016x")
    std_b = format(0b0010, "016x")
    assert phash_distance(std_a, std_b) == 2       # bits 0 and 3

    enh_a = "0" * 256
    # word 0 differs in 2 bits, word 5 in 3 bits
    words = [0] * 16
    words[0] = 0b101
    words[5] = 0b111
    enh_b = "".join(format(w, "016x") for w in words)
    assert phash_distance(enh_a, enh_b) == 5
    # mixed: only word 0 of the enhanced side counts
    assert phash_distance(std_b, enh_b) == phash_distance(enh_b, std_b) == 3

    # is_similar scaling: d=5 fails std threshold 3 but passes the
    # enhanced-pair scaled threshold 48; mixed d=3 passes unscaled
    assert not phash_similar(std_a, std_b, 1)
    assert phash_similar(enh_a, enh_b, 3)
    assert phash_similar(std_b, enh_b, 3)
    assert not phash_similar(std_b, enh_b, 2)


def test_enhanced_phash_groups_thresholds(ray_session):
    """Enhanced pairs group at the SCALED threshold (<=48 over 1024
    bits) and split beyond it; the planted distance is checked against
    ``phash_distance`` first so the test pins the pipeline to the
    scalar rule, not to luck."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from image_deduper_ray.stages.multimodal import (
        MEDIA_SCHEMA, enhanced_phash_groups, encode_bmp_24,
        phash_distance, phash_enhanced_hex)

    rng = np.random.default_rng(11)
    base = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)

    def flipped(n_pix, seed):
        r = np.random.default_rng(seed)
        out = base.copy()
        idx = r.choice(1024, n_pix, replace=False)
        out.reshape(1024, 3)[idx] = 255
        return out

    near = flipped(12, 1)          # few flips -> d <= 48
    far = flipped(300, 2)          # many flips -> d > 48
    d_near = phash_distance(phash_enhanced_hex(base),
                            phash_enhanced_hex(near))
    d_far = phash_distance(phash_enhanced_hex(base),
                           phash_enhanced_hex(far))
    assert 3 < d_near <= 48, d_near   # beyond pass A, inside pass B
    assert d_far > 48, d_far

    rows = [encode_bmp_24(p) for p in (base, near, far)]
    media = ray.data.from_arrow(pa.table({
        "media_id": pa.array([0, 1, 2], pa.int64()),
        "kind": pa.array(["image"] * 3, pa.string()),
        "payload": pa.array(rows, pa.binary()),
        "meta": pa.array(['{"claimed": "bmp"}'] * 3, pa.string()),
    }, schema=MEDIA_SCHEMA))
    out = enhanced_phash_groups(media).to_pandas() \
        .set_index("media_id").sort_index()
    assert (out["variant"] == "enhanced").all()
    assert out.loc[0, "group_id"] == out.loc[1, "group_id"]
    assert out.loc[2, "group_id"] != out.loc[0, "group_id"]


def test_entry_smoke():
    import __ray_entry__ as entry

    ds = entry.entry()
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else pd.DataFrame(ds)
    assert len(df) >= 0
    assert {"doc_id", "cluster_id"} <= set(df.columns)
    assert len(df) == 500


def test_simhash_groups_matches_scalar_reference():
    """The distributed rebuild (shared signature task kernel, partitioned
    pair-gen, connected_components, join-based label attach) must produce
    the SAME partition as the straightforward scalar reference:
    per-doc simhash -> 4x16-bit bands -> Hamming<=3 pairs -> union-find."""
    import pyarrow.parquet as pq
    from image_deduper_ray.functions import hashing, minhash as mh
    from image_deduper_ray.functions import tokenize as tok
    from image_deduper_ray.pipelines.docdedup import simhash_groups

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text", "lang"])
    sims = {}
    for did, text, lang in zip(t["doc_id"].to_pylist(),
                               t["text"].to_pylist(), t["lang"].to_pylist()):
        tokens = tok.tokenize(text, lang)
        th = np.array([hashing.token_hash64(x) for x in tokens],
                      dtype=np.uint64)
        sims[did] = mh.simhash64(hashing.shingle_hashes(th, 5))

    buckets: dict = {}
    for did, sh in sims.items():
        for c in range(4):
            buckets.setdefault((c, (sh >> (16 * c)) & 0xFFFF), []).append(did)
    parent = {d: d for d in sims}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in buckets.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                if bin(sims[a] ^ sims[b]).count("1") <= 3:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
    expect = {d: find(d) for d in sims}

    got = simhash_groups(SF).to_pandas()
    got_map = dict(zip(got.doc_id, got.group_id))
    assert got_map == expect


def test_ngram_df_cap_subset():
    from image_deduper_ray.pipelines.docdedup import ngram_jaccard_pairs

    exact = ngram_jaccard_pairs(SF, n=3, tau=0.1).to_pandas()
    capped = ngram_jaccard_pairs(SF, n=3, tau=0.1, df_cap=3).to_pandas()
    e = set(zip(exact.a, exact.b))
    c = set(zip(capped.a, capped.b))
    assert c <= e  # df-capped pair-gen only drops, never invents


def test_near_dup_lsh_route_recall():
    from image_deduper_ray.pipelines.ann import near_dup_pairs

    exact = near_dup_pairs(SF, tau=0.35, method="exact").to_pandas()
    approx = near_dup_pairs(SF, tau=0.35, method="lsh").to_pandas()
    e = set(zip(exact.a, exact.b))
    a = set(zip(approx.a, approx.b))
    assert a <= e                      # in-bucket rerank is exact: no FPs
    assert len(e & a) / max(len(e), 1) > 0.5   # multi-table recall


def test_media_external_probe_matches_hashlib():
    """M15 analog: the subprocess-per-row external tool stage must agree
    with an in-process sha256 over the same payloads."""
    import hashlib
    import ray.data
    from image_deduper_ray.stages.multimodal import (external_probe,
                                                     synth_media_table)

    t = synth_media_table(n=16)
    expect = {i: hashlib.sha256(p).hexdigest()
              for i, p in zip(t["media_id"].to_pylist(),
                              t["payload"].to_pylist())}
    out = external_probe(ray.data.from_arrow(t)).to_pandas()
    assert (out["tool_rc"] == 0).all()
    got = dict(zip(out.media_id, out.ext_sha256))
    assert got == expect


def test_hopping_degenerates_to_tumbling():
    """With window == hop every event lands in exactly one window, so
    the hopping operator must reproduce the tumbling hourly aggregate
    row for row — pins the explode arithmetic (offsets, alignment,
    cents) against the independently-oracled tumbling path."""
    from image_deduper_ray.pipelines.events import (hopping_event_counts,
                                                    windowed_event_counts)

    def norm(ds):
        df = ds.to_pandas()
        return df.sort_values(["window_start", "event_type"]) \
            .reset_index(drop=True)

    pd.testing.assert_frame_equal(
        norm(hopping_event_counts(SF, window_min=60, hop_min=60)),
        norm(windowed_event_counts(SF, window="hour")),
        check_dtype=False)


def test_windowed_counts_hour_boundaries(tmp_path):
    """Window semantics pinned at hour edges: ts exactly on the boundary
    belongs to the NEW window (floor_temporal == date_trunc), one
    microsecond before belongs to the old one."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    from image_deduper_ray.pipelines.events import windowed_event_counts

    ts = pa.array([
        pd.Timestamp("2024-03-10 00:59:59.999999"),
        pd.Timestamp("2024-03-10 01:00:00.000000"),
        pd.Timestamp("2024-03-10 01:00:00.000001"),
        pd.Timestamp("2024-03-10 01:59:59.999999"),
        pd.Timestamp("2024-03-10 02:00:00.000000"),
    ], pa.timestamp("us"))
    t = pa.table({"ts": ts,
                  "event_type": pa.array(["x"] * 5),
                  "value": pa.array([1.005, 2.0, 3.0, 4.0, 5.0])})
    d = str(tmp_path)
    pq.write_table(t, f"{d}/events.parquet")

    got = windowed_event_counts(d).to_pandas() \
        .sort_values("window_start").reset_index(drop=True)
    con = duckdb.connect()
    want = con.sql(
        f"SELECT date_trunc('hour', ts) AS window_start, event_type, "
        f"COUNT(*) AS n_events, "
        f"CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT) "
        f"AS sum_value_cents "
        f"FROM read_parquet('{d}/events.parquet') GROUP BY 1, 2 "
        f"ORDER BY window_start").df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert list(got["n_events"]) == [1, 3, 1]


def _write_events(tmp_path, rows):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([pd.Timestamp(r[1]) for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string())})
    d = str(tmp_path)
    pq.write_table(t, f"{d}/events.parquet")
    return d


def test_asof_tie_break_and_user_isolation(tmp_path):
    """As-of semantics pinned: ts tie -> largest event_id wins; equal ts
    matches (<=); a user with no prior 'view' must NOT match another
    user's rows (packed-key band isolation)."""
    from image_deduper_ray.pipelines.events import asof_match

    d = _write_events(tmp_path, [
        (1, "2024-01-01 10:00:00", 7, "view"),
        (2, "2024-01-01 10:00:00", 7, "view"),   # tie: same ts as id=1
        (3, "2024-01-01 10:00:00", 7, "click"),  # equal ts -> match id=2
        (4, "2024-01-01 11:00:00", 7, "click"),  # -> still id=2
        (5, "2024-01-01 09:00:00", 8, "click"),  # user 8 has no view
        (6, "2024-01-01 12:00:00", 9, "view"),
        (7, "2024-01-01 11:59:59", 9, "click"),  # view is later -> drop
    ])
    got = asof_match(d).to_pandas().sort_values("event_id",
                                                ignore_index=True)
    assert list(got["event_id"]) == [3, 4]
    assert list(got["matched_event_id"]) == [2, 2]


def test_asof_and_range_fallback_path(tmp_path):
    """user_id magnitudes that cannot pack with the ts span into 62
    bits route both operators through the per-user-segment fallback;
    results must equal the DuckDB reconstruction either way."""
    import duckdb
    from image_deduper_ray.pipelines.events import asof_match, range_join

    big = 1 << 55
    d = _write_events(tmp_path, [
        (1, "2024-01-01 10:00:00", big, "view"),
        (2, "2024-01-01 10:30:00", big, "click"),
        (3, "2024-01-01 10:00:10", big + 1, "click"),
        (4, "2024-01-01 09:59:00", big + 1, "view"),
        (5, "2024-01-01 10:40:00", big, "error"),  # click id=2 in window
        (6, "2025-06-01 00:00:00", big, "view"),  # multi-year span
        (7, "2025-06-01 00:00:01", big, "click"),
    ])
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{d}/events.parquet')")
    import __ray_entry__ as entry

    _compare(asof_match(d), entry.oracle_sql()["e_asof_join"], con)
    _compare(range_join(d), entry.oracle_sql()["e_range_join"], con)


def test_asof_and_range_random_tie_heavy(tmp_path):
    """Randomized engine-vs-DuckDB comparison on tie-heavy data: few
    users, timestamps on a coarse grid so equal-ts collisions (the
    tie-break-sensitive case) occur constantly."""
    import duckdb
    import __ray_entry__ as entry
    from image_deduper_ray.pipelines.events import asof_match, range_join

    rng = np.random.default_rng(42)
    n = 400
    rows = []
    base = pd.Timestamp("2024-01-01").value // 1000
    for i in range(n):
        ts_us = base + int(rng.integers(0, 50)) * 600_000_000  # 10-min grid
        rows.append((i, pd.Timestamp(ts_us * 1000),
                     int(rng.integers(0, 5)),
                     str(rng.choice(["view", "click", "error"]))))
    d = _write_events(tmp_path, rows)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{d}/events.parquet')")
    _compare(asof_match(d), entry.oracle_sql()["e_asof_join"], con)
    _compare(range_join(d), entry.oracle_sql()["e_range_join"], con)


def test_emb_dedup_canonical_invariants():
    """Structural invariants of the embedding dedup assignment, on top
    of the exact oracle equality: canonical is the component min (so
    never exceeds the member id), canonicals map to themselves, and the
    survivor set equals the distinct canonical set."""
    from image_deduper_ray.pipelines.ann import dedup_canonical

    df = dedup_canonical(SF, tau=0.35).to_pandas()
    assert (df["canonical_id"] <= df["vec_id"]).all()
    canon = dict(zip(df["vec_id"], df["canonical_id"]))
    assert all(canon[c] == c for c in df["canonical_id"].unique())
    survivors = set(df.loc[df.vec_id == df.canonical_id, "vec_id"])
    assert survivors == set(df["canonical_id"].unique())


def test_dedup_canonical_lsh_route_runs():
    """The LSH-bucketed scale route produces a full assignment with the
    same invariants (approximate pair graph, so labels may differ from
    exact — the structure must not)."""
    from image_deduper_ray.pipelines.ann import dedup_canonical

    df = dedup_canonical(SF, tau=0.35, method="lsh").to_pandas()
    assert len(df) == 500
    assert (df["canonical_id"] <= df["vec_id"]).all()
    canon = dict(zip(df["vec_id"], df["canonical_id"]))
    assert all(canon[c] == c for c in df["canonical_id"].unique())


def test_containment_pairs_planted(tmp_path):
    """Planted containments: inner docs embedded verbatim inside hosts
    (start / middle / end, whitespace-aligned) plus decoys — engine must
    equal the DuckDB strpos oracle on a corpus it has never seen."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    import __ray_entry__ as entry
    from image_deduper_ray.pipelines.docdedup import containment_pairs

    inner = "alpha beta gamma delta epsilon zeta eta theta " \
            "iota kappa lambda mu nu xi omicron pi"
    assert len(inner) >= 64
    docs = [
        (0, inner),                                   # the contained doc
        (1, inner + " rho sigma tau upsilon phi"),    # host: prefix
        (2, "pre amble words here " + inner),         # host: suffix
        (3, "left side " + inner + " right side"),    # host: middle
        (4, "unrelated content " + " ".join(f"w{i}" for i in range(30))),
        (5, inner.replace("delta", "DELTA") + " extra tail words here"),
    ]
    t = pa.table({"doc_id": pa.array([d for d, _ in docs], pa.int64()),
                  "text": pa.array([x for _, x in docs], pa.string()),
                  "lang": pa.array(["en"] * len(docs)),
                  "source": pa.array(["t"] * len(docs)),
                  "n_chars": pa.array([len(x) for _, x in docs], pa.int64())})
    d = str(tmp_path)
    pq.write_table(t, f"{d}/documents.parquet")
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
    _compare(containment_pairs(d),
             entry.oracle_sql()["doc_containment_pairs"], con)


def test_containment_pairs_midtoken_limit(tmp_path):
    """The documented boundary of the shingle premise: a host embedding
    the inner text WITHOUT a whitespace boundary ("xx" + inner) is a
    strpos hit the gram candidates cannot see. Pin the behavior: the
    engine returns the aligned hosts and skips the mid-token one."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from image_deduper_ray.pipelines.docdedup import containment_pairs

    inner = "alpha beta gamma delta epsilon zeta eta theta " \
            "iota kappa lambda mu nu xi omicron pi"
    docs = [(0, inner), (1, "ok host " + inner), (2, "xx" + inner)]
    t = pa.table({"doc_id": pa.array([d for d, _ in docs], pa.int64()),
                  "text": pa.array([x for _, x in docs], pa.string()),
                  "lang": pa.array(["en"] * 3),
                  "source": pa.array(["t"] * 3),
                  "n_chars": pa.array([len(x) for _, x in docs], pa.int64())})
    d = str(tmp_path)
    pq.write_table(t, f"{d}/documents.parquet")
    got = set(map(tuple, containment_pairs(d).to_pandas().to_numpy()))
    assert (0, 1) in got
    assert (0, 2) not in got   # mid-token embed: outside the premise


def test_block_pair_tiling_chunked_equals_unchunked():
    """The in-task sub-tile chunking (memory bound for the exact
    all-pairs route) must not change results: force tiny chunks so a
    single task spans many sub-tiles, including diagonal ones, and
    compare against the default-path output."""
    from image_deduper_ray.pipelines import ann

    base = ann.near_dup_pairs(SF, tau=0.35, method="exact").to_pandas()
    # width ships as an explicit task arg (a module-global monkeypatch
    # would not reach the worker processes): prime width < 500 rows
    # forces many sub-tiles incl. diagonal ones inside one task
    tiny = ann.near_dup_pairs(SF, tau=0.35, method="exact",
                              tile_max_rows=97).to_pandas()
    key = ["a", "b"]
    pd.testing.assert_frame_equal(
        base.sort_values(key).reset_index(drop=True),
        tiny.sort_values(key).reset_index(drop=True))


def test_rollup_grains_are_consistent():
    """The rollup's coarser grains must be exact integer re-aggregations
    of the finest grain: per-flag subtotals equal the sums of their fine
    rows, the grand total equals the sum of everything, and the row
    count is fine + |flags| + 1."""
    from image_deduper_ray.pipelines.relational import (pricing_summary,
                                                        rollup_revenue)

    fine = pricing_summary(SF).to_pandas()
    out = rollup_revenue(SF).to_pandas()
    measures = ["sum_qty", "sum_base_cents", "sum_disc_bp", "n_rows"]

    is_fine = (out["l_returnflag"] != "ALL") & (out["l_linestatus"] != "ALL")
    is_flag = (out["l_returnflag"] != "ALL") & (out["l_linestatus"] == "ALL")
    is_grand = (out["l_returnflag"] == "ALL") & (out["l_linestatus"] == "ALL")
    assert is_grand.sum() == 1
    assert is_flag.sum() == fine["l_returnflag"].nunique()
    assert is_fine.sum() == len(fine)
    assert len(out) == len(fine) + fine["l_returnflag"].nunique() + 1

    for m in measures:
        assert out.loc[is_grand, m].iloc[0] == fine[m].sum()
    for flag, grp in fine.groupby("l_returnflag"):
        sub = out[is_flag & (out["l_returnflag"] == flag)]
        assert len(sub) == 1
        for m in measures:
            assert sub[m].iloc[0] == grp[m].sum()


def test_topk_docs_per_lang_rank_semantics():
    """Grouped top-k invariants: at most k rows per lang with dense
    ranks 1..n; within a lang n_tokens is non-increasing and ties break
    to the lower doc_id; and with k >= corpus size the operator
    degenerates to a full per-lang ranking (every doc appears)."""
    from image_deduper_ray.pipelines.textops import topk_docs_per_lang

    k = 3
    df = topk_docs_per_lang(SF, k=k).to_pandas() \
        .sort_values(["lang", "rank"]).reset_index(drop=True)
    for _, grp in df.groupby("lang"):
        assert len(grp) <= k
        assert list(grp["rank"]) == list(range(1, len(grp) + 1))
        pairs = list(zip(-grp["n_tokens"], grp["doc_id"]))
        assert pairs == sorted(pairs)

    full = topk_docs_per_lang(SF, k=1 << 30).to_pandas()
    import duckdb
    n_docs = duckdb.sql(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/documents.parquet')"
    ).fetchone()[0]
    assert len(full) == n_docs


def test_bloom_never_misses_exact_hits():
    """Bloom filters admit false positives but never false negatives:
    every doc the exact decontaminate flags must be flagged by the
    Bloom variant, with at least as many gram hits (same n, same
    benchmark slice)."""
    from image_deduper_ray.pipelines.textops import (bloom_decontaminate,
                                                     decontaminate)

    exact = decontaminate(SF).to_pandas().set_index("doc_id") \
        .sort_index()
    bloom = bloom_decontaminate(SF).to_pandas().set_index("doc_id") \
        .sort_index()
    assert list(exact.index) == list(bloom.index)
    assert (bloom["n_bloom_hits"] >= exact["n_hit_grams"]).all()
    assert bool(exact["contaminated"].any())  # the invariant is non-vacuous
    assert (bloom.loc[exact["contaminated"], "bloom_contaminated"]).all()


def test_semantic_prune_flag_is_exact():
    """Recompute the prune flag with numpy from the operator's own
    cluster assignment: a row is pruned iff some LOWER-vec_id
    cluster-mate sits within cosine >= tau; the lowest vec_id of every
    cluster is never pruned."""
    import pyarrow.parquet as pq

    from image_deduper_ray.pipelines.ann import semantic_prune

    tau = 0.35
    out = semantic_prune(SF, n_centroids=8, tau=tau).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    emb = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas()
    assert len(out) == len(emb)
    M = np.stack(emb.sort_values("vec_id")["embedding"].to_numpy())
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    vid = out["vec_id"].to_numpy()
    assert (vid == np.sort(emb["vec_id"].to_numpy())).all()

    n_pruned = 0
    for _, grp in out.groupby("cluster_id"):
        idx = grp.index.to_numpy()  # rows sorted by vec_id already
        sims = M[idx] @ M[idx].T
        earlier_close = (np.tril(sims, -1) >= tau).any(axis=1)
        assert (grp["pruned"].to_numpy() == earlier_close).all()
        assert not grp["pruned"].iloc[0]  # cluster's first row survives
        n_pruned += int(earlier_close.sum())
    assert n_pruned > 0  # tau=0.35 at sf0.001 must prune something


def test_semijoin_counts_each_order_once(tmp_path):
    """Semi-join semantics pinned: an order with MANY qualifying
    lineitems is counted once (no inner-join row expansion); an order
    with none, or outside the date window, is not counted at all."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_deduper_ray.pipelines.relational import (
        order_priority_semijoin)

    d = str(tmp_path)
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_orderdate": pa.array([pd.Timestamp("1996-02-01")] * 3
                                + [pd.Timestamp("1995-02-01")],
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT", "1-URGENT", "5-LOW",
                                     "1-URGENT"])}),
        f"{d}/orders.parquet")
    pq.write_table(pa.table({
        # order 1: three 'R' lineitems -> ONE count; order 2: only 'N'
        # -> zero; order 3: one 'R'; order 4: 'R' but out of window
        "l_orderkey": pa.array([1, 1, 1, 2, 3, 4], pa.int64()),
        "l_returnflag": pa.array(["R", "R", "R", "N", "R", "R"])}),
        f"{d}/lineitem.parquet")

    got = order_priority_semijoin(d).to_pandas() \
        .sort_values("o_orderpriority").reset_index(drop=True)
    assert list(got["o_orderpriority"]) == ["1-URGENT", "5-LOW"]
    assert list(got["order_count"]) == [1, 1]


def test_pack_sequences_boundary_stitch():
    """Force ~5-doc ranges so nearly every range carries an offset from
    its predecessors: the two-pass distributed prefix sum must equal a
    single flat numpy cumsum over doc_id order, bit for bit."""
    import re

    import pyarrow.parquet as pq

    from image_deduper_ray.pipelines.textops import pack_sequences

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    order = np.argsort(t["doc_id"].to_numpy())
    texts = np.array(t["text"].to_pylist(), object)[order]
    n = np.array([len(re.findall(r"\S+", s)) for s in texts], np.int64)
    cb = np.concatenate([[0], np.cumsum(n)[:-1]])
    expect = pd.DataFrame({
        "doc_id": t["doc_id"].to_numpy()[order],
        "n_tokens": n, "bin_id": cb // 2048,
        "offset_tokens": cb % 2048})

    got = pack_sequences(SF, num_ranges=97).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["doc_id", "n_tokens", "bin_id", "offset_tokens"]],
        expect.reset_index(drop=True), check_dtype=False)


def test_funnel_deadline_and_order_semantics(con):
    """A stage event BEFORE the previous stage's completion, or past
    the step deadline, must not advance the funnel — pinned by running
    the engine with a tight 1-hour deadline against the equivalent
    SQL (attrition guaranteed: the synthetic events are ~7 h apart)."""
    from image_deduper_ray.pipelines.events import funnel_counts

    sql = ("WITH s1 AS (SELECT user_id, MIN(ts) AS t1 FROM events "
           "  WHERE event_type = 'signup' GROUP BY user_id), "
           "s2 AS (SELECT e.user_id, MIN(ts) AS t2 FROM events e "
           "  JOIN s1 ON e.user_id = s1.user_id "
           "  WHERE event_type = 'click' AND ts >= t1 "
           "  AND epoch_us(ts) - epoch_us(t1) <= 3600000000 "
           "  GROUP BY e.user_id), "
           "s3 AS (SELECT e.user_id, MIN(ts) AS t3 FROM events e "
           "  JOIN s2 ON e.user_id = s2.user_id "
           "  WHERE event_type = 'purchase' AND ts >= t2 "
           "  AND epoch_us(ts) - epoch_us(t2) <= 3600000000 "
           "  GROUP BY e.user_id) "
           "SELECT stage, n_users FROM ("
           "  SELECT 1 AS stage, COUNT(*) AS n_users FROM s1 "
           "  UNION ALL SELECT 2, COUNT(*) FROM s2 "
           "  UNION ALL SELECT 3, COUNT(*) FROM s3)")
    _compare(funnel_counts(SF, step_window_s=3600), sql, con)


def test_q17_other_brand_parameterization(con):
    # different brand set than the registered query: the threshold
    # aggregate and broadcast must re-derive, not bake constants
    from image_deduper_ray.pipelines.relational import (
        small_quantity_revenue)

    sql = ("WITH pk AS (SELECT p_partkey, p_brand FROM part "
           "  WHERE p_brand IN ('Brand#3')), "
           "agg AS (SELECT l_partkey AS ak, "
           "  SUM(CAST(l_quantity AS BIGINT)) AS sq, COUNT(*) AS cnt "
           "  FROM lineitem JOIN pk ON l_partkey = p_partkey "
           "  GROUP BY l_partkey) "
           "SELECT p_brand, CAST(SUM(CAST(FLOOR(l_extendedprice * 100 "
           "+ 0.5) AS BIGINT)) AS BIGINT) AS total_cents, "
           "COUNT(*) AS n_rows "
           "FROM lineitem JOIN pk ON l_partkey = p_partkey "
           "JOIN agg ON ak = l_partkey "
           "WHERE 5 * CAST(l_quantity AS BIGINT) * cnt < sq "
           "GROUP BY p_brand")
    _compare(small_quantity_revenue(SF, brands=("Brand#3",)), sql, con)


def test_q19_single_clause_parameterization(con):
    from image_deduper_ray.pipelines.relational import disjunctive_revenue

    sql = ("SELECT p_brand, CAST(SUM(CAST(FLOOR(l_extendedprice * "
           "(1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS "
           "revenue_cents, COUNT(*) AS n_rows "
           "FROM lineitem JOIN part ON p_partkey = l_partkey "
           "WHERE p_brand = 'Brand#7' AND p_size BETWEEN 2 AND 9 "
           "AND l_quantity BETWEEN 5 AND 45 GROUP BY p_brand")
    _compare(disjunctive_revenue(
        SF, clauses=(("Brand#7", 2, 9, 5, 45),)), sql, con)


def test_pack_sequences_other_budget(con):
    from image_deduper_ray.pipelines.textops import pack_sequences

    sql = ("WITH s AS (SELECT doc_id, "
           "  len(regexp_extract_all(text, '\\S+')) AS n "
           "  FROM documents), "
           "c AS (SELECT doc_id, n, COALESCE(SUM(n) OVER ("
           "  ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING "
           "  AND 1 PRECEDING), 0) AS cb FROM s) "
           "SELECT doc_id, CAST(n AS BIGINT) AS n_tokens, "
           "CAST(cb // 512 AS BIGINT) AS bin_id, "
           "CAST(cb % 512 AS BIGINT) AS offset_tokens FROM c")
    _compare(pack_sequences(SF, budget=512), sql, con)


def test_q19_two_clauses_same_brand(con):
    """Regression: two clauses sharing a brand with different
    size/quantity ranges must BOTH be honored (the dim matrix is
    per-part-per-CLAUSE, not a first-match brand code)."""
    from image_deduper_ray.pipelines.relational import disjunctive_revenue

    sql = ("SELECT p_brand, CAST(SUM(CAST(FLOOR(l_extendedprice * "
           "(1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS "
           "revenue_cents, COUNT(*) AS n_rows "
           "FROM lineitem JOIN part ON p_partkey = l_partkey "
           "WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 4 "
           "  AND l_quantity BETWEEN 1 AND 15) "
           "OR (p_brand = 'Brand#1' AND p_size BETWEEN 5 AND 12 "
           "  AND l_quantity BETWEEN 30 AND 50) "
           "GROUP BY p_brand")
    _compare(disjunctive_revenue(
        SF, clauses=(("Brand#1", 1, 4, 1, 15),
                     ("Brand#1", 5, 12, 30, 50))), sql, con)


def test_knn_filtered_other_predicate(con):
    from image_deduper_ray.pipelines.ann import knn_filtered

    sql = ("WITH q AS (SELECT vec_id AS query_id, embedding AS qe "
           "  FROM embeddings ORDER BY vec_id LIMIT 8) "
           "SELECT query_id, neighbor_id, rank FROM ("
           "  SELECT q.query_id, e.vec_id AS neighbor_id, "
           "    ROW_NUMBER() OVER (PARTITION BY q.query_id ORDER BY "
           "      list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
           "                             CAST(q.qe AS DOUBLE[])) DESC, "
           "      e.vec_id) AS rank "
           "  FROM embeddings e, q "
           "  WHERE e.vec_id <> q.query_id AND e.label % 3 = 1) "
           "WHERE rank <= 5")
    _compare(knn_filtered(SF, k=5, num_queries=8,
                          label_mod=3, label_rem=1), sql, con)


def test_fuzzy_decontaminate_other_threshold(con):
    # lower tau flags more docs; the threshold is a live parameter
    from image_deduper_ray.pipelines.textops import fuzzy_decontaminate

    sql = ("WITH toks AS (SELECT doc_id, "
           "  regexp_split_to_array(trim(text), '\\s+') AS t "
           "  FROM documents), "
           "grams AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] "
           "  || ' ' || t[i+2] || ' ' || t[i+3] || ' ' || t[i+4] AS g "
           "  FROM (SELECT doc_id, t, "
           "    unnest(generate_series(1, len(t) - 4)) AS i FROM toks)), "
           "cnt AS (SELECT doc_id, COUNT(*) AS na FROM grams "
           "  GROUP BY doc_id), "
           "bench AS (SELECT doc_id AS b_id, g FROM grams "
           "  WHERE doc_id % 29 = 0), "
           "bcnt AS (SELECT b_id, COUNT(*) AS nb FROM bench "
           "  GROUP BY b_id), "
           "inter AS (SELECT grams.doc_id AS d, bench.b_id, "
           "  COUNT(*) AS i FROM grams JOIN bench USING (g) "
           "  WHERE grams.doc_id <> bench.b_id GROUP BY 1, 2), "
           "hits AS (SELECT d, COUNT(*) AS nf FROM inter "
           "  JOIN cnt ON cnt.doc_id = d JOIN bcnt USING (b_id) "
           "  WHERE i * 10000 >= 1500 * (cnt.na + bcnt.nb - i) "
           "  GROUP BY d) "
           "SELECT documents.doc_id, "
           "CAST(COALESCE(nf, 0) AS BIGINT) AS n_flagged_bench, "
           "COALESCE(nf, 0) > 0 AS fuzzy_contaminated "
           "FROM documents LEFT JOIN hits ON hits.d = documents.doc_id")
    _compare(fuzzy_decontaminate(SF, tau_bp=1500), sql, con)
