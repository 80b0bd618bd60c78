"""Unit tests for the signature kernels (no Ray needed).

Mirrors the reference's golden-hash + distance-property test strategy
(/root/reference/crates/image-deduper-core/src/processing/processing_tests.rs:29-183):
pinned golden values for a fixed config, and monotone-distance property
tests under increasing edits.
"""

from __future__ import annotations

import numpy as np
import pytest

from image_deduper_ray.config import DedupConfig
from image_deduper_ray.functions import hashing, minhash as mh, tokenize as tok

# every test here runs Ray (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("ray_session")


def _sig(text: str, lang: str = "py", cfg: DedupConfig = DedupConfig()):
    a, b = mh.make_perms(cfg.num_perms, cfg.minhash_seed)
    tokens = tok.tokenize(text, lang)
    th = np.array([hashing.token_hash64(t) for t in tokens], dtype=np.uint64)
    sh = hashing.shingle_hashes(th, cfg.shingle_k)
    return mh.minhash_signature(sh, a, b), sh


CODE = "\n".join(f"    x_{i} = value + total * {i}" for i in range(40))


class TestTokenize:
    def test_whitespace_invariance(self):
        # the compression-leaves-distance-0 analog (processing_tests.rs:144-145)
        assert tok.tokenize(CODE, "py") == tok.tokenize(
            CODE.replace("    ", "\t\t").replace("\n", "\n\n  \n"), "py")

    def test_comment_invariance(self):
        with_comments = "\n".join(
            line + "  # churn" for line in CODE.split("\n"))
        assert tok.tokenize(CODE, "py") == tok.tokenize(with_comments, "py")
        # but comment markers are NOT stripped for unknown langs
        assert tok.tokenize("a # b", "weird") != tok.tokenize("a", "weird")

    def test_junk_prefix_recovery(self):
        # corrupted-JPEG SOI-scan analog (formats/jpeg.rs:34-66)
        assert tok.tokenize("﻿\x01\x02" + CODE, "py") == tok.tokenize(CODE, "py")

    def test_binary_sniff(self):
        assert tok.tokenize("abc\x00def", "py") == []
        assert tok.is_binary("\x00" * 10)
        assert not tok.is_binary(CODE)


class TestShingles:
    def test_short_input_single_shingle(self):
        th = np.array([1, 2, 3], dtype=np.uint64)
        assert len(hashing.shingle_hashes(th, 5)) == 1

    def test_deterministic(self):
        th = np.array([hashing.token_hash64(t) for t in "a b c d e f g".split()],
                      dtype=np.uint64)
        s1 = hashing.shingle_hashes(th, 5)
        s2 = hashing.shingle_hashes(th.copy(), 5)
        assert (s1 == s2).all()

    def test_golden_token_hash(self):
        # pinned golden value (processing_tests.rs:29-62 analog): any
        # unintended change to the hash chain breaks cluster stability
        assert hashing.token_hash64("def") == 8631541059365646922


class TestMinHash:
    def test_identical_signature(self):
        s1, _ = _sig(CODE)
        s2, _ = _sig(CODE)
        assert (s1 == s2).all()
        assert mh.est_jaccard(s1, s2) == 1.0

    def test_distance_monotone_under_edits(self):
        # the rotate_5/10 monotone-distance property (processing_tests.rs:169-182)
        base, _ = _sig(CODE)
        lines = CODE.split("\n")
        sims = []
        for frac in (0.05, 0.2, 0.5):
            k = max(1, int(len(lines) * frac))
            edited = lines.copy()
            for i in range(k):
                edited[i] = f"    completely_new_{i} = other_{i}"
            s, _ = _sig("\n".join(edited))
            sims.append(mh.est_jaccard(base, s))
        assert sims[0] > sims[1] > sims[2]

    def test_est_jaccard_tracks_true_jaccard(self):
        _, sh1 = _sig(CODE)
        lines = CODE.split("\n")
        lines[0] = "    zz = 1"
        lines[10] = "    qq = 2"
        s2, sh2 = _sig("\n".join(lines))
        s1, _ = _sig(CODE)
        true_j = len(np.intersect1d(sh1, sh2)) / len(np.union1d(sh1, sh2))
        assert abs(mh.est_jaccard(s1, s2) - true_j) < 0.12

    def test_simhash_hamming_small_for_near_dup(self):
        _, sh1 = _sig(CODE)
        lines = CODE.split("\n")
        lines[3] = "    tweaked = 9"
        _, sh2 = _sig("\n".join(lines))
        h1 = np.array([mh.simhash64(sh1)], dtype=np.uint64)
        h2 = np.array([mh.simhash64(sh2)], dtype=np.uint64)
        assert mh.hamming64(h1, h2)[0] <= 12

    def test_simhash64_matches_bit_loop(self):
        """The unpackbits/packbits kernel equals the per-bit vote loop it
        replaced, bit for bit: high bits set, ties (a zero vote clears
        the bit), the empty and the single-shingle cases."""
        shifts = np.arange(64, dtype=np.uint64)

        def reference(sh):
            if len(sh) == 0:
                return 0
            bits = (sh[:, None] >> shifts[None, :]) & np.uint64(1)
            votes = bits.sum(axis=0, dtype=np.int64) * 2 - len(sh)
            out = np.uint64(0)
            for i in np.nonzero(votes > 0)[0]:
                out |= np.uint64(1) << np.uint64(i)
            return int(out)

        rng = np.random.default_rng(5)
        top = np.uint64(1 << 63)
        cases = [np.empty(0, np.uint64), np.array([top | np.uint64(5)]),
                 np.array([0, 2**64 - 1], np.uint64)]
        for n in (1, 2, 7, 100, 1000):
            x = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
            cases += [x, x | top]
        for sh in cases:
            got = mh.simhash64(sh)
            assert got == reference(sh) and type(got) is int, sh
        assert mh.simhash64(np.array([top])) == 1 << 63


class TestHashing:
    def test_sha256_matches_duckdb_semantics(self):
        import duckdb
        import hashlib
        text = "héllo wörld 中文"
        ours = hashing.sha256_hex([text])[0]
        con = duckdb.connect()
        theirs = con.execute("select sha256(?)", [text]).fetchone()[0]
        con.close()
        assert ours == theirs == hashlib.sha256(text.encode()).hexdigest()

    def test_file_id_stable_and_distinct(self):
        ids = hashing.file_ids(["r", "r"], ["p1", "p2"], ["c", "c"])
        assert len(set(ids)) == 2
        assert ids == hashing.file_ids(["r", "r"], ["p1", "p2"], ["c", "c"])

    def test_token_hash_cache_equals_per_token_hash(self):
        """``hash_tokens`` gives ``token_hash64`` of every token, repeats
        and non-ASCII tokens included, for empty and one-token input."""
        cache = hashing.TokenHashCache()
        for tokens in ([], ["def"], ["x", "=", "x", "+", "ünï", "x", "def"],
                       [f"t{i % 37}" for i in range(500)]):
            got = cache.hash_tokens(tokens)
            assert got.dtype == np.uint64
            assert got.tolist() == [hashing.token_hash64(t) for t in tokens]
        assert len(cache) == 1 + 4 + 37     # one entry per distinct token

    def test_fallback_shingles_deterministic(self):
        a = hashing.fallback_shingles("r", "p", 10)
        b = hashing.fallback_shingles("r", "p", 10)
        c = hashing.fallback_shingles("r", "p", 11)
        assert a[0] == b[0] != c[0]


class TestConfig:
    def test_band_validation(self):
        with pytest.raises(ValueError):
            DedupConfig(lsh_bands=3, lsh_rows=4)

    def test_json_roundtrip(self):
        cfg = DedupConfig(jaccard_threshold=0.7)
        assert DedupConfig.from_json(cfg.to_json()) == cfg


def test_verdicts_over_fixed_size_signatures():
    """The shared verdict rule over est-Jaccard of two fixed_size_binary
    signature columns (the layout both join routes keep): near_dup at
    est-Jaccard >= jaccard_threshold, containment_cand for a
    containment-band pair at or above CONTAINMENT_EST_JACCARD_MIN,
    reject otherwise."""
    import numpy as np
    import pyarrow as pa
    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.stages.verify import (
        CONTAINMENT_EST_JACCARD_MIN, _sig_of, _verdicts, est_jaccard)

    cfg = DedupConfig()
    base = np.arange(128, dtype=np.uint64)
    half = base.copy()
    half[64:] += np.uint64(1000)          # est-Jaccard 0.5
    low = base + np.uint64(1000)
    low[:8] = base[:8]                    # est-Jaccard 1/16
    assert 1 / 16 < CONTAINMENT_EST_JACCARD_MIN < 0.5
    sig = pa.binary(128 * 8)
    batch = pa.table({
        "a": ["p", "q", "r", "s"], "b": ["w", "x", "y", "z"],
        "is_cont": pa.array([0, 1, 0, 1], pa.int8()),
        "minhash_a": pa.array([base.tobytes()] * 4, sig),
        "minhash_b": pa.array([base.tobytes(), half.tobytes(),
                               half.tobytes(), low.tobytes()], sig)})

    def verdicts(t: pa.Table) -> pa.Table:
        return _verdicts(t, est_jaccard(_sig_of(t["minhash_a"], 128),
                                        _sig_of(t["minhash_b"], 128)), cfg)

    out = verdicts(batch)
    assert out.column_names == ["a", "b", "jaccard", "verdict"]
    assert out["jaccard"].to_pylist() == [1.0, 0.5, 0.5, 1 / 16]
    assert out["verdict"].to_pylist() == [
        "near_dup", "containment_cand", "reject", "reject"]
    assert verdicts(batch.slice(0, 0)).num_rows == 0


def test_fid64_collision_expansion():
    """Two file_ids sharing their first 16 hex chars (a 64-bit fid
    collision, the 10^10+ regime) must EXPAND at pair resolution: every
    member pairs with the other endpoint — collisions add candidates
    for verification to reject, never drop a true pair."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.stages.lsh import _resolve_pairs, fid64

    ids = ["aaaaaaaaaaaaaaaa0000000000000001",   # collide on first 16
           "aaaaaaaaaaaaaaaa0000000000000002",
           "bbbbbbbbbbbbbbbb0000000000000003"]
    f = fid64(ids)
    assert f[0] == f[1] and f[0] != f[2]
    sigs = ray.data.from_arrow(pa.table({"file_id": pa.array(ids)}))
    pairs64 = ray.data.from_arrow(pa.table({
        "a": pa.array(f[[0, 2]].view(np.int64)[:1]),
        "b": pa.array(f[[2]].view(np.int64)),
        "is_cont": pa.array([0], pa.int8())}))

    for cap in (10**9, 0):   # broadcast path and join path
        cfg = DedupConfig(broadcast_max_bytes=cap)
        out = _resolve_pairs(pairs64, sigs, cfg.resolved()).to_pandas()
        got = set(zip(out.a, out.b))
        # BOTH routes expand the colliding endpoint to all member ids
        # (many-to-many inner joins) and neither emits self-pairs
        assert (ids[0], ids[2]) in got
        assert (ids[1], ids[2]) in got
        assert all(a != b for a, b in got)



def test_fid_index_gathers_each_signature_and_marks_collisions():
    """``lsh._fid_index`` over packed id parts (one of them empty): each
    fid64-sorted entry gathers its own id's signature row, and a fid64
    that two ids share is marked as collided."""
    import numpy as np
    import ray
    from image_deduper_ray.stages.lsh import _fid_index, fid64
    from image_deduper_ray.stages.verify import gather_rows

    ids = ["ffffffffffffffff0000000000000001",
           "aaaaaaaaaaaaaaaa0000000000000001",   # collide on first 16
           "cccccccccccccccc0000000000000003",
           "aaaaaaaaaaaaaaaa0000000000000002",
           "bbbbbbbbbbbbbbbb0000000000000004"]
    sigs = np.random.default_rng(0).integers(
        0, 2**62, (5, 128), dtype=np.int64).view(np.uint64)
    id_parts = [np.array(ids[:2], "S32"), np.empty(0, "S32"),
                np.array(ids[2:], "S32")]
    mats = [sigs[:2], np.empty((0, 128), np.uint64), sigs[2:]]
    keys, part_of, row_of, collided = ray.get(_fid_index.remote(*id_parts))
    f = fid64(ids)
    assert keys.tolist() == sorted(f.tolist())
    got = gather_rows(mats, part_of, row_of, np.arange(5), 128)
    for k in range(5):
        assert any((got[k] == sigs[i]).all() and f[i] == keys[k]
                   for i in range(5)), k
    assert len({g.tobytes() for g in got}) == 5
    assert collided.tolist() == [f[1]]

def test_fixed_str_view_layouts():
    """fixed_str_view must equal the pylist conversion on every
    accepted layout (uniform-width fast path incl. sliced offsets,
    shorter-value and chunked fallbacks) and must REFUSE layouts the
    S-dtype would silently corrupt: over-width values (truncation
    collides distinct keys) and nulls."""
    import numpy as np
    import pyarrow as pa
    import pytest

    from image_deduper_ray.functions.arrow_utils import fixed_str_view

    ids = [f"{i:032x}" for i in range(10)]
    ref = np.array(ids, dtype="S32")

    flat = pa.array(ids)
    np.testing.assert_array_equal(fixed_str_view(flat, 32), ref)
    np.testing.assert_array_equal(fixed_str_view(flat.slice(3, 4), 32),
                                  ref[3:7])
    chunked = pa.chunked_array([ids[:4], ids[4:]])
    np.testing.assert_array_equal(fixed_str_view(chunked, 32), ref)

    shorter = pa.array(["ab", "c" * 32, "d"])   # <= width: pads, safe
    np.testing.assert_array_equal(
        fixed_str_view(shorter, 32),
        np.array(["ab", "c" * 32, "d"], dtype="S32"))
    with pytest.raises(ValueError):             # > width: would collide
        fixed_str_view(pa.array(["x" * 33]), 32)
    with pytest.raises(ValueError):             # null: would stringify
        fixed_str_view(pa.array([ids[0], None]), 32)
    assert fixed_str_view(pa.array([], pa.string()), 32).shape == (0,)


def test_hash_join_expands_repeated_right_keys():
    """A left row matching k right rows emits k output rows (the
    collision-expansion semantics); a left join keeps the unmatched
    left row, with a null right value."""
    import pyarrow as pa
    import ray.data

    from image_deduper_ray.functions.joins import hash_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array(["x", "y", "z"]), "lv": pa.array([1, 2, 3], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array(["x", "x", "y"]),
        "rv": pa.array([10, 11, 20], pa.int64())}))
    ls = pa.schema([("k", pa.string()), ("lv", pa.int64())])
    rs = pa.schema([("rv", pa.int64())])

    exp = hash_join(left, right, "k", "rk", ls, rs,
                    num_partitions=2).to_pandas()
    assert len(exp) == 3           # x expands to both right rows
    assert sorted(exp[exp.k == "x"].rv) == [10, 11]
    out = hash_join(left, right, "k", "rk", ls, rs, how="left",
                    num_partitions=2)
    assert out.schema().base_schema == pa.schema(list(ls) + list(rs))
    assert sorted((r["k"], r["lv"], r["rv"]) for r in out.take_all()) \
        == [("x", 1, 10), ("x", 1, 11), ("y", 2, 20), ("z", 3, None)]


@pytest.mark.parametrize("keys", ["one", "two"])
@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
@pytest.mark.parametrize("key_type", ["string", "int64"])
def test_broadcast_join_routes(how, key_type, keys):
    """Both routes of ``broadcast_join`` (the Acero broadcast at the
    default cap, the partitioned hash join at ``max_bytes=0``) give the
    same rows, those of a pandas.merge reference. ``keys="two"`` joins
    on ``("k", "j")``, both ends of a pair, and the reference chains one
    merge per key with the right columns suffixed ``_<key>``. The right
    side repeats one key: inner/left expand it on every end, semi/anti
    never repeat a left row; some left keys match nothing, so a left
    join pads that end with nulls. The right side carries a
    ``fixed_size_binary`` payload, the layout of a ``minhash`` column,
    which both routes keep. An empty right side keeps every left row
    for left/anti and none otherwise."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from image_deduper_ray.functions.joins import broadcast_join

    typ = pa.string() if key_type == "string" else pa.int64()
    conv = str if key_type == "string" else int
    left = pa.table({
        "k": pa.array([conv(x) for x in (5, 1, 9, 4, 1, 7, 9)], typ),
        "x": pa.array(range(7), pa.int64()),
        "j": pa.array([conv(x) for x in (9, 4, 1, 9, 6, 6, 9)], typ)})
    sig = [np.arange(4, dtype=np.uint64) * np.uint64(i) for i in range(4)]
    right = pa.table({"rk": pa.array([conv(x) for x in (1, 9, 9, 4)], typ),
                      "v": pa.array(["a", "b", "c", "d"]),
                      "m": pa.array([s.tobytes() for s in sig],
                                    pa.binary(32))})
    key = "k" if keys == "one" else ("k", "j")
    named = [("k", "")] if keys == "one" else [("k", "_k"), ("j", "_j")]
    filtering = how in ("semi", "anti")

    def reference(r: pa.Table) -> pd.DataFrame:
        ldf, rdf = left.to_pandas(), r.to_pandas()
        for k, suffix in named:
            if filtering:
                hit = ldf[k].isin(rdf.rk)
                ldf = ldf[hit if how == "semi" else ~hit]
            else:
                ldf = ldf.merge(
                    rdf.rename(columns={"v": "v" + suffix, "m": "m" + suffix}),
                    left_on=k, right_on="rk", how=how).drop(columns=["rk"])
        return ldf

    def rows(df: pd.DataFrame) -> list:
        return sorted(tuple(None if pd.isna(v) else v for v in row)
                      for row in df.itertuples(index=False))

    def plus10(t: pa.Table) -> pa.Table:
        """A ``post``: x + 10, in the joined block's own task."""
        import pyarrow.compute as pc
        return t.set_column(t.column_names.index("x"), "x",
                            pc.add(t["x"], 10))

    payload = [] if filtering else [c + suffix for _, suffix in named
                                    for c in ("v", "m")]
    for r in (right, right.slice(0, 0)):
        exp = rows(reference(r))
        exp_post = sorted((row[0], row[1] + 10) + row[2:] for row in exp)
        for post, want in ((None, exp), (plus10, exp_post)):
            routes = []
            for cap in (2_000_000_000, 0):
                out = broadcast_join(ray.data.from_arrow(left),
                                     ray.data.from_arrow(r), key, "rk", how,
                                     max_bytes=cap, num_partitions=2,
                                     post=post)
                df = out.to_pandas()
                # a zero-row to_pandas drops the columns (Ray 2.49)
                assert df.empty or list(df.columns) == \
                    ["k", "x", "j"] + payload, (cap, df.columns)
                assert rows(df) == want, (cap, r.num_rows, post)
                if r.num_rows:
                    for m in payload[1::2]:
                        assert out.schema().base_schema.field(m).type \
                            == pa.binary(32), (cap, m)
                routes.append(sorted(out.take_all(), key=repr))
            assert routes[0] == routes[1]
    ref = reference(right)
    if filtering:
        assert len(ref) == len(set(ref.x)) > 0
    else:
        # left row 6 holds the repeated key on every end: expanded
        assert (ref.x == 6).sum() == 2 ** len(named)
    if how == "left":                                   # padded
        assert [ref["v" + suffix].isna().sum() for _, suffix in named] \
            == ([2] if keys == "one" else [3, 2])


def test_safe_coalesce_misaligned_chunks():
    """pyarrow 16.1.0's coalesce kernel leaks masked-out garbage values
    through the validity bitmap when its two arguments have MISALIGNED
    chunk layouts (found in situ: a null cluster label coalesced to the
    searchsorted slot's raw value, silently absorbing singletons into
    the wrong group). safe_coalesce must be immune; this test also
    pins the upstream bug so a pyarrow upgrade that fixes it is
    visible."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from image_deduper_ray.functions.arrow_utils import safe_coalesce

    ids = np.arange(64, dtype=np.int64)
    vals = ids.copy()
    mask = np.zeros(64, bool)
    mask[42] = mask[43] = True
    vals[42] = vals[43] = 99          # masked-out garbage
    g = pa.chunked_array([pa.array(vals, pa.int64(), mask=mask)])
    d = pa.chunked_array([pa.array(ids[s:s + 16], pa.int64())
                          for s in (0, 16, 32, 48)])
    assert safe_coalesce(g, d).to_pylist()[42:44] == [42, 43]
    # document the raw-kernel behavior this helper exists for (if this
    # starts FAILING, pyarrow fixed the bug and the helper can go)
    raw = pc.coalesce(g, d).to_pylist()[42:44]
    assert raw in ([99, 99], [42, 43])


def _sorted_rows(ds) -> list:
    return sorted(tuple(r.values()) for r in ds.take_all())


def _shuffle_entry_points():
    """{name: call} for the two shuffle entry points, each summing
    ``w`` per key ``k`` over 3 partitions."""
    import pyarrow as pa

    from image_deduper_ray.functions import groups

    out = pa.schema([("k", pa.int64()), ("s", pa.int64())])

    def arrow_sum(t):
        return t.group_by("k").aggregate([("w", "sum")]) \
            .rename_columns(["k", "s"])

    return {
        "arrow": lambda ds, pre=None: groups.partitioned_group_map(
            ds, ["k"], arrow_sum, 3, out, pre=pre),
        "sum": lambda ds, pre=None: groups.partitioned_sum(
            ds, ["k"], "w", 3, out, out_name="s", pre=pre),
    }


def _odd_doubled():
    """A row prep that filters, projects and derives a column (nested,
    so Ray ships it by value: workers cannot import a test module)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def pre(t):
        t = t.filter(pc.equal(pc.bit_wise_and(t["v"], 1), 1))
        return pa.table({"k": t["k"], "w": pc.multiply(t["v"], 2)})
    return pre


def _set_fan_out(monkeypatch, fanned: bool) -> int:
    """The partitions a 3-partition shuffle of a few hundred rows runs:
    one task at the default ``ROWS_PER_TASK``, or all 3 when forced to
    one row per task."""
    from image_deduper_ray.functions import groups

    if fanned:
        monkeypatch.setattr(groups, "ROWS_PER_TASK", 1)
    return 3 if fanned else 1


@pytest.mark.parametrize("fanned", [False, True], ids=["one_task", "fanned"])
@pytest.mark.parametrize("entry", ["arrow", "sum"])
def test_shuffle_pre_equals_map_then_shuffle(entry, fanned, monkeypatch):
    """A shuffle's per-block ``pre`` gives the rows of ``map_batches``
    followed by the shuffle, and a two-input shuffle (each input with
    its own ``pre``) gives the rows of the shuffle of the union, both
    as one task and fanned out to every partition."""
    import pyarrow as pa
    import ray.data

    parts = _set_fan_out(monkeypatch, fanned)
    shuffle = _shuffle_entry_points()[entry]
    prep = _odd_doubled()
    v = np.arange(200, dtype=np.int64)
    first = ray.data.from_arrow(
        [pa.table({"k": v[i:i + 50] % 7, "v": v[i:i + 50],
                   "junk": pa.array(["x"] * 50)}) for i in range(0, 200, 50)])
    second = ray.data.from_arrow(pa.table({"k": v[:30] % 4, "w": v[:30]}))

    mapped = first.map_batches(prep, batch_format="pyarrow")
    out = shuffle(first, pre=prep)
    assert out.num_blocks() == parts
    assert _sorted_rows(out) == _sorted_rows(shuffle(mapped))
    assert _sorted_rows(shuffle([first, second], pre=[prep, None])) \
        == _sorted_rows(shuffle(mapped.union(second)))
    with pytest.raises(ValueError):
        shuffle([first, second], pre=[prep])


@pytest.mark.parametrize("fanned", [False, True], ids=["one_task", "fanned"])
@pytest.mark.parametrize("entry", ["arrow", "sum"])
def test_shuffle_skips_empty_blocks_before_pre(entry, fanned, monkeypatch):
    """Empty and schema-less blocks (Ray 2.49 unions produce both) are
    skipped by the map task, or by the one task of a shuffle sized to
    one: ``pre`` never sees them, and an input of only such blocks
    gives the typed empty output."""
    import pyarrow as pa
    import ray
    import ray.data

    parts = _set_fan_out(monkeypatch, fanned)
    shuffle = _shuffle_entry_points()[entry]
    prep = _odd_doubled()

    def strict(t):
        if t.num_rows == 0:
            raise ValueError("pre called on an empty block")
        return prep(t)

    rows = pa.table({"k": pa.array([1, 2, 1], pa.int64()),
                     "v": pa.array([1, 3, 5], pa.int64())})
    blocks = [rows, rows.slice(0, 0), pa.table({})]
    ds = ray.data.from_arrow_refs([ray.put(b) for b in blocks])
    out = shuffle(ds, pre=strict)
    assert out.num_blocks() == parts
    assert _sorted_rows(out) == [(1, 12), (2, 6)]
    empty = ray.data.from_arrow_refs([ray.put(b) for b in blocks[1:]])
    out = shuffle(empty, pre=strict)
    assert out.count() == 0
    assert out.schema().names == ["k", "s"]


@pytest.mark.parametrize("fanned", [False, True], ids=["one_task", "fanned"])
def test_shuffle_never_calls_its_block_function_on_zero_rows(fanned,
                                                              monkeypatch):
    """A partition with no rows gets the typed empty output without a
    call of the block function, as one task and fanned: inputs of only
    empty or schema-less blocks, blocks ``pre`` filters to nothing, and
    keys that leave partitions empty. So no block function needs a
    zero-row branch."""
    import pyarrow as pa
    import ray
    import ray.data

    from image_deduper_ray.functions import groups

    _set_fan_out(monkeypatch, fanned)
    prep = _odd_doubled()
    out_schema = pa.schema([("k", pa.int64()), ("s", pa.int64())])

    def strict_sum(t):
        if t.num_rows == 0:
            raise ValueError("block function called on zero rows")
        return t.group_by("k").aggregate([("w", "sum")]) \
            .rename_columns(["k", "s"])

    rows = pa.table({"k": pa.array([1, 2, 1], pa.int64()),
                     "v": pa.array([1, 3, 5], pa.int64())})
    evens = pa.table({"k": pa.array([1, 2, 4], pa.int64()),
                      "v": pa.array([2, 4, 6], pa.int64())})
    for blocks, want in (([rows.slice(0, 0), pa.table({})], []),
                         ([evens, evens.slice(0, 0)], []),
                         ([rows, evens, pa.table({})], [(1, 12), (2, 6)])):
        ds = ray.data.from_arrow_refs([ray.put(b) for b in blocks])
        out = groups.partitioned_group_map(ds, ["k"], strict_sum, 3,
                                           out_schema, pre=prep)
        assert _sorted_rows(out) == want
        assert out.schema().names == ["k", "s"]


def _count_executions(monkeypatch) -> list:
    """Patch Ray Data's executor to record each execution it starts."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    calls = []
    real = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return calls


def test_map_blocks_materialized_runs_plain_tasks(monkeypatch):
    """Over a materialized dataset ``map_blocks`` starts no Ray Data
    execution, keeps the row order and gives ``map_batches``' rows;
    its materialized output is read without one either."""
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.dataset import MaterializedDataset

    from image_deduper_ray.functions.groups import map_blocks

    prep = _odd_doubled()
    v = np.arange(300, dtype=np.int64)
    blocks = [pa.table({"k": v[i:i + 30] % 7, "v": v[i:i + 30]})
              for i in range(0, 300, 30)]
    ds = ray.data.from_arrow_refs([ray.put(b) for b in blocks]).materialize()
    want = ds.map_batches(prep, batch_format="pyarrow").take_all()
    calls = _count_executions(monkeypatch)
    out = map_blocks(ds, prep, pa.schema([("k", pa.int64()),
                                          ("w", pa.int64())]))
    got = out.take_all()
    assert isinstance(out, MaterializedDataset)
    assert calls == []
    assert got == want      # same rows, same order
    assert [r["w"] for r in got] == [2 * x for x in v if x % 2]


@pytest.mark.parametrize("rows_per_task,tasks", [(None, 1), (100, 3), (1, 4)])
def test_fan_out_follows_input_rows(rows_per_task, tasks, monkeypatch):
    """``map_blocks`` and ``coalesce_blocks`` run one task per
    ``ROWS_PER_TASK`` input rows, at least one and at most one per
    cluster CPU (4 here), and keep the rows in order."""
    import pyarrow as pa
    import ray
    import ray.data

    from image_deduper_ray.functions import groups

    if rows_per_task is not None:
        monkeypatch.setattr(groups, "ROWS_PER_TASK", rows_per_task)
    v = np.arange(300, dtype=np.int64)
    ds = ray.data.from_arrow_refs(
        [ray.put(pa.table({"k": v[i:i + 30] % 7, "v": v[i:i + 30]}))
         for i in range(0, 300, 30)]).materialize()
    for out in (groups.map_blocks(ds, lambda t: t, ds.schema().base_schema),
                groups.coalesce_blocks(ds)):
        assert out.num_blocks() == tasks
        assert [r["v"] for r in out.take_all()] == list(v)


@pytest.mark.parametrize("pre_rows,parts", [(1, 1), (2, 2), (5, 3)])
def test_shuffle_fan_out_counts_the_rows_pre_makes(pre_rows, parts,
                                                   monkeypatch):
    """A shuffle runs one partition per ``ROWS_PER_TASK`` rows of its
    input times ``pre_rows`` (the rows an exploding ``pre`` makes of
    each), at most its ``num_partitions``; the rows do not change."""
    import pyarrow as pa
    import ray.data

    from image_deduper_ray.functions import groups

    monkeypatch.setattr(groups, "ROWS_PER_TASK", 200)
    shuffle = _shuffle_entry_points()["arrow"]
    v = np.arange(200, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"k": v % 7, "w": v}))
    out = groups.partitioned_group_map(
        ds, ["k"], lambda t: t.group_by("k").aggregate([("w", "sum")])
        .rename_columns(["k", "s"]), 3,
        pa.schema([("k", pa.int64()), ("s", pa.int64())]),
        pre_rows=pre_rows)
    assert out.num_blocks() == parts
    assert _sorted_rows(out) == _sorted_rows(shuffle(ds))


def test_map_blocks_keeps_a_lazy_input_lazy(monkeypatch):
    """A lazy input is mapped by a ``map_batches`` fused into its plan:
    nothing runs until the result is consumed."""
    import pyarrow as pa
    import ray.data
    from ray.data.dataset import MaterializedDataset

    from image_deduper_ray.functions.groups import map_blocks

    lazy = ray.data.range(40).map_batches(
        lambda t: pa.table({"k": t["id"], "v": t["id"]}),
        batch_format="pyarrow")
    calls = _count_executions(monkeypatch)
    out = map_blocks(lazy, _odd_doubled(),
                     pa.schema([("k", pa.int64()), ("w", pa.int64())]))
    assert not isinstance(out, MaterializedDataset)
    assert calls == []
    assert sorted(r["w"] for r in out.take_all()) == list(range(2, 80, 4))


def test_map_blocks_empty_input_gives_typed_empty_output():
    """Empty and schema-less blocks are skipped (``fn`` never sees
    them); a dataset with no rows, or whose rows all map to none, gives
    ``out_schema``'s empty table."""
    import pyarrow as pa
    import ray
    import ray.data

    from image_deduper_ray.functions.groups import map_blocks

    prep = _odd_doubled()

    def strict(t):
        if t.num_rows == 0:
            raise ValueError("fn called on an empty block")
        return prep(t)

    schema = pa.schema([("k", pa.int64()), ("w", pa.int64())])
    rows = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "v": pa.array([3, 4], pa.int64())})
    for blocks in ([rows.slice(0, 0), pa.table({})],
                   [rows.slice(1), pa.table({})]):    # v = 4: no odd rows
        ds = ray.data.from_arrow_refs(
            [ray.put(b) for b in blocks]).materialize()
        out = map_blocks(ds, strict, schema)
        assert out.count() == 0
        assert out.schema().base_schema == schema
    ds = ray.data.from_arrow_refs(
        [ray.put(rows), ray.put(pa.table({}))]).materialize()
    assert map_blocks(ds, strict, schema).take_all() == [{"k": 1, "w": 6}]


def test_verify_pairs_scores_a_large_block_in_slices(monkeypatch):
    """One ``pairs`` block of 2.5 x SCORE_BATCH_ROWS pairs is scored in
    slices by one plain task, with no Ray Data execution, and every row
    equals the est-Jaccard and verdict computed directly."""
    import pyarrow as pa
    import ray
    import ray.data

    from image_deduper_ray.stages.verify import (
        CONTAINMENT_EST_JACCARD_MIN, SCORE_BATCH_ROWS, pack_signatures,
        verify_pairs)

    cfg = DedupConfig().resolved()
    P = cfg.num_perms
    rng = np.random.default_rng(3)
    n = 200
    ids = [f"{i:032x}" for i in rng.permutation(10**6)[:n]]
    sig = np.tile(rng.integers(0, 2**63, P, dtype=np.uint64), (n, 1))
    for i in range(n):          # file i differs from the base in k_i perms
        k = rng.integers(0, P)
        sig[i, :k] = rng.integers(0, 2**63, k, dtype=np.uint64)
    sigs = ray.data.from_arrow_refs([ray.put(pa.table({
        "file_id": ids,
        "minhash": pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(P * 8), n, [None, pa.py_buffer(sig.tobytes())])}))
    ]).materialize()
    m = int(2.5 * SCORE_BATCH_ROWS)
    ia, ib = rng.integers(0, n, m), rng.integers(0, n, m)
    cont = rng.integers(0, 2, m).astype(np.int8)
    pairs = ray.data.from_arrow_refs([ray.put(pa.table({
        "a": [ids[i] for i in ia], "b": [ids[i] for i in ib],
        "is_cont": cont}))]).materialize()
    packed = pack_signatures(sigs, cfg)
    calls = _count_executions(monkeypatch)
    out = verify_pairs(pairs, sigs, cfg, packed=packed).take_all()
    assert calls == []
    jac = (sig[ia] == sig[ib]).mean(axis=1)
    verdict = np.where(
        jac >= cfg.jaccard_threshold, "near_dup",
        np.where((cont == 1) & (jac >= CONTAINMENT_EST_JACCARD_MIN),
                 "containment_cand", "reject"))
    assert [(r["a"], r["b"], r["jaccard"], r["verdict"]) for r in out] == [
        (ids[x], ids[y], j, v) for x, y, j, v in zip(ia, ib, jac, verdict)]
    assert len(set(verdict)) == 3


# -- in-bucket verification (stages/lsh._pairs_block) ----------------------

def _sig_family(n_files: int, diffs: dict, seed: int = 0):
    """(n_files, 128) uint64 signatures: row i equals a seeded base
    except in the positions ``diffs[i]``, where its values are its own,
    so est-Jaccard(i, j) = 1 - |diffs[i] | diffs[j]| / 128."""
    base = np.random.default_rng(seed).integers(
        1, 2**62, 128, dtype=np.int64).view(np.uint64)
    sigs = np.repeat(base[None, :], n_files, axis=0)
    for i, pos in diffs.items():
        sigs[i, sorted(pos)] = np.uint64(2**63 + 1000 * i) \
            + np.arange(len(pos), dtype=np.uint64)
    return sigs


def _fids(n: int, seed: int = 1):
    """n distinct int64 fid64 views, negative ones included."""
    f = np.random.default_rng(seed).integers(1, 2**62, n, dtype=np.int64)
    assert len(set(f.tolist())) == n
    return f * np.where(np.arange(n) % 3 == 2, -1, 1)


def _band_rows(rows, fids):
    """Band rows from (band_id, band_key, salt, n_sub, file, simhash)
    tuples."""
    import pyarrow as pa

    bid, bkey, salt, nsub, f, sim = (np.array(c) for c in zip(*rows))
    return pa.table({"band_id": pa.array(bid, pa.int32()),
                     "band_key": pa.array(bkey, pa.int64()),
                     "salt": pa.array(salt, pa.int32()),
                     "n_sub": pa.array(nsub, pa.int32()),
                     "fid": pa.array(fids[f]),
                     "simhash": pa.array(sim, pa.int64())})


def _checked(rows, sigs, fids, cfg, collided=()):
    """``_pairs_block`` output with the signatures split into two
    parts, indexed by sorted fid64 as ``lsh._fid_index`` does."""
    from image_deduper_ray.stages.lsh import _pairs_block

    ids = fids.view(np.uint64)
    order = np.argsort(ids)
    half = len(fids) // 2
    in_second = order >= half
    index = (ids[order], in_second.astype(np.int32),
             np.where(in_second, order - half, order).astype(np.int32),
             np.array(sorted(collided), dtype=np.int64).view(np.uint64),
             [sigs[:half], sigs[half:]])
    return _pairs_block(_band_rows(rows, fids), cfg, index)


def _components(nodes, pairs) -> set:
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict = {}
    for x in nodes:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def _reference(rows, fids, sigs, cfg) -> dict:
    """{(a, b): est-Jaccard} of every candidate pair of every regular
    sub-bucket — all pairs up to ``bucket_cap`` members, else the (k,
    k+w) window along (simhash, fid): the pairs the check stands in
    for."""
    from image_deduper_ray.stages.lsh import CONTAINMENT_BAND_BASE

    subs: dict = {}
    for bid, bkey, salt, _, f, sim in rows:
        if bid < CONTAINMENT_BAND_BASE:
            subs.setdefault((bid, bkey, salt), []).append(
                (sim, int(fids[f]), f))
    out = {}
    for members in subs.values():
        members.sort()
        n = len(members)
        for k in range(n):
            stop = n if n <= cfg.bucket_cap \
                else min(n, k + 1 + cfg.salt_window)
            for m in range(k + 1, stop):
                (_, x, i), (_, y, j) = members[k], members[m]
                out[(min(x, y), max(x, y))] = float(
                    (sigs[i] == sigs[j]).mean())
    return out


def _check_forest(out, rows, fids, sigs, cfg):
    """The emitted regular cand pairs give the components of every
    candidate pair, hold exactly a spanning forest of its near-dup
    pairs, and leave out a reject at or above the containment floor
    only inside one component. Returns (emitted pairs, reference)."""
    from image_deduper_ray.stages.verify import CONTAINMENT_EST_JACCARD_MIN

    o = out.to_pydict()
    got = {(a, b) for a, b, k, c in zip(o["a"], o["b"], o["kind"],
                                        o["is_cont"]) if k == "cand" and not c}
    ref = _reference(rows, fids, sigs, cfg)
    assert got <= set(ref)
    nodes = {x for p in ref for x in p}
    comps = _components(nodes, [p for p, j in ref.items()
                                if j >= cfg.jaccard_threshold])
    near = [p for p in got if ref[p] >= cfg.jaccard_threshold]
    assert _components(nodes, near) == comps
    assert len(near) == len(nodes) - len(comps)
    comp_of = {x: c for c in comps for x in c}
    for p, j in ref.items():
        if CONTAINMENT_EST_JACCARD_MIN <= j < cfg.jaccard_threshold:
            assert p in got or comp_of[p[0]] is comp_of[p[1]], p
    return got, ref


def test_pairs_block_chain_bucket():
    """A~B, B~C, A!~C in one bucket led by A: the star joins B, the
    residual joins C through B, and A-C, a reject above the containment
    floor, is emitted too."""
    cfg = DedupConfig()
    sigs = _sig_family(3, {0: set(range(14)), 2: set(range(14, 28))})
    fids = _fids(3)
    rows = [(0, 7, 0, 1, i, i) for i in range(3)]   # simhash order A, B, C
    got, ref = _check_forest(_checked(rows, sigs, fids, cfg),
                             rows, fids, sigs, cfg)
    ac = tuple(sorted(fids[[0, 2]].tolist()))
    assert 0.15 <= ref[ac] < cfg.jaccard_threshold
    assert got == set(ref)


def test_pairs_block_leader_verifies_against_no_one():
    """A first row unlike every member: the star fails for all of them,
    the residual links the members among themselves, and no pair with
    the leader (below the containment floor) is emitted."""
    cfg = DedupConfig()
    sigs = _sig_family(5, {0: set(range(128))})
    fids = _fids(5)
    rows = [(3, 1, 0, 1, i, i) for i in range(5)]
    got, _ = _check_forest(_checked(rows, sigs, fids, cfg),
                           rows, fids, sigs, cfg)
    assert len(got) == 3
    assert not any(fids[0] in p for p in got)


def test_pairs_block_forest_is_smaller_than_all_pairs():
    """A clique of 8 seen by two bands emits 7 edges, not 2 x 28
    pairs."""
    cfg = DedupConfig()
    sigs = _sig_family(8, {})
    fids = _fids(8)
    rows = [(b, 5 + b, 0, 1, i, i) for b in (0, 1) for i in range(8)]
    got, ref = _check_forest(_checked(rows, sigs, fids, cfg),
                             rows, fids, sigs, cfg)
    assert len(ref) == 28 and len(got) == 7


def test_pairs_block_over_cap_window():
    """Over ``bucket_cap`` a sub-bucket scores exactly its (k, k+w)
    window pairs: two interleaved families, near-dup only at distance
    2 in the (simhash, fid) order, come out as two components, and no
    pair outside the window is emitted."""
    cfg = DedupConfig(bucket_cap=3, salt_window=2)
    even = _sig_family(7, {k: {k} for k in range(7)}, seed=0)
    odd = _sig_family(7, {k: {k} for k in range(7)}, seed=5)
    sigs = np.where((np.arange(7) % 2 == 0)[:, None], even, odd)
    fids = _fids(7)
    rows = [(2, 9, 0, 1, i, i) for i in range(7)]
    got, ref = _check_forest(_checked(rows, sigs, fids, cfg),
                             rows, fids, sigs, cfg)
    assert len(ref) == 6 + 5                 # w = 1 and w = 2 pairs
    assert len(got) == 5                     # 4 evens + 3 odds, a forest
    assert len(_components(set(fids.tolist()), got)) == 2


def test_pairs_block_collided_fid_keeps_every_pair():
    """A sub-bucket holding a fid64 that two representatives share
    emits every pair unverified, so pair resolution can still expand
    the collision; a sub-bucket without one is verified."""
    cfg = DedupConfig()
    sigs = _sig_family(6, {i: set(range(128)) for i in range(3)})
    fids = _fids(6)
    rows = ([(0, 1, 0, 1, i, i) for i in range(3)]
            + [(0, 2, 0, 1, i, i) for i in range(3, 6)])
    out = _checked(rows, sigs, fids, cfg, collided={fids[1]})
    pairs = set(zip(out["a"].to_pylist(), out["b"].to_pylist()))
    rejects = {tuple(sorted(fids[[i, j]].tolist()))
               for i in range(3) for j in range(i + 1, 3)}
    assert rejects <= pairs           # all pairs, though all are rejects
    assert len(pairs - rejects) == 2  # the clique of the others: a forest


def test_pairs_block_salted_containment_and_reps():
    """Rows the check leaves alone keep their output: a salted
    containment sub-bucket is dropped, an unsalted one emits every pair
    with ``is_cont`` 1, and each salted regular sub-bucket emits one
    rep row (its min fid), a singleton too."""
    from image_deduper_ray.stages.lsh import CONTAINMENT_BAND_BASE

    cfg = DedupConfig()
    sigs = _sig_family(4, {})
    fids = _fids(4)
    c = CONTAINMENT_BAND_BASE
    rows = ([(c, 1, 0, 2, i, i) for i in range(3)]        # dropped
            + [(c + 1, 1, 0, 1, i, i) for i in range(3)]  # all pairs
            + [(4, 3, 1, 2, i, i) for i in range(3)]      # salted
            + [(4, 3, 0, 2, 3, 3)])                       # salted singleton
    out = _checked(rows, sigs, fids, cfg).to_pydict()
    kinds = list(zip(out["kind"], out["is_cont"], out["band_id"]))
    assert kinds.count(("cand", 1, -1)) == 3
    assert kinds.count(("cand", 0, -1)) == 2
    assert kinds.count(("rep", 0, 4)) == 2 and len(kinds) == 7
    reps = [a for a, k in zip(out["a"], out["kind"]) if k == "rep"]
    assert sorted(reps) == sorted([fids[:3].min(), fids[3]])


@pytest.mark.parametrize("seed", range(6))
def test_pairs_block_random_buckets_match_all_pairs(seed):
    """Random signatures over several bands and salts, some sub-buckets
    over cap: the emitted pairs give the components of every candidate
    pair, as a spanning forest."""
    cfg = DedupConfig(bucket_cap=5, salt_window=2)
    rng = np.random.default_rng(seed)
    n = 30
    family = rng.integers(0, 4, n)
    sigs = _sig_family(n, {i: set(rng.choice(128, int(rng.integers(0, 45)),
                                             replace=False).tolist())
                           for i in range(n)}, seed)
    fids = _fids(n, seed)
    rows = [(band, int(family[i]) + 10 * (band % 3),
             int(rng.integers(0, 2)) if band % 2 else 0,
             2 if band % 2 else 1, i, int(rng.integers(0, 9)))
            for band in range(6) for i in range(n) if rng.random() < 0.7]
    _check_forest(_checked(rows, sigs, fids, cfg),
                  rows, fids, sigs, cfg)


def test_pairs_block_without_signatures_emits_every_pair():
    """Past the broadcast cap there is no signature index: every regular
    sub-bucket emits all of its candidate pairs unverified, the output
    of banding alone."""
    from image_deduper_ray.stages.lsh import _pairs_block

    cfg = DedupConfig(bucket_cap=5, salt_window=2)
    rng = np.random.default_rng(3)
    n = 30
    sigs = _sig_family(n, {i: set(rng.choice(128, 40, replace=False)
                                  .tolist()) for i in range(n)})
    fids = _fids(n, 3)
    rows = [(band, int(rng.integers(0, 3)), 0, 1, i, int(rng.integers(0, 9)))
            for band in range(4) for i in range(n)]
    o = _pairs_block(_band_rows(rows, fids), cfg).to_pydict()
    got = list(zip(o["a"], o["b"]))
    assert set(got) == set(_reference(rows, fids, sigs, cfg))
    assert set(o["kind"]) == {"cand"} and not any(o["is_cont"])
