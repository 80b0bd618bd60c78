"""Suffix-array substring pass unit tests (no Ray needed)."""

from __future__ import annotations

import numpy as np

from image_deduper_ray.stages.substring import (ContainmentVerify,
                                                 suffix_array)


def _sa_naive(s: np.ndarray) -> np.ndarray:
    return np.array(sorted(range(len(s)), key=lambda i: tuple(s[i:])),
                    dtype=np.int64)


class TestSuffixArray:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 40, 200):
            s = rng.integers(0, 5, size=n).astype(np.int64)
            assert (suffix_array(s) == _sa_naive(s)).all()

    def test_empty(self):
        assert len(suffix_array(np.empty(0, dtype=np.int64))) == 0

    def test_repetitive(self):
        s = np.array([1] * 50, dtype=np.int64)
        assert (suffix_array(s) == np.arange(49, -1, -1)).all()


def _contained(texts: dict[str, str], min_len: int) -> set:
    """The (a, b) pairs, over every pair of ``texts``, that
    ``ContainmentVerify`` keeps with its suffix-array search forced for
    every host."""
    import pyarrow as pa

    ids = sorted(texts)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    out = ContainmentVerify(min_len=min_len, sa_min_needles=1)(pa.table({
        "a": pa.array([a for a, _ in pairs], pa.string()),
        "b": pa.array([b for _, b in pairs], pa.string()),
        "content_a": pa.array([texts[a] for a, _ in pairs], pa.string()),
        "content_b": pa.array([texts[b] for _, b in pairs], pa.string())}))
    return set(zip(out["a"].to_pylist(), out["b"].to_pylist()))


class TestSuffixArrayContainment:
    def test_detects_embedding(self):
        needle = "def shared_helper(x):\n    return x * 41\n"
        host = "import os\n" + needle + "print('done')\n"
        other = "completely unrelated text that stands alone here ok"
        assert _contained({"n": needle, "h": host, "o": other},
                          min_len=16) == {("h", "n")}

    def test_respects_min_len(self):
        assert _contained({"a": "xy", "b": "wxyz"}, min_len=16) == set()

    def test_no_self_or_equal_len(self):
        t = "some sufficiently long piece of text for the scan!"
        assert _contained({"a": t, "b": t}, min_len=8) == set()

    def test_multiple_hosts(self):
        needle = "the common embedded fragment, long enough to count"
        texts = {"n": needle, **{f"h{i}": f"prefix{i} {needle} suffix{i}"
                                 for i in range(3)}}
        assert _contained(texts, min_len=16) == {
            ("h0", "n"), ("h1", "n"), ("h2", "n")}

    def test_unicode(self):
        needle = "中文片段嵌入测试，足够长的片段内容。"
        host = "开头 " + needle + " 结尾"
        assert _contained({"n": needle, "h": host}, min_len=4) \
            == {("h", "n")}


class TestContainmentVerify:
    def _run(self, pairs, **kw):
        import pyarrow as pa

        from image_deduper_ray.stages.substring import ContainmentVerify

        batch = pa.table({
            "a": pa.array([p[0] for p in pairs], pa.string()),
            "b": pa.array([p[1] for p in pairs], pa.string()),
            "content_a": pa.array([p[2] for p in pairs], pa.string()),
            "content_b": pa.array([p[3] for p in pairs], pa.string())})
        out = ContainmentVerify(**kw)(batch)
        return set(zip(out["a"].to_pylist(), out["b"].to_pylist()))

    def test_suffix_array_path_matches_scan_path(self):
        host = " ".join(f"hostword{i}" for i in range(200))
        needles = [host[k * 50 : k * 50 + 80] for k in range(5)]
        miss = "totally absent needle that is long enough to qualify!!"
        pairs = [(f"n{k}", "H", ndl, host) for k, ndl in enumerate(needles)]
        pairs.append(("nm", "H", miss, host))
        # sa_min_needles=1 forces the suffix-array path; high threshold
        # forces the linear-scan path — results must agree
        expect = {(f"n{k}", "H") for k in range(5)}
        assert self._run(pairs, min_len=16, sa_min_needles=1) == expect
        assert self._run(pairs, min_len=16, sa_min_needles=99) == expect
