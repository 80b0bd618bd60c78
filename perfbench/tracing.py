"""Per-stage tracing of one scan, measured from outside the library.

``Tracer`` swaps wrappers in for the public functions that
``pipelines.dedup`` calls (and for the one shuffle entry point every
wide operation passes through) while it is active. Each wrapper records
a span: name, wall-clock start and end, the wrapper it was called from,
and a few counts taken from the returned datasets. After the scan,
``layer_metrics`` joins the spans with the program's own ``metrics/``
rows, stage manifests and checkpoints into the per-layer metrics, and
assigns each span to the pipeline stage whose interval contains it.

Most library calls return lazy datasets, so a span measures the call
and any eager work inside it; stage walls come from the program's own
stage timers, which cover the execution.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

import pyarrow.compute as pc
import pyarrow.parquet as pq

from gate import read_stage

PAIR_GEN_KEYS = ["band_id", "band_key", "salt"]


@dataclass
class Span:
    name: str
    caller: str
    start: float
    end: float
    info: dict = field(default_factory=dict)
    stage: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _dir_stats(d: str) -> tuple[int, int]:
    """(bytes, parquet parts) of one checkpoint directory."""
    names = os.listdir(d)
    return (sum(os.path.getsize(os.path.join(d, f)) for f in names),
            sum(f.endswith(".parquet") for f in names))


def _probe_hot(args, kwargs, out):
    import ray

    combos, nsub = ray.get(out)
    return {"hot": len(combos), "max_sub": int(nsub.max()) if len(nsub) else 0}


def _probe_reps(args, kwargs, out):
    return {"reps": out[0].count()}


def _probe_write(args, kwargs, out):
    root, stage = args[1], args[2]
    size, parts = _dir_stats(os.path.join(root, stage))
    return {"stage": stage, "bytes": size, "parts": parts}


def _probe_done(args, kwargs, out):
    return {"keys": len(out)}


def _probe_shuffle(args, kwargs, out):
    if list(args[1]) != PAIR_GEN_KEYS:
        return {}
    rows = [m.num_rows for b in out.iter_internal_ref_bundles()
            for m in b.metadata]
    return {"block_rows": rows}


class Tracer:
    """Context manager: while active, the wrapped functions record spans."""

    def __init__(self, names: tuple[str, ...] | None = None):
        """Wrap every target, or only those in ``names``."""
        from image_deduper_ray.functions import groups
        from image_deduper_ray.pipelines import dedup
        from image_deduper_ray.sources import checkpoints
        from image_deduper_ray.stages import lsh

        self.targets = [(dedup, name, None) for name in (
            "read_files", "compute_signatures", "exact_dup_edges",
            "candidate_pairs", "verify_pairs", "connected_components",
            "broadcast_attach_str", "canonical_actions")]
        self.targets += [
            (dedup, "signature_representatives", _probe_reps),
            (lsh, "find_hot_buckets", _probe_hot),
            (checkpoints, "write_stage", _probe_write),
            (checkpoints, "done_key_set", _probe_done),
            (checkpoints, "anti_join_done", None),
            (groups, "_manual_shuffle", _probe_shuffle)]
        if names is not None:
            self.targets = [t for t in self.targets if t[1] in names]
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._saved: list = []

    def _wrap(self, fn, name, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self._stack[-1] if self._stack else "run_pipeline"
            self._stack.append(name)
            try:
                t0 = time.time()
                out = fn(*args, **kwargs)
                t1 = time.time()
            finally:
                self._stack.pop()
            info = probe(args, kwargs, out) if probe else {}
            self.spans.append(Span(name, caller, t0, t1, info))
            return out
        return wrapper

    def __enter__(self):
        for module, name, probe in self.targets:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, name, probe))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([dict(asdict(s), seconds=s.seconds) for s in self.spans],
                      fh, indent=1)


def stage_rows(out_dir: str) -> dict[str, dict]:
    """The program's own ``metrics/`` rows, keyed by stage."""
    t = read_stage(out_dir, "metrics", ["stage", "rows", "wall_s", "unix_ts",
                                        "extra"])
    out = {}
    for r in t.to_pylist():
        r["extra"] = ast.literal_eval(r["extra"]) if r["extra"] else {}
        out[r["stage"]] = r
    return out


def _manifest_rows(out_dir: str, stage: str) -> int:
    with open(os.path.join(out_dir, stage, "_MANIFEST.json")) as fh:
        return int(json.load(fh)["rows"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, out_dir: str, n_rows: int,
                  scan_s: float, cc_driver_max_edges: int) -> dict[str, float]:
    """Per-layer metrics of one traced scan (see BENCHMARK.json)."""
    stages = stage_rows(out_dir)
    for s in tracer.spans:
        s.stage = next((name for name, r in stages.items()
                        if r["unix_ts"] - r["wall_s"] <= s.start <= r["unix_ts"]),
                       "")
    wall = {name: r["wall_s"] for name, r in stages.items()}
    rows = {name: _manifest_rows(out_dir, name) for name in
            ("signatures", "edges_exact", "pairs", "verified", "edges_cont",
             "edges")}

    sigs = read_stage(out_dir, "signatures",
                      ["sha256", "lang", "n_tokens", "n_shingles", "sig_kind"])
    distinct = sigs.group_by(["sha256", "lang"]).aggregate([]).num_rows
    verdicts = read_stage(out_dir, "verified", ["verdict"])["verdict"]
    near = pc.sum(pc.equal(verdicts, "near_dup")).as_py() or 0
    cont_cands = pc.sum(pc.equal(verdicts, "containment_cand")).as_py() or 0
    clusters = read_stage(out_dir, "clusters", ["cluster_id"])["cluster_id"]
    sizes = pc.value_counts(clusters).field("counts")
    roles = read_stage(out_dir, "actions", ["cluster_id", "role"])

    writes = tracer.named("write_stage")
    done = tracer.named("done_key_set")
    done_keys = sum(s.info["keys"] for s in done)
    hot = tracer.named("find_hot_buckets")
    reps = sum(s.info["reps"] for s in tracer.named("signature_representatives"))
    cc_s = sum(s.seconds for s in tracer.named("connected_components"))
    shuffles = tracer.named("_manual_shuffle")
    block_rows = [r for s in shuffles for r in s.info.get("block_rows", [])]
    cont_extra = stages["edges_cont"]["extra"]
    sig_dir = os.path.join(out_dir, "signatures")

    return {
        "ckpt.write_s": sum(s.seconds for s in writes),
        "ckpt.write_mb": sum(s.info["bytes"] for s in writes) / 1e6,
        "ckpt.parts": sum(s.info["parts"] for s in writes),
        "ckpt.done_keys": done_keys,
        "ckpt.done_keys_s": sum(s.seconds for s in done),
        "ckpt.anti_join_kept_ratio": _ratio(rows["signatures"] - done_keys, n_rows),
        "signatures.parts": _dir_stats(sig_dir)[1],
        "signatures.s": wall["signatures"],
        "signatures.rows": rows["signatures"],
        "signatures.tokens": pc.sum(sigs["n_tokens"]).as_py(),
        "signatures.shingles": pc.sum(sigs["n_shingles"]).as_py(),
        "signatures.repeat_ratio": _ratio(sigs.num_rows - distinct, sigs.num_rows),
        "signatures.fallback_rows": pc.sum(pc.equal(sigs["sig_kind"], "fallback")).as_py(),
        "exact_edges.s": wall["edges_exact"],
        "exact_edges.rows": rows["edges_exact"],
        "reps.rows": reps,
        "reps.collapse_ratio": _ratio(reps, rows["signatures"]),
        "verify.s": wall["verified"],
        "verify.pairs": rows["verified"],
        "verify.near_dup_ratio": _ratio(near, rows["verified"]),
        "verify.cont_cands": cont_cands,
        "lsh.s": wall["pairs"],
        "lsh.hot_buckets": sum(s.info["hot"] for s in hot),
        "lsh.max_subbuckets": max((s.info["max_sub"] for s in hot), default=0),
        "lsh.pairs": rows["pairs"],
        "lsh.pairs_per_rep": _ratio(rows["pairs"], reps),
        "lsh.yield": _ratio(near + rows["edges_cont"], rows["pairs"]),
        "containment.s": wall["edges_cont"],
        "containment.cand_ids": cont_extra.get("n_cand_ids", 0),
        "containment.scan_s": max(0.0, cont_extra.get("content_scan_s", 0.0)),
        "containment.edges": rows["edges_cont"],
        "containment.yield": _ratio(rows["edges_cont"], cont_cands),
        "cc.s": cc_s,
        "cc.edges": rows["edges"],
        # 0 = driver union-find, 1 = distributed label propagation (the
        # program's documented 'auto' rule on the edge count)
        "cc.mode": 0 if rows["edges"] <= cc_driver_max_edges else 1,
        "cc.largest_component": pc.max(sizes).as_py() or 0,
        "clusters.attach_s": wall["clusters"] - cc_s,
        "canonical.s": wall["actions"],
        "canonical.clusters": pc.count_distinct(roles["cluster_id"]).as_py(),
        "canonical.dups": pc.sum(pc.not_equal(roles["role"], "keep")).as_py() or 0,
        "shuffle.calls": len(shuffles),
        "shuffle.max_block_ratio": _ratio(max(block_rows, default=0),
                                          statistics.median(block_rows)
                                          if block_rows else 0),
        "driver.collect_s": (sum(s.seconds for s in done)
                             + cont_extra.get("cand_ids_s", 0.0)),
        "driver.overhead_s": scan_s - sum(wall.values()),
    }
