"""Dedup-scan benchmark: a fresh ``scan`` of a seeded code corpus.

    python3 perfbench/run.py --workload {vendored,resume} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. One driver process, one client, closed
loop: after set-up (input generation, Ray start with a fixed logical
CPU count, and a warm-up: for ``resume`` a fresh scan of its input, for
``vendored`` an import of the program in the Ray workers) it submits
``run_pipeline(input, out, DedupConfig(), resume=...)`` back to back
until the next scan would overrun ``--seconds``. ``files_per_s`` and
``setup_s`` take out of the wall time the share of CPU time the
hypervisor stole meanwhile (``steal`` against busy time in /proc/stat):
on a shared host it comes and goes with the neighbours' load, not with
the program. Every scan is checked
by ``gate.check``; a scan that raises, fails the gate or outlives its
timeout counts as failed. A timeout kills the Ray session and ends the
measurement. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

  --trace 0   the end-to-end metrics of BENCHMARK.json
  --trace 1   the per-layer metrics of BENCHMARK.json: scans alternate
              untraced / traced (``tracing.Tracer``), layer values are
              medians over the traced scans, and ``trace.*`` compares
              the two kinds. Spans go to .pbwork/<workload>-spans.json.

Everything the run writes (inputs, checkpoints, Ray's session files)
lives under .pbwork/ in the repository root and is removed at the end,
apart from the span dump.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbwork")
# Fixed, not taken from nproc: with num_cpus=1 the signature actor holds
# the only CPU and the Parquet read never schedules (the scan hangs).
NUM_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
SCAN_TIMEOUT_S = 90.0
# Whole-run budget: a run must end well inside 180 s.
DEADLINE_S = 165.0
# Unix socket paths under Ray's session dir must stay below 108 bytes;
# the session dir name and socket file add about 62.
RAY_TMP_MAX_LEN = 45
# vendored's hot-bucket check: the mega file must split this far
MIN_SUBBUCKETS = 16
# observed on every untraced scan (a ray.get of two small arrays)
PROBES = ("find_hot_buckets",)


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class ScanTimeout(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    """Run ``fn`` in a daemon thread; raise ScanTimeout if it is still
    running after ``timeout`` seconds (a hung Ray job never raises)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller, re-raised there
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise ScanTimeout(f"scan still running after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# -- processes ------------------------------------------------------------

def _descendants() -> list[int]:
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as fh:
                    parent[int(d)] = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    out, frontier = [], [os.getpid()]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out += kids
        frontier += kids
    return out


def _alive(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def kill_descendants(wait_s: float = 20.0) -> None:
    """SIGKILL every process this run started and wait until each ended."""
    pids = _descendants()
    for pid in pids:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    end = time.monotonic() + wait_s
    while any(_alive(p) for p in pids) and time.monotonic() < end:
        time.sleep(0.1)


def stop_ray() -> None:
    import ray

    th = threading.Thread(target=ray.shutdown, daemon=True)
    th.start()
    th.join(30)
    kill_descendants()


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) ticks summed over this host's CPUs (/proc/stat).
    Busy is user, nice, system, irq and softirq; steal is time a CPU
    wanted to run while the hypervisor ran another guest."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:9]]
    return f[0] + f[1] + f[2] + f[5] + f[6], f[7]


def unstolen(wall: float, since: tuple[int, int]) -> float:
    """``wall`` less the share of it stolen since the ``cpu_ticks()``
    reading ``since``: the CPUs ran steal / (busy + steal) slower than
    they asked to."""
    busy, steal = (b - a for a, b in zip(since, cpu_ticks()))
    return wall * (1 - steal / (busy + steal)) if busy + steal else wall


def peak_rss_mb() -> float:
    """Highest VmHWM across this driver and its Ray worker processes."""
    peak = 0
    for pid in [os.getpid()] + _descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read()
            if pid != os.getpid() and not cmd.startswith(b"ray::"):
                continue
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak * 1024 / 1e6


# -- the benchmark ----------------------------------------------------------

def start_ray() -> None:
    import ray
    from ray.data import DataContext

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    tmp = os.path.join(WORK, "ray")
    kwargs = {}
    if len(tmp) <= RAY_TMP_MAX_LEN:
        kwargs["_temp_dir"] = tmp
    else:
        log(f"{tmp} is too long for Ray's socket paths; using Ray's default")
    # workers must import the program from this checkout: without it the
    # signature actor restarts forever on ModuleNotFoundError
    path = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             runtime_env={"env_vars": {"PYTHONPATH": path}}, **kwargs)
    DataContext.get_current().enable_progress_bars = False


def warm_workers() -> None:
    """Import the program in NUM_CPUS Ray workers, so the first timed
    scan does not pay for it."""
    import ray

    @ray.remote(num_cpus=1)
    def load():
        import image_deduper_ray.pipelines.dedup  # noqa: F401
        time.sleep(0.5)  # hold the CPU so the next load gets another worker

    ray.get([load.remote() for _ in range(NUM_CPUS)], timeout=SCAN_TIMEOUT_S)


def dir_mb(d: str) -> float:
    return sum(os.path.getsize(os.path.join(p, f))
               for p, _, fs in os.walk(d) for f in fs) / 1e6


def resumed_from(out_dir: str) -> int:
    from tracing import stage_rows

    return int(stage_rows(out_dir)["signatures"]["extra"].get("resumed_from", 0))


def make_resume_template(fresh_out: str, template: str) -> None:
    """A signatures checkpoint killed mid-stage: the first half of the
    parts of a finished one (of its rows, if it has one part), no
    manifest, no later stage."""
    import pyarrow.parquet as pq

    src = os.path.join(fresh_out, "signatures")
    parts = sorted(f for f in os.listdir(src) if f.endswith(".parquet"))
    dst = os.path.join(template, "signatures")
    os.makedirs(dst)
    if len(parts) == 1:
        t = pq.read_table(os.path.join(src, parts[0]))
        pq.write_table(t.slice(0, t.num_rows // 2), os.path.join(dst, parts[0]))
    for f in parts[: len(parts) // 2]:
        shutil.copy(os.path.join(src, f), dst)


def mechanism_problems(name: str, tracer) -> list[str]:
    """Does the scan exercise what its workload exists for? ``vendored``
    must salt: some hot bucket, one split into >= MIN_SUBBUCKETS."""
    if name != "vendored":
        return []
    hot = tracer.named("find_hot_buckets")
    n_hot = sum(s.info["hot"] for s in hot)
    max_sub = max((s.info["max_sub"] for s in hot), default=0)
    if n_hot == 0 or max_sub < MIN_SUBBUCKETS:
        return [f"vendored: {n_hot} hot buckets, max {max_sub} sub-buckets "
                f"(want > 0 and >= {MIN_SUBBUCKETS})"]
    return []


def run(args, spec: dict) -> dict:
    t_setup, ticks_setup = time.monotonic(), cpu_ticks()
    sys.path.insert(0, ROOT)
    try:
        import image_deduper_ray  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT}: {e}")

    from image_deduper_ray.config import DedupConfig
    from image_deduper_ray.pipelines.dedup import run_pipeline

    import gate
    import tracing
    import workloads

    cfg = DedupConfig()
    name = args.workload
    resume = name == "resume"
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    corpus = workloads.generate(name, args.seed)
    input_dir = workloads.write(corpus, os.path.join(work, "input"))
    n_rows = corpus.table.num_rows
    log(f"{name}: seed {args.seed}, {n_rows} files")

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - T0)

    def scan(src: str, out_dir: str, resume_scan: bool) -> tuple[float, float]:
        """One scan: its wall time, and that less the share stolen."""
        def go():
            t0, ticks = time.monotonic(), cpu_ticks()
            run_pipeline(src, out_dir, cfg, resume=resume_scan)
            wall = time.monotonic() - t0
            return wall, unstolen(wall, ticks)
        return call_with_timeout(go, min(SCAN_TIMEOUT_S, remaining()))

    start_ray()
    try:
        template = os.path.join(work, "template")
        problems, reference = [], None
        try:
            if resume:
                # a fresh scan of the input: the reference partition and
                # the source of the partial checkpoint
                fresh = os.path.join(work, "fresh")
                scan(input_dir, fresh, resume_scan=False)
                g = gate.check(corpus, fresh)
                problems, reference = g["problems"], g["partition"]
                make_resume_template(fresh, template)
            else:
                warm_workers()
        except ScanTimeout as e:
            raise SystemExit(f"perfbench: warm-up failed: {e}")
        setup_s = unstolen(time.monotonic() - t_setup, ticks_setup)
        attempted = failed = int(bool(problems))
        for p in problems:
            log(f"warm-up: {p}")

        scans: list[dict] = []
        t_meas = time.monotonic()
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 1
            out_dir = os.path.join(work, f"scan{i}")
            shutil.rmtree(out_dir, ignore_errors=True)
            if resume:
                shutil.copytree(template, out_dir)
            attempted += 1
            try:
                with tracing.Tracer(None if traced else PROBES) as tr:
                    wall, net = scan(input_dir, out_dir, resume)
                g = gate.check(corpus, out_dir, reference if resume else None)
                g["problems"] += mechanism_problems(name, tr)
                if resume and resumed_from(out_dir) <= 0:
                    g["problems"].append("resume: the scan did not resume")
                rec = {"wall": wall, "stolen": wall - net,
                       "files_per_s": n_rows / net, "traced": traced,
                       "out_mb": dir_mb(out_dir), "recall": g["recall"],
                       "false_merge_rate": g["false_merge_rate"]}
                if traced:
                    rec["layers"] = tracing.layer_metrics(
                        tr, out_dir, n_rows, wall, cfg.cc_driver_max_edges)
                    tr.dump(os.path.join(WORK, f"{name}-spans.json"))
                scans.append(rec)
                if len(scans) == 1:
                    # VmHWM only grows: read it at the same point of every run
                    rss = peak_rss_mb()
                if g["problems"]:
                    failed += 1
                    for p in g["problems"]:
                        log(f"scan {i}: {p}")
                log(f"scan {i}: {wall:.2f} s, {wall - net:.2f} s of it stolen"
                    f"{' (traced)' if traced else ''}")
            except ScanTimeout as e:
                failed += 1
                log(f"scan {i}: {e}; killing the Ray session")
                stop_ray()
                break
            except Exception:
                failed += 1
                log(f"scan {i} raised:\n{traceback.format_exc()}")
                wall = time.monotonic() - t_meas
            shutil.rmtree(out_dir, ignore_errors=True)
            i += 1
            last = scans[-1]["wall"] if scans else wall
            need_both = args.trace and not (
                any(s["traced"] for s in scans) and any(not s["traced"] for s in scans))
            over = time.monotonic() - t_meas + last > args.seconds
            if (over and not need_both) or remaining() < last + 5:
                break

        if not scans:
            rss = peak_rss_mb()
    finally:
        stop_ray()
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)

    def med(key, traced=False):
        vals = [s[key] for s in scans if s["traced"] == traced]
        return statistics.median(vals) if vals else 0.0

    if not args.trace:
        values = {"files_per_s": med("files_per_s"), "setup_s": setup_s,
                  "peak_rss_mb": rss, "out_mb": med("out_mb"),
                  "dup_pair_recall": med("recall")}
    else:
        traced = [s["layers"] for s in scans if s["traced"]]
        values = {k: statistics.median(t[k] for t in traced)
                  for k in (traced[0] if traced else {})}
        fast, slow = med("files_per_s"), med("files_per_s", traced=True)
        values.update({
            "trace.untraced_files_per_s": fast,
            "trace.files_per_s": slow,
            "trace.overhead_ratio": fast / slow if slow else 0.0,
            "host.stolen_ratio": (sum(s["stolen"] for s in scans)
                                  / sum(s["wall"] for s in scans)) if scans else 0.0,
            "gate.false_merge_rate": max((s["false_merge_rate"] for s in scans),
                                         default=0.0),
            "gate.error_rate": failed / attempted})
    want = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in want}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


T0 = time.monotonic()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.makedirs(WORK, exist_ok=True)
    try:
        result = run(args, spec)
    finally:
        kill_descendants()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
