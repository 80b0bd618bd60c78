"""Per-stage metrics + lineage (A5 in SURVEY.md §2.5).

The reference's ProgressTracker running totals and rates
(/root/reference/crates/image-deduper-core/src/processing/utils/progress.rs:100-248)
become *data*: one row per completed stage (rows, wall seconds, config
hash) appended to a ``metrics`` Parquet directory next to the stage
checkpoints, so a resumed run carries its history and the driver can
aggregate with a plain groupby (``get_db_stats`` analog, db.rs:191-210).

Each sink (one per ``run_pipeline`` call) gets its own run_id, which
starts with the run's UTC start time, so the rows of different runs
never share a run_id and the files ``<run_id>-<seq>-<stage>.parquet``
sort in run order: a reader that keeps the last row of a stage in name
order gets the latest run's.
"""

from __future__ import annotations

import os
import time
from datetime import datetime, timezone

import pyarrow as pa
import pyarrow.parquet as pq


def _new_run_id() -> str:
    """UTC start time to the microsecond, plus 4 random hex digits so
    two runs started in the same microsecond still differ."""
    return (datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
            + "-" + os.urandom(2).hex())


class MetricsSink:
    def __init__(self, root: str):
        self.dir = os.path.join(root, "metrics")
        os.makedirs(self.dir, exist_ok=True)
        self.run_id = _new_run_id()
        self._seq = 0

    def record(self, stage: str, rows: int, wall_s: float, **extra) -> None:
        t = pa.table({
            "run_id": pa.array([self.run_id], pa.string()),
            "stage": pa.array([stage], pa.string()),
            "rows": pa.array([int(rows)], pa.int64()),
            "wall_s": pa.array([float(wall_s)], pa.float64()),
            "unix_ts": pa.array([time.time()], pa.float64()),
            "extra": pa.array([repr(extra) if extra else ""], pa.string()),
        })
        path = os.path.join(self.dir, f"{self.run_id}-{self._seq:04d}-{stage}.parquet")
        pq.write_table(t, path)
        self._seq += 1


class StageTimer:
    def __init__(self, sink: MetricsSink, stage: str):
        self.sink, self.stage = sink, stage

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def done(self, rows: int, **extra):
        self.sink.record(self.stage, rows, time.monotonic() - self.t0, **extra)

    def __exit__(self, *exc):
        return False
