"""Ladder rungs under Ray, timed from outside the program on the job's
own input and pool shape:

    L0  read_parquet(url, html), consumed            -> read.us_per_doc
    L1  + identity map_batches on the actor pool     -> transport = L1 - L0
    L2  + the job's transforms (extract_dataset, or
          corpus_dataset(dedup=False)), no write
    L3  the full job                                 -> write / dedup = L3 - L2

Each rung's output is materialized in the object store, so nothing is
pulled into the driver.
"""

from __future__ import annotations

import time


class Identity:
    """Actor-pool UDF that returns its batch unchanged."""

    def __call__(self, batch):
        return batch


def _drain(ds) -> int:
    # materialize() runs the plan to completion and shuts its actor pool
    # down; a partly iterated stream would keep the pool's CPU reserved
    mat = ds.materialize()
    rows = mat.count()
    del mat
    return rows


def _pool() -> int:
    import ray

    # the job's own default pool: max(1, int(0.75 * cpus))
    return max(1, int(ray.cluster_resources().get("CPU", 1) * 0.75))


def rung(level: int, job, batch_size: int) -> float:
    """Wall seconds of one ladder rung L0..L2 on the job's input."""
    import ray

    from perfbench.session import settle

    settle()
    t = time.perf_counter()
    ds = ray.data.read_parquet(str(job.inp.path), columns=["url", "html"])
    if level == 1:
        ds = ds.map_batches(
            Identity, batch_size=batch_size, concurrency=_pool(),
            batch_format="pyarrow", num_cpus=1,
        )
    elif level == 2:
        ds = job.pipeline(ds)
    rows = _drain(ds)
    wall = time.perf_counter() - t
    if level < 2 and rows != job.inp.n_docs:
        raise RuntimeError(f"ladder L{level} read {rows} of {job.inp.n_docs} rows")
    return wall
