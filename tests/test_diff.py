"""Crawl-snapshot diff (fuzi_rd.functions.diff)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from fuzi_rd.functions.diff import crawl_diff


def _snap(rows) -> pa.Table:
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def test_crawl_diff_all_classes(ray_session):
    import ray

    old = _snap(
        [
            ("u/same", "identical content"),
            ("u/changed", "old content"),
            ("u/removed", "gone next crawl"),
            ("u/null-same", None),
        ]
    )
    new = _snap(
        [
            ("u/same", "identical content"),
            ("u/changed", "NEW content"),
            ("u/added", "brand new page"),
            ("u/null-same", None),
        ]
    )
    out = {
        r["url"]: r["change"]
        for r in crawl_diff(
            ray.data.from_arrow(old), ray.data.from_arrow(new)
        ).take_all()
    }
    assert out == {
        "u/same": "same",
        "u/changed": "changed",
        "u/removed": "removed",
        "u/added": "added",
        "u/null-same": "same",  # null text hashes as ''
    }


def test_crawl_diff_disjoint_and_counts(ray_session):
    import ray

    old = _snap([(f"o/{i}", f"t{i}") for i in range(50)])
    new = _snap([(f"n/{i}", f"t{i}") for i in range(30)])
    out = crawl_diff(ray.data.from_arrow(old), ray.data.from_arrow(new)).take_all()
    counts: dict[str, int] = {}
    for r in out:
        counts[r["change"]] = counts.get(r["change"], 0) + 1
    assert counts == {"removed": 50, "added": 30}


_SMALL_CLUSTER_DIFF = """
import sys

import ray
import pyarrow as pa

ray.init(
    address="local", num_cpus=int(sys.argv[1]), _memory=2 * 2**30, include_dashboard=False
)
from fuzi_rd.functions.diff import crawl_diff

old = pa.table({"url": ["a", "b"], "text": ["x", "y"]})
new = pa.table({"url": ["a", "c"], "text": ["x", "z"]})
out = crawl_diff(ray.data.from_arrow(old), ray.data.from_arrow(new)).take_all()
assert sorted(r["change"] for r in out) == ["added", "removed", "same"], out
ray.shutdown()
"""

_CONCURRENT_JOINS = """
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=4, _memory=2 * 2**30, include_dashboard=False)
from fuzi_rd.functions.dedup import anti_join

d = sys.argv[1]
pq.write_table(pa.table({"k": list(range(1000))}), os.path.join(d, "keys.parquet"))
for i in range(4):
    pq.write_table(pa.table({"k": list(range(1001 + i))}), os.path.join(d, f"c{i}.parquet"))
# plans are built one at a time (read_parquet's lazy imports are not
# thread-safe) and counted at once
plans = [
    anti_join(
        ray.data.read_parquet(os.path.join(d, f"c{i}.parquet")),
        ray.data.read_parquet(os.path.join(d, "keys.parquet")),
        "k",
        num_partitions=1,
    )
    for i in range(4)
]
with ThreadPoolExecutor(4) as ex:
    assert list(ex.map(lambda p: p.count(), plans)) == [1, 2, 3, 4]
ray.shutdown()
"""


def _run_child(tmp_path, script: str, *args: str, limit_s: int = 180) -> None:
    """Run ``script`` in a child Python process with a ``limit_s`` limit,
    so a Ray job that hangs cannot wedge this one."""
    import os
    import pathlib
    import signal
    import subprocess
    import sys

    root = str(pathlib.Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    with open(tmp_path / "child.log", "w+") as log:
        child = subprocess.Popen(
            [sys.executable, "-c", script, *args],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            child.wait(timeout=limit_s)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            pytest.fail(f"child Ray job {args} ran past {limit_s} s")
        log.seek(0)
        assert child.returncode == 0, log.read()[-2000:]


@pytest.mark.parametrize("num_cpus", [4, 2, 1])
def test_join_finishes_on_small_memory_cluster(tmp_path, num_cpus):
    """A 16-partition join must finish on a cluster with 2 GiB of Ray
    memory and 4, 2 or 1 logical CPUs.  Ray's default aggregator
    reservation for it is 14 GiB and 2 CPUs: aggregators that did not fit
    stayed pending forever, and on 2 CPUs the ones that did fit left no
    CPU for the map tasks feeding them."""
    _run_child(tmp_path, _SMALL_CLUSTER_DIFF, str(num_cpus))


def test_concurrent_joins_leave_memory_for_shuffle_tasks(tmp_path):
    """Four small joins run at once (as in the referential-integrity
    report) must finish within 120 s on a cluster with 2 GiB of Ray
    memory: Ray's shuffle tasks reserve memory too, so the aggregators of
    one tiny join may not take a quarter of it (four joins took all of it
    and never finished)."""
    data = tmp_path / "data"
    data.mkdir()
    _run_child(tmp_path, _CONCURRENT_JOINS, str(data), limit_s=120)
