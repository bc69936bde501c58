"""Crawl-snapshot diff (fuzi_rd.functions.diff)."""

from __future__ import annotations

import pyarrow as pa

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


_SMALL_MEMORY_DIFF = """
import ray
import pyarrow as pa

ray.init(address="local", num_cpus=4, _memory=2 * 2**30, include_dashboard=False)
from fuzi_rd.functions.diff import crawl_diff

old = pa.table({"url": ["a", "b"], "text": ["x", "y"]})
new = pa.table({"url": ["a", "c"], "text": ["x", "z"]})
out = crawl_diff(ray.data.from_arrow(old), ray.data.from_arrow(new)).take_all()
assert sorted(r["change"] for r in out) == ["added", "removed", "same"], out
ray.shutdown()
"""


def test_join_finishes_on_small_memory_cluster(tmp_path):
    """A 16-partition join must finish on a cluster with 2 GiB of Ray
    memory: Ray's default aggregator reservation for it is 14 GiB, and the
    aggregators that did not fit stayed pending forever.  The job runs in a
    child process so a hang cannot wedge this one."""
    import os
    import pathlib
    import signal
    import subprocess
    import sys

    import pytest

    root = str(pathlib.Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    with open(tmp_path / "child.log", "w+") as log:
        child = subprocess.Popen(
            [sys.executable, "-c", _SMALL_MEMORY_DIFF],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            child.wait(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            pytest.fail("crawl_diff on a 2 GiB-memory cluster ran past 180 s")
        log.seek(0)
        assert child.returncode == 0, log.read()[-2000:]
