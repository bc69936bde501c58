"""Ray session shape, process sampling and clean-up for the benchmark.

Everything the benchmark writes lives under ``<checkout>/.bench_work``
(inputs, outputs, the C-kernel ``.so`` cache as ``TMPDIR``) and
``<checkout>/.br`` (Ray's session directory, kept short for its sockets).
Ray runs with 2 logical CPUs: the extraction pool default
``max(1, int(0.75 * cpus))`` then holds one actor and leaves one slot for
the read and write tasks (with 1 logical CPU the actor takes the only slot
and the job never schedules its reads).
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path

RAY_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
_HZ = os.sysconf("SC_CLK_TCK")
# unix socket paths are capped at 107 bytes; Ray appends about 62
# ("/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store")
_SOCKET_BUDGET = 107 - 64


def isolate(root: Path) -> Path:
    """Point every scratch path of this process and its children inside
    the checkout, and let Ray workers import ``fuzi_rd`` and ``perfbench``
    from it.  Returns the work directory."""
    work = root / ".bench_work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    tempfile.tempdir = str(tmp)
    return work


def ray_temp_dir(work: Path) -> Path:
    # a short name at the checkout root leaves Ray's socket paths the most room
    d = work.parent / ".br"
    if len(str(d)) > _SOCKET_BUDGET:
        # a checkout this deep cannot host Ray's sockets; use a short,
        # private directory instead and remove it in stop_ray()
        d = Path(tempfile.mkdtemp(prefix="fzb", dir="/tmp"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def start_ray(temp_dir: Path) -> None:
    import logging

    import ray

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        object_store_memory=OBJECT_STORE_BYTES,
        log_to_driver=False,
        logging_level=logging.WARNING,
        _temp_dir=str(temp_dir),
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def settle(timeout: float = 60.0) -> None:
    """Wait until the previous job's actors have released their CPUs, so
    the next timed call does not queue behind them."""
    import ray

    total = ray.cluster_resources().get("CPU", 0)
    deadline = time.monotonic() + timeout
    # a finished Dataset's actor pool is released when the plan is collected
    gc.collect()
    while ray.available_resources().get("CPU", 0) < total and time.monotonic() < deadline:
        time.sleep(0.05)


def stop_ray(temp_dir: Path, work: Path) -> None:
    """Shut Ray down and wait until every process this one started has
    exited (SIGKILL after a grace period)."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    me = os.getpid()
    deadline = time.monotonic() + 15.0
    while True:
        left = [p for p in _descendants(me) if p != me]
        if not left:
            break
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.1)
        _reap()
    if not temp_dir.is_relative_to(work.parent):
        shutil.rmtree(temp_dir, ignore_errors=True)


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


# -- /proc sampling ----------------------------------------------------------


def _proc_table() -> dict[int, tuple[int, int, str]]:
    """pid -> (ppid, utime+stime ticks, state)."""
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                raw = f.read()
        except OSError:
            continue
        rest = raw[raw.rfind(")") + 2 :].split()
        if rest[0] == "Z":
            continue
        out[int(entry)] = (int(rest[1]), int(rest[11]) + int(rest[12]), rest[0])
    return out


def _descendants(root: int, table=None) -> set[int]:
    table = _proc_table() if table is None else table
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    seen, stack = set(), [root]
    while stack:
        pid = stack.pop()
        if pid in seen or pid not in table:
            continue
        seen.add(pid)
        stack.extend(children.get(pid, ()))
    return seen


def _title(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().split(b"\x00", 1)[0].decode("utf-8", "replace")
    except OSError:
        return ""


def _rss_anon_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _host_ticks() -> tuple[int, int]:
    """(busy, steal) jiffies summed over every core."""
    busy = steal = 0
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith("cpu") and line[3:4].isdigit():
                v = list(map(int, line.split()[1:]))
                busy += sum(v) - v[3] - v[4]
                steal += v[7] if len(v) > 7 else 0
    return busy, steal


def role_of(title: str) -> str:
    """Ray process titles: actors are ``ray::MapWorker(...)``, task workers
    take the title of the task they run (``ray::ReadParquet...``,
    ``ray::MapBatches(write_block)``), idle workers read ``ray::IDLE``."""
    if title.startswith("ray::MapWorker"):
        return "actor"
    if title.startswith("ray::") and not title.startswith("ray::IDLE"):
        return "io_tasks"
    return "ray_system"


class ProcSampler:
    """Samples this process's subtree during one job: peak summed RssAnon
    of the Ray workers (RssAnon leaves out the shared object store), CPU
    ticks by role, and the co-tenant / hypervisor-steal cores on the host
    (host busy ticks not attributable to the subtree), following the
    ``_LegMonitor`` of ``bench.py``."""

    def __init__(self, interval: float):
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._me = os.getpid()
        self._ticks: dict[int, int] = {}
        self.role_ticks = {"driver": 0, "actor": 0, "io_tasks": 0, "ray_system": 0}
        self.peak_rss_kb = 0
        self.peak_actor_rss_kb = 0

    def _sample(self) -> None:
        table = _proc_table()
        rss = actor_rss = 0
        for pid in _descendants(self._me, table):
            ticks = table[pid][1]
            if pid == self._me:
                role = "driver"
            else:
                title = _title(pid)
                role = role_of(title)
                if title.startswith("ray::"):
                    kb = _rss_anon_kb(pid)
                    rss += kb
                    if role == "actor":
                        actor_rss += kb
            # first sight of a pid: only ticks from now on count
            last = self._ticks.get(pid)
            if last is not None and ticks > last:
                self.role_ticks[role] += ticks - last
            self._ticks[pid] = ticks
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        self.peak_actor_rss_kb = max(self.peak_actor_rss_kb, actor_rss)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "ProcSampler":
        self._t0 = time.monotonic()
        self._host0 = _host_ticks()
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        self.wall_s = time.monotonic() - self._t0
        busy1, steal1 = _host_ticks()
        denom = max(self.wall_s, 1e-9) * _HZ
        own = sum(self.role_ticks.values())
        self.cotenant_cores = max(0, busy1 - self._host0[0] - own) / denom
        self.steal_cores = (steal1 - self._host0[1]) / denom

    def shares(self) -> dict[str, float]:
        """CPU seconds per wall second, by role."""
        denom = max(self.wall_s, 1e-9) * _HZ
        return {k: v / denom for k, v in self.role_ticks.items()}

    def contamination(self) -> dict[str, float]:
        return {
            "cotenant_cores": round(self.cotenant_cores, 3),
            "steal_cores": round(self.steal_cores, 3),
        }
