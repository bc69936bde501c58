"""Benchmark of the fuzi_rd extraction engine, run from a checkout root:

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 20 --trace 0

Load shape: a closed loop, one job at a time from this one process, on a
local Ray session with 2 logical CPUs (one extraction actor plus one slot
for the read and write tasks).  Each run

1. generates (or reuses) the seeded input set and the authority path's
   expected outputs (untimed, cached under ``.bench_work/inputs``);
2. sets the session up: imports the engine, loads the C kernel, starts
   Ray and runs a small warm-up extraction job (``setup_s``, once per run:
   the runs' budget leaves no room for repeats; the corpus job needs no
   warm-up of its own, its first timed job is no slower than the next);
3. ``--trace 0``: runs the workload's job back to back until ``--seconds``
   of job time are measured, gating every job's output
   (``perfbench/gate.py``); reports the end-to-end metrics
   ``docs_per_s`` (median over jobs), ``setup_s``, ``peak_rss_mb`` and
   ``ok_docs_ratio``.
   ``--trace 1``: runs the ladder rungs, the full job with a 20 Hz
   ``/proc`` sampler and without it, a resume after half the manifests are
   lost (extraction workloads) and the in-process replay, and reports the
   per-layer metrics (``BENCHMARK.json`` lists them); then corrupts copies
   of the last output and checks that the gate fails each one.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a gate failure prints it
with ``correct: false`` and no metrics, and exits 1.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SAMPLE_S = 0.1  # untraced runs: peak RSS and host contamination
TRACE_SAMPLE_S = 0.05  # traced runs: also CPU by Ray process role


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs):
    if len(xs) < 2:
        return [xs[0]] * 3 if xs else [0.0] * 3
    return statistics.quantiles(xs, n=4)


class Bench:
    def __init__(self, args, root: Path):
        from perfbench import inputs, session, workloads

        self.args, self.root = args, root
        self.session = session
        self.work = session.isolate(root)
        self.name = args.workload
        if self.name not in workloads.NAMES:
            raise SystemExit(f"unknown workload {self.name!r}; one of {workloads.NAMES}")
        # set-up, part 1: the engine's imports and the driver's C kernel
        import ray  # noqa: F401
        import ray.data  # noqa: F401

        import fuzi_rd.pipelines.corpus  # noqa: F401
        import fuzi_rd.pipelines.extraction  # noqa: F401
        from fuzi_rd import chtml

        self.import_s = time.perf_counter() - T_START
        t = time.perf_counter()
        if not chtml.available():
            raise SystemExit("the C kernel did not build or load")
        self.kernel_s = time.perf_counter() - t
        # untimed: inputs and the authority's expected outputs
        from perfbench import gate

        self.inp = inputs.prepare(self.work, self.name, args.seed)
        gate.expectations(self.inp)
        self.warm_pages = inputs.prepare_warmup(self.work)
        self.job = workloads.Job(self.name, self.inp, self.work / "out" / self.name)
        self.bs = workloads.batch_size(self.name)
        self.temp = session.ray_temp_dir(self.work)
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> dict:
        from fuzi_rd.pipelines.extraction import run_extraction

        t = time.perf_counter()
        self.session.start_ray(self.temp)
        init_s = time.perf_counter() - t
        t = time.perf_counter()
        run_extraction(str(self.warm_pages), str(self.work / "out" / "warmup"), resume=False)
        warm_s = time.perf_counter() - t
        return {
            "setup_s": self.import_s + self.kernel_s + init_s + warm_s,
            "session.init_s": init_s,
            "session.warmup_s": warm_s,
        }

    # -- one gated job -------------------------------------------------------

    def timed(self, run, interval: float):
        """Run ``run()`` under a sampler, then gate the output."""
        self.session.settle()
        with self.session.ProcSampler(interval) as smp:
            t = time.perf_counter()
            run()
            wall = time.perf_counter() - t
        problems, failed = self.job.check()
        self.problems += problems
        self.attempted += self.inp.n_docs
        self.failed += failed
        return wall, smp

    def measure(self) -> tuple[dict, dict]:
        self.job.clear()
        walls, peaks, contam = [], [], []
        while not walls or sum(walls) < self.args.seconds:
            wall, smp = self.timed(self.job.run, SAMPLE_S)
            walls.append(wall)
            peaks.append(smp.peak_rss_kb / 1024)
            contam.append(smp.contamination())
        rates = [self.inp.n_docs / w for w in walls]
        metrics = {
            "docs_per_s": _median(rates),
            "peak_rss_mb": _median(peaks),
            "ok_docs_ratio": 1.0 - self.failed / self.attempted,
        }
        detail = {
            "jobs": len(walls),
            "docs_per_s_quartiles": _quartiles(rates),
            "job_wall_s": walls,
            "contamination": contam,
        }
        return metrics, detail

    def trace(self) -> tuple[dict, dict]:
        from perfbench import ladder, replay

        n = self.inp.n_docs
        corpus = self.name == "corpus_fused"
        self.job.clear()
        rungs: dict[str, list[float]] = {k: [] for k in ("L0", "L1", "L2", "L3", "L3t", "R")}
        shares, rss, contam, recomputed = [], [], [], []
        t_end = time.perf_counter() + self.args.seconds
        while not rungs["L0"] or time.perf_counter() < t_end:
            # L0 and L1 take about a second each and are bimodal (a read
            # task may or may not find an idle Ray worker): repeat them and
            # keep the fastest, so their difference is not that noise
            for level in (0, 1, 0, 1, 0, 1, 2):
                rungs[f"L{level}"].append(ladder.rung(level, self.job, self.bs))
            wall, _ = self.timed(self.job.run, SAMPLE_S)
            rungs["L3"].append(wall)
            wall, smp = self.timed(self.job.run, TRACE_SAMPLE_S)
            rungs["L3t"].append(wall)
            shares.append(smp.shares())
            if not corpus:
                self.job.crash()
                wall, _ = self.timed(self.job.resume, TRACE_SAMPLE_S)
                rungs["R"].append(wall)
                recomputed.append(self.job.recomputed())
            rss.append(smp.peak_actor_rss_kb / 1024)
            contam.append(smp.contamination())
        med = {k: _median(v) for k, v in rungs.items()}
        med["L0"], med["L1"] = min(rungs["L0"]), min(rungs["L1"])
        us = 1e6 / n
        m = {
            "read.us_per_doc": med["L0"] * us,
            "transport.us_per_doc": (med["L1"] - med["L0"]) * us,
            "extraction.write_us_per_doc": 0.0 if corpus else (med["L3"] - med["L2"]) * us,
            "corpus.dedup_us_per_doc": (med["L3"] - med["L2"]) * us if corpus else 0.0,
            "extraction.resume_us_per_recomputed_doc":
                med["R"] * 1e6 / _median(recomputed) if recomputed else 0.0,
            "trace.overhead_ratio": med["L3"] / med["L3t"],
            "actor.peak_rss_mb": _median(rss),
            "host.cotenant_cores": _median([c["cotenant_cores"] for c in contam]),
            "host.steal_cores": _median([c["steal_cores"] for c in contam]),
        }
        for role in ("actor", "io_tasks", "driver", "ray_system"):
            key = "actor.busy_share" if role == "actor" else f"{role}.cpu_share"
            m[key] = _median([s[role] for s in shares])
        layers = dict.fromkeys(PER_LAYER_REPLAY, 0.0)
        layers.update(replay.replay(self.job, self.bs))
        m.update(layers)
        m["manifest.commit_s"] = (
            0.0 if corpus else replay.manifest_commit_s(self.job.out, self.work / "commit")
        )
        m["chtml.build_s"] = self._build_s()
        detail = {"rungs_s": rungs, "contamination": contam}
        return m, detail

    def _build_s(self) -> float:
        """``chtml.available()`` in a fresh process with an empty TMPDIR:
        compile, load and self-check of the C kernel."""
        tmp = self.work / "build_probe"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        code = (
            "import sys, time; from fuzi_rd import chtml; t = time.perf_counter(); "
            "ok = chtml.available(); print(time.perf_counter() - t); sys.exit(not ok)"
        )
        env = dict(os.environ, TMPDIR=str(tmp))
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=self.root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)
        return float(out.stdout.strip())

    def selftest(self) -> None:
        from perfbench import gate

        missed = gate.selftest(
            self.job.out, self.work / "selftest", lambda d: self.job.check(d)[0]
        )
        if missed:
            self.problems.append(f"gate self-test missed corruptions: {missed}")


PER_LAYER_REPLAY = (
    "chtml.decode_us_per_doc", "chtml.parse_us_per_doc", "chtml.accept_ratio",
    "fastextract.finish_us_per_doc", "extractor.assemble_us_per_doc",
    "html_parser.fallback_us_per_doc", "chtml.arena_us_per_doc",
    "extract.kill_us_per_doc", "extract.density_us_per_doc", "markdown.us_per_doc",
    "metadata.us_per_doc", "corpus.clean_us_per_doc", "inproc.docs_per_s",
)


def _units() -> dict[str, str]:
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    if not (root / "fuzi_rd" / "__init__.py").is_file():
        print("perfbench: run from a checkout root that holds fuzi_rd/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root))
    bench = Bench(args, root)
    try:
        setup = bench.setup()
        if args.trace:
            metrics, detail = bench.trace()
            bench.selftest()
            metrics.update(
                {k: v for k, v in setup.items() if k.startswith("session.")}
            )
        else:
            metrics, detail = bench.measure()
            metrics["setup_s"] = setup["setup_s"]
    finally:
        bench.session.stop_ray(bench.temp, bench.work)
    units = _units()
    correct = not bench.problems
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": bench.inp.stats, "setup": setup, "metrics": metrics, **detail,
        "problems": bench.problems[:50],
    }
    runs = bench.work / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for p in bench.problems[:20]:
        print(f"gate: {p}", file=sys.stderr)
    print(f"inputs: {json.dumps(bench.inp.stats)}")
    print(f"detail: {json.dumps(detail)}")
    if correct:
        for k, v in metrics.items():
            print(f"{k}: {v:.6g} {units.get(k, '')}")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
