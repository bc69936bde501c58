"""The three workloads: how each one's timed job calls the public job
functions, how its output is gated, and what its ladder rung L2 builds.

* ``crawl_mix``: ``run_extraction`` over the default ``row_for_seq`` mix;
  the C kernel takes every page, so ``fastextract`` and the writer work and
  the Python parser does not.
* ``corpus_fused``: ``run_corpus(emit_markdown=True, emit_metadata=True)``;
  the Python-DOM path (C arena, ``extract.py``, markdown, metadata),
  quality and language cleaning, checkpoint and global dedup shuffle.
* ``hostile_mix``: ``run_extraction`` over ``skew_pages_table`` with legacy
  charsets and kernel-declined pages (decode, fallback and memory).

The traced runs of the two extraction workloads also time a resume:
``run_extraction(resume=True)`` after the manifests of a seeded half of
the parts are deleted (manifests, part clean-up, the ``_with_meta`` pass
and the part filter).
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

from perfbench import gate
from perfbench.inputs import InputSet

NAMES = ("crawl_mix", "corpus_fused", "hostile_mix")


def num_parts() -> int:
    from fuzi_rd.stages.extractor import DEFAULT_NUM_PARTS

    return DEFAULT_NUM_PARTS


def batch_size(name: str) -> int:
    """The job functions' default batch sizes (``run_extraction`` 32,
    ``run_corpus`` 256)."""
    return 256 if name == "corpus_fused" else 32


def full_job(name: str, pages: Path, out: Path) -> None:
    """One complete, non-resumed job."""
    if name == "corpus_fused":
        from fuzi_rd.pipelines.corpus import run_corpus

        run_corpus(str(pages), str(out), resume=False, emit_markdown=True, emit_metadata=True)
        return
    from fuzi_rd.pipelines.extraction import run_extraction

    run_extraction(str(pages), str(out), resume=False)


def resume_parts(inp: InputSet) -> list[int]:
    """The seeded half of the parts whose manifests a crash 'lost'."""
    rng = random.Random(inp.seed * 31 + 1)
    return sorted(rng.sample(range(num_parts()), num_parts() // 2))


class Job:
    """One workload bound to its input and output directory."""

    def __init__(self, name: str, inp: InputSet, out: Path):
        self.name, self.inp, self.out = name, inp, out
        self.before_crash: dict[int, dict] | None = None

    def run(self) -> None:
        """The timed call."""
        full_job(self.name, self.inp.path, self.out)

    def crash(self) -> None:
        """Untimed: lose the manifests of a seeded half of the parts, as a
        run that died before committing them would."""
        self.before_crash = self._manifests()
        for k in resume_parts(self.inp):
            (self.out / "_manifests" / f"part-{k}.json").unlink(missing_ok=True)

    def resume(self) -> None:
        """The timed resume after ``crash()``."""
        from fuzi_rd.pipelines.extraction import run_extraction

        run_extraction(str(self.inp.path), str(self.out), resume=True)

    def recomputed(self) -> int:
        lost = set(resume_parts(self.inp))
        return sum(m["rows"] for k, m in self._manifests().items() if k in lost)

    def check(self, out: Path | None = None) -> tuple[list[str], int]:
        out = self.out if out is None else out
        if self.name == "corpus_fused":
            return gate.check_corpus(out, self.inp, num_parts())
        problems, failed = gate.check_extraction(out, self.inp, num_parts())
        if self.before_crash is not None and out == self.out:
            if self._manifests() != self.before_crash:
                problems.append("resumed manifests differ from the uninterrupted run")
            self.before_crash = None
        return problems, failed

    def _manifests(self) -> dict[int, dict]:
        from fuzi_rd.state import manifest as mf

        return {
            m["part"]: {"rows": m["rows"], "text_checksum": m["text_checksum"]}
            for m in mf.read_manifests(str(self.out))
        }

    def pipeline(self, ds):
        """Ladder rung L2: the job's transform chain, without the write."""
        if self.name == "corpus_fused":
            from fuzi_rd.pipelines.corpus import corpus_dataset

            return corpus_dataset(
                ds, dedup=False, emit_markdown=True, emit_metadata=True,
                batch_size=batch_size(self.name),
            )
        from fuzi_rd.pipelines.extraction import extract_dataset

        return extract_dataset(ds, batch_size=batch_size(self.name))

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
