"""End-to-end extraction pipeline (SURVEY.md §3.4).

    read_parquet (pruned columns)
      -> ExtractPages in Ray Data tasks, one warm extractor per worker
         process, one call per block (zero-copy Arrow into the C kernel;
         rows of completed partitions dropped first; fused with the write
         below)
      -> write_parquet partitioned by url-hash part  (resumable unit)
      -> per-partition lineage manifests + run metrics roll-up

The read, extract and write run on ``state/manifest.py::run_parts``, the
one resume path this job shares with both stages of the corpus job.

Design notes for 100 TB scale:
  * the hot path is shuffle-free: partition ids are a pure function of url,
    so no repartition/groupby is needed before the partitioned write;
  * resume skips completed partitions before any parse (at the read for
    part-laid-out input, else in the extraction task), so re-runs extract
    only missing data;
  * the only driver-side materialization is the per-partition stats
    aggregate (O(num_parts) rows) used to write manifests.
"""

from __future__ import annotations

import functools
import shutil
from pathlib import Path

import pyarrow as pa

from fuzi_rd.stages.extractor import DEFAULT_NUM_PARTS, ExtractPages, url_part
from fuzi_rd.state import manifest as mf


@functools.lru_cache(maxsize=8)
def _warm_extractor(config: tuple) -> ExtractPages:
    """This worker process's ``ExtractPages`` for one constructor config,
    built on first use and reused by every later task in the process."""
    kwargs = dict(config)
    kwargs["recipe"] = dict(kwargs["recipe"])
    return ExtractPages(**kwargs)


def extract_pages(
    batch: pa.Table, config: tuple, skip_parts: frozenset = frozenset()
) -> pa.Table:
    """Task UDF: extract one batch with the process-warm ``ExtractPages``,
    after dropping the rows whose url-hash part is in ``skip_parts``
    (partitions a resumed run has already committed).

    A Ray worker process runs one task at a time, so the process is the
    isolation boundary for the extractor's non-thread-safe state (compiled
    recipes, the loaded C kernel, ``BatchExtractor`` buffers)."""
    if skip_parts:
        num_parts = dict(config)["num_parts"]
        batch = batch.filter(
            pa.array(
                [
                    url_part(u, num_parts) not in skip_parts
                    for u in batch.column("url").to_pylist()
                ],
                pa.bool_(),
            )
        )
    return _warm_extractor(config)(batch)


def extract_dataset(
    ds,
    recipe: dict | None = None,
    batch_size: int | None = None,
    num_parts: int = DEFAULT_NUM_PARTS,
    skip_parts: set[int] | None = None,
    emit_markdown: bool = False,
    emit_metadata: bool = False,
    emit_links: bool = False,
):
    """Wire the extraction stages onto an input Dataset (lazy).

    Extraction runs as plain Ray Data tasks (see :func:`extract_pages`):
    there is no actor pool to spawn per job or to size, and Ray fuses the
    extraction with the next task stage (in ``run_extraction``, the
    partitioned write), so extracted text never crosses the object store.
    ``batch_size=None`` hands each task's whole block to one
    ``ExtractPages`` call, whose kernel passes slice it by
    ``chtml.KERNEL_PASS_BYTES``.  A page over ``chtml.MAX_PAGE_BYTES``
    becomes an error row unparsed."""
    config = (
        ("recipe", tuple(sorted((recipe or {}).items()))),
        ("num_parts", num_parts),
        ("emit_markdown", emit_markdown),
        ("emit_metadata", emit_metadata),
        ("emit_links", emit_links),
    )
    return ds.map_batches(
        extract_pages,
        batch_size=batch_size,
        batch_format="pyarrow",
        fn_kwargs={"config": config, "skip_parts": frozenset(skip_parts or ())},
    )


def run_extraction(
    input_path,
    out_dir: str,
    recipe: dict | None = None,
    batch_size: int | None = None,
    num_parts: int = DEFAULT_NUM_PARTS,
    resume: bool = True,
    run_id: str = "run",
    input_partitioned: bool = False,
) -> dict:
    """Full job: read -> extract -> partitioned write -> manifests, on the
    resume path of ``state/manifest.py::run_parts``.

    ``input_partitioned``: set True when the input is laid out as
    ``part=<k>/`` url-hash directories produced by this repo's partitioned
    writer WITH THE SAME ``num_parts`` (part must be the same pure function
    of url).  A resumed run then prunes completed partitions at
    ``read_parquet(paths=...)`` — completed parts' files never leave
    storage — instead of being read and dropped in the extraction task.

    Returns the run-level metrics roll-up."""
    import ray

    if not resume and Path(out_dir).exists():
        shutil.rmtree(out_dir)

    def build(done: set[int]):
        read_paths, skip_parts = input_path, done
        if input_partitioned and done:
            pruned = _prune_input_parts(input_path, done)
            if pruned is not None:
                if not pruned:
                    return None  # every input partition is already complete
                read_paths, skip_parts = pruned, set()
        ds = ray.data.read_parquet(read_paths, columns=["url", "html"])
        extracted = extract_dataset(
            ds,
            recipe=recipe,
            batch_size=batch_size,
            num_parts=num_parts,
            skip_parts=skip_parts,
        )
        return mf.write_parts(extracted, out_dir, writer_batch, sums)

    # Writer batch sizing: each writer task writes ~one file per url-hash
    # part it sees, so rows-per-file ~= writer_batch / num_parts.  Scale the
    # batch with num_parts (>= 64 rows per part-file) or parquet
    # fixed-per-file overhead dominates — measured at 4M pages: num_parts
    # 256 with an 8k batch (32-row files) ran 26% slower than num_parts 64.
    # Cap keeps one writer batch's arrow data well inside a worker heap.
    # Extraction fuses into this writer, so the batch is also the input
    # size of one extract+write task.
    writer_batch = min(max((batch_size or 0) * 16, num_parts * 64, 2048), 65536)
    sums = {
        "bytes_in": "html_bytes", "bytes_out": "text_len", "parse_us_sum": "parse_us",
    }
    return mf.run_parts(out_dir, run_id, build)


def _prune_input_parts(input_path, completed: set[int]) -> list[str] | None:
    """Directories of input partitions still to process, or None when the
    input isn't in the ``part=<k>/`` layout (the extraction task then
    drops the completed parts' rows)."""
    part_dirs: dict[int, Path] = {}
    for d in Path(input_path).glob("part=*"):
        try:
            part_dirs[int(d.name.split("=", 1)[1])] = d
        except ValueError:
            return None
    if not part_dirs:
        return None
    # read_parquet accepts a list of FILES, not directories: expand each
    # missing partition dir (skipping _/. metadata files, as the dataset
    # reader itself would)
    files: list[str] = []
    for k, d in sorted(part_dirs.items()):
        if k in completed:
            continue
        files.extend(
            str(f)
            for f in sorted(d.iterdir())
            if f.is_file() and not f.name.startswith(("_", "."))
        )
    return files
