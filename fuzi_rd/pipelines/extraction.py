"""End-to-end extraction pipeline (SURVEY.md §3.4).

    read_parquet (pruned columns, completed partitions skipped)
      -> skew split: oversized html rows routed to a batch_size=1 branch
      -> ExtractPages in Ray Data tasks, one warm extractor per worker
         process (zero-copy Arrow; fused with the write below)
      -> write_parquet partitioned by url-hash part  (resumable unit)
      -> per-partition lineage manifests + run metrics roll-up

Design notes for 100 TB scale:
  * the hot path is shuffle-free: partition ids are a pure function of url,
    so no repartition/groupby is needed before the partitioned write;
  * resume prunes completed partitions at the READ (cheap vectorized filter)
    so re-runs touch only missing data;
  * the only driver-side materialization is the per-partition stats
    aggregate (O(num_parts) rows) used to write manifests.
"""

from __future__ import annotations

import functools
import shutil
import time
import zlib
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.stages.extractor import DEFAULT_NUM_PARTS, ExtractPages
from fuzi_rd.state import manifest as mf

# A single page larger than this is a straggler risk inside a big batch:
# route it to the batch_size=1 branch (SURVEY.md §4.2 "skew / stragglers").
DEFAULT_SKEW_THRESHOLD = 4 * 1024 * 1024

def _with_meta(num_parts: int):
    """Vectorized-ish per-batch computation of html size + url-hash part."""

    def add_meta(batch: pa.Table) -> pa.Table:
        n_bytes = pc.binary_length(batch.column("html"))
        parts = pa.array(
            [zlib.crc32(u.encode()) % num_parts for u in batch.column("url").to_pylist()],
            pa.int32(),
        )
        return batch.append_column("n_bytes", n_bytes).append_column("part", parts)

    return add_meta


@functools.lru_cache(maxsize=8)
def _warm_extractor(config: tuple) -> ExtractPages:
    """This worker process's ``ExtractPages`` for one constructor config,
    built on first use and reused by every later task in the process."""
    kwargs = dict(config)
    kwargs["recipe"] = dict(kwargs["recipe"])
    return ExtractPages(**kwargs)


def extract_pages(batch: pa.Table, config: tuple) -> pa.Table:
    """Task UDF: extract one batch with the process-warm ``ExtractPages``.

    A Ray worker process runs one task at a time, so the process is the
    isolation boundary for the extractor's non-thread-safe state (compiled
    recipes, the loaded C kernel, ``BatchExtractor`` buffers)."""
    return _warm_extractor(config)(batch)


def extract_dataset(
    ds,
    recipe: dict | None = None,
    batch_size: int = 32,
    num_parts: int = DEFAULT_NUM_PARTS,
    skew_threshold: int | None = None,
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

    ``skew_threshold``: when set, rows with ``len(html) > threshold`` are
    routed to a separate batch_size=1 branch (explicit skew handling per
    SURVEY.md §4.2).  Measured guidance (bench.py --skew on the earlier
    actor pools, 100k pages with a 0.2%-count / ~60%-byte heavy tail of
    1-4 MB pages): routing is a THROUGHPUT LOSS there (1.8x slower) — Ray's
    batch-level scheduling already spreads a moderate tail across the
    workers, and routing re-executes the shared read per branch.  Use
    routing for what per-batch scheduling cannot fix: EXTREME blobs (tens
    of MB+) where ``batch_size x page_bytes`` would blow a worker's heap.
    Default None; production threshold ~32-64 MB."""
    # The meta stage (url-hash part + html size) only exists to feed the
    # resume filter and the skew router; the extractor computes `part`
    # itself, so on a fresh, un-routed run we skip the extra pass entirely.
    if skip_parts or skew_threshold is not None:
        ds = ds.map_batches(_with_meta(num_parts), batch_format="pyarrow")
    if skip_parts:
        skip_list = sorted(skip_parts)
        ds = ds.filter(expr=f"part not in {skip_list}")

    config = (
        ("recipe", tuple(sorted((recipe or {}).items()))),
        ("num_parts", num_parts),
        ("emit_markdown", emit_markdown),
        ("emit_metadata", emit_metadata),
        ("emit_links", emit_links),
    )
    kwargs = dict(fn_kwargs={"config": config}, batch_format="pyarrow")
    if skew_threshold is None:
        return ds.map_batches(extract_pages, batch_size=batch_size, **kwargs)
    small = ds.filter(expr=f"n_bytes <= {skew_threshold}").map_batches(
        extract_pages, batch_size=batch_size, **kwargs
    )
    large = ds.filter(expr=f"n_bytes > {skew_threshold}").map_batches(
        extract_pages, batch_size=1, **kwargs
    )
    return small.union(large)


def run_extraction(
    input_path,
    out_dir: str,
    recipe: dict | None = None,
    batch_size: int = 32,
    num_parts: int = DEFAULT_NUM_PARTS,
    skew_threshold: int | None = None,
    resume: bool = True,
    run_id: str = "run",
    input_partitioned: bool = False,
) -> dict:
    """Full job: read -> extract -> partitioned write -> manifests.

    ``input_partitioned``: set True when the input is laid out as
    ``part=<k>/`` url-hash directories produced by this repo's partitioned
    writer WITH THE SAME ``num_parts`` (part must be the same pure function
    of url).  A resumed run then prunes completed partitions at
    ``read_parquet(paths=...)`` — completed parts' files never leave
    storage — instead of reading everything and filtering post-read.

    Returns the run-level metrics roll-up."""
    import ray

    t0 = time.monotonic()
    out = Path(out_dir)

    completed = mf.completed_parts(out_dir) if resume else set()
    if not resume and out.exists():
        shutil.rmtree(out_dir)
    _clean_incomplete_parts(out_dir, completed, num_parts)

    read_paths, skip_parts = input_path, completed
    if input_partitioned and completed:
        pruned = _prune_input_parts(input_path, completed)
        if pruned is not None:
            read_paths, skip_parts = pruned, set()
            if not read_paths:
                # every input partition is already complete: nothing to read
                roll = mf.rollup(out_dir)
                roll["wall_s"] = time.monotonic() - t0
                return roll

    ds = ray.data.read_parquet(
        read_paths, columns=["url", "html"]
    )
    result = extract_dataset(
        ds,
        recipe=recipe,
        batch_size=batch_size,
        num_parts=num_parts,
        skew_threshold=skew_threshold,
        skip_parts=skip_parts,
    )

    # Shuffle-free partitioned write: each writer task splits its batch by
    # url-hash part and appends one file per (task, part), named by a
    # content hash of the rows so task retries overwrite idempotently.
    # Only TINY per-(task, part) stat rows go through the groupby — the
    # extracted text itself never crosses an all-to-all exchange (at 100 TB
    # that shuffle would move the entire output corpus).
    out.mkdir(parents=True, exist_ok=True)
    # Writer batch sizing: each writer task writes ~one file per url-hash
    # part it sees, so rows-per-file ~= writer_batch / num_parts.  Scale the
    # batch with num_parts (>= 64 rows per part-file) or parquet
    # fixed-per-file overhead dominates — measured at 4M pages: num_parts
    # 256 with an 8k batch (32-row files) ran 26% slower than num_parts 64.
    # Cap keeps one writer batch's arrow data well inside a worker heap.
    # Un-routed extraction fuses into this writer, so the batch is also
    # the input size of one extract+write task.
    writer_batch = min(max(batch_size * 16, num_parts * 64, 2048), 65536)
    stats_ds = result.map_batches(
        _block_writer(str(out)), batch_size=writer_batch,
        batch_format="pyarrow",
    )
    agg = {}
    for row in stats_ds.take_all():  # O(tasks x parts-per-task) tiny rows
        p = row["part"]
        if p not in agg:
            agg[p] = {
                "run_id": run_id, "rows": 0, "ok_rows": 0, "error_rows": 0,
                "bytes_in": 0, "bytes_out": 0, "parse_us_sum": 0,
                "text_checksum": 0,
            }
        a = agg[p]
        a["rows"] += row["rows"]
        a["ok_rows"] += row["ok_rows"]
        a["error_rows"] += row["error_rows"]
        a["bytes_in"] += row["bytes_in"]
        a["bytes_out"] += row["bytes_out"]
        a["parse_us_sum"] += row["parse_us"]
        a["text_checksum"] = (a["text_checksum"] + row["text_checksum"]) % (2**63)
    for part, stats in agg.items():
        mf.write_manifest(out_dir, part, stats)
    roll = mf.rollup(out_dir)
    roll["wall_s"] = time.monotonic() - t0
    _write_run_metrics(out_dir, run_id, roll, stats_ds)
    return roll


def _write_run_metrics(out_dir: str, run_id: str, roll: dict, stats_ds) -> None:
    """Run-level metrics file (SURVEY.md §3.4 step 6): manifest roll-up +
    Ray Data per-operator stats, written next to the data for ops tooling."""
    import json

    d = Path(out_dir) / "_metrics"
    d.mkdir(parents=True, exist_ok=True)
    try:
        stage_stats = stats_ds.stats()
    except Exception:
        stage_stats = ""
    tmp = d / f".run-{run_id}.json.tmp"
    with open(tmp, "w") as f:
        json.dump({"run_id": run_id, **roll, "ray_data_stats": stage_stats}, f)
    tmp.replace(d / f"run-{run_id}.json")


def _block_writer(out_dir: str):
    """Writer task: split one batch by url-hash part, append one parquet
    file per (task, part) with a deterministic content-hash name (retries
    rewrite the same file — idempotent), return tiny per-part stat rows.

    The per-row ``text_hash`` checksum is summed, so per-part checksums are
    order- and file-layout-independent: resumed or differently-batched runs
    produce identical manifests for identical extracted text."""
    import pyarrow.parquet as pq

    def write_block(batch: pa.Table) -> pa.Table:
        # one sort + zero-copy slices per part (vs a full filter pass per
        # part, which costs O(parts x rows))
        batch = batch.combine_chunks().sort_by("part")
        part_np = batch.column("part").to_numpy()
        rows = {
            "part": [], "rows": [], "ok_rows": [], "error_rows": [],
            "bytes_in": [], "bytes_out": [], "parse_us": [],
            "text_checksum": [],
        }
        import numpy as np

        uniq, starts = np.unique(part_np, return_index=True)
        bounds = list(starts) + [len(batch)]
        for j, part in enumerate(uniq.tolist()):
            sub = batch.slice(bounds[j], bounds[j + 1] - bounds[j])
            # 64-bit content hash of the url list: deterministic per batch
            # (task retries rewrite the same file) with enough entropy that
            # two different writer tasks appending to the same part can't
            # collide and silently overwrite each other (crc32 + row count
            # was a 32-bit space).
            import hashlib

            token = hashlib.blake2b(
                "\x00".join(sub.column("url").to_pylist()).encode(),
                digest_size=8,
            ).hexdigest()
            pdir = Path(out_dir) / f"part={part}"
            pdir.mkdir(parents=True, exist_ok=True)
            pq.write_table(
                sub.drop_columns(["part"]),
                pdir / f"data-{token}-{len(sub)}.parquet",
                compression="zstd",
            )
            ok = pc.sum(
                pc.cast(pc.equal(sub.column("status"), "ok"), pa.int64())
            ).as_py() or 0
            rows["part"].append(part)
            rows["rows"].append(len(sub))
            rows["ok_rows"].append(ok)
            rows["error_rows"].append(len(sub) - ok)
            rows["bytes_in"].append(pc.sum(sub.column("html_bytes")).as_py() or 0)
            rows["bytes_out"].append(pc.sum(sub.column("text_len")).as_py() or 0)
            rows["parse_us"].append(pc.sum(sub.column("parse_us")).as_py() or 0)
            rows["text_checksum"].append(
                (pc.sum(sub.column("text_hash")).as_py() or 0) % (2**63)
            )
        return pa.table(
            {
                "part": pa.array(rows["part"], pa.int32()),
                "rows": pa.array(rows["rows"], pa.int64()),
                "ok_rows": pa.array(rows["ok_rows"], pa.int64()),
                "error_rows": pa.array(rows["error_rows"], pa.int64()),
                "bytes_in": pa.array(rows["bytes_in"], pa.int64()),
                "bytes_out": pa.array(rows["bytes_out"], pa.int64()),
                "parse_us": pa.array(rows["parse_us"], pa.int64()),
                "text_checksum": pa.array(rows["text_checksum"], pa.int64()),
            }
        )

    return write_block


def _prune_input_parts(input_path, completed: set[int]) -> list[str] | None:
    """Directories of input partitions still to process, or None when the
    input isn't in the ``part=<k>/`` layout (caller falls back to the
    post-read filter)."""
    root = Path(input_path)
    if not root.is_dir():
        return None
    part_dirs: dict[int, Path] = {}
    for d in root.glob("part=*"):
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


def _clean_incomplete_parts(out_dir: str, completed: set[int], num_parts: int):
    """Delete data directories of partitions that have no manifest: they are
    from a crashed run and will be recomputed (prevents duplicate rows)."""
    out = Path(out_dir)
    if not out.is_dir():
        return
    for d in out.glob("part=*"):
        try:
            part = int(d.name.split("=", 1)[1])
        except ValueError:
            continue
        if part not in completed:
            shutil.rmtree(d, ignore_errors=True)


