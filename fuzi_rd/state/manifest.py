"""Per-partition lineage manifests and the one resume path.

The reference has no persistence at all; the north_rule requires each
partition to write lineage + metrics so a failed run resumes from checkpoint
(BASELINE.json `north_rule`; SURVEY.md §4.2).

Layout (next to the partitioned Parquet output):

    out/part=<k>/...parquet          data for url-hash partition k
    out/_manifests/part-<k>.json     written AFTER the data (atomic rename)
    out/_metrics/run-<id>.json       run roll-up + Ray Data stats

A partition is complete iff its manifest exists.  ``run_parts`` is the
resume protocol of the extraction job and of both corpus-job stages: it
scans `_manifests/`, deletes the data of parts without one
(``clean_incomplete``), asks its caller for a Dataset of per-part stat rows
covering the missing parts only (``write_parts`` — the one partitioned
writer — turns a Dataset of rows into one; the caller prunes completed
partitions from its input: the partition id is a pure function of url),
and commits their manifests and the run metrics.
Manifest content (extraction; a corpus checkpoint manifest has run_id,
part, rows, bytes_out, text_checksum and the drop counters, with
``rows_in = rows + error_rows + short_rows + low_quality_rows``; a final
corpus manifest has run_id, part, rows, bytes_out, text_checksum and
dup_dropped):

    {run_id, part, rows, ok_rows, error_rows, bytes_in, bytes_out,
     parse_us_sum, text_checksum}

`text_checksum` is the sum of per-row crc32(extracted_text) mod 2^63 —
order-independent, so it is stable across block orderings and can be
re-aggregated from the output alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


# why the corpus job's cleaning drops a row, in the order it checks them
DROP_REASONS = ("error_rows", "short_rows", "low_quality_rows")


def manifest_dir(out_dir: str) -> pathlib.Path:
    return pathlib.Path(out_dir) / "_manifests"


def completed_parts(out_dir: str) -> set[int]:
    parts = set()
    for p in manifest_dir(out_dir).glob("part-*.json"):
        try:
            parts.add(int(p.stem.split("-", 1)[1]))
        except ValueError:
            continue
    return parts


def write_manifest(out_dir: str, part: int, stats: dict) -> None:
    """Atomic write: temp file + rename, so a manifest never exists
    half-written (the completeness marker must be all-or-nothing)."""
    d = manifest_dir(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    final = d / f"part-{part}.json"
    tmp = d / f".part-{part}.json.tmp"
    with open(tmp, "w") as f:
        json.dump({"part": part, **stats}, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, final)


def read_manifests(out_dir: str) -> list[dict]:
    out = []
    for p in sorted(manifest_dir(out_dir).glob("part-*.json")):
        with open(p) as f:
            out.append(json.load(f))
    return out


def rollup(out_dir: str) -> dict:
    """Aggregate all partition manifests into run-level metrics: each
    counter summed over the manifests that carry it.  A counter no manifest
    carries is absent, so a measured 0 is told apart from no counter."""
    total = {"parts": 0}
    for m in read_manifests(out_dir):
        total["parts"] += 1
        for k, v in m.items():
            if k not in ("part", "run_id", "text_checksum"):
                total[k] = total.get(k, 0) + v
    return total


def clean_incomplete(out_dir: str, completed: set[int]) -> None:
    """Delete data directories of partitions that have no manifest: they are
    from a crashed run and will be recomputed (prevents duplicate rows)."""
    for d in pathlib.Path(out_dir).glob("part=*"):
        try:
            part = int(d.name.split("=", 1)[1])
        except ValueError:
            continue
        if part not in completed:
            shutil.rmtree(d, ignore_errors=True)


def stat_keys(sums: dict[str, str], counted: bool = False, dropping: bool = False) -> list[str]:
    """The keys of a ``part_writer`` stat row after ``part``, in order, for
    a batch with a ``status`` column (``counted``) or a ``drop`` column
    (``dropping``)."""
    return [
        "rows",
        *(("ok_rows", "error_rows") if counted else ()),
        *(("rows_in", *DROP_REASONS) if dropping else ()),
        *sums,
        "text_checksum",
    ]


def zero_stats(parts: list[int], sums: dict[str, str], dropping: bool = False) -> pa.Table:
    """``part_writer``'s stat rows for ``parts`` that get no row: every
    count 0, so ``run_parts`` commits those parts empty."""
    zeros = pa.array(np.zeros(len(parts), np.int64))
    return pa.table({
        "part": pa.array(parts, pa.int32()),
        **dict.fromkeys(stat_keys(sums, dropping=dropping), zeros),
    })


def part_writer(out_dir: str, sums: dict[str, str]):
    """Writer task: split one batch by url-hash part, append one parquet
    file per (task, part) with a deterministic content-hash name (retries
    rewrite the same file — idempotent), return tiny per-part stat rows:
    ``rows``, ``ok_rows``/``error_rows`` when the batch has a ``status``
    column, the sum of column ``sums[k]`` as ``k``, and ``text_checksum``.
    A batch with an int8 ``drop`` column (0, or 1 + the row's index in
    ``DROP_REASONS``) is written without its dropped rows, and each part's
    stat row adds ``rows_in`` and the count of each reason.

    The per-row ``text_hash`` checksum is summed, so per-part checksums are
    order- and file-layout-independent: resumed or differently-batched runs
    produce identical manifests for identical extracted text."""

    def write_block(batch: pa.Table) -> pa.Table:
        # one sort + zero-copy slices per part (vs a full filter pass per
        # part, which costs O(parts x rows))
        batch = batch.combine_chunks().sort_by("part")
        counted = "status" in batch.column_names
        dropping = "drop" in batch.column_names
        stats: dict[str, list] = {
            k: [] for k in ("part", *stat_keys(sums, counted, dropping))
        }
        uniq, starts = np.unique(batch.column("part").to_numpy(), return_index=True)
        bounds = list(starts) + [len(batch)]
        if dropping:
            # per part: its rows by drop code (0 = kept), then one filter
            drop = batch.column("drop").to_numpy()
            codes = [
                np.bincount(drop[a:b], minlength=len(DROP_REASONS) + 1).tolist()
                for a, b in zip(bounds, bounds[1:])
            ]
            batch = batch.filter(drop == 0).drop_columns(["drop"])
            bounds = np.cumsum([0] + [c[0] for c in codes]).tolist()
        for j, part in enumerate(uniq.tolist()):
            sub = batch.slice(bounds[j], bounds[j + 1] - bounds[j])
            if dropping:
                stats["rows_in"].append(sum(codes[j]))
                for k, n in zip(DROP_REASONS, codes[j][1:]):
                    stats[k].append(n)
            stats["part"].append(part)
            stats["rows"].append(len(sub))
            for k, col in sums.items():
                stats[k].append(pc.sum(sub.column(col)).as_py() or 0)
            stats["text_checksum"].append(
                (pc.sum(sub.column("text_hash")).as_py() or 0) % (2**63)
            )
            if counted:
                ok = pc.sum(
                    pc.cast(pc.equal(sub.column("status"), "ok"), pa.int64())
                ).as_py() or 0
                stats["ok_rows"].append(ok)
                stats["error_rows"].append(len(sub) - ok)
            if not len(sub):
                continue
            # 64-bit content hash of the url list: deterministic per batch
            # (task retries rewrite the same file) with enough entropy that
            # two different writer tasks appending to the same part can't
            # collide and silently overwrite each other (crc32 + row count
            # was a 32-bit space).
            token = hashlib.blake2b(
                "\x00".join(sub.column("url").to_pylist()).encode(),
                digest_size=8,
            ).hexdigest()
            pdir = pathlib.Path(out_dir) / f"part={part}"
            pdir.mkdir(parents=True, exist_ok=True)
            # written under a temp name, then renamed: a file is never
            # seen half-written, and one that shares its inode with another
            # directory (the corpus job links final parts to its
            # checkpoint) is replaced, never truncated
            name = f"data-{token}-{len(sub)}.parquet"
            # no footer statistics: min/max of a text column is whole texts
            # in every file's footer, and nothing filters on them
            pq.write_table(
                sub.drop_columns(["part"]),
                pdir / f".{name}.tmp",
                compression="zstd",
                write_statistics=False,
            )
            os.replace(pdir / f".{name}.tmp", pdir / name)
        return pa.table(
            {
                k: pa.array(v, pa.int32() if k == "part" else pa.int64())
                for k, v in stats.items()
            }
        )

    return write_block


def write_parts(ds, out_dir: str, batch_size: int, sums: dict[str, str]):
    """Shuffle-free partitioned write: the lazy Dataset of per-(task, part)
    stat rows that ``part_writer`` tasks return after writing ``ds``.

    Writer tasks split each batch by the url-hash ``part`` column; only
    their tiny stat rows reach the driver (in ``run_parts``), so the
    extracted text itself never crosses an all-to-all exchange."""
    return ds.map_batches(
        part_writer(out_dir, sums), batch_size=batch_size, batch_format="pyarrow"
    )


def run_parts(out_dir: str, run_id: str, build) -> dict:
    """Resume protocol: read the completed parts, delete the data of the
    others, run ``build(done)`` — a Dataset of the stat rows of the parts
    not in ``done`` (see ``write_parts``), or None when nothing is left —
    sum its rows per part, commit one manifest per part holding ``run_id``
    and those sums, and write ``_metrics/run-<run_id>.json``.  Returns the
    manifest roll-up plus ``wall_s``.

    Never wipes ``out_dir`` itself (it may hold another stage's output):
    a job that does not resume clears its output once, before this call."""
    t0 = time.monotonic()
    done = completed_parts(out_dir)
    clean_incomplete(out_dir, done)
    stats_ds = build(done)
    agg: dict[int, dict] = {}
    for row in [] if stats_ds is None else stats_ds.take_all():
        # O(tasks x parts-per-task) tiny rows
        a = agg.setdefault(row.pop("part"), {"run_id": run_id})
        for k, v in row.items():
            a[k] = a.get(k, 0) + v
    for part, stats in agg.items():
        stats["text_checksum"] %= 2**63
        write_manifest(out_dir, part, stats)
    roll = rollup(out_dir)
    roll["wall_s"] = time.monotonic() - t0
    _write_run_metrics(out_dir, run_id, roll, stats_ds)
    return roll


def _write_run_metrics(out_dir: str, run_id: str, roll: dict, stats_ds) -> None:
    """Run-level metrics file (SURVEY.md §3.4 step 6): manifest roll-up +
    Ray Data per-operator stats, written next to the data for ops tooling."""
    d = pathlib.Path(out_dir) / "_metrics"
    d.mkdir(parents=True, exist_ok=True)
    try:
        stage_stats = stats_ds.stats() if stats_ds is not None else ""
    except Exception:
        stage_stats = ""
    tmp = d / f".run-{run_id}.json.tmp"
    with open(tmp, "w") as f:
        json.dump({"run_id": run_id, **roll, "ray_data_stats": stage_stats}, f)
    tmp.replace(d / f"run-{run_id}.json")
