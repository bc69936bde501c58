"""Corpus production: the composed training-data pipeline.

    pages (url, html)
      -> ExtractPages (read-fused tasks)  main-content text + spans
      -> keep status == 'ok' and non-empty text
      -> lang-id + quality gate           (single fused batch pass)
      -> exact dedup on extracted text    (losers: every url of a content
                                           hash but the minimum one)
      -> partitioned write + manifests    (same layout/resume as extraction)

Every stage is a batch transform over one streaming Dataset; the only
all-to-all exchange the job form runs is the ``dedup_losers`` groupby of
(content_hash, url, part) triples.  This is the pipeline a 100 TB
crawl-to-corpus job runs; each piece is individually oracle-verified,
this module is their composition.

``run_corpus`` is the job form: two-level crash resume for BOTH the
partitioned parquet checkpoint (the expensive extraction) and the final
deduplicated output, each stage on ``state/manifest.py::run_parts``, the
same resume path as the extraction job.  The checkpoint and the output
share the url-hash part layout, so dedup moves no corpus row: a final part
without losers hard-links its checkpoint files, and only a part with
losers is read, filtered and rewritten.  Resume correctness hinges on one
invariant: the losers are a pure function of the FULL checkpoint, so
recomputing only the missing output partitions against the full
checkpoint reproduces a fresh run byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from fuzi_rd.functions.textstats import guess_lang, quality_batch
from fuzi_rd.pipelines.extraction import extract_dataset
from fuzi_rd.stages.extractor import DEFAULT_NUM_PARTS
from fuzi_rd.stages.metadata import FUSED_META_FIELDS
from fuzi_rd.state import manifest as mf


def corpus_dataset(
    pages_ds,
    min_text_len: int = 30,
    batch_size: int = 256,
    dedup: bool = True,
    num_parts: int = DEFAULT_NUM_PARTS,
    skip_parts: set[int] | None = None,
    emit_markdown: bool = False,
    emit_metadata: bool = False,
    emit_links: bool = False,
):
    """Wire the full corpus pipeline onto a page Dataset (lazy).

    Returns a Dataset of (url, part, title, extracted_text, text_len,
    lang_guess, content_hash, text_hash) — the cleaned, deduplicated
    corpus.  With ``emit_markdown`` / ``emit_metadata`` the rows also
    carry structure-preserving markdown and head-metadata columns,
    produced from the SAME parse inside the extraction tasks (no
    second pass over the html) and byte-identical to the standalone
    ``ConvertMarkdown`` / ``ExtractMetadata`` stages — one job emits
    training-ready text + curation metadata in a single pass.
    ``emit_links`` adds the resolved-outlink column the same way (edge
    rows byte-identical to the standalone ``extract_links``); flatten it
    with ``links_from_extracted`` to feed ``link_graph`` /
    ``domain_components`` / ``pagerank`` — the webgraph as a by-product
    of the one parse this job already pays for.

    With ``dedup`` the cleaned corpus is materialized in the (cluster-wide)
    object store before the dedup consumes it twice, so extraction runs
    once, and the ``dedup_losers`` urls are anti-joined out of it;
    ``run_corpus`` checkpoints it to parquet instead, for resume, and
    moves no row of it to dedup."""
    corpus = _tagged_corpus(
        pages_ds,
        min_text_len,
        batch_size=batch_size,
        num_parts=num_parts,
        skip_parts=skip_parts,
        emit_markdown=emit_markdown,
        emit_metadata=emit_metadata,
        emit_links=emit_links,
    ).map_batches(_kept_rows, batch_format="pyarrow")
    if not dedup:
        return corpus

    from fuzi_rd.functions.dedup import anti_join

    corpus = corpus.materialize()
    return anti_join(corpus, dedup_losers(corpus).select_columns(["url"]), "url")


def _tagged_corpus(pages_ds, min_text_len: int, **extract):
    """Every extracted page, cleaned and annotated by ``_clean_and_annotate``
    (lazy); ``extract`` holds ``extract_dataset``'s keyword arguments."""
    extra_cols = (
        (["markdown"] if extract.get("emit_markdown") else [])
        + (["links"] if extract.get("emit_links") else [])
        + ([f.name for f in FUSED_META_FIELDS] if extract.get("emit_metadata") else [])
    )
    return extract_dataset(pages_ds, **extract).map_batches(
        _clean_and_annotate,
        batch_format="pyarrow",
        fn_kwargs={"min_text_len": min_text_len, "extra_cols": extra_cols},
    )


def _clean_and_annotate(batch: pa.Table, min_text_len: int, extra_cols: list) -> pa.Table:
    """Task UDF: the corpus columns of every row, with ``drop`` holding
    the first reason the row leaves the corpus, as 1 + its index in
    ``mf.DROP_REASONS`` (an extraction error, under ``min_text_len``
    characters, the quality gate), or 0 when it stays.  Only kept rows get
    a ``lang_guess`` and a ``content_hash``."""
    text = batch.column("extracted_text")
    quality = quality_batch(
        pa.table({"doc_id": pa.nulls(len(batch), pa.int64()), "text": text})
    ).column("quality_ok")
    fails = [
        pc.not_equal(batch.column("status"), "ok"),
        pc.less(batch.column("text_len"), min_text_len),
        pc.invert(quality),
    ]
    drop = np.select(
        [f.to_numpy(zero_copy_only=False) for f in fails],
        np.arange(1, len(fails) + 1, dtype=np.int8),
        np.int8(0),
    )
    kept = np.flatnonzero(drop == 0)
    langs, digests = [None] * len(batch), [None] * len(batch)
    for i, t in zip(kept.tolist(), text.take(kept).to_pylist()):
        langs[i] = guess_lang(t)
        digests[i] = hashlib.md5(t.encode("utf-8")).hexdigest()
    cols = {
        "url": batch.column("url"),
        "part": batch.column("part"),
        "title": batch.column("title"),
        "extracted_text": text,
        "text_len": batch.column("text_len"),
        "lang_guess": pa.array(langs, pa.string()),
        "content_hash": pa.array(digests, pa.string()),
        # per-row crc32 carried through for order-independent
        # partition checksums in the manifests
        "text_hash": batch.column("text_hash"),
    }
    for c in extra_cols:
        cols[c] = batch.column(c)
    cols["drop"] = pa.array(drop, pa.int8())
    return pa.table(cols)


def _kept_rows(batch: pa.Table) -> pa.Table:
    return batch.filter(pc.equal(batch.column("drop"), 0)).drop_columns(["drop"])


def dedup_losers(corpus):
    """Exact dedup on the EXTRACTED text: the (url, part) rows to drop, i.e.
    every url of a ``content_hash`` except the minimum one.  Only the
    (content_hash, url, part) triples cross the groupby exchange, and the
    losers stay a Dataset: no winner or loser set is held on the driver."""
    return corpus.select_columns(["content_hash", "url", "part"]).groupby(
        "content_hash"
    ).map_groups(_group_losers, batch_format="pyarrow")


def _group_losers(group: pa.Table) -> pa.Table:
    urls = group.column("url")
    return group.filter(pc.not_equal(urls, pc.min(urls))).select(["url", "part"])


# -- job form: partitioned writes + two-level crash resume -------------------


def run_corpus(
    input_path,
    out_dir: str,
    min_text_len: int = 30,
    batch_size: int = 256,
    num_parts: int = DEFAULT_NUM_PARTS,
    resume: bool = True,
    run_id: str = "run",
    emit_markdown: bool = False,
    emit_metadata: bool = False,
) -> dict:
    """Full crawl-to-corpus job: read -> extract/clean -> checkpoint ->
    global exact dedup -> final parts, resumable at two levels.

    Layout (everything under ``out_dir``, i.e. on the job's shared
    storage — the checkpoint is NOT node-local /tmp):

        out/_checkpoint/part=<k>/...          cleaned pre-dedup corpus
        out/_checkpoint/_losers/part=<k>/...  dedup losers (url) of part k
        out/part=<k>/...                      deduplicated corpus

    each level with its own ``_manifests/`` and ``_metrics/``; a
    checkpoint manifest also counts the pages its part dropped
    (``rows_in``, ``error_rows``, ``short_rows``, ``low_quality_rows``),
    and a final manifest its ``dup_dropped`` rows.  Every one of the
    ``num_parts`` parts is committed, empty if no page hashes into it.

    Dedup reads only (content_hash, url, part) from the checkpoint and
    writes the losers (``dedup_losers``) bucketed by part.  Then each
    final part, one per task batch, either hard-links the part's
    checkpoint files (no losers: its manifest sums are the checkpoint's)
    or is rewritten without its losers.  The output directory must be on
    a POSIX file system that supports hard links.

    Resume: (1) pages of checkpoint partitions with manifests are dropped
    before extraction (`part` is a pure function of url, so skipping
    completed parts loses nothing); (2) final partitions with manifests
    are skipped, and only missing ones are recomputed — against losers
    recomputed from the FULL checkpoint, so they are identical to a fresh
    run's and the resumed output is byte-identical."""
    import ray

    t0 = time.monotonic()
    ckpt_dir = str(Path(out_dir) / "_checkpoint")
    if not resume and Path(out_dir).exists():
        shutil.rmtree(out_dir)
    writer_batch = min(max(batch_size * 16, 2048), 65536)
    sums = {"bytes_out": "text_len"}

    # -- stage A: extract + clean into the partitioned checkpoint
    def cleaned(done: set[int]):
        todo = sorted(set(range(num_parts)) - done)
        if not todo:
            return None
        corpus = _tagged_corpus(
            ray.data.read_parquet(input_path, columns=["url", "html"]),
            min_text_len,
            batch_size=batch_size,
            num_parts=num_parts,
            skip_parts=done or None,
            emit_markdown=emit_markdown,
            emit_metadata=emit_metadata,
        )
        # a part no page hashes into is committed empty, so a finished
        # checkpoint has every manifest and its resume reads no input
        return mf.write_parts(corpus, ckpt_dir, writer_batch, sums).union(
            ray.data.from_arrow(mf.zero_stats(todo, sums, dropping=True))
        )

    mf.run_parts(ckpt_dir, run_id, cleaned)

    # -- stage B: losers over the FULL checkpoint, then the missing final
    # parts, each linked or filtered from its checkpoint part
    def deduped(done: set[int]):
        ckpt_rows = {m["part"]: m["rows"] for m in mf.read_manifests(ckpt_dir)}
        todo = sorted(set(ckpt_rows) - done)
        if not todo:
            return None
        # one task per CPU, and at most ~2^20 pairs (~100 MB) per block,
        # sized from the checkpoint manifests' exact row counts.  With
        # Ray's default (a read task per few checkpoint files, a final-part
        # task per part) per-task overhead took over half of a 3 s stage B
        # at 1200 docs in 256 parts on a 2-CPU session
        cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
        losers = Path(ckpt_dir) / "_losers"
        shutil.rmtree(losers, ignore_errors=True)
        pairs = ray.data.read_parquet(
            ckpt_dir,
            columns=["content_hash", "url", "part"],
            override_num_blocks=max(cpus, -(-sum(ckpt_rows.values()) // 2**20)),
        )
        dedup_losers(pairs).write_parquet(str(losers), partition_cols=["part"])
        return ray.data.from_items(
            [{"part": k} for k in todo], override_num_blocks=min(cpus, len(todo))
        ).map_batches(
            _final_parts,
            batch_size=1,
            batch_format="pyarrow",
            fn_kwargs={"ckpt_dir": ckpt_dir, "out_dir": out_dir, "sums": sums},
        )

    roll = mf.run_parts(out_dir, run_id, deduped)
    roll["wall_s"] = time.monotonic() - t0
    return roll


def _final_parts(batch: pa.Table, ckpt_dir: str, out_dir: str, sums: dict) -> pa.Table:
    """Task UDF: write the final parts named in ``batch`` from their
    checkpoint parts and return their stat rows, in ``part_writer``'s
    shape plus ``dup_dropped``.  A part without losers hard-links the
    checkpoint files and takes the checkpoint manifest's sums; a part with
    losers is read, filtered and written by ``part_writer``."""
    stats = []
    for k in batch.column("part").to_pylist():
        src, dst = Path(ckpt_dir) / f"part={k}", Path(out_dir) / f"part={k}"
        shutil.rmtree(dst, ignore_errors=True)  # a retried task starts over
        dst.mkdir(parents=True)
        losers = Path(ckpt_dir) / "_losers" / f"part={k}"
        if not losers.exists():
            for f in src.glob("data-*.parquet"):
                os.link(f, dst / f.name)
            with open(mf.manifest_dir(ckpt_dir) / f"part-{k}.json") as fh:
                m = json.load(fh)
            keys = ("part", *mf.stat_keys(sums))
            stats.append({**{c: m[c] for c in keys}, "dup_dropped": 0})
            continue
        part = pq.read_table(src)
        kept = part.filter(
            pc.invert(pc.is_in(part.column("url"), pq.read_table(losers).column("url")))
        )
        kept = kept.append_column("part", pa.array([k] * len(kept), pa.int32()))
        written = mf.part_writer(out_dir, sums)(kept).to_pylist()
        # a part whose every row lost is committed empty
        row = written[0] if written else mf.zero_stats([k], sums).to_pylist()[0]
        stats.append({**row, "dup_dropped": len(part) - len(kept)})
    return pa.Table.from_pylist(stats)
