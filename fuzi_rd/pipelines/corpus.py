"""Corpus production: the composed training-data pipeline.

    pages (url, html)
      -> ExtractPages (read-fused tasks)  main-content text + spans
      -> keep status == 'ok' and non-empty text
      -> lang-id + quality gate           (single fused batch pass)
      -> materialized corpus              (dedup reads it twice)
      -> exact dedup on extracted text    (hash groupby + semi-join keep)
      -> partitioned write + manifests    (same layout/resume as extraction)

Every stage is a batch transform over one streaming Dataset; the only
all-to-all exchanges are the dedup groupby on 16-byte digests and the
winner semi-join on urls.  This is the pipeline a 100 TB crawl-to-corpus
job runs; each piece is individually oracle-verified, this module is their
composition.

``run_corpus`` is the job form: two-level crash resume for BOTH the
partitioned parquet checkpoint (the expensive extraction) and the final
deduplicated output, each stage on ``state/manifest.py::run_parts``, the
same resume path as the extraction job.  Resume correctness hinges on one
invariant: exact-dedup winners are a pure function of the FULL checkpoint
(min url per content hash), so recomputing only the missing output
partitions against the full checkpoint reproduces a fresh run
byte-for-byte.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.functions.textstats import guess_lang, quality_batch
from fuzi_rd.pipelines.extraction import extract_dataset
from fuzi_rd.stages.extractor import DEFAULT_NUM_PARTS
from fuzi_rd.state import manifest as mf


def corpus_dataset(
    pages_ds,
    min_text_len: int = 30,
    batch_size: int = 256,
    dedup: bool = True,
    num_partitions: int | None = None,
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
    once; ``run_corpus`` checkpoints it to parquet instead, for resume."""
    extracted = extract_dataset(
        pages_ds,
        batch_size=batch_size,
        num_parts=num_parts,
        skip_parts=skip_parts,
        emit_markdown=emit_markdown,
        emit_metadata=emit_metadata,
        emit_links=emit_links,
    )
    extra_cols = (["markdown"] if emit_markdown else []) + (["links"] if emit_links else []) + (
        [
            "meta_title", "meta_description", "canonical_url", "meta_lang",
            "robots_noindex", "robots_nofollow",
            "og_title", "og_description", "og_image", "og_type",
        ]
        if emit_metadata
        else []
    )

    def clean_and_annotate(batch: pa.Table) -> pa.Table:
        # keep successful extractions with enough text
        keep = pc.and_(
            pc.equal(batch.column("status"), "ok"),
            pc.greater_equal(batch.column("text_len"), min_text_len),
        )
        batch = batch.filter(keep)
        texts = batch.column("extracted_text").to_pylist()
        quality = quality_batch(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        )
        batch = batch.filter(quality.column("quality_ok"))
        texts = batch.column("extracted_text").to_pylist()
        langs = [guess_lang(t) for t in texts]
        digests = [
            hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts
        ]
        cols = {
            "url": batch.column("url"),
            "part": batch.column("part"),
            "title": batch.column("title"),
            "extracted_text": batch.column("extracted_text"),
            "text_len": batch.column("text_len"),
            "lang_guess": pa.array(langs, pa.string()),
            "content_hash": pa.array(digests, pa.string()),
            # per-row crc32 carried through for order-independent
            # partition checksums in the manifests
            "text_hash": batch.column("text_hash"),
        }
        for c in extra_cols:
            cols[c] = batch.column(c)
        return pa.table(cols)

    corpus = extracted.map_batches(clean_and_annotate, batch_format="pyarrow")
    if not dedup:
        return corpus

    corpus = corpus.materialize()
    return _dedup_keep_by_hash_subset(corpus, corpus, num_partitions)


# -- job form: partitioned writes + two-level crash resume -------------------


def run_corpus(
    input_path,
    out_dir: str,
    min_text_len: int = 30,
    batch_size: int = 256,
    num_parts: int = DEFAULT_NUM_PARTS,
    num_partitions: int | None = None,
    resume: bool = True,
    run_id: str = "run",
    emit_markdown: bool = False,
    emit_metadata: bool = False,
) -> dict:
    """Full crawl-to-corpus job: read -> extract/clean -> checkpoint ->
    global exact dedup -> partitioned write, resumable at two levels.

    Layout (everything under ``out_dir``, i.e. on the job's shared
    storage — the checkpoint is NOT node-local /tmp):

        out/_checkpoint/part=<k>/...   cleaned pre-dedup corpus
        out/part=<k>/...               deduplicated corpus

    each with its own ``_manifests/`` and ``_metrics/``.

    Resume: (1) pages of checkpoint partitions with manifests are dropped
    before extraction (`part` is a pure function of url, so skipping
    completed parts loses nothing); (2) final partitions with manifests
    are skipped, and only missing ones are recomputed — against the FULL
    checkpoint, so dedup winners (min url per content hash) are identical to a fresh
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
        if len(done) >= num_parts:
            return None
        return corpus_dataset(
            ray.data.read_parquet(input_path, columns=["url", "html"]),
            min_text_len=min_text_len,
            batch_size=batch_size,
            dedup=False,
            num_parts=num_parts,
            skip_parts=done or None,
            emit_markdown=emit_markdown,
            emit_metadata=emit_metadata,
        )

    mf.run_parts(ckpt_dir, run_id, cleaned, writer_batch, sums)

    # -- stage B: global winners over the FULL checkpoint, write only the
    # missing final partitions
    def deduped(done: set[int]):
        corpus = ray.data.read_parquet(ckpt_dir).map_batches(
            _part_i32, batch_format="pyarrow"
        )
        todo = corpus.filter(expr=f"part not in {sorted(done)}") if done else corpus
        return _dedup_keep_by_hash_subset(corpus, todo, num_partitions)

    roll = mf.run_parts(out_dir, run_id, deduped, writer_batch, sums)
    roll["wall_s"] = time.monotonic() - t0
    return roll


def _part_i32(batch: pa.Table) -> pa.Table:
    # hive partitioning re-infers `part`; pin the dtype the writer uses
    i = batch.schema.get_field_index("part")
    return batch.set_column(i, "part", pc.cast(batch.column("part"), pa.int32()))


def _dedup_keep_by_hash_subset(full_corpus, subset, num_partitions=None):
    """Exact dedup on the EXTRACTED text: winners (min url per content
    hash) computed over the FULL corpus; the keep filter applied to
    ``subset`` (the partitions being (re)computed, or the full corpus).
    The winner scan shuffles only (16-byte hash, url) pairs; the winner-url
    dataset then semi-joins back against the subset (hash-partitioned on
    url) — no driver-side winner set, no broadcast (same shape as
    exact_dedup_keep)."""
    from fuzi_rd.functions.dedup import semi_join

    pairs = full_corpus.select_columns(["content_hash", "url"])
    winners_ds = pairs.groupby("content_hash").min("url")

    def _urls_only(batch: pa.Table) -> pa.Table:
        return pa.table({"url": batch.column("min(url)")})

    keep_urls = winners_ds.map_batches(_urls_only, batch_format="pyarrow")
    return semi_join(subset, keep_urls, "url", num_partitions)
