"""In-process replay of a workload's first batches, with no Ray, timing
calls into each module's public functions from outside.  Every figure is
microseconds per document that ran the layer (0 when the workload's job
does not run it):

    chtml.decode_us_per_doc        chtml.to_utf8_buf
    chtml.parse_us_per_doc         BatchExtractor.add minus decode
    chtml.accept_ratio             add() true / attempted
    fastextract.finish_us_per_doc  BatchExtractor.finish, per accepted doc
    extractor.assemble_us_per_doc  ExtractPages.__call__ minus add, finish
                                   and the Python path of declined docs
    html_parser.fallback_us_per_doc  parse_html_bytes, per declined doc
    chtml.arena_us_per_doc         chtml.parse_html_bytes_fast (corpus)
    extract.kill_us_per_doc        kill_boilerplate_nodes
    extract.density_us_per_doc     extract_main_content
    markdown.us_per_doc            render_markdown
    metadata.us_per_doc            the metadata entry (_page_metadata)
    corpus.clean_us_per_doc        quality_batch + guess_lang + md5
    inproc.docs_per_s              ExtractPages (+ clean) single-thread rate
    manifest.commit_s              write_manifest x parts + rollup +
                                   completed_parts
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path
from time import perf_counter as now

import pyarrow as pa
import pyarrow.parquet as pq

REPLAY_DOCS = {"crawl_mix": 2000, "hostile_mix": 2000, "corpus_fused": 300}


def _batches(job, batch_size: int):
    n = REPLAY_DOCS[job.name]
    t = pa.concat_tables(
        pq.read_table(f, columns=["url", "html"]) for f in sorted(job.inp.path.glob("*.parquet"))
    ).slice(0, n)
    return [t.slice(i, batch_size) for i in range(0, len(t), batch_size)]


def _extraction(batches) -> dict:
    from fuzi_rd import chtml
    from fuzi_rd.errors import ParseError
    from fuzi_rd.extract import extract_main_content, kill_boilerplate_nodes
    from fuzi_rd.fastextract import BatchExtractor
    from fuzi_rd.html_parser import parse_html_bytes
    from fuzi_rd.stages.extractor import ExtractPages

    ep, bx = ExtractPages(), BatchExtractor()
    ep(batches[0])  # warm buffers and imports
    t = dict.fromkeys(("decode", "add", "finish", "fallback", "kill", "density", "call"), 0.0)
    attempted = accepted = declined = 0
    for batch in batches:
        htmls = batch.column("html").to_pylist()
        t0 = now()
        for h in htmls:
            try:
                chtml.to_utf8_buf(h)
            except ParseError:
                pass
        t["decode"] += now() - t0
        bx.reset()
        oks = []
        t0 = now()
        for h in htmls:
            try:
                oks.append(bx.add(h))
            except ParseError:
                oks.append(None)
        t["add"] += now() - t0
        t0 = now()
        bx.finish(emit_spans=True)
        t["finish"] += now() - t0
        slow = [h for h, ok in zip(htmls, oks) if ok is False]
        t0 = now()
        arenas = [parse_html_bytes(h, track_lines=False) for h in slow]
        t["fallback"] += now() - t0
        t0 = now()
        for a in arenas:
            kill_boilerplate_nodes(a)
        t["kill"] += now() - t0
        t0 = now()
        for a in arenas:
            extract_main_content(a)
        t["density"] += now() - t0
        t0 = now()
        ep(batch)
        t["call"] += now() - t0
        attempted += len(htmls)
        accepted += sum(1 for ok in oks if ok is True)
        declined += len(slow)
    us = 1e6
    python_path = t["fallback"] + t["kill"] + t["density"]
    return {
        "chtml.decode_us_per_doc": t["decode"] * us / attempted,
        "chtml.parse_us_per_doc": (t["add"] - t["decode"]) * us / attempted,
        "chtml.accept_ratio": accepted / attempted,
        "fastextract.finish_us_per_doc": t["finish"] * us / max(accepted, 1),
        "extractor.assemble_us_per_doc":
            (t["call"] - t["add"] - t["finish"] - python_path) * us / attempted,
        "html_parser.fallback_us_per_doc": t["fallback"] * us / declined if declined else 0.0,
        "extract.kill_us_per_doc": t["kill"] * us / declined if declined else 0.0,
        "extract.density_us_per_doc": t["density"] * us / declined if declined else 0.0,
        "inproc.docs_per_s": attempted / t["call"],
    }


def _corpus(batches) -> dict:
    from fuzi_rd import chtml
    from fuzi_rd.extract import extract_main_content, kill_boilerplate_nodes
    from fuzi_rd.functions.textstats import guess_lang, quality_batch
    from fuzi_rd.html_parser import parse_html_bytes
    from fuzi_rd.stages.extractor import ExtractPages
    from fuzi_rd.stages.markdown import render_markdown
    from fuzi_rd.stages.metadata import _page_metadata

    ep = ExtractPages(emit_markdown=True, emit_metadata=True)
    ep(batches[0].slice(0, 8))
    t = dict.fromkeys(
        ("arena", "fallback", "markdown", "metadata", "kill", "density", "clean", "call"), 0.0
    )
    docs = declined = 0
    for batch in batches:
        texts = []
        for url, h in zip(batch.column("url").to_pylist(), batch.column("html").to_pylist()):
            t0 = now()
            arena = chtml.parse_html_bytes_fast(h)
            t1 = now()
            t["arena"] += t1 - t0
            if arena is None:
                declined += 1
                arena = parse_html_bytes(h, track_lines=False)
                t0, t1 = t1, now()
                t["fallback"] += t1 - t0
            render_markdown(arena, base_url=url)
            t2 = now()
            _page_metadata(arena, url)
            t3 = now()
            kill_boilerplate_nodes(arena)
            t4 = now()
            text, _ = extract_main_content(arena)
            t5 = now()
            for k, a, b in (("markdown", t1, t2), ("metadata", t2, t3),
                            ("kill", t3, t4), ("density", t4, t5)):
                t[k] += b - a
            if len(text) >= 30:
                texts.append(text)
        t0 = now()
        ok = quality_batch(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })).column("quality_ok").to_pylist()
        kept = [s for s, k in zip(texts, ok) if k]
        for s in kept:
            guess_lang(s)
            hashlib.md5(s.encode("utf-8")).hexdigest()
        t["clean"] += now() - t0
        t0 = now()
        ep(batch)
        t["call"] += now() - t0
        docs += len(batch)
    us = 1e6
    return {
        "chtml.arena_us_per_doc": t["arena"] * us / docs,
        "chtml.accept_ratio": 1 - declined / docs,
        "html_parser.fallback_us_per_doc": t["fallback"] * us / declined if declined else 0.0,
        "markdown.us_per_doc": t["markdown"] * us / docs,
        "metadata.us_per_doc": t["metadata"] * us / docs,
        "extract.kill_us_per_doc": t["kill"] * us / docs,
        "extract.density_us_per_doc": t["density"] * us / docs,
        "corpus.clean_us_per_doc": t["clean"] * us / docs,
        "inproc.docs_per_s": docs / (t["call"] + t["clean"]),
    }


def manifest_commit_s(out: Path, scratch: Path) -> float:
    """Re-commit the job's manifests into a scratch directory."""
    from fuzi_rd.state import manifest as mf

    manifests = mf.read_manifests(str(out))
    shutil.rmtree(scratch, ignore_errors=True)
    t0 = now()
    for m in manifests:
        stats = {k: v for k, v in m.items() if k != "part"}
        mf.write_manifest(str(scratch), m["part"], stats)
    mf.rollup(str(scratch))
    mf.completed_parts(str(scratch))
    wall = now() - t0
    shutil.rmtree(scratch, ignore_errors=True)
    return wall


def replay(job, batch_size: int) -> dict:
    batches = _batches(job, batch_size)
    if job.name == "corpus_fused":
        return _corpus(batches)
    return _extraction(batches)
