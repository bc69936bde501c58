"""Seeded input generation for the benchmark workloads (untimed, cached).

The seed picks the ``sources/pages`` sequence window and, for
``hostile_mix``, which pages are re-encoded to a legacy charset and which
get an ``&nbsp;`` right after ``<html>`` (the C kernel declines those, so
they take the Python parser).  The program only ever sees the parquet
files written here.  Each (workload, seed, size) set is cached under
``.bench_work/inputs`` with an ``inputs.json`` that records its byte
size, page-size quantiles and the huge / legacy / declined shares.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

# pages per timed job; sized so one job takes a few seconds on one core
SIZES = {
    "crawl_mix": 6000,
    "corpus_fused": 1200,
    "hostile_mix": 2000,
}
WARMUP_PAGES = 256
ROWS_PER_FILE = 1000
HUGE_EVERY = 500
HUGE_BYTES = 1 << 20
LEGACY_SHARE = 0.08
NBSP_SHARE = 0.08
LEGACY_CHARSETS = ("windows-1252", "windows-1256", "iso-8859-7", "shift_jis")
SAMPLE_SIZE = 160
# hostile windows start at 4500 (mod 6000): every window then holds the
# same huge-page sizes (about 1.9, 1.5, 5.1 and 4.8 MB), so seeds differ in
# content and injection sites, not in total bytes
_HOSTILE_PHASE = 4500
_HOSTILE_PERIOD = 6000


@dataclass
class InputSet:
    workload: str
    seed: int
    path: Path
    n_docs: int
    stats: dict
    # urls the gate always compares with the authority path
    special_urls: list[str]
    sample_urls: list[str]
    expected: dict | None = None  # gate.expectations() fills it


def window_start(workload: str, seed: int) -> int:
    k = seed % 100_000
    if workload == "hostile_mix":
        return _HOSTILE_PHASE + _HOSTILE_PERIOD * k
    # multiples of 10 keep the template mix of row_for_seq identical
    offset = {"crawl_mix": 0, "corpus_fused": 3}[workload]
    return (k * 100 + offset) * 10_000


def _legacy(html: bytes, charset: str) -> bytes | None:
    text = html.decode("utf-8")
    decl = '<meta charset="utf-8">'
    if decl not in text:
        return None
    return text.replace(decl, f'<meta charset="{charset}">').encode(
        charset, "xmlcharrefreplace"
    )


def _nbsp(html: bytes) -> bytes | None:
    i = html.find(b"<html")
    if i < 0:
        return None
    j = html.find(b">", i)
    return html[: j + 1] + b"&nbsp;" + html[j + 1 :]


def build_table(workload: str, seed: int, n: int) -> tuple[pa.Table, dict]:
    """The workload's page table for this seed, plus the urls of pages
    altered by the hostile injections."""
    from fuzi_rd.sources import pages

    start = window_start(workload, seed)
    if workload != "hostile_mix":
        return pages.pages_table(n, start=start), {"legacy": [], "nbsp": []}
    table = pages.skew_pages_table(n, start=start, huge_every=HUGE_EVERY)
    urls = table.column("url").to_pylist()
    htmls = table.column("html").to_pylist()
    rng = random.Random(seed)
    normal = [i for i, h in enumerate(htmls) if len(h) < HUGE_BYTES]
    picked = rng.sample(normal, int(len(normal) * (LEGACY_SHARE + NBSP_SHARE)))
    n_legacy = int(len(normal) * LEGACY_SHARE)
    altered = {"legacy": [], "nbsp": []}
    for rank, i in enumerate(picked):
        if rank < n_legacy:
            kind = "legacy"
            new = _legacy(htmls[i], LEGACY_CHARSETS[rank % len(LEGACY_CHARSETS)])
        else:
            kind = "nbsp"
            new = _nbsp(htmls[i])
        if new is not None:
            htmls[i] = new
            altered[kind].append(urls[i])
    table = table.set_column(
        table.schema.get_field_index("html"), "html", pa.array(htmls, pa.binary())
    )
    return table, altered


def _kernel_declines(htmls: list[bytes]) -> list[int]:
    from fuzi_rd import chtml
    from fuzi_rd.errors import ParseError

    out = []
    for i, h in enumerate(htmls):
        try:
            if chtml.parse_raw(h) is None:
                out.append(i)
        except ParseError:
            pass
    return out


def _quantiles(sizes: list[int]) -> dict:
    s = sorted(sizes)

    def q(p):
        return s[min(len(s) - 1, int(p * len(s)))]

    return {"p10": q(0.10), "p50": q(0.50), "p90": q(0.90), "p99": q(0.99), "max": s[-1]}


def _write(table: pa.Table, d: Path) -> None:
    d.mkdir(parents=True)
    for k, lo in enumerate(range(0, len(table), ROWS_PER_FILE)):
        pq.write_table(
            table.slice(lo, ROWS_PER_FILE), d / f"pages-{k:05d}.parquet",
            compression="zstd",
        )


def prepare(work: Path, workload: str, seed: int) -> InputSet:
    n = SIZES[workload]
    d = work / "inputs" / f"{workload}-s{seed}-n{n}"
    meta = d / "inputs.json"
    if not meta.exists():
        shutil.rmtree(d, ignore_errors=True)
        table, altered = build_table(workload, seed, n)
        urls = table.column("url").to_pylist()
        htmls = table.column("html").to_pylist()
        sizes = [len(h) for h in htmls]
        declined = _kernel_declines(htmls)
        huge = [urls[i] for i, s in enumerate(sizes) if s >= HUGE_BYTES]
        special = sorted(
            set(huge) | set(altered["legacy"]) | {urls[i] for i in declined}
        )
        rng = random.Random(seed * 7919 + n)
        sample = sorted(rng.sample(urls, min(SAMPLE_SIZE, n)))
        stats = {
            "workload": workload,
            "seed": seed,
            "window_start": window_start(workload, seed),
            "n_docs": n,
            "input_bytes": sum(sizes),
            "page_bytes": _quantiles(sizes),
            "huge_share": len(huge) / n,
            "legacy_share": len(altered["legacy"]) / n,
            "nbsp_share": len(altered["nbsp"]) / n,
            "declined_share": len(declined) / n,
        }
        _write(table, d / "pages")
        tmp = meta.with_suffix(".tmp")
        tmp.write_text(
            json.dumps({"stats": stats, "special": special, "sample": sample})
        )
        tmp.replace(meta)
    m = json.loads(meta.read_text())
    return InputSet(
        workload, seed, d / "pages", n, m["stats"], m["special"], m["sample"]
    )


def prepare_warmup(work: Path) -> Path:
    """A small fixed page set for the warm-up job of the session set-up."""
    from fuzi_rd.sources import pages

    d = work / "inputs" / f"warmup-n{WARMUP_PAGES}"
    if not (d / "done").exists():
        shutil.rmtree(d, ignore_errors=True)
        _write(pages.pages_table(WARMUP_PAGES, start=10**8), d / "pages")
        (d / "done").touch()
    return d / "pages"
