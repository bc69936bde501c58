"""Deterministic Common-Crawl-style page table generator.

Synthesizes the pipeline input table (BASELINE.json `input_hint`):

    url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string

Everything is a pure function of the row sequence number (seed-42 content
mutations, no wall clock, no randomness — FIXTURES.md §5), so any scale tier
regenerates bit-identically: t1 smoke ~200 rows, t2 correctness ~5,000 rows,
bench 50,000+ rows.

A small fraction of rows carries the reference conformance corpus page
(web.html) and pathological pages (malformed, unicode, script-heavy, empty)
so the pipeline's recovery paths stay exercised at every scale.
"""

from __future__ import annotations

import datetime
import pathlib

import pyarrow as pa

_FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[2] / "tests" / "fixtures"

BASE_TS = datetime.datetime(2026, 1, 2, 0, 0, 0, tzinfo=datetime.timezone.utc)

_WORDS = (
    "data stream shard parquet arrow batch actor cluster schedule spill"
    " tensor vector column block node parse query density heuristic content"
    " extract pipeline lineage manifest resume checkpoint throughput scale"
    " partition shuffle broadcast replica worker driver object store memory"
).split()

_LANGS = ("en", "en", "en", "en", "ja", "el", "ru", "ar", "he", "zh")

_UNICODE_SNIPPETS = {
    "ja": "中文 日本語 한국어",
    "el": "Ελληνικά κείμενο εδώ",
    "ru": "Русский текст здесь",
    "ar": "النص العربي هنا",
    "he": "טקסט בעברית כאן",
    "zh": "这是一段中文文本",
    "en": "café résumé naïve",
}


def _sentence(seq: int, j: int, k: int) -> str:
    # deterministic pseudo-prose: pure function of (seq, j, k)
    h = (seq * 2654435761 + j * 40503 + k * 69621) & 0x7FFFFFFF
    out = []
    for w in range(6 + (h % 7)):
        out.append(_WORDS[(h + w * 131) % len(_WORDS)])
    return " ".join(out).capitalize() + f" s{seq} p{j} t{k}."


def _paragraph(seq: int, j: int) -> str:
    return " ".join(_sentence(seq, j, k) for k in range(4 + (seq + j) % 4))


def _nav(seq: int) -> str:
    items = "".join(
        f'<li><a href="/section/{i}">Section {i} navigation link</a></li>'
        for i in range(8)
    )
    return f'<nav id="topnav"><ul>{items}</ul></nav>'


def _footer(seq: int) -> str:
    links = "".join(
        f'<a href="/legal/{i}">Legal {i}</a> | ' for i in range(6)
    )
    return f'<footer class="site-footer">{links}<span>© fixture {seq % 7}</span></footer>'


def article_page(seq: int, lang: str) -> str:
    n_paras = 3 + seq % 6
    paras = "\n".join(
        f'<p class="body-text">{_paragraph(seq, j)}</p>' for j in range(n_paras)
    )
    uni = _UNICODE_SNIPPETS.get(lang, _UNICODE_SNIPPETS["en"])
    return f"""<!DOCTYPE html>
<html lang="{lang}">
<head>
<meta charset="utf-8">
<title>Fixture article {seq}</title>
<style>body {{ margin: 0; }} .ad {{ display:none }}</style>
<script>var track = {seq}; if (track < 2) console.log("x");</script>
</head>
<body class="article-page">
{_nav(seq)}
<header><h1>Fixture article {seq}: {uni}</h1></header>
<main id="content">
<article>
{paras}
</article>
</main>
<aside class="ad"><a href="/buy/1">Buy now</a> <a href="/buy/2">Deals</a></aside>
{_footer(seq)}
</body>
</html>"""


def listing_page(seq: int, lang: str) -> str:
    # link-dense page: nothing should survive the link-density filter except
    # the description block
    items = "\n".join(
        f'<li><a href="/item/{seq}/{i}">Item {i} title link text here</a></li>'
        for i in range(20)
    )
    return f"""<html><head><title>Listing {seq}</title></head>
<body>
{_nav(seq)}
<div id="listing"><ul>{items}</ul></div>
<div id="description"><p>{_paragraph(seq, 0)}</p></div>
{_footer(seq)}
</body></html>"""


def malformed_page(seq: int, lang: str) -> str:
    return (
        f"<html><body><div><p>Paragraph {_paragraph(seq, 0)}"
        f"<div>Nested {_paragraph(seq, 1)}"
    )


def script_heavy_page(seq: int, lang: str) -> str:
    blob = ";".join(f"var v{i}={i}<{i + 1}" for i in range(50))
    return (
        f"<html><head><title>App {seq}</title><script>{blob}</script></head>"
        f"<body><div id='app'><p>{_paragraph(seq, 0)}</p></div>"
        f"<script>{blob}</script></body></html>"
    )


def tiny_page(seq: int, lang: str) -> str:
    return f"<html><head><title>t{seq}</title></head><body>tiny {seq}</body></html>"


_TEMPLATES = (
    article_page,  # weight via repetition
    article_page,
    article_page,
    article_page,
    listing_page,
    article_page,
    script_heavy_page,
    article_page,
    malformed_page,
    tiny_page,
)

_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_WEB_HTML_EVERY = 97  # every 97th row carries the real reference corpus page


def row_for_seq(seq: int) -> tuple:
    lang = _LANGS[seq % len(_LANGS)]
    url = f"https://fixtures.test/{seq % 16:x}/{seq:08d}"
    ts = BASE_TS + datetime.timedelta(seconds=seq)
    if seq % _WEB_HTML_EVERY == 96:
        html = (_FIXTURE_DIR / "web.html").read_bytes()
        lang = "en"
    else:
        html = _TEMPLATES[seq % len(_TEMPLATES)](seq, lang).encode("utf-8")
    return url, ts.replace(tzinfo=None), html, "", lang


def pages_table(n_rows: int, start: int = 0) -> pa.Table:
    urls, tss, htmls, texts, langs = [], [], [], [], []
    for seq in range(start, start + n_rows):
        u, t, h, x, l = row_for_seq(seq)
        urls.append(u)
        tss.append(t)
        htmls.append(h)
        texts.append(x)
        langs.append(l)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        },
        schema=_SCHEMA,
    )


def write_pages_parquet(
    out_dir: str, n_rows: int, rows_per_file: int = 10_000
) -> list[str]:
    """Write the page table as multiple parquet files (one per input shard —
    the unit of parallel reading and of resume)."""
    import pyarrow.parquet as pq

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    start = 0
    shard = 0
    while start < n_rows:
        n = min(rows_per_file, n_rows - start)
        path = out / f"pages-{shard:05d}.parquet"
        if not path.exists():
            tbl = pages_table(n, start=start)
            pq.write_table(tbl, path, compression="zstd")
        paths.append(str(path))
        start += n
        shard += 1
    return paths


# -- heavy-tail corpus (oversized-page inputs) --------------------------------


def huge_article_page(seq: int) -> str:
    """Deterministic multi-megabyte tag-soup article (the oversized-blob
    skew case the north_rule calls out).  Size varies 1-4 MB by seq."""
    n_paras = 2000 + (seq * 131) % 6000  # ~1-4 MB rendered
    paras = "\n".join(
        f'<p class="body-text">{_paragraph(seq, j)} '
        f"{_sentence(seq, j, 0)} {_sentence(seq, j, 1)}</p>"
        for j in range(n_paras)
    )
    return (
        f"<html><head><title>Huge fixture {seq}</title></head>"
        f"<body>{_nav(seq)}<main><article>{paras}</article></main>"
        f"{_footer(seq)}</body></html>"
    )


def skew_row_for_seq(seq: int, huge_every: int = 1000) -> tuple:
    """Page row with a heavy size tail: every ``huge_every``-th row is a
    1-4 MB page, the rest are the normal fixture mix."""
    if huge_every and seq % huge_every == huge_every - 1:
        lang = "en"
        url = f"https://fixtures.test/huge/{seq:08d}"
        ts = BASE_TS + datetime.timedelta(seconds=seq)
        return url, ts.replace(tzinfo=None), huge_article_page(seq).encode(), "", lang
    return row_for_seq(seq)


def skew_pages_table(n_rows: int, start: int = 0, huge_every: int = 1000) -> pa.Table:
    rows = [skew_row_for_seq(s, huge_every) for s in range(start, start + n_rows)]
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array([r[4] for r in rows], pa.string()),
        },
        schema=_SCHEMA,
    )


# -- metadata-rich corpus (head-metadata extraction fixtures) -----------------


def meta_article_page(seq: int, lang: str) -> str:
    """Article page with a full head-metadata block: meta description,
    canonical link (every 4th page is a 'mirror' whose canonical points at
    the seq - seq%4 primary), Open Graph fields, and a robots directive on
    every 9th page.  Deterministic in seq."""
    primary = seq - (seq % 4)
    canonical = (
        f'<link rel="canonical" href="https://fixtures.test/meta/{primary:08d}">'
        if seq % 2 == 0
        else ""
    )
    robots = (
        '<meta name="robots" content="noindex, nofollow">'
        if seq % 9 == 8
        else ""
    )
    og = (
        f'<meta property="og:title" content="OG article {seq}">\n'
        f'<meta property="og:description" content="{_sentence(seq, 0, 0)}">\n'
        f'<meta property="og:image" content="https://fixtures.test/img/{seq % 50}.jpg">\n'
        f'<meta property="og:type" content="article">'
    )
    n_paras = 2 + seq % 4
    paras = "\n".join(
        f'<p class="body-text">{_paragraph(seq, j)}</p>' for j in range(n_paras)
    )
    return f"""<!DOCTYPE html>
<html lang="{lang}">
<head>
<meta charset="utf-8">
<title>Meta fixture {seq}</title>
<meta name="description" content="{_sentence(seq, 1, 0)}">
{canonical}
{robots}
{og}
</head>
<body class="article-page">
{_nav(seq)}
<main id="content"><article>{paras}</article></main>
{_footer(seq)}
</body>
</html>"""


def meta_pages_table(n_rows: int, start: int = 0) -> pa.Table:
    """(url, warc_ts, html, text, lang) rows with metadata-rich heads.
    Every 4-row block {4k..4k+3} forms a canonical mirror group whose even
    members declare the 4k page as canonical."""
    rows = []
    for seq in range(start, start + n_rows):
        lang = _LANGS[seq % len(_LANGS)]
        url = f"https://fixtures.test/meta/{seq:08d}"
        ts = BASE_TS + datetime.timedelta(seconds=seq)
        rows.append(
            (
                url,
                ts.replace(tzinfo=None),
                meta_article_page(seq, lang).encode("utf-8"),
                "",
                lang,
            )
        )
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array([r[4] for r in rows], pa.string()),
        },
        schema=_SCHEMA,
    )


def write_meta_pages_parquet(
    out_dir: str, n_rows: int, rows_per_file: int = 200
) -> list[str]:
    """Shard-per-file writer for the metadata-rich fixture table."""
    import pyarrow.parquet as pq

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    start = 0
    shard = 0
    while start < n_rows:
        n = min(rows_per_file, n_rows - start)
        path = out / f"pages-{shard:05d}.parquet"
        if not path.exists():
            pq.write_table(meta_pages_table(n, start=start), path, compression="zstd")
        paths.append(str(path))
        start += n
        shard += 1
    return paths
