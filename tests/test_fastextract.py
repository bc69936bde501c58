"""Differential gate for the batched extraction fast path
(fuzi_rd/fastextract.py): ExtractPages' vectorized `_call_fast` must be
COLUMN-IDENTICAL (everything except the wall-clock parse_us column) to the
per-document Python path on every corpus we can throw at it.  Rows the
kernel does not accept are answered by `_call_python` and merged back into
input order; a fast-path exception redoes the whole batch in Python.

Like the C-kernel gate (tests/test_chtml_equivalence.py), the Python path
remains the authority — these tests define when the batched path is allowed
to answer.  Reference parity anchor: the extraction spec itself is pinned
against the reference goldens in tests/test_spans.py / test_parity_html.py;
this suite only pins the fast execution strategy to the spec.
"""

import pathlib

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from fuzi_rd import chtml
from fuzi_rd.stages.extractor import ExtractPages

pytestmark = pytest.mark.skipif(
    not chtml.available(), reason="C kernel unavailable (no gcc?)"
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _table(blobs, urls=None):
    urls = urls or [f"u{i}" for i in range(len(blobs))]
    return pa.table(
        {"url": urls, "html": pa.array([bytes(b) for b in blobs], pa.large_binary())}
    )


def _assert_identical(tbl, label="", **kwargs):
    fast = ExtractPages(**kwargs)
    before = ExtractPages.fast_batch_fallbacks
    out_f = fast(tbl)
    assert ExtractPages.fast_batch_fallbacks == before, (
        label,
        "whole-batch safety net fired",
    )
    _assert_same_as_python(out_f, tbl, label, **kwargs)


def _assert_same_as_python(out_f, tbl, label="", **kwargs):
    """Every column but the wall-clock parse_us equals _call_python's."""
    out_s = ExtractPages(**kwargs)._call_python(tbl)
    assert out_f.schema == out_s.schema, label
    for name in out_f.schema.names:
        if name == "parse_us":  # wall-clock timing, legitimately different
            continue
        if not out_f.column(name).equals(out_s.column(name)):
            fa = out_f.column(name).to_pylist()
            sa = out_s.column(name).to_pylist()
            diffs = [
                (i, fa[i], sa[i]) for i in range(len(fa)) if fa[i] != sa[i]
            ][:3]
            raise AssertionError((label, name, diffs))


def test_fast_path_enabled_for_core_job():
    ep = ExtractPages()
    assert ep._fast is not None, "fast path must engage for the core job"


def test_fast_path_disabled_when_dom_products_requested():
    # recipes / fused markdown / metadata need the full Arena DOM
    assert ExtractPages(recipe={"h1": "//h1"})._fast is None
    assert ExtractPages(emit_markdown=True)._fast is None
    assert ExtractPages(emit_metadata=True)._fast is None
    # fused links read the kernel attr arrays directly — fast stays on
    assert ExtractPages(emit_links=True)._fast is not None


def test_fixture_corpus_identical():
    blobs = [
        p.read_bytes()
        for p in sorted(FIXTURES.glob("*.html")) + sorted(FIXTURES.glob("*.xml"))
    ]
    assert blobs
    _assert_identical(_table(blobs), "fixtures")


def test_synthesized_pages_identical():
    from fuzi_rd.sources.pages import pages_table

    for start in (0, 7000):
        tbl = pages_table(300, start=start)
        _assert_identical(tbl, f"pages[{start}]")


def test_skew_pages_identical():
    from fuzi_rd.sources.pages import skew_pages_table

    _assert_identical(skew_pages_table(120, start=0, huge_every=40), "skew")


ADVERSARIAL = [
    b"",  # empty -> error row both
    b"   \n\t  ",  # whitespace only -> no-root error both
    b"no tags at all, just text",
    b"&nbsp;&nbsp;",  # doc-level entity-whitespace: kernel declines per-doc
    b"<p>a &lt; b &amp;&amp; c &gt; d</p>",
    b"<div><p>one<p>two<ul><li>x<li>y</ul></div>",
    b"<table><tr><td>a<td>b<tr><td>c</table>",
    b"<SCRIPT>if (a<b) { alert('</div>'); }</SCRIPT>ok",
    b"<style>p > a { color: red; }</style><p>t</p>",
    b"<script>never closed...",
    b"<!-- unterminated comment",
    b"<!DOCTYPE html><html><body>x</body></html>",
    b"<?php echo 'hi'; ?><p>x</p>",
    # density decisions: link-heavy vs text-heavy blocks
    b"<a href=x>" + b"L" * 500 + b"</a>",
    b"<a href='u'>" + b"link " * 50 + b"</a><p>" + b"text " * 200 + b"</p>",
    b"<article>" + (b"<p>" + b"s" * 40 + b"</p>") * 20 + b"</article>",
    # candidate INSIDE an ancestor <a> (whose text is not the block's link text)
    b"<a href=x><div><p>" + b"t" * 400 + b"</p></div></a>",
    # body fallback (no block candidates)
    b"<body>" + b"x" * 10 + b"</body>",
    # sibling-index paths: repeated same-named siblings, mixed case
    b"<div><p>a</p><p>bbbbbbbb</p><P>" + b"c" * 300 + b"</P></div>",
    b"<DIV><SPAN>x</SPAN>" + b"w " * 150 + b"</DIV>",
    # >16-byte and unicode tag names (no tag-class entry; a decline)
    b"<verylongtagnameexceeding16bytes><p>"
    + b"q" * 300
    + b"</p></verylongtagnameexceeding16bytes>",
    "<χtag><p>".encode() + b"z" * 300 + "</p></χtag>".encode(),
    # titles: entities, '<' pieces, nested elements, late/duplicate heads
    b"<title>T &amp; t &lt;u&gt;</title><p>" + b"w" * 250 + b"</p>",
    b"<head><title>a<b>c</b>d</title></head><p>" + b"y" * 250 + b"</p>",
    # non-ASCII content (UTF-8 char-count path) + declared charsets
    "<p>café 中文 — “quotes” &amp; more:".encode() + b"z" * 300 + b"</p>",
    b'<meta charset="utf-8"><p>' + b"m" * 300 + b"</p>",
    b'<meta charset="UTF-8"><p>caf\xc3\xa9 ' + b"m" * 300 + b"</p>",
    b'<meta charset="latin-1"><p>caf\xe9 ' + b"m" * 300 + b"</p>",
    b'<meta charset="ascii"><p>' + b"m" * 300 + b"</p>",
    b"\xef\xbb\xbf<p>bom " + b"m" * 300 + b"</p>",
    b"\xff\xfe<p>bad bom</p>",
    # invalid utf-8 with a charset claim (replacement-char path)
    b'<meta charset="utf-8"><p>bad \xff\xfe\xfa ' + b"m" * 300 + b"</p>",
    # a candidate under an ancestor <a> holding two sibling <a>s and a
    # nested one (closed by the parser, or nested under a dead <template>)
    b"<a href=x><table><tr><td>" + b"t" * 120 + b"<a href=1>one</a><a href=2>two</a>"
    b"<a href=3>three<a href=4>four</a></a></td></tr></table></a>",
    b"<a href=x><table><tr><td>" + b"t" * 120 + b"<a href=1>one</a><a href=2>two</a>"
    b"<a href=3>th<template><a href=4>four</a></template>ree</a></td></tr></table></a>",
    # elements inside an <a> are not counted as the block's tags
    b"<p>" + b"t" * 25 + b"<a href=x><b>l</b><i>m</i></a></p>",
    # entity text inside link text and inside kept text
    b"<p>" + b"x &amp; y &eacute; " * 30 + b"<a href=1>l &lt; &eacute;&#8212;m</a></p>",
    # CDATA is a bogus comment up to the first '>'
    b"<p><![CDATA[ x <b>y</b> ]]>" + b"z" * 300 + b"</p>",
    b"<div><![CDATA[" + b"c" * 300 + b"]]></div>",
    # several thousand candidates on one page
    b"<div>" + b"".join(b"<p>%d " % i + b"w" * 30 + b"</p>" for i in range(3000)) + b"</div>",
    # kept blocks 2000 elements deep: span paths longer than the first guess
    b"<span>" * 2000 + (b"<p>" + b"d" * 40 + b"</p>") * 20,
]


def test_adversarial_identical():
    _assert_identical(_table(ADVERSARIAL), "adversarial")
    # and all of them as single-row batches (per-doc edge handling)
    for i, case in enumerate(ADVERSARIAL):
        _assert_identical(_table([case]), f"adversarial[{i}]")
    # a 0-row batch (the resume filter in extract_pages can produce one)
    empty = pa.table(
        {"url": pa.array([], pa.string()), "html": pa.array([], pa.large_binary())}
    )
    _assert_identical(empty, "adversarial[0 rows]")


def test_fuzz_no_divergence():
    import random

    rng = random.Random(1234)
    alphabet = b"<>/=\"' abcdefghijklmnop&;!?-\tp\n\xc3\xa9\xe2\x80\x88"
    blobs = [
        bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
        for _ in range(200)
    ]
    rng2 = random.Random(77)
    blobs += [
        bytes(rng2.randrange(256) for _ in range(rng2.randint(0, 200)))
        for _ in range(200)
    ]
    _assert_identical(_table(blobs), "fuzz")


# rows the kernel never accepts: declines and ParseErrors only
NO_FAST_ROWS = [b"&nbsp;&nbsp;", b"", b"   \n\t  ", b"&nbsp;&nbsp;", b""]


def test_mixed_batch_with_declines_and_errors():
    """A batch interleaving fast docs, per-doc declines (kernel corner),
    and error rows: _call_fast answers the accepted rows, _call_python the
    rest, and the two tables merge back into input order."""
    from fuzi_rd.sources.pages import pages_table

    good = pages_table(20, start=50).column("html").to_pylist()
    mixed = []
    for i, g in enumerate(good):
        mixed.append(g)
        if i % 3 == 0:
            mixed.append(b"&nbsp;&nbsp;")  # kernel declines -> python row
        if i % 4 == 0:
            mixed.append(b"")  # ParseError -> error row
    _assert_identical(_table(mixed), "mixed")
    # no row accepted: the fast table is empty and only the merge runs
    _assert_identical(_table(NO_FAST_ROWS), "mixed-no-fast")
    # the batch's one non-ASCII doc first, then last
    uni = "<p>café 中文 “q” &eacute; ".encode() + b"z" * 300 + b"</p>"
    _assert_identical(_table([uni] + good), "nonascii-first")
    _assert_identical(_table(good + [uni]), "nonascii-last")


def test_whole_batch_safety_net(monkeypatch):
    """A fast-path exception redoes the whole batch in _call_python, counts
    one fallback, and leaves the instance on the fast path for the next
    batch."""
    from fuzi_rd.fastextract import BatchExtractor
    from fuzi_rd.sources.pages import pages_table

    finish = BatchExtractor.finish
    calls = []

    def finish_failing_once(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected fast-path failure")
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(BatchExtractor, "finish", finish_failing_once)
    ep = ExtractPages()
    tbl = _table(ADVERSARIAL)
    before = ExtractPages.fast_batch_fallbacks
    _assert_same_as_python(ep(tbl), tbl, "safety-net")
    assert ExtractPages.fast_batch_fallbacks == before + 1
    nxt = pages_table(40, start=200)
    _assert_same_as_python(ep(nxt), nxt, "after-safety-net")
    assert len(calls) == 2, "next batch must take the fast path"
    assert ExtractPages.fast_batch_fallbacks == before + 1


def test_batch_extractor_reuse_across_batches():
    """Actor-pool usage: the same BatchExtractor instance must produce
    identical results across consecutive reset/add/finish cycles."""
    from fuzi_rd.sources.pages import pages_table

    ep = ExtractPages()
    t1 = pages_table(60, start=0)
    t2 = pages_table(60, start=60)
    for tbl in (t1, t2, t1):
        _assert_identical(tbl, "reuse")  # fresh instance
        _assert_same_as_python(ep(tbl), tbl, "reuse")  # reused instance


# ---------------------------------------------------------------------------
# fused emit_links on the fast path: finish_links() must replicate
# stages/links._page_links byte-for-byte (attr lookup, <base href>, scheme
# filter, anchor string-value, nofollow rel, doc-order cap)
# ---------------------------------------------------------------------------

LINK_ADVERSARIAL = [
    # plain / relative / absolute resolution
    b'<a href="/x">one</a><a href="http://e.com/p">two</a>',
    b'<a href="sub/page.html">rel</a><p>t</p>',
    # base href: first wins; later bases ignored; base w/o or empty href
    b'<base href="http://b.com/dir/"><a href="f">x</a>',
    b'<base><base href="http://late.com/"><a href="f">x</a>',
    b'<base href=""><base href="http://second.com/"><a href="f">x</a>',
    b'<a href="early">pre-base</a><base href="http://b.com/"><a href="post">y</a>',
    b'<base href="   "><base href="http://third.com/"><a href="f">x</a>',
    # attr-key casing + duplicate attrs (first occurrence wins)
    b'<A HREF="/up">caps</A>',
    b'<a HREF="/first" href="/second">dup</a>',
    b'<a rel="NOFOLLOW" href="/n">nf</a>',
    b'<a rel="a nofollow b" href="/n2">nf2</a>',
    b'<a rel="nofollowish" href="/n3">not-nf</a>',
    # missing / empty / whitespace / entity-escaped hrefs
    b'<a>no href</a><a href="">empty</a><a href="   ">ws</a>',
    b'<a href="/p?a=1&amp;b=2">ent</a>',
    # non-crawl schemes dropped (and do not count toward the cap)
    b'<a href="mailto:x@y.z">m</a><a href="javascript:void(0)">j</a>'
    b'<a href="ftp://f/">f</a><a href="data:text/plain,x">d</a>'
    b'<a href="https://keep.me/">k</a>',
    # anchor text: entities, '<' pieces, nesting, >200-char cap, strip
    b'<a href="/t">a &lt; b &amp; c</a>',
    b'<a href="/t"><b>bold</b> and <i>ital</i></a>',
    b'<a href="/t">  \n  padded  \t </a>',
    b'<a href="/long">' + b"A" * 500 + b"</a>",
    # nested anchor (parser closes implicitly; both paths see the same tree)
    b'<a href="/o">out<a href="/i">in</a></a>',
    # anchors inside killed-later containers still emit (links are pre-kill)
    b'<nav><a href="/nav1">n1</a><a href="/nav2">n2</a></nav><p>'
    + b"t" * 300
    + b"</p>",
    # urljoin/urlsplit hostile inputs
    b'<a href="http://[bad">broken</a><a href="//proto-rel/p">pr</a>',
    b'<a href="#frag">frag</a><a href="?q=1">query</a>',
    # uppercase BASE + unicode href bytes
    b'<BASE HREF="http://up.com/"><a href="caf\xc3\xa9">u</a>',
]


def test_emit_links_fixture_and_pages_identical():
    from fuzi_rd.sources.pages import pages_table

    blobs = [p.read_bytes() for p in sorted(FIXTURES.glob("*.html"))]
    _assert_identical(_table(blobs), "links-fixtures", emit_links=True)
    _assert_identical(pages_table(300, start=0), "links-pages", emit_links=True)


def test_emit_links_adversarial_identical():
    urls = [f"http://site{i}.test/dir/page.html" for i in range(len(LINK_ADVERSARIAL))]
    _assert_identical(
        _table(LINK_ADVERSARIAL, urls=urls), "links-adv", emit_links=True
    )
    for i, case in enumerate(LINK_ADVERSARIAL):
        _assert_identical(
            _table([case], urls=[urls[i]]), f"links-adv[{i}]", emit_links=True
        )


def test_emit_links_cap_identical():
    from fuzi_rd.stages.links import DEFAULT_MAX_LINKS

    many = b"".join(
        b'<a href="/p%d">t%d</a>' % (i, i) for i in range(DEFAULT_MAX_LINKS + 10)
    )
    tbl = _table([b"<div>" + many + b"</div>"], urls=["http://cap.test/"])
    _assert_identical(tbl, "links-cap", emit_links=True)
    assert len(ExtractPages(emit_links=True)(tbl).column("links")[0]) == DEFAULT_MAX_LINKS


def test_emit_links_fuzz_identical():
    import random

    rng = random.Random(4321)
    alphabet = b"<>/=\"' abcdefghijklmnop&;!?-\thref=rel=base a\n\xc3\xa9"
    blobs = [
        bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
        for _ in range(200)
    ]
    _assert_identical(_table(blobs), "links-fuzz", emit_links=True)


def test_emit_links_mixed_batch_identical():
    from fuzi_rd.sources.pages import pages_table

    good = pages_table(20, start=50).column("html").to_pylist()
    mixed = []
    for i, g in enumerate(good):
        mixed.append(g)
        if i % 3 == 0:
            mixed.append(b"&nbsp;&nbsp;")  # decline -> _call_python links
        if i % 4 == 0:
            mixed.append(b"")  # ParseError -> error row, empty links
    _assert_identical(_table(mixed), "links-mixed", emit_links=True)
    _assert_identical(_table(NO_FAST_ROWS), "links-no-fast", emit_links=True)


# ---------------------------------------------------------------------------
# the kernel batch reads the html column's Arrow buffers: every layout and
# every decode corner must give _call_python's columns
# ---------------------------------------------------------------------------

_BODY = b"<p>" + b"words and more words " * 8 + b"</p>"
CHARSET_PAGES = [
    b"<html><body>" + _BODY + b"</body></html>",  # ASCII, no declaration
    b'<meta charset="utf-8"><p>caf\xc3\xa9 \xe2\x9c\x93 </p>' + _BODY,
    b"<meta charset=ascii>" + _BODY,
    b'<meta charset="UTF_8"><p>\xe4\xb8\xad\xe6\x96\x87</p>' + _BODY,
    b"<meta charset=windows-1252><p>caf\xe9 \x93q\x94</p>" + _BODY,
    b"<meta charset=ascii><p>caf\xc3\xa9</p>" + _BODY,  # ascii declared, not ASCII
    b"\xef\xbb\xbf<p>bom caf\xc3\xa9</p>" + _BODY,  # UTF-8 BOM
    "﻿<p>utf-16 café</p>".encode("utf-16-le") + _BODY.decode().encode("utf-16-le"),
    b"<p>invalid \xff\xfe utf-8 \xc3</p>" + _BODY,  # no declaration
    b"<p>caf\xc3\xa9 valid utf-8, no declaration</p>" + _BODY,
]


def test_charset_rule_matches_to_utf8_buf():
    """The kernel takes a page as it is exactly when ``to_utf8_buf``'s
    fast paths would return its own bytes; it leaves every other page to
    that decode and then parses the decoded bytes."""
    from fuzi_rd.fastextract import ROW_DECODE, ROW_OK, BatchExtractor

    bx = BatchExtractor()
    state, _ = bx._parse(pa.array(CHARSET_PAGES, pa.binary()))
    assert state.tolist() == [ROW_OK] * 4 + [ROW_DECODE] * 5 + [ROW_OK]
    for page, st in zip(CHARSET_PAGES, state.tolist()):
        if st == ROW_OK:
            assert chtml.to_utf8_buf(page)[0] == page
    bx.reset()
    rows, state, _ = bx.add_array(pa.array(CHARSET_PAGES, pa.binary()))
    assert sorted(rows.tolist()) == list(range(len(CHARSET_PAGES)))
    assert set(state.tolist()) == {ROW_OK}


def test_charset_and_bom_pages_identical():
    _assert_identical(_table(CHARSET_PAGES), "charsets")
    for i, page in enumerate(CHARSET_PAGES):
        _assert_identical(_table([page]), f"charsets[{i}]")
    mixed = pa.table({"url": [f"m{i}" for i in range(30)], "html": pa.array(
        [CHARSET_PAGES[i % len(CHARSET_PAGES)] for i in range(30)], pa.binary())})
    _assert_identical(mixed, "charsets-mixed")
    _assert_identical(mixed, "charsets-mixed-links", emit_links=True)


def _corner_table(kind):
    from fuzi_rd.sources.pages import pages_table

    good = pages_table(12, start=300).column("html").to_pylist()
    html = good[:4] + [None, b""] + good[4:8] + [b"&nbsp;&nbsp;", None] + good[8:]
    urls = [f"https://c.test/{i}" for i in range(len(html))]
    return pa.table({"url": urls, "html": pa.array(html, kind)})


@pytest.mark.parametrize("kind", [pa.binary(), pa.large_binary()])
def test_arrow_layouts_identical(kind):
    """binary and large_binary, null and empty rows, a sliced table and a
    column of several chunks."""
    tbl = _corner_table(kind)
    _assert_identical(tbl, f"{kind}")
    _assert_identical(tbl.slice(3, 9), f"{kind}-sliced")
    _assert_identical(tbl.slice(5), f"{kind}-sliced-tail")
    chunked = pa.concat_tables([tbl.slice(0, 5), tbl.slice(5, 1), tbl.slice(6)])
    assert chunked.column("html").num_chunks == 3
    _assert_identical(chunked, f"{kind}-chunks")
    _assert_identical(chunked, f"{kind}-chunks-links", emit_links=True)


def test_over_cap_rows_identical(monkeypatch):
    """A page over ``chtml.MAX_PAGE_BYTES`` is an error row on both paths
    (the cap is lowered so the test stays small)."""
    tbl = _corner_table(pa.binary())
    monkeypatch.setattr(chtml, "MAX_PAGE_BYTES", 3000)
    sizes = pc.binary_length(tbl.column("html")).to_pylist()
    assert any(s and s > 3000 for s in sizes) and any(s and s <= 3000 for s in sizes)
    out = ExtractPages()(tbl)
    assert out.column("status").to_pylist().count("error") > 2
    _assert_identical(tbl, "over-cap")


def test_kernel_passes_split_a_large_block(monkeypatch):
    """A block over ``chtml.KERNEL_PASS_BYTES`` runs as several kernel
    passes (a page larger than the bound is a pass of its own) and gives
    the same output as one pass."""
    from fuzi_rd.fastextract import BatchExtractor
    from fuzi_rd.sources.pages import skew_pages_table

    tbl = skew_pages_table(60, start=0, huge_every=20)  # three pages of MBs
    one = ExtractPages()(tbl)
    finish, calls = BatchExtractor.finish, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(BatchExtractor, "finish", counted)
    monkeypatch.setattr(chtml, "KERNEL_PASS_BYTES", 20_000)
    several = ExtractPages()(tbl)
    assert len(calls) > 5
    assert several.drop_columns(["parse_us"]).equals(one.drop_columns(["parse_us"]))
    _assert_identical(tbl, "passes")
    _assert_identical(tbl, "passes-links", emit_links=True)


def test_declined_row_costs_one_kernel_attempt(monkeypatch):
    """A row the kernel declines goes to the Python parser without a
    second kernel attempt: the kernel sees every row once."""
    from fuzi_rd.fastextract import BatchExtractor
    from fuzi_rd.sources.pages import pages_table

    good = pages_table(10, start=500).column("html").to_pylist()
    nbsp = [b"&nbsp;&nbsp;", b"&nbsp;&nbsp;<p>" + b"text " * 40 + b"</p>"]
    html = [h for i, g in enumerate(good) for h in (g, nbsp[i % 2])]
    tbl = _table(html)
    parse, rows, pages = BatchExtractor._parse, [], []

    def counted_parse(self, arr, decoded=False):
        rows.append(len(arr))
        return parse(self, arr, decoded)

    def counted_page(*args, **kwargs):
        pages.append(1)
        return None  # a decline

    monkeypatch.setattr(BatchExtractor, "_parse", counted_parse)
    monkeypatch.setattr(chtml, "parse_html_bytes_fast", counted_page)
    out = ExtractPages()(tbl)
    assert sum(rows) == len(html)
    assert pages == []
    # a bare "&nbsp;&nbsp;" has no root element; the other declines parse
    assert out.column("status").to_pylist() == ["ok", "error", "ok", "ok"] * 5
    monkeypatch.undo()
    _assert_same_as_python(out, tbl, "declines")


def test_one_page_add_answers_a_python_bool():
    """``BatchExtractor.add`` returns ``True`` or ``False`` themselves
    (callers test ``ok is True``), never a numpy bool."""
    from fuzi_rd.fastextract import BatchExtractor

    bx = BatchExtractor()
    assert bx.add(b"<html><body>" + _BODY + b"</body></html>") is True
    assert bx.add(b"&nbsp;&nbsp;<p>" + b"text " * 40 + b"</p>") is False
    assert bx.add(CHARSET_PAGES[4]) is True  # windows-1252: decoded, then parsed


def test_kernel_self_check_imports_no_pandas():
    """``chtml.available()`` in a fresh process (its Arrow probe included)
    leaves pandas unimported: ``pa.array`` over a Python list, or a
    ``take`` by a numpy index, would import it, ~0.3 s of the check."""
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import sys; from fuzi_rd import chtml; ok = chtml.available(); "
        "print(ok, 'pandas' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.split() == ["True", "False"], out.stdout + out.stderr


@pytest.mark.parametrize("kind", [pa.string(), pa.large_string()])
def test_add_array_refuses_other_layouts(kind):
    """The kernel reads an array's buffers as ``binary`` or
    ``large_binary`` ones: any other type is refused before a pointer
    reaches C (``large_string`` offsets read as int32 would run past the
    data)."""
    from fuzi_rd.fastextract import BatchExtractor

    with pytest.raises(TypeError):
        BatchExtractor().add_array(pa.array(["<p>x</p>"], kind))
