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
