"""Differential gate for the optional C parse kernel: the fast arena must
be FIELD-IDENTICAL to the Python parser's (track_lines=False) on every
corpus we can throw at it, or the kernel must decline (return None).

The C kernel never replaces the Python parser as the authority — these
tests define when it is allowed to answer."""

import pathlib

import pytest

from fuzi_rd import chtml
from fuzi_rd.errors import ParseError
from fuzi_rd.html_parser import parse_html_bytes

pytestmark = pytest.mark.skipif(
    not chtml.available(), reason="C kernel unavailable (no gcc?)"
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _assert_equiv(data, label=""):
    try:
        ref = parse_html_bytes(data, track_lines=False)
        ref_err = None
    except ParseError as e:
        ref, ref_err = None, str(e)
    try:
        fast = chtml.parse_html_bytes_fast(data)
        fast_err = None
    except ParseError as e:
        fast, fast_err = None, str(e)
    if fast_err is None and fast is None:
        return  # kernel declined: fallback path, always fine
    if ref_err is not None:
        assert fast_err == ref_err, (label, fast_err, ref_err)
        return
    assert fast_err is None, (label, fast_err)
    for field in (
        "types", "parents", "names", "texts", "attrs", "attr_order",
        "first_child", "last_child", "next_sib", "prev_sib", "subtree_end",
    ):
        assert getattr(fast, field) == getattr(ref, field), (label, field)
    assert fast.root == ref.root, label


def test_fixture_corpus():
    for p in sorted(FIXTURES.glob("*.html")) + sorted(FIXTURES.glob("*.xml")):
        _assert_equiv(p.read_bytes(), p.name)


def test_synthesized_pages():
    from fuzi_rd.sources.pages import pages_table

    tbl = pages_table(300, start=0)
    for url, html in zip(
        tbl.column("url").to_pylist(), tbl.column("html").to_pylist()
    ):
        _assert_equiv(html, url)


ADVERSARIAL = [
    b"",  # empty -> ParseError both
    b"   \n\t  ",  # whitespace only -> no root both
    b"no tags at all, just text",
    b"&nbsp;&nbsp;",  # doc-level entity-whitespace: kernel must decline
    b"<p>a &lt; b &amp;&amp; c &gt; d</p>",
    b"<div><p>one<p>two<ul><li>x<li>y</ul></div>",
    b"<table><tr><td>a<td>b<tr><td>c</table>",
    b"<SCRIPT>if (a<b) { alert('</div>'); }</SCRIPT>ok",
    b"<style>p > a { color: red; }</style><p>t</p>",
    b"<script>never closed...",
    b"<!-- unterminated comment",
    b"<!DOCTYPE html><html><body>x</body></html>",
    b"<?php echo 'hi'; ?><p>x</p>",
    b"<a href='u?a=1&b=2'>l</a>",
    b'<input type="checkbox" checked><br/><img src=x>',
    b"<a b=/>c</a>",
    b"<a b='unterminated>text",
    b'<a b="v1" b="v2">dup</a>',
    b"<p>1 < 2 but > 0</p>",
    b"<div class='x' CLASS='y' Data-Foo=bar>z</div>",
    b"<option>a<option>b<optgroup><option>c",
    b"<b><i>nest</b>close-out-of-order</i>",
    b"<html lang=en><head><title>t</title><meta a=b></head><body>c",
    b"<body>straight to body</body>",
    b"<title>head implied</title>after",
    b"text before <html> tag",
    b"<\x00weird>",
    b"<a\x0bname=1>v</a>",  # \v in attr area
    b"<svg><foreignObject><div>x</div></foreignObject></svg>",
    b"< notatag >",
    b"<a><a><a>nested anchors</a>",
    b"<h1>A</h2><h2>B</h1>",
    b"<template><li>in template</li></template>",
    b"\xef\xbb\xbf<p>bom</p>",  # BOM strip
    "<p>café   line sep</p>".encode("utf-8"),
    "<p>　ideographic space</p>".encode("utf-8"),
    "<DIVÉ>non-ascii tagname</DIVÉ>".encode("utf-8"),
]


def test_adversarial_cases():
    for i, case in enumerate(ADVERSARIAL):
        _assert_equiv(case, f"adversarial[{i}]")


def test_extraction_output_identical():
    """End-to-end: density extraction over both parsers byte-matches."""
    from fuzi_rd.extract import extract_main_content, kill_boilerplate_nodes
    from fuzi_rd.sources.pages import pages_table

    tbl = pages_table(100, start=7000)
    n_fast = 0
    for html in tbl.column("html").to_pylist():
        ref = parse_html_bytes(html, track_lines=False)
        fast = chtml.parse_html_bytes_fast(html)
        if fast is None:
            continue
        n_fast += 1
        kill_boilerplate_nodes(ref)
        kill_boilerplate_nodes(fast)
        t_ref, s_ref = extract_main_content(ref)
        t_fast, s_fast = extract_main_content(fast)
        assert t_ref == t_fast
        assert s_ref == s_fast
    assert n_fast >= 95  # the kernel must actually handle the corpus


def test_fuzz_random_bytes_no_divergence():
    import random

    rng = random.Random(1234)
    alphabet = b"<>/=\"' abcdefghijklmnop&;!?-\tp\n\xc3\xa9\xe2\x80\x88"
    for trial in range(200):
        size = rng.randint(0, 300)
        data = bytes(rng.choice(alphabet) for _ in range(size))
        _assert_equiv(data, f"fuzz[{trial}]")
    # fully random bytes: invalid UTF-8, control chars, stray '<' — the
    # decode("replace") path and every decline rule get exercised
    rng2 = random.Random(77)
    for trial in range(200):
        size = rng2.randint(0, 200)
        data = bytes(rng2.randrange(256) for _ in range(size))
        _assert_equiv(data, f"rawfuzz[{trial}]")


def _html_stages():
    from fuzi_rd.stages.extractor import ExtractPages
    from fuzi_rd.stages.links import extract_links
    from fuzi_rd.stages.markdown import convert_markdown
    from fuzi_rd.stages.metadata import extract_metadata
    from fuzi_rd.stages.tables import extract_tables

    def extract(batch):
        # the fused products force the per-row path, which parses with
        # parse_page; parse_us is a timing, not output
        ep = ExtractPages(emit_markdown=True, emit_metadata=True, emit_links=True)
        return ep(batch).drop_columns(["parse_us"])

    return {
        "extract_pages": extract,
        "markdown": convert_markdown,
        "metadata": extract_metadata,
        "links": extract_links,
        "tables": extract_tables,
    }


@pytest.mark.parametrize(
    "stage", ["extract_pages", "markdown", "metadata", "links", "tables"]
)
def test_kernel_exception_falls_back_to_python(monkeypatch, stage):
    """A kernel that raises anything but ParseError leaves each HTML page
    stage's output equal to its output with the kernel off."""
    import pyarrow as pa

    from fuzi_rd.sources.pages import pages_table

    pages = pages_table(30).select(["url", "html"])
    corners = [(FIXTURES / "web.html").read_bytes()] + ADVERSARIAL + [b"", None]
    batch = pa.concat_tables([
        pages,
        pa.table({
            "url": pa.array([f"https://x.test/c{i}" for i in range(len(corners))]),
            "html": pa.array(corners, pages.schema.field("html").type),
        }),
    ])
    run = _html_stages()[stage]
    calls = []

    def kernel_bug(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("kernel bug")

    monkeypatch.setattr(chtml, "parse_html_bytes_fast", kernel_bug)
    raised = run(batch)
    assert calls, "the kernel was never tried"
    monkeypatch.setattr(chtml, "available", lambda: False)
    assert raised.equals(run(batch))
    assert raised.num_rows > 0


def test_kernel_source_builds_without_warnings():
    """The kernel source compiles clean under -Wall -Wextra -Werror, so a
    warning in new C code fails here rather than hiding in the runtime
    build's silenced output."""
    import shutil
    import subprocess

    if shutil.which("gcc") is None:
        pytest.skip("no gcc")
    got = subprocess.run(
        ["gcc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(chtml._SRC)],
        capture_output=True,
        text=True,
    )
    assert got.returncode == 0, got.stderr
