"""HTML -> Markdown stage (fuzi_rd.stages.markdown)."""

from __future__ import annotations

import pyarrow as pa

from fuzi_rd.html_parser import parse_html_bytes
from fuzi_rd.stages.markdown import ConvertMarkdown, render_markdown


def _md(html: str, base: str = "http://ex.com/a/") -> str:
    return render_markdown(parse_html_bytes(html.encode()), base_url=base)


def test_headings_and_paragraphs():
    md = _md(
        "<html><body><h1>Title</h1><p>First para.</p>"
        "<h2>Sub</h2><p>Second   para\nwith  wrap.</p></body></html>"
    )
    assert md == (
        "# Title\n\nFirst para.\n\n## Sub\n\nSecond para with wrap."
    )


def test_lists_nested_and_ordered():
    md = _md(
        "<ul><li>one</li><li>two<ol><li>a</li><li>b</li></ol></li></ul>"
    )
    assert md == "- one\n- two\n  1. a\n  2. b"


def test_links_images_emphasis_code():
    md = _md(
        '<p>See <a href="/x">the <b>docs</b></a> and '
        '<img src="pic.png" alt="a pic"> plus <code>f(x)</code> '
        "and <em>soft</em>.</p>"
    )
    assert md == (
        "See [the **docs**](http://ex.com/x) and "
        "![a pic](http://ex.com/a/pic.png) plus `f(x)` and *soft*."
    )


def test_base_href_resolution():
    md = _md(
        '<head><base href="https://cdn.io/root/"></head>'
        '<body><p><a href="p.html">go</a></p></body>'
    )
    assert md == "[go](https://cdn.io/root/p.html)"


def test_pre_preserves_whitespace():
    md = _md("<p>before</p><pre>def f():\n    return  1</pre><p>after</p>")
    assert md == "before\n\n```\ndef f():\n    return  1\n```\n\nafter"


def test_blockquote_and_hr():
    md = _md("<blockquote><p>quoted\ntext</p></blockquote><hr><p>end</p>")
    assert md == "> quoted text\n\n---\n\nend"


def test_table_renders_pipe_rows():
    md = _md(
        "<table><tr><th>h1</th><th>h2</th></tr>"
        "<tr><td>a</td><td>b</td></tr></table>"
    )
    assert md == "| h1 | h2 |\n| a | b |"


def test_script_style_head_skipped():
    md = _md(
        "<head><title>T</title><style>p{}</style></head>"
        "<body><script>x=1</script><p>kept</p><noscript>no</noscript></body>"
    )
    assert md == "kept"


def test_anchor_without_href_keeps_text():
    md = _md("<p><a name='x'>plain</a> text</p>")
    assert md == "plain text"


def test_deep_nesting_no_recursion_error():
    html = "<div>" * 2000 + "deep" + "</div>" * 2000
    assert _md(html) == "deep"


def test_convert_markdown_stage_poison_pill(ray_session):
    import ray

    from fuzi_rd.stages.markdown import markdown_dataset

    pages = pa.table(
        {
            "url": pa.array(["http://a", "http://b"], pa.string()),
            "html": pa.array(
                [b"<h1>ok</h1>", None], pa.binary()
            ),
        }
    )
    out = markdown_dataset(ray.data.from_arrow(pages)).take_all()
    rows = {r["url"]: r for r in out}
    assert rows["http://a"]["markdown"] == "# ok"
    assert rows["http://a"]["status"] == "ok"
    # a missing page is empty input, which does not parse: an error row
    assert rows["http://b"]["markdown"] == ""
    assert rows["http://b"]["status"] == "error"


def test_stage_matches_pure_renderer(ray_session):
    """C-kernel and Python parses must produce identical markdown."""
    import ray

    html = (
        b"<html><head><title>t</title></head><body><h2>H</h2>"
        b"<ul><li>x <a href='/l'>link</a></li></ul>"
        b"<pre>a  b</pre></body></html>"
    )
    expected = render_markdown(
        parse_html_bytes(html), base_url="http://s.io/p"
    )
    pages = pa.table(
        {
            "url": pa.array(["http://s.io/p"], pa.string()),
            "html": pa.array([html], pa.binary()),
        }
    )
    out = ConvertMarkdown()(pages)
    assert out.column("markdown").to_pylist() == [expected]
    assert out.column("n_chars").to_pylist() == [len(expected)]
