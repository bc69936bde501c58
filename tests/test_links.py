"""Link extraction + domain webgraph (stages/links.py)."""

from __future__ import annotations

import pyarrow as pa

from fuzi_rd.html_parser import parse_html_bytes
from fuzi_rd.stages.links import _page_links, extract_links_dataset, link_graph


def _links(html: str, url: str = "http://ex.com/dir/page", max_links: int = 1000):
    arena = parse_html_bytes(html.encode("utf-8"), track_lines=False)
    return _page_links(arena, url, max_links)


def test_relative_and_absolute_resolution():
    out = _links(
        "<html><body>"
        '<a href="sub/x.html">rel</a>'
        '<a href="/root.html">abs path</a>'
        '<a href="http://other.org/p">abs</a>'
        "</body></html>"
    )
    assert [d for d, _, _ in out] == [
        "http://ex.com/dir/sub/x.html",
        "http://ex.com/root.html",
        "http://other.org/p",
    ]
    assert [a for _, a, _ in out] == ["rel", "abs path", "abs"]


def test_base_href_wins():
    out = _links(
        '<html><head><base href="http://cdn.ex.com/assets/"></head>'
        '<body><a href="img/x">x</a></body></html>'
    )
    assert out[0][0] == "http://cdn.ex.com/assets/img/x"


def test_non_http_schemes_dropped():
    out = _links(
        "<html><body>"
        '<a href="mailto:a@b.c">mail</a>'
        '<a href="javascript:void(0)">js</a>'
        '<a href="https://ok.com/">ok</a>'
        "</body></html>"
    )
    assert len(out) == 1 and out[0][0] == "https://ok.com/"


def test_nofollow_flag_and_anchor_text():
    out = _links(
        '<html><body><a href="/x" rel="NoFollow sponsored">'
        "<b>deep</b> text</a></body></html>"
    )
    (dst, anchor, nf) = out[0]
    assert nf is True
    assert anchor == "deep text"


def test_missing_href_and_link_cap():
    html = "<html><body><a name='x'>no href</a>" + "".join(
        f'<a href="/p{i}">l</a>' for i in range(50)
    )
    out = _links(html + "</body></html>", max_links=10)
    assert len(out) == 10
    assert out[0][0] == "http://ex.com/p0"


def test_extract_links_stage_and_graph(ray_session):
    import ray

    pages = pa.table(
        {
            "url": pa.array(
                [
                    "http://a.com/1",
                    "http://a.com/2",
                    "http://sub.b.co.uk/x",
                    "http://broken.com/x",
                ]
            ),
            "html": pa.array(
                [
                    b'<html><body><a href="http://b.co.uk/p">t</a>'
                    b'<a href="http://a.com/self">s</a></body></html>',
                    b'<html><body><a href="http://b.co.uk/q" rel="nofollow">n</a>'
                    b'<a href="http://c.org/r">c</a></body></html>',
                    b'<html><body><a href="/local">l</a>'
                    b'<a href="http://a.com/back">b</a></body></html>',
                    b"\x00\xff not really html \x00",
                ],
                pa.binary(),
            ),
        }
    )
    ds = ray.data.from_arrow(pages)
    rows = extract_links_dataset(ds).take_all()
    # nofollow edge present in the edge list, flagged
    assert any(r["nofollow"] for r in rows)
    # poison page contributed no edges but didn't fail the block
    assert all(r["src_url"] != "http://broken.com/x" for r in rows)

    graph = link_graph(extract_links_dataset(ds)).take_all()
    edges = {(r["src_domain"], r["dst_domain"]): r["count()"] for r in graph}
    # self-loops (a.com->a.com, sub.b.co.uk->b.co.uk is NOT a self loop at
    # domain level? sub.b.co.uk registers as b.co.uk -> /local IS dropped
    # as relative-kept-http? no: /local resolves to sub.b.co.uk, same
    # registered domain => self loop, dropped) and nofollow edges are gone
    assert edges == {
        ("a.com", "b.co.uk"): 1,
        ("a.com", "c.org"): 1,
        ("b.co.uk", "a.com"): 1,
    }


def test_anchor_text_rollup(ray_session):
    import ray

    from fuzi_rd.stages.links import anchor_text_rollup

    def page(links):
        body = "".join(f'<a href="{h}">{a}</a>' for h, a in links)
        return f"<html><body>{body}</body></html>".encode()

    rows = pa.table(
        {
            "url": pa.array(
                [f"http://src{i}.com/p" for i in range(3)], pa.string()
            ),
            "html": pa.array(
                [
                    page([("http://t.com/a", "Cheap  Pills"), ("http://t.com/b", "home")]),
                    page([("http://t.com/c", "cheap pills"), ("http://u.org/", "Docs")]),
                    page([("http://t.com/d", "CHEAP PILLS "), ("http://u.org/x", "docs")]),
                ],
                pa.binary(),
            ),
        }
    )
    ds = ray.data.from_arrow(rows)
    links = extract_links_dataset(ds)
    out = {
        (r["dst_domain"], r["anchor"]): r["n_links"]
        for r in anchor_text_rollup(links, min_count=2).take_all()
    }
    # normalization folds case/whitespace; min_count=2 drops 'home'
    assert out == {("t.com", "cheap pills"): 3, ("u.org", "docs"): 2}


def _op_names(ds) -> list[str]:
    """Operator names of a lazy Dataset's logical plan (plan-shape pin)."""
    names, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        names.append(op.name)
        stack.extend(op.input_dependencies)
    return names


def test_fused_emit_links_identity(ray_session, tmp_path_factory):
    """ExtractPages(emit_links=True) emits, from the ONE extraction parse,
    the exact edge rows the standalone extract_links stage produces —
    recovered via links_from_extracted with no second HTML parse."""
    import ray

    from fuzi_rd.pipelines.extraction import extract_dataset
    from fuzi_rd.sources.pages import write_pages_parquet
    from fuzi_rd.stages.links import extract_links_dataset, links_from_extracted

    d = str(tmp_path_factory.mktemp("pages_links"))
    write_pages_parquet(d, 80, rows_per_file=40)

    def _pages():
        return ray.data.read_parquet(d, columns=["url", "html"])

    fused = links_from_extracted(
        extract_dataset(_pages(), batch_size=16, emit_links=True)
    ).take_all()
    standalone = extract_links_dataset(_pages(), batch_size=16).take_all()

    def key(r):
        return (r["src_url"], r["dst_url"], r["anchor"], r["nofollow"])

    assert len(standalone) > 0
    assert sorted(map(key, fused)) == sorted(map(key, standalone))


def test_fused_corpus_webgraph_single_parse_plan(ray_session, tmp_path_factory):
    """Plan-shape pin for the fused corpus+webgraph job: deriving the edge
    list from the emit_links column adds NO parser stage — the whole lazy
    plan contains exactly one extraction operator and no extract_links."""
    import ray

    from fuzi_rd.pipelines.extraction import extract_dataset
    from fuzi_rd.sources.pages import write_pages_parquet
    from fuzi_rd.stages.links import link_graph, links_from_extracted

    d = str(tmp_path_factory.mktemp("pages_plan"))
    write_pages_parquet(d, 40, rows_per_file=40)
    pages = ray.data.read_parquet(d, columns=["url", "html"])
    extracted = extract_dataset(pages, batch_size=16, emit_links=True)
    # drop_self=False: the 40-page fixture links within fixtures.test only
    graph = link_graph(links_from_extracted(extracted), drop_self=False)

    names = _op_names(graph)
    assert sum("extract_pages" in n for n in names) == 1, names
    assert not any("extract_links" in n for n in names), names
    # and the fused plan actually produces the webgraph
    assert graph.take_all()
