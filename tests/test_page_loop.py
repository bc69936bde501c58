"""The shared page loop (fuzi_rd/stages/products.py): a product that raises
on one page turns that page, and only that page, into its stage's error
shape; the other pages' rows do not change."""

from __future__ import annotations

import pyarrow as pa
import pytest

from fuzi_rd.stages import links, markdown, metadata, tables
from fuzi_rd.stages.extractor import ExtractPages

_URLS = ["http://a.test/p", "http://b.test/p", "http://c.test/p"]
_MIDDLE = _URLS[1]


def _page(i: int) -> bytes:
    return (
        f"<html lang='en'><head><title>Page {i}</title>"
        f"<meta name='description' content='about {i}'></head><body>"
        f"<h1>Heading {i}</h1><p>{'Some body text here. ' * 20}</p>"
        f"<a href='/next{i}'>next {i}</a>"
        f"<table><tr><th>k</th><td>v{i}</td></tr></table>"
        "</body></html>"
    ).encode()


def _batch() -> pa.Table:
    return pa.table(
        {"url": _URLS, "html": pa.array([_page(i) for i in range(3)], pa.binary())}
    )


def _fail_on_middle(monkeypatch, module, name):
    real = getattr(module, name)

    def raising(arena, *args, **kwargs):
        if _MIDDLE in args or _MIDDLE in kwargs.values():
            raise RuntimeError("poison product")
        return real(arena, *args, **kwargs)

    monkeypatch.setattr(module, name, raising)


def _without_timing(t: pa.Table) -> pa.Table:
    return t.drop_columns(["parse_us"]) if "parse_us" in t.column_names else t


@pytest.mark.parametrize(
    "module,name,stage",
    [
        (markdown, "render_markdown", markdown.convert_markdown),
        (metadata, "_page_metadata", metadata.extract_metadata),
        (links, "_page_links", links.extract_links),
        (tables, "_page_tables", tables.extract_tables),
        (markdown, "render_markdown", ExtractPages(emit_markdown=True)),
    ],
    ids=["markdown", "metadata", "links", "tables", "extract_pages"],
)
def test_failing_product_affects_only_its_page(monkeypatch, module, name, stage):
    clean = _without_timing(stage(_batch()))
    _fail_on_middle(monkeypatch, module, name)
    out = _without_timing(stage(_batch()))
    assert out.schema == clean.schema

    key = "src_url" if "src_url" in clean.column_names else "url"
    if stage in (links.extract_links, tables.extract_tables):
        # a row-expanding stage gives the failing page no rows
        assert _MIDDLE in clean.column(key).to_pylist()
        assert _MIDDLE not in out.column(key).to_pylist()
        kept = [u != _MIDDLE for u in clean.column(key).to_pylist()]
        assert out.equals(clean.filter(pa.array(kept)))
        return

    rows, want = out.to_pylist(), clean.to_pylist()
    assert [rows[0], rows[2]] == [want[0], want[2]]
    bad = rows[1]
    assert bad["url"] == _MIDDLE and bad["status"] == "error"
    if stage is markdown.convert_markdown:
        assert (bad["markdown"], bad["n_chars"]) == ("", 0)
    elif stage is metadata.extract_metadata:
        for f in metadata.META_FIELDS:
            assert bad[f.name] is (False if f.type == pa.bool_() else None), f.name
    else:
        assert bad["error"].startswith("RuntimeError")
        empty = {
            "title": "",
            "extracted_text": "",
            "spans": [],
            "n_nodes": 0,
            "text_len": 0,
            "text_hash": 0,
            "markdown": "",
        }
        assert {k: bad[k] for k in empty} == empty
        assert want[1]["title"] == "Page 1"  # the error row dropped it
