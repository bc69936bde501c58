"""Head-metadata extraction stage (fuzi_rd.stages.metadata) and the
canonical-URL mirror dedup built on it."""

from __future__ import annotations

import pyarrow as pa

from fuzi_rd.stages.metadata import (
    ExtractMetadata,
    canonical_dedup_keep,
    extract_metadata_dataset,
)


def _pages(rows) -> pa.Table:
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "html": pa.array(
                [r[1].encode() if isinstance(r[1], str) else r[1] for r in rows],
                pa.binary(),
            ),
        }
    )


_FULL = """<!DOCTYPE html>
<html lang="en-GB">
<head>
<title> The Title </title>
<meta name="description" content="A fine description.">
<meta name="robots" content="NOINDEX, nofollow">
<link rel="stylesheet" href="/s.css">
<link rel="canonical" href="/canonical-path">
<meta property="og:title" content="OG Title">
<meta property="og:description" content="OG Desc">
<meta property="og:image" content="https://cdn.test/i.jpg">
<meta property="og:type" content="article">
</head>
<body><p>body</p></body>
</html>"""


def test_extract_metadata_full_fields():
    stage = ExtractMetadata()
    out = stage(_pages([("https://x.test/a/b", _FULL)]))
    row = out.to_pylist()[0]
    assert row["status"] == "ok"
    assert row["title"] == "The Title"
    assert row["meta_description"] == "A fine description."
    # canonical resolved against the page url
    assert row["canonical_url"] == "https://x.test/canonical-path"
    assert row["lang"] == "en-GB"
    assert row["robots_noindex"] is True
    assert row["robots_nofollow"] is True
    assert row["og_title"] == "OG Title"
    assert row["og_description"] == "OG Desc"
    assert row["og_image"] == "https://cdn.test/i.jpg"
    assert row["og_type"] == "article"


def test_extract_metadata_first_occurrence_wins_and_defaults():
    html = (
        "<html><head><title>first</title><title>second</title>"
        '<link rel="canonical" href="https://a.test/1">'
        '<link rel="canonical" href="https://a.test/2">'
        "</head><body></body></html>"
    )
    stage = ExtractMetadata()
    row = stage(_pages([("https://x.test/", html)])).to_pylist()[0]
    assert row["title"] == "first"
    assert row["canonical_url"] == "https://a.test/1"
    assert row["meta_description"] is None
    assert row["lang"] is None
    assert row["robots_noindex"] is False and row["robots_nofollow"] is False


def test_extract_metadata_robots_none_directive():
    html = '<html><head><meta name="robots" content="none"></head><body></body></html>'
    row = ExtractMetadata()(_pages([("u", html)])).to_pylist()[0]
    assert row["robots_noindex"] is True and row["robots_nofollow"] is True


def test_extract_metadata_empty_page_is_one_row():
    out = ExtractMetadata()(_pages([("u", ""), ("v", "<p>no head</p>")]))
    assert out.num_rows == 2
    rows = out.to_pylist()
    assert all(r["title"] is None for r in rows)


def test_meta_pages_fixture_round_trip(ray_session):
    """The synthesized metadata-rich fixture parses back exactly: titles,
    descriptions, mirror canonicals, robots on every 9th page."""
    import ray

    from fuzi_rd.sources.pages import meta_pages_table

    tbl = meta_pages_table(24)
    ds = ray.data.from_arrow(tbl.select(["url", "html"]))
    out = {
        r["url"]: r
        for r in extract_metadata_dataset(ds).take_all()
    }
    assert len(out) == 24
    r0 = out["https://fixtures.test/meta/00000000"]
    assert r0["title"] == "Meta fixture 0"
    assert r0["og_type"] == "article"
    # even seqs declare the 4k primary as canonical
    r2 = out["https://fixtures.test/meta/00000002"]
    assert r2["canonical_url"] == "https://fixtures.test/meta/00000000"
    # odd seqs have none
    assert out["https://fixtures.test/meta/00000003"]["canonical_url"] is None
    # every 9th page (seq % 9 == 8) is noindex
    assert out["https://fixtures.test/meta/00000008"]["robots_noindex"] is True
    assert out["https://fixtures.test/meta/00000007"]["robots_noindex"] is False


def test_canonical_dedup_keep(ray_session):
    """One survivor per canonical group; pages without canonicals always
    survive; the winner is the lexicographically smallest url."""
    import ray

    from fuzi_rd.sources.pages import meta_pages_table

    tbl = meta_pages_table(16)
    ds = ray.data.from_arrow(tbl.select(["url", "html"]))
    kept = sorted(r["url"] for r in canonical_dedup_keep(ds).take_all())
    # group {4k..4k+3}: even members (4k, 4k+2) share canonical 4k -> the
    # min url 4k survives of those; odd members (4k+1, 4k+3) keyed by own
    # url -> both survive.  3 survivors per block of 4.
    want = sorted(
        f"https://fixtures.test/meta/{s:08d}"
        for s in range(16)
        if s % 4 in (0, 1, 3)
    )
    assert kept == want

    # a metadata side whose first block is empty: the winners still reach
    # every join partition with their key column
    pages = ray.data.from_arrow(
        pa.table({"url": ["a", "b", "c"], "html": [b"x", b"y", b"z"]})
    )
    meta = pa.table(
        {
            "url": ["a", "b", "c"],
            "canonical_url": pa.array([None, "a", None], pa.string()),
        }
    )
    meta_ds = ray.data.from_arrow([meta.schema.empty_table(), meta]).materialize()
    kept = sorted(r["url"] for r in canonical_dedup_keep(pages, meta_ds).take_all())
    assert kept == ["a", "c"]
