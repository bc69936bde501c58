"""Per-page head-metadata extraction.

Besides main-content text and outlinks, the third product a crawl pipeline
derives from every page is its head metadata: title, meta description,
canonical URL, Open Graph fields, declared language, and robots directives
(noindex/nofollow).  Canonical URLs feed URL-level dedup (mirror detection
without content comparison), robots meta gates what may enter a corpus,
and og:/description fields are the page's self-description for search and
curation UIs.

``extract_metadata_dataset`` runs ``extract_metadata`` as Ray Data tasks,
the same shape as the extraction and links stages (reference precedent
Sources/Actor.swift:278-405 — parser state private to one worker, value
rows across the boundary): one parse per page (``chtml.parse_page``: C
kernel with per-document Python fallback), then a single O(nodes) arena
scan that stops at the end of ``<head>`` content for the common case
(title/meta/link/og all live there; the scan continues past head only
until every field is filled or the element budget runs out).  Output is
one fixed-width-ish row per page — no row expansion, no shuffle anywhere
in the stage.

Scale notes (100 TB): per-page cost is the parse (shared when composed
with extraction) + a bounded scan; all output columns are capped-length
strings, so blocks stay small even for pathological pages.
"""

from __future__ import annotations

from urllib.parse import urljoin

import pyarrow as pa

from fuzi_rd.chtml import parse_page
from fuzi_rd.dom import ELEMENT
from fuzi_rd.functions.dedup import hash_join

_CAP = 500  # per-field character cap: metadata, not content
_SCAN_BUDGET = 4000  # max elements examined per page

# og: properties surfaced as dedicated columns (the high-traffic subset)
_OG_FIELDS = ("og:title", "og:description", "og:image", "og:type")

# a page's fields before its scan, and an error row's fields
_NO_METADATA = {
    "title": None,
    "meta_description": None,
    "canonical_url": None,
    "lang": None,
    "robots_noindex": False,
    "robots_nofollow": False,
    "og:title": None,
    "og:description": None,
    "og:image": None,
    "og:type": None,
}

_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("title", pa.string()),
        ("meta_description", pa.string()),
        ("canonical_url", pa.string()),
        ("lang", pa.string()),
        ("robots_noindex", pa.bool_()),
        ("robots_nofollow", pa.bool_()),
        ("og_title", pa.string()),
        ("og_description", pa.string()),
        ("og_image", pa.string()),
        ("og_type", pa.string()),
        ("status", pa.string()),
    ]
)


def _page_metadata(arena, url: str) -> dict:
    """One O(min(nodes, budget)) scan; first occurrence of each field wins
    (HTML processing-model order: the browser honors the first title and
    the first canonical)."""
    names = arena.names
    types = arena.types
    attrs = arena.attrs
    dead = arena.dead

    out = dict(_NO_METADATA)
    budget = min(len(types), _SCAN_BUDGET + 1)
    for nid in range(1, budget):
        if dead[nid] or types[nid] != ELEMENT:
            continue
        name = names[nid]
        a = attrs[nid]
        if name == "html" and out["lang"] is None and a:
            lang = a.get("lang")
            if lang:
                out["lang"] = lang.strip()[:35]
        elif name == "title" and out["title"] is None:
            out["title"] = arena.string_value(nid).strip()[:_CAP]
        elif name == "meta" and a:
            key = (a.get("name") or a.get("property") or "").strip().lower()
            content = a.get("content")
            if content is None:
                continue
            if key == "description" and out["meta_description"] is None:
                out["meta_description"] = content.strip()[:_CAP]
            elif key == "robots":
                directives = {
                    d.strip() for d in content.lower().split(",")
                }
                out["robots_noindex"] |= "noindex" in directives or "none" in directives
                out["robots_nofollow"] |= "nofollow" in directives or "none" in directives
            elif key in _OG_FIELDS and out[key] is None:
                out[key] = content.strip()[:_CAP]
        elif name == "link" and out["canonical_url"] is None and a:
            rels = (a.get("rel") or "").lower().split()
            href = a.get("href")
            if "canonical" in rels and href:
                try:
                    out["canonical_url"] = urljoin(url, href.strip())[:_CAP]
                except ValueError:
                    pass
    return out


def extract_metadata(batch: pa.Table) -> pa.Table:
    """Task UDF over (url, html) pages.  Emits exactly one row per page
    (status='error' rows have null fields — same poison-pill contract as
    ExtractPages)."""
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    cols: dict[str, list] = {f.name: [] for f in _SCHEMA}
    for url, raw in zip(urls, htmls):
        try:
            m = _page_metadata(parse_page(raw or b""), url)
            status = "ok"
        except Exception:
            m = _NO_METADATA
            status = "error"
        cols["url"].append(url)
        cols["title"].append(m["title"])
        cols["meta_description"].append(m["meta_description"])
        cols["canonical_url"].append(m["canonical_url"])
        cols["lang"].append(m["lang"])
        cols["robots_noindex"].append(m["robots_noindex"])
        cols["robots_nofollow"].append(m["robots_nofollow"])
        cols["og_title"].append(m["og:title"])
        cols["og_description"].append(m["og:description"])
        cols["og_image"].append(m["og:image"])
        cols["og_type"].append(m["og:type"])
        cols["status"].append(status)
    return pa.table({f.name: pa.array(cols[f.name], f.type) for f in _SCHEMA})


class ExtractMetadata:
    """In-process form of :func:`extract_metadata`:
    ``ExtractMetadata()(batch)``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return extract_metadata(batch)


def extract_metadata_dataset(pages_ds, batch_size: int = 256):
    """Wire :func:`extract_metadata` onto a (url, html) Dataset as Ray Data
    tasks (lazy)."""
    return pages_ds.map_batches(
        extract_metadata, batch_format="pyarrow", batch_size=batch_size
    )


def canonical_dedup_keep(pages_ds, meta_ds=None):
    """URL-level mirror dedup: keep ONE page per canonical URL (the
    lexicographically smallest url wins, deterministic) — catches exact
    mirrors BEFORE content hashing, using only head metadata.

    Pages without a canonical link (or whose canonical equals their own
    url) are keyed by their own url, so they always survive.  The winner
    choice is a (canonical_key -> min(url)) groupby — fixed-width-ish key
    rows on the exchange — followed by a hash-partitioned semi-join of the
    winners back onto the page table, mirroring ``exact_dedup_keep``."""
    import pyarrow.compute as pc

    if meta_ds is None:
        meta_ds = extract_metadata_dataset(pages_ds)

    def key_rows(batch: pa.Table) -> pa.Table:
        url = batch.column("url")
        canon = batch.column("canonical_url")
        key = pc.coalesce(canon, url)
        return pa.table({"canon_key": key, "url": url})

    keys = meta_ds.map_batches(key_rows, batch_format="pyarrow")
    winners = keys.groupby("canon_key").min("url")

    def winner_urls(b: pa.Table) -> pa.Table:
        if b.num_columns != 2:  # schema-less empty aggregate block
            return pa.schema([("url", pa.string())]).empty_table()
        return pa.table({"url": b.column("min(url)")})

    winner_ds = winners.map_batches(winner_urls, batch_format="pyarrow")
    return hash_join(pages_ds, winner_ds, "inner", 16, ("url",))
