"""Per-page head-metadata extraction.

Besides main-content text and outlinks, the third product a crawl pipeline
derives from every page is its head metadata: title, meta description,
canonical URL, Open Graph fields, declared language, and robots directives
(noindex/nofollow).  Canonical URLs feed URL-level dedup (mirror detection
without content comparison), robots meta gates what may enter a corpus,
and og:/description fields are the page's self-description for search and
curation UIs.

The ten metadata columns are declared once, in ``META_FIELDS``.
``_page_metadata`` fills them from one arena scan capped by an element
budget (title/meta/link/og all live in ``<head>``).  It is the
``METADATA`` product of the shared page loop (``stages/products.py``),
which parses each page once with ``chtml.parse_page``, catches a failing
page and builds the columns; ``extract_metadata_dataset`` runs that loop
as Ray Data tasks.  Output is one fixed-width-ish row per page — no row
expansion, no shuffle anywhere in the stage.

Scale notes (100 TB): per-page cost is the parse (shared when composed
with extraction) + a bounded scan; all output columns are capped-length
strings, so blocks stay small even for pathological pages.
"""

from __future__ import annotations

from urllib.parse import urljoin

import pyarrow as pa

from fuzi_rd.dom import ELEMENT
from fuzi_rd.functions.dedup import min_per_key, semi_join
from fuzi_rd.stages.products import Product, run_products

_CAP = 500  # per-field character cap: metadata, not content
_SCAN_BUDGET = 4000  # max elements examined per page

# og: properties surfaced as dedicated columns (the high-traffic subset)
_OG_FIELDS = ("og:title", "og:description", "og:image", "og:type")

# The ten head-metadata columns, declared once: ``extract_metadata``
# emits them under these names, ``ExtractPages(emit_metadata=True)`` as
# ``FUSED_META_FIELDS``, where a one-word name takes a ``meta_`` prefix
# (``meta_title``, ``meta_lang``) beside the page's own ``title``.
META_FIELDS = (
    pa.field("title", pa.string()),
    pa.field("meta_description", pa.string()),
    pa.field("canonical_url", pa.string()),
    pa.field("lang", pa.string()),
    pa.field("robots_noindex", pa.bool_()),
    pa.field("robots_nofollow", pa.bool_()),
    pa.field("og_title", pa.string()),
    pa.field("og_description", pa.string()),
    pa.field("og_image", pa.string()),
    pa.field("og_type", pa.string()),
)
FUSED_META_FIELDS = tuple(
    f if "_" in f.name else f.with_name("meta_" + f.name) for f in META_FIELDS
)

# a page's values before its scan, and an error row's values
_NO_METADATA = tuple(False if f.type == pa.bool_() else None for f in META_FIELDS)
_META_NAMES = tuple(f.name for f in META_FIELDS)


def _page_metadata(arena, url: str) -> tuple:
    """The page's ``META_FIELDS`` values, in order, from one
    O(min(nodes, budget)) scan; first occurrence of each field wins (HTML
    processing-model order: the browser honors the first title and the
    first canonical)."""
    names = arena.names
    types = arena.types
    attrs = arena.attrs
    dead = arena.dead

    out = dict(zip(_META_NAMES, _NO_METADATA))
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
            elif key in _OG_FIELDS and out[key.replace(":", "_")] is None:
                out[key.replace(":", "_")] = content.strip()[:_CAP]
        elif name == "link" and out["canonical_url"] is None and a:
            rels = (a.get("rel") or "").lower().split()
            href = a.get("href")
            if "canonical" in rels and href:
                try:
                    out["canonical_url"] = urljoin(url, href.strip())[:_CAP]
                except ValueError:
                    pass
    return tuple(out.values())


# _page_metadata is looked up per call, so a test can substitute it
METADATA = Product(
    META_FIELDS, lambda arena, url: _page_metadata(arena, url), _NO_METADATA
)


def extract_metadata(batch: pa.Table) -> pa.Table:
    """Task UDF over (url, html) pages.  Emits exactly one row per page; a
    page that fails is a status='error' row with null fields."""
    got = run_products(batch, [METADATA])
    return pa.table({name: got[name] for name in ("url", *_META_NAMES, "status")})


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
    rows on the exchange (``dedup.min_per_key``) — followed by a
    hash-partitioned ``semi_join`` of the winners back onto the page table,
    mirroring ``exact_dedup_keep``."""
    import pyarrow.compute as pc

    if meta_ds is None:
        meta_ds = extract_metadata_dataset(pages_ds)

    def key_rows(batch: pa.Table) -> pa.Table:
        url = batch.column("url")
        key = pc.coalesce(batch.column("canonical_url"), url)
        return pa.table({"canon_key": key, "url": url})

    keys = meta_ds.map_batches(key_rows, batch_format="pyarrow")
    winners = min_per_key(keys, "canon_key", "url", pa.string())
    return semi_join(pages_ds, winners, "url", 16)
