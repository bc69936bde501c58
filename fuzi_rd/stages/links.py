"""Link extraction + the domain-level web graph.

The webgraph is the other first-class product of a crawl besides the text:
outlinks drive crawl frontier ranking, spam/SEO-farm detection, and
PageRank-style quality priors for corpus curation.

``_page_links`` flat-scans the arena for anchor elements and resolves
their hrefs against the page url (honoring ``<base href>``).  It is the
``LINKS`` product of the shared page loop (``stages/products.py``), which
parses each page once with ``chtml.parse_page`` and catches a failing
page (it has no edges); ``extract_links`` explodes the ``links`` column
into ROW-EXPANDING (src_url, dst_url, anchor, nofollow) rows with the
same Arrow flatten as :func:`links_from_extracted`.
``extract_links_dataset`` runs it as Ray Data tasks, no shuffle.

``link_graph`` rolls the edge list up to registered-domain granularity:
vectorized host/domain extraction, then one groupby on (src_domain,
dst_domain) — the only exchange, carrying fixed-width-ish domain pairs,
never page HTML.

Scale notes (100 TB): ``DEFAULT_MAX_LINKS`` caps row expansion (link
farms publish 10k+ anchors per page; the cap bounds both batch memory and
the groupby's skew).  Per-page work is one parse (shared with extraction
when composed) + one O(nodes) scan.
"""

from __future__ import annotations

from urllib.parse import urljoin, urlsplit

import pyarrow as pa

from fuzi_rd.dom import ELEMENT
from fuzi_rd.stages.products import Product, explode, run_products

DEFAULT_MAX_LINKS = 1000
_KEEP_SCHEMES = ("http", "https")


def _page_links(arena, base_url: str, max_links: int) -> list[tuple[str, str, bool]]:
    """(dst_url, anchor_text, nofollow) for each anchor, in document order.

    Resolution: first ``<base href>`` wins (HTML semantics), else the page
    url.  Only http(s) results are kept — mailto:/javascript:/data: are
    not crawl edges.  Anchor text is the element's string-value, capped.
    """
    names = arena.names
    types = arena.types
    attrs = arena.attrs
    dead = arena.dead

    base = base_url
    out: list[tuple[str, str, bool]] = []
    for nid in range(1, len(types)):
        if dead[nid] or types[nid] != ELEMENT:
            continue
        name = names[nid]
        if name == "base" and base is base_url:
            a = attrs[nid]
            href = a.get("href") if a else None
            if href:
                base = urljoin(base_url, href.strip())
            continue
        if name != "a":
            continue
        a = attrs[nid]
        href = a.get("href") if a else None
        if not href:
            continue
        try:
            dst = urljoin(base, href.strip())
            scheme = urlsplit(dst).scheme.lower()
        except ValueError:
            continue
        if scheme not in _KEEP_SCHEMES:
            continue
        rel = (a.get("rel") or "").lower()
        anchor = arena.string_value(nid).strip()[:200]
        out.append((dst, anchor, "nofollow" in rel.split()))
        if len(out) >= max_links:
            break
    return out


# a page's resolved outlinks, capped at DEFAULT_MAX_LINKS
_EDGE = pa.struct(
    [("dst_url", pa.string()), ("anchor", pa.large_string()), ("nofollow", pa.bool_())]
)
LINKS = Product(
    (pa.field("links", pa.list_(_EDGE)),),
    lambda arena, url: (_page_links(arena, url, DEFAULT_MAX_LINKS),),
    ((),),
)


def extract_links(batch: pa.Table) -> pa.Table:
    """Task UDF over (url, html) pages.  Emits one row per kept anchor:
    (src_url, dst_url, anchor, nofollow); a page that fails has no edges
    (poison-pill tolerance for a row-expanding stage)."""
    got = run_products(batch, [LINKS])
    return explode(got["url"], got["links"], "src_url")


def extract_links_dataset(pages_ds, batch_size: int = 256):
    """Wire :func:`extract_links` onto a (url, html) Dataset as Ray Data
    tasks (lazy)."""
    return pages_ds.map_batches(
        extract_links, batch_format="pyarrow", batch_size=batch_size
    )


def links_from_extracted(extracted_ds):
    """Flatten the fused ``links`` column emitted by
    ``ExtractPages(emit_links=True)`` into the standalone edge-list schema
    (src_url, dst_url, anchor, nofollow) with :func:`extract_links`' own
    Arrow flatten — row-identical to :func:`extract_links_dataset` over
    the same pages (pinned by test), but WITHOUT a second HTML parse.  Feed
    it to :func:`link_graph` / ``domain_components`` / ``pagerank``."""

    def _flat(batch: pa.Table) -> pa.Table:
        return explode(batch.column("url"), batch.column("links"), "src_url")

    return extracted_ds.map_batches(_flat, batch_format="pyarrow")


def link_graph(links_ds, drop_nofollow: bool = True, drop_self: bool = True):
    """Domain-level edge weights from a (src_url, dst_url, nofollow) edge
    list: (src_domain, dst_domain, n_links).  One groupby exchange on the
    domain pair; hosts/domains are extracted vectorized per batch."""
    import pyarrow.compute as pc

    from fuzi_rd.functions.urltools import extract_hosts, registered_domains

    def to_domains(batch: pa.Table) -> pa.Table:
        if drop_nofollow:
            batch = batch.filter(pc.invert(batch.column("nofollow")))
        s = registered_domains(extract_hosts(batch.column("src_url")))
        d = registered_domains(extract_hosts(batch.column("dst_url")))
        out = pa.table({"src_domain": s, "dst_domain": d})
        if drop_self:
            out = out.filter(
                pc.invert(
                    pc.equal(out.column("src_domain"), out.column("dst_domain"))
                )
            )
        return out

    edges = links_ds.map_batches(to_domains, batch_format="pyarrow")
    return edges.groupby(["src_domain", "dst_domain"]).count()


def anchor_text_rollup(links_ds, min_count: int = 2, max_anchor_chars: int = 80):
    """What the web calls each destination: (dst_domain, anchor, n_links)
    for every anchor string used at least ``min_count`` times toward a
    domain — the classic anchor-text signal for search relevance and
    SEO-spam detection (a domain whose inbound anchors are all 'cheap
    pills' tells you something its own pages don't).

    Scale shape: anchors are normalized (lowercase, whitespace-collapsed,
    length-capped) inside ``map_batches``, then ONE groupby on the
    (domain, anchor) pair; the exchange carries short capped strings.
    ``min_count`` prunes the long tail at the output, not the shuffle —
    at crawl scale add a per-batch pre-count combiner if the tail
    dominates (same pattern as ``token_counts``)."""
    import pyarrow.compute as pc

    from fuzi_rd.functions.urltools import extract_hosts, registered_domains

    def normalize(batch: pa.Table) -> pa.Table:
        dst = registered_domains(extract_hosts(batch.column("dst_url")))
        anchor = pc.utf8_slice_codeunits(
            pc.replace_substring_regex(
                pc.utf8_trim_whitespace(
                    pc.utf8_lower(batch.column("anchor"))
                ),
                r"\s+",
                " ",
            ),
            0,
            max_anchor_chars,
        )
        # anchors arrive large_string; the rollup key is a capped short
        # string — cast so empty and non-empty blocks agree on schema
        out = pa.table(
            {"dst_domain": dst, "anchor": pc.cast(anchor, pa.string())}
        )
        return out.filter(pc.not_equal(out.column("anchor"), ""))

    counts = links_ds.map_batches(normalize, batch_format="pyarrow").groupby(
        ["dst_domain", "anchor"]
    ).count()

    def finalize(b: pa.Table) -> pa.Table:
        want = pa.schema(
            [
                ("dst_domain", pa.string()),
                ("anchor", pa.string()),
                ("n_links", pa.int64()),
            ]
        )
        if b.num_columns != 3:  # schema-less empty aggregate block
            return want.empty_table()
        b = b.rename_columns(["dst_domain", "anchor", "n_links"])
        return b.filter(pc.greater_equal(b.column("n_links"), min_count))

    return counts.map_batches(finalize, batch_format="pyarrow")
