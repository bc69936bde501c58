"""fuzi_rd — a Ray-Data-native web-page parse/query/extraction engine.

Reimplements, from scratch in Python, the parse-and-query capabilities of the
reference library kylehughes/Fuzi (a Swift XML/HTML parsing library over
libxml2; see /root/reference), lifted into distributed Ray Data pipelines over
Parquet tables of Common-Crawl-style pages.

Layout:
  css.py          CSS selector -> XPath compiler  (reference Queryable.swift:314-362)
  errors.py       typed error surface             (reference Error.swift:28-48)
  dom.py          arena-allocated DOM             (reference Node/Element object graph)
  xml_parser.py   recovering XML parser (expat)   (reference Document.swift:125-140)
  html_parser.py  tag-soup HTML parser            (reference Document.swift:211-213)
  xpath.py        XPath 1.0 engine                (reference Queryable.swift:259-303)
  doc.py          Document/Element facade         (reference Document/Element/Node.swift)
  serialize.py    raw XML/HTML subtree dump       (reference Node.swift:134-144)
  extract.py      boilerplate-strip heuristics    (north-star payload, not in reference)
  broadcast.py    per-process broadcast state for task UDFs
  stages/         Ray Data map_batches stages (task UDFs)
  sources/        deterministic page-table fixture generators
  functions/      text stats, dedup, similarity-search batch functions
  pipelines/      end-to-end Ray Data pipelines (read -> extract -> write)
"""

from fuzi_rd.css import xpath_from_css
from fuzi_rd.doc import Document, HTMLDocument, parse_html, parse_xml
from fuzi_rd.errors import FuziError, ParseError, QueryError

__all__ = [
    "xpath_from_css",
    "Document",
    "HTMLDocument",
    "parse_html",
    "parse_xml",
    "FuziError",
    "ParseError",
    "QueryError",
]
