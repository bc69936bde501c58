"""XML query stage for structured XML corpora (feeds, sitemaps, metadata
records), run as Ray Data tasks.

The XML twin of ``extract_pages``: each worker process keeps its compiled
XPath ASTs and namespace prefix map warm in a ``functools.lru_cache``, the
Ray analog of the reference's ``XMLActor`` owning parser/query state
(reference Sources/Actor.swift:136-167), driven by the recovering XML
parser instead of the HTML tokenizer.

Recipe values are XPath 1.0 expressions (no CSS here; XML corpora are
queried by path + namespace).  Each named query becomes one output column:
node-set results are stringValue-joined with "\n" (document order, matching
NodeSet ordering, reference Sources/NodeSet.swift:26-99); scalar results are
stringified.  A per-pipeline ``prefixes`` dict mirrors
``XMLDocument.definePrefix`` (reference Sources/Document.swift:162-175).
"""

from __future__ import annotations

import functools

import pyarrow as pa

from fuzi_rd.xml_parser import parse_xml_bytes
from fuzi_rd.xpath import compile_xpath, recipe_value


class QueryXml:
    """In-process callable: ``QueryXml(recipe, prefixes)(batch)``.  Use
    :func:`query_xml_dataset` to run it over a Dataset.

    Input: ``key`` column (passthrough) + ``xml`` binary column.
    Output: key, one large_string column per recipe entry, status, error.
    """

    def __init__(
        self,
        recipe: dict[str, str],
        prefixes: dict[str, str] | None = None,
        key: str = "doc_id",
        xml_col: str = "xml",
    ):
        self.recipe = {name: compile_xpath(xp) for name, xp in recipe.items()}
        self.prefixes = dict(prefixes or {})
        self.key = key
        self.xml_col = xml_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.key)
        blobs = batch.column(self.xml_col).to_pylist()
        n = len(blobs)
        cols = {name: [""] * n for name in self.recipe}
        status = ["ok"] * n
        error = [""] * n
        for i, raw in enumerate(blobs):
            try:
                arena = parse_xml_bytes(raw or b"")
                for name, ast in self.recipe.items():
                    cols[name][i] = recipe_value(ast, arena, self.prefixes)
            except Exception as exc:  # poison-pill tolerance
                status[i] = "error"
                error[i] = f"{type(exc).__name__}: {exc}"[:500]
        out = {self.key: keys}
        for name, values in cols.items():
            out[name] = pa.array(values, pa.large_string())
        out["status"] = pa.array(status, pa.string())
        out["error"] = pa.array(error, pa.string())
        return pa.table(out)


@functools.lru_cache(maxsize=8)
def _warm_query(recipe: tuple, prefixes: tuple) -> QueryXml:
    """This worker process's compiled ``QueryXml`` for one recipe."""
    return QueryXml(dict(recipe), dict(prefixes))


def query_xml(batch: pa.Table, recipe: tuple, prefixes: tuple) -> pa.Table:
    """Task UDF: run the process-warm ``QueryXml`` for this recipe over
    (doc_id, xml) rows."""
    return _warm_query(recipe, prefixes)(batch)


def query_xml_dataset(ds, recipe: dict[str, str], prefixes: dict[str, str] | None = None):
    """Wire :func:`query_xml` onto a (doc_id, xml) Dataset as Ray Data tasks
    (lazy)."""
    return ds.map_batches(
        query_xml,
        fn_kwargs={
            "recipe": tuple(recipe.items()),
            "prefixes": tuple((prefixes or {}).items()),
        },
        batch_size=64,
        batch_format="pyarrow",
    )


def synth_feed_table(n_rows: int, start: int = 0) -> pa.Table:
    """Deterministic Atom-flavored feed corpus for the XML pipeline demo
    (namespaces + dates, modeled on the reference's atom.xml fixture)."""
    ids, xmls = [], []
    for i in range(start, start + n_rows):
        entries = []
        for j in range(1 + i % 4):
            entries.append(
                f"""  <entry>
    <title>Entry {i}-{j}</title>
    <id>urn:uuid:feed-{i}-entry-{j}</id>
    <updated>2026-01-{(j % 27) + 1:02d}T{(i % 24):02d}:30:02Z</updated>
    <dc:creator>author-{(i + j) % 7}</dc:creator>
    <summary>Summary text {i} {j} with &amp;entities and more.</summary>
  </entry>"""
            )
        xml = f"""<?xml version="1.0" encoding="utf-8"?>
<feed xmlns="http://www.w3.org/2005/Atom" xmlns:dc="http://purl.org/dc/elements/1.1/">
  <title>Feed number {i}</title>
  <updated>2026-02-{(i % 27) + 1:02d}T18:30:02Z</updated>
{chr(10).join(entries)}
</feed>"""
        ids.append(i)
        xmls.append(xml.encode("utf-8"))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "xml": pa.array(xmls, pa.binary()),
        }
    )
