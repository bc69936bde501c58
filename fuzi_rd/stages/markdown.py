"""HTML -> Markdown conversion stage.

The second text product (after density-stripped plain text) an LLM
pretraining pipeline derives from a crawl: structure-preserving markdown
— headings, lists, links, emphasis, code blocks, tables — so downstream
models see document structure instead of a flattened blob.

``render_markdown`` is a deterministic, recursion-free renderer over the
arena DOM (same arena the extractor and XPath engine use; reference
text-content precedent Sources/Node.swift:126-131 — this stage is the
structured sibling of ``stringValue``).  It is the ``MARKDOWN`` product of
the shared page loop (``stages/products.py``), which parses, catches a
failing page and builds the columns; ``markdown_dataset`` runs that loop
as Ray Data tasks (``convert_markdown``).

Scale notes (100 TB): one parse + one O(nodes) walk per page, output one
row per page, no row expansion, no shuffle.  The renderer uses an explicit
enter/exit stack, so 1000-deep pathological nesting can't hit the Python
recursion limit (SURVEY.md §7 "very wide/deep pages").
"""

from __future__ import annotations

import re
from urllib.parse import urljoin

import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.dom import COMMENT, ELEMENT, PI, TEXT
from fuzi_rd.stages.products import Product, run_products

_WS = re.compile(r"\s+")

# subtrees that never contribute content
_SKIP = frozenset(
    "script style noscript template head iframe svg object embed".split()
)
# elements that end a paragraph-level block on close
_BLOCK = frozenset(
    "p div section article main aside header footer nav figure figcaption "
    "ul ol table blockquote pre h1 h2 h3 h4 h5 h6 hr dl dd dt".split()
)
_HEADING = {"h1": 1, "h2": 2, "h3": 3, "h4": 4, "h5": 5, "h6": 6}


def render_markdown(arena, base_url: str = "") -> str:
    """Render the arena DOM to markdown, deterministically.

    Supported structure: ATX headings, paragraphs/blank-line blocks,
    nested -/N. lists, [text](href) links (<base href>-aware), images,
    **bold** / *italic*, `code` and ``` fenced pre blocks, > blockquotes,
    | pipe | tables, --- rules.  Text whitespace collapses except inside
    <pre>.  No markdown escaping of source text (documented tradeoff:
    byte-faithful text beats re-parseability for corpus work)."""
    out: list[str] = []
    names = arena.names
    types = arena.types
    attrs = arena.attrs
    dead = arena.dead
    first_child = arena.first_child

    # resolve <base href> once (first wins, like the metadata stage)
    base = base_url
    for nid in range(1, min(len(types), 500)):
        if types[nid] == ELEMENT and names[nid] == "base":
            href = (attrs[nid] or {}).get("href")
            if href:
                try:
                    base = urljoin(base_url, href.strip())
                except ValueError:
                    pass
            break

    pre_depth = 0
    list_stack: list[list] = []  # ["ul"] or ["ol", counter]
    link_stack: list[str | None] = []
    quote_marks: list[int] = []  # out-index where a blockquote began

    def children(nid: int) -> list[int]:
        kids = []
        c = first_child[nid]
        while c != -1:
            kids.append(c)
            c = arena.next_sib[c]
        return kids

    def blankline() -> None:
        # ensure exactly one blank line separates blocks
        joined = "".join(out[-4:]) if out else ""
        if out and not joined.endswith("\n\n"):
            out.append("\n" if joined.endswith("\n") else "\n\n")

    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        nid, exited = stack.pop()
        t = types[nid] if nid else ELEMENT
        if not exited:
            if nid and dead[nid]:
                continue
            if t == TEXT:
                text = arena.texts[nid] or ""
                if pre_depth:
                    out.append(text)
                else:
                    collapsed = _WS.sub(" ", text)
                    if collapsed.strip():
                        # leading space only if mid-line
                        if out and out[-1].endswith(("\n", " ")) or not out:
                            collapsed = collapsed.lstrip()
                        out.append(collapsed)
                    elif collapsed and out and not out[-1].endswith((" ", "\n")):
                        out.append(" ")
                continue
            if t in (COMMENT, PI):
                continue
            if t != ELEMENT and nid:
                continue
            name = names[nid] if nid else None
            if name in _SKIP:
                continue
            # open handlers
            if name in _HEADING:
                blankline()
                out.append("#" * _HEADING[name] + " ")
            elif name in ("ul", "ol"):
                if not list_stack:
                    blankline()
                list_stack.append([name, 0])
            elif name == "li":
                if out and not out[-1].endswith("\n"):
                    out.append("\n")
                depth = max(0, len(list_stack) - 1)
                if list_stack and list_stack[-1][0] == "ol":
                    list_stack[-1][1] += 1
                    out.append("  " * depth + f"{list_stack[-1][1]}. ")
                else:
                    out.append("  " * depth + "- ")
            elif name == "pre":
                blankline()
                out.append("```\n")
                pre_depth += 1
            elif name == "code" and not pre_depth:
                out.append("`")
            elif name in ("strong", "b"):
                out.append("**")
            elif name in ("em", "i"):
                out.append("*")
            elif name == "a":
                href = (attrs[nid] or {}).get("href")
                if href:
                    try:
                        href = urljoin(base, href.strip())
                    except ValueError:
                        href = None
                link_stack.append(href)
                out.append("[")
            elif name == "img":
                a = attrs[nid] or {}
                src = (a.get("src") or "").strip()
                if src:
                    try:
                        src = urljoin(base, src)
                    except ValueError:
                        pass
                    out.append(f"![{_WS.sub(' ', a.get('alt') or '').strip()}]({src})")
                continue  # void: no children, no close
            elif name == "br":
                out.append("\n")
                continue
            elif name == "hr":
                blankline()
                out.append("---")
                blankline()
                continue
            elif name == "blockquote":
                blankline()
                quote_marks.append(len(out))
            elif name in ("td", "th"):
                out.append("| ")
            elif name in _BLOCK or name == "body":
                blankline()
            stack.append((nid, True))
            for kid in reversed(children(nid)):
                stack.append((kid, False))
        else:
            name = names[nid] if nid else None
            # close handlers
            if name in _HEADING:
                out.append("\n\n")
            elif name in ("ul", "ol"):
                if list_stack:
                    list_stack.pop()
                if not list_stack:
                    out.append("\n\n")
            elif name == "pre":
                pre_depth = max(0, pre_depth - 1)
                if out and not out[-1].endswith("\n"):
                    out.append("\n")
                out.append("```\n\n")
            elif name == "code" and not pre_depth:
                out.append("`")
            elif name in ("strong", "b"):
                out.append("**")
            elif name in ("em", "i"):
                out.append("*")
            elif name == "a":
                href = link_stack.pop() if link_stack else None
                if href:
                    out.append(f"]({href})")
                else:
                    # no target: drop the bracket we opened
                    for i in range(len(out) - 1, -1, -1):
                        if out[i] == "[":
                            del out[i]
                            break
            elif name == "blockquote":
                mark = quote_marks.pop() if quote_marks else 0
                seg = "".join(out[mark:]).strip("\n")
                del out[mark:]
                if seg:
                    out.append(
                        "\n".join(
                            "> " + ln if ln.strip() else ">"
                            for ln in seg.split("\n")
                        )
                    )
                out.append("\n\n")
            elif name in ("td", "th"):
                out.append(" ")
            elif name == "tr":
                out.append("|\n")
            elif name == "table":
                out.append("\n")
            elif name in _BLOCK:
                out.append("\n\n")

    md = "".join(out)
    md = re.sub(r"[ \t]+\n", "\n", md)
    md = re.sub(r"\n{3,}", "\n\n", md)
    return md.strip()


# a page's markdown; it reads the arena before the boilerplate kill
MARKDOWN = Product(
    (pa.field("markdown", pa.large_string()),),
    lambda arena, url: (render_markdown(arena, base_url=url or ""),),
    ("",),
)


def convert_markdown(batch: pa.Table) -> pa.Table:
    """Task UDF over (url, html) pages: one markdown row per page; a page
    that fails is a status='error' row with empty markdown."""
    got = run_products(batch, [MARKDOWN])
    md = got["markdown"]
    return pa.table(
        {
            "url": got["url"],
            "markdown": md,
            "n_chars": pc.utf8_length(md),
            "status": got["status"],
        }
    )


class ConvertMarkdown:
    """In-process form of :func:`convert_markdown`:
    ``ConvertMarkdown()(batch)``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return convert_markdown(batch)


def markdown_dataset(pages_ds, batch_size: int = 128):
    """Wire :func:`convert_markdown` onto a (url, html) Dataset as Ray Data
    tasks (lazy)."""
    return pages_ds.map_batches(
        convert_markdown, batch_format="pyarrow", batch_size=batch_size
    )
