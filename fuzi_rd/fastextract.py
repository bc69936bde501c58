"""Batched main-content extraction over the raw C parse-kernel arrays — no
Python-Arena marshalling.

The flagship extraction job (parse -> kill boilerplate -> density keep ->
text+spans) never needs the Python Arena, which only stages that answer
XPath/CSS recipes or render markdown/metadata/links read.  This module
computes EXACTLY the `fuzi_rd.extract` result straight from the kernel's
flat int32 arrays, through two kernel entry points:

  - ``add`` runs ``chtml_parse`` per document, pointed at ``base`` offsets
    of batch-wide node/piece/attr buffers (no per-doc copy);
  - ``finish`` runs ``chtml_extract_batch`` (``_chtml.c``) once over the
    whole batch: per document one linear pass makes the pre-kill title, the
    kill list and its effective-dead cover, the live block candidates, the
    text/tag/link counts, the integer TD/LD keep rule, and the kept text
    with its UTF-8 byte spans and ``name[rank]`` paths.  The tag sets and
    thresholds come from ``fuzi_rd.extract``; the rare entity-escaped piece
    is unescaped here once per distinct segment (``html.unescape`` is the
    authority) and handed to C as UTF-8.  The text, title and path columns
    are built zero-copy from the kernel's output buffers (the source bytes
    are valid UTF-8 by the decode contract of chtml.to_utf8_buf).

Byte-identity with the reference pipeline (parse_html_bytes ->
kill_boilerplate_nodes -> extract_main_content) is pinned by
tests/test_fastextract.py (differential over goldens, synthesized crawl
pages, the fuzz generator, and adversarial corners).  Docs `add` does not
accept (a decline or a ParseError) are not this module's: the caller
answers them with its Python path, which parses through
`chtml.parse_page`.  Kernel arrays that break the parser's preorder
contract (a kernel bug) make ``finish`` raise, and the caller redoes the
whole batch in Python — output is identical either way.

Reference parity anchor: the extraction spec lives in fuzi_rd/extract.py
(SURVEY.md §2.8); this module is an execution strategy for it, not a new
operator.
"""

from __future__ import annotations

import ctypes
import zlib
from html import unescape

import numpy as np
import pyarrow as pa

from fuzi_rd import chtml
from fuzi_rd.errors import ParseError
from fuzi_rd.extract import BLOCK_TAGS, KILL_TAGS, LD_DEN, LD_NUM, TD_DEN, TD_NUM

# piece-flag bits (contract with _chtml.c, mirrored from chtml marshalling)
_PF_UNESCAPE = 1
_PF_LT = 2

_N_NODE_ARRS = 10  # types parents fc lc ns ps sub_end name0 name1 nflags
_I_TYPES, _I_END = 0, 6
_N_PIECE_ARRS = 4  # pn p0 p1 pf

# element-class bits of chtml_extract_batch (contract with _chtml.c EC_*)
_EC_A, _EC_BASE = 4, 64


def _class_table() -> tuple[bytes, bytes]:
    bits: dict[str, int] = {}
    for names, bit in (
        (KILL_TAGS, 1), (BLOCK_TAGS, 2), (("a",), _EC_A), (("body",), 8),
        (("head",), 16), (("title",), 32), (("base",), _EC_BASE),
    ):
        for name in sorted(names):
            bits[name] = bits.get(name, 0) | bit
    return " ".join(bits).encode("ascii"), bytes(bits.values())


_CLASS_NAMES, _CLASS_BITS = _class_table()
_RULE = np.array([TD_NUM, TD_DEN, LD_NUM, LD_DEN], dtype=np.int64)


def _ptr(a: np.ndarray) -> int:
    return a.ctypes.data


class BatchExtractor:
    """Accumulate C parses for one Arrow batch, then extract all docs in one
    kernel pass.  Usage per batch:

        bx.reset()
        for raw in htmls: ok = bx.add(raw)   # False -> caller falls back
        results = bx.finish()                # dict of per-doc outputs

    `add` raises ParseError exactly like the Python parser (empty input /
    no root); the caller turns that into an error row as before.  Reusable
    across batches (buffers persist per worker process)."""

    def __init__(self, node_cap: int = 1 << 16, piece_cap: int = 1 << 16):
        self._alloc(node_cap, piece_cap, 1 << 14)
        self._counts = np.zeros(8, dtype=np.int32)
        self._counts_ptr = self._counts.ctypes.data
        self.reset()

    def _alloc(self, node_cap: int, piece_cap: int, attr_cap: int):
        self._node_cap = node_cap
        self._piece_cap = piece_cap
        self._attr_cap = attr_cap
        self._nodes = [np.empty(node_cap, dtype=np.int32) for _ in range(_N_NODE_ARRS)]
        self._pieces = [np.empty(piece_cap, dtype=np.int32) for _ in range(_N_PIECE_ARRS)]
        # attrs accumulate like nodes/pieces (read by finish_links; the
        # kernel writes them either way): an k0 k1 v0 v1 flags
        self._attrs = [np.empty(attr_cap, dtype=np.int32) for _ in range(6)]
        self._node_ptrs = [a.ctypes.data for a in self._nodes]
        self._piece_ptrs = [a.ctypes.data for a in self._pieces]
        self._attr_ptrs = [a.ctypes.data for a in self._attrs]
        self._node_table = (ctypes.c_void_p * _N_NODE_ARRS)(*self._node_ptrs)
        self._piece_table = (ctypes.c_void_p * _N_PIECE_ARRS)(*self._piece_ptrs)

    def _grow(self, need_nodes: int, need_pieces: int, need_attrs: int):
        nc, pc, ac = self._node_cap, self._piece_cap, self._attr_cap
        while nc < need_nodes:
            nc *= 2
        while pc < need_pieces:
            pc *= 2
        while ac < need_attrs:
            ac *= 2
        old_n, old_p, old_a = self._nodes, self._pieces, self._attrs
        used_n, used_p, used_a = self._node_base, self._piece_base, self._attr_base
        self._alloc(nc, pc, ac)
        for dst, src in zip(self._nodes, old_n):
            dst[:used_n] = src[:used_n]
        for dst, src in zip(self._pieces, old_p):
            dst[:used_p] = src[:used_p]
        for dst, src in zip(self._attrs, old_a):
            dst[:used_a] = src[:used_a]

    def reset(self):
        # per-batch accumulation state
        self._node_base = 0
        self._piece_base = 0
        self._attr_base = 0
        self._buf = bytearray()
        self._docs: list[tuple[int, int, int, int, int, int, int, int]] = []
        # (node_base, nn, piece_base, npc, buf_base, root, attr_base, na)
        self._fin = None  # finish() stash for finish_links()

    def add(self, data, encoding: str | None = None) -> bool:
        """Parse one document into the batch buffers.  Returns False when
        the kernel declines (caller must handle the doc via the Python
        path); raises ParseError for empty input / no root element."""
        buf, self.declared = chtml.to_utf8_buf(data, encoding)
        n = len(buf)
        lib = chtml._lib
        if lib is None:
            if not chtml.available():
                return False
            lib = chtml._lib
        nb, pb, ab = self._node_base, self._piece_base, self._attr_base
        for _ in range(10):
            ptrs = (
                [p + nb * 4 for p in self._node_ptrs]
                + [self._node_cap - nb]
                + [p + pb * 4 for p in self._piece_ptrs]
                + [self._piece_cap - pb]
                + [p + ab * 4 for p in self._attr_ptrs]
                + [self._attr_cap - ab]
                + [self._counts_ptr]
            )
            rc = lib.chtml_parse(buf, n, *ptrs)
            if rc == 0:
                break
            # capacity: grow whichever could have overflowed (the kernel
            # reports only "didn't fit")
            self._grow(
                nb + max(n, 64) * 2 + 64,
                pb + max(n, 64) * 2 + 64,
                ab + max(n, 64) + 64,
            )
        else:
            return False
        c = self._counts
        if c[4]:
            return False  # semantic corner: Python parser decides
        nn, npc, na, root = int(c[0]), int(c[1]), int(c[2]), int(c[3])
        if root < 0:
            raise ParseError("parserFailure: no root element")
        self._docs.append((nb, nn, pb, npc, len(self._buf), root, ab, na))
        self._node_base = nb + nn
        self._piece_base = pb + npc
        self._attr_base = ab + na
        self._buf += buf
        return True

    # ------------------------------------------------------------------
    def finish(self, emit_spans: bool = True) -> dict:
        """Extraction over everything added since reset(), in one kernel
        call (``chtml_extract_batch``).

        Returns per-doc outputs (docs indexed in add() order):
          text_buf: uint8[T]          ALL docs' extracted utf-8, concatenated
          text_off: int64[D+1]        doc d's text = text_buf[off[d]:off[d+1]]
          title: large_string[D]
          text_chars: int64[D]        len(extracted_text) in characters
          text_hash: int64[D]         crc32 of the doc's utf-8 text
          n_nodes: int64[D]
          span_counts: int64[D], span_paths: string (flat, doc-major),
          span_starts/span_ends: int64 (flat, doc-major)

        Raises RuntimeError if the kernel arrays break the parser's preorder
        contract (kernel bug — caller redoes the batch in Python).
        """
        D = len(self._docs)
        N = self._node_base
        docs = np.array(self._docs, dtype=np.int64).reshape(D, 8)
        ent_piece, ent_off, ent_buf = self._entities(docs)
        src = np.frombuffer(self._buf, dtype=np.uint8)
        # every kept piece is copied once, plus one "\n" per kept block
        bound = len(src) + len(ent_buf)
        text, titles = np.empty(bound + N, np.uint8), np.empty(bound, np.uint8)
        text_off, title_off = np.empty(D + 1, np.int64), np.empty(D + 1, np.int64)
        text_chars, span_counts = np.empty(D, np.int64), np.empty(D, np.int64)
        starts, ends = np.empty(N, np.int64), np.empty(N, np.int64)
        path_off, need = np.empty(N + 1, np.int32), np.zeros(1, np.int64)
        cls = np.empty(N, np.uint8)
        ptr, path_cap = _ptr, 48 * N
        while True:
            paths = np.empty(path_cap, np.uint8)
            rc = chtml._lib.chtml_extract_batch(
                D, ptr(docs), ptr(src), self._node_table, self._piece_table,
                len(ent_piece), ptr(ent_piece), ptr(ent_off), ent_buf,
                _CLASS_NAMES, len(_CLASS_NAMES), _CLASS_BITS, ptr(_RULE),
                ptr(cls), ptr(text), len(text), ptr(text_off),
                ptr(text_chars), ptr(span_counts), ptr(starts), ptr(ends), N,
                ptr(paths), path_cap, ptr(path_off), ptr(need), ptr(titles),
                len(titles), ptr(title_off),
            )
            if rc != 1:
                break
            path_cap = int(need[0])  # deep trees: rerun with room for the paths
        del src  # release the export of self._buf
        if rc:
            raise RuntimeError("fastextract: kernel arrays break the preorder contract")
        self._fin = (docs, cls)
        S = int(span_counts.sum()) if emit_spans else 0
        if not emit_spans:
            span_counts[:] = 0
        # right-sized copies: the columns keep their buffers alive, and the
        # capacities above are bounds (the source size, 48 bytes a node)
        text = text[: text_off[-1]].copy()
        titles = titles[: title_off[-1]].copy()
        paths = paths[: path_off[S]].copy()
        view, off = memoryview(text), text_off.tolist()
        return {
            "text_buf": text,
            "text_off": text_off,
            "title": pa.Array.from_buffers(
                pa.large_utf8(), D, [None, pa.py_buffer(title_off), pa.py_buffer(titles)]
            ),
            "text_chars": text_chars,
            "text_hash": np.array(
                [zlib.crc32(view[off[d] : off[d + 1]]) for d in range(D)], np.int64
            ),
            "n_nodes": docs[:, 1] - 1,
            "span_counts": span_counts,
            "span_paths": pa.Array.from_buffers(
                pa.utf8(), S, [None, pa.py_buffer(path_off[: S + 1].copy()), pa.py_buffer(paths)]
            ),
            "span_starts": starts[:S].copy(),
            "span_ends": ends[:S].copy(),
        }

    def _entities(self, docs: np.ndarray):
        """The batch ids of the entity-escaped pieces, with the UTF-8 of
        each one's ``html.unescape`` (memoized per distinct segment)."""
        P = self._piece_base
        pf = self._pieces[3][:P]
        ent = np.flatnonzero((pf & (_PF_UNESCAPE | _PF_LT)) == _PF_UNESCAPE)
        doc = np.searchsorted(docs[:, 2], ent, side="right") - 1
        base = docs[doc, 4]
        memo: dict[bytes, bytes] = {}
        parts = []
        src = self._buf
        for a, b in zip(
            (self._pieces[1][ent] + base).tolist(), (self._pieces[2][ent] + base).tolist()
        ):
            seg = bytes(src[a:b])
            u = memo.get(seg)
            if u is None:
                u = memo[seg] = unescape(seg.decode("utf-8")).encode("utf-8")
            parts.append(u)
        off = np.cumsum([0] + [len(u) for u in parts], dtype=np.int64)
        return ent.astype(np.int64), off, b"".join(parts)

    # ------------------------------------------------------------------
    def finish_links(self, base_urls: list[str], max_links: int):
        """Outlink extraction over the batch, straight from the kernel
        arrays — exactly ``fuzi_rd.stages.links._page_links`` per document
        (first <base href> wins, http(s) schemes only, first-occurrence
        attr wins, anchor = subtree string-value .strip()[:200], doc-order
        cap at max_links).  Must be called AFTER finish() (which stashes the
        batch-coordinate views).  ``base_urls`` is one page url per added
        doc, in add() order.

        Returns (counts int64[D], dst_urls, anchors, nofollow) with the
        flat lists doc-major in add() order.
        """
        from urllib.parse import urljoin, urlsplit

        docs = self._docs
        D = len(docs)
        counts = np.zeros(D, dtype=np.int64)
        dsts: list[str] = []
        anchors: list[str] = []
        nofollow: list[bool] = []
        if D == 0 or self._fin is None:
            return counts, dsts, anchors, nofollow
        tab, cls = self._fin
        # <a> and <base> elements, from the classes finish() wrote
        cand = np.flatnonzero(cls & (_EC_A | _EC_BASE))
        if cand.size == 0:
            return counts, dsts, anchors, nofollow
        node_bases, buf_bases = tab[:, 0], tab[:, 4]
        cand_doc = np.searchsorted(node_bases, cand, side="right") - 1
        types = self._nodes[_I_TYPES]
        bufcat = self._buf
        # piece arrays in batch coordinates
        P = self._piece_base
        pn = self._pieces[0][:P] + np.repeat(node_bases, tab[:, 3])
        pbuf = np.repeat(buf_bases, tab[:, 3])
        p0 = self._pieces[1][:P] + pbuf
        p1 = self._pieces[2][:P] + pbuf
        pf = self._pieces[3][:P]

        # attr arrays in batch coordinates (node-ascending per doc, hence
        # globally ascending after the node-base shift)
        A = self._attr_base
        attr_doc = np.repeat(np.arange(D, dtype=np.int64), tab[:, 7])
        an = self._attrs[0][:A].astype(np.int64) + node_bases[attr_doc]
        ashift = buf_bases[attr_doc]
        k0 = self._attrs[1][:A].astype(np.int64) + ashift
        k1 = self._attrs[2][:A].astype(np.int64) + ashift
        v0 = self._attrs[3][:A].astype(np.int64) + ashift
        v1 = self._attrs[4][:A].astype(np.int64) + ashift
        af = self._attrs[5][:A]
        alo = np.searchsorted(an, cand, side="left")
        ahi = np.searchsorted(an, cand, side="right")
        plo = np.searchsorted(pn, cand)
        phi = np.searchsorted(pn, self._nodes[_I_END][cand] + node_bases[cand_doc])
        dsplit = np.searchsorted(cand_doc, np.arange(D + 1, dtype=np.int64))

        alo_l, ahi_l = alo.tolist(), ahi.tolist()
        plo_l, phi_l = plo.tolist(), phi.tolist()

        def _attr_val(j0: int, j1: int, key: bytes):
            """First attr in [j0,j1) whose (ASCII-lowered) key == key; value
            decoded exactly like the Arena marshalling (None when absent)."""
            for j in range(j0, j1):
                if bufcat[k0[j] : k1[j]].lower() != key:
                    continue
                fl = int(af[j])
                if not fl & 1:
                    return ""
                val = bufcat[v0[j] : v1[j]].decode("utf-8", "replace")
                return unescape(val) if fl & 2 else val
            return None

        def _string_value(lo: int, hi: int) -> str:
            parts = []
            for k in range(lo, hi):
                t = int(types[int(pn[k])])
                if t != 3 and t != 4:
                    continue
                fl = int(pf[k])
                if fl & _PF_LT:
                    parts.append("<")
                else:
                    seg = bufcat[int(p0[k]) : int(p1[k])].decode(
                        "utf-8", "replace"
                    )
                    parts.append(unescape(seg) if fl & _PF_UNESCAPE else seg)
            return "".join(parts)

        join_memo: dict[tuple[str, str], tuple[str, str] | None] = {}
        is_a = (cls[cand] & _EC_A).astype(bool).tolist()
        for d in range(D):
            lo_c, hi_c = int(dsplit[d]), int(dsplit[d + 1])
            if lo_c == hi_c:
                continue
            base_url = base_urls[d]
            base = base_url
            kept = 0
            for x in range(lo_c, hi_c):
                j0, j1 = alo_l[x], ahi_l[x]
                if not is_a[x]:
                    # <base>: the first one with a truthy href wins
                    if base is base_url:
                        href = _attr_val(j0, j1, b"href")
                        if href:
                            base = urljoin(base_url, href.strip())
                    continue
                href = _attr_val(j0, j1, b"href")
                if not href:
                    continue
                mk = (base, href.strip())
                hit = join_memo.get(mk, False)
                if hit is False:
                    try:
                        dst = urljoin(mk[0], mk[1])
                        scheme = urlsplit(dst).scheme.lower()
                        hit = (dst, scheme)
                    except ValueError:
                        hit = None
                    join_memo[mk] = hit
                if hit is None or hit[1] not in ("http", "https"):
                    continue
                rel = (_attr_val(j0, j1, b"rel") or "").lower()
                dsts.append(hit[0])
                anchors.append(_string_value(plo_l[x], phi_l[x]).strip()[:200])
                nofollow.append("nofollow" in rel.split())
                kept += 1
                if kept >= max_links:
                    break
            counts[d] = kept
        return counts, dsts, anchors, nofollow
