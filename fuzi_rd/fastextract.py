"""Batched main-content extraction over the raw C parse-kernel arrays — no
Python-Arena marshalling.

The flagship extraction job (parse -> kill boilerplate -> density keep ->
text+spans) never needs the Python Arena, which only stages that answer
XPath/CSS recipes or render markdown/metadata/links read.  This module
computes EXACTLY the `fuzi_rd.extract` result straight from the kernel's
flat int32 arrays, through two kernel entry points:

  - ``add_array`` runs ``chtml_parse_arrow`` once over a ``binary`` /
    ``large_binary`` Arrow array: per row the page cap, the BOM / charset
    / strict-UTF-8 checks of ``chtml.to_utf8_buf``, and the parse of the
    row in place in the Arrow data buffer, into batch-wide node/piece/attr
    arrays (no per-row Python, no copy of the page).  The rows that need a
    decode (a BOM, a legacy charset, invalid UTF-8) are decoded by
    ``to_utf8_buf`` and parsed by a second call; ``add`` is a one-row call;
  - ``finish`` runs ``chtml_extract_batch`` (``_chtml.c``) once over the
    whole batch: per document one linear pass makes the pre-kill title, the
    kill list and its effective-dead cover, the live block candidates, the
    text/tag/link counts, the integer TD/LD keep rule, and the kept text
    with its UTF-8 byte spans and ``name[rank]`` paths.  The tag sets and
    thresholds come from ``fuzi_rd.extract``; the rare entity-escaped piece
    is unescaped here once per distinct segment (``html.unescape`` is the
    authority) and handed to C as UTF-8.  The text, title and path columns
    are built zero-copy from the kernel's output buffers (a parsed page's
    bytes are valid UTF-8: the kernel checked them, or to_utf8_buf made
    them).

Byte-identity with the reference pipeline (parse_html_bytes ->
kill_boilerplate_nodes -> extract_main_content) is pinned by
tests/test_fastextract.py (differential over goldens, synthesized crawl
pages, the fuzz generator, adversarial corners, and every Arrow layout and
decode corner).  Rows the kernel does not accept (a decline, a ParseError,
a page over the cap) are not this module's: the caller answers them with
its Python path.  Kernel arrays that break the parser's preorder contract
(a kernel bug) make ``finish`` raise, and the caller redoes the whole batch
in Python — output is identical either way.

Reference parity anchor: the extraction spec lives in fuzi_rd/extract.py
(SURVEY.md §2.8); this module is an execution strategy for it, not a new
operator.
"""

from __future__ import annotations

import ctypes
import zlib
from itertools import accumulate
from html import unescape
from time import perf_counter_ns

import numpy as np
import pyarrow as pa

from fuzi_rd import chtml
from fuzi_rd.errors import ParseError
from fuzi_rd.extract import BLOCK_TAGS, KILL_TAGS, LD_DEN, LD_NUM, TD_DEN, TD_NUM
from fuzi_rd.html_parser import _sniff_charset

# piece-flag bits (contract with _chtml.c, mirrored from chtml marshalling)
_PF_UNESCAPE = 1
_PF_LT = 2

_N_NODE_ARRS = 10  # types parents fc lc ns ps sub_end name0 name1 nflags
_I_TYPES, _I_END = 0, 6
_N_PIECE_ARRS = 4  # pn p0 p1 pf
_N_ATTR_ARRS = 6  # an k0 k1 v0 v1 flags

# per-row states of chtml_parse_arrow (contract with _chtml.c RS_*)
ROW_OK, ROW_DECODE, ROW_DECLINE, ROW_EMPTY, ROW_NO_ROOT, ROW_OVER_CAP = range(6)
# doc-table columns (contract with _chtml.c D_*): node base, node count,
# piece base, piece count, source address, root, attr base, attr count and
# source length
_D_NPC, _D_BUF, _D_NA, _D_LEN, _D_STRIDE = 3, 4, 7, 8, 9

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


def _at(a: int, b: int) -> bytes:
    """The source bytes at addresses ``[a, b)`` (docs point into their
    Arrow data buffers)."""
    return ctypes.string_at(a, b - a)


def large_binary(pages) -> pa.Array:
    """``pages`` (bytes-like) as a ``large_binary`` array built from its
    buffers (one page is not copied).  ``pa.array`` over a list would
    import pandas, ~0.3 s of a fresh process's kernel self-check."""
    offsets = np.array([0, *accumulate(map(len, pages))], dtype=np.int64)
    data = pages[0] if len(pages) == 1 else b"".join(pages)
    return pa.Array.from_buffers(
        pa.large_binary(), len(pages), [None, pa.py_buffer(offsets), pa.py_buffer(data)]
    )


class BatchExtractor:
    """Accumulate C parses for one batch, then extract all docs in one
    kernel pass.  Usage per batch:

        bx.reset()
        rows, state, ns = bx.add_array(html)  # or: ok = bx.add(raw) per page
        results = bx.finish()                 # dict of per-doc outputs

    Each doc is parsed in place in the buffer it came in (an Arrow data
    buffer, or ``chtml.to_utf8_buf``'s output for a page that needed a
    decode); the batch keeps those arrays alive until ``reset``.  Reusable
    across batches (buffers persist per worker process)."""

    def __init__(self, node_cap: int = 1 << 16, piece_cap: int = 1 << 16):
        self._alloc(node_cap, piece_cap, 1 << 14)
        self._acc = np.zeros(8, dtype=np.int64)
        self._acc_ptr = _ptr(self._acc)
        self.reset()

    def _alloc(self, node_cap: int, piece_cap: int, attr_cap: int):
        self._node_cap = node_cap
        self._piece_cap = piece_cap
        self._attr_cap = attr_cap
        self._nodes = [np.empty(node_cap, dtype=np.int32) for _ in range(_N_NODE_ARRS)]
        self._pieces = [np.empty(piece_cap, dtype=np.int32) for _ in range(_N_PIECE_ARRS)]
        # attrs accumulate like nodes/pieces (read by finish_links; the
        # kernel writes them either way): an k0 k1 v0 v1 flags
        self._attrs = [np.empty(attr_cap, dtype=np.int32) for _ in range(_N_ATTR_ARRS)]
        self._node_table = (ctypes.c_void_p * _N_NODE_ARRS)(*map(_ptr, self._nodes))
        self._piece_table = (ctypes.c_void_p * _N_PIECE_ARRS)(*map(_ptr, self._pieces))
        self._attr_table = (ctypes.c_void_p * _N_ATTR_ARRS)(*map(_ptr, self._attrs))

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
        self._tables: list[np.ndarray] = []  # the doc-table rows of each call
        self._sources: list[pa.Array] = []  # the arrays those docs point into
        self._fin = None  # finish() stash for finish_links()

    def _parse(self, arr: pa.Array, decoded: bool = False):
        """One ``chtml_parse_arrow`` call over every row of ``arr`` (grown
        and resumed at a row that does not fit).  ``decoded``: the rows are
        ``chtml.to_utf8_buf`` output, parsed as they are.  Returns each
        row's ``ROW_*`` state and its time in the kernel (ns)."""
        large = pa.types.is_large_binary(arr.type)
        if not (large or pa.types.is_binary(arr.type)):
            raise TypeError(f"the kernel reads binary or large_binary arrays, not {arr.type}")
        n = len(arr)
        state, ns = np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int64)
        if not n:
            return state, ns
        docs = np.empty((n, _D_STRIDE), dtype=np.int64)
        validity, offsets, data = (b if b is None else b.address for b in arr.buffers())
        acc = self._acc
        acc[:5] = 0, 0, self._node_base, self._piece_base, self._attr_base
        # the UTF-8 of a page under the cap is under four times its size
        cap = chtml.MAX_PAGE_BYTES * (4 if decoded else 1)
        while chtml._lib.chtml_parse_arrow(
            n, arr.offset, validity, offsets, large, data, decoded, cap,
            self._node_table, self._node_cap, self._piece_table, self._piece_cap,
            self._attr_table, self._attr_cap, _ptr(docs), _ptr(state), _ptr(ns),
            self._acc_ptr,
        ):
            self._node_base, self._piece_base, self._attr_base = acc[2:5].tolist()
            self._grow(*acc[5:8].tolist())
        self._node_base, self._piece_base, self._attr_base = acc[2:5].tolist()
        if acc[1]:
            self._tables.append(docs[: acc[1]])
            self._sources.append(arr)
        return state, ns

    def add_array(self, arr: pa.Array):
        """Parse every row of a ``binary`` / ``large_binary`` array (sliced
        or not) into the batch.  One kernel call applies
        ``chtml.MAX_PAGE_BYTES`` and the checks of ``chtml.to_utf8_buf`` and
        parses each row in place; the rows it leaves to that decode (a BOM,
        a legacy charset, invalid UTF-8) are decoded by it and parsed by a
        second call.

        Returns ``(rows, state, ns)``: the accepted rows in doc (``finish``)
        order, each row's ``ROW_*`` state and its parse time in ns, decode
        included."""
        state, ns = self._parse(arr)
        rows = np.flatnonzero(state == ROW_OK)
        redo = np.flatnonzero(state == ROW_DECODE)
        if not redo.size:
            return rows, state, ns
        t0 = perf_counter_ns()
        decoded = {}
        for i in redo.tolist():
            try:
                decoded[i] = chtml.to_utf8_buf(arr[i].as_py())[0]
            except Exception:  # the Python parser meets it again
                state[i] = ROW_DECLINE
        ns[redo] += (perf_counter_ns() - t0) // len(redo)
        again = np.fromiter(decoded, dtype=np.int64, count=len(decoded))
        state2, ns2 = self._parse(large_binary(list(decoded.values())), True)
        state[again] = state2
        ns[again] += ns2
        return np.concatenate([rows, again[state2 == ROW_OK]]), state, ns

    def add(self, data, encoding: str | None = None) -> bool:
        """Parse one page into the batch: a one-row kernel call, then (for
        a page that needs a decode, a forced ``encoding`` or a ``str``) a
        decoded call over ``chtml.to_utf8_buf``'s output.  Returns False when the kernel
        declines (the caller must use the Python parser); raises ParseError
        like the Python parser (empty input, no root element) and like
        ``chtml.check_page_size``."""
        if not chtml.available():
            return False
        raw = encoding is None and not isinstance(data, str)
        st = int(self._parse(large_binary([data or b""]))[0][0]) if raw else ROW_DECODE
        if st == ROW_OK:
            enc = _sniff_charset(bytes(data[:2048]))
            self.declared = enc.upper() if enc else "UTF-8"
        elif st == ROW_DECODE:
            buf, self.declared = chtml.to_utf8_buf(data, encoding)
            st = int(self._parse(large_binary([buf]), decoded=True)[0][0])
        if st == ROW_EMPTY:
            raise ParseError("parserFailure: empty input")
        if st == ROW_NO_ROOT:
            raise ParseError("parserFailure: no root element")
        if st == ROW_OVER_CAP:
            chtml.check_page_size(data)
        return st == ROW_OK

    def doc_table(self) -> np.ndarray:
        """The doc table (one ``_D_STRIDE`` row per accepted doc, in add
        order)."""
        if not self._tables:
            return np.zeros((0, _D_STRIDE), dtype=np.int64)
        return np.concatenate(self._tables)

    def doc_arrays(self, d: int) -> tuple:
        """Doc ``d``'s source bytes, root, and node, piece and attr arrays
        as lists (ids and byte offsets are the doc's own)."""
        nb, nn, pb, npc, addr, root, ab, na, n = self.doc_table()[d].tolist()
        return (
            ctypes.string_at(addr, n),
            root,
            [a[nb : nb + nn].tolist() for a in self._nodes],
            [a[pb : pb + npc].tolist() for a in self._pieces],
            [a[ab : ab + na].tolist() for a in self._attrs],
        )

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
        docs = self.doc_table()
        D, N = len(docs), self._node_base
        ent_piece, ent_off, ent_buf = self._entities(docs)
        # every kept piece is copied once, plus one "\n" per kept block
        bound = int(docs[:, _D_LEN].sum()) + len(ent_buf)
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
                D, ptr(docs), self._node_table, self._piece_table,
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
        base = docs[doc, _D_BUF]
        memo: dict[bytes, bytes] = {}
        parts = []
        for a, b in zip(
            (self._pieces[1][ent] + base).tolist(), (self._pieces[2][ent] + base).tolist()
        ):
            seg = _at(a, b)
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

        tab, cls = self._fin
        D = len(tab)
        counts = np.zeros(D, dtype=np.int64)
        dsts: list[str] = []
        anchors: list[str] = []
        nofollow: list[bool] = []
        if D == 0:
            return counts, dsts, anchors, nofollow
        # <a> and <base> elements, from the classes finish() wrote
        cand = np.flatnonzero(cls & (_EC_A | _EC_BASE))
        if cand.size == 0:
            return counts, dsts, anchors, nofollow
        node_bases, buf_bases = tab[:, 0], tab[:, _D_BUF]
        cand_doc = np.searchsorted(node_bases, cand, side="right") - 1
        types = self._nodes[_I_TYPES]
        # piece arrays in batch coordinates
        P = self._piece_base
        pn = self._pieces[0][:P] + np.repeat(node_bases, tab[:, _D_NPC])
        pbuf = np.repeat(buf_bases, tab[:, _D_NPC])
        p0 = self._pieces[1][:P] + pbuf
        p1 = self._pieces[2][:P] + pbuf
        pf = self._pieces[3][:P]

        # attr arrays in batch coordinates (node-ascending per doc, hence
        # globally ascending after the node-base shift)
        A = self._attr_base
        attr_doc = np.repeat(np.arange(D, dtype=np.int64), tab[:, _D_NA])
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
                if _at(int(k0[j]), int(k1[j])).lower() != key:
                    continue
                fl = int(af[j])
                if not fl & 1:
                    return ""
                val = _at(int(v0[j]), int(v1[j])).decode("utf-8", "replace")
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
                    seg = _at(int(p0[k]), int(p1[k])).decode("utf-8", "replace")
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
