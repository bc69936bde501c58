"""Batched, vectorized main-content extraction over the raw C parse-kernel
arrays — no Python-Arena marshalling.

The profiled cost split of the extraction hot path (round 5, 3000 bench
pages, single pinned core) was: C tokenizer 17 us/doc, marshalling the C
output into the Python-list Arena 113 us/doc, Python kill+density walk
56 us/doc.  The Arena is only needed when the stage must answer XPath/CSS
recipes or render markdown/metadata/links; the flagship extraction job
(parse -> kill boilerplate -> density keep -> text+spans) never touches it.
This module computes EXACTLY the `fuzi_rd.extract` result straight from the
kernel's flat int32 arrays, batched across the whole Arrow batch so the
numpy kernels run once per ~10^4 nodes instead of once per ~10^2:

  - every C parse appends into batch-wide node/piece buffers (the kernel is
    pointed at `base` offsets, so there is no per-doc copy at all);
  - kill list / effective-dead / block candidates / text+link densities are
    computed with interval-cover cumsums and searchsorted range sums over
    the concatenated arrays;
  - kept-block text is assembled from the source BYTES (valid UTF-8 by the
    decode contract of chtml.to_utf8_buf), so the output column can be
    built zero-copy with LargeStringArray.from_buffers — Python string
    objects are created only for titles, span paths, and the rare
    entity-escaped piece.

Byte-identity with the reference pipeline (parse_html_bytes ->
kill_boilerplate_nodes -> extract_main_content) is pinned by
tests/test_fastextract.py (differential over goldens, synthesized crawl
pages, the fuzz generator, and adversarial corners).  Docs `add` does not
accept (a decline or a ParseError) are not this module's: the caller
answers them with its Python path, which parses through
`chtml.parse_page`.  A piece stream that violates the preorder contract
(kernel bug) raises and the caller redoes the whole batch in Python —
output is identical either way.

Reference parity anchor: the extraction spec lives in fuzi_rd/extract.py
(SURVEY.md §2.8); this module is an execution strategy for it, not a new
operator.
"""

from __future__ import annotations

import zlib
from html import unescape

import numpy as np

from fuzi_rd import chtml
from fuzi_rd.errors import ParseError
from fuzi_rd.extract import BLOCK_TAGS, KILL_TAGS, LD_DEN, LD_NUM, TD_DEN, TD_NUM

_NULL = -1
ELEMENT = 1
_TEXTISH = (3, 4)  # TEXT, CDATA

# known-tag table: canonical ids for interned/synthesized element names
_KT = chtml._KNOWN_TAGS
_KT_INDEX = {n: i for i, n in enumerate(_KT)}

# piece-flag bits (contract with _chtml.c, mirrored from chtml marshalling)
_PF_UNESCAPE = 1
_PF_LT = 2

_N_NODE_ARRS = 10  # types parents fc lc ns ps sub_end name0 name1 nflags
_I_TYPES, _I_PARENTS, _I_FC, _I_LC, _I_NS, _I_PS, _I_END, _I_N0, _I_N1, _I_NF = range(
    _N_NODE_ARRS
)
_N_PIECE_ARRS = 4  # pn p0 p1 pf


class BatchExtractor:
    """Accumulate C parses for one Arrow batch, then extract all docs in one
    vectorized pass.  Usage per batch:

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
        self._any_nonascii = False
        self._fin = None  # finish() stash for finish_links()

    def add(self, data, encoding: str | None = None) -> bool:
        """Parse one document into the batch buffers.  Returns False when
        the kernel declines (caller must handle the doc via the Python
        path); raises ParseError for empty input / no root element."""
        buf, _declared = chtml.to_utf8_buf(data, encoding)
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
        if not self._any_nonascii and not buf.isascii():
            self._any_nonascii = True
        return True

    # ------------------------------------------------------------------
    def finish(self, emit_spans: bool = True) -> dict:
        """Vectorized extraction over everything added since reset().

        Returns per-doc parallel arrays (docs indexed in add() order):
          text_buf: uint8[T]          ALL docs' extracted utf-8, concatenated
          text_off: int64[D+1]        doc d's text = text_buf[off[d]:off[d+1]]
          title: list[str]
          text_chars: int64[D]        len(extracted_text) in characters
          text_hash: int64[D]         crc32 of the doc's utf-8 text
          n_nodes: int64[D]
          span_counts: int64[D], span_paths: list[str],
          span_starts/span_ends: int64 (flat, doc-major)

        Raises RuntimeError if the kernel's piece stream violates the
        preorder contract (kernel bug — caller redoes the batch in Python).
        """
        docs = self._docs
        D = len(docs)
        out = {
            # all docs' extracted text concatenated (doc-major) + offsets:
            # doc d's utf-8 text is text_buf[text_off[d]:text_off[d+1]]
            "text_buf": np.zeros(0, dtype=np.uint8),
            "text_off": np.zeros(D + 1, dtype=np.int64),
            "title": [""] * D,
            "text_chars": np.zeros(D, dtype=np.int64),
            "text_hash": np.zeros(D, dtype=np.int64),
            "n_nodes": np.array([d[1] - 1 for d in docs], dtype=np.int64),
            "span_counts": np.zeros(D, dtype=np.int64),
            "span_paths": [],
            "span_starts": np.zeros(0, dtype=np.int64),
            "span_ends": np.zeros(0, dtype=np.int64),
        }
        if D == 0:
            return out
        N = self._node_base
        P = self._piece_base
        bufcat = bytes(self._buf)
        BA = np.frombuffer(bufcat, dtype=np.uint8)

        nn_arr = np.array([d[1] for d in docs], dtype=np.int64)
        node_bases = np.array([d[0] for d in docs], dtype=np.int64)
        npc_arr = np.array([d[3] for d in docs], dtype=np.int64)
        buf_bases = np.array([d[4] for d in docs], dtype=np.int64)
        roots = np.array([d[5] for d in docs], dtype=np.int64) + node_bases
        doc_of_node = np.repeat(np.arange(D, dtype=np.int64), nn_arr)

        # ---- global (batch-coordinate) views of the kernel arrays ----
        types = self._nodes[_I_TYPES][:N].astype(np.int64)
        node_shift = np.repeat(node_bases, nn_arr)
        sub_end = self._nodes[_I_END][:N].astype(np.int64) + node_shift
        name0 = self._nodes[_I_N0][:N].astype(np.int64)
        name1 = self._nodes[_I_N1][:N].astype(np.int64)
        buf_shift_nodes = np.repeat(buf_bases, nn_arr)
        name0_abs = np.where(name0 >= 0, name0 + buf_shift_nodes, name0)
        name1_abs = np.where(name0 >= 0, name1 + buf_shift_nodes, name1)

        piece_node_shift = np.repeat(node_bases, npc_arr)
        piece_buf_shift = np.repeat(buf_bases, npc_arr)
        pn = self._pieces[0][:P].astype(np.int64) + piece_node_shift
        p0 = self._pieces[1][:P].astype(np.int64) + piece_buf_shift
        p1 = self._pieces[2][:P].astype(np.int64) + piece_buf_shift
        pf = self._pieces[3][:P].astype(np.int64)
        # preorder contract: piece node ids must be globally non-decreasing
        # (text nodes are created in document order, so per-doc streams are
        # sorted and the node-base shift keeps doc boundaries monotonic).
        # The searchsorted range sums below depend on it; a violation means
        # a kernel bug — raise, and the caller redoes the batch in Python.
        if P > 1 and np.any(pn[1:] < pn[:-1]):
            raise RuntimeError("fastextract: piece stream not in preorder")

        praw = self._nodes[_I_PARENTS][:N].astype(np.int64)
        # parent ids in batch coordinates; parentless nodes get a per-doc
        # negative sentinel so cross-doc ids can never collide
        par_abs = np.where(praw >= 0, praw + node_shift, -1 - doc_of_node)

        # ---- dense element name codes ----
        # The kernel interns only SYNTHESIZED elements (implied html/head/
        # body, name0 == -2 with a known-tag id); every real tag arrives as
        # a byte range.  The kernel sets the lowercase flag exactly when
        # the name contains ASCII uppercase, so the final Arena name is
        # always ascii-lower(raw bytes) for ASCII names — one lowered pack
        # serves BOTH the kill/block target masks and the span-path names.
        # Codes are canonicalized against the known-tag table so a real
        # <body> and a synthesized body compare equal (rank grouping and
        # target masks are code-based).
        E = types == ELEMENT
        code = np.full(N, -1, dtype=np.int64)
        known_mask = E & (name0 == -2)
        code[known_mask] = name1[known_mask]
        names_by_code = list(_KT) + ["pi"]
        name_code_map = dict(_KT_INDEX)
        name_code_map["pi"] = len(_KT)
        code[E & (name0 == -3)] = name_code_map["pi"]

        bn = np.nonzero(E & (name0 >= 0))[0]
        if bn.size:
            L = name1_abs[bn] - name0_abs[bn]
            offs = name0_abs[bn][:, None] + np.arange(16, dtype=np.int64)
            g = BA[np.clip(offs, 0, len(bufcat) - 1)].astype(np.uint64)
            g *= np.arange(16, dtype=np.int64)[None, :] < np.minimum(L, 16)[:, None]
            # ASCII letter lowercase (digits/punct/non-ASCII untouched).
            # NB: uint64 + int64 promotes to float64 in numpy (silent low-
            # bit loss on packed names) — keep the +32 in uint64.
            g += ((g >= 65) & (g <= 90)).astype(np.uint64) * np.uint64(32)
            w = np.uint64(1) << (np.uint64(8) * np.arange(8, dtype=np.uint64))
            lo = (g[:, :8] * w).sum(axis=1)
            hi = (g[:, 8:] * w).sum(axis=1)
            # ASCII-only names <= 16 bytes: dedup the (L, lo, hi) triples
            # via lexsort + group flags (np.unique(axis=0) is far slower)
            fit = (L <= 16) & (g < 128).all(axis=1)
            fi = np.nonzero(fit)[0]
            if fi.size:
                Lf, lof, hif = L[fi].astype(np.uint64), lo[fi], hi[fi]
                o2 = np.lexsort((hif, lof, Lf))
                Ls, los, his = Lf[o2], lof[o2], hif[o2]
                newu = np.empty(fi.size, dtype=bool)
                newu[0] = True
                newu[1:] = (
                    (Ls[1:] != Ls[:-1]) | (los[1:] != los[:-1]) | (his[1:] != his[:-1])
                )
                gid = np.cumsum(newu.view(np.uint8), dtype=np.int64) - 1
                uix = np.nonzero(newu)[0]
                uniq_codes = np.empty(uix.size, dtype=np.int64)
                for u in range(uix.size):
                    k = int(uix[u])
                    bs = int(los[k]).to_bytes(8, "little") + int(his[k]).to_bytes(
                        8, "little"
                    )
                    nm = bs[: int(Ls[k])].decode("ascii")
                    c = name_code_map.get(nm)
                    if c is None:
                        c = len(names_by_code)
                        names_by_code.append(nm)
                        name_code_map[nm] = c
                    uniq_codes[u] = c
                inv = np.empty(fi.size, dtype=np.int64)
                inv[o2] = uniq_codes[gid]
                code[bn[fi]] = inv
            tail = bn[~fit]
            if tail.size:
                # long or non-ASCII names: Python semantics (str.lower is
                # unicode-aware, unlike the ASCII pack) — rare
                nf_t = (self._nodes[_I_NF][:N][tail] & 1).tolist()
                for k, fl in zip(tail.tolist(), nf_t):
                    s = bufcat[int(name0_abs[k]) : int(name1_abs[k])].decode(
                        "utf-8", "replace"
                    )
                    if fl:
                        s = s.lower()
                    c = name_code_map.get(s)
                    if c is None:
                        c = len(names_by_code)
                        names_by_code.append(s)
                        name_code_map[s] = c
                    code[k] = c

        # stash the batch-coordinate views finish_links() needs (valid until
        # the next reset(); same lifetime as the kernel buffers)
        self._fin = {
            "E": E,
            "code": code,
            "name_code_map": name_code_map,
            "sub_end": sub_end,
            "types": types,
            "pn": pn,
            "p0": p0,
            "p1": p1,
            "pf": pf,
            "bufcat": bufcat,
            "node_bases": node_bases,
            "nn_arr": nn_arr,
            "buf_bases": buf_bases,
        }

        # ---- element name masks, from the code column ----
        def _codes_of(names) -> np.ndarray:
            return np.array(
                sorted(
                    name_code_map[n] for n in names if n in name_code_map
                ),
                dtype=np.int64,
            )

        kill = E & np.isin(code, _codes_of(KILL_TAGS))
        block = E & np.isin(code, _codes_of(BLOCK_TAGS))
        a_code = name_code_map.get("a", -2)
        body_code = name_code_map.get("body", -2)
        is_a = E & (code == a_code)
        is_body = E & (code == body_code)

        # ---- effective-dead cover from kill subtrees ----
        kill_ids = np.nonzero(kill)[0]
        delta = np.zeros(N + 1, dtype=np.int64)
        if kill_ids.size:
            np.add.at(delta, kill_ids, 1)
            np.add.at(delta, sub_end[kill_ids], -1)
        eff = delta.cumsum()[:N] > 0
        liveE = E & ~eff

        # ---- block candidates: live blocks with no live block inside ----
        blocks = np.nonzero(liveE & block)[0]
        if blocks.size:
            nxt = np.append(blocks[1:], N + 1)
            cand = blocks[nxt >= sub_end[blocks]]
        else:
            cand = blocks
        # body fallback per doc (no candidates <=> no live blocks in doc)
        has_cand = np.zeros(D, dtype=bool)
        if cand.size:
            has_cand[doc_of_node[cand]] = True
        if not has_cand.all():
            bodies = np.nonzero(liveE & is_body)[0]
            if bodies.size:
                first_body = np.full(D, N, dtype=np.int64)
                np.minimum.at(first_body, doc_of_node[bodies], bodies)
                fb = first_body[(~has_cand) & (first_body < N)]
                if fb.size:
                    cand = np.sort(np.concatenate([cand, fb]))

        if cand.size == 0:
            self._titles_into(out, D, N, E, code, name_code_map, par_abs, roots, doc_of_node, types, sub_end, pn, p0, p1, pf, bufcat)
            return out

        # ---- per-piece char/byte lengths (liveness-aware cumsums) ----
        # char count via UTF-8 start bytes (buf is valid UTF-8 by contract).
        # NB: numpy's bool->int64 cumsum/astype is a scalar loop (~200ns/
        # elem); viewing the bool as uint8 takes the SIMD path (~30x).
        byte_len = p1 - p0
        if self._any_nonascii:
            starts = np.empty(len(bufcat) + 1, dtype=np.int64)
            starts[0] = 0
            starts[1:] = np.cumsum(
                ((BA & 0xC0) != 0x80).view(np.uint8), dtype=np.int64
            )
            char_len = starts[p1] - starts[p0]
        else:
            # pure-ASCII batch: chars == bytes everywhere in the source
            # (entity expansions below may still be non-ASCII and override)
            char_len = byte_len.copy()
        lt_mask = (pf & _PF_LT) > 0
        ent_mask = ((pf & _PF_UNESCAPE) > 0) & ~lt_mask
        if lt_mask.any():
            char_len[lt_mask] = 1
            byte_len[lt_mask] = 1
        ent_strings: dict[int, str] = {}
        special_mask = lt_mask | ent_mask
        ent_idx = np.nonzero(ent_mask)[0]
        if ent_idx.size:
            memo: dict[bytes, str] = {}
            for k in ent_idx.tolist():
                seg = bufcat[p0[k] : p1[k]]
                u = memo.get(seg)
                if u is None:
                    u = unescape(seg.decode("utf-8"))
                    memo[seg] = u
                ent_strings[k] = u
                char_len[k] = len(u)
                byte_len[k] = len(u.encode("utf-8"))

        ptype = types[pn]
        plive = ((ptype == 3) | (ptype == 4)) & ~eff[pn]
        live_char = np.where(plive, char_len, 0)
        live_byte = np.where(plive, byte_len, 0)
        ccum = np.zeros(P + 1, dtype=np.int64)
        np.cumsum(live_char, out=ccum[1:])
        bcum = np.zeros(P + 1, dtype=np.int64)
        np.cumsum(live_byte, out=bcum[1:])

        cand_end = sub_end[cand]
        los = np.searchsorted(pn, cand, side="left")
        his = np.searchsorted(pn, cand_end, side="left")
        tchars = ccum[his] - ccum[los]
        tbytes = bcum[his] - bcum[los]

        # tag_count = 1 + live elements strictly inside the candidate
        lecum = np.empty(N + 1, dtype=np.int64)
        lecum[0] = 0
        lecum[1:] = np.cumsum(liveE.view(np.uint8), dtype=np.int64)
        tag_count = 1 + (lecum[cand_end] - lecum[cand + 1])

        # ---- link text: union cover over live <a> ranges ----
        a_ids = np.nonzero(liveE & is_a)[0]
        if a_ids.size:
            adelta = np.zeros(N + 1, dtype=np.int64)
            np.add.at(adelta, a_ids, 1)
            np.add.at(adelta, sub_end[a_ids], -1)
            acov = adelta.cumsum()[:N]
            in_a_char = np.where(acov[pn] > 0, live_char, 0)
            acum = np.zeros(P + 1, dtype=np.int64)
            np.cumsum(in_a_char, out=acum[1:])
            link_chars = acum[his] - acum[los]
            # exact fix-up: a candidate that itself sits under an <a>
            # (ancestor link) must NOT count that ancestor's cover — the
            # spec only counts <a> elements found INSIDE the candidate.
            bad = np.nonzero(acov[cand] > 0)[0]
            for j in bad.tolist():
                c0, c1 = int(cand[j]), int(cand_end[j])
                lo_a = int(np.searchsorted(a_ids, c0 + 1))
                hi_a = int(np.searchsorted(a_ids, c1))
                total = 0
                k = lo_a
                while k < hi_a:
                    aid = int(a_ids[k])
                    ae = int(sub_end[aid])
                    pl = int(np.searchsorted(pn, aid))
                    ph = int(np.searchsorted(pn, ae))
                    total += int(ccum[ph] - ccum[pl])
                    # skip nested <a> inside this one (spec skips to end)
                    while k < hi_a and int(a_ids[k]) < ae:
                        k += 1
                link_chars[j] = total
        else:
            link_chars = np.zeros(cand.size, dtype=np.int64)

        keep = (
            (tchars > 0)
            & (tchars * TD_DEN >= TD_NUM * tag_count)
            & (LD_DEN * link_chars <= LD_NUM * tchars)
        )
        kept = cand[keep]
        if kept.size == 0:
            self._titles_into(out, D, N, E, code, name_code_map, par_abs, roots, doc_of_node, types, sub_end, pn, p0, p1, pf, bufcat)
            return out
        kept_chars = tchars[keep]
        kept_bytes = tbytes[keep]
        kept_lo = los[keep]
        kept_hi = his[keep]
        kept_doc = doc_of_node[kept]

        # ---- span paths: vectorized sibling ranks ----
        # The /html/body/div[2] path needs, per ancestor, its name string
        # (names_by_code, computed above) and its 1-based index among
        # same-named ELEMENT siblings (dead siblings INCLUDED — reference
        # behavior, see fuzi_rd/extract.py _node_path).  Ranks are a
        # lexsort cumcount over (parent, name-code); the per-span walk then
        # only chases parent pointers through Python lists.
        par_l = code_l = rank_l = None
        if emit_spans and kept.size:
            el = np.nonzero(E)[0]
            pe, ce = par_abs[el], code[el]
            order = np.lexsort((el, ce, pe))
            pes, ces = pe[order], ce[order]
            new = np.empty(el.size, dtype=bool)
            new[0] = True
            new[1:] = (pes[1:] != pes[:-1]) | (ces[1:] != ces[:-1])
            gstart = np.maximum.accumulate(
                np.where(new, np.arange(el.size, dtype=np.int64), 0)
            )
            rank = np.zeros(N, dtype=np.int64)
            rank[el[order]] = np.arange(el.size, dtype=np.int64) - gstart + 1
            par_l = par_abs.tolist()
            code_l = code.tolist()
            rank_l = rank.tolist()

        # ---- assemble text: one vectorized gather into a single buffer ----
        # Every kept block's live pieces are copied source->dest with two
        # global index gathers; only the rare specials (entity-escaped or
        # literal-'<' pieces) and the per-doc crc32 touch Python.
        live_idx = np.nonzero(plive)[0]
        k_lo = np.searchsorted(live_idx, kept_lo)
        k_hi = np.searchsorted(live_idx, kept_hi)
        nK = kept.size
        cnt = k_hi - k_lo  # live pieces per kept block
        block_starts = np.empty(nK + 1, dtype=np.int64)
        block_starts[0] = 0
        np.cumsum(cnt, out=block_starts[1:])
        TP = int(block_starts[-1])
        bop = np.repeat(np.arange(nK, dtype=np.int64), cnt)  # block of piece
        within_rank = np.arange(TP, dtype=np.int64) - block_starts[bop]
        pidx = live_idx[k_lo[bop] + within_rank]
        plen = byte_len[pidx]
        # "\n" separator before every kept block except the first in its doc
        sepl = np.ones(nK, dtype=np.int64)
        first_in_doc = np.empty(nK, dtype=bool)
        first_in_doc[0] = True
        first_in_doc[1:] = kept_doc[1:] != kept_doc[:-1]
        sepl[first_in_doc] = 0
        # destination offsets (g = exclusive cumsum of piece lengths)
        g = np.empty(TP + 1, dtype=np.int64)
        g[0] = 0
        np.cumsum(plen, out=g[1:])
        block_len = kept_bytes + sepl
        block_off = np.empty(nK + 1, dtype=np.int64)
        block_off[0] = 0
        np.cumsum(block_len, out=block_off[1:])
        T = int(block_off[-1])
        piece_dest = block_off[bop] + sepl[bop] + (g[:-1] - g[block_starts[bop]])

        out_buf = np.empty(T, dtype=np.uint8)
        nl = np.nonzero(sepl)[0]
        out_buf[block_off[nl]] = 10  # '\n'
        special = special_mask[pidx]
        if special.any():
            norm = np.nonzero(~special)[0]
            lens_n = plen[norm]
            p0_n = p0[pidx[norm]]
            dst_n = piece_dest[norm]
            for t in np.nonzero(special)[0].tolist():
                k = int(pidx[t])
                d0 = int(piece_dest[t])
                if lt_mask[k]:
                    out_buf[d0] = 0x3C  # '<'
                else:
                    eb = ent_strings[k].encode("utf-8")
                    out_buf[d0 : d0 + len(eb)] = np.frombuffer(eb, dtype=np.uint8)
        else:
            lens_n = plen
            p0_n = p0[pidx]
            dst_n = piece_dest
        cn = np.empty(lens_n.size + 1, dtype=np.int64)
        cn[0] = 0
        np.cumsum(lens_n, out=cn[1:])
        tot_n = int(cn[-1])
        wn = np.arange(tot_n, dtype=np.int64) - np.repeat(cn[:-1], lens_n)
        out_buf[np.repeat(dst_n, lens_n) + wn] = BA[np.repeat(p0_n, lens_n) + wn]

        # per-doc layout + stats
        doc_blocks = np.bincount(kept_doc, minlength=D)
        doc_len = np.zeros(D, dtype=np.int64)
        np.add.at(doc_len, kept_doc, block_len)
        doc_off = np.empty(D + 1, dtype=np.int64)
        doc_off[0] = 0
        np.cumsum(doc_len, out=doc_off[1:])
        out["text_buf"] = out_buf
        out["text_off"] = doc_off
        ch = np.zeros(D, dtype=np.int64)
        np.add.at(ch, kept_doc, kept_chars)
        ch += np.maximum(doc_blocks - 1, 0)
        out["text_chars"] = ch
        mvb = memoryview(out_buf)
        th = out["text_hash"]
        off_l = doc_off.tolist()
        for d in np.nonzero(doc_len)[0].tolist():
            th[d] = zlib.crc32(mvb[off_l[d] : off_l[d + 1]])

        if emit_spans:
            out["span_counts"] = doc_blocks.astype(np.int64)
            out["span_starts"] = (block_off[:nK] + sepl) - doc_off[kept_doc]
            out["span_ends"] = out["span_starts"] + kept_bytes
            paths = out["span_paths"]
            kept_l = kept.tolist()
            kd = kept_doc.tolist()
            nb_l = node_bases.tolist()
            for j in range(nK):
                nid = kept_l[j]
                doc_base = nb_l[kd[j]]
                pparts = []
                while nid > doc_base:
                    pparts.append(f"{names_by_code[code_l[nid]]}[{rank_l[nid]}]")
                    nid = par_l[nid]
                paths.append("/" + "/".join(reversed(pparts)))

        self._titles_into(out, D, N, E, code, name_code_map, par_abs, roots, doc_of_node, types, sub_end, pn, p0, p1, pf, bufcat)
        return out

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
        fin = self._fin
        if D == 0 or fin is None:
            return counts, dsts, anchors, nofollow
        E, code, ncm = fin["E"], fin["code"], fin["name_code_map"]
        sub_end, types = fin["sub_end"], fin["types"]
        pn, p0, p1, pf = fin["pn"], fin["p0"], fin["p1"], fin["pf"]
        bufcat = fin["bufcat"]
        node_bases, nn_arr = fin["node_bases"], fin["nn_arr"]
        buf_bases = fin["buf_bases"]
        a_code = ncm.get("a", -2)
        b_code = ncm.get("base", -2)
        cand = np.nonzero(E & ((code == a_code) | (code == b_code)))[0]
        if cand.size == 0:
            return counts, dsts, anchors, nofollow

        # attr arrays in batch coordinates (node-ascending per doc, hence
        # globally ascending after the node-base shift)
        A = self._attr_base
        na_arr = np.array([d[7] for d in docs], dtype=np.int64)
        attr_doc = np.repeat(np.arange(D, dtype=np.int64), na_arr)
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
        phi = np.searchsorted(pn, sub_end[cand])
        cand_doc = np.searchsorted(node_bases, cand, side="right") - 1
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
        is_a = (code[cand] == a_code).tolist()
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

    # ------------------------------------------------------------------
    def _titles_into(
        self,
        out,
        D,
        N,
        E,
        code,
        name_code_map,
        par_abs,
        roots,
        doc_of_node,
        types,
        sub_end,
        pn,
        p0,
        p1,
        pf,
        bufcat,
    ):
        """Per-doc <head><title> string value (pre-kill semantics — runs on
        the raw tree exactly like the stage calls _title_of before
        kill_boilerplate_nodes).  Semantics: the FIRST head child of the
        root element, then the first title child of THAT head.  Located
        vectorized via the name-code column; only the final (tiny) string
        assembly is Python."""
        head_c = name_code_map.get("head")
        title_c = name_code_map.get("title")
        if head_c is None or title_c is None:
            return
        heads = np.nonzero(E & (code == head_c))[0]
        if heads.size == 0:
            return
        heads = heads[par_abs[heads] == roots[doc_of_node[heads]]]
        if heads.size == 0:
            return
        fh = np.full(D, N + 1, dtype=np.int64)
        np.minimum.at(fh, doc_of_node[heads], heads)
        tns = np.nonzero(E & (code == title_c))[0]
        if tns.size == 0:
            return
        tns = tns[par_abs[tns] == fh[doc_of_node[tns]]]
        if tns.size == 0:
            return
        ft = np.full(D, N + 1, dtype=np.int64)
        np.minimum.at(ft, doc_of_node[tns], tns)
        docs_with = np.nonzero(ft <= N)[0]
        tlo = np.searchsorted(pn, ft[docs_with])
        thi = np.searchsorted(pn, sub_end[ft[docs_with]])
        titles = out["title"]
        for x in range(docs_with.size):
            d = int(docs_with[x])
            parts = []
            for k in range(int(tlo[x]), int(thi[x])):
                t = int(types[int(pn[k])])
                if t != 3 and t != 4:
                    continue
                fl = int(pf[k])
                if fl & _PF_LT:
                    parts.append("<")
                else:
                    seg = bufcat[int(p0[k]) : int(p1[k])].decode("utf-8", "replace")
                    parts.append(unescape(seg) if fl & _PF_UNESCAPE else seg)
            titles[d] = "".join(parts)
