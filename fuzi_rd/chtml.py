"""ctypes loader/wrapper for the optional C parse kernel (_chtml.c).

``parse_html_bytes_fast(data, encoding)`` returns an Arena byte-equivalent
to ``html_parser.parse_html_bytes(data, encoding, track_lines=False)`` —
or ``None`` when the document hits a semantic corner the C kernel refuses
to decide (non-ASCII tag names, entity-escaped text at document level);
callers then fall back to the Python parser.  Equivalence is pinned by
tests/test_chtml_equivalence.py (differential over the golden corpus,
synthesized crawl pages, and the fuzz generator).

The shared object is compiled on first use with the system gcc into a
source-hash-keyed file under a per-user 0700 cache directory (atomic
rename, concurrent-build safe; dir and file ownership verified before
CDLL so another local user cannot pre-plant a .so);
if gcc or the build is unavailable, ``available()`` is False and nothing
changes — the Python parser remains the authority everywhere (and is
always used for parity mode, which needs line numbers).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import stat
import subprocess
import tempfile
from html import unescape

from fuzi_rd.dom import Arena
from fuzi_rd.errors import ParseError
from fuzi_rd.html_parser import parse_html_bytes

_SRC = pathlib.Path(__file__).with_name("_chtml.c")
_KNOWN_TAGS = (
    "html head body table template title base link meta isindex script "
    "style noscript area basefont br col embed frame hr img input keygen "
    "param source track wbr li dt dd tr td th thead tbody tfoot option "
    "optgroup a p address article aside blockquote center details dialog "
    "dir div dl fieldset figcaption figure footer form h1 h2 h3 h4 h5 h6 "
    "header hgroup listing main menu nav ol plaintext pre section summary "
    "ul xmp"
).split()

# Hard per-page cap: a larger page becomes an error row without a parse, so
# one blob cannot exhaust a worker's heap.
MAX_PAGE_BYTES = 64 * 1024 * 1024
# One kernel pass of the batch path parses at most this much html (a larger
# page is a pass of its own), so the kernel arrays of a whole Ray block
# stay a bounded multiple of it.
KERNEL_PASS_BYTES = 16 * 1024 * 1024

_lib = None
_tried = False


def _cache_dir() -> pathlib.Path:
    """Per-user 0700 build directory.  A predictable world-writable /tmp
    path would let another local user pre-plant a malicious .so at the
    source-hash name and get code execution in every extractor process;
    the dir is created 0700 and verified (owner, mode, not a symlink)
    before anything in it is trusted."""
    base = pathlib.Path(tempfile.gettempdir()) / f"fuzi_rd_chtml_u{os.getuid()}"
    base.mkdir(mode=0o700, exist_ok=True)
    st = os.lstat(base)
    if (
        not stat.S_ISDIR(st.st_mode)
        or st.st_uid != os.getuid()
        or (st.st_mode & 0o077)
    ):
        raise RuntimeError(
            f"refusing unsafe chtml cache dir {base}: "
            f"mode={oct(st.st_mode)} uid={st.st_uid}"
        )
    return base


def _build_and_load():
    src = _SRC.read_bytes()
    token = hashlib.blake2b(src, digest_size=8).hexdigest()
    so = _cache_dir() / f"fuzi_rd_chtml_{token}.so"
    if not so.exists():
        tmp = so.with_name(so.name + f".tmp{os.getpid()}")
        subprocess.run(
            ["gcc", "-O2", "-fPIC", "-shared", "-o", str(tmp), str(_SRC)],
            check=True,
            capture_output=True,
        )
        tmp.replace(so)  # atomic: concurrent builders all win
    st = os.lstat(so)
    if not stat.S_ISREG(st.st_mode) or st.st_uid != os.getuid():
        raise RuntimeError(f"refusing unsafe chtml kernel file {so}")
    lib = ctypes.CDLL(str(so))
    # fastextract.BatchExtractor: every pointer argument is a raw address
    # (ndpointer marshalling cost ~10 us per array per call), the rest are
    # the declared integer widths
    i32, i64, p = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    lib.chtml_parse_arrow.restype = i32
    lib.chtml_parse_arrow.argtypes = (
        [i64, i64, p, p, i32, p, i32, i64] + [p, i64] * 3 + [p] * 4
    )
    lib.chtml_extract_batch.restype = i32
    lib.chtml_extract_batch.argtypes = (
        [i32] + [p] * 3 + [i64] + [p] * 3 + [p, i32, p, p]
        + [p, p, i64] + [p] * 5 + [i64, p, i64] + [p] * 3 + [i64, p]
    )
    return lib


_bufs = None  # a one-document fastextract.BatchExtractor
# tag / attr-key bytes -> str memo (names repeat heavily; bounded)
_NAME_CACHE: dict[bytes, str] = {}


def available() -> bool:
    global _lib, _tried
    if _tried:
        return _lib is not None
    _tried = True
    try:
        _lib = _build_and_load()
        # import-time self-check: a tag-soup page must parse identically to
        # the Python parser, or the kernel is disabled for this process
        probe = (
            b"<html><head><title>T &amp; t</title><META X=1></head>"
            b"<body><p>a<p>b<ul><li>1<li>2</ul>"
            b"<script>if (a < b) { x(); }</script><!-- c --></body></html>"
        )
        fast = parse_html_bytes_fast(probe, None)
        ref = parse_html_bytes(probe, track_lines=False)
        if fast is None or not _arena_equal(fast, ref) or not _batch_self_check():
            _lib = None
    except Exception:
        _lib = None
    return _lib is not None


# the batch entry's self-check pages: ASCII, declared UTF-8 with non-ASCII
# text, and a legacy charset (decoded in Python, then parsed decoded)
_BATCH_PROBE = (
    b"<p>plain <b>ascii</b></p>",
    '<meta charset="UTF-8"><p>caf\u00e9 \u2713</p>'.encode(),
    '<meta charset=windows-1252><p>caf\u00e9</p>'.encode("cp1252"),
)


def _batch_self_check() -> bool:
    """Each probe page parses as the Python parser does, and
    ``chtml_parse_arrow`` over them as a sliced array gives each page the
    arrays of its one-page parse."""
    from fuzi_rd.fastextract import BatchExtractor, large_binary

    for page in _BATCH_PROBE:
        fast = parse_html_bytes_fast(page)
        if fast is None or not _arena_equal(fast, parse_html_bytes(page, track_lines=False)):
            return False
    arr = large_binary([b"<p>x</p>", *_BATCH_PROBE]).slice(1)
    batch, one = BatchExtractor(64, 64), BatchExtractor(64, 64)
    rows = batch.add_array(arr)[0].tolist()
    if sorted(rows) != list(range(len(_BATCH_PROBE))):
        return False
    for d, row in enumerate(rows):
        one.reset()
        if not one.add(_BATCH_PROBE[row]) or one.doc_arrays(0) != batch.doc_arrays(d):
            return False
    return True


def check_page_size(raw) -> None:
    """Raise ParseError for a page over ``MAX_PAGE_BYTES``: the one size
    check every HTML page stage applies before it parses."""
    if len(raw) > MAX_PAGE_BYTES:
        raise ParseError(
            f"parserFailure: {len(raw)}-byte page exceeds the "
            f"{MAX_PAGE_BYTES}-byte cap"
        )


def parse_page(raw, kernel: bool = True) -> Arena:
    """Parse one page for a page stage: the C kernel when it is available
    and accepts the document, else the Python parser (the authority).

    A kernel ``ParseError`` propagates unchanged: it is the error the Python
    parser raises for the same input.  Any other kernel exception falls
    back to Python.  ``kernel=False`` goes straight to the Python parser,
    for a page the kernel has already seen.  Line numbers are not
    tracked."""
    check_page_size(raw)
    if kernel and available():
        try:
            arena = parse_html_bytes_fast(raw)
        except ParseError:
            raise
        except Exception:
            arena = None  # kernel bug: Python is the authority
        if arena is not None:
            return arena
    return parse_html_bytes(raw, track_lines=False)


def _arena_equal(a: Arena, b: Arena) -> bool:
    return (
        a.types == b.types
        and a.parents == b.parents
        and a.names == b.names
        and a.texts == b.texts
        and a.attrs == b.attrs
        and a.first_child == b.first_child
        and a.next_sib == b.next_sib
        and a.subtree_end == b.subtree_end
    )


def _valid_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


def to_utf8_buf(data, encoding: str | None = None) -> tuple[bytes, str]:
    """Decode front half shared by the parse paths: returns (utf8_bytes,
    declared_encoding).  Raises ParseError for empty input like the Python
    parser.  The returned bytes are ALWAYS valid UTF-8 (ASCII fast path,
    strict-decode fast path, or re-encode of the decoded text).  The batch
    kernel applies the same fast-path rule in C (``_chtml.c::check_row``)
    and leaves every other page to this function."""
    from fuzi_rd.html_parser import _decode_html

    if isinstance(data, (bytes, bytearray, memoryview)):
        raw = bytes(data)
        if not raw:
            raise ParseError("parserFailure: empty input")
        # Fast paths that skip the decode/encode round-trip (2 full-page
        # copies).  Preconditions: no caller-forced encoding, no declared
        # charset (which _decode_html would record), no BOM (the Python
        # parser strips it before tokenizing).  Then ASCII bytes are the
        # same text under every ASCII-compatible charset, and bytes that
        # STRICT-decode as UTF-8 are already their own UTF-8 encoding.
        fast = (
            encoding is None
            and b"charset=" not in raw[:2048].lower()
            and not raw.startswith((b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff"))
        )
        if fast and raw.isascii():
            return raw, "UTF-8"
        if fast and _valid_utf8(raw):
            return raw, "UTF-8"
        if encoding is None and not raw.startswith(
            (b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff")
        ):
            # charset present: a declared UTF-8-family encoding over
            # strictly-valid UTF-8 bytes decodes+re-encodes to itself —
            # skip the identity round-trip (_decode_html would return the
            # same bytes).  ascii declarations additionally require pure-
            # ASCII input (decode("ascii","replace") is only then identity).
            from fuzi_rd.html_parser import _sniff_charset

            enc = _sniff_charset(raw)
            if enc is not None:
                norm = enc.replace("-", "").replace("_", "").lower()
                if norm == "utf8" and _valid_utf8(raw):
                    return raw, enc.upper()
                if norm in ("ascii", "usascii", "646") and raw.isascii():
                    return raw, enc.upper()
        text, declared = _decode_html(raw, encoding)
        return text.encode("utf-8"), declared
    if not data:
        raise ParseError("parserFailure: empty input")
    return data.encode("utf-8"), "UTF-8"


def parse_raw(data, encoding: str | None = None):
    """Run the C parse and return the RAW kernel output:

        (buf, declared, nn, n_pieces, n_attrs, root)

    with the node/piece/attr arrays left in the module ``_bufs`` (valid
    until the next parse — callers that keep them must copy).  Returns
    ``None`` when the kernel defers to Python; raises ParseError exactly
    like the Python parser for empty input / no root element.  It is a
    one-document batch of fuzi_rd/fastextract.py's ``BatchExtractor``."""
    global _bufs
    if _bufs is None:
        from fuzi_rd.fastextract import BatchExtractor

        _bufs = BatchExtractor(4096, 4096)
    _bufs.reset()
    if not _bufs.add(data, encoding):
        return None
    _, nn, _, n_pieces, addr, root, _, n_attrs, n = _bufs.doc_table()[0].tolist()
    return ctypes.string_at(addr, n), _bufs.declared, nn, n_pieces, n_attrs, root


def parse_html_bytes_fast(data, encoding: str | None = None):
    """C-kernel parse; returns an Arena, or None when the kernel defers to
    Python (caller must fall back).  Raises ParseError like the Python
    parser for empty input / no root element."""
    rawres = parse_raw(data, encoding)
    if rawres is None:
        return None
    buf, declared, nn, n_pieces, n_attrs, root = rawres
    b = _bufs

    (types, parents, fc, lc, ns, ps, sub_end, name0, name1, nflags) = b._nodes
    tl = types[:nn].tolist()
    arena = Arena(is_html=True)
    arena.types = tl
    arena.parents = parents[:nn].tolist()
    arena.first_child = fc[:nn].tolist()
    arena.last_child = lc[:nn].tolist()
    arena.next_sib = ns[:nn].tolist()
    arena.prev_sib = ps[:nn].tolist()
    arena.subtree_end = sub_end[:nn].tolist()
    arena.lines = [0] * nn
    arena.dead = [False] * nn
    attrs_l: list = [None] * nn
    attr_order_l: list = [None] * nn
    arena.ns_prefix = [None] * nn
    arena.ns_uri = [None] * nn
    arena.nsdefs = [None] * nn
    arena.root = root
    arena.encoding = declared
    arena._finished = True

    name_cache = _NAME_CACHE
    if len(name_cache) > 100_000:
        name_cache.clear()

    # names (elements + PI); every element gets a real dict/list (the
    # Python builder's _open does), even with no attributes
    names: list = [None] * nn
    n0l = name0[:nn].tolist()
    n1l = name1[:nn].tolist()
    nfl = nflags[:nn].tolist()
    for i in range(nn):
        t = tl[i]
        if t == 1:
            attrs_l[i] = {}
            attr_order_l[i] = []
        elif t != 7:
            continue
        a = n0l[i]
        if a == -2:
            names[i] = _KNOWN_TAGS[n1l[i]]
        elif a == -3:
            names[i] = "pi"
        else:
            key = buf[a : n1l[i]]
            s = name_cache.get(key)
            if s is None:
                s = key.decode("utf-8", "replace")
                if nfl[i] & 1:
                    s = s.lower()
                name_cache[key] = s
            names[i] = s
    arena.names = names

    # text content from pieces (contiguous per node, document order)
    texts: list = [None] * nn
    pn = b._pieces[0][:n_pieces].tolist()
    p0 = b._pieces[1][:n_pieces].tolist()
    p1 = b._pieces[2][:n_pieces].tolist()
    pf = b._pieces[3][:n_pieces].tolist()
    k = 0
    while k < n_pieces:
        node = pn[k]
        if k + 1 < n_pieces and pn[k + 1] == node:
            parts = []
            while k < n_pieces and pn[k] == node:
                fl = pf[k]
                if fl & 2:
                    parts.append("<")
                else:
                    seg = buf[p0[k] : p1[k]].decode("utf-8", "replace")
                    parts.append(unescape(seg) if fl & 1 else seg)
                k += 1
            texts[node] = "".join(parts)
        else:
            fl = pf[k]
            if fl & 2:
                texts[node] = "<"
            else:
                seg = buf[p0[k] : p1[k]].decode("utf-8", "replace")
                texts[node] = unescape(seg) if fl & 1 else seg
            k += 1
    arena.texts = texts

    # attributes (contiguous per node, source order; first occurrence wins)
    an = b._attrs[0][:n_attrs].tolist()
    k0 = b._attrs[1][:n_attrs].tolist()
    k1 = b._attrs[2][:n_attrs].tolist()
    v0 = b._attrs[3][:n_attrs].tolist()
    v1 = b._attrs[4][:n_attrs].tolist()
    af = b._attrs[5][:n_attrs].tolist()
    j = 0
    while j < n_attrs:
        node = an[j]
        d: dict = {}
        order: list = []
        while j < n_attrs and an[j] == node:
            fl = af[j]
            keyb = buf[k0[j] : k1[j]]
            key = name_cache.get(keyb)
            if key is None:
                key = keyb.decode("utf-8", "replace")
                if fl & 4:
                    key = key.lower()
                name_cache[keyb] = key
            if fl & 1:
                val = buf[v0[j] : v1[j]].decode("utf-8", "replace")
                if fl & 2:
                    val = unescape(val)
            else:
                val = ""
            if key not in d:
                d[key] = val
                order.append((key, key, val))
            j += 1
        if node >= 0:
            attrs_l[node] = d
            attr_order_l[node] = order
    arena.attrs = attrs_l
    arena.attr_order = attr_order_l
    arena._appenders = tuple(
        getattr(arena, f).append
        for f in (
            "types", "names", "texts", "parents", "first_child", "last_child",
            "next_sib", "prev_sib", "subtree_end", "lines", "attrs",
            "attr_order", "ns_prefix", "ns_uri", "nsdefs", "dead",
        )
    )
    return arena
