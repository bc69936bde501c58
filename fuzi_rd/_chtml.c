/* Optional C parse kernel for the extraction hot path.
 *
 * Faithful re-implementation of fuzi_rd/html_tokenizer.tokenize +
 * fuzi_rd/html_parser._HTMLBuilder (the no-line-tracking path): one pass
 * over the UTF-8 bytes of the decoded document, emitting the arena node
 * table as flat int32 arrays plus byte-span references into the input.
 * Entity decoding and unicode-aware lowercasing stay in Python (spans are
 * flagged `has_amp` / `needs_lower`); C only lowercases ASCII for its
 * internal tag comparisons, which is exact because every special tag
 * (html/head/body/p/li/...) is pure ASCII.
 *
 * Pure C99 + libc, no Python.h: loaded via ctypes from fuzi_rd/chtml.py.
 * Equivalence with the Python parser is pinned by
 * tests/test_chtml_equivalence.py (differential over the golden corpus and
 * synthesized crawl pages).  Reference behavior being mirrored: libxml2
 * RECOVER-mode tag soup parsing (reference Sources/Document.swift:211-213)
 * as operationalized by the Python implementation's golden tests.
 */

#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <stdlib.h>

#define NT_ELEMENT 1
#define NT_TEXT 3
#define NT_CDATA 4
#define NT_PI 7
#define NT_COMMENT 8

#define F_NEEDS_LOWER 1

#define PF_AMP 1
#define PF_LONE_LT 2

#define AF_HAS_VALUE 1
#define AF_V_AMP 2
#define AF_K_LOWER 4

#define ERR_OK 0
#define ERR_CAPACITY 1

/* ---- well-known tag ids (indexes into KNOWN_TAGS) ---- */
enum {
    T_HTML, T_HEAD, T_BODY, T_TABLE, T_TEMPLATE,
    T_TITLE, T_BASE, T_LINK, T_META, T_ISINDEX,
    T_SCRIPT, T_STYLE, T_NOSCRIPT,
    T_AREA, T_BASEFONT, T_BR, T_COL, T_EMBED, T_FRAME, T_HR, T_IMG,
    T_INPUT, T_KEYGEN, T_PARAM, T_SOURCE, T_TRACK, T_WBR,
    T_LI, T_DT, T_DD, T_TR, T_TD, T_TH, T_THEAD, T_TBODY, T_TFOOT,
    T_OPTION, T_OPTGROUP, T_A, T_P,
    T_ADDRESS, T_ARTICLE, T_ASIDE, T_BLOCKQUOTE, T_CENTER, T_DETAILS,
    T_DIALOG, T_DIR, T_DIV, T_DL, T_FIELDSET, T_FIGCAPTION, T_FIGURE,
    T_FOOTER, T_FORM, T_H1, T_H2, T_H3, T_H4, T_H5, T_H6, T_HEADER,
    T_HGROUP, T_LISTING, T_MAIN, T_MENU, T_NAV, T_OL, T_PLAINTEXT,
    T_PRE, T_SECTION, T_SUMMARY, T_UL, T_XMP,
    N_KNOWN
};

static const char *KNOWN_TAGS[N_KNOWN] = {
    "html", "head", "body", "table", "template",
    "title", "base", "link", "meta", "isindex",
    "script", "style", "noscript",
    "area", "basefont", "br", "col", "embed", "frame", "hr", "img",
    "input", "keygen", "param", "source", "track", "wbr",
    "li", "dt", "dd", "tr", "td", "th", "thead", "tbody", "tfoot",
    "option", "optgroup", "a", "p",
    "address", "article", "aside", "blockquote", "center", "details",
    "dialog", "dir", "div", "dl", "fieldset", "figcaption", "figure",
    "footer", "form", "h1", "h2", "h3", "h4", "h5", "h6", "header",
    "hgroup", "listing", "main", "menu", "nav", "ol", "plaintext",
    "pre", "section", "summary", "ul", "xmp",
};

/* VOID_ELEMENTS (html_parser.py): area base basefont br col embed frame hr
 * img input isindex keygen link meta param source track wbr */
static const uint8_t IS_VOID[N_KNOWN] = {
    [T_AREA]=1, [T_BASE]=1, [T_BASEFONT]=1, [T_BR]=1, [T_COL]=1,
    [T_EMBED]=1, [T_FRAME]=1, [T_HR]=1, [T_IMG]=1, [T_INPUT]=1,
    [T_ISINDEX]=1, [T_KEYGEN]=1, [T_LINK]=1, [T_META]=1, [T_PARAM]=1,
    [T_SOURCE]=1, [T_TRACK]=1, [T_WBR]=1,
};

/* _HEAD_OK = title base link meta isindex script style noscript template */
static const uint8_t IS_HEAD_OK[N_KNOWN] = {
    [T_TITLE]=1, [T_BASE]=1, [T_LINK]=1, [T_META]=1, [T_ISINDEX]=1,
    [T_SCRIPT]=1, [T_STYLE]=1, [T_NOSCRIPT]=1, [T_TEMPLATE]=1,
};

/* _BLOCK set (p-closers) */
static const uint8_t IS_BLOCK[N_KNOWN] = {
    [T_ADDRESS]=1, [T_ARTICLE]=1, [T_ASIDE]=1, [T_BLOCKQUOTE]=1,
    [T_CENTER]=1, [T_DETAILS]=1, [T_DIALOG]=1, [T_DIR]=1, [T_DIV]=1,
    [T_DL]=1, [T_FIELDSET]=1, [T_FIGCAPTION]=1, [T_FIGURE]=1, [T_FOOTER]=1,
    [T_FORM]=1, [T_H1]=1, [T_H2]=1, [T_H3]=1, [T_H4]=1, [T_H5]=1, [T_H6]=1,
    [T_HEADER]=1, [T_HGROUP]=1, [T_HR]=1, [T_LISTING]=1, [T_MAIN]=1,
    [T_MENU]=1, [T_NAV]=1, [T_OL]=1, [T_P]=1, [T_PLAINTEXT]=1, [T_PRE]=1,
    [T_SECTION]=1, [T_SUMMARY]=1, [T_TABLE]=1, [T_UL]=1, [T_XMP]=1,
    [T_LI]=1, [T_DT]=1, [T_DD]=1,
};

/* _AUTOCLOSE closer sets, as membership functions over ids.
 * base map (html_parser.py _AUTOCLOSE) then: every _BLOCK tag's set gains
 * {p} (including the explicitly-listed li/dt/dd/p etc. when they are BLOCK). */
static int in_autoclose_set(int tag, int t) {
    /* closers from the explicit map */
    switch (tag) {
    case T_LI: if (t == T_LI) return 1; break;
    case T_DT: case T_DD: if (t == T_DT || t == T_DD) return 1; break;
    case T_TR: if (t == T_TR || t == T_TD || t == T_TH) return 1; break;
    case T_TD: case T_TH: if (t == T_TD || t == T_TH) return 1; break;
    case T_THEAD: case T_TBODY: case T_TFOOT:
        if (t == T_THEAD || t == T_TBODY || t == T_TFOOT) return 1;
        break;
    case T_OPTION: if (t == T_OPTION) return 1; break;
    case T_OPTGROUP: if (t == T_OPTION || t == T_OPTGROUP) return 1; break;
    case T_A: if (t == T_A) return 1; break;
    default: break;
    }
    if (tag >= 0 && tag < N_KNOWN && IS_BLOCK[tag] && t == T_P) return 1;
    return 0;
}

static int has_autoclose(int tag) {
    if (tag < 0 || tag >= N_KNOWN) return 0;
    switch (tag) {
    case T_LI: case T_DT: case T_DD: case T_TR: case T_TD: case T_TH:
    case T_THEAD: case T_TBODY: case T_TFOOT: case T_OPTION:
    case T_OPTGROUP: case T_A: case T_P:
        return 1;
    default:
        return IS_BLOCK[tag];
    }
}

/* ---- unicode whitespace (matches Python str.isspace / \s for the chars
 * that can appear in UTF-8 text); returns byte length of the whitespace
 * char at p, or 0 if not whitespace. */
static int uws_len(const uint8_t *s, int i, int n) {
    uint8_t c = s[i];
    if (c == ' ' || (c >= 0x09 && c <= 0x0d)) return 1;        /* \t\n\v\f\r */
    if (c == 0x1c || c == 0x1d || c == 0x1e || c == 0x1f) return 1;
    if (c < 0x80) return 0;
    if (i + 1 < n && c == 0xc2 && (s[i+1] == 0x85 || s[i+1] == 0xa0)) return 2;
    if (i + 2 < n && c == 0xe1 && s[i+1] == 0x9a && s[i+2] == 0x80) return 3; /* 1680 */
    if (i + 2 < n && c == 0xe2) {
        uint8_t b = s[i+1], d = s[i+2];
        if (b == 0x80 && ((d >= 0x80 && d <= 0x8a) || d == 0xa8 || d == 0xa9 || d == 0xaf))
            return 3;  /* 2000-200a, 2028, 2029, 202f */
        if (b == 0x81 && d == 0x9f) return 3;  /* 205f */
    }
    if (i + 2 < n && c == 0xe3 && s[i+1] == 0x80 && s[i+2] == 0x80) return 3; /* 3000 */
    return 0;
}

static int is_ascii_alpha(uint8_t c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/* byte length of the UTF-8 char starting at a lead byte (1 for ASCII /
 * continuation garbage; buffer is valid UTF-8 by construction) */
static int utf8_len(uint8_t c) {
    if (c < 0xc0) return 1;
    if (c < 0xe0) return 2;
    if (c < 0xf0) return 3;
    return 4;
}

/* ---- tag interning: ASCII-lowercased name -> id.  Known tags get fixed
 * ids; unknown tags get ids >= N_KNOWN (identity only matters for equal-
 * name comparisons, which the builder does for end-tag matching). */
typedef struct {
    const uint8_t *buf;   /* document buffer */
    int32_t *spans;       /* 2 per interned tag: lowercased canonical span */
    char **copies;        /* lowered copies for comparison */
    int *lens;
    int count, cap;
} Interner;

static int tag_id(Interner *in, const uint8_t *s, int i0, int i1) {
    int len = i1 - i0;
    char tmp[64];
    char *low;
    char heap_low = 0;
    if (len <= 64) {
        low = tmp;
    } else {
        low = malloc(len);
        heap_low = 1;
        if (!low) return -1;
    }
    for (int k = 0; k < len; k++) {
        uint8_t c = s[i0 + k];
        low[k] = (c >= 'A' && c <= 'Z') ? (char)(c + 32) : (char)c;
    }
    for (int k = 0; k < N_KNOWN; k++) {
        if ((int)strlen(KNOWN_TAGS[k]) == len && memcmp(KNOWN_TAGS[k], low, len) == 0) {
            if (heap_low) free(low);
            return k;
        }
    }
    for (int k = 0; k < in->count; k++) {
        if (in->lens[k] == len && memcmp(in->copies[k], low, len) == 0) {
            if (heap_low) free(low);
            return N_KNOWN + k;
        }
    }
    if (in->count == in->cap) {
        in->cap = in->cap ? in->cap * 2 : 16;
        in->copies = realloc(in->copies, in->cap * sizeof(char *));
        in->lens = realloc(in->lens, in->cap * sizeof(int));
    }
    char *copy = malloc(len);
    memcpy(copy, low, len);
    in->copies[in->count] = copy;
    in->lens[in->count] = len;
    in->count++;
    if (heap_low) free(low);
    return N_KNOWN + in->count - 1;
}

static void interner_free(Interner *in) {
    for (int k = 0; k < in->count; k++) free(in->copies[k]);
    free(in->copies);
    free(in->lens);
}

/* ---- output buffers (caller-allocated) ---- */
typedef struct {
    /* per node */
    int32_t *types, *parents, *fc, *lc, *ns, *ps, *sub_end;
    int32_t *name0, *name1, *nflags;
    int32_t node_cap, n_nodes;
    /* text pieces */
    int32_t *pnode, *p0, *p1, *pflags;
    int32_t piece_cap, n_pieces;
    /* attrs */
    int32_t *anode, *k0, *k1, *v0, *v1, *aflags;
    int32_t attr_cap, n_attrs;
    int32_t root;
    int overflow;
} Out;

static int32_t add_node(Out *o, int type, int parent, int n0, int n1, int nfl) {
    if (o->n_nodes >= o->node_cap) { o->overflow = 1; return o->node_cap - 1; }
    int32_t nid = o->n_nodes++;
    o->types[nid] = type;
    o->parents[nid] = parent;
    o->fc[nid] = -1;
    o->lc[nid] = -1;
    o->ns[nid] = -1;
    o->ps[nid] = -1;
    o->sub_end[nid] = nid + 1;
    o->name0[nid] = n0;
    o->name1[nid] = n1;
    o->nflags[nid] = nfl;
    if (parent >= 0 && !o->overflow) {
        int32_t prev = o->lc[parent];
        if (prev < 0) o->fc[parent] = nid;
        else { o->ns[prev] = nid; o->ps[nid] = prev; }
        o->lc[parent] = nid;
    }
    return nid;
}

static void add_piece(Out *o, int32_t node, int a, int b, int fl) {
    if (o->n_pieces >= o->piece_cap) { o->overflow = 1; return; }
    int32_t k = o->n_pieces++;
    o->pnode[k] = node; o->p0[k] = a; o->p1[k] = b; o->pflags[k] = fl;
}

static void add_attr(Out *o, int32_t node, int ka, int kb, int va, int vb, int fl) {
    if (o->n_attrs >= o->attr_cap) { o->overflow = 1; return; }
    int32_t k = o->n_attrs++;
    o->anode[k] = node; o->k0[k] = ka; o->k1[k] = kb;
    o->v0[k] = va; o->v1[k] = vb; o->aflags[k] = fl;
}

/* ---- builder state ---- */
typedef struct {
    Out *o;
    int32_t *stack;      /* node ids */
    int32_t *stags;      /* tag ids (-1 for document) */
    int depth, stack_cap;
    int32_t html_id, head_id, body_id;
    int body_started, head_closed;
    int needs_python;    /* semantics C can't settle -> caller reparses */
} B;

static void push(B *b, int32_t nid, int tag) {
    if (b->depth == b->stack_cap) {
        b->stack_cap *= 2;
        b->stack = realloc(b->stack, b->stack_cap * sizeof(int32_t));
        b->stags = realloc(b->stags, b->stack_cap * sizeof(int32_t));
    }
    b->stack[b->depth] = nid;
    b->stags[b->depth] = tag;
    b->depth++;
}

static void close_top(B *b) { if (b->depth > 1) b->depth--; }

static int32_t b_open(B *b, int tag, int n0, int n1, int nfl) {
    int32_t nid = add_node(b->o, NT_ELEMENT, b->stack[b->depth - 1], n0, n1, nfl);
    push(b, nid, tag);
    return nid;
}

static void ensure_html(B *b) {
    if (b->html_id < 0) {
        /* synthesized element: name span -2 => literal known tag id in name1 */
        b->html_id = b_open(b, T_HTML, -2, T_HTML, 0);
    }
}

static void ensure_head(B *b) {
    ensure_html(b);
    if (b->head_id < 0 && !b->body_started) {
        while (b->stags[b->depth - 1] != T_HTML) close_top(b);
        b->head_id = b_open(b, T_HEAD, -2, T_HEAD, 0);
    }
}

static void close_head(B *b) {
    if (b->head_id >= 0 && !b->head_closed) {
        while (b->depth > 1 && b->stags[b->depth - 1] != T_HEAD) close_top(b);
        if (b->stags[b->depth - 1] == T_HEAD) close_top(b);
    }
    b->head_closed = 1;
}

static void ensure_body(B *b) {
    ensure_html(b);
    if (!b->body_started) {
        close_head(b);
        while (b->stags[b->depth - 1] != T_HTML) close_top(b);
        b->body_id = b_open(b, T_BODY, -2, T_BODY, 0);
        b->body_started = 1;
    }
}

/* handle_starttag minus the raw-text logic (tokenizer drives that) */
static int32_t handle_starttag(B *b, int tag, int n0, int n1, int nfl) {
    if (tag == T_HTML) {
        if (b->html_id < 0) {
            b->html_id = b_open(b, T_HTML, n0, n1, nfl);
            return b->html_id;
        }
        return -1;
    }
    if (tag == T_HEAD) {
        ensure_html(b);
        if (b->head_id < 0 && !b->body_started) {
            while (b->stags[b->depth - 1] != T_HTML) close_top(b);
            b->head_id = b_open(b, T_HEAD, n0, n1, nfl);
            return b->head_id;
        }
        return -1;
    }
    if (tag == T_BODY) {
        ensure_html(b);
        if (!b->body_started) {
            close_head(b);
            while (b->stags[b->depth - 1] != T_HTML) close_top(b);
            b->body_id = b_open(b, T_BODY, n0, n1, nfl);
            b->body_started = 1;
            return b->body_id;
        }
        return -1;
    }
    int head_ok = (tag >= 0 && tag < N_KNOWN) ? IS_HEAD_OK[tag] : 0;
    if (!b->body_started && head_ok && b->body_id < 0) {
        ensure_head(b);
    } else if (!head_ok) {
        ensure_body(b);
    } /* else: head-ok tag inside body stays where it is */

    if (has_autoclose(tag)) {
        for (int depth = b->depth - 1; depth > 0; depth--) {
            int t = b->stags[depth];
            if (in_autoclose_set(tag, t)) {
                while (b->depth > depth) close_top(b);
                break;
            }
            if (t == T_HTML || t == T_HEAD || t == T_BODY || t == T_TABLE ||
                t == T_TEMPLATE)
                break;
            if ((tag == T_TD || tag == T_TH || tag == T_TR) &&
                (t == T_THEAD || t == T_TBODY || t == T_TFOOT))
                break;
            /* list-item scope: <li> never closes through a nested ul/ol,
             * dt/dd never through dl (mirrors html_parser.py) */
            if (tag == T_LI && (t == T_UL || t == T_OL))
                break;
            if ((tag == T_DT || tag == T_DD) && t == T_DL)
                break;
        }
    }
    int32_t nid = b_open(b, tag, n0, n1, nfl);
    if (tag >= 0 && tag < N_KNOWN && IS_VOID[tag]) close_top(b);
    return nid;
}

static void handle_endtag(B *b, int tag) {
    if (tag >= 0 && tag < N_KNOWN && IS_VOID[tag]) return;
    if (tag == T_HTML || tag == T_BODY) {
        if (tag == T_BODY && b->body_started) {
            while (b->depth > 1 && b->stags[b->depth - 1] != T_BODY) close_top(b);
            if (b->stags[b->depth - 1] == T_BODY) close_top(b);
        }
        return;
    }
    if (tag == T_HEAD) { close_head(b); return; }
    for (int depth = b->depth - 1; depth > 0; depth--) {
        if (b->stags[depth] == tag) {
            while (b->depth > depth) close_top(b);
            return;
        }
    }
}

/* text piece [a,b) with flags; merging with a trailing TEXT sibling is
 * piece-level: pieces of consecutive handle_data calls to the same open
 * element land on the same TEXT node. */
static void handle_data(B *b, const uint8_t *s, int a, int bb, int fl, int n) {
    int top_tag = b->stags[b->depth - 1];
    if (top_tag == -1 /* document */ || top_tag == T_HTML) {
        /* whitespace-only text at document/html level is dropped */
        int only_ws = 1;
        if (fl & PF_LONE_LT) {
            only_ws = 0;
        } else {
            int i = a;
            while (i < bb) {
                int w = uws_len(s, i, n);
                if (!w) { only_ws = 0; break; }
                i += w;
            }
        }
        if (only_ws) return;
        /* the raw bytes are non-whitespace, but an entity could decode to
         * whitespace (e.g. "&nbsp;") and Python's strip-check runs on the
         * DECODED text -- C can't decide, hand the document back */
        if (fl & PF_AMP) b->needs_python = 1;
        ensure_body(b);
    }
    int32_t parent = b->stack[b->depth - 1];
    int32_t last = b->o->lc[parent];
    if (last >= 0 && b->o->types[last] == NT_TEXT) {
        add_piece(b->o, last, a, bb, fl);
        return;
    }
    int32_t nid = add_node(b->o, NT_TEXT, parent, -1, -1, 0);
    add_piece(b->o, nid, a, bb, fl);
}

/* scan memchr for '&' in [a,b) */
static int has_amp(const uint8_t *s, int a, int b) {
    return memchr(s + a, '&', (size_t)(b - a)) != NULL;
}

static int find_ci(const uint8_t *s, int n, int from, const char *needle) {
    int m = (int)strlen(needle);
    for (int i = from; i + m <= n; i++) {
        int k = 0;
        for (; k < m; k++) {
            uint8_t c = s[i + k];
            if (c >= 'A' && c <= 'Z') c += 32;
            if (c != (uint8_t)needle[k]) break;
        }
        if (k == m) return i;
    }
    return -1;
}

static int find_ch(const uint8_t *s, int n, int from, char ch) {
    if (from >= n) return -1;
    const void *p = memchr(s + from, ch, (size_t)(n - from));
    return p ? (int)((const uint8_t *)p - s) : -1;
}

/* attr-name char: [^\s/>=] with \s = unicode ws */
static int attr_name_end(const uint8_t *s, int n, int j) {
    int i = j;
    while (i < n) {
        uint8_t c = s[i];
        if (c == '/' || c == '>' || c == '=') break;
        int w = uws_len(s, i, n);
        if (w) break;
        i += (c < 0x80) ? 1 : 1; /* advance byte-wise; multi-byte ws handled above */
    }
    return i;
}

static int span_needs_lower(const uint8_t *s, int a, int b) {
    for (int i = a; i < b; i++) {
        uint8_t c = s[i];
        if ((c >= 'A' && c <= 'Z') || c >= 0x80) return 1;
    }
    return 0;
}

int32_t chtml_parse(
    const uint8_t *s, int32_t n,
    /* nodes */
    int32_t *types, int32_t *parents, int32_t *fc, int32_t *lc,
    int32_t *ns_arr, int32_t *ps, int32_t *sub_end,
    int32_t *name0, int32_t *name1, int32_t *nflags, int32_t node_cap,
    /* pieces */
    int32_t *pnode, int32_t *p0, int32_t *p1, int32_t *pflags,
    int32_t piece_cap,
    /* attrs */
    int32_t *anode, int32_t *k0, int32_t *k1, int32_t *v0, int32_t *v1,
    int32_t *aflags, int32_t attr_cap,
    /* out: [n_nodes, n_pieces, n_attrs, root, needs_python] */
    int32_t *counts)
{
    Out o = {
        .types = types, .parents = parents, .fc = fc, .lc = lc,
        .ns = ns_arr, .ps = ps, .sub_end = sub_end,
        .name0 = name0, .name1 = name1, .nflags = nflags,
        .node_cap = node_cap, .n_nodes = 0,
        .pnode = pnode, .p0 = p0, .p1 = p1, .pflags = pflags,
        .piece_cap = piece_cap, .n_pieces = 0,
        .anode = anode, .k0 = k0, .k1 = k1, .v0 = v0, .v1 = v1,
        .aflags = aflags, .attr_cap = attr_cap, .n_attrs = 0,
        .root = -1, .overflow = 0,
    };
    /* document sentinel node 0 */
    add_node(&o, 0, -1, -1, -1, 0);

    B b = {
        .o = &o,
        .stack = malloc(64 * sizeof(int32_t)),
        .stags = malloc(64 * sizeof(int32_t)),
        .depth = 0, .stack_cap = 64,
        .html_id = -1, .head_id = -1, .body_id = -1,
        .body_started = 0, .head_closed = 0, .needs_python = 0,
    };
    push(&b, 0, -1);

    Interner intern = { .buf = s };

    int i = 0;
    while (i < n && !o.overflow) {
        int lt = find_ch(s, n, i, '<');
        if (lt < 0) {
            if (i < n)
                handle_data(&b, s, i, n, has_amp(s, i, n) ? PF_AMP : 0, n);
            break;
        }
        if (lt > i)
            handle_data(&b, s, i, lt, has_amp(s, i, lt) ? PF_AMP : 0, n);
        uint8_t c = (lt + 1 < n) ? s[lt + 1] : 0;
        if (c == '/') {
            /* _ENDTAG: </\s*([a-zA-Z][^\t\n\r\f >]*)\s*> */
            int j = lt + 2;
            while (j < n) { int w = uws_len(s, j, n); if (!w) break; j += w; }
            int ok = 0;
            if (j < n && is_ascii_alpha(s[j])) {
                int t0 = j;
                j++;
                while (j < n) {
                    uint8_t ch = s[j];
                    if (ch == '\t' || ch == '\n' || ch == '\r' || ch == '\f' ||
                        ch == ' ' || ch == '>')
                        break;
                    j++;
                }
                int t1 = j;
                while (j < n) { int w = uws_len(s, j, n); if (!w) break; j += w; }
                if (j < n && s[j] == '>') {
                    for (int q = t0; q < t1; q++)
                        if (s[q] >= 0x80) { b.needs_python = 1; break; }
                    int tag = tag_id(&intern, s, t0, t1);
                    handle_endtag(&b, tag);
                    i = j + 1;
                    ok = 1;
                }
            }
            if (!ok) {
                int gt = find_ch(s, n, lt + 1, '>');
                i = gt < 0 ? n : gt + 1;
            }
            continue;
        }
        if (is_ascii_alpha(c)) {
            /* _TAGNAME: [a-zA-Z][^\t\n\r\f />\x00]* */
            int t0 = lt + 1, j = t0 + 1;
            while (j < n) {
                uint8_t ch = s[j];
                if (ch == '\t' || ch == '\n' || ch == '\r' || ch == '\f' ||
                    ch == ' ' || ch == '/' || ch == '>' || ch == 0)
                    break;
                j++;
            }
            int t1 = j;
            for (int q = t0; q < t1; q++)
                if (s[q] >= 0x80) { b.needs_python = 1; break; }
            int tag = tag_id(&intern, s, t0, t1);
            int self_closing = 0;
            /* collect attrs into a local scratch first (the node doesn't
             * exist until handle_starttag runs) */
            int attr_start = o.n_attrs;
            while (j < n) {
                uint8_t ch = s[j];
                if (ch == '>') { j++; break; }
                if (ch == '/' && j + 1 < n && s[j + 1] == '>') {
                    self_closing = 1; j += 2; break;
                }
                if (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' ||
                    ch == '\f' || ch == '/') { j++; continue; }
                /* _ATTR: [\s/]*([^\s/>=]+)(\s*=\s*("..."|'...'|[^\s>]*))? */
                int m = j;
                for (;;) {
                    if (m < n && s[m] == '/') { m++; continue; }
                    int w = (m < n) ? uws_len(s, m, n) : 0;
                    if (w) { m += w; continue; }
                    break;
                }
                int ka = m, kb = attr_name_end(s, n, m);
                if (kb == ka) {
                    /* no name matched: Python does j += 1 on the DECODED
                     * string, i.e. one character, not one byte */
                    j += utf8_len(s[j]);
                    continue;
                }
                m = kb;
                int has_val = 0, va = -1, vb = -1, vamp = 0;
                int m2 = m;
                while (m2 < n) { int w = uws_len(s, m2, n); if (!w) break; m2 += w; }
                if (m2 < n && s[m2] == '=') {
                    m2++;
                    while (m2 < n) { int w = uws_len(s, m2, n); if (!w) break; m2 += w; }
                    has_val = 1;
                    if (m2 < n && (s[m2] == '"' || s[m2] == '\'')) {
                        uint8_t q = s[m2];
                        int e = find_ch(s, n, m2 + 1, (char)q);
                        if (e >= 0) { va = m2 + 1; vb = e; m = e + 1; }
                        else {
                            /* unterminated quote: regex fails the quoted
                             * alternative; [^\s>]* matches from the quote */
                            va = m2; vb = m2;
                            while (vb < n && s[vb] != '>' && !uws_len(s, vb, n))
                                vb++;
                            m = vb;
                        }
                    } else {
                        va = m2; vb = m2;
                        while (vb < n && s[vb] != '>' && !uws_len(s, vb, n)) vb++;
                        m = vb;
                    }
                    if (va < vb) vamp = has_amp(s, va, vb);
                } else {
                    m = kb;
                }
                int afl = (has_val ? AF_HAS_VALUE : 0) | (vamp ? AF_V_AMP : 0) |
                          (span_needs_lower(s, ka, kb) ? AF_K_LOWER : 0);
                add_attr(&o, -1, ka, kb, va, vb, afl);
                j = m;
            }
            int nfl = span_needs_lower(s, t0, t1) ? F_NEEDS_LOWER : 0;
            int32_t nid;
            if (self_closing) {
                nid = handle_starttag(&b, tag, t0, t1, nfl);
                /* handle_startendtag: close if non-void and top is the tag */
                if (!(tag >= 0 && tag < N_KNOWN && IS_VOID[tag]) &&
                    b.stags[b.depth - 1] == tag)
                    close_top(&b);
            } else {
                nid = handle_starttag(&b, tag, t0, t1, nfl);
                if (tag == T_SCRIPT || tag == T_STYLE) {
                    /* raw-text element */
                    const char *close = (tag == T_SCRIPT) ? "</script" : "</style";
                    int rm = find_ci(s, n, j, close);
                    if (rm < 0) {
                        if (j < n)
                            handle_data(&b, s, j, n, 0, n); /* verbatim */
                        handle_endtag(&b, tag);
                        i = n;
                        /* fix attr ownership before leaving */
                        for (int k = attr_start; k < o.n_attrs; k++)
                            o.anode[k] = nid;
                        continue;
                    }
                    if (rm > j) handle_data(&b, s, j, rm, 0, n);
                    int gt = find_ch(s, n, rm + (int)strlen(close), '>');
                    handle_endtag(&b, tag);
                    j = gt < 0 ? n : gt + 1;
                }
            }
            /* assign collected attrs to the opened node (nid == -1 for
             * duplicate html/head/body start tags: attrs are dropped, which
             * matches the Python builder returning without opening) */
            for (int k = attr_start; k < o.n_attrs; k++) o.anode[k] = nid;
            if (nid < 0) o.n_attrs = attr_start;
            i = j;
            continue;
        }
        if (c == '!') {
            if (lt + 4 <= n && memcmp(s + lt, "<!--", 4) == 0) {
                /* find "-->" from lt+4 */
                int end = -1;
                for (int k = lt + 4; k + 3 <= n; k++) {
                    if (s[k] == '-' && s[k + 1] == '-' && s[k + 2] == '>') {
                        end = k; break;
                    }
                }
                int32_t parent = b.stack[b.depth - 1];
                if (end < 0) {
                    int32_t nid = add_node(&o, NT_COMMENT, parent, -1, -1, 0);
                    add_piece(&o, nid, lt + 4, n, 0);
                    break;
                }
                int32_t nid = add_node(&o, NT_COMMENT, parent, -1, -1, 0);
                add_piece(&o, nid, lt + 4, end, 0);
                i = end + 3;
            } else {
                int gt = find_ch(s, n, lt + 1, '>');
                i = gt < 0 ? n : gt + 1;
            }
            continue;
        }
        if (c == '?') {
            int gt = find_ch(s, n, lt + 1, '>');
            int e = gt < 0 ? n : gt;
            int32_t parent = b.stack[b.depth - 1];
            int32_t nid = add_node(&o, NT_PI, parent, -3, -3, 0);
            add_piece(&o, nid, lt + 2, e, 0);
            i = gt < 0 ? n : gt + 1;
            continue;
        }
        /* lone '<' is text */
        handle_data(&b, s, lt, lt + 1, PF_LONE_LT, n);
        i = lt + 1;
    }

    int b_needs_python = b.needs_python;
    free(b.stack);
    free(b.stags);
    interner_free(&intern);

    if (o.overflow) return -ERR_CAPACITY;
    counts[4] = b_needs_python;

    /* root = first ELEMENT child of the document node */
    for (int32_t k = o.fc[0]; k >= 0; k = o.ns[k]) {
        if (o.types[k] == NT_ELEMENT) { o.root = k; break; }
    }
    /* subtree_end: reverse preorder max-propagation (same as Arena.finish) */
    for (int32_t nid = o.n_nodes - 1; nid > 0; nid--) {
        int32_t p = o.parents[nid];
        if (p >= 0 && o.sub_end[nid] > o.sub_end[p]) o.sub_end[p] = o.sub_end[nid];
    }
    counts[0] = o.n_nodes;
    counts[1] = o.n_pieces;
    counts[2] = o.n_attrs;
    counts[3] = o.root;
    return ERR_OK;
}

/* ---- batch extraction --------------------------------------------------
 *
 * chtml_extract_batch runs fuzi_rd/extract.py over every document of a
 * batch whose chtml_parse outputs share one set of node and piece arrays
 * (each parse was pointed at its own base offsets): the <head><title>
 * string before the kill (_title_of), the kill list and its effective-dead
 * cover, the live block candidates with the first-live-body fallback, the
 * character counts (an <a> counts as one tag and all of its live text as
 * link text), the integer TD/LD keep rule, and the "\n"-joined text with
 * UTF-8 byte spans and name[rank] paths.  The caller maps tag names to the
 * EC_* classes and passes the thresholds, and supplies the UTF-8 of every
 * entity-escaped piece (Python's html.unescape decides those).
 */

#define EC_KILL 1
#define EC_BLOCK 2
#define EC_A 4
#define EC_BODY 8
#define EC_HEAD 16
#define EC_TITLE 32

/* node and piece array order of the pointer tables the caller passes */
enum { N_TYPES, N_PARENTS, N_FC, N_LC, N_NS, N_PS, N_END, N_NAME0, N_NAME1 };
enum { P_NODE, P_0, P_1, P_FLAGS };
/* per-doc row of the doc table */
enum { D_NODE_BASE, D_NN, D_PIECE_BASE, D_NPC, D_BUF_BASE, D_ROOT, D_STRIDE = 8 };

#define NAME_SLOTS 256  /* class table: open addressing, power of two */

typedef struct { uint64_t lo, hi; int32_t len, cls; } NameSlot;

/* ASCII-lowered name packed into 16 bytes; 0 when it does not fit (no
 * class name is that long) */
static int pack_name(const uint8_t *s, int len, uint64_t *lo, uint64_t *hi) {
    uint8_t b[16] = {0};
    if (len > 16) return 0;
    for (int k = 0; k < len; k++)
        b[k] = (s[k] >= 'A' && s[k] <= 'Z') ? (uint8_t)(s[k] + 32) : s[k];
    memcpy(lo, b, 8);
    memcpy(hi, b + 8, 8);
    return 1;
}

static uint32_t name_slot(uint64_t lo, uint64_t hi, int len) {
    uint64_t h = (lo ^ (hi * 0x9e3779b97f4a7c15ULL) ^ (uint64_t)len) * 0xff51afd7ed558ccdULL;
    return (uint32_t)(h >> 56) & (NAME_SLOTS - 1);
}

static int class_of(const NameSlot *tab, const uint8_t *s, int len) {
    uint64_t lo, hi;
    if (!pack_name(s, len, &lo, &hi)) return 0;
    for (uint32_t h = name_slot(lo, hi, len); tab[h].len; h = (h + 1) & (NAME_SLOTS - 1))
        if (tab[h].len == len && tab[h].lo == lo && tab[h].hi == hi) return tab[h].cls;
    return 0;
}

/* space-separated names, one class byte each */
static int build_classes(NameSlot *tab, const uint8_t *names, int32_t n, const uint8_t *cls) {
    int count = 0;
    memset(tab, 0, NAME_SLOTS * sizeof(NameSlot));
    for (int i = 0; i < n; count++) {
        int j = i;
        uint64_t lo, hi;
        while (j < n && names[j] != ' ') j++;
        if (j == i || count >= NAME_SLOTS / 2 || !pack_name(names + i, j - i, &lo, &hi))
            return -1;
        uint32_t h = name_slot(lo, hi, j - i);
        while (tab[h].len && !(tab[h].len == j - i && tab[h].lo == lo && tab[h].hi == hi))
            h = (h + 1) & (NAME_SLOTS - 1);
        tab[h].lo = lo;
        tab[h].hi = hi;
        tab[h].len = j - i;
        tab[h].cls |= cls[count];
        i = j + 1;
    }
    return 0;
}

/* characters of valid UTF-8: bytes minus continuation bytes (10xxxxxx),
 * counted eight at a time */
static int64_t utf8_chars(const uint8_t *s, int64_t n) {
    int64_t c = n, i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        memcpy(&w, s + i, 8);
        w = (w & ~(w << 1) & 0x8080808080808080ULL) >> 7;
        c -= (int64_t)((w * 0x0101010101010101ULL) >> 56);
    }
    for (; i < n; i++) c -= (s[i] & 0xc0) == 0x80;
    return c;
}

typedef struct {
    /* the current document: arrays offset to its bases */
    const uint8_t *buf;
    const int32_t *types, *parents, *fc, *ns, *ps, *end, *name0, *name1;
    const int32_t *pn, *p0, *p1, *pf;
    int32_t nn, npc, pk;          /* pk: piece cursor of the candidate walk */
    int64_t piece_base;
    uint8_t *cls, *dead;
    int32_t *rank, *anc;
    /* batch-wide */
    const NameSlot *names;
    int64_t n_ent;
    const int64_t *ent_piece, *ent_off;
    const uint8_t *ent_buf;
    int64_t td_num, td_den, ld_num, ld_den;
    int bad;
    uint8_t *text;
    int64_t text_cap, text_len, text_start, doc_chars, doc_spans;
    int64_t *span_start, *span_end, span_cap, n_spans;
    uint8_t *paths;
    int64_t path_cap, path_len;
    int32_t *path_off;
} Ex;

/* name bytes of element v (raw case; synthesized elements use the table) */
static const uint8_t *name_of(const Ex *x, int32_t v, int *len) {
    int32_t a = x->name0[v];
    if (a == -2) {
        const char *k = KNOWN_TAGS[x->name1[v]];
        *len = (int)strlen(k);
        return (const uint8_t *)k;
    }
    *len = x->name1[v] - a;
    return x->buf + a;
}

static int lower_eq(const uint8_t *a, const uint8_t *b, int len) {
    for (int k = 0; k < len; k++) {
        uint8_t c = a[k], d = b[k];
        if (c >= 'A' && c <= 'Z') c += 32;
        if (d >= 'A' && d <= 'Z') d += 32;
        if (c != d) return 0;
    }
    return 1;
}

/* piece k's UTF-8 (the source span, "<" for a lone '<', or the caller's
 * unescaped entity text) and its length in bytes and characters */
static const uint8_t *piece_text(Ex *x, int32_t k, int64_t *len, int64_t *chars) {
    int32_t f = x->pf[k];
    const uint8_t *s;
    if (f & PF_LONE_LT) {
        *len = *chars = 1;
        return (const uint8_t *)"<";
    }
    if (f & PF_AMP) {
        int64_t g = x->piece_base + k, lo = 0, hi = x->n_ent;
        while (lo < hi) {
            int64_t m = lo + (hi - lo) / 2;
            if (x->ent_piece[m] < g) lo = m + 1; else hi = m;
        }
        if (lo == x->n_ent || x->ent_piece[lo] != g) {
            x->bad = 1;
            *len = *chars = 0;
            return x->ent_buf;
        }
        s = x->ent_buf + x->ent_off[lo];
        *len = x->ent_off[lo + 1] - x->ent_off[lo];
    } else {
        s = x->buf + x->p0[k];
        *len = x->p1[k] - x->p0[k];
    }
    *chars = utf8_chars(s, *len);
    return s;
}

static int is_text(int t) { return t == NT_TEXT || t == NT_CDATA; }

/* 1-based index of element v among its same-named element siblings, dead
 * ones included (extract.py _node_path); memoized per node */
static int32_t rank_of(Ex *x, int32_t v) {
    int len, slen;
    const uint8_t *nm;
    int32_t r = 1;
    if (x->rank[v]) return x->rank[v];
    nm = name_of(x, v, &len);
    for (int32_t s = x->ps[v]; s >= 0; s = x->ps[s]) {
        if (x->types[s] != NT_ELEMENT) continue;
        const uint8_t *sn = name_of(x, s, &slen);
        if (slen != len || !lower_eq(sn, nm, len)) continue;
        if (x->rank[s]) { r += x->rank[s]; break; }
        r++;
    }
    return x->rank[v] = r;
}

/* append ASCII-lowered bytes to the path buffer; past its capacity only
 * the length counts */
static void put_path(Ex *x, const uint8_t *s, int64_t n) {
    if (x->path_len + n <= x->path_cap) {
        uint8_t *d = x->paths + x->path_len;
        for (int64_t k = 0; k < n; k++)
            d[k] = (s[k] >= 'A' && s[k] <= 'Z') ? (uint8_t)(s[k] + 32) : s[k];
    }
    x->path_len += n;
}

static void write_path(Ex *x, int32_t v) {
    int depth = 0;
    for (; v > 0; v = x->parents[v]) x->anc[depth++] = v;
    while (depth--) {
        int len;
        char num[16];
        int32_t a = x->anc[depth];
        const uint8_t *nm = name_of(x, a, &len);
        int nl = snprintf(num, sizeof num, "[%d]", (int)rank_of(x, a));
        put_path(x, (const uint8_t *)"/", 1);
        put_path(x, nm, len);
        put_path(x, (const uint8_t *)num, nl);
    }
}

/* copy the live text of pieces [k, pieces of stop) to the text buffer */
static int64_t copy_text(Ex *x, int32_t k, int32_t stop) {
    int64_t bytes = 0;
    for (; k < x->npc && x->pn[k] < stop; k++) {
        int32_t v = x->pn[k];
        int64_t len, chars;
        if (x->dead[v] || !is_text(x->types[v])) continue;
        const uint8_t *s = piece_text(x, k, &len, &chars);
        if (x->text_len + len > x->text_cap) { x->bad = 1; return bytes; }
        memcpy(x->text + x->text_len, s, (size_t)len);
        x->text_len += len;
        bytes += len;
    }
    return bytes;
}

/* extract_main_content's density test for live block c, and its text,
 * span and path when it is kept.  Candidates arrive in preorder and their
 * subtrees are disjoint, so the piece cursor only moves forward. */
static void consider(Ex *x, int32_t c) {
    int32_t stop = x->end[c], a_end = 0;
    int64_t chars = 0, link = 0, tags = 1;
    while (x->pk < x->npc && x->pn[x->pk] < c) x->pk++;
    int32_t k0 = x->pk;
    for (int32_t i = c + 1; i < stop;) {
        if (x->dead[i]) { i = x->end[i]; continue; }
        if (is_text(x->types[i])) {
            int64_t len, ch;
            while (x->pk < x->npc && x->pn[x->pk] < i) x->pk++;
            for (; x->pk < x->npc && x->pn[x->pk] == i; x->pk++) {
                piece_text(x, x->pk, &len, &ch);
                chars += ch;
                if (i < a_end) link += ch;
            }
        } else if (x->types[i] == NT_ELEMENT && i >= a_end) {
            tags++;  /* an <a> is one tag: its subtree is link text */
            if (x->cls[i] & EC_A) a_end = x->end[i];
        }
        i++;
    }
    if (chars == 0 || chars * x->td_den < x->td_num * tags ||
        x->ld_den * link > x->ld_num * chars)
        return;
    if (x->doc_spans) {
        if (x->text_len >= x->text_cap) { x->bad = 1; return; }
        x->text[x->text_len++] = '\n';
        x->doc_chars++;
    }
    if (x->n_spans >= x->span_cap) { x->bad = 1; return; }
    int64_t start = x->text_len - x->text_start;
    x->span_start[x->n_spans] = start;
    x->span_end[x->n_spans] = start + copy_text(x, k0, stop);
    x->doc_chars += chars;
    x->doc_spans++;
    write_path(x, c);
    if (x->path_len > INT32_MAX) x->bad = 1;
    x->path_off[++x->n_spans] = (int32_t)x->path_len;
}

/* _title_of: the first <title> child of a <head> child of the root, as
 * its string value (every TEXT/CDATA descendant, nothing is dead yet) */
static int64_t write_title(Ex *x, int32_t root, uint8_t *out, int64_t cap) {
    int64_t n = 0;
    for (int32_t h = x->fc[root]; h >= 0; h = x->ns[h]) {
        if (x->types[h] != NT_ELEMENT || !(x->cls[h] & EC_HEAD)) continue;
        for (int32_t t = x->fc[h]; t >= 0; t = x->ns[t]) {
            if (x->types[t] != NT_ELEMENT || !(x->cls[t] & EC_TITLE)) continue;
            int32_t k = 0;
            while (k < x->npc && x->pn[k] < t) k++;
            for (; k < x->npc && x->pn[k] < x->end[t]; k++) {
                int64_t len, chars;
                if (!is_text(x->types[x->pn[k]])) continue;
                const uint8_t *s = piece_text(x, k, &len, &chars);
                if (n + len > cap) { x->bad = 1; return n; }
                memcpy(out + n, s, (size_t)len);
                n += len;
            }
            return n;
        }
    }
    return 0;
}

/* Returns 0, 1 when the path buffer is too small (*path_need holds the
 * bytes it needs; nothing else differs on a rerun), or -1 when the node
 * or piece arrays break the parser's preorder contract or an output would
 * overflow. */
int32_t chtml_extract_batch(
    int32_t n_docs, const int64_t *docs, const uint8_t *buf,
    const int32_t *const *node, const int32_t *const *piece,
    /* entity-escaped pieces: batch piece ids (ascending) and their UTF-8 */
    int64_t n_ent, const int64_t *ent_piece, const int64_t *ent_off,
    const uint8_t *ent_buf,
    /* spec: space-separated tag names, one EC_* byte each; td/ld rule */
    const uint8_t *class_names, int32_t class_names_len,
    const uint8_t *class_bits, const int64_t *rule,
    /* out: element classes per node, text, spans, paths, titles */
    uint8_t *cls, uint8_t *text, int64_t text_cap, int64_t *text_off,
    int64_t *text_chars, int64_t *span_counts, int64_t *span_start,
    int64_t *span_end, int64_t span_cap, uint8_t *paths, int64_t path_cap,
    int32_t *path_off, int64_t *path_need, uint8_t *titles, int64_t title_cap,
    int64_t *title_off)
{
    NameSlot names[NAME_SLOTS];
    if (build_classes(names, class_names, class_names_len, class_bits)) return -1;
    int64_t n_nodes = n_docs ? docs[(n_docs - 1) * D_STRIDE + D_NODE_BASE] +
                               docs[(n_docs - 1) * D_STRIDE + D_NN] : 0;
    Ex x = {
        .names = names, .n_ent = n_ent, .ent_piece = ent_piece,
        .ent_off = ent_off, .ent_buf = ent_buf,
        .td_num = rule[0], .td_den = rule[1], .ld_num = rule[2], .ld_den = rule[3],
        .text = text, .text_cap = text_cap,
        .span_start = span_start, .span_end = span_end, .span_cap = span_cap,
        .paths = paths, .path_cap = path_cap, .path_off = path_off,
    };
    uint8_t *dead = malloc((size_t)n_nodes + 1);
    int32_t *rank = calloc((size_t)n_nodes + 1, sizeof(int32_t));
    int32_t *anc = malloc(((size_t)n_nodes + 1) * sizeof(int32_t));
    if (!dead || !rank || !anc) x.bad = 1;
    text_off[0] = title_off[0] = 0;
    path_off[0] = 0;
    for (int32_t d = 0; d < n_docs && !x.bad; d++) {
        const int64_t *row = docs + (int64_t)d * D_STRIDE;
        int64_t nb = row[D_NODE_BASE], pb = row[D_PIECE_BASE];
        x.buf = buf + row[D_BUF_BASE];
        x.types = node[N_TYPES] + nb;
        x.parents = node[N_PARENTS] + nb;
        x.fc = node[N_FC] + nb;
        x.ns = node[N_NS] + nb;
        x.ps = node[N_PS] + nb;
        x.end = node[N_END] + nb;
        x.name0 = node[N_NAME0] + nb;
        x.name1 = node[N_NAME1] + nb;
        x.pn = piece[P_NODE] + pb;
        x.p0 = piece[P_0] + pb;
        x.p1 = piece[P_1] + pb;
        x.pf = piece[P_FLAGS] + pb;
        x.nn = (int32_t)row[D_NN];
        x.npc = (int32_t)row[D_NPC];
        x.pk = 0;
        x.piece_base = pb;
        x.cls = cls + nb;
        x.dead = dead + nb;
        x.rank = rank + nb;
        x.anc = anc;
        x.text_start = x.text_len;
        x.doc_chars = x.doc_spans = 0;

        /* the preorder contract every walk below relies on */
        for (int32_t k = 0; k < x.npc; k++)
            if (x.pn[k] <= 0 || x.pn[k] >= x.nn || (k && x.pn[k] < x.pn[k - 1]))
                x.bad = 1;
        /* classes, the kill list and its effective-dead cover (extract.py
         * kill_boilerplate_nodes), and the live block candidates */
        int32_t dead_until = 0, block = -1, body = -1;
        x.cls[0] = x.dead[0] = 0;
        for (int32_t i = 1; i < x.nn && !x.bad; i++) {
            int t = x.types[i], len;
            if (x.end[i] <= i || x.end[i] > x.nn || x.parents[i] < 0 ||
                x.parents[i] >= i || x.ps[i] >= i || (x.ns[i] >= 0 && x.ns[i] <= i) ||
                (x.fc[i] >= 0 && x.fc[i] <= i) ||
                (x.name0[i] == -2 && (x.name1[i] < 0 || x.name1[i] >= N_KNOWN))) {
                x.bad = 1;
                break;
            }
            x.cls[i] = 0;
            if (t == NT_ELEMENT) {
                const uint8_t *nm = name_of(&x, i, &len);
                x.cls[i] = (uint8_t)class_of(names, nm, len);
            }
            if (i < dead_until) {
                x.dead[i] = 1;
            } else if ((t == NT_ELEMENT && (x.cls[i] & EC_KILL)) || t == NT_COMMENT ||
                       t == NT_PI) {
                x.dead[i] = 1;
                dead_until = x.end[i];
            } else {
                x.dead[i] = 0;
            }
        }
        int32_t root = (int32_t)row[D_ROOT];
        if (root <= 0 || root >= x.nn) x.bad = 1;
        if (x.bad) break;
        int64_t tn = write_title(&x, root, titles + title_off[d], title_cap - title_off[d]);
        title_off[d + 1] = title_off[d] + tn;
        /* a live block is a candidate when the next live block in preorder
         * lies outside it */
        for (int32_t i = 1; i < x.nn && !x.bad; i++) {
            if (x.dead[i] || x.types[i] != NT_ELEMENT) continue;
            if (body < 0 && (x.cls[i] & EC_BODY)) body = i;
            if (!(x.cls[i] & EC_BLOCK)) continue;
            if (block >= 0 && i >= x.end[block]) consider(&x, block);
            block = i;
        }
        if (block >= 0) consider(&x, block);
        else if (body >= 0) consider(&x, body);
        text_off[d + 1] = x.text_len;
        text_chars[d] = x.doc_chars;
        span_counts[d] = x.doc_spans;
    }
    free(dead);
    free(rank);
    free(anc);
    if (x.bad) return -1;
    *path_need = x.path_len;
    return x.path_len > path_cap ? 1 : 0;
}
