"""Text-analysis batch functions for training-data pipelines.

All hot-path work is vectorized (pyarrow.compute kernels / numpy);
outputs that feed the DuckDB correctness oracle are integer counts or md5
strings so the cross-engine comparison is exact (no float drift).

The statistics behind the quality gate read the text column's Arrow
offset and data buffers: each ASCII character class is a 256-entry byte
table and each document's count one segmented sum over the batch's bytes
(exact, since ASCII bytes never occur inside a multi-byte UTF-8
character), and tokens are the runs of RE2's ``\\s`` inside the trimmed
text.  ``guess_lang`` skips its script count for an ASCII head and
otherwise classifies the head's code points with one table lookup.
``tests/test_functions.py`` keeps the regex and per-character forms as the
references they must equal.

Operators:
  token_stats     whitespace token count + char-class counts per document
  quality_score   integer-threshold quality gate (length / punct / alpha)
  fingerprint     md5 of whitespace-normalized lowercased text
  lang_id         n-gram/script heuristic language guess (non-SQL oracle)
  chunk_batch     row-expanding token-window chunker (LLM pre-tokenization)
  repetition      duplicate word-n-gram fraction (Gopher-style signal)
  gopher_gate     the full published Gopher rule set as one integer gate
  pii_counts      email/URL substring counts (cheap pre-filter)
  pii_scrub       email/URL redaction via vectorized regexp_replace
"""

from __future__ import annotations

import hashlib
import string

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _byte_class(chars: str) -> np.ndarray:
    """256-entry lookup table: 1 for the bytes of the ASCII ``chars``."""
    lut = np.zeros(256, np.uint8)
    lut[list(chars.encode("ascii"))] = 1
    return lut


_PUNCT = _byte_class(".,!?;:")
_DIGIT = _byte_class(string.digits)
_UPPER = _byte_class(string.ascii_uppercase)
_ALPHA = _byte_class(string.ascii_letters)
_SPACE = _byte_class("\t\n\f\r ")  # RE2's \s


def _utf8_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (offsets, data) views of a string / large_string Array:
    row i is ``data[offsets[i]:offsets[i + 1]]`` and ``offsets[0] == 0``."""
    _, off, data = arr.buffers()
    dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offsets = np.frombuffer(off, dtype, len(arr) + 1, arr.offset * dtype().itemsize)
    lo, hi = int(offsets[0]), int(offsets[-1])
    return offsets - lo, np.frombuffer(data or b"", np.uint8, hi - lo, lo)


def _row_sums(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row sums of a uint8 byte mask, one segmented sum per batch."""
    out = np.zeros(len(offsets) - 1, np.int64)
    # only the non-empty rows: their starts are in range and strictly
    # increasing, so each segment ends where the next non-empty row starts
    # (an empty row's start may equal len(mask), which reduceat rejects)
    nz = offsets[1:] > offsets[:-1]
    if nz.any():
        out[nz] = np.add.reduceat(mask, offsets[:-1][nz], dtype=np.int64)
    return out


def token_stats_batch(batch: pa.Table) -> pa.Table:
    r"""Per document: ``n_chars`` (code points), ``n_tokens`` (the pieces
    of the whitespace-trimmed text split on runs of RE2's ``\s``, 0 when
    nothing is left), and the ``[.,!?;:]``, ``[0-9]``, ``[A-Z]`` and
    ``[A-Za-z]`` counts, all read off the column's offset and data
    buffers.  A null text has null stats."""
    text = batch.column("text").combine_chunks()
    offsets, data = _utf8_buffers(text)
    counts = {
        "n_punct": _row_sums(np.take(_PUNCT, data), offsets),
        "n_digit": _row_sums(np.take(_DIGIT, data), offsets),
        "n_upper": _row_sums(np.take(_UPPER, data), offsets),
        "n_alpha": _row_sums(np.take(_ALPHA, data), offsets),
    }
    # a trimmed text neither starts nor ends with an ASCII space (Arrow's
    # whitespace set holds RE2's), so its runs never cross rows, and a
    # non-empty one splits into runs + 1 tokens
    t_off, t_data = _utf8_buffers(pc.utf8_trim_whitespace(text))
    space = np.take(_SPACE, t_data)
    starts = np.empty_like(space)  # the first byte of each run
    starts[:1] = space[:1]
    np.greater(space[1:], space[:-1], out=starts[1:])
    n_tokens = _row_sums(starts, t_off) + 1
    n_tokens[t_off[1:] == t_off[:-1]] = 0
    nulls = text.is_null().to_numpy(zero_copy_only=False) if text.null_count else None
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
            "n_tokens": pa.array(n_tokens, pa.int64(), mask=nulls),
            **{k: pa.array(v, pa.int64(), mask=nulls) for k, v in counts.items()},
        }
    )


def quality_batch(batch: pa.Table) -> pa.Table:
    """Integer-arithmetic quality gate: a document is kept iff
       n_tokens >= 5  and  n_chars >= 30
       and 2*n_alpha >= n_chars            (at least half alphabetic)
       and 20*n_punct <= 3*n_chars         (punct ratio <= 0.15)"""
    stats = token_stats_batch(batch)
    n_chars = stats.column("n_chars")
    ok = pc.and_(
        pc.and_(
            pc.greater_equal(stats.column("n_tokens"), 5),
            pc.greater_equal(n_chars, 30),
        ),
        pc.and_(
            pc.greater_equal(pc.multiply(stats.column("n_alpha"), 2), n_chars),
            pc.less_equal(
                pc.multiply(stats.column("n_punct"), 20), pc.multiply(n_chars, 3)
            ),
        ),
    )
    return stats.append_column("quality_ok", pc.cast(ok, pa.bool_()))


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Document fingerprint: md5 over lowercased, whitespace-collapsed text
    (deterministic, byte-exact across engines)."""
    norm = pc.replace_substring_regex(
        pc.utf8_lower(pc.utf8_trim_whitespace(batch.column("text"))), r"\s+", " "
    )
    digests = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm.to_pylist()]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "fingerprint": pa.array(digests, pa.string()),
        }
    )


# -- language id (heuristic; no SQL equivalent — rows-only oracle) ----------

_SCRIPT_RANGES = (
    ("zh", 0x4E00, 0x9FFF),
    ("ja", 0x3040, 0x30FF),
    ("ko", 0xAC00, 0xD7AF),
    ("ru", 0x0400, 0x04FF),
    ("el", 0x0370, 0x03FF),
    ("ar", 0x0600, 0x06FF),
    ("he", 0x0590, 0x05FF),
)

# High-volume languages by crawl share; each set favors words DISTINCTIVE
# for that language (shared Romance/Germanic function words like "de"/"en"
# appear in at most one set) so the max-hits vote rarely ties.  Close pairs
# (da/no, es/pt) can still tie on short text — ties break to the earlier
# entry, deterministically.
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "with"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "ein", "mit", "auf"},
    "fr": {"le", "la", "et", "les", "des", "est", "une", "dans", "que", "pour"},
    "es": {"el", "la", "de", "que", "y", "los", "en", "un", "una", "por"},
    "it": {"il", "che", "di", "non", "per", "sono", "con", "della", "anche"},
    "pt": {"não", "uma", "para", "com", "você", "mais", "isso", "como", "os"},
    "nl": {"het", "een", "van", "niet", "dat", "ik", "je", "ook", "maar"},
    "sv": {"och", "att", "det", "som", "är", "inte", "jag", "med", "har"},
    "da": {"og", "jeg", "ikke", "til", "hvad", "noget", "kan", "hun", "vil"},
    "pl": {"nie", "się", "jest", "na", "to", "że", "do", "jak", "ale"},
    "ro": {"și", "nu", "este", "cu", "la", "un", "pentru", "care", "mai"},
    "tr": {"bir", "ve", "bu", "için", "ile", "ne", "gibi", "çok", "ama"},
    "id": {"yang", "dan", "di", "itu", "dengan", "untuk", "tidak", "ini", "dari"},
    "fi": {"ja", "on", "ei", "että", "oli", "hän", "mutta", "kun", "niin"},
    "cs": {"je", "se", "na", "to", "že", "jsem", "ale", "tak", "co"},
    "vi": {"của", "và", "là", "không", "có", "được", "người", "trong", "một"},
}


# script of each BMP code point (every range lies in the BMP): 0 for none,
# else 1 + its index in _SCRIPT_RANGES
_SCRIPT_OF = np.zeros(0x10000, np.uint8)
for _i, (_, _lo, _hi) in enumerate(_SCRIPT_RANGES):
    _SCRIPT_OF[_lo : _hi + 1] = _i + 1


def guess_lang(text: str) -> str:
    """The script of at least a tenth of the first 2000 characters (the
    most frequent one, a tie to the one seen first), else the stopword
    set with the most distinct hits among the head's words, else "en"."""
    if not text:
        return "und"
    head = text[:2000]
    if not head.isascii():  # every script range lies above ASCII
        # UTF-16 units: a non-BMP character becomes two surrogates, which
        # are in no range, so counts and first-seen order are kept
        units = np.frombuffer(head.encode("utf-16-le", "surrogatepass"), np.uint16)
        script = np.take(_SCRIPT_OF, units)
        # no script reaches a tenth of the head unless all of them do
        if np.count_nonzero(script) * 10 >= len(head):
            counts = np.bincount(script, minlength=len(_SCRIPT_RANGES) + 1)[1:]
            if counts.max() * 10 >= len(head):
                tied = np.flatnonzero(counts == counts.max())
                first = min(tied, key=lambda i: np.argmax(script == i + 1))
                return _SCRIPT_RANGES[first][0]
    words = set(head.lower().split())
    best_lang, best_hits = "en", 0
    for lang, sw in _STOPWORDS.items():
        hits = len(words & sw)
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang if best_hits else "en"


def lang_id_batch(batch: pa.Table) -> pa.Table:
    langs = [guess_lang(t or "") for t in batch.column("text").to_pylist()]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "lang_guess": pa.array(langs, pa.string()),
        }
    )


def chunk_batch(size: int = 128, stride: int | None = None, min_tokens: int = 1):
    """Row-expanding token-window chunker: each document becomes
    ceil(n_tokens / stride) rows of (doc_id, chunk_id, n_tokens, chunk_text)
    — the standard pre-tokenization step of an LLM training-data pipeline.

    Whitespace tokens (same definition as token_stats); ``stride`` defaults
    to ``size`` (disjoint windows; set stride < size for overlap); trailing
    windows shorter than ``min_tokens`` are dropped.  Runs inside
    ``map_batches`` so chunking streams — no shuffle, output rows inherit
    the input's partitioning.

    Scale note: output is ~(1 + overlap) x input text; write chunks straight
    to partitioned parquet rather than aggregating them."""
    step = stride or size

    def _chunks(batch: pa.Table) -> pa.Table:
        ids, cids, ntk, texts = [], [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = (text or "").split()
            cid = 0
            for start in range(0, len(toks), step):
                window = toks[start : start + size]
                if len(window) < min_tokens:
                    break
                ids.append(doc_id)
                cids.append(cid)
                ntk.append(len(window))
                texts.append(" ".join(window))
                cid += 1
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_id": pa.array(cids, pa.int64()),
                "n_tokens": pa.array(ntk, pa.int64()),
                "chunk_text": pa.array(texts, pa.string()),
            }
        )

    return _chunks


def repetition_batch(batch: pa.Table, n: int = 3) -> pa.Table:
    """Within-document repetition (Gopher-style quality signal): the
    fraction of word n-grams that are duplicates, in exact milli units
    (floor(1000 * (total - distinct) / total); 0 when fewer than n tokens).
    Repetitive boilerplate / SEO spam scores high."""
    ids = batch.column("doc_id")
    out = []
    for t in batch.column("text").to_pylist():
        toks = (t or "").lower().split()
        total = len(toks) - n + 1
        if total <= 0:
            out.append(0)
            continue
        distinct = len({tuple(toks[i : i + n]) for i in range(total)})
        out.append((1000 * (total - distinct)) // total)
    return pa.table(
        {"doc_id": ids, "dup_ngram_milli": pa.array(out, pa.int64())}
    )


def compress_ratio_batch(batch: pa.Table, level: int = 6) -> pa.Table:
    """zlib compression ratio per document in exact milli units
    (floor(1000 * compressed / raw); 0 for empty docs).  The classic
    cheap repetitiveness signal (Gopher/RefinedWeb lineage): machine
    boilerplate and keyword stuffing compress far below prose (~300-400
    milli vs ~550-700).  Deterministic for a fixed zlib version/level;
    rows-only (no SQL equivalent) — pinned by pytest goldens instead."""
    import zlib

    ids = batch.column("doc_id")
    ratios = []
    for t in batch.column("text").to_pylist():
        raw = (t or "").encode("utf-8")
        if not raw:
            ratios.append(0)
            continue
        ratios.append((1000 * len(zlib.compress(raw, level))) // len(raw))
    return pa.table(
        {"doc_id": ids, "compress_milli": pa.array(ratios, pa.int64())}
    )


# simple, engine-portable patterns (same semantics in Python re and RE2)
_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_URL_RE = r"https?://[^\s]+"


def pii_counts_batch(batch: pa.Table) -> pa.Table:
    """Per-document counts of email-like and URL-like substrings —
    vectorized pyarrow regex kernels (the cheap pre-filter a PII-scrubbing
    pass runs before expensive NER)."""
    text = batch.column("text")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_emails": pc.cast(
                pc.count_substring_regex(text, _EMAIL_RE), pa.int64()
            ),
            "n_urls": pc.cast(
                pc.count_substring_regex(text, _URL_RE), pa.int64()
            ),
        }
    )


# the C4/Gopher-style stopword signal: real prose contains function words;
# keyword-stuffed or templated spam doesn't.  Word-boundary alternation so
# one vectorized regex scan counts all hits (RE2-compatible -> DuckDB
# regexp_extract_all is an exact oracle).
_STOP_SIGNAL_RE = r"\b(the|and|of|to|in|is|that|it|for|with|was|on|are|as|be)\b"


def stopword_stats_batch(batch: pa.Table) -> pa.Table:
    """Per-document stopword counts + exact milli ratio
    (floor(1000 * n_stopwords / n_tokens); 0 for empty docs) — a
    quality/fluency signal (Gopher rule: too few stopwords => not prose).
    One vectorized regex count over lowercased text; integer arithmetic."""
    text = batch.column("text")
    lower = pc.utf8_lower(text)
    n_stop = pc.cast(pc.count_substring_regex(lower, _STOP_SIGNAL_RE), pa.int64())
    trimmed = pc.utf8_trim_whitespace(text)
    n_tokens = pc.cast(
        pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+")), pa.int64()
    )
    n_tokens = pc.if_else(
        pc.equal(pc.utf8_length(trimmed), 0), pa.scalar(0, pa.int64()), n_tokens
    )
    ratio = pc.if_else(
        pc.equal(n_tokens, 0),
        pa.scalar(0, pa.int64()),
        pc.divide(pc.multiply(n_stop, 1000), pc.max_element_wise(n_tokens, 1)),
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_stopwords": n_stop,
            "n_tokens": n_tokens,
            "stopword_milli": ratio,
        }
    )


def repetition_profile_batch(batch: pa.Table) -> pa.Table:
    """The Gopher/MassiveText repetition signal family (Rae et al. 2021,
    Table A1) beyond :func:`repetition_batch`'s dup-3-gram fraction — all
    exact integer milli values so the DuckDB oracle matches bit for bit:

      dup_line_milli        lines that repeat an earlier line / lines
      dup_line_char_milli   chars in those repeat lines / chars in all lines
      top{2,3,4}_char_milli count(most frequent n-gram) x its token chars
                            / total token chars (ties: max count first,
                            then max char length; can exceed 1000 for
                            self-overlapping repeats — uncapped, like the
                            published implementations)
      dup{5,10}_char_milli  token chars covered by the UNION of positions
                            of n-grams occurring >= 2 times / total token
                            chars

    Tokens are whitespace-split (empties dropped); n-gram char length is
    the sum of its token lengths (separators excluded on both sides of the
    oracle).  A per-document combiner, no exchange, no state; the n-gram
    counting is numpy rank-chaining — tokens dictionary-encode via
    ``np.unique`` (codes), an n-gram's identity is the composite rank
    ``pair(rank_{n-1}, next code)`` (exact: the pack multiplier is
    ``max+1``, never a hash), counts/coverage come from ``np.unique`` and
    a difference-array cumsum — no Python tuple dicts in the hot loop."""
    import numpy as np

    out: dict[str, list[int]] = {
        "dup_line_milli": [],
        "dup_line_char_milli": [],
        "top2_char_milli": [],
        "top3_char_milli": [],
        "top4_char_milli": [],
        "dup5_char_milli": [],
        "dup10_char_milli": [],
    }

    def _pair(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
        # exact composite rank of aligned (a, b) pairs: both sides are
        # compact ranks < doc length, so a * (max(b)+1) + b < m^2 << 2^63
        ids = a.astype(np.int64) * (int(b.max()) + 1) + b.astype(np.int64)
        return np.unique(ids, return_inverse=True)[1]

    for text in batch.column("text").to_pylist():
        text = text or ""
        lines = text.split("\n")
        uniq_lines, line_counts = np.unique(
            np.array(lines, dtype=object), return_counts=True
        )
        uniq_lens = np.array([len(u) for u in uniq_lines], np.int64)
        dup_cnt = int((line_counts - 1).sum())
        dup_chars = int(((line_counts - 1) * uniq_lens).sum())
        tot_line_chars = int((line_counts * uniq_lens).sum())
        out["dup_line_milli"].append(1000 * dup_cnt // len(lines))
        out["dup_line_char_milli"].append(
            1000 * dup_chars // tot_line_chars if tot_line_chars else 0
        )

        toks = text.split()
        m = len(toks)
        tok_lens = np.array([len(t) for t in toks], np.int64)
        tot = int(tok_lens.sum())
        cs = np.concatenate([[0], np.cumsum(tok_lens)])

        # chain composite ranks: r_n identifies the n-gram starting at i
        ranks: dict[int, "np.ndarray"] = {}
        if m >= 2 and tot:
            codes = np.unique(np.array(toks, dtype=object), return_inverse=True)[1]
            r = _pair(codes[:-1], codes[1:])
            ranks[2] = r
            for n in (3, 4, 5):
                if m < n:
                    break
                r = _pair(r[:-1], codes[n - 1 :])
                ranks[n] = r
            if m >= 10:
                ranks[10] = _pair(ranks[5][:-5], ranks[5][5:])

        for n in (2, 3, 4):
            key = f"top{n}_char_milli"
            if n not in ranks:
                out[key].append(0)
                continue
            _, inv, cnt = np.unique(
                ranks[n], return_inverse=True, return_counts=True
            )
            best_c = int(cnt.max())
            glen = cs[n:] - cs[: m - n + 1]
            best_len = int(glen[cnt[inv] == best_c].max())
            out[key].append(1000 * best_c * best_len // tot)
        for n in (5, 10):
            key = f"dup{n}_char_milli"
            if n not in ranks:
                out[key].append(0)
                continue
            _, inv, cnt = np.unique(
                ranks[n], return_inverse=True, return_counts=True
            )
            dup_pos = np.flatnonzero(cnt[inv] >= 2)
            delta = np.zeros(m + 1, np.int64)
            np.add.at(delta, dup_pos, 1)
            np.add.at(delta, dup_pos + n, -1)
            covered = np.cumsum(delta[:-1]) > 0
            out[key].append(1000 * int(tok_lens[covered].sum()) // tot)
    return pa.table(
        {"doc_id": batch.column("doc_id")}
        | {k: pa.array(v, pa.int64()) for k, v in out.items()}
    )


# GPT-2-style pre-tokenizer pattern, RE2-safe (no lookahead): contraction
# suffixes, space-prefixed letter runs, digit runs, punctuation runs, then
# whitespace runs.  The original's trailing `\s+(?!\S)` split is dropped
# (RE2 has no lookahead), so a whitespace run counts as ONE token — fine
# for a budgeting estimator, and identical in both engines because Arrow
# and DuckDB both scan with RE2's leftmost-first alternation.
_BPE_ISH_RE = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"


def bpe_token_count_batch(batch: pa.Table) -> pa.Table:
    """Token-count estimation for budget planning (context packing, cost
    models): whitespace tokens next to a BPE-ish regex pre-token count
    (GPT-2 pattern family).  One vectorized RE2 count per document, no
    exchange; exact integers so the DuckDB oracle matches."""
    text = batch.column("text")
    trimmed = pc.utf8_trim_whitespace(text)
    n_ws = pc.cast(
        pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+")), pa.int64()
    )
    n_ws = pc.if_else(
        pc.equal(pc.utf8_length(trimmed), 0), pa.scalar(0, pa.int64()), n_ws
    )
    n_bpe = pc.cast(pc.count_substring_regex(text, _BPE_ISH_RE), pa.int64())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_ws_tokens": n_ws,
            "n_bpe_tokens": n_bpe,
        }
    )


_GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_gate_batch(batch: pa.Table) -> pa.Table:
    """The published Gopher/MassiveText document-quality gate (Rae et al.
    2021, Appendix A) as ONE vectorized pass — all rules in exact integer
    arithmetic (multiplications, never divisions) so the DuckDB oracle
    matches bit for bit:

      1. 50 <= word count <= 100,000
      2. mean word length in [3, 10]      (3*n_tokens <= word_chars <= 10*n_tokens)
      3. symbol-to-word ratio <= 0.1      (symbols: '#', '...', '…')
      4. < 90% of lines bullet-started; < 30% of lines '...'-ended
      5. >= 80% of words contain an alphabetic character
      6. >= 2 distinct stopwords of {the, be, to, of, and, that, have, with}

    Embarrassingly parallel: RE2 kernels per batch, no exchange, no state.
    The alpha-word count uses a separator-doubling pad (every token gets
    its own flanking spaces) so non-overlapping ``' [^ ]*[A-Za-z][^ ]* '``
    matches count tokens exactly — RE2 has no lookahead."""
    text = batch.column("text")
    trimmed = pc.utf8_trim_whitespace(text)
    trimmed_len = pc.utf8_length(trimmed)
    n_tokens = pc.cast(
        pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+")), pa.int64()
    )
    n_tokens = pc.if_else(
        pc.equal(trimmed_len, 0), pa.scalar(0, pa.int64()), n_tokens
    )
    word_chars = pc.cast(
        pc.subtract(trimmed_len, pc.count_substring_regex(trimmed, r"\s")),
        pa.int64(),
    )
    n_sym = pc.cast(
        pc.add(
            pc.add(
                pc.count_substring(text, "#"),
                pc.count_substring(text, "..."),
            ),
            pc.count_substring(text, "…"),
        ),
        pa.int64(),
    )
    n_lines = pc.cast(
        pc.add(pc.count_substring(text, "\n"), 1), pa.int64()
    )
    n_bullet = pc.cast(
        pc.count_substring_regex(text, r"(?m)^[•\-\*]"), pa.int64()
    )
    n_ellipsis_end = pc.cast(
        pc.count_substring_regex(text, r"(?m)\.\.\.$"), pa.int64()
    )
    pad = pc.binary_join_element_wise(
        " ", pc.replace_substring_regex(trimmed, r"\s+", "  "), " ", ""
    )
    n_alpha_tokens = pc.cast(
        pc.count_substring_regex(pad, r" [^ ]*[A-Za-z][^ ]* "), pa.int64()
    )
    lower = pc.utf8_lower(text)
    n_stop_kinds = pa.array([0] * batch.num_rows, pa.int64())
    for w in _GOPHER_STOPWORDS:
        n_stop_kinds = pc.add(
            n_stop_kinds,
            pc.cast(pc.match_substring_regex(lower, rf"\b{w}\b"), pa.int64()),
        )
    rules = [
        pc.and_(
            pc.greater_equal(n_tokens, 50), pc.less_equal(n_tokens, 100_000)
        ),
        pc.and_(
            pc.less_equal(pc.multiply(n_tokens, 3), word_chars),
            pc.less_equal(word_chars, pc.multiply(n_tokens, 10)),
        ),
        pc.less_equal(pc.multiply(n_sym, 10), n_tokens),
        pc.less(pc.multiply(n_bullet, 10), pc.multiply(n_lines, 9)),
        pc.less(pc.multiply(n_ellipsis_end, 10), pc.multiply(n_lines, 3)),
        pc.greater_equal(
            pc.multiply(n_alpha_tokens, 5), pc.multiply(n_tokens, 4)
        ),
        pc.greater_equal(n_stop_kinds, 2),
    ]
    ok = rules[0]
    for r in rules[1:]:
        ok = pc.and_(ok, r)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": n_tokens,
            "word_chars": word_chars,
            "n_sym": n_sym,
            "n_lines": n_lines,
            "n_bullet": n_bullet,
            "n_ellipsis_end": n_ellipsis_end,
            "n_alpha_tokens": n_alpha_tokens,
            "n_stop_kinds": n_stop_kinds,
            "gopher_ok": pc.cast(ok, pa.bool_()),
        }
    )


# C4 terminal punctuation (Raffel et al. 2020 §2.2: period, exclamation
# mark, question mark, or end quotation mark).
_C4_END_MARKS = (".", "!", "?", '"')


def c4_clean_batch(
    batch: pa.Table,
    *,
    text_col: str = "text",
    min_words_per_line: int = 5,
    min_lines: int = 3,
    sep: str = "\n",
) -> pa.Table:
    r"""The published C4 cleaning heuristics (Raffel et al. 2020, "Exploring
    the Limits of Transfer Learning", §2.2 — the filter that produced the
    C4 corpus) as ONE vectorized batch pass:

      line level (a line is kept only if ALL hold, after strip):
        1. ends in terminal punctuation: ``. ! ? "``
        2. has >= ``min_words_per_line`` words (5) — words are RE2
           ``\S+`` runs (ASCII whitespace class, the corpus token
           convention DuckDB shares; unicode exotica like NBSP do NOT
           split words, unlike Python ``str.split``)
        3. does not contain the word "javascript" (case-insensitive)
      page level (the document is dropped unless ALL hold):
        4. >= ``min_lines`` surviving lines (3; C4 counts *sentences* via
           NLTK — surviving lines are this build's deterministic,
           oracle-exact proxy, documented deviation)
        5. does not contain "lorem ipsum" (case-insensitive)
        6. does not contain a curly brace ``{``

    (C4's bad-words page drop needs its external word list and is covered
    separately by the quality gates; the span dedup C4 pairs with these
    rules is :func:`fuzi_rd.functions.dedup` ``dup_span_scrub``.)

    Everything is Arrow-kernel work — split to a list array, per-line
    predicates on the flattened child, surviving lines re-listed via
    numpy offset arithmetic and re-joined with ``pc.binary_join`` — no
    Python loop, no exchange, no state: embarrassingly parallel at any
    scale.  All predicates are RE2/substring kernels DuckDB mirrors
    exactly, so the whole operator is SQL-oracle-checkable.

    Returns the surviving rows with ``text_col`` replaced by the cleaned
    text (kept lines joined by ``sep``) and an ``n_lines`` kept-line
    count; all other columns pass through.
    """
    import numpy as np

    text = pc.fill_null(batch.column(text_col), "")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    lines = pc.split_pattern(text, sep)
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    flat = pc.list_flatten(lines)
    # line.strip() on the classic whitespace set (matches DuckDB
    # trim(line, ' ' || chr(9) || chr(13) || chr(12) || chr(11)))
    stripped = pc.utf8_trim(flat, " \t\r\f\v")

    ends_ok = pc.ends_with(stripped, _C4_END_MARKS[0])
    for mark in _C4_END_MARKS[1:]:
        ends_ok = pc.or_(ends_ok, pc.ends_with(stripped, mark))
    n_words = pc.count_substring_regex(stripped, r"\S+")
    words_ok = pc.greater_equal(n_words, min_words_per_line)
    no_js = pc.invert(
        pc.match_substring(stripped, "javascript", ignore_case=True)
    )
    keep_line = pc.and_(pc.and_(ends_ok, words_ok), no_js)

    keep_np = keep_line.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = lines.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(keep_np)))
    new_offsets = csum[offsets]
    kept = pa.ListArray.from_arrays(
        pa.array(new_offsets, pa.int32()), pc.filter(stripped, keep_line)
    )
    cleaned = pc.binary_join(kept, sep)
    n_kept = pa.array(np.diff(new_offsets), pa.int64())

    page_ok = pc.and_(
        pc.and_(
            pc.greater_equal(n_kept, min_lines),
            pc.invert(
                pc.match_substring(text, "lorem ipsum", ignore_case=True)
            ),
        ),
        pc.invert(pc.match_substring(text, "{")),
    )

    out = batch.set_column(
        batch.schema.get_field_index(text_col), text_col, cleaned
    ).append_column("n_lines", n_kept)
    return out.filter(page_ok)


def pii_scrub_batch(batch: pa.Table) -> pa.Table:
    """Redaction pass: replace email-like and URL-like substrings with
    placeholder tokens — two vectorized ``pc.replace_substring_regex``
    kernels per batch, no Python loop.  Both patterns are RE2-compatible,
    so DuckDB's regexp_replace(..., 'g') is an exact oracle.  Emails are
    scrubbed FIRST so a URL containing an @ query param can't eat an
    address."""
    text = batch.column("text")
    scrubbed = pc.replace_substring_regex(
        pc.replace_substring_regex(text, _EMAIL_RE, "<EMAIL>"),
        _URL_RE,
        "<URL>",
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "scrubbed_text": scrubbed,
        }
    )


def normalize_text_batch(batch: pa.Table) -> pa.Table:
    """Canonical text normalization (the pass run before hashing/dedup so
    byte-level encoding variants of the same prose collapse): Unicode NFC +
    whitespace collapse + trim.

    NFC runs through ``unicodedata.normalize`` per row — a single C call;
    this build's ``pc.utf8_normalize`` is a no-op (pyarrow compiled without
    utf8proc), verified at operator-authoring time against DuckDB's
    nfc_normalize.  The whitespace pass is one vectorized RE2
    ``replace_substring_regex`` + ``utf8_trim_whitespace``.  DuckDB oracle:
    ``trim(regexp_replace(nfc_normalize(text), '\\s+', ' ', 'g'))``."""
    import unicodedata

    nfc = pa.array(
        [
            unicodedata.normalize("NFC", t) if t is not None else None
            for t in batch.column("text").to_pylist()
        ],
        pa.string(),
    )
    norm = pc.utf8_trim_whitespace(pc.replace_substring_regex(nfc, r"\s+", " "))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "norm_text": norm,
        }
    )
