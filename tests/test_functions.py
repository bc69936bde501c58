"""Tests for the training-data operator layer: text stats, dedup (exact /
MinHash / SimHash), similarity search, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest

from fuzi_rd.functions import dedup, multimodal, simsearch, textstats


def _docs_table(rows):
    return pa.table(
        {
            "doc_id": pa.array(list(range(len(rows))), pa.int64()),
            "text": pa.array(rows, pa.string()),
        }
    )


def test_token_stats():
    t = textstats.token_stats_batch(
        _docs_table(["Hello, World! 42", "", "   ", "a b  c"])
    )
    assert t.column("n_tokens").to_pylist() == [3, 0, 0, 3]
    assert t.column("n_punct").to_pylist() == [2, 0, 0, 0]
    assert t.column("n_digit").to_pylist() == [2, 0, 0, 0]
    assert t.column("n_upper").to_pylist() == [2, 0, 0, 0]


def test_quality_gate():
    good = "This is a perfectly reasonable sentence with enough words."
    bad_punct = "a.... b;;;; c!!!! d???? e::::.... more!!!!"
    t = textstats.quality_batch(_docs_table([good, bad_punct, "short"]))
    assert t.column("quality_ok").to_pylist() == [True, False, False]


def test_chunking():
    toks = ["t%d" % i for i in range(300)]
    t = textstats.chunk_batch(size=128)(_docs_table([" ".join(toks), "", "a b"]))
    # doc 0: 300 tokens -> chunks of 128/128/44; doc 1 empty -> none; doc 2 -> 1
    assert t.column("doc_id").to_pylist() == [0, 0, 0, 2]
    assert t.column("chunk_id").to_pylist() == [0, 1, 2, 0]
    assert t.column("n_tokens").to_pylist() == [128, 128, 44, 2]
    assert t.column("chunk_text").to_pylist()[0] == " ".join(toks[:128])
    assert t.column("chunk_text").to_pylist()[2] == " ".join(toks[256:])
    # overlapping windows: stride < size
    t2 = textstats.chunk_batch(size=4, stride=2)(_docs_table(["a b c d e f"]))
    assert t2.column("chunk_text").to_pylist() == ["a b c d", "c d e f", "e f"]
    # min_tokens drops short trailing windows
    t3 = textstats.chunk_batch(size=4, stride=2, min_tokens=3)(
        _docs_table(["a b c d e f"])
    )
    assert t3.column("chunk_text").to_pylist() == ["a b c d", "c d e f"]


def test_repetition():
    t = textstats.repetition_batch(
        _docs_table(
            [
                "a b c " * 10,        # "a b c a b c ..." is maximally repetitive
                "w1 w2 w3 w4 w5 w6",  # all 3-grams distinct -> 0
                "too short",          # < 3 tokens -> 0
                "",
            ]
        )
    )
    vals = t.column("dup_ngram_milli").to_pylist()
    assert vals[0] == (1000 * (28 - 3)) // 28  # 28 total 3-grams, 3 distinct
    assert vals[1:] == [0, 0, 0]


def test_pii_counts():
    t = textstats.pii_counts_batch(
        _docs_table(
            [
                "mail me at a.b+c@example.com or x@y.org thanks",
                "see https://example.com/page and http://a.b/c?d=1",
                "no patterns here",
            ]
        )
    )
    assert t.column("n_emails").to_pylist() == [2, 0, 0]
    assert t.column("n_urls").to_pylist() == [0, 2, 0]


def test_lang_guess():
    assert textstats.guess_lang("这是一段中文文本，用于测试语言识别") == "zh"
    assert textstats.guess_lang("Русский текст для проверки") == "ru"
    assert textstats.guess_lang("the cat sat on the mat with it") == "en"
    assert textstats.guess_lang("") == "und"


def test_lang_guess_widened_latin_scripts():
    """VERDICT r2 item 8: the stopword table covers the next tier of
    high-volume Latin-script crawl languages."""
    fixtures = {
        "it": "il gatto che non vede sono sicuro per la strada con calma",
        "pt": "não sei para onde você vai mais isso é como os outros",
        "nl": "het is een mooi huis maar ik denk dat je ook niet komt",
        "sv": "och jag är inte säker på att det som har hänt med oss",
        "da": "og jeg ved ikke hvad hun vil sige til noget af det kan",
        "pl": "nie wiem jak to jest ale że się da zrobić do jutra",
        "ro": "nu este clar pentru mine care mai vine cu un plan la noi",
        "tr": "bir gün bu ev için ile ne kadar çok ama güzel oldu gibi",
        "id": "yang penting itu dan tidak akan pergi dengan ini dari untuk",
        "fi": "ja se on niin että hän ei tullut mutta oli jo kun menin",
        "cs": "to je ale dobré že se nám tak daří jsem rád co vidím",
        "vi": "của chúng ta và đây là một người không có được trong nhà",
    }
    for lang, text in fixtures.items():
        assert textstats.guess_lang(text) == lang, (lang, text)


def _regex_token_stats(batch: pa.Table) -> pa.Table:
    """The regex form of ``token_stats_batch``: the reference its byte-table
    form must reproduce exactly."""
    import pyarrow.compute as pc

    text = batch.column("text")
    trimmed = pc.utf8_trim_whitespace(text)
    n_tokens = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
    n_tokens = pc.if_else(
        pc.equal(pc.utf8_length(trimmed), 0), pa.scalar(0, pa.int32()), n_tokens
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
            "n_tokens": pc.cast(n_tokens, pa.int64()),
            **{
                k: pc.cast(pc.count_substring_regex(text, pattern), pa.int64())
                for k, pattern in (
                    ("n_punct", r"[.,!?;:]"),
                    ("n_digit", r"[0-9]"),
                    ("n_upper", r"[A-Z]"),
                    ("n_alpha", r"[A-Za-z]"),
                )
            },
        }
    )


def _loop_guess_lang(text: str) -> str:
    """The per-character form of ``guess_lang``: the reference its
    vectorized form must reproduce exactly."""
    if not text:
        return "und"
    counts: dict[str, int] = {}
    for ch in text[:2000]:
        cp = ord(ch)
        for lang, lo, hi in textstats._SCRIPT_RANGES:
            if lo <= cp <= hi:
                counts[lang] = counts.get(lang, 0) + 1
                break
    if counts:
        best = max(counts, key=counts.get)
        if counts[best] * 10 >= min(len(text), 2000):
            return best
    words = set(text[:2000].lower().split())
    best_lang, best_hits = "en", 0
    for lang, sw in textstats._STOPWORDS.items():
        hits = len(words & sw)
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang if best_hits else "en"


def _differential_texts() -> list:
    from fuzi_rd.sources.pages import pages_table
    from fuzi_rd.stages.extractor import ExtractPages

    odd_spaces = "  　\u0085\v\x1c\x1d\x1e\x1f"
    texts = [
        None, "", " ", "\t\n\f\r ", odd_spaces, "x", "Hello, World! 42",
        *(f"{c}lead and trail{c}" for c in odd_spaces),
        *(f"inner{c}space{c}{c}here" for c in odd_spaces),
        f"mixed{odd_spaces}run \t of{odd_spaces} spaces",
        "line one.\r\nline two!\r\n\r\nline three?\r\n",
        "emoji 😀 and 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 math 𝟘𝟙 plus 𠜎 CJK Ext-B, OK?",
        "𠜎𠜱𠝹" * 50,
        "Ελληνικά Русский Ελληνικά Русский",  # 8 + 7 letters: el wins
        "Русский Ελληνικά Русский Ελληνικά",  # 7 + 8 letters: el wins
        "абв αβγ",  # 3 + 3 letters: a tie, ru seen first
        "αβγ абв",  # the same tie, el seen first
        "日本 ひら カタ 한국",  # zh, ja, ko all at once
        "a" * 2000 + "这是一段中文文本" * 100,  # the script after char 2000
        "the cat " * 300 + "и" * 400,  # under a tenth of the head
        "w " * 45 + "αβγабвאבגعر",  # a tenth in scripts, none alone
        "w " * 40 + "абвгдежзийклмн",  # one script at 15%
        "é" * 1999 + "ü",
        "A.B,C!D?E;F:G 0123456789 [ZZZ] {aa} café ÀÉÎ",
        *textstats._STOPWORDS["en"],
    ]
    for sw in textstats._STOPWORDS.values():
        texts.append(" ".join(sorted(sw)))
        texts.append(" ".join(sorted(sw)).upper() + " ¿qué? " + " ".join(sorted(sw)))
    out = ExtractPages()(pages_table(300, start=11))
    texts += out.column("extracted_text").to_pylist()
    return texts


def test_textstats_match_regex_and_loop_references():
    """``token_stats_batch`` (byte tables over the Arrow buffers) equals the
    regex form, and ``guess_lang`` (vectorized scripts) equals the
    per-character form, on Unicode whitespace, CRLF, non-BMP text, script
    ties in both orders, scripts past character 2000, every stopword
    language and extracted fixture pages; as string and large_string,
    sliced and in several chunks.  ``quality_batch`` and ``lang_id_batch``
    run the same code, so they agree too."""
    from fuzi_rd.sources.pages import pages_table
    from fuzi_rd.stages.extractor import ExtractPages

    texts = _differential_texts()
    assert len({_loop_guess_lang(t or "") for t in texts}) >= 20
    # extracted pages whose last row is an error, as the corpus cleaning sees
    # them: an error row's extracted_text is ""
    pages = pages_table(4, start=11).select(["url", "html"])
    pages = pages.set_column(1, "html", pa.array([*pages["html"].to_pylist()[:3], b""]))
    extracted = ExtractPages()(pages)
    assert extracted.column("status").to_pylist()[-1] == "error"
    error_tail = extracted.column("extracted_text").combine_chunks()
    for typ in (pa.string(), pa.large_string()):
        col = pa.array(texts, typ)
        for text in (
            col,
            col.slice(3, len(col) - 7),
            pa.chunked_array([col.slice(0, 5), col.slice(5, 0), col.slice(5)]),
            pa.array([], typ),
            pa.array([None, None], typ),
            pa.nulls(2, typ),
            # a batch that ends in empty or null rows
            pa.array(["ab.", ""], typ),
            pa.array(["Ab1.", None], typ),
            pa.array(["x", "Ab1. cd", "", None, ""], typ),
            error_tail.cast(typ),
        ):
            n = len(text)
            batch = pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": text})
            want = _regex_token_stats(batch)
            got = textstats.token_stats_batch(batch)
            assert got.schema == want.schema
            for c in want.column_names:
                assert got.column(c).to_pylist() == want.column(c).to_pylist(), c
        sliced = col.slice(3, 40)
        offsets, data = textstats._utf8_buffers(sliced)
        assert [bytes(data[a:b]).decode() for a, b in zip(offsets, offsets[1:])] == [
            t or "" for t in sliced.to_pylist()
        ]
    for t in texts:
        assert textstats.guess_lang(t or "") == _loop_guess_lang(t or ""), t
    assert textstats.guess_lang("\ud800 αβγ") == _loop_guess_lang("\ud800 αβγ")


def test_paragraph_dedup_keep(ray_session):
    """First (doc_id, para_idx) occurrence of each distinct paragraph wins
    corpus-wide; survivors reassemble in order; fully-duplicated docs are
    absent from the output."""
    import ray

    docs = [
        "boiler\n\nunique a",   # keeps both (first occurrences)
        "boiler\n\nunique b",   # boiler dropped
        "unique a\n\nboiler",   # both paragraphs seen earlier -> absent
    ]
    out = dedup.paragraph_dedup_keep(
        ray.data.from_arrow(_docs_table(docs))
    ).take_all()
    got = {r["doc_id"]: r["text"] for r in out}
    assert got == {0: "boiler\n\nunique a", 1: "unique b"}


def test_paragraph_dedup_packed_key_guards(ray_session):
    """The packed (doc_id << 20) | para_idx key raises loudly instead of
    silently bleeding para_idx into doc_id bits (ADVICE r3)."""
    import pyarrow as pa
    import pytest
    import ray

    too_many = "\n\n" * (1 << 20)  # 2^20 + 1 paragraphs
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([0], pa.int64()), "text": [too_many]})
    )
    with pytest.raises(Exception, match="paragraphs"):
        dedup.paragraph_dedup_keep(ds).take_all()

    big_id = 1 << 43
    ds2 = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([big_id], pa.int64()), "text": ["x"]})
    )
    with pytest.raises(Exception, match="packed-key range"):
        dedup.paragraph_dedup_keep(ds2).take_all()


def test_line_scrub_removes_corpus_frequent_lines(ray_session):
    """Lines in >= min_docs DISTINCT docs vanish from EVERY doc (unlike
    paragraph dedup's keep-first); unique lines survive in order; every
    input doc survives, possibly emptied."""
    import ray

    docs = [
        "nav\nbody zero\nfooter",
        "nav\nbody one\nfooter",
        "nav\nnav\nbody two",  # repeated within ONE doc: counts once
        "nav",                  # fully boilerplate -> text becomes ""
    ]
    out = dedup.line_scrub(
        ray.data.from_arrow(_docs_table(docs)), min_docs=3
    ).take_all()
    got = {r["doc_id"]: r["text"] for r in out}
    # "nav" is in 4 distinct docs (scrubbed); "footer" only in 2 (kept)
    assert got == {
        0: "body zero\nfooter",
        1: "body one\nfooter",
        2: "body two",
        3: "",
    }


def test_line_scrub_broadcast_cap_guard(ray_session):
    """An adversarial corpus with a huge recurring-line set hard-fails
    instead of OOMing the driver (the df_cap/top_k production rule)."""
    import pytest
    import ray

    docs = ["x0\nx1\nx2\nx3", "x0\nx1\nx2\nx3"]
    with pytest.raises(ValueError, match="driver-memory hazard"):
        dedup.line_scrub(
            ray.data.from_arrow(_docs_table(docs)),
            min_docs=2,
            max_boilerplate_lines=2,
        ).take_all()


def test_stopword_stats_batch():
    """Stopword signal: vectorized word-boundary count + exact milli ratio
    (oracle-checked too)."""
    t = textstats.stopword_stats_batch(
        _docs_table(
            [
                "the cat and the dog sat on it",   # 5 stopwords / 8 tokens
                "buy cheap pills now click here",  # 0 / 6
                "",                                 # 0 / 0
            ]
        )
    )
    assert t.column("n_stopwords").to_pylist() == [5, 0, 0]
    assert t.column("n_tokens").to_pylist() == [8, 6, 0]
    assert t.column("stopword_milli").to_pylist() == [625, 0, 0]


def test_url_normalize():
    """Each canonicalization rule: fragment, utm variants, authority
    lowercasing (path case preserved), trailing slash, relative
    passthrough."""
    from fuzi_rd.functions.urltools import normalize_urls

    got = normalize_urls(
        pa.array(
            [
                "HTTPS://WWW.Example.COM/Docs/A?utm_source=feed",
                "https://x.io/p?utm_campaign=c&page=2#sec",
                "http://a.b/Path/?a=1&utm_medium=email&b=2",
                "https://Host.com/Dir/",
                "relative/Path/#frag",
                "https://h.com/?utm_a=1&utm_b=2&q=3",
            ]
        )
    ).to_pylist()
    assert got == [
        "https://www.example.com/Docs/A",
        "https://x.io/p?page=2",
        "http://a.b/Path/?a=1&b=2",
        "https://host.com/Dir",
        "relative/Path",
        "https://h.com/?q=3",
    ]


def test_host_and_domain_extraction():
    """Host: userinfo/port stripped, lowercased, null for relative urls.
    Registered domain: 2-label default, known second-level suffixes take 3
    labels, bare hosts pass through."""
    from fuzi_rd.functions.urltools import extract_hosts, registered_domains

    urls = pa.array(
        [
            "https://WWW.Example.COM/path",
            "http://user:pw@News.CDN.Host5.co.uk:8080/x?q=1",
            "https://a.b.c.host.com.au/",
            "https://localhost:9999/admin",
            "relative/path",
            "ftp://files.example.org/pub",
        ]
    )
    hosts = extract_hosts(urls)
    assert hosts.to_pylist() == [
        "www.example.com",
        "news.cdn.host5.co.uk",
        "a.b.c.host.com.au",
        "localhost",
        None,
        "files.example.org",
    ]
    assert registered_domains(hosts).to_pylist() == [
        "example.com",
        "host5.co.uk",
        "host.com.au",
        "localhost",
        None,
        "example.org",
    ]


def test_domain_blocklist_keep(ray_session):
    import ray

    from fuzi_rd.functions.urltools import domain_blocklist_keep

    rows = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "url": [
                "https://good.example.com/a",
                "https://Sub.Bad.co.uk/b",  # blocked via registered domain
                "https://bad.co.uk/c",
                "https://other.io/d",
            ],
        }
    )
    kept = domain_blocklist_keep(
        ray.data.from_arrow(rows), blocked=["bad.co.uk"]
    )
    assert sorted(r["doc_id"] for r in kept.take_all()) == [0, 3]


def test_compress_ratio_batch():
    """Repetitive text compresses far below prose; empty docs score 0;
    values are exact milli integers (pinned: deterministic for the pinned
    zlib level)."""
    import zlib as _zlib

    prose = "The quick brown fox jumps over the lazy dog near the river bank. " * 8
    spam = "buy now " * 64
    t = textstats.compress_ratio_batch(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": [prose, spam, ""],
            }
        )
    )
    got = t.column("compress_milli").to_pylist()
    assert got[2] == 0
    assert got[1] < got[0] < 1000
    assert got[0] == (1000 * len(_zlib.compress(prose.encode(), 6))) // len(
        prose.encode()
    )


def test_stratified_sample_keep(ray_session):
    """Per-stratum quota: a 1000-row hot domain keeps ~cap rows, a
    below-cap domain keeps everything; the kept set is deterministic."""
    import hashlib

    import ray

    from fuzi_rd.functions.sampling import stratified_sample_keep

    n_hot = 1000
    rows = pa.table(
        {
            "doc_id": pa.array(range(n_hot + 5), pa.int64()),
            "domain": ["hot.com"] * n_hot + ["cold.org"] * 5,
        }
    )
    cap = 30
    out = stratified_sample_keep(
        ray.data.from_arrow(rows), key_col="domain", cap=cap
    ).take_all()
    by_dom = {}
    for r in out:
        by_dom.setdefault(r["domain"], []).append(r["doc_id"])
    # cold stratum (n < cap): threshold 256, everything kept
    assert sorted(by_dom["cold.org"]) == list(range(n_hot, n_hot + 5))
    # hot stratum: expectation ~cap (threshold floor(256*30/1000)=7)
    thr = (256 * cap) // n_hot
    expect = [
        i
        for i in range(n_hot)
        if hashlib.md5(str(i).encode()).digest()[0] < thr
    ]
    assert sorted(by_dom["hot.com"]) == expect
    assert 0 < len(expect) < 3 * cap


def test_weighted_sample_topk_es_keys(ray_session):
    """Efraimidis-Spirakis sample equals a pure-Python evaluation of the
    same key rule (md5-lower-half uniforms, integer micro keys, id
    tie-break); zero-weight rows are excluded; heavier rows dominate."""
    import hashlib
    import math
    import struct

    import ray

    from fuzi_rd.functions.sampling import weighted_sample_topk

    n = 400
    # first half weight 1, second half weight 1000 (plus two zero-weight)
    weights = [1] * (n // 2) + [1000] * (n // 2) + [0, 0]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(weights)), pa.int64()),
            "n_chars": pa.array(weights, pa.int64()),
        }
    )
    k = 50
    got = [
        (r["doc_id"], r["weight"], r["key_micro"], r["rnk"])
        for r in weighted_sample_topk(
            ray.data.from_arrow(tbl), k=k, seed=0
        ).take_all()
    ]

    def key_micro(i, w):
        h = struct.unpack(
            "<Q", hashlib.md5(f"0:{i}".encode()).digest()[8:]
        )[0]
        u = (float(h) + 1.0) / 18446744073709551616.0
        return math.floor(1000000.0 * math.log(u) / w)

    scored = sorted(
        ((key_micro(i, w), -i) for i, w in enumerate(weights) if w > 0),
        reverse=True,
    )[:k]
    want = [
        (-ni, weights[-ni], km, r + 1)
        for r, (km, ni) in enumerate(scored)
    ]
    assert got == want
    # zero-weight rows never sampled; heavy rows dominate the sample
    ids = [d for d, *_ in got]
    assert all(d < n for d in ids)
    assert sum(1 for d in ids if d >= n // 2) > 0.8 * k


def test_split_assign_deterministic_and_exhaustive(ray_session):
    """Every row gets exactly one of train/val/test; assignment is a pure
    function of doc_id (re-running and re-sharding cannot move a doc
    between splits), and proportions track the byte thresholds."""
    import hashlib

    import ray

    from fuzi_rd.functions.sampling import split_assign

    n = 2000
    rows = pa.table({"doc_id": pa.array(range(n), pa.int64())})
    out = {
        r["doc_id"]: r["split"]
        for r in split_assign(ray.data.from_arrow(rows)).take_all()
    }
    assert len(out) == n
    for i in range(n):
        b = hashlib.md5(str(i).encode()).digest()[0]
        want = "train" if b < 230 else ("val" if b < 243 else "test")
        assert out[i] == want, i
    counts = {s: sum(1 for v in out.values() if v == s) for s in ("train", "val", "test")}
    assert counts["train"] > 0.85 * n
    assert counts["val"] > 0 and counts["test"] > 0


def test_mixture_token_sample_budget_semantics(ray_session):
    """Per-source kept token mass is the LARGEST bucket-prefix cumsum
    <= budget, verified against a literal Python reference; dict budgets
    apply per source and an unlisted source keeps nothing."""
    import hashlib

    import ray

    from fuzi_rd.functions.sampling import mixture_token_sample

    n = 300
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "source": pa.array(
                ["a" if i % 3 == 0 else ("b" if i % 3 == 1 else "c") for i in range(n)],
                pa.string(),
            ),
            # i%7 + 1 tokens per doc
            "text": pa.array(
                [" ".join(["w"] * (i % 7 + 1)) for i in range(n)], pa.string()
            ),
        }
    )
    budgets = {"a": 150, "b": 40}  # c unlisted -> keeps nothing
    out = mixture_token_sample(
        ray.data.from_arrow(tbl), budgets=budgets
    ).take_all()

    # literal reference: bucket cumsum per source
    docs = [
        (
            i,
            ["a", "b", "c"][i % 3],
            hashlib.md5(str(i).encode()).hexdigest()[:2],
            i % 7 + 1,
        )
        for i in range(n)
    ]
    expect: set[int] = set()
    for src in ("a", "b", "c"):
        per_bucket: dict[str, int] = {}
        for i, s, bk, t in docs:
            if s == src:
                per_bucket[bk] = per_bucket.get(bk, 0) + t
        cum, cutoff = 0, None
        for bk in sorted(per_bucket):
            cum += per_bucket[bk]
            if cum > budgets.get(src, 0):
                break
            cutoff = bk
        if cutoff is not None:
            expect |= {
                i for i, s, bk, t in docs if s == src and bk <= cutoff
            }
    assert {r["doc_id"] for r in out} == expect
    assert all(r["source"] != "c" for r in out)
    kept_a = sum(r["n_tokens"] for r in out if r["source"] == "a")
    assert kept_a <= 150 and kept_a > 0


def test_mixture_token_sample_strata_cap(ray_session):
    import pytest
    import ray

    from fuzi_rd.functions.sampling import mixture_token_sample

    tbl = pa.table(
        {
            "doc_id": pa.array(range(40), pa.int64()),
            "source": pa.array([f"s{i}" for i in range(40)], pa.string()),
            "text": pa.array(["one two"] * 40, pa.string()),
        }
    )
    with pytest.raises(ValueError, match="max_strata"):
        mixture_token_sample(
            ray.data.from_arrow(tbl), budgets=10, max_strata=5
        )


def test_split_assign_bad_thresholds():
    import pytest

    from fuzi_rd.functions.sampling import split_assign

    with pytest.raises(ValueError):
        split_assign(None, t_train=250, t_val=240)


def test_pii_scrub_batch():
    """Redaction: emails and URLs become placeholder tokens; everything
    else is untouched (vectorized regexp_replace — oracle-checked too)."""
    t = textstats.pii_scrub_batch(
        _docs_table(
            [
                "write to bob.smith+x@example.co.uk today",
                "see https://example.com/a?b=c and http://x.io",
                "no pii here at all",
            ]
        )
    )
    assert t.column("scrubbed_text").to_pylist() == [
        "write to <EMAIL> today",
        "see <URL> and <URL>",
        "no pii here at all",
    ]


def test_minhash_similarity_monotone():
    base = "the quick brown fox jumps over the lazy dog " * 20
    near = base.replace("lazy", "sleepy")
    far = "completely different content about ray data pipelines " * 20
    s_base = dedup.minhash_signature(dedup.char_shingles(base))
    s_near = dedup.minhash_signature(dedup.char_shingles(near))
    s_far = dedup.minhash_signature(dedup.char_shingles(far))
    sim_near = (s_base == s_near).mean()
    sim_far = (s_base == s_far).mean()
    assert sim_near > 0.5
    assert sim_far < 0.2


def test_exact_jaccard():
    a = dedup.char_shingles("hello world hello world")
    b = dedup.char_shingles("hello world hello world")
    assert dedup.jaccard(a, b) == 1.0


def test_simhash_hamming():
    base = "the quick brown fox jumps over the lazy dog " * 10
    near = base.replace("dog", "cat")
    far = "orthogonal corpus with other words entirely " * 10
    h_base = dedup.simhash64(base)
    h_near = dedup.simhash64(near)
    h_far = dedup.simhash64(far)
    assert bin(h_base ^ h_near).count("1") < bin(h_base ^ h_far).count("1")


def test_minhash_dedup_ray(ray_session):
    import ray

    base = "the quick brown fox jumps over the lazy dog " * 30
    texts = [base, base.replace("lazy", "sleepy"), "unrelated " * 50, base]
    ds = ray.data.from_arrow(_docs_table(texts))
    labels = dedup.minhash_dedup(ds, threshold=0.65)
    clusters = {r["doc_id"]: r["label"] for r in labels.take_all()}
    assert {0, 1, 3} <= set(clusters)
    assert 2 not in clusters
    assert set(clusters.values()) == {0}


def test_minhash_empty_docs_no_blowup(ray_session):
    """10k empty/whitespace docs: degenerate signatures are skipped before
    banding, so the LSH stage emits zero bucket rows and the per-bucket
    pair enumeration can't go quadratic (VERDICT r1 item 3)."""
    import time

    import ray

    texts = ["" if i % 2 else "   \n\t " for i in range(10_000)]
    ds = ray.data.from_arrow(_docs_table(texts))
    t0 = time.time()
    assert dedup.minhash_candidate_pairs(ds).count() == 0
    assert time.time() - t0 < 60  # all-pairs would be ~50M rows x 16 bands
    assert dedup.minhash_dedup(ds).count() == 0


def test_minhash_bucket_cap_star_pairs(ray_session):
    """A bucket over max_bucket_size emits O(n_hubs * m) star pairs to the
    bucket's smallest ids instead of O(m^2) all-pairs; clustering output is
    unchanged for true-duplicate blobs because the component stays connected
    via each hub."""
    import ray

    base = "the quick brown fox jumps over the lazy dog " * 30
    ds = ray.data.from_arrow(_docs_table([base] * 40))
    pairs = dedup.minhash_candidate_pairs(ds, max_bucket_size=10).take_all()
    got = {(r["id_a"], r["id_b"]) for r in pairs}
    want = {(0, i) for i in range(1, 40)} | {(1, i) for i in range(2, 40)}
    assert got == want  # two hubs by default (DEFAULT_N_HUBS)
    labels = dedup.minhash_dedup(ds, threshold=0.8, max_bucket_size=10)
    clusters = sorted((r["doc_id"], r["label"]) for r in labels.take_all())
    assert clusters == [(i, 0) for i in range(40)]


def test_minhash_keep_filters(ray_session):
    """Filter form: near-duplicates drop, the min-id representative and all
    unclustered docs survive with their original columns."""
    import ray

    base = "the quick brown fox jumps over the lazy dog " * 30
    texts = [base, base.replace("lazy", "sleepy"), "unrelated " * 50, base]
    ds = ray.data.from_arrow(_docs_table(texts))
    out = dedup.minhash_keep(ds, threshold=0.65).take_all()
    assert sorted(r["doc_id"] for r in out) == [0, 2]
    assert {r["text"] for r in out} == {base, "unrelated " * 50}


def test_minhash_dedup_and_keep_are_datasets(ray_session):
    """Scale guard (VERDICT r2 item 1): the cluster assignment comes back as
    a Dataset, and minhash_keep's drop filter is a hash-partitioned join in
    one lazy plan — no driver-side winner list."""
    import ray

    base = "the quick brown fox jumps over the lazy dog " * 30
    ds = ray.data.from_arrow(_docs_table([base, base, "unrelated " * 50]))
    labels = dedup.minhash_dedup(ds, threshold=0.65)
    assert isinstance(labels, ray.data.Dataset)
    out = dedup.minhash_keep(ds, threshold=0.65)
    assert isinstance(out, ray.data.Dataset)
    names = []

    def walk(op):
        names.append(type(op).__name__)
        for dep in op.input_dependencies:
            walk(dep)

    walk(out._logical_plan.dag)
    # the anti-join of drop-ids against documents is IN the plan: the
    # documents dataset is filtered by a Join, not by a collected id list
    assert "Join" in names


def test_connected_components_pointer_jumping_chain(ray_session):
    """Adversarial-diameter guard (VERDICT r2 item 7): a 1k-long path graph
    converges in O(log n) rounds via pointer jumping, not O(n)."""
    import math

    import ray

    n = 1000
    tbl = pa.table(
        {
            "id_a": pa.array(range(n - 1), pa.int64()),
            "id_b": pa.array(range(1, n), pa.int64()),
        }
    )
    stats: dict = {}
    labels = dedup.connected_components_min_label(
        ray.data.from_arrow(tbl), num_partitions=4, stats=stats
    )
    got = {r["doc_id"]: r["label"] for r in labels.take_all()}
    assert got == {i: 0 for i in range(n)}
    # propagation hop + pointer jump more than doubles reach per round
    assert stats["rounds"] <= 2 * int(math.log2(n)) + 4


def test_connected_components_matches_union_find(ray_session):
    """Min-label propagation over the edge dataset computes the same
    components as a driver-side union-find on random graphs (including a
    4-hop chain, which needs several propagation iterations)."""
    import ray

    rng = np.random.RandomState(13)
    edges = [(int(a), int(b)) for a, b in rng.randint(0, 30, size=(25, 2)) if a != b]
    edges += [(100, 101), (101, 102), (102, 103), (103, 104)]  # long chain
    tbl = pa.table(
        {
            "id_a": pa.array([e[0] for e in edges], pa.int64()),
            "id_b": pa.array([e[1] for e in edges], pa.int64()),
        }
    )
    labels = dedup.connected_components_min_label(ray.data.from_arrow(tbl))
    got = {r["doc_id"]: r["label"] for r in labels.take_all()}

    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}
    assert got == want


def test_simhash_kernel_matches_scalar_spec():
    """The vectorized batch kernel is bit-for-bit the majority-vote spec:
    output bit i set iff more than half the tokens have hash bit i set."""
    import hashlib
    import struct

    rng = np.random.RandomState(7)
    vocab = ["w%d" % i for i in range(50)]
    texts = ["", "   ", "one"] + [
        " ".join(rng.choice(vocab, rng.randint(1, 40))) for _ in range(30)
    ]
    out = dedup._simhash_many(texts)
    for text, got in zip(texts, out):
        toks = text.lower().split()
        want = 0
        for i in range(64):
            ones = sum(
                (
                    struct.unpack(
                        "<Q",
                        hashlib.blake2b(t.encode(), digest_size=8).digest(),
                    )[0]
                    >> i
                )
                & 1
                for t in toks
            )
            if 2 * ones > len(toks):
                want |= 1 << i
        assert int(got) == want, text


def test_exact_dedup_ray(ray_session):
    import ray

    ds = ray.data.from_arrow(_docs_table(["a", "b", "a", "c", "b"]))
    out = {r["text_hash"]: r["min(doc_id)"] for r in dedup.exact_dedup(ds).take_all()}
    assert len(out) == 3
    assert sorted(out.values()) == [0, 1, 3]


def test_exact_dedup_keep_filters(ray_session):
    import ray

    ds = ray.data.from_arrow(_docs_table(["a", "b", "a", "c", "b", "a"]))
    out = dedup.exact_dedup_keep(ds).take_all()
    assert sorted(r["doc_id"] for r in out) == [0, 1, 3]
    assert sorted(r["text"] for r in out) == ["a", "b", "c"]


def test_exact_dedup_keep_is_semi_join(ray_session):
    """Scale guard: the keep filter must be a hash-partitioned semi-join —
    one connected lazy plan containing a Join operator — not a driver-side
    winner-set broadcast (which would show up as a plan break: the winner
    scan executed eagerly at build time and no Join in the dag)."""
    import ray

    ds = ray.data.from_arrow(_docs_table(["a", "b", "a"]))
    out = dedup.exact_dedup_keep(ds)
    names = []

    def walk(op):
        names.append(type(op).__name__)
        for dep in op.input_dependencies:
            walk(dep)

    walk(out._logical_plan.dag)
    assert "Join" in names
    # both the winner scan (Aggregate) and the documents source feed the
    # same lazy dag — nothing was materialized on the driver to build it
    assert "Aggregate" in names


def test_brute_force_topk_matches_numpy(ray_session):
    import ray

    rng = np.random.RandomState(7)
    mat = rng.standard_normal((100, 16)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(100), pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float32())),
        }
    )
    query = mat[0].astype(np.float64)
    ds = ray.data.from_arrow(tbl)
    got = simsearch.brute_force_topk(ds, query, k=5)
    m = mat.astype(np.float64)
    sims = (m @ query) / (np.linalg.norm(m, axis=1) * np.linalg.norm(query))
    want = np.argsort(-sims)[:5]
    assert [r["vec_id"] for r in got] == list(want)
    assert got[0]["vec_id"] == 0


def test_lsh_topk_contains_query(ray_session):
    import ray

    rng = np.random.RandomState(11)
    mat = rng.standard_normal((200, 16)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    got = simsearch.lsh_topk(ds, mat[3].astype(np.float64), k=5)
    assert got[0]["vec_id"] == 3  # the query vector itself is always in its bucket


def test_ngram_jaccard_pairs(ray_session):
    import ray

    base = "alpha beta gamma delta epsilon zeta eta theta " * 10
    near = base.replace("delta", "kappa")  # most 3-grams shared
    far = "one two three four five six seven eight nine ten " * 8
    ds = ray.data.from_arrow(_docs_table([base, near, far]))
    rows = dedup.ngram_jaccard_pairs(ds, n=3, threshold_milli=400).take_all()
    pairs = {(r["id_a"], r["id_b"]): r["jaccard_milli"] for r in rows}
    assert (0, 1) in pairs
    assert all(v >= 400 for v in pairs.values())
    assert (0, 2) not in pairs and (1, 2) not in pairs
    # exact integer check: doc 0 and a verbatim duplicate -> 1000
    ds2 = ray.data.from_arrow(_docs_table([base, base]))
    rows2 = dedup.ngram_jaccard_pairs(ds2, n=3, threshold_milli=900).take_all()
    assert rows2[0]["jaccard_milli"] == 1000


def test_ngram_jaccard_df_cap(ray_session):
    """Document-frequency cap: shingle groups larger than the cap are
    skipped before pair enumeration (bounds any one group at cap^2)."""
    import ray

    base = "alpha beta gamma delta epsilon zeta eta theta " * 10
    ds = ray.data.from_arrow(_docs_table([base, base, base]))
    # every shingle has df=3; df_cap=2 skips all groups -> no pairs at all
    rows = dedup.ngram_jaccard_pairs(
        ds, n=3, threshold_milli=400, df_cap=2
    ).take_all()
    assert rows == []
    # cap >= actual df keeps exact semantics: all 3 identical-doc pairs
    rows = dedup.ngram_jaccard_pairs(
        ds, n=3, threshold_milli=900, df_cap=3
    ).take_all()
    assert len(rows) == 3
    assert all(r["jaccard_milli"] == 1000 for r in rows)


def test_embedding_near_dup_exact(ray_session):
    import ray

    rng = np.random.RandomState(3)
    mat = rng.standard_normal((60, 16)).astype(np.float32)
    mat[7] = mat[3] + 0.01 * rng.standard_normal(16)  # planted near-dup
    tbl = pa.table(
        {
            "vec_id": pa.array(range(60), pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    rows = dedup.embedding_near_dup(ds, threshold=0.99).take_all()
    assert {(r["id_a"], r["id_b"]) for r in rows} == {(3, 7)}
    # LSH path finds the same planted pair (same-bucket by construction)
    lsh = dedup.embedding_near_dup_lsh(ds, threshold=0.99).take_all()
    assert {(r["id_a"], r["id_b"]) for r in lsh} == {(3, 7)}


def test_semantic_dedup_keeper_rule(ray_session):
    """SemDeDup keeper semantics pinned on hand-computed geometry: two
    well-separated angular clusters; within each, the duplicate group
    keeps its LEAST-centroid-similar member (min vec_id on exact tie)."""
    import math

    import ray

    angles = [0, 5, 40, 90, 93, 96]  # degrees
    mat = np.array(
        [[math.cos(math.radians(a)), math.sin(math.radians(a))] for a in angles]
    )
    tbl = pa.table(
        {
            "vec_id": pa.array(range(6), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in mat], pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    rows = dedup.semantic_dedup(ds, n_clusters=2, threshold=0.95).take_all()
    keep = {r["vec_id"]: r["keep"] for r in rows}
    # {0,5 deg} dup pair: 0 deg is farther from the ~15 deg centroid -> kept
    # 40 deg: singleton. {90,93,96}: one group; 90 vs 96 tie on centroid
    # sim (centroid is exactly 93 deg) -> min vec_id (3) kept.
    assert keep == {0: True, 1: False, 2: True, 3: True, 4: False, 5: False}
    # the two clusters never mix
    clusters = {r["vec_id"]: r["cluster"] for r in rows}
    assert {clusters[0], clusters[1], clusters[2]} != {clusters[3]}
    assert clusters[3] == clusters[4] == clusters[5]
    assert clusters[0] == clusters[1] == clusters[2]


def test_semantic_dedup_exact_keep_set_numpy_twin(ray_session):
    """VERDICT r4 item 6: full brute-force numpy twin over the sf0.001
    embeddings table (the same input + parameters the driver's
    ``semantic_dedup`` query uses).  Given the deterministic sample-fit
    centroids, an INDEPENDENT all-pairs cosine + union-find + keeper-rule
    computation must reproduce the distributed pipeline's (cluster,
    cent_sim_milli, keep) for every row — the exact keep set, not just
    the keeper rule."""
    import pyarrow.parquet as pq
    import ray

    from fuzi_rd.functions.dedup import semantic_dedup
    from fuzi_rd.functions.simsearch import _kmeans

    path = "/root/testdata/sf0.001/embeddings.parquet"
    n_clusters, threshold = 8, 0.45

    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got = {
        r["vec_id"]: r
        for r in semantic_dedup(
            ds, n_clusters=n_clusters, threshold=threshold
        ).take_all()
    }

    tbl = pq.read_table(path, columns=["vec_id", "embedding"])
    ids = tbl.column("vec_id").to_numpy()
    mat = np.array(tbl.column("embedding").to_pylist(), dtype=np.float64)
    n = len(ids)
    assert n > 0 and len(got) == n

    # identical deterministic quantizer fit (ds.limit over a 500-row table
    # is the whole table in file order — same sample the operator takes)
    cents = _kmeans(mat[:2048], n_clusters)
    assign = ((mat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    nm = np.linalg.norm(mat, axis=1)
    nm[nm == 0] = 1.0
    mn = mat / nm[:, None]
    cn = np.linalg.norm(cents, axis=1)
    cn[cn == 0] = 1.0
    cent_sim_milli = np.floor(
        ((mn * (cents / cn[:, None])[assign]).sum(axis=1)) * 1000
    ).astype(np.int64)

    expect_keep = np.zeros(n, dtype=bool)
    for c in range(n_clusters):
        loc = np.flatnonzero(assign == c)
        if not len(loc):
            continue
        sub = mn[loc]
        sims = sub @ sub.T
        parent = list(range(len(loc)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in range(len(loc)):
            for b in range(a + 1, len(loc)):
                if sims[a, b] >= threshold:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[rb] = ra
        order = np.lexsort((ids[loc], cent_sim_milli[loc]))
        seen = set()
        for i in order:
            r = find(int(i))
            if r not in seen:
                seen.add(r)
                expect_keep[loc[i]] = True

    # non-trivial at threshold 0.45: both keep outcomes occur
    assert 0 < expect_keep.sum() < n
    for i in range(n):
        r = got[int(ids[i])]
        assert r["cluster"] == int(assign[i]), ids[i]
        assert r["cent_sim_milli"] == int(cent_sim_milli[i]), ids[i]
        assert r["keep"] == bool(expect_keep[i]), ids[i]


def test_semantic_dedup_cluster_cap(ray_session):
    import pytest
    import ray

    rng = np.random.RandomState(2)
    mat = rng.standard_normal((20, 4))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(20), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in mat], pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(
        (ValueError, ray.exceptions.RayTaskError), match="max_cluster_rows"
    ):
        dedup.semantic_dedup(ds, n_clusters=1, max_cluster_rows=5).take_all()


def test_embedding_near_dup_max_rows_cap(ray_session):
    """The exact baseline hard-fails past max_rows instead of silently
    materializing an unbounded matrix on the driver (VERDICT r2 item 3)."""
    import pytest
    import ray

    rng = np.random.RandomState(5)
    mat = rng.standard_normal((30, 8)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(30), pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(ValueError, match="embedding_near_dup_lsh"):
        dedup.embedding_near_dup(ds, threshold=0.9, max_rows=10)


def test_ngram_jaccard_default_cap_bounds_stop_shingles(ray_session):
    """The production default df_cap is ON: a corpus where every doc shares
    one stop-shingle can't go m^2 through that group — its pairs come only
    from below-cap shingles (VERDICT r2 item 4)."""
    import ray

    import fuzi_rd.functions.dedup as d

    assert d.DEFAULT_DF_CAP is not None
    # 30 docs all containing the same stop phrase; otherwise disjoint
    stop = "click here to subscribe"
    texts = [f"{stop} unique{i} token{i} word{i} extra{i}" for i in range(30)]
    ds = ray.data.from_arrow(_docs_table(texts))
    rows = dedup.ngram_jaccard_pairs(ds, n=3, threshold_milli=1, df_cap=5).take_all()
    # the stop-shingle group (df=30 > 5) is skipped; no other shingle is
    # shared, so the capped run emits zero pairs instead of 435
    assert rows == []


def test_simhash_bucket_cap_star_pairs(ray_session):
    """Mass-duplicated blobs pool their whole cluster into one (block, key)
    bucket; the star cap bounds that bucket at O(n_hubs * m) verified pairs
    instead of m^2 (VERDICT r2 item 5)."""
    import time

    import ray

    n = 10_000
    tbl = _docs_table(["identical boilerplate page body " * 20] * n)
    ds = ray.data.from_arrow(tbl)
    t0 = time.time()
    pairs = dedup.simhash_near_pairs(ds, max_hamming=3, max_bucket_size=64)
    rows = pairs.take_all()
    assert time.time() - t0 < 120  # all-pairs would be ~5*10^7 per block
    got = {(r["id_a"], r["id_b"]) for r in rows}
    # two hubs: every member connects to doc 0 and doc 1; hamming all 0
    want = {(0, i) for i in range(1, n)} | {(1, i) for i in range(2, n)}
    assert got == want
    assert all(r["min(hamming)"] == 0 for r in rows)


def test_broadcast_join(ray_session):
    import ray

    from fuzi_rd.functions.relational import broadcast_join

    big = pa.table(
        {
            "k": pa.array([1, 2, 3, 2, 9], pa.int64()),
            "v": pa.array(list("abcde"), pa.string()),
        }
    )
    small = pa.table(
        {
            "k": pa.array([1, 2, 3], pa.int64()),
            "name": pa.array(["one", "two", "three"], pa.string()),
            "x10": pa.array([10, 20, 30], pa.int64()),
        }
    )
    out = broadcast_join(
        ray.data.from_arrow(big), small, "k", ["name", "x10"]
    ).take_all()
    by_v = {r["v"]: r for r in out}
    assert by_v["a"]["name"] == "one" and by_v["a"]["x10"] == 10
    assert by_v["b"]["name"] == "two" and by_v["d"]["name"] == "two"
    # left-join semantics: unmatched key -> nulls
    assert by_v["e"]["name"] is None and by_v["e"]["x10"] is None


def test_sessionize(ray_session):
    import ray

    from fuzi_rd.functions.windows import sessionize

    M = 60 * 1_000_000  # one minute in us
    tbl = pa.table(
        {
            "event_id": pa.array(range(7), pa.int64()),
            "user_id": pa.array([1, 1, 1, 1, 2, 2, 3], pa.int64()),
            "ts": pa.array(
                # user 1: 0, 10m, 40m(gap=30m exactly -> same session),
                #         71m (gap 31m -> new session)
                [0, 10 * M, 40 * M, 71 * M, 5 * M, 36 * M, 0],
                pa.int64(),
            ),
        }
    )
    out = sessionize(
        ray.data.from_arrow(tbl), key="user_id", ts="ts", gap_us=30 * M
    ).take_all()
    got = {(r["user_id"], r["session_id"]): (r["n_events"], r["duration_us"]) for r in out}
    assert got == {
        (1, 0): (3, 40 * M),  # exactly-30m gap stays in session
        (1, 1): (1, 0),
        (2, 0): (1, 0),  # 31m gap for user 2 -> two singleton sessions
        (2, 1): (1, 0),
        (3, 0): (1, 0),
    }


def test_sessionize_hot_key_guard(ray_session):
    """max_events_per_key: error mode names the bot key; truncate mode
    keeps the earliest events deterministically (VERDICT r3 item 8)."""
    import pytest
    import ray

    from fuzi_rd.functions.windows import sessionize

    M = 60 * 1_000_000
    n_bot = 10
    tbl = pa.table(
        {
            "event_id": pa.array(range(n_bot + 1), pa.int64()),
            "user_id": pa.array([7] * n_bot + [1], pa.int64()),
            # bot events every 5 minutes (one long session); user 1 single
            "ts": pa.array([i * 5 * M for i in range(n_bot)] + [0], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(Exception, match="hot key 7"):
        sessionize(ds, gap_us=30 * M, max_events_per_key=5).take_all()

    out = sessionize(
        ds, gap_us=30 * M, max_events_per_key=5, on_hot_key="truncate"
    ).take_all()
    got = {(r["user_id"], r["session_id"]): (r["n_events"], r["duration_us"]) for r in out}
    # bot kept its first 5 events (0..20m -> one session, 20m span)
    assert got == {(7, 0): (5, 20 * M), (1, 0): (1, 0)}

    with pytest.raises(ValueError, match="on_hot_key"):
        sessionize(ds, on_hot_key="bogus")


def test_hopping_counts(ray_session):
    """Each event lands in exactly size/step windows; counts and integer
    milli sums are exact."""
    import ray

    from fuzi_rd.functions.windows import hopping_counts

    S = 1_000_000  # one second in us
    tbl = pa.table(
        {
            "ts": pa.array([0, 5 * S, 10 * S, 25 * S], pa.int64()),
            "value": pa.array([1.0, 2.0, 0.0005, 4.0], pa.float64()),
        }
    )
    # size 20 s, step 10 s -> k=2 windows per event
    out = hopping_counts(
        ray.data.from_arrow(tbl),
        size_us=20 * S,
        step_us=10 * S,
        value_col="value",
    ).take_all()
    got = {
        r["window_start_us"]: (r["n_events"], r["total_value_milli"])
        for r in out
    }
    # t=0,5s -> windows -10s,0; t=10s -> 0,10s; t=25s -> 10s,20s
    # 0.0005 * 1000 = 0.5 rounds half-away to 1 (matches SQL round())
    assert got == {
        -10 * S: (2, 3000),
        0: (3, 3001),
        10 * S: (2, 4001),
        20 * S: (1, 4000),
    }


def test_hopping_counts_bad_step():
    import pytest

    from fuzi_rd.functions.windows import hopping_counts

    with pytest.raises(ValueError):
        hopping_counts(None, size_us=100, step_us=33)


def test_rolling_per_key_frame_and_lag(ray_session):
    """Rolling RANGE frame semantics: trailing window INCLUDES
    same-timestamp peers after the current row (the SQL peer rule); gap_us
    is LAG in (ts, event_id) order with null for the key's first event;
    frame sums are exact integer millis."""
    import ray

    from fuzi_rd.functions.windows import rolling_per_key

    S = 1_000_000
    tbl = pa.table(
        {
            "event_id": pa.array([10, 11, 12, 13, 20, 21], pa.int64()),
            "user_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            # user 1: 0s, 5s, 5s (tie), 100s; user 2: 0s, 8s
            "ts": pa.array([0, 5 * S, 5 * S, 100 * S, 0, 8 * S], pa.int64()),
            "value": pa.array([1.0, 2.0, 4.0, 8.0, 0.0005, 1.0], pa.float64()),
        }
    )
    out = rolling_per_key(
        ray.data.from_arrow(tbl),
        key="user_id",
        ts="ts",
        window_us=10 * S,
        value_col="value",
    ).take_all()
    got = {
        r["event_id"]: (r["n_window"], r["win_value_milli"], r["gap_us"])
        for r in out
    }
    assert got == {
        # frame [ts-10s, ts]; the 5s tie rows are PEERS: both see both
        10: (1, 1000, None),
        11: (3, 7000, 5 * S),  # includes event 12 (same-ts peer after it)
        12: (3, 7000, 0),  # tie gap is 0, not null
        13: (1, 8000, 95 * S),  # window slid past everything else
        20: (1, 1, None),  # 0.0005 -> 0.5 milli rounds half-away to 1
        21: (2, 1001, 8 * S),
    }


def test_fixed_width_histogram_floor_bins(ray_session):
    """Integer-milli bin edges with FLOOR semantics (negatives go to the
    mathematically-left bin); exact milli sums; SQL round() tie rule."""
    import ray

    from fuzi_rd.functions.relational import fixed_width_histogram

    tbl = pa.table(
        {"value": pa.array([0.0, 0.49, 0.5, -0.25, -1.0, 1.0005], pa.float64())}
    )
    out = fixed_width_histogram(
        ray.data.from_arrow(tbl), "value", bin_milli=500
    ).take_all()
    got = {r["bin"]: (r["lo_milli"], r["n"], r["sum_value_milli"]) for r in out}
    assert got == {
        # 0.0, 0.49 -> [0, 500); 0.5 (500 milli) -> [500, 1000)
        0: (0, 2, 490),
        # 1.0005 -> 1000.5 milli rounds half-away to 1001 -> bin 2
        2: (1000, 1, 1001),
        1: (500, 1, 500),
        # -0.25 -> -250 milli -> floor bin -1; -1.0 -> -1000 -> bin -2
        -1: (-500, 1, -250),
        -2: (-1000, 1, -1000),
    }


def test_rolling_per_key_hot_key_guard(ray_session):
    import pytest
    import ray

    from fuzi_rd.functions.windows import rolling_per_key

    tbl = pa.table(
        {
            "event_id": pa.array(range(5), pa.int64()),
            "user_id": pa.array([7] * 5, pa.int64()),
            "ts": pa.array(range(5), pa.int64()),
            "value": pa.array([1.0] * 5, pa.float64()),
        }
    )
    with pytest.raises(Exception, match="hot key"):
        rolling_per_key(
            ray.data.from_arrow(tbl), max_events_per_key=3
        ).take_all()


def test_asof_join(ray_session):
    import ray

    from fuzi_rd.functions.relational import asof_join

    left = pa.table(
        {
            "event_id": pa.array([10, 11, 12, 13], pa.int64()),
            "user_id": pa.array([1, 1, 2, 3], pa.int64()),
            "ts": pa.array([100, 250, 65, 70], pa.int64()),
        }
    )
    right = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
            # user 1: rows at ts 100 (two rows, tie -> max event_id=3) and 200
            "ts": pa.array([100, 200, 100, 60, 60], pa.int64()),
        }
    )
    out = asof_join(
        ray.data.from_arrow(left),
        ray.data.from_arrow(right),
        key="user_id",
        ts="ts",
        left_cols=["event_id", "ts"],
        right_cols=["event_id", "ts"],
        right_suffix="_r",
    ).take_all()
    got = {r["event_id"]: (r["event_id_r"], r["ts_r"]) for r in out}
    assert got == {
        10: (3, 100),  # inclusive match at equal ts; tie -> larger event_id
        11: (2, 200),  # latest at-or-before 250
        12: (5, 60),   # tie at ts 60 -> event_id 5
        # 13 dropped: user 3 has no right rows (inner-asof)
    }
    assert len(out) == 3


def test_interval_join(ray_session):
    import ray

    from fuzi_rd.functions.relational import interval_join

    bands = pa.table(
        {
            "band": pa.array(["a", "b"]),
            "lo": pa.array([0.0, 10.0], pa.float64()),
            "hi": pa.array([10.0, 20.0], pa.float64()),
        }
    )
    data = pa.table(
        {
            "id": pa.array(range(5), pa.int64()),
            # -1 outside; 0 in a; 10 exactly -> b (half-open); 19.9 in b;
            # 20 outside (hi exclusive)
            "v": pa.array([-1.0, 0.0, 10.0, 19.9, 20.0], pa.float64()),
        }
    )
    out = interval_join(
        ray.data.from_arrow(data), bands, "v", "lo", "hi", ["band"]
    ).take_all()
    got = {r["id"]: r["band"] for r in out}
    assert got == {0: None, 1: "a", 2: "b", 3: "b", 4: None}


def test_interval_join_empty_intervals(ray_session):
    """An empty interval table labels every row null (left-join semantics)
    instead of raising IndexError inside each batch task (ADVICE r2)."""
    import ray

    from fuzi_rd.functions.relational import interval_join

    bands = pa.table(
        {
            "band": pa.array([], pa.string()),
            "lo": pa.array([], pa.float64()),
            "hi": pa.array([], pa.float64()),
        }
    )
    data = pa.table(
        {
            "id": pa.array(range(3), pa.int64()),
            "v": pa.array([1.0, 2.0, 3.0], pa.float64()),
        }
    )
    out = interval_join(
        ray.data.from_arrow(data), bands, "v", "lo", "hi", ["band"]
    ).take_all()
    assert {r["id"]: r["band"] for r in out} == {0: None, 1: None, 2: None}


def test_chtml_cache_dir_is_private():
    """The C kernel builds into a per-user 0700 dir, never a predictable
    world-writable /tmp path (ADVICE r2 security finding)."""
    import os
    import stat as stat_mod

    from fuzi_rd import chtml

    d = chtml._cache_dir()
    st = os.lstat(d)
    assert stat_mod.S_ISDIR(st.st_mode)
    assert st.st_uid == os.getuid()
    assert (st.st_mode & 0o077) == 0
    assert chtml.available()  # build + self-check still succeed there


def test_media_resize_plumbing(ray_session):
    import ray

    ds = ray.data.from_arrow(multimodal.synth_media_table(20))
    out = ds.map_batches(
        multimodal.ResizeImage(), batch_size=8, batch_format="pyarrow"
    ).take_all()
    assert len(out) == 20
    assert all(r["width"] <= 512 and r["height"] <= 512 for r in out)
    assert all(len(r["payload"]) >= 16 for r in out)


def test_ivf_topk_recall(ray_session):
    import ray

    rng = np.random.RandomState(5)
    mat = rng.standard_normal((400, 16)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(400), pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    query = mat[11].astype(np.float64)
    # nprobe == n_centroids -> exact: must equal brute force
    exact = simsearch.brute_force_topk(ds, query, k=5)
    full = simsearch.ivf_topk(ds, query, k=5, n_centroids=8, nprobe=8)
    assert [r["vec_id"] for r in full] == [r["vec_id"] for r in exact]
    # probing a few buckets still finds the query vector itself
    approx = simsearch.ivf_topk(ds, query, k=5, n_centroids=8, nprobe=2)
    assert approx[0]["vec_id"] == 11


def test_media_decode_plumbing(ray_session):
    import ray

    ds = ray.data.from_arrow(multimodal.synth_media_table(30))
    out = ds.map_batches(
        multimodal.DecodeImage(), batch_size=8, batch_format="pyarrow"
    ).take_all()
    assert len(out) == 30
    assert all(r["decode_ok"] for r in out)
    assert all(64 <= r["width"] for r in out)
    # deterministic: same payload -> same fake decode
    again = ds.map_batches(
        multimodal.DecodeImage(), batch_size=8, batch_format="pyarrow"
    ).take_all()
    assert sorted(map(str, out)) == sorted(map(str, again))


def test_media_real_backend_is_stubbed():
    with pytest.raises(NotImplementedError):
        multimodal.DecodeImage(backend="real")


def test_frame_sampling_expands_rows(ray_session):
    import ray

    ds = ray.data.from_arrow(multimodal.synth_media_table(10))
    out = ds.map_batches(
        multimodal.SampleFrames(), batch_size=4, batch_format="pyarrow"
    ).take_all()
    assert len(out) >= 10
    assert {"media_id", "frame_index", "frame"} == set(out[0])


def test_anti_join_drops_matching_keys(ray_session):
    import ray
    import pyarrow as pa

    ds = ray.data.from_arrow(_docs_table(["a", "b", "c", "d"]))
    keys = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 3], pa.int64())})
    )
    out = dedup.anti_join(ds, keys, "doc_id").take_all()
    assert sorted(r["doc_id"] for r in out) == [0, 2]


def test_cross_corpus_dedup_keep(ray_session):
    """New crawl deduplicated against a reference corpus: only documents
    whose exact text is NOT in the reference survive."""
    import ray

    new = ray.data.from_arrow(_docs_table(["seen", "fresh", "seen2", "new2"]))
    ref = ray.data.from_arrow(_docs_table(["seen", "seen2", "other"]))
    out = dedup.cross_corpus_dedup_keep(new, ref).take_all()
    assert sorted(r["text"] for r in out) == ["fresh", "new2"]
    # schema passes through unchanged (helper hash column dropped)
    assert sorted(out[0].keys()) == ["doc_id", "text"]


def test_cross_corpus_dedup_is_anti_join(ray_session):
    """Scale guard: one lazy plan with a Join (left_anti) — no driver-side
    reference-hash set, no broadcast."""
    import ray

    new = ray.data.from_arrow(_docs_table(["a", "b"]))
    ref = ray.data.from_arrow(_docs_table(["a"]))
    out = dedup.cross_corpus_dedup_keep(new, ref)
    names = []

    def walk(op):
        names.append(type(op).__name__)
        for dep in op.input_dependencies:
            walk(dep)

    walk(out._logical_plan.dag)
    assert "Join" in names
    assert "Aggregate" in names  # distinct reference digests, in-plan


def test_normalize_text_batch(ray_session):
    import pyarrow as pa

    from fuzi_rd.functions.textstats import normalize_text_batch

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                ["Café  x", "  a\t\nb  ", "", None], pa.string()
            ),
        }
    )
    out = normalize_text_batch(batch)
    got = out.column("norm_text").to_pylist()
    assert got[0] == "Café x"  # NFC composed + collapsed
    assert got[1] == "a b"
    assert got[2] == "" and got[3] is None


def test_gopher_gate_each_rule_flips():
    """One passing prose doc, then seven variants each violating exactly
    one published Gopher rule; the gate catches every one."""
    base_words = ("quick brown foxes jumped over the lazy dogs and ran "
                  "with great speed that day to be first ").split()
    prose = " ".join(base_words * 5)  # 90 tokens, healthy ratios
    variants = {
        "ok": prose,
        "too_short": "the cat sat with that of it",           # <50 tokens
        "words_too_long": " ".join(["the", "of"] + ["hippopotamusesque"] * 88),
        "too_many_symbols": prose + " " + "# " * 30,          # sym ratio >0.1
        "all_bullets": "\n".join("- " + w for w in base_words * 5)
                        + "\nthe of",                          # >=90% bullets
        "ellipsis_lines": "the of and\n" + "\n".join(
            ["so it goes..."] * 9),                            # >30% '...' ends
        "non_alpha_words": " ".join(["the", "of"] + ["123"] * 88),
        "no_stopwords": " ".join(["foxes", "jumped"] * 45),    # <2 stopwords
    }
    names = list(variants)
    t = textstats.gopher_gate_batch(_docs_table([variants[n] for n in names]))
    ok = dict(zip(names, t.column("gopher_ok").to_pylist()))
    assert ok["ok"] is True
    for name in names[1:]:
        assert ok[name] is False, name


def test_gopher_gate_empty_doc():
    t = textstats.gopher_gate_batch(_docs_table(["", "   "]))
    assert t.column("n_tokens").to_pylist() == [0, 0]
    assert t.column("gopher_ok").to_pylist() == [False, False]


def test_c4_clean_each_rule():
    """Each published C4 rule exercised both ways against a literal Python
    reference implementation of Raffel et al. §2.2."""
    docs = [
        # 3 keepers + junk lines -> survives with junk scrubbed
        "This is a perfectly good sentence.\nShort line\n"
        "Another fine long sentence right here!\n"
        "And a third keeper sentence stays too?",
        # javascript line drop leaves <3 lines -> page dropped
        "Enable javascript to view this page.\n"
        "Only one good sentence is not enough.",
        # lorem ipsum -> page dropped despite 4 good lines
        "Good sentence number one stands here.\n"
        "Good sentence number two stands here.\n"
        "Good sentence number three is fine.\n"
        "Now some lorem ipsum dolor sit amet.",
        # curly brace -> page dropped
        "Good sentence number one stands here.\n"
        "Good sentence number two stands here.\n"
        "var f = function() { return 1; };\n"
        "Good sentence number three is fine.",
        # strip + end-quote keeps; 4-word line drops -> 2 kept -> dropped
        '  Padded line ends with a quote."\t\n'
        "No terminal punctuation on this line\n"
        "What about a question mark here?\nFour words only here.",
        None,
        "",
    ]
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )

    def ref(t):
        if t is None:
            t = ""
        kept = [ln.strip(" \t\r\f\v") for ln in t.split("\n")]
        kept = [
            ln
            for ln in kept
            if ln.endswith((".", "!", "?", '"'))
            and len(ln.split()) >= 5
            and "javascript" not in ln.lower()
        ]
        if len(kept) < 3 or "lorem ipsum" in t.lower() or "{" in t:
            return None
        return "\n".join(kept), len(kept)

    expect = [(i, *r) for i, t in enumerate(docs) if (r := ref(t))]
    out = textstats.c4_clean_batch(batch)
    got = [
        (r["doc_id"], r["text"], r["n_lines"]) for r in out.to_pylist()
    ]
    assert got == expect
    assert len(got) == 1 and got[0][2] == 3


def test_c4_clean_passthrough_columns():
    """Non-text columns survive the page filter aligned with their rows."""
    good = (
        "First keeper sentence stands right here.\n"
        "Second keeper sentence stands right here.\n"
        "Third keeper sentence stands right here."
    )
    batch = pa.table(
        {
            "doc_id": pa.array([7, 8], pa.int64()),
            "source": pa.array(["a", "b"], pa.string()),
            "text": pa.array([good, "no keepers at all"], pa.string()),
        }
    )
    out = textstats.c4_clean_batch(batch)
    assert out.column_names == ["doc_id", "source", "text", "n_lines"]
    assert out.to_pylist() == [
        {"doc_id": 7, "source": "a", "text": good, "n_lines": 3}
    ]


def test_bpe_token_count():
    """BPE-ish regex pre-token counts: contractions split, punctuation
    runs separate, whitespace-run-as-one-token documented semantics."""
    t = textstats.bpe_token_count_batch(
        _docs_table(["It's a test-case: 42!", "", "   ", "don't"])
    )
    # "It's a test-case: 42!" -> It|'s| a| test|-|case|:| 42|! = 9
    assert t.column("n_bpe_tokens").to_pylist() == [9, 0, 1, 2]
    assert t.column("n_ws_tokens").to_pylist() == [4, 0, 0, 1]


def test_repetition_profile_hand_computed():
    """Gopher Table-A1 repetition family: each signal against a
    hand-computed fixture."""
    docs = [
        # lines: a / b / a  -> 1 of 3 lines duplicate (333), chars 1 of 3
        "a\nb\na",
        # tokens: x x x (len 1 each, tot 3); top 2-gram ('x','x') count 2,
        # len 2 -> 1000*2*2//3 = 1333 (uncapped overlap)
        "x x x",
        # 'w1 w2 w3 w4 w5 w1 w2 w3 w4 w5': dup-5-gram covers all 10
        # positions (ngram w1..w5 occurs twice) -> 1000
        "w1 w2 w3 w4 w5 w1 w2 w3 w4 w5",
        "",
    ]
    t = textstats.repetition_profile_batch(_docs_table(docs))
    r = {c: t.column(c).to_pylist() for c in t.column_names}
    assert r["dup_line_milli"][0] == 333
    assert r["dup_line_char_milli"][0] == 333
    assert r["top2_char_milli"][1] == 1333
    assert r["dup5_char_milli"][2] == 1000
    # 10 tokens -> exactly one 10-gram, count 1 -> no duplicate 10-gram
    assert r["dup10_char_milli"][2] == 0
    assert all(v == 0 for v in (
        r["dup_line_milli"][3], r["top2_char_milli"][3],
        r["dup5_char_milli"][3], r["dup10_char_milli"][3]))


def test_compact_drops_empty_blocks_without_driver_fetch(ray_session):
    """_compact must (a) drop the schema-less zero-row blocks that
    Join/Aggregate emit for empty hash partitions and (b) decide emptiness
    from block METADATA, never by ray.get-ing block data to the driver —
    it runs inside every connected-components round and PageRank iteration
    where labels/edges are O(corpus keys) (VERDICT r4 item 1)."""
    import inspect

    import ray

    # (b) source-level pin: no driver-side block fetch in the helper
    src = inspect.getsource(dedup._compact)
    assert "ray.get" not in src

    # (a) a groupby over few distinct keys leaves most hash partitions
    # empty; post-compact every block is non-empty and rows are identical
    t = pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                  "v": pa.array([10, 20, 30], pa.int64())})
    agg = ray.data.from_arrow(t).groupby("k").sum("v")
    compacted = dedup._compact(agg)
    for bundle in compacted.materialize().iter_internal_ref_bundles():
        for _ref, meta in bundle.blocks:
            assert meta.num_rows is None or meta.num_rows > 0
    rows = sorted(
        (r["k"], r["sum(v)"]) for r in compacted.take_all()
    )
    assert rows == [(1, 30), (2, 30)]
    # the compacted dataset still joins cleanly (the original failure mode)
    other = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()),
                  "name": pa.array(["a", "b"], pa.string())})
    )
    joined = compacted.join(other, join_type="inner", num_partitions=4,
                            on=("k",))
    assert joined.count() == 2


_ONE_CPU_QUERY = """
import json
import sys

import numpy as np
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False)
from fuzi_rd.functions.lm_score import unigram_logprob
from fuzi_rd.functions.robots import robots_keep
from fuzi_rd.functions.sampling import mixture_token_sample
from fuzi_rd.functions.simsearch import brute_force_topk

stage, data = sys.argv[1:]
if stage == "robots_keep":
    ds = ray.data.read_parquet(data, columns=["url"])
    result = robots_keep(ds, {"fixtures.test": "User-agent: *\\nDisallow: /1"}).count()
elif stage == "mixture_token_sample":
    result = mixture_token_sample(ray.data.read_parquet(data), 3000).count()
elif stage == "unigram_logprob":
    result = unigram_logprob(ray.data.read_parquet(data)).count()
else:
    query = np.random.RandomState(3).standard_normal((2000, 16))[7]
    hits = brute_force_topk(ray.data.read_parquet(data), query, k=5)
    result = [r["vec_id"] for r in hits]
print("stage_result", json.dumps(result), flush=True)
ray.shutdown()
"""


def _write_one_cpu_input(stage: str, out_dir) -> object:
    """2000 rows of parquet input in 4 files for ``stage``; returns what
    the stage must produce from them."""
    import pyarrow.parquet as pq

    from fuzi_rd.sources.pages import write_pages_parquet

    if stage == "robots_keep":
        from urllib.parse import urlparse

        from fuzi_rd.functions.robots import RobotsPolicy
        from fuzi_rd.sources.pages import pages_table

        write_pages_parquet(str(out_dir), 2000, rows_per_file=500)
        policy = RobotsPolicy("User-agent: *\nDisallow: /1", "fuzi")
        urls = pages_table(2000).column("url").to_pylist()
        return sum(policy.allowed(urlparse(u).path) for u in urls)
    out_dir.mkdir()
    if stage == "brute_force_topk":
        mat = np.random.RandomState(3).standard_normal((2000, 16))
        tbl = pa.table(
            {
                "vec_id": pa.array(range(2000), pa.int64()),
                "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float64())),
            }
        )
        sims = (mat @ mat[7]) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(mat[7]))
        expected = np.argsort(-sims, kind="stable")[:5].tolist()
    else:
        texts = [
            " ".join(f"w{(i * 7 + j) % 50}" for j in range(i % 20)) for i in range(2000)
        ]
        tbl = pa.table(
            {
                "doc_id": pa.array(range(2000), pa.int64()),
                "source": pa.array([f"s{i % 4}" for i in range(2000)], pa.string()),
                "text": pa.array(texts, pa.string()),
            }
        )
        expected = sum(1 for t in texts if t)  # unigram: zero-token docs drop
    for k in range(4):
        pq.write_table(tbl.slice(500 * k, 500), out_dir / f"part-{k}.parquet")
    return expected


@pytest.mark.parametrize(
    "stage",
    ["robots_keep", "mixture_token_sample", "unigram_logprob", "brute_force_topk"],
)
def test_one_cpu_session_query_stage(tmp_path, stage):
    """A Ray session with one logical CPU must finish each query-tier stage
    over parquet input: a min-1 actor pool once took the only CPU, so the
    read tasks feeding it never ran.  The job runs in a child process so a
    hang cannot wedge this one."""
    import json
    import os
    import pathlib
    import re
    import signal
    import subprocess
    import sys

    root = str(pathlib.Path(__file__).resolve().parents[1])
    data = tmp_path / "data"
    expected = _write_one_cpu_input(stage, data)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    with open(tmp_path / "child.log", "w+") as log:
        child = subprocess.Popen(
            [sys.executable, "-c", _ONE_CPU_QUERY, stage, str(data)],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            child.wait(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            pytest.fail(f"{stage} with 1 logical CPU ran past 180 s")
        log.seek(0)
        output = log.read()
        assert child.returncode == 0, output[-2000:]
    result = json.loads(re.search(r"stage_result (.*)", output).group(1))
    if stage == "mixture_token_sample":
        assert 0 < result < 2000  # the budget keeps part of every source
    else:
        assert result == expected


def test_broadcast_state_built_once_per_process_and_ref(ray_session, monkeypatch):
    """A stage UDF resolves its broadcast ref and builds its state once per
    worker process.  Each task unpickles the UDF's arguments afresh, so the
    UDF is called twice after cloudpickle round-trips: a cache keyed on a
    per-task object (a closure) would build twice."""
    import cloudpickle
    import ray

    from fuzi_rd import broadcast
    from fuzi_rd.functions import robots

    builds = []
    compile_policies = robots._compile_policies

    def counting(raw, agent):
        builds.append(agent)
        return compile_policies(raw, agent)

    monkeypatch.setattr(robots, "_compile_policies", counting)
    broadcast.resolve.cache_clear()
    urls = ["https://a.test/x/1", "https://a.test/y", "https://b.test/x"]
    batch = pa.table({"url": urls})
    kwargs = {
        "policies_ref": ray.put({"a.test": "User-agent: *\nDisallow: /x"}),
        "agent": "fuzi",
        "url_col": "url",
    }
    try:
        for _ in range(2):
            fn, kw = cloudpickle.loads(cloudpickle.dumps((robots._keep_allowed, kwargs)))
            assert fn(batch, **kw).column("url").to_pylist() == urls[1:]
        assert builds == ["fuzi"]
        # a new ref is new state
        kwargs["policies_ref"] = ray.put({"b.test": "User-agent: *\nDisallow: /"})
        fn, kw = cloudpickle.loads(cloudpickle.dumps((robots._keep_allowed, kwargs)))
        assert fn(batch, **kw).column("url").to_pylist() == urls[:2]
        assert builds == ["fuzi", "fuzi"]
    finally:
        broadcast.resolve.cache_clear()


def test_key_joins_with_empty_or_empty_first_key_blocks(ray_session, tmp_path):
    """``anti_join`` / ``semi_join`` take a key side with no rows, or whose
    first block is empty (Ray's join then finds no key column in the
    partitions that get none of its rows); ``cross_corpus_dedup_keep``
    against an empty reference corpus keeps every document.  With a key
    side whose schema Ray knows (a read or a materialized Dataset), and in
    ``cross_corpus_dedup_keep`` (its key is an md5 hex string), building
    the join runs neither side."""
    import pyarrow.parquet as pq
    import ray

    marker = tmp_path / "ran"

    def touch(batch: pa.Table) -> pa.Table:
        marker.touch()
        return batch

    ds = ray.data.from_arrow(_docs_table(["a", "b", "c"])).map_batches(
        touch, batch_format="pyarrow"
    )
    no_keys = ray.data.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
    late_keys = ray.data.from_arrow([
        pa.table({"doc_id": pa.array([], pa.int64())}),
        pa.table({"doc_id": pa.array([1], pa.int64())}),
    ]).materialize()
    pq.write_table(pa.table({"doc_id": pa.array([1], pa.int64())}), tmp_path / "k.parquet")
    read_keys = ray.data.read_parquet(str(tmp_path / "k.parquet"))
    joins = [
        (dedup.anti_join(ds, late_keys, "doc_id"), [0, 2]),
        (dedup.semi_join(ds, late_keys, "doc_id"), [1]),
        (dedup.anti_join(ds, read_keys, "doc_id"), [0, 2]),
        (dedup.semi_join(ds, read_keys, "doc_id"), [1]),
    ]
    ref = ray.data.from_arrow(_docs_table(["b"])).map_batches(touch, batch_format="pyarrow")
    cross = dedup.cross_corpus_dedup_keep(ds, ref)
    assert not marker.exists()
    assert sorted(r["doc_id"] for r in cross.take_all()) == [0, 2]
    # Ray keeps no schema for a side of empty blocks, so the left side runs
    joins += [
        (dedup.anti_join(ds, no_keys, "doc_id"), [0, 1, 2]),
        (dedup.semi_join(ds, no_keys, "doc_id"), []),
    ]
    for joined, want in joins:
        assert sorted(r["doc_id"] for r in joined.take_all()) == want

    empty_ref = ray.data.from_arrow(_docs_table([]))
    kept = dedup.cross_corpus_dedup_keep(ds, empty_ref).take_all()
    assert sorted((r["doc_id"], r["text"]) for r in kept) == [(0, "a"), (1, "b"), (2, "c")]
