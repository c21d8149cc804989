import logging
import random
import re
import time
from collections import Counter

import pytest

from webqa import chunkrank
from webqa.chunkrank import (
    EvidenceParagraph,
    chunk,
    rank_paragraphs,
    split_sentences,
    tokenize,
)


_TRAILING_WORD = re.compile(r"([A-Za-z]+)$")


def _regex_ends_with_abbreviation(text, punct_start):
    """Reference rule: the letters that ``$`` anchors at ``punct_start``
    (or before one final newline) form a known abbreviation."""
    m = _TRAILING_WORD.search(text, 0, punct_start)
    return m is not None and len(m.group(1)) > 1 and m.group(1).lower() in chunkrank._ABBREVIATIONS


def _oracle_split(text, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(chunkrank, "_ends_with_abbreviation", _regex_ends_with_abbreviation)
        return split_sentences(text)


_WALK_TERMINATOR = re.compile(r"[.!?]+[\"')\]]*")


def _walk_ends_with_abbreviation(text, punct_start):
    """The abbreviation check that walked back one character at a time."""
    end = punct_start
    if end and text[end - 1] == "\n":
        end -= 1
    start = end
    while start and text[start - 1].isascii() and text[start - 1].isalpha():
        start -= 1
    word = text[start:end]
    return len(word) > 1 and word.lower() in chunkrank._ABBREVIATIONS


def _walk_split(text):
    """The splitter that found every terminator run and then looked at the
    characters after it one at a time: the oracle of the one that finds only
    the candidate boundaries."""
    sentences = []
    n = len(text)
    start = 0
    for m in _WALK_TERMINATOR.finditer(text):
        end = m.end()
        if end < n:
            if not text[end].isspace():
                continue
            k = end
            while k < n and text[k].isspace():
                k += 1
            if k < n:
                nxt = text[k]
                if not (nxt.isupper() or nxt.isdigit() or nxt in "\"'("):
                    continue
            if m.group(0).startswith(".") and _walk_ends_with_abbreviation(text, m.start()):
                continue
        segment = text[start:end].strip()
        if segment:
            sentences.append(segment)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


_PIECES = ["Dr", "dr", "etc", "Mr", "no", "St", "x", "A", "Smith", "é", "3",
           ".", ".", "!", "?", '"', ")", " ", " ", "\n", "\t"]


class TestSplitSentences:
    def test_basic(self):
        assert split_sentences("One. Two. Three.") == ["One.", "Two.", "Three."]

    def test_abbreviation_guard(self):
        out = split_sentences("Dr. Smith went home. He slept.")
        assert out == ["Dr. Smith went home.", "He slept."]

    def test_single_capitals_do_split(self):
        assert split_sentences("A. B. C.") == ["A.", "B.", "C."]

    def test_question_and_bang(self):
        out = split_sentences("Really?! Yes. See fig. 3 for details.")
        assert out == ["Really?!", "Yes.", "See fig. 3 for details."]

    def test_closing_quote_stays_with_sentence(self):
        out = split_sentences('He said "stop." Then he left.')
        assert out == ['He said "stop."', "Then he left."]

    def test_decimal_numbers_not_split(self):
        assert split_sentences("Pi is 3.14 roughly. Yes.") == \
            ["Pi is 3.14 roughly.", "Yes."]

    def test_lowercase_continuation_not_split(self):
        assert split_sentences("She works at Acme Inc. in town. Nice.") == \
            ["She works at Acme Inc. in town.", "Nice."]

    def test_newlines_are_boundaries_via_whitespace_rule(self):
        out = split_sentences("First line.\nSecond line.")
        assert out == ["First line.", "Second line."]

    def test_reconstruction_property(self):
        """Sentences are verbatim slices: joining them recovers every
        non-whitespace character in order."""
        texts = [
            "Dr. Smith went home. He slept! Did he? Yes.",
            'The U.S. economy grew. "Wow." Analysts agree, e.g. Smith et al. 2020.',
            "No terminator at the end",
            "Weird   spacing.   Everywhere.  ",
            "Nos. 3 and 4 are open. Call now.",
        ]
        for text in texts:
            joined = "".join(split_sentences(text))
            assert joined.replace(" ", "") == text.replace(" ", "").replace(
                "\n", ""), text

    def test_empty_and_whitespace(self):
        assert split_sentences("") == []
        assert split_sentences("   \n  ") == []

    def test_abbreviation_rule_matches_regex_reference(self, monkeypatch):
        edge = [
            "Dr\n. Smith went home. He slept.",
            "Dr\n\n. Smith went home.",
            "x" * 47 + "etc. Then more.",
            "éMr. Smith arrived. He sat.",
            "Mr.\nSmith. No. 5 is here.",
        ]
        rng = random.Random(20)
        texts = edge + ["".join(rng.choice(_PIECES) for _ in range(rng.randrange(1, 30)))
                        for _ in range(3000)]
        for text in texts:
            for i in range(len(text) + 1):
                assert chunkrank._ends_with_abbreviation(text, i) == \
                    _regex_ends_with_abbreviation(text, i), (text, i)
            assert split_sentences(text) == _oracle_split(text, monkeypatch), text
        assert split_sentences(edge[0]) == ["Dr\n. Smith went home.", "He slept."]
        assert split_sentences(edge[2]) == ["x" * 47 + "etc.", "Then more."]
        assert split_sentences(edge[3]) == ["éMr. Smith arrived.", "He sat."]

    def test_matches_the_character_walk_splitter(self, fixtures_dir):
        """The boundary regex and the abbreviation regex split as the splitter
        they replaced did, on seeded random strings and every fixture page."""
        from webqa.websearch import extract_text

        pages = [extract_text(path.read_text(encoding="utf-8"))
                 for path in sorted((fixtures_dir / "web" / "pages").glob("*.html"))]
        alphabet = list(".!?\"')(]") + list("0123456789") + list("abcxyzABCXYZ") + \
            ["é", " ", "\n", "\u00a0", "\x1c"]
        words = sorted(chunkrank._ABBREVIATIONS) + ["Dr", "ST", "Approx", "approxx", "Xdr"]
        edges = ["x approx\n. Next", "approx\n. Next", "xapprox. Next", "Sept. Next", "sept\n\n. Next",
                 "Dr.  ", "Dr. \n", "End.", "End. ", "A. b. C.", "Mr.\u00a0Smith", "Mr.\x1cSmith"]
        rng = random.Random(11)
        texts = edges + pages + ["".join(rng.choice(words) if rng.random() < 0.3
                                 else "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 6)))
                                 for _ in range(rng.randrange(1, 12)))
                         for _ in range(20000)]
        for text in texts:
            assert split_sentences(text) == _walk_split(text), text
            for i, ch in enumerate(text):
                if ch == ".":
                    assert chunkrank._ends_with_abbreviation(text, i) == _walk_ends_with_abbreviation(text, i)

    def test_long_text_splits_in_linear_time(self):
        text = " ".join(f"Item {i} is done. Dr. Lee agrees etc. Next!" for i in range(5000))
        assert len(text) > 200_000
        started = time.monotonic()
        out = split_sentences(text)
        elapsed = time.monotonic() - started
        assert len(out) == 10_000
        assert elapsed < 2.0


class TestChunk:
    def test_thirteen_sentences_chunk_as_6_6_1(self):
        text = " ".join(f"Sentence number {i} is here." for i in range(13))
        paras = chunk(text, source_url="http://x", size=6)
        assert [len(p.sentences) for p in paras] == [6, 6, 1]
        assert [p.ordinal for p in paras] == [0, 1, 2]
        assert all(p.source_url == "http://x" for p in paras)

    def test_never_exceeds_size(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randrange(0, 40)
            text = " ".join(f"Filler sentence {i} ends." for i in range(n))
            for p in chunk(text, size=6):
                assert 1 <= len(p.sentences) <= 6

    def test_text_joins_sentences_with_space(self):
        paras = chunk("One here. Two here. Three here.", size=2)
        assert paras[0].text == "One here. Two here."
        assert paras[1].text == "Three here."

    def test_empty_text(self):
        assert chunk("") == []


def _p(text, ordinal=0):
    return EvidenceParagraph(source_url="u", ordinal=ordinal,
                             sentences=(text,))


class TestRankParagraphs:
    # Hand-computed oracle over 4 documents (question + 3 paragraphs),
    # tf = raw count, idf = ln((1+N)/(1+df)) + 1, cosine over tf*idf.
    # Values frozen from an independent calculation.
    ORACLE_QUESTION = "red apples in the orchard"
    ORACLE_PARAS = [
        "The orchard grows red apples.",
        "Green pears grow by the river.",
        "Apples and apples again; the orchard is full of apples.",
    ]
    ORACLE_COSINES = [0.6308235617494147, 0.07205985252996153,
                      0.37800336035209914]
    ORACLE_PRIORS = [0.5836166900686631, 0.06666734594336218,
                     0.34971596398797467]

    def test_hand_oracle_cosines_and_priors(self):
        paras = [_p(t, i) for i, t in enumerate(self.ORACLE_PARAS)]
        ranked = rank_paragraphs(self.ORACLE_QUESTION, paras, n=3)
        by_ord = {r.paragraph.ordinal: r for r in ranked}
        for i in range(3):
            assert by_ord[i].cosine == pytest.approx(
                self.ORACLE_COSINES[i], abs=1e-9)
            assert by_ord[i].prior == pytest.approx(
                self.ORACLE_PRIORS[i], abs=1e-9)
        assert [r.paragraph.ordinal for r in ranked] == [0, 2, 1]

    def test_top_n_truncates(self):
        paras = [_p(t, i) for i, t in enumerate(self.ORACLE_PARAS)]
        ranked = rank_paragraphs(self.ORACLE_QUESTION, paras, n=2)
        assert len(ranked) == 2
        assert [r.paragraph.ordinal for r in ranked] == [0, 2]

    def test_priors_form_simplex_at_scale(self):
        rng = random.Random(42)
        vocab = [f"word{i}" for i in range(300)]
        paras = [
            _p(" ".join(rng.choice(vocab)
                        for _ in range(rng.randrange(5, 40))), i)
            for i in range(10_000)
        ]
        question = " ".join(rng.choice(vocab) for _ in range(8))
        ranked = rank_paragraphs(question, paras, n=10_000)
        total = sum(r.prior for r in ranked)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(r.prior >= 0.0 for r in ranked)

    def test_disjoint_vocabulary_falls_back_to_uniform(self, caplog):
        paras = [_p("alpha beta", 0), _p("gamma delta", 1)]
        with caplog.at_level(logging.WARNING, logger="webqa.chunkrank"):
            ranked = rank_paragraphs("zeta eta", paras, n=2)
        assert [r.prior for r in ranked] == [0.5, 0.5]
        assert any("vocabulary" in rec.message for rec in caplog.records)

    def test_stable_order_on_ties(self):
        paras = [_p("same words here", i) for i in range(5)]
        ranked = rank_paragraphs("same words", paras, n=5)
        assert [r.paragraph.ordinal for r in ranked] == [0, 1, 2, 3, 4]

    def test_echo_of_question_ranks_first(self):
        paras = [_p("totally unrelated text", 0),
                 _p("when was the bridge built", 1)]
        ranked = rank_paragraphs("when was the bridge built", paras, n=2)
        assert ranked[0].paragraph.ordinal == 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            rank_paragraphs("anything", [], n=5)

    # float.hex of (ordinal, cosine, prior), recorded from the ranking that
    # built a weight dict per paragraph and took the question's norm per
    # paragraph.  The pool holds a paragraph shorter than the question (the
    # dot product then runs over the paragraph's terms), one that shares no
    # term with it, and non-ASCII text.
    PINNED_QUESTION = "Who designed the \u00d8resund bridge between Copenhagen and Malm\u00f6 in 1995?"
    PINNED_PARAS = [
        "The \u00d8resund Bridge was designed by Georg Rotne and opened in 2000.",
        "Bridge.",
        "Malm\u00f6 and Copenhagen are linked by the bridge; the bridge carries trains "
        "and cars between Denmark and Sweden, and it was designed to last 100 years.",
        "Zebras graze quietly.",
        "Str\u00f6me, Br\u00fccken und Stra\u00dfen: die \u00d8resundbr\u00fccke verbindet "
        "Kopenhagen mit Malm\u00f6.",
        "designed designed designed bridge bridge 1995 1995",
        "\uff2b\uff25\uff2c\uff36\uff29\uff2e \u0130stanbul \u01c5 \u00df \u03c2 \u212a 1995",
    ]
    PINNED_RANKING = [
        (2, "0x1.cf3892fd8be18p-2", "0x1.13e36b573d012p-2"),
        (5, "0x1.b2851d694624bp-2", "0x1.02cb5e67e8ac3p-2"),
        (0, "0x1.aea66ca6217e2p-2", "0x1.007d539577b68p-2"),
        (1, "0x1.bece493d6937ep-3", "0x1.0a1c976fe8de1p-3"),
        (6, "0x1.bba309d74e619p-4", "0x1.08396c4ea07d4p-4"),
        (4, "0x1.c4dfd8655b581p-5", "0x1.0db9defe306d2p-5"),
        (3, "0x0.0p+0", "0x0.0p+0"),
    ]

    def test_cosines_and_priors_are_pinned_bit_for_bit(self):
        paras = [_p(t, i) for i, t in enumerate(self.PINNED_PARAS)]
        assert len(tokenize(self.PINNED_PARAS[1])) < len(tokenize(self.PINNED_QUESTION))
        ranked = rank_paragraphs(self.PINNED_QUESTION, paras, n=len(paras))
        assert [(r.paragraph.ordinal, r.cosine.hex(), r.prior.hex()) for r in ranked] == \
            self.PINNED_RANKING

    def test_equal_terms_share_one_string(self, monkeypatch):
        """The counts ranked hold one string object per distinct term, and
        each keeps the counts and first-occurrence order of its own text."""
        texts = [self.PINNED_QUESTION, *self.PINNED_PARAS]
        ranked_counts = []
        cosine = chunkrank._cosine

        def recording_cosine(question, question_norm, counts, idf):
            ranked_counts.append(counts)
            return cosine(question, question_norm, counts, idf)

        monkeypatch.setattr(chunkrank, "_cosine", recording_cosine)
        rank_paragraphs(self.PINNED_QUESTION, [_p(t, i) for i, t in enumerate(self.PINNED_PARAS)])
        for counts_of in (chunkrank._count_terms(texts)[1:], ranked_counts):
            assert [list(c.items()) for c in counts_of] == \
                [list(Counter(tokenize(t)).items()) for t in self.PINNED_PARAS]
            keys = {}
            for counts in counts_of:
                for term in counts:
                    assert keys.setdefault(term, term) is term
            assert sum("bridge" in counts for counts in counts_of) == 4


def test_tokenize_lowercases_alphanumerics():
    assert tokenize("Hello, WORLD-42!") == ["hello", "world", "42"]
    assert tokenize("don't") == ["don", "t"]
    assert tokenize("") == []


def test_tokenize_matches_regex_reference():
    """The runs of [a-z0-9] in text.lower(), as re.findall gives them, on
    characters whose lowercase is ASCII or more than one character."""
    edge = [
        "\u0130stanbul",      # I with dot above lowercases to i + U+0307
        "\u212aelvin",        # Kelvin sign lowercases to ASCII k
        "Stra\u00dfe",        # sharp s
        "\u039f\u03b4\u03cc\u03c2",  # final sigma
        "a\ud800b",           # lone surrogate
        "x\U0001f600y",       # astral character
        "a\u00a0b",           # NBSP
        "\uff11\uff12 12",   # fullwidth digits
        "\u01c4\u01c5 \u1e9e \u0149",
    ]
    rng = random.Random(5)
    alphabet = "aZ09 ,.-_" + "".join(edge)
    texts = edge + ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))
                    for _ in range(3000)]
    for text in texts:
        assert tokenize(text) == re.findall(r"[a-z0-9]+", text.lower()), repr(text)
    assert tokenize(edge[1]) == ["kelvin"]
