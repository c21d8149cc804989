import logging
import random
import re
import time

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


def test_tokenize_lowercases_alphanumerics():
    assert tokenize("Hello, WORLD-42!") == ["hello", "world", "42"]
    assert tokenize("don't") == ["don", "t"]
    assert tokenize("") == []
