"""Sentence chunking and TF-IDF ranking of evidence paragraphs.

Documents are segmented with a deterministic rule-based splitter, chunked
into paragraphs of at most ``--chunk-sentences`` sentences, and ranked
against the question by cosine similarity of term-weight vectors.  Clipped,
sum-normalized cosines double as the retrieval prior over the paragraphs.
"""
from __future__ import annotations

import itertools
import logging
import math
import operator
import re
import string
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass

from .numeric import left_sum

logger = logging.getLogger(__name__)

DEFAULT_CHUNK_SENTENCES = 6
DEFAULT_TOP_PARAGRAPHS = 50

# Words whose trailing period does not end a sentence.  Single capital
# letters are deliberately absent: "A. B. C." is three sentences.
_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "rev", "gen", "sen", "rep", "hon",
    "st", "jr", "sr", "vs", "etc", "al", "cf", "ca", "approx",
    "inc", "ltd", "co", "corp", "dept", "univ", "assn", "bros",
    "no", "nos", "vol", "fig", "figs", "ch", "sec", "pp", "est",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct", "nov", "dec",
}

# a candidate sentence end: a run of terminators and closing quotes/brackets
# followed by whitespace and, captured, the next non-space character (a run
# with nothing but whitespace after it needs no boundary: the text's last
# sentence ends there anyway)
_BOUNDARY = re.compile(r"[.!?]+[\"')\]]*(?=\s+(\S))")
_LONGEST_ABBREVIATION = max(map(len, _ABBREVIATIONS))
# a whole run of 2 or more ASCII letters, then at most one newline, at the end
# of the text searched: the word before a terminator that may abbreviate
_WORD_BEFORE = re.compile(rf"(?<![A-Za-z])[A-Za-z]{{2,{_LONGEST_ABBREVIATION}}}\n?\Z")


def _ends_with_abbreviation(text: str, punct_start: int) -> bool:
    """Whether the ASCII letters before ``punct_start``, or before one newline
    there ("Dr\\n. Smith"), form an abbreviation; only that word is scanned."""
    word = _WORD_BEFORE.search(text, max(0, punct_start - _LONGEST_ABBREVIATION - 1), punct_start)
    return word is not None and word.group().rstrip("\n").lower() in _ABBREVIATIONS


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence segmentation.

    A run of ``.!?`` (plus closing quotes/brackets) ends a sentence when it
    is followed by whitespace and an upper-case/digit/opening-quote start,
    unless the preceding word is a known abbreviation.  Sentences are exact
    input substrings with surrounding whitespace removed, in order, so the
    input can be reconstructed from them plus the whitespace between.
    """
    sentences: list[str] = []
    start = 0
    for m in _BOUNDARY.finditer(text):
        nxt = m.group(1)
        if not (nxt.isupper() or nxt.isdigit() or nxt in "\"'("):
            continue
        if text[m.start()] == "." and _ends_with_abbreviation(text, m.start()):
            continue
        end = m.end()
        segment = text[start:end].strip()
        if segment:
            sentences.append(segment)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


@dataclass(frozen=True)
class EvidenceParagraph:
    """A chunk of at most ``chunk size`` consecutive sentences of one document."""

    source_url: str
    ordinal: int
    sentences: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


@dataclass(frozen=True)
class RankedParagraph:
    paragraph: EvidenceParagraph
    cosine: float
    prior: float


def chunk(clean_text: str, source_url: str = "", size: int = DEFAULT_CHUNK_SENTENCES) -> list[EvidenceParagraph]:
    """Greedy non-overlapping windows of ``size`` sentences; the tail may be shorter."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    sentences = split_sentences(clean_text)
    return [
        EvidenceParagraph(source_url=source_url, ordinal=i, sentences=tuple(sentences[j:j + size]))
        for i, j in enumerate(range(0, len(sentences), size))
    ]


# bytes.translate table that keeps ASCII a-z and 0-9 and blanks every other byte
_TOKEN_BYTES = bytes(c if chr(c) in string.ascii_lowercase + string.digits else 0x20
                     for c in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, no stemming.

    The tokens are the runs of ASCII ``[a-z0-9]`` in ``text.lower()``, as
    ``re.findall`` would give them; every other character, non-ASCII ones
    included, separates tokens.
    """
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


def _norm(weights: Collection[float]) -> float:
    return math.sqrt(left_sum(map(operator.mul, weights, weights)))


def _cosine(question: dict[str, float], question_norm: float, counts: Counter,
            idf: dict[str, float]) -> float:
    """Cosine of the question's weight vector and a paragraph's, whose weights
    are its ``counts`` times ``idf``.  The dot product adds over the shorter
    vector's terms (the question's on a tie) in insertion order."""
    weights = list(map(operator.mul, counts.values(), map(idf.__getitem__, counts)))
    if len(counts) < len(question):
        dot = left_sum(w * question[t] for t, w in zip(counts, weights) if t in question)
    else:
        dot = left_sum(w * (counts[t] * idf[t]) for t, w in question.items() if t in counts)
    paragraph_norm = _norm(weights)
    if question_norm == 0.0 or paragraph_norm == 0.0:
        return 0.0
    return dot / (question_norm * paragraph_norm)


def _count_terms(texts: Iterable[str]) -> list[Counter]:
    """One term ``Counter`` per text, keys in first-occurrence order.  Each
    token is counted as the first equal string seen in any text, so the
    strings that tokenizing a text made are freed as soon as it is counted."""
    terms: dict[str, str] = {}
    all_counts = []
    for text in texts:
        tokens = tokenize(text)
        all_counts.append(Counter(map(terms.setdefault, tokens, tokens)))
    return all_counts


def rank_paragraphs(
    question: str,
    paragraphs: list[EvidenceParagraph],
    n: int = DEFAULT_TOP_PARAGRAPHS,
) -> list[RankedParagraph]:
    """Rank ``paragraphs`` against ``question`` and attach retrieval priors.

    Term weights are raw counts times a smoothed inverse document frequency,
    ln((1+N)/(1+df)) + 1, fitted over the question plus the paragraph pool of
    this call.  The top ``n`` paragraphs by cosine are returned (stable order
    breaks ties by input position, i.e. source rank then ordinal); priors are
    the cosines clipped at zero and normalized to sum to 1 over the returned
    list.  If no paragraph shares vocabulary with the question the priors
    fall back to uniform and a warning is logged.

    The question's and every paragraph's term counts are held at once, keyed
    by one string per distinct term of the whole pool, so the strings kept
    grow with the pool's vocabulary, not with each paragraph's own copies.
    """
    if not paragraphs:
        raise ValueError("rank_paragraphs needs a non-empty paragraph list")
    all_counts = _count_terms(itertools.chain((question,), (p.text for p in paragraphs)))
    question_counts, paragraph_counts = all_counts[0], all_counts[1:]

    n_docs = len(all_counts)
    df = Counter()
    for counts in all_counts:
        df.update(counts.keys())
    idf = {term: math.log((1 + n_docs) / (1 + d)) + 1.0 for term, d in df.items()}

    question_vec = {term: count * idf[term] for term, count in question_counts.items()}
    question_norm = _norm(question_vec.values())
    cosines = [_cosine(question_vec, question_norm, c, idf) for c in paragraph_counts]

    order = sorted(range(len(paragraphs)), key=lambda i: -cosines[i])[:n]
    clipped = [max(cosines[i], 0.0) for i in order]
    total = left_sum(clipped)
    if total > 0.0:
        priors = [c / total for c in clipped]
    else:
        logger.warning("question shares no vocabulary with any paragraph; using uniform priors")
        priors = [1.0 / len(order)] * len(order)
    return [
        RankedParagraph(paragraph=paragraphs[i], cosine=cosines[i], prior=prior)
        for i, prior in zip(order, priors)
    ]
