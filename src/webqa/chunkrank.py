"""Sentence chunking and TF-IDF ranking of evidence paragraphs.

Documents are segmented with a deterministic rule-based splitter, chunked
into paragraphs of at most 6 sentences, and ranked against the question by
cosine similarity of term-weight vectors.  Clipped, sum-normalized cosines
double as the retrieval prior over the retained paragraphs.
"""
from __future__ import annotations

import logging
import math
import re
from collections import Counter
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

_TERMINATOR = re.compile(r"[.!?]+[\"')\]]*")


def _ends_with_abbreviation(text: str, punct_start: int) -> bool:
    """Whether the ASCII letters before ``punct_start``, or before one newline
    there ("Dr\\n. Smith"), form an abbreviation; only that word is scanned."""
    end = punct_start
    if end and text[end - 1] == "\n":
        end -= 1
    start = end
    while start and text[start - 1].isascii() and text[start - 1].isalpha():
        start -= 1
    word = text[start:end]
    return len(word) > 1 and word.lower() in _ABBREVIATIONS


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence segmentation.

    A run of ``.!?`` (plus closing quotes/brackets) ends a sentence when it
    is followed by whitespace and an upper-case/digit/opening-quote start,
    unless the preceding word is a known abbreviation.  Sentences are exact
    input substrings with surrounding whitespace removed, in order, so the
    input can be reconstructed from them plus the whitespace between.
    """
    sentences: list[str] = []
    n = len(text)
    start = 0
    for m in _TERMINATOR.finditer(text):
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
            if m.group(0).startswith(".") and _ends_with_abbreviation(text, m.start()):
                continue
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


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, no stemming."""
    return re.findall(r"[a-z0-9]+", text.lower())


def _weight_vector(counts: Counter, idf: dict[str, float]) -> dict[str, float]:
    return {term: count * idf[term] for term, count in counts.items()}


def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    dot = left_sum(w * b[t] for t, w in a.items() if t in b)
    norm_a = math.sqrt(left_sum(w * w for w in a.values()))
    norm_b = math.sqrt(left_sum(w * w for w in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


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
    """
    if not paragraphs:
        raise ValueError("rank_paragraphs needs a non-empty paragraph list")
    question_counts = Counter(tokenize(question))
    paragraph_counts = [Counter(tokenize(p.text)) for p in paragraphs]

    all_counts = [question_counts] + paragraph_counts
    n_docs = len(all_counts)
    df = Counter()
    for counts in all_counts:
        df.update(counts.keys())
    idf = {term: math.log((1 + n_docs) / (1 + d)) + 1.0 for term, d in df.items()}

    question_vec = _weight_vector(question_counts, idf)
    cosines = [_cosine(question_vec, _weight_vector(c, idf)) for c in paragraph_counts]

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
