"""Answer scoring and retrieval diagnostics.

Generation questions are scored with exact match over normalized strings,
classification questions with label accuracy.  Retrieval quality is tracked
as answer recall within the top-k conditioning paragraphs (generation) and
as maximum stopword-filtered word overlap between question and paragraphs
(classification).  Extractiveness measures how often the chosen answer is a
substring of the paragraph it was conditioned on.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from importlib import resources

from .corpus import CLASSIFICATION, GENERATION, QuestionRecord
from .numeric import left_sum

DEFAULT_RECALL_KS = (1, 5, 10, 20, 50)

_PUNCT = set(string.punctuation)
_ARTICLE = re.compile(r"\b(a|an|the)\b")


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLE.sub(" ", text)
    return " ".join(text.split())


def exact_match(prediction: str, answers: tuple[str, ...] | list[str]) -> float:
    """1.0 if the normalized prediction equals any normalized reference."""
    if not answers:
        raise ValueError("exact_match needs at least one reference answer")
    pred = normalize_answer(prediction)
    return 1.0 if any(pred == normalize_answer(a) for a in answers) else 0.0


def label_match(prediction: str, gold_label: str) -> float:
    return 1.0 if prediction.strip().lower() == gold_label.strip().lower() else 0.0


def contains_normalized(needle: str, haystack: str) -> bool:
    """Substring test after normalization; an empty normalized needle never matches."""
    norm = normalize_answer(needle)
    return bool(norm) and norm in normalize_answer(haystack)


def answer_recall(answers: tuple[str, ...] | list[str], paragraph_texts: list[str]) -> float:
    """1.0 if any reference answer appears in any of the given paragraphs."""
    return 1.0 if any(
        contains_normalized(a, text) for a in answers for text in paragraph_texts
    ) else 0.0


def load_stopwords() -> frozenset[str]:
    """Stopword entries pass through the same tokenizer as the scored text,
    so contractions contribute both their stem and suffix fragments."""
    raw = resources.files("webqa").joinpath("assets/stopwords.txt").read_text(encoding="utf-8")
    return frozenset(re.findall(r"[a-z0-9]+", raw.lower()))


def content_words(text: str, stopwords: frozenset[str]) -> set[str]:
    return {w for w in re.findall(r"[a-z0-9]+", text.lower()) if w not in stopwords}


def max_word_overlap(reference: str, paragraph_texts: list[str], stopwords: frozenset[str]) -> float:
    """Max over paragraphs of |content(reference) & content(p)| / |content(reference)|."""
    ref = content_words(reference, stopwords)
    if not ref or not paragraph_texts:
        return 0.0
    return max(len(ref & content_words(t, stopwords)) / len(ref) for t in paragraph_texts)


def is_extractive(prediction: str, paragraph_text: str) -> bool:
    return contains_normalized(prediction, paragraph_text)


@dataclass(frozen=True)
class QuestionEval:
    question_id: str
    task: str
    correct: float
    extractive: bool | None
    recall_at: dict[int, float] | None
    overlap: float | None

    def to_json(self) -> dict:
        return {
            "question_id": self.question_id,
            "task": self.task,
            "correct": self.correct,
            "extractive": self.extractive,
            "recall_at": None if self.recall_at is None
            else {str(k): v for k, v in sorted(self.recall_at.items())},
            "overlap": self.overlap,
        }


@dataclass(frozen=True)
class EvalReport:
    dataset_id: str
    metric_name: str
    n_questions: int
    score: float
    extractiveness: float | None
    recall_at: dict[int, float] | None
    mean_overlap: float | None
    questions: tuple[QuestionEval, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "metric_name": self.metric_name,
            "n_questions": self.n_questions,
            "score": self.score,
            "extractiveness": self.extractiveness,
            "recall_at": None if self.recall_at is None
            else {str(k): v for k, v in sorted(self.recall_at.items())},
            "mean_overlap": self.mean_overlap,
            "questions": [q.to_json() for q in self.questions],
        }

    def summary(self) -> str:
        lines = [
            f"dataset: {self.dataset_id}",
            f"questions: {self.n_questions}",
            f"{self.metric_name}: {self.score:.4f}",
        ]
        if self.extractiveness is not None:
            lines.append(f"extractiveness: {self.extractiveness:.4f}")
        if self.recall_at is not None:
            for k in sorted(self.recall_at):
                lines.append(f"answer recall@{k}: {self.recall_at[k]:.4f}")
        if self.mean_overlap is not None:
            lines.append(f"max word overlap: {self.mean_overlap:.4f}")
        return "\n".join(lines)


def _mean(values: list[float]) -> float:
    return left_sum(values) / len(values)


def evaluate_predictions(
    dataset_id: str,
    records: list[QuestionRecord],
    predictions: dict[str, dict],
    paragraphs: dict[str, list[str]] | None,
    stopwords: frozenset[str],
    recall_ks: tuple[int, ...] = DEFAULT_RECALL_KS,
) -> EvalReport:
    """Score every record against its prediction.

    ``predictions`` maps question id to a record with an ``answer`` and the
    ``paragraph_text`` it was conditioned on (None for closed-book answers).
    ``paragraphs`` maps question id to the ranked conditioning paragraph
    texts, or is None entirely when the run retrieved nothing; retrieval
    metrics are omitted accordingly.
    """
    if not records:
        raise ValueError("evaluate_predictions needs a non-empty dataset")
    missing = [r.id for r in records if r.id not in predictions]
    if missing:
        raise ValueError(f"missing predictions for {len(missing)} questions, first: {missing[0]}")

    per_question: list[QuestionEval] = []
    for record in records:
        pred = predictions[record.id]
        answer = pred["answer"]
        conditioning = pred.get("paragraph_text")
        if record.task == GENERATION:
            correct = exact_match(answer, record.answers)
        else:
            correct = label_match(answer, record.gold_label)

        extractive = None
        if conditioning is not None:
            extractive = is_extractive(answer, conditioning)

        recall_at = None
        overlap = None
        if paragraphs is not None and record.id in paragraphs:
            texts = paragraphs[record.id]
            if record.task == GENERATION:
                recall_at = {
                    k: answer_recall(record.answers, texts[:k])
                    for k in recall_ks if k <= len(texts) or k == recall_ks[0]
                }
            else:
                overlap = max_word_overlap(record.question, texts, stopwords)
        per_question.append(QuestionEval(
            question_id=record.id,
            task=record.task,
            correct=correct,
            extractive=extractive,
            recall_at=recall_at,
            overlap=overlap,
        ))

    tasks = {q.task for q in per_question}
    if tasks == {GENERATION}:
        metric_name = "exact_match"
    elif tasks == {CLASSIFICATION}:
        metric_name = "accuracy"
    else:
        metric_name = "mixed"

    extractive_flags = [q.extractive for q in per_question if q.extractive is not None]
    recall_rows = [q.recall_at for q in per_question if q.recall_at is not None]
    recall_agg = None
    if recall_rows:
        shared_ks = sorted(set.intersection(*[set(r) for r in recall_rows]))
        recall_agg = {k: _mean([r[k] for r in recall_rows]) for k in shared_ks}
    overlaps = [q.overlap for q in per_question if q.overlap is not None]

    return EvalReport(
        dataset_id=dataset_id,
        metric_name=metric_name,
        n_questions=len(per_question),
        score=_mean([q.correct for q in per_question]),
        extractiveness=_mean([1.0 if f else 0.0 for f in extractive_flags]) if extractive_flags else None,
        recall_at=recall_agg,
        mean_overlap=_mean(overlaps) if overlaps else None,
        questions=tuple(per_question),
    )
