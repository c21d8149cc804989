"""Datasets and few-shot prompt banks.

Datasets are line-delimited JSON records (one question per line).  Prompt
banks are plain-text assets: a small header followed by k example blocks
written with the literal ``Evidence:`` / ``Question:`` / ``Answer:`` field
labels, in the block order their kind renders.  Example text is preserved
verbatim -- the prompt bytes are part of the experiment.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

GENERATION = "generation"
CLASSIFICATION = "classification"
TASKS = (GENERATION, CLASSIFICATION)

# Prompt kinds and the field order of their blocks.  ``qa`` banks feed the
# answering prompt; the other kinds feed the scorer prompts for the reranking
# probabilities (question given answer+evidence, question given evidence,
# evidence given question, answer given evidence).
BANK_FIELDS = {
    "qa": ("evidence", "question", "answer"),
    "q_given_ap": ("evidence", "answer", "question"),
    "q_given_p": ("evidence", "question"),
    "p_given_q": ("question", "evidence"),
    "a_given_p": ("evidence", "answer"),
}
FIELD_LABELS = {"evidence": "Evidence:", "question": "Question:", "answer": "Answer:"}


class CorpusError(ValueError):
    """Malformed dataset or prompt-bank file."""


@dataclass(frozen=True)
class QuestionRecord:
    """One dataset item: a question plus its admissible answers or gold label."""

    id: str
    question: str
    task: str
    answers: tuple[str, ...] = ()
    gold_label: str | None = None
    label_set: tuple[str, ...] = ()
    gold_evidence: tuple[str, ...] = ()

    def __post_init__(self):
        if self.task not in TASKS:
            raise CorpusError(f"record {self.id!r}: unknown task {self.task!r}")
        if not self.question.strip():
            raise CorpusError(f"record {self.id!r}: empty question")
        if self.task == GENERATION:
            if not self.answers:
                raise CorpusError(f"record {self.id!r}: generation record needs answers")
            if self.label_set or self.gold_label is not None:
                raise CorpusError(f"record {self.id!r}: generation record must not carry labels")
        else:
            if len(self.label_set) < 2:
                raise CorpusError(f"record {self.id!r}: label_set needs at least 2 labels")
            if self.gold_label not in self.label_set:
                raise CorpusError(
                    f"record {self.id!r}: gold_label {self.gold_label!r} not in label_set"
                )
            if self.answers:
                raise CorpusError(f"record {self.id!r}: classification record must not carry answers")


@dataclass(frozen=True)
class FewShotExample:
    """One worked example in a prompt bank; unused fields stay empty."""

    evidence: str = ""
    question: str = ""
    answer: str = ""


@dataclass(frozen=True)
class PromptBank:
    dataset_id: str
    kind: str
    examples: tuple[FewShotExample, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in BANK_FIELDS:
            raise CorpusError(f"unknown prompt kind {self.kind!r}")
        required = BANK_FIELDS[self.kind]
        for i, ex in enumerate(self.examples):
            for name in required:
                if not getattr(ex, name).strip():
                    raise CorpusError(
                        f"bank {self.dataset_id}/{self.kind}: example {i} has empty {name}"
                    )

    @property
    def k(self) -> int:
        return len(self.examples)


def _record_from_json(obj: dict, where: str) -> QuestionRecord:
    try:
        rid = obj["id"]
        question = obj["question"]
        task = obj["task"]
    except KeyError as exc:
        raise CorpusError(f"{where}: missing field {exc.args[0]!r}") from None
    gold_evidence = obj.get("gold_evidence")
    if gold_evidence is None:
        raise CorpusError(f"{where}: gold_evidence may be empty but never missing")
    try:
        return QuestionRecord(
            id=str(rid),
            question=question,
            task=task,
            answers=tuple(obj.get("answers", ())),
            gold_label=obj.get("gold_label"),
            label_set=tuple(obj.get("label_set", ())),
            gold_evidence=tuple(gold_evidence),
        )
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def load_dataset(path: str | Path) -> list[QuestionRecord]:
    """Load a line-delimited dataset file, validating every record.

    Raises :class:`CorpusError` naming the offending line on malformed input
    or duplicate ids.
    """
    records: list[QuestionRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            record = _record_from_json(obj, f"{path}:{lineno}")
            if record.id in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate id {record.id!r}")
            seen.add(record.id)
            records.append(record)
    return records


def split_heldout(
    records: list[QuestionRecord], fraction: float, seed: int
) -> tuple[list[QuestionRecord], list[QuestionRecord]]:
    """Deterministic seeded split; the held-out side gets round(fraction * N) items.

    Both sides come back in dataset order.  The split is a partition: disjoint
    and covering.
    """
    if not records:
        raise CorpusError("cannot split an empty dataset")
    if not 0.0 < fraction < 1.0:
        raise CorpusError(f"fraction must be in (0, 1), got {fraction}")
    n_heldout = round(fraction * len(records))
    indices = list(range(len(records)))
    random.Random(seed).shuffle(indices)
    heldout_idx = sorted(indices[:n_heldout])
    train_idx = sorted(indices[n_heldout:])
    return [records[i] for i in train_idx], [records[i] for i in heldout_idx]


# --- prompt-bank files ------------------------------------------------------

_LABEL_TO_FIELD = {label: name for name, label in FIELD_LABELS.items()}


def load_prompt_bank(path: str | Path) -> PromptBank:
    """Parse a prompt-bank file; see :func:`parse_prompt_bank` for the format."""
    return parse_prompt_bank(Path(path).read_text(encoding="utf-8"), str(path))


def parse_prompt_bank(text: str, where: str = "<string>") -> PromptBank:
    """Parse prompt-bank text.

    Layout: ``dataset_id``/``kind``/``k`` header lines, a blank line, then k
    blocks separated by single blank lines.  Within a block each field starts
    at its label line; unlabeled lines continue the current field, so fields
    may span lines (but not contain blank lines).
    """
    path = where
    try:
        header_part, body = text.split("\n\n", 1)
    except ValueError:
        raise CorpusError(f"{path}: missing header/body separator") from None
    header: dict[str, str] = {}
    for line in header_part.splitlines():
        key, sep, value = line.partition(":")
        if not sep:
            raise CorpusError(f"{path}: bad header line {line!r}")
        header[key.strip()] = value.strip()
    for required in ("dataset_id", "kind", "k"):
        if required not in header:
            raise CorpusError(f"{path}: header missing {required!r}")
    kind = header["kind"]
    if kind not in BANK_FIELDS:
        raise CorpusError(f"{path}: unknown kind {kind!r}")
    field_order = BANK_FIELDS[kind]

    examples = []
    for block in body.split("\n\n"):
        if not block.strip():
            continue
        fields: dict[str, list[str]] = {}
        current: str | None = None
        position = 0
        for line in block.splitlines():
            label = next((lab for lab in _LABEL_TO_FIELD if line.startswith(lab)), None)
            if label is not None:
                name = _LABEL_TO_FIELD[label]
                if position >= len(field_order) or field_order[position] != name:
                    raise CorpusError(
                        f"{path}: block {len(examples)}: unexpected {label!r} "
                        f"(kind {kind} expects order {field_order})"
                    )
                fields[name] = [line[len(label):].lstrip(" ")]
                current = name
                position += 1
            else:
                if current is None:
                    raise CorpusError(f"{path}: block {len(examples)}: stray line {line!r}")
                fields[current].append(line)
        if position != len(field_order):
            raise CorpusError(
                f"{path}: block {len(examples)}: expected fields {field_order}, got {tuple(fields)}"
            )
        examples.append(FewShotExample(**{name: "\n".join(lines) for name, lines in fields.items()}))

    declared_k = int(header["k"])
    if declared_k != len(examples):
        raise CorpusError(f"{path}: header declares k={declared_k} but found {len(examples)} examples")
    return PromptBank(dataset_id=header["dataset_id"], kind=kind, examples=tuple(examples))


def load_bundled_bank(dataset_id: str, kind: str) -> PromptBank | None:
    """Load a prompt bank shipped with the package, or None if absent."""
    asset = resources.files("webqa").joinpath(f"assets/prompts/{dataset_id}_{kind}.txt")
    if not asset.is_file():
        return None
    return parse_prompt_bank(asset.read_text(encoding="utf-8"), f"assets/prompts/{dataset_id}_{kind}.txt")


def derive_scorer_bank(qa_bank: PromptBank, kind: str) -> PromptBank:
    """Build a scorer bank from a qa bank by dropping/reordering fields.

    Used for datasets that ship only a qa bank; kinds carry over the exact
    example text.
    """
    if qa_bank.kind != "qa":
        raise CorpusError("scorer banks derive from qa banks")
    keep = BANK_FIELDS[kind]
    examples = tuple(
        FewShotExample(**{name: getattr(ex, name) for name in keep}) for ex in qa_bank.examples
    )
    return PromptBank(dataset_id=qa_bank.dataset_id, kind=kind, examples=examples)
