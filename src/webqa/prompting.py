"""Few-shot prompt construction and context fitting.

Every prompt is a sequence of worked example blocks followed by a target
block that ends in a bare field label ("Answer:", "Question:", ...) as the
generation or scoring cue.  Blocks are joined by blank lines.  The same
renderer serves the answering prompt and all scorer prompts; the kind of
the underlying bank decides the field order and which field is the cue.

The example blocks open every prompt of a bank and make up most of its text,
so they are rendered and SHA-256-hashed once per bank, book mode and number
of leading examples dropped.  A prompt's digest is that prefix's hash state
copied and updated with the target block: the SHA-256 of the prompt's UTF-8
text, found without hashing the prefix again.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

from .corpus import BANK_FIELDS, FIELD_LABELS, FewShotExample, PromptBank


class PromptBudgetError(ValueError):
    """The prompt cannot be made to fit the context budget."""


@dataclass(frozen=True)
class RenderedPrompt:
    """A prompt, the hex SHA-256 of its UTF-8 text, and everything needed to
    re-render it under a tighter budget."""

    text: str
    sha256: str
    kind: str
    closed_book: bool
    evidence: str
    question: str
    answer: str
    examples: tuple[FewShotExample, ...]
    dropped_examples: int = 0
    evidence_truncated: bool = False


def _fields_for(kind: str, closed_book: bool) -> tuple[str, ...]:
    fields = BANK_FIELDS[kind]
    if closed_book:
        fields = tuple(f for f in fields if f != "evidence")
    return fields


def _block(values: dict[str, str], fields: tuple[str, ...], cue: bool) -> str:
    lines = []
    for name in fields[:-1] if cue else fields:
        lines.append(f"{FIELD_LABELS[name]} {values[name]}")
    if cue:
        lines.append(FIELD_LABELS[fields[-1]])
    return "\n".join(lines)


class _Prefixes:
    """The example blocks of one examples tuple in one book mode, each followed
    by the blank line before the next block, joined and hashed once per number
    of leading examples dropped."""

    def __init__(self, kind: str, closed_book: bool, examples: tuple[FewShotExample, ...]):
        # held, so no other tuple can take its id while this entry lives
        self.examples = examples
        self.fields = _fields_for(kind, closed_book)
        # the target fields a caller supplies, and those it must leave empty
        self.given = self.fields[:-1]
        self.not_given = tuple(name for name in ("evidence", "question", "answer") if name not in self.given)
        self._blocks = [_block({name: getattr(ex, name) for name in self.fields}, self.fields, cue=False)
                        + "\n\n" for ex in examples]
        self._by_dropped: dict[int, tuple[str, "hashlib._Hash"]] = {}

    def render(self, dropped: int, target: dict[str, str]) -> tuple[str, str]:
        """The text and hex SHA-256 of the prompt of ``examples[dropped:]`` and
        the target block whose cue ends it."""
        entry = self._by_dropped.get(dropped)
        if entry is None:
            prefix = "".join(self._blocks[dropped:])
            entry = self._by_dropped[dropped] = (prefix, hashlib.sha256(prefix.encode("utf-8")))
        prefix, state = entry
        block = _block(target, self.fields, cue=True)
        digest = state.copy()
        digest.update(block.encode("utf-8"))
        return prefix + block, digest.hexdigest()


# keyed by the examples tuple's id, so a lookup never hashes the examples; 5 kinds
# x open/closed book per bank set, and the bound stops a process that loads many
# banks from keeping them all
_PREFIXES: dict[tuple[int, str, bool], _Prefixes] = {}
_MAX_PREFIXES = 64


def _prefixes(kind: str, closed_book: bool, examples: tuple[FewShotExample, ...]) -> _Prefixes:
    key = (id(examples), kind, closed_book)
    prefixes = _PREFIXES.get(key)
    if prefixes is None:
        if len(_PREFIXES) >= _MAX_PREFIXES:
            _PREFIXES.clear()
        prefixes = _PREFIXES[key] = _Prefixes(kind, closed_book, examples)
    return prefixes


def render_prompt(
    bank: PromptBank,
    *,
    evidence: str = "",
    question: str = "",
    answer: str = "",
    closed_book: bool = False,
) -> RenderedPrompt:
    """Render ``bank``'s examples followed by a target block ending in the cue.

    The caller supplies values for every target field except the last one of
    the bank's kind, which is rendered as the bare cue label.  ``closed_book``
    removes the evidence line from the examples and the target alike.
    """
    prefixes = _prefixes(bank.kind, closed_book, bank.examples)
    target = {"evidence": evidence, "question": question, "answer": answer}
    for name in prefixes.given:
        if not target[name]:
            raise ValueError(
                f"prompt kind {bank.kind!r}{' (closed book)' if closed_book else ''} "
                f"needs a target {name}"
            )
    extra = [name for name in prefixes.not_given if target[name]]
    if extra:
        raise ValueError(f"prompt kind {bank.kind!r} takes no target {sorted(extra)}")
    text, sha256 = prefixes.render(0, target)
    return RenderedPrompt(
        text=text,
        sha256=sha256,
        kind=bank.kind,
        closed_book=closed_book,
        evidence=evidence,
        question=question,
        answer=answer,
        examples=bank.examples,
    )


def render_qa_prompt(bank: PromptBank, question: str, evidence: str) -> RenderedPrompt:
    """The answering prompt: k examples, then Evidence/Question and an Answer cue."""
    if bank.kind != "qa":
        raise ValueError(f"answering prompts need a qa bank, got {bank.kind!r}")
    return render_prompt(bank, evidence=evidence, question=question)


def render_closed_book_prompt(bank: PromptBank, question: str) -> RenderedPrompt:
    """The no-retrieval answering prompt; no Evidence line anywhere."""
    if bank.kind != "qa":
        raise ValueError(f"answering prompts need a qa bank, got {bank.kind!r}")
    return render_prompt(bank, question=question, closed_book=True)


def _refit(prompt: RenderedPrompt, prefixes: _Prefixes, dropped: int, evidence: str) -> RenderedPrompt:
    """``prompt`` without its first ``dropped`` examples and with ``evidence``;
    ``prefixes`` are those of ``prompt.examples``."""
    target = {"evidence": evidence, "question": prompt.question, "answer": prompt.answer}
    text, sha256 = prefixes.render(dropped, target)
    return replace(
        prompt,
        text=text,
        sha256=sha256,
        evidence=evidence,
        examples=prompt.examples[dropped:],
        dropped_examples=prompt.dropped_examples + dropped,
        evidence_truncated=evidence != prompt.evidence or prompt.evidence_truncated,
    )


def fit_to_context(
    prompt: RenderedPrompt,
    count_tokens: Callable[[RenderedPrompt], int],
    context_tokens: int,
    reserved_tokens: int = 0,
) -> RenderedPrompt:
    """Shrink ``prompt`` until it fits ``context_tokens - reserved_tokens``.

    ``count_tokens`` counts a rendering's text; it gets the rendering, so a
    cached counter can key the count by its ``sha256`` without hashing the text.

    Examples are dropped from the front only as far as needed for the prompt
    to fit with no evidence text at all; the whole remaining budget then goes
    to the longest whitespace-word prefix of the evidence (found by binary
    search, rejoined with single spaces).  Raises :class:`PromptBudgetError`
    when even the bare target block overflows the budget.
    """
    budget = context_tokens - reserved_tokens
    if budget <= 0:
        raise PromptBudgetError(
            f"no room to generate: context {context_tokens} minus reserved {reserved_tokens}"
        )
    if count_tokens(prompt) <= budget:
        return prompt

    prefixes = _prefixes(prompt.kind, prompt.closed_book, prompt.examples)
    has_evidence = "evidence" in prefixes.given
    for dropped in range(len(prompt.examples) + 1):
        # the empty-evidence scaffold keeps its bare "Evidence: " line, so the
        # search below only ever adds evidence words to a fitting base
        scaffold = _refit(prompt, prefixes, dropped, "" if has_evidence else prompt.evidence)
        if count_tokens(scaffold) <= budget:
            break
    else:
        raise PromptBudgetError(
            f"target block alone exceeds the budget of {budget} tokens"
        )
    if not has_evidence:
        return scaffold

    best = scaffold
    words = prompt.evidence.split()
    lo, hi = 0, len(words)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        fitted = _refit(prompt, prefixes, dropped, " ".join(words[:mid]))
        if count_tokens(fitted) <= budget:
            lo, best = mid, fitted
        else:
            hi = mid - 1
    if lo == len(words):
        # all words fit; prefer the original spacing when it also fits
        original = _refit(prompt, prefixes, dropped, prompt.evidence)
        if count_tokens(original) <= budget:
            return original
    return best
