"""Few-shot prompt construction and context fitting.

Every prompt is a sequence of worked example blocks followed by a target
block that ends in a bare field label ("Answer:", "Question:", ...) as the
generation or scoring cue.  Blocks are joined by blank lines.  The same
renderer serves the answering prompt and all scorer prompts; the kind of
the underlying bank decides the field order and which field is the cue.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

from .corpus import BANK_FIELDS, FIELD_LABELS, FewShotExample, PromptBank


class PromptBudgetError(ValueError):
    """The prompt cannot be made to fit the context budget."""


@dataclass(frozen=True)
class RenderedPrompt:
    """A prompt plus everything needed to re-render it under a tighter budget."""

    text: str
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


# 5 kinds x open/closed book x the 16 suffixes fitting can cut 15 examples to make
# 160 prefixes per bank set; the bound stops a process that loads many from keeping all
@functools.lru_cache(maxsize=256)
def _examples_prefix(kind: str, closed_book: bool, examples: tuple[FewShotExample, ...]) -> str:
    """The example blocks, each followed by the blank line before the next
    block; rendered once per bank and example suffix, not once per prompt."""
    fields = _fields_for(kind, closed_book)
    return "".join(
        _block({name: getattr(ex, name) for name in fields}, fields, cue=False) + "\n\n"
        for ex in examples
    )


def _render_text(
    kind: str,
    closed_book: bool,
    examples: tuple[FewShotExample, ...],
    target: dict[str, str],
) -> str:
    return (_examples_prefix(kind, closed_book, examples)
            + _block(target, _fields_for(kind, closed_book), cue=True))


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
    fields = _fields_for(bank.kind, closed_book)
    target = {"evidence": evidence, "question": question, "answer": answer}
    for name in fields[:-1]:
        if not target[name]:
            raise ValueError(
                f"prompt kind {bank.kind!r}{' (closed book)' if closed_book else ''} "
                f"needs a target {name}"
            )
    supplied = {n for n in ("evidence", "question", "answer") if target[n]}
    extra = supplied - set(fields[:-1])
    if extra:
        raise ValueError(f"prompt kind {bank.kind!r} takes no target {sorted(extra)}")
    return RenderedPrompt(
        text=_render_text(bank.kind, closed_book, bank.examples, target),
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


def _refit(prompt: RenderedPrompt, examples: tuple[FewShotExample, ...], evidence: str) -> RenderedPrompt:
    target = {"evidence": evidence, "question": prompt.question, "answer": prompt.answer}
    return replace(
        prompt,
        text=_render_text(prompt.kind, prompt.closed_book, examples, target),
        evidence=evidence,
        examples=examples,
        dropped_examples=prompt.dropped_examples + (len(prompt.examples) - len(examples)),
        evidence_truncated=evidence != prompt.evidence or prompt.evidence_truncated,
    )


def fit_to_context(
    prompt: RenderedPrompt,
    count_tokens: Callable[[str], int],
    context_tokens: int,
    reserved_tokens: int = 0,
) -> RenderedPrompt:
    """Shrink ``prompt`` until it fits ``context_tokens - reserved_tokens``.

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
    if count_tokens(prompt.text) <= budget:
        return prompt

    has_evidence = "evidence" in _fields_for(prompt.kind, prompt.closed_book)[:-1]
    for dropped in range(len(prompt.examples) + 1):
        examples = prompt.examples[dropped:]
        # the empty-evidence scaffold keeps its bare "Evidence: " line, so the
        # search below only ever adds evidence words to a fitting base
        scaffold = _refit(prompt, examples, "" if has_evidence else prompt.evidence)
        if count_tokens(scaffold.text) <= budget:
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
        fitted = _refit(prompt, examples, " ".join(words[:mid]))
        if count_tokens(fitted.text) <= budget:
            lo, best = mid, fitted
        else:
            hi = mid - 1
    if lo == len(words):
        # all words fit; prefer the original spacing when it also fits
        original = _refit(prompt, examples, prompt.evidence)
        if count_tokens(original.text) <= budget:
            return original
    return best
