import hashlib
import sys
import threading
from importlib import resources

import pytest

from webqa.corpus import BANK_FIELDS, FewShotExample, PromptBank, load_bundled_bank
from webqa.prompting import (
    PromptBudgetError,
    fit_to_context,
    render_closed_book_prompt,
    render_prompt,
    render_qa_prompt,
)

QUESTION = "who wrote the iliad"
EVIDENCE = "The Iliad is an ancient Greek epic poem attributed to Homer."
ANSWER = "Homer"
CLAIM = "The Iliad was written by Homer."


def _golden(golden_dir, name):
    return (golden_dir / name).read_text(encoding="utf-8")


class TestGoldens:
    """Rendered prompts are pinned byte-for-byte; regenerate with
    tools/make_golden_prompts.py only on a deliberate format change."""

    @pytest.mark.parametrize("dataset_id", ["nq", "hotpotqa", "strategyqa"])
    def test_qa_prompt(self, golden_dir, dataset_id):
        bank = load_bundled_bank(dataset_id, "qa")
        got = render_qa_prompt(bank, QUESTION, EVIDENCE).text
        assert got == _golden(golden_dir, f"qa_{dataset_id}.txt")

    def test_qa_prompt_fever(self, golden_dir):
        bank = load_bundled_bank("fever", "qa")
        got = render_qa_prompt(bank, CLAIM, EVIDENCE).text
        assert got == _golden(golden_dir, "qa_fever.txt")

    def test_closed_book(self, golden_dir):
        bank = load_bundled_bank("nq", "qa")
        got = render_closed_book_prompt(bank, QUESTION).text
        assert got == _golden(golden_dir, "closed_nq.txt")

    def test_scorer_q_given_ap(self, golden_dir):
        bank = load_bundled_bank("nq", "q_given_ap")
        got = render_prompt(bank, evidence=EVIDENCE, answer=ANSWER).text
        assert got == _golden(golden_dir, "scorer_nq_q_given_ap.txt")

    def test_scorer_q_given_p(self, golden_dir):
        bank = load_bundled_bank("nq", "q_given_p")
        got = render_prompt(bank, evidence=EVIDENCE).text
        assert got == _golden(golden_dir, "scorer_nq_q_given_p.txt")

    def test_scorer_p_given_q(self, golden_dir):
        bank = load_bundled_bank("nq", "p_given_q")
        got = render_prompt(bank, question=QUESTION).text
        assert got == _golden(golden_dir, "scorer_nq_p_given_q.txt")


def _bank(k=2, kind="qa"):
    examples = tuple(
        FewShotExample(evidence=f"Fact number {i} sits here.",
                       question=f"what is fact {i}",
                       answer=f"fact {i}")
        for i in range(k))
    return PromptBank(dataset_id="toy", kind=kind, examples=examples)


class TestRenderPrompt:
    def test_qa_layout(self):
        p = render_qa_prompt(_bank(k=1), "q here", "e here")
        assert p.text == ("Evidence: Fact number 0 sits here.\n"
                          "Question: what is fact 0\n"
                          "Answer: fact 0\n"
                          "\n"
                          "Evidence: e here\n"
                          "Question: q here\n"
                          "Answer:")
        assert len(p.examples) == 1
        assert not p.closed_book

    def test_closed_book_drops_evidence_everywhere(self):
        p = render_closed_book_prompt(_bank(k=3), "q here")
        assert "Evidence:" not in p.text
        assert p.closed_book
        assert p.text.endswith("Question: q here\nAnswer:")

    def test_no_trailing_newline(self):
        p = render_qa_prompt(_bank(), "q", "e")
        assert not p.text.endswith("\n")

    def test_cue_field_is_last_of_kind(self):
        p = render_prompt(_bank(kind="p_given_q"), question="q here")
        assert p.text.endswith("Question: q here\nEvidence:")

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError):
            render_qa_prompt(_bank(), "q here", "")

    def test_extra_field_rejected(self):
        with pytest.raises(ValueError):
            render_prompt(_bank(kind="q_given_p"), evidence="e", answer="a")


def _word_counter(text: str) -> int:
    return len(text.split())


def _count_words(prompt) -> int:
    """The counter ``fit_to_context`` takes: a rendering's whitespace words."""
    return _word_counter(prompt.text)


def _count_chars(prompt) -> int:
    return len(prompt.text)


class TestFitToContext:
    def test_untouched_when_within_budget(self):
        p = render_qa_prompt(_bank(k=2), "q here", "short evidence")
        fitted = fit_to_context(p, _count_words, context_tokens=10_000)
        assert fitted is p

    def test_truncates_evidence_first(self):
        evidence = " ".join(f"w{i}" for i in range(200))
        p = render_qa_prompt(_bank(k=2), "q here", evidence)
        budget = _word_counter(p.text) - 100
        fitted = fit_to_context(p, _count_words, context_tokens=budget)
        assert fitted.dropped_examples == 0
        assert fitted.evidence_truncated
        assert _word_counter(fitted.text) <= budget
        # truncation keeps a prefix of the evidence words
        kept = fitted.evidence.split()
        assert kept == evidence.split()[:len(kept)]
        assert len(kept) > 0

    def test_drops_examples_when_scaffold_overflows(self):
        # each toy example costs exactly 14 words, the k=0 scaffold 7,
        # so this budget has room for exactly two examples
        p = render_qa_prompt(_bank(k=8), "q here", "ev here")
        fitted = fit_to_context(p, _count_words, context_tokens=7 + 2 * 14)
        assert fitted.dropped_examples == 6
        assert len(fitted.examples) == 2
        assert _word_counter(fitted.text) <= 35
        # later examples are the ones kept
        assert "fact 7" in fitted.text and "fact 6" in fitted.text
        assert "fact 5" not in fitted.text

    def test_reserved_tokens_tighten_budget(self):
        p = render_qa_prompt(_bank(k=2), "q here", "a b c d e f g h")
        total = _word_counter(p.text)
        fitted = fit_to_context(p, _count_words, context_tokens=total,
                                reserved_tokens=4)
        assert _word_counter(fitted.text) <= total - 4

    def test_impossible_budget_raises(self):
        p = render_qa_prompt(_bank(k=1), "q here", "ev")
        with pytest.raises(PromptBudgetError):
            fit_to_context(p, _count_words, context_tokens=2)

    def test_closed_book_fitting_drops_examples(self):
        p = render_closed_book_prompt(_bank(k=8), "q here")
        budget = _word_counter(p.text) - 5
        fitted = fit_to_context(p, _count_words, context_tokens=budget)
        assert fitted.dropped_examples > 0
        assert "Evidence:" not in fitted.text


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# (dataset id, kind) of every bank the package ships, from <dataset_id>_<kind>.txt
BUNDLED_BANKS = sorted(tuple(path.name.removesuffix(".txt").split("_", 1))
                       for path in resources.files("webqa").joinpath("assets/prompts").iterdir()
                       if path.name.endswith(".txt"))
# non-ASCII target values, so the digest covers the UTF-8 bytes
TARGET = {"evidence": "Café — 東京 tower, 310 m.", "question": "where is it ✓", "answer": "Zürich"}


class TestDigest:
    """A rendered prompt's sha256 is made from its bank prefix's hash state,
    never from its text, yet is always the SHA-256 of that text."""

    @pytest.mark.parametrize("closed_book", [False, True])
    @pytest.mark.parametrize("dataset_id, kind", BUNDLED_BANKS)
    def test_every_bundled_bank(self, dataset_id, kind, closed_book):
        bank = load_bundled_bank(dataset_id, kind)
        fields = [f for f in BANK_FIELDS[kind] if not (closed_book and f == "evidence")]
        prompt = render_prompt(bank, closed_book=closed_book, **{f: TARGET[f] for f in fields[:-1]})
        assert prompt.sha256 == _sha256(prompt.text)
        if fields[:-1]:  # a prompt whose target is its bare cue has one rendering
            again = render_prompt(bank, closed_book=closed_book, **{f: TARGET[f] + "!" for f in fields[:-1]})
            assert again.sha256 == _sha256(again.text) != prompt.sha256

    def test_every_fit_outcome(self):
        kept = render_qa_prompt(_bank(k=2), "q here", "short evidence")
        assert fit_to_context(kept, _count_words, context_tokens=10_000) is kept

        evidence = " ".join(f"wörd{i}" for i in range(200))
        p = render_qa_prompt(_bank(k=2), "q here", evidence)
        truncated = fit_to_context(p, _count_words, context_tokens=_word_counter(p.text) - 100)
        assert truncated.evidence_truncated and not truncated.dropped_examples

        dropped = fit_to_context(render_qa_prompt(_bank(k=8), "q here", "ev here"), _count_words,
                                 context_tokens=7 + 2 * 14)
        assert dropped.dropped_examples == 6 and not dropped.evidence_truncated

        closed = render_closed_book_prompt(_bank(k=8), "q here")
        closed_fit = fit_to_context(closed, _count_words, context_tokens=_word_counter(closed.text) - 5)
        assert closed_fit.dropped_examples > 0

        # character budgets: one that only dropping an example meets, after
        # which the original spacing fits too; one that the single-spaced
        # evidence meets but the original does not
        spaced = render_qa_prompt(_bank(k=2), "q", "a  b   c")
        kept_spacing = fit_to_context(spaced, _count_chars, context_tokens=len(spaced.text) - len("a  b   c") - 1)
        assert kept_spacing.dropped_examples == 1 and not kept_spacing.evidence_truncated
        assert kept_spacing.evidence == "a  b   c"
        single_spaced = fit_to_context(spaced, _count_chars, context_tokens=len(spaced.text) - 3)
        assert single_spaced.evidence == "a b c" and single_spaced.evidence_truncated
        assert not single_spaced.dropped_examples

        refit = fit_to_context(dropped, _count_words, context_tokens=7 + 14)
        assert refit.dropped_examples == 7

        for fitted in (truncated, dropped, closed_fit, kept_spacing, single_spaced, refit):
            assert fitted.sha256 == _sha256(fitted.text)

    def test_threads_rendering_and_fitting_at_once_get_their_own_digests(self):
        """Pool threads share the prefixes memo; renders and fits made at once
        each carry the SHA-256 of their own text."""
        banks = [_bank(k=8), _bank(k=8, kind="q_given_ap")]
        failures = []

        def work(seed):
            for i in range(150):
                bank = banks[(seed + i) % 2]
                target = {"evidence": f"ev {seed} {i} " * (i % 7 + 1), "question": f"q {seed}", "answer": f"a {i}"}
                fields = BANK_FIELDS[bank.kind][:-1]
                try:
                    prompt = render_prompt(bank, **{f: target[f] for f in fields})
                    fitted = fit_to_context(prompt, _count_words, context_tokens=20 + (i * 7) % 120)
                except ValueError as exc:
                    failures.append((seed, i, exc))
                    continue
                for p in (prompt, fitted):
                    if p.sha256 != _sha256(p.text):
                        failures.append((seed, i, p.text))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
