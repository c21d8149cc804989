import pytest

from webqa.corpus import FewShotExample, PromptBank, load_bundled_bank
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


class TestFitToContext:
    def test_untouched_when_within_budget(self):
        p = render_qa_prompt(_bank(k=2), "q here", "short evidence")
        fitted = fit_to_context(p, _word_counter, context_tokens=10_000)
        assert fitted is p

    def test_truncates_evidence_first(self):
        evidence = " ".join(f"w{i}" for i in range(200))
        p = render_qa_prompt(_bank(k=2), "q here", evidence)
        budget = _word_counter(p.text) - 100
        fitted = fit_to_context(p, _word_counter, context_tokens=budget)
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
        fitted = fit_to_context(p, _word_counter, context_tokens=7 + 2 * 14)
        assert fitted.dropped_examples == 6
        assert len(fitted.examples) == 2
        assert _word_counter(fitted.text) <= 35
        # later examples are the ones kept
        assert "fact 7" in fitted.text and "fact 6" in fitted.text
        assert "fact 5" not in fitted.text

    def test_reserved_tokens_tighten_budget(self):
        p = render_qa_prompt(_bank(k=2), "q here", "a b c d e f g h")
        total = _word_counter(p.text)
        fitted = fit_to_context(p, _word_counter, context_tokens=total,
                                reserved_tokens=4)
        assert _word_counter(fitted.text) <= total - 4

    def test_impossible_budget_raises(self):
        p = render_qa_prompt(_bank(k=1), "q here", "ev")
        with pytest.raises(PromptBudgetError):
            fit_to_context(p, _word_counter, context_tokens=2)

    def test_closed_book_fitting_drops_examples(self):
        p = render_closed_book_prompt(_bank(k=8), "q here")
        budget = _word_counter(p.text) - 5
        fitted = fit_to_context(p, _word_counter, context_tokens=budget)
        assert fitted.dropped_examples > 0
        assert "Evidence:" not in fitted.text
