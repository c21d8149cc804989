import json
import pathlib

import pytest

from webqa import corpus
from webqa.corpus import (
    BANK_FIELDS,
    FIELD_LABELS,
    CorpusError,
    FewShotExample,
    PromptBank,
    QuestionRecord,
    derive_scorer_bank,
    load_bundled_bank,
    load_dataset,
    load_prompt_bank,
    parse_prompt_bank,
    split_heldout,
)


def example_block(example: FewShotExample, kind: str) -> str:
    """One example as it appears in a bank file."""
    return "\n".join(f"{FIELD_LABELS[name]} {getattr(example, name)}" for name in BANK_FIELDS[kind])


def serialize_prompt_bank(bank: PromptBank, path: pathlib.Path) -> None:
    """Write ``bank`` in canonical form; load → serialize is byte-identity."""
    parts = [f"dataset_id: {bank.dataset_id}\nkind: {bank.kind}\nk: {bank.k}"]
    parts.extend(example_block(ex, bank.kind) for ex in bank.examples)
    path.write_text("\n\n".join(parts) + "\n", encoding="utf-8")


def _gen(id, question="q", answers=("a",), gold=()):
    return QuestionRecord(id=id, question=question, task="generation",
                          answers=tuple(answers), gold_evidence=tuple(gold))


class TestQuestionRecord:
    def test_generation_requires_answers(self):
        with pytest.raises(CorpusError):
            QuestionRecord(id="x", question="q", task="generation")

    def test_classification_requires_label_in_label_set(self):
        with pytest.raises(CorpusError):
            QuestionRecord(id="x", question="q", task="classification",
                           gold_label="maybe", label_set=("true", "false"))

    def test_classification_ok(self):
        r = QuestionRecord(id="x", question="q", task="classification",
                           gold_label="true", label_set=("true", "false"))
        assert r.gold_label == "true"

    def test_unknown_task_rejected(self):
        with pytest.raises(CorpusError):
            QuestionRecord(id="x", question="q", task="retrieval")

    def test_empty_question_rejected(self):
        with pytest.raises(CorpusError):
            QuestionRecord(id="x", question="  ", task="generation", answers=("a",))

    def test_generation_record_must_not_carry_labels(self):
        with pytest.raises(CorpusError):
            QuestionRecord(id="x", question="q", task="generation",
                           answers=("a",), gold_label="true",
                           label_set=("true", "false"))


_GEN_ROW = ('{"id": "a", "question": "q", "task": "generation", '
            '"answers": ["a"], "gold_evidence": []}\n')


class TestLoadDataset:
    def test_roundtrip(self, tmp_path, qa_dataset_path):
        records = load_dataset(qa_dataset_path)
        assert len(records) == 10
        assert records[0].id == "q01"
        # re-encoded JSON (other spacing, blank lines dropped) loads the same
        out = tmp_path / "copy.jsonl"
        out.write_text("".join(
            json.dumps(json.loads(line), ensure_ascii=False) + "\n"
            for line in qa_dataset_path.read_text(encoding="utf-8").splitlines() if line.strip()
        ), encoding="utf-8")
        assert load_dataset(out) == records

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(_GEN_ROW + _GEN_ROW, encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_dataset(path)
        assert "duplicate" in str(err.value)

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(_GEN_ROW + "{not json\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_dataset(path)
        assert ":2:" in str(err.value)

    def test_gold_evidence_may_be_empty_but_never_missing(self, tmp_path):
        path = tmp_path / "nog.jsonl"
        row = ('{"id": "a", "question": "q", "task": "generation", '
               '"answers": ["x"]}\n')
        path.write_text(row, encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_dataset(path)
        assert "gold_evidence" in str(err.value)

    def test_classification_fixture_loads(self, cls_dataset_path):
        records = load_dataset(cls_dataset_path)
        assert [r.task for r in records] == ["classification"] * 4
        assert records[0].label_set == ("true", "false")


class TestSplitHeldout:
    def test_partition_and_size(self):
        records = [_gen(f"q{i:02d}") for i in range(20)]
        main, held = split_heldout(records, 0.1, seed=0)
        assert len(held) == 2
        assert len(main) == 18
        assert sorted(r.id for r in main + held) == [r.id for r in records]

    def test_rounding_is_round_half_even(self):
        # round(0.5 * 7) = round(3.5) = 4 under banker's rounding
        records = [_gen(f"q{i}") for i in range(7)]
        main, held = split_heldout(records, 0.5, seed=1)
        assert len(held) == 4 and len(main) == 3

    def test_deterministic_in_seed(self):
        records = [_gen(f"q{i:02d}") for i in range(30)]
        a = split_heldout(records, 0.2, seed=7)
        b = split_heldout(records, 0.2, seed=7)
        c = split_heldout(records, 0.2, seed=8)
        assert a == b
        assert {r.id for r in a[1]} != {r.id for r in c[1]}

    def test_outputs_preserve_dataset_order(self):
        records = [_gen(f"q{i:02d}") for i in range(10)]
        main, held = split_heldout(records, 0.3, seed=3)
        ids = [r.id for r in records]
        assert [r.id for r in main] == sorted((r.id for r in main), key=ids.index)
        assert [r.id for r in held] == sorted((r.id for r in held), key=ids.index)

    def test_fraction_bounds_enforced(self):
        records = [_gen(f"q{i}") for i in range(5)]
        with pytest.raises(CorpusError):
            split_heldout(records, 0.0, seed=0)
        with pytest.raises(CorpusError):
            split_heldout(records, 1.0, seed=0)


BANK_TEXT = """\
dataset_id: toy
kind: qa
k: 2

Evidence: The sky is blue.
Question: what color is the sky
Answer: blue

Evidence: Grass is green.
It really is.
Question: what color is grass
Answer: green
"""


class TestPromptBank:
    def test_parse_fields(self):
        bank = parse_prompt_bank(BANK_TEXT)
        assert bank.dataset_id == "toy"
        assert bank.kind == "qa"
        assert bank.k == 2
        assert bank.examples[0].answer == "blue"
        # continuation lines fold into the open field with the newline kept
        assert bank.examples[1].evidence == "Grass is green.\nIt really is."

    def test_serialize_roundtrip_byte_identical(self, tmp_path):
        bank = parse_prompt_bank(BANK_TEXT)
        out = tmp_path / "bank.txt"
        serialize_prompt_bank(bank, out)
        assert out.read_text(encoding="utf-8") == BANK_TEXT
        assert load_prompt_bank(out) == bank

    def test_k_mismatch_rejected(self):
        with pytest.raises(CorpusError):
            parse_prompt_bank(BANK_TEXT.replace("k: 2", "k: 3"))

    def test_field_order_enforced(self):
        swapped = BANK_TEXT.replace(
            "Evidence: The sky is blue.\nQuestion: what color is the sky",
            "Question: what color is the sky\nEvidence: The sky is blue.")
        with pytest.raises(CorpusError):
            parse_prompt_bank(swapped)

    def test_unknown_kind_rejected(self):
        with pytest.raises(CorpusError):
            parse_prompt_bank(BANK_TEXT.replace("kind: qa", "kind: chat"))

    def test_example_block_layout(self):
        ex = FewShotExample(evidence="E.", question="Q?", answer="A")
        assert example_block(ex, "qa") == "Evidence: E.\nQuestion: Q?\nAnswer: A"
        assert example_block(ex, "p_given_q") == "Question: Q?\nEvidence: E."

    def test_scorer_kind_tolerates_missing_fields(self):
        ex = FewShotExample(evidence="E.", question="Q?")
        bank = PromptBank(dataset_id="d", kind="q_given_p", examples=(ex,))
        assert bank.k == 1
        with pytest.raises(CorpusError):
            PromptBank(dataset_id="d", kind="qa", examples=(ex,))


class TestBundledBanks:
    BUNDLED = [("nq", "qa"), ("hotpotqa", "qa"), ("strategyqa", "qa"),
               ("fever", "qa"), ("nq", "q_given_ap"), ("nq", "q_given_p"),
               ("nq", "p_given_q"), ("nq", "a_given_p")]

    @pytest.mark.parametrize("dataset_id,kind", BUNDLED)
    def test_loads_with_fifteen_examples(self, dataset_id, kind):
        bank = load_bundled_bank(dataset_id, kind)
        assert bank is not None
        assert bank.k == 15
        assert bank.dataset_id == dataset_id
        assert bank.kind == kind

    def test_missing_bank_returns_none(self):
        assert load_bundled_bank("nosuch", "qa") is None

    def test_bundled_roundtrip_byte_identical(self, tmp_path):
        src = pathlib.Path(corpus.__file__).parent / "assets" / "prompts"
        for path in sorted(src.glob("*.txt")):
            bank = load_prompt_bank(path)
            out = tmp_path / path.name
            serialize_prompt_bank(bank, out)
            assert out.read_bytes() == path.read_bytes(), path.name


class TestDeriveScorerBank:
    def test_projects_qa_triples(self):
        qa = parse_prompt_bank(BANK_TEXT)
        derived = derive_scorer_bank(qa, "q_given_ap")
        assert derived.kind == "q_given_ap"
        assert derived.k == qa.k
        assert derived.examples[0].question == qa.examples[0].question
        assert derived.examples[0].answer == qa.examples[0].answer

    def test_requires_qa_source(self):
        qa = parse_prompt_bank(BANK_TEXT)
        derived = derive_scorer_bank(qa, "q_given_p")
        with pytest.raises(CorpusError):
            derive_scorer_bank(derived, "q_given_ap")
