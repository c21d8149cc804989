"""Regenerate the golden prompt files under tests/golden/.

The goldens pin the rendered prompt format byte-for-byte: few-shot block
layout, field order per bank kind, the bare cue line at the end, and the
exact bundled bank contents.  Run this only when the prompt format changes
on purpose, then review the diff like any other behavior change.

Each rendered prompt carries the SHA-256 that its cache keys hold, made from
its bank prefix's hash state rather than from its text.  The tool asserts
that it is the SHA-256 of the text, for every golden it writes and for a
prompt of every bundled bank, open and closed book.

Usage: python tools/make_golden_prompts.py
"""

import hashlib
import pathlib
import sys
from importlib import resources

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from webqa import corpus, prompting

OUT = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

QUESTION = "who wrote the iliad"
EVIDENCE = "The Iliad is an ancient Greek epic poem attributed to Homer."
ANSWER = "Homer"
CLAIM = "The Iliad was written by Homer."
TARGET = {"evidence": EVIDENCE, "question": QUESTION, "answer": ANSWER}


def check_digest(name: str, carried: str, text: bytes) -> None:
    expected = hashlib.sha256(text).hexdigest()
    assert carried == expected, f"{name}: carried sha256 {carried}, its text hashes to {expected}"


def check_bundled_banks() -> int:
    """Render a prompt of every bundled bank, open and closed book, and check its digest."""
    checked = 0
    for path in sorted(resources.files("webqa").joinpath("assets/prompts").iterdir()):
        if not path.name.endswith(".txt"):
            continue
        dataset_id, kind = path.name[:-len(".txt")].split("_", 1)
        bank = corpus.load_bundled_bank(dataset_id, kind)
        for closed_book in (False, True):
            fields = [f for f in corpus.BANK_FIELDS[kind] if not (closed_book and f == "evidence")]
            prompt = prompting.render_prompt(bank, closed_book=closed_book,
                                             **{f: TARGET[f] for f in fields[:-1]})
            check_digest(f"{path.name} closed_book={closed_book}", prompt.sha256, prompt.text.encode("utf-8"))
            checked += 1
    return checked


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    prompts: dict[str, prompting.RenderedPrompt] = {}

    for dataset_id in ("nq", "hotpotqa", "strategyqa"):
        bank = corpus.load_bundled_bank(dataset_id, "qa")
        prompts[f"qa_{dataset_id}.txt"] = prompting.render_qa_prompt(
            bank, QUESTION, EVIDENCE)
    fever = corpus.load_bundled_bank("fever", "qa")
    prompts["qa_fever.txt"] = prompting.render_qa_prompt(fever, CLAIM, EVIDENCE)

    nq = corpus.load_bundled_bank("nq", "qa")
    prompts["closed_nq.txt"] = prompting.render_closed_book_prompt(nq, QUESTION)

    q_ap = corpus.load_bundled_bank("nq", "q_given_ap")
    prompts["scorer_nq_q_given_ap.txt"] = prompting.render_prompt(
        q_ap, evidence=EVIDENCE, answer=ANSWER)
    q_p = corpus.load_bundled_bank("nq", "q_given_p")
    prompts["scorer_nq_q_given_p.txt"] = prompting.render_prompt(
        q_p, evidence=EVIDENCE)
    p_q = corpus.load_bundled_bank("nq", "p_given_q")
    prompts["scorer_nq_p_given_q.txt"] = prompting.render_prompt(
        p_q, question=QUESTION)

    for name, prompt in sorted(prompts.items()):
        path = OUT / name
        path.write_text(prompt.text, encoding="utf-8")
        check_digest(name, prompt.sha256, path.read_bytes())
        print(f"wrote {path} ({len(prompt.text)} bytes)")
    print(f"checked the digests of {check_bundled_banks()} bundled bank prompts")


if __name__ == "__main__":
    main()
