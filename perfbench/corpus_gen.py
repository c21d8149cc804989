"""Seeded synthetic web and dataset for the webqa benchmark.

``generate(profile, seed, out_dir)`` writes a fixture web that
``python -m webqa.fixtures --root <out_dir>/web`` can serve (``search.json``
plus ``pages/*.html``) and a line-delimited dataset ``<out_dir>/nq.jsonl``
that mixes generation and classification records.  Every value comes from
``random.Random`` instances seeded by strings derived from ``seed``, and
files are written with fixed key order and newlines, so the same profile
and seed give byte-identical output.

Each question is a planted fact (the <relation> of <subject> is <answer>).
Some of its search results state the fact; the rest are filler text that
shares the subject's vocabulary, so TF-IDF ranking has real work to do.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATASET_FILE = "nq.jsonl"

_SYLLABLES = (
    "ka", "lo", "mer", "ta", "vin", "dra", "sel", "or", "ba", "nu", "rix", "fen",
    "tal", "ques", "mo", "ren", "sa", "dil", "gor", "ve", "lan", "thu", "pi", "cor",
)
_RELATIONS = (
    "founder", "capital", "largest river", "chief export", "oldest school",
    "highest peak", "designer", "patron saint", "first mayor", "main harbor",
)
_ABBREVIATED = ("Dr.", "St.", "Prof.", "Mr.", "Gen.")


@dataclass(frozen=True)
class Profile:
    """Shape of one workload's corpus.

    The corpus's pages take the quantiles of a length distribution between
    ``min_page_chars`` and ``max_page_chars`` (target extracted-text
    length), shuffled among the questions: uniform with ``skew`` unset,
    else ``min * (max/min) ** (u ** skew)``, which gives a few long pages
    and many short ones.  Every seed gets the same lengths, so the work a
    corpus makes varies little with the seed.  ``heavy_boilerplate`` adds
    large script and navigation blocks that the extractor must skip.
    """

    questions: int
    pages_per_question: int
    min_page_chars: int
    max_page_chars: int
    answer_pages: int
    skew: float | None = None
    heavy_boilerplate: bool = False
    classification_every: int = 4

    def page_chars(self, rng: random.Random) -> list[list[int]]:
        """Target text length of every page, one list per question."""
        n = self.questions * self.pages_per_question
        lo, hi = self.min_page_chars, self.max_page_chars
        quantiles = [(i + 0.5) / n for i in range(n)]
        if self.skew is None:
            sizes = [int(lo + (hi - lo) * u) for u in quantiles]
        else:
            sizes = [int(lo * (hi / lo) ** (u ** self.skew)) for u in quantiles]
        rng.shuffle(sizes)
        return [sizes[q::self.questions] for q in range(self.questions)]


PROFILES = {
    # the paper's operating point: 20 short pages per question give more
    # than the 50 ranked paragraphs the answer stage samples from
    "paper": Profile(
        questions=2, pages_per_question=20, min_page_chars=1000, max_page_chars=3500,
        answer_pages=4, classification_every=2,
    ),
    # long pages: extraction, sentence splitting and ranking dominate
    "retrieve-heavy": Profile(
        questions=1, pages_per_question=20, min_page_chars=2000, max_page_chars=150_000,
        answer_pages=3, skew=5.0, heavy_boilerplate=True,
    ),
}


class _Lexicon:
    def __init__(self, rng: random.Random):
        words: set[str] = set()
        while len(words) < 900:
            words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))))
        self.words = sorted(words)
        rng.shuffle(self.words)
        self.nouns = self.words[:400]
        self.adjectives = self.words[400:600]
        self.verbs = self.words[600:750]
        self.names = [w.capitalize() for w in self.words[750:]]

    def noun(self, rng):
        return rng.choice(self.nouns)

    def name(self, rng):
        return rng.choice(self.names)


def _clause(lex: _Lexicon, rng: random.Random, mention: str) -> str:
    return (f", which {lex.name(rng)} {rng.choice(lex.verbs)}ed after the "
            f"{rng.choice(lex.adjectives)} {lex.noun(rng)} of {mention} had {rng.choice(lex.verbs)}ed")


def _filler_sentence(lex: _Lexicon, rng: random.Random, topic: list[str]) -> str:
    """One sentence of filler prose, sometimes mentioning topic words."""
    mention = " ".join(topic) if rng.random() < 0.3 else lex.noun(rng)
    year = rng.randint(1700, 2020)
    tail = _clause(lex, rng, lex.noun(rng)) if rng.random() < 0.7 else ""
    kind = rng.randrange(6)
    if kind == 0:
        return (f"{lex.name(rng)} {rng.choice(lex.verbs)}ed the {rng.choice(lex.adjectives)} "
                f"{lex.noun(rng)} of {lex.name(rng)} in {year}{tail}.")
    if kind == 1:
        return (f"The {lex.noun(rng)} near {mention} was described by "
                f"{rng.choice(_ABBREVIATED)} {lex.name(rng)} and {lex.name(rng)}{tail}.")
    if kind == 2:
        return (f"Records list approx. {rng.randint(2, 900)} {lex.noun(rng)}s at "
                f"{lex.name(rng)}, the {lex.noun(rng)}, etc. in the {mention} archive{tail}.")
    if kind == 3:
        return f"\"The {rng.choice(lex.adjectives)} {mention} remains{tail},\" said {lex.name(rng)}."
    if kind == 4:
        return f"Was the {lex.noun(rng)} of {lex.name(rng)} ever {rng.choice(lex.verbs)}ed{tail}?"
    return (f"{year} saw the {rng.choice(lex.adjectives)} {lex.noun(rng)} "
            f"{rng.choice(lex.verbs)} across {mention} and {lex.noun(rng)}{tail}.")


def _paragraphs(lex, rng, topic, target_chars: int, planted: list[str]) -> list[str]:
    paragraphs: list[str] = []
    total = 0
    pending = list(planted)
    while total < target_chars or pending:
        sentences = [_filler_sentence(lex, rng, topic) for _ in range(rng.randint(3, 8))]
        if pending:
            sentences.insert(rng.randrange(len(sentences) + 1), pending.pop())
        text = " ".join(sentences)
        paragraphs.append(text)
        total += len(text) + 1
    return paragraphs


def _boilerplate_script(rng: random.Random, heavy: bool) -> str:
    lines = [f"var tracker_{i} = \"{rng.getrandbits(64):016x}\"; // Not text. Ignore me."
             for i in range(rng.randint(40, 120) if heavy else 2)]
    return "<script>\n" + "\n".join(lines) + "\n</script>"


def _nav(lex: _Lexicon, rng: random.Random, heavy: bool) -> str:
    items = "".join(
        f"<li><a href=\"/{lex.noun(rng)}\">{lex.name(rng)} {lex.noun(rng)}</a></li>"
        for _ in range(rng.randint(30, 80) if heavy else 4)
    )
    return f"<nav><ul>{items}</ul></nav>"


def _page(lex, rng, title: str, paragraphs: list[str], heavy: bool) -> str:
    body = "\n".join(f"<p>{p}</p>" for p in paragraphs)
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n"
        f"<title>{title}</title>\n<style>p {{ margin: 1em; }}</style>\n"
        f"{_boilerplate_script(rng, heavy)}\n</head>\n<body>\n"
        f"{_nav(lex, rng, heavy)}\n<header>Site header. Search. Sign in.</header>\n"
        f"<main>\n<h1>{title}</h1>\n{body}\n</main>\n"
        f"<aside>{_nav(lex, rng, heavy)}</aside>\n"
        "<footer>Copyright notice and contact details.</footer>\n"
        f"{_boilerplate_script(rng, heavy)}\n</body>\n</html>\n"
    )


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(text)


def generate(profile: Profile, seed: int, out_dir: str | Path) -> None:
    """Write the corpus for ``profile`` and ``seed`` under ``out_dir``."""
    out = Path(out_dir)
    lex = _Lexicon(random.Random(f"webqa-bench:{seed}:lexicon"))
    index: dict[str, list[str]] = {}
    records: list[dict] = []
    subjects: set[str] = set()
    page_sizes = profile.page_chars(random.Random(f"webqa-bench:{seed}:pages"))
    for q in range(profile.questions):
        rng = random.Random(f"webqa-bench:{seed}:question:{q}")
        qid = f"b{q:03d}"
        while True:
            subject = f"{lex.name(rng)} {lex.noun(rng).capitalize()}"
            if subject not in subjects:
                subjects.add(subject)
                break
        relation = _RELATIONS[rng.randrange(len(_RELATIONS))]
        answer = f"{lex.name(rng)} {lex.name(rng)}"
        wrong = f"{lex.name(rng)} {lex.name(rng)}"
        fact = f"The {relation} of {subject} is {answer}."
        topic = subject.lower().split() + relation.split()
        if (q + 1) % profile.classification_every == 0:
            claimed = answer if rng.random() < 0.5 else wrong
            question = f"the {relation} of {subject.lower()} is {claimed.lower()}"
            record = {"id": qid, "question": question, "task": "classification",
                      "gold_label": "true" if claimed == answer else "false",
                      "label_set": ["true", "false"], "gold_evidence": [fact]}
        else:
            question = f"what is the {relation} of {subject.lower()}"
            record = {"id": qid, "question": question, "task": "generation",
                      "answers": [answer], "gold_evidence": [fact]}
        records.append(record)

        sizes = page_sizes[q]
        answer_ranks = set(rng.sample(range(len(sizes)), profile.answer_pages))
        paths = []
        for rank, size in enumerate(sizes):
            planted = [fact] if rank in answer_ranks else []
            paragraphs = _paragraphs(lex, rng, topic, size, planted)
            title = f"Notes on the {subject} ({qid} result {rank + 1})"
            rel = f"pages/{qid}-{rank:02d}.html"
            _write(out / "web" / rel, _page(lex, rng, title, paragraphs, profile.heavy_boilerplate))
            paths.append(rel)
        index[question] = paths

    _write(out / "web" / "search.json", json.dumps(index, indent=1, sort_keys=True) + "\n")
    _write(out / DATASET_FILE, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
