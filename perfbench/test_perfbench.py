"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They check that the generator is deterministic, that spans nest sanely, and
that each workload does the job it was chosen for.  The workload checks
compare input properties and request counts, never timings, so a later
speed-up of one layer cannot break them.  They run each workload's pipeline
once, traced, which takes about half a minute.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus_gen  # noqa: E402
import run  # noqa: E402
from tracing import self_times  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("profile", sorted(corpus_gen.PROFILES))
def test_generator_is_deterministic(tmp_path, profile):
    spec = corpus_gen.PROFILES[profile]
    corpus_gen.generate(spec, 7, tmp_path / "a")
    corpus_gen.generate(spec, 7, tmp_path / "b")
    corpus_gen.generate(spec, 8, tmp_path / "c")
    a, b, c = _tree(tmp_path / "a"), _tree(tmp_path / "b"), _tree(tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_dataset_mixes_generation_and_classification(tmp_path):
    corpus_gen.generate(corpus_gen.PROFILES["paper"], 3, tmp_path)
    records = [json.loads(line) for line in
               (tmp_path / corpus_gen.DATASET_FILE).read_text(encoding="utf-8").splitlines()]
    tasks = {r["task"] for r in records}
    assert tasks == {"generation", "classification"}
    index = json.loads((tmp_path / "web" / "search.json").read_text(encoding="utf-8"))
    assert sorted(index) == sorted(r["question"] for r in records)
    assert all(len(pages) == 20 for pages in index.values())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps 1, another thread
        {"id": 3, "parent": 2, "start": 3.5, "end": 4.5},
    ]
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0}


def test_every_per_layer_metric_maps_to_an_end_to_end_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for metric in spec["per_layer"]:
        groups = [g for g in layers if metric["name"].startswith(g)]
        assert groups, metric["name"]
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= workloads


class _Traced:
    """One traced pipeline process per workload, shared by the tests below."""

    def __init__(self, root: Path):
        self.root = root
        self.layers: dict[str, dict] = {}
        self.results: dict[str, dict] = {}
        self.spans: dict[str, list[dict]] = {}

    def run(self, name: str) -> None:
        bench = run.Run(name, seed=5, trace=True)
        bench.dir = self.root / name
        bench.dir.mkdir()
        corpus_gen.generate(corpus_gen.PROFILES[bench.workload.profile], 5, bench.dir)
        web = run.FixtureWeb(bench.dir / "web", bench.env)
        try:
            workdir = bench.dir / "work"
            if bench.workload.offline:
                bench.worker(workdir, web, offline=False)
            spans = bench.dir / "spans.jsonl"
            result = bench.worker(workdir, web, bench.workload.offline, spans=spans)
        finally:
            web.stop()
        self.results[name] = result
        self.layers[name] = result["layers"]
        self.spans[name] = [json.loads(line) for line in
                            spans.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = _Traced(tmp_path_factory.mktemp("traced"))
    for name in run.WORKLOADS:
        out.run(name)
    return out


def _backend_requests(layers: dict) -> float:
    return sum(v for k, v in layers.items()
               if k.startswith("lmbackend.backend.") and k.endswith(".calls"))


def _per_question(traced, name, value):
    return value / traced.results[name]["questions"]


def test_spans_nest_inside_their_parents(traced):
    for name, spans in traced.spans.items():
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            assert s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (name, s)
            if s["qid"] is not None:
                # work done for one question runs on a pool thread and must
                # still be attributed to the stage that started it
                assert s["parent"] is not None, (name, s)
        assert all(v >= 0.0 for v in self_times(spans).values()), name


def test_every_per_layer_metric_is_reported(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_share"}
    for name, layers in traced.layers.items():
        assert names <= set(layers), (name, sorted(names - set(layers)))


def test_retrieve_heavy_feeds_the_chunker_and_spares_the_lm(traced):
    heavy = _per_question(traced, "retrieve-heavy",
                          traced.layers["retrieve-heavy"]["chunkrank.chunk.chars_in"])
    paper = _per_question(traced, "paper-cold",
                          traced.layers["paper-cold"]["chunkrank.chunk.chars_in"])
    assert heavy >= 3 * paper
    heavy_requests = _per_question(traced, "retrieve-heavy",
                                   _backend_requests(traced.layers["retrieve-heavy"]))
    paper_requests = _per_question(traced, "paper-cold",
                                   _backend_requests(traced.layers["paper-cold"]))
    assert 10 * heavy_requests <= paper_requests


def test_offline_replay_sends_no_backend_request(traced):
    assert _backend_requests(traced.layers["paper-offline"]) == 0
    assert traced.results["paper-offline"]["backend_requests"] == {}
    assert traced.layers["paper-offline"]["lmbackend.hit_share"] == 1.0


def test_cold_runs_send_backend_requests(traced):
    for name in ("paper-cold", "retrieve-heavy"):
        assert _backend_requests(traced.layers[name]) > 0
        assert sum(traced.results[name]["backend_requests"].values()) > 0
