"""The webqa benchmark: paper-scale cold run, offline replay, retrieval-heavy.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all     # every workload, seed 0
    python3 -m pytest perfbench -q              # the benchmark's own tests

Each run generates a corpus from ``--seed`` (``corpus_gen.py``), serves its
pages with ``python -m webqa.fixtures`` in a process of its own, and runs
the unmodified pipeline again and again, each time as one fresh process
(``worker.py``) with the mock backend, until ``--seconds`` have been
measured.  Medians over those processes are the end-to-end metrics; the
last line of standard output is one JSON object with them.  ``--trace 1``
alternates untraced and traced processes instead and reports the per-layer
metrics of ``tracing.py`` plus the tracing overhead, and writes the spans
of the last traced process to ``.perfbench/spans/``.  ``BENCHMARK.json``
names every metric and unit, ``layers.json`` says which end-to-end metric
and workload each per-layer metric should move, and ``baseline.json``
holds the numbers measured at the commit that added the benchmark.

Every process must exit 0 with no failed question and must leave the same
``predictions/``, ``reports/``, ``cost/`` and ``calls/`` bytes; the offline
replay must match the cold run that warmed its cache and must not change
that cache; for the reference seed the bytes must match ``reference.json``.

Workloads (why each was chosen):

* ``paper-cold`` -- the paper's operating point (20 URLs, 50 paragraphs,
  4 samples per paragraph, 200 closed-book samples, bundled 15-shot ``nq``
  banks) from an empty workdir, on one generation and one classification
  question per process.  LM requests, prompt fitting and cache writes do
  most of the work; retrieval is about a tenth.
* ``paper-offline`` -- the same inputs replayed with ``--offline`` from a
  cache warmed before measuring.  The backend gets no request, so a
  backend-side gain shows nothing here while a cache-format change shows
  here and on ``paper-cold``.
* ``retrieve-heavy`` -- 20 pages of 2 KB to about 100 KB of text behind
  script and navigation boilerplate, but only 5 paragraphs, 1 sample and
  1 closed-book sample.  Extraction, sentence splitting and TF-IDF ranking do nearly all
  the work, so a chunking or ranking gain shows here and nowhere else.

The pipeline runs with one worker thread: the mock backend is pure Python
under one interpreter lock, and a second thread only added switching cost.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import corpus_gen  # noqa: E402

ARTIFACT_DIRS = ("predictions", "reports", "cost", "calls")
COMMON_FLAGS = ("--dataset-id", "nq", "--max-workers", "1")
# half of the two questions is held out, so weights are tuned on one
PAPER_FLAGS = ("--top-urls", "20", "--paragraphs", "50", "--samples-per-paragraph", "4",
               "--closed-book-samples", "200", "--heldout-fraction", "0.5")
RETRIEVE_FLAGS = ("--top-urls", "20", "--paragraphs", "5", "--samples-per-paragraph", "1",
                  "--closed-book-samples", "1")
MIN_ITERATIONS = 3
MIN_TRACE_ITERATIONS = 4  # two untraced, two traced
SETUP_PROBES = 5
# no new process starts after this many seconds, so a run that got much
# slower still ends well inside the three minutes a run may take
HARD_STOP_S = 110.0
PROCESS_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    profile: str
    flags: tuple[str, ...]
    offline: bool


WORKLOADS = {
    "paper-cold": Workload("paper", PAPER_FLAGS, offline=False),
    "paper-offline": Workload("paper", PAPER_FLAGS, offline=True),
    "retrieve-heavy": Workload("retrieve-heavy", RETRIEVE_FLAGS, offline=False),
}


class BenchError(RuntimeError):
    """A process of the run failed or its outputs are wrong."""


def artifact_digest(workdir: Path, dirs=ARTIFACT_DIRS) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``dirs``."""
    h = hashlib.sha256()
    for top in dirs:
        base = workdir / top
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(workdir)).encode("utf-8") + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


class FixtureWeb:
    """``python -m webqa.fixtures`` over a generated web, in its own process."""

    def __init__(self, root: Path, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "webqa.fixtures", "--root", str(root)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        self.base_url = self._proc.stdout.readline().strip()
        if not self.base_url.startswith("http://"):
            self.stop()
            raise BenchError("fixture server did not start")

    def stop(self) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Run:
    """One benchmark run of one workload in a private working directory."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.dir = WORK_ROOT / f"{name}-seed{seed}-pid{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._n = 0

    def worker(self, workdir: Path, web: FixtureWeb, offline: bool, setup_only=False,
               spans=None) -> dict:
        self._n += 1
        result_path = self.dir / f"result-{self._n}.json"
        log_path = self.dir / f"stderr-{self._n}.txt"
        args = ["--dataset", str(self.dir / corpus_gen.DATASET_FILE), "--workdir", str(workdir),
                "--search-endpoint", web.base_url, *COMMON_FLAGS, *self.workload.flags]
        if offline:
            args.append("--offline")
        cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic()), "--", *args],
                                      env=self.env, stdout=log, stderr=log,
                                      timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"pipeline process timed out after {PROCESS_TIMEOUT_S}s") from None
        if proc.returncode != 0 or not result_path.exists():
            tail = log_path.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"pipeline process exited {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not setup_only and result["failed"]:
            raise BenchError(f"{result['failed']} of {result['questions']} questions failed")
        return result

    def execute(self, seconds: float) -> dict:
        """Measure for ``seconds``; returns the result object the harness prints."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        corpus_gen.generate(corpus_gen.PROFILES[self.workload.profile], self.seed, self.dir)
        n_questions = corpus_gen.PROFILES[self.workload.profile].questions
        iterations: list[dict] = []
        setups: list[float] = []
        attempted = failed = 0
        correct = True
        web = FixtureWeb(self.dir / "web", self.env)
        try:
            offline = self.workload.offline
            warm = self.dir / "warm"
            cold_pass = None
            if offline:
                cold_pass = self.worker(warm, web, offline=False)
                expected = artifact_digest(warm)
                cache_digest = artifact_digest(warm, ("cache",))
            else:
                expected = None

            for i in range(SETUP_PROBES):
                probe = warm if offline else self.dir / f"probe-{i}"
                setups.append(self.worker(probe, web, offline, setup_only=True)["setup_s"])

            start = time.monotonic()
            traced_turn = False
            while True:
                elapsed = time.monotonic() - start
                done = len(iterations)
                enough = done >= (MIN_TRACE_ITERATIONS if self.trace else MIN_ITERATIONS)
                if elapsed > HARD_STOP_S or (
                        enough and elapsed + elapsed / max(done, 1) > seconds):
                    break
                workdir = warm if offline else self.dir / f"work-{done}"
                spans = None
                if traced_turn:
                    spans = WORK_ROOT / "spans" / f"{self.name}-seed{self.seed}.jsonl"
                    spans.parent.mkdir(parents=True, exist_ok=True)
                attempted += n_questions
                try:
                    result = self.worker(workdir, web, offline, spans=spans)
                    digest = artifact_digest(workdir)
                    if expected is None:
                        expected = digest
                    if digest != expected:
                        raise BenchError("artifacts differ from the first run of the same inputs")
                    requests = sum(result["backend_requests"].values())
                    if offline and requests:
                        raise BenchError(f"offline replay sent {requests} backend requests")
                    if not offline and not requests:
                        raise BenchError("cold run sent no backend request")
                except BenchError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    failed += n_questions
                    correct = False
                    break
                result["traced"] = traced_turn
                iterations.append(result)
                if not traced_turn:
                    setups.append(result["setup_s"])
                if not offline:
                    shutil.rmtree(workdir)
                if self.trace:
                    traced_turn = not traced_turn

            if correct and offline and artifact_digest(warm, ("cache",)) != cache_digest:
                print("error: offline replay changed the cache", file=sys.stderr)
                correct = False
            if correct:
                correct = self._matches_reference(expected)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            correct = False
        finally:
            web.stop()
        if not correct:
            failed = attempted = max(attempted, n_questions)
        else:
            shutil.rmtree(self.dir, ignore_errors=True)
        print(f"# {self.name} seed={self.seed} processes: "
              + " ".join(f"{r['run_s']:.2f}s/{r['cpu_s']:.2f}cpu" for r in iterations)
              + "; setup " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
        out = {"correct": correct, "attempted": attempted, "failed": failed, "digest": expected}
        if iterations:
            out["metrics"] = self._metrics(iterations, setups, cold_pass, attempted, failed)
        return out

    def _matches_reference(self, digest: str) -> bool:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if self.seed != reference["seed"]:
            return True
        want = reference["artifact_sha256"].get(self.name)
        if want != digest:
            print(f"error: artifacts for seed {self.seed} hash to {digest}, "
                  f"reference.json says {want}", file=sys.stderr)
            return False
        return True

    def _metrics(self, iterations, setups, cold_pass, attempted, failed) -> dict:
        untraced = [r for r in iterations if not r["traced"]]
        traced = [r for r in iterations if r["traced"]]
        if self.trace:
            if not (traced and untraced):
                return {}
            names = traced[0]["layers"]
            metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
            metrics["trace.overhead_share"] = (
                statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in untraced) - 1.0)
            return metrics
        first = iterations[0]
        q = first["questions"]
        # an offline replay sends the backend nothing, so its request and
        # token counts are those of the cold pass that filled its cache
        cold = cold_pass or first
        cache_files = sum(files for files, _ in first["cache"].values())
        cache_bytes = sum(size for _, size in first["cache"].values())
        return {
            "questions_per_s": statistics.median(r["questions"] / r["run_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "lm_requests_per_question": sum(cold["backend_requests"].values()) / q,
            "lm_tokens_per_question": cold["backend_tokens"] / q,
            "cache_bytes_per_question": cache_bytes / q,
            "cache_files_per_question": cache_files / q,
            "completed_share": 1.0 - failed / attempted,
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result object, with the metrics and units BENCHMARK.json lists."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = Run(name, seed, trace).execute(seconds)
    print(f"# {name} seed={seed} trace={int(trace)} correct={out['correct']} "
          f"attempted={out['attempted']} failed={out['failed']} artifacts={out['digest']}")
    metrics = out.get("metrics", {})
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"measured metrics differ from {SPEC.name}: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for metric in units:
        if metric in metrics:
            print(f"{name:>15} {metric:<52} {metrics[metric]:>16.6g} {units[metric]}")
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the webqa benchmark.")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "webqa" / "__init__.py").is_file():
        print(f"error: no webqa sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
