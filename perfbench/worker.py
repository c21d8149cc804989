"""One pipeline process of the benchmark: build like ``webqa run``, then run.

Usage (started by ``run.py`` with ``src`` on ``PYTHONPATH``):

    python3 perfbench/worker.py --spawned-at T --result OUT.json
        [--setup-only] [--spans SPANS.jsonl] -- <webqa run flags>

``T`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start,
imports, config merge, dataset load, backend describe and bank loading.
The backend is the one ``webqa.cli.make_backend`` builds, with a
:class:`CountingBackend` slipped in between ``CachedBackend`` and the mock,
so every request that misses the cache is counted.  Nothing here reads a
clock inside the pipeline unless ``--spans`` turns tracing on.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BANK_KINDS = ("qa", "q_given_ap", "q_given_p", "a_given_p")


def tree_stats(root: Path) -> dict[str, list[int]]:
    """``{subdirectory: [files, bytes]}`` for the immediate subdirectories of ``root``."""
    stats: dict[str, list[int]] = {}
    if not root.is_dir():
        return stats
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        files = total = 0
        for dirpath, _, names in os.walk(sub):
            for name in names:
                files += 1
                total += os.path.getsize(os.path.join(dirpath, name))
        stats[sub.name] = [files, total]
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("pipeline_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    pipeline_args = [a for a in args.pipeline_args if a != "--"]

    import_start = time.monotonic()
    from webqa import cli
    from webqa.cache import NAMESPACES, OfflineCacheMiss
    from webqa.corpus import CorpusError
    from webqa.lmbackend import LMBackend
    from webqa.pipeline import ConfigError, PartialFailure
    from webqa.websearch import SearchError
    import_s = time.monotonic() - import_start

    class CountingBackend(LMBackend):
        """Delegates to ``inner`` and counts requests and their tokens; reads no clock."""

        def __init__(self, inner: LMBackend):
            self.inner = inner
            self.requests: Counter = Counter()
            self.tokens = 0
            self._lock = threading.Lock()

        def _count(self, op: str, tokens: int) -> None:
            with self._lock:
                self.requests[op] += 1
                self.tokens += tokens

        def describe(self):
            self._count("describe", 0)
            return self.inner.describe()

        def sample(self, prompt, params, seed):
            samples = self.inner.sample(prompt, params, seed)
            count = self.inner.count_tokens
            self._count("sample", count(prompt) + sum(count(s.text) for s in samples))
            return samples

        def score(self, prompt, continuation):
            value = self.inner.score(prompt, continuation)
            self._count("score", self.inner.count_tokens(prompt)
                        + self.inner.count_tokens(continuation))
            return value

        def count_tokens(self, text):
            tokens = self.inner.count_tokens(text)
            self._count("count_tokens", tokens)
            return tokens

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(CountingBackend)

    counting: list[CountingBackend] = []
    make_backend = cli.make_backend

    def make_counting_backend(config):
        backend = make_backend(config)
        backend.inner = CountingBackend(backend.inner)
        counting.append(backend.inner)
        return backend

    cli.make_backend = make_counting_backend

    result: dict = {"import_s": import_s, "exit_code": 0}
    try:
        config = cli.effective_config(cli.build_parser().parse_args(["run", *pipeline_args]))
        cache_root = Path(config["workdir"]) / "cache"
        cache_before = tree_stats(cache_root)
        pipeline = cli.make_pipeline(config)
        for kind in BANK_KINDS:
            pipeline.bank(kind)
        result["setup_s"] = time.monotonic() - args.spawned_at
        if not args.setup_only:
            run_start, cpu_start = time.monotonic(), time.process_time()
            pipeline.run()
            result["run_s"] = time.monotonic() - run_start
            result["cpu_s"] = time.process_time() - cpu_start
            result["questions"] = len(pipeline.records)
            result["failed"] = len(pipeline.failed)
    except OfflineCacheMiss as exc:
        result.update(exit_code=3, error=str(exc))
    except PartialFailure as exc:
        result.update(exit_code=2, error=str(exc))
    except (ConfigError, CorpusError, SearchError) as exc:
        result.update(exit_code=1, error=str(exc))

    if result["exit_code"] == 0 and not args.setup_only:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["backend_requests"] = dict(counting[0].requests)
        result["backend_tokens"] = counting[0].tokens
        cache_after = tree_stats(cache_root)
        result["cache"] = cache_after
        if tracer is not None:
            layers = tracer.layer_metrics()
            layers["cli.import_s"] = import_s
            for ns in NAMESPACES:
                layers[f"cache.put.{ns}.bytes"] = (cache_after.get(ns, [0, 0])[1]
                                                   - cache_before.get(ns, [0, 0])[1])
            result["layers"] = layers
            tracer.write(args.spans)

    with open(args.result, "w", encoding="utf-8") as fp:
        json.dump(result, fp, sort_keys=True)
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
