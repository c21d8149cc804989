"""Spans around calls into webqa's layers, recorded from outside the program.

``Tracer.install()`` replaces the public functions the pipeline calls into
(and the methods it calls on its cache and backends) with wrappers that
record one span per call: name, start, end, parent span and question id.
Spans are kept in memory; ``write()`` saves them as JSON lines and
``layer_metrics()`` folds them into the benchmark's per-layer numbers.

Parenting: each thread keeps a stack of open spans.  A span opened on a
thread with no open span (a ``_map_questions`` pool thread) is parented to
the running pipeline stage, because stages run one at a time.  Without that
a stage would report its children's time as its own.  The private
``Pipeline._map_questions`` is wrapped only to tag each pool thread's spans
with the id of the question it works on.  Installation lasts for the life
of the (single-run) process.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

from webqa import cache, chunkrank, pipeline, rerank, websearch
from webqa.lmbackend import CachedBackend

LM_OPS = ("sample", "score", "count_tokens", "describe")
STAGES = ("retrieve", "answer", "closed", "tune", "rerank", "eval", "cost")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._stage: int | None = None
        self.count_token_texts: set[int] = set()

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, arg_fields=None, result_fields=None, skip_inside=()):
        """``fn`` timed as span ``name``.

        ``arg_fields(args)`` and, on success, ``result_fields(result)`` add
        fields to the span.  A call made while a span named ``name`` or one
        in ``skip_inside`` is open on the same thread is an internal call,
        not a call into the layer, and is passed through unrecorded.
        """
        skip = {name, *skip_inside}
        is_stage = name.startswith("pipeline.stage_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if any(open_name in skip for _, open_name in stack):
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            span = {"id": span_id, "name": name, "parent": stack[-1][0] if stack else self._stage,
                    "qid": getattr(self._local, "qid", None), "ok": False}
            if arg_fields is not None:
                span.update(arg_fields(args))
            stack.append((span_id, name))
            if is_stage:
                self._stage = span_id
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["ok"] = True
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if is_stage:
                    self._stage = None
                if span["ok"] and result_fields is not None:
                    span.update(result_fields(result))
                self.spans.append(span)

        return traced

    def patch(self, owner, attr: str, name: str, arg_fields=None, result_fields=None,
              skip_inside=()):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), arg_fields, result_fields,
                                       skip_inside))

    # --- installation -------------------------------------------------------

    def install(self, backend_class) -> None:
        """Wrap every layer boundary; ``backend_class`` is the request-counting backend."""
        p = self.patch
        p(websearch, "retrieve_documents", "websearch.retrieve_documents")
        p(websearch, "cached_search", "websearch.cached_search")
        p(websearch, "fetch_page", "websearch.fetch_page")
        p(websearch, "extract_text", "websearch.extract_text",
          arg_fields=lambda a: {"bytes_in": len(a[0].encode("utf-8"))})
        p(chunkrank, "chunk", "chunkrank.chunk",
          arg_fields=lambda a: {"chars_in": len(a[0])},
          result_fields=lambda r: {"paragraphs_out": len(r)})
        p(chunkrank, "rank_paragraphs", "chunkrank.rank_paragraphs",
          arg_fields=lambda a: {"paragraphs_in": len(a[1])},
          result_fields=lambda r: {"paragraphs_kept": len(r)})
        for fn in ("render_prompt", "render_qa_prompt", "render_closed_book_prompt"):
            p(pipeline, fn, "prompting.render")
        p(pipeline, "fit_to_context", "prompting.fit_to_context",
          result_fields=lambda r: {"truncated": bool(r.evidence_truncated or r.dropped_examples)})
        for op in LM_OPS:
            p(CachedBackend, op, f"lmbackend.CachedBackend.{op}",
              arg_fields=self._remember_text if op == "count_tokens" else None)
            p(backend_class, op, f"lmbackend.backend.{op}")
        p(cache.RequestCache, "get", "cache.get", arg_fields=_namespace)
        p(cache.RequestCache, "put", "cache.put", arg_fields=_namespace)
        for stage in STAGES:
            p(pipeline.Pipeline, f"stage_{stage}", f"pipeline.stage_{stage}")
        p(rerank, "select_answer", "rerank.select_answer",
          arg_fields=lambda a: {"pairs_in": len(a[0])}, skip_inside=("rerank.tune_weights",))
        p(rerank, "tune_weights", "rerank.tune_weights",
          result_fields=lambda r: {"objective_evals": len(r.trace)})
        p(pipeline, "evaluate_predictions", "evaluation.evaluate_predictions")
        p(pipeline, "load_dataset", "corpus.load_dataset")
        p(pipeline.Pipeline, "bank", "corpus.bank")

        original_map = pipeline.Pipeline._map_questions
        local = self._local

        def map_questions(pipe, records, worker, stage):
            def tagged(record):
                local.qid = record.id
                try:
                    return worker(record)
                finally:
                    local.qid = None
            return original_map(pipe, records, tagged, stage)

        pipeline.Pipeline._map_questions = map_questions

    def _remember_text(self, args) -> dict:
        self.count_token_texts.add(hash(args[1]))
        return {}

    # --- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fp.write(json.dumps(span, sort_keys=True) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, len(self.count_token_texts))


def _namespace(args) -> dict:
    return {"namespace": args[1].namespace}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def layer_metrics(spans: list[dict], distinct_count_token_texts: int) -> dict[str, float]:
    """Fold spans into ``<module>.<function>.<quantity>`` numbers."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name):
        return sum(selfs[s["id"]] for s in by_name[name])

    def total(name, field):
        return sum(s.get(field, 0) for s in by_name[name])

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m: dict[str, float] = {}
    for name in ("websearch.fetch_page", "websearch.extract_text", "websearch.cached_search",
                 "chunkrank.chunk", "chunkrank.rank_paragraphs", "prompting.render",
                 "prompting.fit_to_context", "rerank.select_answer"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["websearch.extract_text.bytes_in"] = total("websearch.extract_text", "bytes_in")
    m["chunkrank.chunk.self_s"] = self_s("chunkrank.chunk")
    m["chunkrank.chunk.chars_in"] = total("chunkrank.chunk", "chars_in")
    m["chunkrank.chunk.paragraphs_out"] = total("chunkrank.chunk", "paragraphs_out")
    m["chunkrank.rank_paragraphs.paragraphs_in"] = total("chunkrank.rank_paragraphs", "paragraphs_in")
    m["chunkrank.kept_share"] = share(total("chunkrank.rank_paragraphs", "paragraphs_kept"),
                                      m["chunkrank.chunk.paragraphs_out"])

    fit = "prompting.fit_to_context"
    fit_ids = {s["id"] for s in by_name[fit]}
    m[f"{fit}.self_s"] = self_s(fit)
    m[f"{fit}.count_tokens_calls"] = sum(
        1 for s in by_name["lmbackend.CachedBackend.count_tokens"] if s["parent"] in fit_ids)
    m[f"{fit}.truncated_share"] = share(sum(1 for s in by_name[fit] if s.get("truncated")),
                                        calls(fit))

    for op in LM_OPS:
        for side in ("CachedBackend", "backend"):
            name = f"lmbackend.{side}.{op}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = busy(name)
    cached_count = calls("lmbackend.CachedBackend.count_tokens")
    m["lmbackend.count_tokens.distinct_share"] = share(distinct_count_token_texts, cached_count)
    cached_requests = sum(calls(f"lmbackend.CachedBackend.{op}") for op in LM_OPS)
    backend_requests = sum(calls(f"lmbackend.backend.{op}") for op in LM_OPS)
    m["lmbackend.hit_share"] = 1.0 - share(backend_requests, cached_requests)

    for op in ("get", "put"):
        per_ns: dict[str, list[dict]] = defaultdict(list)
        for s in by_name[f"cache.{op}"]:
            per_ns[s["namespace"]].append(s)
        for ns in cache.NAMESPACES:
            entries = per_ns[ns]
            m[f"cache.{op}.{ns}.calls"] = len(entries)
            m[f"cache.{op}.{ns}.busy_s"] = sum(s["end"] - s["start"] for s in entries)
            if op == "get":
                m[f"cache.get.{ns}.hit_share"] = share(sum(1 for s in entries if s["ok"]),
                                                      len(entries))

    for stage in STAGES:
        name = f"pipeline.stage_{stage}"
        m[f"{name}.wall_s"] = busy(name)
        m[f"{name}.self_s"] = self_s(name)

    m["rerank.select_answer.pairs_in"] = total("rerank.select_answer", "pairs_in")
    m["rerank.tune_weights.busy_s"] = busy("rerank.tune_weights")
    m["rerank.tune_weights.objective_evals"] = total("rerank.tune_weights", "objective_evals")
    m["evaluation.evaluate_predictions.busy_s"] = busy("evaluation.evaluate_predictions")
    m["corpus.load_dataset.busy_s"] = busy("corpus.load_dataset")
    m["corpus.bank.busy_s"] = busy("corpus.bank")
    return m
