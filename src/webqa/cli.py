"""Command-line interface.

Subcommands mirror the pipeline stages (retrieve, answer, tune-weights,
rerank, eval, cost) plus ``run`` for the whole sequence.  Settings come
from built-in defaults, then an optional JSON config file, then explicit
flags, in that order of precedence.  Exit codes: 0 success, 1 bad
configuration, 2 too many failed questions, 3 cache miss in offline mode.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .cache import OfflineCacheMiss, RequestCache
from .corpus import CorpusError
from .lmbackend import CachedBackend, HTTPBackend, LMBackend, MockBackend
from .net import NetError
from .pipeline import (
    EVIDENCE_MODES,
    ConfigError,
    PartialFailure,
    Pipeline,
    PipelineConfig,
)
from .rerank import SCORERS, WEIGHT_NAMES
from .websearch import FixtureSearchClient, GoogleCustomSearchClient, SearchError

logger = logging.getLogger(__name__)

GOOGLE_API_KEY_VAR = "WEBQA_GOOGLE_API_KEY"
GOOGLE_CSE_ID_VAR = "WEBQA_GOOGLE_CSE_ID"

# config keys that differ from the PipelineConfig field they set
_CONFIG_KEYS = {"dataset_path": "dataset", "poe_weights": "weights"}


def _config_key(field: dataclasses.Field) -> str:
    return _CONFIG_KEYS.get(field.name, field.name)


DEFAULTS = {
    **{
        _config_key(f): f.default
        for f in dataclasses.fields(PipelineConfig)
        if f.default is not dataclasses.MISSING
    },
    "dataset_id": None,
    "search_endpoint": "google",
    "backend": "mock",
    "param_count": 1_000_000,
    "offline": False,
}

COMMANDS = ("retrieve", "answer", "tune-weights", "rerank", "eval", "cost", "run")

# config-file keys whose value is a JSON list of items of this type; all but stop
# also take a comma-separated string, as their flags do
_LIST_ITEMS = {"stop": str, "weights": float, "cost_points": int, "recall_ks": int}
# the type of the config-file keys whose default is null
_NULLABLE = {"dataset_id": str, "context_tokens": int, "banks_dir": str}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
_LIST_NAMES = {int: "a list of integers", float: "a list of numbers", str: "a list of strings"}


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="line-delimited JSON dataset")
    parser.add_argument("--workdir", required=True, help="directory for cache and artifacts")
    parser.add_argument("--config", help="JSON file with defaults for any flag below")
    parser.add_argument("--dataset-id", dest="dataset_id",
                        help="bank lookup key (default: dataset file stem)")
    parser.add_argument("--evidence", choices=EVIDENCE_MODES,
                        help="conditioning evidence: search, gold, or closed")
    parser.add_argument("--scorer", choices=SCORERS, help="answer selection scorer")
    parser.add_argument("--weights",
                        help=f"comma-separated fixed weights for poe ({','.join(WEIGHT_NAMES)})")
    parser.add_argument("--search-endpoint", dest="search_endpoint",
                        help="'google' or the base URL of a fixture search server")
    parser.add_argument("--backend", help="'mock' or the base URL of a completion server")
    parser.add_argument("--param-count", dest="param_count", type=int,
                        help="parameter count reported by the mock backend")
    parser.add_argument("--top-urls", dest="num_urls", type=int,
                        help="search results fetched per question")
    parser.add_argument("--chunk-sentences", dest="chunk_sentences", type=int,
                        help="sentences per evidence paragraph")
    parser.add_argument("--paragraphs", dest="top_paragraphs", type=int,
                        help="paragraphs kept after ranking")
    parser.add_argument("--samples-per-paragraph", dest="samples_per_paragraph", type=int,
                        help="answers sampled from each paragraph")
    parser.add_argument("--closed-book-samples", dest="closed_book_samples", type=int,
                        help="answers sampled without evidence")
    parser.add_argument("--nucleus-p", dest="nucleus_p", type=float,
                        help="nucleus sampling probability cut-off")
    parser.add_argument("--temperature", type=float, help="sampling temperature")
    parser.add_argument("--max-new-tokens", dest="max_new_tokens", type=int,
                        help="generation budget per sample")
    parser.add_argument("--heldout-fraction", dest="heldout_fraction", type=float,
                        help="share of questions held out for weight tuning")
    parser.add_argument("--seed", type=int, help="base seed for sampling and splits")
    parser.add_argument("--offline", action=argparse.BooleanOptionalAction,
                        help="serve everything from cache; misses are an error")
    parser.add_argument("--max-workers", dest="max_workers", type=int,
                        help="questions processed concurrently")
    parser.add_argument("--cost-points", dest="cost_points",
                        help="comma-separated paragraph counts for the cost sweep")
    parser.add_argument("--context-tokens", dest="context_tokens", type=int,
                        help="prompt budget override (default: backend context size)")
    parser.add_argument("--recall-ks", dest="recall_ks",
                        help="comma-separated cut-offs for answer recall")
    parser.add_argument("--banks-dir", dest="banks_dir",
                        help="directory with <dataset_id>_<kind>.txt prompt banks")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webqa",
        description="Few-shot question answering over web search results.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    helps = {
        "retrieve": "search, fetch, chunk, and rank evidence paragraphs",
        "answer": "sample candidate answers and compute rerank scores",
        "tune-weights": "fit product-of-experts weights on the held-out split",
        "rerank": "select one answer per question",
        "eval": "score predictions and write the metrics report",
        "cost": "sweep accuracy against compute over paragraph counts",
        "run": "all stages in order",
    }
    for command in COMMANDS:
        sub = subparsers.add_parser(command, help=helps[command])
        _add_common_arguments(sub)
    return parser


def _parse_number_list(raw, flag: str, cast) -> list:
    if isinstance(raw, (list, tuple)):
        return [cast(v) for v in raw]
    try:
        return [cast(part) for part in str(raw).split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated values, got {raw!r}") from None


def _is_a(value, kind: type) -> bool:
    """Whether a JSON ``value`` is a ``kind``; an integer is a float, a bool is neither."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_file_value(key: str, value) -> None:
    """Raise :class:`ConfigError` unless config-file ``value`` has the type of ``DEFAULTS[key]``."""
    default = DEFAULTS[key]
    if value is None and default is None:
        return
    if key in _LIST_ITEMS:
        item = _LIST_ITEMS[key]
        if isinstance(value, list) and all(_is_a(v, item) for v in value):
            return
        if key != "stop" and isinstance(value, str):
            return
        expected = _LIST_NAMES[item]
        if key != "stop":
            expected += " or a comma-separated string"
    else:
        kind = _NULLABLE.get(key, type(default))
        if _is_a(value, kind):
            return
        expected = _TYPE_NAMES[kind] + (" or null" if default is None else "")
    raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def effective_config(args: argparse.Namespace) -> dict:
    """Merge defaults, the JSON config file, and explicit flags."""
    merged = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fp:
                file_values = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            _check_file_value(key, value)
        merged.update(file_values)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value

    merged["dataset"] = args.dataset
    merged["workdir"] = args.workdir
    if not merged["dataset_id"]:
        stem = os.path.basename(args.dataset)
        merged["dataset_id"] = stem.split(".")[0]
    if merged["weights"] is not None:
        weights = _parse_number_list(merged["weights"], "--weights", float)
        if len(weights) != len(WEIGHT_NAMES):
            raise ConfigError(f"--weights needs {len(WEIGHT_NAMES)} values, got {len(weights)}")
        merged["weights"] = tuple(weights)
    merged["cost_points"] = tuple(_parse_number_list(merged["cost_points"], "--cost-points", int))
    merged["recall_ks"] = tuple(_parse_number_list(merged["recall_ks"], "--recall-ks", int))
    merged["stop"] = tuple(merged["stop"])
    merged["offline"] = bool(merged["offline"])
    return merged


def make_backend(config: dict) -> CachedBackend:
    cache = RequestCache(os.path.join(config["workdir"], "cache"), offline=config["offline"])
    if config["backend"] == "mock":
        inner: LMBackend = MockBackend(param_count=config["param_count"])
        # the description names the parameter count, so a new count must miss
        identity = f"mock(param_count={config['param_count']})"
    else:
        inner = HTTPBackend(config["backend"])
        identity = config["backend"]
    return CachedBackend(inner, cache, identity=identity)


def make_search_client(config: dict):
    """The run's search client; ``None`` without search evidence, and for an
    offline run without credentials, whose cache must already hold every search."""
    if config["evidence"] != "search":
        return None
    endpoint = config["search_endpoint"]
    if endpoint == "google":
        api_key = os.environ.get(GOOGLE_API_KEY_VAR, "")
        cse_id = os.environ.get(GOOGLE_CSE_ID_VAR, "")
        if api_key and cse_id:
            return GoogleCustomSearchClient(api_key, cse_id)
        if config["offline"]:
            return None
        raise ConfigError(
            f"search needs {GOOGLE_API_KEY_VAR} and {GOOGLE_CSE_ID_VAR} in the "
            "environment (or --search-endpoint URL, or --offline with a warm cache)"
        )
    return FixtureSearchClient(endpoint)


def make_pipeline(config: dict) -> Pipeline:
    pipeline_config = PipelineConfig(
        **{f.name: config[_config_key(f)] for f in dataclasses.fields(PipelineConfig)}
    )
    return Pipeline(pipeline_config, make_backend(config), make_search_client(config))


def _print_cost_rows(rows: list[dict]) -> None:
    print(f"{'paragraphs':>10} {'prompt':>12} {'generated':>12} {'flops':>20} {'metric':>8}")
    for row in rows:
        print(f"{row['paragraphs']:>10} {row['prompt_tokens']:>12} "
              f"{row['generated_tokens']:>12} {row['flops']:>20} {row['metric']:>8.4f}")


def run_command(command: str, config: dict) -> int:
    pipeline = make_pipeline(config)
    if command == "retrieve":
        pipeline.stage_retrieve()
        pipeline.check_failures()
        print(f"retrieved evidence for {len(pipeline.records) - len(pipeline.failed)} questions")
    elif command == "answer":
        pipeline.stage_answer()
        pipeline.stage_closed()
        pipeline.check_failures()
        print(f"built candidate pools for {len(pipeline.records) - len(pipeline.failed)} questions")
    elif command == "tune-weights":
        result = pipeline.stage_tune()
        if result is None:
            print("nothing to tune (scorer is not poe, weights fixed, or closed book)")
        else:
            pairs = ", ".join(f"{n}={w:g}" for n, w in zip(WEIGHT_NAMES, result.weights))
            print(f"tuned weights: {pairs}")
            print(f"held-out objective: {result.objective:.4f}")
    elif command == "rerank":
        path = pipeline.stage_rerank()
        print(f"wrote {path}")
    elif command == "eval":
        report = pipeline.stage_eval()
        print(report.summary())
    elif command == "cost":
        rows = pipeline.stage_cost()
        _print_cost_rows(rows)
    elif command == "run":
        report = pipeline.run()
        print(report.summary())
    else:
        raise ConfigError(f"unknown command {command!r}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = effective_config(args)
        return run_command(args.command, config)
    except OfflineCacheMiss as exc:
        print(f"offline cache miss: {exc}", file=sys.stderr)
        return 3
    except PartialFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, CorpusError, SearchError, NetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
