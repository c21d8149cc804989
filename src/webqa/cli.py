"""Command-line interface.

Subcommands mirror the pipeline stages (retrieve, answer, tune-weights,
rerank, eval, cost) plus ``run`` for the whole sequence.  Settings come
from built-in defaults, then an optional JSON config file, then explicit
flags, in that order of precedence.  Each setting is a field of
:class:`PipelineConfig` or :class:`RunSettings`, and its flag, its
config-file type check and its list parsing follow from the field's type
hint, default and metadata.  Exit codes: 0 success, 1 bad configuration,
2 too many failed questions, 3 cache miss in offline mode.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing

from .cache import OfflineCacheMiss, RequestCache
from .corpus import CorpusError
from .lmbackend import DEFAULT_MOCK_PARAM_COUNT, CachedBackend, HTTPBackend, LMBackend, MockBackend
from .net import NetError
from .pipeline import ConfigError, PartialFailure, Pipeline, PipelineConfig, setting
from .rerank import WEIGHT_NAMES
from .websearch import FixtureSearchClient, GoogleCustomSearchClient, SearchError

logger = logging.getLogger(__name__)

GOOGLE_API_KEY_VAR = "WEBQA_GOOGLE_API_KEY"
GOOGLE_CSE_ID_VAR = "WEBQA_GOOGLE_CSE_ID"


@dataclasses.dataclass(frozen=True)
class RunSettings:
    """The settings that are not :class:`PipelineConfig` fields: the backend
    and search provider a run talks to."""

    search_endpoint: str = setting("google", "'google' or the base URL of a fixture search server")
    backend: str = setting("mock", "'mock' or the base URL of a completion server")
    param_count: int = setting(DEFAULT_MOCK_PARAM_COUNT, "parameter count reported by the mock backend")
    offline: bool = setting(False, "serve everything from cache; misses are an error")


class Setting(typing.NamedTuple):
    """One settings field as its flag and the config file see it."""

    key: str  # config-file key, flag dest and effective-config key
    flag: str | None  # None: config file only
    kind: type  # a scalar's type, or a tuple's item type
    many: bool  # a tuple: a JSON list, or with a flag also a comma-separated string
    size: int | None  # a fixed-length tuple's length
    nullable: bool
    default: object  # MISSING: a required flag and no config-file key
    field: dataclasses.Field


def _key(field: dataclasses.Field) -> str:
    return field.metadata.get("key", field.name)


def _setting(field: dataclasses.Field, hint) -> Setting:
    args = typing.get_args(hint)
    default = field.metadata.get("cli_default", field.default)
    nullable = type(None) in args or default is None
    if type(None) in args:
        [hint] = [arg for arg in args if arg is not type(None)]
        args = typing.get_args(hint)
    many = typing.get_origin(hint) is tuple
    key = _key(field)
    flag = field.metadata.get("flag", "--" + key.replace("_", "-"))
    size = len(args) if many and ... not in args else None
    return Setting(key, flag, args[0] if many else hint, many, size, nullable, default, field)


SETTINGS = {_key(f): _setting(f, hints[f.name]) for schema in (PipelineConfig, RunSettings)
            for hints in [typing.get_type_hints(schema)] for f in dataclasses.fields(schema)}
DEFAULTS = {key: s.default for key, s in SETTINGS.items() if s.default is not dataclasses.MISSING}

COMMANDS = {
    "retrieve": "search, fetch, chunk, and rank evidence paragraphs",
    "answer": "sample candidate answers and compute rerank scores",
    "tune-weights": "fit product-of-experts weights on the held-out split",
    "rerank": "select one answer per question",
    "eval": "score predictions and write the metrics report",
    "cost": "sweep accuracy against compute over paragraph counts",
    "run": "all stages in order",
}

# how a config-file error names a type, and a list of it
_KIND_NAMES = {bool: ("true or false", None), int: ("an integer", "integers"),
               float: ("a number", "numbers"), str: ("a string", "strings")}


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with defaults for any flag below")
    for s in SETTINGS.values():
        if s.flag is None:
            continue
        if s.kind is bool:
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": str if s.many else s.kind, "choices": s.field.metadata.get("choices")}
        parser.add_argument(s.flag, dest=s.key, required=s.default is dataclasses.MISSING,
                            help=s.field.metadata["help"], **kind)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webqa",
        description="Few-shot question answering over web search results.",
    )
    # every subcommand takes the same flags: build them once and share them
    common = argparse.ArgumentParser(add_help=False)
    _add_common_arguments(common)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, summary in COMMANDS.items():
        subparsers.add_parser(command, help=summary, parents=[common])
    return parser


def _parse_list(s: Setting, raw) -> tuple:
    """The tuple a JSON list or a comma-separated string gives ``s``."""
    if isinstance(raw, (list, tuple)):
        values = [s.kind(v) for v in raw]
    else:
        try:
            values = [s.kind(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"{s.flag} expects comma-separated values, got {raw!r}") from None
    if s.size is not None and len(values) != s.size:
        raise ConfigError(f"{s.flag} needs {s.size} values, got {len(values)}")
    return tuple(values)


def _is_a(value, kind: type) -> bool:
    """Whether a JSON ``value`` is a ``kind``; an integer is a float, a bool is neither."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_file_value(s: Setting, value) -> None:
    """Raise :class:`ConfigError` unless config-file ``value`` has the type of ``s``."""
    if value is None and s.nullable:
        return
    one, many = _KIND_NAMES[s.kind]
    if s.many:
        comma = s.flag is not None
        if (isinstance(value, list) and all(_is_a(v, s.kind) for v in value)
                or comma and isinstance(value, str)):
            return
        expected = f"a list of {many}" + (" or a comma-separated string" if comma else "")
    else:
        if _is_a(value, s.kind):
            return
        expected = one + (" or null" if s.nullable else "")
    raise ConfigError(f"config key {s.key!r} must be {expected}, got {value!r}")


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
            _check_file_value(SETTINGS[key], value)
        merged.update(file_values)
    for key, s in SETTINGS.items():
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
        if s.many and merged[key] is not None:
            merged[key] = _parse_list(s, merged[key])
    if not merged["dataset_id"]:
        merged["dataset_id"] = os.path.basename(merged["dataset"]).split(".")[0]
    return merged


def make_backend(config: dict) -> CachedBackend:
    cache = RequestCache(os.path.join(config["workdir"], "cache"), offline=config["offline"])
    if config["backend"] == "mock":
        inner: LMBackend = MockBackend(param_count=config["param_count"])
    else:
        inner = HTTPBackend(config["backend"])
    return CachedBackend(inner, cache)


def make_search_client(config: dict):
    """The run's search client; ``None`` without search evidence, and for every
    offline run, whose cache must already hold each search and page.  Building
    a client imports the HTTP stack, so an offline run never loads it."""
    if config["evidence"] != "search" or config["offline"]:
        return None
    endpoint = config["search_endpoint"]
    if endpoint == "google":
        api_key = os.environ.get(GOOGLE_API_KEY_VAR, "")
        cse_id = os.environ.get(GOOGLE_CSE_ID_VAR, "")
        if api_key and cse_id:
            return GoogleCustomSearchClient(api_key, cse_id)
        raise ConfigError(
            f"search needs {GOOGLE_API_KEY_VAR} and {GOOGLE_CSE_ID_VAR} in the "
            "environment (or --search-endpoint URL, or --offline with a warm cache)"
        )
    return FixtureSearchClient(endpoint)


def make_pipeline(config: dict) -> Pipeline:
    pipeline_config = PipelineConfig(
        **{f.name: config[_key(f)] for f in dataclasses.fields(PipelineConfig)}
    )
    return Pipeline(pipeline_config, make_backend(config), make_search_client(config))


def _print_cost_rows(rows: list[dict]) -> None:
    print(f"{'paragraphs':>10} {'prompt':>12} {'generated':>12} {'flops':>20} {'metric':>8}")
    for row in rows:
        print(f"{row['paragraphs']:>10} {row['prompt_tokens']:>12} "
              f"{row['generated_tokens']:>12} {row['flops']:>20} {row['metric']:>8.4f}")


def run_command(command: str, config: dict) -> int:
    pipeline = make_pipeline(config)
    if command in ("tune-weights", "rerank", "eval", "cost"):
        pipeline.load_failures()
    if command == "retrieve":
        pipeline.stage_retrieve()
        pipeline.check_failures()
        print(f"retrieved evidence for {len(pipeline.records) - len(pipeline.failed)} questions")
    elif command == "answer":
        pipeline.stage_answer()
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
