"""Command-line front end: config ingestion, experiment dispatch, tables.

Configuration is a flat key=value text file (``#`` starts a comment) whose
keys match the ``--set KEY=VALUE`` overrides, so every scripted run is a
one-liner.  Precedence: command line > config file > ``IRS_SIM_SEED``
environment variable (seed only) > built-in defaults.

Emitted tables carry their full configuration in a metadata block
(``#``-prefixed lines in CSV, a leading object in JSON lines) and can be
regenerated exactly from it; see :func:`regenerate`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError
from .harness import (
    METHODS,
    PROPOSED_METHODS,
    ScenarioConfig,
    SweepSpec,
    collect_columns,
    summarize_columns,
    sweep,
)

# trace points of the benchmark (perfbench/tracing.py); a table is built
# from collect_columns and summarize_columns, not from records
from .harness import collect_trials, summarize_records  # noqa: F401
from .metrics import flops_ais, flops_irses, flops_nsp

if TYPE_CHECKING:
    import argparse

RATE_DECIMALS = 6

SUBCOMMANDS = (
    "run",
    "sweep-snr",
    "sweep-n",
    "sweep-m",
    "sweep-distance",
    "flops",
    "selftest",
)

SWEEP_AXIS_BY_SUBCOMMAND = {
    "sweep-snr": "snr_db",
    "sweep-n": "n",
    "sweep-m": "m",
    "sweep-distance": "distance_d",
}

DEFAULT_VALUES = {
    "sweep-snr": tuple(float(v) for v in range(0, 31, 5)),
    "sweep-n": tuple(float(v) for v in range(32, 257, 32)),
    "sweep-m": (2.0, 4.0, 8.0, 16.0, 32.0),
    "sweep-distance": tuple(float(v) for v in range(10, 91, 10)),
    "flops": tuple(float(v) for v in range(100, 1001, 100)),
}


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_point(text: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("expected 'x,y'")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(p.strip() for p in text.split(",") if p.strip())
    if not methods:
        raise ValueError("expected a comma-separated method list")
    for index, method in enumerate(methods):
        if method in methods[:index]:
            raise ValueError(f"method {method!r} is listed twice")
    return methods


def _parse_values(text: str) -> tuple[float, ...]:
    values = tuple(_parse_float(p.strip()) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError("expected a comma-separated value list")
    return values


def _parse_positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


#: config keys named differently from the scenario field they set
ALIASES = {"method": "methods", "base_seed": "seed"}

#: parser of a scenario field, by the type of the field's default
_PARSER_BY_TYPE = {int: int, float: _parse_float, str: str, tuple: _parse_point}


def _scenario_fields(owner: type = ScenarioConfig):
    """(config key, field) for every leaf field of the scenario dataclasses."""
    for field in dataclasses.fields(owner):
        if dataclasses.is_dataclass(field.default):
            yield from _scenario_fields(type(field.default))
        else:
            yield ALIASES.get(field.name, field.name), field


#: every recognized config key with its parser and built-in default; a table
#: runs each listed method, and ``values``, ``workers`` and ``l`` shape the
#: table rather than the scenario
SETTING_PARSERS = {
    key: _PARSER_BY_TYPE[type(f.default)] for key, f in _scenario_fields()
}
SETTING_PARSERS.update(
    methods=_parse_methods,
    values=_parse_values,
    workers=_parse_positive_int,
    l=_parse_positive_int,
)
DEFAULT_SETTINGS = {key: f.default for key, f in _scenario_fields()}
DEFAULT_SETTINGS.update(methods=PROPOSED_METHODS, values=None, workers=None, l=3)

ENV_SEED_VAR = "IRS_SIM_SEED"


def _apply_setting(settings: dict, key: str, raw: str, origin: str) -> None:
    if key not in SETTING_PARSERS:
        raise ConfigError(f"unknown config key {key!r} ({origin})")
    try:
        settings[key] = SETTING_PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} ({origin}): {exc}") from exc


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value config file into raw string pairs."""
    pairs: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {text!r}")
        key, raw = text.split("=", 1)
        pairs[key.strip()] = raw.strip()
    return pairs


def parse_config(
    path: str | None = None,
    overrides: dict[str, str] | None = None,
    env: dict[str, str] | None = None,
) -> dict:
    """Resolve settings with precedence: overrides > file > env seed > defaults."""
    env = os.environ if env is None else env
    settings = dict(DEFAULT_SETTINGS)
    if ENV_SEED_VAR in env:
        _apply_setting(settings, "seed", env[ENV_SEED_VAR], f"env {ENV_SEED_VAR}")
    if path is not None:
        for key, raw in read_config_file(path).items():
            _apply_setting(settings, key, raw, f"file {path}")
    for key, raw in (overrides or {}).items():
        _apply_setting(settings, key, raw, "command line")
    return settings


def _build(owner: type, leaves: dict):
    """An ``owner`` dataclass whose leaf fields are read from ``leaves``."""
    return owner(**{
        f.name: _build(type(f.default), leaves)
        if dataclasses.is_dataclass(f.default)
        else leaves[ALIASES.get(f.name, f.name)]
        for f in dataclasses.fields(owner)
    })


def scenario_from_settings(settings: dict) -> ScenarioConfig:
    """Build the harness configuration, for the first listed method."""
    for method in settings["methods"]:
        if method not in METHODS:
            raise ConfigError(
                f"config key 'methods': unknown method {method!r}; "
                f"choose from {', '.join(METHODS)}"
            )
    return _build(ScenarioConfig, {**settings, "methods": settings["methods"][0]})


@dataclass(frozen=True)
class OutputTable:
    """Rectangular numeric table plus the metadata that regenerates it."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ConfigError(
                    f"row arity {len(row)} does not match header {len(self.columns)}"
                )


def _round_rate(value: float) -> float:
    return round(float(value), RATE_DECIMALS)


def _format_metadata_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_metadata_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table_metadata(subcommand: str, settings: dict, **extra) -> dict:
    metadata = {"tool": "irsrelay", "version": __version__, "subcommand": subcommand}
    metadata.update(extra)
    for key in sorted(SETTING_PARSERS):
        if key in ("values", "workers"):
            continue
        metadata[key] = settings[key]
    return metadata


def build_run_table(settings: dict) -> OutputTable:
    config = scenario_from_settings(settings)
    methods = settings["methods"]
    configs = [dataclasses.replace(config, method=method) for method in methods]
    rows = []
    for method, columns in zip(
        methods, collect_columns(configs, workers=settings["workers"])
    ):
        mean_r, mean_d, mean_s, stderr = summarize_columns(columns, f"method {method}")
        rows.append(
            (
                method,
                _round_rate(mean_r),
                _round_rate(mean_d),
                _round_rate(mean_s),
                _round_rate(stderr),
                config.trials,
            )
        )
    columns = (
        "method",
        "mean_rate_r",
        "mean_rate_d",
        "mean_rate_s",
        "stderr_rate_s",
        "trials",
    )
    return OutputTable(columns, tuple(rows), _table_metadata("run", settings))


def build_sweep_table(subcommand: str, settings: dict) -> OutputTable:
    axis = SWEEP_AXIS_BY_SUBCOMMAND[subcommand]
    values = settings["values"] or DEFAULT_VALUES[subcommand]
    config = scenario_from_settings(settings)
    spec = SweepSpec(
        config=config, axis=axis, values=values, methods=settings["methods"]
    )
    result = sweep(spec, workers=settings["workers"])
    columns = [axis]
    for method in spec.methods:
        columns.append(f"{method}_mean_rate")
        columns.append(f"{method}_stderr")
    columns.append("trials")
    rows = []
    for value in spec.values:
        row: list = [value]
        for method in spec.methods:
            point = result.point(value, method)
            row.append(_round_rate(point.mean_rate_s))
            row.append(_round_rate(point.stderr_rate_s))
        row.append(config.trials)
        rows.append(tuple(row))
    metadata = _table_metadata(
        subcommand, settings, axis=axis, values=spec.values
    )
    return OutputTable(tuple(columns), tuple(rows), metadata)


def build_flops_table(settings: dict) -> OutputTable:
    m = settings["m"]
    l = settings["l"]
    if m < 1:
        raise ConfigError(f"config key 'm': must be >= 1, got {m}")
    values = settings["values"] or DEFAULT_VALUES["flops"]
    rows = []
    for value in values:
        n = int(value)
        if n != value or n < 1:
            raise ConfigError(f"flops table needs positive integer n, got {value}")
        if n % m != 0:
            raise ConfigError(
                f"element-count {n} must be divisible by antenna-count {m} "
                "for the grouping method"
            )
        rows.append(
            (
                n,
                flops_ais(m, n, l, l).flops,
                flops_nsp(m, n, l, l).flops,
                flops_irses(m, n // m, n, l).flops,
            )
        )
    metadata = _table_metadata("flops", settings, values=tuple(values))
    columns = ("n", "ais_flops", "nsp_flops", "irses_flops")
    return OutputTable(columns, tuple(rows), metadata)


def format_table(table: OutputTable, fmt: str) -> str:
    """Render a table as CSV or JSON-lines text; deterministic per input."""
    if fmt == "csv":
        lines = [
            f"# {key}={_format_metadata_value(value)}"
            for key, value in table.metadata.items()
        ]
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        import json  # only here: a CSV table never loads it

        lines = [json.dumps({"metadata": _jsonable(table.metadata)}, sort_keys=True)]
        for row in table.rows:
            lines.append(
                json.dumps(dict(zip(table.columns, row)), sort_keys=True)
            )
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def _format_cell(cell) -> str:
    if isinstance(cell, bool):
        raise ConfigError("boolean cells are not supported")
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _jsonable(metadata: dict) -> dict:
    out = {}
    for key, value in metadata.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


def emit_table(table: OutputTable, fmt: str, destination: str | None) -> None:
    """Write the rendered table to a path, or stdout when none is given."""
    text = format_table(table, fmt)
    if destination is None:
        sys.stdout.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write table to {destination}: {exc}") from exc


def parse_metadata_csv(text: str) -> dict[str, str]:
    """Extract the raw metadata pairs from an emitted CSV document."""
    pairs: dict[str, str] = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" in body:
            key, raw = body.split("=", 1)
            pairs[key.strip()] = raw.strip()
    return pairs


def regenerate(metadata: dict[str, str]) -> OutputTable:
    """Rebuild the exact table described by an emitted metadata block."""
    reserved = {"tool", "version", "subcommand", "axis"}
    subcommand = metadata.get("subcommand")
    if subcommand not in SUBCOMMANDS or subcommand == "selftest":
        raise ConfigError(f"metadata has no regenerable subcommand: {subcommand!r}")
    settings = dict(DEFAULT_SETTINGS)
    for key, raw in metadata.items():
        if key in reserved:
            continue
        _apply_setting(settings, key, str(raw), "metadata")
    return build_table(subcommand, settings)


def build_table(subcommand: str, settings: dict) -> OutputTable:
    """The table of a ``run``, ``flops`` or sweep subcommand."""
    if subcommand == "run":
        return build_run_table(settings)
    if subcommand == "flops":
        return build_flops_table(settings)
    return build_sweep_table(subcommand, settings)


class _UsageError(Exception):
    def __init__(self, message: str, usage: str) -> None:
        super().__init__(message)
        self.usage = usage


def _build_parser():
    # only here: a process that builds tables without main never loads it
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad input; the documented contract
        # is exit 1 for configuration problems, so route through an exception
        def error(self, message: str) -> None:  # type: ignore[override]
            raise _UsageError(message, self.format_usage())

    parser = _Parser(
        prog="irsrelay",
        description=(
            "Link-level simulator for a reflecting-surface-assisted "
            "multi-antenna decode-and-forward relay network."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    common.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="assignments",
        help="override one config key (repeatable)",
    )
    common.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument("--trials", type=int, metavar="INT")
    common.add_argument("--seed", type=int, metavar="INT")
    common.add_argument("--methods", metavar="LIST", help="comma-separated methods")
    common.add_argument("--workers", type=int, metavar="INT")
    common.add_argument(
        "--values", metavar="LIST", help="comma-separated axis values"
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.add_parser("run", parents=[common], help="single configuration, all trials")
    sub.add_parser("sweep-snr", parents=[common], help="rate versus SNR")
    sub.add_parser("sweep-n", parents=[common], help="rate versus element count")
    sub.add_parser("sweep-m", parents=[common], help="rate versus antenna count")
    sub.add_parser(
        "sweep-distance", parents=[common], help="rate versus relay position"
    )
    sub.add_parser("flops", parents=[common], help="complexity versus element count")
    sub.add_parser("selftest", parents=[common], help="run the invariant suite")
    return parser


def _settings_from_args(args: argparse.Namespace) -> dict:
    overrides: dict[str, str] = {}
    for assignment in args.assignments:
        if "=" not in assignment:
            raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
        key, raw = assignment.split("=", 1)
        overrides[key.strip()] = raw.strip()
    settings = parse_config(path=args.config, overrides=overrides)
    # dedicated flags are command line too, applied last
    for key in ("trials", "seed", "methods", "workers", "values"):
        raw = getattr(args, key)
        if raw is not None:
            _apply_setting(settings, key, str(raw), "command line")
    # flops is a closed-form table over n; its canonical antenna count is 50
    if args.subcommand == "flops" and "m" not in _explicit_keys(args):
        settings["m"] = 50
    return settings


def _explicit_keys(args: argparse.Namespace) -> set[str]:
    keys = {a.split("=", 1)[0].strip() for a in args.assignments if "=" in a}
    if args.config:
        try:
            keys |= set(read_config_file(args.config))
        except ConfigError:
            pass
    return keys


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads the list in "--values -10,0" as an option; glue it on.
    # A subcommand accepts any prefix down to "--v" (no other option of its
    # starts so); the first token is the subcommand's place, where "--v"
    # would be the top-level "--version"
    for i in reversed(range(2, len(argv))):
        flag = argv[i - 1]
        if (
            len(flag) >= 3
            and "--values".startswith(flag)
            and re.match(r"-\.?\d", argv[i])
        ):
            argv[i - 1 : i + 1] = [flag + "=" + argv[i]]
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise _UsageError("a subcommand is required", parser.format_usage())
        if args.subcommand == "selftest":
            from . import selftest

            passed = selftest.run_selftest()
            return 0 if passed else 2
        table = build_table(args.subcommand, _settings_from_args(args))
        emit_table(table, args.format, args.out)
        return 0
    except _UsageError as exc:
        sys.stderr.write(exc.usage)
        sys.stderr.write(f"irsrelay: error: {exc}\n")
        return 1
    except ConfigError as exc:
        sys.stderr.write(f"irsrelay: configuration error: {exc}\n")
        return 1
    except Exception as exc:  # runtime/numerical problems
        sys.stderr.write(f"irsrelay: error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
