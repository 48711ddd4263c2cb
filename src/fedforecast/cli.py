"""Command-line entry point.

Subcommands:

* ``generate --config F [--out D]``: write the scenario's dataset CSV.
* ``run --config F --method M [--seed S]``: execute one method; write a
  per-round CSV trace and a result JSON.
* ``compare --config F [--seeds S1,S2,...]``: run every requested method
  per seed; write comparison.csv / comparison.json.
* ``sweep --config F --param P --values V1,V2,...``: override one dotted
  config parameter per value, run a comparison per point, write one table
  per point plus a combined tradeoff.csv.

Exit codes: 0 success, 1 configuration problem, 2 data problem, 3 numeric
divergence. Reruns with identical inputs produce byte-identical files, and
nothing is written outside the scenario's output_dir (or --out).
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from dataclasses import asdict

import yaml

from .config import (
    METHODS,
    ScenarioConfig,
    load_datasets,
    load_tree,
    parse_config,
    scenario_from_tree,
    with_seed,
)
from .data import save_csv
from .errors import ConfigError, FedForecastError, IoError, NumericError
from .evaluation import COMPARISON_CSV_HEADER, ComparisonTable, run_comparison, run_methods
from .fedcore import ROUND_CSV_HEADER, run_result_json_obj
from .serialize import make_dirs, to_csv_text, to_json_text, write_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedforecast",
        description="Deterministic federated-learning simulator for DER forecasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the scenario's dataset CSV")
    p.add_argument("--config", required=True, help="scenario YAML file")
    p.add_argument("--out", default=None, help="output directory (default: output_dir)")

    p = sub.add_parser("run", help="execute one method")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p = sub.add_parser("compare", help="run all requested methods")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", default=None, help="comma-separated distinct seeds")

    p = sub.add_parser("sweep", help="vary one config parameter over a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, help="dotted config path, e.g. dp.sigma")
    p.add_argument("--values", required=True, help="comma-separated distinct values")
    return parser


def _cmd_generate(args) -> int:
    scenario = parse_config(args.config)
    datasets = load_datasets(scenario)
    out_dir = args.out or scenario.output_dir
    path = os.path.join(out_dir, "dataset.csv")
    make_dirs(out_dir)
    save_csv(datasets, path)
    print(f"wrote {path} ({len(datasets)} clients)")
    return 0


def _cmd_run(args) -> int:
    scenario = parse_config(args.config)
    if args.seed is not None:
        scenario = with_seed(scenario, args.seed)
    datasets = load_datasets(scenario)
    outcome = run_methods(datasets, scenario, [args.method])[args.method]
    stem = os.path.join(scenario.output_dir, f"run_{args.method}_seed{scenario.seed}")
    write_text(stem + ".csv", to_csv_text(ROUND_CSV_HEADER, outcome.trace_rows))
    obj = {
        "method": args.method,
        "seed": scenario.seed,
        "table_row": asdict(outcome.row),
    }
    if outcome.run_result is not None:
        obj["training"] = run_result_json_obj(outcome.run_result)
    write_text(stem + ".json", to_json_text(obj))
    print(f"wrote {stem}.csv and {stem}.json")
    return 0


def _parse_seeds(text: str | None, fallback: int) -> list[int]:
    if text is None:
        return [fallback]
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            seeds.append(int(part))
        except ValueError:
            raise ConfigError(f"--seeds entry {part!r} is not an integer") from None
    if not seeds:
        raise ConfigError("--seeds provided but empty")
    return _unique("--seeds", seeds)


def _unique(flag: str, entries: list) -> list:
    """entries, when none repeats: a repeat would run and write twice."""
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise ConfigError(f"{flag} entry {entry!r} is repeated")
    return entries


def _write_comparison_csv(
    path: str, names: list[str], tables: list[tuple[list, ComparisonTable]]
) -> None:
    """One CSV of every table's rows, each led by its cells under ``names``."""
    rows = [cells + row for cells, table in tables for row in table.csv_rows()]
    write_text(path, to_csv_text(names + COMPARISON_CSV_HEADER, rows))


def _with_datasets(scenarios):
    """Each scenario with its datasets, loaded again only when its
    population or ingest differs from the previous scenario's."""
    source = datasets = None
    for scenario in scenarios:
        if (scenario.population, scenario.ingest) != source:
            source, datasets = (scenario.population, scenario.ingest), load_datasets(scenario)
        yield scenario, datasets


def _comparison_files(scenario: ScenarioConfig, seeds: list[int], out_dir: str) -> None:
    scenarios = [with_seed(scenario, seed) for seed in seeds]
    tables = [
        ([sc.seed], run_comparison(datasets, sc)) for sc, datasets in _with_datasets(scenarios)
    ]
    _write_comparison_csv(os.path.join(out_dir, "comparison.csv"), ["seed"], tables)
    write_text(
        os.path.join(out_dir, "comparison.json"),
        to_json_text({"seeds": seeds, "tables": [t.to_json_obj() for _, t in tables]}),
    )


def _cmd_compare(args) -> int:
    scenario = parse_config(args.config)
    seeds = _parse_seeds(args.seeds, scenario.seed)
    _comparison_files(scenario, seeds, scenario.output_dir)
    print(
        f"wrote {os.path.join(scenario.output_dir, 'comparison.csv')} "
        f"and comparison.json ({len(seeds)} seed(s))"
    )
    return 0


def _override_tree(tree: dict, dotted: str, value) -> dict:
    tree = copy.deepcopy(tree)
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        child = node.get(key)
        if child is None:
            child = {}
            node[key] = child
        if not isinstance(child, dict):
            raise ConfigError(f"sweep param {dotted!r}: {key!r} is not a mapping")
        node = child
    node[keys[-1]] = value
    return tree


def _point_dir(sweep_dir: str, literal: str) -> str:
    """The directory of one sweep point's tables, strictly inside sweep_dir."""
    point_dir = os.path.join(sweep_dir, literal)
    rel = os.path.relpath(os.path.realpath(point_dir), os.path.realpath(sweep_dir))
    if rel in (os.curdir, os.pardir) or rel.startswith(os.pardir + os.sep):
        raise ConfigError(f"--values entry {literal!r} would write outside {sweep_dir}")
    return point_dir


def _sweep_value(literal: str):
    try:
        return yaml.safe_load(literal)
    except yaml.YAMLError as exc:
        reason = getattr(exc, "problem", None) or exc
        raise ConfigError(f"--values entry {literal!r} is not valid YAML: {reason}") from None


def _cmd_sweep(args) -> int:
    base_tree = load_tree(args.config)
    base_scenario = scenario_from_tree(base_tree)
    literals = [part.strip() for part in args.values.split(",") if part.strip()]
    if not literals:
        raise ConfigError("--values provided but empty")
    sweep_dir = os.path.join(
        base_scenario.output_dir, f"sweep_{args.param.replace('.', '_')}"
    )
    point_dirs = [_point_dir(sweep_dir, literal) for literal in literals]
    _unique("--values", literals)
    values = [_sweep_value(literal) for literal in literals]
    scenarios = [scenario_from_tree(_override_tree(base_tree, args.param, v)) for v in values]
    tables = []
    for literal, point_dir, (scenario, datasets) in zip(
        literals, point_dirs, _with_datasets(scenarios)
    ):
        table = run_comparison(datasets, scenario)
        _write_comparison_csv(os.path.join(point_dir, "comparison.csv"), [], [([], table)])
        write_text(
            os.path.join(point_dir, "comparison.json"), to_json_text(table.to_json_obj())
        )
        tables.append(([args.param, literal], table))
    _write_comparison_csv(
        os.path.join(sweep_dir, "tradeoff.csv"), ["param", "value"], tables
    )
    print(f"wrote {sweep_dir}/tradeoff.csv ({len(literals)} points)")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}


def execute(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FedForecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
