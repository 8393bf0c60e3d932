"""Command-line entry points: run, sweep, validate."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import ConfigError, load_config
from .engine import simulate
from .grid import build_grid, classify_locations, LocationClass
from .metrics import (
    contact_durations,
    contacts_per_pair,
    inter_contact_times,
    metrics_report,
    selection_stats,
)
# bound here under these names because perfbench/worker.py traces them here
from .outputs import write_ccdf_csv, write_contacts_csv, write_metrics_json, write_sweep_csv
from .outputs import write_waypoints as _write_waypoints


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swimsim",
        description="SWIM mobility simulator: movement traces and contact statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write all outputs")
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--until", type=float, default=None, help="override simDuration")
    p_run.add_argument("--out", help="output directory (default: the config's outputDir)")

    p_sweep = sub.add_parser("sweep", help="matched-seed runs over several alpha values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--alpha", required=True, help="comma-separated alpha values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", help="output directory (default: the config's outputDir)")

    p_val = sub.add_parser("validate", help="parse a config and report the derived grid")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--home", type=int, default=0, help="home cell for the class report")

    return parser


@contextmanager
def _removed_on_failure(written: list[Path]):
    """Delete every path in `written` when the block fails, Ctrl-C included."""
    try:
        yield
    except BaseException:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise


def _out_dir(args, config) -> Path:
    out = args.out if args.out is not None else config.output_dir
    if out is None:
        raise ConfigError("no output directory: pass --out or set outputDir in the config")
    return Path(out)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.until is not None:
        config = dataclasses.replace(config, sim_duration=args.until)
    params = config.to_params()

    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    with _removed_on_failure(written):
        locations = out / "locations.csv"
        written.append(locations)
        report = simulate(params, locations_path=locations)
        # each summary is built once and feeds both metrics.json and its CCDF file
        summaries = {
            "inter_contact_times": inter_contact_times(report.contacts),
            "contact_durations": contact_durations(report.contacts),
            "contacts_per_pair": contacts_per_pair(report.contacts),
        }
        metrics = metrics_report(report.contacts, report.selections, summaries)

        for name, writer in (
            ("waypoints.csv", lambda p: _write_waypoints(report, p)),
            ("contacts.csv", lambda p: write_contacts_csv(report.contacts, p)),
            ("metrics.json", lambda p: write_metrics_json(metrics, p)),
            *(
                (f"ccdf_{kind}.csv", lambda p, summary=summary: write_ccdf_csv(summary, p))
                for kind, summary in summaries.items()
            ),
        ):
            path = out / name
            written.append(path)
            writer(path)
    print(
        f"run finished: {report.events_processed} events, "
        f"{len(report.contacts)} contacts, "
        f"neighbouring fraction {metrics['selection']['neighbouring_fraction']:.6f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = _out_dir(args, config)
    try:
        alphas = [float(a) for a in args.alpha.split(",") if a.strip()]
    except ValueError:
        raise ConfigError(f"--alpha: expected comma-separated numbers, got {args.alpha!r}")
    if not alphas:
        raise ConfigError("--alpha: at least one value required")

    rows = []
    for alpha in alphas:
        params = dataclasses.replace(config, alpha=alpha).to_params()
        report = simulate(params)
        stats = selection_stats(report.selections)
        rows.append((alpha, stats))

    out.mkdir(parents=True, exist_ok=True)
    table = out / "sweep_selection.csv"
    with _removed_on_failure([table]):
        write_sweep_csv(rows, table)

    print("alpha  selections  neighbouring_fraction  visiting_fraction  fallbacks")
    for alpha, stats in rows:
        print(
            f"{alpha:<6.3g} {stats.total:>10} {stats.near_fraction:>21.6f} "
            f"{stats.visiting_fraction:>18.6f} {stats.fallbacks:>10}"
        )
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    params = config.to_params()
    location_map = build_grid(params.area, params.n_locations)
    if not (0 <= args.home < len(location_map)):
        raise ConfigError(f"--home: cell {args.home} not in 0..{len(location_map) - 1}")
    classes = classify_locations(location_map, args.home, params.neighbour_limit)
    neighbouring = sum(1 for c in classes if c is LocationClass.NEIGHBOURING)
    visiting = sum(1 for c in classes if c is LocationClass.VISITING)
    cell = location_map.cells[0]
    print("config OK")
    print(
        f"grid: rows={location_map.rows} cols={location_map.cols} "
        f"({len(location_map)} locations), "
        f"cell {cell.max_x - cell.min_x:.6f} m x {cell.max_y - cell.min_y:.6f} m"
    )
    print(
        f"home cell {args.home}: neighbouring={neighbouring} visiting={visiting} "
        f"(limit {params.neighbour_limit:g} m)"
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "validate": _cmd_validate}
    try:
        return commands[args.command](args)
    except (ConfigError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
