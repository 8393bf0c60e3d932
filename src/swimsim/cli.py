"""Command-line entry points: run, sweep, validate."""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .config import ConfigError, load_config
from .engine import simulate
from .grid import build_grid, cell_bounds, classify_locations, LocationClass
from .metrics import metrics_report, selection_stats, SelectionStats
from .mobility import ModelParams
from .outputs import (
    waypoint_writer,
    write_ccdf_csv,
    write_contacts_csv,
    write_locations_file,
    write_metrics_json,
    write_sweep_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swimsim",
        description="SWIM mobility simulator: movement traces and contact statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write all outputs")
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
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
def _staged(out: Path):
    """A fresh directory inside `out` whose files move into `out` if the block succeeds.

    Each file is renamed into place with `os.replace`, so no file ever
    appears in `out` half written, even when the process is killed. The
    staging directory is removed on success and on failure, Ctrl-C included.
    """
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".swimsim-", dir=out))
    try:
        yield stage
        for path in sorted(stage.iterdir()):
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


@contextmanager
def _naming(path: Path):
    """Name `path` in an OSError of the block that names no file, as a refused
    write does (a full disk, a file size limit)."""
    try:
        yield
    except OSError as e:
        if e.filename is not None:
            raise
        raise OSError(e.errno, e.strerror or str(e), str(path)) from e


def _out_dir(args, config) -> Path:
    out = args.out if args.out is not None else config.output_dir
    if out is None:
        raise ConfigError("no output directory: pass --out or set outputDir in the config")
    return Path(out)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    params = config.to_params()

    out = _out_dir(args, config)
    with _staged(out) as stage:
        # the trace goes into its staged file a chunk at a time, as the run makes it
        with _naming(out / "waypoints.csv"), open(stage / "waypoints.csv", "wb") as f:
            report = simulate(params, trace=waypoint_writer(f))
        metrics = metrics_report(report.contact_log, report.selection_counts)

        for name, writer in (
            ("locations.csv", lambda p: write_locations_file(report.location_map, p)),
            ("contacts.csv", lambda p: write_contacts_csv(report.contact_log, p)),
            ("metrics.json", lambda p: write_metrics_json(metrics, p)),
            # each distribution summary in metrics.json also goes to its CCDF file
            *(
                (f"ccdf_{kind}.csv", lambda p, ccdf=part["ccdf"]: write_ccdf_csv(ccdf, p))
                for kind, part in metrics.items()
                if "ccdf" in part
            ),
        ):
            with _naming(out / name):
                writer(stage / name)
    print(
        f"run finished: {report.events_processed} events, "
        f"{len(report.contact_log)} contacts, "
        f"neighbouring fraction {metrics['selection']['neighbouring_fraction']:.6f}"
    )
    return 0


def _sweep_job(params: ModelParams) -> SelectionStats:
    """One sweep run, with no trace or selection log; only its selection counts go back."""
    return selection_stats(simulate(params, trace=False).selection_counts)


def _sweep_stats(runs: list[ModelParams]) -> list[SelectionStats]:
    """The runs' selection counts in input order, over one process per CPU.

    The runs are independent, so the result does not depend on how many
    processes share them. With one process the runs stay in this one.
    """
    workers = min(os.cpu_count() or 1, len(runs))
    if workers == 1:
        return [_sweep_job(params) for params in runs]
    # imported here: `run` never starts a pool, and the import costs 2 MB
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_job, runs))


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

    # every alpha is validated before the first run starts
    runs = [dataclasses.replace(config, alpha=alpha).to_params() for alpha in alphas]
    rows = list(zip(alphas, _sweep_stats(runs)))

    with _staged(out) as stage, _naming(out / "sweep_selection.csv"):
        write_sweep_csv(rows, stage / "sweep_selection.csv")

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
    min_x, min_y, max_x, max_y = cell_bounds(location_map, 0)
    print("config OK")
    print(
        f"grid: rows={location_map.rows} cols={location_map.cols} "
        f"({len(location_map)} locations), "
        f"cell {max_x - min_x:.6f} m x {max_y - min_y:.6f} m"
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
