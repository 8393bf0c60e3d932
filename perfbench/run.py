"""swimsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload wide-grid --seed 1 --seconds 40 --trace 0

Run from the root of a swimsim source tree. Each repetition is one
`swimsim run` or `swimsim sweep` command in a fresh process
(`perfbench/worker.py`), on a scenario config this script writes; the seed
goes to the command through `--seed`. Rounds of repetitions run for
`--seconds`: a round starts only if it is expected to end in time (the
slowest round so far is the estimate), and there are never fewer than two
rounds, so that every run can compare outputs between repetitions.

An operation is one repetition with its output checks. The first
repetition's files go through `checks.py`; every later one must be
byte-identical to it, which makes it pass the same checks. The checks run
after the measured time. A repetition whose command fails, or whose files
differ from the first, counts as failed; if the first one's files fail a
check, every repetition does.

With `--trace 0` the last line reports the end-to-end metrics, each the
median over the run's repetitions. Times are scaled to a reference host
speed, measured during each repetition (see "Host speed" in README.md);
standard error also shows the unscaled medians. With `--trace 1`
repetitions alternate untraced and traced; it reports the per-layer
metrics of the traced ones (medians) and `trace.overhead_s`, the traced
minus the untraced median of `run_s`, both unscaled.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
MIN_ROUNDS = 2
# Wall seconds are scaled to a host that runs the worker's calibration work
# in this many seconds (about its time on a quick phase of a 2-core host).
REFERENCE_CALIBRATION_S = 0.001
REPETITION_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import checks  # noqa: E402

BASE = {
    "neighbourLocationLimit": 300.0,
    "speed": 1.4,
    "alpha": 0.3,
}
SWEEP_ALPHAS = [i / 20 for i in range(21)]

WORKLOADS = {
    "wide-grid": {
        "command": "run",
        "scenario": BASE | {
            "maxAreaX": 2000.0, "maxAreaY": 2000.0, "waitTime": "uniform(2,5)",
            "noOfLocations": 2500, "nodeCount": 1000, "simDuration": 20000.0,
        },
    },
    "crowded-cells": {
        "command": "run",
        "scenario": BASE | {
            "maxAreaX": 400.0, "maxAreaY": 400.0, "waitTime": "powerlaw(1.5,10,3600)",
            "noOfLocations": 16, "nodeCount": 400, "simDuration": 12000.0,
        },
    },
    "reference-sweep": {
        "command": "sweep",
        "scenario": BASE | {
            "maxAreaX": 400.0, "maxAreaY": 400.0, "waitTime": "uniform(2,5)",
            "noOfLocations": 21, "nodeCount": 10, "simDuration": 50000.0,
        },
    },
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "_calls": "count", "_us": "us", "_s": "s", "_bytes": "bytes",
    "contacts_per_arrival": "contacts/arrival",
}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def write_config(path: Path, scenario: dict) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in scenario.items()))


def command_argv(workload: dict, config: Path, seed: int, out: Path) -> list[str]:
    argv = [workload["command"], "--config", str(config), "--seed", str(seed), "--out", str(out)]
    if workload["command"] == "sweep":
        argv += ["--alpha", ",".join(repr(a) for a in SWEEP_ALPHAS)]
    return argv


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check(workload: dict, out: Path) -> None:
    if workload["command"] == "run":
        checks.check_run(out, workload["scenario"])
    else:
        checks.check_sweep(out, SWEEP_ALPHAS)


def repetition(workload: dict, config: Path, seed: int, traced: bool, out: Path,
               spans: Path) -> dict:
    """Run one command in a fresh process and return its measurements."""
    shutil.rmtree(out, ignore_errors=True)
    probe = WORK / "probe.txt"
    probe.unlink(missing_ok=True)
    env = os.environ | {"PYTHONPATH": os.pathsep.join([str(HERE / "probe"), str(ROOT / "src")])}
    if not traced:
        env["PERFBENCH_PROBE"] = str(probe)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--trace", str(int(traced)),
        "--spans", str(spans), "--out", str(out),
        "--", *command_argv(workload, config, seed, out),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=REPETITION_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["rc"] != 0:
        raise RuntimeError(f"swimsim exited {result['rc']}: {proc.stderr.strip()[-2000:]}")
    result["digest"] = digest(out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "swimsim" / "__init__.py").is_file():
        print(f"error: no swimsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    config = WORK / f"{args.workload}.conf"
    write_config(config, workload["scenario"])
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.npz"

    pattern = (False, True) if args.trace else (False,)
    done: list[tuple[bool, dict]] = []
    attempted = failed = 0
    first_out = WORK / "out-first"
    first_digest = None
    deadline = time.monotonic() + args.seconds
    rounds = 0
    slowest_round = 0.0
    while rounds < MIN_ROUNDS or time.monotonic() + slowest_round <= deadline:
        round_start = time.monotonic()
        for traced in pattern:
            attempted += 1
            out = first_out if attempted == 1 else WORK / "out"
            try:
                result = repetition(workload, config, args.seed, traced, out, spans)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                failed += 1
                print(f"repetition {attempted} failed: {e}", file=sys.stderr)
                continue
            finally:
                if out != first_out:
                    shutil.rmtree(out, ignore_errors=True)
            if attempted == 1:
                first_digest = result["digest"]
            if result["digest"] != first_digest:
                failed += 1
                print(f"repetition {attempted}: outputs differ from the first", file=sys.stderr)
                continue
            done.append((traced, result))
            print(f"repetition {attempted}{' traced' if traced else ''}: " + " ".join(
                f"{key} {result[key]:.6g}"
                for key in ("run_s", "setup_s", "loop_s", "events", "calibration_s",
                            "setup_calibration_s", "loop_calibration_s")
                if key in result), file=sys.stderr)
        rounds += 1
        slowest_round = max(slowest_round, time.monotonic() - round_start)

    # Checked once the clock has stopped; every repetition that survived
    # above wrote the same bytes, so the verdict holds for all of them.
    if done:
        try:
            check(workload, first_out)
        except checks.CheckError as e:
            print(f"output check failed: {e}", file=sys.stderr)
            failed = attempted
    shutil.rmtree(first_out, ignore_errors=True)

    plain = [r for traced, r in done if not traced]
    metrics = {}
    if args.trace:
        layered = [r["layers"] for traced, r in done if traced]
        for name in layered[0] if layered else ():
            metrics[name] = {
                "value": statistics.median(layer[name] for layer in layered),
                "unit": layer_unit(name),
            }
        if layered and plain:
            overhead = (statistics.median(r["run_s"] for traced, r in done if traced)
                        - statistics.median(r["run_s"] for r in plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif plain:
        # Each time is scaled by how fast the host ran the calibration work
        # during that same interval (see "Host speed" in README.md).
        def scaled(r, seconds, calibration):
            return r[seconds] * REFERENCE_CALIBRATION_S / r[calibration]

        values = {
            "run_s": statistics.median(
                scaled(r, "run_s", "calibration_s") for r in plain),
            "setup_s": statistics.median(
                scaled(r, "setup_s", "setup_calibration_s") for r in plain),
            "events_per_s": statistics.median(
                r["events"] / scaled(r, "loop_s", "loop_calibration_s") for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        print("unscaled medians: " + json.dumps({
            "run_s": statistics.median(r["run_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "events_per_s": statistics.median(r["events"] / r["loop_s"] for r in plain),
            "calibration_s": statistics.median(r["calibration_s"] for r in plain),
        }), file=sys.stderr)
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
