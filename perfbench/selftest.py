"""Self-test of the output checkers: clean outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Run from the root of a swimsim source tree. It runs one small `swimsim run`
and one small `swimsim sweep`, requires `checks.py` to accept both, then
corrupts copies and requires each to be rejected: a `contacts.csv` row
dropped, an end time shifted, a censored flag flipped either way, and a
sweep row whose near count is 5 standard errors off alpha. Exits 1 if any
case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work" / "selftest"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import checks  # noqa: E402
from run import write_config  # noqa: E402

# small enough to run in a second, crowded enough for censored contacts
RUN_SCENARIO = {
    "neighbourLocationLimit": 150.0, "speed": 1.4, "alpha": 0.3,
    "maxAreaX": 300.0, "maxAreaY": 300.0, "waitTime": "powerlaw(1.5,10,3600)",
    "noOfLocations": 9, "nodeCount": 60, "simDuration": 4000.0,
}
SWEEP_SCENARIO = RUN_SCENARIO | {
    "waitTime": "uniform(2,5)", "noOfLocations": 21, "nodeCount": 10, "simDuration": 5000.0,
}
SWEEP_ALPHAS = [0.0, 0.3, 1.0]


def swimsim(*argv: str) -> None:
    from swimsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"swimsim {argv[0]} exited {rc}")


def corrupt(src: Path, name: str, edit) -> Path:
    """Copy `src` and apply `edit` to the lines of one file in the copy."""
    dst = WORK / f"{src.name}-{edit.__name__}"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    lines = (dst / name).read_text().splitlines(keepends=True)
    (dst / name).write_text("".join(edit(lines)))
    return dst


def _row_index(lines: list[str], censored: str) -> int:
    return next(i for i, line in enumerate(lines[1:], 1) if line.rstrip("\n").endswith(censored))


def drop_row(lines):
    return lines[:len(lines) // 2] + lines[len(lines) // 2 + 1:]


def shift_end(lines):
    i = _row_index(lines, ",0")
    f = lines[i].split(",")
    f[4] = f"{float(f[4]) + 1.0:.6f}"
    lines[i] = ",".join(f)
    return lines


def flip_censored_on(lines):
    i = _row_index(lines, ",0")
    lines[i] = lines[i][:-2] + "1\n"
    return lines


def flip_censored_off(lines):
    i = _row_index(lines, ",1")
    lines[i] = lines[i][:-2] + "0\n"
    return lines


def near_off_5_sigma(lines):
    f = lines[2].rstrip("\n").split(",")
    alpha, total, fallbacks = float(f[0]), int(f[1]), int(f[4])
    near = math.ceil(alpha * total + 5 * math.sqrt(total * alpha * (1 - alpha))) + fallbacks
    visiting = total - near
    f[2:4] = [str(near), str(visiting)]
    f[5:7] = [f"{near / total:.6f}", f"{visiting / total:.6f}"]
    lines[2] = ",".join(f) + "\n"
    return lines


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def accepted(check, out: Path) -> bool:
    try:
        check(out)
    except checks.CheckError as e:
        print(f"     {e}")
        return False
    return True


def rejected(check, out: Path, needle: str) -> bool:
    try:
        check(out)
    except checks.CheckError as e:
        return needle in str(e)
    return False


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures: list[str] = []

    config = WORK / "run.conf"
    write_config(config, RUN_SCENARIO)
    run_out = WORK / "run"
    swimsim("run", "--config", str(config), "--seed", "3", "--out", str(run_out))
    check_run = functools.partial(checks.check_run, scenario=RUN_SCENARIO)
    expect(accepted(check_run, run_out), "clean run accepted", failures)

    for edit in (drop_row, shift_end, flip_censored_on, flip_censored_off):
        bad = corrupt(run_out, "contacts.csv", edit)
        expect(rejected(check_run, bad, "contacts.csv differs"),
               f"contacts.csv with {edit.__name__} rejected by the intersection", failures)

    config = WORK / "sweep.conf"
    write_config(config, SWEEP_SCENARIO)
    sweep_out = WORK / "sweep"
    swimsim("sweep", "--config", str(config), "--seed", "3", "--out", str(sweep_out),
            "--alpha", ",".join(map(str, SWEEP_ALPHAS)))
    check_sweep = functools.partial(checks.check_sweep, alphas=SWEEP_ALPHAS)
    expect(accepted(check_sweep, sweep_out), "clean sweep accepted", failures)

    bad = corrupt(sweep_out, "sweep_selection.csv", near_off_5_sigma)
    expect(rejected(check_sweep, bad, "step-1 near draws"),
           "sweep row with near count 5 sigma off rejected", failures)

    edges = [0.0, 100.0, 200.0]
    on_edge, inside = checks.Grid._axis(100.0000004, edges), checks.Grid._axis(50.0, edges)
    expect(on_edge == [0, 1] and inside == [0],
           "point within print rounding of a cell edge may lie in either cell", failures)

    shutil.rmtree(WORK)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
