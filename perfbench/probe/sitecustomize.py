"""Times swimsim's two engine entry points in every process of a repetition.

`run.py` starts an untraced repetition with this directory on PYTHONPATH
and PERFBENCH_PROBE naming a file, so Python runs this module at start-up
in the repetition's process and in every Python process the program starts
in turn, such as the workers of a process pool. Each call of
`swimsim.engine.initialize` or `swimsim.engine.run` appends one line to the
file: the entry point, the process id, the start and end of the call on
`time.perf_counter` (the system's monotonic clock, shared by all processes)
and, for `run`, the events processed.
"""

import os
import time

PROBE = os.environ.get("PERFBENCH_PROBE")


def _record(entry: str, t0: float, t1: float, events: int) -> None:
    fd = os.open(PROBE, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, f"{entry} {os.getpid()} {t0!r} {t1!r} {events}\n".encode())
    finally:
        os.close(fd)


def _install() -> None:
    try:
        from swimsim import engine
    except ImportError:
        return  # not a swimsim process
    initialize, run = engine.initialize, engine.run

    def timed_initialize(*args, **kwargs):
        t0 = time.perf_counter()
        state = initialize(*args, **kwargs)
        _record("initialize", t0, time.perf_counter(), 0)
        return state

    def timed_run(*args, **kwargs):
        t0 = time.perf_counter()
        report = run(*args, **kwargs)
        _record("run", t0, time.perf_counter(), report.events_processed)
        return report

    engine.initialize, engine.run = timed_initialize, timed_run


if PROBE:
    _install()
if os.environ.get("PERFBENCH_CPUS"):
    # a process started by the command: undo the worker's pin to one CPU
    os.sched_setaffinity(0, {int(c) for c in os.environ["PERFBENCH_CPUS"].split(",")})
