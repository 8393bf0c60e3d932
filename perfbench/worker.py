"""One benchmark repetition: a single swimsim CLI command in this fresh process.

    python3 perfbench/worker.py --trace 0|1 --spans FILE --out DIR -- run --config ... --out DIR

Everything after `--` goes to `swimsim.cli.main` unchanged. The untraced
pass times only the command here; `setup_s` and `events_per_s` come from
the probe in `probe/sitecustomize.py`, which times the two engine entry
points in every process of the repetition. Next to the command, on its
CPU, `HostSpeed` times a fixed piece of calibration work, so that `run.py`
can scale the wall times to one host speed. The traced pass wraps each
layer's public functions where their callers look them up, records one
span per call (name, start, end, parent) in memory, writes the spans to
FILE after the command returns, and reports per-layer totals. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import io
import json
import math
import os
import resource
import sys
import threading
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from swimsim import cli, encounters, engine, metrics  # noqa: E402

# (span name, owner, attribute): the owner is the namespace the caller reads
# the name from, so replacing the attribute there puts the span on every call.
TRACED = (
    ("cli.simulate", cli, "simulate"),
    ("engine.initialize", engine, "initialize"),
    ("engine.run", engine, "run"),
    ("grid.build_grid", engine, "build_grid"),
    ("grid.write_locations_file", engine, "write_locations_file"),
    ("mobility.make_node_state", engine, "make_node_state"),
    ("mobility.select_destination", engine, "select_destination"),
    ("mobility.draw_wait_time", engine, "draw_wait_time"),
    ("encounters.on_arrival_signal", encounters.ContactTracker, "on_arrival_signal"),
    ("encounters.on_departure_signal", encounters.ContactTracker, "on_departure_signal"),
    ("encounters.node_paused", encounters.ContactTracker, "node_paused"),
    ("encounters.write_contacts_csv", cli, "write_contacts_csv"),
    ("config.write_waypoints", cli, "_write_waypoints"),
    ("metrics.metrics_report", cli, "metrics_report"),
    # the three summary pipelines, called by metrics_report and again by the CLI
    ("metrics.summary", metrics, "inter_contact_times"),
    ("metrics.summary", metrics, "contact_durations"),
    ("metrics.summary", metrics, "contacts_per_pair"),
    ("metrics.summary", cli, "inter_contact_times"),
    ("metrics.summary", cli, "contact_durations"),
    ("metrics.summary", cli, "contacts_per_pair"),
    ("metrics.summarize", metrics, "summarize"),
    ("metrics.write_ccdf_csv", cli, "write_ccdf_csv"),
    ("metrics.write_metrics_json", cli, "write_metrics_json"),
)
ROOT_SPAN = "cli.command"
CALIBRATION_STEPS = 1500  # about a millisecond
CALIBRATION_PERIOD_S = 0.015


class Tracer:
    """Spans in flat arrays; `parent` is the index of the enclosing span or -1."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN] + sorted({name for name, _, _ in TRACED})
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.fallbacks = 0
        self.contacts = 0
        self.events = 0
        self.seen_bytes = 0
        self.records = 0

    def span(self, name_id: int, fn, *args, **kwargs):
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def wrap(self, name: str, fn):
        name_id = self.names.index(name)
        span = self.span
        if name == "mobility.select_destination":
            def wrapper(*args, **kwargs):
                choice = span(name_id, fn, *args, **kwargs)
                self.fallbacks += choice.fallback
                return choice
        elif name == "engine.run":
            def wrapper(*args, **kwargs):
                report = span(name_id, fn, *args, **kwargs)
                self.observe_report(report)
                return report
        else:
            def wrapper(*args, **kwargs):
                return span(name_id, fn, *args, **kwargs)
        return wrapper

    def observe_report(self, report) -> None:
        self.events += report.events_processed
        self.contacts += len(report.contacts)
        # a sweep holds one report at a time, so memory follows the largest
        self.seen_bytes = max(self.seen_bytes, report.seen.nbytes)
        self.records = max(
            self.records,
            len(report.waypoints) + len(report.contacts)
            + len(report.pauses) + len(report.selections),
        )

    def install(self) -> list[str]:
        """Wrap every traced function; return the names that were not found."""
        missing = []
        for name, owner, attr in TRACED:
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            else:
                setattr(owner, attr, self.wrap(name, fn))
        return missing

    def save(self, path: Path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start) - self.start[0],
            end=np.frombuffer(self.end) - self.start[0],
        )

    def layer_metrics(self, out: Path) -> dict:
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        over = child_sum - dur
        if over.max() > 1e-9:
            worst = int(over.argmax())
            raise RuntimeError(
                f"children of span {self.names[name[worst]]} sum to "
                f"{child_sum[worst]:.9f} s, more than its {dur[worst]:.9f} s"
            )
        self_time = dur - child_sum
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=self_time, minlength=len(self.names))

        def seconds(span):
            return float(total[self.names.index(span)])

        def count(span):
            return int(calls[self.names.index(span)])

        def micros(span):
            n = count(span)
            return seconds(span) / n * 1e6 if n else 0.0

        arrivals = count("encounters.on_arrival_signal")
        return {
            "grid.build_grid_s": seconds("grid.build_grid"),
            "mobility.make_node_state_s": seconds("mobility.make_node_state"),
            "mobility.make_node_state_us": micros("mobility.make_node_state"),
            "mobility.select_destination_calls": count("mobility.select_destination"),
            "mobility.select_destination_s": seconds("mobility.select_destination"),
            "mobility.select_destination_us": micros("mobility.select_destination"),
            "mobility.draw_wait_time_s": seconds("mobility.draw_wait_time"),
            "mobility.fallbacks": self.fallbacks,
            "encounters.on_arrival_signal_calls": arrivals,
            "encounters.on_arrival_signal_s": seconds("encounters.on_arrival_signal"),
            "encounters.on_arrival_signal_us": micros("encounters.on_arrival_signal"),
            "encounters.on_departure_signal_s": seconds("encounters.on_departure_signal"),
            "encounters.node_paused_s": seconds("encounters.node_paused"),
            "encounters.contacts": self.contacts,
            "encounters.contacts_per_arrival": self.contacts / arrivals if arrivals else 0.0,
            "engine.initialize_s": seconds("engine.initialize"),
            "engine.run_s": seconds("engine.run"),
            "engine.events": self.events,
            "engine.loop_self_s": float(own[self.names.index("engine.run")]),
            "engine.seen_bytes": self.seen_bytes,
            "engine.records": self.records,
            "metrics.metrics_report_s": seconds("metrics.metrics_report"),
            "metrics.summarize_calls": count("metrics.summarize"),
            "metrics.summaries_s": seconds("metrics.summary"),
            "encounters.write_contacts_csv_s": seconds("encounters.write_contacts_csv"),
            "config.write_waypoints_s": seconds("config.write_waypoints"),
            "metrics.write_ccdf_csv_s": seconds("metrics.write_ccdf_csv"),
            "metrics.write_metrics_json_s": seconds("metrics.write_metrics_json"),
            "grid.write_locations_file_s": seconds("grid.write_locations_file"),
            "cli.output_bytes": sum(p.stat().st_size for p in out.iterdir()),
            "cli.self_s": float(own[0]),
            "cli.simulations": count("cli.simulate"),
        }


def entry_times(probe: Path, host: "HostSpeed") -> dict:
    """Sum the probe's lines (see probe/sitecustomize.py) over all processes.

    In this process the sampler's chunks ran inside the timed calls, with
    the command's thread waiting for them, so they are taken out, and the
    chunks inside the calls of an entry point give its host speed.
    """
    totals = {"initialize": 0.0, "run": 0.0}
    spans: dict[str, list[tuple[float, float]]] = {"initialize": [], "run": []}
    events = 0
    for line in probe.read_text().splitlines():
        entry, pid, t0, t1, n = line.split()
        t0, t1 = float(t0), float(t1)
        busy = 0.0
        if int(pid) == os.getpid():
            busy = host.busy_s(t0, t1)
            spans[entry].append((t0, t1))
        totals[entry] += t1 - t0 - busy
        events += int(n)
    if not events:
        raise RuntimeError("no swimsim.engine.run call was timed")
    return {
        "setup_s": totals["initialize"],
        "loop_s": totals["run"],
        "events": events,
        "setup_calibration_s": host.chunk_s(spans["initialize"]),
        "loop_calibration_s": host.chunk_s(spans["run"]),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process.

    `ru_maxrss` survives exec: it starts at the resident size of the parent
    at fork, so a large parent would hide this process's own peak. The
    kernel's per-address-space high-water mark (`VmHWM`) starts afresh at
    exec; `ru_maxrss` is the fallback where it is missing.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_work() -> None:
    """A fixed piece of pure-Python work: heap pushes and pops, tuple
    allocation and float math, as in the event loop."""
    heap: list[tuple[int, int]] = []
    acc = 0.0
    for i in range(CALIBRATION_STEPS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            acc += math.hypot(heapq.heappop(heap)[0], 3.0)


class HostSpeed:
    """Measures how fast the host runs Python while the command runs.

    A thread times `calibration_work` every CALIBRATION_PERIOD_S. It must
    run on the command's CPU: the two CPUs of a shared host change speed
    independently, and a sampler on the other one does not follow the
    command. Both threads hold the GIL in turn, so a chunk's time is time
    the command's thread waited, which `busy_s` gives back.
    """

    def __init__(self):
        self.chunks = array("d")  # start and end of each chunk, in turn
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(CALIBRATION_PERIOD_S):
            t0 = time.perf_counter()
            calibration_work()
            self.chunks.extend((t0, time.perf_counter()))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def busy_s(self, t0: float, t1: float) -> float:
        """Time the chunks took within [t0, t1]."""
        c = self.chunks
        return sum(max(0.0, min(c[i + 1], t1) - max(c[i], t0)) for i in range(0, len(c), 2))

    def chunk_s(self, spans=()) -> float:
        """Mean time of the chunks that started within the spans, or of all
        chunks where none did."""
        c = self.chunks
        if not c:
            raise RuntimeError("the command ended before the host speed was sampled")
        times = [c[i + 1] - c[i] for i in range(0, len(c), 2)
                 if any(t0 <= c[i] < t1 for t0, t1 in spans)]
        if not times:
            times = [c[i + 1] - c[i] for i in range(0, len(c), 2)]
        return sum(times) / len(times)


def pin_to_one_cpu() -> None:
    """Keep this thread, and the sampler it starts, on one CPU.

    Processes the command starts get every CPU back: forked ones here,
    started ones through PERFBENCH_CPUS in probe/sitecustomize.py.
    """
    cpus = os.sched_getaffinity(0)
    os.environ["PERFBENCH_CPUS"] = ",".join(str(c) for c in sorted(cpus))
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))
    os.sched_setaffinity(0, {min(cpus)})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = None
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"warning: not traced, not found: {', '.join(missing)}", file=sys.stderr)

    pin_to_one_cpu()
    host = None if tracer else HostSpeed()
    captured = io.StringIO()
    if host:
        host.start()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        if tracer:
            rc = tracer.span(0, cli.main, argv)
        else:
            rc = cli.main(argv)
    t1 = time.perf_counter()
    result = {
        "rc": rc,
        "run_s": t1 - t0,
        "peak_rss_mb": peak_rss_mb(),
    }
    if host:
        host.stop()
        result["run_s"] -= host.busy_s(t0, t1)
        result["calibration_s"] = host.chunk_s()
        result.update(entry_times(Path(os.environ["PERFBENCH_PROBE"]), host))
    elif rc == 0:
        result["layers"] = tracer.layer_metrics(args.out)
        tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
