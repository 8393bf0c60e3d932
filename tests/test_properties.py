"""Property tests: every accepted config runs, every accepted wait samples in
range, and the engine's run equals the reference simulator's (reference.py).

Hypothesis generates the inputs. Examples are derandomized, so a run of the
suite always tries the same inputs and a failure reproduces.
"""

import math
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from reference import simulate_reference
from test_cpu_targets import CONFIGS

from swimsim import engine
from swimsim.cli import main
from swimsim.config import ConfigError, loads_config
from swimsim.engine import simulate
from swimsim.grid import AreaBounds
from swimsim.mobility import ModelParams, PowerLawWait, UniformWait, draw_wait_time
from swimsim.outputs import read_locations_file

SETTINGS = dict(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
GARBAGE = st.sampled_from(["", "x", "1e", "--1", "0x10", "1,5", "None"])
NUMBER = st.one_of(ANY_FLOAT.map(repr), st.integers(-(10**6), 10**6).map(str), GARBAGE)


class FixedDraw:
    """Stands in for the generator so the sampler sees a chosen u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@st.composite
def waits(draw):
    """A UniformWait or PowerLawWait from any floats; None when the validator rejects it."""
    low, high = draw(ANY_FLOAT), draw(ANY_FLOAT)
    try:
        if draw(st.booleans()):
            return UniformWait(low, high)
        return PowerLawWait(draw(ANY_FLOAT), low, high)
    except ValueError:
        return None


@settings(max_examples=500, **SETTINGS)
@given(waits(), st.floats(0.0, 1.0, exclude_max=True))
def test_accepted_waits_draw_finite_values_in_range(dist, u):
    if dist is None:
        return
    t = draw_wait_time(dist, FixedDraw(u))
    assert math.isfinite(t) and dist.low <= t <= dist.high, (dist, u, t)


# uniforms with both ends of [0, 1) and the doubles just below 1 included
UNIFORMS = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(
    [0.0, math.nextafter(1.0, 0.0), math.nextafter(math.nextafter(1.0, 0.0), 0.0), 1.0 - 2.0**-30]
)


@st.composite
def power_laws(draw):
    """A PowerLawWait with low < high; parameters the validator rejects are not used."""
    low = draw(st.floats(1e-6, 1e6))
    high = draw(st.floats(low, 1e4 * low, exclude_min=True))
    try:
        return PowerLawWait(draw(st.floats(1.0, 8.0, exclude_min=True)), low, high)
    except ValueError:
        assume(False)


@settings(max_examples=300, **SETTINGS)
@given(power_laws(), UNIFORMS)
def test_power_law_draws_equal_the_per_call_formula(dist, u):
    # the sampler's constants are computed once per distribution; its draws
    # must be those of the formula evaluated afresh on every call
    g = 1.0 - dist.exponent
    low_g, high_g = dist.low**g, dist.high**g
    t = max(low_g + u * (high_g - low_g), high_g) ** (1.0 / g)
    assert draw_wait_time(dist, FixedDraw(u)) == min(max(t, dist.low), dist.high)


def _wait_text(low, high, exponent):
    if exponent is None:
        return f"uniform({low!r},{high!r})"
    return f"powerlaw({exponent!r},{low!r},{high!r})"


# any positive float, or half the time a moderate one
POSITIVE = st.floats(1e-3, 1e4) | st.floats(min_value=0.0, exclude_min=True)


@st.composite
def wait_texts(draw):
    low = draw(st.floats(1.0, 1e4) | st.floats(min_value=1.0))
    high = draw(st.floats(low, 2 * low) | st.floats(min_value=low))
    return _wait_text(low, high, draw(st.none() | st.floats(1.0, 4.0) | st.floats(min_value=1.0)))


# Every key with the values it is fuzzed with: (values in range, values mostly
# out of range or not numbers). nodeCount, noOfLocations and simDuration stay
# small and waits at least 1 s, so every run the parser accepts ends quickly.
KEY_VALUES = {
    "neighbourLocationLimit": ((st.just(0.0) | POSITIVE).map(repr), NUMBER),
    "speed": (POSITIVE.map(repr), NUMBER),
    "maxAreaX": (POSITIVE.map(repr), NUMBER),
    "maxAreaY": (POSITIVE.map(repr), NUMBER),
    "waitTime": (
        wait_texts(),
        st.builds(_wait_text, st.floats(max_value=0.0), ANY_FLOAT, st.none() | ANY_FLOAT)
        | GARBAGE,
    ),
    "alpha": (st.floats(0.0, 1.0).map(repr), NUMBER),
    "noOfLocations": (st.integers(2, 40).map(str), st.integers(-2, 1).map(str) | GARBAGE),
    "simDuration": (
        st.floats(0.0, 300.0, exclude_min=True).map(repr),
        st.floats(max_value=0.0).map(repr) | GARBAGE,
    ),
    "nodeCount": (st.integers(1, 6).map(str), st.integers(-1, 0).map(str) | GARBAGE),
    "seed": (st.integers(0, 2**64).map(str), st.integers(max_value=-1).map(str) | GARBAGE),
    "k": (POSITIVE.map(repr), NUMBER),
    "seen_update": (st.sampled_from(["symmetric", "bystanders_only"]), st.just("both")),
    "initialX": (st.just("uniform"), st.just("gaussian")),
    "initialY": (st.just("uniform"), st.just("")),
    "initialZ": (st.sampled_from(["0", "-0.0"]), st.sampled_from(["1", "nan", "z"])),
    "maxAreaZ": (st.just("0.0"), st.just("2")),
}
# the required keys, and simDuration, whose 50 000 s default makes runs long
ALWAYS = {"neighbourLocationLimit", "speed", "maxAreaX", "maxAreaY", "waitTime",
          "alpha", "noOfLocations", "simDuration"}


@st.composite
def config_texts(draw):
    broken = draw(st.sets(st.sampled_from(sorted(KEY_VALUES)), max_size=2))
    lines = []
    for key, (in_range, out_of_range) in KEY_VALUES.items():
        if key in ALWAYS or draw(st.booleans()):
            lines.append(f"{key} = {draw(out_of_range if key in broken else in_range)}")
    lines += draw(st.lists(st.sampled_from(["# note", "", "bogus = 1", "speed"]), max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=150, **SETTINGS)
@given(config_texts())
def test_every_config_fails_naming_a_key_or_runs(text):
    try:
        config = loads_config(text)
    except ConfigError as e:
        assert set(re.findall(r"\w+", str(e))) & {*KEY_VALUES, "bogus"}, str(e)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.conf", Path(tmp) / "out"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        # the written grid reads back as the config's number of cells
        assert len(read_locations_file(out / "locations.csv")) == config.n_locations


@st.composite
def small_scenarios(draw):
    """Up to 8 nodes on up to 30 cells, either wait law, fixed (high = low) about half
    the time, any alpha, either seen_update."""
    low = draw(st.floats(1.0, 50.0))
    high = draw(st.just(low) | st.floats(low, 20 * low, exclude_min=True))
    if draw(st.booleans()):
        wait = UniformWait(low, high)
    else:
        wait = PowerLawWait(draw(st.floats(1.2, 3.0)), low, high)
    return ModelParams(
        alpha=draw(st.floats(0.0, 1.0)),
        speed=1.4,
        neighbour_limit=draw(st.floats(0.0, 600.0)),
        n_locations=draw(st.integers(2, 30)),
        area=AreaBounds(draw(st.floats(50.0, 400.0)), draw(st.floats(50.0, 400.0))),
        wait=wait,
        node_count=draw(st.integers(1, 8)),
        sim_duration=draw(st.floats(1.0, 3000.0)),
        seed=draw(st.integers(0, 2**32)),
        seen_update=draw(st.sampled_from(["symmetric", "bystanders_only"])),
    )


# the five scenarios whose output bytes test_digests pins
DIGEST_SCENARIOS = [loads_config(text).to_params() for text in CONFIGS]


@settings(max_examples=400, **SETTINGS)
@given(small_scenarios())
@example(DIGEST_SCENARIOS[0])
@example(DIGEST_SCENARIOS[1])
@example(DIGEST_SCENARIOS[2])
@example(DIGEST_SCENARIOS[3])
@example(DIGEST_SCENARIOS[4])
# a fixed wait on a few cells: trip rows with no pause uniform, and every
# node's first departure at t = low, ties broken by the heap's seq
@example(ModelParams(alpha=0.5, speed=1.4, neighbour_limit=150.0, n_locations=4,
                     area=AreaBounds(200.0, 200.0), wait=PowerLawWait(2.0, 5.0, 5.0),
                     node_count=8, sim_duration=2000.0, seed=3))
def test_engine_matches_the_reference_simulator(params):
    # every log, the final seen counts and the seen counts each selection
    # read equal, field by field, those of the reference simulator
    choose, reads = engine.choose_destination, []

    def reading_choose(node, *args):
        seen = node.seen
        pairs = [list(zip(seen.cells[s], seen.counts[s])) for s in (0, 1)]
        reads.append((*pairs, list(seen.totals), seen.total))
        return choose(node, *args)

    with patch.object(engine, "choose_destination", reading_choose):
        report = simulate(params)
    expected = simulate_reference(params)
    assert report.waypoints.tolist() == expected["waypoints"]
    assert report.selections.tolist() == expected["selections"]
    assert reads == expected["reads"]
    assert report.pauses.tolist() == expected["pauses"]
    assert report.contacts.tolist() == expected["contacts"]
    assert report.seen.tolist() == expected["seen"]
