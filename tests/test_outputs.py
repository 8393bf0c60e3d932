"""The column-wise CSV text kernel against per-row `%` formatting.

Every CSV writer but the sweep's formats its rows with
`outputs._csv_rows`, which builds the text with numpy and no Python work
per row. Its bytes must equal those of `"%.6f"`, `"%d"` and the flag's
text row by row, also for the values it leaves to `%`: a float whose
product by 1e6 lies within one ulp of a half, -0.0 and negatives, floats
not finite or too large to round exactly, and negative ints.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_engine import make_params

from swimsim import outputs
from swimsim.engine import initialize, run
from swimsim.mobility import PowerLawWait
from swimsim.outputs import FLOAT, INT, _csv_rows

EVENTS = ("depart", "arrive")
LIMIT = 2.0**53 / 1e6  # the kernel rounds floats below it itself


def ulps_around(v, steps=2):
    """v and the doubles up to `steps` ulps either side of it."""
    out, up, down = [v], v, v
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def row_text(values, forms) -> str:
    return ",".join(
        form[value] if isinstance(form, tuple) else form % value for value, form in zip(values, forms)
    ) + "\n"


def expected_text(columns, forms) -> bytes:
    rows = zip(*(column.tolist() for column in columns))
    return "".join(row_text(values, forms) for values in rows).encode()


def check(columns, forms):
    dtypes = {FLOAT: np.float64, INT: np.int64}  # a flag is a bool
    columns = [np.asarray(column, dtype=dtypes.get(form, bool)) for column, form in zip(columns, forms)]
    assert _csv_rows(columns, forms) == expected_text(columns, forms)


# %.6f of these rounds the exact product by 1e6, while rint(v * 1e6) rounds the
# product as a double: 4683401.4999999996... is 4683401.5 as a double
MISROUNDED = (4.6834014999999996, 0.6834614999999999)
# a double k / 128 with k odd is an exact tie at six decimals, rounded to even
TIES = [ulp for whole in (3.0, 16384.0, 4e9) for k in (1, 3, 63, 127)
        for ulp in ulps_around(whole + k / 128)]
EDGES = [-0.0, 0.0, -1.5, -1e-9, 5e-324, -5e-324, 2.2250738585072014e-308,
         *ulps_around(LIMIT), 1e20, math.inf, -math.inf, math.nan, 1.7976931348623157e308]


def test_fixed_floats_match_row_formatting():
    values = [*MISROUNDED, *TIES, *EDGES, 0.5e-6, 1.5e-6, 2.5e-6, 999999.9999995, 1234.5678905]
    check([values], (FLOAT,))
    # alone, so that a chunk with no unsafe row is checked too
    for value in values:
        check([[value]], (FLOAT,))


def test_fixed_ints_and_flags_match_row_formatting():
    ints = [0, 1, 9, 10, 99, 100, 4294967295, 4294967296, 2**63 - 1, -1, -(2**63)]
    check([ints, [i % 2 == 0 for i in range(len(ints))]], (INT, EVENTS))
    check([ints[:6], [1.0] * 6, [False] * 6], (INT, FLOAT, ("0", "1")))
    # leading zeros are dropped where a column's values have fewer digits than its largest
    check([[5, 12345, 0], [0.25, 12345.5, 7.0]], (INT, FLOAT))


def test_empty_chunk_is_no_text():
    assert _csv_rows([np.empty(0), np.empty(0, dtype=np.int64)], (FLOAT, INT)) == b""


@st.composite
def near_half_micros(draw):
    """A double within a few ulps of a half-micro tie, at any integer part."""
    whole = draw(st.sampled_from([0, 3, 16384, 4_000_000_000]) | st.integers(0, 9_000_000_000))
    micros = draw(st.integers(0, 999_999))
    v = (whole * 1_000_000 + micros + 0.5) / 1e6
    return draw(st.sampled_from(ulps_around(v, 3)))


FLOATS = (st.floats(allow_nan=True, allow_infinity=True) | st.floats(0.0, 1e5)
          | near_half_micros() | st.sampled_from([*MISROUNDED, *TIES, *EDGES]))
INTS = st.integers(-(2**63), 2**63 - 1) | st.integers(0, 10**6)
FORMS = st.sampled_from([FLOAT, INT, EVENTS, ("0", "1")])


@st.composite
def chunks(draw):
    """Columns of one chunk with their forms."""
    forms = draw(st.lists(FORMS, min_size=1, max_size=6))
    rows = draw(st.integers(0, 40))
    values = {FLOAT: FLOATS, INT: INTS}
    columns = [draw(st.lists(values.get(form, st.booleans()), min_size=rows, max_size=rows))
               for form in forms]
    return columns, tuple(forms)


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks())
@example(([list(MISROUNDED), [3, 16384]], (FLOAT, INT)))
@example(([[-0.0, 0.0], [False, True]], (FLOAT, EVENTS)))
def test_kernel_matches_row_formatting(chunk):
    columns, forms = chunk
    check(columns, forms)


def test_waypoints_writer_peak_per_waypoint(tmp_path, monkeypatch):
    # the writer holds one chunk's text and parts at a time; fewer rows per
    # write keep that small against the log, so that what grows with it shows
    params = make_params(
        node_count=200, n_locations=4, wait=PowerLawWait(1.5, 10.0, 3600.0), sim_duration=20_000.0
    )
    report = run(initialize(params), params.sim_duration)
    n = len(report.waypoints)
    assert n >= 20_000
    monkeypatch.setattr(outputs, "ROWS_PER_WRITE", 256)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        outputs.write_waypoints(report.waypoints, tmp_path / "waypoints.csv")
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak / n <= 8, peak
