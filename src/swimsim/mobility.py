"""Destination-selection kernel.

Each node scores every cell with

    w(C) = alpha * decay(distance(home, C)) + (1 - alpha) * seen_norm(C)

where the distance term falls off as 1 / (1 + k*d)^2 from the home-cell
center and seen_norm is the node's encounter count at C normalized by one
plus its total encounters. A destination is picked in two steps: alpha
decides between the near set (home + neighbouring cells) and the visiting
set, then one cell of the chosen set is drawn proportionally to w(C).

On the regular grid the decay and the near test depend only on a cell's
(row, column) offset from home, so one OffsetTable per run holds them for
every offset, with their prefix sums along each row offset. What depends
on the home cell itself (each set's size, static mass and CDF over the
grid rows, O(R) values) lives in a HomeProfile shared by all nodes of that
home, and the table builds those of all of a run's homes in one numpy
pass (OffsetTable.profiles): it keeps what a home reads per grid row as
one run per home, gathers a block of homes' runs in one numpy call per
array, and wraps each home's values in slotted records. A node itself
holds only its seen counters and its phase, as plain values the engine
writes in place. The seen counters are sparse (SeenCounters): for each
set, the cells where the node has met someone, in id order, with their
counts and the set's count total, so no N x L matrix exists during a run
and a selection reads its set's seen mass without classifying cells. A
run's node streams are seeded in one numpy pass (node_streams), and a
node's stream is read in blocks of BLOCK uniforms (UniformStream), which
give the same doubles, in the same order, as one `random()` call per
value. The engine draws the streams' first blocks as the rows of a few
arrays, reads the nodes' starts from their first two columns and turns
the third into each node's first pause with the wait law's `inverse_cdf`,
which `make_node_state` sets as the node's first departure time. It
reads a trip's four uniforms and its pause's uniform as one row at the
departure, and `inverse_cdf` turns the latter into a length at the
arrival. The kernel returns whether each draw was visiting or a
fallback, and the engine tallies those per node where it draws.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import repeat

import numpy as np
# numpy imports its random module lazily, on first use; importing it here
# takes that cost (about 16 ms) out of a process's first `initialize`, and
# the forked workers of a parallel sweep inherit it
import numpy.random  # noqa: F401
from numpy.random.bit_generator import ISeedSequence

from .grid import AreaBounds, LocationMap, offset_distances

SEEN_UPDATE_MODES = ("symmetric", "bystanders_only")


def _require_finite(key: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{key} must be finite, got {', '.join(map(str, values))}")


@dataclass(frozen=True)
class UniformWait:
    low: float
    high: float

    def __post_init__(self):
        _require_finite("waitTime", self.low, self.high)
        if not (0 < self.low <= self.high):
            raise ValueError(f"waitTime needs 0 < min <= max, got [{self.low}, {self.high}]")

    def inverse_cdf(self, u: float) -> float:
        """The pause length at uniform u, clamped to [low, high]; low for any u if low == high."""
        t = self.low + u * (self.high - self.low)
        return self.low if t < self.low else self.high if t > self.high else t


@dataclass(frozen=True)
class PowerLawWait:
    """Truncated power law: density proportional to t^(-exponent) on [low, high]."""

    exponent: float
    low: float
    high: float
    # the sampler's constants for g = 1 - exponent: low**g, high**g and 1/g
    low_g: float = field(init=False, repr=False, compare=False)
    high_g: float = field(init=False, repr=False, compare=False)
    inv_g: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite("waitTime", self.exponent, self.low, self.high)
        if self.exponent <= 1:
            raise ValueError(f"waitTime power-law exponent must be > 1, got {self.exponent}")
        if not (0 < self.low <= self.high):
            raise ValueError(f"waitTime needs 0 < min <= max, got [{self.low}, {self.high}]")
        # The sampler draws between low**g and high**g (g = 1 - exponent) and
        # maps back with **(1/g). Where that overflows, underflows to 0 or
        # rounds the ends off by more than 1e-6, the draws follow no power law.
        g = 1.0 - self.exponent
        try:
            exact = all(
                math.isclose((t**g) ** (1.0 / g), t, rel_tol=1e-6) for t in (self.low, self.high)
            )
        except (OverflowError, ZeroDivisionError):
            exact = False
        if not exact:
            raise ValueError(
                f"waitTime powerlaw({self.exponent}, {self.low}, {self.high}) "
                "cannot be sampled in floating point"
            )
        object.__setattr__(self, "low_g", self.low**g)
        object.__setattr__(self, "high_g", self.high**g)
        object.__setattr__(self, "inv_g", 1.0 / g)

    def inverse_cdf(self, u: float) -> float:
        """The pause length at uniform u, clamped to [low, high]; low for any u if low == high."""
        t = self.low_g + u * (self.high_g - self.low_g)
        # high_g < low_g; rounding can push the sum below high_g or to 0
        t = (self.high_g if t < self.high_g else t) ** self.inv_g
        return self.low if t < self.low else self.high if t > self.high else t


WaitTimeDist = UniformWait | PowerLawWait


def draw_wait_time(dist: WaitTimeDist, rng: np.random.Generator | UniformStream) -> float:
    """Inverse-CDF sample of the pause duration; always within [low, high].

    Takes one uniform from `rng`, or none when low == high.
    """
    if dist.high == dist.low:
        return dist.low
    return dist.inverse_cdf(rng.random())


@dataclass(frozen=True)
class ModelParams:
    """All simulation knobs; validated on construction."""

    alpha: float
    speed: float
    neighbour_limit: float
    n_locations: int
    area: AreaBounds
    wait: WaitTimeDist
    node_count: int
    sim_duration: float
    seed: int = 1
    decay_scale: float | None = None  # k; None picks 2 / area diagonal
    seen_update: str = "symmetric"

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        _require_finite("speed", self.speed)
        _require_finite("neighbourLocationLimit", self.neighbour_limit)
        _require_finite("simDuration", self.sim_duration)
        if self.decay_scale is not None:
            _require_finite("k", self.decay_scale)
        if self.speed <= 0:
            raise ValueError(f"speed must be > 0, got {self.speed}")
        if self.neighbour_limit < 0:
            raise ValueError(f"neighbourLocationLimit must be >= 0, got {self.neighbour_limit}")
        if self.n_locations < 2:
            raise ValueError(f"noOfLocations must be >= 2, got {self.n_locations}")
        # build_grid multiplies each side by up to noOfLocations; an int
        # compares with the float bound exactly, where the product can overflow
        for key, side in (("maxAreaX", self.area.width), ("maxAreaY", self.area.height)):
            if self.n_locations > sys.float_info.max / side:
                raise ValueError(f"{key} * noOfLocations overflows: {side} * {self.n_locations}")
        if not (1 <= self.node_count <= NODE_IDS):
            raise ValueError(f"nodeCount must be in [1, 2**32], got {self.node_count}")
        if self.sim_duration <= 0:
            raise ValueError(f"simDuration must be > 0, got {self.sim_duration}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.decay_scale is not None and self.decay_scale <= 0:
            raise ValueError(f"k must be > 0, got {self.decay_scale}")
        if not math.isfinite(self.k):
            raise ValueError(
                f"k defaults to 2 / area diagonal, which overflows for a "
                f"{self.area.width} x {self.area.height} area; set k"
            )
        if self.seen_update not in SEEN_UPDATE_MODES:
            raise ValueError(f"seen_update must be one of {SEEN_UPDATE_MODES}, got {self.seen_update!r}")

    @cached_property
    def k(self) -> float:
        if self.decay_scale is not None:
            return self.decay_scale
        return 2.0 / self.area.diagonal


NODE_IDS = 2**32  # a node id is one uint32 word of its stream's seed

# O'Neill's seed_seq hash as numpy's SeedSequence runs it, over a pool of
# four uint32 words: the entropy mix's hash constants, generate_state's,
# and the mix's multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]


@cache
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i in 0..n, a read-only uint32 column."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of each row of values, row i against consts[i] and consts[i + 1]."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> _XSHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mix of x with y, elementwise."""
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> _XSHIFT
    return x


def _stream_seeds(seed: int, nodes: np.ndarray) -> np.ndarray:
    """`SeedSequence([seed, node]).generate_state(4, np.uint64)` of each node, as rows.

    The entropy is the seed's uint32 words, least significant first, then
    the node's one word, and the hash constants follow a fixed sequence. So
    each step of the hash is one uint32 operation on a (pool, nodes) array,
    whose wrap-around is the hash's own arithmetic mod 2**32.
    """
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    entropy = np.zeros((max(len(words) + 1, _POOL), len(nodes)), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = nodes
    # a hashmix per pool word, one per ordered pair of pool words, and four
    # per entropy word past the pool's
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * len(entropy))
    pool = _hashmix(entropy[:_POOL], a[: _POOL + 1])
    k = _POOL
    for src, others in enumerate(_OTHERS):
        pool[others] = _mix(pool[others], _hashmix(pool[src], a[k : k + _POOL]))
        k += _POOL - 1
    for row in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(row, a[k : k + _POOL + 1]))
        k += _POOL
    # 8 uint32 words, cycling over the pool, read as 4 little-endian uint64s
    state = _hashmix(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


class _Seed(ISeedSequence):
    """One node's precomputed seed words, handed to PCG64 as `generate_state`'s result."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for 4 uint64 words


def _streams(seed: int, first: int, count: int) -> list[np.random.Generator]:
    # a negative seed has no uint32 words: its shifts never reach 0
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if not (0 <= first and first + count <= NODE_IDS):
        raise ValueError(f"node ids must be in [0, 2**32), got {first} .. {first + count - 1}")
    seeds = _stream_seeds(seed, np.arange(first, first + count, dtype=np.uint32))
    return [np.random.Generator(np.random.PCG64(_Seed(words))) for words in seeds]


def node_streams(seed: int, count: int) -> list[np.random.Generator]:
    """The streams of nodes 0 .. count-1, seeded together in one numpy pass.

    Node i's stream is, bit for bit, `np.random.default_rng([seed, i])`,
    whatever the count: its PCG64 is seeded from SeedSequence's hash of
    `[seed, i]`, computed for all nodes at once, with no SeedSequence per node.
    """
    return _streams(seed, 0, count)


def node_stream(seed: int, node_id: int) -> np.random.Generator:
    """One node's stream, the batch of one of `node_streams`."""
    return _streams(seed, node_id, 1)[0]


BLOCK = 64  # uniforms drawn from a node's stream in one call
# home rows per block of OffsetTable.profiles: each of a block's temporary
# arrays stays under 128 KiB, glibc's initial mmap threshold, which a larger
# freed array would raise
HOME_ROWS = 4096


class UniformStream:
    """A node's generator read BLOCK uniforms at a time.

    `random()` and `take(k)` give the same doubles, in the same order, as
    successive `rng.random()` calls would. A block is filled by one
    `rng.random(out=...)` call when the last one is used up. Without a
    `block`, the first is filled only when the first value is taken. A
    `block` given is the stream's first BLOCK values, already drawn into it,
    of which the first `taken` are used: `initialize` draws the nodes' first
    blocks as the rows of a few arrays, reads every start from their first
    two columns and every first pause's uniform from the third, and hands
    each stream its row, which its later blocks overwrite.
    """

    __slots__ = ("_rng", "_block", "_values", "_pos")

    def __init__(self, rng: np.random.Generator, block: np.ndarray | None = None, taken: int = 0):
        self._rng = rng
        if block is None:
            block, taken = np.empty(BLOCK), BLOCK
        self._block = block
        self._values = memoryview(block)  # indexing it gives Python floats
        self._pos = taken

    def random(self) -> float:
        """The next uniform in [0, 1)."""
        if self._pos == BLOCK:
            self._rng.random(out=self._block)
            self._pos = 0
        self._pos += 1
        return self._values[self._pos - 1]

    def take(self, k: int) -> list[float]:
        """The next k uniforms, k <= BLOCK."""
        pos, end = self._pos, self._pos + k
        if end <= BLOCK:
            self._pos = end
            return self._values[pos:end].tolist()
        head = self._values[pos:].tolist()
        self._rng.random(out=self._block)
        self._pos = k - len(head)
        return head + self._values[: self._pos].tolist()


_NO_CELLS: tuple[list[int], list[int]] = ([], [])  # never written: `add` replaces it first
_NO_TOTALS = (0, 0)


class SeenCounters:
    """One node's encounter counts over the L cells, kept for the cells it met someone in.

    The counts are kept per step-1 set of the node's home `profile` (0 near,
    1 visiting): `cells[s]` holds the set's seen cell ids in ascending
    order, `counts[s]` their counts, never 0, in the same order, and
    `totals[s]` the set's count total; `total` is the sum over both sets.
    So the selection kernel reads a set's seen mass without classifying
    cells, and walks only the set's seen cells. The contact tracker writes
    them with `add`. It settles a node's counts at a cell, as the arriving
    node and as a bystander, in one `add` at its departure, and at the end
    of a run for a node still paused then, so mid-run they are up to date
    only from the node's departure signal to its next arrival, which is
    where the selection kernel reads them.
    """

    __slots__ = ("profile", "cells", "counts", "totals", "total")

    def __init__(self, profile: HomeProfile):
        # a node that meets no one shares these empty sets; its own are built
        # by its first `add`
        self.profile = profile
        self.cells: tuple[list[int], list[int]] = _NO_CELLS
        self.counts: tuple[list[int], list[int]] = _NO_CELLS
        self.totals = _NO_TOTALS
        self.total = 0

    def add(self, cell: int, n: int) -> None:
        """Count n more encounters at `cell`."""
        if self.cells is _NO_CELLS:
            self.cells, self.counts, self.totals = ([], []), ([], []), [0, 0]
        in_set = self.profile.set_of(cell)
        cells = self.cells[in_set]
        i = bisect_left(cells, cell)
        if i < len(cells) and cells[i] == cell:
            self.counts[in_set][i] += n
        else:
            cells.insert(i, cell)
            self.counts[in_set].insert(i, n)
        self.totals[in_set] += n
        self.total += n

    def __repr__(self) -> str:
        return f"SeenCounters(cells={self.cells}, counts={self.counts})"


@dataclass(eq=False, slots=True)
class CandidateSet:
    """One step-1 set of a home: its size, its static mass and the CDF of its grid rows.

    Written only by OffsetTable.profiles and read by the selection kernel;
    not frozen, as a frozen record costs several times as much to build.
    """

    size: int            # cells in the set
    static_mass: float   # alpha * decay summed over the set, its share of the set's weight
    # the cumulative draw mass of the set's cells in grid rows 0..R-1: the
    # decay, or one per cell when every static weight is 0 and the set is
    # drawn uniformly
    rows: array = field(repr=False)
    last: int            # the last row with draw mass, for an r rounded up to the total
    prefix: memoryview = field(repr=False)  # the table's sums of the draw mass along row offsets
    # per grid row, the index in `prefix` of the end of the set's last cell
    stops: array = field(repr=False)


class OffsetTable:
    """The selection data of one run that depend only on a cell's offset from home.

    On the regular grid, a cell's distance from the home cell's center, and
    so its decay and whether it is near, depend only on its (row, column)
    offset from home. `visiting` is the (2R-1) x (2C-1) array of the
    offsets of visiting cells, and `visiting_flags` the same as bytes, 1 at
    a visiting offset, for the kernel. The near offsets of a row offset are
    those with |dc| up to a half-width: an interval, because the distance
    grows with |dc|.

    For each set, `decay_sums[visiting]` holds the prefix sums of the decay
    along each row offset, over the set's offsets only (the other set's
    count 0): 2C sums per row offset, the first one 0, flat, as a
    memoryview whose items read as Python floats. `count_sums` holds the
    same sums of one per offset of the set, the CDF of a set drawn
    uniformly; it is built on first use. A home's profile reads its column
    of the table's other arrays, O(L) in all, for the grid rows it covers,
    which they hold as one run of R values per home: `profiles` builds
    those of all the run's distinct homes in one numpy pass over blocks of
    homes, gathering a block's runs through one strided view per array, so
    setup makes a few numpy calls per block, not per home, and no
    temporary of that build exceeds 128 KiB.
    """

    def __init__(self, location_map: LocationMap, params: ModelParams):
        rows, cols = self.rows, self.cols = location_map.rows, location_map.cols
        self.alpha = params.alpha
        distances = offset_distances(location_map)
        self.visiting = distances > params.neighbour_limit
        self.visiting_flags = self.visiting.tobytes()
        half = ((~self.visiting).sum(axis=1, dtype=np.int32) - 1) // 2
        sums = _row_sums(decay_of(distances, params.k), self._sets())
        self.decay_sums = tuple(map(memoryview, sums))
        # what a home in column c reads for each row offset i, per set: the
        # grid row's decay mass, its cell count and the index in the sums of
        # the end of its last cell (its last near column is c + half, its last
        # visiting one the grid's last or c - half - 1), built at [set, i, c]
        home_cols = np.arange(cols, dtype=np.int32)
        starts = (np.arange(2 * rows - 1, dtype=np.int32)[:, None] * (2 * cols)
                  + (cols - 1 - home_cols))  # the index of the start of column 0
        sums = sums.reshape(2, 2 * rows - 1, 2 * cols)
        masses = sums[:, :, cols - 1 - home_cols + cols] - sums[:, :, cols - 1 - home_cols]
        near_start = home_cols - half[:, None]
        near_end = np.minimum(home_cols + half[:, None] + 1, cols)
        near_counts = np.maximum(near_end - np.maximum(near_start, 0), 0)
        counts = np.stack([near_counts, cols - near_counts])
        stops = starts + np.stack([near_end, np.where(near_end < cols, cols, near_start)])
        # and kept at [set, c, i], so that the R row offsets of a home's grid
        # rows are one run: a home in grid row r and column c reads the run
        # from c * (2R-1) + R-1-r of each set's flat buffer
        self._masses, self._counts, self._stops = (
            np.ascontiguousarray(values.transpose(0, 2, 1))
            for values in (masses, counts, stops.astype(np.intc)))
        self._runs = [_runs(values, rows) for values in (self._masses, self._counts, self._stops)]

    def _sets(self) -> np.ndarray:
        """The near and the visiting offsets."""
        return np.stack([~self.visiting, self.visiting])

    @cached_property
    def count_sums(self) -> tuple[memoryview, memoryview]:
        return tuple(map(memoryview, _row_sums(1.0, self._sets())))

    def profiles(self, homes: list[int]) -> list[HomeProfile]:
        """The selection profiles of the home cells `homes`, in the same order.

        Each set's data are built for a block of homes at a time, from one
        gather of the block's runs per array, with the row CDFs summed along
        the grid rows in the same order for every home; a block holds at
        most HOME_ROWS home rows (one home, on a grid of more rows), so no
        temporary array exceeds 128 KiB. What is left per home is wrapping
        its values in compact arrays and slotted records, a CandidateSet per
        set and a HomeProfile per home, which only this build writes.
        """
        rows, cols = self.rows, self.cols
        mass_runs, count_runs, stop_runs = self._runs
        profiles = []
        block = max(1, HOME_ROWS // rows)
        for lo in range(0, len(homes), block):
            chunk = homes[lo:lo + block]
            home_rows, home_cols = np.divmod(np.array(chunk, dtype=np.intp), cols)
            # where each home's run starts: its column's, then its first row offset
            runs = home_cols * (2 * rows - 1) + (rows - 1 - home_rows)
            # per set, home and grid row: [set, h, i]
            masses = np.cumsum(mass_runs[:, runs], axis=2)
            counts = np.cumsum(count_runs[:, runs], axis=2)
            totals = masses[:, :, -1]
            weighted = (totals > 0.0) & (self.alpha > 0.0)
            # the draw mass: the decay, or one per cell where a set is drawn uniformly
            cdfs = np.where(weighted[:, :, None], masses, counts)
            # the first row at the total is the last one that adds to it
            lasts = np.argmax(cdfs >= cdfs[:, :, -1:], axis=2).tolist()
            sizes = counts[:, :, -1].tolist()
            statics = np.where(weighted, self.alpha * totals, 0.0).tolist()
            prefixes = [[(self.decay_sums if w else self.count_sums)[visiting] for w in of_set]
                        for visiting, of_set in enumerate(weighted.tolist())]
            # each set's arrays are slices of the block's, so they are compact
            cdf_items = array("d", cdfs.tobytes())
            stop_items = array("i", stop_runs[:, runs].tobytes())
            # the block's h-th home's R values of set s start at (s * homes + h) * R
            firsts = range(0, len(cdf_items), rows)
            near, visiting = (
                map(CandidateSet, sizes[s], statics[s], [cdf_items[at:at + rows] for at in ats],
                    lasts[s], prefixes[s], [stop_items[at:at + rows] for at in ats])
                for s, ats in enumerate((firsts[:len(chunk)], firsts[len(chunk):])))
            # index in `visiting_flags` of cell 0's offset (a cell's is that
            # plus the cell id and (C-1) per grid row), and in the sums of the
            # start of grid row 0's column 0
            flags_base = (rows - 1 - home_rows) * (2 * cols - 1) + cols - 1 - home_cols
            sums_base = (rows - 1 - home_rows) * (2 * cols) + cols - 1 - home_cols
            profiles += map(HomeProfile, repeat(self), home_rows.tolist(), home_cols.tolist(),
                            flags_base.tolist(), sums_base.tolist(), near, visiting)
        return profiles


def _runs(values: np.ndarray, length: int) -> np.ndarray:
    """A read-only view of the C-contiguous `values`, per set along the first
    axis, whose [s, p] is the `length` values from p of set s's flat buffer, so
    that one gather along p copies whole runs."""
    step = values.itemsize
    runs = np.ndarray((len(values), values[0].size - length + 1, length), values.dtype,
                      values, strides=(values.strides[0], step, step))
    runs.flags.writeable = False
    return runs


def _row_sums(terms, sets: np.ndarray) -> np.ndarray:
    """Prefix sums from 0 along the last axis of `terms`, counting only the
    entries of each set in `sets` (the others count 0), flat for each set.

    Each set's sums are written in place, one set at a time, so no temporary
    is larger than one set's terms.
    """
    sums = np.zeros((*sets.shape[:-1], sets.shape[-1] + 1))
    for row_sums, in_set in zip(sums, sets):
        np.multiply(terms, in_set, out=row_sums[..., 1:])
        np.cumsum(row_sums[..., 1:], axis=-1, out=row_sums[..., 1:])
    return sums.reshape(len(sets), -1)


@dataclass(eq=False, slots=True)
class HomeProfile:
    """Everything selection needs that depends only on the home cell.

    Built once per distinct home under one run's params, by
    OffsetTable.profiles only, and shared by every node homed there. It
    keeps O(R) values per set, and reads the rest from the run's
    OffsetTable.
    """

    table: OffsetTable = field(repr=False)
    row: int  # the home's grid row and column
    col: int
    # cell c is visiting when the table's visiting_flags[c + c // C * (C-1)
    # + flags_base] is 1; grid row r's column 0 starts at sums_base + 2C * r
    # in the table's sums
    flags_base: int
    sums_base: int
    near: CandidateSet = field(repr=False)      # home + neighbouring cells
    visiting: CandidateSet = field(repr=False)

    def set_of(self, cell: int) -> int:
        """The step-1 set of `cell` for this home: 1 if it is visiting, 0 if near."""
        table = self.table
        return table.visiting_flags[cell + cell // table.cols * (table.cols - 1) + self.flags_base]

    def cells(self, visiting: bool) -> np.ndarray:
        """Ascending ids of the cells of the visiting set, or of the near set."""
        rows, cols = self.table.rows, self.table.cols
        offsets = self.table.visiting[rows - 1 - self.row:2 * rows - 1 - self.row,
                                      cols - 1 - self.col:2 * cols - 1 - self.col]
        return np.flatnonzero(offsets == visiting)


class NodeState:
    """One node: its home, its seen counters and its current phase.

    The phase is kept as plain values, which the engine's event loop reads
    and writes in place, so that an event builds no object:

    * `paused`: True while paused (the next event is a departure), False
      on a trip (the next event is the arrival);
    * `cell`: the pause's cell, or the trip's target cell;
    * `x`, `y`: the position while paused, the trip's origin while moving;
    * `tx`, `ty`: the trip's target;
    * `start`, `end`: the pause's start and scheduled departure, or the
      trip's departure and arrival.

    A node starts paused at home from 0 until `end`.
    """

    __slots__ = ("id", "home", "seen", "profile", "paused", "cell", "x", "y", "tx", "ty",
                 "start", "end")

    def __init__(self, id: int, home: int, x: float, y: float, seen: SeenCounters,
                 profile: HomeProfile, end: float):
        self.id, self.home, self.seen, self.profile = id, home, seen, profile
        self.x = self.tx = x
        self.y = self.ty = y
        self.paused, self.cell, self.start, self.end = True, home, 0.0, end

    def __repr__(self) -> str:
        return (f"NodeState(id={self.id}, home={self.home}, paused={self.paused}, "
                f"cell={self.cell}, x={self.x}, y={self.y}, tx={self.tx}, ty={self.ty}, "
                f"start={self.start}, end={self.end})")


def make_node_state(node_id: int, x: float, y: float, profile: HomeProfile,
                    end: float = 0.0) -> NodeState:
    """Node at the point (x, y) with no encounters, homed in the cell of `profile`.

    The node starts paused at home over [0, end]. `profile` is the one built
    for the cell containing the point under the run's params, shared with
    the other nodes of that home; the home is read from it, not looked up.
    """
    home = profile.row * profile.table.cols + profile.col
    return NodeState(node_id, home, x, y, SeenCounters(profile), profile, end)


def decay_of(distances: np.ndarray, k: float) -> np.ndarray:
    """Distance term 1 / (1 + k*d)^2 for every entry of `distances`.

    A huge k overflows k*d or its square to inf, which is decay 0, the limit
    the term tends to; numpy's overflow warning would only read like a fault.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + k * distances) ** 2


def choose_destination(
    node: NodeState,
    location_map: LocationMap,
    params: ModelParams,
    u: float,
    r: float,
    fx: float,
    fy: float,
) -> tuple[int, float, float, bool, bool]:
    """Two-step SWIM destination draw from four uniforms u, r, fx, fy.

    Returns the cell, the point's x and y, whether the cell was drawn from
    the visiting set (False means home or neighbouring) and whether the
    step-1 set was empty, so that the other set was used, all plain values.

    Step 1: the near set (home + neighbouring) when u < alpha, otherwise
    the visiting set; an empty set falls back to the other one. Step 2: one
    candidate is drawn with r proportionally to w(C), uniformly if every
    weight in the set is zero. The point, at fractions fx, fy of the chosen
    cell, may lie in the node's current cell.

    w(C) is a mixture of the home's static term, with mass S, and a dynamic
    term that is non-zero only in the few cells where the node has met
    someone, with mass D, read in O(1) from the set's count total that the
    seen counters keep. r * (S + D) below S makes the static draw, which
    reads no seen cell; at or above it, the draw walks the set's seen cells
    in id order. The static draw bisects the home's CDF over the grid rows,
    then the offset table's sums along the chosen row's row offset, and
    reads no numpy scalar. A node that has met nobody goes straight to the
    static draw without reading its counters, and while D is 0 (also at
    alpha = 1) the draw does not depend on the seen counters at all. So a
    static draw costs O(log R + log C), and a dynamic one the chosen set's
    seen cells.
    """
    profile = node.profile
    visiting = u >= params.alpha
    candidates = profile.visiting if visiting else profile.near
    fallback = candidates.size == 0
    if fallback:
        visiting = not visiting
        candidates = profile.visiting if visiting else profile.near
    cols = profile.table.cols
    cell_id = None
    seen = node.seen
    total = seen.total
    if total:
        # the seen terms (1 - alpha) * count / (1 + total) share their factor,
        # so their sum is the term of the set's summed counts
        dynamic_mass = (1.0 - params.alpha) * seen.totals[visiting] / (1.0 + total)
        if dynamic_mass > 0.0:
            static_mass = candidates.static_mass
            x = r * (static_mass + dynamic_mass)
            if x < static_mass:
                r = x / static_mass
            else:
                # each seen term is added one at a time in ascending cell id:
                # the draws are pinned to these roundings, and another order
                # or a cumulative form would round the partial sums differently
                alpha = params.alpha
                cells = seen.cells[visiting]
                cell_id = cells[-1]  # when rounding runs past the last entry
                acc = static_mass
                for cell, count in zip(cells, seen.counts[visiting]):
                    acc += (1.0 - alpha) * count / (1.0 + total)
                    if x < acc:
                        cell_id = cell
                        break
    if cell_id is None:
        # the static draw: the grid row by the home's row CDF, then the
        # column by the sums along the row's row offset, up to the set's
        # last cell in the row (the other set's cells weigh 0)
        rows = candidates.rows
        t = r * rows[-1]
        row = bisect_right(rows, t)
        if row == len(rows):
            row = candidates.last
        if row:
            t -= rows[row - 1]
        prefix, start = candidates.prefix, profile.sums_base + 2 * cols * row
        col = bisect_right(prefix, prefix[start] + t, start + 1, candidates.stops[row]) - start - 1
        cell_id = row * cols + col
    else:
        row, col = divmod(cell_id, cols)
    # numpy's uniform arithmetic, min + (max - min) * f, on the cell's edges:
    # the point rng.uniform(min, max) would draw from the same doubles
    xs, ys = location_map.x_edges, location_map.y_edges
    x = xs[col] + (xs[col + 1] - xs[col]) * fx
    y = ys[row] + (ys[row + 1] - ys[row]) * fy
    return cell_id, x, y, visiting, fallback
