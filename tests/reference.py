"""A slow SWIM simulator written from README's model text, the judge of `simulate`.

It has none of the engine's machinery: no offset table, home profile, seen
store, contact tracker, batch-seeded or block-read stream. Each node draws
from numpy's own `default_rng([seed, node])`. From swimsim it takes only
`grid_shape` (judged against brute force in test_grid) and
`draw_wait_time` (acceptance criterion 7). It draws from a dense w(C) over
the chosen set by README's mixture recipe, with the same four uniforms;
reads waits one value at a time from the node's stream; finds encounters
by scanning every node for one paused in the arriving node's cell, and
counts them at once; and keeps every log as a plain list.
"""

import heapq
import math
from itertools import count

import numpy as np

from swimsim.grid import grid_shape
from swimsim.mobility import draw_wait_time


class Model:
    """The grid of one scenario's params, its step-1 sets and w(C)."""

    def __init__(self, params):
        self.params = params
        width, height = params.area.width, params.area.height
        self.rows, self.cols = grid_shape(params.area, params.n_locations)
        self.x_edges = [width * c / self.cols for c in range(self.cols + 1)]
        self.y_edges = [height * r / self.rows for r in range(self.rows + 1)]
        self.k = params.decay_scale or 2.0 / math.hypot(width, height)  # k > 0 if given
        self.sets = {}  # (home, visiting) -> the cells of that set

    def cell_of(self, x, y):
        """An interior edge belongs to the higher cell, an outer one to the last."""
        col = max(c for c in range(self.cols) if self.x_edges[c] <= x)
        return max(r for r in range(self.rows) if self.y_edges[r] <= y) * self.cols + col

    def distance(self, a, b):
        """Between two cells' centers, from their row and column offsets."""
        (ra, ca), (rb, cb) = divmod(a, self.cols), divmod(b, self.cols)
        dx = (cb - ca) * self.params.area.width / self.cols
        dy = (rb - ra) * self.params.area.height / self.rows
        return math.sqrt(dx * dx + dy * dy)

    def chosen_set(self, home, visiting):
        """The home's visiting cells, or its near ones (home and neighbouring), in id order."""
        if (home, visiting) not in self.sets:
            limit, cells = self.params.neighbour_limit, range(self.rows * self.cols)
            self.sets[home, visiting] = [
                c for c in cells if (self.distance(home, c) > limit) == visiting]
        return self.sets[home, visiting]

    def pick_set(self, home, u):
        """Step 1: (visiting, fallback, cells); the near set when u < alpha, unless empty."""
        visiting = u >= self.params.alpha
        if not self.chosen_set(home, visiting):
            return not visiting, True, self.chosen_set(home, not visiting)
        return visiting, False, self.chosen_set(home, visiting)

    def terms(self, home, seen, cells):
        """The dense w(C) = alpha * decay(C) + (1 - alpha) * seen(C) / (1 + total seen)
        over `cells`, as its two terms: the decay, which alpha scales, and the seen term."""
        k, alpha, total = self.k, self.params.alpha, sum(seen.values())
        decay = [1.0 / ((1.0 + k * d) * (1.0 + k * d))
                 for d in (self.distance(home, c) for c in cells)]
        return decay, [(1.0 - alpha) * seen.get(c, 0) / (1.0 + total) for c in cells]

    def choose(self, home, seen, u, r):
        """Step 2 by README's mixture recipe: (cell, visiting, fallback). The static
        term, of mass S, is drawn by the decay (uniformly if S is 0), the seen term
        when r * (S + D) is at or above S, adding the seen terms from S in id order."""
        alpha = self.params.alpha
        visiting, fallback, cells = self.pick_set(home, u)
        decay, dynamic = self.terms(home, seen, cells)
        static_mass = alpha * sum(decay)
        if static_mass == 0.0:
            decay = [1.0] * len(cells)
        in_set = sum(seen.get(c, 0) for c in cells)
        dynamic_mass = (1.0 - alpha) * in_set / (1.0 + sum(seen.values()))
        weights, acc, x = decay, 0.0, r * sum(decay)
        if dynamic_mass > 0.0:
            x = r * (static_mass + dynamic_mass)
            if x < static_mass:
                x = x / static_mass * sum(decay)
            else:
                weights, acc = dynamic, static_mass
        for cell, w in zip(cells, weights):
            acc += w
            if x < acc:
                return cell, visiting, fallback
        # rounding ran past the end: the last cell that weighs anything
        return [c for c, w in zip(cells, weights) if w][-1], visiting, fallback


def simulate_reference(params):
    """The run of `params` as plain lists, in the engine's order and fields (a
    selection's trip departs at `start` and arrives at `end`, past the horizon
    for a trip still under way there); `reads`
    holds, per selection, the node's seen (cell, count) pairs in its near and in its
    visiting set, the two sets' totals and the node's total."""
    model = Model(params)
    n, until = params.node_count, params.sim_duration
    rngs = [np.random.default_rng([params.seed, i]) for i in range(n)]
    xs, ys = map(list, zip(*[(float(rng.uniform(0.0, params.area.width)),
                              float(rng.uniform(0.0, params.area.height))) for rng in rngs]))
    homes = [model.cell_of(x, y) for x, y in zip(xs, ys)]
    cell_at = list(homes)  # the cell of a node's pause, or of its trip's target
    pause_row = [None] * n  # a paused node's row in `pauses`; None while it moves
    seen = [{} for _ in range(n)]
    waypoints, selections, pauses, contacts, reads = [], [], [], [], []
    queue, seq = [], count()

    def pause(i, now):
        """i pauses from `now` and meets each node paused in its cell, in the order they paused."""
        cell, end = cell_at[i], now + draw_wait_time(params.wait, rngs[i])
        for row, j in sorted((pause_row[j], j) for j in range(n)
                             if pause_row[j] is not None and cell_at[j] == cell):
            contacts.append([min(i, j), max(i, j), cell, now, min(end, pauses[row][3])])
            for member in (j, i) if params.seen_update == "symmetric" else (j,):
                seen[member][cell] = seen[member].get(cell, 0) + 1
        pause_row[i] = len(pauses)
        pauses.append([i, cell, now, end])
        heapq.heappush(queue, (end, next(seq), i))

    for i in range(n):  # each home pause is announced at t = 0, in id order
        pause(i, 0.0)
    while queue and queue[0][0] <= until:
        now, _, i = heapq.heappop(queue)
        if pause_row[i] is None:
            waypoints.append((now, i, xs[i], ys[i], True))
            pause(i, now)
            continue
        pause_row[i] = None
        split = [[(c, seen[i][c]) for c in model.chosen_set(homes[i], v) if c in seen[i]]
                 for v in (False, True)]
        totals = [sum(m for _, m in pairs) for pairs in split]
        reads.append((*split, totals, sum(totals)))
        u, r, fx, fy = (rngs[i].random() for _ in range(4))
        cell, visiting, fallback = model.choose(homes[i], seen[i], u, r)
        waypoints.append((now, i, xs[i], ys[i], False))
        (row, col), x_edges, y_edges = divmod(cell, model.cols), model.x_edges, model.y_edges
        tx = x_edges[col] + (x_edges[col + 1] - x_edges[col]) * fx
        ty = y_edges[row] + (y_edges[row + 1] - y_edges[row]) * fy
        arrive = now + math.hypot(tx - xs[i], ty - ys[i]) / params.speed
        selections.append((i, cell, visiting, fallback, now, arrive))
        heapq.heappush(queue, (arrive, next(seq), i))
        xs[i], ys[i], cell_at[i] = tx, ty, cell
    for record in pauses + contacts:  # what ends past the horizon ends there, censored
        record += [record[-1] > until]
        record[-2] = min(record[-2], until)
    return dict(
        waypoints=waypoints, selections=selections, reads=reads,
        pauses=list(map(tuple, pauses)), contacts=list(map(tuple, contacts)),
        seen=[[counts.get(c, 0) for c in range(model.rows * model.cols)] for counts in seen],
    )
