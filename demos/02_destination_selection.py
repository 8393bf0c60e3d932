"""Destination selection
=======================

A node scores every cell by mixing closeness to home with how many nodes
it has met there:

    w(C) = alpha * 1/(1 + k*d)^2  +  (1 - alpha) * seen(C)/(1 + total seen)

alpha also picks the destination *type* first: with probability alpha the
node goes somewhere near home, otherwise to a visiting (remote) cell.
"""

import numpy as np

from swimsim import AreaBounds, ModelParams, UniformWait
from swimsim.grid import Point2D, build_grid, cell_of
from swimsim.mobility import OffsetTable, choose_destination, make_node_state, node_stream

area = AreaBounds(400.0, 400.0)
grid = build_grid(area, 21)


def selection_histogram(alpha, experienced=False, draws=20000):
    params = ModelParams(
        alpha=alpha, speed=1.4, neighbour_limit=300.0, n_locations=21,
        area=area, wait=UniformWait(2.0, 5.0), node_count=1, sim_duration=1.0,
    )
    position = Point2D(10.0, 10.0)
    # what selection reads of the home cell, built once per home in a run
    (profile,) = OffsetTable(grid, params).profiles([cell_of(grid, position)])
    node = make_node_state(0, position.x, position.y, profile)
    if experienced:
        node.seen.add(20, 30)  # met 30 nodes at the far corner
    rng = node_stream(0, 0)
    counts = np.zeros(21, dtype=int)
    for _ in range(draws):
        cell, _x, _y, _visiting, _fallback = choose_destination(
            node, grid, params, *rng.random(4).tolist()
        )
        counts[cell] += 1
    return counts, node


print("home is cell 0 (bottom-left); fractions of 20000 draws per cell\n")
for alpha in (0.3, 0.8):
    counts, node = selection_histogram(alpha)
    visiting = set(node.profile.cells(visiting=True).tolist())
    remote_share = counts[sorted(visiting)].sum() / counts.sum()
    print(f"alpha = {alpha}: remote share {remote_share:.3f}")
    for row in range(2, -1, -1):  # print rows top-down
        cells = range(row * 7, row * 7 + 7)
        marks = " ".join(
            f"{counts[c] / counts.sum():.3f}{'*' if c in visiting else ' '}"
            for c in cells
        )
        print(f"  row {row}: {marks}")
    print("  (* = visiting cell)\n")

# popularity pulls selections: load one remote cell with encounters
counts_cold, _ = selection_histogram(0.3)
counts_warm, _ = selection_histogram(0.3, experienced=True)
print("effect of 30 encounters at cell 20 (alpha = 0.3):")
print(f"  cold start : cell 20 share {counts_cold[20] / counts_cold.sum():.4f}")
print(f"  experienced: cell 20 share {counts_warm[20] / counts_warm.sum():.4f}")
