"""How alpha skews destination choice
====================================

Matched-seed runs across alpha values. Larger alpha means more
neighbouring destinations and fewer remote ones; smaller alpha flips the
preference. Every run shares one seed, so the initial placement and each
node's random stream are identical across rows and only alpha differs.
"""

import dataclasses

from swimsim import AreaBounds, ModelParams, UniformWait, selection_stats, simulate

base = ModelParams(
    alpha=0.5,
    speed=1.4,
    neighbour_limit=300.0,
    n_locations=21,
    area=AreaBounds(400.0, 400.0),
    wait=UniformWait(2.0, 5.0),
    node_count=10,
    sim_duration=20000.0,
    seed=7,
)

print(f"{'alpha':>6} {'selections':>11} {'neighbouring':>13} {'visiting':>9} {'fallbacks':>10}")
rows = []
for alpha in (0.1, 0.3, 0.5, 0.8, 0.95):
    # as in `swimsim sweep`: no trace, and so no selection log, only its per-node counts
    report = simulate(dataclasses.replace(base, alpha=alpha), trace=False)
    stats = selection_stats(report.selection_counts)
    rows.append((alpha, stats))
    print(
        f"{alpha:>6.2f} {stats.total:>11} {stats.near_fraction:>13.3f} "
        f"{stats.visiting_fraction:>9.3f} {stats.fallbacks:>10}"
    )

fractions = [stats.near_fraction for _, stats in rows]
assert fractions == sorted(fractions), "neighbouring share should rise with alpha"
print("\nneighbouring share rises monotonically with alpha on this seed")
print("(fallbacks happen when a node's home is so central that no cell is remote)")
