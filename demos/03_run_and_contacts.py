"""A full run and its contact statistics
=======================================

Runs ten nodes for a simulated day on a 400 m x 400 m area, then pulls
the movement trace, the pairwise contact log, and the pooled
distributions out of the report. All output files land in demo-output/.
"""

from pathlib import Path

from swimsim import (
    AreaBounds,
    ModelParams,
    UniformWait,
    contact_durations,
    inter_contact_times,
    metrics_report,
    outputs,
    selection_stats,
    simulate,
)

out = Path("demo-output")
out.mkdir(exist_ok=True)

params = ModelParams(
    alpha=0.4,
    speed=1.4,
    neighbour_limit=300.0,
    n_locations=21,
    area=AreaBounds(400.0, 400.0),
    wait=UniformWait(10.0, 120.0),  # minutes-long pauses give a denser contact log
    node_count=10,
    sim_duration=86400.0,
    seed=2024,
)

report = simulate(params)
print(f"processed {report.events_processed} events over {params.sim_duration:.0f} s")
print(f"waypoints: {len(report.waypoints)}, contacts: {len(report.contact_log)}")

stats = selection_stats(report.selection_counts)
print(
    f"destination types: {stats.near} neighbouring / {stats.visiting} visiting "
    f"({stats.near_fraction:.3f} near, {stats.fallbacks} fallbacks)"
)

ict = inter_contact_times(report.contact_log)
dur = contact_durations(report.contact_log)
print(f"inter-contact times: n={ict.samples} mean={ict.mean:.1f} s max={ict.max:.0f} s")
print(f"contact durations:   n={dur.samples} mean={dur.mean:.1f} s max={dur.max:.0f} s")

outputs.write_locations_file(report.location_map, out / "locations.csv")
outputs.write_waypoints(report.waypoints, out / "waypoints.csv")
outputs.write_contacts_csv(report.contact_log, out / "contacts.csv")
outputs.write_ccdf_csv(ict.ccdf, out / "ccdf_inter_contact_times.csv")
outputs.write_ccdf_csv(dur.ccdf, out / "ccdf_contact_durations.csv")
metrics = metrics_report(report.contact_log, report.selection_counts)
outputs.write_metrics_json(metrics, out / "metrics.json")
print(f"wrote traces and metrics under {out}/")

# the CCDF is the heavy-tail view: fraction of gaps at least this long
print("\ninter-contact time CCDF (every 10th threshold):")
for value, fraction in ict.ccdf[::10]:
    bar = "#" * int(fraction * 40)
    print(f"  >= {value:9.1f} s  {fraction:6.3f}  {bar}")
