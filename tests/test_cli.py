import concurrent.futures
import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from swimsim import cli
from swimsim.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

RUN_OUTPUTS = (
    "locations.csv",
    "waypoints.csv",
    "contacts.csv",
    "metrics.json",
    "ccdf_inter_contact_times.csv",
    "ccdf_contact_durations.csv",
    "ccdf_contacts_per_pair.csv",
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.conf"
    path.write_text(
        "neighbourLocationLimit = 300\n"
        "speed = 1.4\n"
        "maxAreaX = 400\n"
        "maxAreaY = 400\n"
        "waitTime = uniform(2,5)\n"
        "alpha = 0.3\n"
        "noOfLocations = 21\n"
        "nodeCount = 5\n"
        "simDuration = 2000\n"
        "seed = 11\n"
    )
    return path


def test_validate_reports_grid(config_path, capsys):
    assert main(["validate", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "rows=3 cols=7" in out
    assert "neighbouring=13 visiting=7" in out


def test_validate_other_home(config_path, capsys):
    assert main(["validate", "--config", str(config_path), "--home", "1"]) == 0
    assert "neighbouring=16 visiting=4" in capsys.readouterr().out


def test_validate_bad_home(config_path, capsys):
    assert main(["validate", "--config", str(config_path), "--home", "21"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_writes_all_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    for name in RUN_OUTPUTS:
        assert (out / name).exists(), name


def test_run_ccdf_files_match_metrics_json(tmp_path):
    config = tmp_path / "reference.conf"
    config.write_text(
        "neighbourLocationLimit = 300\nspeed = 1.4\nmaxAreaX = 400\nmaxAreaY = 400\n"
        "waitTime = uniform(2,5)\nalpha = 0.3\nnoOfLocations = 21\nnodeCount = 10\n"
        "simDuration = 50000\nseed = 1\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    kinds = ("inter_contact_times", "contact_durations", "contacts_per_pair")
    assert sorted(p.name for p in out.glob("ccdf_*.csv")) == sorted(f"ccdf_{k}.csv" for k in kinds)
    for kind in kinds:
        rows = (out / f"ccdf_{kind}.csv").read_text().splitlines()
        assert rows[0] == "value,fraction"
        assert metrics[kind]["ccdf"]  # the reference run has samples of every kind
        assert rows[1:] == [f"{v:.6f},{f:.6f}" for v, f in metrics[kind]["ccdf"]], kind


def test_run_outputs_deterministic(config_path, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "--config", str(config_path), "--out", str(first)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(second)]) == 0
    for name in RUN_OUTPUTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_run_seed_override_changes_traces(config_path, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "--config", str(config_path), "--out", str(first)]) == 0
    assert main(
        ["run", "--config", str(config_path), "--seed", "99", "--out", str(second)]
    ) == 0
    assert (first / "waypoints.csv").read_bytes() != (second / "waypoints.csv").read_bytes()


def test_run_bad_config_leaves_no_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("alpha = 2.0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_run_missing_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "nope.conf"), "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err


def test_sweep_orders_alphas(config_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", str(config_path), "--alpha", "0.3,0.8", "--out", str(out)]
    ) == 0
    lines = (out / "sweep_selection.csv").read_text().splitlines()
    assert lines[0].startswith("alpha,selections,neighbouring,visiting,fallbacks")
    low = dict(zip(lines[0].split(","), lines[1].split(",")))
    high = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(low["alpha"]) == 0.3
    assert float(high["alpha"]) == 0.8
    assert float(high["neighbouring_fraction"]) > float(low["neighbouring_fraction"])
    assert "alpha" in capsys.readouterr().out


def test_sweep_bad_alpha_list(config_path, tmp_path, capsys):
    assert main(
        ["sweep", "--config", str(config_path), "--alpha", "0.3,oops",
         "--out", str(tmp_path / "s")]
    ) == 1
    assert "alpha" in capsys.readouterr().err


def test_sweep_checks_every_alpha_before_running(config_path, tmp_path, monkeypatch, capsys):
    def must_not_run(params, trace):
        raise AssertionError(f"alpha {params.alpha} simulated before every alpha was checked")

    monkeypatch.setattr(cli, "simulate", must_not_run)
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", str(config_path), "--alpha", "0.3,1.5", "--out", str(out)]
    ) == 1
    assert "alpha" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_sweep_output_independent_of_worker_count(config_path, tmp_path, monkeypatch, capsys):
    # alpha = 0 is the longest run, so later jobs finish before the first
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli.os, "cpu_count", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(
            ["sweep", "--config", str(config_path), "--alpha", "0,0.2,0.4,0.6,0.8,1",
             "--out", str(out)]
        ) == 0
        results.append(((out / "sweep_selection.csv").read_bytes(), capsys.readouterr().out))
    assert pools == [2]
    assert results[0] == results[1]
    assert len(results[0][0].splitlines()) == 7


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched simulate reaches pool workers only when they are forked",
)
def test_sweep_worker_failure_leaves_no_outputs(config_path, tmp_path, monkeypatch, capsys):
    simulate = cli.simulate

    def fails_at_half(params, trace):
        if params.alpha == 0.5:
            raise ValueError("simulation failed at alpha 0.5")
        return simulate(params, trace)

    monkeypatch.setattr(cli, "simulate", fails_at_half)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", str(config_path), "--alpha", "0,0.5,1", "--out", str(out)]
    ) == 1
    assert "simulation failed at alpha 0.5" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_run_interrupted_leaves_no_outputs(config_path, tmp_path, monkeypatch):
    # waypoints.csv is staged with its header before the event loop starts, so Ctrl-C there
    # must still remove it
    def interrupted(state, until, trace):
        raise KeyboardInterrupt

    monkeypatch.setattr("swimsim.engine.run", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(config_path), "--out", str(out)])
    assert out.is_dir() and not any(out.iterdir())


def test_sweep_interrupted_leaves_no_outputs(config_path, tmp_path, monkeypatch):
    def interrupted(rows, path):
        path.write_text("alpha,")
        raise KeyboardInterrupt

    monkeypatch.setattr("swimsim.cli.write_sweep_csv", interrupted)
    out = tmp_path / "sweep"
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--config", str(config_path), "--alpha", "0.3", "--out", str(out)])
    assert out.is_dir() and not any(out.iterdir())


def test_run_out_defaults_to_output_dir(config_path, tmp_path, capsys):
    out = tmp_path / "from-config"
    config_path.write_text(config_path.read_text() + f"outputDir = {out}\n")
    assert main(["run", "--config", str(config_path)]) == 0
    for name in RUN_OUTPUTS:
        assert (out / name).exists(), name
    # the summary line reads the selection fraction metrics.json holds
    fraction = json.loads((out / "metrics.json").read_text())["selection"]["neighbouring_fraction"]
    assert f"neighbouring fraction {fraction:.6f}" in capsys.readouterr().out
    # --out still wins over outputDir
    other = tmp_path / "other"
    assert main(["run", "--config", str(config_path), "--out", str(other)]) == 0
    assert (other / "metrics.json").exists()


def test_sweep_out_defaults_to_output_dir(config_path, tmp_path):
    out = tmp_path / "from-config"
    config_path.write_text(config_path.read_text() + f"outputDir = {out}\n")
    assert main(["sweep", "--config", str(config_path), "--alpha", "0.3"]) == 0
    assert (out / "sweep_selection.csv").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--alpha", "0.3"]])
def test_no_output_directory_names_both(config_path, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--config", str(config_path), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert "--out" in err and "outputDir" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.conf"]


def test_run_killed_leaves_no_outputs(config_path, tmp_path):
    # long enough to be killed mid-way: after the run has streamed part of its
    # trace into the staged waypoints.csv, before the end
    config_path.write_text(
        config_path.read_text().replace("nodeCount = 5", "nodeCount = 200")
        .replace("simDuration = 2000", "simDuration = 1000000")
    )
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "swimsim.cli", "run", "--config", str(config_path),
         "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30.0
        header = len("time,node,x,y,event\n")
        while not any(p.stat().st_size > header for p in out.glob(".swimsim-*/waypoints.csv")):
            assert proc.poll() is None, "run ended before it could be killed"
            assert time.monotonic() < deadline, "no waypoint row was ever staged"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert not list(out.glob("*.csv")) and not (out / "metrics.json").exists()


@pytest.mark.parametrize("limit, failing", [(40_000, "waypoints.csv"), (100_000, "contacts.csv")])
def test_refused_write_names_its_file(tmp_path, limit, failing):
    # 100 nodes in 16 cells over T = 3000 stream 88 kB of waypoints during the
    # run, then write 123 kB of contacts; the file size limit is the child's
    config = tmp_path / "crowded.conf"
    config.write_text(
        "neighbourLocationLimit = 300\nspeed = 1.4\nmaxAreaX = 400\nmaxAreaY = 400\n"
        "waitTime = powerlaw(1.5,10,3600)\nalpha = 0.3\nnoOfLocations = 16\n"
        "nodeCount = 100\nsimDuration = 3000\nseed = 1\n"
    )
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "swimsim.cli", "run", "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and str(out / failing) in proc.stderr, proc.stderr
    assert list(out.iterdir()) == []


def test_run_with_huge_k_warns_nothing(tmp_path):
    # k * d overflows on the reference scenario; the decay is then 0
    config = tmp_path / "reference.conf"
    config.write_text(
        "neighbourLocationLimit = 300\nspeed = 1.4\nmaxAreaX = 400\nmaxAreaY = 400\n"
        "waitTime = uniform(2,5)\nalpha = 0.3\nnoOfLocations = 21\nnodeCount = 10\n"
        "simDuration = 50000\nseed = 1\nk = 1e308\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert [str(w.message) for w in caught] == []
