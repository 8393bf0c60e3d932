import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

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


def test_run_interrupted_leaves_no_outputs(config_path, tmp_path, monkeypatch):
    # locations.csv is written before the event loop starts, so Ctrl-C there
    # must still remove it
    def interrupted(state, until):
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
    # long enough to be killed mid-way: after locations.csv is written, before the end
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
        while not list(out.rglob("locations.csv")):
            assert proc.poll() is None, "run ended before it could be killed"
            assert time.monotonic() < deadline, "locations.csv was never written"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert not list(out.glob("*.csv")) and not (out / "metrics.json").exists()


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
