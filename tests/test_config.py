from dataclasses import replace

import numpy as np
import pytest

from swimsim.cli import main
from swimsim.config import (
    ConfigError,
    dumps_config,
    load_config,
    loads_config,
    save_config,
)
from swimsim.mobility import PowerLawWait, UniformWait

REFERENCE_CONFIG = """\
neighbourLocationLimit = 300
speed = 1.4
initialX = uniform
initialY = uniform
maxAreaX = 400
maxAreaY = 400
waitTime = uniform(2,5)
alpha = 0.3
noOfLocations = 21
"""


def test_reference_scenario_parses():
    config = loads_config(REFERENCE_CONFIG)
    assert config.neighbour_limit == 300.0
    assert config.speed == 1.4
    assert config.max_area_x == config.max_area_y == 400.0
    assert config.wait == UniformWait(2.0, 5.0)
    assert config.alpha == 0.3
    assert config.n_locations == 21
    # defaults fill the run controls
    assert config.node_count == 10
    assert config.sim_duration == 50000.0
    assert config.seed == 1
    assert config.seen_update == "symmetric"
    assert config.k is None


def test_params_from_config():
    params = loads_config(REFERENCE_CONFIG).to_params()
    assert params.area.width == 400.0
    assert params.wait == UniformWait(2.0, 5.0)
    assert params.alpha == 0.3


def test_comments_and_blank_lines_ignored():
    text = "# scenario\n\n" + REFERENCE_CONFIG + "\n# trailing comment\n"
    assert loads_config(text) == loads_config(REFERENCE_CONFIG)


def test_alpha_out_of_range_names_key():
    text = REFERENCE_CONFIG.replace("alpha = 0.3", "alpha = 1.5")
    with pytest.raises(ConfigError, match="alpha"):
        loads_config(text)


def test_wait_min_above_max_rejected():
    text = REFERENCE_CONFIG.replace("uniform(2,5)", "uniform(5,2)")
    with pytest.raises(ConfigError, match="waitTime"):
        loads_config(text)


def test_wait_formats():
    text = REFERENCE_CONFIG.replace("uniform(2,5)", "powerlaw(2.0, 1, 100)")
    assert loads_config(text).wait == PowerLawWait(2.0, 1.0, 100.0)
    text = REFERENCE_CONFIG.replace("uniform(2,5)", "exponential(3)")
    with pytest.raises(ConfigError, match="waitTime"):
        loads_config(text)


def test_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="bogusKey"):
        loads_config(REFERENCE_CONFIG + "bogusKey = 3\n")
    with pytest.raises(ConfigError, match="duplicate key 'alpha'"):
        loads_config(REFERENCE_CONFIG + "alpha = 0.4\n")


def test_missing_required_keys():
    text = "\n".join(
        line for line in REFERENCE_CONFIG.splitlines() if not line.startswith("speed")
    )
    with pytest.raises(ConfigError, match="speed"):
        loads_config(text)


def test_flat_z_keys_must_be_zero():
    assert loads_config(REFERENCE_CONFIG + "initialZ = 0\nmaxAreaZ = 0\n")
    with pytest.raises(ConfigError, match="maxAreaZ"):
        loads_config(REFERENCE_CONFIG + "maxAreaZ = 10\n")
    with pytest.raises(ConfigError, match="initialZ"):
        loads_config(REFERENCE_CONFIG + "initialZ = 2\n")


def test_initial_mode_only_uniform():
    with pytest.raises(ConfigError, match="initialX"):
        loads_config(REFERENCE_CONFIG.replace("initialX = uniform", "initialX = gaussian"))


def test_bad_numbers_name_key():
    with pytest.raises(ConfigError, match="noOfLocations"):
        loads_config(REFERENCE_CONFIG.replace("noOfLocations = 21", "noOfLocations = many"))
    with pytest.raises(ConfigError, match="speed"):
        loads_config(REFERENCE_CONFIG.replace("speed = 1.4", "speed = fast"))


def test_missing_file():
    with pytest.raises(ConfigError, match="no-such-config"):
        load_config("/nonexistent/no-such-config.conf")


def test_roundtrip_through_file(tmp_path):
    config = loads_config(
        REFERENCE_CONFIG + "nodeCount = 25\nseed = 42\nk = 0.004\nseen_update = bystanders_only\n"
    )
    path = tmp_path / "scenario.conf"
    save_config(config, path)
    assert load_config(path) == config
    # serialization is stable
    assert dumps_config(load_config(path)) == dumps_config(config)


def test_roundtrip_powerlaw_wait(tmp_path):
    config = loads_config(REFERENCE_CONFIG.replace("uniform(2,5)", "powerlaw(1.5,2,500)"))
    path = tmp_path / "scenario.conf"
    save_config(config, path)
    assert load_config(path) == config


@pytest.mark.parametrize(
    "key, line, value",
    [
        ("speed", "speed = 1.4", "speed = nan"),
        ("simDuration", None, "simDuration = inf"),
        ("maxAreaX", "maxAreaX = 400", "maxAreaX = inf"),
        ("neighbourLocationLimit", "neighbourLocationLimit = 300", "neighbourLocationLimit = nan"),
        ("k", None, "k = nan"),
        ("waitTime", "waitTime = uniform(2,5)", "waitTime = uniform(2,inf)"),
    ],
)
def test_non_finite_values_rejected(tmp_path, key, line, value):
    text = REFERENCE_CONFIG + value + "\n" if line is None else REFERENCE_CONFIG.replace(line, value)
    path = tmp_path / "scenario.conf"
    path.write_text(text)
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_dump_of_every_optional_key_is_pinned():
    config = loads_config(
        REFERENCE_CONFIG.replace("maxAreaY = 400", "maxAreaY = 250.5").replace(
            "uniform(2,5)", "powerlaw(1.5, 10, 3600)"
        )
        + "initialZ = 0\nmaxAreaZ = 0\nnodeCount = 25\nsimDuration = 1e3\nseed = 42\n"
        + "k = 0.004\nseen_update = bystanders_only\noutputDir = runs/alpha 0.3\n"
    )
    assert dumps_config(config) == (
        "neighbourLocationLimit = 300.0\n"
        "speed = 1.4\n"
        "initialX = uniform\n"
        "initialY = uniform\n"
        "maxAreaX = 400.0\n"
        "maxAreaY = 250.5\n"
        "waitTime = powerlaw(1.5,10.0,3600.0)\n"
        "alpha = 0.3\n"
        "noOfLocations = 21\n"
        "nodeCount = 25\n"
        "simDuration = 1000.0\n"
        "seed = 42\n"
        "seen_update = bystanders_only\n"
        "k = 0.004\n"
        "outputDir = runs/alpha 0.3\n"
    )


# each value parses but cannot run; the error names the key
@pytest.mark.parametrize(
    "key, edits",
    [
        # low**g and high**g underflow to 0 (g = 1 - beta); drawing divided by zero
        ("waitTime", {"uniform(2,5)": "powerlaw(2000,2,5)"}),
        # low**g overflows
        ("waitTime", {"uniform(2,5)": "powerlaw(2,1e-320,1)"}),
        # g = -2.2e-16: low**g and high**g are a few ulps apart, draws left the range
        (
            "waitTime",
            {"uniform(2,5)": "powerlaw(1.0000000000000002,4.2982291855655116e-16,3.101326425233898e-15)"},
        ),
        ("maxAreaX", {"maxAreaX = 400": "maxAreaX = -1"}),
        ("maxAreaY", {"maxAreaY = 400": "maxAreaY = 0"}),
        # build_grid multiplies each side by up to noOfLocations
        ("maxAreaY", {"maxAreaY = 400": "maxAreaY = 6e307"}),
        ("maxAreaX", {"noOfLocations = 21": "noOfLocations = 1" + "0" * 400}),
        # the default k = 2 / diagonal overflows for a subnormal area
        ("k", {"maxAreaX = 400": "maxAreaX = 5e-324", "maxAreaY = 400": "maxAreaY = 5e-324"}),
        # locations.csv would print every cell 0 m wide
        ("maxAreaX", {"maxAreaX = 400": "maxAreaX = 1e-6", "maxAreaY = 400": "maxAreaY = 1e-6",
                      "noOfLocations = 21": "noOfLocations = 100"}),
    ],
)
def test_unrunnable_values_name_key(key, edits):
    text = REFERENCE_CONFIG
    for old, new in edits.items():
        text = text.replace(old, new)
    with pytest.raises(ConfigError, match=key):
        loads_config(text)


def test_wait_too_short_to_advance_the_clock_names_both_keys():
    # at 1e8 s a double's spacing is about 1.5e-8 s, so 1e-9 s pauses cannot
    # carry the clock to the horizon: the message names the wait and the horizon
    text = REFERENCE_CONFIG.replace("uniform(2,5)", "uniform(1e-9,1e-9)")
    with pytest.raises(ConfigError, match="waitTime.*simDuration"):
        loads_config(text + "simDuration = 1e8\n")
    # a min the horizon can still add is accepted
    loads_config(text + "simDuration = 1e6\n")


def test_node_count_past_one_uint32_word_names_key(tmp_path, monkeypatch, capsys):
    # a node id is one uint32 word of its stream's seed, so ids stop at
    # 2**32 - 1; the check comes before any generator is built
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "PCG64", no_generator)
    params = loads_config(REFERENCE_CONFIG).to_params()
    with pytest.raises(ValueError, match="nodeCount"):
        replace(params, node_count=2**32 + 1)
    assert replace(params, node_count=2**32).node_count == 2**32
    text = REFERENCE_CONFIG + "nodeCount = 4294967297\n"
    with pytest.raises(ConfigError, match="nodeCount"):
        loads_config(text)
    assert loads_config(REFERENCE_CONFIG + "nodeCount = 4294967296\n").node_count == 2**32
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    assert "nodeCount" in capsys.readouterr().err
