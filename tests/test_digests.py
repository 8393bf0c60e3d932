"""Output digests of the reference scenario, pinned across versions.

Every byte of a `swimsim run` output set follows from the config and the
seed. These SHA-256 digests pin the seven files of the reference scenario
(10 nodes, 21 cells, T = 50 000, seed 1) at two alphas, so a change that
alters any output fails here even when every statistical test still
passes. A change that alters the draw on purpose updates the digests and
says why. Both alphas were last re-pinned when the selection kernel began
to draw the static and the seen part of w(C) as a two-component mixture,
which changes every draw of a node that has met someone.

The crowded case packs 60 nodes into 4 cells with heavy-tailed pauses, so
most pairs meet many times. It guards what the reference pins barely
reach: the pooled order of the inter-contact times (the mean's last bits
depend on it), the CCDF fractions and the bulk contact writer.
"""

import hashlib

import pytest

from swimsim.cli import main

REFERENCE_CONFIG = """\
neighbourLocationLimit = 300
speed = 1.4
initialX = uniform
initialY = uniform
maxAreaX = 400
maxAreaY = 400
waitTime = uniform(2,5)
alpha = {alpha}
noOfLocations = 21
nodeCount = 10
simDuration = 50000
seed = 1
"""

LOCATIONS = "ceacd21a8bb9598d66f38494d3bff8f8b359145d377e9db1cd4a590cfb9ecf76"

DIGESTS = {
    "0.3": {
        "locations.csv": LOCATIONS,
        "waypoints.csv": "b23f20758d63054051c7e9d8068cdf1e13386500ff5c5df13379d0a00195607c",
        "contacts.csv": "5e8be45a927210fb7933a9f6d9ad78622a9f3c9f035caf38ca83e16b50f893a5",
        "metrics.json": "6137466a699d804ba0a49415f48ebe01a902658ad6f932c4299fa1d6e040c7d2",
        "ccdf_inter_contact_times.csv": "38dda2725cd029443c3d4537026deff448d859a6aa947279c2cc2d1601964da1",
        "ccdf_contact_durations.csv": "60df0bf4b020e30503f280fb2a537f0eef0577811b90da3c51e4acc2860530e4",
        "ccdf_contacts_per_pair.csv": "ac75cce72e0a5c0f7bb07434d5b0e63a015d44af0382d7dc536713348e8319b2",
    },
    "0.8": {
        "locations.csv": LOCATIONS,
        "waypoints.csv": "84404d628a674c10f72ec14e318485a6585eb2bb1d6ed0ae8744cfc7facfc09a",
        "contacts.csv": "0a178704a0625e181219e9633c30420aefd3a74269dba92c30401f5122161a50",
        "metrics.json": "29c1f7a1c83c117bf3d9f54660b5b7047056c28a5dc2c58e431c0508debff0d8",
        "ccdf_inter_contact_times.csv": "80b3e49442e8168ceaa1ed0e796f5687471ddf867860985040356f4b4bcad4c5",
        "ccdf_contact_durations.csv": "1fe36f446127f44acdda792c08a8c3a0449e649a814fd532fab3cbbac2142406",
        "ccdf_contacts_per_pair.csv": "1c1da39a569f2268a70ec9538f7cced8b074f64b6e11dc2396008107a88e8631",
    },
}


@pytest.mark.parametrize("alpha", sorted(DIGESTS))
def test_reference_run_digests(tmp_path, alpha):
    config = tmp_path / "reference.conf"
    config.write_text(REFERENCE_CONFIG.format(alpha=alpha))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
    }
    assert digests == DIGESTS[alpha]


CROWDED_CONFIG = """\
neighbourLocationLimit = 300
speed = 1.4
initialX = uniform
initialY = uniform
maxAreaX = 800
maxAreaY = 800
waitTime = powerlaw(1.5,10,3600)
alpha = 0.3
noOfLocations = 4
nodeCount = 60
simDuration = 3000
seed = 1
"""

CROWDED_DIGESTS = {
    "locations.csv": "b68db4a572f56af8230baba8fb93048d1a0dab6b206e5ad0591979669622332b",
    "waypoints.csv": "bcc542dd025026f1f2f25098b6caa363faa5e93927acf19c76f649433e3abd42",
    "contacts.csv": "503c3ae704772b805bcbe4d1a08b56837ef774eb7ae59c8c98e5ea1bef646e33",
    "metrics.json": "8f258ae8f8512c66e1c9eff5fa5b1833fbb6402dd9f8b428a9aadbeff954ed08",
    "ccdf_inter_contact_times.csv": "1670a0a6f224ab8205f01a639ea3aea9c0d95f7eb856793852c4df535991e49a",
    "ccdf_contact_durations.csv": "d871bfb64a49c46cb255bd10abdf64272335f770947d9be7b87dccb3b9cb7d46",
    "ccdf_contacts_per_pair.csv": "8885097556db6543998b3f8d6eec0a48be9e3a4c4907c81d953f98e3130b0a25",
}


def test_crowded_run_digests(tmp_path):
    config = tmp_path / "crowded.conf"
    config.write_text(CROWDED_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
    }
    assert digests == CROWDED_DIGESTS
