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
depend on it), the CCDF fractions and the bulk contact writer. It is
pinned under both seen_update modes, since each mode counts encounters
on its own path: "symmetric" counts both members of a contact,
"bystanders_only" only the member that was paused first.

The many-homes case spreads 300 nodes over a 30 x 30 grid, about 250
distinct homes, so it pins the selection data built for hundreds of homes
at once, each home's own row CDFs and the nodes' starts, which the
reference (21 cells) and crowded (4 cells) cases reach for a few homes
only.
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
        "metrics.json": "a1296d926643a5619c52e8ae2def7cdfbb4f31ba111a6919dc8e837657bf1ec6",
        "ccdf_inter_contact_times.csv": "38dda2725cd029443c3d4537026deff448d859a6aa947279c2cc2d1601964da1",
        "ccdf_contact_durations.csv": "60df0bf4b020e30503f280fb2a537f0eef0577811b90da3c51e4acc2860530e4",
        "ccdf_contacts_per_pair.csv": "ac75cce72e0a5c0f7bb07434d5b0e63a015d44af0382d7dc536713348e8319b2",
    },
    "0.8": {
        "locations.csv": LOCATIONS,
        "waypoints.csv": "84404d628a674c10f72ec14e318485a6585eb2bb1d6ed0ae8744cfc7facfc09a",
        "contacts.csv": "0a178704a0625e181219e9633c30420aefd3a74269dba92c30401f5122161a50",
        "metrics.json": "11f7a38076a8cb612411d401da5b4f38ab36a196d3b3b9e59fb1eeaab21516b3",
        "ccdf_inter_contact_times.csv": "80b3e49442e8168ceaa1ed0e796f5687471ddf867860985040356f4b4bcad4c5",
        "ccdf_contact_durations.csv": "1fe36f446127f44acdda792c08a8c3a0449e649a814fd532fab3cbbac2142406",
        "ccdf_contacts_per_pair.csv": "1c1da39a569f2268a70ec9538f7cced8b074f64b6e11dc2396008107a88e8631",
    },
}


def run_digests(tmp_path, config_text):
    """SHA-256 of each file `swimsim run` writes for the config `config_text`."""
    config = tmp_path / "scenario.conf"
    config.write_text(config_text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}


@pytest.mark.parametrize("alpha", sorted(DIGESTS))
def test_reference_run_digests(tmp_path, alpha):
    assert run_digests(tmp_path, REFERENCE_CONFIG.format(alpha=alpha)) == DIGESTS[alpha]


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
    "metrics.json": "0420264df0b4df01b2a32533741c2a03358655dd0acc2463f1c572f667f0eab4",
    "ccdf_inter_contact_times.csv": "1670a0a6f224ab8205f01a639ea3aea9c0d95f7eb856793852c4df535991e49a",
    "ccdf_contact_durations.csv": "d871bfb64a49c46cb255bd10abdf64272335f770947d9be7b87dccb3b9cb7d46",
    "ccdf_contacts_per_pair.csv": "8885097556db6543998b3f8d6eec0a48be9e3a4c4907c81d953f98e3130b0a25",
}


# the crowded case with seen_update = bystanders_only, where an arriving
# node's counters stay untouched and only the bystanders count
BYSTANDERS_ONLY_DIGESTS = {
    "locations.csv": "b68db4a572f56af8230baba8fb93048d1a0dab6b206e5ad0591979669622332b",
    "waypoints.csv": "bab177515611fccb745533b3828a3cd4a34ccff83d7035512ab9131d1a54b8c2",
    "contacts.csv": "6427f933738c54bd6eab364e57e2e83fea49fbdbac54168136e5d62bc8ce0178",
    "metrics.json": "46e45b1a15b8fa52df15cade11b3a07f74dccd32ae59fec0fce2d622149e64e3",
    "ccdf_inter_contact_times.csv": "53504da5f892b5f70a613a3de573d82b4ff8c54b52a4704be6e524a940134ecc",
    "ccdf_contact_durations.csv": "6b6f0701b2cb1f135c4f828944627a63a8a74d2444297e97eb5ba2a856012314",
    "ccdf_contacts_per_pair.csv": "99c7e702393ace9b77beb024431f14604f97ec2d55b2bfe62a65c018fbd0caa4",
}


def test_crowded_run_digests(tmp_path):
    assert run_digests(tmp_path, CROWDED_CONFIG) == CROWDED_DIGESTS


def test_crowded_bystanders_only_run_digests(tmp_path):
    config = CROWDED_CONFIG + "seen_update = bystanders_only\n"
    assert run_digests(tmp_path, config) == BYSTANDERS_ONLY_DIGESTS


MANY_HOMES_CONFIG = """\
neighbourLocationLimit = 300
speed = 1.4
initialX = uniform
initialY = uniform
maxAreaX = 3000
maxAreaY = 3000
waitTime = uniform(60,600)
alpha = 0.3
noOfLocations = 900
nodeCount = 300
simDuration = 3000
seed = 1
"""

MANY_HOMES_DIGESTS = {
    "locations.csv": "07508c020422753d00414d80d204be37757b846c4a8e8546cdf3c44a9ee1c956",
    "waypoints.csv": "933ad8517379cd44656a9a3bd6d3e46ec4a0ccc9a473f028e2b1358c7867601d",
    "contacts.csv": "0cbf0c66ba55da440679a4f2f6926c152a9224d7349f46a94e2316137c4eb81c",
    "metrics.json": "dcbd8c354d75468427ed30b127a8108b5dd76fa907baff1dbc69215e99aa0e19",
    "ccdf_inter_contact_times.csv": "34e75d106b55d2a51874a7f7513e7bba69cc5e7708b58a0dd4cb50315f748c7b",
    "ccdf_contact_durations.csv": "8c06ac5f750a0bf4f3df2f0f254f8d03acc7f69040410ce1755decc161e186af",
    "ccdf_contacts_per_pair.csv": "43714e8d33dba868105afee36ae1c8e1238c929c1728e396cca1ec3f50e796c0",
}


def test_many_homes_run_digests(tmp_path):
    assert run_digests(tmp_path, MANY_HOMES_CONFIG) == MANY_HOMES_DIGESTS
