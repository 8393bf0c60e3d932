"""Output digests of the reference scenario, pinned across versions.

Every byte of a `swimsim run` output set follows from the config and the
seed. These SHA-256 digests pin the seven files of the reference scenario
(10 nodes, 21 cells, T = 50 000, seed 1) at two alphas, so a change that
alters any output fails here even when every statistical test still
passes. A change that alters the draw on purpose updates the digests and
says why.
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
        "waypoints.csv": "301f49a4f1bb99149698c356e907bd0654fe48d2f87ca56fe54de4f696914143",
        "contacts.csv": "d5806248e666c9c33a53690b372376699268fdef692b1ba296a4bea33ba937aa",
        "metrics.json": "56aaff2372c6bc19185075ab1979acf1b3549e28625d2a2f788b479e8f8444f9",
        "ccdf_inter_contact_times.csv": "0c4a625ba0e23dd68cff3e470d676e9a4c0ddc7babe795c93d3eb0d75427164d",
        "ccdf_contact_durations.csv": "3a9a5215acb76510fb5214f2c772397c6f1748bba4a19e8627656c8e206b622d",
        "ccdf_contacts_per_pair.csv": "32a7d18e0fc17efb683933441a7c84279fe3b1d6b84e39b693e3cfc0d10763de",
    },
    "0.8": {
        "locations.csv": LOCATIONS,
        "waypoints.csv": "ed3fc5fd0742a85f88e95f068db8135a953dd07d1385b08b1057ad8a0bcf1a7d",
        "contacts.csv": "0e34dbde779c17d9ede481942a4375908cb5aafcaade6613c0f92809f6d06fcd",
        "metrics.json": "ce8da920495bf91070f282189c33cb21fe8f1afd0b47fe2ced9189f53c0847f8",
        "ccdf_inter_contact_times.csv": "2edb56b725dae38cd56b43c6dbdbbb88845fe2cd46ca7640408920c1731ce0a5",
        "ccdf_contact_durations.csv": "239c53316dfedb7a15a14e042059c89341cb8ed2f48cd265e84005129cb9dff4",
        "ccdf_contacts_per_pair.csv": "a98d4192f8305f3f20cd881ab3c207829f30acc2f34bffdeffb42fb49793cd67",
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
