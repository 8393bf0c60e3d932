"""The output bytes do not depend on the SIMD level numpy picks for the CPU.

numpy picks, per loop, the kernel of the best SIMD level the host has, and
one not correctly rounded can give another last bit at another level.
NPY_DISABLE_CPU_FEATURES turns levels off for one process, as on an older
CPU, and the digest scenarios must give the same bytes with any turned off.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from test_digests import CROWDED_CONFIG, MANY_HOMES_CONFIG, REFERENCE_CONFIG, run_digests

import swimsim

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

CONFIGS = (REFERENCE_CONFIG.format(alpha=0.3), REFERENCE_CONFIG.format(alpha=0.8),
           CROWDED_CONFIG, CROWDED_CONFIG + "seen_update = bystanders_only\n", MANY_HOMES_CONFIG)


def scenario_digests():
    """The SHA-256 of each output file of each digest scenario, run in this process."""
    digests = []
    for text in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            digests.append(run_digests(Path(tmp), text))
    return digests


def test_output_bytes_do_not_follow_the_simd_level():
    # one rerun per dispatched level the host has, with it and every one above it off
    levels = [level for level in __cpu_dispatch__ if __cpu_features__.get(level)]
    if not levels:
        pytest.skip("numpy dispatches to no SIMD level above its baseline on this host")
    path = [str(Path(__file__).parent), str(Path(swimsim.__file__).parents[1])]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = "import json, test_cpu_targets as t; print(json.dumps(t.scenario_digests()))"
    reruns = {
        " ".join(levels[i:]): subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env={**env, "NPY_DISABLE_CPU_FEATURES": " ".join(levels[i:])},
        )
        for i in range(len(levels))
    }
    expected = scenario_digests()
    outs = {disabled: rerun.communicate(timeout=300)[0] for disabled, rerun in reruns.items()}
    for disabled, rerun in reruns.items():
        assert rerun.returncode == 0, disabled
        assert json.loads(outs[disabled].splitlines()[-1]) == expected, f"NPY_DISABLE_CPU_FEATURES={disabled!r}"
