"""Outputs must not change: each benchmark workload's probe digest, computed
in a fresh interpreter, equals the committed `perfbench/digests.json`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_probe_digest_unchanged(workload):
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), "digest", "--workload", workload],
        cwd=PERFBENCH.parent, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True, timeout=300)
    assert json.loads(run.stdout)["digest"] == EXPECTED[workload]
