"""Outputs must not change: each benchmark workload's probe digest, and the
md5 of the round's reference CLI reports, computed in a fresh interpreter,
equal the committed values."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
EXPECTED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_probe_digest_unchanged(workload):
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), "digest", "--workload", workload],
        cwd=PERFBENCH.parent, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True, timeout=300)
    assert json.loads(run.stdout)["digest"] == EXPECTED[workload]


CLI_REPORTS = (
    (("suite", "--trials=1000", "--format=json"), "eae84c451c7a7040ac62b3cacefef857"),
    (("corpus", "--format=json"), "401c449262adb5576f258875825e39a4"),
    (("suite", "--trials=300", "--operator=falappa", "--format=json"),
     "37a9ab12ae4f8d94c75bf5a6faff8daa"),
)


def test_cli_reports_unchanged():
    # the three interpreters run side by side, each under the same hash seed
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    runs = [(args, md5, subprocess.Popen([sys.executable, "-m", "revisekit", *args], cwd=ROOT,
                                         env=env, stdout=subprocess.PIPE))
            for args, md5 in CLI_REPORTS]
    try:
        for args, md5, proc in runs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, args
            assert hashlib.md5(out).hexdigest() == md5, args
    finally:
        for *_, proc in runs:
            proc.kill()
            proc.wait()
            proc.stdout.close()
