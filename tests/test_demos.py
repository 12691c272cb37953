"""The demo scripts run to completion against the current API.

04_quality_transport.py is left out: it simulates three days of quality
transport and takes about 10 s, several times the other four together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("script, args", [
    ("01_network_and_hydraulics.py", []),
    ("02_scenario_with_events.py", ["--out-dir", "{tmp}"]),
    ("03_leak_detection.py", []),
    ("05_control_environment.py", []),
])
def test_demo_exits_0(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(DEMOS / script), *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
