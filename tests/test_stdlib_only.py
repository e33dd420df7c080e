"""The simulator runs on the standard library alone.

NumPy is a test dependency (the oracle for :mod:`repro.sim.rng`), never
a runtime one: importing it roughly doubles a simulation process's
resident memory.  A fresh interpreter builds, warms and drives both data
paths, draws from the seeded generator, and must end without any
``numpy`` module loaded.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
from repro import scenarios
from repro.workloads import netperf, pingpong

xl = scenarios.build("xenloop", seed=0)
xl.warmup()
stream = netperf.udp_stream(xl, duration=0.002, msg_size=4096)
assert stream.bytes_received > 0, stream

nf = scenarios.build("netfront_netback", seed=0)
nf.warmup()
ping = pingpong.flood_ping(nf, count=5)
assert ping.lost == 0, ping

for scn in (xl, nf):
    scn.sim.rng.random(), scn.sim.rng.exponential(1.0), scn.sim.rng.pareto(1.5)
print("numpy" in sys.modules)
"""


def test_simulation_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
