"""Pinned state of every registered scenario, cold and after warmup.

Each scenario in :func:`repro.scenarios.scenario_names` is built with
seed 0 and ``DEFAULT_COSTS``; its ``(sim.event_count, state digest)``
pair is pinned right after the build and again after ``warmup()``.  The
digest covers the whole captured tree -- the engine's ``now``, ``_seq``
and pending calendar, every stack, ring, channel, grant table and
XenStore -- so a refactor that moves one event, one sequence number or
one counter anywhere in a scenario fails here.  This is the
bit-identity check for changes that must not alter what the simulation
computes.

A ``SNAPSHOT_FORMAT`` bump changes the shape of the captured tree, so
it re-pins these literals on purpose; any other change to them needs a
reason in CHANGES.md.
"""

import pytest

from repro.calibration import DEFAULT_COSTS
from repro.scenarios import build, scenario_names
from repro.sim.snapshot import capture_state, state_digest

#: name -> ((event_count, digest) after build, (event_count, digest) after warmup())
PINNED = {
    'xenloop_incast': ((0, 'd1b7fcb192c208074a28d71925249dc218f541e3f8256300512d4de6a67d8ddb'), (878, 'd3d7cc3ab438c7dae3a3f3404faa975b5b83f36b3db9cca634bb95aaf4e1490e')),
    'xenloop_fairness': ((0, 'c8a61c63983c6fa89b1caf93abe8b55444092644c4d436bba3ebee724cd286ab'), (958, '400ddabd744c6e24702eb93902c1878063cfeaa0e40fef6565b621180c684283')),
    'fault_matrix': ((0, '778775b9b59782e9f2b12b581e969f3a7d3c5d818f1078ac0ea4e356c53b4dd3'), (168, 'db88f68780d308320151b0ae63a3ca84e6ef41e991e6152320983e69a2db6be6')),
    'xenloop_serving': ((0, 'f47738f3a87ab9208eba23d4722cfa38ced96c23f6491bc7e841b9adec3152cb'), (734, '172d8cfc5c46413e02440f505446e5150c26d5d5b14d54cb23b3d2566b9b0cd0')),
    'inter_machine': ((0, '4b83c67dc56c78d5796c99d1845aa160c78891068a1b9045935a38b8c9bbb14c'), (89, '8e07bb7d2b149000ff4c94c41e7958839d5d6f0e38237f1cb1f58422289db24e')),
    'native_loopback': ((0, 'aa88b1e92741223fe0ba2c7e2cadda0e233df1380c2ccf26cff7cec4ccdb211c'), (34, 'a65f28b0ef7537a572960b251347932563337b02576ad77bcfba4408451e7dc8')),
    'netfront_netback': ((0, 'b9398f75203a0bd604bd06e0af5f3b381be7c8c8e0ef8c6c5705efff10dad9fb'), (155, 'dc92df19dbacc6522c5a6dfac8fb3bd88c13c1a00d5737eda5d165132498e88f')),
    'xenloop': ((0, '033bfbba7dd0dcb05944426cdd7843db6e7caa688431e6790233902a6d592616'), (670, '11119f9311aec5af006e421975d785d4f152e3c87262f36426cceb7a696f54ed')),
    'xenloop_mesh': ((0, 'b3ee15e52ba5add596eba256942253bf41bc8e7f165ce90afff3fb0677fcddac'), (189, '0ebf36fa467c1b25a90450ee1afa3e8d755027d1b9284b637d73787495de21d0')),
    'migration_pair': ((0, 'cea5bd27c5140bcf6a7976de0668bf731435c943aae22dd1cc1c78e80281876b'), (225, '7c368c9d312a43cceb64e669251a2140f44ecd40b53729a93909ebc072e9cdc7')),
}


def test_every_scenario_is_pinned():
    assert sorted(PINNED) == sorted(scenario_names())


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_state_is_pinned(name):
    cluster = build(name, costs=DEFAULT_COSTS, seed=0)
    cold = (cluster.sim.event_count, state_digest(capture_state(cluster)))
    cluster.warmup()
    warm = (cluster.sim.event_count, state_digest(capture_state(cluster)))
    assert (cold, warm) == PINNED[name]
