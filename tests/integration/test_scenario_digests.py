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
    'xenloop_incast': ((0, 'f805b15bd0e6f479a8d297ea96e02662370877e84407c99d8afce03bacfdebbd'), (817, 'd9fa83aee0c5fa4cce9f713e3f592f86e525fcc528c90da434ec931998093a79')),
    'xenloop_fairness': ((0, '11f3412e5f14ae6991c4e36f6a6102e14c36ea8c8100085573f6ab8040d07bda'), (884, '09a0ee0232a88b6365f4fb6bdd65866aeeb048dc39eabfb82ddd39a2a22496f5')),
    'fault_matrix': ((0, 'ed548ef1be4f39f12e8ee27316ccb4bea9e8439bec52b92f12f1b3f87e481f23'), (159, '7b0fbbe08b8d0334429e4c7e52edf7e0fd7612b2e224d246e417f174fe1f2208')),
    'xenloop_serving': ((0, 'b7f9ee545b3a135b067be81108791b03e97d14fe1a31f4b6e7dc258e72ec0609'), (693, 'e5112337ed3c1200f98cc274e9afe01a913fad3c2ef2fa25007e5f1a9ecca4e4')),
    'inter_machine': ((0, '4b83c67dc56c78d5796c99d1845aa160c78891068a1b9045935a38b8c9bbb14c'), (80, '9b60413d94c7da5113e33de476ac1599a8cbece5b2c48b9182d7ba4575ed5f52')),
    'native_loopback': ((0, 'aa88b1e92741223fe0ba2c7e2cadda0e233df1380c2ccf26cff7cec4ccdb211c'), (32, '5a75bc3b06ec7c038bac60c044124b81ba38369c690a46b528f6495c7782910d')),
    'netfront_netback': ((0, '883f621dfa77311b3c3333fc684a7bd696f4c48a0dcb4eb0806ee780bedc1be5'), (148, '77622f0e1ee61946233a89c36faef246c83f51dbcb9e7894096064d1b09c345e')),
    'xenloop': ((0, '048cfe1f6dd3327f478a55365e1cf8c7c5ab3f92b68c9d5187adf404dcc446bf'), (636, 'abba119edcba0f5b759ec1b6f04dab14e3b9afe115a865d51b1669c2f2128e06')),
    'xenloop_mesh': ((0, 'cf3dfeab4d8eff650abf899ed904ea7ba6296cccee48a79b4e8cd7ea7c768ea5'), (177, 'c9dac84e2fb3e2f4cb0708086639ed2784aee247749d1f8e12b7ec99993253a6')),
    'migration_pair': ((0, '163903314b207e51951f37173a32c0dff635ab4511f1381b670348e5e3b37567'), (208, '1fba7c0e52e6b979684433d3c10926fe1d208b2dd9e03faa33db7ba7ee492211')),
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
