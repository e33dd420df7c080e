"""The performance ledger: exact counts of the benchmark's own workloads.

``perfbench/run.py`` (declared in ``BENCHMARK.json``) measures wall cost
per op, which swings with the host; the counts one of its reps produces
for a fixed seed do not.  This test runs one seed-0 rep of each workload
and pins those counts exactly, so any change to the event stream -- one
event, notify or FIFO byte more per op -- fails here.  Wall time stays
a reported figure (``perfbench/run.py`` prints it with its spread) and
is never gated.

The cache-named ``wire.*`` keys are not pinned: they are due to be
renamed to what they now count (header packs, L3 serializations and
parses).  ``perfbench/run.py`` is loaded by path and never modified.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

RUN_PY = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "run.py"

#: rep.counts at seed 0, per workload.
PINNED = {
    "stream_fifo": {
        "ops": 1_967,
        "events": 36_852,
        "notify.fifo_notifies": 1_161,
        "notify.fifo_suppressed": 807,
        "notify.drain_batches": 1_407,
        "notify.drain_entries": 1_968,
        "wire.fifo_bytes_in": 8_111_940,
        "wire.fifo_bytes_out": 8_111_940,
        "notify.ring_notifies": 0,
        "succeeded": 1_353,
    },
    "serving_fifo": {
        "ops": 2_000,
        "events": 193_870,
        "notify.fifo_notifies": 7_702,
        "notify.fifo_suppressed": 322,
        "notify.drain_batches": 5_545,
        "notify.drain_entries": 8_023,
        "wire.fifo_bytes_in": 1_600_960,
        "wire.fifo_bytes_out": 1_600_920,
        "notify.ring_notifies": 0,
        "tcp.retransmissions": 0,
    },
    "serving_netfront": {
        "ops": 2_000,
        "events": 331_242,
        "notify.ring_notifies": 21_851,
        "notify.ring_suppressed": 2_216,
        "wire.fifo_bytes_in": 0,
        "tcp.retransmissions": 0,
    },
}


@pytest.fixture(scope="module")
def perfbench():
    """``perfbench/run.py`` as a module.  It must sit in ``sys.modules``
    before it executes, because its dataclasses look their module up
    there; the ``sys.path`` entries it inserts are taken out again."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seed0_counts_are_pinned(perfbench, name):
    rep = perfbench.run_rep(perfbench.WORKLOADS[name], seed=0)
    assert {key: rep.counts[key] for key in PINNED[name]} == PINNED[name]
