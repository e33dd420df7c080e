"""The full fault-injection matrix as a tier-1 integration test.

Every cell of the {frame type x handshake phase x fault kind} sweep must
converge: surviving channels CONNECTED or cleanly gone, zero leaked
grants / event-channel ports / staging buffers / ARP waiters /
reassembly buffers, and traffic delivered (via the channel or the
netfront fallback) wherever the cell expects it.  The same sweep gates
CI via ``make fault-matrix``.

Converging is not enough to pin the protocol: :data:`GOLDEN_PATHS` also
pins, per cell, how many faults fired and which recovery and degraded
paths the handshake took (``python -m repro faults``, seed 0).  A change
that converges by a different route moves these counts.
"""

import pytest

from repro.scenarios.fault_matrix import matrix_cells, run_cell, run_fault_matrix

#: cell -> (injected, recovered, degraded), as ``run_cell`` reports them.
GOLDEN_PATHS = {
    "drop:ConnectRequest": (
        {"control_drop": 1}, {"connect_retry": 1, "connreq_resend": 1}, {}
    ),
    "delay:ConnectRequest": ({"control_delay": 1}, {}, {}),
    "dup:ConnectRequest": ({"control_dup": 1}, {}, {}),
    "drop:CreateChannel": ({"control_drop": 1}, {"bootstrap_retry": 1}, {}),
    "delay:CreateChannel": ({"control_delay": 1}, {}, {}),
    "dup:CreateChannel": ({"control_dup": 1}, {}, {}),
    "drop:ChannelAck": (
        {"control_drop": 1}, {"ack_resend": 1, "bootstrap_retry": 1}, {}
    ),
    "delay:ChannelAck": (
        {"control_delay": 1}, {"ack_resend": 1, "bootstrap_retry": 1}, {}
    ),
    "dup:ChannelAck": ({"control_dup": 1}, {}, {}),
    "drop:Announce": ({"control_drop": 1}, {}, {}),
    "delay:Announce": ({"control_delay": 1}, {}, {}),
    "dup:Announce": ({"control_dup": 1}, {}, {}),
    "drop_all:CreateChannel": ({"control_drop": 78}, {}, {"bootstrap_abort": 26}),
    "notify_drop": ({"notify_drop": 3}, {}, {}),
    "map_fail": ({"map_fail": 1}, {"bootstrap_retry": 1}, {"map_failed": 1}),
    "crash:bootstrapping": ({"crash": 1}, {}, {"bootstrap_abort": 4, "map_failed": 1}),
    "crash:connected": ({"crash": 1}, {}, {}),
    "crash_restart:connected": ({"crash": 1}, {"guest_restart": 1}, {}),
    "crash_restart_same_mac:connected": ({"crash": 1}, {"guest_restart": 1}, {}),
    "migrate:connected": ({"migrate": 1}, {}, {}),
}


@pytest.mark.parametrize("cell", matrix_cells(), ids=lambda c: c.name)
def test_cell_converges(cell):
    result = run_cell(cell)
    assert result["ok"], result["detail"]
    # Never a vacuous pass: every cell actually injected its fault.
    assert sum(result["injected"].values()) > 0, "fault never fired"
    got = (result["injected"], result["recovered"], result["degraded"])
    assert got == GOLDEN_PATHS[cell.name]


def test_full_sweep_all_ok():
    results = run_fault_matrix()
    assert len(results) == len(matrix_cells())
    bad = [r["cell"] for r in results if not r["ok"]]
    assert not bad, f"failed cells: {bad}"


def test_faults_off_run_has_no_injections():
    """A plan-free build of the same pair is what the goldens pin; the
    matrix result dicts make the faults-on/faults-off distinction
    explicit -- a cell with zero rules injects nothing."""
    from repro.scenarios.fault_matrix import MatrixCell

    result = run_cell(MatrixCell("baseline", ()))
    assert result["ok"], result["detail"]
    assert result["injected"] == {}
    assert result["received"] == result["sent"]
