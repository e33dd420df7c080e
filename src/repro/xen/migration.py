"""Live migration orchestration (paper Sect. 3.4).

Stop-and-copy model with a pre-copy phase: the guest keeps running for
``migration_duration - migration_downtime``, then

1. pre-migrate callbacks run (XenLoop removes its advertisement, saves
   pending packets, and tears all channels down),
2. the vif suspends (senders block; nothing is lost) and the domain is
   detached from the source machine (XenStore subtree removed, netback
   destroyed, grant/event-channel state dropped),
3. after ``migration_downtime`` the destination adopts the domain: new
   domid, fresh XenStore entries, new netfront/netback wiring,
4. the vif resumes (saved ring packets are re-submitted), a gratuitous
   ARP re-teaches switches and bridges the MAC's new location, and
   post-migrate callbacks run (XenLoop re-advertises; the destination's
   discovery module will announce it within one period).

The guest's *computation* is not frozen during downtime (the simulated
workloads are network-bound and block on the suspended vif); this is
the one divergence from stop-and-copy, documented in DESIGN.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.xen.domain import RUNNING, SUSPENDED

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.domain import Domain
    from repro.xen.machine import XenMachine

__all__ = ["live_migrate", "save_restore"]


def save_restore(guest: "Domain", pause: float):
    """Save the guest to disk and restore it ``pause`` seconds later on
    the same machine (generator).

    The paper notes XenLoop "responds similarly to save-restore and
    shutdown operations on a guest" (Sect. 3.4): the same pre-migrate
    callbacks run (advert removed, channels torn down, pending packets
    saved), the vif suspends, and on restore the guest gets a fresh
    domid and re-advertises.  Returns the new domid.
    """
    return (yield from _move(guest, guest.machine, pause))


def live_migrate(guest: "Domain", dst_machine: "XenMachine"):
    """Migrate ``guest`` to ``dst_machine`` (generator).

    Run it as a process: ``sim.process(live_migrate(vm, machine_b))``.
    Returns the new domid.
    """
    if guest.machine is dst_machine:
        raise ValueError(f"{guest.name} is already on {dst_machine.name}")
    costs = guest.costs

    # Pre-copy phase: guest runs normally while memory is copied over.
    precopy = max(0.0, costs.migration_duration - costs.migration_downtime)
    yield guest.sim.timeout(precopy)
    return (yield from _move(guest, dst_machine, costs.migration_downtime))


def _move(guest: "Domain", dst_machine: "XenMachine", downtime: float):
    """Stop-and-copy core shared by migration and save/restore
    (generator): detach from the current machine, wait ``downtime``,
    resume on ``dst_machine`` (which may be the same machine).
    Returns the new domid."""
    src_machine = guest.machine

    # The hypervisor's migration callback into the guest.
    for cb in list(guest.pre_migrate_callbacks):
        yield from cb()

    # Stop-and-copy: freeze the network, detach from the source.
    if guest.netfront is not None:
        guest.netfront.suspend()
    guest.state = SUSPENDED
    src_machine.remove_domain(guest)

    yield guest.sim.timeout(downtime)

    # Resume on the destination.
    new_domid = dst_machine.adopt_domain(guest)
    guest.state = RUNNING
    if guest.netfront is not None:
        guest.netfront.resume()
    if guest.stack is not None:
        guest.stack.arp.announce()
        src_switch_nic = src_machine.nic
        if (
            src_machine is not dst_machine
            and src_switch_nic is not None
            and src_switch_nic.switch is not None
        ):
            # The gratuitous ARP also refreshes the physical switch, but
            # dropping the stale entry immediately avoids a blackhole
            # window for frames already in flight.
            src_switch_nic.switch.forget(guest.mac)
        src_machine.bridge.forget(guest.mac)

    for cb in list(guest.post_migrate_callbacks):
        yield from cb()
    return new_domid
