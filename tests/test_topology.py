"""Declarative topology layer: spec validation, build semantics, and a
full cluster (8 guests, 2 machines) running warmup + a UDP stream + churn."""

import pytest

from repro import scenarios, topology
from repro.calibration import DEFAULT_COSTS
from repro.core.channel import ChannelState
from repro.workloads import netperf

FAST = DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)


def two_machine_spec(guests_per_machine=4, **kwargs):
    return topology.ClusterSpec(
        name="test_cluster",
        machines=tuple(
            topology.MachineSpec(
                name=f"xen{i}",
                guests=tuple(
                    topology.GuestSpec(f"m{i}g{j}") for j in range(guests_per_machine)
                ),
            )
            for i in range(2)
        ),
        **kwargs,
    )


class TestSpecValidation:
    def test_duplicate_guest_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate guest names"):
            topology.ClusterSpec(
                name="dup",
                machines=(
                    topology.MachineSpec(name="a", guests=(topology.GuestSpec("vm"),)),
                    topology.MachineSpec(name="b", guests=(topology.GuestSpec("vm"),)),
                ),
            )

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="no guests"):
            topology.ClusterSpec(name="empty", machines=())

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="not a declared guest"):
            two_machine_spec(endpoints=("m0g0", "nosuch"))

    def test_bad_machine_kind_rejected(self):
        with pytest.raises(ValueError, match="machine kind"):
            topology.MachineSpec(name="x", kind="vmware", guests=(topology.GuestSpec("g"),))

    def test_bad_churn_action_rejected(self):
        with pytest.raises(ValueError, match="unknown churn action"):
            topology.ChurnAction(at=1.0, action="explode", guest="g")

    def test_migrate_requires_destination(self):
        with pytest.raises(ValueError, match="to_machine"):
            topology.ChurnAction(at=1.0, action="migrate", guest="g")


class TestBuildSemantics:
    def test_single_machine_has_no_switch(self):
        spec = topology.ClusterSpec(
            name="solo",
            machines=(
                topology.MachineSpec(
                    name="xenhost",
                    guests=(topology.GuestSpec("vm1"), topology.GuestSpec("vm2")),
                ),
            ),
        )
        cluster = spec.build(FAST)
        assert cluster.switch is None
        assert cluster.node_a.name == "vm1" and cluster.node_b.name == "vm2"

    def test_multi_machine_gets_switch_and_auto_ips(self):
        cluster = two_machine_spec().build(FAST)
        assert cluster.switch is not None
        assert str(cluster.guests["m0g0"].stack.ip) == "10.0.0.1"
        assert str(cluster.guests["m1g3"].stack.ip) == "10.0.0.8"

    def test_expect_channels_auto(self):
        # moduleless endpoints: warmup should not wait on channels.
        plain = topology.ClusterSpec(
            name="plain",
            machines=(
                topology.MachineSpec(
                    name="xenhost",
                    guests=(
                        topology.GuestSpec("vm1", module=None),
                        topology.GuestSpec("vm2", module=None),
                    ),
                ),
            ),
        ).build(FAST)
        assert plain.expect_channels
        # co-resident module pair: wait (even with extra guests around,
        # since Cluster._channels_connected only watches the endpoints).
        assert scenarios.xenloop(FAST).expect_channels
        assert two_machine_spec().build(FAST).expect_channels
        # endpoints on different machines connect only after migration.
        cross = two_machine_spec(endpoints=("m0g0", "m1g0")).build(FAST)
        assert not cross.expect_channels

    def test_view_reaims_endpoints(self):
        cluster = two_machine_spec().build(FAST)
        v = cluster.view("m0g1", "m1g2")
        assert v.node_a.name == "m0g1" and v.node_b.name == "m1g2"
        assert v.sim is cluster.sim
        assert str(v.ip_b) == "10.0.0.7"

    def test_per_machine_discovery_modules(self):
        cluster = two_machine_spec().build(FAST)
        assert len(cluster.discoveries) == 2
        assert cluster.discovery is cluster.discoveries[0]

    def test_restart_mac_independent_of_other_builds(self):
        """Auto guest MACs are numbered per cluster: a restarted guest's
        fresh MAC does not depend on what else this process built."""

        def restarted_mac(build_between: bool) -> str:
            cluster = scenarios.build("xenloop")
            cluster.guests["vm2"].crash()
            if build_between:
                scenarios.xenloop_mesh(4)
            return str(cluster.restart_guest("vm2").mac)

        assert restarted_mac(False) == "00:16:3e:00:00:03"
        assert restarted_mac(True) == "00:16:3e:00:00:03"


class TestClusterEndToEnd:
    def test_eight_guests_two_machines_warmup_and_udp(self):
        """The acceptance topology: 8 XenLoop guests on 2 machines run
        discovery, connect the co-resident endpoint pair, and carry a
        UDP stream between two named guests."""
        spec = two_machine_spec(endpoints=("m0g0", "m0g1"))
        cluster = spec.build(FAST)
        assert len(cluster.guests) == 8
        cluster.warmup(max_wait=10.0)
        module = cluster.modules["m0g0"]
        assert any(
            ch.state is ChannelState.CONNECTED for ch in module.channels.values()
        )
        res = netperf.udp_stream(cluster.view("m0g0", "m0g1"), duration=0.02, msg_size=8192)
        assert res.mbps > 0

    @pytest.mark.slow
    def test_churn_schedule_migrates_and_unloads(self):
        spec = two_machine_spec(
            endpoints=("m0g0", "m0g1"),
            churn=(
                topology.ChurnAction(at=0.5, action="migrate", guest="m0g2", to_machine="xen1"),
                topology.ChurnAction(at=1.0, action="unload", guest="m0g3"),
            ),
        )
        cluster = spec.build(FAST)
        cluster.warmup(max_wait=10.0)
        # settle must cover the migrate action's full pre-copy + downtime
        cluster.run_churn(settle=FAST.migration_duration + 1.0)
        assert cluster.guests["m0g2"].machine is cluster.machines_by_name["xen1"]
        assert not cluster.modules["m0g3"].loaded


class TestRegistryCompleteness:
    def test_every_paper_builder_is_registered(self):
        """The pre-registry bug: builders existed that build() rejected.
        Every public builder in scenarios.paper must be registered."""
        import inspect

        from repro.scenarios import paper

        defined = {
            name
            for name, fn in inspect.getmembers(paper, inspect.isfunction)
            if fn.__module__ == paper.__name__ and not name.startswith("_")
        }
        assert defined <= set(scenarios.SCENARIO_BUILDERS)

    def test_mesh_and_migration_pair_buildable_by_name(self):
        for name in ("xenloop_mesh", "migration_pair"):
            assert name in scenarios.SCENARIO_BUILDERS
            scn = scenarios.build(name, FAST)
            assert scn.name == name

    def test_specs_mirror_builders(self):
        assert set(scenarios.SCENARIO_SPECS) == set(scenarios.SCENARIO_BUILDERS)
        for name, spec in scenarios.SCENARIO_SPECS.items():
            assert spec.builder is scenarios.SCENARIO_BUILDERS[name]
            assert spec.description

    def test_double_registration_rejected(self):
        from repro.scenarios.registry import scenario

        with pytest.raises(ValueError, match="registered twice"):
            @scenario(name="xenloop")
            def impostor():  # pragma: no cover
                pass
