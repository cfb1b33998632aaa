"""The dynamic-routing experiments (mob03, mob04, rt01, rt02) and their contracts.

The headline acceptance criterion lives here: ``mob04`` must demonstrate
*measured route reconvergence* — delivery resumes via the backup path after
the orbiting relay leaves — where the static-routing baseline shows a
``mob02``-style outage lasting until the orbit returns.  Static-routing
construction itself is guarded: a node built with the default
``routing=None`` carries no control plane and schedules nothing.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    mob02_tcp_handoff,
    mob03_mesh_routing,
    mob04_relay_failover,
    rt01_control_overhead,
    rt02_overhead_scaling,
)

#: Small-but-meaningful parameter sets (larger than the determinism TINY_*
#: sets, smaller than FAST_PARAMS where possible).
MOB04_PARAMS = {"orbit_periods": (20.0,), "duration": 42.0, "warmup": 2.0,
                "cbr_interval": 0.08, "seed": 1}


class TestMob04Failover:
    @pytest.fixture(scope="class")
    def result(self):
        return mob04_relay_failover.run(**MOB04_PARAMS)

    def test_dsdv_delivery_resumes_via_backup_path(self, result):
        dsdv = result.get_series("dsdv delivery").y_values[0]
        static = result.get_series("static delivery").y_values[0]
        # DSDV keeps the flow alive across relay departures; static routing
        # delivers only while the orbiting relay is near the axis.
        assert dsdv > 0.8
        assert static < 0.5
        assert result.metrics["dsdv_minus_static_delivery"] > 0.3

    def test_reconvergence_is_measured_and_bounded(self, result):
        reconvergence = result.get_series("dsdv reconvergence s").y_values[0]
        assert reconvergence > 0.0, "a route break must have been repaired"
        # Bounded by HELLO hold time + advertisement propagation, far below
        # the half-period the static baseline waits for the relay's return.
        assert reconvergence < 5.0

    def test_application_outage_matches_the_routing_story(self, result):
        dsdv_outage = result.get_series("dsdv outage s").y_values[0]
        static_outage = result.get_series("static outage s").y_values[0]
        assert dsdv_outage < static_outage
        # The static outage spans a comparable stretch to the out-of-range
        # arc of the orbit; the DSDV outage is the repair latency plus
        # detection, well under half a period.
        assert static_outage > 8.0
        assert dsdv_outage < 10.0


class TestMob03Mesh:
    def test_fast_params_deliver_over_repaired_routes(self):
        result = mob03_mesh_routing.run(**mob03_mesh_routing.FAST_PARAMS, seed=1)
        for label in ("UA", "BA"):
            delivery = result.get_series(f"{label} delivery").y_values
            assert all(0.0 <= value <= 1.0 for value in delivery)
            assert delivery[0] > 0.5
            control = result.get_series(f"{label} ctrl frac").y_values
            assert all(0.0 < value < 1.0 for value in control)

    def test_grid_must_be_at_least_two_by_two(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            mob03_mesh_routing.run(grid_side=1)

    def test_warmup_must_precede_the_horizon(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            mob03_mesh_routing.run(warmup=5.0, duration=4.0)


class TestRt01Overhead:
    @pytest.fixture(scope="class")
    def result(self):
        return rt01_control_overhead.run(
            hello_intervals_s=(0.25, 1.0), duration=8.0, warmup=2.0,
            include_no_aggregation=True, seed=1)

    def test_longer_intervals_mean_less_overhead(self, result):
        for label in ("NA", "BA"):
            fractions = result.get_series(f"{label} ctrl frac")
            assert fractions.value_at(0.25) > fractions.value_at(1.0)
            rate = result.get_series(f"{label} ctrl/s")
            assert rate.value_at(0.25) > rate.value_at(1.0)

    def test_goodput_survives_the_control_plane(self, result):
        for label in ("NA", "BA"):
            goodput = result.get_series(f"{label} udp Mbps")
            assert min(goodput.y_values) > 0.0


class TestMob02ReprobeSatellite:
    def test_flag_off_reproduces_the_published_numbers(self):
        params = dict(orbit_periods=(8.0,), file_bytes=20_000, max_sim_time=20.0,
                      include_no_aggregation=False,
                      include_stationary_baseline=False, seed=1)
        default = mob02_tcp_handoff.run(**params)
        explicit = mob02_tcp_handoff.run(**params, tcp_idle_reprobe=False)
        assert default.to_dict() == explicit.to_dict()

    def test_reprobe_rescues_a_phase_locked_transfer(self):
        params = dict(orbit_periods=(40.0,), file_bytes=60_000,
                      max_sim_time=120.0, include_no_aggregation=False,
                      include_stationary_baseline=False, seed=1)
        stalled = mob02_tcp_handoff.run(**params)
        probed = mob02_tcp_handoff.run(**params, tcp_idle_reprobe=True)
        fraction = "UA received fraction"
        assert stalled.get_series(fraction).y_values[0] < 1.0
        assert probed.get_series(fraction).y_values[0] == pytest.approx(1.0)
        assert (probed.get_series("UA").y_values[0]
                > stalled.get_series("UA").y_values[0])


class TestRoutingConservation:
    def test_mesh_routing_run_conserves_every_followed_packet(self):
        # mob03 drives AODV under mobility — route breaks, rebuffering and
        # RREQ retries are exactly where custody hand-offs could go missing.
        from repro.obs import observe

        with observe(journey=True) as session:
            mob03_mesh_routing.run(speeds_mps=(2.0,), grid_side=2,
                                   warmup=1.0, duration=4.0, seed=3)
        assert session.journey_count() > 0
        report = session.conservation_report()
        assert report["balanced"], report


class TestStaticRoutingUnchanged:
    def test_default_node_carries_no_control_plane(self):
        from repro.net.routing import RoutingTable
        from repro.sim.simulator import Simulator
        from repro.channel.medium import WirelessChannel
        from repro.core.policies import broadcast_aggregation
        from repro.node.node import Node

        sim = Simulator(seed=1)
        node = Node(sim, WirelessChannel(sim), index=1,
                    policy=broadcast_aggregation())
        assert type(node.routing_table) is RoutingTable
        assert node.router is None
        assert sim.pending_events == 0
        assert node.mac_stats.routing_subframes_sent == 0


class TestRt02FlowOrder:
    def test_every_flow_count_takes_a_prefix_of_one_order(self):
        sample = rt02_overhead_scaling._sample_flows
        full = sample(range(1, 10), 72, 5, 3)
        assert len(set(full)) == 72
        for count in (1, 2, 4, 6):
            assert sample(range(1, 10), count, 5, 3) == full[:count]

    def test_too_many_flows_are_refused_before_any_run(self, monkeypatch):
        from repro.errors import ExperimentError

        runs = []
        monkeypatch.setattr(rt02_overhead_scaling, "_run_once",
                            lambda *args, **kwargs: runs.append(kwargs) or (0.0, 0.0))
        with pytest.raises(ExperimentError, match="cannot place 13 distinct flows on 4 nodes"):
            rt02_overhead_scaling.run(flow_counts=(1, 13), grid_side=2)
        assert runs == []
