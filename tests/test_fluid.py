"""Unit tests for the fluid transfer engine."""

import pytest

from repro.network.fluid import FluidNetwork
from repro.network.topology import MBPS


class TestSingleTransfer:
    def test_transfer_time_matches_bottleneck(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        # 10 MB over a 100 Mb/s access path = 10e6 / 12.5e6 = 0.8 s
        duration = network.transfer_time("left-0", "left-1", 10e6)
        assert duration == pytest.approx(10e6 / (100 * MBPS), rel=1e-6)

    def test_transfer_across_bottleneck_is_slower(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        duration = network.transfer_time("left-0", "right-0", 10e6)
        assert duration == pytest.approx(10e6 / (10 * MBPS), rel=1e-6)

    def test_rate_cap_limits_single_flow(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        transfer = network.start_transfer("left-0", "left-1", 10e6, rate_cap=1e6)
        network.run_until_complete()
        assert transfer.finish_time == pytest.approx(10.0, rel=1e-6)

    def test_completion_callback_fires(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        finished = []
        network.start_transfer(
            "left-0", "left-1", 1e6, on_complete=lambda t: finished.append(t.transfer_id)
        )
        network.run_until_complete()
        assert len(finished) == 1

    def test_invalid_transfers_rejected(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        with pytest.raises(ValueError):
            network.start_transfer("left-0", "left-1", 0.0)
        with pytest.raises(ValueError):
            network.start_transfer("sw-left", "left-1", 1e6)

    def test_transfer_time_requires_idle_network(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        network.start_transfer("left-0", "left-1", 1e6)
        with pytest.raises(RuntimeError):
            network.transfer_time("left-1", "left-2", 1e6)


class TestSharing:
    def test_two_flows_share_bottleneck(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        t1 = network.start_transfer("left-0", "right-0", 5e6)
        t2 = network.start_transfer("left-1", "right-1", 5e6)
        network.run_until_complete()
        # Both share the 10 Mb/s bottleneck -> each gets half -> 8 s.
        expected = 5e6 / (5 * MBPS)
        assert t1.finish_time == pytest.approx(expected, rel=1e-6)
        assert t2.finish_time == pytest.approx(expected, rel=1e-6)

    def test_intra_cluster_flow_unaffected_by_bottleneck_traffic(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        cross = network.start_transfer("left-0", "right-0", 5e6)
        local = network.start_transfer("left-1", "left-2", 5e6)
        network.run_until_complete()
        assert local.finish_time == pytest.approx(5e6 / (100 * MBPS), rel=1e-6)
        assert cross.finish_time == pytest.approx(5e6 / (10 * MBPS), rel=1e-6)

    def test_completion_frees_bandwidth(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        short = network.start_transfer("left-0", "right-0", 1e6)
        long = network.start_transfer("left-1", "right-1", 2e6)
        network.run_until_complete()
        # Phase 1: both at 5 Mb/s until short finishes at t=1.6 (1e6/0.625e6).
        assert short.finish_time == pytest.approx(1e6 / (5 * MBPS), rel=1e-6)
        # Long has 2e6 - 1e6 = 1e6 left, then runs at full 10 Mb/s.
        expected_long = short.finish_time + 1e6 / (10 * MBPS)
        assert long.finish_time == pytest.approx(expected_long, rel=1e-6)

    def test_cancel_removes_flow_and_frees_capacity(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        doomed = network.start_transfer("left-0", "right-0", 100e6)
        survivor = network.start_transfer("left-1", "right-1", 1e6)
        network.advance(0.1)
        network.cancel_transfer(doomed)
        network.run_until_complete()
        assert doomed.transfer_id not in [t.transfer_id for t in network.completed]
        assert survivor.done


class TestAdvance:
    def test_advance_accumulates_bytes_at_allocated_rate(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        transfer = network.start_transfer("left-0", "left-1", 100e6)
        network.advance(0.5)
        assert transfer.transferred == pytest.approx(0.5 * 100 * MBPS, rel=1e-6)
        assert not transfer.done

    def test_advance_handles_mid_step_completion(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        small = network.start_transfer("left-0", "left-1", 1e6)
        finished = network.advance(10.0)
        assert [t.transfer_id for t in finished] == [small.transfer_id]
        assert small.finish_time == pytest.approx(1e6 / (100 * MBPS), rel=1e-6)
        assert network.now == pytest.approx(10.0)

    def test_advance_with_negative_dt_raises(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        with pytest.raises(ValueError):
            network.advance(-1.0)

    def test_advance_without_transfers_moves_clock(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        network.advance(2.0)
        assert network.now == pytest.approx(2.0)

    def test_rates_reported_for_active_transfers(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        t1 = network.start_transfer("left-0", "right-0", 50e6)
        t2 = network.start_transfer("left-1", "right-1", 50e6)
        rates = network.rates()
        assert rates[t1.transfer_id] == pytest.approx(5 * MBPS, rel=1e-6)
        assert rates[t2.transfer_id] == pytest.approx(5 * MBPS, rel=1e-6)


class TestBatchedTransitions:
    """``start_transfers``/``cancel_transfers`` are one transition each and
    leave the network exactly as the same changes made one call at a time."""

    def test_batches_match_single_calls(self, dumbbell_topology):
        first = [
            ("left-0", "right-0", 50e6, None),
            ("left-1", "right-1", 20e6, 2 * MBPS),
            ("left-2", "left-0", 30e6, None),
            ("right-2", "left-1", 40e6, None),
        ]
        second = [("right-0", "left-2", 10e6, None), ("left-1", "left-2", 5e6, None)]
        batched = FluidNetwork(dumbbell_topology)
        single = FluidNetwork(dumbbell_topology)
        started = batched.start_transfers(first)
        alone = [single.start_transfer(*request) for request in first]
        batched.advance(0.5)
        single.advance(0.5)

        # Cancel-then-open in batches against interleaved single calls: the
        # new transfers land on different slots, but nothing observable moves.
        moved = batched.cancel_transfers([started[0], started[2]])
        started += batched.start_transfers(second)
        single.cancel_transfer(alone[0])
        alone.append(single.start_transfer(*second[0]))
        single.cancel_transfer(alone[2])
        alone.append(single.start_transfer(*second[1]))
        assert moved.tolist() == [alone[0].transferred, alone[2].transferred]
        assert batched.transitions == single.transitions

        def observed(network):
            return (
                list(network._active),
                [t.transfer_id for t in network._by_slot.values()],
                network.rates(),
            )

        for step in (0.3, 0.4, 2.0):
            batched.advance(step)
            single.advance(step)
            assert observed(batched) == observed(single)
            assert [t.transferred for t in started] == [t.transferred for t in alone]
        batched.run_until_complete()
        single.run_until_complete()
        assert [(t.transfer_id, t.finish_time) for t in batched.completed] == [
            (t.transfer_id, t.finish_time) for t in single.completed
        ]

    def test_cancel_leaves_finished_transfers_alone(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        small, big = network.start_transfers(
            [("left-0", "left-1", 1e6, None), ("left-2", "right-0", 50e6, None)]
        )
        network.advance(1.0)
        assert small.done and not big.done
        before = network.transitions
        moved = network.cancel_transfers([small, big])
        assert moved.tolist() == [1e6, big.transferred]
        assert network.transitions == before + 1
        assert network.active_count == 0

    def test_invalid_request_starts_nothing(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        with pytest.raises(ValueError):
            network.start_transfers(
                [("left-0", "left-1", 1e6, None), ("left-0", "sw-left", 1e6, None)]
            )
        assert network.active_count == 0 and network.transitions == 0
