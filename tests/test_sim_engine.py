"""Unit tests for the discrete-event engine and Procedure-1 semantics."""

import pytest

from repro.hw import fab_cluster, hydra_cluster
from repro.sim import (
    ProgramBuilder,
    RecvTask,
    SimulationError,
    Simulator,
)


def _cluster(n):
    return hydra_cluster(1, n)


class TestComputeOnly:
    def test_single_node_sequential(self):
        b = ProgramBuilder(1)
        b.compute(0, 1.0, tag="a")
        b.compute(0, 2.0, tag="b")
        res = Simulator(_cluster(1)).run(b.build())
        assert res.makespan == pytest.approx(3.0)
        assert res.tag_compute == {"a": 1.0, "b": 2.0}

    def test_parallel_nodes(self):
        b = ProgramBuilder(4)
        for n in range(4):
            b.compute(n, 1.0 + n)
        res = Simulator(_cluster(4)).run(b.build())
        assert res.makespan == pytest.approx(4.0)
        assert res.total_compute_busy == pytest.approx(1 + 2 + 3 + 4)

    def test_empty_programs(self):
        b = ProgramBuilder(2)
        res = Simulator(_cluster(2)).run(b.build())
        assert res.makespan == 0.0

    def test_zero_duration_tasks(self):
        b = ProgramBuilder(1)
        for _ in range(5):
            b.compute(0, 0.0)
        res = Simulator(_cluster(1)).run(b.build())
        assert res.makespan == 0.0
        assert res.nodes[0].tasks_executed == 5


class TestDependencies:
    def test_send_after_compute(self):
        """A transfer only starts once its producing task finished."""
        b = ProgramBuilder(2)
        idx = b.compute(0, 5.0)
        b.transfer(0, 1, 1e6, after=idx)
        b.compute(1, 1.0, needs_recv=True)
        res = Simulator(_cluster(2)).run(b.build())
        transfer_time = 1e6 / 12.5e9
        assert res.makespan == pytest.approx(6.0 + transfer_time, rel=0.01)

    def test_compute_after_receive_blocks(self):
        """CT_d waits; CT_i does not (paper Fig. 5 example)."""
        b = ProgramBuilder(2)
        idx = b.compute(0, 3.0)
        b.transfer(0, 1, 1000, after=idx)
        b.compute(1, 1.0)                    # CT_i, runs immediately
        b.compute(1, 1.0, needs_recv=True)   # CT_d, waits for the data
        res = Simulator(_cluster(2)).run(b.build())
        assert res.makespan == pytest.approx(4.0, abs=0.01)

    def test_recv_fifo_consumption(self):
        """Two CT_d tasks consume two receive completions in order."""
        b = ProgramBuilder(2)
        i1 = b.compute(0, 1.0)
        b.transfer(0, 1, 1000, after=i1)
        i2 = b.compute(0, 1.0)
        b.transfer(0, 1, 1000, after=i2)
        b.compute(1, 0.5, needs_recv=True)
        b.compute(1, 0.5, needs_recv=True)
        res = Simulator(_cluster(2)).run(b.build())
        assert res.makespan == pytest.approx(2.5, abs=0.01)

    def test_ping_pong(self):
        b = ProgramBuilder(2)
        i0 = b.compute(0, 1.0)
        b.transfer(0, 1, 1000, after=i0)
        i1 = b.compute(1, 1.0, needs_recv=True)
        b.transfer(1, 0, 1000, after=i1)
        b.compute(0, 1.0, needs_recv=True)
        res = Simulator(_cluster(2)).run(b.build())
        assert res.makespan == pytest.approx(3.0, abs=0.01)


class TestOverlap:
    def test_communication_hidden_behind_compute(self):
        """Per paper Section III-A: when chunk compute time exceeds
        transfer time, only the final broadcast is exposed."""
        n, rounds, dur, size = 4, 4, 10e-3, 1e6
        b = ProgramBuilder(n)
        idx = {}
        for node in range(n):
            idx[node] = [b.compute(node, dur) for _ in range(rounds)]
        for r in range(rounds):
            for node in range(n):
                b.broadcast(node, size, after=idx[node][r])
        res = Simulator(_cluster(n)).run(b.build())
        transfer = size / 12.5e9
        assert res.makespan < rounds * dur + n * transfer * 2 + 1e-3
        assert res.comm_overhead_fraction < 0.05

    def test_broadcast_counts_bytes_per_receiver(self):
        b = ProgramBuilder(3)
        i = b.compute(0, 0.1)
        b.broadcast(0, 1000, after=i)
        res = Simulator(_cluster(3)).run(b.build())
        assert res.bytes_transferred == pytest.approx(2000)
        assert res.transfers == 2

    def test_multicast_subset(self):
        b = ProgramBuilder(4)
        i = b.compute(0, 0.1)
        b.multicast(0, [1, 2], 1000, after=i)
        b.compute(1, 0.0, needs_recv=True)
        b.compute(2, 0.0, needs_recv=True)
        res = Simulator(_cluster(4)).run(b.build())
        assert res.transfers == 2


class TestFabrics:
    def test_fab_host_path_slower_than_switch(self):
        def program(n):
            b = ProgramBuilder(n)
            i = b.compute(0, 0.001)
            b.transfer(0, 3, 25e6, after=i)  # unpaired cards 0 -> 3
            b.compute(3, 0.0, needs_recv=True)
            return b.build()

        hydra = Simulator(_cluster(4)).run(program(4)).makespan
        fab = Simulator(fab_cluster(4)).run(program(4)).makespan
        assert fab > 5 * hydra

    def test_fab_paired_cards_are_fast(self):
        b = ProgramBuilder(4)
        i = b.compute(0, 0.001)
        b.transfer(0, 1, 25e6, after=i)  # cards 0,1 are a FAB pair
        b.compute(1, 0.0, needs_recv=True)
        res = Simulator(fab_cluster(4)).run(b.build())
        assert res.makespan < 0.01

    def test_single_card_transfer_is_error(self):
        b = ProgramBuilder(1)
        b.compute(0, 1.0)
        b.programs[0].comm.append(RecvTask(src=0, size=10))
        with pytest.raises((RuntimeError, SimulationError)):
            Simulator(hydra_cluster(1, 1)).run(b.build())

    def test_inter_server_latency_applies(self):
        two_servers = hydra_cluster(2, 2)
        b = ProgramBuilder(4)
        i = b.compute(0, 0.0)
        b.transfer(0, 3, 1000, after=i)  # card 3 is on server 1
        b.compute(3, 0.0, needs_recv=True)
        res = Simulator(two_servers).run(b.build())
        assert res.makespan >= two_servers.network.inter_server_latency


class TestErrors:
    def test_deadlock_detected(self):
        b = ProgramBuilder(2)
        b.programs[1].comm.append(RecvTask(src=0, size=100))
        with pytest.raises(SimulationError, match="deadlock"):
            Simulator(_cluster(2)).run(b.build())

    def test_program_count_mismatch(self):
        b = ProgramBuilder(2)
        with pytest.raises(SimulationError):
            Simulator(_cluster(4)).run(b.build())

    def test_bad_send_dependency_index(self):
        from repro.sim.program import SendTask
        b = ProgramBuilder(2)
        b.programs[0].comm.append(
            SendTask(dst=1, size=10, after_compute=5)
        )
        b.programs[1].comm.append(RecvTask(src=0, size=10))
        with pytest.raises(SimulationError):
            Simulator(_cluster(2)).run(b.build())


class TestProgramBuilder:
    def test_self_transfer_rejected(self):
        b = ProgramBuilder(2)
        with pytest.raises(ValueError):
            b.transfer(0, 0, 100)

    def test_broadcast_needs_two_nodes(self):
        b = ProgramBuilder(1)
        with pytest.raises(ValueError):
            b.broadcast(0, 100)

    def test_multicast_excludes_source(self):
        b = ProgramBuilder(3)
        with pytest.raises(ValueError):
            b.multicast(0, [0, 1], 100)

    def test_negative_duration_rejected(self):
        b = ProgramBuilder(1)
        with pytest.raises(ValueError):
            b.compute(0, -1.0)

    def test_node_range_checked(self):
        b = ProgramBuilder(2)
        with pytest.raises(ValueError):
            b.compute(2, 1.0)


class TestHotPathGuards:
    """Pin behaviour the engine's precomputed fast paths must keep."""

    def test_hand_built_broadcast_counts_every_receiver(self):
        from repro.sim.program import BROADCAST, ComputeTask, SendTask

        b = ProgramBuilder(4)
        b.programs[0].compute.append(ComputeTask(duration=0.1))
        b.programs[0].comm.append(
            SendTask(dst=BROADCAST, size=500, after_compute=0))
        for node in (1, 2, 3):
            b.programs[node].comm.append(RecvTask(src=0, size=500))
        res = Simulator(_cluster(4)).run(b.build())
        assert res.transfers == 3
        assert res.bytes_transferred == pytest.approx(1500)

    def test_hand_built_multicast_counts_every_receiver(self):
        from repro.sim.program import SendTask

        b = ProgramBuilder(5)
        b.programs[2].comm.append(SendTask(dst=(0, 4), size=250))
        for node in (0, 4):
            b.programs[node].comm.append(RecvTask(src=2, size=250))
        res = Simulator(_cluster(5)).run(b.build())
        assert res.transfers == 2
        assert res.bytes_transferred == pytest.approx(500)

    def test_broadcast_destinations_are_per_source(self):
        """Each source reaches every other card, whichever sends first."""
        b = ProgramBuilder(3)
        for src in (2, 0):
            b.broadcast(src, 100)
        res = Simulator(_cluster(3)).run(b.build())
        assert res.transfers == 4

    @pytest.mark.parametrize("src,dst,inter", [
        (6, 7, False), (7, 8, True), (8, 7, True), (8, 15, False),
        (0, 15, True),
    ])
    def test_switch_latency_across_the_server_boundary(self, src, dst,
                                                       inter):
        """Cards 0-7 sit on server 0 and 8-15 on server 1."""
        cluster = hydra_cluster(2, 8)
        net = cluster.network
        b = ProgramBuilder(16)
        b.transfer(src, dst, 1000)
        b.compute(dst, 0.0, needs_recv=True)
        res = Simulator(cluster).run(b.build())
        release = 1000 / cluster.card.dtu_bandwidth
        want = net.inter_server_latency if inter else net.intra_server_latency
        assert res.makespan == pytest.approx(release + want, rel=1e-12)

    def test_broadcast_latency_follows_each_receivers_server(self):
        from repro.sim.fabrics import HydraSwitchFabric

        cluster = hydra_cluster(2, 8)
        net = cluster.network
        fabric = HydraSwitchFabric(cluster)
        release, deliveries = fabric.broadcast(
            7, [d for d in range(16) if d != 7], 1000, 0.0)
        for dst, t in deliveries.items():
            want = (net.intra_server_latency if dst < 8
                    else net.inter_server_latency)
            assert t == pytest.approx(release + want, rel=1e-12), dst
