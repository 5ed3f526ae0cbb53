"""Vector-engine tests: loop/vector parity, array-vs-heap network
equivalence, one network drain per engine, collective state hygiene, and the
modern-cluster target.

The ``vector`` engine is only allowed to exist because it is indistinguishable
from the ``loop`` oracle: every per-rank time within 1e-9 (bit-for-bit in
practice) on every registered machine and every topology kind.  These tests
are tier-1 — any divergence fails the build.
"""

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.distribution import ArrayDistribution, ProcessorGrid
from repro.distribution.distribute import AxisMapping, DimDistribution
from repro.frontend.errors import SimulationError
from repro.simulator import (
    ENGINES,
    STAGE_DISJOINT,
    STAGE_PAIRED,
    STAGE_SERIAL,
    Message,
    Network,
    SimulatorOptions,
    allgather,
    allgather_clocks,
    allreduce,
    allreduce_clocks,
    broadcast,
    broadcast_clocks,
    shift_exchange,
    shift_exchange_clocks,
    simulate,
    unstructured_gather,
    unstructured_gather_clocks,
)
from repro.system import get_machine, machine_names
from repro.system.sau import CommunicationComponent

TOPOLOGY_KINDS = ("hypercube", "mesh", "torus", "fattree")

#: Exercises every per-rank hot path: masked forall (mask fractions), 2-D
#: block layout (shift exchanges), a reduction (allreduce + local partials)
#: and a broadcast of an off-processor element.
PARITY_SOURCE = """
      program parity
      integer, parameter :: n = 24
      integer, parameter :: steps = 3
      real, dimension(n, n) :: u, unew
      real, dimension(n) :: row
      real :: err
      integer :: iter
!HPF$ PROCESSORS p(2, 2)
!HPF$ TEMPLATE t(n, n)
!HPF$ ALIGN u(i, j) WITH t(i, j)
!HPF$ ALIGN unew(i, j) WITH t(i, j)
!HPF$ DISTRIBUTE t(BLOCK, BLOCK) ONTO p
      forall (i = 1:n, j = 1:n) u(i, j) = 0.1 * i + 0.01 * j
      forall (i = 1:n) row(i) = u(1, i)
      do iter = 1, steps
        forall (i = 2:n - 1, j = 2:n - 1, u(i, j) .gt. 0.5) &
          unew(i, j) = 0.25 * (u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1))
        err = sum(abs(unew(2:n - 1, 2:n - 1)))
        forall (i = 2:n - 1, j = 2:n - 1) u(i, j) = unew(i, j)
      end do
      print *, err
      end program parity
"""

CYCLIC_SOURCE = """
      program cyc
      integer, parameter :: n = 30
      real, dimension(n) :: a, b
      real :: total
!HPF$ PROCESSORS p(3)
!HPF$ TEMPLATE t(n)
!HPF$ ALIGN a(i) WITH t(i)
!HPF$ ALIGN b(i) WITH t(i)
!HPF$ DISTRIBUTE t(CYCLIC) ONTO p
      forall (i = 1:n) a(i) = 1.0 * i
      forall (i = 2:n - 1) b(i) = a(i - 1) + a(i + 1)
      total = sum(b)
      print *, total
      end program cyc
"""


def _per_rank(source, machine, engine, nprocs, **compile_kwargs):
    compiled = compile_source(source, nprocs=nprocs, **compile_kwargs)
    result = simulate(compiled, machine, options=SimulatorOptions(engine=engine))
    return result


class TestEnginePropertyParity:
    """Vector == loop on every registered machine x every topology kind."""

    @pytest.mark.parametrize("machine_name", machine_names())
    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_parity_machine_x_topology(self, machine_name, kind):
        nprocs = 4
        machine = get_machine(machine_name, nprocs)
        machine.topology_kind = kind           # cross product, as the ISSUE asks
        loop = _per_rank(PARITY_SOURCE, machine, "loop", nprocs)
        vector = _per_rank(PARITY_SOURCE, machine, "vector", nprocs)
        worst = np.max(np.abs(np.asarray(loop.per_rank_us)
                              - np.asarray(vector.per_rank_us)))
        assert worst <= 1e-9, \
            f"{machine_name}/{kind}: per-rank divergence {worst}"
        assert vector.array_checksum == loop.array_checksum
        assert vector.printed == loop.printed
        assert vector.totals.computation == pytest.approx(loop.totals.computation)
        assert vector.totals.communication == pytest.approx(loop.totals.communication)

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_parity_at_p1024(self, kind):
        """Array-clock drain == loop oracle at p=1024 on every wired fabric.

        This is the scale regime the array-clock core unlocked; the loop
        engine stays affordable here because the scenario is tiny (the
        network still prices 1024-rank collective stages every iteration).
        """
        from repro.suite import get_entry

        entry = get_entry("laplace_block_star")
        params = entry.params_for(32)
        params["maxiter"] = 2.0
        compiled = compile_source(entry.source, nprocs=1024, params=params)
        machine = get_machine("modern-cluster", 1024)
        machine.topology_kind = kind
        loop = simulate(compiled, machine,
                        options=SimulatorOptions(engine="loop"))
        vector = simulate(compiled, machine,
                          options=SimulatorOptions(engine="vector"))
        worst = np.max(np.abs(np.asarray(loop.per_rank_us)
                              - np.asarray(vector.per_rank_us)))
        assert worst <= 1e-9, f"{kind}: per-rank divergence {worst} at p=1024"
        assert vector.measured_time_us == loop.measured_time_us
        assert vector.comm_stats.messages == loop.comm_stats.messages
        assert vector.comm_stats.bytes == loop.comm_stats.bytes

    @pytest.mark.parametrize("machine_name", ["ipsc860", "modern-cluster"])
    def test_parity_cyclic_and_odd_p(self, machine_name):
        # cyclic layout + non-power-of-two partition (partition-safe routes)
        nprocs = 3
        machine = get_machine(machine_name, nprocs)
        loop = _per_rank(CYCLIC_SOURCE, machine, "loop", nprocs)
        vector = _per_rank(CYCLIC_SOURCE, machine, "vector", nprocs)
        worst = np.max(np.abs(np.asarray(loop.per_rank_us)
                              - np.asarray(vector.per_rank_us)))
        assert worst <= 1e-9
        assert vector.comm_stats.messages == loop.comm_stats.messages
        assert vector.comm_stats.bytes == loop.comm_stats.bytes
        assert vector.comm_stats.operations == loop.comm_stats.operations


class TestEngineSwitch:
    def test_simulator_config_alias_is_retired(self):
        import repro
        import repro.simulator
        assert not hasattr(repro, "SimulatorConfig")
        assert not hasattr(repro.simulator, "SimulatorConfig")
        assert SimulatorOptions(engine="loop").engine == "loop"

    def test_default_engine_is_vector(self):
        assert SimulatorOptions().engine == "vector"
        assert set(ENGINES) == {"vector", "loop"}

    def test_result_records_engine(self, laplace_compiled, machine4):
        vector = simulate(laplace_compiled, machine4)
        loop = simulate(laplace_compiled, machine4,
                        options=SimulatorOptions(engine="loop"))
        assert vector.engine == "vector"
        assert loop.engine == "loop"

    def test_unknown_engine_raises(self, laplace_compiled, machine4):
        with pytest.raises(SimulationError, match="unknown simulator engine"):
            simulate(laplace_compiled, machine4,
                     options=SimulatorOptions(engine="turbo"))

    def test_unknown_engine_fails_eagerly_and_names_the_engines(self):
        # the typo must fail at construction, not deep inside the run, and
        # the message must list every known engine
        with pytest.raises(SimulationError) as err:
            SimulatorOptions(engine="turbo")
        message = str(err.value)
        for name in ENGINES:
            assert repr(name) in message

    def test_runtime_backstop_catches_post_hoc_reassignment(
            self, laplace_compiled, machine4):
        options = SimulatorOptions()
        options.engine = "warp"            # bypasses __post_init__
        with pytest.raises(SimulationError, match="unknown simulator engine"):
            simulate(laplace_compiled, machine4, options=options)


class TestModernCluster:
    def test_registered_with_aliases(self):
        assert "modern-cluster" in machine_names()
        for alias in ("modern", "commodity", "beowulf", "MODERN-CLUSTER"):
            machine = get_machine(alias, 64)
            assert machine.name == "ModernCluster-64"

    def test_post_cm5_parameter_relationships(self):
        modern = get_machine("modern-cluster", 64)
        cm5 = get_machine("cm5", 64)
        assert modern.topology_kind == "switch"
        # faster nodes, lower latency, higher bandwidth than the CM-5 class
        assert modern.processing.flop_time_sp < cm5.processing.flop_time_sp / 10
        assert modern.communication.startup_latency < cm5.communication.startup_latency / 10
        assert modern.communication.per_byte < cm5.communication.per_byte

    def test_simulates_at_p64(self, laplace_source):
        compiled = compile_source(laplace_source, nprocs=64,
                                  params={"n": 64, "maxiter": 2})
        result = simulate(compiled, get_machine("modern-cluster", 64))
        assert result.measured_time_us > 0
        assert len(result.per_rank_us) == 64


# ---------------------------------------------------------------------------
# sorted scalar drain == per-event heap drain
# ---------------------------------------------------------------------------


def _comm() -> CommunicationComponent:
    return CommunicationComponent(
        startup_latency=50.0, long_startup_latency=90.0,
        long_message_threshold=256, per_byte=0.05, per_hop=2.0,
        packetization_bytes=512, per_packet_overhead=3.0,
        barrier_per_stage=10.0, collective_call_overhead=20.0,
    )


def _message_batch(num_nodes: int, seed: int) -> list[Message]:
    rng = np.random.default_rng(seed)
    messages = []
    for _ in range(40):
        src, dst = rng.integers(0, num_nodes, size=2)
        messages.append(Message(
            src=int(src), dst=int(dst), nbytes=int(rng.integers(1, 2000)),
            start_time=float(rng.choice([0.0, 5.0, 5.0, 12.5])),
        ))
    return messages


class TestSortedDrain:
    @pytest.mark.parametrize("kind,nodes", [("hypercube", 8), ("mesh", 6),
                                            ("torus", 8), ("fattree", 8),
                                            ("switch", 8)])
    def test_transfer_modes_identical(self, kind, nodes):
        """The heap, the sorted scalar drain and the array drain give the
        same per-node times on contended random batches on every topology."""
        from repro.system.topology import make_topology
        for seed in (1, 2, 3):
            heap_net = Network(_comm(), nodes, make_topology(kind, nodes))
            sorted_net = Network(_comm(), nodes, make_topology(kind, nodes))
            array_net = Network(_comm(), nodes, make_topology(kind, nodes))
            messages = _message_batch(nodes, seed)
            specs = [(m.start_time, m.src, m.dst, m.nbytes) for m in messages]
            result = heap_net.transfer(messages)
            send_done, recv_done = sorted_net.drain_times(specs)
            assert send_done == result.send_complete
            assert recv_done == result.recv_complete
            send_arr, recv_arr = array_net.drain_stage(*_arrays(specs))
            _assert_matches_heap(send_arr, recv_arr, result, nodes)

    def test_drain_times_matches_transfer(self):
        from repro.system.topology import make_topology
        net = Network(_comm(), 8, make_topology("hypercube", 8))
        messages = _message_batch(8, seed=7)
        specs = [(m.start_time, m.src, m.dst, m.nbytes) for m in messages]
        result = net.transfer(messages)
        send_done, recv_done = net.drain_times(specs)
        assert send_done == result.send_complete
        assert recv_done == result.recv_complete


# ---------------------------------------------------------------------------
# one network drain per engine
# ---------------------------------------------------------------------------

#: engine -> (the Network drain it runs on, the drains it must never reach)
ENGINE_DRAINS = {
    "vector": ("drain_stage", ("transfer", "drain_times")),
    "loop": ("transfer", ("drain_stage", "drain_times")),
}


class TestOnePathPerEngine:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_path_per_engine(self, engine, monkeypatch):
        """Every suite entry on every machine reaches only its engine's drain:
        the vector engine never touches the heap, the loop engine never the
        array drain, and neither the spec-list ``drain_times``."""
        from repro.suite import all_entries

        own, foreign = ENGINE_DRAINS[engine]
        for name in foreign:
            def refuse(*_args, _name=name, **_kwargs):
                raise AssertionError(f"{engine} engine reached Network.{_name}")
            monkeypatch.setattr(Network, name, refuse)
        calls = []
        drain = getattr(Network, own)

        def counted(*args, **kwargs):
            calls.append(own)
            return drain(*args, **kwargs)
        monkeypatch.setattr(Network, own, counted)

        options = SimulatorOptions(engine=engine)
        for key, entry in all_entries().items():
            compiled = entry.compile(entry.sizes[0], nprocs=4)
            for machine_name in machine_names():
                result = simulate(compiled, get_machine(machine_name, 4),
                                  options=options)
                assert result.measured_time_us > 0, (key, machine_name)
        assert calls, f"{engine} engine never reached Network.{own}"


# ---------------------------------------------------------------------------
# array drain: stage classification + equivalence with the heap oracle
# ---------------------------------------------------------------------------


def _arrays(specs):
    start = np.array([s[0] for s in specs], dtype=np.float64)
    src = np.array([s[1] for s in specs], dtype=np.int64)
    dst = np.array([s[2] for s in specs], dtype=np.int64)
    nbytes = np.array([s[3] for s in specs], dtype=np.int64)
    return start, src, dst, nbytes


def _drain_stage_vs_heap(kind, nodes, specs):
    """Run one stage through drain_stage and the heap; return both + verdict."""
    from repro.system.topology import make_topology
    start, src, dst, nbytes = _arrays(specs)
    array_net = Network(_comm(), nodes, make_topology(kind, nodes))
    heap_net = Network(_comm(), nodes, make_topology(kind, nodes))
    _hops, verdict, _partners = array_net.stage_route_info(src, dst)
    send_arr, recv_arr = array_net.drain_stage(start, src, dst, nbytes)
    messages = [Message(src=s, dst=d, nbytes=n, start_time=t)
                for t, s, d, n in specs]
    result = heap_net.transfer(messages)
    return verdict, send_arr, recv_arr, result


def _assert_matches_heap(send_arr, recv_arr, result, nodes):
    for node in range(nodes):
        expected_send = result.send_complete.get(node, float("-inf"))
        expected_recv = result.recv_complete.get(node, float("-inf"))
        assert send_arr[node] == expected_send, f"send mismatch at node {node}"
        assert recv_arr[node] == expected_recv, f"recv mismatch at node {node}"


class TestStageClassification:
    """Contention-free stage detection: fast paths only where links never
    collide, and every verdict's times equal the heap oracle's."""

    def test_link_disjoint_stage_is_fast_pathed(self):
        # hypercube 0->1 and 2->3: single distinct links, one vector expression
        specs = [(0.0, 0, 1, 256), (5.0, 2, 3, 512)]
        verdict, send_arr, recv_arr, result = _drain_stage_vs_heap("hypercube", 4, specs)
        assert verdict == STAGE_DISJOINT
        _assert_matches_heap(send_arr, recv_arr, result, 4)

    def test_pairwise_exchange_is_paired(self):
        # recursive-doubling stage: both directions share each undirected link
        specs = [(0.0, 0, 1, 128), (0.0, 1, 0, 128),
                 (2.0, 2, 3, 128), (1.0, 3, 2, 128)]
        verdict, send_arr, recv_arr, result = _drain_stage_vs_heap("hypercube", 4, specs)
        assert verdict == STAGE_PAIRED
        _assert_matches_heap(send_arr, recv_arr, result, 4)

    def test_colliding_stage_takes_the_slow_path(self):
        # mesh row 0->2 and 1->3: both cross link (1,2) — genuine contention,
        # must serialise through the sorted scalar drain
        from repro.system.topology import MeshTopology
        specs = [(0.0, 0, 2, 1024), (0.0, 1, 3, 1024)]
        start, src, dst, nbytes = _arrays(specs)
        array_net = Network(_comm(), 4, MeshTopology(1, 4))
        heap_net = Network(_comm(), 4, MeshTopology(1, 4))
        _hops, verdict, _partners = array_net.stage_route_info(src, dst)
        assert verdict == STAGE_SERIAL
        send_arr, recv_arr = array_net.drain_stage(start, src, dst, nbytes)
        result = heap_net.transfer([Message(src=s, dst=d, nbytes=n, start_time=t)
                                    for t, s, d, n in specs])
        _assert_matches_heap(send_arr, recv_arr, result, 4)

    def test_duplicate_source_takes_the_slow_path(self):
        # one NIC sending twice serialises at the source even on a crossbar
        specs = [(0.0, 0, 1, 64), (0.0, 0, 2, 64)]
        verdict, send_arr, recv_arr, result = _drain_stage_vs_heap("switch", 4, specs)
        assert verdict == STAGE_SERIAL
        _assert_matches_heap(send_arr, recv_arr, result, 4)

    def test_switch_is_structurally_disjoint(self):
        # the crossbar advertises link_disjoint_paths: distinct endpoints are
        # disjoint by construction, no link walk needed
        from repro.system.topology import SwitchedTopology, make_topology
        assert SwitchedTopology(8).link_disjoint_paths
        assert not make_topology("hypercube", 8).link_disjoint_paths
        specs = [(0.0, 0, 5, 256), (0.0, 1, 4, 256), (3.0, 2, 7, 2048)]
        verdict, send_arr, recv_arr, result = _drain_stage_vs_heap("switch", 8, specs)
        assert verdict == STAGE_DISJOINT
        _assert_matches_heap(send_arr, recv_arr, result, 8)

    @pytest.mark.parametrize("kind,nodes", [("hypercube", 8), ("mesh", 6),
                                            ("torus", 8), ("fattree", 8),
                                            ("switch", 8)])
    def test_random_stages_match_heap(self, kind, nodes):
        rng = np.random.default_rng(nodes)
        for trial in range(12):
            n = int(rng.integers(1, 2 * nodes))
            specs = [(float(rng.choice([0.0, 4.0, 9.5])),
                      int(rng.integers(0, nodes)), int(rng.integers(0, nodes)),
                      int(rng.integers(1, 4000))) for _ in range(n)]
            _verdict, send_arr, recv_arr, result = _drain_stage_vs_heap(kind, nodes, specs)
            _assert_matches_heap(send_arr, recv_arr, result, nodes)

    def test_verdicts_are_memoised_per_stage_shape(self):
        from repro.system.topology import make_topology
        net = Network(_comm(), 4, make_topology("hypercube", 4))
        src = np.array([0, 2], dtype=np.int64)
        dst = np.array([1, 3], dtype=np.int64)
        first = net.stage_route_info(src, dst)
        again = net.stage_route_info(src.copy(), dst.copy())
        assert first is again

    def test_stage_cache_distinguishes_dtype_and_length(self):
        # int32 [1, 0] and int64 [1] share a byte representation; the memo
        # key must not conflate the two stages
        from repro.system.topology import make_topology
        net = Network(_comm(), 4, make_topology("hypercube", 4))
        wide = net.stage_route_info(np.array([1, 0], dtype=np.int32),
                                    np.array([0, 1], dtype=np.int32))
        narrow = net.stage_route_info(np.array([1], dtype=np.int64),
                                      np.array([0], dtype=np.int64))
        assert wide[0].shape[0] == 2
        assert narrow[0].shape[0] == 1


# ---------------------------------------------------------------------------
# array-clock kernels == dict-based collectives
# ---------------------------------------------------------------------------


class TestArrayClockKernels:
    """The ``*_clocks`` kernels return bit-identical times to their
    dict-based twins and never mutate the entry clocks."""

    @pytest.mark.parametrize("kind,nodes", [("hypercube", 8), ("mesh", 6),
                                            ("torus", 8), ("fattree", 8),
                                            ("switch", 8), ("hypercube", 5)])
    def test_kernels_match_dict_collectives(self, kind, nodes):
        from repro.system.topology import make_topology
        network = Network(_comm(), nodes, make_topology(kind, nodes))
        ranks = list(range(nodes))
        rng = np.random.default_rng(17)
        clocks_arr = np.round(rng.uniform(0.0, 40.0, size=nodes), 3)
        clocks = {r: float(clocks_arr[r]) for r in ranks}
        entry = clocks_arr.copy()

        cases = [
            (allreduce_clocks(network, clocks_arr, 8, combine_time=0.5,
                              software_overhead=5.0),
             allreduce(network, ranks, 8, clocks, combine_time=0.5,
                       software_overhead=5.0)),
            (allgather_clocks(network, clocks_arr, 32, software_overhead=5.0),
             allgather(network, ranks, 32, clocks, software_overhead=5.0)),
            (unstructured_gather_clocks(network, clocks_arr, 32,
                                        software_overhead=5.0),
             unstructured_gather(network, ranks, 32, clocks,
                                 software_overhead=5.0)),
            (broadcast_clocks(network, 0, clocks_arr, 128,
                              software_overhead=5.0),
             broadcast(network, 0, ranks, 128, clocks, software_overhead=5.0)),
            (broadcast_clocks(network, 3, clocks_arr, 128,
                              software_overhead=5.0),
             broadcast(network, 3, ranks, 128, clocks, software_overhead=5.0)),
        ]
        for got, expected in cases:
            assert got.shape == (nodes,)
            for rank in ranks:
                assert got[rank] == expected[rank]
        np.testing.assert_array_equal(clocks_arr, entry)

    @pytest.mark.parametrize("kind,nodes", [("hypercube", 8), ("mesh", 6),
                                            ("switch", 8)])
    def test_shift_kernel_matches_dict_shift(self, kind, nodes):
        from repro.system.topology import make_topology
        network = Network(_comm(), nodes, make_topology(kind, nodes))
        ranks = list(range(nodes))
        clocks_arr = np.linspace(0.0, 21.0, nodes)
        clocks = {r: float(clocks_arr[r]) for r in ranks}
        pairs = [(r, (r + 1) % nodes) for r in ranks]
        sizes = {pair: 64 * (i + 1) for i, pair in enumerate(pairs)}
        src = np.array([a for a, _ in pairs], dtype=np.int64)
        dst = np.array([b for _, b in pairs], dtype=np.int64)
        nbytes = np.array([sizes[pair] for pair in pairs], dtype=np.int64)

        entry = clocks_arr.copy()
        got, participants = shift_exchange_clocks(
            network, src, dst, nbytes, clocks_arr, software_overhead=5.0)
        expected = shift_exchange(network, pairs, sizes, clocks,
                                  software_overhead=5.0)
        assert participants.all()          # a full ring: everyone exchanges
        for rank in ranks:
            assert got[rank] == expected[rank]
        np.testing.assert_array_equal(clocks_arr, entry)

    def test_shift_kernel_flags_non_participants(self):
        from repro.system.topology import make_topology
        network = Network(_comm(), 8, make_topology("hypercube", 8))
        clocks_arr = np.full(8, 3.0)
        src = np.array([0], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        nbytes = np.array([64], dtype=np.int64)
        got, participants = shift_exchange_clocks(
            network, src, dst, nbytes, clocks_arr, software_overhead=5.0)
        assert participants.tolist() == [True, True] + [False] * 6
        np.testing.assert_array_equal(got[~participants], 3.0)
        assert (got[participants] >= 8.0).all()

    def test_empty_shift_stage_is_identity(self):
        from repro.system.topology import make_topology
        network = Network(_comm(), 4, make_topology("hypercube", 4))
        clocks_arr = np.array([1.0, 2.0, 3.0, 4.0])
        empty = np.array([], dtype=np.int64)
        got, participants = shift_exchange_clocks(
            network, empty, empty, empty.copy(), clocks_arr,
            software_overhead=5.0)
        assert not participants.any()
        np.testing.assert_array_equal(got, clocks_arr)
        assert got is not clocks_arr


# ---------------------------------------------------------------------------
# collectives: fresh dicts, no shared mutable state between phases
# ---------------------------------------------------------------------------


class TestCollectiveStateHygiene:
    """Every collective returns a fresh dict and never mutates its inputs."""

    def _network(self):
        from repro.system.topology import make_topology
        return Network(_comm(), 8, make_topology("hypercube", 8))

    def test_fresh_dict_and_unmutated_clocks(self):
        network = self._network()
        ranks = list(range(8))
        clocks = {r: 10.0 * r for r in ranks}
        snapshot = dict(clocks)
        pairs = [(r, (r + 1) % 8) for r in ranks]
        sizes = {pair: 64 for pair in pairs}

        calls = [
            lambda: shift_exchange(network, pairs, sizes, clocks,
                                   software_overhead=5.0),
            lambda: broadcast(network, 0, ranks, 128, clocks,
                              software_overhead=5.0),
            lambda: allreduce(network, ranks, 8, clocks, combine_time=0.5,
                              software_overhead=5.0),
            lambda: allgather(network, ranks, 32, clocks,
                              software_overhead=5.0),
            lambda: unstructured_gather(network, ranks, 32, clocks,
                                        software_overhead=5.0),
        ]
        for call in calls:
            first = call()
            second = call()
            assert first is not clocks, "collective returned the caller's dict"
            assert second is not first, "collective reused a result dict"
            assert first == second, "repeated collective call changed times"
            assert clocks == snapshot, "collective mutated the input clocks"

    def test_degenerate_single_rank_is_fresh_too(self):
        network = self._network()
        clocks = {0: 3.0}
        for result in (broadcast(network, 0, [0], 64, clocks),
                       allreduce(network, [0], 8, clocks),
                       allgather(network, [0], 8, clocks),
                       unstructured_gather(network, [0], 8, clocks),
                       shift_exchange(network, [], 0, clocks)):
            assert result is not clocks
            result[0] = -1.0
            assert clocks[0] == 3.0


# ---------------------------------------------------------------------------
# vectorised distribution helpers == their scalar counterparts
# ---------------------------------------------------------------------------


def _axis(extent, kind, nprocs, block=1, offset=0, template_extent=None):
    return AxisMapping(extent=extent, dist=DimDistribution(kind=kind, block=block),
                       nprocs=nprocs, grid_axis=0 if kind != "collapsed" else None,
                       template_extent=template_extent, offset=offset)


class TestVectorisedDistributionHelpers:
    @pytest.mark.parametrize("kind,block", [("block", 1), ("cyclic", 1),
                                            ("cyclic", 3)])
    @pytest.mark.parametrize("offset", [0, 2])
    def test_owners_of_matches_isin(self, kind, block, offset):
        axis = _axis(extent=17, kind=kind, nprocs=4, block=block, offset=offset,
                     template_extent=19 if offset else None)
        values = np.arange(-3, 22, dtype=np.int64)
        owners = axis.owners_of(values)
        for pcoord in range(4):
            expected = np.isin(values, axis.local_indices(pcoord))
            np.testing.assert_array_equal(owners == pcoord, expected)

    @pytest.mark.parametrize("kind,block", [("block", 1), ("cyclic", 1),
                                            ("cyclic", 2), ("collapsed", 1)])
    def test_local_counts_match_local_count(self, kind, block):
        nprocs = 5 if kind != "collapsed" else 1
        axis = _axis(extent=23, kind=kind, nprocs=nprocs, block=block)
        counts = axis.local_counts()
        if kind == "collapsed":
            assert counts.tolist() == [23]
        else:
            assert counts.tolist() == [axis.local_count(p) for p in range(nprocs)]

    def test_local_sizes_match_local_size(self):
        grid = ProcessorGrid("p", (2, 3))
        dist = ArrayDistribution(
            name="a", shape=(10, 9),
            axes=[
                AxisMapping(extent=10, dist=DimDistribution("block"),
                            nprocs=2, grid_axis=0),
                AxisMapping(extent=9, dist=DimDistribution("cyclic"),
                            nprocs=3, grid_axis=1),
            ],
            grid=grid,
        )
        np.testing.assert_array_equal(
            dist.local_sizes(),
            np.array([dist.local_size(r) for r in range(6)]))
        pcoords = dist.axis_pcoords()
        for rank in range(6):
            for axis_no in range(2):
                assert pcoords[rank, axis_no] == \
                    dist._axis_pcoord(rank, dist.axes[axis_no])

    def test_coords_array_and_linear_ranks_roundtrip(self):
        grid = ProcessorGrid("p", (3, 4, 2))
        coords = grid.coords_array()
        for rank in range(grid.size):
            assert tuple(coords[rank]) == grid.coords(rank)
        np.testing.assert_array_equal(grid.linear_ranks(coords),
                                      np.arange(grid.size))
