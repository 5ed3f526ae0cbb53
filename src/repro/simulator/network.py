"""Message-level network simulation over a pluggable interconnect topology.

The unit of simulation is a :class:`Message` (source node, destination node,
byte count, earliest start time).  Messages traverse the route their
:class:`~repro.system.topology.Topology` assigns them (e-cube on a hypercube,
XY on a mesh, through the crossbar on a switched cluster); each link can
carry one message at a time, so concurrent messages that share a link
serialise — this is the contention the static interpreter's analytic
collective models do not capture.

Two drain paths share the same per-message timing rules and produce
bit-identical results, one per simulator engine:

* the classic per-event **heap** (:meth:`Network.transfer` over
  :class:`repro.simulator.events.EventQueue`), the ``loop`` engine's oracle;
* an **array** drain (:meth:`Network.drain_stage`), the ``vector`` engine's
  collective core: the phase arrives as a structure-of-arrays batch
  (``src`` / ``dst`` / ``nbytes`` / ``start`` as numpy arrays, no
  :class:`Message` objects at all) and is classified once per distinct stage
  shape by :meth:`Network.stage_route_info`:

  - **link-disjoint** stages (shift exchanges, any stage on a
    :class:`~repro.system.topology.SwitchedTopology` with distinct endpoints,
    fat-tree stages that spread across parallel channels) have no link or NIC
    interaction at all, so the whole stage is priced with one vectorised
    expression;
  - **paired** stages — every route is a single link and collisions are only
    the two opposite directions of an exchange pair (recursive doubling on
    the hypercube, two-node rings) — admit a closed form: the later message
    of each pair waits for its partner's link to free;
  - anything else genuinely collides and falls back to a sorted scalar pass
    over the phase in heap dispatch order, with routes and link ids memoised
    per (src, dst) pair, so contention is never approximated.

:meth:`Network.drain_times` exposes that sorted scalar pass for a plain list
of ``(start_time, src, dst, nbytes)`` specs.

The simulation is fully deterministic on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..system.comm_models import message_packets
from ..system.sau import CommunicationComponent
from ..system.topology import Topology, make_topology
from .events import EventQueue, batch_order

#: Stage verdicts of :meth:`Network.stage_route_info`.
STAGE_DISJOINT = "disjoint"   # no two messages share a link; sources distinct
STAGE_PAIRED = "paired"       # single-link routes; collisions only within a<->b pairs
STAGE_SERIAL = "serial"       # links genuinely collide: sorted scalar drain

_NEG_INF = float("-inf")


@dataclass(slots=True)
class Message:
    """One point-to-point message."""

    src: int
    dst: int
    nbytes: int
    start_time: float = 0.0
    tag: str = ""
    # filled by the simulation
    send_complete: float = 0.0
    recv_complete: float = 0.0


@dataclass
class TransferResult:
    """Result of simulating a batch of messages."""

    messages: list[Message]
    send_complete: dict[int, float] = field(default_factory=dict)   # per source node
    recv_complete: dict[int, float] = field(default_factory=dict)   # per destination node
    total_bytes: int = 0
    max_link_busy: float = 0.0

    def completion(self, node: int, default: float = 0.0) -> float:
        """Time at which *node* has finished all its sends and receives."""
        return max(self.send_complete.get(node, default), self.recv_complete.get(node, default))


class Network:
    """Simulates batches of messages over one interconnect partition."""

    def __init__(self, comm: CommunicationComponent, num_nodes: int,
                 topology: Topology | None = None):
        self.comm = comm
        self.topology = topology if topology is not None \
            else make_topology("hypercube", max(num_nodes, 1))
        self.num_nodes = num_nodes
        #: (src, dst) -> canonical link ids of the route, filled lazily by the
        #: sorted drain and stage classification; routes are pure functions of
        #: the topology, so the cache can never go stale for a fixed partition.
        self._route_cache: dict[tuple[int, int], tuple[Hashable, ...]] = {}
        #: nbytes -> (latency, link occupancy); both are pure functions of the
        #: communication parameter set.
        self._timing_cache: dict[int, tuple[float, float]] = {}
        #: (src bytes, dst bytes) -> (hops array, stage verdict, pair partner
        #: permutation) for the array drain; stage shapes repeat across the
        #: iterations of a program, so classification is paid once per shape.
        self._stage_cache: dict[tuple[bytes, bytes],
                                tuple[np.ndarray, str, np.ndarray | None]] = {}
        #: collective schedules in array form, filled lazily by the
        #: array-clock kernels in :mod:`repro.simulator.collectives`.
        self._schedule_arrays: dict = {}

    # -- single message timing (no contention) ------------------------------------

    def message_time(self, nbytes: int, hops: int = 1) -> float:
        """Uncontended transit time of one message (matches the analytic model)."""
        comm = self.comm
        nbytes = max(int(nbytes), 0)
        hops = max(int(hops), 1)
        packets = message_packets(comm, nbytes)
        return (
            comm.latency(nbytes)
            + nbytes * comm.per_byte
            + (hops - 1) * comm.per_hop
            + (packets - 1) * comm.per_packet_overhead
        )

    # -- batch simulation with link contention --------------------------------------

    def transfer(self, messages: list[Message]) -> TransferResult:
        """Simulate *messages* with link contention; fills per-message completions.

        The heap drain: one event per message, the ``loop`` engine's oracle.
        Deliberately self-contained — it spells out the timing rules inline
        rather than sharing :meth:`_message_timing` with the array drain, so
        the parity tests compare two independently-written implementations
        rather than one formula with itself.
        """
        result = TransferResult(messages=messages)
        if not messages:
            return result

        queue = EventQueue()
        link_free: dict[Hashable, float] = {}
        nic_free: dict[int, float] = {}

        def start_message(msg: Message) -> None:
            comm = self.comm
            # The sending node's interface is serially reusable.
            send_start = max(queue.now, nic_free.get(msg.src, 0.0))
            launch = send_start + comm.latency(msg.nbytes)
            occupancy = msg.nbytes * comm.per_byte + (
                (message_packets(comm, msg.nbytes) - 1) * comm.per_packet_overhead
            )
            route = self.topology.route(msg.src, msg.dst)
            arrival = launch
            for hop_no, (a, b) in enumerate(route):
                lid = self.topology.link_id(a, b)
                ready = max(arrival + (comm.per_hop if hop_no > 0 else 0.0),
                            link_free.get(lid, 0.0))
                free_at = ready + occupancy
                link_free[lid] = free_at
                result.max_link_busy = max(result.max_link_busy, free_at)
                arrival = ready
            if not route:  # self-message (local copy through the NIC)
                arrival = launch
            recv_done = arrival + occupancy
            send_done = launch + occupancy * 0.5  # sender frees once data is streaming
            nic_free[msg.src] = send_done
            msg.send_complete = send_done
            msg.recv_complete = recv_done
            result.send_complete[msg.src] = max(result.send_complete.get(msg.src, 0.0), send_done)
            result.recv_complete[msg.dst] = max(result.recv_complete.get(msg.dst, 0.0), recv_done)
            result.total_bytes += msg.nbytes

        for msg in sorted(messages, key=lambda m: (m.start_time, m.src, m.dst)):
            queue.schedule(msg.start_time, lambda m=msg: start_message(m))
        queue.run()
        return result

    def _message_timing(self, nbytes: int) -> tuple[float, float]:
        """Memoised ``(latency, link occupancy)`` of one message size.

        The single timing formula behind the array drain and
        :meth:`drain_times`; the heap oracle intentionally keeps its own
        inline copy (see :meth:`transfer`).
        """
        cached = self._timing_cache.get(nbytes)
        if cached is None:
            comm = self.comm
            occupancy = nbytes * comm.per_byte + (
                (message_packets(comm, nbytes) - 1) * comm.per_packet_overhead
            )
            cached = (comm.latency(nbytes), occupancy)
            self._timing_cache[nbytes] = cached
        return cached

    def _route_links(self, src: int, dst: int) -> tuple[Hashable, ...]:
        """Memoised canonical link ids of the (src, dst) route."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = tuple(self.topology.link_id(a, b)
                           for a, b in self.topology.route(src, dst))
            self._route_cache[key] = cached
        return cached

    def drain_times(self, specs: list[tuple[float, int, int, int]],
                    ) -> tuple[dict[int, float], dict[int, float]]:
        """Per-node ``(send_complete, recv_complete)`` of ``(start_time, src,
        dst, nbytes)`` specs.

        Applies exactly the timing rules of :meth:`transfer` — same dispatch
        order, same NIC serialisation, same link contention — without
        materialising :class:`Message` objects: the specs are sorted into
        heap dispatch order and run through the scalar pass that
        :meth:`drain_stage` falls back to for colliding stages.
        """
        return self._drain(sorted(specs,
                                  key=lambda spec: (spec[0], spec[1], spec[2])))

    def _drain(self, specs) -> tuple[dict[int, float], dict[int, float]]:
        """The sorted scalar timing core: ``(start_time, src, dst, nbytes)``
        specs, already in dispatch order.

        Dispatch order is ascending ``(start_time, src, dst)`` with input order
        breaking ties — the heap's insertion-order tie-break, applied by
        :meth:`drain_times`' stable sort or by
        :func:`repro.simulator.events.batch_order`.  The loop applies exactly
        :meth:`transfer`'s rules (same NIC serialisation, same link
        contention), so all drain paths stay bit-identical.  Returns the
        per-node ``(send_complete, recv_complete)`` maps.
        """
        link_free: dict[Hashable, float] = {}
        nic_free: dict[int, float] = {}
        per_hop = self.comm.per_hop
        timing = self._timing_cache
        route_cache = self._route_cache
        send_complete: dict[int, float] = {}
        recv_complete: dict[int, float] = {}

        for start_time, src, dst, nbytes in specs:
            cached = timing.get(nbytes)
            if cached is None:
                cached = self._message_timing(nbytes)
            latency, occupancy = cached

            # heap semantics inline: events fire in (time, order) order and
            # the clock reads the event's own time, so send_start simplifies.
            send_start = nic_free.get(src, 0.0)
            if start_time > send_start:
                send_start = start_time
            launch = send_start + latency

            links = route_cache.get((src, dst))
            if links is None:
                links = self._route_links(src, dst)

            # a self-message has no links: a local copy through the NIC
            arrival = launch
            first = True
            for lid in links:
                ready = arrival if first else arrival + per_hop
                first = False
                busy = link_free.get(lid, 0.0)
                if busy > ready:
                    ready = busy
                link_free[lid] = ready + occupancy
                arrival = ready
            recv_done = arrival + occupancy
            send_done = launch + occupancy * 0.5  # sender frees once streaming
            nic_free[src] = send_done
            if send_done > send_complete.get(src, 0.0):
                send_complete[src] = send_done
            if recv_done > recv_complete.get(dst, 0.0):
                recv_complete[dst] = recv_done
        return send_complete, recv_complete

    # -- array drain (structure-of-arrays phases) ------------------------------------

    def stage_route_info(self, src: np.ndarray, dst: np.ndarray,
                         ) -> tuple[np.ndarray, str, np.ndarray | None]:
        """Classify one stage shape: ``(hops, verdict, pair partners)``.

        ``hops[k]`` is the link count of message *k*'s route.  The verdict is
        :data:`STAGE_DISJOINT` when no two messages share a link (and sources
        are distinct, so NICs never serialise either), :data:`STAGE_PAIRED`
        when every route is a single link and the only collisions are the two
        opposite directions of an exchange pair (``partners[k]`` is then the
        index of *k*'s pair mate, or ``k`` itself when unpaired), and
        :data:`STAGE_SERIAL` otherwise.  A topology that declares
        ``link_disjoint_paths`` (the crossbar: per-node up/down links) is
        trusted structurally — distinct sources and destinations imply
        disjointness without walking the link sets.  Verdicts are memoised
        per stage shape: collective schedules repeat their stages every
        iteration, so classification is a one-time cost.
        """
        # normalise before keying: the byte representation must identify the
        # stage regardless of the caller's dtype or memory layout
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        key = (src.tobytes(), dst.tobytes())
        cached = self._stage_cache.get(key)
        if cached is not None:
            return cached

        n = src.shape[0]
        srcs = src.tolist()
        dsts = dst.tolist()

        # Structural fast path: on a crossbar every distinct-endpoint route is
        # exactly ``switch_hops`` links and a self-message is zero, so a stage
        # with distinct sources and destinations classifies without walking a
        # single route (the per-message route walk was the dominant one-time
        # cost of large-p stage classification).
        switch_hops = getattr(self.topology, "switch_hops", None)
        if switch_hops is not None \
                and getattr(self.topology, "link_disjoint_paths", False) \
                and len(set(srcs)) == n and len(set(dsts)) == n:
            hops = np.where(src == dst, 0, int(switch_hops)).astype(np.int64)
            cached = (hops, STAGE_DISJOINT, None)
            self._stage_cache[key] = cached
            return cached
        hops = np.empty(n, dtype=np.int64)
        link_lists = []
        for k in range(n):
            links = self._route_links(srcs[k], dsts[k])
            hops[k] = len(links)
            link_lists.append(links)

        partners: np.ndarray | None = None
        if len(set(srcs)) != n:
            verdict = STAGE_SERIAL          # a NIC would serialise its sends
        elif getattr(self.topology, "link_disjoint_paths", False) \
                and len(set(dsts)) == n:
            verdict = STAGE_DISJOINT        # structural guarantee (crossbar)
        else:
            flat = [lid for links in link_lists for lid in links]
            if len(set(flat)) == len(flat):
                verdict = STAGE_DISJOINT
            elif int(hops.max()) <= 1:
                # single-link routes with distinct sources: a link can only be
                # shared by the two opposite directions of one exchange pair
                verdict = STAGE_PAIRED
                partners = np.arange(n, dtype=np.int64)
                first_on: dict[Hashable, int] = {}
                for k, links in enumerate(link_lists):
                    if not links:
                        continue
                    mate = first_on.setdefault(links[0], k)
                    if mate != k:
                        if partners[mate] != mate:   # >2 on one link: impossible
                            verdict, partners = STAGE_SERIAL, None
                            break
                        partners[mate], partners[k] = k, mate
            else:
                verdict = STAGE_SERIAL

        cached = (hops, verdict, partners)
        self._stage_cache[key] = cached
        return cached

    def _stage_timing(self, nbytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-message ``(latency, occupancy)`` arrays, via the timing memo."""
        nbytes = np.asarray(nbytes).reshape(-1)
        # Collective stages overwhelmingly carry one message size; broadcast
        # the memoised scalar pair instead of paying np.unique's sort.
        if nbytes.shape[0] and int(nbytes.min()) == int(nbytes.max()):
            lat, occ = self._message_timing(int(nbytes[0]))
            return (np.full(nbytes.shape[0], lat),
                    np.full(nbytes.shape[0], occ))
        uniq, inverse = np.unique(nbytes, return_inverse=True)
        lat = np.empty(uniq.shape[0], dtype=np.float64)
        occ = np.empty(uniq.shape[0], dtype=np.float64)
        for i, size in enumerate(uniq.tolist()):
            lat[i], occ[i] = self._message_timing(size)
        inverse = np.asarray(inverse).reshape(-1)
        return lat[inverse], occ[inverse]

    def drain_stage(self, start: np.ndarray, src: np.ndarray, dst: np.ndarray,
                    nbytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Array drain of one phase; the ``vector`` engine's collective core.

        Takes the phase as a structure-of-arrays batch and returns per-node
        ``(send_complete, recv_complete)`` arrays of length ``num_nodes``
        (``-inf`` where a node neither sent nor received).  Link-disjoint and
        pair-exchange stages are priced by vectorised expressions; colliding
        stages fall back to the sorted scalar pass, so every path applies
        exactly :meth:`transfer`'s timing rules.
        """
        p = self.num_nodes
        send_arr = np.full(p, _NEG_INF)
        recv_arr = np.full(p, _NEG_INF)
        n = src.shape[0]
        if n == 0:
            return send_arr, recv_arr

        hops, verdict, partners = self.stage_route_info(src, dst)
        if verdict == STAGE_SERIAL:
            order = batch_order(start, src, dst)
            send_done, recv_done = self._drain(zip(
                start[order].tolist(), src[order].tolist(),
                dst[order].tolist(), nbytes[order].tolist()))
            for node, t in send_done.items():
                send_arr[node] = t
            for node, t in recv_done.items():
                recv_arr[node] = t
            return send_arr, recv_arr

        latency, occupancy = self._stage_timing(nbytes)
        launch = np.maximum(start, 0.0) + latency
        send_done = launch + occupancy * 0.5

        if verdict == STAGE_DISJOINT:
            # No interactions at all: each message pays its own latency, hop
            # delays and occupancy.  The per-hop delay accrues by repeated
            # addition (hop by hop, exactly as the scalar loop adds it) so the
            # float results stay bit-identical.
            arrival = launch.copy()
            max_hops = int(hops.max())
            for hop_no in range(1, max_hops):
                arrival[hops > hop_no] += self.comm.per_hop
            recv_done = arrival + occupancy
        else:                                   # STAGE_PAIRED
            # Single-link exchanges: the lexicographically later message of a
            # pair waits until its partner frees the shared link.
            mate = partners
            second = (start > start[mate]) | \
                ((start == start[mate]) & (src > src[mate]))
            ready = np.maximum(launch, launch[mate] + occupancy[mate])
            recv_done = np.where(second, ready, launch) + occupancy

        send_arr[src] = send_done               # sources are distinct
        np.maximum.at(recv_arr, dst, recv_done)
        return send_arr, recv_arr
