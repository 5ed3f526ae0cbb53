"""Execution simulator: the measurement substrate of the reproduction.

Executes compiled SPMD node programs with a per-rank timing plane (dynamic
node cost model + message-level network with link contention + seeded system
noise) and a NumPy data plane identical to the functional interpreter,
producing the "measured" times that the interpretation parse's estimates are
validated against.  The network routes over the target machine's pluggable
:class:`~repro.system.topology.Topology` — iPSC/860 hypercube, Paragon-style
2-D mesh, or switched cluster.

Two execution cores are provided behind ``SimulatorOptions(engine=...)``,
each with its own network drain: the ``"vector"`` engine (default) computes
per-rank state in bulk and drains each network stage as a structure-of-arrays
batch (:meth:`Network.drain_stage`), and the ``"loop"`` engine keeps the
original per-rank python loops and the per-event heap
(:meth:`Network.transfer`) as the correctness oracle.  They produce identical
times; see ``docs/simulator.md``.
"""

from ..system.topology import (
    HypercubeTopology,
    TopologyError,
    cube_dimension,
    ecube_route,
    hamming_distance,
)
from .collectives import (
    allgather,
    allgather_clocks,
    allreduce,
    allreduce_clocks,
    broadcast,
    broadcast_clocks,
    shift_exchange,
    shift_exchange_clocks,
    unstructured_gather,
    unstructured_gather_clocks,
)
from .events import EventQueue, batch_order
from .executor import (
    ENGINES,
    CommStatistics,
    SimulatorOptions,
    SPMDExecutor,
)
from .network import (
    STAGE_DISJOINT,
    STAGE_PAIRED,
    STAGE_SERIAL,
    Message,
    Network,
    TransferResult,
)
from .node import IterationProfile, NodeCostModel
from .noise import NOISE_SCHEMES, NoiseKey, NoiseModel, NoiseOptions
from .runtime import SimulationResult, simulate, simulate_repeated
from .vector import VectorSPMDExecutor

__all__ = [
    "allgather",
    "allgather_clocks",
    "allreduce",
    "allreduce_clocks",
    "broadcast",
    "broadcast_clocks",
    "shift_exchange",
    "shift_exchange_clocks",
    "unstructured_gather",
    "unstructured_gather_clocks",
    "EventQueue",
    "batch_order",
    "STAGE_DISJOINT",
    "STAGE_PAIRED",
    "STAGE_SERIAL",
    "ENGINES",
    "CommStatistics",
    "SimulatorOptions",
    "SPMDExecutor",
    "VectorSPMDExecutor",
    "HypercubeTopology",
    "TopologyError",
    "cube_dimension",
    "ecube_route",
    "hamming_distance",
    "Message",
    "Network",
    "TransferResult",
    "IterationProfile",
    "NodeCostModel",
    "NOISE_SCHEMES",
    "NoiseKey",
    "NoiseModel",
    "NoiseOptions",
    "SimulationResult",
    "simulate",
    "simulate_repeated",
]
