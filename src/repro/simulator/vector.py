"""The ``vector`` execution engine: per-rank state computed in bulk.

:class:`VectorSPMDExecutor` is the scaled counterpart of the per-rank-loop
:class:`~repro.simulator.executor.SPMDExecutor` (the ``loop`` oracle).  It
inherits all control flow — SPMD node dispatch, the data plane, charging,
collective schedules — and overrides only the per-rank hot loops:

* **iteration counting** — instead of one ``np.isin`` membership test per
  rank per loop dimension, each dimension's loop values are mapped to their
  owning processor coordinate once (:meth:`AxisMapping.owners_of`) and
  per-rank counts fall out of a ``bincount`` + gather, so the work is
  O(values) instead of O(p × values).  The counts, innermost extents and
  mask fractions form a machine-free :class:`~repro.simulator.dataplane.
  LoopNestShape` (``_loop_nest_shape``), priced separately per machine
  (``_loop_nest_per_rank``) — the split the trace stage records across;
* **mask fractions** — the forall mask is contracted against per-dimension
  one-hot ownership indicators (integer ``tensordot``), producing the
  mask-true count of every rank's sub-block in one pass;
* **compute-time accrual** — the node cost model is evaluated once per
  *distinct* per-rank profile (:meth:`NodeCostModel.loop_nest_times`; block
  and cyclic layouts admit only a handful of distinct local shapes at any
  ``p``) and broadcast back, with system-load noise materialised for the
  whole phase in one counter-keyed call (:meth:`NoiseModel.compute_batch`;
  each deviate is a pure function of ``(seed, stream, phase, rank)``, so the
  batch equals the loop engine's scalar draws bit for bit);
* **boundary exchanges** — shift partners and boundary-slab sizes come from
  vectorised grid coordinate arithmetic and per-axis local-count tables;
* **collective completion** — per-rank clocks stay an ``np.ndarray`` across
  whole communication phases: shifts, broadcasts, reductions and gathers run
  through the array-clock kernels of :mod:`repro.simulator.collectives`
  (``*_clocks``), communication noise is drawn for the whole phase in one
  keyed batch (:meth:`NoiseModel.communication_batch`), and clock
  advancement is a single vectorised maximum — no per-rank dict is built
  anywhere between phase entry and exit;
* **network draining** — each collective stage reaches the executor's
  :class:`~repro.simulator.network.Network` as a structure-of-arrays batch
  (:meth:`Network.drain_stage`, never the loop engine's heap): link-disjoint
  stages (shift exchanges, crossbar stages, spread fat-tree channels) and
  pair-exchange stages (recursive doubling) are priced by one vectorised
  expression each, and only stages whose links genuinely collide fall back
  to the sorted scalar pass.

Every override is arithmetically identical to the loop engine's scalar code
(integer counting, same expression order, same noise-phase sequence of
counter-keyed per-rank deviates), so the two engines agree on every per-rank
time bit-for-bit; the tier-1 property tests pin this across the whole
machine registry and all topology kinds.

Both engines report their phase timings through :mod:`repro.obs` spans —
``node_cost`` (cost-model sweeps), ``noise`` (batched deviate draws) and
``network`` (collective clock drains) — which is what the profiling script's
``--phase-breakdown`` and every run manifest's ``engine_shares`` read.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..compiler.spmd import LocalLoopNest, SPMDNode
from ..distribution import ArrayDistribution
from ..interpreter.expression_cost import OpCount
from .collectives import (
    allreduce_clocks,
    broadcast_clocks,
    shift_exchange_clocks,
    unstructured_gather_clocks,
)
from .dataplane import LoopNestShape
from .executor import SPMDExecutor
from .node import IterationProfile


class VectorSPMDExecutor(SPMDExecutor):
    """Array-based execution core (``SimulatorOptions(engine="vector")``)."""

    engine_name = "vector"

    # ------------------------------------------------------------------
    # clock bookkeeping
    # ------------------------------------------------------------------

    def _set_clocks_array(self, node: SPMDNode, category: str,
                          targets: np.ndarray) -> None:
        """Array form of the loop engine's ``_set_clocks``: *targets* covers
        every rank."""
        self._charge(node, category, np.maximum(targets - self.clocks, 0.0))

    def _finish_comm_phase(self, node: SPMDNode, targets: np.ndarray,
                           participants: np.ndarray | None = None) -> None:
        """Noise the phase's clock advances and commit them.

        Mirrors the loop engine's ``_apply_comm_noise``: one batched draw
        over exactly the ranks the collective returned (*participants* of a
        shift; everyone otherwise).  Each element is keyed on its **rank**
        and the shared phase counter, so the batch is bit-identical to the
        loop engine's scalar keyed draws.
        """
        entry = self.clocks
        with obs.span("noise"):
            if participants is None:
                noisy = self.noise.communication_batch(targets - entry) + entry
            else:
                idx = np.nonzero(participants)[0]
                noisy = entry.copy()
                noisy[idx] = self.noise.communication_batch(
                    targets[idx] - entry[idx], ranks=idx
                ) + entry[idx]
        self._set_clocks_array(node, "communication", noisy)

    # ------------------------------------------------------------------
    # local loop nests
    # ------------------------------------------------------------------

    def _loop_nest_shape(self, node: LocalLoopNest, record, home_dist,
                         distributed: bool) -> LoopNestShape:
        """Machine-free per-rank shape of one executed loop nest.

        Depends only on the forall record and the compiled mapping, so the
        trace stage records it once and every machine prices the same shape.
        """
        with obs.span("node_cost"):
            p = self.nprocs
            pcoords = home_dist.axis_pcoords() if home_dist is not None else None

            # Per loop dimension: every rank's owned-value count, plus the
            # ownership map needed for the mask contraction.  ``owners`` is
            # None for dimensions whose selector is all-ones (replicated home
            # axis).
            rank_counts: list[np.ndarray] = []
            dim_groups: list[tuple[np.ndarray | None, int,
                                   np.ndarray | None]] = []
            stride1 = False
            innermost = np.ones(p, dtype=np.float64)
            for dim in node.loops:
                values = record.triplet_ranges.get(dim.var.lower())
                if values is None:
                    continue
                if distributed and dim.home_axis is not None and \
                        dim.home_axis < len(home_dist.axes) and \
                        home_dist.axes[dim.home_axis].is_distributed:
                    axis = home_dist.axes[dim.home_axis]
                    owners = axis.owners_of(
                        np.asarray(values, dtype=np.int64)
                        - home_dist.lower_bounds[dim.home_axis])
                    by_pcoord = np.bincount(owners[owners >= 0],
                                            minlength=axis.nprocs)
                    pc = pcoords[:, dim.home_axis]
                    dim_counts = by_pcoord[pc]
                    dim_groups.append((owners, axis.nprocs, pc))
                else:
                    dim_counts = np.full(p, len(values), dtype=np.int64)
                    dim_groups.append((None, 1, None))
                rank_counts.append(dim_counts)
                if dim.home_axis == 0:
                    stride1 = True
                    innermost = dim_counts.astype(np.float64)

            iterations = np.ones(p, dtype=np.float64)
            for dim_counts in rank_counts:
                iterations *= dim_counts
            if not stride1 and rank_counts:
                innermost = rank_counts[-1].astype(np.float64)

            mask_fractions = None
            if record.mask is not None and rank_counts:
                mask_counts = self._mask_counts(record.mask, dim_groups)
                sub_sizes = np.ones(p, dtype=np.int64)
                for dim_counts in rank_counts:
                    sub_sizes *= dim_counts
                fractions = mask_counts / np.maximum(sub_sizes, 1)
                # ranks with an empty iteration space get no mask fraction
                # (negative encodes None for the batched cost model)
                mask_fractions = np.where(iterations > 0, fractions, -1.0)

            return LoopNestShape(
                local_elements=iterations,
                innermost_extents=np.maximum(innermost, 1.0),
                mask_fractions=mask_fractions,
                stride1=stride1 or not distributed,
            )

    def _loop_nest_per_rank(self, node: LocalLoopNest, shape: LoopNestShape,
                            home_dist, distributed: bool, count: OpCount,
                            element_size: int, precision: str) -> np.ndarray:
        """Price one loop-nest shape on this machine, noise included."""
        with obs.span("node_cost"):
            profile = IterationProfile(
                count=count,
                precision=precision,
                element_size=element_size,
                stride1=shape.stride1,
                arrays_touched=max(len(count.arrays_touched), 1),
            )
            raw = self.cost.loop_nest_times(
                profile, depth=len(node.loops),
                local_elements=shape.local_elements,
                innermost_extents=shape.innermost_extents,
                mask_fractions=shape.mask_fractions,
            )
        with obs.span("noise"):
            return self.noise.compute_batch(raw)

    def _mask_counts(self, mask: np.ndarray,
                     dim_groups: list[tuple[np.ndarray | None, int,
                                            np.ndarray | None]]) -> np.ndarray:
        """Mask-true count of every rank's sub-block, via ownership contraction.

        Equivalent to ``np.count_nonzero(mask[np.ix_(*selectors)])`` per rank:
        each loop dimension's axis is contracted with the (values × pcoords)
        one-hot ownership indicator (all-ones column for replicated axes);
        trailing mask axes beyond the loop dimensions are summed outright.
        Integer arithmetic throughout, so counts are exact.
        """
        k = len(dim_groups)
        counts = np.asarray(mask, dtype=np.int64)
        if counts.ndim > k:
            counts = counts.sum(axis=tuple(range(k, counts.ndim)))
        # Contract the last loop axis first; each tensordot removes one value
        # axis and appends that dimension's pcoord axis at the end, so the
        # result tensor carries the group axes in reverse dimension order.
        for d in range(k - 1, -1, -1):
            owners, groups, _pc = dim_groups[d]
            indicator = self._ownership_indicator(owners, groups, counts.shape[d])
            counts = np.tensordot(counts, indicator, axes=([d], [0]))
        p = self.nprocs
        index = tuple(
            pc if pc is not None else np.zeros(p, dtype=np.int64)
            for _owners, _groups, pc in reversed(dim_groups)
        )
        return counts[index]

    @staticmethod
    def _ownership_indicator(owners: np.ndarray | None, groups: int,
                             length: int) -> np.ndarray:
        """(length × groups) one-hot membership matrix of one loop dimension."""
        if owners is None:
            return np.ones((length, groups), dtype=np.int64)
        indicator = np.zeros((owners.shape[0], groups), dtype=np.int64)
        valid = owners >= 0
        indicator[np.nonzero(valid)[0], owners[valid]] = 1
        return indicator

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def _reduction_per_rank(self, dist: ArrayDistribution | None, count: OpCount,
                            total_extent: float, element_size: int,
                            precision: str) -> np.ndarray:
        with obs.span("node_cost"):
            p = self.nprocs
            if dist is not None and not dist.is_replicated:
                shares = dist.local_sizes().astype(np.float64) / max(dist.size, 1)
                local = total_extent * shares
            else:
                local = np.full(p, total_extent, dtype=np.float64)
            profile = IterationProfile(
                count=count,
                precision=precision,
                element_size=element_size,
                stride1=True,
                arrays_touched=max(len(count.arrays_touched), 1),
            )
            raw = self.cost.loop_nest_times(
                profile, depth=1,
                local_elements=local,
                innermost_extents=np.maximum(local, 1.0),
            )
        with obs.span("noise"):
            return self.noise.compute_batch(raw)

    # ------------------------------------------------------------------
    # shifts
    # ------------------------------------------------------------------

    def _shift_copy_per_rank(self, dist: ArrayDistribution) -> np.ndarray:
        with obs.span("node_cost"):
            proc = self.machine.processing
            raw = dist.local_sizes().astype(np.float64) * (
                proc.assignment_overhead + self.machine.memory.hit_time * 2
            )
        with obs.span("noise"):
            return self.noise.compute_batch(raw)

    def _shift_spec_arrays(self, dist: ArrayDistribution, axis: int, axis_map,
                           offset: int, element_size: int, direction: int,
                           clamp_shift_axis: bool,
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One boundary shift as a structure-of-arrays stage.

        Returns ``(senders, receivers, nbytes)`` arrays over the exchanging
        ranks — the form :meth:`Network.drain_stage` consumes directly — and
        records the stage in ``comm_stats`` exactly like the loop engine's
        per-pair bookkeeping.
        """
        p = self.nprocs
        grid = dist.grid
        coords = grid.coords_array()
        grid_axis = axis_map.grid_axis
        partner_coords = coords.copy()
        partner_coords[:, grid_axis] = \
            (coords[:, grid_axis] + direction) % grid.shape[grid_axis]
        partners = grid.linear_ranks(partner_coords)

        pcoords = dist.axis_pcoords()
        boundary = np.ones(p, dtype=np.float64)
        for axis_no, ax in enumerate(dist.axes):
            table = ax.local_counts()
            if table.shape[0] == 1:
                local = np.full(p, int(table[0]), dtype=np.int64)
            else:
                local = table[pcoords[:, axis_no]]
            if axis_no == axis:
                shifted = np.maximum(local, 1) if clamp_shift_axis else local
                factor = np.minimum(max(offset, 1), shifted)
            else:
                factor = np.maximum(local, 1)
            boundary *= factor
        nbytes = (boundary * element_size).astype(np.int64)

        ranks = np.arange(p, dtype=np.int64)
        exchanging = partners != ranks
        src = ranks[exchanging]
        dst = partners[exchanging]
        pair_bytes = nbytes[exchanging]
        self.comm_stats.messages += src.shape[0]
        self.comm_stats.bytes += int(pair_bytes.sum())
        self.comm_stats.operations += src.shape[0]
        return src, dst, pair_bytes

    # ------------------------------------------------------------------
    # communication phases (array clocks end to end)
    # ------------------------------------------------------------------

    def _shift_exchange(self, node: SPMDNode, dist: ArrayDistribution, axis: int,
                        axis_map, offset: int, element_size: int, direction: int,
                        clamp_shift_axis: bool) -> None:
        """Array-clock boundary shift: the exchange prices a
        structure-of-arrays stage and clocks never leave array form."""
        src, dst, nbytes = self._shift_spec_arrays(
            dist, axis, axis_map, offset, element_size, direction,
            clamp_shift_axis)
        with obs.span("network"):
            targets, participants = shift_exchange_clocks(
                self.network, src, dst, nbytes, self.clocks,
                software_overhead=self.collective_overhead)
        self._finish_comm_phase(node, targets, participants)

    def _collective(self, node: SPMDNode, kind: str, nbytes: int) -> None:
        overhead = self.collective_overhead
        with obs.span("network"):
            if kind == "broadcast":
                targets = broadcast_clocks(self.network, 0, self.clocks, nbytes,
                                           software_overhead=overhead)
            elif kind == "reduce":
                targets = allreduce_clocks(
                    self.network, self.clocks, nbytes,
                    combine_time=self.machine.processing.flop_time_sp,
                    software_overhead=overhead)
            else:
                targets = unstructured_gather_clocks(
                    self.network, self.clocks, nbytes,
                    software_overhead=overhead)
        self._finish_comm_phase(node, targets)
