"""Collective communication operations built on the message-level network model.

These are the simulator-side counterparts of the HPF/Fortran 90D run-time
library's collective routines (the ones the paper parameterised by
benchmarking): nearest-neighbour shift exchange, tree broadcast, pairwise
allreduce / allgather, and the unstructured gather used for irregular
references.  The stage structure of each collective comes from the network
topology's own schedules (:meth:`Topology.broadcast_schedule` /
:meth:`Topology.exchange_schedule` — binomial / recursive doubling on the
hypercube and the switch, row–column trees on the mesh), the same schedules
the analytic models in :mod:`repro.system.comm_models` price statically.
Each routine takes the per-rank clocks at phase entry and returns the
per-rank completion times.

Two invariants every routine keeps (regression-tested):

* the returned mapping is always a **fresh dict** — never the caller's
  ``clocks`` object — so no simulated phase can leak clock state into the
  next through a shared mutable;
* the input ``clocks`` mapping is never mutated.

**Array-clock kernels** (the ``*_clocks`` functions) are the scaled form the
``vector`` engine actually calls: per-rank clocks stay an ``np.ndarray``
indexed by rank end to end — phase entry clocks in, phase completion clocks
out — and each stage goes through :meth:`Network.drain_stage` as a
structure-of-arrays batch, so no per-rank dict is ever built between phases.
Every kernel applies element by element exactly the arithmetic of its
dict-based twin (same ``max`` placement, same operation order), so the two
forms are bit-identical; the dict-based routines remain the oracle the
``loop`` engine runs, draining every stage through the heap
(:meth:`Network.transfer`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .network import Message, Network


#: µs per byte of unpack/index work charged by the unstructured gather (the
#: run-time library's index-translation software overhead).
_UNPACK_US_PER_BYTE = 0.002


def _as_list(clocks: Mapping[int, float], ranks: Sequence[int]) -> dict[int, float]:
    return {r: float(clocks.get(r, 0.0)) for r in ranks}


def shift_exchange(
    network: Network,
    pairs: Sequence[tuple[int, int]],
    nbytes_per_pair: Mapping[tuple[int, int], int] | int,
    clocks: Mapping[int, float],
    software_overhead: float = 0.0,
) -> dict[int, float]:
    """Each (sender, receiver) pair exchanges a boundary slab.

    Returns updated completion times for every rank that participates.
    """
    ranks = sorted({r for pair in pairs for r in pair})
    done = _as_list(clocks, ranks)
    if not pairs:
        return done

    messages = []
    for (src, dst) in pairs:
        nbytes = nbytes_per_pair if isinstance(nbytes_per_pair, int) \
            else int(nbytes_per_pair.get((src, dst), 0))
        messages.append(Message(
            src=src, dst=dst, nbytes=nbytes,
            start_time=done.get(src, 0.0) + software_overhead,
            tag="shift",
        ))
    result = network.transfer(messages)
    for rank in ranks:
        done[rank] = max(done[rank] + software_overhead, result.completion(rank, done[rank]))
    return done


def broadcast(
    network: Network,
    root: int,
    ranks: Sequence[int],
    nbytes: int,
    clocks: Mapping[int, float],
    software_overhead: float = 0.0,
) -> dict[int, float]:
    """Tree broadcast from *root* to *ranks* along the topology's schedule."""
    ranks = sorted(set(ranks))
    done = _as_list(clocks, ranks)
    if len(ranks) <= 1:
        return done

    # order ranks with the root first; the schedule works on positions
    ordered = [root] + [r for r in ranks if r != root]
    schedule = network.topology.broadcast_schedule(len(ordered))
    have = {root: done[root] + software_overhead}

    for stage_no, stage in enumerate(schedule):
        messages = []
        for sender_pos, receiver_pos in stage:
            sender = ordered[sender_pos]
            receiver = ordered[receiver_pos]
            if sender not in have or receiver in have:
                continue
            messages.append(Message(src=sender, dst=receiver, nbytes=nbytes,
                                    start_time=have[sender], tag=f"bcast{stage_no}"))
        if not messages:
            continue
        result = network.transfer(messages)
        for msg in messages:
            arrival = max(result.completion(msg.dst, 0.0), done[msg.dst])
            have[msg.dst] = arrival
            have[msg.src] = max(have[msg.src], msg.send_complete)

    for rank in ranks:
        done[rank] = max(done[rank], have.get(rank, done[rank]))
    return done


def _pairwise_stages(
    network: Network,
    ranks: Sequence[int],
    done: dict[int, float],
    nbytes_for_stage,
    tag: str,
    post_exchange,
) -> dict[int, float]:
    """Drive the topology's pairwise-exchange schedule over *ranks*.

    ``nbytes_for_stage(stage_no)`` sizes each stage's messages;
    ``post_exchange(old, arrival)`` computes a rank's new clock from its
    pre-stage clock and the arrival time of its partner's block.
    """
    p = len(ranks)
    schedule = network.topology.exchange_schedule(p)
    for stage_no, stage in enumerate(schedule):
        nbytes = nbytes_for_stage(stage_no)
        messages = []
        partner_of: dict[int, int] = {}
        for i, j in stage:
            a, b = ranks[i], ranks[j]
            partner_of[a] = b
            partner_of[b] = a
            messages.append(Message(src=a, dst=b, nbytes=nbytes,
                                    start_time=done[a], tag=f"{tag}{stage_no}"))
            messages.append(Message(src=b, dst=a, nbytes=nbytes,
                                    start_time=done[b], tag=f"{tag}{stage_no}"))
        if not messages:
            continue
        result = network.transfer(messages)
        new_done = dict(done)
        for rank in ranks:
            if rank not in partner_of:
                continue
            arrival = result.recv_complete.get(rank, done[rank])
            new_done[rank] = post_exchange(done[rank], arrival)
        done = new_done
    return done


def allreduce(
    network: Network,
    ranks: Sequence[int],
    nbytes: int,
    clocks: Mapping[int, float],
    combine_time: float = 0.5,
    software_overhead: float = 0.0,
) -> dict[int, float]:
    """Pairwise-exchange allreduce (result available on every rank)."""
    ranks = sorted(set(ranks))
    done = {r: float(clocks.get(r, 0.0)) + software_overhead for r in ranks}
    if len(ranks) <= 1:
        return done
    return _pairwise_stages(
        network, ranks, done,
        nbytes_for_stage=lambda stage: nbytes,
        tag="allreduce",
        post_exchange=lambda old, arrival: max(old, arrival) + combine_time,
    )


def allgather(
    network: Network,
    ranks: Sequence[int],
    nbytes_per_rank: int,
    clocks: Mapping[int, float],
    software_overhead: float = 0.0,
) -> dict[int, float]:
    """Pairwise-exchange allgather: block sizes double each stage."""
    ranks = sorted(set(ranks))
    done = {r: float(clocks.get(r, 0.0)) + software_overhead for r in ranks}
    if len(ranks) <= 1:
        return done
    return _pairwise_stages(
        network, ranks, done,
        nbytes_for_stage=lambda stage: nbytes_per_rank * (1 << stage),
        tag="allgather",
        post_exchange=lambda old, arrival: max(old, arrival),
    )


def unstructured_gather(
    network: Network,
    ranks: Sequence[int],
    nbytes_per_rank: int,
    clocks: Mapping[int, float],
    software_overhead: float = 0.0,
) -> dict[int, float]:
    """General gather of off-processor data (irregular references).

    The run-time library resolves an irregular pattern into a sequence of
    bulk exchanges; we model it as an allgather of the referenced blocks plus
    an index-translation software overhead proportional to the data moved.
    """
    done = allgather(network, ranks, nbytes_per_rank, clocks, software_overhead)
    unpack = nbytes_per_rank * max(len(ranks) - 1, 0) * _UNPACK_US_PER_BYTE
    return {rank: t + unpack for rank, t in done.items()}


# ---------------------------------------------------------------------------
# array-clock kernels (the vector engine's collective core)
# ---------------------------------------------------------------------------
#
# Clocks are an ``np.ndarray`` indexed by rank over the whole partition
# (ranks 0..p-1, which is what the executor always simulates); every stage is
# priced as a structure-of-arrays batch through ``Network.drain_stage``.  Each
# kernel mirrors its dict-based twin above operation for operation, so the
# returned times are bit-identical — the dict routines stay the ``loop``
# engine's oracle, and the regression tests compare the two directly.


def _exchange_stages(network: Network, p: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Topology exchange schedule as ``(senders, partners, participants)`` arrays.

    Positions equal ranks because the kernels always run over the full
    partition 0..p-1.  Cached on the network: schedules are pure functions of
    the topology and p.
    """
    key = ("exchange", p)
    stages = network._schedule_arrays.get(key)
    if stages is None:
        stages = []
        for stage in network.topology.exchange_schedule(p):
            i_arr = np.fromiter((i for i, _ in stage), dtype=np.int64,
                                count=len(stage))
            j_arr = np.fromiter((j for _, j in stage), dtype=np.int64,
                                count=len(stage))
            parts = np.unique(np.concatenate([i_arr, j_arr]))
            stages.append((i_arr, j_arr, parts))
        network._schedule_arrays[key] = stages
    return stages


def _broadcast_stages(network: Network, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Topology broadcast schedule as ``(sender, receiver)`` position arrays."""
    key = ("broadcast", p)
    stages = network._schedule_arrays.get(key)
    if stages is None:
        stages = []
        for stage in network.topology.broadcast_schedule(p):
            s_arr = np.fromiter((s for s, _ in stage), dtype=np.int64,
                                count=len(stage))
            r_arr = np.fromiter((r for _, r in stage), dtype=np.int64,
                                count=len(stage))
            stages.append((s_arr, r_arr))
        network._schedule_arrays[key] = stages
    return stages


def shift_exchange_clocks(
    network: Network,
    src: np.ndarray,
    dst: np.ndarray,
    nbytes: np.ndarray,
    clocks: np.ndarray,
    software_overhead: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Array-clock :func:`shift_exchange` over a structure-of-arrays stage.

    Returns ``(new_clocks, participants)``: the updated full-partition clock
    array (non-participants keep their entry clocks) and the boolean mask of
    ranks that exchanged — the executor draws communication noise for exactly
    those ranks, keyed per rank, matching the dict path.
    """
    p = clocks.shape[0]
    new = clocks.copy()
    participants = np.zeros(p, dtype=bool)
    if src.shape[0] == 0:
        return new, participants
    participants[src] = True
    participants[dst] = True
    send_done, recv_done = network.drain_stage(
        clocks[src] + software_overhead, src, dst, nbytes)
    completion = np.maximum(send_done[participants], recv_done[participants])
    new[participants] = np.maximum(clocks[participants] + software_overhead,
                                   completion)
    return new, participants


def broadcast_clocks(
    network: Network,
    root: int,
    clocks: np.ndarray,
    nbytes: int,
    software_overhead: float = 0.0,
) -> np.ndarray:
    """Array-clock :func:`broadcast` from *root* over the full partition."""
    p = clocks.shape[0]
    if p <= 1:
        return clocks.copy()
    order = np.arange(p, dtype=np.int64) if root == 0 else np.fromiter(
        (r for r in range(p) if r != root), dtype=np.int64, count=p - 1)
    if root != 0:
        order = np.concatenate([np.array([root], dtype=np.int64), order])

    have = np.full(p, -np.inf)
    have[root] = clocks[root] + software_overhead
    for s_pos, r_pos in _broadcast_stages(network, p):
        senders = order[s_pos]
        receivers = order[r_pos]
        active = (have[senders] > -np.inf) & (have[receivers] == -np.inf)
        if not active.any():
            continue
        src = senders[active]
        dst = receivers[active]
        seen = np.zeros(p, dtype=bool)
        seen[src] = True
        src_distinct = int(np.count_nonzero(seen)) == src.shape[0]
        seen[:] = False
        seen[dst] = True
        dst_distinct = int(np.count_nonzero(seen)) == dst.shape[0]
        if not src_distinct or not dst_distinct:
            # a stage that reuses a sender or receiver needs the sequential
            # dict semantics; no registered schedule does this, but stay exact
            done = broadcast(network, root, list(range(p)),
                             nbytes, dict(enumerate(clocks.tolist())),
                             software_overhead=software_overhead)
            return np.fromiter((done[r] for r in range(p)), dtype=np.float64,
                               count=p)
        sizes = np.full(src.shape[0], int(nbytes), dtype=np.int64)
        send_done, recv_done = network.drain_stage(have[src], src, dst, sizes)
        have[dst] = np.maximum(np.maximum(send_done[dst], recv_done[dst]),
                               clocks[dst])
        have[src] = np.maximum(have[src], send_done[src])
    return np.maximum(clocks, have)


def allreduce_clocks(
    network: Network,
    clocks: np.ndarray,
    nbytes: int,
    combine_time: float = 0.5,
    software_overhead: float = 0.0,
) -> np.ndarray:
    """Array-clock :func:`allreduce` over the full partition."""
    return _pairwise_stages_clocks(
        network, clocks + software_overhead,
        nbytes_for_stage=lambda stage: nbytes,
        combine_time=combine_time,
    )


def allgather_clocks(
    network: Network,
    clocks: np.ndarray,
    nbytes_per_rank: int,
    software_overhead: float = 0.0,
) -> np.ndarray:
    """Array-clock :func:`allgather` over the full partition."""
    return _pairwise_stages_clocks(
        network, clocks + software_overhead,
        nbytes_for_stage=lambda stage: nbytes_per_rank * (1 << stage),
        combine_time=None,
    )


def unstructured_gather_clocks(
    network: Network,
    clocks: np.ndarray,
    nbytes_per_rank: int,
    software_overhead: float = 0.0,
) -> np.ndarray:
    """Array-clock :func:`unstructured_gather` over the full partition."""
    done = allgather_clocks(network, clocks, nbytes_per_rank, software_overhead)
    unpack = nbytes_per_rank * max(clocks.shape[0] - 1, 0) * _UNPACK_US_PER_BYTE
    return done + unpack


def _pairwise_stages_clocks(
    network: Network,
    done: np.ndarray,
    nbytes_for_stage,
    combine_time: float | None,
) -> np.ndarray:
    """Drive the exchange schedule with array clocks (allreduce/allgather core).

    ``combine_time`` of None means the allgather update ``max(old, arrival)``;
    a float adds the reduction-combine cost on top, exactly as the dict-based
    ``post_exchange`` closures do.
    """
    p = done.shape[0]
    if p <= 1:
        return done
    for stage_no, (i_arr, j_arr, parts) in enumerate(_exchange_stages(network, p)):
        size = int(nbytes_for_stage(stage_no))
        src = np.concatenate([i_arr, j_arr])
        dst = np.concatenate([j_arr, i_arr])
        sizes = np.full(src.shape[0], size, dtype=np.int64)
        _send_done, recv_done = network.drain_stage(done[src], src, dst, sizes)
        arrival = recv_done[parts]          # every participant receives once
        if combine_time is None:
            done[parts] = np.maximum(done[parts], arrival)
        else:
            done[parts] = np.maximum(done[parts], arrival) + combine_time
    return done
