"""The ``scale`` workload: single large simulated runs.

The scale scenario of ``benchmarks/test_bench_simulator_scale.py``
(laplace_block_star, n=64, maxiter=20) at three points: modern-cluster
p=1024, modern-cluster p=8192 and torus-cluster p=1024.  Set-up compiles
each point and makes one untimed run, which fills the module-level
topology route caches; the timed region then cycles through the points.
The seed only seeds the simulator's noise.
"""

from __future__ import annotations

import contextlib
import hashlib
import time

from repro.compiler import compile_source
from repro.simulator import SimulatorOptions, simulate
from repro.suite import get_entry
from repro.system import get_machine

import common
import hostspeed

APP = "laplace_block_star"
SIZE = 64
MAXITER = 20.0
POINTS = (
    ("modern_p1024", "modern-cluster", 1024),
    ("modern_p8192", "modern-cluster", 8192),
    ("torus_p1024", "torus-cluster", 1024),
)
SIM_SEED_BASE = SimulatorOptions().seed
#: Outputs at ``--seed 0`` (the simulator's shipped seed): measured time
#: per point, and the data-plane checksum, which no seed changes.
PINNED_TIME_US = {"modern_p1024": 4435.0, "modern_p8192": 4435.0,
                  "torus_p1024": 12134.0}
PINNED_CHECKSUM = 468.41684241667645


def _output(result) -> dict:
    ranks = repr(result.per_rank_us).encode()
    return {"measured_time_us": result.measured_time_us,
            "array_checksum": result.array_checksum,
            "per_rank_sha": hashlib.sha256(ranks).hexdigest()[:16]}


class Scale:
    name = "scale"
    HEADLINES = ("sim_s_modern_p1024", "sim_s_modern_p8192",
                 "sim_s_torus_p1024")

    def __init__(self, seed: int):
        self.seed = seed
        self.options = SimulatorOptions(seed=SIM_SEED_BASE + seed)
        entry = get_entry(APP)
        params = entry.params_for(SIZE)
        params["maxiter"] = MAXITER
        self.points = []
        for label, machine_name, nprocs in POINTS:
            compiled = compile_source(entry.source, name=entry.key,
                                      nprocs=nprocs, params=params)
            machine = get_machine(machine_name, nprocs)
            simulate(compiled, machine, options=self.options)
            self.points.append((label, compiled, machine))
        self.outputs: list[dict] = []

    def rounds_for(self, seconds: float) -> float:
        return seconds

    def run(self, seconds: float, calibrate: bool = False) -> dict:
        """Cycle through the points until *seconds* pass (two cycles at
        least)."""
        sampler = hostspeed.Sampler() if calibrate else None
        phases = []
        began = time.perf_counter()
        with sampler or contextlib.nullcontext():
            while len(self.outputs) < 2 or \
                    time.perf_counter() - began < seconds:
                cycle = {}
                for label, compiled, machine in self.points:
                    start = time.perf_counter()
                    result = simulate(compiled, machine,
                                      options=self.options)
                    phases.append((label, start, time.perf_counter()))
                    cycle[label] = _output(result)
                self.outputs.append(cycle)
        raw = {label: [end - start for name, start, end in phases
                       if name == label] for label, _, _ in self.points}
        times = raw if sampler is None else {
            label: [sampler.normalise(start, end)
                    for name, start, end in phases if name == label]
            for label, _, _ in self.points}
        big = [a + b for a, b in zip(times["modern_p8192"],
                                     times["torus_p1024"])]
        samples = {
            "fast_path_ms": [t * 1e3 for t in times["modern_p1024"]],
            "slow_path_ms": [t * 1e3 for t in big],
        }
        samples.update((f"sim_s_{label}", raw[label]) for label in raw)
        if sampler is not None:
            samples["raw_fast_path_ms"] = [t * 1e3
                                           for t in raw["modern_p1024"]]
            samples["raw_slow_path_ms"] = [
                (a + b) * 1e3 for a, b in zip(raw["modern_p8192"],
                                              raw["torus_p1024"])]
        return {
            "samples": samples,
            "phases": phases,
            "wall_s": sum(end - start for _, start, end in phases),
            "attempted": len(self.outputs) * len(self.points),
            "digest": common.digest(self.outputs[0]),
        }

    def check(self) -> list[str]:
        failures = [f"cycle {i} differs from cycle 0"
                    for i, cycle in enumerate(self.outputs)
                    if cycle != self.outputs[0]]
        first = self.outputs[0]
        for label, output in first.items():
            if output["array_checksum"] != PINNED_CHECKSUM:
                failures.append(f"{label}: checksum "
                                f"{output['array_checksum']!r} != pinned")
        if self.seed == 0:
            for label, output in first.items():
                if output["measured_time_us"] != PINNED_TIME_US[label]:
                    failures.append(
                        f"{label}: measured {output['measured_time_us']!r}"
                        f" != pinned {PINNED_TIME_US[label]!r}")
            return failures
        # any other seed: the loop engine is the oracle at modern p=1024
        label, compiled, machine = self.points[0]
        loop = simulate(compiled, machine, options=SimulatorOptions(
            seed=self.options.seed, engine="loop"))
        if _output(loop) != first[label]:
            failures.append(f"{label}: loop {_output(loop)} != vector "
                            f"{first[label]}")
        return failures

    def close(self) -> None:
        pass
