"""The ``sweep`` workload: a serial design-space campaign, predict, measure.

One round is a predict pass over the whole suite and a measure pass over
three programs, each pass a ``run_campaign(..., executor="serial")`` with a
fresh ``ResultStore`` and cold stage caches.  The seed orders the points
(``strategy="random"`` over every point is a seeded permutation), which
decides how the bounded compile cache behaves, and seeds the simulator's
noise.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import tempfile
import time

from repro import stages
from repro.compiler import compile_source
from repro.explore import ResultStore, ScenarioSpace, run_campaign
from repro.interpreter import interpret
from repro.simulator import SimulatorOptions, simulate
from repro.suite import all_entries, get_entry
from repro.system import get_machine, machine_names

import common
import hostspeed

PREDICT_SIZES = tuple(2 ** k for k in range(4, 13))        # 16 .. 4096
PREDICT_PROCS = (4, 16, 64)
MEASURE_APPS = ("laplace_block_star", "finance", "lfk1")
MEASURE_PROCS = (4, 8, 16, 32)
MEASURE_MACHINES = ("ipsc860", "paragon", "cluster", "modern-cluster")
#: ``--seed 0`` runs the simulator at its shipped default seed.
SIM_SEED_BASE = SimulatorOptions().seed
#: Points re-derived by the oracles after the timed region.
PREDICT_ORACLE_POINTS = 64
MEASURE_ORACLE_POINTS = 12
SECONDS_PER_ROUND = 10.0


def predict_valid(point) -> bool:
    """At least four elements per processor."""
    return point.size >= 4 * point.nprocs


def measure_valid(point) -> bool:
    """The last three of the program's paper sizes."""
    return point.size in get_entry(point.app).sizes[-3:]


class Sweep:
    name = "sweep"
    HEADLINES = ("predict_points_per_s", "measure_points_per_s")

    def __init__(self, seed: int):
        self.seed = seed
        self.sim_options = SimulatorOptions(seed=SIM_SEED_BASE + seed)
        self.predict_space = ScenarioSpace(
            apps=tuple(all_entries()), sizes=PREDICT_SIZES,
            proc_counts=PREDICT_PROCS, machines=tuple(machine_names()))
        self.predict_points = self.predict_space.expand(predict_valid)
        measure_sizes = sorted({size for app in MEASURE_APPS
                                for size in get_entry(app).sizes[-3:]})
        self.measure_space = ScenarioSpace(
            apps=MEASURE_APPS, sizes=tuple(measure_sizes),
            proc_counts=MEASURE_PROCS, machines=MEASURE_MACHINES)
        self.measure_points = self.measure_space.expand(measure_valid)
        self.tmpdir = tempfile.mkdtemp(prefix="sweep-", dir=common.OUT_DIR)
        self.rounds: list[dict] = []

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / SECONDS_PER_ROUND))

    def _pass(self, mode: str, space, points, where, index: int):
        store = ResultStore(os.path.join(self.tmpdir,
                                         f"{mode}-{index}.jsonl"))
        stages.clear_stage_caches()
        start = time.perf_counter()
        run = run_campaign(space, name=f"sweep-{mode}", mode=mode,
                           strategy="random", samples=len(points),
                           seed=self.seed, where=where, store=store,
                           simulator_options=self.sim_options,
                           executor="serial")
        end = time.perf_counter()
        return run, store, start, end

    def run(self, rounds: int, calibrate: bool = False) -> dict:
        sampler = hostspeed.Sampler() if calibrate else None
        phases = []
        with sampler or contextlib.nullcontext():
            for index in range(rounds):
                predict, p_store, p0, p1 = self._pass(
                    "predict", self.predict_space, self.predict_points,
                    predict_valid, index)
                measure, m_store, m0, m1 = self._pass(
                    "measure", self.measure_space, self.measure_points,
                    measure_valid, index)
                phases += [("predict", p0, p1), ("measure", m0, m1)]
                self.rounds.append({"predict": predict, "measure": measure,
                                    "stores": (p_store.path, m_store.path)})
        n_predict, n_measure = len(self.predict_points), \
            len(self.measure_points)
        predict_s = [end - start for name, start, end in phases
                     if name == "predict"]
        measure_s = [end - start for name, start, end in phases
                     if name == "measure"]
        samples = {
            "fast_path_ms": [t * 1e3 / n_predict for t in predict_s],
            "slow_path_ms": [t * 1e3 / n_measure for t in measure_s],
            "predict_points_per_s": [n_predict / t for t in predict_s],
            "measure_points_per_s": [n_measure / t for t in measure_s],
        }
        if sampler is not None:
            samples["raw_fast_path_ms"] = samples["fast_path_ms"]
            samples["raw_slow_path_ms"] = samples["slow_path_ms"]
            samples["fast_path_ms"] = [
                sampler.normalise(start, end) * 1e3 / n_predict
                for name, start, end in phases if name == "predict"]
            samples["slow_path_ms"] = [
                sampler.normalise(start, end) * 1e3 / n_measure
                for name, start, end in phases if name == "measure"]
        return {
            "samples": samples,
            "phases": phases,
            "wall_s": sum(end - start for _, start, end in phases),
            "attempted": rounds * (len(self.predict_points)
                                   + len(self.measure_points)),
            "digest": common.digest(self._outputs(self.rounds[0])),
        }

    @staticmethod
    def _outputs(round_) -> list:
        return sorted((r.key, r.estimated_us, r.measured_us)
                      for mode in ("predict", "measure")
                      for r in round_[mode].results)

    # -- output checks (outside the timed region) -------------------------

    def check(self) -> list[str]:
        failures = []
        first = self.rounds[0]
        for index, round_ in enumerate(self.rounds):
            for mode, expected in (("predict", self.predict_points),
                                   ("measure", self.measure_points)):
                run = round_[mode]
                if len(run.results) != len(expected) or \
                        run.evaluated != len(expected):
                    failures.append(f"round {index} {mode}: "
                                    f"{len(run.results)} results, "
                                    f"{run.evaluated} evaluated, "
                                    f"{len(expected)} points")
            for path, mode in zip(round_["stores"], ("predict", "measure")):
                if len(ResultStore(path)) != len(round_[mode].results):
                    failures.append(f"round {index}: store {mode} holds "
                                    f"{len(ResultStore(path))} records")
            if self._outputs(round_) != self._outputs(first):
                failures.append(f"round {index} differs from round 0")
        rng = random.Random(self.seed)
        predicted = first["predict"].results
        for result in rng.sample(predicted,
                                 min(PREDICT_ORACLE_POINTS, len(predicted))):
            failures += self._check_predict(result)
        measured = first["measure"].results
        for result in rng.sample(measured,
                                 min(MEASURE_ORACLE_POINTS, len(measured))):
            failures += self._check_measure(result)
        return failures

    @staticmethod
    def _compile(point):
        entry = get_entry(point.app)
        params = entry.params_for(point.size)
        params.update(dict(point.params))
        compiled = compile_source(entry.source, name=entry.key,
                                  nprocs=point.nprocs,
                                  grid_shape=point.grid_shape, params=params)
        machine = get_machine(point.machine, point.nprocs,
                              topology_shape=point.topology_shape)
        return entry, compiled, machine

    def _check_predict(self, result) -> list[str]:
        """Uncached compile + interpret must reproduce the campaign point."""
        point = result.point
        entry, compiled, machine = self._compile(point)
        estimate = interpret(compiled, machine,
                             options=entry.interpreter_options(point.size))
        got = (estimate.predicted_time_us, estimate.total.computation,
               estimate.total.communication, estimate.total.overhead)
        want = (result.estimated_us, result.comp_us, result.comm_us,
                result.ovhd_us)
        if got != want:
            return [f"predict {point.label()}: oracle {got} != {want}"]
        return []

    def _check_measure(self, result) -> list[str]:
        """The loop engine must reproduce the point bit for bit."""
        point = result.point
        _, compiled, machine = self._compile(point)
        options = SimulatorOptions(seed=self.sim_options.seed, engine="loop")
        loop = simulate(compiled, machine, options=options).measured_time_us
        if loop != result.measured_us:
            return [f"measure {point.label()}: loop {loop!r} != "
                    f"{result.measured_us!r}"]
        return []

    def close(self) -> None:
        shutil.rmtree(self.tmpdir, ignore_errors=True)
