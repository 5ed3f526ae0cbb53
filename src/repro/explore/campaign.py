"""Campaign runner: evaluate a scenario space through the predictor.

A campaign is the executable form of the paper's design-tuning workflow: take
a declarative :class:`~repro.explore.space.ScenarioSpace`, evaluate each
point through ``repro.predict`` (the interpretation parse) and/or
``repro.measure`` (the execution simulator), and collect the results for
ranking and reporting.  Five search strategies are provided, in the spirit
of ArchGym's exploration harnesses around fast cost models:

* ``grid``      — exhaustive sweep of every valid point,
* ``random``    — seeded uniform sampling of the space (``samples`` points),
* ``hillclimb`` — greedy local search: start somewhere, evaluate all
  one-axis neighbours, move to the best improvement, stop at a local
  optimum; the visited trajectory is recorded ArchGym-style,
* ``genetic``   — a small generational GA: tournament selection, per-axis
  crossover (derived fields rebuilt), one-axis mutation, elitism; the best
  point of each generation is recorded on the trajectory,
* ``anneal``    — simulated annealing over the one-axis neighbour graph
  with a geometric temperature schedule and Metropolis acceptance,
* ``bandit``    — a UCB1 bandit over *directive arms*: each application
  (directive alternative) is an arm, and the evaluation budget
  (``max_steps`` pulls) concentrates on the arms whose sampled points
  rank best; ``ucb_c`` scales the exploration bonus.

All strategies are deterministic for a fixed ``seed``.

Points are evaluated **in parallel** through :mod:`concurrent.futures` and
**memoised** twice: within a run (duplicate points are evaluated once) and
across runs through the optional persistent
:class:`~repro.explore.store.ResultStore` — a re-run of a finished campaign
touches the store only.  The default ``executor="auto"`` runs predict-only
campaigns on a thread pool (interpretation is cheap and releases the GIL
poorly but briefly) and switches to a :class:`ProcessPoolExecutor` when
every point requests the execution simulator (``mode`` of ``measure`` /
``both``).  Simulation-heavy campaigns also prefer the simulator's
**vector engine** (``SimulatorOptions(engine="vector")``, the default): each
simulated point computes its per-rank state in bulk, which is what makes
p ≥ 64 sweeps affordable; pass explicit ``simulator_options`` to pin the
``loop`` oracle instead.
"""

from __future__ import annotations

import math
import multiprocessing
import time as _time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

from .. import obs, stages
from ..simulator import SimulatorOptions
from ..suite import get_entry
from ..system import Machine, get_machine, resolve_machine
from .space import ProgramSpec, ScenarioError, ScenarioPoint, ScenarioSpace
from .store import ResultStore, ScenarioResult

STRATEGIES = ("grid", "random", "hillclimb", "genetic", "anneal", "bandit")
MODES = ("predict", "measure", "both")
EXECUTORS = ("auto", "thread", "process", "serial")

#: ``(point) -> Machine`` override used by workbench presets that receive a
#: pre-built Machine instance instead of a registry name.
MachineResolver = Callable[[ScenarioPoint], Machine]


def resolve_campaign_machine(
    machine: Machine | str,
) -> tuple[str, MachineResolver | None]:
    """Campaign-facing (machine name, resolver) for a name or an instance.

    Registry names need no resolver; a pre-built :class:`Machine` rides along
    as a resolver closure and contributes its ``name`` to scenario hashing.
    """
    if isinstance(machine, str):
        return machine, None
    return machine.name, lambda point: resolve_machine(machine, point.nprocs)


def compile_scenario(point: ScenarioPoint, program: ProgramSpec | None = None):
    """(compiled program, interpreter options) for one scenario point.

    The single compile path every scenario evaluation goes through — the
    campaign worker, the advisor's baseline diagnosis and the serve layer's
    request workers share it, so the program/params/options resolution can
    never diverge between them.  Compilation is memoised through the
    package-wide compile-stage cache (:func:`repro.stages.compile_cached`):
    the machine is not part of the key, so cross-machine sweeps reuse one
    compile per (program, size, nprocs, layout) cell.
    """
    if program is not None:
        source, name = program.source, program.key
        params = program.params_for(point.size)
        options = None
    else:
        entry = get_entry(point.app)
        source, name = entry.source, entry.key
        params = entry.params_for(point.size)
        options = entry.interpreter_options(point.size)
    params.update({k: v for k, v in point.params})
    with obs.span("compile", app=point.app, nprocs=point.nprocs):
        compiled = stages.compile_cached(source, name=name,
                                         nprocs=point.nprocs,
                                         grid_shape=point.grid_shape,
                                         params=params)
    return compiled, options


def evaluate_point(
    point: ScenarioPoint,
    mode: str = "predict",
    program: ProgramSpec | None = None,
    machine_resolver: MachineResolver | None = None,
    simulator_options: SimulatorOptions | None = None,
) -> ScenarioResult:
    """Compile and evaluate one scenario point (the campaign worker).

    Top-level and closure-free in its default configuration, so it can run
    under a :class:`~concurrent.futures.ProcessPoolExecutor` as well as the
    default thread pool.
    """
    if mode not in MODES:
        raise ScenarioError(f"unknown campaign mode {mode!r}; known: {MODES}")
    started = _time.perf_counter()
    with obs.span("point", app=point.app, machine=point.machine,
                  nprocs=point.nprocs, mode=mode):
        compiled, options = compile_scenario(point, program)
        if machine_resolver is not None:
            machine = machine_resolver(point)
        else:
            machine = get_machine(point.machine, point.nprocs,
                                  topology_shape=point.topology_shape)

        compile_key = stages.compile_key_of(compiled)
        estimated = measured = None
        comp = comm = ovhd = 0.0
        if mode in ("predict", "both"):
            # the price stage is cached per (compile key, machine, options);
            # a machine_resolver closure builds machines the registry cannot
            # reproduce, so those points bypass the cache
            estimate = stages.price_cached(
                compiled, machine,
                compile_key=compile_key,
                options=options, cacheable=machine_resolver is None)
            estimated = estimate.predicted_time_us
            comp = estimate.total.computation
            comm = estimate.total.communication
            ovhd = estimate.total.overhead
        if mode in ("measure", "both"):
            # simulated points run the vector engine (the SimulatorOptions
            # default) unless simulator_options pins the loop oracle; the
            # trace stage runs each compiled program's data plane once and
            # replays it on every machine; simulate() opens its own
            # "simulate" span
            measured = stages.simulate_staged(
                compiled, machine, options=simulator_options,
                compile_key=compile_key).measured_time_us

        result = ScenarioResult(
            point=point, mode=mode,
            estimated_us=estimated, measured_us=measured,
            comp_us=comp, comm_us=comm, ovhd_us=ovhd,
            grid_shape=tuple(compiled.mapping.grid.shape),
            program_source=program.source if program is not None else None,
        )
    obs.counter("repro_campaign_points_evaluated_total", mode=mode).inc()
    obs.histogram("repro_point_latency_us", mode=mode).observe(
        (_time.perf_counter() - started) * 1e6)
    return result


@dataclass
class CampaignRun:
    """Everything one campaign execution produced."""

    name: str
    space: ScenarioSpace
    mode: str
    strategy: str
    results: list[ScenarioResult] = field(default_factory=list)
    rejected: list[tuple[ScenarioPoint, str]] = field(default_factory=list)
    store_hits: int = 0
    evaluated: int = 0
    trajectory: list[ScenarioResult] = field(default_factory=list)   # hillclimb
    #: the :class:`repro.obs.RunManifest` of this run — populated (and
    #: written next to the store) only when observability is enabled
    manifest: object | None = None

    @property
    def points(self) -> list[ScenarioPoint]:
        return [r.point for r in self.results]

    def best(self, objective: Callable[[ScenarioResult], float] | None = None,
             ) -> ScenarioResult:
        if not self.results:
            raise ScenarioError(f"campaign {self.name!r} produced no results")
        key = objective if objective is not None else (lambda r: r.objective_us)
        return min(self.results, key=key)

    def result_for(self, point: ScenarioPoint) -> ScenarioResult:
        for result in self.results:
            if result.point == point:
                return result
        raise KeyError(point)


@dataclass(frozen=True)
class Campaign:
    """A named, declarative sweep: space + evaluation mode + search strategy.

    The workbench studies are thin presets over Campaigns; user code builds
    its own and calls :meth:`run`.
    """

    name: str
    space: ScenarioSpace
    mode: str = "predict"
    strategy: str = "grid"
    samples: int | None = None            # random strategy
    max_steps: int = 32                   # hillclimb strategy
    seed: int = 0

    def run(self, store: ResultStore | None = None, **kwargs) -> CampaignRun:
        return run_campaign(self.space, name=self.name, mode=self.mode,
                            strategy=self.strategy, samples=self.samples,
                            max_steps=self.max_steps, seed=self.seed,
                            store=store, **kwargs)


# ---------------------------------------------------------------------------
# evaluation with memoisation + parallelism
# ---------------------------------------------------------------------------


#: ``(app key) -> ProgramSpec | None`` lookup for ad-hoc (non-suite) programs.
ProgramResolver = Callable[[str], "ProgramSpec | None"]

#: ``"auto"`` only pays the process-pool start-up when it has at least this
#: many fresh evaluations to amortise it over.
PROCESS_AUTO_MIN_BATCH = 4


def resolve_executor(executor: str, mode: str,
                     machine_resolver: MachineResolver | None) -> str:
    """Resolve ``"auto"`` to a concrete executor for this campaign.

    Simulation-heavy campaigns (every point runs the execution simulator,
    i.e. ``mode`` of ``measure`` / ``both``) default to the process pool.
    Each simulated point already runs the simulator's vector engine (see
    :func:`evaluate_point`), but even its batched python sections hold the
    GIL, so process-level parallelism still pays once the batch is large
    enough.  A ``machine_resolver`` closure cannot cross a process
    boundary and pins auto back to threads.

    Auto only picks the pool on fork-start platforms: forked workers inherit
    runtime registrations (:func:`~repro.system.registry.register_machine`,
    ad-hoc directive-alternate groups) from the parent, whereas spawn-start
    workers (macOS/Windows default) re-import the package without them and
    would fail on any runtime-registered name.  An explicit
    ``executor="process"`` is honoured on every platform.
    """
    if executor != "auto":
        return executor
    if mode in ("measure", "both") and machine_resolver is None \
            and _fork_start_method():
        return "process"
    return "thread"


def _fork_start_method() -> bool:
    """Whether worker processes would be plain forks of this process.

    Probes with ``allow_none=True`` so a library call never fixes the
    application's start method as a side effect; an unset method is resolved
    to the platform default (fork on Linux before Python 3.14, spawn/
    forkserver elsewhere) without touching multiprocessing state.
    """
    import sys
    try:
        start = multiprocessing.get_start_method(allow_none=True)
    except Exception:           # unusual interpreter with no multiprocessing
        return False
    if start is None:
        return sys.platform.startswith("linux") and sys.version_info < (3, 14)
    return start == "fork"


def evaluate_points(
    points: Sequence[ScenarioPoint],
    *,
    mode: str = "predict",
    store: ResultStore | None = None,
    program_for: ProgramResolver | None = None,
    machine_resolver: MachineResolver | None = None,
    simulator_options: SimulatorOptions | None = None,
    max_workers: int | None = None,
    executor: str = "auto",
    memo: dict[ScenarioPoint, ScenarioResult] | None = None,
) -> tuple[list[ScenarioResult], int, int]:
    """Evaluate *points* (deduplicated, store-memoised, in parallel).

    The space-less face of the campaign engine: callers that already hold
    concrete :class:`ScenarioPoint` s (the performance advisor's mutation
    candidates, ad-hoc scripts) share the same dedup / store / parallelism
    machinery the strategies run on.  Returns (results in input order,
    persistent-store hits, fresh evaluations).  In-run ``memo`` revisits
    (duplicate points, hill-climb re-encounters) are free dedup and count
    as neither; a seeded memo entry only satisfies a request of the same
    evaluation ``mode``.
    """
    if mode not in MODES:
        raise ScenarioError(f"unknown campaign mode {mode!r}; known: {MODES}")
    if executor not in EXECUTORS:
        raise ScenarioError(
            f"unknown campaign executor {executor!r}; known: {EXECUTORS}")
    auto = executor == "auto"
    executor = resolve_executor(executor, mode, machine_resolver)
    if executor == "process" and machine_resolver is not None:
        # rejected up front — not only when a big-enough cold batch happens
        # to reach the pool — so the contract does not depend on store warmth
        raise ScenarioError(
            "executor='process' cannot ship a machine_resolver closure; "
            "use the default thread executor")
    if program_for is None:
        program_for = lambda app: None          # noqa: E731
    if memo is None:
        memo = {}

    unique: list[ScenarioPoint] = []
    seen: set[ScenarioPoint] = set()
    for point in points:
        if point not in seen:
            seen.add(point)
            unique.append(point)

    hits = 0
    memo_hits = 0
    todo: list[ScenarioPoint] = []
    for point in unique:
        cached_memo = memo.get(point)
        if cached_memo is not None and cached_memo.mode == mode:
            memo_hits += 1
            continue
        # a memo entry from another mode is not an answer to this one (the
        # store keys by mode; the in-run memo must too) — evaluate and let
        # the fresh result take the slot
        program = program_for(point.app)
        cached = store.get_point(point, mode,
                                 program.source if program else None) \
            if store is not None else None
        if cached is not None:
            memo[point] = cached
            hits += 1
        else:
            todo.append(point)

    if memo_hits:
        obs.counter("repro_campaign_memo_hits_total", mode=mode).inc(memo_hits)
    if store is not None:
        if hits:
            obs.counter("repro_campaign_store_hits_total",
                        mode=mode).inc(hits)
        if todo:
            obs.counter("repro_campaign_store_misses_total",
                        mode=mode).inc(len(todo))

    if todo:
        # auto-chosen process pools must earn their start-up cost; explicit
        # executor="process" is honoured regardless
        if auto and executor == "process" and len(todo) < PROCESS_AUTO_MIN_BATCH:
            executor = "thread"
        actual = "serial" if executor == "serial" or len(todo) == 1 \
            else executor
        obs.counter("repro_campaign_executor_batches_total",
                    executor=actual).inc()

        def job(point: ScenarioPoint) -> ScenarioResult:
            return evaluate_point(point, mode=mode,
                                  program=program_for(point.app),
                                  machine_resolver=machine_resolver,
                                  simulator_options=simulator_options)

        if executor == "serial" or len(todo) == 1:
            fresh = [job(point) for point in todo]
        elif executor == "process":
            # the worker is closure-free (no machine_resolver — rejected
            # above) so the argument tuples pickle
            args = [(point, mode, program_for(point.app), None,
                     simulator_options) for point in todo]
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                outcomes = list(pool.map(_evaluate_star, args))
            fresh = [result for result, _delta in outcomes]
            if obs.enabled():
                # worker registries die with the pool; each task shipped its
                # metric delta home, so fold them in here
                registry = obs.get_registry()
                for _result, delta in outcomes:
                    if delta:
                        registry.merge(delta)
        else:
            workers = max_workers or min(8, len(todo))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(job, todo))
        for point, result in zip(todo, fresh):
            memo[point] = result
            if store is not None:
                store.add(result)

    return [memo[point] for point in points], hits, len(todo)


def _evaluate_star(args) -> tuple[ScenarioResult, dict | None]:
    """Process-pool worker: the evaluation plus its metric delta.

    Worker processes hold their own ``repro.obs`` registry (forked workers
    inherit the parent's enabled flag; spawned workers re-read ``REPRO_OBS``),
    and that registry vanishes when the pool shuts down.  Snapshotting around
    the evaluation and returning the delta lets the parent merge worker
    metrics instead of losing them.
    """
    if not obs.enabled():
        return evaluate_point(*args), None
    registry = obs.get_registry()
    before = registry.collect()
    result = evaluate_point(*args)
    return result, registry.delta_since(before)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def run_campaign(
    space: ScenarioSpace,
    *,
    name: str = "campaign",
    mode: str = "predict",
    strategy: str = "grid",
    store: ResultStore | None = None,
    samples: int | None = None,
    max_steps: int = 32,
    seed: int = 0,
    population: int = 8,
    generations: int = 6,
    mutation_rate: float = 0.3,
    temperature: float | None = None,
    cooling: float = 0.85,
    ucb_c: float = 1.0,
    where: Callable[[ScenarioPoint], bool] | None = None,
    objective: Callable[[ScenarioResult], float] | None = None,
    machine_resolver: MachineResolver | None = None,
    simulator_options: SimulatorOptions | None = None,
    max_workers: int | None = None,
    executor: str = "auto",
    memo: dict[ScenarioPoint, ScenarioResult] | None = None,
) -> CampaignRun:
    """Evaluate *space* under one search strategy; the subsystem's front door.

    Args:
        space: the declarative :class:`~repro.explore.space.ScenarioSpace`
            (apps × sizes × proc_counts × machines × layouts × params).
        name: label recorded on the returned run.
        mode: ``"predict"`` (interpretation parse only), ``"measure"``
            (execution simulator only) or ``"both"``.  Simulated points run
            the simulator's vector engine unless ``simulator_options`` says
            otherwise.
        strategy: ``"grid"``, ``"random"``, ``"hillclimb"``, ``"genetic"``,
            ``"anneal"`` or ``"bandit"``; all deterministic for a fixed
            ``seed``.
        store: a :class:`~repro.explore.store.ResultStore` for cross-run
            memoisation and persistence (a finished campaign re-runs free).
        samples: point count for ``random``.
        max_steps: step bound for ``hillclimb`` / ``anneal``.
        seed: RNG seed for the stochastic strategies.
        population / generations / mutation_rate: ``genetic`` tuning.
        temperature / cooling: ``anneal`` tuning.
        ucb_c: ``bandit`` exploration constant — scales the UCB1
            confidence bonus over the directive arms (0 is pure greedy).
        where: validity predicate pruning points before evaluation.
        objective: ranking callable over :class:`ScenarioResult` (default:
            measured time when present, else estimated).
        machine_resolver: ``(point) -> Machine`` override used by workbench
            presets with pre-built Machine instances.
        simulator_options: :class:`~repro.simulator.SimulatorOptions` for
            simulated points (noise, seed, ``engine="vector"|"loop"``).
        max_workers: parallelism cap for the futures executor.
        executor: ``"auto"`` (process pool when every point simulates and
            workers would fork, threads otherwise), ``"thread"``,
            ``"process"`` or ``"serial"``.
        memo: pre-seeded ``{point: result}`` cache (the advisor threads its
            targeted-mutation results into its refinement campaign this
            way); seeded entries count as neither store hits nor fresh
            evaluations.  Trajectory strategies (hillclimb/genetic/anneal)
            report every memo entry in ``run.results``; grid/random report
            exactly the evaluated batch.

    Returns:
        A :class:`CampaignRun`: evaluated ``results`` (with store-hit and
        fresh-evaluation counts), rejected points with reasons, and — for
        the trajectory strategies — the visited ``trajectory``.

    Raises:
        ScenarioError: unknown ``strategy`` / ``mode`` / ``executor``, an
            empty-but-invalid space, or an executor/machine_resolver
            combination that cannot cross a process boundary.

    Example:
        >>> from repro.explore import ScenarioSpace, run_campaign
        >>> space = ScenarioSpace(apps=("laplace_block_star",), sizes=(16,),
        ...                       proc_counts=(2, 4))
        >>> run = run_campaign(space, mode="predict", executor="serial")
        >>> len(run.results)
        2
        >>> run.best().point.nprocs in (2, 4)
        True
    """
    if strategy not in STRATEGIES:
        raise ScenarioError(
            f"unknown campaign strategy {strategy!r}; known: {STRATEGIES}")
    if mode not in MODES:
        raise ScenarioError(f"unknown campaign mode {mode!r}; known: {MODES}")
    if executor not in EXECUTORS:
        raise ScenarioError(
            f"unknown campaign executor {executor!r}; known: {EXECUTORS}")

    started = _time.perf_counter()
    obs_mark = obs.get_tracer().mark()

    points, rejected = space.expand_with_rejects(where)
    run = CampaignRun(name=name, space=space, mode=mode, strategy=strategy,
                      rejected=rejected)
    if not points:
        _finalize_campaign_obs(run, store=store, executor=executor,
                               machine_resolver=machine_resolver,
                               started=started, mark=obs_mark)
        return run

    memo = dict(memo) if memo is not None else {}

    def evaluate(batch: Sequence[ScenarioPoint]
                 ) -> tuple[list[ScenarioResult], int, int]:
        results, hits, fresh = evaluate_points(
            batch, mode=mode, store=store, program_for=space.program_for,
            machine_resolver=machine_resolver,
            simulator_options=simulator_options,
            max_workers=max_workers, executor=executor, memo=memo)
        run.store_hits += hits
        run.evaluated += fresh
        return results, hits, fresh

    score = objective if objective is not None else (lambda r: r.objective_us)

    if strategy == "grid":
        run.results, _, _ = evaluate(points)
    elif strategy == "random":
        rng = Random(seed)
        count = min(samples if samples is not None else max(len(points) // 2, 1),
                    len(points))
        chosen = rng.sample(points, count)
        run.results, _, _ = evaluate(chosen)
    else:
        rng = Random(seed)
        if strategy == "hillclimb":
            _run_hillclimb(run, space, points, rng, evaluate, score, max_steps)
        elif strategy == "genetic":
            _run_genetic(run, space, points, rng, evaluate, score,
                         population=population, generations=generations,
                         mutation_rate=mutation_rate)
        elif strategy == "bandit":
            _run_bandit(run, points, rng, evaluate, score,
                        max_steps=max_steps, ucb_c=ucb_c)
        else:
            _run_anneal(run, space, points, rng, evaluate, score,
                        max_steps=max_steps, temperature=temperature,
                        cooling=cooling)
        run.results = list(memo.values())

    _finalize_campaign_obs(run, store=store, executor=executor,
                           machine_resolver=machine_resolver,
                           started=started, mark=obs_mark)
    return run


def _finalize_campaign_obs(run: CampaignRun, *, store: ResultStore | None,
                           executor: str,
                           machine_resolver: MachineResolver | None,
                           started: float, mark: int) -> None:
    """Build (and, when a store exists, write) this run's manifest.

    Only active when observability is enabled.  ``executor`` records the
    campaign-level resolution of ``"auto"``; per-batch demotions (a small
    cold batch falling back from the process pool to threads) are visible in
    the manifest's ``repro_campaign_executor_batches_total`` counters.
    """
    if not obs.enabled():
        return
    spans = obs.get_tracer().spans_since(mark)
    manifest = obs.build_manifest(
        name=run.name,
        mode=run.mode,
        strategy=run.strategy,
        executor=resolve_executor(executor, run.mode, machine_resolver),
        wall_time_s=_time.perf_counter() - started,
        points_evaluated=len(run.results),
        fresh_evaluations=run.evaluated,
        store_hits=run.store_hits,
        store_path=store.path if store is not None else None,
        store_records=len(store) if store is not None else None,
        spans=spans,
        registry=obs.get_registry(),
    )
    run.manifest = manifest
    if store is not None:
        manifest.write(obs.manifest_path_for(store.path))


def _run_hillclimb(run, space, points, rng, evaluate, score, max_steps):
    """Greedy hill-climb over the one-axis neighbour graph."""
    current = rng.choice(points)
    [current_result], _, _ = evaluate([current])
    run.trajectory.append(current_result)
    for step in range(max_steps):
        obs.gauge("repro_campaign_strategy_step",
                  strategy="hillclimb").set(step + 1)
        neighbours = space.neighbors(current, points)
        if not neighbours:
            break
        results, _, _ = evaluate(neighbours)
        best = min(results, key=score)
        if score(best) >= score(current_result):
            break                                   # local optimum
        current, current_result = best.point, best
        run.trajectory.append(current_result)


def _crossover(rng: Random, a: ScenarioPoint, b: ScenarioPoint,
               space: ScenarioSpace, pool: set[ScenarioPoint]) -> ScenarioPoint:
    """Per-axis recombination of two parents, closed over the valid pool.

    Each design axis is inherited from either parent with probability 1/2;
    derived fields (the Laplace processor-grid shapes) are rebuilt for the
    recombined (app, nprocs).  A child that falls outside the valid pool
    (e.g. a topology shape that no longer tiles the inherited nprocs)
    degrades to parent *a*, so the search never leaves the space.
    """
    pick = lambda x, y: x if rng.random() < 0.5 else y   # noqa: E731
    child = space.rebuild_point(
        app=pick(a.app, b.app),
        size=pick(a.size, b.size),
        nprocs=pick(a.nprocs, b.nprocs),
        machine=pick(a.machine, b.machine),
        topology_shape=pick(a.topology_shape, b.topology_shape),
        params=pick(a.params, b.params),
    )
    return child if child in pool else a


def _tournament(rng: Random, scored: list[ScenarioResult], score,
                k: int = 2) -> ScenarioResult:
    contenders = [scored[rng.randrange(len(scored))] for _ in range(k)]
    return min(contenders, key=score)


def _run_genetic(run, space, points, rng, evaluate, score, *,
                 population, generations, mutation_rate):
    """Generational GA: tournament selection, crossover, mutation, elitism."""
    pool = set(points)
    pop_size = min(max(population, 2), len(points))
    current = rng.sample(points, pop_size)
    scored, _, _ = evaluate(current)
    best = min(scored, key=score)
    run.trajectory.append(best)
    for generation in range(generations):
        obs.gauge("repro_campaign_strategy_step",
                  strategy="genetic").set(generation + 1)
        next_gen = [best.point]                     # elitism
        while len(next_gen) < pop_size:
            parent_a = _tournament(rng, scored, score)
            parent_b = _tournament(rng, scored, score)
            child = _crossover(rng, parent_a.point, parent_b.point, space, pool)
            if rng.random() < mutation_rate:
                neighbours = space.neighbors(child, points)
                if neighbours:
                    child = neighbours[rng.randrange(len(neighbours))]
            next_gen.append(child)
        scored, _, _ = evaluate(next_gen)
        generation_best = min(scored, key=score)
        if score(generation_best) < score(best):
            best = generation_best
        run.trajectory.append(best)


def _run_bandit(run, points, rng, evaluate, score, *, max_steps, ucb_c):
    """UCB1 bandit over *directive arms*: one arm per application key.

    The paper's §5.2.1 question — which DISTRIBUTE/ALIGN alternative wins —
    maps naturally onto a multi-armed bandit: each directive alternative
    (application key) is an arm; a pull samples one of the arm's points
    uniformly and evaluates it.  Arms are initialised with one pull each
    (sorted key order, so runs are deterministic for a fixed seed), then
    the remaining ``max_steps`` budget follows the UCB1 index

        mean_reward(arm) + ucb_c * sqrt(2 ln t / pulls(arm))

    with rewards normalised as ``best_objective_so_far / objective`` —
    a pull matching the incumbent scores 1, worse pulls decay toward 0,
    so the index is scale-free across problem sizes.  The best-so-far
    result after each pull lands on ``run.trajectory`` ArchGym-style.
    """
    arms: dict[str, list[ScenarioPoint]] = {}
    for point in points:
        arms.setdefault(point.app, []).append(point)
    order = sorted(arms)
    pulls = {app: 0 for app in order}
    rewards = {app: 0.0 for app in order}
    state = {"best": None, "total": 0}

    def pull(app: str) -> None:
        pool = arms[app]
        point = pool[rng.randrange(len(pool))]
        [result], _, _ = evaluate([point])
        state["total"] += 1
        pulls[app] += 1
        if state["best"] is None or score(result) < score(state["best"]):
            state["best"] = result
        rewards[app] += score(state["best"]) / max(score(result), 1e-12)
        run.trajectory.append(state["best"])
        obs.gauge("repro_campaign_strategy_step",
                  strategy="bandit").set(state["total"])

    for app in order:                       # one warm-up pull per arm
        if state["total"] >= max_steps:
            break
        pull(app)
    while state["total"] < max_steps:
        t = state["total"]
        pull(max(order, key=lambda app: (
            rewards[app] / pulls[app]
            + ucb_c * math.sqrt(2.0 * math.log(max(t, 2)) / pulls[app]))))


def _run_anneal(run, space, points, rng, evaluate, score, *,
                max_steps, temperature, cooling):
    """Simulated annealing with Metropolis acceptance over one-axis moves.

    The starting temperature defaults to 10% of the initial objective, so
    early uphill moves of that order are accepted with probability ~1/e and
    the schedule is scale-free across problem sizes.
    """
    current = rng.choice(points)
    [current_result], _, _ = evaluate([current])
    t = temperature if temperature is not None \
        else max(score(current_result) * 0.1, 1e-9)
    run.trajectory.append(current_result)
    for step in range(max_steps):
        obs.gauge("repro_campaign_strategy_step",
                  strategy="anneal").set(step + 1)
        obs.gauge("repro_campaign_anneal_temperature").set(t)
        neighbours = space.neighbors(current, points)
        if not neighbours:
            break
        candidate = neighbours[rng.randrange(len(neighbours))]
        [candidate_result], _, _ = evaluate([candidate])
        delta = score(candidate_result) - score(current_result)
        if delta <= 0 or rng.random() < math.exp(-delta / max(t, 1e-12)):
            current, current_result = candidate, candidate_result
            run.trajectory.append(current_result)
        t *= cooling
