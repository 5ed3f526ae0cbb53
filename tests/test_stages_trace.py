"""The trace stage: one live data-plane run per compiled program, replayed
on every machine.

``repro.stages.simulate_staged`` records what the vector engine's timing
plane reads from the data plane on the first run of a compiled program and
replays it on every later run.  These tests pin the contract: on the whole
suite and every registered machine a staged result equals a live
``simulate()`` bit for bit (and the live vector result equals the loop
oracle), the recorded trace is the same whichever machine recorded it, the
plain ``simulate()`` / ``repro.measure`` / loop-engine paths never touch the
stage, and a replay that does not fit its program fails loudly.
"""

import dataclasses
import threading

import pytest

import repro
from repro import obs, stages
from repro.compiler import OptimizationOptions, compile_source
from repro.explore import ScenarioPoint
from repro.explore.campaign import evaluate_point
from repro.frontend.errors import SimulationError
from repro.simulator import SimulatorOptions, simulate
from repro.simulator.dataplane import (
    ExecutionTrace,
    LiveDataPlane,
    LoopNestShape,
    ReplayDataPlane,
)
from repro.suite.registry import all_entries, get_entry
from repro.system import get_machine, machine_names

NPROCS = (2, 4)
VECTOR = SimulatorOptions(engine="vector")
LOOP = SimulatorOptions(engine="loop")


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    stages.clear_stage_caches()
    yield
    obs.disable()
    obs.reset()
    stages.clear_stage_caches()


def _fingerprint(result):
    return (result.measured_time_us, list(result.per_rank_us), result.totals,
            dict(result.line_metrics), result.comm_stats,
            list(result.printed), result.array_checksum,
            result.statements_executed)


def _compiled(key, nprocs, size_index=0):
    entry = get_entry(key)
    return stages.compile_cached(
        entry.source, name=entry.key, nprocs=nprocs,
        params=entry.params_for(entry.sizes[size_index]))


def _record(compiled, machine, options=VECTOR):
    recorder = LiveDataPlane(compiled, record=True)
    result = simulate(compiled, machine, options=options, data=recorder)
    return result, recorder.trace()


def _flat():
    return obs.get_registry().flatten()


@pytest.mark.parametrize("key", list(all_entries()))
def test_staged_equals_live_on_every_machine(key):
    for nprocs in NPROCS:
        stages.clear_stage_caches()
        compiled = _compiled(key, nprocs)
        traces = []
        for name in machine_names():
            machine = get_machine(name, nprocs)
            live = _fingerprint(simulate(compiled, machine, options=VECTOR))
            # the first machine records, every later one replays
            assert _fingerprint(stages.simulate_staged(compiled, machine)) \
                == live, (key, nprocs, name)
            assert _fingerprint(simulate(compiled, machine, options=LOOP)) \
                == live, (key, nprocs, name)
            recorded, trace = _record(compiled, machine)
            assert _fingerprint(recorded) == live
            traces.append(trace)
        # machine independence: every machine records the same trace
        assert all(trace == traces[0] for trace in traces[1:]), (key, nprocs)
        assert stages.stage_cache_sizes()["trace"] == 1


def test_plain_paths_never_consult_the_stage(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the trace stage was consulted")

    monkeypatch.setattr(stages, "simulate_staged", refuse)
    monkeypatch.setattr(stages._trace_cache, "get", refuse)
    monkeypatch.setattr(stages._trace_cache, "put", refuse)
    monkeypatch.setattr(ReplayDataPlane, "__init__", refuse)
    entry = get_entry("laplace_block_star")
    compiled = _compiled("laplace_block_star", 4)
    machine = get_machine("paragon", 4)
    for _ in range(2):
        simulate(compiled, machine, options=VECTOR)
        simulate(compiled, machine, options=LOOP)
        repro.measure(entry.source, nprocs=4, machine="paragon",
                      params=entry.params_for(entry.sizes[0]))
        repro.measure(entry.source, nprocs=4, machine="paragon",
                      params=entry.params_for(entry.sizes[0]), options=LOOP)
    assert stages.stage_cache_sizes()["trace"] == 0


def test_hit_and_miss_counters():
    compiled = _compiled("finance", 4)
    obs.enable()
    for name in ("ipsc860", "paragon", "cluster"):
        stages.simulate_staged(compiled, get_machine(name, 4))
    flat = _flat()
    assert flat['repro_stage_cache_misses_total{stage="trace"}'] == 1
    assert flat['repro_stage_cache_hits_total{stage="trace"}'] == 2


def test_runs_the_stage_cannot_serve_stay_live():
    compiled = _compiled("lfk1", 4)
    machine = get_machine("ipsc860", 4)
    obs.enable()
    loop = stages.simulate_staged(compiled, machine, options=LOOP)
    kept = stages.simulate_staged(compiled, machine, keep_state=True)
    with_params = stages.simulate_staged(compiled, machine, params={"n": 64})
    flat = _flat()
    assert 'repro_stage_cache_misses_total{stage="trace"}' not in flat
    assert 'repro_stage_cache_hits_total{stage="trace"}' not in flat
    assert stages.stage_cache_sizes()["trace"] == 0
    assert kept.state is not None
    assert _fingerprint(loop) == _fingerprint(kept)
    assert _fingerprint(with_params) == _fingerprint(
        simulate(compiled, machine, params={"n": 64}))


def test_key_covers_the_while_limit():
    compiled = _compiled("pbs1", 4)
    machine = get_machine("ipsc860", 4)
    stages.simulate_staged(compiled, machine)
    stages.simulate_staged(compiled, machine, options=dataclasses.replace(
        VECTOR, max_while_iterations=50_000))
    assert stages.stage_cache_sizes()["trace"] == 2
    # the noise seed is not part of the key: the trace is noise-free
    staged = stages.simulate_staged(compiled, machine,
                                    options=SimulatorOptions(seed=7))
    assert stages.stage_cache_sizes()["trace"] == 2
    assert _fingerprint(staged) == _fingerprint(
        simulate(compiled, machine, options=SimulatorOptions(seed=7)))


def test_lru_bound_clear_and_sizes(monkeypatch):
    monkeypatch.setattr(stages, "_trace_cache", stages.LRUCache(2))
    machine = get_machine("ipsc860", 2)
    programs = [_compiled(key, 2) for key in ("lfk1", "lfk2", "lfk3")]
    obs.enable()
    for compiled in programs:
        stages.simulate_staged(compiled, machine)
    assert stages.stage_cache_sizes()["trace"] == 2
    stages.simulate_staged(programs[0], machine)    # evicted: records again
    flat = _flat()
    assert flat['repro_stage_cache_misses_total{stage="trace"}'] == 4
    assert 'repro_stage_cache_hits_total{stage="trace"}' not in flat
    stages.clear_stage_caches()
    assert stages.stage_cache_sizes() == {"parse": 0, "compile": 0,
                                          "price": 0, "trace": 0}


def test_trace_is_compact_and_read_only():
    compiled = _compiled("laplace_block_star", 4, size_index=-1)
    _, trace = _record(compiled, get_machine("ipsc860", 4))
    foralls = [value for kind, _line, value in trace.observations
               if kind == "forall"]
    shapes = [shape for _iterations, shape in foralls if shape is not None]
    assert shapes and all(isinstance(s, LoopNestShape) for s in shapes)
    # one stencil sweep per iteration, each the same interned shape
    assert len({id(s) for s in shapes}) < len(shapes)
    assert len({id(o) for o in trace.observations}) < len(trace.observations)
    for shape in shapes:
        assert not shape.local_elements.flags.writeable
        assert not shape.innermost_extents.flags.writeable
        with pytest.raises(ValueError):
            shape.local_elements[0] = 0.0


def test_out_of_step_replay_raises():
    machine = get_machine("ipsc860", 4)
    laplace = _compiled("laplace_block_star", 4)
    finance = _compiled("finance", 4)
    _, trace = _record(laplace, machine)
    with pytest.raises(SimulationError, match="asks for"):
        simulate(finance, machine, data=ReplayDataPlane(trace))
    short = ExecutionTrace(trace.observations[:-1], trace.printed,
                           trace.array_checksum)
    with pytest.raises(SimulationError, match="past the end"):
        simulate(laplace, machine, data=ReplayDataPlane(short))
    extra = ExecutionTrace(trace.observations + trace.observations[-1:],
                           trace.printed, trace.array_checksum)
    with pytest.raises(SimulationError, match="consumed"):
        simulate(laplace, machine, data=ReplayDataPlane(extra))
    # a recording of the loop engine would hold raw masks: refused
    with pytest.raises(SimulationError, match="vector engine"):
        _record(laplace, machine, options=LOOP)


def test_concurrent_misses_give_live_results():
    compiled = _compiled("laplace_block_block", 4)
    names = ("ipsc860", "paragon")
    barrier = threading.Barrier(len(names))
    results = {}

    def worker(name):
        barrier.wait(timeout=30)
        results[name] = stages.simulate_staged(compiled, get_machine(name, 4))

    threads = [threading.Thread(target=worker, args=(n,)) for n in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for name in names:
        live = simulate(compiled, get_machine(name, 4))
        assert _fingerprint(results[name]) == _fingerprint(live)
    assert stages.stage_cache_sizes()["trace"] == 1
    key = stages.trace_stage_key(stages.compile_key_of(compiled),
                                 VECTOR.max_while_iterations)
    assert stages._trace_cache.get(key) == _record(
        compiled, get_machine("cm5", 4))[1]


MUTANTS = {
    # both pass predict but index or shape past the arrays at run time
    "stencil reads past the edge": ("u(i, j + 1)", "u(i, j + 7)", 21,
                                    "IndexError"),
    "non-conformable residual": ("sum(abs(unew(2:n - 1, 2:n - 1)",
                                 "sum(abs(unew(2:n - 3, 2:n - 1)", 24,
                                 "ValueError"),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_data_plane_failures_are_typed(mutant):
    entry = get_entry("laplace_block_star")
    old, new, line, builtin = MUTANTS[mutant]
    source = entry.source.replace(old, new)
    assert source != entry.source
    params = entry.params_for(16)
    repro.predict(source, nprocs=4, params=params)       # accepted
    compiled = compile_source(source, nprocs=4, params=params)
    machine = get_machine("ipsc860", 4)
    for options in (VECTOR, LOOP):
        with pytest.raises(SimulationError,
                           match=rf"line {line}: .*{builtin}"):
            simulate(compiled, machine, options=options)
    with pytest.raises(SimulationError, match=rf"line {line}: "):
        stages.simulate_staged(compiled, machine)
    assert stages.stage_cache_sizes()["trace"] == 0


def test_data_plane_span_is_live_only():
    compiled = _compiled("laplace_block_star", 4)
    machine = get_machine("ipsc860", 4)
    obs.enable()
    for options in (VECTOR, LOOP):
        mark = obs.get_tracer().mark()
        simulate(compiled, machine, options=options)
        names = [s.name for s in obs.get_tracer().spans_since(mark)]
        assert "data_plane" in names, options.engine
    stages.simulate_staged(compiled, machine)              # records: live
    mark = obs.get_tracer().mark()
    stages.simulate_staged(compiled, machine)              # replays
    names = {s.name for s in obs.get_tracer().spans_since(mark)}
    assert "data_plane" not in names
    assert {"simulate", "node_cost", "noise", "network"} <= names


def test_measure_campaign_points_share_one_trace():
    entry = get_entry("lfk1")
    results = {}
    for name in ("ipsc860", "paragon", "modern-cluster"):
        point = ScenarioPoint(app="lfk1", size=entry.sizes[-1], nprocs=4,
                              machine=name)
        results[name] = evaluate_point(point, mode="measure").measured_us
    assert stages.stage_cache_sizes()["trace"] == 1
    for name, measured in results.items():
        compiled = _compiled("lfk1", 4, size_index=-1)
        live = simulate(compiled, get_machine(name, 4)).measured_time_us
        assert measured == live


def test_optimisation_settings_key_their_own_trace():
    # compile_cached always uses the default optimisations; a program
    # compiled with others has a different SPMD tree, so it must not
    # replay the default program's trace (nor share its price entry)
    entry = get_entry("laplace_block_star")
    params = entry.params_for(entry.sizes[0])
    default = compile_source(entry.source, nprocs=4, params=params)
    plain = compile_source(entry.source, nprocs=4, params=params,
                           optimizations=OptimizationOptions.none())
    assert stages.compile_key_of(default) != stages.compile_key_of(plain)
    assert stages.compile_key_of(default) == stages.compile_key_of(
        _compiled("laplace_block_star", 4))
    machine = get_machine("paragon", 4)
    for compiled in (default, plain):
        assert _fingerprint(stages.simulate_staged(compiled, machine)) \
            == _fingerprint(simulate(compiled, machine))
    assert stages.stage_cache_sizes()["trace"] == 2
