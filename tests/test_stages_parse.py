"""The parse stage: one parsed AST per (source, name), shared by every compile.

``repro.stages.compile_cached`` compiles the parse stage's cached
``ast.Program`` on a miss, so every compiled program of one text holds the
same AST object.  That is only sound while nothing downstream writes to it.
These tests pin that down on the whole suite: after compiling at several
process counts and parameter sets and running both the interpretation parse
and the two simulator engines, the cached AST still equals a deep copy taken
before any of it, and every result equals the uncached ``compile_source``
path bit for bit.
"""

import copy
import threading

import pytest

from repro import obs, stages
from repro.compiler import compile_source
from repro.interpreter import interpret
from repro.simulator import SimulatorConfig, simulate
from repro.suite.registry import all_entries
from repro.system import get_machine

NPROCS = (2, 4)


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    stages.clear_stage_caches()
    yield
    obs.disable()
    obs.reset()
    stages.clear_stage_caches()


def _interpret_fingerprint(result):
    table = result.table
    return (result.predicted_time_us, table.cumulative, table.global_clock,
            dict(table.per_aau))


def _simulate_fingerprint(result):
    return (result.measured_time_us, list(result.per_rank_us), result.totals,
            dict(result.line_metrics), result.comm_stats, list(result.printed),
            result.array_checksum, result.statements_executed)


def _run_all(compiled, nprocs):
    machine = get_machine("ipsc860", nprocs)
    loop = simulate(compiled, machine, options=SimulatorConfig(engine="loop"))
    vector = simulate(compiled, machine,
                      options=SimulatorConfig(engine="vector"))
    return (_interpret_fingerprint(interpret(compiled, machine)),
            _simulate_fingerprint(loop), _simulate_fingerprint(vector))


@pytest.mark.parametrize("key", list(all_entries()))
def test_shared_ast_is_never_mutated(key):
    entry = all_entries()[key]
    source_file, program = stages.parse_cached(entry.source, name=entry.key)
    snapshot = copy.deepcopy(program)
    for size in entry.sizes[:2]:
        params = entry.params_for(size)
        for nprocs in NPROCS:
            compiled = stages.compile_cached(entry.source, name=entry.key,
                                             nprocs=nprocs, params=params)
            assert compiled.program is program
            assert compiled.source is source_file
            cached = _run_all(compiled, nprocs)
            uncached = _run_all(
                compile_source(entry.source, name=entry.key, nprocs=nprocs,
                               params=params), nprocs)
            assert cached == uncached
            # loop == vector, bit for bit
            assert cached[1][1] == cached[2][1]
    assert program == snapshot
    assert stages.parse_cached(entry.source, name=entry.key)[1] is program


def test_compile_misses_reuse_one_parse():
    entry = all_entries()["lfk1"]
    obs.enable()
    for nprocs in (2, 4, 8):
        stages.compile_cached(entry.source, name=entry.key, nprocs=nprocs)
    flat = obs.get_registry().flatten()
    assert flat['repro_stage_cache_misses_total{stage="parse"}'] == 1
    assert flat['repro_stage_cache_hits_total{stage="parse"}'] == 2
    assert flat['repro_stage_cache_misses_total{stage="compile"}'] == 3
    assert stages.stage_cache_sizes() == {"parse": 1, "compile": 3, "price": 0,
                                          "trace": 0}
    stages.clear_stage_caches()
    assert stages.stage_cache_sizes() == {"parse": 0, "compile": 0, "price": 0,
                                          "trace": 0}


def test_parse_key_covers_the_name():
    entry = all_entries()["lfk1"]
    _, a = stages.parse_cached(entry.source, name="a")
    _, b = stages.parse_cached(entry.source, name="b")
    assert a is not b and a == b
    assert stages.parse_cached(entry.source, name="a")[0].name == "a"


def test_compile_source_bypasses_the_parse_stage():
    entry = all_entries()["lfk1"]
    compiled = compile_source(entry.source, name=entry.key, nprocs=2)
    assert stages.stage_cache_sizes()["parse"] == 0
    _, program = stages.parse_cached(entry.source, name=entry.key)
    assert compiled.program is not program and compiled.program == program


def test_concurrent_misses_give_equal_programs():
    entry = all_entries()["laplace_block_block"]
    barrier = threading.Barrier(2)
    results = [None, None]

    def worker(slot):
        barrier.wait(timeout=30)
        results[slot] = stages.compile_cached(entry.source, name=entry.key,
                                              nprocs=4)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    a, b = results
    assert a.program == b.program
    assert a.source.logical_lines == b.source.logical_lines
    assert a.program == compile_source(entry.source, name=entry.key).program
