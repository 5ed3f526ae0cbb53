"""Cached stages: *parse*, *compile*, *trace* and *price* as keyed stages.

``repro.predict`` and measure-mode campaigns are pipelines glued together:

1. **parse** — HPF/Fortran 90D source text → logical lines → AST.
   Depends on the program text and its name only.
2. **compile** — parsed AST → partitioned, sequentialised SPMD node
   program (the app model).  Depends on the parse stage's output plus the
   process count, grid layout and parameter overrides — and on *nothing
   about the target machine*.
3. **trace** — one live vector-engine run of the compiled program's data
   plane, recorded as what the timing plane read from it
   (:class:`~repro.simulator.dataplane.ExecutionTrace`: trip counts,
   branch outcomes, per-rank loop-nest shapes, final outputs).  Depends on
   the compile stage's output (and the ``DO WHILE`` limit) only; every
   later simulation of that program, on any machine, replays it
   (:func:`simulate_staged`).
4. **price** — walk that app model with one machine's SAG/SAU parameter
   set and the analytic communication models (the interpretation parse).
   Depends on the compile stage's output plus the machine and the
   interpreter options.

This module puts each stage behind an **independent, explicitly keyed
cache**: a size sweep over one program text parses it once and compiles
it once per (size, nprocs, layout) cell; a cross-machine sweep (or a
prediction server fielding the same program against many targets) pays
one compile and N prices — and, in measure mode, one data-plane run and N
replays; and repeated identical predictions pay nothing at all.  Compiles
never mutate the AST they are given, so every compiled program of one
text shares one parsed :class:`~repro.frontend.ast_nodes.Program`.

All four caches are bounded thread-safe LRUs and are instrumented with
``repro.obs`` hit/miss counters (``repro_stage_cache_hits_total`` /
``repro_stage_cache_misses_total``, labelled ``stage="parse"`` /
``stage="compile"`` / ``stage="trace"`` / ``stage="price"``), which is how
the serve-layer tests assert the acceptance property: a second request for
the same program on a different machine hits the compile cache but misses
the price cache.

Example:
    >>> import repro
    >>> from repro import stages
    >>> stages.clear_stage_caches()
    >>> src = '''
    ...       program tiny
    ...       integer, parameter :: n = 16
    ...       real, dimension(n) :: x
    ... !HPF$ PROCESSORS p(2)
    ... !HPF$ DISTRIBUTE x(BLOCK) ONTO p
    ...       forall (i = 1:n) x(i) = 1.0 * i
    ...       end program tiny
    ... '''
    >>> a = repro.predict(src, nprocs=2)                      # parse + compile + price
    >>> b = repro.predict(src, nprocs=2, machine="paragon")   # price only
    >>> a.compiled is b.compiled                              # shared app model
    True
    >>> c = repro.predict(src, nprocs=4)                      # compile + price
    >>> a.compiled.program is c.compiled.program              # shared AST
    True
    >>> from repro.simulator import simulate
    >>> from repro.system import get_machine
    >>> paragon = get_machine("paragon", 2)
    >>> _ = stages.simulate_staged(a.compiled, get_machine("ipsc860", 2))  # records
    >>> staged = stages.simulate_staged(a.compiled, paragon)           # replays
    >>> staged.per_rank_us == simulate(a.compiled, paragon).per_rank_us
    True
    >>> stages.stage_cache_sizes()["trace"]
    1
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import is_dataclass
from typing import Any, Callable, Mapping, Optional

from . import obs
from .compiler import CompileOptions, compile_program
from .compiler.optimizations import OptimizationOptions
from .frontend.parser import parse_source
from .frontend.source import SourceFile
from .interpreter import InterpreterOptions, interpret
from .simulator.dataplane import LiveDataPlane, ReplayDataPlane
from .simulator.executor import SimulatorOptions
from .simulator.runtime import simulate
from .system.machine import Machine

#: Bounded sizes of the stage caches.  Compiled programs are the heavy
#: objects (SPMD trees and mappings); parsed programs are one AST per
#: distinct text; priced estimates are small result records.
PARSE_CACHE_SIZE = 128
COMPILE_CACHE_SIZE = 128
PRICE_CACHE_SIZE = 1024
#: Execution traces are compact (observations, interned read-only per-rank
#: arrays) and there is one per compiled program, so the trace cache
#: matches the compile cache's bound.
TRACE_CACHE_SIZE = 128


class LRUCache:
    """A small thread-safe bounded mapping with least-recently-used eviction.

    The cache primitive shared by the stage caches here and the serve
    layer's response tier: ``get`` refreshes recency, ``put`` evicts the
    stalest entry once ``maxsize`` is exceeded.
    """

    def __init__(self, maxsize: int):
        if not isinstance(maxsize, int) or isinstance(maxsize, bool) \
                or maxsize < 1:
            raise ValueError(f"LRUCache maxsize must be a positive int, "
                             f"got {maxsize!r}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return default
            return self._data[key]

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def pop(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def keys(self) -> list:
        """Keys from least- to most-recently used (a snapshot)."""
        with self._lock:
            return list(self._data)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data


# ---------------------------------------------------------------------------
# stage keys
# ---------------------------------------------------------------------------


def _canonical_hash(payload: Mapping) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def compile_stage_key(source: str, *, nprocs: int,
                      grid_shape: tuple[int, ...] | None = None,
                      params: Mapping[str, float] | None = None) -> str:
    """Content key of the compile stage: everything Phase 1 depends on.

    The machine is deliberately absent — that is the whole point of the
    split.  Two predictions of one program on two machines share this key.
    """
    return _canonical_hash({
        "stage": "compile",
        "source_sha": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "nprocs": int(nprocs),
        "grid_shape": list(grid_shape) if grid_shape else None,
        "params": sorted((str(k), float(v))
                         for k, v in (params or {}).items()),
    })


def compile_key_of(compiled) -> str:
    """The compile-stage key of an already-compiled program.

    Derived from the inputs recorded on the
    :class:`~repro.compiler.CompiledProgram` itself, so callers holding a
    compiled program (the campaign worker) can key the price stage without
    threading the original key through.
    """
    opts = compiled.options
    key = compile_stage_key(compiled.source.text, nprocs=opts.nprocs,
                            grid_shape=opts.grid_shape, params=opts.params)
    if opts.optimizations != OptimizationOptions():
        # not a compile-stage input (compile_cached always uses the
        # defaults), but it shapes the SPMD program the later stages read
        key = _canonical_hash({"compile_key": key, "optimizations":
                               _canonical_value(opts.optimizations)})
    return key


def machine_stage_token(machine: Machine) -> str:
    """The part of the price key a :class:`Machine` contributes.

    Registry machines are fully determined by (name, partition size,
    topology kind/shape); the token spells all four out so a reshaped
    torus and its near-square default never share a price entry.
    """
    return "|".join((
        machine.name,
        str(machine.num_nodes),
        machine.topology_kind,
        "x".join(str(d) for d in machine.topology_shape)
        if machine.topology_shape else "-",
        str(machine.noise_seed),
    ))


def _canonical_value(value: Any) -> Any:
    """JSON-able canonical form of one options field value, or raise.

    Recurses through nested dataclasses (field by field, not ``asdict`` —
    which would also flatten dataclass *instances inside containers* before
    we can vet them), mappings (string keys, sorted), sets (sorted by their
    canonical JSON form, so iteration order never leaks into the token) and
    sequences.  Anything else — callables, file handles, arbitrary objects
    whose ``str`` could embed a memory address — raises ``TypeError``: an
    unstable token is worse than no token, so such options bypass the
    price cache instead.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        from dataclasses import fields
        return {f.name: _canonical_value(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, Mapping):
        return {str(k): _canonical_value(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        canon = [_canonical_value(v) for v in value]
        return sorted(canon, key=lambda v: json.dumps(
            v, sort_keys=True, separators=(",", ":")))
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    raise TypeError(f"{type(value).__name__} has no canonical options form")


def options_stage_token(options: Optional[InterpreterOptions]) -> str | None:
    """A canonical token for interpreter options; ``None`` when the options
    cannot be canonicalised (caller should skip the price cache then).

    Dataclass options — including non-default :class:`InterpreterOptions`
    with nested dataclasses, override mappings and set-valued fields — get
    a stable canonical JSON token (equal-by-value options always share it,
    whatever their construction or iteration order).  Non-dataclass options
    and dataclasses carrying uncanonicalisable values (callables, arbitrary
    objects) return ``None``: the conservative bypass, correctness over
    cache hits.
    """
    if options is None:
        return "default"
    if not is_dataclass(options) or isinstance(options, type):
        return None
    try:
        return json.dumps(_canonical_value(options), sort_keys=True,
                          separators=(",", ":"))
    except (TypeError, ValueError):
        return None


def price_stage_key(compile_key: str, machine: Machine,
                    options: Optional[InterpreterOptions] = None) -> str | None:
    """Content key of the price stage: compile key × machine × options."""
    options_token = options_stage_token(options)
    if options_token is None:
        return None
    return _canonical_hash({
        "stage": "price",
        "compile_key": compile_key,
        "machine": machine_stage_token(machine),
        "options": options_token,
    })


# ---------------------------------------------------------------------------
# the caches
# ---------------------------------------------------------------------------

_parse_cache = LRUCache(PARSE_CACHE_SIZE)
_compile_cache = LRUCache(COMPILE_CACHE_SIZE)
_price_cache = LRUCache(PRICE_CACHE_SIZE)
_trace_cache = LRUCache(TRACE_CACHE_SIZE)


def clear_stage_caches() -> None:
    """Drop all four stage caches (tests and long-lived servers under
    memory pressure; the obs counters are left alone)."""
    _parse_cache.clear()
    _compile_cache.clear()
    _price_cache.clear()
    _trace_cache.clear()


def stage_cache_sizes() -> dict[str, int]:
    return {"parse": len(_parse_cache), "compile": len(_compile_cache),
            "price": len(_price_cache), "trace": len(_trace_cache)}


def _note(stage: str, hit: bool) -> None:
    name = "repro_stage_cache_hits_total" if hit \
        else "repro_stage_cache_misses_total"
    obs.counter(name, stage=stage).inc()


def parse_cached(source: str, *, name: str = "<string>"):
    """The parse stage, memoised per (source text, name).

    Returns a ``(SourceFile, ast.Program)`` pair.  Both are shared by every
    compile of this text, which only reads them.
    """
    key = (source, name)
    cached = _parse_cache.get(key)
    if cached is not None:
        _note("parse", hit=True)
        return cached
    _note("parse", hit=False)
    source_file = SourceFile(text=source, name=name)
    parsed = (source_file, parse_source(source_file))
    _parse_cache.put(key, parsed)
    return parsed


def compile_cached(source: str, *, name: str = "<string>", nprocs: int,
                   grid_shape: tuple[int, ...] | None = None,
                   params: Mapping[str, float] | None = None,
                   key: str | None = None):
    """The compile stage, memoised behind :func:`compile_stage_key`.

    Returns the cached :class:`~repro.compiler.CompiledProgram` on a hit —
    byte-identical by construction, since the key covers every compile
    input — and on a miss compiles the parse stage's AST, caches and
    returns.
    """
    if key is None:
        key = compile_stage_key(source, nprocs=nprocs, grid_shape=grid_shape,
                                params=params)
    cached = _compile_cache.get(key)
    if cached is not None:
        _note("compile", hit=True)
        return cached
    _note("compile", hit=False)
    with obs.span("compile", nprocs=nprocs):
        source_file, program = parse_cached(source, name=name)
        compiled = compile_program(program, source_file, CompileOptions(
            nprocs=nprocs, grid_shape=grid_shape, params=dict(params or {})))
    _compile_cache.put(key, compiled)
    return compiled


def price_cached(compiled, machine: Machine, *, compile_key: str,
                 options: Optional[InterpreterOptions] = None,
                 cacheable: bool = True,
                 pricer: Callable | None = None):
    """The price stage, memoised per (compile key, machine, options).

    ``cacheable=False`` (e.g. a caller-built :class:`Machine` instance that
    may not match its registry namesake) bypasses the cache entirely but
    keeps the one code path.  ``pricer`` overrides the default
    :func:`repro.interpreter.interpret` call (tests).
    """
    key = price_stage_key(compile_key, machine, options) if cacheable else None
    if key is not None:
        cached = _price_cache.get(key)
        if cached is not None:
            _note("price", hit=True)
            return cached
        _note("price", hit=False)
    with obs.span("price", machine=machine.name):
        result = (pricer or interpret)(compiled, machine, options=options)
    if key is not None:
        _price_cache.put(key, result)
    return result


def trace_stage_key(compile_key: str, max_while_iterations: int) -> tuple:
    """Key of the trace stage: the compile key plus the one simulator option
    that can change what a live run observes (a ``DO WHILE`` limit)."""
    return (compile_key, int(max_while_iterations))


def simulate_staged(compiled, machine: Machine,
                    options: Optional[SimulatorOptions] = None,
                    params: Mapping[str, float] | None = None,
                    keep_state: bool = False, *,
                    compile_key: str | None = None):
    """:func:`~repro.simulator.simulate` through the machine-free trace stage.

    The first vector-engine run of a compiled program executes its data
    plane live and records what the timing plane read
    (:class:`~repro.simulator.dataplane.ExecutionTrace`); every later run
    of that program — on any machine, with any noise seed — replays the
    trace instead of executing the program again.  The result is bit for
    bit the live result.  Runs the trace cannot serve (the loop engine,
    parameter overrides, ``keep_state``) run live and touch nothing here,
    and a run that raises stores nothing.
    """
    options = options or SimulatorOptions()
    if options.engine != "vector" or params is not None or keep_state:
        return simulate(compiled, machine, options=options, params=params,
                        keep_state=keep_state)
    key = trace_stage_key(compile_key or compile_key_of(compiled),
                          options.max_while_iterations)
    trace = _trace_cache.get(key)
    if trace is not None:
        _note("trace", hit=True)
        return simulate(compiled, machine, options=options,
                        data=ReplayDataPlane(trace))
    _note("trace", hit=False)
    recorder = LiveDataPlane(compiled, record=True)
    result = simulate(compiled, machine, options=options, data=recorder)
    _trace_cache.put(key, recorder.trace())
    return result


__all__ = [
    "PARSE_CACHE_SIZE",
    "COMPILE_CACHE_SIZE",
    "PRICE_CACHE_SIZE",
    "TRACE_CACHE_SIZE",
    "LRUCache",
    "compile_stage_key",
    "compile_key_of",
    "price_stage_key",
    "machine_stage_token",
    "options_stage_token",
    "parse_cached",
    "compile_cached",
    "price_cached",
    "trace_stage_key",
    "simulate_staged",
    "clear_stage_caches",
    "stage_cache_sizes",
]
