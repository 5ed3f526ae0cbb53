"""The simulator's data plane, run live or replayed from a trace.

The executor's timing plane *reads* the program's data plane — DO bounds,
``DO WHILE`` and ``IF`` outcomes, shift offsets, owner-statement target
indices, reduction extents and the shape of every executed forall — but
never writes to it.  Every such read goes through one small object:

* :class:`LiveDataPlane` runs the normalised program through the
  functional evaluator (the real NumPy arithmetic).  It wraps the raw
  builtin errors NumPy raises on a program it cannot run in a typed
  :class:`~repro.frontend.errors.SimulationError` naming the SPMD node's
  source line, and opens one ``data_plane`` obs span per call.  With
  ``record=True`` it also keeps every observation the timing plane read, in
  order, as an :class:`ExecutionTrace`.
* :class:`ReplayDataPlane` serves a recorded trace back in order without
  running the program.  Each request names its kind and its node; a trace
  that does not match (another program, another engine, a bug) raises
  :class:`~repro.frontend.errors.SimulationError` instead of pricing
  garbage, and so does a trace that is not fully consumed.

Nothing in a trace depends on the machine: control flow never reads a
clock, and the per-rank loop-nest shapes come from the compiled mapping.
That is what lets :func:`repro.stages.simulate_staged` record one trace per
compiled program and replay it on every machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..frontend import ast_nodes as ast
from ..frontend.errors import SimulationError
from ..functional.evaluator import FunctionalEvaluator, execute_forall

#: Builtin exceptions the NumPy data plane raises on a program it cannot
#: run (out-of-bounds sections, non-conformable shapes, bad conversions).
DATA_PLANE_ERRORS = (ArithmeticError, LookupError, TypeError, ValueError)


def _same(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is b
    return a is b or (a.shape == b.shape and bool(np.array_equal(a, b)))


@dataclass(frozen=True, eq=False)
class LoopNestShape:
    """Machine-free per-rank shape of one executed loop nest (vector engine).

    Exactly what :meth:`~repro.simulator.node.NodeCostModel.loop_nest_times`
    reads besides the node's own operation counts: per-rank local iteration
    counts, innermost extents (already clamped to at least one) and mask
    fractions (``None`` without a mask; negative for a rank with no
    iterations), plus the profile's stride flag.
    """

    local_elements: np.ndarray
    innermost_extents: np.ndarray
    mask_fractions: np.ndarray | None
    stride1: bool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopNestShape):
            return NotImplemented
        return (self.stride1 == other.stride1
                and _same(self.local_elements, other.local_elements)
                and _same(self.innermost_extents, other.innermost_extents)
                and _same(self.mask_fractions, other.mask_fractions))

    __hash__ = None


@dataclass(frozen=True)
class ExecutionTrace:
    """Everything one run's timing plane read from its data plane, in order.

    ``observations`` holds ``(kind, source line, value)`` tuples; repeated
    observations and repeated per-rank arrays are shared, and the arrays
    are read-only.  ``printed`` and ``array_checksum`` are the run's final
    outputs.
    """

    observations: tuple
    printed: tuple[str, ...]
    array_checksum: float


class LiveDataPlane:
    """The program's arrays and scalars, evaluated with NumPy.

    ``record=True`` keeps every observation for :meth:`trace`; only the
    vector engine's :class:`LoopNestShape` forall shapes can be recorded
    (the loop engine's shape is the raw forall record, masks included).
    """

    def __init__(self, compiled, params: dict[str, float] | None = None,
                 record: bool = False):
        env = dict(compiled.mapping.env)
        if params:
            env.update({k.lower(): float(v) for k, v in params.items()})
        # Execute the *normalised* program's declarations; the executor
        # drives control flow from the SPMD IR.
        self.evaluator = FunctionalEvaluator(compiled.normalized,
                                             compiled.symtable, params=env)
        self.state = self.evaluator.state
        self._exprs = self.evaluator.exprs
        self._observations: list | None = [] if record else None
        self._interned: dict = {}
        self._trace: ExecutionTrace | None = None

    # -- plumbing ---------------------------------------------------------

    def _run(self, node, fn, *args):
        """Call *fn* inside the ``data_plane`` span, typing its failures."""
        with obs.span("data_plane"):
            try:
                return fn(*args)
            except DATA_PLANE_ERRORS as exc:
                raise SimulationError(
                    f"line {node.line}: the program's data plane failed: "
                    f"{type(exc).__name__}: {exc}") from exc

    def _observe(self, kind: str, node, value, key=None):
        if self._observations is not None:
            observation = (kind, node.line, value)
            key = observation if key is None else key
            self._observations.append(
                self._interned.setdefault(key, observation))
        return value

    def _intern_array(self, array: np.ndarray | None) -> np.ndarray | None:
        if array is None:
            return None
        key = (array.dtype.str, array.shape, array.tobytes())
        shared = self._interned.get(key)
        if shared is None:
            shared = np.array(array)
            shared.flags.writeable = False
            self._interned[key] = shared
        return shared

    def _intern_shape(self, shape):
        if shape is None:
            return None
        if not isinstance(shape, LoopNestShape):
            raise SimulationError(
                "only the vector engine's loop-nest shapes can be recorded")
        arrays = tuple(self._intern_array(a) for a in (
            shape.local_elements, shape.innermost_extents,
            shape.mask_fractions))
        key = ("shape", shape.stride1) + tuple(map(id, arrays))
        return self._interned.setdefault(
            key, LoopNestShape(*arrays, stride1=shape.stride1))

    def _scalar(self, expr: ast.Expr | None, default: float = 0.0) -> float:
        if expr is None:
            return default
        value = self._exprs.eval(expr)
        return float(np.asarray(value).reshape(()).item()) \
            if isinstance(value, np.ndarray) else float(value)

    # -- control flow -----------------------------------------------------

    def do_bounds(self, node) -> tuple[int, int, int]:
        def bounds():
            step = int(self._scalar(node.step)) if node.step is not None else 1
            return int(self._scalar(node.start)), int(self._scalar(node.end)), step
        return self._observe("do", node, self._run(node, bounds))

    def set_index(self, node, value: int) -> None:
        self._run(node, self.state.set_scalar, node.var, value)

    def loop_test(self, node) -> bool:
        return self._observe("while", node, self._run(
            node, lambda: bool(np.all(self._exprs.eval(node.cond)))))

    def branch(self, node) -> int:
        """Index of the first true branch of an IF, or -1 for its else body."""
        def first_true():
            for index, (cond, _body) in enumerate(node.branches):
                if bool(np.all(self._exprs.eval(cond))):
                    return index
            return -1
        return self._observe("if", node, self._run(node, first_true))

    # -- statements -------------------------------------------------------

    def assign(self, node, stmt: ast.Assignment) -> None:
        self._run(node, self.evaluator.exec_assignment, stmt)

    def print_stmt(self, node, stmt: ast.PrintStmt) -> None:
        self._run(node, self.evaluator.exec_print, stmt)

    def shift_offset(self, node) -> int:
        return self._observe("shift", node, self._run(
            node, lambda: int(self._scalar(node.offset_expr, 1))))

    def owner_index(self, node, stmt: ast.Assignment) -> tuple[int, ...]:
        """The owner statement's target element (Fortran indices)."""
        return self._observe("owner", node, self._run(node, lambda: tuple(
            int(np.asarray(self._exprs.eval(sub)))
            for sub in stmt.target.indices)))

    def reduction_extent(self, node, fallback: float) -> float:
        """Element count of the reduction's first array operand."""
        def extent():
            for ref in ast.expr_array_refs(node.source):
                if self.state.is_array(ref.name):
                    return float(np.asarray(self._exprs.eval(ref)).size)
            for sub in ast.walk_expr(node.source):
                if isinstance(sub, ast.Var) and self.state.is_array(sub.name):
                    return float(self.state.array(sub.name).data.size)
            return fallback
        return self._observe("extent", node, self._run(node, extent))

    def forall(self, node, shape_of):
        """Execute the loop nest's forall; ``(iterations, shape_of(record))``.

        *shape_of* turns the forall record into the engine's per-rank shape;
        it is only called for a non-empty iteration space (shape ``None``
        otherwise).
        """
        forall = node.origin
        if not isinstance(forall, ast.ForallStmt):
            raise SimulationError("loop nest without a forall origin")
        record = self._run(node, execute_forall, forall, self.state, self._exprs)
        shape = shape_of(record) if record.iterations else None
        if self._observations is None:
            return record.iterations, shape
        value = (record.iterations, self._intern_shape(shape))
        return self._observe("forall", node, value,
                             key=("forall", node.line, value[0], id(value[1])))

    # -- outputs ----------------------------------------------------------

    def finish(self) -> tuple[list[str], float]:
        """The run's printed lines and array checksum (seals a recording)."""
        printed, checksum = list(self.state.printed), self.state.checksum()
        if self._observations is not None:
            self._trace = ExecutionTrace(tuple(self._observations),
                                         tuple(printed), checksum)
            self._observations = None
            self._interned = {}
        return printed, checksum

    def trace(self) -> ExecutionTrace:
        """The recorded trace of a finished recording run."""
        if self._trace is None:
            raise SimulationError("no finished recording to take a trace from")
        return self._trace


class ReplayDataPlane:
    """Serves a recorded :class:`ExecutionTrace` back, in order."""

    state = None

    def __init__(self, trace: ExecutionTrace):
        self._trace = trace
        self._observations = trace.observations
        self._cursor = 0

    def _take(self, kind: str, node):
        cursor = self._cursor
        if cursor >= len(self._observations):
            raise SimulationError(
                f"line {node.line}: asks for a {kind!r} observation past the "
                f"end of the trace ({cursor} observations)")
        seen_kind, line, value = self._observations[cursor]
        if seen_kind != kind or line != node.line:
            raise SimulationError(
                f"line {node.line}: asks for a {kind!r} observation but "
                f"trace entry {cursor} is {seen_kind!r} from line {line}")
        self._cursor = cursor + 1
        return value

    def do_bounds(self, node) -> tuple[int, int, int]:
        return self._take("do", node)

    def set_index(self, node, value: int) -> None:
        pass

    def loop_test(self, node) -> bool:
        return self._take("while", node)

    def branch(self, node) -> int:
        return self._take("if", node)

    def assign(self, node, stmt) -> None:
        pass

    def print_stmt(self, node, stmt) -> None:
        pass

    def shift_offset(self, node) -> int:
        return self._take("shift", node)

    def owner_index(self, node, stmt) -> tuple[int, ...]:
        return self._take("owner", node)

    def reduction_extent(self, node, fallback: float) -> float:
        return self._take("extent", node)

    def forall(self, node, shape_of):
        return self._take("forall", node)

    def finish(self) -> tuple[list[str], float]:
        if self._cursor != len(self._observations):
            raise SimulationError(
                f"replay consumed {self._cursor} of "
                f"{len(self._observations)} trace observations")
        return list(self._trace.printed), self._trace.array_checksum
