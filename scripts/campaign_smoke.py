"""CI campaign smoke: a small design-space sweep with a persistent store.

Runs one predict-mode campaign (2 Laplace distributions x 3 sizes x
3 system sizes x 2 machines), asserts the subsystem end to end — non-empty
store, rendering best-config table, 100% store hits on an immediate re-run —
and persists the store under ``benchmarks/results/`` so the *next* revision
can compare against this one.  When a previous store is present, every
freshly evaluated point is diffed against it and drift is reported (and
tolerated: a deliberate model change is supposed to move the numbers; the
diff is the record that it did).

A small multi-machine measure campaign then checks the trace stage: its
store (each compiled program's data plane run once, replayed on the other
machines) must be byte-identical to a store built from live ``simulate()``
calls over the same points.  That store lives in a temporary directory.

Usage:  PYTHONPATH=src python scripts/campaign_smoke.py [store-path]
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs, stages  # noqa: E402
from repro.explore import (  # noqa: E402
    ResultStore,
    ScenarioResult,
    ScenarioSpace,
    best_config_table,
    run_campaign,
    store_diff,
    store_diff_table,
)
from repro.explore.campaign import compile_scenario  # noqa: E402
from repro.simulator import simulate  # noqa: E402
from repro.system import get_machine  # noqa: E402

DEFAULT_STORE = os.path.join(os.path.dirname(__file__), "..",
                             "benchmarks", "results", "smoke_campaign.jsonl")

SMOKE_SPACE = ScenarioSpace(
    apps=("laplace_block_star", "laplace_star_block"),
    sizes=(16, 32, 64),
    proc_counts=(2, 4, 8),
    machines=("ipsc860", "torus-cluster"),
)

MEASURE_SPACE = ScenarioSpace(
    apps=("laplace_block_star", "lfk1"),
    sizes=(16, 32),
    proc_counts=(2, 4),
    machines=("ipsc860", "paragon", "torus-cluster"),
)

DRIFT_TOLERANCE_PCT = 0.01      # predictions are analytic: exact in practice


def staged_measure_check(tmpdir: str) -> None:
    """Measure campaign through the trace stage == live ``simulate()``."""
    stages.clear_stage_caches()
    obs.enable()
    staged_path = os.path.join(tmpdir, "staged.jsonl")
    run = run_campaign(MEASURE_SPACE, name="ci-smoke-measure", mode="measure",
                       store=ResultStore(staged_path), executor="serial")
    flat = obs.get_registry().flatten()
    obs.disable()
    hits = int(flat.get('repro_stage_cache_hits_total{stage="trace"}', 0))
    misses = int(flat.get('repro_stage_cache_misses_total{stage="trace"}', 0))
    expected = len(MEASURE_SPACE.expand())
    assert run.evaluated == expected == hits + misses, \
        f"measure smoke: {run.evaluated} evaluated, {hits}+{misses} lookups"

    live_path = os.path.join(tmpdir, "live.jsonl")
    live = ResultStore(live_path)
    for staged in ResultStore(staged_path):
        point = staged.point
        compiled, _ = compile_scenario(point)
        machine = get_machine(point.machine, point.nprocs,
                              topology_shape=point.topology_shape)
        live.add(ScenarioResult(
            point=point, mode="measure",
            measured_us=simulate(compiled, machine).measured_time_us,
            grid_shape=tuple(compiled.mapping.grid.shape)))
    with open(staged_path, "rb") as a, open(live_path, "rb") as b:
        assert a.read() == b.read(), \
            "staged measure store differs from the live simulate() store"
    print(f"staged measure: {expected} points byte-identical to live "
          f"simulate(); trace stage {hits} hits / {misses} misses "
          f"(hit ratio {hits / (hits + misses):.2f})")


def main() -> int:
    store_path = sys.argv[1] if len(sys.argv) > 1 else os.path.normpath(DEFAULT_STORE)
    had_previous = os.path.exists(store_path)
    previous = list(ResultStore(store_path)) if had_previous else []

    # evaluate fresh (no store) so a previous run can be compared against
    fresh = run_campaign(SMOKE_SPACE, name="ci-smoke", mode="predict")
    expected = len(SMOKE_SPACE.expand())
    assert len(fresh.results) == expected, \
        f"smoke campaign produced {len(fresh.results)} of {expected} points"

    # cross-store regression diff, joined on the content-addressed key; the
    # CI store also accumulates advisor-smoke scenarios, so restrict the old
    # side to this campaign's own keys (otherwise they read as "removed")
    fresh_keys = {r.key for r in fresh.results}
    previous = [r for r in previous if r.key in fresh_keys]
    diff = store_diff(previous, fresh.results, tolerance_pct=DRIFT_TOLERANCE_PCT)

    # persist; only drifted records are superseded so an unchanged model
    # leaves the committed store byte-identical
    drifted_keys = {new.key for _, new, _ in diff.drifted}
    store = ResultStore(store_path)
    for result in fresh.results:
        store.add(result, replace=result.key in drifted_keys)
    assert len(store) > 0, "smoke store is empty"

    table = best_config_table(fresh.results,
                              title="CI smoke: best configuration per scenario")
    assert table.strip(), "best-config table did not render"
    print(table)
    print()

    if had_previous:
        print(store_diff_table(diff=diff,
                               title="prediction drift vs previous run"))
    else:
        print(f"no previous store at {store_path}; baseline written")
    print()

    # a second smoke store (e.g. a scratch path) diffs cleanly store-vs-store
    # through the same report; here we only assert the join is well-formed
    assert diff.compared + len(diff.added) == len(fresh.results)

    # resume check: a re-run must be served entirely from the store
    rerun = run_campaign(SMOKE_SPACE, name="ci-smoke-rerun", mode="predict",
                         store=ResultStore(store_path))
    assert rerun.evaluated == 0 and rerun.store_hits == len(fresh.results), \
        f"re-run evaluated {rerun.evaluated} points instead of hitting the store"
    print(f"store: {len(store)} records at {store_path}; "
          f"re-run hit the store for all {rerun.store_hits} points")

    with tempfile.TemporaryDirectory(prefix="measure-smoke-") as tmpdir:
        staged_measure_check(tmpdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
