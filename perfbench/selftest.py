"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about ten seconds:

* every attribute the tracer wraps is restored afterwards: a snapshot of
  every loaded ``repro`` module and wrapped class is unchanged;
* a traced run gives the same output digest as an untraced one;
* layer self times plus the unattributed time add up to the wall time
  within 1%, on a real traced run and on hand-built spans whose self
  times are known;
* every metric the workloads produce is declared in ``BENCHMARK.json``,
  and every declared metric is produced by some workload.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import importlib
import sys
import time

import common

common.use_sources()

import tracing  # noqa: E402


def snapshot() -> dict:
    state = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or
                                   name.startswith("repro.")):
            state[name] = dict(vars(module))
    for _, module_name, path, _ in tracing.LAYER_SPECS:
        if "." in path:
            owner = getattr(importlib.import_module(module_name),
                            path.split(".")[0])
            state[f"{module_name}:{owner.__name__}"] = dict(vars(owner))
    return state


def changed(before: dict, after: dict) -> list[str]:
    out = []
    for owner, attrs in before.items():
        now = after.get(owner, {})
        out += [f"{owner}.{attr}" for attr, value in attrs.items()
                if now.get(attr) is not value]
    return out


def mini_campaign(tracer=None) -> tuple[str, float]:
    """A few predict and measure points; returns (digest, wall)."""
    from repro import stages
    from repro.explore import ScenarioSpace, run_campaign
    space = ScenarioSpace(apps=("laplace_block_star", "lfk1"),
                          sizes=(64, 128), proc_counts=(4, 8),
                          machines=("ipsc860", "cluster"))
    stages.clear_stage_caches()
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    predict = run_campaign(space, mode="predict", executor="serial")
    measure = run_campaign(space, mode="measure", executor="serial")
    wall = time.perf_counter() - start
    outputs = sorted((r.key, r.estimated_us, r.measured_us)
                     for r in predict.results + measure.results)
    return common.digest(outputs), wall


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAILED {message}")
        sys.exit(1)
    print(f"selftest: ok     {message}")


def test_restore_and_digest() -> None:
    import repro  # noqa: F401  (load every module before the snapshot)
    plain_digest, _ = mini_campaign()
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = changed(before, snapshot())
    check(len(wrapped) >= len(tracing.LAYER_SPECS),
          f"install wraps {len(wrapped)} attributes for "
          f"{len(tracing.LAYER_SPECS)} specs")
    traced_digest, wall = mini_campaign(tracer)
    not_restored = tracer.uninstall()
    check(not not_restored and not changed(before, snapshot()),
          "every wrapped attribute is restored")
    check(traced_digest == plain_digest,
          f"traced digest {traced_digest} == untraced {plain_digest}")
    analysis = tracing.analyse(tracer.spans, tracer.calls, tracer.counts,
                               wall)
    metrics = analysis["metrics"]
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) \
        + metrics["unattributed_share"] * wall
    check(abs(total - wall) / wall <= 0.01 and analysis["sum_check"]["ok"],
          f"self times + unattributed = wall within 1% "
          f"({total:.4f} s vs {wall:.4f} s)")
    check(metrics["interpreter.calls"] > 0 and metrics["functional.calls"] > 0
          and metrics["simulator.node.rows"] > 0,
          "predict and measure layers recorded calls and counts")


def test_synthetic_spans() -> None:
    # thread 1: a [0, 10] campaign span holding a [1, 4] stages span that
    # holds a [2, 3] frontend span; thread 2: a lone [5, 7] interpreter span
    spans = [
        (0, "explore.campaign", "evaluate_point", 0.0, 10.0, -1, 1, ""),
        (1, "stages", "compile_cached", 1.0, 4.0, 0, 1, ""),
        (2, "frontend", "parse_source", 2.0, 3.0, 1, 1, ""),
        (3, "interpreter", "interpret", 5.0, 7.0, -1, 2, ""),
    ]
    analysis = tracing.analyse(spans, {}, {}, 20.0)
    m = analysis["metrics"]
    check(m["explore.campaign.self_s"] == 7.0 and m["stages.self_s"] == 2.0
          and m["frontend.self_s"] == 1.0 and m["interpreter.self_s"] == 2.0,
          "synthetic spans give the known self times")
    check(abs(m["unattributed_share"] - 8.0 / 20.0) < 1e-12
          and analysis["sum_check"]["ok"],
          "synthetic spans: unattributed share 0.4, sum check holds")
    check(m["stages.compile_lookups"] == 1
          and m["stages.compile_hit_ratio"] == 0.0,
          "a compile lookup that reached the frontend is a miss")


def produced_names() -> set:
    from scale import Scale
    from serve_load import CLIENT_METRICS, ServeLoad
    from sweep import Sweep
    names = set(tracing.analyse([], {}, {}, 1.0)["metrics"])
    names.add("trace_overhead_pct")
    for workload in (Sweep, Scale, ServeLoad):
        names |= {f"{workload.name}.{h}" for h in workload.HEADLINES}
    names |= {f"serve.{name}" for name in CLIENT_METRICS}
    return names


def test_declared_names() -> None:
    bench = common.load_benchmark()
    declared_layer = {spec["name"] for spec in bench["per_layer"]}
    produced = produced_names()
    check(produced == declared_layer,
          f"per-layer names produced == declared "
          f"(undeclared {sorted(produced - declared_layer)}, "
          f"never produced {sorted(declared_layer - produced)})")
    end_to_end = {spec["name"] for spec in bench["end_to_end"]}
    check(end_to_end == {"fast_path_ms", "slow_path_ms", "setup_s",
                         "peak_rss_mb"},
          "end-to-end names are the ones every workload measures")
    workloads = {spec["name"] for spec in bench["workloads"]}
    check(workloads == {"sweep", "scale", "serve"}, "workloads declared")


def main() -> int:
    test_synthetic_spans()
    test_declared_names()
    test_restore_and_digest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
