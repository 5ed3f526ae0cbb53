"""The repository benchmark: one workload, checked, every metric printed.

    python3 perfbench/run.py --workload sweep|scale|serve --seed N \\
        --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``sweep``  a serial design-space campaign: a predict pass over 2016
  suite points, then a measure pass over 144 simulated points.
* ``scale``  single simulated runs at modern-cluster p=1024 and p=8192
  and torus-cluster p=1024.
* ``serve``  ``python -m repro.serve`` under a seeded open-loop Poisson
  load of 300 requests/s on two keep-alive connections.

Every workload reports the same end-to-end metrics, measured with tracing
off:

* ``fast_path_ms``  sweep: predict-pass wall per point; scale: median
  host time of one simulate() at modern-cluster p=1024; serve: median
  latency of memory-tier answers, timed from when each request was due.
* ``slow_path_ms``  sweep: measure-pass wall per point; scale: median
  host time of the p=8192 and torus p=1024 runs of one cycle together;
  serve: median latency of computed answers, timed from due time.
* ``setup_s``  from process start to the first timed operation, the
  median over three fresh processes.
* ``peak_rss_mb``  peak resident set of the process doing the work (the
  server process for ``serve``).

The three times are normalised to a reference host speed (see
``hostspeed.py``): this benchmark runs on shared virtual machines whose
speed swings by up to 2x within minutes.  The envelope keeps them raw too.

``--trace 1`` runs the workload twice at a fixed length, untraced and then
traced, and prints the per-layer metrics: for each layer its calls, self
time and share of the wall time, the extra counts, ``unattributed_share``
and ``trace_overhead_pct`` (traced over untraced wall; for ``serve``, server
CPU seconds over the same schedule).  Names that start with another
workload's name read 0.  The full result envelope (commit, host, seed, medians, quartiles
and sample counts) is written to ``perfbench/out/``; compare two of them
with ``perfbench/compare.py``.

Each run checks its outputs against an oracle outside the timed region.  A
mismatch is a failed operation: the result says ``"correct": false`` and
the command exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import common

#: Whole-command budget; each worker gets what is left of it.
BUDGET_S = 170.0
WORKLOADS = ("sweep", "scale", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_sources():
        print(f"perfbench: no repro sources under {common.SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    bench = common.load_benchmark()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        envelope = run_traced(args, bench, deadline)
    else:
        envelope = run_untraced(args, bench, deadline)
    path = os.path.join(common.OUT_DIR, f"{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(envelope, fh, indent=1, sort_keys=True)
    for failure in envelope["failures"][:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": envelope["correct"],
        "attempted": envelope["attempted"],
        "failed": envelope["failed"],
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in envelope["metrics"].items()},
    }))
    return 0 if envelope["correct"] else 1


def spawn(args, deadline: float, *, setup_only=False, trace=0, fixed=False,
          spans_out=None) -> dict:
    """Run one fresh worker process and return its JSON result."""
    cmd = [sys.executable, os.path.join(common.BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if fixed:
        cmd.append("--fixed")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    cmd += ["--t-spawn", repr(time.time())]
    # its own process group, so a server it started goes down with it
    proc = subprocess.Popen(cmd, cwd=common.ROOT, env=common.child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} worker ran past the "
                         f"{BUDGET_S:g} s budget")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass                    # the group has ended on its own
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def envelope_for(args, bench, runs: list[dict], metrics: dict,
                 failures: list[str]) -> dict:
    attempted = sum(run.get("attempted", 0) for run in runs)
    return {
        "schema": common.SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": common.git_commit(),
        "host": common.host_info(),
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "correct": not failures,
        "failures": failures,
        "metrics": metrics,
        "runs": [{k: v for k, v in run.items() if k != "phases"}
                 for run in runs],
    }


def run_untraced(args, bench, deadline) -> dict:
    setups = [spawn(args, deadline, setup_only=True)
              for _ in range(common.SETUP_REPEATS - 1)]
    run = spawn(args, deadline)
    setups.append(run)
    samples = dict(run["samples"])
    samples["setup_s"] = [s["setup_s"] for s in setups]
    samples["raw_setup_s"] = [s["raw_setup_s"] for s in setups]
    samples["peak_rss_mb"] = [run["peak_rss_mb"]]
    metrics = {}
    for spec in bench["end_to_end"]:
        metrics[spec["name"]] = dict(common.summary(samples[spec["name"]]),
                                     unit=spec["unit"])
    envelope = envelope_for(args, bench, [run], metrics,
                            list(run["failures"]))
    # the same times before host-speed normalisation
    envelope["raw_metrics"] = {
        name[len("raw_"):]: common.summary(series)
        for name, series in samples.items() if name.startswith("raw_")}
    return envelope


def run_traced(args, bench, deadline) -> dict:
    plain = spawn(args, deadline, fixed=True)
    spans_out = os.path.join(common.OUT_DIR,
                             f"{args.workload}-seed{args.seed}-spans.jsonl")
    traced = spawn(args, deadline, trace=1, fixed=True, spans_out=spans_out)
    trace = traced["trace"]
    failures = list(plain["failures"]) + list(traced["failures"])
    if trace["not_restored"]:
        failures.append(f"attributes not restored: {trace['not_restored']}")
    if plain["digest"] != traced["digest"]:
        failures.append(f"traced output digest {traced['digest']} != "
                        f"untraced {plain['digest']}")
    if not trace["sum_check"]["ok"]:
        failures.append(f"layer self times do not add up to the wall time: "
                        f"{trace['sum_check']}")
    values = dict(trace["metrics"])
    values["trace_overhead_pct"] = \
        (traced["wall_s"] / plain["wall_s"] - 1.0) * 100.0
    # the workload's own headline figures, from the untraced run
    for name, series in plain["samples"].items():
        if name not in ("fast_path_ms", "slow_path_ms"):
            values[f"{args.workload}.{name}"] = \
                common.summary(series)["median"]
    metrics = {}
    for spec in bench["per_layer"]:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.split(".")[0] in WORKLOADS and \
                name.split(".")[0] != args.workload:
            value = 0
        else:
            raise SystemExit(f"perfbench: {args.workload} did not measure "
                             f"per-layer metric {name!r}")
        metrics[name] = {"median": value, "q1": value, "q3": value, "n": 1,
                         "unit": spec["unit"]}
    envelope = envelope_for(args, bench, [plain, traced], metrics, failures)
    envelope["trace"] = {k: v for k, v in trace.items() if k != "metrics"}
    envelope["spans_file"] = os.path.relpath(spans_out, common.ROOT)
    return envelope


if __name__ == "__main__":
    sys.exit(main())
