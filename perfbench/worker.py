"""One workload in one fresh process; prints its raw result as JSON.

Started by ``run.py``; not meant to be run by hand.  ``--t-spawn`` is the
parent's wall clock just before it started this process, so ``setup_s``
covers interpreter start, imports and the workload's set-up up to its
first timed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common
import hostspeed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixed", action="store_true",
                        help="the fixed run length of a trace comparison")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    common.use_sources()
    started = time.perf_counter()
    before = time.time() - args.t_spawn     # interpreter start and imports
    tracer = None
    with hostspeed.Sampler() as sampler:
        if args.trace and args.workload != "serve":
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        workload = make_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    ended = time.perf_counter()
    setup_s = time.time() - args.t_spawn
    sampler.top_up()
    out = {"setup_s": before / sampler.slowness(started, ended)
           + sampler.normalise(started, ended),
           "raw_setup_s": setup_s}
    try:
        if args.setup_only:
            out["peak_rss_mb"] = common.peak_rss_mb()
            return _emit(out)
        if tracer is not None:
            tracer.reset()
        length = 0 if args.fixed else args.seconds
        # end-to-end runs are normalised to host speed; trace comparisons
        # and traced runs are not, so no burst lands inside a span
        calibrate = not (args.fixed or args.trace)
        result = workload.run(workload.rounds_for(length), calibrate)
        out.update(result)
        out.setdefault("peak_rss_mb", common.peak_rss_mb())
        if tracer is not None:
            out["trace"] = _in_process_trace(tracer, result, args.spans_out)
        out["failures"] = workload.check()
    finally:
        workload.close()
    return _emit(out)


def make_workload(name: str, seed: int, seconds: float, traced: bool):
    if name == "sweep":
        from sweep import Sweep
        return Sweep(seed)
    if name == "scale":
        from scale import Scale
        return Scale(seed)
    if name == "serve":
        from serve_load import ServeLoad
        return ServeLoad(seed, seconds, traced=traced)
    raise SystemExit(f"unknown workload {name!r}")


def _in_process_trace(tracer, result, spans_out) -> dict:
    import tracing
    patched = tracer.patch_count
    not_restored = tracer.uninstall()
    analysis = tracing.analyse(tracer.spans, tracer.calls, tracer.counts,
                               result["wall_s"])
    phases = {}
    for name, start, end in result["phases"]:
        window = tracing.analyse(tracer.spans, tracer.calls, tracer.counts,
                                 end - start, window=(start, end))
        shares = phases.setdefault(name, {})
        for layer in tracing.LAYERS:
            shares.setdefault(layer, []).append(
                window["metrics"][f"{layer}.share"])
    if spans_out:
        tracer.write_spans(spans_out)
    return {
        "metrics": analysis["metrics"],
        "sum_check": analysis["sum_check"],
        "phase_shares": {name: {layer: sum(v) / len(v)
                                for layer, v in shares.items()}
                         for name, shares in phases.items()},
        "patched": patched,
        "not_restored": not_restored,
        "spans": len(tracer.spans),
    }


def _emit(out: dict) -> int:
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    os.makedirs(common.OUT_DIR, exist_ok=True)
    sys.exit(main())
